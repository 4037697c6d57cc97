"""Fixed reference loops that measure how fast this core runs right now.

On a shared virtual machine the same code runs up to 1.6 times slower or
faster from one fraction of a second to the next, as other tenants load the
host's cores. The benchmark times a reference loop just before and just
after every operation and scales the operation's time by
``NOMINAL_S / mean(loop before, loop after)``, which cancels most of that
drift while keeping the unit.

A loop only tracks the drift a workload feels if it leans on the same
resources, so there are two: one shaped like a Newton-Raphson step on a
68-bus case (LAPACK solve, small dense complex products, interpreter-bound
object edits) and one shaped like a training epoch of the 64-32 MLP on 353
features (matrix products and optimizer-sized vector updates). Neither
calls gridsec, so no change to the program can move them.
"""

import dataclasses
import statistics
import time

import numpy as np


@dataclasses.dataclass(frozen=True)
class _Item:
    a: float
    b: float


class _Loop:
    """A loop timed ``PASSES`` times per sample; a sample is the median pass,
    so that one interrupted pass does not set an operation's scale."""

    PASSES = 1

    def sample(self):
        """Seconds for one pass of the loop: the median of ``PASSES``."""
        return statistics.median(self._timed_pass() for _ in range(self.PASSES))

    def _timed_pass(self):
        t0 = time.perf_counter()
        self._pass()
        return time.perf_counter() - t0


class SolverLoop(_Loop):
    """Reference loop for the power-flow workloads."""

    # Median loop time on the 2-vCPU Xeon VM where the stored spreads were
    # measured; scaled times read as milliseconds on that machine.
    NOMINAL_S = 2.6e-3
    REPEATS = 6

    def __init__(self):
        rng = np.random.default_rng(68)
        n = 68
        self.y = rng.random((n, n)) + 1j * rng.random((n, n))
        self.v = np.exp(1j * rng.random(n))
        self.jac = rng.random((2 * n - 6, 2 * n - 6)) + 2 * n * np.eye(2 * n - 6)
        self.rhs = rng.random(2 * n - 6)
        self.items = [_Item(float(i), 1.0) for i in range(86)]

    def _pass(self):
        for _ in range(self.REPEATS):
            diag_v = np.diag(self.v)
            diag_v @ np.conj(self.y @ diag_v)
            self.v * np.conj(self.y @ self.v)
            np.linalg.solve(self.jac, self.rhs)
            sum(dataclasses.replace(it, b=it.a * 0.5).b for it in self.items)


class TrainingLoop(_Loop):
    """Reference loop for the training workload. Its operations last about
    half a second, so a sample is the median of several passes."""

    NOMINAL_S = 1.0e-3  # see SolverLoop.NOMINAL_S
    REPEATS = 3
    PASSES = 9

    def __init__(self):
        rng = np.random.default_rng(353)
        self.x = rng.random((60, 353))
        self.w1 = rng.random((353, 64))
        self.w2 = rng.random((64, 32))
        self.g = rng.random(24_802)
        self.m = np.zeros_like(self.g)
        self.v = np.zeros_like(self.g)

    def _pass(self):
        for _ in range(self.REPEATS):
            h = np.maximum(self.x @ self.w1, 0.0)
            out = h @ self.w2
            self.x.T @ (out @ self.w2.T)
            self.m = 0.9 * self.m + 0.1 * self.g
            self.v = 0.999 * self.v + 0.001 * self.g * self.g
            -0.001 * self.m / (np.sqrt(self.v) + 1e-8)


def scales(loop, samples):
    """Scale factor per operation; ``samples[i]`` was taken just before
    operation ``i`` and ``samples[i + 1]`` just after it."""
    return [2.0 * loop.NOMINAL_S / (before + after)
            for before, after in zip(samples, samples[1:])]
