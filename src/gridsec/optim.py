"""Gradient-descent update rules behind one stepping interface.

Seven algorithms: sgd, sgd-m, nag, nag-m (constant learning rate) and
adagrad, adam, nadam (per-coordinate adaptive rates). Every step applies
theta_next = theta + delta with the algorithm's own delta; the Nesterov
variants evaluate the gradient at the momentum-extrapolated lookahead
point, which is why stepping takes a gradient callback instead of a
gradient value.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import OptimizerError

NON_ADAPTIVE = ("sgd", "sgd-m", "nag", "nag-m")
ADAPTIVE = ("adagrad", "adam", "nadam")
ALGORITHMS = NON_ADAPTIVE + ADAPTIVE


@dataclass(frozen=True)
class OptimizerConfig:
    algorithm: str
    learning_rate: float
    momentum: float = 0.9
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8

    def __post_init__(self):
        if self.algorithm not in ALGORITHMS:
            raise OptimizerError(
                f"unknown algorithm {self.algorithm!r}; valid: {', '.join(ALGORITHMS)}"
            )
        if not self.learning_rate > 0:
            raise OptimizerError("learning rate must be positive")
        if not 0.0 <= self.momentum <= 1.0:
            raise OptimizerError("momentum must lie in [0, 1]")
        if not (0.0 <= self.beta1 < 1.0 and 0.0 <= self.beta2 < 1.0):
            raise OptimizerError("beta1 and beta2 must lie in [0, 1)")
        if not self.eps >= 0:
            raise OptimizerError("eps must be non-negative")


def default_config(algorithm: str, **overrides) -> OptimizerConfig:
    """Conventional defaults: lr 0.01 for the constant-rate family, lr 0.001
    with beta1 0.9 / beta2 0.999 for adam and nadam, lr 0.01 for adagrad."""
    lr = 0.001 if algorithm in ("adam", "nadam") else 0.01
    params = {"algorithm": algorithm, "learning_rate": lr}
    params.update(overrides)
    return OptimizerConfig(**params)


class Optimizer:
    """Single-writer stateful stepper for one parameter vector."""

    def __init__(self, cfg: OptimizerConfig, n_params: int):
        self.cfg = cfg
        self.k = 0  # completed steps; bias correction uses k after increment
        self.prev_delta = np.zeros(n_params)
        self.accum = np.zeros(n_params)  # sum of squared gradients (adagrad)
        self.m = np.zeros(n_params)  # first raw moment (adam/nadam)
        self.v = np.zeros(n_params)  # second raw moment

    def _check_gradient(self, g, theta):
        g = np.asarray(g, dtype=float)
        if g.shape != theta.shape:
            raise OptimizerError(
                f"gradient shape {g.shape} does not match parameters {theta.shape}"
            )
        if not np.all(np.isfinite(g)):
            bad = int(np.flatnonzero(~np.isfinite(g))[0])
            raise OptimizerError(f"non-finite gradient at coordinate {bad}")
        return g

    def step(self, theta: np.ndarray, grad_fn):
        """One update; returns (theta_next, delta)."""
        cfg = self.cfg
        alg = cfg.algorithm
        if alg in ("nag", "nag-m"):
            lookahead = theta + cfg.momentum * self.prev_delta
            g = self._check_gradient(grad_fn(lookahead), theta)
        else:
            g = self._check_gradient(grad_fn(theta), theta)

        self.k += 1
        k = self.k
        if alg in ("sgd", "nag"):
            # nag takes its gradient at the lookahead point; its update itself
            # has no momentum term
            delta = -cfg.learning_rate * g
        elif alg in ("sgd-m", "nag-m"):
            delta = cfg.momentum * self.prev_delta - cfg.learning_rate * g
        elif alg == "adagrad":
            self.accum += g * g
            delta = -cfg.learning_rate / (np.sqrt(self.accum) + cfg.eps) * g
        else:  # adam and nadam share the bias-corrected moments
            self.m = cfg.beta1 * self.m + (1.0 - cfg.beta1) * g
            self.v = cfg.beta2 * self.v + (1.0 - cfg.beta2) * g * g
            m_hat = self.m / (1.0 - cfg.beta1 ** k)
            v_hat = self.v / (1.0 - cfg.beta2 ** k)
            if alg == "adam":
                delta = -cfg.learning_rate * m_hat / (np.sqrt(v_hat) + cfg.eps)
            else:
                nesterov_m = cfg.beta1 * m_hat + (1.0 - cfg.beta1) / (1.0 - cfg.beta1 ** k) * g
                delta = -cfg.learning_rate / (np.sqrt(v_hat) + cfg.eps) * nesterov_m

        self.prev_delta = delta
        return theta + delta, delta
