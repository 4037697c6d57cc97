"""Span tracing of gridsec's public functions, installed from outside the package.

Each target is wrapped in every gridsec namespace that binds it, because
``from .powerflow import solve_powerflow`` gives ``data`` and ``security``
their own name for the same function. ``Optimizer.step`` is wrapped on the
class. A target that no longer exists is recorded in ``missing`` and skipped.

A span is (target index, start, end, parent span). Counts read from return
values are accumulated at the same boundary, in ``counts``.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import defaultdict

TARGETS = (
    "model.parse_case",
    "model.apply_outage",
    "model.scale_loads",
    "model.reschedule_generation",
    "powerflow.build_ybus",
    "powerflow.mismatch_vector",
    "powerflow.jacobian",
    "powerflow.solve_powerflow",
    "powerflow.trace_pv_curve",
    "security.check_limits",
    "security.run_contingency_screen",
    "security.screen_configurations",
    "data.generate_oc",
    "data.extract_features",
    "data.build_dataset",
    "data.load_dataset",
    "mlp.loss_and_gradient",
    "mlp.evaluate",
    "optim.Optimizer.step",
    "train.run_phase",
    "train.run_single",
)


def _count_solve(counts, result, args):
    counts["powerflow.solves"] += 1
    counts["powerflow.converged"] += bool(result.converged)
    counts["powerflow.nr_iters.sum"] += result.iterations
    counts["powerflow.nr_iters.max"] = max(counts["powerflow.nr_iters.max"], result.iterations)


def _count_screen(counts, result, args):
    counts["security.screens"] += 1
    counts["security.insecure"] += result.label.name == "INSECURE"


def _count_generate(counts, result, args):
    counts["data.rejections"] += result[3]


def _count_gradient(counts, result, args):
    # Multiply-adds of a dense forward pass, the weight gradients, and the
    # deltas sent back to every layer but the input one; 2 flops each.
    sizes = args[1].layer_sizes
    rows = args[2].shape[0]
    pairs = [a * b for a, b in zip(sizes, sizes[1:])]
    counts["mlp.flops"] += 2 * rows * (2 * sum(pairs) + sum(pairs[1:]))


def _count_run(counts, result, args):
    counts["train.diverged_runs"] += any(row.diverged for row in result.rows)


COUNTERS = {
    "powerflow.solve_powerflow": _count_solve,
    "security.run_contingency_screen": _count_screen,
    "data.generate_oc": _count_generate,
    "mlp.loss_and_gradient": _count_gradient,
    "train.run_single": _count_run,
}


class Tracer:
    """Records spans in memory while installed; ``install`` and ``uninstall``
    patch and restore the gridsec namespaces."""

    def __init__(self, targets=TARGETS):
        self.targets = tuple(targets)
        self.spans = []  # [target index, start, end, parent span or -1]
        self.counts = defaultdict(int)
        self.count_errors = defaultdict(int)
        self.missing = []
        self._stack = []
        self._restore = []

    # --- patching -----------------------------------------------------------

    def _wrap(self, index, name, fn):
        spans, stack, counts = self.spans, self._stack, self.counts
        counter = COUNTERS.get(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [index, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if counter is not None:
                try:
                    counter(counts, result, args)
                except (AttributeError, IndexError, TypeError, KeyError):
                    self.count_errors[name] += 1
            return result

        return traced

    def install(self):
        importlib.import_module("gridsec")
        self.missing = []
        modules = [m for key, m in list(sys.modules.items())
                   if m is not None and (key == "gridsec" or key.startswith("gridsec."))]
        for index, name in enumerate(self.targets):
            module_name, *path = name.split(".")
            try:
                owner = importlib.import_module(f"gridsec.{module_name}")
                for attr in path[:-1]:
                    owner = getattr(owner, attr)
                original = getattr(owner, path[-1])
            except (ImportError, AttributeError):
                self.missing.append(name)
                continue
            wrapped = self._wrap(index, name, original)
            if isinstance(owner, type):
                self._patch(owner, path[-1], original, wrapped)
                continue
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, attr, original, wrapped)

    def _patch(self, owner, attr, original, wrapped):
        setattr(owner, attr, wrapped)
        self._restore.append((owner, attr, original))

    def uninstall(self):
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    def take(self):
        """Hand over the spans and counts recorded so far and start afresh."""
        spans, counts = list(self.spans), dict(self.counts)
        self.spans.clear()
        self.counts.clear()
        return spans, counts


def summarize(spans, targets=TARGETS):
    """Per target: calls, inclusive seconds and self seconds; plus calls and
    inclusive seconds split by the parent's target, and the top-level total.

    Self time is a span's duration minus its children's; spans nest strictly
    because the benchmark is single-threaded.
    """
    child = [0.0] * len(spans)
    for index, (_, t0, t1, parent) in enumerate(spans):
        if parent >= 0:
            child[parent] += t1 - t0
    calls = defaultdict(int)
    total = defaultdict(float)
    self_time = defaultdict(float)
    by_parent = defaultdict(float)
    calls_by_parent = defaultdict(int)
    top = 0.0
    for index, (target, t0, t1, parent) in enumerate(spans):
        name = targets[target]
        duration = t1 - t0
        calls[name] += 1
        total[name] += duration
        self_time[name] += duration - child[index]
        parent_name = targets[spans[parent][0]] if parent >= 0 else None
        by_parent[(name, parent_name)] += duration
        calls_by_parent[(name, parent_name)] += 1
        if parent < 0:
            top += duration
    return {"calls": calls, "total": total, "self": self_time,
            "by_parent": by_parent, "calls_by_parent": calls_by_parent, "top": top}
