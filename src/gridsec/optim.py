"""Gradient-descent update rules behind one stepping interface.

Seven algorithms: sgd, sgd-m, nag, nag-m (constant learning rate) and
adagrad, adam, nadam (per-coordinate adaptive rates). Every step adds the
algorithm's own delta to theta in place; the Nesterov
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
        # scratch for the update arithmetic, so that it allocates no arrays
        self._a = np.empty(n_params)
        self._b = np.empty(n_params)

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
        """One update, ``theta += delta`` in place; ``delta`` is kept as
        ``prev_delta``. A non-finite gradient raises before anything changes.

        The arithmetic runs in place on the optimizer's state and scratch
        vectors, each operation in the order of its textbook expression
        (noted beside it), so the results equal that expression's bit for
        bit.
        """
        cfg = self.cfg
        alg = cfg.algorithm
        a, b, delta = self._a, self._b, self.prev_delta
        if alg in ("nag", "nag-m"):
            # lookahead = theta + momentum * prev_delta
            np.multiply(cfg.momentum, delta, out=b)
            np.add(theta, b, out=b)
            g = self._check_gradient(grad_fn(b), theta)
        else:
            g = self._check_gradient(grad_fn(theta), theta)

        self.k += 1
        k = self.k
        if alg in ("sgd", "nag"):
            # nag takes its gradient at the lookahead point; its update itself
            # has no momentum term: delta = -lr * g
            np.multiply(-cfg.learning_rate, g, out=delta)
        elif alg in ("sgd-m", "nag-m"):
            # delta = momentum * prev_delta - lr * g
            np.multiply(cfg.learning_rate, g, out=a)
            delta *= cfg.momentum
            delta -= a
        elif alg == "adagrad":
            # accum += g * g; delta = -lr / (sqrt(accum) + eps) * g
            np.multiply(g, g, out=a)
            self.accum += a
            np.sqrt(self.accum, out=a)
            a += cfg.eps
            np.divide(-cfg.learning_rate, a, out=a)
            np.multiply(a, g, out=delta)
        else:  # adam and nadam share the bias-corrected moments
            # m = beta1 * m + (1 - beta1) * g; v = beta2 * v + (1 - beta2) * g * g
            self.m *= cfg.beta1
            np.multiply(1.0 - cfg.beta1, g, out=a)
            self.m += a
            self.v *= cfg.beta2
            np.multiply(1.0 - cfg.beta2, g, out=a)
            a *= g
            self.v += a
            # m_hat = m / (1 - beta1^k) in a; v_hat = v / (1 - beta2^k) in b
            np.divide(self.m, 1.0 - cfg.beta1 ** k, out=a)
            np.divide(self.v, 1.0 - cfg.beta2 ** k, out=b)
            np.sqrt(b, out=b)
            b += cfg.eps
            if alg == "adam":
                # delta = -lr * m_hat / (sqrt(v_hat) + eps)
                a *= -cfg.learning_rate
                np.divide(a, b, out=delta)
            else:
                # delta = -lr / (sqrt(v_hat) + eps) * nesterov_m, with
                # nesterov_m = beta1 * m_hat + (1 - beta1) / (1 - beta1^k) * g
                np.divide(-cfg.learning_rate, b, out=b)
                a *= cfg.beta1
                np.multiply((1.0 - cfg.beta1) / (1.0 - cfg.beta1 ** k), g, out=delta)
                np.add(a, delta, out=delta)
                delta *= b
        theta += delta
