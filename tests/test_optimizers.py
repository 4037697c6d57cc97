import math

import numpy as np
import pytest

from gridsec.errors import OptimizerError
from gridsec.optim import (
    ALGORITHMS,
    Optimizer,
    OptimizerConfig,
    default_config,
)


def step_with_constant_gradient(opt, theta, g):
    return opt.step(theta, lambda _: np.asarray(g, dtype=float))


def test_sgd_single_step():
    opt = Optimizer(OptimizerConfig("sgd", learning_rate=0.1), 1)
    theta, delta = step_with_constant_gradient(opt, np.zeros(1), [3.0])
    assert delta[0] == pytest.approx(-0.3, abs=1e-9)
    assert theta[0] == pytest.approx(-0.3, abs=1e-9)


def test_sgd_scales_linearly_with_gradient():
    opt = Optimizer(OptimizerConfig("sgd", learning_rate=0.05), 3)
    g = np.array([1.0, -2.0, 4.0])
    _, delta = opt.step(np.zeros(3), lambda _: g)
    assert np.array_equal(delta, -0.05 * g)


def test_adam_first_step():
    cfg = OptimizerConfig("adam", learning_rate=0.001, beta1=0.9, beta2=0.999, eps=1e-8)
    opt = Optimizer(cfg, 1)
    _, delta = step_with_constant_gradient(opt, np.zeros(1), [0.5])
    # bias-corrected m_hat = 0.5, v_hat = 0.25
    assert opt.m[0] == pytest.approx(0.05, abs=1e-15)
    assert opt.v[0] == pytest.approx(0.00025, abs=1e-15)
    assert delta[0] == pytest.approx(-9.99999980e-4, abs=1e-9)


def test_nadam_first_step():
    cfg = OptimizerConfig("nadam", learning_rate=0.001, beta1=0.9, beta2=0.999, eps=1e-8)
    opt = Optimizer(cfg, 1)
    _, delta = step_with_constant_gradient(opt, np.zeros(1), [1.0])
    # inner term 0.9 * 1 + (0.1 / 0.1) * 1 = 1.9
    assert delta[0] == pytest.approx(-1.8999999810e-3, abs=1e-9)


def test_adagrad_two_steps():
    cfg = OptimizerConfig("adagrad", learning_rate=0.1, eps=0.0)
    opt = Optimizer(cfg, 1)
    theta = np.zeros(1)
    theta, d1 = step_with_constant_gradient(opt, theta, [2.0])
    theta, d2 = step_with_constant_gradient(opt, theta, [2.0])
    assert d1[0] == pytest.approx(-0.1, abs=1e-9)
    assert d2[0] == pytest.approx(-0.1 * 2.0 / math.sqrt(8.0), abs=1e-9)


def test_nag_m_quadratic_step():
    # f(theta) = theta^2 / 2, so grad(theta) = theta
    cfg = OptimizerConfig("nag-m", learning_rate=0.1, momentum=0.9)
    opt = Optimizer(cfg, 1)
    opt.prev_delta = np.array([-0.1])
    theta, delta = opt.step(np.array([1.0]), lambda t: t)
    # lookahead 1 + 0.9 * (-0.1) = 0.91; delta = 0.9*(-0.1) - 0.1*0.91
    assert delta[0] == pytest.approx(-0.181, abs=1e-9)


def test_momentum_zero_collapses_to_sgd():
    rng = np.random.default_rng(0)
    theta0 = rng.normal(size=5)
    grad = lambda t: np.sin(t) + 0.1 * t
    for alg in ("sgd-m", "nag", "nag-m"):
        ref = Optimizer(OptimizerConfig("sgd", learning_rate=0.07), 5)
        sub = Optimizer(OptimizerConfig(alg, learning_rate=0.07, momentum=0.0), 5)
        ta, tb = theta0.copy(), theta0.copy()
        for _ in range(4):
            ta, _ = ref.step(ta, grad)
            tb, _ = sub.step(tb, grad)
        assert np.array_equal(ta, tb), alg  # bit-exact reduction


def test_adam_constant_gradient_moment_identities():
    """Under a constant gradient, bias correction returns exactly g and g^2."""
    g = np.array([0.3, -1.2])
    opt = Optimizer(default_config("adam"), 2)
    theta = np.zeros(2)
    for k in range(1, 30):
        theta, _ = opt.step(theta, lambda _: g)
        m_hat = opt.m / (1 - opt.cfg.beta1 ** k)
        v_hat = opt.v / (1 - opt.cfg.beta2 ** k)
        assert np.allclose(m_hat, g, atol=1e-12)
        assert np.allclose(v_hat, g * g, atol=1e-12)


def test_adam_scale_invariance_with_zero_eps():
    """With eps = 0 the adam step is invariant to gradient rescaling."""
    grad = lambda t: 3.0 * t + 1.0
    base = Optimizer(OptimizerConfig("adam", learning_rate=0.001, eps=0.0), 2)
    scaled = Optimizer(OptimizerConfig("adam", learning_rate=0.001, eps=0.0), 2)
    theta_a = theta_b = np.array([1.0, -2.0])
    for _ in range(10):
        theta_a, da = base.step(theta_a, grad)
        theta_b, db = scaled.step(theta_b, lambda t: 1000.0 * grad(t))
        assert np.allclose(da, db, atol=1e-12)


def test_adagrad_steps_shrink_monotonically():
    opt = Optimizer(OptimizerConfig("adagrad", learning_rate=0.5), 1)
    theta = np.zeros(1)
    sizes = []
    for _ in range(20):
        theta, delta = step_with_constant_gradient(opt, theta, [1.5])
        sizes.append(abs(delta[0]))
    assert all(b < a for a, b in zip(sizes, sizes[1:]))


@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_converges_on_quadratic(algorithm):
    """Every algorithm minimizes 0.5 * ||theta||^2. AdaGrad's step decays
    like 1/sqrt(t), so it needs a larger rate to finish in the budget."""
    overrides = {"learning_rate": 0.5} if algorithm == "adagrad" else {}
    opt = Optimizer(default_config(algorithm, **overrides), 4)
    theta = np.array([2.0, -1.5, 0.5, 3.0])
    for _ in range(10000):
        theta, _ = opt.step(theta, lambda t: t)
        if np.abs(theta).max() < 1e-4:
            break
    assert np.abs(theta).max() < 1e-4


def test_state_isolation():
    """Interleaving two optimizers matches running each alone."""
    grad = lambda t: np.cos(t) + t
    solo = Optimizer(default_config("adam"), 2)
    theta_solo = np.array([0.4, -0.7])
    for _ in range(6):
        theta_solo, _ = solo.step(theta_solo, grad)

    inter = Optimizer(default_config("adam"), 2)
    noise = Optimizer(default_config("nadam"), 2)
    theta_inter = np.array([0.4, -0.7])
    theta_noise = np.array([5.0, 5.0])
    for _ in range(6):
        theta_inter, _ = inter.step(theta_inter, grad)
        theta_noise, _ = noise.step(theta_noise, grad)
    assert np.array_equal(theta_solo, theta_inter)


def test_non_finite_gradient_rejected():
    opt = Optimizer(default_config("sgd"), 2)
    with pytest.raises(OptimizerError, match="non-finite gradient at coordinate 1"):
        opt.step(np.zeros(2), lambda t: np.array([0.0, np.nan]))


def test_gradient_shape_mismatch_rejected():
    opt = Optimizer(default_config("sgd"), 2)
    with pytest.raises(OptimizerError, match="shape"):
        opt.step(np.zeros(2), lambda t: np.zeros(3))


def test_unknown_algorithm_rejected():
    with pytest.raises(OptimizerError, match="unknown algorithm"):
        OptimizerConfig("rmsprop", learning_rate=0.01)


def test_invalid_hyperparameters_rejected():
    with pytest.raises(OptimizerError):
        OptimizerConfig("sgd", learning_rate=0.0)
    with pytest.raises(OptimizerError):
        OptimizerConfig("sgd-m", learning_rate=0.1, momentum=1.5)
    with pytest.raises(OptimizerError):
        OptimizerConfig("adam", learning_rate=0.1, beta1=1.0)
    with pytest.raises(OptimizerError):
        OptimizerConfig("adam", learning_rate=0.1, eps=-1e-9)
    # eps = 0 is allowed
    OptimizerConfig("adagrad", learning_rate=0.1, eps=0.0)


def test_default_learning_rates():
    assert default_config("sgd").learning_rate == 0.01
    assert default_config("adam").learning_rate == 0.001
    assert default_config("nadam").learning_rate == 0.001
    assert default_config("adagrad").learning_rate == 0.01


class ExpressionOptimizer(Optimizer):
    """The update as whole-array expressions, one fresh array per operation:
    the oracle for the in-place arithmetic of ``Optimizer.step``."""

    def step(self, theta, grad_fn):
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


GRADIENTS = {
    # a new array that varies with the point and the step
    "varying": lambda t: np.sin(3.0 * t) + 0.5 * t + 0.01 * np.cos(t.sum()),
    # the point itself: for nag and nag-m, the lookahead the step passes in
    "identity": lambda t: t,
}


@pytest.mark.parametrize("gradient", sorted(GRADIENTS))
@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_step_equals_expression_oracle(algorithm, gradient):
    """50 steps equal the expression form bit for bit, and a returned delta
    stays as it was through the next step."""
    grad = GRADIENTS[gradient]
    cfg = default_config(algorithm)
    opt, oracle = Optimizer(cfg, 257), ExpressionOptimizer(cfg, 257)
    theta = theta_ref = np.random.default_rng(4).normal(size=257)
    previous = None
    for _ in range(50):
        theta, delta = opt.step(theta, grad)
        theta_ref, delta_ref = oracle.step(theta_ref, grad)
        assert np.array_equal(theta, theta_ref)
        assert np.array_equal(delta, delta_ref)
        if previous is not None:
            assert np.array_equal(previous[0], previous[1])
        previous = (delta, delta.copy())
