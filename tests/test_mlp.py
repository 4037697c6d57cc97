import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from gridsec.mlp import (
    MlpArchitecture,
    _forward_pass,
    evaluate,
    fit_standardization,
    init_params,
    loss_and_gradient,
    unpack,
)


def small_arch(activation="tanh"):
    return MlpArchitecture(layer_sizes=(4, 6, 3, 2), activation=activation)


def probabilities(theta, arch, x):
    return _forward_pass(theta, arch, x)[-1]


def predicted_classes(theta, arch, x):
    return np.argmax(probabilities(theta, arch, x), axis=1)


def test_n_params():
    arch = small_arch()
    assert arch.n_params == (4 * 6 + 6) + (6 * 3 + 3) + (3 * 2 + 2)


def test_param_layout_covers_theta():
    """``unpack``'s views tile the flat vector from its start: each layer's
    weights, then its biases, with no gap or overlap."""
    arch = small_arch()
    theta = np.arange(arch.n_params, dtype=float)
    pairs = unpack(theta, arch)
    assert [(w.shape, b.shape) for w, b in pairs] == [((4, 6), (6,)), ((6, 3), (3,)),
                                                      ((3, 2), (2,))]
    parts = [part for pair in pairs for part in pair]
    assert np.array_equal(np.concatenate([part.ravel() for part in parts]), theta)
    assert all(np.shares_memory(part, theta) for part in parts)


def test_init_deterministic_and_bounded():
    arch = small_arch()
    a = init_params(arch, seed=12)
    b = init_params(arch, seed=12)
    c = init_params(arch, seed=13)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
    for (w, b_vec), (fan_in, fan_out) in zip(unpack(a, arch), [(4, 6), (6, 3), (3, 2)]):
        bound = math.sqrt(6.0 / (fan_in + fan_out))
        assert w.shape == (fan_in, fan_out)
        assert np.abs(w).max() <= bound
        assert np.all(b_vec == 0.0)


def test_forward_zero_params_uniform():
    arch = small_arch()
    theta = np.zeros(arch.n_params)
    p = probabilities(theta, arch, np.ones(4))[0]
    assert np.allclose(p, [0.5, 0.5], atol=1e-12)


def test_forward_rows_sum_to_one():
    arch = small_arch("relu")
    theta = init_params(arch, seed=0)
    x = np.random.default_rng(1).normal(size=(9, 4))
    p = probabilities(theta, arch, x)
    assert p.shape == (9, 2)
    assert np.allclose(p.sum(axis=1), 1.0, atol=1e-12)
    assert np.all(p >= 0)


def test_softmax_translation_invariance():
    """Shifting the last linear layer's biases by a constant leaves the
    softmax output unchanged."""
    arch = small_arch()
    theta = init_params(arch, seed=4)
    x = np.random.default_rng(2).normal(size=(5, 4))
    p0 = probabilities(theta, arch, x)
    shifted = theta.copy()
    unpack(shifted, arch)[-1][1][...] += 7.3
    p1 = probabilities(shifted, arch, x)
    assert np.allclose(p0, p1, atol=1e-12)


def test_loss_at_zero_params_is_ln2():
    arch = small_arch()
    theta = np.zeros(arch.n_params)
    x = np.random.default_rng(3).normal(size=(8, 4))
    y = np.random.default_rng(4).integers(0, 2, size=8)
    loss, _ = loss_and_gradient(theta, arch, x, y)
    assert loss == pytest.approx(math.log(2.0), abs=1e-12)


def _numeric_gradient(theta, arch, x, y, h=1e-5):
    g = np.zeros_like(theta)
    for i in range(theta.size):
        up, down = theta.copy(), theta.copy()
        up[i] += h
        down[i] -= h
        g[i] = (loss_and_gradient(up, arch, x, y)[0]
                - loss_and_gradient(down, arch, x, y)[0]) / (2 * h)
    return g


@pytest.mark.parametrize("activation", ["tanh", "relu"])
def test_gradient_matches_central_differences(activation):
    arch = MlpArchitecture((3, 5, 2), activation)
    rng = np.random.default_rng(17)
    theta = init_params(arch, seed=17)
    x = rng.normal(size=(6, 3))
    y = rng.integers(0, 2, size=6)
    _, g = loss_and_gradient(theta, arch, x, y)
    g_num = _numeric_gradient(theta, arch, x, y)
    denom = np.maximum(np.abs(g_num), 1e-8)
    assert np.max(np.abs(g - g_num) / denom) <= 1e-5


def test_gradient_step_decreases_loss():
    arch = small_arch()
    rng = np.random.default_rng(8)
    theta = init_params(arch, seed=8)
    x = rng.normal(size=(16, 4))
    y = rng.integers(0, 2, size=16)
    loss0, g = loss_and_gradient(theta, arch, x, y)
    loss1, _ = loss_and_gradient(theta - 1e-3 * g, arch, x, y)
    assert loss1 < loss0


def test_predict_and_evaluate_zero_params():
    arch = small_arch()
    theta = np.zeros(arch.n_params)
    x = np.random.default_rng(5).normal(size=(10, 4))
    y = np.zeros(10, dtype=int)
    # uniform output ties break toward class 0
    assert np.all(predicted_classes(theta, arch, x) == 0)
    stats = evaluate(theta, arch, x, y)
    assert stats["accuracy"] == 1.0
    assert stats["loss"] == pytest.approx(math.log(2.0), abs=1e-12)


@pytest.mark.parametrize("activation", ["tanh", "relu"])
def test_evaluate_matches_loss_and_predict(activation):
    """One forward pass gives the training loss and the predicted classes."""
    arch = small_arch(activation)
    rng = np.random.default_rng(8)
    theta = init_params(arch, seed=4)
    x = rng.normal(size=(40, 4))
    y = rng.integers(0, 2, size=40)
    stats = evaluate(theta, arch, x, y)
    assert stats["loss"] == loss_and_gradient(theta, arch, x, y)[0]
    assert stats["accuracy"] == np.mean(predicted_classes(theta, arch, x) == y)
    assert 0.0 < stats["accuracy"] < 1.0


def test_standardization_round_trip():
    rng = np.random.default_rng(6)
    x = rng.normal(3.0, 2.0, size=(200, 7))
    x[:, 3] = 5.0  # constant column
    stats = fit_standardization(x)
    z = stats.apply(x)
    assert np.allclose(z.mean(axis=0), 0.0, atol=1e-9)
    live = [c for c in range(7) if c != 3]
    assert np.allclose(z[:, live].std(axis=0), 1.0, atol=1e-9)
    assert np.allclose(z[:, 3], 0.0, atol=1e-12)
    assert stats.std[3] == 1.0  # zero-variance columns are pinned


def _expression_loss_and_gradient(theta, arch, x, y):
    """Forward pass and backpropagation as whole-array expressions, one
    fresh array per operation, with each activation's derivative taken from
    the cached pre-activations ``zs``: the oracle for ``loss_and_gradient``,
    which reads it from the activations."""
    pairs = unpack(theta, arch)
    zs, activations = [], [x]
    for li, (w, b) in enumerate(pairs):
        z = activations[-1] @ w + b
        zs.append(z)
        if li < len(pairs) - 1:
            a = np.maximum(z, 0.0) if arch.activation == "relu" else np.tanh(z)
        else:
            shifted = z - z.max(axis=1, keepdims=True)
            expz = np.exp(shifted)
            a = expz / expz.sum(axis=1, keepdims=True)
        activations.append(a)
    probs = activations[-1]
    n = probs.shape[0]
    loss = float(-np.mean(np.log(probs[np.arange(n), y] + np.finfo(float).tiny)))

    grad = np.zeros_like(theta)
    grad_pairs = unpack(grad, arch)
    delta = probs.copy()
    delta[np.arange(n), y] -= 1.0
    delta /= n
    for li in range(len(pairs) - 1, -1, -1):
        grad_pairs[li][0][...] = activations[li].T @ delta
        grad_pairs[li][1][...] = delta.sum(axis=0)
        if li > 0:
            z = zs[li - 1]
            act_grad = (z > 0.0).astype(float) if arch.activation == "relu" \
                else 1.0 - np.tanh(z) ** 2
            delta = (delta @ pairs[li][0].T) * act_grad
    return loss, grad


@pytest.mark.parametrize("activation", ["tanh", "relu"])
@pytest.mark.parametrize("sizes, rows", [((4, 6, 3, 2), 16), ((353, 64, 32, 2), 60)])
def test_loss_and_gradient_equals_expression_oracle(activation, sizes, rows):
    arch = MlpArchitecture(sizes, activation)
    rng = np.random.default_rng(rows)
    theta = init_params(arch, seed=rows) + rng.normal(scale=0.1, size=arch.n_params)
    x = rng.normal(size=(rows, sizes[0]))
    y = rng.integers(0, 2, size=rows)
    loss, grad = loss_and_gradient(theta, arch, x, y)
    loss_ref, grad_ref = _expression_loss_and_gradient(theta, arch, x, y)
    assert loss == loss_ref
    assert np.array_equal(grad, grad_ref)


def finite_arrays(shape):
    """Every element drawn on its own, so that exact zeros and saturation show."""
    return arrays(float, shape, elements=st.floats(-10.0, 10.0), fill=st.nothing())


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(hidden=st.lists(st.integers(1, 7), min_size=1, max_size=3),
       n_features=st.integers(1, 6), rows=st.integers(1, 9),
       activation=st.sampled_from(["relu", "tanh"]), data=st.data())
def test_loss_and_gradient_bits_equal_the_pre_activation_oracle(
        hidden, n_features, rows, activation, data):
    """At any sizes, batch and theta, a NaN parameter included, the loss and
    gradient equal the oracle's byte for byte: relu's ``a > 0`` is
    ``z > 0`` and tanh's ``1 - a**2`` is ``1 - tanh(z)**2``."""
    arch = MlpArchitecture((n_features, *hidden, 2), activation)
    theta = data.draw(finite_arrays(arch.n_params))
    nan_at = data.draw(st.none() | st.integers(0, arch.n_params - 1))
    if nan_at is not None:
        theta[nan_at] = np.nan
    x = data.draw(finite_arrays((rows, n_features)))
    y = data.draw(arrays(int, rows, elements=st.integers(0, 1)))
    with np.errstate(all="ignore"):
        loss, grad = loss_and_gradient(theta, arch, x, y)
        loss_ref, grad_ref = _expression_loss_and_gradient(theta, arch, x, y)
    assert np.float64(loss).tobytes() == np.float64(loss_ref).tobytes()
    assert grad.tobytes() == grad_ref.tobytes()
