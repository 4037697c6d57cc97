"""From-scratch feed-forward classifier: forward pass, softmax cross-entropy,
and exact backpropagation gradients over a flat parameter vector.

Class index 0 is Secure, 1 is Insecure; argmax ties resolve to index 0.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class MlpArchitecture:
    layer_sizes: tuple  # (n_features, hidden..., 2)
    activation: str = "relu"  # relu | tanh

    def __post_init__(self):
        if len(self.layer_sizes) < 3:
            raise ValueError("need at least one hidden layer")
        if any(s < 1 for s in self.layer_sizes):
            raise ValueError("all layer sizes must be >= 1")
        if self.activation not in ("relu", "tanh"):
            raise ValueError(f"unknown activation {self.activation!r}")

    @property
    def n_params(self):
        offset, fan_in, fan_out = param_layout(self)[-1]
        return offset + (fan_in + 1) * fan_out


def param_layout(arch: MlpArchitecture):
    """(offset, fan_in, fan_out) per layer for slicing the flat vector.

    Each layer occupies fan_in*fan_out weights followed by fan_out biases.
    """
    layout = []
    offset = 0
    for fan_in, fan_out in zip(arch.layer_sizes, arch.layer_sizes[1:]):
        layout.append((offset, fan_in, fan_out))
        offset += (fan_in + 1) * fan_out
    return layout


def unpack(theta: np.ndarray, arch: MlpArchitecture):
    """Views of the flat vector as per-layer (W, b) pairs."""
    pairs = []
    for offset, fan_in, fan_out in param_layout(arch):
        w = theta[offset:offset + fan_in * fan_out].reshape(fan_in, fan_out)
        b = theta[offset + fan_in * fan_out:offset + (fan_in + 1) * fan_out]
        pairs.append((w, b))
    return pairs


def init_params(arch: MlpArchitecture, seed: int) -> np.ndarray:
    """Scaled-uniform weights, bound sqrt(6/(fan_in+fan_out)); zero biases."""
    rng = np.random.default_rng(seed)
    theta = np.zeros(arch.n_params)
    for offset, fan_in, fan_out in param_layout(arch):
        bound = np.sqrt(6.0 / (fan_in + fan_out))
        theta[offset:offset + fan_in * fan_out] = rng.uniform(
            -bound, bound, size=fan_in * fan_out
        )
    return theta


def _activate(z, activation):
    if activation == "relu":
        return np.maximum(z, 0.0)
    return np.tanh(z)


def _activate_grad(z, activation):
    if activation == "relu":
        return (z > 0.0).astype(float)
    return 1.0 - np.tanh(z) ** 2


def _forward_pass(theta, arch, x):
    """Returns (probabilities, cached pre-activations and activations)."""
    a = np.atleast_2d(np.asarray(x, dtype=float))
    if a.shape[1] != arch.layer_sizes[0]:
        raise ValueError(
            f"input width {a.shape[1]} does not match model width {arch.layer_sizes[0]}"
        )
    pairs = unpack(theta, arch)
    zs, activations = [], [a]
    for li, (w, b) in enumerate(pairs):
        z = activations[-1] @ w
        z += b
        zs.append(z)
        if li < len(pairs) - 1:
            a = _activate(z, arch.activation)
        else:
            shifted = z - z.max(axis=1, keepdims=True)
            expz = np.exp(shifted)
            a = expz / expz.sum(axis=1, keepdims=True)
        activations.append(a)
    return activations[-1], zs, activations


def _cross_entropy(probs, y):
    """Mean cross-entropy of integer labels ``y`` under ``probs``."""
    if y.size == 0:
        raise ValueError("empty batch")
    eps = np.finfo(float).tiny  # guards log(0) under a saturated softmax
    return float(-np.mean(np.log(probs[np.arange(probs.shape[0]), y] + eps)))


def loss_and_gradient(theta: np.ndarray, arch: MlpArchitecture, x, y):
    """Mean cross-entropy over the batch and its exact gradient in theta."""
    y = np.asarray(y, dtype=int)
    probs, zs, activations = _forward_pass(theta, arch, x)
    loss = _cross_entropy(probs, y)

    n = probs.shape[0]
    grad = np.empty_like(theta)
    layout = param_layout(arch)
    delta = probs  # the output error overwrites the probabilities, now unused
    delta[np.arange(n), y] -= 1.0
    delta /= n
    for li in range(len(layout) - 1, -1, -1):
        offset, fan_in, fan_out = layout[li]
        w_end = offset + fan_in * fan_out
        np.matmul(activations[li].T, delta, out=grad[offset:w_end].reshape(fan_in, fan_out))
        np.sum(delta, axis=0, out=grad[w_end:w_end + fan_out])
        if li > 0:
            w = theta[offset:w_end].reshape(fan_in, fan_out)
            delta = delta @ w.T
            delta *= _activate_grad(zs[li - 1], arch.activation)
    return loss, grad


def evaluate(theta, arch, x, y):
    """{'accuracy', 'loss'} on a labeled set, from one forward pass."""
    y = np.asarray(y, dtype=int)
    probs, _, _ = _forward_pass(theta, arch, x)
    loss = _cross_entropy(probs, y)
    accuracy = float(np.mean(np.argmax(probs, axis=1) == y))
    return {"accuracy": accuracy, "loss": loss}


@dataclass(frozen=True)
class StandardizationStats:
    mean: np.ndarray
    std: np.ndarray  # zero-variance features pinned to 1

    def apply(self, x):
        return (np.asarray(x, dtype=float) - self.mean) / self.std


def fit_standardization(x) -> StandardizationStats:
    x = np.asarray(x, dtype=float)
    mean = x.mean(axis=0)
    std = x.std(axis=0)
    std = np.where(std > 0.0, std, 1.0)
    return StandardizationStats(mean=mean, std=std)
