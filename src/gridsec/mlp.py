"""From-scratch feed-forward classifier: forward pass, softmax cross-entropy,
and exact backpropagation gradients, taken from the activations alone, over
a flat parameter vector that ``unpack`` alone slices.

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
        sizes = self.layer_sizes
        return sum((fan_in + 1) * fan_out for fan_in, fan_out in zip(sizes, sizes[1:]))


def unpack(theta: np.ndarray, arch: MlpArchitecture):
    """Views of the flat vector as per-layer (W, b) pairs: each layer
    occupies fan_in*fan_out weights, row-major, followed by fan_out biases."""
    pairs = []
    offset = 0
    for fan_in, fan_out in zip(arch.layer_sizes, arch.layer_sizes[1:]):
        w_end = offset + fan_in * fan_out
        pairs.append((theta[offset:w_end].reshape(fan_in, fan_out),
                      theta[w_end:w_end + fan_out]))
        offset = w_end + fan_out
    return pairs


def init_params(arch: MlpArchitecture, seed: int) -> np.ndarray:
    """Scaled-uniform weights, bound sqrt(6/(fan_in+fan_out)); zero biases."""
    rng = np.random.default_rng(seed)
    theta = np.zeros(arch.n_params)
    for w, _ in unpack(theta, arch):
        bound = np.sqrt(6.0 / sum(w.shape))  # w is (fan_in, fan_out)
        w[...] = rng.uniform(-bound, bound, size=w.shape)
    return theta


def _activate(z, activation):
    if activation == "relu":
        return np.maximum(z, 0.0)
    return np.tanh(z)


def _activate_grad(a, activation):
    """The derivative at the pre-activation, read from the activation ``a``:
    relu's ``a > 0`` holds exactly where its input is positive (a bool mask,
    multiplied as 0 and 1), and tanh's ``a`` is ``tanh`` of its input."""
    if activation == "relu":
        return a > 0.0
    return 1.0 - a ** 2


def _forward_pass(theta, arch, x):
    """Activations of every layer: the input first, the class probabilities
    last."""
    a = np.atleast_2d(np.asarray(x, dtype=float))
    if a.shape[1] != arch.layer_sizes[0]:
        raise ValueError(
            f"input width {a.shape[1]} does not match model width {arch.layer_sizes[0]}"
        )
    pairs = unpack(theta, arch)
    activations = [a]
    for li, (w, b) in enumerate(pairs):
        z = activations[-1] @ w
        z += b
        if li < len(pairs) - 1:
            a = _activate(z, arch.activation)
        else:
            shifted = z - z.max(axis=1, keepdims=True)
            expz = np.exp(shifted)
            a = expz / expz.sum(axis=1, keepdims=True)
        activations.append(a)
    return activations


def _cross_entropy(probs, y):
    """Mean cross-entropy of integer labels ``y`` under ``probs``."""
    if y.size == 0:
        raise ValueError("empty batch")
    eps = np.finfo(float).tiny  # guards log(0) under a saturated softmax
    return float(-np.mean(np.log(probs[np.arange(probs.shape[0]), y] + eps)))


def loss_and_gradient(theta: np.ndarray, arch: MlpArchitecture, x, y):
    """Mean cross-entropy over the batch and its exact gradient in theta."""
    y = np.asarray(y, dtype=int)
    activations = _forward_pass(theta, arch, x)
    probs = activations[-1]
    loss = _cross_entropy(probs, y)

    n = probs.shape[0]
    grad = np.empty_like(theta)
    weights = unpack(theta, arch)
    delta = probs  # the output error overwrites the probabilities, now unused
    delta[np.arange(n), y] -= 1.0
    delta /= n
    for li, (grad_w, grad_b) in reversed(list(enumerate(unpack(grad, arch)))):
        np.matmul(activations[li].T, delta, out=grad_w)
        np.sum(delta, axis=0, out=grad_b)
        if li > 0:
            delta = delta @ weights[li][0].T
            delta *= _activate_grad(activations[li], arch.activation)
    return loss, grad


def evaluate(theta, arch, x, y):
    """{'accuracy', 'loss'} on a labeled set, from one forward pass."""
    y = np.asarray(y, dtype=int)
    probs = _forward_pass(theta, arch, x)[-1]
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
