"""From-scratch feed-forward classifier: forward pass, softmax cross-entropy,
and exact backpropagation gradients, taken from the activations alone, over
a flat parameter vector that ``unpack`` alone slices.

Class index 0 is Secure, 1 is Insecure; argmax ties resolve to index 0.

A pass writes only arrays it allocated: each hidden activation and the
softmax overwrite their layer's fresh matmul output, the cross-entropy logs
its fancy-indexed copy of the true-class probabilities, and the backward
pass turns the probabilities into the output error. ``theta`` and the batch
are only read. Every element keeps its whole-array expression and order
(``np.add.reduce(p) / n`` is ``np.mean``'s own sum and division), so losses
and gradients equal the expression form bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

_TINY = np.finfo(float).tiny  # guards log(0) under a saturated softmax


@dataclass(frozen=True)
class MlpArchitecture:
    layer_sizes: tuple  # (n_features, hidden..., 2)
    activation: str = "relu"  # relu | tanh

    def __post_init__(self):
        if len(self.layer_sizes) < 3:
            raise ValueError("need at least one hidden layer")
        # an int or a numpy int, as data._integer asks of counts
        if not all(hasattr(type(s), "__index__") for s in self.layer_sizes):
            raise ValueError("all layer sizes must be integers")
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


def _forward_pass(pairs, arch, x):
    """Activations of every layer for the (W, b) ``pairs`` of ``unpack``:
    the input first, the class probabilities last."""
    a = np.atleast_2d(np.asarray(x, dtype=float))
    if a.shape[1] != arch.layer_sizes[0]:
        raise ValueError(
            f"input width {a.shape[1]} does not match model width {arch.layer_sizes[0]}"
        )
    activations = [a]
    last = len(pairs) - 1
    for li, (w, b) in enumerate(pairs):
        z = activations[-1] @ w  # a fresh array, so each step below writes into it
        z += b
        if li < last:
            if arch.activation == "relu":
                np.maximum(z, 0.0, out=z)
            else:
                np.tanh(z, out=z)
        else:  # softmax, shifted by the row maximum
            z -= z.max(axis=1, keepdims=True)
            np.exp(z, out=z)
            z /= np.add.reduce(z, axis=1, keepdims=True)
        activations.append(z)
    return activations


def _cross_entropy(probs, y):
    """Mean cross-entropy of integer labels ``y`` under ``probs``."""
    if y.size == 0:
        raise ValueError("empty batch")
    p = probs[np.arange(probs.shape[0]), y]  # a copy: ``probs`` is left as it was
    p += _TINY
    np.log(p, out=p)
    return float(-(np.add.reduce(p) / p.size))  # np.mean's sum and division


def loss_and_gradient(theta: np.ndarray, arch: MlpArchitecture, x, y):
    """Mean cross-entropy over the batch and its exact gradient in theta."""
    y = np.asarray(y, dtype=int)
    pairs = unpack(theta, arch)
    activations = _forward_pass(pairs, arch, x)
    probs = activations[-1]
    loss = _cross_entropy(probs, y)

    n = probs.shape[0]
    grad = np.empty_like(theta)
    grads = unpack(grad, arch)
    delta = probs  # the output error overwrites the probabilities, now unused
    delta[np.arange(n), y] -= 1.0
    delta /= n
    for li in range(len(pairs) - 1, -1, -1):
        grad_w, grad_b = grads[li]
        np.matmul(activations[li].T, delta, out=grad_w)
        np.add.reduce(delta, axis=0, out=grad_b)
        if li > 0:
            delta = delta @ pairs[li][0].T
            a = activations[li]
            # the derivative at the pre-activation, read from the activation:
            # relu's ``a > 0`` holds exactly where its input is positive (a
            # bool mask, multiplied as 0 and 1, so a negative delta gives
            # -0.0), and tanh's ``a`` is ``tanh`` of its input
            delta *= a > 0.0 if arch.activation == "relu" else 1.0 - a ** 2
    return loss, grad


def evaluate(theta, arch, x, y):
    """{'accuracy', 'loss'} on a labeled set, from one forward pass."""
    y = np.asarray(y, dtype=int)
    probs = _forward_pass(unpack(theta, arch), arch, x)[-1]
    loss = _cross_entropy(probs, y)
    accuracy = float(np.mean(np.argmax(probs, axis=1) == y))
    return {"accuracy": accuracy, "loss": loss}
