"""Minimal feed-forward network with explicit backprop, sized for this task.

Hidden layers use tanh; the output layer is linear for value heads or
tanh squashed onto per-dimension bounds for policy heads.  Networks are
tiny (default width 28, depth 4), so everything is plain numpy with no
autodiff.  backward() also returns the gradient with respect to the
input, which the deterministic policy gradient needs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ContractViolation, UsageError

MEAN_DECAY = 0.9        # Adam's decay rate of the gradient's running mean
SQUARE_DECAY = 0.999    # and of its running square
ADAM_EPS = 1e-8         # added to the root of the square before dividing


def _layer_views(widths, flat: np.ndarray):
    """Per-layer weight and bias views into one flat vector.

    Layer i's (fan_in, fan_out) weights, row-major, then its fan_out
    biases, in layer order; parameters and gradients share this layout.
    """
    weights, biases, start = [], [], 0
    for fan_in, fan_out in zip(widths[:-1], widths[1:]):
        stop = start + fan_in * fan_out
        weights.append(flat[start:stop].reshape(fan_in, fan_out))
        biases.append(flat[stop:stop + fan_out])
        start = stop + fan_out
    return tuple(weights), tuple(biases)


@dataclass
class GradientSet:
    """Gradients in an Mlp's layout (weights, biases view flat) plus the input gradient."""

    weights: tuple
    biases: tuple
    wrt_input: np.ndarray
    flat: np.ndarray
    widths: tuple


class Mlp:
    """Fully connected tanh network.

    widths lists every layer size including input and output, e.g.
    [8, 28, 28, 28, 28, 4].  Passing output_low/output_high turns the
    output layer into tanh heads scaled onto [low_i, high_i]; leaving
    them None keeps it linear.  final_layer_scale shrinks the output
    layer's initial weights, which keeps early policy/value outputs near
    zero and avoids saturating the squashed heads before training speaks.

    All parameters live in the one float64 vector params; the tuples
    weights and biases hold views into it, so writing through one changes it.
    """

    def __init__(self, widths, output_low=None, output_high=None, rng=None,
                 final_layer_scale: float = 1.0):
        if len(widths) < 2 or any(w < 1 for w in widths):
            raise ContractViolation("widths must list >= 2 positive layer sizes")
        if (output_low is None) != (output_high is None):
            raise ContractViolation("output bounds must be given together")
        self._bind(tuple(int(w) for w in widths), output_low, output_high)
        rng = np.random.default_rng(rng)
        last = len(self.widths) - 2
        for i, (w, b) in enumerate(zip(self.weights, self.biases)):
            bound = 1.0 / np.sqrt(w.shape[0])
            if i == last:
                bound *= final_layer_scale
            w[...] = rng.uniform(-bound, bound, w.shape)
            b[...] = rng.uniform(-bound, bound, b.shape)

    def _bind(self, widths: tuple, output_low, output_high, params=None) -> None:
        """Set widths, bounds and views into params (fresh, unfilled if None); no draws."""
        self.widths = widths
        if params is None:
            params = np.empty(sum((fan_in + 1) * fan_out
                                  for fan_in, fan_out in zip(widths[:-1], widths[1:])))
        self.params = params
        self.weights, self.biases = _layer_views(widths, params)
        if output_low is not None:
            self.output_low = np.broadcast_to(
                np.asarray(output_low, dtype=float), (widths[-1],)).copy()
            self.output_high = np.broadcast_to(
                np.asarray(output_high, dtype=float), (widths[-1],)).copy()
            if np.any(self.output_high < self.output_low):
                raise ContractViolation("output_high must be >= output_low")
        else:
            self.output_low = self.output_high = None
        self._cache = None

    @property
    def bounded(self) -> bool:
        return self.output_low is not None

    def forward(self, x) -> np.ndarray:
        """Evaluate (..., n_in) inputs, caching activations for backward(); 1-D is one row.

        A (B, n_in) batch rounds differently from B one-row forwards; a
        (B, 1, n_in) stack gives every row the bits of its one-row forward.
        """
        x = np.asarray(x, dtype=float)
        if x.shape[-1:] != (self.widths[0],):
            raise ContractViolation(f"input shape {x.shape} does not end in width {self.widths[0]}")
        activations = [x[None] if x.ndim == 1 else x]
        # np.dot makes matmul's BLAS call on 2-D operands, with less overhead
        product = np.dot if x.ndim <= 2 else np.matmul
        for i, (w, b) in enumerate(zip(self.weights, self.biases)):
            z = product(activations[-1], w)
            z += b
            if i < len(self.weights) - 1:
                activations.append(np.tanh(z, out=z))
        if self.bounded:
            squash = np.tanh(z)
            out = self.output_low + (self.output_high - self.output_low) * (squash + 1.0) / 2.0
        else:
            squash, out = None, z
        self._cache = (activations, squash)
        return out[0] if x.ndim == 1 else out

    def backward(self, upstream) -> GradientSet:
        """Backpropagate an upstream dLoss/dOutput through the cached pass.

        Gradients are summed over the batch; scale the upstream (e.g. by
        1/batch) for means.
        """
        flat = np.empty_like(self.params)
        grad_w, grad_b = _layer_views(self.widths, flat)
        wrt_input = self._chain(upstream, grad_w, grad_b)
        return GradientSet(grad_w, grad_b, wrt_input, flat, self.widths)

    def input_gradient(self, upstream) -> np.ndarray:
        """The input gradient of backward(upstream), without the parameter gradients."""
        return self._chain(upstream)

    def _chain(self, upstream, grad_w=None, grad_b=None) -> np.ndarray:
        """Chain rule through the cached pass; fills grad_w/grad_b when given."""
        if self._cache is None:
            raise UsageError("backward() requires a preceding forward() call")
        activations, squash = self._cache
        g = np.atleast_2d(np.asarray(upstream, dtype=float))
        if activations[0].ndim != 2 or g.shape != (len(activations[0]), self.widths[-1]):
            raise ContractViolation("upstream gradient must match a last (B, n) forward")
        if self.bounded:
            g = g * (self.output_high - self.output_low) / 2.0 * (1.0 - squash ** 2)
        for i in range(len(self.weights) - 1, -1, -1):
            if grad_w is not None:
                np.dot(activations[i].T, g, out=grad_w[i])
                np.add.reduce(g, axis=0, out=grad_b[i])    # np.sum's reduction, without its wrapper
            g = np.dot(g, self.weights[i].T)
            if i > 0:
                slope = np.multiply(activations[i], activations[i])
                np.subtract(1.0, slope, out=slope)
                g *= slope
        return g

    def copy(self) -> "Mlp":
        clone = object.__new__(Mlp)
        clone._bind(self.widths, self.output_low, self.output_high, self.params.copy())
        return clone

    def save(self, path) -> None:
        """Write parameters to an .npz checkpoint (layer order, row-major)."""
        payload = {"widths": np.asarray(self.widths)}
        for i, (w, b) in enumerate(zip(self.weights, self.biases)):
            payload[f"w{i}"] = w
            payload[f"b{i}"] = b
        if self.bounded:
            payload.update(low=self.output_low, high=self.output_high)
        np.savez(path, **payload)

    @classmethod
    def load(cls, path) -> "Mlp":
        with np.load(path) as data:
            net = object.__new__(cls)
            net._bind(tuple(int(w) for w in data["widths"]),
                      data["low"] if "low" in data else None,
                      data["high"] if "high" in data else None)
            for i, (w, b) in enumerate(zip(net.weights, net.biases)):
                w[...] = data[f"w{i}"]
                b[...] = data[f"b{i}"]
        return net


class AdamOptimizer:
    """Adam moments bound to one network's flat parameter vector.

    weight_decay applies decoupled shrinkage (p *= 1 - lr * wd) each
    step; with squashed output heads it bounds the pre-activation scale
    so the heads cannot saturate beyond recovery.
    """

    def __init__(self, net: Mlp, lr: float = 1e-4, weight_decay: float = 0.0):
        self.net, self.lr, self.weight_decay = net, lr, weight_decay
        self.t = 0
        self._m = np.zeros_like(net.params)
        self._v = np.zeros_like(net.params)
        self._scratch = np.empty((2,) + net.params.shape)

    def step(self, grads: GradientSet) -> None:
        if grads.widths != self.net.widths:
            raise ContractViolation("gradient shapes do not match the network")
        self.t += 1
        p, g, m, v = self.net.params, grads.flat, self._m, self._v
        a, b = self._scratch     # the textbook expression's operations, in its order
        c1 = 1.0 - MEAN_DECAY ** self.t
        c2 = 1.0 - SQUARE_DECAY ** self.t
        m *= MEAN_DECAY
        m += np.multiply(1.0 - MEAN_DECAY, g, out=a)
        v *= SQUARE_DECAY
        v += np.multiply(np.multiply(1.0 - SQUARE_DECAY, g, out=a), g, out=a)
        if self.weight_decay:
            p *= 1.0 - self.lr * self.weight_decay
        step = np.multiply(np.divide(m, c1, out=a), self.lr, out=a)
        p -= np.divide(step, np.add(np.sqrt(np.divide(v, c2, out=b), out=b), ADAM_EPS, out=b),
                       out=a)
        if not np.isfinite(p).all():
            raise ContractViolation("network parameters became non-finite")


def soft_update(target: Mlp, source: Mlp, tau: float) -> Mlp:
    """Polyak average the source into the target: t <- tau s + (1 - tau) t."""
    if not 0.0 <= tau <= 1.0:
        raise ContractViolation("tau must lie in [0, 1]")
    if target.widths != source.widths:
        raise ContractViolation("target and source networks differ in shape")
    target.params *= 1.0 - tau
    target.params += tau * source.params
    return target
