import numpy as np
import pytest

from cellbeam import neuralnet as nn
from cellbeam.errors import ContractViolation, UsageError


def _hand_forward(net, x):
    """Independent forward pass: explicit loops, no shared code path."""
    h = np.array(x, dtype=float)
    for i in range(len(net.weights)):
        z = np.empty(net.widths[i + 1])
        for j in range(net.widths[i + 1]):
            acc = net.biases[i][j]
            for k in range(net.widths[i]):
                acc += h[k] * net.weights[i][k, j]
            z[j] = acc
        h = np.tanh(z) if i < len(net.weights) - 1 else z
    if net.bounded:
        h = net.output_low + (net.output_high - net.output_low) * (np.tanh(h) + 1.0) / 2.0
    return h


def test_zero_network_outputs_zero():
    net = nn.Mlp([3, 4, 2], rng=0)
    for w in net.weights:
        w[:] = 0.0
    for b in net.biases:
        b[:] = 0.0
    assert np.array_equal(net.forward(np.ones(3)), np.zeros(2))


def test_identityish_single_unit():
    net = nn.Mlp([1, 1, 1], rng=0)
    net.weights[0][:] = 1.0
    net.weights[1][:] = 1.0
    for b in net.biases:
        b[:] = 0.0
    assert net.forward(np.zeros(1))[0] == 0.0  # tanh(0) = 0 through the chain


def test_forward_matches_hand_rolled_oracle():
    rng = np.random.default_rng(0)
    for trial in range(10):
        widths = [int(rng.integers(1, 5)) for _ in range(int(rng.integers(2, 5)))]
        bounded = bool(rng.integers(2))
        kwargs = {}
        if bounded:
            kwargs = dict(output_low=-rng.random(widths[-1]) - 0.5,
                          output_high=rng.random(widths[-1]) + 0.5)
        net = nn.Mlp(widths, rng=int(rng.integers(2 ** 31)), **kwargs)
        x = rng.standard_normal(widths[0])
        assert np.allclose(net.forward(x), _hand_forward(net, x), atol=1e-12)


def test_forward_rejects_wrong_width():
    net = nn.Mlp([3, 2], rng=0)
    with pytest.raises(ContractViolation):
        net.forward(np.ones(4))


def test_stacked_forward_keeps_one_row_bits_and_refuses_backward():
    net = nn.Mlp([8, 28, 28, 4], output_low=-np.ones(4), output_high=np.ones(4), rng=3)
    x = np.random.default_rng(0).standard_normal((59, 8))
    stacked = net.forward(x[:, None, :])
    assert stacked.shape == (59, 1, 4)
    assert np.array_equal(stacked[:, 0], np.stack([net.forward(row) for row in x]))
    # the cache of a stacked pass cannot be chained, whatever the upstream's shape
    for upstream in (np.ones((59, 4)), np.ones((59, 1, 4))):
        for chain in ("backward", "input_gradient"):
            net.forward(x[:, None, :])
            with pytest.raises(ContractViolation, match=r"last \(B, n\) forward"):
                getattr(net, chain)(upstream)
    net.forward(x)
    assert net.backward(np.ones((59, 4))).wrt_input.shape == (59, 8)


def test_forward_is_pure():
    net = nn.Mlp([2, 3, 1], rng=1)
    before = [w.copy() for w in net.weights]
    x = np.array([0.3, -0.7])
    y1 = net.forward(x)
    y2 = net.forward(x)
    assert np.array_equal(y1, y2)
    assert all(np.array_equal(a, b) for a, b in zip(before, net.weights))


def _finite_diff_param_grads(net, x, upstream, h=1e-5):
    grads_w, grads_b = [], []
    for w in net.weights:
        g = np.zeros_like(w)
        for idx in np.ndindex(w.shape):
            orig = w[idx]
            w[idx] = orig + h
            plus = float(np.sum(net.forward(x) * upstream))
            w[idx] = orig - h
            minus = float(np.sum(net.forward(x) * upstream))
            w[idx] = orig
            g[idx] = (plus - minus) / (2 * h)
        grads_w.append(g)
    for b in net.biases:
        g = np.zeros_like(b)
        for idx in np.ndindex(b.shape):
            orig = b[idx]
            b[idx] = orig + h
            plus = float(np.sum(net.forward(x) * upstream))
            b[idx] = orig - h
            minus = float(np.sum(net.forward(x) * upstream))
            b[idx] = orig
            g[idx] = (plus - minus) / (2 * h)
        grads_b.append(g)
    return grads_w, grads_b


def _rel_err(a, b):
    scale = np.maximum(np.maximum(np.abs(a), np.abs(b)), 1e-3)
    return np.max(np.abs(a - b) / scale)


def test_backward_matches_finite_differences():
    rng = np.random.default_rng(2)
    for trial in range(5):
        widths = [3, 4, 4, 2]
        net = nn.Mlp(widths, rng=int(rng.integers(2 ** 31)))
        x = rng.standard_normal(3)
        upstream = rng.standard_normal(2)
        net.forward(x)
        got = net.backward(upstream)
        want_w, want_b = _finite_diff_param_grads(net, x, upstream)
        for g, w in zip(got.weights, want_w):
            assert _rel_err(g, w) < 1e-4
        for g, b in zip(got.biases, want_b):
            assert _rel_err(g, b) < 1e-4


def test_backward_input_gradient_finite_diff():
    rng = np.random.default_rng(3)
    net = nn.Mlp([3, 5, 2], rng=4)
    x = rng.standard_normal(3)
    upstream = rng.standard_normal(2)
    net.forward(x)
    got = net.backward(upstream).wrt_input[0]
    h = 1e-5
    want = np.zeros(3)
    for i in range(3):
        xp, xm = x.copy(), x.copy()
        xp[i] += h
        xm[i] -= h
        want[i] = float(np.sum((net.forward(xp) - net.forward(xm)) * upstream)) / (2 * h)
    assert _rel_err(got, want) < 1e-4


def _reference_pass(net, x, upstream):
    """Forward and backward written out with fresh arrays at every operation."""
    activations, z = [np.atleast_2d(x)], None
    for i, (w, b) in enumerate(zip(net.weights, net.biases)):
        z = activations[-1] @ w + b
        if i < len(net.weights) - 1:
            activations.append(np.tanh(z))
    g = np.atleast_2d(upstream)
    if net.bounded:
        squash = np.tanh(z)
        out = net.output_low + (net.output_high - net.output_low) * (squash + 1.0) / 2.0
        g = g * (net.output_high - net.output_low) / 2.0 * (1.0 - squash ** 2)
    else:
        out = z
    grad_w, grad_b = [None] * len(net.weights), [None] * len(net.weights)
    for i in range(len(net.weights) - 1, -1, -1):
        grad_w[i] = activations[i].T @ g
        grad_b[i] = g.sum(axis=0)
        g = g @ net.weights[i].T
        if i > 0:
            g = g * (1.0 - activations[i] ** 2)
    return out, grad_w, grad_b, g


@pytest.mark.parametrize("bounded", [False, True])
@pytest.mark.parametrize("batch", [1, 7, 128])
def test_in_place_passes_keep_every_bit_of_the_reference(bounded, batch):
    rng = np.random.default_rng(40 + batch)
    bounds = dict(output_low=-np.ones(3), output_high=2 * np.ones(3)) if bounded else {}
    net = nn.Mlp([6, 9, 9, 9, 3], rng=41, **bounds)
    x, upstream = rng.standard_normal((batch, 6)), rng.standard_normal((batch, 3))
    out, grad_w, grad_b, wrt_input = _reference_pass(net, x, upstream)
    assert np.array_equal(net.forward(x), out)
    grads = net.backward(upstream)
    assert all(np.array_equal(a, b) for a, b in zip(grads.weights, grad_w))
    assert all(np.array_equal(a, b) for a, b in zip(grads.biases, grad_b))
    assert np.array_equal(grads.wrt_input, wrt_input)
    assert np.array_equal(net.input_gradient(upstream), wrt_input)
    # backward leaves the cached pass intact: a second call repeats the first
    assert np.array_equal(net.backward(upstream).flat, grads.flat)


def test_input_gradient_without_forward_is_usage_error():
    with pytest.raises(UsageError):
        nn.Mlp([2, 2], rng=7).input_gradient(np.ones(2))


def test_backward_zero_upstream_gives_zero_grads():
    net = nn.Mlp([2, 3, 2], rng=5)
    net.forward(np.ones(2))
    grads = net.backward(np.zeros(2))
    assert all(np.all(g == 0) for g in grads.weights + grads.biases)
    assert np.all(grads.wrt_input == 0)


def test_linear_layer_gradient_identity():
    # single linear layer: dL/dW = x (outer) upstream
    net = nn.Mlp([3, 2], rng=6)
    x = np.array([1.0, -2.0, 0.5])
    upstream = np.array([0.3, 0.7])
    net.forward(x)
    grads = net.backward(upstream)
    assert np.allclose(grads.weights[0], np.outer(x, upstream), atol=1e-14)
    assert np.allclose(grads.biases[0], upstream, atol=1e-14)


def test_backward_without_forward_is_usage_error():
    net = nn.Mlp([2, 2], rng=7)
    with pytest.raises(UsageError):
        net.backward(np.ones(2))


def test_bounded_output_stays_in_bounds():
    low = np.array([0.0, -1.0])
    high = np.array([40.0, 3.0])
    net = nn.Mlp([4, 6, 2], output_low=low, output_high=high, rng=8)
    rng = np.random.default_rng(9)
    for _ in range(20):
        y = net.forward(rng.standard_normal(4) * 10)
        assert np.all(y >= low) and np.all(y <= high)


def test_adam_zero_gradient_is_noop():
    net = nn.Mlp([2, 2], rng=11)
    before = [p.copy() for p in net.weights + net.biases]
    opt = nn.AdamOptimizer(net, lr=0.1)
    net.forward(np.ones(2))
    grads = net.backward(np.zeros(2))
    opt.step(grads)
    after = net.weights + net.biases
    assert all(np.array_equal(a, b) for a, b in zip(before, after))
    assert all(np.all(m == 0) for m in opt._m) and all(np.all(v == 0) for v in opt._v)


def test_soft_update_endpoints_and_table_value():
    rng = np.random.default_rng(12)
    target = nn.Mlp([3, 3, 2], rng=13)
    source = nn.Mlp([3, 3, 2], rng=14)
    # tau = 1: exact copy
    t1 = target.copy()
    nn.soft_update(t1, source, 1.0)
    assert all(np.array_equal(a, b) for a, b in
               zip(t1.weights + t1.biases, source.weights + source.biases))
    # tau = 0: unchanged
    t0 = target.copy()
    nn.soft_update(t0, source, 0.0)
    assert all(np.array_equal(a, b) for a, b in
               zip(t0.weights + t0.biases, target.weights + target.biases))
    # tau = 0.1 with target 0 and source 10 lands on 1.0
    tz = nn.Mlp([1, 1], rng=15)
    sz = nn.Mlp([1, 1], rng=16)
    tz.weights[0][:] = 0.0
    sz.weights[0][:] = 10.0
    nn.soft_update(tz, sz, 0.1)
    assert tz.weights[0][0, 0] == pytest.approx(1.0)
    del rng


def test_soft_update_is_convex_combination():
    rng = np.random.default_rng(17)
    target = nn.Mlp([4, 5, 3], rng=18)
    source = nn.Mlp([4, 5, 3], rng=19)
    old = [p.copy() for p in target.weights + target.biases]
    nn.soft_update(target, source, rng.random())
    for t, o, s in zip(target.weights + target.biases, old,
                       source.weights + source.biases):
        lo = np.minimum(o, s) - 1e-12
        hi = np.maximum(o, s) + 1e-12
        assert np.all(t >= lo) and np.all(t <= hi)


def test_soft_update_validates_tau():
    a, b = nn.Mlp([2, 2], rng=20), nn.Mlp([2, 2], rng=21)
    with pytest.raises(ContractViolation):
        nn.soft_update(a, b, 1.5)
    with pytest.raises(ContractViolation):
        nn.soft_update(a, b, -0.1)


def test_save_load_roundtrip(tmp_path):
    net = nn.Mlp([4, 6, 3], output_low=np.zeros(3), output_high=np.ones(3) * 2, rng=22)
    path = tmp_path / "net.npz"
    net.save(path)
    loaded = nn.Mlp.load(path)
    x = np.random.default_rng(23).standard_normal(4)
    assert np.array_equal(net.forward(x), loaded.forward(x))



def test_load_draws_no_initialisation(tmp_path, monkeypatch):
    net = nn.Mlp([4, 6, 3], output_low=-np.ones(3), output_high=np.ones(3), rng=27)
    linear = nn.Mlp([2, 5, 1], rng=28)
    net.save(tmp_path / "bounded.npz")
    linear.save(tmp_path / "linear.npz")

    def no_draw(*args, **kwargs):
        raise AssertionError("load drew a random initialisation")

    monkeypatch.setattr(nn.np.random, "default_rng", no_draw)
    for original, name in ((net, "bounded.npz"), (linear, "linear.npz")):
        loaded = nn.Mlp.load(tmp_path / name)
        assert loaded.widths == original.widths
        assert np.array_equal(loaded.params, original.params)
        x = np.linspace(-1.0, 1.0, original.widths[0])
        assert np.array_equal(loaded.forward(x), original.forward(x))
    assert nn.Mlp.load(tmp_path / "linear.npz").output_low is None

# -- flat parameter layout ------------------------------------------------------

def _reference_adam_step(params, moments, grads, t, lr, weight_decay,
                         beta1=0.9, beta2=0.999, eps=1e-8):
    """Per-tensor Adam with decoupled decay: the loop the flat step replaced."""
    c1 = 1.0 - beta1 ** t
    c2 = 1.0 - beta2 ** t
    shrink = 1.0 - lr * weight_decay
    for p, g, (m, v) in zip(params, grads, moments):
        m *= beta1
        m += (1.0 - beta1) * g
        v *= beta2
        v += (1.0 - beta2) * g * g
        if weight_decay:
            p *= shrink
        p -= lr * (m / c1) / (np.sqrt(v / c2) + eps)


def _reference_soft_update(target, source, tau):
    for t, s in zip(target, source):
        t *= (1.0 - tau)
        t += tau * s


def test_flat_adam_and_soft_update_match_per_tensor_loops():
    rng = np.random.default_rng(24)
    net = nn.Mlp([5, 7, 7, 3], output_low=-np.ones(3), output_high=np.ones(3), rng=25)
    target = net.copy()
    opt = nn.AdamOptimizer(net, lr=0.01, weight_decay=0.5)
    ref = [p.copy() for p in net.weights + net.biases]
    ref_target = [p.copy() for p in ref]
    moments = [(np.zeros_like(p), np.zeros_like(p)) for p in ref]
    for t in range(1, 21):
        net.forward(rng.standard_normal((4, 5)))
        grads = net.backward(rng.standard_normal((4, 3)))
        opt.step(grads)
        nn.soft_update(target, net, 0.1)
        _reference_adam_step(ref, moments, grads.weights + grads.biases, t, 0.01, 0.5)
        _reference_soft_update(ref_target, ref, 0.1)
        assert all(np.array_equal(a, b) for a, b in zip(net.weights + net.biases, ref))
        assert all(np.array_equal(a, b)
                   for a, b in zip(target.weights + target.biases, ref_target))


def test_layer_views_write_through_after_copy_and_load(tmp_path):
    net = nn.Mlp([3, 4, 2], rng=26)
    path = tmp_path / "net.npz"
    net.save(path)
    x = np.array([0.5, -1.0, 2.0])
    for clone in (net.copy(), nn.Mlp.load(path)):
        before = clone.forward(x)
        params_before = clone.params.copy()
        clone.weights[1][...] += 1.0
        clone.biases[0][...] = 0.0
        assert not np.array_equal(clone.forward(x), before)
        assert not np.array_equal(clone.params, params_before)
        weights, biases = nn._layer_views(clone.widths, clone.params)
        assert all(np.array_equal(a, b) for a, b in zip(weights + biases,
                                                        clone.weights + clone.biases))
    assert np.array_equal(net.forward(x), nn.Mlp.load(path).forward(x))


def test_layer_views_cannot_be_rebound():
    net = nn.Mlp([3, 4, 2], rng=27)
    x = np.array([0.5, -1.0, 2.0])
    net.forward(x)
    grads = net.backward(np.ones(2))
    for views in (net.weights, net.biases, grads.weights, grads.biases):
        with pytest.raises(TypeError):
            views[0] = np.zeros_like(views[0])
    net.weights[0][0, 0] = 7.0
    net.biases[1][...] = -1.0
    assert net.params[0] == 7.0 and np.array_equal(net.params[-2:], [-1.0, -1.0])


def test_adam_rejects_foreign_gradients_and_non_finite_parameters():
    net = nn.Mlp([2, 3, 2], rng=27)
    other = nn.Mlp([2, 4, 2], rng=28)
    opt = nn.AdamOptimizer(net, lr=0.1)
    other.forward(np.ones(2))
    with pytest.raises(ContractViolation):
        opt.step(other.backward(np.ones(2)))
    net.forward(np.ones(2))
    grads = net.backward(np.ones(2))
    grads.biases[0][0] = np.nan
    with pytest.raises(ContractViolation):
        opt.step(grads)
