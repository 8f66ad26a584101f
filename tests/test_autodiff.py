"""Gradient checks and contracts for the autodiff op set and Adam."""
import contextvars

import numpy as np
import pytest
from hypothesis import given, strategies as st

from remixse import autodiff as ad
from conftest import assert_grad_close, fd_gradients


def _project(out, rng):
    """Scalar loss from a random fixed projection; stronger than plain sum."""
    v = rng.normal(size=out.shape)
    return lambda t: ad.mse_loss(ad.reshape(ad.scale(t, v), (1, t.size)), np.zeros((1, t.size)))


def check_op(build_out, tensors, seed, loss_on=None):
    rng = np.random.default_rng(seed)
    probe = build_out()
    loss_of = loss_on or _project(probe.data, rng)

    def build_loss():
        return loss_of(build_out())

    for t in tensors:
        t.grad = None
    loss = build_loss()
    ad.backward(loss)
    for t in tensors:
        assert_grad_close(t.grad, fd_gradients(build_loss, t))


@pytest.mark.parametrize("seed", range(5))
def test_conv1d_gradients_match_finite_differences(seed):
    rng = np.random.default_rng(100 + seed)
    b, cin, cout = rng.integers(1, 3), rng.integers(1, 4), rng.integers(1, 4)
    k = int(rng.integers(1, 5))
    stride = int(rng.integers(1, k + 1))
    t = int(k + rng.integers(0, 8))
    x = ad.Tensor(rng.normal(size=(b, cin, t)))
    w = ad.Tensor(rng.normal(size=(cout, cin, k)))
    bias = ad.Tensor(rng.normal(size=cout))

    # sum-of-output loss, per the stated contract
    def build_loss():
        out = ad.conv1d(x, w, bias, stride)
        return ad.mse_loss(ad.reshape(ad.scale(out, 0.5), (1, out.size)), np.full((1, out.size), 0.5))

    for tensor in (x, w, bias):
        tensor.grad = None
    loss = build_loss()
    ad.backward(loss)
    for tensor in (x, w, bias):
        assert_grad_close(tensor.grad, fd_gradients(build_loss, tensor))


def test_conv1d_identity_kernel():
    x = ad.Tensor(np.random.default_rng(0).normal(size=(2, 1, 9)))
    w = ad.Tensor(np.ones((1, 1, 1)))
    b = ad.Tensor(np.zeros(1))
    out = ad.conv1d(x, w, b, stride=1)
    assert np.array_equal(out.data, x.data)


def test_conv1d_output_length():
    x = ad.Tensor(np.zeros((1, 1, 32)))
    out = ad.conv1d(x, ad.Tensor(np.zeros((1, 1, 8))), ad.Tensor(np.zeros(1)), stride=4)
    assert out.shape == (1, 1, 7)


def test_conv1d_rejects_short_input():
    x = ad.Tensor(np.zeros((1, 1, 4)))
    with pytest.raises(ValueError):
        ad.conv1d(x, ad.Tensor(np.zeros((1, 1, 8))), ad.Tensor(np.zeros(1)), stride=4)


@pytest.mark.parametrize("seed", range(5))
def test_conv_transpose1d_gradients(seed):
    rng = np.random.default_rng(200 + seed)
    b, cin, cout = rng.integers(1, 3), rng.integers(1, 4), rng.integers(1, 4)
    k = int(rng.integers(1, 5))
    stride = int(rng.integers(1, k + 1))
    frames = int(rng.integers(1, 6))
    x = ad.Tensor(rng.normal(size=(b, cin, frames)))
    w = ad.Tensor(rng.normal(size=(cin, cout, k)))
    bias = ad.Tensor(rng.normal(size=cout))
    check_op(lambda: ad.conv_transpose1d(x, w, bias, stride), (x, w, bias), seed)


def test_conv_transpose1d_output_length():
    x = ad.Tensor(np.zeros((1, 1, 7)))
    out = ad.conv_transpose1d(x, ad.Tensor(np.zeros((1, 1, 8))), ad.Tensor(np.zeros(1)), stride=4)
    assert out.shape == (1, 1, 32)


def test_conv_transpose_is_adjoint_of_conv():
    # <conv(x), y> == <x, conv_transpose(y)> with the same weight array
    rng = np.random.default_rng(5)
    x = rng.normal(size=(2, 3, 20))  # conv output: (20 - 8) // 4 + 1 = 4 frames
    y = rng.normal(size=(2, 4, 4))
    w = rng.normal(size=(4, 3, 8))
    zero_out = ad.Tensor(np.zeros(4))
    zero_in = ad.Tensor(np.zeros(3))
    conv = ad.conv1d(ad.Tensor(x), ad.Tensor(w), zero_out, stride=4)
    tconv = ad.conv_transpose1d(ad.Tensor(y), ad.Tensor(w), zero_in, stride=4)
    lhs = float(np.sum(conv.data * y))
    rhs = float(np.sum(x * tconv.data))
    assert abs(lhs - rhs) <= 1e-9 * max(1.0, abs(lhs))


# Direct-loop references. The finite-difference checks above only test that
# forward and backward agree with each other, so a wrong column layout or
# gate order would pass them; these pin the forward maps and their gradients
# (of sum(out * G)) to the definitions.

def conv1d_reference(x, w, bias, stride, grad_out=None):
    batch, _, length = x.shape
    c_out, _, kernel = w.shape
    frames = (length - kernel) // stride + 1
    out = np.empty((batch, c_out, frames))
    dx, dw = np.zeros_like(x), np.zeros_like(w)
    for b in range(batch):
        for o in range(c_out):
            for f in range(frames):
                window = x[b, :, f * stride : f * stride + kernel]
                out[b, o, f] = bias[o] + np.sum(w[o] * window)
                if grad_out is not None:
                    dw[o] += grad_out[b, o, f] * window
                    dx[b, :, f * stride : f * stride + kernel] += grad_out[b, o, f] * w[o]
    return out, dx, dw


def conv_transpose1d_reference(x, w, bias, stride, grad_out=None):
    batch, c_in, frames = x.shape
    _, c_out, kernel = w.shape
    out = np.zeros((batch, c_out, (frames - 1) * stride + kernel)) + bias[:, None]
    dx, dw = np.zeros_like(x), np.zeros_like(w)
    for b in range(batch):
        for i in range(c_in):
            for f in range(frames):
                span = slice(f * stride, f * stride + kernel)
                out[b, :, span] += x[b, i, f] * w[i]
                if grad_out is not None:
                    dx[b, i, f] = np.sum(grad_out[b, :, span] * w[i])
                    dw[i] += x[b, i, f] * grad_out[b, :, span]
    return out, dx, dw


def _forward_then_backward(out, grad_out):
    """Run the op's own backward closure on grad_out = d(loss)/d(out)."""
    out._backward(grad_out)
    return out.data


CONV_GEOMETRIES = [(1, 1), (8, 4), (3, 2)]


@pytest.mark.parametrize("kernel,stride", CONV_GEOMETRIES)
@pytest.mark.parametrize("c_in,c_out", [(1, 3), (4, 2), (5, 6)])
def test_conv1d_matches_loop_reference(kernel, stride, c_in, c_out):
    rng = np.random.default_rng(kernel * 100 + c_in * 10 + c_out)
    x = ad.Tensor(rng.normal(size=(2, c_in, 4 * kernel + 5)))
    w = ad.Tensor(rng.normal(size=(c_out, c_in, kernel)))
    bias = ad.Tensor(rng.normal(size=c_out))
    frames = (x.shape[-1] - kernel) // stride + 1
    grad_out = rng.normal(size=(2, c_out, frames))
    out = _forward_then_backward(ad.conv1d(x, w, bias, stride), grad_out)
    ref, dx, dw = conv1d_reference(x.data, w.data, bias.data, stride, grad_out)
    np.testing.assert_allclose(out, ref, rtol=1e-12, atol=1e-12)
    np.testing.assert_allclose(x.grad, dx, rtol=1e-10, atol=1e-10)
    np.testing.assert_allclose(w.grad, dw, rtol=1e-10, atol=1e-10)
    np.testing.assert_allclose(bias.grad, grad_out.sum(axis=(0, 2)), rtol=1e-10, atol=1e-10)


@pytest.mark.parametrize("kernel,stride", CONV_GEOMETRIES)
@pytest.mark.parametrize("c_in,c_out", [(1, 3), (4, 2), (5, 6)])
def test_conv_transpose1d_matches_loop_reference(kernel, stride, c_in, c_out):
    rng = np.random.default_rng(kernel * 100 + c_in * 10 + c_out + 1)
    x = ad.Tensor(rng.normal(size=(2, c_in, 7)))
    w = ad.Tensor(rng.normal(size=(c_in, c_out, kernel)))
    bias = ad.Tensor(rng.normal(size=c_out))
    grad_out = rng.normal(size=(2, c_out, 6 * stride + kernel))
    out = _forward_then_backward(ad.conv_transpose1d(x, w, bias, stride), grad_out)
    ref, dx, dw = conv_transpose1d_reference(x.data, w.data, bias.data, stride, grad_out)
    np.testing.assert_allclose(out, ref, rtol=1e-12, atol=1e-12)
    np.testing.assert_allclose(x.grad, dx, rtol=1e-10, atol=1e-10)
    np.testing.assert_allclose(w.grad, dw, rtol=1e-10, atol=1e-10)
    np.testing.assert_allclose(bias.grad, grad_out.sum(axis=(0, 2)), rtol=1e-10, atol=1e-10)


def test_sigmoid_saturates_without_overflow():
    z = np.array([-800.0, -40.0, -1.5, 0.0, 1.5, 40.0, 800.0])
    with np.errstate(all="raise"):
        s = ad._sigmoid(z)
    assert np.all(np.isfinite(s))
    assert np.all((s >= 0.0) & (s <= 1.0))
    assert s[0] == 0.0 and s[3] == 0.5 and s[-1] == 1.0
    np.testing.assert_allclose(s[1:-1], 1.0 / (1.0 + np.exp(-z[1:-1])), rtol=1e-15, atol=1e-16)


@pytest.mark.parametrize("seed", range(5))
@pytest.mark.parametrize("op", [ad.relu, ad.sigmoid, ad.tanh])
def test_pointwise_gradients(op, seed):
    rng = np.random.default_rng(300 + seed)
    # keep values away from the ReLU kink so finite differences are clean
    x = ad.Tensor(rng.normal(size=(3, 7)) + np.where(rng.random((3, 7)) < 0.5, -0.3, 0.3))
    check_op(lambda: op(x), (x,), seed)


def test_relu_zeroes_negatives():
    x = ad.Tensor(np.array([-3.0, -0.5, 0.0, 0.5, 3.0]))
    assert np.array_equal(ad.relu(x).data, [0.0, 0.0, 0.0, 0.5, 3.0])


@pytest.mark.parametrize("seed", range(5))
def test_glu_gradients(seed):
    rng = np.random.default_rng(400 + seed)
    c = int(rng.integers(1, 4))
    x = ad.Tensor(rng.normal(size=(2, 2 * c, 5)))
    check_op(lambda: ad.glu(x), (x,), seed)


def test_glu_saturated_gate_passes_first_half():
    rng = np.random.default_rng(1)
    a = rng.normal(size=(1, 3, 4))
    b = np.full((1, 3, 4), 40.0)  # sigmoid(40) ~ 1
    out = ad.glu(ad.Tensor(np.concatenate([a, b], axis=1)))
    assert np.allclose(out.data, a, atol=1e-12)


def test_glu_rejects_odd_channels():
    with pytest.raises(ValueError):
        ad.glu(ad.Tensor(np.zeros((1, 3, 4))))


@pytest.mark.parametrize("seed", range(5))
def test_lstm_gradients(seed):
    rng = np.random.default_rng(500 + seed)
    b = int(rng.integers(1, 3))
    t = int(rng.integers(1, 5))
    c = int(rng.integers(1, 4))
    h = int(rng.integers(1, 4))
    x = ad.Tensor(rng.normal(size=(b, t, c)))
    w_ih = ad.Tensor(rng.normal(size=(4 * h, c)))
    w_hh = ad.Tensor(rng.normal(size=(4 * h, h)))
    bias = ad.Tensor(rng.normal(size=4 * h))
    check_op(lambda: ad.lstm_layer(x, w_ih, w_hh, bias), (x, w_ih, w_hh, bias), seed)


def lstm_reference(x, w_ih, w_hh, bias):
    """Naive per-step cell, gates in the documented order i, f, g, o."""
    batch, steps, _ = x.shape
    hidden = w_hh.shape[1]
    sigmoid = lambda z: 1.0 / (1.0 + np.exp(-z))
    h, c = np.zeros((batch, hidden)), np.zeros((batch, hidden))
    outs = []
    for t in range(steps):
        z = x[:, t] @ w_ih.T + h @ w_hh.T + bias
        i = sigmoid(z[:, :hidden])
        f = sigmoid(z[:, hidden : 2 * hidden])
        g = np.tanh(z[:, 2 * hidden : 3 * hidden])
        o = sigmoid(z[:, 3 * hidden :])
        c = f * c + i * g
        h = o * np.tanh(c)
        outs.append(h)
    return np.stack(outs, axis=1)


@pytest.mark.parametrize("batch,steps,c_in,hidden", [(1, 1, 1, 1), (2, 9, 3, 4), (3, 5, 6, 2)])
def test_lstm_matches_naive_cell(batch, steps, c_in, hidden):
    rng = np.random.default_rng(steps * 10 + hidden)
    x = rng.normal(size=(batch, steps, c_in))
    w_ih = rng.normal(size=(4 * hidden, c_in))
    w_hh = rng.normal(size=(4 * hidden, hidden))
    bias = rng.normal(size=4 * hidden)
    out = ad.lstm_layer(ad.Tensor(x), ad.Tensor(w_ih), ad.Tensor(w_hh), ad.Tensor(bias))
    expected = lstm_reference(x, w_ih, w_hh, bias)
    np.testing.assert_allclose(out.data, expected, rtol=1e-12, atol=1e-14)


def test_lstm_zero_weights_zero_output():
    x = ad.Tensor(np.random.default_rng(0).normal(size=(2, 6, 3)))
    out = ad.lstm_layer(
        x, ad.Tensor(np.zeros((8, 3))), ad.Tensor(np.zeros((8, 2))), ad.Tensor(np.zeros(8))
    )
    assert np.array_equal(out.data, np.zeros((2, 6, 2)))


def test_lstm_is_causal():
    rng = np.random.default_rng(2)
    x1 = rng.normal(size=(1, 10, 2))
    x2 = x1.copy()
    x2[:, 6:] += rng.normal(size=(1, 4, 2))
    w_ih = ad.Tensor(rng.normal(size=(12, 2)))
    w_hh = ad.Tensor(rng.normal(size=(12, 3)))
    b = ad.Tensor(rng.normal(size=12))
    out1 = ad.lstm_layer(ad.Tensor(x1), w_ih, w_hh, b).data
    out2 = ad.lstm_layer(ad.Tensor(x2), w_ih, w_hh, b).data
    assert np.array_equal(out1[:, :6], out2[:, :6])
    assert not np.array_equal(out1[:, 6:], out2[:, 6:])


@pytest.mark.parametrize("seed", range(5))
def test_mae_loss_gradients_away_from_ties(seed):
    rng = np.random.default_rng(600 + seed)
    pred = ad.Tensor(rng.normal(size=(2, 6)))
    target = pred.data + np.where(rng.random((2, 6)) < 0.5, -0.5, 0.5)
    check_op(lambda: pred, (pred,), seed, loss_on=lambda t: ad.mae_loss(t, target))


def test_mae_loss_values():
    x = np.random.default_rng(0).normal(size=(3, 5))
    assert float(ad.mae_loss(ad.Tensor(x), x).data) == 0.0
    assert float(ad.mae_loss(ad.Tensor(x + 0.25), x).data) == pytest.approx(0.25, abs=1e-15)


def test_mae_subgradient_zero_at_ties():
    x = np.ones((2, 3))
    pred = ad.Tensor(x.copy())
    loss = ad.mae_loss(pred, x)
    ad.backward(loss)
    assert np.array_equal(pred.grad, np.zeros_like(x))


@pytest.mark.parametrize("seed", range(5))
def test_mse_loss_gradients(seed):
    rng = np.random.default_rng(700 + seed)
    pred = ad.Tensor(rng.normal(size=(2, 6)))
    target = rng.normal(size=(2, 6))
    check_op(lambda: pred, (pred,), seed, loss_on=lambda t: ad.mse_loss(t, target))


def test_mse_loss_batch_normalization():
    # one row, difference [3, 4]: mean-over-batch of squared L2 norms = 25
    pred = ad.Tensor(np.array([[3.0, 4.0]]))
    assert float(ad.mse_loss(pred, np.zeros((1, 2))).data) == 25.0
    assert float(ad.mse_loss(ad.Tensor(np.zeros((1, 2))), np.zeros((1, 2))).data) == 0.0


@pytest.mark.parametrize("seed", range(3))
def test_structural_op_gradients(seed):
    rng = np.random.default_rng(800 + seed)
    a = ad.Tensor(rng.normal(size=(2, 3, 5)))
    b = ad.Tensor(rng.normal(size=(2, 3, 5)))
    check_op(lambda: ad.add(a, b), (a, b), seed)
    check_op(lambda: ad.sub(a, b), (a, b), seed)
    check_op(lambda: ad.slice_time(a, 1, 4), (a,), seed)
    check_op(lambda: ad.swap_time_channels(a), (a,), seed)
    check_op(lambda: ad.scale(a, 1.7), (a,), seed)


@pytest.mark.parametrize("seed", range(3))
def test_resample_time_gradients(seed):
    rng = np.random.default_rng(900 + seed)
    x = ad.Tensor(rng.normal(size=(1, 2, 24)))
    up, down = [(2, 1), (1, 2), (3, 2)][seed]
    check_op(lambda: ad.resample_time(x, up, down), (x,), seed)


def test_fanout_gradients_sum():
    x = ad.Tensor(np.ones((1, 4)))
    loss = ad.mse_loss(ad.add(x, x), np.zeros((1, 4)))
    ad.backward(loss)
    # d/dx sum((2x)^2)/B = 8x
    assert np.allclose(x.grad, 8.0 * np.ones((1, 4)))


def test_backward_requires_scalar():
    with pytest.raises(ValueError):
        ad.backward(ad.Tensor(np.zeros(3)))


def test_no_grad_suppresses_graph():
    x = ad.Tensor(np.ones((1, 3)))
    with ad.no_grad():
        out = ad.relu(x)
    assert out._parents == ()
    loss = ad.mse_loss(ad.Tensor(out.data), np.zeros((1, 3)))
    ad.backward(loss)
    assert x.grad is None


def test_no_grad_interleaved_across_contexts_restores_recording():
    # Two threads entering and leaving no_grad as A-in, B-in, A-out, B-out
    # must each see their own state and leave graph recording on.
    a, b = contextvars.copy_context(), contextvars.copy_context()
    in_a, in_b = ad.no_grad(), ad.no_grad()
    a.run(in_a.__enter__)
    b.run(in_b.__enter__)
    assert not a.run(ad.grad_enabled) and not b.run(ad.grad_enabled)
    a.run(in_a.__exit__, None, None, None)
    assert a.run(ad.grad_enabled) and not b.run(ad.grad_enabled)
    b.run(in_b.__exit__, None, None, None)
    assert a.run(ad.grad_enabled) and b.run(ad.grad_enabled)
    assert ad.grad_enabled()


@given(st.integers(0, 2**32 - 1))
def test_add_matches_numpy(seed):
    rng = np.random.default_rng(seed)
    a, b = rng.normal(size=(2, 4)), rng.normal(size=(2, 4))
    assert np.array_equal(ad.add(ad.Tensor(a), ad.Tensor(b)).data, a + b)


# ---------------------------------------------------------------------------
# Adam
# ---------------------------------------------------------------------------

def test_adam_zero_gradient_leaves_parameters():
    p = ad.Tensor(np.array([1.0, -2.0]))
    p.grad = np.zeros(2)
    state = ad.AdamState(step_size=1e-2)
    before = p.data.copy()
    ad.adam_step([p], state)
    assert np.array_equal(p.data, before)


def _manual_adam(theta, grads, lr=1e-2, b1=0.9, b2=0.999, eps=1e-8):
    """Scalar hand-rolled oracle for the Adam recurrence."""
    m = v = 0.0
    trace = []
    for t, g in enumerate(grads, start=1):
        m = b1 * m + (1 - b1) * g
        v = b2 * v + (1 - b2) * g * g
        mhat = m / (1 - b1**t)
        vhat = v / (1 - b2**t)
        theta = theta - lr * mhat / (np.sqrt(vhat) + eps)
        trace.append(theta)
    return trace


def test_adam_single_step_matches_hand_computation():
    p = ad.Tensor(np.array([0.5]))
    p.grad = np.array([0.3])
    state = ad.AdamState(step_size=1e-2)
    ad.adam_step([p], state)
    expected = _manual_adam(0.5, [0.3])[-1]
    assert p.data[0] == pytest.approx(expected, abs=1e-15)


def test_adam_two_steps_match_scalar_trace():
    p = ad.Tensor(np.array([0.5]))
    state = ad.AdamState(step_size=1e-2)
    trace = []
    for g in (0.3, -0.1):
        p.grad = np.array([g])
        ad.adam_step([p], state)
        trace.append(float(p.data[0]))
    expected = _manual_adam(0.5, [0.3, -0.1])
    assert trace == pytest.approx(expected, abs=1e-15)
    assert state.timestep == 2


def test_forward_backward_deterministic():
    def run():
        rng = np.random.default_rng(77)
        x = ad.Tensor(rng.normal(size=(2, 3, 12)))
        w = ad.Tensor(rng.normal(size=(2, 3, 4)))
        b = ad.Tensor(rng.normal(size=2))
        out = ad.relu(ad.conv1d(x, w, b, stride=2))
        loss = ad.mae_loss(ad.reshape(out, (2, out.size // 2)), np.zeros((2, out.size // 2)))
        ad.backward(loss)
        return float(loss.data), w.grad.copy()

    l1, g1 = run()
    l2, g2 = run()
    assert l1 == l2
    assert np.array_equal(g1, g2)
