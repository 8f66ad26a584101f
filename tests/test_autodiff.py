"""Gradient checks and contracts for the autodiff op set and Adam."""
import contextvars
import hashlib
import sys
import threading
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, strategies as st

from remixse import autodiff as ad
from remixse.model import TINY_CONFIG, ModelConfig, init_model, valid_length
from conftest import assert_grad_close, fd_gradients


def _project(out, rng):
    """Scalar loss from a random fixed projection; stronger than plain sum."""
    v = rng.normal(size=out.shape)
    return lambda t: ad.mse_loss(
        ad.reshape(ad.scale(t, v), (1, t.data.size)), np.zeros((1, t.data.size))
    )


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
        size = out.data.size
        return ad.mse_loss(ad.reshape(ad.scale(out, 0.5), (1, size)), np.full((1, size), 0.5))

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
@pytest.mark.parametrize("op", [ad.relu])
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


def _edge_input(rng, shape, dtype, large=1e30):
    """Normal values with exact zeros, negative zeros and some scaled by ``large``."""
    x = rng.normal(size=shape)
    pick = rng.random(shape)
    x[pick < 0.1] = 0.0
    x[(pick >= 0.1) & (pick < 0.2)] = -0.0
    x[(pick >= 0.2) & (pick < 0.3)] *= large
    return x.astype(dtype)


def _old_sigmoid(z):
    s = np.tanh(z * 0.5)
    s += 1.0
    s *= 0.5
    return s


def _old_relu(x, g):
    """The former relu: a stored bool mask of x > 0."""
    mask = x > 0.0
    return np.maximum(x, 0.0), g * mask


def _old_glu(x, g):
    """The former glu: a stored gate sigmoid(second half)."""
    half = x.shape[1] // 2
    a, sb = x[:, :half], _old_sigmoid(x[:, half:])
    gx = np.empty_like(x)
    np.multiply(g, sb, out=gx[:, :half])
    gb = gx[:, half:]
    np.multiply(g, a, out=gb)
    gb *= sb
    gb *= 1.0 - sb
    return a * sb, gx


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("op, old", [(ad.relu, _old_relu), (ad.glu, _old_glu)],
                         ids=["relu", "glu"])
def test_relu_and_glu_keep_only_their_output_and_match_the_stored_formulas(op, old, dtype):
    rng = np.random.default_rng(17)
    x = ad.Tensor(_edge_input(rng, (2, 16, 4096), dtype))
    op(x)  # numpy's one-time state is set up here, outside the measured window
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        out = op(x)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert out._backward is not None and out.data.dtype == dtype
    slack = 4096  # the Tensor, its closure and their cells
    assert peak - before <= out.data.nbytes + slack

    g = _edge_input(rng, out.shape, dtype, large=1e4)  # g * x stays finite in float32
    want_out, want_grad = old(x.data, g)
    out._backward(g)
    assert out.data.tobytes() == want_out.tobytes()
    assert x.grad.dtype == dtype and x.grad.tobytes() == want_grad.tobytes()


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


def lstm_reference_grads(x, w_ih, w_hh, bias, g_out):
    """Gradients of sum(g_out * lstm_reference(...)) by textbook BPTT over the
    naive cell: (d x, d w_ih, d w_hh, d bias)."""
    batch, steps, _ = x.shape
    hidden = w_hh.shape[1]
    sigmoid = lambda z: 1.0 / (1.0 + np.exp(-z))
    hs, cs, gates = [np.zeros((batch, hidden))], [np.zeros((batch, hidden))], []
    for t in range(steps):
        z = x[:, t] @ w_ih.T + hs[-1] @ w_hh.T + bias
        i = sigmoid(z[:, :hidden])
        f = sigmoid(z[:, hidden : 2 * hidden])
        g = np.tanh(z[:, 2 * hidden : 3 * hidden])
        o = sigmoid(z[:, 3 * hidden :])
        cs.append(f * cs[-1] + i * g)
        hs.append(o * np.tanh(cs[-1]))
        gates.append((i, f, g, o))
    dx, dw_ih, dw_hh, dbias = (np.zeros_like(a) for a in (x, w_ih, w_hh, bias))
    dh_next, dc_next = np.zeros((batch, hidden)), np.zeros((batch, hidden))
    for t in range(steps - 1, -1, -1):
        i, f, g, o = gates[t]
        tc = np.tanh(cs[t + 1])
        dh = g_out[:, t] + dh_next
        dc = dc_next + dh * o * (1.0 - tc * tc)
        dz = np.concatenate(
            [dc * g * i * (1.0 - i), dc * cs[t] * f * (1.0 - f), dc * i * (1.0 - g * g),
             dh * tc * o * (1.0 - o)],
            axis=1,
        )
        dx[:, t] = dz @ w_ih
        dw_ih += dz.T @ x[:, t]
        dw_hh += dz.T @ hs[t]
        dbias += dz.sum(axis=0)
        dh_next, dc_next = dz @ w_hh, dc * f
    return dx, dw_ih, dw_hh, dbias


@pytest.mark.parametrize(
    "m, k, n, rows",
    [
        (3072, 768, 1, [3072]),  # paper forward at B=1: one GEMV per step
        (3072, 768, 2, [512] * 6),  # paper forward at B=2
        (768, 3072, 4, [64] * 12),  # paper backward at B=4
        (3072, 768, 17, [3072]),  # blocks would hold fewer than 64 rows
        (32, 8, 8, [32]),  # tiny forward: the rows fit one block
    ],
)
def test_recurrence_row_blocks(m, k, n, rows):
    blocks = ad._row_blocks(np.empty((m, k)), np.empty((m, n)))
    assert [len(w) for w, _ in blocks] == rows
    assert all(o.shape == (len(w), n) for w, o in blocks)


def test_float64_blocked_lstm_matches_the_naive_cell_and_its_gradients():
    # H=400, B=3: the forward recurrence runs in 4H row blocks of 640 rows
    # (the last holds 320), the backward in H row blocks of 160 (the last 80).
    batch, steps, c_in, hidden = 3, 6, 5, 400
    rec_blocks = ad._row_blocks(np.empty((4 * hidden, hidden)), np.empty((4 * hidden, batch)))
    dh_blocks = ad._row_blocks(np.empty((hidden, 4 * hidden)), np.empty((hidden, batch)), 32)
    assert [len(w) for w, _ in rec_blocks] == [640, 640, 320]
    assert [len(w) for w, _ in dh_blocks] == [160, 160, 80]

    rng = np.random.default_rng(11)
    x = rng.normal(size=(batch, steps, c_in))
    w_ih = rng.uniform(-0.1, 0.1, size=(4 * hidden, c_in))
    w_hh = rng.uniform(-0.05, 0.05, size=(4 * hidden, hidden))
    bias = rng.normal(scale=0.1, size=4 * hidden)
    g_out = rng.normal(size=(batch, steps, hidden))
    tensors = [ad.Tensor(a) for a in (x, w_ih, w_hh, bias)]
    out = ad.lstm_layer(*tensors)
    np.testing.assert_allclose(out.data, lstm_reference(x, w_ih, w_hh, bias),
                               rtol=1e-12, atol=1e-14)
    out._backward(g_out)
    for t, want in zip(tensors, lstm_reference_grads(x, w_ih, w_hh, bias, g_out)):
        np.testing.assert_allclose(t.grad, want, rtol=1e-10, atol=1e-12 * np.abs(want).max())


def _lstm_h_wt_forward(x, w_ih, w_hh, bias):
    """lstm_layer's forward with the recurrence as one h @ w_hh.T per step,
    step for step in the input's dtype."""
    batch, steps, _ = x.shape
    hidden = w_hh.shape[1]
    act_scale = np.full(4 * hidden, 0.5, dtype=x.dtype)
    act_scale[2 * hidden : 3 * hidden] = 1.0
    act_shift = np.full(4 * hidden, 0.5, dtype=x.dtype)
    act_shift[2 * hidden : 3 * hidden] = 0.0
    pre = x @ w_ih.T + bias
    h = np.zeros((batch, hidden), dtype=x.dtype)
    c = np.zeros((batch, hidden), dtype=x.dtype)
    outs = []
    for t in range(steps):
        a = np.matmul(h, w_hh.T)
        a += pre[:, t]
        a *= act_scale
        np.tanh(a, out=a)
        a *= act_scale
        a += act_shift
        i, f, g, o = a.reshape(batch, 4, hidden).swapaxes(0, 1)
        c = f * c
        c += i * g
        h = o * np.tanh(c)
        outs.append(h)
    return np.stack(outs, axis=1)


def _paper_bottleneck_lstm(batch):
    """A float32 lstm_layer forward at the paper bottleneck (H = 768), with
    its inputs, and the h @ w_hh.T form of the same forward."""
    rng = np.random.default_rng(batch)
    hidden = 768
    x = rng.normal(size=(batch, 5, hidden)).astype(np.float32)
    w_ih, w_hh = (rng.uniform(-0.036, 0.036, size=(4 * hidden, hidden)).astype(np.float32)
                  for _ in range(2))
    bias = rng.normal(scale=0.1, size=4 * hidden).astype(np.float32)
    with ad.no_grad():
        out = ad.lstm_layer(ad.Tensor(x), ad.Tensor(w_ih), ad.Tensor(w_hh), ad.Tensor(bias))
    assert out.data.dtype == np.float32
    return out.data, _lstm_h_wt_forward(x, w_ih, w_hh, bias)


@pytest.mark.parametrize("batch", [1])
def test_float32_lstm_is_bit_equal_to_the_h_wt_form(batch):
    # At B=1 the recurrence is one w_hh @ h.T per step, which gives the very
    # bits of the h @ w_hh.T form.
    out, reference = _paper_bottleneck_lstm(batch)
    assert np.array_equal(out, reference)


@pytest.mark.parametrize(
    "batch, sha256",
    [
        (2, "d0ebcd8a24dc1fe6cd473449305f5bfd74cce7fb85ead42deda2ec071fbf006a"),
        (4, "ebcb2f4b16838902ef12e7d699aa3401794a3aed54363b196f2285730d6d09be"),
    ],
    ids=["2", "4"],
)
def test_float32_blocked_lstm_stays_within_bound_of_the_h_wt_form(batch, sha256):
    # At B >= 2 the paper bottleneck's recurrence runs in row blocks of w_hh,
    # which sum the dot products in another order than one GEMM: the README
    # states 1e-5 of the largest output for float32. The bits are pinned too.
    out, reference = _paper_bottleneck_lstm(batch)
    assert np.abs(out - reference).max() <= 1e-5 * np.abs(reference).max()
    assert hashlib.sha256(out.tobytes()).hexdigest() == sha256


def test_float32_backward_in_32_row_blocks_stays_within_bound_of_one_call(monkeypatch):
    # At H=768 and B=5-8 a 64-row block of w_hh^T exceeds LSTM_BLOCK_MNK, so
    # the backward's da_t @ w_hh runs in 32-row blocks; the single-call form
    # is the reference. The README states 1e-5 of the largest gradient for
    # float32.
    batch, steps, hidden = 6, 5, 768
    dh_blocks = ad._row_blocks(np.empty((hidden, 4 * hidden)), np.empty((hidden, batch)), 32)
    assert [len(w) for w, _ in dh_blocks] == [32] * 24
    rng = np.random.default_rng(batch)
    x = rng.normal(size=(batch, steps, hidden)).astype(np.float32)
    w_ih, w_hh = (rng.uniform(-0.036, 0.036, size=(4 * hidden, hidden)).astype(np.float32)
                  for _ in range(2))
    bias = rng.normal(scale=0.1, size=4 * hidden).astype(np.float32)
    g_out = rng.normal(size=(batch, steps, hidden)).astype(np.float32)

    def grads():
        tensors = [ad.Tensor(a) for a in (x, w_ih, w_hh, bias)]
        ad.lstm_layer(*tensors)._backward(g_out)
        return [t.grad for t in tensors]

    blocked = grads()
    row_blocks = ad._row_blocks
    monkeypatch.setattr(ad, "_row_blocks", lambda w, out, granule=64: (
        [(w, out)] if granule == 32 else row_blocks(w, out, granule)))
    for got, want in zip(blocked, grads()):
        assert got.dtype == np.float32
        assert not np.array_equal(got, want)
        assert np.abs(got - want).max() <= 1e-5 * np.abs(want).max()


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
        half = out.data.size // 2
        loss = ad.mae_loss(ad.reshape(out, (2, half)), np.zeros((2, half)))
        ad.backward(loss)
        return float(loss.data), w.grad.copy()

    l1, g1 = run()
    l2, g2 = run()
    assert l1 == l2
    assert np.array_equal(g1, g2)


def test_add_gives_each_parent_its_own_gradient():
    a = ad.Tensor(np.ones((2, 3)))
    b = ad.Tensor(np.full((2, 3), 2.0))
    ad.backward(ad.mse_loss(ad.reshape(ad.add(a, b), (1, 6)), np.zeros((1, 6))))
    assert not np.shares_memory(a.grad, b.grad)
    before = b.grad.copy()
    a.grad += 1.0
    assert np.array_equal(b.grad, before)


# ---------------------------------------------------------------------------
# backward consumes the graph
# ---------------------------------------------------------------------------

def _graph_nodes(loss):
    nodes, seen, stack = [], set(), [loss]
    while stack:
        t = stack.pop()
        if id(t) not in seen:
            seen.add(id(t))
            nodes.append(t)
            stack.extend(t._parents)
    return nodes


def _replay_without_release(loss):
    """Backward as a plain replay of every closure in reverse creation order,
    keeping the graph: the reference that ``ad.backward`` must agree with."""
    loss.grad = np.ones_like(loss.data)
    for t in sorted(_graph_nodes(loss), key=lambda t: t._seq, reverse=True):
        if t._backward is not None and t.grad is not None:
            t._backward(t.grad)


def test_backward_releases_every_interior_node_and_keeps_leaf_gradients():
    # resample=2 also puts resample_time and scale on the graph
    model = init_model(ModelConfig(depth=2, hidden=4, resample=2), seed=4)
    x = 0.1 * np.random.default_rng(4).normal(size=(2, 600))

    loss = ad.mae_loss(model.apply(x), x)
    interior = [t for t in _graph_nodes(loss) if t._backward is not None]
    assert len(interior) > 20
    ad.backward(loss)
    for t in interior:
        assert t.grad is None and t._backward is None and t._parents == ()
    released = {name: p.grad for name, p in model.params.items()}

    model.zero_grads()
    _replay_without_release(ad.mae_loss(model.apply(x), x))
    for name, p in model.params.items():
        assert released[name] is not None
        assert np.array_equal(released[name], p.grad), name


# ---------------------------------------------------------------------------
# convolutions fused with the activation after them
# ---------------------------------------------------------------------------

FUSED = [("conv1d", "relu"), ("conv1d", "glu"), ("conv_transpose1d", "relu")]
FUSED_IDS = ["conv1d-relu", "conv1d-glu", "conv_transpose1d-relu"]


def _conv_case(rng, conv, dtype, batch=2, c_in=3, c_out=4, frames=6, kernel=4, stride=2):
    """Input, weight and bias Tensors for ``conv`` with ``frames`` input
    frames (conv_transpose1d) or output frames (conv1d)."""
    if conv == "conv1d":
        x = rng.normal(size=(batch, c_in, (frames - 1) * stride + kernel))
        w = rng.normal(size=(c_out, c_in, kernel))
    else:
        x = rng.normal(size=(batch, c_in, frames))
        w = rng.normal(size=(c_in, c_out, kernel))
    return [ad.Tensor(a.astype(dtype)) for a in (x, w, rng.normal(size=c_out))]


def _off_target(out, rng):
    """A loss on ``out`` whose gradient is nonzero where ``out`` is 0, unlike
    ``_project``'s, so that it reaches a ReLU's mask there."""
    target = rng.normal(size=(1, out.size))
    return lambda t: ad.mse_loss(ad.reshape(t, (1, t.data.size)), target)


def _zero_first_channel(conv, w, b):
    """Zero output channel 0's weights and bias: its pre-activation is then
    exactly 0 whatever the input."""
    w.data[(0,) if conv == "conv1d" else (slice(None), 0)] = 0.0
    b.data[0] = 0.0


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("conv, act", FUSED, ids=FUSED_IDS)
def test_fused_conv_gradients_match_finite_differences(conv, act, seed):
    rng = np.random.default_rng(500 + seed)
    x, w, b = _conv_case(rng, conv, np.float64)
    op, fn = getattr(ad, conv), getattr(ad, act)
    check_op(lambda: op(x, w, b, 2, act=fn), (x, w, b), seed)


@pytest.mark.parametrize("conv", ["conv1d", "conv_transpose1d"])
def test_fused_relu_at_exact_zeros_has_subgradient_zero(conv):
    """ReLU's input is exactly 0 in channel 0, for any input: the gradient
    into x matches finite differences, channel 0's weights and bias get 0,
    and the other channels' match finite differences."""
    rng = np.random.default_rng(7)
    x, w, b = _conv_case(rng, conv, np.float64)
    _zero_first_channel(conv, w, b)
    op = getattr(ad, conv)
    assert not op(x, w, b, 2).data[:, 0].any()
    loss_of = _off_target(op(x, w, b, 2, act=ad.relu).data, rng)

    def build_loss():
        return loss_of(op(x, w, b, 2, act=ad.relu))

    ad.backward(build_loss())
    assert_grad_close(x.grad, fd_gradients(build_loss, x))
    rest = (slice(1, None),) if conv == "conv1d" else (slice(None), slice(1, None))
    first = (0,) if conv == "conv1d" else (slice(None), 0)
    assert not w.grad[first].any() and b.grad[0] == 0.0
    assert_grad_close(w.grad[rest], fd_gradients(build_loss, w)[rest])
    assert_grad_close(b.grad[1:], fd_gradients(build_loss, b)[1:])


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("conv, act", FUSED, ids=FUSED_IDS)
def test_fused_conv_is_bit_identical_to_the_unfused_pair(conv, act, dtype):
    # K=1, stride 1 is every GLU projection's shape, where _im2col returns the
    # input itself and GLU's backward recomputes the pre-activation from it
    rng = np.random.default_rng(21)
    for kernel, stride in [(8, 4), (1, 1)]:
        fused = _conv_case(rng, conv, dtype, batch=3, c_in=5, c_out=8, frames=40, kernel=kernel,
                           stride=stride)
        _zero_first_channel(conv, *fused[1:])  # exact zeros into ReLU
        pair = [ad.Tensor(t.data.copy()) for t in fused]
        op, fn = getattr(ad, conv), getattr(ad, act)
        out_fused = op(*fused, stride, act=fn)
        out_pair = fn(op(*pair, stride))
        assert out_fused.data.dtype == dtype
        assert out_fused.data.tobytes() == out_pair.data.tobytes()
        loss_of = _off_target(out_fused.data, rng)
        ad.backward(loss_of(out_fused))
        ad.backward(loss_of(out_pair))
        for got, want in zip(fused, pair):
            assert got.grad.dtype == dtype and got.grad.tobytes() == want.grad.tobytes()


# (conv, c_in, c_out, kernel, stride, act): a level-1 projection, the first
# encoder convolution, transposed convolutions with K = 3 * stride, so that
# every output sample sums three taps, from two tiles at a tile edge, and a
# transposed convolution with K=1 and stride 1, whose taps are its output
TILED = [("conv1d", 8, 96, 1, 1, "glu"), ("conv1d", 1, 48, 8, 4, "relu"),
         ("conv_transpose1d", 8, 16, 6, 2, "relu"), ("conv_transpose1d", 8, 8, 12, 4, None),
         ("conv_transpose1d", 8, 64, 1, 1, "relu")]
TILED_IDS = ["conv1d-k1s1-glu", "conv1d-k8s4-relu", "conv_transpose1d-k6s2-relu",
             "conv_transpose1d-k12s4", "conv_transpose1d-k1s1-relu"]


def _whole_array_conv(conv, x, w, b, stride, act):
    """The convolution as one GEMM over all frames of each row, with
    _im2col's columns or _col2im's scatter, then the bias and ``act``."""
    kernel = w.shape[-1]
    if conv == "conv1d":
        frames = (x.shape[-1] - kernel) // stride + 1
        y = w.reshape(w.shape[0], -1) @ ad._im2col(x, kernel, stride, frames)
    else:
        length = (x.shape[-1] - 1) * stride + kernel
        y = ad._col2im(w.reshape(w.shape[0], -1).T @ x, kernel, stride, length)
    y += b[:, None]
    return {None: y, "relu": np.maximum(y, 0.0), "glu": ad._glu(y)}[act]


@pytest.mark.parametrize("tail", [1, 63, 65])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("conv, c_in, c_out, kernel, stride, act", TILED, ids=TILED_IDS)
def test_a_tiled_conv_gives_the_bits_of_the_whole_array_conv(conv, c_in, c_out, kernel, stride,
                                                              act, dtype, tail):
    rows, depth = (c_out, c_in * kernel) if conv == "conv1d" else (c_out * kernel, c_in)
    step = ad._tile_frames(rows, depth, dtype)
    frames = 3 * step + tail  # three tiles, the last with the tail
    assert [t[1:] for t in ad._tiles(1, frames, rows, depth, dtype)] == [
        (0, step), (step, 2 * step), (2 * step, frames)]
    rng = np.random.default_rng(tail)
    fused = _conv_case(rng, conv, dtype, batch=2, c_in=c_in, c_out=c_out, frames=frames,
                       kernel=kernel, stride=stride)
    op, fn = getattr(ad, conv), act and getattr(ad, act)
    out = op(*fused, stride, act=fn)
    want = _whole_array_conv(conv, *(t.data for t in fused), stride, act)
    assert out.data.dtype == dtype and out.data.tobytes() == want.tobytes()
    if act is None:
        return
    # GLU's backward computes the pre-activation again with the same tiles
    pair = [ad.Tensor(t.data.copy()) for t in fused]
    out_pair = fn(op(*pair, stride))
    g = rng.normal(size=out.data.shape).astype(dtype)
    out._backward(g)
    out_pair._backward(g)
    out_pair._parents[0]._backward(out_pair._parents[0].grad)
    for got, want in zip(fused, pair):
        assert got.grad.tobytes() == want.grad.tobytes()


def _traced_bytes(fn) -> tuple[int, int]:
    """(retained, peak) bytes that tracemalloc sees ``fn()`` allocate."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        result = fn()
        current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    del result
    return current - before, peak - before


# (conv, act, c_out, frames, kernel, stride); in the last two cases GLU's
# product, or the transposed convolution's taps, has 64 rows, so a 1 MiB
# float32 tile is 4096 frames, and 12353 frames make three tiles
ALLOC = [(conv, act, 16, 4096, 1, 1) for conv, act in FUSED] + [
    ("conv1d", "glu", 64, 12353, 1, 1), ("conv_transpose1d", "relu", 16, 12353, 4, 4)]
ALLOC_IDS = FUSED_IDS + ["conv1d-glu-tiled", "conv_transpose1d-relu-tiled"]


@pytest.mark.parametrize("conv, act, c_out, frames, kernel, stride", ALLOC, ids=ALLOC_IDS)
def test_a_recorded_fused_conv_allocates_only_its_output(conv, act, c_out, frames, kernel,
                                                         stride):
    rng = np.random.default_rng(3)
    x, w, b = _conv_case(rng, conv, np.float32, c_in=8, c_out=c_out, frames=frames,
                         kernel=kernel, stride=stride)
    op, fn = getattr(ad, conv), getattr(ad, act)
    op(x, w, b, stride, act=fn)  # numpy's one-time state is set up outside the window
    out = []
    retained, peak = _traced_bytes(lambda: out.append(op(x, w, b, stride, act=fn)))
    assert out[0]._backward is not None
    nbytes = out[0].data.nbytes
    # the Tensor, its closures and numpy's 8192-element buffer for the bias add
    slack = 65536
    assert retained <= nbytes + slack
    if frames == 4096:
        # GLU's pre-activation (twice its output) lives only until the GLU is taken
        assert peak <= nbytes + (2 * nbytes if act == "glu" else 0) + slack
    else:  # beside its output, the forward holds one tile's product at a time
        rows, depth = (c_out, 8) if conv == "conv1d" else (c_out * kernel, 8)
        tiles = ad._tiles(1, frames, rows, depth, np.float32)
        assert len(tiles) == 3
        assert peak <= nbytes + max(f1 - f0 for _, f0, f1 in tiles) * rows * 4 + slack
    pair = []
    retained, _ = _traced_bytes(lambda: pair.append(fn(op(x, w, b, stride))))
    assert retained >= 2 * nbytes


def test_a_fused_glu_backward_adds_only_the_recomputed_pre_activation_and_the_gate():
    rng = np.random.default_rng(4)
    x, w, b = _conv_case(rng, "conv1d", np.float32, c_in=8, c_out=32, frames=4096, kernel=1,
                         stride=1)

    def backward_peak(act, g):
        out = ad.conv1d(x, w, b, 1, act=act)
        for t in (x, w, b):
            t.grad = None
        return _traced_bytes(lambda: out._backward(g))[1]

    g = rng.normal(size=(2, 16, 4096)).astype(np.float32)  # the gate's shape too
    pre_nbytes = 2 * g.nbytes
    backward_peak(ad.glu, g)
    conv_own = backward_peak(None, rng.normal(size=(2, 32, 4096)).astype(np.float32))
    fused = backward_peak(ad.glu, g)
    # the forward kept no pre-activation, so backward computes it again
    assert fused <= conv_own + pre_nbytes + g.nbytes + 4096

    # the unfused pair allocates GLU's input gradient and the gate in the same way
    pre = ad.conv1d(x, w, b, 1)
    out = ad.glu(pre)

    def pair_backward():
        out._backward(g)
        pre._backward(pre.grad)

    assert fused <= _traced_bytes(pair_backward)[1] + 4096


def _lstm_state_nbytes(t: ad.Tensor) -> int:
    """What a recorded ``lstm_layer`` keeps beside its output ``t``: the
    gates (4H), the cells (one step more) and their tanh (H), per step and row."""
    batch, steps, hidden = t.data.shape
    return (4 * steps + (steps + 1) + steps) * batch * hidden * t.data.itemsize


def test_a_recorded_model_forward_keeps_only_its_nodes_outputs():
    """A recorded float32 forward retains the buffers its graph nodes output,
    each view counted once by its base, and the LSTM's state for backward:
    no op keeps a private buffer."""
    config = ModelConfig(depth=3, hidden=8, kernel_size=8, stride=4, resample=2)
    model = init_model(config, 0).astype(np.float32)
    x = 0.1 * np.random.default_rng(0).standard_normal((2, 4000))
    model.apply(x)  # numpy's one-time state is set up outside the window
    out = []
    retained, _ = _traced_bytes(lambda: out.append(model.apply(x)))
    params = {id(p) for p in model.params.values()}
    buffers, lstm_state, stack, seen = {}, 0, [out[0]], set()
    while stack:
        t = stack.pop()
        if id(t) in seen or id(t) in params:
            continue
        seen.add(id(t))
        stack.extend(t._parents)
        base = t.data if t.data.base is None else t.data.base
        buffers[id(base)] = base.nbytes
        if t._backward is not None and t._backward.__qualname__.startswith("lstm_layer."):
            lstm_state += _lstm_state_nbytes(t)
    assert lstm_state > 0
    # Tensors, closures and the small per-row arrays (sigma, the bias views)
    slack = 65536
    assert retained <= sum(buffers.values()) + lstm_state + slack


def test_a_conv_rejects_another_activation():
    x, w, b = _conv_case(np.random.default_rng(0), "conv1d", np.float64)
    with pytest.raises(ValueError, match="relu or glu"):
        ad.conv1d(x, w, b, 2, act=np.tanh)


# ---------------------------------------------------------------------------
# Adam, block by block
# ---------------------------------------------------------------------------

def _check_blocked_adam_against_the_whole_array_formula(dtype):
    """Three blocked Adam steps against the formula on whole arrays, all in
    ``dtype``: the parameter is its own master, and its moments, scratch
    and arithmetic have its dtype."""
    rng = np.random.default_rng(9)
    shapes = [(2 * ad.ADAM_BLOCK + 123,), (3, ad.ADAM_BLOCK // 2 + 7), (5, 3), (4,)]
    params = [ad.Tensor(rng.normal(size=s).astype(dtype)) for s in shapes]
    ref_p = [p.data.copy() for p in params]
    ref_m = [np.zeros(s, dtype) for s in shapes]
    ref_v = [np.zeros(s, dtype) for s in shapes]
    state = ad.AdamState(step_size=1e-3)
    b1, b2, eps, lr = ad.ADAM_BETA1, ad.ADAM_BETA2, ad.ADAM_EPSILON, state.step_size
    for t in range(1, 4):
        # the last has no grad
        grads = [rng.normal(size=s).astype(dtype) for s in shapes[:-1]] + [None]
        for p, g in zip(params, grads):
            p.grad = g
        ad.adam_step(params, state)
        bc1, bc2 = 1.0 - b1**t, 1.0 - b2**t
        for p, m, v, g in zip(ref_p, ref_m, ref_v, grads):
            g = np.zeros_like(p) if g is None else g
            m *= b1
            m += (1.0 - b1) * g
            v *= b2
            v += (1.0 - b2) * (g * g)
            p -= lr * (m / bc1) / (np.sqrt(v / bc2) + eps)
    for p, m, v, rp, rm, rv in zip(params, state.m, state.v, ref_p, ref_m, ref_v):
        assert p.data.dtype == m.dtype == v.dtype == dtype
        assert np.array_equal(p.data, rp)
        assert np.array_equal(m, rm)
        assert np.array_equal(v, rv)


def test_blocked_adam_is_bit_identical_to_the_whole_array_formula():
    _check_blocked_adam_against_the_whole_array_formula(np.float64)


def test_float32_adam_is_bit_identical_to_the_whole_array_float32_formula():
    _check_blocked_adam_against_the_whole_array_formula(np.float32)


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_adam_state_holds_only_moments_in_each_parameters_dtype(dtype):
    model = init_model(TINY_CONFIG, seed=3).astype(dtype)
    params = model.parameters()
    x = 0.1 * np.random.default_rng(3).normal(size=(2, 4000))
    state = ad.AdamState()
    ad.adam_step(params, state, ad.mae_loss(model.apply(x), x))
    assert len(state.m) == len(state.v) == len(params)
    for p, m, v in zip(params, state.m, state.v):
        assert m.dtype == v.dtype == p.data.dtype == dtype
        assert m.shape == v.shape == p.data.shape
    per_parameter = {name: value for name, value in vars(state).items() if isinstance(value, list)}
    assert set(per_parameter) == {"m", "v"}


@pytest.mark.parametrize("preset, batch", [("tiny", 8), ("paper", 1)])
def test_a_float32_training_step_computes_in_float32(preset, batch):
    # Only the loss may be wider than float32 (its target is float64): one
    # op that widened its output would put every later op in float64.
    from remixse.model import PAPER_CONFIG, TINY_CONFIG

    model = init_model({"tiny": TINY_CONFIG, "paper": PAPER_CONFIG}[preset], seed=2)
    model = model.astype(np.float32)
    x = 0.1 * np.random.default_rng(2).normal(size=(batch, 4000))
    loss = ad.mae_loss(model.apply(x), x)
    wide = [t for t in _graph_nodes(loss) if t.data.dtype != np.float32]
    assert wide == [loss]
    ad.backward(loss)
    ad.adam_step(model.parameters(), ad.AdamState())
    assert np.isfinite(loss.data)
    for name, p in model.params.items():
        assert p.grad.dtype == np.float32 and p.data.dtype == np.float32, name


# ---------------------------------------------------------------------------
# Adam overlapped with backward
# ---------------------------------------------------------------------------

def _fan_out_step(model, extra, unused, x):
    """A tiny model's loss with ``extra`` added twice (fan-out), and the
    parameters, among them ``unused``, which gets no gradient."""
    out = model.apply(x)
    loss = ad.mae_loss(ad.add(ad.add(out, extra), extra), 0.5 * x)
    return loss, [*model.parameters(), extra, unused]


def test_backward_reports_each_leaf_once_its_gradient_is_complete():
    x = 0.1 * np.random.default_rng(16).normal(size=(2, 3000))
    model = init_model(TINY_CONFIG, seed=16)
    extra, unused = ad.Tensor(np.full(x.shape, 0.01)), ad.Tensor(np.ones(3))
    loss, params = _fan_out_step(model, extra, unused, x)
    finals = []
    ad.backward(loss, final=lambda leaf: finals.append((leaf, leaf.grad.copy())))
    leaves = [leaf for leaf, _ in finals]
    assert len(leaves) == len(params) - 1 and unused not in leaves
    for leaf, grad in finals:
        assert np.array_equal(grad, leaf.grad)  # nothing was added after the call
    # The first op's parameters are the last to be final.
    assert set(leaves[-2:]) == {model.params["enc1.conv.w"], model.params["enc1.conv.b"]}


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_overlapped_adam_step_is_bit_identical_to_backward_then_update(dtype):
    x = 0.1 * np.random.default_rng(17).normal(size=(2, 17_000))  # extra spans two blocks

    def build():
        model = init_model(TINY_CONFIG, seed=17).astype(dtype)
        return model, ad.Tensor(np.full(x.shape, 0.01, dtype)), ad.Tensor(np.ones(3, dtype))

    overlapped, reference = build(), build()
    state, ref_state = ad.AdamState(step_size=1e-3), ad.AdamState(step_size=1e-3)
    threads = threading.active_count()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # interleave the two threads as finely as the GIL allows
    try:
        for _ in range(3):
            loss, params = _fan_out_step(*overlapped, x)
            ad.adam_step(params, state, loss)
            assert all(p.grad is None for p in params)
            ref_loss, ref_params = _fan_out_step(*reference, x)
            ad.backward(ref_loss)
            ad.adam_step(ref_params, ref_state)
            assert ref_params[-1].grad is None and ref_params[-2].grad is not None
            for p in ref_params:
                p.grad = None
            for p, r in zip(params, ref_params):
                assert p.data.dtype == dtype and np.array_equal(p.data, r.data)
    finally:
        sys.setswitchinterval(interval)
    assert threading.active_count() == threads
    assert state.timestep == ref_state.timestep == 3
    for arrays, ref_arrays in ((state.m, ref_state.m), (state.v, ref_state.v)):
        for a, r in zip(arrays, ref_arrays):
            assert a.dtype == dtype and np.array_equal(a, r)


def test_a_raising_closure_propagates_and_no_update_outlives_the_step(monkeypatch):
    first = ad.Tensor(np.ones(4 * ad.ADAM_BLOCK))  # final, and handed over, before the raise
    second = ad.Tensor(np.ones(8))

    def fail(g):
        raise RuntimeError("closure failed")

    failing = ad._record(ad.Tensor(second.data * 1.0), (second,), fail)  # runs last
    loss = ad.add(ad.mae_loss(ad.scale(first, 2.0), np.zeros(first.shape)),
                  ad.mae_loss(failing, np.zeros(8)))
    updated = []
    update = ad._adam_update

    def recorded(p, *args):
        updated.append(p)
        update(p, *args)

    monkeypatch.setattr(ad, "_adam_update", recorded)
    threads = threading.active_count()
    with pytest.raises(RuntimeError, match="closure failed"):
        ad.adam_step([first, second], ad.AdamState(), loss)
    assert threading.active_count() == threads
    assert all(p is first for p in updated)
    count, snapshot = len(updated), first.data.copy()
    time.sleep(0.05)
    assert len(updated) == count and np.array_equal(first.data, snapshot)
    assert np.array_equal(second.data, np.ones(8))


def test_the_step_releases_the_gradients_it_computed_and_keeps_those_set_before():
    a, b, c = (ad.Tensor(np.ones(3)) for _ in range(3))
    b.grad = np.full(3, 0.5)  # in the graph: backward adds to it
    c_grad = c.grad = np.full(3, 0.25)  # not in the graph
    loss = ad.mae_loss(ad.add(ad.scale(a, 2.0), b), np.zeros(3))
    ad.adam_step([a, b, c], ad.AdamState(), loss)
    assert a.grad is None
    assert np.allclose(b.grad, 0.5 + 1.0 / 3.0)
    assert c.grad is c_grad
    assert np.array_equal(c_grad, np.full(3, 0.25))
    assert not np.array_equal(c.data, np.ones(3))  # applied, though kept


def test_adam_rejects_a_non_contiguous_parameter():
    p = ad.Tensor(np.ones((3, 4)))
    p.data = p.data.T  # a view: an update through reshape(-1) would be lost
    p.grad = np.ones((4, 3))
    with pytest.raises(ValueError, match="C-contiguous"):
        ad.adam_step([p], ad.AdamState())


# ---------------------------------------------------------------------------
# constants get no gradient
# ---------------------------------------------------------------------------

def test_model_input_and_loss_target_are_constants(monkeypatch):
    config = ModelConfig(depth=2, hidden=4, resample=4)
    model = init_model(config, seed=3)
    x = 0.1 * np.random.default_rng(3).normal(size=(2, 700))
    target = 0.1 * np.random.default_rng(4).normal(size=(2, 700))
    lengths = []
    adjoint = ad.resample_adjoint

    def recording_adjoint(g, up, down, in_length, *args, **kwargs):
        lengths.append(in_length)
        return adjoint(g, up, down, in_length, *args, **kwargs)

    monkeypatch.setattr(ad, "resample_adjoint", recording_adjoint)
    for loss_fn in (ad.mae_loss, ad.mse_loss):
        lengths.clear()
        model.zero_grads()
        pred = model.apply(x)
        loss = loss_fn(pred, target)
        # The target is not a graph node, so nothing can backpropagate into it.
        assert loss._parents == (pred,)
        ad.backward(loss)
        # Only the downsampling back to the input rate is differentiated.
        assert lengths and valid_length(config, x.shape[1]) not in lengths
        assert all(p.grad is not None for p in model.parameters())


def test_op_on_constants_only_is_not_recorded():
    c = ad.Tensor(np.ones((1, 2, 8)), requires_grad=False)
    w = ad.Tensor(np.ones((3, 2, 2)))
    b = ad.Tensor(np.zeros(3))
    up = ad.resample_time(c, 2, 1)
    assert up._backward is None and not up.requires_grad
    out = ad.conv1d(up, w, b, 2)
    assert out._backward is not None and out.requires_grad
    size = out.data.size
    ad.backward(ad.mae_loss(ad.reshape(out, (1, size)), np.zeros((1, size))))
    assert c.grad is None and up.grad is None
    assert w.grad is not None and b.grad is not None


# ---------------------------------------------------------------------------
# float32 follows through every op
# ---------------------------------------------------------------------------

OPS = ("add", "scale", "relu", "glu", "slice_time", "swap_time_channels", "reshape",
       "conv1d", "conv_transpose1d", "lstm_layer", "resample_time", "mae_loss", "mse_loss")
ARRAY_HELPERS = ("_sigmoid", "_glu", "_im2col", "_col2im", "_batch_outer", "resample_array",
                 "_fft_convolve_full")


def _dtype_checking(monkeypatch, seen, dtype):
    """Wrap every op (Tensor arguments and result) and every array helper
    (array arguments and result) to fail on anything but ``dtype``."""

    def wrap(name, fn, kind):
        def checked(*args, **kwargs):
            inputs = [a for a in args if isinstance(a, kind)]
            out = fn(*args, **kwargs)
            for a in inputs + [out]:
                got = a.data.dtype if kind is ad.Tensor else a.dtype
                assert got == dtype, f"{name} saw {got}"
            seen.add(name)
            return out

        return checked

    for name in OPS:
        monkeypatch.setattr(ad, name, wrap(name, getattr(ad, name), ad.Tensor))
    for name in ARRAY_HELPERS:
        monkeypatch.setattr(ad, name, wrap(name, getattr(ad, name), np.ndarray))


def test_float32_paper_forward_stays_float32_in_every_op(monkeypatch):
    from remixse.model import PAPER_CONFIG

    model = init_model(PAPER_CONFIG, seed=0).astype(np.float32)
    x = 0.1 * np.random.default_rng(0).normal(size=(1, 2000))
    seen: set[str] = set()
    _dtype_checking(monkeypatch, seen, np.float32)
    with ad.no_grad():
        out = model.apply(x)
    assert out.data.dtype == np.float32
    # ReLU and GLU run inside the convolutions (``act``), GLU through ``_glu``
    assert {"conv1d", "conv_transpose1d", "lstm_layer", "_glu", "resample_time",
            "scale", "_col2im", "_fft_convolve_full", "resample_array"} <= seen


def test_float32_backward_keeps_float32_gradients():
    rng = np.random.default_rng(5)
    model = init_model(ModelConfig(depth=2, hidden=4, resample=2), seed=5).astype(np.float32)
    x = 0.1 * rng.normal(size=(2, 600))
    ad.backward(ad.mse_loss(model.apply(x), x))
    assert all(p.grad.dtype == np.float32 for p in model.parameters())


def test_float32_forward_matches_float64_within_tolerance():
    from remixse.model import PAPER_CONFIG

    model = init_model(PAPER_CONFIG, seed=1)
    x = 0.1 * np.random.default_rng(1).normal(size=(1, 4000))
    with ad.no_grad():
        ref = model.apply(x).data
        got = model.astype(np.float32).apply(x).data
    assert np.max(np.abs(got - ref)) <= 1e-5 * np.max(np.abs(ref))


def test_tensor_keeps_float32_and_casts_the_rest_to_float64():
    assert ad.Tensor(np.zeros(2, dtype=np.float32)).data.dtype == np.float32
    for data in (np.zeros(2, dtype=np.float16), np.arange(2), [1, 2], 3.0, np.zeros(2)):
        assert ad.Tensor(data).data.dtype == np.float64
