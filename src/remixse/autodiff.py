"""Reverse-mode automatic differentiation over numpy arrays.

Covers exactly the op set the waveform denoiser needs: 1-D (transposed)
convolutions, pointwise nonlinearities, GLU, a single LSTM layer, structural
ops, polyphase resampling, the two training losses, and Adam. All math runs
in float64. The graph is define-by-run: every op closes over what its
backward pass needs, and ``backward`` replays the closures in exact reverse
creation order.
"""
from __future__ import annotations

import itertools
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass, field

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

_seq_counter = itertools.count()
# Per context (so per thread): enhancement enters no_grad from worker threads.
_grad_enabled: ContextVar[bool] = ContextVar("remixse_grad_enabled", default=True)


@contextmanager
def no_grad():
    """Run ops without recording the graph (teacher inference, enhancement)."""
    token = _grad_enabled.set(False)
    try:
        yield
    finally:
        _grad_enabled.reset(token)


def grad_enabled() -> bool:
    return _grad_enabled.get()


class Tensor:
    """A float64 array plus the closure that backpropagates into its parents.

    ``grad`` starts as a copy of the first contribution and accumulates later
    ones with ``+=``, so fan-out (a tensor consumed by several ops) sums them.
    """

    __slots__ = ("data", "grad", "_parents", "_backward", "_seq")

    def __init__(self, data):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad: np.ndarray | None = None
        self._parents: tuple[Tensor, ...] = ()
        self._backward = None
        self._seq = next(_seq_counter)

    @property
    def shape(self):
        return self.data.shape

    @property
    def size(self):
        return self.data.size

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, seq={self._seq})"


def _record(out: Tensor, parents: tuple[Tensor, ...], backward) -> Tensor:
    if _grad_enabled.get():
        out._parents = parents
        out._backward = backward
    return out


def _accum(t: Tensor, g: np.ndarray) -> None:
    if t.grad is None:
        # Always a fresh copy: ops such as ``add`` hand one array to two parents.
        t.grad = np.array(g, dtype=np.float64, order="C")
    else:
        t.grad += g


def backward(loss: Tensor) -> None:
    """Backpropagate from a scalar loss, filling ``.grad`` on reachable tensors."""
    if loss.data.size != 1:
        raise ValueError("backward expects a scalar loss")
    nodes: list[Tensor] = []
    seen: set[int] = set()
    stack = [loss]
    while stack:
        t = stack.pop()
        if id(t) in seen:
            continue
        seen.add(id(t))
        nodes.append(t)
        stack.extend(t._parents)
    # Creation order is execution order, so this is exact reverse execution order.
    nodes.sort(key=lambda t: t._seq, reverse=True)
    loss.grad = np.ones_like(loss.data)
    for t in nodes:
        if t._backward is not None and t.grad is not None:
            t._backward(t.grad)


# ---------------------------------------------------------------------------
# elementwise and structural ops
# ---------------------------------------------------------------------------

def add(a: Tensor, b: Tensor) -> Tensor:
    if a.data.shape != b.data.shape:
        raise ValueError(f"add shape mismatch: {a.data.shape} vs {b.data.shape}")
    out = Tensor(a.data + b.data)

    def bwd(g):
        _accum(a, g)
        _accum(b, g)

    return _record(out, (a, b), bwd)


def sub(a: Tensor, b: Tensor) -> Tensor:
    if a.data.shape != b.data.shape:
        raise ValueError(f"sub shape mismatch: {a.data.shape} vs {b.data.shape}")
    out = Tensor(a.data - b.data)

    def bwd(g):
        _accum(a, g)
        _accum(b, -g)

    return _record(out, (a, b), bwd)


def scale(x: Tensor, c) -> Tensor:
    """Multiply by a constant scalar or constant array (e.g. per-row gains).

    ``c`` is not differentiated through.
    """
    c = np.asarray(c, dtype=np.float64)
    out = Tensor(x.data * c)

    def bwd(g):
        _accum(x, g * c)

    return _record(out, (x,), bwd)


def relu(x: Tensor) -> Tensor:
    out = Tensor(np.maximum(x.data, 0.0))
    mask = x.data > 0.0

    def bwd(g):
        _accum(x, g * mask)

    return _record(out, (x,), bwd)


def _sigmoid(z: np.ndarray) -> np.ndarray:
    """0.5 * (1 + tanh(z / 2)): cannot overflow for any z, no sign split."""
    s = np.tanh(z * 0.5)
    s += 1.0
    s *= 0.5
    return s


def sigmoid(x: Tensor) -> Tensor:
    s = _sigmoid(x.data)
    out = Tensor(s)

    def bwd(g):
        _accum(x, g * s * (1.0 - s))

    return _record(out, (x,), bwd)


def tanh(x: Tensor) -> Tensor:
    t = np.tanh(x.data)
    out = Tensor(t)

    def bwd(g):
        _accum(x, g * (1.0 - t * t))

    return _record(out, (x,), bwd)


def glu(x: Tensor, axis: int = 1) -> Tensor:
    """Gated linear unit: split channels in half, out = first * sigmoid(second)."""
    n = x.data.shape[axis]
    if n % 2 != 0:
        raise ValueError(f"glu needs an even axis size, got {n}")
    half = n // 2
    lead = (slice(None),) * (axis % x.data.ndim)
    first, second = lead + (slice(None, half),), lead + (slice(half, None),)
    a = x.data[first]
    sb = _sigmoid(x.data[second])
    out = Tensor(a * sb)

    def bwd(g):
        gx = np.empty_like(x.data)
        np.multiply(g, sb, out=gx[first])
        gb = gx[second]
        np.multiply(g, a, out=gb)
        gb *= sb
        gb *= 1.0 - sb
        _accum(x, gx)

    return _record(out, (x,), bwd)


def slice_time(x: Tensor, start: int, stop: int) -> Tensor:
    """Slice the trailing (time) axis; gradient scatters back into place."""
    length = x.data.shape[-1]
    if not (0 <= start <= stop <= length):
        raise ValueError(f"slice_time [{start}:{stop}] out of range for length {length}")
    out = Tensor(x.data[..., start:stop])

    def bwd(g):
        gx = np.zeros_like(x.data)
        gx[..., start:stop] = g
        _accum(x, gx)

    return _record(out, (x,), bwd)


def swap_time_channels(x: Tensor) -> Tensor:
    """(B, C, T) <-> (B, T, C)."""
    out = Tensor(np.swapaxes(x.data, 1, 2))

    def bwd(g):
        _accum(x, np.swapaxes(g, 1, 2))

    return _record(out, (x,), bwd)


def reshape(x: Tensor, shape) -> Tensor:
    out = Tensor(x.data.reshape(shape))

    def bwd(g):
        _accum(x, g.reshape(x.data.shape))

    return _record(out, (x,), bwd)


# ---------------------------------------------------------------------------
# convolutions
# ---------------------------------------------------------------------------

def _im2col(x: np.ndarray, kernel: int, stride: int, frames: int) -> np.ndarray:
    """(B, C, T) -> (B, C*K, F) columns: cols[b, c*K + k, f] = x[b, c, f*stride + k].

    With K=1 and stride 1 this is ``x`` itself, not a copy.
    """
    batch, chans, _ = x.shape
    if kernel == 1 and stride == 1:
        return x[:, :, :frames]
    windows = sliding_window_view(x, kernel, axis=2)[:, :, : stride * frames : stride, :]
    return windows.transpose(0, 1, 3, 2).reshape(batch, chans * kernel, frames)


def _col2im(cols: np.ndarray, kernel: int, stride: int, length: int) -> np.ndarray:
    """Adjoint of _im2col: scatter-add (B, C*K, F) columns into (B, C, length)."""
    batch, rows, frames = cols.shape
    taps = cols.reshape(batch, rows // kernel, kernel, frames)
    if kernel == 1 and stride == 1 and length == frames:
        return taps[:, :, 0]
    out = np.zeros((batch, rows // kernel, length))
    for k in range(kernel):
        out[:, :, k : k + stride * frames : stride] += taps[:, :, k]
    return out


def _batch_outer(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """sum over n of a[n] @ b[n].T, for (N, P, F) and (N, Q, F) -> (P, Q).

    One 2-D GEMM per batch row: a batched matmul against a transposed
    operand followed by a sum over N is slower and allocates N outputs.
    """
    out = a[0] @ b[0].T
    for n in range(1, a.shape[0]):
        out += a[n] @ b[n].T
    return out


def conv1d(x: Tensor, weight: Tensor, bias: Tensor, stride: int) -> Tensor:
    """Valid (unpadded) strided correlation.

    x: (B, C_in, T), weight: (C_out, C_in, K), bias: (C_out,).
    Output: (B, C_out, F) with F = (T - K) // stride + 1.
    """
    batch, c_in, length = x.data.shape
    c_out, c_in_w, kernel = weight.data.shape
    if c_in != c_in_w:
        raise ValueError(f"conv1d channel mismatch: input {c_in}, weight {c_in_w}")
    if length < kernel:
        raise ValueError(f"conv1d input length {length} < kernel {kernel}")
    frames = (length - kernel) // stride + 1
    w2 = weight.data.reshape(c_out, c_in * kernel)
    out_data = w2 @ _im2col(x.data, kernel, stride, frames)
    out_data += bias.data[:, None]
    out = Tensor(out_data)

    def bwd(g):
        # Columns are rebuilt here rather than kept alive from the forward pass.
        cols = _im2col(x.data, kernel, stride, frames)
        _accum(weight, _batch_outer(g, cols).reshape(weight.data.shape))
        _accum(bias, g.sum(axis=(0, 2)))
        _accum(x, _col2im(w2.T @ g, kernel, stride, length))

    return _record(out, (x, weight, bias), bwd)


def conv_transpose1d(x: Tensor, weight: Tensor, bias: Tensor, stride: int) -> Tensor:
    """Adjoint of conv1d (fractionally strided convolution).

    x: (B, C_in, F), weight: (C_in, C_out, K), bias: (C_out,).
    Output: (B, C_out, T') with T' = (F - 1) * stride + K.
    """
    batch, c_in, frames = x.data.shape
    c_in_w, c_out, kernel = weight.data.shape
    if c_in != c_in_w:
        raise ValueError(f"conv_transpose1d channel mismatch: input {c_in}, weight {c_in_w}")
    length = (frames - 1) * stride + kernel
    w2 = weight.data.reshape(c_in, c_out * kernel)
    out_data = _col2im(w2.T @ x.data, kernel, stride, length)
    out_data += bias.data[:, None]
    out = Tensor(out_data)

    def bwd(g):
        g_cols = _im2col(g, kernel, stride, frames)
        _accum(x, w2 @ g_cols)
        _accum(weight, _batch_outer(x.data, g_cols).reshape(weight.data.shape))
        _accum(bias, g.sum(axis=(0, 2)))

    return _record(out, (x, weight, bias), bwd)


# ---------------------------------------------------------------------------
# LSTM (one layer; stack calls for multi-layer networks)
# ---------------------------------------------------------------------------

def lstm_layer(x: Tensor, w_ih: Tensor, w_hh: Tensor, bias: Tensor) -> Tensor:
    """Unidirectional LSTM layer, zero initial state.

    x: (B, T, C), w_ih: (4H, C), w_hh: (4H, H), bias: (4H,). Gate order along
    the 4H axis is input, forget, cell, output. Output: (B, T, H), where step
    t depends only on inputs at steps <= t. Backward is hand-rolled BPTT.
    """
    batch, steps, c_in = x.data.shape
    four_h, c_in_w = w_ih.data.shape
    hidden = four_h // 4
    if c_in != c_in_w:
        raise ValueError(f"lstm_layer input size {c_in} != weight input size {c_in_w}")
    if w_hh.data.shape != (four_h, hidden):
        raise ValueError("lstm_layer recurrent weight shape mismatch")

    # Input contribution for all steps at once; the loop only adds recurrence.
    pre = x.data @ w_ih.data.T + bias.data
    w_hh_t = w_hh.data.T
    # Gate activations as one affine-tanh-affine pass over all four gates:
    # sigmoid(z) = 0.5 + 0.5 * tanh(0.5 * z) for i, f, o; plain tanh for g.
    act_scale = np.full(four_h, 0.5)
    act_scale[2 * hidden : 3 * hidden] = 1.0
    act_shift = np.full(four_h, 0.5)
    act_shift[2 * hidden : 3 * hidden] = 0.0

    gates = np.empty((steps, batch, four_h))  # activated i, f, g, o per step
    quad = gates.reshape(steps, batch, 4, hidden)
    hs = np.zeros((steps + 1, batch, hidden))  # hs[t] = h_{t-1}
    cs = np.zeros((steps + 1, batch, hidden))
    tc = np.empty((steps, batch, hidden))  # tanh(c_t)
    for t in range(steps):
        a = gates[t]
        np.matmul(hs[t], w_hh_t, out=a)
        a += pre[:, t]
        a *= act_scale
        np.tanh(a, out=a)
        a *= act_scale
        a += act_shift
        i, f, g, o = quad[t].swapaxes(0, 1)
        c = np.multiply(f, cs[t], out=cs[t + 1])
        c += i * g
        np.tanh(c, out=tc[t])
        np.multiply(o, tc[t], out=hs[t + 1])
    out = Tensor(hs[1:].transpose(1, 0, 2))

    def bwd(grad_out):
        g_steps = grad_out.transpose(1, 0, 2)
        i, f, g, o = quad.transpose(2, 0, 1, 3)
        # Per-step factors that do not depend on the incoming gradients:
        # d a_{i,f,g} = dc * dc_gain[:, :, 0..2], d a_o = dh * o_gain, dc += dh * c_gain.
        dc_gain = np.empty((steps, batch, 3, hidden))
        np.multiply(g * i, 1.0 - i, out=dc_gain[:, :, 0])
        np.multiply(cs[:-1] * f, 1.0 - f, out=dc_gain[:, :, 1])
        np.multiply(i, 1.0 - g * g, out=dc_gain[:, :, 2])
        o_gain = tc * o * (1.0 - o)
        c_gain = o * (1.0 - tc * tc)

        da_all = np.empty((steps, batch, 4, hidden))
        da_rows = da_all.reshape(steps, batch, four_h)
        dh_next = np.zeros((batch, hidden))
        dc_next = np.zeros((batch, hidden))
        for t in range(steps - 1, -1, -1):
            dh = g_steps[t] + dh_next
            dc = dh * c_gain[t]
            dc += dc_next
            np.multiply(dc[:, None, :], dc_gain[t], out=da_all[t, :, :3])
            np.multiply(dh, o_gain[t], out=da_all[t, :, 3])
            dc_next = dc * f[t]
            dh_next = da_rows[t] @ w_hh.data
        # Weight gradients as single GEMMs over all (step, row) pairs.
        da_flat = da_all.reshape(steps * batch, four_h)
        x_steps = x.data.transpose(1, 0, 2).reshape(steps * batch, c_in)
        _accum(w_hh, da_flat.T @ hs[:-1].reshape(steps * batch, hidden))
        _accum(w_ih, da_flat.T @ x_steps)
        _accum(bias, da_flat.sum(axis=0))
        _accum(x, (da_flat @ w_ih.data).reshape(steps, batch, c_in).transpose(1, 0, 2))

    return _record(out, (x, w_ih, w_hh, bias), bwd)


# ---------------------------------------------------------------------------
# polyphase resampling (linear, fixed filter; differentiated via the adjoint)
# ---------------------------------------------------------------------------

_kernel_cache: dict[tuple[int, int, int], np.ndarray] = {}


def resample_kernel(up: int, down: int, zeros: int = 64) -> np.ndarray:
    """Hann-windowed sinc lowpass for a rational-rate polyphase resampler."""
    key = (up, down, zeros)
    cached = _kernel_cache.get(key)
    if cached is not None:
        return cached
    max_rate = max(up, down)
    cutoff = 1.0 / max_rate  # fraction of Nyquist at the upsampled rate
    half = zeros * max_rate
    n = np.arange(-half, half + 1)
    taps = 2 * half + 1
    window = 0.5 * (1.0 - np.cos(2.0 * np.pi * np.arange(taps) / (taps - 1)))
    h = cutoff * np.sinc(cutoff * n) * window
    # Exact unity DC gain per polyphase branch.
    for p in range(up):
        h[p::up] /= up * h[p::up].sum()
    _kernel_cache[key] = h
    return h


def _fft_convolve_full(x: np.ndarray, h: np.ndarray) -> np.ndarray:
    n_out = x.shape[-1] + h.shape[-1] - 1
    n_fft = 1 << (n_out - 1).bit_length()
    spec = np.fft.rfft(x, n_fft) * np.fft.rfft(h, n_fft)
    return np.fft.irfft(spec, n_fft)[..., :n_out]


def resample_array(x: np.ndarray, up: int, down: int, zeros: int = 64) -> np.ndarray:
    """Resample the last axis by up/down. Output length ceil(len*up/down)."""
    if up < 1 or down < 1:
        raise ValueError("up and down must be >= 1")
    g = np.gcd(up, down)
    up, down = up // g, down // g
    if up == down:
        return np.array(x, dtype=np.float64, copy=True)
    x = np.asarray(x, dtype=np.float64)
    h = resample_kernel(up, down, zeros)
    half = (h.shape[0] - 1) // 2
    length = x.shape[-1]
    if up > 1:
        stuffed = np.zeros(x.shape[:-1] + (length * up,))
        stuffed[..., ::up] = x
    else:
        stuffed = x
    full = _fft_convolve_full(stuffed, up * h)
    n_out = -(-length * up // down)  # ceil division
    idx = half + down * np.arange(n_out)
    return full[..., idx]


def resample_adjoint(g: np.ndarray, up: int, down: int, in_length: int, zeros: int = 64) -> np.ndarray:
    """Adjoint of resample_array for an input of length ``in_length``."""
    factor = np.gcd(up, down)
    up, down = up // factor, down // factor
    if up == down:
        return np.array(g, dtype=np.float64, copy=True)
    g = np.asarray(g, dtype=np.float64)
    h = resample_kernel(up, down, zeros)
    half = (h.shape[0] - 1) // 2
    full_len = in_length * up + h.shape[0] - 1
    scattered = np.zeros(g.shape[:-1] + (full_len,))
    idx = half + down * np.arange(g.shape[-1])
    scattered[..., idx] = g
    # Correlation with the kernel, valid part = adjoint of the cropped full convolution.
    corr = _fft_convolve_full(scattered, (up * h)[::-1])
    start = h.shape[0] - 1
    valid = corr[..., start : start + in_length * up]
    return valid[..., ::up]


def resample_time(x: Tensor, up: int, down: int) -> Tensor:
    """Differentiable rational resampling along the last axis."""
    in_length = x.data.shape[-1]
    out = Tensor(resample_array(x.data, up, down))

    def bwd(g):
        _accum(x, resample_adjoint(g, up, down, in_length))

    return _record(out, (x,), bwd)


# ---------------------------------------------------------------------------
# losses
# ---------------------------------------------------------------------------

def _as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def mae_loss(pred: Tensor, target) -> Tensor:
    """Mean absolute error over all samples; subgradient 0 at exact ties."""
    target = _as_tensor(target)
    diff = pred.data - target.data
    out = Tensor(np.mean(np.abs(diff)))
    sgn = np.sign(diff) / diff.size

    def bwd(g):
        _accum(pred, g * sgn)
        _accum(target, -g * sgn)

    return _record(out, (pred, target), bwd)


def mse_loss(pred: Tensor, target) -> Tensor:
    """Mean over the batch of squared L2 norms over time: (1/B) sum_i ||d_i||^2."""
    target = _as_tensor(target)
    diff = pred.data - target.data
    batch = diff.shape[0]
    out = Tensor(np.sum(diff * diff) / batch)

    def bwd(g):
        gd = g * 2.0 * diff / batch
        _accum(pred, gd)
        _accum(target, -gd)

    return _record(out, (pred, target), bwd)


# ---------------------------------------------------------------------------
# Adam
# ---------------------------------------------------------------------------

@dataclass
class AdamState:
    """Adam optimizer state: hyperparameters plus per-parameter moments."""

    step_size: float = 3e-4
    beta1: float = 0.9
    beta2: float = 0.999
    epsilon: float = 1e-8
    timestep: int = 0
    m: list = field(default_factory=list)
    v: list = field(default_factory=list)

    def ensure(self, params) -> None:
        if not self.m:
            self.m = [np.zeros_like(p.data) for p in params]
            self.v = [np.zeros_like(p.data) for p in params]
        for p, m in zip(params, self.m):
            if p.data.shape != m.shape:
                raise ValueError("AdamState moments do not match parameter shapes")


def adam_step(params, state: AdamState) -> None:
    """One in-place Adam update with bias correction. Missing grads count as zero."""
    state.ensure(params)
    state.timestep += 1
    t = state.timestep
    bc1 = 1.0 - state.beta1**t
    bc2 = 1.0 - state.beta2**t
    for p, m, v in zip(params, state.m, state.v):
        g = p.grad if p.grad is not None else np.zeros_like(p.data)
        m *= state.beta1
        m += (1.0 - state.beta1) * g
        v *= state.beta2
        v += (1.0 - state.beta2) * (g * g)
        p.data -= state.step_size * (m / bc1) / (np.sqrt(v / bc2) + state.epsilon)
