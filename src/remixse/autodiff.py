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

    ``grad`` is lazily zero-initialized and accumulated with ``+=`` so fan-out
    (a tensor consumed by several ops) sums contributions.
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
        t.grad = np.zeros_like(t.data)
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
    # Split by sign to avoid overflow in exp for large |z|.
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


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
    a = np.take(x.data, range(half), axis=axis)
    b = np.take(x.data, range(half, n), axis=axis)
    sb = _sigmoid(b)
    out = Tensor(a * sb)

    def bwd(g):
        ga = g * sb
        gb = g * a * sb * (1.0 - sb)
        _accum(x, np.concatenate([ga, gb], axis=axis))

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
    windows = sliding_window_view(x.data, kernel, axis=2)[:, :, ::stride, :]
    frames = windows.shape[2]
    out_data = np.einsum("bcfk,ock->bof", windows, weight.data, optimize=True)
    out_data += bias.data[:, None]
    out = Tensor(out_data)

    def bwd(g):
        _accum(weight, np.einsum("bof,bcfk->ock", g, windows, optimize=True))
        _accum(bias, g.sum(axis=(0, 2)))
        per_window = np.einsum("bof,ock->bcfk", g, weight.data, optimize=True)
        gx = np.zeros_like(x.data)
        for k in range(kernel):
            gx[:, :, k : k + stride * frames : stride] += per_window[:, :, :, k]
        _accum(x, gx)

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
    per_window = np.einsum("bif,iok->bofk", x.data, weight.data, optimize=True)
    out_data = np.zeros((batch, c_out, length))
    for k in range(kernel):
        out_data[:, :, k : k + stride * frames : stride] += per_window[:, :, :, k]
    out_data += bias.data[:, None]
    out = Tensor(out_data)

    def bwd(g):
        g_windows = sliding_window_view(g, kernel, axis=2)[:, :, ::stride, :]
        _accum(x, np.einsum("bofk,iok->bif", g_windows, weight.data, optimize=True))
        _accum(weight, np.einsum("bif,bofk->iok", x.data, g_windows, optimize=True))
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

    h = np.zeros((batch, hidden))
    c = np.zeros((batch, hidden))
    hs = np.zeros((steps + 1, batch, hidden))  # hs[t] = h_{t-1}
    cs = np.zeros((steps + 1, batch, hidden))
    gi = np.empty((steps, batch, hidden))
    gf = np.empty((steps, batch, hidden))
    gc = np.empty((steps, batch, hidden))
    go = np.empty((steps, batch, hidden))
    tc = np.empty((steps, batch, hidden))  # tanh(c_t)
    for t in range(steps):
        a = pre[:, t] + h @ w_hh.data.T
        i = _sigmoid(a[:, :hidden])
        f = _sigmoid(a[:, hidden : 2 * hidden])
        g = np.tanh(a[:, 2 * hidden : 3 * hidden])
        o = _sigmoid(a[:, 3 * hidden :])
        c = f * c + i * g
        hc = np.tanh(c)
        h = o * hc
        gi[t], gf[t], gc[t], go[t], tc[t] = i, f, g, o, hc
        hs[t + 1] = h
        cs[t + 1] = c
    out = Tensor(hs[1:].transpose(1, 0, 2))

    def bwd(grad_out):
        g_steps = grad_out.transpose(1, 0, 2)
        dh_next = np.zeros((batch, hidden))
        dc_next = np.zeros((batch, hidden))
        da_all = np.empty((steps, batch, 4 * hidden))
        d_whh = np.zeros_like(w_hh.data)
        for t in range(steps - 1, -1, -1):
            dh = g_steps[t] + dh_next
            do = dh * tc[t]
            dc = dc_next + dh * go[t] * (1.0 - tc[t] * tc[t])
            di = dc * gc[t]
            dg = dc * gi[t]
            df = dc * cs[t]
            dc_next = dc * gf[t]
            da = da_all[t]
            da[:, :hidden] = di * gi[t] * (1.0 - gi[t])
            da[:, hidden : 2 * hidden] = df * gf[t] * (1.0 - gf[t])
            da[:, 2 * hidden : 3 * hidden] = dg * (1.0 - gc[t] * gc[t])
            da[:, 3 * hidden :] = do * go[t] * (1.0 - go[t])
            dh_next = da @ w_hh.data
            d_whh += da.T @ hs[t]
        _accum(w_hh, d_whh)
        _accum(w_ih, np.einsum("tbh,btc->hc", da_all, x.data, optimize=True))
        _accum(bias, da_all.sum(axis=(0, 1)))
        _accum(x, da_all.transpose(1, 0, 2) @ w_ih.data)

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
