"""Reverse-mode automatic differentiation over numpy arrays.

Covers exactly the op set the waveform denoiser needs: 1-D (transposed)
convolutions, pointwise nonlinearities, GLU, a single LSTM layer, structural
ops, polyphase resampling, the two training losses, and Adam.

Dtype follows the data: float32 arrays stay float32 through every op, and
anything else is computed in float64 (training, Adam and the gradient checks
run in float64; no-grad enhancement runs in float32). Intermediate buffers
take the dtype of the op's inputs.

The graph is define-by-run: every op closes over what its backward pass
needs, and ``backward`` replays the closures in exact reverse creation
order, releasing each node as it goes. An op is recorded only if one of its
inputs requires a gradient, so constants (model inputs, loss targets) cost
nothing in backward.
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


def _float(x) -> np.ndarray:
    """``x`` as an array: float32 stays float32, anything else becomes float64."""
    x = np.asarray(x)
    return x if x.dtype == np.float32 else x.astype(np.float64, copy=False)


class Tensor:
    """A float32 or float64 array plus the closure that backpropagates into
    its parents.

    The data keeps a float32 dtype and casts anything else to float64.
    ``grad`` has the dtype of the data; it starts as the first contribution
    (a copy, unless the op allocated it for this tensor alone) and
    accumulates later ones with ``+=``, so fan-out (a tensor consumed by
    several ops) sums them.

    ``requires_grad=False`` makes a constant: no gradient flows into it, and
    an op whose inputs are all constants is not recorded (its output is a
    constant too).
    """

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward", "_seq")

    def __init__(self, data, requires_grad: bool = True):
        self.data = _float(data)
        self.requires_grad = requires_grad
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
    """Attach the backward closure, or make ``out`` a constant when graph
    recording is off or no parent requires a gradient.

    ``_accum`` drops a gradient for a constant parent; ``conv1d`` and the
    losses also skip computing the gradients a constant input or target
    would receive.
    """
    if _grad_enabled.get() and any(p.requires_grad for p in parents):
        out._parents = parents
        out._backward = backward
    else:
        out.requires_grad = False
    return out


def _accum(t: Tensor, g: np.ndarray, fresh: bool = False) -> None:
    """Add ``g`` into ``t.grad``.

    ``fresh`` means the op allocated ``g`` for ``t`` alone, so a C-contiguous
    ``g`` of ``t``'s dtype becomes ``t.grad`` without a copy. Anything else is
    copied first: ``add`` hands one array to two parents, and a view would
    pin (or, once ``+=`` lands, write into) the array it was taken from.
    A constant (``requires_grad=False``) gets no gradient.
    """
    if not t.requires_grad:
        return
    if t.grad is None:
        if fresh and g.dtype == t.data.dtype and g.flags.c_contiguous:
            t.grad = g
        else:
            t.grad = np.array(g, dtype=t.data.dtype, order="C")
    else:
        t.grad += g


def backward(loss: Tensor) -> None:
    """Backpropagate from a scalar loss, filling ``.grad`` on the leaves it reaches.

    Leaves are tensors without a backward closure (parameters and inputs);
    they keep ``.grad``. The graph is consumed: once a node's closure has run,
    the node drops its gradient, its closure and its parents, so activations
    are freed during the walk instead of when the caller drops the loss. A
    graph can therefore be backpropagated once.
    """
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
    # Creation order is execution order, so popping the highest ``_seq`` first
    # is exact reverse execution order. A popped node's children have all run.
    nodes.sort(key=lambda t: t._seq)
    loss.grad = np.ones_like(loss.data)
    while nodes:
        t = nodes.pop()
        if t._backward is None:
            continue
        if t.grad is not None:
            t._backward(t.grad)
        t.grad = None
        t._backward = None
        t._parents = ()


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
        _accum(b, -g, fresh=True)

    return _record(out, (a, b), bwd)


def scale(x: Tensor, c) -> Tensor:
    """Multiply by a constant scalar or constant array (e.g. per-row gains).

    ``c`` is not differentiated through; it is cast to ``x``'s dtype.
    """
    c = np.asarray(c, dtype=x.data.dtype)
    out = Tensor(x.data * c)

    def bwd(g):
        _accum(x, g * c, fresh=True)

    return _record(out, (x,), bwd)


def relu(x: Tensor) -> Tensor:
    out = Tensor(np.maximum(x.data, 0.0))
    mask = x.data > 0.0

    def bwd(g):
        _accum(x, g * mask, fresh=True)

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
        _accum(x, g * s * (1.0 - s), fresh=True)

    return _record(out, (x,), bwd)


def tanh(x: Tensor) -> Tensor:
    t = np.tanh(x.data)
    out = Tensor(t)

    def bwd(g):
        _accum(x, g * (1.0 - t * t), fresh=True)

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
        _accum(x, gx, fresh=True)

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
        _accum(x, gx, fresh=True)

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
    out = np.zeros((batch, rows // kernel, length), dtype=cols.dtype)
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
        _accum(weight, _batch_outer(g, cols).reshape(weight.data.shape), fresh=True)
        _accum(bias, g.sum(axis=(0, 2)), fresh=True)
        if x.requires_grad:  # the model input is a constant: skip the col2im
            _accum(x, _col2im(w2.T @ g, kernel, stride, length), fresh=True)

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
        _accum(x, w2 @ g_cols, fresh=True)
        _accum(weight, _batch_outer(x.data, g_cols).reshape(weight.data.shape), fresh=True)
        _accum(bias, g.sum(axis=(0, 2)), fresh=True)

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
    dtype = pre.dtype
    w_hh_t = w_hh.data.T
    # Gate activations as one affine-tanh-affine pass over all four gates:
    # sigmoid(z) = 0.5 + 0.5 * tanh(0.5 * z) for i, f, o; plain tanh for g.
    act_scale = np.full(four_h, 0.5, dtype=dtype)
    act_scale[2 * hidden : 3 * hidden] = 1.0
    act_shift = np.full(four_h, 0.5, dtype=dtype)
    act_shift[2 * hidden : 3 * hidden] = 0.0

    gates = np.empty((steps, batch, four_h), dtype=dtype)  # activated i, f, g, o per step
    quad = gates.reshape(steps, batch, 4, hidden)
    hs = np.zeros((steps + 1, batch, hidden), dtype=dtype)  # hs[t] = h_{t-1}
    cs = np.zeros((steps + 1, batch, hidden), dtype=dtype)
    tc = np.empty((steps, batch, hidden), dtype=dtype)  # tanh(c_t)
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
        dc_gain = np.empty((steps, batch, 3, hidden), dtype=dtype)
        np.multiply(g * i, 1.0 - i, out=dc_gain[:, :, 0])
        np.multiply(cs[:-1] * f, 1.0 - f, out=dc_gain[:, :, 1])
        np.multiply(i, 1.0 - g * g, out=dc_gain[:, :, 2])
        o_gain = tc * o * (1.0 - o)
        c_gain = o * (1.0 - tc * tc)

        da_all = np.empty((steps, batch, 4, hidden), dtype=dtype)
        da_rows = da_all.reshape(steps, batch, four_h)
        dh_next = np.zeros((batch, hidden), dtype=dtype)
        dc_next = np.zeros((batch, hidden), dtype=dtype)
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
        _accum(w_hh, da_flat.T @ hs[:-1].reshape(steps * batch, hidden), fresh=True)
        _accum(w_ih, da_flat.T @ x_steps, fresh=True)
        _accum(bias, da_flat.sum(axis=0), fresh=True)
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
    """Resample the last axis by up/down. Output length ceil(len*up/down).

    float32 input is resampled in float32, anything else in float64.
    """
    if up < 1 or down < 1:
        raise ValueError("up and down must be >= 1")
    g = np.gcd(up, down)
    up, down = up // g, down // g
    x = _float(x)
    if up == down:
        return x.copy()
    h = resample_kernel(up, down, zeros)
    half = (h.shape[0] - 1) // 2
    length = x.shape[-1]
    if up > 1:
        stuffed = np.zeros(x.shape[:-1] + (length * up,), dtype=x.dtype)
        stuffed[..., ::up] = x
    else:
        stuffed = x
    full = _fft_convolve_full(stuffed, (up * h).astype(x.dtype, copy=False))
    n_out = -(-length * up // down)  # ceil division
    idx = half + down * np.arange(n_out)
    return full[..., idx]


def resample_adjoint(g: np.ndarray, up: int, down: int, in_length: int, zeros: int = 64) -> np.ndarray:
    """Adjoint of resample_array for an input of length ``in_length``, in
    ``g``'s dtype as resample_array would compute it."""
    factor = np.gcd(up, down)
    up, down = up // factor, down // factor
    g = _float(g)
    if up == down:
        return g.copy()
    h = resample_kernel(up, down, zeros)
    half = (h.shape[0] - 1) // 2
    full_len = in_length * up + h.shape[0] - 1
    scattered = np.zeros(g.shape[:-1] + (full_len,), dtype=g.dtype)
    idx = half + down * np.arange(g.shape[-1])
    scattered[..., idx] = g
    # Correlation with the kernel, valid part = adjoint of the cropped full convolution.
    corr = _fft_convolve_full(scattered, (up * h)[::-1].astype(g.dtype, copy=False))
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
    """A Tensor as it is; an array as a constant."""
    return x if isinstance(x, Tensor) else Tensor(x, requires_grad=False)


def mae_loss(pred: Tensor, target) -> Tensor:
    """Mean absolute error over all samples; subgradient 0 at exact ties."""
    target = _as_tensor(target)
    diff = pred.data - target.data
    out = Tensor(np.mean(np.abs(diff)))
    sgn = np.sign(diff) / diff.size

    def bwd(g):
        _accum(pred, g * sgn, fresh=True)
        if target.requires_grad:
            _accum(target, -g * sgn, fresh=True)

    return _record(out, (pred, target), bwd)


def mse_loss(pred: Tensor, target) -> Tensor:
    """Mean over the batch of squared L2 norms over time: (1/B) sum_i ||d_i||^2."""
    target = _as_tensor(target)
    diff = pred.data - target.data
    batch = diff.shape[0]
    out = Tensor(np.sum(diff * diff) / batch)

    def bwd(g):
        gd = g * 2.0 * diff / batch
        _accum(pred, gd, fresh=True)
        if target.requires_grad:
            _accum(target, -gd, fresh=True)

    return _record(out, (pred, target), bwd)


# ---------------------------------------------------------------------------
# Adam
# ---------------------------------------------------------------------------

# Elements per block of the Adam update: 256 KiB of float64, so the blocks of
# p, m, v, the gradient and two scratch buffers fit in a core's cache together.
ADAM_BLOCK = 1 << 15


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
            self.m = [np.zeros(p.data.shape) for p in params]
            self.v = [np.zeros(p.data.shape) for p in params]
        for p, m in zip(params, self.m):
            if p.data.shape != m.shape:
                raise ValueError("AdamState moments do not match parameter shapes")


def adam_step(params, state: AdamState) -> None:
    """One in-place Adam update with bias correction. Missing grads count as zero.

    Each parameter is updated in blocks of ``ADAM_BLOCK`` elements through two
    scratch buffers. Per element the operations and their order are those of

        m = beta1 * m + (1 - beta1) * g
        v = beta2 * v + (1 - beta2) * (g * g)
        p -= step_size * (m / bc1) / (sqrt(v / bc2) + epsilon)

    so the result is bit-identical to evaluating it on whole arrays, with far
    less memory traffic. Parameters and moments must be C-contiguous, because
    the update writes through flat views of them.
    """
    state.ensure(params)
    state.timestep += 1
    t = state.timestep
    beta1, beta2 = state.beta1, state.beta2
    bc1 = 1.0 - beta1**t
    bc2 = 1.0 - beta2**t
    size = min(ADAM_BLOCK, max((p.data.size for p in params), default=0))
    s1, s2 = np.empty(size), np.empty(size)
    for p, m, v in zip(params, state.m, state.v):
        if not (p.data.flags.c_contiguous and m.flags.c_contiguous and v.flags.c_contiguous):
            raise ValueError("adam_step needs C-contiguous parameters and moments")
        p_flat, m_flat, v_flat = p.data.reshape(-1), m.reshape(-1), v.reshape(-1)
        g_flat = np.zeros(p_flat.size) if p.grad is None else np.ravel(p.grad)
        for lo in range(0, p_flat.size, ADAM_BLOCK):
            hi = min(lo + ADAM_BLOCK, p_flat.size)
            a, b = s1[: hi - lo], s2[: hi - lo]
            g, mb, vb = g_flat[lo:hi], m_flat[lo:hi], v_flat[lo:hi]
            mb *= beta1
            np.multiply(1.0 - beta1, g, out=a)
            mb += a
            vb *= beta2
            np.multiply(g, g, out=a)
            a *= 1.0 - beta2
            vb += a
            np.divide(mb, bc1, out=a)
            a *= state.step_size
            np.divide(vb, bc2, out=b)
            np.sqrt(b, out=b)
            b += state.epsilon
            a /= b
            p_flat[lo:hi] -= a
