"""Reverse-mode automatic differentiation over numpy arrays.

Covers exactly the op set the waveform denoiser needs: 1-D (transposed)
convolutions, ReLU, GLU, a single LSTM layer, structural ops (add, scale,
time slicing, the channel/time swap, reshape), polyphase resampling, the two
training losses, and Adam.

Dtype follows the data: float32 arrays stay float32 through every op, and
anything else is computed in float64. Intermediate buffers take the dtype of
the op's inputs. A float32 model therefore trains and enhances in float32,
and a float64 one (the gradient checks) in float64; Adam keeps its
moments in the dtype of their parameter.

The graph is define-by-run: every op closes over what its backward pass
needs, and ``backward`` replays the closures in exact reverse creation
order, releasing each node as it goes. An op is recorded only if one of its
inputs requires a gradient, so constants (model inputs, loss targets) cost
nothing in backward.

A convolution applies the activation after it inside the op (``act=relu``
or ``act=glu``), with the bits of the two ops in a row but one graph node
that keeps only its output: ReLU runs in place in the convolution's output,
and GLU lets its pre-activation go. GLU's backward computes the
pre-activation again from the convolution's input, which the graph holds
anyway, and writes its input gradient over it. That costs one more GEMM
per GLU convolution and step (the model's are 1x1 projections) and frees
the largest buffers a training forward would otherwise keep. It needs the
weight and the input unchanged until that closure runs: no op writes over
another's output, and ``adam_step`` updates a parameter only after the
last closure that reads it.

A convolution's forward also keeps no whole-array product while it runs.
It computes its GEMM one tile of frames at a time, per batch row, into the
preallocated output: ``conv1d`` adds the bias and applies the activation to
each tile, and ``conv_transpose1d`` scatter-adds each tile's taps, tiles in
reverse order so that each sample sums its taps in ascending k, as on whole
arrays. GLU's backward fills its pre-activation with the same tiles. The
tile geometry (``CONV_TILE_BYTES``) gives the bits of the whole-array GEMM,
so the forward's outputs are those of one GEMM per batch row.

A training step is one call, ``adam_step(params, state, loss)``. It runs
``backward`` and hides Adam behind it: a parameter's gradient is final once
the last op that consumed the parameter has run its closure, which for the
decoder and the LSTM comes long before the walk ends. The step then hands
that parameter's update to a worker thread, which applies it while backward
goes on, and releases the gradient, so the step's gradients never all exist
at once. The worker lives only for the call: it is joined before
``adam_step`` returns, also when a closure raises. The large numpy and BLAS
calls on both threads release the GIL, so the two run at the same time.
"""
from __future__ import annotations

import itertools
from concurrent.futures import ThreadPoolExecutor
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

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, seq={self._seq})"


def _record(out: Tensor, parents: tuple[Tensor, ...], backward) -> Tensor:
    """Attach the backward closure, or make ``out`` a constant when graph
    recording is off or no parent requires a gradient.

    ``_accum`` drops a gradient for a constant parent; ``conv1d`` also skips
    computing the gradient a constant input would receive.
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


def backward(loss: Tensor, final=None) -> None:
    """Backpropagate from a scalar loss, filling ``.grad`` on the leaves it reaches.

    Leaves are tensors without a backward closure (parameters and inputs);
    they keep ``.grad``. The graph is consumed: once a node's closure has run,
    the node drops its gradient, its closure and its parents, so activations
    are freed during the walk instead of when the caller drops the loss. A
    graph can therefore be backpropagated once.

    ``final(leaf)``, if given, is called once for each leaf that requires a
    gradient and feeds a node of the graph, as soon as the closures of all
    the nodes it feeds have run: its ``.grad`` is then final, and nothing
    left in the walk reads its data.
    """
    if loss.data.size != 1:
        raise ValueError("backward expects a scalar loss")
    nodes: list[Tensor] = []
    consumers: dict[int, int] = {}  # id(leaf) -> nodes it feeds, per edge
    seen: set[int] = set()
    stack = [loss]
    while stack:
        t = stack.pop()
        if id(t) in seen:
            continue
        seen.add(id(t))
        nodes.append(t)
        stack.extend(t._parents)
        for p in t._parents:
            if p._backward is None and p.requires_grad:
                consumers[id(p)] = consumers.get(id(p), 0) + 1
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
        parents = t._parents
        t.grad = None
        t._backward = None
        t._parents = ()
        for p in parents:
            if id(p) in consumers:
                consumers[id(p)] -= 1
                if consumers[id(p)] == 0 and final is not None:
                    final(p)


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
    """max(x, 0). Backward reads its mask off the output, which is positive
    exactly where ``x`` is and which the next op holds anyway."""
    y = np.maximum(x.data, 0.0)
    out = Tensor(y)

    def bwd(g):
        _accum(x, _relu_grad(g, y), fresh=True)

    return _record(out, (x,), bwd)


def _relu_grad(g: np.ndarray, y: np.ndarray) -> np.ndarray:
    """ReLU's input gradient from its output gradient ``g`` and its output ``y``."""
    return g * (y > 0.0)


def _sigmoid(z: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """0.5 * (1 + tanh(z / 2)): cannot overflow for any z, no sign split.
    Allocates only the result, and nothing given ``out``."""
    s = np.multiply(z, 0.5, out=out)
    np.tanh(s, out=s)
    s += 1.0
    s *= 0.5
    return s


def glu(x: Tensor) -> Tensor:
    """Gated linear unit: split channels (axis 1) in half, out = first * sigmoid(second).

    The graph keeps ``x``, so backward recomputes the gate from it rather
    than keeping a copy."""
    out = Tensor(_glu(x.data))

    def bwd(g):
        _accum(x, _glu_grad(g, x.data, np.empty_like(x.data)), fresh=True)

    return _record(out, (x,), bwd)


def _glu(x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """GLU of an array, as ``glu``, into ``out`` if given; allocates at most
    the result."""
    n = x.shape[1]
    if n % 2 != 0:
        raise ValueError(f"glu needs an even channel count, got {n}")
    half = n // 2
    gated = _sigmoid(x[:, half:], out)
    gated *= x[:, :half]
    return gated


def _glu_grad(g: np.ndarray, x: np.ndarray, gx: np.ndarray) -> np.ndarray:
    """GLU's input gradient, written into and returned as ``gx``, which may be
    ``x`` itself: each half of ``x`` is read before its half of ``gx`` is
    written. The gate is the one temporary."""
    half = x.shape[1] // 2
    sb = _sigmoid(x[:, half:])
    gb = gx[:, half:]
    np.multiply(g, x[:, :half], out=gb)
    gb *= sb
    np.multiply(g, sb, out=gx[:, :half])
    np.subtract(1.0, sb, out=sb)
    gb *= sb
    return gx


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


def _col2im(
    cols: np.ndarray, kernel: int, stride: int, length: int, out: np.ndarray | None = None
) -> np.ndarray:
    """Adjoint of _im2col: scatter-add (B, C*K, F) columns into (B, C, length).

    Tap k of frame f lands on sample f*stride + k, and each sample sums its
    taps in ascending k. Given ``out``, whose first sample is that of frame
    0, the taps are added into it instead (``length`` is then unused).
    """
    batch, rows, frames = cols.shape
    taps = cols.reshape(batch, rows // kernel, kernel, frames)
    if out is None:
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


# A convolution's forward runs its GEMM one tile of frames at a time, per
# batch row, and finishes each tile (bias and activation, or the scatter of
# a transposed convolution's taps) before the next, so no whole-array product
# exists. A tile is a multiple of CONV_TILE_FRAMES frames that holds about
# CONV_TILE_BYTES of product (half a 2 MiB L2), but at least CONV_TILE_FRAMES
# frames and CONV_TILE_MACS multiply-adds; the last tile of a row takes the
# remainder, so none is shorter. That keeps the bits of the whole-array GEMM.
# Every output element is the same dot product, and a full block of 16 frames
# gets the same bits in any call. Only the frames past the last multiple of
# 16, which all fall in the last tile, depend on the size of the call:
# OpenBLAS 0.3.31 (SkylakeX kernels) runs a call of up to 1e6 multiply-adds
# with a small-matrix kernel, and in float64 it computes them otherwise when
# a thread's share of the call is 192 frames or fewer. So 64-frame tiles
# moved the float64 `paper` forward by 4e-20 (a 252-frame transposed
# convolution whose last tile had 124 frames), and these tiles kept its bits.
CONV_TILE_BYTES = 1 << 20
CONV_TILE_FRAMES = 512
CONV_TILE_MACS = 1 << 20


def _tile_frames(rows: int, depth: int, dtype) -> int:
    """Frames per tile of a convolution's GEMM that makes ``rows`` products
    of ``dtype`` per frame, each a dot product of length ``depth``."""
    by_bytes = CONV_TILE_BYTES // (rows * np.dtype(dtype).itemsize) // CONV_TILE_FRAMES
    by_macs = -(-CONV_TILE_MACS // (rows * depth * CONV_TILE_FRAMES))
    return max(1, by_bytes, by_macs) * CONV_TILE_FRAMES


def _tiles(batch: int, frames: int, rows: int, depth: int, dtype) -> list[tuple[int, int, int]]:
    """(row, start, stop) of each tile of a convolution's GEMM (see
    ``_tile_frames``), row by row in ascending frames."""
    step = _tile_frames(rows, depth, dtype)
    starts = [i * step for i in range(max(1, frames // step))]
    bounds = list(zip(starts, starts[1:] + [frames]))
    return [(b, f0, f1) for b in range(batch) for f0, f1 in bounds]


def _activate(act, y: np.ndarray, out: np.ndarray) -> None:
    """Write ``act`` (None, ``relu`` or ``glu``) of the pre-activation ``y``
    into ``out``. For None and ReLU ``out`` is ``y``, and ReLU runs in place;
    GLU writes half of ``y``'s channels."""
    if act is glu:
        _glu(y, out)
    elif act is relu:
        np.maximum(y, 0.0, out=out)


def _activation_grad(act, out: np.ndarray, pre):
    """The map from the gradient of a convolution's output ``out`` (after
    ``act``) to that of its pre-activation. ReLU masks by its output. GLU
    calls ``pre()``, which computes the whole pre-activation into a fresh
    buffer with the forward's tiles and so its bits, and writes the gradient
    over that buffer."""
    if act is glu:
        def glu_grad(g):
            y = pre()
            return _glu_grad(g, y, y)

        return glu_grad
    if act is relu:
        return lambda g: _relu_grad(g, out)
    if act is None:
        return lambda g: g
    raise ValueError(f"a convolution's activation is None, relu or glu, not {act!r}")


def conv1d(x: Tensor, weight: Tensor, bias: Tensor, stride: int, act=None) -> Tensor:
    """Valid (unpadded) strided correlation, then ``act`` (None, ``relu`` or
    ``glu``).

    x: (B, C_in, T), weight: (C_out, C_in, K), bias: (C_out,).
    Output: (B, C_out, F) with F = (T - K) // stride + 1, halved in channels
    by ``glu``. The bits are those of ``act(conv1d(x, weight, bias, stride))``
    on whole arrays, in one graph node that keeps no buffer beside its
    output. The forward runs GEMM, bias and activation tile by tile (see
    CONV_TILE_BYTES) into the output, so it allocates the output and one
    tile's columns and, for ``glu``, its product. With ``glu``, backward
    runs the same tiles again for the whole pre-activation.
    """
    batch, c_in, length = x.data.shape
    c_out, c_in_w, kernel = weight.data.shape
    if c_in != c_in_w:
        raise ValueError(f"conv1d channel mismatch: input {c_in}, weight {c_in_w}")
    if length < kernel:
        raise ValueError(f"conv1d input length {length} < kernel {kernel}")
    frames = (length - kernel) // stride + 1
    w2 = weight.data.reshape(c_out, c_in * kernel)
    dtype = np.result_type(x.data, w2)
    tiles = _tiles(batch, frames, c_out, c_in * kernel, dtype)

    def pre_tile(b, f0, f1, y):
        """The pre-activation of row ``b``'s frames [f0, f1), computed into ``y``."""
        np.matmul(w2, _im2col(x.data[b : b + 1, :, f0 * stride :], kernel, stride, f1 - f0), out=y)
        y += bias.data[:, None]
        return y

    def pre():
        y = np.empty((batch, c_out, frames), dtype)
        for b, f0, f1 in tiles:
            pre_tile(b, f0, f1, y[b : b + 1, :, f0:f1])
        return y

    out = Tensor(np.empty((batch, c_out // 2 if act is glu else c_out, frames), dtype))
    pre_grad = _activation_grad(act, out.data, pre)
    for b, f0, f1 in tiles:
        o = out.data[b : b + 1, :, f0:f1]
        y = np.empty((1, c_out, f1 - f0), dtype) if act is glu else o
        _activate(act, pre_tile(b, f0, f1, y), o)
        del y  # GLU's product goes before the next tile's is made

    def bwd(g):
        g = pre_grad(g)
        # Columns are rebuilt here rather than kept alive from the forward pass.
        cols = _im2col(x.data, kernel, stride, frames)
        _accum(weight, _batch_outer(g, cols).reshape(weight.data.shape), fresh=True)
        _accum(bias, g.sum(axis=(0, 2)), fresh=True)
        if x.requires_grad:  # the model input is a constant: skip the col2im
            _accum(x, _col2im(w2.T @ g, kernel, stride, length), fresh=True)

    return _record(out, (x, weight, bias), bwd)


def conv_transpose1d(x: Tensor, weight: Tensor, bias: Tensor, stride: int, act=None) -> Tensor:
    """Adjoint of conv1d (fractionally strided convolution), then ``act``, as
    in ``conv1d``.

    x: (B, C_in, F), weight: (C_in, C_out, K), bias: (C_out,).
    Output: (B, C_out, T') with T' = (F - 1) * stride + K.

    The forward runs the GEMM tile by tile over input frames (see
    CONV_TILE_BYTES) and scatter-adds each tile's taps into the output, so
    it allocates the output and one tile's taps. The tiles run in reverse
    order: a sample's taps from a later tile have smaller k, so each sample
    still sums its taps in ascending k, as ``_col2im`` sums them on whole
    arrays, and gets their bits. Bias and activation follow on the output.
    """
    batch, c_in, frames = x.data.shape
    c_in_w, c_out, kernel = weight.data.shape
    if c_in != c_in_w:
        raise ValueError(f"conv_transpose1d channel mismatch: input {c_in}, weight {c_in_w}")
    length = (frames - 1) * stride + kernel
    w2 = weight.data.reshape(c_in, c_out * kernel)
    dtype = np.result_type(x.data, w2)
    tiles = _tiles(batch, frames, c_out * kernel, c_in, dtype)

    def pre():
        y = np.zeros((batch, c_out, length), dtype)
        for b, f0, f1 in reversed(tiles):
            x_tile, y_tile = x.data[b : b + 1, :, f0:f1], y[b : b + 1, :, f0 * stride :]
            if kernel == 1 and stride == 1:  # the taps are the output, as in _col2im
                np.matmul(w2.T, x_tile, out=y_tile[:, :, : f1 - f0])
            else:
                _col2im(w2.T @ x_tile, kernel, stride, length, y_tile)
        y += bias.data[:, None]
        return y

    y = pre()
    out = Tensor(np.empty((batch, c_out // 2, length), dtype) if act is glu else y)
    pre_grad = _activation_grad(act, out.data, pre)
    _activate(act, y, out.data)

    def bwd(g):
        g = pre_grad(g)
        g_cols = _im2col(g, kernel, stride, frames)
        _accum(x, w2 @ g_cols, fresh=True)
        _accum(weight, _batch_outer(x.data, g_cols).reshape(weight.data.shape), fresh=True)
        _accum(bias, g.sum(axis=(0, 2)), fresh=True)

    return _record(out, (x, weight, bias), bwd)


# ---------------------------------------------------------------------------
# LSTM (one layer; stack calls for multi-layer networks)
# ---------------------------------------------------------------------------

# Bound on M*N*K of each per-step recurrence GEMM at batch >= 2. OpenBLAS
# 0.3.31 runs a GEMM of M*N*K up to about 9.1e5 (AVX-512 kernels, float32 and
# float64) with its small-matrix kernel, which reads the weight rows in place;
# one larger call packs the whole (4H, H) w_hh at every step and costs about
# twice as much at the paper preset's H=768. Blocks are whole multiples of
# a row granule, and a shape that would need blocks of fewer rows stays one
# call. The forward's granule is 64: at H=768 it stays one call from B=17,
# where 32-row blocks measured no faster than one call (and slower from
# B=24). The backward's is 32: at H=768 that splits B=5-8 into 32-row
# blocks of w_hh^T, about twice as fast per step as one call.
LSTM_BLOCK_MNK = 3 << 18


def _row_blocks(
    w: np.ndarray, out: np.ndarray, granule: int = 64
) -> list[tuple[np.ndarray, np.ndarray]]:
    """Row blocks ``(w[r:s], out[r:s])`` so that ``np.matmul(w[r:s], v,
    out=out[r:s])`` over all blocks computes ``out = w @ v`` for ``v`` of
    shape (K, N). Every block but the last has the same rows: the most that
    keep M*N*K within LSTM_BLOCK_MNK, rounded down to a multiple of
    ``granule``. At N=1, when that is 0, or when it covers all rows, the
    one block is the whole of ``w``."""
    m, k = w.shape
    n = out.shape[1]
    rows = LSTM_BLOCK_MNK // (n * k) // granule * granule
    if n < 2 or rows == 0:
        rows = m
    return [(w[r : r + rows], out[r : r + rows]) for r in range(0, m, rows)]


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
    # The recurrence is w_hh @ h^T into a contiguous (4H, B) buffer, one GEMM
    # per row block (_row_blocks). At B=1, and whenever one block holds all 4H
    # rows (every tiny-preset shape), that is the single call w_hh @ h^T. More
    # blocks sum the same dot products in another order than one packed call:
    # at the paper shapes the output moved by at most 1.7e-7 of its largest
    # value in float32 and 4e-16 in float64 (the README states the tolerance).
    rec = np.empty((four_h, batch), dtype=dtype)
    rec_blocks = _row_blocks(w_hh.data, rec)
    for t in range(steps):
        a = gates[t]
        h_t = hs[t].T
        for w_block, rec_block in rec_blocks:
            np.matmul(w_block, h_t, out=rec_block)
        np.add(rec.T, pre[:, t], out=a)
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
        # dh_{t-1} = da_t @ w_hh, in row blocks of dh^T = w_hh^T @ da^T when
        # the shape needs more than one; w_hh^T is copied once, in 64-row
        # stripes of w_hh, which is about 4x faster than w_hh.T.copy().
        dh_cols = np.empty((hidden, batch), dtype=dtype)
        dh_blocks = _row_blocks(w_hh.data.T, dh_cols, 32)
        if len(dh_blocks) > 1:
            w_hh_t = np.empty((hidden, four_h), dtype=dtype)
            for r in range(0, four_h, 64):
                w_hh_t[:, r : r + 64] = w_hh.data[r : r + 64].T
            dh_blocks = _row_blocks(w_hh_t, dh_cols, 32)
        for t in range(steps - 1, -1, -1):
            dh = g_steps[t] + dh_next
            dc = dh * c_gain[t]
            dc += dc_next
            np.multiply(dc[:, None, :], dc_gain[t], out=da_all[t, :, :3])
            np.multiply(dh, o_gain[t], out=da_all[t, :, 3])
            dc_next = dc * f[t]
            if len(dh_blocks) == 1:
                dh_next = da_rows[t] @ w_hh.data
            else:
                da_t = da_rows[t].T
                for w_block, dh_block in dh_blocks:
                    np.matmul(w_block, da_t, out=dh_block)
                dh_next = dh_cols.T
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

# Zero crossings of the windowed sinc on each side of its centre.
RESAMPLE_ZEROS = 64

_kernel_cache: dict[tuple[int, int], np.ndarray] = {}


def resample_kernel(up: int, down: int) -> np.ndarray:
    """Hann-windowed sinc lowpass for a rational-rate polyphase resampler."""
    key = (up, down)
    cached = _kernel_cache.get(key)
    if cached is not None:
        return cached
    max_rate = max(up, down)
    cutoff = 1.0 / max_rate  # fraction of Nyquist at the upsampled rate
    half = RESAMPLE_ZEROS * max_rate
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


def resample_array(x: np.ndarray, up: int, down: int) -> np.ndarray:
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
    h = resample_kernel(up, down)
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


def resample_adjoint(g: np.ndarray, up: int, down: int, in_length: int) -> np.ndarray:
    """Adjoint of resample_array for an input of length ``in_length``, in
    ``g``'s dtype as resample_array would compute it."""
    factor = np.gcd(up, down)
    up, down = up // factor, down // factor
    g = _float(g)
    if up == down:
        return g.copy()
    h = resample_kernel(up, down)
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

def mae_loss(pred: Tensor, target) -> Tensor:
    """Mean absolute error over all samples; subgradient 0 at exact ties.

    The target is a constant array: only ``pred`` gets a gradient.
    """
    diff = pred.data - _float(target)
    out = Tensor(np.mean(np.abs(diff)))
    sgn = np.sign(diff) / diff.size

    def bwd(g):
        _accum(pred, g * sgn, fresh=True)

    return _record(out, (pred,), bwd)


def mse_loss(pred: Tensor, target) -> Tensor:
    """Mean over the batch of squared L2 norms over time: (1/B) sum_i ||d_i||^2.

    The target is a constant array: only ``pred`` gets a gradient.
    """
    diff = pred.data - _float(target)
    batch = diff.shape[0]
    out = Tensor(np.sum(diff * diff) / batch)

    def bwd(g):
        _accum(pred, g * 2.0 * diff / batch, fresh=True)

    return _record(out, (pred,), bwd)


# ---------------------------------------------------------------------------
# Adam
# ---------------------------------------------------------------------------

# Elements per block of the Adam update: 256 KiB of float64 (128 KiB of
# float32), so the blocks of p, m, v, the gradient and the two scratch
# buffers fit in a core's cache together.
ADAM_BLOCK = 1 << 15
# Adam's fixed hyperparameters (Kingma & Ba's defaults); only the step size is set.
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPSILON = 1e-8


@dataclass
class AdamState:
    """Adam optimizer state: the step size plus per-parameter moments.

    Each parameter's moments ``m`` and ``v`` have its dtype and shape, and
    Adam updates the parameter itself: a float32 model keeps float32
    moments and no wider copy of its weights. A parameter's moments are
    made at its first update, by the thread that applies it; until then its
    ``m`` entry is ``None``.
    """

    step_size: float = 3e-4
    timestep: int = 0
    m: list = field(default_factory=list)
    v: list = field(default_factory=list)

    def ensure(self, params) -> None:
        if not self.m:
            self.m, self.v = [None] * len(params), [None] * len(params)
        for p, m in zip(params, self.m):
            if m is not None and p.data.shape != m.shape:
                raise ValueError("AdamState moments do not match parameter shapes")


def _adam_update(p: Tensor, state: AdamState, i: int, bc1: float, bc2: float, scratch) -> None:
    """Apply the Adam update to ``p``, parameter ``i`` of ``state``, block by block."""
    if state.m[i] is None:
        state.m[i], state.v[i] = np.zeros_like(p.data), np.zeros_like(p.data)
    m, v = state.m[i], state.v[i]
    if not (p.data.flags.c_contiguous and m.flags.c_contiguous and v.flags.c_contiguous):
        raise ValueError("adam_step needs C-contiguous parameters and moments")
    s1, s2 = scratch[p.data.dtype]
    p_flat, m_flat, v_flat = p.data.reshape(-1), m.reshape(-1), v.reshape(-1)
    g_flat = np.zeros_like(p_flat) if p.grad is None else np.ravel(p.grad)
    for lo in range(0, p_flat.size, ADAM_BLOCK):
        hi = min(lo + ADAM_BLOCK, p_flat.size)
        a, b = s1[: hi - lo], s2[: hi - lo]
        g, mb, vb = g_flat[lo:hi], m_flat[lo:hi], v_flat[lo:hi]
        mb *= ADAM_BETA1
        np.multiply(1.0 - ADAM_BETA1, g, out=a)
        mb += a
        vb *= ADAM_BETA2
        np.multiply(g, g, out=a)
        a *= 1.0 - ADAM_BETA2
        vb += a
        np.divide(mb, bc1, out=a)
        a *= state.step_size
        np.divide(vb, bc2, out=b)
        np.sqrt(b, out=b)
        b += ADAM_EPSILON
        a /= b
        p_flat[lo:hi] -= a


def adam_step(params, state: AdamState, loss: Tensor | None = None) -> None:
    """One in-place Adam update with bias correction. Missing grads count as zero.

    Each parameter is updated in blocks of ``ADAM_BLOCK`` elements through
    scratch buffers. Per element the operations and their order are those of

        m = beta1 * m + (1 - beta1) * g
        v = beta2 * v + (1 - beta2) * (g * g)
        w -= step_size * (m / bc1) / (sqrt(v / bc2) + epsilon)

    with beta1, beta2 and epsilon the ``ADAM_*`` constants, so the result is
    bit-identical to evaluating it on whole arrays in the parameter's
    dtype, with far less memory traffic. ``w`` is the parameter itself, and
    the moments, the scratch buffers and the gradient share its dtype, so a
    float32 parameter is updated in float32 arithmetic. Parameters and
    moments must be C-contiguous, because the update writes through flat
    views of them.

    The updates run on one worker thread, started and joined within the
    call. Given ``loss``, the step first backpropagates it with ``backward``
    and hands each parameter to the worker as soon as its gradient is final,
    so the update overlaps the rest of the walk; it then releases
    (``grad = None``) each gradient it computed, once applied. A gradient the
    caller had set before the call is kept. Without ``loss`` every gradient
    is final already; the worker applies them all and keeps them. The result
    does not depend on the order: each update reads and writes only its own
    parameter's arrays. If backward raises, the updates not yet begun are
    dropped and the error propagates once the worker has stopped.
    """
    state.ensure(params)
    state.timestep += 1
    bc1 = 1.0 - ADAM_BETA1**state.timestep
    bc2 = 1.0 - ADAM_BETA2**state.timestep
    size = min(ADAM_BLOCK, max((p.data.size for p in params), default=0))
    dtypes = {p.data.dtype for p in params}
    scratch = {dt: (np.empty(size, dt), np.empty(size, dt)) for dt in dtypes}
    release = [loss is not None and p.grad is None for p in params]
    waiting = {id(p): i for i, p in enumerate(params)}

    def update(i):
        _adam_update(params[i], state, i, bc1, bc2, scratch)
        if release[i]:
            params[i].grad = None

    futures = []
    with ThreadPoolExecutor(max_workers=1) as worker:

        def submit(p):
            i = waiting.pop(id(p), None)
            if i is not None:
                futures.append(worker.submit(update, i))

        if loss is not None:
            try:
                backward(loss, final=submit)
            except BaseException:
                worker.shutdown(cancel_futures=True)
                raise
        for p in params:  # those the graph did not reach, or all without loss
            submit(p)
    for future in futures:
        future.result()
