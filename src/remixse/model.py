"""Causal encoder/decoder U-net waveform denoiser, EMA combination, and
bit-exact checkpointing.

The network operates on (B, M) sample batches: per-row std normalization,
right zero-padding to a valid length, optional upsampling, L strided
encoder layers, a two-layer unidirectional LSTM bottleneck, L transposed-
convolution decoder layers with additive skip connections, downsampling,
and trimming back to M. The noise estimate is input minus speech estimate.

A ``Checkpoint`` carries a model, stored as float32 and loaded back exactly.
"""
from __future__ import annotations

import hashlib
import json
import math
import os
import zlib
from dataclasses import asdict, dataclass, fields

import numpy as np

from . import autodiff as ad
from .audio import DEFAULT_SAMPLE_RATE
from .errors import ConfigMismatch, CorruptHeader, VersionMismatch
from .fileio import atomic_open, open_input

CHECKPOINT_MAGIC = b"RMXSE1"
SIGMA_FLOOR = 1e-3
LSTM_LAYERS = 2
# Config fields older checkpoint headers carry, with the only value each took.
_LEGACY_CONFIG = {"lstm_layers": LSTM_LAYERS, "causal": True}


@dataclass(frozen=True)
class ModelConfig:
    """Architecture hyperparameters.

    depth: number of encoder/decoder layers; hidden: channels after the first
    encoder layer (doubling per layer); kernel_size/stride: strided conv
    geometry; resample: integer up/down factor around the network.
    """

    depth: int = 2
    hidden: int = 4
    kernel_size: int = 8
    stride: int = 4
    resample: int = 1

    def __post_init__(self):
        if self.depth < 1 or self.hidden < 1:
            raise ValueError("depth and hidden must be >= 1")
        if not (self.kernel_size >= self.stride >= 1):
            raise ValueError("require kernel_size >= stride >= 1")
        if self.resample < 1:
            raise ValueError("resample factor must be >= 1")

    def encoder_channels(self, i: int) -> int:
        """Output channels of encoder layer i (1-based)."""
        return 2 ** (i - 1) * self.hidden

    @property
    def bottleneck_channels(self) -> int:
        return 2 ** (self.depth - 1) * self.hidden


TINY_CONFIG = ModelConfig(depth=2, hidden=4, kernel_size=8, stride=4, resample=1)
PAPER_CONFIG = ModelConfig(depth=5, hidden=48, kernel_size=8, stride=4, resample=4)


def output_length(config: ModelConfig, m: int) -> int:
    """Length produced by the pipeline for an input of m samples (0 if the
    encoder would run out of samples)."""
    u, k, s = config.resample, config.kernel_size, config.stride
    t = math.ceil(m * u)
    for _ in range(config.depth):
        if t < k:
            return 0
        t = (t - k) // s + 1
    for _ in range(config.depth):
        t = (t - 1) * s + k
    return math.ceil(t / u)


def valid_length(config: ModelConfig, m: int) -> int:
    """Smallest padded length >= m whose pipeline output is >= m samples."""
    if m < 1:
        raise ValueError("length must be >= 1")
    candidate = m
    while output_length(config, candidate) < m:
        candidate += 1
    return candidate


def _uniform(rng: np.random.Generator, shape, fan_in: int) -> np.ndarray:
    bound = math.sqrt(1.0 / fan_in)
    return rng.uniform(-bound, bound, size=shape)


def _parameter_spec(config: ModelConfig):
    """Yield (name, shape, fan_in_or_None) in declaration order.

    fan_in None means zero-initialized (biases).
    """
    k = config.kernel_size
    h = config.bottleneck_channels
    c_prev = 1
    for i in range(1, config.depth + 1):
        ch = config.encoder_channels(i)
        yield f"enc{i}.conv.w", (ch, c_prev, k), c_prev * k
        yield f"enc{i}.conv.b", (ch,), None
        yield f"enc{i}.proj.w", (2 * ch, ch, 1), ch
        yield f"enc{i}.proj.b", (2 * ch,), None
        c_prev = ch
    for layer in range(LSTM_LAYERS):
        yield f"lstm{layer}.w_ih", (4 * h, h), h
        yield f"lstm{layer}.w_hh", (4 * h, h), h
        yield f"lstm{layer}.b", (4 * h,), None
    for i in range(1, config.depth + 1):
        ch = 2 ** (config.depth - i) * config.hidden
        out_ch = 1 if i == config.depth else ch // 2
        yield f"dec{i}.proj.w", (2 * ch, ch, 1), ch
        yield f"dec{i}.proj.b", (2 * ch,), None
        yield f"dec{i}.tconv.w", (ch, out_ch, k), ch * k
        yield f"dec{i}.tconv.b", (out_ch,), None


class DenoiserModel:
    """The denoiser: a config plus named parameter tensors in declaration order."""

    def __init__(self, config: ModelConfig, params: dict[str, ad.Tensor]):
        self.config = config
        self.params = params

    def parameters(self) -> list[ad.Tensor]:
        return list(self.params.values())

    def parameter_count(self) -> int:
        return sum(p.data.size for p in self.parameters())

    @property
    def dtype(self) -> np.dtype:
        return self.params["enc1.conv.w"].data.dtype

    def astype(self, dtype) -> "DenoiserModel":
        """This model with its parameters cast to ``dtype``; itself if they
        already have it."""
        if self.dtype == dtype:
            return self
        return DenoiserModel(
            self.config, {name: ad.Tensor(p.data.astype(dtype)) for name, p in self.params.items()}
        )

    def copy(self) -> "DenoiserModel":
        """A copy with fresh parameter arrays of the same dtype."""
        return DenoiserModel(
            self.config, {name: ad.Tensor(p.data.copy()) for name, p in self.params.items()}
        )

    def zero_grads(self) -> None:
        for p in self.parameters():
            p.grad = None

    # -- forward ---------------------------------------------------------

    def apply(self, x: np.ndarray) -> ad.Tensor:
        """Differentiable speech estimate for a (B, M) array.

        Each row is divided by its std and the estimate multiplied back. The
        std uses the whole utterance, so the scaling sits outside the causal
        path. It is computed in float64; the network runs in the parameters'
        dtype, on the input as a constant, so backward computes no gradient
        for it.
        """
        x = np.asarray(x, dtype=np.float64)
        if x.ndim != 2 or x.size == 0:
            raise ValueError("apply expects a non-empty (B, M) array")
        cfg = self.config
        batch, length = x.shape
        sigma = x.std(axis=1, keepdims=True) + SIGMA_FLOOR
        x = x / sigma
        padded = np.zeros((batch, valid_length(cfg, length)), dtype=self.dtype)
        padded[:, :length] = x
        h = ad.Tensor(padded[:, None, :], requires_grad=False)
        if cfg.resample > 1:
            h = ad.resample_time(h, cfg.resample, 1)

        skips = []
        for i in range(1, cfg.depth + 1):
            h = ad.conv1d(
                h, self.params[f"enc{i}.conv.w"], self.params[f"enc{i}.conv.b"], cfg.stride,
                act=ad.relu,
            )
            h = ad.conv1d(
                h, self.params[f"enc{i}.proj.w"], self.params[f"enc{i}.proj.b"], 1, act=ad.glu
            )
            skips.append(h)

        h = ad.swap_time_channels(h)
        for layer in range(LSTM_LAYERS):
            h = ad.lstm_layer(
                h,
                self.params[f"lstm{layer}.w_ih"],
                self.params[f"lstm{layer}.w_hh"],
                self.params[f"lstm{layer}.b"],
            )
        h = ad.swap_time_channels(h)

        for i in range(1, cfg.depth + 1):
            # No local name keeps the skip: a no-grad forward frees it once added.
            h = ad.add(h, ad.slice_time(skips.pop(), 0, h.shape[-1]))
            h = ad.conv1d(
                h, self.params[f"dec{i}.proj.w"], self.params[f"dec{i}.proj.b"], 1, act=ad.glu
            )
            h = ad.conv_transpose1d(
                h, self.params[f"dec{i}.tconv.w"], self.params[f"dec{i}.tconv.b"], cfg.stride,
                act=ad.relu if i < cfg.depth else None,
            )

        if cfg.resample > 1:
            h = ad.resample_time(h, 1, cfg.resample)
        h = ad.slice_time(h, 0, length)
        return ad.scale(ad.reshape(h, (batch, length)), sigma)

    def forward(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The teacher pass: float64 (speech, noise) estimates for a (B, M)
        array, with noise = x - speech. The network runs in the parameters'
        dtype and records no graph."""
        x = np.asarray(x, dtype=np.float64)
        with ad.no_grad():
            speech = self.apply(x).data.astype(np.float64, copy=False)
        return speech, x - speech


def init_model(config: ModelConfig, seed: int) -> DenoiserModel:
    """Deterministic init: weights uniform +-sqrt(1/fan_in), biases zero."""
    rng = np.random.default_rng(seed)
    params: dict[str, ad.Tensor] = {}
    for name, shape, fan_in in _parameter_spec(config):
        if fan_in is None:
            params[name] = ad.Tensor(np.zeros(shape))
        else:
            params[name] = ad.Tensor(_uniform(rng, shape, fan_in))
    return DenoiserModel(config, params)


def ema_combine(teacher: DenoiserModel, student: DenoiserModel, gamma: float) -> DenoiserModel:
    """Per-parameter gamma * student + (1 - gamma) * teacher, in the dtype
    of the two models: float32 models blend in float32."""
    if teacher.config != student.config:
        raise ConfigMismatch("teacher and student configs differ")
    params = {
        name: ad.Tensor(gamma * student.params[name].data + (1.0 - gamma) * t.data)
        for name, t in teacher.params.items()
    }
    return DenoiserModel(teacher.config, params)


# ---------------------------------------------------------------------------
# checkpoints
# ---------------------------------------------------------------------------

@dataclass
class Checkpoint:
    """A model and its provenance: training epochs, seed and sample rate.

    ``sha256`` is the hex SHA-256 of the file ``load_checkpoint`` read it
    from, taken in the same pass (None for a checkpoint built in memory).
    """

    model: DenoiserModel
    epoch: int = 0
    seed: int | None = None
    sample_rate_hz: int = DEFAULT_SAMPLE_RATE
    sha256: str | None = None


def _header_dict(ckpt: Checkpoint, manifest: list[dict]) -> dict:
    # "optimizer" is always null (no optimizer state is stored); the key stays
    # so that headers keep their bytes, and a reader rejects any other value.
    return {
        "config": asdict(ckpt.model.config),
        "epoch": ckpt.epoch,
        "seed": ckpt.seed,
        "sample_rate_hz": ckpt.sample_rate_hz,
        "arrays": manifest,
        "optimizer": None,
    }


def save_checkpoint(path, ckpt: Checkpoint) -> str:
    """Write the model's parameters and the provenance; returns the hex
    SHA-256 of the bytes written.

    File layout: magic, newline, JSON text header, NUL, float32 payload
    (little-endian, declaration order), trailing CRC32 of the payload.
    The manifest comes from the shapes alone; each array is then written
    straight from its buffer (cast first, one array at a time, unless it
    is already little-endian float32), with the CRC32 and the SHA-256
    taken as it goes, so the payload is never copied whole."""
    params = ckpt.model.params
    manifest, offset = [], 0
    for name, p in params.items():
        nbytes = 4 * p.data.size
        manifest.append({"name": name, "shape": list(p.data.shape), "dtype": "<f4",
                         "offset": offset, "nbytes": nbytes})
        offset += nbytes
    header = json.dumps(_header_dict(ckpt, manifest), sort_keys=True, separators=(",", ":"))
    head = CHECKPOINT_MAGIC + b"\n" + header.encode("utf-8") + b"\x00"
    crc, digest = 0, hashlib.sha256(head)
    with atomic_open(path) as fh:
        fh.write(head)
        for p in params.values():
            raw = np.ascontiguousarray(p.data, dtype="<f4")
            crc = zlib.crc32(raw, crc)
            digest.update(raw)
            fh.write(raw)
            del raw  # a cast copy goes before the next one is made
        tail = (crc & 0xFFFFFFFF).to_bytes(4, "little")
        fh.write(tail)
    digest.update(tail)
    return digest.hexdigest()


def _require(ok: bool, what: str) -> None:
    if not ok:
        raise CorruptHeader(f"malformed header: {what}")


def _is_int(value) -> bool:
    return type(value) is int  # JSON true/false parse to bool, a subclass of int


def _header_fields(header, payload_size: int):
    """Check a parsed header; returns (config, array entries). Entries must
    tile the payload in order, each a float32 array of its declared shape."""
    _require(isinstance(header, dict), "not a JSON object")
    _require(isinstance(header["config"], dict), "config")
    stored = dict(header["config"])
    for name, value in _LEGACY_CONFIG.items():
        old = stored.pop(name, value)
        _require(type(old) is type(value) and old == value, f"config.{name}")
    config = ModelConfig(**stored)
    for f in fields(ModelConfig):
        _require(type(getattr(config, f.name)) is type(f.default), f"config.{f.name}")
    _require(_is_int(header["epoch"]), "epoch")
    _require(header["seed"] is None or _is_int(header["seed"]), "seed")
    _require(_is_int(header.get("sample_rate_hz", DEFAULT_SAMPLE_RATE)), "sample_rate_hz")
    _require(header.get("optimizer") is None, "optimizer")
    entries = header["arrays"]
    _require(isinstance(entries, list), "arrays")
    names, offset = set(), 0
    for entry in entries:
        name, shape = entry["name"], entry["shape"]
        fits = (
            isinstance(name, str)
            and name not in names
            and entry["dtype"] == "<f4"
            and isinstance(shape, list)
            and all(_is_int(n) and n >= 0 for n in shape)
            and _is_int(entry["offset"])
            and entry["offset"] == offset
            and _is_int(entry["nbytes"])
            and entry["nbytes"] == 4 * math.prod(shape)
        )
        _require(fits, f"array entry {name!r} does not fit the payload")
        names.add(name)
        offset += entry["nbytes"]
    if offset != payload_size:
        raise CorruptHeader(f"payload is {payload_size} bytes, manifest says {offset}")
    return config, entries


@dataclass(frozen=True)
class CheckpointHeader:
    """What a checkpoint's header says that a stage plan needs: its sample rate."""

    sample_rate_hz: int


def read_checkpoint_header(path) -> CheckpointHeader:
    """Read and check a checkpoint's header without reading its payload, so
    a stage plan can reject a bad stage before any file is enhanced.

    It raises every error ``load_checkpoint`` raises from the header, the
    file size and the array shapes; only the payload's CRC32 is left to the
    load.
    """
    with open_input(path, "checkpoint") as fh:
        header = _read_header(fh)[0]
    return CheckpointHeader(header.get("sample_rate_hz", DEFAULT_SAMPLE_RATE))


def load_checkpoint(path) -> Checkpoint:
    """Read a checkpoint written by ``save_checkpoint``; its model has
    float32 parameters, exactly as stored.

    A missing file raises ``MissingFile``, one that cannot be read
    ``UnreadableFile``, another format version ``VersionMismatch``, any
    other malformed input ``CorruptHeader``, and a missing or mis-shaped
    array ``ConfigMismatch``. The header is read and checked first
    (``read_checkpoint_header``); each array is then read from the file
    straight into its own buffer, so the payload is never held in memory
    twice. The CRC32 and the file's SHA-256 (``Checkpoint.sha256``) are
    taken in that one pass.
    """
    with open_input(path, "checkpoint") as fh:
        return _read_checkpoint(fh)


def _read_header(fh):
    """Read and check the header at the start of ``fh``; returns the parsed
    header, the model config, the array entries (in payload order, each
    matching the config's shape) and the file's bytes up to and including
    the header's NUL."""
    start = len(CHECKPOINT_MAGIC) + 1
    head = bytearray()
    nul = -1
    while nul < 0:
        chunk = fh.read(1 << 16)
        if not chunk:
            break
        head += chunk
        nul = head.find(b"\x00", start)
    size = os.fstat(fh.fileno()).st_size
    if len(head) < start:
        raise CorruptHeader("file too small")
    magic = bytes(head[: len(CHECKPOINT_MAGIC)])
    if magic != CHECKPOINT_MAGIC:
        if magic[:5] == CHECKPOINT_MAGIC[:5]:
            raise VersionMismatch(f"unsupported checkpoint version {magic!r}")
        raise CorruptHeader(f"bad magic {magic!r}")
    if nul < 0 or size < nul + 5:
        raise CorruptHeader("missing header terminator or checksum")
    try:
        header = json.loads(head[start:nul].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError, RecursionError) as exc:
        raise CorruptHeader(f"unparseable header: {exc}") from exc
    try:
        config, entries = _header_fields(header, size - nul - 5)
    except (KeyError, TypeError, ValueError) as exc:
        raise CorruptHeader(f"malformed header: {exc!r}") from exc

    shapes = {entry["name"]: tuple(entry["shape"]) for entry in entries}
    for name, shape, _ in _parameter_spec(config):
        if name not in shapes:
            raise ConfigMismatch(f"checkpoint missing array {name}")
        if shapes[name] != shape:
            raise ConfigMismatch(f"array {name} has shape {shapes[name]}, expected {shape}")
    return header, config, entries, head[: nul + 1]


def _read_checkpoint(fh) -> Checkpoint:
    header, config, entries, head = _read_header(fh)
    fh.seek(len(head))
    arrays, crc, digest = {}, 0, hashlib.sha256(head)
    for entry in entries:  # in payload order
        flat = np.empty(entry["nbytes"] // 4, dtype="<f4")
        if fh.readinto(flat) != flat.nbytes:
            raise CorruptHeader("payload is shorter than the manifest says")
        crc = zlib.crc32(flat, crc)
        digest.update(flat)
        arrays[entry["name"]] = flat
    stored = fh.read(4)
    digest.update(stored)
    if (crc & 0xFFFFFFFF) != int.from_bytes(stored, "little"):
        raise CorruptHeader("payload checksum mismatch")

    params = {
        name: ad.Tensor(arrays[name].astype(np.float32, copy=False).reshape(shape))
        for name, shape, _ in _parameter_spec(config)
    }
    return Checkpoint(
        model=DenoiserModel(config, params),
        epoch=header["epoch"],
        seed=header["seed"],
        sample_rate_hz=header.get("sample_rate_hz", DEFAULT_SAMPLE_RATE),
        sha256=digest.hexdigest(),
    )
