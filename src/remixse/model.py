"""Causal encoder/decoder U-net waveform denoiser, EMA combination, and
bit-exact checkpointing.

The network operates on (B, M) sample batches: per-row std normalization,
right zero-padding to a valid length, optional upsampling, L strided
encoder layers, a two-layer unidirectional LSTM bottleneck, L transposed-
convolution decoder layers with additive skip connections, downsampling,
and trimming back to M. The noise estimate is input minus speech estimate.
"""
from __future__ import annotations

import json
import math
import os
import zlib
from contextlib import contextmanager
from dataclasses import dataclass, field, asdict
from pathlib import Path

import numpy as np

from . import autodiff as ad
from .audio import DEFAULT_SAMPLE_RATE, SignalBatch
from .errors import ConfigMismatch, CorruptHeader, VersionMismatch

CHECKPOINT_MAGIC = b"RMXSE1"
SIGMA_FLOOR = 1e-3


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
    lstm_layers: int = 2
    causal: bool = True

    def __post_init__(self):
        if self.depth < 1 or self.hidden < 1:
            raise ValueError("depth and hidden must be >= 1")
        if not (self.kernel_size >= self.stride >= 1):
            raise ValueError("require kernel_size >= stride >= 1")
        if self.resample < 1:
            raise ValueError("resample factor must be >= 1")
        if self.lstm_layers != 2:
            raise ValueError("this architecture fixes lstm_layers at 2")
        if not self.causal:
            raise ValueError("only the causal variant is implemented")

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
    for layer in range(config.lstm_layers):
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

    def copy(self) -> "DenoiserModel":
        return DenoiserModel(
            self.config, {name: ad.Tensor(p.data.copy()) for name, p in self.params.items()}
        )

    def zero_grads(self) -> None:
        for p in self.parameters():
            p.grad = None

    # -- forward ---------------------------------------------------------

    def apply(self, x: np.ndarray, normalize: bool = True) -> ad.Tensor:
        """Differentiable speech estimate for a (B, M) array.

        normalize=False skips the per-row std scaling (the scaling uses the
        whole utterance and is therefore outside the causal path); callers
        then must feed pre-scaled input.
        """
        x = np.asarray(x, dtype=np.float64)
        if x.ndim != 2 or x.size == 0:
            raise ValueError("apply expects a non-empty (B, M) array")
        cfg = self.config
        batch, length = x.shape
        if normalize:
            sigma = x.std(axis=1, keepdims=True) + SIGMA_FLOOR
            x = x / sigma
        padded = np.zeros((batch, valid_length(cfg, length)))
        padded[:, :length] = x
        h = ad.Tensor(padded[:, None, :])
        if cfg.resample > 1:
            h = ad.resample_time(h, cfg.resample, 1)

        skips = []
        for i in range(1, cfg.depth + 1):
            h = ad.conv1d(
                h, self.params[f"enc{i}.conv.w"], self.params[f"enc{i}.conv.b"], cfg.stride
            )
            h = ad.relu(h)
            h = ad.conv1d(h, self.params[f"enc{i}.proj.w"], self.params[f"enc{i}.proj.b"], 1)
            h = ad.glu(h)
            skips.append(h)

        h = ad.swap_time_channels(h)
        for layer in range(cfg.lstm_layers):
            h = ad.lstm_layer(
                h,
                self.params[f"lstm{layer}.w_ih"],
                self.params[f"lstm{layer}.w_hh"],
                self.params[f"lstm{layer}.b"],
            )
        h = ad.swap_time_channels(h)

        for i in range(1, cfg.depth + 1):
            skip = skips.pop()
            h = ad.add(h, ad.slice_time(skip, 0, h.shape[-1]))
            h = ad.conv1d(h, self.params[f"dec{i}.proj.w"], self.params[f"dec{i}.proj.b"], 1)
            h = ad.glu(h)
            h = ad.conv_transpose1d(
                h, self.params[f"dec{i}.tconv.w"], self.params[f"dec{i}.tconv.b"], cfg.stride
            )
            if i < cfg.depth:
                h = ad.relu(h)

        if cfg.resample > 1:
            h = ad.resample_time(h, 1, cfg.resample)
        h = ad.slice_time(h, 0, length)
        out = ad.reshape(h, (batch, length))
        if normalize:
            out = ad.scale(out, sigma)
        return out

    def forward(self, noisy: SignalBatch) -> tuple[SignalBatch, SignalBatch]:
        """Inference: (speech_estimate, noise_estimate), noise = input - speech."""
        with ad.no_grad():
            speech = self.apply(noisy.data).data
        noise = noisy.data - speech
        rate = noisy.sample_rate_hz
        return SignalBatch(speech, rate), SignalBatch(noise, rate)


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
    """Per-parameter gamma * student + (1 - gamma) * teacher."""
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
class OptimizerSnapshot:
    """Adam hyperparameters, timestep, and first/second moment arrays."""

    step_size: float
    beta1: float
    beta2: float
    epsilon: float
    timestep: int
    moments1: dict[str, np.ndarray] = field(default_factory=dict)
    moments2: dict[str, np.ndarray] = field(default_factory=dict)


@dataclass
class Checkpoint:
    """Everything needed to resume or reuse a model, stored bit-exactly."""

    config: ModelConfig
    arrays: dict[str, np.ndarray]
    epoch: int = 0
    seed: int | None = None
    sample_rate_hz: int = DEFAULT_SAMPLE_RATE
    optimizer: OptimizerSnapshot | None = None


def model_to_checkpoint(
    model: DenoiserModel,
    epoch: int = 0,
    seed: int | None = None,
    sample_rate_hz: int = DEFAULT_SAMPLE_RATE,
    adam: "ad.AdamState | None" = None,
) -> Checkpoint:
    arrays = {name: p.data for name, p in model.params.items()}
    opt = None
    if adam is not None and adam.m:
        names = list(model.params)
        opt = OptimizerSnapshot(
            step_size=adam.step_size,
            beta1=adam.beta1,
            beta2=adam.beta2,
            epsilon=adam.epsilon,
            timestep=adam.timestep,
            moments1={n: m for n, m in zip(names, adam.m)},
            moments2={n: v for n, v in zip(names, adam.v)},
        )
    return Checkpoint(model.config, arrays, epoch, seed, sample_rate_hz, opt)


def model_from_checkpoint(ckpt: Checkpoint, config: ModelConfig | None = None) -> DenoiserModel:
    """Rebuild a model; a caller-supplied config must match the stored one."""
    if config is not None and config != ckpt.config:
        raise ConfigMismatch(f"checkpoint config {ckpt.config} != requested {config}")
    expected = [(name, shape) for name, shape, _ in _parameter_spec(ckpt.config)]
    params: dict[str, ad.Tensor] = {}
    for name, shape in expected:
        if name not in ckpt.arrays:
            raise ConfigMismatch(f"checkpoint missing array {name}")
        arr = ckpt.arrays[name]
        if tuple(arr.shape) != tuple(shape):
            raise ConfigMismatch(f"array {name} has shape {arr.shape}, expected {shape}")
        params[name] = ad.Tensor(np.asarray(arr, dtype=np.float64))
    return DenoiserModel(ckpt.config, params)


def adam_from_checkpoint(ckpt: Checkpoint, model: DenoiserModel) -> "ad.AdamState | None":
    if ckpt.optimizer is None:
        return None
    names = list(model.params)
    snap = ckpt.optimizer
    state = ad.AdamState(snap.step_size, snap.beta1, snap.beta2, snap.epsilon, snap.timestep)
    state.m = [np.asarray(snap.moments1[n], dtype=np.float64) for n in names]
    state.v = [np.asarray(snap.moments2[n], dtype=np.float64) for n in names]
    return state


def _header_dict(ckpt: Checkpoint, manifest: list[dict]) -> dict:
    header = {
        "config": asdict(ckpt.config),
        "epoch": ckpt.epoch,
        "seed": ckpt.seed,
        "sample_rate_hz": ckpt.sample_rate_hz,
        "arrays": manifest,
        "optimizer": None,
    }
    if ckpt.optimizer is not None:
        opt = ckpt.optimizer
        header["optimizer"] = {
            "kind": "adam",
            "step_size": opt.step_size,
            "beta1": opt.beta1,
            "beta2": opt.beta2,
            "epsilon": opt.epsilon,
            "timestep": opt.timestep,
        }
    return header


@contextmanager
def atomic_open(path, mode: str = "wb", **kwargs):
    """Open a temp file next to ``path`` and rename it over ``path`` once the
    block completes. Readers see the old file or the new one, never a torn
    one, and a write that fails leaves the old file in place."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, mode, **kwargs) as fh:
            yield fh
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def save_checkpoint(path, ckpt: Checkpoint) -> None:
    """File layout: magic, newline, JSON text header, NUL, float32 payload
    (little-endian, declaration order), trailing CRC32 of the payload."""
    entries: list[tuple[str, np.ndarray]] = list(ckpt.arrays.items())
    if ckpt.optimizer is not None:
        for n, a in ckpt.optimizer.moments1.items():
            entries.append((f"adam.m.{n}", a))
        for n, a in ckpt.optimizer.moments2.items():
            entries.append((f"adam.v.{n}", a))
    manifest = []
    chunks = []
    offset = 0
    for name, arr in entries:
        raw = np.ascontiguousarray(arr, dtype="<f4").tobytes()
        manifest.append(
            {"name": name, "shape": list(arr.shape), "dtype": "<f4", "offset": offset, "nbytes": len(raw)}
        )
        chunks.append(raw)
        offset += len(raw)
    payload = b"".join(chunks)
    header = json.dumps(_header_dict(ckpt, manifest), sort_keys=True, separators=(",", ":"))
    with atomic_open(path) as fh:
        fh.write(CHECKPOINT_MAGIC + b"\n")
        fh.write(header.encode("utf-8"))
        fh.write(b"\x00")
        fh.write(payload)
        fh.write((zlib.crc32(payload) & 0xFFFFFFFF).to_bytes(4, "little"))


def load_checkpoint(path) -> Checkpoint:
    with open(path, "rb") as fh:
        blob = fh.read()
    if len(blob) < len(CHECKPOINT_MAGIC) + 1:
        raise CorruptHeader("file too small")
    magic = blob[: len(CHECKPOINT_MAGIC)]
    if magic != CHECKPOINT_MAGIC:
        if magic[:5] == CHECKPOINT_MAGIC[:5]:
            raise VersionMismatch(f"unsupported checkpoint version {magic!r}")
        raise CorruptHeader(f"bad magic {magic!r}")
    nul = blob.find(b"\x00", len(CHECKPOINT_MAGIC) + 1)
    if nul < 0:
        raise CorruptHeader("missing header terminator")
    try:
        header = json.loads(blob[len(CHECKPOINT_MAGIC) + 1 : nul].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise CorruptHeader(f"unparseable header: {exc}") from exc
    payload = blob[nul + 1 : -4]
    stored_crc = int.from_bytes(blob[-4:], "little")
    expected = sum(entry["nbytes"] for entry in header["arrays"])
    if len(payload) != expected:
        raise CorruptHeader(f"payload is {len(payload)} bytes, manifest says {expected}")
    if (zlib.crc32(payload) & 0xFFFFFFFF) != stored_crc:
        raise CorruptHeader("payload checksum mismatch")

    config = ModelConfig(**header["config"])
    arrays: dict[str, np.ndarray] = {}
    for entry in header["arrays"]:
        raw = payload[entry["offset"] : entry["offset"] + entry["nbytes"]]
        arrays[entry["name"]] = np.frombuffer(raw, dtype=entry["dtype"]).reshape(entry["shape"]).copy()

    opt = None
    if header.get("optimizer"):
        meta = header["optimizer"]
        opt = OptimizerSnapshot(
            step_size=meta["step_size"],
            beta1=meta["beta1"],
            beta2=meta["beta2"],
            epsilon=meta["epsilon"],
            timestep=meta["timestep"],
            moments1={k[len("adam.m.") :]: v for k, v in arrays.items() if k.startswith("adam.m.")},
            moments2={k[len("adam.v.") :]: v for k, v in arrays.items() if k.startswith("adam.v.")},
        )
    model_arrays = {k: v for k, v in arrays.items() if not k.startswith("adam.")}
    return Checkpoint(
        config=config,
        arrays=model_arrays,
        epoch=header["epoch"],
        seed=header["seed"],
        sample_rate_hz=header.get("sample_rate_hz", DEFAULT_SAMPLE_RATE),
        optimizer=opt,
    )
