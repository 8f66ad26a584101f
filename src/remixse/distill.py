"""Bootstrap training, the six student remix strategies, teacher update
protocols, and the epoch driver for teacher-student distillation.

The bootstrap stage trains a denoiser with the original noisy speech as the
target and noisy speech plus extraneous noise as input. Distillation then
lets a frozen-per-epoch teacher estimate speech and noise from noisy
batches, remixes those estimates (or the raw noisy speech) into fresh
input/target pairs per the selected strategy, and trains a student on them.
"""
from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from . import autodiff as ad
from .audio import (
    Permutation,
    SignalBatch,
    augment_bandmask,
    augment_shift,
    mix_batch_at_snr,
    shuffle_rows,
)
from .corpus import crop_or_pad
from .errors import (
    EmptyCorpus,
    MissingExtNoise,
    NonFiniteLoss,
    ShapeMismatch,
    UnexpectedExtNoise,
    UsageError,
)
from .fileio import atomic_open
from .model import DenoiserModel, ema_combine


class MixStrategy(Enum):
    """The six student training recipes.

    CTT variants target the teacher's speech estimate; NYTT variants target
    the raw noisy speech. The suffix selects what gets added to the input:
    1 = shuffled in-domain noise estimate only (CTT1 adds nothing), 2 = per
    row either in-domain or extraneous noise, 3 = both.
    """

    CTT1 = "ctt1"
    CTT2 = "ctt2"
    CTT3 = "ctt3"
    NYTT1 = "nytt1"
    NYTT2 = "nytt2"
    NYTT3 = "nytt3"

    @property
    def needs_ext_noise(self) -> bool:
        return self in (MixStrategy.CTT3, MixStrategy.NYTT2, MixStrategy.NYTT3)

    @property
    def uses_shuffled_noise(self) -> bool:
        return self is not MixStrategy.CTT1


@dataclass(frozen=True)
class TeacherUpdateProtocol:
    """Static (frozen teacher) or exponential moving average with gamma."""

    kind: str  # "static" | "ema"
    gamma: float = 0.005

    def __post_init__(self):
        if self.kind not in ("static", "ema"):
            raise ValueError(f"unknown teacher update protocol {self.kind!r}")
        if not 0.0 < self.gamma <= 1.0:
            raise ValueError("gamma must be in (0, 1]")

    @classmethod
    def static(cls) -> "TeacherUpdateProtocol":
        return cls("static")

    @classmethod
    def ema(cls, gamma: float = 0.005) -> "TeacherUpdateProtocol":
        return cls("ema", gamma)


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 500
    batch_size: int = 8
    segment_samples: int = 16_000
    learning_rate: float = 3e-4
    loss: str = "mae"  # or "mse"
    snr_low_db: float = -5.0
    snr_high_db: float = 5.0
    shift: bool = True
    shift_max_samples: int = 4_000
    remix: bool = True
    bandmask: bool = True
    bandmask_fraction: float = 0.2
    augment_in_distill: bool = False
    seed: int = 0
    strategy: MixStrategy = MixStrategy.NYTT1
    tup: TeacherUpdateProtocol = field(default_factory=TeacherUpdateProtocol.static)

    def __post_init__(self):
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")
        if not (math.isfinite(self.learning_rate) and self.learning_rate > 0):
            raise ValueError(f"learning_rate must be finite and > 0, got {self.learning_rate}")
        if self.snr_low_db > self.snr_high_db:
            raise ValueError("snr_low_db must be <= snr_high_db")
        if self.loss not in ("mae", "mse"):
            raise ValueError("loss must be mae or mse")
        if self.shift and self.shift_max_samples >= self.segment_samples:
            raise ValueError(
                f"shift_max_samples ({self.shift_max_samples}) must be < "
                f"segment_samples ({self.segment_samples}); lower it or disable shift"
            )


@dataclass
class EpochStats:
    epoch: int
    mean_loss: float
    seconds: float
    steps: int


@dataclass
class TrainStats:
    epochs: list[EpochStats] = field(default_factory=list)
    step_losses: list[float] = field(default_factory=list)


def write_stats(path, stats: TrainStats) -> None:
    """One JSON object per epoch: epoch, mean_loss, seconds, steps.

    Replaces any existing file as a whole (see ``atomic_open``).
    """
    import json

    with atomic_open(path, "w", encoding="utf-8") as fh:
        for e in stats.epochs:
            fh.write(
                json.dumps(
                    {"epoch": e.epoch, "mean_loss": e.mean_loss, "seconds": e.seconds, "steps": e.steps}
                )
                + "\n"
            )


def epoch_batches(num_utterances: int, batch_size: int, rng: np.random.Generator):
    """Shuffled index batches covering each utterance at most once; a final
    partial batch is dropped so every batch has exactly batch_size rows."""
    order = rng.permutation(num_utterances)
    for start in range(0, num_utterances - batch_size + 1, batch_size):
        yield order[start : start + batch_size]


def _gather_rows(corpus, indices, num_samples: int, rng: np.random.Generator) -> np.ndarray:
    rows = [crop_or_pad(corpus[int(i)], num_samples, rng).samples for i in indices]
    return np.stack(rows)


def _check_finite(value: float, epoch: int, step: int) -> float:
    if not np.isfinite(value):
        raise NonFiniteLoss(f"loss became {value} at epoch {epoch}, step {step}")
    return float(value)


def _augment(target: np.ndarray, noise: np.ndarray, config: TrainConfig, rate: int, rng):
    """BandMask on the noise component, then joint Shift of the pair.

    Returns (input, target) with input = target + noise. Only the noise is
    masked, so the target never contains content the input lacks.
    """
    if config.bandmask:
        noise = augment_bandmask(SignalBatch(noise, rate), config.bandmask_fraction, rng).data
    y = target + noise
    if config.shift and config.shift_max_samples > 0:
        shifted_in, shifted_tg = augment_shift(
            SignalBatch(y, rate), SignalBatch(target, rate), config.shift_max_samples, rng
        )
        y, target = shifted_in.data, shifted_tg.data
    return y, target


def _train(
    model: DenoiserModel, num_utterances: int, make_batch, config: TrainConfig, rng, end_epoch=None
) -> TrainStats:
    """The supervised loop both trainers share.

    Each epoch walks shuffled index batches of the corpus; make_batch(indices)
    returns the (input, target) arrays for one Adam step of model on the
    configured loss. end_epoch, if given, runs after each epoch's last step.
    """
    if num_utterances < config.batch_size:
        raise UsageError(
            f"corpus has {num_utterances} utterances, fewer than the batch size "
            f"{config.batch_size}: no training step would run"
        )
    adam = ad.AdamState(step_size=config.learning_rate)
    loss_fn = ad.mae_loss if config.loss == "mae" else ad.mse_loss
    params = model.parameters()
    stats = TrainStats()
    for epoch in range(1, config.epochs + 1):
        t0 = time.perf_counter()
        epoch_losses: list[float] = []
        for step, indices in enumerate(epoch_batches(num_utterances, config.batch_size, rng)):
            y, target = make_batch(indices)
            model.zero_grads()
            loss = loss_fn(model.apply(y), target)
            value = _check_finite(float(loss.data), epoch, step)
            ad.backward(loss)
            ad.adam_step(params, adam)
            epoch_losses.append(value)
            stats.step_losses.append(value)
        if end_epoch is not None:
            end_epoch()
        stats.epochs.append(
            EpochStats(epoch, float(np.mean(epoch_losses)), time.perf_counter() - t0, len(epoch_losses))
        )
    model.zero_grads()
    return stats


def bootstrap_nytt(
    noisy_corpus,
    ext_noise_corpus,
    model: DenoiserModel,
    config: TrainConfig,
    sample_rate_hz: int = 16_000,
) -> tuple[DenoiserModel, TrainStats]:
    """Train the initial model: input = noisy + extraneous noise at a random
    SNR in [snr_low_db, snr_high_db], target = the noisy speech itself.

    Augmentation order per batch: SNR-scale ext noise -> Remix (permute noise
    rows) -> BandMask (noise component) -> sum -> joint Shift. Deterministic
    given config.seed.
    """
    if not noisy_corpus:
        raise EmptyCorpus("noisy corpus is empty")
    if not ext_noise_corpus:
        raise EmptyCorpus("extraneous noise corpus is empty")
    rng = np.random.default_rng(config.seed)
    segment = config.segment_samples

    def make_batch(indices):
        x = _gather_rows(noisy_corpus, indices, segment, rng)
        noise_idx = rng.integers(0, len(ext_noise_corpus), size=config.batch_size)
        noise = _gather_rows(ext_noise_corpus, noise_idx, segment, rng)
        snrs = rng.uniform(config.snr_low_db, config.snr_high_db, size=config.batch_size)
        _, scaled = mix_batch_at_snr(x, noise, snrs)
        if config.remix and config.batch_size >= 2:
            scaled = scaled[rng.permutation(config.batch_size)]
        return _augment(x, scaled, config, sample_rate_hz, rng)

    stats = _train(model, len(noisy_corpus), make_batch, config, rng)
    return model, stats


def build_student_batch(
    strategy: MixStrategy,
    x: SignalBatch,
    s_hat: SignalBatch,
    n_hat: SignalBatch,
    p: Permutation,
    n_ext: SignalBatch | None,
    rng: np.random.Generator,
    snr_low_db: float = -5.0,
    snr_high_db: float = 5.0,
) -> tuple[SignalBatch, SignalBatch]:
    """Compose one (input, target) pair for the student.

    Shuffled in-domain noise is added straight; extraneous noise is scaled to
    a per-row uniform SNR in [snr_low_db, snr_high_db] relative to the signal
    it is added to. RNG draw order (fixed, so tests can replay it): first the
    SNR array (size B, only for strategies using extraneous noise), then the
    NYTT2 source coins (size B).
    """
    shapes = {x.data.shape, s_hat.data.shape, n_hat.data.shape}
    if n_ext is not None:
        shapes.add(n_ext.data.shape)
    if len(shapes) != 1:
        raise ShapeMismatch(f"batches disagree on shape: {sorted(shapes)}")
    if strategy.needs_ext_noise and n_ext is None:
        raise MissingExtNoise(f"{strategy.value} requires an extraneous noise batch")
    if not strategy.needs_ext_noise and n_ext is not None:
        raise UnexpectedExtNoise(f"{strategy.value} does not take extraneous noise")
    rate = x.sample_rate_hz

    shuffled = shuffle_rows(n_hat, p).data if strategy.uses_shuffled_noise else None
    if strategy.needs_ext_noise:
        snrs = rng.uniform(snr_low_db, snr_high_db, size=x.batch_size)

    if strategy is MixStrategy.CTT1:
        return SignalBatch(x.data.copy(), rate), SignalBatch(s_hat.data.copy(), rate)
    if strategy is MixStrategy.CTT2:
        return SignalBatch(s_hat.data + shuffled, rate), SignalBatch(s_hat.data.copy(), rate)
    if strategy is MixStrategy.CTT3:
        base = s_hat.data + shuffled
        mixture, _ = mix_batch_at_snr(base, n_ext.data, snrs)
        return SignalBatch(mixture, rate), SignalBatch(s_hat.data.copy(), rate)
    if strategy is MixStrategy.NYTT1:
        return SignalBatch(x.data + shuffled, rate), SignalBatch(x.data.copy(), rate)
    if strategy is MixStrategy.NYTT2:
        coins = rng.random(x.batch_size) < 0.5
        _, scaled_ext = mix_batch_at_snr(x.data, n_ext.data, snrs)
        chosen = np.where(coins[:, None], shuffled, scaled_ext)
        return SignalBatch(x.data + chosen, rate), SignalBatch(x.data.copy(), rate)
    if strategy is MixStrategy.NYTT3:
        base = x.data + shuffled
        mixture, _ = mix_batch_at_snr(base, n_ext.data, snrs)
        return SignalBatch(mixture, rate), SignalBatch(x.data.copy(), rate)
    raise AssertionError(f"unhandled strategy {strategy}")


def update_teacher(
    protocol: TeacherUpdateProtocol, teacher: DenoiserModel, student: DenoiserModel
) -> DenoiserModel:
    """Static returns the teacher unchanged; EMA blends in the student."""
    if protocol.kind == "static":
        return teacher
    return ema_combine(teacher, student, protocol.gamma)


@dataclass
class DistillResult:
    student: DenoiserModel
    teacher: DenoiserModel
    stats: TrainStats


def distill(
    teacher: DenoiserModel,
    noisy_corpus,
    ext_noise_corpus,
    config: TrainConfig,
    sample_rate_hz: int = 16_000,
) -> DistillResult:
    """Teacher-student training.

    Per batch: sample noisy speech X, draw a fresh permutation, run the
    teacher without gradients to get the speech estimate and the in-domain
    noise estimate X - speech, build the strategy pair, and take one student
    Adam step. After each epoch the teacher-update protocol runs. The student
    starts as a copy of the initial teacher; the result holds the student and
    the teacher as they stand after the last epoch.
    """
    if not noisy_corpus:
        raise EmptyCorpus("noisy corpus is empty")
    if config.strategy.needs_ext_noise and not ext_noise_corpus:
        raise MissingExtNoise(f"{config.strategy.value} requires an extraneous noise corpus")
    if not config.strategy.needs_ext_noise and ext_noise_corpus:
        raise UnexpectedExtNoise(f"{config.strategy.value} does not take extraneous noise")
    if config.strategy.uses_shuffled_noise and config.batch_size < 2:
        raise ValueError("shuffle-based strategies need batch_size >= 2")

    rng = np.random.default_rng(config.seed)
    student = teacher.copy()
    segment = config.segment_samples

    def make_batch(indices):
        x = _gather_rows(noisy_corpus, indices, segment, rng)
        perm = Permutation.random(config.batch_size, rng)
        with ad.no_grad():
            s_hat = teacher.apply(x).data
        n_hat = x - s_hat
        ext = None
        if config.strategy.needs_ext_noise:
            noise_idx = rng.integers(0, len(ext_noise_corpus), size=config.batch_size)
            ext = SignalBatch(
                _gather_rows(ext_noise_corpus, noise_idx, segment, rng), sample_rate_hz
            )
        y_batch, t_batch = build_student_batch(
            config.strategy,
            SignalBatch(x, sample_rate_hz),
            SignalBatch(s_hat, sample_rate_hz),
            SignalBatch(n_hat, sample_rate_hz),
            perm,
            ext,
            rng,
            config.snr_low_db,
            config.snr_high_db,
        )
        y, target = y_batch.data, t_batch.data
        if config.augment_in_distill:
            return _augment(target, y - target, config, sample_rate_hz, rng)
        return y, target

    def end_epoch():
        nonlocal teacher
        teacher = update_teacher(config.tup, teacher, student)

    stats = _train(student, len(noisy_corpus), make_batch, config, rng, end_epoch)
    return DistillResult(student, teacher, stats)
