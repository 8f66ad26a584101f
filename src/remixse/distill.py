"""Bootstrap training, the six student remix strategies, the static and
EMA teacher updates, and the epoch driver for teacher-student distillation.

The bootstrap stage trains a denoiser with the original noisy speech as the
target and noisy speech plus extraneous noise as input. Distillation then
lets a frozen-per-epoch teacher estimate speech and noise from noisy
batches, remixes those estimates (or the raw noisy speech) into fresh
input/target pairs per the selected strategy, and trains a student on them.

``bootstrap_nytt`` takes a ``TrainConfig`` and a ``remix`` switch; ``distill``
takes a ``DistillConfig``, which adds the strategy and the EMA weight and
defaults augmentation to off.

Training computes in the dtype of the model it is handed: a float32 model
runs its forward, backward and Adam update in float32, with Adam's moments
in float32 (see ``autodiff.adam_step``), and a float64 model trains in
float64 throughout. The EMA teacher stays in that dtype too.

Each training step makes one ``autodiff.adam_step`` call with the step's
loss: it runs backward and applies each parameter's Adam update on a
worker thread as soon as that parameter's gradient is final, then frees
the gradient. The worker is joined before the call returns, so the
trainers leave no thread behind, and a trained model holds no gradients.
"""
from __future__ import annotations

import math
import time
from dataclasses import asdict, dataclass, field
from enum import Enum

import numpy as np

from . import autodiff as ad
from .audio import augment_bandmask, augment_shift, mix_batch_at_snr
from .corpus import crop_or_pad, shared_sample_rate
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
class TrainConfig:
    """The settings of the training loop: ``bootstrap_nytt`` reads every one."""

    epochs: int = 500
    batch_size: int = 8
    segment_samples: int = 16_000
    learning_rate: float = 3e-4
    loss: str = "mae"  # or "mse"
    snr_low_db: float = -5.0
    snr_high_db: float = 5.0
    shift: bool = True
    shift_max_samples: int = 4_000
    bandmask: bool = True
    bandmask_fraction: float = 0.2
    seed: int = 0

    def __post_init__(self):
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.segment_samples < 1:
            raise ValueError(f"segment_samples must be >= 1, got {self.segment_samples}")
        if not (math.isfinite(self.learning_rate) and self.learning_rate > 0):
            raise ValueError(f"learning_rate must be finite and > 0, got {self.learning_rate}")
        if not (math.isfinite(self.snr_low_db) and math.isfinite(self.snr_high_db)):
            raise ValueError(f"SNRs must be finite, got [{self.snr_low_db}, {self.snr_high_db}]")
        if self.snr_low_db > self.snr_high_db:
            raise ValueError("snr_low_db must be <= snr_high_db")
        if not 0.0 < self.bandmask_fraction < 1.0:
            raise ValueError(f"bandmask_fraction must be in (0, 1), got {self.bandmask_fraction}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if self.loss not in ("mae", "mse"):
            raise ValueError("loss must be mae or mse")
        if self.shift_max_samples < 0:
            raise ValueError(f"shift_max_samples must be >= 0, got {self.shift_max_samples}")
        if self.shift and self.shift_max_samples >= self.segment_samples:
            raise ValueError(
                f"shift_max_samples ({self.shift_max_samples}) must be < "
                f"segment_samples ({self.segment_samples}); lower it or disable shift"
            )


@dataclass(frozen=True)
class DistillConfig(TrainConfig):
    """``distill``'s settings: the loop's, the strategy and the EMA weight
    (None: a static teacher). Setting ``shift`` or ``bandmask``, both off by
    default, turns augmentation on."""

    shift: bool = False
    bandmask: bool = False
    strategy: MixStrategy = MixStrategy.NYTT1
    ema_gamma: float | None = None

    def __post_init__(self):
        super().__post_init__()
        if self.strategy.uses_shuffled_noise and self.batch_size < 2:
            raise ValueError(
                f"strategy {self.strategy.value} shuffles noise between rows and needs "
                f"batch_size >= 2, got {self.batch_size}"
            )
        if self.ema_gamma is not None and not 0.0 < self.ema_gamma <= 1.0:
            raise ValueError("gamma must be in (0, 1]")


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
            fh.write(json.dumps(asdict(e)) + "\n")


def epoch_batches(num_utterances: int, batch_size: int, rng: np.random.Generator):
    """Shuffled index batches covering each utterance at most once; a final
    partial batch is dropped so every batch has exactly batch_size rows."""
    order = rng.permutation(num_utterances)
    for start in range(0, num_utterances - batch_size + 1, batch_size):
        yield order[start : start + batch_size]


def _gather_rows(corpus, indices, num_samples: int, rng: np.random.Generator) -> np.ndarray:
    rows = [crop_or_pad(corpus[int(i)].samples, num_samples, rng) for i in indices]
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
        noise = augment_bandmask(noise, rate, config.bandmask_fraction, rng)
    y = target + noise
    if config.shift and config.shift_max_samples > 0:
        y, target = augment_shift(y, target, config.shift_max_samples, rng)
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
    model.zero_grads()  # so each step's gradients are its own, and it releases them
    stats = TrainStats()
    for epoch in range(1, config.epochs + 1):
        t0 = time.perf_counter()
        epoch_losses: list[float] = []
        for step, indices in enumerate(epoch_batches(num_utterances, config.batch_size, rng)):
            y, target = make_batch(indices)
            loss = loss_fn(model.apply(y), target)
            value = _check_finite(float(loss.data), epoch, step)
            ad.adam_step(params, adam, loss)
            epoch_losses.append(value)
            stats.step_losses.append(value)
        if end_epoch is not None:
            end_epoch()
        stats.epochs.append(
            EpochStats(epoch, float(np.mean(epoch_losses)), time.perf_counter() - t0, len(epoch_losses))
        )
    return stats


def bootstrap_nytt(
    noisy_corpus,
    ext_noise_corpus,
    model: DenoiserModel,
    config: TrainConfig,
    remix: bool = True,
) -> tuple[DenoiserModel, TrainStats]:
    """Train the initial model: input = noisy + extraneous noise at a random
    SNR in [snr_low_db, snr_high_db], target = the noisy speech itself.
    Both corpora must share one sample rate (else SampleRateMismatch).

    Augmentation order per batch: SNR-scale ext noise -> Remix (permute noise
    rows, if ``remix`` and the batch has two or more) -> BandMask (noise
    component) -> sum -> joint Shift. Deterministic given config.seed.
    """
    if not noisy_corpus:
        raise EmptyCorpus("noisy corpus is empty")
    if not ext_noise_corpus:
        raise EmptyCorpus("extraneous noise corpus is empty")
    rate = shared_sample_rate([*noisy_corpus, *ext_noise_corpus], "corpus waveforms")
    rng = np.random.default_rng(config.seed)
    segment = config.segment_samples

    def make_batch(indices):
        x = _gather_rows(noisy_corpus, indices, segment, rng)
        noise_idx = rng.integers(0, len(ext_noise_corpus), size=config.batch_size)
        noise = _gather_rows(ext_noise_corpus, noise_idx, segment, rng)
        snrs = rng.uniform(config.snr_low_db, config.snr_high_db, size=config.batch_size)
        _, scaled = mix_batch_at_snr(x, noise, snrs)
        if remix and config.batch_size >= 2:
            scaled = scaled[rng.permutation(config.batch_size)]
        return _augment(x, scaled, config, rate, rng)

    stats = _train(model, len(noisy_corpus), make_batch, config, rng)
    return model, stats


def build_student_batch(
    strategy: MixStrategy,
    x: np.ndarray,
    s_hat: np.ndarray,
    n_hat: np.ndarray,
    order: np.ndarray,
    n_ext: np.ndarray | None,
    rng: np.random.Generator,
    snr_low_db: float = -5.0,
    snr_high_db: float = 5.0,
) -> tuple[np.ndarray, np.ndarray]:
    """Compose one (input, target) pair of (B, M) arrays for the student.

    The shuffled in-domain noise is ``n_hat[order]``: row i takes the noise
    estimate of row ``order[i]``, and an ``order`` that is not a permutation
    of the rows raises ShapeMismatch. Shuffled noise is added straight;
    extraneous noise is scaled to a per-row uniform SNR in [snr_low_db,
    snr_high_db] relative to the signal it is added to. RNG draw order
    (fixed, so tests can replay it): first the SNR array (size B, only for
    strategies using extraneous noise), then the NYTT2 source coins (size B).

    The target is the ``s_hat`` (CTT) or ``x`` (NYTT) passed in, not a copy,
    and so is CTT1's input ``x``: callers must not write into them.
    """
    shapes = {x.shape, s_hat.shape, n_hat.shape}
    if n_ext is not None:
        shapes.add(n_ext.shape)
    if len(shapes) != 1:
        raise ShapeMismatch(f"batches disagree on shape: {sorted(shapes)}")
    rows = x.shape[0]
    order = np.asarray(order)
    if order.dtype.kind not in "iu" or not np.array_equal(np.sort(order), np.arange(rows)):
        raise ShapeMismatch(f"order {order} is not a permutation of the batch's {rows} rows")
    if strategy.needs_ext_noise and n_ext is None:
        raise MissingExtNoise(f"{strategy.value} requires an extraneous noise batch")
    if not strategy.needs_ext_noise and n_ext is not None:
        raise UnexpectedExtNoise(f"{strategy.value} does not take extraneous noise")

    shuffled = n_hat[order] if strategy.uses_shuffled_noise else None
    if strategy.needs_ext_noise:
        snrs = rng.uniform(snr_low_db, snr_high_db, size=rows)

    if strategy is MixStrategy.CTT1:
        return x, s_hat
    if strategy is MixStrategy.CTT2:
        return s_hat + shuffled, s_hat
    if strategy is MixStrategy.CTT3:
        mixture, _ = mix_batch_at_snr(s_hat + shuffled, n_ext, snrs)
        return mixture, s_hat
    if strategy is MixStrategy.NYTT1:
        return x + shuffled, x
    if strategy is MixStrategy.NYTT2:
        coins = rng.random(rows) < 0.5
        _, scaled_ext = mix_batch_at_snr(x, n_ext, snrs)
        return x + np.where(coins[:, None], shuffled, scaled_ext), x
    if strategy is MixStrategy.NYTT3:
        mixture, _ = mix_batch_at_snr(x + shuffled, n_ext, snrs)
        return mixture, x
    raise AssertionError(f"unhandled strategy {strategy}")


def update_teacher(
    ema_gamma: float | None, teacher: DenoiserModel, student: DenoiserModel
) -> DenoiserModel:
    """Static (``ema_gamma`` None) returns the teacher; EMA blends in the student."""
    if ema_gamma is None:
        return teacher
    return ema_combine(teacher, student, ema_gamma)


@dataclass
class DistillResult:
    student: DenoiserModel
    teacher: DenoiserModel
    stats: TrainStats


def distill(
    teacher: DenoiserModel,
    noisy_corpus,
    ext_noise_corpus,
    config: DistillConfig,
) -> DistillResult:
    """Teacher-student training on corpora that share one sample rate (else
    SampleRateMismatch).

    Per batch: sample noisy speech X, draw a fresh permutation, run the
    teacher pass (``DenoiserModel.forward``) to get the speech estimate and
    the in-domain noise estimate X - speech, build the strategy pair,
    augment it if the config sets shift or BandMask, and take one student
    Adam step. After each epoch ``update_teacher`` runs. The student starts
    as a fresh copy of the initial teacher, in the teacher's dtype, and
    trains in that dtype, Adam's moments included; the
    result holds the student and the teacher as they stand after the last
    epoch.

    The teacher's forward, and each EMA update (``ema_combine``), run in
    the teacher's dtype. Nothing here keeps the initial teacher once an EMA
    update has replaced it.
    """
    if not noisy_corpus:
        raise EmptyCorpus("noisy corpus is empty")
    if config.strategy.needs_ext_noise and not ext_noise_corpus:
        raise MissingExtNoise(f"{config.strategy.value} requires an extraneous noise corpus")
    if not config.strategy.needs_ext_noise and ext_noise_corpus:
        raise UnexpectedExtNoise(f"{config.strategy.value} does not take extraneous noise")
    rate = shared_sample_rate([*noisy_corpus, *(ext_noise_corpus or [])], "corpus waveforms")

    rng = np.random.default_rng(config.seed)
    student = teacher.copy()  # a fresh copy: a static teacher must not change
    segment = config.segment_samples

    def make_batch(indices):
        x = _gather_rows(noisy_corpus, indices, segment, rng)
        order = rng.permutation(config.batch_size)
        s_hat, n_hat = teacher.forward(x)
        ext = None
        if config.strategy.needs_ext_noise:
            noise_idx = rng.integers(0, len(ext_noise_corpus), size=config.batch_size)
            ext = _gather_rows(ext_noise_corpus, noise_idx, segment, rng)
        y, target = build_student_batch(
            config.strategy, x, s_hat, n_hat, order, ext, rng, config.snr_low_db, config.snr_high_db
        )
        if config.shift or config.bandmask:
            return _augment(target, y - target, config, rate, rng)
        return y, target

    def end_epoch():
        nonlocal teacher
        teacher = update_teacher(config.ema_gamma, teacher, student)

    stats = _train(student, len(noisy_corpus), make_batch, config, rng, end_epoch)
    return DistillResult(student, teacher, stats)
