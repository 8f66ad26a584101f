"""Waveforms, SNR mixing, augmentations, resampling, and WAV I/O.

Mixing and augmentation work on batches only: a batch is a (B, M) float64
array of equally long rows, and one row is a (1, M) batch. Rows are
reordered by indexing with a numpy index array (``batch[order]``). Every
function that draws random numbers takes an explicit
``numpy.random.Generator`` and is pure given it; the functions never write
into the arrays they are given. WAV files are written as mono IEEE float32
and read as mono float32 or PCM16.
"""
from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from .autodiff import resample_array
from .errors import ShapeMismatch, UnsupportedFormat, ZeroPowerNoise, ZeroPowerSignal
from .fileio import atomic_open, open_input

DEFAULT_SAMPLE_RATE = 16_000

# Short-time analysis used by the band-stop augmentation.
BANDMASK_WINDOW = 1024
BANDMASK_HOP = 256


@dataclass(frozen=True)
class Waveform:
    """A mono audio signal: float64 samples, nominally in [-1, 1]."""

    samples: np.ndarray
    sample_rate_hz: int = DEFAULT_SAMPLE_RATE

    def __post_init__(self):
        samples = np.asarray(self.samples, dtype=np.float64)
        object.__setattr__(self, "samples", samples)
        if samples.ndim != 1:
            raise ValueError(f"waveform must be 1-D, got shape {samples.shape}")
        if not np.all(np.isfinite(samples)):
            raise ValueError("waveform contains non-finite samples")
        if self.sample_rate_hz <= 0:
            raise ValueError("sample rate must be positive")

    def __len__(self):
        return self.samples.shape[0]


# ---------------------------------------------------------------------------
# SNR mixing
# ---------------------------------------------------------------------------

def mix_batch_at_snr(signal: np.ndarray, noise: np.ndarray, snr_db: np.ndarray):
    """Scale each noise row so that the (signal, scaled noise) pair hits snr_db.

    Power is the mean square over the full row. Returns (mixture, scaled_noise).
    """
    signal = np.asarray(signal, dtype=np.float64)
    noise = np.asarray(noise, dtype=np.float64)
    snr_db = np.asarray(snr_db, dtype=np.float64)
    if signal.shape != noise.shape:
        raise ShapeMismatch(f"signal {signal.shape} vs noise {noise.shape}")
    p_signal = np.mean(signal * signal, axis=-1)
    p_noise = np.mean(noise * noise, axis=-1)
    if np.any(p_signal == 0.0):
        raise ZeroPowerSignal("signal row has zero power")
    if np.any(p_noise == 0.0):
        raise ZeroPowerNoise("noise row has zero power")
    gain = np.sqrt(p_signal / (p_noise * 10.0 ** (snr_db / 10.0)))
    scaled = noise * gain[..., None]
    return signal + scaled, scaled


# ---------------------------------------------------------------------------
# augmentations
# ---------------------------------------------------------------------------

def augment_shift(
    input_batch: np.ndarray,
    target_batch: np.ndarray,
    max_shift_samples: int,
    rng: np.random.Generator,
):
    """Per row, draw one offset in [0, max_shift_samples] and apply it to both
    the input row and the target row, preserving their alignment."""
    if input_batch.shape != target_batch.shape:
        raise ShapeMismatch("input and target batches must share (B, M)")
    rows, length = input_batch.shape
    if max_shift_samples >= length:
        raise ValueError(f"max shift {max_shift_samples} must be < row length {length}")
    offsets = rng.integers(0, max_shift_samples + 1, size=rows)
    out_in = np.zeros_like(input_batch)
    out_tg = np.zeros_like(target_batch)
    for i, off in enumerate(offsets):  # right-shift by off, zero-filled on the left
        out_in[i, off:] = input_batch[i, : length - off]
        out_tg[i, off:] = target_batch[i, : length - off]
    return out_in, out_tg


def hz_to_mel(f):
    return 2595.0 * np.log10(1.0 + np.asarray(f, dtype=np.float64) / 700.0)


def mel_to_hz(m):
    return 700.0 * (10.0 ** (np.asarray(m, dtype=np.float64) / 2595.0) - 1.0)


def _periodic_hann(n: int) -> np.ndarray:
    return 0.5 * (1.0 - np.cos(2.0 * np.pi * np.arange(n) / n))


def augment_bandmask(
    batch: np.ndarray, rate: int, mask_fraction: float, rng: np.random.Generator
) -> np.ndarray:
    """Band-stop each row, sampled at ``rate`` Hz, over a random mel band of
    width mask_fraction of the full mel range.

    One uniform draw per row (in row order) places the band start on the mel
    axis; STFT bins inside the band are zeroed (window 1024, hop 256, Hann
    analysis and synthesis) and the row is resynthesized at its original
    length.
    """
    if not 0.0 < mask_fraction < 1.0:
        raise ValueError("mask_fraction must be in (0, 1)")
    rows, length = batch.shape
    win, hop = BANDMASK_WINDOW, BANDMASK_HOP

    mel_max = hz_to_mel(rate / 2.0)
    band_mel = mask_fraction * mel_max
    starts_mel = rng.uniform(0.0, mel_max - band_mel, size=rows)
    f_lo = mel_to_hz(starts_mel)
    f_hi = mel_to_hz(starts_mel + band_mel)

    # Full-overlap framing: pad (win - hop) on the left so every original
    # sample is covered by the constant-overlap-add region.
    left = win - hop
    n_frames = int(np.ceil((length + left) / hop)) + 3
    total = (n_frames - 1) * hop + win
    padded = np.zeros((rows, total))
    padded[:, left : left + length] = batch

    window = _periodic_hann(win)
    idx = np.arange(n_frames)[:, None] * hop + np.arange(win)[None, :]
    frames = padded[:, idx] * window  # (B, F, win)
    spectra = np.fft.rfft(frames, axis=-1)

    freqs = np.fft.rfftfreq(win, d=1.0 / rate)
    stop = (freqs[None, :] >= f_lo[:, None]) & (freqs[None, :] <= f_hi[:, None])
    spectra = np.where(stop[:, None, :], 0.0, spectra)

    resynth = np.fft.irfft(spectra, n=win, axis=-1) * window
    out = np.zeros_like(padded)
    norm = np.zeros(total)
    for f in range(n_frames):
        sl = slice(f * hop, f * hop + win)
        out[:, sl] += resynth[:, f]
        norm[sl] += window * window
    # Every retained sample sits in the constant-overlap region (norm == 1.5).
    kept = slice(left, left + length)
    return out[:, kept] / norm[kept]


# ---------------------------------------------------------------------------
# resampling
# ---------------------------------------------------------------------------

def resample(w: Waveform, up: int, down: int) -> Waveform:
    """Polyphase rational resampling (Hann-windowed sinc, 64 zero crossings).

    Output length is ceil(len * up / down); up == down is the identity.
    """
    out = resample_array(w.samples, up, down)
    rate = int(round(w.sample_rate_hz * up / down))
    return Waveform(out, rate)


# ---------------------------------------------------------------------------
# WAV I/O (RIFF/WAVE, mono; written as IEEE float32, read as that or PCM16)
# ---------------------------------------------------------------------------

_WAVE_FORMAT_PCM = 1
_WAVE_FORMAT_IEEE_FLOAT = 3


def write_wav(path, w: Waveform) -> None:
    """Write a mono IEEE float32 WAV, lossless for float32 samples."""
    payload = w.samples.astype("<f4").tobytes()
    rate = w.sample_rate_hz
    header = struct.pack(
        "<4sI4s4sIHHIIHH4sI",
        b"RIFF",
        36 + len(payload),
        b"WAVE",
        b"fmt ",
        16,
        _WAVE_FORMAT_IEEE_FLOAT,
        1,  # mono
        rate,
        rate * 4,  # bytes per second
        4,  # bytes per sample frame
        32,
        b"data",
        len(payload),
    )
    with atomic_open(path) as fh:
        fh.write(header)
        fh.write(payload)


def read_wav(path) -> Waveform:
    """Read a mono PCM16 or float32 WAV; anything else, including non-finite
    samples or a zero sample rate, raises UnsupportedFormat, a path that is
    not a file MissingFile, and a file that cannot be read UnreadableFile."""
    with open_input(path, "WAV file") as fh:
        blob = fh.read()
    if len(blob) < 12 or blob[:4] != b"RIFF" or blob[8:12] != b"WAVE":
        raise UnsupportedFormat("not a RIFF/WAVE file")
    pos = 12
    fmt_chunk = None
    data = None
    while pos + 8 <= len(blob):
        cid = blob[pos : pos + 4]
        (size,) = struct.unpack_from("<I", blob, pos + 4)
        body = blob[pos + 8 : pos + 8 + size]
        if len(body) < size:
            raise UnsupportedFormat("truncated chunk")
        if cid == b"fmt ":
            fmt_chunk = body
        elif cid == b"data":
            data = body
        pos += 8 + size + (size & 1)  # chunks are word-aligned
    if fmt_chunk is None or data is None:
        raise UnsupportedFormat("missing fmt or data chunk")
    if len(fmt_chunk) < 16:
        raise UnsupportedFormat("malformed fmt chunk")
    fmt, channels, rate, _, _, bits = struct.unpack_from("<HHIIHH", fmt_chunk, 0)
    if channels != 1:
        raise UnsupportedFormat(f"only mono supported, got {channels} channels")
    pcm16 = fmt == _WAVE_FORMAT_PCM and bits == 16
    if not (pcm16 or (fmt == _WAVE_FORMAT_IEEE_FLOAT and bits == 32)):
        raise UnsupportedFormat(f"unsupported format code {fmt} / {bits} bits")
    if len(data) % (bits // 8):
        raise UnsupportedFormat(
            f"data chunk of {len(data)} bytes is not a whole number of {bits}-bit samples"
        )
    samples = np.frombuffer(data, dtype="<i2" if pcm16 else "<f4").astype(np.float64)
    if pcm16:
        samples /= 32768.0
    try:
        return Waveform(samples, rate)
    except ValueError as exc:  # non-finite samples or a zero sample rate
        raise UnsupportedFormat(str(exc)) from exc
