"""Objective evaluation: STOI, SI-SDR, and paired-manifest reports.

STOI follows the standard short-time band-correlation construction: both
signals resampled to 10 kHz, 256-sample half-overlapped Hann frames with a
512-point FFT, silent frames (more than 40 dB below the loudest clean
frame) dropped, 15 one-third-octave bands from 150 Hz, 30-frame segments
normalized and clipped at -15 dB signal-to-distortion, and the mean band/
segment correlation reported. PESQ is never computed here; externally
computed values can be merged into reports by id.
"""
from __future__ import annotations

import csv
import io
import json
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, astuple, dataclass, field, fields

import numpy as np

from .audio import Waveform, read_wav
from .autodiff import resample_array
from .corpus import Manifest
from .errors import ParseError, SampleRateMismatch, ShapeMismatch, TooShort, ZeroReference
from .fileio import atomic_open, open_input

STOI_RATE = 10_000
STOI_FRAME = 256
STOI_HOP = 128
STOI_FFT = 512
STOI_NUM_BANDS = 15
STOI_MIN_BAND_HZ = 150.0
STOI_SEGMENT_FRAMES = 30
STOI_DYN_RANGE_DB = 40.0
STOI_BETA_DB = -15.0


def _frame(x: np.ndarray) -> np.ndarray:
    if len(x) < STOI_FRAME:
        return np.empty((0, STOI_FRAME))
    n_frames = (len(x) - STOI_FRAME) // STOI_HOP + 1
    idx = np.arange(n_frames)[:, None] * STOI_HOP + np.arange(STOI_FRAME)[None, :]
    return x[idx]


def _third_octave_matrix() -> np.ndarray:
    """Boolean (bands, bins) membership matrix for the 15 analysis bands."""
    freqs = np.fft.rfftfreq(STOI_FFT, d=1.0 / STOI_RATE)
    centers = STOI_MIN_BAND_HZ * 2.0 ** (np.arange(STOI_NUM_BANDS) / 3.0)
    lo = centers / 2 ** (1.0 / 6.0)
    hi = centers * 2 ** (1.0 / 6.0)
    return (freqs[None, :] >= lo[:, None]) & (freqs[None, :] < hi[:, None])


def _check_rates(reference: Waveform, other: Waveform) -> None:
    if reference.sample_rate_hz != other.sample_rate_hz:
        raise SampleRateMismatch(
            f"sample rates differ: {reference.sample_rate_hz} vs {other.sample_rate_hz} Hz"
        )


def stoi(clean: Waveform, degraded: Waveform) -> float:
    """Intelligibility score in [-1, 1]; 1.0 for identical inputs."""
    if len(clean) != len(degraded):
        raise ShapeMismatch(f"clean {len(clean)} vs degraded {len(degraded)} samples")
    _check_rates(clean, degraded)

    rate = clean.sample_rate_hz
    x = clean.samples
    y = degraded.samples
    if rate != STOI_RATE:
        x = resample_array(x, STOI_RATE, rate)
        y = resample_array(y, STOI_RATE, rate)

    window = np.hanning(STOI_FRAME)
    xf = _frame(x) * window
    yf = _frame(y) * window

    # Silence removal keyed on the clean signal, applied to both (no frame: TooShort below).
    energy_db = 20.0 * np.log10(np.linalg.norm(xf, axis=1) + np.finfo(float).eps)
    keep = energy_db > energy_db.max(initial=-np.inf) - STOI_DYN_RANGE_DB
    xf = xf[keep]
    yf = yf[keep]
    if xf.shape[0] < STOI_SEGMENT_FRAMES:
        raise TooShort(
            f"only {xf.shape[0]} frames retained, need >= {STOI_SEGMENT_FRAMES}"
        )

    bands = _third_octave_matrix()
    x_spec = np.abs(np.fft.rfft(xf, STOI_FFT, axis=1)) ** 2
    y_spec = np.abs(np.fft.rfft(yf, STOI_FFT, axis=1)) ** 2
    x_env = np.sqrt(x_spec @ bands.T)  # (frames, bands)
    y_env = np.sqrt(y_spec @ bands.T)

    clip_gain = 10.0 ** (-STOI_BETA_DB / 20.0)
    n_frames = x_env.shape[0]
    total = 0.0
    count = 0
    for m in range(STOI_SEGMENT_FRAMES, n_frames + 1):
        xs = x_env[m - STOI_SEGMENT_FRAMES : m]  # (30, bands)
        ys = y_env[m - STOI_SEGMENT_FRAMES : m]
        norm_x = np.linalg.norm(xs, axis=0)
        norm_y = np.linalg.norm(ys, axis=0)
        alpha = norm_x / np.maximum(norm_y, np.finfo(float).tiny)
        ys_n = np.minimum(ys * alpha, xs * (1.0 + clip_gain))
        xc = xs - xs.mean(axis=0)
        yc = ys_n - ys_n.mean(axis=0)
        denom = np.linalg.norm(xc, axis=0) * np.linalg.norm(yc, axis=0)
        valid = denom > 0.0
        corr = np.sum(xc[:, valid] * yc[:, valid], axis=0) / denom[valid]
        total += float(corr.sum())
        count += int(valid.sum())
    if count == 0:
        raise TooShort("no segments with nonzero variance")
    return total / count


def si_sdr(reference: Waveform, estimate: Waveform) -> float:
    """Scale-invariant signal-to-distortion ratio in dB, clamped to +-100."""
    if len(reference) != len(estimate):
        raise ShapeMismatch(f"reference {len(reference)} vs estimate {len(estimate)} samples")
    _check_rates(reference, estimate)
    r = reference.samples
    e = estimate.samples
    r_energy = float(np.dot(r, r))
    if r_energy == 0.0:
        raise ZeroReference("reference signal is all zeros")
    alpha = float(np.dot(e, r)) / r_energy
    target = alpha * r
    residual = e - target
    p_target = float(np.dot(target, target))
    p_residual = float(np.dot(residual, residual))
    if p_residual == 0.0:
        return 100.0
    if p_target == 0.0:
        return -100.0
    return float(np.clip(10.0 * np.log10(p_target / p_residual), -100.0, 100.0))


# ---------------------------------------------------------------------------
# reports
# ---------------------------------------------------------------------------

@dataclass
class UtteranceScore:
    id: str
    stoi: float | None = None
    si_sdr_db: float | None = None
    pesq: float | None = None


@dataclass
class MetricReport:
    utterances: list[UtteranceScore] = field(default_factory=list)
    unpaired_ref: list[str] = field(default_factory=list)
    unpaired_deg: list[str] = field(default_factory=list)
    metadata: dict = field(default_factory=dict)

    def mean(self, metric: str) -> float | None:
        values = [getattr(u, metric) for u in self.utterances if getattr(u, metric) is not None]
        return float(np.mean(values)) if values else None

    def to_dict(self) -> dict:
        return {
            "metadata": self.metadata,
            "utterances": [asdict(u) for u in self.utterances],
            "mean": {
                "stoi": self.mean("stoi"),
                "si_sdr_db": self.mean("si_sdr_db"),
                "pesq": self.mean("pesq"),
            },
            "unpaired": {"ref": self.unpaired_ref, "deg": self.unpaired_deg},
        }

    def write_json(self, path) -> None:
        with atomic_open(path, "w", encoding="utf-8") as fh:
            json.dump(self.to_dict(), fh, sort_keys=True, indent=2)
            fh.write("\n")

    def write_csv(self, path) -> None:
        with atomic_open(path, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(f.name for f in fields(UtteranceScore))
            writer.writerows(astuple(u) for u in self.utterances)


def read_pesq_csv(path) -> dict[str, float]:
    """External PESQ values as a two-column (id, pesq) CSV, header optional.

    A leading UTF-8 byte-order mark is skipped. A path that is not a file
    raises MissingFile and one that cannot be read UnreadableFile. Text that
    is not UTF-8, a row of fewer than two columns and a score that is not a
    finite number raise ParseError naming the line.
    """
    with open_input(path, "PESQ CSV") as fh:
        blob = fh.read()
    try:
        text = blob.decode("utf-8-sig")
    except UnicodeDecodeError as exc:
        # exc.start indexes exc.object, the bytes after any byte-order mark.
        line = exc.object.count(b"\n", 0, exc.start) + 1
        raise ParseError("not UTF-8", line=line) from exc
    values: dict[str, float] = {}
    reader = csv.reader(io.StringIO(text, newline=""))
    try:
        for row in reader:
            if not row or row[0].strip().lower() in ("id", ""):
                continue
            if len(row) < 2:
                raise ParseError("expected two columns, id and pesq", line=reader.line_num)
            try:
                score = float(row[1])
            except ValueError:
                score = math.nan  # rejected with the non-finite scores below
            if not math.isfinite(score):
                raise ParseError(f"score {row[1]!r} is not a finite number", line=reader.line_num)
            values[row[0].strip()] = score
    except csv.Error as exc:  # e.g. a field over the csv module's size limit
        raise ParseError(f"malformed CSV: {exc}", line=reader.line_num) from exc
    return values


def evaluate_manifest(
    ref_manifest: Manifest,
    deg_manifest: Manifest,
    metrics: tuple[str, ...] = ("stoi", "si_sdr"),
    pesq_values: dict[str, float] | None = None,
    metadata: dict | None = None,
    threads: int = 1,
) -> MetricReport:
    """Pair entries by id, score each pair, and aggregate.

    Unpaired ids on either side are listed and the run continues.
    """
    unknown = set(metrics) - {"stoi", "si_sdr"}
    if unknown:
        raise ValueError(f"unknown metrics: {sorted(unknown)}")
    ref_by_id = {e.id: e for e in ref_manifest}
    deg_by_id = {e.id: e for e in deg_manifest}
    paired = sorted(set(ref_by_id) & set(deg_by_id))
    report = MetricReport(
        unpaired_ref=sorted(set(ref_by_id) - set(deg_by_id)),
        unpaired_deg=sorted(set(deg_by_id) - set(ref_by_id)),
        metadata=metadata or {},
    )

    def score(uid: str) -> UtteranceScore:
        ref = read_wav(ref_manifest.resolve(ref_by_id[uid]))
        deg = read_wav(deg_manifest.resolve(deg_by_id[uid]))
        entry = UtteranceScore(uid)
        if "stoi" in metrics:
            entry.stoi = stoi(ref, deg)
        if "si_sdr" in metrics:
            entry.si_sdr_db = si_sdr(ref, deg)
        if pesq_values and uid in pesq_values:
            entry.pesq = pesq_values[uid]
        return entry

    with ThreadPoolExecutor(max_workers=threads) as pool:
        report.utterances = list(pool.map(score, paired))
    return report
