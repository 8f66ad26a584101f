"""Single-stage and multi-stage enhancement pipelines.

A plan is a list of ``Checkpoint``s in stage order, run at the one sample
rate they share; each stage feeds its speech estimate to the next, so an
n-stage plan equals n chained single-stage calls bit-exactly. Every stage
runs in float32: checkpoints store float32, so a loaded model runs as it
is, and a no-grad float32 forward is about twice as fast as float64.

``enhance_file`` is the one path from a WAV file to an enhanced WAV file;
``enhance_batch`` runs it for every entry of a manifest.
"""
from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from .audio import Waveform, read_wav, resample, write_wav
from .autodiff import no_grad
from .corpus import Manifest, ManifestEntry, shared_sample_rate, write_manifest
from .errors import SampleRateMismatch, TooShort, UsageError
from .fileio import make_parents
from .model import Checkpoint, load_checkpoint


def load_stages(paths) -> list[Checkpoint]:
    """The checkpoints at ``paths``, in stage order.

    No path raises UsageError, and checkpoints at different sample rates
    raise SampleRateMismatch.
    """
    if not paths:
        raise UsageError("--stages names no checkpoint")
    stages = [load_checkpoint(p) for p in paths]
    shared_sample_rate(stages, "stages")
    return stages


def enhance(stages: list[Checkpoint], noisy: Waveform) -> Waveform:
    """Run every stage in order on the speech estimate; length is preserved."""
    rate = shared_sample_rate(stages, "stages")
    if noisy.sample_rate_hz != rate:
        raise SampleRateMismatch(f"waveform at {noisy.sample_rate_hz} Hz, plan expects {rate} Hz")
    if not len(noisy):
        raise TooShort("waveform has no samples to enhance")
    samples = noisy.samples
    with no_grad():
        for stage in stages:
            samples = stage.model.astype(np.float32).apply(samples[None, :]).data[0]
    return Waveform(samples, rate)


def enhance_file(stages: list[Checkpoint], in_path, out_path, allow_resample: bool) -> None:
    """Enhance the WAV at in_path into out_path (``write_wav`` creates its
    directory).

    Input at another rate than the stages' raises SampleRateMismatch unless
    allow_resample: then it is resampled to their rate first. Nothing is
    created unless the enhancement succeeds.
    """
    wave = read_wav(in_path)
    rate = shared_sample_rate(stages, "stages")
    if wave.sample_rate_hz != rate:
        if not allow_resample:
            raise SampleRateMismatch(
                f"{in_path}: {wave.sample_rate_hz} Hz input vs {rate} Hz model; "
                f"pass --resample to convert"
            )
        wave = resample(wave, rate, wave.sample_rate_hz)
    write_wav(out_path, enhance(stages, wave))


@dataclass
class FileResult:
    id: str
    output_path: str | None
    error: str | None = None


@dataclass
class BatchReport:
    results: list[FileResult] = field(default_factory=list)
    failures: list[str] = field(default_factory=list)

    def to_dict(self) -> dict:
        return asdict(self)


def enhance_batch(
    stages: list[Checkpoint], manifest: Manifest, out_dir, threads=1, allow_resample=False
) -> BatchReport:
    """Enhance every manifest entry into <stem>.enhanced.wav under out_dir,
    each through ``enhance_file``.

    Failures are recorded per entry without aborting the rest. Also writes an
    "enhanced"-role manifest next to the outputs so evaluation can pair files
    by id. Two entries whose paths share a stem would write the same output,
    so that is a UsageError, raised before anything is written.
    """
    entries = list(manifest)
    names = [f"{Path(entry.path).stem}.enhanced.wav" for entry in entries]
    owners: dict[str, str] = {}
    for entry, name in zip(entries, names):
        if name in owners:
            raise UsageError(
                f"manifest entries {owners[name]!r} and {entry.id!r} would both write {name}"
            )
        owners[name] = entry.id

    out_dir = Path(out_dir)
    # before any file is enhanced: an out_dir that cannot be made fails once, up front
    make_parents(out_dir / "enhanced.manifest.jsonl")
    report = BatchReport()

    def process(entry: ManifestEntry, name: str) -> FileResult:
        out_path = out_dir / name
        try:
            enhance_file(stages, manifest.resolve(entry), out_path, allow_resample)
        except Exception as exc:  # per-file isolation is the contract
            return FileResult(entry.id, None, str(exc))
        return FileResult(entry.id, str(out_path))

    with ThreadPoolExecutor(max_workers=threads) as pool:
        results = list(pool.map(process, entries, names))

    out_entries = []
    for entry, result in zip(entries, results):
        report.results.append(result)
        if result.error is not None:
            report.failures.append(result.id)
        else:
            wave_path = Path(result.output_path)
            out_entries.append(
                ManifestEntry(result.id, wave_path.name, "enhanced", entry.duration_s)
            )
    write_manifest(out_dir / "enhanced.manifest.jsonl", out_entries)
    return report
