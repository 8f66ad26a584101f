"""Single-stage and multi-stage enhancement pipelines.

``enhance`` runs in-memory ``Checkpoint``s, in stage order, on one waveform;
each stage feeds its speech estimate to the next, so an n-stage plan equals
n chained single-stage calls bit-exactly. Every stage runs in float32:
checkpoints store float32, so a loaded model runs as it is, and a no-grad
float32 forward is about twice as fast as float64.

A ``StagePlan`` names checkpoint files in stage order and holds only their
headers, read and checked when it is built, so a stage that is missing,
malformed or at another sample rate fails before any file is enhanced.
``enhance_file`` (one WAV file to another) and ``enhance_batch`` (every
entry of a manifest) run a plan stage-major: each stage is loaded once,
passes every file through, and is dropped before the next one loads, so one
model is resident at a time. ``enhance_batch`` hands each estimate to the
next stage as a float32 WAV in a scratch directory, which holds exactly the
float32 samples, so the outputs are the bits of ``enhance``, file by file.
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
from .fileio import make_parents, scratch_dir
from .model import Checkpoint, load_checkpoint, read_checkpoint_header


class StagePlan:
    """The checkpoint files of an enhancement, in stage order.

    Building one reads every header: no path raises UsageError, a header
    that ``load_checkpoint`` would reject raises its error, and stages at
    different sample rates raise SampleRateMismatch. A payload's CRC32 is
    checked when ``load`` reads it, and its SHA-256 recorded.
    """

    def __init__(self, paths):
        if not paths:
            raise UsageError("--stages names no checkpoint")
        self.paths = list(paths)
        headers = [read_checkpoint_header(p) for p in self.paths]
        self.sample_rate_hz = shared_sample_rate(headers, "stages")
        # The SHA-256 of each stage's file as loaded (None until then).
        self.sha256: list[str | None] = [None] * len(self.paths)

    def __len__(self):
        return len(self.paths)

    def load(self, k: int) -> Checkpoint:
        """Stage k's checkpoint, read now; its digest goes to ``sha256[k]``."""
        stage = load_checkpoint(self.paths[k])
        self.sha256[k] = stage.sha256
        return stage


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


def _read_input(path, rate: int, allow_resample: bool) -> Waveform:
    """The WAV at path, at the plan's rate: input at another rate raises
    SampleRateMismatch unless allow_resample, which resamples it."""
    wave = read_wav(path)
    if wave.sample_rate_hz != rate:
        if not allow_resample:
            raise SampleRateMismatch(
                f"{path}: {wave.sample_rate_hz} Hz input vs {rate} Hz model; "
                f"pass --resample to convert"
            )
        wave = resample(wave, rate, wave.sample_rate_hz)
    return wave


def enhance_file(plan: StagePlan, in_path, out_path, allow_resample: bool) -> None:
    """Enhance the WAV at in_path into out_path (``write_wav`` creates its
    directory), one stage loaded at a time.

    Input at another rate than the stages' raises SampleRateMismatch unless
    allow_resample: then it is resampled to their rate first. Nothing is
    created unless every stage loads and the enhancement succeeds.
    """
    wave = _read_input(in_path, plan.sample_rate_hz, allow_resample)
    for k in range(len(plan)):
        wave = enhance([plan.load(k)], wave)
    write_wav(out_path, wave)


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
    plan: StagePlan, manifest: Manifest, out_dir, threads=1, allow_resample=False
) -> BatchReport:
    """Enhance every manifest entry into <stem>.enhanced.wav under out_dir.

    Each stage is loaded once and run over every file that has not failed,
    on ``threads`` threads. A stage before the last writes each speech
    estimate as a float32 WAV into a scratch directory under out_dir, where
    the next stage reads it; the scratch directory is removed when the call
    returns or raises. The last stage writes the outputs, so a stage that
    fails to load raises before any output is written. Every stage loads
    even for an empty manifest, so its payload is checked and its digest
    recorded (``plan.sha256``).

    Failures are recorded per entry without aborting the rest; a file that
    fails goes through no later stage. Also writes an "enhanced"-role
    manifest next to the outputs so evaluation can pair files by id. Two
    entries whose paths share a stem would write the same output, so that
    is a UsageError, raised before anything is written.
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
    rate, last = plan.sample_rate_hz, len(plan) - 1
    errors: list[str | None] = [None] * len(entries)

    def run(i: int) -> None:
        # Reads the stage through the enclosing name, so that no worker
        # holds it once the pass is over.
        try:
            source = manifest.resolve(entries[i]) if k == 0 else scratch / f"{i}.wav"
            out = enhance([stage], _read_input(source, rate, allow_resample))
            write_wav(out_dir / names[i] if k == last else scratch / f"{i}.wav", out)
        except Exception as exc:  # per-file isolation is the contract
            errors[i] = str(exc)

    with scratch_dir(out_dir) as scratch, ThreadPoolExecutor(max_workers=threads) as pool:
        for k in range(len(plan)):
            stage = plan.load(k)
            list(pool.map(run, [i for i, error in enumerate(errors) if error is None]))
            stage = None  # freed before the next stage loads

    report = BatchReport()
    out_entries = []
    for entry, name, error in zip(entries, names, errors):
        if error is not None:
            report.results.append(FileResult(entry.id, None, error))
            report.failures.append(entry.id)
        else:
            report.results.append(FileResult(entry.id, str(out_dir / name)))
            out_entries.append(ManifestEntry(entry.id, name, "enhanced", entry.duration_s))
    write_manifest(out_dir / "enhanced.manifest.jsonl", out_entries)
    return report
