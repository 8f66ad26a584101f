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
entry of a manifest) run a plan stage-major: they load one stage, pass
every file through it, keep each speech estimate, and drop the stage before
loading the next, so one model is resident at a time. The arithmetic is
that of ``enhance``, file by file, so the outputs are the same bits.
"""
from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from .audio import Waveform, read_wav, resample, write_wav
from .autodiff import no_grad
from .corpus import Manifest, ManifestEntry, shared_sample_rate, write_manifest
from .errors import CheckpointChanged, SampleRateMismatch, TooShort, UsageError
from .fileio import make_parents
from .model import Checkpoint, load_checkpoint, read_checkpoint_header


class StagePlan:
    """The checkpoint files of an enhancement, in stage order.

    Building one reads every header: no path raises UsageError, a header
    that ``load_checkpoint`` would reject raises its error, and stages at
    different sample rates raise SampleRateMismatch. A payload's CRC32 is
    checked when ``load`` reads it.
    """

    def __init__(self, paths):
        if not paths:
            raise UsageError("--stages names no checkpoint")
        self.paths = list(paths)
        headers = [read_checkpoint_header(p) for p in self.paths]
        self.sample_rate_hz = shared_sample_rate(headers, "stages")
        self.payload_bytes = max(h.payload_bytes for h in headers)
        # The SHA-256 of each stage's first load (None until then).
        self.sha256: list[str | None] = [None] * len(self.paths)

    def __len__(self):
        return len(self.paths)

    def load(self, k: int) -> Checkpoint:
        """Stage k's checkpoint, read now. A file whose bytes differ from
        those of stage k's first load raises CheckpointChanged, so one run
        uses one model per stage."""
        stage = load_checkpoint(self.paths[k])
        if self.sha256[k] is None:
            self.sha256[k] = stage.sha256
        elif stage.sha256 != self.sha256[k]:
            raise CheckpointChanged(
                f"stage {k + 1} checkpoint {self.paths[k]} changed during the run"
            )
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


def _chunks(entries: list[ManifestEntry], plan: StagePlan, threads: int):
    """Runs of consecutive entry indices whose speech estimates (float32,
    ``duration_s`` at the plan's rate) fit in the largest stage's payload
    bytes, so the estimates held between stages never outweigh a second
    resident stage. A chunk holds at least ``threads`` entries (or all that
    remain), so every thread has a file."""
    chunk, size = [], 0.0
    for i, entry in enumerate(entries):
        nbytes = 4.0 * entry.duration_s * plan.sample_rate_hz
        if len(chunk) >= threads and size + nbytes > plan.payload_bytes:
            yield chunk
            chunk, size = [], 0.0
        chunk.append(i)
        size += nbytes
    if chunk:
        yield chunk


def enhance_batch(
    plan: StagePlan, manifest: Manifest, out_dir, threads=1, allow_resample=False
) -> BatchReport:
    """Enhance every manifest entry into <stem>.enhanced.wav under out_dir.

    The entries run in chunks (``_chunks``). For each chunk every stage is
    loaded in turn and run over the chunk's files on ``threads`` threads;
    each speech estimate is kept as a float32 array for the next stage, and
    the last stage's pass writes the outputs. Every stage loads at least
    once, so an empty manifest still checks every payload and records every
    digest (``plan.sha256``).

    Failures are recorded per entry without aborting the rest; a file that
    fails goes through no later stage. A stage that fails to load raises,
    before the outputs of its chunk are written. Also writes an
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
    rate, last = plan.sample_rate_hz, len(plan) - 1
    errors: list[str | None] = [None] * len(entries)
    estimates: list[np.ndarray | None] = [None] * len(entries)

    def run(i: int) -> None:
        # Reads the stage through the enclosing name, so that no worker
        # holds it once the pass is over.
        try:
            if k == 0:
                wave = _read_input(manifest.resolve(entries[i]), rate, allow_resample)
            else:
                wave = Waveform(estimates[i], rate)
                estimates[i] = None
            out = enhance([stage], wave)
            if k == last:
                write_wav(out_dir / names[i], out)
            else:  # exact: the samples are float32 values
                estimates[i] = out.samples.astype(np.float32)
        except Exception as exc:  # per-file isolation is the contract
            errors[i] = str(exc)

    with ThreadPoolExecutor(max_workers=threads) as pool:
        for chunk in list(_chunks(entries, plan, threads)) or [[]]:
            for k in range(len(plan)):
                stage = plan.load(k)
                list(pool.map(run, [i for i in chunk if errors[i] is None]))
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
