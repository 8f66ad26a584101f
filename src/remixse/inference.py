"""Single-stage and multi-stage enhancement pipelines.

A plan is an ordered list of models; each stage feeds its speech estimate to
the next, so an n-stage plan equals n chained single-stage calls bit-exactly.
Every stage runs in float32: checkpoints store float32, so loading is exact,
and a no-grad float32 forward is about twice as fast as float64.

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
from .corpus import Manifest, ManifestEntry, write_manifest
from .errors import SampleRateMismatch, UsageError
from .model import DenoiserModel, load_checkpoint


@dataclass
class InferencePlan:
    """Ordered enhancement stages plus where each model came from: the
    SHA-256 of its checkpoint file (``from_checkpoints``) or a label.

    The models are cast to float32 once, here.
    """

    models: list[DenoiserModel]
    sources: list[str]
    sample_rate_hz: int = 16_000

    def __post_init__(self):
        if not self.models:
            raise ValueError("a plan needs at least one stage")
        if len(self.models) != len(self.sources):
            raise ValueError("models and sources must align")
        self.models = [model.astype(np.float32) for model in self.models]

    @classmethod
    def from_checkpoints(cls, paths) -> "InferencePlan":
        ckpts = [load_checkpoint(p) for p in paths]
        rates = {c.sample_rate_hz for c in ckpts}
        if len(rates) != 1:
            raise SampleRateMismatch(f"stages disagree on sample rate: {sorted(rates)}")
        return cls([c.model for c in ckpts], [c.sha256 for c in ckpts], rates.pop())


def enhance(plan: InferencePlan, noisy: Waveform) -> Waveform:
    """Run every stage in order on the speech estimate; length is preserved."""
    if noisy.sample_rate_hz != plan.sample_rate_hz:
        raise SampleRateMismatch(
            f"waveform at {noisy.sample_rate_hz} Hz, plan expects {plan.sample_rate_hz} Hz"
        )
    samples = noisy.samples
    with no_grad():
        for model in plan.models:
            samples = model.apply(samples[None, :]).data[0]
    return Waveform(samples, noisy.sample_rate_hz)


def enhance_file(plan: InferencePlan, in_path, out_path, allow_resample: bool) -> None:
    """Enhance the WAV at in_path into out_path, creating its directory.

    Input at another rate than the plan's raises SampleRateMismatch, before
    anything is created, unless allow_resample: then it is resampled to the
    plan's rate first.
    """
    wave = read_wav(in_path)
    if wave.sample_rate_hz != plan.sample_rate_hz:
        if not allow_resample:
            raise SampleRateMismatch(
                f"{in_path}: {wave.sample_rate_hz} Hz input vs {plan.sample_rate_hz} Hz model; "
                f"pass --resample to convert"
            )
        wave = resample(wave, plan.sample_rate_hz, wave.sample_rate_hz)
    Path(out_path).parent.mkdir(parents=True, exist_ok=True)
    write_wav(out_path, enhance(plan, wave))


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
    plan: InferencePlan, manifest: Manifest, out_dir, threads: int = 1, allow_resample: bool = False
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
    out_dir.mkdir(parents=True, exist_ok=True)
    report = BatchReport()

    def process(entry: ManifestEntry, name: str) -> FileResult:
        out_path = out_dir / name
        try:
            enhance_file(plan, manifest.resolve(entry), out_path, allow_resample)
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
