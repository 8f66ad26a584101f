"""Single-stage and multi-stage enhancement pipelines.

A plan is an ordered list of models; each stage feeds its speech estimate to
the next, so an n-stage plan equals n chained single-stage calls bit-exactly.
Every stage runs in float32: checkpoints store float32, so loading is exact,
and a no-grad float32 forward is about twice as fast as float64.
"""
from __future__ import annotations

import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .audio import Waveform, write_wav
from .autodiff import no_grad
from .corpus import Manifest, ManifestEntry, write_manifest
from .errors import SampleRateMismatch, UsageError
from .model import DenoiserModel, load_checkpoint, model_from_checkpoint


@dataclass
class InferencePlan:
    """Ordered enhancement stages plus where each model came from.

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
        paths = [Path(p) for p in paths]
        ckpts = [load_checkpoint(p) for p in paths]
        rates = {c.sample_rate_hz for c in ckpts}
        if len(rates) != 1:
            raise SampleRateMismatch(f"stages disagree on sample rate: {sorted(rates)}")
        models = [model_from_checkpoint(c) for c in ckpts]
        return cls(models, [str(p) for p in paths], rates.pop())

    @property
    def num_stages(self) -> int:
        return len(self.models)


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


@dataclass
class FileResult:
    id: str
    output_path: str | None
    stages: int
    seconds: float
    error: str | None = None


@dataclass
class BatchReport:
    results: list[FileResult] = field(default_factory=list)
    failures: list[str] = field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            "results": [
                {
                    "id": r.id,
                    "output_path": r.output_path,
                    "stages": r.stages,
                    "seconds": r.seconds,
                    "error": r.error,
                }
                for r in self.results
            ],
            "failures": self.failures,
        }


def enhance_batch(plan: InferencePlan, manifest: Manifest, out_dir, threads: int = 1) -> BatchReport:
    """Enhance every manifest entry into <stem>.enhanced.wav under out_dir.

    Failures are recorded per entry without aborting the rest. Also writes an
    "enhanced"-role manifest next to the outputs so evaluation can pair files
    by id. Two entries whose paths share a stem would write the same output,
    so that is a UsageError, raised before anything is written.
    """
    from .audio import read_wav

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
        t0 = time.perf_counter()
        out_path = out_dir / name
        try:
            wave = read_wav(manifest.resolve(entry))
            enhanced = enhance(plan, wave)
            write_wav(out_path, enhanced)
        except Exception as exc:  # per-file isolation is the contract
            return FileResult(entry.id, None, plan.num_stages, time.perf_counter() - t0, str(exc))
        return FileResult(entry.id, str(out_path), plan.num_stages, time.perf_counter() - t0)

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
