#!/usr/bin/env python3
"""remixse benchmark: one workload through the user's path, measured.

    python3 perfbench/run.py --workload train-paper --seed 1 --seconds 60 --trace 0

Run from anywhere inside a checkout; the benchmark imports remixse from the
checkout's ``src/`` and calls ``remixse.cli.main`` in-process, one command
after another (a closed loop with one client):

    synth -> bootstrap -> distill -> enhance -> evaluate

``--seed`` makes the corpora (``remixse synth``) and seeds the trainers; the
program sees only the generated files. A run synthesizes the corpora, then
does TRAIN_ROUNDS training rounds (bootstrap then distill, fresh outputs
each round), then enhancement rounds (enhance then evaluate) until
``--seconds`` have passed since set-up, at least one.

- The training round count is fixed because the first round runs on a cold
  heap and later ones do not; a speed-dependent count would mix the two
  differently on a faster commit.
- A set-up sample is SETUP_BATCH set-ups back to back, and its value the
  mean of one. A sample is taken before the first round and after every
  round, at least SETUP_REPEATS in all, and their median reported. The
  samples are spread over the run because the VM's speed changes over
  seconds to minutes.
- Each ``enhance`` runs in a fresh process (``oneshot.py``), as a user runs
  it, which gives enhancement's own peak memory; this process's peak is
  training's. ``evaluate`` runs in this process.
- In the traced run ``enhance`` runs in this process, so that its spans are
  recorded, and after all training. ``autodiff.no_grad`` is not
  thread-safe, and an ``enhance --threads N`` can leave graph recording off
  for the rest of the process, which would silently turn later training in
  the same process into zero-gradient steps. The traced run counts that race
  (``model.apply.graph_in_enhance``, ``autodiff.graph_ops_in_enhance``,
  ``autodiff.grad_enabled_after_enhance``).

``--trace 0`` prints the end-to-end metrics: set-up and enhancement's peak
memory are medians over the run, throughput and RTF pool all its rounds.
``--trace 1`` installs the span wrappers of ``tracer.py``, traces one set-up
sample, one training round and one enhancement round (it does not fill
``--seconds``), and prints the per-layer metrics: totals over what was
traced, and the tracing overhead as traced wall time over the same minus the
spans' calibrated cost (see ``tracer.span_cost``).

Every command must exit 0 and every output must check out (see ``Checks``);
the last line of stdout is a JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``. The exit code is 0 only when ``correct`` is true.
A record with the environment, per-round timings, checks and SHA-256 hashes
is written under ``.perfbench_work/results/`` of the checkout.
"""
from __future__ import annotations

import argparse
import hashlib
import io
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import asdict, dataclass
from pathlib import Path
from time import perf_counter

import common

SETUP_REPEATS = 5
SETUP_BATCH = 4
TRAIN_ROUNDS = 2
EPOCHS = 2  # of bootstrap and of distill
HELDOUT_SEED_OFFSET = 1_000_003
RATE = 16_000  # remixse synth's default sample rate
ONESHOT = Path(__file__).resolve().parent / "oneshot.py"
ONESHOT_TIMEOUT_S = 120


@dataclass(frozen=True)
class Workload:
    train_utts: int
    heldout_utts: int
    heldout_dur: float
    batch: int
    segment: int
    strategy: str


# Both workloads use the `paper` preset (18.9 M parameters, x4 resampling),
# whose steps are BLAS and einsum bound, and train on 1 s utterances. They
# differ in step shape: 2 x 16000 gives the LSTM 62 timesteps per layer and
# forward, 4 x 8000 gives it 31 at twice the batch, so a per-timestep LSTM
# change moves train-paper more and a per-sample one moves both alike. The
# `tiny` preset is left out: its steps are Python-loop bound, and on the
# 2-core VM this was tuned on a fixed Python loop ran at two speeds (38 and
# 64 ms) for 10-20 s at a time, so tiny throughput spread 20-30% across
# seeds. The VM's speed also drifts for the `paper` steps, so each run has
# two training rounds of about 18 s (one step per epoch), which sample two
# stretches of time, then enhancement rounds to 60 s in all. Steps took
# 0.90-0.96 of each training command's wall time in traced runs
# (``cli.*.step_share``); checkpoint I/O and model copies take the rest.
WORKLOADS = {
    "train-paper": Workload(
        train_utts=2, heldout_utts=4, heldout_dur=2.0, batch=2, segment=16_000,
        strategy="nytt1",
    ),
    "train-paper-short": Workload(
        train_utts=4, heldout_utts=8, heldout_dur=1.0, batch=4, segment=8_000,
        strategy="nytt3",
    ),
}


class CommandFailed(Exception):
    pass


def sha256_file(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


class Checks:
    """Operations attempted and failed, plus what went wrong.

    Operations are CLI commands, expected output files, training steps,
    enhanced files, scored utterances, and round-to-round determinism
    comparisons.
    """

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def ops(self, kind: str, attempted: int, failed: int, detail: str = "") -> None:
        self.attempted += attempted
        self.failed += failed
        if failed:
            self.problems.append(f"{kind}: {failed}/{attempted} failed {detail}".rstrip())

    def op(self, kind: str, ok: bool, detail: str = "") -> None:
        self.ops(kind, 1, 0 if ok else 1, detail)

    def exists(self, *paths) -> None:
        for path in paths:
            self.op("output", Path(path).is_file(), f"missing {path}")

    def same(self, what: str, reference, value) -> None:
        self.op("determinism", value == reference, f"{what} differs between rounds")

    @property
    def correct(self) -> bool:
        return self.failed == 0


class Bench:
    def __init__(self, name: str, seed: int, work: Path, threads: int):
        import remixse.cli
        from remixse.audio import read_wav
        from remixse.corpus import load_manifest

        self.w = WORKLOADS[name]
        self.seed = seed
        self.work = work
        self.threads = threads
        self.checks = Checks()
        self._cli = remixse.cli.main
        # Bound now, before any tracing wrapper is installed: checks are not
        # part of what is measured.
        self._read_wav = read_wav
        self._load_manifest = load_manifest
        self.hashes: dict[str, object] = {}
        self.heldout: dict[str, float] | None = None
        self.setups = 0

    # -- commands ----------------------------------------------------------

    def cli(self, *argv) -> float:
        argv = [str(a) for a in argv]
        out, err = io.StringIO(), io.StringIO()
        start = perf_counter()
        try:
            with redirect_stdout(out), redirect_stderr(err):
                code = self._cli(argv)
        except (Exception, SystemExit) as exc:  # a traceback is a failed command
            code = f"{type(exc).__name__}: {exc}"
        wall = perf_counter() - start
        self._command(argv, code, err.getvalue().strip())
        return wall

    def cli_fresh(self, *argv) -> tuple[float, float]:
        """Run one command in a fresh process; returns its wall time and the
        process's peak resident MiB."""
        argv = [str(a) for a in argv]
        try:
            proc = subprocess.run([sys.executable, str(ONESHOT), *argv], capture_output=True,
                                  text=True, timeout=ONESHOT_TIMEOUT_S, check=False)
            result = json.loads(proc.stdout.splitlines()[-1])
        except (subprocess.TimeoutExpired, IndexError, ValueError) as exc:
            result = {"code": f"{type(exc).__name__}: {exc}", "stderr": ""}
        else:
            if proc.returncode != 0:
                result["code"] = f"oneshot exited {proc.returncode}: {proc.stderr.strip()}"
        self._command(argv, result["code"], result["stderr"])
        return result["wall_s"], result["peak_rss_mb"]

    def _command(self, argv: list[str], code, stderr: str) -> None:
        detail = f"remixse {' '.join(argv)} -> {code} {stderr}"
        self.checks.op("command", code == 0, detail)
        if code != 0:
            raise CommandFailed(detail)

    # -- set-up --------------------------------------------------------------

    def setup(self) -> float:
        """Synthesize the training and held-out corpora SETUP_BATCH times;
        returns the mean seconds of one set-up."""
        seconds = 0.0
        for _ in range(SETUP_BATCH):
            self.setups += 1
            root = self.work / f"setup{self.setups}"
            start = perf_counter()
            self.cli("synth", "--seed", self.seed, "--num", self.w.train_utts, "--dur", 1.0,
                     "--out", root / "train")
            self.cli("synth", "--seed", self.seed + HELDOUT_SEED_OFFSET, "--num",
                     self.w.heldout_utts, "--dur", self.w.heldout_dur, "--out", root / "heldout")
            seconds += perf_counter() - start
            digest = self._corpus_digest(root)
            if self.setups == 1:
                self.data = root
                self.hashes["corpus"] = digest
                self._heldout_inputs()
            else:
                self.checks.same("synthesized corpus", self.hashes["corpus"], digest)
                shutil.rmtree(root)
        return seconds / SETUP_BATCH

    def _corpus_digest(self, root: Path) -> str:
        digest = hashlib.sha256()
        for path in sorted(root.rglob("*.wav")):
            digest.update(path.relative_to(root).as_posix().encode())
            digest.update(path.read_bytes())
        return digest.hexdigest()

    def _heldout_inputs(self) -> None:
        manifest = self._load_manifest(self.data / "heldout" / "noisy.manifest.jsonl")
        self.heldout_lengths = {e.id: len(self._read_wav(manifest.resolve(e))) for e in manifest}
        self.heldout_audio_s = sum(e.duration_s for e in manifest)

    # -- training ------------------------------------------------------------

    def steps(self, epochs: int) -> int:
        return epochs * (self.w.train_utts // self.w.batch)

    def audio_s(self, steps: int) -> float:
        return steps * self.w.batch * self.w.segment / RATE

    def train_round(self, k: int) -> dict:
        """bootstrap then distill into round<k>/; returns wall times."""
        w, out = self.w, self.work / f"round{k}"
        train = self.data / "train"
        boot, student = out / "bootstrap.ckpt", out / "student.ckpt"
        teacher = out / "student.teacher.ckpt"
        out.mkdir(parents=True)  # bootstrap does not create the --out directory
        common_args = ["--batch-size", w.batch, "--segment", w.segment, "--seed", self.seed]
        boot_s = self.cli(
            "bootstrap", "--noisy", train / "noisy.manifest.jsonl",
            "--ext-noise", train / "noise.manifest.jsonl", "--out", boot,
            "--model", "paper", "--epochs", EPOCHS, *common_args,
        )
        ext = ["--ext-noise", train / "noise.manifest.jsonl"] if w.strategy in (
            "ctt3", "nytt2", "nytt3") else []
        distill_s = self.cli(
            "distill", "--teacher", boot, "--noisy", train / "noisy.manifest.jsonl", *ext,
            "--strategy", w.strategy, "--tup", "ema", "--out", student,
            "--epochs", EPOCHS, *common_args,
        )
        boot_stats, student_stats = out / "bootstrap.stats.jsonl", out / "student.stats.jsonl"
        self.checks.exists(boot, boot_stats, student, teacher, student_stats)
        self._check_losses(boot_stats, EPOCHS)
        self._check_losses(student_stats, EPOCHS)
        digests = {p.name: sha256_file(p) for p in (boot, student, teacher)}
        if k == 0:
            self.hashes["checkpoints"] = digests
            self.ckpts = f"{boot},{student}"
        else:
            self.checks.same("checkpoints", self.hashes["checkpoints"], digests)
            shutil.rmtree(out)
        return {"bootstrap_s": boot_s, "distill_s": distill_s}

    def _check_losses(self, stats_path: Path, epochs: int) -> None:
        expected = self.steps(epochs)
        try:
            rows = [json.loads(line) for line in stats_path.read_text().splitlines() if line]
        except (OSError, ValueError):
            rows = []
        good = sum(int(r["steps"]) for r in rows if math.isfinite(r["mean_loss"]))
        self.checks.ops("training step", expected, max(0, expected - good), f"in {stats_path}")

    # -- enhancement -----------------------------------------------------------

    def enhance_round(self, k: int, fresh: bool) -> dict:
        """enhance the held-out split with the two-stage plan, in a fresh
        process or in this one, then evaluate in this one."""
        out = self.work / f"enhance{k}"
        heldout = self.data / "heldout"
        enhance = ("enhance", "--stages", self.ckpts, "--in", heldout / "noisy.manifest.jsonl",
                   "--out", out, "--threads", self.threads)
        if fresh:
            enhance_s, rss_mb = self.cli_fresh(*enhance)
        else:
            enhance_s, rss_mb = self.cli(*enhance), None
        report = out / "report.json"
        evaluate_s = self.cli(
            "evaluate", "--ref", heldout / "clean.manifest.jsonl",
            "--deg", out / "enhanced.manifest.jsonl", "--report", report,
            "--threads", self.threads,
        )
        self.checks.exists(out / "enhance_report.json", out / "enhanced.manifest.jsonl",
                           report, report.with_suffix(".csv"))
        enhanced = self._check_enhanced(out)
        heldout_means = self._check_report(report)
        if k == 0:
            self.hashes["enhanced"] = enhanced
            self.heldout = heldout_means
        else:
            self.checks.same("enhanced outputs", self.hashes["enhanced"], enhanced)
            self.checks.same("held-out scores", self.heldout, heldout_means)
        shutil.rmtree(out)
        return {"enhance_s": enhance_s, "evaluate_s": evaluate_s, "enhance_peak_rss_mb": rss_mb}

    def _check_enhanced(self, out: Path) -> dict[str, str]:
        """Every input enhanced, finite and as long as its input; returns hashes."""
        import numpy as np

        try:
            report = json.loads((out / "enhance_report.json").read_text())
        except (OSError, ValueError):
            report = {"results": [], "failures": []}
        self.enhance_failures = len(report["failures"])
        by_id = {r["id"]: r for r in report["results"]}
        digests, bad = {}, []
        for uid, length in sorted(self.heldout_lengths.items()):
            result = by_id.get(uid)
            if result is None or result["error"] is not None or uid in report["failures"]:
                bad.append(uid)
                continue
            path = Path(result["output_path"])
            try:
                samples = self._read_wav(path).samples
            except Exception:  # an unreadable output is a failed file
                bad.append(uid)
                continue
            if len(samples) != length or not np.all(np.isfinite(samples)):
                bad.append(uid)
            digests[uid] = sha256_file(path)
        self.checks.ops("enhanced file", len(self.heldout_lengths), len(bad), str(bad))
        return digests

    def _check_report(self, report_path: Path) -> dict[str, float]:
        """Every held-out utterance paired and scored with finite values."""
        try:
            report = json.loads(report_path.read_text())
        except (OSError, ValueError):
            report = {"utterances": [], "unpaired": {"ref": [], "deg": []}, "mean": {}}
        scored = {
            u["id"] for u in report["utterances"]
            if all(isinstance(u[m], float) and math.isfinite(u[m]) for m in ("stoi", "si_sdr_db"))
        }
        missing = sorted(set(self.heldout_lengths) - scored)
        unpaired = report["unpaired"]["deg"]
        self.checks.ops("scored utterance", len(self.heldout_lengths), len(missing) + len(unpaired),
                        str(missing + unpaired))
        mean = report["mean"]
        return {"heldout_sisdr_db": mean.get("si_sdr_db"), "heldout_stoi": mean.get("stoi")}


# ---------------------------------------------------------------------------
# the two run modes
# ---------------------------------------------------------------------------

def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def measure(bench: Bench, seconds: float) -> tuple[dict, dict]:
    """End-to-end metrics over all rounds of this run.

    Throughput and RTF pool the rounds (total audio over total wall time)
    instead of taking their median: on the 2-core VM this was tuned on, a
    fixed Python loop ran at two speeds, 38 and 64 ms, switching every few
    seconds, and a median over rounds snaps to one of the two.
    """
    setup = [bench.setup()]
    rss = {"setup": peak_rss_mb()}
    start = perf_counter()
    train, enhance = [], []
    for k in range(TRAIN_ROUNDS):
        train.append(bench.train_round(k))
        setup.append(bench.setup())
    rss["train"] = peak_rss_mb()
    while not enhance or perf_counter() + max(r["wall"] for r in enhance) <= start + seconds:
        t0 = perf_counter()
        enhance.append(bench.enhance_round(len(enhance), fresh=True))
        setup.append(bench.setup())
        enhance[-1]["wall"] = perf_counter() - t0
    while len(setup) < SETUP_REPEATS:
        setup.append(bench.setup())
    rss["end"] = peak_rss_mb()
    audio = bench.audio_s(bench.steps(EPOCHS)) * len(train)  # per command, both commands
    metrics = {
        "setup_s": statistics.median(setup),
        "bootstrap_audio_s_per_s": audio / sum(r["bootstrap_s"] for r in train),
        "distill_audio_s_per_s": audio / sum(r["distill_s"] for r in train),
        "enhance_rtf": sum(r["enhance_s"] for r in enhance) / (bench.heldout_audio_s * len(enhance)),
        "peak_rss_mb": rss["end"],
        "enhance_peak_rss_mb": statistics.median(r["enhance_peak_rss_mb"] for r in enhance),
    }
    rounds = {"setup_s": setup, "train": train, "enhance": enhance, "peak_rss_mb": rss,
              "measured_s": perf_counter() - start}
    return metrics, rounds


def trace(bench: Bench, results: Path, stem: str) -> tuple[dict, dict]:
    """Per-layer metrics from a traced set-up sample, first training round
    and first enhancement round: the first rounds of an untraced run."""
    import remixse.autodiff as ad
    import tracer as tracing

    tracer = tracing.Tracer()
    tracing.install(tracer)
    tracer.enabled = True
    start = perf_counter()
    bench.setup()
    bench.train_round(0)
    # The first threaded enhance of the process: the no_grad race is seen
    # where a user would meet it.
    bench.enhance_round(0, fresh=False)
    wall = perf_counter() - start
    tracer.enabled = False

    metrics = tracing.layer_metrics(tracer, bench.threads)
    metrics["autodiff.grad_enabled_after_enhance"] = int(ad.grad_enabled())
    metrics["inference.files_failed"] = bench.enhance_failures
    cost = tracing.span_cost()
    metrics["trace.overhead_ratio"] = wall / (wall - cost * len(tracer.spans))
    tracer.write_spans(results / f"{stem}.spans.jsonl")
    return metrics, {"traced_s": wall, "spans": len(tracer.spans), "span_cost_s": cost}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--results", default=str(common.WORK / "results"),
                        help="directory for the run record (default: .perfbench_work/results)")
    args = parser.parse_args(argv)

    inherited = common.pin_blas_threads()
    common.import_remixse()
    spec = common.load_benchmark()
    kind = "per_layer" if args.trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in spec[kind]}

    threads = common.nproc()
    results = Path(args.results)
    results.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}.seed{args.seed}.trace{args.trace}.{os.getpid()}"
    work = common.WORK / stem
    bench = Bench(args.workload, args.seed, work, threads)
    metrics, rounds = {}, {}
    try:
        if args.trace:
            metrics, rounds = trace(bench, results, stem)
        else:
            metrics, rounds = measure(bench, args.seconds)
    except CommandFailed:
        pass  # already counted; the remaining commands depend on its outputs
    finally:
        shutil.rmtree(work, ignore_errors=True)

    checks = bench.checks
    summary = dict(bench.heldout or {})
    summary["error_rate"] = checks.failed / max(1, checks.attempted)
    if args.trace:
        metrics.update(summary)
    correct = checks.correct and set(metrics) >= set(units)
    record = {
        "workload": args.workload,
        "why": next(w["why"] for w in spec["workloads"] if w["name"] == args.workload),
        "config": {**asdict(bench.w), "epochs": EPOCHS, "train_rounds": TRAIN_ROUNDS,
                   "setup_batch": SETUP_BATCH},
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "threads": threads,
        "environment": common.environment_record(inherited),
        "correct": correct,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "problems": checks.problems,
        "metrics": metrics,
        "summary": summary,
        "rounds": rounds,
        "hashes": bench.hashes,
    }
    with open(results / f"{stem}.json", "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=2, sort_keys=True)

    shown = {**metrics, **summary}
    all_units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    for name, value in sorted(shown.items()):
        if value is not None:
            print(f"{args.workload} {name} = {value:.6g} {all_units[name]}")
    for problem in record["problems"]:
        print(f"FAILED {problem}")
    print(json.dumps({
        "correct": correct,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": {n: {"value": metrics[n], "unit": u} for n, u in units.items() if n in metrics},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
