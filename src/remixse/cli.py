"""Command-line interface: synth, bootstrap, distill, enhance, evaluate.

Options resolve as: explicit flags > config file (flat key=value lines with
section prefixes, e.g. ``train.epochs=35``) > built-in defaults. Every
command echoes its fully resolved configuration plus input hashes into the
output directory. Exit codes: 0 success, 2 usage/config error, 3 runtime
failure.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
from pathlib import Path
from types import SimpleNamespace

from . import corpus as corpus_mod
from . import distill as distill_mod
from . import inference as inference_mod
from . import metrics as metrics_mod
from .audio import DEFAULT_SAMPLE_RATE, read_wav, resample, write_wav
from .errors import RemixSEError, SampleRateMismatch, UsageError
from .model import (
    PAPER_CONFIG,
    TINY_CONFIG,
    ModelConfig,
    init_model,
    load_checkpoint,
    model_from_checkpoint,
    model_to_checkpoint,
    save_checkpoint,
)

_MODEL_PRESETS = {"tiny": TINY_CONFIG, "paper": PAPER_CONFIG}

DEFAULTS = {
    "synth": {
        "seed": 0,
        "num": 16,
        "dur": 1.0,
        "sr": DEFAULT_SAMPLE_RATE,
        "snr_lo": 0.0,
        "snr_hi": 10.0,
        "out": None,
        "force": False,
    },
    "bootstrap": {
        "noisy": None,
        "ext_noise": None,
        "out": None,
        "stats": None,
        "loss": "mae",
        "epochs": 500,
        "batch_size": 8,
        "segment": 16_000,
        "lr": 3e-4,
        "snr_lo": -5.0,
        "snr_hi": 5.0,
        "seed": 0,
        "model": "tiny",
        "depth": None,
        "hidden": None,
        "kernel": None,
        "stride": None,
        "resample_factor": None,
        "shift": True,
        "remix": True,
        "bandmask": True,
        "shift_max": 4_000,
        "bandmask_frac": 0.2,
        "force": False,
    },
    "distill": {
        "teacher": None,
        "noisy": None,
        "ext_noise": None,
        "out": None,
        "stats": None,
        "strategy": "nytt1",
        "tup": "static",
        "gamma": 0.005,
        "epochs": None,  # 500 static / 35 ema when unset
        "loss": "mae",
        "batch_size": 8,
        "segment": 16_000,
        "lr": 3e-4,
        "snr_lo": -5.0,
        "snr_hi": 5.0,
        "seed": 0,
        "augment": False,
        "shift_max": 4_000,
        "bandmask_frac": 0.2,
        "force": False,
    },
    "enhance": {
        "stages": None,
        "inp": None,
        "out": None,
        "resample": False,
        "threads": None,
        "force": False,
    },
    "evaluate": {
        "ref": None,
        "deg": None,
        "metrics": "stoi,sisdr",
        "pesq_csv": None,
        "report": None,
        "threads": None,
        "force": False,
    },
}

# config-file key -> argument dest, per command
CONFIG_KEYS = {
    "synth": {
        "synth.seed": "seed",
        "synth.num": "num",
        "synth.dur": "dur",
        "synth.sr": "sr",
        "synth.snr_lo": "snr_lo",
        "synth.snr_hi": "snr_hi",
    },
    "bootstrap": {
        "train.loss": "loss",
        "train.epochs": "epochs",
        "train.batch_size": "batch_size",
        "train.segment": "segment",
        "train.lr": "lr",
        "train.snr_lo": "snr_lo",
        "train.snr_hi": "snr_hi",
        "train.seed": "seed",
        "train.shift": "shift",
        "train.remix": "remix",
        "train.bandmask": "bandmask",
        "train.shift_max": "shift_max",
        "train.bandmask_frac": "bandmask_frac",
        "model.preset": "model",
        "model.depth": "depth",
        "model.hidden": "hidden",
        "model.kernel": "kernel",
        "model.stride": "stride",
        "model.resample": "resample_factor",
    },
    "distill": {
        "train.loss": "loss",
        "train.epochs": "epochs",
        "train.batch_size": "batch_size",
        "train.segment": "segment",
        "train.lr": "lr",
        "train.snr_lo": "snr_lo",
        "train.snr_hi": "snr_hi",
        "train.seed": "seed",
        "train.strategy": "strategy",
        "train.tup": "tup",
        "train.gamma": "gamma",
        "train.augment": "augment",
        "train.shift_max": "shift_max",
        "train.bandmask_frac": "bandmask_frac",
    },
    "enhance": {"enhance.threads": "threads", "enhance.resample": "resample"},
    "evaluate": {"eval.metrics": "metrics", "eval.threads": "threads"},
}


def _coerce(text: str, default):
    if isinstance(default, bool):
        return text.strip().lower() in ("1", "true", "yes", "on")
    if isinstance(default, int) and not isinstance(default, bool):
        return int(text)
    if isinstance(default, float):
        return float(text)
    return text


def _parse_config_file(path) -> dict[str, str]:
    cfg: dict[str, str] = {}
    path = Path(path)
    if not path.exists():
        raise UsageError(f"config file not found: {path}")
    for lineno, raw in enumerate(path.read_text(encoding="utf-8").splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise UsageError(f"{path}:{lineno}: expected key=value, got {line!r}")
        key, _, value = line.partition("=")
        cfg[key.strip()] = value.strip()
    return cfg


def _resolve(command: str, namespace: argparse.Namespace) -> SimpleNamespace:
    resolved = dict(DEFAULTS[command])
    provided = {k: v for k, v in vars(namespace).items() if k not in ("command", "config")}
    config_path = getattr(namespace, "config", None)
    if config_path:
        file_cfg = _parse_config_file(config_path)
        known = CONFIG_KEYS.get(command, {})
        for key, value in file_cfg.items():
            if key in known:
                dest = known[key]
                resolved[dest] = _coerce(value, DEFAULTS[command].get(dest))
    resolved.update(provided)
    return SimpleNamespace(**resolved)


def _sha256(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def _check_outputs(force: bool, *paths) -> None:
    """Refuse existing outputs unless --force; nothing is deleted up front, so
    a run that fails leaves the old outputs as they were."""
    existing = [str(p) for p in paths if p is not None and Path(p).exists()]
    if existing and not force:
        raise UsageError(f"refusing to overwrite {existing}; pass --force")


def _build_config(factory, *args, **kwargs):
    """Construct a config object; a ValueError from its checks is a usage error."""
    try:
        return factory(*args, **kwargs)
    except ValueError as exc:
        raise UsageError(f"invalid configuration: {exc}") from exc


def _echo_resolved(out_dir, command: str, resolved: SimpleNamespace, hashes: dict[str, str]) -> None:
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    reverse = {dest: key for key, dest in CONFIG_KEYS.get(command, {}).items()}
    lines = []
    for dest, value in sorted(vars(resolved).items()):
        key = reverse.get(dest, f"{command}.{dest}")
        lines.append(f"{key}={value}")
    for name, digest in sorted(hashes.items()):
        lines.append(f"hash.{name}={digest}")
    (out_dir / "resolved.cfg").write_text("\n".join(lines) + "\n", encoding="utf-8")


def _model_config(args: SimpleNamespace) -> ModelConfig:
    base = _MODEL_PRESETS.get(args.model)
    if base is None:
        raise UsageError(f"unknown model preset {args.model!r}")
    overrides = {}
    if args.depth is not None:
        overrides["depth"] = args.depth
    if args.hidden is not None:
        overrides["hidden"] = args.hidden
    if args.kernel is not None:
        overrides["kernel_size"] = args.kernel
    if args.stride is not None:
        overrides["stride"] = args.stride
    if args.resample_factor is not None:
        overrides["resample"] = args.resample_factor
    if not overrides:
        return base
    from dataclasses import replace

    return _build_config(replace, base, **overrides)


def _threads(args: SimpleNamespace) -> int:
    if args.threads is not None:
        return max(1, int(args.threads))
    return max(1, int(os.environ.get("REMIXSE_THREADS", "1")))


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def cmd_synth(args: SimpleNamespace) -> int:
    if args.out is None:
        raise UsageError("--out is required")
    spec = _build_config(
        corpus_mod.SynthSpec,
        seed=args.seed,
        num_utterances=args.num,
        duration_s=args.dur,
        sample_rate=args.sr,
        snr_low_db=args.snr_lo,
        snr_high_db=args.snr_hi,
    )
    out_dir = Path(args.out)
    _check_outputs(
        args.force,
        out_dir / "noisy.manifest.jsonl",
        out_dir / "noise.manifest.jsonl",
        out_dir / "clean.manifest.jsonl",
    )
    noisy_path, noise_path, clean_path, _ = corpus_mod.synth_corpus(spec, out_dir)
    hashes = {
        "noisy_corpus": corpus_mod.corpus_hash(corpus_mod.load_manifest(noisy_path)),
        "noise_corpus": corpus_mod.corpus_hash(corpus_mod.load_manifest(noise_path)),
        "clean_corpus": corpus_mod.corpus_hash(corpus_mod.load_manifest(clean_path)),
    }
    _echo_resolved(out_dir, "synth", args, hashes)
    print(f"wrote {args.num} utterances to {out_dir}")
    for name, digest in sorted(hashes.items()):
        print(f"{name} sha256 {digest}")
    return 0


def _train_config(args: SimpleNamespace, strategy=None, tup=None, epochs=None) -> distill_mod.TrainConfig:
    kwargs = dict(
        epochs=epochs if epochs is not None else args.epochs,
        batch_size=args.batch_size,
        segment_samples=args.segment,
        learning_rate=args.lr,
        loss=args.loss,
        snr_low_db=args.snr_lo,
        snr_high_db=args.snr_hi,
        seed=args.seed,
        shift_max_samples=args.shift_max,
        bandmask_fraction=args.bandmask_frac,
    )
    if strategy is not None:
        kwargs["strategy"] = strategy
    if tup is not None:
        kwargs["tup"] = tup
    if hasattr(args, "shift"):
        kwargs.update(shift=args.shift, remix=args.remix, bandmask=args.bandmask)
    if getattr(args, "augment", False):
        kwargs.update(augment_in_distill=True, shift=True, bandmask=True)
    return _build_config(distill_mod.TrainConfig, **kwargs)


def cmd_bootstrap(args: SimpleNamespace) -> int:
    for flag in ("noisy", "ext_noise", "out"):
        if getattr(args, flag) is None:
            raise UsageError(f"--{flag.replace('_', '-')} is required")
    out_path = Path(args.out)
    stats_path = Path(args.stats) if args.stats else out_path.with_suffix(".stats.jsonl")
    _check_outputs(args.force, out_path, stats_path)
    config = _train_config(args)
    model_config = _model_config(args)

    noisy_manifest = corpus_mod.load_manifest(args.noisy)
    noise_manifest = corpus_mod.load_manifest(args.ext_noise)
    noisy = corpus_mod.load_corpus(noisy_manifest, expect_role="noisy")
    ext = corpus_mod.load_corpus(noise_manifest, expect_role="noise")
    rate = noisy[0].sample_rate_hz

    model = init_model(model_config, seed=args.seed)
    model, stats = distill_mod.bootstrap_nytt(noisy, ext, model, config, sample_rate_hz=rate)

    save_checkpoint(
        out_path,
        model_to_checkpoint(model, epoch=config.epochs, seed=args.seed, sample_rate_hz=rate),
    )
    distill_mod.write_stats(stats_path, stats)
    _echo_resolved(
        out_path.parent,
        "bootstrap",
        args,
        {
            "noisy_corpus": corpus_mod.corpus_hash(noisy_manifest),
            "noise_corpus": corpus_mod.corpus_hash(noise_manifest),
            "checkpoint": _sha256(out_path),
        },
    )
    print(f"bootstrap done: {config.epochs} epochs, final loss {stats.epochs[-1].mean_loss:.6f}")
    print(f"checkpoint {out_path}")
    return 0


def cmd_distill(args: SimpleNamespace) -> int:
    for flag in ("teacher", "noisy", "out"):
        if getattr(args, flag) is None:
            raise UsageError(f"--{flag} is required")
    strategy = distill_mod.MixStrategy(args.strategy)
    if args.tup == "ema":
        tup = _build_config(distill_mod.TeacherUpdateProtocol.ema, args.gamma)
    else:
        tup = distill_mod.TeacherUpdateProtocol.static()
    epochs = args.epochs if args.epochs is not None else (35 if tup.kind == "ema" else 500)
    if strategy.needs_ext_noise and args.ext_noise is None:
        raise UsageError(f"--ext-noise is required for strategy {strategy.value}")
    if not strategy.needs_ext_noise and args.ext_noise is not None:
        raise UsageError(f"strategy {strategy.value} does not take --ext-noise")

    out_path = Path(args.out)
    teacher_out = out_path.with_name(out_path.stem + ".teacher" + out_path.suffix)
    stats_path = Path(args.stats) if args.stats else out_path.with_suffix(".stats.jsonl")
    outputs = [out_path, stats_path] + ([teacher_out] if tup.kind == "ema" else [])
    _check_outputs(args.force, *outputs)
    config = _train_config(args, strategy=strategy, tup=tup, epochs=epochs)

    teacher_ckpt = load_checkpoint(args.teacher)
    teacher = model_from_checkpoint(teacher_ckpt)
    rate = teacher_ckpt.sample_rate_hz

    noisy_manifest = corpus_mod.load_manifest(args.noisy)
    noisy = corpus_mod.load_corpus(noisy_manifest, expect_role="noisy")
    hashes = {
        "noisy_corpus": corpus_mod.corpus_hash(noisy_manifest),
        "teacher_checkpoint": _sha256(args.teacher),
    }
    ext = None
    if strategy.needs_ext_noise:
        noise_manifest = corpus_mod.load_manifest(args.ext_noise)
        ext = corpus_mod.load_corpus(noise_manifest, expect_role="noise")
        hashes["noise_corpus"] = corpus_mod.corpus_hash(noise_manifest)

    result = distill_mod.distill(teacher, noisy, ext, config, sample_rate_hz=rate)

    save_checkpoint(
        out_path,
        model_to_checkpoint(result.student, epoch=epochs, seed=args.seed, sample_rate_hz=rate),
    )
    if tup.kind == "ema":
        save_checkpoint(
            teacher_out,
            model_to_checkpoint(result.teacher, epoch=epochs, seed=args.seed, sample_rate_hz=rate),
        )
        print(f"combined teacher checkpoint {teacher_out}")
    distill_mod.write_stats(stats_path, result.stats)
    hashes["checkpoint"] = _sha256(out_path)
    _echo_resolved(out_path.parent, "distill", args, hashes)
    print(
        f"distill done: {strategy.value}+{tup.kind}, {epochs} epochs, "
        f"final loss {result.stats.epochs[-1].mean_loss:.6f}"
    )
    print(f"student checkpoint {out_path}")
    return 0


def _load_input_wave(path, plan, allow_resample: bool):
    wave = read_wav(path)
    if wave.sample_rate_hz != plan.sample_rate_hz:
        if not allow_resample:
            raise SampleRateMismatch(
                f"{path}: {wave.sample_rate_hz} Hz input vs {plan.sample_rate_hz} Hz model; "
                f"pass --resample to convert"
            )
        wave = resample(wave, plan.sample_rate_hz, wave.sample_rate_hz)
    return wave


def cmd_enhance(args: SimpleNamespace) -> int:
    for flag in ("stages", "inp", "out"):
        if getattr(args, flag) is None:
            raise UsageError("--stages, --in and --out are required")
    plan = inference_mod.InferencePlan.from_checkpoints(
        [p for p in str(args.stages).split(",") if p]
    )
    in_path = Path(args.inp)
    if in_path.suffix.lower() == ".wav":
        _check_outputs(args.force, args.out)
        wave = _load_input_wave(in_path, plan, args.resample)
        enhanced = inference_mod.enhance(plan, wave)
        write_wav(args.out, enhanced)
        print(f"enhanced {in_path} -> {args.out} ({plan.num_stages} stages)")
        return 0
    manifest = corpus_mod.load_manifest(in_path)
    out_dir = Path(args.out)
    _check_outputs(args.force, out_dir / "enhance_report.json")
    report = inference_mod.enhance_batch(plan, manifest, out_dir, threads=_threads(args))
    with open(out_dir / "enhance_report.json", "w", encoding="utf-8") as fh:
        json.dump(report.to_dict(), fh, sort_keys=True, indent=2)
    _echo_resolved(
        out_dir,
        "enhance",
        args,
        {"input_corpus": corpus_mod.corpus_hash(manifest), "stages": _sha256_list(plan.sources)},
    )
    ok = len(report.results) - len(report.failures)
    print(f"enhanced {ok}/{len(report.results)} files into {out_dir}")
    if report.failures:
        print(f"failures: {', '.join(report.failures)}")
    return 0


def _sha256_list(paths) -> str:
    return ",".join(_sha256(p) for p in paths)


def cmd_evaluate(args: SimpleNamespace) -> int:
    for flag in ("ref", "deg", "report"):
        if getattr(args, flag) is None:
            raise UsageError("--ref, --deg and --report are required")
    names = [m.strip() for m in str(args.metrics).split(",") if m.strip()]
    mapping = {"stoi": "stoi", "sisdr": "si_sdr", "si_sdr": "si_sdr"}
    try:
        selected = tuple(mapping[m] for m in names)
    except KeyError as exc:
        raise UsageError(f"unknown metric {exc.args[0]!r}") from exc

    report_path = Path(args.report)
    csv_path = report_path.with_suffix(".csv")
    _check_outputs(args.force, report_path, csv_path)
    ref = corpus_mod.load_manifest(args.ref)
    deg = corpus_mod.load_manifest(args.deg)
    pesq_values = metrics_mod.read_pesq_csv(args.pesq_csv) if args.pesq_csv else None
    # Basenames only: reports from identical runs in different directories
    # must be byte-identical; the corpus hash is the real identifier.
    metadata = {
        "ref_manifest": Path(args.ref).name,
        "deg_manifest": Path(args.deg).name,
        "corpus_hash": corpus_mod.corpus_hash(ref),
        "metrics": list(selected),
        "models": None,
        "stage_plan": None,
    }
    report = metrics_mod.evaluate_manifest(
        ref, deg, metrics=selected, pesq_values=pesq_values, metadata=metadata,
        threads=_threads(args),
    )
    report_path.parent.mkdir(parents=True, exist_ok=True)
    report.write_json(report_path)
    report.write_csv(csv_path)
    _echo_resolved(report_path.parent, "evaluate", args, {"ref_corpus": metadata["corpus_hash"]})
    means = report.to_dict()["mean"]
    print(f"evaluated {len(report.utterances)} pairs -> {report_path}")
    for key in ("stoi", "si_sdr_db", "pesq"):
        if means[key] is not None:
            print(f"mean {key} {means[key]:.4f}")
    if report.unpaired_ref or report.unpaired_deg:
        print(f"unpaired: ref={report.unpaired_ref} deg={report.unpaired_deg}")
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="remixse", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    S = argparse.SUPPRESS

    p = sub.add_parser("synth", help="generate a deterministic synthetic corpus")
    p.add_argument("--seed", type=int, default=S)
    p.add_argument("--num", type=int, default=S, help="utterances per family")
    p.add_argument("--dur", type=float, default=S, help="utterance length in seconds")
    p.add_argument("--sr", type=int, default=S)
    p.add_argument("--snr-lo", dest="snr_lo", type=float, default=S)
    p.add_argument("--snr-hi", dest="snr_hi", type=float, default=S)
    p.add_argument("--out", required=True)

    p = sub.add_parser("bootstrap", help="train the initial model on noisy targets")
    p.add_argument("--noisy", required=True, help="noisy-speech manifest")
    p.add_argument("--ext-noise", dest="ext_noise", required=True, help="extraneous-noise manifest")
    p.add_argument("--out", required=True, help="output checkpoint path")
    p.add_argument("--stats", default=S)
    p.add_argument("--loss", choices=["mae", "mse"], default=S)
    p.add_argument("--epochs", type=int, default=S)
    p.add_argument("--batch-size", dest="batch_size", type=int, default=S)
    p.add_argument("--segment", type=int, default=S, help="training segment length in samples")
    p.add_argument("--lr", type=float, default=S)
    p.add_argument("--snr-lo", dest="snr_lo", type=float, default=S)
    p.add_argument("--snr-hi", dest="snr_hi", type=float, default=S)
    p.add_argument("--seed", type=int, default=S)
    p.add_argument("--model", choices=["tiny", "paper"], default=S)
    p.add_argument("--depth", type=int, default=S)
    p.add_argument("--hidden", type=int, default=S)
    p.add_argument("--kernel", type=int, default=S)
    p.add_argument("--stride", type=int, default=S)
    p.add_argument("--resample-factor", dest="resample_factor", type=int, default=S)
    p.add_argument("--no-shift", dest="shift", action="store_false", default=S)
    p.add_argument("--no-remix", dest="remix", action="store_false", default=S)
    p.add_argument("--no-bandmask", dest="bandmask", action="store_false", default=S)
    p.add_argument("--shift-max", dest="shift_max", type=int, default=S)
    p.add_argument("--bandmask-frac", dest="bandmask_frac", type=float, default=S)

    p = sub.add_parser("distill", help="teacher-student training")
    p.add_argument("--teacher", required=True, help="initial teacher checkpoint")
    p.add_argument("--noisy", required=True)
    p.add_argument("--ext-noise", dest="ext_noise", default=S)
    p.add_argument("--out", required=True, help="student checkpoint path")
    p.add_argument("--stats", default=S)
    p.add_argument(
        "--strategy", choices=[s.value for s in distill_mod.MixStrategy], default=S
    )
    p.add_argument("--tup", choices=["static", "ema"], default=S)
    p.add_argument("--gamma", type=float, default=S)
    p.add_argument("--epochs", type=int, default=S)
    p.add_argument("--loss", choices=["mae", "mse"], default=S)
    p.add_argument("--batch-size", dest="batch_size", type=int, default=S)
    p.add_argument("--segment", type=int, default=S)
    p.add_argument("--lr", type=float, default=S)
    p.add_argument("--snr-lo", dest="snr_lo", type=float, default=S)
    p.add_argument("--snr-hi", dest="snr_hi", type=float, default=S)
    p.add_argument("--seed", type=int, default=S)
    p.add_argument("--augment", action="store_true", default=S,
                   help="apply shift/bandmask during distillation too")
    p.add_argument("--shift-max", dest="shift_max", type=int, default=S)
    p.add_argument("--bandmask-frac", dest="bandmask_frac", type=float, default=S)

    p = sub.add_parser("enhance", help="run an enhancement stage plan")
    p.add_argument("--stages", required=True, help="comma-separated checkpoint paths")
    p.add_argument("--in", dest="inp", required=True, help="input WAV or manifest")
    p.add_argument("--out", required=True, help="output WAV (file input) or directory (manifest)")
    p.add_argument("--resample", action="store_true", default=S)
    p.add_argument("--threads", type=int, default=S)

    p = sub.add_parser("evaluate", help="score degraded files against references")
    p.add_argument("--ref", required=True)
    p.add_argument("--deg", required=True)
    p.add_argument("--metrics", default=S, help="comma list from: stoi, sisdr")
    p.add_argument("--pesq-csv", dest="pesq_csv", default=S)
    p.add_argument("--report", required=True, help="output report JSON path")
    p.add_argument("--threads", type=int, default=S)

    for sp in sub.choices.values():
        sp.add_argument("--config", default=None, help="key=value config file")
        sp.add_argument("--force", action="store_true", default=S)
    return parser


_COMMANDS = {
    "synth": cmd_synth,
    "bootstrap": cmd_bootstrap,
    "distill": cmd_distill,
    "enhance": cmd_enhance,
    "evaluate": cmd_evaluate,
}


def main(argv=None) -> int:
    parser = build_parser()
    namespace = parser.parse_args(argv)
    command = namespace.command
    try:
        args = _resolve(command, namespace)
        return _COMMANDS[command](args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except RemixSEError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
