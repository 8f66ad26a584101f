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
from dataclasses import dataclass, replace
from pathlib import Path
from types import SimpleNamespace

from . import corpus as corpus_mod
from . import distill as distill_mod
from . import inference as inference_mod
from . import metrics as metrics_mod
from .audio import DEFAULT_SAMPLE_RATE, read_wav, resample, write_wav
from .errors import RemixSEError, SampleRateMismatch, UsageError
from .fileio import atomic_open
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
_BOOLEANS = {"1": True, "true": True, "yes": True, "on": True,
             "0": False, "false": False, "no": False, "off": False}


@dataclass(frozen=True)
class Option:
    """One command-line option.

    ``key`` is its config-file key (None: flag only). ``type`` parses
    config-file values and, unless ``action`` is set, the flag's value too.
    ``help`` is one text for every command or a dict from command to text.
    """

    commands: tuple[str, ...]
    flag: str
    dest: str
    key: str | None = None
    type: type = str
    default: object = None
    choices: tuple | None = None
    action: str | None = None
    required: bool = False
    help: str | dict | None = None

    def parser_kwargs(self, command: str) -> dict:
        text = self.help.get(command) if isinstance(self.help, dict) else self.help
        kwargs = {"dest": self.dest, "default": argparse.SUPPRESS, "help": text}
        if self.action:
            return {**kwargs, "action": self.action}
        return {**kwargs, "type": self.type, "choices": self.choices, "required": self.required}

    def parse(self, text: str):
        """A config-file value, parsed by the declared type and checked against the choices.

        ``None`` (as resolved.cfg writes an unset value) leaves an option
        without a default unset.
        """
        if text == "None" and self.default is None:
            return None
        if self.type is bool:
            if text.lower() not in _BOOLEANS:
                raise UsageError(f"{self.key}: expected one of {'/'.join(_BOOLEANS)}, got {text!r}")
            return _BOOLEANS[text.lower()]
        try:
            value = self.type(text)
        except ValueError:
            raise UsageError(f"{self.key}: expected {self.type.__name__}, got {text!r}") from None
        if self.choices is not None and value not in self.choices:
            raise UsageError(f"{self.key}: {value!r} is not one of {', '.join(self.choices)}")
        return value


_COMMAND_HELP = {
    "synth": "generate a deterministic synthetic corpus",
    "bootstrap": "train the initial model on noisy targets",
    "distill": "teacher-student training",
    "enhance": "run an enhancement stage plan",
    "evaluate": "score degraded files against references",
}
_ALL = tuple(_COMMAND_HELP)
_TRAIN = ("bootstrap", "distill")

# Every option, once; --epochs and --ext-noise take a row per command because
# their default or required flag differs. A command lists its flags in table
# order (as --help shows them) and resolves each as: explicit flag >
# config-file key > default.
OPTIONS = (
    Option(("synth",), "--seed", "seed", "synth.seed", int, 0),
    Option(("synth",), "--num", "num", "synth.num", int, 16, help="utterances per family"),
    Option(("synth",), "--dur", "dur", "synth.dur", float, 1.0,
           help="utterance length in seconds"),
    Option(("synth",), "--sr", "sr", "synth.sr", int, DEFAULT_SAMPLE_RATE),
    Option(("synth",), "--snr-lo", "snr_lo", "synth.snr_lo", float, 0.0),
    Option(("synth",), "--snr-hi", "snr_hi", "synth.snr_hi", float, 10.0),
    Option(("distill",), "--teacher", "teacher", required=True, help="initial teacher checkpoint"),
    Option(_TRAIN, "--noisy", "noisy", required=True, help={"bootstrap": "noisy-speech manifest"}),
    Option(("bootstrap",), "--ext-noise", "ext_noise", required=True,
           help="extraneous-noise manifest"),
    Option(("distill",), "--ext-noise", "ext_noise"),
    Option(("enhance",), "--stages", "stages", required=True,
           help="comma-separated checkpoint paths"),
    Option(("enhance",), "--in", "inp", required=True, help="input WAV or manifest"),
    Option(("synth", "bootstrap", "distill", "enhance"), "--out", "out", required=True, help={
        "bootstrap": "output checkpoint path",
        "distill": "student checkpoint path",
        "enhance": "output WAV (file input) or directory (manifest)",
    }),
    Option(_TRAIN, "--stats", "stats"),
    Option(("distill",), "--strategy", "strategy", "train.strategy", str, "nytt1",
           choices=tuple(s.value for s in distill_mod.MixStrategy)),
    Option(("distill",), "--tup", "tup", "train.tup", str, "static", choices=("static", "ema")),
    Option(("distill",), "--gamma", "gamma", "train.gamma", float, 0.005),
    # unset: 500 epochs under a static teacher, 35 under EMA
    Option(("distill",), "--epochs", "epochs", "train.epochs", int, None),
    Option(_TRAIN, "--loss", "loss", "train.loss", str, "mae", choices=("mae", "mse")),
    Option(("bootstrap",), "--epochs", "epochs", "train.epochs", int, 500),
    Option(_TRAIN, "--batch-size", "batch_size", "train.batch_size", int, 8),
    Option(_TRAIN, "--segment", "segment", "train.segment", int, 16_000,
           help={"bootstrap": "training segment length in samples"}),
    Option(_TRAIN, "--lr", "lr", "train.lr", float, 3e-4),
    Option(_TRAIN, "--snr-lo", "snr_lo", "train.snr_lo", float, -5.0),
    Option(_TRAIN, "--snr-hi", "snr_hi", "train.snr_hi", float, 5.0),
    Option(_TRAIN, "--seed", "seed", "train.seed", int, 0),
    Option(("bootstrap",), "--model", "model", "model.preset", str, "tiny",
           choices=tuple(_MODEL_PRESETS)),
    Option(("bootstrap",), "--depth", "depth", "model.depth", int),
    Option(("bootstrap",), "--hidden", "hidden", "model.hidden", int),
    Option(("bootstrap",), "--kernel", "kernel", "model.kernel", int),
    Option(("bootstrap",), "--stride", "stride", "model.stride", int),
    Option(("bootstrap",), "--resample-factor", "resample_factor", "model.resample", int),
    Option(("bootstrap",), "--no-shift", "shift", "train.shift", bool, True, action="store_false"),
    Option(("bootstrap",), "--no-remix", "remix", "train.remix", bool, True, action="store_false"),
    Option(("bootstrap",), "--no-bandmask", "bandmask", "train.bandmask", bool, True,
           action="store_false"),
    Option(("distill",), "--augment", "augment", "train.augment", bool, False, action="store_true",
           help="apply shift/bandmask during distillation too"),
    Option(_TRAIN, "--shift-max", "shift_max", "train.shift_max", int, 4_000),
    Option(_TRAIN, "--bandmask-frac", "bandmask_frac", "train.bandmask_frac", float, 0.2),
    Option(("enhance",), "--resample", "resample", "enhance.resample", bool, False,
           action="store_true"),
    Option(("enhance",), "--threads", "threads", "enhance.threads", int),
    Option(("evaluate",), "--ref", "ref", required=True),
    Option(("evaluate",), "--deg", "deg", required=True),
    Option(("evaluate",), "--metrics", "metrics", "eval.metrics", str, "stoi,sisdr",
           help="comma list from: stoi, sisdr"),
    Option(("evaluate",), "--pesq-csv", "pesq_csv"),
    Option(("evaluate",), "--report", "report", required=True, help="output report JSON path"),
    Option(("evaluate",), "--threads", "threads", "eval.threads", int),
    Option(_ALL, "--config", "config", help="key=value config file"),
    Option(_ALL, "--force", "force", None, bool, False, action="store_true"),
)


# Every key of any command, as _echo_resolved writes it: an option's config
# key, or <command>.<dest> for one without. So a run's resolved.cfg (which
# also holds hash.* lines) can be passed back as --config.
_KNOWN_KEYS = frozenset(o.key or f"{c}.{o.dest}" for o in OPTIONS for c in o.commands)


def _options(command: str) -> list[Option]:
    return [o for o in OPTIONS if command in o.commands]


def _parse_config_file(path) -> dict[str, str]:
    cfg: dict[str, str] = {}
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except FileNotFoundError as exc:
        raise UsageError(f"config file not found: {path}") from exc
    except (OSError, UnicodeDecodeError) as exc:
        raise UsageError(f"cannot read config file {path}: {exc}") from exc
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise UsageError(f"{path}:{lineno}: expected key=value, got {line!r}")
        key, _, value = line.partition("=")
        cfg[key.strip()] = value.strip()
    return cfg


def _resolve(command: str, namespace: argparse.Namespace) -> SimpleNamespace:
    options = _options(command)
    resolved = {o.dest: o.default for o in options}
    config_path = getattr(namespace, "config", None)
    if config_path:
        by_key = {o.key: o for o in options if o.key}
        for key, text in _parse_config_file(config_path).items():
            if key in by_key:
                resolved[by_key[key].dest] = by_key[key].parse(text)
            elif key not in _KNOWN_KEYS and not key.startswith("hash."):
                raise UsageError(f"{config_path}: unknown config key {key!r}")
    resolved.update(vars(namespace))
    del resolved["command"], resolved["config"]
    return SimpleNamespace(**resolved)


def _sha256(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def _check_outputs(force: bool, *paths) -> None:
    """Refuse existing outputs unless --force; nothing is deleted up front, so
    a run that fails leaves the old outputs as they were."""
    existing = [str(p) for p in paths if p is not None and Path(p).exists()]
    if existing and not force:
        raise UsageError(f"refusing to overwrite {existing}; pass --force")


def _make_parents(*paths) -> None:
    """Create the output directories before the work, not at save time."""
    for p in paths:
        Path(p).parent.mkdir(parents=True, exist_ok=True)


def _build_config(factory, *args, **kwargs):
    """Construct a config object; a ValueError from its checks is a usage error."""
    try:
        return factory(*args, **kwargs)
    except ValueError as exc:
        raise UsageError(f"invalid configuration: {exc}") from exc


def _echo_resolved(out_dir, command: str, resolved: SimpleNamespace, hashes: dict[str, str]) -> None:
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    keys = {o.dest: o.key for o in _options(command) if o.key}
    lines = []
    for dest, value in sorted(vars(resolved).items()):
        key = keys.get(dest, f"{command}.{dest}")
        lines.append(f"{key}={value}")
    for name, digest in sorted(hashes.items()):
        lines.append(f"hash.{name}={digest}")
    with atomic_open(out_dir / "resolved.cfg", "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def _model_config(args: SimpleNamespace) -> ModelConfig:
    overrides = dict(depth=args.depth, hidden=args.hidden, kernel_size=args.kernel,
                     stride=args.stride, resample=args.resample_factor)
    overrides = {name: value for name, value in overrides.items() if value is not None}
    return _build_config(replace, _MODEL_PRESETS[args.model], **overrides)


def _threads(args: SimpleNamespace) -> int:
    if args.threads is not None:
        return max(1, args.threads)
    text = os.environ.get("REMIXSE_THREADS", "1")
    try:
        return max(1, int(text))
    except ValueError:
        raise UsageError(f"REMIXSE_THREADS must be an integer, got {text!r}") from None


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def cmd_synth(args: SimpleNamespace) -> int:
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


def _train_config(args: SimpleNamespace, **overrides) -> distill_mod.TrainConfig:
    kwargs = dict(
        epochs=args.epochs,
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
    kwargs.update(overrides)
    if hasattr(args, "shift"):
        kwargs.update(shift=args.shift, remix=args.remix, bandmask=args.bandmask)
    if getattr(args, "augment", False):
        kwargs.update(augment_in_distill=True, shift=True, bandmask=True)
    return _build_config(distill_mod.TrainConfig, **kwargs)


def cmd_bootstrap(args: SimpleNamespace) -> int:
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

    _make_parents(out_path, stats_path)
    model = init_model(model_config, seed=args.seed)
    model, stats = distill_mod.bootstrap_nytt(noisy, ext, model, config, sample_rate_hz=rate)

    save_checkpoint(
        out_path,
        model_to_checkpoint(model, epoch=config.epochs, seed=args.seed, sample_rate_hz=rate),
    )
    distill_mod.write_stats(stats_path, stats)
    hashes = {
        "noisy_corpus": corpus_mod.corpus_hash(noisy_manifest),
        "noise_corpus": corpus_mod.corpus_hash(noise_manifest),
        "checkpoint": _sha256(out_path),
    }
    _echo_resolved(out_path.parent, "bootstrap", args, hashes)
    print(f"bootstrap done: {config.epochs} epochs, final loss {stats.epochs[-1].mean_loss:.6f}")
    print(f"checkpoint {out_path}")
    return 0


def cmd_distill(args: SimpleNamespace) -> int:
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

    _make_parents(*outputs)
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
    plan = inference_mod.InferencePlan.from_checkpoints(
        [p for p in str(args.stages).split(",") if p]
    )
    in_path = Path(args.inp)
    if in_path.suffix.lower() == ".wav":
        _check_outputs(args.force, args.out)
        wave = _load_input_wave(in_path, plan, args.resample)
        _make_parents(args.out)
        enhanced = inference_mod.enhance(plan, wave)
        write_wav(args.out, enhanced)
        print(f"enhanced {in_path} -> {args.out} ({plan.num_stages} stages)")
        return 0
    manifest = corpus_mod.load_manifest(in_path)
    out_dir = Path(args.out)
    _check_outputs(args.force, out_dir / "enhance_report.json")
    report = inference_mod.enhance_batch(plan, manifest, out_dir, threads=_threads(args))
    with atomic_open(out_dir / "enhance_report.json", "w", encoding="utf-8") as fh:
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
    for command, text in _COMMAND_HELP.items():
        p = sub.add_parser(command, help=text)
        for option in _options(command):
            p.add_argument(option.flag, **option.parser_kwargs(command))
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
