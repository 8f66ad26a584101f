"""CLI command behavior, exit codes, config files, and output echoing."""
import json
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from remixse.cli import OPTIONS, _resolve, build_parser, main
from remixse.corpus import ManifestEntry, write_manifest
from remixse.errors import RemixSEError, UsageError
from remixse.model import load_checkpoint


def run(*argv):
    return main(list(argv))


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """Synth corpus plus a bootstrap checkpoint for the downstream commands."""
    root = tmp_path_factory.mktemp("cli")
    data = root / "data"
    assert run("synth", "--seed", "7", "--num", "8", "--dur", "1.0", "--out", str(data)) == 0
    ckpt = root / "boot.ckpt"
    code = run(
        "bootstrap",
        "--noisy", str(data / "noisy.manifest.jsonl"),
        "--ext-noise", str(data / "noise.manifest.jsonl"),
        "--out", str(ckpt),
        "--epochs", "1",
        "--batch-size", "4",
        "--segment", "2500",
        "--shift-max", "400",
        "--model", "tiny",
    )
    assert code == 0
    return {"root": root, "data": data, "ckpt": ckpt}


# ---------------------------------------------------------------------------
# synth
# ---------------------------------------------------------------------------

def test_synth_writes_manifests_and_wavs(workspace):
    data = workspace["data"]
    for name in ("noisy.manifest.jsonl", "noise.manifest.jsonl", "clean.manifest.jsonl"):
        assert (data / name).exists()
    assert len(list((data / "noisy").glob("*.wav"))) == 8
    assert (data / "resolved.cfg").exists()


def test_synth_missing_out_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        run("synth", "--seed", "1")
    assert exc.value.code == 2


def test_synth_rerun_same_hash(tmp_path, workspace):
    out = tmp_path / "again"
    assert run("synth", "--seed", "7", "--num", "8", "--dur", "1.0", "--out", str(out)) == 0
    a = (workspace["data"] / "resolved.cfg").read_text()
    b = (out / "resolved.cfg").read_text()
    hash_lines = lambda text: [l for l in text.splitlines() if l.startswith("hash.")]
    assert hash_lines(a) == hash_lines(b)


def test_synth_refuses_overwrite_without_force(workspace):
    data = workspace["data"]
    code = run("synth", "--seed", "7", "--num", "8", "--dur", "1.0", "--out", str(data))
    assert code == 2


# ---------------------------------------------------------------------------
# bootstrap
# ---------------------------------------------------------------------------

def test_bootstrap_outputs_exist(workspace):
    assert workspace["ckpt"].exists()
    stats = workspace["ckpt"].with_suffix(".stats.jsonl")
    lines = stats.read_text().strip().splitlines()
    assert len(lines) == 1
    record = json.loads(lines[0])
    assert set(record) == {"epoch", "mean_loss", "seconds", "steps"}
    resolved = (workspace["ckpt"].parent / "resolved.cfg").read_text()
    assert "train.epochs=1" in resolved
    assert "hash.checkpoint=" in resolved


def test_bootstrap_rejects_clean_manifest_as_noisy(workspace, tmp_path):
    data = workspace["data"]
    code = run(
        "bootstrap",
        "--noisy", str(data / "clean.manifest.jsonl"),
        "--ext-noise", str(data / "noise.manifest.jsonl"),
        "--out", str(tmp_path / "x.ckpt"),
        "--epochs", "1",
    )
    assert code == 2


def test_bootstrap_refuses_overwrite(workspace):
    data = workspace["data"]
    code = run(
        "bootstrap",
        "--noisy", str(data / "noisy.manifest.jsonl"),
        "--ext-noise", str(data / "noise.manifest.jsonl"),
        "--out", str(workspace["ckpt"]),
        "--epochs", "1",
    )
    assert code == 2


def test_force_keeps_old_outputs_when_the_run_fails(tmp_path):
    # A 4-utterance corpus cannot fill a batch of 8: the forced rerun must
    # fail with exit 2 and leave the earlier checkpoint and stats untouched.
    data = tmp_path / "data"
    assert run("synth", "--seed", "3", "--num", "4", "--dur", "1.0", "--out", str(data)) == 0
    ckpt = tmp_path / "b.ckpt"
    args = [
        "bootstrap",
        "--noisy", str(data / "noisy.manifest.jsonl"),
        "--ext-noise", str(data / "noise.manifest.jsonl"),
        "--out", str(ckpt),
        "--epochs", "1",
        "--segment", "2500",
        "--shift-max", "400",
    ]
    assert run(*args, "--batch-size", "4") == 0
    stats = ckpt.with_suffix(".stats.jsonl")
    before = (ckpt.read_bytes(), stats.read_bytes())
    assert run(*args, "--batch-size", "8", "--force") == 2
    assert (ckpt.read_bytes(), stats.read_bytes()) == before
    leftovers = sorted(p.name for p in tmp_path.iterdir())
    assert leftovers == ["b.ckpt", "b.stats.jsonl", "data", "resolved.cfg"]


def test_force_rerun_replaces_stats_instead_of_appending(workspace, tmp_path):
    data = workspace["data"]
    ckpt = tmp_path / "b.ckpt"
    args = [
        "bootstrap",
        "--noisy", str(data / "noisy.manifest.jsonl"),
        "--ext-noise", str(data / "noise.manifest.jsonl"),
        "--out", str(ckpt),
        "--epochs", "1",
        "--batch-size", "4",
        "--segment", "2500",
        "--shift-max", "400",
    ]
    assert run(*args) == 0
    first = ckpt.read_bytes()
    assert run(*args, "--force") == 0
    assert ckpt.read_bytes() == first
    assert len(ckpt.with_suffix(".stats.jsonl").read_text().splitlines()) == 1


@pytest.mark.parametrize(
    "argv",
    [
        ["synth", "--dur", "0.5"],
        ["synth", "--snr-lo", "5", "--snr-hi", "0"],
        ["bootstrap", "--segment", "1000"],  # default --shift-max 4000 >= segment
        ["bootstrap", "--kernel", "2", "--stride", "4"],
        ["bootstrap", "--epochs", "0"],
        ["distill", "--tup", "ema", "--gamma", "0"],
        ["distill", "--snr-lo", "5", "--snr-hi", "0"],
        ["bootstrap", "--lr", "nan", "--epochs", "1"],
        ["bootstrap", "--lr", "inf", "--epochs", "1"],
        ["bootstrap", "--lr", "0", "--epochs", "1"],
        ["distill", "--lr", "-1", "--epochs", "1"],
    ],
    ids=lambda argv: "-".join(a.lstrip("-") for a in argv),
)
def test_invalid_config_value_is_usage_error(workspace, tmp_path, capsys, argv):
    data = workspace["data"]
    command, *options = argv
    inputs = {
        "synth": [],
        "bootstrap": ["--noisy", str(data / "noisy.manifest.jsonl"),
                      "--ext-noise", str(data / "noise.manifest.jsonl")],
        "distill": ["--teacher", str(workspace["ckpt"]),
                    "--noisy", str(data / "noisy.manifest.jsonl")],
    }[command]
    out = tmp_path / ("corpus" if command == "synth" else "model.ckpt")
    assert run(command, *inputs, *options, "--out", str(out)) == 2
    assert "invalid configuration" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


# ---------------------------------------------------------------------------
# distill
# ---------------------------------------------------------------------------

def test_distill_static_runs(workspace, tmp_path):
    data = workspace["data"]
    out = tmp_path / "student.ckpt"
    code = run(
        "distill",
        "--teacher", str(workspace["ckpt"]),
        "--noisy", str(data / "noisy.manifest.jsonl"),
        "--strategy", "nytt1",
        "--tup", "static",
        "--epochs", "1",
        "--batch-size", "4",
        "--segment", "2500",
        "--shift-max", "400",
        "--out", str(out),
    )
    assert code == 0
    assert out.exists()
    assert not out.with_name("student.teacher.ckpt").exists()


def test_distill_ema_writes_both_checkpoints(workspace, tmp_path):
    data = workspace["data"]
    out = tmp_path / "student.ckpt"
    code = run(
        "distill",
        "--teacher", str(workspace["ckpt"]),
        "--noisy", str(data / "noisy.manifest.jsonl"),
        "--strategy", "nytt1",
        "--tup", "ema",
        "--epochs", "1",
        "--batch-size", "4",
        "--segment", "2500",
        "--shift-max", "400",
        "--out", str(out),
    )
    assert code == 0
    assert out.exists()
    assert out.with_name("student.teacher.ckpt").exists()


def test_distill_ctt3_without_ext_noise_is_usage_error(workspace, tmp_path):
    data = workspace["data"]
    code = run(
        "distill",
        "--teacher", str(workspace["ckpt"]),
        "--noisy", str(data / "noisy.manifest.jsonl"),
        "--strategy", "ctt3",
        "--epochs", "1",
        "--out", str(tmp_path / "x.ckpt"),
    )
    assert code == 2


def test_distill_bad_teacher_checkpoint_is_runtime_error(workspace, tmp_path):
    bad = tmp_path / "bad.ckpt"
    bad.write_bytes(b"garbage")
    code = run(
        "distill",
        "--teacher", str(bad),
        "--noisy", str(workspace["data"] / "noisy.manifest.jsonl"),
        "--epochs", "1",
        "--out", str(tmp_path / "x.ckpt"),
    )
    assert code == 3


@pytest.mark.parametrize("command", ["bootstrap", "distill"])
def test_batch_larger_than_corpus_is_usage_error(workspace, tmp_path, command):
    # 8 utterances cannot fill one batch of 16, so no training step could run.
    data = workspace["data"]
    if command == "bootstrap":
        inputs = ["--ext-noise", str(data / "noise.manifest.jsonl"), "--model", "tiny"]
    else:
        inputs = ["--teacher", str(workspace["ckpt"]), "--strategy", "nytt1", "--tup", "ema"]
    code = run(
        command,
        "--noisy", str(data / "noisy.manifest.jsonl"),
        *inputs,
        "--epochs", "1",
        "--batch-size", "16",
        "--segment", "2500",
        "--shift-max", "400",
        "--out", str(tmp_path / "model.ckpt"),
    )
    assert code == 2
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("command", ["bootstrap", "distill"])
def test_training_creates_the_output_directory(workspace, tmp_path, command):
    data = workspace["data"]
    if command == "bootstrap":
        inputs = ["--ext-noise", str(data / "noise.manifest.jsonl"), "--model", "tiny"]
    else:
        inputs = ["--teacher", str(workspace["ckpt"]), "--strategy", "nytt1", "--tup", "ema"]
    out = tmp_path / "new" / "dir" / "model.ckpt"
    code = run(
        command,
        "--noisy", str(data / "noisy.manifest.jsonl"),
        *inputs,
        "--epochs", "1",
        "--batch-size", "4",
        "--segment", "2500",
        "--shift-max", "400",
        "--out", str(out),
    )
    assert code == 0
    assert out.exists() and out.with_suffix(".stats.jsonl").exists()


@pytest.mark.parametrize("command", ["distill", "enhance"])
def test_missing_checkpoint_is_missing_file(workspace, tmp_path, capsys, command):
    data = workspace["data"]
    missing = str(tmp_path / "absent.ckpt")
    if command == "distill":
        argv = ["distill", "--teacher", missing, "--noisy", str(data / "noisy.manifest.jsonl"),
                "--epochs", "1", "--out", str(tmp_path / "x.ckpt")]
    else:
        argv = ["enhance", "--stages", missing, "--in", str(data / "noisy.manifest.jsonl"),
                "--out", str(tmp_path / "enh")]
    assert run(*argv) == 3
    assert "checkpoint not found" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


# ---------------------------------------------------------------------------
# enhance
# ---------------------------------------------------------------------------

def test_enhance_single_file(workspace, tmp_path):
    wav_in = next((workspace["data"] / "noisy").glob("*.wav"))
    out = tmp_path / "out.wav"
    code = run("enhance", "--stages", str(workspace["ckpt"]), "--in", str(wav_in), "--out", str(out))
    assert code == 0
    assert out.exists()


def test_enhance_single_file_creates_the_output_directory(workspace, tmp_path):
    wav_in = next((workspace["data"] / "noisy").glob("*.wav"))
    out = tmp_path / "new" / "out.wav"
    code = run("enhance", "--stages", str(workspace["ckpt"]), "--in", str(wav_in), "--out", str(out))
    assert code == 0
    assert out.exists()


def test_enhance_two_stage_manifest(workspace, tmp_path):
    out_dir = tmp_path / "enh"
    stages = f"{workspace['ckpt']},{workspace['ckpt']}"
    code = run(
        "enhance",
        "--stages", stages,
        "--in", str(workspace["data"] / "noisy.manifest.jsonl"),
        "--out", str(out_dir),
    )
    assert code == 0
    report = json.loads((out_dir / "enhance_report.json").read_text())
    assert len(report["results"]) == 8
    assert all(r["stages"] == 2 for r in report["results"])
    assert (out_dir / "enhanced.manifest.jsonl").exists()


def test_enhance_bad_checkpoint_exits_3(workspace, tmp_path):
    bad = tmp_path / "bad.ckpt"
    bad.write_bytes(b"nope")
    wav_in = next((workspace["data"] / "noisy").glob("*.wav"))
    code = run("enhance", "--stages", str(bad), "--in", str(wav_in), "--out", str(tmp_path / "o.wav"))
    assert code == 3


def test_enhance_output_name_collision_is_usage_error(workspace, tmp_path):
    # Two ids whose paths share a stem would write one output file.
    data = workspace["data"]
    wav = next((data / "noisy").glob("*.wav"))
    (tmp_path / "alt").mkdir()
    (tmp_path / "alt" / wav.name).write_bytes(wav.read_bytes())
    (tmp_path / "noisy").mkdir()
    (tmp_path / "noisy" / wav.name).write_bytes(wav.read_bytes())
    write_manifest(tmp_path / "in.jsonl", [
        ManifestEntry("a", f"noisy/{wav.name}", "noisy", 1.0),
        ManifestEntry("b", f"alt/{wav.name}", "noisy", 1.0),
    ])
    out_dir = tmp_path / "enh"
    code = run("enhance", "--stages", str(workspace["ckpt"]), "--in", str(tmp_path / "in.jsonl"),
               "--out", str(out_dir))
    assert code == 2
    assert not out_dir.exists()


# ---------------------------------------------------------------------------
# evaluate
# ---------------------------------------------------------------------------

def test_evaluate_identical_manifests(workspace, tmp_path):
    clean = workspace["data"] / "clean.manifest.jsonl"
    report_path = tmp_path / "report.json"
    code = run(
        "evaluate",
        "--ref", str(clean),
        "--deg", str(clean),
        "--metrics", "stoi,sisdr",
        "--report", str(report_path),
    )
    assert code == 0
    report = json.loads(report_path.read_text())
    assert report["mean"]["stoi"] == pytest.approx(1.0, abs=1e-6)
    assert report["mean"]["si_sdr_db"] == 100.0
    assert set(report) == {"metadata", "utterances", "mean", "unpaired"}
    assert report_path.with_suffix(".csv").exists()


def test_evaluate_merges_pesq_csv(workspace, tmp_path):
    clean = workspace["data"] / "clean.manifest.jsonl"
    pesq_csv = tmp_path / "pesq.csv"
    pesq_csv.write_text("id,pesq\nutt0000,2.5\n")
    report_path = tmp_path / "report.json"
    code = run(
        "evaluate",
        "--ref", str(clean),
        "--deg", str(clean),
        "--pesq-csv", str(pesq_csv),
        "--report", str(report_path),
    )
    assert code == 0
    report = json.loads(report_path.read_text())
    by_id = {u["id"]: u for u in report["utterances"]}
    assert by_id["utt0000"]["pesq"] == 2.5


def test_evaluate_unknown_metric_is_usage_error(workspace, tmp_path):
    clean = workspace["data"] / "clean.manifest.jsonl"
    code = run(
        "evaluate", "--ref", str(clean), "--deg", str(clean),
        "--metrics", "mosnet", "--report", str(tmp_path / "r.json"),
    )
    assert code == 2


# ---------------------------------------------------------------------------
# config file
# ---------------------------------------------------------------------------

def test_config_file_supplies_defaults_and_cli_overrides(workspace, tmp_path):
    data = workspace["data"]
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "# desk run\n"
        "train.epochs=2\n"
        "train.batch_size=4\n"
        "train.segment=2500\n"
        "train.shift_max=400\n"
        "model.preset=tiny\n"
    )
    out = tmp_path / "m.ckpt"
    code = run(
        "bootstrap",
        "--config", str(cfg),
        "--noisy", str(data / "noisy.manifest.jsonl"),
        "--ext-noise", str(data / "noise.manifest.jsonl"),
        "--out", str(out),
        "--epochs", "1",  # overrides the file's 2
    )
    assert code == 0
    resolved = (tmp_path / "resolved.cfg").read_text()
    assert "train.epochs=1" in resolved
    assert "train.batch_size=4" in resolved


def test_config_file_missing_is_usage_error(workspace, tmp_path):
    code = run(
        "bootstrap",
        "--config", str(tmp_path / "ghost.cfg"),
        "--noisy", str(workspace["data"] / "noisy.manifest.jsonl"),
        "--ext-noise", str(workspace["data"] / "noise.manifest.jsonl"),
        "--out", str(tmp_path / "m.ckpt"),
    )
    assert code == 2


def test_unknown_subcommand_exits_2():
    with pytest.raises(SystemExit) as exc:
        run("frobnicate")
    assert exc.value.code == 2


def _training_inputs(workspace, command):
    data = workspace["data"]
    if command == "bootstrap":
        return ["--noisy", str(data / "noisy.manifest.jsonl"),
                "--ext-noise", str(data / "noise.manifest.jsonl")]
    return ["--teacher", str(workspace["ckpt"]), "--noisy", str(data / "noisy.manifest.jsonl")]


# Small batches of short segments, so a training run takes well under a second.
_QUICK = "train.batch_size=4\ntrain.segment=2500\ntrain.shift_max=400\n"


@pytest.mark.parametrize(
    "command, line, flags, stored",
    [
        ("distill", "train.epochs=35", [], lambda ckpt: ckpt.epoch == 35),
        ("bootstrap", "model.depth=2", ["--epochs", "1"], lambda ckpt: ckpt.config.depth == 2),
        ("bootstrap", "model.hidden=2", ["--epochs", "1"], lambda ckpt: ckpt.config.hidden == 2),
    ],
    ids=["distill-epochs", "bootstrap-depth", "bootstrap-hidden"],
)
def test_config_key_without_a_default_is_parsed_by_its_type(workspace, tmp_path, command, line,
                                                            flags, stored):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(_QUICK + line + "\n")
    out = tmp_path / "out" / "model.ckpt"
    argv = [command, *_training_inputs(workspace, command), *flags, "--config", str(cfg),
            "--out", str(out)]
    assert run(*argv) == 0
    assert line in (out.parent / "resolved.cfg").read_text().splitlines()
    assert stored(load_checkpoint(out))


def test_config_keys_of_other_commands_are_allowed(workspace, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(_QUICK + "synth.num=3\ntrain.strategy=nytt2\nenhance.threads=2\n"
                   "eval.metrics=sisdr\n")
    out = tmp_path / "out" / "model.ckpt"
    argv = ["bootstrap", *_training_inputs(workspace, "bootstrap"), "--epochs", "1",
            "--config", str(cfg), "--out", str(out)]
    assert run(*argv) == 0
    assert out.exists()


@pytest.mark.parametrize("command", ["bootstrap", "distill"])
def test_resolved_cfg_passed_back_as_config_reruns_the_same(workspace, tmp_path, command):
    # resolved.cfg holds hash.* lines, <command>.out and, for bootstrap, model.depth=None.
    (tmp_path / "run.cfg").write_text(_QUICK)
    first = tmp_path / "first" / "model.ckpt"
    assert run(command, *_training_inputs(workspace, command), "--epochs", "1",
               "--config", str(tmp_path / "run.cfg"), "--out", str(first)) == 0
    resolved = (first.parent / "resolved.cfg").read_text()
    again = tmp_path / "again" / "model.ckpt"
    assert run(command, *_training_inputs(workspace, command), "--config",
               str(first.parent / "resolved.cfg"), "--out", str(again)) == 0
    rerun = (again.parent / "resolved.cfg").read_text()
    differ = lambda text: [l for l in text.splitlines() if not l.startswith(f"{command}.out=")]
    assert differ(rerun) == differ(resolved)


@pytest.mark.parametrize(
    "command, config, env",
    [
        ("bootstrap", b"train.epochs=abc", None),
        ("bootstrap", b"train.lr=fast", None),
        ("bootstrap", b"train.shift=maybe", None),
        ("distill", b"train.strategy=nytt9", None),
        ("distill", b"train.tup=emma", None),
        ("bootstrap", b"model.depth=\xff\xfe", None),
        ("enhance", b"enhance.resample=sometimes", None),
        ("evaluate", b"eval.threads=two", None),
        ("evaluate", None, "two"),
        ("bootstrap", b"train.epoch=1", None),
        ("evaluate", b"eval.metric=sisdr", None),
        ("bootstrap", b"train.lr=nan", None),
    ],
    ids=["int", "float", "bool", "strategy-choice", "tup-choice", "not-utf8", "enhance-bool",
         "eval-threads", "env-threads", "unknown-train-key", "unknown-eval-key", "lr-nan"],
)
def test_bad_config_input_exits_2_and_writes_nothing(workspace, tmp_path, capsys, monkeypatch,
                                                     command, config, env):
    data = workspace["data"]
    out = tmp_path / "out"
    # A value is checked even where a flag overrides it, as --epochs does here.
    train = ["--epochs", "1", "--out", str(out / "m.ckpt")]
    argv = {
        "bootstrap": [*_training_inputs(workspace, "bootstrap"), *train],
        "distill": [*_training_inputs(workspace, "distill"), *train],
        "enhance": ["--stages", str(workspace["ckpt"]), "--in", str(data / "noisy.manifest.jsonl"),
                    "--out", str(out)],
        "evaluate": ["--ref", str(data / "clean.manifest.jsonl"),
                     "--deg", str(data / "clean.manifest.jsonl"), "--report", str(out / "r.json")],
    }[command]
    if config is not None:
        cfg = tmp_path / "run.cfg"
        cfg.write_bytes(_QUICK.encode() + config + b"\n")
        argv += ["--config", str(cfg)]
    if env is not None:
        monkeypatch.setenv("REMIXSE_THREADS", env)
    assert run(command, *argv) == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert not out.exists()


@pytest.fixture(scope="module")
def pair_corpus(tmp_path_factory):
    root = tmp_path_factory.mktemp("pair")
    assert run("synth", "--seed", "5", "--num", "2", "--dur", "1.0", "--out", str(root)) == 0
    return root / "clean.manifest.jsonl"


_VALID_CONFIG = b"""# evaluation
eval.metrics=sisdr
eval.threads=2
train.epochs=35
model.preset=tiny
"""


def _config_bytes():
    arbitrary = st.binary(max_size=200)
    mutated = st.tuples(
        st.lists(st.tuples(st.integers(0, len(_VALID_CONFIG) - 1), st.integers(0, 255)),
                 min_size=1, max_size=4),
        st.integers(1, len(_VALID_CONFIG)),
    ).map(_mutate)
    return st.one_of(arbitrary, mutated)


def _mutate(edits_and_length):
    edits, length = edits_and_length
    blob = bytearray(_VALID_CONFIG)
    for pos, byte in edits:
        blob[pos] = byte
    return bytes(blob[:length])


@given(config=_config_bytes())
def test_config_file_fuzz_exits_0_2_or_3(tmp_path_factory, pair_corpus, config):
    case = tmp_path_factory.mktemp("cfg")
    (case / "run.cfg").write_bytes(config)
    argv = ["evaluate", "--ref", str(pair_corpus), "--deg", str(pair_corpus),
            "--report", str(case / "out" / "r.json"), "--config", str(case / "run.cfg")]
    try:
        assert run(*argv) in (0, 2, 3)
    except RemixSEError:
        pass


_REQUIRED = {
    "synth": ["--out", "o"],
    "bootstrap": ["--noisy", "n", "--ext-noise", "e", "--out", "o"],
    "distill": ["--teacher", "t", "--noisy", "n", "--out", "o"],
    "enhance": ["--stages", "s", "--in", "i", "--out", "o"],
    "evaluate": ["--ref", "r", "--deg", "d", "--report", "p"],
}


@given(command=st.sampled_from(sorted(_REQUIRED)), edits=st.lists(
    st.tuples(st.integers(0, 10_000), st.integers(0, 255)), max_size=4))
def test_resolve_parses_mutated_config_files_or_raises_usage_error(tmp_path_factory, command,
                                                                   edits):
    # Every key of every command with its default, so each type and choice
    # list meets mutated text.
    valid = "".join(f"{o.key}={o.default}\n" for o in OPTIONS if o.key and o.default is not None)
    blob = bytearray(valid.encode())
    for pos, byte in edits:
        blob[pos % len(blob)] = byte
    path = tmp_path_factory.mktemp("resolve") / "run.cfg"
    path.write_bytes(bytes(blob))
    namespace = build_parser().parse_args([command, *_REQUIRED[command], "--config", str(path)])
    try:
        _resolve(command, namespace)
    except UsageError:
        pass


def test_readme_lists_every_config_key_with_its_type():
    expected = set()
    for option in OPTIONS:
        if option.key:
            kind = "one of " + ", ".join(option.choices) if option.choices else option.type.__name__
            expected |= {(command, option.key, kind) for command in option.commands}
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("### Config files", 1)[1].split("\n## ", 1)[0]
    listed = set()
    for key, kind, commands in re.findall(r"^\| `([\w.]+)` \| ([^|]+?) \| ([^|]+?) \|$", section,
                                          re.MULTILINE):
        listed |= {(command, key, kind) for command in commands.split(", ")}
    assert listed == expected
