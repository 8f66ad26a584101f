"""CLI command behavior, exit codes, config files, and output echoing."""
import errno
import hashlib
import json
import re
import shlex
import weakref
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import remixse.audio
import remixse.autodiff
import remixse.distill
from remixse.cli import OPTIONS, _resolve, build_parser, main
from remixse.corpus import ManifestEntry, SynthSpec, write_manifest
from remixse.distill import DistillConfig, TrainConfig
from remixse.errors import RemixSEError, UsageError
from remixse.model import DenoiserModel, ModelConfig, load_checkpoint
from conftest import fail_reading


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
    resolved = workspace["ckpt"].with_suffix(".resolved.cfg").read_text()
    assert "train.epochs=1" in resolved
    digest = hashlib.sha256(workspace["ckpt"].read_bytes()).hexdigest()
    assert f"hash.checkpoint={digest}" in resolved


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


def test_bootstrap_non_finite_loss_exits_3_and_writes_nothing(workspace, tmp_path, capsys,
                                                              monkeypatch):
    from test_distill import nan_loss_at_call

    nan_loss_at_call(monkeypatch, 1)
    data = workspace["data"]
    code = run(
        "bootstrap",
        "--noisy", str(data / "noisy.manifest.jsonl"),
        "--ext-noise", str(data / "noise.manifest.jsonl"),
        "--out", str(tmp_path / "nan.ckpt"),
        "--epochs", "1", "--batch-size", "4", "--segment", "2500", "--shift-max", "400",
    )
    assert code == 3
    assert "loss became nan at epoch 1, step 0" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


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
    assert leftovers == ["b.ckpt", "b.resolved.cfg", "b.stats.jsonl", "data"]


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
        ["bootstrap", "--batch-size", "0", "--epochs", "1"],
        ["distill", "--batch-size", "1", "--strategy", "nytt1", "--epochs", "1"],
        ["distill", "--augment", "--segment", "1000", "--epochs", "1"],  # shifts 4000 of 1000
        ["bootstrap", "--segment", "0", "--no-shift", "--epochs", "1"],
        ["distill", "--segment", "0", "--epochs", "1"],
        ["bootstrap", "--snr-lo", "nan", "--epochs", "1"],
        ["distill", "--snr-lo", "nan", "--epochs", "1"],
        ["bootstrap", "--snr-hi", "inf", "--epochs", "1"],
        ["distill", "--snr-hi", "inf", "--epochs", "1"],
        ["bootstrap", "--bandmask-frac", "1.5", "--epochs", "1"],
        ["bootstrap", "--bandmask-frac", "0", "--epochs", "1"],
        ["distill", "--augment", "--bandmask-frac", "1.5", "--epochs", "1"],
        ["distill", "--augment", "--bandmask-frac", "0", "--epochs", "1"],
        ["bootstrap", "--seed", "-1", "--epochs", "1"],
        ["distill", "--seed", "-1", "--epochs", "1"],
        ["bootstrap", "--shift-max", "-1", "--epochs", "1"],
        ["distill", "--shift-max", "-1", "--epochs", "1"],  # checked without --augment too
        ["synth", "--dur", "nan"],
        ["synth", "--dur", "inf"],
        ["synth", "--snr-lo", "nan"],
        ["synth", "--sr", "0"],
        ["synth", "--seed", "-1"],
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


@pytest.mark.parametrize(
    "argv",
    [
        # bootstrap has no strategy, and it skips the remix at one row
        ["bootstrap", "--batch-size", "1", "--epochs", "1"],
        # distill shifts only under --augment, so --shift-max 4000 is not checked
        ["distill", "--segment", "1000", "--batch-size", "2", "--epochs", "1"],
    ],
    ids=lambda argv: "-".join(a.lstrip("-") for a in argv),
)
def test_a_setting_the_command_does_not_use_is_not_checked(workspace, tmp_path, argv):
    command, *options = argv
    out = tmp_path / "model.ckpt"
    assert run(command, *_training_inputs(workspace, command), *options, "--out", str(out)) == 0
    assert load_checkpoint(out).epoch == 1


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


def test_training_computes_in_float32_and_reruns_bit_identically(workspace, tmp_path,
                                                                monkeypatch):
    apply = DenoiserModel.apply
    graph_dtypes = []

    def recording(self, x, *args, **kwargs):
        if remixse.autodiff.grad_enabled():
            graph_dtypes.append(self.dtype)
        return apply(self, x, *args, **kwargs)

    monkeypatch.setattr(DenoiserModel, "apply", recording)
    data = workspace["data"]
    quick = ["--epochs", "2", "--batch-size", "4", "--segment", "2500", "--shift-max", "400"]
    outputs = []
    for name in ("first", "second"):
        boot, student = tmp_path / name / "boot.ckpt", tmp_path / name / "student.ckpt"
        assert run("bootstrap", "--noisy", str(data / "noisy.manifest.jsonl"),
                   "--ext-noise", str(data / "noise.manifest.jsonl"), *quick,
                   "--out", str(boot)) == 0
        assert run("distill", "--teacher", str(boot), "--noisy", str(data / "noisy.manifest.jsonl"),
                   "--tup", "ema", *quick, "--out", str(student)) == 0
        teacher = student.with_name("student.teacher.ckpt")
        outputs.append([path.read_bytes() for path in (boot, student, teacher)])
    assert len(graph_dtypes) == 16  # 2 runs x 2 commands x 2 epochs x 2 steps
    assert all(dtype == np.float32 for dtype in graph_dtypes)
    assert outputs[0] == outputs[1]


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


def test_distill_teacher_at_another_rate_than_the_corpus_exits_3_and_writes_nothing(
    workspace, corpus_8k, tmp_path, capsys
):
    out = tmp_path / "out" / "student.ckpt"
    code = run("distill", "--teacher", str(workspace["ckpt"]),
               "--noisy", str(corpus_8k / "noisy.manifest.jsonl"), "--epochs", "1",
               "--batch-size", "2", "--segment", "2500", "--shift-max", "400", "--out", str(out))
    assert code == 3
    assert "disagree on sample rate: [8000, 16000]" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


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


@pytest.mark.parametrize("target", ["checkpoint", "manifest", "wav"])
def test_unreadable_input_file_exits_3(workspace, tmp_path, capsys, monkeypatch, target):
    data = workspace["data"]
    manifest = data / "noisy.manifest.jsonl"
    path = {
        "checkpoint": workspace["ckpt"],
        "manifest": manifest,
        "wav": next((data / "noisy").glob("*.wav")),
    }[target]
    fail_reading(monkeypatch, path, PermissionError(errno.EACCES, "Permission denied"))
    code = run("distill", "--teacher", str(workspace["ckpt"]), "--noisy", str(manifest),
               "--epochs", "1", "--out", str(tmp_path / "x.ckpt"))
    assert code == 3
    assert "cannot read" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_distill_frees_the_initial_teacher_at_the_first_ema_update(workspace, tmp_path,
                                                                  monkeypatch):
    # cmd_distill must keep no reference to the loaded checkpoint or the
    # initial teacher: once an EMA update has replaced it, its arrays go.
    update_teacher = remixse.distill.update_teacher
    initial, alive_in_epoch_2 = [], []

    def recording(protocol, teacher, student):
        if not initial:
            initial.append(weakref.ref(teacher.params["lstm0.w_hh"].data))
        return update_teacher(protocol, teacher, student)

    apply = DenoiserModel.apply

    def checking(self, x, *args, **kwargs):
        if initial:
            alive_in_epoch_2.append(initial[0]() is not None)
        return apply(self, x, *args, **kwargs)

    monkeypatch.setattr(remixse.distill, "update_teacher", recording)
    monkeypatch.setattr(DenoiserModel, "apply", checking)
    data = workspace["data"]
    code = run("distill", "--teacher", str(workspace["ckpt"]),
               "--noisy", str(data / "noisy.manifest.jsonl"), "--strategy", "nytt1",
               "--tup", "ema", "--epochs", "2", "--batch-size", "4", "--segment", "2500",
               "--shift-max", "400", "--out", str(tmp_path / "student.ckpt"))
    assert code == 0
    assert alive_in_epoch_2 and not any(alive_in_epoch_2)


# ---------------------------------------------------------------------------
# enhance
# ---------------------------------------------------------------------------

def test_enhance_single_file(workspace, tmp_path):
    wav_in = next((workspace["data"] / "noisy").glob("*.wav"))
    out = tmp_path / "out.wav"
    code = run("enhance", "--stages", str(workspace["ckpt"]), "--in", str(wav_in), "--out", str(out))
    assert code == 0
    assert out.exists()


def test_enhance_single_file_keeps_a_record_that_force_guards(workspace, tmp_path, capsys):
    wav_in = next((workspace["data"] / "noisy").glob("*.wav"))
    out, record = tmp_path / "out.wav", tmp_path / "out.resolved.cfg"
    argv = ["enhance", "--stages", f"{workspace['ckpt']},{workspace['ckpt']}",
            "--in", str(wav_in), "--out", str(out)]
    assert run(*argv) == 0
    sha = lambda path: hashlib.sha256(path.read_bytes()).hexdigest()
    _, hashes = _records(record)
    assert hashes == {"input_corpus": sha(wav_in),
                      "stages": f"{sha(workspace['ckpt'])},{sha(workspace['ckpt'])}"}
    out.unlink()  # the record alone still refuses a rerun without --force
    assert run(*argv) == 2
    assert f"refusing to overwrite [{str(record)!r}]" in capsys.readouterr().err
    assert not out.exists()
    assert run(*argv, "--force") == 0
    assert sorted(p.name for p in tmp_path.iterdir()) == ["out.resolved.cfg", "out.wav"]


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
    assert (out_dir / "enhanced.manifest.jsonl").exists()


def test_enhance_report_is_the_same_bytes_on_a_rerun(workspace, tmp_path):
    argv = ["enhance", "--stages", str(workspace["ckpt"]),
            "--in", str(workspace["data"] / "noisy.manifest.jsonl"), "--out", str(tmp_path)]
    assert run(*argv) == 0
    first = (tmp_path / "enhance_report.json").read_bytes()
    assert run(*argv, "--force") == 0
    assert (tmp_path / "enhance_report.json").read_bytes() == first


@pytest.fixture(scope="module")
def corpus_8k(tmp_path_factory):
    """An 8 kHz corpus, for the 16 kHz checkpoint of ``workspace``."""
    data = tmp_path_factory.mktemp("sr8k")
    assert run("synth", "--num", "2", "--dur", "1.0", "--sr", "8000", "--out", str(data)) == 0
    return data


def test_enhance_single_file_at_another_rate_needs_resample(workspace, corpus_8k, tmp_path,
                                                             capsys):
    wav_in = next((corpus_8k / "noisy").glob("*.wav"))
    out = tmp_path / "new" / "out.wav"
    argv = ("enhance", "--stages", str(workspace["ckpt"]), "--in", str(wav_in), "--out", str(out))
    assert run(*argv) == 3
    assert "--resample" in capsys.readouterr().err
    assert not (tmp_path / "new").exists()
    assert run(*argv, "--resample") == 0
    enhanced = remixse.audio.read_wav(out)
    assert enhanced.sample_rate_hz == 16_000
    assert len(enhanced.samples) == 2 * len(remixse.audio.read_wav(wav_in).samples)


def test_enhance_manifest_resamples_every_file(workspace, corpus_8k, tmp_path):
    manifest = corpus_8k / "noisy.manifest.jsonl"
    out_dir = tmp_path / "enh"
    code = run("enhance", "--stages", str(workspace["ckpt"]), "--in", str(manifest),
               "--out", str(out_dir), "--resample")
    assert code == 0
    report = json.loads((out_dir / "enhance_report.json").read_text())
    assert len(report["results"]) == 2
    assert report["failures"] == []
    for result in report["results"]:
        assert remixse.audio.read_wav(result["output_path"]).sample_rate_hz == 16_000


def test_enhance_manifest_where_every_file_fails_exits_3(workspace, corpus_8k, tmp_path,
                                                        capsys):
    out_dir = tmp_path / "enh"
    code = run("enhance", "--stages", str(workspace["ckpt"]),
               "--in", str(corpus_8k / "noisy.manifest.jsonl"), "--out", str(out_dir))
    assert code == 3
    err = capsys.readouterr().err
    report = json.loads((out_dir / "enhance_report.json").read_text())
    assert len(report["results"]) == 2
    assert report["failures"] == [r["id"] for r in report["results"]]
    assert all(failed in err for failed in report["failures"])
    assert "--resample" in err


def test_enhance_stages_naming_no_checkpoint_is_usage_error(workspace, tmp_path, capsys):
    wav_in = next((workspace["data"] / "noisy").glob("*.wav"))
    code = run("enhance", "--stages", ",", "--in", str(wav_in), "--out", str(tmp_path / "o.wav"))
    assert code == 2
    assert "--stages names no checkpoint" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_enhance_zero_sample_wav_exits_3_or_fails_its_manifest_entry(workspace, tmp_path, capsys):
    wav = next((workspace["data"] / "noisy").glob("*.wav"))
    (tmp_path / "u.wav").write_bytes(wav.read_bytes())
    remixse.audio.write_wav(tmp_path / "empty.wav", remixse.audio.Waveform(np.zeros(0), 16_000))
    out = tmp_path / "single" / "o.wav"
    code = run("enhance", "--stages", str(workspace["ckpt"]), "--in", str(tmp_path / "empty.wav"),
               "--out", str(out))
    assert code == 3
    assert "no samples" in capsys.readouterr().err
    assert not (tmp_path / "single").exists()

    write_manifest(tmp_path / "in.jsonl", [
        ManifestEntry("u", "u.wav", "noisy", 1.0),
        ManifestEntry("empty", "empty.wav", "noisy", 0.0),
    ])
    code = run("enhance", "--stages", str(workspace["ckpt"]), "--in", str(tmp_path / "in.jsonl"),
               "--out", str(tmp_path / "enh"))
    assert code == 0
    report = json.loads((tmp_path / "enh" / "enhance_report.json").read_text())
    assert report["failures"] == ["empty"]


def test_enhance_bad_checkpoint_exits_3(workspace, tmp_path):
    bad = tmp_path / "bad.ckpt"
    bad.write_bytes(b"nope")
    wav_in = next((workspace["data"] / "noisy").glob("*.wav"))
    code = run("enhance", "--stages", str(bad), "--in", str(wav_in), "--out", str(tmp_path / "o.wav"))
    assert code == 3


@pytest.mark.parametrize("target", ["manifest", "file"])
def test_enhance_second_stage_with_a_bad_payload_exits_3_and_writes_nothing(workspace, tmp_path,
                                                                           capsys, target):
    blob = bytearray(workspace["ckpt"].read_bytes())
    blob[-100] ^= 0xFF  # a payload byte: only the CRC32 can catch it, when the stage loads
    bad = tmp_path / "bad.ckpt"
    bad.write_bytes(bytes(blob))
    data = workspace["data"]
    inp, out = {
        "manifest": (data / "noisy.manifest.jsonl", tmp_path / "enh"),
        "file": (next((data / "noisy").glob("*.wav")), tmp_path / "enh" / "o.wav"),
    }[target]
    code = run("enhance", "--stages", f"{workspace['ckpt']},{bad}", "--in", str(inp),
               "--out", str(out))
    assert code == 3
    assert "payload checksum mismatch" in capsys.readouterr().err
    assert [p for p in tmp_path.rglob("*") if p.is_file()] == [bad]


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


@pytest.mark.parametrize("command", ["enhance", "evaluate"])
def test_a_manifest_entry_that_is_a_directory_exits_3(workspace, tmp_path, capsys, command):
    wav = next((workspace["data"] / "noisy").glob("*.wav"))
    data = tmp_path / "data"
    data.mkdir()
    (data / wav.name).write_bytes(wav.read_bytes())
    (data / "dir.wav").mkdir()
    manifest = data / "m.jsonl"
    write_manifest(manifest, [
        ManifestEntry("a", wav.name, "noisy", 1.0),
        ManifestEntry("b", "dir.wav", "noisy", 1.0),
    ])
    out = tmp_path / "out"
    argv = {
        "enhance": ["--stages", str(workspace["ckpt"]), "--in", str(manifest), "--out", str(out)],
        "evaluate": ["--ref", str(manifest), "--deg", str(manifest),
                     "--report", str(out / "r.json")],
    }[command]
    assert run(command, *argv) == 3
    assert f"line 2: missing file {data / 'dir.wav'}" in capsys.readouterr().err
    assert not out.exists()


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


@pytest.mark.parametrize("threads", ["0", "-1"])
@pytest.mark.parametrize("command", ["enhance", "evaluate"])
def test_threads_below_1_is_usage_error(workspace, tmp_path, capsys, command, threads):
    data = workspace["data"]
    out = tmp_path / "out"
    argv = {
        "enhance": ["--stages", str(workspace["ckpt"]), "--in", str(data / "noisy.manifest.jsonl"),
                    "--out", str(out)],
        "evaluate": ["--ref", str(data / "clean.manifest.jsonl"),
                     "--deg", str(data / "clean.manifest.jsonl"), "--report", str(out / "r.json")],
    }[command]
    assert run(command, *argv, "--threads", threads) == 2
    assert capsys.readouterr().err.startswith("error: --threads must be >= 1, got ")
    assert not out.exists()


@pytest.mark.parametrize("samples", [0, 100])
def test_evaluate_reference_shorter_than_a_stoi_frame_exits_3(tmp_path, capsys, samples):
    wave = remixse.audio.Waveform(np.full(samples, 0.1), 16_000)
    remixse.audio.write_wav(tmp_path / "short.wav", wave)
    write_manifest(tmp_path / "m.jsonl", [ManifestEntry("a", "short.wav", "clean", 0.0)])
    report_path = tmp_path / "out" / "report.json"
    code = run("evaluate", "--ref", str(tmp_path / "m.jsonl"), "--deg", str(tmp_path / "m.jsonl"),
               "--report", str(report_path))
    assert code == 3
    assert "error: only 0 frames retained" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


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


def test_evaluate_missing_pesq_csv_exits_3(workspace, tmp_path, capsys):
    clean = workspace["data"] / "clean.manifest.jsonl"
    report_path = tmp_path / "report.json"
    code = run(
        "evaluate",
        "--ref", str(clean),
        "--deg", str(clean),
        "--pesq-csv", str(tmp_path / "missing.csv"),
        "--report", str(report_path),
    )
    assert code == 3
    assert "PESQ CSV not found" in capsys.readouterr().err
    assert not report_path.exists()
    assert not report_path.with_suffix(".csv").exists()


def test_evaluate_unknown_metric_is_usage_error(workspace, tmp_path):
    clean = workspace["data"] / "clean.manifest.jsonl"
    code = run(
        "evaluate", "--ref", str(clean), "--deg", str(clean),
        "--metrics", "mosnet", "--report", str(tmp_path / "r.json"),
    )
    assert code == 2


# ---------------------------------------------------------------------------
# output paths
# ---------------------------------------------------------------------------

_TRAIN_QUICK = ["--epochs", "1", "--batch-size", "4", "--segment", "2500", "--shift-max", "400"]


@pytest.mark.parametrize(
    "case", ["synth", "bootstrap", "distill", "enhance-manifest", "enhance-file", "evaluate"]
)
def test_an_output_under_a_regular_file_exits_3(workspace, tmp_path, capsys, case):
    # The commands whose --out is a directory get the file itself; the others
    # a path inside it.
    data = workspace["data"]
    blocker = tmp_path / "blocker"
    blocker.write_bytes(b"a regular file")
    argv = {
        "synth": ["synth", "--num", "2", "--out", str(blocker)],
        "bootstrap": ["bootstrap", *_training_inputs(workspace, "bootstrap"), *_TRAIN_QUICK,
                      "--out", str(blocker / "m.ckpt")],
        "distill": ["distill", *_training_inputs(workspace, "distill"), *_TRAIN_QUICK,
                    "--out", str(blocker / "m.ckpt")],
        "enhance-manifest": ["enhance", "--stages", str(workspace["ckpt"]),
                             "--in", str(data / "noisy.manifest.jsonl"), "--out", str(blocker)],
        "enhance-file": ["enhance", "--stages", str(workspace["ckpt"]),
                         "--in", str(next((data / "noisy").glob("*.wav"))),
                         "--out", str(blocker / "o.wav")],
        "evaluate": ["evaluate", "--ref", str(data / "clean.manifest.jsonl"),
                     "--deg", str(data / "clean.manifest.jsonl"),
                     "--report", str(blocker / "r.json")],
    }[case]
    assert run(*argv) == 3
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot create the directory of {blocker}")
    assert "Traceback" not in err
    assert blocker.read_bytes() == b"a regular file"
    assert list(tmp_path.iterdir()) == [blocker]


@pytest.mark.parametrize("force", [[], ["--force"]], ids=["no-force", "force"])
@pytest.mark.parametrize("command", ["bootstrap", "enhance", "evaluate"])
def test_an_output_that_is_a_directory_is_usage_error(workspace, tmp_path, capsys, command,
                                                      force):
    data = workspace["data"]
    taken = tmp_path / "taken"
    taken.mkdir()
    argv = {
        "bootstrap": [*_training_inputs(workspace, "bootstrap"), *_TRAIN_QUICK,
                      "--out", str(taken)],
        "enhance": ["--stages", str(workspace["ckpt"]),
                    "--in", str(next((data / "noisy").glob("*.wav"))), "--out", str(taken)],
        "evaluate": ["--ref", str(data / "clean.manifest.jsonl"),
                     "--deg", str(data / "clean.manifest.jsonl"), "--report", str(taken)],
    }[command]
    assert run(command, *argv, *force) == 2
    err = capsys.readouterr().err
    assert err == f"error: output is a directory, not a file: [{str(taken)!r}]\n"
    assert list(tmp_path.iterdir()) == [taken]
    assert list(taken.iterdir()) == []


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
    resolved = (tmp_path / "m.resolved.cfg").read_text()
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
        ("bootstrap", "model.depth=2", ["--epochs", "1"],
         lambda ckpt: ckpt.model.config.depth == 2),
        ("bootstrap", "model.hidden=2", ["--epochs", "1"],
         lambda ckpt: ckpt.model.config.hidden == 2),
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
    assert line in out.with_suffix(".resolved.cfg").read_text().splitlines()
    assert stored(load_checkpoint(out))


def test_resolved_cfg_records_the_numeric_environment_and_loads_as_config(
    workspace, tmp_path, monkeypatch
):
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
    monkeypatch.delenv("OMP_NUM_THREADS", raising=False)
    (tmp_path / "run.cfg").write_text(_QUICK)
    first = tmp_path / "first" / "model.ckpt"
    assert run("distill", *_training_inputs(workspace, "distill"), "--epochs", "1",
               "--config", str(tmp_path / "run.cfg"), "--out", str(first)) == 0
    lines = first.with_suffix(".resolved.cfg").read_text().splitlines()
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    assert f"env.blas={blas['name']} {blas['version']}" in lines
    assert "env.OPENBLAS_NUM_THREADS=1" in lines
    assert "env.OMP_NUM_THREADS=None" in lines
    again = tmp_path / "again" / "model.ckpt"
    assert run("distill", *_training_inputs(workspace, "distill"), "--config",
               str(first.with_suffix(".resolved.cfg")), "--out", str(again)) == 0
    assert again.read_bytes() == first.read_bytes()


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
    resolved = first.with_suffix(".resolved.cfg").read_text()
    again = tmp_path / "again" / "model.ckpt"
    assert run(command, *_training_inputs(workspace, command), "--config",
               str(first.with_suffix(".resolved.cfg")), "--out", str(again)) == 0
    rerun = again.with_suffix(".resolved.cfg").read_text()
    differ = lambda text: [l for l in text.splitlines() if not l.startswith(f"{command}.out=")]
    assert differ(rerun) == differ(resolved)


def _readme_quick_start() -> list[list[str]]:
    """The README quick start's commands, each as the argv after ``remixse``."""
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("## Quick start", 1)[1].split("```bash\n", 1)[1].split("```", 1)[0]
    lines = block.replace("\\\n", " ").splitlines()
    return [shlex.split(line)[1:] for line in lines if line.startswith("remixse ")]


def _records(path: Path) -> tuple[list[str], dict[str, str]]:
    """A resolved.cfg's configuration keys in file order, and its hash lines."""
    pairs = [line.split("=", 1) for line in path.read_text().splitlines()]
    keys = [key for key, _ in pairs if not key.startswith(("hash.", "env."))]
    return keys, {key[5:]: value for key, value in pairs if key.startswith("hash.")}


def test_readme_quick_start_keeps_a_record_of_every_command(tmp_path, monkeypatch):
    # bootstrap, distill and evaluate all write into runs/: each keeps its own record.
    monkeypatch.chdir(tmp_path)
    for argv in _readme_quick_start():
        if argv[0] in ("bootstrap", "distill"):
            argv += ["--epochs", "1"]  # the README trains 100 and 35 epochs
        assert run(*argv) == 0
    runs = tmp_path / "runs"
    sha = lambda name: hashlib.sha256((runs / name).read_bytes()).hexdigest()
    _, train = _records(tmp_path / "data" / "train" / "resolved.cfg")
    _, test = _records(tmp_path / "data" / "test" / "resolved.cfg")
    expected = {
        "boot.resolved.cfg": {"noisy_corpus": train["noisy_corpus"],
                              "noise_corpus": train["noise_corpus"],
                              "checkpoint": sha("boot.ckpt")},
        "student.resolved.cfg": {"noisy_corpus": train["noisy_corpus"],
                                 "teacher_checkpoint": sha("boot.ckpt"),
                                 "checkpoint": sha("student.ckpt"),
                                 "ema_teacher_checkpoint": sha("student.teacher.ckpt")},
        "report.resolved.cfg": {"ref_corpus": test["clean_corpus"]},
        "enhanced/resolved.cfg": {"input_corpus": test["noisy_corpus"],
                                  "stages": f"{sha('boot.ckpt')},{sha('student.ckpt')}"},
    }
    assert sorted(str(p.relative_to(runs)) for p in runs.rglob("*resolved.cfg")) == sorted(expected)
    for name, hashes in expected.items():
        keys, recorded = _records(runs / name)
        assert recorded == hashes, name
        assert keys == sorted(keys), name


@pytest.mark.parametrize(
    "command, config",
    [
        ("bootstrap", b"train.epochs=abc"),
        ("bootstrap", b"train.lr=fast"),
        ("bootstrap", b"train.shift=maybe"),
        ("distill", b"train.strategy=nytt9"),
        ("distill", b"train.tup=emma"),
        ("bootstrap", b"model.depth=\xff\xfe"),
        ("enhance", b"enhance.resample=sometimes"),
        ("evaluate", b"eval.threads=two"),
        ("bootstrap", b"train.epoch=1"),
        ("evaluate", b"eval.metric=sisdr"),
        ("bootstrap", b"train.lr=nan"),
        ("enhance", b"enhance.threads=0"),
        ("evaluate", b"eval.threads=-1"),
    ],
    ids=["int", "float", "bool", "strategy-choice", "tup-choice", "not-utf8", "enhance-bool",
         "eval-threads", "unknown-train-key", "unknown-eval-key", "lr-nan", "enhance-threads-0",
         "eval-threads-negative"],
)
def test_bad_config_input_exits_2_and_writes_nothing(workspace, tmp_path, capsys, command,
                                                     config):
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
    cfg = tmp_path / "run.cfg"
    cfg.write_bytes(_QUICK.encode() + config + b"\n")
    assert run(command, *argv, "--config", str(cfg)) == 2
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


# The options each command resolves that no config field takes.
_CLI_ONLY = {"out", "stats", "noisy", "teacher", "ext_noise", "model", "remix", "augment",
             "strategy", "tup", "gamma", "config", "force"}


# Each command's configs, and the options whose unset default defers to the
# model preset or, for distill --epochs, to --tup.
@pytest.mark.parametrize("command, configs, deferred", [
    ("synth", [SynthSpec], set()),
    ("bootstrap", [TrainConfig, ModelConfig], {field.name for field in fields(ModelConfig)}),
    ("distill", [DistillConfig], {"epochs"}),
])
def test_every_option_fills_a_config_field_of_the_same_name_and_default(command, configs,
                                                                        deferred):
    # The commands fill their configs by field name, so a dest that names no
    # field would leave the field at its default without a word.
    by_name = {field.name: field for config in configs for field in fields(config)}
    for option in OPTIONS:
        if command not in option.commands or option.dest in _CLI_ONLY:
            continue
        assert option.dest in by_name, f"{command} {option.flag}: no config field {option.dest!r}"
        if option.dest in deferred:
            assert option.default is None, option.flag
        else:
            assert option.default == by_name[option.dest].default, option.flag
