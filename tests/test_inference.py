"""Stage plans, composition semantics, and batch enhancement."""
import json
import weakref

import numpy as np
import pytest

from remixse import autodiff as ad
from remixse import fileio, inference
from remixse.audio import Waveform, read_wav, write_wav
from remixse.cli import main as cli_main
from remixse.corpus import ManifestEntry, load_manifest, write_manifest
from remixse.errors import SampleRateMismatch, UsageError
from remixse.inference import StagePlan, enhance, enhance_batch
from remixse.model import (
    Checkpoint,
    DenoiserModel,
    ModelConfig,
    TINY_CONFIG,
    init_model,
    load_checkpoint,
    save_checkpoint,
)

RATE = 16000


def _identity_model() -> DenoiserModel:
    """Weights that make the network an (approximate) identity map.

    Depth 1, all kernels 1x1: the strided conv shifts by +C through the ReLU,
    the projection undoes the shift and saturates the GLU gate, the LSTM is
    zeroed so the skip connection carries the signal, and the decoder repeats
    the saturated-gate trick.
    """
    config = ModelConfig(depth=1, hidden=1, kernel_size=1, stride=1, resample=1)
    model = init_model(config, seed=0)
    c = 30.0
    p = model.params
    p["enc1.conv.w"].data[...] = 1.0
    p["enc1.conv.b"].data[...] = c
    p["enc1.proj.w"].data[...] = np.array([[[1.0]], [[0.0]]])
    p["enc1.proj.b"].data[...] = np.array([-c, 40.0])
    for layer in range(2):
        p[f"lstm{layer}.w_ih"].data[...] = 0.0
        p[f"lstm{layer}.w_hh"].data[...] = 0.0
        p[f"lstm{layer}.b"].data[...] = 0.0
    p["dec1.proj.w"].data[...] = np.array([[[1.0]], [[0.0]]])
    p["dec1.proj.b"].data[...] = np.array([0.0, 40.0])
    p["dec1.tconv.w"].data[...] = 1.0
    p["dec1.tconv.b"].data[...] = 0.0
    return model


def _save(model, path, rate=RATE):
    save_checkpoint(path, Checkpoint(model, sample_rate_hz=rate))
    return str(path)


def test_identity_model_single_stage_is_near_identity(tmp_path):
    path = _save(_identity_model(), tmp_path / "id.ckpt")
    plan = [load_checkpoint(path)]
    wave = Waveform(np.random.default_rng(0).normal(size=2000) * 0.1, RATE)
    out = enhance(plan, wave)
    assert len(out) == len(wave)
    assert np.allclose(out.samples, wave.samples, atol=1e-6)


def test_multistage_equals_chained_single_stages(trained_tiny_model, tmp_path):
    path = _save(trained_tiny_model, tmp_path / "m.ckpt")
    wave = Waveform(np.random.default_rng(1).normal(size=2000) * 0.1, RATE)
    for stages in range(1, 6):
        plan_n = [load_checkpoint(path) for _ in range(stages)]
        chained = wave
        single = [load_checkpoint(path)]
        for _ in range(stages):
            chained = enhance(single, chained)
        multi = enhance(plan_n, wave)
        assert np.array_equal(multi.samples, chained.samples)
        assert len(multi) == len(wave)
        assert np.all(np.isfinite(multi.samples))


def test_two_stage_with_distinct_models(trained_tiny_model, tmp_path):
    a = _save(trained_tiny_model, tmp_path / "a.ckpt")
    b = _save(init_model(TINY_CONFIG, seed=99), tmp_path / "b.ckpt")
    wave = Waveform(np.random.default_rng(2).normal(size=1500) * 0.1, RATE)
    plan = [load_checkpoint(a), load_checkpoint(b)]
    out = enhance(plan, wave)
    stage1 = enhance([load_checkpoint(a)], wave)
    stage2 = enhance([load_checkpoint(b)], stage1)
    assert np.array_equal(out.samples, stage2.samples)


def test_plan_requires_a_stage():
    with pytest.raises(UsageError):
        StagePlan([])


def test_sample_rate_mismatch_rejected(tmp_path):
    path = _save(_identity_model(), tmp_path / "id.ckpt")
    plan = [load_checkpoint(path)]
    with pytest.raises(SampleRateMismatch):
        enhance(plan, Waveform(np.zeros(1000), 8000))


def test_plan_rejects_mixed_rates(tmp_path):
    a = _save(_identity_model(), tmp_path / "a.ckpt", rate=16000)
    b = _save(_identity_model(), tmp_path / "b.ckpt", rate=8000)
    with pytest.raises(SampleRateMismatch):
        StagePlan([a, b])


# ---------------------------------------------------------------------------
# batch enhancement
# ---------------------------------------------------------------------------

def _make_manifest(tmp_path, n):
    entries = []
    for i in range(n):
        w = Waveform(np.random.default_rng(i).normal(size=1600) * 0.1, RATE)
        write_wav(tmp_path / f"u{i}.wav", w)
        entries.append(ManifestEntry(f"u{i}", f"u{i}.wav", "noisy", 0.1))
    write_manifest(tmp_path / "in.jsonl", entries)
    return load_manifest(tmp_path / "in.jsonl")


def test_enhance_batch_writes_all_outputs(trained_tiny_model, tmp_path):
    manifest = _make_manifest(tmp_path, 3)
    plan = StagePlan([_save(trained_tiny_model, tmp_path / "m.ckpt")])
    out_dir = tmp_path / "out"
    report = enhance_batch(plan, manifest, out_dir)
    assert len(report.results) == 3
    assert report.failures == []
    for i in range(3):
        assert (out_dir / f"u{i}.enhanced.wav").exists()
    out_manifest = load_manifest(out_dir / "enhanced.manifest.jsonl")
    assert [e.id for e in out_manifest] == [f"u{i}" for i in range(3)]
    assert all(e.role == "enhanced" for e in out_manifest)


def test_enhance_batch_empty_manifest(trained_tiny_model, tmp_path):
    write_manifest(tmp_path / "in.jsonl", [])
    manifest = load_manifest(tmp_path / "in.jsonl")
    plan = StagePlan([_save(trained_tiny_model, tmp_path / "m.ckpt")])
    report = enhance_batch(plan, manifest, tmp_path / "out")
    assert report.results == []
    assert report.failures == []


def test_enhance_batch_isolates_failures(trained_tiny_model, tmp_path):
    manifest = _make_manifest(tmp_path, 3)
    (tmp_path / "u1.wav").write_bytes(b"not a wav at all")
    plan = StagePlan([_save(trained_tiny_model, tmp_path / "m.ckpt")])
    report = enhance_batch(plan, manifest, tmp_path / "out")
    assert report.failures == ["u1"]
    ok = [r for r in report.results if r.error is None]
    assert len(ok) == 2
    assert (tmp_path / "out" / "u0.enhanced.wav").exists()
    assert (tmp_path / "out" / "u2.enhanced.wav").exists()
    assert not (tmp_path / "out" / "u1.enhanced.wav").exists()


def test_enhance_batch_rejects_shared_output_stem(trained_tiny_model, tmp_path):
    for sub in ("noisy", "alt"):
        (tmp_path / sub).mkdir()
        write_wav(tmp_path / sub / "utt0000.wav", Waveform(np.zeros(1600), RATE))
    write_manifest(tmp_path / "in.jsonl", [
        ManifestEntry("first", "noisy/utt0000.wav", "noisy", 0.1),
        ManifestEntry("second", "alt/utt0000.wav", "noisy", 0.1),
    ])
    plan = StagePlan([_save(trained_tiny_model, tmp_path / "m.ckpt")])
    with pytest.raises(UsageError, match="'first' and 'second'"):
        enhance_batch(plan, load_manifest(tmp_path / "in.jsonl"), tmp_path / "out")
    assert not (tmp_path / "out").exists()


def test_enhance_batch_threaded_matches_serial(trained_tiny_model, tmp_path):
    manifest = _make_manifest(tmp_path, 4)
    plan = StagePlan([_save(trained_tiny_model, tmp_path / "m.ckpt")])
    enhance_batch(plan, manifest, tmp_path / "serial")
    enhance_batch(plan, manifest, tmp_path / "threaded", threads=4)
    assert ad.grad_enabled()
    for i in range(4):
        a = (tmp_path / "serial" / f"u{i}.enhanced.wav").read_bytes()
        b = (tmp_path / "threaded" / f"u{i}.enhanced.wav").read_bytes()
        assert a == b


def test_report_serializes(trained_tiny_model, tmp_path):
    manifest = _make_manifest(tmp_path, 2)
    plan = StagePlan([_save(trained_tiny_model, tmp_path / "m.ckpt")])
    report = enhance_batch(plan, manifest, tmp_path / "out")
    blob = json.dumps(report.to_dict())
    data = json.loads(blob)
    assert {r["id"] for r in data["results"]} == {"u0", "u1"}


# ---------------------------------------------------------------------------
# stage-major runs
# ---------------------------------------------------------------------------

def _two_stages(trained_tiny_model, tmp_path):
    a = _save(trained_tiny_model, tmp_path / "a.ckpt")
    b = _save(init_model(TINY_CONFIG, seed=99), tmp_path / "b.ckpt")
    return a, b


@pytest.mark.parametrize("target", ["manifest", "file"])
def test_one_stage_model_is_alive_at_a_time(trained_tiny_model, tmp_path, monkeypatch, target):
    a, b = _two_stages(trained_tiny_model, tmp_path)
    _make_manifest(tmp_path, 3)
    alive, peak = [0], [0]
    load = inference.load_checkpoint

    def counting(path):
        ckpt = load(path)
        alive[0] += 1
        peak[0] = max(peak[0], alive[0])
        weakref.finalize(ckpt.model, lambda: alive.__setitem__(0, alive[0] - 1))
        return ckpt

    monkeypatch.setattr(inference, "load_checkpoint", counting)
    inp, out = {"manifest": ("in.jsonl", "out"), "file": ("u0.wav", "o.wav")}[target]
    argv = ["enhance", "--stages", f"{a},{b}", "--in", str(tmp_path / inp),
            "--out", str(tmp_path / out), "--threads", "2"]
    assert cli_main(argv) == 0
    assert peak == [1]


@pytest.mark.parametrize("threads", [1, 4])
def test_each_stage_loads_once(trained_tiny_model, tmp_path, monkeypatch, threads):
    a, b = _two_stages(trained_tiny_model, tmp_path)
    plan = StagePlan([a, b])
    manifest = _make_manifest(tmp_path, 5)
    loads = []
    load = inference.load_checkpoint
    monkeypatch.setattr(inference, "load_checkpoint", lambda path: loads.append(path) or load(path))
    report = enhance_batch(plan, manifest, tmp_path / "out", threads=threads)
    assert report.failures == []
    assert loads == [a, b]
    first, second = [load_checkpoint(a)], [load_checkpoint(b)]
    assert plan.sha256 == [first[0].sha256, second[0].sha256]
    for i in range(5):
        ref = tmp_path / "ref.wav"
        write_wav(ref, enhance(second, enhance(first, read_wav(tmp_path / f"u{i}.wav"))))
        assert (tmp_path / "out" / f"u{i}.enhanced.wav").read_bytes() == ref.read_bytes()


# What a manifest enhance leaves in its output directory, besides one
# <stem>.enhanced.wav per file that did not fail.
_RECORDS = ["enhance_report.json", "enhanced.manifest.jsonl", "resolved.cfg"]


def _enhance_manifest(stages, tmp_path, *extra):
    argv = ["enhance", "--stages", ",".join(stages), "--in", str(tmp_path / "in.jsonl"),
            "--out", str(tmp_path / "out"), *extra]
    return cli_main(argv)


@pytest.mark.parametrize("broken", [None, 1], ids=["every-file", "one-file-fails"])
def test_a_three_stage_run_leaves_only_its_outputs(trained_tiny_model, tmp_path, broken):
    a, b = _two_stages(trained_tiny_model, tmp_path)
    _make_manifest(tmp_path, 5)
    if broken is not None:
        (tmp_path / f"u{broken}.wav").write_bytes(b"not a wav at all")
    assert _enhance_manifest([a, b, a], tmp_path, "--threads", "2") == 0
    wavs = [f"u{i}.enhanced.wav" for i in range(5) if i != broken]
    assert sorted(p.name for p in (tmp_path / "out").iterdir()) == sorted(wavs + _RECORDS)


def test_a_second_stage_that_fails_to_load_leaves_nothing(trained_tiny_model, tmp_path, capsys):
    a, b = _two_stages(trained_tiny_model, tmp_path)
    blob = bytearray((tmp_path / "b.ckpt").read_bytes())
    blob[-100] ^= 0xFF  # a payload byte: only the CRC32 can catch it, when the stage loads
    (tmp_path / "b.ckpt").write_bytes(bytes(blob))
    _make_manifest(tmp_path, 5)
    assert _enhance_manifest([a, b], tmp_path, "--threads", "1") == 3
    assert "payload checksum mismatch" in capsys.readouterr().err
    assert list((tmp_path / "out").iterdir()) == []


def test_a_scratch_directory_that_cannot_be_made_exits_3(trained_tiny_model, tmp_path, capsys,
                                                         monkeypatch):
    a, b = _two_stages(trained_tiny_model, tmp_path)
    _make_manifest(tmp_path, 2)

    def refused(*args, **kwargs):
        raise PermissionError(13, "Permission denied")

    monkeypatch.setattr(fileio.tempfile, "mkdtemp", refused)
    assert _enhance_manifest([a, b], tmp_path) == 3
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot create a scratch directory in {tmp_path / 'out'}: ")
    assert "Traceback" not in err
    assert list((tmp_path / "out").iterdir()) == []


# ---------------------------------------------------------------------------
# float32 stages
# ---------------------------------------------------------------------------

def test_plan_stages_are_float32_and_loaded_without_a_copy(trained_tiny_model, tmp_path):
    path = _save(trained_tiny_model, tmp_path / "m.ckpt")
    stages = [StagePlan([path]).load(0)]
    assert all(p.data.dtype == np.float32 for p in stages[0].model.parameters())
    wave = Waveform(np.random.default_rng(4).normal(size=2000) * 0.1, RATE)
    in_memory = enhance([Checkpoint(trained_tiny_model)], wave)
    assert trained_tiny_model.dtype == np.float64  # the caller's model is not changed
    assert np.array_equal(in_memory.samples, enhance(stages, wave).samples)


def test_load_checkpoint_gives_float32_parameters(trained_tiny_model, tmp_path):
    model = load_checkpoint(_save(trained_tiny_model, tmp_path / "m.ckpt")).model
    assert model.astype(np.float32) is model  # a stage runs it without a copy
    for name, p in model.params.items():
        assert p.data.dtype == np.float32
        assert np.array_equal(p.data, trained_tiny_model.params[name].data.astype(np.float32)), name


def test_float32_enhance_matches_the_float64_forward(trained_tiny_model, tmp_path):
    path = _save(trained_tiny_model, tmp_path / "m.ckpt")
    plan = [load_checkpoint(path) for _ in range(2)]
    reference = load_checkpoint(path).model.astype(np.float64)
    wave = Waveform(np.random.default_rng(3).normal(size=3000) * 0.1, RATE)
    ref = wave.samples[None, :]
    with ad.no_grad():
        for _ in range(2):
            ref = reference.apply(ref).data
    out = enhance(plan, wave)
    assert ad.grad_enabled()
    assert np.max(np.abs(out.samples - ref[0])) <= 1e-5 * np.max(np.abs(ref))
