"""Stage plans, composition semantics, and batch enhancement."""
import json

import numpy as np
import pytest

from remixse import autodiff as ad
from remixse.audio import Waveform, write_wav
from remixse.corpus import ManifestEntry, load_manifest, write_manifest
from remixse.errors import SampleRateMismatch, UsageError
from remixse.inference import InferencePlan, enhance, enhance_batch
from remixse.model import (
    DenoiserModel,
    ModelConfig,
    TINY_CONFIG,
    init_model,
    model_to_checkpoint,
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
    save_checkpoint(path, model_to_checkpoint(model, sample_rate_hz=rate))
    return str(path)


def test_identity_model_single_stage_is_near_identity(tmp_path):
    path = _save(_identity_model(), tmp_path / "id.ckpt")
    plan = InferencePlan.from_checkpoints([path])
    wave = Waveform(np.random.default_rng(0).normal(size=2000) * 0.1, RATE)
    out = enhance(plan, wave)
    assert len(out) == len(wave)
    assert np.allclose(out.samples, wave.samples, atol=1e-6)


def test_multistage_equals_chained_single_stages(trained_tiny_model, tmp_path):
    path = _save(trained_tiny_model, tmp_path / "m.ckpt")
    wave = Waveform(np.random.default_rng(1).normal(size=2000) * 0.1, RATE)
    for stages in range(1, 6):
        plan_n = InferencePlan.from_checkpoints([path] * stages)
        chained = wave
        single = InferencePlan.from_checkpoints([path])
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
    plan = InferencePlan.from_checkpoints([a, b])
    out = enhance(plan, wave)
    stage1 = enhance(InferencePlan.from_checkpoints([a]), wave)
    stage2 = enhance(InferencePlan.from_checkpoints([b]), stage1)
    assert np.array_equal(out.samples, stage2.samples)


def test_plan_requires_a_stage():
    with pytest.raises(ValueError):
        InferencePlan(models=[], sources=[])


def test_sample_rate_mismatch_rejected(tmp_path):
    path = _save(_identity_model(), tmp_path / "id.ckpt")
    plan = InferencePlan.from_checkpoints([path])
    with pytest.raises(SampleRateMismatch):
        enhance(plan, Waveform(np.zeros(1000), 8000))


def test_plan_rejects_mixed_rates(tmp_path):
    a = _save(_identity_model(), tmp_path / "a.ckpt", rate=16000)
    b = _save(_identity_model(), tmp_path / "b.ckpt", rate=8000)
    with pytest.raises(SampleRateMismatch):
        InferencePlan.from_checkpoints([a, b])


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
    plan = InferencePlan.from_checkpoints([_save(trained_tiny_model, tmp_path / "m.ckpt")])
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
    plan = InferencePlan.from_checkpoints([_save(trained_tiny_model, tmp_path / "m.ckpt")])
    report = enhance_batch(plan, manifest, tmp_path / "out")
    assert report.results == []
    assert report.failures == []


def test_enhance_batch_isolates_failures(trained_tiny_model, tmp_path):
    manifest = _make_manifest(tmp_path, 3)
    (tmp_path / "u1.wav").write_bytes(b"not a wav at all")
    plan = InferencePlan.from_checkpoints([_save(trained_tiny_model, tmp_path / "m.ckpt")])
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
    plan = InferencePlan.from_checkpoints([_save(trained_tiny_model, tmp_path / "m.ckpt")])
    with pytest.raises(UsageError, match="'first' and 'second'"):
        enhance_batch(plan, load_manifest(tmp_path / "in.jsonl"), tmp_path / "out")
    assert not (tmp_path / "out").exists()


def test_enhance_batch_threaded_matches_serial(trained_tiny_model, tmp_path):
    manifest = _make_manifest(tmp_path, 4)
    plan = InferencePlan.from_checkpoints([_save(trained_tiny_model, tmp_path / "m.ckpt")])
    enhance_batch(plan, manifest, tmp_path / "serial")
    enhance_batch(plan, manifest, tmp_path / "threaded", threads=4)
    assert ad.grad_enabled()
    for i in range(4):
        a = (tmp_path / "serial" / f"u{i}.enhanced.wav").read_bytes()
        b = (tmp_path / "threaded" / f"u{i}.enhanced.wav").read_bytes()
        assert a == b


def test_report_serializes(trained_tiny_model, tmp_path):
    manifest = _make_manifest(tmp_path, 2)
    plan = InferencePlan.from_checkpoints([_save(trained_tiny_model, tmp_path / "m.ckpt")])
    report = enhance_batch(plan, manifest, tmp_path / "out")
    blob = json.dumps(report.to_dict())
    data = json.loads(blob)
    assert {r["id"] for r in data["results"]} == {"u0", "u1"}
    assert all(r["stages"] == 1 for r in data["results"])


# ---------------------------------------------------------------------------
# float32 stages
# ---------------------------------------------------------------------------

def test_plan_stages_are_float32_and_loaded_without_a_copy(trained_tiny_model, tmp_path):
    path = _save(trained_tiny_model, tmp_path / "m.ckpt")
    plan = InferencePlan.from_checkpoints([path])
    assert all(p.data.dtype == np.float32 for p in plan.models[0].parameters())
    in_memory = InferencePlan(models=[trained_tiny_model], sources=["<memory>"])
    assert in_memory.models[0].dtype == np.float32
    assert trained_tiny_model.dtype == np.float64  # the caller's model is not changed
    for name, p in plan.models[0].params.items():
        assert np.array_equal(p.data, in_memory.models[0].params[name].data), name


def test_model_from_checkpoint_float32_shares_the_checkpoint_arrays(trained_tiny_model, tmp_path):
    from remixse.model import load_checkpoint, model_from_checkpoint

    ckpt = load_checkpoint(_save(trained_tiny_model, tmp_path / "m.ckpt"))
    model = model_from_checkpoint(ckpt, dtype=np.float32)
    for name, p in model.params.items():
        assert p.data.dtype == np.float32
        assert np.shares_memory(p.data, ckpt.arrays[name]), name


def test_float32_enhance_matches_the_float64_forward(trained_tiny_model, tmp_path):
    from remixse.model import load_checkpoint, model_from_checkpoint

    path = _save(trained_tiny_model, tmp_path / "m.ckpt")
    plan = InferencePlan.from_checkpoints([path] * 2)
    reference = model_from_checkpoint(load_checkpoint(path))  # float64
    wave = Waveform(np.random.default_rng(3).normal(size=3000) * 0.1, RATE)
    ref = wave.samples[None, :]
    with ad.no_grad():
        for _ in range(2):
            ref = reference.apply(ref).data
    out = enhance(plan, wave)
    assert ad.grad_enabled()
    assert np.max(np.abs(out.samples - ref[0])) <= 1e-5 * np.max(np.abs(ref))
