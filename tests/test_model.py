"""Architecture, forward contracts, EMA combination, and checkpoint format."""
import math

import json

import numpy as np
import pytest
from hypothesis import given, strategies as st

from remixse import autodiff as ad
from remixse.audio import SignalBatch
from remixse.errors import (
    ConfigMismatch,
    CorruptHeader,
    MissingFile,
    RemixSEError,
    VersionMismatch,
)
from remixse.model import (
    Checkpoint,
    DenoiserModel,
    ModelConfig,
    TINY_CONFIG,
    ema_combine,
    init_model,
    load_checkpoint,
    model_from_checkpoint,
    model_to_checkpoint,
    output_length,
    save_checkpoint,
    valid_length,
)


# ---------------------------------------------------------------------------
# init
# ---------------------------------------------------------------------------

def test_init_deterministic_per_seed():
    a = init_model(TINY_CONFIG, seed=5)
    b = init_model(TINY_CONFIG, seed=5)
    for pa, pb in zip(a.parameters(), b.parameters()):
        assert np.array_equal(pa.data, pb.data)


def test_init_differs_across_seeds():
    a = init_model(TINY_CONFIG, seed=5)
    b = init_model(TINY_CONFIG, seed=6)
    assert any(
        not np.array_equal(pa.data, pb.data) for pa, pb in zip(a.parameters(), b.parameters())
    )


def _expected_param_count(depth, hidden, k):
    total = 0
    c_prev = 1
    for i in range(1, depth + 1):
        ch = 2 ** (i - 1) * hidden
        total += ch * c_prev * k + ch  # strided conv
        total += 2 * ch * ch + 2 * ch  # 1x1 projection
        c_prev = ch
    h = 2 ** (depth - 1) * hidden
    total += 2 * (4 * h * h + 4 * h * h + 4 * h)  # two LSTM layers
    for i in range(1, depth + 1):
        ch = 2 ** (depth - i) * hidden
        out_ch = 1 if i == depth else ch // 2
        total += 2 * ch * ch + 2 * ch
        total += ch * out_ch * k + out_ch
    return total


def test_parameter_count_matches_closed_form():
    model = init_model(TINY_CONFIG, seed=0)
    assert model.parameter_count() == _expected_param_count(2, 4, 8)


def test_weight_bounds_follow_fan_in():
    model = init_model(TINY_CONFIG, seed=1)
    w = model.params["enc1.conv.w"].data  # fan_in = 1 * 8
    assert np.abs(w).max() <= math.sqrt(1.0 / 8.0)
    assert np.array_equal(model.params["enc1.conv.b"].data, np.zeros(4))


def test_config_validation():
    with pytest.raises(ValueError):
        ModelConfig(depth=0)
    with pytest.raises(ValueError):
        ModelConfig(kernel_size=2, stride=4)
    with pytest.raises(ValueError):
        ModelConfig(resample=0)


# ---------------------------------------------------------------------------
# valid_length
# ---------------------------------------------------------------------------

def _oracle_output_length(m, depth, k, s, u):
    t = math.ceil(m * u)
    for _ in range(depth):
        if t < k:
            return 0
        t = (t - k) // s + 1
    for _ in range(depth):
        t = (t - 1) * s + k
    return math.ceil(t / u)


def _oracle_valid_length(m, depth, k, s, u):
    candidate = m
    while _oracle_output_length(candidate, depth, k, s, u) < m:
        candidate += 1
    return candidate


def test_valid_length_single_layer_fixed_point():
    config = ModelConfig(depth=1, hidden=1, kernel_size=8, stride=4, resample=1)
    assert valid_length(config, 8) == 8
    assert output_length(config, 8) == 8


def test_valid_length_already_valid_is_fixed_point():
    config = TINY_CONFIG
    m = valid_length(config, 1000)
    assert valid_length(config, m) == m


def test_valid_length_monotone_and_matches_oracle():
    config = ModelConfig(depth=2, hidden=2, kernel_size=8, stride=4, resample=2)
    previous = 0
    for m in range(1, 257):
        v = valid_length(config, m)
        assert v == _oracle_valid_length(m, 2, 8, 4, 2)
        assert v >= previous
        previous = v


# ---------------------------------------------------------------------------
# forward
# ---------------------------------------------------------------------------

def test_forward_preserves_shape_and_reconstructs():
    rng = np.random.default_rng(0)
    batch = SignalBatch(rng.normal(size=(3, 2000)) * 0.1, 16000)
    model = init_model(TINY_CONFIG, seed=2)
    speech, noise = model.forward(batch)
    assert speech.data.shape == batch.data.shape
    assert noise.data.shape == batch.data.shape
    # noise = input - speech exactly, so the sum is off by at most one
    # rounding of that subtraction: 1 ulp at the larger operand magnitude.
    err = np.abs(batch.data - (speech.data + noise.data))
    ulp = np.spacing(np.maximum(np.abs(batch.data), np.abs(speech.data)))
    assert np.all(err <= ulp)


def test_forward_zero_input_is_finite():
    model = init_model(TINY_CONFIG, seed=2)
    speech, noise = model.forward(SignalBatch(np.zeros((2, 1500)), 16000))
    assert np.all(np.isfinite(speech.data))
    assert np.all(np.isfinite(noise.data))


def test_forward_with_internal_resampling():
    config = ModelConfig(depth=2, hidden=4, kernel_size=8, stride=4, resample=2)
    model = init_model(config, seed=4)
    batch = SignalBatch(np.random.default_rng(1).normal(size=(2, 1234)), 16000)
    speech, noise = model.forward(batch)
    assert speech.data.shape == (2, 1234)
    assert np.all(np.isfinite(speech.data))


def test_forward_rejects_empty():
    model = init_model(TINY_CONFIG, seed=0)
    with pytest.raises(ValueError):
        model.apply(np.zeros((0, 100)))


def _earliest_affected_bound(config, first_diff_sample):
    """Independent recurrence: earliest output index a change at or after
    first_diff_sample can reach, through conv framing, the forward-only
    bottleneck, skip joins, and transposed-conv expansion."""
    k, s, depth = config.kernel_size, config.stride, config.depth
    enc_min = [first_diff_sample]
    for _ in range(depth):
        enc_min.append(max(0, math.ceil((enc_min[-1] - k + 1) / s)))
    cur = enc_min[depth]
    for level in range(depth, 0, -1):
        cur = min(cur, enc_min[level])
        cur *= s
    return cur


def test_full_model_is_causal_up_to_analytic_bound():
    config = TINY_CONFIG  # resample=1: strict bitwise form
    model = init_model(config, seed=9)
    rng = np.random.default_rng(3)
    t = 200
    m = 400
    x1 = rng.normal(size=(1, m))
    x2 = x1.copy()
    x2[0, t + 1 :] += rng.normal(size=m - t - 1)
    out1 = model.apply(x1, normalize=False).data
    out2 = model.apply(x2, normalize=False).data
    bound = _earliest_affected_bound(config, t + 1)
    assert bound > 0
    assert np.array_equal(out1[:, :bound], out2[:, :bound])
    assert not np.array_equal(out1, out2)
    first_diff = int(np.argmax(np.any(out1 != out2, axis=0)))
    assert first_diff >= bound


# ---------------------------------------------------------------------------
# EMA
# ---------------------------------------------------------------------------

def test_ema_gamma_zero_keeps_teacher():
    teacher = init_model(TINY_CONFIG, seed=1)
    student = init_model(TINY_CONFIG, seed=2)
    out = ema_combine(teacher, student, 0.0)
    for name, p in out.params.items():
        assert np.array_equal(p.data, teacher.params[name].data)


def test_ema_gamma_one_copies_student():
    teacher = init_model(TINY_CONFIG, seed=1)
    student = init_model(TINY_CONFIG, seed=2)
    out = ema_combine(teacher, student, 1.0)
    for name, p in out.params.items():
        assert np.array_equal(p.data, student.params[name].data)


def test_ema_default_gamma_arithmetic():
    teacher = init_model(TINY_CONFIG, seed=1)
    student = init_model(TINY_CONFIG, seed=1)
    for p in teacher.parameters():
        p.data[...] = 1.0
    for p in student.parameters():
        p.data[...] = 0.0
    out = ema_combine(teacher, student, 0.005)
    for p in out.parameters():
        assert np.allclose(p.data, 0.995, atol=1e-15)


def test_ema_composes_affinely():
    teacher = init_model(TINY_CONFIG, seed=1)
    student = init_model(TINY_CONFIG, seed=2)
    g1, g2 = 0.3, 0.2
    twice = ema_combine(ema_combine(teacher, student, g1), student, g2)
    combined_gamma = 1.0 - (1.0 - g1) * (1.0 - g2)
    once = ema_combine(teacher, student, combined_gamma)
    for name, p in twice.params.items():
        assert np.allclose(p.data, once.params[name].data, atol=1e-12)


def test_ema_rejects_config_mismatch():
    teacher = init_model(TINY_CONFIG, seed=1)
    other = init_model(ModelConfig(depth=1, hidden=4), seed=1)
    with pytest.raises(ConfigMismatch):
        ema_combine(teacher, other, 0.5)


# ---------------------------------------------------------------------------
# checkpoints
# ---------------------------------------------------------------------------

def test_checkpoint_round_trip_bit_exact(tmp_path):
    model = init_model(TINY_CONFIG, seed=12)
    path = tmp_path / "m.ckpt"
    save_checkpoint(path, model_to_checkpoint(model, epoch=7, seed=12))
    ckpt = load_checkpoint(path)
    assert ckpt.epoch == 7
    assert ckpt.seed == 12
    assert ckpt.config == TINY_CONFIG
    for name, p in model.params.items():
        assert np.array_equal(ckpt.arrays[name], p.data.astype(np.float32))
    # saving the loaded checkpoint reproduces the same file bytes
    save_checkpoint(tmp_path / "m2.ckpt", ckpt)
    assert (tmp_path / "m.ckpt").read_bytes() == (tmp_path / "m2.ckpt").read_bytes()


def test_checkpoint_with_optimizer_state(tmp_path):
    model = init_model(TINY_CONFIG, seed=3)
    params = model.parameters()
    adam = ad.AdamState(step_size=1e-3)
    for p in params:
        p.grad = np.ones_like(p.data)
    ad.adam_step(params, adam)
    path = tmp_path / "m.ckpt"
    save_checkpoint(path, model_to_checkpoint(model, adam=adam))
    ckpt = load_checkpoint(path)
    assert ckpt.optimizer is not None
    assert ckpt.optimizer.timestep == 1
    names = list(model.params)
    for name, m in zip(names, adam.m):
        assert np.array_equal(ckpt.optimizer.moments1[name], m.astype(np.float32))


def test_checkpoint_truncated_file(tmp_path):
    model = init_model(TINY_CONFIG, seed=3)
    path = tmp_path / "m.ckpt"
    save_checkpoint(path, model_to_checkpoint(model))
    blob = path.read_bytes()
    (tmp_path / "cut.ckpt").write_bytes(blob[: len(blob) - 100])
    with pytest.raises(CorruptHeader):
        load_checkpoint(tmp_path / "cut.ckpt")


def test_checkpoint_crc_detects_corruption(tmp_path):
    model = init_model(TINY_CONFIG, seed=3)
    path = tmp_path / "m.ckpt"
    save_checkpoint(path, model_to_checkpoint(model))
    blob = bytearray(path.read_bytes())
    blob[-50] ^= 0xFF  # flip a payload byte
    (tmp_path / "bad.ckpt").write_bytes(bytes(blob))
    with pytest.raises(CorruptHeader):
        load_checkpoint(tmp_path / "bad.ckpt")


def test_checkpoint_version_mismatch(tmp_path):
    model = init_model(TINY_CONFIG, seed=3)
    path = tmp_path / "m.ckpt"
    save_checkpoint(path, model_to_checkpoint(model))
    blob = bytearray(path.read_bytes())
    blob[5] = ord("2")  # future version byte
    (tmp_path / "v2.ckpt").write_bytes(bytes(blob))
    with pytest.raises(VersionMismatch):
        load_checkpoint(tmp_path / "v2.ckpt")


def test_checkpoint_wrong_magic(tmp_path):
    (tmp_path / "junk.ckpt").write_bytes(b"NOTACKPT" + b"\x00" * 64)
    with pytest.raises(CorruptHeader):
        load_checkpoint(tmp_path / "junk.ckpt")


def test_checkpoint_missing_file(tmp_path):
    with pytest.raises(MissingFile):
        load_checkpoint(tmp_path / "absent.ckpt")


def _with_header(blob: bytes, edit) -> bytes:
    """The checkpoint ``blob`` with its JSON header passed through ``edit``."""
    start = blob.index(b"\n") + 1
    nul = blob.index(b"\x00", start)
    header = json.loads(blob[start:nul])
    edit(header)
    text = json.dumps(header, sort_keys=True, separators=(",", ":")).encode()
    return blob[:start] + text + blob[nul:]


def _drop_arrays(h):
    del h["arrays"]


def _set_entry(key, value, index=1):
    def edit(h):
        h["arrays"][index][key] = value
    return edit


@pytest.mark.parametrize(
    "edit",
    [
        _drop_arrays,
        lambda h: h.update(arrays={"enc1.conv.w": 1}),
        _set_entry("offset", 4),
        _set_entry("offset", -8),
        _set_entry("nbytes", 10**9),
        _set_entry("shape", [3, 2]),
        _set_entry("shape", "8"),
        _set_entry("dtype", "<f8"),
        _set_entry("dtype", "not-a-dtype"),
        _set_entry("name", "enc1.conv.w"),
        lambda h: h["config"].update(depth="2"),
        lambda h: h["config"].update(depth=2.0),
        lambda h: h["config"].update(unknown=1),
        lambda h: h.update(config=[2, 4]),
        lambda h: h.update(epoch=None),
        lambda h: h.pop("seed"),
        lambda h: h.update(optimizer={"kind": "adam"}),
    ],
    ids=[
        "no-arrays", "arrays-not-a-list", "offset-gap", "offset-negative", "nbytes-too-big",
        "shape-wrong", "shape-not-a-list", "dtype-f8", "dtype-unknown", "name-duplicate",
        "config-str", "config-float", "config-unknown-key", "config-not-a-dict",
        "epoch-null", "seed-missing", "optimizer-incomplete",
    ],
)
def test_checkpoint_malformed_header_is_corrupt_header(tmp_path, edit):
    path = tmp_path / "m.ckpt"
    save_checkpoint(path, model_to_checkpoint(init_model(TINY_CONFIG, seed=3)))
    path.write_bytes(_with_header(path.read_bytes(), edit))
    with pytest.raises(CorruptHeader):
        load_checkpoint(path)


def test_checkpoint_header_with_the_old_fixed_config_fields_still_loads(tmp_path):
    # Headers once carried "lstm_layers": 2 and "causal": true; both fields
    # took no other value and are no longer written.
    path = tmp_path / "m.ckpt"
    save_checkpoint(path, model_to_checkpoint(init_model(TINY_CONFIG, seed=3), epoch=2, seed=3))
    blob = path.read_bytes()
    assert b"lstm_layers" not in blob and b"causal" not in blob
    (tmp_path / "old.ckpt").write_bytes(
        _with_header(blob, lambda h: h["config"].update(lstm_layers=2, causal=True))
    )
    new, old = load_checkpoint(path), load_checkpoint(tmp_path / "old.ckpt")
    assert old.config == new.config == TINY_CONFIG
    assert old.arrays.keys() == new.arrays.keys()
    assert all(np.array_equal(old.arrays[n], new.arrays[n]) for n in new.arrays)
    save_checkpoint(tmp_path / "resaved.ckpt", old)
    assert (tmp_path / "resaved.ckpt").read_bytes() == blob
    for name, value in [("lstm_layers", 3), ("lstm_layers", 2.0), ("causal", False),
                        ("causal", 1)]:
        (tmp_path / "bad.ckpt").write_bytes(_with_header(blob, lambda h: h["config"].update(
            {name: value})))
        with pytest.raises(CorruptHeader):
            load_checkpoint(tmp_path / "bad.ckpt")


@pytest.fixture(scope="module")
def checkpoint_bytes(tmp_path_factory):
    model = init_model(TINY_CONFIG, seed=5)
    adam = ad.AdamState()
    for p in model.parameters():
        p.grad = np.ones_like(p.data)
    ad.adam_step(model.parameters(), adam)
    path = tmp_path_factory.mktemp("fuzz") / "m.ckpt"
    save_checkpoint(path, model_to_checkpoint(model, epoch=3, seed=5, adam=adam))
    return path.read_bytes()


@given(data=st.data())
def test_checkpoint_fuzz_raises_only_package_errors(tmp_path_factory, checkpoint_bytes, data):
    blob = bytearray(checkpoint_bytes)
    header_end = blob.index(b"\x00")
    if data.draw(st.booleans(), label="truncate"):
        blob = blob[: data.draw(st.integers(0, len(blob) - 1), label="length")]
    else:
        # mostly inside the header, where a mutation can survive the CRC
        for _ in range(data.draw(st.integers(1, 4), label="flips")):
            pos = data.draw(st.integers(0, header_end), label="pos")
            blob[pos] = data.draw(st.integers(0, 255), label="byte")
    path = tmp_path_factory.mktemp("case") / "m.ckpt"
    path.write_bytes(bytes(blob))
    try:
        load_checkpoint(path)
    except RemixSEError:
        pass


def test_model_from_checkpoint_config_mismatch(tmp_path):
    model = init_model(TINY_CONFIG, seed=3)
    path = tmp_path / "m.ckpt"
    save_checkpoint(path, model_to_checkpoint(model))
    ckpt = load_checkpoint(path)
    with pytest.raises(ConfigMismatch):
        model_from_checkpoint(ckpt, config=ModelConfig(depth=3, hidden=4))


def test_model_round_trip_through_checkpoint(tmp_path):
    model = init_model(TINY_CONFIG, seed=3)
    path = tmp_path / "m.ckpt"
    save_checkpoint(path, model_to_checkpoint(model))
    restored = model_from_checkpoint(load_checkpoint(path))
    x = np.random.default_rng(0).normal(size=(1, 500))
    with ad.no_grad():
        a = model.apply(x).data
    # float32 storage: restored forward matches the float32-cast original
    cast = DenoiserModel(
        model.config,
        {n: ad.Tensor(p.data.astype(np.float32).astype(np.float64)) for n, p in model.params.items()},
    )
    with ad.no_grad():
        b = restored.apply(x).data
        c = cast.apply(x).data
    assert np.array_equal(b, c)
    assert np.allclose(a, b, atol=1e-5)
