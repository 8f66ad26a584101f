"""Strategy batch construction, teacher update protocols, and training loops."""
import hashlib
import threading

import numpy as np
import pytest

import remixse.distill
from remixse import autodiff as ad
from remixse.audio import Waveform
from remixse.cli import OPTIONS
from remixse.corpus import load_corpus, load_manifest
from remixse.distill import (
    DistillConfig,
    MixStrategy,
    TrainConfig,
    bootstrap_nytt,
    build_student_batch,
    distill,
    epoch_batches,
    update_teacher,
)
from remixse.errors import (
    EmptyCorpus,
    MissingExtNoise,
    NonFiniteLoss,
    SampleRateMismatch,
    ShapeMismatch,
    UnexpectedExtNoise,
    UsageError,
)
from remixse.model import (
    TINY_CONFIG,
    Checkpoint,
    DenoiserModel,
    init_model,
    load_checkpoint,
    save_checkpoint,
)
from test_audio import _mix_row


def _inputs(b=4, m=64, seed=0):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(b, m))
    s_hat = rng.normal(size=(b, m)) * 0.5
    n_hat = x - s_hat
    order = rng.permutation(b)
    n_ext = rng.normal(size=(b, m))
    return x, s_hat, n_hat, order, n_ext


def _oracle_pair(strategy, x, s_hat, n_hat, order, n_ext, seed, lo=-5.0, hi=5.0):
    """Literal re-derivation of each recipe, drawing rng values in the
    documented order (SNR array first, then NYTT2 coins)."""
    rng = np.random.default_rng(seed)
    shuffled = n_hat[order]
    b = x.shape[0]
    if strategy in (MixStrategy.CTT3, MixStrategy.NYTT2, MixStrategy.NYTT3):
        snrs = rng.uniform(lo, hi, size=b)
    if strategy is MixStrategy.CTT1:
        return x, s_hat
    if strategy is MixStrategy.CTT2:
        return s_hat + shuffled, s_hat
    if strategy is MixStrategy.CTT3:
        base = s_hat + shuffled
        rows = np.stack(
            [_mix_row(base[i], n_ext[i], snrs[i])[0] for i in range(b)]
        )
        return rows, s_hat
    if strategy is MixStrategy.NYTT1:
        return x + shuffled, x
    if strategy is MixStrategy.NYTT2:
        coins = rng.random(b) < 0.5
        rows = []
        for i in range(b):
            if coins[i]:
                rows.append(x[i] + shuffled[i])
            else:
                rows.append(_mix_row(x[i], n_ext[i], snrs[i])[0])
        return np.stack(rows), x
    if strategy is MixStrategy.NYTT3:
        base = x + shuffled
        rows = np.stack(
            [_mix_row(base[i], n_ext[i], snrs[i])[0] for i in range(b)]
        )
        return rows, x
    raise AssertionError


@pytest.mark.parametrize("strategy", list(MixStrategy))
def test_strategy_batches_match_literal_recipe(strategy):
    x, s_hat, n_hat, order, n_ext = _inputs(seed=10)
    ext = n_ext if strategy.needs_ext_noise else None
    y, t = build_student_batch(strategy, x, s_hat, n_hat, order, ext, np.random.default_rng(99))
    y_ref, t_ref = _oracle_pair(strategy, x, s_hat, n_hat, order, n_ext, seed=99)
    assert np.array_equal(y, y_ref)
    assert np.array_equal(t, t_ref)


def test_ctt1_is_passthrough():
    x, s_hat, n_hat, order, _ = _inputs(seed=1)
    y, t = build_student_batch(MixStrategy.CTT1, x, s_hat, n_hat, order, None, np.random.default_rng(0))
    assert np.array_equal(y, x)
    assert np.array_equal(t, s_hat)


def test_nytt1_algebra_with_identity_permutation():
    # noise estimate = x - s, so input = x + (x - s) = 2x - s
    rng = np.random.default_rng(2)
    x = rng.normal(size=(3, 32))
    s_hat = rng.normal(size=(3, 32))
    n_hat = x - s_hat
    y, t = build_student_batch(
        MixStrategy.NYTT1, x, s_hat, n_hat, np.arange(3), None, np.random.default_rng(0)
    )
    assert np.allclose(y, 2.0 * x - s_hat, atol=1e-15)
    assert np.array_equal(t, x)


def test_nytt2_coin_is_fair():
    # binomial check at 4 sigma over 10^4 rows
    b, m = 10_000, 4
    rng = np.random.default_rng(5)
    x = rng.normal(size=(b, m))
    s_hat = rng.normal(size=(b, m)) * 0.5
    n_hat = x - s_hat
    n_ext = rng.normal(size=(b, m))
    y, _ = build_student_batch(
        MixStrategy.NYTT2, x, s_hat, n_hat, np.arange(b), n_ext, np.random.default_rng(123)
    )
    used_indomain = np.isclose(y, x + n_hat, atol=1e-12).all(axis=1)
    fraction = used_indomain.mean()
    assert 0.47 <= fraction <= 0.53


@pytest.mark.parametrize("strategy", [MixStrategy.CTT3, MixStrategy.NYTT2, MixStrategy.NYTT3])
def test_ext_noise_required(strategy):
    x, s_hat, n_hat, order, _ = _inputs()
    with pytest.raises(MissingExtNoise):
        build_student_batch(strategy, x, s_hat, n_hat, order, None, np.random.default_rng(0))


@pytest.mark.parametrize("strategy", [MixStrategy.CTT1, MixStrategy.CTT2, MixStrategy.NYTT1])
def test_ext_noise_forbidden(strategy):
    x, s_hat, n_hat, order, n_ext = _inputs()
    with pytest.raises(UnexpectedExtNoise):
        build_student_batch(strategy, x, s_hat, n_hat, order, n_ext, np.random.default_rng(0))


def test_shape_mismatch_rejected():
    x, s_hat, n_hat, order, n_ext = _inputs()
    bad = np.zeros((4, 32))
    with pytest.raises(ShapeMismatch):
        build_student_batch(MixStrategy.CTT2, x, bad, n_hat, order, None, np.random.default_rng(0))
    # an order that is not a permutation of the 4 rows, under every strategy
    for bad_order in ([0, 0, 2, 3], [0, 1, 2], [0, 1, 2, 3, 4], [1, 2, 3, 4], [[0, 1], [2, 3]],
                      [1.0, 0.0, 2.0, 3.0]):
        for strategy in MixStrategy:
            ext = n_ext if strategy.needs_ext_noise else None
            with pytest.raises(ShapeMismatch, match="not a permutation"):
                build_student_batch(strategy, x, s_hat, n_hat, np.array(bad_order), ext,
                                    np.random.default_rng(0))


def test_targets_are_bit_exact_copies():
    x, s_hat, n_hat, order, n_ext = _inputs(seed=8)
    for strategy in MixStrategy:
        ext = n_ext if strategy.needs_ext_noise else None
        y, t = build_student_batch(strategy, x, s_hat, n_hat, order, ext, np.random.default_rng(1))
        expected = s_hat if strategy.value.startswith("ctt") else x
        assert np.array_equal(t, expected)
        assert y.shape == (4, 64)


# ---------------------------------------------------------------------------
# teacher update protocols
# ---------------------------------------------------------------------------

def test_update_teacher_static_returns_same_object():
    teacher = init_model(TINY_CONFIG, seed=0)
    student = init_model(TINY_CONFIG, seed=1)
    out = update_teacher(None, teacher, student)
    assert out is teacher


def test_update_teacher_ema_gamma_one_copies_student():
    teacher = init_model(TINY_CONFIG, seed=0)
    student = init_model(TINY_CONFIG, seed=1)
    out = update_teacher(1.0, teacher, student)
    for name, p in out.params.items():
        assert np.array_equal(p.data, student.params[name].data)


def test_update_teacher_ema_default_arithmetic():
    teacher = init_model(TINY_CONFIG, seed=0)
    student = init_model(TINY_CONFIG, seed=0)
    for p in teacher.parameters():
        p.data[...] = 1.0
    for p in student.parameters():
        p.data[...] = 0.0
    out = update_teacher(0.005, teacher, student)  # the default --gamma
    for p in out.parameters():
        assert np.allclose(p.data, 0.995, atol=1e-15)


def test_tup_validation():
    tup = next(o for o in OPTIONS if o.key == "train.tup")
    with pytest.raises(UsageError):
        tup.parse("momentum")
    for gamma in (0.0, -0.5, 1.5, float("nan")):
        with pytest.raises(ValueError, match="gamma"):
            DistillConfig(ema_gamma=gamma)
    assert DistillConfig(ema_gamma=1.0).ema_gamma == 1.0




# ---------------------------------------------------------------------------
# epoch batching
# ---------------------------------------------------------------------------

def test_epoch_batches_cover_without_replacement():
    rng = np.random.default_rng(0)
    batches = list(epoch_batches(10, 3, rng))
    assert len(batches) == 3  # final partial batch dropped
    flat = np.concatenate(batches)
    assert len(flat) == len(set(flat.tolist()))
    assert all(len(b) == 3 for b in batches)


def test_epoch_batches_exact_division():
    batches = list(epoch_batches(8, 4, np.random.default_rng(1)))
    assert sorted(np.concatenate(batches).tolist()) == list(range(8))


# ---------------------------------------------------------------------------
# training loops (tiny corpora)
# ---------------------------------------------------------------------------

def _quick_config(factory=TrainConfig, **overrides):
    base = dict(
        epochs=1,
        batch_size=4,
        segment_samples=2500,
        shift_max_samples=400,
        seed=5,
    )
    base.update(overrides)
    return factory(**base)


def _distill_config(**overrides):
    return _quick_config(DistillConfig, **overrides)


@pytest.fixture(scope="module")
def corpora(tmp_path_factory):
    from remixse.corpus import SynthSpec, synth_corpus

    root = tmp_path_factory.mktemp("distill_corpus")
    noisy_p, noise_p, _, _ = synth_corpus(SynthSpec(seed=21, num_utterances=8), root)
    return (
        load_corpus(load_manifest(noisy_p), "noisy"),
        load_corpus(load_manifest(noise_p), "noise"),
    )


def test_bootstrap_rejects_empty_corpus(corpora):
    noisy, ext = corpora
    model = init_model(TINY_CONFIG, seed=0)
    with pytest.raises(EmptyCorpus):
        bootstrap_nytt([], ext, model, _quick_config())
    with pytest.raises(EmptyCorpus):
        bootstrap_nytt(noisy, [], model, _quick_config())


def test_trainers_read_one_sample_rate_off_their_corpora(corpora):
    noisy, ext = corpora
    model = init_model(TINY_CONFIG, seed=0)
    at_8k = [Waveform(noisy[0].samples, 8000)]
    with pytest.raises(SampleRateMismatch, match=r"\[8000, 16000\]"):
        bootstrap_nytt(noisy, ext + at_8k, model, _quick_config())
    with pytest.raises(SampleRateMismatch, match=r"\[8000, 16000\]"):
        distill(model, noisy + at_8k, None, _distill_config())


def test_bootstrap_deterministic_per_seed(corpora):
    noisy, ext = corpora

    def run():
        model = init_model(TINY_CONFIG, seed=1)
        model, stats = bootstrap_nytt(noisy, ext, model, _quick_config())
        return model, stats

    m1, s1 = run()
    m2, s2 = run()
    assert s1.step_losses == s2.step_losses
    for a, b in zip(m1.parameters(), m2.parameters()):
        assert np.array_equal(a.data, b.data)


def test_bootstrap_stats_shape(corpora):
    noisy, ext = corpora
    model = init_model(TINY_CONFIG, seed=2)
    model, stats = bootstrap_nytt(noisy, ext, model, _quick_config(epochs=2))
    assert len(stats.epochs) == 2
    assert stats.epochs[0].steps == 2  # 8 utterances / batch 4
    assert len(stats.step_losses) == 4
    assert all(np.isfinite(e.mean_loss) for e in stats.epochs)


def test_remix_is_a_bootstrap_switch(corpora):
    # distill never remixes the bootstrap way, so no config carries the switch
    with pytest.raises(TypeError):
        DistillConfig(remix=False)
    with pytest.raises(TypeError):
        TrainConfig(remix=False)
    noisy, ext = corpora
    losses = [
        bootstrap_nytt(noisy, ext, init_model(TINY_CONFIG, seed=1), _quick_config(), remix=remix)[1]
        .step_losses
        for remix in (True, False)
    ]
    assert losses[0] != losses[1]


def record_teacher_updates(monkeypatch) -> list[dict[str, np.ndarray]]:
    """Snapshot the teacher that each epoch-boundary update returns."""
    snapshots = []

    def recording(ema_gamma, teacher, student):
        updated = update_teacher(ema_gamma, teacher, student)
        snapshots.append({name: p.data.copy() for name, p in updated.params.items()})
        return updated

    monkeypatch.setattr(remixse.distill, "update_teacher", recording)
    return snapshots


def test_distill_static_teacher_frozen(corpora, monkeypatch):
    noisy, _ = corpora
    teacher = init_model(TINY_CONFIG, seed=3)
    initial = {n: p.data.copy() for n, p in teacher.params.items()}
    snapshots = record_teacher_updates(monkeypatch)
    result = distill(teacher, noisy, None, _distill_config(epochs=3, strategy=MixStrategy.NYTT1))
    assert len(snapshots) == 3  # one per epoch boundary
    for snapshot in snapshots:
        for name, arr in snapshot.items():
            assert np.array_equal(arr, initial[name])
    for name, p in result.teacher.params.items():
        assert np.array_equal(p.data, initial[name])


def test_distill_ema_single_epoch_arithmetic(corpora):
    noisy, _ = corpora
    teacher = init_model(TINY_CONFIG, seed=4)
    initial = {n: p.data.copy() for n, p in teacher.params.items()}
    gamma = 0.005
    result = distill(
        teacher,
        noisy,
        None,
        _distill_config(epochs=1, strategy=MixStrategy.NYTT1, ema_gamma=gamma),
    )
    for name, p in result.teacher.params.items():
        expected = gamma * result.student.params[name].data + (1 - gamma) * initial[name]
        assert np.allclose(p.data, expected, atol=1e-12)


def test_trainers_leave_no_thread_running(corpora):
    noisy, ext = corpora
    threads = threading.active_count()
    model, _ = bootstrap_nytt(noisy, ext, init_model(TINY_CONFIG, seed=3), _quick_config())
    assert threading.active_count() == threads
    assert all(p.grad is None for p in model.parameters())  # each step released its own
    result = distill(model, noisy, None, _distill_config(ema_gamma=0.5))
    assert threading.active_count() == threads
    assert all(p.grad is None for p in result.student.parameters())


def test_distill_student_learns(corpora):
    noisy, _ = corpora
    teacher = init_model(TINY_CONFIG, seed=6)
    initial = {n: p.data.copy() for n, p in teacher.params.items()}
    result = distill(teacher, noisy, None, _distill_config(epochs=1, strategy=MixStrategy.CTT2))
    assert any(
        not np.array_equal(result.student.params[n].data, initial[n]) for n in initial
    )


def test_distill_ctt1_with_copied_student_is_a_fixed_point(corpora):
    # Student starts as a bit-exact teacher copy, so on CTT1 its prediction
    # equals the target everywhere: zero loss, zero (sub)gradient, no motion.
    noisy, _ = corpora
    teacher = init_model(TINY_CONFIG, seed=6)
    initial = {n: p.data.copy() for n, p in teacher.params.items()}
    result = distill(teacher, noisy, None, _distill_config(epochs=1, strategy=MixStrategy.CTT1))
    assert result.stats.step_losses == [0.0, 0.0]
    for name, p in result.student.params.items():
        assert np.array_equal(p.data, initial[name])


def test_distill_replay_is_bit_identical(corpora):
    noisy, ext = corpora
    teacher = init_model(TINY_CONFIG, seed=7)
    losses = {}
    for augment in (False, True):
        config = _distill_config(
            epochs=2,
            strategy=MixStrategy.NYTT3,
            ema_gamma=0.005,
            seed=11,
            shift=augment,
            bandmask=augment,
        )
        r1 = distill(teacher.copy(), noisy, ext, config)
        r2 = distill(teacher.copy(), noisy, ext, config)
        assert r1.stats.step_losses == r2.stats.step_losses
        for a, b in zip(r1.student.parameters(), r2.student.parameters()):
            assert np.array_equal(a.data, b.data)
        losses[augment] = r1.stats.step_losses
    assert losses[False] != losses[True]  # the augmented run trains on other batches


def _record_forwards(monkeypatch) -> list[tuple[bool, np.dtype, dict]]:
    """(grad enabled, parameter dtype, parameter copies) of every apply call."""
    calls = []
    apply = DenoiserModel.apply

    def recording(self, x, *args, **kwargs):
        params = {name: p.data.copy() for name, p in self.params.items()}
        calls.append((ad.grad_enabled(), self.dtype, params))
        return apply(self, x, *args, **kwargs)

    monkeypatch.setattr(DenoiserModel, "apply", recording)
    return calls


def test_distill_float32_ema_teacher_stays_float32_and_blends_in_float32(corpora, monkeypatch):
    noisy, _ = corpora
    teacher = init_model(TINY_CONFIG, seed=4).astype(np.float32)
    initial = {n: p.data.copy() for n, p in teacher.params.items()}
    updates = []

    def recording(ema_gamma, old, student):
        new = update_teacher(ema_gamma, old, student)
        updates.append(({n: p.data.copy() for n, p in old.params.items()},
                        {n: p.data.copy() for n, p in student.params.items()}, new))
        return new

    monkeypatch.setattr(remixse.distill, "update_teacher", recording)
    calls = _record_forwards(monkeypatch)
    gamma = 0.25
    config = _distill_config(epochs=2, strategy=MixStrategy.NYTT1, ema_gamma=gamma)
    result = distill(teacher, noisy, None, config)

    teacher_calls = [(dtype, params) for grad, dtype, params in calls if not grad]
    student_calls = [(dtype, params) for grad, dtype, params in calls if grad]
    assert len(teacher_calls) == len(student_calls) == 4  # 2 steps per epoch
    assert all(dtype == np.float32 for dtype, _ in teacher_calls)
    assert all(dtype == np.float32 for dtype, _ in student_calls)
    for name, arr in student_calls[0][1].items():  # the student starts as a float32 copy
        assert np.array_equal(arr, initial[name])
    for _, params in teacher_calls[:2]:  # epoch 1: the initial teacher
        assert all(np.array_equal(params[n], initial[n]) for n in initial)

    assert len(updates) == 2
    for old, student, new in updates:
        assert new.dtype == np.float32
        for name, p in new.params.items():
            assert np.array_equal(p.data, gamma * student[name] + (1 - gamma) * old[name])
    first_update = updates[0][2]
    for _, params in teacher_calls[2:]:  # epoch 2: the first update itself
        assert all(np.array_equal(params[n], first_update.params[n].data) for n in params)
    assert result.teacher is updates[1][2]
    assert result.student.dtype == np.float32


def test_distill_static_float32_teacher_is_returned_unchanged(corpora, monkeypatch):
    noisy, _ = corpora
    teacher = init_model(TINY_CONFIG, seed=3).astype(np.float32)
    initial = {n: p.data.copy() for n, p in teacher.params.items()}
    calls = _record_forwards(monkeypatch)
    result = distill(teacher, noisy, None, _distill_config(epochs=2, strategy=MixStrategy.NYTT1))
    assert result.teacher is teacher
    assert all(np.array_equal(p.data, initial[n]) for n, p in teacher.params.items())
    teacher_dtypes = [dtype for grad, dtype, _ in calls if not grad]
    assert len(teacher_dtypes) == 4 and all(dtype == np.float32 for dtype in teacher_dtypes)
    assert result.student.dtype == np.float32


def _params_sha256(model: DenoiserModel) -> str:
    digest = hashlib.sha256()
    for p in model.parameters():
        digest.update(p.data.tobytes())
    return digest.hexdigest()


def test_distill_makes_no_astype_copy_of_the_ema_teacher(corpora, monkeypatch):
    # The EMA teacher keeps the student's dtype, so no teacher pass casts it.
    noisy, _ = corpora
    teacher = init_model(TINY_CONFIG, seed=4).astype(np.float32)
    copies = []
    astype = DenoiserModel.astype

    def tracking(self, dtype):
        result = astype(self, dtype)
        if result is not self:
            copies.append(result)
        return result

    monkeypatch.setattr(DenoiserModel, "astype", tracking)
    config = _distill_config(epochs=2, strategy=MixStrategy.NYTT1, ema_gamma=0.25)
    result = distill(teacher, noisy, None, config)

    assert copies == []
    assert result.student.dtype == np.float32 and result.teacher.dtype == np.float32
    assert _params_sha256(result.student) == (
        "cea846993ec840e0ac8c47e54b6cf1327048f2e061272c97cc6fcdf9ddf86c0c"
    )
    assert _params_sha256(result.teacher) == (
        "7c6269dd59db8d67ef027e5d287f37d460b9cc067a37ba44c2a09c659f7bcd03"
    )


def test_float32_bootstrap_with_shift_and_bandmask_is_pinned(corpora):
    # Pinned bits of float32 training through augment_shift and BandMask.
    noisy, ext = corpora
    model, _ = bootstrap_nytt(
        noisy, ext, init_model(TINY_CONFIG, seed=6).astype(np.float32), _quick_config(epochs=2)
    )
    assert _params_sha256(model) == (
        "7fa5d300d88b2528969d43de4913bb94d26d0f75b5f80942c60298e0d385686a"
    )


def test_float32_nytt2_static_distill_with_augmentation_is_pinned(corpora):
    # Pinned bits through the noise order, the NYTT2 coins, the
    # extraneous-noise SNRs and the augmentation.
    noisy, ext = corpora
    config = _distill_config(epochs=2, strategy=MixStrategy.NYTT2, shift=True, bandmask=True)
    result = distill(init_model(TINY_CONFIG, seed=2).astype(np.float32), noisy, ext, config)
    assert _params_sha256(result.student) == (
        "ba798174754a4e5e00840be36e1b8dc3880a803063e370a76492706ba2f17837"
    )
    assert _params_sha256(result.teacher) == (
        "53752b0cb48c1385b7c573f84e49aa70f9af235757f175a79e9acb5615c2b111"
    )


def test_float32_bootstrap_tracks_float64_from_the_same_init(corpora):
    # The precision claim of float32 training, Adam's float32 update included.
    noisy, ext = corpora
    init = init_model(TINY_CONFIG, seed=6).astype(np.float32)
    config = _quick_config(epochs=20)  # 2 steps per epoch
    f32, s32 = bootstrap_nytt(noisy, ext, init.copy(), config)
    f64, s64 = bootstrap_nytt(noisy, ext, init.astype(np.float64), config)
    assert f32.dtype == np.float32 and f64.dtype == np.float64
    assert len(s32.step_losses) == 40
    np.testing.assert_allclose(s32.step_losses, s64.step_losses, rtol=1e-7, atol=0)


def test_float32_ema_teacher_tracks_a_float64_replay(corpora, monkeypatch):
    # The precision claim of the float32 EMA teacher: replaying its updates
    # over the same students in float64 moves no array by more than 1e-5 of
    # its largest value.
    noisy, _ = corpora
    init = init_model(TINY_CONFIG, seed=4).astype(np.float32)
    students, teachers = [], []

    def recording(ema_gamma, teacher, student):
        students.append({n: p.data.copy() for n, p in student.params.items()})
        updated = update_teacher(ema_gamma, teacher, student)
        teachers.append({n: p.data.copy() for n, p in updated.params.items()})
        return updated

    monkeypatch.setattr(remixse.distill, "update_teacher", recording)
    gamma = 0.005  # the default --gamma
    config = _distill_config(epochs=20, strategy=MixStrategy.NYTT1, ema_gamma=gamma)
    result = distill(init, noisy, None, config)
    assert result.teacher.dtype == np.float32 and len(students) == 20

    replay = {n: p.data.astype(np.float64) for n, p in init.params.items()}
    for student, teacher in zip(students, teachers):
        for name, s in student.items():
            replay[name] = gamma * s.astype(np.float64) + (1 - gamma) * replay[name]
            peak = np.abs(replay[name]).max()
            assert np.abs(teacher[name] - replay[name]).max() <= 1e-5 * peak, name


def test_float32_ema_teacher_checkpoint_round_trips_bit_exact(corpora, tmp_path):
    noisy, _ = corpora
    config = _distill_config(epochs=2, strategy=MixStrategy.NYTT1, ema_gamma=0.25)
    result = distill(init_model(TINY_CONFIG, seed=4).astype(np.float32), noisy, None, config)
    path = tmp_path / "teacher.ckpt"
    save_checkpoint(path, Checkpoint(result.teacher))
    loaded = load_checkpoint(path).model
    for name, p in result.teacher.params.items():
        assert loaded.params[name].data.dtype == p.data.dtype == np.float32
        assert np.array_equal(loaded.params[name].data, p.data), name


def test_distill_ext_noise_consistency(corpora):
    noisy, ext = corpora
    teacher = init_model(TINY_CONFIG, seed=8)
    with pytest.raises(MissingExtNoise):
        distill(teacher, noisy, None, _distill_config(strategy=MixStrategy.CTT3))
    with pytest.raises(UnexpectedExtNoise):
        distill(teacher, noisy, ext, _distill_config(strategy=MixStrategy.NYTT1))


def test_distill_batch_size_guard(corpora):
    noisy, _ = corpora
    teacher = init_model(TINY_CONFIG, seed=9)
    with pytest.raises(ValueError):
        distill(teacher, noisy, None, _distill_config(batch_size=1, strategy=MixStrategy.NYTT1))
    for strategy in MixStrategy:  # only a shuffle of noise rows needs a second row
        if strategy.uses_shuffled_noise:
            with pytest.raises(ValueError, match="shuffles noise between rows"):
                _distill_config(batch_size=1, strategy=strategy)
    assert _distill_config(batch_size=1, strategy=MixStrategy.CTT1).batch_size == 1
    assert _quick_config(batch_size=1).batch_size == 1  # bootstrap has no strategy


@pytest.mark.parametrize("shift, bandmask", [(False, False), (True, False), (False, True)])
def test_distill_augments_exactly_when_shift_or_bandmask_is_set(corpora, monkeypatch, shift,
                                                                bandmask):
    noisy, _ = corpora
    built, trained = [], []
    build, train = remixse.distill.build_student_batch, remixse.distill._train

    def recording_build(*args):
        built.append(build(*args))
        return built[-1]

    def recording_train(model, num_utterances, make_batch, *args):
        def recording_make_batch(indices):
            trained.append(make_batch(indices))
            return trained[-1]

        return train(model, num_utterances, recording_make_batch, *args)

    monkeypatch.setattr(remixse.distill, "build_student_batch", recording_build)
    monkeypatch.setattr(remixse.distill, "_train", recording_train)
    config = _distill_config(shift=shift, bandmask=bandmask)
    distill(init_model(TINY_CONFIG, seed=2), noisy, None, config)
    assert len(built) == len(trained) == 2
    for (y, target), (y_in, target_in) in zip(built, trained):
        if shift or bandmask:
            assert not np.array_equal(y_in, y)
        else:  # the very arrays the strategy built, not target + (y - target)
            assert y_in is y and target_in is target


def test_bootstrap_smoke_learning(tmp_path):
    # Deterministic 200-step smoke run. Threshold frozen from three seeded
    # oracle runs of this exact configuration (ratios 0.772 / 0.798 / 0.824);
    # 0.9 leaves margin while still requiring real learning progress.
    from remixse.corpus import SynthSpec, synth_corpus

    noisy_p, noise_p, _, _ = synth_corpus(
        SynthSpec(seed=7, num_utterances=64, duration_s=1.0), tmp_path
    )
    noisy = load_corpus(load_manifest(noisy_p), "noisy")
    ext = load_corpus(load_manifest(noise_p), "noise")
    config = TrainConfig(
        epochs=50,
        batch_size=16,
        segment_samples=2000,
        learning_rate=3e-4,
        shift=False,
        bandmask=False,
        seed=0,
    )
    model, stats = bootstrap_nytt(noisy, ext, init_model(TINY_CONFIG, seed=0), config, remix=False)
    losses = np.array(stats.step_losses)
    assert len(losses) == 200
    ratio = losses[-10:].mean() / losses[:10].mean()
    assert ratio <= 0.9


def nan_loss_at_call(monkeypatch, call: int):
    """Make the ``call``-th MAE loss (1-based) of the run NaN."""
    calls = []
    mae = ad.mae_loss

    def loss(pred, target):
        calls.append(None)
        out = mae(pred, target)
        return ad.scale(out, np.nan) if len(calls) == call else out

    monkeypatch.setattr(ad, "mae_loss", loss)


def test_train_raises_non_finite_loss_naming_epoch_and_step(monkeypatch):
    nan_loss_at_call(monkeypatch, 3)  # two steps per epoch: epoch 2, step 0
    x = np.random.default_rng(0).normal(size=(2, 2000))
    config = TrainConfig(epochs=3, batch_size=2, segment_samples=2000, shift=False)
    with pytest.raises(NonFiniteLoss, match="loss became nan at epoch 2, step 0"):
        remixse.distill._train(init_model(TINY_CONFIG, seed=0), 4, lambda idx: (x, x), config,
                               np.random.default_rng(0))


def test_train_config_validation():
    with pytest.raises(ValueError):
        TrainConfig(epochs=0)
    with pytest.raises(ValueError):
        TrainConfig(snr_low_db=5.0, snr_high_db=-5.0)
    with pytest.raises(ValueError):
        TrainConfig(loss="huber")
    with pytest.raises(ValueError):
        TrainConfig(segment_samples=1000, shift_max_samples=1000)


@pytest.mark.parametrize("lr", [float("nan"), float("inf"), 0.0, -1.0])
def test_train_config_rejects_a_learning_rate_that_is_not_finite_and_positive(lr):
    with pytest.raises(ValueError, match="learning_rate"):
        TrainConfig(learning_rate=lr)
