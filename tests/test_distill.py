"""Strategy batch construction, teacher update protocols, and training loops."""
import numpy as np
import pytest

import remixse.distill
from remixse.audio import Permutation, SignalBatch, mix_at_snr, shuffle_rows
from remixse.corpus import load_corpus, load_manifest
from remixse.distill import (
    MixStrategy,
    TeacherUpdateProtocol,
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
    ShapeMismatch,
    UnexpectedExtNoise,
)
from remixse.model import TINY_CONFIG, ema_combine, init_model

RATE = 16000


def _inputs(b=4, m=64, seed=0):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(b, m))
    s_hat = rng.normal(size=(b, m)) * 0.5
    n_hat = x - s_hat
    p = Permutation.random(b, rng)
    n_ext = rng.normal(size=(b, m))
    return (
        SignalBatch(x, RATE),
        SignalBatch(s_hat, RATE),
        SignalBatch(n_hat, RATE),
        p,
        SignalBatch(n_ext, RATE),
    )


def _oracle_pair(strategy, x, s_hat, n_hat, p, n_ext, seed, lo=-5.0, hi=5.0):
    """Literal re-derivation of each recipe, drawing rng values in the
    documented order (SNR array first, then NYTT2 coins)."""
    rng = np.random.default_rng(seed)
    shuffled = n_hat.data[p.order]
    b = x.data.shape[0]
    if strategy in (MixStrategy.CTT3, MixStrategy.NYTT2, MixStrategy.NYTT3):
        snrs = rng.uniform(lo, hi, size=b)
    if strategy is MixStrategy.CTT1:
        return x.data, s_hat.data
    if strategy is MixStrategy.CTT2:
        return s_hat.data + shuffled, s_hat.data
    if strategy is MixStrategy.CTT3:
        base = s_hat.data + shuffled
        rows = np.stack(
            [mix_at_snr(base[i], n_ext.data[i], snrs[i])[0] for i in range(b)]
        )
        return rows, s_hat.data
    if strategy is MixStrategy.NYTT1:
        return x.data + shuffled, x.data
    if strategy is MixStrategy.NYTT2:
        coins = rng.random(b) < 0.5
        rows = []
        for i in range(b):
            if coins[i]:
                rows.append(x.data[i] + shuffled[i])
            else:
                rows.append(mix_at_snr(x.data[i], n_ext.data[i], snrs[i])[0])
        return np.stack(rows), x.data
    if strategy is MixStrategy.NYTT3:
        base = x.data + shuffled
        rows = np.stack(
            [mix_at_snr(base[i], n_ext.data[i], snrs[i])[0] for i in range(b)]
        )
        return rows, x.data
    raise AssertionError


@pytest.mark.parametrize("strategy", list(MixStrategy))
def test_strategy_batches_match_literal_recipe(strategy):
    x, s_hat, n_hat, p, n_ext = _inputs(seed=10)
    ext = n_ext if strategy.needs_ext_noise else None
    y, t = build_student_batch(strategy, x, s_hat, n_hat, p, ext, np.random.default_rng(99))
    y_ref, t_ref = _oracle_pair(strategy, x, s_hat, n_hat, p, n_ext, seed=99)
    assert np.array_equal(y.data, y_ref)
    assert np.array_equal(t.data, t_ref)


def test_ctt1_is_passthrough():
    x, s_hat, n_hat, p, _ = _inputs(seed=1)
    y, t = build_student_batch(MixStrategy.CTT1, x, s_hat, n_hat, p, None, np.random.default_rng(0))
    assert np.array_equal(y.data, x.data)
    assert np.array_equal(t.data, s_hat.data)


def test_nytt1_algebra_with_identity_permutation():
    # noise estimate = x - s, so input = x + (x - s) = 2x - s
    rng = np.random.default_rng(2)
    x = SignalBatch(rng.normal(size=(3, 32)), RATE)
    s_hat = SignalBatch(rng.normal(size=(3, 32)), RATE)
    n_hat = SignalBatch(x.data - s_hat.data, RATE)
    y, t = build_student_batch(
        MixStrategy.NYTT1, x, s_hat, n_hat, Permutation(np.arange(3)), None, np.random.default_rng(0)
    )
    assert np.allclose(y.data, 2.0 * x.data - s_hat.data, atol=1e-15)
    assert np.array_equal(t.data, x.data)


def test_nytt2_coin_is_fair():
    # binomial check at 4 sigma over 10^4 rows
    b, m = 10_000, 4
    rng = np.random.default_rng(5)
    x = SignalBatch(rng.normal(size=(b, m)), RATE)
    s_hat = SignalBatch(rng.normal(size=(b, m)) * 0.5, RATE)
    n_hat = SignalBatch(x.data - s_hat.data, RATE)
    n_ext = SignalBatch(rng.normal(size=(b, m)), RATE)
    p = Permutation(np.arange(b))
    y, _ = build_student_batch(
        MixStrategy.NYTT2, x, s_hat, n_hat, p, n_ext, np.random.default_rng(123)
    )
    used_indomain = np.isclose(y.data, x.data + n_hat.data, atol=1e-12).all(axis=1)
    fraction = used_indomain.mean()
    assert 0.47 <= fraction <= 0.53


@pytest.mark.parametrize("strategy", [MixStrategy.CTT3, MixStrategy.NYTT2, MixStrategy.NYTT3])
def test_ext_noise_required(strategy):
    x, s_hat, n_hat, p, _ = _inputs()
    with pytest.raises(MissingExtNoise):
        build_student_batch(strategy, x, s_hat, n_hat, p, None, np.random.default_rng(0))


@pytest.mark.parametrize("strategy", [MixStrategy.CTT1, MixStrategy.CTT2, MixStrategy.NYTT1])
def test_ext_noise_forbidden(strategy):
    x, s_hat, n_hat, p, n_ext = _inputs()
    with pytest.raises(UnexpectedExtNoise):
        build_student_batch(strategy, x, s_hat, n_hat, p, n_ext, np.random.default_rng(0))


def test_shape_mismatch_rejected():
    x, s_hat, n_hat, p, _ = _inputs()
    bad = SignalBatch(np.zeros((4, 32)), RATE)
    with pytest.raises(ShapeMismatch):
        build_student_batch(MixStrategy.CTT2, x, bad, n_hat, p, None, np.random.default_rng(0))


def test_targets_are_bit_exact_copies():
    x, s_hat, n_hat, p, n_ext = _inputs(seed=8)
    for strategy in MixStrategy:
        ext = n_ext if strategy.needs_ext_noise else None
        y, t = build_student_batch(strategy, x, s_hat, n_hat, p, ext, np.random.default_rng(1))
        expected = s_hat.data if strategy.value.startswith("ctt") else x.data
        assert np.array_equal(t.data, expected)
        assert y.data.shape == (4, 64)


# ---------------------------------------------------------------------------
# teacher update protocols
# ---------------------------------------------------------------------------

def test_update_teacher_static_returns_same_object():
    teacher = init_model(TINY_CONFIG, seed=0)
    student = init_model(TINY_CONFIG, seed=1)
    out = update_teacher(TeacherUpdateProtocol.static(), teacher, student)
    assert out is teacher


def test_update_teacher_ema_gamma_one_copies_student():
    teacher = init_model(TINY_CONFIG, seed=0)
    student = init_model(TINY_CONFIG, seed=1)
    out = update_teacher(TeacherUpdateProtocol.ema(1.0), teacher, student)
    for name, p in out.params.items():
        assert np.array_equal(p.data, student.params[name].data)


def test_update_teacher_ema_default_arithmetic():
    teacher = init_model(TINY_CONFIG, seed=0)
    student = init_model(TINY_CONFIG, seed=0)
    for p in teacher.parameters():
        p.data[...] = 1.0
    for p in student.parameters():
        p.data[...] = 0.0
    out = update_teacher(TeacherUpdateProtocol.ema(), teacher, student)
    for p in out.parameters():
        assert np.allclose(p.data, 0.995, atol=1e-15)


def test_tup_validation():
    with pytest.raises(ValueError):
        TeacherUpdateProtocol("momentum")
    with pytest.raises(ValueError):
        TeacherUpdateProtocol.ema(0.0)


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

def _quick_config(**overrides):
    base = dict(
        epochs=1,
        batch_size=4,
        segment_samples=2500,
        shift_max_samples=400,
        seed=5,
    )
    base.update(overrides)
    return TrainConfig(**base)


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


def record_teacher_updates(monkeypatch) -> list[dict[str, np.ndarray]]:
    """Snapshot the teacher that each epoch-boundary update returns."""
    snapshots = []

    def recording(protocol, teacher, student):
        updated = update_teacher(protocol, teacher, student)
        snapshots.append({name: p.data.copy() for name, p in updated.params.items()})
        return updated

    monkeypatch.setattr(remixse.distill, "update_teacher", recording)
    return snapshots


def test_distill_static_teacher_frozen(corpora, monkeypatch):
    noisy, _ = corpora
    teacher = init_model(TINY_CONFIG, seed=3)
    initial = {n: p.data.copy() for n, p in teacher.params.items()}
    snapshots = record_teacher_updates(monkeypatch)
    result = distill(teacher, noisy, None, _quick_config(epochs=3, strategy=MixStrategy.NYTT1))
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
        _quick_config(epochs=1, strategy=MixStrategy.NYTT1, tup=TeacherUpdateProtocol.ema(gamma)),
    )
    for name, p in result.teacher.params.items():
        expected = gamma * result.student.params[name].data + (1 - gamma) * initial[name]
        assert np.allclose(p.data, expected, atol=1e-12)


def test_distill_student_learns(corpora):
    noisy, _ = corpora
    teacher = init_model(TINY_CONFIG, seed=6)
    initial = {n: p.data.copy() for n, p in teacher.params.items()}
    result = distill(teacher, noisy, None, _quick_config(epochs=1, strategy=MixStrategy.CTT2))
    assert any(
        not np.array_equal(result.student.params[n].data, initial[n]) for n in initial
    )


def test_distill_ctt1_with_copied_student_is_a_fixed_point(corpora):
    # Student starts as a bit-exact teacher copy, so on CTT1 its prediction
    # equals the target everywhere: zero loss, zero (sub)gradient, no motion.
    noisy, _ = corpora
    teacher = init_model(TINY_CONFIG, seed=6)
    initial = {n: p.data.copy() for n, p in teacher.params.items()}
    result = distill(teacher, noisy, None, _quick_config(epochs=1, strategy=MixStrategy.CTT1))
    assert result.stats.step_losses == [0.0, 0.0]
    for name, p in result.student.params.items():
        assert np.array_equal(p.data, initial[name])


def test_distill_replay_is_bit_identical(corpora):
    noisy, ext = corpora
    teacher = init_model(TINY_CONFIG, seed=7)
    losses = {}
    for augment in (False, True):
        config = _quick_config(
            epochs=2,
            strategy=MixStrategy.NYTT3,
            tup=TeacherUpdateProtocol.ema(),
            seed=11,
            augment_in_distill=augment,
        )
        r1 = distill(teacher.copy(), noisy, ext, config)
        r2 = distill(teacher.copy(), noisy, ext, config)
        assert r1.stats.step_losses == r2.stats.step_losses
        for a, b in zip(r1.student.parameters(), r2.student.parameters()):
            assert np.array_equal(a.data, b.data)
        losses[augment] = r1.stats.step_losses
    assert losses[False] != losses[True]  # the augmented run trains on other batches


def test_distill_ext_noise_consistency(corpora):
    noisy, ext = corpora
    teacher = init_model(TINY_CONFIG, seed=8)
    with pytest.raises(MissingExtNoise):
        distill(teacher, noisy, None, _quick_config(strategy=MixStrategy.CTT3))
    with pytest.raises(UnexpectedExtNoise):
        distill(teacher, noisy, ext, _quick_config(strategy=MixStrategy.NYTT1))


def test_distill_batch_size_guard(corpora):
    noisy, _ = corpora
    teacher = init_model(TINY_CONFIG, seed=9)
    with pytest.raises(ValueError):
        distill(teacher, noisy, None, _quick_config(batch_size=1, strategy=MixStrategy.NYTT1))


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
        remix=False,
        bandmask=False,
        seed=0,
    )
    model, stats = bootstrap_nytt(noisy, ext, init_model(TINY_CONFIG, seed=0), config)
    losses = np.array(stats.step_losses)
    assert len(losses) == 200
    ratio = losses[-10:].mean() / losses[:10].mean()
    assert ratio <= 0.9


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
