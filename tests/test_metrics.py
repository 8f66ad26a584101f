"""STOI, SI-SDR, and report assembly."""
import errno

import numpy as np
import pytest
from hypothesis import given, strategies as st

from remixse.audio import Waveform, mix_batch_at_snr, write_wav
from remixse.corpus import ManifestEntry, load_manifest, write_manifest
from remixse.errors import (
    MissingFile,
    ParseError,
    SampleRateMismatch,
    ShapeMismatch,
    TooShort,
    UnreadableFile,
    ZeroReference,
)
from remixse.metrics import (
    MetricReport,
    UtteranceScore,
    evaluate_manifest,
    read_pesq_csv,
    si_sdr,
    stoi,
)
from conftest import fail_reading

RATE = 16000


def _speechlike(seed, seconds=1.0):
    """Harmonic stack with a syllabic envelope, like the corpus generator."""
    rng = np.random.default_rng(seed)
    n = int(seconds * RATE)
    t = np.arange(n) / RATE
    f0 = rng.uniform(120, 250)
    x = sum((1.0 / k) * np.sin(2 * np.pi * k * f0 * t + rng.uniform(0, 6.28)) for k in range(1, 6))
    envelope = 0.5 * (1 + np.sin(2 * np.pi * 4.0 * t + rng.uniform(0, 6.28)))
    return Waveform(0.1 * x * envelope**2 / np.sqrt(np.mean((x * envelope**2) ** 2)), RATE)


# ---------------------------------------------------------------------------
# STOI
# ---------------------------------------------------------------------------

def test_stoi_identity_is_one():
    x = _speechlike(0)
    assert stoi(x, x) == pytest.approx(1.0, abs=1e-6)


def test_stoi_monotonic_in_snr():
    for seed in range(10):
        x = _speechlike(seed)
        noise = np.random.default_rng(1000 + seed).normal(size=len(x))
        (noisy_bad, noisy_good), _ = mix_batch_at_snr(
            np.stack([x.samples] * 2), np.stack([noise] * 2), np.array([-10.0, 10.0])
        )
        low = stoi(x, Waveform(noisy_bad, RATE))
        high = stoi(x, Waveform(noisy_good, RATE))
        assert low < high


def test_stoi_too_short():
    x = _speechlike(0)
    short = Waveform(x.samples[: int(0.3 * RATE)], RATE)
    with pytest.raises(TooShort):
        stoi(short, short)


def test_stoi_length_mismatch():
    x = _speechlike(0)
    with pytest.raises(ShapeMismatch):
        stoi(x, Waveform(x.samples[:-1], RATE))


@given(st.floats(1e-3, 1e3))
def test_stoi_scale_invariant_in_degraded(c):
    x = _speechlike(3)
    rng = np.random.default_rng(4)
    degraded = x.samples + 0.05 * rng.normal(size=len(x))
    a = stoi(x, Waveform(degraded, RATE))
    b = stoi(x, Waveform(c * degraded, RATE))
    assert a == pytest.approx(b, abs=1e-9)


def test_stoi_in_range():
    x = _speechlike(5)
    rng = np.random.default_rng(6)
    noisy = Waveform(x.samples + 0.2 * rng.normal(size=len(x)), RATE)
    value = stoi(x, noisy)
    assert -1.0 <= value <= 1.0


# ---------------------------------------------------------------------------
# SI-SDR
# ---------------------------------------------------------------------------

def test_si_sdr_identity_clamps_high():
    x = _speechlike(0)
    assert si_sdr(x, x) == 100.0


def test_si_sdr_scale_invariant():
    x = _speechlike(1)
    assert si_sdr(x, Waveform(2.0 * x.samples, RATE)) == 100.0


def test_si_sdr_reference_case():
    ref = Waveform(np.array([1.0, 0.0]), RATE)
    est = Waveform(np.array([1.0, 1.0]), RATE)
    assert si_sdr(ref, est) == 0.0


def test_si_sdr_zero_reference():
    with pytest.raises(ZeroReference):
        si_sdr(Waveform(np.zeros(16), RATE), Waveform(np.ones(16), RATE))


def test_si_sdr_length_mismatch():
    with pytest.raises(ShapeMismatch):
        si_sdr(Waveform(np.ones(16), RATE), Waveform(np.ones(8), RATE))


@pytest.mark.parametrize("metric", [stoi, si_sdr])
def test_metrics_reject_differing_sample_rates(metric):
    x = _speechlike(0)
    with pytest.raises(SampleRateMismatch, match="16000 vs 8000 Hz"):
        metric(x, Waveform(x.samples, 8000))


@given(st.floats(0.1, 10.0))
def test_si_sdr_positive_scaling_invariance(c):
    rng = np.random.default_rng(9)
    ref = Waveform(rng.normal(size=128), RATE)
    est = Waveform(ref.samples + 0.3 * rng.normal(size=128), RATE)
    a = si_sdr(ref, est)
    b = si_sdr(ref, Waveform(c * est.samples, RATE))
    assert a == pytest.approx(b, abs=1e-9)


# ---------------------------------------------------------------------------
# manifest evaluation
# ---------------------------------------------------------------------------

def _write_pair_corpus(tmp_path, n=3):
    refs, degs = [], []
    for i in range(n):
        x = _speechlike(i)
        noisy = Waveform(
            x.samples + 0.05 * np.random.default_rng(100 + i).normal(size=len(x)), RATE
        )
        write_wav(tmp_path / f"ref{i}.wav", x)
        write_wav(tmp_path / f"deg{i}.wav", noisy)
        refs.append(ManifestEntry(f"utt{i}", f"ref{i}.wav", "clean", 1.0))
        degs.append(ManifestEntry(f"utt{i}", f"deg{i}.wav", "enhanced", 1.0))
    write_manifest(tmp_path / "ref.jsonl", refs)
    write_manifest(tmp_path / "deg.jsonl", degs)
    return load_manifest(tmp_path / "ref.jsonl"), load_manifest(tmp_path / "deg.jsonl")


def test_evaluate_identical_manifests_scores_one(tmp_path):
    ref, _ = _write_pair_corpus(tmp_path)
    report = evaluate_manifest(ref, ref)
    assert len(report.utterances) == 3
    for u in report.utterances:
        assert u.stoi == pytest.approx(1.0, abs=1e-6)
        assert u.si_sdr_db == 100.0


def test_evaluate_pairs_by_id_and_lists_unpaired(tmp_path):
    ref, deg = _write_pair_corpus(tmp_path)
    deg_subset = type(deg)(deg.entries[:2], deg.root)
    report = evaluate_manifest(ref, deg_subset)
    assert len(report.utterances) == 2
    assert report.unpaired_ref == ["utt2"]
    assert report.unpaired_deg == []


def test_evaluate_mean_equals_mean_of_rows(tmp_path):
    ref, deg = _write_pair_corpus(tmp_path)
    report = evaluate_manifest(ref, deg)
    values = [u.stoi for u in report.utterances]
    assert report.mean("stoi") == pytest.approx(float(np.mean(values)), abs=1e-9)


def test_evaluate_merges_external_pesq(tmp_path):
    ref, deg = _write_pair_corpus(tmp_path)
    (tmp_path / "pesq.csv").write_text("id,pesq\nutt0,2.1\nutt2,3.3\n")
    pesq = read_pesq_csv(tmp_path / "pesq.csv")
    report = evaluate_manifest(ref, deg, pesq_values=pesq)
    by_id = {u.id: u for u in report.utterances}
    assert by_id["utt0"].pesq == 2.1
    assert by_id["utt1"].pesq is None
    assert by_id["utt2"].pesq == 3.3


@pytest.mark.parametrize(
    "case, body, error, match",
    [
        ("missing", None, MissingFile, "not found"),
        ("directory", None, MissingFile, "not found"),
        ("open-eacces", b"id,pesq\n", UnreadableFile, "cannot read"),
        ("read-eio", b"id,pesq\n", UnreadableFile, "cannot read"),
        ("not-utf8", b"id,pesq\nutt0,2.1\n\xffutt1,3.0\n", ParseError, "line 3: not UTF-8"),
        ("bom-not-utf8", b"\xef\xbb\xbfid,pesq\n\n\xff\n", ParseError, "line 3: not UTF-8"),
        ("one-column", b"id,pesq\nutt0\n", ParseError, "line 2: expected two columns"),
        ("non-numeric", b"utt0,2.1\nutt1,good\n", ParseError, "line 2: score 'good'"),
        ("nan", b"id,pesq\nutt0,nan\n", ParseError, "line 2: score 'nan'"),
        ("infinite", b"utt0,-inf\n", ParseError, "line 1: score '-inf'"),
        ("huge-field", b"utt0," + b"9" * 200_000 + b"\n", ParseError, "line 1: malformed CSV"),
    ],
)
def test_read_pesq_csv_raises_package_errors(tmp_path, monkeypatch, case, body, error, match):
    path = tmp_path / "pesq.csv"
    if case == "directory":
        path.mkdir()
    elif body is not None:
        path.write_bytes(body)
    if case == "open-eacces":
        fail_reading(monkeypatch, path, PermissionError(errno.EACCES, "denied"))
    elif case == "read-eio":
        fail_reading(monkeypatch, path, OSError(errno.EIO, "I/O error"), "read")
    with pytest.raises(error, match=match):
        read_pesq_csv(path)


def test_read_pesq_csv_skips_byte_order_mark(tmp_path):
    path = tmp_path / "pesq.csv"
    path.write_bytes(b"\xef\xbb\xbfid,pesq\r\nutt0,2.1\r\n")
    assert read_pesq_csv(path) == {"utt0": 2.1}


def test_report_json_and_csv_round_trip(tmp_path):
    report = MetricReport(
        utterances=[UtteranceScore("a", stoi=0.9, si_sdr_db=5.0)],
        metadata={"corpus_hash": "x"},
    )
    report.write_json(tmp_path / "r.json")
    report.write_csv(tmp_path / "r.csv")
    import json

    data = json.loads((tmp_path / "r.json").read_text())
    assert data["mean"]["stoi"] == 0.9
    assert data["utterances"][0]["id"] == "a"
    assert data["metadata"]["corpus_hash"] == "x"
    lines = (tmp_path / "r.csv").read_text().strip().splitlines()
    assert lines[0] == "id,stoi,si_sdr_db,pesq"
    assert lines[1].startswith("a,0.9,5.0")


def test_evaluate_rejects_unknown_metric(tmp_path):
    ref, deg = _write_pair_corpus(tmp_path, n=1)
    with pytest.raises(ValueError):
        evaluate_manifest(ref, deg, metrics=("pesq",))


def test_evaluate_threaded_matches_serial(tmp_path):
    ref, deg = _write_pair_corpus(tmp_path)
    serial = evaluate_manifest(ref, deg, threads=1)
    threaded = evaluate_manifest(ref, deg, threads=4)
    for a, b in zip(serial.utterances, threaded.utterances):
        assert a == b
