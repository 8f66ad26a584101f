"""Synthetic corpus determinism, manifest handling, and crop/pad."""
import json

import numpy as np
import pytest
from hypothesis import given, strategies as st

from remixse.audio import Waveform, read_wav
from remixse.corpus import (
    Manifest,
    ManifestEntry,
    SynthSpec,
    corpus_hash,
    crop_or_pad,
    load_corpus,
    load_manifest,
    synth_corpus,
    write_manifest,
)
from remixse.errors import MissingFile, ParseError, RemixSEError, RoleMismatch


def test_synth_same_seed_bit_identical(tmp_path):
    spec = SynthSpec(seed=5, num_utterances=3, duration_s=1.0)
    synth_corpus(spec, tmp_path / "a")
    synth_corpus(spec, tmp_path / "b")
    for sub in ("noisy", "clean", "noise"):
        for f in sorted((tmp_path / "a" / sub).iterdir()):
            assert f.read_bytes() == (tmp_path / "b" / sub / f.name).read_bytes()


def test_synth_corpus_hash_stable(tmp_path):
    spec = SynthSpec(seed=9, num_utterances=3)
    noisy_a, _, _, _ = synth_corpus(spec, tmp_path / "a")
    noisy_b, _, _, _ = synth_corpus(spec, tmp_path / "b")
    assert corpus_hash(load_manifest(noisy_a)) == corpus_hash(load_manifest(noisy_b))


def test_synth_logged_snr_matches_remeasure(tmp_path):
    spec = SynthSpec(seed=3, num_utterances=4, snr_low_db=0.0, snr_high_db=10.0)
    noisy_path, _, clean_path, log = synth_corpus(spec, tmp_path)
    noisy = load_manifest(noisy_path)
    clean = load_manifest(clean_path)
    clean_by_id = {e.id: e for e in clean}
    for entry in noisy:
        x = read_wav(noisy.resolve(entry)).samples
        s = read_wav(clean.resolve(clean_by_id[entry.id])).samples
        n = x - s
        measured = 10.0 * np.log10(np.mean(s**2) / np.mean(n**2))
        assert measured == pytest.approx(log[entry.id], abs=1e-6)
        assert spec.snr_low_db - 0.01 <= measured <= spec.snr_high_db + 0.01


def test_synth_rejects_zero_utterances():
    with pytest.raises(ValueError):
        SynthSpec(num_utterances=0)


def test_synth_rejects_short_duration():
    with pytest.raises(ValueError):
        SynthSpec(duration_s=0.5)


def test_clean_and_noisy_are_distinct_and_paired(tmp_path):
    spec = SynthSpec(seed=1, num_utterances=2)
    noisy_path, noise_path, clean_path, _ = synth_corpus(spec, tmp_path)
    noisy = load_manifest(noisy_path)
    clean = load_manifest(clean_path)
    assert [e.id for e in noisy] == [e.id for e in clean]
    assert all(e.role == "noisy" for e in noisy)
    assert all(e.role == "clean" for e in clean)
    assert all(e.role == "noise" for e in load_manifest(noise_path))


# ---------------------------------------------------------------------------
# manifests
# ---------------------------------------------------------------------------

def _touch_wav(path):
    from remixse.audio import write_wav

    write_wav(path, Waveform(np.zeros(16), 16000))


def test_manifest_round_trip(tmp_path):
    _touch_wav(tmp_path / "a.wav")
    entries = [ManifestEntry("a", "a.wav", "noisy", 0.001)]
    write_manifest(tmp_path / "m.jsonl", entries)
    m = load_manifest(tmp_path / "m.jsonl")
    assert len(m) == 1
    assert m.entries[0] == entries[0]
    assert m.resolve(m.entries[0]) == tmp_path / "a.wav"


def test_manifest_duplicate_id_reports_line(tmp_path):
    _touch_wav(tmp_path / "a.wav")
    lines = [
        json.dumps({"id": "a", "path": "a.wav", "role": "noisy", "duration_s": 0.001}),
        json.dumps({"id": "a", "path": "a.wav", "role": "noisy", "duration_s": 0.001}),
    ]
    (tmp_path / "m.jsonl").write_text("\n".join(lines) + "\n")
    with pytest.raises(ParseError) as err:
        load_manifest(tmp_path / "m.jsonl")
    assert err.value.line == 2


def test_manifest_unknown_field_rejected(tmp_path):
    _touch_wav(tmp_path / "a.wav")
    record = {"id": "a", "path": "a.wav", "role": "noisy", "duration_s": 0.1, "extra": 1}
    (tmp_path / "m.jsonl").write_text(json.dumps(record) + "\n")
    with pytest.raises(ParseError):
        load_manifest(tmp_path / "m.jsonl")


def test_manifest_missing_file(tmp_path):
    record = {"id": "a", "path": "ghost.wav", "role": "noisy", "duration_s": 0.1}
    (tmp_path / "m.jsonl").write_text(json.dumps(record) + "\n")
    with pytest.raises(MissingFile):
        load_manifest(tmp_path / "m.jsonl")


def test_manifest_bad_json_reports_line(tmp_path):
    (tmp_path / "m.jsonl").write_text('{"id": "a"\n')
    with pytest.raises(ParseError) as err:
        load_manifest(tmp_path / "m.jsonl")
    assert err.value.line == 1


def test_empty_manifest_loads(tmp_path):
    (tmp_path / "m.jsonl").write_text("")
    assert len(load_manifest(tmp_path / "m.jsonl")) == 0


def test_load_corpus_enforces_role(tmp_path):
    spec = SynthSpec(seed=1, num_utterances=2)
    noisy_path, _, clean_path, _ = synth_corpus(spec, tmp_path)
    with pytest.raises(RoleMismatch):
        load_corpus(load_manifest(clean_path), expect_role="noisy")
    waves = load_corpus(load_manifest(noisy_path), expect_role="noisy")
    assert len(waves) == 2


# ---------------------------------------------------------------------------
# crop_or_pad
# ---------------------------------------------------------------------------

def test_crop_or_pad_exact_length_unchanged():
    w = Waveform(np.arange(10, dtype=float), 16000)
    out = crop_or_pad(w, 10, np.random.default_rng(0))
    assert np.array_equal(out.samples, w.samples)


def test_crop_is_contiguous_slice():
    w = Waveform(np.arange(11, dtype=float), 16000)
    out = crop_or_pad(w, 10, np.random.default_rng(0))
    assert len(out) == 10
    start = int(out.samples[0])
    assert np.array_equal(out.samples, np.arange(start, start + 10, dtype=float))


def test_pad_appends_zeros():
    w = Waveform(np.ones(6), 16000)
    out = crop_or_pad(w, 10, np.random.default_rng(0))
    assert np.array_equal(out.samples, np.concatenate([np.ones(6), np.zeros(4)]))


def test_crop_deterministic_per_rng():
    w = Waveform(np.arange(100, dtype=float), 16000)
    a = crop_or_pad(w, 10, np.random.default_rng(7))
    b = crop_or_pad(w, 10, np.random.default_rng(7))
    assert np.array_equal(a.samples, b.samples)


def test_manifest_not_utf8_is_a_parse_error(tmp_path):
    (tmp_path / "m.jsonl").write_bytes(b'{"id": "\xff"}\n')
    with pytest.raises(ParseError):
        load_manifest(tmp_path / "m.jsonl")


@pytest.mark.parametrize("line", ["5", "[1, 2]", '"a"', "null"])
def test_manifest_record_that_is_not_an_object_reports_line(tmp_path, line):
    (tmp_path / "m.jsonl").write_text("\n" + line + "\n")
    with pytest.raises(ParseError) as err:
        load_manifest(tmp_path / "m.jsonl")
    assert err.value.line == 2


class _Literal(str):
    """A JSON value written into the record as it is (json.dumps refuses ints
    over Python's 4300-digit limit)."""


@pytest.mark.parametrize("field, value", [
    ("duration_s", "x"), ("duration_s", [1]), ("duration_s", None), ("duration_s", True),
    ("id", ["a"]), ("id", 3), ("path", {"p": 1}), ("role", ["noisy"]),
    pytest.param("path", "x" * 5000, id="path-too-long"),
    pytest.param("duration_s", 10 ** 400, id="int-401-digits"),
    pytest.param("duration_s", _Literal("1" * 5000), id="int-5000-digits"),
])
def test_manifest_field_of_the_wrong_type_is_a_parse_error(tmp_path, field, value):
    _touch_wav(tmp_path / "a.wav")
    record = {"id": "a", "path": "a.wav", "role": "noisy", "duration_s": 0.1, field: "@"}
    text = json.dumps(record).replace('"@"', value if isinstance(value, _Literal) else json.dumps(value))
    (tmp_path / "m.jsonl").write_text(text + "\n")
    with pytest.raises(ParseError) as err:
        load_manifest(tmp_path / "m.jsonl")
    assert err.value.line == 1


def _fuzz_manifest(tmp_path_factory, blob: bytes):
    root = tmp_path_factory.mktemp("manifest")
    _touch_wav(root / "a.wav")
    (root / "m.jsonl").write_bytes(blob)
    try:
        load_manifest(root / "m.jsonl")
    except RemixSEError:
        pass


_VALID_MANIFEST = (
    json.dumps({"duration_s": 0.001, "id": "a", "path": "a.wav", "role": "noisy"}) + "\n"
    + json.dumps({"duration_s": 0.5, "id": "b", "path": "a.wav", "role": "noisy"}) + "\n"
).encode()


@given(blob=st.binary(max_size=200))
def test_manifest_fuzz_arbitrary_bytes_raise_only_package_errors(tmp_path_factory, blob):
    _fuzz_manifest(tmp_path_factory, blob)


@given(data=st.data())
def test_manifest_fuzz_mutated_valid_bytes_raise_only_package_errors(tmp_path_factory, data):
    blob = bytearray(_VALID_MANIFEST)
    if data.draw(st.booleans(), label="truncate"):
        blob = blob[: data.draw(st.integers(0, len(blob) - 1), label="length")]
    else:
        for _ in range(data.draw(st.integers(1, 4), label="flips")):
            pos = data.draw(st.integers(0, len(blob) - 1), label="pos")
            blob[pos] = data.draw(st.integers(0, 255), label="byte")
    _fuzz_manifest(tmp_path_factory, bytes(blob))


@given(record=st.dictionaries(
    st.sampled_from(["id", "path", "role", "duration_s"]),
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8)
    | st.lists(st.integers(), max_size=2),
))
def test_manifest_fuzz_field_values_raise_only_package_errors(tmp_path_factory, record):
    _fuzz_manifest(tmp_path_factory, (json.dumps(record) + "\n").encode())


@pytest.mark.parametrize("read", [load_manifest, read_wav], ids=["manifest", "wav"])
def test_a_directory_or_missing_path_is_a_missing_file(tmp_path, read):
    for path in (tmp_path, tmp_path / "ghost", tmp_path / "ghost" / "deeper"):
        with pytest.raises(MissingFile):
            read(path)
