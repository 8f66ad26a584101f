"""Mixing, augmentations, resampling, and WAV round trips."""
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from remixse.audio import (
    Waveform,
    augment_bandmask,
    augment_shift,
    hz_to_mel,
    mel_to_hz,
    mix_batch_at_snr,
    read_wav,
    resample,
    write_wav,
)
from remixse.autodiff import resample_array
from remixse.errors import (
    RemixSEError,
    ShapeMismatch,
    UnsupportedFormat,
    ZeroPowerNoise,
    ZeroPowerSignal,
)


def _rms(x):
    return float(np.sqrt(np.mean(np.square(x))))


def _mix_row(signal, noise, snr_db):
    """(mixture, scaled noise) of one row, mixed as a one-row batch."""
    mixture, scaled = mix_batch_at_snr(signal[None, :], noise[None, :], np.array([snr_db]))
    return mixture[0], scaled[0]


# ---------------------------------------------------------------------------
# mixing
# ---------------------------------------------------------------------------

def test_mix_equal_power_at_zero_db_is_plain_sum():
    rng = np.random.default_rng(0)
    signal = rng.normal(size=512)
    noise = rng.permutation(signal)  # identical power
    mixture, scaled = _mix_row(signal, noise, 0.0)
    assert np.allclose(scaled, noise, atol=1e-12)
    assert np.allclose(mixture, signal + noise, atol=1e-12)


def test_mix_zero_noise_rejected():
    with pytest.raises(ZeroPowerNoise):
        _mix_row(np.ones(16), np.zeros(16), 0.0)


def test_mix_zero_signal_rejected():
    with pytest.raises(ZeroPowerSignal):
        _mix_row(np.zeros(16), np.ones(16), 0.0)


def test_mix_length_mismatch():
    with pytest.raises(ShapeMismatch):
        _mix_row(np.ones(16), np.ones(8), 0.0)


def test_mix_achieves_requested_snr():
    rng = np.random.default_rng(42)
    signal = rng.normal(size=1000)
    noise = rng.normal(size=1000) * 0.3
    _, scaled = _mix_row(signal, noise, 3.7)
    assert 20.0 * math.log10(_rms(signal) / _rms(scaled)) == pytest.approx(3.7, abs=1e-6)


@given(st.integers(0, 2**32 - 1), st.floats(-40.0, 40.0))
def test_mix_snr_exact_over_range(seed, target):
    rng = np.random.default_rng(seed)
    signal = rng.normal(size=256) + 0.01
    noise = rng.normal(size=256) + 0.01
    _, scaled = _mix_row(signal, noise, target)
    assert 20.0 * math.log10(_rms(signal) / _rms(scaled)) == pytest.approx(target, abs=1e-6)


def test_batch_mix_matches_row_mix_bit_exactly():
    rng = np.random.default_rng(3)
    x = rng.normal(size=(4, 200))
    n = rng.normal(size=(4, 200))
    snrs = rng.uniform(-10, 10, size=4)
    mix_b, scaled_b = mix_batch_at_snr(x, n, snrs)
    for i in range(4):
        mix_r, scaled_r = _mix_row(x[i], n[i], float(snrs[i]))
        assert np.array_equal(mix_b[i], mix_r)
        assert np.array_equal(scaled_b[i], scaled_r)


# ---------------------------------------------------------------------------
# shift
# ---------------------------------------------------------------------------

def test_shift_zero_max_is_identity():
    rng = np.random.default_rng(1)
    a = rng.normal(size=(2, 32))
    b = rng.normal(size=(2, 32))
    out_a, out_b = augment_shift(a, b, 0, rng)
    assert np.array_equal(out_a, a)
    assert np.array_equal(out_b, b)


def test_shift_row_semantics():
    # each row moves right by its drawn offset, zero-filled on the left
    row = np.array([[1.0, 2, 3, 4]])
    offsets = set()
    for seed in range(8):
        offset = int(np.random.default_rng(seed).integers(0, 4, size=1)[0])
        out, _ = augment_shift(row, row, 3, np.random.default_rng(seed))
        assert np.array_equal(out[0], [0.0] * offset + [1.0, 2, 3, 4][: 4 - offset])
        offsets.add(offset)
    assert len(offsets) > 1


def test_shift_applies_same_offset_to_both():
    # cross-correlate input/target pairs: lags must match per row
    rng = np.random.default_rng(5)
    a = rng.normal(size=(4, 256))
    b = rng.normal(size=(4, 256))
    out_a, out_b = augment_shift(a, b, 64, np.random.default_rng(9))

    def lag(orig, shifted):
        corr = np.correlate(shifted, orig, mode="full")
        return int(np.argmax(corr)) - (len(orig) - 1)

    for i in range(4):
        la = lag(a[i], out_a[i])
        lb = lag(b[i], out_b[i])
        assert la == lb
        assert 0 <= la <= 64


def test_shift_rejects_excessive_max():
    batch = np.zeros((1, 8))
    with pytest.raises(ValueError):
        augment_shift(batch, batch, 8, np.random.default_rng(0))


def test_shift_rejects_batches_of_different_shapes():
    with pytest.raises(ShapeMismatch, match="share"):
        augment_shift(np.zeros((2, 8)), np.zeros((1, 8)), 2, np.random.default_rng(0))


# ---------------------------------------------------------------------------
# bandmask
# ---------------------------------------------------------------------------

def test_bandmask_tiny_fraction_preserves_energy():
    rng = np.random.default_rng(1)
    batch = rng.normal(size=(2, 8000))
    out = augment_bandmask(batch, 16000, 1e-4, np.random.default_rng(5))
    ratio = np.sum(out**2) / np.sum(batch**2)
    assert ratio == pytest.approx(1.0, abs=1e-9)


def _band_edges(seed, rows, mask_fraction, rate=16000):
    # replay the generator: one uniform draw per row, in row order
    mel_max = hz_to_mel(rate / 2.0)
    width = mask_fraction * mel_max
    starts = np.random.default_rng(seed).uniform(0.0, mel_max - width, size=rows)
    return mel_to_hz(starts), mel_to_hz(starts + width)


def test_bandmask_removes_tone_inside_band():
    rate, n = 16000, 16000
    t = np.arange(n) / rate
    f_lo, f_hi = _band_edges(seed=7, rows=3, mask_fraction=0.2)
    centers = mel_to_hz((hz_to_mel(f_lo) + hz_to_mel(f_hi)) / 2.0)
    tones = np.stack([np.sin(2 * np.pi * f * t) for f in centers])
    out = augment_bandmask(tones, rate, 0.2, np.random.default_rng(7))
    for i in range(3):
        assert _rms(out[i]) < 0.05 * _rms(tones[i])


def test_bandmask_keeps_tone_outside_band():
    rate, n = 16000, 16000
    t = np.arange(n) / rate
    f_lo, f_hi = _band_edges(seed=21, rows=3, mask_fraction=0.2)
    outside = np.where(f_lo > 500.0, f_lo / 2.0, np.minimum(f_hi * 2.0, 7000.0))
    tones = np.stack([np.sin(2 * np.pi * f * t) for f in outside])
    out = augment_bandmask(tones, rate, 0.2, np.random.default_rng(21))
    for i in range(3):
        assert _rms(out[i]) >= 0.90 * _rms(tones[i])


def test_bandmask_preserves_shape_and_rate():
    batch = np.random.default_rng(0).normal(size=(3, 5000))
    out = augment_bandmask(batch, 16000, 0.2, np.random.default_rng(1))
    assert out.shape == batch.shape
    assert out.dtype == batch.dtype


def test_bandmask_rejects_bad_fraction():
    batch = np.ones((1, 2048))
    for bad in (0.0, 1.0, -0.1):
        with pytest.raises(ValueError):
            augment_bandmask(batch, 16000, bad, np.random.default_rng(0))


# ---------------------------------------------------------------------------
# resample
# ---------------------------------------------------------------------------

def test_resample_identity_is_bit_exact():
    w = Waveform(np.random.default_rng(0).normal(size=500), 16000)
    out = resample(w, 1, 1)
    assert np.array_equal(out.samples, w.samples)
    assert out.sample_rate_hz == 16000


def test_resample_dc_preserved_in_interior():
    out = resample(Waveform(np.ones(1000), 16000), 4, 1)
    margin = 64 * 4  # kernel half-width at the output rate
    assert np.abs(out.samples[margin:-margin] - 1.0).max() <= 1e-3


def test_resample_output_length_formula():
    for n, up, down in [(100, 3, 7), (101, 7, 3), (16000, 5, 8), (77, 2, 1)]:
        out = resample(Waveform(np.zeros(n), 16000 * down), up, down)
        assert len(out) == math.ceil(n * up / down)


def _band_limited(n, cutoff_fraction, seed):
    rng = np.random.default_rng(seed)
    spectrum = np.fft.rfft(rng.normal(size=n))
    spectrum[np.fft.rfftfreq(n) > cutoff_fraction / 2.0] = 0.0
    x = np.fft.irfft(spectrum, n)
    ramp = 0.5 * (1.0 - np.cos(np.pi * np.arange(n // 10) / (n // 10)))
    x[: n // 10] *= ramp
    x[-(n // 10) :] *= ramp[::-1]
    return x


def test_resample_round_trip_band_limited():
    x = _band_limited(4000, cutoff_fraction=0.4, seed=3)
    y = resample_array(resample_array(x, 4, 1), 1, 4)
    assert _rms(y - x) / _rms(x) <= 1e-3


@given(st.integers(0, 2**32 - 1), st.floats(-3, 3), st.floats(-3, 3))
def test_resample_is_linear(seed, a, b):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=64)
    y = rng.normal(size=64)
    combined = resample_array(a * x + b * y, 3, 2)
    separate = a * resample_array(x, 3, 2) + b * resample_array(y, 3, 2)
    assert np.allclose(combined, separate, atol=1e-9)


# ---------------------------------------------------------------------------
# WAV I/O
# ---------------------------------------------------------------------------

def test_wav_float32_round_trip_exact(tmp_path):
    samples = np.random.default_rng(0).normal(size=777).astype(np.float32).astype(np.float64)
    w = Waveform(samples, 16000)
    write_wav(tmp_path / "x.wav", w)
    back = read_wav(tmp_path / "x.wav")
    assert back.sample_rate_hz == 16000
    assert np.array_equal(back.samples, samples)


def test_wav_pcm16_round_trip_quantization(tmp_path):
    samples = np.clip(np.random.default_rng(1).normal(scale=0.3, size=500), -1, 1)
    q = np.clip(np.round(samples * 32768.0), -32768, 32767).astype("<i2")
    (tmp_path / "x.wav").write_bytes(_wav_bytes(1, 16, q.tobytes()))
    back = read_wav(tmp_path / "x.wav")
    assert np.array_equal(back.samples, q / 32768.0)
    assert np.abs(back.samples - samples).max() <= 1.0 / 32768.0


def test_wav_malformed_header(tmp_path):
    (tmp_path / "bad.wav").write_bytes(b"RIFFxxxxNOPE")
    with pytest.raises(UnsupportedFormat):
        read_wav(tmp_path / "bad.wav")


def test_wav_stereo_rejected(tmp_path):
    import struct

    payload = np.zeros(64, dtype="<i2").tobytes()
    header = struct.pack(
        "<4sI4s4sIHHIIHH4sI", b"RIFF", 36 + len(payload), b"WAVE", b"fmt ", 16,
        1, 2, 16000, 16000 * 4, 4, 16, b"data", len(payload),
    )
    (tmp_path / "st.wav").write_bytes(header + payload)
    with pytest.raises(UnsupportedFormat):
        read_wav(tmp_path / "st.wav")


def test_wav_truncated_data(tmp_path):
    w = Waveform(np.zeros(100), 16000)
    write_wav(tmp_path / "x.wav", w)
    blob = (tmp_path / "x.wav").read_bytes()
    (tmp_path / "cut.wav").write_bytes(blob[: len(blob) // 2])
    with pytest.raises(UnsupportedFormat):
        read_wav(tmp_path / "cut.wav")


def test_waveform_rejects_nan():
    with pytest.raises(ValueError):
        Waveform(np.array([0.0, np.nan]), 16000)


def _wav_bytes(fmt: int, bits: int, payload: bytes, rate: int = 16000) -> bytes:
    import struct

    block = bits // 8
    return struct.pack(
        "<4sI4s4sIHHIIHH4sI", b"RIFF", 36 + len(payload), b"WAVE", b"fmt ", 16,
        fmt, 1, rate, rate * block, block, bits, b"data", len(payload),
    ) + payload + b"\x00" * (len(payload) & 1)


@pytest.mark.parametrize("fmt, bits, size", [(3, 32, 7), (3, 32, 5), (1, 16, 3)])
def test_wav_data_of_a_partial_sample_is_unsupported(tmp_path, fmt, bits, size):
    (tmp_path / "odd.wav").write_bytes(_wav_bytes(fmt, bits, b"\x01" * size))
    with pytest.raises(UnsupportedFormat, match="whole number"):
        read_wav(tmp_path / "odd.wav")


def test_wav_non_finite_float_samples_are_unsupported(tmp_path):
    payload = np.array([0.0, np.nan], dtype="<f4").tobytes()
    (tmp_path / "nan.wav").write_bytes(_wav_bytes(3, 32, payload))
    with pytest.raises(UnsupportedFormat):
        read_wav(tmp_path / "nan.wav")


def test_wav_zero_sample_rate_is_unsupported(tmp_path):
    (tmp_path / "r0.wav").write_bytes(_wav_bytes(1, 16, b"\x00\x00" * 4, rate=0))
    with pytest.raises(UnsupportedFormat):
        read_wav(tmp_path / "r0.wav")


_VALID_WAVS = (
    _wav_bytes(3, 32, np.linspace(-0.5, 0.5, 24, dtype="<f4").tobytes()),
    _wav_bytes(1, 16, np.arange(-12, 12, dtype="<i2").tobytes()),
)


@given(blob=st.binary(max_size=128))
def test_wav_fuzz_arbitrary_bytes_raise_only_package_errors(tmp_path_factory, blob):
    path = tmp_path_factory.mktemp("wav") / "x.wav"
    for data in (blob, b"RIFF" + blob[:4] + b"WAVE" + blob[4:]):
        path.write_bytes(data)
        try:
            read_wav(path)
        except RemixSEError:
            pass


@given(data=st.data())
def test_wav_fuzz_mutated_valid_bytes_raise_only_package_errors(tmp_path_factory, data):
    blob = bytearray(data.draw(st.sampled_from(_VALID_WAVS), label="valid"))
    if data.draw(st.booleans(), label="truncate"):
        blob = blob[: data.draw(st.integers(0, len(blob) - 1), label="length")]
    else:
        for _ in range(data.draw(st.integers(1, 4), label="flips")):
            pos = data.draw(st.integers(0, len(blob) - 1), label="pos")
            blob[pos] = data.draw(st.integers(0, 255), label="byte")
    path = tmp_path_factory.mktemp("wav") / "x.wav"
    path.write_bytes(bytes(blob))
    try:
        read_wav(path)
    except RemixSEError:
        pass
