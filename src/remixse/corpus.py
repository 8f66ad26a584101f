"""Deterministic synthetic corpora and newline-delimited JSON manifests.

The generator produces three families without any licensed data: a harmonic
speech proxy (for the clean/evaluation side), pink-noise-plus-tones
in-domain noise baked into the noisy files, and white-burst extraneous
noise for training. Everything derives per-utterance RNG streams from
(seed, index) so output bytes never depend on generation order.
"""
from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .audio import DEFAULT_SAMPLE_RATE, Waveform, mix_at_snr, write_wav
from .errors import EmptyCorpus, MissingFile, ParseError, RoleMismatch
from .fileio import atomic_open

ROLES = ("noisy", "noise", "clean", "enhanced")
MANIFEST_FIELDS = ("id", "path", "role", "duration_s")


@dataclass(frozen=True)
class ManifestEntry:
    id: str
    path: str  # relative to the manifest file
    role: str
    duration_s: float


@dataclass(frozen=True)
class Manifest:
    entries: tuple[ManifestEntry, ...]
    root: Path  # directory the relative paths resolve against

    def __len__(self):
        return len(self.entries)

    def __iter__(self):
        return iter(self.entries)

    def resolve(self, entry: ManifestEntry) -> Path:
        return self.root / entry.path


def write_manifest(path, entries) -> None:
    with atomic_open(path, "w", encoding="utf-8") as fh:
        for e in entries:
            record = {"id": e.id, "path": e.path, "role": e.role, "duration_s": e.duration_s}
            fh.write(json.dumps(record, sort_keys=True) + "\n")


def _manifest_entry(record, lineno: int) -> ManifestEntry:
    """One parsed manifest record, checked for its fields and their types."""
    if not isinstance(record, dict) or set(record) != set(MANIFEST_FIELDS):
        got = sorted(record) if isinstance(record, dict) else type(record).__name__
        raise ParseError(f"expected exactly fields {list(MANIFEST_FIELDS)}, got {got}",
                         line=lineno)
    for name in ("id", "path", "role"):
        if not isinstance(record[name], str):
            raise ParseError(f"{name} must be a string, got {record[name]!r}", line=lineno)
    duration = record["duration_s"]
    if type(duration) not in (int, float):  # JSON true/false parse to bool, a subclass of int
        raise ParseError(f"duration_s must be a number, got {duration!r}", line=lineno)
    try:
        duration = float(duration)
    except OverflowError as exc:  # an int beyond the float range
        raise ParseError("duration_s is out of range", line=lineno) from exc
    if record["role"] not in ROLES:
        raise ParseError(f"unknown role {record['role']!r}", line=lineno)
    return ManifestEntry(record["id"], record["path"], record["role"], duration)


def load_manifest(path) -> Manifest:
    """Parse an NDJSON manifest; each record has exactly id/path/role/duration_s,
    the first three strings and the last a number.

    Malformed input raises ParseError naming the line; a manifest that is
    not a file, or an entry whose file does not exist, raises MissingFile.
    """
    path = Path(path)
    try:
        with open(path, encoding="utf-8") as fh:
            lines = fh.readlines()
    except (FileNotFoundError, IsADirectoryError, NotADirectoryError) as exc:
        raise MissingFile(f"manifest not found: {path}") from exc
    except UnicodeDecodeError as exc:
        raise ParseError(f"manifest is not UTF-8: {exc}") from exc
    root = path.parent
    entries: list[ManifestEntry] = []
    seen: set[str] = set()
    for lineno, line in enumerate(lines, start=1):
        line = line.strip()
        if not line:
            continue
        try:
            record = json.loads(line)
        # ValueError covers JSONDecodeError and an int over Python's digit limit.
        except (ValueError, RecursionError) as exc:
            raise ParseError(f"invalid JSON: {exc}", line=lineno) from exc
        entry = _manifest_entry(record, lineno)
        if entry.id in seen:
            raise ParseError(f"duplicate id {entry.id!r}", line=lineno)
        seen.add(entry.id)
        try:
            exists = (root / entry.path).exists()
        except OSError as exc:  # e.g. a name too long for the file system
            raise ParseError(f"unusable path: {exc.strerror}", line=lineno) from exc
        if not exists:
            raise MissingFile(f"line {lineno}: missing file {root / entry.path}")
        entries.append(entry)
    return Manifest(tuple(entries), root)


def load_corpus(manifest: Manifest, expect_role: str) -> list[Waveform]:
    """Read every waveform, enforcing the role contract.

    Training code calls this with expect_role in {"noisy", "noise"}; a clean
    manifest is rejected so supervision can never leak in.
    """
    from .audio import read_wav

    roles = {e.role for e in manifest}
    if roles and roles != {expect_role}:
        raise RoleMismatch(f"manifest has roles {sorted(roles)}, expected only {expect_role!r}")
    waves = [read_wav(manifest.resolve(e)) for e in manifest]
    if not waves:
        raise EmptyCorpus("manifest has no entries")
    return waves


def corpus_hash(manifest: Manifest) -> str:
    """SHA-256 over all WAV bytes in manifest order."""
    digest = hashlib.sha256()
    for entry in manifest:
        digest.update(Path(manifest.resolve(entry)).read_bytes())
    return digest.hexdigest()


def crop_or_pad(w: Waveform, num_samples: int, rng: np.random.Generator) -> Waveform:
    """Random contiguous crop to num_samples, or right zero-pad if shorter."""
    n = len(w)
    if n == num_samples:
        return w
    if n > num_samples:
        start = int(rng.integers(0, n - num_samples + 1))
        return Waveform(w.samples[start : start + num_samples].copy(), w.sample_rate_hz)
    out = np.zeros(num_samples)
    out[:n] = w.samples
    return Waveform(out, w.sample_rate_hz)


# ---------------------------------------------------------------------------
# synthesis
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SynthSpec:
    """Parameters of the synthetic corpus generator."""

    seed: int = 0
    num_utterances: int = 16
    duration_s: float = 1.0
    sample_rate: int = DEFAULT_SAMPLE_RATE
    snr_low_db: float = 0.0
    snr_high_db: float = 10.0
    f0_low_hz: float = 100.0
    f0_high_hz: float = 300.0
    num_harmonics: int = 5
    syllable_rate_hz: float = 4.0

    def __post_init__(self):
        if self.duration_s < 1.0:
            raise ValueError("duration must be >= 1 s")
        if self.num_utterances < 1:
            raise ValueError("need at least one utterance")
        if self.snr_low_db > self.snr_high_db:
            raise ValueError("snr_low_db must be <= snr_high_db")


def _utt_rng(seed: int, index: int, stream: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(stream, index)))


def _normalize_rms(x: np.ndarray, rms: float = 0.1) -> np.ndarray:
    current = np.sqrt(np.mean(x * x))
    return x * (rms / current) if current > 0 else x


def _speech_proxy(spec: SynthSpec, rng: np.random.Generator) -> np.ndarray:
    """Harmonic stack with a syllabic amplitude envelope and quasi-silences."""
    n = int(round(spec.duration_s * spec.sample_rate))
    t = np.arange(n) / spec.sample_rate
    f0 = rng.uniform(spec.f0_low_hz, spec.f0_high_hz)
    x = np.zeros(n)
    for k in range(1, spec.num_harmonics + 1):
        amp = (1.0 / k) * rng.uniform(0.6, 1.0)
        x += amp * np.sin(2.0 * np.pi * k * f0 * t + rng.uniform(0, 2 * np.pi))
    phase = rng.uniform(0, 2 * np.pi)
    envelope = 0.5 * (1.0 + np.sin(2.0 * np.pi * spec.syllable_rate_hz * t + phase))
    x *= envelope**2  # squared raised sine carves syllable-like gaps
    return _normalize_rms(x)


def _pink_noise(n: int, rng: np.random.Generator) -> np.ndarray:
    white = rng.standard_normal(n)
    spectrum = np.fft.rfft(white)
    freqs = np.fft.rfftfreq(n)
    shaping = np.ones_like(freqs)
    shaping[1:] = 1.0 / np.sqrt(freqs[1:])
    shaping[0] = 0.0
    return np.fft.irfft(spectrum * shaping, n)


def _indomain_noise(spec: SynthSpec, rng: np.random.Generator) -> np.ndarray:
    """Pink noise plus amplitude-modulated tones."""
    n = int(round(spec.duration_s * spec.sample_rate))
    t = np.arange(n) / spec.sample_rate
    x = _pink_noise(n, rng)
    for _ in range(2):
        tone_hz = rng.uniform(500.0, 2000.0)
        am_hz = rng.uniform(1.0, 8.0)
        depth = rng.uniform(0.3, 1.0)
        x += 0.3 * depth * (0.5 + 0.5 * np.sin(2 * np.pi * am_hz * t)) * np.sin(
            2 * np.pi * tone_hz * t + rng.uniform(0, 2 * np.pi)
        )
    return _normalize_rms(x)


def _ext_noise(spec: SynthSpec, rng: np.random.Generator) -> np.ndarray:
    """White-noise bursts over a -30 dB floor, randomized duty cycle.

    The floor keeps every crop at nonzero power regardless of where the
    bursts land.
    """
    n = int(round(spec.duration_s * spec.sample_rate))
    x = rng.standard_normal(n)
    duty = rng.uniform(0.2, 0.8)
    seg = int(rng.uniform(0.05, 0.2) * spec.sample_rate)
    mask = np.full(n, 0.03)
    pos = 0
    while pos < n:
        if rng.random() < duty:
            mask[pos : pos + seg] = 1.0
        pos += seg
    return _normalize_rms(x * mask)


def synth_corpus(spec: SynthSpec, out_dir):
    """Generate the corpus and write WAVs plus three manifests.

    Returns (noisy_manifest_path, noise_manifest_path, clean_manifest_path,
    log) where log maps utterance id to its achieved mixing SNR (measured on
    the emitted float32 data, so a re-measure from the files reproduces it).
    """
    out_dir = Path(out_dir)
    for sub in ("noisy", "clean", "noise"):
        (out_dir / sub).mkdir(parents=True, exist_ok=True)

    rate = spec.sample_rate
    duration = spec.duration_s
    noisy_entries: list[ManifestEntry] = []
    clean_entries: list[ManifestEntry] = []
    noise_entries: list[ManifestEntry] = []
    log: dict[str, float] = {}

    for i in range(spec.num_utterances):
        uid = f"utt{i:04d}"
        clean = _speech_proxy(spec, _utt_rng(spec.seed, i, stream=0))
        indomain = _indomain_noise(spec, _utt_rng(spec.seed, i, stream=1))
        target_snr = float(_utt_rng(spec.seed, i, stream=2).uniform(spec.snr_low_db, spec.snr_high_db))
        noisy, _ = mix_at_snr(clean, indomain, target_snr)

        clean32 = clean.astype(np.float32).astype(np.float64)
        noisy32 = noisy.astype(np.float32).astype(np.float64)
        resid = noisy32 - clean32
        log[uid] = 10.0 * float(np.log10(np.mean(clean32**2) / np.mean(resid**2)))

        write_wav(out_dir / "clean" / f"{uid}.wav", Waveform(clean, rate))
        write_wav(out_dir / "noisy" / f"{uid}.wav", Waveform(noisy, rate))
        clean_entries.append(ManifestEntry(uid, f"clean/{uid}.wav", "clean", duration))
        noisy_entries.append(ManifestEntry(uid, f"noisy/{uid}.wav", "noisy", duration))

    for i in range(spec.num_utterances):
        nid = f"noise{i:04d}"
        ext = _ext_noise(spec, _utt_rng(spec.seed, i, stream=3))
        write_wav(out_dir / "noise" / f"{nid}.wav", Waveform(ext, rate))
        noise_entries.append(ManifestEntry(nid, f"noise/{nid}.wav", "noise", duration))

    noisy_path = out_dir / "noisy.manifest.jsonl"
    noise_path = out_dir / "noise.manifest.jsonl"
    clean_path = out_dir / "clean.manifest.jsonl"
    write_manifest(noisy_path, noisy_entries)
    write_manifest(noise_path, noise_entries)
    write_manifest(clean_path, clean_entries)
    with atomic_open(out_dir / "synth_log.json", "w", encoding="utf-8") as fh:
        json.dump({"seed": spec.seed, "achieved_snr_db": log}, fh, sort_keys=True, indent=2)
    return noisy_path, noise_path, clean_path, log
