"""Output files are replaced whole: a write that fails leaves the old file,
and a missing directory is made first. Every reader names what it could not
read in the same words."""
import builtins
import errno

import numpy as np
import pytest

from remixse import fileio
from remixse.audio import Waveform, read_wav, write_wav
from remixse.corpus import ManifestEntry, load_manifest, write_manifest
from remixse.errors import MissingFile, UnreadableFile, UnwritableFile
from remixse.metrics import MetricReport, UtteranceScore, read_pesq_csv
from remixse.model import load_checkpoint
from conftest import fail_reading


class _FailingFile:
    """Wraps a real file; the second write raises, as a full disk would."""

    def __init__(self, fh):
        self._fh = fh
        self._writes = 0

    def write(self, data):
        self._writes += 1
        if self._writes == 2:
            raise OSError("disk full")
        return self._fh.write(data)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return self._fh.__exit__(*exc)


def _writes(path, version):
    report = MetricReport([UtteranceScore(f"u{i}", stoi=0.5) for i in range(version + 2)])
    wave = Waveform(np.full(100 * (version + 1), 0.1 * version), 16_000)
    entries = [ManifestEntry(f"u{i}", f"u{i}.wav", "noisy", 1.0) for i in range(version + 2)]
    return {
        "wav": lambda: write_wav(path, wave),
        "manifest": lambda: write_manifest(path, entries),
        "report_json": lambda: report.write_json(path),
        "report_csv": lambda: report.write_csv(path),
    }


@pytest.mark.parametrize("kind", ["wav", "manifest", "report_json", "report_csv"])
def test_write_failing_midway_leaves_old_file(tmp_path, monkeypatch, kind):
    path = tmp_path / "out"
    _writes(path, 1)[kind]()
    before = path.read_bytes()

    real_open = builtins.open
    monkeypatch.setattr(fileio, "open", lambda *a, **k: _FailingFile(real_open(*a, **k)),
                        raising=False)
    with pytest.raises(OSError, match="disk full"):
        _writes(path, 2)[kind]()
    monkeypatch.undo()

    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["out"]
    _writes(path, 2)[kind]()
    assert path.read_bytes() != before


def test_atomic_open_creates_a_missing_directory(tmp_path):
    path = tmp_path / "a" / "b" / "out.txt"
    with fileio.atomic_open(path, "w", encoding="utf-8") as fh:
        fh.write("x")
    assert path.read_text(encoding="utf-8") == "x"
    assert list(path.parent.iterdir()) == [path]


def test_a_directory_that_cannot_be_made_is_unwritable_file(tmp_path):
    blocker = tmp_path / "blocker"
    blocker.write_bytes(b"x")
    path = blocker / "sub" / "out.txt"
    with pytest.raises(UnwritableFile) as err:
        with fileio.atomic_open(path, "w"):
            pass
    assert str(err.value) == f"cannot create the directory of {path}: Not a directory"
    assert blocker.read_bytes() == b"x"


@pytest.mark.parametrize(
    "read, what",
    [(read_wav, "WAV file"), (load_manifest, "manifest"), (read_pesq_csv, "PESQ CSV"),
     (load_checkpoint, "checkpoint")],
    ids=["wav", "manifest", "pesq", "checkpoint"],
)
def test_readers_name_what_they_could_not_read(tmp_path, monkeypatch, read, what):
    path = tmp_path / "input"
    with pytest.raises(MissingFile) as err:
        read(path)
    assert str(err.value) == f"{what} not found: {path}"
    path.write_bytes(b"x")
    fail_reading(monkeypatch, path, PermissionError(errno.EACCES, "Permission denied"))
    with pytest.raises(UnreadableFile) as err:
        read(path)
    assert str(err.value) == f"cannot read {what} {path}: Permission denied"
