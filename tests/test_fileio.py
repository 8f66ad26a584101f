"""Output files are replaced whole: a write that fails leaves the old file."""
import builtins

import numpy as np
import pytest

from remixse import fileio
from remixse.audio import Waveform, write_wav
from remixse.corpus import ManifestEntry, write_manifest
from remixse.metrics import MetricReport, UtteranceScore


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
