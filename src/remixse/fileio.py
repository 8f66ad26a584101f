"""File access shared by every module: crash-safe writes, and reads whose
failures map onto the package errors."""
from __future__ import annotations

import os
import threading
from contextlib import contextmanager
from pathlib import Path

from .errors import MissingFile, UnreadableFile


@contextmanager
def atomic_open(path, mode: str = "wb", **kwargs):
    """Open a temp file next to ``path`` and rename it over ``path`` once the
    block completes. Readers see the old file or the new one, never a torn
    one, and a write that fails leaves the old file in place.

    The temp name carries the process and thread ids, so concurrent writers
    (enhancement worker threads) never share one.
    """
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.{threading.get_ident()}.tmp")
    try:
        with open(tmp, mode, **kwargs) as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


@contextmanager
def open_input(path, what: str, mode: str = "rb", **kwargs):
    """Open ``path`` for reading inside the block. A path that is not a file
    raises ``MissingFile("<what> not found: <path>")``, and an open or a read
    in the block that fails ``UnreadableFile("cannot read <what> <path>: ...")``.
    """
    try:
        with open(path, mode, **kwargs) as fh:
            yield fh
    except (FileNotFoundError, IsADirectoryError, NotADirectoryError) as exc:
        raise MissingFile(f"{what} not found: {path}") from exc
    except OSError as exc:
        raise UnreadableFile(f"cannot read {what} {path}: {exc.strerror or exc}") from exc
