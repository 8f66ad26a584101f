"""File access shared by every module: crash-safe writes into directories
made on demand, scratch directories that go when the work is done, and reads
whose failures map onto the package errors. This is the one module that
creates directories."""
from __future__ import annotations

import os
import shutil
import tempfile
import threading
from contextlib import contextmanager
from pathlib import Path

from .errors import MissingFile, UnreadableFile, UnwritableFile


def make_parents(*paths) -> None:
    """Create the directory of each path, with any missing parents. A
    directory that cannot be made (a regular file in the way, no permission)
    raises ``UnwritableFile("cannot create the directory of <path>: ...")``.
    """
    for path in paths:
        try:
            Path(path).parent.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            reason = exc.strerror or exc
            raise UnwritableFile(f"cannot create the directory of {path}: {reason}") from exc


@contextmanager
def scratch_dir(parent):
    """A new, empty directory under ``parent`` for the block; it is removed
    with everything in it when the block ends, however it ends. ``parent``
    must exist. A directory that cannot be made raises ``UnwritableFile``."""
    try:
        path = Path(tempfile.mkdtemp(prefix=".scratch-", dir=parent))
    except OSError as exc:
        reason = exc.strerror or exc
        raise UnwritableFile(f"cannot create a scratch directory in {parent}: {reason}") from exc
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)


@contextmanager
def atomic_open(path, mode: str = "wb", **kwargs):
    """Open a temp file next to ``path`` and rename it over ``path`` once the
    block completes. Readers see the old file or the new one, never a torn
    one, and a write that fails leaves the old file in place. The directory
    of ``path`` is created first (see ``make_parents``).

    The temp name carries the process and thread ids, so concurrent writers
    (enhancement worker threads) never share one.
    """
    path = Path(path)
    make_parents(path)
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
