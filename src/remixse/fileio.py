"""Crash-safe file writes shared by every module that writes outputs."""
from __future__ import annotations

import os
import threading
from contextlib import contextmanager
from pathlib import Path


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
