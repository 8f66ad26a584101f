#!/usr/bin/env python3
"""Run one remixse CLI command in this fresh process and report its cost.

    python3 perfbench/oneshot.py enhance --stages A.ckpt,B.ckpt --in M --out D --threads 2

The command's own output is captured. The last line of stdout is a JSON
object: ``code`` (the exit code, or the exception that escaped), ``wall_s``
(the command's wall time, interpreter start and imports excluded),
``peak_rss_mb`` (the process's resident high-water mark, ``VmHWM``) and
``stderr``. ``run.py`` uses it for the enhance rounds: a process that has
trained keeps its heap, so neither its ``ru_maxrss`` nor its current RSS can
show what enhancement alone needs.
"""
from __future__ import annotations

import io
import json
import sys
from contextlib import redirect_stderr, redirect_stdout
from time import perf_counter

import common


def peak_rss_mb() -> float:
    """VmHWM of this process. ``ru_maxrss`` would not do: Linux carries the
    parent's high-water mark over a vfork and exec."""
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM in /proc/self/status")


def main(argv: list[str]) -> int:
    common.pin_blas_threads()
    common.import_remixse()
    import remixse.cli

    err = io.StringIO()
    start = perf_counter()
    try:
        with redirect_stdout(io.StringIO()), redirect_stderr(err):
            code = remixse.cli.main(argv)
    except (Exception, SystemExit) as exc:  # a traceback is a failed command
        code = f"{type(exc).__name__}: {exc}"
    wall = perf_counter() - start
    print(json.dumps({"code": code, "wall_s": wall, "peak_rss_mb": peak_rss_mb(),
                      "stderr": err.getvalue().strip()}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
