"""Shared plumbing for the benchmark scripts: locating the checkout, pinning
BLAS threads, importing remixse from the checkout's sources, the environment
record, BENCHMARK.json and quartiles.

Import order matters: call ``pin_blas_threads`` before anything imports
numpy, because OpenBLAS reads its thread count once, at load time.
"""
from __future__ import annotations

import json
import os
import platform
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".perfbench_work"

# One BLAS thread per process. `enhance` and `evaluate` run --threads nproc
# workers, and nproc workers each starting nproc BLAS threads oversubscribe
# the cores: on 2 cores that alone made `enhance` about 1.6x slower.
BLAS_THREADS = "1"
THREAD_VARS = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


def pin_blas_threads() -> dict[str, str | None]:
    """Set every BLAS/OpenMP thread variable to BLAS_THREADS; returns what
    the caller's environment had."""
    if "numpy" in sys.modules:
        raise RuntimeError("pin_blas_threads must run before numpy is imported")
    inherited = {name: os.environ.get(name) for name in THREAD_VARS}
    os.environ.update({name: BLAS_THREADS for name in THREAD_VARS})
    return inherited


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def import_remixse():
    """Import remixse from ``src/`` of this checkout, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "remixse" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no remixse sources at {src / 'remixse'}")
    sys.path.insert(0, str(src))
    import remixse

    if Path(remixse.__file__).resolve().parent != (src / "remixse").resolve():
        raise SystemExit(f"perfbench: imported remixse from {remixse.__file__}, not {src}")
    return remixse


def environment_record(inherited_thread_env: dict) -> dict:
    """What a result depends on besides the code: cores, versions, BLAS."""
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: blas.get(k) for k in ("name", "version", "openblas configuration")}
    except (KeyError, TypeError, ValueError):
        blas = None
    return {
        "nproc": nproc(),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "thread_env": {name: os.environ.get(name) for name in THREAD_VARS},
        "inherited_thread_env": inherited_thread_env,
        "blas_threads_pinned": BLAS_THREADS,
        "REMIXSE_THREADS": os.environ.get("REMIXSE_THREADS"),
    }


def load_benchmark() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def quartiles(values) -> tuple[float, float, float]:
    """(q1, median, q3) as statistics.quantiles(n=4) gives them; a single
    value is its own quartiles."""
    values = list(values)
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3
