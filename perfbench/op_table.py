#!/usr/bin/env python3
"""Forward and backward time of every autodiff op at the shapes the presets
really produce.

    python3 perfbench/op_table.py [--out FILE]

For each preset, ``tiny`` and ``paper``, this runs one training forward,
``mae_loss(model.apply(x), x)`` at B=8 for tiny (the CLI default) and B=2 for
paper, 16000 samples, under the op wrappers of ``tracer.py`` with their call
log on. The op list and shapes therefore follow the architecture, not a
hand-kept list. Each distinct call (op, input shapes, constant arguments) is
then replayed on copies of its inputs: forward REPEAT times, and backward
REPEAT times on the closure it records, each with the median in ms. The
SHA-256 of the forward output is stored next to the timings, so a speed-up
that changes numerics shows beside its number. BLAS is pinned to one thread,
as in ``run.py``.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import statistics
import sys
from pathlib import Path
from time import perf_counter

import common

BATCH = {"tiny": 8, "paper": 2}
SEGMENT = 16_000
REPEAT = 5


def signature(ad, op, args, kwargs) -> tuple:
    def describe(a):
        if isinstance(a, ad.Tensor):
            return ("tensor", tuple(a.data.shape))
        if hasattr(a, "shape"):
            return ("array", tuple(a.shape))
        return ("const", repr(a))

    return (op,) + tuple(describe(a) for a in args) + tuple(
        (k, describe(v)) for k, v in sorted(kwargs.items())
    )


def time_call(ad, np, op, args, kwargs) -> tuple[float, float]:
    """Median forward and backward ms of one op call on copies of its inputs.

    ``getattr(ad, op)`` is the tracer's wrapper, which calls straight through
    while the tracer is disabled.
    """
    fn = getattr(ad, op)
    fresh = [ad.Tensor(a.data.copy()) if isinstance(a, ad.Tensor) else a for a in args]
    tensors = [a for a in fresh if isinstance(a, ad.Tensor)]
    fwd, bwd = [], []
    for _ in range(REPEAT):
        start = perf_counter()
        out = fn(*fresh, **kwargs)
        fwd.append(perf_counter() - start)
    grad = np.random.default_rng(0).standard_normal(out.data.shape)
    for _ in range(REPEAT):
        out = fn(*fresh, **kwargs)
        for t in tensors:
            t.grad = None
        start = perf_counter()
        out._backward(grad)
        bwd.append(perf_counter() - start)
    return 1000 * statistics.median(fwd), 1000 * statistics.median(bwd)


def preset_table(tracer, preset: str) -> dict:
    import numpy as np
    import remixse.autodiff as ad
    from remixse.model import PAPER_CONFIG, TINY_CONFIG, init_model

    config = {"tiny": TINY_CONFIG, "paper": PAPER_CONFIG}[preset]
    model = init_model(config, seed=0)
    x = 0.1 * np.random.default_rng(0).standard_normal((BATCH[preset], SEGMENT))
    tracer.calls = []
    tracer.enabled = True
    start = perf_counter()
    out = ad.mae_loss(model.apply(x), x)
    forward_s = perf_counter() - start
    tracer.enabled = False
    calls, tracer.calls = tracer.calls, None
    pred = calls[-1][1][0]  # mae_loss(pred, target): pred is the apply output

    grouped: dict[tuple, list] = {}
    for op, args, kwargs in calls:
        grouped.setdefault(signature(ad, op, args, kwargs), []).append((op, args, kwargs))
    rows = []
    for sig, members in grouped.items():
        op, args, kwargs = members[0]
        fwd_ms, bwd_ms = time_call(ad, np, op, args, kwargs)
        rows.append({
            "op": op,
            "inputs": [list(d[1]) if d[0] != "const" else d[1] for d in sig[1:]],
            "calls_per_forward": len(members),
            "fwd_ms": fwd_ms,
            "bwd_ms": bwd_ms,
        })
    return {
        "preset": preset,
        "batch": BATCH[preset],
        "segment": SEGMENT,
        "parameters": model.parameter_count(),
        "forward_output_sha256": hashlib.sha256(pred.data.tobytes()).hexdigest(),
        "loss": float(out.data),
        "recorded_forward_s": forward_s,
        "repeat": REPEAT,
        "ops": rows,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", default=str(common.WORK / "results" / "op_table.json"))
    args = parser.parse_args(argv)

    inherited = common.pin_blas_threads()
    common.import_remixse()
    import tracer as tracing

    tracer = tracing.Tracer()
    tracing.install(tracer)
    tables = [preset_table(tracer, preset) for preset in BATCH]
    for table in tables:
        print(f"{table['preset']}: forward output sha256 {table['forward_output_sha256']}")
        print(f"  {'op':<20} {'calls':>5} {'fwd ms':>10} {'bwd ms':>10}  inputs")
        for r in sorted(table["ops"], key=lambda r: -(r["fwd_ms"] + r["bwd_ms"]) * r["calls_per_forward"]):
            print(f"  {r['op']:<20} {r['calls_per_forward']:>5} {r['fwd_ms']:>10.3f} "
                  f"{r['bwd_ms']:>10.3f}  {r['inputs']}")
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps({"environment": common.environment_record(inherited), "presets": tables},
                              indent=2) + "\n")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
