#!/usr/bin/env python3
"""Fold two benchmark result sets and one per-op table into BENCH_<N>.json.

    python3 scripts/bench_record.py BASE_RESULTS NEW_RESULTS OP_TABLE --number N

BASE_RESULTS and NEW_RESULTS are directories of run records written by
``perfbench/run.py --results DIR`` for the base and the new commit; OP_TABLE
is the JSON that ``perfbench/op_table.py --out`` writes for the new commit.
Runs pair up by (workload, seed, trace); a fair comparison runs the two
sides of each pair back to back, alternating which side goes first.

For each workload and metric the record keeps, per side, the median,
quartiles, IQR, run count and wins (pairs in which that side read strictly
better, by the metric's direction in BENCHMARK.json), plus the new/base
ratio of the medians and whether the medians differ by more than the base
IQR. It also keeps each side's environment, error rate and correctness, the
held-out scores per seed with their deltas, and which output hashes
(corpora, checkpoints, enhanced files) differ between the sides per seed.
Only the standard library and the benchmark's own modules are used.
"""
from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))
import common  # noqa: E402
from compare import error_rate  # noqa: E402

HELDOUT = ("heldout_sisdr_db", "heldout_stoi")


def load_runs(directory) -> dict:
    """{(workload, trace): {seed: record}} from a results directory."""
    runs: dict = {}
    paths = sorted(Path(directory).glob("*.json"))
    if not paths:
        raise SystemExit(f"bench_record: no run records in {directory}")
    for path in paths:
        record = json.loads(path.read_text(encoding="utf-8"))
        by_seed = runs.setdefault((record["workload"], record["trace"]), {})
        if record["seed"] in by_seed:
            raise SystemExit(f"bench_record: two {record['workload']} runs of seed "
                             f"{record['seed']} (trace {record['trace']}) in {directory}")
        by_seed[record["seed"]] = record
    return runs


def summarize(values: list[float]) -> dict:
    """Median, quartiles (``common.quartiles``) and IQR of some runs."""
    q1, median, q3 = common.quartiles(values)
    return {"n": len(values), "median": median, "q1": q1, "q3": q3, "iqr": q3 - q1}


def compare_metric(base: dict, new: dict, name: str, better: str) -> dict | None:
    """Both sides of one metric over the seeds each ran; None if a side has no value."""
    b = {s: r["metrics"][name] for s, r in base.items() if r["metrics"].get(name) is not None}
    n = {s: r["metrics"][name] for s, r in new.items() if r["metrics"].get(name) is not None}
    if not b or not n:
        return None
    sign = -1.0 if better == "lower" else 1.0  # sign * value: larger is better
    paired = sorted(set(b) & set(n))
    new_wins = sum(sign * n[s] > sign * b[s] for s in paired)
    base_wins = sum(sign * b[s] > sign * n[s] for s in paired)
    bs, ns = summarize(list(b.values())), summarize(list(n.values()))
    bs["wins"], ns["wins"] = base_wins, new_wins
    gain = sign * (ns["median"] - bs["median"])
    return {
        "better": better,
        "pairs": len(paired),
        "base": bs,
        "new": ns,
        "ratio": ns["median"] / bs["median"] if bs["median"] else None,
        "gain_exceeds_base_iqr": gain > bs["iqr"],
    }


def _flat(hashes: dict, prefix: str = "") -> dict[str, str]:
    flat = {}
    for key, value in hashes.items():
        if isinstance(value, dict):
            flat.update(_flat(value, f"{prefix}{key}/"))
        else:
            flat[f"{prefix}{key}"] = value
    return flat


def workload_record(base: dict, new: dict, metrics: list[dict]) -> dict:
    out = {
        "seeds": {"base": sorted(base), "new": sorted(new)},
        "correct": {"base": all(r["correct"] for r in base.values()),
                    "new": all(r["correct"] for r in new.values())},
        "error_rate": {"base": error_rate(base.values()), "new": error_rate(new.values())},
        "metrics": {},
    }
    for metric in metrics:
        row = compare_metric(base, new, metric["name"], metric["better"])
        if row is not None:
            row["unit"] = metric["unit"]
            if "bound" in metric:
                row["bound"] = metric["bound"]
            out["metrics"][metric["name"]] = row
    heldout, hashes = {}, {}
    for seed in sorted(set(base) & set(new)):
        b, n = base[seed].get("summary", {}), new[seed].get("summary", {})
        scores = {k: {"base": b[k], "new": n[k], "delta": n[k] - b[k]}
                  for k in HELDOUT if b.get(k) is not None and n.get(k) is not None}
        if scores:
            heldout[str(seed)] = scores
        bh, nh = _flat(base[seed].get("hashes", {})), _flat(new[seed].get("hashes", {}))
        if bh or nh:
            hashes[str(seed)] = {
                "equal": sorted(k for k in bh if nh.get(k) == bh[k]),
                "differ": sorted(k for k in set(bh) | set(nh) if nh.get(k) != bh.get(k)),
            }
    if heldout:
        out["heldout"] = heldout
    if hashes:
        out["hashes"] = hashes
    return out


def _environments(runs: dict) -> list[dict]:
    found = []
    for by_seed in runs.values():
        for record in by_seed.values():
            if record.get("environment") not in found:
                found.append(record.get("environment"))
    return found


def build(base_runs: dict, new_runs: dict, op_table: dict, spec: dict,
          number: int) -> dict:
    workloads: dict = {}
    for workload, trace in sorted(set(base_runs) & set(new_runs)):
        metrics = spec["per_layer"] if trace else spec["end_to_end"]
        kind = "per_layer" if trace else "end_to_end"
        workloads.setdefault(workload, {})[kind] = workload_record(
            base_runs[(workload, trace)], new_runs[(workload, trace)], metrics)
    return {
        "number": number,
        "benchmark": {k: spec.get(k) for k in ("command", "run_seconds")},
        "environment": {"base": _environments(base_runs), "new": _environments(new_runs)},
        "workloads": workloads,
        "op_table": op_table,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("base", help="results directory of the base commit")
    parser.add_argument("new", help="results directory of the new commit")
    parser.add_argument("op_table", help="op_table.py output of the new commit")
    parser.add_argument("--number", type=int, required=True, help="N in BENCH_<N>.json")
    parser.add_argument("--benchmark", default=str(ROOT / "BENCHMARK.json"))
    parser.add_argument("--out", help="output path (default: BENCH_<N>.json in the repo root)")
    args = parser.parse_args(argv)

    spec = json.loads(Path(args.benchmark).read_text(encoding="utf-8"))
    op_table = json.loads(Path(args.op_table).read_text(encoding="utf-8"))
    record = build(load_runs(args.base), load_runs(args.new), op_table, spec, args.number)
    out = Path(args.out) if args.out else ROOT / f"BENCH_{args.number}.json"
    out.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    for workload, kinds in record["workloads"].items():
        for name, row in kinds.get("end_to_end", {}).get("metrics", {}).items():
            print(f"{workload} {name}: base {row['base']['median']:.5g} "
                  f"new {row['new']['median']:.5g} (new wins {row['new']['wins']}/{row['pairs']})")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
