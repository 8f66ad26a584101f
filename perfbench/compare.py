#!/usr/bin/env python3
"""Compare the benchmark results of two commits.

    python3 perfbench/compare.py BASE_RESULTS NEW_RESULTS

Each argument is a directory of run records written by ``run.py`` (its
``--results`` directory, by default ``.perfbench_work/results``). For every
workload this prints each end-to-end metric with the median and quartiles
of both sides and the ratio new/base, then the per-layer rows of the traced
runs the same way, then how the held-out scores moved on the seeds both
sides ran (they are exact for a seed, so any change is a numerics change).

An end-to-end metric is "unresolved" when either side's spread (quartile
distance over median) is wider than the metric's bound in BENCHMARK.json,
unless every new run reads better than every base run. The exit code is 1
when a resolved metric got worse by more than its bound, when the new side
failed more operations per attempt than the base, or when a new run was not
correct; otherwise 0.
"""
from __future__ import annotations

import argparse
import json
import sys
from collections import defaultdict
from pathlib import Path

import common


def load(directory) -> dict:
    """{(workload, trace): [record, ...]} from one results directory."""
    runs = defaultdict(list)
    paths = sorted(Path(directory).glob("*.json"))
    if not paths:
        raise SystemExit(f"compare: no run records in {directory}")
    for path in paths:
        record = json.loads(path.read_text())
        runs[(record["workload"], record["trace"])].append(record)
    return runs


def spread(q1: float, median: float, q3: float) -> float:
    return (q3 - q1) / abs(median) if median else float("inf")


def verdict(base: list[float], new: list[float], better: str, bound: float) -> str:
    sign = 1.0 if better == "lower" else -1.0  # sign * (new - base) > 0 is worse
    bq, nq = common.quartiles(base), common.quartiles(new)
    worse = sign * (nq[1] - bq[1]) / abs(bq[1])
    if max(spread(*bq), spread(*nq)) > bound:
        all_better = max(sign * v for v in new) < min(sign * v for v in base)
        return "better" if all_better else "unresolved"
    if worse > bound:
        return "REGRESSION"
    if -worse > max(spread(*bq), spread(*nq)):
        return "better"
    return "within bound"


def row(name: str, unit: str, base: list[float], new: list[float], tail: str = "") -> str:
    bq, nq = common.quartiles(base), common.quartiles(new)
    ratio = f"{nq[1] / bq[1]:.3f}" if bq[1] else "n/a"
    return (
        f"  {name:<36} {unit:<10} base {bq[1]:.5g} [{bq[0]:.5g}, {bq[2]:.5g}] n={len(base)}"
        f"  new {nq[1]:.5g} [{nq[0]:.5g}, {nq[2]:.5g}] n={len(new)}  new/base {ratio}  {tail}"
    ).rstrip()


def error_rate(records) -> float:
    return sum(r["failed"] for r in records) / max(1, sum(r["attempted"] for r in records))


def compare(base_runs: dict, new_runs: dict, spec: dict) -> int:
    status = 0
    workloads = sorted({w for w, _ in base_runs} | {w for w, _ in new_runs})
    for workload in workloads:
        print(f"{workload}")
        for trace, metrics in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            base, new = base_runs.get((workload, trace), []), new_runs.get((workload, trace), [])
            if not base or not new:
                print(f"  (trace {trace}: {len(base)} base and {len(new)} new runs; skipped)")
                continue
            if any(not r["correct"] for r in new):
                print(f"  NEW RUN NOT CORRECT (trace {trace})")
                status = 1
            be, ne = error_rate(base), error_rate(new)
            flag = "HIGHER" if ne > be else ""
            print(f"  {'error_rate':<36} {'ratio':<10} base {be:.5g}  new {ne:.5g}  {flag}".rstrip())
            status |= ne > be
            for metric in metrics:
                name = metric["name"]
                b = [r["metrics"][name] for r in base if r["metrics"].get(name) is not None]
                n = [r["metrics"][name] for r in new if r["metrics"].get(name) is not None]
                if not b or not n:
                    continue
                tail = ""
                if "bound" in metric:
                    tail = verdict(b, n, metric["better"], metric["bound"])
                    tail += f" (bound {metric['bound']:.0%}, {metric['better']} is better)"
                    status |= tail.startswith("REGRESSION")
                print(row(name, metric["unit"], b, n, tail))
        base_scores = {r["seed"]: r["summary"] for r in base_runs.get((workload, 0), [])}
        pairs = [(base_scores[r["seed"]], r["summary"])
                 for r in new_runs.get((workload, 0), []) if r["seed"] in base_scores]
        for key in ("heldout_sisdr_db", "heldout_stoi"):
            deltas = [abs(n[key] - b[key]) for b, n in pairs
                      if b.get(key) is not None and n.get(key) is not None]
            if deltas:
                print(f"  {key}: changed on {sum(d > 0 for d in deltas)} of {len(deltas)} "
                      f"seeds run on both sides, largest |delta| {max(deltas):.3g}")
    return int(status)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("base", help="results directory of the base commit")
    parser.add_argument("new", help="results directory of the new commit")
    args = parser.parse_args(argv)
    return compare(load(args.base), load(args.new), common.load_benchmark())


if __name__ == "__main__":
    sys.exit(main())
