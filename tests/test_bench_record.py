"""scripts/bench_record.py on small synthetic run records."""
import importlib.util
import json
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "scripts" / "bench_record.py"
_spec = importlib.util.spec_from_file_location("bench_record", _PATH)
bench_record = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_record)

SPEC = {
    "command": ["python3", "perfbench/run.py"],
    "run_seconds": 60,
    "end_to_end": [
        {"name": "enhance_rtf", "unit": "s/audio-s", "better": "lower", "bound": 0.25},
        {"name": "throughput", "unit": "audio-s/s", "better": "higher", "bound": 0.25},
    ],
    "per_layer": [{"name": "autodiff.glu.fwd_ms", "unit": "ms", "better": "lower"}],
}


def _record(seed, trace=0, failed=0, **metrics):
    return {
        "workload": "w", "seed": seed, "trace": trace, "correct": failed == 0,
        "attempted": 10, "failed": failed, "metrics": metrics,
        "environment": {"nproc": 2},
        "summary": {"heldout_stoi": 0.5 + seed / 100, "heldout_sisdr_db": -3.0},
        "hashes": {"corpus": "c", "checkpoints": {"a.ckpt": f"h{seed}"}},
    }


def _write(directory: Path, records):
    directory.mkdir()
    for i, record in enumerate(records):
        (directory / f"r{i}.json").write_text(json.dumps(record))
    return directory


def test_medians_iqr_wins_and_deltas(tmp_path):
    base = _write(tmp_path / "base", [
        _record(s, enhance_rtf=r, throughput=t)
        for s, r, t in [(1, 0.40, 1.0), (2, 0.30, 1.2), (3, 0.50, 0.9), (4, 0.20, 1.1)]
    ])
    new_records = [_record(s, enhance_rtf=r, throughput=t)
                   for s, r, t in [(1, 0.20, 1.0), (2, 0.10, 1.3), (3, 0.30, 0.8), (4, 0.25, 1.1)]]
    new_records[0]["summary"]["heldout_stoi"] += 0.001
    new_records[1]["hashes"]["checkpoints"]["a.ckpt"] = "changed"
    new = _write(tmp_path / "new", new_records)

    record = bench_record.build(bench_record.load_runs(base), bench_record.load_runs(new),
                                {"presets": []}, SPEC, number=7)
    w = record["workloads"]["w"]["end_to_end"]
    rtf = w["metrics"]["enhance_rtf"]
    assert rtf["pairs"] == 4
    assert (rtf["new"]["wins"], rtf["base"]["wins"]) == (3, 1)
    assert rtf["base"]["median"] == pytest.approx(0.35)
    assert rtf["new"]["median"] == pytest.approx(0.225)
    assert rtf["base"]["iqr"] == pytest.approx(rtf["base"]["q3"] - rtf["base"]["q1"])
    assert rtf["ratio"] == pytest.approx(0.225 / 0.35)
    assert rtf["gain_exceeds_base_iqr"] is False  # 0.125 < the base IQR of 0.25
    assert (rtf["unit"], rtf["bound"]) == ("s/audio-s", 0.25)
    throughput = w["metrics"]["throughput"]
    assert (throughput["new"]["wins"], throughput["base"]["wins"]) == (1, 1)  # two ties
    assert w["heldout"]["1"]["heldout_stoi"]["delta"] == pytest.approx(0.001)
    assert w["heldout"]["2"]["heldout_sisdr_db"]["delta"] == 0.0
    assert w["hashes"]["2"]["differ"] == ["checkpoints/a.ckpt"]
    assert w["hashes"]["1"] == {"equal": ["checkpoints/a.ckpt", "corpus"], "differ": []}
    assert w["correct"] == {"base": True, "new": True}
    assert record["number"] == 7 and record["op_table"] == {"presets": []}
    assert record["environment"] == {"base": [{"nproc": 2}], "new": [{"nproc": 2}]}


def test_traced_runs_fill_per_layer_and_failures_count(tmp_path):
    base = _write(tmp_path / "base", [
        _record(1, trace=1, **{"autodiff.glu.fwd_ms": 10.0}),
        _record(1, enhance_rtf=0.4),
    ])
    new = _write(tmp_path / "new", [
        _record(1, trace=1, **{"autodiff.glu.fwd_ms": 4.0}),
        _record(1, failed=2, enhance_rtf=0.2),
    ])
    record = bench_record.build(bench_record.load_runs(base), bench_record.load_runs(new),
                                {"presets": []}, SPEC, number=1)
    w = record["workloads"]["w"]
    assert w["per_layer"]["metrics"]["autodiff.glu.fwd_ms"]["new"]["wins"] == 1
    e2e = w["end_to_end"]
    assert "throughput" not in e2e["metrics"]  # neither side measured it
    assert e2e["error_rate"] == {"base": 0.0, "new": 0.2}
    assert e2e["correct"] == {"base": True, "new": False}
    assert e2e["metrics"]["enhance_rtf"]["gain_exceeds_base_iqr"] is True


def test_main_writes_the_record(tmp_path, capsys):
    base = _write(tmp_path / "base", [_record(1, enhance_rtf=0.4)])
    new = _write(tmp_path / "new", [_record(1, enhance_rtf=0.3)])
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(SPEC))
    (tmp_path / "ops.json").write_text(json.dumps({"presets": [{"preset": "tiny"}]}))
    out = tmp_path / "BENCH_3.json"
    assert bench_record.main([str(base), str(new), str(tmp_path / "ops.json"),
                              "--number", "3", "--benchmark", str(tmp_path / "BENCHMARK.json"),
                              "--out", str(out)]) == 0
    written = json.loads(out.read_text())
    assert written["op_table"]["presets"][0]["preset"] == "tiny"
    assert "w enhance_rtf: base 0.4 new 0.3 (new wins 1/1)" in capsys.readouterr().out


def test_duplicate_seed_on_one_side_is_refused(tmp_path):
    base = _write(tmp_path / "base", [_record(1, enhance_rtf=0.4), _record(1, enhance_rtf=0.5)])
    with pytest.raises(SystemExit, match="two w runs of seed 1"):
        bench_record.load_runs(base)
