"""The desk-scale scripts run end to end on a tiny corpus."""
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("script", ["run_desk_pipeline.py", "compare_strategies.py"])
def test_script_runs(tmp_path, script):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script), "--workdir", str(tmp_path / "work"),
         "--num", "4", "--bootstrap-epochs", "1", "--distill-epochs", "1"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    if script == "run_desk_pipeline.py":  # one row per plan, the EMA teacher's under --tup ema
        rows = [line.split("|")[1].strip() for line in proc.stdout.splitlines()
                if line.startswith("| ") and not line.startswith("| plan ")]
        assert rows == ["noisy", "bootstrap", "student", "two-stage", "EMA teacher"]
        # --seed seeds the corpora; training runs at the CLI default, as in the README
        trains = [line for line in proc.stdout.splitlines()
                  if line.startswith(("$ remixse bootstrap ", "$ remixse distill "))]
        assert len(trains) == 2 and not any(" --seed " in line for line in trains)
