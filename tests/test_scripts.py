"""Smoke tests that run the experiment scripts end to end."""

import subprocess
import sys
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def run_script(name, *args):
    return subprocess.run([sys.executable, str(SCRIPTS / name), *map(str, args)],
                          capture_output=True, text=True, check=True, timeout=300)


def test_two_basin_experiment(tmp_path):
    out = run_script("run_two_basin_experiment.py", "--out-dir", tmp_path, "--scenes", 2)
    assert "routing wins" in out.stdout
    for name in ("compare_test.csv", "compare_table.csv",
                 "scene_001/report_ipdw.csv", "scene_001/report_idw.csv"):
        assert (tmp_path / name).is_file()


def test_step_sweep(tmp_path):
    out = run_script("sweep_step_sizes.py", "--out-dir", tmp_path, "--steps", "5,10")
    lines = out.stdout.splitlines()
    assert lines[0].split()[0] == "step"
    assert [line.split()[0] for line in lines[1:3]] == ["5", "10"]
    for step in ("5", "10"):
        assert (tmp_path / f"step_{step}" / "report_ipdw.csv").is_file()
