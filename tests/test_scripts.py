"""Smoke test of the example scripts, which call the table API directly."""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


# the count line of a tilt_grid run pinned by its arguments
BUILT = {
    "--type A3 --max-subset 2": "388 tables (982 indices outside the grid)",
    "--type affA2 --level neg --max-length 5 --max-subset 2": "758 tables (1875 indices outside the grid)",
    "--type A2 --max-length 0": "6 tables (6 indices outside the grid)",
}


@pytest.mark.parametrize(
    "argv",
    [
        ["scripts/kl_table.py", "--type", "A2"],
        ["scripts/kl_table.py", "--type", "B2", "--inverse"],
        ["scripts/tilt_grid.py", "--type", "A2"],
        ["scripts/tilt_grid.py", "--type", "A2", "--max-length", "0"],  # the identity alone
        ["scripts/tilt_grid.py", "--type", "affA1", "--level", "pos", "--max-length", "4"],
        # every subset pair with |I|, |J| <= 2: both table sides, the I side with J != () too
        ["scripts/tilt_grid.py", "--type", "A3", "--max-subset", "2"],
        [
            "scripts/tilt_grid.py", "--type", "affA2", "--level", "neg",
            "--max-length", "5", "--max-subset", "2",
        ],
        ["scripts/oracle_demo.py"],
        [
            "scripts/column_cost.py", "--type", "D5",
            "--y", "2 1 3 2 1 4 3 2 1 5 3 2 1 4 3 2 5 3",
            "--parabolic", "1", "--flavor", "antispherical",
        ],
    ],
    ids=lambda argv: " ".join(argv),
)
def test_script_runs(argv):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, *argv], cwd=ROOT, env=env, capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
    if argv[0] == "scripts/tilt_grid.py":
        # a grid whose every index fails still exits 0; it must build tables
        built = re.search(r"^# built (\d+) tables", proc.stdout, re.M)
        assert built is not None and int(built.group(1)) > 0, proc.stdout[-300:]
        pinned = BUILT.get(" ".join(argv[1:]))
        assert pinned is None or proc.stdout.endswith(f"# built {pinned}\n"), proc.stdout[-300:]
    if argv[0] == "scripts/column_cost.py":
        # the recursion walks the prefixes of y's word: 20 columns, where the
        # smallest right descent took 237
        cost = json.loads(proc.stdout)
        assert cost["size"] == 480 and cost["columns"] <= 21, cost
        assert isinstance(cost["print_s"], float) and cost["print_s"] > 0, cost


def test_tilt_grid_refuses_a_negative_length_bound():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    argv = ["scripts/tilt_grid.py", "--type", "A2", "--max-length", "-1"]
    proc = subprocess.run([sys.executable, *argv], cwd=ROOT, env=env, capture_output=True, text=True)
    assert proc.returncode == 2 and proc.stdout == "", proc.stdout[-300:]  # a usage error, no grid
    assert "length bound -1" in proc.stderr, proc.stderr
