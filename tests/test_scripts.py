"""Smoke test of the example scripts, which call the table API directly."""

import importlib.util
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


# every script command line that exits 0 (scripts/reach.py runs these too)
COMMANDS = [
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
]
# usage errors, each keyed by the reason it prints on stderr
REFUSED = {
    # a negative length bound
    "length bound -1": ["scripts/tilt_grid.py", "--type", "A2", "--max-length", "-1"],
    # the family h has no subset I
    "--parabolic applies to the m and n families only": [
        "scripts/kl_table.py", "--type", "A2", "--family", "h", "--parabolic", "1",
    ],
    # an unknown type tag, generator or length bound, each named by its script
    "kl_table.py: error: unrecognized type tag 'X9'": ["scripts/kl_table.py", "--type", "X9"],
    "kl_table.py: error: unknown generator 7 for system A2": [
        "scripts/kl_table.py", "--type", "A2", "--family", "m", "--parabolic", "7",
    ],
    "kl_table.py: error: --max-length: the length bound -1 is negative": [
        "scripts/kl_table.py", "--type", "A2", "--max-length", "-1",
    ],
    "tilt_grid.py: error: unrecognized type tag 'X9'": ["scripts/tilt_grid.py", "--type", "X9"],
    "column_cost.py: error: unknown generator 5 for system A2": [
        "scripts/column_cost.py", "--type", "A2", "--y", "1 5",
    ],
    # an unknown block name
    "oracle_demo.py: error: no bundled block named 'nosuch'": [
        "scripts/oracle_demo.py", "--block", "nosuch",
    ],
}


@pytest.mark.parametrize("argv", COMMANDS, ids=lambda argv: " ".join(argv))
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


def _assert_refused(reason):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, *REFUSED[reason]], cwd=ROOT, env=env, capture_output=True, text=True
    )
    assert proc.returncode == 2 and proc.stdout == "", proc.stdout[-300:]  # a usage error, no output
    assert reason in proc.stderr, proc.stderr


def test_tilt_grid_refuses_a_negative_length_bound():
    _assert_refused("length bound -1")


def test_kl_table_refuses_a_subset_for_h():
    _assert_refused("--parabolic applies to the m and n families only")


@pytest.mark.parametrize("reason", REFUSED)
def test_script_refuses_bad_input(reason):
    _assert_refused(reason)


def test_reach_census_sees_the_help_printer():
    # the census, run in process on two corpus rows: the help printer is
    # entered only by a row that asks for --help
    spec = importlib.util.spec_from_file_location("reach", ROOT / "scripts" / "reach.py")
    reach = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(reach)
    without = reach.census(reach.corpus_runs(["kl --type A2 --y '1 2 1'", "tilt O --type A1 --x 1 --simple"]))
    with_help = reach.census(reach.corpus_runs(["kl --type A2 --y '1 2 1'", "kl --help"]))
    assert "_print_help" in without["tiltc.cli"].never
    assert "_print_help" not in with_help["tiltc.cli"].never
    assert without["tiltc.cli"].lines == with_help["tiltc.cli"].lines > 0


def test_reach_census_marks_the_names_the_benchmark_keeps():
    # no traffic enters kl_column or from_text: the tracer wraps the one and
    # make_refs.py reads the other, so the census says why each stays
    spec = importlib.util.spec_from_file_location("reach", ROOT / "scripts" / "reach.py")
    reach = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(reach)
    report = reach.census(reach.corpus_runs(["kl --type A2 --y '1 2 1'"]))
    assert report["tiltc.hecke"].pinned["HeckeContext.kl_column"] == "wrapped by perfbench/layers.py"
    assert report["tiltc.laurent"].pinned["LaurentPoly.from_text"] == "named by perfbench/make_refs.py"


def test_paired_compares_a_checkout_with_itself():
    proc = subprocess.run(
        [sys.executable, "scripts/paired.py", ".", ".", "kl-columns", "--pairs", "1", "--replays", "1"],
        cwd=ROOT, capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    [line] = proc.stdout.splitlines()
    out = json.loads(line)
    assert (out["workload"], out["pairs"], out["replays"]) == ("kl-columns", 1, 1)
    [(name, metric)] = out["metrics"].items()
    [[parent, change]] = metric["pairs"]
    assert name == "min_s" and parent > 0 and change > 0
    assert metric["ratio"] == pytest.approx(change / parent, abs=1e-3)
    assert metric["parent_quartile_distance"] == 0


# the whole stdout of oracle_demo.py on sl2, byte for byte: the one script
# that calls cmin_module and coordinatize outside verify_block
ORACLE_DEMO_SL2 = """\
block sl2: ambient type A1
  labels: e, s
  algebra dimension: 5
  simple  total dims: {'e': 1, 's': 1}
  std     total dims: {'e': 1, 's': 2}
  costd   total dims: {'e': 1, 's': 2}
  tilt    total dims: {'e': 1, 's': 3}
  proj    total dims: {'e': 3, 's': 2}
  inj     total dims: {'e': 3, 's': 2}

hom dimensions between tilting modules:
  Hom(tilt_e, tilt_e) = 1
  Hom(tilt_e, tilt_s) = 1
  Hom(tilt_s, tilt_e) = 1
  Hom(tilt_s, tilt_s) = 2

tilting coresolutions of the projectives:
  proj_e: [0: s]
  proj_s: [0: s] [1: e]

minimal tilting complexes:
  std_e:
    [0: e]
  std_s:
    [0: s] [1: e]
    d^0: ('s',) -> ('e',)
      row 0: ('1',)
  simple_e:
    [0: e]
  simple_s:
    [-1: e] [0: s] [1: e]
    d^-1: ('e',) -> ('s',)
      row 0: ('-1',)
    d^0: ('s',) -> ('e',)
      row 0: ('1',)

invariant suites:
  ok presentation: algebra dim 5, 2 labels, 5 hom basis maps
  ok highest-weight axioms: axioms hold for 2 labels; 1 nonsplit simple/costandard extension pairs
  ok minimal complexes: simple_e: [0: e]; simple_s: [-1: e] [0: s] [1: e]; std_e: [0: e]; std_s: [0: s] [1: e]
  ok elimination uniqueness: forward and backward scans agree
  ok summand bounds: diagonal summand appears once, in degree 0
  ok triangle bounds: cone bounds hold around 1 radical triangles
  ok no gaps: no gaps across 5 complexes
  ok homological dimensions: support endpoints equal homological dimensions
  ok formula agreement: label counts match the closed formulas on 4 objects
all suites pass
"""


def test_oracle_demo_prints_the_pinned_walkthrough():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, "scripts/oracle_demo.py", "--block", "sl2"],
        cwd=ROOT, env=env, capture_output=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == ORACLE_DEMO_SL2.encode()
