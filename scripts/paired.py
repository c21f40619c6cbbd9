#!/usr/bin/env python3
"""Time two checkouts against each other in process, in alternating pairs.

    python3 scripts/paired.py PARENT CHANGE WORKLOAD [--pairs N] [--replays R]

PARENT and CHANGE are checkout roots.  Each side of a pair is a fresh
interpreter that imports ``tiltc`` from its own ``src/`` and replays the
benchmark run set of WORKLOAD (read from this checkout's ``perfbench/``,
which is not changed) R times through ``perfbench/workloads.py``'s
``run_unit``; its time is the sum over the passes of each pass's fastest
replay.  On ``store-warm`` that is ``min_s`` over the warm passes and
``cold_min_s`` over the cold ones; elsewhere ``min_s``.  Pair k uses seed
k + 1 on both sides, and the parent runs first in the even pairs.

The one line of standard output is a JSON object: per metric the medians of
both sides, their ratio (change over parent), the pairs the change won (ran
faster), the parent's quartile distance and every pair as [parent, change]
seconds.  A side whose outputs differ from the references, or that fails an
operation, stops the run with exit code 1.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent / "perfbench"
sys.path.insert(0, str(BENCH))
import workloads  # noqa: E402  (this checkout's run sets and references)

# one side: replay the run set and sum each pass's fastest replay, by kind
SIDE = """\
import json, sys
bench, workload, seed, replays = sys.argv[1], sys.argv[2], int(sys.argv[3]), int(sys.argv[4])
sys.path.insert(0, bench)
import workloads as wl
import tiltc
passes = wl.run_set(wl.load_refs(), workload)
log = wl.RunLog()
for order in wl.sweep_orders(workload, seed, replays):
    for u in order:
        wl.run_unit(workload, u, passes[u], log)
best = {}
for p in log.passes:
    best[p.kind, p.key] = min(best.get((p.kind, p.key), p.wall_s), p.wall_s)
sums = {}
for (kind, _), s in best.items():
    sums[kind] = sums.get(kind, 0.0) + s
print(json.dumps({"tiltc": tiltc.__file__, "failures": log.failures, "sums": sums}))
"""
METRIC = {"pass": "min_s", "warm": "min_s", "cold": "cold_min_s"}


def side(root: Path, workload: str, seed: int, replays: int) -> dict[str, float]:
    """One side's seconds by metric, checked to come from root's program."""
    env = {k: v for k, v in os.environ.items() if k != "TILTC_CACHE"}
    env.update(PYTHONPATH=str(root / "src"), PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run(
        [sys.executable, "-c", SIDE, str(BENCH), workload, str(seed), str(replays)],
        env=env, capture_output=True, text=True,
    )
    if proc.returncode:
        sys.exit(f"paired.py: {root}: the run raised:\n{proc.stderr}")
    out = json.loads(proc.stdout.splitlines()[-1])
    if not Path(out["tiltc"]).resolve().is_relative_to((root / "src").resolve()):
        sys.exit(f"paired.py: {root}: imported tiltc from {out['tiltc']}")
    if out["failures"]:
        sys.exit(f"paired.py: {root}: failed operations: {out['failures']}")
    return {METRIC[kind]: s for kind, s in out["sums"].items()}


def summary(pairs: list[tuple[float, float]]) -> dict:
    parent, change = [p for p, _ in pairs], [c for _, c in pairs]
    pm, cm = statistics.median(parent), statistics.median(change)
    q1, _, q3 = statistics.quantiles(parent, n=4, method="inclusive") if len(parent) > 1 else (pm, pm, pm)
    return {
        "parent_median": round(pm, 6),
        "change_median": round(cm, 6),
        "ratio": round(cm / pm, 4),
        "change_won": sum(c < p for p, c in pairs),
        "parent_quartile_distance": round(q3 - q1, 6),
        "pairs": [[round(p, 6), round(c, 6)] for p, c in pairs],
    }


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent", type=Path, help="checkout root of the parent")
    ap.add_argument("change", type=Path, help="checkout root of the change")
    ap.add_argument("workload", choices=sorted(workloads.SPECS))
    ap.add_argument("--pairs", type=int, default=10, help="alternating pairs (default 10)")
    ap.add_argument("--replays", type=int, default=8, help="replays of the run set per side (default 8)")
    args = ap.parse_args()
    for root in (args.parent, args.change):
        if not (root / "src" / "tiltc" / "__init__.py").is_file():
            ap.error(f"{root} is not a checkout: no src/tiltc")
    if args.pairs < 1 or args.replays < 1:
        ap.error("--pairs and --replays take a positive count")

    runs: dict[str, list[tuple[float, float]]] = {}
    for k in range(args.pairs):
        order = ["parent", "change"] if k % 2 == 0 else ["change", "parent"]
        got = {name: side(getattr(args, name), args.workload, k + 1, args.replays) for name in order}
        for metric, p in got["parent"].items():
            runs.setdefault(metric, []).append((p, got["change"][metric]))
    print(json.dumps({
        "workload": args.workload,
        "pairs": args.pairs,
        "replays": args.replays,
        "metrics": {metric: summary(pairs) for metric, pairs in sorted(runs.items())},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
