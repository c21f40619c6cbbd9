"""Run the benchmark over many seeds and summarise each metric.

    python3 perfbench/baseline.py --seeds 1-10 [--workloads kl-columns,...]
                                  [--seconds 25] [--out perfbench/baseline.json]

Each run is a fresh ``run.py`` process.
For every workload and end-to-end metric the summary gives the median, the
quartiles and the spread (quartile distance over the median); one traced run
per workload (the first seed) gives the per-layer metrics.  The summary is
printed and, with ``--out``, written as JSON together with the Python
version and the commit of the program measured.
"""

from __future__ import annotations

import argparse
import json
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
RUN = HERE / "run.py"
WORKLOADS = ("kl-columns", "tilt-sweep", "oracle-sl2", "store-warm")


def seed_list(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, timeout=900,
    )
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise SystemExit(f"{workload} seed {seed}: outputs incorrect\n{proc.stdout}")
    return result


def summarise(values: list[float]) -> dict:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {
        "median": med, "q1": q1, "q3": q3,
        "spread": (q3 - q1) / med if med else 0.0,
        "values": values,
    }


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--workloads", default=",".join(WORKLOADS))
    ap.add_argument("--seconds", type=int, default=json.loads(
        (HERE.parent / "BENCHMARK.json").read_text())["run_seconds"])
    ap.add_argument("--out", default=None)
    args = ap.parse_args(argv)
    seeds = seed_list(args.seeds)

    summary = {}
    for wl in args.workloads.split(","):
        values: dict[str, list[float]] = {}
        for seed in seeds:
            for name, m in run_once(wl, seed, args.seconds, 0)["metrics"].items():
                values.setdefault(name, []).append(m["value"])
        e2e = {name: summarise(v) for name, v in values.items()}
        for name, s in e2e.items():
            print(f"{wl:11} {name:12} median {s['median']:10.4f}  spread {s['spread']:.3f}", flush=True)
        traced = run_once(wl, seeds[0], args.seconds, 1)["metrics"]
        summary[wl] = {
            "end_to_end": e2e,
            "per_layer": {name: m["value"] for name, m in traced.items()},
        }

    if args.out:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=HERE, capture_output=True, text=True
        ).stdout.strip()
        doc = {
            "python": platform.python_version(),
            "machine": f"{platform.machine()}, {platform.system()}",
            "program_commit": commit or None,
            "run_seconds": args.seconds,
            "seeds": seeds,
            "workloads": summary,
        }
        Path(args.out).write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
