"""Self-test of the per-layer counters.

    python3 perfbench/selftest.py [--seed N]

Runs the traced run of every workload and checks that

* each per-layer metric is non-zero on every workload it is mapped to below,
  so a wrapper that misses its callers shows up as a failure;
* the oracle and store layers stay at zero on ``kl-columns``;
* each layer named in the benchmark's acceptance criteria takes its largest
  share of traced wall time on its intended workload.

Exit code 0 when every check holds, 1 otherwise.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import run  # noqa: E402
import workloads  # noqa: E402

KL, TILT, ORACLE, STORE = "kl-columns", "tilt-sweep", "oracle-sl2", "store-warm"
MINCPX = (
    "mincpx.linalg_s", "mincpx.linalg_calls", "mincpx.hom_basis_s",
    "mincpx.ext_dims_s", "mincpx.cmin_module_s", "mincpx.minimize_s",
)
STORE_METRICS = (
    "store.load_s", "store.bytes_read", "store.loads",
    "store.save_s", "store.bytes_written", "store.saves",
)

# per-layer metric -> the end-to-end metrics it should move, and the
# workloads on which it must be non-zero
LAYER_MAP = {
    "coxeter.step_s": ("kl-columns.wall_s, tilt-sweep.wall_s", (KL, TILT)),
    "coxeter.step_calls": ("kl-columns.wall_s, tilt-sweep.wall_s", (KL, TILT)),
    "coxeter.bruhat_s": ("tilt-sweep.wall_s", (TILT,)),
    "coxeter.bruhat_calls": ("tilt-sweep.wall_s", (TILT,)),
    "coxeter.bruhat_distinct": ("tilt-sweep.wall_s", (TILT,)),
    "coxeter.bruhat_distinct_ratio": ("tilt-sweep.wall_s", (TILT,)),
    "laurent.arith_s": ("tilt-sweep.wall_s, kl-columns.wall_s", (TILT, KL)),
    "laurent.mul_calls": ("tilt-sweep.wall_s, kl-columns.wall_s", (TILT, KL)),
    "laurent.add_calls": ("tilt-sweep.wall_s, kl-columns.wall_s", (TILT, KL)),
    "hecke.kl_column_s": ("kl-columns.wall_s", (KL,)),
    "hecke.parabolic_column_s": ("kl-columns.wall_s", (KL,)),
    "hecke.inverse_column_s": ("tilt-sweep.wall_s, store-warm.cold_s", (TILT, STORE)),
    "hecke.column_calls": ("tilt-sweep.wall_s", (TILT,)),
    "hecke.column_distinct": ("tilt-sweep.wall_s", (TILT,)),
    "hecke.column_distinct_ratio": ("tilt-sweep.wall_s", (TILT,)),
    "tilting.table_s": ("tilt-sweep.wall_s", (TILT,)),
    "tilting.tables": ("tilt-sweep.wall_s", (TILT,)),
    "rootdata.normalize_s": ("tilt-sweep.wall_s", (TILT,)),
    "store.load_s": ("store-warm.wall_s", (STORE,)),
    "store.bytes_read": ("store-warm.wall_s", (STORE,)),
    "store.loads": ("store-warm.wall_s", (STORE,)),
    "store.save_s": ("store-warm.cold_s", (STORE,)),
    "store.bytes_written": ("store-warm.cold_s", (STORE,)),
    "store.saves": ("store-warm.cold_s", (STORE,)),
    "cli.self_s": ("kl-columns.wall_s, store-warm.wall_s", (KL, STORE)),
    **{m: ("oracle-sl2.wall_s", (ORACLE,)) for m in MINCPX},
    "trace.overhead_s": ("none (cost of tracing)", (KL, TILT, ORACLE, STORE)),
}

# layer self time -> the workload where its share of traced wall is largest
LARGEST_SHARE = {
    "coxeter.step_s": KL,
    "hecke.inverse_column_s": TILT,
    "laurent.arith_s": TILT,
    **{m: ORACLE for m in MINCPX if m.endswith("_s")},
    "store.load_s": STORE,
}


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description="per-layer counter self-test")
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args(argv)

    values: dict[str, dict[str, float]] = {}
    shares: dict[str, dict[str, float]] = {}
    problems = []
    for wl in workloads.SPECS:
        metrics, detail, log = run.traced_run(wl, args.seed, 1.0)
        if log.failed:
            problems.append(f"{wl}: {log.failed} operations failed: {log.failures}")
        values[wl] = {k: v for k, (v, _) in metrics.items()}
        shares[wl] = {k: v / detail["traced_wall_s"] for k, v in values[wl].items()}

    missing = set(LAYER_MAP) ^ set(values[KL])
    if missing:
        problems.append(f"layer map and reported metrics differ: {sorted(missing)}")
    for metric, (_, nonzero_on) in LAYER_MAP.items():
        for wl in nonzero_on:
            if not values[wl].get(metric):
                problems.append(f"{metric} is zero on {wl}")
    for metric in MINCPX + STORE_METRICS:
        if values[KL][metric]:
            problems.append(f"{metric} is {values[KL][metric]} on {KL}, expected 0")
    for metric, wl in LARGEST_SHARE.items():
        best = max(shares, key=lambda w: shares[w][metric])
        print(
            f"{metric}: share of traced wall "
            + ", ".join(f"{w} {shares[w][metric]:.1%}" for w in shares)
        )
        if best != wl:
            problems.append(f"{metric} takes its largest share on {best}, not {wl}")

    for p in problems:
        print(f"FAIL {p}")
    print("selftest", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    raise SystemExit(main())
