"""tiltc benchmark: one workload, timed or traced, with checked outputs.

    python3 perfbench/run.py --workload kl-columns --seed 1 --seconds 27 --trace 0

Run from anywhere inside a checkout of the repository; the program is
imported from the checkout's ``src/``.  The last line of standard output is
one JSON object ``{"correct", "attempted", "failed", "metrics"}``.

``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json`` with no
tracing installed.  ``--trace 1`` runs the run set once traced between two
untraced replays of it, and reports the per-layer metrics (see
``layers.py``).  Temporary files and the span log go to ``.bench_build/`` in
the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

SETUP_SAMPLES = 11
# Seconds one calibration chunk takes at the reference speed.  Reported
# times are measured times scaled to that speed (see README.md, Noise).
REFERENCE_CHUNK_S = 2.2e-3
SETUP_CODE = (
    "import time; t = time.perf_counter(); import tiltc.cli; "
    "d = time.perf_counter() - t; print(d, tiltc.cli.__file__)"
)


def measure_setup() -> float:
    """Median time of ``import tiltc.cli`` in fresh interpreters.

    One unmeasured import first writes the bytecode cache, which a user's
    installed copy also has.
    """
    old = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=str(SRC) + (os.pathsep + old if old else ""))
    samples = []
    for i in range(SETUP_SAMPLES + 1):
        proc = subprocess.run(
            [sys.executable, "-c", SETUP_CODE],
            env=env, capture_output=True, text=True, timeout=120, check=True,
        )
        seconds, path = proc.stdout.split()
        if not Path(path).resolve().is_relative_to(SRC.resolve()):
            raise RuntimeError(f"imported tiltc from {path}, not from {SRC}")
        if i:
            samples.append(float(seconds))
    return statistics.median(samples)


def tail(latencies: list[float]) -> tuple[float, float]:
    """Highest percentile with at least ten operations beyond it, and its value."""
    lat = sorted(latencies)
    n = len(lat)
    if n < 11:
        raise RuntimeError(f"{n} timed operations are too few for a tail percentile")
    return 100.0 * (n - 10) / n, lat[n - 11]


def medians(log, kinds: tuple[str, ...]) -> tuple[float, list[float]]:
    """Wall time and per-operation latencies of the passes of ``kinds``.

    Each pass's wall time and each operation's latency is the median over
    its replays; the wall time is the sum over the passes of the run set.
    """
    walls: dict[tuple, list[float]] = {}
    ops: dict[tuple, list[float]] = {}
    for p in log.passes:
        if p.kind in kinds:
            walls.setdefault(p.key, []).append(p.wall_s)
            for i, t in enumerate(p.op_s):
                ops.setdefault((p.key, i), []).append(t)
    return (
        sum(statistics.median(v) for v in walls.values()),
        [statistics.median(v) for v in ops.values()],
    )


def timed_run(workload: str, seed: int, seconds: float) -> tuple[dict, dict, object]:
    import workloads

    setup_s = measure_setup()
    log = workloads.run_workload(workload, seed, seconds)
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    scale = REFERENCE_CHUNK_S / statistics.median(log.calibration_s)
    wall_s, lat = medians(log, ("pass", "warm"))
    cold_s, _ = medians(log, ("pass", "cold"))
    pct, tail_s = tail(lat)
    measured = {
        "wall_s": (wall_s, "s"),
        "cold_s": (cold_s, "s"),
        "setup_s": (setup_s, "s"),
        "op_p50_ms": (statistics.median(lat) * 1000.0, "ms"),
        "op_tail_ms": (tail_s * 1000.0, "ms"),
    }
    metrics = {name: (v * scale, unit) for name, (v, unit) in measured.items()}
    metrics["peak_rss_mb"] = (peak_kb / 1024.0, "MB")
    detail = {
        "replays": workloads.replay_count(workload, seconds),
        "passes_timed": sum(p.kind in ("pass", "warm") for p in log.passes),
        "passes_cold": sum(p.kind in ("pass", "cold") for p in log.passes),
        "op_samples": len(lat),
        "op_tail_percentile": pct,
        "host_scale": scale,
        "measured": {name: v for name, (v, _) in measured.items()},
    }
    return metrics, detail, log


def traced_run(workload: str, seed: int, seconds: float) -> tuple[dict, dict, object]:
    """One replay of the run set untraced, one traced, then one untraced again.

    The tracing overhead is the traced wall time minus the mean of the two
    untraced ones, so the warm-up the first pass of a process pays does not
    count against it.
    """
    import layers
    import workloads

    before = workloads.run_workload(workload, seed, seconds, replays=1)
    tracer = layers.Tracer()
    layers.install(tracer)
    try:
        traced = workloads.run_workload(workload, seed, seconds, replays=1, tracer=tracer)
    finally:
        tracer.close()
    after = workloads.run_workload(workload, seed, seconds, replays=1)
    span_log = workloads.SCRATCH / "trace" / f"{workload}-seed{seed}.json"
    tracer.dump(span_log)

    def wall(log) -> float:
        return sum(p.wall_s for p in log.passes)

    traced_wall = wall(traced)
    metrics = layers.layer_metrics(tracer)
    metrics["trace.overhead_s"] = (traced_wall - (wall(before) + wall(after)) / 2, "s")
    log = workloads.RunLog()
    for part in (before, traced, after):
        log.passes += part.passes
        log.attempted += part.attempted
        log.failed += part.failed
        log.failures += part.failures
    detail = {
        "span_log": str(span_log),
        "spans_dropped": tracer.spans_dropped,
        "traced_wall_s": traced_wall,
    }
    return metrics, detail, log


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description="tiltc benchmark")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "tiltc" / "__init__.py").is_file():
        print(f"error: no tiltc sources at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    os.environ.pop("TILTC_CACHE", None)
    import workloads

    if args.workload not in workloads.SPECS:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    run = traced_run if args.trace else timed_run
    metrics, detail, log = run(args.workload, args.seed, args.seconds)
    detail.update(
        workload=args.workload,
        seed=args.seed,
        fail_ratio=log.failed / log.attempted,
        failures=log.failures,
    )
    print(json.dumps(detail, sort_keys=True))
    print(
        json.dumps(
            {
                "correct": log.failed == 0,
                "attempted": log.attempted,
                "failed": log.failed,
                "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
