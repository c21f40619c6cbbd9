"""The four benchmark workloads: operation pools, seeded draws, timed passes.

Every workload runs in one process, with no threads, as a closed loop with
one client: the next operation starts when the previous one returns.  The
operation pools and their expected outputs live in ``refs.json`` (written by
``make_refs.py``).

A *pass* is a set of operations run on fresh contexts (on ``store-warm``, a
*round*: a cold pass and warm passes on one fresh store).  A run's *run set*
is a fixed number of passes with the same number of operations from every
stratum, whatever the seed; the seed sets the order of the passes in each
replay.  A run replays the whole run set a number of times fixed by
``--seconds`` and the seconds one replay took at the defining commit, not by
the clock, so two commits always do the same work.  Each operation's latency, and each pass's wall time, is
the median over its replays, which keeps stretches in which the host runs
slowly from setting the figures.  A calibration loop timed before every
pass gives the host's speed over the run, by which ``run.py`` scales the
times.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
import shutil
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SCRATCH = ROOT / ".bench_build"
REFS = HERE / "refs.json"

_clock = time.perf_counter

# A fixed pure-Python loop timed before every pass (round): its speed is the
# host's speed at that moment, against which run.py scales the times.
CALIBRATION_CHUNKS = 10
CALIBRATION_LOOP = 25_000


@dataclass(frozen=True)
class Spec:
    per_stratum: int  # operations from every stratum in one pass
    passes: int  # distinct passes in the run set (store-warm: rounds)
    sweep_s: float  # seconds one replay of the run set takes at the defining commit
    warm_passes: int = 0  # store-warm only: warm replays per round
    # run-set operations of a stratum, where not passes * per_stratum
    counts: dict[str, int] = field(default_factory=dict)


SPECS = {
    # A D5 h column takes about 3.3 s and a D5 n[1] column 1.2 s, against
    # 0.1-0.7 s for A5 and B4, so D5 takes one operation of each kind and A5
    # and B4 three or four; otherwise three replays would not fit in a run.
    "kl-columns": Spec(per_stratum=1, passes=3, sweep_s=8.4, counts={
        "A5/h": 3, "A5/n[1]": 4, "B4/h": 4, "B4/n[1]": 4, "D5/h": 1, "D5/n[1]": 1,
    }),
    "tilt-sweep": Spec(per_stratum=1, passes=4, sweep_s=9.2),
    "oracle-sl2": Spec(per_stratum=10, passes=10, sweep_s=9.0),
    "store-warm": Spec(per_stratum=2, passes=3, sweep_s=8.3, warm_passes=4),
}


class OpFailed(Exception):
    pass


def load_refs() -> dict:
    return json.loads(REFS.read_text())


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def run_set(refs: dict, workload: str) -> list[list[dict]]:
    """The run set: ``passes`` passes of ``per_stratum`` ops from every stratum.

    From every stratum it takes ``passes * per_stratum`` elements, or the
    number in ``counts``, spread evenly over the pool (each element about
    equally often when the pool is smaller), and deals them round the passes
    in pool order.  Within a pass the operations keep stratum order.  The run
    set does not depend on the seed: pool elements of one stratum differ in
    cost by up to a factor of two, and which operations share a context
    changes what they cost by up to a fifth, so seeded draws spread
    ``op_tail_ms`` over ten seeds by more than its bound.
    """
    spec = SPECS[workload]
    strata = refs["workloads"][workload]["strata"]
    decks = {}
    for name in sorted(strata):
        pool = strata[name]
        need = spec.counts.get(name, spec.passes * spec.per_stratum)
        decks[name] = [pool[i * len(pool) // need] for i in range(need)]
    return [
        [op for name in sorted(strata) for op in decks[name][p::spec.passes]]
        for p in range(spec.passes)
    ]


def sweep_orders(workload: str, seed: int, replays: int) -> list[list[int]]:
    """The seed's part: the order in which every replay runs the passes."""
    rng = random.Random(f"{workload}/{seed}")
    passes = SPECS[workload].passes
    return [rng.sample(range(passes), passes) for _ in range(replays)]


def replay_count(workload: str, seconds: float) -> int:
    """Replays of the run set that fill ``seconds`` at the defining commit."""
    return max(1, round(seconds / SPECS[workload].sweep_s))


# -- executing one operation -------------------------------------------------------


def run_cli(argv: list[str]) -> str:
    import tiltc.cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = tiltc.cli.main(argv)  # looked up per call, so a tracer can wrap it
    if code != 0:
        raise OpFailed(f"exit code {code}: {err.getvalue().strip()}")
    return out.getvalue()


def table_json(table) -> str:
    return json.dumps(table.to_json_obj(), sort_keys=True)


class Contexts:
    """One shared HeckeContext per system for the length of a pass."""

    def __init__(self):
        self._settings: dict[tuple, object] = {}

    def setting(self, name: str, tag: str):
        from tiltc.coxeter import CoxeterSystem
        from tiltc.hecke import HeckeContext
        from tiltc.tilting import CategoryO, KacMoody

        key = (name, tag)
        if key not in self._settings:
            hecke = HeckeContext(CoxeterSystem.from_type(tag))
            if name == "O":
                self._settings[key] = CategoryO(hecke, I=(), J=())
            else:
                self._settings[key] = KacMoody(hecke, I=(), J=(), level="neg")
        return self._settings[key]


def execute(op: dict, ctx: Contexts, cache_dir: Path | None = None) -> str:
    """Run one operation and return its canonical output text."""
    kind = op["kind"]
    if kind == "cli":
        argv = list(op["argv"])
        if cache_dir is not None:
            argv += ["--cache-path", str(cache_dir)]
        return run_cli(argv)
    if kind == "table":
        from tiltc.coxeter import parse_word

        setting = ctx.setting(op["setting"], op["system"])
        method = setting.standard_table if op["table"] == "standard" else setting.simple_table
        return table_json(method(parse_word(op["x"])))
    if kind == "quantum":
        from tiltc.tilting import Quantum

        setting, x = Quantum.from_weight(op["type"], op["ell"], tuple(op["weight"]))
        method = setting.standard_table if op["table"] == "standard" else setting.simple_table
        return table_json(method(x.word))
    if kind == "oracle":
        from tiltc.mincpx import load_block, verify_block

        results = verify_block(load_block(op["block"]))
        return "".join(f"ok {name}: {detail}\n" for name, detail in results)
    raise ValueError(f"unknown operation kind {kind!r}")


# -- passes ---------------------------------------------------------------------------


@dataclass
class PassResult:
    kind: str  # "pass", "cold" or "warm"
    key: tuple[int, int]  # (pass or round of the run set, pass within the round)
    wall_s: float
    op_s: list[float] = field(default_factory=list)


@dataclass
class RunLog:
    passes: list[PassResult] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    failures: list[str] = field(default_factory=list)
    calibration_s: list[float] = field(default_factory=list)

    def fail(self, op: dict, why: str) -> None:
        self.failed += 1
        if len(self.failures) < 5:
            self.failures.append(f"{op['id']}: {why}")


def run_pass(ops: list[dict], kind: str, key: tuple[int, int], log: RunLog,
             cache_dir: Path | None = None, tracer=None) -> None:
    """Time one pass; outputs are checked after the pass clock stops."""
    outputs: list[str | None] = []
    errors: list[str | None] = []
    op_s = []
    start = _clock()
    ctx = Contexts()
    for i, op in enumerate(ops):
        if tracer is not None:
            tracer.request = i
        t0 = _clock()
        try:
            outputs.append(execute(op, ctx, cache_dir))
            errors.append(None)
        except Exception as exc:  # a failed operation is counted, and the loop goes on
            outputs.append(None)
            errors.append(f"{type(exc).__name__}: {exc}")
        op_s.append(_clock() - t0)
    wall = _clock() - start
    for op, out, err in zip(ops, outputs, errors):
        log.attempted += 1
        if err is not None:
            log.fail(op, err)
        elif digest(out) != op["sha256"]:
            log.fail(op, "output differs from the reference")
    log.passes.append(PassResult(kind, key, wall, op_s))


def calibrate(log: RunLog) -> None:
    for _ in range(CALIBRATION_CHUNKS):
        t0 = _clock()
        acc = 0
        for i in range(CALIBRATION_LOOP):
            acc += i * i % 7
        log.calibration_s.append(_clock() - t0)


def run_unit(workload: str, u: int, ops: list[dict], log: RunLog, tracer=None) -> None:
    """One pass; on store-warm one round: a cold pass, then the warm passes."""
    if workload != "store-warm":
        run_pass(ops, "pass", (u, 0), log, tracer=tracer)
        return
    SCRATCH.mkdir(parents=True, exist_ok=True)
    cache_dir = Path(tempfile.mkdtemp(prefix="store-", dir=SCRATCH))
    try:
        run_pass(ops, "cold", (u, 0), log, cache_dir, tracer)
        for w in range(SPECS[workload].warm_passes):
            run_pass(ops, "warm", (u, w + 1), log, cache_dir, tracer)
    finally:
        shutil.rmtree(cache_dir, ignore_errors=True)


def run_workload(workload: str, seed: int, seconds: float, replays: int | None = None,
                 tracer=None) -> RunLog:
    """Replay the run set, whole, as often as ``seconds`` asks.

    Replays go round the run set, so the replays of one pass fall in
    different stretches of the run.  Every replay starts from fresh contexts
    and a fresh store.  ``replays`` overrides the replay count.
    """
    passes = run_set(load_refs(), workload)
    if replays is None:
        replays = replay_count(workload, seconds)
    log = RunLog()
    for order in sweep_orders(workload, seed, replays):
        for u in order:
            calibrate(log)
            run_unit(workload, u, passes[u], log, tracer)
    return log
