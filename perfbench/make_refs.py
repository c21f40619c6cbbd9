"""Build the operation pools and their reference outputs (``refs.json``).

Run once at the commit that defines the benchmark:

    python3 perfbench/make_refs.py

Every pool operation is executed and the sha256 of its canonical output is
stored.  Where a second route exists the output is confirmed by it before it
is written:

* ``h_{x,w0} = v^(l(w0) - l(x))`` for every ``kl`` column of ``w0``;
* the longest-element twist ``h^{x,y} = h_{w0 x, w0 y}`` for every inverse
  ``kl`` column, against direct columns computed separately;
* suite 9 of the oracle, restated: the minimal complexes of the ``sl2`` block
  are rebuilt and their label counts compared with the category O tables.

Outputs of ``store-warm`` queries are taken without a cache, so the benchmark
also checks that answers served from the store equal freshly computed ones.
"""

from __future__ import annotations

import json
import os
import platform
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from tiltc.coxeter import CoxeterSystem, format_word, parse_word  # noqa: E402
from tiltc.errors import ValidationError  # noqa: E402
from tiltc.hecke import HeckeContext  # noqa: E402
from tiltc.laurent import LaurentPoly  # noqa: E402
from tiltc.tilting import CategoryO, Quantum  # noqa: E402

import workloads  # noqa: E402


def word(el) -> str:
    return format_word(el.word) or "e"


def ball(system: CoxeterSystem, max_len: int) -> list:
    seen = {system.identity}
    frontier = [system.identity]
    for _ in range(max_len):
        nxt = []
        for w in frontier:
            for s in system.names:
                z = w.times_gen(s, "right")
                if z.length > w.length and z not in seen:
                    seen.add(z)
                    nxt.append(z)
        frontier = nxt
    return sorted(seen, key=lambda e: e.sort_key())


# -- pools ------------------------------------------------------------------------------


def kl_columns_pool() -> dict[str, list[dict]]:
    strata = {}
    for tag in ("A5", "B4", "D5"):
        system = CoxeterSystem.from_type(tag)
        w0 = system.longest_element()
        tops = [w0] + [w0.times_gen(s, "right") for s in system.names]
        strata[f"{tag}/h"] = [
            {"id": f"kl {tag} h y={word(y)}", "kind": "cli",
             "argv": ["kl", "--type", tag, "--y", word(y), "--no-cache"]}
            for y in tops
        ]
        reps = [
            z for z in system.enumerate_below(w0)
            if z.length >= w0.length - 2 and not z.has_left_descent(1)
        ]
        strata[f"{tag}/n[1]"] = [
            {"id": f"kl {tag} n[1] y={word(y)}", "kind": "cli",
             "argv": ["kl", "--type", tag, "--y", word(y), "--parabolic", "1",
                      "--flavor", "antispherical", "--no-cache"]}
            for y in reps
        ]
    return strata


def tilt_sweep_pool() -> dict[str, list[dict]]:
    strata = {}
    settings = (("O", "A4", (5, 6, 7)), ("KM-", "affA2", (7, 8, 9)))
    for name, tag, lengths in settings:
        elements = ball(CoxeterSystem.from_type(tag), max(lengths))
        for table in ("standard", "simple"):
            for n in lengths:
                strata[f"{name}-{tag}/{table}/len{n}"] = [
                    {"id": f"{name} {tag} {table} x={word(x)}", "kind": "table",
                     "setting": name, "system": tag, "table": table, "x": format_word(x.word)}
                    for x in elements if x.length == n
                ]
    by_len: dict[int, list] = {}
    for a in range(16):
        for b in range(16):
            try:
                _, x = Quantum.from_weight("A2", 5, (a, b))
            except ValidationError:
                continue
            by_len.setdefault(x.length, []).append([a, b])
    for table in ("standard", "simple"):
        for n in (6, 7, 8):
            strata[f"quantum-A2-5/{table}/len{n}"] = [
                {"id": f"quantum A2 l=5 {table} weight={a},{b}", "kind": "quantum",
                 "type": "A2", "ell": 5, "weight": [a, b], "table": table}
                for a, b in by_len[n]
            ]
    return strata


def oracle_pool() -> dict[str, list[dict]]:
    return {"sl2": [{"id": "oracle sl2", "kind": "oracle", "block": "sl2"}]}


def store_warm_pool() -> dict[str, list[dict]]:
    system = CoxeterSystem.from_type("A4")
    xs = [z for z in system.enumerate_below(system.longest_element()) if z.length == 6]
    kinds = {
        "tilt-standard": lambda w: ["tilt", "O", "--type", "A4", "--x", w],
        "tilt-simple": lambda w: ["tilt", "O", "--type", "A4", "--x", w, "--simple"],
        "kl-direct": lambda w: ["kl", "--type", "A4", "--y", w],
        "kl-inverse": lambda w: ["kl", "--type", "A4", "--x", w, "--inverse"],
    }
    return {
        name: [
            {"id": f"{name} A4 {word(x)}", "kind": "cli",
             "argv": make(format_word(x.word)) + ["--format", "json"]}
            for x in xs
        ]
        for name, make in kinds.items()
    }


# -- second routes ------------------------------------------------------------------


def confirm_w0_column(op: dict, text: str) -> None:
    """h_{x,w0} = v^(l(w0) - l(x)) for every x, and every x appears."""
    system = CoxeterSystem.from_type(op["argv"][2])
    w0 = system.longest_element()
    lines = text.splitlines()
    if len(lines) != len(system.enumerate_below(w0)):
        raise SystemExit(f"{op['id']}: {len(lines)} entries, expected the whole group")
    for line in lines:
        x_text, _, poly = line.split("\t")
        x_len = 0 if x_text == "e" else len(parse_word(x_text))
        if LaurentPoly.from_text(poly) != LaurentPoly.v(w0.length - x_len):
            raise SystemExit(f"{op['id']}: h at x={x_text} is {poly}")


def confirm_twist(op: dict, text: str, hecke: HeckeContext) -> None:
    """h^{x,y} = h_{w0 x, w0 y}: inverse entries from direct columns."""
    system = hecke.system
    w0 = system.longest_element()
    obj = json.loads(text)
    x = system.element(parse_word(op["argv"][4]))
    got = {
        r["y"]: LaurentPoly.from_json_obj(r["poly"])
        for r in obj["records"]
    }
    for y in system.enumerate_below(x):
        want = hecke.kl_column(w0 * y).get(w0 * x)
        have = got.pop(format_word(y.word), None)
        if (want or None) != have:
            raise SystemExit(f"{op['id']}: twist fails at y={word(y)}: {have} vs {want}")
    if got:
        raise SystemExit(f"{op['id']}: entries outside the interval: {sorted(got)}")


def confirm_suite9(text: str) -> None:
    """Rebuild the sl2 complexes and compare label counts with the tables."""
    from tiltc.mincpx import TiltingCategory, cmin_module, load_block

    block = load_block("sl2")
    tcat = TiltingCategory(block)
    setting = CategoryO(HeckeContext(CoxeterSystem.from_type(block.system)), I=(), J=())
    label_of = {parse_word(block.words[lab]): lab for lab in block.labels}
    for role, method in (("std", setting.standard_table), ("simple", setting.simple_table)):
        for lab in block.labels:
            cpx, _ = cmin_module(tcat, block.module(role, lab))
            counts: dict[int, dict[str, int]] = {}
            for y_word, poly in method(parse_word(block.words[lab])).entries:
                for e, c in poly:
                    counts.setdefault(e, {})[label_of[y_word]] = c
            if counts != cpx.label_counts():
                raise SystemExit(f"oracle and tables disagree on {role}_{lab}")
    if not text.rstrip().endswith("formula agreement: label counts match the closed formulas on 4 objects"):
        raise SystemExit("oracle output lacks the formula agreement suite")


def main() -> int:
    os.environ.pop("TILTC_CACHE", None)
    pools = {
        "kl-columns": kl_columns_pool(),
        "tilt-sweep": tilt_sweep_pool(),
        "oracle-sl2": oracle_pool(),
        "store-warm": store_warm_pool(),
    }
    a4 = HeckeContext(CoxeterSystem.from_type("A4"))
    confirmed = {"h_w0_closed_form": 0, "w0_twist": 0, "oracle_suite9": 0}
    for workload, strata in pools.items():
        for name, ops in strata.items():
            for op in ops:
                text = workloads.execute(op, workloads.Contexts())
                op["sha256"] = workloads.digest(text)
                if op["kind"] == "cli" and op["argv"][0] == "kl" and "--inverse" in op["argv"]:
                    confirm_twist(op, text, a4)
                    confirmed["w0_twist"] += 1
                elif workload == "kl-columns" and name.endswith("/h"):
                    system = CoxeterSystem.from_type(op["argv"][2])
                    if op["argv"][4] == word(system.longest_element()):
                        confirm_w0_column(op, text)
                        confirmed["h_w0_closed_form"] += 1
                elif op["kind"] == "oracle":
                    confirm_suite9(text)
                    confirmed["oracle_suite9"] += 1
            print(f"{workload} {name}: {len(ops)} ops", file=sys.stderr)
    commit = subprocess.run(
        ["git", "rev-parse", "HEAD"], cwd=HERE, capture_output=True, text=True
    ).stdout.strip()
    doc = {
        "generated": {"python": platform.python_version(), "commit": commit or None},
        "confirmed_by_second_route": confirmed,
        "workloads": {w: {"strata": s} for w, s in pools.items()},
    }
    workloads.REFS.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    print(f"wrote {workloads.REFS} ({confirmed})", file=sys.stderr)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
