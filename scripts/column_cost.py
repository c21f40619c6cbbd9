#!/usr/bin/env python3
"""Print what one direct column costs on a fresh context, as one JSON line.

The query takes the options of ``tiltc kl`` for one column.  The line gives
the column's size (entries), the columns the context memoized for it, the
elements the system built, the seconds from building y to the column, and
``print_s``: the seconds to sort and format the column's text through the
routines ``tiltc kl`` calls (``kl_entries``, ``kl_output``).  It sizes a
query on a larger group without a profiler.

Examples:
    python3 scripts/column_cost.py --type D5 --y '2 1 3 2 1 4 3 2 1 5 3 2 1 4 3 2 5 3' \\
        --parabolic 1 --flavor antispherical
    python3 scripts/column_cost.py --type A6 --y '1 2 3 4 5 6'
"""

import argparse
import json
import time

from tiltc.cli import kl_entries, kl_output
from tiltc.coxeter import CoxeterSystem, parse_word
from tiltc.hecke import HeckeContext, family_id


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--type", required=True, help="type tag, e.g. D5 or affA2")
    ap.add_argument("--y", required=True, help="upper word; 'e' for the identity")
    ap.add_argument("--parabolic", default="", help="generator subset I, e.g. '1 3'")
    ap.add_argument("--flavor", choices=("spherical", "antispherical"),
                    help="m (spherical) or n (antispherical); h without it")
    args = ap.parse_args()
    if args.parabolic and args.flavor is None:
        ap.error("--parabolic needs --flavor")

    try:
        system = CoxeterSystem.from_type(args.type)
        word = () if args.y.strip().lower() == "e" else parse_word(args.y)
        I = parse_word(args.parabolic)
        system.check_names(word + I)
    except ValueError as exc:
        ap.error(str(exc))
    hecke = HeckeContext(system)
    fam = {None: "h", "spherical": "m", "antispherical": "n"}[args.flavor]
    start = time.perf_counter()
    y = system.element(word)
    column = hecke.entries(fam, I, y)
    seconds = time.perf_counter() - start
    start = time.perf_counter()
    kl_output(system, [(z, y.id, p) for z, p in kl_entries(system, column)])
    print_s = time.perf_counter() - start
    print(json.dumps({
        "system": system.tag,
        "family": family_id(fam, I),
        "y": args.y,
        "size": len(column),
        "columns": len(hecke._columns),
        "elements": len(system._len),
        "seconds": round(seconds, 4),
        "print_s": round(print_s, 4),
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
