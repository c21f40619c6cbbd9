#!/usr/bin/env python3
"""Sweep multiplicity tables over a parabolic grid and report dimensions.

For each subset pair (I, J) with |I|, |J| bounded and every index word in a
length ball, build the standard and simple tables and print the filtration
dimensions (nabla, delta).  Useful both as a demonstration and as a quick
positivity/parity stress run, since every table re-checks its invariants.

Examples:
    python3 scripts/tilt_grid.py --type A3
    python3 scripts/tilt_grid.py --type affA2 --level neg --max-length 5
"""

import argparse
from itertools import combinations

from tiltc.coxeter import CoxeterSystem, format_word
from tiltc.errors import ValidationError
from tiltc.hecke import HeckeContext
from tiltc.tilting import CategoryO, KacMoody


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--type", required=True)
    ap.add_argument("--level", choices=["neg", "pos"], default="neg",
                    help="Kac-Moody level when the type is affine")
    ap.add_argument("--max-length", type=int, default=6)
    ap.add_argument("--max-subset", type=int, default=1,
                    help="largest |I| and |J| to sweep")
    args = ap.parse_args()

    system = CoxeterSystem.from_type(args.type)
    hecke = HeckeContext(system)
    try:
        elements, _ = system.quotient_reps((), max_len=args.max_length)
    except ValueError as exc:  # a negative bound
        ap.error(f"--max-length: {exc}")
    subsets = [
        c
        for k in range(args.max_subset + 1)
        for c in combinations(system.names, k)
    ]
    # only positive-level rows run upward and take a length bound
    bound = {}
    if not system.is_finite and args.level == "pos":
        bound = {"max_len": args.max_length}
    built = skipped = 0
    for I in subsets:
        for J in subsets:
            try:
                setting = (
                    CategoryO(hecke, I, J)
                    if system.is_finite
                    else KacMoody(hecke, I, J, args.level)
                )
            except ValidationError:
                continue
            header_shown = False
            for x in elements:
                row = []
                for kind, maker in (
                    ("std", setting.standard_table),
                    ("sim", setting.simple_table),
                ):
                    try:
                        table = maker(x.word, **bound)
                    except ValidationError:
                        continue
                    nabla, delta = table.dims()
                    row.append(f"{kind} nabla={nabla} delta={delta}")
                    built += 1
                if not row:
                    skipped += 1
                    continue
                if not header_shown:
                    print(
                        f"== {setting.setting_name} {system.tag} "
                        f"I=({format_word(I)}) J=({format_word(J)})"
                    )
                    header_shown = True
                print(f"  x = {format_word(x.word) or 'e':<16} " + "   ".join(row))
    print(f"# built {built} tables ({skipped} indices outside the grid)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
