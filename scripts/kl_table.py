#!/usr/bin/env python3
"""Print a triangular table of one polynomial family over a length ball.

Examples:
    python3 scripts/kl_table.py --type A3
    python3 scripts/kl_table.py --type affA1 --max-length 6 --family n --parabolic 1
    python3 scripts/kl_table.py --type B2 --inverse
"""

import argparse

from tiltc.coxeter import CoxeterElement, CoxeterSystem, format_word, parse_word
from tiltc.hecke import HeckeContext


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--type", required=True, help="type tag, e.g. A3 or affA1")
    ap.add_argument("--family", default="h", choices=["h", "m", "n"])
    ap.add_argument("--parabolic", default="", help="subset I for m/n families")
    ap.add_argument("--max-length", type=int, default=None,
                    help="length bound (defaults to the whole finite group)")
    ap.add_argument("--inverse", action="store_true",
                    help="tabulate the inverse family instead")
    args = ap.parse_args()

    try:
        system = CoxeterSystem.from_type(args.type)
        I = parse_word(args.parabolic)
        system.check_names(I)
    except ValueError as exc:
        ap.error(str(exc))
    hecke = HeckeContext(system)
    if I and args.family == "h":
        ap.error("--parabolic applies to the m and n families only")
    if args.max_length is None and not system.is_finite:
        ap.error("--max-length is required for affine types")
    # the m and n modules are indexed by the minimal representatives of W_I\W
    try:
        elements, _ = system.quotient_reps(I, max_len=args.max_length)
    except ValueError as exc:  # a negative bound
        ap.error(f"--max-length: {exc}")

    name = args.family + ("^" if args.inverse else "")
    print(f"# {name} family over {system.tag}, I = {format_word(I) or '()'}")
    for upper in elements:
        col = (
            hecke.inverse_column(args.family, I, upper)
            if args.inverse
            else hecke.column(args.family, I, upper)
        )
        cells = []
        for lower in sorted(col, key=CoxeterElement.sort_key):
            p = col[lower]
            if not p.is_zero():
                cells.append(f"{format_word(lower.word) or 'e'}: {p.to_text()}")
        print(f"{format_word(upper.word) or 'e'}  |  " + ";  ".join(cells))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
