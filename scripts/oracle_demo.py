#!/usr/bin/env python3
"""Walk through the homological oracle on a bundled block, step by step.

Loads the block, prints the quiver algebra and module dimensions, shows the
tilting coresolutions of the projectives (the minimal tilting complex of a
projective is its coresolution), computes the minimal tilting complex of
every standard and simple object (printing each differential component, a
module map between tilting modules, in the coordinates of its hom basis),
and finishes with the nine invariant suites.

Example:
    python3 scripts/oracle_demo.py --block sl2
"""

import argparse

from tiltc.mincpx import TiltingCategory, cmin_module, load_block, verify_block


def show_complex(tcat, cpx) -> None:
    print(f"    {cpx.summary() or '(zero complex)'}")
    for n in cpx.degrees():
        if cpx.term(n + 1):
            print(f"    d^{n}: {cpx.term(n)} -> {cpx.term(n + 1)}")
            for i, t in enumerate(cpx.term(n + 1)):
                cells = ", ".join(
                    str(tuple(map(str, tcat.coordinatize(s, t, cpx.component(n, i, j)))))
                    for j, s in enumerate(cpx.term(n))
                )
                print(f"      row {i}: {cells}")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--block", default="sl2")
    args = ap.parse_args()

    try:
        block = load_block(args.block)
    except ValueError as exc:  # not a bundled block
        ap.error(str(exc))
    print(f"block {block.name}: ambient type {block.system}")
    print(f"  labels: {', '.join(block.labels)}")
    print(f"  algebra dimension: {block.algebra.dimension}")
    for role in ("simple", "std", "costd", "tilt", "proj", "inj"):
        dims = {
            lab: block.module(role, lab).total_dim for lab in block.labels
        }
        print(f"  {role:<7} total dims: {dims}")

    tcat = TiltingCategory(block)
    print("\nhom dimensions between tilting modules:")
    for a, b in sorted(tcat.basis):
        print(f"  Hom(tilt_{a}, tilt_{b}) = {len(tcat.basis[(a, b)])}")

    print("\ntilting coresolutions of the projectives:")
    for lab in block.labels:
        R, _ = cmin_module(tcat, block.module("proj", lab))
        print(f"  proj_{lab}: {R.summary()}")

    print("\nminimal tilting complexes:")
    for role in ("std", "simple"):
        for lab in block.labels:
            cpx, _ = cmin_module(tcat, block.module(role, lab))
            print(f"  {role}_{lab}:")
            show_complex(tcat, cpx)

    print("\ninvariant suites:")
    for name, detail in verify_block(block):
        print(f"  ok {name}: {detail}")
    print("all suites pass")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
