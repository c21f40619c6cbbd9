"""The bar involution on the standard basis, as a reference for self-duality.

bar(H_x) is expanded by right multiplication with bar(H_s) = H_s^-1 =
H_s + (v - v^-1) one letter of x at a time, in the Hecke algebra (h) or in
the spherical (m) or antispherical (n) module, where H_s acts by v^-1 or -v
on a basis vector whose product with s leaves the index set.  A column is
self-dual when bar of its combination expands to itself.  This route shares
nothing with the packed recursion in tiltc.hecke but the element table.
"""

import weakref
from collections import defaultdict

from tiltc.laurent import ONE, ZERO, LaurentPoly, _mac

V, V_INV = LaurentPoly.v(1), LaurentPoly.v(-1)

# the terms (up, down, stay) of H_s + (v - v^-1) on a basis vector: H_xs + up
# H_x when xs > x, H_xs + down H_x when xs < x (down = up + v^-1 - v = 0),
# and stay H_x when xs leaves the index set, where H_s acts by the scalar
_BAR_STEP = {
    fam: ((V - V_INV).terms, (), (V - V_INV + scalar).terms)
    for fam, scalar in [("h", ZERO), ("m", V_INV), ("n", -V)]
}

# per context: (fam, I, id of x) -> bar of the basis vector at x
_CACHE: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def _finish(acc):
    return {x: p for x, d in acc.items() if (p := LaurentPoly(d))}


def bar_par_basis(hecke, fam, I, x):
    """Coordinates of bar(basis vector at x) in the module of (fam, I)."""
    x = hecke._own(x)
    cache = _CACHE.setdefault(hecke, {})
    key = (fam, I, x.id)
    if key in cache:
        return cache[key]
    if x.is_identity():
        out = {hecke.system.identity: ONE}
    else:
        s = x.word[-1]
        rest = bar_par_basis(hecke, fam, I, x.times_gen(s, "right"))
        up, down, stay = _BAR_STEP[fam]
        mask = hecke.system.mask(I)
        acc = defaultdict(dict)
        for z, p in rest.items():
            zs = z.times_gen(s, "right")
            if zs.ldesc & mask:
                _mac(acc[z], p, stay)
            else:
                _mac(acc[zs], p, ONE.terms)
                _mac(acc[z], p, up if zs.length > z.length else down)
        out = _finish(acc)
    cache[key] = out
    return out


def bar_expand(hecke, fam, I, coords):
    """Expand bar(sum p_x B_x) in the same standard/module basis."""
    acc = defaultdict(dict)
    for x, p in coords.items():
        p_bar = [(-e, c) for e, c in p.terms]
        for z, q in bar_par_basis(hecke, fam, I, x).items():
            _mac(acc[z], q, p_bar)
    return _finish(acc)


def is_selfdual(hecke, fam, I, coords):
    """Check bar-invariance by direct expansion in the standard basis."""
    return bar_expand(hecke, fam, I, coords) == {x: p for x, p in coords.items() if p}
