"""A second route for h columns: h_{x,y} = h_{x^-1,y^-1} (Kazhdan-Lusztig 1979).

The h column of y is read off m^{L(y)}, and that of y^-1 off m^{R(y)}: two
columns reached by different chains of the recursion, whose bases run down
the prefixes of different words.  A wrong entry that keeps parity and sign
passes the gate but breaks the symmetry.
"""

import pytest

from planting import plant_computed
from tiltc.coxeter import CoxeterSystem
from tiltc.hecke import HeckeContext
from tiltc.laurent import LaurentPoly


def asymmetric_entries(system, max_len=None):
    """The entries (x, y) of every h column up to max_len, y <= y^-1 in id
    order, with h_{x,y} != h_{x^-1,y^-1}; compared packed."""
    hecke = HeckeContext(system)
    elements, _ = system.quotient_reps((), max_len=max_len)
    inv = {x.id: x.inverse().id for x in elements}
    cols = {x.id: hecke._direct_column("h", (), x)[0] for x in elements}
    bad = []
    for y, col in cols.items():
        twin = cols[inv[y]]
        if y <= inv[y]:
            mirrored = {inv[u]: n for u, n in col.items()}
            if mirrored != twin:
                bad += [(inv[u], y) for u in mirrored.keys() | twin.keys() if mirrored.get(u) != twin.get(u)]
    return bad


@pytest.mark.parametrize(
    "tag, max_len",
    [("A4", None), ("B4", None), ("D4", None), ("A5", None), ("D5", None), ("affA2", 9), ("affB2", 9)],
    ids=["A4", "B4", "D4", "A5", "D5", "affA2", "affB2"],
)
def test_h_is_inverse_symmetric(tag, max_len):
    assert asymmetric_entries(CoxeterSystem.from_type(tag), max_len) == []


def test_a_fault_that_keeps_parity_and_sign_breaks_the_symmetry(monkeypatch):
    # the m[1,2,3] column of 4 3 2, built on its prefix 4 3, holds v at 4 3;
    # raised to 3v it still passes the gate, and the h columns read off it
    # no longer match their twins (24 entries)
    A4 = CoxeterSystem.from_type("A4")
    y, x = A4.element((4, 3, 2)), A4.element((4, 3))
    assert HeckeContext(A4).poly("m", (1, 2, 3), x, y) == LaurentPoly({1: 1})
    plant_computed(monkeypatch, "m[1,2,3]", (4, 3, 2), (4, 3), LaurentPoly({1: 2}))
    assert asymmetric_entries(A4)
