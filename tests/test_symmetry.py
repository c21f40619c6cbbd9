"""Second routes for h columns, each a theorem the recursion does not use.

* Inverse symmetry, h_{x,y} = h_{x^-1,y^-1} (Kazhdan-Lusztig 1979).  The h
  column of y is read off m^{L(y)}, and that of y^-1 off m^{R(y)}: two
  columns reached by different chains of the recursion, whose bases run
  down the prefixes of different words.
* Diagram symmetry, h_{sx,sy} = h_{x,y} for an automorphism s of the
  Coxeter graph: the h column of sy is read off m^{s L(y)}, again another
  chain of the recursion.
* Monotonicity, P_{x,y} - P_{z,y} has nonnegative coefficients for
  x <= z <= y (Braden-MacPherson 2001, From moment graphs to intersection
  cohomology, Math. Ann. 321), proved there for the Schubert varieties of
  flag varieties; it is checked here on finite Weyl groups only.

A wrong entry that keeps parity and sign passes the gate of tiltc.hecke but
may break one of them; the faults below are planted where a route sees
them, and where inverse symmetry does not.
"""

import functools

import pytest

from planting import plant_computed
from tiltc.coxeter import CoxeterSystem
from tiltc.hecke import SLOT, HeckeContext, _unpack
from tiltc.laurent import LaurentPoly

# the length bound of the h columns of each system checked
BOUNDS = {
    "A3": None, "B3": None, "A4": None, "B4": None, "D4": None,
    "A5": None, "D5": None, "E6": 8, "affA2": 9, "affB2": 9,
}
# a diagram automorphism of each system checked for it
DIAGRAM = {
    "A4": {1: 4, 2: 3, 3: 2, 4: 1},
    "A5": {1: 5, 2: 4, 3: 3, 4: 2, 5: 1},
    "D4": {1: 1, 2: 2, 3: 4, 4: 3},
    "D5": {1: 1, 2: 2, 3: 3, 4: 5, 5: 4},
    "E6": {1: 6, 2: 2, 3: 5, 4: 4, 5: 3, 6: 1},
    "affA2": {0: 1, 1: 2, 2: 0},
}


def h_columns(system, max_len=None):
    """The elements up to max_len of a fresh context and their packed h
    columns, {y id: {x id: packed}}."""
    hecke = HeckeContext(system)
    elements, _ = system.quotient_reps((), max_len=max_len)
    return elements, {y.id: hecke._direct_column("h", (), y)[0] for y in elements}


def unequal_entries(cols, image):
    """The entries (x, y) with h_{x,y} != h_{image x, image y}, for image a map
    of element ids that is an automorphism of the Bruhat order; compared
    packed."""
    bad = []
    for y, col in cols.items():
        moved = {image[u]: n for u, n in col.items()}
        twin = cols[image[y]]
        if moved != twin:
            bad += [(u, y) for u in moved.keys() | twin.keys() if moved.get(u) != twin.get(u)]
    return bad


def inverse_image(elements):
    return {x.id: x.inverse().id for x in elements}


def diagram_image(system, elements, sigma):
    return {x.id: system.element([sigma[s] for s in x.word]).id for x in elements}


def non_monotone_triples(elements, cols):
    """The triples x <= z <= y with a negative coefficient in P_{x,y} - P_{z,y}.
    With h_{x,y} = v^(l(y)-l(x)) P_{x,y}(v^-2), that is a negative
    coefficient in h_{x,y} - v^(l(z)-l(x)) h_{z,y}; x <= z is read off the
    support of the h column of z."""
    length = {x.id: x.length for x in elements}
    bad = []
    for y, col in cols.items():
        for z, hz in col.items():
            for x in cols[z]:
                diff = col[x] - (hz << SLOT * (length[z] - length[x]))
                if any(c < 0 for _, c in _unpack(diff, SLOT)):
                    bad.append((x, z, y))
    return bad


INVERSE = ["A4", "B4", "D4", "A5", "D5", "E6", "affA2", "affB2"]
MONOTONE = ["A3", "B3", "A4", "D4"]


@functools.cache
def findings(tag):
    """What each check of a system finds on the h columns of one fresh
    context, built once for all of them: the entries that break inverse
    symmetry, then diagram symmetry, and the triples that break
    monotonicity (None where a check does not apply)."""
    system = CoxeterSystem.from_type(tag)
    elements, cols = h_columns(system, BOUNDS[tag])
    return (
        unequal_entries(cols, inverse_image(elements)),
        unequal_entries(cols, diagram_image(system, elements, DIAGRAM[tag])) if tag in DIAGRAM else None,
        non_monotone_triples(elements, cols) if tag in MONOTONE else None,
    )


@pytest.mark.parametrize("tag", INVERSE)
def test_h_is_inverse_symmetric(tag):
    assert findings(tag)[0] == []


@pytest.mark.parametrize("tag", sorted(DIAGRAM))
def test_h_is_diagram_symmetric(tag):
    assert findings(tag)[1] == []


@pytest.mark.parametrize("tag", MONOTONE)
def test_p_is_monotone(tag):
    assert findings(tag)[2] == []


def plant_a4(monkeypatch, fid, upper, lower, clean, factor):
    """Multiply the entry at lower of the A4 m^K column fid of upper, which
    must hold clean, by factor as the column is computed; returns the
    system."""
    A4 = CoxeterSystem.from_type("A4")
    K = tuple(int(s) for s in fid[2:-1].split(","))
    assert HeckeContext(A4).poly("m", K, A4.element(lower), A4.element(upper)) == clean
    plant_computed(monkeypatch, fid, upper, lower, clean * LaurentPoly({0: factor - 1}))
    return A4


def test_a_fault_that_keeps_parity_and_sign_breaks_the_symmetry(monkeypatch):
    # the m[1,2,3] column of 4 3 2, built on its prefix 4 3, holds v at 4 3;
    # raised to 3v it still passes the gate, and the h columns read off it
    # no longer match their twins (24 pairs, each counted from both sides)
    # and break monotonicity (473 triples)
    A4 = plant_a4(monkeypatch, "m[1,2,3]", (4, 3, 2), (4, 3), LaurentPoly({1: 1}), 3)
    elements, cols = h_columns(A4)
    assert unequal_entries(cols, inverse_image(elements))
    assert non_monotone_triples(elements, cols)


@pytest.mark.parametrize(
    "fid, upper",
    [("m[3]", (2, 4, 3)), ("m[2,4]", (3, 2, 4))],
    ids=["m[3]-2 4 3", "m[2,4]-3 2 4"],
)
def test_diagram_symmetry_sees_a_raised_identity_entry(monkeypatch, fid, upper):
    # these columns hold v + v^3 at the identity; tripled, that entry breaks
    # no inverse symmetry, but it breaks the flip i <-> 5 - i
    A4 = plant_a4(monkeypatch, fid, upper, (), LaurentPoly({1: 1, 3: 1}), 3)
    elements, cols = h_columns(A4)
    assert unequal_entries(cols, inverse_image(elements)) == []
    assert unequal_entries(cols, diagram_image(A4, elements, DIAGRAM["A4"]))

