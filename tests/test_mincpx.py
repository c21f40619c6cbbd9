"""Tests for the exact homological oracle: linear algebra over the rationals,
quiver representations, formal complexes, and the sl2 block realization."""

import gc
import hashlib
import json
import os
import subprocess
import sys
import time
import weakref
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from path_classes_reference import path_classes
from tiltc.errors import InternalInvariantError, ValidationError
from tiltc.mincpx import complexes, linalg, quiver
from tiltc.mincpx.block import (
    SUITE_NAMES,
    TiltingCategory,
    cmin_module,
    load_block,
    parse_block_text,
    verify_block,
)
from tiltc.mincpx.complexes import FormalComplex, minimize
from tiltc.mincpx.quiver import (
    AlgebraPresentation,
    ModuleRep,
    cokernel_rep,
    direct_sum,
    ext_dims,
    hom_basis,
    kernel_rep,
    minimal_projective_resolution,
    projective_cover,
)

F = Fraction


# -- exact linear algebra -------------------------------------------------------------


def _mat(rows):
    return tuple(tuple(F(x) for x in row) for row in rows)


small_dims = st.integers(min_value=1, max_value=4)
small_entry = st.integers(min_value=-4, max_value=4)
# denominators up to 4, so non-unit pivots and non-integral entries occur
rational_entry = st.builds(F, small_entry, st.integers(min_value=1, max_value=4))


@st.composite
def matrices(draw, rows=None, cols=None):
    m = draw(small_dims) if rows is None else rows
    n = draw(small_dims) if cols is None else cols
    return _mat(
        [[draw(rational_entry) for _ in range(n)] for _ in range(m)]
    )


def int_matrices(m, n):
    """Integer (m, n) matrices in full shape: m rows of n entries."""
    return st.lists(
        st.tuples(*[small_entry] * n), min_size=m, max_size=m
    ).map(tuple)


def _fraction_rref(a):
    """Plain-Fraction Gauss-Jordan elimination: the reference for linalg.rref."""
    rows = [[F(x) for x in row] for row in a]
    m, n = len(rows), len(rows[0]) if rows else 0
    pivots = []
    r = 0
    for c in range(n):
        pivot = next((i for i in range(r, m) if rows[i][c] != 0), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        inv = F(1) / rows[r][c]
        rows[r] = [x * inv for x in rows[r]]
        for i in range(m):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == m:
            break
    return rows, pivots


def _fraction_nullspace(a):
    n = len(a[0])
    r, pivots = _fraction_rref(a)
    basis = []
    for free in (j for j in range(n) if j not in pivots):
        v = [F(0)] * n
        v[free] = F(1)
        for row_idx, pc in enumerate(pivots):
            v[pc] = -r[row_idx][free]
        basis.append(v)
    return basis


def _fraction_solve(a, b):
    n = len(a[0])
    r, pivots = _fraction_rref([list(row) + [bv] for row, bv in zip(a, b)])
    if n in pivots:
        return None
    x = [F(0)] * n
    for row_idx, pc in enumerate(pivots):
        x[pc] = r[row_idx][n]
    return x


def _assert_int_first(values):
    for x in values:
        assert type(x) is (int if x.denominator == 1 else Fraction), x


class TestLinalg:
    def test_rref_pivots_and_idempotence(self):
        a = _mat([[0, 2, 4], [1, 1, 1], [1, 3, 5]])
        r, piv = linalg.rref(a)
        assert piv == (0, 1)
        assert linalg.rref(r)[0] == r
        assert linalg.rank(a) == 2

    @settings(max_examples=60, deadline=None)
    @given(matrices())
    def test_rank_nullity(self, a):
        n = len(a[0])
        null = linalg.nullspace(a)
        assert linalg.rank(a) + len(null) == n
        for vec in null:
            assert all(x == 0 for x in linalg.apply(a, vec))

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_solve_consistent_systems(self, data):
        # several right-hand sides, solved in one elimination
        a = data.draw(matrices())
        m, n = linalg.shape(a)
        k = data.draw(st.integers(0, 3))
        x = tuple(tuple(F(data.draw(small_entry)) for _ in range(k)) for _ in range(n))
        b = linalg.mul_shaped(a, x, m, k)
        sol = linalg.solve_matrix(a, b)
        assert sol is not None and linalg.shape(sol) == (n, k)
        assert linalg.mul_shaped(a, sol, m, k) == b

    def test_solve_inconsistent_returns_none(self):
        a = _mat([[1, 1], [1, 1]])
        assert linalg.solve_matrix(a, _mat([[0], [1]])) is None
        # one inconsistent column among consistent ones fails the whole solve
        assert linalg.solve_matrix(a, _mat([[2, 0, 3], [2, 1, 3]])) is None
        assert linalg.solve_matrix(a, _mat([[2, 3], [2, 3]])) == ((2, 3), (0, 0))

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_one_inconsistent_column_returns_none(self, data):
        # under a zero row appended to a, a column that does not end in zero
        # is outside the column space, wherever it stands among consistent ones
        a = data.draw(matrices())
        m, n = linalg.shape(a)
        k = data.draw(st.integers(0, 3))
        x = tuple(tuple(data.draw(small_entry) for _ in range(k)) for _ in range(n))
        cols = [col + (0,) for col in linalg.transpose(linalg.mul_shaped(a, x, m, k))]
        a0 = a + ((0,) * n,)
        b = linalg.transpose(cols) if cols else linalg.zeros(m + 1, 0)
        assert linalg.mul_shaped(a0, linalg.solve_matrix(a0, b), m + 1, k) == b
        bad = tuple(data.draw(rational_entry) for _ in a)
        cols.insert(data.draw(st.integers(0, k)), bad + (data.draw(rational_entry.filter(bool)),))
        assert linalg.solve_matrix(a0, linalg.transpose(cols)) is None

    def test_zero_row_and_zero_column_shapes(self):
        a = _mat([[1, 2], [3, 4], [5, 6]])
        # no right-hand side: an (n, 0) solution
        assert linalg.solve_matrix(a, linalg.zeros(3, 0)) == linalg.zeros(2, 0)
        # no unknowns: only zero columns are solvable, with a () solution
        assert linalg.solve_matrix(linalg.zeros(3, 0), linalg.zeros(3, 2)) == ()
        assert linalg.solve_matrix(linalg.zeros(3, 0), _mat([[0], [1], [0]])) is None
        # no equations: a is () and records no n
        assert linalg.solve_matrix((), ()) == ()
        with pytest.raises(ValueError):
            linalg.solve_matrix(a, linalg.zeros(2, 1))
        # an empty vector list spans nothing: no pivots, so the quotient by it
        # keeps every unit vector, and a zero-row matrix has an empty kernel
        # basis only because it records no columns
        assert linalg.rref(()) == ((), ())
        assert linalg.rank(()) == 0 and linalg.nullspace(()) == []
        assert linalg.nullspace(linalg.zeros(2, 3)) == list(linalg.ident(3))

    @settings(max_examples=80, deadline=None)
    @given(st.data())
    def test_int_first_matches_fraction_reference(self, data):
        a = data.draw(matrices())
        k = data.draw(st.integers(0, 3))
        b = tuple(tuple(data.draw(rational_entry) for _ in range(k)) for _ in a)
        r, pivots = linalg.rref(a)
        want_r, want_pivots = _fraction_rref(a)
        assert list(pivots) == want_pivots
        assert [list(row) for row in r] == want_r
        null = linalg.nullspace(a)
        assert [list(v) for v in null] == _fraction_nullspace(a)
        sol = linalg.solve_matrix(a, b)
        want = [_fraction_solve(a, col) for col in zip(*b)] if k else []
        assert (sol is None) == (None in want)
        if sol is not None:
            assert [list(col) for col in zip(*sol)] == want
        # integral entries come back as ints, never as Fractions
        _assert_int_first([x for row in r for x in row])
        _assert_int_first([x for v in null for x in v])
        _assert_int_first([x for row in sol or () for x in row])

    def test_integer_input_stays_integer(self):
        a = ((2, 4, 1), (1, 3, 5), (-1, -1, 2))
        r, pivots = linalg.rref(a)
        assert pivots == (0, 1, 2)
        assert r == linalg.ident(3)
        assert all(type(x) is int for row in r for x in row)
        assert linalg.mat([[F(4, 2), F(1, 3)]]) == ((2, F(1, 3)),)
        assert type(linalg.mat([[F(4, 2)]])[0][0]) is int

    def test_coordinates_in_a_span(self):
        basis = linalg.transpose([(F(1), F(0), F(1)), (F(0), F(1), F(1))])
        vectors = linalg.transpose([(F(2), F(3), F(5)), (F(1), F(-1), F(0))])
        assert linalg.solve_matrix(basis, vectors) == ((2, 1), (3, -1))
        outside = linalg.transpose([(F(2), F(3), F(5)), (F(0), F(0), F(1))])
        assert linalg.solve_matrix(basis, outside) is None

    @settings(max_examples=80, deadline=None)
    @given(st.data())
    def test_blocks_cut_back_into_their_blocks(self, data):
        sizes = st.lists(st.integers(min_value=0, max_value=3), max_size=3)
        rows, cols = data.draw(sizes), data.draw(sizes)
        grid = [
            [data.draw(st.none() | int_matrices(m, n)) for n in cols] for m in rows
        ]
        big = linalg.blocks(grid, rows, cols)
        assert len(big) == sum(rows)
        assert all(len(row) == sum(cols) for row in big)
        r0 = 0
        for i, m in enumerate(rows):
            c0 = 0
            for j, n in enumerate(cols):
                cut = tuple(row[c0 : c0 + n] for row in big[r0 : r0 + m])
                assert cut == (grid[i][j] or linalg.zeros(m, n))
                c0 += n
            r0 += m
        if not (rows and cols):
            return
        # a block of any other shape raises; () fits every zero-row slot
        i = data.draw(st.integers(0, len(rows) - 1))
        j = data.draw(st.integers(0, len(cols) - 1))
        m = data.draw(st.integers(0, 4))
        n = data.draw(st.integers(0, 4))
        if (m, n) == (rows[i], cols[j]) or m == 0 == rows[i]:
            return
        grid[i][j] = data.draw(int_matrices(m, n))
        with pytest.raises(ValueError):
            linalg.blocks(grid, rows, cols)

    def test_blocks_rejects_ragged_blocks_and_grids(self):
        with pytest.raises(ValueError):
            linalg.blocks([[((1, 2), (3,))]], [2], [2])
        with pytest.raises(ValueError):
            linalg.blocks([[None, None]], [1], [1])
        with pytest.raises(ValueError):
            linalg.blocks([[None]], [1, 1], [1])
        assert linalg.blocks([[(), None]], [0], [3, 2]) == ()
        assert linalg.blocks([[None]], [2], [0]) == ((), ())

    def test_mis_shaped_factors_raise(self):
        with pytest.raises(ValueError):
            linalg.mul_shaped(_mat([[1, 2]]), _mat([[3]]), 1, 1)
        with pytest.raises(ValueError):
            linalg.mul_shaped(_mat([[1]]), (), 1, 2)
        with pytest.raises(ValueError):
            linalg.add(_mat([[1, 2]]), _mat([[1]]))

    def test_mul_shaped_degenerate_shapes(self):
        # zero-row matrices forget their column count; the shaped product
        # restores it from the caller
        assert linalg.mul_shaped((), (), 0, 3) == ()
        assert linalg.mul_shaped(linalg.zeros(2, 0), (), 2, 3) == linalg.zeros(2, 3)
        a = _mat([[1, 2]])
        b = _mat([[3], [4]])
        assert linalg.mul_shaped(a, b, 1, 1) == _mat([[11]])

    def test_integral_products_are_ints(self):
        half = F(1, 2)
        prod = linalg.mul_shaped(((half,),), ((2,),), 1, 1)
        assert prod == ((1,),) and type(prod[0][0]) is int
        prod = linalg.mul_shaped(((half, half),), ((1,), (1,)), 1, 1)
        assert prod == ((1,),) and type(prod[0][0]) is int
        assert linalg.mul_shaped(((half, 1),), ((1,), (1,)), 1, 1) == ((F(3, 2),),)
        vec = linalg.apply(((half,), (F(1, 3),)), (2,))
        assert vec == (1, F(2, 3)) and type(vec[0]) is int
        total = linalg.add(((half,),), ((half,),))
        assert total == ((1,),) and type(total[0][0]) is int
        scaled = linalg.scal(2, ((half, F(1, 3)),))
        assert scaled == ((1, F(2, 3)),) and type(scaled[0][0]) is int

    def test_identity_and_zeros_are_shared(self):
        assert linalg.ident(3) is linalg.ident(3)
        assert linalg.zeros(2, 3) is linalg.zeros(2, 3)
        assert linalg.zeros(0, 3) == () and linalg.zeros(2, 0) == ((), ())

    @settings(max_examples=120, deadline=None)
    @given(st.data())
    def test_products_match_triple_loop(self, data):
        # m, k, n may each be zero; a zero-row factor or product is ()
        m, k, n = (data.draw(st.integers(0, 3)) for _ in range(3))
        entry = small_entry | rational_entry.map(linalg.exact)
        a = tuple(tuple(data.draw(entry) for _ in range(k)) for _ in range(m))
        b = tuple(tuple(data.draw(entry) for _ in range(n)) for _ in range(k))
        want = tuple(
            tuple(linalg.exact(sum((a[i][t] * b[t][j] for t in range(k)), F(0)))
                  for j in range(n))
            for i in range(m)
        )
        got = linalg.mul_shaped(a, b, m, n)
        assert got == want
        _assert_int_first([x for row in got for x in row])
        assert linalg.transpose(a) == tuple(
            tuple(a[i][j] for i in range(m)) for j in range(k if m else 0)
        )


# -- quiver representations -----------------------------------------------------------


def _sl2_algebra():
    """A freshly built sl2 algebra, so with no module memos yet."""
    return AlgebraPresentation(
        ("e", "s"), [("alpha", "e", "s"), ("beta", "s", "e")], ("beta alpha",)
    )


@pytest.fixture(scope="module")
def sl2_algebra():
    return _sl2_algebra()


@pytest.fixture(scope="module")
def sl2_modules(sl2_algebra):
    A = sl2_algebra
    one = _mat([[1]])
    return {
        "L_e": ModuleRep(A, {"e": 1}, {}),
        "L_s": ModuleRep(A, {"s": 1}, {}),
        "std_s": ModuleRep(A, {"e": 1, "s": 1}, {"beta": one}),
        "costd_s": ModuleRep(A, {"e": 1, "s": 1}, {"alpha": one}),
        "tilt_s": ModuleRep(
            A, {"e": 2, "s": 1}, {"alpha": _mat([[1, 0]]), "beta": _mat([[0], [1]])}
        ),
    }


def _preprojective_a(n):
    """The preprojective algebra of type A_n, with the mesh relation at
    every vertex."""
    arrows = [(f"a{i}", str(i), str(i + 1)) for i in range(1, n)]
    arrows += [(f"b{i}", str(i + 1), str(i)) for i in range(1, n)]
    relations = ["a1 b1", f"b{n - 1} a{n - 1}"]
    relations += [f"a{i} b{i} - b{i - 1} a{i - 1}" for i in range(2, n)]
    return AlgebraPresentation([str(i) for i in range(1, n + 1)], arrows, relations)


def _truncated_cycle(n, length):
    """The n-cycle with every path of the given length zero."""
    arrows = [(f"c{i}", str(i), str((i + 1) % n)) for i in range(n)]
    relations = [
        " ".join(f"c{(i + k) % n}" for k in range(length)) for i in range(n)
    ]
    return AlgebraPresentation([str(i) for i in range(n)], arrows, relations)


nonzero_coeff = st.integers(-3, 3).filter(bool) | st.builds(
    F, st.integers(-3, 3).filter(bool), st.integers(2, 3)
).map(linalg.exact)


@st.composite
def presentations(draw):
    """A quiver of at most three vertices and four arrows (loops and
    parallel arrows allowed), with up to four homogeneous relations of
    length at most three, each a combination of paths with one pair of
    endpoints."""
    vertices = [f"v{i}" for i in range(draw(st.integers(1, 3)))]
    arrows = {
        f"a{k}": (draw(st.sampled_from(vertices)), draw(st.sampled_from(vertices)))
        for k in range(draw(st.integers(1, 4)))
    }
    paths: dict[tuple, list] = {}
    level = [((a,), s, t) for a, (s, t) in arrows.items()]
    for length in range(1, 4):
        for p, s, t in level:
            paths.setdefault((s, t, length), []).append(p)
        level = [
            (p + (a,), s, arrows[a][1]) for p, s, t in level for a in arrows
            if arrows[a][0] == t
        ]
    keys = sorted(paths)
    relations = []
    for _ in range(draw(st.integers(0, 4))):
        bucket = paths[draw(st.sampled_from(keys))]
        terms = draw(st.lists(st.sampled_from(bucket), min_size=1, max_size=3, unique=True))
        relations.append(tuple((draw(nonzero_coeff), p) for p in terms))
    return vertices, arrows, relations


class TestPathClasses:
    """The path classes built degree by degree from the ideal below match a
    full enumeration of the products p r q (tests/path_classes_reference)."""

    @staticmethod
    def enumerated(A):
        return path_classes(A.vertices, A.arrows, A.relations)

    @pytest.mark.parametrize(
        "build, dimension, top",
        [
            (_sl2_algebra, 5, 2),
            (lambda: _preprojective_a(5), 35, 4),
            (lambda: _truncated_cycle(4, 7), 28, 6),
            (lambda: AlgebraPresentation(
                "1234", [("a", "1", "2"), ("b", "2", "4"), ("c", "1", "3"),
                         ("d", "3", "4")], ["a b - c d"]), 9, 2),
        ],
        ids=["sl2", "preprojective-A5", "4-cycle-length-7", "commutative-square"],
    )
    def test_pinned_algebras(self, build, dimension, top):
        A = build()
        assert (A.dimension, A.max_path_length) == (dimension, top)
        assert (A._classes, A.dimension, A.max_path_length) == self.enumerated(A)

    @settings(max_examples=100, deadline=None)
    @given(presentations())
    def test_classes_match_the_enumeration(self, pres):
        # lowered guards keep the enumeration of an infinite algebra short;
        # both routes read them from the module
        vertices, arrows, relations = pres
        arrow_list = [(a, s, t) for a, (s, t) in arrows.items()]
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(quiver, "_LENGTH_GUARD", 8)
            mp.setattr(quiver, "_PATH_GUARD", 120)
            try:
                want = path_classes(vertices, arrows, relations)
            except ValidationError as exc:
                with pytest.raises(ValidationError, match=str(exc)):
                    AlgebraPresentation(vertices, arrow_list, relations)
                return
            A = AlgebraPresentation(vertices, arrow_list, relations)
        assert (A._classes, A.dimension, A.max_path_length) == want
        # the projectives, whose arrows act by reduce_path, satisfy the
        # relations and add up to the algebra
        assert sum(A.projective(v)[0].total_dim for v in vertices) == A.dimension

    def test_infinite_algebras_hit_the_guards(self, monkeypatch):
        # a free loop grows one path a length until the length guard
        with pytest.raises(ValidationError, match="not visibly finite dimensional"):
            AlgebraPresentation(("a",), [("x", "a", "a")], ())
        # two loops double the paths at each length until the path guard:
        # free ones at the default guard, as a bucket with no relation in it
        # keeps no projection
        loops = [("x", "a", "a"), ("y", "a", "a")]
        with pytest.raises(ValidationError, match="not visibly finite dimensional"):
            AlgebraPresentation(("a",), loops, ())
        # commuting ones at a lowered guard, as each bucket costs an rref
        monkeypatch.setattr(quiver, "_PATH_GUARD", 1000)
        with pytest.raises(ValidationError, match="not visibly finite dimensional"):
            AlgebraPresentation(("a",), loops, ("x y - y x",))


class TestQuiver:
    def test_algebra_dimension(self, sl2_algebra):
        assert sl2_algebra.dimension == 5
        assert sl2_algebra.max_path_length == 2

    def test_projectives(self, sl2_algebra):
        P_e, basis_e = sl2_algebra.projective("e")
        assert P_e.dims == {"e": 2, "s": 1}
        assert [b[0] for b in basis_e] == ["e", "s", "e"]
        P_s, basis_s = sl2_algebra.projective("s")
        assert P_s.dims == {"e": 1, "s": 1}

    def test_infinite_dimensional_rejected(self):
        with pytest.raises(ValidationError, match="finite dimensional"):
            AlgebraPresentation(("a",), [("x", "a", "a")], ()).projective("a")

    def test_relation_violation_rejected(self, sl2_algebra):
        bad = ModuleRep(
            sl2_algebra,
            {"e": 1, "s": 1},
            {"alpha": _mat([[1]]), "beta": _mat([[1]])},
        )
        with pytest.raises(ValidationError):
            bad.validate()

    def test_hom_dimensions(self, sl2_modules):
        m = sl2_modules
        assert len(hom_basis(m["std_s"], m["tilt_s"])) == 1
        assert len(hom_basis(m["std_s"], m["L_e"])) == 0
        assert len(hom_basis(m["tilt_s"], m["tilt_s"])) == 2

    def test_minimal_resolutions(self, sl2_modules):
        terms, diffs, aug = minimal_projective_resolution(sl2_modules["L_e"])
        assert [labels for _, labels in terms] == [["e"], ["s"]]
        terms, _, _ = minimal_projective_resolution(sl2_modules["L_s"])
        assert [labels for _, labels in terms] == [["s"], ["e"], ["s"]]
        terms, _, _ = minimal_projective_resolution(sl2_modules["std_s"])
        assert [labels for _, labels in terms] == [["s"]]

    def test_ext_tables(self, sl2_modules):
        m = sl2_modules
        assert ext_dims(m["L_s"], m["L_e"], 3) == [0, 1, 0, 0]
        assert ext_dims(m["L_e"], m["L_s"], 3) == [0, 1, 0, 0]
        assert ext_dims(m["L_e"], m["std_s"], 3) == [1, 1, 0, 0]
        assert ext_dims(m["std_s"], m["costd_s"], 3) == [1, 0, 0, 0]
        assert ext_dims(m["std_s"], m["L_e"], 3) == [0, 0, 0, 0]
        assert ext_dims(m["L_e"], m["costd_s"], 3) == [0, 0, 0, 0]

    def test_ext_dims_keeps_hom_bases(self, monkeypatch):
        # each basis Hom(P_i, N) is solved once and kept on P_i, per target N,
        # and the ranks of an Ext query are kept next to the resolution; each
        # count starts on a freshly built algebra
        solves = []
        real = quiver.hom_basis

        def counted(M, N):
            if N not in M._homs:
                solves.append((M, N))
            return real(M, N)

        monkeypatch.setattr(quiver, "hom_basis", counted)
        A = _sl2_algebra()
        L_e, L_s = ModuleRep(A, {"e": 1}, {}), ModuleRep(A, {"s": 1}, {})
        assert ext_dims(L_s, L_e, 0) == [0]
        P_s, P_e = A.projective("s")[0], A.projective("e")[0]
        assert solves == [(P_s, L_e), (P_e, L_e)]  # P_0 and P_1
        solves.clear()
        assert ext_dims(L_s, L_e, 0) == [0]
        assert solves == []  # a repeated call solves none
        # the new term P_2 is P_s again, whose basis is kept
        assert ext_dims(L_s, L_e, 4) == [0, 1, 0, 0, 0]
        assert L_s._resolution.terms[2][0] is P_s
        assert solves == []
        assert ext_dims(L_s, L_e, 4) == [0, 1, 0, 0, 0]
        assert ext_dims(L_s, L_e, 1) == [0, 1]
        assert solves == []
        assert hom_basis(P_s, L_e) is hom_basis(P_s, L_e)
        # another target gets bases of its own, one per distinct term
        assert ext_dims(L_s, L_s, 4) == [1, 0, 1, 0, 0]
        assert solves == [(P_s, L_s), (P_e, L_s)]
        # on a fresh algebra a deep first call solves each distinct term once
        solves.clear()
        B = _sl2_algebra()
        assert ext_dims(ModuleRep(B, {"s": 1}, {}), ModuleRep(B, {"e": 1}, {}), 4) == [0, 1, 0, 0, 0]
        assert [M for M, _ in solves] == [B.projective("s")[0], B.projective("e")[0]]

    def test_ext_dims_stops_at_the_needed_term(self, monkeypatch):
        # L_s has the three-term resolution P_s <- P_e <- P_s; Ext^0 needs two.
        # The resolution is kept on the module, and L_s is one object per
        # algebra, so each count starts on a freshly built algebra.
        calls = []
        real = quiver.projective_cover
        monkeypatch.setattr(
            quiver, "projective_cover", lambda M: calls.append(M) or real(M)
        )
        A = _sl2_algebra()
        L_e, L_s = ModuleRep(A, {"e": 1}, {}), ModuleRep(A, {"s": 1}, {})
        assert ext_dims(L_s, L_e, 0) == [0]
        assert len(calls) == 2
        calls.clear()
        B = _sl2_algebra()
        assert ext_dims(ModuleRep(B, {"s": 1}, {}), ModuleRep(B, {"e": 1}, {}), 4) == [0, 1, 0, 0, 0]
        assert len(calls) == 3
        # a deeper call pays only the missing cover, a repeated one none
        calls.clear()
        assert ext_dims(L_s, L_e, 4) == [0, 1, 0, 0, 0]
        assert len(calls) == 1
        calls.clear()
        assert ext_dims(L_s, L_e, 4) == [0, 1, 0, 0, 0]
        assert ext_dims(L_s, L_e, 1) == [0, 1]
        assert calls == []

    def test_projectives_are_built_once(self, sl2_algebra):
        fresh = AlgebraPresentation(
            ("e", "s"), [("alpha", "e", "s"), ("beta", "s", "e")], ("beta alpha",)
        )
        for v in sl2_algebra.vertices:
            P, basis = sl2_algebra.projective(v)
            assert sl2_algebra.projective(v) is sl2_algebra.projective(v)
            Q, fresh_basis = fresh.projective(v)
            assert (P.dims, P.mats, basis) == (Q.dims, Q.mats, fresh_basis)

    def test_kept_resolutions_match_fresh_builds(self):
        block, fresh_block = load_block("sl2"), load_block("sl2")
        mods, fresh = block.modules, fresh_block.modules
        for name, M in mods.items():
            for other in ("costd_e", "simple_s"):
                full = ext_dims(fresh[name], fresh[other], 4)
                for up_to in (0, 4, 1):
                    assert ext_dims(M, mods[other], up_to) == full[: up_to + 1]
        for name, M in mods.items():
            terms, diffs, aug = minimal_projective_resolution(fresh[name])
            kept = M._resolution
            assert kept.complete
            assert [list(labels) for _, labels in kept.terms] == [
                labels for _, labels in terms
            ]
            assert [(P.dims, P.mats) for P, _ in kept.terms] == [
                (P.dims, P.mats) for P, _ in terms
            ]
            assert kept.diffs == diffs and kept.aug == aug
            # callers get copies: changing them leaves the kept terms alone
            got_terms, got_diffs, _ = minimal_projective_resolution(M)
            got_terms[0][1].append("x")
            got_terms.clear()
            got_diffs.append({})
            assert minimal_projective_resolution(M)[0] == [
                (P, list(labels)) for P, labels in kept.terms
            ]
            assert len(kept.diffs) == len(diffs)

    def test_projective_cover_of_tilting(self, sl2_modules):
        P, labels, cov = projective_cover(sl2_modules["tilt_s"])
        assert labels == ["e"]
        K, _ = kernel_rep(cov, P, sl2_modules["tilt_s"])
        assert K.is_zero()

    def test_cokernel(self, sl2_modules):
        m = sl2_modules
        f = hom_basis(m["std_s"], m["tilt_s"])[0]
        C, _, _ = cokernel_rep(f, m["std_s"], m["tilt_s"])
        assert C.dims == {"e": 1, "s": 0}

    @pytest.mark.parametrize(
        "src,tgt", [("std_s", "tilt_s"), ("L_e", "tilt_s"), ("L_s", "costd_s")]
    )
    def test_cokernel_section_is_split_by_the_projection(self, sl2_modules, src, tgt):
        M, N = sl2_modules[src], sl2_modules[tgt]
        for f in hom_basis(M, N) + [quiver.vmap_zero(M, N)]:
            C, proj, sec = cokernel_rep(f, M, N)
            for v in M.algebra.vertices:
                assert linalg.mul_shaped(proj[v], sec[v], C.dims[v], C.dims[v]) == (
                    linalg.ident(C.dims[v])
                )
                # the projection kills the image of f
                assert linalg.is_zero(
                    linalg.mul_shaped(proj[v], f[v], C.dims[v], M.dims[v])
                )

    def test_kernel_into_zero_module(self, sl2_modules):
        zero = ModuleRep(sl2_modules["L_e"].algebra, {})
        m = sl2_modules["std_s"]
        K, incl = kernel_rep({v: () for v in m.algebra.vertices}, m, zero)
        assert K.dims == m.dims


# -- formal complexes over the sl2 tilting modules -------------------------------------


def _combo(terms):
    """The module map sum of c * f over (c, f) in terms, all of one shape."""
    (_, first), *_ = terms
    return {
        v: tuple(
            tuple(sum(c * f[v][i][j] for c, f in terms) for j in range(len(row)))
            for i, row in enumerate(first[v])
        )
        for v in first
    }


@pytest.fixture(scope="module")
def toy(sl2_block):
    # End(tilt_e) = Q and End(tilt_s) = Q[eps]/(eps^2); Hom(tilt_e, tilt_s)
    # = <f> and Hom(tilt_s, tilt_e) = <g> with g o f = 0 and f o g = eps
    tilts = {lab: sl2_block.module("tilt", lab) for lab in ("e", "s")}
    T_e, T_s = tilts["e"], tilts["s"]
    (f,) = hom_basis(T_e, T_s)
    (g,) = hom_basis(T_s, T_e)
    eps = quiver.vmap_compose(f, g, T_s, T_s)
    assert quiver.vmap_compose(g, f, T_e, T_e) == quiver.vmap_zero(T_e, T_e)
    assert eps != quiver.vmap_zero(T_s, T_s)
    return {
        "tilts": tilts,
        "f": f,
        "g": g,
        "eps": eps,
        "id_e": quiver.vmap_ident(T_e),
        "id_s": quiver.vmap_ident(T_s),
        "zero_se": quiver.vmap_zero(T_s, T_e),
    }


def _sl2_variant(tilt_e_lines):
    """The sl2 block text with the tilt_e module declared by other lines."""
    from importlib import resources

    text = resources.files("tiltc.blocks").joinpath("sl2.block").read_text()
    head, sep, tail = text.partition("module tilt_e\n")
    _, sep2, rest = tail.partition("module tilt_s\n")
    assert sep and sep2
    return parse_block_text(head + sep + tilt_e_lines + sep2 + rest, name="sl2")


class TestCategoryPresentation:
    # suite 1: the tilting modules present an additive category whose
    # indecomposables have local endomorphism rings and are pairwise distinct
    def test_invertibility(self, toy):
        T_s, eps, id_s = toy["tilts"]["s"], toy["eps"], toy["id_s"]
        assert complexes._invert(T_s, _combo([(1, id_s), (5, eps)])) is not None
        assert complexes._invert(T_s, eps) is None
        phi = _combo([(2, id_s), (3, eps)])
        psi = complexes._invert(T_s, phi)
        assert quiver.vmap_compose(psi, phi, T_s, T_s) == id_s
        assert quiver.vmap_compose(phi, psi, T_s, T_s) == id_s

    def test_rejects_cross_label_isomorphism(self):
        # tilt_e declared equal to tilt_s: End stays local, but the two are
        # isomorphic
        block = _sl2_variant(
            "dim e = 2\ndim s = 1\nmap alpha = [[1, 0]]\nmap beta = [[0], [1]]\n\n"
        )
        with pytest.raises(ValidationError, match="found an isomorphism between"):
            verify_block(block)

    def test_rejects_nonlocal_endomorphisms(self):
        # tilt_e declared as S_e + S_s: End = Q x Q (split idempotents)
        block = _sl2_variant("dim e = 1\ndim s = 1\n\n")
        with pytest.raises(ValidationError, match="not local"):
            verify_block(block)


def _block_map(tilts, srcs, tgts, grid):
    """The map between the sums of srcs and of tgts whose component from
    summand j to summand i is grid[i][j] (None for zero)."""
    return {
        v: linalg.blocks(
            [[None if f is None else f[v] for f in row] for row in grid],
            [tilts[t].dims[v] for t in tgts],
            [tilts[s].dims[v] for s in srcs],
        )
        for v in next(iter(tilts.values())).algebra.vertices
    }


class TestFormalComplex:
    def test_validate_rejects_nonzero_square(self, toy):
        bad = FormalComplex(
            toy["tilts"],
            {0: ("s",), 1: ("s",), 2: ("s",)},
            {0: toy["eps"], 1: toy["id_s"]},
        )
        with pytest.raises(InternalInvariantError):
            bad.validate()

    def test_validate_rejects_wrong_shape(self, toy):
        # f: tilt_e -> tilt_s given as the differential tilt_s -> tilt_e
        bad = FormalComplex(toy["tilts"], {1: ("s",), 2: ("e",)}, {1: toy["f"]})
        with pytest.raises(ValidationError, match="differential at degree 1 has wrong shape"):
            bad.validate()
        # the identity of tilt_s with one column too many at vertex s
        wide = dict(toy["id_s"], s=((1, 0),))
        bad = FormalComplex(toy["tilts"], {0: ("s",), 1: ("s",)}, {0: wide})
        with pytest.raises(ValidationError, match="differential at degree 0 has wrong shape"):
            bad.validate()

    def test_minimize_contractible_to_zero(self, toy):
        Y = FormalComplex(toy["tilts"], {0: ("s",), 1: ("s",)}, {0: toy["id_s"]})
        m, _ = minimize(Y)
        assert m.terms == {}

    def test_minimize_keeps_radical_complex(self, toy):
        Z = FormalComplex(
            toy["tilts"],
            {0: ("s",), 1: ("s",), 2: ("s",)},
            {0: toy["eps"], 1: toy["eps"]},
        )
        m, pi = minimize(Z)
        assert m.label_counts() == {0: {"s": 1}, 1: {"s": 1}, 2: {"s": 1}}
        # projection onto an untouched complex is the identity
        assert pi[0] == toy["id_s"]

    def test_minimize_partial_elimination(self, toy):
        tilts = toy["tilts"]
        d = _block_map(tilts, ("e", "s"), ("s",), [[toy["f"], toy["id_s"]]])
        W = FormalComplex(tilts, {0: ("e", "s"), 1: ("s",)}, {0: d})
        m, pi = minimize(W)
        assert m.label_counts() == {0: {"e": 1}}
        assert pi[0] == _block_map(tilts, ("e", "s"), ("e",), [[toy["id_e"], toy["zero_se"]]])
        assert 1 not in pi

    def test_scan_orders_agree(self, toy):
        tilts = toy["tilts"]
        d = _block_map(
            tilts, ("s", "e"), ("s", "s"), [[toy["id_s"], toy["f"]], [toy["eps"], None]]
        )
        W = FormalComplex(tilts, {0: ("s", "e"), 1: ("s", "s")}, {0: d})
        mf, _ = minimize(W, scan="forward")
        mb, _ = minimize(W, scan="backward")
        assert mf.label_counts() == mb.label_counts()

    def test_unknown_scan_rejected(self, toy):
        X = FormalComplex(toy["tilts"], {0: ("e",)})
        with pytest.raises(ValidationError):
            minimize(X, scan="sideways")


# -- block files and the tilting-complex oracle ---------------------------------------


@pytest.fixture(scope="module")
def sl2_block():
    return load_block("sl2")


@pytest.fixture(scope="module")
def sl2_tcat(sl2_block):
    return TiltingCategory(sl2_block)


class TestBlockParsing:
    def test_load_sl2(self, sl2_block):
        b = sl2_block
        assert b.labels == ("e", "s")
        assert b.system == "A1"
        assert b.words == {"e": "", "s": "1"}
        assert ("e", "s") in b.leq and ("s", "e") not in b.leq
        assert b.module("tilt", "s").dims == {"e": 2, "s": 1}

    def test_truncated_ext_dims_are_prefixes(self, sl2_block):
        mods = sl2_block.modules.values()
        assert len(mods) == 12  # std, costd, simple, tilt, proj, inj of e and s
        for M in mods:
            for N in mods:
                full = ext_dims(M, N, 4)
                for k in (0, 1):
                    assert ext_dims(M, N, k) == full[: k + 1]

    def test_equal_modules_are_shared(self, sl2_block):
        groups: dict[int, list[str]] = {}
        for name, mod in sl2_block.modules.items():
            groups.setdefault(id(mod), []).append(name)
        assert sorted(sorted(g) for g in groups.values()) == [
            ["costd_e", "simple_e", "std_e", "tilt_e"],
            ["costd_s", "inj_s"],
            ["inj_e", "proj_e", "tilt_s"],
            ["proj_s", "std_s"],
            ["simple_s"],
        ]

    def test_modules_differing_in_one_entry_stay_apart(self):
        from importlib import resources

        text = resources.files("tiltc.blocks").joinpath("sl2.block").read_text()
        head, sep, tail = text.partition("module inj_s")
        assert sep and "map alpha = [[1]]" in tail
        b = parse_block_text(head + sep + tail.replace("[[1]]", "[[2]]"))
        assert b.module("inj", "s").mats["alpha"] == ((2,),)
        assert b.module("costd", "s").mats["alpha"] == ((1,),)
        assert b.module("inj", "s") is not b.module("costd", "s")
        assert b.module("tilt", "e") is b.module("simple", "e")
        assert len({id(m) for m in b.modules.values()}) == 6

    @pytest.mark.parametrize(
        "line",
        ["map beta = [[1,", "dim s = one", "map beta = [[x]]", "map beta = 7"],
    )
    def test_malformed_module_data(self, line):
        from importlib import resources

        text = resources.files("tiltc.blocks").joinpath("sl2.block").read_text()
        head, sep, tail = text.partition("module std_s\n")
        assert sep and "map beta = [[1]]" in tail
        bad = head + sep + line + "\n" + tail
        with pytest.raises(ValidationError) as info:
            parse_block_text(bad, name="sl2")
        assert type(info.value) is ValidationError
        assert str(info.value) == f"sl2: bad module line {line!r}"

    @pytest.mark.parametrize(
        "line,message",
        [
            ("", "sl2: label 's' has no word in [meta]"),
            ("label s = x", "sl2: bad word 'x' for label 's'"),
        ],
    )
    def test_bad_label_words_fail_at_parse(self, line, message):
        from importlib import resources

        text = resources.files("tiltc.blocks").joinpath("sl2.block").read_text()
        assert text.count("label s = 1\n") == 1
        with pytest.raises(ValidationError) as info:
            parse_block_text(text.replace("label s = 1\n", line + "\n"), name="sl2")
        assert type(info.value) is ValidationError
        assert str(info.value) == message

    def test_missing_block(self):
        with pytest.raises(ValidationError, match="no bundled block"):
            load_block("nope")

    def test_unknown_section(self):
        with pytest.raises(ValidationError, match="unknown section"):
            parse_block_text("[what]\n")

    def test_poset_cycle(self):
        text = (
            "[quiver]\nvertices = a b\n[poset]\na < b\nb < a\n[modules]\n"
        )
        with pytest.raises(ValidationError, match="cycle"):
            parse_block_text(text)

    def test_missing_role(self):
        text = "[quiver]\nvertices = a\n[modules]\nmodule simple_a\ndim a = 1\n"
        with pytest.raises(ValidationError, match="missing module"):
            parse_block_text(text)


class TestTiltingCategory:
    def test_hom_dimensions(self, sl2_tcat):
        hd = {pair: len(basis) for pair, basis in sl2_tcat.basis.items()}
        assert hd == {("e", "e"): 1, ("s", "s"): 2, ("e", "s"): 1, ("s", "e"): 1}
        sl2_tcat.validate()

    LABEL_TUPLES = [(), ("s",), ("e",), ("s", "e", "s"), ("s", "s")]

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_block_coordinate_roundtrip(self, sl2_tcat, data):
        # components built from drawn hom-basis coordinates, assembled into
        # one differential between the sums, read back through component()
        srcs = data.draw(st.sampled_from(self.LABEL_TUPLES))
        tgts = data.draw(st.sampled_from(self.LABEL_TUPLES))
        tilts = sl2_tcat.tilts
        coords = [
            [
                tuple(data.draw(small_entry) for _ in sl2_tcat.basis[(s, t)])
                for s in srcs
            ]
            for t in tgts
        ]
        grid = [
            [
                _combo(list(zip(c, sl2_tcat.basis[(s, t)])))
                for s, c in zip(srcs, row)
            ]
            for t, row in zip(tgts, coords)
        ]
        f = _block_map(tilts, srcs, tgts, grid)
        cpx = FormalComplex(tilts, {0: srcs, 1: tgts}, {0: f})
        cpx.validate()
        for i, (t, row, crow) in enumerate(zip(tgts, grid, coords)):
            for j, (s, g, c) in enumerate(zip(srcs, row, crow)):
                assert cpx.component(0, i, j) == g
                assert sl2_tcat.coordinatize(s, t, cpx.component(0, i, j)) == c

    def test_coordinate_roundtrip(self, sl2_tcat):
        for (a, b), basis in sl2_tcat.basis.items():
            for k, f in enumerate(basis):
                want = tuple(1 if i == k else 0 for i in range(len(basis)))
                assert sl2_tcat.coordinatize(a, b, f) == want


class TestCoresolutions:
    # the minimal tilting complex of a projective (or of any module whose
    # resolution has one term) is its tilting coresolution
    def test_projective_e_is_tilting(self, sl2_block, sl2_tcat):
        P = sl2_block.module("proj", "e")
        R, kappa = cmin_module(sl2_tcat, P)
        assert R.terms == {0: ("s",)}
        assert all(
            linalg.rank(kappa[0][v]) == P.dims[v] for v in sl2_block.algebra.vertices
        )

    def test_projective_s_two_steps(self, sl2_block, sl2_tcat):
        R, _ = cmin_module(sl2_tcat, sl2_block.module("proj", "s"))
        assert R.terms == {0: ("s",), 1: ("e",)}
        R.validate()

    @pytest.mark.parametrize("label", ["e", "s"])
    def test_tilting_module_is_its_own_coresolution(self, sl2_block, sl2_tcat, label):
        # the approximation is minimal: no split summand rides along
        from tiltc.mincpx import block as block_mod

        T = sl2_block.module("tilt", label)
        labels, _, C, _ = block_mod._checked_approximation(sl2_tcat, T)
        assert labels == (label,) and C.is_zero()
        R, _ = cmin_module(sl2_tcat, T)
        assert R.summary() == f"[0: {label}]"

    def test_non_minimal_approximation_fails_fast(self, sl2_block, monkeypatch):
        # the universal map M -> sum of T_a over a basis of every Hom(M, T_a)
        # is an approximation but not a minimal one: its terms grow each step.
        # M = tilt_s + tilt_s is projective with four standard factors, and
        # the universal map has six summands.
        from tiltc.mincpx import block as block_mod

        tcat = TiltingCategory(sl2_block)  # nothing approximated yet
        order = tcat.algebra.vertices

        def universal(tcat, M):
            labels, rows = [], {v: [] for v in order}
            for a in tcat.labels:
                for g in hom_basis(M, tcat.tilts[a]):
                    labels.append(a)
                    for v in order:
                        rows[v].extend(g[v])
            return tuple(labels), {v: tuple(rows[v]) for v in order}

        monkeypatch.setattr(block_mod, "_approximation", universal)
        M = direct_sum([sl2_block.module("tilt", "s")] * 2)
        t0 = time.perf_counter()
        with pytest.raises(InternalInvariantError, match="more than the bound 4"):
            cmin_module(tcat, M)
        assert time.perf_counter() - t0 < 5.0

    # sums with repeated summands: each label appears with its multiplicity
    SUMS = {
        "tilt_s+tilt_s": ((("tilt", "s"), ("tilt", "s")), "[0: 2*s]"),
        "proj_e+proj_s+std_s": (
            (("proj", "e"), ("proj", "s"), ("std", "s")),
            "[0: 3*s] [1: 2*e]",
        ),
    }

    @pytest.mark.parametrize("name", sorted(SUMS))
    def test_direct_sums(self, sl2_block, sl2_tcat, name):
        from tiltc.mincpx import block as block_mod

        parts, expected = self.SUMS[name]
        M = direct_sum([sl2_block.module(role, lab) for role, lab in parts])
        labels, f, _, _ = block_mod._checked_approximation(sl2_tcat, M)
        assert sorted(labels) == ["s"] * len(parts)
        assert all(
            linalg.rank(f[v]) == M.dims[v] for v in sl2_block.algebra.vertices
        )
        cpx, _ = cmin_module(sl2_tcat, M)
        assert cpx.summary() == expected


class TestMinimalTiltingComplexes:
    EXPECTED = {
        ("std", "e"): {0: {"e": 1}},
        ("std", "s"): {0: {"s": 1}, 1: {"e": 1}},
        ("simple", "e"): {0: {"e": 1}},
        ("simple", "s"): {-1: {"e": 1}, 0: {"s": 1}, 1: {"e": 1}},
    }

    @pytest.mark.parametrize("role,label", sorted(EXPECTED))
    def test_pinned_complexes(self, sl2_block, sl2_tcat, role, label):
        cpx, kappa = cmin_module(sl2_tcat, sl2_block.module(role, label))
        assert cpx.label_counts() == self.EXPECTED[(role, label)]
        assert cpx.is_minimal()
        assert 0 in kappa

    @pytest.mark.parametrize("role,label", sorted(EXPECTED))
    def test_backward_scan_same_counts(self, sl2_block, sl2_tcat, role, label):
        cpx, _ = cmin_module(
            sl2_tcat, sl2_block.module(role, label), scan="backward"
        )
        assert cpx.label_counts() == self.EXPECTED[(role, label)]

    def test_radical_of_standard(self, sl2_block, sl2_tcat):
        std = sl2_block.module("std", "s")
        simple = sl2_block.module("simple", "s")
        f = hom_basis(std, simple)[0]
        rad, _ = kernel_rep(f, std, simple)
        cpx, _ = cmin_module(sl2_tcat, rad)
        assert cpx.label_counts() == {0: {"e": 1}}

    def test_tilting_module_complex_is_itself(self, sl2_block, sl2_tcat):
        cpx, _ = cmin_module(sl2_tcat, sl2_block.module("tilt", "s"))
        assert cpx.label_counts() == {0: {"s": 1}}

    def test_minimality_is_checked_by_minimize(self, sl2_block, monkeypatch):
        # minimize checks its result once; cmin_module does not repeat it,
        # and a failing check still stops it
        monkeypatch.setattr(FormalComplex, "is_minimal", lambda self: False)
        with pytest.raises(InternalInvariantError, match="left an invertible entry"):
            cmin_module(TiltingCategory(sl2_block), sl2_block.module("simple", "s"))


class TestCoresolutionMemo:
    # a coresolution is the tail of a sweep; a TiltingCategory keeps the
    # checked approximation and the unminimized sweep of each module content
    MODULES = [(role, lab) for role in ("std", "simple", "proj", "tilt") for lab in "es"]

    @pytest.mark.parametrize("scan", ["forward", "backward"])
    def test_memo_hit_equals_fresh_build(self, sl2_block, scan):
        from tiltc.mincpx import block as block_mod

        shared = TiltingCategory(sl2_block)
        for role, lab in self.MODULES:  # fill the memos
            cmin_module(shared, sl2_block.module(role, lab), scan=scan)
        # std_e = simple_e = tilt_e, proj_e = tilt_s, proj_s, simple_s; the
        # approximated modules are proj_e, proj_s, std_e and one pushout
        assert (len(shared._sweeps), len(shared._approximations)) == (4, 4)
        for role, lab in self.MODULES:
            M = sl2_block.module(role, lab)
            hit, hit_kappa = cmin_module(shared, M, scan=scan)
            # fresh builds on fresh parses share no kept work with the hits
            other = load_block("sl2")
            new, new_kappa = cmin_module(
                TiltingCategory(other), other.module(role, lab), scan=scan
            )
            assert hit.summary() == new.summary(), (role, lab)
            assert hit.label_counts() == new.label_counts(), (role, lab)
            assert hit.diffs == new.diffs, (role, lab)
            assert hit_kappa == new_kappa, (role, lab)
            sweep = block_mod._sweep(shared, M)
            other = load_block("sl2")
            fresh = block_mod._sweep(TiltingCategory(other), other.module(role, lab))
            assert (sweep[0].terms, sweep[0].diffs) == (fresh[0].terms, fresh[0].diffs)
            assert sweep[1] == fresh[1] and sweep[3] == fresh[3], (role, lab)
            assert [(P.dims, P.mats) for P in sweep[2]] == [
                (P.dims, P.mats) for P in fresh[2]
            ], (role, lab)
        assert (len(shared._sweeps), len(shared._approximations)) == (4, 4)

    def test_key_is_module_content(self, sl2_block):
        # the memos are keyed by the interned module: a rebuilt module of
        # equal content is the same key, other matrices another one
        from tiltc.mincpx import block as block_mod

        tcat = TiltingCategory(sl2_block)
        proj_s = sl2_block.module("proj", "s")
        copy = ModuleRep(sl2_block.algebra, dict(proj_s.dims), dict(proj_s.mats))
        assert copy is proj_s and direct_sum([proj_s]) is proj_s
        assert block_mod._sweep(tcat, copy) is block_mod._sweep(tcat, proj_s)
        approx = block_mod._checked_approximation(tcat, proj_s)
        assert block_mod._checked_approximation(tcat, copy) is approx
        assert (len(tcat._sweeps), len(tcat._approximations)) == (1, 2)
        # the same dimension vector with other matrices is another module
        scaled = ModuleRep(
            sl2_block.algebra, proj_s.dims, {**proj_s.mats, "beta": ((2,),)}
        )
        assert scaled is not proj_s
        scaled.validate()
        R, kappa, _, _ = block_mod._sweep(tcat, scaled)
        assert len(tcat._sweeps) == 2
        assert block_mod._checked_approximation(tcat, scaled)[1] != approx[1]
        # built again on a fresh parse, so from no kept work at all
        other = load_block("sl2")
        fresh = ModuleRep(other.algebra, scaled.dims, scaled.mats)
        R_new, kappa_new, _, _ = block_mod._sweep(TiltingCategory(other), fresh)
        assert (R.terms, R.diffs, kappa) == (R_new.terms, R_new.diffs, kappa_new)


class TestComplexMemo:
    MODULES = [(role, lab) for role in ("std", "simple", "tilt", "costd") for lab in "es"]

    @pytest.mark.parametrize("scan", ["forward", "backward"])
    def test_memo_hit_equals_fresh_build(self, sl2_block, scan):
        shared = TiltingCategory(sl2_block)
        for role, lab in self.MODULES:  # fill the memo
            shared.minimal_complex(sl2_block.module(role, lab), scan=scan)
        # std_e = simple_e = tilt_e = costd_e; std_s, simple_s, tilt_s, costd_s
        assert len(shared._complexes) == 5
        for role, lab in self.MODULES:
            M = sl2_block.module(role, lab)
            hit, hit_kappa = shared.minimal_complex(M, scan=scan)
            other = load_block("sl2")
            new, new_kappa = cmin_module(
                TiltingCategory(other), other.module(role, lab), scan=scan
            )
            assert hit.terms == new.terms, (role, lab)
            assert hit.diffs == new.diffs, (role, lab)
            assert hit_kappa == new_kappa, (role, lab)
        assert len(shared._complexes) == 5

    def test_key_is_module_content_and_scan(self, sl2_block):
        tcat = TiltingCategory(sl2_block)
        std_s = sl2_block.module("std", "s")
        copy = ModuleRep(sl2_block.algebra, dict(std_s.dims), dict(std_s.mats))
        assert copy is std_s and direct_sum([std_s]) is std_s
        assert tcat.minimal_complex(copy) is tcat.minimal_complex(std_s)
        backward = tcat.minimal_complex(std_s, scan="backward")
        assert backward is not tcat.minimal_complex(std_s)
        assert len(tcat._complexes) == 2
        # other matrices on the same dimension vector: another key
        scaled = ModuleRep(sl2_block.algebra, std_s.dims, {"beta": ((2,),)})
        assert scaled is not std_s
        tcat.minimal_complex(scaled)
        assert len(tcat._complexes) == 3


class TestInterning:
    """ModuleRep(algebra, dims, mats) is one object per normalized content."""

    def test_equal_content_is_one_object(self, sl2_algebra):
        A = sl2_algebra
        M = ModuleRep(A, {"e": 1, "s": 1}, {"beta": ((1,),)})
        # integral Fractions, explicit zero matrices and zero dimensions
        # normalize away
        assert ModuleRep(A, {"e": 1, "s": 1}, {"beta": [[F(2, 2)]], "alpha": ((0,),)}) is M
        assert direct_sum([M]) is M
        assert ModuleRep(A, {"e": 1}, {}) is ModuleRep(A, {"e": 1, "s": 0}, {})

    def test_other_content_is_another_object(self, sl2_algebra):
        A = sl2_algebra
        M = ModuleRep(A, {"e": 1, "s": 1}, {"beta": ((1,),)})
        others = [
            ModuleRep(A, {"e": 1, "s": 1}, {"beta": ((2,),)}),
            ModuleRep(A, {"e": 1, "s": 1}, {"alpha": ((1,),)}),
            ModuleRep(A, {"e": 1, "s": 1}),
            ModuleRep(_sl2_algebra(), M.dims, M.mats),  # another algebra
        ]
        assert len({id(N) for N in [M, *others]}) == 5

    def test_computed_modules_are_the_declared_ones(self):
        from tiltc.mincpx.block import _rad_std

        block = load_block("sl2")
        assert _rad_std(block, "s")[0] is block.module("simple", "e")
        for lab in block.labels:
            P = projective_cover(block.module("simple", lab))[0]
            assert P is block.module("proj", lab) is block.algebra.projective(lab)[0]

    def test_blocks_share_no_module(self):
        a, b = load_block("sl2"), load_block("sl2")
        verify_block(a)
        verify_block(b)
        in_a = {id(M) for M in a.algebra._modules.values()}
        in_b = {id(M) for M in b.algebra._modules.values()}
        assert {id(M) for M in a.modules.values()} <= in_a
        assert in_a and not in_a & in_b
        # the two verifications built the same contents
        assert set(a.algebra._modules) == set(b.algebra._modules)

    def test_memo_hits_equal_fresh_builds(self):
        # every module verify_block builds, with every result kept on it,
        # against the same content built on a fresh parse
        block = load_block("sl2")
        verify_block(block)
        for M in list(block.algebra._modules.values()):
            A = load_block("sl2").algebra

            def fresh(N):
                return ModuleRep(A, N.dims, N.mats)

            M2 = fresh(M)
            M.validate()  # direct sums are not validated by their builder
            M2.validate()
            if M._cover is not None:
                P, labels, cov = projective_cover(M)
                P2, labels2, cov2 = projective_cover(M2)
                assert (P.dims, P.mats, labels, cov) == (P2.dims, P2.mats, labels2, cov2)
            for N, basis in list(M._homs.items()):
                assert hom_basis(M2, fresh(N)) == basis, (M, N)
            res = M._resolution
            if res is None:
                continue
            res2 = quiver._resolve(M2, None if res.complete else len(res.terms) - 1)
            assert [(P.dims, P.mats, labels) for P, labels in res.terms] == [
                (P.dims, P.mats, labels) for P, labels in res2.terms
            ]
            assert (res.diffs, res.aug, res.complete) == (res2.diffs, res2.aug, res2.complete)
            for N, ranks in list(res.ranks.items()):
                up_to = max(0, len(ranks) - 2)  # reads len(ranks) terms
                assert ext_dims(M2, fresh(N), up_to) == ext_dims(M, N, up_to)
                assert res2.ranks[fresh(N)] == ranks

    def test_a_fresh_parse_solves_again(self, monkeypatch):
        # no memo outlives its parsed block: a second verification does as
        # many hom-basis solves as the first
        from tiltc.mincpx import block as block_mod

        solves = []
        real = quiver.hom_basis

        def counted(M, N):
            solves.append(N not in M._homs)
            return real(M, N)

        for mod in (quiver, block_mod):
            monkeypatch.setattr(mod, "hom_basis", counted)
        counts = []
        for _ in range(2):
            solves.clear()
            verify_block(load_block("sl2"))
            counts.append(sum(solves))
        assert counts[0] == counts[1] > 0
        assert len(solves) > counts[1]  # and some requests were memo hits


class TestLifetime:
    """An algebra owns its intern table, and its modules refer to it weakly:
    a dropped block is freed by reference counts, with nothing left for the
    cyclic collector."""

    def test_a_verification_leaves_no_cyclic_garbage(self):
        while gc.collect():
            pass
        gc.disable()
        try:
            verify_block(load_block("sl2"))
            assert gc.collect() == 0
        finally:
            gc.enable()

    def test_dropping_the_block_frees_the_algebra(self):
        while gc.collect():
            pass
        gc.disable()
        try:
            block = load_block("sl2")
            verify_block(block)
            ref = weakref.ref(block.algebra)
            del block
            assert ref() is None
            assert gc.collect() == 0
        finally:
            gc.enable()

    def test_a_module_used_after_its_block_raises(self):
        block = load_block("sl2")
        M, N = block.module("std", "s"), block.module("costd", "e")
        ext_dims(M, N, 1)  # keeps a resolution and hom bases on the modules
        content = (M.dims, M.mats)
        del block
        # the content stays; everything that needs the algebra raises
        assert (M.dims, M.mats) == content
        with pytest.raises(ReferenceError, match="has been released"):
            M.algebra
        for use in (
            lambda: hom_basis(M, N),
            lambda: ext_dims(M, N, 1),
            lambda: projective_cover(M),
            lambda: direct_sum([M, N]),
        ):
            with pytest.raises(ReferenceError):
                use()


class TestVerifyBlock:
    def test_all_nine_suites(self, sl2_block):
        results = verify_block(sl2_block)
        assert [name for name, _ in results] == list(SUITE_NAMES)
        assert len(results) == 9

    def test_radical_modules_are_built_once(self, monkeypatch):
        # suite 8 reads the suite-6 radical modules instead of rebuilding them
        from tiltc.mincpx import block as block_mod

        calls = []
        real = block_mod._rad_std
        monkeypatch.setattr(
            block_mod, "_rad_std", lambda b, lab: calls.append(lab) or real(b, lab)
        )
        verify_block(load_block("sl2"))
        assert sorted(calls) == ["e", "s"]

    def test_projectives_are_approximated_once(self, monkeypatch):
        # the resolutions of the nine suites end in proj_s many times over, as
        # fresh objects; every module content, proj_s among them, is
        # approximated once: proj_s, one pushout and simple_e
        from tiltc.mincpx import block as block_mod

        calls = []
        real = block_mod._approximation
        monkeypatch.setattr(
            block_mod,
            "_approximation",
            lambda tcat, M: calls.append(M) or real(tcat, M),
        )
        block = load_block("sl2")
        verify_block(block)
        assert len(calls) == len(set(calls)) == 3
        assert block.algebra.projective("s")[0] in calls
        assert block.module("simple", "e") in calls

    def test_each_complex_is_built_once(self, monkeypatch):
        # suites 3, 4 and 6 ask for 9 complexes, but std_e, simple_e and the
        # radical of std_s are one content: 3 contents, each in both scans
        from tiltc.mincpx import block as block_mod

        calls = []
        real = block_mod.cmin_module
        monkeypatch.setattr(
            block_mod,
            "cmin_module",
            lambda tcat, M, scan="forward": calls.append((M, scan))
            or real(tcat, M, scan),
        )
        verify_block(load_block("sl2"))
        assert len(calls) == len(set(calls)) == 6
        assert sorted(scan for _, scan in calls) == ["backward"] * 3 + ["forward"] * 3

    def test_benchmark_tracer_counts_the_oracle_layers(self):
        # perfbench/layers.py wraps oracle functions by name; a rename in src
        # must fail here rather than read as a zero per-layer metric
        script = (
            "import json, sys\n"
            "sys.path.insert(0, 'perfbench')\n"
            "from layers import Tracer, install\n"
            "from tiltc.mincpx import load_block, verify_block\n"
            "tracer = Tracer()\n"
            "install(tracer)\n"
            "try:\n"
            "    verify_block(load_block('sl2'))\n"
            "finally:\n"
            "    tracer.close()\n"
            "print(json.dumps({k: st.calls for k, st in tracer.stats.items()}))\n"
        )
        root = Path(__file__).resolve().parent.parent
        env = dict(os.environ, PYTHONPATH=str(root / "src"))
        proc = subprocess.run(
            [sys.executable, "-c", script],
            cwd=root, env=env, capture_output=True, text=True,
        )
        assert proc.returncode == 0, proc.stderr
        calls = json.loads(proc.stdout)
        assert calls["mincpx.cmin_module"] == 6
        assert calls["mincpx.minimize"] == 6
        for layer in ("mincpx.hom_basis", "mincpx.ext_dims", "mincpx.linalg"):
            assert calls.get(layer, 0) > 0, layer

    def test_formula_agreement_is_exact(self, sl2_block, sl2_tcat):
        # independent spot check of the suite-9 comparison for the simple
        # object indexed by the reflection
        from tiltc.coxeter import CoxeterSystem
        from tiltc.hecke import HeckeContext
        from tiltc.tilting import CategoryO

        setting = CategoryO(
            HeckeContext(CoxeterSystem.from_type("A1")), I=(), J=()
        )
        entries = dict(setting.simple_table((1,)).entries)
        cpx, _ = cmin_module(sl2_tcat, sl2_block.module("simple", "s"))
        counts = cpx.label_counts()
        assert entries[()].coeff(-1) == counts[-1]["e"]
        assert entries[()].coeff(1) == counts[1]["e"]
        assert entries[(1,)].coeff(0) == counts[0]["s"]


# -- pins taken before the full-shape refactor of the oracle ---------------------------


# ext_dims(M, N, 4) over the 12 sl2 modules: row M, one five-digit group per N,
# both in sorted module-name order
SL2_EXT_TABLE = {
    "costd_e": "10000 00000 10000 00000 10000 11000 10000 01000 10000 11000 10000 10000",
    "costd_s": "11000 10000 10000 10000 10000 11100 11000 00100 11000 11100 11000 10000",
    "inj_e": "10000 10000 20000 10000 20000 10000 10000 00000 10000 10000 10000 20000",
    "inj_s": "11000 10000 10000 10000 10000 11100 11000 00100 11000 11100 11000 10000",
    "proj_e": "10000 10000 20000 10000 20000 10000 10000 00000 10000 10000 10000 20000",
    "proj_s": "00000 10000 10000 10000 10000 10000 00000 10000 00000 10000 00000 10000",
    "simple_e": "10000 00000 10000 00000 10000 11000 10000 01000 10000 11000 10000 10000",
    "simple_s": "01000 10000 00000 10000 00000 00100 01000 10100 01000 00100 01000 00000",
    "std_e": "10000 00000 10000 00000 10000 11000 10000 01000 10000 11000 10000 10000",
    "std_s": "00000 10000 10000 10000 10000 10000 00000 10000 00000 10000 00000 10000",
    "tilt_e": "10000 00000 10000 00000 10000 11000 10000 01000 10000 11000 10000 10000",
    "tilt_s": "10000 10000 20000 10000 20000 10000 10000 00000 10000 10000 10000 20000",
}

ORACLE_VERIFY_SL2_SHA256 = (
    "e93e47ccbc55ed599dc9345706626f72271baa2fde08b6d2e3da230af97c19a0"
)
ORACLE_DEMO_SHA256 = "76ca0424c5cb9a0a1299f25fa0d1d3a4d6de1f5d5102bc027d4137647a1515c9"


# summary() and diffs of cmin_module over the 12 sl2 modules, the radical of
# std_s and three direct sums (named by their parts), equal in both scans,
# each diff component read in hom-basis coordinates by coordinatize; taken
# from the builder that spliced coresolutions with mapping cones
CMIN_PINS = {
    "costd_e": ("[0: e]", {}),
    "costd_s": ("[-1: e] [0: s]", {-1: (((-1,),),)}),
    "inj_e": ("[0: s]", {}),
    "inj_s": ("[-1: e] [0: s]", {-1: (((-1,),),)}),
    "proj_e": ("[0: s]", {}),
    "proj_e+proj_s+std_s": (
        "[0: 3*s] [1: 2*e]",
        {0: (((0,), (1,), (0,)), ((0,), (0,), (1,)))},
    ),
    "proj_s": ("[0: s] [1: e]", {0: (((1,),),)}),
    "rad_std_s": ("[0: e]", {}),
    "simple_e": ("[0: e]", {}),
    "simple_s": ("[-1: e] [0: s] [1: e]", {-1: (((-1,),),), 0: (((1,),),)}),
    "simple_s+costd_s": (
        "[-1: 2*e] [0: 2*s] [1: e]",
        {-1: (((-1,), (0,)), ((0,), (-1,))), 0: (((0,), (1,)),)},
    ),
    "std_e": ("[0: e]", {}),
    "std_s": ("[0: s] [1: e]", {0: (((1,),),)}),
    "tilt_e": ("[0: e]", {}),
    "tilt_s": ("[0: s]", {}),
    "tilt_s+tilt_s": ("[0: 2*s]", {}),
}


def _pinned_module(block, name):
    from tiltc.mincpx.block import _rad_std

    if name == "rad_std_s":
        return _rad_std(block, "s")[0]
    parts = name.split("+")
    if len(parts) == 1:
        return block.modules[name]
    return direct_sum([block.modules[p] for p in parts])


def _coordinates(tcat, cpx):
    """The differentials of cpx, each component in hom-basis coordinates."""
    return {
        n: tuple(
            tuple(
                tcat.coordinatize(s, t, cpx.component(n, i, j))
                for j, s in enumerate(cpx.term(n))
            )
            for i, t in enumerate(cpx.term(n + 1))
        )
        for n in cpx.diffs
    }


class TestOraclePins:
    def test_sl2_ext_table(self):
        block = load_block("sl2")
        mods = block.modules
        names = sorted(mods)
        assert names == sorted(SL2_EXT_TABLE)
        for m in names:
            got = " ".join(
                "".join(map(str, ext_dims(mods[m], mods[n], 4))) for n in names
            )
            assert got == SL2_EXT_TABLE[m], m

    @pytest.mark.parametrize("scan", ["forward", "backward"])
    @pytest.mark.parametrize("name", sorted(CMIN_PINS))
    def test_cmin_summary_and_diffs(self, sl2_block, name, scan):
        tcat = TiltingCategory(sl2_block)
        cpx, _ = cmin_module(tcat, _pinned_module(sl2_block, name), scan)
        assert (cpx.summary(), _coordinates(tcat, cpx)) == CMIN_PINS[name]

    def test_oracle_verify_stdout(self, capsys):
        from tiltc.cli import main

        assert main(["oracle", "verify", "--block", "sl2"]) == 0
        out, _ = capsys.readouterr()
        assert hashlib.sha256(out.encode()).hexdigest() == ORACLE_VERIFY_SL2_SHA256

    def test_oracle_demo_stdout(self):
        root = Path(__file__).resolve().parent.parent
        env = dict(os.environ, PYTHONPATH=str(root / "src"))
        proc = subprocess.run(
            [sys.executable, "scripts/oracle_demo.py"],
            cwd=root, env=env, capture_output=True, check=True,
        )
        assert hashlib.sha256(proc.stdout).hexdigest() == ORACLE_DEMO_SHA256
