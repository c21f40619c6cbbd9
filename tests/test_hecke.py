"""Self-dual bases, parabolic modules, inverse families, persistence."""

import hashlib
import json
import multiprocessing
import os
import re
from collections import defaultdict
from types import MappingProxyType

import pytest
from hypothesis import example, given, settings, strategies as st

from bar_reference import bar_expand, is_selfdual
from planting import garble, plant_computed, read_store, write_store
from tiltc import hecke
from tiltc.coxeter import CoxeterSystem, format_word, parse_word
from tiltc.errors import CacheError, InternalInvariantError, ValidationError
from tiltc.hecke import SLOT, HeckeContext, PolyStore, _pack, _unpack, family_id
from tiltc.laurent import ONE, ZERO, LaurentPoly

A1 = CoxeterSystem.from_type("A1")
A2 = CoxeterSystem.from_type("A2")
A3 = CoxeterSystem.from_type("A3")
B2 = CoxeterSystem.from_type("B2")
B3 = CoxeterSystem.from_type("B3")
G2 = CoxeterSystem.from_type("G2")
AFF1 = CoxeterSystem.from_type("affA1")
AFF2 = CoxeterSystem.from_type("affA2")
# the header fields of an A3 store file, but for its record count and checksum
A3_STORE_HEAD = {"format": 1, "normalization": 1, "system": "A3", "generators": 3}


def ctx(system):
    return HeckeContext(system)


def words(system, max_len):
    return st.lists(st.sampled_from(system.names), max_size=max_len).map(tuple)


class TestOrdinaryColumns:
    def test_identity_column(self):
        c = ctx(A2)
        assert c.kl_column(A2.identity) == {A2.identity: ONE}

    def test_S3_all_trivial(self):
        c = ctx(A2)
        els = A2.enumerate_below(A2.longest_element())
        for y in els:
            col = c.kl_column(y)
            for x in els:
                expected = (
                    LaurentPoly.v(y.length - x.length) if A2.bruhat_leq(x, y) else ZERO
                )
                assert col.get(x, ZERO) == expected

    def test_S4_nontrivial_value(self):
        c = ctx(A3)
        x, y = A3.element([2]), A3.element([2, 1, 3, 2])
        assert c.kl_column(y)[x] == LaurentPoly({1: 1, 3: 1})

    def test_dihedral_all_trivial(self):
        c = ctx(B2)
        w0 = B2.longest_element()
        col = c.kl_column(w0)
        for x in B2.enumerate_below(w0):
            assert col[x] == LaurentPoly.v(w0.length - x.length)

    def test_mu(self):
        c = ctx(A3)
        y = A3.element([2, 1, 3, 2])
        assert c.mu(A3.element([2]), y) == 1
        assert c.mu(A3.element([2, 1]), y) == 0
        assert c.mu(A3.element([2, 1, 3]), y) == 1

    def test_kl_basis_vector(self):
        c = ctx(A2)
        s1 = A2.element([1])
        assert c.kl_column(s1) == {A2.identity: LaurentPoly.v(1), s1: ONE}

    @given(words(B2, 8))
    @settings(max_examples=30, deadline=None)
    def test_selfdual_B2(self, w):
        c = ctx(B2)
        y = B2.element(w)
        assert is_selfdual(c, "h", (), c.kl_column(y))

    @given(words(AFF2, 5))
    @settings(max_examples=20, deadline=None)
    def test_selfdual_affine(self, w):
        c = ctx(AFF2)
        y = AFF2.element(w)
        assert is_selfdual(c, "h", (), c.kl_column(y))

    def test_degree_and_parity_bounds(self):
        c = ctx(A3)
        for y in A3.enumerate_below(A3.longest_element()):
            for x, p in c.kl_column(y).items():
                diff = y.length - x.length
                assert p.has_parity(diff)
                assert p.max_degree() <= diff
                if x != y:
                    assert p.min_degree() >= 1


class TestSphericalReduction:
    """h columns are read off m^{L(y)}: check them by two other routes."""

    @given(
        st.one_of(
            st.tuples(st.just(system), words(system, max_len))
            for system, max_len in [(A3, 6), (B3, 9), (G2, 6), (AFF2, 6)]
        )
    )
    @example((B3, (1, 2, 3, 1, 2, 3, 1, 2, 3)))
    @example((AFF2, (0, 1, 2, 0, 1, 0)))
    @settings(max_examples=40, deadline=None)
    def test_selfdual_and_mirror(self, case):
        system, w = case
        c = ctx(system)
        y = system.element(w)
        col = c.kl_column(y)
        # unitriangular and bar-invariant: the self-dual basis element itself
        assert is_selfdual(c, "h", (), col)
        # h_{x,y} = h_{x^-1,y^-1}, read from the column of y^-1
        assert c.kl_column(y.inverse()) == {x.inverse(): p for x, p in col.items()}

    def test_longest_element_column_E6(self):
        E6 = CoxeterSystem.from_type("E6")
        w0 = E6.longest_element()
        col = ctx(E6).kl_column(w0)
        assert len(col) == 51840
        assert all(p == LaurentPoly.v(w0.length - x.length) for x, p in col.items())

    def test_the_mK_check_guards_h_columns(self, monkeypatch):
        # an h column is not checked again, so a constant term off the
        # diagonal of the m^K column it expands must be caught when m^K is built
        product = HeckeContext._product_column

        def bad_product(self, fam, I, y, fid):  # y is an element id
            col = product(self, fam, I, y, fid)
            return {u: n + (u != y) for u, n in col.items()}

        monkeypatch.setattr(HeckeContext, "_product_column", bad_product)
        y = A3.element((1, 2))  # L(y) = {1}: read off the m[1] column of 2
        with pytest.raises(InternalInvariantError, match="computed column .* of m\\[1\\]"):
            ctx(A3).kl_column(y)


@pytest.mark.parametrize("slot", [3, 4])
def test_narrow_slots_give_the_column_or_raise(monkeypatch, slot):
    # h columns of B4 reach the coefficient 5: with 3 or 4 bits per packed
    # slot some columns stay inside their bound and some must raise, and no
    # column may differ from the one packed at the full width
    W = CoxeterSystem.from_type("B4")
    wide = ctx(W)
    want = {y: dict(wide.kl_column(y).items()) for y in W.enumerate_below(W.longest_element())}
    assert max(abs(c) for col in want.values() for p in col.values() for _, c in p) == 5
    monkeypatch.setattr(hecke, "SLOT", slot)
    narrow, raised = ctx(W), 0
    for y, col in want.items():
        try:
            got = dict(narrow.kl_column(y).items())
        except InternalInvariantError as exc:
            assert "-bit slot" in str(exc)
            raised += 1
            continue
        assert got == col, y
    assert 0 < raised < len(want)


class TestSingleEntries:
    """poly reads one h entry off m^{L(y)}, building no h column."""

    @pytest.mark.parametrize(
        "tag,max_len",
        [("A3", None), ("B3", None), ("G2", None), ("A4", None), ("affA2", 7), ("affB2", 6)],
    )
    def test_entry_is_the_column_entry(self, tag, max_len):
        system = CoxeterSystem.from_type(tag)
        elements, _ = system.quotient_reps((), max_len=max_len)
        columns, entries = ctx(system), ctx(system)
        zeros = 0
        for y in elements:  # the identity column first
            col = columns.kl_column(y)
            for x in elements:
                want = col.get(x, ZERO)
                zeros += not want
                assert entries.poly("h", (), x, y) == want, (x, y)
                assert entries.poly("m", (), x, y) == entries.poly("n", (), x, y) == want
                assert entries.mu(x, y) == want.coeff(1), (x, y)
        assert zeros and elements[0].is_identity()
        assert not {fid for fid, _ in entries._columns} & {"h", "m[]", "n[]"}

    @pytest.mark.parametrize("tag", ["A4", "B3"])
    def test_entry_builds_no_walk_of_the_parabolic(self, tag):
        # the shift of an entry needs l(w_K) alone, not the elements of W_K
        system = CoxeterSystem.from_type(tag)
        elements, _ = system.quotient_reps(())
        c = ctx(system)
        got = {(x, y): c.poly("h", (), x, y) for y in elements for x in elements}
        assert c._walks == {}
        for y in elements:
            col = c.kl_column(y)
            for x in elements:
                assert got[x, y] == col.get(x, ZERO), (x, y)
        assert c._walks
        # the expansion shifts each distinct m^K entry once per l(w_K)
        assert c._shifts
        for top, shifts in c._shifts.items():
            for n, shifted in shifts.items():
                assert shifted == [n << SLOT * d for d in range(top + 1)]

    @pytest.mark.parametrize("where", ["below-v", "diagonal"])
    def test_entry_check_fires(self, where, monkeypatch):
        # x = u x' below y = w_K y' reads m^K at x', shifted by l(w_K) - l(u);
        # a wrong m^K entry is refused by the gate as the m^K column is built,
        # so no h entry is read off it
        y = A3.element([2, 1, 3, 2])
        K = A3.check_names(y.left_descents())
        wK, y0 = A3.longest_element(K), A3.project(y, K, "left")
        if where == "below-v":  # x = w_K: no shift, so a constant term stays below v
            x, x0, bad = wK, A3.identity, ONE
        else:  # h_{y,y} = m^K_{y',y'} must be 1
            x, x0, bad = y, y0, LaurentPoly.v(2)
        key = (family_id("m", K), y0.word)
        plant_computed(monkeypatch, *key, x0.word, bad)
        c = ctx(A3)
        with pytest.raises(
            InternalInvariantError, match=rf"computed column {y0!r} of {re.escape(key[0])} .*violating unitriangularity"
        ):
            c.poly("h", (), x, y)
        assert (key[0], y0.id) not in c._columns  # never memoized, so never read


class TestGate:
    """Every m and n column passes _check_column once, as it is memoized."""

    def test_negative_coefficient_in_a_computed_m_column(self, monkeypatch):
        # an m entry is an h value, so a coefficient below 0 is refused even
        # where it keeps the parity of the length difference
        I = (1,)
        y = A3.project(A3.longest_element(), I, "left")
        clean = ctx(A3).parabolic_column("m", I, y)
        x, p = next((x, p) for x, p in clean.items() if x != y)
        e, k = p.terms[0]
        plant_computed(monkeypatch, "m[1]", y.word, x.word, LaurentPoly({e: -k - 1}))
        c = ctx(A3)
        with pytest.raises(
            InternalInvariantError,
            match=rf"computed column {y!r} of m\[1\] has .* at {x!r}, .*parity or positivity",
        ):
            c.parabolic_column("m", I, y)
        assert ("m[1]", y.id) not in c._columns

    def test_negative_coefficient_in_an_n_column_passes(self, monkeypatch):
        # n entries are not h values: the gate checks their parity only
        I = (1,)
        y = A3.project(A3.longest_element(), I, "left")
        clean = ctx(A3).parabolic_column("n", I, y)
        x, p = next((x, p) for x, p in clean.items() if x != y)
        e, k = p.terms[0]
        plant_computed(monkeypatch, "n[1]", y.word, x.word, LaurentPoly({e: -k - 1}))
        assert ctx(A3).parabolic_column("n", I, y)[x].coeff(e) == -1

    @pytest.mark.parametrize("fam", ["m", "n"])
    def test_wrong_parity_in_a_computed_column(self, fam, monkeypatch):
        I = (1,)
        y = A3.project(A3.longest_element(), I, "left")
        clean = ctx(A3).parabolic_column(fam, I, y)
        x = next(x for x in clean if x != y)
        plant_computed(monkeypatch, family_id(fam, I), y.word, x.word, LaurentPoly.v(y.length - x.length + 1))
        with pytest.raises(InternalInvariantError, match=r"computed column .*, parity"):
            ctx(A3).parabolic_column(fam, I, y)

    def test_each_column_is_gated_once(self, monkeypatch):
        # direct columns, h columns read off them, single h entries and
        # inverse columns: each m and n column passes the gate once, and
        # the gate's bound is the largest coefficient of the column
        gated = []
        real = HeckeContext._check_column

        def spy(self, col, y, fid, loaded):  # y is an element id
            bound = real(self, col, y, fid, loaded)
            gated.append((fid, y))
            assert bound == max(abs(k) for n in col.values() for _, k in self._poly(n))
            return bound

        monkeypatch.setattr(HeckeContext, "_check_column", spy)
        c = ctx(B3)
        for y in B3.quotient_reps((), max_len=6)[0]:
            c.kl_column(y)
            c.poly("h", (), B3.identity, y)
            c.inverse_column("n", (2,), B3.project(y, (2,), "left"))
        assert len(gated) == len(set(gated)) == sum(fid != "h" for fid, _ in c._columns)


class TestParabolicColumns:
    def test_affine_A1_values(self):
        c = ctx(AFF1)
        y = AFF1.element([0, 1])
        n = c.parabolic_column("n", (1,), y)
        m = c.parabolic_column("m", (1,), y)
        assert n[AFF1.element([0])] == LaurentPoly.v(1)
        assert AFF1.identity not in n  # coordinate vanishes
        assert m[AFF1.identity] == LaurentPoly.v(2)

    def test_empty_I_specializes_to_ordinary(self):
        c = ctx(A3)
        for y in A3.enumerate_below(A3.element([1, 2, 3])):
            h = c.kl_column(y)
            assert c.parabolic_column("m", (), y) == h
            assert c.parabolic_column("n", (), y) == h

    @pytest.mark.parametrize("system", [A3, AFF1], ids=["A3", "affA1"])
    def test_empty_I_columns_are_held_once(self, system):
        # either module with I = () is the Hecke algebra: one context computes
        # and memoizes its direct and inverse columns once, as h, next to the
        # m[L(y)] columns its h columns are read off; the m and n columns with
        # I = () read the one packed h column and memoize none of their own
        c = ctx(system)
        for y in system.quotient_reps((), max_len=6)[0]:
            h = c.kl_column(y)
            held = dict(c._columns)
            for fam in ("m", "n"):
                assert c.parabolic_column(fam, (), y) == h
                assert c.inverse_column(fam, (), y) is c.inverse_column("h", (), y)
            assert c._columns == held and ("h", y.id) in held
        assert {fid for fid, _ in c._inverses} == {"h_inv"}
        fids = {fid for fid, _ in c._columns}
        assert "h" in fids
        assert all(fid.startswith("m[") and fid != "m[]" for fid in fids - {"h"})

    def test_membership_validated(self):
        c = ctx(A2)
        with pytest.raises(ValidationError):
            c.parabolic_column("n", (1,), A2.element([1]))

    @pytest.mark.parametrize("fam", ["m", "n"])
    def test_recursion_refuses_a_base_entry_below_v(self, fam):
        # C_{ys} C_s is summed as v times each value, so a constant term off
        # the diagonal of the memoized C_{ys} leaves a v^-1 digit, which must
        # be empty
        c, I = ctx(A3), (1,)
        y = A3.project(A3.longest_element(), I, "left")
        ys = y.times_gen(min(y.right_descents()), "right")
        c.parabolic_column(fam, I, ys)
        key = (family_id(fam, I), ys.id)
        col, bound = c._columns[key]
        c._columns[key] = {u: n + (u != ys.id) for u, n in col.items()}, bound
        with pytest.raises(InternalInvariantError, match="has a v\\^-1 term"):
            c.parabolic_column(fam, I, y)

    def test_unknown_family(self):
        with pytest.raises(ValidationError):
            ctx(A2).parabolic_column("x", (), A2.identity)

    @given(
        st.sampled_from(["m", "n"]),
        st.one_of(
            st.tuples(st.just(system), st.just(I), words(system, max_len))
            for system, I, max_len in [(AFF2, (1,), 5), (A3, (1, 3), 6), (B3, (2,), 9)]
        ),
    )
    @example("m", (A3, (1, 3), (1, 2, 3, 1, 2, 1)))
    @example("n", (B3, (2,), (1, 2, 3, 1, 2, 3, 1, 2, 3)))
    @settings(max_examples=30, deadline=None)
    def test_selfdual_parabolic(self, fam, case):
        system, I, w = case
        c = ctx(system)
        y = system.project(system.element(w), I, "left")
        col = c.parabolic_column(fam, I, y)
        assert is_selfdual(c, fam, I, col)

    def test_support_in_index_set(self):
        c = ctx(A3)
        I = (1, 3)
        y = A3.project(A3.longest_element(), I, "left")
        for fam in ("m", "n"):
            for x in c.parabolic_column(fam, I, y):
                assert A3.is_minimal(x, I, "left")
                assert A3.bruhat_leq(x, y)


class TestProductRecursion:
    # with s the last letter of y's normal form, the bases below a column run
    # down the prefixes of its word; the smallest right descent took 239, 184
    # and 237 columns for these three
    @pytest.mark.parametrize(
        "tag, word, most",
        [
            ("D5", None, 21),
            ("A6", None, 21),
            ("D5", "2 1 3 2 1 4 3 2 1 5 3 2 1 4 3 2 5 3", 20),
        ],
        ids=["D5-top", "A6-top", "D5-pool"],
    )
    def test_an_n_column_memoizes_its_prefix_chain(self, tag, word, most):
        W = CoxeterSystem.from_type(tag)
        # the top-length n[1] column is that of w_I w_0, I = (1,)
        y = W.element(parse_word(word)) if word else W.project(W.longest_element(), (1,), "left")
        c = HeckeContext(W)
        c.parabolic_column("n", (1,), y)
        assert len(c._columns) <= most

    @pytest.mark.parametrize("fam, built", [("n", 1051), ("m", 1123)])
    def test_a_product_leaves_unbuilt_the_steps_out_of_the_index_set(self, fam, built):
        # for x in W^I, x*s leaves W^I exactly when x(alpha_s) = +alpha_t with
        # t in I, and is then t*x, read off x without building x*s: the fresh
        # top-length D5 n[1] and m[1] columns built 1100 and 1196 elements
        # when every x*s was built
        W = CoxeterSystem.from_type("D5")
        y = W.project(W.longest_element(), (1,), "left")
        before = len(W._len)
        c = HeckeContext(W)
        c.parabolic_column(fam, (1,), y)
        assert len(W._len) - before == built
        # every column is the one computed where every element and step is built
        full = CoxeterSystem.from_type("D5")
        full.enumerate_below(full.longest_element())
        for u in range(len(full._len)):
            for i in range(full.rank):
                full._step(u, i)
        assert len(full._len) == 1920
        c_full = HeckeContext(full)
        c_full.parabolic_column(fam, (1,), full.element(y.word))

        def by_word(ctx):
            word = ctx.system._words(range(len(ctx.system._len)))
            return {
                (fid, word[y]): {word[u]: n for u, n in col.items()}
                for (fid, y), (col, _) in ctx._columns.items()
            }

        assert by_word(c) == by_word(c_full)

    @pytest.mark.parametrize("fam", ["n", "m"])
    def test_the_leaving_test_runs_only_where_x_s_is_longer(self, fam, monkeypatch):
        # x*s < x is a prefix of x in W^I, so it stays in W^I and needs no
        # Deodhar test: _simple_image is read only for x*s > x
        simple_image, calls = hecke._simple_image, []

        def spy(W, u, i):  # u is an element id
            assert not W._rd[u] >> i & 1, (u, i)
            calls.append(u)
            return simple_image(W, u, i)

        W = CoxeterSystem.from_type("D5")
        y = W.project(W.longest_element(), (1,), "left")
        monkeypatch.setattr(hecke, "_simple_image", spy)
        HeckeContext(W).parabolic_column(fam, (1,), y)
        assert calls


class TestBarInvolution:
    @pytest.mark.parametrize(
        "system, max_len", [(B3, None), (AFF2, 5)], ids=["B3", "affA2"]
    )
    @pytest.mark.parametrize(
        "fam, I", [("h", ()), ("m", (1,)), ("n", (1,))], ids=["h", "m[1]", "n[1]"]
    )
    def test_bar_is_an_involution(self, system, max_len, fam, I):
        c = ctx(system)
        reps, _ = system.quotient_reps(I, "left", max_len=max_len)
        for x in reps:
            assert bar_expand(c, fam, I, bar_expand(c, fam, I, {x: ONE})) == {x: ONE}


class TestInverseColumns:
    def test_A1(self):
        c = ctx(A1)
        col = c.inverse_column("h", (), A1.element([1]))
        assert col[A1.identity] == LaurentPoly.v(1)

    def test_affine_dihedral_inverse_is_length_power(self):
        c = ctx(AFF1)
        for w in [(0,), (0, 1), (0, 1, 0), (1, 0, 1, 0)]:
            x = AFF1.element(w)
            col = c.inverse_column("h", (), x)
            for y, p in col.items():
                assert p == LaurentPoly.v(x.length - y.length)

    def test_antispherical_inverse_affine_A1(self):
        c = ctx(AFF1)
        col = c.inverse_column("n", (1,), AFF1.element([0, 1]))
        assert col[AFF1.identity] == LaurentPoly.v(2)
        assert col[AFF1.element([0])] == LaurentPoly.v(1)

    def test_w0_twist_on_S3_and_B2(self):
        for sys in (A2, B2):
            c = ctx(sys)
            w0 = sys.longest_element()
            els = sys.enumerate_below(w0)
            for x in els:
                col = c.inverse_column("h", (), x)
                for y in els:
                    assert col.get(y, ZERO) == c.kl_column(w0 * y).get(w0 * x, ZERO)

    def test_membership_validated(self):
        with pytest.raises(ValidationError):
            ctx(A2).inverse_column("n", (1,), A2.element([1]))

    def test_inversion_identity_explicit(self):
        # mirror of the internal re-verification, as an external contract
        c = ctx(A3)
        x = A3.element([1, 2, 3, 2])
        col = c.inverse_column("h", (), x)
        for u in A3.enumerate_below(x):
            total = ZERO
            for z in A3.enumerate_below(x):
                if A3.bruhat_leq(u, z) and z in col:
                    sign = -1 if (u.length + z.length) % 2 else 1
                    total = total + c.kl_column(z).get(u, ZERO) * col[z] * sign
            assert total == (ONE if u == x else ZERO)

    @pytest.mark.parametrize(
        "system, fam, I", [(B3, "h", ()), (A3, "n", (1,))], ids=["B3-h", "A3-n[1]"]
    )
    def test_inversion_check_catches_a_flipped_sign(self, system, fam, I):
        c = ctx(system)
        reps, _ = system.quotient_reps(I, "left")
        x = max(reps, key=lambda w: w.length)
        col = c.inverse_column(fam, I, x)
        assert len(col) > 1
        assert c._inversion_residue(fam, I, *packed({x: ONE}, col), SLOT) == {}
        for z in col:
            flipped = {**col, z: -col[z]}
            assert c._inversion_residue(fam, I, *packed({x: ONE}, flipped), SLOT)

    COMBINATION_CASES = [
        (A3, "h", (), None),
        (B3, "h", (), None),
        (A3, "n", (1,), None),
        (A3, "m", (1,), None),
        (AFF1, "h", (), 5),
    ]

    @staticmethod
    def seeds_of(system, I, max_len):
        """Mixed-parity Laurent seeds on every third element of the index set."""
        reps, _ = system.quotient_reps(I, "left", max_len=max_len)
        coeffs = [ONE, LaurentPoly({-1: 2, 2: -1}), LaurentPoly.v(3), LaurentPoly({0: -1, 1: 1})]
        return {a: coeffs[k % len(coeffs)] for k, a in enumerate(reps[::3])}

    @pytest.mark.parametrize(
        "system, fam, I, max_len", COMBINATION_CASES,
        ids=["A3-h", "B3-h", "A3-n[1]", "A3-m[1]", "affA1-h"],
    )
    def test_combination_is_the_sum_of_inverse_columns(self, system, fam, I, max_len):
        seeds = self.seeds_of(system, I, max_len)
        assert len(seeds) > 2
        c = ctx(system)
        expected = defaultdict(lambda: ZERO)
        for a, p in seeds.items():
            for y, q in c.inverse_column(fam, I, a).items():
                expected[y] = expected[y] + p * q
        got = ctx(system).inverse_combination(fam, I, seeds)
        assert got == {y: q for y, q in expected.items() if q}

    def test_combination_of_one_seed_is_the_inverse_column(self):
        x = A3.element((1, 2, 3, 2, 1))
        assert ctx(A3).inverse_combination("h", (), {x: ONE}) == ctx(A3).inverse_column("h", (), x)
        assert ctx(A3).inverse_combination("h", (), {}) == {}

    def test_combination_seed_outside_the_index_set(self):
        c = ctx(A3)
        seeds = {A3.element((2, 3)): ONE, A3.element((1, 2)): LaurentPoly.v(1)}
        with pytest.raises(ValidationError, match="1 2 is not in the index set of n\\[1\\]"):
            c.inverse_combination("n", (1,), seeds)
        with pytest.raises(ValidationError, match="unknown family"):
            c.inverse_combination("q", (), {A3.identity: ONE})

    def test_combination_raises_when_the_identity_fails(self, monkeypatch):
        c = ctx(A3)
        x = A3.element((1, 2, 3))
        monkeypatch.setattr(c, "_inversion_residue", lambda *args: {A3.identity.id: 1})
        with pytest.raises(InternalInvariantError, match="h_inv: inversion identity fails at"):
            c.inverse_combination("h", (), {x: ONE})

    @pytest.mark.parametrize(
        "system, fam, I, max_len", COMBINATION_CASES,
        ids=["A3-h", "B3-h", "A3-n[1]", "A3-m[1]", "affA1-h"],
    )
    def test_combination_residue_catches_one_corrupted_entry(self, system, fam, I, max_len):
        seeds = self.seeds_of(system, I, max_len)
        c = ctx(system)
        got = c.inverse_combination(fam, I, seeds)
        fam_key = fam if I else "h"
        assert c._inversion_residue(fam_key, I, *packed(seeds, got), SLOT) == {}
        for y in got:
            for bad in (got[y] + LaurentPoly.v(1), ZERO):
                assert c._inversion_residue(fam_key, I, *packed(seeds, {**got, y: bad}), SLOT)

    def test_positivity_on_small_grid(self):
        for sys, I in [(A3, ()), (A3, (2,)), (AFF2, (1,)), (B2, (1,))]:
            c = ctx(sys)
            reps, _ = sys.quotient_reps(I, "left", max_len=4)
            for fam in ("m", "n"):
                for x in reps:
                    for p in c.inverse_column(fam, I, x).values():
                        assert p.is_nonneg()


polys = st.dictionaries(st.integers(-4, 4), st.integers(-3, 3)).map(LaurentPoly)
OFF = 8  # an offset that lifts every exponent of these tests above 0


def at(p):
    """v^OFF p packed at SLOT, as a solve holds its seeds and values."""
    return _pack(p.terms, SLOT, OFF)


def packed(*columns):
    """Columns {element: polynomial}, each entry packed by at()."""
    return [{x.id: at(p) for x, p in col.items()} for col in columns]


class TestRawAccumulator:
    """The packed multiply-accumulate and the finish step behind every column.

    Sums are ints keyed by element id; _finish drops zeros and interns.
    """

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(
            st.tuples(st.integers(0, 3), polys, polys, st.sampled_from((1, -1))),
            max_size=12,
        ),
        st.lists(st.tuples(polys, polys), max_size=4),
    )
    def test_finish_equals_operator_sum(self, products, cancelled):
        c = ctx(A2)
        keys = sorted(A2.enumerate_below(A2.longest_element()))
        acc = defaultdict(int)
        expected = {}
        for k, p, q, sign in products:
            acc[keys[k].id] += sign * at(p) * at(q)
            expected[keys[k]] = expected.get(keys[k], ZERO) + p * q * sign
        # products that cancel exactly: their entry finishes as 0 and is dropped
        for p, q in cancelled:
            acc[keys[5].id] += at(p) * at(q) + at(q) * at(-p)
        col = c._finish(acc)
        # each product of two values at offset OFF sits at offset 2 OFF
        decoded = {A2._handle(u): LaurentPoly._from_terms(_unpack(n, SLOT, 2 * OFF)) for u, n in col.items()}
        assert decoded == {u: p for u, p in expected.items() if p}
        assert keys[5].id not in col
        for u in col:
            for w in col:
                if col[u] == col[w]:
                    assert col[u] is col[w]

    def test_equal_entries_are_shared_within_a_context(self):
        c = ctx(A3)
        y = A3.longest_element()
        # h_{x,w0} = v^(l(w0) - l(x)): one shared object per length
        col = c.kl_column(y)
        by_length = {x.length: p for x, p in col.items()}
        assert len(by_length) < len(col)
        assert all(p is by_length[x.length] for x, p in col.items())
        twice = c._finish({y.id: (1 << SLOT) * (2 << SLOT)})[y.id]  # v * 2v
        assert c._finish({y.id: (2 << SLOT) * (1 << SLOT)})[y.id] is twice
        assert ctx(A3)._finish({y.id: (2 << SLOT) * (1 << SLOT)})[y.id] is not twice

    @settings(max_examples=200, deadline=None)
    @given(
        st.dictionaries(
            st.integers(-6, 12),
            st.integers(-(1 << (SLOT - 1)) + 1, (1 << (SLOT - 1)) - 1),
            max_size=8,
        ),
        st.integers(0, 3),
    )
    @example({0: (1 << (SLOT - 1)) - 1, 1: -(1 << (SLOT - 1)) + 1, 3: -1}, 0)
    @example({-6: -1, 12: 1}, 0)
    def test_pack_then_decode_is_the_identity(self, coeffs, extra):
        p = LaurentPoly(coeffs)
        off = max([0] + [-e for e in coeffs]) + extra
        n = _pack(p.terms, SLOT, off)
        assert _unpack(n, SLOT, off) == p.terms

    @settings(max_examples=300, deadline=None)
    @given(
        st.sampled_from([SLOT, 2 * SLOT, 4 * SLOT]),
        st.integers(0, 3),
        st.integers(-(1 << 600), 1 << 600),
    )
    @example(SLOT, 0, -1)
    @example(SLOT, 1, 1 << (SLOT - 1))
    @example(2 * SLOT, 3, -(1 << (2 * SLOT - 1)) << 5 * SLOT)
    def test_decode_then_pack_is_the_identity(self, width, off, q):
        # every int is one signed-digit sum, so a solve keeps each value it
        # pushes as it is, and repacking the decoded terms gives it back
        assert _pack(_unpack(q, width, off), width, off) == q


class TestUniformAccess:
    def test_column_router(self):
        c = ctx(A2)
        y = A2.element([1, 2])
        assert c.column("h", (), y) == c.kl_column(y)
        assert c.column("m_inv", (), y) == c.inverse_column("m", (), y)
        with pytest.raises(ValidationError):
            c.column("zz", (), y)

    def test_every_public_column_is_a_read_only_mapping(self):
        c, y = ctx(A3), A3.element([2, 1, 3, 2])
        columns = [
            c.kl_column(y),
            c.parabolic_column("n", (1,), A3.element([2, 1])),
            c.column("m", (), y),
            c.column("n_inv", (1,), A3.element([2, 3])),
            c.inverse_column("h", (), y),
            c.inverse_combination("m", (2,), {A3.element([1, 2]): ONE, A3.element([3, 2]): ONE}),
        ]
        for col in columns:
            assert type(col) is MappingProxyType and col
            with pytest.raises(TypeError):
                col[A3.identity] = ONE

    def test_poly_absent_is_zero(self):
        c = ctx(A2)
        assert c.poly("h", (), A2.element([1]), A2.element([2])) == ZERO

    def test_element_of_another_system_with_the_same_type(self):
        W1, W2 = CoxeterSystem.from_type("A3"), CoxeterSystem.from_type("A3")
        c = HeckeContext(W1)
        y2, x2 = W2.element([2, 1, 3, 2]), W2.element([2])
        y1, x1 = W1.element([2, 1, 3, 2]), W1.element([2])
        for call in (
            lambda: c.kl_column(y2),
            lambda: c.parabolic_column("n", (1,), y2),
            lambda: c.column("m_inv", (1,), y2),
            lambda: c.poly("h", (), x2, y1),
            lambda: c.poly("h", (), x1, y2),
            lambda: c.mu(x2, y1),
            lambda: c.inverse_column("h", (), y2),
            lambda: c.inverse_combination("m", (1,), {y2: ONE}),
        ):
            with pytest.raises(ValidationError, match="not of system A3"):
                call()
        # a column of this system holds no element of the other one
        col = c.kl_column(y1)
        assert col[x1] == LaurentPoly({1: 1, 3: 1})
        assert x2 not in col and col.get(x2) is None

    def test_element_of_another_type_rejected(self):
        c = ctx(A3)
        y = B3.element([1, 2])
        for call in (
            lambda: c.kl_column(y),
            lambda: c.parabolic_column("n", (1,), y),
            lambda: c.inverse_column("h", (), y),
            lambda: c.column("h", (), y),
            lambda: c.poly("h", (), y, A3.element([1, 2])),
            lambda: c.mu(y, A3.element([1, 2])),
        ):
            with pytest.raises(ValidationError, match="not of system A3"):
                call()

    def test_family_id(self):
        assert family_id("h", ()) == "h"
        assert family_id("n", (1, 2)) == "n[1,2]"
        assert family_id("m_inv", (2,)) == "m_inv[2]"


class TestPolyStore:
    def make_store(self, tmp_path):
        c = HeckeContext(A3, PolyStore("A3", 3))
        y = A3.element([2, 1, 3, 2])
        c.kl_column(y)
        c.inverse_column("n", (1,), A3.project(y, (1,), "left"))
        path = tmp_path / "A3.jsonl"
        c.store.save(path)
        return c, path

    @staticmethod
    def assert_same_columns(a, b):
        keys = {(f, u) for f, fam in a.columns.items() for u in fam}
        assert keys == {(f, u) for f, fam in b.columns.items() for u in fam}
        for f, u in keys:
            assert a.get_column(f, u) == b.get_column(f, u)

    def test_round_trip(self, tmp_path):
        c, path = self.make_store(tmp_path)
        loaded = PolyStore.load(path, "A3", 3)
        self.assert_same_columns(loaded, c.store)
        # a context running from the warm store reproduces the columns
        c2 = HeckeContext(A3, loaded)
        y = A3.element([2, 1, 3, 2])
        assert c2.kl_column(y) == c.kl_column(y)

    def test_save_is_deterministic(self, tmp_path):
        _, path1 = self.make_store(tmp_path / "a")
        _, path2 = self.make_store(tmp_path / "b")
        assert path1.read_bytes() == path2.read_bytes()

    def test_wrong_system_rejected(self, tmp_path):
        _, path = self.make_store(tmp_path)
        with pytest.raises(CacheError, match="system"):
            PolyStore.load(path, "B2", 2)

    def test_checksum_failure(self, tmp_path):
        _, path = self.make_store(tmp_path)
        text = path.read_text().replace('"1":1', '"1":2', 1)
        path.write_text(text)
        with pytest.raises(CacheError, match="checksum"):
            PolyStore.load(path, "A3", 3)

    def test_version_mismatch(self, tmp_path):
        _, path = self.make_store(tmp_path)
        head, _, rest = path.read_text().partition("\n")
        path.write_text(head.replace('"format":1', '"format":99') + "\n" + rest)
        with pytest.raises(CacheError, match="version|format"):
            PolyStore.load(path, "A3", 3)

    @pytest.mark.parametrize(
        "edit, shown",
        [
            (lambda h: h.replace('"normalization":1', '"normalization":2'), "2"),
            (lambda h: h.replace('"normalization":1,', ""), "None"),
        ],
        ids=["other", "missing"],
    )
    def test_normalization_version_mismatch(self, tmp_path, edit, shown):
        _, path = self.make_store(tmp_path)
        head, _, rest = path.read_text().partition("\n")
        assert json.loads(head)["normalization"] == PolyStore.NORMALIZATION == 1
        path.write_text(edit(head) + "\n" + rest)
        with pytest.raises(
            CacheError, match=f"normalization version mismatch: {shown}, expected 1"
        ):
            PolyStore.load(path, "A3", 3)

    def test_garbled_header(self, tmp_path):
        p = tmp_path / "x.jsonl"
        p.write_text("not json\n")
        with pytest.raises(CacheError):
            PolyStore.load(p, "A3", 3)

    @pytest.mark.parametrize("head", ["[]", '"x"', "3", "null"])
    def test_header_that_is_not_an_object(self, tmp_path, head):
        p = tmp_path / "x.jsonl"
        p.write_text(head + "\n")
        with pytest.raises(CacheError, match="cache header unreadable"):
            PolyStore.load(p, "A3", 3)

    def test_context_rejects_mismatched_store(self):
        with pytest.raises(CacheError):
            HeckeContext(A2, PolyStore("A3", 3))

    def test_save_leaves_other_temp_files_alone(self, tmp_path):
        c, path = self.make_store(tmp_path)
        other = tmp_path / "A3.jsonl.tmp"
        other.write_text("half-written by another process")
        c.store.dirty = True
        c.store.save(path)
        assert other.read_text() == "half-written by another process"
        self.assert_same_columns(PolyStore.load(path, "A3", 3), c.store)
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "A3.jsonl",
            "A3.jsonl.lock",
            "A3.jsonl.tmp",
        ]

    def test_failed_save_removes_its_temp_file(self, tmp_path, monkeypatch):
        def refuse(src, dst):
            raise OSError("disk full")

        monkeypatch.setattr(os, "replace", refuse)
        # the OSError reaches the caller as a CacheError naming the file
        with pytest.raises(CacheError, match=r"cannot write .*A2\.jsonl: disk full"):
            PolyStore("A2", 2).save(tmp_path / "A2.jsonl")
        assert [p.name for p in tmp_path.iterdir()] == ["A2.jsonl.lock"]

    @pytest.mark.parametrize(
        "query,fid,upper,lower,poly",
        [
            # the h column of 2 1 3 is read off the m[2] record at 1 3
            pytest.param((2, 1, 3), "m[2]", (1, 3), (1,), {-2: 1}, id="h-triangularity"),
            pytest.param((2, 1, 3), "m[2]", (1, 3), (1, 3), {0: 2}, id="h-diagonal"),
            pytest.param((2, 1, 3), "m[2]", (1, 3), (), {2: -7}, id="h-positivity"),
            pytest.param((2, 1, 3), "m[2]", (1, 3), (1,), {2: 1}, id="h-parity"),
            pytest.param((2, 1), "n[1]", (2, 1), (2,), {0: 1}, id="n-triangularity"),
            # n entries are not h values: parity is checked, positivity is not
            pytest.param((2, 1), "n[1]", (2, 1), (2,), {2: 1}, id="n-parity"),
        ],
    )
    def test_loaded_direct_columns_are_checked(self, tmp_path, query, fid, upper, lower, poly):
        c = HeckeContext(A3)
        fam, _, rest = fid.partition("[")
        I = tuple(int(t) for t in rest.rstrip("]").split(",") if t)
        good = c.column(fam, I, A3.element(upper))
        entries = {format_word(x.word): p.to_json_obj() for x, p in good.items()}
        entries[format_word(lower)] = LaurentPoly(poly).to_json_obj()
        path = self.write_records(tmp_path, [{"family": fid, "upper": format_word(upper), "entries": entries}])
        qfam = "h" if fam == "m" else fam
        with pytest.raises(CacheError, match="stored column"):
            HeckeContext(A3, PolyStore.load(path, "A3", 3)).column(qfam, I, A3.element(query))

    def test_loaded_coefficient_past_the_slot(self, tmp_path):
        # a coefficient that does not fit one signed slot would wrap into its
        # neighbour, so it is refused before it is packed
        c = HeckeContext(A3)
        y = A3.element((1, 3))
        entries = {format_word(x.word): p.to_json_obj() for x, p in c.column("m", (2,), y).items()}
        entries[""] = {"2": 1 << (SLOT - 1)}
        path = self.write_records(tmp_path, [{"family": "m[2]", "upper": "1 3", "entries": entries}])
        with pytest.raises(CacheError, match="cache key parse failure: bad coefficient"):
            HeckeContext(A3, PolyStore.load(path, "A3", 3)).kl_column(A3.element((2, 1, 3)))

    @staticmethod
    def write_records(tmp_path, records):
        """A store file of A3 holding the given records, with a good checksum."""
        path = tmp_path / "A3.jsonl"
        write_store(
            path, A3_STORE_HEAD | {"records": len(records)},
            [json.dumps(r, separators=(",", ":"), sort_keys=True) for r in records],
        )
        return path

    def test_empty_store_round_trip(self, tmp_path):
        s = PolyStore("A2", 2)
        p = tmp_path / "e.jsonl"
        s.save(p)
        assert PolyStore.load(p, "A2", 2).columns == {}

    def test_records_no_query_reads_are_dropped_on_load(self, tmp_path):
        # an h record, as older versions wrote, next to an m[1] record
        c = HeckeContext(A3)
        y = A3.element([2, 1])
        m_col = {x.word: _pack(p.terms, SLOT) for x, p in c.parabolic_column("m", (1,), y).items()}
        h_col = {x.word: _pack(p.terms, SLOT) for x, p in c.kl_column(y).items()}
        m_line = PolyStore._line("m[1]", y.word, m_col)
        path = tmp_path / "A3.jsonl"
        write_store(
            path, A3_STORE_HEAD | {"records": 2},
            sorted([PolyStore._line("h", y.word, h_col), m_line]),
        )
        store = PolyStore.load(path, "A3", 3)
        assert store.columns == {"m[1]": {y.word: m_line}}
        assert HeckeContext(A3, store).parabolic_column("m", (1,), y) == c.parabolic_column(
            "m", (1,), y
        )
        assert not store.dirty  # served, not recomputed
        store.save(path)
        assert path.read_text().split("\n")[1:] == [m_line, ""]

    def test_untouched_save_is_verbatim(self, tmp_path):
        _, path = self.make_store(tmp_path)
        loaded = PolyStore.load(path, "A3", 3)
        loaded.save(tmp_path / "copy" / "A3.jsonl")
        assert (tmp_path / "copy" / "A3.jsonl").read_bytes() == path.read_bytes()
        loaded.save(path)  # merged with itself on disk
        assert (tmp_path / "copy" / "A3.jsonl").read_bytes() == path.read_bytes()

    def test_touched_save_matches_eager_save(self, tmp_path):
        _, path = self.make_store(tmp_path)
        lazy = PolyStore.load(path, "A3", 3)
        c = HeckeContext(A3, lazy)
        y = A3.element([2, 1, 3, 2])
        c.kl_column(y)  # served from the store: parsed, not recomputed
        c.inverse_column("n", (1,), A3.project(y, (1,), "left"))
        c.kl_column(A3.element([1, 2, 3]))  # a new column
        assert lazy.dirty
        eager = PolyStore.load(path, "A3", 3)
        for fam_id, fam in eager.columns.items():
            for upper in list(fam):
                eager.get_column(fam_id, upper)  # every record parsed
        for fam_id, fam in lazy.columns.items():
            for upper in fam:
                eager.put_column(fam_id, upper, lazy.get_column(fam_id, upper))
        assert all(isinstance(col, dict) for fam in eager.columns.values() for col in fam.values())
        lazy.save(tmp_path / "lazy" / "A3.jsonl")
        eager.save(tmp_path / "eager" / "A3.jsonl")
        assert (tmp_path / "lazy" / "A3.jsonl").read_bytes() == (
            tmp_path / "eager" / "A3.jsonl"
        ).read_bytes()

    @staticmethod
    def records(path):
        return path.read_text().rstrip("\n").split("\n")[1:]

    @staticmethod
    def counting_loads(monkeypatch):
        """The texts json.loads decodes from now on."""
        loads, decoded = json.loads, []
        monkeypatch.setattr(json, "loads", lambda text: decoded.append(text) or loads(text))
        return decoded

    def test_read_records_are_not_encoded_again(self, tmp_path, monkeypatch):
        # a record a query read keeps its line, so a save encodes only the
        # columns this store computed: one json.dumps each, and the header
        _, path = self.make_store(tmp_path)
        before = self.records(path)
        store = PolyStore.load(path, "A3", 3)
        for fam_id, fam in store.columns.items():
            for upper in list(fam):
                store.get_column(fam_id, upper)  # every record read
        HeckeContext(A3, store).kl_column(A3.element([1, 2, 3]))  # new columns
        dumps, dumped = json.dumps, []
        monkeypatch.setattr(json, "dumps", lambda *a, **k: dumped.append(a) or dumps(*a, **k))
        store.save(path)
        after = self.records(path)
        assert set(before) < set(after)
        assert len(dumped) == 1 + len(after) - len(before)

    def test_unchanged_file_is_not_decoded_again(self, tmp_path, monkeypatch):
        _, path = self.make_store(tmp_path)
        store = PolyStore.load(path, "A3", 3)
        HeckeContext(A3, store).kl_column(A3.element([1, 2, 3]))  # new columns
        decoded = self.counting_loads(monkeypatch)
        store.save(path)
        assert decoded == []
        self.assert_same_columns(PolyStore.load(path, "A3", 3), store)

    def test_a_changed_file_is_merged(self, tmp_path, monkeypatch):
        # another writer's save changes the bytes on disk: the next save
        # loads the file again, decoding its header only, and keeps the
        # other writer's records
        _, path = self.make_store(tmp_path)
        store = PolyStore.load(path, "A3", 3)
        HeckeContext(A3, store).kl_column(A3.element([1, 2, 3]))
        other = HeckeContext(A3, PolyStore.load(path, "A3", 3))
        other.kl_column(A3.element([3, 2, 1]))
        other.store.save(path)
        head = path.read_text().split("\n")[0]
        theirs = set(self.records(path))
        decoded = self.counting_loads(monkeypatch)
        store.save(path)
        assert decoded == [head]
        assert theirs < set(self.records(path))

    def test_one_load_hashes_once(self, tmp_path, monkeypatch):
        # the checksum is the one hash of a load; a save of a file whose
        # header is unchanged reads that line and hashes only its new body
        _, path = self.make_store(tmp_path)
        before = path.read_bytes()
        sha256, hashed = hashlib.sha256, []
        monkeypatch.setattr(hashlib, "sha256", lambda data: hashed.append(data) or sha256(data))
        store = PolyStore.load(path, "A3", 3)
        assert len(hashed) == 1
        store.save(path)
        assert len(hashed) == 2 and path.read_bytes() == before

    def test_a_body_damaged_behind_its_header_is_overwritten(self, tmp_path):
        # a save reads the header only: the body it did not load is written
        # again from this store, and any load refuses the damaged file
        _, path = self.make_store(tmp_path)
        good = path.read_text()
        store = PolyStore.load(path, "A3", 3)
        path.write_text(good.replace('"1":1', '"1":2', 1))
        with pytest.raises(CacheError, match="checksum"):
            PolyStore.load(path, "A3", 3)
        store.save(path)
        assert path.read_text() == good

    @pytest.mark.parametrize("bad", [True, 1.0], ids=["true", "float"])
    def test_a_coefficient_that_is_not_an_int_is_refused_when_read(self, tmp_path, bad):
        # true and 1.0 equal 1, so the packing memo would serve the packed 1
        # for either; every coefficient's type is checked
        path = self.write_records(tmp_path, [
            {"family": "m[2]", "upper": "1", "entries": {"": {"1": 1}, "1": {"0": 1}}},
            {"family": "m[2]", "upper": "3", "entries": {"": {"1": bad}, "3": {"0": 1}}},
        ])
        store = PolyStore.load(path, "A3", 3)
        assert store.get_column("m[2]", (1,)) == {(): 1 << SLOT, (1,): 1}
        with pytest.raises(CacheError, match=f"bad coefficient {bad!r} at exponent 1"):
            store.get_column("m[2]", (3,))

    @staticmethod
    def rewrite_records(path, edit):
        """Replace the record lines by edit(lines) and recompute the checksum."""
        head, lines = read_store(path)
        write_store(path, head, edit(lines))

    def test_entries_are_parsed_when_read(self, tmp_path):
        _, path = self.make_store(tmp_path)

        def add_bad_key(lines):
            lines[0] = lines[0].replace('"entries":{', '"entries":{"x":{"0":1},', 1)
            return lines

        self.rewrite_records(path, add_bad_key)
        store = PolyStore.load(path, "A3", 3)  # the bad key is not read yet
        rec = json.loads(path.read_text().split("\n")[1])
        with pytest.raises(CacheError, match="cache key parse failure"):
            store.get_column(rec["family"], tuple(int(t) for t in rec["upper"].split()))

    def test_each_word_text_is_parsed_once(self, tmp_path, monkeypatch):
        _, path = self.make_store(tmp_path)
        parsed = []

        def counting_parse_word(text):
            parsed.append(text)
            return parse_word(text)

        monkeypatch.setattr(hecke, "parse_word", counting_parse_word)
        store = PolyStore.load(path, "A3", 3)
        texts = set()
        for line in path.read_text().split("\n")[1:]:
            if line:
                rec = json.loads(line)
                texts |= {rec["upper"], *rec["entries"]}
                col = store.get_column(rec["family"], parse_word(rec["upper"]))
                assert col == {
                    parse_word(k): _pack(LaurentPoly.from_json_obj(v).terms, SLOT)
                    for k, v in rec["entries"].items()
                }
        assert sorted(parsed) == sorted(texts)

    def test_each_line_is_decoded_once(self, tmp_path, monkeypatch):
        _, path = self.make_store(tmp_path)
        decoded = self.counting_loads(monkeypatch)
        store = PolyStore.load(path, "A3", 3)
        for fam_id, fam in store.columns.items():
            for upper in list(fam):
                store.get_column(fam_id, upper)  # every record read
        assert sorted(decoded) == sorted(path.read_text().rstrip("\n").split("\n"))

    def test_a_query_decodes_only_the_records_it_reads(self, tmp_path, monkeypatch):
        # the h column of 2 1 3 is read off the one m[2] record at 1 3; the
        # 600 records around it are indexed by their tails, never decoded
        c = HeckeContext(A3)
        y = A3.element((1, 3))
        col = {x.word: _pack(p.terms, SLOT) for x, p in c.parabolic_column("m", (2,), y).items()}
        line = PolyStore._line("m[2]", y.word, col)
        pad = [
            PolyStore._line(fid, (k,), {(): 1})
            for fid in ("h", "m[1]", "n[2]") for k in range(10, 210)
        ]
        path = tmp_path / "A3.jsonl"
        write_store(path, A3_STORE_HEAD | {"records": 601}, sorted(pad + [line]))
        decoded = self.counting_loads(monkeypatch)
        store = PolyStore.load(path, "A3", 3)
        assert len(store.columns["m[1]"]) == len(store.columns["n[2]"]) == 200
        got = HeckeContext(A3, store).kl_column(A3.element((2, 1, 3)))
        assert decoded == [path.read_text().split("\n")[0], line]
        assert got == c.kl_column(A3.element((2, 1, 3)))

    def test_each_stored_word_is_walked_once_per_context(self, tmp_path, monkeypatch):
        W = CoxeterSystem.from_type("A3")
        cold = HeckeContext(W, PolyStore("A3", 3))
        elements = sorted(W.enumerate_below(W.longest_element()), key=lambda x: x.sort_key())
        for y in elements:
            cold.kl_column(y)
        path = tmp_path / "A3.jsonl"
        cold.store.save(path)
        walked = []
        walk = W._walk  # each stored word is walked from the identity, id 0
        monkeypatch.setattr(W, "_walk", lambda u, word: walked.append(word) or walk(u, word))
        for _ in range(2):  # a context for each store: the walks are per context
            store = PolyStore.load(path, "A3", 3)
            warm = HeckeContext(W, store)
            for y in elements:
                assert warm.kl_column(y) == cold.kl_column(y)
            stored = [low for f, u in store._lines for low in store.get_column(f, u)]
            assert len(set(stored)) < len(stored)  # columns share lower words
            assert sorted(walked) == sorted(set(stored))
            walked.clear()

    def test_a_record_broken_inside_fails_only_when_read(self, tmp_path):
        _, path = self.make_store(tmp_path)
        garble(path, "m[2]", "1 3 2")
        store = PolyStore.load(path, "A3", 3)
        keys = [(f, u) for f, fam in store.columns.items() for u in fam]
        others = [key for key in keys if key != ("m[2]", (1, 3, 2))]
        assert len(others) == len(keys) - 1 == len(self.records(path)) - 1
        for f, u in others:
            assert isinstance(store.get_column(f, u), dict)
        with pytest.raises(CacheError, match="cache key parse failure: Expecting property name"):
            store.get_column("m[2]", (1, 3, 2))

    def test_a_record_read_under_another_key_is_refused(self, tmp_path):
        _, path = self.make_store(tmp_path)
        store = PolyStore.load(path, "A3", 3)
        fam = store.columns["m[2]"]
        fam[(1,)] = fam[1, 3, 2]
        with pytest.raises(CacheError, match="record keys differ from its tail"):
            store.get_column("m[2]", (1,))

    @pytest.mark.parametrize(
        "line",
        [
            pytest.param("not json", id="garbled-line"),
            pytest.param('{"entries":{},"upper":""}', id="no-family"),
            pytest.param('{"entries":{},"family":"h","upper":"x"}', id="bad-upper"),
            pytest.param('{"entries":[],"family":"h","upper":""}', id="entries-not-object"),
        ],
    )
    def test_bad_record_rejected_at_load(self, tmp_path, line):
        _, path = self.make_store(tmp_path)
        self.rewrite_records(path, lambda old: old + [line])
        with pytest.raises(CacheError, match="cache key parse failure"):
            PolyStore.load(path, "A3", 3)

    def test_save_rejects_a_conflicting_record_on_disk(self, tmp_path):
        c, path = self.make_store(tmp_path)
        other = PolyStore("A3", 3)
        # the m[2] column at 1 3 2 that the h column of 2 1 3 2 is read off
        y = (1, 3, 2)
        col = dict(c.store.get_column("m[2]", y))
        col[()] = 5 << SLOT  # 5v
        other.put_column("m[2]", y, col)
        before = path.read_bytes()
        with pytest.raises(CacheError, match=r"different m\[2\] column at 1 3 2"):
            other.save(path)
        assert path.read_bytes() == before

    def test_concurrent_writers_lose_no_column(self, tmp_path):
        # four processes start from empty stores and save disjoint queries to
        # one file at the same moment; the file ends up with every column, as
        # one process saving all the queries writes it
        elements = sorted(A3.enumerate_below(A3.longest_element()), key=lambda x: x.sort_key())
        ctx_mp = multiprocessing.get_context("fork")
        barrier = ctx_mp.Barrier(4)
        path = tmp_path / "A3.jsonl"

        def writer(k):
            c = HeckeContext(A3, PolyStore("A3", 3))
            for y in elements[k::4]:
                c.kl_column(y)
            barrier.wait(30)
            c.store.save(path)

        procs = [ctx_mp.Process(target=writer, args=(k,)) for k in range(4)]
        for p in procs:
            p.start()
        for p in procs:
            p.join(60)
        assert [p.exitcode for p in procs] == [0] * 4
        one = HeckeContext(A3, PolyStore("A3", 3))
        for y in elements:
            one.kl_column(y)
        one.store.save(tmp_path / "one" / "A3.jsonl")
        assert path.read_bytes() == (tmp_path / "one" / "A3.jsonl").read_bytes()
