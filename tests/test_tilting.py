"""Multiplicity tables for minimal tilting complexes in all four settings."""

import gc
import itertools
import re
import weakref
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from planting import memo_key, plant_computed, plant_stored, source_column
from tiltc import hecke, tilting
from tiltc.coxeter import CoxeterElement, CoxeterSystem
from tiltc.errors import CacheError, InternalInvariantError, ValidationError
from tiltc.hecke import SLOT, HeckeContext, PolyStore, family_id
from tiltc.laurent import ONE, ZERO, LaurentPoly
from tiltc.rootdata import LinkageDatum
from tiltc.tilting import CategoryO, KacMoody, Quantum, filtration_dims

A1 = CoxeterSystem.from_type("A1")
A2 = CoxeterSystem.from_type("A2")
A3 = CoxeterSystem.from_type("A3")
B2 = CoxeterSystem.from_type("B2")
AFF1 = CoxeterSystem.from_type("affA1")
AFF2 = CoxeterSystem.from_type("affA2")


def P(text):
    return LaurentPoly.from_text(text)


def as_dict(table):
    return {w: p for w, p in table.entries}


class TestCategoryOStandard:
    def test_sl2_standard_full_table(self):
        O = CategoryO(HeckeContext(A1), (), ())
        t = O.standard_table((1,))
        assert as_dict(t) == {(): P("v"), (1,): ONE}
        assert t.dims() == (1, 0)

    def test_identity_object_is_tilting(self):
        O = CategoryO(HeckeContext(A1), (), ())
        t = O.standard_table(())
        assert as_dict(t) == {(): ONE}
        assert t.dims() == (0, 0)

    def test_sl3_longest_element_column(self):
        O = CategoryO(HeckeContext(A2), (), ())
        t = O.standard_table((1, 2, 1))
        assert t.entry(()) == P("v^3")
        assert t.entry((1,)) == P("v^2")
        assert t.entry((1, 2)) == P("v")
        assert t.entry((1, 2, 1)) == ONE
        assert t.dims() == (3, 0)

    def test_explicit_y_zero_entry_kept(self):
        O = CategoryO(HeckeContext(A2), (), (1,))
        # index set is wJ * (minimal reps); s1 itself is one of them (u = e)
        t = O.standard_table((1,), (1,))
        assert t.entry((1,)) == ONE

    def test_standard_support_is_bruhat_below(self):
        O = CategoryO(HeckeContext(A3), (), ())
        x = A3.element((2, 1, 3, 2))
        t = O.standard_table(x.word)
        for w, p in t.entries:
            assert p
            assert A3.bruhat_leq(A3.element(w), x)

    def test_membership_validation(self):
        O = CategoryO(HeckeContext(A2), (), (1,))
        # s2 = wJ * (s1 s2) and s1 s2 is not minimal for J on the left
        with pytest.raises(ValidationError):
            O.standard_table((2,))

    def test_regularity_validation(self):
        # u = s2 s1 is minimal on both sides for J={2}, I={1} but maps
        # alpha_1 to alpha_2, so the coset is not regular
        O = CategoryO(HeckeContext(A2), (1,), (2,))
        x = (A2.longest_element((2,)) * A2.element((2, 1))).word
        with pytest.raises(ValidationError):
            O.standard_table(x)

    def test_needs_finite_type(self):
        with pytest.raises(ValidationError):
            CategoryO(HeckeContext(AFF1), (), ())

    def test_antispherical_twin_cross_check_fires(self):
        # a wrong entry in the memoized n column the twin reads at some y
        O = CategoryO(HeckeContext(A3), (2,), ())
        x = A3.element((1, 2, 3))
        t = O.standard_table(x.word)
        y = next(A3.element(w) for w, _ in t.entries if w != x.word)
        w0 = O.system.longest_element()
        a = O.wI * x.inverse() * O.wJ * w0
        b = O.wI * y.inverse() * O.wJ * w0
        key = (family_id("n", O.I), b.id)
        col, bound = O.hecke._columns[key]
        O.hecke._columns[key] = {**col, a.id: col.get(a.id, 0) + (1 << 2 * SLOT)}, bound  # + v^2
        with pytest.raises(InternalInvariantError, match="disagrees with its antispherical twin"):
            O.standard_table(x.word)

    @staticmethod
    def twin_source(O, x, y):
        """The key of the m^{L(b)} column that the twin of (x, y) reads, with
        I = (), and the element a' there: h_{a,b} is read off m^K at
        a' = W_K a, b' = W_K b."""
        w0 = O.system.longest_element()
        a = O.wI * x.inverse() * O.wJ * w0
        b = O.wI * y.inverse() * O.wJ * w0
        key, lower = source_column(O.hecke, "h", (), b)
        return key, lower(a)

    def corrupt_twin_source(self, O, x, y, bad):
        """Add the packed bad to the memoized m^{L(b)} entry that the twin of
        (x, y) reads."""
        key, a0 = self.twin_source(O, x, y)
        key = memo_key(O.hecke, key)
        col, bound = O.hecke._columns[key]
        O.hecke._columns[key] = {**col, a0.id: col.get(a0.id, 0) + bad}, bound

    def test_antispherical_twin_cross_check_fires_for_empty_I(self):
        # the twin is an h entry read off an m^K column; the table itself is
        # the memoized inverse column, so the residue does not run again
        O = CategoryO(HeckeContext(A3), (), ())
        x = A3.element((1, 2, 3))
        t = O.standard_table(x.word)
        y = next(A3.element(w) for w, _ in t.entries if w != x.word)
        self.corrupt_twin_source(O, x, y, 1 << 2 * SLOT)  # v^2
        with pytest.raises(InternalInvariantError, match="disagrees with its antispherical twin"):
            O.standard_table(x.word)

    def test_antispherical_twin_entry_is_checked_for_empty_I(self, tmp_path):
        # on the diagonal row the twin reads h_{b,b} = m^K_{b',b'} unshifted,
        # which must be 1.  Here b = w_K, so m^K is the column of e, which no
        # recursion builds: a v^2 planted in its record is refused by the
        # gate as the column is loaded, before the solve or the twin reads it
        x = A3.element((1, 2, 3))
        O = CategoryO(HeckeContext(A3, PolyStore("A3", 3)), (), ())
        O.standard_table(x.word)
        O.hecke.store.save(tmp_path / "A3.jsonl")
        key, a0 = self.twin_source(O, x, x)
        assert key[1] == a0.word == ()
        plant_stored(tmp_path / "A3.jsonl", *key, a0.word, LaurentPoly.v(2))
        O = CategoryO(HeckeContext(A3, PolyStore.load(tmp_path / "A3.jsonl", "A3", 3)), (), ())
        with pytest.raises(
            CacheError, match=rf"stored column <A3:e> of {re.escape(key[0])} .*violating unitriangularity over v\*Z\[v\]"
        ):
            O.standard_table(x.word)
        assert memo_key(O.hecke, key) not in O.hecke._columns


class TestCategoryOSimple:
    def test_sl2_simple_full_table(self):
        O = CategoryO(HeckeContext(A1), (), ())
        t = O.simple_table((1,))
        assert as_dict(t) == {(): P("v^-1 + v"), (1,): ONE}
        assert t.dims() == (1, 1)

    def test_sl3_simple_reflection(self):
        O = CategoryO(HeckeContext(A2), (), ())
        assert O.simple_table((1,), (1,)).entry((1,)) == ONE
        assert O.simple_table((1,), ()).entry(()) == P("v^-1 + v")

    def test_sl3_simple_at_longest(self):
        # the largest simple is itself tilting: multiplicities concentrate
        # in degree 0 on the diagonal only at the bottom of the order
        O = CategoryO(HeckeContext(A2), (), ())
        t = O.simple_table((1, 2, 1))
        assert t.entry((1, 2, 1)) == ONE
        nabla, delta = t.dims()
        assert nabla == delta  # the table of a simple object is symmetric

    def test_simple_table_entries_selfdual(self):
        # multiplicities of a simple object are invariant under bar
        O = CategoryO(HeckeContext(B2), (), ())
        for x in B2.enumerate_below(B2.longest_element()):
            t = O.simple_table(x.word)
            for _, p in t.entries:
                assert p.bar() == p

    def test_parabolic_simple_wall_case(self):
        O = CategoryO(HeckeContext(A2), (1,), ())
        # index set: right-I-minimal regular reps; s1 s2 qualifies
        t = O.simple_table((1, 2))
        assert t.entry((1, 2)) == ONE
        for w, p in t.entries:
            assert p.is_nonneg()


class TestInvariantEnforcement:
    def test_all_small_pairs_run_clean(self):
        # diagonal 1, parity, nonnegativity and the antispherical twin
        # cross-check all run inside; any violation raises
        for tag in ("A2", "B2"):
            system = CoxeterSystem.from_type(tag)
            hk = HeckeContext(system)
            subsets = [()] + [(n,) for n in system.names]
            for I, J in itertools.product(subsets, repeat=2):
                O = CategoryO(hk, I, J)
                reps, _ = system.regular_double_coset_reps(J, I)
                for u in reps:
                    O.standard_table((O.wJ * u).word)
                    O.simple_table((O.wJ * u).word)

    def test_parity_matches_length_difference(self):
        O = CategoryO(HeckeContext(A3), (), ())
        x = A3.element((1, 2, 3, 1, 2))
        t = O.standard_table(x.word)
        for w, p in t.entries:
            assert p.has_parity(x.length + len(w))


    @pytest.mark.parametrize("table", ["standard_table", "simple_table"])
    def test_a_whole_table_without_its_own_row_raises(self, monkeypatch, table):
        # a solve that loses x's row leaves rows that pass every entry check
        O = CategoryO(HeckeContext(A3), (), ())
        x = A3.element((1, 2, 1, 3))
        i_rows = O._i_rows  # the row reader of I = J = ()
        monkeypatch.setattr(
            O, "_i_rows", lambda *a: {z: r for z, r in i_rows(*a).items() if z != x}
        )
        with pytest.raises(InternalInvariantError, match="no row at x"):
            getattr(O, table)(x.word)

    def test_a_positive_table_without_its_own_row_raises(self, monkeypatch):
        KM = KacMoody(HeckeContext(AFF2), (1,), (), "pos")
        monkeypatch.setattr(AFF2, "regular_double_coset_reps", lambda *a, **kw: ((), False))
        with pytest.raises(InternalInvariantError, match="no row at x"):
            KM.standard_table((1,), max_len=8)


class TestReadOnlyMemos:
    """A memoized result reaches its callers read-only: an edit raises, and
    the table computed after it is the one computed before."""

    def test_an_inverse_column(self):
        hk = HeckeContext(A3)
        O = CategoryO(hk, (), ())
        before = O.standard_table((1, 2, 1, 3))
        col = hk.inverse_column("m", (), A3.element((1, 2, 1, 3)).inverse())
        with pytest.raises(AttributeError):
            col.clear()
        with pytest.raises(TypeError):
            col[A3.identity] = ONE
        assert len(before.entries) == 12
        assert O.standard_table((1, 2, 1, 3)) == before

    def test_regular_double_coset_representatives(self):
        KM = KacMoody(HeckeContext(AFF2), (1,), (), "pos")
        before = KM.standard_table((1,), max_len=8)
        reps, _ = AFF2.regular_double_coset_reps((1,), (), max_len=7)
        with pytest.raises(AttributeError):
            reps.clear()
        assert len(before.entries) == 19
        assert KM.standard_table((1,), max_len=8) == before


class TestKacMoodyNegative:
    def test_dihedral_standard_column(self):
        KM = KacMoody(HeckeContext(AFF1), (), (), "neg")
        t = KM.standard_table((0, 1))
        assert as_dict(t) == {
            (): P("v^2"),
            (0,): P("v"),
            (1,): P("v"),
            (0, 1): ONE,
        }

    def test_dihedral_simple_column(self):
        KM = KacMoody(HeckeContext(AFF1), (), (), "neg")
        t = KM.simple_table((0, 1))
        assert t.entry(()) == P("v^-2 + 2 + v^2")
        assert t.entry((0,)) == P("v^-1 + v")
        assert t.entry((0, 1)) == ONE
        assert t.dims() == (2, 2)

    def test_spherical_wall_case(self):
        KM = KacMoody(HeckeContext(AFF1), (1,), (), "neg")
        t = KM.standard_table((0,))
        assert t.entry((0,)) == ONE

    def test_needs_affine_type(self):
        with pytest.raises(ValidationError):
            KacMoody(HeckeContext(A2), (), (), "neg")

    def test_level_validation(self):
        with pytest.raises(ValidationError):
            KacMoody(HeckeContext(AFF1), (), (), "critical")

    def test_literal_text_rejected_at_negative_level(self):
        KM = KacMoody(HeckeContext(AFF1), (), (), "neg")
        with pytest.raises(ValidationError):
            KM.simple_table((0,), literal_text=True)

    def test_affine_rank_two_clean(self):
        KM = KacMoody(HeckeContext(AFF2), (0,), (1,), "neg")
        reps, _ = AFF2.regular_double_coset_reps((1,), (0,), max_len=4)
        for u in reps:
            KM.standard_table((KM.wJ * u).word)
            KM.simple_table((KM.wJ * u).word)


class TestKacMoodyPositive:
    def test_support_runs_up_the_order(self):
        KM = KacMoody(HeckeContext(AFF1), (1,), (), "pos")
        t = KM.standard_table((1,), max_len=6)
        assert as_dict(t) == {(1,): ONE, (0, 1): P("v")}
        assert t.truncated_at == 6

    def test_simple_column_upward(self):
        KM = KacMoody(HeckeContext(AFF1), (1,), (), "pos")
        t = KM.simple_table((1,), max_len=6)
        assert t.entry((1,)) == ONE
        assert t.entry((0, 1)) == P("v^-1 + v")
        assert t.entry((1, 0, 1)) == ONE

    def test_explicit_y_below_x_is_zero(self):
        KM = KacMoody(HeckeContext(AFF1), (1,), (), "pos")
        t = KM.standard_table((0, 1), (1,))
        assert t.entry((1,)) == ZERO

    def test_table_needs_max_len(self):
        KM = KacMoody(HeckeContext(AFF1), (1,), (), "pos")
        with pytest.raises(ValidationError):
            KM.standard_table((1,))

    def test_bound_below_x_is_rejected(self):
        # x = 1 has length 1; a bound below it would print a table without
        # x's own row, whatever the coset bound max_len - l(w_I) clamps to
        KM = KacMoody(HeckeContext(AFF1), (1,), (), "pos")
        for max_len in (-3, 0):
            with pytest.raises(ValidationError, match="below l\\(x\\)"):
                KM.standard_table((1,), max_len=max_len)
            with pytest.raises(ValidationError, match="below l\\(x\\)"):
                KM.simple_table((1,), max_len=max_len)
            # the literal text's z-sum has its own cutoff, checked with a y too
            with pytest.raises(ValidationError, match="below l\\(x\\)"):
                KM.simple_table((1,), (0, 1), max_len=max_len, literal_text=True)
        t = KM.standard_table((1,), max_len=1)
        assert as_dict(t) == {(1,): ONE} and t.truncated_at == 1

    def test_literal_text_is_flagged_and_unenforced(self):
        KM = KacMoody(HeckeContext(AFF1), (1,), (), "pos")
        t = KM.simple_table((1,), max_len=6, literal_text=True)
        assert "literal-positive-text" in t.flags
        # the unenforced variant openly violates the unit-diagonal invariant
        assert t.entry((1,)) != ONE

    def test_positive_needs_finite_parabolic_I(self):
        with pytest.raises(ValidationError):
            KacMoody(HeckeContext(AFF1), (0, 1), (), "pos")

    def test_diagonal_and_parity_enforced_upward(self):
        KM = KacMoody(HeckeContext(AFF2), (1, 2), (), "pos")
        wI = AFF2.longest_element((1, 2))
        reps, _ = AFF2.regular_double_coset_reps((), (1, 2), max_len=3)
        for u in reps:
            x = (u * wI).word
            KM.standard_table(x, max_len=6)
            KM.simple_table(x, max_len=6)


class TestQuantum:
    def test_from_regular_weight(self):
        Q, x = Quantum.from_weight("A1", 5, (7,))
        assert x.word == (0,)
        t = Q.standard_table(x.word)
        assert t.entry(()) == P("v")
        assert t.entry((0,)) == ONE
        assert t.weights == {(): "1", (0,): "7"}

    def test_simple_from_regular_weight(self):
        Q, x = Quantum.from_weight("A1", 5, (7,))
        t = Q.simple_table(x.word)
        assert t.entry(()) == P("v^-1 + v")
        assert t.entry((0,)) == ONE

    def test_wall_weight_gets_singular_setting(self):
        Q, x = Quantum.from_weight("A1", 5, (4,))
        assert x.word == ()
        assert Q.I == (0,)
        t = Q.standard_table(x.word)
        assert as_dict(t) == {(): ONE}

    def test_nondominant_weight_rejected(self):
        with pytest.raises(ValidationError):
            Quantum.from_weight("A1", 5, (-2,))

    @pytest.mark.parametrize("weight", [(7,), (1, 2, 3), ()])
    def test_weight_of_the_wrong_rank_rejected(self, weight):
        with pytest.raises(ValidationError, match="needs 2 coordinates for type A2"):
            Quantum.from_weight("A2", 5, weight)

    def test_finite_wall_weight_not_regular(self):
        # -1 is dominant (closure) but fixed by the finite reflection,
        # so no regular-parabolic linkage class contains it
        with pytest.raises(ValidationError):
            Quantum.from_weight("A1", 5, (-1,))

    def test_word_queries_without_weight(self):
        Q = Quantum(LinkageDatum("A1", 5), ())
        t = Q.simple_table((0,), ())
        assert t.entry(()) == P("v^-1 + v")
        assert t.weights is None

    def test_membership_validation(self):
        Q = Quantum(LinkageDatum("A1", 5), ())
        with pytest.raises(ValidationError):
            Q.standard_table((1,))  # has a finite left descent

    def test_json_carries_weight_and_lambda(self):
        Q, x = Quantum.from_weight("A1", 5, (7,))
        obj = Q.standard_table(x.word).to_json_obj()
        assert obj["lambda"] == "7"
        assert obj["lambda0"] == "1"
        assert obj["entries"][0]["weight"] == "1"
        assert obj["dims"] == {"nabla": 1, "delta": 0}

    def test_dual_affinization_runs_clean(self):
        Q = Quantum(LinkageDatum("B2", 5), ())
        sys_ = Q.system
        reps, _ = sys_.regular_double_coset_reps((1, 2), (), max_len=3)
        for u in reps:
            Q.standard_table(u.word)
            Q.simple_table(u.word)


def o_setting(tag, I=(), J=(), store=None):
    return CategoryO(HeckeContext(CoxeterSystem.from_type(tag), store), I, J)


def km_setting(tag, I=(), J=(), store=None):
    return KacMoody(HeckeContext(CoxeterSystem.from_type(tag), store), I, J, "neg")


def quantum_setting(tag, ell, I=(), store=None):
    return Quantum(LinkageDatum(tag, ell), I, store)


def index_words(setting, max_len=None):
    """Index words x of a setting whose keys k = u^-1 have length at most max_len."""
    keys, _ = setting.system.regular_double_coset_reps(setting.I, setting.J, max_len=max_len)
    return [setting._index_of(k).word for k in keys]


def key_of(setting, word):
    """The key k = u^-1 of the index word x = w_J u (u w_I at positive level)."""
    return setting._index(word)[1]


def keys_below(setting, k_top):
    """Keys k <= k_top of the index set, by the subword enumeration."""
    W = setting.system
    return [
        k
        for k in W.enumerate_below(k_top)
        if W.is_regular_double_coset_rep(k, setting.I, setting.J)
    ]


def column_key(setting, fam, u):
    """Memo key of the fam column at u in the context of a setting."""
    return (family_id(fam, setting.I) if setting.I else "h", u.id)


def km_pos_setting(tag, I=(), J=(), store=None):
    return KacMoody(HeckeContext(CoxeterSystem.from_type(tag), store), I, J, "pos")


def quantum_at_weight(tag, ell, weight):
    """(setting, x, max_len) of the quantum tables at a dominant weight."""
    setting, x = Quantum.from_weight(tag, ell, weight)
    return setting, x.word, None


class TestKeyTest:
    """A table tests the entries it reads with is_regular_double_coset_rep
    only on the I side with J != (), where an entry of ^I W can fail it; with
    J = (), or on the J side, every entry is a key."""

    @staticmethod
    def count_key_tests(monkeypatch):
        results = []
        real = CoxeterSystem.is_regular_double_coset_rep

        def spy(self, w, J, I):
            results.append(real(self, w, J, I))
            return results[-1]

        monkeypatch.setattr(CoxeterSystem, "is_regular_double_coset_rep", spy)
        return results

    @staticmethod
    def whole_tables(setting, max_len=None):
        return {
            x: (as_dict(setting.standard_table(x)), as_dict(setting.simple_table(x)))
            for x in index_words(setting, max_len)
        }

    # (setting, key length bound): O with I = J = (), KM- and quantum on the J side
    UNTESTED = {
        "O-A3": lambda: (o_setting("A3"), None),
        "KM-affA2-J": lambda: (km_setting("affA2", (), (1,)), 5),
        "quantum-A2-l5": lambda: (quantum_setting("A2", 5), 5),
    }

    @pytest.mark.parametrize("name", sorted(UNTESTED))
    def test_only_x_is_tested_where_every_entry_is_a_key(self, name, monkeypatch):
        setting, max_len = self.UNTESTED[name]()
        n = len(index_words(setting, max_len))
        results = self.count_key_tests(monkeypatch)
        self.whole_tables(setting, max_len)
        assert results == [True] * (2 * n)  # x validated by each table

    def test_the_i_side_with_j_rejects_entries(self, monkeypatch):
        setting = o_setting("A3", (1,), (3,))
        results = self.count_key_tests(monkeypatch)
        tables = self.whole_tables(setting)
        # 10 validations of x and 53 entries, 15 of them not keys
        assert (len(results), results.count(False)) == (63, 15)
        v, v2 = P("v"), P("v^2")
        bar1, bar2 = P("v^-1 + v"), P("v^-2 + 2 + v^2")
        assert tables == {
            (3,): ({(3,): ONE}, {(3,): ONE}),
            (3, 2): ({(3,): v, (3, 2): ONE}, {(3,): bar1, (3, 2): ONE}),
            (1, 3, 2): (
                {(3, 2): v, (1, 3, 2): ONE},
                {(3,): ONE, (3, 2): bar1, (1, 3, 2): ONE},
            ),
            (2, 3, 2): (
                {(3,): v2, (3, 2): v, (2, 3, 2): ONE},
                {(3,): P("v^-2 + 1 + v^2"), (3, 2): bar1, (2, 3, 2): ONE},
            ),
            (1, 2, 3, 2): (
                {(3, 2): v2, (1, 3, 2): v, (2, 3, 2): v, (1, 2, 3, 2): ONE},
                {(3,): bar1, (3, 2): bar2, (1, 3, 2): bar1, (2, 3, 2): bar1, (1, 2, 3, 2): ONE},
            ),
        }


class TestSimpleTableChecks:
    """Every direct column a simple table reads passes the gate of hecke
    once, as it is computed or loaded; the table itself checks the parity of
    the inverse entries it reads at positive level."""

    # (setting, x, max_len): a positive-level table over all y needs max_len
    SETTINGS = {
        "O-A3": lambda store=None: (o_setting("A3", store=store), (1, 2, 3, 2), None),
        "O-A3-I": lambda store=None: (o_setting("A3", (2,), store=store), (1, 2, 3), None),
        "O-A3-J": lambda store=None: (o_setting("A3", (), (2,), store=store), (1, 2, 1, 3, 2, 1), None),
        "KM-affA1": lambda store=None: (km_setting("affA1", store=store), (0, 1, 0), None),
        "KM-affA2-J": lambda store=None: (km_setting("affA2", (), (1,), store=store), (1, 0, 2, 1, 0), None),
        "KM+-affA2": lambda store=None: (km_pos_setting("affA2", (1,), store=store), (0, 1), 6),
        "quantum-A2-l5": lambda store=None: (quantum_setting("A2", 5, store=store), (0, 1, 2, 0), None),
    }

    @staticmethod
    def solve_column(twin, table, x):
        """The column, gated as itself or for I = () as the m^K column it is
        read off, of an m column the solve reads: the one at the key k_y of the
        longest row y whose column is not x's n column (at positive level the
        inverse column of each row z starts there).  On the J side the solve
        reads the n^J column at k_y^-1 instead."""
        n_key = column_key(twin, "n", key_of(twin, x) * twin.wJ)
        for w, _ in reversed(table.entries):
            k = key_of(twin, w)
            if twin._j_side:
                key = (family_id("n", twin.J), k.inverse().word)
            else:
                key, _ = source_column(twin.hecke, "m", twin.I, k)
                if column_key(twin, "m", k) == n_key:
                    continue
            if len(twin.hecke._columns.get(memo_key(twin.hecke, key), ({},))[0]) > 1:
                return key

    @staticmethod
    def seed_column(twin, table, x):
        """The gated column of a seed's n column: at negative level the n
        column of x, at positive level the n column of the last row y; on the
        J side the m^J column at k_x^-1 the seeds are read off."""
        if twin._j_side:
            return (family_id("m", twin.J), key_of(twin, x).inverse().word)
        top = key_of(twin, table.entries[-1][0] if twin.setting_name == "KM+" else x)
        return source_column(twin.hecke, "n", twin.I, top * twin.wJ)[0]

    @staticmethod
    def wrong_parity(context, key):
        """The lower word of an entry off the diagonal of a memoized column,
        and v^(d + 1) for d the difference of lengths: the wrong parity."""
        W = context.system
        y = W.element(key[1])
        low = next(W._handle(z) for z in context._columns[key[0], y.id][0] if z != y.id)
        return low.word, LaurentPoly.v(y.length - low.length + 1)

    def assert_gate_refuses(self, name, pick, source, monkeypatch, tmp_path):
        """Plant the wrong parity in the column pick reads off a clean simple
        table, computed or stored, and assert that the gate refuses it on
        the next setting before any table reads it."""
        W = self.SETTINGS[name]()[0].system
        store = PolyStore(W.tag, W.rank) if source == "stored" else None
        twin, x, max_len = self.SETTINGS[name](store)
        key = pick(twin, twin.simple_table(x, max_len=max_len), x)
        lower, bad = self.wrong_parity(twin.hecke, key)
        if store is None:
            plant_computed(monkeypatch, *key, lower, bad)
            error, where = InternalInvariantError, "computed"
        else:
            store.save(tmp_path / "store.jsonl")
            plant_stored(tmp_path / "store.jsonl", *key, lower, bad)
            store = PolyStore.load(tmp_path / "store.jsonl", W.tag, W.rank)
            error, where = CacheError, "stored"
        setting = self.SETTINGS[name](store)[0]
        with pytest.raises(error, match=rf"{where} column .* of {re.escape(key[0])} .*, parity"):
            setting.simple_table(x, max_len=max_len)
        assert memo_key(setting.hecke, key) not in setting.hecke._columns  # never memoized, so never read

    @pytest.mark.parametrize("name", sorted(SETTINGS))
    def test_wrong_parity_in_a_direct_column_read_by_the_solve(self, name, monkeypatch):
        self.assert_gate_refuses(name, self.solve_column, "computed", monkeypatch, None)

    @pytest.mark.parametrize("name", sorted(SETTINGS))
    def test_wrong_parity_in_a_seed(self, name, monkeypatch):
        self.assert_gate_refuses(name, self.seed_column, "computed", monkeypatch, None)

    @pytest.mark.parametrize("name", sorted(SETTINGS))
    def test_wrong_parity_in_a_stored_column_read_by_the_solve(self, name, tmp_path):
        self.assert_gate_refuses(name, self.solve_column, "stored", None, tmp_path)

    @pytest.mark.parametrize("name", sorted(SETTINGS))
    def test_wrong_parity_in_a_stored_seed(self, name, tmp_path):
        self.assert_gate_refuses(name, self.seed_column, "stored", None, tmp_path)

    @pytest.mark.parametrize("name", ["KM-affA2-J", "quantum-A2-l5"])
    def test_the_j_side_reads_only_the_module_of_j(self, name):
        # with I = () the tables expand no h column and push no h inverse
        setting, x, _ = self.SETTINGS[name]()
        setting.standard_table(x)
        setting.simple_table(x)
        read = {fid for fid, _ in [*setting.hecke._columns, *setting.hecke._inverses]}
        assert read == {family_id(fam, setting.J) for fam in ("m", "n", "n_inv")}

    def test_each_column_passes_the_gate_once_per_context(self, monkeypatch):
        # a column is certified as it is memoized, whatever reads it: the
        # standard and simple tables of two x on a KM+ setting and of an O
        # setting gate each (family, upper) once per context, and every m
        # and n column they memoize
        gated = []
        real = HeckeContext._check_column

        def spy(self, col, y, fid, loaded):  # y is an element id
            gated.append((id(self), fid, y))
            return real(self, col, y, fid, loaded)

        monkeypatch.setattr(HeckeContext, "_check_column", spy)
        km, x, max_len = self.SETTINGS["KM+-affA2"]()
        first = km.simple_table(x, max_len=max_len)
        km.standard_table(x, max_len=max_len)
        above = first.entries[-1][0]  # another x, whose rows are among the first's
        assert above != x
        km.simple_table(above, max_len=max_len)
        km.standard_table(above, max_len=max_len)
        O, x, _ = self.SETTINGS["O-A3-I"]()
        O.standard_table(x)
        O.simple_table(x)
        assert len(set(gated)) == len(gated)
        for context in (km.hecke, O.hecke):
            got = {(fid, u) for c, fid, u in gated if c == id(context)}
            assert got and got == {key for key in context._columns if key[0] != "h"}

    @staticmethod
    def plant(setting, key, low, length_gap):
        """Add v^(length_gap + 1), of the wrong parity, at low to a memoized
        inverse column."""
        col = setting.hecke._inverses[key]
        setting.hecke._inverses[key] = {**col, low: col.get(low, ZERO) + LaurentPoly.v(length_gap + 1)}

    def test_wrong_parity_in_an_inverse_entry_at_positive_level(self):
        # each memoized inverse column of a row z is read once, at x
        setting, x, max_len = self.SETTINGS["KM+-affA2"]()
        table = setting.simple_table(x, max_len=max_len)
        k_x, k = key_of(setting, x), key_of(setting, table.entries[-1][0])
        key = column_key(setting, "m_inv", k)
        self.plant(setting, key, k_x, k.length - k_x.length)
        with pytest.raises(
            InternalInvariantError, match="parity certificate failed in the simple-object formula"
        ):
            setting.simple_table(x, max_len=max_len)

    @pytest.mark.parametrize("name", sorted(SETTINGS))
    def test_index_set_is_enumerated_once(self, name, monkeypatch):
        # rows below x come off the solved vectors, so only the upward rows of
        # positive level enumerate reps: once per (J, I, max_len) for every
        # table of the system; an explicit y enumerates nothing, and the
        # literal z-sum is one push
        setting, x, max_len = self.SETTINGS[name]()
        calls = []
        real = setting.system._quotient  # the walk behind quotient_reps
        monkeypatch.setattr(
            setting.system, "_quotient", lambda *a, **k: calls.append(a) or real(*a, **k)
        )
        want = setting.simple_table(x, max_len=max_len)
        setting.standard_table(x, max_len=max_len)
        assert setting.simple_table(x, max_len=max_len) == want
        assert len(calls) == (0 if max_len is None else 1)
        setting.simple_table(x, y_word=x)
        assert len(calls) == (0 if max_len is None else 1)
        if max_len is None:
            with pytest.raises(ValidationError, match="max_len applies to positive level only"):
                setting.simple_table(x, max_len=3)
            return
        want = setting.simple_table(x, max_len=max_len, literal_text=True)
        pushes = []
        hecke = setting.hecke
        push = hecke.inverse_combination
        monkeypatch.setattr(
            hecke, "inverse_combination", lambda *a: pushes.append(a) or push(*a)
        )
        for _ in range(2):
            assert setting.simple_table(x, max_len=max_len, literal_text=True) == want
        assert len(pushes) == 2

    @pytest.mark.parametrize("name", sorted(SETTINGS))
    def test_tables_do_not_walk_the_bruhat_interval(self, name, monkeypatch):
        # the same tables and explicit rows, with the subword enumeration gone
        def tables():
            setting, x, max_len = self.SETTINGS[name]()
            whole = [t(x, max_len=max_len) for t in (setting.standard_table, setting.simple_table)]
            y = next(w for w, _ in reversed(whole[1].entries) if w != tuple(x))
            rows = [t(x, y_word=y) for t in (setting.standard_table, setting.simple_table)]
            return whole + rows

        want = tables()

        def walk(*_):
            raise AssertionError("a table walked the Bruhat interval")

        monkeypatch.setattr(CoxeterSystem, "enumerate_below", walk)
        assert tables() == want
        assert all(t.entries for t in want)

    def test_explicit_positive_row_reads_only_the_z_above_x(self):
        # m^{z,x} is zero unless x <= z, and a z with n_{z,y} = 0 adds nothing,
        # so one row y builds the inverse columns of the z in [x, y] with
        # n_{z,y} != 0 and of no other z
        setting = km_pos_setting("affA2", (1,))
        W = setting.system
        # the indices in the ShortLex order of their coset parts u = k^-1
        reps, _ = W.regular_double_coset_reps((), (1,), max_len=11)
        xs = [setting._index_of(u.inverse()) for u in reps]
        x = next(x for x in xs if x.length == 9)
        y = next(y for y in xs if y.length == 12 and W.bruhat_leq(x, y))
        row = setting.simple_table(x.word, y_word=y.word)
        inverse_keys = [k for k in setting.hecke._inverses if k[0] == "m_inv[1]"]
        n_index = lambda z: key_of(setting, z.word) * setting.wJ  # noqa: E731
        n_col = setting.hecke.parabolic_column("n", setting.I, n_index(y))
        between = [z for z in xs if W.bruhat_leq(x, z) and W.bruhat_leq(z, y)]
        reads = [z for z in between if n_col.get(n_index(z), ZERO)]
        assert len(inverse_keys) == len(reads) > 1
        assert len(reads) < len(between)
        assert row.entry(y.word) == setting.simple_table(x.word, max_len=12).entry(y.word)
        assert row.entry(y.word)


class TestTrustMap:
    """Which check sees a wrong direct coefficient that keeps its parity and
    sign, and so passes the gate: the trust map of the README, pinned."""

    # (setting, x, max_len), with I non-empty so that m and n differ, or on
    # the J side (I = (), J non-empty), whose tables read m^J and n^J
    SETTINGS = {
        "O": lambda: (o_setting("A3", (2,)), (1, 2, 3), None),
        "KM-": lambda: (km_setting("affA2", (1,)), (1, 0, 2, 1, 0), None),
        "KM+": lambda: (km_pos_setting("affA2", (1,)), (0, 1), 6),
        "quantum": lambda: (quantum_setting("A2", 5, (1,)), (0, 1, 2, 1, 0, 2), None),
        "O (J)": lambda: (o_setting("A3", (), (2,)), (1, 2, 1, 3, 2, 1), None),
        "KM- (J)": lambda: (km_setting("affA2", (), (1,)), (1, 0, 2, 1, 0), None),
        "quantum (J)": lambda: quantum_at_weight("A2", 5, (5, 15)),
    }
    # a phrase of each check's message -> its name in the map
    ROUTES = {
        "antispherical twin": "twin",
        "inversion identity fails": "residue",
        "multiplicity at": "_finalize",
    }
    HEADER = "| setting | object | m column | n column |"

    @classmethod
    def pinned(cls):
        """The trust map of the README: {(setting, object): {family: route}}."""
        text = (Path(__file__).parents[1] / "README.md").read_text()
        rows = {}
        for line in text[text.index(cls.HEADER):].split("\n")[2:]:
            if not line.startswith("|"):
                break
            setting, obj, m, n = (cell.strip().strip("`") for cell in line.strip("|").split("|"))
            rows[setting, obj] = {"m": m, "n": n}
        return rows

    def route(self, name, obj, fam, monkeypatch):
        """Raise one coefficient by 2, keeping its sign, in the longest fam
        column the table reads, at the longest entry whose fault reaches the
        table (trying shorter columns next), and name the check that fires:
        none when the table returns other rows, and — when it reads no
        column of fam."""
        clean_setting, x, max_len = self.SETTINGS[name]()
        clean = getattr(clean_setting, obj + "_table")(x, max_len=max_len)
        context, W = clean_setting.hecke, clean_setting.system
        fid = family_id(fam, clean_setting.J if clean_setting._j_side else clean_setting.I)
        by_length = lambda ids: sorted(map(W._handle, ids), key=CoxeterElement.sort_key, reverse=True)  # noqa: E731
        uppers = by_length(u for f, u in context._columns if f == fid)
        if not uppers:
            return "—"
        for y in uppers:
            col = context._columns[fid, y.id][0]
            for low in by_length(u for u in col if u != y.id):
                e, c = context._poly(col[low.id]).terms[0]
                with monkeypatch.context() as patch:
                    plant_computed(patch, fid, y.word, low.word, LaurentPoly({e: 2 if c > 0 else -2}))
                    setting = self.SETTINGS[name]()[0]
                    try:
                        got = getattr(setting, obj + "_table")(x, max_len=max_len)
                    except InternalInvariantError as exc:
                        return next((route for text, route in self.ROUTES.items() if text in str(exc)), str(exc))
                if got != clean:
                    return "none"
        raise AssertionError(f"no fault in {fid} reaches the {obj} table")

    def test_the_map_covers_every_table(self):
        assert set(self.pinned()) == {(name, obj) for name in self.SETTINGS for obj in ("standard", "simple")}

    @pytest.mark.parametrize("name", sorted(SETTINGS))
    @pytest.mark.parametrize("obj", ["standard", "simple"])
    def test_route(self, name, obj, monkeypatch):
        got = {fam: self.route(name, obj, fam, monkeypatch) for fam in ("m", "n")}
        assert got == self.pinned()[name, obj]


def convolution(p, p_prime, length_of, len_first, len_second):
    """Pairing sum_z bar(p_z) * p'_z with a parity certificate.

    When every p_z has parity len_first - len(z) and every p'_z parity
    len_second - len(z), no cancellation can occur between the terms of a
    fixed tilting multiplicity and the result is exact; otherwise the result
    is only an upper bound and exact=False is returned.
    """
    exact = True
    total = ZERO
    for z, pz in p.items():
        lz = length_of[z]
        if not pz.has_parity(len_first - lz):
            exact = False
        q = p_prime.get(z, ZERO)
        if q and not q.has_parity(len_second - lz):
            exact = False
        total = total + pz.bar() * q
    return total, exact


def per_z_rows(setting, x_word, max_len=None):
    """The simple table by the literal pairing: one inverse column per z, then
    the convolution at every row, with the parity certificate on its terms.
    At negative level z runs below x and the pairing is bar(n_{z,x}) m^{z,y};
    at positive level z runs between x and y and it is bar(m^{z,x}) n_{z,y}.
    The rows and the z come from the subword enumeration of each interval."""
    W, wJ = setting.system, setting.wJ
    x = W.element(x_word)
    k_x = key_of(setting, x_word)
    positive = getattr(setting, "level", None) == "pos"
    if positive:
        keys, _ = W.regular_double_coset_reps(
            setting.I, setting.J, max_len=max_len - setting.wI.length
        )
        targets = [k for k in keys if W.bruhat_leq(k_x, k)]
    else:
        targets = keys_below(setting, k_x)
    n_col = setting.hecke.parabolic_column("n", setting.I, k_x * wJ)
    rows = {}
    for k_y in targets:
        y = setting._index_of(k_y)
        if positive:
            zs = {
                setting._index_of(k): k for k in keys_below(setting, k_y) if W.bruhat_leq(k_x, k)
            }
            y_col = setting.hecke.parabolic_column("n", setting.I, k_y * wJ)
            direct = {z: y_col.get(k * wJ, ZERO) for z, k in zs.items()}
            inv = {
                z: setting.hecke.inverse_column("m", setting.I, k).get(k_x, ZERO)
                for z, k in zs.items()
            }
            total, exact = convolution(inv, direct, {z: z.length for z in zs}, x.length, y.length)
        else:
            zs = {setting._index_of(k): k for k in keys_below(setting, k_x)}
            direct = {z: n_col.get(k * wJ, ZERO) for z, k in zs.items()}
            inv = {
                z: setting.hecke.inverse_column("m", setting.I, k).get(k_y, ZERO)
                for z, k in zs.items()
            }
            total, exact = convolution(direct, inv, {z: z.length for z in zs}, x.length, y.length)
        assert exact
        if total:
            rows[y.word] = total
    return rows


PER_Z_CASES = [
    pytest.param(make, tag, I, J, max_len, id=f"{name}-{tag}-I{list(I)}-J{list(J)}")
    for name, make, tags, subsets, max_len in [
        ("O", o_setting, ("A3", "B3", "G2"), [((), ()), ((1,), ()), ((), (2,))], None),
        ("KM-", km_setting, ("affA1", "affA2"), [((), ()), ((1,), ()), ((), (0,))], 4),
    ]
    for tag in tags
    for I, J in subsets
]


@pytest.mark.parametrize("make, tag, I, J, max_len", PER_Z_CASES)
def test_one_solve_equals_the_per_z_pairing(make, tag, I, J, max_len):
    setting = make(tag, I, J)
    words = index_words(setting, max_len)
    assert words
    for x in words:
        assert as_dict(setting.simple_table(x)) == per_z_rows(setting, x)


@pytest.mark.parametrize(
    "tag, I, J",
    [
        pytest.param(tag, I, J, id=f"{tag}-I{list(I)}-J{list(J)}")
        for tag, I, J in [("affA1", (1,), ()), ("affA2", (1,), ()), ("affA2", (1,), (0,))]
    ],
)
def test_positive_table_equals_the_per_z_pairing(tag, I, J):
    # index words x with keys of length at most 2, rows y of length at most 6
    setting = km_pos_setting(tag, I, J)
    words = index_words(setting, 2)
    assert words
    for x in words:
        assert as_dict(setting.simple_table(x, max_len=6)) == per_z_rows(setting, x, 6)


def positive_simple_mismatches(setting, max_len):
    """The KM+ simple tables of a setting that differ from a second route,
    and how many were compared: every whole table with max_len, and each
    table at an explicit y that is a nonzero row or a key as long as x's.

    The route is the negative-level simple solve seeded at y and read at x.
    Bar is a ring involution, so the row S_{x,y} = sum_z bar(m^{z,x}) n_{z,y}
    is bar(sum_z bar(n_{z,y}) m^{z,x}), the m^I inverse combination seeded
    by bar of y's n column, read at k_x and barred.  It shares no code with
    the table's pairing (laurent._mac), its z filter or its row filter."""
    keys, _ = setting.system.regular_double_coset_reps(
        setting.I, setting.J, max_len=max_len - setting.wI.length
    )
    solved = {
        k_y: setting.hecke.inverse_combination(
            "m", setting.I, {k: p.bar() for k, p in setting._n_entries(k_y).items()}
        )
        for k_y in keys
    }
    bad, compared = [], 0
    for k_x in keys:
        x = setting._index_of(k_x).word
        row = {setting._index_of(k_y).word: vec.get(k_x, ZERO).bar() for k_y, vec in solved.items()}
        tables = [(setting.simple_table(x, max_len=max_len), {y: p for y, p in row.items() if p})]
        for k_y in keys:
            y = setting._index_of(k_y).word
            if k_y.length == k_x.length or row[y]:
                tables.append((setting.simple_table(x, y, max_len=max_len), {y: row[y]}))
        for table, want in tables:
            compared += 1
            if as_dict(table) != want:
                bad.append(table)
    return bad, compared


@pytest.mark.parametrize("tag, max_len", [("affA1", 7), ("affA2", 6), ("affB2", 5)])
def test_positive_simple_tables_equal_the_negative_level_solve(tag, max_len):
    hk = HeckeContext(CoxeterSystem.from_type(tag))
    subsets = [c for k in range(3) for c in itertools.combinations(hk.system.names, k)]
    compared = 0
    for I, J in itertools.product(subsets, repeat=2):
        try:
            setting = KacMoody(hk, I, J, "pos")
        except ValidationError:  # J or I generates an infinite parabolic
            continue
        if setting.wI.length <= max_len:
            bad, n = positive_simple_mismatches(setting, max_len)
            assert not bad, (I, J, bad[0])
            compared += n
    assert compared > 300  # whole tables and explicit rows


def test_the_negative_level_solve_sees_a_fault_in_the_pairing(monkeypatch):
    # each term n_{z,y} bar(m^{z,x}) with z != y gains 2 v^e at its top
    # exponent e: parity, sign and the diagonal hold, so the table's own
    # checks pass and only the second route can see it
    real = tilting._mac

    def planted(acc, p, q):
        real(acc, p, q)
        if p != ONE:  # n_{z,y} is 1 only at z = y
            e = p.max_degree() + max(e for e, _ in q)
            acc[e] = acc.get(e, 0) + 2

    setting = km_pos_setting("affA2", (1,), ())
    assert not positive_simple_mismatches(setting, 6)[0]
    monkeypatch.setattr(tilting, "_mac", planted)
    bad, _ = positive_simple_mismatches(km_pos_setting("affA2", (1,), ()), 6)
    assert bad


@pytest.mark.parametrize("slot", [2, 3, 4])
@pytest.mark.parametrize(
    "make, tag, I",
    [
        pytest.param(o_setting, "B3", (), id="O-B3"),
        pytest.param(o_setting, "B3", (1,), id="O-B3-I[1]"),
        pytest.param(km_setting, "affA2", (), id="KM-affA2"),
    ],
)
def test_narrow_slots_give_the_reference_or_raise(monkeypatch, slot, make, tag, I):
    # with a few bits per packed slot the bounds are reached early: a column
    # past its bound raises, a solve past its bound starts again wider, and
    # no table differs from the per-z convolution reference
    setting = make(tag, I)
    words = index_words(setting, 4 if tag.startswith("aff") else None)
    want = {x: per_z_rows(setting, x) for x in words}
    monkeypatch.setattr(hecke, "SLOT", slot)
    solve, widened = hecke.HeckeContext._solve, []

    def spy(self, *args):
        inv = solve(self, *args)
        widened.append(inv is None)
        return inv

    monkeypatch.setattr(hecke.HeckeContext, "_solve", spy)
    narrow, outcomes = make(tag, I), set()
    for x in words:
        try:
            got = as_dict(narrow.simple_table(x))
        except InternalInvariantError as exc:
            assert "-bit slot" in str(exc)
            outcomes.add("raised")
            continue
        assert got == want[x], x
        outcomes.add("equal")
    assert "equal" in outcomes and ("raised" in outcomes or any(widened))


class TestConvolution:
    def test_exact_when_parity_holds(self):
        p = {"z": P("v")}
        q = {"z": P("v")}
        total, exact = convolution(p, q, {"z": 0}, 1, 1)
        assert total == ONE and exact

    def test_flagged_when_parity_fails(self):
        p = {"z": P("1 + v")}
        q = {"z": P("v")}
        total, exact = convolution(p, q, {"z": 0}, 1, 1)
        assert not exact

    def test_missing_second_factor_is_zero(self):
        total, exact = convolution({"z": P("v")}, {}, {"z": 0}, 1, 1)
        assert total == ZERO and exact


def _system_with_its_table():
    W = CoxeterSystem.from_type("A3")
    W.quotient_reps(())  # every element, each step slot filled
    return W, None


def _hecke_with_every_family():
    W = CoxeterSystem.from_type("A3")
    ctx = HeckeContext(W)
    w0, y = W.longest_element(), W.element((2, 1))
    ctx.kl_column(w0)
    ctx.parabolic_column("m", (1,), y)
    ctx.parabolic_column("n", (1,), y)
    ctx.inverse_column("h", (), w0)
    ctx.inverse_column("n", (1,), y)
    return W, ctx


def _both_tables(setting, x_word, **kw):
    setting.standard_table(x_word, **kw)
    setting.simple_table(x_word, **kw)
    return setting.system, setting


def _quantum():
    setting, x = Quantum.from_weight("A2", 5, (3, 1))
    return _both_tables(setting, x.word)[0], (setting, x)


HOLDERS = {
    "system": _system_with_its_table,
    "hecke": _hecke_with_every_family,
    "O": lambda: _both_tables(CategoryO(HeckeContext(CoxeterSystem.from_type("A3")), (), ()), (1, 2, 1)),
    "KM-": lambda: _both_tables(
        KacMoody(HeckeContext(CoxeterSystem.from_type("affA2")), (), (), level="neg"), (0, 1, 2)
    ),
    "KM+": lambda: _both_tables(
        KacMoody(HeckeContext(CoxeterSystem.from_type("affA2")), (1,), (), level="pos"), (1,), max_len=5
    ),
    "quantum": _quantum,
}


class TestLifetime:
    """A system owns its element table, and its elements refer to it
    weakly: the table is freed by reference counts when the last holder of
    the system lets go, with nothing left for the cyclic collector."""

    @pytest.mark.parametrize("holder", HOLDERS)
    def test_dropping_the_holder_frees_the_system(self, holder):
        # a collection can finalize old garbage into new garbage
        while gc.collect():
            pass
        gc.disable()
        try:
            system, kept = HOLDERS[holder]()
            ref = weakref.ref(system)
            del system, kept
            assert ref() is None
            assert gc.collect() == 0
        finally:
            gc.enable()

    def test_a_system_in_a_cycle_goes_in_one_collection(self):
        # releasing the system must make no new reference to its table, or
        # the collector takes it for a resurrection and keeps it all
        while gc.collect():
            pass
        gc.disable()
        try:
            W = CoxeterSystem.from_type("A3")
            W.quotient_reps(())
            W.itself = W
            del W
            assert gc.collect() > 0
            assert gc.collect() == 0
        finally:
            gc.enable()

    def test_an_element_outlives_its_system(self):
        W = CoxeterSystem.from_type("A3")
        x, y = W.element((2, 1, 3, 2)), W.element((1,))
        z = W.element((3, 2, 1))  # an element whose word is not read while W lives
        data = (x.word, x.length, x.rvec, x.lvec, x.matrix, x.ldesc, x.rdesc)
        twin = CoxeterSystem.from_type("A3").element((3, 2, 1))
        twin_data = (twin.word, twin.length, twin.rvec, twin.lvec, twin.matrix, twin.ldesc, twin.rdesc)
        ref = weakref.ref(W)
        del W
        assert ref() is None
        assert (x.word, x.length, x.rvec, x.lvec, x.matrix, x.ldesc, x.rdesc) == data
        assert (z.word, z.length, z.rvec, z.lvec, z.matrix, z.ldesc, z.rdesc) == twin_data
        for el in (x, z):
            named = re.escape(repr(el))
            for step in (lambda: el.times_gen(1), lambda: el * y, el.inverse, el.left_descents):
                with pytest.raises(ReferenceError, match=named):
                    step()
            with pytest.raises(ValidationError, match=f"element {named} is not of system A3"):
                HeckeContext(CoxeterSystem.from_type("A3")).kl_column(el)

    @pytest.mark.parametrize("tag, fam, I", [("D5", "h", ()), ("A5", "n", (1,))])
    def test_building_adds_no_tracked_object_per_element(self, tag, fam, I):
        # the element table is lists of ints: building the top h column of D5
        # (every element, by left steps) or the top n[1] column of A5 (W^I, by
        # right steps), read packed so no element leaves the engine, adds
        # fewer than |W| / 10 objects that the cyclic collector tracks
        W = CoxeterSystem.from_type(tag)
        y = W.project(W.longest_element(), I, "left")
        context = HeckeContext(W)
        gc.collect()
        gc.disable()
        try:
            before = len(gc.get_objects())
            context._direct_column(fam, I, y.id)
            grown = len(gc.get_objects()) - before
        finally:
            gc.enable()
        order = len(W.quotient_reps(())[0])
        assert len(W._len) >= order // (2 if I else 1)  # all of W, or of W^I, |W_I| = 2
        assert grown < order / 10, grown


class TestTableShape:
    def test_json_schema(self):
        O = CategoryO(HeckeContext(A1), (), ())
        obj = O.simple_table((1,)).to_json_obj()
        assert obj == {
            "setting": "O",
            "system": "A1",
            "I": [],
            "J": [],
            "x": "1",
            "entries": [
                {"y": "", "poly": {"-1": 1, "1": 1}},
                {"y": "1", "poly": {"0": 1}},
            ],
            "dims": {"nabla": 1, "delta": 1},
        }

    def test_entries_sorted_by_length_then_word(self):
        O = CategoryO(HeckeContext(A3), (), ())
        t = O.standard_table((2, 1, 3, 2))
        sizes = [len(w) for w, _ in t.entries]
        assert sizes == sorted(sizes)

    def test_filtration_dims_of_zero_table(self):
        assert filtration_dims({}) == (0, 0)
        assert filtration_dims({(): ZERO}) == (0, 0)

    @given(st.integers(-3, 3), st.integers(0, 3))
    def test_filtration_dims_bounds(self, lo, spread):
        p = LaurentPoly.v(lo) + LaurentPoly.v(lo + spread)
        nabla, delta = filtration_dims({(): p})
        assert nabla == max(lo + spread, 0)
        assert delta == max(-lo, 0)


@settings(deadline=None, max_examples=25)
@given(st.sampled_from(["A2", "B2"]), st.data())
def test_standard_tables_refine_to_characters(tag, data):
    """Sanity: the table at x has unit diagonal and triangular support."""
    system = CoxeterSystem.from_type(tag)
    O = CategoryO(HeckeContext(system), (), ())
    els = system.enumerate_below(system.longest_element())
    x = data.draw(st.sampled_from(els))
    t = O.standard_table(x.word)
    assert t.entry(x.word) == ONE
    for w, p in t.entries:
        assert system.bruhat_leq(system.element(w), x)
        assert p.is_nonneg()
