"""Root systems, dilated dot actions, linkage data, alcove walks."""

from dataclasses import dataclass
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from tiltc import coxeter
from tiltc.coxeter import CoxeterElement, CoxeterSystem
from tiltc.errors import ValidationError
from tiltc.rootdata import LinkageDatum, RootSystem, format_weight, parse_weight


def act(R: RootSystem, w: CoxeterElement, weight) -> tuple:
    """The linear action of a finite Weyl element on a weight, its letters
    applied right to left."""
    out = tuple(weight)
    for s in reversed(w.word):
        out = R.reflect(out, s)
    return out


@dataclass(frozen=True)
class AffineElement:
    """Element of the dilated affine Weyl group: translation part gamma (in
    fundamental coordinates, to be scaled by r) and a finite Weyl part."""

    gamma: tuple
    finite: CoxeterElement


class AffineForm:
    """The translation/reflection form of a linkage datum: a second route to
    its dot action and to the words of its affine Coxeter system."""

    def __init__(self, datum: LinkageDatum):
        self.d = datum
        self.finite = CoxeterSystem.from_type(datum.roots.tag)
        self.finite.enumerate_below(self.finite.longest_element())  # build every element
        self.s_beta = self.reflection(datum.wall_root)

    def reflection(self, root) -> CoxeterElement:
        """The reflection s_root as an element of the finite system."""
        R = self.d.roots
        n = R.rank
        rows = []
        for k in range(n):
            row = []
            for j in range(n):
                pairing = sum(root.coroot[i] * R.cartan[i][j] for i in range(n))
                row.append((1 if k == j else 0) - pairing * root.coords[k])
            rows.append(tuple(row))
        mat = tuple(rows)
        # an element is keyed by the column sums of its matrix, the heights of w(alpha_j)
        el = self.finite._handle(self.finite._by_r[coxeter._pack(map(sum, zip(*mat)))])
        assert el.matrix == mat, "reflection matrix is not a group element"
        assert (el * el).length == 0, "reflection matrix is not an involution"
        return el

    def generator(self, i: int) -> AffineElement:
        if i == 0:
            return AffineElement(self.d.wall_fund, self.s_beta)
        return AffineElement((0,) * self.d.roots.rank, self.finite.generators[i])

    def compose(self, a: AffineElement, b: AffineElement) -> AffineElement:
        moved = act(self.d.roots, a.finite, b.gamma)
        return AffineElement(tuple(x + y for x, y in zip(a.gamma, moved)), a.finite * b.finite)

    def word_to_affine(self, word) -> AffineElement:
        out = AffineElement((0,) * self.d.roots.rank, self.finite.identity)
        for i in word:
            out = self.compose(out, self.generator(i))
        return out

    def dot(self, ae: AffineElement, weight) -> tuple:
        moved = act(self.d.roots, ae.finite, tuple(w + 1 for w in weight))
        return tuple(m + self.d.r * g - 1 for m, g in zip(moved, ae.gamma))

    def affine_to_word(self, ae: AffineElement) -> CoxeterElement:
        """Canonical word of a translation/reflection pair, via a regular point."""
        d = self.d
        t = Fraction(d.r, d.wall_root.coheight() + 1)
        base = tuple(t - 1 for _ in range(d.roots.rank))
        letters, final = d._walk(self.dot(ae, base))
        assert final == base, "affine element walk did not return to base"
        return d.coxeter.element(letters)


def squared_length(R, root):
    """(alpha, alpha) up to scale: the form d_i C[i][j] is symmetric, with
    d_i proportional to (alpha_i, alpha_i)."""
    c = root.coords
    return sum(
        c[i] * R.symmetrizer[i] * R.cartan[i][j] * c[j]
        for i in range(R.rank)
        for j in range(R.rank)
    )


class TestRootSystem:
    def test_A2(self):
        R = RootSystem.from_type("A2")
        assert R.D == 1 and R.symmetrizer == (1, 1)
        assert R.highest_root.coords == (1, 1)
        assert R.highest_short_root.coords == (1, 1)
        assert R.fund_coords(R.highest_root) == (1, 1)

    def test_B2(self):
        R = RootSystem.from_type("B2")
        assert R.D == 2 and R.symmetrizer == (2, 1)
        assert R.highest_root.coords == (1, 2)
        assert R.highest_short_root.coords == (1, 1)
        lengths = {squared_length(R, r) for r in R.positive_roots}
        assert squared_length(R, R.highest_root) == max(lengths)
        assert squared_length(R, R.highest_short_root) == min(lengths) < max(lengths)

    def test_G2(self):
        R = RootSystem.from_type("G2")
        assert R.D == 3
        assert R.highest_root.height() == 5
        assert R.highest_short_root.coords == (2, 1)

    def test_pairings(self):
        R = RootSystem.from_type("A2")
        rho = (1, 1)
        assert R.pair(rho, R.highest_root.coroot) == 2  # height of the coroot

    def test_reflect(self):
        R = RootSystem.from_type("A2")
        # s_1 on fundamental coords: (1,0) -> (-1,1)
        assert R.reflect((1, 0), 1) == (-1, 1)
        assert R.reflect((0, 1), 1) == (0, 1)  # s_1 fixes the other fundamental weight

    def test_act_is_group_action(self):
        R = RootSystem.from_type("B2")
        from tiltc.coxeter import CoxeterSystem

        W = CoxeterSystem.from_type("B2")
        lam = (3, -2)
        x, y = W.element([1, 2]), W.element([2, 1, 2])
        assert act(R, x * y, lam) == act(R, x, act(R, y, lam))

    def test_rejects_affine_tag(self):
        with pytest.raises(ValidationError):
            RootSystem.from_type("affA2")

    @pytest.mark.parametrize("tag", ["A01", "E006", "A2\n", "A\u0662"])
    def test_only_canonical_type_tags_are_read(self, tag):
        with pytest.raises(ValidationError, match="not a finite type tag"):
            RootSystem.from_type(tag)
        # a linkage datum would otherwise build the affine system aff + tag
        with pytest.raises(ValidationError, match="not a finite type tag"):
            LinkageDatum(tag, 5)


class TestLinkageArithmetic:
    @pytest.mark.parametrize(
        "tag,ell,ell_prime,r,lattice,aff_tag",
        [
            ("A1", 5, 5, 5, "stretched", "affA1"),
            ("A2", 5, 5, 5, "stretched", "affA2"),
            ("A2", 4, 2, 2, "stretched", "affA2"),
            ("B2", 4, 2, 1, "stretched", "affB2"),
            ("B2", 5, 5, 5, "root", "affB2d"),
            ("G2", 6, 3, 1, "stretched", "affG2"),
            ("G2", 5, 5, 5, "root", "affG2d"),
        ],
    )
    def test_levels(self, tag, ell, ell_prime, r, lattice, aff_tag):
        d = LinkageDatum(tag, ell)
        assert d.ell_prime == ell_prime
        assert d.r == r
        assert d.lattice == lattice
        assert d.coxeter.tag == aff_tag

    def test_wall_root_choice(self):
        assert LinkageDatum("B2", 4).wall_root.coords == (1, 2)  # highest root
        assert LinkageDatum("B2", 5).wall_root.coords == (1, 1)  # highest short

    def test_dual_affinization_orders(self):
        # reflection in the short-root wall of B2 braids with s_2 at order 4
        d = LinkageDatum("B2", 5)
        assert d.coxeter.coxeter_matrix[(0, 1)] == 4
        assert d.coxeter.coxeter_matrix[(0, 2)] == 2

    def test_ell_validation(self):
        with pytest.raises(ValidationError):
            LinkageDatum("A1", 0)


class TestDotAction:
    def test_spec_value(self):
        d = LinkageDatum("A1", 5)
        assert d.dot_simple(0, (7,)) == (1,)

    def test_finite_dot(self):
        d = LinkageDatum("A2", 5)
        assert d.dot_simple(1, (0, 0)) == (-2, 1)  # s_1 . 0 = -alpha_1

    def test_involution(self):
        d = LinkageDatum("B2", 5)
        lam = (3, 1)
        for i in (0, 1, 2):
            assert d.dot_simple(i, d.dot_simple(i, lam)) == lam

    @given(
        st.tuples(st.integers(-9, 9), st.integers(-9, 9)),
        st.lists(st.sampled_from([0, 1, 2]), max_size=6).map(tuple),
        st.lists(st.sampled_from([0, 1, 2]), max_size=6).map(tuple),
    )
    @settings(max_examples=40, deadline=None)
    def test_dot_word_is_action(self, lam, w1, w2):
        d = LinkageDatum("A2", 7)
        assert d.dot_word(w1 + w2, lam) == d.dot_word(w1, d.dot_word(w2, lam))

    @given(
        st.tuples(st.integers(-9, 9), st.integers(-9, 9)),
        st.lists(st.sampled_from([0, 1, 2]), max_size=7).map(tuple),
    )
    @settings(max_examples=40, deadline=None)
    def test_affine_form_matches_word(self, lam, w):
        d = LinkageDatum("A2", 7)
        f = AffineForm(d)
        assert f.dot(f.word_to_affine(w), lam) == d.dot_word(w, lam)


class TestAffineRoundTrip:
    @given(st.lists(st.sampled_from([0, 1, 2]), max_size=7).map(tuple))
    @settings(max_examples=40, deadline=None)
    def test_word_affine_word(self, w):
        f = AffineForm(LinkageDatum("A2", 5))
        ae = f.word_to_affine(w)
        x = f.affine_to_word(ae)
        assert f.word_to_affine(x.word) == ae
        assert x == f.d.coxeter.element(w)

    def test_translation_parts(self):
        s0s1 = AffineForm(LinkageDatum("A1", 5)).word_to_affine((0, 1))
        assert s0s1.finite.length == 0
        assert s0s1.gamma == (2,)  # translation by alpha

    def test_nonsimply_laced_round_trip(self):
        f = AffineForm(LinkageDatum("B2", 5))
        for w in [(0,), (0, 2, 0), (1, 0, 2, 1), (0, 2, 0, 2)]:
            ae = f.word_to_affine(w)
            assert f.affine_to_word(ae) == f.d.coxeter.element(w)
            assert f.word_to_affine(f.affine_to_word(ae).word) == ae


class TestAlcoveNormalize:
    def test_regular_example(self):
        d = LinkageDatum("A1", 5)
        x, lam0, I = d.alcove_normalize((7,))
        assert (x.word, lam0, I) == ((0,), (1,), ())

    def test_wall_example(self):
        d = LinkageDatum("A1", 5)
        x, lam0, I = d.alcove_normalize((4,))
        assert (x.word, lam0, I) == ((), (4,), (0,))

    def test_rho_shift_wall(self):
        d = LinkageDatum("A1", 5)
        x, lam0, I = d.alcove_normalize((-1,))
        assert (x.word, lam0, I) == ((), (-1,), (1,))

    def test_projection_to_minimal(self):
        d = LinkageDatum("A1", 5)
        # -6 reflects to the wall weight 4: stabilizer {0}, x minimal
        x, lam0, I = d.alcove_normalize((-6,))
        assert lam0 == (4,) and I == (0,)
        assert d.coxeter.project(x, I, "right") == x
        assert d.dot_word(x.word, lam0) == (-6,)

    @given(st.tuples(st.integers(-15, 15), st.integers(-15, 15)))
    @settings(max_examples=50, deadline=None)
    def test_normalize_section_property(self, lam):
        d = LinkageDatum("A2", 5)
        x, lam0, I = d.alcove_normalize(lam)
        vals = d.wall_values(lam0)
        assert all(v >= 0 for v in vals.values())
        assert tuple(i for i in sorted(vals) if vals[i] == 0) == I
        assert d.dot_word(x.word, lam0) == lam
        assert d.coxeter.project(x, I, "right") == x


def dominant_reps(d, I, lam0, max_len):
    """The quantum index reps at lam0, each checked to give a dominant weight."""
    finite = tuple(range(1, d.roots.rank + 1))
    reps, truncated = d.coxeter.regular_double_coset_reps(finite, I, max_len=max_len)
    for x in reps:
        assert d.is_dominant(d.dot_word(x.word, lam0))
    return reps, truncated


class TestDominantReps:
    def test_A1_regular(self):
        d = LinkageDatum("A1", 5)
        reps, truncated = dominant_reps(d, (), (1,), 6)
        weights = [d.dot_word(x.word, (1,)) for x in reps]
        assert weights == [(1,), (7,), (11,), (17,), (21,), (27,), (31,)]
        assert truncated

    def test_A1_wall(self):
        d = LinkageDatum("A1", 5)
        reps, _ = dominant_reps(d, (0,), (4,), 6)
        assert [d.dot_word(x.word, (4,)) for x in reps] == [(4,), (14,), (24,), (34,)]

    def test_reps_are_regular_cosets(self):
        d = LinkageDatum("A2", 5)
        x, lam0, I = d.alcove_normalize((3, 6))
        reps, _ = dominant_reps(d, I, lam0, 5)
        finite = (1, 2)
        for w in reps:
            assert d.coxeter.project(w, finite, "left") == w
            assert d.coxeter.project(w, I, "right") == w
            assert d.coxeter.is_regular_double_coset_rep(w, finite, I)


class TestWeightsAndStabilizers:
    def test_parse_format(self):
        assert parse_weight("3,0,-1") == (3, 0, -1)
        assert parse_weight("3 0 -1") == (3, 0, -1)
        assert format_weight((3, 0, -1)) == "3,0,-1"
        with pytest.raises(ValidationError):
            parse_weight("")
        with pytest.raises(ValidationError):
            parse_weight("a,b")
