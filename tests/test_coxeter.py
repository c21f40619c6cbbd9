"""Coxeter engine: normal forms, Bruhat order, quotients, affinization."""

import itertools

import pytest
from hypothesis import given, settings, strategies as st

from tiltc import coxeter
from tiltc.coxeter import (
    CoxeterElement,
    CoxeterSystem,
    finite_cartan,
    format_word,
    parse_word,
    roots_and_coroots,
)
from tiltc.errors import InternalInvariantError

A2 = CoxeterSystem.from_type("A2")
A3 = CoxeterSystem.from_type("A3")
B2 = CoxeterSystem.from_type("B2")
AFF1 = CoxeterSystem.from_type("affA1")
AFF2 = CoxeterSystem.from_type("affA2")


def words(system, max_len=8):
    return st.lists(
        st.sampled_from(system.names), min_size=0, max_size=max_len
    ).map(tuple)


def brute_bruhat_leq(x, y):
    """Subword definition of Bruhat order, independent of the lifting recursion."""
    sys = x.system
    n = len(y.word)
    for mask in range(1 << n):
        sub = [y.word[i] for i in range(n) if mask >> i & 1]
        if sys.element(sub) == x:
            return True
    return False


def all_reduced_words(x):
    sys = x.system
    if x.is_identity():
        return {()}
    out = set()
    for s in x.left_descents():
        rest = all_reduced_words(x.times_gen(s, "left"))
        out |= {(s,) + w for w in rest}
    return out


class TestConstruction:
    def test_type_parsing_errors(self):
        for bad in ("H3", "A0", "F3", "affZ2", "B1", "E9"):
            with pytest.raises(ValueError):
                CoxeterSystem.from_type(bad)

    def test_generator_names(self):
        assert A3.names == (1, 2, 3)
        assert AFF2.names == (0, 1, 2)

    def test_affine_cartan_values(self):
        assert AFF1.cartan == ((2, -2), (-2, 2))
        assert AFF2.cartan == ((2, -1, -1), (-1, 2, -1), (-1, -1, 2))

    def test_affine_B2_structure(self):
        # highest root e1+e2 of B2 is orthogonal to alpha_1 and at 45 degrees
        # to alpha_2, so node 0 commutes with 1 and braids with 2 at order 4
        affB2 = CoxeterSystem.from_type("affB2")
        assert affB2.cartan[0] == (2, 0, -1)
        assert affB2.coxeter_matrix[(0, 1)] == 2
        assert affB2.coxeter_matrix[(0, 2)] == 4

    def test_gcm_validation(self):
        with pytest.raises(ValueError):
            CoxeterSystem("bad", (1, 2), ((2, 1), (1, 2)), finite=True)
        with pytest.raises(ValueError):
            CoxeterSystem("bad", (1, 2), ((2, -1), (0, 2)), finite=True)

    def test_braid_orders_realized(self):
        for sys in (A2, B2, CoxeterSystem.from_type("G2")):
            for s, t in itertools.permutations(sys.names, 2):
                m = sys.coxeter_matrix[(s, t)]
                st_el = sys.generators[s] * sys.generators[t]
                p = sys.identity
                for _ in range(m):
                    p = p * st_el
                assert p.is_identity()
                # and no smaller power is trivial
                p = sys.identity
                for k in range(1, m):
                    p = p * st_el
                    assert not p.is_identity()

    def test_affine_braid_infinite(self):
        st_el = AFF1.generators[0] * AFF1.generators[1]
        p = AFF1.identity
        for _ in range(12):
            p = p * st_el
            assert not p.is_identity()


class TestNormalForm:
    def test_braid_example(self):
        assert A2.element([2, 1, 2]).word == (1, 2, 1)

    def test_cancellation(self):
        assert A2.element([1, 1]).is_identity()
        assert A2.element([1, 2, 2, 1]).is_identity()

    def test_empty_word(self):
        assert A2.element([]) is A2.identity

    def test_unknown_generator(self):
        with pytest.raises(ValueError):
            A2.element([3])

    @given(words(B2))
    @settings(max_examples=80)
    def test_normal_form_is_canonical(self, w):
        x = B2.element(w)
        assert B2.element(x.word) == x
        assert len(x.word) == x.length

    @given(words(AFF2, max_len=7))
    @settings(max_examples=60)
    def test_shortlex_least_among_reduced_words(self, w):
        x = AFF2.element(w)
        if x.length <= 5:
            assert x.word == min(all_reduced_words(x))

    @given(words(B2), words(B2))
    @settings(max_examples=60)
    def test_length_subadditive(self, a, b):
        x, y = B2.element(a), B2.element(b)
        assert (x * y).length <= x.length + y.length
        assert ((x * y).length - x.length - y.length) % 2 == 0


class TestElementOps:
    def test_inverse(self):
        x = A3.element([1, 2, 3])
        assert (x * x.inverse()).is_identity()
        assert x.inverse().word == (3, 2, 1)

    def test_descents(self):
        x = A2.element([1, 2])
        assert x.right_descents() == {2}
        assert x.left_descents() == {1}
        w0 = A2.longest_element()
        assert w0.right_descents() == {1, 2} == w0.left_descents()

    def test_cross_system_mul_rejected(self):
        with pytest.raises(ValueError):
            A2.generators[1] * A3.generators[1]

    @pytest.mark.parametrize("W", [A3, AFF2], ids=["A3", "affA2"])
    def test_identity_factor_returns_other(self, W):
        for x in W.enumerate_below(W.element([1, 2, 1, 0 if W is AFF2 else 3])):
            assert W.identity * x is x
            assert x * W.identity is x

    def test_sort_key_deterministic(self):
        els = sorted(A2.enumerate_below(A2.longest_element()))
        assert [e.word for e in els] == [(), (1,), (2,), (1, 2), (2, 1), (1, 2, 1)]


def _gen_matrix(system, s):
    """Reflection matrix of s built from the Cartan matrix, independent of coxeter.py."""
    i = system.names.index(s)
    n = system.rank
    return tuple(
        tuple(
            ((1 if i == c else 0) - system.cartan[i][c]) if r == i else (1 if r == c else 0)
            for c in range(n)
        )
        for r in range(n)
    )


def _full_product(a, b):
    return tuple(
        tuple(sum(a[r][k] * b[k][c] for k in range(len(b))) for c in range(len(b[0])))
        for r in range(len(a))
    )


def _word_matrix(system, word):
    """Product of the test-side generator matrices along a word."""
    n = system.rank
    m = tuple(tuple(int(r == c) for c in range(n)) for r in range(n))
    for s in word:
        m = _full_product(m, _gen_matrix(system, s))
    return m


def _inv_matrix(x):
    """Matrix of x^-1, the product along the reversed word of x."""
    return _word_matrix(x.system, reversed(x.word))


def _column_sums(m):
    return tuple(map(sum, zip(*m)))


def _ball(system, max_len):
    ball = [system.identity]
    frontier = [system.identity]
    for _ in range(max_len):
        frontier = sorted(
            {x.times_gen(s) for x in frontier for s in system.names} - set(ball)
        )
        ball += frontier
    return ball


class TestRankOneSteps:
    """Every generator step against a full matrix product, on both sides.

    The non-symmetric Cartan matrices of B3, G2 and affG2 separate rows from
    columns, so a transposed rank-one update fails there.
    """

    @pytest.mark.parametrize("tag", ["A3", "B3", "G2", "affA2", "affG2"])
    def test_steps_match_full_products(self, tag):
        W = CoxeterSystem.from_type(tag)
        ident = W.identity.matrix
        gens = {s: _gen_matrix(W, s) for s in W.names}
        for x in _ball(W, 6):
            x_inv = _inv_matrix(x)
            for s, g in gens.items():
                for side in ("left", "right"):
                    y = x.times_gen(s, side)
                    if side == "right":
                        mat, inv = _full_product(x.matrix, g), _full_product(g, x_inv)
                    else:
                        mat, inv = _full_product(g, x.matrix), _full_product(x_inv, g)
                    assert (y.matrix, _inv_matrix(y)) == (mat, inv), (x, s, side)
                    assert y.inverse().matrix == inv, (x, s, side)
                    assert _full_product(y.matrix, inv) == ident
                    if not y.is_identity():
                        first = y.word[0]
                        assert first == min(y.left_descents())
                        assert y.times_gen(first, "left").word == y.word[1:]

    @pytest.mark.parametrize("tag", ["B3", "affG2"])
    def test_inverse_and_product_are_registered(self, tag):
        W = CoxeterSystem.from_type(tag)
        ball = _ball(W, 4)
        for a in ball:
            assert W.element(a.inverse().word) is a.inverse()
            for b in ball[:: max(1, len(ball) // 12)]:
                ab = a * b
                assert W._by_r[coxeter._pack(ab.rvec)] == ab.id == W._by_l[coxeter._pack(ab.lvec)]
                assert W._handle(ab.id) is ab

    @pytest.mark.parametrize("tag", ["B3", "G2", "affG2"])
    def test_products_match_full_products(self, tag):
        W = CoxeterSystem.from_type(tag)
        gens = {s: _gen_matrix(W, s) for s in W.names}
        ball = _ball(W, 4)
        for a in ball:
            for b in ball:
                ab = a * b
                assert ab.matrix == _full_product(a.matrix, b.matrix), (a, b)
                inv = _full_product(_inv_matrix(b), _inv_matrix(a))
                assert _inv_matrix(ab) == inv == ab.inverse().matrix, (a, b)
                word_matrix = W.identity.matrix
                for s in ab.word:
                    word_matrix = _full_product(word_matrix, gens[s])
                assert word_matrix == ab.matrix, (a, b)


def _table_elements(tag):
    """Every element of a finite type, the length <= 6 ball of an affine one."""
    W = CoxeterSystem.from_type(tag)
    if W.is_finite:
        return W, W.enumerate_below(W.longest_element())
    return W, _ball(W, 6)


def _table(W):
    """Every element the table of W holds, as elements, by id."""
    return [W._handle(u) for u in range(len(W._len))]


class TestElementTable:
    """Ids, slot-held lengths and descent masks, and the step slots."""

    TAGS = ["A3", "B3", "G2", "affA2"]

    @pytest.mark.parametrize("tag", TAGS)
    def test_steps_are_the_registered_elements(self, tag):
        W, els = _table_elements(tag)
        for x in els:
            for s in W.names:
                right, left = x.times_gen(s, "right"), x.times_gen(s, "left")
                assert right is W.element(x.word + (s,))
                assert left is W.element((s,) + x.word)
                assert right.times_gen(s, "right") is x
                assert left.times_gen(s, "left") is x

    @pytest.mark.parametrize("tag", TAGS)
    def test_lengths_and_masks(self, tag):
        W, els = _table_elements(tag)
        for x in els:
            assert x.length == len(x.word)
            inv = _inv_matrix(x)
            for j, s in enumerate(W.names):
                right = all(row[j] <= 0 for row in x.matrix)
                left = all(row[j] <= 0 for row in inv)
                assert bool(x.rdesc >> j & 1) == right
                assert bool(x.ldesc >> j & 1) == left == x.has_left_descent(s)
                assert (s in x.right_descents()) == right
                assert (s in x.left_descents()) == left

    @pytest.mark.parametrize("tag", TAGS)
    def test_ids_are_dense(self, tag):
        W, els = _table_elements(tag)
        size = len(W._len)
        assert sorted(W._by_r.values()) == sorted(W._by_l.values()) == list(range(size))
        assert len(W._r) == len(W._l) == len(W._ld) == len(W._rd) == size
        assert len(W._rows) == W.rank * size and len(W._succ) == 2 * W.rank * size
        for x in els:
            assert W._handle(x.id) is x
            assert W._by_r[coxeter._pack(x.rvec)] == x.id == W._by_l[coxeter._pack(x.lvec)]

    def test_ids_follow_build_order_and_nothing_else(self):
        W1, W2 = CoxeterSystem.from_type("A3"), CoxeterSystem.from_type("A3")
        ws = [x.word for x in A3.enumerate_below(A3.longest_element())]
        xs1 = [W1.element(w) for w in ws]
        xs2 = [W2.element(w) for w in reversed(ws)][::-1]
        assert [x.id for x in xs1] != [x.id for x in xs2]
        assert [x.word for x in xs1] == [x.word for x in xs2] == ws
        assert [x.word for x in sorted(_table(W1))] == [x.word for x in sorted(_table(W2))] == ws
        # an element is its own identity: the same word in another system is another element
        assert not any(x1 == x2 for x1, x2 in zip(xs1, xs2))


def _shortlex_words(W, max_len):
    """{matrix: word} over elements of length <= max_len, by test-side products.

    Words of each length are extended in lexicographic order, only from
    reduced words (a prefix of a reduced word is reduced), so the first word
    met for a matrix is its lexicographically least reduced word.
    """
    gens = [(s, _gen_matrix(W, s)) for s in W.names]
    first = {_word_matrix(W, ()): ()}
    layer = [((), _word_matrix(W, ()))]
    for _ in range(max_len):
        nxt = []
        for word, m in layer:
            for s, g in gens:
                mg = _full_product(m, g)
                if mg not in first:
                    first[mg] = word + (s,)
                    nxt.append((word + (s,), mg))
        layer = nxt
    return first


class TestVectorKeys:
    """r(x) and l(x) key the table; words come from the exchange condition."""

    @pytest.mark.parametrize("tag", ["A3", "B3", "G2", "D4", "affA2", "affG2", "affB2"])
    def test_vectors_are_column_sums_and_distinct(self, tag):
        W, els = _table_elements(tag)
        for x in els:
            assert x.rvec == _column_sums(x.matrix), x
            assert x.lvec == _column_sums(_inv_matrix(x)), x
        assert len({x.rvec for x in els}) == len(els)
        assert len({x.lvec for x in els}) == len(els)

    @pytest.mark.parametrize("tag, max_len", [("A3", 6), ("B3", 9), ("G2", 6), ("affA2", 6)])
    def test_words_are_lex_least_reduced_words(self, tag, max_len):
        W = CoxeterSystem.from_type(tag)
        first = _shortlex_words(W, max_len)
        # longest first, half of them by left steps, so both routes peel new elements
        for n, (m, word) in enumerate(reversed(first.items())):
            if n % 2:
                x = W.identity
                for s in reversed(word):
                    x = x.times_gen(s, "left")
            else:
                x = W.element(word)
            assert (x.word, x.matrix) == (word, m)
        if W.is_finite:
            assert len(first) == len(W._len)

    @given(
        st.sampled_from(["G2", "B3", "affA2", "affG2"]),
        st.lists(st.tuples(st.integers(0, 3), st.booleans()), max_size=14),
    )
    @settings(max_examples=60, deadline=None)
    def test_random_walks_match_matrix_products(self, tag, steps):
        W = CoxeterSystem.from_type(tag)
        x, mat = W.identity, _word_matrix(W, ())
        for k, left in steps:
            s = W.names[k % W.rank]
            g = _gen_matrix(W, s)
            x = x.times_gen(s, "left" if left else "right")
            mat = _full_product(g, mat) if left else _full_product(mat, g)
            inv = _inv_matrix(x)
            assert x.matrix == mat == _word_matrix(W, x.word)
            assert x.inverse().matrix == inv
            assert (x.rvec, x.lvec) == (_column_sums(mat), _column_sums(inv))
            for j in range(W.rank):
                assert bool(x.rdesc >> j & 1) == all(row[j] <= 0 for row in mat)
                assert bool(x.ldesc >> j & 1) == all(row[j] <= 0 for row in inv)
        assert W._by_r[coxeter._pack(x.rvec)] == x.id == W._by_l[coxeter._pack(x.lvec)]

    def test_left_and_right_walks_build_one_table(self):
        # a new x*s_i is registered as the left step s from s*y, found by the
        # exchange condition; a new s_i*x by peeling: the two walks of D5 must
        # build the same 1920 elements
        tables = []
        for side in ("left", "right"):
            W = CoxeterSystem.from_type("D5")
            W.quotient_reps((), side)  # by right steps for 'left', left steps for 'right'
            tables.append({
                x.word: (x.rvec, x.lvec, x.matrix, x.ldesc, x.rdesc, x.length) for x in _table(W)
            })
        assert len(tables[0]) == 1920 and tables[0] == tables[1]

    def test_exchange_disagreement_raises(self, monkeypatch):
        W = CoxeterSystem.from_type("B3")
        x = W.element([1, 2])

        class Flipped(coxeter._Signs):  # every read of the descent memo, off by s_1
            def __getitem__(self, flags):
                return super().__getitem__(flags) ^ 1

        monkeypatch.setattr(W, "_signs", Flipped(W._signs))
        with pytest.raises(InternalInvariantError, match="exchange condition"):
            x.times_gen(3)


class TestPackedVectors:
    """r(x), l(x) and the matrix rows are packed as biased BITS-bit digits;
    a coordinate past the bound raises and never wraps into its neighbour."""

    # m(1, 2) is infinite and the root heights grow by a factor of about 2.6
    # a step, so an alternating word passes the bound 2^20 within 20 steps
    HYPERBOLIC = ((2, -3), (-3, 2))

    @pytest.mark.parametrize("side", ["right", "left"])
    def test_a_coordinate_past_the_bound_raises(self, side):
        W = CoxeterSystem("hyp", (1, 2), self.HYPERBOLIC, finite=False)
        bound = coxeter.BOUND

        def expected(word):
            mat = _word_matrix(W, word)
            return mat, _column_sums(mat), _column_sums(_word_matrix(W, reversed(word)))

        x, word = W.identity, ()
        while True:
            s = 1 + len(word) % 2
            word = word + (s,) if side == "right" else (s,) + word
            mat, r, l = expected(word)
            if not all(-bound <= v < bound for v in r + l):
                break
            x = x.times_gen(s, side)
            assert (x.word, x.matrix, x.rvec, x.lvec) == (word, mat, r, l)
        assert len(word) > 10 and max(map(abs, r + l)) < 2 * bound
        for _ in range(2):  # the element past the bound is not registered
            with pytest.raises(InternalInvariantError, match="packed bound"):
                x.times_gen(s, side)
        assert W._succ[2 * W.rank * x.id + W._sides[side] + W._idx[s]] == -1
        assert word not in {y.word for y in _table(W)}
        for y in _table(W):  # every element registered on the way is exact
            assert (y.matrix, y.rvec, y.lvec) == expected(y.word)

    def test_cartan_rows_must_fit_the_packing(self):
        CoxeterSystem("wide", (1, 2), ((2, -6), (-6, 2)), finite=False)
        with pytest.raises(ValueError, match="packed bound"):
            CoxeterSystem("wider", (1, 2), ((2, -7), (-7, 2)), finite=False)


class TestBruhat:
    def test_example_A3(self):
        assert A3.bruhat_leq(A3.element([2]), A3.element([2, 1, 3, 2]))

    def test_not_leq(self):
        assert not A2.bruhat_leq(A2.element([1]), A2.element([2]))

    def test_exhaustive_S3_against_subwords(self):
        els = A2.enumerate_below(A2.longest_element())
        for x in els:
            for y in els:
                assert A2.bruhat_leq(x, y) == brute_bruhat_leq(x, y)

    @given(words(AFF1, max_len=6), words(AFF1, max_len=6))
    @settings(max_examples=40)
    def test_affine_against_subwords(self, a, b):
        x, y = AFF1.element(a), AFF1.element(b)
        assert AFF1.bruhat_leq(x, y) == brute_bruhat_leq(x, y)

    def test_interval_example(self):
        for x, y, interval in [
            ((), (0, 1), [(), (0,), (1,), (0, 1)]),
            ((0,), (0, 1, 0), [(0,), (0, 1), (1, 0), (0, 1, 0)]),
        ]:
            x, y = AFF1.element(x), AFF1.element(y)
            iv = [z for z in AFF1.enumerate_below(y) if AFF1.bruhat_leq(x, z)]
            assert [z.word for z in iv] == interval

    def test_enumerate_below_is_closed(self):
        y = B2.element([1, 2, 1])
        below = B2.enumerate_below(y)
        assert all(B2.bruhat_leq(z, y) for z in below)
        w0 = B2.longest_element()
        assert len(B2.enumerate_below(w0)) == 8


class TestQuotients:
    def test_left_quotient_example(self):
        reps, truncated = A2.quotient_reps([1], side="left")
        assert [r.word for r in reps] == [(), (2,), (2, 1)]
        assert not truncated

    def test_right_quotient(self):
        reps, _ = A2.quotient_reps([1], side="right")
        assert [r.word for r in reps] == [(), (2,), (1, 2)]

    def test_counts_match_index(self):
        for sys, I in [(A3, (1,)), (A3, (1, 3)), (B2, (2,))]:
            reps, _ = sys.quotient_reps(I, side="left")
            order = len(sys.enumerate_below(sys.longest_element()))
            sub = len(sys.enumerate_below(sys.longest_element(I)))
            assert len(reps) == order // sub

    def test_a_negative_bound_is_refused(self):
        W = CoxeterSystem.from_type("A2")
        # the bound 0 keeps the identity alone, and W has longer elements
        for side in ("left", "right"):
            with pytest.raises(ValueError, match="length bound -1"):
                W.quotient_reps((), side, max_len=-1)
            assert W.quotient_reps((), side, max_len=0) == ([W.identity], True)
        for J, I in [((), (1,)), ((1,), ()), ((1,), (2,))]:
            with pytest.raises(ValueError, match="length bound -1"):
                W.regular_double_coset_reps(J, I, max_len=-1)
            assert W.regular_double_coset_reps(J, I, max_len=0) == ((W.identity,), True)

    def test_affine_truncation_flag(self):
        reps, truncated = AFF1.quotient_reps([1], side="left", max_len=3)
        assert [r.word for r in reps] == [(), (0,), (0, 1), (0, 1, 0)]
        assert truncated

    def test_length_additivity(self):
        for I in [(1,), (2,), (1, 2)]:
            wI = A3.longest_element(I)
            reps, _ = A3.quotient_reps(I, side="left")
            for u in reps:
                assert (wI * u).length == wI.length + u.length

    def test_project(self):
        x = A2.element([1, 2, 1])
        assert A2.project(x, [1], "left").word == (2, 1)
        assert A2.project(x, [1], "right").word == (1, 2)
        assert A2.project(x, [1, 2], "left").is_identity()

    def test_longest_elements(self):
        assert A3.longest_element().length == 6
        assert A3.longest_element([1, 3]).word == (1, 3)
        assert CoxeterSystem.from_type("G2").longest_element().length == 6
        w = AFF2.longest_element([1, 2])  # finite parabolic of an affine system
        assert w.length == 3
        with pytest.raises(ValueError):
            AFF2.longest_element()

    def test_longest_element_is_involution(self):
        for sys in (A2, A3, B2):
            w0 = sys.longest_element()
            assert (w0 * w0).is_identity()


class TestRegularCosets:
    def test_example_A2(self):
        reps, _ = A2.regular_double_coset_reps([1], [2])
        assert [r.word for r in reps] == [()]
        # s2 s1 is minimal in its double coset but fails regularity
        w = A2.element([2, 1])
        assert A2.is_minimal(w, [1], "left") and A2.is_minimal(w, [2], "right")
        assert not A2.is_regular_double_coset_rep(w, [1], [2])

    def test_empty_I_is_plain_quotient(self):
        reps, _ = A3.regular_double_coset_reps([1], [])
        plain, _ = A3.quotient_reps([1], side="left")
        assert reps == tuple(plain)

    def test_empty_J_grows_only_the_quotient(self):
        # with J = () the reps are W^I: 8 of them on A7 for I = (2..7), grown
        # without building the 40,320 elements of W
        W = CoxeterSystem.from_type("A7")
        I = (2, 3, 4, 5, 6, 7)
        reps, truncated = W.regular_double_coset_reps((), I)
        assert len(W._len) < 100
        assert reps == tuple(W.quotient_reps(I, side="right")[0]) and len(reps) == 8
        assert not truncated
        assert W.regular_double_coset_reps((), I, max_len=7)[1]  # l(w0) = 28
        assert not W.regular_double_coset_reps((), I, max_len=28)[1]

    def test_affine_regular(self):
        reps, truncated = AFF1.regular_double_coset_reps([1], [1], max_len=4)
        for w in reps:
            assert AFF1.is_minimal(w, [1], "left")
            assert AFF1.is_minimal(w, [1], "right")
            assert AFF1.is_regular_double_coset_rep(w, [1], [1])
        assert truncated


def _subsets(W):
    return [I for r in range(W.rank + 1) for I in itertools.combinations(W.names, r)]


def _minimal(x, I, side):
    """No s in I shortens x on that side, by step lengths rather than descent masks."""
    return all(x.times_gen(s, side).length > x.length for s in I)


def _coset(x, I, side):
    """W_I x (side='left') or x W_I (side='right'), closed under steps."""
    seen, todo = {x}, [x]
    while todo:
        y = todo.pop()
        for s in I:
            z = y.times_gen(s, side)
            if z not in seen:
                seen.add(z)
                todo.append(z)
    return seen


def _top(W, max_len):
    return max_len if max_len is not None else W.longest_element().length


class TestCosetsAgainstBruteForce:
    """Coset walks against filters of the length ball and coset closures."""

    CASES = [("A3", None), ("B3", None), ("B3", 4), ("G2", None), ("affA2", 5), ("affG2", 5)]
    TAGS = ["A3", "B3", "G2", "affA2", "affG2"]

    @pytest.mark.parametrize("tag, max_len", CASES)
    def test_quotient_reps(self, tag, max_len):
        W = CoxeterSystem.from_type(tag)
        top = _top(W, max_len)
        ball = _ball(W, top + 1)
        for I in _subsets(W):
            for side in ("left", "right"):
                want = [x for x in ball if _minimal(x, I, side)]
                reps, truncated = W.quotient_reps(I, side, max_len=max_len)
                assert reps == [x for x in want if x.length <= top], (I, side)
                assert truncated == any(x.length > top for x in want), (I, side)

    @pytest.mark.parametrize("tag", TAGS)
    def test_project(self, tag):
        W = CoxeterSystem.from_type(tag)
        for I in _subsets(W):
            if len(I) == W.rank and not W.is_finite:
                continue
            for x in _ball(W, 4):
                for side in ("left", "right"):
                    coset = _coset(x, I, side)
                    low = min(z.length for z in coset)
                    [want] = [z for z in coset if z.length == low]
                    assert W.project(x, I, side) is want, (x, I, side)

    @pytest.mark.parametrize("tag", TAGS)
    def test_longest_element(self, tag):
        W = CoxeterSystem.from_type(tag)
        for I in _subsets(W):
            if len(I) == W.rank and not W.is_finite:
                continue
            group = _coset(W.identity, I, "right")
            top = max(z.length for z in group)
            [want] = [z for z in group if z.length == top]
            assert W.longest_element(I) is want, I
        if W.is_finite:
            assert W.longest_element() is W.longest_element(W.names)

    @pytest.mark.parametrize("tag, max_len", CASES)
    def test_regular_double_coset_reps(self, tag, max_len):
        W = CoxeterSystem.from_type(tag)
        top = _top(W, max_len)
        ball = _ball(W, top + 1)
        for J in _subsets(W):
            left_minimal = [w for w in ball if _minimal(w, J, "left")]
            reflections = {W.generators[u] for u in J}
            for I in _subsets(W):
                # w I w^-1 meets W_J in a simple reflection iff w s_t w^-1 = s_u
                want = [
                    w
                    for w in left_minimal
                    if _minimal(w, I, "right")
                    and all(w * W.generators[t] * w.inverse() not in reflections for t in I)
                ]
                reps, truncated = W.regular_double_coset_reps(J, I, max_len=max_len)
                assert reps == tuple(w for w in want if w.length <= top), (J, I)
                assert truncated == any(w.length > top for w in left_minimal), (J, I)
                for w in ball:
                    assert W.is_regular_double_coset_rep(w, J, I) == (w in want), (w, J, I)


class TestTwistBijection:
    def test_wI_z_w0_permutes_min_reps(self):
        # z -> w_I z w0 restricted to the minimal W_I-coset representatives
        for sys in (A2, B2, A3):
            w0 = sys.longest_element()
            subsets = itertools.chain.from_iterable(
                itertools.combinations(sys.names, r) for r in range(len(sys.names) + 1)
            )
            for I in subsets:
                wI = sys.longest_element(I)
                reps, _ = sys.quotient_reps(I, side="left")
                image = {wI * z * w0 for z in reps}
                assert image == set(reps)


class TestRoots:
    def test_A2_roots(self):
        pairs = roots_and_coroots(finite_cartan("A", 2))
        assert [p[0] for p in pairs] == [(0, 1), (1, 0), (1, 1)]

    def test_B2_highest_and_short(self):
        pairs = roots_and_coroots(finite_cartan("B", 2))
        roots = {p[0]: p[1] for p in pairs}
        assert max(roots, key=sum) == (1, 2)  # highest root, long
        assert roots[(1, 1)] == (2, 1)  # highest short root has tallest coroot

    def test_counts(self):
        assert len(roots_and_coroots(finite_cartan("G", 2))) == 6
        assert len(roots_and_coroots(finite_cartan("D", 4))) == 12
        assert len(roots_and_coroots(finite_cartan("F", 4))) == 24


class TestWordTexts:
    """format_words, the bulk form of format_word, read off the left slots."""

    @pytest.mark.parametrize(
        "tag, max_len", [("A4", None), ("B3", None), ("D4", None), ("affA2", 8), ("E6", 6)]
    )
    @pytest.mark.parametrize("side", ["left", "right"])
    def test_left_slot_texts_are_format_word(self, tag, max_len, side):
        W = CoxeterSystem.from_type(tag)
        els, _ = W.quotient_reps((), side, max_len=max_len)  # grown by steps away from side
        ids = [x.id for x in els]
        want = {x.id: format_word(x.word) for x in els}
        # short words first, and long words first
        assert coxeter.format_words(W, ids) == want == coxeter.format_words(W, ids[::-1])
        # the longest alone: each text made down a chain to e
        assert coxeter.format_words(W, ids[-1:]) == {ids[-1]: want[ids[-1]]}

    @pytest.mark.parametrize("tag, max_len", [("A4", None), ("B3", None), ("affA2", 8), ("E6", 6)])
    def test_shortlex_keys_order_as_length_and_word(self, tag, max_len):
        W = CoxeterSystem.from_type(tag)
        els, _ = W.quotient_reps((), "right", max_len=max_len)
        ids = [x.id for x in els][::-1]
        want = [x.id for x in sorted(els, key=CoxeterElement.sort_key)]
        assert W._sorted(ids) == want == W._sorted(ids[::2] + ids[1::2])
        # the longest alone and then the rest: each key made down a chain to e
        spelled = {0: (0, "")}
        assert W._sorted(ids[:1], spelled) == ids[:1] and W._sorted(ids, spelled) == want
        assert {u: spelled[u][1] for u in ids} == coxeter.format_words(W, ids)


class TestWordParsing:
    def test_parse(self):
        assert parse_word("2 1 3 2") == (2, 1, 3, 2)
        assert parse_word("2,1,3") == (2, 1, 3)
        assert parse_word("") == ()
        assert parse_word("  ") == ()

    def test_parse_error(self):
        with pytest.raises(ValueError):
            parse_word("1 x")

    def test_format_round_trip(self):
        assert parse_word(format_word((0, 1, 2))) == (0, 1, 2)
        assert format_word(()) == ""
