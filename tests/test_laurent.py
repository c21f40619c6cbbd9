"""Ring, involution and serialization behaviour of LaurentPoly."""

import json

import pytest
from hypothesis import given, settings, strategies as st

from tiltc.laurent import ONE, V, ZERO, EmptySupportError, LaurentPoly


def P(d):
    return LaurentPoly(d)


polys = st.dictionaries(
    st.integers(min_value=-8, max_value=8),
    st.integers(min_value=-50, max_value=50),
    max_size=6,
).map(LaurentPoly)


class TestCanonicalForm:
    def test_zero_coeffs_dropped(self):
        assert P({3: 0, 1: 2}) == P({1: 2})

    def test_merge_duplicates(self):
        assert LaurentPoly([(1, 2), (1, 3)]) == P({1: 5})

    def test_terms_sorted(self):
        assert P({5: 1, -2: 3, 0: 7}).terms == ((-2, 3), (0, 7), (5, 1))

    def test_iterates_its_terms(self):
        # perfbench/make_refs.py reads table entries as `for e, c in poly`
        assert list(P({5: 1, -2: 3})) == [(-2, 3), (5, 1)]
        assert list(ZERO) == []

    def test_immutable(self):
        with pytest.raises(AttributeError):
            V._terms = ()

    def test_int_equality(self):
        assert P({0: 4}) == 4
        assert ZERO == 0
        assert V != 1


class TestArithmetic:
    def test_add(self):
        assert V + LaurentPoly.v(-1) == P({1: 1, -1: 1})

    def test_sub_to_zero(self):
        assert V - V == ZERO

    def test_mul(self):
        # (v + 1)(v - 1) = v^2 - 1
        assert (V + ONE) * (V - ONE) == P({2: 1, 0: -1})

    def test_scalar_mul(self):
        assert V * 3 == P({1: 3})
        with pytest.raises(TypeError):  # an int scales on the right only
            3 * V

    def test_shift(self):
        assert LaurentPoly.v(-1) * (ONE + V) == P({-1: 1, 0: 1})

    def test_neg(self):
        assert -(V - ONE) == ONE - V


class TestQueries:
    def test_degrees(self):
        p = P({-2: 1, 3: 5})
        assert p.min_degree() == -2
        assert p.max_degree() == 3

    def test_degrees_of_zero_raise(self):
        with pytest.raises(EmptySupportError):
            ZERO.max_degree()
        with pytest.raises(EmptySupportError):
            ZERO.min_degree()

    def test_coeff(self):
        p = P({1: 4, -1: -2})
        assert p.coeff(1) == 4
        assert p.coeff(-1) == -2
        assert p.coeff(0) == 0

    def test_parity(self):
        assert P({1: 1, 3: 2, -5: 1}).has_parity(1)
        assert not P({1: 1, 2: 1}).has_parity(1)
        assert ZERO.has_parity(0) and ZERO.has_parity(1)

    def test_is_nonneg(self):
        assert P({0: 1, 2: 3}).is_nonneg()
        assert not P({0: 1, 2: -3}).is_nonneg()
        assert ZERO.is_nonneg()


class TestBar:
    def test_bar_example(self):
        assert (V + LaurentPoly.v(3)).bar() == P({-1: 1, -3: 1})

    @given(polys)
    def test_involution(self, p):
        assert p.bar().bar() == p

    @given(polys, polys)
    def test_ring_homomorphism(self, p, q):
        assert (p + q).bar() == p.bar() + q.bar()
        assert (p * q).bar() == p.bar() * q.bar()


class TestRingAxioms:
    @given(polys, polys, polys)
    @settings(max_examples=60)
    def test_mul_distributes_and_associates(self, p, q, r):
        assert p * (q + r) == p * q + p * r
        assert (p * q) * r == p * (q * r)

    @given(polys, polys)
    def test_commutative(self, p, q):
        assert p * q == q * p
        assert p + q == q + p

    @given(polys)
    def test_units(self, p):
        assert p * ONE == p
        assert p + ZERO == p
        assert p * ZERO == ZERO


class TestText:
    def test_examples(self):
        assert (V + LaurentPoly.v(3)).to_text() == "v + v^3"
        assert P({-1: 1, 1: 1}).to_text() == "v^-1 + v"
        assert P({0: -1, 2: 1}).to_text() == "-1 + v^2"
        assert P({1: -2, 0: 3}).to_text() == "3 - 2*v"
        assert ZERO.to_text() == "0"
        assert ONE.to_text() == "1"

    def test_parse_examples(self):
        assert LaurentPoly.from_text("v + v^3") == P({1: 1, 3: 1})
        assert LaurentPoly.from_text("0") == ZERO
        assert LaurentPoly.from_text("3 - 2*v") == P({0: 3, 1: -2})
        assert LaurentPoly.from_text("-v^-2") == P({-2: -1})
        assert LaurentPoly.from_text("2*v^-1 + 1") == P({-1: 2, 0: 1})

    def test_parse_rejects_garbage(self):
        with pytest.raises(ValueError):
            LaurentPoly.from_text("v + w")
        with pytest.raises(ValueError):
            LaurentPoly.from_text("v^")

    @given(polys)
    def test_text_round_trip(self, p):
        assert LaurentPoly.from_text(p.to_text()) == p


class TestJson:
    def test_form(self):
        assert (V + LaurentPoly.v(3)).to_json_obj() == {"1": 1, "3": 1}
        assert ZERO.to_json_obj() == {}

    def test_key_order_ascending(self):
        obj = P({3: 1, -1: 2}).to_json_obj()
        assert list(obj.keys()) == ["-1", "3"]

    def test_reject_bad_keys(self):
        with pytest.raises(ValueError):
            LaurentPoly.from_json_obj({"x": 1})
        with pytest.raises(ValueError):
            LaurentPoly.from_json_obj({"1": 1.5})

    @given(polys)
    def test_json_round_trip(self, p):
        text = json.dumps(p.to_json_obj(), separators=(",", ":"))
        q = LaurentPoly.from_json_obj(json.loads(text))
        assert q == p
        # and the serialized form itself is reproducible (canonicity)
        assert json.dumps(q.to_json_obj(), separators=(",", ":")) == text

    @given(polys)
    def test_json_is_valid(self, p):
        obj = json.loads(json.dumps(p.to_json_obj()))
        assert [(int(e), c) for e, c in obj.items()] == list(p.terms)


class TestCheckedOnce:
    """Ring operations skip the input checks; their results must not differ."""

    @given(
        polys,
        polys,
        st.integers(min_value=-5, max_value=5),
        st.integers(min_value=-9, max_value=9),
    )
    def test_ring_results_match_public_constructor(self, p, q, k, c):
        # each reference goes through the checking constructor, which merges
        # duplicate exponents of an iterable of (exponent, coefficient) pairs
        cases = [
            (p + q, [*p.terms, *q.terms]),
            (p - q, [*p.terms, *((e, -d) for e, d in q.terms)]),
            (p * q, [(e1 + e2, d1 * d2) for e1, d1 in p.terms for e2, d2 in q.terms]),
            (p * c, [(e, d * c) for e, d in p.terms]),
            (-p, [(e, -d) for e, d in p.terms]),
            (LaurentPoly.v(k) * p, [(e + k, d) for e, d in p.terms]),
            (p.bar(), [(-e, d) for e, d in p.terms]),
        ]
        for result, pairs in cases:
            ref = LaurentPoly(pairs)
            assert result.terms == ref.terms == LaurentPoly(dict(result.terms)).terms
            assert hash(result) == hash(ref)

    def test_public_entry_points_still_check(self):
        with pytest.raises(TypeError):
            LaurentPoly({1: 1.5})
        with pytest.raises(TypeError):
            LaurentPoly([("1", 1)])
        with pytest.raises(ValueError):
            LaurentPoly.from_json_obj({"1": "x"})
        with pytest.raises(ValueError):
            LaurentPoly.from_text("2*v^x")

    def test_a_bool_is_not_an_int(self):
        # True == 1, but an exponent True would be written as the JSON key
        # "True", which from_json_obj refuses, and JSON true is not a coefficient
        for coeffs in ({True: 1}, {1: True}, [(False, 2)]):
            with pytest.raises(TypeError):
                LaurentPoly(coeffs)
        for obj in ({"0": True}, {"1": False}):
            with pytest.raises(ValueError):
                LaurentPoly.from_json_obj(obj)
