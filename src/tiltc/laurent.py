"""Integer Laurent polynomials in one variable v.

This is the coefficient ring for everything downstream: Hecke algebra
coordinates, multiplicity polynomials, graded dimensions.  Coefficients are
arbitrary-precision integers, exponents may be negative, and every value is
kept in canonical form (no zero coefficients, terms sorted by exponent), so
equality, hashing and serialization are structural.

The bar involution v |-> v^(-1) is the ring involution used to characterize
self-dual bases.

>>> p = LaurentPoly.v() + LaurentPoly.v(3)
>>> p.to_text()
'v + v^3'
>>> p.bar().to_text()
'v^-3 + v^-1'
"""

from __future__ import annotations

import re
from typing import Iterable, Iterator, Mapping

__all__ = ["LaurentPoly", "EmptySupportError", "ZERO", "ONE", "V"]


class EmptySupportError(ValueError):
    """Raised when a degree is requested of the zero polynomial."""


_TERM_RE = re.compile(
    r"""^\s*
        (?:(?P<coeff>-?\d+)\s*\*\s*)?      # optional integer coefficient with *
        (?:
            (?P<var>v)(?:\^(?P<exp>-?\d+))?   # v or v^k
          | (?P<const>-?\d+)                  # bare integer
        )\s*$""",
    re.VERBOSE,
)


Terms = tuple[tuple[int, int], ...]


class LaurentPoly:
    """Immutable Laurent polynomial with int coefficients.

    Internally a tuple of (exponent, coefficient) pairs sorted by exponent;
    zero coefficients are never stored.
    """

    __slots__ = ("_terms", "_hash")

    _terms: Terms

    def __init__(self, coeffs: Mapping[int, int] | Iterable[tuple[int, int]] = ()):
        if isinstance(coeffs, Mapping):
            items = coeffs.items()
        else:
            items = list(coeffs)
        acc: dict[int, int] = {}
        for k, c in items:
            if type(k) is not int or type(c) is not int:  # bool is an int subclass
                raise TypeError("exponents and coefficients must be int")
            acc[k] = acc.get(k, 0) + c
        _set_terms(self, acc)

    @classmethod
    def _from_dict(cls, acc: dict[int, int]) -> "LaurentPoly":
        """Unchecked constructor for {exponent: coefficient} dicts of ints.

        Only for the ring operations, whose inputs are already-canonical
        terms, and for from_json_obj after its own checks; everything else
        from outside goes through the checking __init__.
        """
        self = object.__new__(cls)
        _set_terms(self, acc)
        return self

    @classmethod
    def _from_terms(cls, terms: Terms) -> "LaurentPoly":
        """Unchecked constructor for a terms tuple already in canonical form."""
        self = object.__new__(cls)
        _put_terms(self, terms)
        _put_hash(self, hash(terms))
        return self

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("LaurentPoly is immutable")

    # -- constructors -------------------------------------------------------

    @staticmethod
    def v(k: int = 1) -> "LaurentPoly":
        """The monomial v^k."""
        return LaurentPoly({k: 1})

    # -- basic queries -------------------------------------------------------

    @property
    def terms(self) -> tuple[tuple[int, int], ...]:
        """Sorted (exponent, coefficient) pairs; canonical."""
        return self._terms

    def is_zero(self) -> bool:
        return not self._terms

    def coeff(self, k: int) -> int:
        """Coefficient of v^k (0 when absent)."""
        for e, c in self._terms:
            if e == k:
                return c
            if e > k:
                break
        return 0

    def max_degree(self) -> int:
        if not self._terms:
            raise EmptySupportError("zero polynomial has empty support")
        return self._terms[-1][0]

    def min_degree(self) -> int:
        if not self._terms:
            raise EmptySupportError("zero polynomial has empty support")
        return self._terms[0][0]

    def is_nonneg(self) -> bool:
        """True when every coefficient is >= 0."""
        return all(c >= 0 for _, c in self._terms)

    def has_parity(self, offset: int) -> bool:
        """True when every exponent is congruent to offset mod 2."""
        return all((e - offset) % 2 == 0 for e, _ in self._terms)

    def __iter__(self) -> Iterator[tuple[int, int]]:
        return iter(self._terms)

    def __bool__(self) -> bool:
        return bool(self._terms)

    # -- ring operations -----------------------------------------------------

    def __add__(self, other: "LaurentPoly") -> "LaurentPoly":
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        acc = dict(self._terms)
        for e, c in other._terms:
            acc[e] = acc.get(e, 0) + c
        return LaurentPoly._from_dict(acc)

    def __sub__(self, other: "LaurentPoly") -> "LaurentPoly":
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        acc = dict(self._terms)
        for e, c in other._terms:
            acc[e] = acc.get(e, 0) - c
        return LaurentPoly._from_dict(acc)

    def __neg__(self) -> "LaurentPoly":
        return LaurentPoly._from_dict({e: -c for e, c in self._terms})

    def __mul__(self, other: "LaurentPoly | int") -> "LaurentPoly":
        if isinstance(other, int):
            return LaurentPoly._from_dict({e: c * other for e, c in self._terms})
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        acc: dict[int, int] = {}
        for e1, c1 in self._terms:
            for e2, c2 in other._terms:
                k = e1 + e2
                acc[k] = acc.get(k, 0) + c1 * c2
        return LaurentPoly._from_dict(acc)

    def bar(self) -> "LaurentPoly":
        """The involution v |-> v^(-1)."""
        return LaurentPoly._from_dict({-e: c for e, c in self._terms})

    # -- comparison ----------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if isinstance(other, LaurentPoly):
            return self._terms == other._terms
        if isinstance(other, int):
            return self._terms == (((0, other),) if other else ())
        return NotImplemented

    def __hash__(self) -> int:
        return self._hash

    # -- serialization -------------------------------------------------------

    def to_text(self) -> str:
        """Human-readable form, exponents ascending: 'v^-1 + 2*v + v^3'."""
        if not self._terms:
            return "0"
        out: list[str] = []
        for e, c in self._terms:
            mag = abs(c)
            if e == 0:
                body = str(mag)
            else:
                var = "v" if e == 1 else f"v^{e}"
                body = var if mag == 1 else f"{mag}*{var}"
            if not out:
                out.append(body if c > 0 else f"-{body}")
            else:
                out.append(f"+ {body}" if c > 0 else f"- {body}")
        return " ".join(out)

    @staticmethod
    def from_text(text: str) -> "LaurentPoly":
        """Parse the to_text form (also accepts explicit 'c*v^k' terms)."""
        s = text.strip()
        if s == "0":
            return ZERO
        # split on top-level + / - while keeping signs attached
        s = s.replace("- ", "+ -").replace("+ ", "+")
        parts = [p for p in s.split("+") if p.strip()]
        acc: dict[int, int] = {}
        for part in parts:
            p = part.strip()
            neg = False
            if p.startswith("-"):
                neg = True
                p = p[1:].strip()
            m = _TERM_RE.match(p)
            if m is None:
                raise ValueError(f"cannot parse polynomial term {part!r}")
            if m.group("const") is not None:
                e, c = 0, int(m.group("const"))
            else:
                c = int(m.group("coeff")) if m.group("coeff") is not None else 1
                e = int(m.group("exp")) if m.group("exp") is not None else 1
            if neg:
                c = -c
            acc[e] = acc.get(e, 0) + c
        return LaurentPoly(acc)

    def to_json_obj(self) -> dict[str, int]:
        """JSON object {exponent-as-string: coefficient}, exponents ascending."""
        return {str(e): c for e, c in self._terms}

    @staticmethod
    def from_json_obj(obj: Mapping[str, int]) -> "LaurentPoly":
        acc: dict[int, int] = {}
        for k, c in obj.items():
            try:
                e = int(k)
            except ValueError as exc:
                raise ValueError(f"bad exponent key {k!r}") from exc
            if type(c) is not int:  # JSON true and false are not coefficients
                raise ValueError(f"bad coefficient {c!r} at exponent {k}")
            acc[e] = acc.get(e, 0) + c
        return LaurentPoly._from_dict(acc)

    def __repr__(self) -> str:
        return f"LaurentPoly({self.to_text()})"


# slot setters: they bypass the __setattr__ that keeps instances immutable
_put_terms = LaurentPoly._terms.__set__
_put_hash = LaurentPoly._hash.__set__


def _set_terms(p: LaurentPoly, acc: dict[int, int]) -> None:
    """Store acc in canonical form: zero coefficients dropped, sorted, hashed."""
    if 0 in acc.values():
        acc = {k: c for k, c in acc.items() if c}
    terms = tuple(sorted(acc.items()))
    _put_terms(p, terms)
    _put_hash(p, hash(terms))


def _mac(acc: dict[int, int], p: LaurentPoly, q: Iterable[tuple[int, int]]) -> None:
    """Multiply-accumulate acc += p * q on a raw {exponent: coefficient} dict.

    q is any sequence of (exponent, coefficient) pairs.  acc may hold zero
    coefficients; a fused sum canonicalizes it once, when it is complete,
    instead of building a LaurentPoly for every product and partial sum.
    """
    for e1, c1 in p._terms:
        for e2, c2 in q:
            k = e1 + e2
            acc[k] = acc.get(k, 0) + c1 * c2


ZERO = LaurentPoly()
ONE = LaurentPoly({0: 1})
V = LaurentPoly({1: 1})
