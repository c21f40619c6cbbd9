"""Coxeter systems of finite and untwisted affine Weyl type.

Groups are presented by a generalized Cartan matrix and realized faithfully
on simple-root coordinates: generator s_i acts by the reflection matrix that
is the identity except in row i, where (M_i)[i][j] = delta_ij - C[i][j].
Every element w is stored as its matrix (column j is w(alpha_j)) and two
integral vectors: r(w), the heights of the w(alpha_j) (the column sums of
the matrix), and l(w) = r(w^-1).  A root is positive or negative as its
height is, so the signs of r(w) and l(w) are the right and left descent
sets; and r(w) = r(w') forces w = w', since then w w'^-1 keeps the height of
every root, so it has no descent.  So r keys the element table for right
steps and l for left steps, and length, descent sets and Bruhat order are
all exact and cheap at the ranks used here.

No operation multiplies full matrices: a product walks the right factor's
word through the slots (Casselman, "Computation in Coxeter groups I"), and a
step by s_i reflects one vector, v_k -> v_k - C[i][k] * v_i (r for x*s_i, l
for s_i*x), and looks it up.  A new y is added as the left step s from s*y,
s its smallest left descent, so its matrix differs from that of s*y in row s
only.  For y = s_i*x the left descents are the signs of l(y), peeled until a
known element is reached.  For y = x*s_i the exchange condition
(Bjorner-Brenti, "Combinatorics of Coxeter Groups", 1.5) gives them: those
of x, with s_j toggled when x(alpha_i) = +-alpha_j (then s_j*x = y); s*y is
x or the step (s*x)*s_i, and l(y) must confirm them.  So the left s-slot of
every y != e holds s*y, and the ShortLex normal form of y (its least
reduced word) is read down the left slots: s, then the form of s*y.  So are
the texts of ``format_words`` and the ShortLex keys of ``_sorted``.

Packed form: r(w), l(w) and each row of the matrix are one int each, with
coordinate v_k stored as the digit v_k + 2^(BITS-1) in bits [BITS*k,
BITS*(k+1)).  So a reflection is one digit read and one multiply-subtract by
the packed Cartan row i (the plain sum of C[i][k] << BITS*k), s_i*M adds to
row i a sum of the rows j with C[i][j] != 0 (at most four for a finite
type), the table is keyed by ints, and the descents are the digits whose
sign bit, bit BITS-1, is clear, turned into a mask through a memo per
system, a dict that computes each mask it misses.  Every stored coordinate v
has -BOUND <= v < BOUND, BOUND = 2^(BITS-4); a matrix entry is a coefficient
of the root w(alpha_j), so its size is at most that of the height r(w)_j,
and checking r(w) and l(w) of each new element bounds the rest: adding BOUND
to every digit must leave its top three bits 100, three int operations per
vector.  A Cartan row's weight, 1 + sum_{j != i} |C[i][j]|, must be below 8,
so one step from stored vectors moves no coordinate past 2^(BITS-1), no
digit borrows from its neighbour, and the check is exact; a coordinate past
the bound raises InternalInvariantError before anything is built from it.
Every digit is nonzero, so ``rvec``, ``lvec`` and ``matrix`` read back as
tuples with module constants only.

Each system numbers its elements, after du Cloux's Coxeter3: an element is
built once under the next dense id (the identity is 0), and the system
holds per id, in flat lists of ints, its packed r, l and rows, its length,
its left and right descent masks over generator positions, and per
generator and side a step slot with the id of x*s or s*x, -1 until the
first step fills it and the neighbour's slot back; ``_by_r`` and ``_by_l``
map a packed vector to its id.  The engine (steps, cosets, Bruhat order,
words and the Hecke columns) runs on ids, which key internal tables only.

An element leaves the engine as a CoxeterElement, a handle made once per id
that holds its length and descent masks and keeps its word once read;
equality and hashing are its identity, so elements of two systems are never
equal.  Handles share one weak reference to their system and the table
holds only ints, so reference counts free it with its system.  A released
system leaves each handle held elsewhere its word and packed vectors: the
handle still reads its word, length, vectors, matrix and descent masks; a
step from it raises ``ReferenceError``.

Generator names are 1-based for finite types (A3 has S = {1,2,3}); affine
types prepend the affine node as generator 0.  Names are sorted, so the
lowest descent bit is the ShortLex first letter.

>>> W = CoxeterSystem.from_type("A2")
>>> W.element([2, 1, 2]).word      # ShortLex normal form
(1, 2, 1)
>>> W.longest_element().length
3
"""

from __future__ import annotations

import re
import weakref
from sys import getrefcount
from typing import Iterable, Sequence

from .errors import InternalInvariantError

__all__ = [
    "CoxeterSystem",
    "CoxeterElement",
    "finite_cartan",
    "roots_and_coroots",
    "parse_word",
    "format_word",
    "format_words",
]

Matrix = tuple[tuple[int, ...], ...]

_TYPE_RE = re.compile(r"^(aff)?([A-G])(\d+)(d?)$")

_ASCEND_GUARD = 100_000  # iteration cap for longest-element ascent

BITS = 24  # bits per packed coordinate (module docstring)
_HALF = 1 << BITS - 1  # the bias of a digit
_MASK = (1 << BITS) - 1
_GUARD = 8  # the weight of a Cartan row must be below it
BOUND = _HALF // _GUARD  # a stored coordinate v has -BOUND <= v < BOUND


def _pack(vec: Iterable[int]) -> int:
    """A vector packed: coordinate k biased by 2^(BITS-1) in bits [BITS*k, BITS*(k+1))."""
    return sum((a + _HALF) << BITS * k for k, a in enumerate(vec))


def _coords(p: int) -> tuple[int, ...]:
    """The coordinates of a packed vector; no digit of one is 0 (module docstring)."""
    return tuple((p >> BITS * k & _MASK) - _HALF for k in range(-(-p.bit_length() // BITS)))


class _Sides(dict):
    """The slot offset of a step on a side: 0 for 'right', rank for 'left'."""

    def __missing__(self, side: str) -> int:
        raise ValueError("side must be 'left' or 'right'")


class _Signs(dict):
    """The descent masks of packed vectors, keyed by their cleared sign bits
    (bit BITS*k + BITS-1 set when digit k is negative), each found once."""

    def __missing__(self, flags: int) -> int:
        digits = range(flags.bit_length() // BITS)
        mask = self[flags] = sum(1 << k for k in digits if flags >> BITS * k + BITS - 1 & 1)
        return mask


def _simple_image(W: "CoxeterSystem", u: int, i: int) -> int:
    """Position j with x(alpha_i) = +-alpha_j, x of id u, or -1: a root of height
    +-1 is +-alpha_j, j the one row whose digit i (column i) is not 0."""
    shift, n = BITS * i, W.rank
    if (W._r[u] >> shift & _MASK) - _HALF in (1, -1):
        for j, row in enumerate(W._rows[n * u:n * u + n]):
            if row >> shift & _MASK != _HALF:
                return j
    return -1


def finite_cartan(family: str, rank: int) -> Matrix:
    """Cartan matrix of a finite Weyl type, Bourbaki numbering.

    Convention: C[i][j] = <alpha_j, alpha_i^vee>, 0-based positions.
    """
    fam = family.upper()
    ok = {"A": rank >= 1, "B": rank >= 2, "C": rank >= 2, "D": rank >= 3, "E": 6 <= rank <= 8, "F": rank == 4}
    if not ok.get(fam, fam == "G" and rank == 2):
        raise ValueError(f"unsupported type {family}{rank}")

    if fam == "D":
        edges = [(i, i + 1) for i in range(rank - 2)] + [(rank - 3, rank - 1)]
    elif fam == "E":  # Bourbaki: node 2 hangs off node 4 of the chain 1-3-4-5-6(-7-8)
        nodes = [0, 2, 3, 4, 5, 6, 7][: rank - 1]
        edges = list(zip(nodes, nodes[1:])) + [(1, 3)]
    else:
        edges = [(i, i + 1) for i in range(rank - 1)]
    c = [[2 * (i == j) for j in range(rank)] for i in range(rank)]
    for a, b in edges:
        c[a][b] = c[b][a] = -1
    if fam == "B":  # alpha_rank short: <alpha_{n-1}, alpha_n^vee> = -2
        c[rank - 1][rank - 2] = -2
    elif fam == "C":
        c[rank - 2][rank - 1] = -2
    elif fam == "F":  # <alpha_2, alpha_3^vee> = -2 (alpha_3 short)
        c[2][1] = -2
    elif fam == "G":  # alpha_1 short, alpha_2 long: <alpha_2, alpha_1^vee> = -3
        c[0][1] = -3
    return tuple(tuple(row) for row in c)


def roots_and_coroots(cartan: Matrix) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
    """All positive roots of a finite Cartan matrix as (root, coroot) pairs.

    Coordinates are in the simple-root / simple-coroot bases.  Closure under
    simple reflections; the coroot side uses the transposed matrix.
    """
    n = len(cartan)
    simples = [(unit, unit) for unit in (tuple(int(k == i) for k in range(n)) for i in range(n))]
    seen, frontier = set(simples), simples
    for _ in range(10_000):
        if not frontier:
            return sorted(seen, key=lambda p: (sum(p[0]), p[0]))
        nxt = []
        for root, coroot in frontier:
            for i in range(n):
                r2 = list(root)
                r2[i] -= sum(cartan[i][j] * root[j] for j in range(n))
                if min(r2) >= 0:  # positive: a reflected root is not 0
                    c2 = list(coroot)
                    c2[i] -= sum(cartan[j][i] * coroot[j] for j in range(n))
                    if (pair := (tuple(r2), tuple(c2))) not in seen:
                        seen.add(pair)
                        nxt.append(pair)
        frontier = nxt
    raise ValueError("root closure did not terminate; matrix is not of finite type")


def _coxeter_order(prod: int) -> int:
    """Edge label m(s,t) from C[s][t]*C[t][s]; 0 encodes infinity."""
    return {0: 2, 1: 3, 2: 4, 3: 6}.get(prod, 0)


class _SystemRef(weakref.ref):
    """The weak reference every element of one system shares, with the
    system's tag, so an element names itself after its system is gone."""

    __slots__ = ("tag",)


class CoxeterElement:
    """A group element out of the engine: a handle on one id, made only by its
    system (``_handle``).  ``length``, ``ldesc`` and ``rdesc`` (bit i set when
    the generator at position i is a left / right descent) are copied from
    the table; the word is read once, off the left slots.  ``rvec``, ``lvec``
    and ``matrix`` read the table, or ``_snap`` (packed r, l, rows) once the
    system is released.  ``_ref`` is the weak reference all elements of the
    system share."""

    __slots__ = ("_ref", "id", "length", "ldesc", "rdesc", "_word", "_snap")

    def __init__(self, ref: _SystemRef, id: int, length: int, ldesc: int, rdesc: int):
        self._ref, self.id, self.length, self.ldesc, self.rdesc = ref, id, length, ldesc, rdesc
        self._word: tuple[int, ...] | None = None
        self._snap: tuple[int, int, tuple[int, ...]] | None = None  # packed r, l, rows

    @property
    def word(self) -> tuple[int, ...]:  # the ShortLex normal form
        if self._word is None:
            self.system._spell((self,))
        return self._word

    def _packed(self) -> tuple[int, int, tuple[int, ...]]:
        W = self._ref()
        return self._snap if W is None else W._packed(self.id)

    @property
    def rvec(self) -> tuple[int, ...]:  # r(x), the heights of the x(alpha_j)
        return _coords(self._packed()[0])

    @property
    def lvec(self) -> tuple[int, ...]:  # l(x) = r(x^-1)
        return _coords(self._packed()[1])

    @property
    def matrix(self) -> Matrix:  # column j is x(alpha_j)
        return tuple(map(_coords, self._packed()[2]))

    @property
    def system(self) -> "CoxeterSystem":
        """The system of this element; ReferenceError once it is released."""
        W = self._ref()
        if W is None:
            raise ReferenceError(f"the system of {self!r} has been released")
        return W

    def __mul__(self, other: "CoxeterElement") -> "CoxeterElement":
        if not isinstance(other, CoxeterElement):
            return NotImplemented
        if other._ref is not self._ref:
            raise ValueError("elements of different systems")
        W, u, v = self.system, self.id, other.id
        while d := W._ld[v]:  # right steps by the letters of other, read down its left slots
            i = (d & -d).bit_length() - 1
            u, v = W._step(u, i), W._succ[2 * W.rank * v + W.rank + i]
        return self if u == self.id else W._handles.get(u) or W._handle(u)

    def inverse(self) -> "CoxeterElement":
        W = self.system
        # r(x^-1) = l(x); an inverse not built yet is walked from its reversed word
        u = W._by_r.get(W._l[self.id])
        if u is None:
            u = W._walk(0, reversed(self.word))
        return W._handles.get(u) or W._handle(u)

    def times_gen(self, s: int, side: str = "right") -> "CoxeterElement":
        W = self._ref() or self.system  # the property raises for a released system
        u = W._step(self.id, W._sides[side] + W._idx[s])
        return W._handles.get(u) or W._handle(u)

    def right_descents(self) -> frozenset[int]:
        return self.system._names_of(self.rdesc)

    def left_descents(self) -> frozenset[int]:
        return self.system._names_of(self.ldesc)

    def has_left_descent(self, s: int) -> bool:
        return bool(self.ldesc >> self.system._idx[s] & 1)

    def sort_key(self) -> tuple[int, tuple[int, ...]]:
        return (self.length, self.word)

    def __lt__(self, other: "CoxeterElement") -> bool:
        return self.sort_key() < other.sort_key()

    def __repr__(self) -> str:
        return f"<{self._ref.tag}:{format_word(self.word) or 'e'}>"


class CoxeterSystem:
    """A Coxeter system with named generators and exact matrix realization:
    from_type ("A3", "B2", "affA1", ...), or from a custom generalized Cartan
    matrix (used by the root-of-unity linkage data)."""

    def __init__(self, tag: str, names: Sequence[int], cartan: Matrix, finite: bool):
        n = len(names)
        if len(cartan) != n or any(len(r) != n for r in cartan):
            raise ValueError("Cartan matrix shape mismatch")
        for i in range(n):
            if cartan[i][i] != 2:
                raise ValueError("diagonal of a generalized Cartan matrix must be 2")
            for j in range(n):
                if i != j and cartan[i][j] > 0:
                    raise ValueError("off-diagonal entries must be <= 0")
                if i != j and (cartan[i][j] == 0) != (cartan[j][i] == 0):
                    raise ValueError("zero pattern must be symmetric")
        self.tag = tag
        self.names: tuple[int, ...] = tuple(names)
        self.cartan: Matrix = tuple(tuple(row) for row in cartan)
        self.is_finite = finite
        self.rank = n
        self._idx = {s: i for i, s in enumerate(self.names)}
        if any(sum(map(abs, row)) - 1 >= _GUARD for row in self.cartan):
            raise ValueError(f"a Cartan row of weight {_GUARD} or more is past the packed bound")
        # the packed Cartan rows, each a plain signed sum: one step is one multiply-subtract
        self._crow = tuple(sum(c << BITS * k for k, c in enumerate(row)) for row in self.cartan)
        # nonzero (j, C[i][j]) of each Cartan row, and sum_j C[i][j] times the
        # bias of every digit: g_i * M adds to row i the sum over them of
        # -C[i][j] * (row_j less its bias)
        self._support = tuple(tuple((j, c) for j, c in enumerate(row) if c) for row in self.cartan)
        lanes = sum(1 << BITS * k for k in range(n))
        self._bias = tuple(sum(row) * _HALF * lanes for row in self.cartan)
        # the sign bit of every digit; the bound holds when adding BOUND to
        # every digit leaves its top three bits 100 (module docstring)
        self._top, self._lim, self._chk = _HALF * lanes, BOUND * lanes, 7 * (_HALF >> 2) * lanes
        self._signs = _Signs()
        # per generator, the smaller ones that commute with it
        self._low = tuple(sum(1 << t for t in range(i) if not row[t]) for i, row in enumerate(self.cartan))
        self._sides = _Sides(right=0, left=n)  # side -> slot offset
        C = self.cartan
        self.coxeter_matrix: dict[tuple[int, int], int] = {
            (s, t): 1 if i == j else _coxeter_order(C[i][j] * C[j][i])
            for i, s in enumerate(self.names) for j, t in enumerate(self.names)
        }
        self._ref = _SystemRef(self)  # the one reference to the system its elements hold
        self._ref.tag = tag
        # the element table, lists of ints by id (module docstring), holding
        # the identity, id 0: packed r and l, length, left and right descent
        # masks, rank packed rows, and 2 * rank step slots (x*s_i at i, s_i*x
        # at rank + i)
        ones, self._unbuilt = _pack((1,) * n), [-1] * (2 * n)
        self._r, self._l, self._len, self._ld, self._rd = [ones], [ones], [0], [0], [0]
        self._rows = [_pack(int(i == j) for j in range(n)) for i in range(n)]
        self._succ = list(self._unbuilt)
        self._by_r: dict[int, int] = {ones: 0}
        self._by_l: dict[int, int] = {ones: 0}
        self._handles: dict[int, CoxeterElement] = {}
        self._reps: dict[tuple[int, int, int | None], tuple[tuple[CoxeterElement, ...], bool]] = {}
        self._masks: dict[tuple[int, ...], int] = {}
        self._flip: tuple[int, tuple[int, ...]] | None = None  # w0 and sigma
        self.identity = self._handle(0)
        self.generators: dict[int, CoxeterElement] = {
            s: self._handle(self._step(0, i)) for i, s in enumerate(self.names)
        }

    def __del__(self):
        # a handle held elsewhere keeps its word and packed vectors; one held by
        # the table alone (3 references: the dict, h, the argument) goes with
        # it.  Read through self, as the collector may have cleared the weak
        # reference of a system in a cycle, and by getattr (building
        # self.__dict__ would make it keep the system as resurrected)
        if kept := [h for h in getattr(self, "_handles", {}).values() if getrefcount(h) > 3]:
            self._spell(kept)
        for h in kept:
            h._snap = self._packed(h.id)

    # -- construction --------------------------------------------------------

    @classmethod
    def from_type(cls, tag: str) -> "CoxeterSystem":
        m = _TYPE_RE.match(tag)
        if m is None or m.group(4):
            raise ValueError(f"unrecognized type tag {tag!r}")
        aff, rank = m.group(1), int(m.group(3))
        fin = finite_cartan(m.group(2), rank)
        if not aff:
            return cls(tag, range(1, rank + 1), fin, finite=True)
        highest = max(roots_and_coroots(fin), key=lambda p: sum(p[0]))
        return cls(tag, range(0, rank + 1), affinize_cartan(fin, highest), finite=False)

    # -- the element table -----------------------------------------------------

    def _past_bound(self, word: tuple[int, ...] | None) -> InternalInvariantError:
        """The error of a coordinate past -BOUND <= v < BOUND (module docstring)."""
        name = "a new element" if word is None else format_word(word) or "e"
        return InternalInvariantError(
            f"{self.tag}: a vector of {name} has a coordinate past the packed bound {BOUND}"
        )

    def _handle(self, u: int) -> CoxeterElement:
        """The element of id u, made on first use."""
        if (h := self._handles.get(u)) is None:
            h = self._handles[u] = CoxeterElement(self._ref, u, self._len[u], self._ld[u], self._rd[u])
        return h

    def _packed(self, u: int) -> tuple[int, int, tuple[int, ...]]:
        return self._r[u], self._l[u], tuple(self._rows[self.rank * u:self.rank * (u + 1)])

    def _read_down(self, ids: Iterable[int], memo: dict, make) -> dict:
        """memo, holding a value of e, filled at ids down the left slots: for
        u != e, make(u, i, memo[s_i*u]), s_i its first letter; ids are taken
        by length, so the value of s_i*u is mostly made already."""
        ld, succ, n = self._ld, self._succ, self.rank
        for u in sorted(ids, key=self._len.__getitem__):
            if u in memo:
                continue
            d = ld[u]
            i = (d & -d).bit_length() - 1
            v = succ[2 * n * u + n + i]
            w = memo.get(v)
            if w is None:  # down to a known value, then back up
                chain = []
                while w is None:
                    d = ld[v]
                    j = (d & -d).bit_length() - 1
                    chain.append((v, j))
                    v = succ[2 * n * v + n + j]
                    w = memo.get(v)
                for v, j in reversed(chain):
                    w = memo[v] = make(v, j, w)
            memo[u] = make(u, i, w)
        return memo

    def _words(self, ids: Iterable[int], memo: dict | None = None) -> dict:
        """memo, {id: normal form} with e's (), filled at ids."""
        names = self.names
        return self._read_down(ids, {0: ()} if memo is None else memo, lambda _, i, w: (names[i],) + w)

    def _spell(self, handles: Iterable[CoxeterElement]) -> None:
        """Keep the word of every one of many handles, read with one memo."""
        todo = [h for h in handles if h._word is None]
        words = self._words([h.id for h in todo])
        for h in todo:
            h._word = words[h.id]

    def _sorted(self, ids: Iterable[int], spelled: dict | None = None) -> list[int]:
        """ids in ShortLex order, by their _spelled pairs (no two keys are equal)."""
        ids = list(ids)
        return sorted(ids, key=self._spelled(ids, spelled).__getitem__)

    def _spelled(self, ids: Iterable[int], memo: dict | None = None) -> dict:
        """memo, {id: (ShortLex key, word text)} with the identity's (0, ""),
        filled at ids.  The key of y != e is (i + 1) << b * (l(y) - 1) plus
        that of s_i*y, s_i its first letter and b the bits of the rank: the
        digits of the word in base 2^b, none 0, so keys compare as (length,
        word); the text is the letter of s_i joined onto that of s_i*y."""
        b, ln, letters = self.rank.bit_length(), self._len, tuple(map(str, self.names))
        make = lambda u, i, kt: (  # noqa: E731
            kt[0] + (i + 1 << b * (ln[u] - 1)), f"{letters[i]} {kt[1]}" if kt[1] else letters[i])
        return self._read_down(ids, {0: (0, "")} if memo is None else memo, make)

    def mask(self, subset: Iterable[int]) -> int:
        """Bitmask of generator positions of a subset of the names."""
        return sum(1 << self._idx[s] for s in set(subset))

    def _names_of(self, mask: int) -> frozenset[int]:
        return frozenset(s for i, s in enumerate(self.names) if mask >> i & 1)

    def _step(self, x: int, slot: int) -> int:
        """x*s_i for slot i, s_i*x for slot rank + i, a list read once filled:
        else r (for x*s_i) or l (s_i*x) is reflected and looked up, or a new
        element built; one step fills both slots, as (x s) s = x."""
        n, succ = self.rank, self._succ
        y = succ[2 * n * x + slot]
        if y >= 0:
            return y
        i = slot - n
        if i < 0:
            i, p, table = slot, self._r[x], self._by_r
        else:
            p, table = self._l[x], self._by_l
        # v_k - C[i][k] * v_i, one multiply-subtract by the packed Cartan row
        p -= ((p >> BITS * i & _MASK) - _HALF) * self._crow[i]
        y = table.get(p)
        if y is None:
            y = self._new_right(x, i) if i == slot else self._new_left(x, i, p)
        else:
            succ[2 * n * x + slot] = y
            succ[2 * n * y + slot] = x
        return y

    def _new_left(self, x: int, i: int, p: int) -> int:
        """y = s_i*x, new, l(y) = p: first letters (smallest left descents) are
        read off the signs of l and peeled, each l checked against the bound,
        down to a known element, and the peeled ones added back up."""
        top, lim, chk, signs, i0 = self._top, self._lim, self._chk, self._signs, i
        peeled: list[tuple[int, int, int]] = []
        while True:
            if (p + lim) & chk != top:  # checked before it is reflected
                raise self._past_bound(None)
            mask = signs[~p & top]
            # names are sorted, so the lowest descent bit is the ShortLex choice
            s = (mask & -mask).bit_length() - 1
            if s == i and not peeled:  # s_i * (s_i * x) = x
                return self._add(x, s, p, mask)
            peeled.append((p, mask, s))
            i = s
            p -= ((p >> BITS * i & _MASK) - _HALF) * self._crow[i]
            y = self._by_l.get(p)
            if y is not None:
                break
        while peeled:  # added back up
            l, mask, s = peeled.pop()
            y = self._add(y, s, l, mask)
        n, slot = self.rank, self.rank + i0
        self._succ[2 * n * x + slot] = y
        self._succ[2 * n * y + slot] = x
        return y

    def _new_right(self, x: int, i: int) -> int:
        """y = x*s_i, new: the left step s from s*y, s its smallest left
        descent by the exchange condition, which l(y) must confirm."""
        n, succ, x0 = self.rank, self._succ, x
        j = _simple_image(self, x, i)
        ldesc = self._ld[x] if j < 0 else self._ld[x] ^ 1 << j
        s = (ldesc & -ldesc).bit_length() - 1
        if s != j:  # s*y = (s*x)*s_i
            v = succ[2 * n * x + n + s]
            x = self._step(x, n + s) if v < 0 else v
            v = succ[2 * n * x + i]
            x = self._step(x, i) if v < 0 else v
        top, p = self._top, self._l[x]
        p -= ((p >> BITS * s & _MASK) - _HALF) * self._crow[s]
        if (p + self._lim) & self._chk != top:
            raise self._past_bound(None)
        if self._signs[~p & top] != ldesc:
            raise InternalInvariantError(
                f"{self.tag}: the exchange condition and l(y) disagree on the left "
                f"descents of y = s_{self.names[s]} * {format_word(self._words((x,))[x]) or 'e'}"
            )
        y = self._add(x, s, p, ldesc)
        succ[2 * n * x0 + i] = y
        succ[2 * n * y + i] = x0
        return y

    def _add(self, y: int, s: int, l: int, mask: int) -> int:
        """s*y under the next id, linked to y: l = l(s*y), mask its left
        descents, s the smallest.  g_s * M changes row s only, by
        d = -sum_j C[s][j] * row_j (packed rows less their biases), and so r."""
        n, rows, ln, succ = self.rank, self._rows, self._len, self._succ
        row, d = rows[n * y:n * y + n], self._bias[s]
        for j, c in self._support[s]:
            d -= c * row[j]
        row[s] += d
        r, top = self._r[y] + d, self._top
        if (r + self._lim) & self._chk != top:
            raise self._past_bound((self.names[s],) + self._words((y,))[y])
        u = len(ln)
        rows += row
        self._r.append(r)
        self._l.append(l)
        ln.append(ln[y] + 1)
        self._ld.append(mask)
        self._rd.append(self._signs[~r & top])
        succ += self._unbuilt
        self._by_r[r] = self._by_l[l] = u
        succ[2 * n * u + n + s] = y
        succ[2 * n * y + n + s] = u
        return u

    def element(self, word: Iterable[int]) -> CoxeterElement:
        """Element of the group from any word in the generators."""
        return self._handle(self._walk(0, word))

    def _walk(self, u: int, word: Iterable[int]) -> int:
        """u times the word, by right steps."""
        idx, succ, m = self._idx, self._succ, 2 * self.rank
        for s in word:
            i = idx.get(s)
            if i is None:
                raise ValueError(f"unknown generator {s!r} for system {self.tag}")
            v = succ[m * u + i]
            u = v if v >= 0 else self._step(u, i)
        return u

    def check_names(self, subset: Iterable[int]) -> tuple[int, ...]:
        out = tuple(sorted(set(subset)))
        for s in out:
            if s not in self._idx:
                raise ValueError(f"unknown generator {s!r} for system {self.tag}")
        return out

    def _valid_mask(self, subset: Iterable[int]) -> int:
        """mask(check_names(subset)), memoized per subset as given."""
        key = tuple(subset)
        mask = self._masks.get(key)
        if mask is None:
            mask = self._masks[key] = self.mask(self.check_names(key))
        return mask

    # -- Bruhat order ---------------------------------------------------------

    def bruhat_leq(self, x: CoxeterElement, y: CoxeterElement) -> bool:
        """Bruhat order by the lifting property: for a right descent s of y,
        x <= y exactly when x' <= ys, x' = xs if s is a descent of x, else x."""
        if x._ref is not self._ref or y._ref is not self._ref:
            raise ValueError("elements of a different system")
        u, v, ln, rd, succ, m = x.id, y.id, self._len, self._rd, self._succ, 2 * self.rank
        while 0 < ln[u] < ln[v]:
            d = rd[v]
            i = (d & -d).bit_length() - 1  # the smallest right descent
            if rd[u] >> i & 1:
                u = w if (w := succ[m * u + i]) >= 0 else self._step(u, i)
            v = w if (w := succ[m * v + i]) >= 0 else self._step(v, i)
        return u == v or not ln[u]

    def enumerate_below(self, y: CoxeterElement) -> list[CoxeterElement]:
        """All z <= y, via the subword property of any reduced word of y."""
        below = {0}
        for s in y.word:
            i = self._idx[s]
            below |= {self._step(z, i) for z in below}
        return list(map(self._handle, self._sorted(below)))

    # -- quotients and cosets --------------------------------------------------

    def project(self, x: CoxeterElement, I: Iterable[int], side: str) -> CoxeterElement:
        """Minimal-length representative of W_I x (side='left') or x W_I (side='right')."""
        return self._handle(self._project(x.id, self._valid_mask(I), self._sides[side]))

    def _project(self, u: int, mask: int, off: int) -> int:
        """project on ids: off 0 for the right side, rank for the left."""
        desc = self._ld if off else self._rd
        while d := desc[u] & mask:
            u = self._step(u, off + (d & -d).bit_length() - 1)
        return u

    def quotient_reps(
        self, I: Iterable[int], side: str = "left", max_len: int | None = None
    ) -> tuple[list[CoxeterElement], bool]:
        """Minimal coset representatives (W_I\\W for side='left', W/W_I for
        'right') sorted by (length, word), and whether max_len, required for
        an infinite system, cut the search."""
        found, truncated = self._quotient(self._valid_mask(I), bool(self._sides[side]), max_len)
        return list(map(self._handle, found)), truncated

    def _quotient(self, mask: int, left: bool, max_len: int | None) -> tuple[list[int], bool]:
        """quotient_reps on ids, grown breadth first on the side away from I:
        a prefix of a minimal representative is minimal."""
        if max_len is not None and max_len < 0:
            raise ValueError(f"the length bound {max_len} is negative")
        if max_len is None:
            if not self.is_finite:
                raise ValueError("max_len is required for an infinite system")
            max_len = 1 << 30
        # y is met once, from y*s_i (s_i*y on the left side), s_i its smallest
        # right (left) descent; a smaller one that commutes with s_i stays one
        grow, ups, downs = (0, self._rd, self._ld) if left else (self.rank, self._ld, self._rd)
        found: list[int] = []
        layer, length, spelled = [0], 0, {0: (0, "")}
        while layer:
            found += layer
            nxt = []
            for x in layer:
                up = ups[x]
                for i, low in enumerate(self._low):
                    if not up & (1 << i | low):
                        y = self._step(x, grow + i)
                        d = ups[y]
                        if d & -d == 1 << i and not downs[y] & mask:
                            nxt.append(y)
            if length >= max_len:
                return found, bool(nxt)
            layer = self._sorted(nxt, spelled)
            length += 1
        return found, False

    def longest_element(self, I: Iterable[int] | None = None) -> CoxeterElement:
        """Longest element of W_I (of the whole group when I is None)."""
        I = self.check_names(I if I is not None else self.names)
        if not self.is_finite and len(I) == self.rank:
            raise ValueError(f"system {self.tag} is infinite; it has no longest element")
        mask, w = self.mask(I), 0
        for _ in range(_ASCEND_GUARD):
            up = mask & ~self._rd[w]
            if not up:
                return self._handle(w)
            w = self._step(w, (up & -up).bit_length() - 1)
        raise RuntimeError("longest-element ascent did not terminate")

    def times_longest(self, x: CoxeterElement) -> CoxeterElement:
        """x*w0 of a finite system.  w0(alpha_j) = -alpha_sigma(j), sigma the
        diagram involution, so r(x w0)_j = -r(x)_sigma(j): x*w0 is looked up
        by that vector and walked only when it is not built yet."""
        if self._flip is None:
            w0 = self.longest_element().id
            self._flip = w0, tuple(_simple_image(self, w0, j) for j in range(self.rank))
        w0, flip = self._flip
        r = _coords(self._r[x.id])
        u = self._by_r.get(_pack([-r[k] for k in flip]))
        return self._handle(self._walk(x.id, self._words((w0,))[w0]) if u is None else u)

    def _is_regular(self, w: int, jmask: int, imask: int) -> bool:
        """No t in I has w(alpha_t) = +-alpha_u with u in J (masks of positions)."""
        for t in range(self.rank):
            if imask >> t & 1:
                u = _simple_image(self, w, t)
                if u >= 0 and jmask >> u & 1:
                    return False
        return True

    def is_regular_double_coset_rep(
        self, w: CoxeterElement, J: Iterable[int], I: Iterable[int]
    ) -> bool:
        """w is minimal in W_J w W_I on both sides and regular for (J, I)."""
        jmask, imask = self._valid_mask(J), self._valid_mask(I)
        return not (w.ldesc & jmask or w.rdesc & imask) and self._is_regular(w.id, jmask, imask)

    def regular_double_coset_reps(
        self, J: Iterable[int], I: Iterable[int], max_len: int | None = None
    ) -> tuple[tuple[CoxeterElement, ...], bool]:
        """Minimal representatives of W_J\\W/W_I whose I-conjugate avoids W_J
        (the elements minimal on both sides, less w with J meeting w I w^-1),
        sorted by (length, word), memoized per (J, I, max_len), and whether
        W_J\\W has elements longer than max_len."""
        jmask, imask = self._valid_mask(J), self._valid_mask(I)
        key = (jmask, imask, max_len)
        cached = self._reps.get(key)
        if cached is not None:
            return cached
        if jmask:
            reps, truncated = self._quotient(jmask, True, max_len)
            reps = [w for w in reps if not self._rd[w] & imask and self._is_regular(w, jmask, imask)]
        else:  # with J = () every element of W^I is one: grow W^I, not W
            reps = self._quotient(imask, False, max_len)[0]
            truncated = max_len is not None and (
                not self.is_finite or max_len < self.longest_element().length
            )
        self._reps[key] = cached = tuple(map(self._handle, reps)), truncated
        return cached


def affinize_cartan(
    fin: Matrix, beta: tuple[tuple[int, ...], tuple[int, ...]]
) -> Matrix:
    """Extend a finite Cartan matrix by an affine node for the root beta.

    beta is a (root-coords, coroot-coords) pair; the new node is attached by
    the pairings -<alpha_j, beta^vee> and -<beta, alpha_j^vee>.
    """
    n, (m, c) = len(fin), beta
    row0 = (2, *(-sum(c[i] * fin[i][j] for i in range(n)) for j in range(n)))
    return (row0, *((-sum(m[i] * fin[j][i] for i in range(n)), *fin[j]) for j in range(n)))


def parse_word(text: str) -> tuple[int, ...]:
    """Parse a generator word like '2 1 3 2' (commas allowed); '' is identity."""
    s = text.replace(",", " ").strip()
    if not s:
        return ()
    try:
        return tuple(int(t) for t in s.split())
    except ValueError as exc:
        raise ValueError(f"bad generator word {text!r}") from exc


def format_word(word: Sequence[int]) -> str:
    return " ".join(map(str, word))


def format_words(system: CoxeterSystem, ids: Iterable[int], spelled: dict | None = None) -> dict[int, str]:
    """format_word of the words of many elements of one live system, as {id:
    text}, the identity's "": each text is the first letter joined onto the
    text of s*x, x's left s-slot, made once; a _spelled memo is shared."""
    ids = list(ids)
    spelled = system._spelled(ids, spelled)
    return {u: spelled[u][1] for u in ids}
