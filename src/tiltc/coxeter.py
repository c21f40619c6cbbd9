"""Coxeter systems of finite and untwisted affine Weyl type.

Groups are presented by a generalized Cartan matrix and realized faithfully
on simple-root coordinates: generator s_i acts by the reflection matrix that
is the identity except in row i, where (M_i)[i][j] = delta_ij - C[i][j].
Every element w is stored as its ShortLex-least reduced word, its matrix
(column j is w(alpha_j)) and two integral vectors: r(w), the heights of the
w(alpha_j) (the column sums of the matrix), and l(w) = r(w^-1).  A root is
positive or negative as its height is, so the signs of r(w) and l(w) are the
right and left descent sets; and r(w) = r(w') forces w = w', since then
w w'^-1 keeps the height of every root, so it has no descent.  So r keys the
element table for right steps and l for left steps, and length, descent
sets and Bruhat order are all exact and cheap at the ranks used here.

No operation multiplies full matrices: a product walks the right factor's
word through the slots (Casselman, "Computation in Coxeter groups I"), and a
step by s_i reflects one vector, v_k -> v_k - C[i][k] * v_i (r for x*s_i, l
for s_i*x), and looks it up; one loop (``_step``) makes every reflection.
The normal form of a new y is (s,) + word(s*y) for its smallest left
descent s, and y is registered as the left step s from s*y: its matrix
s*M(s*y) differs in row s only.  For y = s_i*x the left descents are the
signs of l(y), and left descents are peeled until a known element is
reached.  For y = x*s_i the exchange condition (Bjorner-Brenti,
"Combinatorics of Coxeter Groups", 1.5) gives the left descents: those of
x, with s_j toggled when x(alpha_i) = +-alpha_j (then s_j*x = y); s*y is x
itself or the step (s*x)*s_i, and l(y) must have the descents it gave.  So
the left s-slot of every y != e holds s*y, and ``format_words`` prints many
words, as ``tiltc kl`` does, each by one join onto the text of s*y.

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

Each system keeps an element table, after the numbered elements of du
Cloux's Coxeter3: every element is built once, gets the next dense id
(``W._by_id[x.id] is x``), and carries as plain attributes its length, its
left and right descent sets as bitmasks over generator positions, and a slot
per generator and side for its neighbour x*s or s*x, filled on the first
step (and the neighbour's slot back to x with it), so a repeated step is one
list read.  Ids follow the order in which elements were built, so they key
internal tables only: ordering and output use the reduced word; equality
and hashing are the element's identity, so elements of two systems are never
equal.

The system owns its table: elements refer to it through one weak reference
that they all share, and releasing the system unlinks their step slots, so
reference counts free the whole table at once, with no work left to the
cyclic collector.  An element kept after its system keeps its word, length,
vectors, matrix and descent masks; a step from it raises ``ReferenceError``.

Generator names are 1-based for finite types (A3 has S = {1,2,3}); affine
types prepend the affine node as generator 0.

>>> W = CoxeterSystem.from_type("A2")
>>> W.element([2, 1, 2]).word      # ShortLex normal form
(1, 2, 1)
>>> W.longest_element().length
3
"""

from __future__ import annotations

import re
import weakref
from operator import attrgetter
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
    "SHORTLEX",
]

Matrix = tuple[tuple[int, ...], ...]

_TYPE_RE = re.compile(r"^(aff)?([A-G])(\d+)(d?)$")

SHORTLEX = attrgetter("length", "word")  # the sort key of ShortLex order on elements

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
    out = []
    while p:
        out.append((p & _MASK) - _HALF)
        p >>= BITS
    return tuple(out)


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


def _simple_image(x: "CoxeterElement", i: int) -> int:
    """Position j with x(alpha_i) = +-alpha_j, or -1.

    A root of height +-1 is +-alpha_j, and j is the one row whose digit i,
    the entry of column i of the matrix, is not 0.
    """
    shift = BITS * i
    if (x._r >> shift & _MASK) - _HALF in (1, -1):
        for j, row in enumerate(x._rows):
            if row >> shift & _MASK != _HALF:
                return j
    return -1


def finite_cartan(family: str, rank: int) -> Matrix:
    """Cartan matrix of a finite Weyl type, Bourbaki numbering.

    Convention: C[i][j] = <alpha_j, alpha_i^vee>, 0-based positions.
    """
    fam = family.upper()
    if fam == "A":
        ok = rank >= 1
    elif fam in ("B", "C"):
        ok = rank >= 2
    elif fam == "D":
        ok = rank >= 3
    elif fam == "E":
        ok = rank in (6, 7, 8)
    elif fam == "F":
        ok = rank == 4
    elif fam == "G":
        ok = rank == 2
    else:
        ok = False
    if not ok:
        raise ValueError(f"unsupported type {family}{rank}")

    def chain(n):
        return [[2 if i == j else (-1 if abs(i - j) == 1 else 0) for j in range(n)] for i in range(n)]

    c = chain(rank)
    if fam == "B":
        # alpha_rank short: <alpha_{n-1}, alpha_n^vee> = -2
        c[rank - 1][rank - 2] = -2
    elif fam == "C":
        c[rank - 2][rank - 1] = -2
    elif fam == "D":
        for i in range(rank):
            for j in range(rank):
                if i != j:
                    c[i][j] = 0
        for i in range(rank - 2):
            c[i][i + 1] = c[i + 1][i] = -1
        c[rank - 3][rank - 1] = c[rank - 1][rank - 3] = -1
    elif fam == "E":
        # Bourbaki: node 2 hangs off node 4 of the A-chain 1-3-4-5-6(-7-8)
        chain_nodes = [1, 3, 4, 5, 6, 7, 8][: rank - 1]
        pairs = list(zip(chain_nodes, chain_nodes[1:])) + [(2, 4)]
        for i in range(rank):
            for j in range(rank):
                if i != j:
                    c[i][j] = 0
        for a, b in pairs:
            c[a - 1][b - 1] = c[b - 1][a - 1] = -1
    elif fam == "F":
        c[2][1] = -2  # <alpha_2, alpha_3^vee> = -2 (alpha_3 short)
    elif fam == "G":
        # alpha_1 short, alpha_2 long: <alpha_2, alpha_1^vee> = -3
        c[0][1] = -3
    return tuple(tuple(row) for row in c)


def roots_and_coroots(cartan: Matrix) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
    """All positive roots of a finite Cartan matrix as (root, coroot) pairs.

    Coordinates are in the simple-root / simple-coroot bases.  Closure under
    simple reflections; the coroot side uses the transposed matrix.
    """
    n = len(cartan)
    simples = [
        (
            tuple(1 if k == i else 0 for k in range(n)),
            tuple(1 if k == i else 0 for k in range(n)),
        )
        for i in range(n)
    ]
    seen = set(simples)
    frontier = list(simples)
    guard = 0
    while frontier:
        guard += 1
        if guard > 10_000:
            raise ValueError("root closure did not terminate; matrix is not of finite type")
        nxt = []
        for root, coroot in frontier:
            for i in range(n):
                pr = sum(cartan[i][j] * root[j] for j in range(n))
                pc = sum(cartan[j][i] * coroot[j] for j in range(n))
                r2 = list(root)
                r2[i] -= pr
                c2 = list(coroot)
                c2[i] -= pc
                if all(x >= 0 for x in r2) and any(x > 0 for x in r2):
                    pair = (tuple(r2), tuple(c2))
                    if pair not in seen:
                        seen.add(pair)
                        nxt.append(pair)
        frontier = nxt
    return sorted(seen, key=lambda p: (sum(p[0]), p[0]))


def _coxeter_order(prod: int) -> int:
    """Edge label m(s,t) from C[s][t]*C[t][s]; 0 encodes infinity."""
    return {0: 2, 1: 3, 2: 4, 3: 6}.get(prod, 0)


class _SystemRef(weakref.ref):
    """The weak reference every element of one system shares, with the
    system's tag, so an element names itself after its system is gone."""

    __slots__ = ("tag",)


class CoxeterElement:
    """Group element: canonical reduced word, packed vectors and matrix rows, table slots.

    Built only by its system, which assigns ``id``.  ``_r`` and ``_l`` are
    r(x) and l(x) = r(x^-1) packed, ``_rows`` the rows of the matrix packed
    (see the module docstring); ``rvec``, ``lvec`` and ``matrix`` read them
    as tuples.  ``ldesc`` / ``rdesc`` have bit i set when the generator at
    position i is a left / right descent; ``_succ[i]`` and
    ``_succ[rank + i]`` hold x*s_i and s_i*x once a step has built them.
    ``_ref`` is the system's shared weak reference: two elements are of one
    system when their ``_ref`` is one object.
    """

    __slots__ = (
        "_ref", "word", "_rows", "_r", "_l",
        "length", "id", "ldesc", "rdesc", "_succ",
    )

    def __init__(
        self,
        ref: _SystemRef,
        id: int,
        word: tuple[int, ...],
        rows: tuple[int, ...],
        r: int,
        l: int,
        ldesc: int,
        rdesc: int,
    ):
        self._ref = ref
        self.word = word
        self._rows = rows
        self._r = r
        self._l = l
        self.length = len(word)
        self.id = id
        self.ldesc = ldesc
        self.rdesc = rdesc
        self._succ: list[CoxeterElement | None] | None = [None] * (2 * len(rows))

    @property
    def rvec(self) -> tuple[int, ...]:
        """r(x), the heights of the x(alpha_j)."""
        return _coords(self._r)

    @property
    def lvec(self) -> tuple[int, ...]:
        """l(x) = r(x^-1)."""
        return _coords(self._l)

    @property
    def matrix(self) -> Matrix:
        """The matrix of x: column j is x(alpha_j)."""
        return tuple(map(_coords, self._rows))

    @property
    def system(self) -> "CoxeterSystem":
        """The system of this element; ReferenceError once it is released."""
        W = self._ref()
        if W is None:
            raise ReferenceError(f"the system of {self!r} has been released")
        return W

    def is_identity(self) -> bool:
        return not self.word

    def __mul__(self, other: "CoxeterElement") -> "CoxeterElement":
        if not isinstance(other, CoxeterElement):
            return NotImplemented
        if other._ref is not self._ref:
            raise ValueError("elements of different systems")
        return self.system._walk(self, other.word)

    def inverse(self) -> "CoxeterElement":
        W = self.system
        # r(x^-1) = l(x); an inverse not built yet is walked from its reversed word
        return W._by_r.get(self._l) or W._walk(W.identity, reversed(self.word))

    def times_gen(self, s: int, side: str = "right") -> "CoxeterElement":
        W = self._ref() or self.system  # the property raises for a released system
        slot = W._sides[side] + W._idx[s]
        return self._succ[slot] or W._step(self, slot)

    def right_descents(self) -> frozenset[int]:
        return self.system._names_of(self.rdesc)

    def left_descents(self) -> frozenset[int]:
        return self.system._names_of(self.ldesc)

    def has_left_descent(self, s: int) -> bool:
        return bool(self.ldesc >> self.system._idx[s] & 1)

    def sort_key(self) -> tuple[int, tuple[int, ...]]:
        return (len(self.word), self.word)

    def __lt__(self, other: "CoxeterElement") -> bool:
        return self.sort_key() < other.sort_key()

    def __repr__(self) -> str:
        return f"<{self._ref.tag}:{format_word(self.word) or 'e'}>"


class CoxeterSystem:
    """A Coxeter system with named generators and exact matrix realization.

    Construct with from_type ("A3", "B2", "affA1", ...), or directly from a
    custom generalized Cartan matrix (used by the root-of-unity linkage data).
    """

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
        self._support = tuple(
            tuple((j, c) for j, c in enumerate(row) if c) for row in self.cartan
        )
        lanes = sum(1 << BITS * k for k in range(n))
        self._bias = tuple(sum(row) * _HALF * lanes for row in self.cartan)
        # the sign bit of every digit; the bound holds when adding BOUND to
        # every digit leaves its top three bits 100 (module docstring)
        self._top, self._lim, self._chk = _HALF * lanes, BOUND * lanes, 7 * (_HALF >> 2) * lanes
        self._signs = _Signs()
        self._sides = _Sides(right=0, left=n)  # side -> slot offset

        self.coxeter_matrix: dict[tuple[int, int], int] = {}
        for s in self.names:
            for t in self.names:
                if s == t:
                    self.coxeter_matrix[(s, t)] = 1
                else:
                    prod = self.cartan[self._idx[s]][self._idx[t]] * self.cartan[self._idx[t]][self._idx[s]]
                    self.coxeter_matrix[(s, t)] = _coxeter_order(prod)

        self._ref = _SystemRef(self)  # the one reference to the system its elements hold
        self._ref.tag = tag
        # the element table: by r(x) for right steps, by l(x) for left steps, and by id
        self._by_r: dict[tuple[int, ...], CoxeterElement] = {}
        self._by_l: dict[tuple[int, ...], CoxeterElement] = {}
        self._by_id: list[CoxeterElement] = []
        self._reps: dict[tuple[int, int, int | None], tuple[tuple[CoxeterElement, ...], bool]] = {}
        self._masks: dict[tuple[int, ...], int] = {}
        self._flip: tuple[CoxeterElement, tuple[int, ...]] | None = None  # w0 and sigma
        ones = _pack((1,) * n)
        unit = tuple(_pack(int(i == j) for j in range(n)) for i in range(n))
        self.identity = self._register((), unit, ones, ones, 0)
        self.generators: dict[int, CoxeterElement] = {
            s: self._step(self.identity, i) for i, s in enumerate(self.names)
        }

    def __del__(self):
        # the step slots link the elements in cycles: unlink them, and the
        # table goes with the system by reference counts (read by getattr:
        # building self.__dict__ here would make the collector keep a
        # system in a cycle as resurrected)
        for el in getattr(self, "_by_id", ()):
            el._succ = None

    # -- construction --------------------------------------------------------

    @classmethod
    def from_type(cls, tag: str) -> "CoxeterSystem":
        m = _TYPE_RE.match(tag)
        if m is None or m.group(4):
            raise ValueError(f"unrecognized type tag {tag!r}")
        aff, family, rank_s = m.group(1), m.group(2), m.group(3)
        rank = int(rank_s)
        fin = finite_cartan(family, rank)
        if not aff:
            return cls(tag, range(1, rank + 1), fin, finite=True)
        pairs = roots_and_coroots(fin)
        highest = max(pairs, key=lambda p: sum(p[0]))
        return cls(tag, range(0, rank + 1), affinize_cartan(fin, highest), finite=False)

    # -- element plumbing ----------------------------------------------------

    def _register(
        self, word: tuple[int, ...], rows: tuple[int, ...], r: int, l: int, ldesc: int
    ) -> CoxeterElement:
        top = self._top
        if (r + self._lim) & self._chk != top or (l + self._lim) & self._chk != top:
            raise self._past_bound(word)
        el = CoxeterElement(self._ref, len(self._by_id), word, rows, r, l, ldesc, self._signs[~r & top])
        self._by_id.append(el)
        self._by_r[r] = el
        self._by_l[l] = el
        return el

    def _past_bound(self, word: tuple[int, ...] | None) -> InternalInvariantError:
        """The error of a vector with a coordinate v past -BOUND <= v < BOUND,
        found by three int operations (module docstring)."""
        name = "a new element" if word is None else format_word(word) or "e"
        return InternalInvariantError(
            f"{self.tag}: a vector of {name} has a coordinate past the packed bound {BOUND}"
        )

    def mask(self, subset: Iterable[int]) -> int:
        """Bitmask of generator positions of a subset of the names."""
        return sum(1 << self._idx[s] for s in set(subset))

    def _names_of(self, mask: int) -> frozenset[int]:
        return frozenset(s for i, s in enumerate(self.names) if mask >> i & 1)

    def _step(self, x: CoxeterElement, slot: int, ldesc: int = -1) -> CoxeterElement:
        """x*s_i for slot i, s_i*x for slot rank + i; a list read once filled.

        Otherwise the step's vector, r for x*s_i and l for s_i*x, is reflected
        and looked up.  A new x*s_i is ``_new_right``'s.  A new s_i*x is built
        here: its first letter s, the smallest left descent, is read off the
        signs of l and peeled, each l checked against the bound before it is
        reflected, until a known element is reached; then the peeled elements
        are registered back up, each as the left step s from the one below.
        ``ldesc``, when given, is the left descent mask of s_i*x that the
        exchange condition gave.
        """
        el = x._succ[slot]
        if el is not None:
            return el
        i = slot - self.rank
        if i < 0:
            i, p, table = slot, x._r, self._by_r
        else:
            p, table = x._l, self._by_l
        peeled: list[tuple[int, int, int]] = []
        while True:
            # v_k - C[i][k] * v_i, one multiply-subtract by the packed Cartan row
            p -= ((p >> BITS * i & _MASK) - _HALF) * self._crow[i]
            el = table.get(p)
            if el is not None:
                break
            if slot < self.rank:
                el = self._new_right(x, i)
                break
            top = self._top
            if (p + self._lim) & self._chk != top:  # checked before it is reflected
                raise self._past_bound(None)
            mask = self._signs[~p & top]
            if ldesc >= 0 and mask != ldesc:
                raise InternalInvariantError(
                    f"{self.tag}: the exchange condition and l(y) disagree on the left "
                    f"descents of y = s_{self.names[i]} * {format_word(x.word) or 'e'}"
                )
            ldesc = -1
            # names are sorted, so the lowest descent bit is the ShortLex choice
            s = (mask & -mask).bit_length() - 1
            peeled.append((p, mask, s))
            if s == i and len(peeled) == 1:  # s_i * (s_i * x) = x
                el = x
                break
            i = s
        while peeled:  # registered back up
            l, mask, s = peeled.pop()
            # g_s * M changes row s only, by d = -sum_j C[s][j] * row_j (a sum
            # of packed rows, less their biases); so does r
            rows, d = list(el._rows), self._bias[s]
            for j, c in self._support[s]:
                d -= c * rows[j]
            rows[s] += d
            below, el = el, self._register((self.names[s],) + el.word, tuple(rows), el._r + d, l, mask)
            el._succ[self.rank + s] = below
            below._succ[self.rank + s] = el
        # (x s) s = x: one step fills both slots
        x._succ[slot] = el
        el._succ[slot] = x
        return el

    def _new_right(self, x: CoxeterElement, i: int) -> CoxeterElement:
        """y = x*s_i, not built yet: the left step s from s*y, s its smallest
        left descent by the exchange condition (module docstring)."""
        j = _simple_image(x, i)
        ldesc = x.ldesc if j < 0 else x.ldesc ^ 1 << j
        s = (ldesc & -ldesc).bit_length() - 1
        slot = self.rank + s
        if s != j:
            x = x._succ[slot] or self._step(x, slot)
            x = x._succ[i] or self._step(x, i)
        return self._step(x, slot, ldesc)

    def element(self, word: Iterable[int]) -> CoxeterElement:
        """Element of the group from any word in the generators."""
        return self._walk(self.identity, word)

    def _walk(self, el: CoxeterElement, word: Iterable[int]) -> CoxeterElement:
        """el times the word, by right steps."""
        idx = self._idx
        for s in word:
            i = idx.get(s)
            if i is None:
                raise ValueError(f"unknown generator {s!r} for system {self.tag}")
            el = el._succ[i] or self._step(el, i)
        return el

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
        while 0 < x.length < y.length:
            i = (y.rdesc & -y.rdesc).bit_length() - 1  # the smallest right descent
            if x.rdesc >> i & 1:
                x = x._succ[i] or self._step(x, i)
            y = y._succ[i] or self._step(y, i)
        return x is y or not x.length

    def enumerate_below(self, y: CoxeterElement) -> list[CoxeterElement]:
        """All z <= y, via the subword property of any reduced word of y."""
        below = {self.identity}
        for s in y.word:
            below |= {z.times_gen(s) for z in below}
        return sorted(below, key=SHORTLEX)

    # -- quotients and cosets --------------------------------------------------

    def project(self, x: CoxeterElement, I: Iterable[int], side: str) -> CoxeterElement:
        """Minimal-length representative of W_I x (side='left') or x W_I (side='right')."""
        mask = self._valid_mask(I)
        off = self._sides[side]
        while d := (x.ldesc if off else x.rdesc) & mask:
            x = self._step(x, off + (d & -d).bit_length() - 1)
        return x

    def is_minimal(self, x: CoxeterElement, I: Iterable[int], side: str) -> bool:
        mask = self._valid_mask(I)
        return not (x.ldesc if self._sides[side] else x.rdesc) & mask

    def quotient_reps(
        self, I: Iterable[int], side: str = "left", max_len: int | None = None
    ) -> tuple[list[CoxeterElement], bool]:
        """Minimal coset representatives (W_I\\W for side='left', W/W_I for 'right').

        Returns (representatives sorted by (length, word), truncated flag).
        max_len bounds the search; it is required for infinite systems.
        """
        mask = self._valid_mask(I)
        if max_len is not None and max_len < 0:
            raise ValueError(f"the length bound {max_len} is negative")
        if max_len is None:
            if not self.is_finite:
                raise ValueError("max_len is required for an infinite system")
            max_len = 1 << 30
        left = bool(self._sides[side])
        # grow on the side away from I: a prefix of a minimal rep is minimal
        grow = 0 if left else self.rank
        found: list[CoxeterElement] = []
        layer, length = [self.identity], 0
        while layer:
            found += layer
            nxt = set()
            for x in layer:
                up = x.rdesc if left else x.ldesc
                for i in range(self.rank):
                    if not up >> i & 1:
                        y = self._step(x, grow + i)
                        if not (y.ldesc if left else y.rdesc) & mask:
                            nxt.add(y)
            if length >= max_len:
                return found, bool(nxt)
            layer = sorted(nxt, key=SHORTLEX)
            length += 1
        return found, False

    def longest_element(self, I: Iterable[int] | None = None) -> CoxeterElement:
        """Longest element of W_I (of the whole group when I is None)."""
        I = self.check_names(I if I is not None else self.names)
        if not self.is_finite and len(I) == self.rank:
            raise ValueError(f"system {self.tag} is infinite; it has no longest element")
        mask = self.mask(I)
        w = self.identity
        for _ in range(_ASCEND_GUARD):
            up = mask & ~w.rdesc
            if not up:
                return w
            w = self._step(w, (up & -up).bit_length() - 1)
        raise RuntimeError("longest-element ascent did not terminate")

    def times_longest(self, x: CoxeterElement) -> CoxeterElement:
        """x*w0 of a finite system.  w0(alpha_j) = -alpha_sigma(j), sigma the
        diagram involution, so r(x w0)_j = -r(x)_sigma(j): x*w0 is looked up
        by that vector and walked only when it is not built yet."""
        if self._flip is None:
            w0 = self.longest_element()
            self._flip = w0, tuple(_simple_image(w0, j) for j in range(self.rank))
        w0, flip = self._flip
        r = x.rvec
        return self._by_r.get(_pack([-r[k] for k in flip])) or x * w0

    def _is_regular(self, w: CoxeterElement, jmask: int, imask: int) -> bool:
        """No t in I has w(alpha_t) = +-alpha_u with u in J (masks of positions)."""
        for t in range(self.rank):
            if imask >> t & 1:
                u = _simple_image(w, t)
                if u >= 0 and jmask >> u & 1:
                    return False
        return True

    def is_regular_double_coset_rep(
        self, w: CoxeterElement, J: Iterable[int], I: Iterable[int]
    ) -> bool:
        """w is minimal in W_J w W_I on both sides and regular for (J, I)."""
        jmask, imask = self._valid_mask(J), self._valid_mask(I)
        return not (w.ldesc & jmask or w.rdesc & imask) and self._is_regular(w, jmask, imask)

    def regular_double_coset_reps(
        self, J: Iterable[int], I: Iterable[int], max_len: int | None = None
    ) -> tuple[tuple[CoxeterElement, ...], bool]:
        """Minimal representatives of W_J\\W/W_I whose I-conjugate avoids W_J,
        sorted by (length, word), memoized per (J, I, max_len).

        Minimal double-coset representatives are exactly the elements minimal
        on both sides; the regularity filter drops w with J meeting w I w^{-1}.
        truncated tells whether W_J\\W has elements longer than max_len.
        """
        jmask, imask = self._valid_mask(J), self._valid_mask(I)
        key = (jmask, imask, max_len)
        cached = self._reps.get(key)
        if cached is not None:
            return cached
        if jmask:
            reps, truncated = self.quotient_reps(J, side="left", max_len=max_len)
            regular = tuple(w for w in reps if not w.rdesc & imask and self._is_regular(w, jmask, imask))
        else:  # with J = () every element of W^I is one: grow W^I, not W
            regular = tuple(self.quotient_reps(I, side="right", max_len=max_len)[0])
            truncated = max_len is not None and (
                not self.is_finite or max_len < self.longest_element().length
            )
        self._reps[key] = regular, truncated
        return regular, truncated


def affinize_cartan(
    fin: Matrix, beta: tuple[tuple[int, ...], tuple[int, ...]]
) -> Matrix:
    """Extend a finite Cartan matrix by an affine node for the root beta.

    beta is a (root-coords, coroot-coords) pair; the new node is attached by
    the pairings -<alpha_j, beta^vee> and -<beta, alpha_j^vee>.
    """
    n = len(fin)
    m, c = beta
    row0 = [2] + [-sum(c[i] * fin[i][j] for i in range(n)) for j in range(n)]
    rows = [tuple(row0)]
    for j in range(n):
        col0 = -sum(m[i] * fin[j][i] for i in range(n))
        rows.append(tuple([col0] + list(fin[j])))
    return tuple(rows)


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


def format_words(elements: Iterable[CoxeterElement]) -> dict[CoxeterElement, str]:
    """format_word of the words of many elements of one live system, as
    {element: text}, the identity's text "".  The word of x != e is its first
    letter s followed by the word of s*x, which x's left s-slot holds (module
    docstring); so each text is one join onto the text of s*x, made once."""
    texts: dict[CoxeterElement, str] = {}
    letters: tuple[str, ...] = ()
    for x in elements:
        if x in texts:
            continue
        if not letters:
            letters = tuple(map(str, x._ref().names))
        chain = []  # (element, its first letter), down to a known text
        while True:
            d = x.ldesc
            if not d:  # the identity
                text = texts[x] = ""
                break
            i = (d & -d).bit_length() - 1
            chain.append((x, letters[i]))
            x = x._succ[len(letters) + i]
            text = texts.get(x)
            if text is not None:
                break
        for x, a in reversed(chain):
            text = texts[x] = f"{a} {text}" if text else a
    return texts
