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
step by s_i reflects one vector in O(rank), v_k -> v_k - C[i][k] * v_i (r for
x*s_i, l for s_i*x), and looks it up.  Only a new element steps a matrix.
The normal form of a new y is (s,) + word(s*y) for its smallest left
descent s.  For y = x*s_i the exchange condition (Bjorner-Brenti,
"Combinatorics of Coxeter Groups", 1.5) gives the left descents:
those of x, with s_j toggled when x(alpha_i) = +-alpha_j (then s_j*x = y);
s*y is then x itself or (s*x)*s_i.  For y = s_i*x the left descents are the
signs of l(y), and left descents are peeled until a known element is
reached.

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
vectors and descent masks; a step from it raises ``ReferenceError``.

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
from operator import add
from typing import Iterable, Sequence

from .errors import InternalInvariantError

__all__ = [
    "CoxeterSystem",
    "CoxeterElement",
    "finite_cartan",
    "roots_and_coroots",
    "parse_word",
    "format_word",
]

Matrix = tuple[tuple[int, ...], ...]

_TYPE_RE = re.compile(r"^(aff)?([A-G])(\d+)(d?)$")

_ASCEND_GUARD = 100_000  # iteration cap for longest-element ascent


def _ident(n: int) -> Matrix:
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


def _col_step(m: Matrix, i: int, support: tuple[tuple[int, int], ...]) -> Matrix:
    """m * g_i: column c becomes col_c - C[i][c] * col_i for each (c, C[i][c]) in support."""
    out = []
    for row in m:
        a = row[i]
        if a:
            new = list(row)
            for c, cic in support:
                new[c] -= a * cic
            row = tuple(new)
        out.append(row)
    return tuple(out)


def _reflect(v: tuple[int, ...], i: int, support: tuple[tuple[int, int], ...]) -> tuple[int, ...]:
    """v_k - C[i][k] * v_i for each (k, C[i][k]) in support: r(x*s_i) from r(x), l(s_i*x) from l(x)."""
    new = list(v)
    a = v[i]
    for k, cik in support:
        new[k] -= a * cik
    return tuple(new)


def _neg_mask(v: tuple[int, ...]) -> int:
    """Bit k set when v[k] < 0: the descents read off r(w) or l(w)."""
    mask, bit = 0, 1
    for a in v:
        if a < 0:
            mask |= bit
        bit <<= 1
    return mask


def _simple_image(x: "CoxeterElement", i: int) -> int:
    """Position j with x(alpha_i) = +-alpha_j, or -1.

    A root of height +-1 is +-alpha_j, and j is the one nonzero entry of
    column i of the matrix.
    """
    if x.rvec[i] in (1, -1):
        return next(k for k, row in enumerate(x.matrix) if row[i])
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
    """Group element: canonical reduced word, action matrix, r/l vectors and table slots.

    Built only by its system, which assigns ``id``.  ``rvec`` and ``lvec``
    are r(x) and l(x) = r(x^-1) (see the module docstring); ``ldesc`` /
    ``rdesc`` have bit i set when the generator at position i is a left /
    right descent; ``_succ[i]`` and ``_succ[rank + i]`` hold x*s_i and
    s_i*x once a step has built them.  ``_ref`` is the system's shared weak
    reference: two elements are of one system when their ``_ref`` is one
    object.
    """

    __slots__ = (
        "_ref", "word", "matrix", "rvec", "lvec",
        "length", "id", "ldesc", "rdesc", "_succ",
    )

    def __init__(
        self,
        ref: _SystemRef,
        id: int,
        word: tuple[int, ...],
        matrix: Matrix,
        rvec: tuple[int, ...],
        lvec: tuple[int, ...],
        ldesc: int,
        rdesc: int,
    ):
        self._ref = ref
        self.word = word
        self.matrix = matrix
        self.rvec = rvec
        self.lvec = lvec
        self.length = len(word)
        self.id = id
        self.ldesc = ldesc
        self.rdesc = rdesc
        self._succ: list[CoxeterElement | None] | None = [None] * (2 * len(rvec))

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
        return W._by_r.get(self.lvec) or W._walk(W.identity, reversed(self.word))

    def times_gen(self, s: int, side: str = "right") -> "CoxeterElement":
        return self.system._times_gen(self, s, side)

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
        # nonzero (c, C[i][c]) of each Cartan row: the columns M * s_i rewrites
        self._support = tuple(
            tuple((c, cic) for c, cic in enumerate(row) if cic) for row in self.cartan
        )

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
        self._bruhat: dict[tuple[CoxeterElement, CoxeterElement], bool] = {}
        self._reps: dict[tuple[int, int, int | None], tuple[tuple[CoxeterElement, ...], bool]] = {}
        self._masks: dict[tuple[int, ...], int] = {}
        ones = (1,) * n
        self.identity = self._register((), _ident(n), ones, ones, 0)
        self.generators: dict[int, CoxeterElement] = {
            s: self._times_gen(self.identity, s, "right") for s in self.names
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
        self, word: tuple[int, ...], mat: Matrix, rvec: tuple[int, ...], lvec: tuple[int, ...], ldesc: int
    ) -> CoxeterElement:
        el = CoxeterElement(self._ref, len(self._by_id), word, mat, rvec, lvec, ldesc, _neg_mask(rvec))
        self._by_id.append(el)
        self._by_r[rvec] = el
        self._by_l[lvec] = el
        return el

    def mask(self, subset: Iterable[int]) -> int:
        """Bitmask of generator positions of a subset of the names."""
        return sum(1 << self._idx[s] for s in set(subset))

    def _names_of(self, mask: int) -> frozenset[int]:
        return frozenset(s for i, s in enumerate(self.names) if mask >> i & 1)

    def _offset(self, side: str) -> int:
        """Slot offset of a step on ``side``: 0 for 'right', rank for 'left'."""
        if side == "right":
            return 0
        if side == "left":
            return self.rank
        raise ValueError("side must be 'left' or 'right'")

    def _times_gen(self, x: CoxeterElement, s: int, side: str) -> CoxeterElement:
        return self._step(x, self._offset(side) + self._idx[s])

    def _step(self, x: CoxeterElement, slot: int) -> CoxeterElement:
        """x*s_i for slot i, s_i*x for slot rank + i; a list read once filled."""
        el = x._succ[slot]
        if el is None:
            i = slot - self.rank
            if i < 0:
                v = _reflect(x.rvec, slot, self._support[slot])
                el = self._by_r.get(v) or self._new_right(x, slot, v)
            else:
                v = _reflect(x.lvec, i, self._support[i])
                el = self._by_l.get(v) or self._new_left(i, v)
            # (x s) s = x: one step fills both slots
            x._succ[slot] = el
            el._succ[slot] = x
        return el

    def _new_right(self, x: CoxeterElement, i: int, rvec: tuple[int, ...]) -> CoxeterElement:
        """Register y = x*s_i, not built yet, whose r(y) is ``rvec``.

        Its left descents are those of x, with s_j toggled when x(alpha_i) =
        +-alpha_j (then s_j*x = y).  With s the
        smallest of them, s*y is x itself when s = s_j, and otherwise
        (s*x)*s_i, where s*x is a left step down from x; the same test runs
        on s*x until s*y is known.  Then the peeled elements are registered
        back up, each with l(y) = l(s*(s*y)), which must have the descents
        the exchange gave.
        """
        rank, sup = self.rank, self._support[i]
        peeled: list[tuple[CoxeterElement, tuple[int, ...], int, int]] = []
        while True:
            j = _simple_image(x, i)
            ldesc = x.ldesc if j < 0 else x.ldesc ^ 1 << j
            s = (ldesc & -ldesc).bit_length() - 1
            peeled.append((x, rvec, ldesc, s))
            if s == j:
                below = x
                break
            x = self._step(x, rank + s)
            below = x._succ[i]
            if below is None:
                rvec = _reflect(x.rvec, i, sup)
                below = self._by_r.get(rvec)
            if below is not None:
                break
        for x, rvec, ldesc, s in reversed(peeled):
            lvec = _reflect(below.lvec, s, self._support[s])
            if _neg_mask(lvec) != ldesc:
                raise InternalInvariantError(
                    f"{self.tag}: the exchange condition and l(y) disagree on the left "
                    f"descents of {format_word(x.word) or 'e'} * s_{self.names[i]}"
                )
            el = self._register(
                (self.names[s],) + below.word, _col_step(x.matrix, i, sup), rvec, lvec, ldesc
            )
            el._succ[rank + s] = below
            below._succ[rank + s] = el
            el._succ[i] = x
            x._succ[i] = el
            below = el
        return below

    def _new_left(self, i: int, lvec: tuple[int, ...]) -> CoxeterElement:
        """Register y = s_i*x, not built yet, whose l(y) is ``lvec``.

        Peels the smallest left descent s (the ShortLex first letter, read off
        the signs of l) until a known element is reached, then registers the
        peeled elements back up, each with word (s,) + word(s*y) and matrix
        g_s * M(s*y) (row s rewritten), linking the left s-slots of y and s*y
        to each other.
        """
        peeled: list[tuple[tuple[int, ...], int, int]] = []
        while True:
            # names are sorted, so the lowest descent bit is the ShortLex choice
            ldesc = _neg_mask(lvec)
            s = (ldesc & -ldesc).bit_length() - 1
            peeled.append((lvec, ldesc, s))
            lvec = _reflect(lvec, s, self._support[s])
            below = self._by_l.get(lvec)
            if below is not None:
                break
        rank = self.rank
        for lvec, ldesc, s in reversed(peeled):
            # g_s * M changes row s only, by d = -sum_j C[s][j] * row_j; so does r
            m, d = below.matrix, [0] * rank
            for j, c in self._support[s]:
                rj = m[j]
                for k in range(rank):
                    d[k] -= c * rj[k]
            mat = m[:s] + (tuple(map(add, m[s], d)),) + m[s + 1 :]
            el = self._register(
                (self.names[s],) + below.word, mat, tuple(map(add, below.rvec, d)), lvec, ldesc
            )
            el._succ[rank + s] = below
            below._succ[rank + s] = el
            below = el
        return below

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
        """Bruhat order via the lifting property, memoized."""
        if x._ref is not self._ref or y._ref is not self._ref:
            raise ValueError("elements of a different system")
        key = (x, y)
        cached = self._bruhat.get(key)
        if cached is not None:
            return cached
        if x.is_identity():
            res = True
        elif x.length > y.length:
            res = False
        elif x.length == y.length:
            res = x is y
        else:
            i = (y.rdesc & -y.rdesc).bit_length() - 1  # the smallest right descent
            ys = self._step(y, i)
            res = self.bruhat_leq(self._step(x, i) if x.rdesc >> i & 1 else x, ys)
        self._bruhat[key] = res
        return res

    def enumerate_below(self, y: CoxeterElement) -> list[CoxeterElement]:
        """All z <= y, via the subword property of any reduced word of y."""
        below = {self.identity}
        for s in y.word:
            below |= {self._times_gen(z, s, "right") for z in below}
        return sorted(below, key=CoxeterElement.sort_key)

    # -- quotients and cosets --------------------------------------------------

    def project(self, x: CoxeterElement, I: Iterable[int], side: str) -> CoxeterElement:
        """Minimal-length representative of W_I x (side='left') or x W_I (side='right')."""
        mask = self._valid_mask(I)
        off = self._offset(side)
        while d := (x.ldesc if off else x.rdesc) & mask:
            x = self._step(x, off + (d & -d).bit_length() - 1)
        return x

    def is_minimal(self, x: CoxeterElement, I: Iterable[int], side: str) -> bool:
        mask = self._valid_mask(I)
        return not (x.ldesc if self._offset(side) else x.rdesc) & mask

    def quotient_reps(
        self, I: Iterable[int], side: str = "left", max_len: int | None = None
    ) -> tuple[list[CoxeterElement], bool]:
        """Minimal coset representatives (W_I\\W for side='left', W/W_I for 'right').

        Returns (representatives sorted by (length, word), truncated flag).
        max_len bounds the search; it is required for infinite systems.
        """
        mask = self._valid_mask(I)
        if max_len is None:
            if not self.is_finite:
                raise ValueError("max_len is required for an infinite system")
            max_len = 1 << 30
        left = bool(self._offset(side))
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
            layer = sorted(nxt, key=CoxeterElement.sort_key)
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
        """
        jmask, imask = self._valid_mask(J), self._valid_mask(I)
        key = (jmask, imask, max_len)
        cached = self._reps.get(key)
        if cached is not None:
            return cached
        reps, truncated = self.quotient_reps(J, side="left", max_len=max_len)
        regular = tuple(w for w in reps if not w.rdesc & imask and self._is_regular(w, jmask, imask))
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
