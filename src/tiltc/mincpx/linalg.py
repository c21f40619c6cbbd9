"""Exact linear algebra over the rationals.

Matrices are tuples of row tuples; an (m, n) matrix is a linear map from
n-space to m-space acting on column vectors.  An entry is a Python ``int``
when it is integral and a ``Fraction`` only when it is not, so integer data
never pays for rational arithmetic (the fraction-free idea of Bareiss 1968).
Everything stays exact; there is no floating point anywhere in the oracle.

Every linear question of the oracle goes to one of four eliminations:
``rref`` (an echelon basis of a span, and its pivots), ``rank``,
``nullspace`` (a kernel; its vectors, read as rows, also project onto the
quotient by a span of row vectors, whose basis is the unit vectors at the
free columns) and ``solve_matrix``, which solves a X = b for every column
of b at once.

An (m, n) matrix has m rows of n entries each, with one exception: a
matrix with no rows is the empty tuple ``()`` whatever n is, since that is
the one shape a tuple of rows cannot record.  ``blocks`` assembles block
matrices under this rule, and ``mul_shaped`` takes the result shape from
its caller for products through zero-dimensional spaces.  ``zeros`` and
``ident`` hand out one cached tuple per shape; tuples are immutable, so
sharing them is safe.
"""

from __future__ import annotations

from fractions import Fraction
from operator import add as _plus, mul as _times
from typing import Iterable, Sequence

Scalar = int | Fraction  # int when integral, Fraction otherwise
Vec = tuple[Scalar, ...]
Mat = tuple[Vec, ...]


def exact(x) -> Scalar:
    """x as an exact scalar: an int when it is integral, else a Fraction."""
    if type(x) is int:
        return x
    x = Fraction(x)
    return x.numerator if x.denominator == 1 else x


def _exact_row(row: Vec) -> Vec:
    """A computed row with its integral Fractions turned back into ints;
    the row itself when it met none."""
    for x in row:
        if type(x) is not int:
            return tuple(x.numerator if type(x) is Fraction and x.denominator == 1 else x for x in row)
    return row


def mat(rows: Iterable[Iterable]) -> Mat:
    return tuple(
        tuple(x if type(x) is int else exact(x) for x in row) for row in rows
    )


_ZEROS: dict[tuple[int, int], Mat] = {}
_IDENT: dict[int, Mat] = {}


def zeros(m: int, n: int) -> Mat:
    if (m, n) not in _ZEROS:
        _ZEROS[m, n] = ((0,) * n,) * m
    return _ZEROS[m, n]


def ident(n: int) -> Mat:
    if n not in _IDENT:
        _IDENT[n] = tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))
    return _IDENT[n]


def shape(a: Mat) -> tuple[int, int]:
    return (len(a), len(a[0]) if a else 0)


def is_zero(a: Mat) -> bool:
    return all(x == 0 for row in a for x in row)


def add(a: Mat, b: Mat) -> Mat:
    if list(map(len, a)) != list(map(len, b)):
        raise ValueError(f"cannot add {shape(a)} and {shape(b)}")
    return tuple(_exact_row(tuple(map(_plus, r, s))) for r, s in zip(a, b))


def scal(c, a: Mat) -> Mat:
    c = exact(c)
    return tuple(_exact_row(tuple([c * x for x in row])) for row in a)


def mul_shaped(a: Mat, b: Mat, rows: int, cols: int) -> Mat:
    """Product a @ b of shape (rows, cols), supplied by the caller.

    a @ b is the composite 'b first, then a'.  A zero-row matrix is ``()``
    and does not record its column count, so a composite through a
    zero-dimensional space (b with no rows, hence a with no columns) cannot
    read its shape off its factors.  Factors whose shapes are not (rows, k)
    and (k, cols) raise ValueError.
    """
    inner = len(b)
    if len(a) != rows or (a and len(a[0]) != inner) or (b and len(b[0]) != cols):
        raise ValueError(f"cannot multiply {shape(a)} @ {shape(b)} to {(rows, cols)}")
    if not (rows and cols and inner):
        return zeros(rows, cols)
    b_cols = tuple(zip(*b))
    return tuple(
        _exact_row(tuple([sum(map(_times, row, col)) for col in b_cols])) for row in a
    )


def blocks(
    grid: Sequence[Sequence[Mat | None]], rows: Sequence[int], cols: Sequence[int]
) -> Mat:
    """Block matrix whose block (i, j) is grid[i][j], of shape (rows[i], cols[j]).

    ``None`` stands for a zero block.  A block of any other shape raises
    ValueError; the zero-row block ``()`` fits every column count.
    """
    if len(grid) != len(rows) or any(len(line) != len(cols) for line in grid):
        raise ValueError(f"block grid does not have {len(rows)}x{len(cols)} blocks")
    out: list[Vec] = []
    for i, (line, m) in enumerate(zip(grid, rows)):
        parts = []
        for j, (blk, n) in enumerate(zip(line, cols)):
            if blk is None:
                blk = ((0,) * n,) * m
            elif list(map(len, blk)) != [n] * m:
                raise ValueError(
                    f"block ({i}, {j}) has shape {shape(blk)}, expected {(m, n)}"
                )
            parts.append(blk)
        if parts:
            out.extend(sum(pieces, ()) for pieces in zip(*parts))
        else:
            out.extend(((),) * m)
    return tuple(out)


def apply(a: Mat, v: Vec) -> Vec:
    return _exact_row(tuple([sum(map(_times, row, v)) for row in a]))


def transpose(a: Mat) -> Mat:
    return tuple(zip(*a))


def rref(a: Mat) -> tuple[Mat, tuple[int, ...]]:
    """Reduced row echelon form and the pivot column indices.

    A pivot of 1 or -1 needs no division, so integer rows stay integer; rows
    that did meet a Fraction are normalized back to ints where they can be.
    """
    m, n = shape(a)
    rows = [[x if type(x) is int else exact(x) for x in row] for row in a]
    pivots: list[int] = []
    r = 0
    for c in range(n):
        for pivot in range(r, m):
            if rows[pivot][c]:
                break
        else:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        p = rows[r][c]
        if p == -1:
            rows[r] = [-x for x in rows[r]]
        elif p != 1:
            inv = Fraction(1, p) if type(p) is int else 1 / p
            rows[r] = _exact_row([x * inv for x in rows[r]])
        prow = rows[r]
        integral = all(type(x) is int for x in prow)
        for i in range(m):
            f = rows[i][c]
            if i != r and f != 0:
                new = [x - f * y for x, y in zip(rows[i], prow)]
                rows[i] = new if integral and type(f) is int else _exact_row(new)
        pivots.append(c)
        r += 1
        if r == m:
            break
    return tuple(tuple(row) for row in rows), tuple(pivots)


def rank(a: Mat) -> int:
    return len(rref(a)[1])


def nullspace(a: Mat) -> list[Vec]:
    """Basis of {v : a v = 0}, one vector per free column."""
    n = shape(a)[1]
    r, pivots = rref(a)
    pivot_set = set(pivots)
    basis = []
    for free in range(n):
        if free in pivot_set:
            continue
        v = [0] * n
        v[free] = 1
        for row_idx, pc in enumerate(pivots):
            v[pc] = -r[row_idx][free]
        basis.append(tuple(v))
    return basis


def solve_matrix(a: Mat, b: Mat) -> Mat | None:
    """X with a X = b, or None if some column of b is not in the column
    space of a.

    a is (m, n) and b is (m, k); every column of b is solved in one
    elimination of [a | b], with the free unknowns set to zero.  A column of
    b is outside the column space exactly when [a | b] has a pivot there.
    A zero-row a is ``()`` and records no n, so it gives ``()``.
    """
    n = shape(a)[1]
    if len(b) != len(a):
        raise ValueError(f"cannot solve {shape(a)} against {shape(b)}")
    r, pivots = rref(tuple(row + rhs for row, rhs in zip(a, b)))
    if pivots and pivots[-1] >= n:
        return None
    k = len(b[0]) if b else 0
    x = [(0,) * k] * n
    for row, pc in zip(r, pivots):
        x[pc] = row[n:]
    return tuple(x)
