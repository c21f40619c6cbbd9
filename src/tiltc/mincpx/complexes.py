"""Bounded complexes of tilting modules, and their minimization.

Objects are formal direct sums of labelled indecomposable modules
``tilts[label]``, the summands stacked in label order at each vertex.  The
differential in degree n is one module map (a ``VMap``) from the sum of
term n to the sum of term n+1; the component between two summands is a
block of it.  The main operation is Gaussian elimination (Bar-Natan 2007):
an invertible same-label component phi of the block matrix
[[phi, delta], [gamma, eps]] is cancelled, leaving the Schur complement
eps - gamma phi^-1 delta.  Repeated, it shrinks a bounded complex to a
homotopy-equivalent one whose differential has no invertible components (a
minimal complex).  Elimination also returns the projection chain map from
the original complex onto the minimal one, one block map per degree, so
that maps into the complex can be transported through the reduction.
"""

from __future__ import annotations

from typing import Mapping, Sequence

from ..errors import InternalInvariantError, ValidationError
from . import linalg
from .linalg import Mat
from .quiver import ModuleRep, VMap

__all__ = [
    "FormalComplex",
    "minimize",
]

Places = list[dict[str, slice]]


def _places(tilts: Mapping[str, ModuleRep], labels: Sequence[str]) -> Places:
    """Per summand of the sum of ``labels``, the rows it takes at each vertex."""
    out: Places = []
    for lab in labels:
        dims = tilts[lab].dims
        last = out[-1] if out else dict.fromkeys(dims, slice(0, 0))
        out.append({v: slice(last[v].stop, last[v].stop + k) for v, k in dims.items()})
    return out


def _component(f: VMap, rows: Mapping[str, slice], cols: Mapping[str, slice]) -> VMap:
    return {v: tuple(line[cols[v]] for line in m[rows[v]]) for v, m in f.items()}


def _after(g: VMap, f: VMap, rows: Mapping[str, int], cols: Mapping[str, int]) -> VMap:
    """g after f, of shape (rows[v], cols[v]) at each vertex v."""
    return {v: linalg.mul_shaped(g[v], f[v], rows[v], cols[v]) for v in rows}


def _drop_rows(m: Mat, s: slice) -> Mat:
    return m[: s.start] + m[s.stop :]


def _drop_cols(m: Mat, s: slice) -> Mat:
    return tuple(line[: s.start] + line[s.stop :] for line in m)


def _cancel(kept: Mat, g: Mat, row: Mat) -> Mat:
    """kept - g @ row, where row has as many columns as kept."""
    cols = len(row[0]) if row else len(kept[0]) if kept else 0
    return linalg.add(kept, linalg.scal(-1, linalg.mul_shaped(g, row, len(kept), cols)))


def _invert(rep: ModuleRep, f: VMap) -> VMap | None:
    """Inverse of an endomorphism f of rep, or None when f is not bijective
    at some vertex."""
    inv: VMap = {}
    for v, m in f.items():
        x = linalg.solve_matrix(m, linalg.ident(rep.dims[v]))
        if x is None:
            return None
        inv[v] = x
    return inv


def _invertible(
    tilts: Mapping[str, ModuleRep],
    terms: Mapping[int, Sequence[str]],
    diffs: Mapping[int, VMap],
    scan: str = "forward",
) -> tuple[int, int, int, VMap] | None:
    """The first invertible same-label component of a differential, in
    ``scan`` order: (degree n, row summand i, column summand j, inverse)."""
    step = 1 if scan == "forward" else -1
    for n in sorted(diffs)[::step]:
        src, tgt = terms[n], terms[n + 1]
        cols, rows = _places(tilts, src), _places(tilts, tgt)
        for i in range(len(tgt))[::step]:
            for j in range(len(src))[::step]:
                if src[j] == tgt[i]:
                    inv = _invert(tilts[src[j]], _component(diffs[n], rows[i], cols[j]))
                    if inv is not None:
                        return n, i, j, inv
    return None


class FormalComplex:
    """A bounded cochain complex of direct sums of labelled modules.

    ``terms[n]`` is the tuple of summand labels in degree n.  ``diffs[n]``
    is the differential terms[n] -> terms[n+1], one module map between the
    sums; it is held for every n with both terms nonzero, and a differential
    not given is zero.
    """

    def __init__(
        self,
        tilts: Mapping[str, ModuleRep],
        terms: Mapping[int, Sequence[str]],
        diffs: Mapping[int, VMap] | None = None,
    ):
        self.tilts = tilts
        self.terms: dict[int, tuple[str, ...]] = {
            n: tuple(labels) for n, labels in terms.items() if labels
        }
        self._places = {n: _places(tilts, labels) for n, labels in self.terms.items()}
        given = diffs or {}
        self.diffs: dict[int, VMap] = {}
        for n in sorted(self.terms):
            if n + 1 in self.terms:
                rows, cols = self.dims(n + 1), self.dims(n)
                self.diffs[n] = given[n] if n in given else {
                    v: linalg.zeros(k, cols[v]) for v, k in rows.items()
                }

    # -- accessors -----------------------------------------------------------------

    def degrees(self) -> list[int]:
        return sorted(self.terms)

    def term(self, n: int) -> tuple[str, ...]:
        return self.terms.get(n, ())

    def dims(self, n: int) -> dict[str, int]:
        """The dimension vector of the sum in a nonzero degree n."""
        return {v: s.stop for v, s in self._places[n][-1].items()}

    def component(self, n: int, i: int, j: int) -> VMap:
        """The map from summand j of term n to summand i of term n+1."""
        return _component(self.diffs[n], self._places[n + 1][i], self._places[n][j])

    def label_counts(self) -> dict[int, dict[str, int]]:
        out: dict[int, dict[str, int]] = {}
        for n, labels in sorted(self.terms.items()):
            counts: dict[str, int] = {}
            for lab in labels:
                counts[lab] = counts.get(lab, 0) + 1
            out[n] = counts
        return out

    def support_interval(self) -> tuple[int, int] | None:
        if not self.terms:
            return None
        degs = self.degrees()
        return degs[0], degs[-1]

    def summary(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for n in self.degrees():
            counts = self.label_counts()[n]
            inner = " + ".join(
                f"{counts[lab]}*{lab}" if counts[lab] > 1 else lab
                for lab in sorted(counts)
            )
            parts.append(f"[{n}: {inner}]")
        return " ".join(parts)

    # -- structure -----------------------------------------------------------------

    def validate(self) -> None:
        for n, d in self.diffs.items():
            rows, cols = self.dims(n + 1), self.dims(n)
            # a matrix with no rows is () whatever its column count
            if d.keys() != rows.keys() or any(
                list(map(len, d[v])) != [cols[v]] * k for v, k in rows.items()
            ):
                raise ValidationError(f"differential at degree {n} has wrong shape")
        for n, d in self.diffs.items():
            if n + 1 not in self.diffs:
                continue
            square = _after(self.diffs[n + 1], d, self.dims(n + 2), self.dims(n))
            if not all(map(linalg.is_zero, square.values())):
                raise InternalInvariantError(
                    f"differential does not square to zero at degree {n}"
                )

    def is_minimal(self) -> bool:
        return _invertible(self.tilts, self.terms, self.diffs) is None


def minimize(
    cpx: FormalComplex, scan: str = "forward"
) -> tuple[FormalComplex, dict[int, VMap]]:
    """Remove invertible same-label differential components by Gaussian
    elimination.

    Returns the reduced complex together with the projection chain map from
    the input complex onto it, one block map per degree, so that incoming
    maps can be transported through the reduction.  ``scan`` chooses the
    order in which candidate components are eliminated ("forward" or
    "backward"); the resulting minimal complex is the same up to isomorphism
    either way.
    """
    if scan not in ("forward", "backward"):
        raise ValidationError(f"unknown scan order {scan!r}")
    tilts = cpx.tilts
    terms = dict(cpx.terms)
    diffs = dict(cpx.diffs)
    pi = {
        n: {v: linalg.ident(k) for v, k in cpx.dims(n).items()} for n in terms
    }

    while cand := _invertible(tilts, terms, diffs, scan):
        n, p, q, phi_inv = cand
        r = _places(tilts, terms[n + 1])[p]
        c = _places(tilts, terms[n])[q]
        # the block matrix [[phi, delta], [gamma, eps]] of d^n, with phi at
        # (p, q), becomes eps - gamma phi^-1 delta; the projection in degree
        # n + 1 becomes (its other rows) - gamma phi^-1 (its row p)
        new_d: VMap = {}
        new_pi: VMap = {}
        for v, m in diffs[n].items():
            below = _drop_rows(m, r[v])
            gamma_phi_inv = linalg.mul_shaped(
                tuple(line[c[v]] for line in below), phi_inv[v], len(below), len(phi_inv[v])
            )
            new_d[v] = _cancel(_drop_cols(below, c[v]), gamma_phi_inv, _drop_cols(m[r[v]], c[v]))
            x = pi[n + 1][v]
            new_pi[v] = _cancel(_drop_rows(x, r[v]), gamma_phi_inv, x[r[v]])
        diffs[n], pi[n + 1] = new_d, new_pi
        pi[n] = {v: _drop_rows(x, c[v]) for v, x in pi[n].items()}
        if n - 1 in diffs:
            diffs[n - 1] = {v: _drop_rows(x, c[v]) for v, x in diffs[n - 1].items()}
        if n + 1 in diffs:
            diffs[n + 1] = {v: _drop_cols(x, r[v]) for v, x in diffs[n + 1].items()}
        terms[n] = terms[n][:q] + terms[n][q + 1 :]
        terms[n + 1] = terms[n + 1][:p] + terms[n + 1][p + 1 :]
        for k in (n, n + 1):
            if not terms[k]:
                del terms[k]
                del pi[k]
        for k in (n - 1, n, n + 1):
            if k in diffs and (k not in terms or k + 1 not in terms):
                del diffs[k]

    out = FormalComplex(tilts, terms, diffs)
    out.validate()
    if not out.is_minimal():
        raise InternalInvariantError("elimination left an invertible entry")
    # the projection must itself be a chain map from the input complex;
    # maps into a zero term agree
    for n in cpx.degrees():
        if n + 1 not in pi:
            continue
        rows, cols = out.dims(n + 1), cpx.dims(n)
        lhs = _after(pi[n + 1], cpx.diffs[n], rows, cols)
        if n in pi:
            rhs = _after(out.diffs[n], pi[n], rows, cols)
        else:
            rhs = {v: linalg.zeros(k, cols[v]) for v, k in rows.items()}
        if lhs != rhs:
            raise InternalInvariantError(
                f"reduction projection is not a chain map at degree {n}"
            )
    return out, pi
