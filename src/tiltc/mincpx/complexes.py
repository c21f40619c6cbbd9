"""Bounded complexes of tilting modules, and their minimization.

Objects are formal direct sums of labelled indecomposable modules
``tilts[label]``.  A morphism between single summands is a module map (a
``VMap``), composed vertexwise.  The main operation is Gaussian elimination
of invertible same-label differential entries, which shrinks a bounded
complex to a homotopy-equivalent one whose differential has no invertible
components (a minimal complex).  Elimination also returns the projection
chain map from the original complex onto the minimal one, so that maps into
the complex can be transported through the reduction.
"""

from __future__ import annotations

from itertools import accumulate
from typing import Mapping, Sequence

from ..errors import InternalInvariantError, ValidationError
from . import linalg
from .quiver import ModuleRep, VMap, vmap_compose, vmap_ident, vmap_zero

# a morphism between sums: entry (i, j) maps summand j to summand i
Grid = Sequence[Sequence[VMap]]

__all__ = [
    "FormalComplex",
    "assemble",
    "minimize",
    "split",
]


def _vertices(tilts: Mapping[str, ModuleRep]) -> tuple[str, ...]:
    return next(iter(tilts.values())).algebra.vertices


def _sizes(tilts: Mapping[str, ModuleRep], labels: Sequence[str], v: str) -> list[int]:
    return [tilts[lab].dims[v] for lab in labels]


def assemble(
    tilts: Mapping[str, ModuleRep],
    srcs: Sequence[str],
    tgts: Sequence[str],
    grid: Grid,
) -> VMap:
    """The map between the sums of ``srcs`` and of ``tgts`` with components
    ``grid``; a component of the wrong shape raises ValueError."""
    return {
        v: linalg.blocks(
            [[f[v] for f in row] for row in grid],
            _sizes(tilts, tgts, v),
            _sizes(tilts, srcs, v),
        )
        for v in _vertices(tilts)
    }


def split(
    tilts: Mapping[str, ModuleRep],
    srcs: Sequence[str],
    tgts: Sequence[str],
    f: VMap,
) -> list[list[VMap]]:
    """The components of a map between the sums of ``srcs`` and of ``tgts``;
    the inverse of ``assemble``."""
    vertices = _vertices(tilts)
    rows = {v: list(accumulate(_sizes(tilts, tgts, v), initial=0)) for v in vertices}
    cols = {v: list(accumulate(_sizes(tilts, srcs, v), initial=0)) for v in vertices}
    return [
        [
            {
                v: tuple(
                    line[cols[v][j] : cols[v][j + 1]]
                    for line in f[v][rows[v][i] : rows[v][i + 1]]
                )
                for v in vertices
            }
            for j in range(len(srcs))
        ]
        for i in range(len(tgts))
    ]


def _compose_sums(
    tilts: Mapping[str, ModuleRep],
    srcs: Sequence[str],
    tgts: Sequence[str],
    g: VMap,
    f: VMap,
) -> VMap:
    """g after f, from the sum of ``srcs`` to the sum of ``tgts``."""
    return {
        v: linalg.mul_shaped(
            g[v], f[v], sum(_sizes(tilts, tgts, v)), sum(_sizes(tilts, srcs, v))
        )
        for v in _vertices(tilts)
    }


def _sub(f: VMap, g: VMap) -> VMap:
    return {v: linalg.add(m, linalg.scal(-1, g[v])) for v, m in f.items()}


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


class FormalComplex:
    """A bounded cochain complex of direct sums of labelled modules.

    ``terms[n]`` is the tuple of summand labels in degree n.  ``diffs[n]``
    is the matrix of the differential terms[n] -> terms[n+1]; its (i, j)
    entry is the module map tilts[terms[n][j]] -> tilts[terms[n+1][i]].
    """

    def __init__(
        self,
        tilts: Mapping[str, ModuleRep],
        terms: Mapping[int, Sequence[str]],
        diffs: Mapping[int, Grid] | None = None,
    ):
        self.tilts = tilts
        self.terms: dict[int, tuple[str, ...]] = {
            n: tuple(labels) for n, labels in terms.items() if labels
        }
        self.diffs: dict[int, tuple[tuple[VMap, ...], ...]] = {
            n: tuple(tuple(row) for row in mat)
            for n, mat in (diffs or {}).items()
            if n in self.terms and (n + 1) in self.terms
        }
        self._blocks: dict[int, VMap] = {}

    # -- accessors -----------------------------------------------------------------

    def degrees(self) -> list[int]:
        return sorted(self.terms)

    def term(self, n: int) -> tuple[str, ...]:
        return self.terms.get(n, ())

    def diff(self, n: int) -> Grid:
        if n in self.diffs:
            return self.diffs[n]
        return tuple(
            tuple(vmap_zero(self.tilts[s], self.tilts[t]) for s in self.term(n))
            for t in self.term(n + 1)
        )

    def block(self, n: int) -> VMap:
        """The differential at degree n as one map between the sums.

        Assembled once per complex and shared, so callers must not mutate it.
        """
        b = self._blocks.get(n)
        if b is None:
            b = self._blocks[n] = assemble(self.tilts, self.term(n), self.term(n + 1), self.diff(n))
        return b

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
        blocks: dict[int, VMap] = {}
        for n in self.diffs:
            try:
                blocks[n] = self.block(n)
            except ValueError as exc:
                raise ValidationError(
                    f"differential at degree {n} has wrong shape"
                ) from exc
        for n in self.diffs:
            if n + 1 not in blocks:
                continue
            square = _compose_sums(
                self.tilts, self.term(n), self.term(n + 2), blocks[n + 1], blocks[n]
            )
            if not all(map(linalg.is_zero, square.values())):
                raise InternalInvariantError(
                    f"differential does not square to zero at degree {n}"
                )

    def is_minimal(self) -> bool:
        for n, mat in self.diffs.items():
            for t, row in zip(self.term(n + 1), mat):
                for s, f in zip(self.term(n), row):
                    if s == t and _invert(self.tilts[s], f) is not None:
                        return False
        return True


def minimize(
    cpx: FormalComplex, scan: str = "forward"
) -> tuple[FormalComplex, dict[int, Grid]]:
    """Remove invertible same-label differential entries by Gaussian elimination.

    Returns the reduced complex together with the projection chain map from
    the input complex onto it, degree by degree, so that incoming maps can
    be transported through the reduction.  ``scan`` chooses the order in
    which candidate entries are eliminated ("forward" or "backward"); the
    resulting minimal complex is the same up to isomorphism either way.
    """
    if scan not in ("forward", "backward"):
        raise ValidationError(f"unknown scan order {scan!r}")
    tilts = cpx.tilts

    def comp(g: VMap, f: VMap, a: str, c: str) -> VMap:
        """g after f, where f starts at tilt_a and g ends at tilt_c."""
        return vmap_compose(g, f, tilts[a], tilts[c])

    terms: dict[int, list[str]] = {n: list(v) for n, v in cpx.terms.items()}
    diffs: dict[int, list[list[VMap]]] = {
        n: [list(row) for row in cpx.diff(n)] for n in terms if n + 1 in terms
    }
    pi: dict[int, list[list[VMap]]] = {
        n: [
            [
                vmap_ident(tilts[s]) if i == j else vmap_zero(tilts[s], tilts[t])
                for j, s in enumerate(labels)
            ]
            for i, t in enumerate(labels)
        ]
        for n, labels in terms.items()
    }
    orig_terms = {n: tuple(v) for n, v in terms.items()}

    def find_candidate():
        degs = sorted(diffs)
        if scan == "backward":
            degs = degs[::-1]
        for n in degs:
            mat = diffs[n]
            rows = range(len(mat))
            if scan == "backward":
                rows = reversed(rows)
            for i in rows:
                cols = range(len(mat[i]))
                if scan == "backward":
                    cols = reversed(cols)
                for j in cols:
                    s = terms[n][j]
                    if s != terms[n + 1][i]:
                        continue
                    inv = _invert(tilts[s], mat[i][j])
                    if inv is not None:
                        return n, i, j, inv
        return None

    while True:
        cand = find_candidate()
        if cand is None:
            break
        n, p, q, phi_inv = cand
        label = terms[n][q]
        d_n = diffs[n]
        src = terms[n]
        tgt = terms[n + 1]
        keep_src = [j for j in range(len(src)) if j != q]
        keep_tgt = [i for i in range(len(tgt)) if i != p]
        # Schur complement on the surviving block of d_n
        new_dn = []
        for r in keep_tgt:
            row = []
            for c in keep_src:
                corr = comp(
                    d_n[r][q], comp(phi_inv, d_n[p][c], src[c], label), src[c], tgt[r]
                )
                row.append(_sub(d_n[r][c], corr))
            new_dn.append(row)
        # transport the projection: at degree n drop the q-row; at degree
        # n + 1 subtract gamma o phi^{-1} o (row p) and drop the p-row
        if n in pi:
            pi[n] = [pi[n][c] for c in keep_src]
        if (n + 1) in pi:
            new_rows = []
            for r in keep_tgt:
                gamma_phi_inv = comp(d_n[r][q], phi_inv, label, tgt[r])
                row = []
                for j, lab_j in enumerate(orig_terms[n + 1]):
                    corr = comp(gamma_phi_inv, pi[n + 1][p][j], lab_j, tgt[r])
                    row.append(_sub(pi[n + 1][r][j], corr))
                new_rows.append(row)
            pi[n + 1] = new_rows
        if n - 1 in diffs:
            diffs[n - 1] = [diffs[n - 1][r] for r in keep_src]
        if n + 1 in diffs:
            diffs[n + 1] = [
                [row[c] for c in keep_tgt] for row in diffs[n + 1]
            ]
        diffs[n] = new_dn
        terms[n] = [src[j] for j in keep_src]
        terms[n + 1] = [tgt[i] for i in keep_tgt]
        for m in (n, n + 1):
            if not terms[m]:
                del terms[m]
                pi.pop(m, None)
        for m in (n - 1, n, n + 1):
            if m in diffs and (
                m not in terms or (m + 1) not in terms or not diffs[m]
            ):
                del diffs[m]

    out = FormalComplex(tilts, terms, diffs)
    out.validate()
    if not out.is_minimal():
        raise InternalInvariantError("elimination left an invertible entry")
    pi_out: dict[int, Grid] = {
        n: tuple(tuple(row) for row in mat) for n, mat in pi.items()
    }
    # the projection must itself be a chain map from the input complex
    degs = cpx.degrees()
    pi_sums = {
        n: assemble(tilts, cpx.term(n), out.term(n), pi_out.get(n, ()))
        for n in {*degs, *(n + 1 for n in degs)}
    }
    for n in degs:
        src, tgt = cpx.term(n), out.term(n + 1)
        lhs = _compose_sums(tilts, src, tgt, pi_sums[n + 1], cpx.block(n))
        rhs = _compose_sums(tilts, src, tgt, out.block(n), pi_sums[n])
        if lhs != rhs:
            raise InternalInvariantError(
                f"reduction projection is not a chain map at degree {n}"
            )
    return out, pi_out
