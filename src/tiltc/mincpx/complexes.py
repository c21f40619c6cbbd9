"""Formal complexes over a finitely presented additive category.

Objects are formal direct sums of labelled indecomposables.  A morphism
between single summands is a coordinate vector in a fixed basis of the
relevant hom space; composition is given by a structure tensor.  The main
operation is Gaussian elimination of invertible same-label differential
entries, which shrinks a bounded complex to a homotopy-equivalent one whose
differential has no invertible components (a minimal complex).  Elimination
also returns the projection chain map from the original complex onto the
minimal one, so that maps into the complex can be transported through the
reduction.
"""

from __future__ import annotations

from typing import Mapping, Sequence

from ..errors import InternalInvariantError, ValidationError
from . import linalg

Coords = linalg.Vec
CoordMat = tuple[tuple[Coords, ...], ...]

__all__ = [
    "CategoryPresentation",
    "FormalComplex",
    "minimize",
]


def _as_coords(vec: Sequence) -> Coords:
    return tuple(x if type(x) is int else linalg.exact(x) for x in vec)


def _sub(x: Coords, y: Coords) -> Coords:
    return tuple(a - b for a, b in zip(x, y))


class CategoryPresentation:
    """A finite set of objects with based hom spaces and a composition tensor.

    ``hom_dim[(a, b)]`` is the dimension of Hom(a, b).  The tensor entry
    ``compose[(a, b, c)][i][j]`` holds the coordinates in Hom(a, c) of the
    composite (j-th basis map of Hom(b, c)) after (i-th basis map of
    Hom(a, b)).  ``identity[a]`` holds the coordinates of the identity in
    Hom(a, a).
    """

    def __init__(
        self,
        labels: Sequence[str],
        hom_dim: Mapping[tuple[str, str], int],
        compose: Mapping[tuple[str, str, str], Sequence[Sequence[Sequence]]],
        identity: Mapping[str, Sequence],
    ):
        self.labels = tuple(labels)
        if len(set(self.labels)) != len(self.labels):
            raise ValidationError("duplicate object labels")
        self.hom_dim = {k: int(v) for k, v in hom_dim.items()}
        self.compose_tensor = {
            key: tuple(tuple(_as_coords(vec) for vec in row) for row in tensor)
            for key, tensor in compose.items()
        }
        self.identity = {a: _as_coords(v) for a, v in identity.items()}

    # -- morphism arithmetic ---------------------------------------------------

    def zero(self, a: str, b: str) -> Coords:
        return (0,) * self.hom_dim[(a, b)]

    def comp(self, a: str, b: str, c: str, g: Coords, f: Coords) -> Coords:
        """Composite g after f, where f: a -> b and g: b -> c."""
        tensor = self.compose_tensor[(a, b, c)]
        out = [0] * self.hom_dim[(a, c)]
        for i, fi in enumerate(f):
            if not fi:
                continue
            row = tensor[i]
            for j, gj in enumerate(g):
                if not gj:
                    continue
                vec = row[j]
                coeff = fi * gj
                for k, val in enumerate(vec):
                    if val:
                        out[k] += coeff * val
        return tuple(out)

    def invert(self, a: str, phi: Coords) -> Coords | None:
        """Two-sided inverse of phi in End(a), or None."""
        n = self.hom_dim[(a, a)]
        basis = linalg.ident(n)
        left = linalg.transpose(
            tuple(self.comp(a, a, a, phi, e) for e in basis)
        )
        psi = linalg.solve(left, self.identity[a])
        if psi is None:
            return None
        psi = tuple(psi)
        if self.comp(a, a, a, psi, phi) != self.identity[a]:
            return None
        return psi

    # -- structural validation ---------------------------------------------------

    def _end_radical(self, a: str) -> list[Coords]:
        """Basis of the radical of End(a), via the trace form of left multiplication."""
        n = self.hom_dim[(a, a)]
        basis = linalg.ident(n)

        def left_mult_trace(x: Coords) -> linalg.Scalar:
            return sum(
                self.comp(a, a, a, x, basis[j])[j] for j in range(n)
            )

        gram = tuple(
            tuple(
                left_mult_trace(self.comp(a, a, a, basis[i], basis[j]))
                for j in range(n)
            )
            for i in range(n)
        )
        return [tuple(v) for v in linalg.nullspace(gram)]

    def validate(self) -> None:
        for a in self.labels:
            if (a, a) not in self.hom_dim or self.hom_dim[(a, a)] < 1:
                raise ValidationError(f"End({a}) must be at least one dimensional")
            if len(self.identity.get(a, ())) != self.hom_dim[(a, a)]:
                raise ValidationError(f"identity coordinates of {a} have wrong length")
        for (a, b), d in self.hom_dim.items():
            if d < 0:
                raise ValidationError(f"negative hom dimension for {(a, b)}")
        for (a, b, c), tensor in self.compose_tensor.items():
            if len(tensor) != self.hom_dim[(a, b)] or any(
                len(row) != self.hom_dim[(b, c)] for row in tensor
            ):
                raise ValidationError(f"composition tensor {(a, b, c)} has wrong shape")
            for row in tensor:
                for vec in row:
                    if len(vec) != self.hom_dim[(a, c)]:
                        raise ValidationError(
                            f"composition tensor {(a, b, c)} has wrong entry length"
                        )
        # unit laws
        for (a, b), d in self.hom_dim.items():
            for f in linalg.ident(d):
                if self.comp(a, a, b, f, self.identity[a]) != f:
                    raise InternalInvariantError(f"right unit law fails on Hom({a},{b})")
                if self.comp(a, b, b, self.identity[b], f) != f:
                    raise InternalInvariantError(f"left unit law fails on Hom({a},{b})")
        # associativity on basis triples
        for a in self.labels:
            for b in self.labels:
                for c in self.labels:
                    for d_ in self.labels:
                        for f in linalg.ident(self.hom_dim[(a, b)]):
                            for g in linalg.ident(self.hom_dim[(b, c)]):
                                for h in linalg.ident(self.hom_dim[(c, d_)]):
                                    lhs = self.comp(
                                        a, b, d_, self.comp(b, c, d_, h, g), f
                                    )
                                    rhs = self.comp(
                                        a, c, d_, h, self.comp(a, b, c, g, f)
                                    )
                                    if lhs != rhs:
                                        raise InternalInvariantError(
                                            "composition is not associative on "
                                            f"({a},{b},{c},{d_})"
                                        )
        # each endomorphism algebra is local with a one dimensional quotient
        for a in self.labels:
            rad = self._end_radical(a)
            n = self.hom_dim[(a, a)]
            if n - len(rad) != 1:
                raise ValidationError(
                    f"End({a}) is not local: semisimple quotient has "
                    f"dimension {n - len(rad)}"
                )
            span = list(rad)
            for _ in range(n + 1):
                if not span:
                    break
                new = []
                for x in span:
                    for y in rad:
                        new.append(self.comp(a, a, a, x, y))
                prev_rank = linalg.rank(tuple(span))
                span = [v for v in new if any(v)]
                if linalg.rank(tuple(span)) >= prev_rank and span:
                    raise ValidationError(f"radical of End({a}) is not nilpotent")
            if span:
                raise ValidationError(f"radical of End({a}) is not nilpotent")
        # no isomorphisms between distinct labels: any composite through
        # another object lands in the radical
        for a in self.labels:
            rad = self._end_radical(a)
            flat_rad = [tuple(v) for v in rad]
            for b in self.labels:
                if a == b:
                    continue
                for f in linalg.ident(self.hom_dim[(a, b)]):
                    for g in linalg.ident(self.hom_dim[(b, a)]):
                        comp = self.comp(a, b, a, g, f)
                        if not any(comp):
                            continue
                        if linalg.express_in_span(flat_rad, comp) is None:
                            raise ValidationError(
                                f"found an isomorphism between {a} and {b}"
                            )


def _mat_comp(
    cat: CategoryPresentation,
    src: Sequence[str],
    mid: Sequence[str],
    tgt: Sequence[str],
    a_mat: CoordMat,
    b_mat: CoordMat,
) -> CoordMat:
    """Matrix-of-morphisms product a_mat @ b_mat (b first, then a)."""
    out = []
    for i, t in enumerate(tgt):
        row = []
        for j, s in enumerate(src):
            acc = list(cat.zero(s, t))
            for k, m in enumerate(mid):
                c = cat.comp(s, m, t, a_mat[i][k], b_mat[k][j])
                for idx, val in enumerate(c):
                    acc[idx] += val
            row.append(tuple(acc))
        out.append(tuple(row))
    return tuple(out)


def _zero_mat(
    cat: CategoryPresentation, src: Sequence[str], tgt: Sequence[str]
) -> CoordMat:
    return tuple(tuple(cat.zero(s, t) for s in src) for t in tgt)


def _ident_mat(cat: CategoryPresentation, labels: Sequence[str]) -> CoordMat:
    return tuple(
        tuple(
            cat.identity[s] if i == j else cat.zero(s, t)
            for j, s in enumerate(labels)
        )
        for i, t in enumerate(labels)
    )


class FormalComplex:
    """A bounded cochain complex of formal sums of labelled objects.

    ``terms[n]`` is the tuple of summand labels in degree n.  ``diffs[n]``
    is the matrix of the differential terms[n] -> terms[n+1]; its (i, j)
    entry holds coordinates of the component from summand j of degree n to
    summand i of degree n + 1.
    """

    def __init__(
        self,
        cat: CategoryPresentation,
        terms: Mapping[int, Sequence[str]],
        diffs: Mapping[int, Sequence[Sequence[Sequence]]] | None = None,
    ):
        self.cat = cat
        self.terms: dict[int, tuple[str, ...]] = {
            n: tuple(labels) for n, labels in terms.items() if labels
        }
        self.diffs: dict[int, CoordMat] = {}
        for n, mat in (diffs or {}).items():
            if n in self.terms and (n + 1) in self.terms:
                self.diffs[n] = tuple(
                    tuple(_as_coords(entry) for entry in row) for row in mat
                )

    # -- accessors -----------------------------------------------------------------

    def degrees(self) -> list[int]:
        return sorted(self.terms)

    def term(self, n: int) -> tuple[str, ...]:
        return self.terms.get(n, ())

    def diff(self, n: int) -> CoordMat:
        if n in self.diffs:
            return self.diffs[n]
        return _zero_mat(self.cat, self.term(n), self.term(n + 1))

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
        for n, mat in self.diffs.items():
            src = self.term(n)
            tgt = self.term(n + 1)
            if len(mat) != len(tgt) or any(len(row) != len(src) for row in mat):
                raise ValidationError(f"differential at degree {n} has wrong shape")
            for i, t in enumerate(tgt):
                for j, s in enumerate(src):
                    if len(mat[i][j]) != self.cat.hom_dim[(s, t)]:
                        raise ValidationError(
                            f"differential entry ({n},{i},{j}) has wrong length"
                        )
        for n in self.degrees():
            if (n + 1) not in self.terms or (n + 2) not in self.terms:
                continue
            square = _mat_comp(
                self.cat,
                self.term(n),
                self.term(n + 1),
                self.term(n + 2),
                self.diff(n + 1),
                self.diff(n),
            )
            if any(any(any(e) for e in row) for row in square):
                raise InternalInvariantError(
                    f"differential does not square to zero at degree {n}"
                )

    def is_minimal(self) -> bool:
        for n, mat in self.diffs.items():
            src = self.term(n)
            tgt = self.term(n + 1)
            for i, t in enumerate(tgt):
                for j, s in enumerate(src):
                    if s == t and self.cat.invert(s, mat[i][j]) is not None:
                        return False
        return True


def minimize(
    cpx: FormalComplex, scan: str = "forward"
) -> tuple[FormalComplex, dict[int, CoordMat]]:
    """Remove invertible same-label differential entries by Gaussian elimination.

    Returns the reduced complex together with the projection chain map from
    the input complex onto it, degree by degree, so that incoming maps can
    be transported through the reduction.  ``scan`` chooses the order in
    which candidate entries are eliminated ("forward" or "backward"); the
    resulting minimal complex is the same up to isomorphism either way.
    """
    if scan not in ("forward", "backward"):
        raise ValidationError(f"unknown scan order {scan!r}")
    cat = cpx.cat
    terms: dict[int, list[str]] = {n: list(v) for n, v in cpx.terms.items()}
    diffs: dict[int, list[list[Coords]]] = {}
    for n in list(terms):
        src = terms.get(n, [])
        tgt = terms.get(n + 1, [])
        if src and tgt:
            mat = cpx.diff(n)
            diffs[n] = [list(row) for row in mat]
    pi: dict[int, list[list[Coords]]] = {
        n: [list(row) for row in _ident_mat(cat, labels)]
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
                    t = terms[n + 1][i]
                    if s != t:
                        continue
                    inv = cat.invert(s, mat[i][j])
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
                corr = cat.comp(
                    src[c],
                    label,
                    tgt[r],
                    d_n[r][q],
                    cat.comp(src[c], label, label, phi_inv, d_n[p][c]),
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
                gamma_phi_inv = cat.comp(label, label, tgt[r], d_n[r][q], phi_inv)
                row = []
                for j, lab_j in enumerate(orig_terms[n + 1]):
                    corr = cat.comp(
                        lab_j, label, tgt[r], gamma_phi_inv, pi[n + 1][p][j]
                    )
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

    out = FormalComplex(
        cat,
        {n: tuple(v) for n, v in terms.items()},
        {n: tuple(tuple(row) for row in mat) for n, mat in diffs.items()},
    )
    out.validate()
    if not out.is_minimal():
        raise InternalInvariantError("elimination left an invertible entry")
    pi_out: dict[int, CoordMat] = {
        n: tuple(tuple(row) for row in mat) for n, mat in pi.items()
    }
    # the projection must itself be a chain map from the input complex
    for n in cpx.degrees():
        lhs = _mat_comp(
            cpx.cat,
            cpx.term(n),
            cpx.term(n + 1),
            out.term(n + 1),
            pi_out.get(n + 1, _zero_mat(cat, cpx.term(n + 1), out.term(n + 1))),
            cpx.diff(n),
        )
        rhs = _mat_comp(
            cpx.cat,
            cpx.term(n),
            out.term(n),
            out.term(n + 1),
            out.diff(n),
            pi_out.get(n, _zero_mat(cat, cpx.term(n), out.term(n))),
        )
        if lhs != rhs:
            raise InternalInvariantError(
                f"reduction projection is not a chain map at degree {n}"
            )
    return out, pi_out
