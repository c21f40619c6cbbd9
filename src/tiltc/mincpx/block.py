"""Exact realization of a block and the brute-force complex builder.

A ``.block`` file presents a finite-dimensional quiver algebra with
relations, a poset of labels, and explicit matrices for six module roles
per label: ``simple``, ``std`` (standard), ``costd`` (costandard),
``tilt`` (indecomposable tilting), ``proj`` (projective cover) and
``inj`` (injective hull).  All computations happen over exact rationals.

A bounded complex of tilting modules holds each differential as one module
map between the sums of its terms; hom bases between the tilting modules
serve the approximations, the radical maps and the coordinates of the
components a caller may print.  ``cmin_module`` rebuilds the minimal
tilting complex of any module from first principles in one sweep up its
minimal projective resolution: embed the current module in its minimal left
add(T)-approximation (Ringel 1991, read off hom bases), push the rest
forward onto the next projective, go on with plain cokernels once the
projectives run out, and strip invertible same-label components by Gaussian
elimination on the block matrix of each differential.
Every step carries exact witnesses (each approximation is injective with a
standard-filtered cokernel; the comparison map passes its chain-map
identities and its cone is acyclic by vertexwise rank counting), so the
resulting graded multiplicities are independent of, and a check on, the
closed formulas in :mod:`tiltc.tilting`.

``ModuleRep`` is interned per algebra, so equal contents (the dimension
vector and the arrow matrices) are one object: equal declared roles
(``std_e``, ``simple_e``, ``costd_e`` and ``tilt_e`` of sl2), kernels,
cokernels, pushouts and resolution terms alike.  Within one
``verify_block`` call, work is done once per content, through the one memo
of :mod:`tiltc.mincpx.linalg`: a ``TiltingCategory`` keeps its direct sums
of tilting modules, the checked approximation of each module (so a
projective is approximated once however many resolutions end in it), the
sweep, which both scan orders of the elimination share, and the minimal
complex per module and scan order.  The results go when the call returns
or raises, so two verifications share none, and a library call outside one
keeps nothing.

``verify_block`` runs nine invariant suites over a named block and raises
on the first violated invariant.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from importlib import resources
from typing import Mapping, Sequence

from ..coxeter import parse_word
from ..errors import InternalInvariantError, ValidationError
from . import linalg
from .complexes import FormalComplex, minimize
from .quiver import (
    AlgebraPresentation,
    ModuleRep,
    VMap,
    cokernel_rep,
    direct_sum,
    ext_dims,
    flat_columns,
    flatten_vmap,
    hom_basis,
    kernel_rep,
    minimal_projective_resolution,
    projective_cover,
    vmap_compose,
    vmap_ident,
    vmap_zero,
)

ROLES = ("simple", "std", "costd", "tilt", "proj", "inj")

_SWEEP_GUARD = 20  # most steps of the sweep past degree 0
_EXT_BOUND = 4  # highest Ext degree checked against costandards in suite 2

SUITE_NAMES = (
    "presentation",
    "highest-weight axioms",
    "minimal complexes",
    "elimination uniqueness",
    "summand bounds",
    "triangle bounds",
    "no gaps",
    "homological dimensions",
    "formula agreement",
)

__all__ = [
    "BlockData",
    "TiltingCategory",
    "SUITE_NAMES",
    "cmin_module",
    "load_block",
    "parse_block_text",
    "verify_block",
]


# -- block files -------------------------------------------------------------------


@dataclass(frozen=True)
class BlockData:
    """A parsed block: algebra, label poset and the six module roles."""

    name: str
    algebra: AlgebraPresentation
    labels: tuple[str, ...]
    leq: frozenset[tuple[str, str]]
    modules: Mapping[str, ModuleRep]
    system: str | None
    words: Mapping[str, str]

    def module(self, role: str, label: str) -> ModuleRep:
        return self.modules[f"{role}_{label}"]


def _poset_closure(
    labels: Sequence[str], covers: Sequence[tuple[str, str]]
) -> frozenset[tuple[str, str]]:
    leq = {(a, a) for a in labels}
    leq |= set(covers)
    changed = True
    while changed:
        changed = False
        for a, b in list(leq):
            for c, d in list(leq):
                if b == c and (a, d) not in leq:
                    leq.add((a, d))
                    changed = True
    for a in labels:
        for b in labels:
            if a != b and (a, b) in leq and (b, a) in leq:
                raise ValidationError(f"label order has a cycle through {a} and {b}")
    return frozenset(leq)


def parse_block_text(text: str, name: str = "block") -> BlockData:
    section = None
    system: str | None = None
    words: dict[str, str] = {}
    vertices: list[str] = []
    arrows: list[tuple[str, str, str]] = []
    relations: list[str] = []
    covers: list[tuple[str, str]] = []
    module_specs: dict[str, dict] = {}
    cur: dict | None = None
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            section = line[1:-1].strip().lower()
            cur = None
            if section not in ("meta", "quiver", "relations", "poset", "modules"):
                raise ValidationError(f"{name}: unknown section [{section}]")
            continue
        if section is None:
            raise ValidationError(f"{name}: content before the first section")
        if section == "meta":
            key, eq, val = line.partition("=")
            key, val = key.strip(), val.strip()
            if not eq:
                raise ValidationError(f"{name}: bad meta line {line!r}")
            if key == "system":
                system = val
            elif key.startswith("label "):
                words[key[6:].strip()] = val
            else:
                raise ValidationError(f"{name}: unknown meta key {key!r}")
        elif section == "quiver":
            key, eq, val = line.partition("=")
            key, val = key.strip(), val.strip()
            if key == "vertices":
                vertices = val.split()
            elif key.startswith("arrow "):
                src, sep, tgt = val.partition("->")
                if not sep:
                    raise ValidationError(f"{name}: bad arrow line {line!r}")
                arrows.append((key[6:].strip(), src.strip(), tgt.strip()))
            else:
                raise ValidationError(f"{name}: unknown quiver key {key!r}")
        elif section == "relations":
            relations.append(line)
        elif section == "poset":
            a, sep, b = line.partition("<")
            if not sep:
                raise ValidationError(f"{name}: bad poset line {line!r}")
            covers.append((a.strip(), b.strip()))
        elif section == "modules":
            if line.startswith("module "):
                mod_name = line[7:].strip()
                if mod_name in module_specs:
                    raise ValidationError(f"{name}: duplicate module {mod_name!r}")
                cur = {"dims": {}, "mats": {}}
                module_specs[mod_name] = cur
            else:
                if cur is None:
                    raise ValidationError(f"{name}: module data before a module line")
                key, eq, val = line.partition("=")
                key, val = key.strip(), val.strip()
                if not key.startswith(("dim ", "map ")):
                    raise ValidationError(f"{name}: bad module line {line!r}")
                try:
                    if key.startswith("dim "):
                        cur["dims"][key[4:].strip()] = int(val)
                    else:
                        # bracketed integer rows; json.loads, unlike
                        # ast.literal_eval, leaves no cyclic garbage
                        rows = json.loads(val)
                        if not all(type(x) is int for row in rows for x in row):
                            raise ValueError("matrix entries must be integers")
                        cur["mats"][key[4:].strip()] = linalg.mat(rows)
                except (ValueError, TypeError, RecursionError) as exc:
                    raise ValidationError(f"{name}: bad module line {line!r}") from exc
    if not vertices:
        raise ValidationError(f"{name}: no vertices declared")
    algebra = AlgebraPresentation(vertices, arrows, relations)
    labels = tuple(vertices)
    for lab, word in words.items():
        if lab not in labels:
            raise ValidationError(f"{name}: meta label {lab!r} is not a vertex")
        try:
            parse_word(word)
        except ValueError as exc:
            raise ValidationError(
                f"{name}: bad word {word!r} for label {lab!r}"
            ) from exc
    if system is not None:
        for lab in labels:
            if lab not in words:
                raise ValidationError(f"{name}: label {lab!r} has no word in [meta]")
    for a, b in covers:
        if a not in labels or b not in labels:
            raise ValidationError(f"{name}: poset uses unknown label")
    leq = _poset_closure(labels, covers)
    # equal declared modules (std_e and simple_e of sl2, say) are one
    # interned object, validated once
    modules: dict[str, ModuleRep] = {}
    for mod_name, spec in module_specs.items():
        modules[mod_name] = ModuleRep(algebra, spec["dims"], spec["mats"])
        modules[mod_name].validate()
    for role in ROLES:
        for lab in labels:
            if f"{role}_{lab}" not in modules:
                raise ValidationError(f"{name}: missing module {role}_{lab}")
    return BlockData(
        name=name,
        algebra=algebra,
        labels=labels,
        leq=leq,
        modules=modules,
        system=system,
        words=words,
    )


def load_block(name: str) -> BlockData:
    """Load a bundled block presentation by name (e.g. ``"sl2"``): the stem
    of a ``.block`` file in :mod:`tiltc.blocks`.  Any other name, a path
    among them, raises ValidationError."""
    bundled = resources.files("tiltc.blocks")
    file = f"{name}.block"
    if file not in {entry.name for entry in bundled.iterdir()}:
        raise ValidationError(f"no bundled block named {name!r}")
    return parse_block_text(bundled.joinpath(file).read_text(), name=name)


# -- the tilting modules ------------------------------------------------------------


def _independent(maps: Sequence[VMap], order: Sequence[str]) -> list[VMap]:
    """The maps that are not combinations of earlier ones (zero maps drop)."""
    flat = tuple(flatten_vmap(f, order) for f in maps)
    return [maps[p] for p in linalg.rref(linalg.transpose(flat))[1]]


def _trace(f: VMap) -> linalg.Scalar:
    return sum(m[i][i] for m in f.values() for i in range(len(m)))


def _trace_free(f: VMap, T: ModuleRep) -> VMap:
    """f - (tr f / dim T) id, for an endomorphism f of T."""
    c = Fraction(-_trace(f), T.total_dim)
    return {
        v: linalg.add(m, linalg.scal(c, linalg.ident(T.dims[v]))) for v, m in f.items()
    }


class TiltingCategory:
    """Hom bases between the tilting modules of a block, and their radicals."""

    def __init__(self, block: BlockData):
        self.block = block
        self.algebra = block.algebra
        self.labels = block.labels
        self.tilts = {lab: block.module("tilt", lab) for lab in self.labels}
        order = self.algebra.vertices
        self.basis: dict[tuple[str, str], list[VMap]] = {
            (a, b): hom_basis(self.tilts[a], self.tilts[b])
            for a in self.labels
            for b in self.labels
        }
        # radical maps tilt_b -> tilt_a: every map when b != a.  When End(tilt_a)
        # is local, its radical is spanned by the trace-free parts
        # f - (tr f / dim tilt_a) id of its basis maps (nilpotents have trace 0)
        self._radical: dict[tuple[str, str], list[VMap]] = {
            (b, a): self.basis[(b, a)]
            for a in self.labels
            for b in self.labels
            if a != b
        }
        for a in self.labels:
            self._radical[(a, a)] = _independent(
                [_trace_free(f, self.tilts[a]) for f in self.basis[(a, a)]], order
            )
        self._costd_sum = direct_sum(
            [block.module("costd", lab) for lab in self.labels]
        )
        # the standard dimension vectors count the standard factors of a
        # standard-filtered module, which bound its approximation
        self._std_dims = [
            tuple(block.module("std", lab).dims[v] for v in order) for lab in self.labels
        ]

    def validate(self) -> None:
        """Each End(tilt_a) is local, and distinct labels have non-isomorphic
        tilting modules; raises ValidationError otherwise."""
        order = self.algebra.vertices
        for a in self.labels:
            T = self.tilts[a]
            if not self.basis[(a, a)]:
                raise ValidationError(f"End({a}) must be at least one dimensional")
            # End(tilt_a) is local exactly when its trace-free maps (codimension
            # one) generate a nilpotent ideal, that is, when every product of
            # dim tilt_a of them vanishes; each round keeps a basis of the span
            rad = span = self._radical[(a, a)]
            for _ in range(T.total_dim - 1):
                span = _independent(
                    [vmap_compose(x, y, T, T) for x in span for y in rad], order
                )
            if span:
                raise ValidationError(
                    f"End({a}) is not local: its trace-free maps are not nilpotent"
                )
        # in a local End(tilt_a) a map is invertible exactly when its trace is
        # not zero, so no composite tilt_a -> tilt_b -> tilt_a may have one
        for a in self.labels:
            for b in self.labels:
                if a != b and any(
                    _trace(vmap_compose(g, f, self.tilts[a], self.tilts[a]))
                    for f in self.basis[(a, b)]
                    for g in self.basis[(b, a)]
                ):
                    raise ValidationError(f"found an isomorphism between {a} and {b}")

    def minimal_complex(
        self, M: ModuleRep, scan: str = "forward"
    ) -> tuple[FormalComplex, dict[int, VMap]]:
        """``cmin_module`` of M, with its witnesses.

        Callers must not mutate the result.
        """
        return _complex(self, M, scan)

    @linalg._keep
    def sum_rep(self, labels: tuple[str, ...]) -> ModuleRep:
        """Direct sum of tilting modules."""
        if not labels:
            return ModuleRep(self.algebra, {})
        return direct_sum([self.tilts[lab] for lab in labels])

    def coordinatize(self, a: str, b: str, f: VMap) -> linalg.Vec:
        """Coordinates of f: tilt_a -> tilt_b in the basis of Hom(tilt_a, tilt_b)."""
        order = self.algebra.vertices
        rows = sum(self.tilts[a].dims[v] * self.tilts[b].dims[v] for v in order)
        coords = linalg.solve_matrix(
            flat_columns(self.basis[(a, b)], order, rows), flat_columns([f], order, rows)
        )
        if coords is None:
            raise InternalInvariantError(
                f"map is not in the span of Hom(tilt_{a}, tilt_{b})"
            )
        return tuple(row[0] for row in coords)


# -- the sweep: approximations and pushouts -------------------------------------------

# (labels of T, f: X -> T, coker f, projection T -> coker f)
_Approximation = tuple[tuple[str, ...], VMap, ModuleRep, VMap]
# (complex, kappa[n]: P_(-n) -> T^n, resolution terms, resolution differentials)
_Sweep = tuple[FormalComplex, dict[int, VMap], list[ModuleRep], list[VMap]]


def _approximation(
    tcat: TiltingCategory, M: ModuleRep
) -> tuple[tuple[str, ...], VMap]:
    """Minimal left add(T)-approximation M -> T^0 (Ringel 1991).

    T_a appears once for each map in a complement, inside Hom(M, T_a), of the
    composites M -> T_b -> T_a through a radical map; the complement is read
    off the pivots of one rref per label, with the composites ranked first.
    """
    order = tcat.algebra.vertices
    homs = {b: hom_basis(M, tcat.tilts[b]) for b in tcat.labels}
    labels: list[str] = []
    rows: dict[str, list[linalg.Vec]] = {v: [] for v in order}
    for a in tcat.labels:
        if not homs[a]:
            continue
        through_rad = [
            flatten_vmap(vmap_compose(h, g, M, tcat.tilts[a]), order)
            for b in tcat.labels
            for g in homs[b]
            for h in tcat._radical[(b, a)]
        ]
        flat = through_rad + [flatten_vmap(g, order) for g in homs[a]]
        _, pivots = linalg.rref(linalg.transpose(tuple(flat)))
        for p in pivots:
            if p >= len(through_rad):
                g = homs[a][p - len(through_rad)]
                labels.append(a)
                for v in order:
                    rows[v].extend(g[v])
    return tuple(labels), {v: tuple(rows[v]) for v in order}


@linalg._keep
def _checked_approximation(tcat: TiltingCategory, X: ModuleRep) -> _Approximation:
    """The approximation f: X -> T of a standard-filtered X, checked, with its
    cokernel.

    f must be injective with a standard-filtered cokernel (Ext^1 against the
    sum of the costandards vanishes).  A size bound: the minimal
    approximation is a summand of the sum of T(l) over the standard factors
    D(l) of X, so it has at most as many summands as X has standard factors,
    read off its dimension vector.  A non-minimal approximation fails here,
    at its first step, instead of growing at every later one.
    """
    order = tcat.algebra.vertices
    labels, f = _approximation(tcat, X)
    factors = linalg.solve_matrix(
        linalg.transpose(tcat._std_dims), tuple((X.dims[v],) for v in order)
    )
    if factors is None:
        raise InternalInvariantError(
            "a dimension vector is not a combination of standard ones"
        )
    bound = sum(row[0] for row in factors)
    if len(labels) > bound:
        raise InternalInvariantError(
            f"an add(T)-approximation has {len(labels)} summands, "
            f"more than the bound {bound}"
        )
    T = tcat.sum_rep(labels)
    if any(linalg.rank(f[v]) != X.dims[v] for v in order):
        raise InternalInvariantError("the add(T)-approximation is not injective")
    C, proj, _ = cokernel_rep(f, X, T)
    if not C.is_zero() and ext_dims(C, tcat._costd_sum, 1)[1]:
        raise InternalInvariantError(
            "the add(T)-approximation has a cokernel that is not standard-filtered"
        )
    return labels, f, C, proj


@linalg._keep
def _sweep(tcat: TiltingCategory, M: ModuleRep) -> _Sweep:
    """A tilting complex of M, not yet minimal, with its comparison map from
    the minimal projective resolution P_m -> ... -> P_0 of M.  Callers must
    not mutate the result.

    X starts as P_m in degree k = -m.  At each k, f: X -> T^k is the checked
    approximation, the differential T^(k-1) -> T^k is f after T^(k-1) -> X,
    and kappa[k] is f after P_(-k) -> X.  Then X becomes the pushout
    coker((f, -d): X -> T^k + P_(-k-1)), where d: X -> P_(-k-1) is the
    resolution differential read through a section of the last pushout.  The
    pushout is an extension of coker f by P_(-k-1), so standard-filtered
    again.  Past degree 0 there is no P and X is coker f, so the tail is a
    tilting coresolution; the sweep stops when X is zero.  Each pushout
    square is exact, so the complex is quasi-isomorphic to M.
    """
    res_terms, res_diffs, _ = minimal_projective_resolution(M)
    projs = [P for P, _ in res_terms]
    order = tcat.algebra.vertices
    k = 1 - len(projs)
    X = projs[-k]
    from_p = vmap_ident(X)  # P_(-k) -> X
    to_p = from_p  # X -> P_(-k), through the section of the last pushout
    from_t: VMap | None = None  # T^(k-1) -> X
    terms: dict[int, tuple[str, ...]] = {}
    diffs: dict[int, VMap] = {}
    kappa: dict[int, VMap] = {}
    while k <= 0 or not X.is_zero():
        if k > _SWEEP_GUARD:
            raise InternalInvariantError("the tilting sweep exceeded the step guard")
        labels, f, C, proj = _checked_approximation(tcat, X)
        T = tcat.sum_rep(labels)
        terms[k] = labels
        if from_t is not None:
            diffs[k - 1] = vmap_compose(f, from_t, tcat.sum_rep(terms[k - 1]), T)
        if k <= 0:
            kappa[k] = vmap_compose(f, from_p, projs[-k], T)
        if k >= 0:
            X, from_t = C, proj
        else:
            P = projs[-k - 1]
            d = vmap_compose(res_diffs[-k - 1], to_p, X, P)
            fd = {
                v: linalg.blocks(
                    [[f[v]], [linalg.scal(-1, d[v])]],
                    [T.dims[v], P.dims[v]],
                    [X.dims[v]],
                )
                for v in order
            }
            X, pi, sec = cokernel_rep(fd, X, direct_sum([T, P]))
            from_t = {v: tuple(row[: T.dims[v]] for row in pi[v]) for v in order}
            from_p = {v: tuple(row[T.dims[v] :] for row in pi[v]) for v in order}
            to_p = {v: sec[v][T.dims[v] :] for v in order}
        k += 1
    cpx = FormalComplex(tcat.tilts, terms, diffs)
    cpx.validate()
    return cpx, kappa, projs, res_diffs


def cmin_module(
    tcat: TiltingCategory,
    M: ModuleRep,
    scan: str = "forward",
) -> tuple[FormalComplex, dict[int, VMap]]:
    """Minimal complex of tilting modules quasi-isomorphic to the module M.

    Returns the formal complex together with the verified comparison chain
    map from the minimal projective resolution of M (one exact module map
    per degree).
    """
    cpx, kappa, projs, res_diffs = _sweep(tcat, M)
    Y, kappa = _minimize_carrying(tcat, cpx, kappa, projs, scan)
    _verify_cmin(tcat, projs, res_diffs, Y, kappa)
    return Y, kappa


@linalg._keep
def _complex(
    tcat: TiltingCategory, M: ModuleRep, scan: str
) -> tuple[FormalComplex, dict[int, VMap]]:
    """``cmin_module``, kept per module and scan order."""
    return cmin_module(tcat, M, scan)


def _minimize_carrying(
    tcat: TiltingCategory,
    C: FormalComplex,
    kappa: Mapping[int, VMap],
    projs: Sequence[ModuleRep],
    scan: str,
) -> tuple[FormalComplex, dict[int, VMap]]:
    """Minimize C and carry the maps kappa[n]: projs[-n] -> C^n through the
    projection onto the minimal complex."""
    C_min, pi = minimize(C, scan=scan)
    out: dict[int, VMap] = {}
    for n, kap in kappa.items():
        if n in pi:
            out[n] = vmap_compose(pi[n], kap, projs[-n], tcat.sum_rep(C_min.term(n)))
    return C_min, out


def _verify_cmin(
    tcat: TiltingCategory,
    projs: Sequence[ModuleRep],
    res_diffs: Sequence[VMap],
    Y: FormalComplex,
    kappa: Mapping[int, VMap],
) -> None:
    """Exact witnesses: the comparison map is a chain map and its cone is
    acyclic (vertexwise rank count), so Y is quasi-isomorphic to M.  That Y
    is a minimal complex is checked by ``minimize``, which built it."""
    m = len(projs) - 1
    y_degs = Y.degrees()
    lo = min([-m - 1] + y_degs)
    hi = max([0] + y_degs) + 1
    sums = {n: tcat.sum_rep(Y.term(n)) for n in range(lo, hi + 1)}
    dY = Y.diffs  # both terms nonzero
    # chain-map identities, module level
    for i in range(1, m + 1):
        n = -i
        P, tgt = projs[i], sums[n + 1]
        if n + 1 in kappa:
            lhs = vmap_compose(kappa[n + 1], res_diffs[i - 1], P, tgt)
        else:
            lhs = vmap_zero(P, tgt)
        if n in kappa and n in dY:
            rhs = vmap_compose(dY[n], kappa[n], P, tgt)
        else:
            rhs = vmap_zero(P, tgt)
        if lhs != rhs:
            raise InternalInvariantError(
                f"comparison map fails the chain identity at degree {n}"
            )

    # acyclicity of the cone, vertex by vertex: degree n is P_(-n-1) + Y^n,
    # with differential [[-d_P, 0], [kappa, d_Y]]
    def p_dim(i: int, v: str) -> int:
        return projs[i].dims[v] if 0 <= i <= m else 0

    for v in tcat.algebra.vertices:
        dims = {n: p_dim(-n - 1, v) + sums[n].dims[v] for n in range(lo, hi + 1)}
        mats = {
            n: linalg.blocks(
                [
                    [
                        linalg.scal(-1, res_diffs[-n - 2][v])
                        if -m - 1 <= n <= -2
                        else None,
                        None,
                    ],
                    [
                        kappa[n + 1][v] if n + 1 in kappa else None,
                        dY[n][v] if n in dY else None,
                    ],
                ],
                [p_dim(-n - 2, v), sums[n + 1].dims[v]],
                [p_dim(-n - 1, v), sums[n].dims[v]],
            )
            for n in range(lo, hi)
        }
        # differential squares to zero and the complex is exact
        for n in range(lo, hi - 1):
            sq = linalg.mul_shaped(
                mats[n + 1], mats[n], dims[n + 2], dims[n]
            )
            if not linalg.is_zero(sq):
                raise InternalInvariantError(
                    "cone differential does not square to zero"
                )
        ranks = {n: linalg.rank(mats[n]) for n in range(lo, hi)}
        for n in range(lo, hi + 1):
            r_in = ranks.get(n - 1, 0)
            r_out = ranks.get(n, 0)
            if r_in + r_out != dims[n]:
                raise InternalInvariantError(
                    f"comparison cone is not exact at degree {n} (vertex {v})"
                )


# -- invariant suites ------------------------------------------------------------------


def _rad_std(block: BlockData, lab: str) -> tuple[ModuleRep, bool]:
    """Kernel of the projection of the standard module onto its simple top."""
    std = block.module("std", lab)
    simple = block.module("simple", lab)
    basis = hom_basis(std, simple)
    if len(basis) != 1:
        raise InternalInvariantError(
            f"Hom(std_{lab}, simple_{lab}) is not one dimensional"
        )
    f = basis[0]
    if any(
        linalg.rank(f[v]) != simple.dims[v] for v in block.algebra.vertices
    ):
        raise InternalInvariantError(
            f"basis map std_{lab} -> simple_{lab} is not surjective"
        )
    K, _ = kernel_rep(f, std, simple)
    return K, not K.is_zero()


def verify_block(block: BlockData) -> list[tuple[str, str]]:
    """Run the nine invariant suites over a block.

    Returns ``(suite name, detail)`` pairs in order; raises
    InternalInvariantError (or ValidationError) at the first violation.
    The call keeps each result of the oracle by content (see
    :mod:`tiltc.mincpx.linalg`) and drops them when it returns or raises,
    so two verifications share none.
    """
    with linalg._memo():
        return _run_suites(block)


def _run_suites(block: BlockData) -> list[tuple[str, str]]:
    results: list[tuple[str, str]] = []
    labels = block.labels
    alg = block.algebra

    # 1: presentation -- the algebra and modules are well formed, and the
    # tilting modules have local endomorphism rings and are pairwise distinct
    tcat = TiltingCategory(block)
    tcat.validate()
    results.append(
        (
            SUITE_NAMES[0],
            f"algebra dim {alg.dimension}, {len(labels)} labels, "
            f"{sum(len(b) for b in tcat.basis.values())} hom basis maps",
        )
    )

    # 2: highest-weight axioms
    def leq(a: str, b: str) -> bool:
        return (a, b) in block.leq

    for a in labels:
        std_a = block.module("std", a)
        costd_a = block.module("costd", a)
        if len(hom_basis(std_a, std_a)) != 1:
            raise InternalInvariantError(f"End(std_{a}) is not one dimensional")
        if len(hom_basis(costd_a, costd_a)) != 1:
            raise InternalInvariantError(f"End(costd_{a}) is not one dimensional")
    ext_witness = 0
    for a in labels:
        std_a = block.module("std", a)
        for b in labels:
            std_b = block.module("std", b)
            costd_b = block.module("costd", b)
            simple_b = block.module("simple", b)
            tilt_b = block.module("tilt", b)
            if hom_basis(std_a, std_b) and not leq(a, b):
                raise InternalInvariantError(
                    f"Hom(std_{a}, std_{b}) nonzero without {a} <= {b}"
                )
            e_std = ext_dims(std_a, std_b, 1)
            if e_std[1] and not (leq(a, b) and a != b):
                raise InternalInvariantError(
                    f"Ext^1(std_{a}, std_{b}) nonzero without {a} < {b}"
                )
            e = ext_dims(std_a, costd_b, _EXT_BOUND)
            if e[0] != (1 if a == b else 0):
                raise InternalInvariantError(
                    f"Hom(std_{a}, costd_{b}) has dimension {e[0]}"
                )
            if any(e[1:]):
                raise InternalInvariantError(
                    f"Ext^i(std_{a}, costd_{b}) does not vanish for i >= 1"
                )
            if len(hom_basis(std_a, simple_b)) != (1 if a == b else 0):
                raise InternalInvariantError(
                    f"Hom(std_{a}, simple_{b}) is not delta_(a,b)"
                )
            if ext_dims(std_a, tilt_b, 1)[1]:
                raise InternalInvariantError(
                    f"Ext^1(std_{a}, tilt_{b}) nonzero: tilt_{b} not costandard-filtered"
                )
            if ext_dims(tilt_b, costd_a, 1)[1]:
                raise InternalInvariantError(
                    f"Ext^1(tilt_{b}, costd_{a}) nonzero: tilt_{b} not standard-filtered"
                )
            if ext_dims(block.module("proj", b), costd_a, 1)[1]:
                raise InternalInvariantError(
                    f"Ext^1(proj_{b}, costd_{a}) nonzero"
                )
            if ext_dims(block.module("simple", a), block.module("inj", b), 1)[1]:
                raise InternalInvariantError(
                    f"Ext^1(simple_{a}, inj_{b}) nonzero"
                )
            if a != b and ext_dims(
                block.module("simple", a), costd_b, 1
            )[1]:
                ext_witness += 1
    for a in labels:
        P, cover_labels, _ = projective_cover(block.module("simple", a))
        if cover_labels != [a]:
            raise InternalInvariantError(
                f"projective cover of simple_{a} has top {cover_labels}"
            )
        proj_a = block.module("proj", a)
        if P.dims != proj_a.dims:
            raise InternalInvariantError(
                f"declared proj_{a} does not match the computed cover"
            )
        if not hom_basis(proj_a, P):
            raise InternalInvariantError(
                f"declared proj_{a} has no map to the computed cover"
            )
    results.append(
        (
            SUITE_NAMES[1],
            f"axioms hold for {len(labels)} labels; "
            f"{ext_witness} nonsplit simple/costandard extension pairs",
        )
    )

    # 3: minimal complexes with exact witnesses, each kept next to its module
    # so that suite 8 reuses the modules (and their kept resolutions)
    complexes: dict[str, tuple[ModuleRep, FormalComplex]] = {}
    for role in ("std", "simple"):
        for a in labels:
            mod = block.module(role, a)
            complexes[f"{role}_{a}"] = (mod, tcat.minimal_complex(mod)[0])
    results.append(
        (
            SUITE_NAMES[2],
            "; ".join(
                f"{k}: {complexes[k][1].summary()}" for k in sorted(complexes)
            ),
        )
    )

    # 4: elimination order does not change the answer
    for role in ("std", "simple"):
        for a in labels:
            cpx_b, _ = tcat.minimal_complex(block.module(role, a), scan="backward")
            if cpx_b.label_counts() != complexes[f"{role}_{a}"][1].label_counts():
                raise InternalInvariantError(
                    f"scan orders disagree on {role}_{a}"
                )
    results.append((SUITE_NAMES[3], "forward and backward scans agree"))

    # 5: the object indexes itself once, in degree zero only
    for role in ("std", "simple"):
        for a in labels:
            counts = complexes[f"{role}_{a}"][1].label_counts()
            if counts.get(0, {}).get(a, 0) != 1:
                raise InternalInvariantError(
                    f"tilt_{a} does not appear exactly once in degree 0 of "
                    f"the complex of {role}_{a}"
                )
            for n, c in counts.items():
                if n != 0 and a in c:
                    raise InternalInvariantError(
                        f"tilt_{a} appears in degree {n} of the complex of {role}_{a}"
                    )
    results.append((SUITE_NAMES[4], "diagonal summand appears once, in degree 0"))

    # 6: cone bounds along the radical triangle rad -> std -> simple
    rad_checked = 0
    for a in labels:
        rad, nonzero = _rad_std(block, a)
        if not nonzero:
            continue
        rad_checked += 1
        c_rad, _ = tcat.minimal_complex(rad)
        complexes[f"rad_std_{a}"] = (rad, c_rad)
        c_std = complexes[f"std_{a}"][1].label_counts()
        c_simple = complexes[f"simple_{a}"][1].label_counts()
        c_r = c_rad.label_counts()

        def count(table, n, lab):
            return table.get(n, {}).get(lab, 0)

        degs = set(c_std) | set(c_simple) | set(c_r) | {0}
        pad = range(min(degs) - 2, max(degs) + 3)
        for n in pad:
            for lab in labels:
                if count(c_std, n, lab) > count(c_r, n, lab) + count(
                    c_simple, n, lab
                ):
                    raise InternalInvariantError(
                        f"triangle bound fails for std_{a} at degree {n}"
                    )
                if count(c_simple, n, lab) > count(c_std, n, lab) + count(
                    c_r, n + 1, lab
                ):
                    raise InternalInvariantError(
                        f"triangle bound fails for simple_{a} at degree {n}"
                    )
                if count(c_r, n, lab) > count(c_std, n, lab) + count(
                    c_simple, n - 1, lab
                ):
                    raise InternalInvariantError(
                        f"triangle bound fails for rad std_{a} at degree {n}"
                    )
    results.append(
        (SUITE_NAMES[5], f"cone bounds hold around {rad_checked} radical triangles")
    )

    # 7: support degrees form an interval
    for key, (_, cpx) in complexes.items():
        degs = cpx.degrees()
        if degs and degs != list(range(degs[0], degs[-1] + 1)):
            raise InternalInvariantError(f"complex of {key} has a degree gap")
    results.append((SUITE_NAMES[6], f"no gaps across {len(complexes)} complexes"))

    # 8: support endpoints match extension vanishing bounds
    for key, (mod, cpx) in complexes.items():
        span = cpx.support_interval()
        if span is None:
            continue
        lo, hi = span
        bound = max(hi, -lo) + 2
        max_above = -1
        for b in labels:
            e = ext_dims(block.module("std", b), mod, bound)
            nz = [i for i, d in enumerate(e) if d]
            if nz:
                max_above = max(max_above, nz[-1])
        max_below = -1
        for b in labels:
            e = ext_dims(mod, block.module("costd", b), bound)
            nz = [i for i, d in enumerate(e) if d]
            if nz:
                max_below = max(max_below, nz[-1])
        if hi != max_above:
            raise InternalInvariantError(
                f"top degree of {key} is {hi}, extension bound gives {max_above}"
            )
        if lo != -max_below:
            raise InternalInvariantError(
                f"bottom degree of {key} is {lo}, extension bound gives {-max_below}"
            )
    results.append(
        (SUITE_NAMES[7], "support endpoints equal homological dimensions")
    )

    # 9: agreement with the closed formulas
    if block.system is None:
        raise ValidationError(f"block {block.name} declares no ambient type")
    from ..coxeter import CoxeterSystem
    from ..hecke import HeckeContext
    from ..tilting import CategoryO

    system = CoxeterSystem.from_type(block.system)
    setting = CategoryO(HeckeContext(system), I=(), J=())
    word_of = {lab: parse_word(block.words[lab]) for lab in labels}
    label_of = {word_of[lab]: lab for lab in labels}
    checked = 0
    for role, method in (("std", "standard_table"), ("simple", "simple_table")):
        for a in labels:
            table = getattr(setting, method)(word_of[a])
            counts = complexes[f"{role}_{a}"][1].label_counts()
            seen: dict[int, dict[str, int]] = {}
            for y_word, poly in table.entries:
                if poly.is_zero():
                    continue
                if y_word not in label_of:
                    raise InternalInvariantError(
                        f"formula indexes a word outside the block at {role}_{a}"
                    )
                y_lab = label_of[y_word]
                for i, c in poly.terms:
                    if c < 0:
                        raise InternalInvariantError(
                            f"formula coefficient at {role}_{a} is not a "
                            f"nonnegative integer"
                        )
                    seen.setdefault(i, {})[y_lab] = c
            if seen != counts:
                raise InternalInvariantError(
                    f"oracle and formula disagree on {role}_{a}: "
                    f"{counts} != {seen}"
                )
            nabla, delta = table.dims()
            span = complexes[f"{role}_{a}"][1].support_interval()
            lo_c, hi_c = span if span else (0, 0)
            if (hi_c, -lo_c) != (nabla, delta):
                raise InternalInvariantError(
                    f"filtration dimensions disagree on {role}_{a}"
                )
            checked += 1
    results.append(
        (SUITE_NAMES[8], f"label counts match the closed formulas on {checked} objects")
    )
    return results
