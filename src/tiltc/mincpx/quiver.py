"""Finite-dimensional quiver algebras and their representation theory.

Paths are written diagrammatically: in the path (a, b) the arrow a acts
first, so the path is valid when tgt(a) == src(b) and it realizes on a
representation as the matrix product M_b @ M_a.  Relations must be
homogeneous: every term of one relation has the same length and the same
endpoints, which keeps the path-class bases graded by length.

A representation assigns a space to each vertex and a matrix of shape
(dim tgt, dim src) to each arrow; all maps act on column vectors.  A module
map M -> N (a ``VMap``) holds one full-shape matrix per vertex v, of shape
(N.dims[v], M.dims[v]) in the sense of :mod:`tiltc.mincpx.linalg`, so maps
compare with ``==`` and block matrices of them are assembled by
``linalg.blocks``, which rejects a block of the wrong shape.

The algebra owns its modules: it interns them, and each refers back to it
through one weak reference that they all share.  Releasing the algebra
drops what every module kept (path matrices, covers, hom bases and
resolutions, which link modules to each other and to themselves), so
reference counts free the whole intern table at once, with no work left to
the cyclic collector.  A module kept after its algebra keeps its
``dims`` and ``mats``; anything that needs the algebra raises
``ReferenceError``.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass, field
from typing import Mapping, Sequence

from ..errors import InternalInvariantError, ValidationError
from . import linalg
from .linalg import Mat, Scalar, Vec

Path = tuple[str, ...]
Relation = tuple[tuple[Scalar, Path], ...]
VMap = dict[str, Mat]  # one matrix per vertex

_PATH_GUARD = 200000
_LENGTH_GUARD = 60
_RESOLUTION_GUARD = 20  # most terms of a minimal projective resolution


class AlgebraPresentation:
    """Path algebra of a quiver modulo homogeneous relations."""

    def __init__(
        self,
        vertices: Sequence[str],
        arrows: Sequence[tuple[str, str, str]],
        relations: Sequence[Relation | str],
    ):
        self.vertices = tuple(vertices)
        if len(set(self.vertices)) != len(self.vertices):
            raise ValidationError("duplicate vertex names")
        self.arrows: dict[str, tuple[str, str]] = {}
        for name, src, tgt in arrows:
            if name in self.arrows or name in self.vertices:
                raise ValidationError(f"duplicate or clashing arrow name {name!r}")
            if src not in self.vertices or tgt not in self.vertices:
                raise ValidationError(f"arrow {name!r} uses unknown vertices")
            self.arrows[name] = (src, tgt)
        self.relations = tuple(
            self._parse_relation(r)
            if isinstance(r, str)
            else tuple((linalg.exact(c), tuple(p)) for c, p in r)
            for r in relations
        )
        for rel in self.relations:
            self._check_relation(rel)
        self._build_path_classes()
        self._projectives: dict[str, tuple[ModuleRep, tuple]] = {}
        # the intern table of ModuleRep: normalized content -> its one object
        self._modules: dict[tuple, ModuleRep] = {}
        self._ref = weakref.ref(self)  # shared by every module of the table

    def __del__(self):
        # the kept results link the modules in cycles: drop them, and the
        # table goes with the algebra by reference counts
        for M in getattr(self, "_modules", {}).values():
            M._paths.clear()
            M._homs.clear()
            M._cover = M._resolution = None

    # -- paths -------------------------------------------------------------------

    def path_endpoints(self, path: Path) -> tuple[str, str]:
        if not path:
            raise ValidationError("a trivial path needs an explicit vertex")
        src = self.arrows[path[0]][0]
        cur = src
        for a in path:
            s, t = self.arrows[a]
            if s != cur:
                raise ValidationError(f"path {path} breaks at {a!r}")
            cur = t
        return src, cur

    def _parse_relation(self, text: str) -> Relation:
        """Parse 'beta alpha' or '2 a b - c d' into (coeff, path) terms."""
        terms: list[tuple[Scalar, Path]] = []
        chunk = ""
        sign = 1
        pieces: list[tuple[int, str]] = []
        for token in text.replace("-", " - ").replace("+", " + ").split():
            if token == "-":
                if chunk.strip():
                    pieces.append((sign, chunk))
                chunk, sign = "", -1
            elif token == "+":
                if chunk.strip():
                    pieces.append((sign, chunk))
                chunk, sign = "", 1
            else:
                chunk += " " + token
        if chunk.strip():
            pieces.append((sign, chunk))
        for sgn, piece in pieces:
            words = piece.split()
            coeff = sgn
            if words and words[0].lstrip("-").isdigit():
                coeff *= linalg.exact(words[0])
                words = words[1:]
            if not words:
                raise ValidationError(f"empty term in relation {text!r}")
            terms.append((coeff, tuple(words)))
        if not terms:
            raise ValidationError(f"empty relation {text!r}")
        return tuple(terms)

    def _check_relation(self, rel: Relation) -> None:
        ends = set()
        lengths = set()
        for coeff, path in rel:
            for a in path:
                if a not in self.arrows:
                    raise ValidationError(f"relation uses unknown arrow {a!r}")
            ends.add(self.path_endpoints(path))
            lengths.add(len(path))
        if len(ends) != 1 or len(lengths) != 1:
            raise ValidationError(
                "relations must be homogeneous in endpoints and length"
            )

    # -- path classes modulo the relation ideal ----------------------------------

    def _build_path_classes(self) -> None:
        """Graded bases of all path classes; fails if the algebra is infinite.

        The paths of each length are bucketed by endpoints.  Relations are
        homogeneous, so the degree-L part of the ideal in a bucket is spanned
        by the relations of length L and by r a and a r for the arrows a and
        the rows r of the degree-(L - 1) part.  One rref per bucket gives
        those rows for the next length, and the projection onto the path
        classes is their nullspace; a bucket with no relation in it keeps no
        projection, as each of its paths is its own class.
        """
        arrows_from: dict[str, list[str]] = {v: [] for v in self.vertices}
        for a, (s, _) in self.arrows.items():
            arrows_from[s].append(a)
        # reduction tables: (src, tgt, length) -> (paths, projection or None
        # with no relation in the bucket, free columns)
        self._classes: dict[
            tuple[str, str, int], tuple[list[Path], Mat | None, list[int]]
        ] = {}
        self.dimension = len(self.vertices)
        level = [((a,), *self.arrows[a]) for a in sorted(self.arrows)]
        total_paths = len(level)
        # (src, tgt) -> the ideal of the last length, as sparse rows
        ideal: dict[tuple[str, str], list[Relation]] = {}
        length = 1
        while True:
            if length >= _LENGTH_GUARD or total_paths > _PATH_GUARD:
                raise ValidationError(
                    "the algebra presentation is not visibly finite dimensional"
                )
            buckets: dict[tuple[str, str], list[Path]] = {}
            for p, s, t in level:
                buckets.setdefault((s, t), []).append(p)
            gens: dict[tuple[str, str], list[Relation]] = {}
            for rel in self.relations:
                if len(rel[0][1]) == length:
                    gens.setdefault(self.path_endpoints(rel[0][1]), []).append(rel)
            for (s, t), rows in ideal.items():
                for a in arrows_from[t]:
                    gens.setdefault((s, self.arrows[a][1]), []).extend(
                        tuple((c, p + (a,)) for c, p in r) for r in rows
                    )
                for a, (u, v) in self.arrows.items():
                    if v == s:
                        gens.setdefault((u, t), []).extend(
                            tuple((c, (a,) + p) for c, p in r) for r in rows
                        )
            survivors = 0
            ideal = {}
            for (s, t), paths in buckets.items():
                index = {p: k for k, p in enumerate(paths)}
                vectors = []
                for terms in gens.get((s, t), ()):
                    vec = [0] * len(paths)
                    for c, p in terms:
                        vec[index[p]] += c
                    vectors.append(tuple(vec))
                rows, pivots = linalg.rref(tuple(vectors))
                free = [j for j in range(len(paths)) if j not in pivots]
                # rows is reduced already: nullspace does no further elimination
                proj = tuple(linalg.nullspace(rows)) if pivots else None
                self._classes[(s, t, length)] = (paths, proj, free)
                ideal[(s, t)] = [
                    tuple((c, p) for c, p in zip(row, paths) if c)
                    for row in rows[: len(pivots)]
                ]
                survivors += len(free)
            self.dimension += survivors
            if survivors == 0:
                self.max_path_length = length - 1
                break
            level = [
                (p + (a,), s, self.arrows[a][1])
                for p, s, t in level
                for a in arrows_from[t]
            ]
            total_paths += len(level)
            length += 1

    def class_basis(self, src: str, tgt: str, length: int) -> list[Path]:
        """Surviving path classes, as their representative paths."""
        entry = self._classes.get((src, tgt, length))
        if entry is None:
            return []
        paths, _, free = entry
        return [paths[f] for f in free]

    def reduce_path(self, path: Path) -> list[tuple[Scalar, Path]]:
        """Class of a path as a combination of basis representatives."""
        src, tgt = self.path_endpoints(path)
        entry = self._classes.get((src, tgt, len(path)))
        if entry is None:
            return []
        paths, proj, free = entry
        if proj is None:
            return [(1, path)]
        k = paths.index(path)
        return [(row[k], paths[f]) for row, f in zip(proj, free) if row[k]]

    # -- distinguished modules ----------------------------------------------------

    def projective(
        self, v: str
    ) -> tuple["ModuleRep", tuple[tuple[str, int, Path], ...]]:
        """Projective cover of the simple at v, with its path-class basis.

        The basis at vertex u consists of classes of paths v -> u (the trivial
        path when u == v); arrows act by appending and reducing.  Each vertex
        is built and validated once per algebra; later calls return the same
        objects, which nothing mutates.
        """
        if v in self._projectives:
            return self._projectives[v]
        if v not in self.vertices:
            raise ValidationError(f"unknown vertex {v!r}")
        basis: list[tuple[str, int, Path]] = [(v, 0, ())]
        for length in range(1, self.max_path_length + 1):
            for u in self.vertices:
                for p in self.class_basis(v, u, length):
                    basis.append((u, length, p))
        per_vertex: dict[str, list[tuple[int, Path]]] = {u: [] for u in self.vertices}
        for u, length, p in basis:
            per_vertex[u].append((length, p))
        dims = {u: len(per_vertex[u]) for u in self.vertices}
        mats: dict[str, Mat] = {}
        for a, (s, t) in self.arrows.items():
            rows = [[0] * dims[s] for _ in range(dims[t])]
            for col, (length, p) in enumerate(per_vertex[s]):
                if length == 0 and s != v:
                    raise InternalInvariantError("trivial path at wrong vertex")
                appended = p + (a,)
                for coeff, b in self.reduce_path(appended):
                    row = per_vertex[t].index((length + 1, b))
                    rows[row][col] += coeff
            mats[a] = tuple(tuple(r) for r in rows)
        rep = ModuleRep(self, dims, mats)
        rep.validate()
        self._projectives[v] = (rep, tuple(basis))
        return self._projectives[v]


class ModuleRep:
    """A representation: spaces over vertices, matrices over arrows.

    Interned: ``ModuleRep(algebra, dims, mats)`` returns one object per
    normalized content (the dimension vector and the arrow matrices, unlisted
    arrows zero) over an algebra, held in the algebra's own table, so equal
    kernels, cokernels, direct sums, covers and declared modules are one
    object.  ``dims`` lists every vertex in the algebra's order, so it also
    gives the vertex order; ``algebra`` is read through the algebra's shared
    weak reference and raises ``ReferenceError`` once the algebra is
    released.  The content never changes; a module keeps the results of the
    pure work on it, each done on first request:
    ``validate``, ``path_matrix``, ``projective_cover`` (with its surjectivity
    check), ``hom_basis`` per target and the minimal projective resolution
    with the ranks ``ext_dims`` reads off it, per target.  Callers must not
    mutate what it hands out.
    """

    __slots__ = (
        "_ref", "dims", "mats", "_valid", "_paths", "_cover", "_homs", "_resolution",
    )

    def __new__(
        cls,
        algebra: AlgebraPresentation,
        dims: Mapping[str, int],
        mats: Mapping[str, Mat] | None = None,
    ) -> "ModuleRep":
        dims = {v: int(dims.get(v, 0)) for v in algebra.vertices}
        mats = mats or {}
        full: dict[str, Mat] = {}
        for a, (s, t) in algebra.arrows.items():
            m = mats.get(a)
            full[a] = linalg.zeros(dims[t], dims[s]) if m is None else linalg.mat(m)
        key = (tuple(dims.values()), tuple(full.values()))
        self = algebra._modules.get(key)
        if self is None:
            self = algebra._modules[key] = super().__new__(cls)
            self._ref, self.dims, self.mats = algebra._ref, dims, full
            self._valid = False
            self._paths: dict[Path, Mat] = {}
            self._cover: tuple[ModuleRep, tuple[str, ...], VMap] | None = None
            self._homs: dict[ModuleRep, list[VMap]] = {}  # target N -> Hom(self, N)
            self._resolution: _Resolution | None = None  # grown by _resolve
        return self

    @property
    def algebra(self) -> AlgebraPresentation:
        """The algebra of this module; ReferenceError once it is released."""
        alg = self._ref()
        if alg is None:
            raise ReferenceError(f"the algebra of {self!r} has been released")
        return alg

    def validate(self) -> None:
        """Arrow shapes and relations; a module that passed is not checked again."""
        if self._valid:
            return
        alg = self.algebra
        for a, (s, t) in alg.arrows.items():
            want = (self.dims[t], self.dims[s])
            got = linalg.shape(self.mats[a])
            # a zero-row matrix is stored as () and forgets its column count
            if got != want and not (want[0] == 0 and got == (0, 0)):
                raise ValidationError(
                    f"matrix for arrow {a!r} has shape {got}, expected {want}"
                )
        for rel in alg.relations:
            src, tgt = alg.path_endpoints(rel[0][1])
            acc = linalg.zeros(self.dims[tgt], self.dims[src])
            for coeff, path in rel:
                acc = linalg.add(acc, linalg.scal(coeff, self.path_matrix(path)))
            if not linalg.is_zero(acc):
                raise ValidationError(f"relation {rel} fails on the representation")
        self._valid = True

    def path_matrix(self, path: Path) -> Mat:
        acc = self._paths.get(path)
        if acc is not None:
            return acc
        alg = self.algebra
        src, _ = alg.path_endpoints(path)
        acc = linalg.ident(self.dims[src])
        for a in path:
            _, t = alg.arrows[a]
            acc = linalg.mul_shaped(
                self.mats[a], acc, self.dims[t], self.dims[src]
            )
        self._paths[path] = acc
        return acc

    @property
    def total_dim(self) -> int:
        return sum(self.dims.values())

    def is_zero(self) -> bool:
        return self.total_dim == 0

    def __repr__(self) -> str:
        return f"ModuleRep({self.dims})"


def direct_sum(reps: Sequence[ModuleRep]) -> ModuleRep:
    if not reps:
        raise ValidationError("empty direct sum needs an algebra")
    alg = reps[0].algebra
    dims = {v: sum(r.dims[v] for r in reps) for v in alg.vertices}
    mats = {
        a: linalg.blocks(
            [
                [r.mats[a] if i == k else None for k in range(len(reps))]
                for i, r in enumerate(reps)
            ],
            [r.dims[t] for r in reps],
            [r.dims[s] for r in reps],
        )
        for a, (s, t) in alg.arrows.items()
    }
    return ModuleRep(alg, dims, mats)


def vmap_compose(f: VMap, g: VMap, src: ModuleRep, tgt: ModuleRep) -> VMap:
    """f after g, vertexwise; src and tgt pin shapes through zero-dim spaces."""
    tdims = tgt.dims
    return {
        v: linalg.mul_shaped(f[v], g[v], tdims[v], n) for v, n in src.dims.items()
    }


def vmap_zero(src: ModuleRep, tgt: ModuleRep) -> VMap:
    return {v: linalg.zeros(tgt.dims[v], n) for v, n in src.dims.items()}


def vmap_ident(M: ModuleRep) -> VMap:
    return {v: linalg.ident(n) for v, n in M.dims.items()}


def flatten_vmap(f: VMap, order: Sequence[str]) -> Vec:
    out: list[Scalar] = []
    for v in order:
        for row in f[v]:
            out.extend(row)
    return tuple(out)


def flat_columns(maps: Sequence[VMap], order: Sequence[str], rows: int) -> Mat:
    """The matrix whose columns are the flattened maps; rows is their length."""
    vecs = tuple(flatten_vmap(f, order) for f in maps)
    return linalg.transpose(vecs) if vecs else linalg.zeros(rows, 0)


def hom_basis(M: ModuleRep, N: ModuleRep) -> list[VMap]:
    """Basis of intertwiners M -> N, by solving the commutation equations.

    Solved once per pair and kept on M; callers must not mutate the list.
    """
    basis = M._homs.get(N)
    if basis is not None:
        return basis
    alg = M.algebra
    offsets = {}
    pos = 0
    for v in alg.vertices:
        offsets[v] = pos
        pos += N.dims[v] * M.dims[v]
    nvars = pos
    rows: list[Vec] = []
    for a, (s, t) in alg.arrows.items():
        # f_t @ M_a == N_a @ f_s, one equation per (i, j)
        for i in range(N.dims[t]):
            for j in range(M.dims[s]):
                row = [0] * nvars
                for k in range(M.dims[t]):
                    row[offsets[t] + i * M.dims[t] + k] += M.mats[a][k][j]
                for k in range(N.dims[s]):
                    row[offsets[s] + k * M.dims[s] + j] -= N.mats[a][i][k]
                if any(row):
                    rows.append(tuple(row))
    basis = []
    for vec in linalg.nullspace(tuple(rows)) if rows else linalg.ident(nvars):
        f: VMap = {}
        for v in alg.vertices:
            entries = vec[offsets[v] : offsets[v] + N.dims[v] * M.dims[v]]
            f[v] = tuple(
                tuple(entries[i * M.dims[v] + j] for j in range(M.dims[v]))
                for i in range(N.dims[v])
            )
        basis.append(f)
    M._homs[N] = basis
    return basis


def top_generators(M: ModuleRep) -> list[tuple[str, Vec]]:
    """Vectors projecting to a basis of M / rad M, as (vertex, vector): the
    unit vectors at the free columns of the radical's echelon form."""
    out = []
    arrows = M.algebra.arrows
    for v, n in M.dims.items():
        rad = tuple(
            col
            for a, (_, t) in arrows.items()
            if t == v
            for col in linalg.transpose(M.mats[a])
        )
        pivots = linalg.rref(rad)[1]
        out.extend((v, e) for j, e in enumerate(linalg.ident(n)) if j not in pivots)
    return out


def projective_cover(M: ModuleRep) -> tuple[ModuleRep, list[str], VMap]:
    """(P, vertex labels of its summands, surjection P -> M).

    Built and checked once per module and kept on M; callers get a fresh
    label list and must not mutate the surjection.
    """
    if M._cover is None:
        M._cover = _cover(M)
    P, labels, cover = M._cover
    return P, list(labels), cover


def _cover(M: ModuleRep) -> tuple[ModuleRep, tuple[str, ...], VMap]:
    alg = M.algebra
    gens = top_generators(M)
    if not gens:
        zero = ModuleRep(alg, {})
        return zero, (), vmap_zero(zero, M)
    labels = tuple(v for v, _ in gens)
    summands = []
    bases = []
    for v, _ in gens:
        P_v, basis = alg.projective(v)
        summands.append(P_v)
        bases.append(basis)
    P = direct_sum(summands)
    # build columns vertex by vertex, summand by summand, in sum order
    col_entries: dict[str, list[Vec]] = {u: [] for u in alg.vertices}
    for (v, gen), basis in zip(gens, bases):
        per_vertex: dict[str, list[Path]] = {u: [] for u in alg.vertices}
        for u, _, p in basis:
            per_vertex[u].append(p)
        for u in alg.vertices:
            for p in per_vertex[u]:
                image = (
                    tuple(gen)
                    if not p
                    else linalg.apply(M.path_matrix(p), gen)
                )
                col_entries[u].append(image)
    cover: VMap = {}
    for u in alg.vertices:
        cols_u = col_entries[u]
        cover[u] = tuple(
            tuple(col[i] for col in cols_u) for i in range(M.dims[u])
        )
    if any(
        linalg.rank(cover[u]) != M.dims[u] for u in alg.vertices
    ):
        raise InternalInvariantError("projective cover fails to surject")
    return P, labels, cover


def kernel_rep(f: VMap, M: ModuleRep, N: ModuleRep) -> tuple[ModuleRep, VMap]:
    """(K, inclusion K -> M) of the vertexwise kernel, with induced arrows."""
    alg = M.algebra
    incl: VMap = {}
    kdims = {}
    for v in alg.vertices:
        # f[v] is () when N.dims[v] is 0, and records no columns then
        basis = linalg.nullspace(f[v]) if N.dims[v] else linalg.ident(M.dims[v])
        kdims[v] = len(basis)
        incl[v] = (
            linalg.transpose(tuple(basis))
            if basis
            else linalg.zeros(M.dims[v], 0)
        )
    mats = {}
    for a, (s, t) in alg.arrows.items():
        rhs = linalg.mul_shaped(M.mats[a], incl[s], M.dims[t], kdims[s])
        mats[a] = linalg.solve_matrix(incl[t], rhs)
        if mats[a] is None:
            raise InternalInvariantError("kernel is not arrow-stable")
    K = ModuleRep(alg, kdims, mats)
    K.validate()
    return K, incl


def cokernel_rep(
    f: VMap, M: ModuleRep, N: ModuleRep
) -> tuple[ModuleRep, VMap, VMap]:
    """(C, projection N -> C, section C -> N) of the vertexwise cokernel.

    The section is linear at each vertex, not a module map; the projection
    after it is the identity of C.
    """
    alg = M.algebra
    proj: VMap = {}
    sections = {}
    cdims = {}
    for v, n in N.dims.items():
        # the projection rows are the nullspace of the image columns, the
        # section the unit vectors at their free columns
        rows, pivots = linalg.rref(linalg.transpose(f[v]))
        free = [j for j in range(n) if j not in pivots]
        cdims[v] = len(free)
        proj[v] = tuple(linalg.nullspace(rows)) if pivots else linalg.ident(n)
        sections[v] = tuple(tuple(e[j] for j in free) for e in linalg.ident(n))
    mats = {}
    for a, (s, t) in alg.arrows.items():
        step = linalg.mul_shaped(N.mats[a], sections[s], N.dims[t], cdims[s])
        mats[a] = linalg.mul_shaped(proj[t], step, cdims[t], cdims[s])
    C = ModuleRep(alg, cdims, mats)
    C.validate()
    return C, proj, sections


def minimal_projective_resolution(
    M: ModuleRep,
) -> tuple[list[tuple[ModuleRep, list[str]]], list[VMap], VMap]:
    """([(P_i, labels_i)], [d_i: P_i -> P_{i-1} for i >= 1], P_0 -> M).

    Callers get fresh lists and dicts of the resolution kept on M.
    """
    res = _resolve(M, None)
    return (
        [(P, list(labels)) for P, labels in res.terms],
        [dict(d) for d in res.diffs],
        dict(res.aug),
    )


@dataclass
class _Resolution:
    """The terms of a minimal projective resolution built so far."""

    terms: list[tuple[ModuleRep, tuple[str, ...]]]
    diffs: list[VMap]
    aug: VMap
    cov: VMap  # the newest cover, P_last -> (kernel, or M itself if None)
    kernel: ModuleRep | None = None  # None while the last term covers M
    complete: bool = False
    # target module N -> [rank d_i^*] for the first differentials, with
    # d_0^* = 0 in front, read by ext_dims
    ranks: dict[ModuleRep, list[int]] = field(default_factory=dict)


def _resolve(M: ModuleRep, last: int | None) -> _Resolution:
    """The minimal projective resolution kept on M, grown until it is
    complete or has the term P_last.

    A later call extends the kept terms and never rebuilds one; only terms
    whose cover and kernel passed their checks are kept.
    """
    res = M._resolution
    if res is None:
        P0, labels0, aug = projective_cover(M)
        res = M._resolution = _Resolution([(P0, tuple(labels0))], [], aug, aug)
    terms = res.terms
    while not res.complete and (last is None or len(terms) <= last):
        covered = M if res.kernel is None else res.kernel
        K, incl = kernel_rep(res.cov, terms[-1][0], covered)
        if K.is_zero():
            res.complete = True
            break
        if len(terms) > _RESOLUTION_GUARD:
            raise InternalInvariantError("projective resolution exceeds guard")
        P, labels, cov = projective_cover(K)
        res.diffs.append(vmap_compose(incl, cov, P, terms[-1][0]))
        terms.append((P, tuple(labels)))
        res.cov, res.kernel = cov, K
    return res


def ext_dims(M: ModuleRep, N: ModuleRep, up_to: int) -> list[int]:
    """[dim Ext^i(M, N) for i in 0..up_to], by the minimal resolution.

    Ext^i needs the resolution only up to the term P_{i+1}, so it stops there.
    Each dimension comes from ranks alone: dim Ext^i = dim Hom(P_i, N)
    - rank(d_{i+1}^*) - rank(d_i^*), where d_i^* : Hom(P_{i-1}, N) ->
    Hom(P_i, N) is precomposition with d_i.  The ranks are kept next to the
    resolution on M, per N, and the bases on each P_i, so each is computed
    once.
    """
    res = _resolve(M, up_to + 1)
    homs = [hom_basis(P, N) for P, _ in res.terms[: up_to + 2]]
    ranks = res.ranks.setdefault(N, [0])
    order = M.dims  # the vertices in order
    for i in range(len(ranks), len(homs)):
        P = res.terms[i][0]
        rows = sum(P.dims[v] * N.dims[v] for v in order)
        composites = [vmap_compose(f, res.diffs[i - 1], P, N) for f in homs[i - 1]]
        coords = linalg.solve_matrix(
            flat_columns(homs[i], order, rows), flat_columns(composites, order, rows)
        )
        if coords is None:
            raise InternalInvariantError("composite leaves the hom space")
        ranks.append(linalg.rank(coords))
    rank = ranks + [0]  # past the last term d^* is zero
    return [
        len(homs[i]) - rank[i + 1] - rank[i] if i < len(homs) else 0
        for i in range(up_to + 1)
    ]
