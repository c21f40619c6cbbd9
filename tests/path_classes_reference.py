"""Path classes of a quiver algebra by full enumeration, as a reference.

For every bucket of paths src -> tgt of one length, the degree part of the
relation ideal is spanned by p r q for every relation r and every pair of
paths p, q whose lengths fill the bucket; each such product is enumerated
anew from the paths of the lengths below.  The quotient is read off the
reduced echelon form of that span.  This route shares with
``AlgebraPresentation._build_path_classes`` only ``linalg.rref``, the path
order and the guards, which it reads from ``quiver`` at each call; it
returns what that build stores.
"""

from tiltc.errors import ValidationError
from tiltc.mincpx import linalg, quiver


def _quotient(vectors, dim):
    """(free columns, projection) of dim-space modulo the span of vectors;
    no projection when there is nothing to divide by."""
    if not vectors:
        return list(range(dim)), None
    r, pivots = linalg.rref(tuple(vectors))
    free = [j for j in range(dim) if j not in pivots]
    proj = []
    for f in free:
        # the class of e_i along e_f: pivot coordinates reduce by their rref
        # row, free ones are kept
        proj.append(tuple(
            1 if i == f else -r[pivots.index(i)][f] if i in pivots else 0
            for i in range(dim)
        ))
    return free, tuple(proj)


def path_classes(vertices, arrows, relations):
    """(classes, dimension, max_path_length) of the algebra of a quiver with
    vertices and arrows {name: (src, tgt)} modulo homogeneous relations,
    given as (coefficient, path) terms with exact coefficients: classes maps
    (src, tgt, length) to (paths, projection, free columns)."""

    def ends(path):
        return arrows[path[0]][0], arrows[path[-1]][1]

    arrows_from = {v: [] for v in vertices}
    for a, (s, _) in arrows.items():
        arrows_from[s].append(a)
    by_len = [[], [(a,) for a in sorted(arrows)]]
    classes = {}
    dimension = len(vertices)
    total_paths = len(arrows)
    length = 1
    while True:
        if length >= quiver._LENGTH_GUARD or total_paths > quiver._PATH_GUARD:
            raise ValidationError(
                "the algebra presentation is not visibly finite dimensional"
            )
        survivors = 0
        for src in vertices:
            for tgt in vertices:
                paths = [p for p in by_len[length] if ends(p) == (src, tgt)]
                if not paths:
                    continue
                index = {p: k for k, p in enumerate(paths)}
                vectors = []
                for rel in relations:
                    lr = len(rel[0][1])
                    if lr > length:
                        continue
                    a, b = ends(rel[0][1])
                    for i in range(length - lr + 1):
                        j = length - lr - i
                        lefts = (
                            [p for p in by_len[i] if ends(p) == (src, a)]
                            if i
                            else [()] * (src == a)
                        )
                        rights = (
                            [p for p in by_len[j] if ends(p) == (b, tgt)]
                            if j
                            else [()] * (b == tgt)
                        )
                        for left in lefts:
                            for right in rights:
                                vec = [0] * len(paths)
                                for coeff, mid in rel:
                                    vec[index[left + mid + right]] += coeff
                                if any(vec):
                                    vectors.append(tuple(vec))
                free, proj = _quotient(vectors, len(paths))
                classes[(src, tgt, length)] = (paths, proj, free)
                survivors += len(free)
        dimension += survivors
        if survivors == 0:
            return classes, dimension, length - 1
        nxt = [p + (a,) for p in by_len[length] for a in arrows_from[ends(p)[1]]]
        total_paths += len(nxt)
        by_len.append(nxt)
        length += 1
