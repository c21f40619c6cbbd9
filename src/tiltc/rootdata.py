"""Root systems, weights, and dilated affine Weyl group actions.

Weights are integer vectors in fundamental-weight coordinates, so the pairing
of a weight with a simple coroot is just a coordinate, and the pairing with
any coroot is a dot product against its simple-coroot coordinates.  rho is
(1, ..., 1).

The root-of-unity linkage data of a finite type and an integer l >= 1 packages
everything the multiplicity formulas need: the dilation level r, the wall
configuration of the dominant alcove, the affine Coxeter system generated by
the finite reflections together with the affine reflection s_0, and the
translation lattice tag.  With l' = l (l odd) or l/2 (l even) and D the
squared-length ratio of the system:

  D does not divide l':  r = l',   s_0 reflects in the highest short root
                          wall (lambda+rho)(alpha_hs^vee) = r, translations
                          by the root lattice Q, affine system tagged
                          'aff<type>' for simply-laced types and
                          'aff<type>d' (the dual affinization) otherwise;
  D divides l':           r = l'/D, s_0 reflects in the highest root wall
                          (lambda+rho)(alpha_h^vee) = r, translations by the
                          stretched lattice generated by long roots and
                          D times short roots, affine system 'aff<type>'.

The dilated dot action is w .r lambda = w(lambda + rho) - rho for finite w,
and s_0 .r lambda = s_beta .r lambda + r * beta for the affine generator.
Example (A1, r = 5): s_0 .5 7 = -(7+1) - 1 + 5*2 = 1.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Iterable, Sequence

from .coxeter import (
    CoxeterElement,
    CoxeterSystem,
    affinize_cartan,
    finite_cartan,
    roots_and_coroots,
    _TYPE_RE,
)
from .errors import InternalInvariantError, ValidationError

__all__ = [
    "RootSystem",
    "LinkageDatum",
    "parse_weight",
    "format_weight",
]

Vec = tuple[int, ...]

_WALK_GUARD = 200_000


def parse_weight(text: str) -> Vec:
    s = text.replace(",", " ").strip()
    if not s:
        raise ValidationError("empty weight")
    try:
        return tuple(int(t) for t in s.split())
    except ValueError as exc:
        raise ValidationError(f"bad weight {text!r}") from exc


def format_weight(w: Sequence[int]) -> str:
    return ",".join(str(c) for c in w)


@dataclass(frozen=True)
class Root:
    """A positive root in simple-root and simple-coroot coordinates."""

    coords: Vec
    coroot: Vec

    def height(self) -> int:
        return sum(self.coords)

    def coheight(self) -> int:
        return sum(self.coroot)


class RootSystem:
    """Finite root system with exact symmetrizer and length data."""

    def __init__(self, tag: str, cartan):
        self.tag = tag
        self.cartan = tuple(tuple(r) for r in cartan)
        self.rank = len(self.cartan)
        self.positive_roots = tuple(
            Root(m, c) for m, c in roots_and_coroots(self.cartan)
        )
        # minimal integral symmetrizer d_i with d_i C[i][j] = d_j C[j][i];
        # connected graph assumed (all shipped types are irreducible)
        d: list[Fraction | None] = [None] * self.rank
        d[0] = Fraction(1)
        frontier = [0]
        while frontier:
            i = frontier.pop()
            for j in range(self.rank):
                if i != j and self.cartan[i][j] != 0 and d[j] is None:
                    d[j] = d[i] * self.cartan[i][j] / self.cartan[j][i]
                    frontier.append(j)
        if any(x is None for x in d):
            raise ValidationError(f"type {tag} is not irreducible")
        denom_lcm = lcm(*(x.denominator for x in d))
        scaled = [x * denom_lcm for x in d]
        low = min(scaled)
        self.symmetrizer: Vec = tuple(int(x / low) for x in scaled)
        self.D = max(self.symmetrizer)
        self.highest_root = max(self.positive_roots, key=Root.height)
        self.highest_short_root = max(self.positive_roots, key=Root.coheight)

    @classmethod
    def from_type(cls, tag: str) -> "RootSystem":
        m = _TYPE_RE.fullmatch(tag)
        if m is None or m.group(1) or m.group(4):
            raise ValidationError(f"not a finite type tag: {tag!r}")
        return cls(tag, finite_cartan(m.group(2), int(m.group(3))))

    # -- coordinates -----------------------------------------------------------

    def fund_coords(self, root: Root) -> Vec:
        """Fundamental-weight coordinates of a root: (C m)_i."""
        return tuple(
            sum(self.cartan[i][j] * root.coords[j] for j in range(self.rank))
            for i in range(self.rank)
        )

    def pair(self, weight: Sequence, coroot: Vec):
        """<weight, coroot> for a coroot in simple-coroot coordinates."""
        return sum(w * c for w, c in zip(weight, coroot))

    # -- linear actions on fundamental coordinates ------------------------------

    def reflect(self, weight: Sequence, i: int) -> tuple:
        """Simple reflection s_i (1-based index), linear action."""
        c = weight[i - 1]
        return tuple(
            w - c * self.cartan[k][i - 1] for k, w in enumerate(weight)
        )


class LinkageDatum:
    """Everything needed to act on weights at a root of unity."""

    def __init__(self, type_tag: str, ell: int):
        if ell < 1:
            raise ValidationError("the order l must be >= 1")
        self.roots = RootSystem.from_type(type_tag)
        self.ell = ell
        self.ell_prime = ell if ell % 2 else ell // 2
        R = self.roots
        if self.ell_prime % R.D == 0:
            self.r = self.ell_prime // R.D
            self.lattice = "stretched"  # long roots and D * short roots
            self.wall_root = R.highest_root
            dual = False
        else:
            self.r = self.ell_prime
            self.lattice = "root"  # the full root lattice Q
            self.wall_root = R.highest_short_root
            dual = R.D > 1
        aff_tag = "aff" + type_tag + ("d" if dual else "")
        self.coxeter = CoxeterSystem(
            aff_tag,
            range(0, R.rank + 1),
            affinize_cartan(R.cartan, (self.wall_root.coords, self.wall_root.coroot)),
            finite=False,
        )
        self.wall_fund = R.fund_coords(self.wall_root)

    # -- dilated dot action ------------------------------------------------------

    def dot_simple(self, i: int, weight: Sequence) -> tuple:
        """Dot action of affine generator i (0 is the affine node)."""
        R = self.roots
        shifted = tuple(w + 1 for w in weight)
        if i == 0:
            # the reflection in the wall <mu, theta^vee> = r
            c = R.pair(shifted, self.wall_root.coroot) - self.r
            out = tuple(x - c * f for x, f in zip(shifted, self.wall_fund))
        else:
            out = R.reflect(shifted, i)
        return tuple(x - 1 for x in out)

    def dot_word(self, word: Iterable[int], weight: Sequence) -> tuple:
        """Word acts as a product of generators: last letter acts first."""
        out = tuple(weight)
        for i in reversed(tuple(word)):
            out = self.dot_simple(i, out)
        return out

    # -- alcove combinatorics --------------------------------------------------------

    def wall_values(self, weight: Sequence) -> dict[int, object]:
        """Affine wall functionals at weight: all >= 0 on the dominant alcove."""
        shifted = tuple(w + 1 for w in weight)
        vals: dict[int, object] = {0: self.r - self.roots.pair(shifted, self.wall_root.coroot)}
        for i in range(1, self.roots.rank + 1):
            vals[i] = shifted[i - 1]
        return vals

    def _walk(self, weight) -> tuple[list[int], tuple]:
        letters: list[int] = []
        mu = tuple(weight)
        for _ in range(_WALK_GUARD):
            vals = self.wall_values(mu)
            neg = [i for i in sorted(vals) if vals[i] < 0]
            if not neg:
                return letters, mu
            i = neg[0]
            mu = self.dot_simple(i, mu)
            letters.append(i)
        raise InternalInvariantError("alcove walk did not terminate")

    def alcove_normalize(self, weight: Sequence[int]) -> tuple[CoxeterElement, Vec, Vec]:
        """Write weight = x .r lambda0 with lambda0 dominant and x minimal.

        Returns (x, lambda0, I) where I is the set of affine generators fixing
        lambda0 and x is the minimal-length representative of x W_I.
        """
        letters, lam0 = self._walk(tuple(int(c) for c in weight))
        vals = self.wall_values(lam0)
        I = tuple(i for i in sorted(vals) if vals[i] == 0)
        x = self.coxeter.element(letters)
        x = self.coxeter.project(x, I, "right")
        if self.dot_word(x.word, lam0) != tuple(weight):
            raise InternalInvariantError("alcove normalization does not reproduce the weight")
        return x, lam0, I

    def is_dominant(self, weight: Sequence) -> bool:
        """Dominance in the finite sense: weight + rho is in the closed cone.

        The affine wall does not bound the dominant region; it only bounds
        the fundamental alcove used by the walk.
        """
        return all(w + 1 >= 0 for w in weight)
