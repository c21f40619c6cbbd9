"""Graded tilting multiplicities in minimal complexes of standards and simples.

Each setting (category O of a semisimple Lie algebra, affine Kac-Moody
category O at negative or positive level, quantum groups at a root of unity)
indexes its regular-linkage objects by twisted cosets x in w_J * (J-and-I
minimal, I-regular) representatives of one Coxeter system, and the graded
multiplicity of the tilting object T_y in the minimal complex C_min of a
standard object Delta_x or simple object L_x is a single inverse parabolic
Kazhdan-Lusztig polynomial, or a pairing of a direct family with an
inverse family:

  standard:  one inverse-family entry at indices twisted by the relevant
             longest elements;
  simple:    at negative level sum over z between y and x of
             bar(n_{z,x}) * m^{z,y}, linear in the seeds bar(n_{z,x}), so the
             row is one inverse_combination; at positive level sum over z
             between x and y of bar(m^{z,x}) * n_{z,y}, where every z is a row
             of the same table, so each inverse entry m^{z,x} is read once
             per table and each row sums over its n column.  Each factor
             has the parity of its length difference, so no two terms
             cancel: a direct one by the certificate of every m and n column
             (hecke), an inverse one m^{z,x} by a check here.

All tables enforce unit diagonal, exponent parity len(x) + len(y) mod 2 and
nonnegative coefficients; violations raise InternalInvariantError since they
would falsify the theory, not the input.  Support bounded by the Bruhat order
(reversed at positive level) holds by construction: rows below x are read off
a downward solve, rows above x come from the index reps above x.

The positive-level simple-object formula defaults to the summand-dependent
index form, which satisfies all invariants; literal_text=True evaluates a
z-independent variant instead (historically printed form), with enforcement
disabled and the result flagged "literal-positive-text".
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Iterable, Mapping, Sequence

from .coxeter import CoxeterElement, format_word
from .errors import InternalInvariantError, ValidationError
from .hecke import HeckeContext, PolyStore
from .laurent import ONE, ZERO, LaurentPoly, _mac

if TYPE_CHECKING:  # imported where read, so O and KM tables never load it
    from .rootdata import LinkageDatum

__all__ = [
    "MultiplicityTable",
    "CategoryO",
    "KacMoody",
    "Quantum",
    "filtration_dims",
]


@dataclass(frozen=True)
class MultiplicityTable:
    """Graded multiplicities of tilting objects in one minimal complex.

    entries map the canonical word of y to the multiplicity polynomial of
    T_y; zero entries are kept only for explicitly requested y.  weights maps
    y words to weight-coordinate echoes when the setting has weights.
    """

    setting: str
    system: str
    I: tuple[int, ...]
    J: tuple[int, ...]
    x: tuple[int, ...]
    entries: tuple[tuple[tuple[int, ...], LaurentPoly], ...]
    weights: Mapping[tuple[int, ...], str] | None = None
    flags: tuple[str, ...] = ()
    truncated_at: int | None = None
    extra: Mapping[str, object] = field(default_factory=dict)

    def entry(self, y_word: tuple[int, ...]) -> LaurentPoly:
        for w, p in self.entries:
            if w == y_word:
                return p
        return ZERO

    def dims(self) -> tuple[int, int]:
        return filtration_dims(dict(self.entries))

    def to_json_obj(self) -> dict:
        nabla, delta = self.dims()
        obj: dict = {
            "setting": self.setting,
            "system": self.system,
            "I": list(self.I),
            "J": list(self.J),
            "x": format_word(self.x),
            "entries": [
                {
                    "y": format_word(w),
                    **(
                        {"weight": self.weights[w]}
                        if self.weights is not None and w in self.weights
                        else {}
                    ),
                    "poly": p.to_json_obj(),
                }
                for w, p in self.entries
            ],
            "dims": {"nabla": nabla, "delta": delta},
        }
        if self.flags:
            obj["flags"] = list(self.flags)
        if self.truncated_at is not None:
            obj["truncated_at"] = self.truncated_at
        obj.update(self.extra)
        return obj


def filtration_dims(entries: Mapping[tuple[int, ...], LaurentPoly]) -> tuple[int, int]:
    """(nabla, delta) filtration dimensions read off a multiplicity table.

    nabla is the largest exponent appearing, delta the negative of the
    smallest; a table concentrated in degree 0 has dims (0, 0) and delta = 0
    signals a complex concentrated in nonnegative degrees.
    """
    nabla = 0
    delta = 0
    for p in entries.values():
        if p:
            nabla = max(nabla, p.max_degree())
            delta = max(delta, -p.min_degree())
    return nabla, delta


class _Setting:
    """Shared index-set plumbing and table engine for all four settings.

    A setting supplies its index map: _coset_part(x) -> u and its inverse
    _embed(u) -> x.  Rows below x are read off the vectors a table solves.
    """

    setting_name = "?"

    def __init__(self, hecke: HeckeContext, I: Iterable[int], J: Iterable[int]):
        self.hecke = hecke
        self.system = hecke.system
        self.I = self.system.check_names(I)
        self.J = self.system.check_names(J)
        if not self._parabolic_is_finite(self.J):
            raise ValidationError("the subset J must generate a finite parabolic")
        self.wJ = self.system.longest_element(self.J)
        # the longest element of W_I exists only for a finite parabolic; the
        # settings that twist by it validate that before use
        self.wI = (
            self.system.longest_element(self.I)
            if self._parabolic_is_finite(self.I)
            else None
        )

    def _parabolic_is_finite(self, subset: tuple[int, ...]) -> bool:
        return self.system.is_finite or len(subset) < self.system.rank

    # coset part u of an index element; setting-specific
    def _coset_part(self, x: CoxeterElement) -> CoxeterElement:
        return self.wJ * x

    def _embed(self, u: CoxeterElement) -> CoxeterElement:
        """Index element of the coset part u."""
        # every setting twists by an involution, so the map is its own inverse
        return self._coset_part(u)

    def _n_index(self, u: CoxeterElement) -> CoxeterElement:
        """Index of the coset part u in the antispherical module."""
        return u.inverse() * self.wJ

    def _element(self, word: Sequence[int], name: str) -> CoxeterElement:
        try:
            return self.system.element(word)
        except ValueError as exc:
            raise ValidationError(f"{name}: {exc}") from exc

    def _require_member(self, x: CoxeterElement, name: str) -> CoxeterElement:
        """Validate membership in the index set; returns the coset part u."""
        u = self._coset_part(x)
        if not self._is_rep(u):
            raise ValidationError(
                f"{name} = {format_word(x.word) or 'e'} is not a dominant regular "
                f"representative for I={list(self.I)}, J={list(self.J)}"
            )
        return u

    def _index(self, word: Sequence[int], name: str = "x") -> tuple[CoxeterElement, CoxeterElement]:
        x = self._element(word, name)
        return x, self._require_member(x, name)

    def _explicit(self, y_word: Sequence[int] | None, max_len: int | None) -> tuple:
        """The validated row (y, u_y) of an explicit y_word, or (None, None); rows
        below x are finitely many, so max_len (for positive level) is rejected."""
        if max_len is not None:
            raise ValidationError("max_len applies to positive level only")
        return (None, None) if y_word is None else self._index(y_word, "y")

    def _is_rep(self, u: CoxeterElement) -> bool:
        return self.system.is_regular_double_coset_rep(u, self.J, self.I)

    def _n_entries(self, u: CoxeterElement) -> dict[CoxeterElement, LaurentPoly]:
        """The n column of the coset part u, as {coset part: entry}."""
        col = self.hecke.parabolic_column("n", self.I, self._n_index(u))
        # _n_index inverted: w_J is an involution
        return {v: p for a, p in col.items() if self._is_rep(v := (a * self.wJ).inverse())}

    def _rows_below(
        self,
        vec: Mapping[CoxeterElement, LaurentPoly],
        y: CoxeterElement | None,
        u_y: CoxeterElement | None,
    ) -> dict[CoxeterElement, tuple[CoxeterElement, LaurentPoly]]:
        """Rows read off a solved inverse vector {u^-1: entry}, as {row: (key
        u^-1, entry)}: its support lies below its seeds, so it lists every
        nonzero row of the index set."""
        if y is not None:
            a = u_y.inverse()
            return {y: (a, vec.get(a, ZERO))}
        return {self._embed(u): (a, p) for a, p in vec.items() if self._is_rep(u := a.inverse())}

    # -- table assembly with invariant enforcement ------------------------------

    def _finalize(
        self,
        x: CoxeterElement,
        rows: dict[CoxeterElement, LaurentPoly],
        explicit_y: CoxeterElement | None,
        flags: tuple[str, ...] = (),
        truncated_at: int | None = None,
        enforce: bool = True,
    ) -> MultiplicityTable:
        for y, p in rows.items() if enforce else ():
            if y == x and p != ONE:
                raise InternalInvariantError(f"diagonal multiplicity at x = {x!r} is {p!r}, not 1")
            if p and not p.has_parity(x.length + y.length):
                raise InternalInvariantError(f"multiplicity at y = {y!r} violates exponent parity")
            if not p.is_nonneg():
                raise InternalInvariantError(f"multiplicity at y = {y!r} has a negative coefficient")
        items = {
            y.word: p
            for y, p in rows.items()
            if p or (explicit_y is not None and y == explicit_y)
        }
        entries = tuple(sorted(items.items(), key=lambda t: (len(t[0]), t[0])))
        return MultiplicityTable(
            setting=self.setting_name, system=self.system.tag, I=self.I, J=self.J,
            x=x.word, entries=entries, flags=flags, truncated_at=truncated_at,
        )


class _NegativeLike(_Setting):
    """Common formulas for category O, negative-level Kac-Moody and quantum.

    Index elements are x = w_J u with u minimal in W_J\\W/W_I and I-regular
    (quantum indexes by u itself).  The standard multiplicity is the inverse
    spherical entry at the inverted coset parts; the simple row is one inverse
    spherical combination, seeded by the bar of the antispherical column of x.
    """

    cross_check = False

    def standard_table(
        self, x_word: Sequence[int], y_word: Sequence[int] | None = None, max_len: int | None = None
    ) -> MultiplicityTable:
        x, u_x = self._index(x_word)
        y, u_y = self._explicit(y_word, max_len)
        col = self.hecke.inverse_column("m", self.I, u_x.inverse())
        rows = self._rows_below(col, y, u_y)
        if self.cross_check:
            a = self._twin(u_x.inverse())  # the twin index of x
            for z, (key, p) in rows.items():
                if p:
                    self._check_antispherical_form(x, a, z, key, p)
        return self._finalize(x, {z: p for z, (_, p) in rows.items()}, y)

    def _twin(self, u: CoxeterElement) -> CoxeterElement:
        """w_I u w_0.  u w_0 is looked up by its vector, r(u w_0)_j =
        -r(u)_sigma(j), and walked only when it is not built yet; w_I is
        applied by left steps."""
        r = u.rvec
        z = self.system._by_r.get(tuple([-r[k] for k in self._flip])) or u * self.w0
        for s in reversed(self.wI.word):
            z = z.times_gen(s, "left")
        return z

    def _check_antispherical_form(self, x, a, y, key, expected) -> None:
        """Finite-type cross-check of the standard formula.

        The same multiplicity must equal the direct antispherical polynomial
        n_{a,b} at indices twisted by w_I on the left and w_J w_0 on the
        right: a = w_I x^-1 w_J w_0 and b = w_I y^-1 w_J w_0.  With x = w_J u_x
        and y = w_J u_y, these are w_I u_x^-1 w_0 and w_I key w_0 for the key
        u_y^-1 of the row, so no row is inverted.
        """
        b = self._twin(key)
        try:
            got = self.hecke.poly("n", self.I, a, b)
        except ValidationError as exc:
            raise InternalInvariantError(
                f"antispherical twin index left the module at x={x!r}, y={y!r}: {exc}"
            ) from exc
        if got != expected:
            raise InternalInvariantError(
                "standard multiplicity disagrees with its antispherical twin "
                f"at x={x!r}, y={y!r}: {expected!r} vs {got!r}"
            )

    def simple_table(
        self, x_word: Sequence[int], y_word: Sequence[int] | None = None, max_len: int | None = None
    ) -> MultiplicityTable:
        x, u_x = self._index(x_word)
        y, u_y = self._explicit(y_word, max_len)
        # the pairing is linear in bar(n): one solve seeded at x's n column
        seeds = {u.inverse(): p.bar() for u, p in self._n_entries(u_x).items()}
        row = self.hecke.inverse_combination("m", self.I, seeds)
        return self._finalize(x, {z: p for z, (_, p) in self._rows_below(row, y, u_y).items()}, y)


class CategoryO(_NegativeLike):
    """Regular-block category O of a finite Weyl type."""

    setting_name = "O"
    cross_check = True

    def __init__(self, hecke: HeckeContext, I: Iterable[int], J: Iterable[int]):
        super().__init__(hecke, I, J)
        if not self.system.is_finite:
            raise ValidationError("category O tables need a finite Weyl type")
        self.w0 = self.system.longest_element()  # the cross-check's twist
        # w0(alpha_j) = -alpha_sigma(j), with sigma the diagram involution
        m = self.w0.matrix
        self._flip = tuple(next(k for k, row in enumerate(m) if row[j]) for j in range(len(m)))


class KacMoody(_NegativeLike):
    """Affine Kac-Moody category O at negative or positive level."""

    def __init__(
        self, hecke: HeckeContext, I: Iterable[int], J: Iterable[int], level: str
    ):
        if level not in ("neg", "pos"):
            raise ValidationError(f"level must be 'neg' or 'pos', not {level!r}")
        self.level = level
        super().__init__(hecke, I, J)
        if self.system.is_finite:
            raise ValidationError("Kac-Moody tables need an affine type")
        if level == "pos" and self.wI is None:
            raise ValidationError(
                "the subset I must generate a finite parabolic at positive level"
            )

    @property
    def setting_name(self) -> str:  # type: ignore[override]
        return "KM-" if self.level == "neg" else "KM+"

    # positive level: index elements are x = u w_I with the same u conditions
    def _coset_part(self, x: CoxeterElement) -> CoxeterElement:
        return self.wJ * x if self.level == "neg" else x * self.wI

    def _targets(self, x, u_x, y_word, max_len):
        """Rows (y, u_y) of a positive-level table at x = u_x w_I, the explicit
        y and the truncation: rows run up the order, so a whole table needs
        max_len, and a bound below l(x), which would leave out x's own row
        (and every z of the literal text's sum), is refused."""
        if max_len is not None and max_len < x.length:
            raise ValidationError(
                f"max_len {max_len} is below l(x) = {x.length}, "
                "so the table would miss x's own row"
            )
        if y_word is not None:  # one row: nothing to truncate
            y, u_y = self._index(y_word, "y")
            return [(y, u_y)], y, None
        if max_len is None:
            raise ValidationError(
                "positive-level tables over all y need max_len (support is upward)"
            )
        reps, truncated = self.system.regular_double_coset_reps(
            self.J, self.I, max_len=max_len - self.wI.length
        )
        rows = [(self._embed(u), u) for u in reps if self.system.bruhat_leq(u_x, u)]
        return rows, None, (max_len if truncated else None)

    def standard_table(self, x_word, y_word=None, max_len: int | None = None):
        if self.level == "neg":
            return super().standard_table(x_word, y_word, max_len)
        x, u_x = self._index(x_word)
        a = self._n_index(u_x)
        targets, explicit, truncated = self._targets(x, u_x, y_word, max_len)
        rows = {
            y: self.hecke.parabolic_column("n", self.I, self._n_index(u_y)).get(a, ZERO)
            for y, u_y in targets
        }
        return self._finalize(x, rows, explicit, truncated_at=truncated)

    def simple_table(self, x_word, y_word=None, max_len: int | None = None, literal_text: bool = False):
        if self.level == "neg":
            if literal_text:
                raise ValidationError("literal_text applies to positive level only")
            return super().simple_table(x_word, y_word, max_len)
        x, u_x = self._index(x_word)
        targets, explicit, truncated = self._targets(x, u_x, y_word, max_len)
        if literal_text:
            return self._literal_table(x, u_x, targets, explicit, max_len)
        # every z with x <= z <= y is a row of the whole table (it lies above x
        # and is no longer than y); one explicit y keeps the z of its n column
        # above x, since m^{z,x} is zero for the others
        if explicit is None:
            zs = [u for _, u in targets]
        else:
            zs = [u for u in self._n_entries(targets[0][1]) if self.system.bruhat_leq(u_x, u)]
        # bar(m^{z,x}) by the n index of z; an inverse entry is zero unless x <= z
        bar_m = {}
        for u in zs:
            m = self.hecke.inverse_column("m", self.I, u.inverse()).get(u_x.inverse(), ZERO)
            if not m.has_parity(u_x.length - u.length):  # l(x) - l(z), z = u w_I
                raise InternalInvariantError(
                    f"parity certificate failed in the simple-object formula at z={self._embed(u)!r}"
                )
            if m:
                bar_m[self._n_index(u)] = (u, m.bar().terms)
        rows = {}
        for y, u_y in targets:
            total: dict[int, int] = {}
            for a, n in self.hecke.parabolic_column("n", self.I, self._n_index(u_y)).items():
                if a in bar_m:
                    _mac(total, n, bar_m[a][1])
            rows[y] = LaurentPoly(total)
        return self._finalize(x, rows, explicit, truncated_at=truncated)

    def _literal_table(self, x, u_x, targets, explicit, max_len):
        """z-independent second factor, as printed; needs its own cutoff."""
        if max_len is None:
            raise ValidationError("literal_text needs max_len for its z-sum")
        reps, _ = self.system.regular_double_coset_reps(self.J, self.I, max_len=max_len)
        # sum_z bar(m^{z,x}) does not depend on y: one push seeded at every z
        # (m^{z,x} is zero unless x <= z)
        m_sum = self.hecke.inverse_combination("m", self.I, {u.inverse(): ONE for u in reps})
        m_bar = m_sum.get(u_x.inverse(), ZERO).bar()
        a = self._n_index(u_x)
        rows = {
            y: self.hecke.parabolic_column("n", self.I, self._n_index(u_y)).get(a, ZERO) * m_bar
            for y, u_y in targets
        }
        return self._finalize(
            x, rows, explicit, flags=("literal-positive-text",), truncated_at=max_len, enforce=False
        )


class Quantum(_NegativeLike):
    """Quantum group at a root of unity: tilting modules over one linkage class.

    Constructed from a finite type and the order l of the root of unity; the
    Coxeter system is the (possibly dual) affinization from the linkage datum.
    Queries take either an index word x or a dominant weight.  Index elements
    are the coset parts u themselves, with J the finite generators, so the
    negative-level formulas apply unchanged.
    """

    setting_name = "quantum"

    def __init__(
        self,
        datum: LinkageDatum,
        I: Iterable[int],
        store: PolyStore | None = None,
    ):
        self.datum = datum
        self.finite_names = tuple(range(1, datum.roots.rank + 1))
        super().__init__(HeckeContext(datum.coxeter, store), I, self.finite_names)
        self.lam0: tuple[int, ...] | None = None

    @classmethod
    def from_weight(
        cls, type_tag: str, ell: int, weight: Sequence[int], store: PolyStore | None = None
    ) -> tuple["Quantum", CoxeterElement]:
        """Build the setting of a dominant weight; returns it and the index x."""
        from .rootdata import LinkageDatum, format_weight

        datum = LinkageDatum(type_tag, ell)
        if len(weight) != datum.roots.rank:
            raise ValidationError(
                f"weight {format_weight(weight)} needs {datum.roots.rank} "
                f"coordinates for type {type_tag}, not {len(weight)}"
            )
        if not datum.is_dominant(weight):
            raise ValidationError(
                f"weight {format_weight(weight)} is not dominant"
            )
        x, lam0, I = datum.alcove_normalize(weight)
        setting = cls(datum, I, store=store)
        setting.lam0 = tuple(lam0)
        try:
            setting._require_member(x, "x")
        except ValidationError as exc:
            raise ValidationError(
                f"weight {format_weight(weight)} is not in a regular linkage "
                f"position: {exc}"
            ) from exc
        return setting, x

    def _coset_part(self, x: CoxeterElement) -> CoxeterElement:
        return x

    def _echo(self, table: MultiplicityTable) -> MultiplicityTable:
        """Attach the weight of every row and of x, when built from a weight."""
        if self.lam0 is None:
            return table
        from .rootdata import format_weight

        # the weight of a word is its first letter acting on the weight of
        # its tail: each tail is reached once per table
        dot_simple, weight_of = self.datum.dot_simple, {(): self.lam0}

        def weight(word):
            k = 0
            while word[k:] not in weight_of:
                k += 1
            mu = weight_of[word[k:]]
            for j in range(k - 1, -1, -1):
                mu = weight_of[word[j:]] = dot_simple(word[j], mu)
            return format_weight(mu)

        return replace(
            table,
            weights={w: weight(w) for w, _ in table.entries},
            extra={
                "lambda": weight(table.x),
                "lambda0": format_weight(self.lam0),
                "stabilizer": list(self.I),
            },
        )

    def standard_table(self, x_word, y_word=None, max_len: int | None = None):
        return self._echo(super().standard_table(x_word, y_word, max_len))

    def simple_table(self, x_word, y_word=None, max_len: int | None = None):
        return self._echo(super().simple_table(x_word, y_word, max_len))
