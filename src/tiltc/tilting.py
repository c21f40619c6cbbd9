"""Graded tilting multiplicities in minimal complexes of standards and simples.

Each setting (category O of a semisimple Lie algebra, affine Kac-Moody
category O at negative or positive level, quantum groups at a root of unity)
indexes its regular-linkage objects by twisted cosets x in w_J * (J-and-I
minimal, I-regular) representatives of one Coxeter system, and the graded
multiplicity of the tilting object T_y in the minimal complex C_min of a
standard object Delta_x or simple object L_x is a single inverse parabolic
Kazhdan-Lusztig polynomial, or a pairing of a direct family with an
inverse family.  Rows are keyed by k = u^-1 for u the coset part of an index
element (x = w_J u, x = u w_I at positive level, x = u for quantum), the
index that every Hecke query of a table takes:

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

One base class, _NegativeLike, holds the index plumbing and the one table
routine, _table, of O, KM- and quantum (KM+ builds its tables upward).  It
reads rows in the module of J exactly when I = () and J != (), else in the
module of I; only the I side with J != () can read an entry that is not a
key, so only it runs the key test is_regular_double_coset_rep.

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


class _NegativeLike:
    """The base of every setting: index plumbing and the table routine of
    category O, negative-level Kac-Moody and quantum.

    Index elements are x = w_J u with u minimal in W_J\\W/W_I and I-regular
    (quantum indexes by u itself).  A setting declares one twist by an
    involution, _twist; the key of an index x is the twist of x^-1, the
    index of a key is the inverse of its twist, and the keys are the regular
    representatives of W_I\\W/W_J.  The standard row is one inverse column
    and the simple row one inverse combination, seeded by the bar of the
    antispherical column of x, read by one row reader per side: _j_rows
    exactly when I = () and J != (), else _i_rows.
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
        self._j_side = bool(self.J) and not self.I

    def _parabolic_is_finite(self, subset: tuple[int, ...]) -> bool:
        return self.system.is_finite or len(subset) < self.system.rank

    def _twist(self, k: CoxeterElement) -> CoxeterElement:
        """k w_J: index elements are x = w_J u, so x^-1 w_J = u^-1."""
        return k * self.wJ

    def _index_of(self, k: CoxeterElement) -> CoxeterElement:
        return self._twist(k).inverse()

    def _element(self, word: Sequence[int], name: str) -> CoxeterElement:
        try:
            return self.system.element(word)
        except ValueError as exc:
            raise ValidationError(f"{name}: {exc}") from exc

    def _index(self, word: Sequence[int], name: str = "x") -> tuple[CoxeterElement, CoxeterElement]:
        """The element of word and its key, validated as a member of the index set."""
        x = self._element(word, name)
        k = self._twist(x.inverse())
        if not self._is_key(k):
            raise ValidationError(
                f"{name} = {format_word(x.word) or 'e'} is not a dominant regular "
                f"representative for I={list(self.I)}, J={list(self.J)}"
            )
        return x, k

    def _is_key(self, k: CoxeterElement) -> bool:
        return self.system.is_regular_double_coset_rep(k, self.I, self.J)

    def _n_entries(self, k: CoxeterElement) -> Mapping[CoxeterElement, LaurentPoly]:
        """The n column of the key k, at k w_J, as {key: entry}; with J = ()
        every entry of it is a key."""
        col = self.hecke.parabolic_column("n", self.I, k * self.wJ)
        if not self.J:
            return col
        return {b: p for a, p in col.items() if self._is_key(b := a * self.wJ)}

    def _table(self, x_word, y_word, max_len, simple: bool) -> MultiplicityTable:
        """The standard or simple table at x, or its row at y alone; rows
        below x are finitely many, so max_len (for positive level) is
        rejected.  The O twin check sees the standard rows."""
        x, k_x = self._index(x_word)
        if max_len is not None:
            raise ValidationError("max_len applies to positive level only")
        y, k_y = (None, None) if y_word is None else self._index(y_word, "y")
        rows = (self._j_rows if self._j_side else self._i_rows)(k_x, simple, y, k_y)
        if not simple:
            self._check_rows(x, k_x, rows)
        return self._finalize(x, {z: p for z, (_, p) in rows.items()}, y)

    def _i_rows(self, k_x, simple, y, k_y):
        """Rows {row: (key, entry)} in the module of I: the m^I inverse column
        at k_x, or the m^I inverse combination seeded by bar of x's n column.
        A push only goes down, so the solved vector lists every nonzero row.
        Its entries lie in ^I W, so with J = () each is a key: only J != ()
        tests them.  An explicit y reads its one entry."""
        if simple:
            seeds = {k: p.bar() for k, p in self._n_entries(k_x).items()}
            vec = self.hecke.inverse_combination("m", self.I, seeds)
        else:
            vec = self.hecke.inverse_column("m", self.I, k_x)
        if y is not None:
            return {y: (k_y, vec.get(k_y, ZERO))}
        free = not self.J
        return {self._index_of(k): (k, p) for k, p in vec.items() if free or self._is_key(k)}

    def _j_rows(self, k_x, simple, y, k_y):
        """Rows {row: (key, entry)} read in the module of J, over the
        t = k^-1 in ^J W, |W_J| times smaller than W.  h^{k_x,k} is the n^J
        inverse entry at (t_x, t) (Soergel 1997: the inverse antispherical
        family is h^-1 on ^J W), and the n column at k_x w_J has m^J_{t,t_x}
        at k w_J (Deodhar 1987, h_{a,y} = h_{a^-1,y^-1}).  So the standard
        row is the n^J inverse column at t_x and the simple row the n^J
        inverse combination seeded by bar(m^J_{.,t_x}).  Each entry a is the
        key a^-1, untested: a^-1 is right J-minimal and I is empty."""
        t = k_x.inverse()
        if simple:
            seeds = {a: p.bar() for a, p in self.hecke.parabolic_column("m", self.J, t).items()}
            vec = self.hecke.inverse_combination("n", self.J, seeds)
        else:
            vec = self.hecke.inverse_column("n", self.J, t)
        if y is not None:
            return {y: (k_y, vec.get(k_y.inverse(), ZERO))}
        return {self._index_of(k := a.inverse()): (k, p) for a, p in vec.items()}

    def standard_table(self, x_word, y_word=None, max_len: int | None = None) -> MultiplicityTable:
        return self._table(x_word, y_word, max_len, False)

    def _check_rows(self, x, k_x, rows) -> None:
        """A second route for the rows {row: (key, entry)} of a standard
        table at x; a setting without one checks nothing here."""

    def simple_table(self, x_word, y_word=None, max_len: int | None = None) -> MultiplicityTable:
        return self._table(x_word, y_word, max_len, True)

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
        if enforce and explicit_y is None and x not in rows:
            raise InternalInvariantError(f"the whole table at x = {x!r} has no row at x")
        for y, p in rows.items() if enforce else ():
            if y == x and p != ONE:
                raise InternalInvariantError(f"diagonal multiplicity at x = {x!r} is {p!r}, not 1")
            if p and not p.has_parity(x.length + y.length):
                raise InternalInvariantError(f"multiplicity at y = {y!r} violates exponent parity")
            if not p.is_nonneg():
                raise InternalInvariantError(f"multiplicity at y = {y!r} has a negative coefficient")
        self.system._spell(rows)  # the row words, read with one memo
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


class CategoryO(_NegativeLike):
    """Regular-block category O of a finite Weyl type."""

    setting_name = "O"

    def __init__(self, hecke: HeckeContext, I: Iterable[int], J: Iterable[int]):
        super().__init__(hecke, I, J)
        if not self.system.is_finite:
            raise ValidationError("category O tables need a finite Weyl type")

    def _check_rows(self, x, k_x, rows) -> None:
        a = self._twin(k_x)  # the twin index of x
        for z, (k, p) in rows.items():
            if p:
                self._check_antispherical_form(x, a, z, k, p)

    def _twin(self, k: CoxeterElement) -> CoxeterElement:
        """w_I k w_0: k w_0 from the system, then w_I by left steps."""
        z = self.system.times_longest(k)
        for s in reversed(self.wI.word):
            z = z.times_gen(s, "left")
        return z

    def _check_antispherical_form(self, x, a, y, k, expected) -> None:
        """Finite-type cross-check of the standard formula.

        The same multiplicity must equal the direct antispherical polynomial
        n_{a,b} at indices twisted by w_I on the left and w_J w_0 on the
        right: a = w_I x^-1 w_J w_0 and b = w_I y^-1 w_J w_0, that is
        w_I k_x w_0 and w_I k w_0 for the keys k_x of x and k of the row y.
        """
        b = self._twin(k)
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

    def _twist(self, k: CoxeterElement) -> CoxeterElement:
        """At positive level index elements are x = u w_I, so u^-1 = w_I x^-1:
        the twist w_I k, walked as (k^-1 w_I)^-1 along the word of w_I."""
        return super()._twist(k) if self.level == "neg" else (k.inverse() * self.wI).inverse()

    def _targets(self, x, k_x, y_word, max_len):
        """Rows (y, k_y) of a positive-level table at x = u_x w_I, the explicit
        y and the truncation: rows run up the order, so a whole table needs
        max_len, and a bound below l(x), which would leave out x's own row
        (and every z of the literal text's sum), is refused."""
        if max_len is not None and max_len < x.length:
            raise ValidationError(
                f"max_len {max_len} is below l(x) = {x.length}, "
                "so the table would miss x's own row"
            )
        if y_word is not None:  # one row: nothing to truncate
            y, k_y = self._index(y_word, "y")
            return [(y, k_y)], y, None
        if max_len is None:
            raise ValidationError(
                "positive-level tables over all y need max_len (support is upward)"
            )
        keys, truncated = self.system.regular_double_coset_reps(
            self.I, self.J, max_len=max_len - self.wI.length
        )
        # inversion keeps the index set and the Bruhat order
        rows = [(self._index_of(k), k) for k in keys if self.system.bruhat_leq(k_x, k)]
        return rows, None, (max_len if truncated else None)

    def _n_rows(self, k_x, targets) -> dict[CoxeterElement, LaurentPoly]:
        """n_{x,y} at every row (y, k_y): the n entry at (k_x w_J, k_y w_J)."""
        a = k_x * self.wJ
        return {y: self.hecke.poly("n", self.I, a, k_y * self.wJ) for y, k_y in targets}

    def standard_table(self, x_word, y_word=None, max_len: int | None = None):
        if self.level == "neg":
            return self._table(x_word, y_word, max_len, False)
        x, k_x = self._index(x_word)
        targets, explicit, truncated = self._targets(x, k_x, y_word, max_len)
        return self._finalize(x, self._n_rows(k_x, targets), explicit, truncated_at=truncated)

    def simple_table(self, x_word, y_word=None, max_len: int | None = None, literal_text: bool = False):
        if self.level == "neg":
            if literal_text:
                raise ValidationError("literal_text applies to positive level only")
            return self._table(x_word, y_word, max_len, True)
        x, k_x = self._index(x_word)
        targets, explicit, truncated = self._targets(x, k_x, y_word, max_len)
        if literal_text:
            return self._literal_table(x, k_x, targets, explicit, max_len)
        # every z with x <= z <= y is a row of the whole table (it lies above x
        # and is no longer than y); one explicit y keeps the z of its n column
        # above x, since m^{z,x} is zero for the others
        if explicit is None:
            zs = [k for _, k in targets]
        else:
            zs = [k for k in self._n_entries(targets[0][1]) if self.system.bruhat_leq(k_x, k)]
        # bar(m^{z,x}) by the id of the n index of z; an inverse entry is zero
        # unless x <= z
        bar_m = {}
        for k in zs:
            m = self.hecke.inverse_column("m", self.I, k).get(k_x, ZERO)
            if not m.has_parity(k_x.length - k.length):  # l(x) - l(z), z = u w_I
                raise InternalInvariantError(
                    f"parity certificate failed in the simple-object formula at z={self._index_of(k)!r}"
                )
            if m:
                bar_m[(k * self.wJ).id] = m.bar().terms
        rows = {}
        for y, k_y in targets:
            # each row reads its n column only at the ids of bar_m
            total: dict[int, int] = {}
            for a, n in self.hecke.entries("n", self.I, k_y * self.wJ, bar_m).items():
                _mac(total, n, bar_m[a])
            rows[y] = LaurentPoly(total)
        return self._finalize(x, rows, explicit, truncated_at=truncated)

    def _literal_table(self, x, k_x, targets, explicit, max_len):
        """z-independent second factor, as printed; needs its own cutoff."""
        if max_len is None:
            raise ValidationError("literal_text needs max_len for its z-sum")
        keys, _ = self.system.regular_double_coset_reps(self.I, self.J, max_len=max_len)
        # sum_z bar(m^{z,x}) does not depend on y: one push seeded at every z
        # (m^{z,x} is zero unless x <= z)
        m_sum = self.hecke.inverse_combination("m", self.I, dict.fromkeys(keys, ONE))
        m_bar = m_sum.get(k_x, ZERO).bar()
        rows = {y: p * m_bar for y, p in self._n_rows(k_x, targets).items()}
        return self._finalize(
            x, rows, explicit, flags=("literal-positive-text",), truncated_at=max_len, enforce=False
        )


class Quantum(_NegativeLike):
    """Quantum group at a root of unity: tilting modules over one linkage class.

    Constructed from a finite type and the order l of the root of unity; the
    Coxeter system is the (possibly dual) affinization from the linkage datum.
    Queries take either an index word x or a dominant weight.  Index elements
    are the coset parts u themselves, so the twist is the identity, and with
    J the finite generators the negative-level formulas apply unchanged.
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
            setting._index(x.word, "x")
        except ValidationError as exc:
            raise ValidationError(
                f"weight {format_weight(weight)} is not in a regular linkage "
                f"position: {exc}"
            ) from exc
        return setting, x

    def _twist(self, k: CoxeterElement) -> CoxeterElement:
        return k

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
        return self._echo(self._table(x_word, y_word, max_len, False))

    def simple_table(self, x_word, y_word=None, max_len: int | None = None):
        return self._echo(self._table(x_word, y_word, max_len, True))
