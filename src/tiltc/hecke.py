"""Hecke algebras, parabolic modules, and self-dual bases.

Normalization: the standard basis {H_x} satisfies, for a simple reflection s,

    H_x H_s = H_{xs}                      if len(xs) > len(x),
    H_x H_s = H_{xs} + (v^-1 - v) H_x     otherwise,

so H_s^2 = H_e + (v^-1 - v) H_s and H_s^{-1} = H_s + (v - v^-1) H_e.  The bar
involution fixes each H_s and sends v to v^-1.  The self-dual basis element
C_y = sum_x h_{x,y} H_x has h_{y,y} = 1 and h_{x,y} in v*Z[v] for x < y;
C_s = H_s + v H_e.

Parabolic quotient modules over a subset I of the generators come in two
flavors, by the scalar H_s acts by on a basis vector whose product with s
leaves the minimal-coset index set: 'spherical' (v^-1, so C_s acts by
v + v^-1) and 'antispherical' (-v, so C_s kills the vector).  Their self-dual
bases give the families m^I and n^I; with I = () either module is the Hecke
algebra, and such columns are held as h.

One routine builds every m and n column: with s the smallest right descent
of y, C_{ys} C_s = C_y + sum_u mu(u, ys) C_u over the u with us < u
(Kazhdan-Lusztig 1979; Soergel 1997, Prop. 3.4).  Off the diagonal C_{ys}
lies in v*Z[v], and C_s acts on a basis vector by 1, v, v^-1, v + v^-1 or 0,
so the only part of the product outside v*Z[v] is a constant c = mu at some
u != y, and subtracting c C_u changes no other constant term.

An h column is read off a spherical one.  With K = L(y), which generates a
finite parabolic, and y = w_K y', h_{x,y} = v h_{sx,y} for s in K with
sx > x (Kazhdan-Lusztig 1979) and h_{w_K x', w_K y'} = m^K_{x',y'}
(Deodhar 1987), so h_{u x',y} = v^(l(w_K) - l(u)) m^K_{x',y'} for u in W_K.
Every computed column is checked to be unitriangular over v*Z[v].  A single
h entry (poly, mu) is read off the m^K column without expansion: no h
column is built or memoized, and the one entry is checked instead.

The inverse families come by signed unitriangular inversion of the direct
ones: inverse_combination pushes sum_a c_a fam^{a,.} down the lengths from
every seed a at once, checks the parity of every direct entry it reads, and
checks the inversion identity once.  They are never stored, as a stored one
would need that check, which costs about as much as the push.

Arithmetic is fused: columns, the inversion residue and bar expansions are
summed as raw {element id: {exponent: coefficient}} dicts by laurent._mac,
and each entry becomes a LaurentPoly once, interned per HeckeContext, when
the column is finished.  Loops step elements through their step slots (see
coxeter); public columns are keyed by elements of the context's own system,
and an element of another system with the same tag is re-read by its word.

Family keys: ("h", ()), ("m", I), ("n", I) and the inverse families
("h_inv", ()), ("m_inv", I), ("n_inv", I).
"""

from __future__ import annotations

import fcntl
import glob
import hashlib
import json
import os
import tempfile
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path
from typing import Iterator, Mapping

from .coxeter import CoxeterElement, CoxeterSystem, format_word, parse_word
from .errors import CacheError, InternalInvariantError, ValidationError
from .laurent import ONE, V, ZERO, LaurentPoly, Terms, _mac

__all__ = ["HeckeContext", "PolyStore", "family_id", "DIRECT_FAMILIES", "INVERSE_FAMILIES"]

Coords = dict[CoxeterElement, LaurentPoly]
# a column being summed: {element id: raw {exponent: coefficient}}, zeros allowed
Raw = defaultdict[int, dict[int, int]]

V_INV = LaurentPoly.v(-1)
V_MINUS_VINV = V - V_INV  # v - v^-1
VINV_MINUS_V = V_INV - V

DIRECT_FAMILIES = ("h", "m", "n")
INVERSE_FAMILIES = ("h_inv", "m_inv", "n_inv")


def family_id(fam: str, I: tuple[int, ...]) -> str:
    """Canonical string id of a polynomial family, e.g. 'n[1,2]' or 'h'."""
    if fam in ("h", "h_inv"):
        return fam
    return f"{fam}[{','.join(str(s) for s in I)}]"


Step = tuple[Terms, Terms, Terms]


def _step(a: LaurentPoly, scalar: LaurentPoly = ZERO) -> Step:
    """The terms (up, down, stay) of the action of H_s + a on a basis vector.

    H_x (H_s + a) is H_xs + up H_x when xs > x, H_xs + down H_x when xs < x,
    and stay H_x when xs leaves a parabolic index set (scalar is the value of
    H_s there).
    """
    return a.terms, (a + VINV_MINUS_V).terms, (a + scalar).terms


# multiplication by C_s = H_s + v, and by bar(H_s) = H_s^-1 = H_s + (v - v^-1);
# m is the spherical module (H_s acts by v^-1 off the index set), n the
# antispherical one (-v, so C_s kills the vector)
_KL_STEP = {"m": _step(V, V_INV), "n": _step(V, -V)}
_BAR_STEP = {
    "h": _step(V_MINUS_VINV),
    "m": _step(V_MINUS_VINV, V_INV),
    "n": _step(V_MINUS_VINV, -V),
}
_ONE_TERMS = ONE.terms
_BITS = (frozenset({0}), frozenset({1}))  # the exponents mod 2 an entry may have


def _neg(terms: Terms) -> Terms:
    return tuple((e, -c) for e, c in terms)


@contextmanager
def _store_lock(path: Path) -> Iterator[None]:
    """Hold the exclusive flock on the sidecar ``<name>.lock`` of a store file."""
    with open(path.with_name(path.name + ".lock"), "a") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)  # released when the file closes
        yield


class PolyStore:
    """Persistent column store for the direct families of one system.

    File format: one JSON header line {"format", "normalization", "system",
    "generators", "records", "checksum"}, then one JSON line per stored
    column.  The checksum is the sha256 of the record lines.  ``format``
    versions the file layout and ``normalization`` the meaning of the stored
    polynomials (the module docstring); a file with another version of either
    is refused.

    Records are converted lazily: ``load`` checks the header and the
    checksum and decodes each record line once, keeping the line and its
    decoded entries; ``get_column`` turns a record's entries into
    polynomials and words the first time a query asks for it, each distinct
    word text once per store (columns share most of their lower words).
    ``save`` writes a record nobody read back as its line, which is already
    canonical (sorted keys, compact separators), so the bytes written do not
    depend on what was read.

    A save holds an exclusive flock on the sidecar file ``<name>.lock``, and
    under it merges the records on disk with this store's, so concurrent
    writers lose no column; a record on disk that differs from this store's
    for the same column is a CacheError.  ``clear`` takes the same lock.

    HeckeContext reads m[K] and n[I] records with K and I non-empty only; h
    is read off m^{L(y)}.  The h, m[], n[] and inverse records of files
    written by older versions are validated by ``load`` like any other record
    and then dropped, so a save does not write them back.
    """

    FORMAT = 1
    NORMALIZATION = 1

    def __init__(self, system_tag: str, generators: int):
        self.system_tag = system_tag
        self.generators = generators
        # family id -> upper word -> (the record line as read, its decoded
        # entries), or the converted column {lower word -> poly}
        self.columns: dict[
            str, dict[tuple[int, ...], tuple[str, dict] | dict[tuple[int, ...], LaurentPoly]]
        ] = {}
        self.dirty = False
        self._words: dict[str, tuple[int, ...]] = {}

    def _word(self, text: str) -> tuple[int, ...]:
        """parse_word, once per distinct text."""
        word = self._words.get(text)
        if word is None:
            word = self._words[text] = parse_word(text)
        return word

    def get_column(self, fam_id: str, upper: tuple[int, ...]):
        col = self.columns.get(fam_id, {}).get(upper)
        if isinstance(col, tuple):
            try:
                col = {
                    self._word(k): LaurentPoly.from_json_obj(v)
                    for k, v in col[1].items()
                }
            except (AttributeError, KeyError, TypeError, ValueError) as exc:
                raise CacheError(f"cache key parse failure: {exc}") from exc
            self.columns[fam_id][upper] = col
        return col

    def put_column(self, fam_id: str, upper: tuple[int, ...], col: dict[tuple[int, ...], LaurentPoly]) -> None:
        fam = self.columns.setdefault(fam_id, {})
        if upper not in fam:
            fam[upper] = dict(col)
            self.dirty = True

    @staticmethod
    def _line(fam_id: str, upper: tuple[int, ...], col) -> str:
        """The record line of a column; an unread record keeps its line."""
        if isinstance(col, tuple):
            return col[0]
        rec = {
            "family": fam_id,
            "upper": format_word(upper),
            "entries": {
                format_word(low): col[low].to_json_obj()
                for low in sorted(col, key=lambda w: (len(w), w))
            },
        }
        return json.dumps(rec, separators=(",", ":"), sort_keys=True)

    def save(self, path: str | Path) -> None:
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        with _store_lock(path):
            records = {
                (fam_id, upper): self._line(fam_id, upper, col)
                for fam_id, fam in self.columns.items()
                for upper, col in fam.items()
            }
            if path.exists():
                on_disk = self.load(path, self.system_tag, self.generators)
                for fam_id, fam in on_disk.columns.items():
                    for upper, (line, _) in fam.items():
                        if records.setdefault((fam_id, upper), line) != line:
                            raise CacheError(
                                f"cache file holds a different {fam_id} column "
                                f"at {format_word(upper) or 'e'}"
                            )
            body = "\n".join(
                records[k] for k in sorted(records, key=lambda k: (k[0], len(k[1]), k[1]))
            )
            header = json.dumps(
                {
                    "format": self.FORMAT,
                    "normalization": self.NORMALIZATION,
                    "system": self.system_tag,
                    "generators": self.generators,
                    "records": len(records),
                    "checksum": hashlib.sha256(body.encode()).hexdigest(),
                },
                separators=(",", ":"),
                sort_keys=True,
            )
            # a temp file of its own, so a writer that ignores the lock never
            # renames another's half-written file into place
            fd, tmp = tempfile.mkstemp(
                prefix=f".{path.name}.", suffix=".tmp", dir=path.parent
            )
            try:
                with os.fdopen(fd, "w") as fh:
                    os.fchmod(fh.fileno(), 0o644)  # mkstemp creates 0600
                    fh.write(header + "\n" + body + ("\n" if body else ""))
                os.replace(tmp, path)
            except BaseException:
                os.unlink(tmp)
                raise
        self.dirty = False

    @staticmethod
    def clear(path: str | Path) -> bool:
        """Remove a store file and the temp files of killed saves; return
        whether the file existed.  The lock file stays.  Both go under the
        lock, so a save in flight renames its file into place first, and
        every temp file left is stale."""
        path = Path(path)
        with _store_lock(path):
            for tmp in path.parent.glob(glob.escape(f".{path.name}.") + "*.tmp"):
                tmp.unlink()
            existed = path.exists()
            path.unlink(missing_ok=True)
        return existed

    @classmethod
    def load(cls, path: str | Path, system_tag: str, generators: int) -> "PolyStore":
        path = Path(path)
        text = path.read_text()
        head, _, body = text.partition("\n")
        body = body.rstrip("\n")
        try:
            header = json.loads(head)
        except json.JSONDecodeError as exc:
            raise CacheError(f"cache header unreadable: {exc}") from exc
        if header.get("format") != cls.FORMAT:
            raise CacheError(f"cache format version mismatch: {header.get('format')!r}")
        if header.get("normalization") != cls.NORMALIZATION:
            raise CacheError(
                "cache polynomial normalization version mismatch: "
                f"{header.get('normalization')!r}, expected {cls.NORMALIZATION}"
            )
        if header.get("system") != system_tag or header.get("generators") != generators:
            raise CacheError(
                f"cache is for system {header.get('system')!r}, not {system_tag!r}"
            )
        if hashlib.sha256(body.encode()).hexdigest() != header.get("checksum"):
            raise CacheError("cache checksum failure")
        store = cls(system_tag, generators)
        for line in body.split("\n") if body else ():
            try:
                rec = json.loads(line)
                fam_id = rec["family"]
                upper = store._word(rec["upper"])
                if not isinstance(fam_id, str) or not isinstance(rec["entries"], dict):
                    raise ValueError(f"malformed record {line[:60]!r}")
            except (AttributeError, KeyError, TypeError, ValueError) as exc:
                raise CacheError(f"cache key parse failure: {exc}") from exc
            if cls._is_read(fam_id):
                store.columns.setdefault(fam_id, {})[upper] = (line, rec["entries"])
        return store

    @staticmethod
    def _is_read(fam_id: str) -> bool:
        """Whether a query reads records of a family: m[K] or n[I], non-empty."""
        return fam_id[:2] in ("m[", "n[") and fam_id[2:] != "]"


class HeckeContext:
    """All polynomial families attached to one Coxeter system, memoized.

    An optional PolyStore persists the m and n columns (serialize with
    store.save); one read from it passes the checks of _check_column or
    raises CacheError.  h columns are read off m columns and inverse columns
    are pushed; neither is stored.  All public results are columns: maps
    {lower element -> polynomial} attached to an upper element.
    """

    def __init__(self, system: CoxeterSystem, store: PolyStore | None = None):
        self.system = system
        if store is not None and (store.system_tag, store.generators) != (system.tag, system.rank):
            raise CacheError("store does not match the system")
        self.store = store
        self._columns: dict[tuple[str, tuple[int, ...]], Coords] = {}
        self._bar_par: dict[tuple, Coords] = {}
        self._walks: dict[int, tuple[int, list[tuple[int, int, int, int]]]] = {}
        # every polynomial this context finishes, by its terms: equal column
        # entries are one shared object
        self._polys: dict[Terms, LaurentPoly] = {ZERO.terms: ZERO, ONE.terms: ONE}

    # -- raw accumulation ------------------------------------------------------

    def _intern(self, acc: dict[int, int]) -> LaurentPoly:
        """The finished polynomial of a raw sum, shared within this context.

        A sum that cancels to nothing finishes as the ZERO object itself.
        """
        if 0 in acc.values():
            acc = {e: c for e, c in acc.items() if c}
        terms = tuple(sorted(acc.items()))
        p = self._polys.get(terms)
        if p is None:
            p = self._polys[terms] = LaurentPoly._from_terms(terms)
        return p

    def _finish(self, acc: Raw) -> Coords:
        """The column of a raw sum, keyed by element, zero entries dropped."""
        by_id = self.system._by_id
        return {by_id[u]: p for u, d in acc.items() if (p := self._intern(d)) is not ZERO}

    def _own(self, x: CoxeterElement) -> CoxeterElement:
        """x as an element of this context's system, re-read by its word."""
        if x.system is self.system:
            return x
        if x.system.tag != self.system.tag:
            raise ValidationError(f"element {x!r} is not of system {self.system.tag}")
        return self.system.element(x.word)

    # -- multiplication by a generator -----------------------------------------

    def _rmul_gen_par(
        self, acc: Raw, coords: Coords, s: int, I: tuple[int, ...], step: Step
    ) -> None:
        """Add coords * (H_s + a), step = _step(a, scalar), into acc; I = () is the algebra."""
        up, down, stay = step
        W = self.system
        i, mask = W._idx[s], W.mask(I)
        for x, p in coords.items():
            xs = x._succ[i] or x.times_gen(s, "right")
            if xs.ldesc & mask:
                _mac(acc[x.id], p, stay)
            else:
                _mac(acc[xs.id], p, _ONE_TERMS)
                _mac(acc[x.id], p, up if xs.length > x.length else down)

    # -- self-dual basis columns -----------------------------------------------

    def kl_column(self, y: CoxeterElement) -> Coords:
        """Coordinates {x: h_{x,y}} of the self-dual basis element C_y."""
        return self._direct_column("h", (), self._own(y))

    def parabolic_column(self, fam: str, I: tuple[int, ...], y: CoxeterElement) -> Coords:
        """Self-dual basis column of the parabolic module ('m' or 'n')."""
        y = self._own(y)
        I = self.system.check_names(I)
        if fam not in ("m", "n"):
            raise ValidationError(f"unknown parabolic family {fam!r}")
        if y.ldesc & self.system.mask(I):
            raise ValidationError(
                f"{format_word(y.word) or 'e'} is not a minimal coset representative for I={list(I)}"
            )
        # with I = () either module is the Hecke algebra: its column is h
        return self._direct_column(fam if I else "h", I, y)

    def _direct_column(self, fam: str, I: tuple[int, ...], y: CoxeterElement) -> Coords:
        """The column of C_y in the module of (fam, I), memoized: for m and n
        C_{ys} C_s less mu C_u, read from and written to the store when there
        is one; for h the expansion of m^{L(y)} (module docstring)."""
        key = (family_id(fam, I), y.word)
        col = self._columns.get(key)
        if col is not None:
            return col
        stored = self.store is not None and fam != "h"
        raw = self.store.get_column(*key) if stored else None
        if raw is not None:
            col = {self.system.element(w): p for w, p in raw.items()}
        elif y.is_identity():
            col = {self.system.identity: ONE}
        elif fam == "h":
            col = self._expand_spherical(y)
        else:
            s = min(y.right_descents())
            acc: Raw = defaultdict(dict)
            base = self._direct_column(fam, I, y.times_gen(s, "right"))
            self._rmul_gen_par(acc, base, s, I, _KL_STEP[fam])
            by_id = self.system._by_id
            for u, d in list(acc.items()):
                if u != y.id and (c := d.get(0)):
                    minus_c = ((0, -c),)
                    for z, q in self._direct_column(fam, I, by_id[u]).items():
                        _mac(acc[z.id], q, minus_c)
            col = self._finish(acc)
        self._check_column(col, y, key[0], loaded=raw is not None)
        if stored and raw is None:
            self.store.put_column(*key, {x.word: p for x, p in col.items()})
        self._columns[key] = col
        return col

    def _expand_spherical(self, y: CoxeterElement) -> Coords:
        """h column of y != e: v^(l(w_K) - l(u)) m^K_{x',y'} at u x', K = L(y)."""
        W = self.system
        K = W.check_names(y.left_descents())
        top, walk = self._walks.get(y.ldesc) or self._walk(y.ldesc)
        col: Coords = {}
        for x0, p in self._direct_column("m", K, W.project(y, K, "left")).items():
            shifted = [p] + [
                self._intern({e + d: c for e, c in p.terms}) for d in range(1, top + 1)
            ]
            col[x0] = shifted[top]
            coset = [x0]
            for j, slot, s, d in walk:
                x = coset[j]._succ[slot] or coset[j].times_gen(s, "left")
                coset.append(x)
                col[x] = shifted[d]
        return col

    def _walk(self, mask: int) -> tuple[int, list[tuple[int, int, int, int]]]:
        """l(w_K) and W_K by length, K the generators in mask, memoized: row k
        is (j, slot, s, d) for u_k = s u_j, slot the left s-slot of u_j and
        d = l(w_K) - l(u_k); u_0 = e has no row."""
        W = self.system
        elts, rows = [W.identity], []
        for j, u in enumerate(elts):  # grows while read: breadth first
            for i, s in enumerate(W.names):
                if mask >> i & 1 and not u.ldesc >> i & 1:
                    su = u._succ[W.rank + i] or u.times_gen(s, "left")
                    if su.ldesc & -su.ldesc == 1 << i:  # s is its first letter: met once
                        elts.append(su)
                        rows.append((j, W.rank + i, s, su.length))
        top = elts[-1].length
        walk = self._walks[mask] = (top, [(j, slot, s, top - n) for j, slot, s, n in rows])
        return walk

    def _check_column(self, col: Coords, y: CoxeterElement, fid: str, loaded: bool) -> None:
        """Unitriangularity over v*Z[v]; for a column loaded from the store also
        parity and positivity when it is an m column, whose entries are h
        values (Deodhar 1987), and a failure is a CacheError."""
        signs = loaded and fid.startswith("m[")
        for x, p in col.items():
            if x is y:
                bad = p != ONE
            else:
                bad = x.length >= y.length or (p and p.min_degree() < 1) or (
                    signs and any(c < 0 or (e + y.length - x.length) % 2 for e, c in p)
                )
            if bad:
                raise (CacheError if loaded else InternalInvariantError)(
                    f"{'stored' if loaded else 'computed'} column {y!r} of {fid} has "
                    f"{p!r} at {x!r}, violating unitriangularity over v*Z[v]"
                    + (", parity or positivity" if signs else "")
                )

    def column(self, fam: str, I: tuple[int, ...], upper: CoxeterElement) -> Coords:
        """Uniform access to any direct or inverse family column."""
        if fam == "h":
            return self.kl_column(upper)
        if fam in ("m", "n"):
            return self.parabolic_column(fam, I, upper)
        if fam in INVERSE_FAMILIES:
            return self.inverse_column(fam[: -len("_inv")], I, upper)
        raise ValidationError(f"unknown family {fam!r}")

    def poly(self, fam: str, I: tuple[int, ...], lower: CoxeterElement, upper: CoxeterElement) -> LaurentPoly:
        """Single polynomial; absent column entries are zero.  An h entry
        ('h', or 'm' or 'n' with I = ()) is read off m^{L(upper)}."""
        if fam == "h" or (fam in ("m", "n") and not I):
            return self._h_entry(self._own(lower), self._own(upper))
        return self.column(fam, I, upper).get(self._own(lower), ZERO)

    def _h_entry(self, x: CoxeterElement, y: CoxeterElement) -> LaurentPoly:
        """h_{x,y} = v^(l(w_K) - l(u)) m^K_{x',y'} at x = u x', K = L(y), with no
        h column built; checked as one entry of a column unitriangular over
        v*Z[v]."""
        if y.is_identity():
            p = ONE if x is y else ZERO
        else:
            W = self.system
            K = W.check_names(y.left_descents())
            x0 = W.project(x, K, "left")
            p = self._direct_column("m", K, W.project(y, K, "left")).get(x0, ZERO)
            if p:
                top, _ = self._walks.get(y.ldesc) or self._walk(y.ldesc)
                d = top - x.length + x0.length
                p = self._intern({e + d: c for e, c in p.terms})
        if (p != ONE) if x is y else p and (x.length >= y.length or p.min_degree() < 1):
            raise InternalInvariantError(
                f"h entry at {x!r} of column {y!r} is {p!r}, violating "
                "unitriangularity over v*Z[v]"
            )
        return p

    def mu(self, x: CoxeterElement, y: CoxeterElement) -> int:
        """Coefficient of v in h_{x,y}."""
        return self.poly("h", (), x, y).coeff(1)

    # -- inverse families --------------------------------------------------------

    def _inversion_residue(self, fam: str, I: tuple[int, ...], seeds: Coords, inv: Coords) -> Coords:
        """Nonzero entries of sum_z inv[z] (signed direct column of z) - seeds."""
        out: Raw = defaultdict(dict)
        for a, p in seeds.items():
            _mac(out[a.id], p, ((0, -1),))
        for z, c in inv.items():
            plus, minus = c.terms, _neg(c.terms)
            for u, p in self._direct_column(fam, I, z).items():
                _mac(out[u.id], p, minus if (u.length + z.length) % 2 else plus)
        return self._finish(out)

    def _inverse_family(self, fam: str, I: tuple[int, ...]) -> tuple[str, tuple[int, ...]]:
        if fam not in DIRECT_FAMILIES:
            raise ValidationError(f"unknown family {fam!r}")
        I = self.system.check_names(I)
        return (fam if I else "h"), I  # either module with I = () is the Hecke algebra

    def inverse_column(self, fam: str, I: tuple[int, ...], x: CoxeterElement) -> Coords:
        """Inverse-family column {y: fam^{x,y}}: the combination of {x: 1}, memoized."""
        fam, I = self._inverse_family(fam, I)
        x = self._own(x)
        key = (family_id(fam + "_inv", I), x.word)  # never stored
        inv = self._columns.get(key)
        if inv is None:
            inv = self._columns[key] = self.inverse_combination(fam, I, {x: ONE})
        return inv

    def inverse_combination(
        self, fam: str, I: tuple[int, ...], seeds: Mapping[CoxeterElement, LaurentPoly]
    ) -> Coords:
        """{y: sum_a seeds[a] fam^{a,y}}, by signed unitriangular inversion.

        It solves sum_z (-1)^(l(u)+l(z)) fam_{u,z} r_z = seeds[u] by one push
        down the lengths from every seed at once: each z holding a nonzero
        value gets it as r_z and pushes its negative through the strictly
        shorter signed entries of its direct column (each must have parity
        l(z) - l(u)); a value is final when its length is reached, and the
        identity is then checked as a fresh product.
        """
        fam, I = self._inverse_family(fam, I)
        fid = family_id(fam + "_inv", I)
        seeds = {self._own(a): p for a, p in seeds.items()}
        for a in seeds:
            if a.ldesc & self.system.mask(I):
                raise ValidationError(
                    f"{format_word(a.word) or 'e'} is not in the index set of {family_id(fam, I)}"
                )
        # the values still to be pushed, one raw sum per element and length
        top = max((a.length for a in seeds), default=-1)
        pending: list[Raw] = [defaultdict(dict) for _ in range(top + 1)]
        for a, p in seeds.items():
            _mac(pending[a.length][a.id], p, _ONE_TERMS)
        inv: Coords = {}
        parity: dict[LaurentPoly, set[int]] = {}  # the exponents mod 2 of each entry read
        by_id = self.system._by_id
        for length in range(top, -1, -1):
            layer = pending[length]
            for z in sorted(
                map(by_id.__getitem__, layer), key=CoxeterElement.sort_key, reverse=True
            ):
                c = self._intern(layer[z.id])
                if c is ZERO:
                    continue
                inv[z] = c
                plus, minus = c.terms, _neg(c.terms)
                for u, p in self._direct_column(fam, I, z).items():
                    lu = u.length
                    if lu < length:  # every entry but the diagonal one
                        odd = (lu + length) & 1
                        bits = parity.get(p)
                        if bits is None:
                            bits = parity[p] = {e & 1 for e, _ in p.terms}
                        if not bits <= _BITS[odd]:
                            raise InternalInvariantError(
                                f"{fid}: parity certificate failed at {u!r} in the column of {z!r}"
                            )
                        _mac(pending[lu][u.id], p, plus if odd else minus)
        residue = self._inversion_residue(fam, I, seeds, inv)
        if residue:
            u = min(residue, key=CoxeterElement.sort_key)
            x = max(seeds, key=CoxeterElement.sort_key)
            raise InternalInvariantError(f"{fid}: inversion identity fails at {u!r} below {x!r}")
        return inv

    # -- bar involution expansion (verification route) ----------------------------

    def bar_par_basis(self, fam: str, I: tuple[int, ...], x: CoxeterElement) -> Coords:
        """Coordinates of bar(basis vector at x) in the module of (fam, I)."""
        x = self._own(x)
        key = (fam, I, x.id)
        cached = self._bar_par.get(key)
        if cached is not None:
            return cached
        if x.is_identity():
            out: Coords = {self.system.identity: ONE}
        else:
            s = x.word[-1]
            rest = self.bar_par_basis(fam, I, x.times_gen(s, "right"))
            acc: Raw = defaultdict(dict)
            self._rmul_gen_par(acc, rest, s, I, _BAR_STEP[fam])
            out = self._finish(acc)
        self._bar_par[key] = out
        return out

    def bar_expand(self, fam: str, I: tuple[int, ...], coords: Coords) -> Coords:
        """Expand bar(sum p_x B_x) in the same standard/module basis."""
        acc: Raw = defaultdict(dict)
        for x, p in coords.items():
            p_bar = [(-e, c) for e, c in p.terms]
            for z, q in self.bar_par_basis(fam, I, x).items():
                _mac(acc[z.id], q, p_bar)
        return self._finish(acc)

    def is_selfdual(self, fam: str, I: tuple[int, ...], coords: Coords) -> bool:
        """Check bar-invariance by direct expansion in the standard basis."""
        return self.bar_expand(fam, I, coords) == {x: p for x, p in coords.items() if p}
