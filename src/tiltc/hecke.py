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

One routine builds every m and n column: for a right descent s of y,
C_{ys} C_s = C_y + sum_u mu(u, ys) C_u over the u with us < u
(Kazhdan-Lusztig 1979; Soergel 1997, Prop. 3.4).  Any right descent gives
the same column; the recursion takes the last letter of y's ShortLex normal
form, so ys is that word's prefix (a prefix of a normal form is one).  The
chain of bases below any column, a mu column's included, then runs down the
prefixes of its word, and the columns of words with a common prefix share
that part of the chain (a top-length n[1] column of E6 memoizes 131
columns).  Off the diagonal C_{ys} lies in v*Z[v], and C_s acts on a basis
vector by 1, v, v^-1, v + v^-1 or 0, so the only part of the product outside
v*Z[v] is a constant c = mu at some u != y, and subtracting c C_u changes no
other constant term.  For x in the index set, x*s leaves it exactly when
x(alpha_s) = +alpha_t with t in I (Deodhar's lemma; then x*s = t*x), read
off x when x*s > x (x*s < x, a prefix, stays); x*s is built if it stays.

An h column is read off a spherical one.  With K = L(y), which generates a
finite parabolic, and y = w_K y', h_{x,y} = v h_{sx,y} for s in K with
sx > x (Kazhdan-Lusztig 1979) and h_{w_K x', w_K y'} = m^K_{x',y'}
(Deodhar 1987), so h_{u x',y} = v^(l(w_K) - l(u)) m^K_{x',y'} for u in W_K.

The certificate: every m and n column, computed or stored, passes one gate
(_check_column) once, as it is memoized and so before anything reads it.
The column is unitriangular over v*Z[v], each exponent at x has the parity
of l(y) - l(x), and an m column, whose entries are h values (Deodhar 1987),
has no negative coefficient.  An h column or entry is v^d times a gated m^K
entry, d = l(w_K) - l(u) >= 0 and 0 only on the diagonal, so it inherits all
three.  A single h entry (poly) is read off y's h column when that is
memoized, else off m^K: no h column is built and W_K is not enumerated (y is
longest in W_K y', so l(w_K) = l(y) - l(y')).

The inverse families come by signed unitriangular inversion of the direct
ones: inverse_combination pushes sum_a c_a fam^{a,.} down the lengths from
every seed a at once, through gated columns only, and checks the inversion
identity once.  They are never stored, as a stored one would need that
check, which costs about as much as the push.

Packed form (Kronecker substitution): a direct column is {element id: int},
each entry its value at v = 2^SLOT, so the coefficient of v^e is the signed
SLOT-bit digit e; multiplying by v is a shift and a sum of products is one
of ints.  A digit reads back exactly while every coefficient is below
2^(SLOT-1), so every column carries a bound on its coefficients, checked
before a digit of its sum is read: 2 bound(base) + sum |mu| bound(C_u) for
the recursion, whose sums hold v times each value (v^-1 is a one-slot offset
checked to be empty); past it a column raises InternalInvariantError.  A
solve bounds its values by its largest seed coefficient plus sum_z
|c_z|_1 bound(z) over what it pushed, and past 2^(width-1) starts again at
twice the width, so nothing is decoded or tested for zero past its bound;
its residue holds when every value is the integer 0.  Equal entries are one
int per HeckeContext, each decoded to a LaurentPoly once.  Every public
column, direct or inverse, is a read-only mapping (MappingProxyType) of
{element: LaurentPoly}, decoded at the boundary and keyed by elements of the
context's own system (an element of any other system is a ValidationError,
and an absent key of a column); a single entry (poly) is read off the packed
column, and ``entries`` decodes a direct column, or its entries at given
ids, keyed by element id.  Inside, columns, memos and loops run on element
ids and the system's step slots (see coxeter): no element is made.

Family keys: ("h", ()), ("m", I), ("n", I) and the inverse families
("h_inv", ()), ("m_inv", I), ("n_inv", I); h takes no subset I, and every
reader refuses one with a ValidationError.
"""

from __future__ import annotations

import os
import re
from array import array
from collections import defaultdict
from collections.abc import Collection, Mapping
from contextlib import contextmanager
from pathlib import Path
from types import MappingProxyType
from typing import Iterable, Iterator

# the packing constants too: _product_column reads a height off r before it calls _simple_image
from .coxeter import _HALF, _MASK, BITS, CoxeterElement, CoxeterSystem, _simple_image, format_word, parse_word
from .errors import CacheError, InternalInvariantError, ValidationError
from .laurent import ONE, ZERO, LaurentPoly, Terms

__all__ = ["HeckeContext", "PolyStore", "family_id", "DIRECT_FAMILIES", "INVERSE_FAMILIES"]

Packed = dict[int, int]  # a column: {element id: value at v = 2^SLOT}

SLOT = 24  # bits per exponent slot of a packed polynomial

DIRECT_FAMILIES = ("h", "m", "n")
INVERSE_FAMILIES = ("h_inv", "m_inv", "n_inv")


def family_id(fam: str, I: tuple[int, ...]) -> str:
    """Canonical string id of a polynomial family, e.g. 'n[1,2]' or 'h'."""
    if fam in ("h", "h_inv"):
        return fam
    return f"{fam}[{','.join(str(s) for s in I)}]"


def _pack(terms: Iterable[tuple[int, int]], width: int, off: int = 0) -> int:
    """v^off times a polynomial, at v = 2^width (every e + off must be >= 0)."""
    return sum(c << width * (e + off) for e, c in terms)


def _unpack(n: int, width: int, off: int = 0) -> Terms:
    """The terms of v^-off times a packed value, each coefficient read as one
    signed width-bit digit: exact while every one is below 2^(width-1)."""
    terms = []
    mask, half = (1 << width) - 1, 1 << (width - 1)
    e = -off
    while n:
        skip = ((n & -n).bit_length() - 1) // width  # empty low slots
        e, n = e + skip, n >> width * skip
        c = n & mask
        if c >= half:
            c -= mask + 1
        terms.append((e, c))
        e, n = e + 1, (n - c) >> width
    return tuple(terms)


# a record line as json.dumps writes it with sorted keys and compact
# separators: the entries object, then the family and the upper word texts
# (compiled by PolyStore.load, so a query without a store compiles nothing)
_RECORD = r'\{"entries":\{.*\},"family":"([^"\\]*)","upper":"([^"\\]*)"\}'


@contextmanager
def _store_lock(path: Path) -> Iterator[None]:
    """Hold the exclusive flock on the sidecar ``<name>.lock`` of a store file."""
    import fcntl

    with open(path.with_name(path.name + ".lock"), "a") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)  # released when the file closes
        yield


@contextmanager
def _file_errors(action: str, path: Path) -> Iterator[None]:
    """An OSError or UnicodeDecodeError of a store file, its lock or its temp
    file, as a CacheError naming the file."""
    try:
        yield
    except (OSError, UnicodeDecodeError) as exc:
        raise CacheError(f"cannot {action} {path}: {exc}") from exc


class PolyStore:
    """Persistent column store for the direct families of one system.

    File format: one JSON header line {"format", "normalization", "system",
    "generators", "records", "checksum"}, then one JSON line per stored
    column.  The checksum is the sha256 of the record lines.  ``format``
    versions the file layout and ``normalization`` the meaning of the stored
    polynomials (the module docstring); a file with another version of either
    is refused.

    Records are decoded lazily: ``load`` checks the header and the checksum
    and indexes each record line by its family and upper word, read off the
    line's canonical tail ``,"family":"...","upper":"..."}`` (sorted keys,
    compact separators, so the entries object comes first) without decoding
    the line.  ``get_column`` decodes a record's line the first time a query
    reads it, checks that its family and upper are the indexed ones, and
    packs its entries (module docstring), each distinct word text parsed once
    per store (columns share most of their lower words).  A line not in that
    form, or whose upper is not a word, is a CacheError at load; an entry
    that does not parse, an exponent below 0 or a coefficient that is not a
    JSON integer or does not fit a slot is a CacheError when its record is
    read, so a broken record fails only the queries that read it.  ``save``
    writes every loaded record, read or not, as its line, and encodes only
    the columns this store computed.

    The file modules (json, hashlib, tempfile, fcntl, glob) are imported by
    the methods that use them, so a query without a store loads none of them.

    A save holds an exclusive flock on the sidecar file ``<name>.lock``, and
    under it merges the records on disk with this store's, so concurrent
    writers lose no column; a record on disk that differs from this store's
    for the same column is a CacheError.  A file whose header line is still
    the one ``load`` read, which carries the sha256 of the records and their
    count, holds only this store's records and is not loaded again: only the
    header is read, so ``load`` hashes the file once.  A body damaged behind
    an unchanged header is therefore overwritten by the next save rather
    than refused by it; any load still refuses it.  ``clear`` takes the same
    lock.  An OSError or UnicodeDecodeError of the file, its lock or a temp
    file is a CacheError that names the file.

    HeckeContext reads m[K] and n[I] records with K and I non-empty only; h
    is read off m^{L(y)}.  The h, m[], n[] and inverse records of files
    written by older versions have their keys checked by ``load`` like any
    other record and are then dropped, so a save does not write them back.
    """

    FORMAT = 1
    NORMALIZATION = 1

    def __init__(self, system_tag: str, generators: int):
        self.system_tag = system_tag
        self.generators = generators
        # family id -> upper word -> the record line as read, or the packed
        # column {lower word -> int}
        self.columns: dict[str, dict[tuple[int, ...], str | dict[tuple[int, ...], int]]] = {}
        self.dirty = False
        self._words: dict[str, tuple[int, ...]] = {}
        self._lines: dict[tuple[str, tuple[int, ...]], str] = {}  # of the records read, for save
        self._head: str | None = None  # the header line as loaded

    def _word(self, text: str) -> tuple[int, ...]:
        """parse_word, once per distinct text."""
        word = self._words.get(text)
        if word is None:
            word = self._words[text] = parse_word(text)
        return word

    def get_column(self, fam_id: str, upper: tuple[int, ...]):
        col = self.columns.get(fam_id, {}).get(upper)
        if isinstance(col, str):
            import json

            line = col
            try:
                rec = json.loads(line)
                if rec["family"] != fam_id or self._word(rec["upper"]) != upper:
                    raise ValueError(f"record keys differ from its tail: {line[:60]!r}")
                col = {self._word(k): self._packed(obj) for k, obj in rec["entries"].items()}
            except (AttributeError, KeyError, TypeError, ValueError) as exc:
                raise CacheError(f"cache key parse failure: {exc}") from exc
            if None in col.values():
                raise CacheError(
                    f"stored column {format_word(upper) or 'e'} of {fam_id} has an "
                    "exponent below 0, violating unitriangularity over v*Z[v]"
                )
            self._lines[fam_id, upper] = line
            self.columns[fam_id][upper] = col
        return col

    @staticmethod
    def _packed(obj) -> int | None:
        """A record entry {exponent text: int coefficient}, packed; None when
        an exponent is below 0.  Every coefficient's type is checked, as 1.0
        and True equal 1."""
        n, limit = 0, 1 << (SLOT - 1)
        for k, c in obj.items():
            e = int(k)
            if type(c) is not int or not -limit < c < limit:
                raise ValueError(f"bad coefficient {c!r} at exponent {k}")
            if e < 0:
                return None
            n += c << SLOT * e
        return n

    def put_column(self, fam_id: str, upper: tuple[int, ...], col: dict[tuple[int, ...], int]) -> None:
        fam = self.columns.setdefault(fam_id, {})
        if upper not in fam:
            fam[upper] = dict(col)
            self.dirty = True

    @staticmethod
    def _line(fam_id: str, upper: tuple[int, ...], col) -> str:
        """The record line of a column; an unread record keeps its line."""
        if isinstance(col, str):
            return col
        import json

        rec = {
            "family": fam_id,
            "upper": format_word(upper),
            "entries": {
                format_word(low): {str(e): c for e, c in _unpack(col[low], SLOT)}
                for low in sorted(col, key=lambda w: (len(w), w))
            },
        }
        return json.dumps(rec, separators=(",", ":"), sort_keys=True)

    def save(self, path: str | Path) -> None:
        import hashlib
        import json
        import tempfile

        path = Path(path)
        with _file_errors("write", path):
            path.parent.mkdir(parents=True, exist_ok=True)
        with _file_errors("write", path), _store_lock(path):
            records = {
                (fam_id, upper): self._lines.get((fam_id, upper)) or self._line(fam_id, upper, col)
                for fam_id, fam in self.columns.items()
                for upper, col in fam.items()
            }
            if path.exists() and self._head_on_disk(path) != self._head:
                on_disk = self.load(path, self.system_tag, self.generators)
                for fam_id, fam in on_disk.columns.items():
                    for upper, line in fam.items():
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
    def _head_on_disk(path: Path) -> str:
        """The header line of a store file."""
        with open(path) as fh:
            return fh.readline().rstrip("\n")

    @staticmethod
    def clear(path: str | Path) -> bool:
        """Remove a store file and the temp files of killed saves; return
        whether the file existed.  The lock file stays.  Both go under the
        lock, so a save in flight renames its file into place first, and
        every temp file left is stale."""
        import glob

        path = Path(path)
        with _file_errors("clear", path), _store_lock(path):
            for tmp in path.parent.glob(glob.escape(f".{path.name}.") + "*.tmp"):
                tmp.unlink()
            existed = path.exists()
            path.unlink(missing_ok=True)
        return existed

    @classmethod
    def load(cls, path: str | Path, system_tag: str, generators: int) -> "PolyStore":
        import hashlib
        import json

        path = Path(path)
        with _file_errors("read", path):
            text = path.read_text()
        head, _, body = text.partition("\n")
        body = body.rstrip("\n")
        try:
            header = json.loads(head)
        except json.JSONDecodeError as exc:
            raise CacheError(f"cache header unreadable: {exc}") from exc
        if not isinstance(header, dict):
            raise CacheError(f"cache header unreadable: not a JSON object: {head[:60]!r}")
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
        store._head = head
        record = re.compile(_RECORD).fullmatch
        for line in body.split("\n") if body else ():
            try:
                key = record(line)
                if key is None:
                    raise ValueError(f"malformed record {line[:60]!r}")
                fam_id, upper = key[1], store._word(key[2])
            except ValueError as exc:
                raise CacheError(f"cache key parse failure: {exc}") from exc
            if cls._is_read(fam_id):
                store.columns.setdefault(fam_id, {})[upper] = line
        return store

    @staticmethod
    def _is_read(fam_id: str) -> bool:
        """Whether a query reads records of a family: m[K] or n[I], non-empty."""
        return fam_id[:2] in ("m[", "n[") and fam_id[2:] != "]"


class HeckeContext:
    """All polynomial families attached to one Coxeter system, memoized.

    An optional PolyStore persists the m and n columns (serialize with
    store.save).  A column is read from it, and its record decoded, only when
    a query needs that column; each stored lower word is walked to its
    element id once per context, and the column passes the gate of
    _check_column or raises CacheError.  h columns are read off m columns
    and inverse columns are pushed; neither is stored.  All public results
    are columns: maps {lower element -> polynomial} attached to an upper
    element.
    """

    def __init__(self, system: CoxeterSystem, store: PolyStore | None = None):
        self.system = system
        if store is not None and (store.system_tag, store.generators) != (system.tag, system.rank):
            raise CacheError("store does not match the system")
        self.store = store
        # direct columns, packed, with the bound of their coefficients
        # keyed by (family id, element id)
        self._columns: dict[tuple[str, int], tuple[Packed, int]] = {}
        self._fids: dict[tuple[str, tuple[int, ...]], str] = {}  # (fam, I) -> family_id
        self._inverses: dict[tuple[str, int], Mapping[CoxeterElement, LaurentPoly]] = {}
        self._walks: dict[int, array] = {}  # descent mask -> its W_K walk
        self._subsets: dict[int, tuple[int, ...]] = {}  # descent mask -> its generators
        self._stored_ids: dict[tuple[int, ...], int] = {}  # stored word -> element id
        self._words: dict[int, tuple[int, ...]] = {0: ()}  # id -> word, for the store
        # l(w_K) -> {m^K entry: its shifts by v^0 .. v^l(w_K)}, each interned
        self._shifts: dict[int, dict[int, list[int]]] = {}
        self._ints: dict[int, int] = {}  # every packed entry, so equal ones are one object
        self._decoded: dict[int, LaurentPoly] = {}  # packed entry -> its polynomial
        # packed entry -> its facts for the gate: largest |coefficient| << 3,
        # 4 if a coefficient is negative, bit k set if an exponent is k mod 2
        self._facts: dict[int, int] = {}
        # every polynomial this context finishes, by its terms: one object each
        self._polys: dict[Terms, LaurentPoly] = {ZERO.terms: ZERO, ONE.terms: ONE}

    def _intern(self, terms: Terms) -> LaurentPoly:
        """The polynomial of canonical terms, shared within this context."""
        p = self._polys.get(terms)
        if p is None:
            p = self._polys[terms] = LaurentPoly._from_terms(terms)
        return p

    def _poly(self, n: int) -> LaurentPoly:
        """The polynomial of a packed entry, decoded once per context."""
        p = self._decoded.get(n)
        if p is None:
            p = self._decoded[n] = self._intern(_unpack(n, SLOT))
        return p

    def _finish(self, acc: Packed) -> Packed:
        """A summed column: zero entries dropped, equal entries one object."""
        ints = self._ints
        return {u: ints.setdefault(n, n) for u, n in acc.items() if n}

    def _own(self, x: CoxeterElement) -> CoxeterElement:
        """x, checked to be an element of this context's system."""
        if x._ref is not self.system._ref:  # an element of a released system too
            raise ValidationError(f"element {x!r} is not of system {self.system.tag}")
        return x

    def _family(self, fam: str, I: tuple[int, ...]) -> tuple[str, tuple[int, ...]]:
        """A direct family and its generators, checked; with I = () either
        module is the Hecke algebra, so the family is h, which takes no I."""
        if fam not in DIRECT_FAMILIES:
            raise ValidationError(f"unknown family {fam!r}")
        if fam == "h" and I:
            raise ValidationError(f"the family h takes no subset I, not I={list(I)}")
        I = self.system.check_names(I)
        return (fam if I else "h"), I

    def _upper(self, I: tuple[int, ...], y: CoxeterElement) -> int:
        """The id of y, checked to be an element of this system minimal in W_I y."""
        if self._own(y).ldesc & self.system.mask(I):
            raise ValidationError(
                f"{format_word(y.word) or 'e'} is not a minimal coset representative for I={list(I)}"
            )
        return y.id

    def _packed_column(self, fam: str, I: tuple[int, ...], y: CoxeterElement) -> Packed:
        """The packed direct column of (fam, I) at y, all checked."""
        fam, I = self._family(fam, I)
        return self._direct_column(fam, I, self._upper(I, y))[0]

    def _public(self, col: Packed) -> Mapping[CoxeterElement, LaurentPoly]:
        """A packed column as a read-only {element: LaurentPoly}, decoded by _poly."""
        handle, poly = self.system._handle, self._poly
        return MappingProxyType({handle(u): poly(n) for u, n in col.items()})

    # -- self-dual basis columns -----------------------------------------------

    def kl_column(self, y: CoxeterElement) -> Mapping[CoxeterElement, LaurentPoly]:
        """Coordinates {x: h_{x,y}} of the self-dual basis element C_y."""
        return self._public(self._packed_column("h", (), y))

    def parabolic_column(
        self, fam: str, I: tuple[int, ...], y: CoxeterElement
    ) -> Mapping[CoxeterElement, LaurentPoly]:
        """Self-dual basis column of the parabolic module ('m' or 'n')."""
        if fam not in ("m", "n"):
            raise ValidationError(f"unknown parabolic family {fam!r}")
        return self._public(self._packed_column(fam, I, y))

    def entries(
        self, fam: str, I: tuple[int, ...], upper: CoxeterElement, at: Collection[int] | None = None
    ) -> dict[int, LaurentPoly]:
        """A direct column (h, m or n) by element id, {id: polynomial}, with
        no element made: every entry, or with ``at`` the nonzero ones at its
        ids, read off the packed column."""
        col, poly = self._packed_column(fam, I, upper), self._poly
        if at is None:
            return {u: poly(n) for u, n in col.items()}
        return {u: poly(n) for u in at if (n := col.get(u))}

    def _direct_column(self, fam: str, I: tuple[int, ...], y: int) -> tuple[Packed, int]:
        """The packed column of C_y (y an id) in the module of (fam, I) and the
        bound of its coefficients, memoized: for m and n C_{ys} C_s less mu
        C_u, read from and written to the store when there is one, and gated;
        for h the expansion of m^{L(y)} (module docstring)."""
        fid = self._fids.get((fam, I))
        if fid is None:
            fid = self._fids[fam, I] = family_id(fam, I)
        key = (fid, y)
        memo = self._columns.get(key)
        if memo is not None:
            return memo
        if fam == "h":
            col, bound = self._expand_spherical(y) if y else ({0: 1}, 1)
        else:
            store, W = self.store, self.system
            raw = store.get_column(fid, W._words((y,), self._words)[y]) if store is not None else None
            if raw is not None:
                ids = self._stored_ids
                for w in raw.keys() - ids.keys():
                    ids[w] = W._walk(0, w)
                col = self._finish({ids[w]: n for w, n in raw.items()})
            elif not y:  # the identity
                col = {0: 1}
            else:
                col = self._product_column(fam, I, y, fid)
            bound = self._check_column(col, y, fid, loaded=raw is not None)
            if store is not None and raw is None:
                words = W._words(col, self._words)
                store.put_column(fid, words[y], {words[u]: n for u, n in col.items()})
        memo = self._columns[key] = col, bound
        return memo

    def _product_column(self, fam: str, I: tuple[int, ...], y: int, fid: str) -> Packed:
        """C_{ys} C_s less mu C_u, summed packed, each digit read under the bound;
        s is the last letter of y's normal form, so ys is its prefix (module
        docstring)."""
        W, B = self.system, SLOT
        mask, half = (1 << B) - 1, 1 << (B - 1)
        n, succ, ld, ln, rd, r = W.rank, W._succ, W._ld, W._len, W._rd, W._r
        m, u = 2 * n, y
        while True:  # down the left slots to the last letter s_i
            d = ld[u]
            i = (d & -d).bit_length() - 1
            if ln[u] == 1:
                break
            u = succ[m * u + n + i]
        in_I, shift, simple = W.mask(I), BITS * i, _HALF + 1
        base, bound = self._direct_column(fam, I, W._step(y, i))
        fault = lambda what: InternalInvariantError(f"{fid} column {W._handle(y)!r} {what}")  # noqa: E731
        bound *= 2  # a digit of the product sums at most two digits of the base
        spherical, B2 = fam == "m", 2 * B
        # each sum holds v times its value, so v^-1 p is p itself
        acc: defaultdict[int, int] = defaultdict(int)
        for u, c in base.items():
            if rd[u] >> i & 1:  # x*s < x stays in W^I: a prefix of a minimal representative
                at_u = c
            # x*s > x leaves W^I exactly when x(alpha_s) = +alpha_t, t in I
            # (module docstring), and is built only if it stays; a simple
            # root has height 1
            elif r[u] >> shift & _MASK == simple and in_I >> _simple_image(W, u, i) & 1:
                if spherical:  # C_s acts by v + v^-1 (m) or 0 (n)
                    acc[u] += (c << B2) + c
                continue
            else:
                at_u = c << B2
            xs = succ[m * u + i]
            acc[xs if xs >= 0 else W._step(u, i)] += c << B
            acc[u] += at_u
        if bound >= half:
            raise fault(f"needs the bound {bound} of a {B}-bit slot")
        mus = []
        for u, c in acc.items():
            if c & mask:
                raise fault(f"has a v^-1 term at {W._handle(u)!r}")
            c = acc[u] = c >> B
            if u != y and (k := c & mask):
                mus.append((k - mask - 1 if k >= half else k, self._direct_column(fam, I, u)))
        bound += sum(abs(k) * b for k, (_, b) in mus)
        if bound >= half:
            raise fault(f"needs the bound {bound} of a {B}-bit slot")
        for k, (col, _) in mus:
            for z, c in col.items():
                acc[z] -= k * c
        return self._finish(acc)

    def _spherical(self, y: int) -> tuple[int, int, tuple[Packed, int]]:
        """The mask of K = L(y) for y != e, l(w_K) = l(y) - l(y') (y = w_K y',
        longest in W_K y'), and the m^K column at y' = project(y, K) with its
        bound.  K is read off the mask through a memo per context."""
        W = self.system
        mask = W._ld[y]
        K = self._subsets.get(mask)
        if K is None:
            K = self._subsets[mask] = tuple(s for i, s in enumerate(W.names) if mask >> i & 1)
        y0 = W._project(y, mask, W.rank)
        return mask, W._len[y] - W._len[y0], self._direct_column("m", K, y0)

    def _expand_spherical(self, y: int) -> tuple[Packed, int]:
        """h column of y != e: v^(l(w_K) - l(u)) m^K_{x',y'} at u x', K = L(y);
        it has the bound of m^K.  The shifts of each distinct m^K entry are
        interned once per context and l(w_K)."""
        W, ints = self.system, self._ints
        succ, m = W._succ, 2 * W.rank
        mask, top, (col_k, bound) = self._spherical(y)
        walk = self._walks.get(mask) or self._walk(mask, top)
        shifts = self._shifts.setdefault(top, {})
        col: Packed = {}
        for u0, n in col_k.items():
            shifted = shifts.get(n)
            if shifted is None:
                shifted = shifts[n] = [ints.setdefault(k, k) for k in (n << SLOT * d for d in range(top + 1))]
            col[u0] = shifted[top]
            coset = [u0]
            rows = iter(walk)
            for j, slot, d in zip(rows, rows, rows):
                x = coset[j]
                z = succ[m * x + slot]
                if z < 0:
                    z = W._step(x, slot)
                coset.append(z)
                col[z] = shifted[d]
        return col, bound

    def _walk(self, mask: int, top: int) -> array:
        """W_K by length, K the generators in mask and top = l(w_K), memoized
        as one flat int array: row k is j, slot, d for u_k = s u_j with s the
        first letter of u_k, slot the left s-slot of u_j and d = top - l(u_k);
        u_0 = e has no row.  A left descent t < s of u_j that commutes with s
        is one of s u_j, so s is not its first letter: that step is skipped."""
        W = self.system
        n, succ, ld, ln = W.rank, W._succ, W._ld, W._len
        gens = [(n + i, 1 << i, 1 << i | low) for i, low in enumerate(W._low) if mask >> i & 1]
        elts, rows = [0], array("i")  # no int object per row
        for j, u in enumerate(elts):  # grows while read: breadth first
            du, base = ld[u], 2 * n * u
            for slot, bit, off in gens:
                if du & off:
                    continue
                su = succ[base + slot]
                if su < 0:
                    su = W._step(u, slot)
                d = ld[su]
                if d & -d == bit:  # s is its first letter: met once
                    elts.append(su)
                    rows.extend((j, slot, top - ln[su]))
        self._walks[mask] = rows
        return rows

    def _check_column(self, col: Packed, y: int, fid: str, loaded: bool) -> int:
        """The bound of the coefficients of an m or n column at the id y that
        passes the gate (module docstring): 1 on the diagonal, otherwise
        shorter, no constant digit and parity; for m no negative coefficient.
        A failure is a CacheError for a column loaded from the store."""
        facts, ln = self._facts, self.system._len
        ly = ln[y]
        mask, signs = (1 << SLOT) - 1, 4 if fid.startswith("m[") else 0
        top = 0
        for u, n in col.items():
            f = facts.get(n)
            if f is None:
                terms = self._poly(n).terms
                f = facts[n] = (
                    max(abs(c) for _, c in terms) << 3
                    | any(c < 0 for _, c in terms) << 2
                    | sum({1 << (e & 1) for e, _ in terms})
                )
            if f > top:
                top = f
            d = ly - ln[u]
            if (n != 1) if u == y else d <= 0 or n & mask or f & (signs | 2 >> (d & 1)):
                handle = self.system._handle
                raise (CacheError if loaded else InternalInvariantError)(
                    f"{'stored' if loaded else 'computed'} column {handle(y)!r} of {fid} has "
                    f"{self._poly(n)!r} at {handle(u)!r}, violating unitriangularity over v*Z[v], "
                    + ("parity or positivity" if signs else "parity")
                )
        return top >> 3

    def column(self, fam: str, I: tuple[int, ...], upper: CoxeterElement) -> Mapping[CoxeterElement, LaurentPoly]:
        """Uniform access to any direct or inverse family column."""
        if fam in INVERSE_FAMILIES:
            return self.inverse_column(fam[: -len("_inv")], I, upper)
        return self._public(self._packed_column(fam, I, upper))

    def poly(self, fam: str, I: tuple[int, ...], lower: CoxeterElement, upper: CoxeterElement) -> LaurentPoly:
        """Single polynomial; absent column entries are zero.  A direct entry
        is read off its packed column, and an h entry ('h', or 'm' or 'n'
        with I = ()) by _h_entry."""
        if fam not in DIRECT_FAMILIES:
            return self.column(fam, I, upper).get(self._own(lower), ZERO)
        fam, I = self._family(fam, I)
        x = self._own(lower).id
        if fam == "h":
            return self._h_entry(x, self._own(upper).id)
        return self._poly(self._direct_column(fam, I, self._upper(I, upper))[0].get(x, 0))

    def _h_entry(self, x: int, y: int) -> LaurentPoly:
        """h_{x,y} at ids, read off y's h column when it is memoized, else as
        v^(l(w_K) - l(u)) m^K_{x',y'} at x = u x', K = L(y), with no h column
        built; certified by the gate of m^K (module docstring)."""
        memo = self._columns.get(("h", y))
        if memo is not None:
            return self._poly(memo[0].get(x, 0))
        if not y:  # the identity
            return self._poly(int(x == y))
        W = self.system
        mask, top, (m, _) = self._spherical(y)
        x0 = W._project(x, mask, W.rank)
        return self._poly(m.get(x0, 0) << SLOT * (top - W._len[x] + W._len[x0]))

    # -- inverse families --------------------------------------------------------

    def _widen(self, n: int, width: int) -> int:
        """A packed entry repacked at width."""
        return _pack(self._poly(n).terms, width)

    def _inversion_residue(
        self, fam: str, I: tuple[int, ...], seeds: Packed, inv: Packed, width: int
    ) -> Packed:
        """Nonzero values of sum_z inv[z] (signed direct column of z) - seeds,
        all packed at width with one offset."""
        ln = self.system._len
        out: defaultdict[int, int] = defaultdict(int)
        for a, n in seeds.items():
            out[a] -= n
        for z, q in inv.items():
            lz, minus = ln[z], -q
            for u, n in self._direct_column(fam, I, z)[0].items():
                if width != SLOT:
                    n = self._widen(n, width)
                out[u] += (minus if (ln[u] + lz) & 1 else q) * n
        return {u: n for u, n in out.items() if n}

    def inverse_column(self, fam: str, I: tuple[int, ...], x: CoxeterElement) -> Mapping[CoxeterElement, LaurentPoly]:
        """Inverse-family column {y: fam^{x,y}}: the combination of {x: 1},
        memoized."""
        fam, I = self._family(fam, I)
        key = (family_id(fam + "_inv", I), self._own(x).id)  # never stored
        inv = self._inverses.get(key)
        if inv is None:
            inv = self._inverses[key] = self.inverse_combination(fam, I, {x: ONE})
        return inv

    def inverse_combination(
        self, fam: str, I: tuple[int, ...], seeds: Mapping[CoxeterElement, LaurentPoly]
    ) -> Mapping[CoxeterElement, LaurentPoly]:
        """{y: sum_a seeds[a] fam^{a,y}}, by signed unitriangular inversion.

        It solves sum_z (-1)^(l(u)+l(z)) fam_{u,z} r_z = seeds[u] by one push
        down the lengths from every seed at once: each z holding a nonzero
        value gets it as r_z and pushes its negative through the strictly
        shorter signed entries of its direct column (each of parity l(z) - l(u),
        by the gate); a value is final when its length is reached, and the
        identity is then checked as a fresh product.  Values are packed at
        SLOT bits, or at a multiple of it when the bound needs (module
        docstring).
        """
        fam, I = self._family(fam, I)
        fid = family_id(fam + "_inv", I)
        for a in seeds:
            if self._own(a).ldesc & self.system.mask(I):
                raise ValidationError(
                    f"{format_word(a.word) or 'e'} is not in the index set of {family_id(fam, I)}"
                )
        by_id = {a.id: p for a, p in seeds.items()}
        width = SLOT
        while (inv := self._solve(fam, I, fid, by_id, width)) is None:
            width *= 2
        handle = self.system._handle
        return MappingProxyType({handle(u): p for u, p in inv.items()})

    def _solve(
        self, fam: str, I: tuple[int, ...], fid: str, seeds: dict[int, LaurentPoly], width: int
    ) -> dict[int, LaurentPoly] | None:
        """The push and residue of inverse_combination on ids, with values
        packed at width, or None once the bound reaches 2^(width-1)."""
        W = self.system
        half, ln = 1 << (width - 1), W._len
        narrow = width == SLOT
        # v^off times every value: a push adds no exponent below the seeds'
        off = max([0] + [-p.min_degree() for p in seeds.values() if p])
        top = max((ln[a] for a in seeds), default=-1)
        pending: list[Packed] = [{} for _ in range(top + 1)]
        packed = {a: _pack(p.terms, width, off) for a, p in seeds.items()}
        for a in seeds:
            pending[ln[a]][a] = packed[a]
        bound = max([0] + [abs(c) for p in seeds.values() for _, c in p.terms])
        inv: dict[int, LaurentPoly] = {}
        solved: Packed = {}  # inv packed again, for the residue
        for length in range(top, -1, -1):
            if bound >= half:  # a value of this length may have wrapped
                return None
            layer = pending[length]
            for z, q in layer.items():
                if not q:
                    continue
                c = inv[z] = self._intern(_unpack(q, width, off))
                solved[z], minus = q, -q
                col, b = self._direct_column(fam, I, z)
                bound += b * sum(abs(k) for _, k in c.terms)
                for u, n in col.items():
                    lu = ln[u]
                    if lu < length:  # every entry but the diagonal one
                        if not narrow:
                            n = self._widen(n, width)
                        pend = pending[lu]
                        pend[u] = pend.get(u, 0) + (q if (lu + length) & 1 else minus) * n
        if bound >= half:
            return None
        residue = self._inversion_residue(fam, I, packed, solved, width)
        if residue:
            u, x = W._sorted(residue)[0], W._sorted(seeds)[-1]
            raise InternalInvariantError(
                f"{fid}: inversion identity fails at {W._handle(u)!r} below {W._handle(x)!r}"
            )
        return inv
