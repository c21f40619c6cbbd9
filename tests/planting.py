"""Faults planted in one direct column where the gate of tiltc.hecke sees it.

A computed m or n column is changed as HeckeContext._product_column returns
it, so HeckeContext._check_column reads the fault before the column is
memoized; a stored one is changed in its record, behind a recomputed
checksum, so the gate reads it when a context loads the column.
"""

import hashlib
import json

from tiltc.coxeter import format_word
from tiltc.hecke import SLOT, HeckeContext, _pack, family_id
from tiltc.laurent import LaurentPoly


def plant_computed(monkeypatch, fid, upper, lower, delta):
    """Add the polynomial delta at the word lower to the fid column of the
    word upper, in every context, as _product_column returns it."""
    real = HeckeContext._product_column
    n = _pack(delta.terms, SLOT)

    def planted(self, fam, I, y, col_fid):  # y is an element id
        col = real(self, fam, I, y, col_fid)
        if (col_fid, self.system._words((y,))[y]) == (fid, tuple(upper)):
            x = self.system.element(lower).id
            col = {**col, x: col.get(x, 0) + n}
        return col

    monkeypatch.setattr(HeckeContext, "_product_column", planted)


def write_store(path, head, lines):
    """Write a store file: the header fields head, with the checksum of the
    record lines recomputed, then the lines."""
    body = "\n".join(lines)
    head = {**head, "checksum": hashlib.sha256(body.encode()).hexdigest()}
    path.write_text(json.dumps(head, sort_keys=True, separators=(",", ":")) + "\n" + body + "\n")


def read_store(path):
    """The header fields and the record lines of a store file."""
    head, _, body = path.read_text().partition("\n")
    return json.loads(head), body.rstrip("\n").split("\n")


def _rewrite(path, family, upper, edit):
    """Apply edit to the entries of the one stored record of family at the
    word text upper, and recompute the checksum."""
    head, lines = read_store(path)
    hits = 0
    for k, line in enumerate(lines):
        rec = json.loads(line)
        if rec["family"] == family and rec["upper"] == upper:
            edit(rec["entries"])
            lines[k] = json.dumps(rec, separators=(",", ":"), sort_keys=True)
            hits += 1
    assert hits == 1, (family, upper)
    write_store(path, head, lines)


def garble(path, family, upper):
    """Make the entries object of the one stored record of family at the word
    text upper not JSON, its line's tail kept, and recompute the checksum."""
    head, lines = read_store(path)
    tail = f',"family":"{family}","upper":"{upper}"}}'
    [k] = [k for k, line in enumerate(lines) if line.endswith(tail)]
    lines[k] = '{"entries":{"":{"0":1},garbled}' + tail
    write_store(path, head, lines)


def tamper(path, family, upper, lower, poly):
    """Set the entry at the word text lower of a stored column to the JSON
    polynomial poly, and recompute the checksum."""
    _rewrite(path, family, upper, lambda entries: entries.__setitem__(lower, poly))


def plant_stored(path, fid, upper, lower, delta):
    """Add the polynomial delta at the word lower to the stored fid record of
    the word upper, and recompute the checksum."""
    low = format_word(lower)

    def add(entries):
        entries[low] = (LaurentPoly.from_json_obj(entries.get(low, {})) + delta).to_json_obj()

    _rewrite(path, fid, format_word(upper), add)


def source_column(context, fam, I, y):
    """The (fid, upper) of the m or n column that the (fam, I) column of y is
    gated as: the column itself, or for I = () the m^{L(y)} column it is read
    off; and the map of a lower element to its entry there."""
    W = context.system
    if I:
        return (family_id(fam, I), y.word), lambda x: x
    K = W.check_names(y.left_descents())
    return (family_id("m", K), W.project(y, K, "left").word), lambda x: W.project(x, K, "left")


def memo_key(context, key):
    """The key of a column in a context's memo, (family id, element id), of
    the column addressed as (family id, upper word)."""
    fid, upper = key
    return fid, context.system.element(upper).id
