"""Pinned digests of multiplicity tables, direct columns and inverse columns.

Each group below renders every table of its grid (or the error a query
raises) as one canonical line and compares the sha256 of the lines with a
pinned value.  The table pins were generated from the table code before it
was merged into one engine, the direct-column pins from the left-multiplying
h recursion and the greedy parabolic completion that preceded the one
right-multiplying column routine, and the inverse-column pins from the
interval scan that inverse_column used before it became a downward push,
and the B4 and A5 w0 simple-table pins from the per-z pairing (one inverse
column per z, then the convolution at every row) that preceded the one-solve
row, and the D5 one from the solve on Laurent-polynomial dicts that preceded
packed columns, so any change to an entry, a weight echo, a flag, a truncation or an error
message shows here.  Do not regenerate them to make a change pass: a differing
digest means the results changed.
"""

import hashlib
import json
from itertools import combinations

import pytest

from tiltc.coxeter import CoxeterElement, CoxeterSystem, format_word
from tiltc.errors import InternalInvariantError, ValidationError
from tiltc.hecke import HeckeContext, family_id
from tiltc.rootdata import LinkageDatum
from tiltc.tilting import CategoryO, KacMoody, Quantum


def ball(system, max_len):
    """Elements of length at most max_len, sorted by (length, word)."""
    seen = {system.identity}
    frontier = list(seen)
    for _ in range(max_len):
        new = []
        for w in frontier:
            for s in system.names:
                z = w.times_gen(s, "right")
                if z.length > w.length and z not in seen:
                    seen.add(z)
                    new.append(z)
        frontier = new
    return sorted(seen, key=CoxeterElement.sort_key)


def render(query) -> str:
    try:
        table = query()
    except (ValidationError, InternalInvariantError) as exc:
        return f"error {type(exc).__name__}: {exc}"
    return json.dumps(table.to_json_obj(), sort_keys=True)


def digest(lines) -> str:
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def setting_lines(make, xs, ys, max_len=None, literal=False):
    """Standard and simple tables of every x, whole and at every explicit y."""
    try:
        setting = make()
    except ValueError as exc:  # ValidationError, or an unknown generator
        return [f"setting error: {exc}"]
    lines = []
    for x in xs:
        kw = {"literal_text": True} if literal else {}
        lines.append(render(lambda: setting.standard_table(x, max_len=max_len)))
        lines.append(render(lambda: setting.simple_table(x, max_len=max_len, **kw)))
        for y in ys:
            lines.append(render(lambda: setting.standard_table(x, y, max_len=max_len)))
            lines.append(render(lambda: setting.simple_table(x, y, max_len=max_len, **kw)))
    return lines


def subsets(names, k):
    return [c for n in range(k + 1) for c in combinations(names, n)]


def o_lines():
    system = CoxeterSystem.from_type("A3")
    hecke = HeckeContext(system)
    xs = [w.word for w in ball(system, 6)]
    ys = [w.word for w in ball(system, 1)]
    lines = []
    for I in subsets(system.names, 2):
        for J in subsets(system.names, 2):
            lines += setting_lines(lambda: CategoryO(hecke, I, J), xs, ys)
    return lines


def km_lines(tag, level, literal=False):
    system = CoxeterSystem.from_type(tag)
    hecke = HeckeContext(system)
    xs = [w.word for w in ball(system, 4)]
    ys = [w.word for w in ball(system, 1)]
    max_len = 6 if level == "pos" else None
    lines = []
    for I in [(), (1,), (1, 2)]:
        for J in [(), (1,), (0,)]:
            lines.append(f"I={I} J={J}")
            lines += setting_lines(
                lambda: KacMoody(hecke, I, J, level), xs, ys, max_len, literal
            )
    return lines


def km_unbounded_lines():
    """Positive-level tables without max_len, and literal text at both levels."""
    lines = []
    for tag in ("affA1", "affA2"):
        hecke = HeckeContext(CoxeterSystem.from_type(tag))
        for level in ("neg", "pos"):
            km = KacMoody(hecke, (1,), (), level)
            for x in [(0,), (1,), (0, 1)]:
                lines.append(render(lambda: km.standard_table(x)))
                lines.append(render(lambda: km.simple_table(x)))
                lines.append(render(lambda: km.simple_table(x, literal_text=True)))
                lines.append(render(lambda: km.simple_table(x, x, literal_text=True)))
    return lines


def quantum_weight_lines(tag, ell, weights):
    lines = []
    for lam in weights:
        try:
            Q, x = Quantum.from_weight(tag, ell, lam)
        except ValidationError as exc:
            lines.append(f"weight error: {exc}")
            continue
        ys = [w.word for w in ball(Q.system, 1)]
        lines += setting_lines(lambda: Q, [x.word], ys)
    return lines


def quantum_word_lines():
    datum = LinkageDatum("B2", 5)
    lines = []
    for I in [(), (0,), (1,), (2,)]:
        setting = Quantum(datum, I)
        xs = [w.word for w in ball(setting.system, 4)]
        ys = [w.word for w in ball(setting.system, 1)]
        lines += setting_lines(lambda: setting, xs, ys)
    return lines


GROUPS = {
    "O A3, |I|,|J| <= 2": o_lines,
    "KM- affA1": lambda: km_lines("affA1", "neg"),
    "KM- affA2": lambda: km_lines("affA2", "neg"),
    "KM+ affA1": lambda: km_lines("affA1", "pos"),
    "KM+ affA2": lambda: km_lines("affA2", "pos"),
    "KM+ affA1 literal": lambda: km_lines("affA1", "pos", literal=True),
    "KM+ unbounded and literal": km_unbounded_lines,
    "quantum A1 by weight": lambda: quantum_weight_lines(
        "A1", 5, [(a,) for a in range(-2, 15)]
    ),
    "quantum A2 by weight": lambda: quantum_weight_lines(
        "A2", 5, [(a, b) for a in range(-1, 6) for b in range(-1, 6)]
    ),
    "quantum B2 by weight": lambda: quantum_weight_lines(
        "B2", 5, [(a, b) for a in range(-1, 5) for b in range(-1, 5)]
    ),
    "quantum B2 by word": quantum_word_lines,
}

PINS = {
    "KM+ affA1": "b2cd5cedffec0609b1711c465a9bb1753e62fad8e26c3369af697c6be50d48b1",
    "KM+ affA1 literal": "f5047d4c597bf557c30d03cdd605579108803911bb4b4112e184b5f5a2b3c73e",
    "KM+ affA2": "5c1d16cd6ac4c6be9103cae115a5961ce4bd865d6120df796f369242b80d2282",
    "KM+ unbounded and literal": "4ffd578f1f006aecfbcfdfe91f6bedeb0032fa43a333cc8e5fcc8c1dc9cc9822",
    "KM- affA1": "55ab64d2010d83c12b774bb310903c78d2355880bd66daa8a3c4cd954461154d",
    "KM- affA2": "f09b5100311b91d1db0b626fcc5c5d009a6633c31ac17b600cbc23a152328eaf",
    "O A3, |I|,|J| <= 2": "abce56c59e1d2bae738c0f2eb4fd52163d185453be727a334ab8a0d4feabcd19",
    "quantum A1 by weight": "fd6f21ee6e7127bea57ab5137a7a3344fe0d7c491c3951fa79322b26d7fb0ee4",
    "quantum A2 by weight": "868e39d7612d19a35dad776e9fe234a87bb908497ae8d34ef63c1f30b83bb374",
    "quantum B2 by weight": "98a2e6d70611ab30919e42b24d55b4bc16b916ad4952e3a364384a13aa64de6a",
    "quantum B2 by word": "1b5623da8a495c3213c3071e562ef1083bc9f0177c4484cfd52c269aedf52a8c",
}


@pytest.mark.parametrize("group", sorted(GROUPS))
def test_tables_match_pinned_digest(group):
    assert digest(GROUPS[group]()) == PINS[group]


def column_line(hecke, fam, I, x):
    """One canonical line of a column, or of the error its query raises."""
    head = f"{family_id(fam, I)} {format_word(x.word) or 'e'}"
    try:
        col = hecke.column(fam, I, x)
    except (ValidationError, InternalInvariantError) as exc:
        return f"{head} error {type(exc).__name__}: {exc}"
    entries = {
        format_word(y.word) or "e": col[y].to_json_obj()
        for y in sorted(col, key=CoxeterElement.sort_key)
    }
    return f"{head} {json.dumps(entries, sort_keys=True)}"


def direct_lines(tag, max_len, parabolic):
    """Every h column, and every m and n column for each I, in a ball."""
    system = CoxeterSystem.from_type(tag)
    hecke = HeckeContext(system)
    queries = [("h", ())] + [(fam, I) for fam in ("m", "n") for I in parabolic]
    return [
        column_line(hecke, fam, I, x)
        for fam, I in queries
        for x in ball(system, max_len)
    ]


DIRECT_GROUPS = {
    "A3 up to length 6": lambda: direct_lines("A3", 6, [(), (1,), (1, 3)]),
    "B3 up to length 5": lambda: direct_lines("B3", 5, [(), (1,)]),
    "G2 up to length 6": lambda: direct_lines("G2", 6, [(), (1,)]),
    "affA1 up to length 6": lambda: direct_lines("affA1", 6, [(), (1,)]),
    "affA2 up to length 4": lambda: direct_lines("affA2", 4, [(), (1,)]),
}

DIRECT_PINS = {
    "A3 up to length 6": "75731b1e289e723d808e9c1cc4e69ca0051cf854682a448dd1334d3f691ce78e",
    "B3 up to length 5": "21bba220e18b480dcda3218ab3df61761f348aa91bea30da6d282464b49f0265",
    "G2 up to length 6": "cb17291b2b0ea9f80691dd752219d052137081f47f2e472b193e934f2561485f",
    "affA1 up to length 6": "cee1ec11fa9004ab1a8e3f5156d4c172cf9ea7bbb3624737f8a5c0276a2029e4",
    "affA2 up to length 4": "d0a74b1ec1f81127ccb74537622c7c9601279b1946bf676c0f6cfac524cd010f",
}


@pytest.mark.parametrize("group", sorted(DIRECT_GROUPS))
def test_direct_columns_match_pinned_digest(group):
    assert digest(DIRECT_GROUPS[group]()) == DIRECT_PINS[group]


def inverse_lines(tag, max_len=None):
    """Every inverse column (or its error) of h, and of m and n with |I| <= 2."""
    system = CoxeterSystem.from_type(tag)
    hecke = HeckeContext(system)
    xs = (
        system.enumerate_below(system.longest_element())
        if max_len is None
        else ball(system, max_len)
    )
    xs = sorted(xs, key=CoxeterElement.sort_key)
    queries = [("h", ())] + [
        (fam, I) for fam in ("m", "n") for I in subsets(system.names, 2)
    ]
    return [
        column_line(hecke, fam + "_inv", I, x) for fam, I in queries for x in xs
    ]


INVERSE_GROUPS = {
    "A3": lambda: inverse_lines("A3"),
    "B3": lambda: inverse_lines("B3"),
    "affA1 up to length 8": lambda: inverse_lines("affA1", 8),
    "affA2 up to length 6": lambda: inverse_lines("affA2", 6),
}

INVERSE_PINS = {
    "A3": "9a9be6176e57bc8c1d7425b76629bafb9d39c8f23e47396d825518cf6ea446b1",
    "B3": "b0b84cce1fa327d75ae314c767181c5a768d86ab661c74a7fb6cbbcb917f9f5a",
    "affA1 up to length 8": "2c3d4b4bd3914b541099442da52673a9ef783dee1a4244171db9f34ff8ba60bb",
    "affA2 up to length 6": "17438ba1aeb3b2d85ea6fb92beb4c002d14a36c31c44dce949ab166b1a2f5e5b",
}


@pytest.mark.parametrize("group", sorted(INVERSE_GROUPS))
def test_inverse_columns_match_pinned_digest(group):
    assert digest(INVERSE_GROUPS[group]()) == INVERSE_PINS[group]


W0_SIMPLE_PINS = {
    "B4": "5dbed424ba1b48eab53060ddda298693a4436a761c0584ca6330caf3301374a7",
    "A5": "806b5a506e23760f0907e74bf41bc00262b1cd3f24a8e37c5736090e3467ec69",
    # coefficients up to 1928, the largest any pin reaches
    "D5": "9fe4b2078a825f18f54635718c2432dd06a924f806b35affda5d593075538409",
}


@pytest.mark.parametrize("tag", sorted(W0_SIMPLE_PINS))
def test_w0_simple_table_matches_pinned_digest(tag):
    """CategoryO(I = J = ()).simple_table(w0), the largest table of its type."""
    system = CoxeterSystem.from_type(tag)
    setting = CategoryO(HeckeContext(system), I=(), J=())
    line = render(lambda: setting.simple_table(system.longest_element().word))
    assert digest([line]) == W0_SIMPLE_PINS[tag]
