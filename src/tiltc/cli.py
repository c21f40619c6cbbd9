"""Command line interface.

Four command groups:

* ``kl`` -- single polynomials or whole columns of the direct families
  (ordinary, spherical, antispherical) and their inverses.
* ``tilt`` -- graded multiplicity tables for minimal tilting complexes in
  the three settings (finite category O, affine Kac-Moody at either level,
  quantum groups at a root of unity).
* ``oracle`` -- run the brute-force homological verification suites over a
  bundled block realization.
* ``cache`` -- inspect or clear the persistent polynomial column store.

Exit codes: 0 success, 1 usage error, 2 invalid input or cache failure,
3 violated internal invariant.  Errors print one ``error: <kind>: ...``
line to stderr.  Output bytes are deterministic for fixed inputs: entries
are sorted by (length, word) and JSON keys are sorted.  A closed stdout
(``tiltc ... | head -1``) ends a command quietly with exit 0: every result
is computed, and every store saved, before a command's first print.

The command tree is one table, ``_TREE``, of each command's docstring, run
function and options.  ``main`` reads a command line once, level by level:
``_scan`` reads a level's options (never abbreviated; a value is taken as
given), ``_convert`` makes a command's keyword arguments of them, and
``--help`` prints ``_print_help``.  Start-up imports only the standard
library and the layers every ``kl`` and ``tilt`` query runs (coxeter,
hecke, laurent); the tables, the root data, the oracle, the JSON writer
and the store's file modules are imported by the commands that use them.
"""

from __future__ import annotations

import os
import sys
from contextlib import contextmanager
from operator import itemgetter
from pathlib import Path
from typing import TYPE_CHECKING, Mapping, Sequence

from .coxeter import CoxeterSystem, format_word, format_words, parse_word
from .errors import CacheError, InternalInvariantError, ValidationError
from .hecke import HeckeContext, PolyStore
from .laurent import ZERO, LaurentPoly

if TYPE_CHECKING:
    from .tilting import MultiplicityTable

FORMATS = ("text", "json", "tsv")


class UsageError(Exception):
    """A command line the commands cannot run; exit 1."""


def _parse_word_arg(text: str) -> tuple[int, ...]:
    """Generator word; 'e' (or an empty string) is the identity."""
    s = text.strip()
    if s.lower() == "e":
        return ()
    return parse_word(s)


def _cache_dir(explicit: str | None) -> Path | None:
    if explicit:
        return Path(explicit)
    env = os.environ.get("TILTC_CACHE")
    return Path(env) if env else None


@contextmanager
def _column_store(system: CoxeterSystem, cache_path: str | None, no_cache: bool):
    """The persistent column store of system, or None without a cache
    directory; saved, if the body added columns, when the body returns."""
    cache_dir = _cache_dir(cache_path)
    if no_cache or cache_dir is None:
        yield None
        return
    path = cache_dir / f"{system.tag}.jsonl"
    if path.exists():
        store = PolyStore.load(path, system.tag, len(system.names))
    else:
        store = PolyStore(system.tag, len(system.names))
    yield store
    if store.dirty:
        store.save(path)


# -- kl ------------------------------------------------------------------------------


def kl_entries(
    system: CoxeterSystem, column: Mapping[int, LaurentPoly], wanted: set[int] | None = None,
    spelled: dict | None = None,
) -> list[tuple[int, LaurentPoly]]:
    """The entries of a column by element id that ``tiltc kl`` prints, in
    ShortLex order: the nonzero ones, or with ``wanted`` those at its ids,
    then each wanted id absent from the column with 0.  spelled, the memo
    of keys and word texts the sort reads, can be shared with kl_output."""
    if wanted is None:
        return [(z, p) for z in system._sorted(column, spelled) if not (p := column[z]).is_zero()]
    found = [(z, column[z]) for z in system._sorted(wanted.intersection(column), spelled)]
    return found + [(z, ZERO) for z in system._sorted(wanted.difference(column), spelled)]


def kl_output(
    system: CoxeterSystem, records: list[tuple[int, int, LaurentPoly]], head: dict | None = None,
    spelled: dict | None = None,
) -> str:
    """Records (x, y, poly), x and y element ids, as tab-separated lines, or
    with ``head`` as the JSON object of head and records.  The words go
    through format_words (with the memo kl_entries filled, when given), and
    each polynomial is formatted once: the equal polynomials of a context
    are one object, so they are keyed by identity."""
    words = format_words(system, {*map(itemgetter(0), records), *map(itemgetter(1), records)}, spelled)
    polys = {id(p): p for _, _, p in records}
    if head is not None:
        from .jsontext import dumps

        poly_obj = {k: p.to_json_obj() for k, p in polys.items()}
        return dumps({**head, "records": [
            {"x": words[x], "y": words[y], "poly": poly_obj[id(p)]} for x, y, p in records
        ]})
    poly_text = {k: p.to_text() for k, p in polys.items()}
    return "\n".join(f"{words[x] or 'e'}\t{words[y] or 'e'}\t{poly_text[id(p)]}" for x, y, p in records)


def kl_cmd(
    type_tag: str,
    x_text: str | None,
    y_texts: Sequence[str],
    parabolic_text: str | None,
    flavor: str | None,
    inverse: bool,
    fmt: str,
    no_cache: bool,
    cache_path: str | None,
) -> None:
    """Polynomials of one family: single values or whole columns.

    Direct families give h/m/n indexed as (x, y) with x <= y; pass --y for
    the column and optionally --x for one entry.  With --inverse the column
    is indexed by --x and the entries run over y <= x.
    """
    if parabolic_text is not None and flavor is None:
        raise UsageError("--parabolic needs --flavor")
    I = parse_word(parabolic_text) if parabolic_text else ()
    fam = "h" if flavor is None else ("m" if flavor == "spherical" else "n")
    system = CoxeterSystem.from_type(type_tag)
    with _column_store(system, cache_path, no_cache) as store:
        hecke = HeckeContext(system, store)

        if inverse:
            if x_text is None:
                raise UsageError("--inverse needs --x (the column index)")
            uppers = [x_text]
        else:
            if not y_texts:
                raise UsageError("a direct query needs at least one --y")
            uppers = list(y_texts)

        spelled: dict = {0: (0, "")}  # keys and word texts, read once for sort and print

        def run_column(upper_text: str) -> list[tuple[int, int, LaurentPoly]]:
            upper = system.element(_parse_word_arg(upper_text))
            if inverse:
                col = {z.id: p for z, p in hecke.inverse_column(fam, I, upper).items()}
            else:
                col = hecke.entries(fam, I, upper)
            wanted = None
            if inverse and y_texts:
                wanted = {system.element(_parse_word_arg(t)).id for t in y_texts}
            elif not inverse and x_text is not None:
                wanted = {system.element(_parse_word_arg(x_text)).id}
            if inverse:
                return [(upper.id, z, p) for z, p in kl_entries(system, col, wanted, spelled)]
            return [(z, upper.id, p) for z, p in kl_entries(system, col, wanted, spelled)]

        records = [r for t in uppers for r in run_column(t)]

    if fmt == "json":
        head = {"system": system.tag, "family": fam, "I": list(I), "inverse": inverse}
        print(kl_output(system, records, head, spelled))
        return
    single = len(records) == 1 and x_text is not None and len(y_texts) == 1
    if fmt == "text" and single:
        print(records[0][2].to_text())
        return
    if records:  # one print for the column: each call makes two stream writes
        print(kl_output(system, records, spelled=spelled))


# -- tilt ----------------------------------------------------------------------------


def _emit_table(table: MultiplicityTable, fmt: str) -> None:
    if fmt == "json":
        from .jsontext import dumps

        print(dumps(table.to_json_obj()))
        return
    lines = []
    for w, p in table.entries:
        cells = [format_word(w) or "e", p.to_text()]
        if table.weights is not None and w in table.weights:
            cells.append(table.weights[w])
        lines.append("\t".join(cells))
    if fmt == "text":
        nabla, delta = table.dims()
        lines.append(f"# dims\tnabla={nabla}\tdelta={delta}")
        lines += [f"# flag\t{flag}" for flag in table.flags]
    if lines:  # one print, as in kl
        print("\n".join(lines))


def _run_table(setting, standard: bool, x_word: tuple[int, ...], y_text: str | None, **kw):
    y_word = _parse_word_arg(y_text) if y_text is not None else None
    if standard:
        return setting.standard_table(x_word, y_word, **kw)
    return setting.simple_table(x_word, y_word, **kw)


def tilt_o(type_tag, i_text, j_text, x_text, y_text, standard, fmt, no_cache, cache_path):
    """Regular block of category O for a finite Weyl group."""
    from .tilting import CategoryO

    system = CoxeterSystem.from_type(type_tag)
    with _column_store(system, cache_path, no_cache) as store:
        setting = CategoryO(HeckeContext(system, store), I=parse_word(i_text), J=parse_word(j_text))
        table = _run_table(setting, standard, _parse_word_arg(x_text), y_text)
    _emit_table(table, fmt)


def tilt_km(
    type_tag, i_text, j_text, level, literal_positive_text,
    x_text, y_text, standard, max_length, fmt, no_cache, cache_path,
):
    """Affine Kac-Moody category O at negative or positive level."""
    from .tilting import KacMoody

    system = CoxeterSystem.from_type(type_tag)
    with _column_store(system, cache_path, no_cache) as store:
        setting = KacMoody(
            HeckeContext(system, store),
            I=parse_word(i_text),
            J=parse_word(j_text),
            level=level,
        )
        kw = {"max_len": max_length}
        if literal_positive_text:
            if standard:
                raise UsageError("--literal-positive-text applies to --simple tables")
            kw["literal_text"] = True
        table = _run_table(setting, standard, _parse_word_arg(x_text), y_text, **kw)
    _emit_table(table, fmt)


def tilt_quantum(
    type_tag, ell, weight_text, i_text, x_text, y_text,
    standard, fmt, no_cache, cache_path,
):
    """Quantum group at a root of unity: one linkage class of tilting modules."""
    if (weight_text is None) == (x_text is None):
        raise UsageError("give exactly one of --weight or --x")
    from .rootdata import LinkageDatum, parse_weight
    from .tilting import Quantum

    datum = LinkageDatum(type_tag, ell)
    with _column_store(datum.coxeter, cache_path, no_cache) as store:
        if weight_text is not None:
            if i_text:
                raise UsageError("--I is derived from the weight; use it only with --x")
            setting, x = Quantum.from_weight(type_tag, ell, parse_weight(weight_text), store=store)
            x_word = x.word
        else:
            setting = Quantum(datum, parse_word(i_text), store=store)
            x_word = _parse_word_arg(x_text)
        table = _run_table(setting, standard, x_word, y_text)
    _emit_table(table, fmt)


# -- oracle --------------------------------------------------------------------------


def oracle_verify(block_name: str) -> None:
    """Run all invariant suites over a block realization."""
    from .mincpx import load_block, verify_block

    block = load_block(block_name)
    results = verify_block(block)
    for name, detail in results:
        print(f"ok {name}: {detail}")
    print(f"all {len(results)} invariant suites pass")


# -- cache ---------------------------------------------------------------------------


def cache_info(path: str | None) -> None:
    """Show the cache directory and its column files."""
    d = _cache_dir(path)
    if d is None:
        print("cache: disabled (set TILTC_CACHE or pass --path)")
        return
    if d.exists() and not d.is_dir():
        raise CacheError(f"{d} is not a directory")
    print(f"cache: {d}")
    if not d.exists():
        print("(directory does not exist yet)")
        return
    files = sorted(d.glob("*.jsonl"))
    if not files:
        print("(no column files)")
    for f in files:
        print(f"{f.name}\t{f.stat().st_size} bytes")


def cache_clear(path: str | None) -> None:
    """Remove the column files (*.jsonl) of the cache directory.

    Each file is removed under its system's lock, with the temp files
    (.<system>.jsonl.*.tmp) of saves killed before their rename.  The
    <system>.jsonl.lock files stay: another process may hold the lock on
    one, and unlinking it would let the next save lock a new file of the
    same name, so two saves could run at once.
    """
    d = _cache_dir(path)
    if d is None:
        raise UsageError("no cache directory: set TILTC_CACHE or pass --path")
    if d.exists() and not d.is_dir():
        raise CacheError(f"{d} is not a directory")
    removed = 0
    if d.exists():
        names = {f.name for f in d.glob("*.jsonl")}
        # a temp file .<system>.jsonl.<random>.tmp; the random part has no dot
        names |= {f.name[1:].rsplit(".", 2)[0] for f in d.glob(".*.jsonl.*.tmp")}
        for name in sorted(names):
            removed += PolyStore.clear(d / name)
    print(f"removed {removed} cache file(s)")


# -- command tree and entry point ---------------------------------------------------

_REQUIRED = object()  # the default of an option that must be given

# An option is (flag, dest, kind, default, help): kind is str, int, list (a
# repeatable option: a list of its default and the values given), a tuple of
# choices, or for a flag the value it stores.
_HELP = ("--help", "help", True, False, "Show this message and exit.")
_OUTPUT = (
    ("--format", "fmt", FORMATS, "text", "Output format (default: text)."),
    ("--no-cache", "no_cache", True, False, "Skip the persistent column store."),
    ("--cache-path", "cache_path", str, None, "Cache directory (defaults to $TILTC_CACHE)."),
)
_TABLE = (
    ("--y", "y_text", str, None, "Restrict to one row."),
    ("--standard", "standard", True, True, "Complex of the standard object (default)."),
    ("--simple", "standard", False, True, "Complex of the simple object."),
    *_OUTPUT,
)
# the options of a table indexed by a double coset; --type comes first
_COSET = (
    ("--I", "i_text", str, "", "Left generator subset."),
    ("--J", "j_text", str, "", "Right generator subset."),
    ("--x", "x_text", str, _REQUIRED, "Index word; 'e' for the identity."),
    *_TABLE,
)
_PATH = (("--path", "path", str, None, "Cache directory (defaults to $TILTC_CACHE)."),)

# The command tree: a command is (docstring, run function, options), a group
# of commands (docstring, {name: command or group}, ()).
_TREE = (
    "Kazhdan-Lusztig polynomial families and tilting multiplicity tables.",
    {
        "kl": (kl_cmd.__doc__, kl_cmd, (
            ("--type", "type_tag", str, _REQUIRED, "Type tag, e.g. A3, B2, affA1."),
            ("--x", "x_text", str, None, "Lower index (direct) / column index (inverse)."),
            ("--y", "y_texts", list, (), "Upper index (direct) / lower index (inverse); repeatable."),
            ("--parabolic", "parabolic_text", str, None, "Generator subset I, e.g. '1 3'."),
            (
                "--flavor", "flavor", ("spherical", "antispherical"), None,
                "Parabolic module flavor; selects the m (spherical) or n (antispherical) family.",
            ),
            ("--inverse", "inverse", True, False, "Inverse family: columns indexed by x, entries at y <= x."),
            *_OUTPUT,
        )),
        "tilt": ("Graded multiplicity tables of minimal tilting complexes.", {
            "O": (tilt_o.__doc__, tilt_o, (
                ("--type", "type_tag", str, _REQUIRED, "Finite Weyl type, e.g. A2."),
                *_COSET,
            )),
            "km": (tilt_km.__doc__, tilt_km, (
                ("--type", "type_tag", str, _REQUIRED, "Affine type, e.g. affA1."),
                *_COSET,
                ("--level", "level", ("neg", "pos"), "neg", "Level (default: neg)."),
                (
                    "--literal-positive-text", "literal_positive_text", True, False,
                    "At positive level, print the z-independent variant of the simple formula, "
                    "unchecked and flagged.",
                ),
                ("--max-length", "max_length", int, None, "Row length bound (positive level only)."),
            )),
            "quantum": (tilt_quantum.__doc__, tilt_quantum, (
                ("--type", "type_tag", str, _REQUIRED, "Finite type of the quantum group, e.g. A1."),
                ("--ell", "ell", int, _REQUIRED, "Order of the root of unity."),
                ("--weight", "weight_text", str, None, "Dominant weight, e.g. '7' or '1,2'."),
                ("--I", "i_text", str, "", "Wall subset (only with --x)."),
                ("--x", "x_text", str, None, "Index word; alternative to --weight."),
                *_TABLE,
            )),
        }, ()),
        "oracle": ("Brute-force homological verification over exact rationals.", {
            "verify": (oracle_verify.__doc__, oracle_verify, (
                ("--block", "block_name", str, "sl2", "Bundled block name (default: sl2)."),
            )),
        }, ()),
        "cache": ("Inspect or clear the persistent polynomial column store.", {
            "info": (cache_info.__doc__, cache_info, _PATH),
            "clear": (cache_clear.__doc__, cache_clear, _PATH),
        }, ()),
    },
    (),
)


def _scan(options: tuple, tokens: list[str], group: bool) -> tuple[list, list[str]]:
    """The options given at one level of a command line, as (option, value)
    pairs, and the tokens left: those after "--", a command's arguments, and
    at a group every token from the command name on.

    An option is never abbreviated; one that takes a value takes the next
    token, whatever it is (``--y --x``, ``--weight -3,1``), or the value
    glued on as ``--opt=value``.  An unknown option, a missing value or a
    value given to a flag fails here, so even next to ``--help``, which wins
    over every later error.
    """
    known = {option[0]: option for option in (_HELP, *options)}
    given, rest = [], []
    tokens = iter(tokens)
    for token in tokens:
        if token == "--":
            rest += tokens
            break
        if token[:1] != "-" or token == "-":
            rest.append(token)
            if group:
                rest += tokens
                break
            continue
        flag, eq, value = token.partition("=")
        option = known.get(flag)
        if option is None:
            raise UsageError(f"No such option '{flag}'.")
        if isinstance(option[2], bool):
            if eq:
                raise UsageError(f"Option '{flag}' does not take a value.")
            value = option[2]
        elif not eq:
            value = next(tokens, None)
            if value is None:
                raise UsageError(f"Option '{flag}' requires an argument.")
        given.append((option, value))
    return given, rest


def _convert(options: tuple, given: list, extra: list[str]) -> dict:
    """The keyword arguments of a command: each option's default, then its
    given values in order, so the last one wins and a list grows."""
    kwargs = {dest: default for _, dest, _, default, _ in options}
    for (flag, dest, kind, _, _), value in given:
        if kind is list:
            value = [*kwargs[dest], value]
        elif kind is int:
            try:
                value = int(value)
            except ValueError:
                raise UsageError(f"Option '{flag}': '{value}' is not an integer.") from None
        elif isinstance(kind, tuple) and value not in kind:
            raise UsageError(f"Option '{flag}': '{value}' is not one of {', '.join(kind)}.")
        kwargs[dest] = value
    missing = [flag for flag, dest, *_ in options if kwargs[dest] is _REQUIRED]
    if missing:
        raise UsageError(f"Missing option(s) {', '.join(missing)}.")
    if extra:
        raise UsageError(f"Got unexpected extra arguments ({' '.join(extra)})")
    return kwargs


def _print_help(path: list[str], doc: str, target, options: tuple) -> None:
    """Usage, the docstring, then a group's commands (each with its
    docstring's first line) or a command's options with their help lines."""
    import textwrap
    def shown(flag, kind):  # the flag and what its value is
        if isinstance(kind, bool):
            return flag
        return f"{flag} {{{','.join(kind)}}}" if isinstance(kind, tuple) else f"{flag} {flag[2:].upper()}"

    sections = {"options": [(shown(flag, kind), text) for flag, _, kind, _, text in (_HELP, *options)]}
    if isinstance(target, dict):
        usage = ["[--help]", "COMMAND", "..."]
        firsts = [(name, sub[0].strip().splitlines()[0]) for name, sub in target.items()]
        sections = {"commands": firsts, **sections}
    else:
        required = [shown(flag, kind) for flag, _, kind, default, _ in options if default is _REQUIRED]
        usage = [*required, "[options]"]
    width = max(len(left) for rows in sections.values() for left, _ in rows)
    lines = ["usage: " + " ".join(path + usage), "", *(line.strip() for line in doc.strip().splitlines())]
    for title, rows in sections.items():
        lines += ["", f"{title}:"]
        for left, text in rows:  # the help line wrapped to 79 columns, beside its flag
            indent = f"  {left:<{width}}  "
            lines += textwrap.wrap(text, 79, initial_indent=indent, subsequent_indent=" " * len(indent))
    print("\n".join(lines))


def main(argv: list[str] | None = None) -> int:
    path, (doc, target, options) = ["tiltc"], _TREE
    tokens = sys.argv[1:] if argv is None else argv
    try:
        while True:  # down the tree, one level of the command line at a time
            given, rest = _scan(options, tokens, isinstance(target, dict))
            if any(option is _HELP for option, _ in given):
                _print_help(path, doc, target, options)
                break
            if not isinstance(target, dict):
                target(**_convert(options, given, rest))
                break
            if not rest or rest[0] not in target:
                raise UsageError(f"No such command '{rest[0]}'." if rest else "Missing command.")
            name, *tokens = rest
            path.append(name)
            doc, target, options = target[name]
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader of stdout is gone: the rest goes nowhere, the interpreter's last flush too
        with open(os.devnull, "wb") as null:
            os.dup2(null.fileno(), 1)
    except UsageError as exc:
        print(f"error: usage: {exc}", file=sys.stderr)
        return 1
    except KeyboardInterrupt:
        print("error: usage: aborted", file=sys.stderr)
        return 1
    except InternalInvariantError as exc:
        print(f"error: internal-check: {exc}", file=sys.stderr)
        return 3
    except CacheError as exc:
        print(f"error: cache: {exc}", file=sys.stderr)
        return 2
    except (ValidationError, ValueError) as exc:
        print(f"error: invalid-input: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
