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
are sorted by (length, word) and JSON keys are sorted.

Command lines are parsed by the standard library's argparse, with options
that are never abbreviated and values that are taken as given (see
``_Parser``); the command tree is built on the first ``main`` call, and
a command's options when it runs or prints its help.  Start-up imports
only the standard library and the layers every ``kl`` and ``tilt`` query
runs (coxeter, hecke, laurent); the tables, the root data, the oracle,
the JSON writer and the store's file modules are imported by the commands
that use them.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
import threading
from contextlib import contextmanager
from pathlib import Path
from typing import TYPE_CHECKING

from .coxeter import CoxeterSystem, format_word, parse_word
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


def _show_word(word: tuple[int, ...]) -> str:
    return format_word(word) or "e"


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


def kl_cmd(
    type_tag: str,
    x_text: str | None,
    y_texts: list[str],
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

        def run_column(upper_text: str) -> list[tuple[tuple[int, ...], tuple[int, ...], LaurentPoly]]:
            upper = system.element(_parse_word_arg(upper_text))
            if inverse:
                col = hecke.inverse_column(fam, I, upper)
            else:
                col = hecke.column(fam, I, upper)
            wanted = None
            if inverse and y_texts:
                wanted = {system.element(_parse_word_arg(t)) for t in y_texts}
            elif not inverse and x_text is not None:
                wanted = {system.element(_parse_word_arg(x_text))}
            entries = sorted(col.items(), key=lambda e: e[0].sort_key())
            if wanted is None:
                found = [(z, p) for z, p in entries if not p.is_zero()]
            else:
                found = [(z, p) for z, p in entries if z in wanted]
                missing = wanted.difference(z for z, _ in found)
                found += [(z, ZERO) for z in sorted(missing, key=lambda z: z.sort_key())]
            if inverse:
                return [(upper.word, z.word, p) for z, p in found]
            return [(z.word, upper.word, p) for z, p in found]

        records = [r for t in uppers for r in run_column(t)]

    # a column holds a handful of distinct polynomials and one upper word:
    # format each of them once
    polys = {p for _, _, p in records}
    words = {w for x, y, _ in records for w in (x, y)}
    if fmt == "json":
        from .jsontext import dumps

        poly_obj = {p: p.to_json_obj() for p in polys}
        word_text = {w: format_word(w) for w in words}
        obj = {
            "system": system.tag,
            "family": fam,
            "I": list(I),
            "inverse": inverse,
            "records": [
                {"x": word_text[x], "y": word_text[y], "poly": poly_obj[p]}
                for x, y, p in records
            ],
        }
        print(dumps(obj))
        return
    single = len(records) == 1 and x_text is not None and len(y_texts) == 1
    if fmt == "text" and single:
        print(records[0][2].to_text())
        return
    if records:  # one print for the column: each call makes two stream writes
        poly_text = {p: p.to_text() for p in polys}
        shown = {w: _show_word(w) for w in words}
        print("\n".join(f"{shown[x]}\t{shown[y]}\t{poly_text[p]}" for x, y, p in records))


# -- tilt ----------------------------------------------------------------------------


def _emit_table(table: MultiplicityTable, fmt: str) -> None:
    if fmt == "json":
        from .jsontext import dumps

        print(dumps(table.to_json_obj()))
        return
    lines = []
    for w, p in table.entries:
        cells = [_show_word(w), p.to_text()]
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
    removed = 0
    if d.exists():
        names = {f.name for f in d.glob("*.jsonl")}
        # a temp file .<system>.jsonl.<random>.tmp; the random part has no dot
        names |= {f.name[1:].rsplit(".", 2)[0] for f in d.glob(".*.jsonl.*.tmp")}
        for name in sorted(names):
            removed += PolyStore.clear(d / name)
    print(f"removed {removed} cache file(s)")


# -- parser and entry point ---------------------------------------------------------


class _Help(argparse.RawDescriptionHelpFormatter):
    def _get_default_metavar_for_optional(self, action):
        return action.option_strings[0].lstrip("-").upper()  # --type TYPE, not its dest


_declaring = threading.Lock()


class _Parser(argparse.ArgumentParser):
    """One command's parser: no abbreviated options, no -h, and an option
    that takes a value takes the next token, whatever it is (``--y --x``,
    ``--weight -3,1``).  Its options are declared by ``options`` when the
    parser first reads a command line, so a process declares only those of
    the command it runs."""

    def __init__(self, options=None, **kw):
        super().__init__(add_help=False, allow_abbrev=False, formatter_class=_Help, **kw)
        self._declare = options or (lambda parser: None)

    def parse_known_args(self, args=None, namespace=None):
        if self._declare is not None:
            with _declaring:  # main may run in two threads at once
                if self._declare is not None:
                    self.add_argument("--help", action="help", help="Show this message and exit.")
                    self._declare(self)
                    self._declare = None
        # Read the options before argparse does: an unknown option or a
        # missing value fails even next to --help, which wins over every
        # later error; a value is glued on as --opt=value, which argparse
        # never reads as an option; after "--" every token is an argument.
        # A group's tokens end at the command name: the rest are the
        # command's to read.
        glued, rest, show_help = [], [], False
        tokens = iter(sys.argv[1:] if args is None else args)
        for token in tokens:
            if token == "--":
                rest = list(tokens)
                break
            if token[:1] != "-" or token == "-":
                if self._subparsers is not None:
                    rest = [token, *tokens]
                    break
                glued.append(token)
                continue
            option, eq, _ = token.partition("=")
            action = self._option_string_actions.get(option)
            if action is None:
                raise UsageError(f"No such option '{option}'.")
            if action.nargs is None and not eq:
                value = next(tokens, None)
                if value is None:
                    raise UsageError(f"Option '{option}' requires an argument.")
                token = f"{option}={value}"
            elif action.nargs == 0 and eq:
                raise UsageError(f"Option '{option}' does not take a value.")
            show_help |= option == "--help"
            glued.append(token)
        if show_help:
            self.print_help()
            self.exit()
        if self._subparsers is not None:
            return super().parse_known_args(glued + rest, namespace)
        namespace, extra = super().parse_known_args(glued, namespace)
        return namespace, extra + rest

    def error(self, message):
        raise UsageError(message)


def _commands(parser: _Parser):
    return parser.add_subparsers(title="commands", dest="run", metavar="COMMAND", required=True)


def _command(commands, name: str, doc: str, run=None, options=None) -> _Parser:
    """The parser of one command, or of a group of commands without run;
    its help is doc, the group's list shows doc's first line, and options
    declares its options."""
    lines = [line.strip() for line in doc.strip().splitlines()]
    parser = commands.add_parser(name, help=lines[0], description="\n".join(lines), options=options)
    parser.set_defaults(run=run)
    return parser


def _kl_options(kl: _Parser) -> None:
    kl.add_argument("--type", dest="type_tag", required=True, help="Type tag, e.g. A3, B2, affA1.")
    kl.add_argument("--x", dest="x_text", help="Lower index (direct) / column index (inverse).")
    kl.add_argument(
        "--y", dest="y_texts", action="append", default=[],
        help="Upper index (direct) / lower index (inverse); repeatable.",
    )
    kl.add_argument("--parabolic", dest="parabolic_text", help="Generator subset I, e.g. '1 3'.")
    kl.add_argument(
        "--flavor", choices=("spherical", "antispherical"),
        help="Parabolic module flavor; selects the m (spherical) or n (antispherical) family.",
    )
    kl.add_argument(
        "--inverse", action="store_true", help="Inverse family: columns indexed by x, entries at y <= x."
    )
    _output_options(kl)


def _km_options(km: _Parser) -> None:
    _coset_options(km, "Affine type, e.g. affA1.")
    km.add_argument("--level", choices=("neg", "pos"), default="neg", help="Level (default: neg).")
    km.add_argument(
        "--literal-positive-text", action="store_true",
        help="At positive level, print the z-independent variant of the simple formula, "
        "unchecked and flagged.",
    )
    km.add_argument("--max-length", type=int, help="Row length bound (positive level only).")


def _quantum_options(quantum: _Parser) -> None:
    quantum.add_argument(
        "--type", dest="type_tag", required=True, help="Finite type of the quantum group, e.g. A1."
    )
    quantum.add_argument("--ell", type=int, required=True, help="Order of the root of unity.")
    quantum.add_argument("--weight", dest="weight_text", help="Dominant weight, e.g. '7' or '1,2'.")
    quantum.add_argument("--I", dest="i_text", default="", help="Wall subset (only with --x).")
    quantum.add_argument("--x", dest="x_text", help="Index word; alternative to --weight.")
    _table_options(quantum)


def _coset_options(parser: _Parser, type_help: str) -> None:
    parser.add_argument("--type", dest="type_tag", required=True, help=type_help)
    parser.add_argument("--I", dest="i_text", default="", help="Left generator subset.")
    parser.add_argument("--J", dest="j_text", default="", help="Right generator subset.")
    parser.add_argument("--x", dest="x_text", required=True, help="Index word; 'e' for the identity.")
    _table_options(parser)


def _table_options(parser: _Parser) -> None:
    parser.add_argument("--y", dest="y_text", help="Restrict to one row.")
    parser.add_argument(
        "--standard", action="store_true", default=True, help="Complex of the standard object (default)."
    )
    parser.add_argument("--simple", dest="standard", action="store_false", help="Complex of the simple object.")
    _output_options(parser)


def _output_options(parser: _Parser) -> None:
    parser.add_argument(
        "--format", dest="fmt", choices=FORMATS, default="text", help="Output format (default: text)."
    )
    parser.add_argument("--no-cache", action="store_true", help="Skip the persistent column store.")
    parser.add_argument("--cache-path", help="Cache directory (defaults to $TILTC_CACHE).")


@functools.cache
def _parser() -> _Parser:
    """The command tree: every command's name and help line."""
    root = _Parser(
        prog="tiltc", description="Kazhdan-Lusztig polynomial families and tilting multiplicity tables."
    )
    commands = _commands(root)
    _command(commands, "kl", kl_cmd.__doc__, kl_cmd, _kl_options)
    tilt = _commands(
        _command(commands, "tilt", "Graded multiplicity tables of minimal tilting complexes.")
    )
    _command(
        tilt, "O", tilt_o.__doc__, tilt_o, lambda o: _coset_options(o, "Finite Weyl type, e.g. A2.")
    )
    _command(tilt, "km", tilt_km.__doc__, tilt_km, _km_options)
    _command(tilt, "quantum", tilt_quantum.__doc__, tilt_quantum, _quantum_options)
    oracle = _commands(
        _command(commands, "oracle", "Brute-force homological verification over exact rationals.")
    )
    _command(
        oracle, "verify", oracle_verify.__doc__, oracle_verify,
        lambda verify: verify.add_argument(
            "--block", dest="block_name", default="sl2", help="Bundled block name (default: sl2)."
        ),
    )
    cache = _commands(
        _command(commands, "cache", "Inspect or clear the persistent polynomial column store.")
    )
    for name, run in (("info", cache_info), ("clear", cache_clear)):
        _command(
            cache, name, run.__doc__, run,
            lambda parser: parser.add_argument("--path", help="Cache directory (defaults to $TILTC_CACHE)."),
        )
    return root


def main(argv: list[str] | None = None) -> int:
    try:
        args, extra = _parser().parse_known_args(argv)
        if extra:
            raise UsageError(f"Got unexpected extra arguments ({' '.join(extra)})")
        kwargs = vars(args)
        kwargs.pop("run")(**kwargs)
    except SystemExit as exc:  # --help printed the help
        return exc.code
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
