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

Start-up imports only the layers every ``kl`` and ``tilt`` query runs
(coxeter, hecke, laurent); the tables, the root data, the oracle, ``json``
and the store's file modules are imported by the commands that use them.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from pathlib import Path
from typing import TYPE_CHECKING

import click

from .coxeter import CoxeterSystem, format_word, parse_word
from .errors import CacheError, InternalInvariantError, ValidationError
from .hecke import HeckeContext, PolyStore
from .laurent import ZERO, LaurentPoly

if TYPE_CHECKING:
    from .tilting import MultiplicityTable

FORMATS = click.Choice(["text", "json", "tsv"])


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


@click.group()
def cli() -> None:
    """Kazhdan-Lusztig polynomial families and tilting multiplicity tables."""


# -- kl ------------------------------------------------------------------------------


@cli.command("kl")
@click.option("--type", "type_tag", required=True, help="Type tag, e.g. A3, B2, affA1.")
@click.option("--x", "x_text", default=None, help="Lower index (direct) / column index (inverse).")
@click.option("--y", "y_texts", multiple=True, help="Upper index (direct) / lower index (inverse); repeatable.")
@click.option("--parabolic", "parabolic_text", default=None, help="Generator subset I, e.g. '1 3'.")
@click.option(
    "--flavor",
    type=click.Choice(["spherical", "antispherical"]),
    default=None,
    help="Parabolic module flavor; selects the m (spherical) or n (antispherical) family.",
)
@click.option("--inverse", is_flag=True, help="Inverse family: columns indexed by x, entries at y <= x.")
@click.option("--format", "fmt", type=FORMATS, default="text", show_default=True)
@click.option("--no-cache", is_flag=True, help="Skip the persistent column store.")
@click.option("--cache-path", default=None, help="Cache directory (defaults to $TILTC_CACHE).")
def kl_cmd(
    type_tag: str,
    x_text: str | None,
    y_texts: tuple[str, ...],
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
        raise click.UsageError("--parabolic needs --flavor")
    I = parse_word(parabolic_text) if parabolic_text else ()
    fam = "h" if flavor is None else ("m" if flavor == "spherical" else "n")
    system = CoxeterSystem.from_type(type_tag)
    with _column_store(system, cache_path, no_cache) as store:
        hecke = HeckeContext(system, store)

        if inverse:
            if x_text is None:
                raise click.UsageError("--inverse needs --x (the column index)")
            uppers = [x_text]
        else:
            if not y_texts:
                raise click.UsageError("a direct query needs at least one --y")
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
        import json

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
        click.echo(json.dumps(obj, sort_keys=True, indent=2))
        return
    single = len(records) == 1 and x_text is not None and len(y_texts) == 1
    if fmt == "text" and single:
        click.echo(records[0][2].to_text())
        return
    if records:  # one write: echo scans and flushes once per call
        poly_text = {p: p.to_text() for p in polys}
        shown = {w: _show_word(w) for w in words}
        click.echo("\n".join(f"{shown[x]}\t{shown[y]}\t{poly_text[p]}" for x, y, p in records))


# -- tilt ----------------------------------------------------------------------------


def _emit_table(table: MultiplicityTable, fmt: str) -> None:
    if fmt == "json":
        import json

        click.echo(json.dumps(table.to_json_obj(), sort_keys=True, indent=2))
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
    if lines:  # one write, as in kl
        click.echo("\n".join(lines))


@cli.group("tilt")
def tilt_group() -> None:
    """Graded multiplicity tables of minimal tilting complexes."""


def _table_options(fn):
    fn = click.option("--x", "x_text", required=True, help="Index word; 'e' for the identity.")(fn)
    fn = click.option("--y", "y_text", default=None, help="Restrict to one row.")(fn)
    fn = click.option(
        "--standard/--simple",
        "standard",
        default=True,
        help="Complex of the standard (default) or simple object.",
    )(fn)
    fn = click.option("--format", "fmt", type=FORMATS, default="text", show_default=True)(fn)
    fn = click.option("--no-cache", is_flag=True)(fn)
    fn = click.option("--cache-path", default=None)(fn)
    return fn


def _run_table(setting, standard: bool, x_word: tuple[int, ...], y_text: str | None, **kw):
    y_word = _parse_word_arg(y_text) if y_text is not None else None
    if standard:
        return setting.standard_table(x_word, y_word, **kw)
    return setting.simple_table(x_word, y_word, **kw)


@tilt_group.command("O")
@click.option("--type", "type_tag", required=True, help="Finite Weyl type, e.g. A2.")
@click.option("--I", "i_text", default="", help="Left generator subset.")
@click.option("--J", "j_text", default="", help="Right generator subset.")
@_table_options
def tilt_o(type_tag, i_text, j_text, x_text, y_text, standard, fmt, no_cache, cache_path):
    """Regular block of category O for a finite Weyl group."""
    from .tilting import CategoryO

    system = CoxeterSystem.from_type(type_tag)
    with _column_store(system, cache_path, no_cache) as store:
        setting = CategoryO(HeckeContext(system, store), I=parse_word(i_text), J=parse_word(j_text))
        table = _run_table(setting, standard, _parse_word_arg(x_text), y_text)
    _emit_table(table, fmt)


@tilt_group.command("km")
@click.option("--type", "type_tag", required=True, help="Affine type, e.g. affA1.")
@click.option("--I", "i_text", default="", help="Left generator subset.")
@click.option("--J", "j_text", default="", help="Right generator subset.")
@click.option("--level", type=click.Choice(["neg", "pos"]), default="neg", show_default=True)
@click.option(
    "--literal-positive-text",
    is_flag=True,
    help="At positive level, print the z-independent variant of the simple formula, unchecked and flagged.",
)
@click.option(
    "--max-length", "max_length", type=int, default=None,
    help="Row length bound (positive level only).",
)
@_table_options
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
                raise click.UsageError("--literal-positive-text applies to --simple tables")
            kw["literal_text"] = True
        table = _run_table(setting, standard, _parse_word_arg(x_text), y_text, **kw)
    _emit_table(table, fmt)


@tilt_group.command("quantum")
@click.option("--type", "type_tag", required=True, help="Finite type of the quantum group, e.g. A1.")
@click.option("--ell", type=int, required=True, help="Order of the root of unity.")
@click.option("--weight", "weight_text", default=None, help="Dominant weight, e.g. '7' or '1,2'.")
@click.option("--I", "i_text", default="", help="Wall subset (only with --x).")
@click.option("--x", "x_text", default=None, help="Index word; alternative to --weight.")
@click.option("--y", "y_text", default=None, help="Restrict to one row.")
@click.option("--standard/--simple", "standard", default=True)
@click.option("--format", "fmt", type=FORMATS, default="text", show_default=True)
@click.option("--no-cache", is_flag=True)
@click.option("--cache-path", default=None)
def tilt_quantum(
    type_tag, ell, weight_text, i_text, x_text, y_text,
    standard, fmt, no_cache, cache_path,
):
    """Quantum group at a root of unity: one linkage class of tilting modules."""
    if (weight_text is None) == (x_text is None):
        raise click.UsageError("give exactly one of --weight or --x")
    from .rootdata import LinkageDatum, parse_weight
    from .tilting import Quantum

    datum = LinkageDatum(type_tag, ell)
    with _column_store(datum.coxeter, cache_path, no_cache) as store:
        if weight_text is not None:
            if i_text:
                raise click.UsageError("--I is derived from the weight; use it only with --x")
            setting, x = Quantum.from_weight(type_tag, ell, parse_weight(weight_text), store=store)
            x_word = x.word
        else:
            setting = Quantum(datum, parse_word(i_text), store=store)
            x_word = _parse_word_arg(x_text)
        table = _run_table(setting, standard, x_word, y_text)
    _emit_table(table, fmt)


# -- oracle --------------------------------------------------------------------------


@cli.group("oracle")
def oracle_group() -> None:
    """Brute-force homological verification over exact rationals."""


@oracle_group.command("verify")
@click.option("--block", "block_name", default="sl2", show_default=True, help="Bundled block name.")
def oracle_verify(block_name: str) -> None:
    """Run all invariant suites over a block realization."""
    from .mincpx import load_block, verify_block

    block = load_block(block_name)
    results = verify_block(block)
    for name, detail in results:
        click.echo(f"ok {name}: {detail}")
    click.echo(f"all {len(results)} invariant suites pass")


# -- cache ---------------------------------------------------------------------------


@cli.group("cache")
def cache_group() -> None:
    """Inspect or clear the persistent polynomial column store."""


@cache_group.command("info")
@click.option("--path", default=None, help="Cache directory (defaults to $TILTC_CACHE).")
def cache_info(path: str | None) -> None:
    d = _cache_dir(path)
    if d is None:
        click.echo("cache: disabled (set TILTC_CACHE or pass --path)")
        return
    click.echo(f"cache: {d}")
    if not d.exists():
        click.echo("(directory does not exist yet)")
        return
    files = sorted(d.glob("*.jsonl"))
    if not files:
        click.echo("(no column files)")
    for f in files:
        click.echo(f"{f.name}\t{f.stat().st_size} bytes")


@cache_group.command("clear")
@click.option("--path", default=None, help="Cache directory (defaults to $TILTC_CACHE).")
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
        raise click.UsageError("no cache directory: set TILTC_CACHE or pass --path")
    removed = 0
    if d.exists():
        names = {f.name for f in d.glob("*.jsonl")}
        # a temp file .<system>.jsonl.<random>.tmp; the random part has no dot
        names |= {f.name[1:].rsplit(".", 2)[0] for f in d.glob(".*.jsonl.*.tmp")}
        for name in sorted(names):
            removed += PolyStore.clear(d / name)
    click.echo(f"removed {removed} cache file(s)")


# -- entry point ---------------------------------------------------------------------


def main(argv: list[str] | None = None) -> int:
    try:
        cli.main(args=argv, prog_name="tiltc", standalone_mode=False)
    except click.exceptions.Exit as exc:
        return exc.exit_code
    except click.ClickException as exc:
        click.echo(f"error: usage: {exc.format_message()}", err=True)
        return 1
    except click.exceptions.Abort:
        click.echo("error: usage: aborted", err=True)
        return 1
    except InternalInvariantError as exc:
        click.echo(f"error: internal-check: {exc}", err=True)
        return 3
    except CacheError as exc:
        click.echo(f"error: cache: {exc}", err=True)
        return 2
    except (ValidationError, ValueError) as exc:
        click.echo(f"error: invalid-input: {exc}", err=True)
        return 2
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
