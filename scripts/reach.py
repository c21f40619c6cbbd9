#!/usr/bin/env python3
"""Print the code in ``src/tiltc`` that the contract traffic never reaches.

The traffic, run in this process under ``sys.settrace``:

* every row of ``tests/data/cli_corpus.tsv``, through ``tests/test_cli.py``'s
  ``run_corpus_line``;
* every ``$ tiltc`` line and the python block of ``README.md``;
* every script command line of ``tests/test_scripts.py``;
* one replay of each benchmark run set, through ``perfbench/workloads.py``'s
  ``run_unit``.

Only lines inside functions count, since module and class bodies run at
import.  For each module the report gives the executable lines not reached
and the functions never entered, then one total line.  A function never
entered that the benchmark keeps by name is marked with why: wrapped by
``perfbench/layers.py``'s tracer (installed and closed again, as
``tests/test_benchmark_tracer.py`` does) or named in
``perfbench/make_refs.py`` (as an attribute or a global; a dunder that its
syntax calls, such as ``__iter__`` in a for loop, is not seen).  A line
reached only through a library call that none of the traffic makes is
reported as not reached.  Takes no options:

    python3 scripts/reach.py

The census is importable: ``census(runs)`` traces a list of zero-argument
callables (``corpus_runs``, ``readme_runs``, ``script_runs`` and
``workload_runs`` make them) and returns the report as a mapping.
"""

from __future__ import annotations

import ast
import contextlib
import importlib
import importlib.util
import io
import os
import runpy
import shlex
import sys
import tempfile
import types
from pathlib import Path
from typing import Callable, Iterable, NamedTuple

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
PACKAGE = SRC / "tiltc"

Run = Callable[[], object]


def _importable() -> None:
    """Put the program, the tests and the benchmark on the import path."""
    for path in (SRC, ROOT / "tests", ROOT / "perfbench"):
        if str(path) not in sys.path:
            sys.path.insert(0, str(path))


class Reach(NamedTuple):
    """What the traffic reached of one module's functions."""

    lines: int  # executable lines inside its functions
    missed: list[int]  # those never reached
    never: list[str]  # qualified names of the functions never entered
    pinned: dict[str, str]  # those of never that the benchmark keeps by name -> why


def corpus_runs(rows: Iterable[str] | None = None) -> list[Run]:
    """One run per corpus command line (argv text, as in the corpus's fourth
    column); every row of the corpus when ``rows`` is None."""
    _importable()
    from test_cli import CORPUS, run_corpus_line

    if rows is None:
        rows = [line.split("\t")[3] for line in CORPUS.read_text().splitlines()
                if line and not line.startswith("#")]

    def run(argv_text: str) -> None:
        with tempfile.TemporaryDirectory() as tmp:
            run_corpus_line(argv_text, Path(tmp))

    return [lambda text=text: run(text) for text in rows]


def readme_runs() -> list[Run]:
    """Every README ``$ tiltc`` line and python block, with stdout dropped."""
    _importable()
    from test_readme import blocks, examples
    from tiltc.cli import main

    def command(line: str) -> None:
        with contextlib.redirect_stdout(io.StringIO()):
            main(shlex.split(line, comments=True)[1:])

    def snippet(source: str) -> None:
        with contextlib.redirect_stdout(io.StringIO()):
            exec(compile(source, "README.md", "exec"), {})

    return ([lambda line=line: command(line) for line, _ in examples()]
            + [lambda source=source: snippet(source) for source in blocks("python")])


def script_runs() -> list[Run]:
    """Every script command line of ``tests/test_scripts.py``, run as
    ``__main__`` in this process from the repository root."""
    _importable()
    from test_scripts import COMMANDS, REFUSED

    def run(argv: list[str]) -> None:
        saved, cwd = sys.argv, os.getcwd()
        sys.argv = list(argv)
        os.chdir(ROOT)
        try:
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
                runpy.run_path(str(ROOT / argv[0]), run_name="__main__")
        except SystemExit:
            pass
        finally:
            sys.argv = saved
            os.chdir(cwd)

    return [lambda argv=argv: run(argv) for argv in [*COMMANDS, *REFUSED.values()]]


def workload_runs() -> list[Run]:
    """One replay of each benchmark run set; a failed operation raises."""
    _importable()
    import workloads

    refs = workloads.load_refs()

    def run(name: str) -> None:
        log = workloads.RunLog()
        for u, ops in enumerate(workloads.run_set(refs, name)):
            workloads.run_unit(name, u, ops, log)
        if log.failed:
            raise RuntimeError(f"{name}: {log.failures}")

    return [lambda name=name: run(name) for name in sorted(workloads.SPECS)]


def _functions(code: types.CodeType) -> Iterable[types.CodeType]:
    """The function bodies compiled in code, nested ones included."""
    for const in code.co_consts:
        if isinstance(const, types.CodeType):
            if const.co_flags & 0x2:  # CO_NEWLOCALS: a function, not a class body
                yield const
            yield from _functions(const)


def benchmark_pins() -> tuple[set[tuple[str, str]], set[str]]:
    """What keeps a src function by name in the benchmark: the (module,
    qualified name) of each function the tracer of ``perfbench/layers.py``
    replaces, and every name ``perfbench/make_refs.py`` reads."""
    _importable()
    spec = importlib.util.spec_from_file_location("perfbench_layers", ROOT / "perfbench" / "layers.py")
    layers = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = layers  # its dataclass looks itself up there
    try:
        spec.loader.exec_module(layers)
        for name, _ in _modules():  # every name bound before the snapshot
            importlib.import_module(name)
        tracer = layers.Tracer()
        before = _bindings()
        try:
            layers.install(tracer)
            after = _bindings()
        finally:
            tracer.close()
    finally:
        del sys.modules[spec.name]
    wrapped = set()
    for key, value in before.items():
        if after[key] is not value:
            fn = getattr(value, "__func__", value)  # a classmethod's function
            wrapped.add((fn.__module__, fn.__qualname__))
    tree = ast.parse((ROOT / "perfbench" / "make_refs.py").read_text())
    named = {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
    named |= {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return wrapped, named


def _bindings() -> dict[tuple, object]:
    """Every global of the loaded tiltc modules and every attribute of the
    classes they define."""
    out = {}
    for name, mod in list(sys.modules.items()):
        if mod is None or not (name == "tiltc" or name.startswith("tiltc.")):
            continue
        for attr, value in vars(mod).items():
            out[name, attr] = value
            if isinstance(value, type) and value.__module__ == name:
                out.update(((name, attr, a), v) for a, v in vars(value).items())
    return out


def _modules() -> Iterable[tuple[str, Path]]:
    """Every module in ``src/tiltc``, by dotted name, and its file."""
    for path in sorted(PACKAGE.rglob("*.py")):
        yield ".".join(path.relative_to(SRC).with_suffix("").parts), path


def census(runs: Iterable[Run]) -> dict[str, Reach]:
    """Run every run traced; the reach of every module in ``src/tiltc``,
    by dotted module name."""
    prefix = str(PACKAGE) + os.sep
    reached: dict[str, set[int]] = {}
    entered: set[tuple[str, int]] = set()

    def trace(frame, event, arg):
        code = frame.f_code
        if not code.co_filename.startswith(prefix):
            return None
        entered.add((code.co_filename, code.co_firstlineno))
        lines = reached.setdefault(code.co_filename, set())

        def local(frame, event, arg):
            if event == "line":
                lines.add(frame.f_lineno)
            return local

        return local

    saved, previous = os.environ.pop("TILTC_CACHE", None), sys.gettrace()
    sys.settrace(trace)
    try:
        for run in runs:
            run()
    finally:
        sys.settrace(previous)
        if saved is not None:
            os.environ["TILTC_CACHE"] = saved

    wrapped, named = benchmark_pins()
    report = {}
    for name, path in _modules():
        filename = str(path)
        hit = reached.get(filename, set())
        total, missed, never = set(), set(), []
        for code in _functions(compile(path.read_text(), filename, "exec")):
            lines = {line for _, _, line in code.co_lines() if line is not None}
            lines.discard(code.co_firstlineno)  # the def line: its call is the entry
            if (filename, code.co_firstlineno) not in entered:
                if not code.co_name.startswith("<"):
                    never.append(code.co_qualname)
            total |= lines
            missed |= lines - hit
        pinned = {}
        for f in never:
            if (name, f) in wrapped:
                pinned[f] = "wrapped by perfbench/layers.py"
            elif f.rpartition(".")[2] in named:
                pinned[f] = "named by perfbench/make_refs.py"
        report[name] = Reach(len(total), sorted(missed), never, pinned)
    return report


def spans(lines: list[int]) -> str:
    """Runs of consecutive line numbers, as 3-5, 9."""
    out, start = [], None
    for k, line in enumerate(lines):
        if start is None:
            start = line
        if k + 1 == len(lines) or lines[k + 1] != line + 1:
            out.append(str(start) if start == line else f"{start}-{line}")
            start = None
    return ", ".join(out)


def main() -> int:
    report = census(corpus_runs() + readme_runs() + script_runs() + workload_runs())
    for name, reach in report.items():
        if reach.missed or reach.never:
            print(f"{name}: {reach.lines - len(reach.missed)} of {reach.lines} lines reached")
            if reach.missed:
                print(f"  lines not reached: {spans(reach.missed)}")
            for function in reach.never:
                why = reach.pinned.get(function)
                print(f"  never entered: {function}" + (f" ({why})" if why else ""))
    total = sum(reach.lines for reach in report.values())
    missed = sum(len(reach.missed) for reach in report.values())
    never = sum(len(reach.never) for reach in report.values())
    pinned = sum(len(reach.pinned) for reach in report.values())
    print(f"# reached {total - missed} of {total} lines inside src functions; "
          f"{never} functions never entered, {pinned} of them kept by the benchmark's names")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
