"""The README's examples, run: every ``$ tiltc ...`` line of its ``sh`` blocks
exits 0 and prints what the README shows under it, and its library snippet
runs.

A shown line matches an output line with the same whitespace-split tokens
(the README shows tabs as spaces); a shown line ending in ``...`` matches by
prefix, and a bare ``...`` skips output lines until the next shown line
matches.  A command shown with no output is only run.
"""

import contextlib
import io
import re
import shlex
from pathlib import Path

import pytest

from tiltc.cli import main

README = (Path(__file__).resolve().parent.parent / "README.md").read_text()


def blocks(lang):
    return re.findall(rf"^```{lang}\n(.*?)^```", README, re.M | re.S)


def examples():
    """(command line, shown output lines) of every $ tiltc line; a blank
    line ends the shown output."""
    found, shown = [], None
    for block in blocks("sh"):
        for line in block.splitlines():
            if line.startswith("$ tiltc "):
                shown = []
                found.append((line[2:], shown))
            elif not line.strip():
                shown = None
            elif shown is not None:
                shown.append(line)
        shown = None
    return found


def matches(shown, line):
    tokens = " ".join(line.split())
    if shown.endswith("..."):
        return tokens.startswith(" ".join(shown[:-3].split()))
    return tokens == " ".join(shown.split())


def unmatched(shown, out):
    """The first shown line that the output lines out do not match, or
    None; output left over after the last shown line is unmatched too."""
    k, skip = 0, False
    for want in shown:
        if want == "...":
            skip = True
            continue
        while skip and k < len(out) and not matches(want, out[k]):
            k += 1
        if k == len(out) or not matches(want, out[k]):
            return want
        k, skip = k + 1, False
    return None if skip or k == len(out) else f"(extra output) {out[k]}"


@pytest.fixture(autouse=True)
def no_ambient_cache(monkeypatch):
    monkeypatch.delenv("TILTC_CACHE", raising=False)


def test_the_readme_shows_commands():
    assert len(examples()) >= 8


@pytest.mark.parametrize("command, shown", examples(), ids=[c for c, _ in examples()])
def test_example(command, shown):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = main(shlex.split(command, comments=True)[1:])
    assert rc == 0
    if shown:
        assert unmatched(shown, out.getvalue().splitlines()) is None


def test_library_snippet():
    [snippet] = blocks("python")
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(snippet, "README.md", "exec"), {})
    assert out.getvalue()
