"""The JSON text of the command line's ``--format json`` outputs.

``dumps(obj)`` returns what ``json.dumps(obj, sort_keys=True, indent=2)``
returns for the dicts (with string keys), lists, strings, ints and bools
that the commands print.  It is a plain recursion: the standard library's
indenting encoder builds nested closures that refer to each other, which
leaves objects for the cyclic collector on every call.  The command line
imports this module only when it prints JSON.
"""

from __future__ import annotations

from json.encoder import encode_basestring_ascii as _quote


def dumps(obj) -> str:
    return _text(obj, "\n")


def _text(obj, indent: str) -> str:
    """obj at the nesting level whose line break is indent."""
    if type(obj) is str:
        return _quote(obj)
    if type(obj) is bool:
        return "true" if obj else "false"
    if type(obj) is int:
        return int.__repr__(obj)
    inner = indent + "  "
    if type(obj) is dict:
        if not obj:
            return "{}"
        items = [f"{_quote(k)}: {_text(v, inner)}" for k, v in sorted(obj.items())]
        return "{" + inner + ("," + inner).join(items) + indent + "}"
    if type(obj) is list:
        if not obj:
            return "[]"
        items = [_text(v, inner) for v in obj]
        return "[" + inner + ("," + inner).join(items) + indent + "]"
    raise TypeError(f"no JSON text for {type(obj).__name__}")
