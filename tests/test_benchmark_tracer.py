"""The benchmark's per-layer tracer (perfbench/layers.py) wraps functions and
methods of tiltc by name and raises when one is missing, so a rename in
src must fail here rather than only in a traced benchmark run."""

import importlib
import importlib.util
import sys
from pathlib import Path

LAYERS = Path(__file__).resolve().parent.parent / "perfbench" / "layers.py"
# the modules the tracer wraps, imported before the names are read
TRACED = (
    "tiltc.cli", "tiltc.coxeter", "tiltc.hecke", "tiltc.laurent", "tiltc.rootdata", "tiltc.tilting",
    "tiltc.mincpx.block", "tiltc.mincpx.complexes", "tiltc.mincpx.linalg", "tiltc.mincpx.quiver",
)


def tiltc_names():
    """Every global of the loaded tiltc modules and every attribute of the
    classes they define, by (module, name) and (module, class, name)."""
    names = {}
    for mod_name, mod in list(sys.modules.items()):
        if mod_name != "tiltc" and not mod_name.startswith("tiltc."):
            continue
        for attr, value in vars(mod).items():
            names[mod_name, attr] = value
            if isinstance(value, type) and value.__module__ == mod_name:
                names.update(((mod_name, attr, a), v) for a, v in vars(value).items())
    return names


def test_the_tracer_installs_and_closes(monkeypatch):
    spec = importlib.util.spec_from_file_location("perfbench_layers", LAYERS)
    layers = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, layers)  # its dataclass looks itself up there
    spec.loader.exec_module(layers)
    for name in TRACED:
        importlib.import_module(name)
    cli = sys.modules["tiltc.cli"]
    before = tiltc_names()
    tracer = layers.Tracer()
    try:
        layers.install(tracer)
        assert cli.main is not before["tiltc.cli", "main"]
        assert cli.main.__wrapped__ is before["tiltc.cli", "main"]
    finally:
        tracer.close()
    after = tiltc_names()
    assert after.keys() == before.keys()
    assert [name for name, value in before.items() if after[name] is not value] == []
