"""Per-layer tracing that lives entirely in the benchmark.

The tracer wraps the layers' public functions from outside the program: it
replaces each function at every name its callers use (module globals that
were bound with ``from x import f``, class attributes for methods) and
restores the originals when it is closed.  Nothing under ``src/`` changes.

Each wrapped call is a span.  Spans nest on a stack, so a layer's self time
is its span's duration minus the time covered by its child spans; both are
accumulated as the spans close.  Spans are also kept in memory (up to a cap,
since the hot layers make millions of them) and written out by ``dump``.
"""

from __future__ import annotations

import json
import os
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

_clock = time.perf_counter
SPAN_CAP = 50_000  # spans kept for the log; the totals count every span


@dataclass
class LayerStats:
    self_s: float = 0.0
    calls: int = 0
    top_calls: int = 0  # calls made while no span of the same layer was open
    distinct: set = field(default_factory=set)
    amount: int = 0  # bytes for the store layer


class Tracer:
    """Span stack, per-layer totals and a bounded span log."""

    def __init__(self):
        self.stats: dict[str, LayerStats] = {}
        self.spans: list[tuple] = []
        self.spans_dropped = 0
        self._stack: list[list] = []  # [layer, start, child_time, span_id]
        self._open: dict[str, int] = {}
        self._next_id = 0
        self._restore: list[Callable[[], None]] = []
        self.request = -1

    # -- spans -------------------------------------------------------------

    def enter(self, layer: str) -> None:
        self._next_id += 1
        self._stack.append([layer, _clock(), 0.0, self._next_id])
        self._open[layer] = self._open.get(layer, 0) + 1

    def leave(self) -> None:
        end = _clock()
        layer, start, child, span_id = self._stack.pop()
        dur = end - start
        depth = self._open[layer] - 1
        self._open[layer] = depth
        st = self.stats.get(layer)
        if st is None:
            st = self.stats[layer] = LayerStats()
        st.self_s += dur - child
        st.calls += 1
        if depth == 0:
            st.top_calls += 1
        parent = 0
        if self._stack:
            top = self._stack[-1]
            top[2] += dur
            parent = top[3]
        if len(self.spans) < SPAN_CAP:
            self.spans.append((span_id, parent, self.request, layer, start, end))
        else:
            self.spans_dropped += 1

    def note(self, layer: str, key=None, amount: int = 0) -> None:
        st = self.stats.get(layer)
        if st is None:
            st = self.stats[layer] = LayerStats()
        if key is not None:
            st.distinct.add(key)
        st.amount += amount

    # -- wrapping ------------------------------------------------------------

    def _wrapper(self, fn, layer: str, key_of=None, after=None):
        tracer = self

        def traced(*args, **kwargs):
            if key_of is not None:
                tracer.note(layer, key_of(*args, **kwargs))
            tracer.enter(layer)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.leave()
            if after is not None:
                after(result, *args, **kwargs)
            return result

        traced.__name__ = getattr(fn, "__name__", "traced")
        traced.__qualname__ = getattr(fn, "__qualname__", traced.__name__)
        traced.__wrapped__ = fn
        return traced

    def wrap_function(self, module, name: str, layer: str) -> None:
        """Wrap ``module.name`` at every ``tiltc`` module global bound to it."""
        original = getattr(module, name)
        traced = self._wrapper(original, layer)
        bound = 0
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "tiltc" or mod_name.startswith("tiltc.")):
                continue
            space = vars(mod)
            for attr, value in list(space.items()):
                if value is original:
                    space[attr] = traced
                    self._restore.append(
                        lambda space=space, attr=attr: space.__setitem__(attr, original)
                    )
                    bound += 1
        if bound == 0:
            raise RuntimeError(f"{module.__name__}.{name} is bound nowhere")

    def wrap_method(self, cls, name: str, layer: str, key_of=None, after=None) -> None:
        """Wrap a method in the class that defines it; subclasses inherit it."""
        if name not in vars(cls):
            raise RuntimeError(f"{cls.__name__} defines no {name}")
        original = vars(cls)[name]
        if isinstance(original, classmethod):
            traced = classmethod(self._wrapper(original.__func__, layer, key_of, after))
        else:
            traced = self._wrapper(original, layer, key_of, after)
        setattr(cls, name, traced)
        self._restore.append(lambda: setattr(cls, name, original))

    def close(self) -> None:
        while self._restore:
            self._restore.pop()()

    # -- output ------------------------------------------------------------------

    def get(self, layer: str) -> LayerStats:
        return self.stats.get(layer) or LayerStats()

    def dump(self, path: Path) -> None:
        """Write the span log and layer totals as one JSON document."""
        path.parent.mkdir(parents=True, exist_ok=True)
        doc = {
            "layers": {
                name: {
                    "self_s": st.self_s,
                    "calls": st.calls,
                    "top_calls": st.top_calls,
                    "distinct": len(st.distinct),
                    "amount": st.amount,
                }
                for name, st in sorted(self.stats.items())
            },
            "span_fields": ["id", "parent", "request", "layer", "start", "end"],
            "spans": self.spans,
            "spans_dropped": self.spans_dropped,
        }
        tmp = path.with_suffix(".tmp")
        tmp.write_text(json.dumps(doc))
        os.replace(tmp, path)


def install(tracer: Tracer) -> None:
    """Wrap every traced layer boundary of ``tiltc``.

    Layer names are the metric prefixes the benchmark reports.  Recursive
    functions (Bruhat order, columns) open nested spans; their self times
    still add up to the time spent inside the layer.
    """
    import tiltc.cli
    import tiltc.coxeter as coxeter
    import tiltc.hecke as hecke
    import tiltc.laurent as laurent
    import tiltc.mincpx.block as block
    import tiltc.mincpx.complexes as complexes
    import tiltc.mincpx.linalg as linalg
    import tiltc.mincpx.quiver as quiver
    import tiltc.rootdata as rootdata
    import tiltc.tilting as tilting

    El = coxeter.CoxeterElement
    for name in ("times_gen", "__mul__", "inverse"):
        tracer.wrap_method(El, name, "coxeter.step")
    tracer.wrap_method(coxeter.CoxeterSystem, "element", "coxeter.step")
    tracer.wrap_method(
        coxeter.CoxeterSystem,
        "bruhat_leq",
        "coxeter.bruhat",
        key_of=lambda self, x, y: (x.word, y.word),
    )

    LP = laurent.LaurentPoly
    tracer.wrap_method(LP, "__mul__", "laurent.mul")
    for name in ("__add__", "__sub__", "__neg__"):
        tracer.wrap_method(LP, name, "laurent.add")

    HC = hecke.HeckeContext
    tracer.wrap_method(
        HC, "kl_column", "hecke.kl_column", key_of=lambda self, y: ("h", (), y.word)
    )
    tracer.wrap_method(
        HC,
        "parabolic_column",
        "hecke.parabolic_column",
        key_of=lambda self, fam, I, y: (fam, tuple(I), y.word),
    )
    tracer.wrap_method(
        HC,
        "inverse_column",
        "hecke.inverse_column",
        key_of=lambda self, fam, I, x, length_bound=None: (fam + "_inv", tuple(I), x.word),
    )

    def loaded(result, cls, path, *args, **kwargs):
        tracer.note("store.load", amount=os.path.getsize(path))

    def saved(result, self, path, *args, **kwargs):
        tracer.note("store.save", amount=os.path.getsize(path))

    tracer.wrap_method(hecke.PolyStore, "load", "store.load", after=loaded)
    tracer.wrap_method(hecke.PolyStore, "save", "store.save", after=saved)

    for cls in (tilting._NegativeLike, tilting.KacMoody, tilting.Quantum):
        for name in ("standard_table", "simple_table"):
            tracer.wrap_method(cls, name, "tilting.table")
    tracer.wrap_method(rootdata.LinkageDatum, "alcove_normalize", "rootdata.normalize")

    tracer.wrap_function(tiltc.cli, "main", "cli")

    for name, fn in sorted(vars(linalg).items()):
        if callable(fn) and getattr(fn, "__module__", None) == linalg.__name__ and not name.startswith("_"):
            tracer.wrap_function(linalg, name, "mincpx.linalg")
    tracer.wrap_function(quiver, "hom_basis", "mincpx.hom_basis")
    tracer.wrap_function(quiver, "ext_dims", "mincpx.ext_dims")
    tracer.wrap_function(block, "cmin_module", "mincpx.cmin_module")
    tracer.wrap_function(complexes, "minimize", "mincpx.minimize")


# Per-layer metrics: name -> (unit, better, how it is read off the tracer).
def _ratio(num: int, den: int) -> float:
    return num / den if den else 0.0


def layer_metrics(tr: Tracer) -> dict[str, tuple[float, str]]:
    g = tr.get
    step, bru = g("coxeter.step"), g("coxeter.bruhat")
    mul, add = g("laurent.mul"), g("laurent.add")
    klc, par, inv = g("hecke.kl_column"), g("hecke.parabolic_column"), g("hecke.inverse_column")
    col_calls = klc.calls + par.calls + inv.calls
    col_distinct = len(klc.distinct) + len(par.distinct) + len(inv.distinct)
    load, save = g("store.load"), g("store.save")
    table = g("tilting.table")
    return {
        "coxeter.step_s": (step.self_s, "s"),
        "coxeter.step_calls": (step.calls, "count"),
        "coxeter.bruhat_s": (bru.self_s, "s"),
        "coxeter.bruhat_calls": (bru.calls, "count"),
        "coxeter.bruhat_distinct": (len(bru.distinct), "count"),
        "coxeter.bruhat_distinct_ratio": (_ratio(len(bru.distinct), bru.calls), "ratio"),
        "laurent.arith_s": (mul.self_s + add.self_s, "s"),
        "laurent.mul_calls": (mul.calls, "count"),
        "laurent.add_calls": (add.calls, "count"),
        "hecke.kl_column_s": (klc.self_s, "s"),
        "hecke.parabolic_column_s": (par.self_s, "s"),
        "hecke.inverse_column_s": (inv.self_s, "s"),
        "hecke.column_calls": (col_calls, "count"),
        "hecke.column_distinct": (col_distinct, "count"),
        "hecke.column_distinct_ratio": (_ratio(col_distinct, col_calls), "ratio"),
        "tilting.table_s": (table.self_s, "s"),
        "tilting.tables": (table.top_calls, "count"),
        "rootdata.normalize_s": (g("rootdata.normalize").self_s, "s"),
        "store.load_s": (load.self_s, "s"),
        "store.bytes_read": (load.amount, "bytes"),
        "store.loads": (load.calls, "count"),
        "store.save_s": (save.self_s, "s"),
        "store.bytes_written": (save.amount, "bytes"),
        "store.saves": (save.calls, "count"),
        "cli.self_s": (g("cli").self_s, "s"),
        "mincpx.linalg_s": (g("mincpx.linalg").self_s, "s"),
        "mincpx.linalg_calls": (g("mincpx.linalg").calls, "count"),
        "mincpx.hom_basis_s": (g("mincpx.hom_basis").self_s, "s"),
        "mincpx.ext_dims_s": (g("mincpx.ext_dims").self_s, "s"),
        "mincpx.cmin_module_s": (g("mincpx.cmin_module").self_s, "s"),
        "mincpx.minimize_s": (g("mincpx.minimize").self_s, "s"),
    }
