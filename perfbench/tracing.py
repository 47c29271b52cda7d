"""Spans around the calls that cross a module boundary of hstar_lab.

install() rebinds, in each hstar_lab module, every function the module
imported from another hstar_lab module to a wrapper that records a span.
Python looks a module-level name up at call time, so the program's own calls
go through the wrappers and the source tree is not edited.  A few names that
a module calls on itself are wrapped too, where a layer's work has no module
boundary of its own: the oracle's lattice counts, the sieve's family
materialization, and the winding-vector stream, which is counted, not timed.

Spans are aggregated per callee in memory, never listed one by one, since an
enum pass makes about a million of them.  Each name keeps five numbers:
calls, items yielded (generators), truthy results, inclusive time of the
outermost open span of that name, and self time, a span's duration minus the
time covered by its child spans.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time

CALLS, ITEMS, TRUTHY, INCL, SELF = range(5)

# (module, name) pairs called from inside their own module, traced as spans
_INTRA_MODULE_SPANS = (
    ("oracle", "lattice_count"),
    ("oracle", "lattice_count_direct"),
    ("sieve", "_family_with_bad_blocks"),
)
LAYERS = ("cli", "coeffcore", "dosp", "enumeration", "hstar", "oracle", "sieve")


class Tracer:
    """Per-name span totals and the stack of open spans."""

    def __init__(self):
        self.spans: dict[str, list] = {}
        self.counters: dict[str, list[int]] = {}
        self._child = [0.0]  # per open span: time covered by its child spans
        self._depth: dict[str, list[int]] = {}

    def wrap(self, name: str, fn):
        """A callable that behaves like fn and records one span per call, or,
        for a generator function, one span per item produced."""
        stat = self.spans.setdefault(name, [0, 0, 0, 0.0, 0.0])
        depth = self._depth.setdefault(name, [0])  # open spans of this name
        child, clock = self._child, time.perf_counter
        push, pop = child.append, child.pop

        if inspect.isgeneratorfunction(fn):

            @functools.wraps(fn)
            def traced_gen(*args, **kwargs):
                stat[CALLS] += 1
                it = fn(*args, **kwargs)
                while True:
                    push(0.0)
                    depth[0] += 1
                    start = clock()
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                    finally:
                        elapsed = clock() - start
                        depth[0] -= 1
                        stat[SELF] += elapsed - pop()
                        child[-1] += elapsed
                        if not depth[0]:
                            stat[INCL] += elapsed
                    stat[ITEMS] += 1
                    yield item

            return traced_gen

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            push(0.0)
            depth[0] += 1
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                depth[0] -= 1
                stat[SELF] += elapsed - pop()
                child[-1] += elapsed
                if not depth[0]:
                    stat[INCL] += elapsed
            stat[CALLS] += 1
            if result:
                stat[TRUTHY] += 1
            return result

        return traced

    def count_items(self, name: str, gen_fn):
        """A generator function like gen_fn that counts the items it yields."""
        cell = self.counters.setdefault(name, [0])

        @functools.wraps(gen_fn)
        def counted(*args, **kwargs):
            for item in gen_fn(*args, **kwargs):
                cell[0] += 1
                yield item

        return counted

    def snapshot(self) -> dict:
        return {
            "spans": {name: list(stat) for name, stat in self.spans.items()},
            "counters": {name: cell[0] for name, cell in self.counters.items()},
        }


def _layer_of(obj) -> str | None:
    """The hstar_lab module that defines a plain or cached function."""
    if not (inspect.isfunction(obj) or hasattr(obj, "cache_info")):
        return None
    module = getattr(obj, "__module__", "") or ""
    package, _, layer = module.partition(".")
    return layer if package == "hstar_lab" and layer in LAYERS else None


def install(tracer: Tracer) -> None:
    """Route every cross-module call of hstar_lab through tracer."""
    modules = {layer: importlib.import_module(f"hstar_lab.{layer}") for layer in LAYERS}
    for layer, module in modules.items():
        for attr, obj in list(vars(module).items()):
            callee = _layer_of(obj)
            if callee is not None and callee != layer:
                setattr(module, attr, tracer.wrap(f"{callee}.{obj.__name__}", obj))
    for layer, attr in _INTRA_MODULE_SPANS:
        obj = getattr(modules[layer], attr)
        setattr(modules[layer], attr, tracer.wrap(f"{layer}.{attr}", obj))
    # the CLI keeps direct references to the three methods in a table
    methods = modules["cli"]._METHODS
    for key, fn in list(methods.items()):
        methods[key] = tracer.wrap(f"{_layer_of(fn)}.{fn.__name__}", fn)
    enumeration = modules["enumeration"]
    enumeration.bounded_vectors = tracer.count_items(
        "enumeration.vectors", enumeration.bounded_vectors
    )
