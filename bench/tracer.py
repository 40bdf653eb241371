"""Per-layer tracing from outside the program.

Wraps the public functions of each ginfo module (and the constructors of the
two validating wrapper types) in every module namespace that binds them, so a
call made through ``from .symplectic import ...`` is caught as well. Each
wrapped call is a span; the tracer keeps, per span name, the call count, the
inclusive time and the self time (inclusive time minus the time covered by
its direct child spans). Spans are aggregated in memory and read out once.

``python3 bench/tracer.py STATS_FILE ginfo-args...`` runs one ginfo command
under the tracer in a fresh process and writes the span table to STATS_FILE.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time
from pathlib import Path

import numpy as np

LAYERS = ("symplectic", "states", "bipartite", "fisher", "oscillator", "matrixio", "cli")
TRACED_CLASSES = {"symplectic": ("CovarianceMatrix", "SymplecticForm")}


def _spectrum_key(sigma, *args, **kwargs) -> str:
    return f".dim{np.shape(getattr(sigma, 'matrix', sigma))[0]}"


SPLIT_BY = {"symplectic.symplectic_spectrum": _spectrum_key}


class Tracer:
    def __init__(self):
        self.stats: dict[str, list] = {}   # name -> [calls, inclusive_s, self_s]
        self._stack: list[list[float]] = []
        self._undo: list = []

    def _wrap(self, name: str, fn):
        split = SPLIT_BY.get(name)
        stats, stack, clock = self.stats, self._stack, time.perf_counter

        @functools.wraps(fn)
        def span(*args, **kwargs):
            key = name + split(*args, **kwargs) if split else name
            children = [0.0]
            stack.append(children)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                if stack:
                    stack[-1][0] += elapsed
                entry = stats.setdefault(key, [0, 0.0, 0.0])
                entry[0] += 1
                entry[1] += elapsed
                entry[2] += elapsed - children[0]

        return span

    def install(self):
        """Wrap every layer function in every ginfo namespace that binds it."""
        modules = {layer: importlib.import_module(f"ginfo.{layer}") for layer in LAYERS}
        namespaces = [importlib.import_module("ginfo")] + [
            m for name, m in sys.modules.items() if name.startswith("ginfo.")]
        replacements = {}     # id of an original function -> its wrapper
        for layer, module in modules.items():
            for attr, obj in list(vars(module).items()):
                if (inspect.isfunction(obj) and not attr.startswith("_")
                        and obj.__module__ == module.__name__):
                    replacements[id(obj)] = self._wrap(f"{layer}.{attr}", obj)
            for cls_name in TRACED_CLASSES.get(layer, ()):
                cls = getattr(module, cls_name)
                self._undo.append((cls, "__init__", cls.__init__))
                cls.__init__ = self._wrap(f"{layer}.{cls_name}", cls.__init__)
        for ns in namespaces:
            for attr, obj in list(vars(ns).items()):
                wrapper = replacements.get(id(obj))
                if wrapper is not None:
                    self._undo.append((ns, attr, obj))
                    setattr(ns, attr, wrapper)
        return self

    def uninstall(self):
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.uninstall()
        return False

    def table(self) -> dict:
        return {k: {"calls": v[0], "total_s": v[1], "self_s": v[2]}
                for k, v in sorted(self.stats.items())}


def merge(into: dict, table: dict) -> dict:
    """Add one span table to another, in place."""
    for key, row in table.items():
        acc = into.setdefault(key, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        for field in acc:
            acc[field] += row[field]
    return into


def _main(argv) -> int:
    stats_path, cli_args = Path(argv[0]), argv[1:]
    import ginfo.cli
    tracer = Tracer()
    try:
        with tracer:
            return ginfo.cli.main(cli_args)
    finally:
        stats_path.write_text(json.dumps(tracer.table()))


if __name__ == "__main__":
    sys.exit(_main(sys.argv[1:]))
