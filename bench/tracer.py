"""Per-layer spans for the idospec package, recorded from outside it.

`Tracer.install()` replaces each public function of the idospec modules with
a timing wrapper, in every idospec namespace that binds it. Calls made through
module globals are therefore seen too: `spectrum_residual` looks up
`compute_g` in `idospec.inverse` at call time, and the Delta evaluators look
up `char_delta_deriv` in `idospec.spectral`. `restore()` puts the originals
back. Functions held in other containers (the CLI's `COMMANDS` table) are not
rebound, so `cli.main` is the one CLI span and `cli.self_s` is the CLI's own
work outside the other layers.

Left unwrapped, because one call costs less than one span: the whole
`quadrature` module (a few of its helpers run once per Delta evaluation) and
`serialize.fmt` (called once per float written).

Spans stay in memory until `table()` reduces them.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import time
from collections import Counter, defaultdict
from typing import NamedTuple

import numpy as np

PACKAGE = "idospec"
MODULES = ("kernels", "transform", "spectral", "inverse", "serialize", "cli")
SKIP = frozenset({"serialize.fmt"})


class Span(NamedTuple):
    name: str      # "<module>.<function>"
    start: float
    end: float
    parent: int    # index of the enclosing span in the span list, -1 at top
    op: object     # operation the span belongs to
    count: int     # work done by the call, read from its result (see _count)


def _written_bytes(args) -> int:
    return sum(
        os.path.getsize(a)
        for a in args
        if isinstance(a, (str, os.PathLike)) and os.path.isfile(a)
    )


def _count(name: str, result, args) -> int:
    """Work done by one call, taken from the object it returned or the files it wrote."""
    if name in ("transform.compute_g", "inverse.recover_profile"):
        return int(result.iterations)          # Picard terms; LM iterations
    if name == "spectral.char_delta_deriv":
        return int(np.size(result))            # Delta points evaluated
    if name == "spectral.find_spectrum":
        return int(result.total_count)         # roots, with multiplicity
    if name.startswith("serialize.") and "_from_" not in name:
        return _written_bytes(args)            # bytes of the files written
    return 0


class Tracer:
    """Wraps the package's public functions and keeps one span per call.

    `op` labels the spans of the operation running now. `failures` counts,
    per (op, kind), exceptions that left a wrapped function (each exception
    once, where it first escaped) and `recover_profile` reports that did not
    converge.
    """

    def __init__(self):
        self.spans: list[Span] = []
        self.failures: Counter = Counter()
        self.op = None
        self._stack: list[int] = []
        self._last_exc = None
        self._patched: list[tuple[object, str, object]] = []

    def install(self) -> None:
        if self._patched:
            raise RuntimeError("tracer already installed")
        mods = {m: importlib.import_module(f"{PACKAGE}.{m}") for m in MODULES}
        namespaces = [importlib.import_module(PACKAGE), *mods.values()]
        for short, mod in mods.items():
            for attr, fn in list(vars(mod).items()):
                name = f"{short}.{attr}"
                if (attr.startswith("_") or name in SKIP or not inspect.isfunction(fn)
                        or fn.__module__ != mod.__name__):
                    continue
                wrapper = self._wrap(name, fn)
                for ns in namespaces:
                    for key, value in list(vars(ns).items()):
                        if value is fn:
                            self._patched.append((ns, key, fn))
                            setattr(ns, key, wrapper)

    def restore(self) -> None:
        for ns, key, fn in reversed(self._patched):
            setattr(ns, key, fn)
        self._patched.clear()

    def _wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as ex:
                end = time.perf_counter()
                stack.pop()
                spans[idx] = Span(name, start, end, parent, self.op, 0)
                if ex is not self._last_exc:
                    self._last_exc = ex
                    self.failures[(self.op, type(ex).__name__)] += 1
                raise
            end = time.perf_counter()
            stack.pop()
            spans[idx] = Span(name, start, end, parent, self.op, _count(name, result, args))
            if name == "inverse.recover_profile" and not result.converged:
                self.failures[(self.op, "lm_unconverged")] += 1
            return result

        return wrapper


# --- reduction ------------------------------------------------------------------


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of its interval its child spans cover."""
    children = defaultdict(list)
    for sp in spans:
        if sp.parent >= 0:
            children[sp.parent].append(sp)
    out = []
    for i, sp in enumerate(spans):
        covered, reach = 0.0, sp.start
        for ch in sorted(children.get(i, ()), key=lambda c: c.start):
            lo, hi = max(ch.start, reach), min(ch.end, sp.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append(sp.end - sp.start - covered)
    return out


def _module(name: str) -> str:
    return name.split(".", 1)[0]


def table(spans: list[Span], select=lambda sp: True) -> dict[str, dict]:
    """Totals per function ("spectral.find_spectrum") and per module ("spectral").

    `calls` counts spans; `self_s` sums self times; `s` (busy time) and
    `count` (work) sum only spans with no enclosing span of the same key, so
    nested calls of one function, or one module, are not counted twice.
    Only spans for which `select` is true are added up; `spans` itself must
    be the whole list, because parent indices point into it.
    """
    selfs = self_times(spans)
    rows: dict[str, dict] = defaultdict(lambda: {"calls": 0, "s": 0.0, "self_s": 0.0, "count": 0})
    for i, sp in enumerate(spans):
        if not select(sp):
            continue
        outer_fn = outer_mod = True
        p = sp.parent
        while p >= 0 and (outer_fn or outer_mod):
            anc = spans[p].name
            outer_fn = outer_fn and anc != sp.name
            outer_mod = outer_mod and _module(anc) != _module(sp.name)
            p = spans[p].parent
        for key, outer in ((sp.name, outer_fn), (_module(sp.name), outer_mod)):
            row = rows[key]
            row["calls"] += 1
            row["self_s"] += selfs[i]
            if outer:
                row["s"] += sp.end - sp.start
                row["count"] += sp.count
    return dict(rows)


def count_under(spans: list[Span], name: str, ancestor: str, select=lambda sp: True) -> int:
    """Work counted by the selected spans `name` that run inside a span `ancestor`."""
    total = 0
    for sp in spans:
        if sp.name != name or not select(sp):
            continue
        p = sp.parent
        while p >= 0 and spans[p].name != ancestor:
            p = spans[p].parent
        if p >= 0:
            total += sp.count
    return total
