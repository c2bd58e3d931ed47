"""Traced mode: spans around the public boundary of each ``gvcglab`` module.

Modules import names directly (``from .allocation import winner_determination``),
so patching a function on its home module does not reach callers in other
modules.  Each boundary is therefore wrapped at every binding its callers
use, listed in :data:`BOUNDARIES`.  A binding that no longer exists makes
:func:`installed` raise, and :data:`EXPECTED` lists the boundaries each
workload must reach, so a renamed binding cannot silently zero a metric.

A span records its boundary, start, end, parent span and op id.  Spans are
kept in memory in flat arrays and written out as CSV when the run ends.  A
span's self time is its duration minus the durations of its direct children.
"""

from __future__ import annotations

import csv
import functools
import importlib
from array import array
from contextlib import contextmanager
from time import perf_counter
from typing import Any, Callable, Iterator

# boundary -> modules whose binding of that name callers go through
BOUNDARIES: dict[str, tuple[str, ...]] = {
    "allocation.winner_determination": ("gvcglab.allocation", "gvcglab.mechanism"),
    "allocation.normalized_mask_tables": ("gvcglab.allocation", "gvcglab.audit"),
    "mechanism.run_gvcg": ("gvcglab.mechanism", "gvcglab.scenarios"),
    "mechanism.run_gvcg_with_audit": ("gvcglab.mechanism", "gvcglab.scenarios"),
    "audit.find_pareto_improvement": ("gvcglab.audit", "gvcglab.scenarios"),
    "audit.audit_dsic": ("gvcglab.audit", "gvcglab.scenarios"),
    "audit.audit_ir_no_subsidy": ("gvcglab.audit", "gvcglab.scenarios"),
    "prefs.compare_outcomes": ("gvcglab.prefs", "gvcglab.mechanism", "gvcglab.audit"),
    "prefs.empty_equivalent_transfer": ("gvcglab.prefs", "gvcglab.audit"),
    "serialize.economy_from_json": ("gvcglab.serialize",),
    "serialize.preference_from_json": ("gvcglab.serialize",),
    "serialize.dumps": ("gvcglab.serialize",),
    "scenarios.scenario_from_json": ("gvcglab.scenarios",),
    "scenarios.run_scenario": ("gvcglab.scenarios",),
}

# The root span of every op; its self time is the op's time outside gvcglab.
OP_SPAN = "bench.op"

_SOLVE = {
    "mechanism.run_gvcg",
    "allocation.winner_determination",
    "allocation.normalized_mask_tables",
}
_DOMINANCE = {
    "audit.find_pareto_improvement",
    "allocation.normalized_mask_tables",
    "prefs.empty_equivalent_transfer",
}
EXPECTED: dict[str, set[str]] = {
    "solve-large": _SOLVE,
    "audit-small": set(BOUNDARIES),
    "dominance-large": _DOMINANCE,
}


class Tracer:
    """In-memory span store filled by the wrappers that :func:`installed` sets up."""

    def __init__(self) -> None:
        self.names: list[str] = [OP_SPAN, *BOUNDARIES]
        self._ids = {name: k for k, name in enumerate(self.names)}
        self.name_id = array("H")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self.op = array("l")
        self.op_id = -1
        self._stack: list[int] = []
        self.observed: dict[str, list[Any]] = {name: [] for name in BOUNDARIES}

    def __len__(self) -> int:
        return len(self.start)

    def open(self, name: str) -> int:
        index = len(self.start)
        self.name_id.append(self._ids[name])
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.op.append(self.op_id)
        self.end.append(0.0)
        self._stack.append(index)
        self.start.append(perf_counter())
        return index

    def close(self, index: int) -> None:
        self.end[index] = perf_counter()
        self._stack.pop()

    def wrap(self, boundary: str, fn: Callable, observe: Callable | None) -> Callable:
        tracer = self

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            index = tracer.open(boundary)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(index)
            if observe is not None:
                tracer.observed[boundary].append(observe(args, result))
            return result

        return traced

    def write_csv(self, path: str) -> None:
        with open(path, "w", newline="", encoding="utf-8") as handle:
            writer = csv.writer(handle)
            writer.writerow(("name", "start", "end", "parent", "op"))
            for k in range(len(self)):
                writer.writerow(
                    (
                        self.names[self.name_id[k]],
                        repr(self.start[k]),
                        repr(self.end[k]),
                        self.parent[k],
                        self.op[k],
                    )
                )


def self_times(start: array, end: array, parent: array) -> list[float]:
    """Each span's duration minus the durations of its direct children."""
    own = [e - s for s, e in zip(start, end)]
    for k, p in enumerate(parent):
        if p >= 0:
            own[p] -= end[k] - start[k]
    return own


@contextmanager
def installed(tracer: Tracer, observers: dict[str, Callable]) -> Iterator[Tracer]:
    """Wrap every binding in :data:`BOUNDARIES`; restore the originals on exit."""
    patched: list[tuple[Any, str, Any]] = []
    try:
        for boundary, modules in BOUNDARIES.items():
            attr = boundary.split(".", 1)[1]
            for module_name in modules:
                module = importlib.import_module(module_name)
                original = getattr(module, attr, None)
                if not callable(original):
                    raise LookupError(f"{module_name}.{attr} is gone: boundary {boundary}")
                setattr(module, attr, tracer.wrap(boundary, original, observers.get(boundary)))
                patched.append((module, attr, original))
        yield tracer
    finally:
        for module, attr, original in reversed(patched):
            setattr(module, attr, original)


def layer_totals(tracer: Tracer, factors: list[float]) -> tuple[dict[str, int], dict[str, float]]:
    """Calls and summed self time per span name.

    The self time of every span of op ``k`` is multiplied by ``factors[k]``,
    the op's scale to reference speed.
    """
    own = self_times(tracer.start, tracer.end, tracer.parent)
    calls = {name: 0 for name in tracer.names}
    self_s = {name: 0.0 for name in tracer.names}
    for k, seconds in enumerate(own):
        name = tracer.names[tracer.name_id[k]]
        calls[name] += 1
        self_s[name] += seconds * factors[tracer.op[k]]
    return calls, self_s


def calls_under(tracer: Tracer, child: str, parent: str) -> int:
    """Spans named ``child`` whose direct parent is a span named ``parent``."""
    child_id, parent_id = tracer.names.index(child), tracer.names.index(parent)
    return sum(
        1
        for k in range(len(tracer))
        if tracer.name_id[k] == child_id
        and tracer.parent[k] >= 0
        and tracer.name_id[tracer.parent[k]] == parent_id
    )
