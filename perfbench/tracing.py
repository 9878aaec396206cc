"""Span recording for the traced run, installed from outside the library.

The traced run wraps each layer's public entry points and records one span
per call: layer, function, start, end, parent span and operation id.  Spans
are kept in memory; the run turns them (:func:`self_times`) into per-layer self
times once the run ends.  Nothing under ``src/`` is edited: the wrappers are
set on the names the calling modules hold (callers use ``from x import f``,
so patching ``x.f`` alone would miss them) and removed by
:meth:`Instrumentation.remove`.

Where a caller imports inside a function (``from repro.plan import
compile_body`` in ``repro.api``), the name it resolves at call time is the
package attribute, so that is the one wrapped.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from typing import Callable, Dict, List, Tuple

import repro.obs as _obs
from repro.core import intern as _intern

# Span record fields (a list per span, filled in place on exit).
LAYER, FUNC, START, END, PARENT, OP = range(6)

#: Module-level functions, wrapped on the module whose name callers resolve.
FUNCTIONS: Tuple[Tuple[str, str, str], ...] = (
    ("repro.parser", "parse_formula", "parser"),
    ("repro.parser", "parse_program", "parser"),
    ("repro.lint", "lint_query", "lint"),
    ("repro.lint.shapes", "infer_shapes", "lint.shapes"),
    ("repro.plan", "compile_body", "plan.compile"),
    ("repro.engine.core", "compile_body", "plan.compile"),
    ("repro.plan", "bind_body_plan", "plan.parameters"),
    ("repro.plan", "optimize_body", "plan.optimize"),
    ("repro.engine.core", "optimize_body", "plan.optimize"),
    ("repro.plan", "interpret_plan", "plan.execute"),
    ("repro.engine.core", "match_plan", "plan.execute"),
    ("repro.store.storage", "encode_json", "store.codec.encode"),
    ("repro.store.storage", "decode_json", "store.codec.decode"),
)

#: Methods, wrapped on the class so every caller sees them.
METHODS: Tuple[Tuple[str, str, str, str], ...] = (
    ("repro.plan.statistics", "DatabaseStatistics", "collect", "plan.statistics"),
    ("repro.engine.core", "SemiNaiveEngine", "__init__", "engine"),
    ("repro.engine.core", "SemiNaiveEngine", "run", "engine"),
    ("repro.store.database", "ObjectDatabase", "insert", "store.update"),
    ("repro.store.database", "ObjectDatabase", "commit_batch", "store.commit"),
    ("repro.store.storage", "FileStorage", "__init__", "store.recovery"),
)

#: Modules that import lattice operations by name; each held name is wrapped.
LATTICE_CALLERS: Tuple[str, ...] = (
    "repro.api",
    "repro.engine.core",
    "repro.plan.execute",
    "repro.plan.compile",
    "repro.store.updates",
    "repro.calculus.fixpoint",
    "repro.calculus.interpretation",
    "repro.calculus.program",
    "repro.calculus.rules",
    "repro.calculus.substitution",
)
LATTICE_FUNCTIONS = ("union", "union_all", "intersection", "intersection_all")


class SpanRecorder:
    """In-memory span log for one traced phase (single thread)."""

    def __init__(self) -> None:
        self.spans: List[list] = []
        self.stack: List[int] = []
        self.op_id = 0
        self.subobject_checks = 0
        #: Counter increases summed over the timed operations only.
        self.totals: Dict[str, float] = {}

    def wrap(self, layer: str, label: str, function: Callable, *, materialize=False):
        """``function`` wrapped to record a span per call.

        ``materialize`` drains an iterator first argument before the span
        opens: the engine passes ``union_all`` a generator whose body matches
        rules, and that work belongs to the caller, not to the lattice.
        """
        spans, stack, clock = self.spans, self.stack, time.perf_counter_ns
        recorder = self

        @functools.wraps(function)
        def wrapper(*args, **kwargs):
            if not stack:  # outside a timed operation (set-up, checks)
                return function(*args, **kwargs)
            if materialize and args and not isinstance(args[0], (list, tuple, dict)):
                args = (list(args[0]),) + args[1:]
            record = [layer, label, 0, 0, stack[-1], recorder.op_id]
            stack.append(len(spans))
            spans.append(record)
            record[START] = clock()
            try:
                return function(*args, **kwargs)
            finally:
                record[END] = clock()
                stack.pop()

        return wrapper

    def operation(self, kind: str) -> "_Operation":
        """Context manager for one timed benchmark operation (the root span)."""
        self.op_id += 1
        return _Operation(self, kind)


class _Operation:
    __slots__ = ("recorder", "record", "before")

    def __init__(self, recorder: SpanRecorder, kind: str):
        self.recorder = recorder
        self.record = ["op", kind, 0, 0, -1, recorder.op_id]

    def __enter__(self):
        recorder = self.recorder
        self.before = probe()
        recorder.stack.append(len(recorder.spans))
        recorder.spans.append(self.record)
        self.record[START] = time.perf_counter_ns()
        return self

    def __exit__(self, *exc):
        self.record[END] = time.perf_counter_ns()
        recorder = self.recorder
        recorder.stack.pop()
        totals = recorder.totals
        for name, value in probe().items():
            change = value - self.before.get(name, 0)
            if change:
                totals[name] = totals.get(name, 0) + change
        return False


class Instrumentation:
    """Installs the wrappers of :data:`FUNCTIONS`, :data:`METHODS` and the
    lattice call sites for one recorder, and removes them again."""

    def __init__(self, recorder: SpanRecorder):
        self.recorder = recorder
        self._restore: List[Tuple[object, str, object]] = []

    def install(self) -> "Instrumentation":
        recorder = self.recorder
        for module_name, attribute, layer in FUNCTIONS:
            module = importlib.import_module(module_name)
            self._set(module, attribute, recorder.wrap(layer, attribute, getattr(module, attribute)))
        for module_name, class_name, attribute, layer in METHODS:
            owner = getattr(importlib.import_module(module_name), class_name)
            original = owner.__dict__[attribute]
            if isinstance(original, classmethod):
                wrapped = classmethod(recorder.wrap(layer, attribute, original.__func__))
            else:
                wrapped = recorder.wrap(layer, attribute, original)
            self._set(owner, attribute, wrapped)
        lattice = importlib.import_module("repro.core.lattice")
        for module_name in LATTICE_CALLERS:
            module = importlib.import_module(module_name)
            for attribute in LATTICE_FUNCTIONS:
                held = getattr(module, attribute, None)
                if held is not None and held is getattr(lattice, attribute):
                    wrapped = recorder.wrap(
                        "core.lattice", attribute, held,
                        materialize=attribute.endswith("_all"),
                    )
                    self._set(module, attribute, wrapped)
        # ``is_subobject`` as bound in the lattice module is counted, not
        # spanned: a cold closure makes about a million calls.
        check = lattice.is_subobject
        stack = recorder.stack

        def counted(left, right):
            if stack:
                recorder.subobject_checks += 1
            return check(left, right)

        self._set(lattice, "is_subobject", counted)
        return self

    def remove(self) -> None:
        while self._restore:
            owner, attribute, original = self._restore.pop()
            setattr(owner, attribute, original)

    def _set(self, owner, attribute: str, value) -> None:
        original = owner.__dict__[attribute] if isinstance(owner, type) else getattr(owner, attribute)
        self._restore.append((owner, attribute, original))
        setattr(owner, attribute, value)


def probe() -> Dict[str, float]:
    """Every public counter the per-layer metrics are differences of.

    ``repro.obs.snapshot()`` counters and histogram sums (``ns:`` prefix),
    and ``intern_stats()`` hits and misses.  ``intern_stats()`` reports only
    the number and size of the id-keyed memo tables, so their hit counters
    are read from the registered tables themselves (read only).
    """
    snapshot = _obs.snapshot()
    values: Dict[str, float] = dict(snapshot["counters"])
    for name, histogram in snapshot["histograms"].items():
        values["ns:" + name] = histogram["sum"]
    interned = _intern.intern_stats()
    values["intern.hits"] = interned["hits"]
    values["intern.misses"] = interned["misses"]
    values["memo.hits"] = sum(getattr(cache, "hits", 0) for cache in _intern._CACHES)
    values["memo.misses"] = sum(getattr(cache, "misses", 0) for cache in _intern._CACHES)
    return values


def self_times(spans: List[list]) -> Tuple[Dict[str, int], Dict[Tuple[str, str], int], int, int]:
    """Per-layer self time (ns), per (layer, function) call counts, and the
    total and unattributed (root self) time of the operation spans."""
    child_ns = [0] * len(spans)
    for record in spans:
        parent = record[PARENT]
        if parent >= 0:
            child_ns[parent] += record[END] - record[START]
    layer_ns: Dict[str, int] = {}
    calls: Dict[Tuple[str, str], int] = {}
    op_total = op_self = 0
    for index, record in enumerate(spans):
        duration = record[END] - record[START]
        own = duration - child_ns[index]
        layer = record[LAYER]
        if layer == "op":
            op_total += duration
            op_self += own
            continue
        layer_ns[layer] = layer_ns.get(layer, 0) + own
        key = (layer, record[FUNC])
        calls[key] = calls.get(key, 0) + 1
    return layer_ns, calls, op_total, op_self


def write_spans(spans: List[list], path: str) -> None:
    """Write the span log as JSON lines (layer, function, start/end ns, parent, op)."""
    with open(path, "w", encoding="utf-8") as handle:
        for index, record in enumerate(spans):
            handle.write(json.dumps([index] + record) + "\n")
