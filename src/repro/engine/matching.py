"""The engine's matcher — now a thin front over the plan pipeline.

Historically this module carried its own copy of the Definition 4.2 matching
recursion with delta restriction and index acceleration.  That loop (and the
baseline matcher's, and the algebra translator's) has been unified into
:mod:`repro.plan`: rule bodies compile once into a logical plan
(:func:`repro.plan.compile.compile_body`), the cost-based optimizer orders the
plan's leaves (:func:`repro.plan.optimize.optimize_body`), and one physical
executor runs it (:func:`repro.plan.execute.match_plan`) with the same delta
restriction and index narrowing this module used to implement:

* **Delta restriction.**  One set-element position (a
  :class:`repro.engine.delta.DeltaPosition`) can be restricted to an explicit
  witness list: the elements the previous round contributed.  Summing the
  matches over every position, each restricted in turn, enumerates exactly
  the substitutions that use at least one new witness — the semi-naive
  frontier.

* **Index acceleration.**  Scan leaves are probed through the
  :class:`repro.engine.indexes.IndexStore` when the element formula carries a
  usable key (see :func:`repro.store.index.element_keys`); the executor's
  accumulated partial substitution makes a variable bound by an earlier leaf
  (the join variable ``Y`` of Example 4.5) available to later dynamic-key
  probes, turning their scans into hash lookups.  Narrowing is only sound
  under the strict semantics: callers evaluating with ``allow_bottom=True``
  must pass ``indexes=None`` and no restriction, which is exactly what the
  engine's correctness fallback does.

``match_body`` keeps its historical signature so existing callers and tests
need no change; the semi-naive engine itself calls the executor directly with
plans optimized against the statistics of the database being closed.
"""

from __future__ import annotations

from functools import lru_cache
from typing import List, Optional, Tuple

from repro.calculus.substitution import Substitution
from repro.calculus.terms import FORMULA_CACHE_SIZE, Formula
from repro.core.objects import ComplexObject
from repro.engine.delta import DeltaPosition
from repro.engine.indexes import IndexStore
from repro.engine.stats import EngineStats
from repro.plan.compile import compile_body
from repro.plan.execute import match_plan
from repro.plan.optimize import optimize_body

__all__ = ["match_body"]


@lru_cache(maxsize=FORMULA_CACHE_SIZE)
def _default_plan(body: Formula):
    """Compile + heuristically optimize a body with no database statistics."""
    return optimize_body(compile_body(body))


def match_body(
    body: Formula,
    target: ComplexObject,
    *,
    position: Optional[DeltaPosition] = None,
    delta_elements: Tuple[ComplexObject, ...] = (),
    indexes: Optional[IndexStore] = None,
    stats: Optional[EngineStats] = None,
    allow_bottom: bool = False,
) -> List[Substitution]:
    """Deduplicated derivation-maximal substitutions of ``body`` against ``target``.

    With ``position`` given, only matches whose witness at that set position
    comes from ``delta_elements`` are enumerated.  Results agree with
    :func:`repro.calculus.matching.match_all` (restricted to the new-witness
    subset when a position is given).
    """
    return match_plan(
        _default_plan(body),
        target,
        position=position,
        delta_elements=delta_elements,
        indexes=indexes,
        stats=stats,
        allow_bottom=allow_bottom,
    )
