"""The engine's match indexes: one :class:`MatchIndex` per indexed set position.

The matcher's inner loop tries an element formula against every element of a
set.  When the formula pins an attribute path inside the element to an atom
(see :func:`repro.store.index.element_keys`), a :class:`~repro.store.index.
MatchIndex` narrows the witnesses to one bucket.  The store keeps the same
index class for session queries; during evaluation an :class:`IndexStore`
owns one per rule-body set position and maintains it *incrementally*: after
every round it feeds the index just the new elements.  Elements absorbed by
set reduction are left in the buckets on purpose — matching a stale element
only re-derives results dominated by the absorbing element, which the union
absorbs — so removal bookkeeping stays off the hot path.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Tuple

from repro.calculus.terms import Formula, SetFormula, TupleFormula
from repro.core.objects import ComplexObject, SetObject
from repro.engine.delta import navigate, new_set_elements
from repro.engine.stats import EngineStats
from repro.store.index import MatchIndex, element_keys
from repro.store.paths import Path

__all__ = ["IndexStore"]

_ROOT = Path(())


class IndexStore:
    """All the match indexes of one engine run, refreshed after every round."""

    def __init__(self, stats: Optional[EngineStats] = None):
        self._indexes: Dict[Path, MatchIndex] = {}
        self._wanted: Dict[Path, List[Path]] = {}
        self.stats = stats if stats is not None else EngineStats()

    def __len__(self) -> int:
        return len(self._indexes)

    def register(self, set_path: Path, key_paths: Iterable[Path]) -> None:
        """Declare that the matcher will probe ``set_path`` at ``key_paths``.

        Must be called before :meth:`refresh` first populates the store.
        """
        bucket = self._wanted.setdefault(set_path, [])
        for path in key_paths:
            if path not in bucket:
                bucket.append(path)

    def register_body(self, body: Formula) -> None:
        """Register every indexable set position of a rule body."""

        def walk(node: Formula, path: Path) -> None:
            if isinstance(node, TupleFormula):
                for name, child in node.items():
                    walk(child, path.child(name))
            elif isinstance(node, SetFormula):
                key_paths = [
                    key_path
                    for element in node.elements
                    for key_path, _ in element_keys(element)
                ]
                if key_paths:
                    self.register(path, key_paths)

        walk(body, _ROOT)

    def refresh(self, previous: ComplexObject, current: ComplexObject) -> None:
        """Bring every index up to date after the database grew.

        New elements are computed per path from the (previous, current) pair;
        when no sound delta exists the index is rebuilt from scratch.
        """
        for set_path, wanted_keys in self._wanted.items():
            index = self._indexes.get(set_path)
            if index is None:
                index = MatchIndex(set_path, wanted_keys)
                self._indexes[set_path] = index
            fresh = new_set_elements(previous, current, set_path)
            if fresh is None:
                index.clear()
                now = navigate(current, set_path)
                if isinstance(now, SetObject):
                    index.extend(now.elements)
            else:
                index.extend(fresh)

    def candidates(
        self, set_path: Path, key_path: Path, key: ComplexObject
    ) -> Optional[Tuple[ComplexObject, ...]]:
        """Delegate to the index at ``set_path``; ``None`` when it cannot answer."""
        index = self._indexes.get(set_path)
        if index is None:
            return None
        return index.candidates(key_path, key)
