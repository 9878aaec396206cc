"""Store indexes: the name-level :class:`PathIndex` and the element-level :class:`MatchIndex`.

Two index structures serve two different questions:

* :class:`PathIndex` is the **name-level** index used for refutation: it maps
  the values found at one attribute path (descending through sets, see
  :func:`repro.store.paths.iter_paths`) to the names of the stored objects
  containing them.  :meth:`repro.store.ObjectDatabase.find` prefilters
  through it, and the query access-path decision uses a miss as a proof
  that a whole-database query answers ⊥ (the index ⊥-short-circuit);
* :class:`MatchIndex` is the **element-level** index used for probes: it
  buckets the elements of one set by the atom found at a key path inside
  each element, so a scan leaf that pins that atom — a ground constant, a
  bound ``$parameter`` or an already-bound join variable — matches only the
  bucket instead of every element.  The semi-naive engine keeps one per rule
  body set position for the length of a run (:class:`repro.engine.indexes.
  IndexStore`); the :class:`~repro.store.ObjectDatabase` keeps one per
  ``(set path, key path)`` that a prepared session query asked for,
  maintained on every commit, and session queries probe it through an
  :class:`ElementIndexView`.

PathIndex maintenance
---------------------
Maintenance is O(keys-of-the-object), not O(index): alongside the inverted
``value → names`` entries the index keeps a reverse ``name → keys`` map, so
:meth:`PathIndex.remove` (and therefore every re-``add`` on overwrite) drops
exactly the entries the object contributed instead of scanning the full
table.  ``benchmarks/run_store_benchmarks.py`` records the before/after of
this change as the ``indexed_write`` speedup.

An object carrying ⊤ on (or at the end of) the indexed path matches *any*
probe value under the sub-object order, so such names are kept in a separate
wildcard set that every :meth:`PathIndex.lookup` unions in.  This makes a
lookup miss a definitive "no stored witness" — the property the query
planner's index short-circuit relies on — instead of silently dropping
⊤-carrying objects the way a plain value bucket would.

MatchIndex candidates
---------------------
When an element formula pins an attribute path inside the element to an
atom, only elements carrying exactly that atom at that path can survive the
strict semantics: an absent attribute reads ⊥, a different atom meets to ⊥,
and a tuple or set at the path is incomparable with an atom.  Normalized
objects cannot contain ⊤ below a set element (the constructors collapse
such objects), so equality on the atom is the complete candidate condition.
Under ``allow_bottom=True`` a ⊥ binding survives, so no executor probes.

Buckets are tuples that maintenance *replaces* and never appends to, so a
candidate tuple handed to a running query never changes under it.  Every
mutation also bumps :attr:`MatchIndex.generation` before touching a bucket:
an :class:`ElementIndexView` answers only while the generation it recorded
(under the store's read lock) is unchanged on both sides of its bucket read,
so a query that outlives a commit falls back to scanning its own snapshot.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Callable, Dict, FrozenSet, Iterable, List, Optional, Set, Tuple, Union

from repro.calculus.terms import FORMULA_CACHE_SIZE, Constant, Formula, TupleFormula, Variable
from repro.core.intern import is_interned
from repro.core.objects import Atom, ComplexObject, SetObject, TupleObject
from repro.store.paths import Path

__all__ = ["ElementIndexView", "ElementKey", "MatchIndex", "PathIndex", "element_keys"]

_ROOT = Path(())

#: One candidate lookup key of an element formula: the attribute path inside
#: the element paired with either a ground atom (static) or a variable name
#: (dynamic, usable once the variable is bound to an atom).
ElementKey = Tuple[Path, Union[Atom, str]]


class PathIndex:
    """An inverted index from values at a path to object names."""

    def __init__(self, path: Union[Path, str]):
        self.path = path if isinstance(path, Path) else Path(path)
        self._entries: Dict[ComplexObject, Set[str]] = {}
        self._keys_by_name: Dict[str, Set[ComplexObject]] = {}
        self._wildcards: Set[str] = set()

    def __repr__(self) -> str:
        return f"<PathIndex on {self.path} covering {len(self._keys_by_name)} objects>"

    # -- maintenance ---------------------------------------------------------------
    def add(self, name: str, value: ComplexObject) -> None:
        """Index the stored object ``value`` under ``name``."""
        self.remove(name)
        keys: Set[ComplexObject] = set()
        if self._collect(value, self.path.steps, keys):
            self._wildcards.add(name)
        for key in keys:
            self._entries.setdefault(key, set()).add(name)
        self._keys_by_name[name] = keys

    def remove(self, name: str) -> None:
        """Drop ``name`` from the index (no error when absent).

        Costs O(keys the object contributed) via the reverse map — a full
        scan of the inverted table is never needed.
        """
        self._wildcards.discard(name)
        keys = self._keys_by_name.pop(name, None)
        if keys is None:
            return
        for key in keys:
            names = self._entries.get(key)
            if names is not None:
                names.discard(name)
                if not names:
                    del self._entries[key]

    def rebuild(self, items: Iterable[Tuple[str, ComplexObject]]) -> None:
        """Re-index the whole collection from scratch."""
        self._entries.clear()
        self._keys_by_name.clear()
        self._wildcards.clear()
        for name, value in items:
            self.add(name, value)

    def _collect(
        self, value: ComplexObject, steps: Tuple[str, ...], keys: Set[ComplexObject]
    ) -> bool:
        """Gather the values at the path into ``keys``; ``True`` marks a wildcard.

        Follows the same traversal as :func:`repro.store.paths.get_path`
        (tuple attributes consume steps, sets are descended transparently)
        but keeps every collected value instead of folding them into a
        normalized set — set reduction would absorb dominated keys — and
        flags ⊤ anywhere along or at the end of the path as a wildcard.
        """
        if value.is_top:
            return True
        if not steps:
            if isinstance(value, SetObject):
                wildcard = False
                for element in value.elements:
                    if element.is_top:
                        wildcard = True
                    else:
                        keys.add(element)
                return wildcard
            if value.is_bottom:
                return False
            keys.add(value)
            return False
        if isinstance(value, TupleObject):
            return self._collect(value.get(steps[0]), steps[1:], keys)
        if isinstance(value, SetObject):
            wildcard = False
            for element in value.elements:
                if element.is_top:
                    wildcard = True
                elif isinstance(element, (TupleObject, SetObject)):
                    wildcard |= self._collect(element, steps, keys)
            return wildcard
        return False

    # -- queries --------------------------------------------------------------------
    def lookup(self, key: ComplexObject) -> FrozenSet[str]:
        """Names of the objects whose path value equals (or contains) ``key``.

        Wildcard names — objects carrying ⊤ on the path — are always
        included, so a miss is a definitive "no stored object can contain
        this value at the path".  Stored values and probe keys are both
        interned, so the dict probe resolves on cached hashes and pointer
        equality — no tree traversal.
        """
        return frozenset(self._entries.get(key, set()) | self._wildcards)

    def covers(self, name: str) -> bool:
        """``True`` when ``name`` has been indexed."""
        return name in self._keys_by_name

    def keys(self) -> Tuple[ComplexObject, ...]:
        """Every distinct indexed key, in canonical order."""
        return tuple(sorted(self._entries, key=lambda item: item.sort_key()))

    def __len__(self) -> int:
        return len(self._entries)


@lru_cache(maxsize=FORMULA_CACHE_SIZE)
def element_keys(element_formula: Formula) -> Tuple[ElementKey, ...]:
    """The usable lookup keys of one set-element formula, static keys first.

    Keys address paths through nested tuple formulae; the empty path covers
    element formulae that *are* an atom constant or a bare variable.  Nothing
    below a nested set formula is collected — those attributes belong to inner
    witnesses, not to the indexed element.
    """
    static: List[ElementKey] = []
    dynamic: List[ElementKey] = []

    def walk(node: Formula, path: Path) -> None:
        if isinstance(node, TupleFormula):
            for name, child in node.items():
                walk(child, path.child(name))
        elif isinstance(node, Constant) and isinstance(node.value, Atom):
            static.append((path, node.value))
        elif isinstance(node, Variable):
            dynamic.append((path, node.name))

    walk(element_formula, _ROOT)
    return tuple(static) + tuple(dynamic)


def _changed_windows(
    old: SetObject, new: SetObject
) -> Tuple[Tuple[ComplexObject, ...], Tuple[ComplexObject, ...]]:
    """The element tuples of ``old`` and ``new`` without a common head and tail.

    An element of a common head or tail sits at the same position in both
    tuples, and elements are unique within each, so it occurs in neither
    window: diffing the windows by identity is exact for any common head and
    tail.  Sets keep their elements in canonical order, so after an insert
    or a discard ``old[k] is new[k]`` holds exactly below the changed
    position (and likewise from the end): a binary search finds the
    candidate head and tail, and one C-level tuple comparison confirms each
    (a failed check just keeps the elements in the window).  For interned
    sets ``==`` on elements is identity; other sets are diffed whole.
    """
    before, after = old.elements, new.elements
    if not (is_interned(old) and is_interned(new)):
        return before, after
    shorter = min(len(before), len(after))
    low, high = 0, shorter
    while low < high:
        middle = (low + high) // 2
        if before[middle] is after[middle]:
            low = middle + 1
        else:
            high = middle
    head = low if before[:low] == after[:low] else 0
    low, high = 0, shorter - head
    while low < high:
        middle = (low + high) // 2
        if before[-1 - middle] is after[-1 - middle]:
            low = middle + 1
        else:
            high = middle
    tail = low if low and before[len(before) - low :] == after[len(after) - low :] else 0
    return before[head : len(before) - tail], after[head : len(after) - tail]


def _atom_at(element: ComplexObject, steps: Tuple[str, ...]) -> Optional[Atom]:
    """The atom at ``steps`` inside ``element`` (tuple steps only), else ``None``."""
    current = element
    for step in steps:
        if not isinstance(current, TupleObject):
            return None
        current = current.get(step)
    return current if isinstance(current, Atom) else None


class MatchIndex:
    """Buckets of one set's elements, keyed by the atoms at given key paths.

    Elements are interned, so identity is structural equality: membership
    (``_seen``) keys on ``id()``, with the element kept as the value so the
    id stays pinned, and never hashes or compares object trees.
    """

    __slots__ = ("set_path", "key_paths", "_buckets", "_seen", "source", "generation")

    def __init__(self, set_path: Path, key_paths: Iterable[Path]):
        self.set_path = set_path
        self.key_paths: Tuple[Path, ...] = tuple(dict.fromkeys(key_paths))
        self._buckets: Dict[Path, Dict[Atom, Tuple[ComplexObject, ...]]] = {
            path: {} for path in self.key_paths
        }
        self._seen: Dict[int, ComplexObject] = {}
        #: The object whose elements the index reflects exactly, set by
        #: :meth:`sync`; ``None`` before the first sync and after any other
        #: mutation (the engine never syncs).
        self.source: Optional[ComplexObject] = None
        #: Bumped by every mutation, before any bucket changes.
        self.generation = 0

    def __repr__(self) -> str:
        return (
            f"<MatchIndex on {self.set_path or '<root>'}"
            f" keys={[str(p) for p in self.key_paths]}"
            f" covering {len(self._seen)} elements>"
        )

    def __len__(self) -> int:
        return len(self._seen)

    # -- maintenance ---------------------------------------------------------------
    def add(self, element: ComplexObject) -> None:
        """Index one element (idempotent)."""
        self.extend((element,))

    def extend(self, elements: Iterable[ComplexObject]) -> None:
        """Index every element not indexed yet, one bucket replacement per key."""
        seen = self._seen
        fresh = []
        for element in elements:
            marker = id(element)
            if marker not in seen:
                seen[marker] = element
                fresh.append(element)
        if fresh:
            self.generation += 1
            self.source = None
            self._insert(fresh)

    def remove(self, element: ComplexObject) -> None:
        """Drop one element (no error when it is not indexed)."""
        if self._seen.pop(id(element), None) is None:
            return
        self.generation += 1
        self.source = None
        self._drop((element,))

    def clear(self) -> None:
        self.generation += 1
        self.source = None
        self._seen = {}
        self._buckets = {path: {} for path in self.key_paths}

    def sync(self, current: ComplexObject) -> None:
        """Make the index reflect exactly the elements of ``current``.

        ``current`` is the object now at the indexed set path; anything but a
        set indexes nothing.  The old and new elements are diffed by intern
        id, so the buckets change only for elements that entered or left.
        Against the previously synced set only the window between the two
        element tuples' common head and tail is hashed (see
        :func:`_changed_windows`): one insert or discard leaves a window of
        one element.
        """
        if current is self.source:
            return
        self.generation += 1
        new = current.elements if isinstance(current, SetObject) else ()
        source = self.source
        if source is None:
            old = tuple(self._seen.values())
        elif not isinstance(source, SetObject):
            old = ()  # a non-set indexes nothing
        elif isinstance(current, SetObject):
            old, new = _changed_windows(source, current)
        else:
            old = source.elements
        if old and new:
            before = dict(zip(map(id, old), old))
            after = dict(zip(map(id, new), new))
            left = [before[marker] for marker in before.keys() - after.keys()]
            entered = [after[marker] for marker in after.keys() - before.keys()]
        else:
            left, entered = old, new
        seen = self._seen
        for element in left:
            del seen[id(element)]
        seen.update(zip(map(id, entered), entered))
        self.source = current
        if left:
            self._drop(left)
        if entered:
            self._insert(entered)

    def _insert(self, elements: List[ComplexObject]) -> None:
        for key_path, bucket in self._buckets.items():
            steps = key_path.steps
            if len(steps) == 1:  # the common key, one attribute: inlined
                step = steps[0]
                keyed = [
                    (key, element)
                    for element in elements
                    if isinstance(element, TupleObject)
                    and isinstance(key := element.get(step), Atom)
                ]
            else:
                keyed = [
                    (key, element)
                    for element in elements
                    if (key := _atom_at(element, steps)) is not None
                ]
            single = dict(keyed)
            fresh: Dict[Atom, Tuple[ComplexObject, ...]]
            if len(single) == len(keyed):  # distinct keys: one-element buckets
                fresh = dict(zip(single, zip(single.values())))
            else:
                grouped: Dict[Atom, List[ComplexObject]] = {}
                for key, element in keyed:
                    grouped.setdefault(key, []).append(element)
                fresh = {key: tuple(members) for key, members in grouped.items()}
            if not bucket:  # a first build: nothing to merge with
                self._buckets[key_path] = fresh
                continue
            for key, members in fresh.items():
                bucket[key] = bucket.get(key, ()) + members

    def _drop(self, elements: Iterable[ComplexObject]) -> None:
        for key_path, bucket in self._buckets.items():
            for element in elements:
                key = _atom_at(element, key_path.steps)
                if key is None:
                    continue
                kept = tuple(other for other in bucket.get(key, ()) if other is not element)
                if kept:
                    bucket[key] = kept
                else:
                    bucket.pop(key, None)

    # -- queries --------------------------------------------------------------------
    def candidates(
        self, key_path: Path, key: ComplexObject
    ) -> Optional[Tuple[ComplexObject, ...]]:
        """Elements whose value at ``key_path`` is the atom ``key``.

        ``None`` when this index cannot answer (unregistered path or non-atom
        key); the empty tuple is a definitive "nothing can match".
        """
        if not isinstance(key, Atom):
            return None
        bucket = self._buckets.get(key_path)
        if bucket is None:
            return None
        return bucket.get(key, ())


class ElementIndexView:
    """The store's element indexes as one query sees them.

    Built by :class:`~repro.store.ObjectDatabase` under its read lock, in the
    same pass that picks the query's target, from the indexes whose
    :attr:`MatchIndex.source` is the very set object found at their set path
    in that target.  Each entry remembers the index generation of that
    moment; a probe answers only while the generation is unchanged before
    and after the bucket read, and returns ``None`` (scan instead) once a
    commit has touched the index.  The executor calls :meth:`candidates`
    exactly like the engine's :class:`repro.engine.indexes.IndexStore`.
    """

    __slots__ = ("_entries", "_on_probe")

    def __init__(
        self,
        entries: Dict[Tuple[Path, Path], Tuple[MatchIndex, int]],
        on_probe: Optional[Callable[[], None]] = None,
    ):
        #: (set path, key path) -> (index, its generation in the read-locked
        #: pass that built the view).
        self._entries = entries
        self._on_probe = on_probe

    def candidates(
        self, set_path: Path, key_path: Path, key: ComplexObject
    ) -> Optional[Tuple[ComplexObject, ...]]:
        """Delegate to the index at ``(set_path, key_path)``; ``None`` when it cannot answer."""
        entry = self._entries.get((set_path, key_path))
        if entry is None:
            return None
        index, generation = entry
        if index.generation != generation:
            return None
        found = index.candidates(key_path, key)
        if found is None or index.generation != generation:
            return None
        if self._on_probe is not None:
            self._on_probe()
        return found
