"""Union and intersection of complex objects (Definitions 3.4–3.5).

The central structural result of the paper (Theorem 3.6) is that reduced
complex objects ordered by the sub-object relation form a **lattice**: any two
objects have a least upper bound — their *union* — and a greatest lower bound
— their *intersection*.  Both operations are defined recursively:

Union (Definition 3.4)
    * ``⊥ ∪ O = O`` and ``⊤ ∪ O = ⊤``;
    * equal atoms join to themselves, distinct atoms join to ⊤;
    * tuples join attribute-wise: ``(O1 ∪ O2).a = O1.a ∪ O2.a``;
    * sets join to the *reduced* set union of their elements;
    * objects of different kinds join to ⊤.

Intersection (Definition 3.5)
    * ``⊤ ∩ O = O`` and ``⊥ ∩ O = ⊥``;
    * equal atoms meet to themselves, distinct atoms meet to ⊥;
    * tuples meet attribute-wise;
    * sets meet to the reduced set ``{ o1 ∩ o2 | o1 ∈ O1, o2 ∈ O2 }`` (note
      that this *includes* but is generally larger than the plain set
      intersection);
    * objects of different kinds meet to ⊥.

Theorems 3.4 and 3.5 state that these are exactly the lub and glb of the
sub-object order; the property-based tests verify the lub/glb laws and the
standard lattice identities (idempotence, commutativity, associativity,
absorption) on randomly generated reduced objects.

Evaluation strategy.  The closure ``R*(O)`` of Definition 4.6 is built from
unions, so their cost is the cost of a closure.  Interned operands are
reduced, so the elements of one interned set are pairwise incomparable: a
union of interned sets only tests pairs drawn from different operands, and
never tests an atom, which is incomparable with every element but itself
(:func:`~repro.core.order.maximal_union`).  A union of atom sets, such as
the ``doa`` set every round of Example 4.5 merges into, therefore costs
``O(n + m)``; sets of tuples or of sets still cost up to ``n·m`` tests, as
the cross-domination scan does.  :func:`union_all` is **n-ary**: it joins any
number of interned operands in one step (one reduction per set,
attribute-wise recursion for tuples) rather than folding them in pairwise.
Raw (un-interned) operands, which may be non-reduced (Example 3.2), keep the
exact binary definition: the cross-domination scan for sets and a
left-to-right fold in ``union_all``.
"""

from __future__ import annotations

from typing import Dict, Iterable, List

from repro.core.intern import IdPairCache, register_cache
from repro.core.objects import (
    BOTTOM,
    TOP,
    Atom,
    Bottom,
    ComplexObject,
    SetObject,
    Top,
    TupleObject,
)
from repro.core.order import is_subobject, maximal_union

# Both operations are commutative, so results for interned operands are
# memoized under the (smaller id, larger id) pair.  Values are objects, which
# is why these caches are registered with the global clear hook
# (repro.core.intern.clear_object_caches) instead of living forever.
_UNION_CACHE: IdPairCache = register_cache(IdPairCache(maxsize=1 << 16))
_MEET_CACHE: IdPairCache = register_cache(IdPairCache(maxsize=1 << 16))


def _memoized_commutative(cache, left, right, structural):
    """Memoize a commutative lattice operation on interned operand pairs."""
    lid = left._iid
    rid = right._iid
    if lid is None or rid is None:
        return structural(left, right)
    if lid > rid:
        lid, rid = rid, lid
    cached = cache.get(lid, rid)
    if cached is None:
        cached = structural(left, right)
        cache.put(lid, rid, cached)
    return cached

__all__ = [
    "union",
    "intersection",
    "union_all",
    "intersection_all",
    "is_lattice_consistent",
]


def union(left: ComplexObject, right: ComplexObject) -> ComplexObject:
    """Return ``left ∪ right``, the least upper bound of the two objects."""
    _check(left, right)
    if left is right or left == right:
        return left
    # Definition 3.4(i).
    if isinstance(left, Bottom):
        return right
    if isinstance(right, Bottom):
        return left
    if isinstance(left, Top) or isinstance(right, Top):
        return TOP
    # Definition 3.4(ii): distinct atoms are jointly inconsistent.
    if isinstance(left, Atom) and isinstance(right, Atom):
        return left if left == right else TOP
    return _memoized_commutative(_UNION_CACHE, left, right, _union_structural)


def _union_structural(left: ComplexObject, right: ComplexObject) -> ComplexObject:
    if left._iid is not None and right._iid is not None:
        return _union_interned([left, right])
    # Raw operands may be non-reduced, so the exact definition applies.
    # Definition 3.4(iii): attribute-wise union.
    if isinstance(left, TupleObject) and isinstance(right, TupleObject):
        return _union_tuples([left, right])
    # Definition 3.4(iv): keep each element not dominated across the two
    # element lists.
    if isinstance(left, SetObject) and isinstance(right, SetObject):
        right_elements = right.elements
        left_elements = left.elements
        kept = [
            element
            for element in left_elements
            if not any(is_subobject(element, other) for other in right_elements)
        ]
        kept.extend(
            other
            for other in right_elements
            if not any(
                is_subobject(other, element) and not is_subobject(element, other)
                for element in left_elements
            )
        )
        return SetObject._build(kept)
    # Definition 3.4(v): incompatible kinds.
    return TOP


def _union_interned(operands: List[ComplexObject]) -> ComplexObject:
    """The lub of two or more distinct interned operands, none of them ⊥ or ⊤."""
    kind = type(operands[0])
    if any(type(value) is not kind for value in operands):
        return TOP  # Definition 3.4(v)
    if kind is SetObject:
        # Definition 3.4(iv): the maximal elements across every operand.
        return SetObject._from_reduced(maximal_union([value.elements for value in operands]))
    if kind is TupleObject:
        return _union_tuples(operands)
    # Definition 3.4(ii): the operands are distinct atoms.
    return TOP


def _union_tuples(operands: List[ComplexObject]) -> ComplexObject:
    """Definition 3.4(iii): attribute-wise union; absent attributes read as ⊥.

    If any attribute joins to ⊤ the TupleObject constructor collapses the
    whole tuple to ⊤, which is exactly the behaviour required by the last
    paragraph of Theorem 3.4.
    """
    values: Dict[str, List[ComplexObject]] = {}
    for value in operands:
        for name, child in value.items():
            values.setdefault(name, []).append(child)
    return TupleObject({name: union_all(children) for name, children in values.items()})


def intersection(left: ComplexObject, right: ComplexObject) -> ComplexObject:
    """Return ``left ∩ right``, the greatest lower bound of the two objects."""
    _check(left, right)
    if left is right or left == right:
        return left
    # Definition 3.5(i).
    if isinstance(left, Top):
        return right
    if isinstance(right, Top):
        return left
    if isinstance(left, Bottom) or isinstance(right, Bottom):
        return BOTTOM
    # Definition 3.5(ii).
    if isinstance(left, Atom) and isinstance(right, Atom):
        return left if left == right else BOTTOM
    return _memoized_commutative(_MEET_CACHE, left, right, _intersection_structural)


def _intersection_structural(left: ComplexObject, right: ComplexObject) -> ComplexObject:
    # Definition 3.5(iii): attribute-wise intersection.  Attributes absent on
    # either side read as ⊥, so only the shared attributes can survive; the
    # constructor drops the ⊥-valued ones.
    if isinstance(left, TupleObject) and isinstance(right, TupleObject):
        attributes = {}
        for name in set(left.attributes) & set(right.attributes):
            attributes[name] = intersection(left.get(name), right.get(name))
        return TupleObject(attributes)
    # Definition 3.5(iv): pairwise intersections, reduced.
    if isinstance(left, SetObject) and isinstance(right, SetObject):
        pairwise = [
            intersection(first, second) for first in left.elements for second in right.elements
        ]
        return SetObject(pairwise)
    # Definition 3.5(v): incompatible kinds.
    return BOTTOM


def union_all(objects: Iterable[ComplexObject]) -> ComplexObject:
    """Return the least upper bound of ``objects``; the union of nothing is ⊥.

    The empty case follows from ⊥ being the least element.  ⊥ operands are
    dropped.  ⊤ is absorbing, so no further operand is drawn once the result
    is known to be ⊤: at a ⊤ operand, at an operand of another kind than the
    first, or at a second distinct atom.  A ⊤ that only arises inside tuple
    attributes is found after every operand has been drawn.  When every
    operand is interned, three or more distinct operands are joined in one
    n-ary step (:func:`_union_interned`); otherwise the operands are folded
    left to right with :func:`union`, which keeps the exact binary definition
    on non-reduced objects.
    """
    operands: List[ComplexObject] = []
    interned = True
    for value in objects:
        if not isinstance(value, ComplexObject):
            raise TypeError("lattice operations expect complex objects")
        if value is TOP:
            return TOP
        if value is BOTTOM:
            continue
        if operands:
            first = operands[0]
            if type(value) is not type(first):
                return TOP  # Definition 3.4(v)
            if isinstance(value, Atom) and value != first:
                return TOP  # Definition 3.4(ii)
        if value._iid is None:
            interned = False
        operands.append(value)
    if interned:
        operands = list({value._iid: value for value in operands}.values())
        if len(operands) > 2:
            return _union_interned(operands)
    result: ComplexObject = BOTTOM
    for value in operands:
        result = union(result, value)
        if result is TOP:
            return TOP
    return result


def intersection_all(objects: Iterable[ComplexObject]) -> ComplexObject:
    """Fold :func:`intersection` over ``objects``; the intersection of nothing is ⊤."""
    result: ComplexObject = TOP
    for value in objects:
        result = intersection(result, value)
        if result.is_bottom:
            # ⊥ is absorbing for intersection.
            return BOTTOM
    return result


def is_lattice_consistent(left: ComplexObject, right: ComplexObject) -> bool:
    """Check the lub/glb laws on a single pair of objects.

    Used by tests and by the long-running randomized consistency benchmark:
    the union must dominate both operands and the intersection must be
    dominated by both, and the absorption laws must hold.
    """
    joined = union(left, right)
    met = intersection(left, right)
    return (
        is_subobject(left, joined)
        and is_subobject(right, joined)
        and is_subobject(met, left)
        and is_subobject(met, right)
        and union(left, met) == left
        and intersection(left, joined) == left
    )


def _check(left: object, right: object) -> None:
    if not isinstance(left, ComplexObject) or not isinstance(right, ComplexObject):
        raise TypeError("lattice operations expect two complex objects")
