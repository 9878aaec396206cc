"""Unit tests for union and intersection (Definitions 3.4–3.5, repro.core.lattice)."""

import functools

import pytest

from repro.core import order
from repro.core.builder import obj
from repro.core.intern import clear_object_caches, is_interned
from repro.core.lattice import (
    intersection,
    intersection_all,
    is_lattice_consistent,
    union,
    union_all,
)
from repro.core.objects import BOTTOM, TOP, SetObject
from repro.core.order import is_subobject


class TestUnionBasics:
    def test_bottom_is_neutral(self):
        assert union(BOTTOM, obj(5)) == obj(5)
        assert union(obj(5), BOTTOM) == obj(5)

    def test_top_is_absorbing(self):
        assert union(TOP, obj(5)) is TOP
        assert union(obj(5), TOP) is TOP

    def test_equal_atoms(self):
        assert union(obj(1), obj(1)) == obj(1)

    def test_distinct_atoms_give_top(self):
        assert union(obj(1), obj(2)) is TOP

    def test_mixed_kinds_give_top(self):
        assert union(obj({"a": 1, "b": 2}), obj([1, 2, 3])) is TOP
        assert union(obj(1), obj([1])) is TOP

    def test_tuples_union_attributewise(self):
        assert union(obj({"a": 1}), obj({"b": 2, "c": 3})) == obj({"a": 1, "b": 2, "c": 3})

    def test_conflicting_tuple_attribute_gives_top(self):
        assert union(obj({"a": 1, "b": 2}), obj({"b": 3, "c": 4})) is TOP

    def test_sets_union_and_reduce(self):
        assert union(obj([1, 2]), obj([2, 3])) == obj([1, 2, 3])
        assert union(obj([{"a": 1}]), obj([{"a": 1, "b": 2}])) == obj([{"a": 1, "b": 2}])

    def test_nested_union(self):
        left = obj({"a": 1, "b": [2, 3]})
        right = obj({"b": [3, 4], "c": 5})
        assert union(left, right) == obj({"a": 1, "b": [2, 3, 4], "c": 5})


class TestIntersectionBasics:
    def test_top_is_neutral(self):
        assert intersection(TOP, obj(5)) == obj(5)
        assert intersection(obj(5), TOP) == obj(5)

    def test_bottom_is_absorbing(self):
        assert intersection(BOTTOM, obj(5)) is BOTTOM

    def test_equal_atoms(self):
        assert intersection(obj(1), obj(1)) == obj(1)

    def test_distinct_atoms_give_bottom(self):
        assert intersection(obj(1), obj(2)) is BOTTOM

    def test_mixed_kinds_give_bottom(self):
        assert intersection(obj({"a": 1, "b": 2}), obj([1, 2, 3])) is BOTTOM

    def test_tuples_intersect_attributewise(self):
        assert intersection(obj({"a": 1, "b": 2}), obj({"b": 2, "c": 3})) == obj({"b": 2})
        assert intersection(obj({"a": 1}), obj({"b": 2, "c": 3})) == obj({})
        assert intersection(obj({"a": 1, "b": 2}), obj({"b": 3, "c": 4})) == obj({})

    def test_sets_intersect_pairwise(self):
        assert intersection(obj([1, 2]), obj([2, 3])) == obj([2])

    def test_set_intersection_includes_partial_matches(self):
        # The paper: if O1 and O2 are sets their intersection *includes* the
        # plain set intersection (here the partial tuple [a: 1] appears even
        # though it is an element of neither operand).
        left = obj([{"a": 1, "b": 2}])
        right = obj([{"a": 1, "c": 3}])
        assert intersection(left, right) == obj([{"a": 1}])

    def test_nested_intersection(self):
        left = obj({"a": 1, "b": [2, 3]})
        right = obj({"b": [3, 4], "c": 5})
        assert intersection(left, right) == obj({"b": [3]})


class TestFolds:
    def test_union_all_empty_is_bottom(self):
        assert union_all([]) is BOTTOM

    def test_intersection_all_empty_is_top(self):
        assert intersection_all([]) is TOP

    def test_union_all(self):
        assert union_all([obj([1]), obj([2]), obj([3])]) == obj([1, 2, 3])

    def test_intersection_all(self):
        assert intersection_all([obj([1, 2, 3]), obj([2, 3, 4]), obj([3, 5])]) == obj([3])

    def test_union_all_short_circuits_on_top(self):
        assert union_all([obj(1), obj(2), obj(3)]) is TOP


class TestNaryUnion:
    def test_top_anywhere_short_circuits(self):
        raw = SetObject.raw([obj({"a": 1}), obj({"a": 1, "b": 2})])
        assert union_all([obj([1]), TOP]) is TOP
        assert union_all([BOTTOM, TOP, obj([1])]) is TOP
        assert union_all([raw, TOP]) is TOP

        def operands():
            yield BOTTOM
            yield TOP
            raise AssertionError("operands after ⊤ must not be drawn")

        assert union_all(operands()) is TOP

    def test_known_top_stops_drawing_operands(self):
        # Distinct atoms or a second kind fix the result at ⊤ before the
        # remaining operands are drawn.
        def operands(*values):
            yield from values
            raise AssertionError("operands after a known ⊤ must not be drawn")

        assert union_all(operands(BOTTOM, obj(1), obj(1), obj(2))) is TOP
        assert union_all(operands(obj([1]), obj([2]), obj({"a": 1}))) is TOP
        raw = SetObject.raw([obj({"a": 1}), obj({"a": 1, "b": 2})])
        assert union_all(operands(raw, obj(1))) is TOP

    def test_all_bottom_is_bottom(self):
        assert union_all([BOTTOM, BOTTOM, BOTTOM]) is BOTTOM

    def test_single_operand_is_itself(self):
        value = obj({"a": [1, 2]})
        assert union_all([BOTTOM, value, value]) is value

    def test_sets_reduce_once_over_every_operand(self):
        operands = [obj([{"d": 4}, {"a": 1}]), obj([{"a": 1, "b": 2}]), obj([{"c": 3}])]
        operands.append(operands[0])
        assert union_all(operands) == obj([{"a": 1, "b": 2}, {"c": 3}, {"d": 4}])
        assert union_all(operands) is functools.reduce(union, operands, BOTTOM)

    def test_tuples_join_attributewise(self):
        operands = [obj({"a": 1}), obj({"b": [1]}), obj({"b": [2], "c": 3})]
        assert union_all(operands) == obj({"a": 1, "b": [1, 2], "c": 3})

    def test_conflicting_tuple_attribute_gives_top(self):
        assert union_all([obj({"a": 1}), obj({"b": 2}), obj({"a": 3})]) is TOP

    def test_mixed_kinds_give_top(self):
        assert union_all([obj([1]), obj({"a": 1}), obj([2])]) is TOP

    def test_mixed_interned_and_raw_operands_take_the_exact_fold(self):
        # A non-reduced raw set (Example 3.2) sends the whole list through
        # the binary fold, whose results are never hash-consed; the n-ary
        # path would have returned an interned set.
        raw = SetObject.raw([obj({"a": 1}), obj({"a": 1, "b": 2})])
        operands = [obj([{"c": 3}]), raw, obj([{"a": 1}])]
        expected = functools.reduce(union, operands, BOTTOM)
        assert union_all(operands) == expected
        assert not is_interned(union_all(operands))

    def test_set_union_tests_only_pairs_across_operands(self, monkeypatch):
        # Elements of one reduced operand are incomparable, so a union of
        # sets of sets tests each cross pair once (plus one nested element
        # test per pair of singleton sets), not every element against every
        # other as a re-reduction would.
        calls = []
        check = order._is_subobject_inner

        def counted(left, right):
            calls.append(1)
            return check(left, right)

        clear_object_caches()  # no memoized union may answer for the test
        big = SetObject._from_reduced([obj([index]) for index in range(200)])
        small = obj([[-1]])
        monkeypatch.setattr(order, "_is_subobject_inner", counted)
        assert len(union(big, small)) == 201
        assert len(calls) <= 2 * (2 * 200)
        calls.clear()
        assert len(union_all([big, small, obj([[-2]])])) == 202
        assert len(calls) <= 2 * (2 * 200 + 2 * 200 + 2)

    def test_non_complex_operand_raises(self):
        with pytest.raises(TypeError):
            union_all([obj(1), 1])
        with pytest.raises(TypeError):
            union_all([BOTTOM, "x"])


class TestLatticeLaws:
    def test_union_is_upper_bound(self):
        left, right = obj({"a": 1, "b": [1, 2]}), obj({"b": [2, 3], "c": 4})
        joined = union(left, right)
        assert is_subobject(left, joined)
        assert is_subobject(right, joined)

    def test_intersection_is_lower_bound(self):
        left, right = obj({"a": 1, "b": [1, 2]}), obj({"b": [2, 3], "c": 4})
        met = intersection(left, right)
        assert is_subobject(met, left)
        assert is_subobject(met, right)

    def test_consistency_helper(self):
        assert is_lattice_consistent(obj({"a": 1, "b": [1, 2]}), obj({"b": [2, 3], "c": 4}))
        assert is_lattice_consistent(obj(1), obj(2))

    def test_type_errors(self):
        with pytest.raises(TypeError):
            union(obj(1), 1)
        with pytest.raises(TypeError):
            intersection(1, obj(1))
