"""Property-based tests for the lattice structure (Theorems 3.4–3.6).

Union must be the least upper bound, intersection the greatest lower bound,
and together they must satisfy the standard lattice identities on the space of
reduced objects.
"""

import functools

from hypothesis import given

from tests.conftest import complex_objects, union_operand_lists

from repro.core.enumeration import all_subobjects
from repro.core.lattice import intersection, union, union_all
from repro.core.objects import BOTTOM, TOP
from repro.core.order import is_subobject


class TestTheorem34Union:
    @given(complex_objects(), complex_objects())
    def test_union_is_an_upper_bound(self, left, right):
        joined = union(left, right)
        assert is_subobject(left, joined)
        assert is_subobject(right, joined)

    @given(complex_objects(max_depth=2), complex_objects(max_depth=2), complex_objects(max_depth=2))
    def test_union_is_least_among_upper_bounds(self, left, right, candidate):
        if is_subobject(left, candidate) and is_subobject(right, candidate):
            assert is_subobject(union(left, right), candidate)

    @given(complex_objects(max_depth=2), complex_objects(max_depth=2))
    def test_union_is_least_against_enumerated_bounds(self, left, right):
        joined = union(left, right)
        if joined.is_top:
            return
        # Every enumerated sub-object of the union that dominates both
        # operands must be the union itself (there is nothing strictly
        # smaller in between).
        for candidate in all_subobjects(joined, limit=3000):
            if is_subobject(left, candidate) and is_subobject(right, candidate):
                assert candidate == joined


class TestTheorem35Intersection:
    @given(complex_objects(), complex_objects())
    def test_intersection_is_a_lower_bound(self, left, right):
        met = intersection(left, right)
        assert is_subobject(met, left)
        assert is_subobject(met, right)

    @given(complex_objects(max_depth=2), complex_objects(max_depth=2), complex_objects(max_depth=2))
    def test_intersection_is_greatest_among_lower_bounds(self, left, right, candidate):
        if is_subobject(candidate, left) and is_subobject(candidate, right):
            assert is_subobject(candidate, intersection(left, right))

    @given(complex_objects(max_depth=2), complex_objects(max_depth=2))
    def test_intersection_is_greatest_against_enumerated_bounds(self, left, right):
        met = intersection(left, right)
        for candidate in all_subobjects(left, limit=3000):
            if is_subobject(candidate, right):
                assert is_subobject(candidate, met)


class TestTheorem36LatticeLaws:
    @given(complex_objects())
    def test_idempotence(self, value):
        assert union(value, value) == value
        assert intersection(value, value) == value

    @given(complex_objects(), complex_objects())
    def test_commutativity(self, left, right):
        assert union(left, right) == union(right, left)
        assert intersection(left, right) == intersection(right, left)

    @given(complex_objects(max_depth=2), complex_objects(max_depth=2), complex_objects(max_depth=2))
    def test_associativity(self, first, second, third):
        assert union(union(first, second), third) == union(first, union(second, third))
        assert intersection(intersection(first, second), third) == intersection(
            first, intersection(second, third)
        )

    @given(complex_objects(), complex_objects())
    def test_absorption(self, left, right):
        assert union(left, intersection(left, right)) == left
        assert intersection(left, union(left, right)) == left

    @given(complex_objects())
    def test_identity_elements(self, value):
        assert union(value, BOTTOM) == value
        assert intersection(value, TOP) == value
        assert union(value, TOP) is TOP
        assert intersection(value, BOTTOM) is BOTTOM

    @given(complex_objects(), complex_objects())
    def test_consistency_of_order_and_operations(self, left, right):
        # x ≤ y  iff  x ∪ y = y  iff  x ∩ y = x  (standard lattice fact).
        below = is_subobject(left, right)
        assert below == (union(left, right) == right)
        assert below == (intersection(left, right) == left)


class TestNaryUnion:
    @given(union_operand_lists())
    def test_union_all_equals_the_binary_fold(self, operands):
        assert union_all(operands) == functools.reduce(union, operands, BOTTOM)

    @given(union_operand_lists(max_depth=2))
    def test_union_all_is_an_upper_bound(self, operands):
        joined = union_all(operands)
        assert all(is_subobject(value, joined) for value in operands)

    @given(union_operand_lists(max_depth=2), complex_objects(max_depth=2))
    def test_union_all_is_least_among_upper_bounds(self, operands, candidate):
        if all(is_subobject(value, candidate) for value in operands):
            assert is_subobject(union_all(operands), candidate)

    @given(union_operand_lists(max_depth=2))
    def test_union_all_is_least_against_enumerated_bounds(self, operands):
        joined = union_all(operands)
        if joined.is_top:
            return
        for candidate in all_subobjects(joined, limit=3000):
            if all(is_subobject(value, candidate) for value in operands):
                assert candidate == joined
