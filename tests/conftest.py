"""Shared fixtures and hypothesis strategies for the test suite."""

from __future__ import annotations

import random

import pytest

from repro import parse_object
from repro.core.objects import BOTTOM, TOP, Atom, SetObject, TupleObject
from repro.workloads import make_genealogy, make_join_workload


# --------------------------------------------------------------------------------------
# Fixtures: the concrete objects used throughout the paper's examples.
# --------------------------------------------------------------------------------------
@pytest.fixture
def relational_db_object():
    """The relational-database object of Example 2.1 / Section 4."""
    return parse_object(
        "[r1: {[name: peter, age: 25], [name: john, age: 7], [name: mary, age: 13]},"
        " r2: {[name: john, address: austin], [name: mary, address: paris]}]"
    )


@pytest.fixture
def nested_relation_object():
    """The nested relation of Example 2.1."""
    return parse_object(
        "{[name: peter, children: {max, susan}],"
        " [name: john, children: {mary, john, frank}],"
        " [name: mary, children: {}]}"
    )


@pytest.fixture
def genealogy_small():
    """A three-generation binary family tree (15 people)."""
    return make_genealogy(3, 2)


@pytest.fixture
def join_workload_small():
    """A small Example 4.2(3)-shaped join workload."""
    return make_join_workload(40, join_domain=8, rng=7)


@pytest.fixture
def rng():
    """A seeded RNG for deterministic randomized tests."""
    return random.Random(20260616)


# --------------------------------------------------------------------------------------
# Hypothesis strategies for complex objects (kept here so every property test
# shares one definition of "random reduced object").
# --------------------------------------------------------------------------------------
try:
    from hypothesis import strategies as st

    _ATTRIBUTE_NAMES = ("a", "b", "c", "name", "age", "children")

    def atoms():
        """Strategy producing atomic objects of every sort."""
        return st.one_of(
            st.integers(min_value=-50, max_value=50).map(Atom),
            st.sampled_from(["john", "mary", "austin", "x", "y"]).map(Atom),
            st.booleans().map(Atom),
            st.floats(
                min_value=-10, max_value=10, allow_nan=False, allow_infinity=False
            ).map(lambda value: Atom(round(value, 2))),
        )

    def complex_objects(max_depth: int = 3):
        """Strategy producing reduced complex objects of bounded depth.

        The default constructors normalize and reduce, so everything generated
        here lives in the paper's restricted object space.
        """
        if max_depth <= 1:
            return atoms()
        children = complex_objects(max_depth - 1)
        tuples = st.dictionaries(
            st.sampled_from(_ATTRIBUTE_NAMES), children, max_size=3
        ).map(TupleObject)
        sets = st.lists(children, max_size=3).map(SetObject)
        return st.one_of(atoms(), tuples, sets)

    def flat_tuple_objects():
        """Strategy producing flat tuples of atoms (relational-style rows)."""
        return st.dictionaries(st.sampled_from(_ATTRIBUTE_NAMES), atoms(), max_size=3).map(
            TupleObject
        )

    def union_operand_lists(max_depth: int = 3):
        """Strategy producing 0–6 operands for an n-ary union.

        A pool of up to four operands is shuffled together with up to two
        repeats of its members, so duplicates are common.  The pool mixes ⊥,
        ⊤ and every kind, or is restricted to sets or to tuples so that most
        lists have a consistent union.
        """
        children = complex_objects(max_depth - 1)
        pools = (
            st.one_of(complex_objects(max_depth), st.just(BOTTOM), st.just(TOP)),
            st.lists(children, min_size=1, max_size=3).map(SetObject),
            st.dictionaries(st.sampled_from(_ATTRIBUTE_NAMES), children, max_size=3).map(
                TupleObject
            ),
        )

        def with_repeats(pool):
            if not pool:
                return st.just([])
            repeats = st.lists(st.sampled_from(pool), max_size=2)
            return repeats.flatmap(lambda extra: st.permutations(pool + extra))

        return st.one_of(*(st.lists(pool, max_size=4) for pool in pools)).flatmap(with_repeats)

except ImportError:  # pragma: no cover - hypothesis is an optional test dependency
    pass
