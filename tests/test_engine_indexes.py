"""Unit tests for the element-level match index and the engine's IndexStore.

:class:`MatchIndex` and :func:`element_keys` live in :mod:`repro.store.index`
(the store keeps the same index for session queries); the engine's
:class:`IndexStore` builds on them.
"""

import pytest

from repro import parse_object, parse_rule
from repro.calculus.terms import Constant, formula, var
from repro.core.objects import Atom, BOTTOM, TOP
from repro.engine.indexes import IndexStore
from repro.store.index import MatchIndex, element_keys
from repro.store.paths import Path


class TestElementKeys:
    def test_static_key_from_atom_constant(self):
        element = formula({"name": Atom("abraham"), "age": var("A")})
        keys = element_keys(element)
        assert keys[0] == (Path("name"), Atom("abraham"))

    def test_dynamic_key_from_variable(self):
        element = formula({"name": var("Y")})
        assert element_keys(element) == ((Path("name"), "Y"),)

    def test_static_keys_come_first(self):
        element = formula({"a": var("X"), "b": Atom(1)})
        keys = element_keys(element)
        assert keys[0] == (Path("b"), Atom(1))
        assert (Path("a"), "X") in keys

    def test_root_keys_for_atomic_elements(self):
        assert element_keys(Constant(Atom("abraham"))) == ((Path(()), Atom("abraham")),)
        assert element_keys(var("Y")) == ((Path(()), "Y"),)

    def test_nothing_below_nested_sets(self):
        element = parse_rule(
            "[out: {X}] :- [family: {[name: Y, children: {[name: X]}]}, doa: {Y}]"
        ).body.get("family").elements[0]
        assert element_keys(element) == ((Path("name"), "Y"),)

    def test_non_atom_constant_yields_no_key(self):
        element = formula({"name": parse_object("{1}")})
        assert element_keys(element) == ()


class TestMatchIndex:
    ELEMENTS = (
        parse_object("[name: ann, age: 1]"),
        parse_object("[name: bob, age: 2]"),
        parse_object("[name: ann, city: paris]"),
        parse_object("[name: {odd}, age: 3]"),  # non-atom key value: unbucketed
        parse_object("plain"),  # atoms index under the root path
    )

    def _index(self):
        index = MatchIndex(Path("r"), [Path("name"), Path(())])
        index.extend(self.ELEMENTS)
        return index

    def test_lookup_by_key(self):
        index = self._index()
        found = index.candidates(Path("name"), Atom("ann"))
        assert set(found) == {self.ELEMENTS[0], self.ELEMENTS[2]}

    def test_missing_key_is_definitively_empty(self):
        assert self._index().candidates(Path("name"), Atom("zoe")) == ()

    def test_root_path_buckets_atomic_elements(self):
        assert self._index().candidates(Path(()), Atom("plain")) == (self.ELEMENTS[4],)

    def test_unregistered_path_cannot_answer(self):
        assert self._index().candidates(Path("age"), Atom(1)) is None

    def test_non_atom_key_cannot_answer(self):
        assert self._index().candidates(Path("name"), parse_object("{1}")) is None

    def test_add_is_idempotent(self):
        index = self._index()
        index.add(self.ELEMENTS[0])
        assert len(index.candidates(Path("name"), Atom("ann"))) == 2

    def test_clear(self):
        index = self._index()
        index.clear()
        assert index.candidates(Path("name"), Atom("ann")) == ()
        assert len(index) == 0

    def test_remove_drops_the_element_from_every_bucket(self):
        index = self._index()
        index.remove(self.ELEMENTS[0])
        assert index.candidates(Path("name"), Atom("ann")) == (self.ELEMENTS[2],)
        assert len(index) == len(self.ELEMENTS) - 1
        index.remove(self.ELEMENTS[4])
        assert index.candidates(Path(()), Atom("plain")) == ()

    def test_remove_of_an_unindexed_element_is_a_no_op(self):
        index = self._index()
        generation = index.generation
        index.remove(parse_object("[name: zoe]"))
        assert index.generation == generation
        assert len(index) == len(self.ELEMENTS)

    def test_removed_element_can_be_added_again(self):
        index = self._index()
        index.remove(self.ELEMENTS[1])
        index.add(self.ELEMENTS[1])
        assert index.candidates(Path("name"), Atom("bob")) == (self.ELEMENTS[1],)

    def test_buckets_are_replaced_not_appended_to(self):
        index = self._index()
        before = index.candidates(Path("name"), Atom("ann"))
        index.add(parse_object("[name: ann, age: 9]"))
        index.remove(self.ELEMENTS[0])
        # A tuple handed out earlier never changes under its holder.
        assert before == (self.ELEMENTS[0], self.ELEMENTS[2])
        assert set(index.candidates(Path("name"), Atom("ann"))) == {
            self.ELEMENTS[2],
            parse_object("[name: ann, age: 9]"),
        }

    def test_every_mutation_bumps_the_generation(self):
        index = self._index()
        seen = [index.generation]
        index.add(parse_object("[name: cy]"))
        seen.append(index.generation)
        index.remove(parse_object("[name: cy]"))
        seen.append(index.generation)
        index.sync(parse_object("{[name: dee]}"))
        seen.append(index.generation)
        index.clear()
        seen.append(index.generation)
        assert seen == sorted(set(seen))

    def test_sync_reflects_exactly_the_current_set(self):
        index = MatchIndex(Path("r"), [Path("name")])
        index.sync(parse_object("{[name: ann], [name: bob, age: 2], [age: 3]}"))
        assert len(index) == 3
        index.sync(parse_object("{[name: bob, age: 2], [name: cy], [name: {x}]}"))
        assert index.candidates(Path("name"), Atom("ann")) == ()
        assert index.candidates(Path("name"), Atom("bob")) == (
            parse_object("[name: bob, age: 2]"),
        )
        assert index.candidates(Path("name"), Atom("cy")) == (parse_object("[name: cy]"),)
        assert len(index) == 3

    def test_sync_to_a_non_set_empties_the_index(self):
        index = MatchIndex(Path("r"), [Path("name")])
        index.sync(parse_object("{[name: ann]}"))
        index.sync(BOTTOM)
        assert len(index) == 0
        assert index.candidates(Path("name"), Atom("ann")) == ()
        assert index.source is BOTTOM

    def test_sync_diffs_an_element_replaced_in_place(self):
        # [name: bb] takes [name: b]'s position in the canonical order, so
        # the elements around it line up by identity on both sides.
        index = MatchIndex(Path("r"), [Path("name")])
        index.sync(parse_object("{[name: a], [name: b], [name: c], [name: d]}"))
        index.sync(parse_object("{[name: a], [name: bb], [name: c], [name: d]}"))
        assert index.candidates(Path("name"), Atom("b")) == ()
        assert index.candidates(Path("name"), Atom("bb")) == (parse_object("[name: bb]"),)
        assert len(index) == 4

    def test_sync_diffs_changes_at_both_ends(self):
        index = MatchIndex(Path("r"), [Path("name")])
        index.sync(parse_object("{[name: b], [name: c], [name: d]}"))
        index.sync(parse_object("{[name: a], [name: c], [name: e]}"))
        found = {
            name: index.candidates(Path("name"), Atom(name)) for name in "abcde"
        }
        assert {name for name, hit in found.items() if hit} == {"a", "c", "e"}
        assert len(index) == 3

    def test_sync_to_the_same_set_changes_nothing(self):
        index = MatchIndex(Path("r"), [Path("name")])
        value = parse_object("{[name: ann]}")
        index.sync(value)
        generation = index.generation
        index.sync(parse_object("{[name: ann]}"))  # interned: the same object
        assert index.generation == generation


class TestIndexStore:
    BODY = parse_rule(
        "[doa: {X}] :- [family: {[name: Y, children: {[name: X]}]}, doa: {Y}]"
    ).body

    def test_register_body_and_refresh(self):
        store = IndexStore()
        store.register_body(self.BODY)
        db = parse_object(
            "[family: {[name: abraham, children: {[name: isaac]}]}, doa: {abraham}]"
        )
        store.refresh(BOTTOM, db)
        family = store.candidates(Path("family"), Path("name"), Atom("abraham"))
        assert family == (parse_object("[name: abraham, children: {[name: isaac]}]"),)
        # The doa set indexes its atomic elements under the root path.
        assert store.candidates(Path("doa"), Path(()), Atom("abraham")) == (
            Atom("abraham"),
        )

    def test_incremental_refresh_adds_only_new_elements(self):
        store = IndexStore()
        store.register_body(self.BODY)
        before = parse_object("[doa: {abraham}, family: {}]")
        after = parse_object("[doa: {abraham, isaac}, family: {}]")
        store.refresh(BOTTOM, before)
        store.refresh(before, after)
        assert store.candidates(Path("doa"), Path(()), Atom("isaac")) == (Atom("isaac"),)

    def test_refresh_rebuilds_when_no_sound_delta_exists(self):
        store = IndexStore()
        store.register_body(self.BODY)
        store.refresh(BOTTOM, parse_object("[doa: {abraham}, family: {}]"))
        store.refresh(BOTTOM, TOP)
        assert store.candidates(Path("doa"), Path(()), Atom("abraham")) == ()
        assert len(store) == 2

    def test_unknown_set_path_cannot_answer(self):
        store = IndexStore()
        store.register_body(self.BODY)
        assert store.candidates(Path("nowhere"), Path(()), Atom(1)) is None


hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, strategies as st  # noqa: E402


def _keyed_sets():
    element = st.fixed_dictionaries(
        {}, optional={"name": st.sampled_from("abcdef"), "n": st.integers(0, 3)}
    ).map(lambda attributes: parse_object(
        "[" + ", ".join(f"{k}: {v}" for k, v in sorted(attributes.items())) + "]"
    ))
    return st.lists(element, max_size=8).map(lambda elements: parse_object(
        "{" + ", ".join(e.to_text() for e in elements) + "}"
    ))


@given(steps=st.lists(_keyed_sets(), min_size=1, max_size=5))
def test_incremental_sync_equals_a_fresh_build(steps):
    """Syncing through any sequence of sets leaves the buckets of a fresh sync."""
    incremental = MatchIndex(Path("r"), [Path("name"), Path("n")])
    for value in steps:
        incremental.sync(value)
    fresh = MatchIndex(Path("r"), [Path("name"), Path("n")])
    fresh.sync(steps[-1])
    assert len(incremental) == len(fresh) == len(steps[-1])
    for key_path, keys in ((Path("name"), [Atom(c) for c in "abcdef"]),
                           (Path("n"), [Atom(i) for i in range(4)])):
        for key in keys:
            assert set(incremental.candidates(key_path, key)) == set(
                fresh.candidates(key_path, key)
            )
