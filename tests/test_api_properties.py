"""Property-based equivalences for the session facade.

Two contracts from the API redesign, pinned over generated inputs:

* **streaming ≡ materialization** — folding a :class:`repro.api.Cursor`'s
  lazy stream equals the materialized ``E(O)`` of the calculus baseline
  (:func:`repro.calculus.interpretation.interpret`) and of ``Program.query``
  on closure-backed targets, for random objects and body shapes;
* **parameters ≡ substituted constants** — executing a prepared query with
  ``$name`` bindings equals re-parsing the source with the values spliced in
  as constants, i.e. late binding changes when planning happens, never what
  is computed;
* **indexed ≡ calculus** — across random commit sequences on a stored set
  that prepared queries element-indexed, every prepared and ad-hoc answer,
  drained and streamed, equals the calculus over ``as_object()``, in a
  memory session and in a WAL session after reopen; a failed commit leaves
  the index answering the pre-commit state.
"""

import os
import tempfile
import warnings

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from repro import Program, Session, connect, parse_formula, parse_object  # noqa: E402
from repro.calculus.interpretation import interpret as baseline_interpret  # noqa: E402
from repro.core.lattice import union_all  # noqa: E402
from repro.core.errors import StoreError  # noqa: E402
from repro.core.objects import TOP, Atom, SetObject, TupleObject  # noqa: E402
from repro.fault import inject  # noqa: E402

_ATTRIBUTE_NAMES = ("a", "b", "c", "r1", "r2", "name")

# Body shapes mirroring tests/test_plan_properties.py: joins, projections,
# bare variables, multi-element scans, spine constants.
BODY_SHAPES = [
    "[r1: {[a: X, b: Y]}, r2: {[c: Y, d: Z]}]",
    "[r1: {[name: X]}]",
    "[r1: {X}, r2: {X}]",
    "[r1: {[a: X], [b: Y]}]",
    "[r1: {[a: X, b: X]}]",
    "X",
    "[r1: X, r2: {[c: Y]}]",
]

# Parameterized templates paired with the names they declare.  Values are
# spliced back in textually for the re-parse oracle, so they are drawn from
# atoms whose ``to_text`` round-trips through the parser.
PARAM_TEMPLATES = [
    ("[r1: {[a: $p, b: X]}]", ("p",)),
    ("[r1: {[a: $p, b: X]}, r2: {[c: X, d: $q]}]", ("p", "q")),
    ("[r1: {[name: $p], [name: X]}]", ("p",)),
    ("[r1: $p]", ("p",)),
    ("[r1: {[a: $p, b: $q]}]", ("p", "q")),
]


def _atoms():
    return st.one_of(
        st.integers(min_value=-20, max_value=20).map(Atom),
        st.sampled_from(["john", "mary", "x", "y"]).map(Atom),
    )


def complex_objects(max_depth: int = 3):
    if max_depth <= 1:
        return _atoms()
    children = complex_objects(max_depth - 1)
    tuples = st.dictionaries(
        st.sampled_from(_ATTRIBUTE_NAMES), children, max_size=3
    ).map(TupleObject)
    sets = st.lists(children, max_size=3).map(SetObject)
    return st.one_of(_atoms(), tuples, sets)


@given(database=complex_objects(), shape=st.sampled_from(BODY_SHAPES))
def test_streamed_cursor_equals_materialized_interpret(database, shape):
    body = parse_formula(shape)
    session = Session.over_object(database)
    streamed = list(session.execute(body))
    expected = baseline_interpret(body, database)
    assert union_all(streamed) == expected
    assert session.query(body) == expected


@given(
    database=complex_objects(),
    shape=st.sampled_from(BODY_SHAPES),
    allow_bottom=st.booleans(),
)
def test_cursor_all_respects_both_semantics(database, shape, allow_bottom):
    body = parse_formula(shape)
    cursor = Session.over_object(database).execute(body, allow_bottom=allow_bottom)
    assert cursor.all() == baseline_interpret(
        body, database, allow_bottom=allow_bottom
    )


@given(
    database=complex_objects(),
    template=st.sampled_from(PARAM_TEMPLATES),
    values=st.lists(_atoms(), min_size=2, max_size=2),
)
def test_prepared_parameters_equal_substituted_constants(database, template, values):
    source, names = template
    bindings = dict(zip(names, values))
    substituted = source
    for name, value in bindings.items():
        substituted = substituted.replace(f"${name}", value.to_text())
    session = Session.over_object(database)
    prepared = session.prepare(source)
    assert prepared.execute(bindings).all() == session.query(
        parse_formula(substituted)
    )


@given(
    database=complex_objects(),
    template=st.sampled_from(PARAM_TEMPLATES),
    rounds=st.lists(st.lists(_atoms(), min_size=2, max_size=2), min_size=1, max_size=3),
)
def test_prepared_reuse_never_drifts_across_bindings(database, template, rounds):
    """Executing one prepared plan with many bindings ≡ one fresh parse each."""
    source, names = template
    session = Session.over_object(database)
    prepared = session.prepare(source)
    for values in rounds:
        bindings = dict(zip(names, values))
        substituted = source
        for name, value in bindings.items():
            substituted = substituted.replace(f"${name}", value.to_text())
        assert prepared.execute(bindings).all() == baseline_interpret(
            parse_formula(substituted), database
        )


@given(
    generations=st.integers(min_value=0, max_value=2),
    fanout=st.integers(min_value=1, max_value=2),
)
def test_closure_query_equals_program_query(generations, fanout):
    from repro.workloads import make_genealogy

    rules = (
        "[doa: {abraham}].\n"
        "[doa: {X}] :- [family: {[name: Y, children: {[name: X]}]}, doa: {Y}].\n"
    )
    tree = make_genealogy(generations, fanout)
    query = parse_formula("[doa: X]")
    session = Session.over_object(tree.family_object, rules=rules)
    via_session = session.query(query, on_closure=True, engine="naive")
    program = Program.from_source(rules, database=tree.family_object)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DeprecationWarning)
        via_program = program.query(query)
    assert via_session == via_program
    assert via_session == baseline_interpret(
        query, program.evaluate(engine="naive").value
    )


# -- the store's element index against the calculus ----------------------------------------

_KEYS = ("a", "b", "c")
# Prepared queries create the element indexes (family.name, r.members.name);
# the join query probes r.members.name with a bound variable, the ad-hoc one
# with a constant, and parameter values cover non-atoms (no probe) too.
_INDEXED_PREPARED = (
    "[family: {[name: $p, kids: K]}]",
    "[family: {[name: $p, kids: {K}]}, r: [members: {[name: $p]}]]",
    "[family: {[name: b]}]",
)
_INDEXED_ADHOC = (
    "[family: {[name: a, kids: K]}]",
    "[family: {[name: N, kids: {K}]}, r: [members: {[name: N]}]]",
    "[family: {N}]",
)
_PARAM_VALUES = ("a", "c", "zz", "{a}")


def _members():
    """Set elements: keyed or keyless tuples, non-atom keys, bare atoms."""
    names = st.one_of(
        st.sampled_from(_KEYS).map(Atom),
        st.sampled_from(("{a}", "[x: a]")).map(parse_object),
    )
    kids = st.lists(st.sampled_from(("k1", "k2")).map(Atom), max_size=2).map(SetObject)
    tuples = st.fixed_dictionaries({}, optional={"name": names, "kids": kids}).map(
        TupleObject
    )
    return st.one_of(tuples, st.sampled_from(_KEYS).map(Atom))


def _family_sets():
    return st.lists(_members(), max_size=5).map(SetObject)


_COMMITS = st.one_of(
    st.tuples(st.just("insert"), _members()),
    st.tuples(st.just("discard"), st.integers(min_value=0, max_value=4)),
    st.tuples(st.just("overwrite"), _family_sets()),
    st.tuples(st.just("delete"), st.none()),
    st.tuples(st.just("top"), st.sampled_from(("family", "other"))),
    st.tuples(st.just("untop"), st.none()),
)


def _commit(database, change) -> None:
    """Apply one generated commit; ``family`` and ``r.members`` move together."""
    kind, argument = change
    current = database.get("family")
    if kind == "insert":
        if isinstance(current, SetObject):
            database.insert("family", "", argument)
        else:
            database.put("family", SetObject([argument]))
    elif kind == "discard":
        if isinstance(current, SetObject) and len(current):
            database.discard(
                "family", "", current.elements[argument % len(current)]
            )
    elif kind == "overwrite":
        database.commit_batch(
            {"family": argument, "r": TupleObject({"members": argument})}
        )
    elif kind == "delete":
        database.commit_batch({"family": None, "r": None})
    elif kind == "top":
        database.put(argument, TOP)
    else:
        database.remove("other")


def _substituted(source: str, value: str) -> str:
    return source.replace("$p", value)


def _assert_indexed_answers_equal_the_calculus(session, prepared) -> None:
    state = session.database.as_object()
    for source, query in zip(_INDEXED_PREPARED, prepared):
        values = _PARAM_VALUES if "$p" in source else (None,)
        for value in values:
            if value is None:
                drained, streamed = query.execute().all(), query.execute()
                formula = parse_formula(source)
            else:
                bound = {"p": parse_object(value)}
                drained, streamed = query.execute(bound).all(), query.execute(bound)
                formula = parse_formula(_substituted(source, value))
            expected = baseline_interpret(formula, state)
            assert drained == expected, (source, value)
            assert union_all(list(streamed)) == expected, (source, value)
    for source in _INDEXED_ADHOC:
        formula = parse_formula(source)
        expected = baseline_interpret(formula, state)
        assert session.query(formula) == expected, source
        assert union_all(list(session.execute(formula))) == expected, source


def _prepare_indexed(session):
    prepared = [session.prepare(source, lint="off") for source in _INDEXED_PREPARED]
    assert session.database.element_indexes() == (
        ("family", "name"),
        ("r.members", "name"),
    )
    return prepared


@settings(max_examples=40, deadline=None)
@given(initial=_family_sets(), changes=st.lists(_COMMITS, max_size=6))
def test_indexed_queries_equal_the_calculus_across_commits(initial, changes):
    with connect() as session:
        _commit(session.database, ("overwrite", initial))
        prepared = _prepare_indexed(session)
        _assert_indexed_answers_equal_the_calculus(session, prepared)
        for change in changes:
            _commit(session.database, change)
            _assert_indexed_answers_equal_the_calculus(session, prepared)
        assert session.database.access_stats["query_element_probes"] > 0


@settings(max_examples=15, deadline=None)
@given(initial=_family_sets(), changes=st.lists(_COMMITS, max_size=4))
def test_indexed_queries_equal_the_calculus_after_wal_reopen(initial, changes):
    with tempfile.TemporaryDirectory() as directory:
        path = os.path.join(directory, "indexed.wal")
        with connect(path) as session:
            _commit(session.database, ("overwrite", initial))
            _prepare_indexed(session)
            for change in changes:
                _commit(session.database, change)
            before = session.database.as_object()
        with connect(path) as reopened:
            assert reopened.database.as_object() == before
            prepared = _prepare_indexed(reopened)
            _assert_indexed_answers_equal_the_calculus(reopened, prepared)
            _commit(reopened.database, ("insert", parse_object("[name: a, kids: {k9}]")))
            _assert_indexed_answers_equal_the_calculus(reopened, prepared)


@settings(max_examples=20, deadline=None)
@given(initial=_family_sets(), change=_COMMITS)
def test_failed_commit_leaves_the_index_answering_the_pre_commit_state(
    initial, change
):
    with tempfile.TemporaryDirectory() as directory:
        with connect(os.path.join(directory, "failed.wal")) as session:
            _commit(session.database, ("overwrite", initial))
            prepared = _prepare_indexed(session)
            before = session.database.as_object()
            try:
                with inject("store.wal.append:fail:times=1"):
                    _commit(session.database, change)
            except StoreError:
                pass  # the injected append failure; a no-op change commits nothing
            assert session.database.as_object() == before
            _assert_indexed_answers_equal_the_calculus(session, prepared)
