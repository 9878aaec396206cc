"""The session facade (repro.api): prepared, parameterized, streaming queries.

Covers the public contract of :func:`repro.connect` / :class:`Session`:

* one pipeline over both backends (memory and WAL);
* ``prepare`` → ``execute`` skips parse+optimize on re-execution (cache-hit
  counters), and store commits invalidate exactly the stale entries;
* ``$parameter`` binding at execute time, with strict missing/unknown checks;
* cursors stream lazily, in the materialized executor's order, with
  ``one()`` / ``all()`` / ``bindings()`` / ``explain()`` terminals;
* rule registration and version-cached closures;
* the legacy entry points (``repro.interpret``, ``Program.query``,
  ``ObjectDatabase.query``) delegate here, warning but agreeing.
"""

import warnings

import pytest

import repro
from repro import ParameterError, ReproError, Session, connect, parse_formula, parse_object
from repro.calculus.interpretation import interpret as baseline_interpret
from repro.core.errors import ComplexObjectError, StoreError
from repro.core.lattice import union_all
from repro.core.objects import BOTTOM


PEOPLE = "{[name: peter, age: 25], [name: john, age: 7], [name: mary, age: 13]}"


@pytest.fixture
def session():
    with connect() as s:
        s.put("r1", parse_object(PEOPLE))
        yield s


class TestConnect:
    def test_memory_session_round_trip(self, session):
        assert session.get("r1") == parse_object(PEOPLE)
        assert session.names() == ("r1",)

    def test_wal_session_persists(self, tmp_path):
        path = str(tmp_path / "api.wal")
        with connect(path) as s:
            s.put("family", parse_object("[family: {[name: abraham]}]"))
        with connect(path) as s:
            assert s.get("family") == parse_object("[family: {[name: abraham]}]")
            assert s.query("[family: [family: {[name: X]}]]") == parse_object(
                "[family: [family: {[name: abraham]}]]"
            )

    def test_repro_error_is_the_catch_all(self):
        assert ReproError is ComplexObjectError
        assert issubclass(ParameterError, ReproError)
        assert issubclass(StoreError, ReproError)


class TestPreparedQueries:
    def test_prepared_reexecution_hits_the_plan_cache(self, session):
        prepared = session.prepare("[r1: {[name: $who, age: A]}]")
        assert prepared.parameters == frozenset({"who"})
        first = prepared.execute(who="peter").all()
        assert first == parse_object("[r1: {[name: peter, age: 25]}]")
        before = session.cache_info()
        assert before["plan_misses"] == 1
        for who in ("john", "mary", "peter"):
            prepared.execute(who=who).all()
        after = session.cache_info()
        assert after["plan_misses"] == 1  # no re-planning
        assert after["plan_hits"] == before["plan_hits"] + 3

    def test_commit_invalidates_the_cached_plan(self, session):
        prepared = session.prepare("[r1: {[name: $who, age: A]}]")
        prepared.execute(who="peter").all()
        session.put("r1", parse_object("{[name: peter, age: 30]}"))
        assert prepared.execute(who="peter").all() == parse_object(
            "[r1: {[name: peter, age: 30]}]"
        )
        assert session.cache_info()["plan_misses"] == 2

    def test_parameter_binding_equals_substituted_source(self, session):
        prepared = session.prepare("[r1: {[name: $who, age: A]}]")
        for who in ("peter", "john", "mary"):
            direct = session.query(parse_formula(f"[r1: {{[name: {who}, age: A]}}]"))
            assert prepared.execute(who=who).all() == direct

    def test_params_accepts_mapping_and_keywords(self, session):
        prepared = session.prepare("[r1: {[name: $who, age: $age]}]")
        as_mapping = prepared.execute({"who": "john", "age": 7}).all()
        as_keywords = prepared.execute(who="john", age=7).all()
        assert as_mapping == as_keywords != BOTTOM

    def test_missing_parameter_is_an_error(self, session):
        prepared = session.prepare("[r1: {[name: $who]}]")
        with pytest.raises(ParameterError, match="who"):
            prepared.execute()

    def test_unknown_parameter_is_an_error(self, session):
        prepared = session.prepare("[r1: {[name: $who]}]")
        with pytest.raises(ParameterError, match="ghost"):
            prepared.execute(who="peter", ghost=1)

    def test_parameterless_query_rejects_params(self, session):
        with pytest.raises(ParameterError):
            session.query("[r1: {[name: X]}]", {"who": "peter"})

    def test_misspelled_query_option_is_rejected(self, session):
        with pytest.raises(ReproError, match="agains"):
            session.query("[r1: {[name: X]}]", agains="r1")
        with pytest.raises(ReproError, match="max_iteration"):
            session.query("[r1: {[name: X]}]", on_closure=True, max_iteration=5)
        with pytest.raises(ReproError, match="option"):
            session.prepare("[r1: {[name: X]}]", allow_botom=True)

    def test_prepared_explain_names_the_plan(self, session):
        prepared = session.prepare("[r1: {[name: $who, age: A]}]")
        rendered = prepared.explain(who="peter")
        assert "query plan" in rendered
        assert "peter" in rendered

    def test_prepare_accepts_formula_objects(self, session):
        prepared = session.prepare(parse_formula("[r1: {[name: X]}]"))
        assert prepared.execute().all() == session.query("[r1: {[name: X]}]")


class TestCursor:
    def test_streaming_matches_agree_with_the_materialized_answer(self, session):
        streamed = list(session.execute("[r1: {[name: X, age: A]}]"))
        assert len(streamed) == 3
        from repro.core.lattice import union_all

        assert union_all(streamed) == session.query("[r1: {[name: X, age: A]}]")

    def test_one_returns_the_first_match_lazily(self, session):
        cursor = session.execute("[r1: {[name: X]}]")
        first = cursor.one()
        assert not first.is_bottom
        # all() after partial consumption still folds the complete answer.
        assert cursor.all() == session.query("[r1: {[name: X]}]")

    def test_one_on_an_empty_stream_is_bottom(self, session):
        cursor = session.execute("[r1: {[name: nobody, age: A]}]")
        assert cursor.one() is BOTTOM
        assert cursor.all() is BOTTOM

    def test_bindings_stream_substitutions(self, session):
        cursor = session.execute("[r1: {[name: X, age: A]}]")
        names = {binding["X"].value for binding in cursor.bindings()}
        assert names == {"peter", "john", "mary"}
        assert cursor.all() == session.query("[r1: {[name: X, age: A]}]")

    def test_cursor_explain_matches_session_explain(self, session):
        cursor = session.execute("[r1: {[name: X]}]")
        assert cursor.explain() == session.explain("[r1: {[name: X]}]")

    def test_streaming_order_equals_match_plan_order(self, session):
        from repro.plan import (
            DatabaseStatistics,
            compile_body,
            iter_match_plan,
            match_plan,
            optimize_body,
        )

        target = session.database.as_object()
        body = parse_formula("[r1: {[name: X, age: A], [name: Y]}]")
        plan = optimize_body(compile_body(body), DatabaseStatistics.collect(target))
        assert list(iter_match_plan(plan, target)) == match_plan(plan, target)


class TestQueriesAndTargets:
    def test_against_targets_one_stored_object(self, session):
        answer = session.query("{[name: X, age: 25]}", against="r1")
        assert answer == parse_object("{[name: peter, age: 25]}")

    def test_against_missing_name_raises_store_error(self, session):
        with pytest.raises(StoreError):
            session.query("X", against="ghost")

    def test_allow_bottom_selects_the_literal_semantics(self, session):
        query = parse_formula("[r1: {[name: X, kids: {K}]}]")
        target = session.database.as_object()
        assert session.query(query, allow_bottom=True) == baseline_interpret(
            query, target, allow_bottom=True
        )

    def test_store_access_counters_still_account(self, session):
        before = session.database.access_stats["query_root_pushdowns"]
        session.query("[r1: {[name: X]}]")
        assert session.database.access_stats["query_root_pushdowns"] == before + 1

    def test_seeded_session_queries_the_seed(self):
        session = Session.over_object(parse_object("[r1: {[a: 1], [a: 2]}]"))
        assert session.query("[r1: {[a: X]}]") == parse_object("[r1: {[a: 1], [a: 2]}]")


class TestElementIndexes:
    """The store's element index: created by prepare, probed by every query."""

    FAMILY = (
        "{[name: abraham, kids: {[name: isaac]}], [name: isaac, kids: {[name: jacob]}],"
        " [name: sarah], [kids: {[name: nobody]}], [name: {odd}, kids: {[name: x]}]}"
    )
    LOOKUP = "[family: {[name: $p, kids: {[name: X]}]}]"

    @pytest.fixture
    def family(self):
        with connect() as s:
            s.put("family", parse_object(self.FAMILY))
            yield s

    @staticmethod
    def _probes(session):
        return session.database.access_stats["query_element_probes"]

    def test_prepare_creates_the_index_and_execute_probes_it(self, family):
        prepared = family.prepare(self.LOOKUP)
        assert family.database.element_indexes() == (("family", "name"),)
        before = self._probes(family)
        answer = prepared.execute(p="abraham").all()
        assert answer == parse_object(
            "[family: {[name: abraham, kids: {[name: isaac]}]}]"
        )
        assert self._probes(family) == before + 1
        stats = family.stats()["query"]
        assert stats.index_hits == 1
        # One family witness and its one kid, not all five elements.
        assert stats.match_attempts == 2

    def test_adhoc_queries_probe_but_never_create(self, family):
        query = "[family: {[name: isaac, kids: {[name: X]}]}]"
        expected = baseline_interpret(parse_formula(query), family.database.as_object())
        before = self._probes(family)
        assert family.query(query) == expected
        assert family.database.element_indexes() == ()
        assert self._probes(family) == before
        family.prepare(self.LOOKUP)
        assert family.query(query) == expected
        assert self._probes(family) == before + 1

    def test_static_keys_of_a_prepared_query_are_indexed_too(self, family):
        family.prepare("[family: {[name: sarah, kids: K]}]")
        assert family.database.element_indexes() == (("family", "name"),)

    @pytest.mark.parametrize(
        "options",
        [{"against": "family"}, {"on_closure": True}, {"allow_bottom": True}],
    )
    def test_prepare_outside_store_mode_creates_no_index(self, family, options):
        family.prepare("[family: {[name: $p]}]", **options)
        assert family.database.element_indexes() == ()

    def test_seeded_session_creates_no_index(self):
        session = Session.over_object(parse_object("[family: {[name: a]}]"))
        session.prepare("[family: {[name: $p]}]")
        assert session.database.element_indexes() == ()

    def test_allow_bottom_never_probes(self, family):
        family.prepare(self.LOOKUP)
        before = self._probes(family)
        query = parse_formula("[family: {[name: sarah, kids: K]}]")
        target = family.database.as_object()
        answer = family.query(query, allow_bottom=True)
        assert answer == baseline_interpret(query, target, allow_bottom=True)
        assert union_all(family.execute(query, allow_bottom=True)) == answer
        assert self._probes(family) == before
        assert family.stats()["query"].index_hits == 0

    def test_commits_keep_the_index_in_step(self, family):
        prepared = family.prepare(self.LOOKUP)
        db = family.database
        db.insert("family", "", parse_object("[name: sarah, kids: {[name: isaac]}]"))
        db.discard("family", "", parse_object("[name: abraham, kids: {[name: isaac]}]"))
        for person in ("abraham", "sarah", "isaac", "nobody"):
            formula = parse_formula(self.LOOKUP.replace("$p", person))
            expected = baseline_interpret(formula, db.as_object())
            assert prepared.execute(p=person).all() == expected
            assert family.query(formula) == expected
        db.remove("family")
        assert prepared.execute(p="isaac").all() is BOTTOM
        db.put("family", parse_object("{[name: isaac, kids: {[name: esau]}]}"))
        assert prepared.execute(p="isaac").all() == parse_object(
            "[family: {[name: isaac, kids: {[name: esau]}]}]"
        )

    def test_cursor_opened_before_a_commit_streams_its_own_snapshot(self, family):
        prepared = family.prepare(self.LOOKUP)
        db = family.database
        before_state = db.as_object()
        pending = prepared.execute(p="isaac")  # nothing streamed yet
        drained = prepared.execute(p="isaac")
        started = family.execute(prepared, {"p": "isaac"}, batch_size=1)
        first = next(started)
        probes = self._probes(family)
        db.discard("family", "", parse_object("[name: isaac, kids: {[name: jacob]}]"))
        db.insert("family", "", parse_object("[name: isaac, kids: {[name: esau]}]"))
        expected = baseline_interpret(
            parse_formula(self.LOOKUP.replace("$p", "isaac")), before_state
        )
        assert list(pending) == [expected]
        assert drained.all() == expected
        assert [first] + list(started) == [expected]
        # The commit moved the index on, so the old cursors scanned their
        # snapshot instead of probing the new state.
        assert self._probes(family) == probes
        assert prepared.execute(p="isaac").all() == parse_object(
            "[family: {[name: isaac, kids: {[name: esau]}]}]"
        )

    def test_explain_shows_the_probe_on_the_leaf(self, family):
        prepared = family.prepare(self.LOOKUP)
        note = "via element index family.name: 1 of 5 elements"
        assert note in prepared.explain(p="abraham")
        assert note in prepared.explain(p="abraham", analyze=True)
        adhoc = "[family: {[name: abraham, kids: {[name: X]}]}]"
        assert note in family.explain(adhoc, analyze=True)
        assert note in family.database.explain_query(adhoc)
        assert "via element index" not in family.explain(adhoc, allow_bottom=True)

    def test_probe_counter_is_a_declared_metric(self, family):
        from repro.obs.metrics import REGISTRY

        counter = REGISTRY.counter("store.index.query_element_probes")
        before = counter.value
        family.prepare(self.LOOKUP).execute(p="sarah").all()
        assert counter.value == before + 1
        assert "store.index.query_element_probes" in repro.obs.snapshot()["counters"]

    def test_view_answers_only_for_the_indexed_set(self, family):
        family.prepare(self.LOOKUP)
        db = family.database
        assert db._element_view(db.as_object()) is not None
        # Another state's family set: the index must not answer for it.
        other = parse_object("[family: {[name: abraham, kids: {[name: esau]}]}]")
        assert db._element_view(other) is None

    def test_element_index_needs_a_stored_name(self, family):
        with pytest.raises(StoreError):
            family.database.create_element_index("", "name")


class TestRulesAndClosures:
    FAMILY = (
        "[family: {[name: abraham, children: {[name: isaac]}],"
        " [name: isaac, children: {[name: jacob]}]}]"
    )
    RULES = (
        "[doa: {abraham}].\n"
        "[doa: {X}] :- [family: {[name: Y, children: {[name: X]}]}, doa: {Y}].\n"
    )

    def test_closure_over_store_and_cache(self):
        with connect(rules=self.RULES) as session:
            # The stored name joins the whole-database object the rules close.
            session.put("family", parse_object(self.FAMILY)["family"])
            result = session.close(engine="seminaive")
            assert "jacob" in result.value.to_text()
            again = session.close(engine="seminaive")
            assert again is result  # cached: same version, same guards
            info = session.cache_info()
            assert info["closure_hits"] == 1 and info["closure_misses"] == 1

    def test_commit_invalidates_the_closure(self):
        with connect(rules=self.RULES) as session:
            session.put("family", parse_object(self.FAMILY)["family"])
            first = session.close()
            session.put("family", parse_object(
                "{[name: abraham, children: {[name: sarah]}]}"
            ))
            second = session.close()
            assert second is not first
            assert "sarah" in second.value.to_text()
            assert "jacob" not in second.value.to_text()

    def test_query_on_closure_reuses_the_cached_evaluation(self):
        session = Session.over_object(parse_object(self.FAMILY), rules=self.RULES)
        session.close(engine="seminaive")
        answer = session.query("[doa: X]", on_closure=True, engine="seminaive")
        assert answer == parse_object("[doa: {abraham, isaac, jacob}]")
        info = session.cache_info()
        assert info["closure_misses"] == 1 and info["closure_hits"] == 1

    def test_register_accepts_text_rules_and_rulesets(self):
        session = Session.over_object(parse_object(self.FAMILY))
        session.register(self.RULES)
        from repro.parser import parse_rule

        session.register(parse_rule("[names: {X}] :- [family: {[name: X]}]."))
        closure = session.close(engine="naive").value
        assert "names" in closure.to_text()

    def test_close_is_the_paper_closure_not_a_resource_release(self):
        # close() computes R*(O); the session stays usable afterwards.
        session = Session.over_object(parse_object(self.FAMILY), rules=self.RULES)
        session.close()
        assert session.query("[family: {[name: X]}]") != BOTTOM


class TestBottomSemantics:
    """A session seeded with ⊥ is the paper's empty database, not the store's []."""

    def test_seeded_bottom_queries_answer_bottom(self):
        session = Session.over_object(BOTTOM)
        assert session.query("X") is BOTTOM

    def test_interpret_shim_on_bottom_matches_the_baseline(self):
        query = parse_formula("X")
        with pytest.warns(DeprecationWarning):
            assert repro.interpret(query, BOTTOM) == baseline_interpret(query, BOTTOM)

    def test_closure_over_bottom_database_is_facts_only(self):
        session = Session.over_object(BOTTOM, rules="[doa: {abraham}].")
        result = session.close(engine="naive")
        assert result.value == parse_object("[doa: {abraham}]")
        assert not result.value.is_top

    def test_cli_run_without_database_stays_bottom_seeded(self):
        import io
        from repro.cli import main

        buffer = io.StringIO()
        code = main(["run", "[doa: {abraham}]."], output=buffer)
        assert code == 0
        assert "top" not in buffer.getvalue()
        assert "doa" in buffer.getvalue()

    def test_empty_store_backed_session_keeps_snapshot_semantics(self):
        # Unseeded sessions mirror the store: an empty store's whole-database
        # object is the empty tuple, exactly as as_object() always answered.
        with connect() as session:
            assert session.query("X") == session.database.as_object()


class TestCacheEviction:
    def test_lru_keeps_the_hot_prepared_plan_under_churn(self, monkeypatch):
        import repro.api as api

        monkeypatch.setattr(api, "_CACHE_LIMIT", 4)
        session = Session.over_object(parse_object("[r1: {[a: 1]}]"))
        hot = session.prepare("[r1: {[a: $x]}]")
        hot.execute(x=1).all()
        for index in range(4):
            session.query(parse_formula(f"[r1: {{[a: X, b: {index}]}}]"))
            hot.execute(x=1).all()
        assert session.cache_info()["plans_cached"] <= 4
        misses = session.cache_info()["plan_misses"]
        hot.execute(x=1).all()
        assert session.cache_info()["plan_misses"] == misses

    def test_distinct_bindings_do_not_churn_the_compile_cache(self):
        from repro.plan.compile import compile_body

        with connect() as session:
            session.put("r1", parse_object("{[a: 1, b: x], [a: 2, b: y]}"))
            session.database.create_index("b")
            prepared = session.prepare("[r1: {[a: $x, b: B]}]")
            prepared.execute(x=0).all()  # first execution plans (and compiles)
            # Misses, not the cache size: a full bounded cache keeps its size
            # while churning.
            before = compile_body.cache_info().misses
            for value in range(1, 10):
                prepared.execute(x=value).all()
            assert compile_body.cache_info().misses == before

    def test_refuted_bindings_hit_the_plan_cache_without_compiling(self):
        from repro.plan.compile import compile_body

        with connect() as session:
            session.put("family", parse_object("{[name: abraham], [name: isaac]}"))
            session.database.create_index("name")
            prepared = session.prepare("[family: {[name: $who, kids: K]}]")
            prepared.execute(who="abraham").all()
            before = compile_body.cache_info().misses
            shorts = session.database.access_stats["query_index_shortcircuits"]
            for index in range(5):
                assert prepared.execute(who=f"nobody{index}").all().is_bottom
            assert compile_body.cache_info().misses == before
            assert (
                session.database.access_stats["query_index_shortcircuits"]
                == shorts + 5
            )
            assert session.cache_info()["plan_hits"] >= 5

    def test_shim_facade_is_per_thread(self):
        import threading

        from repro.store.database import ObjectDatabase

        database = ObjectDatabase()
        database.put("r1", parse_object("{[a: 1], [a: 2]}"))
        expected = parse_object("[r1: {[a: 1], [a: 2]}]")
        errors = []

        def worker():
            try:
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore", DeprecationWarning)
                    for _ in range(20):
                        assert database.query("[r1: {[a: X]}]") == expected
            except Exception as error:  # pragma: no cover - failure evidence
                errors.append(error)

        threads = [threading.Thread(target=worker) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors


class TestLegacyShims:
    def test_interpret_shim_warns_and_agrees(self):
        database = parse_object("[r1: {[a: 1, b: x], [a: 2, b: y]}]")
        query = parse_formula("[r1: {[a: X, b: x]}]")
        with pytest.warns(DeprecationWarning):
            shimmed = repro.interpret(query, database)
        assert shimmed == baseline_interpret(query, database)

    def test_program_query_shim_warns_and_agrees(self):
        program = repro.Program.from_source(
            TestRulesAndClosures.RULES,
            database=parse_object(TestRulesAndClosures.FAMILY),
        )
        with pytest.warns(DeprecationWarning):
            answer = program.query(parse_formula("[doa: X]"))
        assert answer == parse_object("[doa: {abraham, isaac, jacob}]")

    def test_object_database_query_shim_warns_and_agrees(self):
        from repro.store.database import ObjectDatabase

        database = ObjectDatabase()
        database.put("r1", parse_object(PEOPLE))
        query = parse_formula("[r1: {[name: X]}]")
        with pytest.warns(DeprecationWarning):
            shimmed = database.query(query)
        assert shimmed == baseline_interpret(query, database.as_object())

    def test_shimmed_database_query_reuses_one_facade_session(self):
        from repro.store.database import ObjectDatabase

        database = ObjectDatabase()
        database.put("r1", parse_object(PEOPLE))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DeprecationWarning)
            database.query("[r1: {[name: X]}]")
            database.query("[r1: {[name: X]}]")
        facade = database._facade()
        assert facade.cache_info()["plan_hits"] >= 1


class TestParameterSyntax:
    def test_parameters_parse_in_formulae_only(self):
        formula = parse_formula("[r1: {[name: $who]}]")
        assert formula.parameters() == frozenset({"who"})
        assert formula.variables() == frozenset()
        assert formula.to_text() == "[r1: {[name: $who]}]"

    def test_parameters_rejected_in_ground_objects(self):
        with pytest.raises(ReproError):
            parse_object("[name: $who]")

    def test_parameters_rejected_in_programs(self):
        from repro.parser import parse_program

        with pytest.raises(ReproError):
            parse_program("[doa: {$seed}].")

    def test_bare_dollar_is_a_lex_error(self):
        with pytest.raises(ReproError):
            parse_formula("[r1: $]")

    def test_spine_parameter_binds_like_a_constant(self, session):
        prepared = session.prepare("[r1: $value]")
        answer = prepared.execute(value=parse_object("{[name: peter, age: 25]}")).all()
        assert answer == parse_object("[r1: {[name: peter, age: 25]}]")

    def test_unbound_plan_execution_raises(self):
        from repro.plan import compile_body, match_plan

        plan = compile_body(parse_formula("[r1: {[name: $who]}]"))
        with pytest.raises(ParameterError):
            match_plan(plan, parse_object("[r1: {[name: peter]}]"))
