"""Tests for the session API: persistent stores, prepared queries, late binding.

The headline contract (the PR's acceptance bar): re-running a
:class:`~repro.session.PreparedQuery` with a different parameter binding
performs **zero** fact re-ingest, **zero** index rebuilds and **zero** plan
recompiles — asserted through the store's ``index_build_count``, the
engine's ``plan_build_count`` and the session's ``ingest_count``.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro import Raqlet
from repro.common.errors import ExecutionError, RaqletError, UnsupportedFeatureError

SCHEMA = """
CREATE GRAPH {
  (personType : Person { id INT, firstName STRING, locationIP STRING }),
  (cityType : City { id INT, name STRING }),
  (:personType)-[locationType : isLocatedIn { id INT }]->(:cityType),
  (:personType)-[knowsType : knows { id INT }]->(:personType)
}
"""

FACTS = {
    "Person": [
        (42, "Ada", "10.0.0.1"),
        (43, "Alan", "10.0.0.2"),
        (44, "Edgar", "10.0.0.3"),
        (45, "Grace", "10.0.0.4"),
    ],
    "City": [(1, "Edinburgh"), (2, "Lausanne")],
    "Person_IS_LOCATED_IN_City": [(42, 1, 900), (43, 2, 901), (44, 1, 902), (45, 2, 903)],
    "Person_KNOWS_Person": [(42, 43, 1), (43, 44, 2), (44, 45, 3)],
}

CITY_QUERY = """
MATCH (n:Person {id: $personId})-[:IS_LOCATED_IN]->(p:City)
RETURN DISTINCT n.firstName AS firstName, p.id AS cityId
"""

REACH_QUERY = """
MATCH (a:Person {id: $personId})-[:KNOWS*]->(b:Person)
RETURN DISTINCT b.id AS reachable
"""


@pytest.fixture
def raqlet():
    return Raqlet(SCHEMA)


# -- the warm-path contract -------------------------------------------------


@pytest.mark.parametrize("store", ["memory", "sqlite"])
@pytest.mark.parametrize("executor", ["interpreted", "compiled"])
def test_rebinding_is_free_of_rebuilds(raqlet, store, executor):
    """Different bindings on one PreparedQuery: zero re-ingest, zero index
    rebuilds, zero plan recompiles, and stats snapshots grow by the same
    amount each warm run (no hidden extra work).
    """
    with raqlet.session(FACTS, store=store, executor=executor) as session:
        prepared = session.prepare(CITY_QUERY)
        assert prepared.param_names == ("personId",)
        first = prepared.run(personId=42)
        assert first.row_set() == {("Ada", 1)}

        ingests = session.ingest_count
        plan_builds = prepared.engine.plan_build_count
        index_builds = session.store.index_build_count
        closure_compiles = getattr(session.executor, "compile_count", 0)
        snapshots_before = prepared.engine.stats_snapshot_count
        second = prepared.run(personId=43)
        snapshots_per_run = prepared.engine.stats_snapshot_count - snapshots_before
        third = prepared.run(personId=44)

        assert second.row_set() == {("Alan", 2)}
        assert third.row_set() == {("Edgar", 1)}
        assert session.ingest_count == ingests == 1
        assert prepared.engine.plan_build_count == plan_builds
        assert session.store.index_build_count == index_builds
        if executor == "compiled":
            # The closure cache never regenerated code for a new binding.
            assert session.executor.compile_count == closure_compiles
        # The third run did exactly the same amount of statistics work as
        # the second: warm runs are uniform.
        assert (
            prepared.engine.stats_snapshot_count
            == snapshots_before + 2 * snapshots_per_run
        )


def test_rebinding_matches_per_binding_fresh_compiles(raqlet):
    """A prepared run equals compiling the query with the value inlined."""
    with raqlet.session(FACTS) as session:
        prepared = session.prepare(CITY_QUERY)
        for person_id in (42, 43, 44, 45):
            warm = prepared.run(personId=person_id)
            compiled = raqlet.compile_cypher(
                CITY_QUERY, {"personId": person_id}
            )
            fresh = raqlet.run_on_datalog_engine(compiled, FACTS)
            assert warm.row_set() == fresh.row_set()
            assert warm.columns == fresh.columns


def test_recursive_prepared_query_rebinds(raqlet):
    """Late binding works through recursive helper IDBs (VarLength)."""
    with raqlet.session(FACTS) as session:
        prepared = session.prepare(REACH_QUERY)
        assert prepared.run(personId=42).row_set() == {(43,), (44,), (45,)}
        assert prepared.run(personId=44).row_set() == {(45,)}
        assert prepared.run(personId=45).row_set() == set()
        assert session.ingest_count == 1


def test_same_binding_reuses_derived_result(raqlet):
    with raqlet.session(FACTS) as session:
        prepared = session.prepare(CITY_QUERY)
        prepared.run(personId=42)
        resets = prepared.engine.reset_count
        prepared.run(personId=42)  # identical binding, no mutation: cached
        assert prepared.engine.reset_count == resets
        prepared.run(personId=43)  # new binding: reset + re-derive
        assert prepared.engine.reset_count == resets + 1


def test_missing_parameter_is_reported(raqlet):
    with raqlet.session(FACTS) as session:
        prepared = session.prepare(CITY_QUERY)
        with pytest.raises(RaqletError, match=r"\$personId"):
            prepared.run()


# -- mutations --------------------------------------------------------------


def test_insert_marks_dirty_and_rederives(raqlet):
    with raqlet.session(FACTS) as session:
        prepared = session.prepare(CITY_QUERY)
        assert prepared.run(personId=42).row_set() == {("Ada", 1)}
        added = session.insert("Person_IS_LOCATED_IN_City", [(42, 2, 950)])
        assert added == 1
        assert prepared.run(personId=42).row_set() == {("Ada", 1), ("Ada", 2)}
        session.retract("Person_IS_LOCATED_IN_City", [(42, 2, 950)])
        assert prepared.run(personId=42).row_set() == {("Ada", 1)}
        # Mutations never re-ingested or re-planned anything.
        assert session.ingest_count == 1


def test_idle_prepared_query_does_not_pin_the_delta_log(raqlet, monkeypatch):
    """An idle query no longer holds the session's delta log forever: past
    the retention bound the log folds past it, and its next run re-derives
    once from scratch (the right rows, no incremental pass)."""
    from repro.engines.datalog import delta_log

    bound = 8
    monkeypatch.setattr(delta_log, "RETENTION", bound)
    facts = {name: list(rows) for name, rows in FACTS.items()}
    with raqlet.session(facts) as session:
        idle = session.prepare(REACH_QUERY)
        assert idle.run(personId=42).row_set() == {(43,), (44,), (45,)}
        maintains, resets = idle.engine.maintain_count, idle.engine.reset_count
        previous = 45
        for person in range(100, 100 + 5 * bound):  # 10 x bound mutations
            person_row = (person, f"P{person}", "10.0.0.9")
            edge = (previous, person, person)
            session.insert("Person", [person_row])
            session.insert("Person_KNOWS_Person", [edge])
            facts["Person"].append(person_row)
            facts["Person_KNOWS_Person"].append(edge)
            previous = person
            assert len(session._log) <= bound
        oracle = raqlet.run_on_datalog_engine(
            raqlet.compile_cypher(REACH_QUERY), facts, parameters={"personId": 42}
        )
        assert idle.run(personId=42).row_set() == oracle.row_set()
        assert len(oracle.row_set()) == 3 + 5 * bound
        assert idle.engine.reset_count == resets + 1
        assert idle.engine.maintain_count == maintains


def test_mutating_a_derived_relation_is_rejected(raqlet):
    with raqlet.session(FACTS) as session:
        prepared = session.prepare(CITY_QUERY)
        prepared.run(personId=42)
        derived = next(iter(prepared.idb_relations))
        with pytest.raises(RaqletError, match="derived"):
            session.insert(derived, [(1, 2)])


def test_two_prepared_queries_share_one_store_safely(raqlet):
    """Generated IDB names collide across queries ('Return' — at different
    arities, even); the per-query namespace must keep them apart so
    interleaved runs stay correct on every store backend."""
    with raqlet.session(FACTS) as session:
        cities = session.prepare(CITY_QUERY)
        reach = session.prepare(REACH_QUERY)
        # Both derive a relation called 'Return' (the hazard)...
        assert "Return" in cities.namespace and "Return" in reach.namespace
        # ...but the namespaced names never collide.
        assert not cities.idb_relations & reach.idb_relations
        assert cities.run(personId=42).row_set() == {("Ada", 1)}
        assert reach.run(personId=42).row_set() == {(43,), (44,), (45,)}
        assert cities.run(personId=42).row_set() == {("Ada", 1)}
        assert reach.run(personId=44).row_set() == {(45,)}
        assert session.ingest_count == 1
        # Disjoint namespaces also mean interleaving does not invalidate
        # the other query's derived result.
        resets = cities.engine.reset_count
        assert cities.run(personId=42).row_set() == {("Ada", 1)}
        assert cities.engine.reset_count == resets


# -- engine routing ---------------------------------------------------------


def test_execute_routes_to_every_engine(raqlet):
    with raqlet.session(FACTS) as session:
        reference = session.execute(CITY_QUERY, personId=43)
        for engine in ("datalog", "sqlite", "relational", "graph"):
            result = session.execute(CITY_QUERY, engine=engine, personId=43)
            assert result.row_set() == reference.row_set() == {("Alan", 2)}


def test_execute_rejects_unknown_engine(raqlet):
    with raqlet.session(FACTS) as session:
        with pytest.raises(RaqletError, match="unknown execution engine"):
            session.execute(CITY_QUERY, engine="quantum", personId=42)


def test_execute_capability_check_rejects_unsupported(raqlet):
    shortest = """
MATCH p = shortestPath((a:Person {id: $src})-[:KNOWS*]->(b:Person {id: $dst}))
RETURN length(p) AS hops
"""
    with raqlet.session(FACTS) as session:
        result = session.execute(shortest, src=42, dst=45)  # datalog supports it
        assert result.row_set() == {(3,)}
        with pytest.raises(UnsupportedFeatureError):
            session.execute(shortest, engine="sqlite", src=42, dst=45)


def test_prepare_datalog_text_with_parameters(raqlet):
    program = """
.decl Located(n:number, c:number)
Located(n, c) :- Person_IS_LOCATED_IN_City(n, c, _), n = $pid.
.output Located
"""
    with raqlet.session(FACTS) as session:
        prepared = session.prepare(program)
        assert prepared.param_names == ("pid",)
        assert prepared.run(pid=42).row_set() == {(42, 1)}
        assert prepared.run(pid=43).row_set() == {(43, 2)}
        # Text-prepare caching: the same text returns the same warm object.
        assert session.prepare(program) is prepared


# -- lifecycle --------------------------------------------------------------


def test_closed_session_rejects_use(raqlet):
    session = raqlet.session(FACTS)
    session.close()
    session.close()  # idempotent
    with pytest.raises(RaqletError, match="closed"):
        session.prepare(CITY_QUERY)
    with pytest.raises(RaqletError, match="closed"):
        session.insert("Person", [(99, "Zed", "z")])


def test_caller_supplied_store_stays_open(raqlet):
    from repro.engines.datalog.storage import FactStore

    store = FactStore()
    with raqlet.session(FACTS, store=store) as session:
        assert session.store is store
        session.prepare(CITY_QUERY).run(personId=42)
    # The session closed, but the caller's store is still usable.
    assert store.count("Person") == len(FACTS["Person"])


def test_engine_set_parameters_guard():
    """Rebinding without reset is an error at the engine level."""
    from repro.engines.datalog import DatalogEngine
    from repro.frontend.datalog import parse_datalog

    program = parse_datalog(
        """
.decl edge(a:number, b:number)
.decl hop(a:number, b:number)
hop(a, b) :- edge(a, b), a = $src.
.output hop
"""
    )
    engine = DatalogEngine(
        program, {"edge": [(1, 2), (2, 3)]}, parameters={"src": 1}
    )
    assert engine.query().row_set() == {(1, 2)}
    with pytest.raises(ExecutionError, match="reset"):
        engine.set_parameters({"src": 2})
    engine.reset(parameters={"src": 2})
    assert engine.query().row_set() == {(2, 3)}


def test_ingest_after_run_marks_results_stale(raqlet):
    """ingest() is a mutation like insert(): derived results must refresh."""
    with raqlet.session(FACTS) as session:
        prepared = session.prepare(CITY_QUERY)
        assert prepared.run(personId=42).row_set() == {("Ada", 1)}
        session.ingest({"Person_IS_LOCATED_IN_City": [(42, 2, 960)]})
        assert prepared.run(personId=42).row_set() == {("Ada", 1), ("Ada", 2)}
        # The secondary engines rebuild from the mutated EDB too.
        sqlite_rows = session.execute(CITY_QUERY, engine="sqlite", personId=42)
        assert sqlite_rows.row_set() == {("Ada", 1), ("Ada", 2)}


def test_prepare_cache_distinguishes_optimization_flags(raqlet):
    with raqlet.session(FACTS) as session:
        optimized = session.prepare(CITY_QUERY)
        unoptimized = session.prepare(CITY_QUERY, optimize=False)
        assert optimized is not unoptimized
        # The unoptimized artifact keeps the un-propagated comparison form.
        assert unoptimized.compiled.dlir_optimized is unoptimized.compiled.dlir
        assert session.prepare(CITY_QUERY) is optimized


def test_missing_parameter_raises_execution_error_on_both_executors():
    """Both executors raise the same ExecutionError for an unbound $param
    (the interpreted probe-key path used to leak a raw KeyError)."""
    from repro.engines.datalog import evaluate_program
    from repro.frontend.datalog import parse_datalog

    program = parse_datalog(
        """
.decl edge(a:number, b:number)
.decl hop(a:number, b:number)
hop(a, b) :- edge($src, b), a = $src.
.output hop
"""
    )
    for executor in ("interpreted", "compiled"):
        with pytest.raises(ExecutionError, match=r"no value bound.*\$src"):
            evaluate_program(
                program, {"edge": [(1, 2)]}, relation="hop", executor=executor
            )


def test_graph_engine_names_missing_parameter(raqlet):
    from repro.engines.graph import facts_to_property_graph

    compiled = raqlet.compile_cypher(CITY_QUERY)
    graph = facts_to_property_graph(FACTS, raqlet.mapping)
    with pytest.raises(ExecutionError, match=r"no value bound.*\$personId"):
        raqlet.run_on_graph_engine(compiled, graph)
    bound = raqlet.run_on_graph_engine(compiled, graph, {"personId": 42})
    assert bound.row_set() == {("Ada", 1)}


def test_seed_facts_on_derived_relations_survive(raqlet):
    """A relation with both rules and externally supplied rows keeps the
    seed rows through namespacing and warm resets (the pre-session
    behaviour of run_on_datalog_engine)."""
    program_text = """
.decl edge(a:number, b:number)
.decl path(a:number, b:number)
path(a, b) :- edge(a, b).
path(a, c) :- path(a, b), edge(b, c).
.output path
"""
    compiled = raqlet.compile_datalog(program_text)
    facts = {"edge": [(1, 2)], "path": [(10, 11)]}
    expected = {(1, 2), (10, 11)}
    # One-shot API (pre-PR behaviour).
    assert raqlet.run_on_datalog_engine(compiled, facts).row_set() == expected
    # Session path, including a warm re-run after a reset-forcing mutation.
    with raqlet.session(facts) as session:
        prepared = session.prepare(compiled)
        assert prepared.run().row_set() == expected
        session.insert("edge", [(2, 3)])
        assert prepared.run().row_set() == {(1, 2), (2, 3), (1, 3), (10, 11)}


def test_binding_an_inlined_parameter_is_rejected(raqlet):
    """Binding a value for a compile-time-inlined parameter must not
    silently return the old binding's rows."""
    compiled = raqlet.compile_cypher(CITY_QUERY, {"personId": 42})
    with raqlet.session(FACTS) as session:
        prepared = session.prepare(compiled)
        assert prepared.param_names == ()
        assert prepared.run().row_set() == {("Ada", 1)}
        # Re-stating the inlined value is harmless...
        assert prepared.run(personId=42).row_set() == {("Ada", 1)}
        # ...a different value (or an unknown name) is an error.
        with pytest.raises(RaqletError, match="inlined at compile"):
            prepared.run(personId=43)
        late = session.prepare(CITY_QUERY)
        with pytest.raises(RaqletError, match=r"unknown query parameter \$personid"):
            late.run(personid=42)  # typo: the real name is $personId


def test_language_detection_ignores_turnstile_in_strings(raqlet):
    from repro.session import detect_query_language

    cypher = 'MATCH (n:Person) WHERE n.firstName = ":-)" RETURN n.id AS id'
    assert detect_query_language(cypher) == "cypher"
    assert detect_query_language("p(a) :- q(a).") == "datalog"
    assert detect_query_language(".decl p(a:number)\np(1).") == "datalog"
    # A Datalog head named like a SQL keyword is still Datalog.
    assert detect_query_language("select(x) :- p(x).") == "datalog"
    assert detect_query_language("SELECT(x) :- p(x).") == "datalog"
    assert detect_query_language("SELECT id FROM person") == "sql"
    with raqlet.session(FACTS) as session:
        # Must compile as Cypher (no Datalog parse error).
        result = session.execute(cypher)
        assert result.rows == []


SQL_CORPUS = sorted(
    (Path(__file__).resolve().parents[2] / "bench" / "corpus").glob("*.sql")
)


@pytest.mark.parametrize("path", SQL_CORPUS, ids=lambda path: path.stem)
def test_sql_text_prepares_on_session_and_pool(snb_raqlet, snb_data, path):
    """SQL text reaches a session and the pool through the one language
    dispatch: detected from its leading keyword or named explicitly, it
    answers exactly what compile_sql plus prepare(compiled) answers."""
    from repro.serving import ServingPool
    from repro.session import detect_query_language

    text = path.read_text()
    assert detect_query_language(text) == "sql"
    with snb_raqlet.session(snb_data.facts) as session:
        expected = session.prepare(snb_raqlet.compile_sql(text)).run().row_set()
        assert session.prepare(text).run().row_set() == expected
        assert session.prepare(text, language="sql").run().row_set() == expected
    with ServingPool(snb_raqlet, snb_data.facts, workers=1) as pool:
        pool.prepare("q", text)
        assert pool.run("q").row_set() == expected


def test_mutating_the_original_name_of_a_derived_relation_is_rejected(raqlet):
    """An insert under the pre-namespace name would land in the shared
    store but never reach the renamed relation — reject it loudly."""
    program_text = """
.decl edge(a:number, b:number)
.decl path(a:number, b:number)
path(a, b) :- edge(a, b).
.output path
"""
    with raqlet.session({"edge": [(1, 2)]}) as session:
        prepared = session.prepare(program_text)
        assert prepared.run().row_set() == {(1, 2)}
        with pytest.raises(RaqletError, match="derived"):
            session.insert("path", [(10, 11)])
        with pytest.raises(RaqletError, match="derived"):
            session.ingest({"path": [(10, 11)]})


def test_explain_accepts_bindings(raqlet):
    with raqlet.session(FACTS) as session:
        prepared = session.prepare(CITY_QUERY)
        # Usable before any run by supplying the binding directly.
        report = prepared.explain(personId=42)
        assert "datalog plan report" in report
        # Without arguments it reuses the most recent binding.
        assert "datalog plan report" in prepared.explain()


def test_datalog_engine_accepts_parameters(raqlet):
    compiled = raqlet.compile_cypher(CITY_QUERY)
    engine = raqlet.datalog_engine(compiled, FACTS, parameters={"personId": 43})
    assert engine.query().row_set() == {("Alan", 2)}
    assert "datalog plan report" in engine.explain()
