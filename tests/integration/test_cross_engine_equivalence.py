"""Cross-paradigm equivalence: every engine must return the same rows.

This is the core "semantic preservation" claim of the paper: a query written
in Cypher, translated to Datalog and SQL, must compute the same answer on a
deductive engine, a relational engine, a real SQL system (SQLite) and the
graph-native interpreter -- with and without optimization.
"""

import importlib.util

import pytest

from repro.common.errors import ExecutionError
from repro.common.semantics import COMPARISON_TYPE_ERROR, DIVISION_BY_ZERO
from repro.ldbc import complex_query_2, short_query_1
from repro.ldbc.queries import (
    friend_reachability,
    friends_of_friends,
    shortest_path_query,
)
from tests.conftest import PAPER_FACTS


def _compile_and_run_everywhere(raqlet, data, spec, optimized):
    compiled = raqlet.compile_cypher(spec["query"], spec["parameters"])
    results = raqlet.run_everywhere(
        compiled,
        data.facts,
        data.relational_database(),
        data.property_graph(),
        data.sqlite_executor(),
        optimized=optimized,
    )
    return compiled, results


@pytest.mark.parametrize("optimized", [False, True], ids=["unoptimized", "optimized"])
def test_short_query_1_equivalence(snb_raqlet, snb_data, optimized):
    spec = short_query_1(snb_data.dataset.default_person_id())
    compiled, results = _compile_and_run_everywhere(snb_raqlet, snb_data, spec, optimized)
    assert set(results) == {"datalog", "relational", "sqlite", "graph"}
    reference = results["datalog"]
    assert len(reference) == 1
    assert all(result.same_rows(reference) for result in results.values())
    assert compiled.backend_problems("sqlite") == []


@pytest.mark.parametrize("optimized", [False, True], ids=["unoptimized", "optimized"])
def test_complex_query_2_equivalence(snb_raqlet, snb_data, optimized):
    spec = complex_query_2(
        snb_data.dataset.default_person_id(), snb_data.dataset.median_message_date()
    )
    _, results = _compile_and_run_everywhere(snb_raqlet, snb_data, spec, optimized)
    reference = results["datalog"]
    assert len(reference) > 0
    assert all(result.same_rows(reference) for result in results.values())


@pytest.mark.parametrize("optimized", [False, True], ids=["unoptimized", "optimized"])
def test_friends_of_friends_equivalence(snb_raqlet, snb_data, optimized):
    spec = friends_of_friends(snb_data.dataset.default_person_id())
    _, results = _compile_and_run_everywhere(snb_raqlet, snb_data, spec, optimized)
    reference = results["datalog"]
    assert len(reference) > 0
    assert all(result.same_rows(reference) for result in results.values())


@pytest.mark.parametrize("optimized", [False, True], ids=["unoptimized", "optimized"])
def test_friend_reachability_equivalence(snb_raqlet, snb_data, optimized):
    spec = friend_reachability(snb_data.dataset.default_person_id())
    compiled, results = _compile_and_run_everywhere(snb_raqlet, snb_data, spec, optimized)
    reference = results["datalog"]
    assert len(reference) > 0
    assert all(result.same_rows(reference) for result in results.values())
    # Reachability is recursive, so the generated SQL must use WITH RECURSIVE.
    assert "WITH RECURSIVE" in compiled.sql_text(optimized=optimized)


def test_shortest_path_runs_on_datalog_and_graph_only(snb_raqlet, snb_data):
    person_ids = snb_data.dataset.person_ids
    spec = shortest_path_query(person_ids[0], person_ids[-1])
    compiled = snb_raqlet.compile_cypher(spec["query"], spec["parameters"])
    problems = compiled.backend_problems("sqlite")
    assert problems  # min-subsumption is not expressible in SQL
    datalog_result = snb_raqlet.run_on_datalog_engine(compiled, snb_data.facts)
    graph_result = snb_raqlet.run_on_graph_engine(compiled, snb_data.property_graph())
    assert datalog_result.same_rows(graph_result)
    assert len(datalog_result) == 1


def test_run_everywhere_skips_unsupported_backends(snb_raqlet, snb_data):
    person_ids = snb_data.dataset.person_ids
    spec = shortest_path_query(person_ids[0], person_ids[1])
    compiled = snb_raqlet.compile_cypher(spec["query"], spec["parameters"])
    results = snb_raqlet.run_everywhere(
        compiled,
        snb_data.facts,
        snb_data.relational_database(),
        snb_data.property_graph(),
        snb_data.sqlite_executor(),
    )
    assert "relational" not in results
    assert "sqlite" not in results
    assert {"datalog", "graph"} <= set(results)


def test_optimized_and_unoptimized_agree_on_all_ldbc_queries(snb_raqlet, snb_data):
    person_id = snb_data.dataset.default_person_id()
    specs = [
        short_query_1(person_id),
        complex_query_2(person_id, snb_data.dataset.median_message_date()),
        friends_of_friends(person_id),
        friend_reachability(person_id),
    ]
    for spec in specs:
        compiled = snb_raqlet.compile_cypher(spec["query"], spec["parameters"])
        unopt = snb_raqlet.run_on_datalog_engine(compiled, snb_data.facts, optimized=False)
        opt = snb_raqlet.run_on_datalog_engine(compiled, snb_data.facts, optimized=True)
        assert unopt.same_rows(opt)


# -- scalar semantics: one meaning on every evaluator --------------------------

_EVALUATORS = [
    ("datalog", "interpreted"),
    ("datalog", "compiled"),
    ("datalog", "columnar"),
    ("relational", None),
    ("graph", None),
]

_ONE_PERSON = {"Person": [(43, "Alan", "10.0.0.2")]}


def _outcome(raqlet, facts, query, engine, executor):
    """The rows a query returns — or the ExecutionError text it raises."""
    with raqlet.session(facts, executor=executor) as session:
        try:
            return sorted(session.execute(query, engine=engine).rows)
        except ExecutionError as error:
            return str(error)


@pytest.mark.parametrize(
    "query, facts, expected",
    [
        ("MATCH (a:Person) RETURN a.id AS id, a.id / 0 AS v", PAPER_FACTS, DIVISION_BY_ZERO),
        ("MATCH (a:Person) RETURN a.id AS id, a.id % 0 AS v", PAPER_FACTS, DIVISION_BY_ZERO),
        (
            "MATCH (a:Person) RETURN a.id AS id, (0 - a.id) / 2 AS v",
            PAPER_FACTS,
            [(42, -21), (43, -21), (44, -22)],
        ),
        (
            "MATCH (a:Person) RETURN a.id AS id, (0 - a.id) % 2 AS v",
            PAPER_FACTS,
            [(42, 0), (43, -1), (44, 0)],
        ),
        (
            # one row, so the operands the message quotes cannot depend on
            # an engine's iteration order
            "MATCH (a:Person) WHERE a.firstName < 3 RETURN a.id AS id",
            _ONE_PERSON,
            COMPARISON_TYPE_ERROR % ("Alan", 3, "<"),
        ),
    ],
    ids=["div-zero", "mod-zero", "negative-div", "negative-mod", "mixed-order"],
)
def test_scalar_semantics_agree_on_every_evaluator(paper_raqlet, query, facts, expected):
    """``/``, ``%`` and ``<`` mean one thing: the three Datalog executors and
    the relational and graph engines return identical rows or raise an
    identical ``ExecutionError``, and SQLite — running the SQL Raqlet
    emitted — agrees wherever it answers non-NULL."""
    for engine, executor in _EVALUATORS:
        if executor == "columnar" and importlib.util.find_spec("numpy") is None:
            continue
        outcome = _outcome(paper_raqlet, facts, query, engine, executor)
        assert outcome == expected, (engine, executor)
    if isinstance(expected, list):
        assert _outcome(paper_raqlet, facts, query, "sqlite", None) == expected
