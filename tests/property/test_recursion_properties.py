"""Property-based tests (hypothesis) for the core evaluation invariants.

The key invariants checked on randomly generated graphs:

* the Datalog engine's transitive closure equals networkx's transitive
  closure (ground truth),
* every execution path (Datalog engine, relational engine, SQLite) computes
  the same relation for the same DLIR program,
* the optimizer never changes query results,
* linearization and magic sets preserve the transitive closure,
* min-subsumption shortest distances equal BFS shortest path lengths.
"""

from typing import List, Tuple

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.dlir.builder import ProgramBuilder
from repro.engines.datalog import evaluate_program
from repro.engines.relational import Database, execute_sqir
from repro.engines.sqlite_exec import run_sql_on_sqlite
from repro.backends import sqir_to_sql
from repro.optimize import optimize_program
from repro.optimize.linearize import LinearizeRecursion
from repro.optimize.magic_sets import MagicSets
from repro.sqir import translate_dlir_to_sqir

try:  # networkx is a test-only oracle; the core never imports it
    import networkx as nx
except ImportError:  # pragma: no cover - exercised only without networkx
    nx = None

needs_networkx = pytest.mark.skipif(nx is None, reason="networkx oracle not installed")

_SETTINGS = settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


@st.composite
def edge_lists(draw, max_nodes=8, max_edges=16) -> List[Tuple[int, int]]:
    node_count = draw(st.integers(min_value=2, max_value=max_nodes))
    edges = draw(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=node_count - 1),
                st.integers(min_value=0, max_value=node_count - 1),
            ),
            max_size=max_edges,
        )
    )
    return [(a, b) for a, b in edges if a != b]


def _tc_program(nonlinear=False):
    builder = ProgramBuilder()
    builder.edb("edge", [("a", "number"), ("b", "number")])
    builder.idb("tc", [("a", "number"), ("b", "number")])
    builder.rule("tc", ["x", "y"], [("edge", ["x", "y"])])
    if nonlinear:
        builder.rule("tc", ["x", "y"], [("tc", ["x", "z"]), ("tc", ["z", "y"])])
    else:
        builder.rule("tc", ["x", "y"], [("tc", ["x", "z"]), ("edge", ["z", "y"])])
    builder.output("tc")
    return builder.build()


def _expected_tc(edges):
    """Pairs (u, v) connected by a path of length >= 1 (walk semantics)."""
    graph = nx.DiGraph()
    graph.add_edges_from(edges)
    closure = set()
    for source in graph.nodes:
        for successor in graph.successors(source):
            closure.add((source, successor))
            for target in nx.descendants(graph, successor):
                closure.add((source, target))
            closure.add((source, successor))
    return closure


@needs_networkx
@given(edge_lists())
@_SETTINGS
def test_datalog_tc_matches_networkx(edges):
    result = evaluate_program(_tc_program(), {"edge": edges}, relation="tc")
    assert result.row_set() == _expected_tc(edges)


@given(edge_lists())
@_SETTINGS
def test_nonlinear_and_linear_tc_agree(edges):
    linear = evaluate_program(_tc_program(False), {"edge": edges}, relation="tc")
    nonlinear = evaluate_program(_tc_program(True), {"edge": edges}, relation="tc")
    assert linear.same_rows(nonlinear)


@given(edge_lists())
@_SETTINGS
def test_relational_engine_matches_datalog_engine(edges):
    program = _tc_program()
    datalog_result = evaluate_program(program, {"edge": edges}, relation="tc")
    database = Database()
    database.create_table("edge", ["a", "b"])
    database.insert_many("edge", edges)
    relational_result = execute_sqir(translate_dlir_to_sqir(program), database)
    assert datalog_result.same_rows(relational_result)


@given(edge_lists(max_nodes=6, max_edges=10))
@_SETTINGS
def test_sqlite_matches_datalog_engine(edges):
    program = _tc_program()
    datalog_result = evaluate_program(program, {"edge": edges}, relation="tc")
    sql = sqir_to_sql(translate_dlir_to_sqir(program), dialect="sqlite")
    sqlite_result = run_sql_on_sqlite(program.schema, {"edge": edges}, sql)
    assert datalog_result.same_rows(sqlite_result)


@given(edge_lists(), st.integers(min_value=0, max_value=7))
@_SETTINGS
def test_magic_sets_preserves_bound_queries(edges, source):
    builder = ProgramBuilder()
    builder.edb("edge", [("a", "number"), ("b", "number")])
    builder.idb("tc", [("a", "number"), ("b", "number")])
    builder.idb("query", [("b", "number")])
    builder.rule("tc", ["x", "y"], [("edge", ["x", "y"])])
    builder.rule("tc", ["x", "y"], [("tc", ["x", "z"]), ("edge", ["z", "y"])])
    builder.rule("query", ["y"], [("tc", [source, "y"])])
    builder.output("query")
    program = builder.build()
    transformed = MagicSets().run(program)
    original = evaluate_program(program, {"edge": edges}, relation="query")
    magic = evaluate_program(transformed, {"edge": edges}, relation="query")
    assert original.same_rows(magic)


@given(edge_lists())
@_SETTINGS
def test_linearization_preserves_tc(edges):
    program = _tc_program(nonlinear=True)
    linearized = LinearizeRecursion().run(program)
    original = evaluate_program(program, {"edge": edges}, relation="tc")
    rewritten = evaluate_program(linearized, {"edge": edges}, relation="tc")
    assert original.same_rows(rewritten)


@given(edge_lists())
@_SETTINGS
def test_default_pipeline_preserves_tc(edges):
    program = _tc_program(nonlinear=False)
    optimized, _trace = optimize_program(program)
    original = evaluate_program(program, {"edge": edges}, relation="tc")
    rewritten = evaluate_program(optimized, {"edge": edges}, relation="tc")
    assert original.same_rows(rewritten)


@needs_networkx
@given(edge_lists())
@_SETTINGS
def test_min_subsumption_matches_bfs_shortest_paths(edges):
    from repro.dlir.core import ArithExpr, Atom, Const, Rule, Var

    builder = ProgramBuilder()
    builder.edb("edge", [("a", "number"), ("b", "number")])
    builder.idb("dist", [("a", "number"), ("b", "number"), ("d", "number")])
    program = builder.build(validate=False)
    program.add_rule(
        Rule(
            head=Atom("dist", (Var("a"), Var("b"), Const(1))),
            body=(Atom("edge", (Var("a"), Var("b"))),),
            subsume_min=2,
        )
    )
    program.add_rule(
        Rule(
            head=Atom("dist", (Var("a"), Var("b"), ArithExpr("+", Var("d"), Const(1)))),
            body=(
                Atom("dist", (Var("a"), Var("z"), Var("d"))),
                Atom("edge", (Var("z"), Var("b"))),
            ),
            subsume_min=2,
        )
    )
    program.add_output("dist")
    result = evaluate_program(program, {"edge": edges}, relation="dist")
    derived = {(row[0], row[1]): row[2] for row in result}

    graph = nx.DiGraph()
    graph.add_edges_from(edges)
    expected = {}
    for source in graph.nodes:
        lengths = nx.single_source_shortest_path_length(graph, source)
        for target, length in lengths.items():
            if length > 0:
                expected[(source, target)] = length
        # Self-distances via cycles: networkx reports 0 for the source itself,
        # but Datalog derives the length of the shortest non-empty cycle.
        cycle_lengths = [
            lengths[predecessor] + 1
            for predecessor in graph.predecessors(source)
            if predecessor in lengths
        ]
        if cycle_lengths:
            expected[(source, source)] = min(cycle_lengths)
    assert derived == expected
