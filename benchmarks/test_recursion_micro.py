"""Recursion microbenchmarks across engines (supports Sections 2 and 5).

The paper's survey (Section 2) discusses which classes of recursive queries
perform best on which paradigm (Soufflé beating RDBMS on transitive closure,
RDBMS winning on aggregation-heavy workloads, and so on).  These
microbenchmarks exercise the classic recursive queries on synthetic graphs on
every engine in the repository:

* transitive closure from a bound source (chain and random graph),
* same-generation (the classic non-linear Datalog example, linearized for SQL),
* shortest path (Datalog engine with subsumption vs. graph-engine BFS),
* the transitive-closure fixpoint with a cycle audit, asserting that no
  index is rebuilt inside the loop.
"""

from __future__ import annotations

import random

import pytest

from repro import Raqlet
from repro.engines.graph import facts_to_property_graph
from repro.engines.relational import Database
from repro.engines.sqlite_exec import SQLiteExecutor

GRAPH_SCHEMA = """
CREATE GRAPH {
  (nodeType : Node { id INT, name STRING }),
  (:nodeType)-[linkType : linksTo { id INT }]->(:nodeType)
}
"""

TC_QUERY = "MATCH (a:Node {id: 0})-[:LINKS_TO*]->(b:Node) RETURN b.id AS target"
SHORTEST_QUERY = (
    "MATCH p = shortestPath((a:Node {id: 0})-[:LINKS_TO*]->(b:Node {id: $target})) "
    "RETURN length(p) AS hops"
)


def _random_graph_facts(nodes=300, extra_edges=450, seed=13):
    rng = random.Random(seed)
    edges = [(index, index + 1, index) for index in range(nodes - 1)]
    edge_id = nodes
    for _ in range(extra_edges):
        src, dst = rng.randrange(nodes), rng.randrange(nodes)
        if src != dst:
            edge_id += 1
            edges.append((src, dst, edge_id))
    return {
        "Node": [(index, f"n{index}") for index in range(nodes)],
        "Node_LINKS_TO_Node": edges,
    }


@pytest.fixture(scope="module")
def graph_raqlet():
    return Raqlet(GRAPH_SCHEMA)


@pytest.fixture(scope="module")
def graph_facts():
    return _random_graph_facts()


@pytest.fixture(scope="module")
def graph_engines(graph_raqlet, graph_facts):
    database = Database()
    for relation in graph_raqlet.dl_schema.edb_relations():
        database.create_table(relation.name, relation.column_names())
        database.insert_many(relation.name, graph_facts.get(relation.name, []))
    graph = facts_to_property_graph(graph_facts, graph_raqlet.mapping)
    sqlite_executor = SQLiteExecutor(graph_raqlet.dl_schema, graph_facts)
    sqlite_executor.create_indexes()
    yield {"database": database, "graph": graph, "sqlite": sqlite_executor}
    sqlite_executor.close()


@pytest.mark.parametrize("backend", ["datalog", "relational", "sqlite", "graph"])
def test_transitive_closure_bound_source(benchmark, graph_raqlet, graph_facts, graph_engines, backend):
    compiled = graph_raqlet.compile_cypher(TC_QUERY)
    reference = graph_raqlet.run_on_datalog_engine(compiled, graph_facts)
    if backend == "datalog":
        run = lambda: graph_raqlet.run_on_datalog_engine(compiled, graph_facts)
    elif backend == "relational":
        run = lambda: graph_raqlet.run_on_relational_engine(compiled, graph_engines["database"])
    elif backend == "sqlite":
        run = lambda: graph_raqlet.run_on_sqlite(compiled, graph_engines["sqlite"])
    else:
        run = lambda: graph_raqlet.run_on_graph_engine(compiled, graph_engines["graph"])
    result = benchmark(run)
    assert result.same_rows(reference)
    benchmark.extra_info["backend"] = backend
    benchmark.extra_info["reachable"] = len(result)


@pytest.mark.parametrize("backend", ["datalog", "graph"])
def test_shortest_path_length(benchmark, graph_raqlet, graph_facts, graph_engines, backend):
    compiled = graph_raqlet.compile_cypher(SHORTEST_QUERY, {"target": 250})
    reference = graph_raqlet.run_on_datalog_engine(compiled, graph_facts)
    if backend == "datalog":
        run = lambda: graph_raqlet.run_on_datalog_engine(compiled, graph_facts)
    else:
        run = lambda: graph_raqlet.run_on_graph_engine(compiled, graph_engines["graph"])
    result = benchmark(run)
    assert result.same_rows(reference)
    assert len(result) == 1


# The shared TC + cycle-audit workload: the ``cyclic`` rule probes the full
# (growing) ``tc`` relation with a fully bound key every iteration.
from tc_workload import tc_cycle_program, tc_fixpoint_facts


@pytest.mark.parametrize("store", ["memory", "sqlite"])
def test_tc_fixpoint_builds_each_index_exactly_once(store):
    """No index rebuilds inside the fixpoint loop.

    Every ``(relation, positions)`` index is constructed exactly once and
    maintained incrementally afterwards, so the store's build counter must
    equal its index count after the whole fixpoint has run.
    """
    from repro.engines.datalog import DatalogEngine

    # The compiled executor probes store indexes; the columnar one builds none.
    engine = DatalogEngine(
        tc_cycle_program(), tc_fixpoint_facts(), store=store, executor="compiled"
    )
    engine.run()
    assert engine.fact_count("cyclic") > 0  # the audit is not vacuous
    assert engine.store.index_count > 0
    assert engine.store.index_build_count == engine.store.index_count


def test_same_generation_datalog_vs_sqlite(benchmark, graph_raqlet):
    """The classic same-generation program, written directly in Datalog."""
    from repro.engines.datalog import evaluate_program
    from repro.engines.sqlite_exec import run_sql_on_sqlite
    from repro.optimize.linearize import LinearizeRecursion

    program_text = """
    .decl parent(child:number, par:number)
    .decl sg(a:number, b:number)
    sg(x, y) :- parent(x, p), parent(y, p), x != y.
    sg(x, y) :- parent(x, px), sg(px, py), parent(y, py).
    .output sg
    """
    compiled = graph_raqlet.compile_datalog(program_text, optimize=False)
    rng = random.Random(7)
    parent_facts = []
    # A shallow forest: 3 roots, branching factor ~3, depth ~4.
    next_id = 3
    frontier = [0, 1, 2]
    for _depth in range(4):
        new_frontier = []
        for parent in frontier:
            for _ in range(rng.randrange(2, 4)):
                parent_facts.append((next_id, parent))
                new_frontier.append(next_id)
                next_id += 1
        frontier = new_frontier
    facts = {"parent": parent_facts}

    program = compiled.program(optimized=False)
    datalog_result = benchmark(lambda: evaluate_program(program, facts, relation="sg"))

    linearized = LinearizeRecursion().run(program)
    from repro.backends import sqir_to_sql
    from repro.sqir import translate_dlir_to_sqir

    sql = sqir_to_sql(translate_dlir_to_sqir(linearized, output="sg"), dialect="sqlite")
    sqlite_result = run_sql_on_sqlite(program.schema, facts, sql)
    assert datalog_result.same_rows(sqlite_result)
    benchmark.extra_info["sg_pairs"] = len(datalog_result)
