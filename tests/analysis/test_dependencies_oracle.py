"""The dependency graph's SCC and condensation orders, checked against networkx.

``build_dependency_graph`` computes components with its own iterative Tarjan
search and orders them with a Kahn walk.  The order matters beyond
correctness: SQL CTEs and optimiser passes follow it, so emitted text
depends on it.  networkx (a test-only dependency) serves as the oracle for
both the components and their yield order on random digraphs, self-loops
and isolated relations included.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.dependencies import build_dependency_graph
from repro.dlir.builder import ProgramBuilder

nx = pytest.importorskip("networkx")


@st.composite
def _digraphs(draw):
    size = draw(st.integers(min_value=1, max_value=9))
    node = st.integers(min_value=0, max_value=size - 1)
    edges = draw(st.lists(st.tuples(node, node), max_size=24))
    return size, edges


def _program(size, edges):
    builder = ProgramBuilder()
    for index in range(size):
        builder.idb(f"r{index}", [("a", "number")])
    for source, target in edges:
        builder.rule(f"r{target}", ["x"], [(f"r{source}", ["x"])])
    return builder.build()


@given(_digraphs())
@settings(max_examples=200, deadline=None)
def test_components_and_orders_match_networkx(digraph):
    program = _program(*digraph)
    graph = build_dependency_graph(program)

    oracle = nx.DiGraph()
    oracle.add_nodes_from(program.relation_names())
    for rule in program.rules:
        for atom in rule.body_atoms():
            oracle.add_edge(atom.relation, rule.head.relation)

    sccs = [frozenset(component) for component in nx.strongly_connected_components(oracle)]
    assert graph.sccs == sccs
    condensed = nx.condensation(oracle, scc=[set(component) for component in sccs])
    assert graph.condensation_order() == [
        frozenset(condensed.nodes[index]["members"])
        for index in nx.topological_sort(condensed)
    ]
    for relation in oracle:
        component = graph.scc_of[relation]
        assert graph.is_recursive(relation) == (
            len(component) > 1 or oracle.has_edge(relation, relation)
        )
