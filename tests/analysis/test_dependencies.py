"""Tests for the predicate dependency graph."""

from repro.analysis.dependencies import build_dependency_graph
from repro.dlir.builder import ProgramBuilder


def _tc_program():
    builder = ProgramBuilder()
    builder.edb("edge", [("a", "number"), ("b", "number")])
    builder.idb("tc", [("a", "number"), ("b", "number")])
    builder.rule("tc", ["x", "y"], [("edge", ["x", "y"])])
    builder.rule("tc", ["x", "y"], [("edge", ["x", "z"]), ("tc", ["z", "y"])])
    builder.output("tc")
    return builder.build()


def _mutual_program():
    builder = ProgramBuilder()
    builder.edb("edge", [("a", "number"), ("b", "number")])
    builder.idb("even", [("a", "number"), ("b", "number")])
    builder.idb("odd", [("a", "number"), ("b", "number")])
    builder.rule("odd", ["x", "y"], [("edge", ["x", "y"])])
    builder.rule("even", ["x", "y"], [("odd", ["x", "z"]), ("edge", ["z", "y"])])
    builder.rule("odd", ["x", "y"], [("even", ["x", "z"]), ("edge", ["z", "y"])])
    builder.output("even")
    return builder.build()


def test_edges_point_from_body_to_head():
    graph = build_dependency_graph(_tc_program())
    assert "tc" in graph.graph["edge"]
    assert "tc" in graph.graph["tc"]
    assert "edge" not in graph.graph["tc"]


def test_depends_on_and_dependents():
    graph = build_dependency_graph(_tc_program())
    assert graph.depends_on("tc") == {"edge", "tc"}
    assert graph.dependents_of("edge") == {"tc"}
    assert graph.depends_on("edge") == set()
    assert graph.depends_on("missing") == set()


def test_self_recursion_detected():
    graph = build_dependency_graph(_tc_program())
    assert graph.is_recursive("tc")
    assert not graph.is_recursive("edge")
    components = graph.recursive_components()
    assert components == [frozenset({"tc"})]


def test_mutual_recursion_single_component():
    graph = build_dependency_graph(_mutual_program())
    assert graph.same_component("even", "odd")
    assert graph.is_recursive("even") and graph.is_recursive("odd")
    assert frozenset({"even", "odd"}) in graph.recursive_components()


def test_condensation_order_is_topological():
    graph = build_dependency_graph(_tc_program())
    order = graph.condensation_order()
    positions = {relation: index for index, component in enumerate(order) for relation in component}
    assert positions["edge"] < positions["tc"]


def test_negation_flag_on_edges():
    builder = ProgramBuilder()
    builder.edb("node", [("id", "number")])
    builder.edb("edge", [("a", "number"), ("b", "number")])
    builder.idb("sink", [("id", "number")])
    builder.rule("sink", ["x"], [("node", ["x"])], negated=[("edge", ["x", "_"])])
    builder.output("sink")
    graph = build_dependency_graph(builder.build())
    negated_edges = [edge for edge in graph.edges if edge.negated]
    assert len(negated_edges) == 1
    assert negated_edges[0].source == "edge"
    assert negated_edges[0].target == "sink"


def test_aggregation_flag_on_edges():
    from repro.dlir.core import Aggregation, Var

    builder = ProgramBuilder()
    builder.edb("edge", [("a", "number"), ("b", "number")])
    builder.idb("deg", [("a", "number"), ("c", "number")])
    builder.rule(
        "deg",
        ["x", "c"],
        [("edge", ["x", "y"])],
        aggregations=[Aggregation("count", Var("c"), Var("y"))],
    )
    builder.output("deg")
    graph = build_dependency_graph(builder.build())
    assert any(edge.through_aggregation for edge in graph.edges)
