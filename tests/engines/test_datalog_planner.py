"""Tests for compiled rule plans: structure, and equivalence with a naive oracle.

Two layers of checks:

* ``rule_solutions`` driven by compiled plans must produce exactly the same
  bindings as a brute-force reference evaluator (cartesian product over the
  body atoms, seed-style comparison fixpoint and existential negation at the
  end) across a battery of rule shapes;
* whole programs — the repository's example programs among them — must
  produce identical results on the default engine and on the reference
  plan interpreter.
"""

import pytest

from repro import Raqlet
from repro.common.errors import ExecutionError
from repro.dlir.builder import ProgramBuilder
from repro.dlir.core import (
    ArithExpr,
    Atom,
    Comparison,
    Const,
    NegatedAtom,
    Rule,
    Var,
    Wildcard,
)
from repro.common.semantics import compare
from repro.engines.datalog import planner
from repro.engines.datalog import (
    DatalogEngine,
    FactStore,
    InterpretedExecutor,
    PlanCache,
    RelationStats,
    plan_rule,
)
from repro.engines.datalog.evaluation import evaluate_term, rule_solutions

evaluate_rule = InterpretedExecutor().evaluate_rule

# ---------------------------------------------------------------------------
# Brute-force reference evaluator (the seed semantics, without any indexes)
# ---------------------------------------------------------------------------


def _reference_extend(atom, row, bindings):
    new_bindings = dict(bindings)
    for index, term in enumerate(atom.terms):
        if isinstance(term, Wildcard):
            continue
        if isinstance(term, Const):
            if row[index] != term.value:
                return None
        elif isinstance(term, Var):
            existing = new_bindings.get(term.name, _MISSING)
            if existing is _MISSING:
                new_bindings[term.name] = row[index]
            elif existing != row[index]:
                return None
        else:
            raise ExecutionError(f"unexpected term {term!r}")
    return new_bindings


_MISSING = object()


def reference_solutions(rule, store, delta_index=None, delta_rows=None):
    """Cartesian-product evaluation with end-of-body checks (the oracle)."""
    atoms = [
        (index, literal)
        for index, literal in enumerate(rule.body)
        if isinstance(literal, Atom)
    ]
    solutions = []

    def finish(bindings):
        bindings = dict(bindings)
        pending = list(rule.comparisons())
        progress = True
        while progress:
            progress = False
            remaining = []
            for comparison in pending:
                left_bound = all(
                    name in bindings for name in _term_vars(comparison.left)
                )
                right_bound = all(
                    name in bindings for name in _term_vars(comparison.right)
                )
                if left_bound and right_bound:
                    if not compare(
                        comparison.op,
                        evaluate_term(comparison.left, bindings),
                        evaluate_term(comparison.right, bindings),
                    ):
                        return
                    progress = True
                elif (
                    comparison.op == "="
                    and left_bound
                    and isinstance(comparison.right, Var)
                ):
                    bindings[comparison.right.name] = evaluate_term(
                        comparison.left, bindings
                    )
                    progress = True
                elif (
                    comparison.op == "="
                    and right_bound
                    and isinstance(comparison.left, Var)
                ):
                    bindings[comparison.left.name] = evaluate_term(
                        comparison.right, bindings
                    )
                    progress = True
                else:
                    remaining.append(comparison)
            pending = remaining
        if pending:
            raise ExecutionError(f"rule {rule} has comparisons over unbound variables")
        for negated in rule.negated_atoms():
            atom = negated.atom
            positions, key = [], []
            for index, term in enumerate(atom.terms):
                if isinstance(term, Wildcard):
                    continue
                if isinstance(term, Var) and term.name not in bindings:
                    continue
                positions.append(index)
                key.append(evaluate_term(term, bindings))
            matches = [
                row
                for row in store.scan(atom.relation)
                if tuple(row[i] for i in positions) == tuple(key)
            ]
            if matches:
                return
        solutions.append(bindings)

    def recurse(position, bindings):
        if position == len(atoms):
            finish(bindings)
            return
        body_index, atom = atoms[position]
        rows = (
            list(delta_rows)
            if body_index == delta_index and delta_rows is not None
            else store.scan(atom.relation)
        )
        for row in rows:
            extended = _reference_extend(atom, row, bindings)
            if extended is not None:
                recurse(position + 1, extended)

    recurse(0, {})
    return solutions


def _term_vars(term):
    from repro.dlir.core import term_variables

    return list(term_variables(term))


def _as_binding_set(solutions):
    return {frozenset(bindings.items()) for bindings in solutions}


def assert_same_solutions(rule, store, delta_index=None, delta_rows=None):
    planned = _as_binding_set(
        rule_solutions(rule, store, delta_index=delta_index, delta_rows=delta_rows)
    )
    reference = _as_binding_set(
        reference_solutions(rule, store, delta_index=delta_index, delta_rows=delta_rows)
    )
    assert planned == reference


# ---------------------------------------------------------------------------
# Rule-level equivalence battery
# ---------------------------------------------------------------------------


@pytest.fixture()
def store():
    store = FactStore()
    store.add_many("edge", [(1, 2), (2, 3), (3, 4), (2, 4), (4, 1)])
    store.add_many("node", [(i,) for i in range(1, 6)])
    store.add_many("label", [(1, "a"), (2, "b"), (4, "a")])
    store.add_many("triple", [(1, 1, 5), (1, 2, 6), (2, 2, 7)])
    return store


def _rule(head, body, **kwargs):
    return Rule(head=head, body=tuple(body), **kwargs)


def test_plain_join_matches_reference(store):
    rule = _rule(
        Atom("path", (Var("x"), Var("z"))),
        [Atom("edge", (Var("x"), Var("y"))), Atom("edge", (Var("y"), Var("z")))],
    )
    assert_same_solutions(rule, store)


def test_constants_repeated_vars_and_wildcards(store):
    rule = _rule(
        Atom("q", (Var("x"),)),
        [
            Atom("triple", (Var("x"), Var("x"), Wildcard())),
            Atom("edge", (Const(1), Var("x"))),
        ],
    )
    assert_same_solutions(rule, store)


def test_comparison_filters_and_assignment_chain(store):
    rule = _rule(
        Atom("q", (Var("x"), Var("lab"), Var("nxt"))),
        [
            Atom("edge", (Var("x"), Var("y"))),
            Comparison("=", Var("lab"), Const(7)),
            Comparison("=", Var("nxt"), ArithExpr("+", Var("y"), Const(1))),
            Comparison("<", Var("x"), Const(3)),
        ],
    )
    assert_same_solutions(rule, store)


def test_negation_with_existential_variable(store):
    # "nodes with no outgoing edge": y is existential inside the negation.
    rule = _rule(
        Atom("sink", (Var("n"),)),
        [
            Atom("node", (Var("n"),)),
            NegatedAtom(Atom("edge", (Var("n"), Var("y")))),
        ],
    )
    assert_same_solutions(rule, store)


def test_negation_over_late_bound_variable(store):
    rule = _rule(
        Atom("q", (Var("x"), Var("z"))),
        [
            Atom("edge", (Var("x"), Var("y"))),
            Atom("edge", (Var("y"), Var("z"))),
            NegatedAtom(Atom("edge", (Var("x"), Var("z")))),
        ],
    )
    assert_same_solutions(rule, store)


def test_delta_restricted_evaluation_matches_reference(store):
    rule = _rule(
        Atom("path", (Var("x"), Var("z"))),
        [Atom("path", (Var("x"), Var("y"))), Atom("edge", (Var("y"), Var("z")))],
    )
    store.add_many("path", [(1, 2), (2, 3), (1, 3)])
    delta = [(1, 3), (2, 3)]
    assert_same_solutions(rule, store, delta_index=0, delta_rows=delta)


def test_unsafe_rule_raises_in_both(store):
    rule = _rule(
        Atom("q", (Var("x"), Var("w"))),
        [Atom("node", (Var("x"),)), Comparison("<", Var("w"), Const(3))],
    )
    with pytest.raises(ExecutionError):
        list(rule_solutions(rule, store))
    with pytest.raises(ExecutionError):
        reference_solutions(rule, store)


def test_evaluate_rule_heads_match_reference(store):
    rule = _rule(
        Atom("q", (Var("y"), ArithExpr("*", Var("x"), Const(10)))),
        [Atom("edge", (Var("x"), Var("y")))],
    )
    derived = evaluate_rule(rule, store)
    expected = {
        (bindings["y"], bindings["x"] * 10)
        for bindings in reference_solutions(rule, store)
    }
    assert derived == expected


# ---------------------------------------------------------------------------
# Plan structure
# ---------------------------------------------------------------------------


def test_plan_puts_delta_atom_first(store):
    rule = _rule(
        Atom("path", (Var("x"), Var("z"))),
        [Atom("edge", (Var("x"), Var("y"))), Atom("path", (Var("y"), Var("z")))],
    )
    plan = plan_rule(rule, store, delta_index=1, delta_size=4)
    assert plan.steps[0].body_index == 1
    # The edge atom then has its join column bound by the delta bindings.
    assert plan.steps[1].key_positions == (1,)


def test_plan_schedules_checks_at_earliest_step(store):
    rule = _rule(
        Atom("q", (Var("x"), Var("z"))),
        [
            Atom("edge", (Var("x"), Var("y"))),
            Atom("edge", (Var("y"), Var("z"))),
            Comparison("<", Var("x"), Const(3)),
        ],
    )
    plan = plan_rule(rule, store)
    first = next(step for step in plan.steps if "x" in dict(step.bind_positions).values())
    assert any(op[0] == "check" for op in first.guard.ops)
    assert not plan.unresolved


def test_plan_compiles_negation_probe(store):
    rule = _rule(
        Atom("sink", (Var("n"),)),
        [
            Atom("node", (Var("n"),)),
            NegatedAtom(Atom("edge", (Var("n"), Var("y")))),
        ],
    )
    plan = plan_rule(rule, store)
    negations = [
        negation for step in plan.steps for negation in step.guard.negations
    ]
    assert len(negations) == 1
    # y is existential, so the probe keys only on the first column.
    assert negations[0].positions == (0,)


def test_mismatched_delta_plan_is_rejected(store):
    rule = _rule(
        Atom("path", (Var("x"), Var("z"))),
        [Atom("path", (Var("x"), Var("y"))), Atom("edge", (Var("y"), Var("z")))],
    )
    store.add_many("path", [(1, 2)])
    plan = plan_rule(rule, store, delta_index=0, delta_size=1)
    with pytest.raises(ExecutionError):
        list(rule_solutions(rule, store, delta_index=1, delta_rows=[(1, 2)], plan=plan))
    # ... but a delta-variant plan is a valid full plan when no delta is given.
    assert _as_binding_set(rule_solutions(rule, store, plan=plan)) == _as_binding_set(
        reference_solutions(rule, store)
    )


def test_plan_cache_reuses_plans(store):
    rule = _rule(
        Atom("q", (Var("x"),)),
        [Atom("node", (Var("x"),))],
    )
    cache = PlanCache()
    first = cache.plan_for(rule, store)
    second = cache.plan_for(rule, store)
    assert first is second
    delta_variant = cache.plan_for(rule, store, delta_index=0, delta_size=1)
    assert delta_variant is not first
    assert len(cache) == 2


# ---------------------------------------------------------------------------
# Cost-based ordering and adaptive re-planning
# ---------------------------------------------------------------------------


def test_cost_model_orders_by_fanout_not_size(store):
    # After the delta binds n, `wide` (500 rows over 5 keys -> fan-out 100)
    # must come after `narrow` (2000 rows over 2000 keys -> fan-out 1), even
    # though `wide` is the *smaller* relation — exactly the case the greedy
    # size heuristic gets backwards.
    rule = _rule(
        Atom("q", (Var("n"), Var("a"), Var("b"))),
        [
            Atom("seed", (Var("n"),)),
            Atom("wide", (Var("n"), Var("a"))),
            Atom("narrow", (Var("n"), Var("b"))),
        ],
    )
    stats = {
        "seed": RelationStats(1, (1,)),
        "wide": RelationStats(500, (5, 500)),
        "narrow": RelationStats(2000, (2000, 2000)),
    }
    costed = plan_rule(rule, store, delta_index=0, delta_size=1, stats=stats)
    assert [step.relation for step in costed.steps] == ["seed", "narrow", "wide"]
    assert costed.stats_basis == (("narrow", 2000), ("seed", 1), ("wide", 500))
    assert costed.step_fanouts == (1.0, 1.0, 100.0)
    # Greedy fallback (no stats): smaller relation first, no basis recorded.
    greedy = plan_rule(rule, store, delta_index=0, delta_size=1)
    assert greedy.stats_basis is None
    assert greedy.step_fanouts is None


def test_cost_model_prefers_filtering_atom_over_grown_relation(store):
    # An unbound small filter beats scanning a grown relation: with `big` at
    # 10k rows, the 40-row `filt` should be enumerated first even though it
    # shares no variable with the delta.
    rule = _rule(
        Atom("q", (Var("x"), Var("y"))),
        [
            Atom("d", (Var("n"),)),
            Atom("big", (Var("x"), Var("y"))),
            Atom("filt", (Var("x"),)),
        ],
    )
    stats = {
        "d": RelationStats(1, (1,)),
        "big": RelationStats(10_000, (100, 10_000)),
        "filt": RelationStats(40, (40,)),
    }
    plan = plan_rule(rule, store, delta_index=0, delta_size=1, stats=stats)
    order = [step.relation for step in plan.steps]
    assert order == ["d", "filt", "big"]
    # ... and big is then probed on its bound x column.
    assert plan.steps[2].key_positions == (0,)


def test_plan_cache_replans_on_drift(store):
    rule = _rule(
        Atom("tc", (Var("x"), Var("y"))),
        [Atom("tc", (Var("x"), Var("z"))), Atom("edge", (Var("z"), Var("y")))],
    )
    cache = PlanCache()  # the default threshold, 10x
    small = {"tc": RelationStats(2, (2, 2)), "edge": RelationStats(5, (4, 4))}
    first = cache.plan_for(rule, store, delta_index=0, delta_size=2, stats=small)
    assert cache.replan_count == 0 and cache.stats_epoch == 0
    # Under 10x drift: the cached plan object is returned untouched.
    drifted_a_bit = {
        "tc": RelationStats(15, (5, 5)),
        "edge": RelationStats(5, (4, 4)),
    }
    assert (
        cache.plan_for(rule, store, delta_index=0, delta_size=4, stats=drifted_a_bit)
        is first
    )
    # Past 10x: a new plan object, counters advance, epoch stamps the plan.
    grown = {
        "tc": RelationStats(500, (40, 40)),
        "edge": RelationStats(5, (4, 4)),
    }
    replanned = cache.plan_for(
        rule, store, delta_index=0, delta_size=40, stats=grown
    )
    assert replanned is not first
    assert cache.replan_count == 1
    assert cache.stats_epoch == 1
    assert replanned.stats_epoch == 1
    assert dict(replanned.stats_basis)["tc"] == 500
    # Same join structure -> equal by value (the compiled-closure cache key),
    # different provenance.
    assert replanned == first


def test_plan_cache_threshold_modes(store, monkeypatch):
    rule = _rule(Atom("q", (Var("x"),)), [Atom("node", (Var("x"),))])
    stats = {"node": RelationStats(5, (5,))}
    monkeypatch.setattr(planner, "REPLAN_THRESHOLD", float("inf"))
    frozen = PlanCache()
    plan = frozen.plan_for(rule, store, stats=stats)
    grown = {"node": RelationStats(50_000, (50_000,))}
    assert frozen.plan_for(rule, store, stats=grown) is plan
    assert frozen.replan_count == 0
    monkeypatch.setattr(planner, "REPLAN_THRESHOLD", 1.0)
    eager = PlanCache()
    first = eager.plan_for(rule, store, stats=stats)
    second = eager.plan_for(rule, store, stats=stats)  # zero drift still fires
    assert second is not first
    assert eager.replan_count == 1
    # Plans without a basis (greedy fallback) never drift.
    lazy = PlanCache()
    greedy = lazy.plan_for(rule, store)
    assert lazy.plan_for(rule, store, stats=stats) is greedy
    assert lazy.replan_count == 0


def test_replanned_join_orders_agree_on_results(store):
    # The same rule evaluated under wildly wrong statistics must still
    # produce the reference solutions — stats steer cost, never semantics.
    rule = _rule(
        Atom("path", (Var("x"), Var("z"))),
        [Atom("edge", (Var("x"), Var("y"))), Atom("edge", (Var("y"), Var("z")))],
    )
    for stats in (
        None,
        {"edge": RelationStats(5, (4, 4))},
        {"edge": RelationStats(1_000_000, (1, 1))},
    ):
        plan = plan_rule(rule, store, stats=stats)
        planned = _as_binding_set(rule_solutions(rule, store, plan=plan))
        assert planned == _as_binding_set(reference_solutions(rule, store))


def test_engine_exposes_replan_counters(monkeypatch):
    builder = ProgramBuilder()
    builder.edb("edge", [("a", "number"), ("b", "number")])
    builder.idb("tc", [("a", "number"), ("b", "number")])
    builder.rule("tc", ["x", "y"], [("edge", ["x", "y"])])
    builder.rule("tc", ["x", "y"], [("tc", ["x", "z"]), ("edge", ["z", "y"])])
    builder.output("tc")
    facts = {"edge": [(i, i + 1) for i in range(40)]}
    monkeypatch.setattr(planner, "REPLAN_THRESHOLD", 1.0)
    eager = DatalogEngine(builder.build(), facts)
    eager.run()
    assert eager.replan_count > 0
    assert eager.stats_epoch == eager.replan_count
    assert eager.plan_build_count > eager.replan_count  # first builds too
    assert eager.stats_snapshot_count > 0
    report = eager.plan_report()
    assert any(entry["delta_index"] == 0 for entry in report)
    text = eager.explain()
    assert "replans=" in text and "est_fanout=" in text
    monkeypatch.setattr(planner, "REPLAN_THRESHOLD", float("inf"))
    frozen = DatalogEngine(builder.build(), facts)
    frozen.run()
    assert frozen.replan_count == 0
    assert frozen.query("tc").same_rows(eager.query("tc"))


# ---------------------------------------------------------------------------
# Whole-program equivalence of the default engine and the reference
# interpreter (example programs)
# ---------------------------------------------------------------------------

QUICKSTART_SCHEMA = """
CREATE GRAPH {
  (personType : Person { id INT, firstName STRING, locationIP STRING }),
  (cityType : City { id INT, name STRING }),
  (:personType)-[locationType : isLocatedIn { id INT }]->(:cityType)
}
"""

QUICKSTART_QUERY = """
MATCH (n:Person {id: 42})-[:IS_LOCATED_IN]->(p:City)
RETURN DISTINCT n.firstName AS firstName, p.id AS cityId
"""

QUICKSTART_FACTS = {
    "Person": [(42, "Ada", "10.0.0.1"), (43, "Alan", "10.0.0.2")],
    "City": [(1, "Edinburgh"), (2, "Lausanne")],
    "Person_IS_LOCATED_IN_City": [(42, 1, 900), (43, 2, 901)],
}

GRAPH_SCHEMA = """
CREATE GRAPH {
  (nodeType : Node { id INT, name STRING }),
  (:nodeType)-[linkType : linksTo { id INT }]->(:nodeType)
}
"""

GRAPH_FACTS = {
    "Node": [(i, f"n{i}") for i in range(8)],
    "Node_LINKS_TO_Node": [
        (0, 1, 100), (1, 2, 101), (2, 3, 102), (3, 4, 103),
        (4, 0, 104), (2, 5, 105), (5, 6, 106), (6, 7, 107),
    ],
}

POINTS_TO_PROGRAM = """
.decl NewObject(v:number, o:number)
.decl Assign(src:number, dst:number)
.decl PointsTo(v:number, o:number)

PointsTo(v, o) :- NewObject(v, o).
PointsTo(dst, o) :- Assign(src, dst), PointsTo(src, o).

.output PointsTo
"""

POINTS_TO_FACTS = {
    "NewObject": [(0, 0), (1, 1), (5, 2)],
    "Assign": [(0, 2), (2, 3), (3, 0), (1, 3), (5, 4)],
}


def _assert_modes_agree(program, facts, relations=None):
    current = DatalogEngine(program, facts)
    reference = DatalogEngine(program, facts, executor="interpreted")
    relations = relations or program.outputs
    for relation in relations:
        assert current.query(relation).same_rows(reference.query(relation))


def test_example_quickstart_agrees_across_modes():
    raqlet = Raqlet(QUICKSTART_SCHEMA)
    compiled = raqlet.compile_cypher(QUICKSTART_QUERY)
    for optimized in (False, True):
        _assert_modes_agree(compiled.program(optimized), QUICKSTART_FACTS)


def test_example_reachability_agrees_across_modes():
    raqlet = Raqlet(GRAPH_SCHEMA)
    compiled = raqlet.compile_cypher(
        "MATCH (a:Node {id: 0})-[:LINKS_TO*]->(b:Node) RETURN b.id AS target"
    )
    for optimized in (False, True):
        _assert_modes_agree(compiled.program(optimized), GRAPH_FACTS)


def test_example_shortest_path_agrees_across_modes():
    raqlet = Raqlet(GRAPH_SCHEMA)
    compiled = raqlet.compile_cypher(
        "MATCH p = shortestPath((a:Node {id: 0})-[:LINKS_TO*]->(b:Node {id: 7})) "
        "RETURN length(p) AS hops"
    )
    _assert_modes_agree(compiled.program(True), GRAPH_FACTS)


def test_example_points_to_agrees_across_modes():
    raqlet = Raqlet(QUICKSTART_SCHEMA)
    compiled = raqlet.compile_datalog(POINTS_TO_PROGRAM)
    for optimized in (False, True):
        _assert_modes_agree(compiled.program(optimized), POINTS_TO_FACTS)


def test_negation_and_aggregation_agree_across_modes():
    builder = ProgramBuilder()
    builder.edb("node", [("id", "number")])
    builder.edb("edge", [("a", "number"), ("b", "number")])
    builder.idb("reach", [("b", "number")])
    builder.idb("unreached", [("id", "number")])
    builder.idb("outdeg", [("a", "number"), ("n", "number")])
    builder.rule("reach", ["y"], [("edge", [0, "y"])])
    builder.rule("reach", ["y"], [("reach", ["x"]), ("edge", ["x", "y"])])
    builder.rule("unreached", ["n"], [("node", ["n"])], negated=[("reach", ["n"])])
    from repro.dlir.core import Aggregation

    builder.rule(
        "outdeg", ["a", "n"],
        [("edge", ["a", "b"])],
        aggregations=[Aggregation("count", Var("n"), Var("b"))],
    )
    builder.output("unreached")
    builder.output("outdeg")
    facts = {
        "node": [(i,) for i in range(6)],
        "edge": [(0, 1), (1, 2), (2, 0), (4, 5), (0, 3)],
    }
    _assert_modes_agree(builder.build(), facts)
