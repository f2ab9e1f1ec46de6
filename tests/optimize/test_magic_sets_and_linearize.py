"""Tests for the magic-set transformation and linearization."""

from repro.dlir.builder import ProgramBuilder
from repro.engines.datalog import DatalogEngine, evaluate_program
from repro.optimize import (
    ConstantPropagation,
    DeadRuleElimination,
    InlineRules,
    PassManager,
)
from repro.optimize.linearize import LinearizeRecursion
from repro.optimize.magic_sets import MagicSets


def _bound_tc_program():
    """TC queried from a single source constant."""
    builder = ProgramBuilder()
    builder.edb("edge", [("a", "number"), ("b", "number")])
    builder.idb("tc", [("a", "number"), ("b", "number")])
    builder.idb("query", [("b", "number")])
    builder.rule("tc", ["x", "y"], [("edge", ["x", "y"])])
    builder.rule("tc", ["x", "y"], [("tc", ["x", "z"]), ("edge", ["z", "y"])])
    builder.rule("query", ["y"], [("tc", [0, "y"])])
    builder.output("query")
    return builder.build()


def _chain_facts(length=50):
    return {"edge": [(i, i + 1) for i in range(length)]}


def test_magic_sets_adds_magic_predicate_and_guards():
    program = MagicSets().run(_bound_tc_program())
    assert "Magic_tc" in program.schema
    seeds = [rule for rule in program.rules_for("Magic_tc") if rule.is_fact()]
    assert len(seeds) == 1
    for rule in program.rules_for("tc"):
        assert rule.body_relations()[0] == "Magic_tc"


def test_magic_sets_preserves_query_results():
    original = _bound_tc_program()
    transformed = MagicSets().run(original)
    facts = _chain_facts()
    result_original = evaluate_program(original, facts, relation="query")
    result_transformed = evaluate_program(transformed, facts, relation="query")
    assert result_original.same_rows(result_transformed)
    assert len(result_original) == 50


def test_magic_sets_reduces_derived_facts():
    facts = {"edge": [(i, i + 1) for i in range(30)] + [(100 + i, 101 + i) for i in range(30)]}
    original = _bound_tc_program()
    transformed = MagicSets().run(original)
    engine_full = DatalogEngine(original, facts)
    engine_magic = DatalogEngine(transformed, facts)
    engine_full.run()
    engine_magic.run()
    # Magic sets restricts tc to the reachable side of the query constant.
    assert engine_magic.fact_count("tc") < engine_full.fact_count("tc")
    assert engine_magic.query("query").same_rows(engine_full.query("query"))


def test_magic_sets_emits_no_tautology():
    """``tc(x, y) :- tc(x, z), edge(z, y)`` passes the bound ``x`` straight
    through; its magic rule would be ``Magic_tc(x) :- Magic_tc(x).``"""
    program = MagicSets().run(_bound_tc_program())
    for rule in program.rules:
        assert rule.body != (rule.head,), f"tautological rule {rule}"
    assert not any(
        rule.head.relation == "Magic_tc" and not rule.is_fact()
        for rule in program.rules
    )


def test_magic_sets_skips_predicate_already_specialised_to_its_call():
    """Once inlining folds the magic seed into the heads (``tc(0, y)``),
    a second transformation would add a guard that filters nothing."""
    builder = ProgramBuilder()
    builder.edb("edge", [("a", "number"), ("b", "number")])
    builder.idb("tc", [("a", "number"), ("b", "number")])
    builder.idb("query", [("b", "number")])
    builder.rule("tc", [0, "y"], [("edge", [0, "y"])])
    builder.rule("tc", [0, "y"], [("tc", [0, "z"]), ("edge", ["z", "y"])])
    builder.rule("query", ["y"], [("tc", [0, "y"])])
    builder.output("query")
    program = builder.build()
    assert MagicSets().run(program) is program


def test_optimised_bound_tc_reaches_a_fixpoint():
    """Without the tautology the magic seed is inlined; the pipeline must
    then settle on the specialised program, not re-apply magic sets."""
    manager = PassManager(
        [ConstantPropagation(), InlineRules(), MagicSets(), DeadRuleElimination()],
        iterate=True,
    )
    program = manager.run(_bound_tc_program())
    assert not manager.trace.applications[-1].changed
    assert "Magic_tc" not in {rule.head.relation for rule in program.rules}
    assert evaluate_program(program, _chain_facts(), relation="query").same_rows(
        evaluate_program(_bound_tc_program(), _chain_facts(), relation="query")
    )


def test_magic_sets_skips_unbound_call_sites():
    builder = ProgramBuilder()
    builder.edb("edge", [("a", "number"), ("b", "number")])
    builder.idb("tc", [("a", "number"), ("b", "number")])
    builder.idb("query", [("a", "number"), ("b", "number")])
    builder.rule("tc", ["x", "y"], [("edge", ["x", "y"])])
    builder.rule("tc", ["x", "y"], [("tc", ["x", "z"]), ("edge", ["z", "y"])])
    builder.rule("query", ["x", "y"], [("tc", ["x", "y"])])
    builder.output("query")
    program = builder.build()
    assert MagicSets().run(program) is program


def test_magic_sets_skips_call_bound_after_it_runs():
    """In ``tc(x, y) :- tc(z, y), edge(x, z)`` the call's bound ``z`` is
    only bound after the call, so no magic rule can pass its demand on;
    guarding the rule would drop ``tc(0, 2)`` and ``tc(0, 3)``."""
    builder = ProgramBuilder()
    builder.edb("edge", [("a", "number"), ("b", "number")])
    builder.idb("tc", [("a", "number"), ("b", "number")])
    builder.idb("query", [("b", "number")])
    builder.rule("tc", ["x", "y"], [("edge", ["x", "y"])])
    builder.rule("tc", ["x", "y"], [("tc", ["z", "y"]), ("edge", ["x", "z"])])
    builder.rule("query", ["y"], [("tc", [0, "y"])])
    builder.output("query")
    program = builder.build()
    transformed = MagicSets().run(program)
    facts = {"edge": [(0, 1), (1, 2), (2, 3)]}
    assert evaluate_program(transformed, facts, relation="query").same_rows(
        evaluate_program(program, facts, relation="query")
    )


def test_magic_sets_skips_mutual_recursion():
    builder = ProgramBuilder()
    builder.edb("edge", [("a", "number"), ("b", "number")])
    builder.idb("even", [("a", "number"), ("b", "number")])
    builder.idb("odd", [("a", "number"), ("b", "number")])
    builder.idb("query", [("b", "number")])
    builder.rule("odd", ["x", "y"], [("edge", ["x", "y"])])
    builder.rule("even", ["x", "y"], [("odd", ["x", "z"]), ("edge", ["z", "y"])])
    builder.rule("odd", ["x", "y"], [("even", ["x", "z"]), ("edge", ["z", "y"])])
    builder.rule("query", ["y"], [("even", [0, "y"])])
    builder.output("query")
    program = builder.build()
    transformed = MagicSets().run(program)
    assert "Magic_even" not in transformed.schema


def test_magic_sets_second_argument_bound():
    builder = ProgramBuilder()
    builder.edb("edge", [("a", "number"), ("b", "number")])
    builder.idb("tc", [("a", "number"), ("b", "number")])
    builder.idb("query", [("a", "number")])
    builder.rule("tc", ["x", "y"], [("edge", ["x", "y"])])
    builder.rule("tc", ["x", "y"], [("edge", ["x", "z"]), ("tc", ["z", "y"])])
    builder.rule("query", ["x"], [("tc", ["x", 25])])
    builder.output("query")
    program = builder.build()
    transformed = MagicSets().run(program)
    facts = _chain_facts()
    assert "Magic_tc" in transformed.schema
    assert evaluate_program(program, facts, relation="query").same_rows(
        evaluate_program(transformed, facts, relation="query")
    )


def test_linearize_rewrites_chain_rule():
    builder = ProgramBuilder()
    builder.edb("edge", [("a", "number"), ("b", "number")])
    builder.idb("tc", [("a", "number"), ("b", "number")])
    builder.idb("out", [("a", "number"), ("b", "number")])
    builder.rule("tc", ["x", "y"], [("edge", ["x", "y"])])
    builder.rule("tc", ["x", "y"], [("tc", ["x", "z"]), ("tc", ["z", "y"])])
    builder.rule("out", ["x", "y"], [("tc", ["x", "y"])])
    builder.output("out")
    program = LinearizeRecursion().run(builder.build())
    recursive_rules = [
        rule for rule in program.rules_for("tc") if "tc" in rule.body_relations()
    ]
    assert len(recursive_rules) == 1
    assert recursive_rules[0].body_relations().count("tc") == 1


def test_linearize_preserves_semantics():
    builder = ProgramBuilder()
    builder.edb("edge", [("a", "number"), ("b", "number")])
    builder.idb("tc", [("a", "number"), ("b", "number")])
    builder.rule("tc", ["x", "y"], [("edge", ["x", "y"])])
    builder.rule("tc", ["x", "y"], [("tc", ["x", "z"]), ("tc", ["z", "y"])])
    builder.output("tc")
    original = builder.build()
    linearized = LinearizeRecursion().run(original)
    facts = {"edge": [(1, 2), (2, 3), (3, 4), (4, 2), (5, 6)]}
    assert evaluate_program(original, facts, relation="tc").same_rows(
        evaluate_program(linearized, facts, relation="tc")
    )


def test_linearize_leaves_linear_rules_alone():
    builder = ProgramBuilder()
    builder.edb("edge", [("a", "number"), ("b", "number")])
    builder.idb("tc", [("a", "number"), ("b", "number")])
    builder.rule("tc", ["x", "y"], [("edge", ["x", "y"])])
    builder.rule("tc", ["x", "y"], [("tc", ["x", "z"]), ("edge", ["z", "y"])])
    builder.output("tc")
    program = builder.build()
    assert LinearizeRecursion().run(program) is program


def test_linearize_makes_program_sql_translatable():
    from repro.sqir import translate_dlir_to_sqir

    builder = ProgramBuilder()
    builder.edb("edge", [("a", "number"), ("b", "number")])
    builder.idb("tc", [("a", "number"), ("b", "number")])
    builder.rule("tc", ["x", "y"], [("edge", ["x", "y"])])
    builder.rule("tc", ["x", "y"], [("tc", ["x", "z"]), ("tc", ["z", "y"])])
    builder.output("tc")
    program = builder.build()
    linearized = LinearizeRecursion().run(program)
    sqir = translate_dlir_to_sqir(linearized)
    assert sqir.cte("tc").is_recursive
