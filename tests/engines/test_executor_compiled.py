"""Unit tests for the compiled closure executor.

The differential suite (`test_store_differential.py`) proves whole-program
equivalence across executors; these tests pin the executor's own machinery:
closure caching, the interpreter fallback, error-behaviour parity (unsafe
rules, delta mismatch, mixed-type comparisons, division), selection
threading (engine option, ``None`` = compiled), and the batched probe path
on the SQLite store.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.common.errors import ExecutionError
from repro.dlir.builder import ProgramBuilder
from repro.dlir.core import (
    Aggregation,
    ArithExpr,
    Atom,
    Comparison,
    Const,
    NegatedAtom,
    Rule,
    Var,
)
from repro.engines.datalog import (
    CompiledExecutor,
    DatalogEngine,
    FactStore,
    InterpretedExecutor,
    create_executor,
    plan_rule,
)

evaluate_rule = InterpretedExecutor().evaluate_rule


@pytest.fixture()
def store():
    store = FactStore()
    store.add_many("edge", [(1, 2), (2, 3), (3, 4), (2, 4), (4, 1)])
    store.add_many("node", [(i,) for i in range(1, 6)])
    store.add_many("label", [(1, "a"), (2, "b"), (4, "a")])
    return store


def _assert_executors_agree(rule, store, **kwargs):
    compiled = CompiledExecutor().evaluate_rule(rule, store, **kwargs)
    interpreted = evaluate_rule(rule, store, **kwargs)
    assert compiled == interpreted
    return compiled


# -- result equivalence on targeted rule shapes ------------------------------


def test_join_negation_and_guard_agree(store):
    rule = Rule(
        Atom("q", (Var("x"), Var("z"))),
        (
            Atom("edge", (Var("x"), Var("y"))),
            Atom("edge", (Var("y"), Var("z"))),
            NegatedAtom(Atom("edge", (Var("x"), Var("z")))),
            Comparison("<>", Var("x"), Var("z")),
        ),
    )
    derived = _assert_executors_agree(rule, store)
    assert derived  # not vacuous


def test_later_negation_with_raising_key_is_not_batched(store):
    """A later negation whose key uses arithmetic is never evaluated for
    rows an earlier negation rejects: the interpreter rejects (2, 0) at
    ``!a(x)`` and never computes ``10 / y``, and the compiled per-row probes
    must not raise a division-by-zero the interpreter doesn't."""
    store.add_many("p", [(1, 2), (2, 0)])
    store.add_many("a", [(2,)])
    rule = Rule(
        Atom("q", (Var("x"),)),
        (
            Atom("p", (Var("x"), Var("y"))),
            NegatedAtom(Atom("a", (Var("x"),))),
            NegatedAtom(Atom("b", (ArithExpr("/", Const(10), Var("y")),))),
        ),
    )
    derived = _assert_executors_agree(rule, store)
    assert derived == {(1,)}


def test_first_negation_with_raising_key_still_agrees(store):
    """Arithmetic in the *first* negation's key is evaluated for exactly the
    rows that pass the guard ops on both executors — including the raise."""
    store.add_many("p", [(1, 2), (2, 0)])
    rule = Rule(
        Atom("q", (Var("x"),)),
        (
            Atom("p", (Var("x"), Var("y"))),
            NegatedAtom(Atom("b", (ArithExpr("/", Const(10), Var("y")),))),
        ),
    )
    with pytest.raises(ExecutionError):
        CompiledExecutor().evaluate_rule(rule, store)
    with pytest.raises(ExecutionError):
        evaluate_rule(rule, store)


def test_delta_restricted_evaluation_agrees(store):
    rule = Rule(
        Atom("path", (Var("x"), Var("z"))),
        (Atom("path", (Var("x"), Var("y"))), Atom("edge", (Var("y"), Var("z")))),
    )
    store.add_many("path", [(1, 2), (2, 3), (1, 3)])
    plan = plan_rule(rule, store, delta_index=0, delta_size=2)
    delta = [(1, 3), (2, 3)]
    derived = _assert_executors_agree(
        rule, store, delta_index=0, delta_rows=delta, plan=plan
    )
    assert derived
    # The same (delta-variant) plan is also a valid full plan.
    _assert_executors_agree(rule, store, plan=plan)


def test_aggregate_rule_agrees(store):
    rule = Rule(
        Atom("outdeg", (Var("x"), Var("n"))),
        (Atom("edge", (Var("x"), Var("y"))),),
        aggregations=(Aggregation("count", Var("n"), argument=Var("y")),),
    )
    derived = _assert_executors_agree(rule, store)
    assert (2, 2) in derived  # node 2 has two outgoing edges


def test_division_semantics_agree(store):
    rule = Rule(
        Atom("q", (Var("x"), Var("h"))),
        (
            Atom("edge", (Var("x"), Var("y"))),
            Comparison("=", Var("h"), ArithExpr("/", Var("y"), Const(2))),
        ),
    )
    derived = _assert_executors_agree(rule, store)
    assert derived == {(1, 1), (2, 1), (3, 2), (2, 2), (4, 0)}


def test_division_by_zero_raises_execution_error(store):
    rule = Rule(
        Atom("q", (Var("x"),)),
        (
            Atom("node", (Var("x"),)),
            Comparison("=", Var("w"), ArithExpr("/", Var("x"), Const(0))),
        ),
    )
    with pytest.raises(ExecutionError):
        CompiledExecutor().evaluate_rule(rule, store)


def test_non_finite_float_constants_compile(store):
    """``repr(inf)``/``repr(nan)`` are bare names — codegen must not emit them."""
    import math

    inf_rule = Rule(
        Atom("q", (Var("x"),)),
        (
            Atom("node", (Var("x"),)),
            Comparison("<", Var("x"), Const(float("inf"))),
        ),
    )
    derived = _assert_executors_agree(inf_rule, store)
    assert derived == {(i,) for i in range(1, 6)}

    nan_rule = Rule(
        Atom("q", (Var("x"), Const(float("nan")))),
        (Atom("node", (Var("x"),)),),
    )
    compiled = CompiledExecutor().evaluate_rule(nan_rule, store)
    interpreted = evaluate_rule(nan_rule, store)
    # NaN != NaN, so compare structure instead of set equality.
    assert len(compiled) == len(interpreted) == 5
    assert all(math.isnan(row[1]) for row in compiled)


def test_mixed_type_comparison_raises_like_interpreter(store):
    rule = Rule(
        Atom("q", (Var("x"),)),
        (
            Atom("label", (Var("x"), Var("lab"))),
            Comparison("<", Var("lab"), Const(3)),
        ),
    )
    with pytest.raises(ExecutionError, match="cannot compare"):
        CompiledExecutor().evaluate_rule(rule, store)
    with pytest.raises(ExecutionError, match="cannot compare"):
        evaluate_rule(rule, store)


def test_unsafe_rule_raises_only_when_solutions_exist(store):
    rule = Rule(
        Atom("q", (Var("x"), Var("w"))),
        (Atom("node", (Var("x"),)), Comparison("<", Var("w"), Const(3))),
    )
    with pytest.raises(ExecutionError, match="unbound variables"):
        CompiledExecutor().evaluate_rule(rule, store)
    # With no matching rows the unsafe comparison is never reached.
    empty = FactStore()
    assert CompiledExecutor().evaluate_rule(rule, empty) == set()


def test_mismatched_delta_plan_is_rejected(store):
    rule = Rule(
        Atom("path", (Var("x"), Var("z"))),
        (Atom("path", (Var("x"), Var("y"))), Atom("edge", (Var("y"), Var("z")))),
    )
    store.add_many("path", [(1, 2)])
    plan = plan_rule(rule, store, delta_index=0, delta_size=1)
    with pytest.raises(ExecutionError, match="delta position"):
        CompiledExecutor().evaluate_rule(
            rule, store, delta_index=1, delta_rows=[(1, 2)], plan=plan
        )


# -- caching and fallback ----------------------------------------------------


def test_closures_are_cached_per_plan_structure(store):
    rule = Rule(Atom("q", (Var("x"),)), (Atom("node", (Var("x"),)),))
    executor = CompiledExecutor()
    plan = plan_rule(rule, store)
    first = executor.compiled_for(plan)
    assert first is executor.compiled_for(plan)
    # A structurally equal plan built from scratch hits the same cache entry.
    assert first is executor.compiled_for(plan_rule(rule, store))
    # A delta variant is a different plan and compiles separately.
    variant = executor.compiled_for(plan_rule(rule, store, delta_index=0))
    assert variant is not first
    assert executor.fallback_count == 0


def test_uncompilable_plan_falls_back_to_the_interpreter(store):
    rule = Rule(
        Atom("path", (Var("x"), Var("z"))),
        (Atom("path", (Var("x"), Var("y"))), Atom("edge", (Var("y"), Var("z")))),
    )
    store.add_many("path", [(1, 2), (2, 3)])
    plan = plan_rule(rule, store)
    # A delta position no step carries: the generator refuses (the planner
    # never produces this), and evaluation must fall back to the interpreter.
    broken = dataclasses.replace(plan, delta_index=7)
    executor = CompiledExecutor()
    assert executor.compiled_for(broken) is None
    assert executor.fallback_count == 1
    derived = executor.evaluate_rule(rule, store, plan=broken)
    assert derived == evaluate_rule(rule, store, plan=broken)
    # The failure is cached: evaluating again does not recount.
    executor.evaluate_rule(rule, store, plan=broken)
    assert executor.fallback_count == 1


# -- selection threading -----------------------------------------------------


def test_create_executor_resolution():
    assert create_executor("interpreted").name == "interpreted"
    assert create_executor("compiled").name == "compiled"
    existing = CompiledExecutor()
    assert create_executor(existing) is existing
    assert create_executor(None).name == "compiled"
    with pytest.raises(ValueError):
        create_executor("bytecode")


def _tc_program():
    builder = ProgramBuilder()
    builder.edb("edge", [("a", "number"), ("b", "number")])
    builder.idb("tc", [("a", "number"), ("b", "number")])
    builder.rule("tc", ["x", "y"], [("edge", ["x", "y"])])
    builder.rule("tc", ["x", "y"], [("tc", ["x", "z"]), ("edge", ["z", "y"])])
    builder.output("tc")
    return builder.build()


TC_FACTS = {"edge": [(0, 1), (1, 2), (2, 3), (3, 1)]}


def test_engine_threads_executor_selection():
    compiled_engine = DatalogEngine(_tc_program(), TC_FACTS, executor="compiled")
    interpreted_engine = DatalogEngine(
        _tc_program(), TC_FACTS, executor="interpreted"
    )
    assert isinstance(compiled_engine.executor, CompiledExecutor)
    assert isinstance(interpreted_engine.executor, InterpretedExecutor)
    assert compiled_engine.query("tc").same_rows(interpreted_engine.query("tc"))

    default_engine = DatalogEngine(_tc_program(), TC_FACTS)
    assert default_engine.executor.name == "compiled"


def test_compiled_executor_batches_probes_on_sqlite():
    """Each join step of each application costs one lookup_many SQL query."""
    engine = DatalogEngine(
        _tc_program(), TC_FACTS, store="sqlite", executor="compiled"
    )
    engine.run()
    store = engine.store
    assert store.batch_probe_count > 0
    assert store.batch_probe_query_count == store.batch_probe_count
    # One batched probe per non-delta join step per rule application: the
    # recursive rule has one such step and the stratum ran
    # ``iteration_count`` rounds (initial full round included).
    assert store.batch_probe_count <= engine.iteration_count("tc") + 1
    store.close()


def test_cli_exposes_executor_flag(capsys):
    from repro.cli import main

    assert main(["ldbc", "--query", "sq1", "--scale", "30",
                 "--executor", "compiled"]) == 0
    out = capsys.readouterr().out
    assert "engines agree: True" in out
