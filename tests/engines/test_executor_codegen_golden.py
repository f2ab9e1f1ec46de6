"""Golden-source snapshot tests for the plan-lowering executors.

Each representative rule shape (multi-atom join, negation, comparison
guards, aggregate head, delta-position variants) is planned against a fixed
store and its lowering — the compiled executor's generated closure source
*and* the columnar executor's kernel schedule — is compared against a
checked-in golden file under ``tests/engines/goldens/``.  A lowering change
therefore shows up as a readable diff instead of a silent behaviour change —
review the diff, and if it is intended regenerate the goldens with::

    REPRO_UPDATE_GOLDENS=1 PYTHONPATH=src python -m pytest \
        tests/engines/test_executor_codegen_golden.py

The columnar goldens include fallback cases: plans whose shape the columnar
lowering rejects snapshot the *reason* they run on the compiled executor
instead.  Lowering and description are pure plan analysis, so these tests
run without NumPy installed.

Generation must stay deterministic (no ids, no set iteration) for these
tests to be meaningful; the stability tests below guard that directly.
"""

from __future__ import annotations

import os
from pathlib import Path

import pytest

from repro.dlir.core import (
    Aggregation,
    ArithExpr,
    Atom,
    Comparison,
    Const,
    NegatedAtom,
    Param,
    Rule,
    Var,
    Wildcard,
)
from repro.engines.datalog import FactStore, generate_plan_source, plan_rule
from repro.engines.datalog.executor_columnar import describe_columnar_plan

GOLDEN_DIR = Path(__file__).parent / "goldens"


def _store() -> FactStore:
    """A fixed store so the join-order heuristic is deterministic."""
    store = FactStore()
    store.add_many("edge", [(1, 2), (2, 3), (3, 4), (2, 4), (4, 1)])
    store.add_many("node", [(i,) for i in range(1, 6)])
    store.add_many("tc", [(1, 2), (2, 3)])
    return store


def _case_multi_atom_join():
    rule = Rule(
        Atom("path", (Var("x"), Var("z"))),
        (Atom("edge", (Var("x"), Var("y"))), Atom("edge", (Var("y"), Var("z")))),
    )
    return plan_rule(rule, _store())


def _case_negation():
    rule = Rule(
        Atom("sink", (Var("n"),)),
        (Atom("node", (Var("n"),)), NegatedAtom(Atom("edge", (Var("n"), Var("y"))))),
    )
    return plan_rule(rule, _store())


def _case_comparison_guards():
    rule = Rule(
        Atom("q", (Var("x"), Var("lab"), Var("nxt"))),
        (
            Atom("edge", (Var("x"), Var("y"))),
            Comparison("=", Var("lab"), Const(7)),
            Comparison("=", Var("nxt"), ArithExpr("+", Var("y"), Const(1))),
            Comparison("<", Var("x"), Const(3)),
        ),
    )
    return plan_rule(rule, _store())


def _case_aggregate_head():
    rule = Rule(
        Atom("outdeg", (Var("a"), Var("n"))),
        (Atom("edge", (Var("a"), Var("b"))),),
        aggregations=(Aggregation("count", Var("n"), argument=Var("b")),),
    )
    return plan_rule(rule, _store())


def _case_delta_linear():
    rule = Rule(
        Atom("tc", (Var("x"), Var("y"))),
        (Atom("tc", (Var("x"), Var("z"))), Atom("edge", (Var("z"), Var("y")))),
    )
    return plan_rule(rule, _store(), delta_index=0, delta_size=2)


def _case_delta_nonlinear_second_position():
    # The delta names body position 1; the planner still forces it to step 0,
    # so the generated source shows the other occurrence probed against the
    # full store.
    rule = Rule(
        Atom("tc", (Var("x"), Var("y"))),
        (Atom("tc", (Var("x"), Var("z"))), Atom("tc", (Var("z"), Var("y")))),
    )
    return plan_rule(rule, _store(), delta_index=1, delta_size=2)


def _case_negation_mid_step():
    # The negation's variables are bound after step 0, so its per-row probe
    # lands mid-plan, filtering the solutions the next step extends.
    rule = Rule(
        Atom("r", (Var("x"), Var("z"))),
        (
            Atom("node", (Var("x"),)),
            Atom("edge", (Var("x"), Var("z"))),
            NegatedAtom(Atom("cut", (Var("x"),))),
        ),
    )
    store = _store()
    store.add_many("cut", [(2,), (4,)])
    return plan_rule(rule, store)


def _case_constants_and_wildcards():
    rule = Rule(
        Atom("q", (Var("x"),)),
        (
            Atom("triple", (Var("x"), Var("x"), Wildcard())),
            Atom("edge", (Const(1), Var("x"))),
        ),
    )
    store = _store()
    store.add_many("triple", [(1, 1, 5), (1, 2, 6), (2, 2, 7)])
    return plan_rule(rule, store)


CASES = {
    "multi_atom_join": _case_multi_atom_join,
    "negation": _case_negation,
    "negation_mid_step": _case_negation_mid_step,
    "comparison_guards": _case_comparison_guards,
    "aggregate_head": _case_aggregate_head,
    "delta_linear": _case_delta_linear,
    "delta_nonlinear_second_position": _case_delta_nonlinear_second_position,
    "constants_and_wildcards": _case_constants_and_wildcards,
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_generated_source_matches_golden(name):
    source = generate_plan_source(CASES[name]())
    golden_path = GOLDEN_DIR / f"{name}.py.golden"
    if os.environ.get("REPRO_UPDATE_GOLDENS"):
        golden_path.write_text(source, encoding="utf-8")
    assert golden_path.exists(), (
        f"golden {golden_path.name} is missing — regenerate with "
        f"REPRO_UPDATE_GOLDENS=1"
    )
    assert source == golden_path.read_text(encoding="utf-8"), (
        f"generated source for {name!r} diverges from its golden; if the "
        f"change is intended, regenerate with REPRO_UPDATE_GOLDENS=1"
    )


def test_generation_is_deterministic():
    """The same plan must generate byte-identical source every time."""
    for name, make_plan in CASES.items():
        assert generate_plan_source(make_plan()) == generate_plan_source(
            make_plan()
        ), f"codegen for {name!r} is not deterministic"


# -- columnar lowerings -------------------------------------------------------


def _case_columnar_fallback_param_arith():
    # A parameter inside arithmetic defeats the columnar lowering's static
    # column typing — the plan must be rejected with a reason, and the rule
    # runs on the compiled executor instead.
    rule = Rule(
        Atom("shifted", (Var("x"), Var("w"))),
        (
            Atom("edge", (Var("x"), Var("y"))),
            Comparison("=", Var("w"), ArithExpr("+", Var("y"), Param("offset"))),
        ),
    )
    return plan_rule(rule, _store())


#: every compiled case plus the columnar-only fallback shapes
COLUMNAR_CASES = dict(
    CASES, columnar_fallback_param_arith=_case_columnar_fallback_param_arith
)


@pytest.mark.parametrize("name", sorted(COLUMNAR_CASES))
def test_columnar_lowering_matches_golden(name):
    description = describe_columnar_plan(COLUMNAR_CASES[name]())
    golden_path = GOLDEN_DIR / f"columnar_{name}.txt.golden"
    if os.environ.get("REPRO_UPDATE_GOLDENS"):
        golden_path.write_text(description, encoding="utf-8")
    assert golden_path.exists(), (
        f"golden {golden_path.name} is missing — regenerate with "
        f"REPRO_UPDATE_GOLDENS=1"
    )
    assert description == golden_path.read_text(encoding="utf-8"), (
        f"columnar lowering for {name!r} diverges from its golden; if the "
        f"change is intended, regenerate with REPRO_UPDATE_GOLDENS=1"
    )


def test_columnar_fallback_golden_states_reason():
    """The fallback golden must *say why* the plan is not vectorised."""
    description = describe_columnar_plan(_case_columnar_fallback_param_arith())
    assert "fallback to compiled executor:" in description
    assert "parameter inside arithmetic" in description


def test_columnar_description_is_deterministic():
    for name, make_plan in COLUMNAR_CASES.items():
        assert describe_columnar_plan(make_plan()) == describe_columnar_plan(
            make_plan()
        ), f"columnar description for {name!r} is not deterministic"
