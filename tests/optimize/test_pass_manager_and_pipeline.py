"""Tests for the pass manager, trace and default optimization pipeline."""

from repro.dlir.core import DLIRProgram
from repro.optimize import (
    DeadRuleElimination,
    InlineRules,
    PassManager,
    default_pipeline,
    optimize_program,
)
from repro.optimize.base import Pass

from tests.conftest import PAPER_QUERY


class _CountingPass(Pass):
    name = "counting"

    def __init__(self):
        self.calls = 0

    def run(self, program: DLIRProgram) -> DLIRProgram:
        self.calls += 1
        return program


def test_pass_manager_runs_passes_in_order(paper_raqlet):
    compiled = paper_raqlet.compile_cypher(PAPER_QUERY, optimize=False)
    program = compiled.program(optimized=False)
    manager = PassManager([InlineRules(), DeadRuleElimination()])
    optimized = manager.run(program)
    assert [rule.head.relation for rule in optimized.rules] == ["Return"]
    assert [application.pass_name for application in manager.trace.applications] == [
        "inline",
        "dead-rule-elimination",
    ]


def test_pass_manager_iterates_until_fixpoint(paper_raqlet):
    compiled = paper_raqlet.compile_cypher(PAPER_QUERY, optimize=False)
    program = compiled.program(optimized=False)
    manager = PassManager([InlineRules(), DeadRuleElimination()], iterate=True)
    manager.run(program)
    # At least two rounds: one that changes things, one that confirms no change.
    assert len(manager.trace.applications) >= 4


def test_pass_manager_stops_early_when_nothing_changes():
    counting = _CountingPass()
    manager = PassManager([counting], iterate=True, max_rounds=10)
    manager.run(DLIRProgram())
    assert counting.calls == 1


def test_pass_manager_stops_once_every_pass_saw_the_fixpoint(paper_raqlet):
    """Inline reaches its fixpoint in its first application: once the
    counting pass and inline have each seen the result unchanged, nothing
    is left to run, so the second round stops after inline."""
    compiled = paper_raqlet.compile_cypher(PAPER_QUERY, optimize=False)
    counting = _CountingPass()
    manager = PassManager([InlineRules(), counting], iterate=True)
    manager.run(compiled.program(optimized=False))
    assert [application.changed for application in manager.trace.applications] == [
        True,
        False,
        False,
    ]
    assert counting.calls == 1


def test_trace_reports_rule_reduction(paper_raqlet):
    compiled = paper_raqlet.compile_cypher(PAPER_QUERY, optimize=False)
    program = compiled.program(optimized=False)
    manager = PassManager([InlineRules(), DeadRuleElimination()])
    manager.run(program)
    assert manager.trace.total_rule_reduction() == 2
    assert "dead-rule-elimination" in manager.trace.to_text()


def test_default_pipeline_contains_expected_passes(paper_mapping):
    names = [optimization.name for optimization in default_pipeline(paper_mapping)]
    assert names == [
        "constant-propagation",
        "inline",
        "duplicate-atom-removal",
        "semantic-join-elimination",
        "linearize-recursion",
        "magic-sets",
        "dead-rule-elimination",
    ]


def test_default_pipeline_flags(paper_mapping):
    names = [
        optimization.name
        for optimization in default_pipeline(paper_mapping, enable_magic_sets=False)
    ]
    assert "magic-sets" not in names
    names = [
        optimization.name
        for optimization in default_pipeline(None, enable_linearization=False)
    ]
    assert "semantic-join-elimination" not in names
    assert "linearize-recursion" not in names


def test_optimize_program_reaches_figure4_shape(paper_raqlet, paper_mapping):
    compiled = paper_raqlet.compile_cypher(PAPER_QUERY, optimize=False)
    program = compiled.program(optimized=False)
    optimized, trace = optimize_program(program, paper_mapping)
    assert [rule.head.relation for rule in optimized.rules] == ["Return"]
    assert trace.total_rule_reduction() == 2


def test_optimization_preserves_results(paper_raqlet, paper_facts):
    compiled = paper_raqlet.compile_cypher(PAPER_QUERY)
    unoptimized = paper_raqlet.run_on_datalog_engine(compiled, paper_facts, optimized=False)
    optimized = paper_raqlet.run_on_datalog_engine(compiled, paper_facts, optimized=True)
    assert unoptimized.same_rows(optimized)
    assert optimized.rows == [("Ada", 1)]
