"""Differential testing for parameter late-binding.

Every seeded program from the cross-backend differential harness is
*parameterised*: each constant in a rule body is replaced by a ``$pN``
placeholder.  One prepared engine is then run with at least three different
bindings, and each run must agree fact-for-fact — on every IDB relation —
with a fresh engine evaluating the program with that binding's values
substituted back in (:func:`repro.dlir.bind_parameters`).

On top of result equality, the counters prove the warm path does no hidden
work: between bindings there is zero fact re-ingest, zero index rebuilds
and (with re-planning frozen to isolate the property) zero plan rebuilds,
and the compiled executor never falls back to the interpreter because of a
parameter.
"""

from __future__ import annotations

import pytest

from repro.dlir.core import (
    ArithExpr,
    Atom,
    Comparison,
    Const,
    NegatedAtom,
    Param,
    Rule,
    bind_parameters,
)
from repro.engines.datalog import DatalogEngine, planner

from tests.engines.test_store_differential import COMBINATIONS, _random_case

#: seeds whose programs actually contain body constants are the interesting
#: ones (about half of them do), but parameter-free programs still exercise
#: the reset/re-run path
SEEDS = range(0, 50, 3)


def _parameterize(program):
    """Replace every body constant with a ``$pN`` placeholder.

    Returns ``(parameterised program, {name: original value})``.  Distinct
    constant values map to distinct parameters.
    """
    names = {}

    def convert(term):
        if isinstance(term, Const):
            name = names.setdefault(term.value, f"p{len(names)}")
            return Param(name)
        if isinstance(term, ArithExpr):
            return ArithExpr(term.op, convert(term.left), convert(term.right))
        return term

    def convert_atom(atom):
        return Atom(atom.relation, tuple(convert(term) for term in atom.terms))

    new_rules = []
    for rule in program.rules:
        body = []
        for literal in rule.body:
            if isinstance(literal, Atom):
                body.append(convert_atom(literal))
            elif isinstance(literal, NegatedAtom):
                body.append(NegatedAtom(convert_atom(literal.atom)))
            elif isinstance(literal, Comparison):
                body.append(
                    Comparison(
                        literal.op, convert(literal.left), convert(literal.right)
                    )
                )
            else:  # pragma: no cover - the generator emits no other literals
                body.append(literal)
        new_rules.append(
            Rule(
                head=rule.head,
                body=tuple(body),
                aggregations=rule.aggregations,
                subsume_min=rule.subsume_min,
                subsume_max=rule.subsume_max,
            )
        )
    parameterised = program.copy()
    parameterised.rules = new_rules
    return parameterised, {name: value for value, name in names.items()}


def _bindings_under_test(baseline):
    """At least three bindings: the original values plus shifted variants.

    Shifts keep arithmetic operands non-zero (the generator uses ``%``).
    """
    return [
        dict(baseline),
        {name: value + 1 for name, value in baseline.items()},
        {name: value + 2 for name, value in baseline.items()},
    ]


@pytest.mark.parametrize("seed", SEEDS)
def test_prepared_engine_matches_fresh_compiles_per_binding(seed, monkeypatch):
    monkeypatch.setattr(planner, "REPLAN_THRESHOLD", float("inf"))
    program, facts, idbs = _random_case(seed)
    parameterised, baseline = _parameterize(program)
    for executor, store in COMBINATIONS:
        # Frozen re-planning isolates the claim "plans are binding
        # independent"; adaptive re-planning across bindings is legitimate
        # but would make the flat-counter assertion vacuous.
        engine = DatalogEngine(
            parameterised, facts, store=store, executor=executor
        )
        plan_builds = index_builds = None
        for binding in _bindings_under_test(baseline):
            engine.reset(parameters=binding)
            engine.run()
            oracle = DatalogEngine(
                bind_parameters(parameterised, binding),
                facts,
                store="memory",
                executor="interpreted",
            )
            oracle.run()
            for relation in idbs:
                assert set(engine.store.scan(relation)) == set(
                    oracle.store.scan(relation)
                ), (
                    f"seed {seed}: {executor}/{store} with binding {binding} "
                    f"disagrees with the bound fresh compile on {relation!r}"
                )
            if plan_builds is None:
                plan_builds = engine.plan_build_count
                index_builds = engine.store.index_build_count
            else:
                assert engine.plan_build_count == plan_builds, (
                    f"seed {seed}: {executor}/{store} rebuilt plans between "
                    "bindings"
                )
                assert engine.store.index_build_count == index_builds, (
                    f"seed {seed}: {executor}/{store} rebuilt indexes "
                    "between bindings"
                )
        if executor == "compiled" and baseline:
            # Parameters must not push plans off the compiled path.
            assert engine.executor.fallback_count == 0
        engine.store.close()


def test_parameterization_covers_constants():
    """At least some sampled seeds exercise real parameters."""
    parameterised_seeds = 0
    for seed in SEEDS:
        program, _facts, _idbs = _random_case(seed)
        _parameterised, baseline = _parameterize(program)
        if baseline:
            parameterised_seeds += 1
    assert parameterised_seeds >= 3
