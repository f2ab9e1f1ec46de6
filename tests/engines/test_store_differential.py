"""Cross-backend and cross-executor differential testing for the engine.

Fifty seeded random Datalog programs — recursion (linear and nonlinear),
stratified negation, comparisons, arithmetic assignments, constants,
wildcards, and aggregates — are each evaluated on **every executor × store
combination** ({interpreted, compiled, columnar} × {memory, sqlite}) and
against a brute-force **naive oracle** written independently of the
planner, the plan executors and the stores (cartesian-product matching,
end-of-body guards, naive fixpoint per stratum).

All combinations must agree fact-for-fact on every IDB relation.  This is
the equivalence bar any future backend (sharded, subsumption-aware, ...)
*or* executor (bytecode, vectorised, parallel, ...) must clear before the
engine may run on it.  For the columnar executor the corpus additionally
asserts *coverage*: the seeds must actually exercise the vectorised kernels
(zero fallbacks), not silently delegate back to the compiled executor.
"""

from __future__ import annotations

import random
from typing import Dict, List, Optional, Set, Tuple

import pytest

from repro.analysis.stratification import stratify
from repro.dlir.builder import ProgramBuilder
from repro.dlir.core import (
    Aggregation,
    ArithExpr,
    Atom,
    Const,
    DLIRProgram,
    Rule,
    Var,
    Wildcard,
)
from repro.engines.datalog import DatalogEngine, planner

Facts = Dict[str, Set[Tuple]]
Bindings = Dict[str, object]


# -- the naive oracle ------------------------------------------------------
#
# Deliberately primitive: no join ordering, no indexes, no deltas, no plans.
# Positive atoms are matched by scanning every fact; comparisons and
# negations run at the end of the body; strata iterate to fixpoint by full
# re-evaluation.  Shares no evaluation code with the engine.


def _eval_term(term, bindings: Bindings) -> Tuple[bool, object]:
    """Return ``(known, value)`` for ``term`` under ``bindings``."""
    if isinstance(term, Const):
        return True, term.value
    if isinstance(term, Var):
        if term.name in bindings:
            return True, bindings[term.name]
        return False, None
    if isinstance(term, ArithExpr):
        known_left, left = _eval_term(term.left, bindings)
        known_right, right = _eval_term(term.right, bindings)
        if not (known_left and known_right):
            return False, None
        if term.op == "+":
            return True, left + right
        if term.op == "-":
            return True, left - right
        if term.op == "*":
            return True, left * right
        if term.op == "/":
            if isinstance(left, int) and isinstance(right, int):
                return True, left // right
            return True, left / right
        if term.op == "%":
            return True, left % right
    raise AssertionError(f"oracle cannot evaluate term {term!r}")


def _holds(op: str, left, right) -> bool:
    if op == "=":
        return left == right
    if op == "<>":
        return left != right
    if op == "<":
        return left < right
    if op == "<=":
        return left <= right
    if op == ">":
        return left > right
    if op == ">=":
        return left >= right
    raise AssertionError(f"oracle cannot check operator {op!r}")


def _match_atom(atom: Atom, fact: Tuple, bindings: Bindings) -> Optional[Bindings]:
    """Unify ``atom`` with ``fact``; return extended bindings or ``None``."""
    extended = dict(bindings)
    for term, value in zip(atom.terms, fact):
        if isinstance(term, Wildcard):
            continue
        if isinstance(term, Const):
            if term.value != value:
                return None
        elif isinstance(term, Var):
            if term.name in extended:
                if extended[term.name] != value:
                    return None
            else:
                extended[term.name] = value
        else:
            raise AssertionError(f"oracle cannot match body term {term!r}")
    return extended


def _apply_comparisons(rule: Rule, bindings: Bindings) -> Optional[Bindings]:
    """Check/assign every comparison; return final bindings or ``None``."""
    pending = list(rule.comparisons())
    progress = True
    while pending and progress:
        progress = False
        remaining = []
        for comparison in pending:
            known_left, left = _eval_term(comparison.left, bindings)
            known_right, right = _eval_term(comparison.right, bindings)
            if known_left and known_right:
                if not _holds(comparison.op, left, right):
                    return None
                progress = True
            elif comparison.op == "=" and known_left and isinstance(comparison.right, Var):
                bindings[comparison.right.name] = left
                progress = True
            elif comparison.op == "=" and known_right and isinstance(comparison.left, Var):
                bindings[comparison.left.name] = right
                progress = True
            else:
                remaining.append(comparison)
        pending = remaining
    assert not pending, f"oracle hit an unsafe rule: {rule}"
    return bindings


def _negations_hold(rule: Rule, bindings: Bindings, facts: Facts) -> bool:
    """A negation fails when any fact matches its bound components."""
    for negated in rule.negated_atoms():
        for fact in facts.get(negated.atom.relation, ()):
            matches = True
            for term, value in zip(negated.atom.terms, fact):
                if isinstance(term, Wildcard):
                    continue
                if isinstance(term, Var) and term.name not in bindings:
                    continue  # existential: matches anything
                known, expected = _eval_term(term, bindings)
                assert known
                if expected != value:
                    matches = False
                    break
            if matches:
                return False
    return True


def _naive_solutions(rule: Rule, facts: Facts) -> List[Bindings]:
    solutions: List[Bindings] = [{}]
    for literal in rule.body:
        if not isinstance(literal, Atom):
            continue
        next_solutions: List[Bindings] = []
        for bindings in solutions:
            for fact in facts.get(literal.relation, ()):
                extended = _match_atom(literal, fact, bindings)
                if extended is not None:
                    next_solutions.append(extended)
        solutions = next_solutions
    finished: List[Bindings] = []
    for bindings in solutions:
        final = _apply_comparisons(rule, dict(bindings))
        if final is None:
            continue
        if not _negations_hold(rule, final, facts):
            continue
        finished.append(final)
    return finished


def _head_value(term, bindings: Bindings):
    known, value = _eval_term(term, bindings)
    assert known, f"oracle derived an unbound head term {term!r}"
    return value


def _naive_rule(rule: Rule, facts: Facts) -> Set[Tuple]:
    solutions = _naive_solutions(rule, facts)
    if not rule.aggregations:
        return {
            tuple(_head_value(term, bindings) for term in rule.head.terms)
            for bindings in solutions
        }
    # Aggregates: group by the non-aggregated head variables.
    group_keys = rule.group_by_variables()
    by_result = {agg.result.name: agg for agg in rule.aggregations}
    groups: Dict[Tuple, Dict[str, List]] = {}
    seen_distinct: Dict[Tuple, Dict[str, Set]] = {}
    exemplars: Dict[Tuple, Bindings] = {}
    for bindings in solutions:
        key = tuple(bindings[name] for name in group_keys)
        groups.setdefault(key, {name: [] for name in by_result})
        seen_distinct.setdefault(key, {name: set() for name in by_result})
        exemplars.setdefault(key, bindings)
        for name, aggregation in by_result.items():
            if aggregation.argument is None:
                value = tuple(sorted(bindings.items(), key=lambda item: item[0]))
            else:
                value = _head_value(aggregation.argument, bindings)
            if aggregation.distinct or aggregation.argument is None:
                if value in seen_distinct[key][name]:
                    continue
                seen_distinct[key][name].add(value)
            groups[key][name].append(value)
    derived: Set[Tuple] = set()
    for key, collected in groups.items():
        bindings = dict(exemplars[key])
        for name, aggregation in by_result.items():
            values = collected[name]
            if aggregation.func == "count":
                bindings[name] = len(values)
            elif aggregation.func == "sum":
                bindings[name] = sum(values) if values else 0
            elif aggregation.func == "min":
                bindings[name] = min(values)
            elif aggregation.func == "max":
                bindings[name] = max(values)
            elif aggregation.func == "avg":
                bindings[name] = sum(values) / len(values)
            else:
                raise AssertionError(f"oracle cannot aggregate {aggregation.func!r}")
        derived.add(tuple(_head_value(term, bindings) for term in rule.head.terms))
    return derived


def naive_evaluate(program: DLIRProgram, input_facts: Dict[str, List[Tuple]]) -> Facts:
    """Naive bottom-up fixpoint, stratum by stratum."""
    facts: Facts = {name: set(map(tuple, rows)) for name, rows in program.facts.items()}
    for name, rows in input_facts.items():
        facts.setdefault(name, set()).update(map(tuple, rows))
    for stratum in stratify(program):
        stratum_set = set(stratum)
        rules = [rule for rule in program.rules if rule.head.relation in stratum_set]
        changed = True
        while changed:
            changed = False
            for rule in rules:
                derived = _naive_rule(rule, facts)
                target = facts.setdefault(rule.head.relation, set())
                before = len(target)
                target |= derived
                if len(target) != before:
                    changed = True
    return facts


# -- the random program generator ------------------------------------------


def _random_case(seed: int):
    """Return ``(program, facts, idb_relations)`` for one differential case."""
    rng = random.Random(seed)
    nodes = rng.randrange(4, 8)
    edge_count = rng.randrange(0, 2 * nodes)  # occasionally an empty EDB
    edges = set()
    while len(edges) < edge_count:
        edges.add((rng.randrange(nodes), rng.randrange(nodes)))

    builder = ProgramBuilder()
    builder.edb("edge", [("a", "number"), ("b", "number")])
    idbs = ["p"]

    builder.idb("p", [("a", "number"), ("b", "number")])
    base_guard = rng.choice(
        [None, ("<", "x", "y"), ("<>", "x", "y"), (">=", "x", "y")]
    )
    builder.rule(
        "p",
        ["x", "y"],
        [("edge", ["x", "y"])],
        comparisons=[base_guard] if base_guard else [],
    )
    recursion = rng.choice(["none", "linear", "nonlinear", "guarded"])
    if recursion == "linear":
        builder.rule("p", ["x", "y"], [("p", ["x", "z"]), ("edge", ["z", "y"])])
    elif recursion == "nonlinear":
        builder.rule("p", ["x", "y"], [("p", ["x", "z"]), ("p", ["z", "y"])])
    elif recursion == "guarded":
        builder.rule(
            "p",
            ["x", "y"],
            [("edge", ["x", "z"]), ("p", ["z", "y"])],
            comparisons=[("<>", "x", "y")],
        )

    feature = rng.choice(["negation", "aggregate", "arithmetic", "constant", "wildcard"])
    if feature == "negation":
        builder.idb("q", [("a", "number"), ("b", "number")])
        if rng.random() < 0.5:
            builder.rule(
                "q", ["x", "y"], [("edge", ["x", "y"])], negated=[("p", ["y", "x"])]
            )
        else:
            builder.rule(
                "q", ["x", "y"], [("p", ["x", "y"])], negated=[("edge", ["y", "x"])]
            )
        idbs.append("q")
    elif feature == "aggregate":
        builder.idb("agg", [("a", "number"), ("n", "number")])
        func = rng.choice(["count", "sum", "min", "max", "avg"])
        if func == "count" and rng.random() < 0.5:
            aggregation = Aggregation("count", Var("n"))  # count(*)
        else:
            aggregation = Aggregation(
                func, Var("n"), argument=Var("y"), distinct=rng.random() < 0.3
            )
        builder.rule("agg", ["x", "n"], [("p", ["x", "y"])], aggregations=[aggregation])
        idbs.append("agg")
    elif feature == "arithmetic":
        builder.idb("s", [("a", "number"), ("w", "number")])
        op, operand = rng.choice([("+", 1), ("-", 1), ("*", 2), ("%", 3)])
        builder.rule(
            "s",
            ["x", "w"],
            [("p", ["x", "y"])],
            comparisons=[("=", "w", ArithExpr(op, Var("y"), Const(operand)))],
        )
        idbs.append("s")
    elif feature == "constant":
        builder.idb("c", [("b", "number")])
        builder.rule("c", ["y"], [("p", [rng.randrange(nodes), "y"])])
        idbs.append("c")
    else:
        builder.idb("t", [("a", "number")])
        builder.rule("t", ["x"], [("edge", ["x", "_"])])
        idbs.append("t")

    for relation in idbs:
        builder.output(relation)
    return builder.build(), {"edge": sorted(edges)}, idbs


# -- the differential test -------------------------------------------------

try:
    import numpy  # noqa: F401 - presence check only

    HAVE_NUMPY = True
except ImportError:  # pragma: no cover - CI installs numpy on columnar legs
    HAVE_NUMPY = False

EXECUTORS = ("interpreted", "compiled") + (("columnar",) if HAVE_NUMPY else ())

# Every executor × store combination the engine ships.  Each seed's program
# must agree fact-for-fact with the oracle on all of them.  The columnar
# executor joins the matrix only when NumPy is importable; without it the
# corpus still runs on the two tuple executors (the columnar-only coverage
# test below then skips with the reason).
COMBINATIONS = [
    (executor, store) for executor in EXECUTORS for store in ("memory", "sqlite")
]


@pytest.mark.parametrize("seed", range(50))
def test_executors_stores_and_oracle_agree(seed):
    program, facts, idbs = _random_case(seed)
    oracle = naive_evaluate(program, facts)
    for executor, store in COMBINATIONS:
        engine = DatalogEngine(program, facts, store=store, executor=executor)
        engine.run()
        for relation in idbs:
            expected = oracle.get(relation, set())
            rows = set(engine.store.scan(relation))
            assert rows == expected, (
                f"seed {seed}: {executor} executor on {store} store "
                f"disagrees with the oracle on {relation!r}"
            )
        engine.store.close()


# Seeds pinned as fully vectorisable: on these the columnar executor must
# take the vectorised path for every rule application — no static lowering
# rejections and no runtime kernel fallbacks.  (In fact all 50 seeds
# currently vectorise fully; pinning ten keeps the assert stable if the
# generator gains shapes the kernels reject.)
VECTORISED_SEEDS = tuple(range(10))


@pytest.mark.skipif(not HAVE_NUMPY, reason="columnar executor requires NumPy")
@pytest.mark.parametrize("seed", VECTORISED_SEEDS)
def test_columnar_corpus_coverage(seed):
    """The designated seeds must exercise the vectorised kernels end to end:
    correct results with zero fallbacks of either tier, on both stores."""
    from repro.engines.datalog.executor_columnar import ColumnarExecutor

    program, facts, idbs = _random_case(seed)
    oracle = naive_evaluate(program, facts)
    for store in ("memory", "sqlite"):
        executor = ColumnarExecutor()
        engine = DatalogEngine(program, facts, store=store, executor=executor)
        engine.run()
        for relation in idbs:
            assert set(engine.store.scan(relation)) == oracle.get(relation, set())
        assert executor.fallback_count == 0, (
            f"seed {seed} on {store}: a plan was statically rejected"
        )
        assert executor.runtime_fallback_count == 0, (
            f"seed {seed} on {store}: a kernel fell back at run time"
        )
        assert executor.vectorised_count > 0
        assert engine.executor_fallback_count == 0
        engine.store.close()


@pytest.mark.parametrize("seed", range(50))
def test_always_replanning_never_changes_results(seed, monkeypatch):
    """The adaptive-planning stress leg: a re-plan threshold of 1 forces every
    drift check to fire, so each fixpoint iteration rebuilds every rule's
    plan against the iteration's statistics snapshot.  Join orders may move
    mid-fixpoint and compiled closures regenerate — the results must still
    match the oracle fact-for-fact on every executor × store combination.
    """
    monkeypatch.setattr(planner, "REPLAN_THRESHOLD", 1.0)
    program, facts, idbs = _random_case(seed)
    oracle = naive_evaluate(program, facts)
    for executor, store in COMBINATIONS:
        engine = DatalogEngine(program, facts, store=store, executor=executor)
        engine.run()
        for relation in idbs:
            expected = oracle.get(relation, set())
            rows = set(engine.store.scan(relation))
            assert rows == expected, (
                f"seed {seed}: always-replanning {executor} executor on "
                f"{store} store disagrees with the oracle on {relation!r}"
            )
        if engine.iteration_count(idbs[0]) > 2:
            # A delta plan requested on two or more semi-naive iterations
            # must actually have been re-planned at the floor threshold.
            assert engine.replan_count > 0
        engine.store.close()


def test_generator_covers_every_feature():
    """The 50 seeds must exercise recursion, negation, and aggregates."""
    features = set()
    for seed in range(50):
        program, _facts, _idbs = _random_case(seed)
        for rule in program.rules:
            if rule.negated_atoms():
                features.add("negation")
            if rule.aggregations:
                features.add("aggregate")
            if rule.comparisons():
                features.add("comparison")
            if rule.head.relation in rule.body_relations():
                features.add("recursion")
    assert {"negation", "aggregate", "comparison", "recursion"} <= features
