"""The **interpreted** plan executor for the Datalog engine.

Rules are executed from a compiled :class:`~repro.engines.datalog.planner.RulePlan`:
the planner has already picked the join order, precomputed each atom's index
positions, and partitioned comparisons/negations onto the earliest join step
where they can run (``=`` against a single unbound variable becomes an
assignment).  The executor here just walks the plan: probe the (incrementally
maintained) hash index for each step, extend the bindings, and apply the
step's guard.  Aggregations are computed over the full set of body solutions
at the end, grouped by the non-aggregated head variables
(:func:`aggregate_solutions` — shared with the compiled executor).

This module is the engine's *reference* execution semantics and its
fallback path; the default executor
(:mod:`~repro.engines.datalog.executor_compiled`) instead source-generates
one specialised closure per plan and batches index probes, and is held
equivalent to this interpreter by the differential suite.  What the
operators and aggregate functions *mean* is not defined here but in
:mod:`repro.common.semantics`, shared with every other evaluator.

The engine reaches the interpreter through
:class:`~repro.engines.datalog.executor_compiled.InterpretedExecutor`
(:func:`evaluate_plan`); :func:`rule_solutions` is the binding-level entry
the incremental maintainer uses, and builds a plan on the fly when none is
supplied.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Set, Tuple

from repro.common.errors import ExecutionError
from repro.common.semantics import aggregate, arith, compare
from repro.dlir.core import ArithExpr, Const, Param, Rule, Term, Var
from repro.engines.datalog.planner import Guard, RulePlan, plan_rule
from repro.engines.datalog.storage import DeltaView, StoreBackend

Bindings = Dict[str, object]
Params = Optional[Dict[str, object]]


def param_bindings(params: Params) -> Bindings:
    """Return the reserved ``$name`` bindings for one parameter assignment.

    Late-bound parameters travel through evaluation as pre-seeded bindings
    under ``$``-prefixed keys — rule variables are identifiers, so the
    namespaces cannot collide and every downstream consumer (probe-key
    assembly, guards, head projection) resolves them with the ordinary
    bindings lookup.
    """
    if not params:
        return {}
    return {f"${name}": value for name, value in params.items()}


def evaluate_term(term: Term, bindings: Bindings):
    """Evaluate ``term`` to a value under ``bindings``."""
    if isinstance(term, Const):
        return term.value
    if isinstance(term, Var):
        if term.name not in bindings:
            raise ExecutionError(f"variable {term.name!r} is not bound")
        return bindings[term.name]
    if isinstance(term, Param):
        key = f"${term.name}"
        if key not in bindings:
            raise ExecutionError(
                f"no value bound for query parameter ${term.name}"
            )
        return bindings[key]
    if isinstance(term, ArithExpr):
        left = evaluate_term(term.left, bindings)
        right = evaluate_term(term.right, bindings)
        return arith(term.op, left, right)
    raise ExecutionError(f"cannot evaluate term {term!r}")


def _apply_guard(guard: Guard, bindings: Bindings, store: StoreBackend) -> bool:
    """Run a guard in place; return ``False`` when a check fails."""
    for op in guard.ops:
        if op[0] == "assign":
            bindings[op[1]] = evaluate_term(op[2], bindings)
        else:
            comparison = op[1]
            if not compare(
                comparison.op,
                evaluate_term(comparison.left, bindings),
                evaluate_term(comparison.right, bindings),
            ):
                return False
    for negation in guard.negations:
        key = tuple(evaluate_term(term, bindings) for term in negation.terms)
        if store.lookup(negation.relation, negation.positions, key):
            return False
    return True


def resolve_delta_view(
    plan: RulePlan,
    delta_index: Optional[int],
    delta_rows: Optional[Sequence[Tuple]],
) -> Optional[DeltaView]:
    """Validate and wrap the delta rows for one rule application.

    A delta-variant plan is also a valid full plan (no delta rows), but
    applying delta rows at a position the plan was not compiled for would
    restrict the wrong atom, so that mismatch is rejected here.
    """
    if delta_rows is None:
        return None
    if plan.delta_index != delta_index:
        raise ExecutionError(
            f"plan compiled for delta position {plan.delta_index!r} cannot "
            f"apply delta rows at position {delta_index!r}"
        )
    return (
        delta_rows
        if isinstance(delta_rows, DeltaView)
        else DeltaView(tuple(row) for row in delta_rows)
    )


def rule_solutions(
    rule: Rule,
    store: StoreBackend,
    delta_index: Optional[int] = None,
    delta_rows: Optional[Sequence[Tuple]] = None,
    plan: Optional[RulePlan] = None,
    params: Params = None,
) -> Iterator[Bindings]:
    """Yield every variable binding satisfying the rule body.

    When ``delta_index`` is given, the positive atom at that body position
    draws its rows from ``delta_rows`` instead of the store (semi-naive
    evaluation).  ``plan`` supplies a precompiled strategy; omitted, one is
    built for this call.  ``params`` supplies the run's late-bound
    parameter values (seeded into the bindings under ``$name`` keys).
    """
    if plan is None:
        delta_size = len(delta_rows) if delta_rows is not None else 0
        plan = plan_rule(rule, store, delta_index, delta_size)
    return plan_solutions(
        plan, store, resolve_delta_view(plan, delta_index, delta_rows), params
    )


def plan_solutions(
    plan: RulePlan,
    store: StoreBackend,
    delta_view: Optional[DeltaView] = None,
    params: Params = None,
) -> Iterator[Bindings]:
    """Walk ``plan`` and yield every binding satisfying its rule's body.

    With a ``delta_view`` the plan's delta step draws its rows from the
    view instead of the store.
    """
    rule = plan.rule
    delta_body_index = plan.delta_index

    bindings: Bindings = param_bindings(params)
    if not _apply_guard(plan.prelude, bindings, store):
        return
    steps = plan.steps
    step_count = len(steps)
    unresolved = plan.unresolved

    def recurse(position: int, bindings: Bindings) -> Iterator[Bindings]:
        if position == step_count:
            if unresolved:
                # Comparisons left with unbound variables: the rule is unsafe.
                unresolved_text = ", ".join(str(c) for c in unresolved)
                raise ExecutionError(
                    f"rule {rule} has comparisons over unbound variables: "
                    f"{unresolved_text}"
                )
            yield bindings
            return
        step = steps[position]
        try:
            key = tuple(
                bindings[source] if is_var else source
                for is_var, source in step.key_sources
            )
        except KeyError as exc:
            # Probe keys read variables bound by earlier steps and the
            # run's ``$name`` parameter seeds; surface a miss as the same
            # ExecutionError the compiled executor raises.
            missing = exc.args[0]
            if isinstance(missing, str) and missing.startswith("$"):
                raise ExecutionError(
                    f"no value bound for query parameter {missing}"
                ) from exc
            raise ExecutionError(f"variable {missing!r} is not bound") from exc
        if step.body_index == delta_body_index and delta_view is not None:
            rows = delta_view.lookup(step.key_positions, key)
        else:
            rows = store.lookup(step.relation, step.key_positions, key)
        bind_positions = step.bind_positions
        eq_positions = step.eq_positions
        guard = step.guard
        next_position = position + 1
        for row in rows:
            if eq_positions and any(row[a] != row[b] for a, b in eq_positions):
                continue
            extended = dict(bindings)
            for pos, name in bind_positions:
                extended[name] = row[pos]
            if not guard.is_empty() and not _apply_guard(guard, extended, store):
                continue
            yield from recurse(next_position, extended)

    yield from recurse(0, bindings)


def evaluate_plan(
    plan: RulePlan,
    store: StoreBackend,
    delta_view: Optional[DeltaView] = None,
    params: Params = None,
) -> Set[Tuple]:
    """Walk ``plan`` and return the head tuples its rule derives."""
    rule = plan.rule
    solutions = plan_solutions(plan, store, delta_view, params)
    if rule.aggregations:
        return aggregate_solutions(rule, solutions, params=params)
    head_terms = rule.head.terms
    return {
        tuple(evaluate_term(term, bindings) for term in head_terms)
        for bindings in solutions
    }


def aggregate_solutions(
    rule: Rule, solutions: Iterable[Bindings], params: Params = None
) -> Set[Tuple]:
    """Group ``solutions`` and derive the aggregate rule's head tuples.

    Shared by the interpreted and compiled executors: the executor produces
    the body solutions (with whatever strategy), this computes the grouping,
    distinct handling and aggregate functions on top.  ``params`` re-seeds
    the ``$name`` bindings for solution dicts that do not carry them (the
    compiled executor's aggregate path materialises only rule variables).
    """
    seeded = param_bindings(params)
    group_keys = rule.group_by_variables()
    aggregate_by_result = {agg.result.name: agg for agg in rule.aggregations}
    groups: Dict[Tuple, Dict[str, List]] = defaultdict(
        lambda: {name: [] for name in aggregate_by_result}
    )
    group_seen_distinct: Dict[Tuple, Dict[str, Set]] = defaultdict(
        lambda: {name: set() for name in aggregate_by_result}
    )
    group_bindings: Dict[Tuple, Bindings] = {}
    for bindings in solutions:
        # Interpreter solutions (and compiled closures' bindings dicts)
        # already carry the $ keys; only re-seed dicts that lack them.
        if seeded and any(key not in bindings for key in seeded):
            bindings = {**seeded, **bindings}
        key = tuple(bindings[name] for name in group_keys)
        group_bindings.setdefault(key, bindings)
        for name, aggregation in aggregate_by_result.items():
            if aggregation.argument is None:
                value = tuple(sorted(bindings.items(), key=lambda item: item[0]))
            else:
                value = evaluate_term(aggregation.argument, bindings)
            if aggregation.distinct or aggregation.argument is None:
                seen = group_seen_distinct[key][name]
                if value in seen:
                    continue
                seen.add(value)
            groups[key][name].append(value)
    derived: Set[Tuple] = set()
    for key, aggregates in groups.items():
        bindings = dict(group_bindings[key])
        for name, aggregation in aggregate_by_result.items():
            bindings[name] = aggregate(aggregation.func, aggregates[name])
        derived.add(tuple(evaluate_term(term, bindings) for term in rule.head.terms))
    return derived
