"""Compilation of DLIR rules into executable join plans.

The seed evaluator re-derived its join strategy on every rule application:
atom order was recomputed, and comparisons/negations were rediscovered by
scanning a "pending" list at every level of the join.  This module performs
that work once per ``(rule, delta_index)`` pair and records the result as a
:class:`RulePlan`:

* **join order** — when a statistics snapshot is supplied (the engine takes
  one per fixpoint iteration), body atoms are ordered by an explicit
  per-join-step **cost function**: the estimated fan-out of probing the
  atom with its currently-bound positions, ``|relation| / distinct(bound
  columns)`` (:meth:`RelationStats.fanout`), ties broken towards more
  shared variables, more bound positions, then the smaller relation.
  Without statistics the original greedy heuristic (shared variables, bound
  positions, raw size) remains as the fallback.  For semi-naive evaluation
  the delta atom always comes first, so each delta row is enumerated
  exactly once per application.
* **index positions** — for each atom the plan precomputes which argument
  positions are fixed (constants and already-bound variables) and how to
  assemble the lookup key from the current bindings, so the executor never
  inspects terms at run time.
* **guards** — each comparison is scheduled at the earliest join step where
  its variables are bound (``=`` against a single unbound variable becomes
  an *assignment* that binds it); each negated atom is compiled to its index
  probe and scheduled at the earliest step where every eventually-bound
  variable it mentions is available.  Unbound variables in a negation are
  existential, exactly as in the seed evaluator.

A plan built from statistics records the cardinalities it was costed on
(``stats_basis``) and the epoch it was built in (``stats_epoch``).
:class:`PlanCache` — which the engine threads through the stratum loop so
recursive rules reuse their plans across fixpoint iterations — uses the
basis for **adaptive re-planning**: when a fresh snapshot shows any basis
relation drifted by :data:`REPLAN_THRESHOLD` (10×), the
cached plan is rebuilt against current statistics and the cache's stats
epoch advances.  Plan identity changes but plan *structure* only changes
when the join order actually moved, so the compiled executor's
structure-keyed closure cache regenerates code only when it must.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from functools import cached_property
from typing import Dict, List, Optional, Set, Tuple

from repro.common.errors import ExecutionError
from repro.dlir.core import (
    Atom,
    Comparison,
    Const,
    NegatedAtom,
    Param,
    Rule,
    Term,
    Var,
    Wildcard,
    rule_param_names,
    term_variables,
)
from repro.engines.datalog.statistics import (
    RelationStats,
    StatsSnapshot,
    drift_ratio,
)
from repro.engines.datalog.storage import StoreBackend

#: cardinality drift factor (see :func:`drift_ratio`) at which a cached
#: plan is rebuilt against current statistics
REPLAN_THRESHOLD = 10.0

# Guard operations are tagged tuples kept deliberately small for the hot loop:
#   ("assign", var_name, term)  -- bind var_name to the evaluated term
#   ("check", comparison)       -- evaluate both sides and compare
GuardOp = Tuple


@dataclass(frozen=True)
class CompiledNegation:
    """A negated atom compiled to an index probe.

    ``positions``/``terms`` are the argument positions whose value will be
    known when the guard runs (parallel tuples); the remaining positions are
    existential.  The check fails when any stored fact matches the probe.
    """

    relation: str
    positions: Tuple[int, ...]
    terms: Tuple[Term, ...]


@dataclass(frozen=True)
class Guard:
    """Assignments, comparison checks and negation probes between two joins."""

    ops: Tuple[GuardOp, ...] = ()
    negations: Tuple[CompiledNegation, ...] = ()

    def is_empty(self) -> bool:
        """Return whether the guard does nothing."""
        return not self.ops and not self.negations


@dataclass(frozen=True)
class JoinStep:
    """One atom of the join: probe the relation, extend the bindings.

    ``key_positions`` are the argument positions fixed before this step runs;
    ``key_sources`` (parallel) say how to build the probe key: ``(True,
    name)`` reads the binding of variable ``name``, ``(False, value)`` is a
    constant.  ``bind_positions`` are the positions whose value binds a new
    variable; ``eq_positions`` are pairs of positions that must be equal
    (repeated fresh variables within the atom).
    """

    body_index: int
    relation: str
    key_positions: Tuple[int, ...]
    key_sources: Tuple[Tuple[bool, object], ...]
    bind_positions: Tuple[Tuple[int, str], ...]
    eq_positions: Tuple[Tuple[int, int], ...]
    guard: Guard


@dataclass(frozen=True)
class RulePlan:
    """The compiled evaluation strategy for one rule.

    ``delta_index`` is the body position (if any) that reads the semi-naive
    delta instead of the full relation.  ``unresolved`` holds comparisons
    whose variables are never bound; reaching the end of the join with such
    comparisons outstanding is an unsafe-rule error, raised at run time to
    match the seed evaluator (a rule whose joins produce no rows never
    triggers it).

    The trailing fields are **planning provenance**, excluded from
    equality/hash so the compiled executor's structure-keyed closure cache
    is untouched by re-planning that lands on the same join order:

    * ``stats_basis`` — the ``(relation, cardinality)`` pairs the cost
      model consumed (``None`` for greedy-fallback plans); the drift check
      compares these against fresh snapshots.
    * ``stats_epoch`` — the :class:`PlanCache` epoch the plan was built in
      (bumped on every re-plan).
    * ``step_fanouts`` — the cost model's estimated fan-out per join step,
      parallel to ``steps`` (for ``explain`` output).
    * ``cost_estimate`` — estimated total intermediate rows across the
      join (the sum of the running fan-out products).
    """

    rule: Rule
    delta_index: Optional[int]
    prelude: Guard
    steps: Tuple[JoinStep, ...]
    unresolved: Tuple[Comparison, ...]
    stats_basis: Optional[Tuple[Tuple[str, int], ...]] = field(
        default=None, compare=False
    )
    stats_epoch: int = field(default=0, compare=False)
    step_fanouts: Optional[Tuple[float, ...]] = field(default=None, compare=False)
    cost_estimate: Optional[float] = field(default=None, compare=False)

    @cached_property
    def param_names(self) -> Tuple[str, ...]:
        """The rule's late-bound parameter names, which every application
        checks against the run's binding.  Computed on first use: the
        incremental maintainer plans throwaway rules it only ever walks
        for bindings, and those never pay for it."""
        return tuple(rule_param_names(self.rule))


class _GuardBuilder:
    """Accumulates guard operations for one scheduling point."""

    def __init__(self) -> None:
        self.ops: List[GuardOp] = []
        self.negations: List[CompiledNegation] = []

    def build(self) -> Guard:
        return Guard(ops=tuple(self.ops), negations=tuple(self.negations))


def _term_vars_bound(term: Term, bound: Set[str]) -> bool:
    return all(name in bound for name in term_variables(term))


def _schedule_comparisons(
    pending: List[Comparison], bound: Set[str], builder: _GuardBuilder
) -> List[Comparison]:
    """Move every ready comparison from ``pending`` into ``builder``.

    Runs to fixpoint: a ``=`` with exactly one unbound variable side becomes
    an assignment (binding that variable), which can make further
    comparisons ready.  Returns the comparisons that are still pending.
    """
    current = pending
    progress = True
    while progress:
        progress = False
        remaining: List[Comparison] = []
        for comparison in current:
            left_bound = _term_vars_bound(comparison.left, bound)
            right_bound = _term_vars_bound(comparison.right, bound)
            if left_bound and right_bound:
                builder.ops.append(("check", comparison))
                progress = True
            elif (
                comparison.op == "="
                and left_bound
                and isinstance(comparison.right, Var)
            ):
                builder.ops.append(("assign", comparison.right.name, comparison.left))
                bound.add(comparison.right.name)
                progress = True
            elif (
                comparison.op == "="
                and right_bound
                and isinstance(comparison.left, Var)
            ):
                builder.ops.append(("assign", comparison.left.name, comparison.right))
                bound.add(comparison.left.name)
                progress = True
            else:
                remaining.append(comparison)
        current = remaining
    return current


def _atom_selectivity(
    atom: Atom,
    body_index: int,
    bound: Set[str],
    store: StoreBackend,
    delta_index: Optional[int],
    delta_size: int,
) -> Tuple:
    """Rank candidate atoms: most shared variables, most bound positions,
    smallest relation.  The greedy fallback when no statistics are given."""
    size = delta_size if body_index == delta_index else store.count(atom.relation)
    shared = 0
    bound_positions = 0
    for term in atom.terms:
        if isinstance(term, (Const, Param)):
            bound_positions += 1
        elif isinstance(term, Var) and term.name in bound:
            shared += 1
            bound_positions += 1
    return (-shared, -bound_positions, size)


def _bound_positions(atom: Atom, bound: Set[str]) -> Tuple[List[int], int, int]:
    """Return (positions fixed before the probe, shared-var count, bound count)."""
    positions: List[int] = []
    shared = 0
    for position, term in enumerate(atom.terms):
        if isinstance(term, (Const, Param)):
            positions.append(position)
        elif isinstance(term, Var) and term.name in bound:
            positions.append(position)
            shared += 1
    return positions, shared, len(positions)


def _atom_cost(
    atom: Atom,
    body_index: int,
    bound: Set[str],
    stats: Dict[str, RelationStats],
    store: StoreBackend,
) -> Tuple:
    """Rank candidate atoms by estimated per-probe fan-out.

    The primary key is the cost function of the whole planner: probing the
    atom with its currently-bound columns is expected to return
    ``|relation| / distinct(bound columns)`` rows per input row
    (:meth:`RelationStats.fanout`).  Ties prefer more shared variables,
    more bound positions, the smaller relation, then body order — all
    deterministic.
    """
    entry = stats.get(atom.relation)
    if entry is None:
        # The engine's snapshots cover every body relation, but direct
        # plan_rule callers may pass partial maps — backfill from the store
        # so a missing entry never reads as "empty relation".
        entry = store.relation_stats(atom.relation)
        stats[atom.relation] = entry
    positions, shared, bound_count = _bound_positions(atom, bound)
    fanout = entry.fanout(positions)
    return (fanout, -shared, -bound_count, entry.cardinality, body_index)


def _compile_step(
    body_index: int, atom: Atom, bound: Set[str]
) -> Tuple[JoinStep, Set[str]]:
    """Compile one atom given the variables bound before it runs."""
    key_positions: List[int] = []
    key_sources: List[Tuple[bool, object]] = []
    bind_positions: List[Tuple[int, str]] = []
    eq_positions: List[Tuple[int, int]] = []
    first_occurrence: Dict[str, int] = {}
    for position, term in enumerate(atom.terms):
        if isinstance(term, Wildcard):
            continue
        if isinstance(term, Const):
            key_positions.append(position)
            key_sources.append((False, term.value))
        elif isinstance(term, Param):
            # Late-bound: the probe key reads the parameter's reserved
            # binding (``$name`` — the prefix keeps it disjoint from rule
            # variables, which are identifiers).  The plan itself stays
            # binding-independent, so one plan serves every run.
            key_positions.append(position)
            key_sources.append((True, f"${term.name}"))
        elif isinstance(term, Var):
            if term.name in bound:
                key_positions.append(position)
                key_sources.append((True, term.name))
            elif term.name in first_occurrence:
                eq_positions.append((first_occurrence[term.name], position))
            else:
                first_occurrence[term.name] = position
                bind_positions.append((position, term.name))
        else:
            raise ExecutionError(f"unexpected term {term!r} in body atom {atom}")
    step = JoinStep(
        body_index=body_index,
        relation=atom.relation,
        key_positions=tuple(key_positions),
        key_sources=tuple(key_sources),
        bind_positions=tuple(bind_positions),
        eq_positions=tuple(eq_positions),
        guard=Guard(),  # replaced after guard scheduling
    )
    return step, set(first_occurrence)


def _compile_negation(
    negated: NegatedAtom, final_bound: Set[str]
) -> Tuple[CompiledNegation, Set[str]]:
    """Compile a negated atom against the eventually-bound variable set.

    Returns the compiled probe and the variables it needs bound before it
    can run.  Bare variables that are never bound are existential and
    dropped from the probe (the seed semantics).
    """
    atom = negated.atom
    positions: List[int] = []
    terms: List[Term] = []
    required: Set[str] = set()
    for position, term in enumerate(atom.terms):
        if isinstance(term, Wildcard):
            continue
        if isinstance(term, Var) and term.name not in final_bound:
            continue
        positions.append(position)
        terms.append(term)
        required.update(term_variables(term))
    compiled = CompiledNegation(
        relation=atom.relation, positions=tuple(positions), terms=tuple(terms)
    )
    return compiled, required


def plan_rule(
    rule: Rule,
    store: StoreBackend,
    delta_index: Optional[int] = None,
    delta_size: int = 0,
    stats: Optional[StatsSnapshot] = None,
    stats_epoch: int = 0,
) -> RulePlan:
    """Compile ``rule`` into a :class:`RulePlan`.

    ``stats`` (relation name → :class:`RelationStats`) switches join
    ordering to the cost model and records the plan's ``stats_basis`` for
    drift detection; without it the greedy size heuristic applies and the
    plan never triggers re-planning.  ``delta_index``/``delta_size``
    identify the body atom restricted to the semi-naive delta (it is forced
    to the front of the join order either way).
    """
    remaining_atoms = [
        (index, literal)
        for index, literal in enumerate(rule.body)
        if isinstance(literal, Atom)
    ]
    use_cost = stats is not None
    stats_map: Dict[str, RelationStats] = dict(stats) if stats is not None else {}
    bound: Set[str] = set()
    pending = list(rule.comparisons())

    prelude_builder = _GuardBuilder()
    pending = _schedule_comparisons(pending, bound, prelude_builder)

    # Join ordering interleaved with comparison scheduling, so each step's
    # key positions reflect every variable bound before it runs (including
    # variables bound by ``=`` assignments).
    steps: List[JoinStep] = []
    step_builders: List[_GuardBuilder] = []
    bound_after: List[Set[str]] = []  # bound set after each step's guard
    step_fanouts: List[float] = []
    while remaining_atoms:
        chosen = None
        chosen_fanout: Optional[float] = None
        if not steps and delta_index is not None:
            chosen = next(
                (entry for entry in remaining_atoms if entry[0] == delta_index), None
            )
            if chosen is not None:
                chosen_fanout = float(delta_size)
        if chosen is None:
            if use_cost:
                chosen = min(
                    remaining_atoms,
                    key=lambda entry: _atom_cost(
                        entry[1], entry[0], bound, stats_map, store
                    ),
                )
                chosen_fanout = _atom_cost(
                    chosen[1], chosen[0], bound, stats_map, store
                )[0]
            else:
                chosen = min(
                    remaining_atoms,
                    key=lambda entry: _atom_selectivity(
                        entry[1], entry[0], bound, store, delta_index, delta_size
                    ),
                )
        remaining_atoms.remove(chosen)
        body_index, atom = chosen
        step, fresh = _compile_step(body_index, atom, bound)
        bound.update(fresh)
        builder = _GuardBuilder()
        pending = _schedule_comparisons(pending, bound, builder)
        steps.append(step)
        step_builders.append(builder)
        bound_after.append(set(bound))
        if use_cost:
            step_fanouts.append(chosen_fanout if chosen_fanout is not None else 0.0)

    # Schedule each negation at the earliest point where every
    # eventually-bound variable it mentions is available.
    final_bound = bound
    prelude_bound = _prelude_bound_vars(prelude_builder)
    for negated in rule.negated_atoms():
        compiled, required = _compile_negation(negated, final_bound)
        target: Optional[_GuardBuilder] = None
        if required <= prelude_bound:
            target = prelude_builder
        else:
            for index, bound_set in enumerate(bound_after):
                if required <= bound_set:
                    target = step_builders[index]
                    break
        if target is None:
            # Variables inside an arithmetic negation term are never bound:
            # attach to the last guard so evaluate_term raises, matching the
            # seed's end-of-body behaviour.
            target = step_builders[-1] if step_builders else prelude_builder
        target.negations.append(compiled)

    compiled_steps = tuple(
        JoinStep(
            body_index=step.body_index,
            relation=step.relation,
            key_positions=step.key_positions,
            key_sources=step.key_sources,
            bind_positions=step.bind_positions,
            eq_positions=step.eq_positions,
            guard=builder.build(),
        )
        for step, builder in zip(steps, step_builders)
    )
    stats_basis: Optional[Tuple[Tuple[str, int], ...]] = None
    cost_estimate: Optional[float] = None
    if use_cost:
        basis_relations = {step.relation for step in compiled_steps}
        stats_basis = tuple(
            sorted(
                (relation, stats_map[relation].cardinality)
                for relation in basis_relations
                if relation in stats_map
            )
        )
        # Total estimated intermediate rows: the sum of the running fan-out
        # products after each step (the quantity the greedy order minimises).
        running = 1.0
        cost_estimate = 0.0
        for fanout in step_fanouts:
            running *= fanout
            cost_estimate += running
    return RulePlan(
        rule=rule,
        delta_index=delta_index,
        prelude=prelude_builder.build(),
        steps=compiled_steps,
        unresolved=tuple(pending),
        stats_basis=stats_basis,
        stats_epoch=stats_epoch,
        step_fanouts=tuple(step_fanouts) if use_cost else None,
        cost_estimate=cost_estimate,
    )


def _prelude_bound_vars(builder: _GuardBuilder) -> Set[str]:
    """Variables bound by the prelude's assignments."""
    return {op[1] for op in builder.ops if op[0] == "assign"}


class PlanCache:
    """Caches :class:`RulePlan` objects per ``(rule, delta_index)``, with
    statistics-driven invalidation.

    Keys use object identity: the engine owns its program's rule objects for
    its whole lifetime, and identity keeps hashing O(1) regardless of rule
    size.  Rule references are retained so ids cannot be recycled — this
    also covers the incremental maintainer's synthesised rules (candidate,
    positivised-negation and DRed rescue rewrites), which are built once
    per maintainer and plan through this cache exactly like the program's
    own rules, drift checks and adaptive re-planning included.  A rule
    built for one call only would pin a cache entry per call, so such
    rules pass ``plan=None`` to the evaluator instead.

    **Adaptive re-planning.**  When :meth:`plan_for` receives a statistics
    snapshot and the cached plan's ``stats_basis`` shows any relation
    drifted by the factor :data:`REPLAN_THRESHOLD`, the entry is rebuilt
    against the current snapshot and the cache's ``stats_epoch`` advances.
    The fresh plan is a *new object* (so the compiled executor's identity
    memo cannot serve stale code) but equal-by-structure to the old one
    unless the join order actually moved — which is exactly when the
    structure-keyed closure cache regenerates.
    ``replan_count`` / ``plan_build_count`` make the mechanism observable.
    """

    def __init__(self) -> None:
        self._plans: Dict[Tuple[int, Optional[int]], RulePlan] = {}
        self._rules: Dict[int, Rule] = {}
        # Each engine owns one PlanCache and a serving worker owns its
        # engines, so contention is nil — the lock only protects the
        # introspection surfaces (explain/stats readers on other threads)
        # from observing a half-built entry.
        self._lock = threading.RLock()
        #: plans built from scratch (first builds + re-plans)
        self.plan_build_count = 0
        #: cache entries rebuilt because their statistics basis drifted
        self.replan_count = 0
        #: monotone version, bumped on every re-plan
        self.stats_epoch = 0

    def plan_for(
        self,
        rule: Rule,
        store: StoreBackend,
        delta_index: Optional[int] = None,
        delta_size: int = 0,
        stats: Optional[StatsSnapshot] = None,
    ) -> RulePlan:
        """Return the plan for ``(rule, delta_index)``, building it on first
        use and re-building it when ``stats`` drifted from its basis."""
        key = (id(rule), delta_index)
        with self._lock:
            plan = self._plans.get(key)
            if plan is not None:
                if stats is None or not self.drifted(plan, stats):
                    return plan
                self.stats_epoch += 1
                self.replan_count += 1
            plan = plan_rule(
                rule,
                store,
                delta_index,
                delta_size,
                stats=stats,
                stats_epoch=self.stats_epoch,
            )
            self.plan_build_count += 1
            self._plans[key] = plan
            self._rules[id(rule)] = rule
            return plan

    def drifted(self, plan: RulePlan, stats: StatsSnapshot) -> bool:
        """Whether any relation the plan was costed on moved past the
        threshold (greedy-fallback plans, with no basis, never drift)."""
        basis = plan.stats_basis
        if basis is None:
            return False
        for relation, planned_cardinality in basis:
            entry = stats.get(relation)
            current = entry.cardinality if entry is not None else 0
            if drift_ratio(current, planned_cardinality) >= REPLAN_THRESHOLD:
                return True
        return False

    def plans(self) -> List[RulePlan]:
        """Return every cached plan (for the engine's explain surface)."""
        with self._lock:
            return list(self._plans.values())

    def __len__(self) -> int:
        return len(self._plans)
