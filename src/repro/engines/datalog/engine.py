"""Stratified semi-naive evaluation of DLIR programs.

The engine evaluates strata bottom-up.  Within a stratum it runs the standard
semi-naive loop: an initial full round, then iterations in which each rule is
re-evaluated once per recursive body atom with that atom restricted to the
facts newly derived in the previous iteration.

Each ``(rule, delta position)`` pair is compiled once into a
:class:`~repro.engines.datalog.planner.RulePlan` (join order, index
positions, guard placement) and the plan is reused across every fixpoint
iteration; the fact store's hash indexes are maintained incrementally as
facts are inserted, so no index is ever rebuilt inside the loop.  Plans run
through a pluggable :class:`~repro.engines.datalog.executor_compiled.RuleExecutor`
— by default the compiled executor, which source-generates one specialised
closure per plan and batches each join step's index probes through
``StoreBackend.lookup_many`` (select ``executor="interpreted"`` for the
plan interpreter or ``executor="columnar"`` for the NumPy column-array
executor, or set the ``REPRO_EXECUTOR`` environment variable).

Min/max subsumption (``Rule.subsume_min`` / ``subsume_max``) is honoured
during insertion: for a relation with a subsumption spec only the best value
of the designated column is kept per combination of the remaining columns,
and a fact only counts as "new" when it improves on the incumbent.  This is
what keeps shortest-path recursion finite on cyclic graphs.
"""

from __future__ import annotations

from collections import defaultdict
from typing import (
    TYPE_CHECKING,
    Dict,
    Iterable,
    List,
    Mapping,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from repro.analysis.stratification import stratify
from repro.common.errors import ExecutionError
from repro.dlir.core import Atom, DLIRProgram, Rule
from repro.engines.datalog.executor_compiled import (
    ExecutorSpec,
    RuleExecutor,
    create_executor,
)
from repro.engines.datalog.planner import PlanCache, RulePlan
from repro.engines.datalog.statistics import RelationStats, resolve_replan_threshold
from repro.engines.datalog.storage import (
    DeltaView,
    StoreBackend,
    StoreSpec,
    create_store,
)
from repro.engines.result import QueryResult

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (ivm imports us)
    from repro.engines.datalog.ivm import MaintenanceReport

FactsInput = Mapping[str, Iterable[Tuple]]


class _SubsumptionSpec:
    """Keep only the min (or max) value of one column per key of the others."""

    def __init__(self, column: int, minimize: bool, arity: int) -> None:
        self.column = column
        self.minimize = minimize
        self.key_positions = [index for index in range(arity) if index != column]
        self._best: Dict[Tuple, Tuple] = {}

    def admit(self, row: Tuple) -> Tuple[bool, Optional[Tuple]]:
        """Return ``(is_new_or_better, replaced_row)`` for ``row``."""
        key = tuple(row[index] for index in self.key_positions)
        incumbent = self._best.get(key)
        if incumbent is None:
            self._best[key] = row
            return True, None
        if incumbent == row:
            return False, None
        better = (
            row[self.column] < incumbent[self.column]
            if self.minimize
            else row[self.column] > incumbent[self.column]
        )
        if better:
            self._best[key] = row
            return True, incumbent
        return False, None


class DatalogEngine:
    """Evaluate a DLIR program bottom-up over a set of EDB facts."""

    def __init__(
        self,
        program: DLIRProgram,
        facts: Optional[FactsInput] = None,
        *,
        store: StoreSpec = None,
        executor: ExecutorSpec = None,
        replan_threshold: Optional[float] = None,
        parameters: Optional[Mapping[str, object]] = None,
        ivm: bool = False,
    ) -> None:
        problems = program.validate()
        if problems:
            raise ExecutionError("invalid DLIR program: " + "; ".join(problems))
        self._program = program
        # ``store`` selects the backend: ``"memory"`` (default), ``"sqlite"``
        # / ``"sqlite:PATH"``, a StoreBackend instance, or None to honour the
        # REPRO_STORE environment variable.  ``executor`` selects how plans
        # run: ``"compiled"`` (default; source-generated closures with
        # batched index probes), ``"interpreted"`` (the plan walker), or
        # ``"columnar"`` (NumPy column arrays with vectorised kernels,
        # falling back per-plan to compiled), with None honouring
        # REPRO_EXECUTOR.  ``replan_threshold`` is the
        # cardinality drift factor that triggers adaptive re-planning
        # (default 10, env REPRO_REPLAN_THRESHOLD; 1 = re-plan every
        # iteration, float("inf") = freeze first plans).  ``parameters``
        # binds the program's late-bound ``$name`` placeholders for this
        # evaluation (rebind with ``reset(parameters=...)``).
        self._store = create_store(store)
        self._executor = create_executor(executor)
        self._replan_threshold = resolve_replan_threshold(replan_threshold)
        self._plans = PlanCache(replan_threshold=self._replan_threshold)
        self._params: Dict[str, object] = dict(parameters or {})
        self._evaluated = False
        self._iterations: Dict[str, int] = {}
        self._strata: Optional[List[Sequence[str]]] = None
        self.stats_snapshot_count = 0
        #: how many times :meth:`reset` cleared the IDB for re-derivation
        self.reset_count = 0
        # ``ivm`` keeps the incremental maintainer primed after every full
        # derivation so EDB deltas can be applied via :meth:`maintain`
        # without re-deriving; see repro.engines.datalog.ivm.
        self._ivm = bool(ivm)
        self._maintainer = None
        #: how many delta batches the incremental maintainer applied
        self.maintain_count = 0
        #: how many :meth:`maintain` calls fell back to full re-derivation
        self.full_rederive_count = 0
        self._idb_relations = set(program.idb_names())
        # Constructor-supplied facts landing on *derived* relations (a
        # relation may have both rules and externally supplied seed rows)
        # are remembered: reset() clears the whole IDB and must restore
        # them alongside the program's own fact clauses.
        self._seed_idb_facts: Dict[str, List[Tuple]] = {}
        with self._store.batch():
            for relation, rows in program.facts.items():
                self._store.add_many(relation, (tuple(row) for row in rows))
            if facts:
                for relation, rows in facts.items():
                    materialised = [tuple(row) for row in rows]
                    if relation in self._idb_relations:
                        self._seed_idb_facts[relation] = materialised
                    self._store.add_many(relation, materialised)
        self._subsumption = self._collect_subsumption_specs()

    # -- public API --------------------------------------------------------

    @property
    def store(self) -> StoreBackend:
        """Return the underlying fact store (facts are available after :meth:`run`)."""
        return self._store

    @property
    def executor(self) -> RuleExecutor:
        """Return the rule executor evaluating this engine's plans."""
        return self._executor

    @property
    def executor_fallback_count(self) -> int:
        """Return how many times the executor fell back to a slower strategy.

        Mirrors ``full_rederive_count`` for incremental maintenance: the
        compiled executor counts plans it could not compile (handed to the
        interpreter), the columnar executor counts both plans it could not
        lower and rule applications whose data defeated the vectorised
        kernels (both re-run on the compiled executor).  Zero for executors
        without a fallback path.
        """
        executor = self._executor
        return int(getattr(executor, "fallback_count", 0)) + int(
            getattr(executor, "runtime_fallback_count", 0)
        )

    @property
    def replan_threshold(self) -> float:
        """Return the cardinality drift factor that triggers re-planning."""
        return self._replan_threshold

    @property
    def replan_count(self) -> int:
        """Return how many cached plans were rebuilt because their
        statistics basis drifted."""
        return self._plans.replan_count

    @property
    def plan_build_count(self) -> int:
        """Return how many plans were built from scratch (first builds plus
        re-plans)."""
        return self._plans.plan_build_count

    @property
    def stats_epoch(self) -> int:
        """Return the plan cache's statistics epoch (bumped per re-plan)."""
        return self._plans.stats_epoch

    @property
    def parameters(self) -> Dict[str, object]:
        """Return the late-bound parameter values of the current evaluation."""
        return dict(self._params)

    def run(self) -> StoreBackend:
        """Evaluate the whole program; idempotent."""
        if self._evaluated:
            return self._store
        if self._strata is None:
            # Stratification depends only on the (immutable) program, so
            # warm re-runs after reset() reuse it.
            self._strata = stratify(self._program)
        for stratum in self._strata:
            self._evaluate_stratum(stratum)
        self._evaluated = True
        if self._ivm:
            # Prime right after derivation, while the store holds exactly
            # the derived state (counts and aggregate snapshots are exact).
            maintainer = self._ensure_maintainer()
            if maintainer.maintainable:
                maintainer.prime()
        return self._store

    def reset(self, parameters: Optional[Mapping[str, object]] = None) -> None:
        """Clear every derived (IDB) fact so the next :meth:`run` re-derives.

        The expensive state survives: the EDB stays ingested, every index
        stays registered (and is emptied in place, so ``index_build_count``
        does not move), the :class:`PlanCache` keeps its plans and the
        compiled executor its closures.  ``parameters`` optionally rebinds
        the late-bound parameter values for the next evaluation — the warm
        path of a :class:`~repro.session.PreparedQuery`.
        """
        with self._store.batch():
            for relation in self._idb_relations:
                self._store.clear_relation(relation)
            for relation, rows in self._program.facts.items():
                # Ground facts attached to derived relations (a relation can
                # have both fact clauses and rules) were cleared with the
                # IDB; restore them.
                if relation in self._idb_relations:
                    self._store.add_many(relation, (tuple(row) for row in rows))
            for relation, rows in self._seed_idb_facts.items():
                # Likewise for constructor-supplied seed rows on derived
                # relations.
                self._store.add_many(relation, rows)
        self._subsumption = self._collect_subsumption_specs()
        self._iterations = {}
        self._evaluated = False
        self.reset_count += 1
        if self._maintainer is not None:
            # The sidecar counts describe the cleared derivation; the next
            # run() re-primes them.
            self._maintainer.invalidate()
        if parameters is not None:
            self._params = dict(parameters)

    @property
    def ivm(self) -> bool:
        """Whether incremental view maintenance is enabled."""
        return self._ivm

    @property
    def maintainer(self):
        """Return the incremental maintainer (``None`` until first used)."""
        return self._maintainer

    def _ensure_maintainer(self):
        if self._maintainer is None:
            # Imported lazily: ivm.py imports evaluation/storage, and
            # eager import here would cost every non-IVM engine the load.
            from repro.engines.datalog.ivm import IncrementalMaintainer

            self._maintainer = IncrementalMaintainer(self)
        return self._maintainer

    def maintain(
        self,
        added: Mapping[str, Set[Tuple]],
        removed: Mapping[str, Set[Tuple]],
    ) -> "MaintenanceReport":
        """Fold one EDB delta batch into the derived store.

        ``added``/``removed`` map extensional relations to the *effective*
        row deltas the caller already applied to the store (added rows are
        present, removed rows are gone).  On return the store again holds
        the program's full derivation.  Always succeeds — when the program
        is unmaintainable or maintenance errors out, the engine falls back
        to a full ``reset()`` + ``run()`` and bumps ``full_rederive_count``
        (the incremental path bumps ``maintain_count`` instead, which is
        how tests prove IVM actually ran).

        Either way the returned
        :class:`~repro.engines.datalog.ivm.MaintenanceReport` carries the
        **exact** per-relation ``(added, removed)`` row delta of the whole
        batch — the incremental path reads it off the maintenance pass for
        free, the fallback path snapshots the IDB relations before the
        reset and diffs after re-derivation (a failed pass rolls its
        partial writes back first, so the snapshot really is the old
        state).  Subscriptions rely on this: no fallback ever loses a
        notification.
        """
        if not self._evaluated:
            # Nothing derived yet: derive now and report everything that
            # appears relative to the store's current (underived) state.
            return self._rederive_with_report(added, removed, fallback=False)
        maintainer = self._ensure_maintainer() if self._ivm else self._maintainer
        if maintainer is not None and maintainer.maintainable and maintainer.primed:
            try:
                report = maintainer.maintain(added, removed)
            except Exception:
                # The maintainer rolled back its partial writes: the EDB is
                # at the new state, the IDB exactly at the old one — the
                # snapshot-and-diff below therefore reports the true delta.
                pass
            else:
                self.maintain_count += 1
                return report
        return self._rederive_with_report(added, removed, fallback=True)

    def rederive(
        self,
        parameters: Optional[Mapping[str, object]] = None,
        *,
        fallback: bool = False,
    ) -> "MaintenanceReport":
        """Re-derive from scratch and report the resulting IDB row delta.

        The delta-tracking counterpart of ``reset()`` + ``run()``: the IDB
        relations are snapshotted first and diffed after, so callers that
        must observe changes (standing queries that fell below the delta
        log's floor, or a parameter rebind) get the same exact
        :class:`~repro.engines.datalog.ivm.MaintenanceReport` the
        incremental path produces.  ``fallback=True`` counts the event in
        ``full_rederive_count`` — pass it when this re-derivation replaces
        a derivation that should have been maintainable (a bulk ingest or
        the log's retention left a standing query below the floor); a
        chosen cold path (first derivation, binding change) leaves the
        counter untouched.
        """
        return self._rederive_with_report(
            {}, {}, fallback=fallback, parameters=parameters
        )

    def _rederive_with_report(
        self,
        added: Mapping[str, Set[Tuple]],
        removed: Mapping[str, Set[Tuple]],
        *,
        fallback: bool,
        parameters: Optional[Mapping[str, object]] = None,
    ) -> "MaintenanceReport":
        """Full re-derivation bracketed by an IDB snapshot/diff.

        O(|IDB|) — the price of exact deltas on the paths incremental
        maintenance cannot serve.  The EDB input delta (``added`` /
        ``removed``) is merged into the report so consumers see one
        coherent change set whichever path produced it.
        """
        from repro.engines.datalog.ivm import MaintenanceReport

        before = {
            relation: set(self._store.scan(relation))
            for relation in self._idb_relations
        }
        if fallback:
            self.full_rederive_count += 1
        if self._evaluated:
            self.reset(parameters=parameters)
        elif parameters is not None:
            self._params = dict(parameters)
        self.run()
        report = MaintenanceReport(full_rederive=True)
        for relation in self._idb_relations:
            after = set(self._store.scan(relation))
            prior = before.get(relation, set())
            grew = after - prior
            shrank = prior - after
            if grew:
                report.added[relation] = grew
            if shrank:
                report.removed[relation] = shrank
        for relation, rows in added.items():
            if rows:
                report.added.setdefault(relation, set()).update(
                    tuple(row) for row in rows
                )
        for relation, rows in removed.items():
            if rows:
                report.removed.setdefault(relation, set()).update(
                    tuple(row) for row in rows
                )
        return report

    def set_parameters(self, parameters: Mapping[str, object]) -> None:
        """Bind parameter values for the next evaluation.

        Rebinding after an evaluation requires :meth:`reset` first — the
        derived facts in the store reflect the old binding.
        """
        if self._evaluated:
            raise ExecutionError(
                "engine already evaluated — call reset() before re-binding "
                "parameters"
            )
        self._params = dict(parameters)

    def query(self, relation: Optional[str] = None) -> QueryResult:
        """Run the program (if needed) and return the rows of ``relation``.

        ``relation`` defaults to the program's first output.
        """
        self.run()
        if relation is None:
            if not self._program.outputs:
                raise ExecutionError("program has no output relation")
            relation = self._program.outputs[0]
        declaration = self._program.schema.maybe_get(relation)
        if declaration is not None:
            columns = declaration.column_names()
        else:
            columns = []
        rows = sorted(self._store.scan(relation), key=lambda row: tuple(str(v) for v in row))
        if not columns and rows:
            columns = [f"c{index}" for index in range(len(rows[0]))]
        return QueryResult(columns=columns, rows=rows)

    def fact_count(self, relation: str) -> int:
        """Return how many facts ``relation`` holds (after :meth:`run`)."""
        self.run()
        return self._store.count(relation)

    def iteration_count(self, relation: str) -> int:
        """Return how many semi-naive iterations the relation's stratum took."""
        self.run()
        return self._iterations.get(relation, 0)

    # -- explain -------------------------------------------------------------

    def plan_report(self) -> List[Dict[str, object]]:
        """Run the program and return one dict per cached plan.

        Each entry describes a ``(rule, delta position)`` plan as it stood
        at the end of evaluation: the join order actually executed
        (``join_order`` — ``(relation, body position)`` pairs), the
        statistics the cost model consumed (``stats_basis``), the epoch the
        plan was (re)built in, its per-step fan-out estimates and total cost
        estimate.  Machine-readable counterpart of :meth:`explain`.
        """
        self.run()
        report = []
        for plan in self._plans.plans():
            report.append(
                {
                    "rule": str(plan.rule),
                    "head": plan.rule.head.relation,
                    "delta_index": plan.delta_index,
                    "join_order": [
                        (step.relation, step.body_index) for step in plan.steps
                    ],
                    "stats_epoch": plan.stats_epoch,
                    "stats_basis": dict(plan.stats_basis or ()),
                    "step_fanouts": list(plan.step_fanouts or ()),
                    "cost_estimate": plan.cost_estimate,
                }
            )
        report.sort(
            key=lambda entry: (
                entry["head"],
                entry["rule"],
                -1 if entry["delta_index"] is None else entry["delta_index"],
            )
        )
        return report

    def explain(self) -> str:
        """Run the program and render the plan report as text.

        Shows the planner/statistics counters (plans built, re-plans,
        stats epoch, snapshots, index builds) followed by every cached
        plan's join order, cost estimate and statistics basis — the
        observable surface for "which join order ran, and why".
        """
        report = self.plan_report()  # runs the program
        store = self._store
        lines = ["datalog plan report"]
        lines.append(
            f"  executor={self._executor.name} store={type(store).__name__} "
            f"replan_threshold={self._replan_threshold:g}"
        )
        lines.append(
            f"  plans_built={self.plan_build_count} replans={self.replan_count} "
            f"stats_epoch={self.stats_epoch} "
            f"stats_snapshots={self.stats_snapshot_count}"
        )
        lines.append(
            f"  index_builds={store.index_build_count} indexes={store.index_count}"
        )
        for entry in report:
            delta = entry["delta_index"]
            delta_text = "full" if delta is None else f"delta@{delta}"
            lines.append(f"  rule {entry['rule']}  [{delta_text}]")
            fanouts = entry["step_fanouts"]
            for position, (relation, body_index) in enumerate(entry["join_order"]):
                fanout_text = (
                    f"  est_fanout={fanouts[position]:g}"
                    if fanouts and position < len(fanouts)
                    else ""
                )
                lines.append(
                    f"    step {position}: {relation} (body {body_index})"
                    f"{fanout_text}"
                )
            cost = entry["cost_estimate"]
            basis = entry["stats_basis"]
            if cost is not None:
                basis_text = ", ".join(
                    f"{name}={cardinality}" for name, cardinality in basis.items()
                )
                lines.append(
                    f"    epoch={entry['stats_epoch']} est_cost={cost:g} "
                    f"basis[{basis_text}]"
                )
        return "\n".join(lines)

    # -- evaluation ----------------------------------------------------------

    def _plan(
        self,
        rule: Rule,
        delta_index: Optional[int] = None,
        delta_size: int = 0,
        stats: Optional[Dict[str, RelationStats]] = None,
    ) -> RulePlan:
        """Return the (cached) compiled plan for ``(rule, delta_index)``.

        ``stats`` is the iteration's statistics snapshot: it drives the
        cost-based join order and, through :class:`PlanCache`, the drift
        check that re-plans a rule whose basis cardinalities moved.
        """
        return self._plans.plan_for(
            rule, self._store, delta_index, delta_size, stats=stats
        )

    def _stats_snapshot(self, relations: Sequence[str]) -> Dict[str, RelationStats]:
        """Snapshot cardinality/distinct statistics for ``relations``.

        With ``replan_threshold=inf`` drift checks never
        read the snapshot and only first builds consume statistics — and
        those backfill per-relation stats from the store on demand (see
        ``_atom_cost``).  Returning an empty snapshot there avoids paying a
        per-iteration aggregate scan per relation on the SQLite backend for
        numbers nothing would read.
        """
        if self._replan_threshold == float("inf"):
            return {}
        self.stats_snapshot_count += 1
        return {name: self._store.relation_stats(name) for name in relations}

    def _collect_subsumption_specs(self) -> Dict[str, _SubsumptionSpec]:
        specs: Dict[str, _SubsumptionSpec] = {}
        for rule in self._program.rules:
            relation = rule.head.relation
            column: Optional[int] = None
            minimize = True
            if rule.subsume_min is not None:
                column, minimize = rule.subsume_min, True
            elif rule.subsume_max is not None:
                column, minimize = rule.subsume_max, False
            if column is None:
                continue
            existing = specs.get(relation)
            if existing is not None:
                if existing.column != column or existing.minimize != minimize:
                    raise ExecutionError(
                        f"conflicting subsumption specifications for {relation!r}"
                    )
                continue
            specs[relation] = _SubsumptionSpec(column, minimize, rule.head.arity)
        return specs

    def _insert(self, relation: str, rows: Set[Tuple]) -> Set[Tuple]:
        """Insert rows honouring subsumption; return the rows that are new."""
        spec = self._subsumption.get(relation)
        fresh: Set[Tuple] = set()
        if spec is None:
            for row in rows:
                if self._store.add(relation, row):
                    fresh.add(row)
            return fresh
        for row in rows:
            admitted, replaced = spec.admit(row)
            if not admitted:
                continue
            if replaced is not None:
                self._store.remove(relation, replaced)
            if self._store.add(relation, row):
                fresh.add(row)
        return fresh

    def _evaluate_stratum(self, stratum: Sequence[str]) -> None:
        stratum_set = set(stratum)
        rules = [
            rule for rule in self._program.rules if rule.head.relation in stratum_set
        ]
        if not rules:
            return
        # Any relation *defined* in this stratum can feed other rules of the
        # same stratum, so the semi-naive loop must track deltas for all of
        # them (not only the truly recursive ones): a non-recursive rule such
        # as the translation's ``Match``/``Where`` views still has to be
        # re-evaluated when the recursive relation it reads grows.
        defined_here = {
            rule.head.relation for rule in rules if rule.head.relation in stratum_set
        }
        recursive_relations = defined_here
        # The relations whose statistics matter to this stratum's plans: one
        # snapshot per iteration covers every positive body atom.
        body_relations = sorted(
            {
                literal.relation
                for rule in rules
                for literal in rule.body
                if isinstance(literal, Atom)
            }
        )
        # Initial full round.  Each round's inserts run as one store batch
        # (one transaction on transactional backends).
        delta: Dict[str, Set[Tuple]] = defaultdict(set)
        stats = self._stats_snapshot(body_relations)
        with self._store.batch():
            for rule in rules:
                derived = self._executor.evaluate_rule(
                    rule,
                    self._store,
                    plan=self._plan(rule, stats=stats),
                    params=self._params,
                )
                fresh = self._insert(rule.head.relation, derived)
                delta[rule.head.relation].update(fresh)
        iterations = 1
        # Semi-naive loop.  Delta views are shared per relation per iteration
        # so their mini-indexes amortise across rules and delta positions.
        # Statistics are re-snapshotted each iteration; a rule whose plan was
        # costed on cardinalities that have since drifted past the re-plan
        # threshold is re-planned before it runs (see PlanCache.drifted).
        while any(delta.values()):
            delta_views = {
                relation: DeltaView(rows) for relation, rows in delta.items() if rows
            }
            new_delta: Dict[str, Set[Tuple]] = defaultdict(set)
            stats = self._stats_snapshot(body_relations)
            with self._store.batch():
                for rule in rules:
                    recursive_positions = [
                        index
                        for index, literal in enumerate(rule.body)
                        if isinstance(literal, Atom)
                        and literal.relation in recursive_relations
                        and delta.get(literal.relation)
                    ]
                    if not recursive_positions:
                        continue
                    for position in recursive_positions:
                        literal = rule.body[position]
                        assert isinstance(literal, Atom)
                        view = delta_views[literal.relation]
                        derived = self._executor.evaluate_rule(
                            rule,
                            self._store,
                            delta_index=position,
                            delta_rows=view,
                            plan=self._plan(rule, position, len(view), stats=stats),
                            params=self._params,
                        )
                        fresh = self._insert(rule.head.relation, derived)
                        new_delta[rule.head.relation].update(fresh)
            delta = new_delta
            iterations += 1
            if iterations > 1_000_000:  # pragma: no cover - safety net
                raise ExecutionError("semi-naive evaluation did not converge")
        for relation in stratum_set:
            self._iterations[relation] = iterations


def evaluate_program(
    program: DLIRProgram,
    facts: Optional[FactsInput] = None,
    relation: Optional[str] = None,
    store: StoreSpec = None,
    executor: ExecutorSpec = None,
    parameters: Optional[Mapping[str, object]] = None,
) -> QueryResult:
    """Convenience wrapper: evaluate ``program`` and return one relation's rows."""
    engine = DatalogEngine(
        program, facts, store=store, executor=executor, parameters=parameters
    )
    return engine.query(relation)
