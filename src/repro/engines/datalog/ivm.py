"""Incremental view maintenance (IVM) for the Datalog engine.

``DatalogEngine.maintain(added, removed)`` applies an **EDB delta** to an
already-derived store without re-deriving the IDB from scratch: mutation
cost scales with the size of the change (|Δ|), not with the size of the
derived database (|IDB|).  The strategy is chosen **per stratum** by the
existing stratification analysis:

* **Counting** for non-recursive strata.  A sidecar
  (:class:`CountSidecar`) tracks, for every derived tuple, its number of
  distinct derivations; a tuple is deleted exactly when its count reaches
  zero, so retracting one of several supports never over-deletes.  A
  *derivation* is a distinct assignment of the rule's positively-bound
  variables — wildcards are freshened into variables first, so two rows
  differing only in a "don't care" column still count as two supports.
* **DRed (delete-rederive)** for recursive strata, where counts are not
  well-defined (a tuple can transitively support itself): over-delete
  everything an affected tuple could have contributed to, re-derive what
  is still supported by the surviving database, then run a semi-naive
  insertion fixpoint for the additions.

Both strategies share one *candidate-then-verify* core.  Candidates are
generated by evaluating each rule with the changed rows as a semi-naive
delta at one body position (the delta-variant rules reuse the engine's
:class:`~repro.engines.datalog.planner.PlanCache`, so maintenance plans
are built once and participate in adaptive re-planning).  Negation flips
are caught by *positivised* rule variants: the negated atom is appended as
a positive delta atom over the negated relation's changed rows.  Because
candidate generation runs against the **union state** (old ∪ new — the
maintainer re-adds retracted rows for the duration of the pass), every
affected solution is found; each candidate is then verified *exactly*
against the old and the new state via per-row delta-set membership, which
filters the overestimate back down to the true change.

Aggregate rules (always non-recursive after stratification) are maintained
by re-evaluating just the affected rule at the new state and diffing its
output set against the previous one.

Programs the maintainer cannot handle — min/max subsumption, an aggregate
inside a recursive stratum — and any unexpected runtime error fall back
transparently to full re-derivation; the engine's ``full_rederive_count``
records every such fallback so tests can prove when IVM actually ran.
"""

from __future__ import annotations

from collections import defaultdict
from typing import TYPE_CHECKING, Dict, Iterator, List, Mapping, Optional, Set, Tuple

from repro.analysis.stratification import stratify
from repro.common.errors import ExecutionError
from repro.common.semantics import compare
from repro.dlir.core import (
    Atom,
    Comparison,
    Const,
    NegatedAtom,
    Param,
    Rule,
    Var,
    Wildcard,
)
from repro.engines.datalog.evaluation import (
    Bindings,
    aggregate_solutions,
    evaluate_term,
    rule_solutions,
)
from repro.engines.datalog.statistics import RelationStats
from repro.engines.datalog.storage import DeltaView

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (engine imports us lazily)
    from repro.engines.datalog.engine import DatalogEngine

Row = Tuple
RowSet = Set[Row]
Delta = Dict[str, RowSet]
DeltaInput = Mapping[str, RowSet]

#: prefix of maintenance-internal variables (freshened wildcards); stripped
#: from solution bindings before they reach aggregate computation
FRESH_PREFIX = "__ivm_"

_EMPTY: RowSet = frozenset()


class MaintenanceReport:
    """The per-relation row delta one maintenance pass applied to the store.

    ``added``/``removed`` map relation names to the rows that entered/left
    the relation, covering **both** the EDB input delta the caller applied
    and every *effective* IDB change the pass derived from it (counting
    0↔1 transitions, the DRed net effect after rescues, aggregate output
    diffs).  A relation absent from both maps did not change.  This is the
    hook the reactive subsystem consumes: a
    :class:`~repro.reactive.subscriptions.Subscription` answers "which
    result rows changed" by reading its query's output relation out of the
    report instead of re-running the query.

    ``full_rederive`` marks reports produced by diffing a full
    re-derivation against a pre-reset snapshot (the fallback for
    unmaintainable programs and bulk loads) — the delta is just as exact,
    it only cost more to compute.
    """

    __slots__ = ("added", "removed", "full_rederive")

    def __init__(
        self,
        added: Optional[Delta] = None,
        removed: Optional[Delta] = None,
        full_rederive: bool = False,
    ) -> None:
        self.added: Delta = added if added is not None else {}
        self.removed: Delta = removed if removed is not None else {}
        self.full_rederive = full_rederive

    def relations(self) -> Set[str]:
        """Return the names of every relation the pass changed."""
        return {
            name
            for mapping in (self.added, self.removed)
            for name, rows in mapping.items()
            if rows
        }

    def relation_delta(self, relation: str) -> Tuple[RowSet, RowSet]:
        """Return ``(added, removed)`` row sets for one relation."""
        return (
            set(self.added.get(relation, _EMPTY)),
            set(self.removed.get(relation, _EMPTY)),
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        def total(mapping: Delta) -> int:
            return sum(len(rows) for rows in mapping.values())

        return (
            f"MaintenanceReport(added={total(self.added)} rows, "
            f"removed={total(self.removed)} rows, "
            f"full_rederive={self.full_rederive})"
        )


class IVMError(ExecutionError):
    """Raised when incremental maintenance cannot proceed.

    The engine catches it (and any other maintenance-time error) and falls
    back to full re-derivation, bumping ``full_rederive_count``.
    """


class CountSidecar:
    """Derivation counts for relations maintained by the counting strategy.

    One mapping ``relation -> row -> count`` where ``count`` is the number
    of distinct derivations currently supporting the row (externally seeded
    rows on derived relations contribute one permanent derivation).  The
    sidecar is backend-agnostic: it rides next to the
    :class:`~repro.engines.datalog.storage.StoreBackend` (memory or SQLite
    alike) rather than inside it, so every backend gets identical counting
    semantics.  Invariants (pinned by the Hypothesis contract suite): counts
    never go negative, and a row is present in the store iff its count is
    positive (for counting-maintained relations).
    """

    def __init__(self) -> None:
        self._counts: Dict[str, Dict[Row, int]] = defaultdict(dict)

    def get(self, relation: str, row: Row) -> int:
        """Return the current derivation count of ``row`` (0 if unknown)."""
        return self._counts.get(relation, {}).get(row, 0)

    def set(self, relation: str, row: Row, count: int) -> None:
        """Set the derivation count of ``row``; dropping zeroes eagerly."""
        if count < 0:
            raise IVMError(
                f"derivation count for {relation}{row!r} would go negative"
            )
        if count == 0:
            self._counts.get(relation, {}).pop(row, None)
        else:
            self._counts[relation][row] = count

    def adjust(self, relation: str, row: Row, change: int) -> int:
        """Add ``change`` to the count of ``row``; return the new count."""
        new_count = self.get(relation, row) + change
        self.set(relation, row, new_count)
        return new_count

    def relation_counts(self, relation: str) -> Dict[Row, int]:
        """Return a copy of the per-row counts of ``relation``."""
        return dict(self._counts.get(relation, {}))

    def relations(self) -> List[str]:
        """Return the relations with at least one counted row."""
        return [name for name, rows in self._counts.items() if rows]

    def clear(self) -> None:
        """Drop every count (before re-priming)."""
        self._counts.clear()


def freshen_wildcards(rule: Rule) -> Rule:
    """Replace wildcards in the rule's **positive body atoms** with fresh
    variables (``__ivm_w0``, ``__ivm_w1``, ...).

    Counting needs this: a derivation must be identified by the concrete
    rows it matched, and a wildcard hides the matched row's value — two
    supports differing only in a wildcard column would collapse into one,
    and retracting either would (wrongly) delete the head tuple.  Returns
    the rule itself when there is nothing to freshen, so wildcard-free
    rules keep their identity (and their cached plans).
    """
    counter = 0
    changed = False
    body = []
    for literal in rule.body:
        if isinstance(literal, Atom):
            terms = []
            for term in literal.terms:
                if isinstance(term, Wildcard):
                    terms.append(Var(f"{FRESH_PREFIX}w{counter}"))
                    counter += 1
                    changed = True
                else:
                    terms.append(term)
            body.append(Atom(literal.relation, tuple(terms)))
        else:
            body.append(literal)
    if not changed:
        return rule
    return Rule(
        head=rule.head,
        body=tuple(body),
        aggregations=rule.aggregations,
        subsume_min=rule.subsume_min,
        subsume_max=rule.subsume_max,
    )


class _RuleInfo:
    """Per-rule maintenance machinery, built once and reused every run."""

    def __init__(self, rule: Rule, index: int) -> None:
        self.rule = rule
        self.index = index
        self.is_aggregate = bool(rule.aggregations)
        self.fresh_rule = freshen_wildcards(rule)
        self.positive_atoms: List[Atom] = self.fresh_rule.body_atoms()
        comparisons = self.fresh_rule.comparisons()
        negated = self.fresh_rule.negated_atoms()
        #: the variables a derivation is identified by: everything bound
        #: directly by a positive atom (all other bound variables are
        #: functions of these, so they add no discriminating power)
        self.key_vars: List[str] = sorted(
            {
                term.name
                for atom in self.positive_atoms
                for term in atom.terms
                if isinstance(term, Var)
            }
        )
        # The candidate rule: the positive body plus comparisons, negation
        # dropped.  Dropping negation can only ADD candidates (they are
        # verified exactly afterwards) and makes candidate generation
        # immune to negation checks that straddle the old/new states.
        self.cand_rule = Rule(
            head=self.fresh_rule.head,
            body=tuple(self.positive_atoms) + tuple(comparisons),
            aggregations=(),
        )
        #: positivised variants: ``(rule, delta position, negated relation)``
        #: — one per negated atom, with that atom appended as a positive
        #: delta atom so changes in the negated relation generate candidates
        self.variants: List[Tuple[Rule, int, str]] = []
        if not self.is_aggregate:
            for negation in negated:
                body = (
                    tuple(self.positive_atoms)
                    + (negation.atom,)
                    + tuple(comparisons)
                )
                self.variants.append(
                    (
                        Rule(head=self.fresh_rule.head, body=body, aggregations=()),
                        len(self.positive_atoms),
                        negation.atom.relation,
                    )
                )

    def head_row(self, binding: Bindings) -> Row:
        """Project one verified solution onto the head tuple."""
        return tuple(
            evaluate_term(term, binding) for term in self.fresh_rule.head.terms
        )


class _StratumInfo:
    """One stratum's relations, rules and chosen maintenance strategy."""

    def __init__(self, relations: Set[str], infos: List[_RuleInfo]) -> None:
        self.relations = relations
        self.infos = infos
        # Recursion is judged against the relations *defined* here: strata
        # from stratify() also contain the EDB relations the rules read,
        # and reading those must not force the DRed strategy.
        defined = {info.rule.head.relation for info in infos}
        self.defined = defined
        self.recursive = any(
            relation in defined
            for info in infos
            for relation in info.rule.referenced_relations()
        )
        #: relations whose statistics the stratum's candidate plans consume
        self.body_relations = sorted(
            {
                relation
                for info in infos
                for relation in info.rule.referenced_relations()
            }
        )

    def touched_by(self, added: Delta, removed: Delta) -> bool:
        """Whether any rule of this stratum reads a changed relation."""
        return any(
            relation in added or relation in removed
            for relation in self.body_relations
        )


class IncrementalMaintainer:
    """Per-stratum incremental maintenance over one engine's store.

    Built lazily by :class:`~repro.engines.datalog.engine.DatalogEngine`
    when it runs with ``ivm=True``.  :meth:`prime` (called at the end of
    every full derivation) recomputes the counting sidecar and the
    aggregate output snapshots from the store's exact current state;
    :meth:`maintain` then applies one EDB delta batch per call.
    """

    def __init__(self, engine: "DatalogEngine") -> None:
        self._engine = engine
        self._store = engine.store
        program = engine._program
        self.counts = CountSidecar()
        self.unmaintainable_reason: Optional[str] = None
        self._primed = False
        self._agg_output: Dict[int, RowSet] = {}
        self._add_delta: Delta = {}
        self._del_delta: Delta = {}
        # Rollback bookkeeping for the in-flight pass (see maintain()).
        self._input_added: Delta = {}
        self._readded: List[Tuple[str, Row]] = []
        self._applied_removals: List[Tuple[str, Row]] = []
        # Externally seeded rows on derived relations (ground fact clauses,
        # constructor-supplied seed facts) carry one derivation that no EDB
        # delta can retract.
        idb = set(program.idb_names())
        self._seed_rows: Dict[str, RowSet] = {}
        for relation, rows in program.facts.items():
            if relation in idb:
                self._seed_rows.setdefault(relation, set()).update(
                    tuple(row) for row in rows
                )
        for relation, rows in engine._seed_idb_facts.items():
            self._seed_rows.setdefault(relation, set()).update(
                tuple(row) for row in rows
            )
        self._strata: List[_StratumInfo] = []
        if any(
            rule.subsume_min is not None or rule.subsume_max is not None
            for rule in program.rules
        ):
            # Subsumption keeps only the best row per group: retracting the
            # incumbent needs the runner-up, which the store no longer has.
            self.unmaintainable_reason = "min/max subsumption rules"
            return
        infos = [_RuleInfo(rule, index) for index, rule in enumerate(program.rules)]
        for stratum in stratify(program):
            relations = set(stratum)
            stratum_infos = [
                info for info in infos if info.rule.head.relation in relations
            ]
            info = _StratumInfo(relations, stratum_infos)
            if info.recursive and any(i.is_aggregate for i in stratum_infos):
                self.unmaintainable_reason = "aggregate rule in a recursive stratum"
                return
            self._strata.append(info)

    # -- lifecycle ---------------------------------------------------------

    @property
    def maintainable(self) -> bool:
        """Whether this program can be maintained incrementally at all."""
        return self.unmaintainable_reason is None

    @property
    def primed(self) -> bool:
        """Whether the sidecar reflects the store's current derived state."""
        return self._primed

    def invalidate(self) -> None:
        """Drop the sidecar state (the engine's ``reset()`` calls this)."""
        self._primed = False

    def prime(self) -> None:
        """Recompute counts and aggregate snapshots from the current store.

        Called right after a full derivation, when the store holds exactly
        the derived state, so solution enumeration is exact.  Runs with
        throwaway plans (``plan=None``) on purpose: priming must not move
        the engine's ``plan_build_count``, which the warm-path tests pin.
        """
        if not self.maintainable:
            return
        self.counts.clear()
        self._agg_output = {}
        self._add_delta = {}
        self._del_delta = {}
        params = self._engine.parameters
        store = self._store
        for stratum in self._strata:
            if stratum.recursive:
                continue  # DRed needs no counts
            for info in stratum.infos:
                relation = info.rule.head.relation
                if info.is_aggregate:
                    output = self._aggregate_output(info, verify_new=False)
                    self._agg_output[info.index] = output
                    for row in output:
                        self.counts.adjust(relation, row, 1)
                    continue
                seen: Set[Row] = set()
                for binding in rule_solutions(
                    info.fresh_rule, store, params=params
                ):
                    key = tuple(binding[name] for name in info.key_vars)
                    if key in seen:
                        continue
                    seen.add(key)
                    self.counts.adjust(relation, info.head_row(binding), 1)
        counting_relations = {
            relation
            for stratum in self._strata
            if not stratum.recursive
            for relation in stratum.defined
        }
        for relation, rows in self._seed_rows.items():
            if relation in counting_relations:
                for row in rows:
                    self.counts.adjust(relation, row, 1)
        self._primed = True

    # -- the maintenance entry point ---------------------------------------

    def maintain(self, added: DeltaInput, removed: DeltaInput) -> MaintenanceReport:
        """Apply one EDB delta batch to the derived store.

        ``added`` rows must already be in the store and absent before the
        batch; ``removed`` rows must already be out of the store and
        present before (i.e. the caller applied the EDB change and passes
        the *effective* delta, the way :class:`repro.session.Session`
        tracks it).  On return the store holds exactly the new state's
        derivation, and the returned :class:`MaintenanceReport` lists every
        row that entered or left any relation (the EDB input plus the
        effective IDB changes).  Raises :class:`IVMError` (or anything
        else) to signal the engine's full-rederivation fallback — after
        **rolling back** its partial writes, so the store is left with the
        EDB at the new state and the IDB exactly at the old state and the
        engine can still report an exact delta by diffing around its
        re-derivation.
        """
        if not self.maintainable:
            raise IVMError(self.unmaintainable_reason or "unmaintainable program")
        if not self._primed:
            raise IVMError("maintainer is not primed — run the engine first")
        add_delta: Delta = {
            relation: {tuple(row) for row in rows}
            for relation, rows in added.items()
            if rows
        }
        del_delta: Delta = {
            relation: {tuple(row) for row in rows}
            for relation, rows in removed.items()
            if rows
        }
        for relation, rows in add_delta.items():
            if rows & del_delta.get(relation, _EMPTY):
                raise IVMError(
                    f"delta inserts and retracts the same {relation!r} row"
                )
        if not add_delta and not del_delta:
            return MaintenanceReport()
        store = self._store
        self._add_delta = add_delta
        self._del_delta = del_delta
        # Rollback bookkeeping.  The pass's only physical store writes are
        # (a) the union re-adds below, (b) effective IDB adds — every one
        # recorded in _add_delta — and (c) the final deferred-removal
        # batch.  Snapshotting the input delta and tracking (a)/(c) row by
        # row is therefore enough to restore the exact pre-pass IDB on
        # failure, at zero cost on the success path.
        self._input_added: Delta = {rel: set(rows) for rel, rows in add_delta.items()}
        readded: List[Tuple[str, Row]] = []
        self._readded = readded
        applied_removals: List[Tuple[str, Row]] = []
        self._applied_removals = applied_removals
        try:
            # Union state: retracted rows come back for the duration of the
            # maintenance pass, so candidate generation sees old ∪ new and
            # the old/new distinction reduces to delta-set membership per
            # row.
            with store.batch():
                for relation, rows in del_delta.items():
                    for row in rows:
                        if store.add(relation, row):
                            readded.append((relation, row))
            for stratum in self._strata:
                if not stratum.infos:
                    continue
                if not stratum.touched_by(self._add_delta, self._del_delta):
                    continue
                stats = self._engine._stats_snapshot(stratum.body_relations)
                if stratum.recursive:
                    self._maintain_dred(stratum, stats)
                else:
                    self._maintain_counting(stratum, stats)
            # All deferred removals at once: only now does the store leave
            # the union state and land exactly on the new state's
            # derivation.
            with store.batch():
                for relation, rows in self._del_delta.items():
                    for row in rows:
                        if store.remove(relation, row):
                            applied_removals.append((relation, row))
        except BaseException:
            self._rollback()
            raise
        report = MaintenanceReport(
            added={rel: set(rows) for rel, rows in self._add_delta.items() if rows},
            removed={rel: set(rows) for rel, rows in self._del_delta.items() if rows},
        )
        self._add_delta = {}
        self._del_delta = {}
        return report

    def _rollback(self) -> None:
        """Undo a failed pass's store writes: EDB → new state, IDB → old.

        Works because every physical removal is deferred to the one final
        batch — mid-pass the store only ever holds *additional* rows, each
        recorded as it lands.  The sidecar counts and aggregate snapshots
        are NOT restored; the pass is marked unprimed so the engine's
        fallback re-derivation re-primes them from scratch.
        """
        store = self._store
        try:
            with store.batch():
                # Put back whatever the final removal batch already took
                # out (only non-empty when the failure hit that batch).
                for relation, row in self._applied_removals:
                    store.add(relation, row)
                # Drop the rows the pass itself derived and inserted.
                for relation, rows in self._add_delta.items():
                    baseline = self._input_added.get(relation, _EMPTY)
                    for row in rows:
                        if row not in baseline:
                            store.remove(relation, row)
                # Undo the union re-adds: the retracted EDB rows leave
                # again, landing the EDB on the caller's new state.
                for relation, row in self._readded:
                    store.remove(relation, row)
        finally:
            self._add_delta = {}
            self._del_delta = {}
            # The sidecar may hold counts from the aborted pass; the next
            # prime() (after the engine's fallback re-derivation) fixes it.
            self._primed = False

    # -- state membership (old vs new) -------------------------------------

    def _excluded(self, old: bool) -> Delta:
        # The store holds the union state, so a row is in the OLD state
        # unless it was just added, and in the NEW state unless it is
        # pending removal.
        return self._add_delta if old else self._del_delta

    def _present(self, relation: str, row: Row, old: bool) -> bool:
        if row in self._excluded(old).get(relation, _EMPTY):
            return False
        return self._store.contains(relation, row)

    def _exists(self, atom: Atom, binding: Bindings, old: bool) -> bool:
        """Existential check: does any row match the atom's bound pattern?"""
        positions: List[int] = []
        key: List[object] = []
        for index, term in enumerate(atom.terms):
            try:
                value = evaluate_term(term, binding)
            except ExecutionError:
                continue  # wildcard or unbound (existential) position
            positions.append(index)
            key.append(value)
        rows = self._store.lookup(atom.relation, positions, tuple(key))
        excluded = self._excluded(old).get(atom.relation)
        if not excluded:
            return len(rows) > 0
        return any(tuple(row) not in excluded for row in rows)

    def _atom_holds(self, atom: Atom, binding: Bindings, old: bool) -> bool:
        values = []
        for term in atom.terms:
            try:
                values.append(evaluate_term(term, binding))
            except ExecutionError:
                # A wildcard column: fall back to the existential check.
                return self._exists(atom, binding, old)
        return self._present(atom.relation, tuple(values), old)

    def _binding_valid(self, rule: Rule, binding: Bindings, old: bool) -> bool:
        """Exact verification of one candidate solution against a state."""
        for literal in rule.body:
            if isinstance(literal, Atom):
                if not self._atom_holds(literal, binding, old):
                    return False
            elif isinstance(literal, NegatedAtom):
                if self._exists(literal.atom, binding, old):
                    return False
            elif isinstance(literal, Comparison):
                if not compare(
                    literal.op,
                    evaluate_term(literal.left, binding),
                    evaluate_term(literal.right, binding),
                ):
                    return False
        return True

    # -- candidate generation ----------------------------------------------

    def _changed_rows(self, relation: str) -> RowSet:
        return self._add_delta.get(relation, _EMPTY) | self._del_delta.get(
            relation, _EMPTY
        )

    def _solutions(
        self,
        rule: Rule,
        delta_index: int,
        delta_rows: RowSet,
        stats: Optional[Dict[str, RelationStats]],
    ) -> Iterator[Bindings]:
        """Evaluate one delta-variant rule through the engine's plan cache."""
        view = DeltaView(delta_rows)
        plan = self._engine._plan(rule, delta_index, len(view), stats=stats)
        return rule_solutions(
            rule,
            self._store,
            delta_index,
            view,
            plan=plan,
            params=self._engine.parameters,
        )

    def _candidate_solutions(
        self,
        info: _RuleInfo,
        pos_delta: Mapping[str, RowSet],
        neg_delta: Mapping[str, RowSet],
        stats: Optional[Dict[str, RelationStats]],
    ) -> Iterator[Bindings]:
        """Yield every solution that may have changed state.

        One semi-naive pass per positive body position whose relation is in
        ``pos_delta``, plus one per positivised negation variant whose
        negated relation is in ``neg_delta``.  Complete over the union
        state; duplicates and false positives are the caller's to filter.
        """
        for position, atom in enumerate(info.positive_atoms):
            rows = pos_delta.get(atom.relation)
            if rows:
                yield from self._solutions(info.cand_rule, position, rows, stats)
        for variant, position, negated_relation in info.variants:
            rows = neg_delta.get(negated_relation)
            if rows:
                yield from self._solutions(variant, position, rows, stats)

    # -- counting maintenance (non-recursive strata) -----------------------

    def _maintain_counting(
        self, stratum: _StratumInfo, stats: Optional[Dict[str, RelationStats]]
    ) -> None:
        changed = self._changed_map()
        count_delta: Dict[str, Dict[Row, int]] = defaultdict(
            lambda: defaultdict(int)
        )
        for info in stratum.infos:
            relation = info.rule.head.relation
            if info.is_aggregate:
                if not any(
                    name in changed for name in info.rule.referenced_relations()
                ):
                    continue
                new_output = self._aggregate_output(info, verify_new=True)
                old_output = self._agg_output.get(info.index, set())
                for row in old_output - new_output:
                    count_delta[relation][row] -= 1
                for row in new_output - old_output:
                    count_delta[relation][row] += 1
                self._agg_output[info.index] = new_output
                continue
            seen: Set[Row] = set()
            for binding in self._candidate_solutions(info, changed, changed, stats):
                key = tuple(binding[name] for name in info.key_vars)
                if key in seen:
                    continue
                seen.add(key)
                was_valid = self._binding_valid(info.fresh_rule, binding, old=True)
                is_valid = self._binding_valid(info.fresh_rule, binding, old=False)
                if was_valid == is_valid:
                    continue
                count_delta[relation][info.head_row(binding)] += (
                    1 if is_valid else -1
                )
        store = self._store
        with store.batch():
            for relation, per_row in count_delta.items():
                for row, change in per_row.items():
                    if not change:
                        continue
                    before = self.counts.get(relation, row)
                    after = before + change
                    if after < 0:
                        raise IVMError(
                            f"derivation count underflow for {relation}{row!r}"
                        )
                    self.counts.set(relation, row, after)
                    if before == 0 and after > 0:
                        if store.add(relation, row):
                            self._add_delta.setdefault(relation, set()).add(row)
                    elif before > 0 and after == 0:
                        # Deferred like every removal: the row stays in the
                        # union store until the end of the maintenance pass.
                        if store.contains(relation, row):
                            self._del_delta.setdefault(relation, set()).add(row)

    def _changed_map(self) -> Dict[str, RowSet]:
        changed: Dict[str, RowSet] = {}
        for relation in set(self._add_delta) | set(self._del_delta):
            rows = self._changed_rows(relation)
            if rows:
                changed[relation] = rows
        return changed

    # -- aggregate rules ---------------------------------------------------

    def _aggregate_output(self, info: _RuleInfo, verify_new: bool) -> RowSet:
        """Evaluate one aggregate rule's full output set.

        With ``verify_new`` the body solutions are enumerated over the
        union store and filtered down to the new state, preserving the
        exact solution *multiset* (wildcards are freshened, so each row
        combination yields its own binding; the fresh variables are
        stripped again before aggregation to restore the rule's original
        grouping semantics).
        """
        params = self._engine.parameters
        solutions: List[Bindings] = []
        strip = info.fresh_rule is not info.rule
        for binding in rule_solutions(info.fresh_rule, self._store, params=params):
            if verify_new and not self._binding_valid(
                info.fresh_rule, binding, old=False
            ):
                continue
            if strip:
                binding = {
                    name: value
                    for name, value in binding.items()
                    if not name.startswith(FRESH_PREFIX)
                }
            solutions.append(binding)
        return aggregate_solutions(info.rule, solutions, params=params)

    # -- DRed maintenance (recursive strata) -------------------------------

    def _maintain_dred(
        self, stratum: _StratumInfo, stats: Optional[Dict[str, RelationStats]]
    ) -> None:
        store = self._store
        # Phase 1 — over-delete: everything a deleted (or newly negated)
        # row could have contributed to, cascaded to fixpoint through the
        # stratum.  No verification: the estimate may only overshoot, and
        # re-derivation repairs the overshoot.
        deleted: Dict[str, RowSet] = defaultdict(set)

        def over_delete_pass(
            pos_delta: Mapping[str, RowSet], neg_delta: Mapping[str, RowSet]
        ) -> Dict[str, RowSet]:
            out: Dict[str, RowSet] = defaultdict(set)
            for info in stratum.infos:
                relation = info.rule.head.relation
                for binding in self._candidate_solutions(
                    info, pos_delta, neg_delta, stats
                ):
                    row = info.head_row(binding)
                    if row in deleted[relation] or row in out[relation]:
                        continue
                    if not store.contains(relation, row):
                        continue
                    out[relation].add(row)
            return out

        frontier = over_delete_pass(self._del_delta, self._add_delta)
        while any(frontier.values()):
            for relation, rows in frontier.items():
                deleted[relation].update(rows)
            frontier = over_delete_pass(frontier, {})
        for relation, rows in deleted.items():
            if rows:
                self._del_delta.setdefault(relation, set()).update(rows)

        # Phase 2 — re-derive: an over-deleted tuple survives if any rule
        # still derives it from the NEW state (which excludes the tuples
        # still pending removal).  Each rescued tuple can rescue others, so
        # iterate to fixpoint.
        changed = any(deleted.values())
        while changed:
            changed = False
            # Per-pass cache of "what does this rule derive at the new
            # state" for rules whose heads cannot be inverted.  Rescues
            # only grow the new state, so a stale entry underestimates and
            # the next pass recovers it — never the unsound direction.
            full_eval: Dict[int, RowSet] = {}
            for relation, rows in deleted.items():
                for row in list(rows):
                    if row in self._seed_rows.get(relation, _EMPTY):
                        rederived = True
                    else:
                        rederived = self._derivable_at_new(
                            stratum, relation, row, full_eval
                        )
                    if rederived:
                        rows.discard(row)
                        self._del_delta[relation].discard(row)
                        changed = True

        # Phase 3 — insert: semi-naive fixpoint over the additions (and
        # negation releases), verified against the new state.  An addition
        # that re-derives a still-pending deletion simply rescues it.
        def insert_pass(
            pos_delta: Mapping[str, RowSet], neg_delta: Mapping[str, RowSet]
        ) -> Dict[str, RowSet]:
            out: Dict[str, RowSet] = defaultdict(set)
            for info in stratum.infos:
                relation = info.rule.head.relation
                for binding in self._candidate_solutions(
                    info, pos_delta, neg_delta, stats
                ):
                    if not self._binding_valid(info.fresh_rule, binding, old=False):
                        continue
                    row = info.head_row(binding)
                    if row in out[relation]:
                        continue
                    if self._present(relation, row, old=False):
                        continue
                    out[relation].add(row)
            return out

        frontier = insert_pass(self._add_delta, self._del_delta)
        while any(frontier.values()):
            with store.batch():
                for relation, rows in frontier.items():
                    pending = self._del_delta.get(relation, _EMPTY)
                    for row in rows:
                        if row in pending:
                            pending.discard(row)  # rescued by a new derivation
                        elif store.add(relation, row):
                            self._add_delta.setdefault(relation, set()).add(row)
            frontier = insert_pass(frontier, {})

    def _derivable_at_new(
        self,
        stratum: _StratumInfo,
        relation: str,
        row: Row,
        full_eval: Dict[int, RowSet],
    ) -> bool:
        """Backward check: does any rule derive ``row`` at the new state?"""
        params = self._engine.parameters
        for info in stratum.infos:
            if info.rule.head.relation != relation:
                continue
            mapping: Dict[str, Const] = {}
            matches = True
            invertible = True
            for term, value in zip(info.fresh_rule.head.terms, row):
                if isinstance(term, Const):
                    if term.value != value:
                        matches = False
                        break
                elif isinstance(term, Var):
                    bound = mapping.get(term.name)
                    if bound is not None:
                        if bound.value != value:
                            matches = False
                            break
                    else:
                        mapping[term.name] = Const(value)
                elif isinstance(term, Param):
                    if params.get(term.name, object()) != value:
                        matches = False
                        break
                else:
                    # Computed head column (arithmetic): not invertible —
                    # fall back to evaluating the whole rule once.
                    invertible = False
                    break
            if not matches:
                continue
            if invertible:
                # Head-bound evaluation: substitute the tuple's values in
                # and look for the first body solution valid at new state.
                bound_rule = info.fresh_rule.substitute(mapping)
                for binding in rule_solutions(bound_rule, self._store, params=params):
                    if self._binding_valid(bound_rule, binding, old=False):
                        return True
                continue
            derived = full_eval.get(info.index)
            if derived is None:
                derived = set()
                for binding in rule_solutions(
                    info.fresh_rule, self._store, params=params
                ):
                    if self._binding_valid(info.fresh_rule, binding, old=False):
                        derived.add(info.head_row(binding))
                full_eval[info.index] = derived
            if row in derived:
                return True
        return False
