"""Standing queries and subscriptions over IVM deltas.

A :class:`~repro.session.Session` answers one query at a time; this module
turns it into a **standing-query system**: callers register a query (plus a
parameter binding) once and are *pushed* the ``(added, removed)`` result
rows after every mutation batch that changes the result — computed by the
engine's incremental maintainer in O(|Δ|), never by re-running the query.

The moving parts:

* Each distinct ``(compiled query, binding)`` pair gets one dedicated
  :class:`_StandingQuery` — its own :class:`~repro.session.PreparedQuery`
  (own IDB namespace on the shared store), continuously maintained and
  never disturbed by the caller's own ``run()`` calls.  Any number of
  :class:`Subscription`\\ s share one standing query, so K subscribers to
  the same query cost one maintenance pass, not K.
* :meth:`SubscriptionManager.flush` is the delivery point: every stale
  standing query syncs (``PreparedQuery.sync`` → the engine's
  :class:`~repro.engines.datalog.ivm.MaintenanceReport`), non-empty deltas
  become :class:`ResultDelta` notifications, and each live subscription's
  callback runs exactly once per committed batch.  Sessions flush
  automatically at the end of every ``insert``/``retract``/``ingest``
  (``auto_flush``); turn it off to coalesce batches and flush manually.
* Callbacks may themselves mutate the session (that is how
  :mod:`~repro.reactive.rules` actions cascade): the re-entrant flush is
  absorbed and the outer loop runs another round, to a bounded depth with
  repeated-delta cycle detection.

Exactness is anchored by the maintenance report: the incremental path
collects effective IDB row transitions, and every fallback (bulk ingest,
unmaintainable program, maintenance error) snapshots and diffs around the
re-derivation — so a delivered delta is always exactly the before/after
set difference of the standing query's result.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Set, Tuple

from repro.common.errors import RaqletError

Row = Tuple
DeltaCallback = Callable[["ResultDelta"], object]


class ReactiveError(RaqletError):
    """Base class for reactive-subsystem failures."""


class ReactiveCascadeError(ReactiveError):
    """A rule/subscription cascade exceeded the bounded flush depth."""


class ReactiveCycleError(ReactiveError):
    """A rule/subscription cascade repeated an identical delta — a cycle
    that would never converge (e.g. two actions endlessly undoing each
    other)."""


class ResultDelta:
    """One notification: the result rows a standing query gained and lost.

    ``added``/``removed`` are sorted row lists in the query's return-column
    order (``columns``); ``epoch`` is the session's delta-log epoch the delta
    brought the subscriber up to (for a serving worker, the shared epoch).  Exactly the before/after set difference
    of the query's full result — oracle-checked by the differential suite.
    """

    __slots__ = ("name", "columns", "added", "removed", "epoch")

    def __init__(
        self,
        name: str,
        columns: List[str],
        added: List[Row],
        removed: List[Row],
        epoch: int,
    ) -> None:
        self.name = name
        self.columns = columns
        self.added = added
        self.removed = removed
        self.epoch = epoch

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ResultDelta({self.name!r}, +{len(self.added)} "
            f"-{len(self.removed)} @epoch {self.epoch})"
        )


class Subscription:
    """One subscriber's handle on a standing query.

    Carries delivery counters (asserted by tests and surfaced by the
    serving stats), and :meth:`unsubscribe`.  Callback exceptions are
    caught and recorded (``error_count`` / ``last_error``) — a broken
    subscriber must never poison the session's mutation path or starve
    other subscribers.
    """

    def __init__(
        self,
        manager: "SubscriptionManager",
        standing: "_StandingQuery",
        callback: DeltaCallback,
        subscription_id: int,
    ) -> None:
        self._manager = manager
        self._standing = standing
        self._callback = callback
        self.id = subscription_id
        self.active = True
        #: how many notifications this subscription received
        self.delivery_count = 0
        #: total added / removed rows across all notifications
        self.rows_added = 0
        self.rows_removed = 0
        #: callback failures (the exception is kept, not raised)
        self.error_count = 0
        self.last_error: Optional[BaseException] = None

    @property
    def query_name(self) -> str:
        """Return the standing query's display name."""
        return self._standing.name

    def unsubscribe(self) -> None:
        """Stop deliveries; idempotent.  The standing query itself is torn
        down once its last subscription leaves."""
        self._manager.unsubscribe(self)

    def _deliver(self, delta: ResultDelta) -> None:
        self.delivery_count += 1
        self.rows_added += len(delta.added)
        self.rows_removed += len(delta.removed)
        try:
            self._callback(delta)
        except Exception as exc:  # noqa: BLE001 - recorded, never propagated
            self.error_count += 1
            self.last_error = exc

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "live" if self.active else "closed"
        return f"Subscription(#{self.id} on {self.query_name!r}, {state})"


class _StandingQuery:
    """One continuously-maintained ``(compiled query, binding)`` pair.

    Owns a dedicated :class:`~repro.session.PreparedQuery` so subscriber
    state can never be clobbered by the caller running the same query with
    other bindings.  ``sync()`` on the prepared query pins the session's
    delta log and reads deltas off maintenance reports.
    """

    def __init__(
        self,
        manager: "SubscriptionManager",
        key: Tuple[int, str],
        name: str,
        prepared,  # repro.session.PreparedQuery (dedicated instance)
        params: Dict[str, object],
    ) -> None:
        self.manager = manager
        self.key = key
        self.name = name
        self.prepared = prepared
        self.params = params
        self.subscriptions: List[Subscription] = []
        self.columns: List[str] = []
        #: how many times this standing query was brought current
        self.sync_count = 0

    def baseline(self) -> None:
        """Derive the initial result (not delivered — subscribers observe
        changes, not the initial state) and remember the return columns."""
        result = self.prepared.run(self.params)
        self.columns = list(result.columns)
        # Enrol in delta tracking *now* so the very next refresh — even a
        # cold one crossing a bulk ingest — reports its delta.
        self.prepared._track_deltas = True

    def stale(self) -> bool:
        """Whether the session has mutated past this query's derivation."""
        return (
            self.prepared._mutation_epoch
            != self.manager._session.mutation_epoch
        )

    def sync(self) -> Tuple[List[Row], List[Row]]:
        """Bring the derivation current; return the output-row delta."""
        self.sync_count += 1
        return self.prepared.sync(self.params)

    def delta_columns(self, rows: List[Row]) -> List[str]:
        """Return the column names for a delta (synthesised when the
        baseline result carried none)."""
        if self.columns or not rows:
            return self.columns
        self.columns = [f"c{index}" for index in range(len(rows[0]))]
        return self.columns

    def close(self) -> None:
        """Release the dedicated prepared query's log pin and IDB rows."""
        session = self.manager._session
        session._unregister_prepared(self.prepared)
        for relation in self.prepared.idb_relations:
            session.store.clear_relation(relation)


class SubscriptionManager:
    """The session-level hub: standing queries, subscriptions and rules.

    Reached as ``session.reactive`` (created lazily).  ``flush()`` is
    re-entrant-safe and runs rule/subscription cascades to a bounded
    depth; ``auto_flush`` (default True) makes every session mutation
    batch flush at its commit point.
    """

    def __init__(
        self,
        session,  # repro.session.Session
        auto_flush: bool = True,
        max_cascade_depth: int = 16,
    ) -> None:
        self._session = session
        self.auto_flush = auto_flush
        #: cascade rounds one flush may run before ReactiveCascadeError
        self.max_cascade_depth = max_cascade_depth
        self._standing: Dict[Tuple[int, str], _StandingQuery] = {}
        self._subscriptions: Dict[int, Subscription] = {}
        self._next_id = 1
        self._flushing = False
        #: reactive rules by name (managed by repro.reactive.rules)
        self.rules: Dict[str, object] = {}
        #: the action registry rule names resolve against
        self._actions = None
        #: flushes that delivered at least one notification / total flushes
        self.flush_count = 0
        #: notifications delivered across all subscriptions
        self.notification_count = 0

    # -- registry ----------------------------------------------------------

    @property
    def actions(self):
        """Return the session's :class:`~repro.reactive.rules.ActionRegistry`."""
        if self._actions is None:
            from repro.reactive.rules import ActionRegistry

            self._actions = ActionRegistry()
        return self._actions

    def register_action(self, name: str, fn=None):
        """Register a named action (usable as a decorator) — shorthand for
        ``manager.actions.register``."""
        return self.actions.register(name, fn)

    def add_rule(
        self,
        name: str,
        query,
        action: str,
        *,
        on: str = "added",
        parameters=None,
        **bindings: object,
    ):
        """Create a reactive rule: when ``query``'s result changes, run the
        registered ``action`` with the delta — see
        :func:`repro.reactive.rules.add_rule`."""
        from repro.reactive.rules import add_rule

        return add_rule(
            self, name, query, action, on=on, parameters=parameters, **bindings
        )

    def remove_rule(self, name: str) -> None:
        """Tear down a reactive rule and its subscription."""
        rule = self.rules.pop(name, None)
        if rule is None:
            raise ReactiveError(f"no reactive rule named {name!r}")
        rule.subscription.unsubscribe()

    # -- subscriptions -----------------------------------------------------

    def subscribe(
        self,
        query,
        callback: DeltaCallback,
        *,
        parameters=None,
        name: Optional[str] = None,
        **bindings: object,
    ) -> Subscription:
        """Attach ``callback`` to the standing query for ``(query, binding)``.

        ``query`` is query text, a compiled query, or a
        :class:`~repro.session.PreparedQuery` (whose compiled program is
        reused — the standing derivation itself stays private).  The
        initial result is derived as the baseline but **not** delivered:
        subscribers observe changes.  Identical ``(query, binding)`` pairs
        share one standing query and one maintenance pass per batch.
        """
        standing = self._standing_for(query, parameters, bindings, name)
        subscription = Subscription(self, standing, callback, self._next_id)
        self._next_id += 1
        standing.subscriptions.append(subscription)
        self._subscriptions[subscription.id] = subscription
        return subscription

    def unsubscribe(self, subscription: Subscription) -> None:
        """Detach one subscription; tears the standing query down with its
        last subscriber.  Idempotent."""
        if not subscription.active:
            return
        subscription.active = False
        self._subscriptions.pop(subscription.id, None)
        standing = subscription._standing
        try:
            standing.subscriptions.remove(subscription)
        except ValueError:  # pragma: no cover - defensive
            pass
        if not standing.subscriptions:
            self._standing.pop(standing.key, None)
            standing.close()

    @property
    def subscription_count(self) -> int:
        """Return how many subscriptions are live."""
        return len(self._subscriptions)

    @property
    def standing_count(self) -> int:
        """Return how many distinct standing queries are maintained."""
        return len(self._standing)

    def _standing_for(
        self,
        query,
        parameters,
        bindings,
        name: Optional[str],
    ) -> _StandingQuery:
        from repro.session import PreparedQuery

        if isinstance(query, PreparedQuery):
            compiled, optimized = query.compiled, query._optimized
        elif isinstance(query, str):
            template = self._session.prepare(query)
            compiled, optimized = template.compiled, template._optimized
        else:  # a CompiledQuery
            compiled, optimized = query, True
        resolved: Dict[str, object] = dict(parameters or {})
        resolved.update(bindings)
        # The binding is part of the standing query's identity.  repr() is
        # used (not hashing) so unhashable parameter values — rejected
        # later by the engine if truly unusable — cannot crash the lookup.
        binding_key = repr(sorted(resolved.items(), key=lambda item: item[0]))
        key = (id(compiled), binding_key)
        standing = self._standing.get(key)
        if standing is not None:
            return standing
        prepared = PreparedQuery(self._session, compiled, optimized)
        label = name or (
            (compiled.source_text or "").strip().splitlines()[0][:60]
            if getattr(compiled, "source_text", None)
            else f"standing-{len(self._standing) + 1}"
        )
        standing = _StandingQuery(self, key, label, prepared, resolved)
        standing.baseline()
        self._standing[key] = standing
        return standing

    # -- delivery ----------------------------------------------------------

    def flush(self) -> int:
        """Deliver every pending delta; return the notification count.

        Runs in rounds: each round syncs every stale standing query and
        delivers its non-empty delta to its subscribers.  Callbacks that
        mutate the session (rule actions) make more standing queries stale
        — the next round picks them up, bounded by ``max_cascade_depth``
        rounds and by repeated-delta cycle detection.  Re-entrant calls
        (a mutation inside a callback triggers ``auto_flush``) return 0
        immediately; the outer flush finishes the job.
        """
        if self._flushing:
            return 0
        self._flushing = True
        delivered = 0
        seen_deltas: Set[Tuple[Tuple[int, str], frozenset, frozenset]] = set()
        try:
            depth = 0
            while True:
                stale = [
                    standing
                    for standing in list(self._standing.values())
                    if standing.subscriptions and standing.stale()
                ]
                if not stale:
                    break
                depth += 1
                if depth > self.max_cascade_depth:
                    raise ReactiveCascadeError(
                        f"reactive cascade exceeded {self.max_cascade_depth} "
                        "rounds without converging (raise max_cascade_depth "
                        "or break the rule feedback loop)"
                    )
                for standing in stale:
                    added, removed = standing.sync()
                    if not added and not removed:
                        continue
                    signature = (
                        standing.key,
                        frozenset(added),
                        frozenset(removed),
                    )
                    if signature in seen_deltas:
                        raise ReactiveCycleError(
                            f"standing query {standing.name!r} produced the "
                            "same delta twice in one flush — a rule cycle "
                            "is endlessly re-deriving it"
                        )
                    seen_deltas.add(signature)
                    delta = ResultDelta(
                        standing.name,
                        standing.delta_columns(added or removed),
                        added,
                        removed,
                        self._session.mutation_epoch,
                    )
                    for subscription in list(standing.subscriptions):
                        if not subscription.active:
                            continue
                        subscription._deliver(delta)
                        delivered += 1
        finally:
            self._flushing = False
        if delivered:
            self.flush_count += 1
            self.notification_count += delivered
        return delivered

    # -- lifecycle ---------------------------------------------------------

    def close(self) -> None:
        """Unsubscribe everything (the session is closing)."""
        for subscription in list(self._subscriptions.values()):
            subscription.active = False
        self._subscriptions.clear()
        for standing in list(self._standing.values()):
            standing.subscriptions.clear()
        self._standing.clear()
        self.rules.clear()
