"""Reactive layer: standing queries, subscriptions and rules.

Built on the Datalog engine's incremental view maintenance: a mutation
batch yields a :class:`~repro.engines.datalog.ivm.MaintenanceReport` of
effective result-row changes, which this package routes to subscribers
(:mod:`~repro.reactive.subscriptions`) and trigger actions
(:mod:`~repro.reactive.rules`) — without ever re-running the standing
queries.  Delivery is pushed by the write itself: a session flushes at the
end of each mutation batch, and a shared EDB calls its serving pools'
listeners after each effective batch.
"""

from repro.reactive.rules import ActionContext, ActionRegistry, ReactiveRule
from repro.reactive.subscriptions import (
    ReactiveCascadeError,
    ReactiveCycleError,
    ReactiveError,
    ResultDelta,
    Subscription,
    SubscriptionManager,
)

__all__ = [
    "ActionContext",
    "ActionRegistry",
    "ReactiveCascadeError",
    "ReactiveCycleError",
    "ReactiveError",
    "ReactiveRule",
    "ResultDelta",
    "Subscription",
    "SubscriptionManager",
]
