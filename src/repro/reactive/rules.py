"""Reactive rules: standing queries that trigger registered actions.

A reactive rule maps a query's result delta to an **action** — a named
Python callable registered in an :class:`ActionRegistry`.  The canonical
shape mirrors a Datalog trigger: the query's head relation is the event
(``High(s, v) :- Reading(s, v), v >= 95``), and the action fires with the
rows that entered (or left) that relation after each mutation batch.

Actions receive an :class:`ActionContext` and may themselves ``insert`` /
``retract`` on the session — deriving new facts (e.g. an ``alert`` EDB row)
that other standing queries and rules observe in turn.  Such cascades are
executed by :meth:`SubscriptionManager.flush`'s round loop, bounded by
``max_cascade_depth`` with repeated-delta cycle detection, so a feedback
loop fails loudly instead of spinning.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple

from repro.reactive.subscriptions import (
    ReactiveError,
    ResultDelta,
    Subscription,
)

Row = Tuple
Action = Callable[["ActionContext"], object]

_VALID_ON = ("added", "removed", "both")


class ActionRegistry:
    """Named actions reactive rules can fire.

    Rules reference actions by *name* and resolve them at fire time, so an
    action can be re-registered (hot-swapped) without touching the rules
    bound to it.  Usable as a decorator::

        @session.reactive.actions.register("page-oncall")
        def page(ctx):
            ...
    """

    def __init__(self) -> None:
        self._actions: Dict[str, Action] = {}

    def register(self, name: str, fn: Optional[Action] = None):
        """Register ``fn`` under ``name``; returns ``fn`` (decorator-style)
        or, when called with only a name, a decorator."""
        if fn is None:
            def decorator(inner: Action) -> Action:
                self._actions[name] = inner
                return inner

            return decorator
        self._actions[name] = fn
        return fn

    def get(self, name: str) -> Action:
        """Resolve an action by name (``ReactiveError`` when unknown)."""
        try:
            return self._actions[name]
        except KeyError:
            raise ReactiveError(f"no registered action named {name!r}") from None

    def __contains__(self, name: str) -> bool:
        return name in self._actions


class ActionContext:
    """Everything an action sees when its rule fires.

    ``rows`` is the slice of the delta the rule's ``on`` selector matched
    (added rows, removed rows, or — for ``on="both"`` — added rows; the
    full :class:`ResultDelta` is always available as ``delta``).  The
    session is exposed for follow-on mutations; those cascade through the
    current flush's next round.
    """

    __slots__ = ("session", "rule", "delta", "rows")

    def __init__(
        self,
        session,
        rule: "ReactiveRule",
        delta: ResultDelta,
        rows: List[Row],
    ) -> None:
        self.session = session
        self.rule = rule
        self.delta = delta
        self.rows = rows


class ReactiveRule:
    """One trigger: head-relation delta → registered action.

    ``fire_count`` counts action invocations; action exceptions surface on
    the underlying subscription's ``error_count``/``last_error`` (delivery
    is isolated exactly like any subscriber callback).
    """

    def __init__(
        self,
        manager,  # SubscriptionManager
        name: str,
        action: str,
        on: str,
    ) -> None:
        self.manager = manager
        self.name = name
        self.action = action
        self.on = on
        self.fire_count = 0
        self.subscription: Subscription = None  # type: ignore[assignment]

    def _on_delta(self, delta: ResultDelta) -> None:
        if self.on == "added":
            rows = delta.added
        elif self.on == "removed":
            rows = delta.removed
        else:
            rows = delta.added
        if self.on != "both" and not rows:
            return
        fn = self.manager.actions.get(self.action)
        self.fire_count += 1
        fn(ActionContext(self.manager._session, self, delta, rows))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ReactiveRule({self.name!r} -> {self.action!r} on={self.on}, "
            f"fired {self.fire_count}x)"
        )


def add_rule(
    manager,
    name: str,
    query,
    action: str,
    *,
    on: str = "added",
    parameters=None,
    **bindings: object,
) -> ReactiveRule:
    """Create and register a reactive rule on ``manager``.

    ``query`` is anything :meth:`SubscriptionManager.subscribe` accepts;
    ``action`` must already be registered (validated here so a typo fails
    at rule-definition time, not on the first matching mutation).  ``on``
    selects which side of the delta triggers: ``"added"`` (default),
    ``"removed"``, or ``"both"`` (fires on any change).
    """
    if on not in _VALID_ON:
        raise ReactiveError(
            f"invalid rule trigger on={on!r}; expected one of {_VALID_ON}"
        )
    if name in manager.rules:
        raise ReactiveError(f"a reactive rule named {name!r} already exists")
    manager.actions.get(action)  # validate eagerly
    rule = ReactiveRule(manager, name, action, on)
    rule.subscription = manager.subscribe(
        query, rule._on_delta, parameters=parameters, name=name, **bindings
    )
    manager.rules[name] = rule
    return rule
