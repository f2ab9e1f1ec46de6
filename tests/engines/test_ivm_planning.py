"""Planning work per mutation is constant in graph size.

Incremental maintenance plans each delta rule it runs once, through the
engine's :class:`~repro.engines.datalog.planner.PlanCache`, and reuses the
plan on every later mutation.  So once one retract+insert cycle has warmed
the cache, further cycles must call :func:`planner.plan_rule` zero times
and leave ``engine.plan_build_count`` flat — at 40 persons and at 120, for
the counting-maintained ``fof`` and the DRed-maintained ``reach``.
"""

from __future__ import annotations

import sys

import pytest

from repro.engines.datalog import planner
from repro.ldbc import generate_snb_dataset, snb_schema_mapping
from repro.ldbc import queries
from repro.pipeline import Raqlet

STATEMENTS = {
    "reach": queries.FRIEND_REACHABILITY,
    "fof": queries.FRIENDS_OF_FRIENDS,
}
KNOWS = "Person_KNOWS_Person"
STEADY_CYCLES = 3


@pytest.fixture
def plan_rule_calls(monkeypatch):
    """Count every ``plan_rule`` call, whichever module makes it."""
    calls = []
    original = planner.plan_rule

    def counting(*args, **kwargs):
        calls.append(args[0])
        return original(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name.startswith("repro") and getattr(module, "plan_rule", None) is original:
            monkeypatch.setattr(module, "plan_rule", counting)
    return calls


@pytest.mark.parametrize("store", ["memory", "sqlite"])
@pytest.mark.parametrize("scale", [40, 120])
def test_steady_state_maintenance_plans_nothing(store, scale, plan_rule_calls):
    raqlet = Raqlet(snb_schema_mapping())
    dataset = generate_snb_dataset(scale, 7)
    edge = sorted(dataset.relation(KNOWS))[0]
    params = {"personId": edge[0]}
    with raqlet.session(dataset.facts, store=store) as session:
        prepared = {
            name: session.prepare(raqlet.compile_cypher(text))
            for name, text in STATEMENTS.items()
        }
        baseline = {name: set(query.run(params).rows) for name, query in prepared.items()}

        def cycle():
            assert session.retract(KNOWS, [edge]) == 1
            for query in prepared.values():
                query.run(params)
            assert session.insert(KNOWS, [edge]) == 1
            for name, query in prepared.items():
                assert set(query.run(params).rows) == baseline[name]

        cycle()  # warm-up: builds every maintenance plan once
        builds = {name: query.engine.plan_build_count for name, query in prepared.items()}
        del plan_rule_calls[:]
        for _ in range(STEADY_CYCLES):
            cycle()
        assert plan_rule_calls == [], (
            f"{store}@{scale}: steady-state maintenance planned "
            f"{len(plan_rule_calls)} rules, e.g. {plan_rule_calls[0]}"
        )
        for name, query in prepared.items():
            engine = query.engine
            assert engine.plan_build_count == builds[name], name
            assert engine.maintain_count == 2 * (1 + STEADY_CYCLES), name
            assert engine.full_rederive_count == 0, name
