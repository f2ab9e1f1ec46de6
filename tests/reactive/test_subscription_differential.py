"""Differential testing for subscription deltas.

Every seeded random Datalog program from the cross-backend harness
(:mod:`tests.engines.test_store_differential` — recursion, stratified
negation, aggregates, arithmetic, constants, wildcards) runs as a set of
standing queries, one subscription per IDB relation, over a scripted
stream of mutations on the ``edge`` EDB.

The oracle is independent of the whole reactive stack: after every step
the naive evaluator recomputes each relation's full result from scratch,
and the set difference against the previous step's full result must equal
**exactly** the ``(added, removed)`` delta the subscription delivered —
or no delivery at all when the diff is empty.  The script mixes
maintainable batches with bulk ``ingest`` steps (the delta-log sentinel
that forces the snapshot/diff re-derivation fallback), so both the
incremental path and the fallback path are held to the same bar, on every
executor × store combination — once at the default re-plan threshold and
once re-planning on every drift check.
"""

from __future__ import annotations

import random
from dataclasses import replace

import pytest

from repro.engines.datalog import planner
from repro.pipeline import Raqlet

from tests.engines.test_store_differential import (
    HAVE_NUMPY,
    _random_case,
    naive_evaluate,
)

SCHEMA = """
CREATE GRAPH {
  (nodeType : Node { id INT })
}
"""

EXECUTORS = ("compiled",) + (("columnar",) if HAVE_NUMPY else ())
COMBINATIONS = [
    (executor, store) for executor in EXECUTORS for store in ("memory", "sqlite")
]

#: enough seeds to cover every generator feature (recursion flavours ×
#: negation/aggregate/arithmetic/constant/wildcard) on every combination
SEEDS = range(0, 32, 2)

#: mutation steps per seed; step 3 is a bulk ingest (fallback coverage)
STEPS = 6
INGEST_STEP = 3


def _mutation_script(rng: random.Random, nodes: int):
    """Yield ``(kind, rows)`` steps over the ``edge`` relation."""
    for step in range(STEPS):
        rows = {
            (rng.randrange(nodes), rng.randrange(nodes))
            for _ in range(rng.randrange(1, 4))
        }
        if step == INGEST_STEP:
            yield "ingest", sorted(rows)
        elif rng.random() < 0.35:
            yield "retract", sorted(rows)
        else:
            yield "insert", sorted(rows)


@pytest.mark.parametrize("seed", SEEDS)
def test_subscription_deltas_match_full_rediff_oracle(seed):
    _replay_against_oracle(seed)


@pytest.mark.parametrize("seed", SEEDS)
def test_subscription_deltas_under_always_replanning(seed, monkeypatch):
    """Every maintenance pass and subscription delta rides freshly rebuilt
    plans."""
    monkeypatch.setattr(planner, "REPLAN_THRESHOLD", 1.0)
    _replay_against_oracle(seed)


def _replay_against_oracle(seed):
    program, facts, idbs = _random_case(seed)
    raqlet = Raqlet(SCHEMA)
    for executor, store in COMBINATIONS:
        rng = random.Random(1000 + seed)
        nodes = max(
            (max(edge) + 1 for edge in facts["edge"]), default=4
        )
        session = raqlet.session(store=store, executor=executor)
        try:
            if facts["edge"]:
                session.insert("edge", facts["edge"])
            deliveries = {relation: [] for relation in idbs}
            for relation in idbs:
                compiled = raqlet.compile_dlir(
                    replace(program, outputs=[relation]), optimize=False
                )
                session.subscribe(
                    compiled,
                    lambda delta, _relation=relation: deliveries[_relation].append(
                        (set(delta.added), set(delta.removed))
                    ),
                )
            state = {
                relation: rows
                for relation, rows in naive_evaluate(program, facts).items()
            }
            edges = set(facts["edge"])
            for kind, rows in _mutation_script(rng, nodes):
                if kind == "insert":
                    session.insert("edge", rows)
                    edges.update(rows)
                elif kind == "retract":
                    session.retract("edge", rows)
                    edges.difference_update(rows)
                else:
                    session.ingest({"edge": rows})
                    edges.update(rows)
                oracle = naive_evaluate(program, {"edge": sorted(edges)})
                for relation in idbs:
                    before = state.get(relation, set())
                    after = oracle.get(relation, set())
                    added, removed = after - before, before - after
                    got = deliveries[relation]
                    label = (
                        f"seed {seed}, {executor} on {store}, {relation!r}, "
                        f"step {kind} {rows}"
                    )
                    if added or removed:
                        assert got, f"{label}: delta {added}/{removed} not delivered"
                        assert got[-1] == (added, removed), (
                            f"{label}: delivered {got[-1]}, oracle says "
                            f"({added}, {removed})"
                        )
                        deliveries[relation].clear()
                    else:
                        assert not got, f"{label}: spurious delivery {got}"
                    state[relation] = after
        finally:
            session.close()


@pytest.mark.parametrize("seed", (0, 7, 13))
def test_fallback_steps_are_counted(seed):
    """The bulk-ingest step must route through the counted re-derivation
    fallback — deltas stay exact (asserted above) and the event is visible,
    never silently absorbed."""
    program, facts, idbs = _random_case(seed)
    raqlet = Raqlet(SCHEMA)
    session = raqlet.session()
    try:
        if facts["edge"]:
            session.insert("edge", facts["edge"])
        for relation in idbs:
            compiled = raqlet.compile_dlir(
                replace(program, outputs=[relation]), optimize=False
            )
            session.subscribe(compiled, lambda delta: None)
        session.ingest({"edge": [(97, 98), (98, 99)]})
        engines = [prepared.engine for prepared in session._all_prepared]
        assert sum(engine.full_rederive_count for engine in engines) == len(idbs)
    finally:
        session.close()
