"""Mutation-sequence differential harness for incremental view maintenance.

Every seeded program from the cross-backend differential generator is run
through a deterministic script of interleaved ``insert``/``retract``/query
steps.  After **every** mutation the incrementally maintained store must be
set-equal — on every IDB relation — to a from-scratch re-derivation oracle
(:func:`tests.engines.test_store_differential.naive_evaluate`) of the
mutated EDB, across {interpreted, compiled, columnar} × {memory, sqlite}
(the columnar leg joins whenever NumPy is importable), once at the default
re-plan threshold and once re-planning on every drift check.  The
engine counters prove the property is not vacuous: every generated program
is maintainable, so ``full_rederive_count`` must stay 0 and
``maintain_count`` must equal the number of applied mutations — the
results came out of the counting/DRed maintenance paths, not from hidden
re-derivations.

The generated corpus covers recursion (linear, non-linear, guarded),
negation, aggregation (count/sum/min/max/avg, count(*), distinct),
arithmetic, constants and wildcards — exactly the feature interactions
where delete-and-rederive bugs (over-deletion, counting drift, negation
flips) hide.
"""

from __future__ import annotations

import random

import pytest

from repro import Raqlet
from repro.dlir.builder import ProgramBuilder
from repro.engines.datalog import DatalogEngine, planner
from repro.frontend.datalog import parse_datalog

from tests.engines.test_store_differential import (
    COMBINATIONS,
    _random_case,
    naive_evaluate,
)

#: ≥ 30 seeds, each mutated MUTATION_STEPS times on every executor × store combo
SEEDS = range(32)
MUTATION_STEPS = 12
STORES = ("memory", "sqlite")


def _mutation_script(seed, initial_edges, nodes=8):
    """Return a deterministic list of ``("insert" | "retract", row)`` steps.

    Roughly half the steps retract a currently-present edge (favouring the
    interesting case: deletions are where over-deletion and counting bugs
    live); the rest insert a row that is currently absent.  The script is a
    pure function of the seed, so every backend combination replays the
    same sequence.
    """
    rng = random.Random(10_000 + seed)
    current = set(initial_edges)
    script = []
    while len(script) < MUTATION_STEPS:
        if current and rng.random() < 0.5:
            row = rng.choice(sorted(current))
            current.discard(row)
            script.append(("retract", row))
        else:
            row = (rng.randrange(nodes), rng.randrange(nodes))
            if row in current:
                continue
            current.add(row)
            script.append(("insert", row))
    return script


@pytest.mark.parametrize("seed", SEEDS)
def test_mutation_sequence_matches_rederivation_oracle(seed):
    _replay_against_oracle(seed)


@pytest.mark.parametrize("seed", SEEDS)
def test_mutation_sequence_under_always_replanning(seed, monkeypatch):
    """Every maintenance pass and delta rule rides freshly rebuilt plans."""
    monkeypatch.setattr(planner, "REPLAN_THRESHOLD", 1.0)
    _replay_against_oracle(seed)


def _replay_against_oracle(seed):
    program, facts, idbs = _random_case(seed)
    script = _mutation_script(seed, facts["edge"])
    for executor, store in COMBINATIONS:
        engine = DatalogEngine(
            program, facts, store=store, executor=executor, ivm=True
        )
        engine.run()
        edges = set(facts["edge"])
        for step, (action, row) in enumerate(script):
            if action == "retract":
                assert engine.store.remove("edge", row), (
                    f"seed {seed}: script retracts an absent row {row}"
                )
                edges.discard(row)
                engine.maintain({}, {"edge": {row}})
            else:
                assert engine.store.add("edge", row), (
                    f"seed {seed}: script inserts a present row {row}"
                )
                edges.add(row)
                engine.maintain({"edge": {row}}, {})
            oracle = naive_evaluate(program, {"edge": sorted(edges)})
            for relation in idbs:
                assert set(engine.store.scan(relation)) == oracle.get(
                    relation, set()
                ), (
                    f"seed {seed}: {executor}/{store} diverged from the "
                    f"re-derivation oracle on {relation!r} after step {step} "
                    f"({action} {row})"
                )
        # The counters prove IVM (not hidden re-derivation) produced the
        # results: every generated program is maintainable.
        assert engine.maintain_count == len(script), (
            f"seed {seed}: {executor}/{store} maintained "
            f"{engine.maintain_count}/{len(script)} mutations incrementally"
        )
        assert engine.full_rederive_count == 0, (
            f"seed {seed}: {executor}/{store} fell back to full "
            "re-derivation on a maintainable program"
        )
        assert engine.reset_count == 0
        engine.store.close()


@pytest.mark.parametrize("seed", range(0, 32, 2))
def test_maintenance_report_equals_snapshot_diff(seed):
    """``engine.maintain`` must *report* exactly what it changed.

    At every step of the mutation script the returned
    :class:`MaintenanceReport` is checked against an independent
    before/after snapshot diff of every IDB relation — the contract the
    reactive subscription layer is built on.
    """
    program, facts, idbs = _random_case(seed)
    script = _mutation_script(seed, facts["edge"])
    for store in STORES:
        _check_reports_against_snapshots(program, facts, idbs, script, store)


def _check_reports_against_snapshots(program, facts, idbs, script, store):
    engine = DatalogEngine(program, facts, store=store, ivm=True)
    engine.run()
    for step, (action, row) in enumerate(script):
        before = {relation: set(engine.store.scan(relation)) for relation in idbs}
        if action == "retract":
            engine.store.remove("edge", row)
            report = engine.maintain({}, {"edge": {row}})
        else:
            engine.store.add("edge", row)
            report = engine.maintain({"edge": {row}}, {})
        assert not report.full_rederive
        for relation in idbs:
            added, removed = report.relation_delta(relation)
            after = set(engine.store.scan(relation))
            assert added == after - before[relation], (
                f"{store} step {step} ({action} {row}): report added "
                f"{added} but the store gained {after - before[relation]} "
                f"on {relation!r}"
            )
            assert removed == before[relation] - after, (
                f"{store} step {step} ({action} {row}): report removed "
                f"{removed} but the store lost {before[relation] - after} "
                f"on {relation!r}"
            )
        # A reported relation carries a non-empty delta on at least a side.
        for relation in report.relations():
            added, removed = report.relation_delta(relation)
            assert added or removed
    engine.store.close()


@pytest.mark.parametrize("seed", (0, 5, 11))
def test_fallback_report_equals_snapshot_diff(seed, monkeypatch):
    """When maintenance errors out, the counted re-derivation fallback must
    report the same exact delta a successful pass would have."""
    from repro.engines.datalog import ivm

    def explode(self, added, removed):
        raise RuntimeError("forced maintenance failure")

    monkeypatch.setattr(ivm.IncrementalMaintainer, "maintain", explode)
    program, facts, idbs = _random_case(seed)
    for store in STORES:
        engine = DatalogEngine(program, facts, store=store, ivm=True)
        engine.run()
        before = {relation: set(engine.store.scan(relation)) for relation in idbs}
        row = (0, 1)
        fresh = engine.store.add("edge", row)
        report = engine.maintain({"edge": {row}} if fresh else {}, {})
        assert report.full_rederive
        assert engine.full_rederive_count == 1
        assert engine.maintain_count == 0
        for relation in idbs:
            added, removed = report.relation_delta(relation)
            after = set(engine.store.scan(relation))
            assert added == after - before[relation]
            assert removed == before[relation] - after
        engine.store.close()


def test_corpus_covers_negation_and_aggregates():
    """The sampled seeds must include negation and aggregate programs."""
    with_negation = with_aggregate = with_recursion = 0
    for seed in SEEDS:
        program, _facts, _idbs = _random_case(seed)
        if any(rule.has_negation() for rule in program.rules):
            with_negation += 1
        if any(rule.has_aggregation() for rule in program.rules):
            with_aggregate += 1
        relations = {rule.head.relation for rule in program.rules}
        if any(
            name in relations
            for rule in program.rules
            for name in rule.referenced_relations()
        ):
            with_recursion += 1
    assert with_negation >= 3
    assert with_aggregate >= 3
    assert with_recursion >= 3


# -- the over-deletion regression (pinned before DRed was wired) ------------


def test_retract_keeps_alternately_derived_row_nonrecursive():
    """Counting: a head row with two supports survives losing one.

    ``t(x) :- edge(x, _)`` derives ``t(1)`` from both (1, 2) and (1, 3);
    retracting (1, 2) must keep ``t(1)`` (the naive "delete what the
    retracted row derived" strategy would drop it).
    """


    builder = ProgramBuilder()
    builder.edb("edge", [("a", "number"), ("b", "number")])
    builder.idb("t", [("a", "number")])
    builder.rule("t", ["x"], [("edge", ["x", "_"])])
    program = builder.output("t").build()
    for executor, store in COMBINATIONS:
        engine = DatalogEngine(
            program,
            {"edge": [(1, 2), (1, 3), (4, 5)]},
            store=store,
            executor=executor,
            ivm=True,
        )
        engine.run()
        engine.store.remove("edge", (1, 2))
        engine.maintain({}, {"edge": {(1, 2)}})
        assert set(engine.store.scan("t")) == {(1,), (4,)}
        assert engine.maintain_count == 1
        assert engine.full_rederive_count == 0
        # and losing the last support does delete the row
        engine.store.remove("edge", (1, 3))
        engine.maintain({}, {"edge": {(1, 3)}})
        assert set(engine.store.scan("t")) == {(4,)}
        engine.store.close()


def test_retract_keeps_rederivable_row_recursive():
    """DRed: over-deletion must be repaired by re-derivation.

    With edges 1→2, 1→3, 3→2 the closure contains path(1, 2) twice over
    (directly and via 3).  Retracting edge (1, 2) over-deletes path(1, 2)
    in DRed's first phase; the re-derivation phase must bring it back.
    """


    builder = ProgramBuilder()
    builder.edb("edge", [("a", "number"), ("b", "number")])
    builder.idb("path", [("a", "number"), ("b", "number")])
    builder.rule("path", ["x", "y"], [("edge", ["x", "y"])])
    builder.rule("path", ["x", "y"], [("path", ["x", "z"]), ("edge", ["z", "y"])])
    program = builder.output("path").build()
    for executor, store in COMBINATIONS:
        engine = DatalogEngine(
            program,
            {"edge": [(1, 2), (1, 3), (3, 2)]},
            store=store,
            executor=executor,
            ivm=True,
        )
        engine.run()
        engine.store.remove("edge", (1, 2))
        engine.maintain({}, {"edge": {(1, 2)}})
        assert set(engine.store.scan("path")) == {(1, 3), (3, 2), (1, 2)}, (
            f"{executor}/{store}: path(1,2) is still derivable via 1→3→2 "
            "and must survive the retraction of the direct edge"
        )
        assert engine.maintain_count == 1
        assert engine.full_rederive_count == 0
        engine.store.close()


#: DRed rule shapes the generated corpus does not reach: a computed head
#: (no rescue rule — re-derived by running the whole rule), a repeated head
#: variable, a constant head column and negation inside a recursive stratum
RESCUE_SHAPES = """
.decl edge(a:number, b:number)
.input edge
.decl blocked(a:number)
.input blocked
.decl hops(a:number, b:number, n:number)
.decl loop(a:number, b:number)
.decl tagged(t:symbol, a:number)
hops(x, y, 1) :- edge(x, y).
hops(x, y, n + 1) :- hops(x, z, n), edge(z, y), n < 3.
loop(x, x) :- hops(x, x, _).
loop(x, y) :- loop(x, z), edge(z, y), !blocked(y).
tagged("t", y) :- edge(0, y).
tagged("t", y) :- tagged("t", x), edge(x, y), !blocked(y).
.output hops
"""


def test_dred_rescue_matches_oracle_on_every_head_shape():
    program = parse_datalog(RESCUE_SHAPES)
    rng = random.Random(3)
    facts = {
        "edge": sorted({(rng.randrange(6), rng.randrange(6)) for _ in range(12)}),
        "blocked": [(1,)],
    }
    for executor, store in COMBINATIONS:
        engine = DatalogEngine(program, facts, store=store, executor=executor, ivm=True)
        engine.run()
        fallbacks = engine.executor_fallback_count
        current = {relation: set(rows) for relation, rows in facts.items()}
        script = random.Random(7)
        for step in range(30):
            if script.random() < 0.3:
                relation, row = "blocked", (script.randrange(6),)
            else:
                relation, row = "edge", (script.randrange(6), script.randrange(6))
            if row in current[relation]:
                engine.store.remove(relation, row)
                current[relation].discard(row)
                engine.maintain({}, {relation: {row}})
            else:
                engine.store.add(relation, row)
                current[relation].add(row)
                engine.maintain({relation: {row}}, {})
            oracle = naive_evaluate(
                program, {name: sorted(rows) for name, rows in current.items()}
            )
            for relation in ("hops", "loop", "tagged"):
                assert set(engine.store.scan(relation)) == oracle.get(
                    relation, set()
                ), f"{executor}/{store} step {step}: {relation} diverged"
        assert engine.full_rederive_count == 0
        # Maintenance plans run on a compiled executor of the maintainer's
        # own under columnar: a routing decision, not a counted fallback.
        assert engine.executor_fallback_count == fallbacks
        engine.store.close()


def test_session_retract_keeps_still_derivable_row():
    """The session path must not over-delete either (ISSUE satellite: a
    retracted fact that also matches a rule head keeps the derived row
    alive while another derivation exists)."""
    schema = """
    CREATE GRAPH {
      (personType : Person { id INT, firstName STRING, locationIP STRING }),
      (:personType)-[knowsType : knows { id INT }]->(:personType)
    }
    """
    facts = {
        "Person": [
            (1, "a", "ip1"),
            (2, "b", "ip2"),
            (3, "c", "ip3"),
        ],
        "Person_KNOWS_Person": [(1, 2, 10), (1, 3, 11), (3, 2, 12)],
    }
    raqlet = Raqlet(schema)
    with raqlet.session(facts) as session:
        prepared = session.prepare(
            """
            MATCH (a:Person {id: $src})-[:KNOWS*]->(b:Person)
            RETURN DISTINCT b.id AS reachable
            """
        )
        assert set(prepared.run(src=1).rows) == {(2,), (3,)}
        # 2 is reachable both directly and via 3; losing the direct edge
        # must keep it reachable.
        assert session.retract("Person_KNOWS_Person", [(1, 2, 10)]) == 1
        assert set(prepared.run(src=1).rows) == {(2,), (3,)}
        engine = prepared.engine
        assert engine.maintain_count == 1
        assert engine.full_rederive_count == 0
        # and severing the remaining support does remove it
        assert session.retract("Person_KNOWS_Person", [(3, 2, 12)]) == 1
        assert set(prepared.run(src=1).rows) == {(3,)}
        assert engine.maintain_count == 2
        assert engine.full_rederive_count == 0


def test_session_mutations_use_maintenance_not_rederivation():
    """Interleaved session insert/retract/read: results stay correct and the
    reset counter proves reads after mutations ran the maintenance path."""
    schema = """
    CREATE GRAPH {
      (personType : Person { id INT, firstName STRING, locationIP STRING }),
      (:personType)-[knowsType : knows { id INT }]->(:personType)
    }
    """
    facts = {
        "Person": [(i, f"p{i}", f"ip{i}") for i in range(1, 6)],
        "Person_KNOWS_Person": [(1, 2, 10), (2, 3, 11), (3, 4, 12)],
    }
    raqlet = Raqlet(schema)
    with raqlet.session(facts) as session:
        prepared = session.prepare(
            """
            MATCH (a:Person {id: $src})-[:KNOWS*]->(b:Person)
            RETURN DISTINCT b.id AS reachable
            """
        )
        assert set(prepared.run(src=1).rows) == {(2,), (3,), (4,)}
        resets_after_first_run = prepared.engine.reset_count
        session.insert("Person_KNOWS_Person", [(4, 5, 13)])
        assert set(prepared.run(src=1).rows) == {(2,), (3,), (4,), (5,)}
        session.retract("Person_KNOWS_Person", [(2, 3, 11)])
        assert set(prepared.run(src=1).rows) == {(2,)}
        session.insert("Person_KNOWS_Person", [(1, 4, 14)])
        assert set(prepared.run(src=1).rows) == {(2,), (4,), (5,)}
        engine = prepared.engine
        assert engine.maintain_count == 3
        assert engine.full_rederive_count == 0
        assert engine.reset_count == resets_after_first_run, (
            "mutated reads must maintain in place, not reset + re-derive"
        )
        # a cancelled-out mutation pair is a no-op delta for the next read
        session.insert("Person_KNOWS_Person", [(9, 9, 99)])
        session.retract("Person_KNOWS_Person", [(9, 9, 99)])
        assert set(prepared.run(src=1).rows) == {(2,), (4,), (5,)}
        assert engine.full_rederive_count == 0
