"""Standing queries at fan-out: K=32 subscriptions over a streaming insert mix.

One reachability query template is subscribed under 32 distinct person
bindings; a stream of LDBC ``knows`` inserts then flows through the
session.  The reactive path folds each insert into every standing
derivation incrementally (O(|Δ|) per subscription) and pushes result-row
deltas to the listeners.

The **baseline** is what an application without the reactive layer must
do: after every mutation, re-run all 32 queries and set-diff each answer
against the previous one.  The baseline's diffs double as the **oracle**:
every delta the subscriptions delivered must equal the corresponding
re-run diff exactly — the speedup claim and the correctness claim ride
the same replay.

Assertions:

* end-to-end the reactive stream is **≥ 5×** faster than the re-run-and-
  diff baseline (conservative; observed gap is far larger and widens with
  both K and scale);
* the maintainable stream never falls back: summed ``full_rederive_count``
  across every standing derivation is **zero**;
* every delivered ``(added, removed)`` equals the oracle's set-diff, and
  silent steps (empty diff) deliver nothing.

The stream runs on both fact stores (memory and SQLite).

A second benchmark drives the **columnar** executor's column cache: cold
re-runs under rotating bindings over a mutating store re-encode only the
mutated relation (``store_encode_count`` grows by one per mutation) and
reuse every other cached encoding.
"""

from __future__ import annotations

import random
import time

import pytest

from repro.ldbc.queries import FRIEND_REACHABILITY, SHORT_QUERY_1

#: standing subscriptions (distinct bindings of one query template)
SUBSCRIPTIONS = 32

#: streamed arrival batches (new person + ``knows`` edge each)
MUTATIONS = 10

#: conservative end-to-end bar for reactive vs re-run-everything
MIN_SPEEDUP = 5.0


def _arrival_batches(facts, anchors, count, seed=11):
    """New persons joining the graph, each knowing one existing anchor.

    Connecting a *new* person guarantees every subscription whose binding
    reaches the anchor gains exactly that person — mutating only existing
    ``knows`` edges rarely changes reachability on the largely-connected
    SNB graph, which would make the stream a silent no-op.
    """
    rng = random.Random(seed)
    width = len(facts["Person"][0])
    batches = []
    for index in range(count):
        new_id = 920_000 + index
        person = (new_id, f"Streamed{index}") + ("x",) * (width - 2)
        anchor = anchors[rng.randrange(len(anchors))]
        edge = (anchor, new_id, 930_000 + index, 0)
        batches.append((person, edge))
    return batches


def test_standing_queries_beat_rerun_and_diff(bench_data, bench_raqlet):
    _assert_standing_beats_rerun(bench_data, bench_raqlet, "memory")


def test_standing_queries_beat_rerun_and_diff_on_sqlite(bench_data, bench_raqlet):
    _assert_standing_beats_rerun(bench_data, bench_raqlet, "sqlite")


def _assert_standing_beats_rerun(bench_data, bench_raqlet, store):
    person_ids = list(bench_data.dataset.person_ids)
    bindings = person_ids[:SUBSCRIPTIONS]
    assert len(bindings) == SUBSCRIPTIONS
    batches = _arrival_batches(bench_data.facts, bindings, MUTATIONS)

    # -- reactive stream: subscribe once, stream mutations -------------------
    deliveries = {pid: [] for pid in bindings}
    session = bench_raqlet.session(
        bench_data.facts, store=store, executor="compiled"
    )
    try:
        template = session.prepare(FRIEND_REACHABILITY)
        for pid in bindings:
            session.subscribe(
                template,
                lambda delta, _pid=pid: deliveries[_pid].append(
                    (set(delta.added), set(delta.removed))
                ),
                personId=pid,
            )
        reactive_times = []
        for person, edge in batches:
            started = time.perf_counter()
            session.insert("Person", [person])
            session.insert("Person_KNOWS_Person", [edge])
            reactive_times.append(time.perf_counter() - started)
        engines = [prepared.engine for prepared in session._all_prepared]
        assert sum(engine.full_rederive_count for engine in engines) == 0
        # every arrival changed at least the anchor's reachable set
        assert (
            sum(len(events) for events in deliveries.values()) >= MUTATIONS
        )
    finally:
        session.close()

    # -- baseline: re-run all K queries per mutation, diff by hand -----------
    oracle = {pid: [] for pid in bindings}
    baseline = bench_raqlet.session(
        bench_data.facts, store=store, executor="compiled", ivm=False
    )
    try:
        prepared = {
            pid: baseline.prepare(FRIEND_REACHABILITY) for pid in bindings
        }
        state = {
            pid: prepared[pid].run(personId=pid).row_set() for pid in bindings
        }
        baseline_times = []
        for person, edge in batches:
            started = time.perf_counter()
            baseline.insert("Person", [person])
            baseline.insert("Person_KNOWS_Person", [edge])
            for pid in bindings:
                after = prepared[pid].run(personId=pid).row_set()
                added, removed = after - state[pid], state[pid] - after
                if added or removed:
                    oracle[pid].append((added, removed))
                state[pid] = after
            baseline_times.append(time.perf_counter() - started)
    finally:
        baseline.close()

    # -- correctness: every pushed delta equals the re-run diff --------------
    for pid in bindings:
        assert deliveries[pid] == oracle[pid], (
            f"personId {pid}: subscriptions delivered {deliveries[pid]}, "
            f"re-run oracle says {oracle[pid]}"
        )

    # -- performance ---------------------------------------------------------
    reactive_total = sum(reactive_times)
    baseline_total = sum(baseline_times)
    assert baseline_total >= MIN_SPEEDUP * reactive_total, (
        f"reactive stream took {reactive_total:.4f}s vs re-run baseline "
        f"{baseline_total:.4f}s — only {baseline_total / reactive_total:.1f}×, "
        f"expected ≥ {MIN_SPEEDUP}×"
    )


def test_columnar_cold_runs_re_encode_only_the_mutated_relation(
    bench_data, bench_raqlet
):
    """Rotating bindings force cold runs (no IVM reuse); each run
    re-encodes the mutated ``Person`` relation once and reuses the cached
    encodings of every relation the inserts did not touch."""
    pytest.importorskip("numpy", reason="columnar executor requires NumPy")
    person_ids = list(bench_data.dataset.person_ids)
    width = len(bench_data.facts["Person"][0])

    session = bench_raqlet.session(bench_data.facts, executor="columnar")
    try:
        prepared = session.prepare(SHORT_QUERY_1)
        oracle_session = bench_raqlet.session(
            bench_data.facts, executor="compiled"
        )
        try:
            oracle_prepared = oracle_session.prepare(SHORT_QUERY_1)
            prepared.run(personId=person_ids[0])  # warm-up: full encodes
            oracle_prepared.run(personId=person_ids[0])
            executor = prepared.engine.executor
            encodes_after_warmup = executor.store_encode_count
            for step in range(MUTATIONS):
                person = (940_000 + step, f"Cold{step}") + ("x",) * (width - 2)
                pid = person_ids[(step + 1) % SUBSCRIPTIONS]
                session.insert("Person", [person])
                oracle_session.insert("Person", [person])
                got = prepared.run(personId=pid).row_set()
                assert got == oracle_prepared.run(personId=pid).row_set()
            assert executor.store_encode_count == encodes_after_warmup + MUTATIONS
        finally:
            oracle_session.close()
    finally:
        session.close()
