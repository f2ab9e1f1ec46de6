"""Streaming mutations: incremental maintenance vs. mark-dirty re-derive.

LDBC ``knows`` inserts are interleaved with short reads of the unbounded
friend-reachability query (transitive closure — the workload where
re-derivation hurts most).  Two sessions replay the identical stream over
the same dataset:

* the **IVM session** (default) folds each insert into the engine's
  incremental maintainer, so a read after a mutation costs O(|Δ|);
* the **baseline session** (``ivm=False``) is the pre-IVM behaviour:
  every mutation marks the derivation dirty and the next read re-derives
  the whole closure from scratch, costing O(|IDB|).

Assertions:

* the IVM stream is **at least 5×** faster end-to-end than the baseline
  stream (conservative: the observed gap is larger and widens with scale,
  since the baseline re-derives the growing closure per read);
* per-mutation IVM cost stays **flat** while the derived closure grows —
  the second half of the stream's per-mutation medians may not blow up
  over the first half's (generous slack absorbs timer noise; a per-read
  re-derivation would scale with |IDB| and trip it);
* the engine counters prove the claim is about IVM, not caching luck:
  every mutation was maintained (``maintain_count``), none fell back
  (``full_rederive_count == 0``), and the IVM engine never reset after
  its initial derivation, while the baseline reset once per read.

The stream runs on both fact stores (memory and SQLite); the executor is
pinned to ``compiled`` (maintenance itself is executor-independent — it
runs on ``rule_solutions``, not the plan executors).
``tests/engines/test_ivm_differential.py`` holds the maintained results
exact under always-re-planning.
"""

from __future__ import annotations

import random
import statistics
import time

from repro.ldbc.queries import friend_reachability

#: interleaved insert→read steps per session
MUTATIONS = 24

#: conservative end-to-end speedup bar
MIN_SPEEDUP = 5.0

#: slack for the flat-per-mutation assertion (closure cascades and timer
#: noise move single medians by small factors, never by |IDB| factors)
FLATNESS_SLACK = 8.0


def _new_edges(facts, person_ids, count):
    """Deterministic stream of ``knows`` edges absent from the dataset."""
    rng = random.Random(7)
    existing = {(a, b) for (a, b, *_rest) in facts["Person_KNOWS_Person"]}
    edges = []
    edge_id = 900_000
    while len(edges) < count:
        a = person_ids[rng.randrange(len(person_ids))]
        b = person_ids[rng.randrange(len(person_ids))]
        if a == b or (a, b) in existing or (b, a) in existing:
            continue
        existing.add((a, b))
        edges.append((a, b, edge_id, 0))
        edge_id += 1
    return edges


def _stream(session, spec, edges):
    """Replay the insert→read stream; return (prepared, per-step seconds)."""
    prepared = session.prepare(spec["query"])
    prepared.run(spec["parameters"])  # cold derivation paid up front
    times = []
    for edge in edges:
        started = time.perf_counter()
        session.insert("Person_KNOWS_Person", [edge])
        prepared.run(spec["parameters"])
        times.append(time.perf_counter() - started)
    return prepared, times


def test_streaming_inserts_are_o_delta(bench_data, bench_raqlet):
    _assert_streaming_is_o_delta(bench_data, bench_raqlet, "memory")


def test_streaming_inserts_are_o_delta_on_sqlite(bench_data, bench_raqlet):
    _assert_streaming_is_o_delta(bench_data, bench_raqlet, "sqlite")


def _assert_streaming_is_o_delta(bench_data, bench_raqlet, store):
    person_ids = list(bench_data.dataset.person_ids)
    spec = friend_reachability(person_ids[0])
    edges = _new_edges(bench_data.facts, person_ids, MUTATIONS)

    ivm_session = bench_raqlet.session(
        bench_data.facts, store=store, executor="compiled"
    )
    try:
        ivm_prepared, ivm_times = _stream(ivm_session, spec, edges)
        ivm_engine = ivm_prepared.engine
        resets_after_cold_run = ivm_engine.reset_count
        final_rows = ivm_prepared.run(spec["parameters"]).row_set()
        # Proof IVM ran: every mutation maintained, zero fallbacks, and no
        # reset after the initial derivation.
        assert ivm_engine.maintain_count == MUTATIONS
        assert ivm_engine.full_rederive_count == 0
        assert ivm_engine.reset_count == resets_after_cold_run
    finally:
        ivm_session.close()

    baseline_session = bench_raqlet.session(
        bench_data.facts, store=store, executor="compiled", ivm=False
    )
    try:
        base_prepared, base_times = _stream(baseline_session, spec, edges)
        base_engine = base_prepared.engine
        # Same answers from both strategies...
        assert base_prepared.run(spec["parameters"]).row_set() == final_rows
        # ...but the baseline re-derived once per read (cold + MUTATIONS).
        assert base_engine.maintain_count == 0
        assert base_engine.reset_count >= MUTATIONS
    finally:
        baseline_session.close()

    ivm_total = sum(ivm_times)
    base_total = sum(base_times)
    assert base_total >= MIN_SPEEDUP * ivm_total, (
        f"IVM stream took {ivm_total:.4f}s vs baseline {base_total:.4f}s — "
        f"only {base_total / ivm_total:.1f}×, expected ≥ {MIN_SPEEDUP}×"
    )

    # Update cost must scale with |Δ| (one edge), not with the closure the
    # stream has grown so far: the late-stream per-mutation median may not
    # explode over the early-stream one.
    half = MUTATIONS // 2
    early = statistics.median(ivm_times[:half])
    late = statistics.median(ivm_times[half:])
    assert late <= FLATNESS_SLACK * early, (
        f"per-mutation cost grew from {early * 1e3:.3f}ms to "
        f"{late * 1e3:.3f}ms over the stream — not O(|Δ|)"
    )
