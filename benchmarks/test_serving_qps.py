"""Serving-pool throughput: multi-worker QPS vs a single worker.

The serving claim is *not* CPU parallelism (pure Python, one GIL): it is
**binding affinity**.  Every worker session keeps its prepared query warm
for the last binding it served, so a pool of N workers keeps N distinct
bindings warm simultaneously — the steady-state request mix of a serving
tier — while a single worker thrashes: each binding change forces a reset
and a full re-derivation.  The benchmark drives the same round-robin
binding mix through a 1-worker and a 4-worker pool and asserts the 4-worker
pool clears **3×** the throughput, reporting p50/p99 latency per pool.

Correctness rides along: every single response is compared against a
single-session oracle for its binding (zero divergence), and the coalescing
sub-benchmark proves K identical in-flight requests collapse into one
execution.  The throughput benchmark runs on both fact stores: on SQLite
the shared base's one connection is serialised across the worker threads.
"""

from __future__ import annotations

import time

from repro.ldbc.queries import friend_reachability
from repro.serving import ServingPool

BINDINGS = 4
ROUNDS = 8  # requests per pool = BINDINGS * ROUNDS


def _drive(pool, person_ids):
    """Synchronous round-robin request loop; returns (elapsed, latencies)."""
    latencies = []
    started = time.perf_counter()
    for round_index in range(ROUNDS):
        for person_id in person_ids:
            t0 = time.perf_counter()
            pool.run("reach", personId=person_id, timeout=300)
            latencies.append(time.perf_counter() - t0)
    return time.perf_counter() - started, latencies


def _percentile(latencies, fraction):
    ordered = sorted(latencies)
    return ordered[min(len(ordered) - 1, int(fraction * len(ordered)))]


def test_four_workers_triple_single_worker_qps(bench_data, bench_raqlet):
    _assert_four_workers_triple_qps(bench_data, bench_raqlet, "memory")


def test_four_workers_triple_single_worker_qps_on_sqlite(bench_data, bench_raqlet):
    _assert_four_workers_triple_qps(bench_data, bench_raqlet, "sqlite")


def _assert_four_workers_triple_qps(bench_data, bench_raqlet, store):
    person_ids = list(bench_data.dataset.person_ids[:BINDINGS])
    assert len(person_ids) == BINDINGS
    requests = BINDINGS * ROUNDS

    # -- single-session oracle per binding --------------------------------
    oracles = {}
    with bench_raqlet.session(bench_data.facts, store=store) as session:
        prepared = session.prepare(friend_reachability(person_ids[0])["query"])
        for person_id in person_ids:
            oracles[person_id] = prepared.run(personId=person_id).row_set()

    elapsed = {}
    latencies = {}
    for workers in (1, 4):
        with ServingPool(
            bench_raqlet, bench_data.facts, workers=workers, store=store
        ) as pool:
            pool.prepare("reach", friend_reachability(person_ids[0])["query"])
            # one untimed warm-up round so both pools start post-cold-start
            for person_id in person_ids:
                response = pool.submit("reach", personId=person_id).result(300)
                assert response.result.row_set() == oracles[person_id]
            elapsed[workers], latencies[workers] = _drive(pool, person_ids)
            # zero divergence on the timed traffic too
            for person_id in person_ids:
                assert (
                    pool.run("reach", personId=person_id).row_set()
                    == oracles[person_id]
                )
            stats = pool.stats()
            assert stats["executed_count"] == requests + 2 * BINDINGS
            assert stats["full_rederive_count"] == 0

    qps1 = requests / elapsed[1]
    qps4 = requests / elapsed[4]
    for workers in (1, 4):
        print(
            f"\n  {workers} worker(s): {requests / elapsed[workers]:8.1f} qps   "
            f"p50 {_percentile(latencies[workers], 0.50) * 1000:7.2f} ms   "
            f"p99 {_percentile(latencies[workers], 0.99) * 1000:7.2f} ms"
        )
    print(f"  speedup: {qps4 / qps1:.1f}x with 4 workers on {BINDINGS} bindings")
    assert qps4 >= 3 * qps1, (
        f"4-worker pool must serve >=3x the single-worker throughput: "
        f"{qps4:.1f} vs {qps1:.1f} qps"
    )


def test_coalescing_collapses_identical_inflight_runs(bench_data, bench_raqlet):
    person_id = bench_data.dataset.person_ids[0]
    spec = friend_reachability(person_id)
    with bench_raqlet.session(bench_data.facts) as session:
        oracle = session.execute(spec["query"], spec["parameters"]).row_set()
    with ServingPool(bench_raqlet, bench_data.facts, workers=1) as pool:
        pool.prepare("reach", spec["query"])
        release = pool._pause_worker(0, timeout=60)
        try:
            futures = [
                pool.submit("reach", personId=person_id) for _ in range(8)
            ]
        finally:
            release.set()
        for future in futures:
            assert future.result(timeout=300).result.row_set() == oracle
        stats = pool.stats()
        assert stats["executed_count"] == 1, "8 identical in-flight runs -> 1 execution"
        assert stats["coalesced_count"] == 7
        print(
            f"\n  coalescing: 8 identical in-flight requests, "
            f"{stats['executed_count']} execution, "
            f"{stats['coalesced_count']} coalesced"
        )
