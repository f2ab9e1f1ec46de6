"""Warm prepared-query runs vs. the cold one-shot API on the LDBC short query.

The cold path is what every request paid before sessions existed: compile
the query with the parameter inlined, build a fresh engine, re-ingest the
whole EDB, rebuild indexes and statistics, plan, derive.  The warm path
pays all of that once — ``session.prepare`` — and then only binds and
re-derives.  The headline assertion is deliberately conservative:

* a warm run is **at least 5×** faster than a cold run (orders of
  magnitude in practice, since cold pays the full EDB ingest);
* between warm runs the counters are flat: one ingest for the whole
  session, zero index rebuilds, zero plan recompiles.

Both sides run the default store and the compiled executor, so the ratio
compares request paths only; ``tests/engines/test_session.py`` checks the
same flat counters on the SQLite store and the interpreter.
"""

from __future__ import annotations

import time

from repro.ldbc import short_query_1

RUNS = 5


def test_warm_prepared_runs_beat_cold_oneshot(bench_data, bench_raqlet):
    person_ids = list(bench_data.dataset.person_ids[:RUNS])
    assert len(person_ids) == RUNS

    # -- cold: one-shot API, everything rebuilt per request ---------------
    cold_times = []
    cold_results = []
    for person_id in person_ids:
        spec = short_query_1(person_id)
        started = time.perf_counter()
        compiled = bench_raqlet.compile_cypher(spec["query"], spec["parameters"])
        result = bench_raqlet.run_on_datalog_engine(
            compiled, bench_data.facts, executor="compiled"
        )
        cold_times.append(time.perf_counter() - started)
        cold_results.append(result.row_set())

    # -- warm: one session, one prepared query, N bindings ----------------
    session = bench_raqlet.session(bench_data.facts, executor="compiled")
    try:
        prepared = session.prepare(short_query_1(person_ids[0])["query"])
        warm_times = []
        warm_results = []
        plan_builds = index_builds = None
        for person_id in person_ids:
            spec = short_query_1(person_id)
            started = time.perf_counter()
            result = prepared.run(spec["parameters"])
            warm_times.append(time.perf_counter() - started)
            warm_results.append(result.row_set())
            if plan_builds is None:
                plan_builds = prepared.engine.plan_build_count
                index_builds = session.store.index_build_count

        # Same answers, request for request.
        assert warm_results == cold_results
        assert any(warm_results), "the benchmark query returned no rows"

        # The acceptance bar: re-binding does zero re-ingest, zero index
        # rebuilds, zero plan recompiles.
        assert session.ingest_count == 1
        assert prepared.engine.plan_build_count == plan_builds
        assert session.store.index_build_count == index_builds
        assert prepared.engine.replan_count == 0

        # >=5x, comparing best warm re-bind against the best cold run (the
        # first warm run carries the one-off derivation and is excluded).
        best_cold = min(cold_times)
        best_warm = min(warm_times[1:])
        assert best_warm * 5 <= best_cold, (
            f"expected >=5x, got {best_cold / best_warm:.1f}x "
            f"(cold={best_cold * 1000:.1f}ms, warm={best_warm * 1000:.2f}ms)"
        )
    finally:
        session.close()
