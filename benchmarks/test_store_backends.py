"""Memory vs. SQLite fact-store backends on the recursion micro and LDBC
workloads.

The SQLite backend trades per-probe latency (SQL round-trips instead of a
Python dict probe) for an unbounded memory ceiling: relations live in SQLite
tables, optionally on disk.  These benchmarks keep the trade-off visible in
the performance trajectory — every case runs the *same compiled plans* on
both backends and asserts identical results, so the numbers are directly
comparable.  The in-memory store is expected to win on these small inputs;
what the suite guards is that the gap stays a constant factor (no
complexity-class regression) and that the SQLite backend preserves the
"each index is built exactly once" invariant.
"""

from __future__ import annotations

import pytest

from tc_workload import tc_cycle_program, tc_fixpoint_facts

from repro.engines.datalog import DatalogEngine, SQLiteFactStore
from repro.ldbc import complex_query_2

BACKENDS = ("memory", "sqlite")


@pytest.mark.parametrize("backend", BACKENDS)
def test_tc_fixpoint_store_backends(benchmark, backend):
    """The deep-chain TC + cycle-audit micro on each store backend."""
    program = tc_cycle_program()
    facts = tc_fixpoint_facts()
    reference = DatalogEngine(program, facts, store="memory").query("tc")

    def run():
        # Pinned to the compiled executor: this benchmark compares store
        # backends.
        engine = DatalogEngine(program, facts, store=backend, executor="compiled")
        engine.run()
        return engine

    engine = benchmark(run)
    assert engine.query("tc").same_rows(reference)
    store = engine.store
    assert store.index_build_count == store.index_count  # never rebuilt
    benchmark.extra_info["backend"] = backend
    benchmark.extra_info["tc_facts"] = engine.fact_count("tc")


@pytest.mark.parametrize("backend", BACKENDS)
def test_ldbc_cq2_store_backends(benchmark, bench_raqlet, bench_data, backend):
    """LDBC CQ2 (the heavier Table 1 workload) on each store backend."""
    person_id = bench_data.dataset.default_person_id()
    spec = complex_query_2(person_id, bench_data.dataset.median_message_date())
    compiled = bench_raqlet.compile_cypher(spec["query"], spec["parameters"])
    reference = bench_raqlet.run_on_datalog_engine(
        compiled, bench_data.facts, store="memory"
    )

    run = lambda: bench_raqlet.run_on_datalog_engine(
        compiled, bench_data.facts, store=backend, executor="compiled"
    )
    result = benchmark(run)
    assert result.same_rows(reference)
    benchmark.extra_info["backend"] = backend
    benchmark.extra_info["rows"] = len(result)


def test_sqlite_store_on_disk_matches_in_memory(tmp_path):
    """A file-backed SQLite store (the memory-ceiling configuration) agrees
    with the private in-memory database and leaves its data on disk."""
    program = tc_cycle_program()
    facts = tc_fixpoint_facts(nodes=40)
    db_path = tmp_path / "facts.db"
    disk_engine = DatalogEngine(program, facts, store=f"sqlite:{db_path}")
    memory_engine = DatalogEngine(program, facts, store="memory")
    assert disk_engine.query("tc").same_rows(memory_engine.query("tc"))
    assert isinstance(disk_engine.store, SQLiteFactStore)
    disk_engine.store.close()
    assert db_path.stat().st_size > 0
