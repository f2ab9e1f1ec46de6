"""The columnar executor's relation-column cache under streaming mutation.

A cached encoding is keyed on the store's ``cache_identity`` and valid for
one ``data_version``.  Once a relation changes, the stale entry is
re-encoded from ``store.scan()`` (counted in ``store_encode_count``), while
relations that did not change keep their encoding.  Every column the cache
hands out must decode to exactly ``store.scan()``;
``columnar_incremental_encode_count`` stays 0.
"""

from __future__ import annotations

import pytest

np = pytest.importorskip("numpy", reason="columnar executor requires NumPy")

from repro.engines.datalog.executor_columnar import ColumnarExecutor
from repro.engines.datalog.storage import FactStore
from repro.engines.datalog.storage_sqlite import SQLiteFactStore
from repro.pipeline import Raqlet

BACKENDS = [
    pytest.param(lambda: FactStore(), id="memory"),
    pytest.param(lambda: SQLiteFactStore(), id="sqlite"),
]


def decoded_rows(executor, cols, count):
    """Materialise encoded columns back into the set of row tuples."""
    if count == 0:
        return set()
    arrays = [executor._vd.decode(col).tolist() for col in cols]
    rows = set(zip(*arrays))
    assert len(rows) == count  # store relations are sets: no dup rows
    return rows


def columns_for(executor, store, name="r"):
    cols, count = executor._relation_columns(store, name)
    assert decoded_rows(executor, cols, count) == set(store.scan(name))
    return cols, count


@pytest.mark.parametrize("make_store", BACKENDS)
def test_streaming_mutation_mix_stays_exact(make_store):
    """A long alternating insert/retract stream re-encodes the relation
    once per step and never hands out a stale column."""
    store = make_store()
    try:
        executor = ColumnarExecutor()
        store.add_many("r", [(i, 0) for i in range(40)])
        columns_for(executor, store)
        for step in range(1, 21):
            if step % 3 == 0:
                store.remove("r", (step, 0))
            else:
                store.add("r", (1000 + step, step))
            columns_for(executor, store)
            columns_for(executor, store)  # unchanged: a cache hit
        assert executor.store_encode_count == 21
        assert executor.columnar_incremental_encode_count == 0
    finally:
        store.close()


def test_oversized_removal_batch_falls_back_to_full_encode():
    store = FactStore()
    executor = ColumnarExecutor()
    store.add_many("r", [(i, i) for i in range(200)])
    columns_for(executor, store)
    for i in range(100):
        store.remove("r", (i, i))
    columns_for(executor, store)
    assert executor.store_encode_count == 2


@pytest.mark.parametrize("make_store", BACKENDS)
def test_replace_falls_back_to_full_encode(make_store):
    store = make_store()
    try:
        executor = ColumnarExecutor()
        store.add_many("r", [(i, i) for i in range(10)])
        columns_for(executor, store)
        store.clear_relation("r")
        store.add_many("r", [(5, 5), (99, 99)])
        columns_for(executor, store)
        assert executor.store_encode_count == 2
    finally:
        store.close()


def test_drain_to_empty_and_regrow():
    """Draining a relation to empty and regrowing it stays exact."""
    store = FactStore()
    executor = ColumnarExecutor()
    store.add("r", (1, 2))
    columns_for(executor, store)
    store.remove("r", (1, 2))
    cols, count = columns_for(executor, store)
    assert count == 0
    store.add("r", (3, 4))
    columns_for(executor, store)
    assert executor.store_encode_count == 3


SCHEMA = """
CREATE GRAPH {
  (sensorType : Sensor { id INT, value INT })
}
"""

HOT = """
.decl reading(s:number, v:number)
.decl sensor(s:number)
.decl hot(s:number, v:number)
hot(s, v) :- sensor(s), reading(s, v), v >= $threshold.
.output hot
"""


def test_cold_runs_over_mutated_store_reuse_columns_end_to_end():
    """The integration path: a prepared query re-run with *changing*
    bindings cannot use IVM (cold path each time).  Each run re-encodes
    the mutated ``reading`` relation once and reuses the cached encoding
    of the untouched ``sensor`` relation."""
    raqlet = Raqlet(SCHEMA)
    with raqlet.session(executor="columnar") as session:
        session.insert("sensor", [(i,) for i in range(0, 2000, 2)])
        session.insert("reading", [(i, i % 100) for i in range(300)])
        prepared = session.prepare(HOT)
        executor = prepared.engine.executor

        def want(threshold):
            sensors = set(session.store.scan("sensor"))
            return {
                (s, v)
                for s, v in session.store.scan("reading")
                if (s,) in sensors and v >= threshold
            }

        assert set(prepared.run(threshold=90).rows) == want(90)
        encodes = executor.store_encode_count
        for step in range(1, 11):
            session.insert("reading", [(1000 + step, 90 + step % 10)])
            threshold = 90 + (step % 3)
            assert set(prepared.run(threshold=threshold).rows) == want(threshold)
        assert executor.store_encode_count == encodes + 10  # `reading` only
        assert executor.columnar_incremental_encode_count == 0
