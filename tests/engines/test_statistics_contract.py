"""Property-based tests for the relation-statistics contract.

``StoreBackend.relation_stats`` feeds the planner's cost model, so its
cardinality and per-column distinct counts must stay **exactly** consistent
with ground truth under arbitrary interleavings of ``add`` / ``add_many`` /
``remove`` — on every backend, whichever way it maintains them (the
in-memory store incrementally on the write path, the SQLite store by a
cached aggregate query).  The same generated interleavings run against a
model set, with the stats checked both mid-sequence and at the end.
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.engines.datalog.statistics import (
    RelationStats,
    StatsAccumulator,
    compute_stats,
    drift_ratio,
    resolve_replan_threshold,
)
from repro.engines.datalog.storage import FactStore
from repro.engines.datalog.storage_sqlite import SQLiteFactStore

BACKENDS = [
    pytest.param(lambda: FactStore(), id="memory"),
    pytest.param(lambda: SQLiteFactStore(), id="sqlite"),
]

_values = st.one_of(
    st.integers(min_value=-3, max_value=3),
    st.sampled_from(["a", "b"]),
    st.none(),
)
_rows = st.tuples(_values, _values)

_operations = st.lists(
    st.one_of(
        st.tuples(st.just("add"), _rows),
        st.tuples(st.just("add_many"), st.lists(_rows, max_size=4)),
        st.tuples(st.just("remove"), _rows),
        st.tuples(st.just("check"), st.just(None)),
    ),
    max_size=40,
)


def _ground_truth(model) -> RelationStats:
    return RelationStats(
        cardinality=len(model),
        distinct=tuple(
            len({row[position] for row in model}) for position in range(2)
        )
        if model
        else (),
    )


def _assert_consistent(stats: RelationStats, model) -> None:
    truth = _ground_truth(model)
    assert stats.cardinality == truth.cardinality
    # Empty relations may report () or explicit zeros; non-empty must match
    # column for column.
    for position in range(2):
        expected = truth.distinct[position] if model else 0
        actual = (
            stats.distinct[position] if position < len(stats.distinct) else 0
        )
        assert actual == expected, (
            f"distinct({position}): stats say {actual}, ground truth "
            f"{expected} over {sorted(model, key=repr)}"
        )


@pytest.mark.parametrize("make_store", BACKENDS)
@given(operations=_operations)
@settings(
    max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)
def test_relation_stats_track_ground_truth(make_store, operations):
    store = make_store()
    try:
        model = set()
        for operation in operations:
            if operation[0] == "add":
                store.add("r", operation[1])
                model.add(operation[1])
            elif operation[0] == "add_many":
                store.add_many("r", operation[1])
                model.update(operation[1])
            elif operation[0] == "remove":
                store.remove("r", operation[1])
                model.discard(operation[1])
            else:
                _assert_consistent(store.relation_stats("r"), model)
        _assert_consistent(store.relation_stats("r"), model)
        # A relation never written reports empty statistics.
        assert store.relation_stats("missing").cardinality == 0
    finally:
        store.close()


@given(rows=st.lists(_rows, max_size=30))
@settings(max_examples=60, deadline=None)
def test_accumulator_remove_inverts_add(rows):
    """Adding then removing every row returns the accumulator to empty."""
    accumulator = StatsAccumulator()
    for row in rows:
        accumulator.add(row)
    assert accumulator.stats() == compute_stats(rows)
    for row in rows:
        accumulator.remove(row)
    stats = accumulator.stats()
    assert stats.cardinality == 0
    assert all(count == 0 for count in stats.distinct)


def test_fanout_estimates():
    """The cost model's fan-out: |R| / distinct(bound), capped sensibly."""
    stats = RelationStats(cardinality=100, distinct=(10, 100))
    assert stats.fanout(()) == 100.0
    assert stats.fanout((0,)) == 10.0  # 100 rows / 10 keys
    assert stats.fanout((1,)) == 1.0
    # Independence product capped at cardinality: 10 * 100 > 100 rows.
    assert stats.fanout((0, 1)) == 1.0
    # Unknown columns assume nothing repeats.
    assert stats.fanout((7,)) == 1.0
    assert RelationStats(0, ()).fanout((0,)) == 0.0


def test_drift_ratio_and_threshold_resolution(monkeypatch):
    assert drift_ratio(9, 0) == 10.0
    assert drift_ratio(0, 9) == 10.0
    assert drift_ratio(5, 5) == 1.0
    monkeypatch.delenv("REPRO_REPLAN_THRESHOLD", raising=False)
    assert resolve_replan_threshold() == 10.0
    monkeypatch.setenv("REPRO_REPLAN_THRESHOLD", "1")
    assert resolve_replan_threshold() == 1.0
    monkeypatch.setenv("REPRO_REPLAN_THRESHOLD", "inf")
    assert resolve_replan_threshold() == float("inf")
    assert resolve_replan_threshold(3.5) == 3.5  # explicit beats env
    with pytest.raises(ValueError):
        resolve_replan_threshold(0.5)


def test_sqlite_stats_cache_invalidates_on_writes():
    """Reads are served from cache until a write dirties the relation."""
    store = SQLiteFactStore()
    try:
        store.add_many("r", [(1, "a"), (2, "a")])
        first = store.relation_stats("r")
        assert first == RelationStats(cardinality=2, distinct=(2, 1))
        queries = store.stats_query_count
        assert store.relation_stats("r") is first  # cached, no new query
        assert store.stats_query_count == queries
        store.add("r", (3, "b"))
        assert store.relation_stats("r") == RelationStats(3, (3, 2))
        assert store.stats_query_count == queries + 1
        store.remove("r", (1, "a"))
        assert store.relation_stats("r") == RelationStats(2, (2, 2))
    finally:
        store.close()
