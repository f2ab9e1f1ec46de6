"""The :class:`StateView` contract: a store minus a set of excluded rows.

Incremental maintenance reads the old and the new state out of one store
holding both, by running plans against a view that hides the rows of the
other state.  On every store a plan may run over — memory, SQLite and the
serving layer's :class:`SnapshotView` over a :class:`SharedEDB` — the
view's ``lookup``, ``lookup_many`` and ``contains`` must equal a
brute-force filter of the store's rows minus the excluded ones.
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.engines.datalog.storage import FactStore, StateView
from repro.engines.datalog.storage_shared import SharedEDB, SnapshotView
from repro.engines.datalog.storage_sqlite import SQLiteFactStore


def _memory(rows):
    store = FactStore()
    store.add_many("r", rows)
    return store, store.close


def _sqlite(rows):
    store = SQLiteFactStore()
    store.add_many("r", rows)
    return store, store.close


def _snapshot(rows):
    shared = SharedEDB()
    shared.insert("r", rows)
    view = SnapshotView(shared)
    view.begin_read()

    def close():
        view.close()
        shared.close()

    return view, close


STORES = [
    pytest.param(_memory, id="memory"),
    pytest.param(_sqlite, id="sqlite"),
    pytest.param(_snapshot, id="snapshot"),
]

POSITIONS = [(), (0,), (1,), (0, 1), (1, 0)]

_values = st.integers(min_value=0, max_value=3)
_rows = st.tuples(_values, _values)


def _project(row, positions):
    return tuple(row[position] for position in positions)


def _check_view(view, store, excluded, keys):
    """Compare every read of ``view`` with the brute-force filter."""
    truth = set(store.scan("r")) - excluded
    for positions in POSITIONS:
        probes = [_project(row, positions) for row in keys]
        many = view.lookup_many("r", positions, probes)
        assert set(many) == set(probes)
        for key in probes:
            expected = sorted(row for row in truth if _project(row, positions) == key)
            assert sorted(view.lookup("r", positions, key)) == expected
            assert sorted(many[key]) == expected
    for row in set(keys) | set(store.scan("r")):
        assert view.contains("r", row) == (row in truth)


@pytest.mark.parametrize("make_store", STORES)
@given(
    rows=st.sets(_rows, max_size=10),
    excluded=st.sets(_rows, max_size=6),
    keys=st.lists(_rows, max_size=6),
)
@settings(
    max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)
def test_view_reads_equal_filtered_store(make_store, rows, excluded, keys):
    store, close = make_store(sorted(rows))
    try:
        # Duplicate probe keys collapse to one lookup_many entry.
        _check_view(StateView(store, {"r": excluded}), store, excluded, keys + keys)
    finally:
        close()


@pytest.mark.parametrize("make_store", STORES)
def test_view_edge_cases(make_store):
    rows = [(1, 1), (1, 2), (2, 1)]
    store, close = make_store(rows)
    try:
        # Nothing excluded, and an exclusion map without the relation.
        for excluded in ({}, {"r": set()}):
            view = StateView(store, excluded)
            assert sorted(view.lookup("r", (), ())) == rows
            assert view.lookup_many("r", (0,), []) == {}
        # Excluding every row of key (1,) empties it; key (2,) keeps its row.
        view = StateView(store, {"r": {(1, 1), (1, 2)}})
        assert list(view.lookup("r", (0,), (1,))) == []
        many = view.lookup_many("r", (0,), [(1,), (2,), (1,)])
        assert {key: list(found) for key, found in many.items()} == {
            (1,): [],
            (2,): [(2, 1)],
        }
        assert not view.contains("r", (1, 2))
        assert view.contains("r", (2, 1))
        # The exclusion map is read live: a row dropped from it reappears.
        view.excluded["r"].discard((1, 2))
        assert list(view.lookup("r", (0,), (1,))) == [(1, 2)]
        assert view.contains("r", (1, 2))
    finally:
        close()
