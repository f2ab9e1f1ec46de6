"""Tests for the Datalog engine's fact store and its incremental indexes."""

import pytest

from repro.engines.datalog.storage import (
    DeltaView,
    FactStore,
    StoreBackend,
    create_store,
)
from repro.engines.datalog.storage_sqlite import SQLiteFactStore


def test_add_and_contains():
    store = FactStore()
    assert store.add("r", (1, 2))
    assert not store.add("r", (1, 2))  # duplicate
    assert store.contains("r", (1, 2))
    assert store.count("r") == 1


def test_add_many_counts_new_rows():
    store = FactStore()
    assert store.add_many("r", [(1,), (2,), (1,)]) == 2
    assert store.add_many("r", [(2,), (3,)]) == 1


def test_lookup_uses_position_index():
    store = FactStore()
    store.add_many("edge", [(1, 2), (1, 3), (2, 3)])
    assert sorted(store.lookup("edge", [0], (1,))) == [(1, 2), (1, 3)]
    assert store.lookup("edge", [0, 1], (2, 3)) == [(2, 3)]
    assert store.lookup("edge", [1], (9,)) == []


def test_lookup_with_no_positions_scans():
    store = FactStore()
    store.add_many("edge", [(1, 2), (2, 3)])
    assert len(store.lookup("edge", [], ())) == 2


def test_index_sees_rows_inserted_after_build():
    store = FactStore()
    store.add("edge", (1, 2))
    assert store.lookup("edge", [0], (1,)) == [(1, 2)]
    store.add("edge", (1, 3))
    assert sorted(store.lookup("edge", [0], (1,))) == [(1, 2), (1, 3)]


def test_interleaved_inserts_and_lookups_keep_indexes_correct():
    """The incremental-maintenance path: grow, probe, grow, probe."""
    store = FactStore()
    rows = [(i, i % 3, i * 10) for i in range(60)]
    for step, row in enumerate(rows):
        store.add("r", row)
        if step % 5 == 0:
            # Touch several indexes so later inserts must maintain them all.
            store.lookup("r", [1], (row[1],))
            store.lookup("r", [0, 1], (row[0], row[1]))
    for i, m, v in rows:
        assert (i, m, v) in store.lookup("r", [1], (m,))
        assert store.lookup("r", [0, 1], (i, m)) == [(i, m, v)]
        assert store.lookup("r", [2], (v,)) == [(i, m, v)]
    # Each distinct (relation, positions) index was built exactly once.
    assert store.index_build_count == store.index_count == 3


def test_add_many_updates_existing_indexes_in_place():
    store = FactStore()
    store.add_many("edge", [(1, 2), (2, 3)])
    assert store.lookup("edge", [0], (2,)) == [(2, 3)]
    builds = store.index_build_count
    assert store.add_many("edge", [(2, 4), (2, 3), (5, 6)]) == 2
    assert sorted(store.lookup("edge", [0], (2,))) == [(2, 3), (2, 4)]
    assert store.lookup("edge", [0], (5,)) == [(5, 6)]
    assert store.index_build_count == builds


def test_remove_updates_existing_indexes_in_place():
    store = FactStore()
    store.add_many("dist", [(1, 2, 5), (1, 2, 3), (1, 4, 7)])
    assert len(store.lookup("dist", [0, 1], (1, 2))) == 2
    builds = store.index_build_count
    store.remove("dist", (1, 2, 5))
    assert store.lookup("dist", [0, 1], (1, 2)) == [(1, 2, 3)]
    store.remove("dist", (1, 2, 3))
    assert store.lookup("dist", [0, 1], (1, 2)) == []
    assert store.index_build_count == builds


def test_delta_view_scan_and_lookup():
    view = DeltaView([(1, 2), (1, 3), (2, 3)])
    assert len(view) == 3
    assert sorted(view.scan()) == [(1, 2), (1, 3), (2, 3)]
    assert sorted(view.lookup([0], (1,))) == [(1, 2), (1, 3)]
    assert list(view.lookup([0, 1], (2, 3))) == [(2, 3)]
    assert list(view.lookup([1], (9,))) == []
    assert list(view.lookup([], ())) == list(view.scan())


def test_delta_view_empty_delta():
    view = DeltaView([])
    assert len(view) == 0
    assert list(view.scan()) == []
    assert list(view.lookup([0], (1,))) == []
    assert list(view.lookup([], ())) == []


def test_delta_view_collapses_duplicate_rows():
    """A delta is a set of facts: duplicates collapse, order is preserved."""
    view = DeltaView([(1, 2), (1, 2), (2, 3), (1, 2)])
    assert len(view) == 2
    assert view.scan() == ((1, 2), (2, 3))
    assert view.lookup([0], (1,)) == [(1, 2)]


def test_delta_view_lookup_on_all_positions():
    view = DeltaView([(1, 2, 3), (1, 2, 4)])
    assert view.lookup([0, 1, 2], (1, 2, 3)) == [(1, 2, 3)]
    assert list(view.lookup([0, 1, 2], (9, 9, 9))) == []
    assert sorted(view.lookup([0, 1], (1, 2))) == [(1, 2, 3), (1, 2, 4)]


def test_create_store_resolves_specs(tmp_path):
    assert isinstance(create_store("memory"), FactStore)
    assert isinstance(create_store("sqlite"), SQLiteFactStore)
    db_path = tmp_path / "facts.db"
    file_store = create_store(f"sqlite:{db_path}")
    assert isinstance(file_store, SQLiteFactStore)
    file_store.add("r", (1, 2))
    assert db_path.exists()
    file_store.close()
    existing = FactStore()
    assert create_store(existing) is existing
    with pytest.raises(ValueError):
        create_store("redis")


def test_create_store_honours_environment(monkeypatch):
    monkeypatch.delenv("REPRO_STORE", raising=False)
    assert isinstance(create_store(), FactStore)
    monkeypatch.setenv("REPRO_STORE", "sqlite")
    assert isinstance(create_store(), SQLiteFactStore)
    monkeypatch.setenv("REPRO_STORE", "memory")
    assert isinstance(create_store(), FactStore)


def test_both_backends_implement_the_protocol():
    assert isinstance(FactStore(), StoreBackend)
    assert isinstance(SQLiteFactStore(), StoreBackend)


def test_remove_and_replace():
    store = FactStore()
    store.add_many("r", [(1,), (2,)])
    store.remove("r", (1,))
    assert not store.contains("r", (1,))
    store.clear_relation("r")
    assert store.scan("r") == []
    store.add("r", (9,))
    assert store.scan("r") == [(9,)]
