"""Tests for the epoch-versioned shared EDB (:mod:`storage_shared`).

Three layers: direct :class:`SharedEDB` semantics (effective deltas, epoch
pinning, base folding, and log retention bounded by the consumers and the
retention bound of its :class:`~repro.engines.datalog.delta_log.DeltaLog`),
the :class:`SnapshotView` adapter's patch semantics, and a hypothesis
property drive proving snapshot isolation — a reader pinned at epoch ``E``
sees exactly the oracle state as of ``E`` no matter what later writes,
folds, or other pins do — on both the in-memory and SQLite base backends.
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.common.errors import ExecutionError
from repro.engines.datalog import delta_log
from repro.engines.datalog.storage import FactStore
from repro.engines.datalog.storage_shared import SharedEDB, SnapshotView
from repro.engines.datalog.storage_sqlite import SQLiteFactStore

BASES = [
    pytest.param(lambda: FactStore(), id="memory"),
    pytest.param(lambda: SQLiteFactStore(), id="sqlite"),
]


# -- SharedEDB: write effectiveness and epochs --------------------------------


def test_effective_deltas_only():
    shared = SharedEDB()
    inserted, retracted, epoch = shared.apply({"r": [(1,), (1,), (2,)]}, None)
    assert (inserted, retracted, epoch) == (2, 0, 1)
    # duplicate insert and absent retract are no-ops: epoch does not move
    inserted, retracted, epoch = shared.apply({"r": [(1,)]}, {"r": [(9,)]})
    assert (inserted, retracted, epoch) == (0, 0, 1)
    # a batch can insert and retract; effectiveness is judged in batch order
    inserted, retracted, epoch = shared.apply({"r": [(3,)]}, {"r": [(3,), (1,)]})
    assert (inserted, retracted) == (1, 2)
    assert epoch == 2
    shared.close()


def test_insert_retract_shortcuts_and_ingest():
    shared = SharedEDB()
    assert shared.ingest({"a": [(1,), (2,)], "b": [("x",)]}) == 3
    assert shared.insert("a", [(2,), (3,)]) == 1
    assert shared.retract("a", [(1,), (99,)]) == 1
    assert shared.is_known("a") and shared.is_known("b")
    assert not shared.is_known("c")
    snap = shared.pin()
    assert sorted(snap.scan("a")) == [(2,), (3,)]
    snap.release()
    shared.close()


def test_pinned_snapshot_is_immutable():
    shared = SharedEDB()
    shared.insert("r", [(1,), (2,)])
    snap = shared.pin()
    assert snap.epoch == 1
    shared.insert("r", [(3,)])
    shared.retract("r", [(1,)])
    # the pinned snapshot still answers with epoch-1 state
    assert sorted(snap.scan("r")) == [(1,), (2,)]
    assert snap.contains("r", (1,))
    assert not snap.contains("r", (3,))
    assert snap.count("r") == 2
    # while an unpinned (fresh) snapshot sees the new epoch
    fresh = shared.pin()
    assert sorted(fresh.scan("r")) == [(2,), (3,)]
    snap.release()
    fresh.release()
    shared.close()


def test_lookup_through_snapshot_merges_net_delta():
    shared = SharedEDB()
    shared.insert("e", [(1, "a"), (2, "b")])
    snap0 = shared.pin()
    shared.insert("e", [(1, "c")])
    shared.retract("e", [(1, "a")])
    snap1 = shared.pin()
    assert sorted(snap0.lookup("e", (0,), (1,))) == [(1, "a")]
    assert sorted(snap1.lookup("e", (0,), (1,))) == [(1, "c")]
    many = snap1.lookup_many("e", (0,), [(1,), (2,)])
    assert sorted(many[(1,)]) == [(1, "c")]
    assert sorted(many[(2,)]) == [(2, "b")]
    snap0.release()
    snap1.release()
    shared.close()


def test_fold_blocked_by_pins_and_resumes_after_release():
    shared = SharedEDB()
    shared.insert("r", [(1,)])  # no pins, no consumers: folds immediately
    snap = shared.pin()
    shared.insert("r", [(2,)])
    assert shared.compact() is False  # pinned reader blocks folding
    stats = shared.stats()
    assert stats["floor"] == 1 and stats["chain_entries"] == 1
    snap.release()  # releasing the last pin folds immediately
    stats = shared.stats()
    assert stats["floor"] == stats["epoch"] == 2
    assert stats["chain_entries"] == 0
    assert stats["fold_count"] >= 1
    # folded state is the net state
    snap = shared.pin()
    assert sorted(snap.scan("r")) == [(1,), (2,)]
    snap.release()
    shared.close()


def test_consumer_positions_bound_folding():
    shared = SharedEDB()
    log = shared.log
    log.consume("query", 0)
    shared.insert("r", [(1,)])
    shared.insert("r", [(2,)])
    # the laggard consumer still needs epochs 1..2: the log keeps them, but
    # the base folds anyway, so readers stay on the clean fast path
    assert shared.compact() is False
    assert log.net(0) == ({"r": {(1,), (2,)}}, {})
    snap = shared.pin()
    assert not snap.dirty("r") and snap.count("r") == 2
    snap.release()
    log.consume("query", 1)
    assert shared.compact() is True
    assert shared.stats()["floor"] == 1
    # entries above the floor survive; entries below it are gone
    assert log.net(1) == ({"r": {(2,)}}, {})
    assert log.net(0) is None
    log.release("query")
    assert shared.compact() is True
    assert shared.stats()["floor"] == 2
    shared.close()


def test_chain_overflow_drops_laggard_retention(monkeypatch):
    monkeypatch.setattr(delta_log, "RETENTION", 4)
    shared = SharedEDB()
    shared.log.consume("laggard", 0)
    for value in range(8):
        shared.insert("r", [(value,)])
    # the log blew past its retention with no pins: folded past the
    # laggard consumer (the floor advanced despite its position at 0)
    stats = shared.stats()
    assert stats["floor"] > 0
    assert stats["chain_entries"] <= delta_log.RETENTION
    assert shared.log.net(0) is None  # laggard must fully re-derive
    snap = shared.pin()
    assert snap.count("r") == 8
    snap.release()
    shared.close()


def test_version_at_is_monotone_and_fold_invariant():
    shared = SharedEDB()
    snap = shared.pin()                 # a reader at epoch 0 blocks folding
    shared.insert("a", [(1,)])          # epoch 1 touches a
    shared.insert("b", [(1,)])          # epoch 2 touches b
    shared.insert("a", [(2,)])          # epoch 3 touches a
    assert shared.version_at("a", 0) == 0
    assert shared.version_at("a", 1) == 1
    assert shared.version_at("a", 2) == 1
    assert shared.version_at("a", 3) == 2
    assert shared.version_at("b", 3) == 1
    before = shared.version_at("a", 3)
    snap.release()  # the last pin gone, the base folds to epoch 3
    assert shared.stats()["fold_count"] == 1
    # folding preserves the count at epochs >= the new floor
    assert shared.version_at("a", 3) == before
    shared.close()


def test_preloaded_base_store_is_epoch_zero():
    base = FactStore()
    base.add_many("r", [(1,), (2,)])
    shared = SharedEDB(base)
    assert shared.epoch == 0
    assert shared.is_known("r")
    snap = shared.pin()
    assert sorted(snap.scan("r")) == [(1,), (2,)]
    assert snap.data_version("r") == 0
    snap.release()
    shared.close()


# -- SnapshotView: the per-worker StoreBackend --------------------------------


def _make_view(rows=((1,), (2,))):
    shared = SharedEDB()
    shared.insert("shared_rel", list(rows))
    view = SnapshotView(shared)
    view.begin_read()
    return shared, view


def test_view_reads_require_a_pinned_window():
    shared, view = _make_view()
    view.end_read()
    with pytest.raises(ExecutionError, match="pinned window"):
        view.scan("shared_rel")
    # private relations remain readable without a pin
    view.add("private", (9,))
    assert view.scan("private") == [(9,)]
    view.close()
    shared.close()


def test_view_local_relations_are_private():
    shared, view = _make_view()
    other = SnapshotView(shared)
    other.begin_read()
    view.add("derived", (1, 2))
    assert other.count("derived") == 0
    assert view.contains("derived", (1, 2))
    view.close()
    other.close()
    shared.close()


def test_view_patch_semantics_and_tidy():
    shared, view = _make_view()
    # removing a snapshot row masks it locally
    assert view.remove("shared_rel", (1,)) is True
    assert not view.contains("shared_rel", (1,))
    assert view.count("shared_rel") == 1
    assert view.data_version("shared_rel") is None  # patched: no caching
    key, pin = view.cache_identity("shared_rel")
    assert pin is view  # patched relation gets a private cache identity
    # re-adding dissolves the patch and restores the fast path
    assert view.add("shared_rel", (1,)) is True
    assert sorted(view.scan("shared_rel")) == [(1,), (2,)]
    assert view.data_version("shared_rel") is not None
    key, pin = view.cache_identity("shared_rel")
    assert pin is shared  # clean again: shared cache identity
    view.close()
    shared.close()


def test_view_transient_add_then_remove_roundtrip():
    shared, view = _make_view()
    # the IVM union-state shape: add a new row, then take it back out
    assert view.add("shared_rel", (5,)) is True
    assert view.contains("shared_rel", (5,))
    assert view.remove("shared_rel", (5,)) is True
    assert sorted(view.scan("shared_rel")) == [(1,), (2,)]
    assert view.data_version("shared_rel") is not None  # patch dissolved
    # adding a row the snapshot already shows is a no-op
    assert view.add("shared_rel", (1,)) is False
    view.close()
    shared.close()


def test_view_lookup_merges_patches():
    shared = SharedEDB()
    shared.insert("e", [(1, "a"), (1, "b"), (2, "c")])
    view = SnapshotView(shared)
    view.begin_read()
    view.remove("e", (1, "a"))
    view.add("e", (1, "z"))
    assert sorted(view.lookup("e", (0,), (1,))) == [(1, "b"), (1, "z")]
    many = view.lookup_many("e", (0,), [(1,), (2,)])
    assert sorted(many[(1,)]) == [(1, "b"), (1, "z")]
    assert sorted(many[(2,)]) == [(2, "c")]
    assert view.relation_stats("e").cardinality == 3
    view.close()
    shared.close()


def test_view_rejects_replace_and_clear_of_shared_relations():
    shared, view = _make_view()
    with pytest.raises(ExecutionError, match="replace shared"):
        view.replace("shared_rel", [(9,)])
    with pytest.raises(ExecutionError, match="clear shared"):
        view.clear_relation("shared_rel")
    # private relations support both
    view.add("local", (1,))
    view.replace("local", [(2,)])
    assert view.scan("local") == [(2,)]
    view.clear_relation("local")
    assert view.count("local") == 0
    view.close()
    shared.close()


def test_view_repin_advances_to_latest_epoch():
    shared, view = _make_view()
    first = view.pinned_epoch
    view.log.consume("query", first)  # a worker query current at `first`
    shared.insert("shared_rel", [(3,)])
    assert view.count("shared_rel") == 2  # still pinned at the old epoch
    second = view.begin_read()
    assert second == first + 1
    assert view.count("shared_rel") == 3
    assert view.log.net(first, second) == ({"shared_rel": {(3,)}}, {})
    view.close()
    shared.close()


# -- snapshot isolation property ----------------------------------------------

_rows = st.tuples(
    st.integers(min_value=0, max_value=3), st.integers(min_value=0, max_value=2)
)
_relation = st.sampled_from(["r", "s"])

_ops = st.lists(
    st.one_of(
        st.tuples(st.just("insert"), _relation, st.lists(_rows, max_size=3)),
        st.tuples(st.just("retract"), _relation, st.lists(_rows, max_size=3)),
        st.tuples(st.just("pin")),
        st.tuples(st.just("release"), st.integers(min_value=0, max_value=7)),
        st.tuples(st.just("compact")),
    ),
    max_size=25,
)


@pytest.mark.parametrize("make_base", BASES)
@given(operations=_ops)
@settings(
    max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)
def test_snapshot_isolation_matches_per_epoch_oracle(make_base, operations):
    """A pin taken at epoch E answers with the oracle state at E, always."""
    shared = SharedEDB(make_base())
    try:
        oracle = {"r": set(), "s": set()}
        history = {0: {"r": set(), "s": set()}}
        pins = []  # (snapshot, epoch) pairs still held

        def check_all_pins():
            for snap, epoch in pins:
                expected = history[epoch]
                for relation in ("r", "s"):
                    assert set(snap.scan(relation)) == expected[relation]
                    assert snap.count(relation) == len(expected[relation])

        for operation in operations:
            kind = operation[0]
            if kind == "insert":
                _, relation, rows = operation
                shared.insert(relation, rows)
                oracle[relation].update(rows)
            elif kind == "retract":
                _, relation, rows = operation
                shared.retract(relation, rows)
                oracle[relation].difference_update(rows)
            elif kind == "pin":
                snap = shared.pin()
                pins.append((snap, snap.epoch))
            elif kind == "release" and pins:
                snap, _ = pins.pop(operation[1] % len(pins))
                snap.release()
            elif kind == "compact":
                shared.compact()
            history[shared.epoch] = {name: set(vals) for name, vals in oracle.items()}
            check_all_pins()

        # final sweep: every held pin still answers with its epoch's state
        check_all_pins()
        for snap, _ in pins:
            snap.release()
        latest = shared.pin()
        for relation in ("r", "s"):
            assert set(latest.scan(relation)) == oracle[relation]
        latest.release()
    finally:
        shared.close()
