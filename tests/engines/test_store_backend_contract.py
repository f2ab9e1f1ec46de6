"""Property-based tests for the :class:`StoreBackend` contract.

Any backend must behave exactly like a Python ``set`` of tuples under
arbitrary interleavings of ``add`` / ``add_many`` / ``remove`` / ``lookup``
— including lookups through indexes built *before* later inserts and
removals (the incremental-maintenance path), lookups over the empty
position set, and truthful new-row accounting.  The same generated
interleavings run against every shipped backend.
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.engines.datalog.storage import FactStore
from repro.engines.datalog.storage_sqlite import SQLiteFactStore

BACKENDS = [
    pytest.param(lambda: FactStore(), id="memory"),
    pytest.param(lambda: SQLiteFactStore(), id="sqlite"),
]

_values = st.one_of(st.integers(min_value=-3, max_value=3), st.sampled_from(["a", "b"]))
_rows = st.tuples(_values, _values)
_positions = st.sampled_from([(), (0,), (1,), (0, 1), (1, 0)])

_operations = st.lists(
    st.one_of(
        st.tuples(st.just("add"), _rows),
        st.tuples(st.just("add_many"), st.lists(_rows, max_size=4)),
        st.tuples(st.just("remove"), _rows),
        st.tuples(st.just("lookup"), _positions, _rows),
    ),
    max_size=40,
)


@pytest.mark.parametrize("make_store", BACKENDS)
@given(operations=_operations)
@settings(
    max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)
def test_random_interleavings_match_model_set(make_store, operations):
    store = make_store()
    try:
        model = set()
        for operation in operations:
            if operation[0] == "add":
                row = operation[1]
                assert store.add("r", row) == (row not in model)
                model.add(row)
            elif operation[0] == "add_many":
                batch = operation[1]
                expected_new = len(set(batch) - model)
                assert store.add_many("r", batch) == expected_new
                model.update(batch)
            elif operation[0] == "remove":
                store.remove("r", operation[1])
                model.discard(operation[1])
            else:
                positions, probe = operation[1], operation[2]
                key = tuple(probe[p] for p in positions)
                expected = {
                    row for row in model if tuple(row[p] for p in positions) == key
                }
                assert set(store.lookup("r", list(positions), key)) == expected
        assert set(store.scan("r")) == model
        assert store.count("r") == len(model)
        assert len(store) == len(model)
        for row in model:
            assert store.contains("r", row)
    finally:
        store.close()


# -- lookup_many: batched probes must equal a loop of lookups ---------------

_key_values = st.one_of(_values, st.none())
_probe_rows = st.tuples(_key_values, _key_values)
_stored_rows = st.tuples(
    st.one_of(_values, st.none()), st.one_of(_values, st.none())
)


@pytest.mark.parametrize("make_store", BACKENDS)
@given(
    rows=st.lists(_stored_rows, max_size=12),
    positions=_positions,
    probes=st.lists(_probe_rows, max_size=8),
    later_rows=st.lists(_stored_rows, max_size=6),
)
@settings(
    max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)
def test_lookup_many_matches_a_loop_of_lookups(
    make_store, rows, positions, probes, later_rows
):
    """``lookup_many`` ≡ {key: lookup(key)} over its distinct keys.

    Probe keys include absent keys, duplicate keys and ``None`` components;
    the batch is probed twice with inserts in between, so the batched path
    also exercises index maintenance (and, on SQLite, probe-keys-table
    reuse).
    """
    store = make_store()
    try:
        keys = [tuple(probe[p] for p in positions) for probe in probes]
        for batch in (rows, later_rows):
            store.add_many("r", batch)
            result = store.lookup_many("r", list(positions), keys)
            assert set(result) == set(keys)
            for key in set(keys):
                expected = store.lookup("r", list(positions), key)
                got = result[key]
                assert len(got) == len(expected)
                assert set(map(tuple, got)) == set(map(tuple, expected))
    finally:
        store.close()


@pytest.mark.parametrize("make_store", BACKENDS)
def test_lookup_many_corner_cases(make_store):
    store = make_store()
    try:
        # No keys: nothing is probed, nothing is returned.
        assert store.lookup_many("r", [0], []) == {}
        # A relation that does not exist yet answers every key with no rows.
        missing = store.lookup_many("nope", [0], [(1,), (2,)])
        assert set(missing) == {(1,), (2,)}
        assert all(len(rows) == 0 for rows in missing.values())
        store.add_many("r", [(1, 2), (1, 3), (2, 4)])
        # Duplicate keys collapse to one entry.
        result = store.lookup_many("r", [0], [(1,), (1,), (9,)])
        assert set(result) == {(1,), (9,)}
        assert sorted(result[(1,)]) == [(1, 2), (1, 3)]
        assert len(result[(9,)]) == 0
        # The empty position set behaves like a scan for every key.
        full = store.lookup_many("r", [], [()])
        assert sorted(full[()]) == [(1, 2), (1, 3), (2, 4)]
    finally:
        store.close()


@pytest.mark.parametrize("make_store", BACKENDS)
def test_lookup_many_handles_nan_keys_like_lookup(make_store):
    """A NaN key component must behave exactly as it does in ``lookup``.

    On SQLite, NaN binds as NULL (so a NaN key matches ``None`` rows — a
    quirk, but the single-``lookup`` quirk); the batched path must not
    silently drop those rows on the way back from the key join.
    """
    store = make_store()
    try:
        store.add_many("r", [(None, 3), (1, 2)])
        nan = float("nan")
        keys = [(nan,), (1,), (None,)]
        result = store.lookup_many("r", [0], keys)
        for key in keys:
            expected = store.lookup("r", [0], key)
            assert sorted(result[key], key=repr) == sorted(expected, key=repr)
    finally:
        store.close()


def test_sqlite_lookup_many_issues_one_query_per_batch():
    """However many keys a batch carries, SQLite answers it with one SELECT."""
    store = SQLiteFactStore()
    store.add_many("r", [(i, i + 1) for i in range(100)])
    store.lookup_many("r", [0], [(i,) for i in range(80)])
    store.lookup_many("r", [0], [(i,) for i in range(40, 120)])
    store.lookup_many("r", [1], [(5,), (6,)])
    assert store.batch_probe_count == 3
    assert store.batch_probe_query_count == 3
    store.close()


@pytest.mark.parametrize("make_store", BACKENDS)
def test_index_survives_remove_of_last_bucket_row(make_store):
    """Index-after-remove: emptying a bucket must not corrupt the index."""
    store = make_store()
    store.add_many("r", [(1, 2), (1, 3), (2, 2)])
    assert sorted(store.lookup("r", [0], (1,))) == [(1, 2), (1, 3)]
    store.remove("r", (1, 2))
    store.remove("r", (1, 3))
    assert store.lookup("r", [0], (1,)) == []
    store.add("r", (1, 9))
    assert store.lookup("r", [0], (1,)) == [(1, 9)]
    assert store.lookup("r", [0], (2,)) == [(2, 2)]
    store.close()


@pytest.mark.parametrize("make_store", BACKENDS)
def test_empty_positions_lookup_is_a_scan(make_store):
    store = make_store()
    assert store.lookup("r", [], ()) == []
    store.add_many("r", [(1, 2), (2, 3)])
    assert sorted(store.lookup("r", [], ())) == [(1, 2), (2, 3)]
    store.close()


@pytest.mark.parametrize(
    "make_store", [pytest.param(FactStore, id="memory"), pytest.param(SQLiteFactStore, id="sqlite")]
)
def test_index_statistics_are_part_of_the_contract(make_store):
    """``index_build_count`` must be truthful on every backend.

    Benchmarks assert "each index is built exactly once"; a backend that
    never incremented the counter would let them pass vacuously.  Both
    shipped backends must report the build on first probe and *not* report
    rebuilds when later inserts merely maintain the index.
    """
    store = make_store()
    assert store.index_build_count == 0 and store.index_count == 0
    store.add_many("r", [(1, 2), (2, 3)])
    store.lookup("r", [0], (1,))
    assert store.index_build_count == 1 and store.index_count == 1
    store.add("r", (4, 5))
    assert store.lookup("r", [0], (4,)) == [(4, 5)]
    store.lookup("r", [1], (3,))
    assert store.index_build_count == 2 and store.index_count == 2
    store.close()


def test_replace_resets_sqlite_indexes_like_memory():
    """``replace`` drops indexes on both backends; they rebuild lazily."""
    for store in (FactStore(), SQLiteFactStore()):
        store.add_many("r", [(1,), (2,)])
        assert store.lookup("r", [0], (1,)) == [(1,)]
        store.replace("r", [(9,)])
        assert store.lookup("r", [0], (1,)) == []
        assert store.lookup("r", [0], (9,)) == [(9,)]
        assert store.index_build_count == 2  # initial build + post-replace build
        store.close()


def test_sqlite_replace_among_multiple_relations():
    """Replacing a non-latest relation must not collide table names."""
    store = SQLiteFactStore()
    store.add("a", (1, 2))
    store.add("b", (3, 4))
    store.replace("a", [(5, 6)])
    assert store.scan("a") == [(5, 6)]
    assert store.scan("b") == [(3, 4)]
    store.replace("b", [(7, 8), (9, 10)])
    assert sorted(store.scan("b")) == [(7, 8), (9, 10)]
    store.close()


@pytest.mark.parametrize("make_store", BACKENDS)
def test_replace_with_no_rows_keeps_the_relation(make_store):
    store = make_store()
    store.add("r", (1, 2))
    store.replace("r", [])
    assert "r" in store.relation_names()
    assert store.count("r") == 0
    assert store.scan("r") == []
    store.add("r", (3, 4))  # arity is remembered
    assert store.scan("r") == [(3, 4)]
    store.close()


def test_sqlite_rejects_unstorable_values_loudly():
    """Unsupported values raise ExecutionError, never a raw driver error."""
    from repro.common.errors import ExecutionError

    store = SQLiteFactStore()
    with pytest.raises(ExecutionError):
        store.add("r", (2**70, 1))  # outside SQLite's 64-bit integer range
    with pytest.raises(ExecutionError):
        store.add("r", ([1, 2], 1))  # non-scalar
    with pytest.raises(ExecutionError):
        store.add("r", (float("nan"), 1))  # SQLite would corrupt NaN to NULL
    with pytest.raises(ExecutionError):
        store.add_many("r", [(1, 2), (1, 2, 3)])  # mixed arity in one batch
    store.close()


def test_sqlite_batches_nest_without_committing_the_outer_transaction():
    """An engine-run batch inside a caller's batch must not commit it."""
    store = SQLiteFactStore()
    store.begin_batch()
    with store.batch():
        store.add("r", (1, 2))
    assert store._batch_depth == 1  # the outer batch is still open
    store.add("r", (3, 4))
    store.end_batch()
    assert store._batch_depth == 0
    assert sorted(store.scan("r")) == [(1, 2), (3, 4)]
    store.close()


# -- data_version / changes_since: the delta-history contract ----------------
#
# The columnar executor (and anything else caching per-version artefacts)
# relies on two promises: ``data_version`` bumps exactly when a mutation had
# an effect, and ``changes_since(v)`` either nets to the *exact* set
# difference between then and now or declines with ``None`` — it never
# guesses.  The property test replays the same generated interleavings as
# the set-model test and audits every historical checkpoint after every op.


def _assert_history_consistent(store, checkpoints):
    current = set(store.scan("r"))
    for version, snapshot in checkpoints:
        delta = store.changes_since("r", version)
        if delta is None:
            continue  # declining is always allowed ...
        added, removed = set(delta[0]), set(delta[1])
        assert added == current - snapshot  # ... answering wrong is not
        assert removed == snapshot - current


@pytest.mark.parametrize("make_store", BACKENDS)
@given(operations=_operations)
@settings(
    max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)
def test_changes_since_nets_to_exact_set_difference(make_store, operations):
    store = make_store()
    try:
        checkpoints = [(store.data_version("r"), set())]
        for operation in operations:
            if operation[0] == "add":
                store.add("r", operation[1])
            elif operation[0] == "add_many":
                store.add_many("r", operation[1])
            elif operation[0] == "remove":
                store.remove("r", operation[1])
            else:
                continue
            checkpoints.append((store.data_version("r"), set(store.scan("r"))))
            _assert_history_consistent(store, checkpoints)
    finally:
        store.close()


@pytest.mark.parametrize("make_store", BACKENDS)
def test_data_version_bumps_only_on_effective_mutations(make_store):
    store = make_store()
    try:
        v0 = store.data_version("r")
        store.add("r", (1, 2))
        v1 = store.data_version("r")
        assert v1 != v0
        store.add("r", (1, 2))  # duplicate: ineffective
        assert store.data_version("r") == v1
        store.remove("r", (9, 9))  # absent: ineffective
        assert store.data_version("r") == v1
        assert store.add_many("r", [(1, 2)]) == 0  # all-duplicate batch
        assert store.data_version("r") == v1
        assert store.changes_since("r", v1) == ([], [])
    finally:
        store.close()


@pytest.mark.parametrize("make_store", BACKENDS)
def test_add_remove_pairs_net_out(make_store):
    store = make_store()
    try:
        store.add("r", (1, 1))
        version = store.data_version("r")
        store.add("r", (2, 2))
        store.remove("r", (2, 2))
        store.add("r", (3, 3))
        store.remove("r", (1, 1))
        delta = store.changes_since("r", version)
        assert delta is not None
        added, removed = delta
        assert set(added) == {(3, 3)}
        assert set(removed) == {(1, 1)}
    finally:
        store.close()


@pytest.mark.parametrize("make_store", BACKENDS)
def test_replace_and_clear_invalidate_older_versions(make_store):
    """Wholesale resets forget history: a pre-reset version gets ``None``
    (forcing the caller's full re-read), while post-reset versions answer
    exactly again."""
    store = make_store()
    try:
        store.add("r", (1, 2))
        before_replace = store.data_version("r")
        store.replace("r", [(3, 4)])
        assert store.changes_since("r", before_replace) is None
        after_replace = store.data_version("r")
        store.add("r", (5, 6))
        assert store.changes_since("r", after_replace) == ([(5, 6)], [])
        store.clear_relation("r")
        assert store.changes_since("r", after_replace) is None
    finally:
        store.close()


def test_sqlite_unattributable_batches_decline_instead_of_guessing():
    """``INSERT OR IGNORE`` cannot say which rows of a partially-fresh (or
    internally duplicated) batch were new, so SQLite must invalidate the
    history rather than report a guessed delta."""
    store = SQLiteFactStore()
    try:
        store.add("r", (1, 2))
        version = store.data_version("r")
        store.add_many("r", [(1, 2), (3, 4)])  # (1, 2) already present
        assert store.changes_since("r", version) is None
    finally:
        store.close()
    store = SQLiteFactStore()
    try:
        store.add("r", (0, 0))
        version = store.data_version("r")
        store.add_many("r", [(5, 6), (5, 6)])  # duplicate within the batch
        assert store.changes_since("r", version) is None
        # a fully-fresh, duplicate-free batch stays attributable
        version = store.data_version("r")
        store.add_many("r", [(7, 8), (9, 10)])
        delta = store.changes_since("r", version)
        assert delta is not None
        assert set(delta[0]) == {(7, 8), (9, 10)} and delta[1] == []
    finally:
        store.close()


def test_changelog_truncation_declines_beyond_floor():
    """The log is bounded: versions older than the retention floor get
    ``None``, recent versions keep answering exactly."""
    from repro.engines.datalog.storage import RelationChangeLog

    store = FactStore()
    v0 = store.data_version("r")
    for i in range(RelationChangeLog.LIMIT + 10):
        store.add("r", (i, i))
    assert store.changes_since("r", v0) is None
    recent = store.data_version("r")
    store.add("r", (-1, -1))
    assert store.changes_since("r", recent) == ([(-1, -1)], [])


def test_oversized_batch_invalidates_history_wholesale():
    """A single batch larger than the log could ever retain skips the
    appends and resets the history in one step."""
    from repro.engines.datalog.storage import RelationChangeLog

    store = FactStore()
    store.add("r", (0, -1))
    version = store.data_version("r")
    store.add_many("r", [(i, 1) for i in range(RelationChangeLog.LIMIT + 2)])
    assert store.changes_since("r", version) is None
