"""Tests for the serving pool: correctness, IVM, coalescing, admission.

Every concurrency claim is proved against a single-session oracle: the pool
answers exactly what one plain :class:`~repro.session.Session` over the same
facts would answer, before and after mutations, on every worker.
"""

from __future__ import annotations

import threading
from concurrent.futures import wait

import pytest

from repro import Raqlet
from repro.common.errors import RaqletError
from repro.engines.datalog.storage_shared import SharedEDB
from repro.serving import PoolSaturatedError, ServingPool

SCHEMA = """
CREATE GRAPH {
  (personType : Person { id INT, firstName STRING, locationIP STRING }),
  (cityType : City { id INT, name STRING }),
  (:personType)-[locationType : isLocatedIn { id INT }]->(:cityType),
  (:personType)-[knowsType : knows { id INT }]->(:personType)
}
"""

FACTS = {
    "Person": [
        (42, "Ada", "10.0.0.1"),
        (43, "Alan", "10.0.0.2"),
        (44, "Edgar", "10.0.0.3"),
        (45, "Grace", "10.0.0.4"),
    ],
    "City": [(1, "Edinburgh"), (2, "Lausanne")],
    "Person_IS_LOCATED_IN_City": [(42, 1, 900), (43, 2, 901), (44, 1, 902), (45, 2, 903)],
    "Person_KNOWS_Person": [(42, 43, 1), (43, 44, 2), (44, 45, 3)],
}

CITY_QUERY = """
MATCH (n:Person {id: $personId})-[:IS_LOCATED_IN]->(p:City)
RETURN DISTINCT n.firstName AS firstName, p.id AS cityId
"""

REACH_QUERY = """
MATCH (a:Person {id: $personId})-[:KNOWS*]->(b:Person)
RETURN DISTINCT b.id AS reachable
"""


@pytest.fixture
def raqlet():
    return Raqlet(SCHEMA)


def _oracle(raqlet, facts, query, params):
    with raqlet.session(facts) as session:
        return session.execute(query, params).row_set()


# -- correctness vs the single-session oracle --------------------------------


@pytest.mark.parametrize("store", ["memory", "sqlite"])
def test_pool_matches_single_session_oracle(raqlet, store):
    with ServingPool(raqlet, FACTS, workers=2, store=store) as pool:
        pool.prepare("city", CITY_QUERY)
        pool.prepare("reach", REACH_QUERY)
        for pid in (42, 43, 44, 45):
            assert pool.run("city", personId=pid).row_set() == _oracle(
                raqlet, FACTS, CITY_QUERY, {"personId": pid}
            )
            assert pool.run("reach", personId=pid).row_set() == _oracle(
                raqlet, FACTS, REACH_QUERY, {"personId": pid}
            )
        stats = pool.stats()
        assert stats["executed_count"] == 8
        assert stats["rejected_count"] == 0


def test_every_worker_answers_identically(raqlet):
    """Force the same binding through every worker: same rows everywhere."""
    with ServingPool(raqlet, FACTS, workers=3) as pool:
        pool.prepare("reach", REACH_QUERY)
        expected = _oracle(raqlet, FACTS, REACH_QUERY, {"personId": 42})
        seen_workers = set()
        # distinct bindings round-robin across workers; repeat the probe
        # binding between them so affinity lands it on each worker over time
        for pid in (42, 43, 44, 42, 45, 42):
            response = pool.submit("reach", personId=pid).result(timeout=60)
            if pid == 42:
                assert response.result.row_set() == expected
                seen_workers.add(response.worker)
        assert len(seen_workers) >= 1  # affinity keeps 42 on one worker
        per_worker = pool.stats()["per_worker"]
        assert sum(entry["executed"] for entry in per_worker) == 6


# -- mutations: snapshot isolation + O(|delta|) maintenance ------------------


def test_mutations_are_seen_by_later_runs(raqlet, store=None):
    with ServingPool(raqlet, FACTS, workers=2, store=store) as pool:
        pool.prepare("reach", REACH_QUERY)
        before = pool.run("reach", personId=44).row_set()
        assert before == {(45,)}
        outcome = pool.mutate(insert={"Person_KNOWS_Person": [(45, 42, 9)]})
        assert outcome["inserted"] == 1
        after = pool.run("reach", personId=44).row_set()
        assert after == {(45,), (42,), (43,), (44,)}
        # retraction returns to the original answer
        pool.mutate(retract={"Person_KNOWS_Person": [(45, 42, 9)]})
        assert pool.run("reach", personId=44).row_set() == before


def test_streaming_mutations_maintain_incrementally(raqlet, store=None):
    """The serving acceptance bar: a mutate/run stream on a warm binding
    goes through IVM on every step — zero full re-derivations."""
    facts = {name: list(rows) for name, rows in FACTS.items()}
    with ServingPool(raqlet, facts, workers=2, store=store) as pool:
        pool.prepare("reach", REACH_QUERY)
        oracle_facts = {name: list(rows) for name, rows in FACTS.items()}
        assert pool.run("reach", personId=42).row_set() == _oracle(
            raqlet, oracle_facts, REACH_QUERY, {"personId": 42}
        )
        for step in range(4):
            edge = (45, 50 + step, 100 + step)
            pool.mutate(insert={"Person_KNOWS_Person": [edge]})
            oracle_facts["Person_KNOWS_Person"].append(edge)
            assert pool.run("reach", personId=42).row_set() == _oracle(
                raqlet, oracle_facts, REACH_QUERY, {"personId": 42}
            )
        stats = pool.stats()
        assert stats["maintain_count"] >= 4
        assert stats["full_rederive_count"] == 0


def test_mutating_a_derived_relation_is_rejected(raqlet):
    with ServingPool(raqlet, FACTS, workers=1) as pool:
        pool.prepare("city", CITY_QUERY)
        derived = next(iter(pool._derived_originals))
        with pytest.raises(RaqletError, match="derived"):
            pool.mutate(insert={derived: [(1,)]})


# -- coalescing ---------------------------------------------------------------


def test_identical_inflight_requests_coalesce(raqlet):
    with ServingPool(raqlet, FACTS, workers=1) as pool:
        pool.prepare("city", CITY_QUERY)
        release = pool._pause_worker(0)
        try:
            futures = [pool.submit("city", personId=42) for _ in range(5)]
            # all five share one future object -> one execution
            assert all(future is futures[0] for future in futures[1:])
        finally:
            release.set()
        results = [future.result(timeout=60) for future in futures]
        assert results[0].result.row_set() == {("Ada", 1)}
        stats = pool.stats()
        assert stats["coalesced_count"] == 4
        assert stats["executed_count"] == 1


def test_coalescing_is_epoch_tagged(raqlet):
    """A request admitted after a mutation must not share the answer of one
    admitted before it — same statement, same binding, different epoch."""
    with ServingPool(raqlet, FACTS, workers=1) as pool:
        pool.prepare("reach", REACH_QUERY)
        release = pool._pause_worker(0)
        try:
            first = pool.submit("reach", personId=44)
            pool.mutate(insert={"Person_KNOWS_Person": [(45, 42, 9)]})
            second = pool.submit("reach", personId=44)
            assert second is not first  # the epoch moved: no coalescing
        finally:
            release.set()
        # Reads are "latest committed at execution time": both requests ran
        # after the mutation, so both see the new state — through two
        # separate executions, never one shared stale answer.
        after = {(45,), (42,), (43,), (44,)}
        assert first.result(timeout=60).result.row_set() == after
        assert second.result(timeout=60).result.row_set() == after
        assert pool.stats()["coalesced_count"] == 0
        assert pool.stats()["executed_count"] == 2


def test_distinct_bindings_do_not_coalesce(raqlet):
    with ServingPool(raqlet, FACTS, workers=1) as pool:
        pool.prepare("city", CITY_QUERY)
        release = pool._pause_worker(0)
        try:
            first = pool.submit("city", personId=42)
            second = pool.submit("city", personId=43)
            assert second is not first
        finally:
            release.set()
        wait([first, second], timeout=60)
        assert pool.stats()["coalesced_count"] == 0


# -- admission control --------------------------------------------------------


def test_saturated_pool_rejects_new_requests(raqlet):
    with ServingPool(raqlet, FACTS, workers=1, max_pending=2) as pool:
        pool.prepare("city", CITY_QUERY)
        release = pool._pause_worker(0)
        try:
            held = [pool.submit("city", personId=pid) for pid in (42, 43)]
            with pytest.raises(PoolSaturatedError):
                pool.submit("city", personId=44)
            # coalescing onto an in-flight request is still admitted
            again = pool.submit("city", personId=42)
            assert again is held[0]
        finally:
            release.set()
        wait(held, timeout=60)
        assert pool.stats()["rejected_count"] == 1
        # capacity is released: new submissions are admitted again
        assert pool.run("city", personId=44).row_set() == {("Edgar", 1)}


# -- shared caches across workers ---------------------------------------------


FOF_QUERY = """
MATCH (a:Person {id: $personId})-[:KNOWS*2..2]-(b:Person)
RETURN DISTINCT b.id AS friendOfFriend
"""


def _closures_compiled(raqlet, workers):
    with ServingPool(raqlet, FACTS, workers=workers, executor="compiled") as pool:
        pool.prepare("reach", REACH_QUERY)
        pool.prepare("fof", FOF_QUERY)
        # new routing keys round-robin, so with 3 workers both statements
        # land on every worker
        for pid in (42, 43, 44, 45, 46, 47):
            pool.run("reach", personId=pid)
            pool.run("fof", personId=pid)
        assert all(worker.executed_count for worker in pool._workers)
        return pool._executor.compile_count


def test_workers_share_one_closure_cache(raqlet):
    """Every worker plans the same relation names for a statement, so a
    closure compiled on one worker serves them all."""
    single = _closures_compiled(raqlet, 1)
    assert single > 0
    assert _closures_compiled(raqlet, 3) == single


def test_columnar_workers_share_relation_encodings(raqlet):
    """Satellite: one ValueDict + one columnar cache across the pool —
    a second statement and other workers add zero relation re-encodes."""
    pytest.importorskip("numpy")
    with ServingPool(raqlet, FACTS, workers=2, executor="columnar") as pool:
        pool.prepare("city", CITY_QUERY)
        pool.run("city", personId=42)
        encodes_after_first = pool._executor.store_encode_count
        assert encodes_after_first > 0
        # same statement, other worker: the encoded columns are keyed by the
        # *shared* store identity, so nothing is re-encoded
        pool.run("city", personId=43)
        pool.run("city", personId=44)
        # a different prepared statement over the same relations reuses the
        # shared encodings too (the cross-query ValueDict satellite)
        pool.prepare("city2", CITY_QUERY)
        pool.run("city2", personId=42)
        assert pool._executor.store_encode_count == encodes_after_first


# -- lifecycle ----------------------------------------------------------------


def test_statement_replacement_bumps_version(raqlet):
    with ServingPool(raqlet, FACTS, workers=1) as pool:
        pool.prepare("q", CITY_QUERY)
        assert pool.run("q", personId=42).row_set() == {("Ada", 1)}
        pool.prepare("q", REACH_QUERY)  # re-prepare under the same name
        assert pool.run("q", personId=42).row_set() == {(43,), (44,), (45,)}


def test_unknown_statement_and_closed_pool(raqlet):
    pool = ServingPool(raqlet, FACTS, workers=1)
    pool.prepare("city", CITY_QUERY)
    with pytest.raises(RaqletError, match="unknown prepared statement"):
        pool.run("nope", personId=42)
    pool.close()
    with pytest.raises(RaqletError, match="closed"):
        pool.run("city", personId=42)


def test_pool_over_caller_supplied_shared_edb(raqlet):
    """A caller-owned SharedEDB survives the pool: external writers keep
    the epoch moving and the pool picks the new state up."""
    shared = SharedEDB()
    shared.ingest(FACTS)
    pool = ServingPool(raqlet, workers=1, store=shared)
    try:
        pool.prepare("reach", REACH_QUERY)
        assert pool.run("reach", personId=44).row_set() == {(45,)}
        shared.insert("Person_KNOWS_Person", [(45, 42, 9)])  # external writer
        assert pool.run("reach", personId=44).row_set() == {
            (45,), (42,), (43,), (44,),
        }
    finally:
        pool.close()
        # still open after pool.close(): the pool does not own the store
        snap = shared.pin()
        assert snap.contains("Person_KNOWS_Person", (45, 42, 9))
        snap.release()
        shared.close()


def test_concurrent_clients_hammer_one_pool(raqlet, store=None):
    """Many client threads, mixed statements and bindings: every single
    response equals the oracle for its binding."""
    oracles = {
        pid: _oracle(raqlet, FACTS, REACH_QUERY, {"personId": pid})
        for pid in (42, 43, 44, 45)
    }
    errors = []
    with ServingPool(
        raqlet, FACTS, workers=4, max_pending=256, store=store
    ) as pool:
        pool.prepare("reach", REACH_QUERY)

        def client(seed):
            try:
                for step in range(6):
                    pid = 42 + (seed + step) % 4
                    rows = pool.run("reach", personId=pid, timeout=120).row_set()
                    assert rows == oracles[pid], f"pid {pid}: {rows}"
            except BaseException as exc:  # noqa: BLE001
                errors.append(exc)

        threads = [threading.Thread(target=client, args=(i,)) for i in range(6)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
    if errors:
        raise errors[0]


# -- subscriptions: standing queries over the shared EDB ---------------------


class _Listener:
    """Thread-safe notification collector with a wait helper."""

    def __init__(self):
        self.events = []
        self._cond = threading.Condition()

    def __call__(self, sid, name, delta):
        with self._cond:
            self.events.append((sid, name, delta))
            self._cond.notify_all()

    def wait_for(self, count, timeout=10.0):
        with self._cond:
            assert self._cond.wait_for(
                lambda: len(self.events) >= count, timeout=timeout
            ), f"expected {count} notifications, got {len(self.events)}"
            return list(self.events)

    def snapshot(self):
        with self._cond:
            return list(self.events)


def test_subscribe_delivers_deltas_on_mutate(raqlet, store=None):
    with ServingPool(raqlet, FACTS, workers=2, store=store) as pool:
        pool.prepare("reach", REACH_QUERY)
        listener = _Listener()
        sid = pool.subscribe("reach", listener, personId=44)
        edge = (45, 42, 9)
        outcome = pool.mutate(insert={"Person_KNOWS_Person": [edge]})
        (event,) = listener.wait_for(1)
        got_sid, got_name, delta = event
        assert (got_sid, got_name) == (sid, "reach")
        assert set(delta.added) == {(42,), (43,), (44,)}
        assert delta.removed == []
        assert delta.epoch == outcome["epoch"]
        # retraction notifies with the same rows removed
        pool.mutate(retract={"Person_KNOWS_Person": [edge]})
        events = listener.wait_for(2)
        delta = events[1][2]
        assert delta.added == []
        assert set(delta.removed) == {(42,), (43,), (44,)}
        assert pool.stats()["full_rederive_count"] == 0


def test_subscription_is_exactly_once_with_query_traffic(raqlet, store=None):
    """A run request on the owning worker syncs (and delivers) first; the
    mutation's own poke must not deliver the same epoch again."""
    with ServingPool(raqlet, FACTS, workers=1, store=store) as pool:
        pool.prepare("reach", REACH_QUERY)
        listener = _Listener()
        pool.subscribe("reach", listener, personId=44)
        pool.mutate(insert={"Person_KNOWS_Person": [(45, 42, 9)]})
        # query traffic races the notify control for the same epoch
        assert pool.run("reach", personId=44).row_set() == {
            (45,), (42,), (43,), (44,),
        }
        listener.wait_for(1)
        # drain the worker queue: a no-op control proves the notify ran
        pool.poke()
        pool.run("reach", personId=44)
        events = listener.snapshot()
        assert len(events) == 1, [e[2].added for e in events]


def test_irrelevant_mutations_do_not_notify(raqlet):
    with ServingPool(raqlet, FACTS, workers=2) as pool:
        pool.prepare("reach", REACH_QUERY)
        listener = _Listener()
        pool.subscribe("reach", listener, personId=44)
        pool.mutate(insert={"City": [(3, "Zurich")]})
        pool.run("reach", personId=44)  # forces a sync + flush round
        assert listener.snapshot() == []


def test_unsubscribe_stops_delivery(raqlet):
    with ServingPool(raqlet, FACTS, workers=2) as pool:
        pool.prepare("reach", REACH_QUERY)
        listener = _Listener()
        sid = pool.subscribe("reach", listener, personId=44)
        assert pool.unsubscribe(sid) is True
        assert pool.unsubscribe(sid) is False  # idempotent
        pool.mutate(insert={"Person_KNOWS_Person": [(45, 42, 9)]})
        pool.run("reach", personId=44)
        assert listener.snapshot() == []
        assert pool.stats()["subscription_count"] == 0


def test_distinct_bindings_notify_independently(raqlet):
    with ServingPool(raqlet, FACTS, workers=2) as pool:
        pool.prepare("reach", REACH_QUERY)
        listener = _Listener()
        sid_44 = pool.subscribe("reach", listener, personId=44)
        sid_45 = pool.subscribe("reach", listener, personId=45)
        assert pool.stats()["subscription_count"] == 2
        pool.mutate(insert={"Person_KNOWS_Person": [(45, 42, 9)]})
        events = listener.wait_for(2)
        by_sid = {sid: delta for sid, _, delta in events}
        assert set(by_sid) == {sid_44, sid_45}
        assert set(by_sid[sid_44].added) == {(42,), (43,), (44,)}
        assert set(by_sid[sid_45].added) == {(42,), (43,), (44,), (45,)}
        assert pool.stats()["notification_count"] == 2


def test_subscribe_unknown_statement_rejected(raqlet):
    with ServingPool(raqlet, FACTS, workers=1) as pool:
        with pytest.raises(RaqletError, match="unknown prepared statement"):
            pool.subscribe("missing", lambda *a: None)


def test_shared_edb_pushes_external_writes_to_subscribers(raqlet, store=None):
    """Writes that bypass the subscriber's pool — through another pool over
    the same SharedEDB, or straight on the caller-owned SharedEDB — each
    notify the subscriber exactly once, and a closed pool leaves no
    listener behind."""
    shared = SharedEDB(store)
    shared.ingest(FACTS)
    writer = ServingPool(raqlet, workers=1, store=shared)
    reader = ServingPool(Raqlet(SCHEMA), workers=1, store=shared)
    try:
        reader.prepare("reach", REACH_QUERY)
        listener = _Listener()
        reader.subscribe("reach", listener, personId=44)
        writer.mutate(insert={"Person_KNOWS_Person": [(45, 43, 9)]})
        (event,) = listener.wait_for(1)
        assert set(event[2].added) == {(43,), (44,)}
        shared.insert("Person_KNOWS_Person", [(43, 42, 10)])  # direct write
        events = listener.wait_for(2)
        assert set(events[1][2].added) == {(42,)}
        # A request queues behind any further poke on the reader's worker.
        assert reader.run("reach", personId=44).row_set() == {
            (42,), (43,), (44,), (45,)
        }
        assert len(listener.snapshot()) == 2
        assert shared._listeners == [writer.poke, reader.poke]
        reader.close()
        assert shared._listeners == [writer.poke]
        writer.close()
        assert shared._listeners == []
    finally:
        reader.close()
        writer.close()
        shared.close()


# -- the same claims over a SQLite base --------------------------------------

# SQLite's single connection cannot serve concurrent readers, so the shared
# EDB serialises every base read through one mutex.  The tests above run on
# the in-memory base (which needs none); these rerun the mutation,
# concurrency and subscription paths through that mutex.
SQLITE_BASE_CHECKS = [
    test_mutations_are_seen_by_later_runs,
    test_streaming_mutations_maintain_incrementally,
    test_concurrent_clients_hammer_one_pool,
    test_subscribe_delivers_deltas_on_mutate,
    test_subscription_is_exactly_once_with_query_traffic,
    test_shared_edb_pushes_external_writes_to_subscribers,
]


@pytest.mark.parametrize(
    "check", SQLITE_BASE_CHECKS, ids=[check.__name__[5:] for check in SQLITE_BASE_CHECKS]
)
def test_sqlite_base(raqlet, check):
    check(raqlet, store="sqlite")
