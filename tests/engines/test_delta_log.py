"""Tests for the one mutation log (:mod:`repro.engines.datalog.delta_log`).

The rules a session and the shared EDB both rely on: the epoch advances
only on an effective batch, ``net`` cancels opposite changes and answers
``None`` below the floor, a bulk change raises the floor, and compaction is
bounded by consumer positions and — past the retention bound — by nothing.
A threaded stress test checks that concurrent readers netting and
consuming while a writer appends and compacts always see exact deltas.
"""

from __future__ import annotations

import random
import sys
import threading

from repro.engines.datalog import delta_log
from repro.engines.datalog.delta_log import DeltaLog, net_entries


def test_epoch_advances_only_on_effective_batches():
    log = DeltaLog()
    assert log.append([]) == 0
    assert log.append([("r", (1,), 1)]) == 1
    assert log.append([]) == 1
    assert log.epoch == 1 and len(log) == 1


def test_net_cancels_opposite_changes_within_the_span():
    log = DeltaLog()
    log.append([("r", (1,), 1), ("s", (9,), -1)])
    log.append([("r", (1,), -1), ("r", (2,), 1)])
    log.append([("s", (9,), 1)])
    assert log.net(0) == ({"r": {(2,)}}, {})
    assert log.net(0, 1) == ({"r": {(1,)}}, {"s": {(9,)}})
    assert log.net(1, 2) == ({"r": {(2,)}}, {"r": {(1,)}})
    assert log.net(3) == ({}, {})


def test_net_entries_is_the_netting_rule():
    assert net_entries([("r", (1,), -1), ("r", (1,), 1), ("r", (1,), -1)]) == (
        {},
        {"r": {(1,)}},
    )


def test_raise_floor_sends_older_readers_to_rederive():
    log = DeltaLog()
    log.append([("r", (1,), 1)])
    assert log.raise_floor() == 2
    assert log.floor == 2 and len(log) == 0
    assert log.net(1) is None
    log.append([("r", (2,), 1)])
    assert log.net(2) == ({"r": {(2,)}}, {})


def test_compaction_is_bounded_by_consumers():
    log = DeltaLog()
    log.consume("a", 0)
    log.consume("b", 1)
    for value in range(3):
        log.append([("r", (value,), 1)])
    assert not log.compact()  # "a" still needs epoch 1
    log.consume("a", 2)
    assert log.compact()  # "b" still needs epoch 2
    assert log.floor == 1 and log.net(0) is None
    assert log.net(1) == ({"r": {(1,), (2,)}}, {})
    log.release("b")
    assert log.compact()
    assert log.floor == 2 and len(log) == 1
    log.release("a")
    assert log.compact()
    assert len(log) == 0 and log.positions() == {}


def test_retention_folds_past_an_idle_consumer(monkeypatch):
    monkeypatch.setattr(delta_log, "RETENTION", 4)
    log = DeltaLog()
    log.consume("idle", 0)
    for value in range(40):
        log.append([("r", (value,), 1)])
        log.compact()
        assert len(log) <= 4
    assert log.net(0) is None
    assert log.net(log.floor) == ({"r": {(value,) for value in range(36, 40)}}, {})


def test_concurrent_readers_always_net_exactly(monkeypatch):
    """Readers net from their own epoch to the head and consume while a
    writer appends and compacts; every answered delta must turn the
    reader's state into the head state, and retention must hold."""
    monkeypatch.setattr(delta_log, "RETENTION", 64)
    log = DeltaLog()
    states = {0: frozenset()}
    states_lock = threading.Lock()
    stop = threading.Event()
    failures = []

    def reader(name: str) -> None:
        position = 0
        log.consume(name, position)
        while not stop.is_set():
            head = log.epoch
            delta = log.net(position, head)
            if delta is None:  # folded past: re-derive from the head state
                position = head
            else:
                added, removed = delta
                with states_lock:
                    before, after = states[position], states[head]
                got = (before - removed.get("r", set())) | added.get("r", set())
                if got != after:
                    failures.append((name, position, head))
                    return
                position = head
            log.consume(name, position)

    readers = [threading.Thread(target=reader, args=(f"q{i}",)) for i in range(6)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for thread in readers:
            thread.start()
        rng = random.Random(7)
        state = set()
        for _ in range(3000):
            entries = []
            for row in {(rng.randrange(40),) for _ in range(rng.randrange(1, 4))}:
                entries.append(("r", row, -1 if row in state else 1))
                state.symmetric_difference_update({row})
            with states_lock:
                states[log.epoch + 1] = frozenset(state)
            log.append(entries)
            log.compact()
            assert len(log) <= delta_log.RETENTION
    finally:
        stop.set()
        for thread in readers:
            thread.join(timeout=30)
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in readers)
    assert failures == []
