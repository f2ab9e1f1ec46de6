"""Fault injection into incremental maintenance: a failed pass rolls back.

``engine.maintain`` promises that when the incremental maintainer fails
mid-pass it undoes its partial writes (``IncrementalMaintainer._rollback``)
and the engine falls back to a full re-derivation whose report is still
exact.  A store wrapper raises on the n-th ``add`` or ``remove`` inside
``maintain``; n is swept over every write a clean pass makes, on both
stores, for one counting (non-recursive, with negation) and one DRed
(recursive) program.  After every faulted call:

* ``maintain`` returned, through the fallback (``full_rederive_count == 1``);
* its report equals the oracle's before/after diff of a fresh derivation;
* the store's IDB equals a fresh derivation at the new EDB;
* the next mutation is maintained incrementally again.
"""

from __future__ import annotations

import pytest

from repro.engines.datalog import DatalogEngine
from repro.engines.datalog.storage import StoreBackend, create_store
from repro.frontend.datalog import parse_datalog

COUNTING = """
.decl edge(a:number, b:number)
.decl node(a:number)
.decl two_hop(a:number, c:number)
.decl has_out(a:number)
.decl sink(a:number)
two_hop(a, c) :- edge(a, b), edge(b, c).
has_out(a) :- edge(a, _).
sink(a) :- node(a), !has_out(a).
"""

DRED = """
.decl edge(a:number, b:number)
.decl node(a:number)
.decl tc(a:number, b:number)
.decl cyclic(a:number)
tc(a, b) :- edge(a, b).
tc(a, c) :- tc(a, b), edge(b, c).
cyclic(a) :- tc(a, a).
"""

FACTS = {
    "node": [(i,) for i in range(6)],
    "edge": [(0, 1), (1, 2), (2, 3), (3, 1), (4, 5)],
}
INSERTED = {(2, 4), (5, 0)}
RETRACTED = {(1, 2), (4, 5)}


class InjectedFault(Exception):
    """The failure the wrapper injects."""


class FaultyStore(StoreBackend):
    """Delegates to a real store; raises on the ``fail_at``-th ``add`` or
    ``remove`` while armed, then disarms (so the rollback and the fallback
    re-derivation run on a healthy store)."""

    def __init__(self, inner: StoreBackend) -> None:
        self.inner = inner
        self.concurrent_reads = inner.concurrent_reads
        self.armed = False
        self.fail_at = 0
        self.writes = 0

    def _write(self) -> None:
        if self.armed:
            self.writes += 1
            if self.writes == self.fail_at:
                self.armed = False
                raise InjectedFault(f"injected fault on write {self.writes}")

    def add(self, name, row):
        self._write()
        return self.inner.add(name, row)

    def remove(self, name, row):
        self._write()
        return self.inner.remove(name, row)

    def add_many(self, name, rows):
        return self.inner.add_many(name, rows)

    def clear_relation(self, name):
        self.inner.clear_relation(name)

    def relation_names(self):
        return self.inner.relation_names()

    def count(self, name):
        return self.inner.count(name)

    def contains(self, name, row):
        return self.inner.contains(name, row)

    def lookup(self, name, positions, key):
        return self.inner.lookup(name, positions, key)

    def lookup_many(self, name, positions, keys):
        return self.inner.lookup_many(name, positions, keys)

    def scan(self, name):
        return self.inner.scan(name)

    @property
    def index_count(self):
        return self.inner.index_count

    @property
    def index_build_count(self):
        return self.inner.index_build_count

    def relation_stats(self, name):
        return self.inner.relation_stats(name)

    def data_version(self, name):
        return self.inner.data_version(name)

    def begin_batch(self):
        self.inner.begin_batch()

    def end_batch(self):
        self.inner.end_batch()

    def close(self):
        self.inner.close()


def _derive(program, edges):
    engine = DatalogEngine(program, {**FACTS, "edge": sorted(edges)}, store="memory")
    engine.run()
    return {name: set(engine.store.scan(name)) for name in program.idb_names()}


def _faulted_maintain(program, store_spec, fail_at):
    """Run, mutate the EDB, then maintain with the fault armed at
    ``fail_at`` (0 = never).  Returns the engine, its store, the report and
    how many writes the armed pass made."""
    store = FaultyStore(create_store(store_spec))
    engine = DatalogEngine(program, FACTS, store=store, ivm=True)
    engine.run()
    for row in INSERTED:
        assert store.add("edge", row)
    for row in RETRACTED:
        assert store.remove("edge", row)
    store.writes, store.fail_at, store.armed = 0, fail_at, True
    report = engine.maintain({"edge": INSERTED}, {"edge": RETRACTED})
    store.armed = False
    return engine, store, report


@pytest.mark.parametrize("store_spec", ["memory", "sqlite"])
@pytest.mark.parametrize("text", [COUNTING, DRED], ids=["counting", "dred"])
def test_every_faulted_write_rolls_back_and_falls_back_exactly(text, store_spec):
    program = parse_datalog(text)
    old_edges = set(FACTS["edge"])
    new_edges = (old_edges | INSERTED) - RETRACTED
    before, after = _derive(program, old_edges), _derive(program, new_edges)
    want_added = {"edge": INSERTED}
    want_removed = {"edge": RETRACTED}
    for name in program.idb_names():
        if after[name] - before[name]:
            want_added[name] = after[name] - before[name]
        if before[name] - after[name]:
            want_removed[name] = before[name] - after[name]

    engine, store, clean = _faulted_maintain(program, store_spec, 0)
    assert engine.maintain_count == 1 and engine.full_rederive_count == 0
    total_writes = store.writes
    assert total_writes > 0
    store.close()

    for fail_at in range(1, total_writes + 1):
        engine, store, report = _faulted_maintain(program, store_spec, fail_at)
        label = f"fault at write {fail_at}/{total_writes}"
        assert store.writes == fail_at, label
        assert engine.full_rederive_count == 1, label
        assert engine.maintain_count == 0, label
        assert report.full_rederive, label
        assert {k: v for k, v in report.added.items() if v} == want_added, label
        assert {k: v for k, v in report.removed.items() if v} == want_removed, label
        for name in program.idb_names():
            assert set(store.scan(name)) == after[name], f"{label}: {name}"
        # The engine recovered: the next mutation is maintained incrementally.
        assert store.add("edge", (3, 0))
        engine.maintain({"edge": {(3, 0)}}, {})
        assert engine.maintain_count == 1, label
        assert engine.full_rederive_count == 1, label
        fresh = _derive(program, new_edges | {(3, 0)})
        for name in program.idb_names():
            assert set(store.scan(name)) == fresh[name], f"{label}: {name}"
        store.close()
