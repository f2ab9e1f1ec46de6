"""Epoch-versioned shared EDB storage for the concurrent serving layer.

One writer, many readers, no torn reads: :class:`SharedEDB` wraps any
:class:`~repro.engines.datalog.storage.StoreBackend` with multi-version
visibility.  Writers (``insert``/``retract``/``ingest``) apply *effective*
deltas under a single-writer lock and bump a global **epoch**; readers
``pin()`` the current epoch and receive an :class:`EpochSnapshot` that keeps
answering with the pinned state no matter how many writes land afterwards.

The representation is a :class:`~repro.engines.datalog.delta_log.DeltaLog`
over a base store: the base materialises the state as of a **base epoch**,
and every epoch is one logged batch of ``(relation, row, ±1)`` entries.  A
snapshot at epoch ``E`` reads "base ± net delta over ``(base epoch, E]``" —
the net delta is computed once at pin time and is immutable afterwards, so
snapshot reads take no locks.  Whenever nothing is pinned the base is
folded up to the latest epoch, so the read fast path stays "delegate to the
base store"; the log itself keeps the batches its consuming queries have
not read yet, within its retention bound.

:class:`SnapshotView` is the per-worker adapter: a full ``StoreBackend``
that routes shared-EDB reads through a pinned snapshot while keeping every
derived (IDB) relation — and any transient EDB patches the IVM union-state
machinery makes mid-maintenance — in a private in-memory store invisible to
other workers.  A worker session over a view reads the shared log in place,
up to the view's pinned epoch.

Relations whose backing store cannot serve concurrent readers
(``concurrent_reads = False``, e.g. SQLite's single connection) are
serialised through one base mutex; the in-memory store needs none.
"""

from __future__ import annotations

import threading
from bisect import bisect_right
from contextlib import contextmanager
from typing import Dict, Iterable, Iterator, List, Mapping, Optional, Sequence, Set, Tuple

from repro.common.errors import ExecutionError
from repro.engines.datalog.delta_log import DeltaLog, Entry
from repro.engines.datalog.statistics import RelationStats, compute_stats
from repro.engines.datalog.storage import (
    FactStore,
    Key,
    Row,
    StoreBackend,
    StoreSpec,
    create_store,
)

#: net delta of one relation versus the base: ``(added, removed)``
#: with ``added`` disjoint from the base and ``removed`` a subset of it.
NetPair = Tuple[Set[Row], Set[Row]]

_NO_ROWS: Set[Row] = frozenset()


def _key_matches(row: Row, positions: Sequence[int], key: Key) -> bool:
    """Row-key equality with dict-key semantics (``==`` plus identity, so
    NaN matches itself the way a hash-index probe would)."""
    for position, wanted in zip(positions, key):
        value = row[position]
        if value is not wanted and value != wanted:
            return False
    return True


class SharedEDB:
    """An epoch-versioned, single-writer / multi-reader EDB store.

    Parameters
    ----------
    store:
        The base backend (any :func:`create_store` spec or instance).  Data
        already in it is the state at epoch 0.
    """

    def __init__(self, store: StoreSpec = None) -> None:
        base = create_store(store)
        self._base = base
        self._base_mutex: Optional[threading.RLock] = (
            None if base.concurrent_reads else threading.RLock()
        )
        #: guards every piece of mutable metadata below (writes, pins,
        #: net-delta cache, folding) — never held during snapshot reads
        self._lock = threading.RLock()
        self._log = DeltaLog()
        #: the epoch the base store materialises (never above a pinned one)
        self._base_epoch = 0
        self._pins: Dict[int, int] = {}
        #: ``(epoch, net delta versus the base)`` for the latest epoch netted
        self._head_net: Tuple[int, Dict[str, NetPair]] = (0, {})
        self._known: Set[str] = set(base.relation_names())
        #: per-relation sorted epochs (> base epoch) at which it changed
        self._touches: Dict[str, List[int]] = {}
        #: per-relation count of change epochs already folded into the base
        self._touch_base: Dict[str, int] = {}
        self.write_count = 0
        self.fold_count = 0

    @property
    def log(self) -> DeltaLog:
        """The mutation log; worker sessions consume it in place."""
        return self._log

    # -- base access (serialised when the backend needs it) -----------------

    @contextmanager
    def _guard(self) -> Iterator[None]:
        mutex = self._base_mutex
        if mutex is None:
            yield
        else:
            with mutex:
                yield

    def base_contains(self, name: str, row: Row) -> bool:
        with self._guard():
            return self._base.contains(name, row)

    def base_count(self, name: str) -> int:
        with self._guard():
            return self._base.count(name)

    def base_scan(self, name: str) -> List[Row]:
        with self._guard():
            return list(self._base.scan(name))

    def base_lookup(self, name: str, positions: Sequence[int], key: Key) -> Sequence[Row]:
        with self._guard():
            return self._base.lookup(name, positions, key)

    def base_lookup_many(
        self, name: str, positions: Sequence[int], keys: Sequence[Key]
    ) -> Dict[Key, Sequence[Row]]:
        with self._guard():
            return self._base.lookup_many(name, positions, keys)

    def base_relation_names(self) -> List[str]:
        with self._guard():
            return self._base.relation_names()

    def base_relation_stats(self, name: str) -> RelationStats:
        with self._guard():
            return self._base.relation_stats(name)

    # -- write side ---------------------------------------------------------

    def ingest(self, facts: Mapping[str, Iterable[Row]]) -> int:
        """Insert many relations' rows in one epoch; return rows added."""
        return self.apply(facts, None)[0]

    def insert(self, relation: str, rows: Iterable[Row]) -> int:
        """Insert rows into one relation; return how many were new."""
        return self.apply({relation: rows}, None)[0]

    def retract(self, relation: str, rows: Iterable[Row]) -> int:
        """Remove rows from one relation; return how many were present."""
        return self.apply(None, {relation: rows})[1]

    def apply(
        self,
        inserts: Optional[Mapping[str, Iterable[Row]]] = None,
        retracts: Optional[Mapping[str, Iterable[Row]]] = None,
    ) -> Tuple[int, int, int]:
        """Apply one mutation batch atomically; return
        ``(inserted, retracted, epoch)``.

        Only *effective* changes are recorded (inserting a visible row or
        retracting an absent one is a no-op), so the log entries are valid
        IVM deltas.  A batch with zero effective changes does not bump the
        epoch.
        """
        with self._lock:
            net = self._current_net()
            # visibility overlay for rows touched earlier in this same batch
            overlay: Dict[str, Dict[Row, bool]] = {}

            def visible(relation: str, row: Row) -> bool:
                touched = overlay.get(relation)
                if touched is not None and row in touched:
                    return touched[row]
                pair = net.get(relation)
                if pair is not None:
                    if row in pair[0]:
                        return True
                    if row in pair[1]:
                        return False
                return self.base_contains(relation, row)

            entries: List[Entry] = []
            inserted = retracted = 0
            for relation, rows in (inserts or {}).items():
                for row in rows:
                    row = tuple(row)
                    if visible(relation, row):
                        continue
                    entries.append((relation, row, 1))
                    overlay.setdefault(relation, {})[row] = True
                    inserted += 1
            for relation, rows in (retracts or {}).items():
                for row in rows:
                    row = tuple(row)
                    if not visible(relation, row):
                        continue
                    entries.append((relation, row, -1))
                    overlay.setdefault(relation, {})[row] = False
                    retracted += 1

            if entries:
                epoch = self._log.append(entries)
                touched_relations = {relation for relation, _, _ in entries}
                for relation in touched_relations:
                    self._touches.setdefault(relation, []).append(epoch)
                self._known.update(touched_relations)
                self.write_count += 1
                if not self._pins:
                    self._fold()
            return inserted, retracted, self._log.epoch

    # -- read side ----------------------------------------------------------

    @property
    def epoch(self) -> int:
        """The current (latest committed) epoch."""
        return self._log.epoch

    def is_known(self, name: str) -> bool:
        """Whether ``name`` has ever existed in the shared EDB."""
        return name in self._known

    def pin(self) -> "EpochSnapshot":
        """Pin the current epoch; the returned snapshot keeps seeing exactly
        this state until :meth:`EpochSnapshot.release`."""
        with self._lock:
            epoch = self._log.epoch
            net = self._current_net()
            self._pins[epoch] = self._pins.get(epoch, 0) + 1
            return EpochSnapshot(self, epoch, net)

    def _unpin(self, epoch: int) -> None:
        with self._lock:
            remaining = self._pins.get(epoch, 0) - 1
            if remaining > 0:
                self._pins[epoch] = remaining
            else:
                self._pins.pop(epoch, None)
                if not self._pins:
                    self._fold()

    def pinned_epochs(self) -> Dict[int, int]:
        """Return ``{epoch: pin count}`` (diagnostics)."""
        with self._lock:
            return dict(self._pins)

    def version_at(self, name: str, epoch: int) -> int:
        """Monotone per-relation change counter as of ``epoch`` — the number
        of epochs ``<= epoch`` that changed ``name``.  Folding preserves the
        total, so this is a valid ``data_version`` for snapshot readers."""
        # Lock-free: callers hold a pin, which blocks folding; a writer
        # appending an epoch > `epoch` does not change the bisect result.
        count = self._touch_base.get(name, 0)
        touches = self._touches.get(name)
        if touches:
            count += bisect_right(touches, epoch)
        return count

    # -- folding -------------------------------------------------------------

    def compact(self) -> bool:
        """Fold the base store up to the latest epoch and compact the log.

        Returns ``True`` when either moved; a pinned reader (which the fold
        would invalidate) makes this a no-op returning ``False``.
        """
        with self._lock:
            return not self._pins and self._fold()

    def _fold(self) -> bool:
        # caller holds self._lock and has checked there are no pins; the log
        # compacts only here, after the base caught up, so its floor never
        # passes the base epoch snapshots net from
        epoch = self._log.epoch
        folded = epoch != self._base_epoch
        if folded:
            added, removed = self._log.net(self._base_epoch, epoch)
            with self._guard():
                with self._base.batch():
                    for relation, rows in removed.items():
                        for row in rows:
                            self._base.remove(relation, row)
                    for relation, rows in added.items():
                        for row in rows:
                            self._base.add(relation, row)
            for relation, touches in self._touches.items():
                self._touch_base[relation] = self._touch_base.get(relation, 0) + len(touches)
            self._touches.clear()
            self._base_epoch = epoch
            self._head_net = (epoch, {})
            self.fold_count += 1
        return self._log.compact() or folded

    def _current_net(self) -> Dict[str, NetPair]:
        # caller holds self._lock; computed once per epoch, immutable after
        epoch = self._log.epoch
        if self._head_net[0] != epoch:
            added, removed = self._log.net(self._base_epoch, epoch)
            net = {
                relation: (added.get(relation, _NO_ROWS), removed.get(relation, _NO_ROWS))
                for relation in added.keys() | removed.keys()
            }
            self._head_net = (epoch, net)
        return self._head_net[1]

    # -- lifecycle / diagnostics ---------------------------------------------

    def stats(self) -> Dict[str, object]:
        with self._lock:
            return {
                "epoch": self._log.epoch,
                "floor": self._log.floor,
                "chain_entries": len(self._log),
                "pins": sum(self._pins.values()),
                "consumers": len(self._log.positions()),
                "write_count": self.write_count,
                "fold_count": self.fold_count,
                "base": type(self._base).__name__,
            }

    def close(self) -> None:
        with self._lock:
            self._base.close()


class EpochSnapshot:
    """A read-only view of the shared EDB frozen at one pinned epoch.

    All methods are lock-free on the in-memory base (the net delta is
    immutable, and folding — the only base mutation besides the writer's
    effectiveness probes — cannot run while this snapshot holds its pin).
    """

    __slots__ = ("_shared", "epoch", "_net", "_released")

    def __init__(self, shared: SharedEDB, epoch: int, net: Dict[str, NetPair]) -> None:
        self._shared = shared
        self.epoch = epoch
        self._net = net
        self._released = False

    def release(self) -> None:
        if not self._released:
            self._released = True
            self._shared._unpin(self.epoch)

    def dirty(self, name: str) -> bool:
        """Whether ``name`` differs from the base store at this epoch."""
        return name in self._net

    def relation_names(self) -> List[str]:
        names = set(self._shared.base_relation_names())
        names.update(self._net)
        return list(names)

    def count(self, name: str) -> int:
        pair = self._net.get(name)
        base = self._shared.base_count(name)
        if pair is None:
            return base
        return base + len(pair[0]) - len(pair[1])

    def contains(self, name: str, row: Row) -> bool:
        pair = self._net.get(name)
        if pair is not None:
            if row in pair[0]:
                return True
            if row in pair[1]:
                return False
        return self._shared.base_contains(name, row)

    def scan(self, name: str) -> List[Row]:
        rows = self._shared.base_scan(name)
        pair = self._net.get(name)
        if pair is None:
            return rows
        added, removed = pair
        if removed:
            rows = [row for row in rows if row not in removed]
        rows.extend(added)
        return rows

    def lookup(self, name: str, positions: Sequence[int], key: Key) -> Sequence[Row]:
        pair = self._net.get(name)
        if pair is None:
            return self._shared.base_lookup(name, positions, key)
        added, removed = pair
        base_rows = self._shared.base_lookup(name, positions, key)
        rows = [row for row in base_rows if row not in removed] if removed else list(base_rows)
        if added:
            positions = tuple(positions)
            key = tuple(key)
            rows.extend(row for row in added if _key_matches(row, positions, key))
        return rows

    def lookup_many(
        self, name: str, positions: Sequence[int], keys: Sequence[Key]
    ) -> Dict[Key, Sequence[Row]]:
        if name not in self._net:
            return self._shared.base_lookup_many(name, positions, keys)
        result: Dict[Key, Sequence[Row]] = {}
        for key in keys:
            key = tuple(key)
            if key not in result:
                result[key] = self.lookup(name, positions, key)
        return result

    def relation_stats(self, name: str) -> RelationStats:
        if name not in self._net:
            return self._shared.base_relation_stats(name)
        return compute_stats(self.scan(name))

    def data_version(self, name: str) -> int:
        return self._shared.version_at(name, self.epoch)


class SnapshotView(StoreBackend):
    """A per-worker ``StoreBackend`` over a :class:`SharedEDB`.

    Shared-EDB relations are read through a pinned :class:`EpochSnapshot`
    (re-pinned per request via :meth:`begin_read`/:meth:`end_read`); derived
    relations and any transient EDB patches live in a private in-memory
    store, so a worker's writes are invisible to every other worker.

    Writes to a *shared* relation are absorbed locally: an ``add`` of a row
    the snapshot already shows is a no-op, a ``remove`` of a snapshot row
    shadows it in a mask set, and the patch bookkeeping dissolves as soon as
    the net local change returns to zero — which is exactly what the IVM
    union-state machinery does mid-maintenance (re-add retracted rows, run
    the pass, take them back out).  A relation with no live patch keeps the
    zero-copy fast path: reads delegate straight to the snapshot, and
    :meth:`cache_identity` reports the shared store so all workers share one
    columnar encoding per relation.
    """

    concurrent_reads = True  # each view is only ever used by its own worker

    def __init__(self, shared: SharedEDB) -> None:
        self._shared = shared
        self._local = FactStore()
        self._masked: Dict[str, Set[Row]] = {}
        self._patched: Set[str] = set()
        self._snap: Optional[EpochSnapshot] = None

    # -- read-window lifecycle ----------------------------------------------

    def begin_read(self) -> int:
        """Pin the current shared epoch for the coming request; return it."""
        if self._snap is not None:
            self._snap.release()
        self._snap = self._shared.pin()
        return self._snap.epoch

    def end_read(self) -> None:
        """Release the pin.  Shared-relation reads raise until the next
        :meth:`begin_read` (they could otherwise observe a folded base)."""
        if self._snap is not None:
            self._snap.release()
            self._snap = None

    @property
    def pinned_epoch(self) -> Optional[int]:
        return self._snap.epoch if self._snap is not None else None

    @property
    def log(self) -> DeltaLog:
        """The shared mutation log, read in place up to :attr:`pinned_epoch`."""
        return self._shared.log

    def _snapshot(self) -> EpochSnapshot:
        snap = self._snap
        if snap is None:
            raise ExecutionError(
                "SnapshotView read outside a pinned window; call begin_read() first"
            )
        return snap

    def _is_shared(self, name: str) -> bool:
        return self._shared.is_known(name)

    def _tidy(self, name: str) -> None:
        # drop the patch bookkeeping once the local overlay nets to zero,
        # restoring the zero-copy snapshot fast path (and shared caching)
        masked = self._masked.get(name)
        if masked is not None and not masked:
            del self._masked[name]
            masked = None
        if masked is None and not self._local.count(name):
            self._patched.discard(name)

    # -- StoreBackend: mutation ---------------------------------------------

    def add(self, name: str, row: Row) -> bool:
        if not self._is_shared(name):
            return self._local.add(name, row)
        row = tuple(row)
        masked = self._masked.get(name)
        if masked and row in masked:
            masked.discard(row)
            self._tidy(name)
            return True
        if self._snapshot().contains(name, row):
            return False
        if self._local.add(name, row):
            self._patched.add(name)
            return True
        return False

    def add_many(self, name: str, rows: Iterable[Row]) -> int:
        if not self._is_shared(name):
            return self._local.add_many(name, rows)
        return sum(1 for row in rows if self.add(name, row))

    def remove(self, name: str, row: Row) -> bool:
        if not self._is_shared(name):
            return self._local.remove(name, row)
        row = tuple(row)
        if self._local.remove(name, row):
            self._tidy(name)
            return True
        masked = self._masked.get(name)
        if masked and row in masked:
            return False
        if self._snapshot().contains(name, row):
            self._masked.setdefault(name, set()).add(row)
            self._patched.add(name)
            return True
        return False

    def clear_relation(self, name: str) -> None:
        if self._is_shared(name):
            raise ExecutionError(
                f"cannot clear shared relation {name!r} through a snapshot view"
            )
        self._local.clear_relation(name)

    # -- StoreBackend: reads -------------------------------------------------

    def relation_names(self) -> List[str]:
        names = set(self._local.relation_names())
        if self._snap is not None:
            names.update(self._snap.relation_names())
        return list(names)

    def count(self, name: str) -> int:
        if not self._is_shared(name):
            return self._local.count(name)
        total = self._snapshot().count(name)
        if name in self._patched:
            total += self._local.count(name) - len(self._masked.get(name, ()))
        return total

    def contains(self, name: str, row: Row) -> bool:
        if not self._is_shared(name):
            return self._local.contains(name, row)
        if name in self._patched:
            if self._local.contains(name, row):
                return True
            masked = self._masked.get(name)
            if masked and row in masked:
                return False
        return self._snapshot().contains(name, row)

    def scan(self, name: str) -> List[Row]:
        if not self._is_shared(name):
            return self._local.scan(name)
        rows = self._snapshot().scan(name)
        if name not in self._patched:
            return rows
        masked = self._masked.get(name)
        if masked:
            rows = [row for row in rows if row not in masked]
        rows.extend(self._local.scan(name))
        return rows

    def lookup(self, name: str, positions: Sequence[int], key: Key) -> Sequence[Row]:
        if not self._is_shared(name):
            return self._local.lookup(name, positions, key)
        snap_rows = self._snapshot().lookup(name, positions, key)
        if name not in self._patched:
            return snap_rows
        masked = self._masked.get(name)
        rows = [row for row in snap_rows if row not in masked] if masked else list(snap_rows)
        rows.extend(self._local.lookup(name, positions, key))
        return rows

    def lookup_many(
        self, name: str, positions: Sequence[int], keys: Sequence[Key]
    ) -> Dict[Key, Sequence[Row]]:
        if self._is_shared(name):
            if name not in self._patched:
                return self._snapshot().lookup_many(name, positions, keys)
            result: Dict[Key, Sequence[Row]] = {}
            for key in keys:
                key = tuple(key)
                if key not in result:
                    result[key] = self.lookup(name, positions, key)
            return result
        return self._local.lookup_many(name, positions, keys)

    # -- StoreBackend: statistics / caching ----------------------------------

    @property
    def index_count(self) -> int:
        return self._local.index_count

    @property
    def index_build_count(self) -> int:
        return self._local.index_build_count

    def relation_stats(self, name: str) -> RelationStats:
        if not self._is_shared(name):
            return self._local.relation_stats(name)
        if name not in self._patched:
            return self._snapshot().relation_stats(name)
        return compute_stats(self.scan(name))

    def data_version(self, name: str) -> Optional[int]:
        if not self._is_shared(name):
            return self._local.data_version(name)
        if name in self._patched:
            return None  # patched: disable executor-level caching outright
        return self._snapshot().data_version(name)

    def cache_identity(self, name: str) -> Tuple[int, object]:
        if self._is_shared(name) and name not in self._patched:
            # all workers' views share one encoding of a clean shared relation
            return (id(self._shared), self._shared)
        return (id(self), self)

    # -- lifecycle -----------------------------------------------------------

    def close(self) -> None:
        self.end_read()
