"""The mutation log: epoch-stamped batches of effective EDB row changes.

:class:`DeltaLog` is the one place that decides how effective EDB changes
are logged, netted, retained and compacted.  A
:class:`~repro.session.Session` keeps one over its store; a
:class:`~repro.engines.datalog.storage_shared.SharedEDB` keeps one over its
base store, and every serving worker's session reads that log in place up
to the epoch its view pinned.

* The epoch advances only on an effective batch.
* :meth:`DeltaLog.net` cancels opposite changes of a row and answers
  ``None`` below the floor; a bulk change whose rows were not logged
  (:meth:`DeltaLog.raise_floor`) raises the floor.
* Consumers (prepared and standing queries) bound compaction, and past
  :data:`RETENTION` retained entries the oldest batches go anyway: an idle
  consumer re-derives once instead of pinning the log forever.
"""

from __future__ import annotations

import threading
from typing import Dict, Hashable, Iterable, List, Optional, Set, Tuple

Row = Tuple
#: one effective mutation: ``(relation, row, +1 | -1)``
Entry = Tuple[str, Row, int]
#: per-relation net change: ``(added, removed)``
NetMaps = Tuple[Dict[str, Set[Row]], Dict[str, Set[Row]]]

#: retained entries beyond which compaction folds past lagging consumers
RETENTION = 100_000


def net_entries(entries: Iterable[Entry]) -> NetMaps:
    """Net effective entries, in commit order, into ``(added, removed)``.

    Entries are effective changes, so a row's signs alternate: a retract
    after an insert of the same row (or an insert after a retract) cancels
    it.  Relations whose change nets to nothing are left out.
    """
    added: Dict[str, Set[Row]] = {}
    removed: Dict[str, Set[Row]] = {}
    for relation, row, sign in entries:
        undo, do = (removed, added) if sign > 0 else (added, removed)
        rows = undo.get(relation)
        if rows is not None and row in rows:
            rows.discard(row)
            if not rows:
                del undo[relation]
        else:
            do.setdefault(relation, set()).add(row)
    return added, removed


class DeltaLog:
    """A thread-safe log of epoch-stamped effective mutation batches."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._epoch = 0
        self._floor = 0
        #: ``(epoch, entries)`` for every retained epoch above the floor
        self._batches: List[Tuple[int, List[Entry]]] = []
        self._size = 0
        #: consumer -> the epoch it is current at
        self._positions: Dict[Hashable, int] = {}

    @property
    def epoch(self) -> int:
        """The latest committed epoch."""
        return self._epoch

    @property
    def floor(self) -> int:
        """The oldest epoch :meth:`net` can still answer from."""
        return self._floor

    def __len__(self) -> int:
        """The number of retained entries."""
        return self._size

    # -- writing -------------------------------------------------------------

    def append(self, entries: List[Entry]) -> int:
        """Commit one batch of effective entries; return the current epoch.

        An empty batch commits nothing and does not advance the epoch.
        """
        with self._lock:
            if entries:
                self._epoch += 1
                self._batches.append((self._epoch, entries))
                self._size += len(entries)
            return self._epoch

    def raise_floor(self) -> int:
        """Commit a change whose rows were not logged (a bulk ingest).

        The epoch advances and the floor rises to it, so every consumer
        behind it re-derives once.  Returns the new epoch.
        """
        with self._lock:
            self._epoch += 1
            self._floor = self._epoch
            self._batches.clear()
            self._size = 0
            return self._epoch

    # -- reading -------------------------------------------------------------

    def net(self, since: int, upto: Optional[int] = None) -> Optional[NetMaps]:
        """Net the batches committed in ``(since, upto]`` (``upto`` defaults
        to the latest epoch); ``None`` when ``since`` is below the floor."""
        with self._lock:
            if since < self._floor:
                return None
            if upto is None:
                upto = self._epoch
            return net_entries(
                entry
                for epoch, entries in self._batches
                if since < epoch <= upto
                for entry in entries
            )

    # -- consumers and compaction -------------------------------------------

    def consume(self, consumer: Hashable, epoch: int) -> None:
        """Record that ``consumer`` is current at ``epoch``; the batches it
        has not read yet are retained (within :data:`RETENTION`)."""
        with self._lock:
            self._positions[consumer] = epoch

    def release(self, consumer: Hashable) -> None:
        """Stop retaining batches for ``consumer``."""
        with self._lock:
            self._positions.pop(consumer, None)

    def positions(self) -> Dict[Hashable, int]:
        """Return ``{consumer: epoch}`` (diagnostics)."""
        with self._lock:
            return dict(self._positions)

    def compact(self) -> bool:
        """Drop the batches every consumer has read, and past
        :data:`RETENTION` the oldest batches regardless; raise the floor to
        the last dropped epoch.  Returns whether anything was dropped."""
        with self._lock:
            target = min(self._positions.values(), default=self._epoch)
            size = self._size
            cut = 0
            for epoch, entries in self._batches:
                if epoch > target and size <= RETENTION:
                    break
                size -= len(entries)
                cut += 1
            if cut:
                self._floor = self._batches[cut - 1][0]
                del self._batches[:cut]
                self._size = size
            return bool(cut)
