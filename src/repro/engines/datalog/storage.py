"""Fact storage for the Datalog engine.

Storage is **pluggable**: the engine only ever touches a store through the
:class:`StoreBackend` protocol, 18 methods each with a caller outside the
stores — ``relation_names`` / ``count`` / ``contains``; ``add`` /
``add_many`` / ``remove`` / ``clear_relation``; ``lookup`` / ``lookup_many``
/ ``scan``; ``index_count`` and ``relation_stats`` (which feeds the
planner's cost model); ``data_version`` and ``cache_identity`` (executor
cache keys); ``begin_batch`` / ``end_batch`` / ``batch`` / ``close`` — so
compiled :class:`~repro.engines.datalog.planner.RulePlan`\\ s run unchanged
on any backend.  Stores keep no history of their own: the session's
:class:`~repro.engines.datalog.delta_log.DeltaLog` is the one record of
mutations.  Two backends ship with the repository:

* :class:`FactStore` (this module) — the in-memory backend: relations are
  sets of tuples with incrementally maintained hash indexes;
* :class:`~repro.engines.datalog.storage_sqlite.SQLiteFactStore` — a
  SQLite-backed store (in-memory or on disk) that lifts the memory ceiling
  for large EDBs.

:func:`create_store` resolves a backend specification string
(``"memory"``, ``"sqlite"``, ``"sqlite:/path/to.db"``; ``None`` means
``"memory"``) into a backend instance.

For the in-memory store, joins go through hash indexes: an index for
relation ``R`` on positions ``(0, 2)`` maps each ``(value0, value2)`` key to
the list of tuples carrying those values.  Indexes are built lazily on first
lookup and are then maintained **incrementally**: insertions and removals
update every existing index in place, so a semi-naive fixpoint loop that
grows a relation on each iteration never pays for an index rebuild.  The
number of from-scratch index constructions is exposed as
``index_build_count``; with incremental maintenance it equals the number of
distinct ``(relation, positions)`` indexes ever requested (each is built
exactly once), which the benchmarks assert.

:class:`DeltaView` wraps the per-iteration delta of a relation for semi-naive
evaluation.  It offers the same ``lookup``/``scan`` interface as a stored
relation (with its own lazily built mini-indexes), so the evaluator can treat
"read the delta" and "read the full relation" uniformly.  Deltas always stay
in memory regardless of the backend storing the full relations.
:class:`StateView` is its counterpart for incremental maintenance: a store
minus a set of excluded rows, which is how one maintenance pass reads the
old or the new state out of a store holding both.
"""

from __future__ import annotations

import abc
import threading
from collections import defaultdict
from contextlib import contextmanager
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Set, Tuple, Union

from repro.engines.datalog.statistics import (
    RelationStats,
    StatsRegistry,
    compute_stats,
)

Row = Tuple
Key = Tuple
Positions = Tuple[int, ...]


class StoreBackend(abc.ABC):
    """The storage contract the Datalog engine evaluates against.

    The plan executor needs only :meth:`lookup` and :meth:`scan`; the engine
    additionally inserts (:meth:`add` / :meth:`add_many`), removes
    (subsumption and incremental maintenance), clears the relations it
    derives (:meth:`clear_relation`), and counts.  Everything else — how
    tuples are laid out, where indexes live — is backend private.

    **Index statistics are part of the contract.**  Every backend must keep
    :attr:`index_build_count` (number of from-scratch index constructions)
    and :attr:`index_count` (number of distinct ``(relation, positions)``
    indexes currently materialised) truthful, so benchmarks asserting
    "no index is ever rebuilt inside the fixpoint" fail loudly instead of
    silently passing on a backend that never reports builds.

    **Batching hooks.**  The engine brackets every fixpoint insert batch
    (and the initial EDB load) with :meth:`begin_batch` / :meth:`end_batch`.
    The in-memory store ignores them; transactional backends use them to
    batch writes (one transaction per fixpoint iteration for SQLite).
    """

    #: number of from-scratch index constructions (monotone counter).
    #: Required of every backend — benchmarks assert on it.
    index_build_count: int = 0

    #: whether concurrent *reads* from several threads are safe without
    #: external serialisation.  The in-memory store is (CPython dict/set
    #: reads are atomic and its lazy index builds are lock-guarded); the
    #: SQLite store is not (one connection, and reads can create indexes),
    #: so the serving layer's :class:`~repro.engines.datalog.storage_shared.SharedEDB`
    #: wraps every access to a non-concurrent base in one mutex.
    concurrent_reads: bool = False

    # -- base operations ---------------------------------------------------

    @abc.abstractmethod
    def relation_names(self) -> List[str]:
        """Return the names of all stored relations."""

    @abc.abstractmethod
    def count(self, name: str) -> int:
        """Return the number of tuples in ``name``."""

    @abc.abstractmethod
    def contains(self, name: str, row: Row) -> bool:
        """Return whether ``row`` is present in relation ``name``."""

    @abc.abstractmethod
    def add(self, name: str, row: Row) -> bool:
        """Insert ``row``; return ``True`` when it was new."""

    @abc.abstractmethod
    def add_many(self, name: str, rows: Iterable[Row]) -> int:
        """Insert many rows; return how many were new."""

    @abc.abstractmethod
    def remove(self, name: str, row: Row) -> bool:
        """Remove ``row`` if present; return ``True`` when it was removed.

        The return value is the *effective* delta (used by subsumption and
        by the session's mutation log feeding incremental maintenance):
        removing an absent row returns ``False`` and changes nothing.
        """

    @abc.abstractmethod
    def clear_relation(self, name: str) -> None:
        """Remove every tuple of ``name``, keeping its indexes *registered*.

        Clearing must not force index rebuilds: an emptied index is still a
        valid index over the emptied relation, so warm re-derivation after
        a session reset pays zero ``index_build_count``.
        """

    # -- indexed access ----------------------------------------------------

    @abc.abstractmethod
    def lookup(self, name: str, positions: Sequence[int], key: Key) -> Sequence[Row]:
        """Return the tuples of ``name`` whose ``positions`` equal ``key``.

        An empty ``positions`` means "every tuple".  Backends index the
        requested position set lazily and keep the index current afterwards.
        """

    def lookup_many(
        self, name: str, positions: Sequence[int], keys: Sequence[Key]
    ) -> Dict[Key, Sequence[Row]]:
        """Batched :meth:`lookup`: resolve many probe keys in one call.

        Returns a dict mapping each *distinct* key in ``keys`` (as a tuple)
        to the rows matching it — absent keys map to an empty sequence, and
        duplicate keys collapse to one entry.  Semantically identical to a
        loop of :meth:`lookup` calls; backends override it to answer the
        whole batch at once (one index sweep in memory, one SQL query on
        SQLite).  The compiled plan executor hands each join step's entire
        probe-key batch to this method.
        """
        result: Dict[Key, Sequence[Row]] = {}
        for key in keys:
            key = tuple(key)
            if key not in result:
                result[key] = self.lookup(name, positions, key)
        return result

    @abc.abstractmethod
    def scan(self, name: str) -> List[Row]:
        """Return every tuple of ``name`` as a list."""

    @property
    @abc.abstractmethod
    def index_count(self) -> int:
        """Return how many distinct ``(relation, positions)`` indexes exist."""

    # -- statistics --------------------------------------------------------

    def relation_stats(self, name: str) -> RelationStats:
        """Return cardinality and per-column distinct counts for ``name``.

        **Part of the contract**, like the index counters: the engine
        snapshots these each fixpoint iteration to drive cost-based join
        ordering and adaptive re-planning, so the counts must stay truthful
        across inserts and removals.  This generic implementation recomputes
        from :meth:`scan` (O(rows)); backends override it — the in-memory
        store maintains the counts incrementally on its write path, the
        SQLite store answers with one aggregate query cached until the next
        write.
        """
        return compute_stats(self.scan(name))

    def data_version(self, name: str) -> Optional[int]:
        """Return a counter that changes whenever relation ``name`` changes.

        The columnar executor keys its per-relation column encodings on this
        value, so it must bump on every *effective* mutation (a no-op add or
        remove must NOT bump it — over-bumping silently destroys column
        reuse across the fixpoint iterations that read a relation the rule
        never writes).  Backends that cannot track this cheaply return
        ``None``, which simply disables column caching for their relations.
        """
        return None

    def cache_identity(self, name: str) -> Tuple[int, object]:
        """Return ``(key, pin)`` identifying the storage backing ``name``.

        Executor-level caches (the columnar executor's encoded relation
        columns) key their entries on ``key`` and hold ``pin`` to keep the
        backing object alive, so that two store *views* exposing the same
        underlying relation share one cache entry.  Plain backends are their
        own backing storage; the serving layer's
        :class:`~repro.engines.datalog.storage_shared.SnapshotView` forwards
        clean shared-EDB relations to the shared store's identity so all
        worker views reuse one encoding.  ``data_version`` values must be
        comparable across every view that reports the same identity.
        """
        return (id(self), self)

    # -- hooks (default no-ops) --------------------------------------------

    def begin_batch(self) -> None:
        """Called before a batch of inserts (one fixpoint iteration)."""

    def end_batch(self) -> None:
        """Called after a batch of inserts completes."""

    @contextmanager
    def batch(self) -> Iterator[None]:
        """Bracket a batch of inserts with :meth:`begin_batch`/:meth:`end_batch`."""
        self.begin_batch()
        try:
            yield
        finally:
            self.end_batch()

    def close(self) -> None:
        """Release backend resources (files, connections)."""

#: What :func:`create_store` and the engine accept as a backend selection.
StoreSpec = Union[str, StoreBackend, None]


def create_store(spec: StoreSpec = None) -> StoreBackend:
    """Resolve a backend specification into a :class:`StoreBackend`.

    ``spec`` may be an existing backend instance (returned as-is), one of the
    strings ``"memory"``, ``"sqlite"`` (private in-memory SQLite database) or
    ``"sqlite:PATH"`` (file-backed), or ``None`` — the in-memory default.
    """
    if isinstance(spec, StoreBackend):
        return spec
    if spec is None:
        spec = "memory"
    if not isinstance(spec, str):
        raise ValueError(f"unsupported fact-store specification {spec!r}")
    if spec == "memory":
        return FactStore()
    if spec == "sqlite" or spec.startswith("sqlite:"):
        from repro.engines.datalog.storage_sqlite import SQLiteFactStore

        path = spec[len("sqlite:"):] if spec.startswith("sqlite:") else ""
        return SQLiteFactStore(path or ":memory:")
    raise ValueError(
        f"unknown fact-store backend {spec!r} "
        "(expected 'memory', 'sqlite' or 'sqlite:PATH')"
    )


class DeltaView:
    """An immutable view over the rows derived in the previous iteration.

    Semi-naive evaluation restricts one occurrence of a recursive relation to
    these rows.  The view carries its own mini hash indexes (built lazily per
    position set) so a delta atom that ends up with bound columns can still
    be probed instead of scanned.

    A delta is a *set* of facts: duplicate input rows collapse (first
    occurrence kept, insertion order otherwise preserved).
    """

    __slots__ = ("rows", "_indexes")

    def __init__(self, rows: Iterable[Row]) -> None:
        self.rows: Tuple[Row, ...] = tuple(dict.fromkeys(rows))
        self._indexes: Dict[Positions, Dict[Key, List[Row]]] = {}

    def __len__(self) -> int:
        return len(self.rows)

    def scan(self) -> Sequence[Row]:
        """Return every row of the delta."""
        return self.rows

    def lookup(self, positions: Sequence[int], key: Key) -> Sequence[Row]:
        """Return the delta rows whose ``positions`` equal ``key``."""
        positions_key = tuple(positions)
        if not positions_key:
            return self.rows
        index = self._indexes.get(positions_key)
        if index is None:
            index = defaultdict(list)
            for row in self.rows:
                index[tuple(row[i] for i in positions_key)].append(row)
            self._indexes[positions_key] = index
        return index.get(tuple(key), ())


class StateView:
    """A read-only view of a store with some rows filtered out.

    Incremental maintenance keeps the store in the *union* of the old and
    the new state for the length of a pass; the new state is the store
    minus the rows pending removal, the old state the store minus the rows
    just added.  A view answers the three reads a rule executor makes —
    :meth:`lookup`, :meth:`lookup_many` and :meth:`contains` — by filtering
    the store's answers, so a plan runs unchanged against either state.
    ``excluded`` (relation → rows) is read live, not copied: rows the
    caller drops from it reappear in the view at once.
    """

    __slots__ = ("store", "excluded")

    def __init__(self, store: StoreBackend, excluded: Dict[str, Set[Row]]) -> None:
        self.store = store
        self.excluded = excluded

    def contains(self, name: str, row: Row) -> bool:
        """Return whether ``row`` is in ``name`` and not excluded."""
        excluded = self.excluded.get(name)
        if excluded and row in excluded:
            return False
        return self.store.contains(name, row)

    def lookup(self, name: str, positions: Sequence[int], key: Key) -> Sequence[Row]:
        """The store's :meth:`StoreBackend.lookup` minus the excluded rows."""
        rows = self.store.lookup(name, positions, key)
        excluded = self.excluded.get(name)
        if not excluded:
            return rows
        return [row for row in rows if row not in excluded]

    def lookup_many(
        self, name: str, positions: Sequence[int], keys: Sequence[Key]
    ) -> Dict[Key, Sequence[Row]]:
        """The store's :meth:`StoreBackend.lookup_many` minus the excluded rows."""
        result = self.store.lookup_many(name, positions, keys)
        excluded = self.excluded.get(name)
        if not excluded:
            return result
        return {
            key: [row for row in rows if row not in excluded]
            for key, rows in result.items()
        }


class FactStore(StoreBackend):
    """The in-memory backend: tuple sets with incrementally maintained hash
    indexes."""

    # Reads are plain dict/set lookups (atomic under CPython's GIL) and the
    # one read-triggered write — lazy index construction — is serialised by
    # ``_index_lock`` below, so concurrent readers need no external mutex.
    concurrent_reads = True

    def __init__(self) -> None:
        self._relations: Dict[str, Set[Row]] = defaultdict(set)
        # relation name -> {positions -> {key -> [rows]}}
        self._indexes: Dict[str, Dict[Positions, Dict[Key, List[Row]]]] = {}
        #: number of from-scratch index constructions (monotone counter)
        self.index_build_count = 0
        #: incrementally maintained cardinality / distinct-count statistics
        self._stats = StatsRegistry()
        # per-relation monotone change counters (see data_version)
        self._versions: Dict[str, int] = defaultdict(int)
        # serialises lazy index builds: two concurrent readers probing the
        # same un-indexed (relation, positions) must produce one index and
        # one ``index_build_count`` bump, not an interleaved half-built dict
        self._index_lock = threading.Lock()

    # -- base operations ---------------------------------------------------

    def relation(self, name: str) -> Set[Row]:
        """Return the tuple set of ``name`` (created empty on first access)."""
        return self._relations[name]

    def relation_names(self) -> List[str]:
        """Return the names of all stored relations."""
        return list(self._relations)

    def count(self, name: str) -> int:
        """Return the number of tuples in ``name``."""
        return len(self._relations[name])

    def contains(self, name: str, row: Row) -> bool:
        """Return whether ``row`` is present in relation ``name``."""
        return row in self._relations[name]

    def add(self, name: str, row: Row) -> bool:
        """Insert ``row``; return ``True`` when it was new.

        Existing indexes on the relation are updated in place.
        """
        relation = self._relations[name]
        if row in relation:
            return False
        relation.add(row)
        self._versions[name] += 1
        self._stats.record_add(name, row)
        indexes = self._indexes.get(name)
        if indexes:
            for positions, index in indexes.items():
                index[tuple(row[i] for i in positions)].append(row)
        return True

    def add_many(self, name: str, rows: Iterable[Row]) -> int:
        """Insert many rows; return how many were new."""
        relation = self._relations[name]
        indexes = self._indexes.get(name)
        stats = self._stats
        fresh: List[Row] = []
        for row in rows:
            row = tuple(row)
            if row not in relation:
                relation.add(row)
                stats.record_add(name, row)
                fresh.append(row)
        if fresh:
            self._versions[name] += 1
        if fresh and indexes:
            for positions, index in indexes.items():
                for row in fresh:
                    index[tuple(row[i] for i in positions)].append(row)
        return len(fresh)

    def remove(self, name: str, row: Row) -> bool:
        """Remove ``row`` if present; return ``True`` when it was removed."""
        relation = self._relations[name]
        if row not in relation:
            return False
        relation.discard(row)
        self._versions[name] += 1
        self._stats.record_remove(name, row)
        indexes = self._indexes.get(name)
        if not indexes:
            return True
        for positions, index in indexes.items():
            key = tuple(row[i] for i in positions)
            bucket = index.get(key)
            if bucket is None:
                continue
            bucket.remove(row)
            if not bucket:
                del index[key]
        return True

    def clear_relation(self, name: str) -> None:
        """Remove every tuple of ``name``, emptying (not dropping) its indexes.

        The relation's existing hash indexes stay registered with empty
        buckets — an empty index over an empty relation is exact — so a
        session's warm re-derivation never pays an index rebuild
        (``index_build_count`` is untouched; the benchmarks assert this).
        """
        self._relations[name] = set()
        self._versions[name] += 1
        self._stats.record_clear(name)
        indexes = self._indexes.get(name)
        if indexes:
            for index in indexes.values():
                index.clear()

    def data_version(self, name: str) -> Optional[int]:
        """Per-relation change counter, bumped only on effective mutations."""
        return self._versions[name]

    # -- indexed access ------------------------------------------------------

    def lookup(self, name: str, positions: Sequence[int], key: Key) -> Sequence[Row]:
        """Return the tuples of ``name`` whose ``positions`` equal ``key``.

        Builds a hash index for the position set on first use; subsequent
        inserts keep it current, so the build happens at most once per
        ``(relation, positions)`` pair.

        The returned sequence may alias the live index bucket: mutating the
        relation invalidates in-flight iteration over it.  Callers that
        insert while consuming results (anything driving ``rule_solutions``
        lazily) must materialise the derived facts before inserting, as the
        engine does.
        """
        positions_key = tuple(positions)
        if not positions_key:
            return list(self._relations[name])
        index = self._index_for(name, positions_key)
        return index.get(tuple(key), [])

    def lookup_many(
        self, name: str, positions: Sequence[int], keys: Sequence[Key]
    ) -> Dict[Key, Sequence[Row]]:
        """Answer a whole batch of probe keys with one index sweep.

        The position index is acquired (built at most once) and then every
        distinct key is resolved with a plain dict probe — no per-key method
        dispatch.  Returned sequences may alias live index buckets, with the
        same caveat as :meth:`lookup`.
        """
        if not keys:
            return {}
        positions_key = tuple(positions)
        result: Dict[Key, Sequence[Row]] = {}
        if not positions_key:
            rows = list(self._relations[name])
            for key in keys:
                result[tuple(key)] = rows
            return result
        index = self._index_for(name, positions_key)
        for key in keys:
            key = tuple(key)
            if key not in result:
                result[key] = index.get(key, ())
        return result

    def _index_for(
        self, name: str, positions_key: Positions
    ) -> Dict[Key, List[Row]]:
        """Return the index for ``positions_key``, building it on first use."""
        indexes = self._indexes.setdefault(name, {})
        index = indexes.get(positions_key)
        if index is None:
            with self._index_lock:
                index = indexes.get(positions_key)
                if index is None:
                    index = defaultdict(list)
                    for row in self._relations[name]:
                        index[tuple(row[i] for i in positions_key)].append(row)
                    indexes[positions_key] = index
                    self.index_build_count += 1
        return index

    def scan(self, name: str) -> List[Row]:
        """Return every tuple of ``name`` as a list."""
        return list(self._relations[name])

    @property
    def index_count(self) -> int:
        """Return how many distinct ``(relation, positions)`` indexes exist."""
        return sum(len(by_positions) for by_positions in self._indexes.values())

    def relation_stats(self, name: str) -> RelationStats:
        """Return the incrementally maintained statistics for ``name``.

        O(arity): the write path keeps one value→multiplicity map per
        column current, so snapshotting costs nothing per row — the property
        that makes per-iteration snapshots in the fixpoint loop free.
        """
        return self._stats.stats(name)
