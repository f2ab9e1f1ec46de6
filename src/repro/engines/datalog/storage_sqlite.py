"""A SQLite-backed :class:`~repro.engines.datalog.storage.StoreBackend`.

Each relation becomes one SQLite table (``rel_0``, ``rel_1``, ... — names are
assigned internally so arbitrary relation names, including the generated
magic-set predicates, never need quoting) with untyped columns ``c0..cN`` and
a UNIQUE index over all columns for set semantics.  The hash indexes of the
in-memory store map to ordinary SQLite indexes, created **lazily per
requested position set** exactly like the in-memory backend builds its hash
indexes on first probe; SQLite then maintains them incrementally on every
insert/delete, so ``index_build_count`` equals ``index_count`` after any
fixpoint run — the same invariant the benchmarks assert for the in-memory
store.

Writes are **batched per fixpoint iteration**: the engine brackets each
insert batch with ``begin_batch``/``end_batch`` and the store maps those to
one SQLite transaction (the connection otherwise runs in autocommit mode).
Reads on the same connection see uncommitted writes, so the semi-naive loop
can probe mid-iteration without flushing.

Value model: ``int``, ``float``, ``str``, ``bool`` and ``None`` round-trip
through SQLite's native storage classes with Python-compatible equality
(``1 == 1.0`` both sides, numbers never equal strings).  Two deliberate
deviations from Python set semantics are handled explicitly: ``bool`` is
stored as its integer value (``True == 1`` in Python too), and rows
containing ``None`` take a pre-insert containment check because SQL UNIQUE
treats NULLs as distinct.  Anything else (lists, objects) raises — the
engine only ever derives scalars.

Semi-naive deltas (:class:`~repro.engines.datalog.storage.DeltaView`) always
stay in memory; only the full relations live in SQLite.
"""

from __future__ import annotations

import sqlite3
from collections import defaultdict
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.common.errors import ExecutionError
from repro.engines.datalog.statistics import EMPTY_STATS, RelationStats
from repro.engines.datalog.storage import (
    Key,
    Positions,
    RelationChangeLog,
    Row,
    StoreBackend,
)

_SUPPORTED_TYPES = (bool, int, float, str, bytes)


class SQLiteFactStore(StoreBackend):
    """Tuple storage over a SQLite database (in-memory or on disk).

    Parameters
    ----------
    path:
        SQLite database path; the default ``":memory:"`` keeps the database
        private to this store.  A filesystem path lifts the memory ceiling
        for large EDBs (and persists nothing the engine relies on — every
        run starts from the facts it is given).
    """

    def __init__(self, path: str = ":memory:") -> None:
        # check_same_thread=False: the serving layer's SharedEDB reads the
        # base store from worker threads.  It serialises every access to a
        # backend whose ``concurrent_reads`` is False (this one) through a
        # single mutex, so the connection is never used from two threads at
        # once — the flag only lifts sqlite3's ownership assertion.
        self._conn = sqlite3.connect(path, check_same_thread=False)
        self._conn.isolation_level = None  # autocommit; batches use BEGIN/COMMIT
        cursor = self._conn.cursor()
        cursor.execute("PRAGMA journal_mode=MEMORY")
        cursor.execute("PRAGMA synchronous=OFF")
        cursor.execute("PRAGMA temp_store=MEMORY")
        self.path = path
        #: relation name -> (table name, arity)
        self._tables: Dict[str, Tuple[str, int]] = {}
        #: monotone table-name counter (never reused, even after replace)
        self._table_seq = 0
        #: relation name -> position sets with a materialised SQLite index
        self._indexed: Dict[str, Set[Positions]] = {}
        self.index_build_count = 0
        #: key widths for which a temp probe-keys table exists
        self._key_tables: Set[int] = set()
        #: ``lookup_many`` calls that reached the SQL path, and the SELECTs
        #: those calls issued — maintained at independent points so the
        #: benchmarks' "one SELECT per batch" comparison actually measures
        #: the property instead of restating it
        self.batch_probe_count = 0
        self.batch_probe_query_count = 0
        #: relation statistics computed by SQL aggregate, cached per relation
        #: until a write hook dirties it; the SELECTs issued are counted so
        #: tests can assert the cache actually works
        self._stats_cache: Dict[str, RelationStats] = {}
        # per-relation monotone change counters (see data_version)
        self._versions: Dict[str, int] = defaultdict(int)
        # bounded per-relation history backing changes_since()
        self._changelog = RelationChangeLog()
        self.stats_query_count = 0
        self._batch_depth = 0
        self._closed = False

    # -- table management --------------------------------------------------

    def _table(self, name: str, arity: int) -> str:
        """Return the table for relation ``name``, creating it on first use."""
        entry = self._tables.get(name)
        if entry is not None:
            table, known_arity = entry
            if known_arity != arity:
                raise ExecutionError(
                    f"relation {name!r} holds rows of arity {known_arity}, "
                    f"got arity {arity}"
                )
            return table
        if arity == 0:
            raise ExecutionError(
                f"SQLite store cannot hold the zero-arity relation {name!r}"
            )
        table = f"rel_{self._table_seq}"
        self._table_seq += 1
        columns = ", ".join(f"c{i}" for i in range(arity))
        self._conn.execute(f"CREATE TABLE {table} ({columns})")
        self._conn.execute(
            f"CREATE UNIQUE INDEX {table}_uq ON {table} ({columns})"
        )
        self._tables[name] = (table, arity)
        self._indexed[name] = set()
        return table

    def _prepare_row(self, name: str, row: Row) -> Row:
        row = tuple(row)
        for value in row:
            if value is not None and not isinstance(value, _SUPPORTED_TYPES):
                raise ExecutionError(
                    f"SQLite store cannot hold value {value!r} "
                    f"(type {type(value).__name__}) in relation {name!r}"
                )
            if (
                isinstance(value, int)
                and not isinstance(value, bool)
                and not -(2**63) <= value < 2**63
            ):
                raise ExecutionError(
                    f"SQLite store cannot hold integer {value!r} "
                    f"(outside 64-bit range) in relation {name!r}"
                )
            if isinstance(value, float) and value != value:
                # SQLite silently converts NaN to NULL, corrupting the row.
                raise ExecutionError(
                    f"SQLite store cannot hold NaN in relation {name!r}"
                )
        return row

    # -- base operations ---------------------------------------------------

    def relation_names(self) -> List[str]:
        """Return the names of all stored relations."""
        return list(self._tables)

    def count(self, name: str) -> int:
        """Return the number of tuples in ``name``."""
        entry = self._tables.get(name)
        if entry is None:
            return 0
        return self._conn.execute(f"SELECT COUNT(*) FROM {entry[0]}").fetchone()[0]

    def contains(self, name: str, row: Row) -> bool:
        """Return whether ``row`` is present in relation ``name``."""
        entry = self._tables.get(name)
        if entry is None:
            return False
        row = self._prepare_row(name, row)
        table, arity = entry
        if len(row) != arity:
            return False
        # ``IS`` instead of ``=`` so None (NULL) components still match.
        where = " AND ".join(f"c{i} IS ?" for i in range(arity))
        found = self._conn.execute(
            f"SELECT 1 FROM {table} WHERE {where} LIMIT 1", row
        ).fetchone()
        return found is not None

    def add(self, name: str, row: Row) -> bool:
        """Insert ``row``; return ``True`` when it was new."""
        row = self._prepare_row(name, row)
        table = self._table(name, len(row))
        self._stats_cache.pop(name, None)
        if any(value is None for value in row) and self.contains(name, row):
            return False  # UNIQUE treats NULLs as distinct; enforce set semantics
        placeholders = ", ".join("?" for _ in row)
        cursor = self._conn.execute(
            f"INSERT OR IGNORE INTO {table} VALUES ({placeholders})", row
        )
        if cursor.rowcount > 0:
            self._versions[name] += 1
            self._changelog.record(name, self._versions[name], row, 1)
            return True
        return False

    def add_many(self, name: str, rows: Iterable[Row]) -> int:
        """Insert many rows inside one transaction; return how many were new."""
        prepared = [self._prepare_row(name, row) for row in rows]
        if not prepared:
            return 0
        table = self._table(name, len(prepared[0]))
        self._stats_cache.pop(name, None)
        arity = self._tables[name][1]
        for row in prepared:
            if len(row) != arity:
                raise ExecutionError(
                    f"relation {name!r} holds rows of arity {arity}, "
                    f"got arity {len(row)}"
                )
        plain = [row for row in prepared if not any(v is None for v in row)]
        with_null = [row for row in prepared if any(v is None for v in row)]
        own_batch = self._batch_depth == 0
        if own_batch:
            self.begin_batch()
        try:
            added = 0
            added_plain = 0
            if plain:
                placeholders = ", ".join("?" for _ in range(len(plain[0])))
                before = self._conn.total_changes
                self._conn.executemany(
                    f"INSERT OR IGNORE INTO {table} VALUES ({placeholders})", plain
                )
                added_plain = self._conn.total_changes - before
                added += added_plain
            for row in with_null:
                if self.add(name, row):
                    added += 1
            if added:
                self._versions[name] += 1
                if added_plain:
                    # INSERT OR IGNORE does not say which rows were fresh;
                    # the batch is attributable only when every row was.
                    if added_plain == len(plain) == len(set(plain)):
                        self._changelog.record_many(
                            name, self._versions[name], plain, 1
                        )
                    else:
                        self._changelog.reset(name, self._versions[name])
            return added
        finally:
            if own_batch:
                self.end_batch()

    def remove(self, name: str, row: Row) -> bool:
        """Remove ``row`` if present; return ``True`` when it was removed."""
        entry = self._tables.get(name)
        if entry is None:
            return False
        row = self._prepare_row(name, row)
        table, arity = entry
        if len(row) != arity:
            return False
        self._stats_cache.pop(name, None)
        where = " AND ".join(f"c{i} IS ?" for i in range(arity))
        cursor = self._conn.execute(f"DELETE FROM {table} WHERE {where}", row)
        if cursor.rowcount > 0:
            self._versions[name] += 1
            self._changelog.record(name, self._versions[name], row, -1)
            return True
        return False

    def replace(self, name: str, rows: Iterable[Row]) -> None:
        """Replace the whole relation with ``rows``.

        Mirrors the in-memory store: wholesale replacement drops the
        relation's position indexes; they are rebuilt lazily, so
        ``index_build_count`` rises again on the next lookup.  An existing
        relation replaced with no rows stays visible (empty), like the
        in-memory store; replacing a relation that never existed with no
        rows is a no-op (the row arity is unknown, so no table can exist).
        """
        entry = self._tables.pop(name, None)
        self._stats_cache.pop(name, None)
        self._versions[name] += 1
        self._changelog.reset(name, self._versions[name])
        if entry is not None:
            self._conn.execute(f"DROP TABLE {entry[0]}")
            self._indexed.pop(name, None)
        materialised = [tuple(row) for row in rows]
        if materialised:
            self.add_many(name, materialised)
        elif entry is not None:
            self._table(name, entry[1])  # recreate the (empty) relation

    def clear_relation(self, name: str) -> None:
        """Remove every row of ``name``, keeping its table and indexes.

        ``DELETE FROM`` leaves the table and every SQLite index in place
        (SQLite maintains them through the delete), so a session's warm
        re-derivation pays zero index rebuilds — mirroring the in-memory
        store's in-place index emptying.
        """
        entry = self._tables.get(name)
        if entry is None:
            return
        self._stats_cache.pop(name, None)
        self._versions[name] += 1
        self._changelog.reset(name, self._versions[name])
        self._conn.execute(f"DELETE FROM {entry[0]}")

    # -- indexed access ----------------------------------------------------

    def lookup(self, name: str, positions: Sequence[int], key: Key) -> Sequence[Row]:
        """Return the tuples of ``name`` whose ``positions`` equal ``key``.

        A SQLite index over the position set is created on first use (and
        counted in ``index_build_count``); SQLite keeps it current on every
        subsequent write, so each ``(relation, positions)`` index is built
        exactly once — the same invariant as the in-memory store.
        """
        entry = self._tables.get(name)
        if entry is None:
            return []
        table, arity = entry
        positions_key = tuple(positions)
        if not positions_key:
            return self.scan(name)
        if any(p >= arity for p in positions_key):
            raise ExecutionError(
                f"lookup positions {positions_key} exceed arity {arity} "
                f"of relation {name!r}"
            )
        self._ensure_index(name, table, positions_key)
        where = " AND ".join(f"c{p} IS ?" for p in positions_key)
        cursor = self._conn.execute(
            f"SELECT * FROM {table} WHERE {where}", tuple(key)
        )
        return cursor.fetchall()

    def lookup_many(
        self, name: str, positions: Sequence[int], keys: Sequence[Key]
    ) -> Dict[Key, Sequence[Row]]:
        """Answer a whole batch of probe keys with **one** SQL query.

        The distinct keys are loaded into a temp table (one per key width,
        reused across calls) and joined against the relation with ``IS``
        comparisons, so ``None`` components match SQL ``NULL``s exactly as
        single lookups do.  The join's key columns come back with each row,
        which is how rows are grouped per probe key without a second query.
        ``batch_probe_query_count`` counts the SELECTs issued here — exactly
        one per call that reaches SQL — so the benchmarks can prove the
        compiled executor pays one query per (join step, application).
        """
        distinct: List[Key] = []
        seen: Set[Key] = set()
        for key in keys:
            key = tuple(key)
            if key not in seen:
                seen.add(key)
                distinct.append(key)
        if not distinct:
            return {}
        entry = self._tables.get(name)
        if entry is None:
            return {key: [] for key in distinct}
        table, arity = entry
        positions_key = tuple(positions)
        if not positions_key:
            rows = self.scan(name)
            return {key: rows for key in distinct}
        if any(p >= arity for p in positions_key):
            raise ExecutionError(
                f"lookup positions {positions_key} exceed arity {arity} "
                f"of relation {name!r}"
            )
        self._ensure_index(name, table, positions_key)
        # NaN binds as NULL, so a NaN-keyed row fetched back from the join
        # could not be matched to its probe key.  Such keys take the single
        # ``lookup`` path — whose NULL-binding behaviour *is* the
        # loop-of-lookups semantics this method promises.
        nan_keys = [
            key
            for key in distinct
            if any(isinstance(v, float) and v != v for v in key)
        ]
        if nan_keys:
            nan_set = set(map(id, nan_keys))
            batched = [key for key in distinct if id(key) not in nan_set]
            result = {key: self.lookup(name, positions_key, key) for key in nan_keys}
            if batched:
                result.update(self.lookup_many(name, positions_key, batched))
            return result
        # Counted on entry of the SQL path, *independently* of how many
        # SELECTs follow — the benchmarks compare the two counters to prove
        # each batch really costs one query.
        self.batch_probe_count += 1
        width = len(positions_key)
        keys_table = self._probe_keys_table(width)
        self._conn.execute(f"DELETE FROM {keys_table}")
        placeholders = ", ".join("?" for _ in range(width))
        self._conn.executemany(
            f"INSERT INTO {keys_table} VALUES ({placeholders})", distinct
        )
        on = " AND ".join(
            f"t.c{p} IS k.k{i}" for i, p in enumerate(positions_key)
        )
        key_columns = ", ".join(f"k.k{i}" for i in range(width))
        row_columns = ", ".join(f"t.c{i}" for i in range(arity))
        cursor = self._select_counted(
            f"SELECT {key_columns}, {row_columns} "
            f"FROM {keys_table} k JOIN {table} t ON {on}"
        )
        result: Dict[Key, Sequence[Row]] = {key: [] for key in distinct}
        for fetched in cursor.fetchall():
            bucket = result.get(fetched[:width])
            if bucket is not None:
                bucket.append(fetched[width:])
        return result

    def _select_counted(self, sql: str) -> sqlite3.Cursor:
        """Execute a read query issued by :meth:`lookup_many`, counting it."""
        self.batch_probe_query_count += 1
        return self._conn.execute(sql)

    def _ensure_index(self, name: str, table: str, positions_key: Positions) -> None:
        """Create the SQLite index for ``positions_key`` on first use."""
        if positions_key in self._indexed[name]:
            return
        columns = ", ".join(f"c{p}" for p in positions_key)
        suffix = "_".join(str(p) for p in positions_key)
        self._conn.execute(
            f"CREATE INDEX IF NOT EXISTS {table}_p{suffix} ON {table} ({columns})"
        )
        self._indexed[name].add(positions_key)
        self.index_build_count += 1

    def _probe_keys_table(self, width: int) -> str:
        """Return the temp probe-keys table for ``width``-column keys."""
        if width not in self._key_tables:
            columns = ", ".join(f"k{i}" for i in range(width))
            self._conn.execute(
                f"CREATE TEMP TABLE IF NOT EXISTS probe_keys_{width} ({columns})"
            )
            self._key_tables.add(width)
        return f"probe_keys_{width}"

    def scan(self, name: str) -> List[Row]:
        """Return every tuple of ``name`` as a list."""
        entry = self._tables.get(name)
        if entry is None:
            return []
        return self._conn.execute(f"SELECT * FROM {entry[0]}").fetchall()

    @property
    def index_count(self) -> int:
        """Return how many distinct ``(relation, positions)`` indexes exist."""
        return sum(len(position_sets) for position_sets in self._indexed.values())

    def relation_stats(self, name: str) -> RelationStats:
        """Return cardinality and per-column distinct counts for ``name``.

        One aggregate query — ``COUNT(*)`` plus ``COUNT(DISTINCT cN)`` and
        ``COUNT(cN)`` per column — cached until a write hook dirties the
        relation, so repeated snapshots inside one fixpoint iteration cost
        nothing.  ``COUNT(DISTINCT ...)`` ignores NULLs, so a column holding
        any ``None`` gets one extra distinct value to match Python set
        semantics; SQLite's numeric comparison (``1 == 1.0``) already does.
        """
        cached = self._stats_cache.get(name)
        if cached is not None:
            return cached
        entry = self._tables.get(name)
        if entry is None:
            return EMPTY_STATS
        table, arity = entry
        selects = ["COUNT(*)"]
        for position in range(arity):
            selects.append(f"COUNT(DISTINCT c{position})")
            selects.append(f"COUNT(c{position})")
        self.stats_query_count += 1
        fetched = self._conn.execute(
            f"SELECT {', '.join(selects)} FROM {table}"
        ).fetchone()
        cardinality = fetched[0]
        distinct = tuple(
            fetched[1 + 2 * position]
            + (1 if fetched[2 + 2 * position] < cardinality else 0)
            for position in range(arity)
        )
        stats = RelationStats(cardinality=cardinality, distinct=distinct)
        self._stats_cache[name] = stats
        return stats

    def data_version(self, name: str) -> Optional[int]:
        """Per-relation change counter, bumped only on effective mutations."""
        return self._versions[name]

    def changes_since(
        self, name: str, version: int
    ) -> Optional[Tuple[List[Row], List[Row]]]:
        """Net row delta of ``name`` since ``version`` (see the base class).

        Replays through the shared :class:`RelationChangeLog`; bulk
        ``add_many`` batches whose fresh subset SQLite cannot attribute
        invalidate the history instead of guessing, so an answer is always
        exact.
        """
        return self._changelog.changes_since(name, int(version))

    # -- hooks -------------------------------------------------------------

    def begin_batch(self) -> None:
        """Open one transaction for a batch of inserts.

        Batches nest: only the outermost ``begin_batch`` opens a
        transaction, and only the matching outermost ``end_batch`` commits
        — so handing a store with an open batch to the engine keeps the
        caller's transaction intact.
        """
        if self._batch_depth == 0:
            self._conn.execute("BEGIN")
        self._batch_depth += 1

    def end_batch(self) -> None:
        """Commit the batch transaction once the outermost batch ends."""
        if self._batch_depth == 0:
            return
        self._batch_depth -= 1
        if self._batch_depth == 0:
            self._conn.execute("COMMIT")

    def close(self) -> None:
        """Commit pending work and close the connection."""
        if self._closed:
            return
        self.end_batch()
        self._conn.close()
        self._closed = True

    def __del__(self) -> None:  # pragma: no cover - GC safety net
        try:
            self.close()
        except Exception:
            pass
