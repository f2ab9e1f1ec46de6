"""Persistent graph sessions: compile once, bind per request, keep the store hot.

The one-shot API (``Raqlet.run_on_datalog_engine``) rebuilds the world on
every call: a fresh :class:`~repro.engines.datalog.engine.DatalogEngine`,
a full EDB re-ingest, index builds, statistics accumulation and plan
compilation — acceptable for a compiler demo, fatal for a serving system
answering millions of requests against one graph.  A :class:`Session` is the
embedded-database-style alternative (cf. SQLite's prepared statements,
Soufflé's separation of program compilation from fact loading):

* the session owns **one** :class:`~repro.engines.datalog.storage.StoreBackend`
  whose EDB ingest, incremental indexes and statistics registry are paid
  once and shared by every query;
* :meth:`Session.prepare` compiles a query whose ``$name`` parameters stay
  **late-bound** (:class:`~repro.dlir.core.Param` placeholders survive down
  to the emitted Soufflé/SQL), returning a :class:`PreparedQuery`;
* ``prepared.run(personId=42)`` substitutes the binding at execution time,
  so :class:`~repro.engines.datalog.planner.PlanCache` entries, compiled
  closures and relation statistics are reused across calls with different
  arguments — a warm run performs **zero** fact re-ingest, **zero** index
  rebuilds and **zero** plan recompiles;
* :meth:`Session.insert` / :meth:`Session.retract` mutate the shared EDB and
  log the *effective* per-row delta in the session's
  :class:`~repro.engines.datalog.delta_log.DeltaLog`; on its next run each
  prepared query nets the batches logged since its last derivation and
  hands them to the engine's incremental maintainer
  (:mod:`repro.engines.datalog.ivm`), so mutation cost scales with |Δ|, not
  |IDB| — programs the maintainer cannot handle fall back transparently to
  mark-dirty + full re-derivation.

The lifecycle::

    session = raqlet.session(facts)            # ingest once
    prepared = session.prepare(cypher)         # compile once ($params stay)
    prepared.run(personId=42)                  # bind + derive
    prepared.run(personId=99)                  # warm: reuse plans/indexes
    session.insert("Person_KNOWS_Person", [(42, 99, 7)])
    prepared.run(personId=42)                  # dirty -> lazily re-derived
"""

from __future__ import annotations

import re
import time
import zlib
from typing import Dict, Iterable, List, Mapping, Optional, Tuple, Union

from repro.common.errors import RaqletError
from repro.dlir import (
    DLIRProgram,
    program_param_names,
    program_to_text,
    rename_relations,
)
from repro.engines.datalog.delta_log import DeltaLog
from repro.engines.datalog.engine import DatalogEngine
from repro.engines.datalog.executor_compiled import (
    ExecutorSpec,
    RuleExecutor,
    create_executor,
)
from repro.engines.datalog.storage import StoreBackend, StoreSpec, create_store
from repro.engines.datalog.storage_shared import SnapshotView
from repro.engines.result import QueryResult

FactsInput = Mapping[str, Iterable[Tuple]]
ParamValues = Mapping[str, object]

#: engines :meth:`Session.execute` can route to ("auto" picks the Datalog
#: engine, the only backend whose capability check never rejects a query)
EXECUTION_ENGINES = ("auto", "datalog", "relational", "sqlite", "graph")


def resolve_execution_options(
    store: StoreSpec = None, executor: ExecutorSpec = None
) -> Tuple[StoreBackend, RuleExecutor]:
    """Resolve store/executor specifications in **one** place.

    ``None`` always falls through to the ``REPRO_STORE`` / ``REPRO_EXECUTOR``
    environment variables (then the defaults) — both :class:`Session` and the
    one-shot ``Raqlet.run_*`` entry points route through here, so no caller
    can accidentally shadow the environment resolution by forwarding an
    explicit ``None``.
    """
    return create_store(store), create_executor(executor)


def detect_query_language(text: str) -> str:
    """Guess whether ``text`` is Datalog or Cypher.

    Datalog is recognised by its syntax anchors — a rule turnstile
    following an atom's closing parenthesis (so a ``":-"`` inside a Cypher
    string literal does not misroute), or a ``.decl`` / ``.input`` /
    ``.output`` directive.  Everything else is treated as Cypher; pass
    ``language=`` to :meth:`Session.prepare` to override.
    """
    stripped = text.strip()
    if re.search(r"\)\s*:-", stripped):
        return "datalog"
    if any(
        line.strip().startswith((".decl", ".input", ".output"))
        for line in stripped.splitlines()
    ):
        return "datalog"
    return "cypher"


class PreparedQuery:
    """A compiled query bound to a session, executable with per-run parameters.

    The prepared query owns one long-lived
    :class:`~repro.engines.datalog.engine.DatalogEngine` over the session's
    shared store.  The first :meth:`run` derives the result; later runs with
    a different binding (or after a session mutation) clear only the derived
    relations (:meth:`DatalogEngine.reset`) and re-derive against the still
    hot EDB, indexes, statistics, plan cache and compiled closures.
    """

    def __init__(
        self,
        session: "Session",
        compiled,  # repro.pipeline.CompiledQuery
        optimized: bool = True,
    ) -> None:
        self._session = session
        self.compiled = compiled
        self._optimized = optimized
        program: DLIRProgram = compiled.program(optimized)
        # Generated IDB names ("Return", "Match1", magic predicates, ...)
        # repeat across queries — and may even repeat with different
        # arities, which a table-per-relation backend cannot absorb.  Each
        # prepared query therefore derives into a private namespace on the
        # shared store; the EDB names are untouched.
        suffix = session._namespace_suffix(program)
        self.namespace: Dict[str, str] = {
            name: f"{name}{suffix}" for name in program.idb_names()
        }
        # Both the renamed and the *original* names are recorded, so the
        # mutation guard also rejects inserts that would silently miss the
        # renamed relation.
        session._derived_names.update(self.namespace)
        session._derived_names.update(self.namespace.values())
        self._program = rename_relations(program, self.namespace)
        #: parameter names the program leaves late-bound
        self.param_names: Tuple[str, ...] = tuple(
            program_param_names(self._program)
        )
        # A relation can have both rules and externally supplied seed rows
        # (Datalog programs routinely do).  Session facts ingested under
        # the *original* name of a renamed derived relation must seed the
        # renamed relation, or they would be invisible to the query.
        seed_facts: Dict[str, List[Tuple]] = {}
        for original, renamed in self.namespace.items():
            rows = session.store.scan(original)
            if rows:
                seed_facts[renamed] = [tuple(row) for row in rows]
        # The engine is built eagerly: program validation errors surface at
        # prepare() time (like the one-shot API), and the engine's one-off
        # costs (program fact ingest, subsumption specs) are paid here, not
        # on the first request.  Seed rows on derived relations survive
        # warm resets (the engine re-adds them after clearing its IDB).
        self._engine = DatalogEngine(
            self._program,
            seed_facts or None,
            store=session.store,
            executor=session.executor,
            **session.engine_options,
        )
        self._idb_relations = frozenset(self._program.idb_names())
        #: the (namespaced) relation :meth:`run` returns rows of — the one
        #: whose delta :meth:`sync` and subscriptions report
        outputs = self._program.outputs
        self._output_relation: Optional[str] = outputs[0] if outputs else None
        #: when True, cold re-derivations go through ``engine.rederive()``
        #: (snapshot + diff) so :meth:`sync` never loses a delta; plain
        #: queries keep the cheaper reset()+run() path.  Flipped on by the
        #: first :meth:`sync` call and by the reactive subscription layer.
        self._track_deltas = False
        self._derived = False
        self._last_params: Optional[Dict[str, object]] = None
        #: the session epoch this query's derivation is current at — its
        #: position in the session's delta log once it has derived
        self._mutation_epoch = -1
        session._register_prepared(self)
        #: wall-clock seconds of the most recent :meth:`run`
        self.last_run_seconds = 0.0

    # -- introspection -----------------------------------------------------

    @property
    def engine(self) -> DatalogEngine:
        """Return the long-lived Datalog engine (counters, ``explain()``)."""
        return self._engine

    @property
    def idb_relations(self) -> frozenset:
        """Return the derived relations this query writes into the store."""
        return self._idb_relations

    def explain(
        self, parameters: Optional[ParamValues] = None, **bindings: object
    ) -> str:
        """Run with the given binding and render the engine's plan report.

        Without arguments the most recent binding is reused (a
        parameterised query that has never run needs one, exactly like
        :meth:`run`).
        """
        if parameters is None and not bindings and self._last_params is not None:
            self.run(self._last_params)
        else:
            self.run(parameters, **bindings)
        return self._engine.explain()

    # -- execution ---------------------------------------------------------

    def _resolve_params(
        self, parameters: Optional[ParamValues], bindings: Mapping[str, object]
    ) -> Dict[str, object]:
        inlined = self.compiled.parameters
        supplied: Dict[str, object] = dict(parameters or {})
        supplied.update(bindings)
        # A binding for a parameter that is *not* late-bound would be
        # silently ignored — and if the query was compiled with the value
        # inlined, the caller would get the old binding's rows back as if
        # they were the answer.  Reject anything but a re-statement of the
        # inlined value.
        for name, value in supplied.items():
            if name in self.param_names:
                continue
            if name in inlined:
                if inlined[name] != value:
                    raise RaqletError(
                        f"query parameter ${name} was inlined at compile "
                        f"time with value {inlined[name]!r}; prepare the "
                        "query without compile-time parameters to bind it "
                        "per run"
                    )
                continue
            raise RaqletError(
                f"unknown query parameter ${name}"
                + (
                    " (late-bound parameters: "
                    + ", ".join(f"${p}" for p in self.param_names)
                    + ")"
                    if self.param_names
                    else " (this query has no late-bound parameters)"
                )
            )
        params: Dict[str, object] = dict(inlined)
        params.update(supplied)
        missing = [name for name in self.param_names if name not in params]
        if missing:
            raise RaqletError(
                "missing value(s) for query parameter(s): "
                + ", ".join(f"${name}" for name in sorted(missing))
            )
        return params

    def _is_warm(self, params: Dict[str, object]) -> bool:
        """Whether the previous derivation is still valid for ``params``.

        Thanks to the per-query IDB namespace no other query can touch the
        derived relations, so staleness reduces to two signals: the binding
        and the session's mutation epoch.
        """
        return (
            self._derived
            and self._last_params == params
            and self._mutation_epoch == self._session.mutation_epoch
        )

    def run(
        self,
        parameters: Optional[ParamValues] = None,
        **bindings: object,
    ) -> QueryResult:
        """Execute with the given parameter binding and return the result.

        Bindings may be passed as a mapping, as keyword arguments, or both
        (keywords win).  A repeat run with the same binding and no
        intervening mutation returns the already-derived result; any other
        run resets only the derived relations and re-derives warm.
        """
        params = self._resolve_params(parameters, bindings)
        started = time.perf_counter()
        self._refresh(params)
        result = self._engine.query()
        self.last_run_seconds = time.perf_counter() - started
        return result

    def sync(
        self,
        parameters: Optional[ParamValues] = None,
        **bindings: object,
    ) -> Tuple[List[Tuple], List[Tuple]]:
        """Bring the derivation current and return the ``(added, removed)``
        rows of the query's output relation since the previous derivation.

        The standing-query primitive: unlike :meth:`run` it does **not**
        enumerate the result — the delta is read off the engine's
        :class:`~repro.engines.datalog.ivm.MaintenanceReport`, so a warm
        no-op costs nothing and a mutation costs O(|Δ|).  The first call
        after preparation reports the full initial result as added.  Calling
        ``sync`` enrols the query in delta tracking: later cold
        re-derivations (bulk ingests, parameter rebinds, maintenance
        fallbacks) snapshot-and-diff instead of silently resetting, so no
        delta is ever lost between calls.
        """
        params = self._resolve_params(parameters, bindings)
        self._track_deltas = True
        report = self._refresh(params)
        output = self._output_relation
        if report is None or output is None:
            return [], []
        added, removed = report.relation_delta(output)
        key = lambda row: tuple(str(value) for value in row)  # noqa: E731
        return sorted(added, key=key), sorted(removed, key=key)

    def _refresh(self, params: Dict[str, object]):
        """Bring the derivation current for ``params``.

        Returns the :class:`~repro.engines.datalog.ivm.MaintenanceReport`
        describing what changed, or ``None`` on the warm no-op path (the
        previous derivation is still exact).
        """
        if self._is_warm(params):
            return None
        epoch = self._session.mutation_epoch
        report = self._maintain_incrementally(params, epoch)
        if report is None:
            # Mark-dirty + lazy re-derive: clear this query's (namespaced)
            # IDB relations and evaluate against the hot EDB.  This is the
            # cold path (first run, new binding, bulk ingest) — delta
            # trackers pay an extra snapshot/diff here so even cold paths
            # report exactly what changed.
            if self._track_deltas:
                # A re-derivation that replaces a still-current standing
                # derivation (bulk ingest, unmaintainable delta) is a
                # *fallback* and counts as one; a first derivation or a
                # binding change is simply the chosen cold path.
                fallback = self._derived and self._last_params == params
                report = self._engine.rederive(
                    parameters=params, fallback=fallback
                )
            else:
                self._engine.reset(parameters=params)
                self._engine.run()
            self._derived = True
            self._last_params = dict(params)
        self._mutation_epoch = epoch
        self._session._log.consume(self, epoch)
        return report

    def _maintain_incrementally(self, params: Dict[str, object], epoch: int):
        """Fold the EDB rows mutated since the last derivation, up to
        ``epoch``, into the engine's incremental maintainer.

        Only applicable when the previous derivation exists, used the same
        binding, and the session's delta log still covers every mutation
        since (a bulk :meth:`Session.ingest` raises its floor, and an idle
        query can fall below the log's retention).  Returns the engine's
        :class:`~repro.engines.datalog.ivm.MaintenanceReport` when the
        derived relations were brought current, ``None`` when the caller
        must take the cold path.
        """
        if not (
            self._session._ivm
            and self._derived
            and self._last_params == params
        ):
            return None
        delta = self._session._log.net(self._mutation_epoch, epoch)
        if delta is None:
            return None
        added, removed = delta
        return self._engine.maintain(added, removed)


class Session:
    """A long-lived execution context over one graph.

    Constructed through :meth:`repro.pipeline.Raqlet.session`.  The session
    resolves the store and executor **once** (``None`` honours
    ``REPRO_STORE`` / ``REPRO_EXECUTOR``), ingests the extensional facts
    once, and shares both with every query prepared or executed in it.
    """

    def __init__(
        self,
        raqlet,  # repro.pipeline.Raqlet
        facts: Optional[FactsInput] = None,
        *,
        store: StoreSpec = None,
        executor: ExecutorSpec = None,
        replan_threshold: Optional[float] = None,
        ivm: bool = True,
    ) -> None:
        self._raqlet = raqlet
        # A caller-supplied StoreBackend instance stays under the caller's
        # ownership; stores the session creates are closed by close().
        self._owns_store = not isinstance(store, StoreBackend)
        self._store, self._executor = resolve_execution_options(store, executor)
        #: options forwarded to every prepared query's DatalogEngine.
        #: Sessions enable incremental view maintenance by default — pass
        #: ``ivm=False`` to force mark-dirty + re-derive.
        self.engine_options = {"replan_threshold": replan_threshold, "ivm": ivm}
        self._ivm = bool(ivm)
        # The log of effective EDB row mutations; prepared and standing
        # queries consume it.  A worker session over a shared-EDB view reads
        # the shared log in place, up to the epoch its view pinned.
        self._view = self._store if isinstance(self._store, SnapshotView) else None
        self._log = self._view.log if self._view is not None else DeltaLog()
        self._all_prepared: List[PreparedQuery] = []
        #: how many times the session ingested an EDB fact batch (the warm
        #: path asserts this stays at 1)
        self.ingest_count = 0
        #: program-text CRC -> prepared instances with it (namespace suffixes)
        self._namespace_instances: Dict[int, int] = {}
        #: relations derived by prepared queries, under both their original
        #: and their namespaced names (the mutation guard)
        self._derived_names: set = set()
        self._prepared: Dict[Tuple[str, str, bool, bool], PreparedQuery] = {}
        # EDB copies for the secondary engines, built on first use and
        # dropped once the epoch moves past ``_secondary_epoch``.
        self._secondaries: Dict[str, object] = {}
        self._secondary_epoch = -1
        # The reactive subsystem (standing queries, subscriptions, rules) —
        # materialised on first use so plain sessions pay nothing for it.
        self._reactive = None
        self._closed = False
        if facts:
            self.ingest(facts)

    # -- shared state ------------------------------------------------------

    @property
    def store(self) -> StoreBackend:
        """Return the session's shared fact store."""
        return self._store

    @property
    def executor(self) -> RuleExecutor:
        """Return the session's shared rule executor (and closure cache)."""
        return self._executor

    @property
    def raqlet(self):
        """Return the compiler this session compiles queries with."""
        return self._raqlet

    @property
    def mutation_epoch(self) -> int:
        """The delta-log epoch this session reads at; prepared queries
        compare it to decide whether their derived result is stale.  It
        advances on every effective mutation batch; a worker session reads
        its view's pinned shared epoch."""
        if self._view is not None:
            return self._view.pinned_epoch
        return self._log.epoch

    def _namespace_suffix(self, program: DLIRProgram) -> str:
        """Return the IDB-namespace suffix for one prepared query.

        The suffix names the statement, not the session: a CRC of the
        program text plus the instance's index among this session's
        instances with that CRC.  Sessions that prepare the same statements
        (the serving pool's workers) therefore plan identical relation
        names and share one set of compiled closures.  Within a session
        every instance gets its own index, so two programs whose CRCs
        collide still derive into disjoint relations.
        """
        digest = zlib.crc32(program_to_text(program).encode())
        index = self._namespace_instances.get(digest, 0) + 1
        self._namespace_instances[digest] = index
        return f"__{digest:08x}q{index}"

    def ingest(self, facts: FactsInput) -> None:
        """Bulk-load extensional facts into the shared store (one batch).

        Like :meth:`insert`, an ingest is a mutation: every prepared
        query's derived result is marked stale and lazily re-derived on its
        next run.
        """
        self._check_open()
        for relation in facts:
            self._check_extensional(relation)
        self.ingest_count += 1
        added = 0
        with self._store.batch():
            for relation, rows in facts.items():
                added += self._store.add_many(relation, (tuple(row) for row in rows))
        if added:
            # Bulk loads skip per-row delta tracking (that is what makes
            # them fast); raising the log's floor sends every query derived
            # before this point down the full re-derivation path once.
            self._log.raise_floor()
        self._note_mutation()

    # -- preparing and executing queries -----------------------------------

    def prepare(
        self,
        query,
        *,
        language: Optional[str] = None,
        optimize: bool = True,
        optimized: bool = True,
    ) -> PreparedQuery:
        """Compile ``query`` (Cypher text, Datalog text, or an existing
        :class:`~repro.pipeline.CompiledQuery`) into a :class:`PreparedQuery`.

        ``$name`` parameters are *not* inlined: they survive compilation as
        late-bound placeholders and are supplied per :meth:`PreparedQuery.run`.
        Text queries are cached, so preparing the same text twice returns
        the same prepared query (and its warm engine).
        """
        self._check_open()
        if not isinstance(query, str):
            return PreparedQuery(self, query, optimized)
        language = language or detect_query_language(query)
        key = (language, query, optimize, optimized)
        cached = self._prepared.get(key)
        if cached is not None:
            return cached
        if language == "cypher":
            compiled = self._raqlet.compile_cypher(query, optimize=optimize)
        elif language == "datalog":
            compiled = self._raqlet.compile_datalog(query, optimize=optimize)
        else:
            raise RaqletError(
                f"unknown query language {language!r} "
                "(expected 'cypher' or 'datalog')"
            )
        prepared = PreparedQuery(self, compiled, optimized)
        self._prepared[key] = prepared
        return prepared

    def execute(
        self,
        query,
        parameters: Optional[ParamValues] = None,
        *,
        engine: str = "auto",
        language: Optional[str] = None,
        **bindings: object,
    ) -> QueryResult:
        """Prepare (with caching) and run ``query`` on the chosen engine.

        ``engine`` is one of ``"auto"`` (the Datalog engine — the only
        backend that supports every analysed feature), ``"datalog"``,
        ``"relational"``, ``"sqlite"`` or ``"graph"``; the non-default
        engines are routed through the compiled query's
        ``backend_problems()`` capability check first.
        """
        self._check_open()
        if engine not in EXECUTION_ENGINES:
            raise RaqletError(
                f"unknown execution engine {engine!r} "
                f"(expected one of {', '.join(EXECUTION_ENGINES)})"
            )
        prepared = self.prepare(query, language=language)
        params = prepared._resolve_params(parameters, bindings)
        if engine in ("auto", "datalog"):
            return prepared.run(params)
        compiled, optimized = prepared.compiled, prepared._optimized
        target = self._secondary(engine)
        if engine == "relational":
            return self._raqlet.run_on_relational_engine(
                compiled, target, optimized, params
            )
        if engine == "sqlite":
            return self._raqlet.run_on_sqlite(compiled, target, optimized, params)
        return self._raqlet.run_on_graph_engine(compiled, target, params)

    # -- secondary engines -------------------------------------------------

    def _secondary(self, engine: str):
        """Return the EDB copy ``engine`` runs on: built on first use and
        rebuilt once the session's epoch has moved."""
        epoch = self.mutation_epoch
        if self._secondary_epoch != epoch:
            self._drop_secondaries()
            self._secondary_epoch = epoch
        target = self._secondaries.get(engine)
        if target is None:
            build = {
                "relational": self._build_database,
                "sqlite": self._build_sqlite,
                "graph": self._build_property_graph,
            }[engine]
            target = self._secondaries[engine] = build()
        return target

    def _drop_secondaries(self) -> None:
        sqlite_executor = self._secondaries.pop("sqlite", None)
        if sqlite_executor is not None:
            sqlite_executor.close()
        self._secondaries.clear()

    def _edb_facts(self) -> Dict[str, List[Tuple]]:
        """Materialise the session's current EDB from the shared store."""
        facts: Dict[str, List[Tuple]] = {}
        for relation in self._raqlet.dl_schema.edb_relations():
            rows = self._store.scan(relation.name)
            if rows:
                facts[relation.name] = [tuple(row) for row in rows]
        return facts

    def _build_database(self):
        from repro.engines.relational import Database

        database = Database()
        for relation in self._raqlet.dl_schema.edb_relations():
            database.create_table(relation.name, relation.column_names())
            database.insert_many(relation.name, self._store.scan(relation.name))
        return database

    def _build_sqlite(self):
        from repro.engines.sqlite_exec import SQLiteExecutor

        executor = SQLiteExecutor(self._raqlet.dl_schema, self._edb_facts())
        executor.create_indexes()
        return executor

    def _build_property_graph(self):
        from repro.engines.graph import facts_to_property_graph

        return facts_to_property_graph(self._edb_facts(), self._raqlet.mapping)

    # -- mutation ----------------------------------------------------------

    def insert(self, relation: str, rows: Iterable[Tuple]) -> int:
        """Insert extensional facts; returns how many were new.

        Derived results are not touched here — each prepared query notices
        the advanced mutation epoch on its next run and folds the logged
        per-row delta into its engine's incremental maintainer (falling
        back to a full re-derivation when the program is unmaintainable).
        Already-present rows change nothing and are not logged: the delta
        log records *effective* mutations only, and a batch without one
        leaves the epoch where it was.
        """
        return self._mutate(relation, rows, self._store.add, 1)

    def retract(self, relation: str, rows: Iterable[Tuple]) -> int:
        """Remove extensional facts; returns how many were present.

        Absent rows are ignored (and not logged).  Retracting a row that
        also supports a derived fact through a rule never over-deletes: the
        maintainer counts derivations per row (or re-derives, in recursive
        strata), so the derived fact survives as long as any support does.
        """
        return self._mutate(relation, rows, self._store.remove, -1)

    def _mutate(self, relation: str, rows: Iterable[Tuple], apply, sign: int) -> int:
        self._check_open()
        self._check_extensional(relation)
        entries = []
        with self._store.batch():
            for row in rows:
                row = tuple(row)
                if apply(relation, row):
                    entries.append((relation, row, sign))
        self._log.append(entries)
        self._note_mutation()
        return len(entries)

    def _check_extensional(self, relation: str) -> None:
        if self._view is not None:
            raise RaqletError(
                "this session reads a shared EDB; mutate it through its writer"
            )
        # Both name spaces are rejected: the renamed derived relations and
        # their original names — an insert under an original name would
        # land in the shared store but never reach the renamed relation the
        # query actually derives into.
        if relation in self._derived_names:
            raise RaqletError(
                f"relation {relation!r} is derived by a query; "
                "only extensional (EDB) relations can be mutated"
            )

    def _note_mutation(self) -> None:
        self._log.compact()
        # Commit point of the mutation batch: standing queries catch up and
        # subscriptions/rules fire now (re-entrant mutations from rule
        # actions are absorbed by the flush's own cascade loop).
        reactive = self._reactive
        if reactive is not None and reactive.auto_flush:
            reactive.flush()

    # -- reactive subsystem --------------------------------------------------

    @property
    def reactive(self):
        """Return the session's :class:`~repro.reactive.SubscriptionManager`.

        Created on first access; holds the standing queries, subscriptions,
        reactive rules and the action registry.  With the default
        ``auto_flush=True`` every :meth:`insert` / :meth:`retract` /
        :meth:`ingest` batch flushes it at commit time.
        """
        if self._reactive is None:
            from repro.reactive.subscriptions import SubscriptionManager

            self._reactive = SubscriptionManager(self)
        return self._reactive

    def subscribe(
        self,
        query,
        callback,
        *,
        parameters: Optional[ParamValues] = None,
        **bindings: object,
    ):
        """Register a standing query: ``callback`` fires with the result-row
        delta after every mutation batch that changes the result.

        ``query`` is anything :meth:`prepare` accepts, or an existing
        :class:`PreparedQuery`.  Shorthand for
        ``session.reactive.subscribe(...)`` — see
        :class:`repro.reactive.subscriptions.SubscriptionManager`.
        """
        return self.reactive.subscribe(
            query, callback, parameters=parameters, **bindings
        )

    # -- the delta log -----------------------------------------------------

    def _register_prepared(self, prepared: PreparedQuery) -> None:
        self._all_prepared.append(prepared)

    def _unregister_prepared(self, prepared: PreparedQuery) -> None:
        """Stop tracking ``prepared`` (a replaced serving statement, a torn
        down standing query): it must no longer pin the delta log."""
        self._log.release(prepared)
        try:
            self._all_prepared.remove(prepared)
        except ValueError:
            pass

    # -- lifecycle ---------------------------------------------------------

    def _check_open(self) -> None:
        if self._closed:
            raise RaqletError("session is closed")

    def close(self) -> None:
        """Release session resources (idempotent).

        Stores the session created are closed; a caller-supplied store
        instance is left open for its owner.
        """
        if self._closed:
            return
        self._closed = True
        if self._reactive is not None:
            self._reactive.close()
            self._reactive = None
        self._drop_secondaries()
        for prepared in self._all_prepared:
            self._log.release(prepared)
        if self._owns_store:
            self._store.close()

    def __enter__(self) -> "Session":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
