"""A worker pool serving prepared queries over one shared, epoch-versioned EDB.

The pool owns N worker threads.  Each worker wraps one
:class:`~repro.session.Session` over a private
:class:`~repro.engines.datalog.storage_shared.SnapshotView` of the shared
:class:`~repro.engines.datalog.storage_shared.SharedEDB`; all workers share
one rule executor, so compiled closures, columnar lowerings and the value
dictionary are built once pool-wide (their caches are lock-guarded for
exactly this).  Derived relations live in each worker view's private local
store, so workers never fight over derived state; their names come from the
statement alone (``Return__<program CRC>q1``, see
:meth:`~repro.session.Session._namespace_suffix`), so every worker plans the
same relation names and reuses the closures another worker compiled.

**Binding-affinity routing.**  Requests are routed by ``(statement,
binding)``: the first request for a binding picks a worker round-robin, and
every later request for the same binding lands on the same worker.  A
worker's :class:`~repro.session.PreparedQuery` keeps its most recent
derivation warm, so the pool as a whole keeps up to N distinct bindings
materialised simultaneously — repeat requests cost a result scan instead of
a re-derivation.  That, not raw parallelism, is what multiplies read
throughput (and on a multi-core interpreter the workers overlap on top).

**Coalescing.**  Identical in-flight requests — same statement, same
binding, same shared epoch — share one execution: followers get the same
:class:`~concurrent.futures.Future`.  The epoch in the key means a request
arriving after a mutation never reuses a pre-mutation execution.

**Mutations** go through :meth:`ServingPool.mutate` straight into the shared
store (single-writer, epoch bump).  A worker's session reads the shared
delta log in place: at its next request the worker pins the new epoch, and
each prepared query nets the log batches since its own position and
maintains incrementally — O(|delta|) per worker, zero full re-derivations on
the streaming path.

**Subscriptions** ride the same machinery: :meth:`ServingPool.subscribe`
routes a ``(statement, binding)`` to a worker by the same affinity map and
registers a standing query on that worker's session
(:class:`~repro.reactive.subscriptions.SubscriptionManager`); every
effective batch on the shared EDB then pokes the subscription-owning
workers (the pool is a :class:`SharedEDB` listener), whose sync
flushes the session's reactive layer at the pinned shared epoch and pushes
exact ``(added, removed)`` result deltas, stamped with that epoch, to the
pool-level listeners — O(|delta|) per standing query, no re-execution,
exactly-once per epoch (a worker that already flushed for a query request
simply has nothing left to deliver when the poke arrives).
"""

from __future__ import annotations

import itertools
import queue
import threading
from concurrent.futures import Future
from dataclasses import dataclass
from typing import Dict, Iterable, Mapping, Optional, Tuple

from repro.common.errors import RaqletError
from repro.engines.datalog.executor_compiled import ExecutorSpec, create_executor
from repro.engines.datalog.storage import Row, StoreBackend, StoreSpec
from repro.engines.datalog.storage_shared import SharedEDB, SnapshotView
from repro.engines.result import QueryResult
from repro.session import PreparedQuery, Session, compile_query_text


class PoolSaturatedError(RaqletError):
    """Raised by :meth:`ServingPool.submit` when admission control rejects a
    request (too many in flight); the serving protocol maps it to a
    retryable ``saturated`` error."""


@dataclass
class ServedResponse:
    """What one pool execution returns: the result plus its provenance."""

    result: QueryResult
    statement: str
    epoch: int
    worker: int


@dataclass
class _Statement:
    name: str
    compiled: object  # repro.pipeline.CompiledQuery
    version: int
    param_names: Tuple[str, ...]
    derived: frozenset  # original IDB names — mutation guard


@dataclass
class _QueryTask:
    statement: _Statement
    params: Dict[str, object]
    inflight_key: tuple
    future: Future


class _Inflight:
    __slots__ = ("future", "epoch")

    def __init__(self, future: Future, epoch: int) -> None:
        self.future = future
        self.epoch = epoch


_STOP = object()


class _Worker:
    """One worker: a thread, a task queue, a snapshot view, a session."""

    def __init__(self, pool: "ServingPool", index: int) -> None:
        self.index = index
        self.view = SnapshotView(pool._shared)
        self.session = Session(
            pool._raqlet,
            store=self.view,
            executor=pool._executor,
        )
        #: statement name -> (statement version, PreparedQuery)
        self.prepared: Dict[str, Tuple[int, PreparedQuery]] = {}
        self.queue: "queue.SimpleQueue" = queue.SimpleQueue()
        self.executed_count = 0
        self.thread = threading.Thread(
            target=pool._worker_loop,
            args=(self,),
            name=f"raqlet-pool-w{index}",
            daemon=True,
        )


class ServingPool:
    """N worker sessions over one shared EDB, behind a submit/mutate API.

    Parameters
    ----------
    raqlet:
        The compiler (:class:`repro.pipeline.Raqlet`) statements are
        compiled with.
    facts:
        Initial extensional facts, bulk-loaded into the shared store.
    workers:
        Worker count — the number of bindings the pool keeps warm at once.
    store:
        Base store for the shared EDB (spec or instance; ``None`` means the
        in-memory store), or a caller-owned :class:`SharedEDB`.
    executor:
        The pool-wide rule executor (``None`` means compiled).
    max_pending:
        Admission-control bound on requests queued or executing; beyond it
        :meth:`submit` raises :class:`PoolSaturatedError`.
    """

    def __init__(
        self,
        raqlet,  # repro.pipeline.Raqlet
        facts: Optional[Mapping[str, Iterable[Row]]] = None,
        *,
        workers: int = 4,
        store: StoreSpec = None,
        executor: ExecutorSpec = None,
        max_pending: int = 256,
    ) -> None:
        if workers < 1:
            raise RaqletError("a serving pool needs at least one worker")
        self._raqlet = raqlet
        # The pool closes the shared store only when it built it from a
        # spec; caller-supplied SharedEDBs and backends stay caller-owned.
        self._owns_shared = not isinstance(store, (SharedEDB, StoreBackend))
        self._shared = store if isinstance(store, SharedEDB) else SharedEDB(store)
        self._executor = create_executor(executor)
        self.max_pending = max_pending
        if facts:
            self._shared.ingest(facts)
        self._statements: Dict[str, _Statement] = {}
        self._statement_seq = itertools.count(1)
        self._derived_originals: set = set()
        # dispatch state — all guarded by one mutex
        self._dispatch_lock = threading.Lock()
        self._inflight: Dict[tuple, _Inflight] = {}
        self._affinity: Dict[tuple, int] = {}
        self._round_robin = 0
        self._pending = 0
        self._closed = False
        # sid -> (worker, session-level Subscription); the worker owns the
        # standing query, the pool owns the routing and the id space.
        self._subscriptions: Dict[int, Tuple["_Worker", object]] = {}
        self._subscription_seq = itertools.count(1)
        self.executed_count = 0
        self.coalesced_count = 0
        self.rejected_count = 0
        self.mutation_count = 0
        self.notification_count = 0
        self._workers = [_Worker(self, index) for index in range(workers)]
        for worker in self._workers:
            worker.thread.start()
        # Every effective batch on the shared EDB — through this pool, another
        # pool, or a direct SharedEDB write — reaches this pool's subscribers.
        self._shared.add_listener(self.poke)

    # -- shared state --------------------------------------------------------

    @property
    def shared(self) -> SharedEDB:
        """The epoch-versioned shared EDB (diagnostics, direct reads)."""
        return self._shared

    @property
    def epoch(self) -> int:
        return self._shared.epoch

    @property
    def workers(self) -> int:
        return len(self._workers)

    # -- statements ----------------------------------------------------------

    def prepare(self, name: str, query, *, language: Optional[str] = None) -> Tuple[str, ...]:
        """Register (or replace) the named prepared statement.

        ``query`` is Cypher, Datalog or SQL text, or an existing
        :class:`~repro.pipeline.CompiledQuery`.  Compilation happens once,
        here; each worker instantiates its own
        :class:`~repro.session.PreparedQuery` from the shared compiled form
        on first use.  Returns the statement's late-bound parameter names.
        """
        self._check_open()
        if isinstance(query, str):
            compiled = compile_query_text(self._raqlet, query, language)
        else:
            compiled = query
        program = compiled.program(True)
        statement = _Statement(
            name=name,
            compiled=compiled,
            version=next(self._statement_seq),
            param_names=tuple(compiled.param_names(True)),
            derived=frozenset(program.idb_names()),
        )
        with self._dispatch_lock:
            self._statements[name] = statement
            self._derived_originals.update(statement.derived)
        return statement.param_names

    # -- request path --------------------------------------------------------

    def submit(
        self,
        name: str,
        parameters: Optional[Mapping[str, object]] = None,
        **bindings: object,
    ) -> "Future[ServedResponse]":
        """Enqueue one prepared-query execution; return its future.

        Identical in-flight requests (same statement, binding and shared
        epoch) coalesce onto one execution.  Raises
        :class:`PoolSaturatedError` when ``max_pending`` requests are
        already queued or executing.
        """
        self._check_open()
        params: Dict[str, object] = dict(parameters or {})
        params.update(bindings)
        with self._dispatch_lock:
            statement = self._statements.get(name)
            if statement is None:
                raise RaqletError(
                    f"unknown prepared statement {name!r} "
                    f"(prepared: {', '.join(sorted(self._statements)) or 'none'})"
                )
            binding_key = self._freeze(params)
            routing_key = (name, statement.version, binding_key)
            epoch = self._shared.epoch
            if binding_key is not None:
                entry = self._inflight.get(routing_key)
                if entry is not None and entry.epoch == epoch:
                    self.coalesced_count += 1
                    return entry.future
            if self._pending >= self.max_pending:
                self.rejected_count += 1
                raise PoolSaturatedError(
                    f"serving pool saturated ({self._pending} requests in "
                    f"flight, max_pending={self.max_pending})"
                )
            future: "Future[ServedResponse]" = Future()
            if binding_key is not None:
                self._inflight[routing_key] = _Inflight(future, epoch)
            worker = self._route(routing_key)
            self._pending += 1
        task = _QueryTask(
            statement=statement,
            params=params,
            inflight_key=routing_key,
            future=future,
        )
        worker.queue.put(task)
        return future

    def run(
        self,
        name: str,
        parameters: Optional[Mapping[str, object]] = None,
        *,
        timeout: Optional[float] = None,
        **bindings: object,
    ) -> QueryResult:
        """Synchronous :meth:`submit`: block for the result rows."""
        response = self.submit(name, parameters, **bindings).result(timeout)
        return response.result

    def _route(self, routing_key: tuple) -> _Worker:
        # caller holds the dispatch lock
        index = self._affinity.get(routing_key)
        if index is None:
            if len(self._affinity) >= 65536:
                self._affinity.clear()
            index = self._round_robin % len(self._workers)
            self._round_robin += 1
            self._affinity[routing_key] = index
        return self._workers[index]

    @staticmethod
    def _freeze(params: Dict[str, object]) -> Optional[tuple]:
        """A hashable binding key, or ``None`` when a value is unhashable
        (such a request is routed but never coalesced)."""
        try:
            return tuple(sorted(params.items(), key=lambda item: item[0]))
        except TypeError:
            return None

    # -- mutation path -------------------------------------------------------

    def mutate(
        self,
        insert: Optional[Mapping[str, Iterable[Row]]] = None,
        retract: Optional[Mapping[str, Iterable[Row]]] = None,
    ) -> Dict[str, int]:
        """Apply one batch of EDB inserts/retracts to the shared store.

        Single-writer (serialised inside the shared store), effective-only,
        one epoch bump for the whole batch.  Workers fold the delta into
        their incremental maintainers on their next request; the shared
        store's listener call pokes the subscription owners.
        """
        self._check_open()
        for relation in list(insert or ()) + list(retract or ()):
            self._check_extensional(relation)
        inserted, retracted, epoch = self._shared.apply(insert, retract)
        self.mutation_count += 1
        return {"inserted": inserted, "retracted": retracted, "epoch": epoch}

    def ingest(self, facts: Mapping[str, Iterable[Row]]) -> Dict[str, int]:
        """Bulk-insert facts (an :meth:`mutate` with only inserts)."""
        return self.mutate(insert=facts)

    def _check_extensional(self, relation: str) -> None:
        if relation in self._derived_originals:
            raise RaqletError(
                f"relation {relation!r} is derived by a prepared statement; "
                "only extensional (EDB) relations can be mutated"
            )

    # -- subscriptions -------------------------------------------------------

    def subscribe(
        self,
        name: str,
        listener,
        *,
        parameters: Optional[Mapping[str, object]] = None,
        timeout: float = 30.0,
        **bindings: object,
    ) -> int:
        """Register a standing query on the named prepared statement.

        ``listener(sid, statement_name, delta)`` is called — on the owning
        worker's thread — with a
        :class:`~repro.reactive.subscriptions.ResultDelta` after every
        mutation batch that changes the statement's result for this
        binding.  The subscription is routed by the same binding-affinity
        map as :meth:`submit`, so the standing derivation and the warm
        request path share one worker (and one maintenance pass).  Returns
        the subscription id for :meth:`unsubscribe`.
        """
        self._check_open()
        params: Dict[str, object] = dict(parameters or {})
        params.update(bindings)
        with self._dispatch_lock:
            statement = self._statements.get(name)
            if statement is None:
                raise RaqletError(
                    f"unknown prepared statement {name!r} "
                    f"(prepared: {', '.join(sorted(self._statements)) or 'none'})"
                )
            routing_key = (name, statement.version, self._freeze(params))
            worker = self._route(routing_key)
            sid = next(self._subscription_seq)

        def callback(delta, _sid=sid, _name=name) -> None:
            self.notification_count += 1
            listener(_sid, _name, delta)

        def control(holder: Future) -> None:
            worker.view.begin_read()
            try:
                worker.session.reactive.flush()
                holder.set_result(
                    worker.session.reactive.subscribe(
                        statement.compiled, callback, parameters=params, name=name
                    )
                )
            except BaseException as exc:  # surfaced to the subscriber
                holder.set_exception(exc)
            finally:
                worker.view.end_read()

        subscription = self._run_on_worker(worker, control, timeout)
        with self._dispatch_lock:
            self._subscriptions[sid] = (worker, subscription)
        return sid

    def unsubscribe(self, sid: int, *, timeout: float = 30.0) -> bool:
        """Tear down a subscription by id; ``False`` when already gone."""
        with self._dispatch_lock:
            entry = self._subscriptions.pop(sid, None)
        if entry is None:
            return False
        worker, subscription = entry

        def control(holder: Future) -> None:
            worker.view.begin_read()
            try:
                subscription.unsubscribe()
                holder.set_result(True)
            except BaseException as exc:
                holder.set_exception(exc)
            finally:
                worker.view.end_read()

        self._run_on_worker(worker, control, timeout)
        return True

    def poke(self) -> int:
        """Ask every subscription-owning worker to catch up and deliver.

        Registered as a :class:`SharedEDB` listener, so it runs after every
        effective batch on the shared store: the worker pins the current
        shared epoch and its session's reactive layer flushes the standing
        queries and fires the listeners.  Idempotent per epoch — a worker that is already current
        delivers nothing.  Returns the worker count poked.
        """
        with self._dispatch_lock:
            if self._closed:
                return 0
            owners = {
                worker.index: worker for worker, _ in self._subscriptions.values()
            }
        for worker in owners.values():
            worker.queue.put(self._notify_control(worker))
        return len(owners)

    def _notify_control(self, worker: "_Worker"):
        def control() -> None:
            worker.view.begin_read()
            try:
                worker.session.reactive.flush()
            finally:
                worker.view.end_read()

        return control

    @staticmethod
    def _run_on_worker(worker: "_Worker", control, timeout: float):
        """Run ``control(holder)`` on the worker thread; await its result."""
        holder: Future = Future()
        worker.queue.put(lambda: control(holder))
        return holder.result(timeout)

    # -- worker side ---------------------------------------------------------

    def _worker_loop(self, worker: _Worker) -> None:
        while True:
            task = worker.queue.get()
            if task is _STOP:
                break
            if callable(task):
                task()  # control task (tests use this to park a worker)
                continue
            try:
                response = self._execute(worker, task)
            except BaseException as exc:  # surfaced through the future
                self._finish(task, None, exc)
            else:
                self._finish(task, response, None)

    def _execute(self, worker: _Worker, task: _QueryTask) -> ServedResponse:
        epoch = worker.view.begin_read()
        try:
            # Standing queries catch up to the pinned epoch first (their
            # notifications carry it); the prepared query nets the shared
            # log up to the same epoch inside run().
            worker.session.reactive.flush()
            prepared = self._prepared_for(worker, task.statement)
            result = prepared.run(dict(task.params))
            worker.executed_count += 1
            return ServedResponse(
                result=result,
                statement=task.statement.name,
                epoch=epoch,
                worker=worker.index,
            )
        finally:
            worker.view.end_read()

    def _prepared_for(self, worker: _Worker, statement: _Statement) -> PreparedQuery:
        cached = worker.prepared.get(statement.name)
        if cached is not None and cached[0] == statement.version:
            return cached[1]
        if cached is not None:
            # replaced statement: untrack the old prepared query and drop
            # its derived relations from this worker's local store
            stale = cached[1]
            worker.session._unregister_prepared(stale)
            for relation in stale.idb_relations:
                worker.view.clear_relation(relation)
        prepared = worker.session.prepare(statement.compiled)
        worker.prepared[statement.name] = (statement.version, prepared)
        return prepared

    def _finish(
        self,
        task: _QueryTask,
        response: Optional[ServedResponse],
        error: Optional[BaseException],
    ) -> None:
        if error is None:
            # Count before waking the waiter: a client that reads stats()
            # right after its run resolves must see this run counted.
            self.executed_count += 1
            task.future.set_result(response)
        else:
            task.future.set_exception(error)
        with self._dispatch_lock:
            self._pending -= 1
            entry = self._inflight.get(task.inflight_key)
            if entry is not None and entry.future is task.future:
                del self._inflight[task.inflight_key]

    # -- diagnostics ---------------------------------------------------------

    def stats(self) -> Dict[str, object]:
        """A merged counter snapshot across pool, workers and shared store."""
        with self._dispatch_lock:
            pending = self._pending
            statements = sorted(self._statements)
            subscriptions = len(self._subscriptions)
        maintain = rederive = 0
        per_worker = []
        for worker in self._workers:
            engines = [prepared.engine for _, prepared in worker.prepared.values()]
            maintain += sum(engine.maintain_count for engine in engines)
            rederive += sum(engine.full_rederive_count for engine in engines)
            per_worker.append(
                {"worker": worker.index, "executed": worker.executed_count}
            )
        return {
            "workers": len(self._workers),
            "statements": statements,
            "pending": pending,
            "executed_count": self.executed_count,
            "coalesced_count": self.coalesced_count,
            "rejected_count": self.rejected_count,
            "mutation_count": self.mutation_count,
            "subscription_count": subscriptions,
            "notification_count": self.notification_count,
            "maintain_count": maintain,
            "full_rederive_count": rederive,
            "per_worker": per_worker,
            "executor": getattr(self._executor, "name", type(self._executor).__name__),
            "shared": self._shared.stats(),
        }

    # -- test hooks ----------------------------------------------------------

    def _pause_worker(self, index: int, timeout: float = 5.0) -> threading.Event:
        """TEST HOOK: park worker ``index`` until the returned event is set.

        Blocks until the worker has actually picked the barrier up, so the
        caller knows later submissions will queue behind it.
        """
        ready = threading.Event()
        release = threading.Event()

        def barrier() -> None:
            ready.set()
            release.wait(timeout)

        self._workers[index].queue.put(barrier)
        if not ready.wait(timeout):
            release.set()
            raise RuntimeError(f"worker {index} did not reach the barrier")
        return release

    # -- lifecycle -----------------------------------------------------------

    def _check_open(self) -> None:
        if self._closed:
            raise RaqletError("serving pool is closed")

    def close(self) -> None:
        """Stop the workers and release sessions, views and (when owned)
        the shared store.  Idempotent; pending requests are drained first
        (each worker processes its queue up to the stop marker)."""
        if self._closed:
            return
        self._closed = True
        self._shared.remove_listener(self.poke)
        with self._dispatch_lock:
            self._subscriptions.clear()
        for worker in self._workers:
            worker.queue.put(_STOP)
        for worker in self._workers:
            worker.thread.join(timeout=30)
        for worker in self._workers:
            worker.session.close()
            worker.view.close()
        if self._owns_shared:
            self._shared.close()

    def __enter__(self) -> "ServingPool":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
