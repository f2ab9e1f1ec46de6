"""``session_stream`` — the embedded-application path.

One ``raqlet.session(facts, store="memory", executor="compiled")`` with the
four statements prepared and eight ``session.subscribe`` standing bindings,
driven by the shared live lap (:mod:`raqbench.live`): warm reads, rebinding
reads, inserts and retracts with the next consistent read of every
statement.  ``session``, ``engine.reset``/re-derive, ``ivm`` (counting for
``cq2``/``fof``, DRed for ``reach``) and ``reactive`` do the work, on the
same engine and store ``oneshot_table1`` uses cold and read-only.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

from repro.engines.datalog.executor_compiled import create_executor
from repro.engines.datalog.storage import create_store

from raqbench.harness import ENGINE_COUNTERS
from raqbench.live import STATEMENTS, LiveWorkload, Mutation, Notification, Rows, Transport
from raqbench.tracing import TracedExecutor, TracedStore

class SessionTransport(Transport):
    def start(self, workload: LiveWorkload) -> None:
        recorder = workload.recorder
        self.recorder = recorder
        self.clock = workload.clock
        self.kind = "insert"
        self.flush_started = 0.0
        self.callback_lag: List[float] = []
        self.delta_rows = 0
        self.inbox: List[Notification] = []
        if recorder is None:
            self.store, self.executor = None, None
            self.session = workload.raqlet.session(
                workload.dataset.facts, store="memory", executor="compiled"
            )
        else:
            with recorder.span("engine.ingest"):
                self.store = TracedStore(create_store("memory"), recorder, "memory")
                self.executor = TracedExecutor(create_executor("compiled"), recorder)
                self.session = workload.raqlet.session(
                    workload.dataset.facts, store=self.store, executor=self.executor
                )
            recorder.wrap_method(self.session, "insert", "session.insert")
            recorder.wrap_method(self.session, "retract", "session.retract")
        self.prepared = {}
        for statement in STATEMENTS:
            if recorder is None:
                self.prepared[statement] = self.session.prepare(workload.compiled[statement])
                continue
            with recorder.span("session.prepare"):
                prepared = self.session.prepare(workload.compiled[statement])
            self._trace_engine(prepared.engine)
            prepared.run = recorder.wrap(prepared.run, "session.run_self")
            self.prepared[statement] = prepared
        for index, (statement, person) in enumerate(workload.subscriptions):
            self.session.subscribe(
                workload.compiled[statement],
                self._listener(index),
                parameters=workload.params(statement, person),
            )
        if recorder is not None:
            reactive = self.session.reactive
            inner_flush = reactive.flush

            def flush():
                self.flush_started = self.clock()
                frame = recorder.begin("reactive.flush")
                try:
                    return inner_flush()
                finally:
                    recorder.end(frame)

            reactive.flush = flush

    def _trace_engine(self, engine) -> None:
        recorder = self.recorder
        recorder.wrap_method(engine, "run", "engine.run")
        recorder.wrap_method(engine, "reset", "engine.reset")
        recorder.wrap_method(engine, "query", "engine.result")
        inner_maintain = engine.maintain

        def maintain(added, removed):
            frame = recorder.begin(f"ivm.{self.kind}_maintain")
            try:
                report = inner_maintain(added, removed)
            finally:
                recorder.end(frame)
            self.delta_rows += sum(len(rows) for rows in report.added.values())
            self.delta_rows += sum(len(rows) for rows in report.removed.values())
            return report

        engine.maintain = maintain

    def _listener(self, index: int):
        def on_delta(delta) -> None:
            now = self.clock()
            if self.flush_started:
                self.callback_lag.append(now - self.flush_started)
            self.inbox.append(
                Notification(index, now, list(delta.added), list(delta.removed))
            )

        return on_delta

    def read(self, statement: str, params: Dict[str, object]) -> Tuple[Rows, int]:
        return self.prepared[statement].run(params).rows, 0

    def mutate(
        self, kind: str, mutation: Mutation, expect: Sequence[int]
    ) -> Tuple[float, List[Notification]]:
        self.kind = kind
        self.inbox = []
        apply = self.session.insert if kind == "insert" else self.session.retract
        for relation, rows in mutation:
            apply(relation, rows)
        return self.clock(), self.inbox

    def close(self) -> None:
        self.session.close()
        if self.store is not None:
            self.store.close()


class SessionStream(LiveWorkload):
    name = "session_stream"
    scale = 120
    subscription_count = 8

    def make_transport(self) -> Transport:
        return SessionTransport()

    def counters(self) -> Dict[str, float]:
        transport = self.transport
        counts = dict(self.counts)
        engines = [prepared.engine for prepared in transport.prepared.values()]
        for counter in ENGINE_COUNTERS:
            counts[f"engine.{counter}"] = sum(getattr(engine, counter) for engine in engines)
        counts["ivm.maintain_count"] = sum(engine.maintain_count for engine in engines)
        counts["ivm.delta_rows"] = transport.delta_rows
        counts["reactive.notification_count"] = transport.session.reactive.notification_count
        if transport.store is not None:
            executor = transport.executor.inner
            counts["executor.compiled.compile_count"] = executor.compile_count
            counts["storage.index_build_count"] = transport.store.index_build_count
            counts["storage.write_rows"] = transport.store.write_rows
        return counts

    def gauges(self) -> Dict[str, float]:
        lag = self.transport.callback_lag
        return {"reactive.callback_lag_ms": 1e3 * sum(lag) / len(lag) if lag else 0.0}

    def rederive_count(self) -> int:
        return sum(
            prepared.engine.full_rederive_count
            for prepared in self.transport.prepared.values()
        )
