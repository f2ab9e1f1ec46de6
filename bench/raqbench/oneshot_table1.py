"""``oneshot_table1`` — cold one-shot execution per backend (paper Table 1 /
Fig. 4 shape).

Queries are compiled in set-up, their parameter inlined like ``raqlet
ldbc`` does.  Op = one cold one-shot of (query, configuration) through the
public one-shot API: the Datalog engine as ``compiled/memory``,
``columnar/memory`` and ``compiled/sqlite`` (a throwaway session: ingest,
index, plan, codegen and fixpoint on every op) and the relational, SQLite
and graph engines over materialisations built in set-up.  Planner,
executors, stores, statistics and the three foreign engines do the work;
the compiler layers and IVM/serving do none.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Tuple

from repro.engines.datalog.executor_compiled import create_executor
from repro.engines.datalog.planner import plan_rule
from repro.engines.datalog.storage import create_store
from repro.ldbc import load_dataset, snb_schema_mapping
from repro.ldbc import queries as ldbc_queries
from repro.pipeline import Raqlet

from raqbench.harness import (
    DATA_SEED,
    ENGINE_COUNTERS,
    Digest,
    Workload,
    digest,
    typical_persons,
)
from raqbench.tracing import TracedExecutor, TracedStore

#: persons in the main dataset (calibrated: 25 laps of 28 classes in a 16 s
#: run leave ~23 ms per op on average)
SCALE = 100
#: shortest path runs on its own small dataset: subsumption makes it
#: 1.5 s per op at 300 persons
SP_SCALE = 40
#: ops of each class in one lap
REPEATS_PER_LAP = 1

DATALOG_CONFIGS = [
    ("compiled", "memory"),
    ("columnar", "memory"),
    ("compiled", "sqlite"),
]

def datalog_class(executor: str, store: str, query: str) -> str:
    return f"datalog.{executor}.{store}/{query}"


class OneshotTable1(Workload):
    name = "oneshot_table1"
    def setup(self) -> None:
        scale = 40 if self.smoke else SCALE
        sp_scale = 24 if self.smoke else SP_SCALE
        self.raqlet = Raqlet(snb_schema_mapping())
        self.data = load_dataset(scale, DATA_SEED)
        self.sp_data = load_dataset(sp_scale, DATA_SEED)
        person = typical_persons(self.data.dataset, 1)[0]
        sp_from, sp_to = typical_persons(self.sp_data.dataset, 2)
        specs = {
            "sq1": ldbc_queries.short_query_1(person),
            "cq2": ldbc_queries.complex_query_2(
                person, self.data.dataset.median_message_date()
            ),
            "fof": ldbc_queries.friends_of_friends(person),
            "reach": ldbc_queries.friend_reachability(person),
            "sp": ldbc_queries.shortest_path_query(sp_from, sp_to),
        }
        self.compiled = {
            name: self.raqlet.compile_cypher(spec["query"], spec["parameters"])
            for name, spec in specs.items()
        }
        self.datasets = {name: self.data for name in specs}
        self.datasets["sp"] = self.sp_data
        # Materialisations the foreign engines run over, built once here.
        for data in (self.data, self.sp_data):
            data.relational_database()
            data.sqlite_executor()
            data.property_graph()
        #: (op class, call, expected-result key) — the check is bound below
        op_specs: List[Tuple[str, Callable[[], object], str]] = []
        for query, compiled in self.compiled.items():
            data = self.datasets[query]
            for executor, store in DATALOG_CONFIGS:
                op_specs.append(
                    (
                        datalog_class(executor, store, query),
                        self._datalog_op(compiled, data, executor, store),
                        query,
                    )
                )
            if not compiled.backend_problems("relational-engine"):
                op_specs.append((f"relational/{query}", self._relational_op(compiled, data), query))
            if not compiled.backend_problems("sqlite"):
                op_specs.append((f"sqlite_sql/{query}", self._sqlite_op(compiled, data), query))
            op_specs.append((f"graph/{query}", self._graph_op(compiled, data), query))
        repeats = 1 if self.smoke else REPEATS_PER_LAP
        self.sequence = [index for index in range(len(op_specs)) for _ in range(repeats)]
        self.rng.shuffle(self.sequence)
        self.ops_per_lap = len(self.sequence)
        self.adopt_reference()
        self.ops = [(op_class, call, self.check_rows(key)) for op_class, call, key in op_specs]
        if self.recorder is not None:
            self._check_traced_twin()
            self._time_planner()

    # -- ops ---------------------------------------------------------------

    def _datalog_op(self, compiled, data, executor: str, store: str):
        raqlet = self.raqlet
        if self.recorder is None:
            return lambda: raqlet.run_on_datalog_engine(
                compiled, data.facts, store=store, executor=executor
            )
        return lambda: self._traced_datalog(compiled, data, executor, store)

    def _traced_datalog(self, compiled, data, executor_name: str, store_name: str):
        """``run_on_datalog_engine`` rebuilt from the public session API, with
        delegating store/executor objects and wrapped engine methods."""
        recorder = self.recorder
        span = recorder.span
        with span("engine.ingest"):
            store = TracedStore(create_store(store_name), recorder, store_name)
            executor = TracedExecutor(create_executor(executor_name), recorder)
            session = self.raqlet.session(data.facts, store=store, executor=executor)
        try:
            with span("session.prepare"):
                prepared = session.prepare(compiled)
            engine = prepared.engine
            recorder.wrap_method(engine, "run", "engine.run")
            recorder.wrap_method(engine, "reset", "engine.reset")
            recorder.wrap_method(engine, "query", "engine.result")
            with span("session.run_self"):
                result = prepared.run({})
            self._collect_counters(prepared, executor.inner, store)
            return result
        finally:
            session.close()
            store.close()

    def _check_traced_twin(self) -> None:
        """The session-API rebuild must answer like the public one-shot call
        it stands in for — or the layer table describes another program."""
        for query, compiled in self.compiled.items():
            data = self.datasets[query]
            for executor, store in DATALOG_CONFIGS:
                public = self.raqlet.run_on_datalog_engine(
                    compiled, data.facts, store=store, executor=executor
                )
                traced = self._traced_datalog(compiled, data, executor, store)
                self.record(
                    "check/traced-twin",
                    0.0,
                    digest(public.rows) == digest(traced.rows),
                    f"{datalog_class(executor, store, query)}: traced rebuild answers differently",
                )

    def _collect_counters(self, prepared, executor, store) -> None:
        engine = prepared.engine
        for counter in ENGINE_COUNTERS:
            self.count(f"engine.{counter}", getattr(engine, counter))
        self.count(
            "engine.iteration_count",
            max(engine.iteration_count(name) for name in prepared.idb_relations),
        )
        self.count("executor.compiled.compile_count", getattr(executor, "compile_count", 0))
        if executor.name == "columnar":
            self.count("executor.columnar.vectorised_count", executor.vectorised_count)
            self.count(
                "executor.columnar.fallback_count",
                executor.fallback_count + executor.runtime_fallback_count,
            )
            self.count("executor.columnar.store_encode_count", executor.store_encode_count)
            self.count(
                "executor.columnar.incremental_encode_count",
                executor.columnar_incremental_encode_count,
            )
        self.count("storage.index_build_count", store.index_build_count)
        self.count("storage.write_rows", store.write_rows)
        self.count(
            "storage.sqlite.batch_probe_query_count",
            getattr(store.inner, "batch_probe_query_count", 0),
        )

    def _foreign(self, span_name: str, call: Callable[[], object]):
        if self.recorder is None:
            return call
        return self.recorder.wrap(call, span_name)

    def _relational_op(self, compiled, data):
        database = data.relational_database()
        return self._foreign(
            "relational.execute",
            lambda: self.raqlet.run_on_relational_engine(compiled, database),
        )

    def _sqlite_op(self, compiled, data):
        executor = data.sqlite_executor()
        return self._foreign(
            "sqlite_exec.execute", lambda: self.raqlet.run_on_sqlite(compiled, executor)
        )

    def _graph_op(self, compiled, data):
        graph = data.property_graph()
        return self._foreign(
            "graph.execute", lambda: self.raqlet.run_on_graph_engine(compiled, graph)
        )

    def lap(self) -> None:
        ops = self.ops
        for index in self.sequence:
            self.timed(*ops[index])

    # -- planner micro-measurement (trace mode, set-up) --------------------

    def _time_planner(self) -> None:
        """Direct calls to ``plan_rule`` over each prepared program's rules
        against a loaded store."""
        store = create_store("memory")
        try:
            with store.batch():
                for relation, rows in self.data.facts.items():
                    store.add_many(relation, (tuple(row) for row in rows))
            for compiled in self.compiled.values():
                for rule in compiled.program().rules:
                    with self.recorder.span("planner.plan_rule"):
                        plan_rule(rule, store)
        finally:
            store.close()

    # -- references --------------------------------------------------------

    def reference(self) -> Dict[str, Digest]:
        """SQLite running the generated SQL (graph interpreter for shortest path).

        SQL cannot express min-subsumption, so ``sp`` has no SQL form."""
        expected = {}
        for query, compiled in self.compiled.items():
            data = self.datasets[query]
            if compiled.backend_problems("sqlite"):
                result = self.raqlet.run_on_graph_engine(compiled, data.property_graph())
            else:
                result = self.raqlet.run_on_sqlite(compiled, data.sqlite_executor())
            expected[query] = digest(result.rows)
        return expected

    def second_reference(self) -> Dict[str, Digest]:
        """The Datalog engine on the plan interpreter over the memory store."""
        return {
            query: digest(
                self.raqlet.run_on_datalog_engine(
                    compiled,
                    self.datasets[query].facts,
                    store="memory",
                    executor="interpreted",
                ).rows
            )
            for query, compiled in self.compiled.items()
        }

    def close(self) -> None:
        self.data.close()
        self.sp_data.close()
