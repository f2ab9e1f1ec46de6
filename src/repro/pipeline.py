"""The Raqlet compiler facade: one object driving the whole pipeline.

:class:`Raqlet` wraps the full translation chain of the paper's Figure 1:

* Cypher text  ->  PGIR  ->  DLIR  ->  {Soufflé Datalog text, SQIR, SQL text}
* Datalog text ->  DLIR  ->  {Soufflé Datalog text, SQIR, SQL text}

plus the static analyses (Section 4), the optimizer (Section 5), and helpers
to execute a compiled query on each of the four execution engines.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Mapping, Optional, Tuple

from repro.analysis import AnalysisReport, analyze_program
from repro.analysis.report import BACKEND_CAPABILITIES, check_backend_support
from repro.backends import dlir_to_souffle, pgir_to_cypher, sqir_to_sql
from repro.common.errors import RaqletError, UnsupportedFeatureError
from repro.dlir import DLIRProgram, program_param_names, translate_pgir_to_dlir
from repro.engines.datalog import DatalogEngine
from repro.engines.graph import GraphEngine, PropertyGraph
from repro.engines.relational import Database, RelationalEngine
from repro.engines.result import QueryResult
from repro.engines.sqlite_exec import SQLiteExecutor
from repro.frontend.cypher import parse_cypher
from repro.frontend.datalog import parse_datalog
from repro.optimize import OptimizationTrace, optimize_program
from repro.pgir import LoweringResult, lower_cypher_to_pgir, pgir_to_text
from repro.schema import PGSchema, SchemaMapping, parse_pg_schema, pg_to_dl_schema
from repro.sqir import SQIRQuery, translate_dlir_to_sqir

FactsInput = Mapping[str, Iterable[Tuple]]


@dataclass
class CompiledQuery:
    """Everything Raqlet produces for one input query.

    The artifacts mirror the paper's Figure 3: the PGIR form, the DLIR form
    (unoptimized and optimized), the generated Soufflé Datalog text and the
    generated SQL text, plus the static analysis report.
    """

    source_language: str
    source_text: str
    parameters: Dict[str, object] = field(default_factory=dict)
    lowering: Optional[LoweringResult] = None
    dlir: Optional[DLIRProgram] = None
    dlir_optimized: Optional[DLIRProgram] = None
    optimization_trace: Optional[OptimizationTrace] = None
    analysis: Optional[AnalysisReport] = None

    # -- artifact accessors ------------------------------------------------

    def program(self, optimized: bool = True) -> DLIRProgram:
        """Return the optimized (default) or unoptimized DLIR program."""
        program = self.dlir_optimized if optimized else self.dlir
        if program is None:
            raise RaqletError("query was not compiled to DLIR")
        return program

    def pgir_text(self) -> str:
        """Return the PGIR rendering (only for Cypher inputs)."""
        if self.lowering is None:
            raise RaqletError("no PGIR available for this input language")
        return pgir_to_text(self.lowering.query)

    def cypher_text(self) -> str:
        """Return normalised Cypher regenerated from PGIR."""
        if self.lowering is None:
            raise RaqletError("no PGIR available for this input language")
        return pgir_to_cypher(self.lowering.query)

    def datalog_text(self, optimized: bool = True) -> str:
        """Return Soufflé Datalog text for the chosen program variant."""
        return dlir_to_souffle(self.program(optimized))

    def sqir(self, optimized: bool = True) -> SQIRQuery:
        """Return the SQIR plan for the chosen program variant."""
        return translate_dlir_to_sqir(self.program(optimized))

    def sql_text(self, optimized: bool = True, dialect: str = "ansi") -> str:
        """Return SQL text for the chosen program variant."""
        return sqir_to_sql(self.sqir(optimized), dialect=dialect)

    def param_names(self, optimized: bool = True) -> List[str]:
        """Return the names of the query's late-bound ``$name`` parameters.

        These are the parameters *not* inlined at compile time; each
        execution must supply a value for every one of them (see
        :meth:`repro.session.PreparedQuery.run`).
        """
        return program_param_names(self.program(optimized))

    def backend_problems(self, backend: str) -> List[str]:
        """Return the reasons ``backend`` cannot run this query (empty = ok)."""
        if self.analysis is None:
            raise RaqletError("query was not analysed")
        capability = BACKEND_CAPABILITIES.get(backend)
        if capability is None:
            raise RaqletError(f"unknown backend {backend!r}")
        return check_backend_support(self.analysis, capability)

    def warnings(self) -> List[str]:
        """Return normalisation and analysis warnings."""
        warnings: List[str] = []
        if self.lowering is not None:
            warnings.extend(self.lowering.query.warnings)
        if self.analysis is not None:
            warnings.extend(self.analysis.warnings)
        return warnings


class Raqlet:
    """The compiler facade.

    Parameters
    ----------
    schema:
        Either a :class:`PGSchema`, PG-Schema text (``CREATE GRAPH ...``), or
        an existing :class:`SchemaMapping`.
    """

    def __init__(self, schema) -> None:
        if isinstance(schema, SchemaMapping):
            self._mapping = schema
        elif isinstance(schema, PGSchema):
            self._mapping = pg_to_dl_schema(schema)
        elif isinstance(schema, str):
            self._mapping = pg_to_dl_schema(parse_pg_schema(schema))
        else:
            raise RaqletError(f"unsupported schema input {type(schema).__name__}")

    # -- properties ----------------------------------------------------------

    @property
    def mapping(self) -> SchemaMapping:
        """Return the PG-Schema to DL-Schema mapping."""
        return self._mapping

    @property
    def dl_schema(self):
        """Return the derived DL-Schema."""
        return self._mapping.dl_schema

    # -- compilation ----------------------------------------------------------

    def compile_cypher(
        self,
        query: str,
        parameters: Optional[Mapping[str, object]] = None,
        optimize: bool = True,
    ) -> CompiledQuery:
        """Compile a Cypher query through PGIR into DLIR (and optimize it)."""
        ast = parse_cypher(query)
        lowering = lower_cypher_to_pgir(ast, parameters)
        dlir = translate_pgir_to_dlir(lowering, self._mapping)
        compiled = CompiledQuery(
            source_language="cypher",
            source_text=query,
            parameters=dict(parameters or {}),
            lowering=lowering,
            dlir=dlir,
        )
        self._finish(compiled, optimize)
        return compiled

    def compile_datalog(self, program_text: str, optimize: bool = True) -> CompiledQuery:
        """Compile Soufflé-dialect Datalog text into DLIR (and optimize it).

        EDB relations that are declared in the program but also exist in the
        schema mapping keep the program's declaration; undeclared schema EDBs
        are added so the program can reference the graph relations directly.
        """
        program = parse_datalog(program_text, schema=self._mapping.dl_schema)
        compiled = CompiledQuery(
            source_language="datalog", source_text=program_text, dlir=program
        )
        self._finish(compiled, optimize)
        return compiled

    def compile_sql(self, sql_text: str, optimize: bool = True) -> CompiledQuery:
        """Compile recursive SQL text through SQIR into DLIR (and optimize it).

        Base tables referenced by the query are resolved against the schema
        mapping's DL-Schema (node and edge relations).
        """
        from repro.frontend.sql import parse_sql
        from repro.sqir.to_dlir import translate_sqir_to_dlir

        sqir = parse_sql(sql_text)
        program = translate_sqir_to_dlir(sqir, self._mapping.dl_schema)
        compiled = CompiledQuery(
            source_language="sql", source_text=sql_text, dlir=program
        )
        self._finish(compiled, optimize)
        return compiled

    def compile_dlir(self, program: DLIRProgram, optimize: bool = True) -> CompiledQuery:
        """Wrap an already-built DLIR program (analysis + optimization only)."""
        compiled = CompiledQuery(
            source_language="dlir", source_text=str(program), dlir=program
        )
        self._finish(compiled, optimize)
        return compiled

    def _finish(self, compiled: CompiledQuery, optimize: bool) -> None:
        assert compiled.dlir is not None
        compiled.analysis = analyze_program(compiled.dlir)
        if optimize:
            optimized, trace = optimize_program(compiled.dlir, self._mapping)
            compiled.dlir_optimized = optimized
            compiled.optimization_trace = trace
        else:
            compiled.dlir_optimized = compiled.dlir

    # -- sessions -------------------------------------------------------------

    def session(
        self,
        facts: Optional[FactsInput] = None,
        *,
        store=None,
        executor=None,
        ivm: bool = True,
    ):
        """Open a persistent :class:`~repro.session.Session` over ``facts``.

        The session owns one fact store (EDB ingest, indexes and statistics
        are paid once), compiles queries with late-bound ``$name``
        parameters through :meth:`~repro.session.Session.prepare`, routes
        :meth:`~repro.session.Session.execute` across engines, and supports
        :meth:`~repro.session.Session.insert` /
        :meth:`~repro.session.Session.retract` mutations with lazy
        re-derivation.  ``store`` / ``executor`` select the backend exactly
        like the one-shot API (``None`` means memory / compiled); ``ivm=False``
        replaces incremental maintenance with mark-dirty + re-derive.
        """
        from repro.session import Session

        return Session(self, facts, store=store, executor=executor, ivm=ivm)

    # -- execution ------------------------------------------------------------

    def datalog_engine(
        self,
        compiled: CompiledQuery,
        facts: FactsInput,
        optimized: bool = True,
        *,
        store=None,
        executor=None,
        parameters: Optional[Mapping[str, object]] = None,
    ) -> DatalogEngine:
        """Build (without running) a Datalog engine for the compiled query.

        Callers that need more than the result rows — the plan report
        (``engine.explain()``, the CLI's ``--explain``), re-plan counters,
        iteration counts — hold the engine; plain execution goes through
        :meth:`run_on_datalog_engine`.  ``parameters`` binds late-bound
        ``$name`` placeholders (merged over the compile-time values).
        """
        return DatalogEngine(
            compiled.program(optimized),
            facts,
            store=store,
            executor=executor,
            parameters={**compiled.parameters, **(parameters or {})},
        )

    def run_on_datalog_engine(
        self,
        compiled: CompiledQuery,
        facts: FactsInput,
        optimized: bool = True,
        *,
        store=None,
        executor=None,
        parameters: Optional[Mapping[str, object]] = None,
    ) -> QueryResult:
        """Execute the compiled query on the in-repo Datalog engine.

        A thin wrapper over a **throwaway session**: the call builds a
        :class:`~repro.session.Session`, prepares the compiled query, runs
        it once with the query's compile-time parameters, and closes the
        session.  Long-running callers should hold a session themselves
        (:meth:`session`) so the EDB ingest, indexes, statistics and
        compiled plans amortise across requests.  ``store`` / ``executor``
        select the backend exactly as in :meth:`session`.
        """
        from repro.session import Session

        session = Session(self, facts, store=store, executor=executor)
        try:
            return session.prepare(compiled, optimized=optimized).run(
                parameters or {}
            )
        finally:
            session.close()

    def run_on_relational_engine(
        self,
        compiled: CompiledQuery,
        database: Database,
        optimized: bool = True,
        parameters: Optional[Mapping[str, object]] = None,
    ) -> QueryResult:
        """Execute the generated SQIR on the in-repo relational engine.

        ``parameters`` binds any late-bound ``$name`` placeholders before
        translation (the relational engine has no runtime binding).
        """
        problems = compiled.backend_problems("relational-engine")
        if problems:
            raise UnsupportedFeatureError("; ".join(problems), backend="relational-engine")
        program = compiled.program(optimized)
        values = {**compiled.parameters, **(parameters or {})}
        if program_param_names(program):
            from repro.dlir import bind_parameters

            program = bind_parameters(program, values)
        return RelationalEngine(database).execute(translate_dlir_to_sqir(program))

    def run_on_sqlite(
        self,
        compiled: CompiledQuery,
        executor: SQLiteExecutor,
        optimized: bool = True,
        parameters: Optional[Mapping[str, object]] = None,
    ) -> QueryResult:
        """Execute the generated SQL text on SQLite.

        Late-bound parameters are emitted as named ``:name`` placeholders
        and bound by SQLite itself, so the SQL text is reusable per binding.
        """
        problems = compiled.backend_problems("sqlite")
        if problems:
            raise UnsupportedFeatureError("; ".join(problems), backend="sqlite")
        values = {**compiled.parameters, **(parameters or {})}
        return executor.execute_sql(
            compiled.sql_text(optimized, dialect="sqlite"), values
        )

    def run_on_graph_engine(
        self,
        compiled: CompiledQuery,
        graph: PropertyGraph,
        parameters: Optional[Mapping[str, object]] = None,
    ) -> QueryResult:
        """Execute the original (PGIR) query on the property-graph engine.

        The graph interpreter evaluates PGIR directly, so late-bound
        parameters are inlined by re-lowering the source with ``parameters``
        merged over the compile-time values.
        """
        if compiled.lowering is None:
            raise RaqletError("graph execution requires a Cypher input query")
        lowering = compiled.lowering
        if compiled.param_names():
            values = {**compiled.parameters, **(parameters or {})}
            ast = parse_cypher(compiled.source_text)
            lowering = lower_cypher_to_pgir(ast, values)
        return GraphEngine(graph).execute(lowering)

    def run_everywhere(
        self,
        compiled: CompiledQuery,
        facts: FactsInput,
        database: Optional[Database] = None,
        graph: Optional[PropertyGraph] = None,
        sqlite_executor: Optional[SQLiteExecutor] = None,
        optimized: bool = True,
        datalog_store: Optional[str] = None,
        datalog_executor: Optional[str] = None,
        parameters: Optional[Mapping[str, object]] = None,
    ) -> Dict[str, QueryResult]:
        """Run the query on every engine it supports and collect the results.

        Engines whose capability check rejects the query are skipped.
        ``datalog_store`` selects the Datalog engine's fact-store backend
        (``"memory"``, ``"sqlite"``, ``"sqlite:PATH"``) and
        ``datalog_executor`` its plan executor (``"interpreted"``,
        ``"compiled"``); ``None`` means memory / compiled.  ``parameters``
        binds any late-bound ``$name`` placeholders on every engine.
        """
        results: Dict[str, QueryResult] = {}
        results["datalog"] = self.run_on_datalog_engine(
            compiled,
            facts,
            optimized,
            store=datalog_store,
            executor=datalog_executor,
            parameters=parameters,
        )
        if database is not None and not compiled.backend_problems("relational-engine"):
            results["relational"] = self.run_on_relational_engine(
                compiled, database, optimized, parameters
            )
        if sqlite_executor is not None and not compiled.backend_problems("sqlite"):
            results["sqlite"] = self.run_on_sqlite(
                compiled, sqlite_executor, optimized, parameters
            )
        if graph is not None and compiled.lowering is not None:
            results["graph"] = self.run_on_graph_engine(compiled, graph, parameters)
        return results
