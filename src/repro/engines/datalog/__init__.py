"""Bottom-up Datalog engine: semi-naive evaluation of DLIR programs.

The engine stands in for Soufflé in the paper's evaluation.  It supports the
full DLIR feature set: stratified negation, stratified aggregation
(count/sum/min/max/avg/collect), arithmetic, and min/max subsumption for
shortest-path style recursion.

Evaluation is plan-driven: each rule is compiled once (per semi-naive delta
position) into a :class:`~repro.engines.datalog.planner.RulePlan`, and the
:class:`~repro.engines.datalog.storage.FactStore` maintains its hash indexes
incrementally so fixpoint iterations never rebuild them.

Storage is pluggable behind the
:class:`~repro.engines.datalog.storage.StoreBackend` protocol: the in-memory
:class:`FactStore` is the default, and
:class:`~repro.engines.datalog.storage_sqlite.SQLiteFactStore` stores
relations in SQLite (in-memory or on disk).  Select a backend with
``DatalogEngine(..., store="sqlite")``; compiled plans run unchanged on
either store.

Plan **execution** is pluggable too: the default
:class:`~repro.engines.datalog.executor_compiled.CompiledExecutor`
source-generates one specialised closure per plan (inlined loop nest,
batched ``lookup_many`` index probes), while
``DatalogEngine(..., executor="interpreted")`` selects the step-by-step
plan interpreter and
``executor="columnar"`` the NumPy column-array executor
(:class:`~repro.engines.datalog.executor_columnar.ColumnarExecutor`;
requires the ``repro[columnar]`` extra, falls back per-plan to compiled).
The columnar module — and NumPy with it — loads only when a columnar
executor is built, so import it from its own module.

Every setting is an argument with one default: ``store=None`` means memory,
``executor=None`` means compiled, and the adaptive re-planning threshold is
the planner's ``REPLAN_THRESHOLD`` constant.  Nothing reads the environment.
"""

from repro.engines.datalog.engine import DatalogEngine, evaluate_program
from repro.engines.datalog.executor_compiled import (
    CompiledExecutor,
    InterpretedExecutor,
    RuleExecutor,
    compile_plan,
    create_executor,
    generate_plan_source,
)
from repro.engines.datalog.planner import PlanCache, RulePlan, plan_rule
from repro.engines.datalog.statistics import (
    RelationStats,
    StatsAccumulator,
    StatsRegistry,
    drift_ratio,
)
from repro.engines.datalog.storage import (
    DeltaView,
    FactStore,
    StoreBackend,
    create_store,
)
from repro.engines.datalog.storage_sqlite import SQLiteFactStore

__all__ = [
    "RelationStats",
    "StatsAccumulator",
    "StatsRegistry",
    "drift_ratio",
    "DatalogEngine",
    "evaluate_program",
    "StoreBackend",
    "FactStore",
    "SQLiteFactStore",
    "create_store",
    "RuleExecutor",
    "CompiledExecutor",
    "InterpretedExecutor",
    "create_executor",
    "compile_plan",
    "generate_plan_source",
    "DeltaView",
    "PlanCache",
    "RulePlan",
    "plan_rule",
]
