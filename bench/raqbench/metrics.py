"""The metric names the benchmark declares (``BENCHMARK.json`` is generated
from these lists by ``run.py --write-manifest`` and checked by the smoke
test), and how a traced run's spans and counters become per-layer values.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Tuple

WORKLOADS: List[Tuple[str, str]] = [
    (
        "compile_corpus",
        "12 Cypher/Datalog/SQL programs compiled to every target: only the compiler layers work, no engine runs",
    ),
    (
        "oneshot_table1",
        "cold one-shot of each query on each backend (paper Table 1): planner, executors, stores and foreign engines work, compiler and IVM do not",
    ),
    (
        "session_stream",
        "one warm embedded session with reads, rebinds, inserts, retracts and 8 standing queries: session, IVM and reactive layers work",
    ),
    (
        "serve_mix",
        "the same lap as session_stream against a real raqlet serve process over TCP: adds wire, asyncio, pool routing and the shared EDB",
    ),
]

#: fresh child processes per run; each sets up, then measures its share
CHILDREN = 5
#: the measuring time the lap counts below were calibrated for (2-vCPU VM)
RUN_SECONDS = 16
#: measured laps per child at ``RUN_SECONDS`` — fixed work, calibrated once:
#: a run is ``CHILDREN`` times this many identical laps, never "as many as fit"
LAPS_PER_CHILD: Dict[str, int] = {
    "compile_corpus": 18,
    "oneshot_table1": 5,
    "session_stream": 9,
    "serve_mix": 7,
}
#: what makes a run's numbers valid (noise rules 1 and 2); a run below
#: either is refused, not reported
MIN_LAPS = 7
MIN_CLASS_SAMPLES = 25

#: (name, unit, better, bound) — every workload reports every one of these
END_TO_END: List[Tuple[str, str, str, float]] = [
    ("throughput_ops_s", "1/s", "higher", 0.15),
    ("op_geomean_ms", "ms", "lower", 0.15),
    ("peak_rss_mb", "MiB", "lower", 0.05),
    ("setup_s", "s", "lower", 0.15),
]

#: group metrics: geomean of the typical times of one family of op classes
#: (by class name prefix), the workloads that have such classes, and the
#: bound ``--selfcheck`` holds them to
GROUP_CLASSES: Dict[str, Tuple[str, ...]] = {
    "compiled_geomean_ms": ("datalog.compiled.memory/",),
    "columnar_geomean_ms": ("datalog.columnar.memory/",),
    "sqlstore_geomean_ms": ("datalog.compiled.sqlite/",),
    "xengine_geomean_ms": ("relational/", "sqlite_sql/", "graph/"),
    "read_warm_ms": ("read_warm/",),
    "read_rebind_ms": ("read_rebind/",),
    "insert_ms": ("insert/",),
    "retract_ms": ("retract/",),
    "notify_ms": ("notify.",),
}
GROUP_BOUND = 0.15
_ONESHOT = ("oneshot_table1",)
_LIVE = ("session_stream", "serve_mix")
GROUP_WORKLOADS: Dict[str, Tuple[str, ...]] = {
    "compiled_geomean_ms": _ONESHOT,
    "columnar_geomean_ms": _ONESHOT,
    "sqlstore_geomean_ms": _ONESHOT,
    "xengine_geomean_ms": _ONESHOT,
    "read_warm_ms": _LIVE,
    "read_rebind_ms": _LIVE,
    "insert_ms": _LIVE,
    "retract_ms": _LIVE,
    "notify_ms": _LIVE,
}
GROUP_METRICS: List[str] = list(GROUP_CLASSES)

#: span name -> per-layer metric, reported as self time in ms per lap
SPAN_METRICS: List[str] = [
    "frontend.cypher.parse",
    "frontend.datalog.parse",
    "frontend.sql.parse",
    "pgir.lower",
    "dlir.from_pgir",
    "sqir.to_dlir",
    "sqir.from_dlir",
    "analysis.analyze",
    "optimize.total",
    "optimize.constant_propagation",
    "optimize.inline",
    "optimize.duplicates",
    "optimize.semantic",
    "optimize.linearize",
    "optimize.magic_sets",
    "optimize.dead_rules",
    "backends.souffle",
    "backends.sql",
    "backends.cypher",
    "engine.ingest",
    "engine.run",
    "engine.reset",
    "engine.result",
    "planner.plan_rule",
    "executor.compiled.evaluate",
    "executor.columnar.evaluate",
    "executor.interpreted.evaluate",
    "storage.memory.lookup",
    "storage.memory.write",
    "storage.sqlite.lookup",
    "storage.sqlite.write",
    "relational.execute",
    "sqlite_exec.execute",
    "graph.execute",
    "ivm.insert_maintain",
    "ivm.retract_maintain",
    "session.prepare",
    "session.run_self",
    "session.insert",
    "session.retract",
    "reactive.flush",
    "pool.run",
    "pool.mutate",
    "shared.apply",
    "client.op",
]

#: counts per lap, read off the program's public counters
COUNT_METRICS: List[str] = [
    "dlir.rule_count",
    "optimize.applied_count",
    "optimize.rule_count_out",
    "backends.emitted_bytes",
    "engine.iteration_count",
    "engine.plan_build_count",
    "engine.replan_count",
    "engine.full_rederive_count",
    "engine.executor_fallback_count",
    "planner.plan_count",
    "executor.evaluate_calls",
    "executor.compiled.compile_count",
    "executor.columnar.vectorised_count",
    "executor.columnar.fallback_count",
    "executor.columnar.store_encode_count",
    "executor.columnar.incremental_encode_count",
    "storage.lookup_calls",
    "storage.write_rows",
    "storage.index_build_count",
    "storage.sqlite.batch_probe_query_count",
    "ivm.maintain_count",
    "ivm.delta_rows",
    "reactive.notification_count",
    "pool.executed_count",
    "pool.coalesced_count",
    "pool.rejected_count",
    "pool.notification_count",
]

#: values that are not per-lap totals
GAUGE_METRICS: List[Tuple[str, str]] = [
    ("engine.maintain_ms", "ms"),
    ("reactive.callback_lag_ms", "ms"),
    ("pool.worker_imbalance", "ratio"),
    ("shared.log_entries", "count"),
    ("server.wire_overhead_ms", "ms"),
    ("server.response_bytes_p50", "bytes"),
    ("server.response_bytes_max", "bytes"),
    ("client.read_p99_ms", "ms"),
    ("client.mutate_p99_ms", "ms"),
    ("client.lap_spread", "ratio"),
    ("client.lap_ms", "ms"),
    ("client.min_class_samples", "count"),
    ("client.max_class_share", "ratio"),
    ("proc.cpu_s", "s"),
    ("proc.gc_gen2_count", "count"),
    ("proc.gc_gen2_ms", "ms"),
    ("machine.spin_ms", "ms"),
    ("trace.overhead_ratio", "ratio"),
]

def span_metric(span_name: str) -> str:
    """``client.op`` is reported as its self time (the harness's own cost)."""
    return "client.op_self_ms" if span_name == "client.op" else f"{span_name}_ms"


def per_layer_manifest() -> List[Dict[str, str]]:
    """The ``per_layer`` list of ``BENCHMARK.json``."""
    manifest = [
        {"name": f"group.{name}", "unit": "ms", "better": "lower"}
        for name in GROUP_METRICS
    ]
    manifest += [
        {"name": span_metric(name), "unit": "ms", "better": "lower"}
        for name in SPAN_METRICS
    ]
    for name in COUNT_METRICS:
        higher = name in (
            "executor.columnar.vectorised_count",
            "executor.columnar.incremental_encode_count",
            "pool.coalesced_count",
        )
        manifest.append(
            {"name": name, "unit": "count", "better": "higher" if higher else "lower"}
        )
    for name, unit in GAUGE_METRICS:
        better = "higher" if name == "client.min_class_samples" else "lower"
        manifest.append({"name": name, "unit": unit, "better": better})
    return manifest


def layer_values(
    laps: int,
    lap_totals: Mapping[str, Mapping[str, float]],
    setup_totals: Mapping[str, Mapping[str, float]],
    counts: Mapping[str, float],
) -> Dict[str, float]:
    """Turn drained span totals and counter deltas into per-layer values.

    A span metric is the layer's summed **self** time in ms per lap; a layer
    that only works in set-up (``session.prepare`` on the live workloads,
    the planner micro-measurement) reports its one-off set-up total.
    ``pool.run`` is an envelope across threads, so its *total* is reported.
    """
    values: Dict[str, float] = {}
    for name in SPAN_METRICS:
        entry = lap_totals.get(name)
        key = "total_s" if name == "pool.run" else "self_s"
        if entry is not None:
            values[span_metric(name)] = 1e3 * entry[key] / laps
        elif name in setup_totals:
            values[span_metric(name)] = 1e3 * setup_totals[name][key]
        else:
            values[span_metric(name)] = 0.0

    def calls(prefix: str, suffix: str, totals) -> float:
        return sum(
            entry["calls"]
            for name, entry in totals.items()
            if name.startswith(prefix) and name.endswith(suffix)
        )

    values["engine.maintain_ms"] = (
        values["ivm.insert_maintain_ms"] + values["ivm.retract_maintain_ms"]
    )
    for name in COUNT_METRICS:
        values[name] = counts.get(name, 0.0) / laps
    # the planner micro-measurement runs once, in set-up
    values["planner.plan_count"] = calls("planner.plan_rule", "", setup_totals)
    values["executor.evaluate_calls"] = calls("executor.", ".evaluate", lap_totals) / laps
    values["storage.lookup_calls"] = calls("storage.", ".lookup", lap_totals) / laps
    return values
