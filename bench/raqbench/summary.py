"""Turn the raw samples of a run's children into the reported numbers.

A run measures in several fresh child processes, one after the other; their
laps are pooled, the quiet third is kept (``estimators.quiet_laps``), and
every estimator is applied to the samples of those laps only — so a number
never hangs on one process's luck or on one stretch of wall-clock.  Tail
percentiles, which are diagnostics, look at every sample.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

from raqbench import estimators
from raqbench.metrics import GROUP_CLASSES


def combine(children: Sequence[Dict]) -> Dict:
    """Pool ``children`` (the ``RESULT`` objects of ``child.py``)."""
    laps: List[float] = []
    #: op class -> (index into ``laps``, seconds) of every sample
    samples: Dict[str, List[tuple]] = {}
    attempted: Dict[str, int] = {}
    failed: Dict[str, int] = {}
    errors: List[str] = []
    for child in children:
        first_lap = len(laps)
        laps.extend(child["lap_seconds"])
        errors.extend(child["errors"])
        for name, pairs in child["samples"].items():
            samples.setdefault(name, []).extend(
                (first_lap + lap, seconds) for lap, seconds in pairs
            )
        for name, count in child["attempted"].items():
            attempted[name] = attempted.get(name, 0) + count
        for name, count in child["failed"].items():
            failed[name] = failed.get(name, 0) + count
    quiet = set(estimators.quiet_laps(laps))
    typical_lap = estimators.typical_lap(laps)
    everything = {
        name: [seconds for _, seconds in pairs] for name, pairs in samples.items()
    }
    p50s = estimators.class_p50s(
        {
            name: [seconds for lap, seconds in pairs if lap in quiet]
            for name, pairs in samples.items()
        }
    )
    ops_per_lap = children[0]["ops_per_lap"]
    metrics = {
        "throughput_ops_s": ops_per_lap / typical_lap,
        "op_geomean_ms": 1e3 * estimators.geomean(p50s.values()),
        "peak_rss_mb": estimators.median([child["peak_rss_mb"] for child in children]),
    }
    groups = {
        name: 1e3 * estimators.group_geomean(
            p50s, [c for c in p50s if c.startswith(prefixes)]
        )
        for name, prefixes in GROUP_CLASSES.items()
    }
    reads = estimators.flatten(everything, "read_") or estimators.flatten(everything, "")
    mutations = estimators.flatten(everything, "insert/") + estimators.flatten(
        everything, "retract/"
    )
    diagnostics = {
        "client.read_p99_ms": 1e3 * estimators.percentile(reads, 0.99) if reads else 0.0,
        "client.mutate_p99_ms": 1e3 * estimators.percentile(mutations, 0.99) if mutations else 0.0,
        "client.lap_spread": estimators.lap_spread(laps),
        "client.lap_ms": 1e3 * estimators.median(laps),
        "client.min_class_samples": float(
            min((len(values) for values in everything.values()), default=0)
        ),
        # the op class that takes the largest share of a typical lap
        "client.max_class_share": max(
            (
                p50s[name] * len(values) / len(laps) / typical_lap
                for name, values in everything.items()
                if name in p50s
            ),
            default=0.0,
        ),
        "proc.cpu_s": estimators.median([child["cpu_s_per_lap"] for child in children]),
        "proc.gc_gen2_count": estimators.median([child["gc_gen2_per_lap"] for child in children]),
        "proc.gc_gen2_ms": estimators.median([child["gc_gen2_ms_per_lap"] for child in children]),
        "machine.spin_ms": estimators.median([child["spin_ms"] for child in children]),
    }
    return {
        "laps": len(laps),
        "lap_seconds": laps,
        "ops_per_lap": ops_per_lap,
        "metrics": metrics,
        "groups": groups,
        "diagnostics": diagnostics,
        "attempted": sum(attempted.values()),
        "failed": sum(failed.values()),
        "errors": errors[:20],
        "classes": {
            name: {
                "n": len(everything.get(name, ())),
                "typical_ms": 1e3 * p50s[name] if name in p50s else None,
                "attempted": attempted.get(name, 0),
                "failed": failed.get(name, 0),
            }
            for name in sorted(set(attempted) | set(samples))
        },
    }
