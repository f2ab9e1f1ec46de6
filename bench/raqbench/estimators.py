"""The estimators every reported number goes through (noise rules 1 and 2).

* a **lap** is one short pass over a fixed op sequence, and all laps of a
  run are the same work.  On this machine class neighbours steal slices of
  the processor and slow it by up to half for seconds at a time, and how
  much of a minute they take drifts — so a lap that took longer than the
  run's fastest laps was disturbed, not different.  Every number of a run is
  taken over its **quiet laps**: the fastest third (see ``bench/README.md``
  for the measurements that chose this over medians and low quantiles of
  all samples);
* throughput is ops per lap over the **median quiet lap** wall time;
* a **class p50** is only ever taken over repeats of one op class (inside
  the quiet laps) — the median, because an op class on the wire can have
  two modes of its own (a read that does or does not wait for a worker's
  fold), and a low quantile would sit between them;
* every latency metric is the **geometric mean of class p50s** — never a
  percentile over a mixed population, whose median sits on the boundary
  between two modes and jumps.
"""

from __future__ import annotations

import math
import statistics
from typing import Dict, Iterable, List, Mapping, Sequence


def median(values: Sequence[float]) -> float:
    return float(statistics.median(values))


def percentile(values: Sequence[float], fraction: float) -> float:
    """Nearest-rank percentile (``fraction`` in 0..1) of a non-empty sample."""
    ordered = sorted(values)
    rank = max(1, math.ceil(fraction * len(ordered)))
    return float(ordered[rank - 1])


def class_p50s(samples: Mapping[str, Sequence[float]]) -> Dict[str, float]:
    """Median per op class; classes without samples are left out."""
    return {name: median(values) for name, values in samples.items() if values}


def geomean(values: Iterable[float]) -> float:
    """Geometric mean of positive values (0.0 for an empty input)."""
    logs = [math.log(value) for value in values if value > 0]
    if not logs:
        return 0.0
    return math.exp(sum(logs) / len(logs))


def group_geomean(p50s: Mapping[str, float], members: Iterable[str]) -> float:
    """Geometric mean of the p50s of the member classes that have one."""
    return geomean(p50s[name] for name in members if name in p50s)


#: the share of a run's laps, fastest first, its numbers are taken over
QUIET_SHARE = 1.0 / 3.0


def quiet_laps(lap_seconds: Sequence[float]) -> List[int]:
    """Indexes of the fastest third of the laps (at least one)."""
    order = sorted(range(len(lap_seconds)), key=lambda index: lap_seconds[index])
    return order[: max(1, round(QUIET_SHARE * len(order)))]


def typical_lap(lap_seconds: Sequence[float]) -> float:
    """The median wall time of the quiet laps: a lap no neighbour disturbed."""
    return median([lap_seconds[index] for index in quiet_laps(lap_seconds)])


def lap_throughput(ops_per_lap: int, lap_seconds: Sequence[float]) -> float:
    """Ops per second at the typical lap wall time."""
    return ops_per_lap / typical_lap(lap_seconds)


def quickest(values: Sequence[float]) -> float:
    """The least of a run's repeats of one fixed piece of work (its set-ups):
    neighbours only ever add time."""
    return float(min(values))


def lap_spread(lap_seconds: Sequence[float]) -> float:
    """(max - min) / median lap time — how much the laps of one run differ."""
    if len(lap_seconds) < 2:
        return 0.0
    return (max(lap_seconds) - min(lap_seconds)) / median(lap_seconds)


def relative_gap(first: float, second: float, better: str) -> float:
    """How much worse ``second`` is than ``first`` as a share of ``first``
    (negative when it is better)."""
    if first == 0:
        return 0.0
    change = (second - first) / first
    return change if better == "lower" else -change


def summarize(values: Sequence[float]) -> Dict[str, float]:
    first, _, third = statistics.quantiles(values, n=4)
    return {
        "median": median(values),
        "q1": first,
        "q3": third,
        "iqr_over_median": (third - first) / median(values),
        "n": len(values),
    }


def flatten(samples: Mapping[str, Sequence[float]], prefix: str) -> List[float]:
    """All samples of the classes whose name starts with ``prefix`` — used
    only for the diagnostic tail percentiles (noise rule 7)."""
    merged: List[float] = []
    for name, values in samples.items():
        if name.startswith(prefix):
            merged.extend(values)
    return merged
