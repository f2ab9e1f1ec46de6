"""Relation statistics for cost-based join planning.

The planner's original heuristic ranked candidate atoms by raw relation
size; size alone cannot distinguish "1,000 rows spread over 1,000 keys"
(fan-out 1 per probe) from "1,000 rows under one key" (fan-out 1,000).
This module supplies the signal that distinction needs:

* :class:`RelationStats` — an immutable snapshot of one relation's
  **cardinality** and **per-column distinct-value counts**, with the
  estimators the planner's cost function is built on
  (:meth:`RelationStats.fanout` — estimated rows per probe of a bound
  position set, under the textbook attribute-independence assumption);
* :class:`StatsAccumulator` / :class:`StatsRegistry` — exact,
  **incrementally maintained** counts (one value→multiplicity map per
  column) that the in-memory :class:`~repro.engines.datalog.storage.FactStore`
  feeds from its insert/remove/replace hooks, so taking a snapshot each
  fixpoint iteration is O(arity) instead of O(rows).

The SQLite backend answers the same ``relation_stats`` contract with one
``COUNT(*)`` / ``COUNT(DISTINCT ...)`` aggregate query, cached until its
write hooks dirty the relation.  Both backends are held to ground truth by
the hypothesis contract suite (``tests/engines/test_statistics_contract.py``).

Drift detection (:func:`drift_ratio`) is what turns these snapshots into
adaptive planning: the engine compares the cardinalities a plan was costed
on (``RulePlan.stats_basis``) against the current snapshot and re-plans the
rule when any relation moved by the planner's ``REPLAN_THRESHOLD`` (10×).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Mapping, Sequence, Tuple

Row = Tuple


def drift_ratio(current: int, basis: int) -> float:
    """How far ``current`` cardinality drifted from the ``basis`` it was
    planned at, as a factor >= 1.

    Laplace-smoothed so growth from empty still registers: a relation that
    went 0 -> 9 rows reads as 10×.
    """
    high, low = (current, basis) if current >= basis else (basis, current)
    return (high + 1.0) / (low + 1.0)


@dataclass(frozen=True)
class RelationStats:
    """One relation's cardinality and per-column distinct counts.

    ``distinct[i]`` is the number of distinct values in column ``i``; for
    rows of mixed arity (the in-memory store does not forbid them) the tuple
    is as wide as the widest row and shorter rows simply do not contribute
    to the trailing columns.
    """

    cardinality: int
    distinct: Tuple[int, ...] = ()

    def distinct_at(self, position: int) -> int:
        """Distinct values in ``position`` (never below 1 for a non-empty
        relation, so it is safe as a divisor)."""
        if 0 <= position < len(self.distinct):
            return max(1, self.distinct[position])
        # Unknown column: assume nothing repeats (the conservative choice —
        # it estimates the *lowest* selectivity gain from binding it).
        return max(1, self.cardinality)

    def key_cardinality(self, positions: Sequence[int]) -> int:
        """Estimated number of distinct keys over ``positions``.

        Attribute independence: the product of per-column distinct counts,
        capped at the relation cardinality (there cannot be more keys than
        rows).
        """
        if self.cardinality == 0:
            return 1
        product = 1
        for position in positions:
            product *= self.distinct_at(position)
            if product >= self.cardinality:
                return self.cardinality
        return max(1, product)

    def fanout(self, positions: Sequence[int]) -> float:
        """Estimated rows returned per probe with ``positions`` bound.

        With nothing bound this is the full cardinality (the probe is a
        scan); with bound columns it is ``cardinality / distinct(bound)``
        under independence — the planner's per-join-step cost.
        """
        if not positions:
            return float(self.cardinality)
        return self.cardinality / self.key_cardinality(positions)


#: the shape planners consume: relation name -> stats snapshot
StatsSnapshot = Mapping[str, RelationStats]

EMPTY_STATS = RelationStats(0, ())


def compute_stats(rows: Iterable[Row]) -> RelationStats:
    """Compute exact :class:`RelationStats` from scratch (the generic
    ``StoreBackend.relation_stats`` fallback)."""
    accumulator = StatsAccumulator()
    for row in rows:
        accumulator.add(row)
    return accumulator.stats()


class StatsAccumulator:
    """Exact cardinality and per-column distinct counts, maintained in O(arity)
    per insert/remove via one value→multiplicity map per column."""

    __slots__ = ("row_count", "_column_counts")

    def __init__(self) -> None:
        self.row_count = 0
        self._column_counts: List[Dict[object, int]] = []

    def add(self, row: Row) -> None:
        """Record one (known-new) row."""
        self.row_count += 1
        columns = self._column_counts
        while len(columns) < len(row):
            columns.append({})
        for position, value in enumerate(row):
            counts = columns[position]
            counts[value] = counts.get(value, 0) + 1

    def remove(self, row: Row) -> None:
        """Record the removal of one (known-present) row."""
        self.row_count -= 1
        columns = self._column_counts
        for position, value in enumerate(row):
            if position >= len(columns):
                break
            counts = columns[position]
            remaining = counts.get(value, 0) - 1
            if remaining <= 0:
                counts.pop(value, None)
            else:
                counts[value] = remaining

    def clear(self) -> None:
        """Forget everything (wholesale relation replacement)."""
        self.row_count = 0
        self._column_counts = []

    def stats(self) -> RelationStats:
        """Snapshot the current counts as an immutable :class:`RelationStats`."""
        return RelationStats(
            cardinality=self.row_count,
            distinct=tuple(len(counts) for counts in self._column_counts),
        )


class StatsRegistry:
    """Per-relation :class:`StatsAccumulator` map — the in-memory store's
    statistics sidecar, driven by its write hooks."""

    __slots__ = ("_accumulators",)

    def __init__(self) -> None:
        self._accumulators: Dict[str, StatsAccumulator] = {}

    def _accumulator(self, name: str) -> StatsAccumulator:
        accumulator = self._accumulators.get(name)
        if accumulator is None:
            accumulator = StatsAccumulator()
            self._accumulators[name] = accumulator
        return accumulator

    def record_add(self, name: str, row: Row) -> None:
        self._accumulator(name).add(row)

    def record_remove(self, name: str, row: Row) -> None:
        accumulator = self._accumulators.get(name)
        if accumulator is not None:
            accumulator.remove(row)

    def record_clear(self, name: str) -> None:
        accumulator = self._accumulators.get(name)
        if accumulator is not None:
            accumulator.clear()

    def stats(self, name: str) -> RelationStats:
        accumulator = self._accumulators.get(name)
        return accumulator.stats() if accumulator is not None else EMPTY_STATS
