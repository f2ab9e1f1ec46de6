"""SQIR executor: hash joins, filters, aggregation and recursive-CTE fixpoints.

The executor evaluates a :class:`~repro.sqir.nodes.SQIRQuery` against a
:class:`~repro.engines.relational.table.Database`:

* each SELECT member is planned as a left-deep join: tables are joined one at
  a time, preferring tables connected to the already-joined prefix by
  equi-join predicates (executed as hash joins), falling back to a cross
  product otherwise,
* remaining WHERE conjuncts are applied as filters over the joined rows,
* ``NOT EXISTS`` subqueries are evaluated with memoisation on the correlated
  values,
* ``GROUP BY`` computes SQL aggregates (COUNT/SUM/MIN/MAX/AVG/GROUP_CONCAT),
* recursive CTEs run a delta-based fixpoint with set semantics (UNION).
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.common.errors import ExecutionError
from repro.common.semantics import COMPARISONS, aggregate, arith, compare
from repro.engines.relational.table import Database, Table
from repro.engines.result import QueryResult
from repro.sqir.nodes import (
    CTE,
    ColumnRef,
    NotExists,
    SelectItem,
    SelectQuery,
    SQLBinary,
    SQLExpr,
    SQLFunction,
    SQLLiteral,
    SQLParam,
    SQIRQuery,
    TableRef,
)

Row = Tuple
Env = Dict[Tuple[str, str], object]

_AGGREGATES = {"COUNT", "SUM", "MIN", "MAX", "AVG", "GROUP_CONCAT"}


def _is_aggregate(expression: SQLExpr) -> bool:
    return isinstance(expression, SQLFunction) and expression.name.upper() in _AGGREGATES


class _SelectEvaluator:
    """Evaluate one SELECT member against resolved input tables."""

    def __init__(self, executor: "RelationalEngine", select: SelectQuery) -> None:
        self._executor = executor
        self._select = select

    # -- expression evaluation -------------------------------------------

    def _eval(self, expression: SQLExpr, env: Env):
        if isinstance(expression, SQLLiteral):
            return expression.value
        if isinstance(expression, SQLParam):
            raise ExecutionError(
                f"unbound query parameter {expression} — bind parameters "
                "(repro.dlir.bind_parameters) before relational execution"
            )
        if isinstance(expression, ColumnRef):
            key = (expression.table, expression.column)
            if key not in env:
                raise ExecutionError(f"unknown column reference {expression}")
            return env[key]
        if isinstance(expression, SQLBinary):
            return self._eval_binary(expression, env)
        if isinstance(expression, NotExists):
            return self._eval_not_exists(expression, env)
        if isinstance(expression, SQLFunction):
            raise ExecutionError(
                f"aggregate {expression.name} used outside of a GROUP BY context"
            )
        raise ExecutionError(f"cannot evaluate SQL expression {expression!r}")

    def _eval_binary(self, expression: SQLBinary, env: Env):
        op = expression.op.upper()
        if op == "AND":
            return bool(self._eval(expression.left, env)) and bool(
                self._eval(expression.right, env)
            )
        if op == "OR":
            return bool(self._eval(expression.left, env)) or bool(
                self._eval(expression.right, env)
            )
        left = self._eval(expression.left, env)
        right = self._eval(expression.right, env)
        if op in COMPARISONS:
            return compare(op, left, right)
        return arith(op, left, right)

    def _eval_not_exists(self, expression: NotExists, env: Env) -> bool:
        rows = self._executor.evaluate_select(expression.subquery, outer_env=env)
        return len(rows) == 0

    # -- join planning ------------------------------------------------------

    def _split_conditions(
        self,
    ) -> Tuple[List[Tuple[ColumnRef, ColumnRef]], List[SQLExpr]]:
        local_aliases = {table.alias for table in self._select.from_tables}
        equi: List[Tuple[ColumnRef, ColumnRef]] = []
        other: List[SQLExpr] = []
        for condition in self._select.where:
            if (
                isinstance(condition, SQLBinary)
                and condition.op == "="
                and isinstance(condition.left, ColumnRef)
                and isinstance(condition.right, ColumnRef)
                and condition.left.table != condition.right.table
                # Conditions correlating with an *outer* query (NOT EXISTS
                # subqueries) are not join keys here; they are applied as
                # residual filters once the outer bindings are merged in.
                and condition.left.table in local_aliases
                and condition.right.table in local_aliases
            ):
                equi.append((condition.left, condition.right))
            else:
                other.append(condition)
        return equi, other

    def _single_table_conditions(
        self, conditions: List[SQLExpr]
    ) -> Tuple[Dict[str, List[SQLExpr]], List[SQLExpr]]:
        """Split filters that reference only one table alias (pushed to scans)."""
        local_aliases = {table.alias for table in self._select.from_tables}
        per_table: Dict[str, List[SQLExpr]] = defaultdict(list)
        residual: List[SQLExpr] = []
        for condition in conditions:
            aliases = set(self._referenced_aliases(condition))
            if (
                len(aliases) == 1
                and next(iter(aliases)) in local_aliases
                and not self._contains_not_exists(condition)
            ):
                per_table[next(iter(aliases))].append(condition)
            else:
                residual.append(condition)
        return per_table, residual

    def _referenced_aliases(self, expression: SQLExpr) -> Iterable[str]:
        if isinstance(expression, ColumnRef):
            yield expression.table
        elif isinstance(expression, SQLBinary):
            yield from self._referenced_aliases(expression.left)
            yield from self._referenced_aliases(expression.right)
        elif isinstance(expression, NotExists):
            # Correlated references belong to the outer query's aliases.
            for member_where in expression.subquery.where:
                yield from self._referenced_aliases(member_where)

    @staticmethod
    def _contains_not_exists(expression: SQLExpr) -> bool:
        if isinstance(expression, NotExists):
            return True
        if isinstance(expression, SQLBinary):
            return _SelectEvaluator._contains_not_exists(
                expression.left
            ) or _SelectEvaluator._contains_not_exists(expression.right)
        return False

    def _scan(self, table_ref: TableRef, filters: List[SQLExpr]) -> List[Env]:
        table = self._executor.resolve_table(table_ref.name)
        rows: List[Env] = []
        for row in table.rows:
            env: Env = {
                (table_ref.alias, column): value
                for column, value in zip(table.columns, row)
            }
            if all(self._eval(condition, env) for condition in filters):
                rows.append(env)
        return rows

    def _hash_join(
        self,
        left_rows: List[Env],
        right_rows: List[Env],
        join_keys: List[Tuple[ColumnRef, ColumnRef]],
    ) -> List[Env]:
        if not join_keys:
            return [{**left, **right} for left in left_rows for right in right_rows]
        left_exprs = [pair[0] for pair in join_keys]
        right_exprs = [pair[1] for pair in join_keys]
        index: Dict[Tuple, List[Env]] = defaultdict(list)
        for row in right_rows:
            key = tuple(row[(ref.table, ref.column)] for ref in right_exprs)
            index[key].append(row)
        joined: List[Env] = []
        for row in left_rows:
            key = tuple(row[(ref.table, ref.column)] for ref in left_exprs)
            for match in index.get(key, ()):
                joined.append({**row, **match})
        return joined

    def _plan_joins(self, per_table_filters: Dict[str, List[SQLExpr]], equi) -> List[Env]:
        tables = list(self._select.from_tables)
        if not tables:
            return [{}]
        remaining = tables[1:]
        current = self._scan(tables[0], per_table_filters.get(tables[0].alias, []))
        joined_aliases = {tables[0].alias}
        pending_equi = list(equi)
        while remaining:
            chosen_index = None
            for index, candidate in enumerate(remaining):
                keys = self._keys_for(candidate.alias, joined_aliases, pending_equi)
                if keys:
                    chosen_index = index
                    break
            if chosen_index is None:
                chosen_index = 0
            candidate = remaining.pop(chosen_index)
            keys = self._keys_for(candidate.alias, joined_aliases, pending_equi)
            candidate_rows = self._scan(
                candidate, per_table_filters.get(candidate.alias, [])
            )
            normalized_keys: List[Tuple[ColumnRef, ColumnRef]] = []
            for left_ref, right_ref in keys:
                if left_ref.table == candidate.alias:
                    normalized_keys.append((right_ref, left_ref))
                else:
                    normalized_keys.append((left_ref, right_ref))
                pending_equi = [
                    pair for pair in pending_equi if pair != (left_ref, right_ref)
                ]
            current = self._hash_join(current, candidate_rows, normalized_keys)
            joined_aliases.add(candidate.alias)
        # Any leftover equi-join conditions (e.g. both sides already joined)
        # are applied as plain filters.
        for left_ref, right_ref in pending_equi:
            if left_ref.table in joined_aliases and right_ref.table in joined_aliases:
                current = [
                    env
                    for env in current
                    if env[(left_ref.table, left_ref.column)]
                    == env[(right_ref.table, right_ref.column)]
                ]
        return current

    @staticmethod
    def _keys_for(alias: str, joined: Set[str], equi) -> List[Tuple[ColumnRef, ColumnRef]]:
        keys = []
        for left_ref, right_ref in equi:
            if left_ref.table == alias and right_ref.table in joined:
                keys.append((left_ref, right_ref))
            elif right_ref.table == alias and left_ref.table in joined:
                keys.append((left_ref, right_ref))
        return keys

    # -- aggregation and projection ---------------------------------------

    def _project(self, envs: List[Env]) -> List[Row]:
        select = self._select
        has_aggregate = any(_is_aggregate(item.expression) for item in select.items)
        if has_aggregate or select.group_by:
            return self._project_grouped(envs)
        rows = [
            tuple(self._eval(item.expression, env) for item in select.items)
            for env in envs
        ]
        if select.distinct:
            return list(dict.fromkeys(rows))
        return rows

    def _project_grouped(self, envs: List[Env]) -> List[Row]:
        select = self._select
        groups: Dict[Tuple, List[Env]] = defaultdict(list)
        for env in envs:
            key = tuple(self._eval(expr, env) for expr in select.group_by)
            groups[key].append(env)
        if not select.group_by and not groups:
            groups[()] = []
        rows: List[Row] = []
        for key, group_envs in groups.items():
            row = []
            for item in select.items:
                if _is_aggregate(item.expression):
                    row.append(self._eval_aggregate(item.expression, group_envs))
                else:
                    row.append(self._eval(item.expression, group_envs[0]) if group_envs else None)
            rows.append(tuple(row))
        return list(dict.fromkeys(rows)) if select.distinct else rows

    def _eval_aggregate(self, expression: SQLFunction, envs: List[Env]):
        if expression.star:
            return len(envs)
        values = [self._eval(expression.args[0], env) for env in envs]
        if expression.distinct:
            values = list(dict.fromkeys(values))
        return aggregate(expression.name, values)

    # -- entry point ----------------------------------------------------------

    def run(self, outer_env: Optional[Env] = None) -> List[Row]:
        equi, other = self._split_conditions()
        per_table, residual = self._single_table_conditions(other)
        envs = self._plan_joins(per_table, equi)
        if outer_env:
            envs = [{**outer_env, **env} for env in envs]
        if residual:
            envs = [
                env
                for env in envs
                if all(self._eval(condition, env) for condition in residual)
            ]
        return self._project(envs)


class RelationalEngine:
    """Execute SQIR queries against an in-memory database."""

    def __init__(self, database: Database) -> None:
        self._database = database
        self._cte_results: Dict[str, Table] = {}

    # -- table resolution ---------------------------------------------------

    def resolve_table(self, name: str) -> Table:
        """Return a CTE result if one exists, otherwise a base table."""
        if name in self._cte_results:
            return self._cte_results[name]
        return self._database.table(name)

    # -- evaluation ---------------------------------------------------------

    def evaluate_select(
        self, select: SelectQuery, outer_env: Optional[Env] = None
    ) -> List[Row]:
        """Evaluate a single SELECT member and return its rows."""
        return _SelectEvaluator(self, select).run(outer_env)

    def _evaluate_cte(self, cte: CTE) -> Table:
        rows: List[Row] = []
        seen: Set[Row] = set()
        for member in cte.base_members:
            for row in self.evaluate_select(member):
                if row not in seen:
                    seen.add(row)
                    rows.append(row)
        if cte.is_recursive:
            # Delta-based fixpoint: the recursive members see only the delta
            # of the previous iteration (standard SQL recursive CTE
            # semantics with UNION / set semantics).
            delta = list(rows)
            iteration = 0
            while delta:
                iteration += 1
                if iteration > 1_000_000:  # pragma: no cover - safety net
                    raise ExecutionError("recursive CTE did not converge")
                self._cte_results[cte.name] = Table(columns=list(cte.columns), rows=delta)
                new_rows: List[Row] = []
                for member in cte.recursive_members:
                    for row in self.evaluate_select(member):
                        if row not in seen:
                            seen.add(row)
                            new_rows.append(row)
                rows.extend(new_rows)
                delta = new_rows
        table = Table(columns=list(cte.columns), rows=rows)
        self._cte_results[cte.name] = table
        return table

    def execute(self, query: SQIRQuery) -> QueryResult:
        """Execute ``query`` and return the final SELECT's rows."""
        self._cte_results = {}
        for cte in query.ctes:
            self._evaluate_cte(cte)
        rows = self.evaluate_select(query.final)
        columns = [item.alias for item in query.final.items]
        return QueryResult.from_rows(columns, rows)


def execute_sqir(query: SQIRQuery, database: Database) -> QueryResult:
    """Convenience wrapper: execute ``query`` against ``database``."""
    return RelationalEngine(database).execute(query)
