"""SQIR-to-DLIR translation (the reverse of :mod:`repro.sqir.from_dlir`).

This is what makes SQL a Raqlet *frontend*: recursive SQL parsed into SQIR is
turned into DLIR rules, after which all analyses, optimizations and backends
(including regenerating SQL) apply.

Each CTE member becomes one rule:

* every FROM table contributes a positive atom whose arguments are fresh
  variables, one per column of the table (base tables use the supplied
  DL-Schema; earlier CTEs use their declared column lists),
* WHERE conjuncts become comparisons over those variables,
* ``NOT EXISTS`` subqueries over a single table become negated atoms,
* aggregate select items become rule aggregations,
* the final SELECT becomes a ``Result`` rule (unless it is a trivial
  pass-through of a single CTE, which is then simply marked as the output).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.common.errors import TranslationError, UnsupportedFeatureError
from repro.common.names import NameGenerator
from repro.dlir.core import (
    Aggregation,
    ArithExpr,
    Atom,
    Comparison,
    Const,
    DLIRProgram,
    Literal,
    NegatedAtom,
    Param,
    Rule,
    Term,
    Var,
    Wildcard,
)
from repro.dlir.types import declare_idbs
from repro.schema.dl_schema import DLColumn, DLRelation, DLSchema, DLType
from repro.sqir.nodes import (
    CTE,
    ColumnRef,
    NotExists,
    SelectQuery,
    SQLBinary,
    SQLExpr,
    SQLFunction,
    SQLLiteral,
    SQLParam,
    SQIRQuery,
)

_AGG_BY_SQL = {
    "COUNT": "count",
    "SUM": "sum",
    "MIN": "min",
    "MAX": "max",
    "AVG": "avg",
    "GROUP_CONCAT": "collect",
}


class _MemberTranslator:
    """Translate one SELECT member into one DLIR rule."""

    def __init__(
        self,
        translator: "SQIRToDLIR",
        select: SelectQuery,
        head_relation: str,
        head_columns: List[str],
    ) -> None:
        self._translator = translator
        self._select = select
        self._head_relation = head_relation
        self._head_columns = head_columns
        self._names = NameGenerator()
        self._column_vars: Dict[Tuple[str, str], Var] = {}
        self._body: List[Literal] = []

    # -- binding -----------------------------------------------------------

    def _table_columns(self, table_name: str) -> List[str]:
        return self._translator.table_columns(table_name)

    def _bind_tables(self) -> None:
        for table in self._select.from_tables:
            columns = self._table_columns(table.name)
            terms: List[Term] = []
            for column in columns:
                variable = Var(self._names.fresh(f"{table.alias}_{column}_"))
                self._column_vars[(table.alias, column)] = variable
                terms.append(variable)
            self._body.append(Atom(table.name, tuple(terms)))

    def _resolve_column(self, reference: ColumnRef) -> Var:
        if reference.table:
            key = (reference.table, reference.column)
            if key not in self._column_vars:
                raise TranslationError(
                    f"unknown column reference {reference.table}.{reference.column}"
                )
            return self._column_vars[key]
        candidates = [
            variable
            for (alias, column), variable in self._column_vars.items()
            if column == reference.column
        ]
        if len(candidates) != 1:
            raise TranslationError(
                f"ambiguous or unknown bare column {reference.column!r}"
            )
        return candidates[0]

    # -- expressions ---------------------------------------------------------

    def _translate_expression(self, expression: SQLExpr) -> Term:
        if isinstance(expression, SQLLiteral):
            if expression.value is None:
                raise UnsupportedFeatureError("NULL literals", backend="DLIR")
            return Const(expression.value)
        if isinstance(expression, SQLParam):
            return Param(expression.name)
        if isinstance(expression, ColumnRef):
            return self._resolve_column(expression)
        if isinstance(expression, SQLBinary) and expression.op in ("+", "-", "*", "/", "%"):
            return ArithExpr(
                expression.op,
                self._translate_expression(expression.left),
                self._translate_expression(expression.right),
            )
        raise UnsupportedFeatureError(f"SQL expression {expression}", backend="DLIR")

    def _translate_condition(self, condition: SQLExpr) -> None:
        if isinstance(condition, NotExists):
            self._body.append(self._translate_not_exists(condition))
            return
        if isinstance(condition, SQLBinary) and condition.op.upper() == "AND":
            self._translate_condition(condition.left)
            self._translate_condition(condition.right)
            return
        if isinstance(condition, SQLBinary) and condition.op in ("=", "<>", "<", "<=", ">", ">="):
            self._body.append(
                Comparison(
                    condition.op,
                    self._translate_expression(condition.left),
                    self._translate_expression(condition.right),
                )
            )
            return
        raise UnsupportedFeatureError(f"SQL condition {condition}", backend="DLIR")

    def _translate_not_exists(self, predicate: NotExists) -> NegatedAtom:
        subquery = predicate.subquery
        if len(subquery.from_tables) != 1:
            raise UnsupportedFeatureError(
                "NOT EXISTS over more than one table", backend="DLIR"
            )
        table = subquery.from_tables[0]
        columns = self._table_columns(table.name)
        terms: List[Term] = [Wildcard() for _ in columns]
        for condition in subquery.where:
            if not (
                isinstance(condition, SQLBinary)
                and condition.op == "="
                and isinstance(condition.left, ColumnRef)
            ):
                raise UnsupportedFeatureError(
                    "NOT EXISTS with non-equality correlation", backend="DLIR"
                )
            if condition.left.table not in ("", table.alias):
                raise UnsupportedFeatureError(
                    "NOT EXISTS correlating on outer columns on the left side",
                    backend="DLIR",
                )
            index = columns.index(condition.left.column)
            if isinstance(condition.right, SQLLiteral):
                terms[index] = Const(condition.right.value)  # type: ignore[arg-type]
            elif isinstance(condition.right, SQLParam):
                terms[index] = Param(condition.right.name)
            elif isinstance(condition.right, ColumnRef):
                terms[index] = self._resolve_column(condition.right)
            else:
                raise UnsupportedFeatureError(
                    "NOT EXISTS with computed correlation", backend="DLIR"
                )
        return NegatedAtom(Atom(table.name, tuple(terms)))

    # -- entry point -----------------------------------------------------------

    def translate(self) -> Rule:
        self._bind_tables()
        for condition in self._select.where:
            self._translate_condition(condition)
        head_terms: List[Term] = []
        aggregations: List[Aggregation] = []
        for index, item in enumerate(self._select.items):
            column_name = (
                self._head_columns[index] if index < len(self._head_columns) else item.alias
            )
            expression = item.expression
            if isinstance(expression, SQLFunction) and expression.name.upper() in _AGG_BY_SQL:
                result_var = Var(self._names.fresh(f"{column_name}_agg_"))
                argument = (
                    self._translate_expression(expression.args[0])
                    if expression.args
                    else None
                )
                aggregations.append(
                    Aggregation(
                        func=_AGG_BY_SQL[expression.name.upper()],
                        result=result_var,
                        argument=None if expression.star else argument,
                        distinct=expression.distinct,
                    )
                )
                head_terms.append(result_var)
                continue
            head_terms.append(self._translate_expression(expression))
        return Rule(
            head=Atom(self._head_relation, tuple(head_terms)),
            body=tuple(self._body),
            aggregations=tuple(aggregations),
        )


class SQIRToDLIR:
    """Translate a SQIR query into a DLIR program over a base-table schema."""

    def __init__(self, query: SQIRQuery, schema: DLSchema, result_name: str = "Result") -> None:
        self._query = query
        self._base_schema = schema
        self._result_name = result_name
        self._cte_columns: Dict[str, List[str]] = {}

    def table_columns(self, table_name: str) -> List[str]:
        """Return the column names of a base table or an earlier CTE."""
        if table_name in self._cte_columns:
            return self._cte_columns[table_name]
        declaration = self._base_schema.maybe_get(table_name)
        if declaration is None:
            raise TranslationError(f"unknown table {table_name!r}")
        return declaration.column_names()

    def translate(self) -> DLIRProgram:
        """Run the translation and return a validated DLIR program."""
        program = DLIRProgram(schema=self._base_schema.copy())
        for cte in self._query.ctes:
            self._cte_columns[cte.name] = list(cte.columns)
            for member in cte.all_members():
                rule = _MemberTranslator(self, member, cte.name, list(cte.columns)).translate()
                program.add_rule(rule)
        output = self._translate_final(program)
        program.add_output(output)
        declare_idbs(program)
        problems = program.validate()
        if problems:
            raise TranslationError("invalid DLIR program from SQL: " + "; ".join(problems))
        return program

    def _translate_final(self, program: DLIRProgram) -> str:
        final = self._query.final
        if self._is_passthrough(final):
            return final.from_tables[0].name
        columns = [item.alias for item in final.items]
        self._cte_columns[self._result_name] = columns
        rule = _MemberTranslator(self, final, self._result_name, columns).translate()
        program.add_rule(rule)
        return self._result_name

    def _is_passthrough(self, final: SelectQuery) -> bool:
        if len(final.from_tables) != 1 or final.where or final.group_by:
            return False
        table = final.from_tables[0]
        if table.name not in self._cte_columns:
            return False
        columns = self._cte_columns[table.name]
        if len(final.items) != len(columns):
            return False
        for item, column in zip(final.items, columns):
            expression = item.expression
            if not isinstance(expression, ColumnRef):
                return False
            if expression.column != column:
                return False
        return True


def translate_sqir_to_dlir(
    query: SQIRQuery, schema: DLSchema, result_name: str = "Result"
) -> DLIRProgram:
    """Translate ``query`` into DLIR over the base tables declared in ``schema``."""
    return SQIRToDLIR(query, schema, result_name).translate()
