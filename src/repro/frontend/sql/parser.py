"""Recursive-descent parser for the recursive-SQL subset accepted by Raqlet.

Grammar (keywords case-insensitive)::

    query      := [with_clause] select_stmt [';']
    with_clause:= WITH [RECURSIVE] cte (',' cte)*
    cte        := name ['(' column (',' column)* ')'] AS '(' select_union ')'
    select_union := select_stmt (UNION [ALL] select_stmt)*
    select_stmt  := SELECT [DISTINCT] item (',' item)*
                    [FROM table_ref (',' table_ref)*]
                    [WHERE condition (AND condition)*]
                    [GROUP BY expr (',' expr)*]
    item       := expr [AS alias] | '*'
    table_ref  := name [AS] [alias]
    condition  := expr cmp expr | NOT EXISTS '(' select_stmt ')'
    expr       := additive with '.'-qualified column refs, literals,
                  ':name' parameters, COUNT/SUM/MIN/MAX/AVG(...) aggregates
                  and arithmetic

The parser produces a :class:`~repro.sqir.nodes.SQIRQuery`; recursive CTEs are
recognised by self-reference (a member selecting from the CTE being defined)
exactly as in the DLIR-to-SQIR direction.  ``UNION ALL`` is accepted but
treated as ``UNION`` (set semantics), matching DLIR's semantics.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.common.errors import ParseError
from repro.common.location import SourceLocation
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

_KEYWORDS = {
    "WITH", "RECURSIVE", "AS", "SELECT", "DISTINCT", "FROM", "WHERE", "GROUP",
    "BY", "UNION", "ALL", "AND", "OR", "NOT", "EXISTS", "TRUE", "FALSE", "NULL",
}

_AGGREGATES = {"COUNT", "SUM", "MIN", "MAX", "AVG", "GROUP_CONCAT"}

_TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+)
  | (?P<comment>--[^\n]*)
  | (?P<float>\d+\.\d+)
  | (?P<integer>\d+)
  | (?P<string>'(?:[^']|'')*')
  | (?P<identifier>"[^"]+"|[A-Za-z_][A-Za-z_0-9]*)
  | (?P<param>:[A-Za-z_][A-Za-z_0-9]*)
  | (?P<op><=|>=|<>|!=|=|<|>)
  | (?P<punct>[(),.;*+\-/%])
    """,
    re.VERBOSE,
)


@dataclass(frozen=True)
class _Token:
    kind: str
    text: str
    location: SourceLocation

    def is_keyword(self, *keywords: str) -> bool:
        return self.kind == "keyword" and self.text.upper() in {k.upper() for k in keywords}

    def is_punct(self, *symbols: str) -> bool:
        return self.kind in ("punct", "op") and self.text in symbols


def _tokenize(text: str) -> List[_Token]:
    tokens: List[_Token] = []
    location = SourceLocation(1, 1)
    position = 0
    while position < len(text):
        match = _TOKEN_RE.match(text, position)
        if match is None:
            raise ParseError(f"unexpected character {text[position]!r}", location, "sql")
        kind = match.lastgroup or ""
        value = match.group()
        if kind not in ("ws", "comment"):
            if kind == "identifier" and not value.startswith('"') and value.upper() in _KEYWORDS:
                tokens.append(_Token("keyword", value, location))
            else:
                tokens.append(_Token(kind, value, location))
        location = location.advanced(value)
        position = match.end()
    tokens.append(_Token("eof", "", location))
    return tokens


class SQLParser:
    """Parse recursive SQL text into a :class:`SQIRQuery`."""

    def __init__(self, tokens: List[_Token]) -> None:
        self._tokens = tokens
        self._index = 0

    # -- token helpers -----------------------------------------------------

    def _peek(self, offset: int = 0) -> _Token:
        return self._tokens[min(self._index + offset, len(self._tokens) - 1)]

    def _advance(self) -> _Token:
        token = self._tokens[self._index]
        if token.kind != "eof":
            self._index += 1
        return token

    def _error(self, message: str) -> ParseError:
        token = self._peek()
        return ParseError(message, token.location, "sql")

    def _expect_keyword(self, keyword: str) -> _Token:
        token = self._peek()
        if not token.is_keyword(keyword):
            raise self._error(f"expected {keyword!r} but found {token.text!r}")
        return self._advance()

    def _accept_keyword(self, keyword: str) -> bool:
        if self._peek().is_keyword(keyword):
            self._advance()
            return True
        return False

    def _expect_punct(self, symbol: str) -> _Token:
        token = self._peek()
        if not token.is_punct(symbol):
            raise self._error(f"expected {symbol!r} but found {token.text!r}")
        return self._advance()

    def _accept_punct(self, symbol: str) -> bool:
        if self._peek().is_punct(symbol):
            self._advance()
            return True
        return False

    def _expect_identifier(self) -> str:
        token = self._peek()
        if token.kind != "identifier":
            raise self._error(f"expected identifier but found {token.text!r}")
        self._advance()
        return token.text.strip('"')

    # -- query ---------------------------------------------------------------

    def parse_query(self) -> SQIRQuery:
        ctes: List[CTE] = []
        if self._accept_keyword("WITH"):
            self._accept_keyword("RECURSIVE")
            ctes.append(self._parse_cte())
            while self._accept_punct(","):
                ctes.append(self._parse_cte())
        final = self._parse_select()
        self._accept_punct(";")
        if self._peek().kind != "eof":
            raise self._error(f"unexpected trailing input {self._peek().text!r}")
        resolved = [self._classify_cte(cte) for cte in ctes]
        return SQIRQuery(ctes=resolved, final=final)

    def _parse_cte(self) -> CTE:
        name = self._expect_identifier()
        columns: List[str] = []
        if self._accept_punct("("):
            columns.append(self._expect_identifier())
            while self._accept_punct(","):
                columns.append(self._expect_identifier())
            self._expect_punct(")")
        self._expect_keyword("AS")
        self._expect_punct("(")
        members = [self._parse_select()]
        while self._accept_keyword("UNION"):
            self._accept_keyword("ALL")
            members.append(self._parse_select())
        self._expect_punct(")")
        if not columns:
            columns = [item.alias for item in members[0].items]
        return CTE(name=name, columns=columns, base_members=members, recursive_members=[])

    @staticmethod
    def _references(select: SelectQuery, name: str) -> bool:
        return any(table.name == name for table in select.from_tables)

    def _classify_cte(self, cte: CTE) -> CTE:
        """Split the parsed members into base and recursive members."""
        base = [m for m in cte.base_members if not self._references(m, cte.name)]
        recursive = [m for m in cte.base_members if self._references(m, cte.name)]
        return CTE(
            name=cte.name,
            columns=cte.columns,
            base_members=base,
            recursive_members=recursive,
        )

    # -- SELECT ---------------------------------------------------------------

    def _parse_select(self) -> SelectQuery:
        self._expect_keyword("SELECT")
        distinct = self._accept_keyword("DISTINCT")
        items = [self._parse_item()]
        while self._accept_punct(","):
            items.append(self._parse_item())
        from_tables: List[TableRef] = []
        if self._accept_keyword("FROM"):
            from_tables.append(self._parse_table_ref())
            while self._accept_punct(","):
                from_tables.append(self._parse_table_ref())
        where: List[SQLExpr] = []
        if self._accept_keyword("WHERE"):
            where.append(self._parse_condition())
            while self._accept_keyword("AND"):
                where.append(self._parse_condition())
        group_by: List[SQLExpr] = []
        if self._accept_keyword("GROUP"):
            self._expect_keyword("BY")
            group_by.append(self._parse_expression())
            while self._accept_punct(","):
                group_by.append(self._parse_expression())
        return SelectQuery(
            items=items,
            from_tables=from_tables,
            where=where,
            group_by=group_by,
            distinct=distinct,
        )

    def _parse_item(self) -> SelectItem:
        if self._peek().is_punct("*"):
            raise self._error("SELECT * is not supported; list the columns explicitly")
        expression = self._parse_expression()
        alias: Optional[str] = None
        if self._accept_keyword("AS"):
            alias = self._expect_identifier()
        elif self._peek().kind == "identifier":
            alias = self._expect_identifier()
        if alias is None:
            if isinstance(expression, ColumnRef):
                alias = expression.column
            else:
                alias = f"col{self._index}"
        return SelectItem(expression=expression, alias=alias)

    def _parse_table_ref(self) -> TableRef:
        name = self._expect_identifier()
        alias = name
        if self._accept_keyword("AS"):
            alias = self._expect_identifier()
        elif self._peek().kind == "identifier":
            alias = self._expect_identifier()
        return TableRef(name=name, alias=alias)

    # -- conditions and expressions --------------------------------------------

    def _parse_condition(self) -> SQLExpr:
        if self._peek().is_keyword("NOT") and self._peek(1).is_keyword("EXISTS"):
            self._advance()
            self._advance()
            self._expect_punct("(")
            subquery = self._parse_select()
            self._expect_punct(")")
            return NotExists(subquery)
        if self._accept_punct("("):
            condition = self._parse_condition()
            while self._accept_keyword("AND"):
                condition = SQLBinary("AND", condition, self._parse_condition())
            self._expect_punct(")")
            return condition
        left = self._parse_expression()
        token = self._peek()
        if token.kind != "op":
            raise self._error(f"expected comparison operator but found {token.text!r}")
        self._advance()
        op = "<>" if token.text == "!=" else token.text
        right = self._parse_expression()
        return SQLBinary(op, left, right)

    def _parse_expression(self) -> SQLExpr:
        left = self._parse_term()
        while self._peek().is_punct("+", "-"):
            op = self._advance().text
            left = SQLBinary(op, left, self._parse_term())
        return left

    def _parse_term(self) -> SQLExpr:
        left = self._parse_factor()
        while self._peek().is_punct("*", "/", "%"):
            op = self._advance().text
            left = SQLBinary(op, left, self._parse_factor())
        return left

    def _parse_factor(self) -> SQLExpr:
        token = self._peek()
        if token.kind == "integer":
            self._advance()
            return SQLLiteral(int(token.text))
        if token.kind == "float":
            self._advance()
            return SQLLiteral(float(token.text))
        if token.kind == "string":
            self._advance()
            return SQLLiteral(token.text[1:-1].replace("''", "'"))
        if token.kind == "param":
            self._advance()
            return SQLParam(token.text[1:])
        if token.is_keyword("NULL"):
            self._advance()
            return SQLLiteral(None)
        if token.is_keyword("TRUE"):
            self._advance()
            return SQLLiteral(True)
        if token.is_keyword("FALSE"):
            self._advance()
            return SQLLiteral(False)
        if token.is_punct("("):
            self._advance()
            expression = self._parse_expression()
            self._expect_punct(")")
            return expression
        if token.kind == "identifier":
            return self._parse_reference_or_call()
        raise self._error(f"unexpected token {token.text!r} in expression")

    def _parse_reference_or_call(self) -> SQLExpr:
        name = self._expect_identifier()
        if self._peek().is_punct("(") and name.upper() in _AGGREGATES:
            self._advance()
            distinct = self._accept_keyword("DISTINCT")
            if self._accept_punct("*"):
                self._expect_punct(")")
                return SQLFunction(name.upper(), (), star=True)
            argument = self._parse_expression()
            self._expect_punct(")")
            return SQLFunction(name.upper(), (argument,), distinct=distinct)
        if self._accept_punct("."):
            column = self._expect_identifier()
            return ColumnRef(table=name, column=column)
        # A bare column name: resolved against the FROM tables during the
        # SQIR-to-DLIR translation; represented as a column of the pseudo
        # table "" here.
        return ColumnRef(table="", column=name)


def parse_sql(text: str) -> SQIRQuery:
    """Parse recursive SQL ``text`` into a :class:`SQIRQuery`."""
    return SQLParser(_tokenize(text)).parse_query()
