"""PGIR clause constructs and graph patterns (paper Figure 3b).

A :class:`PGIRQuery` is a sequence of clause constructs.  The paper's running
example lowers to::

    MATCH  { edge pattern IS_LOCATED_IN(x1): (n:Person) -> (p:City) }
    WHERE  { n.id = 42 }
    RETURN { n.firstName AS firstName, p.id AS cityId }  (DISTINCT)
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from repro.pgir.expr import PGExpression


class PGDirection(enum.Enum):
    """Direction of an edge pattern."""

    DIRECTED = "directed"
    REVERSED = "reversed"
    UNDIRECTED = "undirected"


@dataclass(frozen=True)
class PGNodePattern:
    """A normalised node pattern: a compiler identifier plus an optional label."""

    identifier: str
    label: Optional[str] = None

    def __str__(self) -> str:
        if self.label:
            return f"({self.identifier}:{self.label})"
        return f"({self.identifier})"


@dataclass(frozen=True)
class PGEdgePattern:
    """A normalised edge pattern between two node patterns.

    ``identifier`` is the (possibly compiler-generated) edge identifier,
    ``label`` the edge label, and ``direction`` records how the pattern was
    written.  Variable-length patterns carry hop bounds; ``max_hops is None``
    with ``var_length`` means unbounded.  ``shortest`` marks patterns wrapped
    in ``shortestPath``.
    """

    identifier: str
    label: Optional[str]
    source: PGNodePattern
    target: PGNodePattern
    direction: PGDirection = PGDirection.DIRECTED
    var_length: bool = False
    min_hops: Optional[int] = None
    max_hops: Optional[int] = None
    shortest: bool = False
    path_variable: Optional[str] = None

    def __str__(self) -> str:
        label = f":{self.label}" if self.label else ""
        star = ""
        if self.var_length:
            low = "" if self.min_hops is None else str(self.min_hops)
            high = "" if self.max_hops is None else str(self.max_hops)
            star = f"*{low}..{high}" if (low or high) else "*"
        arrow = {
            PGDirection.DIRECTED: "->",
            PGDirection.REVERSED: "<-",
            PGDirection.UNDIRECTED: "--",
        }[self.direction]
        body = f"{self.source}-[{self.identifier}{label}{star}]{arrow}{self.target}"
        if self.shortest:
            return f"shortestPath({body})"
        return body


class PGClause:
    """Base class of PGIR clause constructs (marker class)."""


@dataclass(frozen=True)
class PGMatch(PGClause):
    """A MATCH construct holding node and edge patterns.

    ``node_patterns`` lists patterns for nodes that do not participate in any
    edge pattern of this clause (isolated nodes); nodes that appear as an edge
    endpoint are reachable through ``edge_patterns``.
    """

    edge_patterns: Tuple[PGEdgePattern, ...] = ()
    node_patterns: Tuple[PGNodePattern, ...] = ()
    optional: bool = False

    def __str__(self) -> str:
        keyword = "OPTIONAL MATCH" if self.optional else "MATCH"
        parts = [str(edge) for edge in self.edge_patterns]
        parts.extend(str(node) for node in self.node_patterns)
        return f"{keyword} {{ " + ", ".join(parts) + " }"


@dataclass(frozen=True)
class PGWhere(PGClause):
    """A WHERE construct holding a single boolean condition."""

    condition: PGExpression

    def __str__(self) -> str:
        return f"WHERE {{ {self.condition} }}"


@dataclass(frozen=True)
class PGProjectionItem:
    """A projection item ``expression AS alias`` used by WITH and RETURN."""

    expression: PGExpression
    alias: str

    def __str__(self) -> str:
        return f"{self.expression} AS {self.alias}"


@dataclass(frozen=True)
class PGWith(PGClause):
    """A WITH construct: projection (possibly aggregating) between stages."""

    items: Tuple[PGProjectionItem, ...]
    distinct: bool = False

    def __str__(self) -> str:
        distinct = "DISTINCT " if self.distinct else ""
        return f"WITH {distinct}{{ " + ", ".join(str(i) for i in self.items) + " }"


@dataclass(frozen=True)
class PGUnwind(PGClause):
    """An UNWIND construct: expand a list expression into rows."""

    expression: PGExpression
    alias: str

    def __str__(self) -> str:
        return f"UNWIND {{ {self.expression} AS {self.alias} }}"


@dataclass(frozen=True)
class PGReturn(PGClause):
    """A RETURN construct: the final projection of the query."""

    items: Tuple[PGProjectionItem, ...]
    distinct: bool = False

    def __str__(self) -> str:
        distinct = "DISTINCT " if self.distinct else ""
        return f"RETURN {distinct}{{ " + ", ".join(str(i) for i in self.items) + " }"


@dataclass
class PGIRQuery:
    """A PGIR query: an ordered sequence of clause constructs plus warnings.

    ``warnings`` records normalisation decisions the user should know about,
    for example dropped ``ORDER BY`` / ``LIMIT`` clauses (the paper drops them
    to achieve set-semantics equivalence across backends).
    """

    clauses: List[PGClause] = field(default_factory=list)
    warnings: List[str] = field(default_factory=list)

    def return_clause(self) -> PGReturn:
        """Return the final RETURN construct."""
        for clause in reversed(self.clauses):
            if isinstance(clause, PGReturn):
                return clause
        raise ValueError("PGIR query has no RETURN construct")

    def match_clauses(self) -> List[PGMatch]:
        """Return every MATCH construct in order."""
        return [clause for clause in self.clauses if isinstance(clause, PGMatch)]

    def __str__(self) -> str:
        return "\n".join(str(clause) for clause in self.clauses)
