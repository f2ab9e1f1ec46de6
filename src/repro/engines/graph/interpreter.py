"""PGIR interpreter over a property graph (the Neo4j stand-in).

The interpreter executes a lowered PGIR query clause by clause, maintaining a
list of binding rows (identifier -> value).  Node identifiers bind to node
ids, edge identifiers bind to :class:`~repro.engines.graph.store.GraphEdge`
objects, and projected aliases bind to plain values.  Variable-length and
shortest-path patterns are evaluated with breadth-first search over the
adjacency indexes, which is the pointer-based traversal strategy the paper
attributes to graph databases.
"""

from __future__ import annotations

from collections import defaultdict, deque
from typing import Dict, Iterable, List, Optional, Set, Tuple

from repro.common import semantics
from repro.common.errors import ExecutionError, UnsupportedFeatureError
from repro.engines.graph.store import GraphEdge, PropertyGraph
from repro.engines.result import QueryResult
from repro.pgir.expr import (
    PGAggregate,
    PGBinary,
    PGConst,
    PGExpression,
    PGFunction,
    PGNot,
    PGParam,
    PGProperty,
    PGVariable,
)
from repro.pgir.lower import LoweringResult
from repro.schema.pg_schema import normalize_edge_label
from repro.pgir.nodes import (
    PGDirection,
    PGEdgePattern,
    PGIRQuery,
    PGMatch,
    PGNodePattern,
    PGProjectionItem,
    PGReturn,
    PGUnwind,
    PGWhere,
    PGWith,
)

Row = Dict[str, object]


class GraphEngine:
    """Execute PGIR queries against a :class:`PropertyGraph`."""

    def __init__(self, graph: PropertyGraph) -> None:
        self._graph = graph
        self._var_labels: Dict[str, str] = {}

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------

    def execute(self, lowering: LoweringResult) -> QueryResult:
        """Execute the lowered query and return the final RETURN's rows."""
        query: PGIRQuery = lowering.query
        self._var_labels = {
            name: label
            for name, label in lowering.node_labels.items()
            if label is not None
        }
        rows: List[Row] = [{}]
        result: Optional[QueryResult] = None
        for clause in query.clauses:
            if isinstance(clause, PGMatch):
                rows = self._execute_match(clause, rows)
            elif isinstance(clause, PGWhere):
                rows = [row for row in rows if bool(self._eval(clause.condition, row))]
            elif isinstance(clause, PGWith):
                rows = self._project(clause.items, rows, distinct=clause.distinct)
            elif isinstance(clause, PGReturn):
                projected = self._project(clause.items, rows, distinct=True)
                columns = [item.alias for item in clause.items]
                result = QueryResult.from_rows(
                    columns, [tuple(row[column] for column in columns) for row in projected]
                )
            elif isinstance(clause, PGUnwind):
                raise UnsupportedFeatureError("UNWIND", backend="graph-engine")
            else:
                raise ExecutionError(f"unknown PGIR clause {clause!r}")
        if result is None:
            raise ExecutionError("PGIR query has no RETURN construct")
        return result

    # ------------------------------------------------------------------
    # MATCH
    # ------------------------------------------------------------------

    def _node_label(self, pattern: PGNodePattern) -> str:
        label = pattern.label or self._var_labels.get(pattern.identifier)
        if label is None:
            raise UnsupportedFeatureError(
                f"unlabelled node {pattern.identifier!r} (label inference failed)"
            )
        self._var_labels[pattern.identifier] = label
        return label

    @staticmethod
    def _edge_label(edge: PGEdgePattern) -> str:
        """Return the edge label in the graph store's upper-snake normal form."""
        assert edge.label is not None
        return normalize_edge_label(edge.label)

    def _resolve_edge_labels(self, edge: PGEdgePattern) -> Tuple[str, str]:
        source_label = edge.source.label or self._var_labels.get(edge.source.identifier)
        target_label = edge.target.label or self._var_labels.get(edge.target.identifier)
        if (source_label is None or target_label is None) and edge.label is not None:
            if self._graph.has_edge_label(self._edge_label(edge)):
                inferred_source, inferred_target = self._graph.edge_endpoint_labels(self._edge_label(edge))
                source_label = source_label or inferred_source
                target_label = target_label or inferred_target
        if source_label is None or target_label is None:
            raise UnsupportedFeatureError("edge pattern with unresolvable endpoint labels")
        self._var_labels[edge.source.identifier] = source_label
        self._var_labels[edge.target.identifier] = target_label
        return source_label, target_label

    def _execute_match(self, clause: PGMatch, rows: List[Row]) -> List[Row]:
        if clause.optional:
            raise UnsupportedFeatureError("OPTIONAL MATCH", backend="graph-engine")
        current = rows
        for edge in clause.edge_patterns:
            current = self._expand_edge(edge, current)
        for node in clause.node_patterns:
            current = self._expand_node(node, current)
        return current

    def _expand_node(self, pattern: PGNodePattern, rows: List[Row]) -> List[Row]:
        label = self._node_label(pattern)
        expanded: List[Row] = []
        for row in rows:
            bound = row.get(pattern.identifier)
            if bound is not None:
                if self._graph.node(label, bound) is not None:
                    expanded.append(row)
                continue
            for node in self._graph.nodes_with_label(label):
                new_row = dict(row)
                new_row[pattern.identifier] = node.node_id
                expanded.append(new_row)
        return expanded

    def _expand_edge(self, edge: PGEdgePattern, rows: List[Row]) -> List[Row]:
        if edge.label is None:
            raise UnsupportedFeatureError("relationship pattern without a type")
        source_label, target_label = self._resolve_edge_labels(edge)
        if edge.var_length or edge.shortest:
            return self._expand_var_length(edge, rows, source_label, target_label)
        expanded: List[Row] = []
        for row in rows:
            for new_row in self._expand_single_edge(edge, row, source_label, target_label):
                expanded.append(new_row)
        return expanded

    def _candidate_edges(
        self,
        edge: PGEdgePattern,
        row: Row,
        source_label: str,
        target_label: str,
        reverse: bool,
    ) -> Iterable[GraphEdge]:
        src_label = target_label if reverse else source_label
        dst_label = source_label if reverse else target_label
        source_binding = row.get(edge.source.identifier)
        target_binding = row.get(edge.target.identifier)
        if reverse:
            source_binding, target_binding = target_binding, source_binding
        label = self._edge_label(edge)
        if source_binding is not None:
            return self._graph.out_edges(label, src_label, source_binding)
        if target_binding is not None:
            return self._graph.in_edges(label, dst_label, target_binding)
        return self._graph.all_edges(label)

    def _expand_single_edge(
        self, edge: PGEdgePattern, row: Row, source_label: str, target_label: str
    ) -> Iterable[Row]:
        directions = [False]
        if edge.direction is PGDirection.UNDIRECTED:
            directions = [False, True]
        seen: Set[Tuple] = set()
        for reverse in directions:
            for graph_edge in self._candidate_edges(edge, row, source_label, target_label, reverse):
                if reverse:
                    new_source, new_target = graph_edge.target, graph_edge.source
                else:
                    new_source, new_target = graph_edge.source, graph_edge.target
                if not self._consistent(row, edge.source.identifier, new_source):
                    continue
                if not self._consistent(row, edge.target.identifier, new_target):
                    continue
                key = (new_source, new_target, graph_edge.edge_id)
                if key in seen:
                    continue
                seen.add(key)
                new_row = dict(row)
                new_row[edge.source.identifier] = new_source
                new_row[edge.target.identifier] = new_target
                new_row[edge.identifier] = graph_edge
                yield new_row

    @staticmethod
    def _consistent(row: Row, identifier: str, value: object) -> bool:
        bound = row.get(identifier)
        return bound is None or bound == value

    # -- variable-length and shortest paths -------------------------------

    def _neighbours(
        self, edge_label: str, node_label: str, node_id: int, undirected: bool, target_label: str
    ) -> List[int]:
        neighbours = [
            graph_edge.target
            for graph_edge in self._graph.out_edges(edge_label, node_label, node_id)
        ]
        if undirected:
            neighbours.extend(
                graph_edge.source
                for graph_edge in self._graph.in_edges(edge_label, target_label, node_id)
            )
        return neighbours

    def _bfs_distances(
        self,
        edge: PGEdgePattern,
        start: int,
        source_label: str,
        target_label: str,
        max_hops: Optional[int],
    ) -> Dict[int, int]:
        """Return node -> hop distance from ``start`` (shortest, BFS)."""
        label = self._edge_label(edge)
        undirected = edge.direction is PGDirection.UNDIRECTED
        distances: Dict[int, int] = {start: 0}
        queue = deque([start])
        while queue:
            current = queue.popleft()
            depth = distances[current]
            if max_hops is not None and depth >= max_hops:
                continue
            for neighbour in self._neighbours(
                label, source_label, current, undirected, target_label
            ):
                if neighbour not in distances:
                    distances[neighbour] = depth + 1
                    queue.append(neighbour)
        return distances

    def _walk_reachable(
        self,
        edge: PGEdgePattern,
        start: int,
        source_label: str,
        target_label: str,
        min_hops: int,
        max_hops: Optional[int],
    ) -> Set[int]:
        """Return nodes reachable from ``start`` by a walk of length in range.

        Walk semantics (nodes and edges may repeat) matches the DLIR
        translation of variable-length patterns, so all engines agree.
        """
        label = self._edge_label(edge)
        undirected = edge.direction is PGDirection.UNDIRECTED
        if max_hops is not None:
            # Exact level-by-level expansion up to the bounded hop count.
            reachable: Set[int] = set()
            level: Set[int] = {start}
            if min_hops <= 0:
                reachable.add(start)
            for depth in range(1, max_hops + 1):
                level = {
                    neighbour
                    for node in level
                    for neighbour in self._neighbours(
                        label, source_label, node, undirected, target_label
                    )
                }
                if not level:
                    break
                if depth >= min_hops:
                    reachable.update(level)
            return reachable
        # Unbounded: reachability closure.  With a minimum of one hop the
        # closure is seeded from the distance-1 frontier so the start node is
        # only included when a cycle leads back to it.
        if min_hops <= 0:
            frontier: Set[int] = {start}
            reachable = {start}
        else:
            frontier = set(
                self._neighbours(label, source_label, start, undirected, target_label)
            )
            reachable = set(frontier)
        queue = deque(frontier)
        while queue:
            current = queue.popleft()
            for neighbour in self._neighbours(
                label, source_label, current, undirected, target_label
            ):
                if neighbour not in reachable:
                    reachable.add(neighbour)
                    queue.append(neighbour)
        return reachable

    def _expand_var_length(
        self, edge: PGEdgePattern, rows: List[Row], source_label: str, target_label: str
    ) -> List[Row]:
        min_hops = edge.min_hops if edge.min_hops is not None else 1
        max_hops = edge.max_hops
        expanded: List[Row] = []
        for row in rows:
            source_binding = row.get(edge.source.identifier)
            starts: Iterable[int]
            if source_binding is not None:
                starts = [source_binding]
            else:
                starts = [node.node_id for node in self._graph.nodes_with_label(source_label)]
            for start in starts:
                if edge.shortest:
                    candidates = self._bfs_distances(
                        edge, start, source_label, target_label, max_hops
                    )
                    matches: Iterable[Tuple[int, Optional[int]]] = (
                        (node_id, distance)
                        for node_id, distance in candidates.items()
                        if distance >= min_hops
                        and (max_hops is None or distance <= max_hops)
                    )
                else:
                    reachable = self._walk_reachable(
                        edge, start, source_label, target_label, min_hops, max_hops
                    )
                    matches = ((node_id, None) for node_id in reachable)
                for node_id, distance in matches:
                    if not self._consistent(row, edge.target.identifier, node_id):
                        continue
                    if self._graph.node(target_label, node_id) is None:
                        continue
                    new_row = dict(row)
                    new_row[edge.source.identifier] = start
                    new_row[edge.target.identifier] = node_id
                    if edge.shortest and distance is not None:
                        new_row[f"{edge.identifier}_len"] = distance
                        if edge.path_variable:
                            new_row[edge.path_variable] = distance
                    expanded.append(new_row)
        return expanded

    # ------------------------------------------------------------------
    # Expressions and projection
    # ------------------------------------------------------------------

    def _eval(self, expression: PGExpression, row: Row):
        if isinstance(expression, PGConst):
            return expression.value
        if isinstance(expression, PGParam):
            # The graph interpreter has no runtime parameter binding: the
            # session (or run_on_graph_engine) re-lowers with values
            # inlined, so reaching a placeholder means none was supplied.
            raise ExecutionError(
                f"no value bound for query parameter ${expression.name}"
            )
        if isinstance(expression, PGVariable):
            if expression.name not in row:
                raise ExecutionError(f"variable {expression.name!r} is not bound")
            return row[expression.name]
        if isinstance(expression, PGProperty):
            return self._eval_property(expression, row)
        if isinstance(expression, PGBinary):
            return self._eval_binary(expression, row)
        if isinstance(expression, PGNot):
            return not bool(self._eval(expression.operand, row))
        if isinstance(expression, PGFunction):
            return self._eval_function(expression, row)
        if isinstance(expression, PGAggregate):
            raise ExecutionError("aggregate evaluated outside of a projection")
        raise ExecutionError(f"cannot evaluate PGIR expression {expression!r}")

    def _eval_property(self, expression: PGProperty, row: Row):
        value = row.get(expression.variable)
        if isinstance(value, GraphEdge):
            if expression.property_name == "id":
                return value.properties.get("id", value.edge_id)
            return value.properties.get(expression.property_name)
        label = self._var_labels.get(expression.variable)
        if label is None or value is None:
            raise ExecutionError(
                f"cannot resolve property {expression.variable}.{expression.property_name}"
            )
        return self._graph.node_property(label, int(value), expression.property_name)

    def _eval_binary(self, expression: PGBinary, row: Row):
        op = expression.op.upper()
        if op == "AND":
            return bool(self._eval(expression.left, row)) and bool(
                self._eval(expression.right, row)
            )
        if op == "OR":
            return bool(self._eval(expression.left, row)) or bool(
                self._eval(expression.right, row)
            )
        if op == "IN":
            right = expression.right
            if isinstance(right, PGFunction) and right.name == "list":
                values = [self._eval(arg, row) for arg in right.args]
            else:
                values = self._eval(right, row)
            return self._eval(expression.left, row) in values
        left = self._eval(expression.left, row)
        right = self._eval(expression.right, row)
        if op in semantics.COMPARISONS:
            return semantics.compare(op, left, right)
        return semantics.arith(op, left, right)

    def _eval_function(self, expression: PGFunction, row: Row):
        name = expression.name.lower()
        if name == "id" and len(expression.args) == 1:
            return self._eval(expression.args[0], row)
        if name == "length" and len(expression.args) == 1:
            return self._eval(expression.args[0], row)
        if name == "isnull" and len(expression.args) == 1:
            return self._eval(expression.args[0], row) is None
        if name == "list":
            return [self._eval(arg, row) for arg in expression.args]
        raise UnsupportedFeatureError(f"function {expression.name!r}", backend="graph-engine")

    def _project(
        self, items: Tuple[PGProjectionItem, ...], rows: List[Row], distinct: bool
    ) -> List[Row]:
        aggregate_items = [
            item for item in items if isinstance(item.expression, PGAggregate)
        ]
        if aggregate_items:
            projected = self._project_aggregated(items, rows)
        else:
            projected = []
            for row in rows:
                new_row: Row = {}
                for item in items:
                    new_row[item.alias] = self._normalise(self._eval(item.expression, row))
                projected.append(new_row)
        self._update_labels(items)
        if distinct:
            seen = set()
            unique: List[Row] = []
            for row in projected:
                key = tuple(sorted(row.items(), key=lambda item: item[0]))
                if key not in seen:
                    seen.add(key)
                    unique.append(row)
            return unique
        return projected

    def _project_aggregated(
        self, items: Tuple[PGProjectionItem, ...], rows: List[Row]
    ) -> List[Row]:
        key_items = [item for item in items if not isinstance(item.expression, PGAggregate)]
        groups: Dict[Tuple, List[Row]] = defaultdict(list)
        for row in rows:
            key = tuple(
                self._normalise(self._eval(item.expression, row)) for item in key_items
            )
            groups[key].append(row)
        projected: List[Row] = []
        for key, group_rows in groups.items():
            new_row: Row = {}
            for item, value in zip(key_items, key):
                new_row[item.alias] = value
            for item in items:
                if not isinstance(item.expression, PGAggregate):
                    continue
                new_row[item.alias] = self._eval_aggregate(item.expression, group_rows)
            projected.append(new_row)
        return projected

    def _eval_aggregate(self, aggregate: PGAggregate, rows: List[Row]):
        if aggregate.argument is None:
            return len(rows)
        values = [self._normalise(self._eval(aggregate.argument, row)) for row in rows]
        if aggregate.distinct:
            values = list(dict.fromkeys(values))
        return semantics.aggregate(aggregate.func, values)

    def _update_labels(self, items: Tuple[PGProjectionItem, ...]) -> None:
        new_labels: Dict[str, str] = {}
        for item in items:
            expression = item.expression
            if isinstance(expression, PGVariable):
                label = self._var_labels.get(expression.name)
                if label is not None:
                    new_labels[item.alias] = label
            elif isinstance(expression, PGProperty) and expression.property_name == "id":
                label = self._var_labels.get(expression.variable)
                if label is not None:
                    new_labels[item.alias] = label
        self._var_labels.update(new_labels)

    @staticmethod
    def _normalise(value):
        if isinstance(value, GraphEdge):
            return value.properties.get("id", value.edge_id)
        return value


def execute_pgir(lowering: LoweringResult, graph: PropertyGraph) -> QueryResult:
    """Convenience wrapper: execute a lowered PGIR query against ``graph``."""
    return GraphEngine(graph).execute(lowering)
