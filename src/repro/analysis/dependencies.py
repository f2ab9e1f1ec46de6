"""Predicate dependency graph of a DLIR program.

The dependency graph has one node per relation; a rule ``H :- ..., B, ...``
adds an edge ``B -> H``.  Edges are annotated with whether the dependency
passes through negation or aggregation, which stratification uses, and the
strongly connected components of the graph identify recursive relation
groups, which the recursion analyses and the evaluation engine use.

The graph is plain adjacency dicts.  Components come from an iterative
Tarjan search and their evaluation order from a Kahn walk over the
condensation, both visiting nodes and edges in insertion order, so every
order derived here (and every text emitted from it) is deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterator, List, Set, Tuple

from repro.dlir.core import DLIRProgram, Rule

#: relation -> the relations that depend on it (insertion-ordered)
Adjacency = Dict[str, Dict[str, None]]


@dataclass(frozen=True)
class DependencyEdge:
    """A dependency from ``source`` (body relation) to ``target`` (head)."""

    source: str
    target: str
    negated: bool = False
    through_aggregation: bool = False


@dataclass
class DependencyGraph:
    """The predicate dependency graph plus its SCC decomposition."""

    graph: Adjacency
    edges: List[DependencyEdge] = field(default_factory=list)
    sccs: List[FrozenSet[str]] = field(default_factory=list)
    scc_of: Dict[str, FrozenSet[str]] = field(default_factory=dict)

    def depends_on(self, relation: str) -> Set[str]:
        """Return the relations that ``relation`` (directly) depends on."""
        return {source for source, targets in self.graph.items() if relation in targets}

    def dependents_of(self, relation: str) -> Set[str]:
        """Return the relations that (directly) depend on ``relation``."""
        return set(self.graph.get(relation, ()))

    def is_recursive(self, relation: str) -> bool:
        """Return whether ``relation`` participates in a dependency cycle."""
        component = self.scc_of.get(relation, frozenset())
        if len(component) > 1:
            return True
        return relation in self.graph.get(relation, ())

    def recursive_components(self) -> List[FrozenSet[str]]:
        """Return the SCCs that contain recursion (size > 1 or a self-loop)."""
        return [
            component
            for component in self.sccs
            if self.is_recursive(next(iter(component)))
        ]

    def same_component(self, first: str, second: str) -> bool:
        """Return whether two relations belong to the same SCC."""
        return self.scc_of.get(first) is not None and self.scc_of.get(first) == self.scc_of.get(second)

    def condensation_order(self) -> List[FrozenSet[str]]:
        """Return the SCCs in a topological (evaluation) order.

        A Kahn walk by generations over the condensation: the first
        generation is every component without a dependency, in component
        order; each later one lists the components whose last dependency
        the previous generation resolved, in the order it resolved them.
        """
        index = {
            relation: position
            for position, component in enumerate(self.sccs)
            for relation in component
        }
        successors: List[Dict[int, None]] = [{} for _ in self.sccs]
        indegree = [0] * len(self.sccs)
        for source, targets in self.graph.items():
            for target in targets:
                first, then = index[source], index[target]
                if first != then and then not in successors[first]:
                    successors[first][then] = None
                    indegree[then] += 1
        generation = [position for position, degree in enumerate(indegree) if not degree]
        order: List[int] = []
        while generation:
            order.extend(generation)
            following = []
            for position in generation:
                for target in successors[position]:
                    indegree[target] -= 1
                    if not indegree[target]:
                        following.append(target)
            generation = following
        return [self.sccs[position] for position in order]


def _strongly_connected_components(graph: Adjacency) -> Iterator[FrozenSet[str]]:
    """Yield the SCCs of ``graph`` — iterative Tarjan with Nuutila's
    refinement, so a component is yielded as soon as its root finishes and
    sinks come before the components that depend on them."""
    preorder: Dict[str, int] = {}
    lowlink: Dict[str, int] = {}
    found: Set[str] = set()
    pending: List[str] = []
    pending_edges = {node: iter(targets) for node, targets in graph.items()}
    for root in graph:
        if root in found:
            continue
        path = [root]
        while path:
            node = path[-1]
            if node not in preorder:
                preorder[node] = len(preorder) + 1
            for target in pending_edges[node]:
                if target not in preorder:
                    path.append(target)
                    break
            else:  # every edge explored: the node is finished
                low = preorder[node]
                for target in graph[node]:
                    if target not in found:
                        if preorder[target] > preorder[node]:
                            low = min(low, lowlink[target])
                        else:
                            low = min(low, preorder[target])
                lowlink[node] = low
                path.pop()
                if low == preorder[node]:
                    component = {node}
                    while pending and preorder[pending[-1]] > preorder[node]:
                        component.add(pending.pop())
                    found.update(component)
                    yield frozenset(component)
                else:
                    pending.append(node)


def _rule_dependencies(rule: Rule) -> List[Tuple[str, bool, bool]]:
    """Return ``(body relation, negated, through aggregation)`` triples."""
    through_aggregation = rule.has_aggregation()
    dependencies = []
    for atom in rule.body_atoms():
        dependencies.append((atom.relation, False, through_aggregation))
    for negated in rule.negated_atoms():
        dependencies.append((negated.atom.relation, True, through_aggregation))
    return dependencies


def build_dependency_graph(program: DLIRProgram) -> DependencyGraph:
    """Build the dependency graph of ``program``."""
    graph: Adjacency = {name: {} for name in program.relation_names()}
    edges: List[DependencyEdge] = []
    for rule in program.rules:
        head = rule.head.relation
        for source, negated, through_aggregation in _rule_dependencies(rule):
            edge = DependencyEdge(
                source=source,
                target=head,
                negated=negated,
                through_aggregation=through_aggregation,
            )
            edges.append(edge)
            graph.setdefault(source, {})[head] = None
            graph.setdefault(head, {})
    sccs = list(_strongly_connected_components(graph))
    scc_of: Dict[str, FrozenSet[str]] = {}
    for component in sccs:
        for relation in component:
            scc_of[relation] = component
    return DependencyGraph(graph=graph, edges=edges, sccs=sccs, scc_of=scc_of)
