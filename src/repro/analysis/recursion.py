"""Linearity and mutual-recursion analysis (paper Section 4).

*Linearity*: a recursive rule is linear when its body contains at most one
atom from the head's recursive component.  Programs whose recursive rules are
all linear can be executed as SQL recursive CTEs; non-linear programs cannot
(without rewriting).

*Mutual recursion*: two or more distinct relations that depend on each other
in a cycle.  RDBMS backends reject it; Datalog engines support it natively.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Set

from repro.analysis.dependencies import DependencyGraph, build_dependency_graph
from repro.dlir.core import DLIRProgram, Rule


def recursive_relations(
    program: DLIRProgram, dependency_graph: Optional[DependencyGraph] = None
) -> Set[str]:
    """Return the set of relations that participate in recursion."""
    graph = dependency_graph or build_dependency_graph(program)
    recursive: Set[str] = set()
    for component in graph.recursive_components():
        recursive.update(component)
    return recursive


def recursive_body_count(rule: Rule, component: FrozenSet[str]) -> int:
    """Return how many positive body atoms of ``rule`` are in ``component``."""
    return sum(1 for atom in rule.body_atoms() if atom.relation in component)


@dataclass
class LinearityResult:
    """Outcome of linearity analysis.

    ``is_linear`` is true when every recursive rule has at most one recursive
    body atom.  ``non_linear_rules`` lists offending rules (as strings) and
    ``recursive_rule_count`` counts rules involved in recursion at all.
    """

    is_linear: bool
    has_recursion: bool
    recursive_rule_count: int = 0
    non_linear_rules: List[str] = field(default_factory=list)
    linear_rules: List[str] = field(default_factory=list)


def analyze_linearity(
    program: DLIRProgram, dependency_graph: Optional[DependencyGraph] = None
) -> LinearityResult:
    """Classify the program's recursion as linear or non-linear."""
    graph = dependency_graph or build_dependency_graph(program)
    recursive_rule_count = 0
    non_linear: List[str] = []
    linear: List[str] = []
    has_recursion = bool(graph.recursive_components())
    for rule in program.rules:
        component = graph.scc_of.get(rule.head.relation)
        if component is None:
            continue
        if not graph.is_recursive(rule.head.relation):
            continue
        count = recursive_body_count(rule, component)
        if count == 0:
            continue
        recursive_rule_count += 1
        if count > 1:
            non_linear.append(str(rule))
        else:
            linear.append(str(rule))
    return LinearityResult(
        is_linear=not non_linear,
        has_recursion=has_recursion,
        recursive_rule_count=recursive_rule_count,
        non_linear_rules=non_linear,
        linear_rules=linear,
    )


@dataclass
class MutualRecursionResult:
    """Outcome of mutual-recursion analysis.

    ``groups`` lists the SCCs containing two or more distinct relations.
    """

    has_mutual_recursion: bool
    groups: List[FrozenSet[str]] = field(default_factory=list)
    self_recursive: List[str] = field(default_factory=list)


def analyze_mutual_recursion(
    program: DLIRProgram, dependency_graph: Optional[DependencyGraph] = None
) -> MutualRecursionResult:
    """Detect mutually recursive relation groups."""
    graph = dependency_graph or build_dependency_graph(program)
    groups: List[FrozenSet[str]] = []
    self_recursive: List[str] = []
    for component in graph.recursive_components():
        if len(component) > 1:
            groups.append(component)
        else:
            (relation,) = tuple(component)
            self_recursive.append(relation)
    return MutualRecursionResult(
        has_mutual_recursion=bool(groups),
        groups=groups,
        self_recursive=sorted(self_recursive),
    )


def recursion_summary(
    program: DLIRProgram, dependency_graph: Optional[DependencyGraph] = None
) -> Dict[str, object]:
    """Return a compact dictionary summarizing the recursion structure."""
    graph = dependency_graph or build_dependency_graph(program)
    linearity = analyze_linearity(program, graph)
    mutual = analyze_mutual_recursion(program, graph)
    return {
        "has_recursion": linearity.has_recursion,
        "is_linear": linearity.is_linear,
        "has_mutual_recursion": mutual.has_mutual_recursion,
        "recursive_relations": sorted(recursive_relations(program, graph)),
    }
