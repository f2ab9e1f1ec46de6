"""Monotonicity analysis (paper Section 4).

A recursive query is monotonic under set inclusion when adding facts can only
add (never remove) derived facts.  Negation and non-monotone aggregation
inside a recursive component break monotonicity and can prevent the fixpoint
from converging; min/max-subsumption recursion (the Datalog^o style used for
shortest paths) is treated as monotone over the lattice it defines.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

from repro.analysis.dependencies import DependencyGraph, build_dependency_graph
from repro.dlir.core import DLIRProgram


@dataclass
class MonotonicityResult:
    """Outcome of monotonicity analysis.

    ``is_monotonic`` refers to the whole program: every recursive component is
    free of negation/aggregation edges.  ``non_monotonic_reasons`` explains
    failures; ``lattice_monotone_rules`` counts subsumption (min/max) rules
    that are monotone over their ordering lattice rather than plain sets.
    """

    is_monotonic: bool
    non_monotonic_reasons: List[str] = field(default_factory=list)
    lattice_monotone_rules: int = 0
    uses_negation: bool = False
    uses_aggregation: bool = False


def analyze_monotonicity(
    program: DLIRProgram, dependency_graph: Optional[DependencyGraph] = None
) -> MonotonicityResult:
    """Determine whether the program is monotonic under set inclusion."""
    graph = dependency_graph or build_dependency_graph(program)
    reasons: List[str] = []
    uses_negation = any(rule.has_negation() for rule in program.rules)
    uses_aggregation = any(rule.has_aggregation() for rule in program.rules)
    lattice_rules = sum(
        1
        for rule in program.rules
        if rule.subsume_min is not None or rule.subsume_max is not None
    )
    for rule in program.rules:
        component = graph.scc_of.get(rule.head.relation)
        if component is None:
            continue
        if not graph.is_recursive(rule.head.relation):
            continue
        for negated in rule.negated_atoms():
            if negated.atom.relation in component:
                reasons.append(
                    f"rule for {rule.head.relation!r} negates {negated.atom.relation!r} "
                    "inside its own recursive component"
                )
        if rule.has_aggregation():
            recursive_atoms = [
                atom for atom in rule.body_atoms() if atom.relation in component
            ]
            if recursive_atoms:
                reasons.append(
                    f"rule for {rule.head.relation!r} aggregates over its own "
                    "recursive component"
                )
    return MonotonicityResult(
        is_monotonic=not reasons,
        non_monotonic_reasons=reasons,
        lattice_monotone_rules=lattice_rules,
        uses_negation=uses_negation,
        uses_aggregation=uses_aggregation,
    )
