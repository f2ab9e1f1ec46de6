"""Termination analysis (paper Section 4).

Datalog over a finite EDB always terminates *unless* rules can manufacture an
unbounded supply of new values.  The analysis flags the standard culprits:

* arithmetic (interpreted functions) in the head of a recursive rule whose
  result feeds back into the recursion (e.g. ``Dist(a, b, d+1) :- Dist(...)``),
  unless the rule carries a min/max subsumption marker that bounds the values,
* comparisons are *not* flagged (they only filter),
* bag semantics is not representable in DLIR (set semantics only), so the
  corresponding warning from the paper does not arise here.

The result is a warning list, not a hard error: the paper positions this
analysis as user guidance ("your query may not terminate over cyclic data").
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

from repro.analysis.dependencies import DependencyGraph, build_dependency_graph
from repro.dlir.core import ArithExpr, DLIRProgram, Rule, term_variables


@dataclass
class TerminationResult:
    """Outcome of termination analysis."""

    may_not_terminate: bool
    warnings: List[str] = field(default_factory=list)


def _head_arithmetic_feeding_recursion(rule: Rule, component) -> bool:
    """Return whether the rule grows values through head arithmetic."""
    has_recursive_body = any(
        atom.relation in component for atom in rule.body_atoms()
    )
    if not has_recursive_body:
        return False
    for term in rule.head.terms:
        if isinstance(term, ArithExpr):
            # Arithmetic over a variable bound by a recursive atom can grow
            # without bound unless subsumption keeps only the best value.
            arithmetic_vars = set(term_variables(term))
            for atom in rule.body_atoms():
                if atom.relation in component and arithmetic_vars & set(atom.variables()):
                    return True
    return False


def analyze_termination(
    program: DLIRProgram, dependency_graph: Optional[DependencyGraph] = None
) -> TerminationResult:
    """Detect recursion patterns that may not terminate."""
    graph = dependency_graph or build_dependency_graph(program)
    warnings: List[str] = []
    for rule in program.rules:
        component = graph.scc_of.get(rule.head.relation)
        if component is None:
            continue
        if not graph.is_recursive(rule.head.relation):
            continue
        if _head_arithmetic_feeding_recursion(rule, component):
            if rule.subsume_min is not None or rule.subsume_max is not None:
                continue  # bounded by subsumption (Datalog^o-style min/max)
            warnings.append(
                f"rule for {rule.head.relation!r} applies arithmetic to a value "
                "derived recursively; over cyclic data this recursion may not "
                "terminate"
            )
    return TerminationResult(may_not_terminate=bool(warnings), warnings=warnings)
