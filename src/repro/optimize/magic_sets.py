"""Magic-set transformation (paper Section 5, "Pushing Operators Past Recursion").

The transformation specialises a recursive predicate to the constant bindings
with which it is queried, so that bottom-up evaluation only derives facts
relevant to the query -- the classic technique of Bancilhon et al. [7].

The implementation handles the common shape produced by Raqlet's own
translation pipeline (and by typical hand-written Datalog): a recursive
predicate ``P`` defined in a single-predicate SCC, called from non-recursive
rules with constants in some argument positions.  The steps are:

1. compute the *adornment*: the argument positions bound to constants at
   every call site outside the SCC (the intersection over call sites),
2. create a magic predicate ``Magic_P`` over the bound positions, seeded with
   one fact per call site,
3. guard every rule of ``P`` with ``Magic_P(bound head arguments)``,
4. for every recursive call inside a rule of ``P``, derive new magic facts
   with a left-to-right sideways information passing strategy.

The transformation is skipped (returning the program unchanged) whenever it
cannot be shown safe: no recursion, no bound call-site positions, mutual
recursion, negation/aggregation/subsumption inside the SCC, call sites
whose bound arguments are not constants, or a recursive call whose bound
arguments are not yet bound where it runs (left to right).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.analysis.dependencies import DependencyGraph, build_dependency_graph
from repro.dlir.core import (
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
    term_variables,
)
from repro.optimize.base import Pass
from repro.schema.dl_schema import DLColumn, DLRelation


def _call_sites(program: DLIRProgram, predicate: str, component) -> List[Atom]:
    """Return the positive occurrences of ``predicate`` outside its SCC."""
    sites: List[Atom] = []
    for rule in program.rules:
        if rule.head.relation in component:
            continue
        for atom in rule.body_atoms():
            if atom.relation == predicate:
                sites.append(atom)
        for negated in rule.negated_atoms():
            if negated.atom.relation == predicate:
                # A negated use must see the complete relation; magic would
                # under-approximate it, so the transformation is unsafe.
                return []
    return sites


def _bound_positions(sites: Sequence[Atom]) -> Tuple[int, ...]:
    """Return positions bound to a ground term at every call site.

    Late-bound parameters count as bound: their value is fixed per run, so
    a magic seed fact ``Magic_P($p)`` simply derives the binding's value at
    execution time.
    """
    if not sites:
        return ()
    arity = sites[0].arity
    positions = []
    for index in range(arity):
        if all(isinstance(site.terms[index], (Const, Param)) for site in sites):
            positions.append(index)
    return tuple(positions)


def _component_is_plain(program: DLIRProgram, component) -> bool:
    """Return whether the SCC's rules are plain positive conjunctive rules."""
    for relation in component:
        for rule in program.rules_for(relation):
            if rule.has_negation() or rule.has_aggregation():
                return False
            if rule.subsume_min is not None or rule.subsume_max is not None:
                return False
    return True


class MagicSets(Pass):
    """Specialise bound recursive predicates with magic predicates."""

    name = "magic-sets"

    def __init__(self, magic_prefix: str = "Magic_") -> None:
        self._prefix = magic_prefix

    def run(self, program: DLIRProgram) -> DLIRProgram:
        graph = build_dependency_graph(program)
        current = program
        for component in graph.recursive_components():
            if len(component) != 1:
                continue  # mutual recursion: out of scope for this implementation
            (predicate,) = tuple(component)
            transformed = self._transform_predicate(current, predicate, graph)
            if transformed is not None:
                current = transformed
                graph = build_dependency_graph(current)
        return current

    # ------------------------------------------------------------------

    def _transform_predicate(
        self, program: DLIRProgram, predicate: str, graph: DependencyGraph
    ) -> Optional[DLIRProgram]:
        component = graph.scc_of[predicate]
        if not _component_is_plain(program, component):
            return None
        sites = _call_sites(program, predicate, component)
        if not sites:
            return None
        bound = _bound_positions(sites)
        if not bound:
            return None
        declaration = program.schema.maybe_get(predicate)
        if declaration is None:
            return None
        magic_name = f"{self._prefix}{predicate}"
        if magic_name in program.schema:
            return None  # already transformed
        magic_columns = tuple(
            DLColumn(declaration.columns[index].name, declaration.columns[index].type)
            for index in bound
        )
        magic_relation = DLRelation(name=magic_name, columns=magic_columns, is_edb=False)

        new_rules: List[Rule] = []
        seeds: Set[Tuple] = set()
        for site in sites:
            seed_terms = tuple(site.terms[index] for index in bound)
            seeds.add(seed_terms)
        if len(seeds) == 1 and all(
            tuple(rule.head.terms[index] for index in bound) in seeds
            for rule in program.rules_for(predicate)
        ):
            # Every rule already derives only the one binding called for
            # (inlining a previous round's magic seed leaves this shape):
            # the guard would filter nothing.
            return None
        seed_rules = [
            Rule(head=Atom(magic_name, terms), body=()) for terms in sorted(seeds, key=str)
        ]

        for rule in program.rules:
            if rule.head.relation != predicate:
                new_rules.append(rule)
                continue
            guarded, magic_rules = self._rewrite_rule(rule, predicate, magic_name, bound)
            if guarded is None:
                return None  # see _rewrite_rule: no safe magic rewrite
            new_rules.extend(magic_rules)
            new_rules.append(guarded)

        result = program.copy()
        result.rules = seed_rules + new_rules
        result.declare(magic_relation)
        return result

    def _rewrite_rule(
        self, rule: Rule, predicate: str, magic_name: str, bound: Tuple[int, ...]
    ) -> Tuple[Optional[Rule], List[Rule]]:
        head_bound_terms = []
        for index in bound:
            term = rule.head.terms[index]
            if not isinstance(term, (Var, Const, Param)):
                return None, []
            head_bound_terms.append(term)
        guard = Atom(magic_name, tuple(head_bound_terms))

        magic_rules: List[Rule] = []
        known: Set[str] = {
            name for term in head_bound_terms for name in term_variables(term)
        }
        prefix: List[Literal] = [guard]
        for literal in rule.body:
            if isinstance(literal, Atom) and literal.relation == predicate:
                call_bound_terms = tuple(literal.terms[index] for index in bound)
                call_vars = {
                    name
                    for term in call_bound_terms
                    for name in term_variables(term)
                }
                if not call_vars <= known:
                    # The call's bound arguments are not known where it runs,
                    # so no magic rule can pass its demand on, and the guard
                    # would cut off the rows the call needs.
                    return None, []
                magic_head = Atom(magic_name, call_bound_terms)
                # A call passing the head's bound arguments straight through
                # would emit ``M(x̄) :- M(x̄).``, which derives nothing.
                if not (len(prefix) == 1 and magic_head == guard):
                    magic_rules.append(Rule(head=magic_head, body=tuple(prefix)))
            prefix.append(literal)
            known.update(self._newly_bound(literal))
        guarded = rule.with_body([guard] + list(rule.body))
        return guarded, magic_rules

    @staticmethod
    def _newly_bound(literal: Literal) -> Set[str]:
        if isinstance(literal, Atom):
            return set(literal.variables())
        if isinstance(literal, Comparison) and literal.op == "=":
            return set(literal.variables())
        if isinstance(literal, NegatedAtom):
            return set()
        return set()
