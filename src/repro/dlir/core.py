"""Core DLIR data structures: terms, literals, rules and programs.

A DLIR program is a list of rules over relations declared in a
:class:`~repro.schema.dl_schema.DLSchema`.  Rules have the shape::

    Head(t1, ..., tn) :- L1, L2, ..., Lm.

where each body literal ``Li`` is a positive relational atom, a negated atom,
or a comparison between arithmetic expressions.  Rules may additionally carry
aggregations (``count``, ``sum``, ``min``, ``max``, ``avg``, ``collect``)
whose grouping keys are the non-aggregated head variables, and an optional
*subsumption* marker used for monotone min/max recursion (the Datalog^o-style
semantics the paper cites for shortest paths).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, Iterable, Iterator, List, Mapping, Optional, Sequence, Tuple, Union

from repro.common.errors import TranslationError
from repro.schema.dl_schema import DLRelation, DLSchema, DLType

ConstValue = Union[int, float, str, bool]


# ---------------------------------------------------------------------------
# Terms and arithmetic expressions
# ---------------------------------------------------------------------------


class Term:
    """Base class of DLIR terms (marker class)."""


@dataclass(frozen=True)
class Var(Term):
    """A logic variable."""

    name: str

    def __str__(self) -> str:
        return self.name


@dataclass(frozen=True)
class Const(Term):
    """A constant value (number, float or symbol)."""

    value: ConstValue

    def __str__(self) -> str:
        if isinstance(self.value, str):
            return f'"{self.value}"'
        if isinstance(self.value, bool):
            return "1" if self.value else "0"
        return str(self.value)

    def dl_type(self) -> DLType:
        """Return the DL-Schema type this constant carries."""
        if isinstance(self.value, bool):
            return DLType.NUMBER
        if isinstance(self.value, int):
            return DLType.NUMBER
        if isinstance(self.value, float):
            return DLType.FLOAT
        return DLType.SYMBOL


@dataclass(frozen=True)
class Wildcard(Term):
    """An anonymous "don't care" term, printed as ``_``."""

    def __str__(self) -> str:
        return "_"


@dataclass(frozen=True)
class Param(Term):
    """A **late-bound** query parameter, printed as ``$name``.

    A parameter is a ground value whose *identity* is known at compile time
    but whose *value* is only supplied at execution time (one binding per
    run).  Structurally it behaves like :class:`Const` — it carries no
    variables, counts as a bound position for planning and safety, and can
    be propagated into atom argument positions — which is what lets one
    compiled plan (and its generated closure) serve every binding of a
    prepared query without recompilation.  Text backends keep the named
    placeholder: Soufflé prints ``$name``, SQL prints ``:name``.
    """

    name: str

    def __str__(self) -> str:
        return f"${self.name}"


@dataclass(frozen=True)
class ArithExpr(Term):
    """An arithmetic expression over terms: ``left op right``.

    Supported operators: ``+``, ``-``, ``*``, ``/``, ``%``.
    """

    op: str
    left: Term
    right: Term

    def __str__(self) -> str:
        return f"({self.left} {self.op} {self.right})"


def term_variables(term: Term) -> Iterator[str]:
    """Yield the variable names occurring in ``term``."""
    if isinstance(term, Var):
        yield term.name
    elif isinstance(term, ArithExpr):
        yield from term_variables(term.left)
        yield from term_variables(term.right)


def substitute_term(term: Term, mapping: Mapping[str, Term]) -> Term:
    """Replace variables in ``term`` according to ``mapping``."""
    if isinstance(term, Var):
        return mapping.get(term.name, term)
    if isinstance(term, ArithExpr):
        return ArithExpr(
            term.op,
            substitute_term(term.left, mapping),
            substitute_term(term.right, mapping),
        )
    return term


# ---------------------------------------------------------------------------
# Body literals
# ---------------------------------------------------------------------------


class Literal:
    """Base class of body literals (marker class)."""


@dataclass(frozen=True)
class Atom(Literal):
    """A positive relational atom ``Relation(t1, ..., tn)``."""

    relation: str
    terms: Tuple[Term, ...]

    @property
    def arity(self) -> int:
        """Number of argument terms."""
        return len(self.terms)

    def variables(self) -> List[str]:
        """Return variable names in argument order (with duplicates)."""
        names: List[str] = []
        for term in self.terms:
            names.extend(term_variables(term))
        return names

    def substitute(self, mapping: Mapping[str, Term]) -> "Atom":
        """Return a copy with variables replaced according to ``mapping``."""
        return Atom(self.relation, tuple(substitute_term(t, mapping) for t in self.terms))

    def __str__(self) -> str:
        return f"{self.relation}({', '.join(str(term) for term in self.terms)})"


@dataclass(frozen=True)
class NegatedAtom(Literal):
    """A negated atom ``!Relation(t1, ..., tn)`` (stratified negation)."""

    atom: Atom

    def variables(self) -> List[str]:
        """Return variable names used by the inner atom."""
        return self.atom.variables()

    def substitute(self, mapping: Mapping[str, Term]) -> "NegatedAtom":
        """Return a copy with variables replaced according to ``mapping``."""
        return NegatedAtom(self.atom.substitute(mapping))

    def __str__(self) -> str:
        return f"!{self.atom}"


COMPARISON_OPS = ("=", "<>", "<", "<=", ">", ">=")


@dataclass(frozen=True)
class Comparison(Literal):
    """A comparison ``left op right`` between arithmetic expressions.

    ``=`` doubles as variable binding (``p = cityId`` in the paper's example).
    """

    op: str
    left: Term
    right: Term

    def __post_init__(self) -> None:
        if self.op not in COMPARISON_OPS:
            raise TranslationError(f"unsupported comparison operator {self.op!r}")

    def variables(self) -> List[str]:
        """Return variable names used on either side."""
        return list(term_variables(self.left)) + list(term_variables(self.right))

    def substitute(self, mapping: Mapping[str, Term]) -> "Comparison":
        """Return a copy with variables replaced according to ``mapping``."""
        return Comparison(
            self.op,
            substitute_term(self.left, mapping),
            substitute_term(self.right, mapping),
        )

    def __str__(self) -> str:
        return f"{self.left} {self.op} {self.right}"


AGGREGATE_FUNCS = ("count", "sum", "min", "max", "avg", "collect")


@dataclass(frozen=True)
class Aggregation:
    """An aggregation attached to a rule.

    The rule's non-aggregated head variables act as grouping keys.
    ``argument`` is the aggregated expression (``None`` for ``count(*)``) and
    ``result`` is the head variable receiving the aggregate value.
    """

    func: str
    result: Var
    argument: Optional[Term] = None
    distinct: bool = False

    def __post_init__(self) -> None:
        if self.func not in AGGREGATE_FUNCS:
            raise TranslationError(f"unsupported aggregate function {self.func!r}")

    def __str__(self) -> str:
        inner = "*" if self.argument is None else str(self.argument)
        distinct = "distinct " if self.distinct else ""
        return f"{self.result} = {self.func}({distinct}{inner})"


# ---------------------------------------------------------------------------
# Rules
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Rule:
    """A DLIR rule ``head :- body`` with optional aggregations and subsumption.

    ``subsume_min`` (or ``subsume_max``) names a head column index; during
    fixpoint evaluation only the minimal (maximal) value of that column is
    kept per combination of the remaining columns.  This encodes monotone
    aggregation inside recursion (shortest paths) without leaving Datalog's
    fixpoint semantics.
    """

    head: Atom
    body: Tuple[Literal, ...]
    aggregations: Tuple[Aggregation, ...] = ()
    subsume_min: Optional[int] = None
    subsume_max: Optional[int] = None

    # -- accessors -------------------------------------------------------

    def head_variables(self) -> List[str]:
        """Return head variable names in argument order."""
        return self.head.variables()

    def body_atoms(self) -> List[Atom]:
        """Return the positive relational atoms of the body, in order."""
        return [literal for literal in self.body if isinstance(literal, Atom)]

    def negated_atoms(self) -> List[NegatedAtom]:
        """Return the negated atoms of the body, in order."""
        return [literal for literal in self.body if isinstance(literal, NegatedAtom)]

    def comparisons(self) -> List[Comparison]:
        """Return the comparisons of the body, in order."""
        return [literal for literal in self.body if isinstance(literal, Comparison)]

    def body_relations(self) -> List[str]:
        """Return relation names referenced positively by the body."""
        return [atom.relation for atom in self.body_atoms()]

    def referenced_relations(self) -> List[str]:
        """Return every relation referenced by the body (positive or negated)."""
        names = [atom.relation for atom in self.body_atoms()]
        names.extend(negated.atom.relation for negated in self.negated_atoms())
        return names

    def aggregate_result_names(self) -> List[str]:
        """Return the head variables bound by aggregations."""
        return [aggregation.result.name for aggregation in self.aggregations]

    def group_by_variables(self) -> List[str]:
        """Return head variables that act as grouping keys (non-aggregated)."""
        aggregated = set(self.aggregate_result_names())
        keys = []
        for term in self.head.terms:
            for name in term_variables(term):
                if name not in aggregated and name not in keys:
                    keys.append(name)
        return keys

    def has_aggregation(self) -> bool:
        """Return whether the rule computes any aggregate."""
        return bool(self.aggregations)

    def has_negation(self) -> bool:
        """Return whether the rule's body contains a negated atom."""
        return bool(self.negated_atoms())

    def is_fact(self) -> bool:
        """Return whether the rule has an empty body (a ground fact rule)."""
        return not self.body

    def variables(self) -> List[str]:
        """Return every variable of the rule (head + body), without duplicates."""
        seen: List[str] = []
        for name in self.head.variables():
            if name not in seen:
                seen.append(name)
        for literal in self.body:
            names: Iterable[str]
            if isinstance(literal, (Atom, NegatedAtom, Comparison)):
                names = literal.variables()
            else:
                names = ()
            for name in names:
                if name not in seen:
                    seen.append(name)
        for aggregation in self.aggregations:
            if aggregation.argument is not None:
                for name in term_variables(aggregation.argument):
                    if name not in seen:
                        seen.append(name)
        return seen

    # -- transformation helpers -----------------------------------------

    def substitute(self, mapping: Mapping[str, Term]) -> "Rule":
        """Return a copy of the rule with variables substituted everywhere."""
        new_body: List[Literal] = []
        for literal in self.body:
            if isinstance(literal, (Atom, NegatedAtom, Comparison)):
                new_body.append(literal.substitute(mapping))
            else:
                new_body.append(literal)
        new_aggregations = tuple(
            Aggregation(
                func=aggregation.func,
                result=Var(
                    mapping.get(aggregation.result.name, aggregation.result).name
                    if isinstance(mapping.get(aggregation.result.name), Var)
                    else aggregation.result.name
                ),
                argument=(
                    substitute_term(aggregation.argument, mapping)
                    if aggregation.argument is not None
                    else None
                ),
                distinct=aggregation.distinct,
            )
            for aggregation in self.aggregations
        )
        return Rule(
            head=self.head.substitute(mapping),
            body=tuple(new_body),
            aggregations=new_aggregations,
            subsume_min=self.subsume_min,
            subsume_max=self.subsume_max,
        )

    def with_body(self, body: Sequence[Literal]) -> "Rule":
        """Return a copy with a replaced body."""
        return replace(self, body=tuple(body))

    def __str__(self) -> str:
        if self.is_fact() and not self.aggregations:
            return f"{self.head}."
        parts = [str(literal) for literal in self.body]
        parts.extend(str(aggregation) for aggregation in self.aggregations)
        suffix = ""
        if self.subsume_min is not None:
            suffix = f"  [min over column {self.subsume_min}]"
        if self.subsume_max is not None:
            suffix = f"  [max over column {self.subsume_max}]"
        return f"{self.head} :- {', '.join(parts)}.{suffix}"


# ---------------------------------------------------------------------------
# Programs
# ---------------------------------------------------------------------------


@dataclass
class DLIRProgram:
    """A DLIR program: schema (EDB + IDB declarations), rules and outputs.

    ``facts`` may hold ground tuples for EDB relations that were provided
    inline (used by the Datalog frontend which accepts fact clauses).
    """

    schema: DLSchema = field(default_factory=DLSchema)
    rules: List[Rule] = field(default_factory=list)
    outputs: List[str] = field(default_factory=list)
    inputs: List[str] = field(default_factory=list)
    facts: Dict[str, List[Tuple[ConstValue, ...]]] = field(default_factory=dict)

    # -- structure -------------------------------------------------------

    def idb_names(self) -> List[str]:
        """Return names of relations defined by at least one rule."""
        seen: List[str] = []
        for rule in self.rules:
            if rule.head.relation not in seen:
                seen.append(rule.head.relation)
        return seen

    def edb_names(self) -> List[str]:
        """Return names of relations never defined by a rule (extensional)."""
        idbs = set(self.idb_names())
        return [relation.name for relation in self.schema if relation.name not in idbs]

    def rules_for(self, relation: str) -> List[Rule]:
        """Return the rules whose head is ``relation``, in program order."""
        return [rule for rule in self.rules if rule.head.relation == relation]

    def relation_names(self) -> List[str]:
        """Return every relation name referenced by the program."""
        names: List[str] = []
        for relation in self.schema:
            names.append(relation.name)
        for rule in self.rules:
            for name in [rule.head.relation] + rule.referenced_relations():
                if name not in names:
                    names.append(name)
        return names

    # -- construction ----------------------------------------------------

    def declare(self, relation: DLRelation) -> None:
        """Add a relation declaration (idempotent if identical)."""
        existing = self.schema.maybe_get(relation.name)
        if existing is None:
            self.schema.add(relation)
        elif existing != relation:
            raise TranslationError(
                f"conflicting declarations for relation {relation.name!r}"
            )

    def add_rule(self, rule: Rule) -> None:
        """Append ``rule`` to the program."""
        self.rules.append(rule)

    def add_output(self, relation: str) -> None:
        """Mark ``relation`` as an output of the program."""
        if relation not in self.outputs:
            self.outputs.append(relation)

    def add_fact(self, relation: str, values: Tuple[ConstValue, ...]) -> None:
        """Add a ground fact for an EDB relation."""
        self.facts.setdefault(relation, []).append(values)

    def copy(self) -> "DLIRProgram":
        """Return a structural copy safe to mutate independently."""
        return DLIRProgram(
            schema=self.schema.copy(),
            rules=list(self.rules),
            outputs=list(self.outputs),
            inputs=list(self.inputs),
            facts={name: list(rows) for name, rows in self.facts.items()},
        )

    # -- validation ------------------------------------------------------

    def validate(self) -> List[str]:
        """Return a list of structural problems (empty when well formed).

        Checks performed: every referenced relation is declared, atom arities
        match their declarations, and output relations exist.
        """
        problems: List[str] = []
        for rule in self.rules:
            atoms = [rule.head] + rule.body_atoms()
            atoms.extend(negated.atom for negated in rule.negated_atoms())
            for atom in atoms:
                declaration = self.schema.maybe_get(atom.relation)
                if declaration is None:
                    problems.append(f"relation {atom.relation!r} is not declared")
                elif declaration.arity != atom.arity:
                    problems.append(
                        f"atom {atom} has arity {atom.arity} but relation "
                        f"{atom.relation!r} is declared with arity {declaration.arity}"
                    )
        for output in self.outputs:
            if self.schema.maybe_get(output) is None:
                problems.append(f"output relation {output!r} is not declared")
        return problems

    def __str__(self) -> str:
        lines = [str(relation) for relation in self.schema]
        lines.extend(str(rule) for rule in self.rules)
        lines.extend(f".output {name}" for name in self.outputs)
        return "\n".join(lines)


def rename_relations(
    program: DLIRProgram, mapping: Mapping[str, str]
) -> DLIRProgram:
    """Return a copy of ``program`` with relations renamed per ``mapping``.

    Every occurrence is rewritten: schema declarations, rule heads, positive
    and negated body atoms, outputs, inputs and inline fact keys.  Names
    absent from ``mapping`` are kept.  Used by the session layer to give
    each prepared query a private namespace for its generated IDB relations
    (``Return`` → ``Return__<crc>q1``), so queries sharing one store can never
    collide on generated names (or, worse, on their arities).
    """
    renamed = DLIRProgram(
        schema=DLSchema(),
        outputs=[mapping.get(name, name) for name in program.outputs],
        inputs=[mapping.get(name, name) for name in program.inputs],
        facts={
            mapping.get(name, name): list(rows)
            for name, rows in program.facts.items()
        },
    )
    for relation in program.schema:
        new_name = mapping.get(relation.name, relation.name)
        renamed.schema.add(
            relation if new_name == relation.name else replace(relation, name=new_name)
        )

    def rename_atom(atom: Atom) -> Atom:
        new_name = mapping.get(atom.relation, atom.relation)
        return atom if new_name == atom.relation else Atom(new_name, atom.terms)

    for rule in program.rules:
        body: List[Literal] = []
        for literal in rule.body:
            if isinstance(literal, Atom):
                body.append(rename_atom(literal))
            elif isinstance(literal, NegatedAtom):
                body.append(NegatedAtom(rename_atom(literal.atom)))
            else:
                body.append(literal)
        renamed.rules.append(
            Rule(
                head=rename_atom(rule.head),
                body=tuple(body),
                aggregations=rule.aggregations,
                subsume_min=rule.subsume_min,
                subsume_max=rule.subsume_max,
            )
        )
    return renamed


# ---------------------------------------------------------------------------
# Late-bound parameters
# ---------------------------------------------------------------------------


def term_params(term: Term) -> Iterator[str]:
    """Yield the parameter names occurring in ``term``."""
    if isinstance(term, Param):
        yield term.name
    elif isinstance(term, ArithExpr):
        yield from term_params(term.left)
        yield from term_params(term.right)


def rule_param_names(rule: Rule) -> List[str]:
    """Return the parameter names referenced by ``rule``, without duplicates."""
    names: List[str] = []

    def collect(term: Term) -> None:
        for name in term_params(term):
            if name not in names:
                names.append(name)

    for term in rule.head.terms:
        collect(term)
    for literal in rule.body:
        if isinstance(literal, Atom):
            for term in literal.terms:
                collect(term)
        elif isinstance(literal, NegatedAtom):
            for term in literal.atom.terms:
                collect(term)
        elif isinstance(literal, Comparison):
            collect(literal.left)
            collect(literal.right)
    for aggregation in rule.aggregations:
        if aggregation.argument is not None:
            collect(aggregation.argument)
    return names


def program_param_names(program: DLIRProgram) -> List[str]:
    """Return every parameter name referenced by ``program``, in rule order."""
    names: List[str] = []
    for rule in program.rules:
        for name in rule_param_names(rule):
            if name not in names:
                names.append(name)
    return names


def _bind_term(term: Term, values: Mapping[str, ConstValue]) -> Term:
    if isinstance(term, Param):
        if term.name not in values:
            raise TranslationError(
                f"no value supplied for query parameter ${term.name}"
            )
        return Const(values[term.name])
    if isinstance(term, ArithExpr):
        return ArithExpr(
            term.op, _bind_term(term.left, values), _bind_term(term.right, values)
        )
    return term


def bind_parameters(
    program: DLIRProgram, values: Mapping[str, ConstValue]
) -> DLIRProgram:
    """Return a copy of ``program`` with every :class:`Param` replaced by the
    :class:`Const` it is bound to in ``values``.

    This is the *early-binding* escape hatch for backends that cannot accept
    named placeholders at execution time (the in-repo relational engine); the
    Datalog engine instead keeps the parameters late-bound and resolves them
    per run.  A parameter without a value raises
    :class:`~repro.common.errors.TranslationError`.
    """
    bound = program.copy()
    new_rules: List[Rule] = []
    for rule in bound.rules:
        body: List[Literal] = []
        for literal in rule.body:
            if isinstance(literal, Atom):
                body.append(
                    Atom(
                        literal.relation,
                        tuple(_bind_term(term, values) for term in literal.terms),
                    )
                )
            elif isinstance(literal, NegatedAtom):
                body.append(
                    NegatedAtom(
                        Atom(
                            literal.atom.relation,
                            tuple(
                                _bind_term(term, values)
                                for term in literal.atom.terms
                            ),
                        )
                    )
                )
            elif isinstance(literal, Comparison):
                body.append(
                    Comparison(
                        literal.op,
                        _bind_term(literal.left, values),
                        _bind_term(literal.right, values),
                    )
                )
            else:  # pragma: no cover - defensive
                body.append(literal)
        aggregations = tuple(
            Aggregation(
                func=aggregation.func,
                result=aggregation.result,
                argument=(
                    _bind_term(aggregation.argument, values)
                    if aggregation.argument is not None
                    else None
                ),
                distinct=aggregation.distinct,
            )
            for aggregation in rule.aggregations
        )
        new_rules.append(
            Rule(
                head=Atom(
                    rule.head.relation,
                    tuple(_bind_term(term, values) for term in rule.head.terms),
                ),
                body=tuple(body),
                aggregations=aggregations,
                subsume_min=rule.subsume_min,
                subsume_max=rule.subsume_max,
            )
        )
    bound.rules = new_rules
    return bound
