"""Compiled closure execution of :class:`RulePlan`\\ s.

The interpreted executor (`evaluation.py`) walks a plan step by step: every
row pays a dict copy, a per-step dispatch, and a per-element branch while
assembling probe keys.  This module removes that interpretive overhead the
same way the paper compiles declarative queries down to specialised code:
each plan is **source-generated** into one plain Python function — the join
loop nest, key assembly, equality checks, comparison guards, negation probes
and head projection are all inlined — then ``compile``\\ d + ``exec``\\ 'd once
and cached per plan.

Execution is *level at a time*: the partial solutions after each join step
are materialised as tuples of bound-variable values, and the next step's
probe keys for **all** of them are handed to the store in one
:meth:`~repro.engines.datalog.storage.StoreBackend.lookup_many` call — one
dict sweep on the in-memory store, one SQL query on the SQLite store —
instead of one ``lookup`` per row.  A generated function looks like::

    def _compiled_rule(store, delta):
        # tc(x, y) :- tc(x, z), edge(z, y).  [delta at body position 0]
        lookup = store.lookup
        lookup_many = store.lookup_many
        out = set()
        # step 0: tc(x, z)  [delta]
        if delta is None:
            rows_0 = lookup('tc', (), ())
        else:
            rows_0 = delta.lookup((), ())
        sols = []
        for row in rows_0:
            v_x = row[0]
            v_z = row[1]
            sols.append((v_x, v_z))
        ...
        # step 1: edge(z, y)  [batched probe on positions (0,)]
        keys_1 = [(v_z,) for (v_x, v_z) in sols]
        probe_1 = lookup_many('edge', (0,), keys_1)
        ...

Semantics are identical to the interpreter (the differential suite in
``tests/engines/test_store_differential.py`` checks all executor × store
combinations against a naive oracle); aggregate rules reuse the shared
grouping logic via :func:`~repro.engines.datalog.evaluation.aggregate_solutions`.

**Fallback.**  A plan the generator cannot compile (an unexpected term shape,
or a delta step the planner did not place first) silently falls back to the
interpreted executor — correctness never depends on codegen coverage.
Executor selection threads ``DatalogEngine(..., executor=...)`` →
``Raqlet`` → the CLI's ``--executor``, defaulting to ``"compiled"``.
"""

from __future__ import annotations

import math
import re
import threading
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple, Union

from repro.common.errors import ExecutionError
from repro.common.semantics import COMPARISON_TYPE_ERROR, arith
from repro.dlir.core import (
    ArithExpr,
    Const,
    Param,
    Rule,
    Term,
    Var,
)
from repro.engines.datalog.evaluation import (
    aggregate_solutions,
    evaluate_plan,
    resolve_delta_view,
)
from repro.engines.datalog.planner import Guard, RulePlan, plan_rule
from repro.engines.datalog.storage import DeltaView, StoreBackend


class CodegenError(Exception):
    """Raised when a plan cannot be turned into a closure (triggers fallback)."""


# -- helpers referenced by the generated code --------------------------------


def _div(left, right):
    """``/`` as the semantics core defines it (truncating, error on zero)."""
    return arith("/", left, right)


def _mod(left, right):
    """``%`` as the semantics core defines it (dividend's sign, error on zero)."""
    return arith("%", left, right)


def _unbound(name):
    """Raise the interpreter's unbound-variable error (scheduled statically)."""
    raise ExecutionError(f"variable {name!r} is not bound")


def _param(params, name):
    """Resolve one late-bound parameter (the interpreter's error on a miss)."""
    if params is None or name not in params:
        raise ExecutionError(f"no value bound for query parameter ${name}")
    return params[name]


#: the globals every generated closure runs with
_CLOSURE_GLOBALS = {
    "ExecutionError": ExecutionError,
    "_div": _div,
    "_mod": _mod,
    "_unbound": _unbound,
    "_param": _param,
    "_cmp_error": COMPARISON_TYPE_ERROR,
}


# -- the code generator ------------------------------------------------------


class _PlanCompiler:
    """Generates the Python source of one plan's closure.

    Variable naming: every rule variable gets a ``v_``-prefixed Python
    identifier (sanitised, deduplicated), so generated scaffolding names
    (``row``, ``sols``, ``keys_N``, ``_l``/``_r``/``_ok``) can never
    collide.  Variables bound during join steps travel in the per-solution
    tuples (``slots``); variables bound by the prelude stay plain function
    locals.  Generation is deterministic — the golden tests diff the source.
    """

    def __init__(self, plan: RulePlan, function_name: str = "_compiled_rule") -> None:
        self.plan = plan
        self.rule = plan.rule
        self.function_name = function_name
        self.lines: List[str] = []
        self.env: Dict[str, str] = {}  # rule variable -> python identifier
        self.used: Set[str] = set()
        self.slots: List[str] = []  # identifiers carried in solution tuples
        self.slot_idents: Set[str] = set()
        self.in_steps = False
        # Late-bound parameters: hoisted into locals once per call, so the
        # closure's signature (and source) only changes for parameterised
        # rules — parameter-free plans generate byte-identical code.
        self.param_names: Tuple[str, ...] = plan.param_names

    # -- small emission helpers ------------------------------------------

    def emit(self, line: str, indent: int) -> None:
        self.lines.append("    " * indent + line)

    @staticmethod
    def _tuple(parts: Sequence[str]) -> str:
        parts = list(parts)
        if not parts:
            return "()"
        if len(parts) == 1:
            return f"({parts[0]},)"
        return "(" + ", ".join(parts) + ")"

    def _fresh(self, name: str) -> str:
        base = "v_" + (re.sub(r"\W", "_", name) or "_")
        candidate = base
        serial = 2
        while candidate in self.used:
            candidate = f"{base}_{serial}"
            serial += 1
        self.used.add(candidate)
        return candidate

    def _bind(self, name: str) -> str:
        """Allocate the identifier binding ``name`` from here on."""
        ident = self._fresh(name)
        self.env[name] = ident
        if self.in_steps:
            self.slots.append(ident)
            self.slot_idents.add(ident)
        return ident

    def _pattern(self) -> str:
        """The unpack target for one solution tuple (``_`` when empty)."""
        return self._tuple(self.slots) if self.slots else "_"

    # -- expression compilation ------------------------------------------

    @staticmethod
    def _literal(value) -> str:
        """A source literal evaluating to ``value``.

        ``repr`` round-trips every supported constant except non-finite
        floats, whose repr (``inf``/``nan``) is a bare undefined name.
        """
        if isinstance(value, float) and not math.isfinite(value):
            return f"float({str(value)!r})"
        return repr(value)

    def _term(self, term: Term) -> str:
        if isinstance(term, Const):
            return self._literal(term.value)
        if isinstance(term, Param):
            ident = self.env.get(f"${term.name}")
            if ident is None:  # pragma: no cover - hoist covers every rule param
                raise CodegenError(f"parameter ${term.name} was not hoisted")
            return ident
        if isinstance(term, Var):
            ident = self.env.get(term.name)
            if ident is None:
                # Statically known to be unbound when this point runs: the
                # planner's fallback scheduling for never-bound negation
                # terms.  Raise the interpreter's error at run time.
                return f"_unbound({term.name!r})"
            return ident
        if isinstance(term, ArithExpr):
            left = self._term(term.left)
            right = self._term(term.right)
            if term.op in ("+", "-", "*"):
                return f"({left} {term.op} {right})"
            if term.op == "/":
                return f"_div({left}, {right})"
            if term.op == "%":
                return f"_mod({left}, {right})"
            raise CodegenError(f"unknown arithmetic operator {term.op!r}")
        raise CodegenError(f"cannot compile term {term!r}")

    # -- guard emission ---------------------------------------------------

    def _emit_guard(self, guard: Guard, indent: int, fail: str) -> None:
        for op in guard.ops:
            if op[0] == "assign":
                expr = self._term(op[2])
                ident = self._bind(op[1])
                self.emit(f"{ident} = {expr}", indent)
            else:
                comparison = op[1]
                left = self._term(comparison.left)
                right = self._term(comparison.right)
                if comparison.op in ("=", "<>"):
                    py_op = "==" if comparison.op == "=" else "!="
                    self.emit(f"if not ({left} {py_op} {right}):", indent)
                    self.emit(fail, indent + 1)
                else:
                    # Ordering comparisons can raise TypeError on mixed
                    # types; surface the interpreter's ExecutionError.
                    self.emit(f"_l = {left}", indent)
                    self.emit(f"_r = {right}", indent)
                    self.emit("try:", indent)
                    self.emit(f"_ok = _l {comparison.op} _r", indent + 1)
                    self.emit("except TypeError as exc:", indent)
                    self.emit(
                        "raise ExecutionError(_cmp_error % "
                        f"(_l, _r, {comparison.op!r})) from exc",
                        indent + 1,
                    )
                    self.emit("if not _ok:", indent)
                    self.emit(fail, indent + 1)
        # One ``lookup`` per surviving row per negation, in the interpreter's
        # order: a later negation's key is never evaluated for a row an
        # earlier one rejected.
        for negation in guard.negations:
            key = self._tuple([self._term(term) for term in negation.terms])
            self.emit(
                f"if lookup({negation.relation!r}, {negation.positions!r}, {key}):",
                indent,
            )
            self.emit(fail, indent + 1)

    # -- whole-plan generation --------------------------------------------

    def generate(self) -> str:
        plan, rule = self.plan, self.rule
        is_aggregate = bool(rule.aggregations)
        if plan.delta_index is not None and (
            not plan.steps or plan.steps[0].body_index != plan.delta_index
        ):
            raise CodegenError(
                "compiled execution requires the delta atom at step 0"
            )
        signature = "store, delta, params" if self.param_names else "store, delta"
        self.emit(f"def {self.function_name}({signature}):", 0)
        delta_note = (
            f"  [delta at body position {plan.delta_index}]"
            if plan.delta_index is not None
            else ""
        )
        self.emit(f"# {rule}{delta_note}", 1)
        self.emit("lookup = store.lookup", 1)
        self.emit("lookup_many = store.lookup_many", 1)
        for name in self.param_names:
            ident = self._fresh(name)
            self.env[f"${name}"] = ident
            self.emit(f"{ident} = _param(params, {name!r})", 1)
        self.emit("out = []" if is_aggregate else "out = set()", 1)
        self._emit_guard(plan.prelude, 1, "return out")
        self.in_steps = True

        last_index = len(plan.steps) - 1
        for index, step in enumerate(plan.steps):
            atom = rule.body[step.body_index]
            is_last = index == last_index
            is_delta = (
                plan.delta_index is not None
                and step.body_index == plan.delta_index
            )
            key_parts: List[str] = []
            solution_dependent = False
            for is_var, source in step.key_sources:
                if is_var:
                    ident = self.env.get(source)
                    if ident is None:
                        raise CodegenError(f"key variable {source!r} is unbound")
                    if ident in self.slot_idents:
                        solution_dependent = True
                    key_parts.append(ident)
                else:
                    key_parts.append(self._literal(source))
            key_src = self._tuple(key_parts)
            positions_src = repr(tuple(step.key_positions))
            prev_pattern = self._pattern()

            if index == 0:
                self.emit(f"# step 0: {atom}" + ("  [delta]" if is_delta else ""), 1)
                if is_delta:
                    self.emit("if delta is None:", 1)
                    self.emit(
                        f"rows_0 = lookup({step.relation!r}, {positions_src}, {key_src})",
                        2,
                    )
                    self.emit("else:", 1)
                    self.emit(f"rows_0 = delta.lookup({positions_src}, {key_src})", 2)
                else:
                    self.emit(
                        f"rows_0 = lookup({step.relation!r}, {positions_src}, {key_src})",
                        1,
                    )
                if not is_last:
                    self.emit("sols = []", 1)
                self.emit("for row in rows_0:", 1)
                body_indent = 2
                target = "sols"
            else:
                self.emit("if not sols:", 1)
                self.emit("return out", 2)
                if solution_dependent:
                    self.emit(
                        f"# step {index}: {atom}  "
                        f"[batched probe on positions {tuple(step.key_positions)}]",
                        1,
                    )
                    self.emit(
                        f"keys_{index} = [{key_src} for {prev_pattern} in sols]", 1
                    )
                    self.emit(
                        f"probe_{index} = lookup_many("
                        f"{step.relation!r}, {positions_src}, keys_{index})",
                        1,
                    )
                    if not is_last:
                        self.emit("new_sols = []", 1)
                    self.emit(
                        f"for key_{index}, {prev_pattern} in zip(keys_{index}, sols):",
                        1,
                    )
                    self.emit(f"for row in probe_{index}[key_{index}]:", 2)
                else:
                    self.emit(f"# step {index}: {atom}", 1)
                    self.emit(
                        f"rows_{index} = lookup({step.relation!r}, "
                        f"{positions_src}, {key_src})",
                        1,
                    )
                    if not is_last:
                        self.emit("new_sols = []", 1)
                    self.emit(f"for {prev_pattern} in sols:", 1)
                    self.emit(f"for row in rows_{index}:", 2)
                body_indent = 3
                target = "new_sols"

            if step.eq_positions:
                condition = " or ".join(
                    f"row[{a}] != row[{b}]" for a, b in step.eq_positions
                )
                self.emit(f"if {condition}:", body_indent)
                self.emit("continue", body_indent + 1)
            for position, name in step.bind_positions:
                ident = self._bind(name)
                self.emit(f"{ident} = row[{position}]", body_indent)
            self._emit_guard(step.guard, body_indent, "continue")
            if is_last:
                # The final level projects straight out of the loop — no
                # last round of solution tuples is materialised.
                self._emit_result(is_aggregate, body_indent)
            else:
                self.emit(f"{target}.append({self._tuple(self.slots)})", body_indent)
                if index > 0:
                    self.emit("sols = new_sols", 1)

        if plan.steps:
            self.emit("return out", 1)
        else:
            # No join steps: the prelude admits exactly one (empty) solution.
            self._emit_result(is_aggregate, 1)
            if not plan.unresolved:
                self.emit("return out", 1)
        return "\n".join(self.lines) + "\n"

    def _emit_result(self, is_aggregate: bool, indent: int) -> None:
        """Emit what happens to one completed body solution."""
        plan, rule = self.plan, self.rule
        if plan.unresolved:
            # Reaching the end of the body with unresolved comparisons is
            # the interpreter's unsafe-rule error (empty joins never raise).
            unresolved_text = ", ".join(str(c) for c in plan.unresolved)
            message = (
                f"rule {rule} has comparisons over unbound variables: "
                f"{unresolved_text}"
            )
            self.emit(f"raise ExecutionError({message!r})", indent)
        elif is_aggregate:
            bindings_src = (
                "{"
                + ", ".join(
                    f"{name!r}: {ident}" for name, ident in self.env.items()
                )
                + "}"
            )
            self.emit(f"out.append({bindings_src})", indent)
        else:
            head_src = self._tuple([self._term(term) for term in rule.head.terms])
            self.emit(f"out.add({head_src})", indent)


def generate_plan_source(plan: RulePlan, function_name: str = "_compiled_rule") -> str:
    """Return the Python source of ``plan``'s closure (the golden-test hook)."""
    return _PlanCompiler(plan, function_name).generate()


@dataclass(frozen=True)
class CompiledPlan:
    """A plan, its generated source, and the executable closure.

    ``fn(store, delta)`` returns the derived head-tuple set for plain rules
    and the list of body-solution bindings for aggregate rules (which are
    then grouped by :func:`aggregate_solutions`).  Closures of parameterised
    rules take the extra argument ``fn(store, delta, params)`` — the dict of
    late-bound values, hoisted into locals at the top of the function —
    which is what lets one compiled closure serve every parameter binding.
    """

    plan: RulePlan
    source: str
    fn: Callable


def compile_plan(plan: RulePlan) -> CompiledPlan:
    """Generate, compile and return the closure for ``plan`` (uncached)."""
    source = generate_plan_source(plan)
    namespace = dict(_CLOSURE_GLOBALS)
    code = compile(source, f"<plan:{plan.rule.head.relation}>", "exec")
    exec(code, namespace)
    return CompiledPlan(plan=plan, source=source, fn=namespace["_compiled_rule"])


# -- executor objects --------------------------------------------------------


class RuleExecutor:
    """The strategy interface the engine evaluates single rules through.

    :meth:`evaluate_rule` is the one entry contract: it settles everything
    that does not depend on the execution strategy, then hands the plan to
    the subclass's :meth:`_run`.
    """

    name = "abstract"

    def evaluate_rule(
        self,
        rule: Rule,
        store: StoreBackend,
        delta_index: Optional[int] = None,
        delta_rows: Optional[Sequence[Tuple]] = None,
        plan: Optional[RulePlan] = None,
        params: Optional[Dict[str, object]] = None,
    ) -> Set[Tuple]:
        """Evaluate one rule application; return the derived head tuples.

        ``plan`` supplies a precompiled strategy; omitted, one is built for
        this call.  ``params`` supplies the run's late-bound parameter
        values (prepared queries); plans and compiled closures are
        binding-independent, so the same plan serves every ``params``.
        """
        if plan is None:
            delta_size = len(delta_rows) if delta_rows is not None else 0
            plan = plan_rule(rule, store, delta_index, delta_size)
        # Aggregate rules are always recomputed over the full store: a new
        # delta row can change the aggregate of groups derived earlier.
        delta = (
            None
            if rule.aggregations
            else resolve_delta_view(plan, delta_index, delta_rows)
        )
        for name in plan.param_names:
            if params is None or name not in params:
                raise ExecutionError(f"no value bound for query parameter ${name}")
        return self._run(plan, store, delta, params)

    def _run(
        self,
        plan: RulePlan,
        store: StoreBackend,
        delta: Optional[DeltaView],
        params: Optional[Dict[str, object]],
    ) -> Set[Tuple]:
        """Execute ``plan`` — over ``delta`` at its delta step when given."""
        raise NotImplementedError


class InterpretedExecutor(RuleExecutor):
    """The plan-walking executor from ``evaluation.py`` (the reference)."""

    name = "interpreted"

    def _run(self, plan, store, delta, params):
        return evaluate_plan(plan, store, delta, params)


_UNSET = object()


class PlanMemo:
    """What an executor derives from a plan, built once per plan structure.

    Entries are keyed by plan *structure* (``RulePlan`` is a frozen
    dataclass), so a re-plan that lands on the same join order reuses the
    derived value.  The hot path — the engine passing the same
    ``PlanCache``-owned plan object every iteration — is served by an
    identity memo in front of the structural map, so it never recomputes a
    deep plan hash (the reason ``PlanCache`` itself keys by ``id``).

    One executor is shared by every worker of a serving pool.  The
    identity-memo fast path stays lock-free (a single dict read, atomic
    under the GIL, of an immutable tuple); the slow path — ``build`` + both
    cache writes — runs under a lock with a double-check so concurrent
    first-misses of the same plan build it exactly once.
    """

    #: identity-memo bound: above this the memo is cleared (it only exists
    #: to skip hashing, so dropping it is always safe)
    _ID_MEMO_LIMIT = 4096

    def __init__(self, build: Callable[[RulePlan], object]) -> None:
        self._build = build
        self._by_structure: Dict[RulePlan, object] = {}
        # id -> (plan, value); the plan reference keeps the id alive.
        self._by_id: Dict[int, Tuple[RulePlan, object]] = {}
        self._lock = threading.Lock()

    def get(self, plan: RulePlan):
        memoised = self._by_id.get(id(plan))
        if memoised is not None and memoised[0] is plan:
            return memoised[1]
        with self._lock:
            value = self._by_structure.get(plan, _UNSET)
            if value is _UNSET:
                value = self._by_structure[plan] = self._build(plan)
            if len(self._by_id) >= self._ID_MEMO_LIMIT:
                self._by_id.clear()
            self._by_id[id(plan)] = (plan, value)
        return value


class CompiledExecutor(RuleExecutor):
    """Evaluates rules through cached source-generated closures.

    Closures are cached per plan in a :class:`PlanMemo`.  Plans the
    generator rejects are remembered as ``None`` and permanently routed to
    the interpreter; ``fallback_count`` says how many distinct plans did.
    """

    name = "compiled"

    def __init__(self) -> None:
        self.fallback_count = 0
        #: closures actually generated+compiled (structural cache misses);
        #: the session tests assert this stays flat across re-binds
        self.compile_count = 0
        self._closures = PlanMemo(self._compile)

    def _compile(self, plan: RulePlan) -> Optional[CompiledPlan]:
        try:
            compiled = compile_plan(plan)
        except (CodegenError, SyntaxError):
            self.fallback_count += 1
            return None
        self.compile_count += 1
        return compiled

    def compiled_for(self, plan: RulePlan) -> Optional[CompiledPlan]:
        """Return the cached closure for ``plan`` (``None`` = interpreter)."""
        return self._closures.get(plan)

    def _run(self, plan, store, delta, params):
        compiled = self.compiled_for(plan)
        if compiled is None:
            return evaluate_plan(plan, store, delta, params)
        if plan.param_names:
            result = compiled.fn(store, delta, params)
        else:
            result = compiled.fn(store, delta)
        if plan.rule.aggregations:
            return aggregate_solutions(plan.rule, result, params=params)
        return result


#: What :func:`create_executor` and the engine accept as an executor selection.
ExecutorSpec = Union[str, RuleExecutor, None]


def create_executor(spec: ExecutorSpec = None) -> RuleExecutor:
    """Resolve an executor specification into a :class:`RuleExecutor`.

    ``spec`` may be an existing executor instance (returned as-is), one of
    the strings ``"interpreted"`` / ``"compiled"`` / ``"columnar"``, or
    ``None`` — the compiled default.  ``"columnar"`` requires
    NumPy (the ``repro[columnar]`` extra) and raises
    :class:`~repro.common.errors.ExecutionError` without it.
    """
    if isinstance(spec, RuleExecutor):
        return spec
    if spec is None:
        spec = "compiled"
    if not isinstance(spec, str):
        raise ValueError(f"unsupported executor specification {spec!r}")
    if spec == "interpreted":
        return InterpretedExecutor()
    if spec == "compiled":
        return CompiledExecutor()
    if spec == "columnar":
        # Imported lazily: the columnar module needs NumPy only at
        # construction time, and this module must import without it.
        from repro.engines.datalog.executor_columnar import ColumnarExecutor

        return ColumnarExecutor()
    raise ValueError(
        f"unknown executor {spec!r} "
        "(expected 'interpreted', 'compiled', or 'columnar')"
    )
