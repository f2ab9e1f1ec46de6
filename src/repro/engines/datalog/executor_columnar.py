"""Columnar (NumPy) execution of :class:`RulePlan`\\ s.

The interpreted and compiled executors are *tuple at a time*: however the
loop nest is generated, every row still pays Python-level dispatch for key
assembly, guard checks and head projection.  This module changes the
**representation** instead — the same move the paper makes when lowering
declarative queries onto an efficient execution substrate: each level of the
join is a set of **column arrays** and every plan operation becomes one
vectorised kernel over whole levels.

* **Value dictionary.**  All values are mapped through one executor-wide
  :class:`ValueDict` into dense ``int64`` codes.  The dictionary is an
  ordinary Python dict, so code equality is *exactly* the engine's stored
  set/index-key semantics: ``1 == 1.0 == True`` collapse to one code, and
  two distinct NaN objects keep distinct codes while the same NaN object
  maps to one (tuple/dict hashing identity-shortcuts, ``==`` does not — the
  NULL/NaN semantics pinned for SQLite in PR 2 and by the kernel contract
  tests).  Store relations are encoded to columns once per version
  (:meth:`StoreBackend.data_version`) and cached; levels convert back to
  Python tuples only at the head projection, so both ``StoreBackend``\\ s
  work unchanged.

* **Joins.**  Each join step packs the probe-key code columns of both sides
  into one ``int64`` key (or joint dense group ids when the packed range
  would overflow), sorts the relation side once, and enumerates matches with
  two ``np.searchsorted`` sweeps plus ``np.repeat`` expansion — the
  factorize/searchsorted hash join over the plan's existing index key
  positions.  Constant/parameter key positions and the plan's
  ``eq_positions`` become boolean pre-masks on the relation columns.

* **Guards.**  Comparison checks are boolean masks (code equality for
  ``=``/``<>`` with a NaN correction; numeric kernels for orderings),
  ``=``-assignments materialise a new code column, and negation probes are
  one membership test (``np.isin`` over packed keys) per negated relation.

* **Aggregate tails** are grouped reductions: group keys factorize to dense
  group ids, and count/sum/min/max/avg reduce sorted segments via
  ``np.bincount`` / ``np.add.reduceat``-style kernels (``distinct`` dedups
  ``(group, value)`` pairs first) — subsuming the "compiled aggregate
  tails" follow-up.

**Fallback, two tiers.**  Shapes the lowering cannot vectorise — parameters
inside arithmetic (they defeat static column typing), negation or
comparison over a never-bound variable, ``collect`` (order-sensitive),
arithmetic negation keys or aggregate arguments — are rejected *statically*
per plan and permanently routed to the compiled executor
(``fallback_count``, mirroring the compiled executor's own counter).  Data
the kernels cannot handle *exactly* — mixed-dtype columns that defeat dtype
inference, integers beyond exact ``float64``/``int64`` range, a zero
divisor, NaN in ordered aggregates, ragged rows — raises
:class:`ColumnarFallback` at run time and the whole rule application is
re-run on the compiled executor (``runtime_fallback_count``); the
vectorised path never writes to the store, so the re-run is always safe and
reproduces the interpreter's exact result or error.  ``vectorised_count``
counts the applications that completed columnar, which is what the
differential corpus' coverage assertions read.

Executor selection threads ``DatalogEngine(..., executor="columnar")`` →
``Raqlet`` → the CLI's ``--executor columnar``, exactly like the compiled
executor.  Equivalence
with the other two executors is held by the 50-seed store differential and
32-seed IVM differential harnesses plus the Hypothesis kernel contracts in
``tests/engines/test_columnar_kernels.py``; plan lowerings are golden-
snapshot tested via :func:`describe_columnar_plan`.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Sequence, Set, Tuple

try:  # NumPy is an optional extra (``repro[columnar]``)
    import numpy as np
except ImportError:  # pragma: no cover - exercised only without numpy
    np = None  # type: ignore[assignment]

from repro.common.errors import ExecutionError
from repro.common.semantics import COMPARISONS
from repro.dlir.core import ArithExpr, Const, Param, Term, Var, Wildcard
from repro.engines.datalog.executor_compiled import (
    CompiledExecutor,
    PlanMemo,
    RuleExecutor,
)
from repro.engines.datalog.planner import CompiledNegation, Guard, RulePlan
from repro.engines.datalog.storage import DeltaView, StoreBackend

#: integers with |v| <= this are exactly representable in float64
_FLOAT_EXACT = 2 ** 53
_INT64_MIN = -(2 ** 63)
_INT64_MAX = 2 ** 63 - 1
#: |operand| bound under which int64 add/sub cannot overflow
_SAFE_ADD = 2 ** 62
#: |operand| bound under which int64 multiply cannot overflow
_SAFE_MUL = 2 ** 31
#: packed multi-column keys must stay below this
_PACK_LIMIT = 2 ** 62


class ColumnarFallback(Exception):
    """Raised when data defeats the vectorised kernels at run time.

    The rule application is transparently re-run on the compiled executor;
    the vectorised path performs no store writes, so this is always safe.
    """


class ColumnarUnsupported(Exception):
    """Raised when a plan's *shape* cannot be lowered to columnar kernels
    (static, per plan — the reason string lands in the lowering goldens)."""


class ValueDict:
    """Executor-wide value ↔ ``int64`` code dictionary.

    Encoding goes through an ordinary Python dict, so two values share a
    code exactly when a stored tuple-set or hash index would treat them as
    the same key: ``1``/``1.0``/``True`` collapse, ``None`` is a value like
    any other, the same NaN object collapses with itself (identity
    shortcut) while distinct NaN objects stay distinct.  Per-code kind/
    numeric side arrays are maintained lazily for the comparison,
    arithmetic and aggregate kernels.
    """

    def __init__(self) -> None:
        self._codes: Dict[object, int] = {}
        self._values: List[object] = []
        self._synced = 0
        self._capacity = 0
        # Per-code side arrays, allocated empty so an empty dictionary
        # (nothing stored yet) still indexes with an empty code column.
        self._obj = np.zeros(0, dtype=object)  # code -> value
        self._kind = np.zeros(0, dtype=np.int8)  # 0 other, 1 int(/bool), 2 float
        self._ival = np.zeros(0, dtype=np.int64)  # value where kind == 1
        self._fval = np.zeros(0, dtype=np.float64)  # value where exact
        self._fexact = np.zeros(0, dtype=bool)  # float64 conversion is exact
        self._isnan = np.zeros(0, dtype=bool)  # value is a float NaN
        # One ValueDict serves every worker of a serving pool.  Code
        # *allocation* (the check-then-append below) and side-array syncs
        # must be atomic or two threads could hand one code to two values;
        # pure lookups of already-allocated codes stay lock-free (dict reads
        # are atomic under the GIL and codes are never reassigned).
        self._lock = threading.RLock()

    def __len__(self) -> int:
        return len(self._values)

    # -- encoding ---------------------------------------------------------

    def encode_one(self, value) -> int:
        """Return the code for one value, allocating it on first sight."""
        try:
            code = self._codes.get(value, -1)
        except TypeError as exc:  # unhashable — the engine could never store it
            raise ColumnarFallback(f"unhashable value {value!r}") from exc
        if code < 0:
            with self._lock:
                code = self._codes.get(value, -1)
                if code < 0:
                    code = len(self._values)
                    self._codes[value] = code
                    self._values.append(value)
        return code

    def encode_rows(self, rows: Sequence[Tuple]) -> Tuple[Tuple, int]:
        """Encode tuples into per-position ``int64`` code columns.

        Returns ``(columns, row_count)``; raises :class:`ColumnarFallback`
        on ragged arities or unhashable components.  The hot path is
        C-level throughout: ``zip(*rows)`` transposes, a ``set`` pass
        allocates fresh codes, and ``map(dict.__getitem__)`` feeds
        ``np.fromiter`` — no per-cell Python bytecode (this is the
        representation-boundary cost every store relation pays once per
        version).
        """
        count = len(rows)
        if count == 0:
            return (), 0
        width = len(rows[0])
        if any(len(row) != width for row in rows):
            raise ColumnarFallback("ragged relation (mixed row arities)")
        return (
            tuple(self.encode_scalars(column) for column in zip(*rows)),
            count,
        )

    def encode_scalars(self, scalars: Sequence) -> "np.ndarray":
        """Encode a sequence of Python values into one code column.

        ``set``/``dict`` lookups give exactly the container key semantics
        codes are defined by (hash + identity-shortcut + ``==``), so a
        value collapses with an earlier code precisely when a stored tuple
        set would collapse them.
        """
        codes = self._codes
        values = self._values
        try:
            if set(scalars).difference(codes):
                # Fresh values: allocate in first-occurrence order (the
                # dictionary contract the kernel tests pin).  Amortised —
                # re-encoding known values takes the loop-free path below.
                with self._lock:
                    for value in scalars:
                        if value not in codes:
                            codes[value] = len(values)
                            values.append(value)
            return np.fromiter(
                map(codes.__getitem__, scalars),
                dtype=np.int64,
                count=len(scalars),
            )
        except TypeError as exc:
            raise ColumnarFallback(f"unhashable value in column: {exc}") from exc

    # -- per-code side arrays ---------------------------------------------

    def _sync(self) -> None:
        total = len(self._values)
        if total == self._synced:
            return
        with self._lock:
            self._sync_locked()

    def _sync_locked(self) -> None:
        total = len(self._values)
        if total == self._synced:
            return
        if total > self._capacity:
            capacity = max(64, self._capacity * 2, total)
            self._obj = self._grow(self._obj, capacity, object)
            self._kind = self._grow(self._kind, capacity, np.int8)
            self._ival = self._grow(self._ival, capacity, np.int64)
            self._fval = self._grow(self._fval, capacity, np.float64)
            self._fexact = self._grow(self._fexact, capacity, bool)
            self._isnan = self._grow(self._isnan, capacity, bool)
            self._capacity = capacity
        for code in range(self._synced, total):
            value = self._values[code]
            self._obj[code] = value
            if isinstance(value, bool):
                self._kind[code] = 1
                self._ival[code] = int(value)
                self._fval[code] = float(value)
                self._fexact[code] = True
            elif isinstance(value, int):
                if _INT64_MIN <= value <= _INT64_MAX:
                    self._kind[code] = 1
                    self._ival[code] = value
                    exact = -_FLOAT_EXACT <= value <= _FLOAT_EXACT
                    self._fexact[code] = exact
                    self._fval[code] = float(value) if exact else 0.0
                # integers beyond int64 stay kind 0: joinable by code,
                # any value-level kernel falls back
            elif isinstance(value, float):
                self._kind[code] = 2
                self._fval[code] = value
                self._fexact[code] = True
                self._isnan[code] = value != value
        self._synced = total

    def _grow(self, array, capacity: int, dtype):
        fresh = np.zeros(capacity, dtype=dtype)
        fresh[: self._synced] = array[: self._synced]
        return fresh

    def decode(self, codes: "np.ndarray") -> "np.ndarray":
        """Return the object array of values for a code column."""
        self._sync()
        return self._obj[codes]

    def nan_mask(self, codes: "np.ndarray") -> "np.ndarray":
        """Boolean mask of codes whose value is a float NaN."""
        self._sync()
        return self._isnan[codes]

    def numeric(self, codes: "np.ndarray") -> Tuple[str, "np.ndarray"]:
        """Return ``("int", int64)`` or ``("float", float64)`` values.

        Falls back on non-numeric columns, on mixed columns whose integers
        exceed exact ``float64`` range, and on integers beyond ``int64`` —
        every case where a vectorised dtype could silently diverge from
        Python arithmetic.
        """
        self._sync()
        kinds = self._kind[codes]
        if bool((kinds == 1).all()):
            return "int", self._ival[codes]
        if bool(((kinds == 1) | (kinds == 2)).all()):
            if not bool(self._fexact[codes].all()):
                raise ColumnarFallback(
                    "integer magnitude defeats exact float64 conversion"
                )
            return "float", self._fval[codes]
        raise ColumnarFallback("mixed or non-numeric column defeats dtype inference")


# -- shared array kernels (contract-tested directly) --------------------------


def _to_float(kind: str, values: "np.ndarray") -> "np.ndarray":
    if kind == "float":
        return values
    ok = (values <= _FLOAT_EXACT) & (values >= -_FLOAT_EXACT)
    if not bool(ok.all()):
        raise ColumnarFallback("integer magnitude defeats exact float64 conversion")
    return values.astype(np.float64)


def _numeric_pair(left, right):
    """Put two ``(kind, array)`` operands on one exact common dtype."""
    left_kind, left_values = left
    right_kind, right_values = right
    if left_kind == "int" and right_kind == "int":
        return "int", left_values, right_values
    return "float", _to_float(left_kind, left_values), _to_float(right_kind, right_values)


def _int_bound_ok(values: "np.ndarray", bound: int) -> bool:
    """Whether every |value| is strictly below ``bound`` (so two such
    operands can never overflow int64 under the guarded operation)."""
    if values.size == 0:
        return True
    return bool(((values < bound) & (values > -bound)).all())


def arith_kernel(op: str, left, right):
    """Vectorised :func:`repro.common.semantics.arith`: ``(kind, array)``
    in, ``(kind, array)`` out.

    Equals the semantics core element-wise on the inputs it accepts;
    anything that could overflow ``int64``, divide by zero, produce NaN, or
    hit Python's own error paths raises :class:`ColumnarFallback` so the
    compiled re-run reproduces the exact value or exception.
    """
    kind, left_values, right_values = _numeric_pair(left, right)
    if op in ("+", "-"):
        if kind == "int" and not (
            _int_bound_ok(left_values, _SAFE_ADD) and _int_bound_ok(right_values, _SAFE_ADD)
        ):
            raise ColumnarFallback("possible int64 overflow in addition")
        result = left_values + right_values if op == "+" else left_values - right_values
    elif op == "*":
        if kind == "int" and not (
            _int_bound_ok(left_values, _SAFE_MUL) and _int_bound_ok(right_values, _SAFE_MUL)
        ):
            raise ColumnarFallback("possible int64 overflow in multiplication")
        result = left_values * right_values
    elif op == "/":
        if bool((right_values == 0).any()):
            # The semantics core raises ExecutionError for the first
            # offending row; replay exactly via the compiled path.
            raise ColumnarFallback("division by zero present")
        if kind == "int":
            if bool((left_values == _INT64_MIN).any()):
                raise ColumnarFallback("possible int64 overflow in division")
            result = np.floor_divide(left_values, right_values)
            # floor -> truncation toward zero, as the semantics core
            result += (result < 0) & (result * right_values != left_values)
        else:
            result = left_values / right_values
            # A float column can hold ints (mixed int/float columns convert
            # to float64): where both operands are integral the core may be
            # dividing ints, which truncates — only an exact quotient is
            # the same value either way.
            integral = (left_values == np.trunc(left_values)) & (
                right_values == np.trunc(right_values)
            )
            if bool((integral & (result != np.trunc(result))).any()):
                raise ColumnarFallback("possible integer division in a float column")
    elif op == "%":
        if kind != "int":
            raise ColumnarFallback("float modulo is not vectorised")
        if bool((right_values == 0).any()):
            raise ColumnarFallback("modulo by zero present")
        result = np.fmod(left_values, right_values)  # dividend's sign (C %)
    else:
        raise ColumnarFallback(f"unknown arithmetic operator {op!r}")
    if kind == "float" and bool(np.isnan(result).any()):
        # Each NaN the interpreter produces is a *distinct* object under set
        # semantics — unrepresentable in the shared dictionary.
        raise ColumnarFallback("NaN arithmetic result")
    return kind, result


def compare_codes_kernel(op: str, left: "np.ndarray", right: "np.ndarray", vd: ValueDict) -> "np.ndarray":
    """``=`` / ``<>`` on code columns with Python's ``==`` semantics.

    Equal codes mean dictionary-equal values — except NaN, where even the
    same object compares unequal under ``==`` (sets identity-shortcut,
    comparisons do not), hence the correction mask.
    """
    equal = left == right
    if bool(equal.any()):
        equal &= ~vd.nan_mask(left)
    return equal if op == "=" else ~equal


def hash_join_kernel(
    left_cols: Sequence["np.ndarray"],
    right_cols: Sequence["np.ndarray"],
    code_range: int,
    need_sorted_pos: bool = True,
) -> Tuple["np.ndarray", "np.ndarray", Optional["np.ndarray"]]:
    """Multi-column equality join on code columns.

    Returns ``(left_idx, order, sorted_pos)``: the matching pairs are
    ``(left_idx[k], order[sorted_pos[k]])``, grouped by left row.  Packs
    the key columns into one ``int64`` (falling back to joint factorization
    when the packed range would overflow), sorts the right side once and
    expands match ranges found by two ``searchsorted`` sweeps.

    The split result is deliberate: ``sorted_pos`` is piecewise-*contiguous*
    (each left row's matches are a run in the sorted order), so the caller
    gathers output columns as ``col[order][sorted_pos]`` — one O(right)
    shuffle plus one cache-friendly O(output) gather — instead of the
    random O(output) gather ``col[order[sorted_pos]]`` would cost per
    column.  A caller that gathers no right-side columns (all bound
    variables dead downstream but multiplicity still matters, e.g. a
    ``sum`` over an earlier column) passes ``need_sorted_pos=False`` and
    gets ``sorted_pos=None`` — the O(output) position build is the
    dominant cost on bandwidth-bound machines.
    """
    left_keys, right_keys = _pack_pair(left_cols, right_cols, code_range)
    n = len(left_keys)
    order = np.argsort(right_keys, kind="stable")
    ordered = right_keys[order]
    starts = np.searchsorted(ordered, left_keys, side="left")
    ends = np.searchsorted(ordered, left_keys, side="right")
    counts = ends - starts
    total = int(counts.sum())
    left_idx = np.repeat(np.arange(n, dtype=np.int64), counts)
    if not need_sorted_pos:
        return left_idx, order, None
    if total == 0:
        return left_idx, order, np.empty(0, dtype=np.int64)
    # sorted_pos[k] = starts[i] + (k - first output index of left row i)
    shift = starts - (np.cumsum(counts) - counts)
    sorted_pos = np.repeat(shift, counts) + np.arange(total, dtype=np.int64)
    return left_idx, order, sorted_pos


def membership_kernel(
    left_cols: Sequence["np.ndarray"],
    right_cols: Sequence["np.ndarray"],
    code_range: int,
) -> "np.ndarray":
    """Boolean mask: does each left key row appear among the right key rows?

    The negation-probe kernel (store hash-index semantics: key identity is
    code identity).
    """
    left_keys, right_keys = _pack_pair(left_cols, right_cols, code_range)
    return np.isin(left_keys, right_keys)


def _pack_pair(left_cols, right_cols, code_range: int):
    """Pack parallel key-column lists into one comparable int64 key each."""
    width = len(left_cols)
    if width == 1:
        return left_cols[0], right_cols[0]
    base = max(int(code_range), 1)
    packed_range = 1
    fits = True
    for _ in range(width):
        packed_range *= base
        if packed_range >= _PACK_LIMIT:
            fits = False
            break
    if fits:
        left = left_cols[0].astype(np.int64, copy=True)
        right = right_cols[0].astype(np.int64, copy=True)
        for index in range(1, width):
            left = left * base + left_cols[index]
            right = right * base + right_cols[index]
        return left, right
    # Joint factorization: dense group ids over the concatenated key rows.
    n = len(left_cols[0])
    stacked = np.concatenate(
        [np.stack(left_cols, axis=1), np.stack(right_cols, axis=1)], axis=0
    )
    _, inverse = np.unique(stacked, axis=0, return_inverse=True)
    inverse = inverse.reshape(-1).astype(np.int64)
    return inverse[:n], inverse[n:]


def distinct_rows_kernel(
    cols: Sequence["np.ndarray"], count: int, code_range: int
) -> Optional[List["np.ndarray"]]:
    """Return the distinct rows of ``cols`` as column arrays (row order is
    not meaningful — the result feeds a set).

    Packs the row into one ``int64``; when the packed range is small —
    which it is exactly on the dense workloads this executor targets — the
    dedup is a flag-array scatter, O(rows + range) with no sort at all.
    Larger packable ranges fall back to sort-based ``np.unique``; returns
    ``None`` when the row cannot be packed (caller uses
    :func:`group_rows_kernel`).
    """
    base = max(int(code_range), 1)
    width = len(cols)
    packed_range = 1
    for _ in range(width):
        packed_range *= base
        if packed_range >= _PACK_LIMIT:
            return None
    packed = cols[0] if width == 1 else cols[0].astype(np.int64, copy=True)
    for index in range(1, width):
        packed = packed * base + cols[index]
    if packed_range <= max(4 * count, 1 << 20):
        flags = np.zeros(packed_range, dtype=bool)
        flags[packed] = True
        distinct = np.flatnonzero(flags)
    else:
        distinct = np.unique(packed)
    out: List["np.ndarray"] = []
    for _ in range(width - 1):
        out.append(distinct % base)
        distinct = distinct // base
    out.append(distinct)
    out.reverse()
    return out


def group_rows_kernel(
    cols: Sequence["np.ndarray"], count: int, code_range: int
) -> Tuple[int, "np.ndarray", "np.ndarray"]:
    """Factorize rows into dense group ids.

    Returns ``(group_count, group_ids, first_row_index)`` where
    ``first_row_index[g]`` is the first row of group ``g`` (the exemplar the
    aggregate head projects group keys from).
    """
    if not cols:
        return 1, np.zeros(count, dtype=np.int64), np.zeros(1, dtype=np.int64)
    width = len(cols)
    if width == 1:
        packed = cols[0]
    else:
        base = max(int(code_range), 1)
        packed_range = 1
        fits = True
        for _ in range(width):
            packed_range *= base
            if packed_range >= _PACK_LIMIT:
                fits = False
                break
        if fits:
            packed = cols[0].astype(np.int64, copy=True)
            for index in range(1, width):
                packed = packed * base + cols[index]
        else:
            stacked = np.stack(cols, axis=1)
            uniq, first, inverse = np.unique(
                stacked, axis=0, return_index=True, return_inverse=True
            )
            return len(uniq), inverse.reshape(-1).astype(np.int64), first
    uniq, first, inverse = np.unique(packed, return_index=True, return_inverse=True)
    return len(uniq), inverse.reshape(-1).astype(np.int64), first


def grouped_reduce_kernel(
    func: str,
    group_ids: "np.ndarray",
    group_count: int,
    values,
) -> List:
    """Grouped reduction: count/sum/min/max/avg over ``(group, value)`` rows.

    ``values`` is ``None`` for ``count`` or a ``(kind, array)`` pair.  Sorts
    by group id (stable) and reduces contiguous segments with
    ``np.add.reduceat``-style ufunc kernels; returns a list of Python
    scalars, one per group.  Every group must be non-empty (groups come from
    actual solutions).  Order-sensitive cases (float sum/avg — segment order
    changes IEEE rounding) and NaN in ordered reductions fall back.
    """
    counts = np.bincount(group_ids, minlength=group_count)
    if func == "count":
        return counts.tolist()
    kind, value_array = values
    order = np.argsort(group_ids, kind="stable")
    ordered = value_array[order]
    segment_starts = np.cumsum(counts) - counts
    if func in ("sum", "avg"):
        if kind == "float":
            raise ColumnarFallback("float sum/avg is order-sensitive")
        if ordered.size:
            low = int(ordered.min())
            high = int(ordered.max())
            magnitude = max(abs(low), abs(high))
            if magnitude and magnitude * ordered.size >= _SAFE_ADD:
                raise ColumnarFallback("possible int64 overflow in sum")
        sums = np.add.reduceat(ordered, segment_starts)
        if func == "sum":
            return sums.tolist()
        if sums.size and not _int_bound_ok(sums, _FLOAT_EXACT):
            raise ColumnarFallback("sum magnitude defeats exact float64 division")
        return (sums / counts).tolist()
    if kind == "float" and bool(np.isnan(ordered).any()):
        raise ColumnarFallback("NaN defeats ordered reduction")
    if func == "min":
        return np.minimum.reduceat(ordered, segment_starts).tolist()
    if func == "max":
        return np.maximum.reduceat(ordered, segment_starts).tolist()
    raise ColumnarFallback(f"unknown aggregate function {func!r}")


# -- static plan lowering -----------------------------------------------------


@dataclass(frozen=True)
class _ColumnarStep:
    """One join step, with key sources split by how the kernel consumes them."""

    relation: str
    body_index: int
    is_delta: bool
    var_keys: Tuple[Tuple[int, str], ...]  # (position, level column)
    const_keys: Tuple[Tuple[int, object], ...]  # (position, literal value)
    param_keys: Tuple[Tuple[int, str], ...]  # (position, parameter name)
    bind_positions: Tuple[Tuple[int, str], ...]
    eq_positions: Tuple[Tuple[int, int], ...]
    guard: Guard
    #: columns still referenced at or after this step's guard — the join
    #: gathers only these (``None`` disables pruning: count(*) aggregates
    #: need every column for whole-binding distinctness)
    live_out: Optional[frozenset] = None
    #: existence check instead of expansion: every column this step binds is
    #: dead downstream and the rule has no aggregates, so match
    #: *multiplicity* can never be observed (the final projection
    #: deduplicates) — the join reduces to a membership mask over the level
    semijoin: bool = False


@dataclass(frozen=True)
class _ColumnarPlan:
    """A plan vetted and reshaped for the columnar kernels."""

    plan: RulePlan
    steps: Tuple[_ColumnarStep, ...]
    unresolved_message: Optional[str]


def _contains_param(term: Term) -> bool:
    if isinstance(term, Param):
        return True
    if isinstance(term, ArithExpr):
        return _contains_param(term.left) or _contains_param(term.right)
    return False


def _term_vars(term: Term, out: Set[str]) -> None:
    if isinstance(term, Var):
        out.add(term.name)
    elif isinstance(term, ArithExpr):
        _term_vars(term.left, out)
        _term_vars(term.right, out)


def _guard_vars(guard: Guard) -> Set[str]:
    refs: Set[str] = set()
    for op in guard.ops:
        if op[0] == "assign":
            _term_vars(op[2], refs)
        else:
            _term_vars(op[1].left, refs)
            _term_vars(op[1].right, refs)
    for negation in guard.negations:
        for term in negation.terms:
            _term_vars(term, refs)
    return refs


def _lower_plan(plan: RulePlan) -> _ColumnarPlan:
    """Vet ``plan`` for vectorised execution; raise :class:`ColumnarUnsupported`
    (with the reason the goldens snapshot) when its shape cannot be lowered."""
    rule = plan.rule
    if plan.delta_index is not None and (
        not plan.steps or plan.steps[0].body_index != plan.delta_index
    ):
        raise ColumnarUnsupported("delta atom is not at step 0")
    bound: Set[str] = set()

    def vet_term(term: Term, purpose: str, allow_arith: bool = True) -> None:
        if isinstance(term, (Const, Param)):
            return
        if isinstance(term, Var):
            if term.name not in bound:
                raise ColumnarUnsupported(
                    f"{purpose} reads never-bound variable {term.name!r}"
                )
            return
        if isinstance(term, ArithExpr):
            if not allow_arith:
                raise ColumnarUnsupported(f"arithmetic in {purpose}")
            if term.op not in ("+", "-", "*", "/", "%"):
                raise ColumnarUnsupported(
                    f"unknown arithmetic operator {term.op!r} in {purpose}"
                )
            if _contains_param(term):
                raise ColumnarUnsupported(
                    f"parameter inside arithmetic in {purpose} defeats "
                    "static column typing"
                )
            vet_term(term.left, purpose, allow_arith=True)
            vet_term(term.right, purpose, allow_arith=True)
            return
        if isinstance(term, Wildcard):
            raise ColumnarUnsupported(f"wildcard in {purpose}")
        raise ColumnarUnsupported(f"unsupported term {term!r} in {purpose}")

    def vet_guard(guard: Guard, where: str) -> None:
        for op in guard.ops:
            if op[0] == "assign":
                vet_term(op[2], f"assignment in {where}")
                bound.add(op[1])
            else:
                comparison = op[1]
                vet_term(comparison.left, f"comparison in {where}")
                vet_term(comparison.right, f"comparison in {where}")
        for negation in guard.negations:
            for term in negation.terms:
                # Arithmetic negation keys can raise per row (the interpreter
                # evaluates them lazily); keep that scheduling on the tuple
                # executors.
                vet_term(term, f"negation key in {where}", allow_arith=False)

    vet_guard(plan.prelude, "prelude")
    steps: List[_ColumnarStep] = []
    for index, step in enumerate(plan.steps):
        var_keys: List[Tuple[int, str]] = []
        const_keys: List[Tuple[int, object]] = []
        param_keys: List[Tuple[int, str]] = []
        for position, (is_var, source) in zip(step.key_positions, step.key_sources):
            if is_var and isinstance(source, str) and source.startswith("$"):
                param_keys.append((position, source[1:]))
            elif is_var:
                if source not in bound:
                    raise ColumnarUnsupported(
                        f"step {index} probes unbound variable {source!r}"
                    )
                var_keys.append((position, source))
            else:
                const_keys.append((position, source))
        for _position, name in step.bind_positions:
            bound.add(name)
        vet_guard(step.guard, f"step {index}")
        steps.append(
            _ColumnarStep(
                relation=step.relation,
                body_index=step.body_index,
                is_delta=(
                    plan.delta_index is not None
                    and step.body_index == plan.delta_index
                ),
                var_keys=tuple(var_keys),
                const_keys=tuple(const_keys),
                param_keys=tuple(param_keys),
                bind_positions=step.bind_positions,
                eq_positions=step.eq_positions,
                guard=step.guard,
            )
        )
    if rule.aggregations:
        for aggregation in rule.aggregations:
            if aggregation.func == "collect":
                raise ColumnarUnsupported(
                    "collect aggregate is order-sensitive"
                )
            if aggregation.func not in ("count", "sum", "min", "max", "avg"):
                raise ColumnarUnsupported(
                    f"unknown aggregate function {aggregation.func!r}"
                )
            if aggregation.argument is not None:
                vet_term(
                    aggregation.argument, "aggregate argument", allow_arith=False
                )
            bound.add(aggregation.result.name)
        for name in rule.group_by_variables():
            if name not in bound:
                raise ColumnarUnsupported(
                    f"aggregate groups by never-bound variable {name!r}"
                )
    for term in rule.head.terms:
        vet_term(term, "head")
    unresolved_message: Optional[str] = None
    if plan.unresolved:
        unresolved_text = ", ".join(str(c) for c in plan.unresolved)
        unresolved_message = (
            f"rule {rule} has comparisons over unbound variables: "
            f"{unresolved_text}"
        )
    # Backward liveness: each join gathers only columns referenced at or
    # after its guard.  Multiplicity is untouched (columns are dropped, rows
    # never deduplicated mid-plan) so aggregates stay exact — except
    # count(*), whose whole-binding distinctness needs every column, which
    # keeps ``live_out=None`` and disables pruning.
    prune = not any(
        aggregation.argument is None for aggregation in rule.aggregations
    )
    if prune:
        live: Set[str] = set()
        for term in rule.head.terms:
            _term_vars(term, live)
        for aggregation in rule.aggregations:
            _term_vars(aggregation.argument, live)
        live.update(rule.group_by_variables())
        for index in range(len(steps) - 1, -1, -1):
            step = steps[index]
            live_out = frozenset(live | _guard_vars(step.guard))
            semijoin = not rule.aggregations and all(
                name not in live_out for _position, name in step.bind_positions
            )
            steps[index] = replace(step, live_out=live_out, semijoin=semijoin)
            live = set(live_out)
            live.update(name for _position, name in step.var_keys)
    return _ColumnarPlan(
        plan=plan,
        steps=tuple(steps),
        unresolved_message=unresolved_message,
    )


# -- the lowering describer (golden-test hook) --------------------------------


def _describe_term(term: Term) -> str:
    return str(term)


def _describe_guard(guard: Guard, lines: List[str], indent: str) -> None:
    for op in guard.ops:
        if op[0] == "assign":
            lines.append(f"{indent}assign {op[1]} := {_describe_term(op[2])}")
        else:
            comparison = op[1]
            mode = "code-equality" if comparison.op in ("=", "<>") else "numeric"
            lines.append(
                f"{indent}mask {comparison}  [{mode} mask]"
            )
    for negation in guard.negations:
        keys = ", ".join(_describe_term(term) for term in negation.terms)
        lines.append(
            f"{indent}mask-not-in {negation.relation} on positions "
            f"{negation.positions!r} keys [{keys}]"
        )


def describe_columnar_plan(plan: RulePlan) -> str:
    """Render ``plan``'s columnar lowering as deterministic text.

    The golden-test hook, the columnar analogue of
    :func:`~repro.engines.datalog.executor_compiled.generate_plan_source`:
    one line per vectorised operation, or the fallback reason when the plan
    cannot be lowered.  Works without NumPy installed (lowering is pure
    plan analysis).
    """
    rule = plan.rule
    delta_note = (
        f"  [delta at body position {plan.delta_index}]"
        if plan.delta_index is not None
        else ""
    )
    lines = [f"columnar plan for {rule}{delta_note}"]
    try:
        lowered = _lower_plan(plan)
    except ColumnarUnsupported as exc:
        lines.append(f"  fallback to compiled executor: {exc}")
        return "\n".join(lines) + "\n"
    if plan.param_names:
        lines.append(
            "  params: " + ", ".join(f"${name}" for name in plan.param_names)
        )
    if not plan.prelude.is_empty():
        lines.append("  prelude:")
        _describe_guard(plan.prelude, lines, "    ")
    for index, step in enumerate(lowered.steps):
        source = "delta" if step.is_delta else "store"
        key_parts = [f"col {pos} == {name}" for pos, name in step.var_keys]
        key_parts += [f"col {pos} == {value!r}" for pos, value in step.const_keys]
        key_parts += [f"col {pos} == ${name}" for pos, name in step.param_keys]
        if key_parts and step.semijoin:
            mode = f"semi-join (existence mask) on [{', '.join(key_parts)}]"
        elif key_parts:
            mode = f"hash-join on [{', '.join(key_parts)}]"
        elif step.semijoin:
            mode = "existence check (non-empty relation keeps the level)"
        else:
            mode = "scan (cartesian extend)"
        lines.append(f"  step {index}: {step.relation} [{source}]  {mode}")
        for a, b in step.eq_positions:
            lines.append(f"    require col {a} == col {b}")
        for position, name in step.bind_positions:
            if step.semijoin:
                lines.append(
                    f"    col {position} ({name}) dead downstream — not gathered"
                )
            else:
                lines.append(f"    bind {name} <- col {position}")
        if step.live_out is not None:
            carried = ", ".join(sorted(step.live_out))
            lines.append(f"    carry only live columns [{carried}]")
        if not step.guard.is_empty():
            _describe_guard(step.guard, lines, "    ")
    if lowered.unresolved_message:
        lines.append("  raise-if-nonempty: unresolved comparisons (unsafe rule)")
    if rule.aggregations:
        group_keys = ", ".join(rule.group_by_variables())
        lines.append(f"  group by [{group_keys}]")
        for aggregation in rule.aggregations:
            lines.append(f"    reduce {aggregation}")
    head = ", ".join(_describe_term(term) for term in rule.head.terms)
    lines.append(f"  project [{head}]  dedup=unique, decode via value dictionary")
    return "\n".join(lines) + "\n"


# -- runtime ------------------------------------------------------------------


class _Level:
    """One join level: ``count`` aligned ``int64`` code columns per variable."""

    __slots__ = ("count", "cols")

    def __init__(self, count: int, cols: Dict[str, "np.ndarray"]) -> None:
        self.count = count
        self.cols = cols

    def compress(self, mask: "np.ndarray") -> "_Level":
        count = int(mask.sum())
        if count == self.count:
            return self
        return _Level(count, {name: col[mask] for name, col in self.cols.items()})

    def empty(self, extra_names: Sequence[str] = ()) -> "_Level":
        cols = {name: col[:0] for name, col in self.cols.items()}
        for name in extra_names:
            cols[name] = np.empty(0, dtype=np.int64)
        return _Level(0, cols)


class _Evaluation:
    """One vectorised rule application (pure: never writes to the store)."""

    def __init__(
        self,
        executor: "ColumnarExecutor",
        lowered: _ColumnarPlan,
        store: StoreBackend,
        params: Dict[str, object],
    ) -> None:
        self.executor = executor
        self.vd = executor._vd
        self.lowered = lowered
        self.store = store
        self.params = params

    # -- term evaluation ---------------------------------------------------

    def _scalar_code(self, term) -> int:
        if isinstance(term, Const):
            return self.vd.encode_one(term.value)
        return self.vd.encode_one(self.params[term.name])  # Param (vetted)

    def _eval_codes(self, term: Term, level: _Level) -> "np.ndarray":
        if isinstance(term, Var):
            return level.cols[term.name]
        if isinstance(term, (Const, Param)):
            return np.full(level.count, self._scalar_code(term), dtype=np.int64)
        # ArithExpr (vetted): numeric evaluation, encoded back to codes
        kind, values = self._eval_numeric(term, level)
        return self.vd.encode_scalars(values.tolist())

    def _eval_numeric(self, term: Term, level: _Level):
        if isinstance(term, Var):
            return self.vd.numeric(level.cols[term.name])
        if isinstance(term, (Const, Param)):
            value = term.value if isinstance(term, Const) else self.params[term.name]
            if isinstance(value, bool):
                return "int", np.full(level.count, int(value), dtype=np.int64)
            if isinstance(value, int):
                if not (_INT64_MIN <= value <= _INT64_MAX):
                    raise ColumnarFallback("integer literal beyond int64")
                return "int", np.full(level.count, value, dtype=np.int64)
            if isinstance(value, float):
                return "float", np.full(level.count, value, dtype=np.float64)
            raise ColumnarFallback(f"non-numeric operand {value!r}")
        if isinstance(term, ArithExpr):
            return arith_kernel(
                term.op,
                self._eval_numeric(term.left, level),
                self._eval_numeric(term.right, level),
            )
        raise ColumnarFallback(f"cannot evaluate term {term!r}")

    # -- guards ------------------------------------------------------------

    def _check_mask(self, comparison, level: _Level) -> "np.ndarray":
        op = comparison.op
        arith = isinstance(comparison.left, ArithExpr) or isinstance(
            comparison.right, ArithExpr
        )
        if op in ("=", "<>") and not arith:
            return compare_codes_kernel(
                op,
                self._eval_codes(comparison.left, level),
                self._eval_codes(comparison.right, level),
                self.vd,
            )
        holds = COMPARISONS.get(op)
        if holds is None:
            raise ColumnarFallback(f"unknown comparison operator {op!r}")
        # Exact numeric kernels only (the semantics core's own operator,
        # applied to whole columns); strings/mixed fall back and the
        # compiled re-run reproduces the core's answer or error.
        _kind, left, right = _numeric_pair(
            self._eval_numeric(comparison.left, level),
            self._eval_numeric(comparison.right, level),
        )
        return holds(left, right)

    def _negation_mask(self, negation: CompiledNegation, level: _Level):
        """Return the keep-mask for one negation (``None`` = keep all)."""
        cols, count = self.executor._relation_columns(self.store, negation.relation)
        if count == 0:
            return None
        if not negation.positions:
            # Fully existential probe: any stored fact rejects every row.
            return False
        if max(negation.positions) >= len(cols):
            raise ColumnarFallback("negation positions exceed stored arity")
        left = [self._eval_codes(term, level) for term in negation.terms]
        right = [cols[position] for position in negation.positions]
        return ~membership_kernel(left, right, len(self.vd))

    def _apply_guard(self, guard: Guard, level: _Level) -> _Level:
        for op in guard.ops:
            if op[0] == "assign":
                level.cols[op[1]] = self._eval_codes(op[2], level)
            else:
                level = level.compress(self._check_mask(op[1], level))
        for negation in guard.negations:
            mask = self._negation_mask(negation, level)
            if mask is None:
                continue
            if mask is False:
                return level.empty()
            level = level.compress(mask)
        return level

    # -- joins -------------------------------------------------------------

    def _join_step(
        self, step: _ColumnarStep, level: _Level, delta_view: Optional[DeltaView]
    ) -> _Level:
        if step.is_delta and delta_view is not None:
            cols, count = self.executor._delta_columns(delta_view)
        else:
            cols, count = self.executor._relation_columns(self.store, step.relation)
        live = step.live_out
        bind_names = [
            name
            for _pos, name in step.bind_positions
            if live is None or name in live
        ]
        if count == 0 or level.count == 0:
            return level.empty(bind_names)
        needed = [pos for pos, _ in step.var_keys]
        needed += [pos for pos, _ in step.const_keys]
        needed += [pos for pos, _ in step.param_keys]
        needed += [pos for pos, _ in step.bind_positions]
        needed += [pos for pair in step.eq_positions for pos in pair]
        if needed and max(needed) >= len(cols):
            raise ColumnarFallback("probe positions exceed stored arity")
        mask = None
        for position, value in step.const_keys:
            part = cols[position] == self.vd.encode_one(value)
            mask = part if mask is None else (mask & part)
        for position, name in step.param_keys:
            part = cols[position] == self.vd.encode_one(self.params[name])
            mask = part if mask is None else (mask & part)
        for a, b in step.eq_positions:
            # keep iff not (row[a] != row[b]): code equality, NaN rejected
            part = (cols[a] == cols[b]) & ~self.vd.nan_mask(cols[a])
            mask = part if mask is None else (mask & part)
        row_idx = np.nonzero(mask)[0] if mask is not None else None
        matched = int(row_idx.size) if row_idx is not None else count
        if matched == 0:
            return level.empty(bind_names)
        if step.var_keys:
            left_cols = [level.cols[name] for _pos, name in step.var_keys]
            right_cols = [
                cols[pos][row_idx] if row_idx is not None else cols[pos]
                for pos, _name in step.var_keys
            ]
            if step.semijoin:
                # Existence only: no bound column survives and multiplicity
                # is unobservable (no aggregates) — never expand the output.
                keep = membership_kernel(left_cols, right_cols, len(self.vd))
                count = int(keep.sum())
                if count == 0:
                    return level.empty(bind_names)
                return _Level(
                    count,
                    {
                        name: col if count == level.count else col[keep]
                        for name, col in level.cols.items()
                        if live is None or name in live
                    },
                )
            live_binds = [
                (position, name)
                for position, name in step.bind_positions
                if live is None or name in live
            ]
            left_idx, order, sorted_pos = hash_join_kernel(
                left_cols, right_cols, len(self.vd),
                need_sorted_pos=bool(live_binds),
            )
            total = int(left_idx.size)
            if total == 0:
                return level.empty(bind_names)
            new_cols = {
                name: col[left_idx]
                for name, col in level.cols.items()
                if live is None or name in live
            }
            for position, name in live_binds:
                src = cols[position][row_idx] if row_idx is not None else cols[position]
                # One O(matched) shuffle + one piecewise-contiguous gather —
                # the random src[order[sorted_pos]] gather is the cache miss
                # the kernel's split result exists to avoid.
                new_cols[name] = src[order][sorted_pos]
            return _Level(total, new_cols)
        if step.semijoin:
            # Keyless existence check: any matching stored row keeps every
            # level row exactly once.
            return _Level(
                level.count,
                {
                    name: col
                    for name, col in level.cols.items()
                    if live is None or name in live
                },
            )
        left_idx = np.repeat(np.arange(level.count, dtype=np.int64), matched)
        total = int(left_idx.size)
        if total == 0:
            return level.empty(bind_names)
        new_cols = {
            name: col[left_idx]
            for name, col in level.cols.items()
            if live is None or name in live
        }
        for position, name in step.bind_positions:
            if live is not None and name not in live:
                continue
            src = cols[position][row_idx] if row_idx is not None else cols[position]
            new_cols[name] = np.tile(src, level.count)
        return _Level(total, new_cols)

    # -- projection and aggregation ---------------------------------------

    def _decode_distinct(self, head_cols: List["np.ndarray"], count: int) -> Set[Tuple]:
        if count == 0:
            return set()
        if not head_cols:
            return {()}
        distinct = distinct_rows_kernel(head_cols, count, len(self.vd))
        if distinct is None:  # row not packable: joint-factorize instead
            _count, _gids, first = group_rows_kernel(head_cols, count, len(self.vd))
            distinct = [col[first] for col in head_cols]
        decoded = [self.vd.decode(col).tolist() for col in distinct]
        if len(decoded) == 1:
            return {(value,) for value in decoded[0]}
        return set(zip(*decoded))

    def _project(self, level: _Level) -> Set[Tuple]:
        rule = self.lowered.plan.rule
        head_cols = [self._eval_codes(term, level) for term in rule.head.terms]
        return self._decode_distinct(head_cols, level.count)

    def _aggregate(self, level: _Level) -> Set[Tuple]:
        rule = self.lowered.plan.rule
        if level.count == 0:
            return set()
        group_keys = rule.group_by_variables()
        group_cols = [level.cols[name] for name in group_keys]
        group_count, group_ids, first = group_rows_kernel(
            group_cols, level.count, len(self.vd)
        )
        group_level = _Level(
            group_count, {name: col[first] for name, col in level.cols.items()}
        )
        for aggregation in rule.aggregations:
            if aggregation.argument is None:
                # count(*): distinct whole bindings per group.  All level
                # columns determine the binding (parameters are constant per
                # run and cannot affect distinctness).
                all_cols = [level.cols[name] for name in sorted(level.cols)]
                _n, _g, distinct_first = group_rows_kernel(
                    all_cols, level.count, len(self.vd)
                )
                per_group = np.bincount(
                    group_ids[distinct_first], minlength=group_count
                ).tolist()
                group_level.cols[aggregation.result.name] = self.vd.encode_scalars(
                    per_group
                )
                continue
            arg_codes = self._eval_codes(aggregation.argument, level)
            if aggregation.distinct:
                _n, _g, pair_first = group_rows_kernel(
                    [group_ids, arg_codes], level.count, len(self.vd)
                )
                sel_groups = group_ids[pair_first]
                sel_codes = arg_codes[pair_first]
            else:
                sel_groups = group_ids
                sel_codes = arg_codes
            values = (
                None
                if aggregation.func == "count"
                else self.vd.numeric(sel_codes)
            )
            reduced = grouped_reduce_kernel(
                aggregation.func, sel_groups, group_count, values
            )
            group_level.cols[aggregation.result.name] = self.vd.encode_scalars(reduced)
        head_cols = [
            self._eval_codes(term, group_level) for term in rule.head.terms
        ]
        return self._decode_distinct(head_cols, group_count)

    # -- whole-rule driver -------------------------------------------------

    def run(self, delta_view: Optional[DeltaView]) -> Set[Tuple]:
        lowered = self.lowered
        level = _Level(1, {})
        level = self._apply_guard(lowered.plan.prelude, level)
        for step in lowered.steps:
            level = self._join_step(step, level, delta_view)
            level = self._apply_guard(step.guard, level)
        if lowered.unresolved_message is not None and level.count > 0:
            # End-of-body with unresolved comparisons: the interpreter's
            # unsafe-rule error (empty joins never raise).
            raise ExecutionError(lowered.unresolved_message)
        if lowered.plan.rule.aggregations:
            return self._aggregate(level)
        return self._project(level)


# -- the executor -------------------------------------------------------------


class ColumnarExecutor(RuleExecutor):
    """Evaluates rules level-at-a-time over NumPy column arrays.

    Lowerings are cached per plan in a :class:`PlanMemo` (like the compiled
    executor's closures).
    Store relations are encoded to code columns once per
    :meth:`StoreBackend.data_version` and reused across applications;
    ``DeltaView`` encodings are memoised per view object, so the views the
    engine shares across rules within one iteration encode once.

    Counters (the engine surfaces their sum as
    ``DatalogEngine.executor_fallback_count``):

    * ``fallback_count`` — distinct plans statically routed to the compiled
      executor (shape cannot be vectorised);
    * ``runtime_fallback_count`` — rule applications that started columnar
      but hit data the kernels cannot handle exactly and re-ran compiled;
    * ``vectorised_count`` — rule applications completed on the columnar
      path (what the differential corpus' coverage assertions read);
    * ``lower_count`` — plans actually lowered (structural cache misses).
    """

    name = "columnar"

    _STORE_CACHE_LIMIT = 512
    _DELTA_MEMO_LIMIT = 1024

    def __init__(self) -> None:
        if np is None:
            raise ExecutionError(
                "the columnar executor requires NumPy (install the "
                "repro[columnar] extra); choose executor='compiled' or "
                "'interpreted' instead"
            )
        self._vd = ValueDict()
        self._fallback = CompiledExecutor()
        self._lowerings = PlanMemo(self._lower)
        # (id(store), relation) -> (store, data_version, columns, count);
        # the store reference pins the id against recycling.
        self._store_cache: Dict[Tuple[int, str], Tuple] = {}
        self._delta_memo: Dict[int, Tuple] = {}
        self.fallback_count = 0
        self.runtime_fallback_count = 0
        self.vectorised_count = 0
        self.lower_count = 0
        #: store relations actually encoded (cache misses in
        #: :meth:`_relation_columns`) — what the cross-query encoding-reuse
        #: tests assert on
        self.store_encode_count = 0
        #: always 0: a stale cache entry is re-encoded from ``scan``; kept
        #: because the benchmark's counter table still reads it
        self.columnar_incremental_encode_count = 0
        # One executor is shared by every worker of a serving pool: cache
        # *writes* (and the encode they guard) run under this lock with a
        # double-check; the hit paths stay lock-free (single dict reads of
        # immutable tuples, atomic under the GIL).
        self._lock = threading.RLock()

    # -- lowering cache ----------------------------------------------------

    def _lower(self, plan: RulePlan) -> Optional[_ColumnarPlan]:
        try:
            lowered = _lower_plan(plan)
        except ColumnarUnsupported:
            self.fallback_count += 1
            return None
        self.lower_count += 1
        return lowered

    def lowered_for(self, plan: RulePlan) -> Optional[_ColumnarPlan]:
        """Return the cached lowering for ``plan`` (``None`` = compiled)."""
        return self._lowerings.get(plan)

    # -- column caches -----------------------------------------------------

    def _relation_columns(self, store: StoreBackend, relation: str):
        version = store.data_version(relation)
        cache_key, pin = store.cache_identity(relation)
        key = (cache_key, relation)
        if version is not None:
            entry = self._store_cache.get(key)
            if entry is not None and entry[0] is pin and entry[1] == version:
                return entry[2], entry[3]
        with self._lock:
            if version is not None:
                entry = self._store_cache.get(key)
                if entry is not None and entry[0] is pin and entry[1] == version:
                    return entry[2], entry[3]
            cols, count = self._vd.encode_rows(store.scan(relation))
            self.store_encode_count += 1
            if version is not None:
                if len(self._store_cache) >= self._STORE_CACHE_LIMIT:
                    self._store_cache.clear()
                self._store_cache[key] = (pin, version, cols, count)
        return cols, count

    def _delta_columns(self, view: DeltaView):
        entry = self._delta_memo.get(id(view))
        if entry is not None and entry[0] is view:
            return entry[1], entry[2]
        with self._lock:
            entry = self._delta_memo.get(id(view))
            if entry is not None and entry[0] is view:
                return entry[1], entry[2]
            cols, count = self._vd.encode_rows(view.rows)
            if len(self._delta_memo) >= self._DELTA_MEMO_LIMIT:
                self._delta_memo.clear()
            self._delta_memo[id(view)] = (view, cols, count)
        return cols, count

    # -- RuleExecutor ------------------------------------------------------

    def _run(self, plan, store, delta, params):
        lowered = self.lowered_for(plan)
        if lowered is None:
            return self._fallback._run(plan, store, delta, params)
        try:
            result = _Evaluation(self, lowered, store, params or {}).run(delta)
        except ColumnarFallback:
            self.runtime_fallback_count += 1
            return self._fallback._run(plan, store, delta, params)
        self.vectorised_count += 1
        return result
