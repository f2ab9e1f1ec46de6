"""The scalar semantics shared by every in-repo evaluator.

What ``/``, ``<`` and ``min`` *mean* is defined here and nowhere else: the
Datalog plan interpreter (and, through it, the incremental maintainer), the
compiled executor's closure globals, the relational engine and the graph
engine all call :func:`arith`, :func:`compare` and :func:`aggregate`; the
columnar executor's vectorised kernels are contract-tested to either equal
these functions element-wise or raise ``ColumnarFallback``.

The rules, chosen to match the three targets Raqlet emits for (SQLite,
openCypher, Soufflé):

* ``+ - *`` are Python's operators (a ``TypeError`` on operands Python
  cannot combine propagates unchanged);
* integer ``/`` **truncates toward zero** and integer ``%`` takes the
  **dividend's sign** (``-7 / 2 == -3``, ``-7 % 2 == -1``); with a float
  operand ``/`` is true division and ``%`` is ``math.fmod``;
* a zero divisor under ``/`` or ``%`` raises :class:`ExecutionError` with
  :data:`DIVISION_BY_ZERO`;
* ``=`` / ``<>`` are Python's ``==`` / ``!=``; an ordering comparison of
  operands Python cannot order raises :class:`ExecutionError` with
  :data:`COMPARISON_TYPE_ERROR`;
* over an empty input ``count`` and ``sum`` are ``0`` and ``min`` /
  ``max`` / ``avg`` are ``None``.
"""

from __future__ import annotations

import math
import operator
from typing import Sequence

from repro.common.errors import ExecutionError

#: the message of the error a zero divisor raises under ``/`` and ``%``
DIVISION_BY_ZERO = "division by zero"

#: the message format (``% (left, right, op)``) of the error a mixed-type
#: ordering comparison raises
COMPARISON_TYPE_ERROR = "cannot compare %r and %r with %r"


def _div(left, right):
    if right == 0:
        raise ExecutionError(DIVISION_BY_ZERO)
    if isinstance(left, int) and isinstance(right, int):
        quotient = left // right
        if quotient < 0 and quotient * right != left:
            quotient += 1  # floor -> truncation
        return quotient
    return left / right


def _mod(left, right):
    if right == 0:
        raise ExecutionError(DIVISION_BY_ZERO)
    if isinstance(left, int) and isinstance(right, int):
        remainder = left % right
        if remainder and (left < 0) != (right < 0):
            remainder -= right  # divisor's sign -> dividend's sign
        return remainder
    return math.fmod(left, right)


_ARITHMETIC = {
    "+": operator.add,
    "-": operator.sub,
    "*": operator.mul,
    "/": _div,
    "%": _mod,
}

#: comparison operator -> the Python operator implementing it (also applied
#: to whole NumPy columns by the columnar executor)
COMPARISONS = {
    "=": operator.eq,
    "<>": operator.ne,
    "<": operator.lt,
    "<=": operator.le,
    ">": operator.gt,
    ">=": operator.ge,
}


def _collect(values) -> str:
    return ",".join(str(value) for value in sorted(values, key=str))


_AGGREGATES = {
    "count": len,
    "sum": sum,
    "min": lambda values: min(values, default=None),
    "max": lambda values: max(values, default=None),
    "avg": lambda values: sum(values) / len(values) if values else None,
    "collect": _collect,
    "group_concat": _collect,  # SQL's name for it
}


def arith(op: str, left, right):
    """Apply the arithmetic operator ``op`` to two evaluated operands."""
    apply = _ARITHMETIC.get(op)
    if apply is None:
        raise ExecutionError(f"unknown arithmetic operator {op!r}")
    return apply(left, right)


def compare(op: str, left, right) -> bool:
    """Evaluate the comparison operator ``op`` on two evaluated operands."""
    holds = COMPARISONS.get(op)
    if holds is None:
        raise ExecutionError(f"unknown comparison operator {op!r}")
    try:
        return holds(left, right)
    except TypeError as exc:
        raise ExecutionError(COMPARISON_TYPE_ERROR % (left, right, op)) from exc


def aggregate(func: str, values: Sequence):
    """Reduce ``values`` with the aggregate ``func`` (case-insensitive)."""
    reduce = _AGGREGATES.get(func.lower())
    if reduce is None:
        raise ExecutionError(f"unknown aggregate function {func!r}")
    return reduce(values)
