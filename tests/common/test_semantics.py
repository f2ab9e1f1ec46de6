"""Table-driven pin of the shared scalar semantics (``common/semantics.py``).

Every operator is run over {int,int; int,float; negative operands; str,str;
mixed; ``None``; zero divisor} and every aggregate over {empty, singleton,
duplicates}.  An expected value that is an exception *class* means the call
must raise it; ``ExecutionError`` rows also pin the shared message.
"""

import math

import pytest

from repro.common.errors import ExecutionError
from repro.common.semantics import (
    COMPARISON_TYPE_ERROR,
    COMPARISONS,
    DIVISION_BY_ZERO,
    aggregate,
    arith,
    compare,
)

ARITH_CASES = [
    # int, int
    ("+", 7, 2, 9),
    ("-", 7, 2, 5),
    ("*", 7, 2, 14),
    ("/", 7, 2, 3),
    ("%", 7, 2, 1),
    ("/", 6, 3, 2),
    ("%", 6, 3, 0),
    # int, float (and float, int)
    ("+", 7, 0.5, 7.5),
    ("-", 7, 0.5, 6.5),
    ("*", 7, 0.5, 3.5),
    ("/", 7, 2.0, 3.5),
    ("/", 7.0, 2, 3.5),
    ("%", 7.5, 2, 1.5),
    ("%", 7, 2.5, 2.0),
    # negative operands: / truncates toward zero, % takes the dividend's sign
    ("+", -7, 2, -5),
    ("-", -7, -2, -5),
    ("*", -7, 2, -14),
    ("/", -7, 2, -3),
    ("/", 7, -2, -3),
    ("/", -7, -2, 3),
    ("/", -6, 3, -2),
    ("%", -7, 2, -1),
    ("%", 7, -2, 1),
    ("%", -7, -2, -1),
    ("%", -6, 3, 0),
    ("/", -7, 2.0, -3.5),
    ("%", -7.5, 2, -1.5),
    ("/", -(2**70) - 1, 2, -(2**69)),  # exact beyond float range
    ("%", -(2**70) - 1, 2, -1),
    # bool is an int
    ("+", True, 1, 2),
    ("/", True, 2, 0),
    # str, str: only + is defined (Python's str % is formatting, not modulo)
    ("+", "a", "b", "ab"),
    ("-", "a", "b", TypeError),
    ("*", "a", "b", TypeError),
    ("/", "a", "b", TypeError),
    ("%", "a", "b", TypeError),
    ("%", "%s", "b", TypeError),
    # mixed
    ("+", "a", 1, TypeError),
    ("-", 1, "a", TypeError),
    ("*", "ab", 2, "abab"),
    ("/", "a", 2, TypeError),
    ("%", 3, "a", TypeError),
    # None
    ("+", None, 1, TypeError),
    ("-", 1, None, TypeError),
    ("*", None, None, TypeError),
    ("/", None, 2, TypeError),
    ("%", 2, None, TypeError),
    # zero divisor
    ("/", 7, 0, ExecutionError),
    ("%", 7, 0, ExecutionError),
    ("/", 7.5, 0, ExecutionError),
    ("%", 7.5, 0.0, ExecutionError),
    ("/", 0, 0, ExecutionError),
    ("/", "a", 0, ExecutionError),
    ("/", 0, 7, 0),
    ("%", 0, 7, 0),
    # unknown operator
    ("**", 2, 3, ExecutionError),
]


@pytest.mark.parametrize("op, left, right, expected", ARITH_CASES)
def test_arith(op, left, right, expected):
    if isinstance(expected, type):
        with pytest.raises(expected) as caught:
            arith(op, left, right)
        if expected is ExecutionError and op in ("/", "%"):
            assert str(caught.value) == DIVISION_BY_ZERO
        return
    result = arith(op, left, right)
    assert result == expected
    assert type(result) is type(expected)


#: (left, right) -> the expected outcome of = <> < <= > >=, in that order
COMPARE_CASES = [
    ((1, 2), (False, True, True, True, False, False)),
    ((2, 2), (True, False, False, True, False, True)),
    ((1, 1.5), (False, True, True, True, False, False)),
    ((2, 2.0), (True, False, False, True, False, True)),
    ((-3, -2), (False, True, True, True, False, False)),
    ((-2.5, -3), (False, True, False, False, True, True)),
    (("a", "b"), (False, True, True, True, False, False)),
    (("b", "b"), (True, False, False, True, False, True)),
    (("", "a"), (False, True, True, True, False, False)),
    (("a", 3), (False, True) + (ExecutionError,) * 4),
    ((3, "a"), (False, True) + (ExecutionError,) * 4),
    ((None, 3), (False, True) + (ExecutionError,) * 4),
    ((None, None), (True, False) + (ExecutionError,) * 4),
    ((None, "a"), (False, True) + (ExecutionError,) * 4),
    ((True, 1), (True, False, False, True, False, True)),
    ((math.nan, 1), (False, True, False, False, False, False)),
]
_OPS = ("=", "<>", "<", "<=", ">", ">=")


def test_comparison_table_covers_every_operator():
    assert set(COMPARISONS) == set(_OPS)


@pytest.mark.parametrize(
    "op, left, right, expected",
    [
        (op, left, right, outcome)
        for (left, right), outcomes in COMPARE_CASES
        for op, outcome in zip(_OPS, outcomes)
    ],
)
def test_compare(op, left, right, expected):
    if expected is ExecutionError:
        with pytest.raises(ExecutionError) as caught:
            compare(op, left, right)
        assert str(caught.value) == COMPARISON_TYPE_ERROR % (left, right, op)
        return
    assert compare(op, left, right) is expected


def test_unknown_comparison_operator():
    with pytest.raises(ExecutionError, match="unknown comparison operator"):
        compare("~", 1, 2)


AGGREGATE_CASES = [
    # func, empty, singleton [4], duplicates [3, 1, 3]
    ("count", 0, 1, 3),
    ("sum", 0, 4, 7),
    ("min", None, 4, 1),
    ("max", None, 4, 3),
    ("avg", None, 4.0, 7 / 3),
    ("collect", "", "4", "1,3,3"),
]


@pytest.mark.parametrize("func, empty, singleton, duplicates", AGGREGATE_CASES)
def test_aggregate(func, empty, singleton, duplicates):
    for values, expected in (([], empty), ([4], singleton), ([3, 1, 3], duplicates)):
        result = aggregate(func, values)
        assert result == expected
        assert type(result) is type(expected)
        # SQL spells the same functions in upper case
        assert aggregate(func.upper(), values) == expected


def test_group_concat_is_collect():
    assert aggregate("GROUP_CONCAT", [3, 1, 3]) == aggregate("collect", [3, 1, 3])
    assert aggregate("collect", ["b", 2, "a"]) == "2,a,b"


def test_unknown_aggregate_function():
    with pytest.raises(ExecutionError, match="unknown aggregate function"):
        aggregate("median", [1])
