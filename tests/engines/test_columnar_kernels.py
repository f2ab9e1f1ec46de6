"""Property-based contract tests for the columnar executor's kernels.

Each vectorised kernel — dictionary encoding, hash join, membership
(negation probe), comparison masks, arithmetic, grouped reductions — is run
against an independent **tuple-loop reference** on generated columns
covering ``None``, NaN, 64-bit integers and mixed dtypes.  For the
value-level kernels the reference is the shared semantics core
(:mod:`repro.common.semantics`): ``arith_kernel``, ``_check_mask`` and
``grouped_reduce_kernel`` must equal it element-wise or fall back.  The encoding
round-trip pins the NULL/NaN set-semantics already fixed for SQLite in
PR 2: ``None`` is an ordinary joinable value, ``1``/``1.0``/``True``
collapse to one key, and NaN follows *container* semantics (the same NaN
object matches itself in joins, negation probes and dedup — exactly like a
Python set or a store hash index — while the ``=`` guard still rejects it,
like Python ``==``).

:class:`ColumnarFallback` is a **legal outcome** for the value-level
kernels (arithmetic, numeric materialisation, reductions): it routes the
rule application to the compiled executor, which is exact by construction.
The contract here is one-sided soundness — whenever a kernel *does* answer,
the answer must equal the tuple-loop reference.
"""

from __future__ import annotations

import math

import pytest

np = pytest.importorskip("numpy", reason="columnar kernels require NumPy")

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common import semantics
from repro.common.errors import ExecutionError
from repro.dlir.core import Comparison, Var
from repro.engines.datalog.executor_columnar import (
    ColumnarExecutor,
    ColumnarFallback,
    ValueDict,
    _Evaluation,
    _Level,
    arith_kernel,
    compare_codes_kernel,
    group_rows_kernel,
    grouped_reduce_kernel,
    hash_join_kernel,
    membership_kernel,
)

#: one shared NaN object — container semantics make identity significant
NAN = float("nan")

#: the value pool: None, NaN, numeric collapse triples, 64-bit extremes,
#: floats, strings — everything the stores can hold
_values = st.sampled_from(
    [
        None,
        NAN,
        True,
        False,
        0,
        1,
        1.0,
        -1,
        2,
        2.5,
        -2.5,
        2**63 - 1,
        -(2**63),
        2**53 + 1,
        "a",
        "b",
        "",
    ]
)

_small_ints = st.integers(min_value=-5, max_value=5)
_int64 = st.integers(min_value=-(2**63), max_value=2**63 - 1)


def _same_key(a, b) -> bool:
    """Tuple/set/dict key equality: identity shortcut, then ``==``."""
    return a is b or a == b


def _encode(vd: ValueDict, values):
    return vd.encode_scalars(list(values))


# -- dictionary encoding ------------------------------------------------------


@given(values=st.lists(_values, max_size=30))
@settings(max_examples=100, deadline=None)
def test_encoding_matches_dict_key_semantics(values):
    """Two values share a code exactly when a dict/set would treat them as
    one key — the store's own semantics."""
    vd = ValueDict()
    codes = _encode(vd, values)
    # independent reference: first-occurrence grouping under key semantics
    expected = []
    seen = []  # list of (value, code) in allocation order
    for value in values:
        for other, code in seen:
            if _same_key(other, value):
                expected.append(code)
                break
        else:
            code = len(seen)
            seen.append((value, code))
            expected.append(code)
    # Codes are allocated in first-sight order, so they must match exactly.
    assert codes.tolist() == expected


@given(values=st.lists(_values, min_size=1, max_size=20))
@settings(max_examples=100, deadline=None)
def test_decode_round_trips(values):
    vd = ValueDict()
    codes = _encode(vd, values)
    decoded = vd.decode(codes).tolist()
    for original, back in zip(values, decoded):
        assert original is back or original == back


def test_null_nan_and_numeric_collapse_pinned():
    """The PR 2 semantics, pinned explicitly."""
    vd = ValueDict()
    # 1 == 1.0 == True collapse to one key
    assert vd.encode_one(1) == vd.encode_one(1.0) == vd.encode_one(True)
    # None is an ordinary value with its own code
    assert vd.encode_one(None) != vd.encode_one(0)
    # the same NaN object collapses (container identity shortcut) ...
    assert vd.encode_one(NAN) == vd.encode_one(NAN)
    # ... but a distinct NaN object is a distinct key
    assert vd.encode_one(float("nan")) != vd.encode_one(NAN)
    # 64-bit extremes encode and decode exactly
    codes = vd.encode_scalars([2**63 - 1, -(2**63), 2**63])
    assert vd.decode(codes).tolist() == [2**63 - 1, -(2**63), 2**63]


# -- hash join ----------------------------------------------------------------


@given(
    left=st.lists(st.tuples(_values, _values), max_size=15),
    right=st.lists(st.tuples(_values, _values), max_size=15),
    width=st.integers(min_value=1, max_value=2),
)
@settings(max_examples=100, deadline=None)
def test_hash_join_matches_nested_loop(left, right, width):
    vd = ValueDict()
    left_cols = [
        _encode(vd, [row[i] for row in left]) for i in range(width)
    ]
    right_cols = [
        _encode(vd, [row[i] for row in right]) for i in range(width)
    ]
    left_idx, order, sorted_pos = hash_join_kernel(
        left_cols, right_cols, len(vd) or 1
    )
    right_idx = order[sorted_pos]  # pairs are (left_idx[k], order[sorted_pos[k]])
    got = sorted(zip(left_idx.tolist(), right_idx.tolist()))
    expected = sorted(
        (i, j)
        for i in range(len(left))
        for j in range(len(right))
        # join on codes == container key equality (NaN object included)
        if all(
            _same_key(left[i][k], right[j][k]) for k in range(width)
        )
    )
    assert got == expected


def test_hash_join_wide_keys_overflow_pack():
    """A code range too large to pack arithmetically must take the joint
    factorization path and still answer exactly."""
    vd = ValueDict()
    rows = [(i, i + 1) for i in range(20)]
    cols = [
        _encode(vd, [r[0] for r in rows]),
        _encode(vd, [r[1] for r in rows]),
    ]
    # huge claimed code range forces the np.unique(axis=0) branch
    left_idx, order, sorted_pos = hash_join_kernel(cols, cols, 2**40)
    right_idx = order[sorted_pos]
    assert sorted(zip(left_idx.tolist(), right_idx.tolist())) == [
        (i, i) for i in range(20)
    ]


# -- membership (negation probe) ---------------------------------------------


@given(
    probe=st.lists(_values, max_size=20),
    stored=st.lists(_values, max_size=20),
)
@settings(max_examples=100, deadline=None)
def test_membership_matches_container_lookup(probe, stored):
    vd = ValueDict()
    probe_col = _encode(vd, probe)
    stored_col = _encode(vd, stored)
    mask = membership_kernel([probe_col], [stored_col], len(vd) or 1)
    expected = [any(_same_key(p, s) for s in stored) for p in probe]
    assert mask.tolist() == expected


def test_membership_nan_identity_pinned():
    """The same NaN object IS found (set semantics); a fresh NaN is not."""
    vd = ValueDict()
    stored = _encode(vd, [NAN, 1])
    probe = _encode(vd, [NAN, float("nan")])
    assert membership_kernel([probe], [stored], len(vd)).tolist() == [True, False]


# -- comparison masks ---------------------------------------------------------


@given(
    pairs=st.lists(st.tuples(_values, _values), max_size=20),
    op=st.sampled_from(["=", "<>"]),
)
@settings(max_examples=100, deadline=None)
def test_equality_mask_matches_python_eq(pairs, op):
    """``=``/``<>`` guards follow Python ``==`` — NaN never equals itself,
    even the same object (unlike the join kernels above)."""
    vd = ValueDict()
    left = _encode(vd, [a for a, _b in pairs])
    right = _encode(vd, [b for _a, b in pairs])
    mask = compare_codes_kernel(op, left, right, vd)
    expected = [bool(a == b) if op == "=" else bool(a != b) for a, b in pairs]
    assert mask.tolist() == expected


def _check_mask(op, pairs):
    executor = ColumnarExecutor()
    level = _Level(
        len(pairs),
        {
            "a": _encode(executor._vd, [a for a, _b in pairs]),
            "b": _encode(executor._vd, [b for _a, b in pairs]),
        },
    )
    return _Evaluation(executor, None, None, {})._check_mask(
        Comparison(op, Var("a"), Var("b")), level
    )


#: numeric values only — columns the ordering kernels can type
_numbers = st.sampled_from(
    [NAN, True, False, 0, 1, 1.0, -1, 2, 2.5, -2.5, 2**53, -(2**53)]
)


@given(
    pairs=st.one_of(
        st.lists(st.tuples(_numbers, _numbers), max_size=20),
        st.lists(st.tuples(_values, _values), max_size=20),
    ),
    op=st.sampled_from(sorted(semantics.COMPARISONS)),
)
@settings(max_examples=200, deadline=None)
def test_check_mask_matches_core_compare_or_falls_back(pairs, op):
    """The guard mask equals ``semantics.compare`` row by row; columns the
    numeric kernels cannot type — and any row the core would raise on —
    must fall back instead."""
    try:
        mask = _check_mask(op, pairs)
    except ColumnarFallback:
        return
    assert mask.tolist() == [semantics.compare(op, a, b) for a, b in pairs]


@pytest.mark.parametrize("op", sorted(semantics.COMPARISONS))
def test_check_mask_answers_on_numeric_columns(op):
    """The contract above is not vacuous: plain numeric columns vectorise."""
    pairs = [(-1, 2), (2, 2), (2.5, 1), (0, -2.5)]
    assert _check_mask(op, pairs).tolist() == [
        semantics.compare(op, a, b) for a, b in pairs
    ]


# -- arithmetic ---------------------------------------------------------------


def _core_arith(op, a, b):
    try:
        return semantics.arith(op, a, b)
    except ExecutionError:
        return None  # the core raises; the kernel must fall back


@given(
    pairs=st.lists(st.tuples(_int64, _int64), min_size=1, max_size=20),
    op=st.sampled_from(["+", "-", "*", "/", "%"]),
)
@settings(max_examples=150, deadline=None)
def test_int_arith_matches_python_or_falls_back(pairs, op):
    left = np.array([a for a, _b in pairs], dtype=np.int64)
    right = np.array([b for _a, b in pairs], dtype=np.int64)
    try:
        kind, result = arith_kernel(op, ("int", left), ("int", right))
    except ColumnarFallback:
        return  # legal: the compiled executor replays exactly
    assert kind == "int"
    for (a, b), got in zip(pairs, result.tolist()):
        assert got == _core_arith(op, a, b)


@given(
    pairs=st.lists(
        st.tuples(
            st.floats(allow_nan=False, allow_infinity=False, width=32),
            st.floats(allow_nan=False, allow_infinity=False, width=32),
        ),
        min_size=1,
        max_size=20,
    ),
    op=st.sampled_from(["+", "-", "*", "/"]),
)
@settings(max_examples=150, deadline=None)
def test_float_arith_matches_python_or_falls_back(pairs, op):
    left = np.array([a for a, _b in pairs], dtype=np.float64)
    right = np.array([b for _a, b in pairs], dtype=np.float64)
    try:
        _kind, result = arith_kernel(op, ("float", left), ("float", right))
    except ColumnarFallback:
        return
    for (a, b), got in zip(pairs, result.tolist()):
        expected = _core_arith(op, a, b)
        assert got == expected or (got != got and expected != expected)


@given(
    pairs=st.lists(st.tuples(_small_ints, _small_ints), min_size=1, max_size=20),
    op=st.sampled_from(["/", "%"]),
)
@settings(max_examples=150, deadline=None)
def test_small_int_division_truncates_like_the_core_or_falls_back(pairs, op):
    """Negative and zero operands, densely: the kernel answers exactly when
    no divisor is zero, and then with the core's truncating ``/`` and
    dividend-signed ``%``."""
    left = np.array([a for a, _b in pairs], dtype=np.int64)
    right = np.array([b for _a, b in pairs], dtype=np.int64)
    try:
        _kind, result = arith_kernel(op, ("int", left), ("int", right))
    except ColumnarFallback:
        assert any(b == 0 for _a, b in pairs)
        return
    assert result.tolist() == [semantics.arith(op, a, b) for a, b in pairs]


def test_division_truncation_pinned():
    left = np.array([-7, 7, -7, 7], dtype=np.int64)
    right = np.array([2, -2, -2, 2], dtype=np.int64)
    assert arith_kernel("/", ("int", left), ("int", right))[1].tolist() == [-3, -3, 3, 3]
    assert arith_kernel("%", ("int", left), ("int", right))[1].tolist() == [-1, 1, -1, 1]


def test_arith_overflow_and_div_zero_fall_back():
    big = np.array([2**62], dtype=np.int64)
    one = np.array([1], dtype=np.int64)
    zero = np.array([0], dtype=np.int64)
    with pytest.raises(ColumnarFallback):
        arith_kernel("+", ("int", big), ("int", big))
    with pytest.raises(ColumnarFallback):
        arith_kernel("*", ("int", big), ("int", big))
    with pytest.raises(ColumnarFallback):
        arith_kernel("/", ("int", one), ("int", zero))
    with pytest.raises(ColumnarFallback):
        arith_kernel("%", ("int", one), ("int", zero))
    with pytest.raises(ColumnarFallback):  # -(2**63) / -1 overflows int64
        arith_kernel(
            "/", ("int", np.array([-(2**63)], dtype=np.int64)), ("int", -one)
        )


def test_division_in_a_mixed_int_float_column_falls_back_when_inexact():
    """A mixed int/float column converts to float64, but ``7 / 2`` between
    two of its ints truncates in the core: the kernel may only answer where
    true division and integer division agree."""
    vd = ValueDict()
    mixed = vd.numeric(_encode(vd, [7, 2.5, -7]))
    twos = ("int", np.array([2, 2, 2], dtype=np.int64))
    with pytest.raises(ColumnarFallback):
        arith_kernel("/", mixed, twos)
    exact = vd.numeric(_encode(vd, [8, 2.5, -6]))
    _kind, result = arith_kernel("/", exact, twos)
    assert result.tolist() == [semantics.arith("/", v, 2) for v in (8, 2.5, -6)]


def test_mixed_dtype_column_falls_back_in_numeric():
    """A column mixing strings and ints defeats dtype inference — the
    executor must refuse rather than guess."""
    vd = ValueDict()
    codes = _encode(vd, [1, "a", 2])
    with pytest.raises(ColumnarFallback):
        vd.numeric(codes)


def test_int_beyond_float_exact_falls_back_when_mixed():
    """2**53 + 1 has no exact float64; mixing it with floats must fall back
    instead of silently rounding."""
    vd = ValueDict()
    codes = _encode(vd, [2**53 + 1, 0.5])
    with pytest.raises(ColumnarFallback):
        vd.numeric(codes)
    # pure-int columns keep exact int64 values
    kind, values = vd.numeric(_encode(vd, [2**53 + 1, 7]))
    assert kind == "int" and values.tolist() == [2**53 + 1, 7]


# -- grouping and projection dedup -------------------------------------------


@given(rows=st.lists(st.tuples(_values, _values), max_size=25))
@settings(max_examples=100, deadline=None)
def test_group_rows_matches_first_occurrence_grouping(rows):
    vd = ValueDict()
    cols = [
        _encode(vd, [r[0] for r in rows]),
        _encode(vd, [r[1] for r in rows]),
    ]
    count, gids, first = group_rows_kernel(cols, len(rows), len(vd) or 1)
    # reference: group rows by their code pair with a tuple-loop
    code_rows = list(zip(cols[0].tolist(), cols[1].tolist())) if rows else []
    groups = {}
    for i, key in enumerate(code_rows):
        groups.setdefault(key, []).append(i)
    assert count == len(groups)
    for key, members in groups.items():
        # all members share one gid, distinct keys get distinct gids
        gid_set = {int(gids[i]) for i in members}
        assert len(gid_set) == 1
        gid = gid_set.pop()
        # the exemplar row is a member of the group
        assert int(first[gid]) in members


# -- grouped reductions -------------------------------------------------------


def _reference_reduce(func, group_ids, group_count, values):
    buckets = {g: [] for g in range(group_count)}
    for g, v in zip(group_ids, values if values is not None else group_ids):
        buckets[g].append(v)
    return [semantics.aggregate(func, buckets[g]) for g in range(group_count)]


@given(
    data=st.lists(
        st.tuples(st.integers(min_value=0, max_value=4), _small_ints),
        min_size=1,
        max_size=30,
    ),
    func=st.sampled_from(["count", "sum", "min", "max", "avg"]),
)
@settings(max_examples=150, deadline=None)
def test_grouped_reduce_matches_tuple_loop(data, func):
    # ensure every group id up to the max is populated (kernel contract:
    # groups come from actual solution rows)
    present = sorted({g for g, _v in data})
    remap = {g: i for i, g in enumerate(present)}
    group_ids = np.array([remap[g] for g, _v in data], dtype=np.int64)
    values = [v for _g, v in data]
    group_count = len(present)
    kernel_values = None if func == "count" else ("int", np.array(values, dtype=np.int64))
    got = grouped_reduce_kernel(func, group_ids, group_count, kernel_values)
    expected = _reference_reduce(
        func, group_ids.tolist(), group_count, None if func == "count" else values
    )
    assert got == expected
    for g, e in zip(got, expected):
        # avg must be exact division, matching Python's type too
        assert type(g) is type(e)


def test_grouped_reduce_float_sum_and_nan_fall_back():
    gids = np.zeros(3, dtype=np.int64)
    floats = np.array([0.1, 0.2, 0.3], dtype=np.float64)
    with pytest.raises(ColumnarFallback):
        grouped_reduce_kernel("sum", gids, 1, ("float", floats))
    with pytest.raises(ColumnarFallback):
        grouped_reduce_kernel("avg", gids, 1, ("float", floats))
    with_nan = np.array([1.0, math.nan], dtype=np.float64)
    with pytest.raises(ColumnarFallback):
        grouped_reduce_kernel("min", np.zeros(2, dtype=np.int64), 1, ("float", with_nan))
    # float min/max without NaN is exact and allowed
    clean = np.array([1.5, -2.5], dtype=np.float64)
    assert grouped_reduce_kernel(
        "min", np.zeros(2, dtype=np.int64), 1, ("float", clean)
    ) == [-2.5]


def test_grouped_reduce_big_int_sum_falls_back():
    gids = np.zeros(2, dtype=np.int64)
    big = np.array([2**61, 2**61], dtype=np.int64)
    with pytest.raises(ColumnarFallback):
        grouped_reduce_kernel("sum", gids, 1, ("int", big))
