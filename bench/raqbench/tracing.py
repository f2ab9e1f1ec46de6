"""Spans recorded from *outside* the program, around calls into each layer.

Nothing under ``src/`` knows about this module.  The benchmark hands the
program delegating objects through its public constructor arguments
(``executor=``, ``store=``, ``passes=``), wraps bound methods on the
instances it constructs itself, and calls the compiler's public step
functions one by one.

A span is ``[name, start_s, end_s, parent, op_id]``; ``parent`` indexes the
span list (-1 = none).  A layer's **self time** is its span's duration minus
the part its child spans cover, accumulated per thread as spans close, so
the per-layer numbers never depend on how many spans the file kept.
Store calls are far too many to keep one by one: they are *folded* into one
span per (parent, name) whose interval length is the summed duration.
"""

from __future__ import annotations

import json
import threading
import time
from typing import Dict, Iterable, List, Optional, Sequence

from repro.engines.datalog.executor_compiled import RuleExecutor
from repro.engines.datalog.storage import StoreBackend
from repro.optimize.base import Pass

SPAN_FORMAT = ["name", "start_s", "end_s", "parent", "op_id"]


class _Frame:
    __slots__ = ("name", "start", "cover", "index", "leaves")

    def __init__(self, name: str, start: float, index: int) -> None:
        self.name = name
        self.start = start
        self.cover = 0.0
        self.index = index
        self.leaves: Optional[Dict[str, List[float]]] = None


class _ThreadState:
    def __init__(self) -> None:
        self.stack: List[_Frame] = []
        #: name -> [self seconds, total seconds, calls]
        self.totals: Dict[str, List[float]] = {}


class Recorder:
    """In-memory span store plus running per-layer self-time totals."""

    def __init__(self, keep: int = 250_000) -> None:
        self.spans: List[list] = []
        self.keep = keep
        self.dropped = 0
        #: identifier of the benchmark op the current spans belong to
        self.op_id = -1
        self._local = threading.local()
        self._states: List[_ThreadState] = []
        self._lock = threading.Lock()
        self._origin = time.perf_counter()

    def _state(self) -> _ThreadState:
        state = getattr(self._local, "state", None)
        if state is None:
            state = _ThreadState()
            self._local.state = state
            with self._lock:
                self._states.append(state)
        return state

    # -- recording ---------------------------------------------------------

    def begin(self, name: str) -> _Frame:
        state = self._state()
        start = time.perf_counter()
        index = -1
        if len(self.spans) < self.keep:
            parent = state.stack[-1].index if state.stack else -1
            index = len(self.spans)
            self.spans.append([name, start - self._origin, None, parent, self.op_id])
        else:
            self.dropped += 1
        frame = _Frame(name, start, index)
        state.stack.append(frame)
        return frame

    def end(self, frame: _Frame) -> float:
        end = time.perf_counter()
        state = self._state()
        state.stack.pop()
        duration = end - frame.start
        if frame.index >= 0:
            self.spans[frame.index][2] = end - self._origin
            if frame.leaves:
                for name, (first, total, _calls) in frame.leaves.items():
                    if len(self.spans) < self.keep:
                        self.spans.append(
                            [
                                name,
                                first - self._origin,
                                first - self._origin + total,
                                frame.index,
                                self.spans[frame.index][4],
                            ]
                        )
                    else:
                        self.dropped += 1
        entry = state.totals.get(frame.name)
        if entry is None:
            entry = state.totals[frame.name] = [0.0, 0.0, 0]
        entry[0] += duration - frame.cover
        entry[1] += duration
        entry[2] += 1
        if state.stack:
            state.stack[-1].cover += duration
        return duration

    def span(self, name: str) -> "_SpanContext":
        return _SpanContext(self, name)

    def leaf(self, name: str, start: float, duration: float) -> None:
        """Record a folded leaf call (no children, no individual span)."""
        state = self._state()
        entry = state.totals.get(name)
        if entry is None:
            entry = state.totals[name] = [0.0, 0.0, 0]
        entry[0] += duration
        entry[1] += duration
        entry[2] += 1
        if state.stack:
            parent = state.stack[-1]
            parent.cover += duration
            if parent.leaves is None:
                parent.leaves = {}
            folded = parent.leaves.get(name)
            if folded is None:
                parent.leaves[name] = [start, duration, 1]
            else:
                folded[1] += duration
                folded[2] += 1

    def wrap(self, function, name: str):
        """Return ``function`` wrapped in a span called ``name``."""

        def traced(*args, **kwargs):
            frame = self.begin(name)
            try:
                return function(*args, **kwargs)
            finally:
                self.end(frame)

        return traced

    def wrap_method(self, instance, attribute: str, name: str) -> None:
        """Shadow ``instance.attribute`` with a traced bound-method wrapper,
        so calls the program makes on that instance are recorded too."""
        setattr(instance, attribute, self.wrap(getattr(instance, attribute), name))

    # -- reading -----------------------------------------------------------

    def drain(self) -> Dict[str, Dict[str, float]]:
        """Return and clear the per-layer totals merged over all threads."""
        merged: Dict[str, Dict[str, float]] = {}
        with self._lock:
            states = list(self._states)
        for state in states:
            totals, state.totals = state.totals, {}
            for name, (self_s, total_s, calls) in totals.items():
                entry = merged.setdefault(
                    name, {"self_s": 0.0, "total_s": 0.0, "calls": 0}
                )
                entry["self_s"] += self_s
                entry["total_s"] += total_s
                entry["calls"] += calls
        return merged

    def dump(self, path: str, extra: Optional[dict] = None) -> None:
        payload = {
            "format": SPAN_FORMAT,
            "dropped": self.dropped,
            "spans": [span for span in self.spans if span[2] is not None],
        }
        payload.update(extra or {})
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(payload, handle)


class _SpanContext:
    __slots__ = ("_recorder", "_name", "_frame")

    def __init__(self, recorder: Recorder, name: str) -> None:
        self._recorder = recorder
        self._name = name

    def __enter__(self) -> "_SpanContext":
        self._frame = self._recorder.begin(self._name)
        return self

    def __exit__(self, *exc_info) -> None:
        self._recorder.end(self._frame)


# -- delegating objects handed to the program --------------------------------


class TracedPass(Pass):
    """An optimizer pass that times the pass it delegates to."""

    def __init__(self, inner: Pass, recorder: Recorder, span_name: str) -> None:
        self._inner = inner
        self._recorder = recorder
        self._span_name = span_name
        self.name = inner.name

    def run(self, program):
        frame = self._recorder.begin(self._span_name)
        try:
            return self._inner.run(program)
        finally:
            self._recorder.end(frame)


class TracedExecutor(RuleExecutor):
    """A rule executor that times every ``evaluate_rule`` of its delegate.

    Unknown attributes (the public counters: ``compile_count``,
    ``fallback_count``, ...) resolve on the delegate.
    """

    def __init__(self, inner: RuleExecutor, recorder: Recorder) -> None:
        self._inner = inner
        self._recorder = recorder
        self.name = inner.name
        self._span_name = f"executor.{inner.name}.evaluate"

    @property
    def inner(self) -> RuleExecutor:
        return self._inner

    def evaluate_rule(
        self, rule, store, delta_index=None, delta_rows=None, plan=None, params=None
    ):
        frame = self._recorder.begin(self._span_name)
        try:
            return self._inner.evaluate_rule(
                rule, store, delta_index, delta_rows, plan, params
            )
        finally:
            self._recorder.end(frame)

    def __getattr__(self, attribute):
        return getattr(self._inner, attribute)


class TracedStore(StoreBackend):
    """A fact store that times the reads and writes of its delegate.

    Reads and writes are recorded as folded leaves (``storage.<kind>.lookup``
    / ``storage.<kind>.write``); everything else is forwarded untimed.
    """

    def __init__(self, inner: StoreBackend, recorder: Recorder, kind: str) -> None:
        self._inner = inner
        self._recorder = recorder
        self._lookup_name = f"storage.{kind}.lookup"
        self._write_name = f"storage.{kind}.write"
        self.concurrent_reads = inner.concurrent_reads
        #: effective rows written through this wrapper
        self.write_rows = 0

    @property
    def inner(self) -> StoreBackend:
        return self._inner

    def __getattr__(self, attribute):
        return getattr(self._inner, attribute)

    # -- timed reads -------------------------------------------------------

    def lookup(self, name, positions, key):
        start = time.perf_counter()
        rows = self._inner.lookup(name, positions, key)
        self._recorder.leaf(self._lookup_name, start, time.perf_counter() - start)
        return rows

    def lookup_many(self, name, positions, keys):
        start = time.perf_counter()
        rows = self._inner.lookup_many(name, positions, keys)
        self._recorder.leaf(self._lookup_name, start, time.perf_counter() - start)
        return rows

    def scan(self, name):
        start = time.perf_counter()
        rows = self._inner.scan(name)
        self._recorder.leaf(self._lookup_name, start, time.perf_counter() - start)
        return rows

    def contains(self, name, row):
        start = time.perf_counter()
        found = self._inner.contains(name, row)
        self._recorder.leaf(self._lookup_name, start, time.perf_counter() - start)
        return found

    # -- timed writes ------------------------------------------------------

    def add(self, name, row):
        start = time.perf_counter()
        added = self._inner.add(name, row)
        self._recorder.leaf(self._write_name, start, time.perf_counter() - start)
        self.write_rows += bool(added)
        return added

    def add_many(self, name, rows):
        start = time.perf_counter()
        added = self._inner.add_many(name, rows)
        self._recorder.leaf(self._write_name, start, time.perf_counter() - start)
        self.write_rows += added
        return added

    def remove(self, name, row):
        start = time.perf_counter()
        removed = self._inner.remove(name, row)
        self._recorder.leaf(self._write_name, start, time.perf_counter() - start)
        self.write_rows += bool(removed)
        return removed

    def replace(self, name, rows):
        start = time.perf_counter()
        self._inner.replace(name, rows)
        self._recorder.leaf(self._write_name, start, time.perf_counter() - start)

    def clear_relation(self, name):
        start = time.perf_counter()
        self._inner.clear_relation(name)
        self._recorder.leaf(self._write_name, start, time.perf_counter() - start)

    # -- forwarded untimed -------------------------------------------------

    def relation_names(self):
        return self._inner.relation_names()

    def count(self, name):
        return self._inner.count(name)

    @property
    def index_count(self):
        return self._inner.index_count

    @property
    def index_build_count(self):
        return self._inner.index_build_count

    def relation_stats(self, name):
        return self._inner.relation_stats(name)

    def stats_snapshot(self, names):
        return self._inner.stats_snapshot(names)

    def data_version(self, name):
        return self._inner.data_version(name)

    def changes_since(self, name, version):
        return self._inner.changes_since(name, version)

    def cache_identity(self, name):
        return self._inner.cache_identity(name)

    def mark_idb(self, names: Iterable[str]) -> None:
        self._inner.mark_idb(names)

    def idb_marks(self):
        return self._inner.idb_marks()

    def begin_batch(self) -> None:
        self._inner.begin_batch()

    def end_batch(self) -> None:
        self._inner.end_batch()

    def close(self) -> None:
        self._inner.close()


def traced_passes(passes: Sequence[Pass], recorder: Recorder) -> List[Pass]:
    """Wrap the default pipeline's passes; span names follow the pass's
    module (``optimize.inline``, ``optimize.magic_sets``, ...)."""
    wrapped: List[Pass] = []
    for optimization in passes:
        module = type(optimization).__module__.rsplit(".", 1)[-1]
        wrapped.append(TracedPass(optimization, recorder, f"optimize.{module}"))
    return wrapped
