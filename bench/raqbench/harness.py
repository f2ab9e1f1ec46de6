"""What every workload shares: result digests, op accounting, the machine
reference loop, and the pinned child environment."""

from __future__ import annotations

import gc
import json
import os
import random
import sys
import time
import zlib
from typing import Callable, Dict, Iterable, List, Optional, Sequence

BENCH_DIR = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
REPO_ROOT = os.path.dirname(BENCH_DIR)
OUT_DIR = os.path.join(BENCH_DIR, "out")
EXPECTED_DIR = os.path.join(BENCH_DIR, "expected")

#: every wait in the harness gives up after this long; the op then failed
DEADLINE_S = 10.0

#: every dataset is generated with this generator seed (the program's own
#: default): two graphs of one scale differ by +-9 % in edge count, which
#: would read as run-to-run noise.  ``--seed`` draws the bindings, the op
#: order and the inserted rows.
DATA_SEED = 42

Digest = List[int]


def child_environment() -> Dict[str, str]:
    """The environment of every process the benchmark starts, built from
    scratch (noise rule 5): nothing of the caller's leaks in, so ``REPRO_*``
    and ``RAQLET_BENCH_*`` are unset by construction."""
    return {
        "PATH": os.environ.get("PATH", "/usr/local/bin:/usr/bin:/bin"),
        "PYTHONHASHSEED": "0",
        "PYTHONPATH": "src",
        "LC_ALL": "C.UTF-8",
    }


def digest(rows: Iterable[Sequence]) -> Digest:
    """Reduce a result to ``[row count, order-independent hash]``.

    The hash adds up the CRC-32 of each row's ``repr`` (rows compare as
    tuples, so wire results — JSON lists — digest the same as in-process
    ones).  Independent of ``PYTHONHASHSEED`` and of the Python version.
    """
    count = 0
    total = 0
    for row in rows:
        count += 1
        total += zlib.crc32(repr(tuple(row)).encode("utf-8"))
    return [count, total & 0xFFFFFFFFFFFF]


def spin_ms(rounds: int = 200_000) -> float:
    """Time a fixed pure-Python loop: tells machine drift from program change."""
    started = time.perf_counter()
    accumulator = 0
    for index in range(rounds):
        accumulator = (accumulator * 31 + index) % 1_000_003
    return (time.perf_counter() - started) * 1e3


def typical_persons(dataset, count: int) -> List[int]:
    """The ``count`` persons whose KNOWS degree is nearest the median, nearest
    first: the typical request, not a hub or a leaf.  Deliberately not drawn
    by the seed — which person a seed hit would otherwise decide the numbers
    (result sizes differ several-fold); the seed orders them instead."""
    degree: Dict[int, int] = {person: 0 for person in dataset.person_ids}
    for row in dataset.relation("Person_KNOWS_Person"):
        degree[row[0]] += 1
        degree[row[1]] += 1
    ranked = sorted(degree, key=lambda person: (degree[person], person))
    middle = degree[ranked[len(ranked) // 2]]
    ranked.sort(key=lambda person: (abs(degree[person] - middle), person))
    return ranked[:count]


def load_expected(workload: str, seed: int) -> Optional[Dict[str, Digest]]:
    path = os.path.join(EXPECTED_DIR, f"{workload}-seed{seed}.json")
    if not os.path.exists(path):
        return None
    with open(path, "r", encoding="utf-8") as handle:
        return json.load(handle)["expected"]


def write_expected(workload: str, seed: int, expected: Dict[str, Digest], sources: List[str]) -> str:
    os.makedirs(EXPECTED_DIR, exist_ok=True)
    path = os.path.join(EXPECTED_DIR, f"{workload}-seed{seed}.json")
    lines = [f"  {json.dumps(key)}: {json.dumps(expected[key])}" for key in sorted(expected)]
    header = json.dumps({"workload": workload, "seed": seed, "agreed_by": sources})
    with open(path, "w", encoding="utf-8") as handle:
        # one key per line, so a changed result reads as a one-line diff
        handle.write(header[:-1] + ', "expected": {\n' + ",\n".join(lines) + "\n}}\n")
    return path


class BenchAbort(Exception):
    """The run cannot go on (a wait on the wire passed its deadline)."""


#: public counters of a :class:`~repro.engines.datalog.engine.DatalogEngine`
ENGINE_COUNTERS = (
    "plan_build_count",
    "replan_count",
    "full_rederive_count",
    "executor_fallback_count",
)


class Workload:
    """Base class: op accounting, correctness bookkeeping, tracing hooks.

    Subclasses implement :meth:`setup`, :meth:`lap`, :meth:`reference` /
    :meth:`second_reference` and :meth:`close`; they run every op through
    :meth:`timed` (or :meth:`record` when they time the op themselves).
    """

    name = "workload"

    def __init__(self, seed: int, smoke: bool, recorder=None) -> None:
        self.seed = seed
        self.smoke = smoke
        self.recorder = recorder
        self.rng = random.Random(seed)
        #: op class -> [measured lap number, seconds] of every recorded op
        self.samples: Dict[str, List[List[float]]] = {}
        self.lap_number = 0
        #: seconds this process has spent in full (generation-2) collections
        self.collecting_seconds = 0.0
        self._watch_full_collections()
        self.attempted: Dict[str, int] = {}
        self.failed: Dict[str, int] = {}
        self.errors: List[str] = []
        self.expected: Dict[str, Digest] = {}
        self.recording = False
        self.op_serial = 0
        #: cumulative counts the workload keeps itself (trace mode)
        self.counts: Dict[str, float] = {}

    # -- the op clock ------------------------------------------------------

    def _watch_full_collections(self) -> None:
        """Time every full collection (``gc.callbacks``; the collector keeps
        its default configuration)."""
        started = [0.0]

        def on_collection(phase: str, info: Dict[str, int]) -> None:
            if info["generation"] == 2:
                if phase == "start":
                    started[0] = time.perf_counter()
                else:
                    self.collecting_seconds += time.perf_counter() - started[0]

        gc.callbacks.append(on_collection)

    def clock(self) -> float:
        """The clock ops are timed with: it stands still during a full
        collection.  A 50 ms collection is caused by everything allocated
        since the last one, yet lands on one op — always the same one while
        the op order stays, another one after any change to it — so the op
        it lands on does not pay for it; the lap does (laps use the wall
        clock) and ``proc.gc_gen2_ms`` reports it."""
        return time.perf_counter() - self.collecting_seconds

    # -- lifecycle (overridden) --------------------------------------------

    def setup(self) -> None:
        raise NotImplementedError

    def lap(self) -> None:
        raise NotImplementedError

    def close(self) -> None:
        pass

    def reference(self) -> Dict[str, Digest]:
        """Expected digests from the primary reference engine."""
        raise NotImplementedError

    def second_reference(self) -> Dict[str, Digest]:
        """The same keys from an independent second engine family."""
        raise NotImplementedError

    def counters(self) -> Dict[str, float]:
        """Cumulative public counters of the program's layers; read before
        and after the measured laps."""
        return dict(self.counts)

    def gauges(self) -> Dict[str, float]:
        """Per-layer values that are not per-lap totals (trace mode)."""
        return {}

    def host_pid(self) -> int:
        """The process that hosts the program under test."""
        return os.getpid()

    def rederive_count(self) -> int:
        """Full re-derivations (and admission rejects) the live workloads
        must never see; counted as failed ops."""
        return 0

    def merge_server_trace(self, laps, lap_totals, setup_totals, counts, gauges) -> None:
        """Fold in what a traced server process recorded (``serve_mix``)."""

    # -- correctness -------------------------------------------------------

    def adopt_reference(self) -> None:
        """Compute the reference in set-up and cross-check it against the
        committed expected file when this seed has one."""
        self.expected = self.reference()
        # (smoke runs use smaller inputs, which the committed files do not cover)
        committed = None if self.smoke else load_expected(self.name, self.seed)
        if committed is None:
            return
        for key, value in self.expected.items():
            if committed.get(key) != value:
                self.note_failure("reference", f"{key}: committed {committed.get(key)} != {value}")
        self.attempted["reference"] = self.attempted.get("reference", 0) + 1

    def note_failure(self, op_class: str, message: str) -> None:
        self.failed[op_class] = self.failed.get(op_class, 0) + 1
        self.attempted.setdefault(op_class, 0)
        if len(self.errors) < 20:
            self.errors.append(f"{op_class}: {message}")

    def count(self, name: str, amount: float = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount

    # -- op accounting -----------------------------------------------------

    def record(self, op_class: str, seconds: float, ok: bool, why: str = "") -> None:
        self.attempted[op_class] = self.attempted.get(op_class, 0) + 1
        if not ok:
            self.note_failure(op_class, why or "wrong answer")
            return
        if self.recording:
            self.samples.setdefault(op_class, []).append([self.lap_number, seconds])

    def begin_op(self):
        self.op_serial += 1
        recorder = self.recorder
        if recorder is None:
            return None
        recorder.op_id = self.op_serial
        return recorder.begin("client.op")

    def end_op(self, frame) -> None:
        if frame is not None:
            self.recorder.end(frame)

    def run_op(self, call: Callable[[], object], check: Callable[[object], str]):
        """Run one op: time ``call``, then ``check`` its result (``""`` when
        right, else why not).  Returns ``(result, seconds, why)``; any
        exception but :class:`BenchAbort` makes it a failed op."""
        frame = self.begin_op()
        started = self.clock()
        try:
            result = call()
            seconds = self.clock() - started
            why = check(result)
        except BenchAbort:
            raise
        except Exception as exc:  # noqa: BLE001 - a failed op, never a crash
            seconds = self.clock() - started
            result = None
            why = f"{type(exc).__name__}: {exc}"
        finally:
            self.end_op(frame)
        return result, seconds, why

    def timed(self, op_class: str, call: Callable[[], object], check: Callable[[object], str]):
        """:meth:`run_op`, recorded under ``op_class``."""
        result, seconds, why = self.run_op(call, check)
        self.record(op_class, seconds, not why, why)
        return result

    def check_rows(self, key: str) -> Callable[[object], str]:
        expected = self.expected.get(key)

        def check(result) -> str:
            got = digest(result.rows)
            if got == expected:
                return ""
            return f"{key}: got {got}, expected {expected}"

        return check


def log(message: str) -> None:
    print(message, file=sys.stderr, flush=True)
