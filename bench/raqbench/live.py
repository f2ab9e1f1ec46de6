"""The lap program shared by the two live workloads.

``session_stream`` (an embedded :class:`repro.session.Session`) and
``serve_mix`` (a real ``raqlet serve`` process over TCP) replay the **same**
lap — the same statements, bindings, mutations and standing queries — over
two transports, so the difference between their numbers is the serving
stack's price.

One lap is ``PAIRS_PER_LAP`` blocks.  A block reads every statement with
rotating bindings (each a re-derivation), returns to the hot binding, reads
it warm, then inserts a fresh ``Person`` plus a ``Person_KNOWS_Person`` edge
to the hot person, reads every statement again (the first consistent read
after the insert), and finally retracts the same rows and reads again — so
every lap leaves the data exactly as it found it.

Op classes are decided by what the program did, not by what the harness
hoped: a read is *warm* when the worker that served it last served the same
statement with the same binding at the same epoch, otherwise a *rebind*
(the response names the worker; an embedded session is worker 0).
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

from repro.engines.sqlite_exec import SQLiteExecutor
from repro.ldbc import generate_snb_dataset, snb_schema_mapping
from repro.ldbc import queries as ldbc_queries
from repro.pipeline import Raqlet

from raqbench.harness import (
    DATA_SEED,
    Digest,
    Workload,
    digest,
    typical_persons,
)

STATEMENTS = {
    "sq1": ldbc_queries.SHORT_QUERY_1,
    "cq2": ldbc_queries.COMPLEX_QUERY_2,
    "fof": ldbc_queries.FRIENDS_OF_FRIENDS,
    "reach": ldbc_queries.FRIEND_REACHABILITY,
}

#: insert/retract pairs (blocks) in one lap
PAIRS_PER_LAP = 1
#: rotating-binding reads per statement per block
ROTATING_READS = 1
#: same-binding reads per statement per block before the insert
WARM_READS = 3
#: distinct rotating bindings
ROTATING_BINDINGS = 16

Rows = List[Tuple]
Mutation = List[Tuple[str, Rows]]


class Notification:
    __slots__ = ("subscription", "at", "added", "removed")

    def __init__(self, subscription: int, at: float, added: Rows, removed: Rows) -> None:
        self.subscription = subscription
        self.at = at
        self.added = added
        self.removed = removed


class Transport:
    """How a live workload reaches the program."""

    def start(self, workload: "LiveWorkload") -> None:
        raise NotImplementedError

    def read(self, statement: str, params: Dict[str, object]) -> Tuple[Rows, int]:
        """Run a prepared statement; return ``(rows, worker index)``."""
        raise NotImplementedError

    def mutate(
        self, kind: str, mutation: Mutation, expect: Sequence[int]
    ) -> Tuple[float, List[Notification]]:
        """Apply one mutation batch (``kind`` is ``insert`` or ``retract``)
        and wait — within the deadline — for the notifications of the
        subscriptions in ``expect``.  Return the time (on the workload's
        ``clock``) the mutation was acknowledged and every notification that
        arrived."""
        raise NotImplementedError

    def close(self) -> None:
        pass


class LiveWorkload(Workload):
    """Plan, references and lap shared by ``session_stream`` / ``serve_mix``."""

    #: persons in the dataset
    scale = 120
    #: standing queries held for the whole run
    subscription_count = 8

    def make_transport(self) -> Transport:
        raise NotImplementedError

    # -- the plan ----------------------------------------------------------

    def setup(self) -> None:
        scale = 40 if self.smoke else self.scale
        pairs = 1 if self.smoke else PAIRS_PER_LAP
        rotating = 4 if self.smoke else ROTATING_BINDINGS
        rng = self.rng
        self.raqlet = Raqlet(snb_schema_mapping())
        self.dataset = generate_snb_dataset(scale, DATA_SEED)
        persons = typical_persons(self.dataset, 1 + rotating)
        self.hot = persons[0]
        self.rotating = persons[1:]
        # standing bindings beside the hot one: fixed, so that which
        # subscriptions a mutation fires never depends on the seed
        others = self.rotating[:2]
        rng.shuffle(self.rotating)
        self.max_date = self.dataset.median_message_date()
        # Statement order is fixed: standing queries are flushed in
        # subscription order, so shuffling it would move a DRed pass in
        # front of, or behind, another statement's notification.
        self.order = list(STATEMENTS)
        self.mutations: List[Mutation] = [
            self._fresh_person(index, rng) for index in range(pairs)
        ]
        hot_subscriptions = [(statement, self.hot) for statement in self.order]
        extra = [
            ("fof", others[0]),
            ("cq2", others[0]),
            ("fof", others[1]),
            ("sq1", others[0]),
        ]
        self.subscriptions = (hot_subscriptions + extra)[: self.subscription_count]
        self.steps = self._lap_steps(pairs)
        # a mutation step is the mutation plus one after-read per statement
        self.ops_per_lap = len(self.steps) + 2 * pairs * len(STATEMENTS)
        self.compiled = {
            name: self.raqlet.compile_cypher(text) for name, text in STATEMENTS.items()
        }
        self._reference_rows: Dict[str, Rows] = {}
        self.adopt_reference()
        self._plan_notifications()
        #: (worker, statement) -> (binding, state) of the last read served
        self._resident: Dict[Tuple[int, str], Tuple[int, str]] = {}
        self.state = "base"
        self.transport = self.make_transport()
        self.transport.start(self)

    def params(self, statement: str, person: int) -> Dict[str, object]:
        if statement == "cq2":
            return {"personId": person, "maxDate": self.max_date}
        return {"personId": person}

    def _fresh_person(self, index: int, rng) -> Mutation:
        person = 900_001 + index
        row = (
            person,
            f"Fresh{rng.randrange(1000)}",
            f"Person{rng.randrange(1000)}",
            "female" if rng.random() < 0.5 else "male",
            rng.randrange(10**9),
            rng.randrange(10**9),
            f"10.{rng.randrange(256)}.{rng.randrange(256)}.{rng.randrange(256)}",
            "Firefox",
        )
        edge = (self.hot, person, 990_001 + index, rng.randrange(10**9))
        return [("Person", [row]), ("Person_KNOWS_Person", [edge])]

    def _lap_steps(self, pairs: int) -> List[tuple]:
        steps: List[tuple] = []
        cursor = 0
        for pair in range(pairs):
            for statement in self.order:
                for _ in range(ROTATING_READS):
                    steps.append(("read", statement, self.rotating[cursor % len(self.rotating)]))
                    cursor += 1
                for _ in range(1 + WARM_READS):
                    steps.append(("read", statement, self.hot))
            steps.append(("insert", pair))
            steps.append(("retract", pair))
        return steps

    # -- references --------------------------------------------------------

    def _states(self) -> Dict[str, Dict[str, Rows]]:
        """The fact sets the lap passes through: ``base`` and one per insert."""
        base = self.dataset.facts
        states = {"base": base}
        for index, mutation in enumerate(self.mutations):
            facts = dict(base)
            for relation, rows in mutation:
                facts[relation] = list(base[relation]) + list(rows)
            states[f"ins{index}"] = facts
        return states

    def _keys(self, state: str) -> List[Tuple[str, int]]:
        if state == "base":
            persons = [self.hot] + list(self.rotating)
            keys = [(statement, person) for statement in STATEMENTS for person in persons]
        else:
            keys = [(statement, self.hot) for statement in STATEMENTS]
        keys.extend(key for key in self.subscriptions if key not in keys)
        return keys

    def reference(self) -> Dict[str, Digest]:
        """SQLite running the generated SQL over each state's facts."""
        expected = {}
        schema = self.raqlet.dl_schema
        for state, facts in self._states().items():
            with SQLiteExecutor(schema, facts) as executor:
                executor.create_indexes()
                for statement, person in self._keys(state):
                    result = self.raqlet.run_on_sqlite(
                        self.compiled[statement],
                        executor,
                        parameters=self.params(statement, person),
                    )
                    key = f"{state}/{statement}@{person}"
                    self._reference_rows[key] = [tuple(row) for row in result.rows]
                    expected[key] = digest(result.rows)
        return expected

    def second_reference(self) -> Dict[str, Digest]:
        """The Datalog engine on the plan interpreter, one cold one-shot per key."""
        got = {}
        for state, facts in self._states().items():
            for statement, person in self._keys(state):
                result = self.raqlet.run_on_datalog_engine(
                    self.compiled[statement],
                    facts,
                    store="memory",
                    executor="interpreted",
                    parameters=self.params(statement, person),
                )
                got[f"{state}/{statement}@{person}"] = digest(result.rows)
        return got

    def _plan_notifications(self) -> None:
        """Which subscriptions must fire for which mutation, and with what:
        the difference of the reference rows before and after."""
        self.expected_deltas: Dict[Tuple[int, int], Rows] = {}
        for pair in range(len(self.mutations)):
            for index, (statement, person) in enumerate(self.subscriptions):
                before = set(self._reference_rows[f"base/{statement}@{person}"])
                after = set(self._reference_rows[f"ins{pair}/{statement}@{person}"])
                if before - after:
                    raise RuntimeError("an insert may only grow these results")
                if after - before:
                    self.expected_deltas[(pair, index)] = sorted(after - before)

    # -- the lap -----------------------------------------------------------

    def lap(self) -> None:
        for step in self.steps:
            if step[0] == "read":
                self._read(step[1], step[2])
            else:
                self._mutate(step[0], step[1])

    def _timed_read(self, statement: str, person: int) -> Tuple[float, str, bool]:
        """One read op: ``(seconds, why it failed or "", served warm)``."""
        key = f"{self.state}/{statement}@{person}"
        expected = self.expected.get(key)
        params = self.params(statement, person)

        def check(answer) -> str:
            got = digest(answer[0])
            return "" if got == expected else f"{key}: got {got}, expected {expected}"

        answer, seconds, why = self.run_op(
            lambda: self.transport.read(statement, params), check
        )
        slot = (answer[1] if answer else 0, statement)
        warm = self._resident.get(slot) == (person, self.state)
        self._resident[slot] = (person, self.state)
        return seconds, why, warm

    def _read(self, statement: str, person: int) -> None:
        seconds, why, warm = self._timed_read(statement, person)
        kind = "read_warm" if warm else "read_rebind"
        self.record(f"{kind}/{statement}", seconds, not why, why)

    def _mutate(self, kind: str, pair: int) -> None:
        mutation = self.mutations[pair]
        if kind == "retract":
            mutation = list(reversed(mutation))
        expect = [index for (p, index) in self.expected_deltas if p == pair]
        issued = self.clock()
        answer, _, failure = self.run_op(
            lambda: self.transport.mutate(kind, mutation, expect), lambda _: ""
        )
        acknowledged, notifications = answer or (self.clock(), [])
        apply_seconds = acknowledged - issued
        self.state = f"ins{pair}" if kind == "insert" else "base"
        self._check_notifications(kind, pair, issued, notifications, expect, failure)
        # Mutation -> result consistent: the mutation plus the first read
        # of each statement after it.
        for statement in self.order:
            read_seconds, why, _ = self._timed_read(statement, self.hot)
            why = failure or why
            self.record(f"{kind}/{statement}", apply_seconds + read_seconds, not why, why)

    def _check_notifications(
        self,
        kind: str,
        pair: int,
        issued: float,
        notifications: List[Notification],
        expect: Sequence[int],
        failure: str,
    ) -> None:
        seen = {}
        for notification in notifications:
            seen.setdefault(notification.subscription, notification)
            if notification.subscription not in expect:
                self.note_failure("notify.unexpected", f"subscription {notification.subscription}")
        for index in expect:
            statement, person = self.subscriptions[index]
            op_class = f"notify.{kind}/{statement}@{'hot' if person == self.hot else index}"
            notification = seen.get(index)
            want = self.expected_deltas[(pair, index)]
            if failure or notification is None:
                self.record(op_class, 0.0, False, failure or "notification missed its deadline")
                continue
            grew, shrank = notification.added, notification.removed
            if kind == "retract":
                grew, shrank = shrank, grew
            right = sorted(map(tuple, grew)) == want and not shrank
            self.record(op_class, notification.at - issued, right, f"wrong delta for pair {pair}")

    def close(self) -> None:
        transport = getattr(self, "transport", None)
        if transport is not None:
            transport.close()
