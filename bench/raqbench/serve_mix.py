"""``serve_mix`` — the end-to-end path over the wire.

A real ``python -m repro.cli serve --workers 2 --store memory --executor
compiled`` child on an ephemeral port; the harness is a single-threaded
closed-loop client with two TCP connections.  Connection A sends ``run``
requests one at a time; connection B holds four subscriptions and sends the
``mutate`` requests, then waits for the ack and for every expected
notification frame.  Wire -> ``serving.server`` -> ``serving.pool`` routing
-> sync fold -> IVM -> executor -> ``storage_shared`` -> JSON frame: the
only workload where JSON, asyncio hops, snapshot pinning and per-worker
binding residency cost anything.

(The server answers a connection's requests strictly in order, so a
pipelining window of two would fold each request's predecessor into its
latency and break class purity; the window is one.)
"""

from __future__ import annotations

import json
import os
import select
import socket
import subprocess
import sys
import time
from typing import Dict, List, Optional, Sequence, Tuple

from raqbench.estimators import median
from raqbench.harness import (
    DATA_SEED,
    BenchAbort,
    DEADLINE_S,
    OUT_DIR,
    REPO_ROOT,
    child_environment,
    log,
)
from raqbench.live import (
    LiveWorkload,
    Mutation,
    Notification,
    Rows,
    Transport,
)

WORKERS = 2
BOOT_DEADLINE_S = 60.0


class _Connection:
    """One blocking TCP connection speaking newline-delimited JSON."""

    def __init__(self, host: str, port: int) -> None:
        self.socket = socket.create_connection((host, port), timeout=DEADLINE_S)
        self.socket.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.socket.settimeout(DEADLINE_S)
        self.reader = self.socket.makefile("rb")
        self.last_bytes = 0

    def send(self, payload: Dict) -> None:
        self.socket.sendall(json.dumps(payload).encode("utf-8") + b"\n")

    def receive(self) -> Dict:
        try:
            line = self.reader.readline()
        except (socket.timeout, TimeoutError) as exc:
            raise BenchAbort(f"no frame within {DEADLINE_S:.0f} s") from exc
        if not line:
            raise BenchAbort("server closed the connection")
        self.last_bytes = len(line)
        return json.loads(line)

    def request(self, payload: Dict) -> Dict:
        self.send(payload)
        return self.receive()

    def close(self) -> None:
        try:
            self.reader.close()
            self.socket.close()
        except OSError:
            pass


class ServerTransport(Transport):
    def __init__(self, traced: bool) -> None:
        self.traced = traced
        self.process: Optional[subprocess.Popen] = None
        self.readers: Optional[_Connection] = None
        self.writer: Optional[_Connection] = None
        #: client-observed ``run`` latencies and response sizes, in order
        self.run_latencies: List[float] = []
        self.response_bytes: List[int] = []
        self.trace_path = ""

    # -- lifecycle ---------------------------------------------------------

    def start(self, workload: LiveWorkload) -> None:
        self.clock = workload.clock
        scale = workload.dataset.scale_persons
        if self.traced:
            os.makedirs(OUT_DIR, exist_ok=True)
            self.trace_path = os.path.join(
                OUT_DIR, f"server-{workload.name}-{workload.seed}.json"
            )
            command = [
                sys.executable,
                os.path.join("bench", "serve_traced.py"),
                "--out",
                os.path.relpath(self.trace_path, REPO_ROOT),
            ]
        else:
            command = [
                sys.executable,
                "-m",
                "repro.cli",
                "serve",
                "--store",
                "memory",
                "--executor",
                "compiled",
            ]
        command += [
            "--scale",
            str(scale),
            "--seed",
            str(DATA_SEED),
            "--workers",
            str(WORKERS),
            "--port",
            "0",
        ]
        self.process = subprocess.Popen(
            command,
            cwd=REPO_ROOT,
            env=child_environment(),
            stdin=subprocess.DEVNULL,
            stdout=subprocess.PIPE,
            stderr=sys.stderr,
            bufsize=0,
        )
        host, port = self._await_ready()
        self.readers = _Connection(host, port)
        self.writer = _Connection(host, port)
        self.sids: Dict[int, int] = {}
        for index, (statement, person) in enumerate(workload.subscriptions):
            answer = self.writer.request(
                {
                    "op": "subscribe",
                    "name": statement,
                    "params": workload.params(statement, person),
                }
            )
            if not answer.get("ok"):
                raise RuntimeError(f"subscribe failed: {answer}")
            self.sids[answer["sid"]] = index

    def _await_ready(self) -> Tuple[str, int]:
        """Read the server's stdout until its readiness line."""
        assert self.process is not None and self.process.stdout is not None
        stream = self.process.stdout
        deadline = time.monotonic() + BOOT_DEADLINE_S
        buffered = b""
        while True:
            remaining = deadline - time.monotonic()
            if remaining <= 0 or not select.select([stream], [], [], remaining)[0]:
                raise RuntimeError("server did not come up before its deadline")
            chunk = os.read(stream.fileno(), 4096)
            if not chunk:
                raise RuntimeError("server exited before it was ready")
            buffered += chunk
            for line in buffered.split(b"\n")[:-1]:
                text = line.decode("utf-8", "replace")
                if text.startswith("raqlet serving on "):
                    host, _, port = text.split()[-1].rpartition(":")
                    return host, int(port)

    def host_pid(self) -> int:
        assert self.process is not None
        return self.process.pid

    def stats(self) -> Dict:
        assert self.readers is not None
        answer = self.readers.request({"op": "stats"})
        return answer.get("stats", {})

    def close(self) -> None:
        process = self.process
        if process is None:
            return
        try:
            if process.poll() is None and self.readers is not None:
                try:
                    self.readers.request({"op": "shutdown"})
                except (BenchAbort, OSError):
                    pass
            for connection in (self.readers, self.writer):
                if connection is not None:
                    connection.close()
            try:
                process.wait(timeout=DEADLINE_S)
            except subprocess.TimeoutExpired:
                log("server ignored shutdown; killing it")
        finally:
            if process.poll() is None:
                process.kill()
                process.wait()
            if process.stdout is not None:
                process.stdout.close()
            self.process = None

    # -- ops ---------------------------------------------------------------

    def read(self, statement: str, params: Dict[str, object]) -> Tuple[Rows, int]:
        connection = self.readers
        started = time.perf_counter()
        answer = connection.request({"op": "run", "name": statement, "params": params})
        self.run_latencies.append(time.perf_counter() - started)
        self.response_bytes.append(connection.last_bytes)
        if not answer.get("ok"):
            raise RuntimeError(f"run failed: {answer.get('code')}: {answer.get('error')}")
        return answer["rows"], answer["worker"]

    def mutate(
        self, kind: str, mutation: Mutation, expect: Sequence[int]
    ) -> Tuple[float, List[Notification]]:
        connection = self.writer
        connection.send(
            {"op": "mutate", kind: {relation: [list(row) for row in rows] for relation, rows in mutation}}
        )
        acknowledged = 0.0
        epoch = None
        waiting = set(expect)
        frames: List[Tuple[float, Dict]] = []
        arrived: List[Notification] = []
        while acknowledged == 0.0 or waiting:
            frame = connection.receive()
            now = self.clock()
            if frame.get("event") != "notification":
                if not frame.get("ok"):
                    raise RuntimeError(f"mutate failed: {frame}")
                acknowledged = now
                epoch = frame["epoch"]
                continue
            frames.append((now, frame))
            waiting.discard(self.sids.get(frame["sid"], -1))
        for at, frame in frames:
            index = self.sids.get(frame["sid"], -1)
            if frame["epoch"] != epoch:
                index = -1  # a frame of another batch: reported as unexpected
            arrived.append(Notification(index, at, frame["added"], frame["removed"]))
        return acknowledged, arrived


class ServeMix(LiveWorkload):
    name = "serve_mix"
    scale = 120
    subscription_count = 4

    def make_transport(self) -> Transport:
        return ServerTransport(traced=self.recorder is not None)

    def host_pid(self) -> int:
        return self.transport.host_pid()

    def counters(self) -> Dict[str, float]:
        """The pool's counters, by a ``stats`` request — which on the traced
        server also closes a phase of its per-layer totals."""
        stats = self.last_stats = self.transport.stats()
        return {
            "pool.executed_count": stats["executed_count"],
            "pool.coalesced_count": stats["coalesced_count"],
            "pool.rejected_count": stats["rejected_count"],
            "pool.notification_count": stats["notification_count"],
            "ivm.maintain_count": stats["maintain_count"],
            "engine.full_rederive_count": stats["full_rederive_count"],
        }

    def rederive_count(self) -> int:
        """Full re-derivations plus admission rejects: both must stay 0."""
        stats = self.last_stats
        return int(stats["full_rederive_count"]) + int(stats["rejected_count"])

    def gauges(self) -> Dict[str, float]:
        sizes = self.transport.response_bytes
        executed = [entry["executed"] for entry in self.last_stats["per_worker"]]
        mean = sum(executed) / len(executed)
        return {
            "server.response_bytes_p50": median(sizes) if sizes else 0.0,
            "server.response_bytes_max": float(max(sizes)) if sizes else 0.0,
            "pool.worker_imbalance": (max(executed) - min(executed)) / mean if mean else 0.0,
            "shared.log_entries": float(self.last_stats["shared"]["chain_entries"]),
        }

    def merge_server_trace(self, laps, lap_totals, setup_totals, counts, gauges) -> None:
        """The traced server wrote its phases when it stopped: phase 0 ends
        at the ``stats`` request before the measured laps, phase 1 at the one
        after them."""
        path = self.transport.trace_path
        if not os.path.exists(path):
            return
        with open(path, "r", encoding="utf-8") as handle:
            trace = json.load(handle)
        if len(trace["phases"]) < 2:
            return
        warmup, measured = trace["phases"][0], trace["phases"][1]
        lap_totals.update(measured["totals"])
        for name, entry in warmup["totals"].items():
            setup_totals.setdefault(name, entry)
        counts["storage.write_rows"] = measured["write_rows"] - warmup["write_rows"]
        counts["storage.index_build_count"] = measured["index_builds"] - warmup["index_builds"]
        counts["executor.compiled.compile_count"] = (
            measured["compile_count"] - warmup["compile_count"]
        )
        gauges["proc.gc_gen2_count"] = (measured["gc_gen2"] - warmup["gc_gen2"]) / laps
        # wire overhead: what the client saw minus the pool span of the
        # same request (the n-th `run` on the wire is the n-th `submit`)
        span = slice(warmup["runs"], measured["runs"])
        overheads = [
            seen - inside
            for seen, inside in zip(self.transport.run_latencies[span], trace["run_seconds"][span])
            if inside is not None
        ]
        gauges["server.wire_overhead_ms"] = 1e3 * median(overheads) if overheads else 0.0
