"""The traced twin of ``raqlet serve`` for the ``serve_mix`` trace run.

Builds the same :class:`ServingPool` + :class:`RaqletServer` as
``repro.cli._cmd_serve`` from their public constructors, with delegating
store/executor objects and wrapped ``submit`` / ``mutate`` / ``apply`` /
``stats`` methods, speaks the same protocol, prints the same readiness line,
and writes its spans and per-layer totals to ``--out`` when it stops.  The
wire gains nothing: a phase boundary is an ordinary ``stats`` request.
"""

from __future__ import annotations

import argparse
import asyncio
import gc
import os
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from repro.engines.datalog.executor_compiled import create_executor
from repro.engines.datalog.storage import create_store
from repro.ldbc import load_dataset, snb_schema_mapping
from repro.pipeline import Raqlet
from repro.serving import RaqletServer, ServingPool

from raqbench.live import STATEMENTS
from raqbench.tracing import Recorder, TracedExecutor, TracedStore


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--scale", type=int, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--workers", type=int, default=2)
    parser.add_argument("--port", type=int, default=0)
    parser.add_argument("--out", required=True)
    args = parser.parse_args()

    recorder = Recorder()
    data = load_dataset(scale_persons=args.scale, seed=args.seed)
    raqlet = Raqlet(snb_schema_mapping())
    store = TracedStore(create_store("memory"), recorder, "memory")
    executor = TracedExecutor(create_executor("compiled"), recorder)
    pool = ServingPool(
        raqlet, data.facts, workers=args.workers, store=store, executor=executor
    )
    for name, text in sorted(STATEMENTS.items()):
        pool.prepare(name, text)

    #: per-layer totals and process counters of each phase a `stats` closed
    phases = []
    #: seconds from submit to future done, one per `run`, in arrival order
    run_seconds = []
    inner_submit = pool.submit

    def submit(name, parameters=None, **bindings):
        started = time.perf_counter()
        slot = len(run_seconds)
        run_seconds.append(None)
        future = inner_submit(name, parameters, **bindings)

        def done(_future) -> None:
            elapsed = time.perf_counter() - started
            run_seconds[slot] = elapsed
            recorder.leaf("pool.run", started, elapsed)

        future.add_done_callback(done)
        return future

    pool.submit = submit
    recorder.wrap_method(pool, "mutate", "pool.mutate")
    recorder.wrap_method(pool.shared, "apply", "shared.apply")
    inner_stats = pool.stats

    def stats():
        phases.append(
            {
                "totals": recorder.drain(),
                "runs": len(run_seconds),
                "cpu_s": time.process_time(),
                "gc_gen2": gc.get_stats()[2]["collections"],
                "write_rows": store.write_rows,
                "index_builds": store.index_build_count,
                "compile_count": executor.compile_count,
            }
        )
        return inner_stats()

    pool.stats = stats

    async def serve() -> None:
        server = RaqletServer(pool, host="127.0.0.1", port=args.port)
        host, port = await server.start()
        print(f"raqlet serving on {host}:{port}", flush=True)
        await server.serve_until_shutdown()

    try:
        asyncio.run(serve())
    finally:
        pool.close()
        store.close()
        data.close()
        recorder.dump(
            args.out,
            {"phases": phases, "run_seconds": run_seconds},
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
