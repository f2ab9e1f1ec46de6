"""The child process that hosts the system under test for one run.

Started by ``run.py`` with a pinned environment.  Sets the workload up, runs
one untimed warm-up lap, prints ``READY`` (the parent stops the set-up clock
there), measures ``--laps`` identical laps of fixed work, and prints one
``RESULT {json}`` line.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import sys
import time
import traceback

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from raqbench.harness import DEADLINE_S, OUT_DIR, log, spin_ms, write_expected  # noqa: E402
from raqbench.metrics import layer_values  # noqa: E402

def make_workload(name: str, seed: int, smoke: bool, recorder):
    if name == "compile_corpus":
        from raqbench.compile_corpus import CompileCorpus as workload_class
    elif name == "oneshot_table1":
        from raqbench.oneshot_table1 import OneshotTable1 as workload_class
    elif name == "session_stream":
        from raqbench.session_stream import SessionStream as workload_class
    elif name == "serve_mix":
        from raqbench.serve_mix import ServeMix as workload_class
    else:
        raise SystemExit(f"unknown workload {name!r}")
    return workload_class(seed, smoke, recorder)


def process_cpu_seconds(pid: int) -> float:
    if pid == os.getpid():
        return time.process_time()
    with open(f"/proc/{pid}/stat", "r", encoding="utf-8") as handle:
        fields = handle.read().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


def peak_rss_mib(pid: int) -> float:
    if pid == os.getpid():
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    with open(f"/proc/{pid}/status", "r", encoding="utf-8") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    return 0.0


def regenerate_expected(workload) -> int:
    """Write the expected file only when two engine families agree."""
    first = workload.expected
    second = workload.second_reference()
    disagree = [key for key in first if second.get(key) != first[key]]
    if disagree or set(first) != set(second):
        log(f"{workload.name} seed {workload.seed}: engines disagree on {disagree[:5]}; nothing written")
        return 1
    path = write_expected(
        workload.name,
        workload.seed,
        first,
        [workload.reference.__doc__.strip().splitlines()[0], workload.second_reference.__doc__.strip().splitlines()[0]],
    )
    log(f"wrote {os.path.relpath(path)} ({len(first)} keys)")
    return 0


def measure_laps(workload, laps: int, lap_seconds) -> None:
    """Run ``laps`` identical laps, appending each lap's wall time."""
    recorder = workload.recorder
    for workload.lap_number in range(laps):
        frame = recorder.begin("client.lap") if recorder is not None else None
        lap_started = time.perf_counter()
        workload.lap()
        lap_seconds.append(time.perf_counter() - lap_started)
        if frame is not None:
            recorder.end(frame)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--laps", type=int, default=1)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--regen-expected", action="store_true")
    args = parser.parse_args()

    recorder = None
    if args.trace:
        from raqbench.tracing import Recorder

        recorder = Recorder()
    workload = make_workload(args.workload, args.seed, args.smoke, recorder)
    try:
        return run(workload, args, recorder)
    finally:
        workload.close()


def run(workload, args, recorder) -> int:
    workload.setup()
    if args.regen_expected:
        return regenerate_expected(workload)
    workload.lap()  # the untimed warm-up lap is part of set-up
    gc.collect()
    print("READY", flush=True)

    setup_totals = recorder.drain() if recorder is not None else {}
    before_counts = workload.counters()
    host = workload.host_pid()
    spin_before = spin_ms()
    cpu_before = process_cpu_seconds(host)
    gc_before = gc.get_stats()[2]["collections"]
    collecting_before = workload.collecting_seconds
    workload.recording = True
    lap_seconds = []
    try:
        measure_laps(workload, args.laps, lap_seconds)
    except Exception as exc:  # noqa: BLE001 - report the run as failed, with what we have
        traceback.print_exc()
        workload.note_failure("abort", f"{type(exc).__name__}: {exc}")
        lap_seconds.append(DEADLINE_S)
        after_counts = before_counts
    else:
        after_counts = workload.counters()
        violations = workload.rederive_count()
        if violations:
            workload.note_failure("full-rederive-or-reject", f"{violations} counted")
    workload.recording = False
    laps = len(lap_seconds)
    result = {
        "workload": workload.name,
        "seed": workload.seed,
        "lap_seconds": lap_seconds,
        "ops_per_lap": workload.ops_per_lap,
        "samples": workload.samples,
        "attempted": workload.attempted,
        "failed": workload.failed,
        "errors": workload.errors,
        "peak_rss_mb": peak_rss_mib(host),
        "cpu_s_per_lap": (process_cpu_seconds(host) - cpu_before) / laps,
        "gc_gen2_per_lap": (gc.get_stats()[2]["collections"] - gc_before) / laps,
        "gc_gen2_ms_per_lap": 1e3 * (workload.collecting_seconds - collecting_before) / laps,
        "spin_ms": 0.5 * (spin_before + spin_ms()),
    }

    if recorder is not None:
        lap_totals = recorder.drain()
        counts = {
            name: after_counts[name] - before_counts.get(name, 0) for name in after_counts
        }
        gauges = workload.gauges()
        workload.close()  # a traced server writes its file when it stops
        workload.merge_server_trace(laps, lap_totals, setup_totals, counts, gauges)
        layers = layer_values(laps, lap_totals, setup_totals, counts)
        layers.update(gauges)
        result["layers"] = layers
        os.makedirs(OUT_DIR, exist_ok=True)
        recorder.dump(
            os.path.join(OUT_DIR, f"spans-{workload.name}-{workload.seed}.json"),
            {"workload": workload.name, "seed": workload.seed, "laps": laps},
        )

    print("RESULT " + json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
