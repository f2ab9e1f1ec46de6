"""The Raqlet benchmark: one command, four workloads, every metric by name.

    python3 bench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

spawns fresh child processes (``bench/child.py``) with a pinned environment,
measures identical laps of fixed work, checks every result, and prints one
JSON object as the last line of its standard output:

* ``--trace 0`` — the end-to-end metrics.  Five fresh children run one
  after the other; each sets up and measures a fixed number of laps, their
  samples are pooled, and ``setup_s`` is the quickest of the five set-ups.
* ``--trace 1`` — the per-layer metrics: the same untraced run (group
  latencies, lap time), then one traced child whose spans come from
  delegating objects and wrapped public functions (``bench/out/`` receives
  the span file); ``trace.overhead_ratio`` is traced over untraced lap time.

The work is fixed: ``--seconds`` only scales the committed lap counts
(``raqbench/metrics.py``), which were calibrated so that the measured phase
takes about that long on a 2-vCPU VM.

Other modes: ``--selfcheck`` (two interleaved sets of runs, the check the
driver makes), ``--regen-expected`` (rewrite ``bench/expected/`` when two
engine families agree), ``--smoke`` (one tiny lap), ``--write-manifest``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import select
import signal
import subprocess
import sys
import time
from typing import Dict, List, Optional, Tuple

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from raqbench import estimators  # noqa: E402
from raqbench.harness import REPO_ROOT, child_environment, log  # noqa: E402
from raqbench.summary import combine  # noqa: E402
from raqbench.metrics import (  # noqa: E402
    CHILDREN,
    END_TO_END,
    GROUP_BOUND,
    GROUP_METRICS,
    GROUP_WORKLOADS,
    LAPS_PER_CHILD,
    MIN_CLASS_SAMPLES,
    MIN_LAPS,
    RUN_SECONDS,
    WORKLOADS,
    per_layer_manifest,
)

#: a child that has not finished by then is killed (the driver allows a run 180 s)
CHILD_DEADLINE_S = 150.0
MANIFEST_PATH = os.path.join(REPO_ROOT, "BENCHMARK.json")


class ChildFailed(Exception):
    pass


def spawn_child(arguments: List[str], budget_s: float) -> Tuple[float, Optional[Dict]]:
    """Run one child; return ``(seconds from spawn to READY, result)``.

    The child leads its own process group, which is killed whenever the
    child does not end by itself (deadline, error, interrupt) — no server
    it started can outlive the harness.
    """
    command = [sys.executable, os.path.join("bench", "child.py")] + arguments
    deadline = time.monotonic() + budget_s
    started = time.perf_counter()
    process = subprocess.Popen(
        command,
        cwd=REPO_ROOT,
        env=child_environment(),
        stdin=subprocess.DEVNULL,
        stdout=subprocess.PIPE,
        stderr=sys.stderr,
        bufsize=0,
        start_new_session=True,
    )
    setup_seconds = None
    result = None
    buffered = b""
    try:
        stream = process.stdout
        while True:
            remaining = deadline - time.monotonic()
            if remaining <= 0 or not select.select([stream], [], [], remaining)[0]:
                raise ChildFailed(f"child passed its {budget_s:.0f} s deadline")
            chunk = os.read(stream.fileno(), 1 << 16)
            if not chunk:
                break
            buffered += chunk
            *lines, buffered = buffered.split(b"\n")
            for line in lines:
                if line == b"READY" and setup_seconds is None:
                    setup_seconds = time.perf_counter() - started
                elif line.startswith(b"RESULT "):
                    result = json.loads(line[len(b"RESULT ") :])
        code = process.wait(timeout=max(1.0, deadline - time.monotonic()))
        if code != 0:
            raise ChildFailed(f"child exited with code {code}")
        if setup_seconds is None:
            raise ChildFailed("child never became ready")
        return setup_seconds, result
    finally:
        try:
            os.killpg(process.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        process.wait()
        process.stdout.close()


def child_arguments(workload: str, seed: int, seconds: float, smoke: bool) -> List[str]:
    """Fixed work: the committed lap count, scaled by ``seconds``."""
    laps = 1 if smoke else max(1, round(LAPS_PER_CHILD[workload] * seconds / RUN_SECONDS))
    arguments = ["--workload", workload, "--seed", str(seed), "--laps", str(laps)]
    if smoke:
        arguments.append("--smoke")
    return arguments


def run_end_to_end(workload: str, seed: int, seconds: float, smoke: bool) -> Dict:
    """``CHILDREN`` fresh children, one after the other, each setting up and
    then measuring its laps; samples are pooled, ``setup_s`` is the quickest
    set-up."""
    arguments = child_arguments(workload, seed, seconds, smoke)
    setups, children = [], []
    for _ in range(1 if smoke else CHILDREN):
        setup_seconds, result = spawn_child(arguments, CHILD_DEADLINE_S)
        if result is None:
            raise ChildFailed("child printed no result")
        setups.append(setup_seconds)
        children.append(result)
    pooled = combine(children)
    thinnest = pooled["diagnostics"]["client.min_class_samples"]
    if not smoke and (pooled["laps"] < MIN_LAPS or thinnest < MIN_CLASS_SAMPLES):
        raise ChildFailed(
            f"{pooled['laps']} laps and {thinnest:.0f} samples in the thinnest class: "
            f"a run needs {MIN_LAPS} and {MIN_CLASS_SAMPLES} (--seconds too short)"
        )
    metrics = dict(pooled["metrics"])
    metrics["setup_s"] = estimators.quickest(setups)
    units = {name: unit for name, unit, _, _ in END_TO_END}
    return {
        "correct": pooled["failed"] == 0,
        "attempted": pooled["attempted"],
        "failed": pooled["failed"],
        "metrics": {
            name: {"value": metrics[name], "unit": units[name]} for name in units
        },
        "detail": {"setups_s": setups, "plain": pooled},
    }


def run_traced(workload: str, seed: int, seconds: float, smoke: bool) -> Dict:
    """The untraced run for the group latencies and the lap time, then one
    traced child for the layers."""
    arguments = child_arguments(workload, seed, seconds, smoke) + ["--trace"]
    traced_child = spawn_child(arguments, CHILD_DEADLINE_S)[1]
    if traced_child is None:
        raise ChildFailed("child printed no result")
    traced = combine([traced_child])
    # a smoke run only checks that every name comes out: one child is enough
    plain = traced if smoke else run_end_to_end(workload, seed, seconds, smoke)["detail"]["plain"]
    values = {f"group.{name}": plain["groups"][name] for name in GROUP_METRICS}
    values.update(plain["diagnostics"])
    values.update(traced_child["layers"])
    values["trace.overhead_ratio"] = estimators.typical_lap(
        traced["lap_seconds"]
    ) / estimators.typical_lap(plain["lap_seconds"])
    manifest = per_layer_manifest()
    failed = plain["failed"] + traced["failed"]
    return {
        "correct": failed == 0,
        "attempted": plain["attempted"] + traced["attempted"],
        "failed": failed,
        "metrics": {
            entry["name"]: {"value": float(values.get(entry["name"], 0.0)), "unit": entry["unit"]}
            for entry in manifest
        },
        "detail": {"plain": plain, "traced": traced},
    }


def run_once(workload: str, seed: int, seconds: float, trace: bool, smoke: bool = False) -> Dict:
    if trace:
        return run_traced(workload, seed, seconds, smoke)
    return run_end_to_end(workload, seed, seconds, smoke)


def report(outcome: Dict) -> None:
    """The human-readable table (stderr): every metric by name and unit, and
    attempted / failed per op class."""
    for name, entry in outcome["metrics"].items():
        log(f"  {name:<44} {entry['value']:>14.4f} {entry['unit']}")
    detail = outcome["detail"]
    child = detail["plain"]
    for name, value in child["groups"].items():
        if value:
            log(f"  {name:<44} {value:>14.4f} ms")
    log(f"  laps {child['laps']}  ops/lap {child['ops_per_lap']}  typical lap "
        f"{1e3 * estimators.typical_lap(child['lap_seconds']):.1f} ms")
    for name, entry in child["classes"].items():
        typical = "-" if entry["typical_ms"] is None else f"{entry['typical_ms']:.3f}"
        log(f"    {name:<44} n={entry['n']:<5} typical_ms={typical:<10} "
            f"attempted={entry['attempted']} failed={entry['failed']}")
    for key in ("plain", "traced"):
        for error in (detail.get(key) or {}).get("errors", []):
            log(f"  ! {error}")


# -- BENCHMARK.json -----------------------------------------------------------


def manifest() -> Dict:
    return {
        "command": ["python3", "bench/run.py"],
        "paths": ["bench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": name, "why": why} for name, why in WORKLOADS],
        "end_to_end": [
            {"name": name, "unit": unit, "better": better, "bound": bound}
            for name, unit, better, bound in END_TO_END
        ],
        "per_layer": per_layer_manifest(),
    }


def write_manifest() -> int:
    with open(MANIFEST_PATH, "w", encoding="utf-8") as handle:
        json.dump(manifest(), handle, indent=2)
        handle.write("\n")
    log(f"wrote {MANIFEST_PATH}")
    return 0


# -- selfcheck ----------------------------------------------------------------


def machine_note() -> Dict:
    try:
        import numpy

        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "platform": platform.platform(),
    }


def gated_metrics(workload: str) -> List[Tuple[str, str, str, float]]:
    """What ``--selfcheck`` holds ``workload`` to: the end-to-end metrics and
    the group latencies that workload defines."""
    groups = [
        (name, "ms", "lower", GROUP_BOUND)
        for name in GROUP_METRICS
        if workload in GROUP_WORKLOADS[name]
    ]
    return END_TO_END + groups


def selfcheck(runs: int, seconds: float, workloads: List[str], out_path: str) -> int:
    """Two sets of ``runs`` runs per workload, interleaved A B A B ..., every
    run with another seed; for every metric the gap between the set medians
    and each set's inter-quartile range over its median must stay within the
    bound."""
    values: Dict[Tuple[str, str, str], List[float]] = {}
    failed_ops = 0
    for index in range(runs):
        for label, seed in (("A", 1 + index), ("B", 1 + runs + index)):
            for workload in workloads:
                outcome = run_once(workload, seed, seconds, trace=False)
                failed_ops += outcome["failed"] + (0 if outcome["correct"] else 1)
                measured = {name: entry["value"] for name, entry in outcome["metrics"].items()}
                measured.update(outcome["detail"]["plain"]["groups"])
                for name, _, _, _ in gated_metrics(workload):
                    values.setdefault((workload, name, label), []).append(measured[name])
                log(f"selfcheck {label}{index + 1} {workload} seed {seed}: "
                    + " ".join(f"{n}={e['value']:.4g}" for n, e in outcome["metrics"].items()))
    rows = []
    ok = failed_ops == 0
    for workload in workloads:
        for name, unit, better, bound in gated_metrics(workload):
            first = values[(workload, name, "A")]
            second = values[(workload, name, "B")]
            gap = estimators.relative_gap(
                estimators.median(first), estimators.median(second), better
            )
            row = {
                "workload": workload,
                "metric": name,
                "unit": unit,
                "bound": bound,
                "A": estimators.summarize(first),
                "B": estimators.summarize(second),
                "gap": gap,
            }
            spreads = [row["A"]["iqr_over_median"], row["B"]["iqr_over_median"]]
            row["ok"] = bool(abs(gap) <= bound and max(spreads) <= bound)
            ok = ok and row["ok"]
            rows.append(row)
            log(f"{workload:<16} {name:<20} A {row['A']['median']:.4g} "
                f"(iqr {spreads[0]:.3f})  B {row['B']['median']:.4g} (iqr {spreads[1]:.3f})  "
                f"gap {gap:+.3f}  bound {bound}  {'ok' if row['ok'] else 'FAIL'}")
    summary = {
        "schema": 1,
        "machine": machine_note(),
        "seconds": seconds,
        "runs_per_set": runs,
        "seeds": {"A": [1, runs], "B": [runs + 1, 2 * runs]},
        "failed_ops": failed_ops,
        "ok": ok,
        "rows": rows,
    }
    if out_path:
        # a baseline file also records where the time goes: one traced run
        # per workload (values that are 0 on a workload are left out)
        summary["layers"] = {}
        for workload in workloads:
            outcome = run_once(workload, 1, seconds, trace=True)
            failed_ops += outcome["failed"]
            summary["layers"][workload] = {
                name: entry["value"]
                for name, entry in outcome["metrics"].items()
                if entry["value"]
            }
        summary["failed_ops"] = failed_ops
        summary["claim"] = None
        with open(out_path, "w", encoding="utf-8") as handle:
            json.dump(summary, handle, indent=1)
            handle.write("\n")
    print(json.dumps({"selfcheck_ok": ok, "failed_ops": failed_ops}))
    return 0 if ok else 1


def regen_expected(workloads: List[str], seeds: List[int]) -> int:
    status = 0
    for workload in workloads:
        for seed in seeds:
            command = [
                sys.executable,
                os.path.join("bench", "child.py"),
                "--workload",
                workload,
                "--seed",
                str(seed),
                "--regen-expected",
            ]
            completed = subprocess.run(
                command, cwd=REPO_ROOT, env=child_environment(), timeout=600, check=False
            )
            status = status or completed.returncode
    return status


def main() -> int:
    names = [name for name, _ in WORKLOADS]
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=names)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=float(RUN_SECONDS))
    parser.add_argument("--trace", type=int, choices=(0, 1), nargs="?", const=1, default=0)
    parser.add_argument("--smoke", action="store_true", help="one tiny lap, no repeats")
    parser.add_argument("--selfcheck", action="store_true")
    parser.add_argument("--runs", type=int, default=10, help="runs per set for --selfcheck")
    parser.add_argument("--out", default="", help="where --selfcheck writes its table")
    parser.add_argument("--regen-expected", action="store_true")
    parser.add_argument("--write-manifest", action="store_true")
    args = parser.parse_args()

    if not os.path.isdir(os.path.join(REPO_ROOT, "src", "repro")):
        log("bench/run.py: src/repro is missing — nothing to measure")
        return 2
    if args.write_manifest:
        return write_manifest()
    chosen = [args.workload] if args.workload else names
    if args.regen_expected:
        return regen_expected(chosen, [1, 2, 3])
    if args.selfcheck:
        return selfcheck(args.runs, args.seconds, chosen, args.out)
    if not args.workload:
        parser.error("--workload is required")
    try:
        outcome = run_once(args.workload, args.seed, args.seconds, bool(args.trace), args.smoke)
    except ChildFailed as failure:
        log(f"bench/run.py: {failure}")
        return 1
    report(outcome)
    outcome.pop("detail")
    print(json.dumps(outcome))
    return 0


if __name__ == "__main__":
    sys.exit(main())
