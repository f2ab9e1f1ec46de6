"""Smoke test of the benchmark itself (collected by the tier-1 ``pytest``).

Each workload runs once at ``--smoke`` size (one tiny lap) through the real
command, untraced and traced: every declared metric must come out by name,
no op may fail, and the span file may only name layers ``BENCHMARK.json``
declares.  The estimators get a unit test on synthetic bimodal samples —
the shape that made earlier attempts at this benchmark jump.
"""

import json
import os
import subprocess
import sys

import pytest

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
REPO_ROOT = os.path.dirname(BENCH_DIR)
sys.path.insert(0, BENCH_DIR)

from raqbench import estimators  # noqa: E402
from raqbench.metrics import WORKLOADS  # noqa: E402

with open(os.path.join(REPO_ROOT, "BENCHMARK.json"), "r", encoding="utf-8") as _handle:
    MANIFEST = json.load(_handle)


def run_benchmark(workload: str, trace: int) -> dict:
    completed = subprocess.run(
        [
            sys.executable,
            os.path.join("bench", "run.py"),
            "--workload",
            workload,
            "--seed",
            "1",
            "--seconds",
            "0.2",
            "--trace",
            str(trace),
            "--smoke",
        ],
        cwd=REPO_ROOT,
        capture_output=True,
        text=True,
        timeout=170,
        check=False,
    )
    assert completed.returncode == 0, completed.stderr[-2000:]
    return json.loads(completed.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", [name for name, _ in WORKLOADS])
def test_workload_reports_every_declared_metric(workload):
    outcome = run_benchmark(workload, trace=0)
    assert set(outcome) == {"correct", "attempted", "failed", "metrics"}
    assert outcome["correct"] is True and outcome["failed"] == 0
    assert outcome["attempted"] >= 1
    declared = {entry["name"]: entry["unit"] for entry in MANIFEST["end_to_end"]}
    assert {name: entry["unit"] for name, entry in outcome["metrics"].items()} == declared
    assert all(entry["value"] > 0 for entry in outcome["metrics"].values())


@pytest.mark.parametrize("workload", [name for name, _ in WORKLOADS])
def test_traced_run_names_only_declared_layers(workload):
    outcome = run_benchmark(workload, trace=1)
    assert outcome["correct"] is True and outcome["failed"] == 0
    declared = [entry["name"] for entry in MANIFEST["per_layer"]]
    assert list(outcome["metrics"]) == declared
    with open(
        os.path.join(BENCH_DIR, "out", f"spans-{workload}-1.json"), "r", encoding="utf-8"
    ) as handle:
        spans = json.load(handle)
    assert spans["format"] == ["name", "start_s", "end_s", "parent", "op_id"]
    assert spans["spans"], "a traced run records spans"
    for name in {span[0] for span in spans["spans"]}:
        assert any(metric.startswith(name) for metric in declared), name


def test_manifest_lists_what_the_harness_emits():
    from run import manifest

    assert MANIFEST == manifest()
    assert sorted(entry["name"] for entry in MANIFEST["workloads"]) == sorted(
        name for name, _ in WORKLOADS
    )
    assert "setup_s" in {entry["name"] for entry in MANIFEST["end_to_end"]}
    assert all(entry["bound"] <= 0.15 for entry in MANIFEST["end_to_end"])


def test_estimators_do_not_jump_on_bimodal_samples():
    # One op class with a fast and a slow mode (a collector pause on every
    # fourth op): its own p50 is steady ...
    fast, slow = 0.095, 0.160
    one_class = [slow if index % 4 == 3 else fast for index in range(100)]
    assert estimators.median(one_class) == fast
    # ... whereas a median over a *mix* of classes sits between two modes
    # and flips with a single sample; the benchmark never takes one.
    cheap, dear = [0.001] * 50, [0.100] * 50
    assert estimators.median(cheap + dear) != estimators.median(cheap + dear + [0.100])
    p50s = estimators.class_p50s({"cheap": cheap, "dear": dear, "empty": []})
    assert p50s == {"cheap": 0.001, "dear": 0.100}
    assert estimators.geomean(p50s.values()) == pytest.approx(0.01)
    assert estimators.group_geomean(p50s, ["dear", "absent"]) == pytest.approx(0.100)
    assert estimators.geomean([]) == 0.0


def test_lap_estimators():
    # neighbours slowed four of nine laps: the numbers come from the quiet third
    laps = [1.4, 1.0, 1.5, 1.01, 1.6, 1.02, 1.03, 1.5, 1.04]
    assert sorted(estimators.quiet_laps(laps)) == [1, 3, 5]
    assert estimators.typical_lap(laps) == pytest.approx(1.01)
    assert estimators.lap_throughput(101, laps) == pytest.approx(100.0)
    assert estimators.lap_spread(laps) == pytest.approx(0.6 / 1.04)
    assert estimators.quiet_laps([2.0]) == [0]
    assert estimators.quickest([1.9, 1.4, 2.3]) == 1.4
    assert estimators.percentile([1, 2, 3, 4], 0.5) == 2
    assert estimators.percentile([1, 2, 3, 4], 0.99) == 4
    values = [10.0, 10.1, 10.2, 10.3, 10.4, 10.5, 10.6, 10.7, 10.8, 10.9]
    assert estimators.summarize(values)["iqr_over_median"] < 0.06
    assert estimators.relative_gap(100.0, 110.0, "lower") == pytest.approx(0.10)
    assert estimators.relative_gap(100.0, 110.0, "higher") == pytest.approx(-0.10)
