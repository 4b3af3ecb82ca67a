"""Checks of the benchmark itself: determinism, percentile placement, tracing.

Run from the repository root::

    python3 -m pytest bench_e2e -q

These take a few minutes: they generate every workload and run short
timed and traced passes.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

#: Per-layer metrics that are counts of work, not times: they must
#: repeat exactly for one seed.
COUNT_METRICS = (
    [f"{layer}.calls" for layer in spans.LAYERS]
    + [
        "cache.hit_ratio",
        "cache.disk_hit_ratio",
        "cache.disk_writes",
        "engine.memo_hit_ratio",
        "exact.served_ratio",
        "dp_memo.hit_ratio",
        "io.parse.kb",
        "fingerprint.items",
        "trace.requests",
    ]
)


def bench(*args: str, cwd: Path = HERE.parent) -> subprocess.CompletedProcess[str]:
    return subprocess.run(
        [sys.executable, str(cwd / "bench_e2e" / "run.py"), *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=170,
    )


def result(completed: subprocess.CompletedProcess[str]) -> dict:
    assert completed.returncode == 0, completed.stderr
    return json.loads(completed.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_generation_is_a_pure_function_of_the_seed(name):
    first = workloads.request_digest(workloads.make_workload(name, 7), rounds=2)
    again = workloads.request_digest(workloads.make_workload(name, 7), rounds=2)
    other = workloads.request_digest(workloads.make_workload(name, 8), rounds=2)
    assert first == again
    assert first != other


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_counts_repeat_exactly_for_one_seed(name):
    runs = [result(bench("--workload", name, "--seed", "5", "--seconds", "1", "--trace", "1"))
            for _ in range(2)]
    for run_result in runs:
        assert run_result["correct"] and run_result["failed"] == 0
    first, second = (r["metrics"] for r in runs)
    assert {k: first[k]["value"] for k in COUNT_METRICS} == {
        k: second[k]["value"] for k in COUNT_METRICS
    }


@pytest.mark.parametrize(
    "name, seconds", [("cold_fig8", 15.0), ("sweep_tau", 5.0), ("hot_zipf", 5.0)]
)
def test_percentiles_land_inside_one_class_or_rung(name, seconds):
    workload = workloads.make_workload(name, 3)
    core, directory, _ = run.set_up(workload.setup_requests())
    try:
        need = max(run.min_samples_for(50), run.min_samples_for(90))
        records = run.run_rounds(core, workload, None, seconds, need)
    finally:
        shutil.rmtree(directory, ignore_errors=True)
    assert all(record.ok for record in records)
    for pct in (50, 90):
        where = run.purity(records, pct)
        assert where["pure"], (pct, where)


def test_percentile_needs_ten_samples_beyond():
    assert run.min_samples_for(90) == 100
    assert run.min_samples_for(50) == 20

    def records(n):
        return [
            run.Record((0, i), "x", False, 1, 1, i / 1000, 200, False, "r", b"") for i in range(n)
        ]

    assert run.percentile(records(99), 90) is None
    assert run.percentile(records(100), 90) == pytest.approx(0.089)
    assert run.percentile(records(20), 50) == pytest.approx(0.009)


def test_self_times_partition_the_root_and_leaves_absorb_nested_calls():
    tracer = spans.Tracer()
    inner = tracer.wrap("attack", lambda: None, leaf=True)
    leaf = tracer.wrap("exact", lambda: inner(), leaf=True)
    container = tracer.wrap("engine", lambda: (leaf(), inner()), leaf=False)
    tracer.request(0, container)
    assert [span[0] for span in tracer.spans] == ["routes", "engine", "exact", "attack"]
    assert [span[3] for span in tracer.spans] == [-1, 0, 1, 1]
    totals = spans.layer_totals(tracer.spans)
    root = totals["routes"]["total"]
    assert sum(entry["self"] for entry in totals.values()) == pytest.approx(root)
    inner()  # outside any request: not recorded
    assert len(tracer.spans) == 4


def test_exits_nonzero_without_the_program(tmp_path):
    (tmp_path / "bench_e2e").mkdir()
    for path in HERE.glob("*.py"):
        shutil.copy(path, tmp_path / "bench_e2e" / path.name)
    completed = bench("--workload", "cold_fig8", "--seed", "1", "--seconds", "1", cwd=tmp_path)
    assert completed.returncode != 0
    assert completed.stdout == ""
