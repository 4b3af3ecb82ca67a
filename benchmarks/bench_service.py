"""Service-layer benchmarks: cache speedup, sweep reuse, hot-path costs.

Acceptance measurements for the service layer, among them: warm
(cached) ``assess()`` on a repeated (profile, params) pair must be
>= 10x faster than the cold computation.

Run with::

    PYTHONPATH=src python -m pytest benchmarks/bench_service.py -s --benchmark-disable
"""

from __future__ import annotations

import gc
import json
import statistics
import threading
import time

import pytest

from repro.datasets import load_benchmark
from repro.io import profile_from_json, profile_to_json
from repro.recipe import assess_risk
from repro.service import (
    AssessmentCache,
    AssessmentEngine,
    profile_fingerprint,
)
from repro.service.faults import fault_point
from repro.service.routes import _gc_paused


def test_service_cold_vs_warm(report):
    """Warm-cache assess() must be >= 10x faster than the cold pass."""
    profile = load_benchmark("retail").profile
    engine = AssessmentEngine()

    start = time.perf_counter()
    cold = engine.assess(profile, 0.01, runs=25)
    cold_seconds = time.perf_counter() - start
    assert not cold.cached

    warm_seconds = []
    for _ in range(5):
        start = time.perf_counter()
        warm = engine.assess(profile, 0.01, runs=25)
        warm_seconds.append(time.perf_counter() - start)
        assert warm.cached and warm.assessment == cold.assessment
    best_warm = min(warm_seconds)

    speedup = cold_seconds / best_warm
    report(
        "service_cold_vs_warm",
        [
            f"cold assess (retail, tau=0.01, runs=25): {cold_seconds * 1e3:8.2f} ms",
            f"warm assess (cache hit, best of 5):      {best_warm * 1e3:8.4f} ms",
            f"speedup: {speedup:,.0f}x (acceptance floor: 10x)",
        ],
    )
    assert speedup >= 10.0


def test_service_sweep_reuses_space(report):
    """A tolerance sweep through the engine beats one-shot re-assessment."""
    profile = load_benchmark("retail").profile
    tolerances = [0.002, 0.005, 0.01, 0.02, 0.05, 0.1]

    start = time.perf_counter()
    naive = [assess_risk(profile, tolerance) for tolerance in tolerances]
    naive_seconds = time.perf_counter() - start

    engine = AssessmentEngine()
    start = time.perf_counter()
    swept = engine.sweep_tolerance(profile, tolerances)
    sweep_seconds = time.perf_counter() - start

    assert [outcome.assessment.decision for outcome in swept] == [
        result.decision for result in naive
    ]
    spaces_built = engine.metrics.snapshot()["timers"]["stage:space"]["count"]
    report(
        "service_sweep_reuse",
        [
            f"{len(tolerances)}-point tolerance sweep on retail",
            f"one-shot assess_risk per point: {naive_seconds:7.3f} s",
            f"engine sweep (shared space):    {sweep_seconds:7.3f} s",
            f"spaces built by the engine: {spaces_built}",
            f"speedup: {naive_seconds / sweep_seconds:.1f}x",
        ],
    )
    assert spaces_built == 1
    assert sweep_seconds < naive_seconds


def test_service_fault_point_overhead(report):
    """An uninstrumented fault_point() must cost well under a microsecond.

    fault_point() sits on the cache read/write and compute hot paths; the
    no-injector fast path is one global load and a None check, so leaving
    the hooks in production code has to be effectively free.
    """
    iterations = 1_000_000
    start = time.perf_counter()
    for _ in range(iterations):
        fault_point("bench.site")
    elapsed = time.perf_counter() - start
    per_call_ns = elapsed / iterations * 1e9

    report(
        "service_fault_point_overhead",
        [
            f"{iterations:,} uninstrumented fault_point() calls: {elapsed:6.3f} s",
            f"per call: {per_call_ns:6.1f} ns (floor: < 1000 ns)",
        ],
    )
    assert per_call_ns < 1000.0


def test_service_single_flight_dedup(report):
    """N threads asking the same cold question trigger exactly one compute.

    Thread-count scaling is irrelevant here (and not asserted, per the
    single-CPU host caveat): the point is the *compute count*, which the
    single-flight path must hold at 1 no matter how many callers race.
    """
    profile = load_benchmark("retail").profile
    engine = AssessmentEngine()
    thread_count = 8
    barrier = threading.Barrier(thread_count)
    outcomes = []
    lock = threading.Lock()

    def worker():
        barrier.wait()
        outcome = engine.assess(profile, 0.01, runs=25)
        with lock:
            outcomes.append(outcome)

    start = time.perf_counter()
    threads = [threading.Thread(target=worker) for _ in range(thread_count)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    elapsed = time.perf_counter() - start

    computed = engine.metrics.counter("computed")
    coalesced = engine.cache.stats()["coalesced"]
    assert computed == 1
    assert len({id(outcome.assessment) for outcome in outcomes}) == 1
    report(
        "service_single_flight_dedup",
        [
            f"{thread_count} concurrent threads, same cold request (retail)",
            f"wall clock: {elapsed:7.3f} s",
            f"computes: {computed} (floor: exactly 1)",
            f"coalesced waiters: {coalesced}, "
            f"cache hits: {engine.metrics.counter('cache_hits')}",
        ],
    )


def test_service_atomic_write_overhead(report, tmp_path):
    """Disk-tier puts stay fast despite the temp-file + rename dance."""
    report_obj = assess_risk(load_benchmark("chess").profile, 0.05)
    cache = AssessmentCache(directory=tmp_path)
    writes = 200

    start = time.perf_counter()
    for index in range(writes):
        cache.put(f"fp{index:04d}", report_obj)
    elapsed = time.perf_counter() - start

    assert not list(tmp_path.glob("*.tmp"))  # every temp was promoted
    assert len(list(tmp_path.glob("*.json"))) == writes
    report(
        "service_atomic_write_overhead",
        [
            f"{writes} atomic disk-tier puts (temp file + rename)",
            f"wall clock: {elapsed:7.3f} s ({writes / elapsed:7.1f} puts/s)",
            "no orphan temp files left behind",
        ],
    )


def test_service_request_decode(report):
    """A RETAIL-size tagged body: json.loads + decode + fingerprint, paused or not.

    The ``POST /assess`` front end on a cache hit.  Without the pause,
    the two lists per tagged item survive the collections the parse
    triggers and drive full (generation-2) collections; with it, none
    run inside the decode.
    """
    profile = load_benchmark("retail").profile
    body = json.dumps({"profile": profile_to_json(profile), "tolerance": 0.1}).encode()
    rounds = 30
    full_collections = {"gc on": 0, "paused": 0}
    seconds: dict[str, list[float]] = {"gc on": [], "paused": []}
    current = ["gc on"]

    def count_full(phase, info):
        if phase == "start" and info["generation"] == 2:
            full_collections[current[0]] += 1

    def decode():
        payload = json.loads(body)
        return profile_fingerprint(profile_from_json(payload.pop("profile")))

    expected = profile_fingerprint(profile)
    was_enabled = gc.isenabled()
    gc.enable()
    gc.callbacks.append(count_full)
    try:
        for _ in range(rounds):
            for label in ("gc on", "paused"):
                current[0] = label
                start = time.perf_counter()
                if label == "paused":
                    with _gc_paused():
                        fingerprint = decode()
                else:
                    fingerprint = decode()
                seconds[label].append(time.perf_counter() - start)
                assert fingerprint == expected
    finally:
        gc.callbacks.remove(count_full)
        if not was_enabled:
            gc.disable()

    median_ms = {label: statistics.median(times) * 1e3 for label, times in seconds.items()}
    report(
        "service_request_decode",
        [
            f"RETAIL profile, {len(profile)} items, {len(body) / 1024:.0f} kB tagged body",
            f"{rounds} alternating rounds of json.loads + profile_from_json + fingerprint",
            f"gc on: median {median_ms['gc on']:7.2f} ms, "
            f"{full_collections['gc on']} full collections",
            f"paused: median {median_ms['paused']:7.2f} ms, "
            f"{full_collections['paused']} full collections (floor: 0)",
        ],
    )
    assert full_collections["paused"] == 0


def test_perf_engine_cold_assess(benchmark):
    """pytest-benchmark timing of one cold engine pass on retail."""
    profile = load_benchmark("retail").profile

    def cold():
        return AssessmentEngine().assess(profile, 0.01, runs=25)

    outcome = benchmark(cold)
    assert outcome.assessment.decision is not None


def test_perf_engine_warm_assess(benchmark):
    """pytest-benchmark timing of the cache-hit path on retail."""
    profile = load_benchmark("retail").profile
    engine = AssessmentEngine()
    engine.assess(profile, 0.01, runs=25)

    outcome = benchmark(engine.assess, profile, 0.01, runs=25)
    assert outcome.cached
