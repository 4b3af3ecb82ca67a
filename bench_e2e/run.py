"""End-to-end benchmark of ``POST /assess``, in process.

Drives ``ServiceCore.dispatch("POST", "/assess", body)`` followed by
``RouteResponse.body()`` as a closed loop with one caller thread, over
one of the workloads in :mod:`workloads`, and prints one JSON object as
the last line of standard output::

    python3 bench_e2e/run.py --workload cold_fig8 --seed 1 --seconds 25 --trace 0

``--trace 0`` prints the end-to-end metrics of a time-bounded run;
``--trace 1`` runs a fixed number of rounds twice, untraced and then
with layer spans, and prints the per-layer metrics; ``--smoke`` does one
round of both, for a quick check.  See ``README.md`` beside this file.

Times are reported at a reference host speed: a fixed pure-Python probe
runs before the first request and after every request, and each
request's time is multiplied by ``PROBE_REFERENCE_SECONDS`` over the
median of the probes around it.  On a shared host the speed of the
whole process drifts by up to half within seconds; the probe drifts
with it.
"""

from __future__ import annotations

import argparse
import json
import resource
import shutil
import statistics
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any

import numpy as np

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
WORK = HERE / ".work"

#: Set-ups per untraced run; ``setup_s`` is their median.
SETUPS = 3
#: Percentiles are reported only with at least this many samples beyond.
MIN_BEYOND = 10
#: Records re-checked against ``assess_risk`` besides the first of each
#: (dataset class, decision rung) pair: a seeded uniform sample this big.
EXTRA_CHECKS = 3
#: Hard cap on the timed phase, far above any normal run, so a stalled
#: host still exits in time.
MAX_TIMED_WALL_SECONDS = 110.0
#: ``trace.stage_agreement`` must lie within 1 +/- this.
STAGE_TOLERANCE = 0.05
#: Rank window (share of samples) either side of a percentile, and the
#: share of that window one dataset class or one decision rung must
#: hold.  The rest are other classes' tails (GC pauses, disk writes);
#: a percentile on a class boundary holds about half.
PURITY_WINDOW = 0.03
PURITY_MIN_SHARE = 0.8
#: Host-speed probe: a fixed pure-Python loop run between requests; the
#: reference is its time on a quiet host (~0.7 ms).  A request's speed
#: is the median of the probes up to PROBE_WINDOW requests either side.
PROBE_LOOPS = 10_000
PROBE_REFERENCE_SECONDS = 0.0007
PROBE_WINDOW = 5


def probe() -> float:
    """Seconds the fixed probe loop takes on the host right now."""
    start = time.perf_counter()
    total = 0
    for i in range(PROBE_LOOPS):
        total += i * i % 7
    return time.perf_counter() - start


def speed_scales(probes: list[float]) -> list[float]:
    """Per interval between consecutive *probes*, the factor taking times
    measured in it to the reference host speed."""
    return [
        PROBE_REFERENCE_SECONDS
        / statistics.median(probes[max(0, i - PROBE_WINDOW) : i + PROBE_WINDOW + 2])
        for i in range(len(probes) - 1)
    ]


@dataclass
class Record:
    """One timed request and what came back.

    The request body is not kept (it is regenerated from *where* for
    the output check), and the response body only for records in the
    check sample (``None`` otherwise), so the benchmark's own memory
    does not grow with the number of requests a run gets through.
    """

    where: tuple[int, int]
    klass: str
    expect_cached: bool
    items: int
    size: int
    latency: float
    status: int
    cached: Any
    rung: str
    body: bytes | None
    scale: float = 1.0

    @property
    def cost(self) -> float:
        """Latency in seconds at the reference host speed."""
        return self.latency * self.scale

    @property
    def ok(self) -> bool:
        return self.status == 200 and self.cached is self.expect_cached


# -- set-up and the closed loop ---------------------------------------------


def set_up(setup_requests: list[Any]) -> tuple[Any, Path, float]:
    """Fresh engine with a disk tier in a new directory, warmed or pre-populated.

    Returns ``(core, directory, seconds)``, the seconds at reference host
    speed.  The DP memo is emptied before and after, so every set-up
    does the same work and the timed phase starts from the same state.
    """
    from repro.graph.intervaldp import clear_dp_memo
    from repro.service.cache import AssessmentCache
    from repro.service.engine import AssessmentEngine
    from repro.service.routes import ServiceCore

    clear_dp_memo()
    probes = [probe()]
    start = time.perf_counter()
    directory = Path(tempfile.mkdtemp(dir=WORK))
    core = ServiceCore(AssessmentEngine(cache=AssessmentCache(directory=directory)))
    construction = time.perf_counter() - start
    records = []
    for slot, request in enumerate(setup_requests):
        records.append(serve(core, request, (-1, slot), None, slot))
        probes.append(probe())
    clear_dp_memo()
    if any(record.status != 200 for record in records):
        raise RuntimeError("a set-up request failed")
    scales = speed_scales(probes)
    seconds = construction * scales[0] + sum(
        record.latency * scale for record, scale in zip(records, scales)
    )
    return core, directory, seconds


def serve(
    core: Any, request: Any, where: tuple[int, int], tracer: Any, request_id: int
) -> Record:
    """One request through dispatch + body, timed (and traced when asked)."""
    start = time.perf_counter()
    if tracer is None:
        response = core.dispatch("POST", "/assess", request.body)
        body = response.body()
    else:
        response, body = tracer.request(
            request_id, lambda: _dispatch_traced(core, request, tracer)
        )
    latency = time.perf_counter() - start
    payload = response.payload
    return Record(
        where,
        request.klass,
        request.expect_cached,
        request.items,
        len(request.body),
        latency,
        response.status,
        payload.get("cached"),
        str(payload.get("assessment", {}).get("decision")),
        body,
    )


def _dispatch_traced(core: Any, request: Any, tracer: Any) -> tuple[Any, bytes]:
    response = core.dispatch("POST", "/assess", request.body)
    return response, tracer.wrap("io.serialize", response.body, leaf=True)()


def run_rounds(
    core: Any,
    workload: Any,
    rounds: int | None,
    seconds: float,
    need_samples: int = 0,
    tracer: Any = None,
) -> list[Record]:
    """Whole rounds until *rounds* are done, or *seconds* measured and enough samples.

    A probe runs before the first request and after every request; input
    generation and probes are outside the measured time.  Response
    bodies are kept for the check sample only: the first record of each
    (class, rung) pair and a reservoir of :data:`EXTRA_CHECKS` records
    drawn uniformly with a generator seeded from the workload seed.
    """
    records: list[Record] = []
    probes = [probe()]
    rng = np.random.default_rng([workload.seed, 99])
    firsts: dict[tuple[str, str], int] = {}
    reservoir: list[int] = []
    measured = 0.0
    wall_start = time.perf_counter()
    index = 0
    while True:
        if rounds is not None and index >= rounds:
            break
        if rounds is None and measured >= seconds and len(records) >= need_samples:
            break
        if time.perf_counter() - wall_start > MAX_TIMED_WALL_SECONDS:
            break
        for slot, request in enumerate(workload.round(index)):
            position = len(records)
            record = serve(core, request, (index, slot), tracer, position)
            probes.append(probe())
            records.append(record)
            measured += record.latency
            first = firsts.setdefault((record.klass, record.rung), position) == position
            if len(reservoir) < EXTRA_CHECKS:
                reservoir.append(position)
                continue
            slot_in_reservoir = int(rng.integers(0, position + 1))
            if slot_in_reservoir < EXTRA_CHECKS:
                dropped, reservoir[slot_in_reservoir] = reservoir[slot_in_reservoir], position
                if dropped not in firsts.values():
                    records[dropped].body = None
            elif not first:
                record.body = None
        index += 1
    for record, scale in zip(records, speed_scales(probes)):
        record.scale = scale
    return records


def round_throughputs(records: list[Record]) -> list[float]:
    """Per round: requests over the round's summed request cost."""
    costs: dict[int, list[float]] = {}
    for record in records:
        costs.setdefault(record.where[0], []).append(record.cost)
    return [len(round_costs) / sum(round_costs) for round_costs in costs.values()]


# -- statistics ---------------------------------------------------------------


def rank_of(pct: int, n: int) -> int:
    """1-based nearest-rank position of the *pct*-th percentile of *n* samples."""
    return max(1, -(-pct * n // 100))


def min_samples_for(pct: int) -> int:
    """Fewest samples leaving :data:`MIN_BEYOND` beyond the *pct*-th percentile."""
    n = MIN_BEYOND + 1
    while n - rank_of(pct, n) < MIN_BEYOND:
        n += 1
    return n


def percentile(records: list[Record], pct: int) -> float | None:
    """Nearest-rank percentile of :attr:`Record.cost`, or ``None`` without
    :data:`MIN_BEYOND` samples beyond it."""
    n = len(records)
    rank = rank_of(pct, n)
    if n - rank < MIN_BEYOND:
        return None
    return sorted(record.cost for record in records)[rank - 1]


def _dominant(labels: list[str]) -> tuple[str, float]:
    top = max(set(labels), key=labels.count)
    return top, labels.count(top) / len(labels)


def purity(records: list[Record], pct: int) -> dict[str, Any]:
    """Which class or rung holds the samples within :data:`PURITY_WINDOW` ranks of *pct*."""
    ordered = sorted(records, key=lambda record: record.cost)
    n = len(ordered)
    rank = rank_of(pct, n)
    half = max(1, round(PURITY_WINDOW * n))
    window = ordered[max(0, rank - 1 - half) : min(n, rank + half)]
    klass, class_share = _dominant([record.klass for record in window])
    rung, rung_share = _dominant([record.rung for record in window])
    return {
        "class": klass,
        "class_share": class_share,
        "rung": rung,
        "rung_share": rung_share,
        "pure": max(class_share, rung_share) >= PURITY_MIN_SHARE,
    }


# -- output checks ------------------------------------------------------------


def check_outputs(records: list[Record], workload: Any) -> set[int]:
    """Indices of records in the check sample that fail the equivalence check.

    Recomputes each record that kept its response body (see
    :func:`run_rounds`) straight from ``assess_risk`` with the RNG the
    engine derives from the request fingerprint, and compares
    fingerprint and serialized assessment.
    """
    from repro.io import assessment_to_json, profile_from_json
    from repro.recipe.assess import assess_risk
    from repro.service.fingerprint import AssessmentParams, derived_seed, request_fingerprint

    failed = set()
    for index, record in enumerate(records):
        if record.body is None:
            continue
        if record.status != 200:
            failed.add(index)
            continue
        round_index, slot = record.where
        request = json.loads(workload.round(round_index)[slot].body)
        profile = profile_from_json(request["profile"])
        tolerance = float(request["tolerance"])
        runs = int(request["runs"])
        fingerprint = request_fingerprint(profile, AssessmentParams(tolerance=tolerance, runs=runs))
        direct = assess_risk(
            profile, tolerance, runs=runs, rng=np.random.default_rng(derived_seed(fingerprint))
        )
        served = json.loads(record.body)
        expected = json.loads(json.dumps(assessment_to_json(direct), sort_keys=True))
        if served.get("fingerprint") != fingerprint or served.get("assessment") != expected:
            failed.add(index)
    return failed


def outcome(records: list[Record], workload: Any) -> tuple[int, int]:
    """``(attempted, failed)``: status, cached flag and equivalence sample."""
    mismatched = check_outputs(records, workload)
    failed = sum(1 for i, r in enumerate(records) if not r.ok or i in mismatched)
    return len(records), failed


# -- the two kinds of run ----------------------------------------------------


def metric(value: float, unit: str) -> dict[str, Any]:
    return {"value": value, "unit": unit}


def untraced_run(
    workload: Any, seconds: float, smoke: bool
) -> tuple[dict[str, Any], int, int, list[str]]:
    """End-to-end metrics of a time-bounded run after :data:`SETUPS` set-ups."""
    setup_requests = workload.setup_requests()
    setups = []
    for _ in range(0 if smoke else SETUPS - 1):
        _, directory, elapsed = set_up(setup_requests)
        setups.append(elapsed)
        shutil.rmtree(directory, ignore_errors=True)
    core, directory, elapsed = set_up(setup_requests)
    setups.append(elapsed)
    need = 0 if smoke else max(min_samples_for(50), min_samples_for(90))
    try:
        records = run_rounds(core, workload, 1 if smoke else None, seconds, need)
    finally:
        shutil.rmtree(directory, ignore_errors=True)
    attempted, failed = outcome(records, workload)
    round_rps = round_throughputs(records)
    metrics = {
        "throughput_rps": metric(statistics.median(round_rps), "1/s"),
        "success_rate": metric((attempted - failed) / attempted, "ratio"),
        "setup_s": metric(statistics.median(setups), "s"),
        "peak_rss_mb": metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    measured = sum(record.latency for record in records)
    report = [
        f"workload {workload.name}: {attempted} requests in {len(round_rps)} rounds, "
        f"{measured:.2f} s measured, {failed} failed; host speed "
        f"{sum(record.cost for record in records) / measured:.3f} of reference",
        f"setup_s over {len(setups)} set-ups: " + ", ".join(f"{s:.3f}" for s in setups),
    ]
    by_class: dict[tuple[str, str], list[float]] = {}
    for record in records:
        by_class.setdefault((record.klass, record.rung), []).append(record.cost)
    report.append(
        "median ms by (class, rung): "
        + ", ".join(
            f"{klass}/{rung} {statistics.median(costs) * 1000:.2f} (n={len(costs)})"
            for (klass, rung), costs in sorted(
                by_class.items(), key=lambda item: statistics.median(item[1])
            )
        )
    )
    for name, pct in (("latency_p50_ms", 50), ("latency_p90_ms", 90)):
        value = percentile(records, pct)
        where = purity(records, pct)
        if value is not None:
            metrics[name] = metric(value * 1000, "ms")
        report.append(
            f"{name}: {'omitted' if value is None else f'{value * 1000:.3f} ms'} "
            f"({len(records)} samples, {len(records) - rank_of(pct, len(records))} beyond; "
            f"window {where['class']} {where['class_share']:.2f}, "
            f"{where['rung']} {where['rung_share']:.2f})"
        )
    return metrics, attempted, failed, report


def _timer(before: dict[str, Any], after: dict[str, Any], name: str, field: str) -> float:
    """Growth of one ``stage:*`` timer's *field* between two :func:`_counters`."""
    return after["timers"].get(name, {}).get(field, 0) - before["timers"].get(name, {}).get(
        field, 0
    )


def _counted(
    before: dict[str, Any], after: dict[str, Any]
) -> tuple[dict[str, float], list[str]]:
    """Per-layer ratios and counts from cache, engine and DP memo counters."""

    def delta(key: str, part: str) -> float:
        return after[part].get(key, 0) - before[part].get(key, 0)

    def ratio(part: float, whole: float) -> float:
        return part / whole if whole else 0.0

    hits = delta("hits", "cache")
    lookups = hits + delta("misses", "cache")
    # Each memo miss runs its stage timer once.  Every compute looks up
    # its groups; every compute past the point-valued rung looks up its
    # space and then its exact result, so both see the same look-ups.
    runs = {
        stage: _timer(before, after, f"stage:{stage}", "count")
        for stage in ("groups", "space", "exact", "attack")
    }
    exact_hits = delta("exact_memo_hits", "counters")
    groups_hits = delta("computed", "counters") - runs["groups"]
    space_hits = exact_hits + runs["exact"] - runs["space"]
    memo_hits = groups_hits + space_hits + exact_hits + delta("attack_memo_hits", "counters")
    memo_lookups = memo_hits + sum(runs.values())
    served, skipped = delta("exact_served", "counters"), delta("exact_skipped", "counters")
    dp_memos = ("count", "totals", "layer")
    dp_hits = sum(delta(f"{memo}_hits", "dp") for memo in dp_memos)
    dp_lookups = dp_hits + sum(delta(f"{memo}_misses", "dp") for memo in dp_memos)
    values = {
        "cache.hit_ratio": ratio(hits, lookups),
        "cache.disk_hit_ratio": ratio(delta("disk_hits", "cache"), lookups),
        "cache.disk_writes": delta("files", "disk"),
        "engine.memo_hit_ratio": ratio(memo_hits, memo_lookups),
        "exact.served_ratio": ratio(served, served + skipped),
        "dp_memo.hit_ratio": ratio(dp_hits, dp_lookups),
    }
    bases = [
        f"cache lookups {lookups:.0f}, engine memo lookups {memo_lookups:.0f}, "
        f"exact attempts {served + skipped:.0f}, DP memo lookups {dp_lookups:.0f}"
    ]
    return values, bases


def _counters(core: Any, directory: Path) -> dict[str, Any]:
    from repro.graph.intervaldp import dp_memo_stats

    snapshot = core.engine.metrics.snapshot()
    return {
        "cache": core.engine.cache.stats(),
        "counters": snapshot["counters"],
        "timers": snapshot["timers"],
        "dp": dp_memo_stats(),
        "disk": {"files": len(list(directory.glob("*.json")))},
    }


def traced_run(
    workload: Any, seconds: float, smoke: bool
) -> tuple[dict[str, Any], int, int, list[str]]:
    """Per-layer metrics: the same fixed rounds untraced, then traced.

    The round count depends only on *seconds* (never on host speed), so
    every count repeats exactly for one seed.
    """
    import spans

    rounds = 1 if smoke else max(1, round(seconds / workload.nominal_round_seconds))
    setup_requests = workload.setup_requests()

    core, directory, _ = set_up(setup_requests)
    try:
        plain = run_rounds(core, workload, rounds, seconds)
    finally:
        shutil.rmtree(directory, ignore_errors=True)

    core, directory, _ = set_up(setup_requests)
    tracer = spans.Tracer()
    try:
        before = _counters(core, directory)
        with spans.instrument(core, tracer):
            records = run_rounds(core, workload, rounds, seconds, tracer=tracer)
        after = _counters(core, directory)
    finally:
        shutil.rmtree(directory, ignore_errors=True)
    tracer.write(WORK / f"trace_{workload.name}.jsonl")
    attempted, failed = outcome(records, workload)

    n = len(records)
    totals = spans.layer_totals(tracer.spans)
    root = totals[spans.ROOT]["total"]
    scale = sum(record.cost for record in records) / sum(record.latency for record in records)
    metrics: dict[str, Any] = {}
    for layer in spans.LAYERS:
        entry = totals[layer]
        metrics[f"{layer}.self_ms"] = metric(entry["self"] * scale / n * 1000, "ms")
        metrics[f"{layer}.share"] = metric(entry["self"] / root, "ratio")
        metrics[f"{layer}.calls"] = metric(entry["calls"], "count")
    counted, bases = _counted(before, after)
    for name, value in counted.items():
        metrics[name] = metric(value, "count" if name.endswith("writes") else "ratio")

    agreements = {}
    for stage, layer in spans.STAGE_LAYERS.items():
        timed = _timer(before, after, stage, "total_seconds")
        if timed > 0:
            agreements[stage] = totals[layer]["total"] / timed
    worst = max(agreements.values(), key=lambda a: abs(a - 1.0), default=1.0)
    metrics.update(
        {
            "io.parse.kb": metric(sum(record.size for record in records) / n / 1024, "kB"),
            "fingerprint.items": metric(sum(record.items for record in records) / n, "count"),
            "trace.requests": metric(n, "count"),
            "trace.overhead_ratio": metric(
                sum(r.cost for r in records) / sum(r.cost for r in plain) - 1.0, "ratio"
            ),
            "trace.stage_agreement": metric(worst, "ratio"),
        }
    )
    self_sum = sum(totals[layer]["self"] for layer in spans.LAYERS)
    report = [
        f"workload {workload.name}: traced {n} requests in {rounds} rounds "
        f"({len(tracer.spans)} spans), untraced {len(plain)}, {failed} failed",
        f"layer self times sum to {self_sum / root:.6f} of the root spans",
        "stage agreement (span total / stage:* timer total): "
        + ", ".join(f"{stage} {value:.4f}" for stage, value in agreements.items())
        + f"; tolerance 1 +/- {STAGE_TOLERANCE}",
        *bases,
    ]
    if abs(worst - 1.0) > STAGE_TOLERANCE:
        failed = max(failed, 1)
        report.append("trace.stage_agreement outside its tolerance")
    return metrics, attempted, failed, report


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="one round, untraced and traced")
    args = parser.parse_args(argv)

    if not (SRC / "repro").is_dir():
        print(f"error: the repro sources are missing ({SRC / 'repro'})", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    WORK.mkdir(exist_ok=True)
    workload = workloads.make_workload(args.workload, args.seed)
    metrics: dict[str, Any] = {}
    attempted = failed = 0
    passes = []
    if args.smoke or args.trace == 0:
        passes.append(untraced_run)
    if args.smoke or args.trace == 1:
        passes.append(traced_run)
    for run_pass in passes:
        found, pass_attempted, pass_failed, report = run_pass(workload, args.seconds, args.smoke)
        metrics.update(found)
        attempted += pass_attempted
        failed += pass_failed
        print("\n".join(report))
    for name, entry in metrics.items():
        print(f"  {name:<28} {entry['value']:>14.6g} {entry['unit']}")
    print(
        json.dumps(
            {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
