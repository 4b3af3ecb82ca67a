"""Seeded chaos runs against a supervised replica fleet (``repro-chaos``).

The scale-out stack makes hard claims: a replica killed mid-compute can
never leave a wrong, partial, or duplicated cached answer behind.  This
module stops testing those claims one fault at a time and instead
replays *adversarial operations*: a seed expands into a randomized but
fully replayable event schedule —

``kill``
    ``SIGKILL`` a replica under live load (no drain, no cleanup; the
    supervisor restarts it on its original port).
``term``
    ``SIGTERM`` a replica (graceful drain, then restart) — the
    "deploy rolled mid-traffic" case.
``fault_burst``
    Restart a replica with a deterministic fault schedule: disk-full
    (``enospc``) and torn writes at the ``cache.write.*`` sites, plus
    clock skew at the lease staleness judgement.
``spike``
    An overload step: extra client connections for a bounded window.

— which is driven against a :class:`~repro.service.loadgen.ReplicaPool`
(``supervise=True``) carrying seeded Zipf traffic, with every response
recorded.  Afterwards the post-mortem verifier
(:mod:`repro.service.verify`) replays the same workload against a
fault-free in-process oracle and checks the full invariant set; the
result is appended as one record in the ``chaos`` section of
``BENCH_service.json``.

Determinism: :func:`generate_schedule` is a pure function of its
arguments (``random.Random(f"repro-chaos:{seed}")`` and nothing else),
so the same seed replays the same schedule — :func:`schedule_digest`
pins that in the record — and, with a healthy verifier, the same
verdict.  Event *times* in the schedule are offsets from the run start;
death events are spaced and round-robined so the intentional kill rate
stays below the supervisor's crash-loop threshold (a chaos run proves
recovery, a crash loop proves the supervisor gives up — that path has
its own unit tests).
"""

from __future__ import annotations

import asyncio
import hashlib
import json
import random
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Sequence

import repro
from repro.errors import ReproError
from repro.io import load_json, save_json_atomic
from repro.service.faults import FaultRule
from repro.service.loadgen import (
    ReplicaPool,
    WorkloadSpec,
    _ClientStats,
    _drive_connection,
    build_payloads,
    request_stream,
)
from repro.service.supervisor import RestartPolicy
from repro.service.verify import VerifierReport, verify_run

__all__ = [
    "ChaosEvent",
    "ChaosResult",
    "generate_schedule",
    "schedule_digest",
    "run_chaos",
    "append_chaos",
]

EVENT_KINDS = ("kill", "term", "fault_burst", "spike")

#: Events are confined to this fraction of the run: nothing before the
#: fleet has answered real traffic, nothing after 70% so the tail of the
#: run observes recovery (restarts completing, leases aging out).
_EVENT_WINDOW = (0.15, 0.70)


@dataclass(frozen=True)
class ChaosEvent:
    """One scheduled act of sabotage."""

    at_seconds: float
    kind: str
    replica: int = 0
    spike_connections: int = 0
    spike_duration_seconds: float = 0.0
    burst_rules: tuple[FaultRule, ...] = ()

    def to_json(self) -> dict[str, Any]:
        payload: dict[str, Any] = {
            "at_seconds": round(self.at_seconds, 3),
            "kind": self.kind,
            "replica": self.replica,
        }
        if self.kind == "spike":
            payload["spike_connections"] = self.spike_connections
            payload["spike_duration_seconds"] = round(
                self.spike_duration_seconds, 3
            )
        if self.burst_rules:
            payload["burst_rules"] = [rule.to_json() for rule in self.burst_rules]
        return payload


def _burst_rules(rng: random.Random, lease_stale_seconds: float) -> tuple[FaultRule, ...]:
    """A deterministic fault burst for one replica incarnation.

    Chosen to be *survivable*: disk-full and torn writes force
    recomputes the verifier's allowance accounts for, and the clock
    skew stays well under the staleness window so a heartbeating owner
    is never wrongly taken over (that would be a real double compute —
    exactly what the run must prove cannot happen without cause).
    """
    return (
        FaultRule(
            site="cache.write.replace",
            action="enospc",
            times=1 + rng.randrange(2),
            after=rng.randrange(2),
        ),
        FaultRule(
            site="cache.write.replace",
            action="torn_write",
            times=1,
            after=2 + rng.randrange(2),
            truncate_at=rng.randrange(160),
        ),
        FaultRule(
            site="cache.lease.state",
            action="clock_skew",
            times=1,
            after=rng.randrange(4),
            skew_seconds=round(0.25 * lease_stale_seconds, 3),
        ),
    )


def generate_schedule(
    seed: int,
    duration_seconds: float,
    replicas: int,
    min_kills: int = 3,
    lease_stale_seconds: float = 1.0,
) -> list[ChaosEvent]:
    """The replayable event schedule: a pure function of its arguments.

    ``min_kills`` SIGKILLs, one SIGTERM, and one fault burst are spread
    over the event window with deterministic jitter; death events are
    round-robined across replicas and spaced so no replica sees deaths
    faster than the chaos restart policy's crash-loop threshold.  One
    overload spike lands at an independent time.
    """
    if duration_seconds < 6.0:
        raise ReproError(
            f"chaos runs need >= 6 seconds, got {duration_seconds}"
        )
    if replicas < 2:
        raise ReproError("chaos runs need >= 2 replicas (kills must not stop the fleet)")
    rng = random.Random(f"repro-chaos:{seed}")
    window_start = _EVENT_WINDOW[0] * duration_seconds
    window_len = (_EVENT_WINDOW[1] - _EVENT_WINDOW[0]) * duration_seconds

    death_kinds = ["kill"] * min_kills + ["term", "fault_burst"]
    rng.shuffle(death_kinds)
    slot = window_len / len(death_kinds)
    replica_offset = rng.randrange(replicas)
    events: list[ChaosEvent] = []
    for position, kind in enumerate(death_kinds):
        at = window_start + position * slot + rng.random() * slot * 0.4
        replica = (replica_offset + position) % replicas
        if kind == "fault_burst":
            events.append(
                ChaosEvent(
                    at_seconds=at,
                    kind=kind,
                    replica=replica,
                    burst_rules=_burst_rules(rng, lease_stale_seconds),
                )
            )
        else:
            events.append(ChaosEvent(at_seconds=at, kind=kind, replica=replica))
    events.append(
        ChaosEvent(
            at_seconds=window_start + rng.random() * window_len,
            kind="spike",
            replica=rng.randrange(replicas),
            spike_connections=4 + rng.randrange(5),
            spike_duration_seconds=1.0 + rng.random(),
        )
    )
    events.sort(key=lambda event: (event.at_seconds, event.kind))
    return events


def schedule_digest(events: Sequence[ChaosEvent]) -> str:
    """A stable hash of the schedule, pinned into the run record."""
    canonical = json.dumps([event.to_json() for event in events], sort_keys=True)
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:16]


# -- the driver -------------------------------------------------------------


@dataclass
class _ResponseLog:
    """First 200 answer per fingerprint, plus any client-side divergence."""

    responses: dict[str, str] = field(default_factory=dict)
    conflicts: list[str] = field(default_factory=list)

    def record(self, index: int, status: int, body: bytes) -> None:
        if status != 200:
            return
        try:
            payload = json.loads(body)
            fingerprint = str(payload["fingerprint"])
            canonical = json.dumps(payload["assessment"], sort_keys=True)
        except (ValueError, KeyError, TypeError):
            self.conflicts.append(
                f"payload index {index}: unparseable 200 response body"
            )
            return
        previous = self.responses.setdefault(fingerprint, canonical)
        if previous != canonical:
            self.conflicts.append(
                f"{fingerprint}: two 200 responses disagree byte-for-byte"
            )


@dataclass
class _Delivered:
    kills: int = 0
    terms: int = 0
    bursts: int = 0
    spikes: int = 0

    def to_json(self) -> dict[str, int]:
        return {
            "kills": self.kills,
            "terms": self.terms,
            "bursts": self.bursts,
            "spikes": self.spikes,
        }


async def _deliver_signal(pool: ReplicaPool, replica: int, kill: bool) -> bool:
    """Signal *replica*, waiting briefly for it to be alive if mid-restart.

    An event can land while its target is still in restart backoff from
    the previous one; "kill replica R" means R's current-or-next
    incarnation, so retry for a bounded window rather than silently
    dropping the event (CI requires a minimum number of real kills).
    """
    deadline = time.monotonic() + 6.0
    while time.monotonic() < deadline:
        delivered = (
            pool.supervisor.kill(replica) if kill else pool.supervisor.terminate(replica)
        )
        if delivered:
            return True
        await asyncio.sleep(0.1)
    return False


async def _run_events(
    pool: ReplicaPool,
    spec: WorkloadSpec,
    payloads: Sequence[bytes],
    schedule: Sequence[ChaosEvent],
    run_dir: Path,
    start: float,
    stop_at: float,
    stats: _ClientStats,
    log: _ResponseLog,
    delivered: _Delivered,
) -> None:
    spike_tasks: list[asyncio.Task[None]] = []
    for number, event in enumerate(schedule):
        delay = start + event.at_seconds - time.monotonic()
        if delay > 0:
            await asyncio.sleep(delay)
        if event.kind == "kill":
            if await _deliver_signal(pool, event.replica, kill=True):
                delivered.kills += 1
        elif event.kind == "term":
            if await _deliver_signal(pool, event.replica, kill=False):
                delivered.terms += 1
        elif event.kind == "fault_burst":
            burst_path = run_dir / f"burst_{number}.json"
            save_json_atomic(
                {"rules": [rule.to_json() for rule in event.burst_rules]},
                burst_path,
            )
            pool.set_fault_override(event.replica, str(burst_path))
            if await _deliver_signal(pool, event.replica, kill=False):
                delivered.bursts += 1
        elif event.kind == "spike":
            delivered.spikes += 1
            ports = pool.ports
            spike_stop = min(stop_at, time.monotonic() + event.spike_duration_seconds)
            for extra in range(event.spike_connections):
                spike_tasks.append(
                    asyncio.ensure_future(
                        _drive_connection(
                            "127.0.0.1",
                            ports[extra % len(ports)],
                            payloads,
                            request_stream(spec, 10_000 + 100 * number + extra),
                            spike_stop,
                            1_000_000,
                            stats,
                            record=log.record,
                        )
                    )
                )
    if spike_tasks:
        await asyncio.gather(*spike_tasks)


async def _drive_chaos(
    pool: ReplicaPool,
    spec: WorkloadSpec,
    payloads: Sequence[bytes],
    schedule: Sequence[ChaosEvent],
    run_dir: Path,
    connections: int,
    duration_seconds: float,
    stats: _ClientStats,
    log: _ResponseLog,
    delivered: _Delivered,
) -> None:
    start = time.monotonic()
    stop_at = start + duration_seconds
    ports = pool.ports
    tasks = [
        asyncio.ensure_future(
            _drive_connection(
                "127.0.0.1",
                ports[worker % len(ports)],
                payloads,
                request_stream(spec, worker),
                stop_at,
                1_000_000,
                stats,
                record=log.record,
            )
        )
        for worker in range(connections)
    ]
    tasks.append(
        asyncio.ensure_future(
            _run_events(
                pool, spec, payloads, schedule, run_dir,
                start, stop_at, stats, log, delivered,
            )
        )
    )
    await asyncio.gather(*tasks)


def oracle_replay(payloads: Sequence[bytes]) -> dict[str, str]:
    """Fault-free in-process answers: ``fingerprint -> canonical JSON``.

    Replays every workload payload through the same transport-agnostic
    dispatch the replicas ran (:class:`~repro.service.routes.
    ServiceCore`) on a fresh unfaulted engine; assessments are
    deterministic (seeds derive from the fingerprint), so these are the
    bytes every replica — killed, restarted, or fault-burst — must have
    answered.
    """
    from repro.service.routes import ServiceCore

    core = ServiceCore(max_queue=len(payloads) + 8)
    oracle: dict[str, str] = {}
    for body in payloads:
        response = core.dispatch("POST", "/assess", body)
        if response.status != 200:
            raise ReproError(
                f"oracle replay answered {response.status}: {response.payload}"
            )
        fingerprint = str(response.payload["fingerprint"])
        oracle[fingerprint] = json.dumps(
            response.payload["assessment"], sort_keys=True
        )
    return oracle


@dataclass
class ChaosResult:
    """One finished chaos run: the record plus the parsed verdict."""

    record: dict[str, Any]
    report: VerifierReport
    delivered: _Delivered


def run_chaos(
    run_dir: Path,
    seed: int = 0,
    duration_seconds: float = 10.0,
    replicas: int = 2,
    connections: int = 6,
    profiles: int = 18,
    lease_stale_seconds: float = 1.0,
    min_kills: int = 3,
    max_inflight: int = 8,
    label: str = "chaos",
) -> ChaosResult:
    """One full chaos run: schedule, drive, recover, verify.

    *run_dir* receives the shared cache directory and the generated
    burst schedules; keep it for debugging a failing seed, delete it
    otherwise.  Returns the JSON-able run record (including the
    verifier report) — the caller decides whether to append it to
    ``BENCH_service.json``.
    """
    run_dir = Path(run_dir)
    run_dir.mkdir(parents=True, exist_ok=True)
    cache_dir = run_dir / "cache"
    schedule = generate_schedule(
        seed, duration_seconds, replicas,
        min_kills=min_kills, lease_stale_seconds=lease_stale_seconds,
    )
    spec = WorkloadSpec(profiles=profiles, seed=seed)
    payloads = build_payloads(spec)
    stats = _ClientStats()
    log = _ResponseLog()
    delivered = _Delivered()
    # Fast restarts, and a crash-loop bar the *scheduled* kill cadence
    # stays under (the generator round-robins and spaces death events);
    # tripping it in a chaos run means the supervisor itself is broken.
    policy = RestartPolicy(
        initial_delay_seconds=0.05,
        max_delay_seconds=1.0,
        crash_loop_window_seconds=3.0,
        crash_loop_threshold=3,
    )
    pool = ReplicaPool(
        count=replicas,
        cache_dir=cache_dir,
        shared=True,
        max_queue=256,
        max_inflight=max_inflight,
        lease_stale_seconds=lease_stale_seconds,
        supervise=True,
        policy=policy,
        seed=seed,
    )
    with pool:
        asyncio.run(
            _drive_chaos(
                pool, spec, payloads, schedule, run_dir,
                connections, duration_seconds, stats, log, delivered,
            )
        )
        # Settle: let in-flight answers land, restarts finish, and
        # crashed-owner leases age out of the staleness window, then
        # take the final per-incarnation metric snapshots — after a
        # kill -9 these are all that remain of a replica's counters.
        time.sleep(max(1.0, 2.0 * lease_stale_seconds))
        pool.supervisor.tick()
        pool.supervisor.scrape_all()
        supervisor_status = pool.supervisor.status()
        crash_loops = pool.supervisor.crash_loop_reports()
        snapshots = list(pool.supervisor.metric_snapshots.values())
    oracle = oracle_replay(payloads)
    crash_capacity = sum(
        rule.times or 0
        for event in schedule
        for rule in event.burst_rules
        if rule.action in ("crash", "torn_write")
    )
    report = verify_run(
        cache_dir=cache_dir,
        responses=log.responses,
        response_conflicts=log.conflicts,
        statuses=stats.statuses,
        oracle=oracle,
        metric_snapshots=snapshots,
        kills=delivered.kills + delivered.terms + delivered.bursts,
        max_inflight=max_inflight,
        lease_stale_seconds=lease_stale_seconds,
        crash_capacity=crash_capacity,
    )
    record: dict[str, Any] = {
        "label": label,
        "version": repro.__version__,
        "seed": seed,
        "replicas": replicas,
        "connections": connections,
        "profiles": profiles,
        "duration_seconds": duration_seconds,
        "lease_stale_seconds": lease_stale_seconds,
        "min_kills": min_kills,
        "schedule_digest": schedule_digest(schedule),
        "events": [event.to_json() for event in schedule],
        "events_delivered": delivered.to_json(),
        "client": {
            "requests": sum(stats.statuses.values()),
            "errors": stats.errors,
            "reconnects": stats.reconnects,
            "statuses": {
                str(code): count for code, count in sorted(stats.statuses.items())
            },
            "fingerprints_answered": len(log.responses),
        },
        "supervisor": supervisor_status,
        "crash_loop_reports": crash_loops,
        "verifier": report.to_json(),
    }
    return ChaosResult(record=record, report=report, delivered=delivered)


# -- the tracked chaos section ----------------------------------------------


def append_chaos(path: Path, record: dict[str, Any]) -> dict[str, Any]:
    """Append one chaos record to ``BENCH_service.json`` (created if absent)."""
    try:
        report = load_json(path)
        if not isinstance(report, dict) or report.get("benchmark") != "bench_service":
            report = {"benchmark": "bench_service", "schema": 1, "trajectory": []}
    except (OSError, ReproError):
        report = {"benchmark": "bench_service", "schema": 1, "trajectory": []}
    chaos = report.setdefault("chaos", [])
    assert isinstance(chaos, list)
    chaos.append(record)
    save_json_atomic(report, path)
    return report
