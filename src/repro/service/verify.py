"""Post-mortem invariant verification for chaos runs.

After a chaos run — replicas killed and restarted under live load,
fault bursts at the cache-write and lease sites — the question is not
"did anything crash" (plenty did, on purpose) but "did the system ever
produce a wrong answer or leak state".  :func:`verify_run` answers it
from four kinds of evidence left behind:

1. **The cache directory.**  Every ``*.json`` artifact must parse, be
   schema-current, carry the fingerprint it is filed under, round-trip
   byte-identically through :mod:`repro.io`, and not be partial
   (deadline-degraded results must never be cached).
2. **The commit log** (``commits.log``, see
   :class:`~repro.service.cache.AssessmentCache`).  One appended line
   per committed cold compute, written strictly after the
   artifact's atomic rename — so a fingerprint appearing twice means
   two processes both computed *and* both committed: a single-flight
   violation no kill window can excuse.  Every logged fingerprint must
   have its artifact.
3. **Filesystem debris.**  A lease whose owner pid is still alive after
   the whole fleet was stopped is a leak.  Dead-owner leases and orphan
   ``*.tmp`` files are exactly what ``kill -9`` is expected to leave;
   the check is that one recovery pass — the same
   ``recover_orphans`` sweep any restarting replica runs — removes all
   of it, leaving only well-formed artifacts.
4. **Recorded responses vs. a fault-free oracle.**  Every 200 response
   the load clients saw must be byte-identical (canonical JSON) to an
   in-process replay of the same fingerprint through an unfaulted
   engine; any 5xx, or a 4xx other than 429 shed, is a violation.

Summed replica metrics are reconciled as a *soft* bound: counters die
with a killed process (``computed`` increments at compute start), so
the verifier only checks that cold computes beyond the committed
artifacts are explained by kills, failed writes, and scheduled crash
rules — the hard uniqueness claim rests on the commit log.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Mapping, Sequence

from repro.errors import ReproError
from repro.io import (
    SCHEMA_VERSION,
    assessment_from_json,
    assessment_to_json,
    load_json,
)
from repro.service.cache import COMMIT_LOG_NAME, AssessmentCache
from repro.service.lease import _pid_alive

__all__ = ["Violation", "VerifierReport", "verify_run"]


@dataclass(frozen=True)
class Violation:
    """One broken invariant, with enough context to chase it."""

    kind: str
    message: str

    def to_json(self) -> dict[str, Any]:
        return {"kind": self.kind, "message": self.message}


@dataclass
class VerifierReport:
    """Everything :func:`verify_run` measured, violations first."""

    violations: list[Violation] = field(default_factory=list)
    checks: dict[str, Any] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return not self.violations

    def to_json(self) -> dict[str, Any]:
        return {
            "ok": self.ok,
            "violations": [violation.to_json() for violation in self.violations],
            "checks": self.checks,
        }


def _canonical(assessment_payload: Any) -> str:
    return json.dumps(assessment_payload, sort_keys=True)


def _check_artifacts(
    cache_dir: Path,
    oracle: Mapping[str, str],
    report: VerifierReport,
) -> set[str]:
    """Invariant 1: every artifact parses, round-trips, and is not partial."""
    fingerprints: set[str] = set()
    artifacts = sorted(cache_dir.glob("*.json"))
    for path in artifacts:
        fingerprint = path.stem
        try:
            payload = load_json(path)
        except (OSError, ReproError) as exc:
            report.violations.append(
                Violation("artifact_unreadable", f"{path.name}: {exc}")
            )
            continue
        if payload.get("type") != "cached_assessment":
            report.violations.append(
                Violation("artifact_malformed", f"{path.name}: wrong type tag")
            )
            continue
        if payload.get("schema_version") != SCHEMA_VERSION:
            report.violations.append(
                Violation(
                    "artifact_malformed",
                    f"{path.name}: schema {payload.get('schema_version')} "
                    f"!= {SCHEMA_VERSION}",
                )
            )
            continue
        if payload.get("fingerprint") != fingerprint:
            report.violations.append(
                Violation(
                    "artifact_malformed",
                    f"{path.name}: embedded fingerprint "
                    f"{payload.get('fingerprint')!r} does not match filename",
                )
            )
            continue
        try:
            assessment = assessment_from_json(payload["assessment"])
        except (ReproError, KeyError, TypeError, ValueError) as exc:
            report.violations.append(
                Violation("artifact_malformed", f"{path.name}: {exc}")
            )
            continue
        round_tripped = assessment_to_json(assessment)
        if _canonical(round_tripped) != _canonical(payload["assessment"]):
            report.violations.append(
                Violation(
                    "artifact_roundtrip",
                    f"{path.name}: does not round-trip through repro.io",
                )
            )
            continue
        if assessment.partial:
            report.violations.append(
                Violation(
                    "partial_cached",
                    f"{path.name}: a partial (INCONCLUSIVE) result was cached",
                )
            )
            continue
        expected = oracle.get(fingerprint)
        if expected is not None and _canonical(payload["assessment"]) != expected:
            report.violations.append(
                Violation(
                    "artifact_diverged",
                    f"{path.name}: cached assessment differs from the "
                    "fault-free oracle",
                )
            )
            continue
        fingerprints.add(fingerprint)
    report.checks["artifacts"] = len(artifacts)
    return fingerprints


def _check_commit_log(
    cache_dir: Path,
    artifact_fingerprints: set[str],
    report: VerifierReport,
) -> set[str]:
    """Invariant 2: exactly one committed cold compute per fingerprint."""
    committed: dict[str, list[str]] = {}
    log_path = cache_dir / COMMIT_LOG_NAME
    lines: list[str] = []
    if log_path.exists():
        lines = [
            line
            for line in log_path.read_text(encoding="utf-8").splitlines()
            if line.strip()
        ]
    for line in lines:
        parts = line.split()
        if len(parts) != 2:
            report.violations.append(
                Violation("commit_log_malformed", f"unparseable line: {line!r}")
            )
            continue
        fingerprint, pid = parts
        committed.setdefault(fingerprint, []).append(pid)
    for fingerprint, pids in sorted(committed.items()):
        if len(pids) > 1:
            report.violations.append(
                Violation(
                    "duplicate_compute",
                    f"{fingerprint}: committed {len(pids)} times "
                    f"(pids {', '.join(pids)}) — single-flight was violated",
                )
            )
        if fingerprint not in artifact_fingerprints:
            report.violations.append(
                Violation(
                    "commit_without_artifact",
                    f"{fingerprint}: commit logged but no artifact on disk",
                )
            )
    report.checks["commits_logged"] = len(lines)
    report.checks["fingerprints_committed"] = len(committed)
    return set(committed)


def _check_debris(
    cache_dir: Path,
    lease_stale_seconds: float,
    report: VerifierReport,
) -> None:
    """Invariant 3: no live-owner leases; one recovery pass leaves it clean."""
    pre_tmp = sorted(cache_dir.glob("*.tmp"))
    pre_leases = sorted(cache_dir.glob("*.lease"))
    for lease in pre_leases:
        pid = -1
        try:
            payload = json.loads(lease.read_bytes().decode("utf-8"))
            pid = int(payload["pid"])
        except (OSError, ValueError, KeyError, TypeError):
            continue  # torn payload: judged (and swept) by age below
        if _pid_alive(pid):
            report.violations.append(
                Violation(
                    "lease_leak",
                    f"{lease.name}: owner pid {pid} is still alive after "
                    "the fleet was stopped",
                )
            )
    # The same sweep any restarting replica runs at cache open: orphan
    # temp files unconditionally, leases judged by pid/age.  All owners
    # are dead by now, so everything must go.
    AssessmentCache(
        directory=cache_dir, shared=True, lease_stale_seconds=lease_stale_seconds
    )
    for leftover in sorted(cache_dir.glob("*.tmp")):
        report.violations.append(
            Violation("orphan_tmp", f"{leftover.name}: survived recovery")
        )
    for leftover in sorted(cache_dir.glob("*.lease")):
        report.violations.append(
            Violation("orphan_lease", f"{leftover.name}: survived recovery")
        )
    report.checks["tmp_recovered"] = len(pre_tmp)
    report.checks["leases_recovered"] = len(pre_leases)


def _check_responses(
    responses: Mapping[str, str],
    response_conflicts: Sequence[str],
    statuses: Mapping[int, int],
    oracle: Mapping[str, str],
    report: VerifierReport,
) -> None:
    """Invariant 4: every answer byte-identical to the fault-free oracle."""
    for status, count in sorted(statuses.items()):
        if status >= 500:
            report.violations.append(
                Violation(
                    "server_error",
                    f"{count} response(s) with status {status}",
                )
            )
        elif status >= 400 and status != 429:
            report.violations.append(
                Violation(
                    "client_error_status",
                    f"{count} response(s) with status {status} "
                    "(the workload sends only well-formed requests)",
                )
            )
    for conflict in response_conflicts:
        report.violations.append(Violation("response_conflict", conflict))
    matched = 0
    for fingerprint, canonical in sorted(responses.items()):
        expected = oracle.get(fingerprint)
        if expected is None:
            report.violations.append(
                Violation(
                    "unknown_fingerprint",
                    f"{fingerprint}: answered but absent from the oracle replay",
                )
            )
        elif canonical != expected:
            report.violations.append(
                Violation(
                    "response_diverged",
                    f"{fingerprint}: response differs from the fault-free oracle",
                )
            )
        else:
            matched += 1
    report.checks["fingerprints_answered"] = len(responses)
    report.checks["responses_matching_oracle"] = matched


def _sum_counters(
    snapshots: Sequence[Mapping[str, Any]], *paths: tuple[str, ...]
) -> int:
    total = 0
    for snapshot in snapshots:
        for path in paths:
            value: Any = snapshot
            for key in path:
                if not isinstance(value, Mapping):
                    value = None
                    break
                value = value.get(key)
            if isinstance(value, (int, float)):
                total += int(value)
    return total


def _check_metrics(
    snapshots: Sequence[Mapping[str, Any]],
    committed: set[str],
    kills: int,
    max_inflight: int,
    crash_capacity: int,
    report: VerifierReport,
) -> None:
    """Soft bound: excess computes must be explained by injected failures.

    ``computed`` increments at compute *start* and dies with a killed
    process, so the summed last-known counters are neither an upper nor
    a lower bound on true computes — but computes that visibly exceed
    the committed artifacts still need an explanation: an in-flight
    compute lost to one of *kills* (at most ``max_inflight`` each), a
    failed/torn write that forced a recompute, or a lease takeover after
    a deadline.  Anything beyond that is double work the run cannot
    account for.
    """
    computed = _sum_counters(snapshots, ("metrics", "counters", "computed"))
    write_errors = _sum_counters(snapshots, ("cache", "write_errors"))
    lease_timeouts = _sum_counters(snapshots, ("cache", "lease_timeouts"))
    lease_takeovers = _sum_counters(snapshots, ("cache", "lease_takeovers"))
    excess = computed - len(committed)
    allowance = (
        kills * max_inflight + write_errors + crash_capacity + lease_timeouts
    )
    if excess > allowance:
        report.violations.append(
            Violation(
                "unexplained_recomputes",
                f"{computed} computes for {len(committed)} committed "
                f"fingerprints; excess {excess} exceeds the injected-failure "
                f"allowance {allowance} (kills={kills} x inflight="
                f"{max_inflight}, write_errors={write_errors}, "
                f"crash_capacity={crash_capacity}, "
                f"lease_timeouts={lease_timeouts})",
            )
        )
    report.checks["computed_total"] = computed
    report.checks["write_errors_total"] = write_errors
    report.checks["lease_timeouts_total"] = lease_timeouts
    report.checks["lease_takeovers_total"] = lease_takeovers
    report.checks["compute_excess"] = excess
    report.checks["compute_excess_allowance"] = allowance


def verify_run(
    cache_dir: Path,
    responses: Mapping[str, str],
    response_conflicts: Sequence[str],
    statuses: Mapping[int, int],
    oracle: Mapping[str, str],
    metric_snapshots: Sequence[Mapping[str, Any]],
    kills: int,
    max_inflight: int,
    lease_stale_seconds: float,
    crash_capacity: int = 0,
) -> VerifierReport:
    """Check every chaos invariant; returns a structured report.

    Parameters
    ----------
    cache_dir:
        The shared cache directory the (now stopped) fleet mounted.
    responses:
        ``fingerprint -> canonical assessment JSON`` as the load clients
        observed them (first answer per fingerprint).
    response_conflicts:
        Client-side divergences (two 200s for one fingerprint that did
        not agree), already rendered as messages.
    statuses:
        HTTP status histogram over every completed response.
    oracle:
        ``fingerprint -> canonical assessment JSON`` from the fault-free
        in-process replay of the same workload.
    metric_snapshots:
        Last-known ``GET /metrics`` payload per (replica, incarnation).
    kills / max_inflight / crash_capacity:
        The recompute allowance: SIGKILLed incarnations (each can lose
        up to *max_inflight* in-flight computes) and the schedule's
        crash-rule capacity (torn writes unwind computes the same way).
    lease_stale_seconds:
        Staleness window for the final recovery sweep.
    """
    report = VerifierReport()
    artifact_fingerprints = _check_artifacts(cache_dir, oracle, report)
    committed = _check_commit_log(cache_dir, artifact_fingerprints, report)
    _check_debris(cache_dir, lease_stale_seconds, report)
    _check_responses(responses, response_conflicts, statuses, oracle, report)
    _check_metrics(
        metric_snapshots, committed, kills, max_inflight, crash_capacity, report
    )
    return report
