"""The risk-assessment service layer.

Turns the one-shot Assess-Risk recipe into a reusable, cache-backed
engine with an HTTP front end; supervised replicas sharing one cache
directory are its one multi-process path:

* :mod:`repro.service.fingerprint` — content-addressed request hashes
  and fingerprint-derived deterministic seeds.
* :mod:`repro.service.cache` — two-tier (memory LRU + JSON disk) result
  cache with hit/miss/eviction counters.
* :mod:`repro.service.engine` — :class:`AssessmentEngine` with
  ``assess``, ``assess_many`` and ``sweep_tolerance``, sharing the
  expensive recipe intermediates across requests.
* :mod:`repro.service.metrics` — counters, gauges and per-stage timers.
* :mod:`repro.service.budget` — per-request compute budgets (deadline +
  sweep quotas) wired to fault injection; see :mod:`repro.budget` for
  the core mechanism.
* :mod:`repro.service.breaker` — a failure-streak circuit breaker that
  fast-fails requests while the compute path is known-broken.
* :mod:`repro.service.admission` — bounded admission control (inflight
  slots + waiting queue + load shedding) for the HTTP front end.
* :mod:`repro.service.routes` — the transport-agnostic route layer
  (validation, error mapping, per-route metrics) behind the HTTP front
  end.
* :mod:`repro.service.aio` — the HTTP front end (``repro-serve``):
  ``POST /assess``, ``POST /crack/step``, ``GET /healthz`` and
  ``GET /metrics`` from one asyncio event loop, with HTTP/1.1
  keep-alive + pipelining, structured errors, per-request deadlines and
  graceful signal-driven shutdown.
* :mod:`repro.service.lease` — cross-process single-flight lease files
  for the shared cache tier (N replicas, one directory, one compute per
  cold fingerprint).
* :mod:`repro.service.loadgen` — the replayable load harness behind
  ``repro-loadgen`` and the tracked ``BENCH_service.json`` trajectory.
* :mod:`repro.service.faults` — deterministic fault injection (errors,
  crashes, latency, ENOSPC, torn writes, clock skew)
  for testing the layer's failure semantics.
* :mod:`repro.service.supervisor` — replica lifecycle management:
  health probing, restart with exponential backoff + jitter, crash-loop
  detection, SIGTERM-then-SIGKILL shutdown escalation.
* :mod:`repro.service.chaos` — the seeded chaos harness behind
  ``repro-chaos``: replayable kill/fault/overload schedules fired at a
  supervised pool under live load.
* :mod:`repro.service.verify` — the post-mortem verifier: artifact
  integrity, single-flight commit-log audit, debris recovery, and
  byte-identical oracle replay after a chaos run.
"""

from repro.budget import BudgetExceeded, ComputeBudget, PartialEstimate
from repro.service.admission import (
    AdmissionController,
    AdmissionTimeout,
    QueueFullError,
)
from repro.service.breaker import CircuitBreaker, CircuitOpenError
from repro.service.budget import MAX_DEADLINE_SECONDS, request_budget
from repro.service.cache import AssessmentCache
from repro.service.engine import AssessmentEngine, AssessmentOutcome, BatchResult
from repro.service.faults import (
    FaultInjector,
    FaultRule,
    InjectedCrash,
    fault_point,
    injected_faults,
    load_schedule,
)
from repro.service.fingerprint import (
    AssessmentParams,
    derived_seed,
    profile_fingerprint,
    request_fingerprint,
)
from repro.service.metrics import ServiceMetrics
from repro.service.routes import RouteResponse, ServiceCore
from repro.service.supervisor import (
    ReplicaSupervisor,
    RestartPolicy,
    backoff_delay,
)
from repro.service.verify import VerifierReport, Violation, verify_run

__all__ = [
    "AdmissionController",
    "AdmissionTimeout",
    "AssessmentCache",
    "AssessmentEngine",
    "AssessmentOutcome",
    "AssessmentParams",
    "BatchResult",
    "BudgetExceeded",
    "CircuitBreaker",
    "CircuitOpenError",
    "ComputeBudget",
    "FaultInjector",
    "FaultRule",
    "InjectedCrash",
    "MAX_DEADLINE_SECONDS",
    "PartialEstimate",
    "QueueFullError",
    "ReplicaSupervisor",
    "RestartPolicy",
    "RouteResponse",
    "ServiceCore",
    "ServiceMetrics",
    "VerifierReport",
    "Violation",
    "backoff_delay",
    "derived_seed",
    "request_budget",
    "fault_point",
    "injected_faults",
    "load_schedule",
    "profile_fingerprint",
    "request_fingerprint",
    "verify_run",
]
