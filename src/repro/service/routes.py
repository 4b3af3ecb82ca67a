"""Transport-agnostic route layer behind the HTTP front end.

The asyncio server (:mod:`repro.service.aio`) owns the sockets and the
HTTP framing; everything that is *not* socket plumbing lives here, in
:class:`ServiceCore`, which tests and the repo benchmark also drive
directly:

* request validation and the ``400/404/422/429/500/503`` error mapping,
* admission control (one :class:`AdmissionController` per core, shared
  by every transport mounted on it),
* the in-flight gauge and graceful-drain accounting,
* per-route request counters and latency histograms (the server-side
  cross-check for ``repro-loadgen``'s client-side percentiles).

A transport parses one request off its socket, calls
:meth:`ServiceCore.dispatch`, and writes the returned
:class:`RouteResponse` back in its own framing.  Dispatch is
synchronous and thread-safe: the front end answers ``GET`` routes on
its event loop and runs ``POST`` routes on a thread executor, where
admission control bounds how many compute at once.
"""

from __future__ import annotations

import gc
import json
import threading
import time
from contextlib import contextmanager
from typing import Any, Iterator

import repro
from repro.errors import BudgetExceeded, ReproError
from repro.io import assessment_to_json, profile_from_json
from repro.service.admission import (
    AdmissionController,
    AdmissionTimeout,
    QueueFullError,
)
from repro.service.breaker import CircuitOpenError
from repro.service.budget import request_budget
from repro.service.crack import CrackSessionStore
from repro.service.engine import AssessmentEngine
from repro.service.fingerprint import AssessmentParams

__all__ = ["RouteResponse", "ServiceCore", "MAX_BODY_BYTES"]

MAX_BODY_BYTES = 64 * 1024 * 1024

#: Serializes the check-and-disable in :func:`_gc_paused`.
_GC_LOCK = threading.Lock()

#: Routes that exist, per method — anything else is a 404.
GET_ROUTES = ("/healthz", "/metrics")
POST_ROUTES = ("/assess", "/crack/step")


@contextmanager
def _gc_paused() -> Iterator[None]:
    """Hold the cyclic garbage collector off for one request decode.

    A tagged profile is two JSON lists per item, all alive until the
    decode ends, so collections triggered while it is built promote
    every one of them to the oldest generation and make full collections
    frequent.  Nothing the decode builds forms a cycle: with the
    collector off, its temporaries die by reference count instead.

    Only the thread that finds the collector enabled disables it, and the
    same thread enables it again on exit, exceptions included.  Threads
    entering while it is off leave it alone, so a pause never outlives
    the decode that started it, and a caller that turned the collector
    off keeps it off.
    """
    with _GC_LOCK:
        owner = gc.isenabled()
        if owner:
            gc.disable()
    try:
        yield
    finally:
        if owner:
            gc.enable()


class RouteResponse:
    """One answer, transport-agnostic: status, JSON payload, headers."""

    __slots__ = ("status", "payload", "headers")

    def __init__(
        self,
        status: int,
        payload: dict[str, Any],
        headers: dict[str, str] | None = None,
    ) -> None:
        self.status = status
        self.payload = payload
        self.headers = headers or {}

    def body(self) -> bytes:
        return json.dumps(self.payload, sort_keys=True).encode("utf-8")


def _error(
    status: int,
    error_type: str,
    message: str,
    headers: dict[str, str] | None = None,
) -> RouteResponse:
    return RouteResponse(
        status,
        {"error": {"type": error_type, "message": message}, "status": status},
        headers=headers,
    )


class ServiceCore:
    """Route dispatch over one engine, admission controller and crack store."""

    def __init__(
        self,
        engine: AssessmentEngine | None = None,
        admission: AdmissionController | None = None,
        max_inflight: int = 8,
        max_queue: int = 32,
    ) -> None:
        self.engine = engine or AssessmentEngine()
        self.admission = (
            AdmissionController(
                max_inflight=max_inflight,
                max_queue=max_queue,
                metrics=self.engine.metrics,
            )
            if admission is None
            else admission
        )
        self.crack_sessions = CrackSessionStore()
        self._inflight = 0
        self._inflight_lock = threading.Lock()

    # -- in-flight accounting (graceful drain) ----------------------------

    @contextmanager
    def tracked_request(self) -> Iterator[None]:
        """Count a request as in-flight for graceful-shutdown draining."""
        with self._inflight_lock:
            self._inflight += 1
            self.engine.metrics.set_gauge("inflight_requests", self._inflight)
        try:
            yield
        finally:
            with self._inflight_lock:
                self._inflight -= 1
                self.engine.metrics.set_gauge("inflight_requests", self._inflight)

    def inflight_requests(self) -> int:
        """How many requests are currently being answered."""
        with self._inflight_lock:
            return self._inflight

    # -- dispatch ---------------------------------------------------------

    def dispatch(
        self, method: str, path: str, body: bytes | None = None
    ) -> RouteResponse:
        """Answer one parsed request; never raises.

        *body* is the raw (fully read) request body for POSTs; the
        transport is responsible only for socket-level framing — JSON
        parsing, validation and every error mapping happen here.  Each
        request is counted under ``route:<METHOD> <path>`` (unknown
        paths under ``route:other``) and its latency lands in the
        matching fixed-bucket histogram.
        """
        route = f"{method} {path}" if self._known(method, path) else "other"
        metrics = self.engine.metrics
        metrics.increment(f"route:{route}")
        start = time.perf_counter()
        try:
            if method == "GET":
                response = self._get(path)
            elif method == "POST":
                response = self._post(path, body)
            else:
                response = _error(404, "NotFound", f"unsupported method {method}")
        finally:
            metrics.observe_latency(f"latency:{route}", time.perf_counter() - start)
        return response

    @staticmethod
    def _known(method: str, path: str) -> bool:
        if method == "GET":
            return path in GET_ROUTES
        if method == "POST":
            return path in POST_ROUTES
        return False

    # -- GET routes -------------------------------------------------------

    def _get(self, path: str) -> RouteResponse:
        if path == "/healthz":
            return RouteResponse(
                200, {"status": "ok", "version": repro.__version__}
            )
        if path == "/metrics":
            return RouteResponse(
                200,
                {
                    "metrics": self.engine.metrics.snapshot(),
                    "cache": self.engine.cache.stats(),
                    "admission": self.admission.snapshot(),
                },
            )
        return _error(404, "NotFound", f"unknown path {path}")

    # -- POST routes ------------------------------------------------------

    def _post(self, path: str, body: bytes | None) -> RouteResponse:
        if path == "/crack/step":
            return self._crack_step(body)
        if path != "/assess":
            return _error(404, "NotFound", f"unknown path {path}")
        return self._assess(body)

    @staticmethod
    def _parse_body(body: bytes | None) -> dict[str, Any]:
        if not body:
            raise ValueError("empty request body")
        if len(body) > MAX_BODY_BYTES:
            raise ValueError(f"request body exceeds {MAX_BODY_BYTES} bytes")
        payload = json.loads(body)
        if not isinstance(payload, dict):
            raise ValueError("request body must be a JSON object")
        return payload

    def _assess(self, body: bytes | None) -> RouteResponse:
        try:
            with _gc_paused():
                payload = self._parse_body(body)
                if "profile" not in payload:
                    raise ValueError("missing required key 'profile'")
                if "tolerance" not in payload:
                    raise ValueError("missing required key 'tolerance'")
                # Popped, so the tagged lists die inside the pause.
                profile = profile_from_json(payload.pop("profile"))
            interest = payload.get("interest")
            params = AssessmentParams(
                tolerance=float(payload["tolerance"]),
                delta=(
                    None if payload.get("delta") is None else float(payload["delta"])
                ),
                runs=payload.get("runs", 5),
                seed=payload.get("seed", 0),
                interest=None if interest is None else frozenset(interest),
            )
            deadline = payload.get("deadline_seconds")
            budget = None if deadline is None else request_budget(float(deadline))
        except (
            ValueError,
            TypeError,
            KeyError,
            json.JSONDecodeError,
            ReproError,
        ) as exc:
            return _error(400, type(exc).__name__, str(exc))
        try:
            timeout = None if budget is None else budget.remaining_seconds()
            with self.admission.admitted(timeout_seconds=timeout):
                outcome = self.engine.assess_request(profile, params, budget=budget)
        except QueueFullError as exc:
            return _error(
                429,
                type(exc).__name__,
                str(exc),
                headers={"Retry-After": str(int(exc.retry_after + 0.5) or 1)},
            )
        except (AdmissionTimeout, CircuitOpenError) as exc:
            return _error(
                503,
                type(exc).__name__,
                str(exc),
                headers={"Retry-After": str(int(exc.retry_after + 0.5) or 1)},
            )
        except BudgetExceeded as exc:
            # The deadline expired before any rung produced even a
            # partial answer; tell the client to come back rather than
            # hanging or dropping the connection.
            return _error(
                503,
                type(exc).__name__,
                f"deadline expired before any result was ready ({exc})",
                headers={"Retry-After": "1"},
            )
        except ReproError as exc:
            return _error(422, type(exc).__name__, str(exc))
        except Exception as exc:
            # An unexpected failure (I/O fault, bug) must surface as a
            # structured 500, never as a dropped connection.
            self.engine.metrics.increment("http_500")
            return _error(500, type(exc).__name__, str(exc))
        return RouteResponse(
            200,
            {
                "fingerprint": outcome.fingerprint,
                "cached": outcome.cached,
                "elapsed_seconds": outcome.elapsed_seconds,
                "partial": outcome.assessment.partial,
                "assessment": assessment_to_json(outcome.assessment),
            },
        )

    def _crack_step(self, body: bytes | None) -> RouteResponse:
        """One ``POST /crack/step`` move against the solver session store."""
        metrics = self.engine.metrics
        try:
            payload = self._parse_body(body)
        except (ValueError, TypeError, json.JSONDecodeError) as exc:
            return _error(400, type(exc).__name__, str(exc))
        try:
            with metrics.timer("crack:step"):
                result = self.crack_sessions.step(payload)
        except ReproError as exc:
            return _error(422, type(exc).__name__, str(exc))
        except Exception as exc:
            metrics.increment("http_500")
            return _error(500, type(exc).__name__, str(exc))
        metrics.increment("crack_steps")
        return RouteResponse(200, result)
