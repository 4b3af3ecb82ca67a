"""A failure-streak circuit breaker for the assessment engine.

When the computation path fails repeatedly (injected I/O faults, a bad
disk, a poisoned dependency), letting every new request run the doomed
computation wastes executor threads and piles latency onto clients that
could have been told to back off immediately.  The breaker implements
the classic three-state automaton:

* **closed** — requests flow; consecutive *unexpected* failures are
  counted (a deterministic :class:`~repro.errors.ReproError` — including
  :class:`~repro.errors.BudgetExceeded` — is the request's own fault and
  never trips the breaker).
* **open** — after ``failure_threshold`` consecutive failures, requests
  fast-fail with :class:`CircuitOpenError` (the HTTP layer maps it to a
  503 with ``Retry-After``) without touching the engine.
* **half-open** — after ``cooldown_seconds`` one probe request is let
  through; success closes the breaker, failure re-opens it for another
  cooldown.

The breaker guards every compute of an
:class:`~repro.service.engine.AssessmentEngine`: each HTTP request and
each batch slot (with its retries inside) is one call.
"""

from __future__ import annotations

import threading
import time
from typing import Callable, Optional, TypeVar

from repro.errors import ReproError
from repro.service.metrics import ServiceMetrics

__all__ = ["CircuitBreaker", "CircuitOpenError"]

_T = TypeVar("_T")

STATE_CLOSED = "closed"
STATE_OPEN = "open"
STATE_HALF_OPEN = "half-open"

_STATE_GAUGE = {STATE_CLOSED: 0, STATE_OPEN: 1, STATE_HALF_OPEN: 2}


class CircuitOpenError(ReproError):
    """Fast-fail: the breaker is open and the computation was not run.

    ``retry_after`` is the suggested client back-off in seconds (the
    remaining cooldown, rounded up to at least one second).
    """

    def __init__(self, message: str, retry_after: float = 1.0) -> None:
        super().__init__(message)
        self.retry_after = retry_after


class CircuitBreaker:
    """Thread-safe failure-streak breaker around a callable.

    Parameters
    ----------
    failure_threshold:
        Consecutive unexpected failures that open the breaker.
    cooldown_seconds:
        How long the breaker stays open before letting one probe through.
    clock:
        Injectable monotonic clock for deterministic tests.
    metrics:
        Optional :class:`ServiceMetrics`; maintains the
        ``breaker_state`` gauge (0 closed / 1 open / 2 half-open) and the
        ``breaker_opened`` / ``breaker_fast_fail`` counters.
    """

    def __init__(
        self,
        failure_threshold: int = 5,
        cooldown_seconds: float = 30.0,
        clock: Callable[[], float] = time.monotonic,
        metrics: Optional[ServiceMetrics] = None,
    ) -> None:
        if failure_threshold < 1:
            raise ReproError(
                f"failure_threshold must be >= 1, got {failure_threshold}"
            )
        if cooldown_seconds <= 0:
            raise ReproError(f"cooldown_seconds must be > 0, got {cooldown_seconds}")
        self.failure_threshold = failure_threshold
        self.cooldown_seconds = cooldown_seconds
        self._clock = clock
        self._metrics = metrics
        self._lock = threading.Lock()
        self._state = STATE_CLOSED
        self._streak = 0
        self._opened_at = 0.0
        self._probe_inflight = False
        self._set_gauge()

    # -- state ------------------------------------------------------------

    @property
    def state(self) -> str:
        """Current state, refreshing an expired open period to half-open."""
        with self._lock:
            self._maybe_half_open()
            return self._state

    def _set_gauge(self) -> None:
        if self._metrics is not None:
            self._metrics.set_gauge("breaker_state", _STATE_GAUGE[self._state])

    def _maybe_half_open(self) -> None:
        if (
            self._state == STATE_OPEN
            and self._clock() - self._opened_at >= self.cooldown_seconds
        ):
            self._state = STATE_HALF_OPEN
            self._probe_inflight = False
            self._set_gauge()

    # -- the guarded call --------------------------------------------------

    def call(self, func: Callable[[], _T]) -> _T:
        """Run *func* under the breaker.

        Raises :class:`CircuitOpenError` without calling *func* while the
        breaker is open (or while the single half-open probe is already
        running).  A deterministic :class:`~repro.errors.ReproError` from
        *func* propagates without counting as a failure; any other
        exception feeds the failure streak.
        """
        with self._lock:
            self._maybe_half_open()
            if self._state == STATE_OPEN:
                remaining = self.cooldown_seconds - (self._clock() - self._opened_at)
                if self._metrics is not None:
                    self._metrics.increment("breaker_fast_fail")
                raise CircuitOpenError(
                    "circuit breaker is open: the compute path failed "
                    f"{self.failure_threshold} consecutive times",
                    retry_after=max(1.0, remaining),
                )
            if self._state == STATE_HALF_OPEN:
                if self._probe_inflight:
                    if self._metrics is not None:
                        self._metrics.increment("breaker_fast_fail")
                    raise CircuitOpenError(
                        "circuit breaker is half-open and its probe is "
                        "already in flight",
                        retry_after=1.0,
                    )
                self._probe_inflight = True
        try:
            result = func()
        except ReproError:
            # Deterministic request-level failure: not the engine's
            # fault, so the streak (and a half-open probe) is unaffected
            # but the breaker does not close either.
            with self._lock:
                if self._state == STATE_HALF_OPEN:
                    self._probe_inflight = False
            raise
        except Exception:
            self._record_failure()
            raise
        self._record_success()
        return result

    def _record_success(self) -> None:
        with self._lock:
            self._streak = 0
            if self._state != STATE_CLOSED:
                self._state = STATE_CLOSED
                self._probe_inflight = False
                self._set_gauge()

    def _record_failure(self) -> None:
        with self._lock:
            if self._state == STATE_HALF_OPEN:
                # The probe failed: straight back to open.
                self._state = STATE_OPEN
                self._opened_at = self._clock()
                self._probe_inflight = False
                self._streak = self.failure_threshold
                if self._metrics is not None:
                    self._metrics.increment("breaker_opened")
                self._set_gauge()
                return
            self._streak += 1
            if self._state == STATE_CLOSED and self._streak >= self.failure_threshold:
                self._state = STATE_OPEN
                self._opened_at = self._clock()
                if self._metrics is not None:
                    self._metrics.increment("breaker_opened")
                self._set_gauge()
