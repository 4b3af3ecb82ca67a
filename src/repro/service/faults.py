"""Deterministic fault injection for the service layer.

Crash-safety claims are only as good as the failures they were tested
against.  This module lets tests (and the ``repro-batch`` CLI, via
``--faults``) inject failures at named *sites* inside the service layer
on a deterministic schedule:

* ``error`` — raise a configurable exception (``OSError`` by default),
  modelling transient I/O failures;
* ``crash`` — raise :class:`InjectedCrash`, a :class:`BaseException`
  subclass that sails past ``except Exception`` handlers the way a
  ``kill -9`` sails past ``finally``-less cleanup, so tests can observe
  exactly what a died-mid-write process leaves on disk;
* ``delay`` — sleep for a fixed duration, for timeout and race testing;
* ``enospc`` — raise ``OSError(ENOSPC)``, modelling a full disk at a
  write site (the cache treats it as a survivable write error: the
  result is still answered, just not cached);
* ``torn_write`` — truncate the in-progress file at ``truncate_at``
  bytes and then crash, leaving exactly the half-written debris a
  power cut leaves (only path-aware sites — ``cache.write.*`` — can
  tear; elsewhere it degrades to a plain crash);
* ``clock_skew`` — no exception at all: firing adds ``skew_seconds``
  to the injector's clock skew, which :func:`clock_skew` exposes and
  the lease staleness judgement adds to every lease age, so tests can
  age a healthy owner's heartbeats into apparent staleness.

Instrumented sites
------------------

========================  ====================================================
site                      fired
========================  ====================================================
``cache.read``            before a disk-tier read in ``AssessmentCache``
``cache.write.tmp``       on the empty temp file, before the JSON is written
``cache.write.replace``   after the temp file is written and closed, before
                          ``os.replace``
``cache.lease``           before every ``*.lease`` acquisition attempt in the
                          shared cache tier (crash here ≈ a replica dying at
                          the moment it wins the cross-process race)
``cache.lease.state``     before every lease classification (``lease_state``);
                          an injected ``OSError`` exercises the
                          vanished-mid-stat fallback
``cache.lease.sweep``     between the staleness check and the unlink of each
                          stale lease in ``sweep_stale_leases`` (the TOCTOU
                          window against a releasing owner)
``cache.lease.takeover``  between the re-check and the unlink in
                          ``take_over``
``engine.compute``        at the top of every computation (HTTP request or
                          batch slot)
``budget.poll``           every slow-path deadline check of a request
                          :class:`~repro.budget.ComputeBudget` (a ``delay``
                          rule here burns wall-clock deterministically, so
                          the *next* poll observes an expired deadline)
``checkpoint.write``      before each atomic batch-checkpoint write in
                          ``repro-batch --checkpoint``
``server.admission``      on every admission attempt at ``POST /assess``,
                          before queueing/shedding decisions
========================  ====================================================

A schedule is a list of :class:`FaultRule` objects.  Rules are matched
in order by :func:`fnmatch.fnmatch` pattern (``"cache.*"`` targets every
cache site); each rule keeps its own deterministic counters, so "fail
the first two writes, then succeed" is expressed as
``FaultRule(site="cache.write.*", action="error", times=2)``.

Usage::

    with injected_faults([FaultRule(site="engine.compute", action="error")]) as injector:
        ...                      # first compute raises OSError, rest succeed
    assert injector.events       # what actually fired, in order

``repro-batch --faults`` installs a schedule around the whole batch,
which is how the CLI exercises the batch slots' retry path.
"""

from __future__ import annotations

import errno
import fnmatch
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Iterator, Union

from repro.errors import FormatError, RecipeError, ReproError

__all__ = [
    "InjectedCrash",
    "FaultRule",
    "FaultEvent",
    "FaultInjector",
    "fault_point",
    "clock_skew",
    "install",
    "uninstall",
    "current",
    "injected_faults",
    "load_schedule",
]

PathLike = Union[str, Path]

ACTIONS = ("error", "crash", "delay", "enospc", "torn_write", "clock_skew")

#: Exception types a rule may raise by name.  Deliberately small: the
#: service layer's retry logic classifies anything outside ReproError as
#: transient, and these cover both sides of that line.
#: ``FileNotFoundError`` is here for the lease sweep's TOCTOU window —
#: the file vanishing under the unlink is a failure mode, not a bug.
EXCEPTIONS = {
    "OSError": OSError,
    "FileNotFoundError": FileNotFoundError,
    "TimeoutError": TimeoutError,
    "ConnectionError": ConnectionError,
    "ValueError": ValueError,
    "FormatError": FormatError,
    "ReproError": ReproError,
    "RecipeError": RecipeError,
}


class InjectedCrash(BaseException):
    """A simulated hard crash (process death) at a fault point.

    Subclasses :class:`BaseException` on purpose: production code that
    catches ``Exception`` must not be able to "handle" a crash, because
    a real ``SIGKILL`` would not have given it the chance.  Whatever the
    crash leaves behind (orphan temp files, missing entries) is exactly
    what a post-crash process would find.
    """


@dataclass(frozen=True)
class FaultRule:
    """One deterministic entry of a failure schedule.

    Parameters
    ----------
    site:
        :func:`fnmatch.fnmatch` pattern matched against fault-point
        names (``"cache.write.replace"``, ``"cache.*"``, ``"*"``).
    action:
        ``"error"``, ``"crash"`` or ``"delay"``.
    times:
        Fire at most this many times (``None`` = every matching call).
    after:
        Let this many matching calls pass before the first firing.
    delay_seconds:
        Sleep duration for ``action="delay"``.
    exception:
        Exception type name (a key of :data:`EXCEPTIONS`) raised by
        ``action="error"``.
    message:
        Message of the raised exception.
    truncate_at:
        Byte offset for ``action="torn_write"``: the in-progress file is
        truncated here (clamped to its size) before the crash.
    skew_seconds:
        Clock skew added by each firing of ``action="clock_skew"``.
    """

    site: str
    action: str = "error"
    times: int | None = 1
    after: int = 0
    delay_seconds: float = 0.0
    exception: str = "OSError"
    message: str = "injected fault"
    truncate_at: int = 0
    skew_seconds: float = 0.0

    def __post_init__(self) -> None:
        if self.action not in ACTIONS:
            raise ReproError(
                f"unknown fault action {self.action!r}; expected one of {ACTIONS}"
            )
        if self.exception not in EXCEPTIONS:
            raise ReproError(
                f"unknown fault exception {self.exception!r}; "
                f"expected one of {sorted(EXCEPTIONS)}"
            )
        if self.times is not None and self.times < 1:
            raise ReproError(f"fault 'times' must be >= 1 or null, got {self.times}")
        if self.after < 0:
            raise ReproError(f"fault 'after' must be >= 0, got {self.after}")
        if self.delay_seconds < 0:
            raise ReproError(
                f"fault 'delay_seconds' must be >= 0, got {self.delay_seconds}"
            )
        if self.truncate_at < 0:
            raise ReproError(
                f"fault 'truncate_at' must be >= 0, got {self.truncate_at}"
            )

    def matches(self, site: str) -> bool:
        return fnmatch.fnmatch(site, self.site)

    @classmethod
    def from_json(cls, payload: dict[str, Any]) -> "FaultRule":
        if not isinstance(payload, dict) or "site" not in payload:
            raise FormatError(f"fault rule needs at least a 'site' key: {payload!r}")
        unknown = set(payload) - {
            "site", "action", "times", "after", "delay_seconds", "exception", "message",
            "truncate_at", "skew_seconds",
        }
        if unknown:
            raise FormatError(f"unknown fault rule key(s): {sorted(unknown)}")
        return cls(
            site=str(payload["site"]),
            action=str(payload.get("action", "error")),
            times=None if payload.get("times", 1) is None else int(payload.get("times", 1)),
            after=int(payload.get("after", 0)),
            delay_seconds=float(payload.get("delay_seconds", 0.0)),
            exception=str(payload.get("exception", "OSError")),
            message=str(payload.get("message", "injected fault")),
            truncate_at=int(payload.get("truncate_at", 0)),
            skew_seconds=float(payload.get("skew_seconds", 0.0)),
        )

    def to_json(self) -> dict[str, Any]:
        """The ``from_json``-shaped payload (for generated schedules)."""
        return {
            "site": self.site,
            "action": self.action,
            "times": self.times,
            "after": self.after,
            "delay_seconds": self.delay_seconds,
            "exception": self.exception,
            "message": self.message,
            "truncate_at": self.truncate_at,
            "skew_seconds": self.skew_seconds,
        }


@dataclass(frozen=True)
class FaultEvent:
    """One firing of a rule, recorded for post-hoc assertions."""

    site: str
    action: str
    rule_index: int


class FaultInjector:
    """A thread-safe, deterministic fault schedule.

    Every :meth:`fire` walks the rules in order; delays accumulate, the
    first firing ``error``/``crash`` rule raises.  Counters are per rule
    (not per site), so two rules with overlapping patterns schedule
    independently.
    """

    def __init__(self, rules: list[FaultRule] | None = None) -> None:
        self.rules = list(rules or [])
        self._lock = threading.Lock()
        self._seen = [0] * len(self.rules)
        self._fired = [0] * len(self.rules)
        self._skew = 0.0
        self.events: list[FaultEvent] = []

    def fire(self, site: str, path: PathLike | None = None) -> None:
        """Apply the schedule at *site*; raises when a rule says so.

        *path*, passed by path-aware sites (``cache.write.*``,
        ``cache.lease.*``), is the file a ``torn_write`` rule mutilates.
        """
        raising: FaultRule | None = None
        delays: list[float] = []
        with self._lock:
            for index, rule in enumerate(self.rules):
                if not rule.matches(site):
                    continue
                seen = self._seen[index]
                self._seen[index] += 1
                if seen < rule.after:
                    continue
                if rule.times is not None and self._fired[index] >= rule.times:
                    continue
                self._fired[index] += 1
                self.events.append(
                    FaultEvent(site=site, action=rule.action, rule_index=index)
                )
                if rule.action == "delay":
                    delays.append(rule.delay_seconds)
                    continue
                if rule.action == "clock_skew":
                    self._skew += rule.skew_seconds
                    continue
                raising = rule
                break
        for delay in delays:
            time.sleep(delay)
        if raising is not None:
            if raising.action == "crash":
                raise InjectedCrash(f"injected crash at {site}")
            if raising.action == "torn_write":
                if path is not None:
                    _tear_file(path, raising.truncate_at)
                raise InjectedCrash(f"injected torn write at {site}")
            if raising.action == "enospc":
                raise OSError(
                    errno.ENOSPC, f"{raising.message} (injected at {site})"
                )
            raise EXCEPTIONS[raising.exception](
                f"{raising.message} (injected at {site})"
            )

    def skew_seconds(self) -> float:
        """Accumulated clock skew from every ``clock_skew`` firing so far."""
        with self._lock:
            return self._skew

    def fired(self, site_pattern: str = "*") -> int:
        """How many events matching *site_pattern* have fired so far."""
        with self._lock:
            return sum(
                1 for event in self.events if fnmatch.fnmatch(event.site, site_pattern)
            )

    def reset(self) -> None:
        """Rewind every counter and drop the event log."""
        with self._lock:
            self._seen = [0] * len(self.rules)
            self._fired = [0] * len(self.rules)
            self._skew = 0.0
            self.events.clear()


def _tear_file(path: PathLike, truncate_at: int) -> None:
    """Truncate *path* at *truncate_at* bytes (clamped; missing file is a no-op)."""
    target = Path(path)
    try:
        size = target.stat().st_size
        with open(target, "r+b") as handle:
            handle.truncate(min(truncate_at, size))
    except OSError:
        return  # nothing written yet, or the file vanished — plain crash


#: The process-wide active injector.
_ACTIVE: FaultInjector | None = None
_INSTALL_LOCK = threading.Lock()


def install(injector: FaultInjector) -> FaultInjector:
    """Make *injector* the process-wide active schedule."""
    global _ACTIVE
    with _INSTALL_LOCK:
        if _ACTIVE is not None:
            raise ReproError("a fault injector is already installed")
        _ACTIVE = injector
    return injector


def uninstall() -> None:
    """Remove the active schedule (a no-op when none is installed)."""
    global _ACTIVE
    with _INSTALL_LOCK:
        _ACTIVE = None


def current() -> FaultInjector | None:
    """The active injector, or ``None``."""
    return _ACTIVE


@contextmanager
def injected_faults(schedule: "PathLike | dict[str, Any] | list[dict[str, Any]]") -> Iterator[FaultInjector]:
    """Install a schedule for the duration of a ``with`` block.

    *schedule* is a :class:`FaultInjector`, a list of
    :class:`FaultRule`, or a ``{"rules": [...]}`` mapping.
    """
    if isinstance(schedule, FaultInjector):
        injector = schedule
    elif isinstance(schedule, dict):
        injector = load_schedule(schedule)
    else:
        injector = FaultInjector(list(schedule))
    install(injector)
    try:
        yield injector
    finally:
        uninstall()


def fault_point(site: str, path: PathLike | None = None) -> None:
    """Declare an injectable site; free when no injector is installed.

    Path-aware sites pass the file being written so ``torn_write`` rules
    have something to tear.
    """
    injector = _ACTIVE
    if injector is not None:
        injector.fire(site, path=path)


def clock_skew() -> float:
    """Active injected clock skew in seconds (``0.0`` with no injector).

    Consumed by :func:`repro.service.lease.lease_state`: the skew is
    added to every lease age, so a schedule can make a healthy owner's
    heartbeats look stale without sleeping through the real window.
    """
    injector = _ACTIVE
    return injector.skew_seconds() if injector is not None else 0.0


def load_schedule(source: "PathLike | dict[str, Any] | list[dict[str, Any]]") -> FaultInjector:
    """Build an injector from ``{"rules": [...]}`` (a mapping or a JSON file)."""
    if isinstance(source, dict):
        payload = source
    else:
        from repro.io import load_json

        payload = load_json(source)
    rules = payload.get("rules")
    if not isinstance(rules, list):
        raise FormatError("fault schedule must be an object with a 'rules' list")
    return FaultInjector([FaultRule.from_json(rule) for rule in rules])
