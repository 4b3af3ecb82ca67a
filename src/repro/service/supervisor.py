"""Replica lifecycle management: restart what dies, report what loops.

The load harness (:mod:`repro.service.loadgen`) launches N real
``repro-serve`` subprocesses; the chaos harness
(:mod:`repro.service.chaos`) additionally kills them mid-run and
expects the fleet to heal.  This module owns that lifecycle:

* :class:`ReplicaSupervisor` polls every replica (``tick``), restarts a
  dead one after an exponential backoff with deterministic jitter, and
  re-binds the replica's *original* port (the server sets
  ``SO_REUSEADDR``), so clients keep a fixed address per replica and
  simply reconnect.
* A replica that dies ``crash_loop_threshold`` times within
  ``crash_loop_window_seconds`` is declared a **crash loop**: the
  supervisor gives up on it and records a structured report instead of
  burning restarts forever.
* :meth:`ReplicaSupervisor.stop` escalates: ``SIGTERM`` to every live
  replica, a bounded grace wait, then ``SIGKILL`` for stragglers
  (counted in the ``sigkill_escalations`` metric).
* Liveness is also probed over HTTP (``GET /healthz``) and ``/metrics``
  snapshots are scraped per *(replica, incarnation)* — the last-known
  snapshot of a killed incarnation is exactly what the chaos verifier
  reconciles against, since a ``kill -9`` takes the live counters with
  it.

Time is injected (``clock`` + ``sleep``) so backoff and crash-loop
windows unit-test against a fake clock; the background monitor thread
(:meth:`start_monitor`) is only used for real wall-clock runs.

Supervisor state is observable two ways: :meth:`status` (a JSON-able
report), and the ``restarts`` / ``crash_loops`` / ``replica_deaths`` /
``sigkill_escalations`` counters and per-replica uptime gauges on
:attr:`metrics`.
"""

from __future__ import annotations

import json
import random
import subprocess
import threading
import time
from dataclasses import dataclass, field
from http.client import HTTPConnection
from typing import Any, Callable, Protocol

from repro.errors import ReproError
from repro.service.metrics import ServiceMetrics

__all__ = [
    "RestartPolicy",
    "ReplicaSupervisor",
    "SupervisedProcess",
    "backoff_delay",
]


class SupervisedProcess(Protocol):
    """What the supervisor needs from a replica process handle.

    ``subprocess.Popen`` satisfies this; unit tests substitute fakes.
    """

    def poll(self) -> int | None: ...

    def wait(self, timeout: float | None = None) -> int: ...

    def send_signal(self, sig: int) -> None: ...

    def kill(self) -> None: ...


#: (replica_index, incarnation, port_hint) -> (process, bound_port).
#: ``port_hint`` is 0 for the first incarnation (bind an ephemeral
#: port) and the previously bound port on restarts.
Launcher = Callable[[int, int, int], "tuple[SupervisedProcess, int]"]


@dataclass(frozen=True)
class RestartPolicy:
    """When and how fast dead replicas come back.

    Restart delay for the k-th consecutive failure is
    ``min(max_delay, initial_delay * backoff_factor**k)`` plus a
    deterministic jitter of up to ``jitter_fraction`` of the delay
    (seeded per *(seed, replica, incarnation)* so two replicas dying
    together do not restart in lockstep, yet the same chaos seed
    replays the same timings).
    """

    initial_delay_seconds: float = 0.05
    max_delay_seconds: float = 2.0
    backoff_factor: float = 2.0
    jitter_fraction: float = 0.25
    crash_loop_window_seconds: float = 10.0
    crash_loop_threshold: int = 5

    def __post_init__(self) -> None:
        if self.initial_delay_seconds <= 0 or self.max_delay_seconds <= 0:
            raise ReproError("restart delays must be > 0")
        if self.backoff_factor < 1.0:
            raise ReproError("backoff_factor must be >= 1.0")
        if not 0.0 <= self.jitter_fraction <= 1.0:
            raise ReproError("jitter_fraction must be within [0, 1]")
        if self.crash_loop_threshold < 2:
            raise ReproError("crash_loop_threshold must be >= 2")


def backoff_delay(
    policy: RestartPolicy, failures: int, seed: int, replica: int, incarnation: int
) -> float:
    """The jittered restart delay after *failures* consecutive deaths."""
    base = min(
        policy.max_delay_seconds,
        policy.initial_delay_seconds * policy.backoff_factor ** max(0, failures - 1),
    )
    rng = random.Random(f"supervisor:{seed}:{replica}:{incarnation}")
    return base * (1.0 + policy.jitter_fraction * rng.random())


def _close_stdout(process: SupervisedProcess) -> None:
    """Close a finished replica's stdout pipe (launchers may give it one)."""
    stdout = getattr(process, "stdout", None)
    if stdout is not None:
        stdout.close()


@dataclass
class _ReplicaState:
    index: int
    process: SupervisedProcess | None = None
    port: int = 0
    incarnation: int = 0
    status: str = "stopped"  # stopped | running | backoff | crash_loop
    started_at: float = 0.0
    next_restart_at: float = 0.0
    consecutive_failures: int = 0
    death_times: list[float] = field(default_factory=list)
    deaths: int = 0
    last_returncode: int | None = None


class ReplicaSupervisor:
    """Keep *count* replicas alive behind stable ports.

    Parameters
    ----------
    launcher:
        Spawns one replica: ``launcher(index, incarnation, port_hint)``
        returns the process handle and its bound port.  Raising is a
        failed start — counted like a death and retried with backoff.
    count:
        How many replicas to supervise.
    policy:
        Backoff / crash-loop parameters.
    seed:
        Jitter seed (chaos passes its run seed through, so restart
        timings replay).
    clock / sleep:
        Injectable time source, for deterministic unit tests.
    """

    def __init__(
        self,
        launcher: Launcher,
        count: int,
        policy: RestartPolicy | None = None,
        seed: int = 0,
        clock: Callable[[], float] = time.monotonic,
        sleep: Callable[[float], None] = time.sleep,
        metrics: ServiceMetrics | None = None,
    ) -> None:
        if count < 1:
            raise ReproError(f"supervisor needs >= 1 replica, got {count}")
        self.launcher = launcher
        self.count = count
        self.policy = policy if policy is not None else RestartPolicy()
        self.seed = seed
        self.clock = clock
        self.sleep = sleep
        self.metrics = metrics if metrics is not None else ServiceMetrics()
        self._lock = threading.RLock()
        self._replicas = [_ReplicaState(index) for index in range(count)]
        self._stopping = False
        self._monitor: threading.Thread | None = None
        self._monitor_stop = threading.Event()
        #: Last-known ``GET /metrics`` payload per (replica, incarnation);
        #: the chaos verifier reconciles summed counters from these.
        self.metric_snapshots: dict[tuple[int, int], dict[str, Any]] = {}

    # -- lifecycle --------------------------------------------------------

    def start(self) -> "ReplicaSupervisor":
        """Launch every replica (first incarnations, ephemeral ports)."""
        try:
            for state in self._replicas:
                self._launch(state)
        except BaseException:
            self.stop()
            raise
        return self

    def __enter__(self) -> "ReplicaSupervisor":
        return self.start()

    def __exit__(self, *exc_info: object) -> None:
        self.stop()

    def _launch(self, state: _ReplicaState) -> None:
        incarnation = state.incarnation + 1
        process, port = self.launcher(state.index, incarnation, state.port)
        with self._lock:
            if self._stopping:
                # stop() won the race against a relaunch decided just
                # before it took the lock: don't leak the new process.
                process.kill()
                try:
                    process.wait(timeout=5.0)
                except subprocess.TimeoutExpired:
                    pass
                _close_stdout(process)
                return
            state.process = process
            state.port = port
            state.incarnation = incarnation
            state.status = "running"
            state.started_at = self.clock()
            if incarnation > 1:
                self.metrics.increment("restarts")
            self.metrics.set_gauge(f"replica{state.index}_uptime_seconds", 0.0)

    @property
    def ports(self) -> list[int]:
        with self._lock:
            return [state.port for state in self._replicas]

    @property
    def processes(self) -> list[SupervisedProcess]:
        with self._lock:
            return [
                state.process
                for state in self._replicas
                if state.process is not None
            ]

    def port_of(self, index: int) -> int:
        with self._lock:
            return self._replicas[index].port

    # -- supervision ------------------------------------------------------

    def tick(self, now: float | None = None) -> None:
        """One supervision pass: detect deaths, schedule/run restarts.

        Pure bookkeeping against the injected clock; the monitor thread
        calls it periodically, tests call it directly.
        """
        now = self.clock() if now is None else now
        with self._lock:
            if self._stopping:
                return
            states = list(self._replicas)
        for state in states:
            self._tick_replica(state, now)

    def _tick_replica(self, state: _ReplicaState, now: float) -> None:
        with self._lock:
            if state.status == "running":
                process = state.process
                returncode = None if process is None else process.poll()
                if returncode is None:
                    uptime = max(0.0, now - state.started_at)
                    self.metrics.set_gauge(
                        f"replica{state.index}_uptime_seconds", uptime
                    )
                    # A full crash-loop window of health means the
                    # earlier deaths were transient: restart fast again.
                    if uptime > self.policy.crash_loop_window_seconds:
                        state.consecutive_failures = 0
                    return
                self._record_death(state, now, returncode)
            if state.status == "backoff" and now >= state.next_restart_at:
                relaunch = True
            else:
                relaunch = False
        if relaunch:
            try:
                self._launch(state)
            except Exception:
                with self._lock:
                    state.consecutive_failures += 1
                    self._schedule_restart(state, self.clock())

    def _record_death(self, state: _ReplicaState, now: float, returncode: int) -> None:
        """Called under the lock when a running replica is found dead."""
        if state.process is not None:
            _close_stdout(state.process)  # nothing reads a dead banner pipe
        state.last_returncode = returncode
        state.deaths += 1
        state.consecutive_failures += 1
        state.death_times.append(now)
        self.metrics.increment("replica_deaths")
        self.metrics.set_gauge(f"replica{state.index}_uptime_seconds", 0.0)
        window = self.policy.crash_loop_window_seconds
        state.death_times = [t for t in state.death_times if now - t <= window]
        if len(state.death_times) >= self.policy.crash_loop_threshold:
            state.status = "crash_loop"
            state.process = None
            self.metrics.increment("crash_loops")
            return
        self._schedule_restart(state, now)

    def _schedule_restart(self, state: _ReplicaState, now: float) -> None:
        state.status = "backoff"
        state.process = None
        state.next_restart_at = now + backoff_delay(
            self.policy,
            state.consecutive_failures,
            self.seed,
            state.index,
            state.incarnation,
        )

    # -- fault delivery (chaos uses these; they are just signals) ---------

    def kill(self, index: int) -> bool:
        """``SIGKILL`` replica *index*; the next tick restarts it."""
        with self._lock:
            process = self._replicas[index].process
            alive = process is not None and process.poll() is None
            if alive and process is not None:
                process.kill()
                self.metrics.increment("kills_delivered")
        return alive

    def terminate(self, index: int) -> bool:
        """``SIGTERM`` replica *index* (graceful drain, then restart)."""
        import signal as _signal

        with self._lock:
            process = self._replicas[index].process
            alive = process is not None and process.poll() is None
            if alive and process is not None:
                process.send_signal(_signal.SIGTERM)
                self.metrics.increment("terms_delivered")
        return alive

    # -- health probing and metric scraping -------------------------------

    def probe_health(self, index: int, timeout: float = 2.0) -> bool:
        """``GET /healthz`` against replica *index*; False on any failure."""
        port = self.port_of(index)
        if port <= 0:
            return False
        connection = HTTPConnection("127.0.0.1", port, timeout=timeout)
        try:
            connection.request("GET", "/healthz")
            healthy = connection.getresponse().status == 200
        except (OSError, ValueError):
            healthy = False
        finally:
            connection.close()
        if not healthy:
            self.metrics.increment("health_probe_failures")
        return healthy

    def scrape_metrics(self, index: int, timeout: float = 2.0) -> dict[str, Any] | None:
        """``GET /metrics`` for replica *index*, recorded per incarnation.

        The retained snapshot is the *last known* state of that
        incarnation — after a ``kill -9`` it is all that remains of the
        replica's counters, which is why the chaos verifier treats
        summed metrics as a lower bound rather than an exact ledger.
        """
        with self._lock:
            state = self._replicas[index]
            port, incarnation = state.port, state.incarnation
        if port <= 0:
            return None
        connection = HTTPConnection("127.0.0.1", port, timeout=timeout)
        try:
            connection.request("GET", "/metrics")
            response = connection.getresponse()
            if response.status != 200:
                return None
            payload: dict[str, Any] = json.loads(response.read())
        except (OSError, ValueError):
            return None
        finally:
            connection.close()
        with self._lock:
            self.metric_snapshots[(index, incarnation)] = payload
        return payload

    def scrape_all(self) -> None:
        for index in range(self.count):
            self.scrape_metrics(index)

    # -- the monitor thread -----------------------------------------------

    def start_monitor(
        self, interval_seconds: float = 0.1, scrape_every: int = 5
    ) -> None:
        """Tick in a daemon thread; every *scrape_every* ticks also scrape."""

        def run() -> None:
            ticks = 0
            while not self._monitor_stop.wait(interval_seconds):
                self.tick()
                ticks += 1
                if scrape_every > 0 and ticks % scrape_every == 0:
                    self.scrape_all()

        with self._lock:
            if self._monitor is not None:
                return
            self._monitor_stop.clear()
            self._monitor = threading.Thread(
                target=run, name="replica-supervisor", daemon=True
            )
            self._monitor.start()

    def stop_monitor(self) -> None:
        with self._lock:
            monitor, self._monitor = self._monitor, None
        if monitor is not None:
            self._monitor_stop.set()
            monitor.join(timeout=5.0)

    # -- shutdown ---------------------------------------------------------

    def stop(self, grace_seconds: float = 10.0) -> None:
        """SIGTERM every live replica, wait *grace_seconds*, SIGKILL the rest."""
        import signal as _signal

        self.stop_monitor()
        with self._lock:
            self._stopping = True
            states = list(self._replicas)
        for state in states:
            process = state.process
            if process is not None and process.poll() is None:
                process.send_signal(_signal.SIGTERM)
        for state in states:
            process = state.process
            if process is None:
                continue
            try:
                process.wait(timeout=grace_seconds)
            except subprocess.TimeoutExpired:
                process.kill()
                self.metrics.increment("sigkill_escalations")
                process.wait(timeout=5.0)
            _close_stdout(process)
            with self._lock:
                state.status = "stopped"
                state.process = None

    # -- reporting --------------------------------------------------------

    def status(self) -> dict[str, Any]:
        """A JSON-able structured report of the whole fleet."""
        now = self.clock()
        with self._lock:
            replicas = [
                {
                    "index": state.index,
                    "status": state.status,
                    "port": state.port,
                    "incarnation": state.incarnation,
                    "deaths": state.deaths,
                    "last_returncode": state.last_returncode,
                    "uptime_seconds": (
                        round(max(0.0, now - state.started_at), 3)
                        if state.status == "running"
                        else 0.0
                    ),
                }
                for state in self._replicas
            ]
        return {
            "replicas": replicas,
            "restarts": self.metrics.counter("restarts"),
            "crash_loops": self.metrics.counter("crash_loops"),
            "replica_deaths": self.metrics.counter("replica_deaths"),
            "sigkill_escalations": self.metrics.counter("sigkill_escalations"),
        }

    def crash_loop_reports(self) -> list[dict[str, Any]]:
        """Structured give-up reports for every crash-looping replica."""
        with self._lock:
            return [
                {
                    "index": state.index,
                    "port": state.port,
                    "incarnation": state.incarnation,
                    "deaths_in_window": len(state.death_times),
                    "window_seconds": self.policy.crash_loop_window_seconds,
                    "threshold": self.policy.crash_loop_threshold,
                    "last_returncode": state.last_returncode,
                }
                for state in self._replicas
                if state.status == "crash_loop"
            ]
