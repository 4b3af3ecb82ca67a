"""Chaos-harness components: fault actions, supervisor, schedule, verifier.

Everything in-process here is tier-1 (fake clocks, fake processes, an
in-process asyncio fake server); the one test that launches a real
``repro-serve`` replica and kills it carries the ``faults`` marker.  The
bounded end-to-end chaos soak lives in ``tests/test_robustness.py``.
"""

from __future__ import annotations

import asyncio
import contextlib
import errno
import io
import json
import logging
import os
import subprocess
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import FormatError, ReproError
from repro.io import assessment_to_json
from repro.recipe.assess import Decision, RiskAssessment
from repro.service import faults as faults_module
from repro.service.cache import COMMIT_LOG_NAME, AssessmentCache
from repro.service.chaos import generate_schedule, schedule_digest
from repro.service.faults import (
    FaultInjector,
    FaultRule,
    InjectedCrash,
    clock_skew,
    injected_faults,
)
from repro.service.lease import (
    LeaseState,
    acquire_lease,
    lease_state,
    sweep_stale_leases,
    take_over,
)
from repro.service.loadgen import _ClientStats, _drive_connection
from repro.service.supervisor import (
    ReplicaSupervisor,
    RestartPolicy,
    backoff_delay,
)
from repro.service.verify import verify_run


@pytest.fixture(autouse=True)
def no_leaked_injector():
    """Every test must leave the process-wide injector uninstalled."""
    yield
    assert faults_module.current() is None, "test leaked an installed fault injector"
    faults_module.uninstall()


def _assessment(tolerance: float = 0.9) -> RiskAssessment:
    return RiskAssessment(
        decision=Decision.DISCLOSE_POINT_VALUED,
        tolerance=tolerance,
        n_items=4,
        g=3,
    )


def _canonical(assessment: RiskAssessment) -> str:
    return json.dumps(assessment_to_json(assessment), sort_keys=True)


# -- new fault actions ------------------------------------------------------


class TestNewFaultActions:
    def test_enospc_and_fsync_error_carry_errnos(self):
        injector = FaultInjector(
            [
                FaultRule(site="disk", action="enospc"),
                FaultRule(site="sync", action="fsync_error"),
            ]
        )
        with pytest.raises(OSError) as enospc:
            injector.fire("disk")
        assert enospc.value.errno == errno.ENOSPC
        with pytest.raises(OSError) as eio:
            injector.fire("sync")
        assert eio.value.errno == errno.EIO
        injector.fire("disk")  # both rules exhausted
        injector.fire("sync")

    def test_torn_write_truncates_then_crashes(self, tmp_path):
        victim = tmp_path / "artifact.tmp"
        victim.write_bytes(b"x" * 100)
        injector = FaultInjector(
            [FaultRule(site="cache.write.*", action="torn_write", truncate_at=7)]
        )
        with pytest.raises(InjectedCrash):
            injector.fire("cache.write.replace", path=victim)
        assert victim.stat().st_size == 7  # exactly the torn prefix

    def test_torn_write_clamps_to_file_size(self, tmp_path):
        victim = tmp_path / "artifact.tmp"
        victim.write_bytes(b"x" * 10)
        injector = FaultInjector(
            [FaultRule(site="s", action="torn_write", truncate_at=500)]
        )
        with pytest.raises(InjectedCrash):
            injector.fire("s", path=victim)
        assert victim.stat().st_size == 10

    def test_torn_write_without_path_is_plain_crash(self, tmp_path):
        injector = FaultInjector([FaultRule(site="s", action="torn_write")])
        with pytest.raises(InjectedCrash):
            injector.fire("s")  # no path-aware site: nothing to tear

    def test_clock_skew_accumulates_without_raising(self):
        assert clock_skew() == 0.0  # no injector installed
        rules = [
            FaultRule(site="t", action="clock_skew", skew_seconds=1.5, times=2)
        ]
        with injected_faults(rules) as injector:
            injector.fire("t")
            injector.fire("t")
            injector.fire("t")  # exhausted: no further skew
            assert injector.skew_seconds() == pytest.approx(3.0)
            assert clock_skew() == pytest.approx(3.0)
            injector.reset()
            assert clock_skew() == 0.0
        assert clock_skew() == 0.0

    def test_rule_json_roundtrip_all_fields(self):
        rule = FaultRule(
            site="cache.write.replace",
            action="torn_write",
            times=3,
            after=2,
            delay_seconds=0.5,
            exception="FileNotFoundError",
            message="boom",
            truncate_at=42,
            skew_seconds=1.25,
        )
        assert FaultRule.from_json(rule.to_json()) == rule

    def test_new_field_validation(self):
        with pytest.raises(ReproError):
            FaultRule(site="s", action="torn_write", truncate_at=-1)
        with pytest.raises(FormatError):
            FaultRule.from_json({"site": "s", "skew": 1.0})  # unknown key


# -- the commit log ---------------------------------------------------------


class TestCommitLog:
    def test_shared_put_appends_one_line_per_commit(self, tmp_path):
        cache = AssessmentCache(directory=tmp_path, shared=True)
        cache.put("aa", _assessment())
        cache.put("bb", _assessment())
        lines = (tmp_path / COMMIT_LOG_NAME).read_text().splitlines()
        assert lines == [f"aa {os.getpid()}", f"bb {os.getpid()}"]
        assert cache.stats()["disk_commits"] == 2

    def test_unshared_cache_keeps_no_log(self, tmp_path):
        AssessmentCache(directory=tmp_path).put("aa", _assessment())
        assert not (tmp_path / COMMIT_LOG_NAME).exists()

    def test_failed_write_is_not_logged(self, tmp_path):
        cache = AssessmentCache(directory=tmp_path, shared=True)
        with injected_faults([FaultRule(site="cache.write.tmp", action="enospc")]):
            cache.put("aa", _assessment())  # tolerated, not persisted
        assert cache.stats()["write_errors"] == 1
        assert not (tmp_path / COMMIT_LOG_NAME).exists()
        cache.put("aa", _assessment())  # disk healthy again
        assert (tmp_path / COMMIT_LOG_NAME).read_text().count("aa") == 1

    def test_clear_disk_removes_log(self, tmp_path):
        cache = AssessmentCache(directory=tmp_path, shared=True)
        cache.put("aa", _assessment())
        cache.clear(disk=True)
        assert not (tmp_path / COMMIT_LOG_NAME).exists()


# -- lease hardening --------------------------------------------------------


class TestLeaseHardening:
    def _stale_lease(self, path):
        lease = acquire_lease(path, pid=2**22 + 4321)  # vanishingly unlikely pid
        lease._write_payload()
        return lease

    def test_sweep_survives_vanishing_lease(self, tmp_path):
        self._stale_lease(tmp_path / "one.lease")
        self._stale_lease(tmp_path / "two.lease")
        rules = [
            FaultRule(
                site="cache.lease.sweep", exception="FileNotFoundError", times=1
            )
        ]
        with injected_faults(rules):
            # One unlink hits the TOCTOU window; the sweep keeps going.
            assert sweep_stale_leases(tmp_path, stale_after=60.0) == 1
        assert len(list(tmp_path.glob("*.lease"))) == 1
        assert sweep_stale_leases(tmp_path, stale_after=60.0) == 1
        assert not list(tmp_path.glob("*.lease"))

    def test_sweep_tolerates_transient_oserror(self, tmp_path):
        self._stale_lease(tmp_path / "one.lease")
        with injected_faults([FaultRule(site="cache.lease.sweep", times=1)]):
            assert sweep_stale_leases(tmp_path, stale_after=60.0) == 0
        # the next sweep (I/O recovered) removes it
        assert sweep_stale_leases(tmp_path, stale_after=60.0) == 1

    def test_state_oserror_reports_missing(self, tmp_path):
        path = tmp_path / "fp.lease"
        lease = acquire_lease(path)
        with injected_faults([FaultRule(site="cache.lease.state", times=1)]):
            assert lease_state(path, stale_after=60.0).kind == LeaseState.MISSING
            assert lease_state(path, stale_after=60.0).kind == LeaseState.HELD
        lease.release()

    def test_clock_skew_ages_healthy_lease_into_staleness(self, tmp_path):
        path = tmp_path / "fp.lease"
        lease = acquire_lease(path)
        rules = [
            FaultRule(
                site="cache.lease.state",
                action="clock_skew",
                skew_seconds=120.0,
                times=1,
            )
        ]
        with injected_faults(rules):
            state = lease_state(path, stale_after=60.0)
            assert state.kind == LeaseState.STALE  # aged by skew alone
            assert state.info is not None and state.info.owner_alive
        assert lease_state(path, stale_after=60.0).kind == LeaseState.HELD
        lease.release()

    def test_takeover_window_losing_the_race_is_safe(self, tmp_path):
        path = tmp_path / "fp.lease"
        self._stale_lease(path)
        rules = [
            FaultRule(
                site="cache.lease.takeover",
                exception="FileNotFoundError",
                times=1,
            )
        ]
        with injected_faults(rules):
            # The unlink "vanished": the stale file is actually still
            # there, so the exclusive re-create loses — and that is the
            # contract: losing the takeover race never corrupts state.
            assert take_over(path, stale_after=60.0) is None
            taken = take_over(path, stale_after=60.0)
        assert taken is not None and taken.pid == os.getpid()
        taken.release()

    def test_takeover_oserror_backs_off(self, tmp_path):
        path = tmp_path / "fp.lease"
        self._stale_lease(path)
        with injected_faults([FaultRule(site="cache.lease.takeover", times=1)]):
            assert take_over(path, stale_after=60.0) is None
        assert path.exists()  # untouched: no unlink without a clean window

    def test_acquire_lease_surfaces_real_failures(self, tmp_path, monkeypatch):
        real_open = os.open

        def flaky_open(path, flags, *args, **kwargs):
            if str(path).endswith(".lease"):
                raise OSError(errno.ENOSPC, "injected: disk full")
            return real_open(path, flags, *args, **kwargs)

        monkeypatch.setattr("repro.service.lease.os.open", flaky_open)
        with pytest.raises(OSError) as failure:
            acquire_lease(tmp_path / "fp.lease")
        assert failure.value.errno == errno.ENOSPC

    def test_acquire_lease_maps_bare_eexist_to_contention(
        self, tmp_path, monkeypatch
    ):
        real_open = os.open

        def eexist_open(path, flags, *args, **kwargs):
            if str(path).endswith(".lease"):
                raise OSError(errno.EEXIST, "injected: bare EEXIST")
            return real_open(path, flags, *args, **kwargs)

        monkeypatch.setattr("repro.service.lease.os.open", eexist_open)
        assert acquire_lease(tmp_path / "fp.lease") is None


# -- the supervisor (fake clock, fake processes) ----------------------------


class FakeProcess:
    """A SupervisedProcess stand-in with scriptable death behavior."""

    def __init__(self, ignores_sigterm: bool = False) -> None:
        self.returncode: int | None = None
        self.signals: list[int] = []
        self.ignores_sigterm = ignores_sigterm
        self.stdout = io.StringIO()  # stands in for the banner pipe

    def poll(self) -> int | None:
        return self.returncode

    def wait(self, timeout: float | None = None) -> int:
        if self.returncode is None:
            raise subprocess.TimeoutExpired(cmd="fake-replica", timeout=timeout or 0)
        return self.returncode

    def send_signal(self, sig: int) -> None:
        self.signals.append(sig)
        if not self.ignores_sigterm:
            self.returncode = -int(sig)

    def kill(self) -> None:
        self.returncode = -9


class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


def _fake_fleet(count=1, policy=None, ignores_sigterm=False):
    clock = FakeClock()
    launched: list[tuple[FakeProcess, int, int, int]] = []

    def launcher(index: int, incarnation: int, port_hint: int):
        process = FakeProcess(ignores_sigterm=ignores_sigterm)
        port = 7000 + index if port_hint == 0 else port_hint
        launched.append((process, index, incarnation, port_hint))
        return process, port

    supervisor = ReplicaSupervisor(
        launcher,
        count=count,
        policy=policy,
        seed=11,
        clock=clock,
        sleep=lambda seconds: None,
    )
    return supervisor, clock, launched


class TestBackoffDelay:
    def test_growth_jitter_and_cap(self):
        policy = RestartPolicy(
            initial_delay_seconds=0.1,
            max_delay_seconds=2.0,
            backoff_factor=2.0,
            jitter_fraction=0.25,
        )
        for failures in range(1, 9):
            base = min(2.0, 0.1 * 2.0 ** (failures - 1))
            delay = backoff_delay(policy, failures, seed=1, replica=0, incarnation=1)
            assert base <= delay <= base * 1.25
        # deterministic per (seed, replica, incarnation)
        assert backoff_delay(policy, 3, 1, 0, 1) == backoff_delay(policy, 3, 1, 0, 1)

    def test_policy_validation(self):
        with pytest.raises(ReproError):
            RestartPolicy(initial_delay_seconds=0.0)
        with pytest.raises(ReproError):
            RestartPolicy(backoff_factor=0.5)
        with pytest.raises(ReproError):
            RestartPolicy(jitter_fraction=1.5)
        with pytest.raises(ReproError):
            RestartPolicy(crash_loop_threshold=1)


class TestSupervisorRestarts:
    POLICY = RestartPolicy(
        initial_delay_seconds=0.1,
        max_delay_seconds=2.0,
        backoff_factor=2.0,
        jitter_fraction=0.25,
        crash_loop_window_seconds=100.0,
        crash_loop_threshold=3,
    )

    def test_restart_waits_out_backoff_and_pins_port(self):
        supervisor, clock, launched = _fake_fleet(policy=self.POLICY)
        supervisor.start()
        assert supervisor.ports == [7000]
        launched[0][0].kill()
        clock.now = 1.0
        supervisor.tick()
        state = supervisor._replicas[0]
        assert state.status == "backoff"
        expected = backoff_delay(self.POLICY, 1, 11, 0, 1)
        assert state.next_restart_at == pytest.approx(1.0 + expected)
        supervisor.tick(now=1.0 + expected - 0.001)
        assert state.status == "backoff"  # not yet
        clock.now = 1.0 + expected + 0.001
        supervisor.tick()
        assert state.status == "running" and state.incarnation == 2
        assert supervisor.metrics.counter("restarts") == 1
        # the restarted incarnation was asked to re-bind the same port
        assert launched[1][3] == 7000 and supervisor.ports == [7000]
        assert state.last_returncode == -9
        supervisor.stop(grace_seconds=0.01)

    def test_dead_incarnation_stdout_closed_on_restart(self):
        supervisor, clock, launched = _fake_fleet(policy=self.POLICY)
        supervisor.start()
        first = launched[0][0]
        first.kill()
        clock.now = 1.0
        supervisor.tick()  # death recorded, restart scheduled
        clock.now = 10.0
        supervisor.tick()  # relaunched
        assert supervisor._replicas[0].incarnation == 2
        assert first.stdout.closed
        second = launched[1][0]
        assert not second.stdout.closed
        supervisor.stop(grace_seconds=0.01)
        assert second.stdout.closed

    def test_crash_loop_detection_gives_up_with_report(self):
        supervisor, clock, launched = _fake_fleet(policy=self.POLICY)
        supervisor.start()
        now = 0.0
        for _ in range(3):
            launched[-1][0].kill()
            now += 1.0
            clock.now = now
            supervisor.tick()
            state = supervisor._replicas[0]
            if state.status == "backoff":
                now = state.next_restart_at + 0.001
                clock.now = now
                supervisor.tick()
        assert state.status == "crash_loop"
        assert supervisor.metrics.counter("crash_loops") == 1
        (report,) = supervisor.crash_loop_reports()
        assert report["deaths_in_window"] == 3 and report["threshold"] == 3
        # a crash-looped replica is not restarted again
        clock.now = now + 50.0
        supervisor.tick()
        assert supervisor._replicas[0].status == "crash_loop"
        assert len(launched) == 3
        supervisor.stop(grace_seconds=0.01)

    def test_healthy_window_resets_consecutive_failures(self):
        supervisor, clock, launched = _fake_fleet(policy=self.POLICY)
        supervisor.start()
        launched[0][0].kill()
        clock.now = 1.0
        supervisor.tick()
        clock.now = supervisor._replicas[0].next_restart_at + 0.001
        supervisor.tick()
        assert supervisor._replicas[0].consecutive_failures == 1
        clock.now += self.POLICY.crash_loop_window_seconds + 1.0
        supervisor.tick()  # a full healthy window: earlier deaths were transient
        assert supervisor._replicas[0].consecutive_failures == 0
        supervisor.stop(grace_seconds=0.01)

    def test_stop_escalates_sigterm_to_sigkill(self):
        supervisor, _clock, launched = _fake_fleet(count=2, ignores_sigterm=True)
        supervisor.start()
        supervisor.stop(grace_seconds=0.01)
        assert supervisor.metrics.counter("sigkill_escalations") == 2
        for process, *_ in launched:
            assert process.signals and process.returncode == -9
        assert all(
            state["status"] == "stopped" for state in supervisor.status()["replicas"]
        )

    def test_kill_and_terminate_report_liveness(self):
        supervisor, _clock, launched = _fake_fleet()
        supervisor.start()
        assert supervisor.kill(0) is True
        assert supervisor.kill(0) is False  # already dead
        assert supervisor.terminate(0) is False
        assert supervisor.metrics.counter("kills_delivered") == 1
        supervisor.stop(grace_seconds=0.01)

    def test_status_shape(self):
        supervisor, _clock, _launched = _fake_fleet()
        supervisor.start()
        status = supervisor.status()
        assert {"replicas", "restarts", "crash_loops", "replica_deaths"} <= set(status)
        (replica,) = status["replicas"]
        assert replica["status"] == "running" and replica["incarnation"] == 1
        supervisor.stop(grace_seconds=0.01)


# -- schedule purity --------------------------------------------------------


class TestSchedulePurity:
    @settings(max_examples=30, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=10**6),
        duration=st.floats(min_value=6.0, max_value=120.0, allow_nan=False),
        replicas=st.integers(min_value=2, max_value=5),
    )
    def test_same_inputs_same_schedule(self, seed, duration, replicas):
        first = generate_schedule(seed, duration, replicas)
        second = generate_schedule(seed, duration, replicas)
        assert first == second
        assert schedule_digest(first) == schedule_digest(second)
        kinds = [event.kind for event in first]
        assert kinds.count("kill") == 3  # the min_kills default
        assert kinds.count("term") == 1
        assert kinds.count("fault_burst") == 1
        assert kinds.count("spike") == 1
        for event in first:
            assert 0 <= event.replica < replicas
            assert 0.15 * duration <= event.at_seconds <= 0.70 * duration + 1e-9
        assert [event.at_seconds for event in first] == sorted(
            event.at_seconds for event in first
        )

    def test_different_seeds_diverge(self):
        assert schedule_digest(generate_schedule(0, 12.0, 2)) != schedule_digest(
            generate_schedule(1, 12.0, 2)
        )

    def test_burst_rules_are_serializable_and_skew_stays_sub_window(self):
        stale = 1.0
        events = generate_schedule(5, 12.0, 3, lease_stale_seconds=stale)
        (burst,) = [event for event in events if event.kind == "fault_burst"]
        assert burst.burst_rules
        for rule in burst.burst_rules:
            assert FaultRule.from_json(rule.to_json()) == rule
            if rule.action == "clock_skew":
                # skew must stay below the staleness window, or a healthy
                # owner would be wrongly taken over (a genuine recompute)
                assert 0.0 < rule.skew_seconds < stale

    def test_input_validation(self):
        with pytest.raises(ReproError):
            generate_schedule(0, 5.0, 2)
        with pytest.raises(ReproError):
            generate_schedule(0, 12.0, 1)


# -- the post-mortem verifier -----------------------------------------------


class TestVerifier:
    def _populate(self, cache_dir: Path) -> tuple[dict[str, str], dict[str, str]]:
        cache = AssessmentCache(directory=cache_dir, shared=True)
        oracle = {}
        for fingerprint, tolerance in (("aa", 0.9), ("bb", 0.5)):
            assessment = _assessment(tolerance)
            cache.put(fingerprint, assessment)
            oracle[fingerprint] = _canonical(assessment)
        return oracle, dict(oracle)

    def _verify(self, cache_dir, oracle, responses, **overrides):
        arguments = dict(
            cache_dir=cache_dir,
            responses=responses,
            response_conflicts=[],
            statuses={200: 4},
            oracle=oracle,
            metric_snapshots=[],
            kills=0,
            max_inflight=8,
            lease_stale_seconds=5.0,
        )
        arguments.update(overrides)
        return verify_run(**arguments)

    def test_clean_run_passes_every_check(self, tmp_path):
        oracle, responses = self._populate(tmp_path)
        report = self._verify(tmp_path, oracle, responses)
        assert report.ok, report.to_json()
        assert report.checks["artifacts"] == 2
        assert report.checks["commits_logged"] == 2
        assert report.checks["responses_matching_oracle"] == 2

    def test_duplicate_commit_is_a_violation(self, tmp_path):
        oracle, responses = self._populate(tmp_path)
        with open(tmp_path / COMMIT_LOG_NAME, "a") as log:
            log.write(f"aa {os.getpid()}\n")
        report = self._verify(tmp_path, oracle, responses)
        assert [v.kind for v in report.violations] == ["duplicate_compute"]

    def test_commit_without_artifact_is_a_violation(self, tmp_path):
        oracle, responses = self._populate(tmp_path)
        with open(tmp_path / COMMIT_LOG_NAME, "a") as log:
            log.write(f"zz {os.getpid()}\n")
        report = self._verify(tmp_path, oracle, responses)
        assert any(v.kind == "commit_without_artifact" for v in report.violations)

    def test_artifact_without_commit_is_benign(self, tmp_path):
        # kill -9 between the rename and the log append leaves exactly
        # this state; the artifact is real, so it is not a violation.
        oracle, responses = self._populate(tmp_path)
        log_path = tmp_path / COMMIT_LOG_NAME
        lines = log_path.read_text().splitlines()
        log_path.write_text("\n".join(lines[:1]) + "\n")
        report = self._verify(tmp_path, oracle, responses)
        assert report.ok, report.to_json()

    def test_orphan_tmp_is_swept_not_flagged(self, tmp_path):
        oracle, responses = self._populate(tmp_path)
        (tmp_path / "halfwrite.tmp").write_text("{torn")
        report = self._verify(tmp_path, oracle, responses)
        assert report.ok and report.checks["tmp_recovered"] == 1
        assert not list(tmp_path.glob("*.tmp"))

    def test_live_owner_lease_is_a_leak(self, tmp_path):
        oracle, responses = self._populate(tmp_path)
        lease = acquire_lease(tmp_path / "aa.lease")  # this pid: alive
        try:
            report = self._verify(tmp_path, oracle, responses)
            assert any(v.kind == "lease_leak" for v in report.violations)
        finally:
            lease.release()

    def test_tampered_artifact_is_caught(self, tmp_path):
        oracle, responses = self._populate(tmp_path)
        artifact = tmp_path / "aa.json"
        payload = json.loads(artifact.read_text())
        payload["assessment"]["tolerance"] = 0.123  # silent bit-flip
        artifact.write_text(json.dumps(payload))
        report = self._verify(tmp_path, oracle, responses)
        assert not report.ok
        assert any(v.kind == "artifact_diverged" for v in report.violations)

    def test_response_divergence_and_bad_statuses(self, tmp_path):
        oracle, responses = self._populate(tmp_path)
        responses["aa"] = _canonical(_assessment(0.123))
        report = self._verify(
            tmp_path, oracle, responses, statuses={200: 3, 500: 1}
        )
        kinds = {v.kind for v in report.violations}
        assert {"response_diverged", "server_error"} <= kinds

    def test_unexplained_recomputes_exceed_allowance(self, tmp_path):
        oracle, responses = self._populate(tmp_path)
        snapshots = [{"metrics": {"counters": {"computed": 50}}}]
        report = self._verify(
            tmp_path, oracle, responses, metric_snapshots=snapshots
        )
        assert any(v.kind == "unexplained_recomputes" for v in report.violations)
        # the same excess is fine once kills explain it
        report = self._verify(
            tmp_path, oracle, responses, metric_snapshots=snapshots, kills=6
        )
        assert report.ok, report.to_json()


# -- the reconnecting client ------------------------------------------------


class TestDriveConnectionReconnect:
    def test_dropped_connection_resends_same_request(self, caplog):
        received: list[bytes] = []
        connection_count = 0
        handlers_done: list[asyncio.Event] = []

        async def handler(reader, writer):
            nonlocal connection_count
            connection = connection_count
            connection_count += 1
            done = asyncio.Event()
            handlers_done.append(done)
            try:
                while True:
                    head = await reader.readuntil(b"\r\n\r\n")
                    length = 0
                    for line in head.decode("latin-1").split("\r\n"):
                        name, _, value = line.partition(":")
                        if name.strip().lower() == "content-length":
                            length = int(value.strip())
                    received.append(await reader.readexactly(length))
                    if connection == 0:
                        return  # drop the very first request unanswered
                    body = b'{"ok": true}'
                    writer.write(
                        b"HTTP/1.1 200 OK\r\nContent-Length: "
                        + str(len(body)).encode("latin-1")
                        + b"\r\n\r\n"
                        + body
                    )
                    await writer.drain()
            except (asyncio.IncompleteReadError, ConnectionError, OSError):
                pass
            finally:
                writer.close()
                with contextlib.suppress(Exception):
                    await writer.wait_closed()
                done.set()

        stats = _ClientStats()
        payloads = [b'{"n": 0}', b'{"n": 1}', b'{"n": 2}']

        async def run():
            server = await asyncio.start_server(handler, "127.0.0.1", 0)
            port = server.sockets[0].getsockname()[1]
            async with server:
                await _drive_connection(
                    "127.0.0.1",
                    port,
                    payloads,
                    iter(range(3)),
                    stop_at=time.monotonic() + 10.0,
                    max_requests=3,
                    stats=stats,
                )
                # The client has closed its end: let each stub handler
                # finish before the server (and the loop) shuts down,
                # so none is cancelled mid-close.
                await asyncio.wait_for(
                    asyncio.gather(*(done.wait() for done in handlers_done)),
                    timeout=5.0,
                )

        with caplog.at_level(logging.ERROR, logger="asyncio"):
            asyncio.run(run())
        assert [r for r in caplog.records if r.name == "asyncio"] == []
        assert stats.statuses == {200: 3}  # every request eventually answered
        assert stats.reconnects == 1 and stats.errors == 1
        # the unanswered request was re-sent verbatim on the new connection
        assert received[0] == received[1] == payloads[0]
        assert len(received) == 4

    def test_connect_refusal_backs_off_until_deadline(self):
        stats = _ClientStats()

        async def run():
            # a port nothing listens on: every connect attempt fails
            probe = await asyncio.start_server(
                lambda r, w: None, "127.0.0.1", 0
            )
            port = probe.sockets[0].getsockname()[1]
            probe.close()
            await probe.wait_closed()
            await _drive_connection(
                "127.0.0.1",
                port,
                [b"{}"],
                iter([0]),
                stop_at=time.monotonic() + 0.3,
                max_requests=1,
                stats=stats,
            )

        asyncio.run(run())
        assert stats.errors >= 1 and stats.statuses == {}


# -- against a real replica (faults job) ------------------------------------


@pytest.mark.faults
class TestKilledReplicaReconnect:
    def test_client_survives_kill_and_supervised_restart(self):
        from repro.service.loadgen import (
            ReplicaPool,
            WorkloadSpec,
            build_payloads,
            request_stream,
        )

        spec = WorkloadSpec(profiles=4, zipf_s=0.5, seed=1)
        payloads = build_payloads(spec)
        stats = _ClientStats()
        with ReplicaPool(count=1, supervise=True) as pool:
            port = pool.ports[0]

            async def run():
                async def killer():
                    await asyncio.sleep(1.0)
                    assert pool.supervisor.kill(0)

                await asyncio.gather(
                    _drive_connection(
                        "127.0.0.1",
                        port,
                        payloads,
                        request_stream(spec, 0),
                        stop_at=time.monotonic() + 6.0,
                        max_requests=10**9,
                        stats=stats,
                    ),
                    killer(),
                )

            asyncio.run(run())
            status = pool.supervisor.status()
        assert stats.reconnects >= 1  # the kill dropped a request mid-flight
        assert stats.statuses.get(200, 0) > 0
        assert status["restarts"] >= 1 and status["replica_deaths"] >= 1
        assert pool.ports == [port]  # the replacement re-bound the same port
