"""Deadline, admission-control and degradation tests for the service.

The soak suite (run in CI under a hard wall-clock ``timeout``): HTTP
deadline semantics (200 + ``"partial": true`` anytime answers, 503 when
nothing was ready), bounded admission with 429 load shedding, the
failure-streak circuit breaker, truncated-body handling, checkpointed
batches that survive a crash mid-write, and graceful SIGTERM drain with
a deadline-bearing request in flight — the behaviours documented in
``docs/robustness.md``.
"""

from __future__ import annotations

import contextlib
import json
import os
import signal
import socket
import subprocess
import sys
import threading
import time
import urllib.error
import urllib.request
from pathlib import Path

import pytest

from repro.data import FrequencyProfile, TransactionDatabase, write_fimi
from repro.errors import RecipeError, ReproError
from repro.io import profile_to_json
from repro.service import (
    AdmissionController,
    AdmissionTimeout,
    AssessmentEngine,
    CircuitBreaker,
    CircuitOpenError,
    FaultRule,
    InjectedCrash,
    QueueFullError,
    injected_faults,
)
from repro.service import faults as faults_module
from repro.service.metrics import ServiceMetrics

pytestmark = pytest.mark.soak


@pytest.fixture(autouse=True)
def no_leaked_injector():
    """Every test must leave the process-wide injector uninstalled."""
    yield
    assert faults_module.current() is None, "test leaked an installed fault injector"
    faults_module.uninstall()


@pytest.fixture
def profile():
    """A 20-item profile that drives the recipe to the alpha stage."""
    return FrequencyProfile({i: 40 * i for i in range(1, 21)}, 1000)


def _post_error(server, path, payload):
    """POST expecting an HTTP error; returns (status, body, headers)."""
    with pytest.raises(urllib.error.HTTPError) as excinfo:
        server.post(path, payload)
    with excinfo.value as error:
        return error.code, json.loads(error.read()), dict(error.headers)


class FakeClock:
    def __init__(self, now: float = 100.0):
        self.now = now

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


class TestAdmissionController:
    def test_admits_up_to_max_inflight_then_sheds(self):
        metrics = ServiceMetrics()
        controller = AdmissionController(max_inflight=2, max_queue=0, metrics=metrics)
        with contextlib.ExitStack() as stack:
            stack.enter_context(controller.admitted())
            stack.enter_context(controller.admitted())
            assert controller.inflight() == 2
            assert metrics.gauge("inflight") == 2
            with pytest.raises(QueueFullError) as excinfo:
                with controller.admitted():
                    pass
            assert excinfo.value.retry_after >= 1.0
            assert metrics.counter("shed") == 1
        assert controller.inflight() == 0
        assert metrics.gauge("inflight") == 0

    def test_wait_is_bounded_by_the_caller_deadline(self):
        metrics = ServiceMetrics()
        controller = AdmissionController(max_inflight=1, max_queue=4, metrics=metrics)
        with controller.admitted():
            start = time.monotonic()
            with pytest.raises(AdmissionTimeout):
                with controller.admitted(timeout_seconds=0.05):
                    pass
            assert time.monotonic() - start < 2.0
        # the queue gauge must not leak the timed-out waiter
        assert controller.queued() == 0
        assert metrics.gauge("queued") == 0

    def test_released_slot_wakes_a_waiter(self):
        controller = AdmissionController(max_inflight=1, max_queue=4)
        entered = threading.Event()
        release = threading.Event()

        def holder():
            with controller.admitted():
                entered.set()
                release.set()

        with controller.admitted():
            thread = threading.Thread(target=holder)
            thread.start()
            time.sleep(0.05)
            assert not entered.is_set()
            assert controller.queued() == 1
        assert release.wait(timeout=5)
        thread.join(timeout=5)
        assert controller.inflight() == 0

    def test_errors_are_repro_errors(self):
        assert issubclass(QueueFullError, ReproError)
        assert issubclass(AdmissionTimeout, ReproError)


class TestCircuitBreaker:
    def _failing(self):
        raise OSError("injected")

    def test_opens_after_failure_streak_and_fast_fails(self):
        clock = FakeClock()
        metrics = ServiceMetrics()
        breaker = CircuitBreaker(
            failure_threshold=3, cooldown_seconds=30.0, clock=clock, metrics=metrics
        )
        for _ in range(3):
            with pytest.raises(OSError):
                breaker.call(self._failing)
        assert breaker.state == "open"
        assert metrics.counter("breaker_opened") == 1
        assert metrics.gauge("breaker_state") == 1
        with pytest.raises(CircuitOpenError) as excinfo:
            breaker.call(lambda: "never runs")
        assert excinfo.value.retry_after >= 1.0
        assert metrics.counter("breaker_fast_fail") == 1

    def test_repro_errors_do_not_feed_the_streak(self):
        breaker = CircuitBreaker(failure_threshold=2)

        def rejected():
            raise RecipeError("the request's own fault")

        for _ in range(5):
            with pytest.raises(RecipeError):
                breaker.call(rejected)
        assert breaker.state == "closed"

    def test_half_open_probe_success_closes(self):
        clock = FakeClock()
        breaker = CircuitBreaker(failure_threshold=1, cooldown_seconds=10.0, clock=clock)
        with pytest.raises(OSError):
            breaker.call(self._failing)
        assert breaker.state == "open"
        clock.advance(10.0)
        assert breaker.state == "half-open"
        assert breaker.call(lambda: 42) == 42
        assert breaker.state == "closed"

    def test_half_open_probe_failure_reopens(self):
        clock = FakeClock()
        breaker = CircuitBreaker(failure_threshold=1, cooldown_seconds=10.0, clock=clock)
        with pytest.raises(OSError):
            breaker.call(self._failing)
        clock.advance(10.0)
        with pytest.raises(OSError):
            breaker.call(self._failing)
        assert breaker.state == "open"


class TestDeadlineHTTP:
    """Acceptance: anytime answers over HTTP, under deterministic faults."""

    def test_over_budget_request_answers_200_partial(self, live_server, profile):
        server = live_server
        payload = {
            "profile": profile_to_json(profile),
            "tolerance": 0.1,
            "deadline_seconds": 0.1,
        }
        # Burn the wall-clock at the third budget poll: the first two
        # guard pre-bound stages; the third sits past the O-estimate, so
        # the recipe degrades to INCONCLUSIVE instead of failing.
        with injected_faults(
            [
                FaultRule(
                    site="budget.poll",
                    action="delay",
                    delay_seconds=0.3,
                    times=1,
                    after=2,
                )
            ]
        ):
            status, answer = server.post("/assess", payload)
        assert status == 200
        assert answer["partial"] is True
        assert not answer["cached"]
        assessment = answer["assessment"]
        assert assessment["decision"] == "INCONCLUSIVE"
        partial = assessment["partial_estimate"]
        assert partial["reason"] == "deadline"
        import math

        assert math.isfinite(partial["value"])
        assert math.isfinite(partial["std_error"])
        assert server.engine.metrics.counter("partial_results") == 1

        # The partial was never cached: without the deadline the same
        # question now computes the full answer from scratch.
        status, full = server.post(
            "/assess", {"profile": profile_to_json(profile), "tolerance": 0.1}
        )
        assert status == 200
        assert full["partial"] is False
        assert not full["cached"]
        assert full["assessment"]["decision"] != "INCONCLUSIVE"

    def test_nothing_ready_yet_is_503_with_retry_after(self, live_server, profile):
        server = live_server
        payload = {
            "profile": profile_to_json(profile),
            "tolerance": 0.1,
            "deadline_seconds": 0.1,
        }
        # The very first poll guards a stage with no bounded estimate
        # yet, so exhaustion there has nothing to degrade to.
        with injected_faults(
            [
                FaultRule(
                    site="budget.poll", action="delay", delay_seconds=0.3, times=1
                )
            ]
        ):
            status, body, headers = _post_error(server, "/assess", payload)
        assert status == 503
        assert body["error"]["type"] == "BudgetExceeded"
        assert "deadline expired" in body["error"]["message"]
        assert headers["Retry-After"] == "1"

    def test_deadline_validation(self, live_server, profile):
        server = live_server
        for bad in (0, -1.0, 10**9):
            status, body, _ = _post_error(
                server,
                "/assess",
                {
                    "profile": profile_to_json(profile),
                    "tolerance": 0.1,
                    "deadline_seconds": bad,
                },
            )
            assert status == 400, bad
            assert "deadline" in body["error"]["message"]

    def test_generous_deadline_is_a_normal_answer(self, live_server, profile):
        server = live_server
        status, answer = server.post(
            "/assess",
            {
                "profile": profile_to_json(profile),
                "tolerance": 0.1,
                "deadline_seconds": 60,
            },
        )
        assert status == 200
        assert answer["partial"] is False
        # and the full answer WAS cached for the next client
        status, again = server.post(
            "/assess", {"profile": profile_to_json(profile), "tolerance": 0.1}
        )
        assert again["cached"]


class TestRequestValidationHTTP:
    @pytest.mark.parametrize(
        "overrides",
        [
            {"tolerance": -0.5},
            {"tolerance": 1.5},
            {"runs": 0},
            {"seed": -3},
            {"seed": 2**64},
        ],
        ids=[
            "negative-tolerance", "tolerance-above-one", "zero-runs",
            "negative-seed", "huge-seed",
        ],
    )
    def test_out_of_range_parameters_are_structured_400s(
        self, live_server, profile, overrides
    ):
        server = live_server
        payload = {"profile": profile_to_json(profile), "tolerance": 0.1}
        payload.update(overrides)
        status, body, _ = _post_error(server, "/assess", payload)
        assert status == 400
        assert body["status"] == 400
        assert body["error"]["type"] == "ValueError"


class TestTruncatedBody:
    def _raw_exchange(self, port, head: bytes, body: bytes, close_early: bool):
        with socket.create_connection(("127.0.0.1", port), timeout=5) as sock:
            sock.sendall(head + body)
            if close_early:
                sock.shutdown(socket.SHUT_WR)
            response = b""
            while True:
                chunk = sock.recv(65536)
                if not chunk:
                    break
                response += chunk
        status = int(response.split(b" ", 2)[1])
        payload = json.loads(response.split(b"\r\n\r\n", 1)[1])
        return status, payload

    def _head(self, length: int) -> bytes:
        return (
            b"POST /assess HTTP/1.1\r\n"
            b"Host: localhost\r\n"
            b"Content-Type: application/json\r\n"
            b"Content-Length: " + str(length).encode() + b"\r\n"
            b"Connection: close\r\n\r\n"
        )

    def test_truncated_body_is_a_400_not_a_parse_of_the_prefix(self, live_server):
        server = live_server
        body = b'{"tolerance": 0.1}'
        status, payload = self._raw_exchange(
            server.server_port, self._head(len(body) + 500), body, close_early=True
        )
        assert status == 400
        assert "truncated request body" in payload["error"]["message"]

    def test_body_delivered_in_short_reads_is_assembled(self, live_server, profile):
        server = live_server
        body = json.dumps(
            {"profile": profile_to_json(profile), "tolerance": 0.1}
        ).encode()
        split = len(body) // 2
        with socket.create_connection(
            ("127.0.0.1", server.server_port), timeout=5
        ) as sock:
            sock.sendall(self._head(len(body)) + body[:split])
            time.sleep(0.1)  # force the server to see a short first read
            sock.sendall(body[split:])
            response = b""
            while True:
                chunk = sock.recv(65536)
                if not chunk:
                    break
                response += chunk
        assert b" 200 " in response.split(b"\r\n", 1)[0]


class TestAdmissionHTTP:
    def test_queue_overflow_sheds_with_429(self, start_server, profile):
        server = start_server(max_inflight=1, max_queue=0)
        results = []

        def slow_request():
            results.append(
                server.post(
                    "/assess",
                    {"profile": profile_to_json(profile), "tolerance": 0.1},
                )
            )

        with injected_faults(
            [
                FaultRule(
                    site="engine.compute",
                    action="delay",
                    delay_seconds=0.6,
                    times=1,
                )
            ]
        ):
            holder = threading.Thread(target=slow_request)
            holder.start()
            time.sleep(0.2)  # let it occupy the only compute slot
            status, body, headers = _post_error(
                server,
                "/assess",
                {"profile": profile_to_json(profile), "tolerance": 0.2},
            )
            holder.join(timeout=10)
        assert status == 429
        assert body["error"]["type"] == "QueueFullError"
        assert int(headers["Retry-After"]) >= 1
        assert server.engine.metrics.counter("shed") == 1
        assert results and results[0][0] == 200
        assert server.engine.metrics.gauge("inflight") == 0
        assert server.engine.metrics.gauge("queued") == 0

    def test_queued_deadline_request_times_out_with_503(self, start_server, profile):
        server = start_server(max_inflight=1, max_queue=4)
        results = []

        def slow_request():
            results.append(
                server.post(
                    "/assess",
                    {"profile": profile_to_json(profile), "tolerance": 0.1},
                )
            )

        with injected_faults(
            [
                FaultRule(
                    site="engine.compute",
                    action="delay",
                    delay_seconds=0.8,
                    times=1,
                )
            ]
        ):
            holder = threading.Thread(target=slow_request)
            holder.start()
            time.sleep(0.2)
            status, body, headers = _post_error(
                server,
                "/assess",
                {
                    "profile": profile_to_json(profile),
                    "tolerance": 0.2,
                    "deadline_seconds": 0.15,
                },
            )
            holder.join(timeout=10)
        assert status == 503
        assert body["error"]["type"] == "AdmissionTimeout"
        assert "Retry-After" in headers
        assert results and results[0][0] == 200

    def test_overload_sheds_and_healthz_stays_live_at_default_limits(
        self, start_server, profile
    ):
        # 48 concurrent requests against 8 compute slots and 32 queue
        # places, all held by one slow compute: the overflow must be
        # shed with 429 instead of waiting, and a liveness probe must
        # not queue behind the held requests.
        server = start_server()
        payload = {"profile": profile_to_json(profile), "tolerance": 0.1}
        statuses = []

        def request():
            try:
                statuses.append(server.post("/assess", payload)[0])
            except urllib.error.HTTPError as error:
                with error:
                    statuses.append(error.code)

        with injected_faults(
            [
                FaultRule(
                    site="engine.compute",
                    action="delay",
                    delay_seconds=1.0,
                    times=1,
                )
            ]
        ):
            clients = [threading.Thread(target=request) for _ in range(48)]
            for client in clients:
                client.start()
            time.sleep(0.3)  # every request is now admitted, queued or shed
            start = time.perf_counter()
            with urllib.request.urlopen(f"{server.url}/healthz", timeout=5) as reply:
                assert json.loads(reply.read())["status"] == "ok"
            healthz_seconds = time.perf_counter() - start
            for client in clients:
                client.join(timeout=20)
        assert healthz_seconds < 0.5
        assert len(statuses) == 48
        assert statuses.count(429) >= 1
        assert set(statuses) <= {200, 429}
        assert server.engine.metrics.counter("shed") == statuses.count(429)
        assert server.engine.metrics.gauge("inflight") == 0


class TestBreakerHTTP:
    def test_failure_streak_opens_then_half_open_recovers(self, start_server):
        clock = FakeClock()
        metrics = ServiceMetrics()
        engine = AssessmentEngine(
            metrics=metrics,
            breaker=CircuitBreaker(
                failure_threshold=2, cooldown_seconds=30.0, clock=clock, metrics=metrics
            ),
        )
        server = start_server(engine=engine)

        def payload(k):
            # distinct questions, so nothing is served from cache
            return {
                "profile": profile_to_json(
                    FrequencyProfile({i: 40 * i + k for i in range(1, 21)}, 1000)
                ),
                "tolerance": 0.1,
            }

        with injected_faults(
            [FaultRule(site="engine.compute", action="error", times=2)]
        ):
            for k in (0, 1):
                status, _, _ = _post_error(server, "/assess", payload(k))
                assert status == 500
        assert metrics.gauge("breaker_state") == 1  # open
        status, body, headers = _post_error(server, "/assess", payload(2))
        assert status == 503
        assert body["error"]["type"] == "CircuitOpenError"
        assert int(headers["Retry-After"]) >= 1
        assert metrics.counter("breaker_fast_fail") == 1
        # cooldown elapses -> half-open probe succeeds -> closed again
        clock.advance(30.0)
        status, answer = server.post("/assess", payload(3))
        assert status == 200 and answer["partial"] is False
        assert metrics.gauge("breaker_state") == 0


class TestBatchCheckpointCrash:
    def _write_manifest(self, tmp_path):
        datasets = []
        for k in range(3):
            db = TransactionDatabase(
                [[1, 2], [2, 3], [1, 2, 3], [3], [1, 2 + k]] * 4
            )
            path = tmp_path / f"data{k}.dat"
            write_fimi(db, path)
            datasets.append({"fimi": str(path), "name": f"q{k}"})
        manifest = tmp_path / "manifest.json"
        manifest.write_text(
            json.dumps(
                {"defaults": {"tolerance": 0.05, "runs": 3}, "datasets": datasets}
            )
        )
        return str(manifest)

    def test_crash_mid_checkpoint_resumes_to_identical_output(self, tmp_path, capsys):
        from repro.cli import batch_main

        manifest = self._write_manifest(tmp_path)
        ckpt = tmp_path / "ckpt"
        reference = tmp_path / "reference.jsonl"
        assert batch_main([manifest, "--output", str(reference)]) == 0

        # Crash the process while writing the second job's checkpoint.
        with injected_faults(
            [FaultRule(site="checkpoint.write", action="crash", times=1, after=1)]
        ):
            with pytest.raises(InjectedCrash):
                batch_main(
                    [manifest, "--checkpoint", str(ckpt),
                     "--output", str(tmp_path / "crashed.jsonl")]
                )
        surviving = list(ckpt.glob("*.json"))
        assert len(surviving) == 1  # job q0 was durably checkpointed

        resumed_out = tmp_path / "resumed.jsonl"
        assert (
            batch_main(
                [manifest, "--checkpoint", str(ckpt), "--resume",
                 "--output", str(resumed_out)]
            )
            == 0
        )
        assert "resumed 1 job(s)" in capsys.readouterr().err

        want = [json.loads(line) for line in reference.read_text().splitlines()]
        got = [json.loads(line) for line in resumed_out.read_text().splitlines()]
        assert [r["name"] for r in got] == ["q0", "q1", "q2"]
        assert got[0].get("resumed") is True
        assert [r["assessment"] for r in got] == [r["assessment"] for r in want]
        assert [r["fingerprint"] for r in got] == [r["fingerprint"] for r in want]


class TestSigtermDrain:
    def test_sigterm_drains_deadline_bearing_request(
        self, tmp_path, profile, post_json
    ):
        """SIGTERM mid-request: the in-flight deadline-bearing answer is
        still delivered before the process exits 0 (satellite 3)."""
        schedule = tmp_path / "faults.json"
        schedule.write_text(
            json.dumps(
                {
                    "rules": [
                        {
                            "site": "engine.compute",
                            "action": "delay",
                            "delay_seconds": 0.8,
                            "times": 1,
                        }
                    ]
                }
            )
        )
        env = dict(os.environ)
        src = str(Path(__file__).resolve().parent.parent / "src")
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        with subprocess.Popen(
            [
                sys.executable,
                "-c",
                "from repro.cli import serve_main; "
                "raise SystemExit(serve_main(['--port', '0', '--grace', '5', "
                f"'--faults', {str(schedule)!r}]))",
            ],
            env=env,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
        ) as process:
            banner = process.stdout.readline()
            assert "listening on http://" in banner
            port = int(banner.rsplit(":", 1)[1])
            responses = []

            def request():
                responses.append(
                    post_json(
                        f"http://127.0.0.1:{port}/assess",
                        {
                            "profile": profile_to_json(profile),
                            "tolerance": 0.1,
                            "deadline_seconds": 30,
                        },
                    )
                )

            client = threading.Thread(target=request)
            client.start()
            time.sleep(0.3)  # the request is now sleeping in the engine
            process.send_signal(signal.SIGTERM)
            client.join(timeout=10)
            out, err = process.communicate(timeout=15)
        assert process.returncode == 0, (out, err)
        assert "shutting down" in out
        assert responses, "the in-flight request was dropped on SIGTERM"
        status, answer = responses[0]
        assert status == 200
        assert answer["partial"] is False
        assert answer["assessment"]["decision"] != "INCONCLUSIVE"


class TestChaosSoak:
    """A bounded end-to-end chaos run: kill -9 under live load, recover,
    and prove nothing broke (docs/robustness.md, "Chaos testing")."""

    def test_seeded_chaos_run_survives_verification(self, tmp_path):
        from repro.service.chaos import run_chaos

        result = run_chaos(
            tmp_path / "chaos",
            seed=3,
            duration_seconds=6.0,
            connections=4,
            profiles=10,
        )
        assert result.report.ok, result.report.to_json()
        assert result.delivered.kills >= 3
        assert result.record["supervisor"]["restarts"] >= result.delivered.kills
        assert result.record["client"]["requests"] > 0
        # the record replays: same seed, same schedule digest
        from repro.service.chaos import generate_schedule, schedule_digest

        assert result.record["schedule_digest"] == schedule_digest(
            generate_schedule(3, 6.0, 2)
        )
