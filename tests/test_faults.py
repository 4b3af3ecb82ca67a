"""Fault-injection, crash-safety and concurrency tests for the service layer.

Everything here is marked ``faults`` (run separately in CI with a hard
timeout); it exercises the failure semantics documented in
``docs/service.md``: atomic disk writes, single-flight deduplication,
batch-slot retries behind the circuit breaker, and graceful server
shutdown.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import threading
import time
import urllib.error
import urllib.request
from pathlib import Path

import pytest

from repro.data import FrequencyProfile, TransactionDatabase, write_fimi
from repro.errors import FormatError, ReproError
from repro.io import (
    SCHEMA_VERSION,
    assessment_to_json,
    load_json,
    profile_to_json,
    save_json,
    save_json_atomic,
)
from repro.recipe import assess_risk
from repro.service import (
    AssessmentCache,
    AssessmentEngine,
    AssessmentParams,
    FaultInjector,
    FaultRule,
    InjectedCrash,
    injected_faults,
    load_schedule,
)
from repro.service import faults as faults_module

pytestmark = pytest.mark.faults


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


def tiny_assessment(tolerance=0.5):
    return assess_risk(
        FrequencyProfile({i: 10 * i for i in range(1, 6)}, 100), tolerance
    )


class TestFaultRule:
    def test_validation(self):
        with pytest.raises(ReproError):
            FaultRule(site="x", action="explode")
        with pytest.raises(ReproError):
            FaultRule(site="x", action="fsync_error")
        with pytest.raises(ReproError):
            FaultRule(site="x", exception="SegFault")
        with pytest.raises(ReproError):
            FaultRule(site="x", times=0)
        with pytest.raises(ReproError):
            FaultRule(site="x", after=-1)
        with pytest.raises(ReproError):
            FaultRule(site="x", action="delay", delay_seconds=-0.1)

    def test_from_json_rejects_unknown_keys(self):
        with pytest.raises(FormatError):
            FaultRule.from_json({"site": "x", "frequency": 2})
        with pytest.raises(FormatError):
            FaultRule.from_json({"action": "error"})

    def test_from_json_defaults(self):
        rule = FaultRule.from_json({"site": "cache.*"})
        assert rule.action == "error" and rule.times == 1 and rule.after == 0


class TestInjector:
    def test_deterministic_times_and_after(self):
        injector = FaultInjector(
            [FaultRule(site="s", action="error", times=2, after=1)]
        )
        injector.fire("s")  # skipped by 'after'
        with pytest.raises(OSError):
            injector.fire("s")
        with pytest.raises(OSError):
            injector.fire("s")
        injector.fire("s")  # 'times' exhausted
        assert injector.fired("s") == 2
        injector.reset()
        injector.fire("s")
        with pytest.raises(OSError):
            injector.fire("s")

    def test_pattern_matching_and_unmatched_sites(self):
        injector = FaultInjector([FaultRule(site="cache.write.*", action="error")])
        injector.fire("cache.read")  # no match, no fire
        with pytest.raises(OSError):
            injector.fire("cache.write.replace")
        assert [event.site for event in injector.events] == ["cache.write.replace"]

    def test_delay_rule_sleeps_then_continues(self):
        injector = FaultInjector(
            [FaultRule(site="s", action="delay", delay_seconds=0.05, times=1)]
        )
        start = time.perf_counter()
        injector.fire("s")
        assert time.perf_counter() - start >= 0.04
        start = time.perf_counter()
        injector.fire("s")  # exhausted: no sleep
        assert time.perf_counter() - start < 0.04

    def test_crash_rule_raises_base_exception(self):
        injector = FaultInjector([FaultRule(site="s", action="crash")])
        with pytest.raises(InjectedCrash):
            injector.fire("s")
        # and InjectedCrash is NOT an Exception: 'except Exception' can't eat it
        assert not issubclass(InjectedCrash, Exception)

    def test_install_is_exclusive(self):
        with injected_faults([FaultRule(site="s")]):
            with pytest.raises(ReproError):
                faults_module.install(FaultInjector([]))
        assert faults_module.current() is None

    def test_load_schedule_roundtrip(self, tmp_path):
        schedule = {
            "rules": [
                {"site": "engine.compute", "action": "error", "times": 3},
                {"site": "cache.*", "action": "delay", "delay_seconds": 0.01},
            ]
        }
        path = tmp_path / "faults.json"
        save_json(schedule, path)
        injector = load_schedule(path)
        assert len(injector.rules) == 2
        assert injector.rules[0].times == 3
        with pytest.raises(FormatError):
            load_schedule({"rules": "nope"})

    def test_fault_point_is_noop_without_injector(self):
        faults_module.fault_point("anything")  # must not raise


class TestCrashSafeWrites:
    def test_crash_before_replace_preserves_old_value(self, tmp_path):
        """The acceptance scenario: a write killed mid-flight can only
        yield the old value or a clean miss — never a parse error."""
        old = tiny_assessment(0.5)
        new = tiny_assessment(0.9)
        cache = AssessmentCache(directory=tmp_path)
        cache.put("aa", old)
        with injected_faults([FaultRule(site="cache.write.replace", action="crash")]):
            with pytest.raises(InjectedCrash):
                cache.put("aa", new)
        # the crashed write left an orphan temp, not a torn artifact
        assert list(tmp_path.glob("*.tmp"))
        assert load_json(tmp_path / "aa.json")  # still valid JSON
        # a post-crash process sweeps the orphan and serves the old value
        revived = AssessmentCache(directory=tmp_path)
        assert revived.stats()["invalidated"] == 1
        assert revived.get("aa") == old
        assert not list(tmp_path.glob("*.tmp"))

    def test_crash_on_fresh_write_is_clean_miss(self, tmp_path):
        cache = AssessmentCache(directory=tmp_path)
        with injected_faults([FaultRule(site="cache.write.replace", action="crash")]):
            with pytest.raises(InjectedCrash):
                cache.put("bb", tiny_assessment())
        assert not (tmp_path / "bb.json").exists()
        revived = AssessmentCache(directory=tmp_path)
        assert revived.stats()["invalidated"] == 1  # the swept orphan
        assert revived.get("bb") is None  # clean miss, no parse error
        assert revived.stats()["misses"] == 1

    def test_crash_inside_temp_file_write(self, tmp_path):
        cache = AssessmentCache(directory=tmp_path)
        with injected_faults([FaultRule(site="cache.write.tmp", action="crash")]):
            with pytest.raises(InjectedCrash):
                cache.put("cc", tiny_assessment())
        orphans = list(tmp_path.glob("*.tmp"))
        assert len(orphans) == 1 and orphans[0].read_text() == ""
        assert AssessmentCache(directory=tmp_path).recover_orphans() == 0  # init swept

    def test_artifact_is_the_canonical_encoding(self, tmp_path):
        payload = {
            "type": "cached_assessment",
            "schema_version": SCHEMA_VERSION,
            "fingerprint": "ab",
            "assessment": assessment_to_json(tiny_assessment()),
        }
        save_json_atomic(payload, tmp_path / "ab.json")
        expected = json.dumps(payload, indent=2, sort_keys=True) + "\n"
        assert (tmp_path / "ab.json").read_bytes() == expected.encode("utf-8")
        assert not list(tmp_path.glob("*.tmp"))

    def test_replace_hook_sees_the_whole_closed_temp_file(self, tmp_path):
        """What a ``torn_write`` at ``cache.write.replace`` tears is real content."""
        payload = {"type": "x", "values": list(range(50))}
        seen = {}
        save_json_atomic(
            payload,
            tmp_path / "x.json",
            fault_point=lambda stage, tmp: seen.setdefault(stage, tmp.read_bytes()),
        )
        expected = (json.dumps(payload, indent=2, sort_keys=True) + "\n").encode()
        assert seen == {"tmp": b"", "replace": expected}

    def test_write_error_is_tolerated_and_counted(self, tmp_path):
        cache = AssessmentCache(directory=tmp_path)
        report = tiny_assessment()
        with injected_faults([FaultRule(site="cache.write.tmp", action="error")]):
            cache.put("dd", report)  # must NOT raise
        assert cache.stats()["write_errors"] == 1
        assert cache.get("dd") == report  # memory tier still serves
        assert not (tmp_path / "dd.json").exists()
        assert not list(tmp_path.glob("*.tmp"))  # failed write cleaned up
        cache.put("dd", report)  # disk healthy again
        assert AssessmentCache(directory=tmp_path).get("dd") == report

    def test_transient_read_error_does_not_invalidate(self, tmp_path):
        report = tiny_assessment()
        AssessmentCache(directory=tmp_path).put("ee", report)
        cache = AssessmentCache(directory=tmp_path)
        with injected_faults([FaultRule(site="cache.read", action="error")]):
            assert cache.get("ee") is None  # a miss...
        stats = cache.stats()
        assert stats["read_errors"] == 1 and stats["invalidated"] == 0
        assert (tmp_path / "ee.json").exists()  # ...but the artifact survives
        assert cache.get("ee") == report  # and is served once I/O recovers


class TestCorruptDiskEntries:
    @pytest.mark.parametrize(
        "mutate",
        [
            lambda text: text[: len(text) // 2],  # truncated mid-JSON
            lambda text: "",  # empty: a power cut after an un-fsynced rename
            lambda text: "{not json",  # garbage
            lambda text: json.dumps({"type": "something_else"}),  # wrong type
            lambda text: json.dumps(  # wrong shape: missing assessment keys
                {
                    "type": "cached_assessment",
                    "schema_version": SCHEMA_VERSION,
                    "fingerprint": "ff",
                    "assessment": {"type": "risk_assessment", "schema_version": SCHEMA_VERSION},
                }
            ),
        ],
        ids=["truncated", "empty", "garbage", "wrong-type", "wrong-shape"],
    )
    def test_bad_entry_is_clean_miss_and_invalidated(self, tmp_path, mutate):
        AssessmentCache(directory=tmp_path).put("ff", tiny_assessment())
        path = tmp_path / "ff.json"
        path.write_text(mutate(path.read_text()))
        cache = AssessmentCache(directory=tmp_path)
        assert cache.get("ff") is None  # never a parse error
        assert cache.stats()["invalidated"] == 1
        assert not path.exists()


class TestCacheConcurrency:
    def test_contains_consults_disk_tier(self, tmp_path):
        report = tiny_assessment()
        AssessmentCache(directory=tmp_path).put("aa", report)
        fresh = AssessmentCache(directory=tmp_path)
        assert "aa" in fresh  # disk tier, before any get()
        assert "zz" not in fresh
        # eviction from memory must not hide a persisted entry
        small = AssessmentCache(capacity=1, directory=tmp_path)
        small.put("k1", report)
        small.put("k2", report)
        assert small.stats()["evictions"] == 1
        assert "k1" in small and "k2" in small

    def test_clear_resets_stats(self, tmp_path):
        cache = AssessmentCache(directory=tmp_path)
        cache.put("aa", tiny_assessment())
        cache.get("aa")
        cache.get("missing")
        assert cache.stats()["hits"] == 1 and cache.stats()["misses"] == 1
        cache.clear(disk=True)
        stats = cache.stats()
        assert stats["hits"] == 0 and stats["misses"] == 0 and stats["size"] == 0
        assert not list(tmp_path.glob("*.json"))
        assert cache.get("aa") is None

    def test_single_flight_coalesces_concurrent_computes(self):
        cache = AssessmentCache()
        report = tiny_assessment()
        calls = []
        barrier = threading.Barrier(6)
        results = []

        def compute():
            calls.append(1)
            time.sleep(0.1)
            return report

        def worker():
            barrier.wait()
            results.append(cache.get_or_compute("fp", compute))

        threads = [threading.Thread(target=worker) for _ in range(6)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert len(calls) == 1  # one compute served everyone
        assert all(value == report for value, _ in results)
        origins = sorted(origin for _, origin in results)
        assert origins.count("computed") == 1
        assert origins.count("coalesced") == 5
        assert cache.stats()["coalesced"] == 5

    def test_single_flight_leader_failure_propagates_once_each(self):
        cache = AssessmentCache()
        barrier = threading.Barrier(4)
        failures = []

        def compute():
            time.sleep(0.05)
            raise OSError("flaky backend")

        def worker():
            barrier.wait()
            try:
                cache.get_or_compute("fp", compute)
            except OSError as exc:
                failures.append(str(exc))

        threads = [threading.Thread(target=worker) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        # depending on timing, late arrivals may lead their own flight and
        # fail on their own compute; everyone must see the error either way
        assert len(failures) == 4
        # and the failure must not poison the key for later callers
        report = tiny_assessment()
        value, origin = cache.get_or_compute("fp", lambda: report)
        assert value == report and origin == "computed"

    def test_engine_deduplicates_concurrent_identical_requests(self, profile):
        engine = AssessmentEngine()
        barrier = threading.Barrier(4)
        outcomes = []

        def worker():
            barrier.wait()
            outcomes.append(engine.assess(profile, 0.1))

        threads = [threading.Thread(target=worker) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert engine.metrics.counter("computed") == 1
        assert engine.metrics.counter("cache_hits") == 3
        assessments = {id(outcome.assessment) for outcome in outcomes}
        assert len({json.dumps(o.assessment.decision.name) for o in outcomes}) == 1
        assert len(assessments) == 1  # literally the same object, shared

    def test_concurrent_get_put_clear_never_tears_the_disk_tier(self, tmp_path):
        cache = AssessmentCache(capacity=8, directory=tmp_path)
        report = tiny_assessment()
        stop = time.monotonic() + 1.0
        errors = []

        def writer(worker_id):
            try:
                while time.monotonic() < stop:
                    for key in range(6):
                        cache.put(f"fp{key}", report)
            except Exception as exc:
                errors.append(f"writer[{worker_id}]: {exc!r}")

        def reader(worker_id):
            try:
                while time.monotonic() < stop:
                    for key in range(6):
                        value = cache.get(f"fp{key}")
                        assert value is None or value == report
            except Exception as exc:
                errors.append(f"reader[{worker_id}]: {exc!r}")

        def clearer():
            try:
                while time.monotonic() < stop:
                    cache.clear(disk=True)
                    time.sleep(0.01)
            except Exception as exc:
                errors.append(f"clearer: {exc!r}")

        threads = (
            [threading.Thread(target=writer, args=(i,)) for i in range(2)]
            + [threading.Thread(target=reader, args=(i,)) for i in range(2)]
            + [threading.Thread(target=clearer)]
        )
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert errors == []
        assert not list(tmp_path.glob("*.tmp"))  # no orphans under contention
        for path in tmp_path.glob("*.json"):
            payload = load_json(path)  # every survivor parses cleanly
            assert payload["type"] == "cached_assessment"


def small_profiles(count):
    return [
        FrequencyProfile({i: 30 * i + k for i in range(1, 16)}, 1000)
        for k in range(count)
    ]


class TestPoolFaults:
    def test_serial_path_retries_transient_failures(self, profile):
        engine = AssessmentEngine()
        requests = [(profile, AssessmentParams(tolerance=0.1))]
        with injected_faults(
            [FaultRule(site="engine.compute", action="error", times=1)]
        ) as injector:
            results = engine.assess_many(requests)
        assert results[0].ok and results[0].attempts == 2
        assert engine.metrics.counter("retries") == 1
        assert injector.fired("engine.compute") == 1
        # retried output is byte-identical to an undisturbed run
        clean = AssessmentEngine().assess(profile, 0.1)
        assert results[0].assessment == clean.assessment

    def test_serial_path_does_not_retry_deterministic_errors(self):
        flat = FrequencyProfile({i: 50 for i in range(1, 6)}, 100)  # no gaps
        engine = AssessmentEngine()
        results = engine.assess_many([(flat, AssessmentParams(tolerance=0.0))])
        assert not results[0].ok
        assert "RecipeError" in results[0].error
        assert results[0].attempts == 1
        assert engine.metrics.counter("retries") == 0

    def test_serial_retries_exhausted_becomes_job_error(self, profile):
        engine = AssessmentEngine()
        with injected_faults(
            [FaultRule(site="engine.compute", action="error", times=None)]
        ):
            results = engine.assess_many(
                [(profile, AssessmentParams(tolerance=0.1))],
                retries=2,
                backoff_seconds=0.001,
            )
        assert not results[0].ok and "OSError" in results[0].error
        assert results[0].attempts == 3  # 1 try + 2 retries

    def test_batch_identical_json_under_transient_faults(self):
        """Acceptance: transient faults change nothing about the answers."""
        requests = [
            (profile, AssessmentParams(tolerance=0.05))
            for profile in small_profiles(4)
        ]
        baseline = AssessmentEngine().assess_many(requests)
        assert all(result.ok for result in baseline)
        schedule = [FaultRule(site="engine.compute", action="error", times=1)]
        with injected_faults(schedule):
            results = AssessmentEngine().assess_many(requests)
        assert all(result.ok for result in results)
        assert [r.assessment for r in results] == [r.assessment for r in baseline]

    def test_breaker_opens_across_failing_slots(self):
        """Each slot is one breaker call: a failing streak opens it mid-batch."""
        engine = AssessmentEngine()
        threshold = engine.breaker.failure_threshold
        calls = []
        original = engine._compute

        def counting(*args, **kwargs):
            calls.append(args[2])  # the fingerprint
            return original(*args, **kwargs)

        engine._compute = counting  # type: ignore[method-assign]
        requests = [
            (profile, AssessmentParams(tolerance=0.05))
            for profile in small_profiles(8)
        ]
        with injected_faults(
            [FaultRule(site="engine.compute", action="error", times=None)]
        ):
            results = engine.assess_many(requests, retries=0)
        assert not any(result.ok for result in results)
        assert all("OSError" in r.error for r in results[:threshold])
        assert all("CircuitOpenError" in r.error for r in results[threshold:])
        assert engine.breaker.state == "open"
        # the fast-failed slots never reached the compute seam
        assert calls == [r.fingerprint for r in results[:threshold]]


class TestBatchCLIFaults:
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
            json.dumps({"defaults": {"tolerance": 0.05, "runs": 3}, "datasets": datasets})
        )
        return str(manifest)

    def test_batch_identical_json_under_injected_faults(self, tmp_path, capsys):
        from repro.cli import batch_main

        manifest = self._write_manifest(tmp_path)
        schedule = tmp_path / "faults.json"
        schedule.write_text(
            json.dumps(
                {"rules": [{"site": "engine.compute", "action": "error", "times": 1}]}
            )
        )
        out_clean = tmp_path / "clean.jsonl"
        out_faulted = tmp_path / "faulted.jsonl"
        assert batch_main([manifest, "--output", str(out_clean)]) == 0
        assert (
            batch_main([manifest, "--faults", str(schedule),
                        "--output", str(out_faulted)])
            == 0
        )
        clean = [json.loads(line) for line in out_clean.read_text().splitlines()]
        faulted = [json.loads(line) for line in out_faulted.read_text().splitlines()]
        assert [record["name"] for record in faulted] == ["q0", "q1", "q2"]
        assert all("assessment" in record for record in faulted)
        assert [record["assessment"] for record in faulted] == [
            record["assessment"] for record in clean
        ]
        assert "fault injection" in capsys.readouterr().err

    def test_bad_schedule_is_a_clean_cli_error(self, tmp_path, capsys):
        from repro.cli import batch_main

        manifest = self._write_manifest(tmp_path)
        schedule = tmp_path / "faults.json"
        schedule.write_text(json.dumps({"rules": [{"site": "x", "action": "warp"}]}))
        assert batch_main([manifest, "--faults", str(schedule)]) == 1
        assert "error" in capsys.readouterr().err


class TestServerFaults:
    def test_internal_fault_returns_structured_500(self, live_server, profile):
        server = live_server
        payload = {"profile": profile_to_json(profile), "tolerance": 0.1}
        with injected_faults([FaultRule(site="engine.compute", action="error")]):
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                server.post("/assess", payload)
        with excinfo.value as error:
            assert error.code == 500
            body = json.loads(error.read())
        assert body["status"] == 500
        assert body["error"]["type"] == "OSError"
        assert "injected" in body["error"]["message"]
        assert server.engine.metrics.counter("http_500") == 1
        # the fault was transient: the same request now succeeds
        status, answer = server.post("/assess", payload)
        assert status == 200 and not answer["cached"]

    def test_graceful_shutdown_drains_inflight_requests(self, live_server, profile):
        server = live_server
        responses = []

        def slow_request():
            responses.append(
                server.post(
                    "/assess",
                    {"profile": profile_to_json(profile), "tolerance": 0.1},
                )
            )

        with injected_faults(
            [FaultRule(site="engine.compute", action="delay", delay_seconds=0.4)]
        ):
            client = threading.Thread(target=slow_request)
            client.start()
            time.sleep(0.1)  # let the request reach the engine
            assert server.inflight_requests() == 1
            drained = server.shutdown_gracefully(grace_seconds=5.0)
            client.join(timeout=5)
        assert drained
        assert responses and responses[0][0] == 200
        assert server.inflight_requests() == 0
        assert server.engine.metrics.gauge("inflight_requests") == 0

    def test_sigterm_shuts_repro_serve_down_cleanly(self, tmp_path):
        env = dict(os.environ)
        src = str(Path(__file__).resolve().parent.parent / "src")
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        with subprocess.Popen(
            [
                sys.executable,
                "-c",
                "from repro.cli import serve_main; "
                "raise SystemExit(serve_main(['--port', '0', '--grace', '2']))",
            ],
            env=env,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
        ) as process:
            banner = process.stdout.readline()
            assert "listening on http://" in banner
            port = int(banner.rsplit(":", 1)[1])
            with urllib.request.urlopen(
                f"http://127.0.0.1:{port}/healthz", timeout=5
            ) as response:
                assert json.loads(response.read())["status"] == "ok"
            process.send_signal(signal.SIGTERM)
            out, err = process.communicate(timeout=15)
        assert process.returncode == 0, (out, err)
        assert "shutting down" in out
