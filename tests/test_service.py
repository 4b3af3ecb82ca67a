"""Unit and end-to-end tests for the risk-assessment service layer."""

import json
import os
import threading
import time
import urllib.error
import urllib.request

import numpy as np
import pytest

from repro.data import FrequencyProfile, TransactionDatabase, write_fimi
from repro.errors import RecipeError, ReproError
from repro.io import (
    SCHEMA_VERSION,
    assessment_from_json,
    load_json,
    profile_to_json,
    save_json_atomic,
)
from repro.recipe import assess_risk
from repro.service import (
    AssessmentCache,
    AssessmentEngine,
    AssessmentParams,
    ComputeBudget,
    ServiceMetrics,
    derived_seed,
    profile_fingerprint,
    request_fingerprint,
)
from repro.service.cache import COMMIT_LOG_NAME


@pytest.fixture
def profile():
    """A 20-item profile that drives the recipe to the alpha stage."""
    return FrequencyProfile({i: 40 * i for i in range(1, 21)}, 1000)


def small_profiles(count):
    """Distinct small profiles for batch tests."""
    return [
        FrequencyProfile({i: 30 * i + k for i in range(1, 16)}, 1000)
        for k in range(count)
    ]


class TestFingerprint:
    def test_item_order_does_not_matter(self):
        counts = {i: 7 * i for i in range(1, 30)}
        forward = FrequencyProfile(dict(sorted(counts.items())), 500)
        backward = FrequencyProfile(dict(sorted(counts.items(), reverse=True)), 500)
        assert profile_fingerprint(forward) == profile_fingerprint(backward)

    def test_counts_matter(self):
        a = FrequencyProfile({1: 5, 2: 9}, 20)
        b = FrequencyProfile({1: 5, 2: 8}, 20)
        assert profile_fingerprint(a) != profile_fingerprint(b)

    def test_n_transactions_matters(self):
        a = FrequencyProfile({1: 5, 2: 9}, 20)
        b = FrequencyProfile({1: 5, 2: 9}, 40)
        assert profile_fingerprint(a) != profile_fingerprint(b)

    def test_int_and_str_items_distinguished(self):
        a = FrequencyProfile({1: 5}, 20)
        b = FrequencyProfile({"1": 5}, 20)
        assert profile_fingerprint(a) != profile_fingerprint(b)

    def test_params_change_request_fingerprint(self, profile):
        base = request_fingerprint(profile, AssessmentParams(tolerance=0.1))
        assert base == request_fingerprint(profile, AssessmentParams(tolerance=0.1))
        assert base != request_fingerprint(profile, AssessmentParams(tolerance=0.2))
        assert base != request_fingerprint(
            profile, AssessmentParams(tolerance=0.1, delta=0.01)
        )
        assert base != request_fingerprint(
            profile, AssessmentParams(tolerance=0.1, runs=7)
        )
        assert base != request_fingerprint(
            profile, AssessmentParams(tolerance=0.1, seed=1)
        )
        assert base != request_fingerprint(
            profile, AssessmentParams(tolerance=0.1, interest=frozenset({1, 2}))
        )

    def test_interest_is_order_independent(self, profile):
        a = AssessmentParams(tolerance=0.1, interest=frozenset([1, 2, 3]))
        b = AssessmentParams(tolerance=0.1, interest=frozenset([3, 2, 1]))
        assert request_fingerprint(profile, a) == request_fingerprint(profile, b)

    def test_params_validated(self):
        with pytest.raises(ValueError):
            AssessmentParams(tolerance=1.5)
        with pytest.raises(ValueError):
            AssessmentParams(tolerance=0.1, runs=0)
        with pytest.raises(ValueError):
            AssessmentParams(tolerance=0.1, interest=frozenset())

    def test_derived_seed_deterministic_and_bounded(self, profile):
        fp = request_fingerprint(profile, AssessmentParams(tolerance=0.1))
        assert derived_seed(fp) == derived_seed(fp)
        assert 0 <= derived_seed(fp) < 2**63


class TestCache:
    def assessment(self, tolerance=0.5):
        return assess_risk(
            FrequencyProfile({i: 10 * i for i in range(1, 6)}, 100), tolerance
        )

    def test_hit_and_miss_counters(self):
        cache = AssessmentCache(capacity=4)
        assert cache.get("fp1") is None
        cache.put("fp1", self.assessment())
        assert cache.get("fp1") == self.assessment()
        stats = cache.stats()
        assert stats["hits"] == 1 and stats["misses"] == 1
        assert stats["memory_hits"] == 1 and stats["size"] == 1

    def test_lru_eviction(self):
        cache = AssessmentCache(capacity=2)
        report = self.assessment()
        cache.put("a", report)
        cache.put("b", report)
        assert cache.get("a") is not None  # refresh "a"; "b" is now LRU
        cache.put("c", report)
        assert "b" not in cache
        assert cache.get("b") is None
        assert cache.get("a") is not None and cache.get("c") is not None
        assert cache.stats()["evictions"] == 1

    def _blocked_leader(self, cache, budget=None):
        """Start a ``get_or_compute("fp")`` whose compute blocks until released."""
        entered, release = threading.Event(), threading.Event()

        def slow():
            entered.set()
            release.wait(5.0)
            return self.assessment(0.3)

        leader = threading.Thread(
            target=cache.get_or_compute, args=("fp", slow, budget)
        )
        leader.start()
        assert entered.wait(5.0)
        return leader, release

    def test_budget_without_deadline_still_skips_the_flight(self):
        cache = AssessmentCache()
        leader, release = self._blocked_leader(
            cache, budget=ComputeBudget(max_sweeps=10**6)
        )
        try:
            mine = self.assessment(0.7)
            value, origin = cache.get_or_compute("fp", lambda: mine)
        finally:
            release.set()
            leader.join(10.0)
        assert not leader.is_alive()
        assert origin == "computed" and value is mine
        assert cache.stats()["coalesced"] == 0

    def test_get_never_joins_an_inflight_compute(self):
        cache = AssessmentCache()
        leader, release = self._blocked_leader(cache)
        try:
            misses = cache.stats()["misses"]
            start = time.perf_counter()
            assert cache.get("fp") is None
            elapsed = time.perf_counter() - start
            assert cache.stats()["misses"] == misses + 1
        finally:
            release.set()
            leader.join(10.0)
        assert not leader.is_alive()
        assert elapsed < 1.0, f"get waited {elapsed:.2f}s on an in-flight compute"

    def test_disk_persistence_across_instances(self, tmp_path):
        report = self.assessment()
        AssessmentCache(directory=tmp_path).put("deadbeef", report)
        fresh = AssessmentCache(directory=tmp_path)
        assert fresh.get("deadbeef") == report
        assert fresh.stats()["disk_hits"] == 1

    def test_schema_version_invalidates_disk_entries(self, tmp_path):
        report = self.assessment()
        cache = AssessmentCache(directory=tmp_path)
        cache.put("cafe", report)
        path = tmp_path / "cafe.json"
        payload = load_json(path)
        payload["schema_version"] = SCHEMA_VERSION + 1
        save_json_atomic(payload, path)
        fresh = AssessmentCache(directory=tmp_path)
        assert fresh.get("cafe") is None
        assert not path.exists()  # stale artifact removed
        assert fresh.stats()["invalidated"] == 1

    def test_corrupt_disk_entry_is_discarded(self, tmp_path):
        cache = AssessmentCache(directory=tmp_path)
        (tmp_path / "bad.json").write_text("{not json")
        assert cache.get("bad") is None
        assert not (tmp_path / "bad.json").exists()

    def test_capacity_validated(self):
        with pytest.raises(ReproError):
            AssessmentCache(capacity=0)


class TestEngine:
    def test_warm_hit(self, profile):
        engine = AssessmentEngine()
        cold = engine.assess(profile, 0.1)
        warm = engine.assess(profile, 0.1)
        assert not cold.cached and warm.cached
        assert warm.assessment == cold.assessment
        assert warm.fingerprint == cold.fingerprint
        assert engine.metrics.counter("cache_hits") == 1

    def test_matches_one_shot_recipe(self, profile):
        engine = AssessmentEngine()
        outcome = engine.assess(profile, 0.1, runs=5)
        rng = np.random.default_rng(derived_seed(outcome.fingerprint))
        assert outcome.assessment == assess_risk(profile, 0.1, runs=5, rng=rng)

    def test_accepts_transaction_database(self):
        db = TransactionDatabase([[1, 2], [2, 3], [1, 2, 3], [3], [1]] * 4)
        engine = AssessmentEngine()
        outcome = engine.assess(db, 0.9)
        assert outcome.assessment == assess_risk(db, 0.9)
        # the profile collapse fingerprints identically to the database
        assert engine.assess(db.to_profile(), 0.9).cached

    def test_interest_recorded_and_cached_separately(self, profile):
        engine = AssessmentEngine()
        plain = engine.assess(profile, 0.1)
        subset = engine.assess(profile, 0.1, interest=[1, 2, 3])
        assert not subset.cached
        assert subset.assessment.interest == frozenset({1, 2, 3})
        assert plain.assessment.interest is None

    def test_sweep_tolerance_shares_space(self, profile):
        engine = AssessmentEngine()
        outcomes = engine.sweep_tolerance(profile, [0.05, 0.1, 0.2, 0.4])
        assert len(outcomes) == 4
        # one space construction served the whole sweep
        assert engine.metrics.snapshot()["timers"]["stage:space"]["count"] == 1
        for outcome, tolerance in zip(outcomes, [0.05, 0.1, 0.2, 0.4]):
            fresh = AssessmentEngine().assess(profile, tolerance)
            assert outcome.assessment == fresh.assessment

    def test_single_group_without_delta_raises(self):
        flat = FrequencyProfile({i: 50 for i in range(1, 6)}, 100)
        with pytest.raises(RecipeError, match="delta"):
            AssessmentEngine().assess(flat, 0.0)


class TestBatch:
    @pytest.mark.parametrize("bad", [1, 3])
    def test_one_bad_job_does_not_kill_the_batch(self, bad):
        flat = FrequencyProfile({i: 50 for i in range(1, 6)}, 100)  # no gaps
        requests = [
            (profile, AssessmentParams(tolerance=0.05))
            for profile in small_profiles(3)
        ]
        # RecipeError inside the job, mid-batch or in the last slot
        requests.insert(bad, (flat, AssessmentParams(tolerance=0.0)))
        results = AssessmentEngine().assess_many(requests)
        assert [r.ok for r in results] == [i != bad for i in range(4)]
        assert "RecipeError" in results[bad].error
        assert [r.index for r in results] == [0, 1, 2, 3]

    def test_batch_serves_cache_hits(self, profile):
        engine = AssessmentEngine()
        engine.assess(profile, 0.1)
        results = engine.assess_many([(profile, AssessmentParams(tolerance=0.1))])
        assert results[0].cached and results[0].ok


class TestOneAnswerPath:
    """HTTP requests and batch slots share one cache/compute decision."""

    def test_deadline_request_does_not_wait_on_an_inflight_leader(self, profile):
        engine = AssessmentEngine()
        params = AssessmentParams(tolerance=0.1)
        original = engine._compute
        entered, release = threading.Event(), threading.Event()

        def blocking(profile, params, fingerprint, profile_hash, budget=None):
            if budget is None:  # only the unbudgeted leader blocks
                entered.set()
                release.wait(3.0)
            return original(profile, params, fingerprint, profile_hash, budget=budget)

        engine._compute = blocking  # type: ignore[method-assign]
        leader = threading.Thread(target=engine.assess_request, args=(profile, params))
        leader.start()
        try:
            assert entered.wait(5.0)
            start = time.perf_counter()
            outcome = engine.assess_request(
                profile, params, budget=ComputeBudget(seconds=0.3)
            )
            elapsed = time.perf_counter() - start
        finally:
            release.set()
            leader.join(10.0)
        assert elapsed < 1.0, f"waited {elapsed:.2f}s on another request's flight"
        assert not outcome.cached

    def test_deadline_batch_slot_takes_a_shared_lease(self, tmp_path, profile):
        engine = AssessmentEngine(
            cache=AssessmentCache(directory=tmp_path, shared=True)
        )
        [result] = engine.assess_many(
            [(profile, AssessmentParams(tolerance=0.1))], deadline_seconds=30
        )
        assert result.ok and not result.cached
        assert engine.cache.stats()["lease_acquired"] == 1
        log = (tmp_path / COMMIT_LOG_NAME).read_text().splitlines()
        assert log == [f"{result.fingerprint} {os.getpid()}"]


class TestMetrics:
    def test_counters_and_timers(self):
        metrics = ServiceMetrics()
        metrics.increment("requests")
        metrics.increment("requests", 2)
        with metrics.timer("stage"):
            pass
        snap = metrics.snapshot()
        assert snap["counters"]["requests"] == 3
        assert snap["timers"]["stage"]["count"] == 1
        assert snap["timers"]["stage"]["total_seconds"] >= 0
        metrics.reset()
        assert metrics.snapshot() == {
            "counters": {},
            "gauges": {},
            "timers": {},
            "histograms": {},
        }

    def test_gauges(self):
        metrics = ServiceMetrics()
        assert metrics.gauge("inflight") == 0
        metrics.set_gauge("inflight", 3)
        assert metrics.gauge("inflight") == 3
        assert metrics.snapshot()["gauges"] == {"inflight": 3}
        metrics.set_gauge("inflight", 0)
        assert metrics.gauge("inflight") == 0


class TestServer:
    def test_assess_roundtrip_and_cache(self, live_server, profile):
        payload = {"profile": profile_to_json(profile), "tolerance": 0.1}
        status, first = live_server.post("/assess", payload)
        assert status == 200
        assert not first["cached"]
        restored = assessment_from_json(first["assessment"])
        assert restored == AssessmentEngine().assess(profile, 0.1).assessment

        status, second = live_server.post("/assess", payload)
        assert status == 200
        assert second["cached"]
        assert second["assessment"] == first["assessment"]
        assert second["fingerprint"] == first["fingerprint"]

    def test_healthz_and_metrics(self, live_server):
        with urllib.request.urlopen(f"{live_server.url}/healthz") as response:
            assert json.loads(response.read())["status"] == "ok"
        with urllib.request.urlopen(f"{live_server.url}/metrics") as response:
            body = json.loads(response.read())
        assert "counters" in body["metrics"]
        assert body["cache"]["capacity"] >= 1

    def test_bad_request_is_400(self, live_server, profile):
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            live_server.post("/assess", {"tolerance": 0.1})
        with excinfo.value as error:
            assert error.code == 400
            body = json.loads(error.read())
        assert body["status"] == 400
        assert body["error"]["type"] == "ValueError"
        assert "profile" in body["error"]["message"]
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            live_server.post(
                "/assess",
                {"profile": profile_to_json(profile), "tolerance": 7.0},
            )
        with excinfo.value as error:
            assert error.code == 400

    def test_duplicate_item_is_400(self, live_server, profile):
        payload = profile_to_json(profile)
        payload["counts"].append(payload["counts"][0])
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            live_server.post("/assess", {"profile": payload, "tolerance": 0.1})
        with excinfo.value as error:
            assert error.code == 400
            body = json.loads(error.read())
        assert body["error"]["type"] == "FormatError"
        assert "duplicate" in body["error"]["message"]

    def test_non_integral_count_is_400(self, live_server, profile):
        payload = profile_to_json(profile)
        payload["counts"][0][1] = 3.7
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            live_server.post("/assess", {"profile": payload, "tolerance": 0.1})
        with excinfo.value as error:
            assert error.code == 400
            body = json.loads(error.read())
        assert body["error"]["type"] == "FormatError"
        assert "JSON integer" in body["error"]["message"]

    def test_unknown_path_is_404(self, live_server):
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(f"{live_server.url}/nope")
        with excinfo.value as error:
            assert error.code == 404
            body = json.loads(error.read())
        assert body["error"]["type"] == "NotFound"


class TestBatchCLI:
    def write_manifest(self, tmp_path, datasets, defaults=None):
        manifest = {"defaults": defaults or {"tolerance": 0.1}, "datasets": datasets}
        path = tmp_path / "manifest.json"
        path.write_text(json.dumps(manifest))
        return str(path)

    def test_manifest_batch(self, tmp_path, capsys):
        from repro.cli import batch_main

        db = TransactionDatabase([[1, 2], [2, 3], [1, 2, 3], [3], [1]] * 4)
        fimi = tmp_path / "tiny.dat"
        write_fimi(db, fimi)
        manifest = self.write_manifest(
            tmp_path,
            [
                {"benchmark": "chess", "name": "chess-q1", "runs": 3},
                {"fimi": str(fimi), "tolerance": 0.9},
            ],
        )
        output = tmp_path / "results.jsonl"
        assert batch_main([manifest, "--output", str(output)]) == 0
        records = [json.loads(line) for line in output.read_text().splitlines()]
        assert [record["name"] for record in records] == ["chess-q1", str(fimi)]
        assert all("assessment" in record for record in records)
        decisions = [record["assessment"]["decision"] for record in records]
        assert decisions[1] == "DISCLOSE_POINT_VALUED"

    def test_bad_entry_reported_not_fatal(self, tmp_path, capsys):
        from repro.cli import batch_main

        manifest = self.write_manifest(
            tmp_path,
            [
                {"benchmark": "chess"},
                {"fimi": "/nonexistent/file.dat"},
                {"benchmark": "mushroom", "tolerance": 9.0},
            ],
        )
        assert batch_main([manifest]) == 0
        records = [
            json.loads(line) for line in capsys.readouterr().out.splitlines()
        ]
        assert "assessment" in records[0]
        assert "FileNotFoundError" in records[1]["error"]
        assert "ValueError" in records[2]["error"]

    def test_all_failed_exits_nonzero(self, tmp_path, capsys):
        from repro.cli import batch_main

        manifest = self.write_manifest(tmp_path, [{"fimi": "/nonexistent.dat"}])
        assert batch_main([manifest]) == 1

    def test_malformed_manifest_is_fatal(self, tmp_path, capsys):
        from repro.cli import batch_main

        path = tmp_path / "manifest.json"
        path.write_text(json.dumps({"datasets": "nope"}))
        assert batch_main([str(path)]) == 1
        assert "error" in capsys.readouterr().err

    def test_cache_dir_warm_start(self, tmp_path, capsys):
        from repro.cli import batch_main

        manifest = self.write_manifest(tmp_path, [{"benchmark": "chess", "runs": 3}])
        cache_dir = str(tmp_path / "cache")
        assert batch_main([manifest, "--cache-dir", cache_dir]) == 0
        first = json.loads(capsys.readouterr().out.splitlines()[0])
        assert batch_main([manifest, "--cache-dir", cache_dir]) == 0
        second = json.loads(capsys.readouterr().out.splitlines()[0])
        assert not first["cached"] and second["cached"]
        assert first["assessment"] == second["assessment"]


class TestVersionFlags:
    @pytest.mark.parametrize("entry", ["main", "batch_main", "serve_main"])
    def test_version_flag(self, entry, capsys):
        import repro.cli as cli

        with pytest.raises(SystemExit) as excinfo:
            getattr(cli, entry)(["--version"])
        assert excinfo.value.code == 0
        assert "1." in capsys.readouterr().out

    def test_serve_parser_defaults(self):
        from repro.cli import build_serve_parser

        args = build_serve_parser().parse_args([])
        assert args.host == "127.0.0.1"
        assert args.port == 8080
        assert args.capacity == 256


class TestProtectSkipNote:
    def test_note_printed_when_recipe_discloses(self, capsys):
        from repro.cli import main

        # tolerance 1.0 always discloses at the point-valued stage
        code = main(["--benchmark", "chess", "--tolerance", "1.0", "--protect", "bin"])
        assert code == 0
        assert "protection skipped" in capsys.readouterr().out


class TestCrackEndpoint:
    STAIRCASE = [[0], [0, 1], [0, 1, 2], [0, 1, 2, 3]]

    def test_open_stream_close(self, live_server):
        status, reply = live_server.post(
            "/crack/step",
            {"instance": {"adjacency": self.STAIRCASE, "truth": [0, 1, 2, 3]}},
        )
        assert status == 200
        assert reply["summary"]["forced"] == 4
        assert reply["summary"]["certified_cracks"] == 4
        forced = [e for e in reply["events"] if e["event"] == "forced"]
        assert [e["anon"] for e in forced] == [0, 1, 2, 3]
        assert all(e["crack"] for e in forced)

        session = reply["session"]
        status, reply = live_server.post(
            "/crack/step",
            {
                "session": session,
                "observations": [
                    {"kind": "confirm", "item": 0, "anon": 0},
                    {"kind": "close"},
                ],
            },
        )
        assert status == 200
        assert reply["closed"]

        with pytest.raises(urllib.error.HTTPError) as excinfo:
            live_server.post("/crack/step", {"session": session})
        with excinfo.value as error:
            assert error.code == 422
            body = json.loads(error.read())
        assert body["error"]["type"] == "SolverError"

    def test_contradiction_turns_infeasible(self, live_server):
        status, reply = live_server.post(
            "/crack/step",
            {"instance": {"adjacency": self.STAIRCASE}},
        )
        session = reply["session"]
        status, reply = live_server.post(
            "/crack/step",
            {
                "session": session,
                "observations": [{"kind": "confirm", "item": 1, "anon": 0}],
            },
        )
        assert status == 200
        assert reply["summary"]["infeasible"]
        assert [e["event"] for e in reply["events"]] == ["infeasible"]

    def test_malformed_requests(self, live_server):
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            live_server.post("/crack/step", {"instance": {"adjacency": []}})
        with excinfo.value as error:
            assert error.code == 422
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            live_server.post("/crack/step", {})
        with excinfo.value as error:
            assert error.code == 422


class TestAssessValidation:
    """``POST /assess`` answers a malformed request 400, never raises."""

    @staticmethod
    def _dispatch(payload):
        from repro.service import ServiceCore

        core = ServiceCore(AssessmentEngine())
        return core.dispatch("POST", "/assess", json.dumps(payload).encode())

    @pytest.mark.parametrize("raw", [5, None, "x", [1, 2]], ids=repr)
    def test_non_object_profile_is_400(self, raw):
        response = self._dispatch({"profile": raw, "tolerance": 0.1})
        assert response.status == 400
        assert response.payload["error"]["type"] == "FormatError"

    @pytest.mark.parametrize(
        "field",
        [
            {"seed": 1.5},
            {"seed": 1.0},
            {"seed": True},
            {"seed": "1"},
            {"runs": 2.9},
            {"runs": 2.0},
            {"runs": False},
            {"runs": "2"},
        ],
        ids=repr,
    )
    def test_non_integer_runs_or_seed_is_400(self, profile, field):
        payload = {"profile": profile_to_json(profile), "tolerance": 0.1, **field}
        response = self._dispatch(payload)
        assert response.status == 400
        assert "must be a JSON integer" in response.payload["error"]["message"]

    def test_non_integer_n_transactions_is_400(self, profile):
        wire = profile_to_json(profile)
        wire["n_transactions"] = 1000.5
        response = self._dispatch({"profile": wire, "tolerance": 0.1})
        assert response.status == 400

    def test_integer_runs_and_seed_accepted(self, profile):
        payload = {
            "profile": profile_to_json(profile),
            "tolerance": 0.1,
            "runs": 2,
            "seed": 3,
        }
        assert self._dispatch(payload).status == 200


class TestAttackSummaryParity:
    def test_engine_attack_matches_recipe(self, profile):
        from repro.recipe import assess_risk

        outcome = AssessmentEngine().assess(profile, 0.01)
        direct = assess_risk(profile, 0.01)
        assert outcome.assessment.attack == direct.attack
        assert outcome.assessment.attack is not None


class TestCrackSessionConcurrency:
    """Regression: CC001 found ``step`` touching solvers outside any lock."""

    ADJACENCY = [[0, 1], [0, 1], [2, 3], [2, 3]]

    def test_parallel_steps_on_one_session_serialize(self):
        from repro.service.crack import CrackSessionStore

        store = CrackSessionStore()
        reply = store.step({"instance": {"adjacency": self.ADJACENCY}})
        session = reply["session"]

        errors = []
        steps_seen = []
        barrier = threading.Barrier(8)

        def hammer():
            barrier.wait()
            for _ in range(25):
                try:
                    result = store.step(
                        {
                            "session": session,
                            "observations": [
                                {"kind": "confirm", "item": 0, "anon": 0}
                            ],
                        }
                    )
                    # The summary must always be internally consistent:
                    # a torn solver shows up as a summary read mid-step.
                    summary = result["summary"]
                    assert not summary["infeasible"]
                    steps_seen.append(summary["step"])
                except Exception as exc:  # pragma: no cover - the regression
                    errors.append(exc)

        threads = [threading.Thread(target=hammer) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors
        # Steps serialized: 8 threads x 25 ingests, every one counted.
        assert max(steps_seen) == 8 * 25

    def test_parallel_opens_get_distinct_sessions(self):
        from repro.service.crack import CrackSessionStore

        store = CrackSessionStore()
        sessions = []
        lock = threading.Lock()
        barrier = threading.Barrier(8)

        def open_one():
            barrier.wait()
            reply = store.step({"instance": {"adjacency": self.ADJACENCY}})
            with lock:
                sessions.append(reply["session"])

        threads = [threading.Thread(target=open_one) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert len(set(sessions)) == 8


class TestLeaseConcurrency:
    """Regression: CC001 found heartbeat/release racing on lease state."""

    def test_concurrent_heartbeat_and_release(self, tmp_path):
        from repro.service.lease import acquire_lease

        for _ in range(10):
            path = tmp_path / "x.lease"
            lease = acquire_lease(path)
            assert lease is not None
            lease.start_heartbeat(0.001)
            lease.heartbeat()
            release_errors = []

            def do_release():
                try:
                    lease.release()
                except Exception as exc:  # pragma: no cover - the regression
                    release_errors.append(exc)

            thread = threading.Thread(target=do_release)
            thread.start()
            thread.join()
            assert not release_errors
            assert lease.released
            assert not path.exists()
            path.unlink(missing_ok=True)

    def test_heartbeat_after_release_raises_cleanly(self, tmp_path):
        from repro.service.lease import acquire_lease

        lease = acquire_lease(tmp_path / "y.lease")
        lease.release()
        with pytest.raises(ReproError):
            lease.heartbeat()

    def test_stop_heartbeat_joins_daemon(self, tmp_path):
        from repro.service.lease import acquire_lease

        lease = acquire_lease(tmp_path / "z.lease")
        lease.start_heartbeat(0.001)
        time.sleep(0.02)
        lease.stop_heartbeat()
        beats = lease.heartbeat()  # still acquirable after stop
        assert beats >= 1
        lease.release()

    def test_double_start_is_idempotent(self, tmp_path):
        from repro.service.lease import acquire_lease

        lease = acquire_lease(tmp_path / "w.lease")
        lease.start_heartbeat(0.001)
        lease.start_heartbeat(0.001)  # second call must not spawn again
        lease.release()
