"""The one Assess-Risk recipe and its stages provider.

``assess_risk`` is the only implementation of Figure 8; the service
engine runs it with a memoizing, timing :class:`RecipeStages` subclass.
The digests below were recorded before the engine's own copy of the
recipe was folded into ``assess_risk``: both routes must keep serving
byte-identical JSON for every decision.
"""

from __future__ import annotations

import hashlib
import json

import numpy as np
import pytest

from repro.budget import ComputeBudget
from repro.data import FrequencyProfile, TransactionDatabase
from repro.io import assessment_to_json
from repro.recipe.assess import Decision, RecipeStages, assess_risk
from repro.service import AssessmentCache, AssessmentEngine


def _release() -> FrequencyProfile:
    """60 items in 12 frequency groups: g/n = 0.2, O-estimate ~0.089."""
    return FrequencyProfile({i: 10 + (i % 12) * 20 for i in range(60)}, 1000)


def _database() -> TransactionDatabase:
    """A small transaction database whose recipe reaches the alpha stage."""
    return TransactionDatabase(
        [[j for j in range(14) if (i * (j + 3) + j) % (j + 4) < 2] or [0] for i in range(80)]
    )


def _expiring_budget(at_poll: int) -> ComputeBudget:
    """A budget whose deadline passes at its *at_poll*-th poll."""
    now = [0.0]
    polls = [0]

    def hook(site: str) -> None:
        polls[0] += 1
        if polls[0] == at_poll:
            now[0] += 100.0

    return ComputeBudget(seconds=50.0, clock=lambda: now[0], fault_hook=hook)


#: name -> (source factory, tolerance, keyword arguments).  The engine
#: polls once more than a direct call before the O-estimate (at entry),
#: so its budget expires one poll later to land past the same rung.
CASES = {
    "point-valued": (_release, 0.25, {}),
    "interval": (_release, 0.1, {}),
    "alpha": (_release, 0.05, {"runs": 3}),
    "interest": (_release, 0.05, {"runs": 3, "interest": range(10)}),
    "interest-odd": (_release, 0.05, {"runs": 3, "interest": range(1, 60, 2)}),
    "interest-tail": (_release, 0.05, {"runs": 3, "interest": range(36, 60)}),
    "inconclusive": (_release, 0.05, {"runs": 3, "budget": 2}),
    "database": (_database, 0.05, {"runs": 3}),
}

#: SHA-256 of the sorted-key JSON of each assessment, per route.
DIGESTS = {
    "recipe": {
        "point-valued": (
            "fc37882999ae676280672f8d74bb202d"
            "d588a4dbb9dcd9f751ef8a4f06509afc"
        ),
        "interval": (
            "4779ac4cb69cafb8c0321a0679fbbdd2"
            "901b009b5d038562e9241a2b4469fe07"
        ),
        "alpha": (
            "76b7fac972f56f10f0201f12aabce0f2"
            "c527f8ccca0be7171f3126000130c75a"
        ),
        "interest": (
            "bed38e683511b3e6cae370a238061ac3"
            "5475f917726fad793e8c093b86f1efc6"
        ),
        "interest-odd": (
            "6010a74fc97aa99f56323dc8ac7bc1eb"
            "f5dee736ecc9684a96ff6151ecdf22d6"
        ),
        "interest-tail": (
            "ec2ad906c7269708db22dfd6db3d2caf"
            "925f15a3cc18d3d3d54c1075d899b154"
        ),
        "inconclusive": (
            "482bbabcc30b77e3e7e473ea189080aa"
            "0d8f5d07b011c9b1a8e041213abd5ead"
        ),
        "database": (
            "82c9b04c4bbe7432a288f709864087a7"
            "c3eaae912fdc44b41bd55ace0743492d"
        ),
    },
    "engine": {
        "point-valued": (
            "fc37882999ae676280672f8d74bb202d"
            "d588a4dbb9dcd9f751ef8a4f06509afc"
        ),
        "interval": (
            "4779ac4cb69cafb8c0321a0679fbbdd2"
            "901b009b5d038562e9241a2b4469fe07"
        ),
        "alpha": (
            "ca3745699684b722ca12e1d8c3c5c2a9"
            "9b985d010c54a4aa24545514fa162539"
        ),
        "interest": (
            "9ff92d07c1db894169a1d440d722501c"
            "04a5c45dafe175c48bcfcf0c6f14d1f2"
        ),
        "interest-odd": (
            "10934112381f1d3e1670629c69f54849"
            "589968ccbdaaa007ae34bf7d4e056076"
        ),
        "interest-tail": (
            "faa24a90b19014e18b9f7231adc0479a"
            "9083890fb8b16c5ecb25e4ad86129208"
        ),
        "inconclusive": (
            "482bbabcc30b77e3e7e473ea189080aa"
            "0d8f5d07b011c9b1a8e041213abd5ead"
        ),
        "database": (
            "662fb4121f704220bb2a8c2b08a2ad6e"
            "887a112b286c8535b0d67ea50b480e43"
        ),
    },
}


def _digest(assessment) -> str:
    text = json.dumps(assessment_to_json(assessment), sort_keys=True)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _run(route: str, name: str):
    factory, tolerance, kwargs = CASES[name]
    kwargs = dict(kwargs)
    if "budget" in kwargs:
        at_poll = kwargs["budget"] + (route == "engine")
        kwargs["budget"] = _expiring_budget(at_poll)
    if route == "recipe":
        return assess_risk(factory(), tolerance, rng=np.random.default_rng(0), **kwargs)
    return AssessmentEngine().assess(factory(), tolerance, seed=0, **kwargs).assessment


def digests() -> dict[str, dict[str, str]]:
    """Every case's digest through both routes (regenerates ``DIGESTS``)."""
    return {
        route: {name: _digest(_run(route, name)) for name in CASES}
        for route in ("recipe", "engine")
    }


class TestPinnedDigests:
    @pytest.mark.parametrize("route", ["recipe", "engine"])
    @pytest.mark.parametrize("name", sorted(CASES))
    def test_digest_unchanged(self, route, name):
        assert _digest(_run(route, name)) == DIGESTS[route][name]

    def test_interest_subsets_share_one_memoized_space(self):
        # Two subsets, then none, on one release at one tolerance: one
        # space and one exact run serve all three, and each answer is
        # the fresh engine's pinned one.
        engine = AssessmentEngine()
        for name in ("interest-odd", "interest-tail", "alpha"):
            factory, tolerance, kwargs = CASES[name]
            answer = engine.assess(factory(), tolerance, seed=0, **kwargs).assessment
            assert answer.exact_cracks is not None, name
            assert _digest(answer) == DIGESTS["engine"][name], name
        snapshot = engine.metrics.snapshot()
        assert snapshot["timers"]["stage:space"]["count"] == 1
        assert snapshot["timers"]["stage:exact"]["count"] == 1
        assert snapshot["counters"]["exact_memo_hits"] == 2

    def test_cases_cover_every_decision(self):
        decisions = {_run("engine", name).decision.name for name in CASES}
        assert decisions == {
            "DISCLOSE_POINT_VALUED",
            "DISCLOSE_INTERVAL",
            "ALPHA_BOUND",
            "INCONCLUSIVE",
        }


class TestRecipeStages:
    def test_provider_serves_every_stage_in_order(self):
        calls = []

        class Recording(RecipeStages):
            pass

        for name in ("groups", "space", "o_estimate", "exact", "attack", "alpha"):

            def stage(self, *args, _name=name):
                calls.append(_name)
                return getattr(RecipeStages, _name)(self, *args)

            setattr(Recording, name, stage)

        recorded = assess_risk(
            _release(), 0.05, runs=3, rng=np.random.default_rng(0), stages=Recording()
        )
        plain = assess_risk(_release(), 0.05, runs=3, rng=np.random.default_rng(0))
        assert recorded == plain
        assert calls == ["groups", "space", "o_estimate", "exact", "attack", "alpha"]


class TestEngineStageCounters:
    def test_sweep_builds_each_stage_once(self):
        # Every tolerance is below g/n = 0.2, so each passes the
        # point-valued rung and asks for the space, exact and attack.
        engine = AssessmentEngine()
        engine.sweep_tolerance(_release(), [0.02, 0.05, 0.1, 0.15], runs=3)
        snapshot = engine.metrics.snapshot()
        timers, counters = snapshot["timers"], snapshot["counters"]
        for stage in ("groups", "space", "exact", "attack"):
            assert timers[f"stage:{stage}"]["count"] == 1, stage
        assert timers["stage:oestimate"]["count"] == 4
        assert counters["exact_memo_hits"] == counters["attack_memo_hits"] == 3
        assert counters["computed"] == 4

    def test_skipped_attack_summary_is_memoized(self, monkeypatch):
        # Too few edges allowed: classification raises GraphError and
        # the summary is skipped, a property of the space worth keeping.
        monkeypatch.setattr("repro.recipe.assess.ATTACK_SUMMARY_MAX_EDGES", 1)
        engine = AssessmentEngine()
        outcomes = engine.sweep_tolerance(_release(), [0.1, 0.15], runs=3)
        assert all(outcome.assessment.attack is None for outcome in outcomes)
        snapshot = engine.metrics.snapshot()
        assert snapshot["timers"]["stage:attack"]["count"] == 1
        assert snapshot["counters"]["attack_memo_hits"] == 1


class TestDeadlineCutAnswersStayUncached:
    @pytest.mark.parametrize("tier", ["memory", "disk", "shared"])
    def test_answer_missing_an_enrichment_is_not_served_later(self, tmp_path, tier):
        if tier == "memory":
            cache = AssessmentCache()
        else:
            cache = AssessmentCache(directory=tmp_path, shared=tier == "shared")
        engine = AssessmentEngine(cache=cache)
        # The deadline passes inside the attack stage: the interval rung
        # still decides, but without its attack summary.
        cut = engine.assess(_release(), 0.1, budget=_expiring_budget(3)).assessment
        assert cut.decision is Decision.DISCLOSE_INTERVAL
        assert cut.attack is None and not cut.partial

        full = AssessmentEngine().assess(_release(), 0.1)
        assert full.assessment.attack is not None
        # A miss in both tiers: the cut answer was stored in neither.
        again = engine.assess(_release(), 0.1)
        assert not again.cached
        assert again.assessment == full.assessment


if __name__ == "__main__":
    print(json.dumps(digests(), indent=4))
