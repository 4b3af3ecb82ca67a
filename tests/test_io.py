"""Unit tests for JSON persistence of workflow artifacts."""

import numpy as np
import pytest

from repro.beliefs import interval_belief, point_belief
from repro.data import FrequencyProfile
from repro.errors import FormatError
from repro.io import (
    assessment_from_json,
    assessment_to_json,
    belief_from_json,
    belief_to_json,
    load_json,
    profile_from_json,
    profile_to_json,
    save_json_atomic,
)
from repro.recipe import assess_risk


class TestBeliefRoundtrip:
    def test_interval_belief(self, belief_h):
        assert belief_from_json(belief_to_json(belief_h)) == belief_h

    def test_point_belief(self, bigmart_frequencies):
        belief = point_belief(bigmart_frequencies)
        assert belief_from_json(belief_to_json(belief)) == belief

    def test_string_items(self):
        belief = interval_belief({"milk": (0.1, 0.4), "bread": 0.3})
        assert belief_from_json(belief_to_json(belief)) == belief

    def test_int_and_string_items_distinguished(self):
        belief = interval_belief({1: 0.5, "1": 0.3})
        restored = belief_from_json(belief_to_json(belief))
        assert restored[1].low == 0.5
        assert restored["1"].low == 0.3

    def test_unserializable_item_rejected(self):
        belief = interval_belief({(1, 2): 0.5})
        with pytest.raises(FormatError):
            belief_to_json(belief)

    def test_wrong_payload_type(self):
        with pytest.raises(FormatError):
            belief_from_json({"type": "something_else"})

    def test_malformed_entry(self):
        with pytest.raises(FormatError):
            belief_from_json({"type": "belief_function", "intervals": [[1, 2]]})


class TestProfileRoundtrip:
    def test_roundtrip(self):
        profile = FrequencyProfile({1: 3, 2: 7, "odd": 1}, 10)
        assert profile_from_json(profile_to_json(profile)) == profile

    def test_wrong_type(self):
        with pytest.raises(FormatError):
            profile_from_json({"type": "belief_function"})

    @pytest.mark.parametrize("count", [3.7, 3.0, True, False, "12", None], ids=repr)
    def test_non_integral_count_rejected(self, count):
        payload = profile_to_json(FrequencyProfile({1: 3, 2: 7}, 10))
        payload["counts"][1][1] = count
        with pytest.raises(FormatError, match="count must be a JSON integer"):
            profile_from_json(payload)

    @pytest.mark.parametrize("count", [3.7, True, "12"], ids=repr)
    def test_non_integral_count_rejected_for_str_items(self, count):
        payload = profile_to_json(FrequencyProfile({"a": 3, "b": 7}, 10))
        payload["counts"][0][1] = count
        with pytest.raises(FormatError, match="count must be a JSON integer"):
            profile_from_json(payload)

    @pytest.mark.parametrize("total", [3.7, 10.0, True, "10"], ids=repr)
    def test_non_integral_n_transactions_rejected(self, total):
        for items in ({1: 3, 2: 7}, {"a": 3, "b": 7}):  # bulk and per-entry decode
            payload = profile_to_json(FrequencyProfile(items, 10))
            payload["n_transactions"] = total
            with pytest.raises(FormatError, match="n_transactions must be a JSON integer"):
                profile_from_json(payload)

    @pytest.mark.parametrize("payload", [5, None, "profile", [1, 2]], ids=repr)
    def test_non_object_payload_rejected(self, payload):
        with pytest.raises(FormatError, match="not a serialized frequency profile"):
            profile_from_json(payload)

    def test_integer_counts_round_trip(self):
        profile = FrequencyProfile({-4: 0, 2: 10, 2**70: 5, "s": 1}, 10)
        restored = profile_from_json(profile_to_json(profile))
        assert restored == profile
        assert restored.counts == {-4: 0, 2: 10, 2**70: 5, "s": 1}


class TestAssessmentRoundtrip:
    def test_disclose_assessment(self):
        profile = FrequencyProfile({i: 10 for i in range(1, 11)}, 100)
        report = assess_risk(profile, tolerance=0.5, delta=0.01)
        restored = assessment_from_json(assessment_to_json(report))
        assert restored == report

    def test_alpha_assessment(self):
        profile = FrequencyProfile({i: 40 * i for i in range(1, 21)}, 1000)
        report = assess_risk(profile, tolerance=0.1, rng=np.random.default_rng(0))
        restored = assessment_from_json(assessment_to_json(report))
        assert restored.decision == report.decision
        assert restored.alpha_max == report.alpha_max
        assert restored.interval_estimate == report.interval_estimate

    def test_unknown_decision_rejected(self):
        with pytest.raises(FormatError):
            assessment_from_json(
                {"type": "risk_assessment", "decision": "PANIC", "tolerance": 0.1,
                 "n_items": 5, "g": 3}
            )


class TestFiles:
    def test_save_and_load(self, tmp_path, belief_h):
        path = tmp_path / "belief.json"
        save_json_atomic(belief_to_json(belief_h), path)
        assert belief_from_json(load_json(path)) == belief_h

    def test_invalid_json_reported(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(FormatError, match="invalid JSON"):
            load_json(path)


class TestAttackBlock:
    def _report(self):
        from repro.recipe.assess import AttackSummary, Decision, RiskAssessment

        return RiskAssessment(
            decision=Decision.DISCLOSE_INTERVAL,
            tolerance=0.2,
            n_items=4,
            g=3,
            delta=0.01,
            attack=AttackSummary(
                forced_pairs=2,
                certified_cracks=2,
                forbidden_edges=3,
                largest_block_before=4,
                largest_block_after=2,
            ),
        )

    def test_attack_round_trip(self):
        payload = assessment_to_json(self._report())
        assert payload["schema_version"] == 4
        assert payload["attack"]["forced_pairs"] == 2
        assert payload["attack"]["solver_reduction"]["largest_block_after"] == 2
        assert assessment_from_json(payload) == self._report()

    def test_version_3_payload_still_loads(self):
        payload = assessment_to_json(self._report())
        del payload["attack"]
        payload["schema_version"] = 3
        restored = assessment_from_json(payload)
        assert restored.attack is None
        assert restored.decision == self._report().decision

    def test_malformed_attack_block_rejected(self):
        payload = assessment_to_json(self._report())
        payload["attack"] = {"forced_pairs": 1}
        with pytest.raises(FormatError, match="solver_reduction"):
            assessment_from_json(payload)

    def test_recipe_output_carries_attack(self):
        profile = FrequencyProfile({i: 10 * i for i in range(1, 9)}, 500)
        report = assess_risk(profile, tolerance=0.05, rng=np.random.default_rng(1))
        payload = assessment_to_json(report)
        restored = assessment_from_json(payload)
        assert restored.attack == report.attack
