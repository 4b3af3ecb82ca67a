"""Unit tests for crack marginals and the attack workbench."""

import numpy as np
import pytest

from repro.anonymize import anonymize
from repro.attack import best_guess_mapping, candidate_ranking, evaluate_attack
from repro.beliefs import ignorant_belief, point_belief, uniform_width_belief
from repro.core import ChainSpec, chain_expected_cracks, space_from_chain
from repro.datasets import random_database
from repro.errors import GraphError, NotAChainError
from repro.graph import (
    crack_marginals,
    expected_cracks_exact,
    space_from_frequencies,
)


class TestCrackMarginals:
    def test_chain_closed_form_sums_to_lemma6(self):
        spec = ChainSpec((5, 3), (3, 2), (3,))
        space = space_from_chain(spec)
        marginals = crack_marginals(space, method="chain")
        assert marginals.sum() == pytest.approx(chain_expected_cracks(spec))

    def test_chain_agrees_with_exact(self):
        spec = ChainSpec((3, 2), (2, 1), (2,))
        space = space_from_chain(spec)
        assert crack_marginals(space, method="chain") == pytest.approx(
            crack_marginals(space, method="exact")
        )

    def test_exact_on_bigmart(self, bigmart_space_h):
        marginals = crack_marginals(bigmart_space_h, method="exact")
        assert marginals.sum() == pytest.approx(
            expected_cracks_exact(bigmart_space_h)
        )

    def test_auto_dispatch(self, bigmart_space_h):
        # BigMart-h is not a chain and is small: auto should match exact.
        assert crack_marginals(bigmart_space_h) == pytest.approx(
            crack_marginals(bigmart_space_h, method="exact")
        )

    def test_mcmc_tracks_exact(self, bigmart_space_h):
        exact = crack_marginals(bigmart_space_h, method="exact")
        estimated = crack_marginals(
            bigmart_space_h,
            method="mcmc",
            n_samples=3000,
            rng=np.random.default_rng(0),
        )
        assert estimated == pytest.approx(exact, abs=0.05)

    def test_mcmc_on_explicit_space(self, two_blocks_space):
        exact = crack_marginals(two_blocks_space, method="exact")
        estimated = crack_marginals(
            two_blocks_space, method="mcmc", n_samples=2000, rng=np.random.default_rng(1)
        )
        assert estimated == pytest.approx(exact, abs=0.08)

    def test_chain_method_rejects_non_chain(self, bigmart_space_h):
        with pytest.raises(NotAChainError):
            crack_marginals(bigmart_space_h, method="chain")

    def test_unknown_method(self, bigmart_space_h):
        with pytest.raises(GraphError):
            crack_marginals(bigmart_space_h, method="magic")

    def test_noncompliant_items_have_zero_marginal(
        self, belief_h, bigmart_frequencies
    ):
        # Item 5 guesses wrong; item 1's ignorant interval keeps the
        # 0.3-frequency anonymized item coverable, so matchings exist.
        belief = belief_h.replace({5: (0.45, 0.55)})
        space = space_from_frequencies(belief, bigmart_frequencies)
        marginals = crack_marginals(space, method="exact")
        item5 = space.item_index(5)
        assert marginals[item5] == 0.0


class TestBestGuess:
    def test_staircase_guessed_perfectly(self, staircase_space):
        guess = best_guess_mapping(staircase_space, rng=np.random.default_rng(0))
        assert guess.n_forced == 4
        assert guess.assignment == (0, 1, 2, 3)
        assert guess.expected_cracks == pytest.approx(4.0)

    def test_guess_is_a_consistent_permutation(self, bigmart_space_h, rng):
        guess = best_guess_mapping(bigmart_space_h, rng=rng)
        assert sorted(guess.assignment) == list(range(6))
        for i, j in enumerate(guess.assignment):
            assert bigmart_space_h.is_edge(i, j)

    def test_mapping_labels(self, bigmart_space_h, rng):
        guess = best_guess_mapping(bigmart_space_h, rng=rng)
        assert set(guess.mapping.keys()) == set(bigmart_space_h.anonymized)
        assert set(guess.mapping.values()) == set(bigmart_space_h.items)

    def test_point_valued_guess_hits_singletons(self, bigmart_frequencies, rng):
        space = space_from_frequencies(
            point_belief(bigmart_frequencies), bigmart_frequencies
        )
        guess = best_guess_mapping(space, rng=rng)
        # Items 2 and 5 are in singleton groups: always guessed right.
        for item in (2, 5):
            i = space.item_index(item)
            assert guess.assignment[i] == space.true_partner(i)


class TestCandidateRanking:
    def test_probabilities_bounded(self, bigmart_space_h, rng):
        anon = bigmart_space_h.anonymized[0]
        ranking = candidate_ranking(bigmart_space_h, anon, rng=rng)
        assert all(0.0 <= p <= 1.0 for _, p in ranking)
        probabilities = [p for _, p in ranking]
        assert probabilities == sorted(probabilities, reverse=True)

    def test_only_consistent_candidates_listed(self, bigmart_space_h, rng):
        # The anonymized item at frequency 0.3 can only be items with
        # 0.3 in their interval: 1 (ignorant) and 5.
        anon_index = next(
            j for j, f in enumerate(bigmart_space_h.observed) if f == 0.3
        )
        anon = bigmart_space_h.anonymized[anon_index]
        ranking = candidate_ranking(bigmart_space_h, anon, rng=rng)
        assert {item for item, _ in ranking} == {1, 5}

    def test_unknown_anonymized_label(self, bigmart_space_h, rng):
        with pytest.raises(GraphError):
            candidate_ranking(bigmart_space_h, "nope", rng=rng)


class TestEvaluateAttack:
    def test_end_to_end_on_release(self, rng):
        db = random_database(15, 250, density=0.3, rng=rng)
        released = anonymize(db, rng=rng)
        belief = uniform_width_belief(db.frequencies(), 0.01)
        outcome = evaluate_attack(released, belief, rng=rng)
        assert 0 <= outcome.n_cracked <= 15
        assert outcome.n_forced_correct <= outcome.guess.n_forced
        assert "attack cracked" in outcome.summary()

    def test_space_input(self, bigmart_space_h, rng):
        outcome = evaluate_attack(bigmart_space_h, rng=rng)
        assert outcome.n_items == 6

    def test_belief_required_with_database(self, rng):
        db = random_database(8, 100, density=0.4, rng=rng)
        released = anonymize(db, rng=rng)
        with pytest.raises(ValueError):
            evaluate_attack(released)

    def test_smart_guess_beats_random_on_structured_space(self, rng):
        # On the staircase everything is forced: accuracy 100% while the
        # raw O-estimate (no propagation) predicts about half.
        from repro.graph import ExplicitMappingSpace

        space = ExplicitMappingSpace(
            items=("a", "b", "c", "d"),
            anonymized=("a'", "b'", "c'", "d'"),
            adjacency=[[0], [0, 1], [0, 1, 2], [0, 1, 2, 3]],
            true_partner_of=[0, 1, 2, 3],
        )
        outcome = evaluate_attack(space, rng=rng)
        assert outcome.n_cracked == 4
        assert outcome.accuracy == 1.0

    def test_infeasible_belief_falls_back_to_partial_guess(self, rng):
        # A wrong belief whose intervals admit no observed frequency for
        # some item: no perfect matching exists; the attack still returns
        # a full (partially consistent) mapping.
        from repro.beliefs import interval_belief
        from repro.graph import space_from_frequencies

        freqs = {1: 0.2, 2: 0.5, 3: 0.8}
        belief = interval_belief({1: (0.9, 1.0), 2: (0.4, 0.6), 3: (0.7, 0.9)})
        space = space_from_frequencies(belief, freqs)
        outcome = evaluate_attack(space, rng=rng)
        assert sorted(outcome.guess.assignment) == [0, 1, 2]
        assert outcome.n_cracked >= 2  # items 2 and 3 are pinned

    def test_ignorant_attack_is_weak(self, rng):
        db = random_database(20, 200, density=0.3, rng=rng)
        released = anonymize(db, rng=rng)
        outcome = evaluate_attack(released, ignorant_belief(db.domain), rng=rng)
        # Lemma 1: one expected crack; allow generous slack for one draw.
        assert outcome.n_cracked <= 6
