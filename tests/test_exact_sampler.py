"""Tests for chain matching counts, the exact chain sampler and the ladder."""

import math

import numpy as np
import pytest

import repro.graph.exact as graph_exact
import repro.graph.marginals as graph_marginals
from repro.attack.guess import best_guess_mapping, candidate_ranking
from repro.beliefs import interval_belief
from repro.core import (
    ChainSpec,
    chain_expected_cracks,
    chain_matching_count,
    space_from_chain,
)
from repro.errors import NotAChainError, SimulationError
from repro.graph import (
    ExplicitMappingSpace,
    count_matchings_exact,
    crack_marginals,
    enumerate_consistent_matchings,
    expected_cracks_exact,
    space_from_frequencies,
)
from repro.graph.marginals import _choose_rung
from repro.simulation import best_expected_cracks, sample_chain_cracks


def random_chain_spec(rng: np.random.Generator, max_n: int = 8) -> ChainSpec:
    """A random chain whose sizes satisfy the chain constraints.

    Draws each group's exclusive count ``e_g`` and each shared group's
    split ``(c_i, d_i)``, then sets ``n_g = e_g + d_{g-1} + c_g`` and
    ``s_i = c_i + d_i``, so every draw is a valid :class:`ChainSpec`.
    Redraws until the domain has at most *max_n* items.
    """
    while True:
        k = int(rng.integers(1, 5))
        e = [int(rng.integers(0, 3)) for _ in range(k)]
        c = [int(rng.integers(0, 3)) for _ in range(k - 1)]
        d = [int(rng.integers(0, 3)) for _ in range(k - 1)]
        for g in range(k):
            if e[g] + (d[g - 1] if g else 0) + (c[g] if g < k - 1 else 0) == 0:
                e[g] = 1  # a frequency group is never empty
        n = [e[g] + (d[g - 1] if g else 0) + (c[g] if g < k - 1 else 0) for g in range(k)]
        if sum(n) <= max_n:
            return ChainSpec(tuple(n), tuple(e), tuple(ci + di for ci, di in zip(c, d)))


def seeded_chain(seed: int) -> ChainSpec:
    return random_chain_spec(np.random.default_rng(1000 + seed))


CHAINS = [
    ChainSpec((5, 3), (3, 2), (3,)),
    ChainSpec((2, 1), (1, 0), (2,)),
    ChainSpec((3, 3, 2), (1, 1, 1), (3, 2)),
    ChainSpec((4,), (4,), ()),
    ChainSpec((2, 2, 2), (2, 2, 2), (0, 0)),
] + [seeded_chain(seed) for seed in range(10)]


class TestUpwardFlows:
    """``correct_to_upper`` is the flow every matching sends up a boundary."""

    def test_figure_4a(self):
        spec = ChainSpec((5, 3), (3, 2), (3,))
        assert spec.correct_to_upper() == (1,)

    def test_point_valued_chain_has_zero_flow(self):
        spec = ChainSpec((2, 2, 2), (2, 2, 2), (0, 0))
        assert spec.correct_to_upper() == (0, 0)

    def test_flows_telescoping(self):
        spec = ChainSpec((3, 3, 2), (1, 1, 1), (3, 2))
        # Filling group i forces t_i = s_i + e_i + t_{i-1} - n_i up.
        flows, t_prev = [], 0
        for i in range(spec.k - 1):
            t_prev = spec.shared_sizes[i] + spec.exclusive_sizes[i] + t_prev - spec.group_sizes[i]
            flows.append(t_prev)
        assert tuple(flows) == spec.correct_to_upper()


class TestChainMatchingCount:
    @pytest.mark.parametrize("spec", CHAINS)
    def test_matches_permanent(self, spec):
        space = space_from_chain(spec)
        assert chain_matching_count(spec) == count_matchings_exact(space)

    def test_single_group(self):
        spec = ChainSpec((5,), (5,), ())
        assert chain_matching_count(spec) == math.factorial(5)


def sample_mean(space, n_samples, seed, rao_blackwell=True):
    samples = sample_chain_cracks(
        space, n_samples, rng=np.random.default_rng(seed), rao_blackwell=rao_blackwell
    )
    return float(samples.mean()), float(samples.std(ddof=1) / math.sqrt(n_samples))


class TestExactChainSampler:
    @pytest.mark.parametrize("spec", CHAINS[:3])
    def test_mean_matches_lemma6(self, spec):
        mean, stderr = sample_mean(space_from_chain(spec), 3000, 5)
        assert mean == pytest.approx(
            chain_expected_cracks(spec), abs=max(4 * stderr, 0.02)
        )

    def test_raw_and_rao_blackwell_agree(self):
        space = space_from_chain(ChainSpec((5, 3), (3, 2), (3,)))
        raw_mean, raw_se = sample_mean(space, 3000, 6, rao_blackwell=False)
        rb_mean, rb_se = sample_mean(space, 3000, 6)
        assert raw_mean == pytest.approx(rb_mean, abs=4 * (raw_se + rb_se))
        assert rb_se <= raw_se  # Rao-Blackwellization can only help

    def test_samples_are_bounded(self):
        spec = ChainSpec((3, 3), (2, 2), (2,))
        space = space_from_chain(spec)
        samples = sample_chain_cracks(
            space, 500, rng=np.random.default_rng(7), rao_blackwell=False
        )
        assert ((0 <= samples) & (samples <= space.n)).all()

    def test_non_chain_rejected(self, bigmart_space_h):
        with pytest.raises(NotAChainError):
            sample_chain_cracks(bigmart_space_h, 10, rng=np.random.default_rng(0))

    def test_invalid_sample_count(self):
        spec = ChainSpec((2, 2), (1, 1), (2,))
        space = space_from_chain(spec)
        with pytest.raises(SimulationError):
            sample_chain_cracks(space, 0)

    def test_agrees_with_mcmc(self):
        from repro.simulation import simulate_expected_cracks

        spec = ChainSpec((4, 4, 3), (2, 1, 2), (3, 3))
        space = space_from_chain(spec)
        exact_mean, _ = sample_mean(space, 3000, 8)
        mcmc = simulate_expected_cracks(
            space,
            runs=4,
            samples_per_run=400,
            rng=np.random.default_rng(9),
            method="gibbs",
            rao_blackwell=True,
        )
        assert exact_mean == pytest.approx(mcmc.mean, abs=max(4 * mcmc.std, 0.05))


# A chain whose beliefs miss two items' true groups: item "a" (truly at
# 0.2) believes 0.5 and item "d" (truly at 0.5) believes 0.2, so neither
# can be cracked, whatever the chain's forced flows.
NON_COMPLIANT_CHAIN = space_from_frequencies(
    interval_belief({"a": (0.5, 0.5), "b": (0.2, 0.5), "c": (0.2, 0.5), "d": (0.2, 0.2)}),
    {"a": 0.2, "b": 0.2, "c": 0.5, "d": 0.5},
)


def enumeration_marginals(space) -> np.ndarray:
    hits = np.zeros(space.n)
    total = 0
    for assignment in enumerate_consistent_matchings(space):
        total += 1
        for i, j in enumerate(assignment):
            hits[i] += j == space.true_partner(i)
    return hits / total


def closed_gate(monkeypatch):
    monkeypatch.setattr(graph_exact, "EXACT_COST_BUDGET", -1)


class TestRouteAgreement:
    """Every route to a chain's crack marginals gives the same numbers."""

    @pytest.mark.parametrize("spec", CHAINS)
    def test_exact_routes_agree(self, spec, monkeypatch):
        space = space_from_chain(spec)
        reference = enumeration_marginals(space)
        expected = chain_expected_cracks(spec)
        assert expected == pytest.approx(reference.sum(), abs=1e-12)
        assert expected_cracks_exact(space) == pytest.approx(expected, abs=1e-12)
        for method in ("exact", "chain", "auto"):
            marginals = crack_marginals(space, method)
            np.testing.assert_allclose(marginals, reference, rtol=0, atol=1e-12)
        rung, marginals = _choose_rung(space)
        assert rung in ("interval-dp", "block-interval-dp")
        np.testing.assert_allclose(marginals, reference, rtol=0, atol=1e-12)
        value, stderr, strategy = best_expected_cracks(space)
        assert (stderr, strategy) == (0.0, rung)
        assert value == float(crack_marginals(space, "exact").sum())

        closed_gate(monkeypatch)
        rung, marginals = _choose_rung(space)
        assert rung == "chain"
        np.testing.assert_allclose(marginals, reference, rtol=0, atol=1e-12)
        value, stderr, strategy = best_expected_cracks(space)
        assert (stderr, strategy) == (0.0, "chain")
        assert value == pytest.approx(expected, abs=1e-12)

    @pytest.mark.parametrize("seed", range(4))
    def test_mcmc_rung_within_z_bound(self, seed, monkeypatch):
        spec = ChainSpec((4, 4, 3), (2, 1, 2), (3, 3)) if seed == 0 else seeded_chain(seed)
        space = space_from_chain(spec)
        closed_gate(monkeypatch)

        def not_a_chain(space):
            raise NotAChainError("chain rung closed")

        monkeypatch.setattr(graph_marginals, "_chain_marginals", not_a_chain)
        assert _choose_rung(space) == ("mcmc-gibbs", None)
        mean, std, strategy = best_expected_cracks(space, rng=np.random.default_rng(seed))
        assert strategy == "mcmc-gibbs"
        # std is the spread of the 5 per-run means; 5 standard errors.
        assert abs(mean - chain_expected_cracks(spec)) <= 5 * std / math.sqrt(5) + 1e-12
        marginals = crack_marginals(space, "auto", n_samples=400, rng=np.random.default_rng(seed))
        assert marginals.sum() == pytest.approx(chain_expected_cracks(spec), abs=0.25)

    def test_non_compliant_chain(self, monkeypatch):
        space = NON_COMPLIANT_CHAIN
        reference = enumeration_marginals(space)
        assert reference[0] == reference[3] == 0.0
        np.testing.assert_allclose(
            crack_marginals(space, "chain"), reference, rtol=0, atol=1e-12
        )
        mean, stderr = sample_mean(space, 400, 3)
        assert abs(mean - reference.sum()) <= 4 * stderr
        closed_gate(monkeypatch)
        value, stderr, strategy = best_expected_cracks(space)
        assert (stderr, strategy) == (0.0, "chain")
        assert value == pytest.approx(reference.sum(), abs=1e-12)

    def test_explicit_space_past_the_gate_samples(self, monkeypatch):
        space = ExplicitMappingSpace(
            items=(1, 2, 3, 4),
            anonymized=("1'", "2'", "3'", "4'"),
            adjacency=[[0, 1], [0, 1], [1, 2, 3], [2, 3]],
            true_partner_of=[0, 1, 2, 3],
        )
        closed_gate(monkeypatch)
        mean, std, strategy = best_expected_cracks(space, rng=np.random.default_rng(2))
        assert strategy == "mcmc-swap"
        assert abs(mean - expected_cracks_exact(space)) <= 5 * std / math.sqrt(5) + 0.05


# Seeded outputs of the sampling routes, recorded before their draw
# loops moved into the samplers: same RNG calls, same numbers.
PIN_CHAIN = ChainSpec((4, 4, 3), (2, 1, 2), (3, 3))
PIN_WIDE = (
    {"a": (0.0, 0.3), "b": (0.1, 0.5), "c": (0.1, 0.3), "d": (0.3, 0.5),
     "e": (0.1, 0.5), "f": (0.3, 0.5), "g": (0.5, 0.5)},
    {"a": 0.1, "b": 0.1, "c": 0.3, "d": 0.3, "e": 0.3, "f": 0.5, "g": 0.5},
)


def pinned_spaces(two_blocks_space):
    belief, frequencies = PIN_WIDE
    return {
        "chain": space_from_chain(PIN_CHAIN),
        "wide": space_from_frequencies(interval_belief(belief), frequencies),
        "explicit": two_blocks_space,
    }


PINNED_MCMC = {
    "chain": ["0x1.0000000000000p-2", "0x1.0000000000000p-2", "0x1.0000000000000p-2",
              "0x1.5555555555553p-2", "0x1.5555555555553p-2", "0x1.3333333333333p-3",
              "0x1.999999999999ap-3", "0x1.999999999999ap-4", "0x1.999999999999ap-3",
              "0x1.3333333333333p-3", "0x1.1111111111111p-3"],
    "wide": ["0x1.1eb851eb851ecp-2", "0x1.1eb851eb851ecp-2", "0x1.62fc962fc962fp-3",
             "0x1.d0369d0369d01p-3", "0x1.eb851eb851eb8p-4", "0x1.1eb851eb851ecp-3",
             "0x1.0000000000000p-1"],
    "explicit": ["0x1.eb851eb851eb8p-2", "0x1.eb851eb851eb8p-2", "0x1.0a3d70a3d70a4p-1",
                 "0x1.0a3d70a3d70a4p-1"],
}
PINNED_GUESS = {
    "chain": ((0, 2, 5, 10, 9, 1, 4, 3, 8, 7, 6), "0x1.35c28f5c28f5dp+1"),
    "wide": ((4, 0, 1, 3, 2, 6, 5), "0x1.df92c5f92c5f9p+0"),
    "explicit": ((0, 1, 2, 3), "0x1.d555555555555p+0"),
}
PINNED_RANKING = {
    "chain": [("E1.1", "0x1.0000000000000p-2"), ("E1.2", "0x1.0000000000000p-2"),
              ("S1.hi1", "0x1.70a3d70a3d70ap-3"), ("S1.lo2", "0x1.70a3d70a3d70ap-3"),
              ("S1.lo1", "0x1.1eb851eb851ecp-3")],
    "wide": [("f", "0x1.eb851eb851eb8p-3"), ("d", "0x1.d0369d0369d04p-3"),
             ("c", "0x1.62fc962fc9630p-3"), ("b", "0x1.1111111111111p-3"),
             ("a", "0x1.eb851eb851eb8p-4"), ("e", "0x1.b4e81b4e81b4fp-4")],
    "explicit": [(3, "0x1.0a3d70a3d70a4p-1"), (4, "0x1.eb851eb851eb8p-2")],
}


class TestSeededOutputsPinned:
    @pytest.mark.parametrize("name", sorted(PINNED_MCMC))
    def test_mcmc_marginals(self, name, two_blocks_space):
        space = pinned_spaces(two_blocks_space)[name]
        marginals = crack_marginals(space, "mcmc", n_samples=25, rng=np.random.default_rng(13))
        assert [float(x).hex() for x in marginals] == PINNED_MCMC[name]

    @pytest.mark.parametrize("name", sorted(PINNED_GUESS))
    def test_best_guess_mapping(self, name, two_blocks_space):
        space = pinned_spaces(two_blocks_space)[name]
        guess = best_guess_mapping(space, n_samples=25, rng=np.random.default_rng(14))
        assert (guess.assignment, float(guess.expected_cracks).hex()) == PINNED_GUESS[name]

    @pytest.mark.parametrize("name", sorted(PINNED_RANKING))
    def test_candidate_ranking(self, name, two_blocks_space):
        space = pinned_spaces(two_blocks_space)[name]
        ranking = candidate_ranking(
            space, space.anonymized[2], n_samples=25, rng=np.random.default_rng(15)
        )
        assert [(item, float(p).hex()) for item, p in ranking] == PINNED_RANKING[name]

    def test_sample_chain_cracks(self):
        space = space_from_chain(PIN_CHAIN)
        rb = sample_chain_cracks(space, 6, rng=np.random.default_rng(11))
        assert [float(x).hex() for x in rb] == [
            "0x1.eaaaaaaaaaaaap+0", "0x1.3555555555555p+1", "0x1.eaaaaaaaaaaaap+0",
            "0x1.3555555555555p+1", "0x1.eaaaaaaaaaaaap+0", "0x1.4000000000000p+1",
        ]
        raw = sample_chain_cracks(space, 6, rng=np.random.default_rng(12), rao_blackwell=False)
        assert raw.tolist() == [1.0, 3.0, 3.0, 3.0, 4.0, 1.0]
