"""Tests for the streaming attacker workbench (repro.attack.solver).

The load-bearing checks: the forced/forbidden/undecided partition is
cross-checked against brute-force matching enumeration on random small
instances, and the streamed partition is invariant under observation
reordering (observations are candidate-set intersections, hence
commutative).
"""

from __future__ import annotations

import itertools

import pytest

from repro.attack.solver import (
    ConsistencySolver,
    Observation,
    SolverEvent,
    decode_observation,
    read_observations,
    solver_from_space,
)
from repro.budget import ComputeBudget
from repro.errors import BudgetExceeded, SolverError
from repro.graph.refine import classify_adjacency, reduced_blocks
from repro.service.crack import CrackSessionStore, solver_from_instance

STAIRCASE = [[0], [0, 1], [0, 1, 2], [0, 1, 2, 3]]


def brute_force_partition(adjacency):
    """Forced/forbidden edge sets by enumerating all perfect matchings."""
    n = len(adjacency)
    rows = [set(row) for row in adjacency]
    matchings = [
        perm
        for perm in itertools.permutations(range(n))
        if all(perm[i] in rows[i] for i in range(n))
    ]
    forced = set()
    forbidden = set()
    for i in range(n):
        for j in rows[i]:
            hits = sum(1 for perm in matchings if perm[i] == j)
            if hits == len(matchings) and matchings:
                forced.add((i, j))
            elif hits == 0:
                forbidden.add((i, j))
    return matchings, forced, forbidden


def solver_partition(solver):
    partition = solver.partition
    forced = set(partition.forced.items())
    forbidden = {
        (i, j) for i in range(solver.n) for j in partition.forbidden[i]
    }
    return forced, forbidden


class TestBruteForceCrossCheck:
    """The exact classification agrees with matching enumeration, n <= 8."""

    def test_randomized_instances(self, rng):
        for trial in range(60):
            n = int(rng.integers(2, 9))
            density = 0.25 + 0.65 * float(rng.random())
            adjacency = [
                sorted(j for j in range(n) if rng.random() < density)
                for i in range(n)
            ]
            matchings, forced, forbidden = brute_force_partition(adjacency)
            solver = ConsistencySolver(adjacency)
            if not matchings:
                assert solver.partition.infeasible, adjacency
                continue
            got_forced, got_forbidden = solver_partition(solver)
            assert got_forced == forced, adjacency
            assert got_forbidden == forbidden, adjacency

    def test_randomized_instances_after_observations(self, rng):
        # Streams of 1-4 restrictions must land, after every step, on
        # the brute-force partition of the restricted graph.
        for trial in range(30):
            n = int(rng.integers(3, 8))
            adjacency = [
                sorted(set(rng.integers(0, n, size=n).tolist()) | {i})
                for i in range(n)
            ]
            solver = ConsistencySolver(adjacency)
            restricted = [list(row) for row in adjacency]
            for _ in range(int(rng.integers(1, 5))):
                item = int(rng.integers(0, n))
                keep = sorted(
                    j for j in adjacency[item] if rng.random() < 0.7
                ) or [adjacency[item][0]]
                solver.ingest(Observation(kind="restrict", item=item, anons=tuple(keep)))
                restricted[item] = [j for j in restricted[item] if j in keep]
                matchings, forced, forbidden = brute_force_partition(restricted)
                if not matchings:
                    assert solver.partition.infeasible, restricted
                    break
                got_forced, got_forbidden = solver_partition(solver)
                assert got_forced == forced, restricted
                # The solver reports forbidden edges relative to its current
                # graph, which no longer contains observation-removed edges.
                current = {(i, j) for i in range(n) for j in restricted[i]}
                assert got_forbidden == forbidden & current, restricted


class TestStreamingOrderInvariance:
    def test_final_partition_is_order_free(self):
        adjacency = [[0, 1, 2, 3]] * 4
        observations = [
            Observation(kind="restrict", item=0, anons=(0, 1)),
            Observation(kind="confirm", item=1, anon=2),
            Observation(kind="transaction", items=(2, 3), anons=(0, 1, 3)),
        ]
        outcomes = set()
        for order in itertools.permutations(observations):
            solver = ConsistencySolver(adjacency)
            events = list(solver.replay(order))
            outcomes.add(
                (
                    frozenset(solver_partition(solver)[0]),
                    frozenset(solver_partition(solver)[1]),
                    solver.infeasible,
                )
            )
            assert all(isinstance(e, SolverEvent) for e in events)
        assert len(outcomes) == 1

    def test_forced_events_never_retract(self):
        solver = ConsistencySolver([[0, 1], [0, 1], [2, 3], [2, 3]])
        first = solver.ingest(Observation(kind="confirm", item=0, anon=0))
        assert {(e.kind, e.item, e.anon) for e in first} >= {("forced", 0, 0), ("forced", 1, 1)}
        again = solver.ingest(Observation(kind="restrict", item=2, anons=(2,)))
        kinds = {(e.kind, e.item, e.anon) for e in again}
        assert ("forced", 0, 0) not in kinds  # already emitted once
        assert ("forced", 2, 2) in kinds


def _staircase_space():
    from repro.graph import ExplicitMappingSpace

    n = len(STAIRCASE)
    return ExplicitMappingSpace(
        items=tuple(range(n)),
        anonymized=tuple(f"{j}'" for j in range(n)),
        adjacency=STAIRCASE,
        true_partner_of=list(range(n)),
    )


def _interval_space():
    from repro.beliefs import interval_belief
    from repro.graph import space_from_frequencies

    frequencies = {0: 0.1, 1: 0.1, 2: 0.2, 3: 0.2, 4: 0.3}
    intervals = {i: (max(0.1, f - 0.1), min(0.3, f + 0.1)) for i, f in frequencies.items()}
    return space_from_frequencies(interval_belief(intervals), frequencies)


def _run_engine(engine: str, space_of) -> None:
    import numpy as np

    from repro.graph import exact, permanent

    if engine == "permanent":
        permanent(np.full((3, 3), 0.5))
    else:
        getattr(exact, engine)(space_of())


class TestStaircaseNoExactEngine:
    def test_all_identifications_without_ryser_or_dp(self, monkeypatch):
        # import_module: the package re-exports the ``permanent``
        # function under the same attribute as the submodule.
        from importlib import import_module

        from repro.cli import EXACT_ENGINE_LOOKUPS

        def boom(*args, **kwargs):
            raise AssertionError("the exact counting engines must not run")

        for module, name in EXACT_ENGINE_LOOKUPS:
            monkeypatch.setattr(import_module(module), name, boom)
        solver = ConsistencySolver(STAIRCASE, true_partner_of=[0, 1, 2, 3])
        events = solver.bootstrap()
        forced = [(e.item, e.anon) for e in events if e.kind == "forced"]
        assert forced == [(0, 0), (1, 1), (2, 2), (3, 3)]
        assert all(e.crack for e in events if e.kind == "forced")
        assert solver.summary()["undecided"] == 0
        assert solver.certified_cracks() == 4

    @pytest.mark.parametrize(
        "engine, space_of",
        [
            ("count_matchings_exact", _staircase_space),
            ("crack_marginals_exact", _staircase_space),
            ("count_matchings_exact", _interval_space),
            ("crack_marginals_exact", _interval_space),
            ("crack_distribution_exact", _interval_space),
            ("permanent", None),
        ],
    )
    def test_smoke_fails_when_the_solver_runs_an_engine(
        self, monkeypatch, capsys, engine, space_of
    ):
        # A solver whose bootstrap leans on an exact engine must fail
        # the smoke, whichever name the engine is called through.
        import repro.attack.solver as solver_package
        from repro.cli import crack_main

        class EngineSolver(ConsistencySolver):
            def bootstrap(self, *args, **kwargs):
                _run_engine(engine, space_of)
                return super().bootstrap(*args, **kwargs)

        monkeypatch.setattr(solver_package, "ConsistencySolver", EngineSolver)
        assert crack_main(["--smoke"]) == 1
        assert "must not run" in capsys.readouterr().err

    def test_infeasible_event_emitted_once(self):
        solver = ConsistencySolver(STAIRCASE)
        solver.bootstrap()
        events = solver.ingest(Observation(kind="confirm", item=1, anon=1))
        assert events == []  # already forced, nothing new
        events = solver.ingest(Observation(kind="confirm", item=1, anon=0))
        assert [e.kind for e in events] == ["infeasible"]
        assert solver.infeasible
        events = solver.ingest(Observation(kind="restrict", item=2, anons=(2,)))
        assert events == []


class TestHallInfeasibility:
    def test_hall_violation_detected_without_empty_rows(self):
        # Three items crowd two anons: every row non-empty, no matching.
        solver = ConsistencySolver([[0, 1], [0, 1], [0, 1], [0, 1, 2, 3]])
        assert solver.partition.infeasible
        events = solver.bootstrap()
        assert [e.kind for e in events] == ["infeasible"]

    def test_contradiction_names_a_hall_witness(self):
        # Confirming item 1 on anon 0 leaves items 0 and 1 both pinned
        # to anon 0: no empty row, but a two-item Hall violation.
        solver = ConsistencySolver(STAIRCASE)
        solver.bootstrap()
        events = solver.ingest(Observation(kind="confirm", item=1, anon=0))
        assert [e.kind for e in events] == ["infeasible"]
        assert events[0].detail.startswith("Hall's condition fails")
        assert solver.partition.hall_witness == (0, 1)


class TestDegreeK:
    def test_solver_uses_subset_front(self):
        # Items 0,1 both see only {0,1}: a naked pair reserving those
        # anons, so item 2 loses its edges into the pair and is forced.
        solver = ConsistencySolver([[0, 1], [0, 1], [0, 1, 2]])
        forced, forbidden = solver_partition(solver)
        assert forced == {(2, 2)}
        assert forbidden == {(2, 0), (2, 1)}
        assert solver.partition.undecided[:2] == (frozenset({0, 1}),) * 2


class TestBudget:
    def test_solver_loops_poll_the_budget(self):
        budget = ComputeBudget()
        budget.cancel()
        solver = ConsistencySolver([[0, 1], [0, 1]], budget=budget)
        with pytest.raises(BudgetExceeded):
            solver.ingest(Observation(kind="confirm", item=0, anon=0))


class TestObservationWire:
    def test_round_trip(self):
        for payload in (
            {"kind": "confirm", "item": 3, "anon": 5},
            {"kind": "restrict", "item": 1, "anons": [0, 2]},
            {"kind": "tighten", "item": 0, "low": 0.1, "high": 0.4},
            {"kind": "transaction", "items": [1, 2], "anons": [3]},
            {"kind": "close"},
        ):
            observation = decode_observation(
                Observation.from_json(payload).encode()
            )
            assert observation.to_json() == payload

    def test_malformed_lines_rejected(self):
        for line in (
            "not json",
            "[1, 2]",
            '{"kind": "nope"}',
            '{"kind": "confirm", "item": -1, "anon": 0}',
            '{"kind": "confirm", "item": true, "anon": 0}',
            '{"kind": "restrict", "item": 0, "anons": "ab"}',
            '{"kind": "tighten", "item": 0, "low": 0.9, "high": 0.1}',
        ):
            with pytest.raises(SolverError):
                decode_observation(line)

    def test_read_observations_skips_blank_lines(self):
        lines = ['{"kind": "close"}', "", "  ", '{"kind": "confirm", "item": 0, "anon": 0}']
        kinds = [obs.kind for obs in read_observations(lines)]
        assert kinds == ["close", "confirm"]

    def test_tighten_requires_observed_frequencies(self):
        solver = ConsistencySolver([[0, 1], [0, 1]])
        with pytest.raises(SolverError, match="observed frequencies"):
            solver.ingest(Observation(kind="tighten", item=0, low=0.0, high=1.0))


class TestOwnerDualView:
    def test_tighten_against_frequency_space(self, bigmart_space_h):
        solver = solver_from_space(bigmart_space_h)
        # Tighten item 0's belief to a narrow band around 0.3: only the
        # lone 0.3-frequency anon survives.
        events = solver.ingest(
            Observation(kind="tighten", item=0, low=0.25, high=0.35)
        )
        assert any(e.kind == "forced" and e.item == 0 for e in events)

    def test_labels_ride_along(self, staircase_space):
        solver = solver_from_space(staircase_space)
        events = solver.bootstrap()
        forced = [e for e in events if e.kind == "forced"]
        assert forced and all(e.item_label and e.anon_label for e in forced)
        assert solver.certified_cracks() == 4

    def test_edge_guard_fires_before_materializing(self, bigmart_space_h):
        with pytest.raises(SolverError, match="edge guard"):
            solver_from_space(bigmart_space_h, max_edges=3)


class TestReducedBlocks:
    def test_forced_pairs_leave_no_blocks(self):
        classification = classify_adjacency(STAIRCASE)
        assert reduced_blocks(classification) == ()

    def test_two_blocks_shrink(self, two_blocks_space):
        adjacency = [
            list(two_blocks_space.candidates(i))
            for i in range(two_blocks_space.n)
        ]
        classification = classify_adjacency(adjacency)
        blocks = reduced_blocks(classification)
        assert blocks and max(block.n for block in blocks) <= 2


class TestCrackSessionStore:
    def test_open_step_close(self):
        store = CrackSessionStore()
        reply = store.step(
            {"instance": {"adjacency": STAIRCASE, "truth": [0, 1, 2, 3]}}
        )
        assert reply["summary"]["forced"] == 4
        assert reply["summary"]["certified_cracks"] == 4
        assert not reply["closed"]
        session = reply["session"]
        reply = store.step(
            {"session": session, "observations": [{"kind": "close"}]}
        )
        assert reply["closed"] and len(store) == 0
        with pytest.raises(SolverError, match="unknown or expired"):
            store.step({"session": session})

    def test_eviction_bounds_sessions(self):
        store = CrackSessionStore(max_sessions=2)
        ids = [
            store.step({"instance": {"adjacency": [[0, 1], [0, 1]]}})["session"]
            for _ in range(3)
        ]
        assert len(store) == 2
        with pytest.raises(SolverError, match="unknown or expired"):
            store.step({"session": ids[0]})

    def test_instance_validation(self):
        store = CrackSessionStore()
        with pytest.raises(SolverError):
            store.step({})
        with pytest.raises(SolverError):
            store.step({"instance": {"adjacency": []}})
        with pytest.raises(SolverError):
            store.step({"instance": {"profile": {"type": "nope"}}})
        with pytest.raises(SolverError):
            store.step(
                {
                    "instance": {"adjacency": STAIRCASE},
                    "session": "crack-1",
                }
            )

    def test_profile_instance_carries_truth_and_frequencies(self):
        from repro.data import FrequencyProfile
        from repro.io import profile_to_json

        profile = FrequencyProfile({1: 5, 2: 4, 3: 3, 4: 5}, 10)
        solver = solver_from_instance(
            {"profile": profile_to_json(profile), "delta": 0.01}
        )
        events = solver.bootstrap()
        # delta 0.01 separates every frequency group: items 2 and 3 are
        # singletons, the two 0.5-items stay a 2-block.
        assert solver.summary()["forced"] == 2
        assert solver.certified_cracks() == 2
        assert any(e.kind == "forced" for e in events)
