"""Graph-engine benchmarks: Ryser vs block decomposition vs interval DP.

Measures the structure-exploiting exact engine against the historical
Ryser-only path across domain sizes, the twin-quotient edge
classification of frequency spaces against the item-graph one, the vectorized
O-estimate against the per-item loop, the array-built frequency groups and
space analysis against their per-item construction, the vectorized Gibbs
sweep against the legacy per-item Python loop, plus a streaming-solver run
(bootstrap and seeded confirms on recipe spaces) and Section 8.2's itemset
identifications on recipe spaces, and writes the results as
machine-readable JSON (``BENCH_graph.json`` at the repo root) so future
changes have a perf trajectory to compare against.

Usage::

    PYTHONPATH=src python benchmarks/bench_graph.py           # full run, writes JSON
    PYTHONPATH=src python benchmarks/bench_graph.py --smoke   # tiny sizes, asserts only
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from pathlib import Path

import numpy as np

import repro.graph.exact as graph_exact
from repro.beliefs import interval_belief
from repro.core import ChainSpec, space_from_chain
from repro.core.oestimate import o_estimate
from repro.graph import (
    count_matchings_exact,
    crack_distribution_exact,
    crack_marginals,
    crack_marginals_exact,
    exact_strategy,
    space_from_frequencies,
)
from repro.graph.intervaldp import _match_count_law
from repro.graph.kernels import ryser_int_python as _ryser
from repro.graph.refine import classify_adjacency, classify_edges, reduced_blocks
from repro.simulation import best_expected_cracks
from repro.simulation.gibbs import GibbsAssignmentSampler

FULL_SIZES = (12, 18, 50, 200, 1000)
SMOKE_SIZES = (6, 8, 10, 12)

#: Whole-matrix Ryser gets unbearably slow (minutes) past this size.
RYSER_TIMING_CAP = 18
#: Exact E[X] via Ryser minors costs n+1 permanents; cap lower still.
RYSER_MINORS_CAP = 12


def interval_instance(n: int, seed: int, group_size: int = 5, max_halfwidth: int = 2):
    """A compliant interval-belief space over ``n`` items.

    Frequencies fall into ``n // group_size`` packed groups; each item's
    belief interval spans up to ``max_halfwidth`` adjacent groups on each
    side — the ``delta_med`` regime the recipe produces.
    """
    rng = np.random.default_rng(seed)
    n_groups = max(n // group_size, 1)
    step = 0.9 / n_groups
    frequencies = {i: round(0.05 + step * (i % n_groups), 9) for i in range(n)}
    intervals = {}
    for i, f in frequencies.items():
        w = int(rng.integers(0, max_halfwidth + 1))
        intervals[i] = (max(0.0, f - step * w), min(1.0, f + step * w))
    return space_from_frequencies(interval_belief(intervals), frequencies)


def explicit_block_instance(n: int, block_size: int, seed: int):
    """A dense explicit space made of independent ``block_size`` blocks.

    Plain Ryser is infeasible past n=22; block decomposition keeps every
    component small, so the exact engine stays polynomial in the number
    of blocks.
    """
    from repro.graph import ExplicitMappingSpace

    rng = np.random.default_rng(seed)
    adjacency: list[list[int]] = []
    for start in range(0, n, block_size):
        stop = min(start + block_size, n)
        for i in range(start, stop):
            others = [j for j in range(start, stop) if j != i and rng.random() < 0.5]
            adjacency.append(sorted({i, *others}))
    return ExplicitMappingSpace(
        items=tuple(range(n)),
        anonymized=tuple(f"{i}'" for i in range(n)),
        adjacency=adjacency,
        true_partner_of=list(range(n)),
    )


def bench_block_ryser(sizes, check: bool) -> list[dict]:
    rows = []
    for n in sizes:
        space = explicit_block_instance(n, block_size=10, seed=n)
        plan, plan_s = time_call(exact_strategy, space)
        count, block_s = time_call(count_matchings_exact, space)
        marginals, marg_s = time_call(crack_marginals_exact, space)
        row = {
            "n": n,
            "strategy": plan.strategy,
            "n_blocks": plan.n_blocks,
            "largest_block": plan.largest_block,
            "block_count_s": block_s,
            "block_expected_s": marg_s,
            "expected_cracks": float(marginals.sum()),
        }
        if n <= RYSER_TIMING_CAP:
            ryser_count, ryser_s = time_call(_ryser, space.adjacency_matrix())
            row["ryser_count_s"] = ryser_s
            row["count_agrees_with_ryser"] = float(count) == ryser_count
            if check:
                assert float(count) == ryser_count, (
                    f"n={n}: block-Ryser count {count} != Ryser {ryser_count}"
                )
        rows.append(row)
        print(
            f"  n={n:5d}  {plan.strategy:18s} blocks={plan.n_blocks:3d} "
            f"E[X]={row['expected_cracks']:9.4f}  block={marg_s:8.4f}s"
            + (f"  ryser={row['ryser_count_s']:8.4f}s" if "ryser_count_s" in row else "")
        )
    return rows


def recipe_instance(name: str, seed: int = 0):
    """The recipe's interval-rung space (width delta_med) on a profile
    calibrated to the named FIMI benchmark."""
    from repro.beliefs.builders import uniform_width_belief
    from repro.data.frequency import FrequencyGroups
    from repro.datasets.benchmarks import BENCHMARK_SPECS, generate_benchmark_profile

    profile = generate_benchmark_profile(
        BENCHMARK_SPECS[name], np.random.default_rng(seed)
    )
    frequencies = profile.frequencies()
    delta = FrequencyGroups(frequencies).median_gap()
    return space_from_frequencies(uniform_width_belief(frequencies, delta), frequencies)


def item_graph_classification(space):
    """Edge classification on the explicit item graph (Hopcroft–Karp +
    Tarjan over every edge) — what ``classify_edges`` did for frequency
    spaces before the twin quotient, adjacency materialization included."""
    return classify_adjacency([tuple(space.candidates(i)) for i in range(space.n)])


def bench_classify(sizes, with_pumsb: bool, check: bool) -> list[dict]:
    instances = [(f"interval-{n}", lambda n=n: interval_instance(n, seed=n)) for n in sizes]
    if with_pumsb:
        instances.append(("pumsb-delta-med", lambda: recipe_instance("pumsb")))
    rows = []
    for name, build in instances:
        space = build()
        quotient, quotient_s = time_call(classify_edges, space)
        explicit, item_s = time_call(item_graph_classification, space)
        agrees = (
            quotient.infeasible == explicit.infeasible
            and quotient.forced == explicit.forced
            and quotient.n_forbidden == explicit.n_forbidden
            and all(
                quotient.undecided[i] == explicit.undecided[i]
                and quotient.forbidden[i] == explicit.forbidden[i]
                for i in range(space.n)
            )
            and reduced_blocks(quotient) == reduced_blocks(explicit)
        )
        if check:
            assert agrees, f"{name}: twin-quotient classification differs from the item graph"
        pairs = sum(len(row) for row in quotient.quotient.status)
        row = {
            "instance": name,
            "n": space.n,
            "edges": space.edge_count(),
            "class_pairs": pairs,
            "belief_groups": len(quotient.quotient.classes),
            "frequency_groups": len(space.groups),
            "forced_pairs": quotient.n_forced,
            "forbidden_edges": quotient.n_forbidden,
            "quotient_s": quotient_s,
            "item_graph_s": item_s,
            "speedup": item_s / quotient_s if quotient_s > 0 else None,
            "agrees": agrees,
        }
        rows.append(row)
        print(
            f"  {name:16s} n={space.n:5d} edges={row['edges']:7d} pairs={pairs:5d}  "
            f"quotient={quotient_s:8.4f}s  item-graph={item_s:8.4f}s "
            f"({row['speedup']:.1f}x)"
        )
    return rows


#: Seeded confirms streamed into the solver after its bootstrap.
SOLVER_CONFIRMS = 15


def bench_solver(smoke: bool, check: bool) -> list[dict]:
    """The attacker workbench on a recipe space: ``solver_from_space``,
    bootstrap, then confirms of the true partners of seeded items.

    The final partition is checked against ``classify_adjacency`` on the
    confirmed graph, rebuilt here independently of the solver.
    """
    from repro.attack.solver import Observation, solver_from_space

    rows = []
    for name in ("accidents",) if smoke else ("accidents", "pumsb"):
        space = recipe_instance(name)
        rng = np.random.default_rng(0)
        items = rng.choice(space.n, size=SOLVER_CONFIRMS, replace=False).tolist()
        adjacency = [set(space.candidates(i)) for i in range(space.n)]
        start = time.perf_counter()
        solver = solver_from_space(space)
        events = len(solver.bootstrap())
        bootstrap_s = time.perf_counter() - start
        for i in items:
            j = space.true_partner(i)
            events += len(solver.ingest(Observation(kind="confirm", item=i, anon=j)))
            adjacency[i] &= {j}
        stream_s = time.perf_counter() - start
        agrees = solver.partition == classify_adjacency(adjacency)
        if check:
            assert agrees, f"{name}: solver partition differs from classify_adjacency"
        row = {
            "instance": f"{name}-delta-med",
            "n": space.n,
            "edges": space.edge_count(),
            "confirms": len(items),
            "events": events,
            "forced_pairs": solver.partition.n_forced,
            "bootstrap_s": bootstrap_s,
            "stream_s": stream_s,
            "agrees": agrees,
        }
        rows.append(row)
        print(
            f"  {row['instance']:18s} n={space.n:5d} edges={row['edges']:7d} "
            f"events={events:6d}  bootstrap={bootstrap_s:7.3f}s "
            f"stream={stream_s:7.3f}s"
        )
    return rows


def explicit_route_blocks(space) -> list[tuple[tuple, tuple]]:
    """Identified blocks from the item-graph classification: forced
    singletons plus the undecided components, labelled and sorted as
    ``itemset_identifications`` returns them."""
    classification = item_graph_classification(space)
    index_blocks = [((i,), (j,)) for i, j in classification.forced.items()] + [
        (block.item_indices, block.anon_indices) for block in reduced_blocks(classification)
    ]
    blocks = [
        (
            tuple(sorted((space.items[i] for i in items), key=repr)),
            tuple(sorted((space.anonymized[j] for j in anons), key=repr)),
        )
        for items, anons in index_blocks
    ]
    return sorted(blocks, key=lambda block: (len(block[0]), tuple(map(repr, block[0]))))


def bench_itemsets(smoke: bool, check: bool) -> list[dict]:
    """Section 8.2's forced itemset identifications on recipe spaces,
    checked against the explicit item-graph route."""
    from repro.extensions import itemset_identifications

    rows = []
    for name in ("accidents",) if smoke else ("accidents", "pumsb"):
        space = recipe_instance(name)
        blocks, identify_s = best_of(5, itemset_identifications, space)
        agrees = [(b.items, b.anonymized) for b in blocks] == explicit_route_blocks(space)
        if check:
            assert agrees, f"{name}: itemset blocks differ from the item-graph route"
        row = {
            "instance": f"{name}-delta-med",
            "n": space.n,
            "edges": space.edge_count(),
            "blocks": len(blocks),
            "largest_block": max(len(block) for block in blocks),
            "identify_s": identify_s,
            "agrees": agrees,
        }
        rows.append(row)
        print(
            f"  {row['instance']:18s} n={space.n:5d} edges={row['edges']:7d} "
            f"blocks={row['blocks']:5d}  identify={identify_s * 1e3:8.3f}ms"
        )
    return rows


def time_call(fn, *args, **kwargs):
    start = time.perf_counter()
    value = fn(*args, **kwargs)
    return value, time.perf_counter() - start


def best_of(repeats: int, fn, *args):
    """``(value, fastest seconds)`` over *repeats* calls, for sub-ms work."""
    timed = [time_call(fn, *args) for _ in range(repeats)]
    return timed[0][0], min(seconds for _, seconds in timed)


def loop_o_estimate(space) -> float:
    """The per-call O-estimate before vectorization: outdegrees rebuilt
    from the run tuples, then one ``1.0 / O_x`` addition per compliant
    item through a generator over numpy scalars."""
    runs = [space.admissible_run(i) for i in range(space.n)]
    g_lo = np.array([r[0] for r in runs], dtype=np.int64)
    g_hi = np.array([r[1] for r in runs], dtype=np.int64)
    outdegrees = space.groups.prefix[g_hi] - space.groups.prefix[g_lo]
    compliant = set(int(i) for i in space.compliant_indices())
    return float(sum(1.0 / outdegrees[i] for i in compliant if outdegrees[i] > 0))


def bench_oestimate(smoke: bool, check: bool) -> list[dict]:
    """One O-estimate call, vectorized vs the per-item loop, on the same space."""
    names = ("pumsb",) if smoke else ("pumsb", "retail")
    instances = [("interval-200", lambda: interval_instance(200, seed=200))] + [
        (f"{name}-delta-med", lambda name=name: recipe_instance(name)) for name in names
    ]
    rows = []
    for name, build in instances:
        space = build()
        reference, loop_s = best_of(5, loop_o_estimate, space)
        vectorized, vector_s = best_of(5, lambda: o_estimate(space).value)
        agrees = vectorized == reference
        if check:
            assert agrees, f"{name}: vectorized O-estimate {vectorized!r} != loop {reference!r}"
        row = {
            "instance": name,
            "n": space.n,
            "frequency_groups": len(space.groups),
            "o_estimate": vectorized,
            "loop_s": loop_s,
            "vectorized_s": vector_s,
            "speedup": loop_s / vector_s if vector_s > 0 else None,
            "agrees": agrees,
        }
        rows.append(row)
        print(
            f"  {name:18s} n={space.n:6d}  loop={loop_s * 1e3:7.3f}ms "
            f"vectorized={vector_s * 1e3:7.3f}ms ({row['speedup']:.1f}x)"
        )
    return rows


def per_item_structures(frequencies, space):
    """The frequency groups and the space analysis built item by item, as
    before both were built from arrays: dict-grouped frequencies, then
    the per-item decomposition, belief groups and block problems."""
    from repro.graph.blocks import _decompose_frequency
    from repro.graph.exact import _frequency_block_problem
    from repro.graph.groups import BeliefGroupPartition

    by_freq: dict[float, list] = {}
    for item, freq in frequencies.items():
        by_freq.setdefault(freq, []).append(item)
    frequencies_sorted = tuple(sorted(by_freq))
    groups = tuple(tuple(sorted(by_freq[f], key=repr)) for f in frequencies_sorted)
    decomposition = _decompose_frequency(space)
    belief_groups = BeliefGroupPartition(
        [space.admissible_run(i) for i in range(space.n)]
    ).groups
    problems = tuple(
        _frequency_block_problem(space, block) for block in decomposition.blocks
    )
    return frequencies_sorted, groups, decomposition, belief_groups, problems


def array_structures(frequencies, space):
    """The same, built from arrays (a fresh analysis, not the space's memo).

    Returns the builders' objects; :func:`array_fields` reads the fields
    the reference returns, which materializes the groups' lazy tuples.
    """
    from repro.data.frequency import FrequencyGroups
    from repro.graph.groups import FrequencyAnalysis

    return FrequencyGroups(frequencies), FrequencyAnalysis(*space.admissible_runs(), space.groups)


def array_fields(groups, analysis):
    return (
        groups.frequencies_sorted,
        groups.groups,
        analysis.decomposition,
        analysis.belief_groups.groups,
        analysis.problems,
    )


def bench_space_analysis(smoke: bool, check: bool) -> list[dict]:
    """Frequency groups and the space analysis, from arrays vs item by item."""
    from repro.beliefs.builders import uniform_width_belief
    from repro.data.frequency import FrequencyGroups
    from repro.datasets.benchmarks import BENCHMARK_SPECS, generate_benchmark_profile

    rows = []
    for name in ("pumsb",) if smoke else ("pumsb", "retail"):
        profile = generate_benchmark_profile(BENCHMARK_SPECS[name], np.random.default_rng(0))
        frequencies = profile.frequencies()
        delta = FrequencyGroups(frequencies).median_gap()
        space = space_from_frequencies(uniform_width_belief(frequencies, delta), frequencies)
        reference, item_s = best_of(5, per_item_structures, frequencies, space)
        built, array_s = best_of(5, array_structures, frequencies, space)
        arrays = array_fields(*built)
        # BlockProblem is a named tuple: it equals the reference's plain tuple.
        agrees = arrays == reference
        if check:
            assert agrees, f"{name}: array-built groups or analysis differ from per-item"
        decomposition = arrays[2]
        row = {
            "instance": f"{name}-delta-med",
            "n": space.n,
            "frequency_groups": len(arrays[0]),
            "belief_groups": len(arrays[3]),
            "blocks": len(decomposition.blocks),
            "matchable": decomposition.matchable,
            "per_item_s": item_s,
            "arrays_s": array_s,
            "speedup": item_s / array_s if array_s > 0 else None,
            "agrees": agrees,
        }
        rows.append(row)
        print(
            f"  {row['instance']:18s} n={space.n:6d} blocks={row['blocks']:5d}  "
            f"per-item={item_s * 1e3:7.3f}ms arrays={array_s * 1e3:7.3f}ms "
            f"({row['speedup']:.1f}x)"
        )
    return rows


def ryser_expected_cracks(space) -> float:
    """The historical direct method: one Ryser minor per item."""
    matrix = space.adjacency_matrix()
    total = _ryser(matrix)
    expected = 0.0
    for i in range(space.n):
        j = space.true_partner(i)
        if matrix[j, i] == 0.0:
            continue
        minor = np.delete(np.delete(matrix, j, axis=0), i, axis=1)
        expected += _ryser(minor) / total
    return expected


class LegacyGibbs(GibbsAssignmentSampler):
    """The pre-vectorization sweep: Python lists and per-item loops."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._members = [[] for _ in range(self.k)]
        for i in range(self.n):
            self._members[int(self._assign[i])].append(i)

    def _resample_boundary(self, g: int) -> None:
        h = g + 1
        g_lo, g_hi = self._g_lo, self._g_hi
        flexible = [i for i in self._members[g] if g_lo[i] <= g and g_hi[i] > h] + [
            i for i in self._members[h] if g_lo[i] <= g and g_hi[i] > h
        ]
        if len(flexible) < 2:
            return
        quota_g = sum(1 for i in self._members[g] if g_lo[i] <= g and g_hi[i] > h)
        order = self.rng.permutation(len(flexible))
        keep_g = {flexible[int(j)] for j in order[:quota_g]}
        self._members[g] = [
            i for i in self._members[g] if not (g_lo[i] <= g and g_hi[i] > h)
        ]
        self._members[h] = [
            i for i in self._members[h] if not (g_lo[i] <= g and g_hi[i] > h)
        ]
        for i in flexible:
            target = g if i in keep_g else h
            self._members[target].append(i)
            self._assign[i] = target


def check_estimate_ladder(space, rung: str) -> None:
    """The ladder's sum, and the ``auto`` marginals, equal exact ``E[X]``."""
    expected = float(crack_marginals_exact(space).sum())  # expected_cracks_exact
    value, stderr, strategy = best_expected_cracks(space)
    assert (strategy, stderr) == (rung, 0.0), (strategy, stderr, rung)
    assert abs(value - expected) <= 1e-12, f"ladder E[X] {value} != exact {expected}"
    auto = float(crack_marginals(space).sum())
    assert abs(auto - expected) <= 1e-12, f"auto marginals sum {auto} != exact {expected}"


def check_chain_ladder(seed: int = 3) -> None:
    """On a seeded chain: the engine's rung, then the closed form past the gate."""
    rng = np.random.default_rng(seed)
    k = 4
    exclusive = [int(x) for x in rng.integers(0, 4, size=k)]
    lower = [int(x) for x in rng.integers(1, 4, size=k - 1)]
    upper = [int(x) for x in rng.integers(1, 4, size=k - 1)]
    sizes = [
        exclusive[g] + (upper[g - 1] if g else 0) + (lower[g] if g < k - 1 else 0)
        for g in range(k)
    ]
    shared = [c + d for c, d in zip(lower, upper)]
    space = space_from_chain(ChainSpec(tuple(sizes), tuple(exclusive), tuple(shared)))
    check_estimate_ladder(space, exact_strategy(space).strategy)
    saved = graph_exact.EXACT_COST_BUDGET
    graph_exact.EXACT_COST_BUDGET = -1  # the gate turns every plan away
    try:
        check_estimate_ladder(space, "chain")
    finally:
        graph_exact.EXACT_COST_BUDGET = saved


def bench_exact_engine(sizes, check: bool) -> list[dict]:
    rows = []
    for n in sizes:
        space = interval_instance(n, seed=n)
        plan, plan_s = time_call(exact_strategy, space)
        count, dp_count_s = time_call(count_matchings_exact, space)
        marginals, dp_marginals_s = time_call(crack_marginals_exact, space)
        expected = float(marginals.sum())  # what expected_cracks_exact returns
        law, dp_law_s = time_call(crack_distribution_exact, space)
        row = {
            "n": n,
            "strategy": plan.strategy,
            "n_blocks": plan.n_blocks,
            "largest_block": plan.largest_block,
            "cost_hint": plan.cost_hint,
            "plan_s": plan_s,
            "interval_dp_count_s": dp_count_s,
            "interval_dp_expected_s": dp_marginals_s,
            "interval_dp_law_s": dp_law_s,
            "expected_cracks": expected,
            "matchings_log10": None if count <= 0 else len(str(count)) - 1,
        }
        if check:
            # Two of the DP's three sweeps cross-check: the crack law's
            # mean is the sum of the placement-total marginals.
            law_mean = float(np.arange(len(law)) @ law)
            assert abs(float(law.sum()) - 1.0) < 1e-9, f"n={n}: crack law sums to {law.sum()}"
            assert abs(law_mean - expected) < 1e-9, (
                f"n={n}: crack-law mean {law_mean} != exact E[X] {expected}"
            )
        if n <= RYSER_TIMING_CAP:
            ryser_count, ryser_s = time_call(_ryser, space.adjacency_matrix())
            # Ryser's 2^n signed float accumulation loses ~1e-9 relative
            # accuracy past n=12; bit-identity is only claimed below that.
            if n <= RYSER_MINORS_CAP:
                agrees = float(count) == ryser_count
            else:
                agrees = abs(float(count) - ryser_count) <= 1e-6 * ryser_count
            row["ryser_count_s"] = ryser_s
            row["count_agrees_with_ryser"] = agrees
            if check:
                assert agrees, (
                    f"n={n}: interval-DP count {count} != Ryser {ryser_count}"
                )
        if n <= RYSER_MINORS_CAP:
            ryser_expected, ryser_exp_s = time_call(ryser_expected_cracks, space)
            row["ryser_expected_s"] = ryser_exp_s
            row["expected_agrees_with_ryser"] = abs(expected - ryser_expected) < 1e-9
            if check:
                assert abs(expected - ryser_expected) < 1e-9, (
                    f"n={n}: DP E[X] {expected} != Ryser {ryser_expected}"
                )
                check_estimate_ladder(space, plan.strategy)
        rows.append(row)
        print(
            f"  n={n:5d}  {plan.strategy:18s} blocks={plan.n_blocks:3d} "
            f"E[X]={expected:9.4f}  dp={dp_marginals_s:8.4f}s"
            + (f"  ryser={row['ryser_expected_s']:8.4f}s" if "ryser_expected_s" in row else "")
        )
    return rows


def legacy_block_expected(space) -> float:
    """The pre-batching explicit-block path: one pure-Python Ryser walk
    per block total and per item minor (what ``crack_marginals_exact``
    did before the vectorized kernels)."""
    from repro.graph.blocks import decompose
    from repro.graph.exact import _block_adjacency

    expected = 0.0
    for block in decompose(space).blocks:
        matrix = _block_adjacency(space, block)
        total = _ryser(matrix)
        anon_local = {j: r for r, j in enumerate(block.anon_indices)}
        for c, i in enumerate(block.item_indices):
            j = space.true_partner(i)
            row = anon_local.get(j)
            if row is None or matrix[row, c] == 0:
                continue
            minor = np.delete(np.delete(matrix, row, axis=0), c, axis=1)
            expected += _ryser(minor) / total
    return expected


def bench_kernels(smoke: bool, check: bool) -> dict:
    """Before/after trajectory for the vectorized exact kernels.

    Three headline rows: ``permanent_batch`` on one matrix (the chunked
    numpy walk from n = 10) vs the pure-Python walk, the batched block engine vs the per-block loop on
    the n=200 explicit workload, and a 20-tolerance assessment sweep
    with and without the DP/engine memo layer.
    """
    from repro.data.database import FrequencyProfile
    from repro.graph.intervaldp import clear_dp_memo
    from repro.graph.kernels import permanent_batch
    from repro.io import assessment_to_json
    from repro.service.engine import AssessmentEngine

    rng = np.random.default_rng(7)
    chunked_rows = []
    for n in (8, 10, 12) if smoke else (12, 14, 16, 18):
        matrix = rng.integers(0, 2, size=(n, n))
        pure, pure_s = time_call(_ryser, matrix)
        (vec,), vec_s = time_call(permanent_batch, [matrix])
        if check:
            assert pure == vec, f"n={n}: chunked Ryser {vec} != pure {pure}"
        chunked_rows.append(
            {
                "n": n,
                "pure_python_s": pure_s,
                "chunked_s": vec_s,
                "speedup": pure_s / vec_s if vec_s > 0 else None,
            }
        )
        print(
            f"  chunked-ryser n={n}: pure {pure_s:.4f}s, chunked {vec_s:.4f}s "
            f"({chunked_rows[-1]['speedup']:.1f}x)"
        )

    n_block = 50 if smoke else 200
    space = explicit_block_instance(n_block, block_size=10, seed=n_block)
    legacy_expected, legacy_s = time_call(legacy_block_expected, space)
    marginals, batched_s = time_call(crack_marginals_exact, space)
    batched_expected = float(marginals.sum())
    if check:
        assert abs(legacy_expected - batched_expected) < 1e-9, (
            f"batched block marginals {batched_expected} != legacy {legacy_expected}"
        )
    block_row = {
        "n": n_block,
        "legacy_expected_s": legacy_s,
        "batched_expected_s": batched_s,
        "speedup": legacy_s / batched_s if batched_s > 0 else None,
        "expected_cracks": batched_expected,
    }
    print(
        f"  block-ryser n={n_block}: legacy {legacy_s:.4f}s, batched "
        f"{batched_s:.4f}s ({block_row['speedup']:.1f}x)"
    )

    n_sweep, n_groups = (80, 16) if smoke else (200, 40)
    counts = {f"item{i}": 10 + (i % n_groups) * 20 for i in range(n_sweep)}
    profile = FrequencyProfile(counts, 1000)
    tolerances = [round(0.01 + 0.005 * t, 6) for t in range(5 if smoke else 20)]

    def run_sweep(reuse: bool) -> tuple[list[dict], float]:
        engine = AssessmentEngine()
        clear_dp_memo()
        start = time.perf_counter()
        outcomes = []
        for tolerance in tolerances:
            if not reuse:
                # Emulate the pre-memo engine: every tolerance re-solves
                # the DP and the engine's intermediates from scratch.
                engine = AssessmentEngine()
                clear_dp_memo()
            outcomes.append(engine.assess(profile, tolerance, runs=3, seed=0))
        elapsed = time.perf_counter() - start
        return [assessment_to_json(o.assessment) for o in outcomes], elapsed

    baseline_results, baseline_s = run_sweep(reuse=False)
    memo_results, memo_s = run_sweep(reuse=True)
    if check:
        assert memo_results == baseline_results, (
            "sweep results changed under the DP/engine memo"
        )
    sweep_row = {
        "n": n_sweep,
        "tolerances": len(tolerances),
        "baseline_s": baseline_s,
        "memo_s": memo_s,
        "speedup": baseline_s / memo_s if memo_s > 0 else None,
    }
    print(
        f"  sweep n={n_sweep} x{len(tolerances)} tolerances: baseline "
        f"{baseline_s:.4f}s, memo {memo_s:.4f}s ({sweep_row['speedup']:.1f}x)"
    )
    return {
        "chunked_ryser": chunked_rows,
        "block_ryser_batched": block_row,
        "sweep_reuse": sweep_row,
    }


def bench_gibbs(n: int, sweeps: int) -> dict:
    # Few wide groups put ~n/20 flexible items on every boundary — the
    # regime where the vectorized sweep pays off over the Python loop.
    space = interval_instance(n, seed=n, group_size=max(n // 20, 2), max_halfwidth=1)
    legacy = LegacyGibbs(space, rng=np.random.default_rng(1))
    _, legacy_s = time_call(legacy.sweep, sweeps)
    vectorized = GibbsAssignmentSampler(space, rng=np.random.default_rng(1))
    _, vector_s = time_call(vectorized.sweep, sweeps)
    assert vectorized.check_consistency(), "vectorized sweep broke feasibility"
    result = {
        "n": n,
        "sweeps": sweeps,
        "legacy_s": legacy_s,
        "vectorized_s": vector_s,
        "speedup": legacy_s / vector_s if vector_s > 0 else None,
    }
    print(
        f"  gibbs n={n}: legacy {legacy_s:.4f}s, vectorized {vector_s:.4f}s "
        f"({result['speedup']:.1f}x)"
    )
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="tiny sizes, assert strategy agreement, write nothing",
    )
    parser.add_argument(
        "--output",
        default=str(Path(__file__).resolve().parent.parent / "BENCH_graph.json"),
        help="where to write the JSON report (full mode only)",
    )
    args = parser.parse_args(argv)

    sizes = SMOKE_SIZES if args.smoke else FULL_SIZES
    print(f"interval-DP engine ({'smoke' if args.smoke else 'full'}):")
    engine_rows = bench_exact_engine(sizes, check=True)
    check_chain_ladder()
    law = _match_count_law(1000, 1000)
    assert abs(math.fsum(law) - 1.0) <= 1e-12, f"1000-item rencontres law sums to {math.fsum(law)}"
    print("  estimate ladder agrees with exact E[X]; 1000-item rencontres law sums to 1")
    print("block-Ryser engine:")
    block_rows = bench_block_ryser(
        (10, 12) if args.smoke else (12, 50, 200), check=True
    )
    print("edge classification (twin quotient vs item graph):")
    classify_rows = bench_classify(
        (50, 200) if args.smoke else (200, 1000, 5000), with_pumsb=not args.smoke, check=True
    )
    print("O-estimate (vectorized vs per-item loop):")
    oestimate_rows = bench_oestimate(smoke=args.smoke, check=True)
    print("frequency groups + space analysis (arrays vs per-item):")
    space_rows = bench_space_analysis(smoke=args.smoke, check=True)
    gibbs = bench_gibbs(n=200 if args.smoke else 1000, sweeps=5 if args.smoke else 20)
    print("vectorized kernels and sweep memo:")
    kernels = bench_kernels(smoke=args.smoke, check=True)
    print(f"streaming solver (bootstrap + {SOLVER_CONFIRMS} confirms):")
    solver_rows = bench_solver(smoke=args.smoke, check=True)
    print("forced itemset identifications (Section 8.2):")
    itemset_rows = bench_itemsets(smoke=args.smoke, check=True)

    if args.smoke:
        committed = Path(args.output)
        if committed.exists():
            snapshot = json.loads(committed.read_text())
            assert "kernels" in snapshot, (
                f"{committed} lacks the 'kernels' section — regenerate with a "
                "full benchmark run"
            )
            print(f"committed {committed.name} has the kernels section")
        print("smoke OK: all strategies agree")
        return 0

    # Acceptance floors for the recorded trajectory: the batched block
    # engine and the sweep memo must beat the legacy paths decisively.
    assert kernels["block_ryser_batched"]["speedup"] >= 2.0, kernels
    assert kernels["sweep_reuse"]["speedup"] >= 3.0, kernels

    output = Path(args.output)
    previous = json.loads(output.read_text()) if output.exists() else {}
    report = {
        "benchmark": "bench_graph",
        "schema": 1,
        "interval_dp": engine_rows,
        "block_ryser": block_rows,
        "classify": classify_rows,
        "oestimate": oestimate_rows,
        "space": space_rows,
        "gibbs_sweep": gibbs,
        "kernels": kernels,
        # Keeps hand-recorded entries (a baseline) beside the fresh rows.
        "solver": {**previous.get("solver", {}), "rows": solver_rows},
        "itemsets": {**previous.get("itemsets", {}), "rows": itemset_rows},
    }
    output.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    print(f"wrote {output}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
