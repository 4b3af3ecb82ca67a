"""Assess-Risk — the suggested recipe of Figure 8.

Given the owner's database (or its frequency profile) and a *degree of
tolerance* ``tau`` (the fraction of items the owner can afford to see
cracked), the recipe proceeds through three increasingly realistic hacker
models:

1. **Point-valued** (worst case): expected cracks = ``g``, the number of
   frequency groups (Lemma 3).  If already within tolerance, disclose.
2. **Compliant interval** with half-width ``delta_med`` (the median gap
   between frequency groups): compute the O-estimate.  If within
   tolerance, disclose.
3. **alpha-compliant**: find ``alpha_max``, the largest degree of
   compliancy keeping the expected cracks within tolerance.  The owner
   then judges whether a hacker is plausibly that well-informed —
   Similarity-by-Sampling (Figure 13) helps anchor that judgement.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from repro.beliefs.builders import uniform_width_belief
from repro.budget import ComputeBudget, PartialEstimate
from repro.core.alpha import alpha_max as compute_alpha_max
from repro.core.oestimate import OEstimateResult, o_estimate
from repro.data.database import FrequencySource
from repro.data.frequency import FrequencyGroups
from repro.errors import BudgetExceeded, GraphError, RecipeError
from repro.graph.bipartite import FrequencyMappingSpace, space_from_frequencies
from repro.graph.exact import gated_marginals

__all__ = ["AttackSummary", "Decision", "RecipeStages", "RiskAssessment", "assess_risk"]


def _exact_marginals(
    space: FrequencyMappingSpace,
    budget: ComputeBudget | None = None,
) -> tuple[np.ndarray | None, str | None]:
    """Exact per-item crack marginals and the strategy, or ``(None, None)``.

    ``(None, None)`` means the exact engine has no cheap plan (or the
    budget ran out) and the interval rung falls back to the O-estimate
    alone.  The marginals do not depend on the interest subset, so one
    result serves every subset (:func:`_exact_cracks`).
    """
    plan, marginals = gated_marginals(space, budget)
    if not plan.matchable:
        return np.zeros(space.n), plan.strategy
    if marginals is None:
        return None, None
    return marginals, plan.strategy


def _exact_cracks(
    space: FrequencyMappingSpace,
    marginals: np.ndarray | None,
    interest: frozenset | None,
) -> float | None:
    """Exact expected cracks among *interest* (every item when ``None``)."""
    if marginals is None:
        return None
    if interest is None:
        return float(marginals.sum())
    indices = [space.item_index(x) for x in interest]
    return float(marginals[indices].sum())


@dataclass(frozen=True)
class AttackSummary:
    """What the attacker workbench certifies about the interval rung.

    Produced by the solver's exact edge classification
    (:mod:`repro.graph.refine`): ``forced_pairs`` edges are in *every*
    consistent mapping, of which ``certified_cracks`` coincide with the
    ground truth — a hacker with the interval belief identifies that
    many items with certainty, no matter which consistent mapping they
    pick.  The reduction fields record how much the solver shrinks the
    exact engine's problem (see ``docs/attack.md``).
    """

    forced_pairs: int
    certified_cracks: int
    forbidden_edges: int
    largest_block_before: int
    largest_block_after: int


#: Edge guard for the attack summary: classification needs an explicit
#: adjacency, and the summary is an enrichment, never worth a blow-up.
ATTACK_SUMMARY_MAX_EDGES = 2_000_000


def _attack_summary(
    space: FrequencyMappingSpace,
    budget: ComputeBudget | None = None,
) -> AttackSummary | None:
    """Solver-certified attack facts for the interval rung, or ``None``.

    Skipped (returning ``None``) when the graph is too large for an
    explicit adjacency or the compute budget runs out — like the exact
    enrichment, the summary degrades to absent rather than failing the
    assessment.
    """
    from repro.graph.blocks import decompose
    from repro.graph.refine import classify_edges, reduced_blocks

    try:
        classification = classify_edges(
            space, budget=budget, max_edges=ATTACK_SUMMARY_MAX_EDGES
        )
    except BudgetExceeded:
        return None
    except GraphError:
        return None
    # Both are read, not computed: the decomposition is the space's
    # analysis, shared with the exact stage, and the frequency
    # classification counted its certified cracks while classifying.
    before = decompose(space).largest_block
    if classification.infeasible:
        return AttackSummary(
            forced_pairs=0,
            certified_cracks=0,
            forbidden_edges=classification.n_forbidden,
            largest_block_before=before,
            largest_block_after=0,
        )
    after = max((block.n for block in reduced_blocks(classification)), default=0)
    return AttackSummary(
        forced_pairs=classification.n_forced,
        certified_cracks=classification.certified_cracks,
        forbidden_edges=classification.n_forbidden,
        largest_block_before=before,
        largest_block_after=after,
    )


class Decision(enum.Enum):
    """The recipe's outcome."""

    DISCLOSE_POINT_VALUED = "disclose: safe even against exact frequency knowledge"
    DISCLOSE_INTERVAL = "disclose: safe against ball-park (median-gap) frequency knowledge"
    ALPHA_BOUND = "judgement call: safe only below the reported alpha_max compliancy"
    INCONCLUSIVE = "inconclusive: the compute budget ran out before a decision rung settled"


@dataclass(frozen=True)
class RiskAssessment:
    """Everything the recipe computed on the way to its decision.

    Attributes
    ----------
    decision:
        Which rung of the recipe settled the matter.
    tolerance:
        The owner's ``tau``.
    n_items:
        Domain size.
    g:
        Number of frequency groups — the point-valued expected cracks
        (Lemma 3).
    delta:
        The interval half-width used (``delta_med`` unless overridden).
    interval_estimate:
        The fully compliant interval O-estimate (step 6), ``None`` when
        the recipe stopped at step 2.
    alpha_max:
        Largest tolerable degree of compliancy (step 9), ``None`` unless
        the recipe reached step 8.
    interest:
        The owner's subset ``I_1`` of items of interest (Lemmas 2 and 4),
        ``None`` when every item counted.
    runs:
        Averaging runs used by the alpha-compliant stage, ``None`` when
        the recipe stopped before step 8.
    exact_cracks:
        Exact expected cracks for the interval-belief space, when the
        structure-exploiting engine (:mod:`repro.graph.exact`) found a
        cheap plan; ``None`` when exact was skipped or infeasible.  The
        decision itself stays on the paper's Figure-8 O-estimate rule;
        the exact value quantifies the O-estimate's known downward bias
        (see EXPERIMENTS.md) so owners can judge the margin.
    exact_strategy:
        Which exact engine ran (``"interval-dp"``, ``"block-ryser"``,
        ...), ``None`` when exact was skipped.
    partial_estimate:
        When the compute budget ran out mid-recipe, the best bounded
        estimate reached before exhaustion (with its standard error and
        ladder rung); ``None`` for a complete assessment.
    attack:
        The attacker workbench's certified facts for the interval-rung
        space (forced pairs, solver-certified minimum cracks, and the
        solver reduction); ``None`` when the recipe stopped at the
        point-valued rung or the summary was skipped.
    """

    decision: Decision
    tolerance: float
    n_items: int
    g: int
    delta: float | None = None
    interval_estimate: OEstimateResult | None = None
    alpha_max: float | None = None
    interest: frozenset | None = None
    runs: int | None = None
    exact_cracks: float | None = None
    exact_strategy: str | None = None
    partial_estimate: PartialEstimate | None = None
    attack: AttackSummary | None = None

    @property
    def disclose(self) -> bool:
        """True when the recipe reached an unconditional disclose."""
        return self.decision in (
            Decision.DISCLOSE_POINT_VALUED,
            Decision.DISCLOSE_INTERVAL,
        )

    @property
    def partial(self) -> bool:
        """True when the budget expired before the recipe could finish."""
        return self.decision is Decision.INCONCLUSIVE

    def summary(self) -> str:
        """A human-readable account of the assessment."""
        lines = [
            f"domain: {self.n_items} items, tolerance tau = {self.tolerance}",
            f"point-valued expected cracks g = {self.g} "
            f"({self.g / self.n_items:.4f} of domain)",
        ]
        if self.interest is not None:
            lines.append(f"interest subset: {len(self.interest)} items")
        if self.delta is not None:
            lines.append(f"interval half-width delta_med = {self.delta:.6g}")
        if self.interval_estimate is not None:
            lines.append(
                f"compliant-interval O-estimate = {self.interval_estimate.value:.2f} "
                f"({self.interval_estimate.fraction:.4f} of domain)"
            )
        if self.exact_cracks is not None:
            lines.append(
                f"exact expected cracks = {self.exact_cracks:.4f} "
                f"(strategy: {self.exact_strategy})"
            )
        if self.attack is not None:
            lines.append(
                f"solver-certified cracks = {self.attack.certified_cracks} "
                f"({self.attack.forced_pairs} forced pairs, "
                f"{self.attack.forbidden_edges} forbidden edges)"
            )
        if self.alpha_max is not None:
            lines.append(f"alpha_max = {self.alpha_max:.3f}")
        if self.partial_estimate is not None:
            pe = self.partial_estimate
            lines.append(
                f"partial estimate = {pe.value:.2f} +/- {pe.std_error:.2f} "
                f"(rung: {pe.rung}, budget: {pe.reason})"
            )
        lines.append(f"decision: {self.decision.value}")
        return "\n".join(lines)


class RecipeStages:
    """The recipe's intermediates, one method per stage.

    :func:`assess_risk` asks its *stages* for every expensive value, so a
    caller can memoize or time them without a second copy of the recipe
    (the service engine keys them by profile hash and ``delta``).  These
    defaults compute each value from scratch.
    """

    def groups(self, source: FrequencySource) -> tuple[dict, FrequencyGroups]:
        """The item frequencies and their frequency groups."""
        frequencies = source.frequencies()
        return frequencies, FrequencyGroups(frequencies)

    def space(self, frequencies: dict, delta: float) -> FrequencyMappingSpace:
        """The compliant interval belief's mapping space of half-width *delta*."""
        belief = uniform_width_belief(frequencies, delta)
        return space_from_frequencies(belief, frequencies)

    def o_estimate(
        self, space: FrequencyMappingSpace, interest: frozenset | None
    ) -> OEstimateResult:
        """The fully compliant O-estimate (step 6)."""
        return o_estimate(space, interest=interest)

    def exact(
        self, space: FrequencyMappingSpace, budget: ComputeBudget | None
    ) -> tuple[np.ndarray | None, str | None]:
        """Exact per-item crack marginals and the strategy, or ``(None, None)``."""
        return _exact_marginals(space, budget)

    def attack(
        self, space: FrequencyMappingSpace, budget: ComputeBudget | None
    ) -> AttackSummary | None:
        """The attacker workbench's certified facts, or ``None``."""
        return _attack_summary(space, budget)

    def alpha(
        self,
        space: FrequencyMappingSpace,
        tolerance: float,
        runs: int,
        rng: np.random.Generator | None,
        interest: frozenset | None,
    ) -> float:
        """The largest tolerable degree of compliancy (step 9)."""
        return compute_alpha_max(space, tolerance, runs=runs, rng=rng, interest=interest)


_DEFAULT_STAGES = RecipeStages()


def assess_risk(
    source: FrequencySource,
    tolerance: float,
    delta: float | None = None,
    runs: int = 5,
    rng: np.random.Generator | None = None,
    interest: "Iterable | None" = None,
    budget: ComputeBudget | None = None,
    *,
    stages: RecipeStages = _DEFAULT_STAGES,
) -> RiskAssessment:
    """Run the Assess-Risk recipe (Figure 8) on a database or profile.

    Parameters
    ----------
    source:
        The owner's data — a :class:`TransactionDatabase` or
        :class:`FrequencyProfile`.
    tolerance:
        ``tau`` — the fraction of items the owner can tolerate cracked.
    delta:
        Interval half-width override; defaults to the median frequency
        gap ``delta_med`` (step 4).
    runs:
        Averaging runs for the alpha-compliant stage (Section 6.2 uses 5).
    rng:
        Randomness for the alpha-compliant subsets.
    interest:
        Optional subset ``I_1`` of items the owner actually cares about
        (Lemmas 2 and 4 — e.g. the frequent items or those with the
        highest margin).  Every stage then counts expected cracks among
        these items only, against a budget of ``tolerance * |I_1|``.
    budget:
        Optional :class:`~repro.budget.ComputeBudget`, polled before the
        O-estimate and before the alpha search and threaded into the
        exact and attack stages.  When it runs out *after* the interval
        rung has produced a bounded estimate, the recipe returns an
        ``INCONCLUSIVE`` assessment carrying a
        :class:`~repro.budget.PartialEstimate` instead of raising; when
        nothing is ready yet, :class:`~repro.errors.BudgetExceeded`
        propagates with ``partial=None``.
    stages:
        Provider of the stage intermediates (:class:`RecipeStages`);
        the default computes each one from scratch.
    """
    if not 0.0 <= tolerance <= 1.0:
        raise RecipeError(f"tolerance must be in [0, 1], got {tolerance}")
    frequencies, groups = stages.groups(source)
    n = len(frequencies)
    g = len(groups)
    if interest is not None:
        interest = frozenset(interest)
        if not interest:
            raise RecipeError("the interest subset must be non-empty")
    basis = n if interest is None else len(interest)

    # Steps 1-2: the point-valued worst case (Lemma 3, or Lemma 4 for a
    # subset of interest).
    if interest is None:
        point_valued = float(g)
    else:
        from repro.core.exact import expected_cracks_point_valued_subset

        point_valued = expected_cracks_point_valued_subset(groups, interest)
    if point_valued <= tolerance * basis:
        return RiskAssessment(
            decision=Decision.DISCLOSE_POINT_VALUED,
            tolerance=tolerance,
            n_items=n,
            g=g,
            interest=interest,
        )

    # Steps 3-5: compliant interval belief with the median-gap width.
    if delta is None:
        if g < 2:
            raise RecipeError(
                "a single frequency group has no gaps; pass delta explicitly"
            )
        delta = groups.median_gap()
    space = stages.space(frequencies, delta)

    # Steps 6-7: the fully compliant O-estimate decides (Figure 8); the
    # structure-exploiting engine additionally reports the *exact*
    # expected cracks whenever it has a cheap plan (interval beliefs
    # usually do — see docs/exact.md), exposing the O-estimate's bias.
    # Nothing is bounded yet, so exhaustion here propagates partial-less.
    if budget is not None:
        budget.poll()
    estimate = stages.o_estimate(space, interest)
    marginals, exact_strategy_name = stages.exact(space, budget)
    exact_cracks = _exact_cracks(space, marginals, interest)
    attack = stages.attack(space, budget)
    if estimate.value <= tolerance * basis:
        return RiskAssessment(
            decision=Decision.DISCLOSE_INTERVAL,
            tolerance=tolerance,
            n_items=n,
            g=g,
            delta=delta,
            interval_estimate=estimate,
            interest=interest,
            exact_cracks=exact_cracks,
            exact_strategy=exact_strategy_name,
            attack=attack,
        )

    # Steps 8-9: search for the largest tolerable degree of compliancy.
    # The interval rung's O-estimate is a bounded answer, so exhaustion
    # from here on degrades to an INCONCLUSIVE partial assessment.
    try:
        if budget is not None:
            budget.poll()
        alpha = stages.alpha(space, tolerance, runs, rng, interest)
    except BudgetExceeded as exc:
        partial = exc.partial if isinstance(exc.partial, PartialEstimate) else (
            PartialEstimate(
                value=float(estimate.value),
                std_error=0.0,
                sweeps_completed=0,
                rung="o-estimate",
                reason=exc.reason,
            )
        )
        return RiskAssessment(
            decision=Decision.INCONCLUSIVE,
            tolerance=tolerance,
            n_items=n,
            g=g,
            delta=delta,
            interval_estimate=estimate,
            interest=interest,
            exact_cracks=exact_cracks,
            exact_strategy=exact_strategy_name,
            partial_estimate=partial,
            attack=attack,
        )
    return RiskAssessment(
        decision=Decision.ALPHA_BOUND,
        tolerance=tolerance,
        n_items=n,
        g=g,
        delta=delta,
        interval_estimate=estimate,
        alpha_max=alpha,
        interest=interest,
        runs=runs,
        exact_cracks=exact_cracks,
        exact_strategy=exact_strategy_name,
        attack=attack,
    )
