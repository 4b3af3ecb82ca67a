"""The reusable Assess-Risk engine behind the service layer.

:func:`repro.recipe.assess.assess_risk` is the one implementation of the
recipe.  The :class:`AssessmentEngine` wraps it in what a server needs:

* **Result cache** — answers are content-addressed by
  :func:`~repro.service.fingerprint.request_fingerprint`; a repeated
  question is a dictionary lookup (plus an optional disk tier, see
  :class:`~repro.service.cache.AssessmentCache`).
* **Shared intermediates** — the engine hands the recipe a
  :class:`~repro.recipe.assess.RecipeStages` subclass backed by two
  :class:`~repro.memo.BoundedLRU` memos: the :class:`FrequencyGroups`
  per profile, and one entry per ``(profile, delta)`` holding the
  belief + bipartite :class:`MappingSpace` with the exact marginals and
  attack summary derived from it.  A tolerance sweep over one release,
  or a batch of requests against the same data with any interest
  subsets, builds them once.  Each stage that computes is timed as
  ``stage:<name>``.
* **Deterministic randomness** — the alpha stage's RNG is seeded from
  the request fingerprint (:func:`~repro.service.fingerprint.derived_seed`),
  so the same question yields byte-identical JSON whether it arrives
  over HTTP, through :meth:`assess_many`, or in another replica.
* **One path** — :meth:`assess_request` and every :meth:`assess_many`
  slot take the same cache/compute decision (:meth:`_answer`), behind
  the same circuit breaker.
* **Retries and deadlines** — batch slots retry transient failures with
  backoff, and a per-request :class:`~repro.budget.ComputeBudget`
  degrades the recipe to an INCONCLUSIVE answer; nothing computed by
  a request whose budget ran out is cached.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Any, Iterable, Sequence

import numpy as np

from repro.beliefs.builders import uniform_width_belief
from repro.budget import ComputeBudget
from repro.core.alpha import alpha_max as compute_alpha_max
from repro.core.oestimate import OEstimateResult, o_estimate
from repro.data.database import FrequencyProfile, FrequencySource, as_profile
from repro.data.frequency import FrequencyGroups
from repro.errors import ReproError
from repro.graph.bipartite import FrequencyMappingSpace, space_from_frequencies
from repro.memo import MISSING, BoundedLRU, Missing
from repro.recipe.assess import AttackSummary, RecipeStages, RiskAssessment, assess_risk
from repro.service.breaker import CircuitBreaker
from repro.service.cache import AssessmentCache
from repro.service.faults import fault_point
from repro.service.fingerprint import (
    AssessmentParams,
    derived_seed,
    profile_fingerprint,
    request_fingerprint,
)
from repro.service.metrics import ServiceMetrics

__all__ = ["AssessmentOutcome", "BatchResult", "AssessmentEngine"]


@dataclass(frozen=True)
class AssessmentOutcome:
    """One answered question: the assessment plus serving metadata."""

    assessment: RiskAssessment
    fingerprint: str
    cached: bool
    elapsed_seconds: float


@dataclass(frozen=True)
class BatchResult:
    """One slot of an :meth:`AssessmentEngine.assess_many` batch.

    Either *assessment* is set (``ok``) or *error* carries the message of
    the exception that job raised — one bad dataset never kills a batch.
    """

    index: int
    fingerprint: str
    assessment: RiskAssessment | None
    error: str | None
    cached: bool
    elapsed_seconds: float
    attempts: int = 1

    @property
    def ok(self) -> bool:
        return self.assessment is not None


#: Memo bounds: frequency groups per profile, and ``(profile, delta)``
#: entries (space, exact marginals, attack summary).
_MAX_PROFILES = 16
_MAX_SPACES = 8


@dataclass(eq=False)
class _SpaceEntry:
    """One ``(profile, delta)``'s space and the stage results derived from it.

    A stage result is :data:`~repro.memo.MISSING` until a request stores
    it.  A stored result may carry ``None`` (no cheap exact plan, a
    skipped attack summary): that is a property of the space, not a miss.
    """

    space: FrequencyMappingSpace
    exact: tuple[np.ndarray | None, str | None] | Missing = MISSING
    attack: AttackSummary | None | Missing = MISSING


def _fingerprints(
    profile: FrequencyProfile, params: AssessmentParams
) -> tuple[str, str]:
    """``(profile hash, request fingerprint)``, hashing the profile once."""
    profile_hash = profile_fingerprint(profile)
    return profile_hash, request_fingerprint(
        profile, params, profile_hash=profile_hash
    )


class AssessmentEngine:
    """Cached, intermediate-sharing executor of the Assess-Risk recipe.

    Parameters
    ----------
    cache:
        Result cache; defaults to a fresh in-memory
        :class:`AssessmentCache`.
    metrics:
        Shared :class:`ServiceMetrics`; defaults to a private instance.
    breaker:
        Circuit breaker guarding every compute, HTTP request and batch
        slot alike; defaults to a fresh
        :class:`~repro.service.breaker.CircuitBreaker` sharing the
        engine's metrics.
    """

    def __init__(
        self,
        cache: AssessmentCache | None = None,
        metrics: ServiceMetrics | None = None,
        breaker: CircuitBreaker | None = None,
    ) -> None:
        self.cache = AssessmentCache() if cache is None else cache
        self.metrics = ServiceMetrics() if metrics is None else metrics
        self.breaker = (
            CircuitBreaker(metrics=self.metrics) if breaker is None else breaker
        )
        self._profiles: BoundedLRU[str, tuple[dict[Any, float], FrequencyGroups]] = (
            BoundedLRU(_MAX_PROFILES)
        )
        self._spaces: BoundedLRU[tuple[str, float], _SpaceEntry] = BoundedLRU(_MAX_SPACES)

    # -- single requests --------------------------------------------------

    def assess(
        self,
        source: FrequencySource,
        tolerance: float,
        *,
        delta: float | None = None,
        runs: int = 5,
        seed: int = 0,
        interest: Iterable | None = None,
        budget: ComputeBudget | None = None,
    ) -> AssessmentOutcome:
        """Answer one question, through the cache."""
        params = AssessmentParams(
            tolerance=tolerance, delta=delta, runs=runs, seed=seed,
            interest=None if interest is None else frozenset(interest),
        )
        return self.assess_request(source, params, budget=budget)

    def assess_request(
        self,
        source: FrequencySource,
        params: AssessmentParams,
        budget: ComputeBudget | None = None,
    ) -> AssessmentOutcome:
        """Answer one pre-packaged request, through the cache.

        *budget* attaches a per-request deadline (see
        :mod:`repro.service.budget`); :meth:`_answer` says how it
        changes the cache path.
        """
        start = time.perf_counter()
        self.metrics.increment("requests")
        profile = as_profile(source)
        profile_hash, fingerprint = _fingerprints(profile, params)
        assessment, cached = self._answer(
            profile, params, fingerprint, profile_hash, budget
        )
        return AssessmentOutcome(
            assessment=assessment,
            fingerprint=fingerprint,
            cached=cached,
            elapsed_seconds=time.perf_counter() - start,
        )

    def _answer(
        self,
        profile: FrequencyProfile,
        params: AssessmentParams,
        fingerprint: str,
        profile_hash: str,
        budget: ComputeBudget | None,
        retries: int = 0,
        backoff_seconds: float = 0.0,
        attempts: list[int] | None = None,
    ) -> tuple[RiskAssessment, bool]:
        """The one cache/compute decision; returns ``(assessment, cached)``.

        One call to :meth:`AssessmentCache.get_or_compute`.  Budgets are
        deliberately *not* part of the fingerprint — the answer to a
        question does not depend on how long the client was willing to
        wait — so a deadline-bearing request still hits the cache; the
        cache decides what its budget changes (no in-process flight, a
        bounded lease wait, no storing an answer whose budget ran out).

        The breaker wraps the whole compute, *retries* included, so it
        counts one failure per request or batch slot.
        """

        def compute() -> RiskAssessment:
            self.metrics.increment("computed")
            with self.metrics.timer("assess"):
                return self._compute_with_retries(
                    profile, params, fingerprint, profile_hash, retries,
                    backoff_seconds, attempts, budget,
                )

        def guarded() -> RiskAssessment:
            return self.breaker.call(compute)

        assessment, origin = self.cache.get_or_compute(fingerprint, guarded, budget)
        if origin == "computed" and assessment.partial:
            self.metrics.increment("partial_results")
        cached = origin != "computed"
        if cached:
            self.metrics.increment("cache_hits")
        return assessment, cached

    # -- batches and sweeps ----------------------------------------------

    def assess_many(
        self,
        requests: Sequence[tuple[FrequencySource, AssessmentParams]],
        *,
        retries: int = 2,
        backoff_seconds: float = 0.05,
        deadline_seconds: float | None = None,
    ) -> list[BatchResult]:
        """Answer a batch in input order, one slot at a time.

        Each slot takes the path of :meth:`assess_request`, with one
        failure captured in its :class:`BatchResult` instead of killing
        the batch.  Transient failures (anything but a deterministic
        :class:`~repro.errors.ReproError`) are retried up to *retries*
        times with exponential backoff, inside the breaker.
        *deadline_seconds* attaches a per-slot cooperative
        :class:`~repro.budget.ComputeBudget`: computations degrade to
        INCONCLUSIVE partial results near the deadline, retry backoff
        never sleeps past it, and answers whose budget ran out are not
        cached.
        """
        return [
            self._assess_slot(
                index, source, params, retries, backoff_seconds, deadline_seconds
            )
            for index, (source, params) in enumerate(requests)
        ]

    def _assess_slot(
        self,
        index: int,
        source: FrequencySource,
        params: AssessmentParams,
        retries: int,
        backoff_seconds: float,
        deadline_seconds: float | None,
    ) -> BatchResult:
        """One batch slot: :meth:`_answer` with retries, error captured."""
        start = time.perf_counter()
        self.metrics.increment("requests")
        attempts = [0]
        fingerprint = ""
        try:
            profile = as_profile(source)
            profile_hash, fingerprint = _fingerprints(profile, params)
            budget = (
                None
                if deadline_seconds is None
                else ComputeBudget(seconds=deadline_seconds)
            )
            assessment, cached = self._answer(
                profile, params, fingerprint, profile_hash, budget,
                retries, backoff_seconds, attempts,
            )
        except Exception as exc:  # per-slot capture, batch survives
            self.metrics.increment("errors")
            return BatchResult(
                index=index,
                fingerprint=fingerprint,
                assessment=None,
                error=f"{type(exc).__name__}: {exc}",
                cached=False,
                elapsed_seconds=time.perf_counter() - start,
                attempts=max(1, attempts[0]),
            )
        return BatchResult(
            index=index,
            fingerprint=fingerprint,
            assessment=assessment,
            error=None,
            cached=cached,
            elapsed_seconds=time.perf_counter() - start,
            attempts=max(1, attempts[0]),
        )

    def _compute_with_retries(
        self,
        profile: FrequencyProfile,
        params: AssessmentParams,
        fingerprint: str,
        profile_hash: str,
        retries: int,
        backoff_seconds: float,
        attempts: list[int] | None,
        budget: ComputeBudget | None,
    ) -> RiskAssessment:
        """Run :meth:`_compute`, retrying transient failures with backoff.

        A :class:`~repro.errors.ReproError` is deterministic (the same
        inputs will fail the same way) and is never retried; anything
        else — injected I/O faults, flaky system calls — is retried up
        to *retries* times.  Determinism of the result is unaffected:
        the RNG seed derives from the fingerprint, so a retried job
        produces byte-identical output.

        With a deadline-bearing *budget*, the exponential backoff never
        oversleeps the remaining deadline: each sleep is capped by what
        is left, and when nothing is left the last failure is re-raised
        immediately instead of burning the caller's budget in
        ``time.sleep`` (the computation itself still degrades through
        :meth:`_compute`'s usual partial-estimate path).
        """
        attempt = 0
        while True:
            if attempts is not None:
                attempts[0] = attempt + 1
            try:
                return self._compute(
                    profile, params, fingerprint, profile_hash, budget=budget
                )
            except ReproError:
                raise
            except Exception:
                if attempt >= retries:
                    raise
                delay = backoff_seconds * (2**attempt)
                if budget is not None:
                    remaining = budget.remaining_seconds()
                    if remaining is not None:
                        if remaining <= 0:
                            raise
                        delay = min(delay, remaining)
                self.metrics.increment("retries")
                time.sleep(delay)
                attempt += 1

    def sweep_tolerance(
        self,
        source: FrequencySource,
        tolerances: Sequence[float],
        *,
        delta: float | None = None,
        runs: int = 5,
        seed: int = 0,
        interest: Iterable | None = None,
    ) -> list[AssessmentOutcome]:
        """Assess one release under many tolerances, sharing one space.

        The memoized intermediates make this build the frequency groups,
        belief and bipartite space once for the whole sweep instead of
        once per tolerance.
        """
        return [
            self.assess(
                source, tolerance, delta=delta, runs=runs, seed=seed,
                interest=interest,
            )
            for tolerance in tolerances
        ]

    # -- the recipe ---------------------------------------------------------

    def _compute(
        self,
        profile: FrequencyProfile,
        params: AssessmentParams,
        fingerprint: str,
        profile_hash: str,
        budget: ComputeBudget | None = None,
    ) -> RiskAssessment:
        fault_point("engine.compute")
        if budget is not None:
            budget.poll()  # an expired request is refused before any work
        return assess_risk(
            profile, params.tolerance, params.delta, params.runs,
            rng=np.random.default_rng(derived_seed(fingerprint)),
            interest=params.interest, budget=budget,
            stages=_EngineStages(self, profile_hash),
        )


class _EngineStages(RecipeStages):
    """One request's stages: memoized in its engine, timed when computed.

    Groups are keyed by the profile hash; the space, the exact marginals
    and the attack summary share one entry keyed by ``(hash, delta)``,
    which the recipe's first :meth:`space` call pins for the request.
    ``stage:groups``/``space``/``exact``/``attack`` time a memo miss;
    ``stage:oestimate`` and ``stage:alpha`` time every call.  The stages
    call this module's names (``FrequencyGroups``, ``o_estimate``, ...),
    so a tracer that wraps them sees every stage.
    """

    def __init__(self, engine: AssessmentEngine, profile_hash: str) -> None:
        self._engine = engine
        self._metrics = engine.metrics
        self._hash = profile_hash
        self._entry: _SpaceEntry | None = None  # set by space()

    def groups(self, source: FrequencySource) -> tuple[dict[Any, float], FrequencyGroups]:
        state = self._engine._profiles.get(self._hash)
        if state is MISSING:
            with self._metrics.timer("stage:groups"):
                frequencies = source.frequencies()
                state = (frequencies, FrequencyGroups(frequencies))
            self._engine._profiles.put(self._hash, state)
        return state

    def space(self, frequencies: dict[Any, float], delta: float) -> FrequencyMappingSpace:
        key = (self._hash, delta)
        entry = self._engine._spaces.get(key)
        if entry is MISSING:
            with self._metrics.timer("stage:space"):
                belief = uniform_width_belief(frequencies, delta)
                entry = _SpaceEntry(space_from_frequencies(belief, frequencies))
            self._engine._spaces.put(key, entry)
        self._entry = entry
        return entry.space

    def o_estimate(
        self, space: FrequencyMappingSpace, interest: frozenset[Any] | None
    ) -> OEstimateResult:
        with self._metrics.timer("stage:oestimate"):
            return o_estimate(space, interest=interest)

    def exact(
        self, space: FrequencyMappingSpace, budget: ComputeBudget | None
    ) -> tuple[np.ndarray | None, str | None]:
        entry = self._entry
        assert entry is not None  # the recipe asks for the space first
        state = entry.exact
        if state is not MISSING:
            self._metrics.increment("exact_memo_hits")
        else:
            with self._metrics.timer("stage:exact"):
                state = super().exact(space, budget)
            # A (None, None) under a deadline may be budget-caused, not a
            # property of the instance — only memoize what a budget-free
            # run would also have produced.
            if budget is None or state[1] is not None:
                entry.exact = state
        strategy = state[1]
        if strategy is not None:
            self._metrics.increment("exact_served")
            self._metrics.increment(f"exact:{strategy}")
        else:
            self._metrics.increment("exact_skipped")
        return state

    def attack(
        self, space: FrequencyMappingSpace, budget: ComputeBudget | None
    ) -> AttackSummary | None:
        entry = self._entry
        assert entry is not None  # the recipe asks for the space first
        attack = entry.attack
        if attack is not MISSING:
            self._metrics.increment("attack_memo_hits")
            return attack
        with self._metrics.timer("stage:attack"):
            attack = super().attack(space, budget)
        if budget is None or attack is not None:
            entry.attack = attack
        return attack

    def alpha(
        self,
        space: FrequencyMappingSpace,
        tolerance: float,
        runs: int,
        rng: np.random.Generator | None,
        interest: frozenset[Any] | None,
    ) -> float:
        with self._metrics.timer("stage:alpha"):
            return compute_alpha_max(space, tolerance, runs=runs, rng=rng, interest=interest)
