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
  so the same question yields byte-identical JSON whether it runs
  inline, through :meth:`assess_many` with one worker, or fanned out
  across a process pool.
* **Retries and deadlines** — transient failures are retried with
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


def _cacheable(assessment: RiskAssessment, budget: ComputeBudget) -> bool:
    """Whether a deadline-bearing answer may enter the cache.

    A partial answer never does.  Nor does one whose budget ran out: the
    exact and attack stages drop their result on exhaustion and the
    recipe still answers, without an enrichment a budget-free run
    reports.
    """
    return not (assessment.partial or budget.expired() or budget.cancelled())


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
        Circuit breaker guarding the serial compute path; defaults to a
        fresh :class:`~repro.service.breaker.CircuitBreaker` sharing the
        engine's metrics.  Pool workers are separate processes and are
        deliberately outside the breaker.
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

        Lookups are single-flight: concurrent requests for the same
        fingerprint (e.g. simultaneous HTTP hits) run one computation
        and share its result instead of racing.

        *budget* attaches a per-request deadline (see
        :mod:`repro.service.budget`).  Budgets are deliberately *not*
        part of the fingerprint — the answer to a question does not
        depend on how long the client was willing to wait — so a
        deadline-bearing request still hits the shared cache; but an
        answer computed by a request whose budget ran out is never
        cached (see :func:`_cacheable`), because a different deadline
        could have done better.  Deadline-bearing
        misses skip the single-flight rendezvous: sharing another
        request's computation would mean inheriting someone else's
        deadline.
        """
        start = time.perf_counter()
        self.metrics.increment("requests")
        profile = as_profile(source)
        profile_hash, fingerprint = _fingerprints(profile, params)

        def compute() -> RiskAssessment:
            self.metrics.increment("computed")
            with self.metrics.timer("assess"):
                return self._compute(
                    profile, params, fingerprint, profile_hash, budget=budget
                )

        if budget is None:
            assessment, origin = self.cache.get_or_compute(
                fingerprint, lambda: self.breaker.call(compute)
            )
            cached = origin != "computed"
        elif self.cache.shared:
            # Deadline-bearing misses still coordinate across replicas:
            # another process's in-progress artifact can be awaited for
            # up to the remaining budget (compute_shared falls back to a
            # local compute past that), and a partial result is withheld
            # from the cache by the store predicate.
            assessment, origin = self.cache.compute_shared(
                fingerprint,
                lambda: self.breaker.call(compute),
                timeout_seconds=budget.remaining_seconds(),
                store=lambda result: _cacheable(result, budget),
            )
            cached = origin != "computed"
            if not cached and assessment.partial:
                self.metrics.increment("partial_results")
        else:
            hit = self.cache.get(fingerprint)
            if hit is not None:
                assessment, cached = hit, True
            else:
                assessment = self.breaker.call(compute)
                cached = False
                if _cacheable(assessment, budget):
                    self.cache.put(fingerprint, assessment)
                if assessment.partial:
                    self.metrics.increment("partial_results")
        if cached:
            self.metrics.increment("cache_hits")
        return AssessmentOutcome(
            assessment=assessment,
            fingerprint=fingerprint,
            cached=cached,
            elapsed_seconds=time.perf_counter() - start,
        )

    # -- batches and sweeps ----------------------------------------------

    def assess_many(
        self,
        requests: Sequence[tuple[FrequencySource, AssessmentParams]],
        workers: int = 1,
        *,
        retries: int = 2,
        backoff_seconds: float = 0.05,
        timeout_seconds: float | None = None,
        deadline_seconds: float | None = None,
    ) -> list[BatchResult]:
        """Answer a batch, optionally fanned out across processes.

        Results are returned in input order and are identical for any
        *workers* value (per-job seeds derive from the fingerprints, not
        from scheduling).  Cache hits are served without touching the
        pool; computed results are inserted into the cache.

        Transient failures (anything but a deterministic
        :class:`~repro.errors.ReproError`) are retried up to *retries*
        times with exponential backoff, on the serial path and inside
        the pool alike.  *timeout_seconds* caps each pool job's
        wall-clock time (measured from submission; serial jobs cannot be
        preempted and ignore it).  *deadline_seconds* attaches a
        per-job cooperative :class:`~repro.budget.ComputeBudget` on the
        serial path: computations degrade to INCONCLUSIVE partial
        results near the deadline, retry backoff never sleeps past it,
        and answers whose budget ran out are not cached.
        """
        if workers <= 1:
            return [
                self._assess_job(
                    index, source, params, retries, backoff_seconds,
                    deadline_seconds=deadline_seconds,
                )
                for index, (source, params) in enumerate(requests)
            ]

        jobs: list[tuple[int, FrequencyProfile, AssessmentParams, str]] = []
        results: dict[int, BatchResult] = {}
        for index, (source, params) in enumerate(requests):
            start = time.perf_counter()
            self.metrics.increment("requests")
            profile = as_profile(source)
            _, fingerprint = _fingerprints(profile, params)
            cached = self.cache.get(fingerprint)
            if cached is not None:
                self.metrics.increment("cache_hits")
                results[index] = BatchResult(
                    index=index,
                    fingerprint=fingerprint,
                    assessment=cached,
                    error=None,
                    cached=True,
                    elapsed_seconds=time.perf_counter() - start,
                )
            else:
                jobs.append((index, profile, params, fingerprint))

        if jobs:
            from repro.service.pool import run_batch

            for result in run_batch(
                jobs,
                workers=workers,
                retries=retries,
                backoff_seconds=backoff_seconds,
                timeout_seconds=timeout_seconds,
            ):
                if result.ok:
                    self.metrics.increment("computed")
                    self.cache.put(result.fingerprint, result.assessment)
                else:
                    self.metrics.increment("errors")
                results[result.index] = result

        return [results[index] for index in range(len(requests))]

    def _assess_job(
        self,
        index: int,
        source: FrequencySource,
        params: AssessmentParams,
        retries: int,
        backoff_seconds: float,
        deadline_seconds: float | None = None,
    ) -> BatchResult:
        """One serial batch slot: single-flight cache + retry, error captured."""
        start = time.perf_counter()
        self.metrics.increment("requests")
        attempts = [0]
        try:
            profile = as_profile(source)
            profile_hash, fingerprint = _fingerprints(profile, params)
        except Exception as exc:
            self.metrics.increment("errors")
            return BatchResult(
                index=index,
                fingerprint="",
                assessment=None,
                error=f"{type(exc).__name__}: {exc}",
                cached=False,
                elapsed_seconds=time.perf_counter() - start,
            )

        budget = (
            None
            if deadline_seconds is None
            else ComputeBudget(seconds=deadline_seconds)
        )

        def compute() -> RiskAssessment:
            self.metrics.increment("computed")
            with self.metrics.timer("assess"):
                return self._compute_with_retries(
                    profile, params, fingerprint, profile_hash, retries,
                    backoff_seconds, attempts, budget=budget,
                )

        try:
            if budget is None:
                assessment, origin = self.cache.get_or_compute(fingerprint, compute)
            else:
                # Deadline-bearing slots mirror assess_request: skip the
                # single-flight rendezvous (another request's deadline is
                # not ours) and never cache a partial result.
                hit = self.cache.get(fingerprint)
                if hit is not None:
                    assessment, origin = hit, "cache"
                else:
                    assessment, origin = compute(), "computed"
                    if _cacheable(assessment, budget):
                        self.cache.put(fingerprint, assessment)
                    if assessment.partial:
                        self.metrics.increment("partial_results")
        except Exception as exc:  # per-job capture, batch survives
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
        cached = origin != "computed"
        if cached:
            self.metrics.increment("cache_hits")
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
        attempts: list[int] | None = None,
        budget: ComputeBudget | None = None,
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
