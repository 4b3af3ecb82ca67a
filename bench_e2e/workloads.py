"""Request generators for the three benchmark workloads.

Every request is a ``POST /assess`` body in bytes plus two labels the
benchmark keeps for itself: the dataset class (used to check where the
latency percentiles land) and the ``cached`` flag the response must
carry.  Generation is a pure function of the workload seed: each input
draws from its own ``numpy`` generator seeded with ``[seed, stream,
...]``, so a request never depends on how many others were made before
it, and a run that stops after *k* rounds saw exactly the first *k*
rounds of every other run with the same seed.

Traffic comes in *rounds*: each round is one full copy of the workload's
mix (the same dataset classes and decision rungs in the same shares),
shuffled.  Runs stop on a round boundary, so a slow host runs fewer
rounds but never a different mix.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass

import numpy as np

from repro.data.database import FrequencyProfile
from repro.datasets.benchmarks import BENCHMARK_SPECS, generate_benchmark_profile
from repro.io import profile_to_json

__all__ = ["Request", "Workload", "WORKLOADS", "make_workload", "request_digest"]

#: The paper's Section 7.3 tolerance, used by the Figure-8 workload.
FIG8_TAU = 0.1
RUNS = 5


@dataclass(frozen=True)
class Request:
    """One generated request and what the benchmark expects of it."""

    body: bytes
    klass: str
    expect_cached: bool
    items: int


def _profile_text(profile: FrequencyProfile) -> str:
    return json.dumps(profile_to_json(profile), sort_keys=True)


def _body(profile_text: str, tolerance: float) -> bytes:
    """``json.dumps({"profile": ..., "runs": RUNS, "tolerance": ...}, sort_keys=True)``.

    Spliced from the pre-serialized profile, so a sweep over one
    release does not re-serialize it per tolerance.
    """
    return (
        f'{{"profile": {profile_text}, "runs": {RUNS}, "tolerance": {json.dumps(tolerance)}}}'
    ).encode("utf-8")


def _rng(seed: int, *stream: int) -> np.random.Generator:
    return np.random.default_rng([seed, *stream])


def _shuffled(requests: list[Request], rng: np.random.Generator) -> list[Request]:
    return [requests[i] for i in rng.permutation(len(requests))]


class Workload:
    """A seeded request stream: set-up requests plus timed rounds.

    The constructor generates the inputs that persist across rounds
    (input generation is not timed as set-up); ``setup_requests`` are
    dispatched during set-up; ``round(r)`` is the *r*-th timed round.
    """

    name = ""
    #: Typical wall time of one round on a quiet 2-core host; sizes the
    #: fixed-work traced run so its counts depend on seed and run length
    #: only, never on host speed.
    nominal_round_seconds = 1.0

    def __init__(self, seed: int) -> None:
        self.seed = int(seed)

    def setup_requests(self) -> list[Request]:
        raise NotImplementedError

    def round(self, index: int) -> list[Request]:
        raise NotImplementedError


class ColdFig8(Workload):
    """Figure 8 at tau = 0.1 on never-seen FIMI-calibrated profiles.

    A round weights the six datasets 1:1:2:2:2:2 so that, with per-class
    cost CHESS < MUSHROOM < CONNECT < ACCIDENTS < RETAIL < PUMSB, the
    median falls mid-way through the ACCIDENTS class and p90 mid-way
    through the PUMSB class instead of on a class boundary.
    """

    name = "cold_fig8"
    nominal_round_seconds = 1.1
    MIX = (
        "chess", "mushroom",
        "connect", "connect",
        "accidents", "accidents",
        "retail", "retail",
        "pumsb", "pumsb",
    )

    def _round(self, stream: int, index: int) -> list[Request]:
        requests = []
        for slot, name in enumerate(self.MIX):
            spec = BENCHMARK_SPECS[name]
            profile = generate_benchmark_profile(spec, _rng(self.seed, stream, index, slot))
            requests.append(
                Request(_body(_profile_text(profile), FIG8_TAU), name, False, spec.n_items)
            )
        return _shuffled(requests, _rng(self.seed, stream + 1, index))

    def setup_requests(self) -> list[Request]:
        # One round on separate seeds: warms lazy imports, never the
        # result cache or engine memos of the timed profiles.
        return self._round(3, 0)

    def round(self, index: int) -> list[Request]:
        return self._round(1, index)


class SweepTau(Workload):
    """An owner sweeping tolerances over a few alpha-bound releases.

    Releases of CONNECT, ACCIDENTS and PUMSB, 2:3:3 (eight, the size of
    the engine's space memo).  Per-request cost is CONNECT < ACCIDENTS <
    PUMSB point-valued < PUMSB interval and alpha, so the median falls
    inside the ACCIDENTS class and p90 inside PUMSB's interval and alpha
    rungs, each averaged over three releases.  Set-up answers each release's first question at
    tau = 0.1, which fills the groups, space, exact and attack memos.
    Each round asks every release five more questions with tau
    stratified over [0.005, 0.5]: every answer is a result cache miss
    and a disk write, but reuses the memoized intermediates.
    """

    name = "sweep_tau"
    nominal_round_seconds = 0.25
    RELEASES = ("connect",) * 2 + ("accidents",) * 3 + ("pumsb",) * 3
    STRATA = 5
    TAU_LOW, TAU_HIGH = 0.005, 0.5

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        self.releases = [
            (
                name,
                _profile_text(
                    generate_benchmark_profile(BENCHMARK_SPECS[name], _rng(self.seed, 10, k))
                ),
            )
            for k, name in enumerate(self.RELEASES)
        ]

    def setup_requests(self) -> list[Request]:
        return [
            Request(_body(profile, FIG8_TAU), name, False, BENCHMARK_SPECS[name].n_items)
            for name, profile in self.releases
        ]

    def round(self, index: int) -> list[Request]:
        rng = _rng(self.seed, 11, index)
        width = (self.TAU_HIGH - self.TAU_LOW) / self.STRATA
        requests = []
        for name, profile in self.releases:
            offsets = rng.random(self.STRATA)
            for stratum in range(self.STRATA):
                tau = self.TAU_LOW + (stratum + float(offsets[stratum])) * width
                requests.append(
                    Request(_body(profile, tau), name, False, BENCHMARK_SPECS[name].n_items)
                )
        return _shuffled(requests, rng)


class HotZipf(Workload):
    """Repeated questions from many clients: every timed request is a hit.

    300 releases are random subsets of one RETAIL-calibrated release,
    sized log-uniformly from 75 to 16,470 items, asked with Zipf(1.1)
    popularity.  Popularity rank *r* always gets size stratum
    ``golden(r)`` (the seed only jitters within the stratum and picks
    the items), so the cost of the popular head, which dominates the
    mean, does not change from seed to seed.  Each release's tau sits
    just above its ``g/n``: the single compute in set-up stops at the
    point-valued rung.  300 releases exceed the 256-entry memory tier,
    so the tail is served from the disk tier.
    """

    name = "hot_zipf"
    nominal_round_seconds = 1.0
    RELEASES = 300
    MIN_ITEMS = 75
    ZIPF_S = 1.1
    ROUND = 100
    _GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        base = generate_benchmark_profile(BENCHMARK_SPECS["retail"], _rng(self.seed, 20))
        counts = base.counts
        items = np.array(sorted(counts))
        max_items = len(items)
        jitter = _rng(self.seed, 21).random(self.RELEASES)
        self.bodies: list[bytes] = []
        self.sizes: list[int] = []
        for rank in range(self.RELEASES):
            stratum = math.floor(((rank + 1) * self._GOLDEN % 1.0) * self.RELEASES)
            fraction = (stratum + float(jitter[rank])) / self.RELEASES
            size = round(self.MIN_ITEMS * (max_items / self.MIN_ITEMS) ** fraction)
            size = min(max_items, max(self.MIN_ITEMS, size))
            chosen = _rng(self.seed, 22, rank).choice(items, size=size, replace=False)
            subset = {int(item): counts[int(item)] for item in chosen}
            groups = len(set(subset.values()))
            tau = min(1.0, (groups + 0.5) / size)
            profile = FrequencyProfile(subset, base.n_transactions)
            self.bodies.append(_body(_profile_text(profile), tau))
            self.sizes.append(size)
        weights = np.arange(1, self.RELEASES + 1, dtype=np.float64) ** -self.ZIPF_S
        self._cumulative = np.cumsum(weights / weights.sum())

    def setup_requests(self) -> list[Request]:
        return [
            Request(body, "retail-subset", False, size)
            for body, size in zip(self.bodies, self.sizes)
        ]

    def round(self, index: int) -> list[Request]:
        # Systematic sampling of the Zipf law: one random offset per
        # round, ROUND evenly spaced points on the cumulative
        # distribution.  Every round has the same popularity profile;
        # the offsets walk the tail from round to round.
        rng = _rng(self.seed, 23, index)
        points = (np.arange(self.ROUND) + rng.random()) / self.ROUND
        ranks = np.minimum(
            np.searchsorted(self._cumulative, points, side="right"), self.RELEASES - 1
        )
        requests = [
            Request(self.bodies[r], "retail-subset", True, self.sizes[r]) for r in ranks.tolist()
        ]
        return _shuffled(requests, rng)


WORKLOADS: dict[str, type[Workload]] = {
    cls.name: cls for cls in (ColdFig8, SweepTau, HotZipf)
}


def make_workload(name: str, seed: int) -> Workload:
    """The workload *name* for *seed* (input generation happens here)."""
    return WORKLOADS[name](seed)


def request_digest(workload: Workload, rounds: int) -> str:
    """SHA-256 over the set-up requests and the first *rounds* rounds."""
    digest = hashlib.sha256()
    for request in workload.setup_requests():
        digest.update(request.body)
    for index in range(rounds):
        for request in workload.round(index):
            digest.update(request.body)
    return digest.hexdigest()
