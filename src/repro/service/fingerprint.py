"""Content-addressed fingerprints for assessment requests.

The service layer recognizes "the same question asked twice" by
fingerprinting its inputs: a canonical, order-independent SHA-256 hash of
the frequency profile's counts together with the recipe parameters
(tolerance, delta, runs, seed, interest).  Two requests with equal
fingerprints are guaranteed to produce the same :class:`RiskAssessment`
— the recipe's only randomness (the alpha stage's permutations) is
seeded from the fingerprint itself via :func:`derived_seed`, so results
are reproducible regardless of which process answers the request or in
what order a batch is scheduled.

A profile hashes as one SHA-256 over its items and counts, laid out as
little-endian int64 arrays sorted by item.  Profiles whose items are not
all plain ints that fit in int64 (``str`` items, huge ints) take a
length-prefixed rendering sorted by the ``["int"|"str", value]`` tags
:mod:`repro.io` uses instead; the encoding name is hashed too, so int
``1`` and str ``"1"`` never collide.  Either way insertion order of the
counts mapping never influences the hash.  The hashed header embeds
:data:`repro.io.SCHEMA_VERSION`, so cached artifacts are invalidated
whenever the serialization format changes, and the definition tag
(``fp=2``), so a new definition never collides with an old one.

The service engine hashes each request's profile exactly once and hands
the result to :func:`request_fingerprint`; nothing is memoized here.
"""

from __future__ import annotations

import hashlib
import json
import numbers
from collections.abc import Mapping
from dataclasses import dataclass, field
from typing import Any

from repro.data.database import FrequencySource, as_profile
from repro.errors import FormatError
from repro.io import SCHEMA_VERSION, _encode_item

__all__ = [
    "AssessmentParams",
    "profile_fingerprint",
    "request_fingerprint",
    "derived_seed",
]

#: Version of the profile-hash definition, hashed into every header so
#: that a new definition never collides with an older one.
_DEFINITION = 2


@dataclass(frozen=True)
class AssessmentParams:
    """The non-data inputs of one Assess-Risk invocation.

    Mirrors the signature of :func:`repro.recipe.assess.assess_risk`;
    *seed* replaces the ``rng`` argument so the request stays hashable
    and serializable.  This is the one parameter check of ``POST
    /assess`` and ``repro-batch`` manifests: *runs* and *seed* must be
    integers (a float, bool or string raises
    :class:`~repro.errors.FormatError` rather than being truncated into
    another request; NumPy integers pass), and every out-of-range value
    — *tolerance* outside ``[0, 1]``, *runs* below 1, a *seed* outside
    the generator's unsigned 64-bit state, an empty *interest* — raises
    :class:`ValueError`, which the HTTP API answers as a 400.
    """

    tolerance: float
    delta: float | None = None
    runs: int = 5
    seed: int = 0
    interest: frozenset[object] | None = field(default=None)

    def __post_init__(self) -> None:
        for name in ("runs", "seed"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                raise FormatError(f"{name} must be a JSON integer, got {value!r}")
        if not 0 <= self.seed < 2**64:
            raise ValueError(f"seed must be in [0, 2**64), got {self.seed}")
        if not 0.0 <= self.tolerance <= 1.0:
            raise ValueError(f"tolerance must be in [0, 1], got {self.tolerance}")
        if self.runs < 1:
            raise ValueError(f"runs must be >= 1, got {self.runs}")
        if self.interest is not None and not isinstance(self.interest, frozenset):
            object.__setattr__(self, "interest", frozenset(self.interest))
        if self.interest is not None and not self.interest:
            raise ValueError("the interest subset must be non-empty")

    def canonical(self) -> dict[str, Any]:
        """A JSON-ready, order-independent representation."""
        return {
            "tolerance": float(self.tolerance),
            "delta": None if self.delta is None else float(self.delta),
            "runs": int(self.runs),
            "seed": int(self.seed),
            "interest": None
            if self.interest is None
            else sorted((_encode_item(item) for item in self.interest)),
        }


def _tagged_body(counts: Mapping[Any, Any]) -> bytes:
    """Length-prefixed ``kind/text/count`` records sorted by item tag.

    Sorting by the ``(kind, text)`` tag makes the result independent of
    the mapping's insertion order; the length prefix keeps the encoding
    injective even for item strings containing the separators.
    """
    entries = []
    for item, count in counts.items():
        kind, text = _encode_item(item)  # int/str only, like repro.io
        entries.append((kind, text, int(count)))
    entries.sort()
    return "\x1e".join(
        f"{kind}\x1f{len(text)}\x1f{text}\x1f{count}"
        for kind, text, count in entries
    ).encode("utf-8")


def _digest(payload: dict[str, Any]) -> str:
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def profile_fingerprint(source: FrequencySource) -> str:
    """Content hash of the data alone (counts + transaction total).

    One SHA-256 over a header (schema, definition, ``m``, ``n`` and the
    encoding name) followed by the items and counts: the profile's own
    little-endian int64 arrays, sorted by item, when every item is an
    int that fits, else the tagged records of :func:`_tagged_body`.
    Other sources are converted with :func:`~repro.data.database.as_profile`.
    """
    profile = as_profile(source)
    arrays = profile.int64_arrays()
    digest = hashlib.sha256(
        f"schema={SCHEMA_VERSION};fp={_DEFINITION};kind=profile;"
        f"m={profile.n_transactions};n={len(profile)};"
        f"encoding={'tagged' if arrays is None else 'int64'};".encode("utf-8")
    )
    if arrays is None:
        digest.update(_tagged_body(profile.counts_view))
    else:
        for array in arrays:
            digest.update(array.astype("<i8", copy=False).tobytes())
    return digest.hexdigest()


def request_fingerprint(
    source: FrequencySource,
    params: AssessmentParams,
    profile_hash: str | None = None,
) -> str:
    """Content hash of one full question: data + recipe parameters.

    *profile_hash* lets callers that already hold the profile's
    fingerprint (the engine computes it once per request and also keys
    its per-profile intermediates by it) skip rehashing the counts.
    """
    return _digest(
        {
            "schema": SCHEMA_VERSION,
            "kind": "request",
            "profile": profile_hash or profile_fingerprint(source),
            "params": params.canonical(),
        }
    )


def derived_seed(fingerprint: str) -> int:
    """A deterministic RNG seed for the request with this fingerprint.

    Requests seeded this way give identical results whether they arrive
    over HTTP, in a batch, or at another replica sharing the cache.
    """
    return int(fingerprint[:16], 16) & (2**63 - 1)
