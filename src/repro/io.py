"""JSON persistence for owner-workflow artifacts.

A disclosure decision is an auditable act: the owner wants to file what
was assumed (the belief model), what was measured (the assessment), and
what was released (the profile, possibly protected).  This module
round-trips those artifacts through plain JSON:

* :class:`~repro.beliefs.function.BeliefFunction`
* :class:`~repro.data.database.FrequencyProfile`
* :class:`~repro.recipe.assess.RiskAssessment`

Items are serialized with a small tagged encoding so integer and string
items survive the trip (JSON object keys are always strings).
"""

from __future__ import annotations

import json
import os
import tempfile
from operator import itemgetter
from pathlib import Path
from typing import Any, Callable, Union

import numpy as np

from repro.beliefs.function import BeliefFunction
from repro.beliefs.interval import Interval
from repro.budget import PartialEstimate
from repro.core.oestimate import OEstimateResult
from repro.data.database import FrequencyProfile
from repro.errors import FormatError
from repro.recipe.assess import AttackSummary, Decision, RiskAssessment

__all__ = [
    "SCHEMA_VERSION",
    "belief_to_json",
    "belief_from_json",
    "profile_to_json",
    "profile_from_json",
    "json_int",
    "assessment_to_json",
    "assessment_from_json",
    "save_json_atomic",
    "load_json",
]

PathLike = Union[str, Path]

#: Version of the JSON artifact format.  Bump whenever a serialized shape
#: changes incompatibly; readers reject payloads from a *newer* format so
#: that caches (see :mod:`repro.service.cache`) never deserialize fields
#: they do not understand.  Payloads with no version key are treated as
#: version 1 (the pre-versioning format) and still load.
#: Version 3 added the ``INCONCLUSIVE`` decision and the
#: ``partial_estimate`` block (deadline-aware anytime assessment).
#: Version 4 added the ``attack`` block — ``forced_pairs``,
#: ``certified_cracks`` and the ``solver_reduction`` sub-object from the
#: attacker workbench (:mod:`repro.attack.solver`).  Version-3 payloads
#: still load; the field simply reads back as ``None``.
SCHEMA_VERSION = 4


def _check_schema(payload: dict) -> None:
    version = payload.get("schema_version", 1)
    if not isinstance(version, int) or version < 1:
        raise FormatError(f"malformed schema_version: {version!r}")
    if version > SCHEMA_VERSION:
        raise FormatError(
            f"artifact uses schema version {version}, "
            f"but this library only understands <= {SCHEMA_VERSION}"
        )


def _encode_item(item: object) -> list:
    if isinstance(item, bool) or not isinstance(item, (int, str)):
        raise FormatError(
            f"only int and str items are JSON-serializable, got {type(item).__name__}"
        )
    kind = "int" if isinstance(item, int) else "str"
    return [kind, str(item)]


def _decode_item(encoded: object) -> object:
    if (
        not isinstance(encoded, list)
        or len(encoded) != 2
        or encoded[0] not in ("int", "str")
    ):
        raise FormatError(f"malformed item encoding: {encoded!r}")
    kind, value = encoded
    return int(value) if kind == "int" else value


def belief_to_json(belief: BeliefFunction) -> dict:
    """A JSON-ready representation of a belief function."""
    return {
        "type": "belief_function",
        "schema_version": SCHEMA_VERSION,
        "intervals": [
            [_encode_item(item), interval.low, interval.high]
            for item, interval in sorted(belief.items(), key=lambda kv: repr(kv[0]))
        ],
    }


def belief_from_json(payload: dict) -> BeliefFunction:
    """Rebuild a belief function written by :func:`belief_to_json`."""
    if payload.get("type") != "belief_function":
        raise FormatError("payload is not a serialized belief function")
    _check_schema(payload)
    intervals = {}
    for entry in payload["intervals"]:
        if not isinstance(entry, list) or len(entry) != 3:
            raise FormatError(f"malformed interval entry: {entry!r}")
        item_encoded, low, high = entry
        intervals[_decode_item(item_encoded)] = Interval(float(low), float(high))
    return BeliefFunction(intervals)


def profile_to_json(profile: FrequencyProfile) -> dict:
    """A JSON-ready representation of a frequency profile."""
    return {
        "type": "frequency_profile",
        "schema_version": SCHEMA_VERSION,
        "n_transactions": profile.n_transactions,
        "counts": [
            [_encode_item(item), int(count)]
            for item, count in sorted(profile.counts.items(), key=lambda kv: repr(kv[0]))
        ],
    }


def profile_from_json(payload: object) -> FrequencyProfile:
    """Rebuild a frequency profile written by :func:`profile_to_json`.

    A payload that lists the same item twice is rejected rather than
    silently keeping one of its counts, and so is a count or an
    ``n_transactions`` that is not a JSON integer (``3.7``, ``true``,
    ``"12"``), as is a payload that is not an object.

    When every entry is ``[["int", text], count]`` and every item and
    count fits in int64, the entries are decoded in bulk into int64
    arrays and duplicates are found between neighbours after one sort.
    Anything else (``str`` or mixed items, huge ints, a malformed entry)
    takes the per-entry decode, which also names the first offending
    entry of a payload the bulk checks reject.
    """
    if not isinstance(payload, dict) or payload.get("type") != "frequency_profile":
        raise FormatError("payload is not a serialized frequency profile")
    _check_schema(payload)
    n_transactions = json_int(payload["n_transactions"], "n_transactions")
    entries = payload["counts"]
    arrays = _int_entries(entries)
    if arrays is None:
        counts = _decode_entries(entries)
        if len(counts) != len(entries):
            raise FormatError(
                f"profile lists {len(entries) - len(counts)} duplicate item(s)"
            )
        return FrequencyProfile(counts, n_transactions)
    items, values = arrays
    order = np.argsort(items)
    ranked = items[order]
    duplicates = int(np.count_nonzero(ranked[1:] == ranked[:-1]))
    if duplicates:
        raise FormatError(f"profile lists {duplicates} duplicate item(s)")
    return FrequencyProfile.from_int64(items, values, n_transactions, order=order)


def json_int(value: object, name: str) -> int:
    """*value* when it is a JSON integer; :class:`FormatError` otherwise.

    A float (``3.7``, even ``3.0``), ``true`` or a string (``"12"``) is
    rejected rather than truncated into a different number.
    """
    if type(value) is not int:
        raise FormatError(f"{name} must be a JSON integer, got {value!r}")
    return value


def _int_entries(entries: object) -> tuple[np.ndarray, np.ndarray] | None:
    """Items and counts of ``[["int", text], count]`` entries as int64 arrays.

    One ``set(map(...))`` check per level of the tagged list instead of
    one check per entry.  ``None`` when an entry is not of that shape, a
    count is not a plain int, or an item or count does not fit in int64.
    """
    if type(entries) is not list:
        return None
    if not (set(map(type, entries)) <= {list} and set(map(len, entries)) <= {2}):
        return None
    tags = list(map(itemgetter(0), entries))
    counts = list(map(itemgetter(1), entries))
    n = len(entries)
    if not (
        set(map(type, tags)) <= {list}
        and set(map(len, tags)) <= {2}
        and list(map(itemgetter(0), tags)).count("int") == n
        and set(map(type, counts)) <= {int}
    ):
        return None
    try:
        items = np.fromiter(map(int, map(itemgetter(1), tags)), np.int64, count=n)
        values = np.fromiter(counts, np.int64, count=n)
    except (OverflowError, TypeError, ValueError):
        return None
    return items, values


def _decode_entries(entries: Any) -> dict:
    """The item -> count mapping of a tagged count list, entry by entry."""
    counts = {}
    for entry in entries:
        if not isinstance(entry, list) or len(entry) != 2:
            raise FormatError(f"malformed count entry: {entry!r}")
        item_encoded, count = entry
        if type(count) is not int:
            raise FormatError(f"count must be a JSON integer, got {count!r} in {entry!r}")
        counts[_decode_item(item_encoded)] = count
    return counts


def assessment_to_json(assessment: RiskAssessment) -> dict:
    """A JSON-ready representation of an Assess-Risk outcome."""
    estimate = assessment.interval_estimate
    return {
        "type": "risk_assessment",
        "schema_version": SCHEMA_VERSION,
        "decision": assessment.decision.name,
        "tolerance": assessment.tolerance,
        "n_items": assessment.n_items,
        "g": assessment.g,
        "delta": assessment.delta,
        "alpha_max": assessment.alpha_max,
        "interest": None
        if assessment.interest is None
        else [
            _encode_item(item)
            for item in sorted(assessment.interest, key=repr)
        ],
        "runs": assessment.runs,
        "exact_cracks": assessment.exact_cracks,
        "exact_strategy": assessment.exact_strategy,
        "interval_estimate": None
        if estimate is None
        else {
            "value": estimate.value,
            "n": estimate.n,
            "n_compliant": estimate.n_compliant,
            "n_forced": estimate.n_forced,
            "propagated": estimate.propagated,
        },
        "partial_estimate": None
        if assessment.partial_estimate is None
        else assessment.partial_estimate.to_json(),
        "attack": None
        if assessment.attack is None
        else {
            "forced_pairs": assessment.attack.forced_pairs,
            "certified_cracks": assessment.attack.certified_cracks,
            "solver_reduction": {
                "forbidden_edges": assessment.attack.forbidden_edges,
                "largest_block_before": assessment.attack.largest_block_before,
                "largest_block_after": assessment.attack.largest_block_after,
            },
        },
    }


def _attack_from_json(raw: object) -> AttackSummary | None:
    if raw is None:
        return None
    if not isinstance(raw, dict):
        raise FormatError(f"malformed attack block: {raw!r}")
    reduction = raw.get("solver_reduction")
    if not isinstance(reduction, dict):
        raise FormatError(f"malformed solver_reduction block: {reduction!r}")
    return AttackSummary(
        forced_pairs=int(raw["forced_pairs"]),
        certified_cracks=int(raw["certified_cracks"]),
        forbidden_edges=int(reduction["forbidden_edges"]),
        largest_block_before=int(reduction["largest_block_before"]),
        largest_block_after=int(reduction["largest_block_after"]),
    )


def assessment_from_json(payload: dict) -> RiskAssessment:
    """Rebuild an assessment written by :func:`assessment_to_json`."""
    if payload.get("type") != "risk_assessment":
        raise FormatError("payload is not a serialized risk assessment")
    _check_schema(payload)
    try:
        decision = Decision[payload["decision"]]
    except KeyError as exc:
        raise FormatError(f"unknown decision {payload.get('decision')!r}") from exc
    raw_estimate = payload.get("interval_estimate")
    estimate = (
        None
        if raw_estimate is None
        else OEstimateResult(
            value=float(raw_estimate["value"]),
            n=int(raw_estimate["n"]),
            n_compliant=int(raw_estimate["n_compliant"]),
            n_forced=int(raw_estimate.get("n_forced", 0)),
            propagated=bool(raw_estimate.get("propagated", False)),
        )
    )
    raw_interest = payload.get("interest")
    interest = (
        None
        if raw_interest is None
        else frozenset(_decode_item(entry) for entry in raw_interest)
    )
    return RiskAssessment(
        decision=decision,
        tolerance=float(payload["tolerance"]),
        n_items=int(payload["n_items"]),
        g=int(payload["g"]),
        delta=None if payload.get("delta") is None else float(payload["delta"]),
        interval_estimate=estimate,
        alpha_max=None if payload.get("alpha_max") is None else float(payload["alpha_max"]),
        interest=interest,
        runs=None if payload.get("runs") is None else int(payload["runs"]),
        exact_cracks=None
        if payload.get("exact_cracks") is None
        else float(payload["exact_cracks"]),
        exact_strategy=payload.get("exact_strategy"),
        partial_estimate=None
        if payload.get("partial_estimate") is None
        else PartialEstimate.from_json(payload["partial_estimate"]),
        attack=_attack_from_json(payload.get("attack")),
    )


def save_json_atomic(
    payload: dict,
    path: PathLike,
    fault_point: Callable[[str, Path], None] | None = None,
) -> None:
    """Write a serialized artifact atomically, but not durably.

    The payload is encoded once, written to a ``<name>.<random>.tmp``
    sibling with one :func:`os.write` and moved over *path* with
    :func:`os.replace` — atomic on POSIX.  A process that dies at any
    point leaves the old artifact, the new one, or an orphan ``*.tmp``
    file, never a half-written JSON document at *path*.  There is no
    fsync: a power cut may leave an empty or missing artifact, which
    readers treat as a miss.

    *fault_point*, when given, is called with ``("tmp", tmp_path)``
    (the temp file is still empty) and ``("replace", tmp_path)`` (it is
    written and closed, before the rename) — the hook the service
    layer's fault-injection harness uses to simulate mid-write crashes
    and torn writes (the hook gets the temp path so a ``torn_write``
    rule can truncate it).  Ordinary exceptions clean the temp file up;
    a :class:`BaseException` (e.g. an injected crash) leaves it behind,
    exactly as a killed process would.
    """
    target = Path(path)
    data = (json.dumps(payload, indent=2, sort_keys=True) + "\n").encode("utf-8")
    handle_fd, tmp_name = tempfile.mkstemp(
        dir=target.parent, prefix=target.name + ".", suffix=".tmp"
    )
    try:
        try:
            if fault_point is not None:
                fault_point("tmp", Path(tmp_name))
            view = memoryview(data)
            while view:  # finish a short write rather than publish a torn file
                view = view[os.write(handle_fd, view):]
        finally:
            os.close(handle_fd)
        if fault_point is not None:
            fault_point("replace", Path(tmp_name))
        os.replace(tmp_name, target)
    except Exception:
        # A survivable failure: don't leak the temp file.  BaseException
        # (simulated crash, KeyboardInterrupt) skips this on purpose.
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise


def load_json(path: PathLike) -> dict:
    """Read a serialized artifact, with a library error on bad JSON."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return json.load(handle)
    except json.JSONDecodeError as exc:
        raise FormatError(f"{path}: invalid JSON ({exc})") from exc
