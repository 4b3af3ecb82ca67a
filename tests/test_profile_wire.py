"""The tagged profile wire: bulk decode, array-native profile, GC pause.

``POST /assess`` decodes a profile ``[["int", "123"], count]`` list in
bulk into int64 arrays, with the cyclic garbage collector held off.
These tests hold the bulk decode to the per-entry decoder it replaced
(profile, fingerprint, error type and message), the array-native
:class:`FrequencyProfile` to a dict-built reference, and the pause to
its ownership rules.
"""

from __future__ import annotations

import gc
import json
import sys
import threading
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.service.routes as routes_mod
from repro.data import FrequencyProfile
from repro.errors import EmptyDatabaseError, FormatError, InvalidTransactionError
from repro.io import SCHEMA_VERSION, _check_schema, _decode_item, profile_from_json
from repro.service import AssessmentEngine, profile_fingerprint
from repro.service.routes import ServiceCore, _gc_paused

INT64_MIN, INT64_MAX = -(2**63), 2**63 - 1
EDGES = (INT64_MIN - 1, INT64_MIN, INT64_MIN + 1, -1, 0, 1, INT64_MAX - 1, INT64_MAX, INT64_MAX + 1)
M = 1000


# -- the reference implementations ------------------------------------------


def oracle_profile_from_json(payload):
    """The per-entry decoder, with counts required to be JSON integers."""
    if payload.get("type") != "frequency_profile":
        raise FormatError("payload is not a serialized frequency profile")
    _check_schema(payload)
    entries = payload["counts"]
    counts = {}
    for entry in entries:
        if not isinstance(entry, list) or len(entry) != 2:
            raise FormatError(f"malformed count entry: {entry!r}")
        item_encoded, count = entry
        if type(count) is not int:
            raise FormatError(f"count must be a JSON integer, got {count!r} in {entry!r}")
        counts[_decode_item(item_encoded)] = count
    if len(counts) != len(entries):
        raise FormatError(f"profile lists {len(entries) - len(counts)} duplicate item(s)")
    return FrequencyProfile(counts, int(payload["n_transactions"]))


class DictProfile:
    """A profile held as one item -> count dict (the representation replaced)."""

    def __init__(self, counts, n_transactions):
        if n_transactions <= 0:
            raise EmptyDatabaseError("a frequency profile needs at least one transaction")
        for item, count in counts.items():
            if not 0 <= count <= n_transactions:
                raise InvalidTransactionError(
                    f"count {count} for item {item!r} outside [0, {n_transactions}]"
                )
        self.counts = dict(counts)
        self.n_transactions = int(n_transactions)
        self.domain = frozenset(self.counts)

    def frequencies(self):
        return {item: count / self.n_transactions for item, count in self.counts.items()}

    def __hash__(self):
        return hash((frozenset(self.counts.items()), self.n_transactions))

    def __repr__(self):
        return (
            f"FrequencyProfile(n_items={len(self.domain)}, "
            f"n_transactions={self.n_transactions})"
        )


def _outcome(decode, payload):
    """``("ok", profile)`` or ``("error", type name, message)``."""
    try:
        return ("ok", decode(payload))
    except Exception as exc:  # the error itself is compared
        return ("error", type(exc).__name__, str(exc))


def _bits(frequencies):
    return {item: float(value).hex() for item, value in frequencies.items()}


# -- strategies ------------------------------------------------------------

int_items = st.one_of(
    st.integers(min_value=INT64_MIN, max_value=INT64_MAX),
    st.integers(min_value=-50, max_value=50),
    st.sampled_from(EDGES),
    st.sampled_from([2**80, -(2**80)]),
)
str_items = st.one_of(st.text(max_size=4), st.integers(min_value=-99, max_value=99).map(str))
good_counts = st.integers(min_value=0, max_value=M)
odd_counts = st.sampled_from([-1, M + 1, 2**64, 3.7, 2.0, True, False, "12", None, [1]])
odd_int_texts = st.sampled_from([" 12", "+5", "1_0", "abc", "", "1.5", 7, 7.9, True, None, ["1"]])
odd_tags = st.sampled_from(
    [["int"], ["int", "1", "2"], ["float", "1"], "int", 5, None, [["int"], "1"]]
)
odd_entries = st.sampled_from(["x", 5, None, [], [["int", "1"]], [["int", "1"], 1, 2], {"a": 1}])


@st.composite
def wire_entries(draw, kinds, faults):
    """A tagged count list; *faults* lets some entries go wrong."""
    size = draw(st.integers(min_value=0, max_value=30))
    entries = []
    for _ in range(size):
        kind = draw(st.sampled_from(kinds))
        item = draw(int_items if kind == "int" else str_items)
        tag = [kind, str(item)]
        count = draw(good_counts)
        if faults and draw(st.integers(0, 19)) == 0:
            fault = draw(st.sampled_from(["count", "text", "tag", "entry"]))
            if fault == "count":
                count = draw(odd_counts)
            elif fault == "text":
                tag = ["int", draw(odd_int_texts)]
            elif fault == "tag":
                tag = draw(odd_tags)
            else:
                entries.append(draw(odd_entries))
                continue
        entries.append([tag, count])
    if entries and draw(st.integers(0, 4)) == 0:  # duplicates
        entries.append(json.loads(json.dumps(draw(st.sampled_from(entries)))))
    return entries


def payloads(kinds=("int",), faults=False):
    n_values = st.one_of(st.just(M), st.sampled_from([0, -3, 5, M * 4]) if faults else st.just(M))
    return st.builds(
        lambda entries, n: {
            "type": "frequency_profile",
            "schema_version": SCHEMA_VERSION,
            "n_transactions": n,
            "counts": entries,
        },
        wire_entries(kinds, faults),
        n_values,
    )


mappings = st.dictionaries(
    st.one_of(int_items, str_items), good_counts, min_size=0, max_size=30
)


# -- bulk decode vs the per-entry oracle -------------------------------------


class TestDecodeEquivalence:
    @settings(max_examples=150, deadline=None)
    @given(st.one_of(payloads(("int",)), payloads(("str",)), payloads(("int", "str"))))
    def test_well_formed_payloads_decode_alike(self, payload):
        self._check(payload)

    @settings(max_examples=300, deadline=None)
    @given(st.one_of(payloads(("int",), faults=True), payloads(("int", "str"), faults=True)))
    def test_faulty_payloads_fail_alike(self, payload):
        self._check(payload)

    @staticmethod
    def _check(payload):
        wire = json.loads(json.dumps(payload))
        expected = _outcome(oracle_profile_from_json, json.loads(json.dumps(payload)))
        got = _outcome(profile_from_json, wire)
        assert got[0] == expected[0], (got, expected)
        if got[0] == "error":
            assert got == expected
            return
        profile, reference = got[1], expected[1]
        assert profile == reference
        assert list(profile.counts.items()) == list(reference.counts.items())
        assert profile_fingerprint(profile) == profile_fingerprint(reference)
        arrays, reference_arrays = profile.int64_arrays(), reference.int64_arrays()
        assert (arrays is None) == (reference_arrays is None)
        if arrays is not None:
            for array, expected_array in zip(arrays, reference_arrays):
                assert array.dtype == np.int64
                assert np.array_equal(array, expected_array)

    @pytest.mark.parametrize(
        "count", [3.7, 2.0, True, False, "12", None, [3]], ids=repr
    )
    def test_non_integral_counts_are_rejected(self, count):
        payload = {
            "type": "frequency_profile",
            "n_transactions": 10,
            "counts": [[["int", "1"], 2], [["int", "2"], count]],
        }
        with pytest.raises(FormatError, match="JSON integer"):
            profile_from_json(payload)

    @pytest.mark.parametrize("item", EDGES)
    def test_int64_edges(self, item):
        payload = {
            "type": "frequency_profile",
            "n_transactions": 10,
            "counts": [[["int", str(item)], 3], [["int", "0" if item else "1"], 4]],
        }
        profile = profile_from_json(payload)
        assert profile.item_count(item) == 3
        fits = INT64_MIN <= item <= INT64_MAX
        assert (profile.int64_arrays() is not None) == fits
        assert profile_fingerprint(profile) == profile_fingerprint(
            oracle_profile_from_json(payload)
        )

    def test_str_items_that_read_as_ints_stay_str(self):
        payload = {
            "type": "frequency_profile",
            "n_transactions": 10,
            "counts": [[["str", "1"], 2], [["int", "1"], 3], [["str", "-7"], 4]],
        }
        profile = profile_from_json(payload)
        assert profile.counts == {"1": 2, 1: 3, "-7": 4}
        assert profile == oracle_profile_from_json(payload)

    def test_duplicates_are_counted(self):
        payload = {
            "type": "frequency_profile",
            "n_transactions": 10,
            "counts": [[["int", "3"], 1], [["int", "1"], 2], [["int", "3"], 5], [["int", "1"], 2]],
        }
        with pytest.raises(FormatError, match="lists 2 duplicate"):
            profile_from_json(payload)

    def test_first_out_of_range_count_in_wire_order_is_named(self):
        payload = {
            "type": "frequency_profile",
            "n_transactions": 10,
            "counts": [[["int", "9"], 2], [["int", "5"], 11], [["int", "1"], -1]],
        }
        with pytest.raises(InvalidTransactionError, match="count 11 for item 5 "):
            profile_from_json(payload)


# -- the array-native profile vs a dict-built one ----------------------------


class TestProfileApi:
    @settings(max_examples=150, deadline=None)
    @given(mappings, st.sampled_from([M, M + 1, 3 * M]))
    def test_matches_a_dict_built_profile(self, mapping, n):
        profile, reference = FrequencyProfile(mapping, n), DictProfile(mapping, n)
        assert profile.domain == reference.domain
        assert profile.counts == reference.counts
        assert len(profile) == len(reference.domain)
        assert repr(profile) == repr(reference)
        assert hash(profile) == hash(reference)
        for item in mapping:
            assert profile.item_count(item) == mapping[item]
            assert profile.frequency(item) == mapping[item] / n
        assert profile.item_count(object()) == 0
        assert _bits(profile.frequencies()) == _bits(reference.frequencies())
        shuffled = dict(reversed(list(mapping.items())))
        assert FrequencyProfile(shuffled, n) == profile
        assert hash(FrequencyProfile(shuffled, n)) == hash(profile)

    @settings(max_examples=60, deadline=None)
    @given(
        st.dictionaries(int_items, st.integers(min_value=0, max_value=2**60 + 7), max_size=20),
    )
    def test_frequencies_bit_identical_beyond_2_53(self, mapping):
        n = 2**60 + 7
        profile, reference = FrequencyProfile(mapping, n), DictProfile(mapping, n)
        assert _bits(profile.frequencies()) == _bits(reference.frequencies())

    def test_frequencies_beyond_2_53_keep_python_division(self):
        n = 2**53 + 1
        profile = FrequencyProfile({7: 1}, n)
        # float(n) rounds to 2**53, so an array division would give 2**-53.
        assert 1 / n != 1 / float(n)
        assert profile.frequencies()[7] == 1 / n

    def test_counts_beyond_int64(self):
        n = 2**70
        mapping = {1: 2**65, 2: 3}
        profile = FrequencyProfile(mapping, n)
        assert profile.counts == mapping
        assert profile.int64_arrays() is None
        assert _bits(profile.frequencies()) == _bits(DictProfile(mapping, n).frequencies())

    def test_int_items_ascend_and_others_keep_mapping_order(self):
        assert list(FrequencyProfile({3: 1, -2: 2, 1: 3}, 10).counts) == [-2, 1, 3]
        assert list(FrequencyProfile({"b": 1, 2: 2, "a": 3}, 10).counts) == ["b", 2, "a"]

    def test_equality_across_representations(self):
        # Items equal to plain ints but of another type take the general form.
        plain = FrequencyProfile({1: 2, 5: 3}, 10)
        other = FrequencyProfile({np.int64(1): 2, np.int64(5): 3}, 10)
        assert plain.int64_arrays() is not None and other.int64_arrays() is None
        assert plain == other and other == plain
        assert hash(plain) == hash(other)
        assert plain != FrequencyProfile({np.int64(1): 2, np.int64(5): 4}, 10)

    def test_arrays_are_read_only(self):
        items, counts = FrequencyProfile({3: 1, 1: 2}, 10).int64_arrays()
        assert list(items) == [1, 3] and list(counts) == [2, 1]
        with pytest.raises(ValueError):
            items[0] = 7

    @pytest.mark.parametrize(
        "mapping, n, error",
        [
            ({1: 5}, 0, EmptyDatabaseError),
            ({1: 5, 2: 11, 3: -1}, 10, "count 11 for item 2 outside"),
            ({"a": 5, "b": -1}, 10, "count -1 for item 'b' outside"),
            ({1: 2.5}, 10, "is not an integer"),
        ],
    )
    def test_constructor_errors(self, mapping, n, error):
        if isinstance(error, str):
            with pytest.raises(InvalidTransactionError, match=error):
                FrequencyProfile(mapping, n)
        else:
            with pytest.raises(error):
                FrequencyProfile(mapping, n)

    def test_from_int64_names_the_first_offender_as_given(self):
        items = np.array([9, 5, 1], dtype=np.int64)
        counts = np.array([2, 11, -1], dtype=np.int64)
        with pytest.raises(InvalidTransactionError, match="count 11 for item 5 "):
            FrequencyProfile.from_int64(items, counts, 10)
        with pytest.raises(InvalidTransactionError, match="duplicate"):
            FrequencyProfile.from_int64(items[[0, 0]], counts[[0, 0]], 10)


# -- the GC pause -----------------------------------------------------------


@pytest.fixture
def gc_enabled():
    was = gc.isenabled()
    gc.enable()
    yield
    if not was:
        gc.disable()


class TestGcPause:
    def test_pauses_and_restores(self, gc_enabled):
        with _gc_paused():
            assert not gc.isenabled()
        assert gc.isenabled()

    def test_restores_on_exception(self, gc_enabled):
        with pytest.raises(RuntimeError):
            with _gc_paused():
                raise RuntimeError("boom")
        assert gc.isenabled()

    def test_caller_state_wins(self, gc_enabled):
        gc.disable()
        try:
            with _gc_paused():
                assert not gc.isenabled()
            assert not gc.isenabled()
        finally:
            gc.enable()

    @pytest.mark.parametrize("owner_leaves_first", [True, False])
    def test_two_threads(self, gc_enabled, owner_leaves_first):
        owner_inside, other_inside = threading.Event(), threading.Event()
        leave_owner, leave_other = threading.Event(), threading.Event()
        seen = {}

        def owner():
            with _gc_paused():
                owner_inside.set()
                leave_owner.wait(5)

        def other():
            owner_inside.wait(5)
            with _gc_paused():
                seen["other inside"] = gc.isenabled()
                other_inside.set()
                leave_other.wait(5)

        threads = {"owner": threading.Thread(target=owner), "other": threading.Thread(target=other)}
        for thread in threads.values():
            thread.start()
        assert other_inside.wait(5)
        assert seen["other inside"] is False
        if owner_leaves_first:
            leave_owner.set()
            threads["owner"].join(5)
            # The pause ends with the decode that started it.
            assert gc.isenabled()
        else:
            leave_other.set()
            threads["other"].join(5)
            # The other thread does not own the pause and leaves it alone.
            assert not gc.isenabled()
        leave_owner.set()
        leave_other.set()
        for thread in threads.values():
            thread.join(5)
            assert not thread.is_alive()
        assert gc.isenabled()

    def test_many_threads_leave_the_collector_enabled(self, gc_enabled):
        """A pause that restored a state saved while another held it would stick."""
        errors = []

        def decode_many():
            try:
                for _ in range(300):
                    with _gc_paused():
                        time.sleep(0)  # lets another thread enter mid-pause
            except Exception as exc:  # reported below
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=decode_many) for _ in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(30)
                assert not thread.is_alive()
        finally:
            sys.setswitchinterval(interval)
        assert errors == []
        assert gc.isenabled()

    def test_a_large_decode_triggers_no_collection(self, gc_enabled, monkeypatch):
        """20k tagged items through dispatch: no collection between body and profile."""
        items = 20_000
        body = json.dumps(
            {
                "profile": {
                    "type": "frequency_profile",
                    "schema_version": SCHEMA_VERSION,
                    "n_transactions": 10 * items,
                    "counts": [[["int", str(i)], 1 + i % 97] for i in range(items)],
                },
                "tolerance": 1.0,
            }
        ).encode()
        collections = []
        state = {"decoding": False}

        def on_gc(phase, info):
            if phase == "start" and state["decoding"]:
                collections.append(info["generation"])

        original_parse = ServiceCore._parse_body
        original_decode = routes_mod.profile_from_json

        def parse(raw):
            state["decoding"] = True
            return original_parse(raw)

        def decode(payload):
            try:
                return original_decode(payload)
            finally:
                state["decoding"] = False

        monkeypatch.setattr(ServiceCore, "_parse_body", staticmethod(parse))
        monkeypatch.setattr(routes_mod, "profile_from_json", decode)
        gc.callbacks.append(on_gc)
        try:
            # The same decode with the collector on does collect: the
            # check below can fail.
            state["decoding"] = True
            payload = json.loads(body)
            original_decode(payload["profile"])
            state["decoding"] = False
            assert collections
            collections.clear()

            core = ServiceCore(AssessmentEngine())
            response = core.dispatch("POST", "/assess", body)
        finally:
            gc.callbacks.remove(on_gc)
        assert response.status == 200, response.payload
        assert collections == []
        assert gc.isenabled()
