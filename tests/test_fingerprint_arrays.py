"""Properties of the profile fingerprint (int64 arrays, tagged fallback)."""

import hashlib
import pickle
import struct

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import repro.service.engine as engine_mod
from repro.data import FrequencyProfile, TransactionDatabase
from repro.errors import FormatError
from repro.io import SCHEMA_VERSION, profile_from_json, profile_to_json
from repro.service import AssessmentEngine, AssessmentParams, profile_fingerprint

INT64_MIN, INT64_MAX = -(2**63), 2**63 - 1
M = 1000

int64_items = st.integers(min_value=INT64_MIN, max_value=INT64_MAX)
any_items = st.one_of(
    int64_items,
    st.integers(min_value=-(2**70), max_value=2**70),
    st.text(max_size=6),
)
counts = st.integers(min_value=0, max_value=M - 1)


def _profiles(items):
    return st.dictionaries(items, counts, min_size=1, max_size=40).map(
        lambda mapping: FrequencyProfile(mapping, M)
    )


def _fp(mapping, m=M):
    return profile_fingerprint(FrequencyProfile(mapping, m))


class TestInvariance:
    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_insertion_order_never_changes_the_hash(self, data):
        profile = data.draw(_profiles(any_items))
        entries = data.draw(st.permutations(list(profile.counts.items())))
        assert profile_fingerprint(FrequencyProfile(dict(entries), M)) == (
            profile_fingerprint(profile)
        )

    @settings(max_examples=40, deadline=None)
    @given(_profiles(any_items))
    def test_json_and_pickle_round_trips_keep_the_hash(self, profile):
        expected = profile_fingerprint(profile)
        assert profile_fingerprint(profile_from_json(profile_to_json(profile))) == expected
        assert profile_fingerprint(pickle.loads(pickle.dumps(profile))) == expected

    def test_database_and_its_profile_hash_equal(self):
        database = TransactionDatabase([[1, 2], [2, 3], [1, 2, 3]], domain=[1, 2, 3, 4])
        assert profile_fingerprint(database) == profile_fingerprint(database.to_profile())
        words = TransactionDatabase([["a", "b"], ["b"]])
        assert profile_fingerprint(words) == profile_fingerprint(words.to_profile())


class TestSensitivity:
    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_count_plus_or_minus_one_changes_the_hash(self, data):
        profile = data.draw(_profiles(any_items))
        mapping = profile.counts
        item = data.draw(st.sampled_from(sorted(mapping, key=repr)))
        step = data.draw(st.sampled_from([-1, 1]))
        assume(0 <= mapping[item] + step <= M)
        changed = {**mapping, item: mapping[item] + step}
        assert _fp(changed) != profile_fingerprint(profile)

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_swapping_one_item_changes_the_hash(self, data):
        profile = data.draw(_profiles(any_items))
        mapping = profile.counts
        item = data.draw(st.sampled_from(sorted(mapping, key=repr)))
        other = data.draw(any_items.filter(lambda candidate: candidate not in mapping))
        swapped = {other if key == item else key: count for key, count in mapping.items()}
        assert _fp(swapped) != profile_fingerprint(profile)

    @settings(max_examples=30, deadline=None)
    @given(_profiles(int64_items), st.integers(min_value=M + 1, max_value=10 * M))
    def test_a_different_m_changes_the_hash(self, profile, m):
        assert _fp(profile.counts, m) != profile_fingerprint(profile)

    def test_int_and_str_one_differ(self):
        assert _fp({1: 5}) != _fp({"1": 5})
        assert _fp({1: 5, 2: 6}) != _fp({"1": 5, "2": 6})

    def test_negative_ints(self):
        assert _fp({-1: 5}) != _fp({1: 5})
        assert _fp({-1: 5, 1: 6}) != _fp({-1: 6, 1: 5})
        assert _fp({-3: 1, -2: 2, 7: 3}) == _fp({7: 3, -2: 2, -3: 1})

    def test_mixed_int_and_str_domains(self):
        assert _fp({1: 5, "2": 6}) != _fp({1: 5, 2: 6})
        assert _fp({1: 5, "2": 6}) != _fp({"1": 5, 2: 6})
        assert _fp({1: 5, "2": 6}) == _fp({"2": 6, 1: 5})

    @pytest.mark.parametrize(
        "inside, outside",
        [(INT64_MAX, INT64_MAX + 1), (INT64_MIN, INT64_MIN - 1)],
    )
    def test_items_at_and_beyond_the_int64_range(self, inside, outside):
        at_edge = _fp({inside: 5, 0: 6})
        beyond = _fp({outside: 5, 0: 6})
        assert at_edge != beyond
        assert beyond == _fp({0: 6, outside: 5})
        assert beyond != _fp({outside: 4, 0: 6})

    def test_bool_items_raise(self):
        with pytest.raises(FormatError):
            _fp({True: 5})
        with pytest.raises(FormatError):
            _fp({1: 5, False: 6})


class TestEngine:
    def test_one_profile_hash_per_cold_request(self, monkeypatch):
        calls = []
        original = engine_mod.profile_fingerprint

        def counting(source):
            calls.append(source)
            return original(source)

        monkeypatch.setattr(engine_mod, "profile_fingerprint", counting)
        engine = AssessmentEngine()
        profile = FrequencyProfile({i: 40 * i for i in range(1, 21)}, 1000)
        outcome = engine.assess_request(profile, AssessmentParams(tolerance=0.1))
        assert not outcome.cached
        assert len(calls) == 1


def test_pinned_hex():
    """Changing the definition must be a deliberate edit of this hex."""
    profile = FrequencyProfile({3: 1, 1: 2, 2: 2, -5: 4}, 10)
    layout = hashlib.sha256(
        f"schema={SCHEMA_VERSION};fp=2;kind=profile;m=10;n=4;encoding=int64;".encode()
        + struct.pack("<4q", -5, 1, 2, 3)
        + struct.pack("<4q", 4, 2, 2, 1)
    )
    assert profile_fingerprint(profile) == layout.hexdigest() == (
        "825c4bf2a4b537f57293645d365810284477f90ed8b3d3aaface5b1ffc2e913a"
    )
