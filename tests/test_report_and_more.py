"""Tests for the owner report, subset-of-interest estimates, the literal
Section 4.1 distribution formula, and streaming FIMI scans."""

import numpy as np
import pytest

from repro.core import o_estimate
from repro.data import FrequencyProfile, TransactionDatabase, scan_fimi_profile, write_fimi
from repro.errors import FormatError, GraphError
from repro.graph import crack_distribution_exact, space_from_frequencies
from repro.graph.permanent import crack_distribution_permanent
from repro.recipe import full_report


class TestInterestParameter:
    def test_subset_sums_only_wanted_items(self, bigmart_space_h):
        full = o_estimate(bigmart_space_h)
        subset = o_estimate(bigmart_space_h, interest=[5, 2])
        degrees = dict(zip(bigmart_space_h.items, bigmart_space_h.outdegrees()))
        assert subset.value == pytest.approx(1 / degrees[5] + 1 / degrees[2])
        assert subset.value < full.value
        assert subset.n == bigmart_space_h.n

    def test_full_interest_equals_default(self, bigmart_space_h):
        everything = o_estimate(bigmart_space_h, interest=list(bigmart_space_h.items))
        assert everything.value == pytest.approx(o_estimate(bigmart_space_h).value)

    def test_interest_with_propagation(self, staircase_space):
        result = o_estimate(staircase_space, propagate=True, interest=["a", "b"])
        assert result.value == pytest.approx(2.0)  # both forced true pairs

    def test_unknown_interest_item_raises(self, bigmart_space_h):
        with pytest.raises(GraphError):
            o_estimate(bigmart_space_h, interest=["nope"])


class TestSection41Formula:
    def test_agrees_with_enumeration(self, bigmart_space_h):
        by_enumeration = crack_distribution_exact(bigmart_space_h)
        by_permanents = crack_distribution_permanent(bigmart_space_h)
        assert by_permanents == pytest.approx(by_enumeration)

    def test_agrees_on_blocks(self, two_blocks_space):
        assert crack_distribution_permanent(two_blocks_space) == pytest.approx(
            crack_distribution_exact(two_blocks_space)
        )

    def test_size_guard(self):
        freqs = {i: i / 10 for i in range(1, 10)}
        from repro.beliefs import ignorant_belief

        space = space_from_frequencies(ignorant_belief(freqs), freqs)
        with pytest.raises(GraphError, match="infeasible"):
            crack_distribution_permanent(space)


class TestScanFimiProfile:
    def test_counts_match_full_read(self, tmp_path):
        db = TransactionDatabase([[1, 2], [2, 3], [1, 2, 3], [3]])
        path = tmp_path / "data.dat"
        write_fimi(db, path)
        profile = scan_fimi_profile(path)
        assert profile == db.to_profile()

    def test_domain_extension(self, tmp_path):
        db = TransactionDatabase([[1]])
        path = tmp_path / "data.dat"
        write_fimi(db, path)
        profile = scan_fimi_profile(path, domain=[1, 2, 3])
        assert profile.item_count(3) == 0
        assert len(profile.domain) == 3

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "empty.dat"
        path.write_text("")
        with pytest.raises(FormatError):
            scan_fimi_profile(path)


class TestFullReport:
    @pytest.fixture
    def risky_profile(self):
        return FrequencyProfile({i: 40 * i for i in range(1, 21)}, 1000)

    def test_sections_present(self, risky_profile):
        document = full_report(risky_profile, 0.1, rng=np.random.default_rng(0))
        for heading in ["## Data", "## Assess-Risk recipe", "# Disclosure risk profile",
                        "## Similarity-by-Sampling", "## Protection plan", "## Verdict"]:
            assert heading in document

    def test_disclose_case_skips_protection(self):
        profile = FrequencyProfile({i: 100 for i in range(1, 21)}, 1000)
        document = full_report(
            profile, 0.5, protect_strategy="quantile", rng=np.random.default_rng(0)
        )
        assert "## Protection plan" not in document
        assert "**Disclose.**" in document

    def test_protection_can_be_disabled(self, risky_profile):
        document = full_report(
            risky_profile, 0.1, protect_strategy=None, rng=np.random.default_rng(0)
        )
        assert "## Protection plan" not in document
        assert "Judgement call" in document

    def test_cli_integration(self, tmp_path, capsys):
        from repro.cli import main

        path = tmp_path / "report.md"
        code = main(["--benchmark", "chess", "--full-report", str(path)])
        assert code == 0
        assert "## Verdict" in path.read_text()
