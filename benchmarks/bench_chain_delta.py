"""Section 5.2 — the chain Delta error table and the Figure 4(a) example.

Regenerates the paper's table of O-estimate percentage errors for chains
of length 3 with group sizes (20, 30, 20), plus the worked chain example
(E[X] = 74/45, OE = 197/120), and cross-validates the closed forms
against the exact permanent-based direct method on materialized chains.

OCR note: rows 2-4 of the printed table list e_1 = 15, which violates the
partition constraint e_1+e_2+e_3+s_1+s_2 = 70; e_1 = 5 restores it and
reproduces the printed percentage errors exactly, so that is what we use.
"""

from __future__ import annotations

import pytest

from repro.core import (
    ChainSpec,
    chain_expected_cracks,
    chain_o_estimate,
    chain_percentage_error,
    space_from_chain,
)
from repro.graph import expected_cracks_exact

TABLE_ROWS = [
    ((10, 10, 10), (20, 20), 1.54),
    ((5, 10, 10), (25, 20), 4.8),
    ((5, 10, 5), (25, 25), 8.3),
    ((5, 6, 5), (27, 27), 5.76),
    ((10, 20, 10), (15, 15), 7.23),
]


def test_section52_delta_table(report, benchmark):
    def compute():
        rows = []
        for e, s, paper_error in TABLE_ROWS:
            spec = ChainSpec((20, 30, 20), e, s)
            rows.append(
                (e, s, chain_expected_cracks(spec), chain_o_estimate(spec),
                 chain_percentage_error(spec), paper_error)
            )
        return rows

    rows = benchmark(compute)

    lines = [
        f"{'e1':>4} {'e2':>4} {'e3':>4} {'s1':>4} {'s2':>4} "
        f"{'exact':>8} {'OE':>8} {'err %':>7} {'paper %':>8}"
    ]
    for (e, s, exact, estimate, error, paper_error) in rows:
        lines.append(
            f"{e[0]:>4} {e[1]:>4} {e[2]:>4} {s[0]:>4} {s[1]:>4} "
            f"{exact:>8.4f} {estimate:>8.4f} {error:>7.2f} {paper_error:>8.2f}"
        )
    lines.append("(n = (20, 30, 20); rows 2-4 use e1=5, see module docstring)")
    report("section52_chain_delta", lines)

    for (_, _, _, _, error, paper_error) in rows:
        assert error == pytest.approx(paper_error, abs=0.06)


def test_figure4a_example(report, benchmark):
    spec = ChainSpec((5, 3), (3, 2), (3,))

    def compute():
        return (
            chain_expected_cracks(spec),
            chain_o_estimate(spec),
            expected_cracks_exact(space_from_chain(spec)),
        )

    exact, estimate, direct = benchmark(compute)
    report(
        "figure4a_chain_example",
        [
            f"exact formula  E[X] = {exact:.6f} (paper: 74/45 = {74 / 45:.6f})",
            f"O-estimate     OE   = {estimate:.6f} (paper: 197/120 = {197 / 120:.6f})",
            f"direct method  E[X] = {direct:.6f} (permanent-based, Section 4.1)",
        ],
    )
    assert exact == pytest.approx(74 / 45)
    assert estimate == pytest.approx(197 / 120)
    assert direct == pytest.approx(exact)
