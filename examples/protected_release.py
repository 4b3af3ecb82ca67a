"""From "do not disclose" to a safe release: the protection workflow.

The recipe on the CONNECT-style benchmark says "think twice" (alpha_max
around 0.2 at tau = 0.1).  Instead of withholding the data, the owner can
reshape it: this example walks the full protection workflow the library
adds on top of the paper —

1. assess the raw release and render the per-item risk profile;
2. look at the delta-sensitivity and tolerance curves to understand why
   the release is risky;
3. search the smallest binning intervention that meets the tolerance and
   compare strategies;
4. re-assess the protected release and file the decision as JSON.

Run with::

    python examples/protected_release.py
"""

from __future__ import annotations

import numpy as np

from repro import (
    RiskProfile,
    assess_risk,
    delta_sensitivity,
    load_benchmark,
    protect_to_tolerance,
    tolerance_curve,
    uniform_width_belief,
)
from repro.data import FrequencyGroups
from repro.graph import space_from_frequencies
from repro.io import assessment_to_json, save_json_atomic

TAU = 0.1


def main() -> None:
    profile = load_benchmark("connect").profile
    frequencies = profile.frequencies()
    rng = np.random.default_rng(0)

    # -- 1. raw assessment + per-item attribution -------------------------
    raw_report = assess_risk(profile, TAU, rng=rng)
    print("raw release:")
    print(raw_report.summary())

    delta = FrequencyGroups(frequencies).median_gap()
    space = space_from_frequencies(uniform_width_belief(frequencies, delta), frequencies)
    risk = RiskProfile.from_space(space)
    print(f"\n{risk.n_surely_cracked} items are identified with certainty; "
          "the 5 most exposed:")
    for item_risk in risk.top_exposed(5):
        print(f"  item {item_risk.item}: frequency {item_risk.frequency:.4f}, "
              f"crack probability {item_risk.crack_probability:.0%}")

    # -- 2. why: sensitivity curves ----------------------------------------
    print("\nhow fast does camouflage build with assumed uncertainty?")
    for point in delta_sensitivity(frequencies, [delta, 4 * delta, 16 * delta]):
        print(f"  delta = {point.delta:.5f}: expected cracks {point.estimate:6.1f} "
              f"({point.fraction:.0%})")
    print("tolerance -> alpha_max trade-off:")
    for point in tolerance_curve(space, [0.05, 0.1, 0.2, 0.4], rng=rng):
        print(f"  tau = {point.tolerance:4.2f}: alpha_max = {point.alpha_max:.2f}")

    # -- 3. protect ----------------------------------------------------------
    print("\nsearching the smallest intervention per strategy:")
    plans = {}
    for strategy in ("bin", "quantile", "suppress"):
        plans[strategy] = protect_to_tolerance(profile, TAU, strategy=strategy)
        print(f"  {plans[strategy].summary()}")

    chosen = plans["quantile"]
    protected = chosen.profile

    # -- 4. re-assess and file the decision ----------------------------------
    protected_report = assess_risk(protected, TAU, rng=rng)
    print("\nprotected release:")
    print(protected_report.summary())
    save_json_atomic(assessment_to_json(protected_report), "protected_assessment.json")
    print("decision filed to protected_assessment.json")


if __name__ == "__main__":
    main()
