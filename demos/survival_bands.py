"""
Survival curve with pointwise confidence bands
==============================================

Simulate right-censored time-to-event data, estimate the cumulative hazard
with Nelson-Aalen, push it through the survival transform, and read off the
fitted curve with a 95% pointwise band.  The fitted curve is cross-checked
against the classical product-limit estimator and against the exact survival
function of the data-generating hazard.
"""

import numpy as np

from hazard_transform import (
    ConstantHazard,
    Scenario,
    confidence_band,
    estimate_driver,
    fit_plugin,
    make_system,
    oracle_parameter,
    simulate_dataset,
)

# ---------------------------------------------------------------------------
# Simulate: exponential event times (rate 1) under independent exponential
# censoring (rate 0.4), 300 subjects, followed over [0, 2].
sc = Scenario(
    system="survival",
    hazards={"event": ConstantHazard(rate_value=1.0, horizon=2.0)},
    censor=ConstantHazard(rate_value=0.4, horizon=2.0),
    n=300,
    seed=20260822,
)
ds = simulate_dataset(sc)
n_events = sum(1 for r in ds.records if r.event_code == 1)
print(f"simulated {len(ds.records)} subjects, {n_events} observed events")

# ---------------------------------------------------------------------------
# Estimate the driver (one Nelson-Aalen component) and solve the transform.
driver, meta = estimate_driver(ds, "survival")
fit = fit_plugin(make_system("survival"), driver, meta)
band = confidence_band(fit, level=0.95)

# The transform of Nelson-Aalen reproduces the product-limit estimator.
hazard_jumps = np.diff(driver.values_at_jumps()[:, 0], prepend=0.0)
km = np.cumprod(1.0 - hazard_jumps)
worst = np.max(np.abs(fit.state_path.values_at_jumps()[:, 0] - km))
print(f"product-limit cross-check, max abs difference: {worst:.2e}")

# ---------------------------------------------------------------------------
# Compare with the exact curve exp(-t) at a few times.
truth = oracle_parameter(sc.hazards, "survival")
print("\n  time   estimate   lower   upper   exact")
for t in (0.25, 0.5, 1.0, 1.5):
    point, lo, hi = band.value_at(t)
    exact = truth.value_at(t)[0]
    print(
        f"  {t:4.2f}   {point[0]:8.4f}  {lo[0]:6.4f}  {hi[0]:6.4f}  {exact:6.4f}"
    )

# Both paths are constant between their jumps, so the largest gap is at a
# jump of one of them (or at 0).
knots = np.concatenate([[0.0], np.union1d(fit.state_path.times, truth.times)])
dist = np.abs(fit.state_path.value_at(knots) - truth.value_at(knots)).max()
print(f"\nsup distance to the exact curve: {dist:.4f}")
print(f"band level {band.level:.2f}, {len(band.times) - 1} jump times")
