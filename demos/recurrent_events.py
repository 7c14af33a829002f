"""
Recurrent events with a terminal endpoint
=========================================

Subjects experience repeated events (code 1) until a terminal event (code 2)
or censoring ends follow-up; each spell is its own record with delayed entry.
The transform couples the recurrent-event hazard with terminal survival to
estimate the expected cumulative number of events per subject -- the marginal
mean frequency -- which is smaller than the cumulative hazard itself because
subjects stop accumulating events once dead.
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
# Recurrent rate 2.0, terminal rate 1.0, follow-up over [0, 1.5].
sc = Scenario(
    system="mean_frequency",
    hazards={
        "recurrent": ConstantHazard(rate_value=2.0, horizon=1.5),
        "terminal": ConstantHazard(rate_value=1.0, horizon=1.5),
    },
    n=400,
    seed=11,
)
ds = simulate_dataset(sc)
spells = len(ds.records)
subjects = len({r.subject_id for r in ds.records})
recurrences = sum(1 for r in ds.records if r.event_code == 1)
print(f"{subjects} subjects, {spells} spells, {recurrences} recurrent events")

# ---------------------------------------------------------------------------
# Fit.  State: (mean_frequency, survival).
driver, meta = estimate_driver(ds, "mean_frequency")
fit = fit_plugin(make_system("mean_frequency"), driver, meta)
band = confidence_band(fit, level=0.95)

# Exact curve: integral of rate_recurrent * S(u) du = 2 * (1 - exp(-t)).
truth = oracle_parameter(sc.hazards, "mean_frequency")
print("\n  time   mean events   lower   upper   exact")
for t in (0.3, 0.7, 1.0, 1.5):
    point, lo, hi = band.value_at(t)
    exact = truth.value_at(t)[0]
    print(
        f"  {t:4.2f}   {point[0]:9.4f}    {lo[0]:6.4f}  {hi[0]:6.4f}  {exact:6.4f}"
    )

closed_form = 2.0 * (1.0 - np.exp(-1.5))  # integral of 2 exp(-u) over [0, 1.5]
naive = 2.0 * 1.5
print(f"\nclosed form at the horizon: {closed_form:.4f}")
print(f"cumulative recurrent hazard there (ignores death): {naive:.4f}")
