"""Hazard specs, simulation, oracles, distances, studies, bootstrap."""

import csv
import json
import math
import re
import tracemalloc
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import example, given, reject, settings
from hypothesis import strategies as st
from scipy import integrate, stats

from hazard_transform import simlab

from hazard_transform import (
    ConfigError,
    ConstantHazard,
    DataError,
    EventDataset,
    GuardViolation,
    LinearHazard,
    Scenario,
    StepPath,
    SystemKind,
    TableHazard,
    bootstrap_covariance,
    coverage_study,
    estimate_driver,
    hazard_from_config,
    l2_convergence,
    l2_distance,
    make_system,
    oracle_parameter,
    simulate_dataset,
    solve_plugin,
    wilson_interval,
    write_study,
)
from hazard_transform.hazards import _grid_times
from hazard_transform.simlab import HazardSpec, _SumHazard

from helpers import BISECT_TOL, bisect_invert, study_tasks


def step_path_1d(times, values, horizon, origin=0.0):
    cum = np.concatenate([[origin], values])
    return StepPath(
        times=np.asarray(times, dtype=float),
        increments=np.diff(cum).reshape(-1, 1),
        origin_value=np.array([origin]),
        horizon=horizon,
    )


class TestHazardSpecs:
    def test_constant_inversion_round_trip(self):
        h = ConstantHazard(2.0, 5.0)
        targets = np.array([0.1, 1.0, 3.0, 9.9])
        t = h.invert(targets)
        np.testing.assert_allclose(h.cumulative(t), targets, rtol=0, atol=1e-8)

    def test_inversion_beyond_window_is_inf(self):
        h = ConstantHazard(1.0, 2.0)
        out = h.invert([1.0, 2.0 + 1e-9, 50.0])
        assert math.isfinite(out[0])
        assert out[1] == np.inf and out[2] == np.inf

    def test_inversion_on_a_flat_stretch_is_its_first_time(self):
        # Rate 1 falling to 0 at 0.3, zero until 0.5, then rising: the
        # cumulative is 0.15 on all of [0.3, 0.5].
        h = TableHazard((0.0, 0.3, 0.5, 0.7), (1.0, 0.0, 0.0, 2.0), 1.0)
        out = h.invert([0.15, np.nextafter(0.15, 1.0)])
        assert out[0] == 0.3
        assert 0.5 < out[1] < 0.5 + 1e-7

    def test_negative_rate_rejected(self):
        with pytest.raises(ConfigError, match="nonnegative"):
            ConstantHazard(-0.5, 1.0)

    def test_linear_must_stay_nonnegative(self):
        with pytest.raises(ConfigError, match="negative somewhere"):
            LinearHazard(0.5, -1.0, 1.0)
        LinearHazard(1.5, -1.0, 1.0)  # hits zero only past the horizon midpoint

    def test_linear_cumulative_closed_form(self):
        h = LinearHazard(1.5, -1.0, 1.0)
        t = np.array([0.25, 0.5, 1.0])
        np.testing.assert_allclose(h.cumulative(t), 1.5 * t - 0.5 * t**2)

    def test_table_cumulative_matches_quadrature(self):
        h = TableHazard((0.2, 0.5, 1.0), (1.0, 3.0, 0.5), horizon=1.5)
        for t in (0.1, 0.2, 0.35, 0.8, 1.0, 1.4):
            ref, _ = integrate.quad(lambda u: float(h.rate(u)), 0.0, t, limit=200)
            np.testing.assert_allclose(float(h.cumulative(t)), ref, rtol=0, atol=1e-9)

    def test_table_extends_as_constant(self):
        h = TableHazard((0.2, 0.5), (1.0, 3.0), horizon=2.0)
        np.testing.assert_allclose(h.rate([0.0, 1.7]), [1.0, 3.0])
        np.testing.assert_allclose(
            h.cumulative(1.5) - h.cumulative(0.5), 3.0, rtol=0, atol=1e-12
        )

    def test_table_validation(self):
        with pytest.raises(ConfigError, match="matching"):
            TableHazard((0.1, 0.2), (1.0,), horizon=1.0)
        with pytest.raises(ConfigError, match="increasing"):
            TableHazard((0.5, 0.2), (1.0, 2.0), horizon=1.0)
        with pytest.raises(ConfigError, match="nonnegative"):
            TableHazard((0.1, 0.2), (1.0, -2.0), horizon=1.0)

    def test_config_round_trip_for_every_form(self):
        specs = [
            ConstantHazard(1.3, 2.0),
            LinearHazard(0.2, 0.6, 1.5),
            TableHazard((0.1, 0.9), (0.5, 2.5), horizon=1.0),
        ]
        probe = np.linspace(0.0, 1.0, 7)
        for h in specs:
            again = hazard_from_config(h.to_config())
            assert type(again) is type(h)
            np.testing.assert_array_equal(again.cumulative(probe), h.cumulative(probe))

    def test_each_form_writes_its_keys_in_field_order(self):
        configs = [
            (ConstantHazard(1, 2.0), {"form": "constant", "rate": 1, "horizon": 2.0}),
            (
                LinearHazard(0.2, 0.6, 1.5),
                {"form": "linear", "intercept": 0.2, "slope": 0.6, "horizon": 1.5},
            ),
            (
                TableHazard((0, 0.9), (0.5, 2.5), 1),
                {"form": "table", "times": [0.0, 0.9], "rates": [0.5, 2.5], "horizon": 1},
            ),
        ]
        for spec, cfg in configs:
            got = spec.to_config()
            assert list(got.items()) == list(cfg.items())
            assert [type(v) for v in got.values()] == [type(v) for v in cfg.values()]

    @pytest.mark.parametrize(
        "cfg, message",
        [
            # The type of a value comes first, even under an unknown form.
            ({"form": "weibull", "rate": "x"}, "hazard 'rate' must be a number, got 'x'"),
            (
                {"form": "constant", "rate": 1, "horizon": 1, "times": 0.5},
                "hazard 'times' must be a list, got 0.5",
            ),
            ({"form": ["constant"], "rate": 1}, "unknown hazard form: ['constant']"),
            ({"form": "linear", "horizon": 1}, "hazard config missing key: 'intercept'"),
            ({"form": "table", "rates": [1]}, "hazard config missing key: 'times'"),
            (
                {"form": "constant", "rate": -1, "horizon": 1, "slop": 1},
                "hazard rate must be nonnegative",
            ),
        ],
        ids=["type", "list type", "unhashable form", "missing", "first missing", "checks"],
    )
    def test_config_errors_come_in_order(self, cfg, message):
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            hazard_from_config(cfg)

    def test_config_validation(self):
        with pytest.raises(ConfigError, match="'form' key"):
            hazard_from_config({"rate": 1.0})
        with pytest.raises(ConfigError, match="unknown hazard form"):
            hazard_from_config({"form": "weibull"})
        with pytest.raises(ConfigError, match="missing key"):
            hazard_from_config({"form": "constant", "rate": 1.0})

    @pytest.mark.parametrize(
        "cfg,unknown",
        [
            ({"form": "linear", "intercept": 1, "slope": 0, "horizon": 1, "slop": 2},
             "slop"),
            ({"form": "constant", "rate": 1, "horizon": 1, "slope": 0}, "slope"),
            ({"form": "table", "times": [0], "rates": [1], "horizon": 1, "rate": 1,
              "knots": [0]}, "knots, rate"),
        ],
    )
    def test_config_key_the_form_does_not_write_rejected(self, cfg, unknown):
        # A misspelt key used to be dropped without a word.
        match = rf"unknown key\(s\) for a {cfg['form']} hazard: {unknown}$"
        with pytest.raises(ConfigError, match=match):
            hazard_from_config(cfg)


NON_FINITE = [float("nan"), float("inf"), float("-inf")]


@pytest.mark.parametrize("value", NON_FINITE)
@pytest.mark.parametrize(
    "field,build",
    [
        ("rate", lambda v: ConstantHazard(v, 1.0)),
        ("intercept", lambda v: LinearHazard(v, 0.0, 1.0)),
        ("slope", lambda v: LinearHazard(1.0, v, 1.0)),
        ("times", lambda v: TableHazard((0.0, v), (1.0, 2.0), 1.0)),
        ("rates", lambda v: TableHazard((0.0, 0.5), (1.0, v), 1.0)),
        ("horizon", lambda v: ConstantHazard(1.0, v)),
    ],
)
def test_non_finite_hazard_parameter_is_a_config_error(field, build, value):
    # A NaN rate used to simulate no events at all, and an infinite horizon
    # made the inversion loop forever.
    with pytest.raises(ConfigError, match=f"hazard {field} must be finite"):
        build(value)


@pytest.mark.parametrize(
    "cfg",
    [
        {"form": "constant", "rate": float("nan"), "horizon": 1.0},
        {"form": "linear", "intercept": 1.0, "slope": 0.0, "horizon": float("inf")},
        {"form": "table", "times": [0.0], "rates": [float("nan")], "horizon": 1.0},
    ],
)
def test_non_finite_hazard_config_is_a_config_error(cfg):
    with pytest.raises(ConfigError, match="must be finite"):
        hazard_from_config(cfg)


def test_table_too_steep_for_a_finite_rate_is_a_config_error():
    # np.interp's slope 1 / 2.2e-309 is inf: the rate and cumulative were inf.
    with pytest.raises(ConfigError, match="too close"):
        TableHazard((0.0, 2.225073858507203e-309), (0.0, 1.0), 1.0)


@dataclass(frozen=True)
class SquaredRate(HazardSpec):
    """Rate ``t**2``: curved, so not linear between any knots."""

    horizon: float

    def rate(self, t):
        return np.asarray(t, dtype=float) ** 2

    def cumulative(self, t):
        return np.asarray(t, dtype=float) ** 3 / 3.0


@dataclass(frozen=True)
class BareRate(HazardSpec):
    """A constant rate with only ``rate`` and ``cumulative``: no config form."""

    rate_value: float
    horizon: float

    def rate(self, t):
        return np.full_like(np.asarray(t, dtype=float), self.rate_value)

    def cumulative(self, t):
        return self.rate_value * np.asarray(t, dtype=float)


class DescribedRate(BareRate):
    def to_config(self):
        return {"form": "described", "rate": self.rate_value, "horizon": self.horizon}


class UndeclaredKnots(TableHazard):
    """A table that does not name its knots: its rate bends unannounced."""

    def _knots(self):
        return ()


@pytest.mark.parametrize(
    "spec",
    [SquaredRate(1.0), UndeclaredKnots((0.2, 0.6), (1.0, 3.0), 1.0)],
    ids=["curved", "undeclared-knots"],
)
def test_a_rate_not_linear_between_its_knots_is_a_config_error(spec):
    with pytest.raises(ConfigError, match="not the integral of a rate that is linear"):
        spec.invert([0.1])


@pytest.mark.parametrize(
    "spec",
    [ConstantHazard(1e200, 1.0), LinearHazard(0.0, 1e300, 1.0)],
    ids=["constant", "linear"],
)
def test_a_hazard_too_large_to_invert_is_a_config_error(spec):
    # The rates' squares overflow: the times came back as 0 and 1, not 0.1.
    with pytest.raises(ConfigError, match="too large to invert"):
        spec.invert([spec.cumulative(0.1)])


@pytest.mark.parametrize(
    "system, hazards, censor",
    [
        ("survival", {"event": ConstantHazard(1e308, 1.0)}, None),
        (
            "mean_frequency",
            {"recurrent": ConstantHazard(1e308, 1.0), "terminal": ConstantHazard(0.5, 1.0)},
            None,
        ),
        ("survival", {"event": ConstantHazard(0.5, 1.0)}, ConstantHazard(1e308, 1.0)),
    ],
    ids=["survival", "mean_frequency", "censor"],
)
def test_a_scenario_rejects_a_hazard_too_large_to_invert(system, hazards, censor):
    # Each spec's piece table is checked when the scenario is built, so no
    # study or simulation draws from it: before, each replication of a study
    # failed alone and its coverage rows came out NaN.
    with pytest.raises(ConfigError, match="too large to invert"):
        Scenario(system=system, hazards=hazards, n=20, seed=1, censor=censor)


def test_a_scenario_rejects_competing_causes_too_large_to_invert():
    # Each cause alone can be inverted, but not their sum: the scenario used
    # to be built, and every simulation then failed naming an internal class.
    cause = ConstantHazard(6e153, 1.0)
    with pytest.raises(ConfigError, match="too large to invert") as err:
        Scenario(
            system=SystemKind("cumulative_incidence", n_causes=2),
            hazards={"cause1": cause, "cause2": cause},
            n=20,
            seed=1,
        )
    assert "_SumHazard" not in str(err.value)


def test_a_cause_count_below_one_is_named():
    # Such a kind had no driver slots, and a scenario of it failed as one
    # whose hazards do not share a horizon.
    with pytest.raises(ConfigError, match="n_causes"):
        Scenario(
            system=SystemKind("cumulative_incidence", n_causes=0), hazards={}, n=10,
            seed=1,
        )
    with pytest.raises(ConfigError, match="n_causes"):
        SystemKind.from_config({"name": "cumulative_incidence", "n_causes": -1})


#: Horizons; on a power of two, ``-intercept / horizon`` takes a linear rate
#: to exactly 0 at the horizon.
HORIZONS = st.sampled_from([0.5, 1.0, 2.0]) | st.floats(0.1, 4.0)
#: Hazard rates, with zero often.
RATES = st.sampled_from([0.0, 1.0]) | st.floats(0.0, 5.0)


def linear_hazard(intercept, slope, horizon):
    # The slope raised until rounding leaves the rate nonnegative at the
    # horizon.
    while intercept + slope * horizon < 0:
        slope = np.nextafter(slope, np.inf)
    return LinearHazard(intercept, float(slope), horizon)


@st.composite
def hazard_parts(draw, horizon):
    form = draw(st.sampled_from(["constant", "linear", "table"]))
    if form == "constant":
        return ConstantHazard(draw(RATES), horizon)
    if form == "linear":
        intercept = draw(RATES)
        # -intercept / horizon: the rate reaches 0 at the horizon.
        lowest = -intercept / horizon
        slope = draw(st.sampled_from([lowest, 0.0]) | st.floats(lowest, 5.0))
        return linear_hazard(intercept, slope, horizon)
    # Knots at 0, at and past the horizon; zero rates make flat pieces.
    times = draw(
        st.lists(
            st.sampled_from([0.0, 0.5 * horizon, horizon])
            | st.floats(0.0, 1.5 * horizon),
            min_size=1,
            max_size=6,
            unique=True,
        )
    )
    rates = draw(st.lists(RATES, min_size=len(times), max_size=len(times)))
    try:
        return TableHazard(tuple(sorted(times)), tuple(rates), horizon)
    except ConfigError:  # knots too close for a finite slope
        reject()


@st.composite
def hazard_specs(draw):
    horizon = draw(HORIZONS)
    parts = draw(st.lists(hazard_parts(horizon), min_size=1, max_size=3))
    return parts[0] if len(parts) == 1 else _SumHazard(parts)


@st.composite
def inversions(draw):
    """A spec and sorted targets: drawn values up to past the total, 0, the
    cumulative at every knot (the total among them), the next double past
    the total, and runs of neighbouring doubles."""
    spec = draw(hazard_specs())
    total = float(spec.cumulative(spec.horizon))
    ends, _, _ = spec._pieces
    targets = draw(st.lists(st.floats(0.0, 1.2 * total + 1.0), max_size=20))
    targets += [0.0, *ends.tolist(), np.nextafter(total, np.inf)]
    for start in draw(st.lists(st.sampled_from(targets), max_size=3)):
        run = [start]
        for _ in range(8):
            run.append(np.nextafter(run[-1], np.inf))
        targets += run
    return spec, np.sort(np.array(targets, dtype=float))


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(inversions())
@example(
    (LinearHazard(1.0, -1.0, 1.0), np.array([0.0, 0.25, 0.5, np.nextafter(0.5, 1.0)]))
)
@example(  # the first piece's slope 2e308 overflows
    (TableHazard((0.0, 1e-308), (0.0, 1.0), 1.0), np.array([0.0, 1e-309, 0.5, 1.0]))
)
@example(
    (
        TableHazard((0.0, 0.3, 0.5, 0.7), (1.0, 0.0, 0.0, 2.0), 1.0),
        np.array([0.0, 0.15, 0.15, np.nextafter(0.15, 1.0), 0.4, 0.6]),
    )
)
def test_closed_form_inverse_matches_the_bisection(case):
    spec, y = case
    got = spec.invert(y)
    want = bisect_invert(spec, y)
    assert np.array_equal(np.isinf(got), np.isinf(want))
    assert (got[1:] >= got[:-1]).all()
    scalar = np.array([spec.invert(v)[0] for v in y])
    assert np.array_equal(got.view(np.uint64), scalar.view(np.uint64))
    done = np.isfinite(got)
    y, got, want = y[done], got[done], want[done]
    assert ((0.0 <= got) & (got <= spec.horizon)).all()
    tol = 1e-12 * np.maximum(1.0, y)
    assert (np.abs(spec.cumulative(got) - y) <= tol).all()
    # The bisection brackets the first crossing of the rounded cumulative.
    # Where the rate is near 0, the cumulative is flat to rounding over more
    # than the bisection's tolerance: there the two may differ by more, but
    # both must be roots to rounding, and the rate must not vanish between
    # them (on a flat stretch the first time is the root, not any time).
    close = np.abs(got - want) <= BISECT_TOL
    flat = (np.abs(spec.cumulative(want) - y) <= tol) & (
        spec.rate(0.5 * (got + want)) > 0
    )
    assert (close | flat).all()


class TestSimulation:
    def test_event_times_follow_the_law(self):
        sc = Scenario(
            system=SystemKind("survival"),
            hazards={"event": ConstantHazard(1.0, 20.0)},
            n=10_000,
            seed=101,
        )
        ds = simulate_dataset(sc)
        events = np.array(
            [r.exit_time for r in ds.records if r.event_code == 1]
        )
        assert events.size > 9_990
        stat = stats.kstest(events, stats.expon.cdf).statistic
        assert stat < 1.63 / np.sqrt(events.size)

    def test_large_sample_estimate_near_truth(self):
        sc = Scenario(
            system=SystemKind("survival"),
            hazards={"event": ConstantHazard(1.0, 1.5)},
            n=100_000,
            seed=7,
        )
        ds = simulate_dataset(sc)
        driver, _ = estimate_driver(ds, sc.system)
        state = solve_plugin(make_system("survival"), driver)
        s_hat = float(state.value_at(1.0)[0])
        assert abs(s_hat - math.exp(-1.0)) < 0.01

    def test_zero_hazard_censors_everyone_at_horizon(self):
        sc = Scenario(
            system=SystemKind("survival"),
            hazards={"event": ConstantHazard(0.0, 2.0)},
            n=25,
            seed=3,
        )
        ds = simulate_dataset(sc)
        assert all(r.event_code == 0 and r.exit_time == 2.0 for r in ds.records)

    def test_same_seed_same_dataset(self):
        sc = Scenario(
            system=SystemKind("rmst"),
            hazards={"event": ConstantHazard(1.0, 1.0)},
            censor=ConstantHazard(0.3, 1.0),
            n=200,
            seed=11,
        )
        assert simulate_dataset(sc).records == simulate_dataset(sc).records

    def test_crossing_rates_cross_in_the_middle_bin(self):
        # Rates 1.5 - t and 0.5 + t intersect at t = 0.5; per-bin increments
        # of the two estimated cumulative hazards must swap order there.
        sc = Scenario(
            system=SystemKind("relative_survival"),
            hazards={
                "group1": LinearHazard(1.5, -1.0, 1.0),
                "group0": LinearHazard(0.5, 1.0, 1.0),
            },
            n=60_000,
            seed=19,
        )
        ds = simulate_dataset(sc)
        driver, meta = estimate_driver(ds, sc.system)
        edges = np.linspace(0.0, 1.0, 11)
        per_bin_1, _ = np.histogram(
            driver.times, bins=edges, weights=driver.increments[:, 0]
        )
        per_bin_0, _ = np.histogram(
            driver.times, bins=edges, weights=driver.increments[:, 1]
        )
        diff = per_bin_1 - per_bin_0
        assert np.all(diff[:4] > 0)
        assert np.all(diff[7:] < 0)
        first_negative = int(np.argmax(diff < 0))
        assert first_negative in (4, 5, 6)

    def test_recurrent_event_spells_chain(self):
        sc = Scenario(
            system=SystemKind("mean_frequency"),
            hazards={
                "recurrent": ConstantHazard(2.0, 1.0),
                "terminal": ConstantHazard(1.0, 1.0),
            },
            n=60,
            seed=23,
        )
        ds = simulate_dataset(sc)
        by_subject: dict[str, list] = {}
        for rec in ds.records:
            by_subject.setdefault(rec.subject_id, []).append(rec)
        assert len(by_subject) == 60
        saw_multiple = False
        for spells in by_subject.values():
            saw_multiple = saw_multiple or len(spells) > 1
            for prev, nxt in zip(spells, spells[1:]):
                assert prev.event_code == 1
                assert nxt.entry_time == prev.exit_time
            assert spells[-1].event_code in (0, 2)
        assert saw_multiple


class TestOracle:
    def test_exponential_survival_curve(self):
        path = oracle_parameter(
            {"event": ConstantHazard(1.0, 1.0)}, SystemKind("survival")
        )
        probe = np.linspace(0.0, 1.0, 501)
        err = np.abs(path.value_at(probe)[:, 0] - np.exp(-probe)).max()
        assert err < 1e-5

    def test_restricted_mean_of_exponential(self):
        path = oracle_parameter({"event": ConstantHazard(1.0, 1.0)}, SystemKind("rmst"))
        got = float(path.value_at(1.0)[0])
        assert abs(got - (1.0 - math.exp(-1.0))) < 1e-5

    def test_event_frequency_matches_quadrature(self):
        hazards = {
            "recurrent": ConstantHazard(2.0, 1.0),
            "terminal": ConstantHazard(1.0, 1.0),
        }
        path = oracle_parameter(hazards, SystemKind("mean_frequency"), fine_step=2e-5)
        for t in (0.3, 0.7, 1.0):
            ref, _ = integrate.quad(lambda u: 2.0 * math.exp(-u), 0.0, t)
            assert abs(float(path.value_at(t)[0]) - ref) < 5e-5

    def test_halving_the_step_halves_the_error(self):
        probe = np.linspace(0.0, 1.0, 101)
        truth = np.exp(-probe)
        errs = []
        for step in (4e-5, 2e-5, 1e-5):
            path = oracle_parameter(
                {"event": ConstantHazard(1.0, 1.0)},
                SystemKind("survival"),
                fine_step=step,
            )
            errs.append(np.abs(path.value_at(probe)[:, 0] - truth).max())
        assert errs[0] > errs[1] > errs[2]
        assert 1.7 < errs[0] / errs[1] < 2.3
        assert 1.7 < errs[1] / errs[2] < 2.3

    def test_interior_start_with_state_override(self):
        s0 = math.exp(-0.25)
        path = oracle_parameter(
            {"event": ConstantHazard(1.0, 1.0)},
            SystemKind("survival"),
            start=0.25,
            x0_override=[s0],
        )
        assert abs(float(path.value_at(1.0)[0]) - math.exp(-1.0)) < 1e-5

    @pytest.mark.parametrize("start", [1.0, 2.0, -0.1])
    def test_a_start_outside_the_horizon_is_named(self, start):
        # A start at or past the horizon used to be reported as a bad step,
        # "step must satisfy 0 < step <= -1".
        with pytest.raises(ValueError, match=r"^start must lie in \[0, 1\)"):
            oracle_parameter(
                {"event": ConstantHazard(1.0, 1.0)}, SystemKind("survival"), start=start
            )


#: One scenario per system without guards (every linear one), horizon 1.5.
LINEAR_SCENARIOS = {
    "survival": (SystemKind("survival"), {"event": LinearHazard(0.5, 1.0, 1.5)}),
    "rmst": (SystemKind("rmst"), {"event": ConstantHazard(1.2, 1.5)}),
    "relative_survival": (
        SystemKind("relative_survival"),
        {"group1": LinearHazard(1.5, -0.6, 1.5), "group0": LinearHazard(0.5, 1.0, 1.5)},
    ),
    "led": (
        SystemKind("led"),
        {"group1": ConstantHazard(1.0, 1.5), "group2": ConstantHazard(0.5, 1.5)},
    ),
    "cumulative_incidence": (
        SystemKind("cumulative_incidence", n_causes=3),
        {
            "cause1": ConstantHazard(0.6, 1.5),
            "cause2": LinearHazard(0.2, 0.5, 1.5),
            "cause3": TableHazard((0.0, 0.5), (0.1, 0.9), 1.5),
        },
    ),
    "mean_frequency": (
        SystemKind("mean_frequency"),
        {"recurrent": ConstantHazard(1.5, 1.5), "terminal": ConstantHazard(0.8, 1.5)},
    ),
}


@pytest.mark.parametrize("t_grid", [[0.0, 0.7, 0.7, 0.2], [1.5, 0.3]])
@pytest.mark.parametrize("oracle_step", [None, 7e-3])
@pytest.mark.parametrize("name", sorted(LINEAR_SCENARIOS))
def test_coverage_truth_is_the_oracle_path_bit_for_bit(
    name, oracle_step, t_grid, monkeypatch
):
    # The study solves the oracle only up to the last row t_grid reads, in
    # pieces of _ORACLE_ROWS rows (up to 13 at the default step), keeping
    # only the rows read: its truth is still the whole path's value, with
    # t = 0 (the initial state), the horizon (the last row) and a repeated
    # time.
    kind, hazards = LINEAR_SCENARIOS[name]
    system = make_system(kind)
    nan = np.full(system.state_dim, np.nan)
    assert all(np.isfinite(g(nan)).all() for g in system.gradients)  # linear
    assert not system.guards
    contexts = []
    monkeypatch.setattr(
        simlab, "_run_blocks", lambda groups, ctx, jobs: contexts.append(ctx) or []
    )
    sc = Scenario(system=kind, hazards=hazards, n=10, seed=1, k_replications=1)
    for comp in range(system.state_dim):
        coverage_study(sc, t_grid=t_grid, component=comp, oracle_step=oracle_step)
        path = oracle_parameter(hazards, kind, fine_step=oracle_step)
        want = path.value_at(np.array(t_grid))[:, comp]
        got = contexts[-1]["oracle_values"]
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


SCREENING = SystemKind("screening", prevalence=0.3, initial_value=(0.8, 0.7, 0.6, 0.5))


@pytest.mark.parametrize("t_grid", [[0.0, 0.7, 0.7, 0.2], [1.5, 0.3]])
@pytest.mark.parametrize("oracle_step", [None, 7e-3])
def test_guarded_coverage_truth_is_the_oracle_path_bit_for_bit(
    oracle_step, t_grid, monkeypatch
):
    # Screening steps its states and has guards: the study solves its oracle
    # to the last grid row in pieces of _ORACLE_ROWS rows, checking each
    # piece's path, and its truth is still the whole path's value.
    hazards = {"positive": ConstantHazard(0.7, 1.5), "negative": ConstantHazard(1.2, 1.5)}
    contexts = []
    monkeypatch.setattr(
        simlab, "_run_blocks", lambda groups, ctx, jobs: contexts.append(ctx) or []
    )
    sc = Scenario(system=SCREENING, hazards=hazards, n=10, seed=1, k_replications=1)
    path = oracle_parameter(hazards, SCREENING, fine_step=oracle_step)
    for comp in range(4):
        coverage_study(sc, t_grid=t_grid, component=comp, oracle_step=oracle_step)
        want = path.value_at(np.array(t_grid))[:, comp]
        got = contexts[-1]["oracle_values"]
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


ORACLE_CASES = {
    **LINEAR_SCENARIOS,
    "screening": (
        SCREENING,
        {"positive": ConstantHazard(0.7, 1.5), "negative": ConstantHazard(1.2, 1.5)},
    ),
    "ler": (
        SystemKind("ler"),
        {"group1": ConstantHazard(1.0, 1.5), "group2": ConstantHazard(0.5, 1.5)},
    ),
}


@pytest.mark.parametrize("name", sorted(ORACLE_CASES))
def test_the_oracle_is_the_plugin_solve_on_the_exact_hazards(name):
    # Solved in pieces of _ORACLE_ROWS rows (two at this step), the oracle
    # path is bit for bit solve_plugin on the whole fine-grid driver of the
    # exact cumulative hazards; ler starts inside, off its guard.
    kind, hazards = ORACLE_CASES[name]
    start, x0 = (0.1, [1.0, 1.0, 1.0, 0.1, 0.1]) if name == "ler" else (0.0, None)
    step = (1.5 - start) / 1e4
    times = _grid_times(1.5, step, start)
    assert simlab._ORACLE_ROWS < times.size < 2 * simlab._ORACLE_ROWS
    increments = simlab._oracle_increments(hazards, kind, times, start)
    driver = StepPath(times, increments, np.zeros(increments.shape[1]), 1.5)
    want = solve_plugin(make_system(kind), driver, x0_override=x0)
    got = oracle_parameter(hazards, kind, step, x0_override=x0, start=start)
    assert got.times.tobytes() == want.times.tobytes()
    assert got.increments.tobytes() == want.increments.tobytes()
    assert got.origin_value.tobytes() == want.origin_value.tobytes()


def test_an_oracle_trip_after_the_last_coverage_time_is_raised(monkeypatch):
    # cum_npv decays as 0.7 exp(-25 t) and falls through its guard near t =
    # 0.72, in a later piece than the one holding the last coverage time:
    # the study raises the GuardViolation oracle_parameter raises.
    hazards = {"positive": ConstantHazard(0.5, 1.0), "negative": ConstantHazard(25.0, 1.0)}
    monkeypatch.setattr(simlab, "_run_blocks", lambda *a: pytest.fail("simulated"))
    sc = Scenario(system=SCREENING, hazards=hazards, n=10, seed=1, k_replications=1)
    with pytest.raises(GuardViolation) as want:
        oracle_parameter(hazards, SCREENING)
    with pytest.raises(GuardViolation) as got:
        coverage_study(sc, t_grid=[0.1, 0.5])
    assert want.value.component == "cum_npv"
    assert (want.value.time - 0.5) * 1e5 > 2 * simlab._ORACLE_ROWS
    assert (got.value.component, got.value.time, got.value.value) == (
        want.value.component, want.value.time, want.value.value
    )


class TestDistances:
    def test_hand_built_paths(self):
        a = step_path_1d([0.5], [1.0], horizon=1.0)
        b = step_path_1d([], [], horizon=1.0)
        assert l2_distance(a, b, 0, 0, upto=1.0) == pytest.approx(0.5, abs=1e-15)

    def test_identical_paths_have_zero_distance(self):
        a = step_path_1d([0.2, 0.8], [0.4, 1.0], horizon=1.0)
        assert l2_distance(a, a, 0, 0, upto=1.0) == 0.0

    def test_component_selection(self):
        times = np.array([0.5])
        a = StepPath(times, np.array([[1.0, 0.3]]), np.zeros(2), 1.0)
        b = StepPath(times, np.array([[0.0, 0.3]]), np.zeros(2), 1.0)
        assert l2_distance(a, b, 1, 1, upto=1.0) == 0.0
        assert l2_distance(a, b, 0, 0, upto=1.0) == 0.5


class TestWilson:
    def test_against_direct_formula(self):
        z = 1.959963984540054
        s, n = 45, 50
        lo, hi = wilson_interval(s, n)
        p = s / n
        mid = (2 * n * p + z * z) / (2 * (n + z * z))
        rad = z * math.sqrt(4 * n * p * (1 - p) + z * z) / (2 * (n + z * z))
        assert lo == pytest.approx(mid - rad, abs=1e-12)
        assert hi == pytest.approx(mid + rad, abs=1e-12)

    def test_edge_counts(self):
        lo, hi = wilson_interval(0, 20)
        assert abs(lo) < 1e-15 and 0.0 < hi < 1.0
        lo, hi = wilson_interval(20, 20)
        assert 0.0 < lo < 1.0 and abs(hi - 1.0) < 1e-15

    def test_no_trials_is_undefined(self):
        lo, hi = wilson_interval(0, 0)
        assert math.isnan(lo) and math.isnan(hi)


def survival_scenario(n, seed, k=1):
    return Scenario(
        system=SystemKind("survival"),
        hazards={"event": ConstantHazard(1.0, 1.0)},
        n=n,
        seed=seed,
        k_replications=k,
    )


def two_group_scenario(n, seed=1, k=1):
    return Scenario(
        system=SystemKind("relative_survival"),
        hazards={"group1": ConstantHazard(1.0, 1.0), "group0": ConstantHazard(0.5, 1.0)},
        n=n,
        seed=seed,
        k_replications=k,
    )


@pytest.mark.parametrize("study", ["coverage", "convergence"])
def test_a_rejected_replication_is_a_data_error_and_its_block_carries_on(
    study, monkeypatch
):
    # Replication 2's first spell is made to end where it starts, which its
    # dataset rejects: the study counts it as a DataError, and the other
    # replications of its block come out as they do in blocks of one.
    sc = two_group_scenario(40, seed=3, k=5)
    key = (0, 2) if study == "coverage" else (0, 0, 2)
    bad = simlab._child_seed(sc.seed, *key)
    simulate = simlab._simulate

    def corrupt(sc, n, seeds):
        spells = simulate(sc, n, seeds)
        if bad in seeds:
            first = np.flatnonzero(spells.rep == list(seeds).index(bad))[0]
            spells.exit[first] = spells.entry[first]
            own = spells.rep == list(seeds).index(bad)
            with pytest.raises(DataError, match="entry_time >= exit_time"):
                EventDataset.from_columns(
                    spells.subject[own], spells.entry[own], spells.exit[own],
                    spells.code[own], spells.horizon, group=spells.group[own],
                )
        return spells

    monkeypatch.setattr(simlab, "_simulate", corrupt)
    results = []
    for size in (5, 1):
        monkeypatch.setattr(simlab, "_block_size", lambda *args: size)
        if study == "coverage":
            results.append(coverage_study(sc, t_grid=[0.2, 0.5, 0.8]))
        else:
            results.append(l2_convergence(sc, [40], oracle_step=1e-3))
    whole, alone = results
    assert whole.rows == alone.rows
    assert whole.metadata == alone.metadata
    failures = whole.metadata["failures"]
    assert failures == ({"DataError": 1} if study == "coverage" else {"40": 1})
    if study == "coverage":
        assert whole.metadata["replications_used"] == 4


def failing_scenario(k=3):
    # Two test-negative subjects under rate 6 on [0, 1]: with near certainty
    # both have events, the second with a unit hazard increment, which drives
    # the cumulative negative-predictive-value component onto its guard.
    return Scenario(
        system=SystemKind(
            "screening", prevalence=0.3, initial_value=[0.6, 0.9, 0.7, 0.8]
        ),
        hazards={
            "positive": ConstantHazard(1.0, 1.0),
            "negative": ConstantHazard(6.0, 1.0),
        },
        n=4,
        seed=0,
        k_replications=k,
    )


class TestScenarioValidation:
    def test_missing_role(self):
        with pytest.raises(ConfigError, match=r"missing hazard\(s\) for role\(s\): \['group2'\]"):
            Scenario(
                system=SystemKind("ler"),
                hazards={"group1": ConstantHazard(1.0, 1.0)},
                n=10,
                seed=0,
            )

    def test_unknown_role(self):
        with pytest.raises(ConfigError, match="unknown role"):
            Scenario(
                system=SystemKind("survival"),
                hazards={
                    "event": ConstantHazard(1.0, 1.0),
                    "extra": ConstantHazard(1.0, 1.0),
                },
                n=10,
                seed=0,
            )

    def test_horizons_must_agree(self):
        with pytest.raises(ConfigError, match="one horizon"):
            Scenario(
                system=SystemKind("relative_survival"),
                hazards={
                    "group1": ConstantHazard(1.0, 1.0),
                    "group0": ConstantHazard(1.0, 2.0),
                },
                n=10,
                seed=0,
            )

    def test_counts_and_seed_validated(self):
        with pytest.raises(ConfigError, match="n >= 1"):
            survival_scenario(0, 1)
        with pytest.raises(ConfigError, match="k_replications >= 1"):
            survival_scenario(10, 1, k=0)
        with pytest.raises(ConfigError, match="seed"):
            survival_scenario(10, -1)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("n", 2.5),
            ("n", True),
            ("seed", 1.5),
            ("seed", True),
            ("k_replications", 2.5),
            ("k_replications", True),
        ],
    )
    def test_counts_and_seed_must_be_integers(self, field, value):
        fields = {"n": 10, "seed": 1, "k_replications": 1, field: value}
        with pytest.raises(ConfigError, match=f"{field} must be an integer"):
            Scenario(
                system="survival", hazards={"event": ConstantHazard(1.0, 1.0)}, **fields
            )

    def test_numpy_integer_counts_are_stored_as_ints(self):
        sc = survival_scenario(np.int64(10), np.uint64(1), k=np.int32(2))
        assert json.loads(json.dumps(sc.describe()))["n"] == 10
        assert all(type(v) is int for v in (sc.n, sc.seed, sc.k_replications))

    def test_two_groups_need_a_subject_each(self):
        with pytest.raises(ConfigError, match=r"n >= 2 subjects \(one per group\)"):
            two_group_scenario(1)
        ds = simulate_dataset(two_group_scenario(2))
        assert sorted(r.group for r in ds.records) == [0, 1]


class TestStudies:
    def test_convergence_rows_and_metadata(self):
        res = l2_convergence(survival_scenario(50, 5, k=4), [50, 100])
        assert res.kind == "convergence"
        assert res.columns == ("n", "L")
        assert [n for n, _ in res.rows] == [50, 100]
        assert all(value > 0 for _, value in res.rows)
        meta = res.metadata
        assert meta["study"] == "convergence"
        assert meta["target"] == "estimate"
        assert meta["n_list"] == [50, 100]
        assert meta["failures"] == {}
        assert meta["scenario"]["system"]["name"] == "survival"

    def test_convergence_jobs_do_not_change_results(self):
        sc = survival_scenario(40, 9, k=4)
        serial = l2_convergence(sc, [40, 80], n_jobs=1)
        parallel = l2_convergence(sc, [40, 80], n_jobs=2)
        assert serial.rows == parallel.rows

    def test_variance_convergence_jobs_do_not_change_results(self):
        sc = survival_scenario(40, 9, k=3)
        kwargs = dict(target="variance", bootstrap_n=160, bootstrap_b=10)
        serial = l2_convergence(sc, [40, 80], n_jobs=1, **kwargs)
        parallel = l2_convergence(sc, [40, 80], n_jobs=2, **kwargs)
        assert serial.rows == parallel.rows
        assert serial.metadata == parallel.metadata

    def test_no_more_worker_processes_than_replications(self, monkeypatch):
        import concurrent.futures

        pools = []

        class SerialPool:
            """Records ``max_workers`` and runs the tasks in this process."""

            def __init__(self, max_workers, initializer, initargs):
                pools.append(max_workers)
                initializer(*initargs)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, tasks, chunksize=1):
                return map(fn, tasks)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
        # A task is a block of replications: blocks of 8 make four tasks of
        # 32 replications, four processes.
        monkeypatch.setattr(simlab, "_block_size", lambda *args: 8)
        sc = survival_scenario(30, 3, k=32)
        want = coverage_study(sc, t_grid=[0.5])
        assert coverage_study(sc, t_grid=[0.5], n_jobs=64).rows == want.rows
        assert pools == [4]
        l2_convergence(sc, [30, 40], n_jobs=64)
        assert pools == [4, 8]
        coverage_study(survival_scenario(30, 3, k=1), t_grid=[0.5], n_jobs=2)
        assert pools == [4, 8]

    def test_convergence_failure_protocol(self):
        res = l2_convergence(failing_scenario(k=3), [4])
        (row,) = res.rows
        assert row[0] == 4 and math.isnan(row[1])
        assert res.metadata["failures"] == {"4": 3}

    def test_coverage_rows_and_metadata(self):
        sc = survival_scenario(120, 13, k=40)
        t_grid = [0.2, 0.35, 0.5, 0.65, 0.8]
        res = coverage_study(sc, level=0.95, t_grid=t_grid)
        assert res.columns == ("t", "coverage", "wilson_lo", "wilson_hi", "level")
        assert [row[0] for row in res.rows] == t_grid
        for _, coverage, lo, hi, level in res.rows:
            assert level == 0.95
            assert 0.7 <= coverage <= 1.0
            assert lo <= coverage <= hi
        assert res.metadata["replications_used"] == 40
        assert res.metadata["failures"] == {}

    def test_coverage_default_grid_is_interior(self):
        res = coverage_study(survival_scenario(40, 21, k=2))
        ts = [row[0] for row in res.rows]
        assert len(ts) == 13
        assert ts[0] == pytest.approx(0.2) and ts[-1] == pytest.approx(0.8)

    def test_coverage_jobs_do_not_change_results(self, monkeypatch):
        # Eight replications fit one block; blocks of 3 give the two workers
        # three tasks.
        monkeypatch.setattr(simlab, "_block_size", lambda *args: 3)
        sc = survival_scenario(60, 17, k=8)
        assert study_tasks(sc.system, [60], 8, [(0, 0)]) == 3
        serial = coverage_study(sc, t_grid=[0.3, 0.6], n_jobs=1)
        parallel = coverage_study(sc, t_grid=[0.3, 0.6], n_jobs=2)
        assert serial.rows == parallel.rows

    def test_coverage_failure_protocol(self):
        res = coverage_study(failing_scenario(k=3), t_grid=[0.5])
        assert res.metadata["replications_used"] == 0
        assert res.metadata["failures"] == {"GuardViolation": 3}
        (row,) = res.rows
        assert math.isnan(row[1]) and math.isnan(row[2]) and math.isnan(row[3])

    def test_variance_target_study_runs(self):
        sc = survival_scenario(100, 29, k=3)
        res = l2_convergence(
            sc, [50, 100], target="variance", bootstrap_n=400, bootstrap_b=20
        )
        assert res.metadata["bootstrap_n"] == 400
        assert res.metadata["bootstrap_b"] == 20
        assert all(value >= 0 for _, value in res.rows)

    @pytest.mark.parametrize("component", [-1, 1, 0.0, "0"])
    @pytest.mark.parametrize("study", ["coverage", "convergence"])
    def test_component_outside_the_state_rejected(self, study, component):
        sc = survival_scenario(10, 1)
        with pytest.raises(ConfigError, match="component"):
            if study == "coverage":
                coverage_study(sc, component=component)
            else:
                l2_convergence(sc, [10], component=component)

    @pytest.mark.parametrize(
        "t_grid", [[5.0], [-1.0], [0.5, 1.0 + 1e-9], [float("nan")]]
    )
    def test_coverage_times_outside_the_window_rejected(self, t_grid):
        with pytest.raises(ConfigError, match=r"t_grid values must lie in \[0, 1.0\]"):
            coverage_study(survival_scenario(10, 1), t_grid=t_grid)

    @pytest.mark.parametrize("t_grid", [[], [[0.3]], 0.5])
    def test_coverage_times_not_a_non_empty_list_rejected(self, t_grid, monkeypatch):
        monkeypatch.setattr(
            simlab, "simulate_dataset", lambda *a: pytest.fail("a dataset was simulated")
        )
        with pytest.raises(ConfigError, match="t_grid must be a non-empty list"):
            coverage_study(survival_scenario(10, 1), t_grid=t_grid)

    def test_coverage_times_at_the_window_ends_accepted(self):
        res = coverage_study(survival_scenario(20, 1, k=2), t_grid=[0.0, 1.0])
        assert [row[0] for row in res.rows] == [0.0, 1.0]

    @pytest.mark.parametrize(
        "n_list", [[], [0, 50], [30.5], [-1], [True], [10.0], [20, 20]]
    )
    def test_bad_sample_sizes_rejected_before_any_replication(
        self, n_list, monkeypatch
    ):
        monkeypatch.setattr(
            simlab, "_run_tasks", lambda *a: pytest.fail("a replication ran")
        )
        with pytest.raises(ConfigError, match="n_list"):
            l2_convergence(survival_scenario(10, 1), n_list)

    def test_sample_sizes_below_the_group_count_rejected(self, monkeypatch):
        monkeypatch.setattr(
            simlab, "simulate_dataset", lambda *a: pytest.fail("a dataset was simulated")
        )
        sc = two_group_scenario(50)
        with pytest.raises(ConfigError, match="n_list .* >= 2"):
            l2_convergence(sc, [1, 50])
        for bootstrap_n in (1, 2.5, True):
            with pytest.raises(ConfigError, match="bootstrap_n must be an integer"):
                l2_convergence(sc, [50], target="variance", bootstrap_n=bootstrap_n)

    @pytest.mark.parametrize("b", [1, 0, 2.5, True, None])
    def test_bad_bootstrap_b_rejected_before_any_simulation(self, b, monkeypatch):
        monkeypatch.setattr(
            simlab, "simulate_dataset", lambda *a: pytest.fail("a dataset was simulated")
        )
        with pytest.raises(ConfigError, match="bootstrap_b"):
            l2_convergence(
                survival_scenario(10, 1), [10], target="variance", bootstrap_b=b
            )

    @pytest.mark.parametrize("n_jobs", [0, -3, 2.5, "2", True, None])
    @pytest.mark.parametrize("study", ["coverage", "convergence"])
    def test_bad_n_jobs_rejected_before_any_work(self, study, n_jobs, monkeypatch):
        # 0 and -3 used to run serially without a word, and 2.5 and "2" to
        # fail with a TypeError, 2.5 only after the oracle was solved.
        def fail(*args, **kwargs):
            pytest.fail("the study simulated or solved its oracle")

        for name in ("_simulate", "_oracle_values", "oracle_parameter"):
            monkeypatch.setattr(simlab, name, fail)
        sc = survival_scenario(10, 1)
        with pytest.raises(ConfigError, match="n_jobs must be an integer"):
            if study == "coverage":
                coverage_study(sc, n_jobs=n_jobs)
            else:
                l2_convergence(sc, [10], n_jobs=n_jobs)

    @pytest.mark.parametrize(
        "setting,match",
        [({"level": "0.9"}, "level must be a number"),
         ({"level": None}, "level must be a number"),
         ({"t_grid": ["a"]}, "t_grid must be a non-empty list of times"),
         ({"t_grid": [[0.1], [0.2, 0.3]]}, "t_grid must be a non-empty list")],
    )
    def test_bad_level_or_t_grid_rejected_before_any_work(
        self, setting, match, monkeypatch
    ):
        # level="0.9" used to leak a TypeError from the comparison, and
        # t_grid=["a"] a bare ValueError from the array conversion.
        def fail(*args, **kwargs):
            pytest.fail("the study simulated or solved its oracle")

        for name in ("_simulate", "_oracle_values", "oracle_parameter"):
            monkeypatch.setattr(simlab, name, fail)
        with pytest.raises(ConfigError, match=match):
            coverage_study(survival_scenario(10, 1), **setting)

    @pytest.mark.parametrize("grid_step", [0, -1, 1.5, float("nan"), "0.1", True])
    @pytest.mark.parametrize("study", ["coverage", "convergence", "bootstrap"])
    def test_bad_grid_step_rejected_before_any_work(
        self, study, grid_step, monkeypatch
    ):
        # Out of (0, horizon] the step used to be a ValueError from the time
        # grid, raised only after the oracle was solved (or the bootstrap's
        # base driver built); rmst has a time slot, so its grid reads it.
        def fail(*args, **kwargs):
            pytest.fail("the study simulated, built a driver or solved its oracle")

        for name in ("_simulate", "_oracle_values", "oracle_parameter"):
            monkeypatch.setattr(simlab, name, fail)
        monkeypatch.setattr(simlab, "estimate_driver", fail)
        sc = Scenario(
            system=SystemKind("rmst"), hazards={"event": ConstantHazard(1.0, 1.0)},
            n=10, seed=1, k_replications=1,
        )
        with pytest.raises(ConfigError, match="grid_step must"):
            if study == "coverage":
                coverage_study(sc, grid_step=grid_step)
            elif study == "convergence":
                l2_convergence(sc, [10], grid_step=grid_step)
            else:
                ds = EventDataset.from_columns([0, 1], [0, 0], [0.5, 1.0], [1, 0], 1.0)
                bootstrap_covariance(ds, sc.system, b=2, seed=1, grid_step=grid_step)

    @pytest.mark.parametrize("oracle_step", [0, -1, 1.5, float("nan"), "0.1", True])
    @pytest.mark.parametrize("study", ["coverage", "convergence"])
    def test_bad_oracle_step_rejected_before_any_work(
        self, study, oracle_step, monkeypatch
    ):
        # Out of (0, horizon] the step used to be a ValueError from the
        # oracle's time grid, raised while the oracle was built.
        def fail(*args, **kwargs):
            pytest.fail("the study simulated or solved its oracle")

        for name in ("_simulate", "_oracle_values", "oracle_parameter"):
            monkeypatch.setattr(simlab, name, fail)
        sc = survival_scenario(10, 1)
        with pytest.raises(ConfigError, match="oracle_step must"):
            if study == "coverage":
                coverage_study(sc, oracle_step=oracle_step)
            else:
                l2_convergence(sc, [10], oracle_step=oracle_step)

    @pytest.mark.parametrize("study", ["coverage", "convergence"])
    def test_a_spec_without_to_config_rejected_before_any_work(self, study, monkeypatch):
        # Such a spec simulates fine; a study used to run every replication
        # and then fail to describe its scenario with a bare
        # NotImplementedError.
        def fail(*args, **kwargs):
            pytest.fail("the study simulated or solved its oracle")

        for name in ("_simulate", "_oracle_values", "oracle_parameter"):
            monkeypatch.setattr(simlab, name, fail)
        sc = Scenario(system="survival", hazards={"event": BareRate(1.0, 1.0)}, n=10, seed=1)
        match = r"^BareRate has no to_config\(\), which a study needs"
        with pytest.raises(ConfigError, match=match):
            if study == "coverage":
                coverage_study(sc)
            else:
                l2_convergence(sc, [10])

    def test_a_spec_with_its_own_to_config_runs(self):
        def study(spec):
            sc = Scenario(
                system="survival", hazards={"event": spec}, n=30, seed=4, k_replications=3
            )
            return coverage_study(sc, t_grid=[0.3, 0.6])

        own, built_in = study(DescribedRate(1.0, 1.0)), study(ConstantHazard(1.0, 1.0))
        assert own.metadata["scenario"]["hazards"] == {
            "event": {"form": "described", "rate": 1.0, "horizon": 1.0}
        }
        assert own.rows == built_in.rows

    def test_unknown_target_rejected(self):
        with pytest.raises(ConfigError, match="target"):
            l2_convergence(survival_scenario(10, 1), [10], target="bias")

    def test_write_study_layout(self, tmp_path):
        res = l2_convergence(survival_scenario(30, 31, k=2), [30])
        write_study(res, tmp_path / "conv")
        with open(tmp_path / "conv.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["n", "L"]
        assert rows[1][0] == "30" and float(rows[1][1]) == res.rows[0][1]
        with open(tmp_path / "conv.json") as fh:
            meta = json.load(fh)
        assert meta["study"] == "convergence"
        assert meta["seed"] == 31


class TestBootstrap:
    def test_identical_subjects_give_zero_covariance(self):
        from hazard_transform import EventDataset, EventRecord

        records = [EventRecord(f"s{i}", 0.0, 0.7, 1) for i in range(5)]
        ds = EventDataset(records=records, horizon=1.0)
        times, cov = bootstrap_covariance(ds, SystemKind("survival"), b=10, seed=1)
        np.testing.assert_array_equal(times, [0.7])
        np.testing.assert_allclose(cov, 0.0, rtol=0, atol=1e-14)

    def test_covariance_is_symmetric_and_psd(self):
        sc = Scenario(
            system=SystemKind("rmst"),
            hazards={"event": ConstantHazard(1.0, 1.0)},
            n=60,
            seed=37,
        )
        ds = simulate_dataset(sc)
        times, cov = bootstrap_covariance(
            ds, sc.system, b=40, seed=2, grid_step=0.02, time_grid=[0.25, 0.5, 0.75]
        )
        assert cov.shape == (3, 2, 2)
        for k in range(cov.shape[0]):
            np.testing.assert_allclose(cov[k], cov[k].T, rtol=0, atol=1e-12)
            assert np.linalg.eigvalsh(cov[k]).min() >= -1e-10

    def test_memory_stays_near_the_deltas_array(self):
        # The variance-study reference: 2000 subjects with recurrent events,
        # b = 100.  The deltas (grid times x components x resamples) must be
        # held; all else together stays under 1.5 times their size.
        sc = Scenario(
            system=SystemKind("mean_frequency"),
            hazards={
                "recurrent": ConstantHazard(1.0, 1.0),
                "terminal": ConstantHazard(0.5, 1.0),
            },
            censor=ConstantHazard(0.3, 1.0),
            n=2000,
            seed=3,
        )
        ds = simulate_dataset(sc)
        tracemalloc.start()
        try:
            times, cov = bootstrap_covariance(ds, sc.system, b=100, seed=4)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        deltas_bytes = times.size * 100 * cov.shape[1] * 8
        assert times.size > 1000
        assert peak <= 2.5 * deltas_bytes, peak / deltas_bytes

    def test_needs_at_least_two_resamples(self):
        ds = simulate_dataset(survival_scenario(10, 41))
        with pytest.raises(ValueError, match="b >= 2"):
            bootstrap_covariance(ds, SystemKind("survival"), b=1, seed=1)

    @pytest.mark.parametrize(
        "b,seed,match",
        [(2.5, 1, "b >= 2, got 2.5"), (True, 1, "b >= 2, got True"),
         (10, -1, "seed >= 0, got -1"), (10, 1.5, "seed >= 0, got 1.5"),
         (10, None, "seed >= 0, got None")],
    )
    def test_bad_b_or_seed_rejected_before_any_work(self, b, seed, match, monkeypatch):
        # b = 2.5 used to fail with a TypeError after the base fit, and
        # seed = -1 with NumPy's "expected non-negative integer".
        ds = simulate_dataset(survival_scenario(10, 41))
        monkeypatch.setattr(
            simlab, "estimate_driver", lambda *a, **k: pytest.fail("a driver was built")
        )
        with pytest.raises(ValueError, match=re.escape(match)):
            bootstrap_covariance(ds, SystemKind("survival"), b=b, seed=seed)
