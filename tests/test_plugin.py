"""State recursion, covariance recursion, confidence bands, fit round-trips."""

import numpy as np
import pytest

from hazard_transform import (
    ConfidenceBand,
    DriverMeta,
    EventDataset,
    EventRecord,
    NegativeVarianceError,
    PluginFit,
    StepPath,
    SystemKind,
    confidence_band,
    estimate_driver,
    fit_plugin,
    make_system,
    merge_drivers,
    nelson_aalen,
    read_fit,
    solve_plugin,
    solve_variance,
    time_grid_driver,
    write_fit,
)


def hazard_path(times, increments, horizon):
    incr = np.asarray(increments, dtype=float).reshape(len(times), 1)
    return StepPath(
        times=np.asarray(times, dtype=float),
        increments=incr,
        origin_value=np.zeros(1),
        horizon=horizon,
    )


def single_jump_fit(point_value, variance, scale_n):
    """A one-component fit with one jump at t=1, for band arithmetic tests."""
    state = StepPath(
        times=np.array([1.0]),
        increments=np.array([[point_value - 1.0]]),
        origin_value=np.ones(1),
        horizon=1.0,
    )
    return PluginFit(
        state_path=state,
        cov_path=np.array([[[variance]]]),
        v0=np.zeros((1, 1)),
        scale_n=scale_n,
        state_labels=("survival",),
    )


class TestStateRecursion:
    def test_survival_two_steps_by_hand(self):
        system = make_system("survival")
        driver = hazard_path([0.4, 0.7], [0.1, 0.2], horizon=1.0)
        state = solve_plugin(system, driver)
        np.testing.assert_allclose(
            state.values_at_jumps()[:, 0], [0.9, 0.72], rtol=0, atol=1e-15
        )

    def test_survival_equals_product_limit_on_simulated_data(self):
        rng = np.random.default_rng(7)
        exits = rng.exponential(1.0, size=200)
        codes = (exits <= 1.5).astype(int)
        exits = np.minimum(exits, 1.5)
        records = [
            EventRecord(str(i), 0.0, float(t), int(c))
            for i, (t, c) in enumerate(zip(exits, codes))
        ]
        ds = EventDataset(records=records, horizon=1.5)
        driver, meta = estimate_driver(ds, SystemKind("survival"))
        state = solve_plugin(make_system("survival"), driver)

        # Independent product-limit estimator from the raw arrays.
        event_times = np.unique(exits[codes == 1])
        km = []
        s = 1.0
        for t in event_times:
            n_at_risk = int(np.sum(exits >= t))
            d = int(np.sum((exits == t) & (codes == 1)))
            s *= 1.0 - d / n_at_risk
            km.append(s)
        np.testing.assert_allclose(state.times, event_times)
        np.testing.assert_allclose(
            state.values_at_jumps()[:, 0], km, rtol=0, atol=1e-12
        )

    def test_rmst_of_immortal_cohort_tracks_time(self):
        # Zero hazard: survival stays at 1 and the restricted mean reproduces
        # the identity t at every grid point.
        system = make_system("rmst")
        grid, grid_meta = time_grid_driver(1.0, 0.01)
        hz = hazard_path([], [], horizon=1.0)
        hz_meta = DriverMeta(
            scale_n=40, component_labels=("hazard",), deterministic_mask=(False,)
        )
        driver, _ = merge_drivers([(grid, grid_meta), (hz, hz_meta)])
        state = solve_plugin(system, driver)
        values = state.values_at_jumps()
        np.testing.assert_allclose(values[:, 0], state.times, rtol=0, atol=1e-12)
        np.testing.assert_allclose(values[:, 1], 1.0)

    def test_driver_dimension_checked(self):
        system = make_system("rmst")
        driver = hazard_path([0.5], [0.1], horizon=1.0)
        with pytest.raises(ValueError, match="components"):
            solve_plugin(system, driver)


class TestCovarianceRecursion:
    def test_single_step_variance_by_hand(self):
        # V = n * (F dA)^2 = 100 * (1 * 0.1)^2 = 1 at the only jump.
        system = make_system("survival")
        driver = hazard_path([0.5], [0.1], horizon=1.0)
        meta = DriverMeta(
            scale_n=100, component_labels=("hazard",), deterministic_mask=(False,)
        )
        state = solve_plugin(system, driver)
        cov = solve_variance(system, driver, meta, state)
        np.testing.assert_allclose(cov, [[[1.0]]], rtol=0, atol=1e-15)

    def test_jump_free_driver_gives_zero_covariance(self):
        system = make_system("survival")
        driver = hazard_path([], [], horizon=1.0)
        meta = DriverMeta(
            scale_n=50, component_labels=("hazard",), deterministic_mask=(False,)
        )
        fit = fit_plugin(system, driver, meta)
        assert fit.cov_path.shape == (0, 1, 1)
        np.testing.assert_allclose(fit.cov_diag(), [[0.0]])

    def test_misaligned_state_rejected(self):
        system = make_system("survival")
        driver = hazard_path([0.5], [0.1], horizon=1.0)
        meta = DriverMeta(
            scale_n=10, component_labels=("hazard",), deterministic_mask=(False,)
        )
        other = solve_plugin(system, hazard_path([0.6], [0.1], horizon=1.0))
        with pytest.raises(ValueError, match="jump times"):
            solve_variance(system, driver, meta, other)

    def test_asymmetric_v0_rejected(self):
        system = make_system("rmst")
        grid, grid_meta = time_grid_driver(1.0, 0.5)
        hz_meta = DriverMeta(
            scale_n=5, component_labels=("hazard",), deterministic_mask=(False,)
        )
        driver, meta = merge_drivers(
            [(grid, grid_meta), (hazard_path([], [], horizon=1.0), hz_meta)]
        )
        state = solve_plugin(system, driver)
        with pytest.raises(ValueError, match="symmetric"):
            solve_variance(system, driver, meta, state, v0=[[0.0, 1.0], [0.0, 0.0]])


class TestStructuralIdentities:
    def test_competing_risks_components_sum_to_one(self):
        rng = np.random.default_rng(11)
        n = 2000
        exits = rng.exponential(0.8, size=n)
        causes = rng.integers(1, 4, size=n)
        cens = exits > 2.0
        exits = np.minimum(exits, 2.0)
        causes[cens] = 0
        records = [
            EventRecord(str(i), 0.0, float(t), int(c))
            for i, (t, c) in enumerate(zip(exits, causes))
        ]
        ds = EventDataset(records=records, horizon=2.0)
        kind = SystemKind("cumulative_incidence", n_causes=3)
        driver, meta = estimate_driver(ds, kind)
        fit = fit_plugin(make_system(kind), driver, meta)
        totals = fit.state_path.values_at_jumps().sum(axis=1)
        np.testing.assert_allclose(totals, 1.0, rtol=0, atol=1e-12)

    def test_difference_system_matches_two_restricted_means(self):
        rng = np.random.default_rng(13)
        records = []
        for i in range(150):
            records.append(EventRecord(f"a{i}", 0.0, float(rng.exponential(1.0)), 1, group=1))
        for i in range(150):
            records.append(EventRecord(f"b{i}", 0.0, float(rng.exponential(0.5)), 1, group=2))
        horizon = max(r.exit_time for r in records)
        ds = EventDataset(records=records, horizon=horizon)
        step = horizon / 400

        led_driver, led_meta = estimate_driver(ds, SystemKind("led"), grid_step=step)
        led_fit = fit_plugin(make_system("led"), led_driver, led_meta)
        led_curve = led_fit.state_path.values_at_jumps()[:, 0]

        rmst_curves = []
        for group in (1, 2):
            sub = EventDataset(
                records=[r for r in ds.records if r.group == group], horizon=horizon
            )
            driver, meta = estimate_driver(sub, SystemKind("rmst"), grid_step=step)
            fit = fit_plugin(make_system("rmst"), driver, meta)
            rmst_curves.append(fit.state_path)
        probe = led_fit.times
        diff = (
            rmst_curves[0].value_at(probe)[:, 0] - rmst_curves[1].value_at(probe)[:, 0]
        )
        np.testing.assert_allclose(led_curve, diff, rtol=0, atol=1e-10)


class TestConfidenceBand:
    def test_band_endpoints_by_hand(self):
        fit = single_jump_fit(point_value=0.72, variance=1.0, scale_n=100)
        band = confidence_band(fit, 0.95)
        np.testing.assert_allclose(band.point[1, 0], 0.72)
        np.testing.assert_allclose(band.lower[1, 0], 0.5240036, atol=5e-7)
        np.testing.assert_allclose(band.upper[1, 0], 0.9159964, atol=5e-7)

    def test_quantile_matches_two_sided_normal(self):
        fit = single_jump_fit(point_value=0.5, variance=4.0, scale_n=1)
        band = confidence_band(fit, 0.95)
        z = (band.upper[1, 0] - band.point[1, 0]) / 2.0
        assert abs(z - 1.959964) < 5e-7

    def test_zero_variance_band_is_degenerate(self):
        fit = single_jump_fit(point_value=0.3, variance=0.0, scale_n=25)
        band = confidence_band(fit, 0.9)
        np.testing.assert_array_equal(band.lower, band.point)
        np.testing.assert_array_equal(band.upper, band.point)

    def test_negative_variance_is_surfaced_not_clamped(self):
        fit = single_jump_fit(point_value=0.3, variance=-0.5, scale_n=25)
        with pytest.raises(NegativeVarianceError) as exc_info:
            confidence_band(fit, 0.95)
        assert exc_info.value.component == "survival"
        assert 1.0 in exc_info.value.times

    def test_level_validated(self):
        fit = single_jump_fit(point_value=0.3, variance=1.0, scale_n=25)
        for level in (0.0, 1.0, -0.2, 1.7):
            with pytest.raises(ValueError):
                confidence_band(fit, level)

    def test_band_lookup_is_right_continuous(self):
        fit = single_jump_fit(point_value=0.72, variance=1.0, scale_n=100)
        band = confidence_band(fit, 0.95)
        point, lower, upper = band.value_at([0.0, 0.999, 1.0])
        np.testing.assert_allclose(point[:, 0], [1.0, 1.0, 0.72])
        assert lower[2, 0] < 0.72 < upper[2, 0]


class TestFitSerialization:
    def test_round_trip_is_exact(self, tmp_path):
        rng = np.random.default_rng(3)
        raw = rng.exponential(1.0, size=80)
        exits = np.minimum(raw, 1.0)
        codes = (raw <= 1.0).astype(int)
        records = [
            EventRecord(str(i), 0.0, float(t), int(c))
            for i, (t, c) in enumerate(zip(exits, codes))
        ]
        ds = EventDataset(records=records, horizon=1.0)
        driver, meta = estimate_driver(ds, SystemKind("rmst"), grid_step=0.05)
        fit = fit_plugin(make_system("rmst"), driver, meta)
        band = confidence_band(fit, 0.9)
        write_fit(fit, band, tmp_path / "fit")
        fit2, band2 = read_fit(tmp_path / "fit")
        np.testing.assert_array_equal(fit.times, fit2.times)
        probe = np.linspace(0.0, 1.0, 37)
        np.testing.assert_array_equal(
            fit.state_path.value_at(probe), fit2.state_path.value_at(probe)
        )
        np.testing.assert_array_equal(
            fit.state_path.values_at_jumps(), fit2.state_path.values_at_jumps()
        )
        np.testing.assert_allclose(
            fit.state_path.increments, fit2.state_path.increments, rtol=0, atol=1e-15
        )
        np.testing.assert_array_equal(fit.cov_path, fit2.cov_path)
        np.testing.assert_array_equal(fit.v0, fit2.v0)
        assert fit.scale_n == fit2.scale_n
        assert fit.state_labels == fit2.state_labels
        np.testing.assert_array_equal(band.lower, band2.lower)
        np.testing.assert_array_equal(band.upper, band2.upper)
        assert band.level == band2.level

    def test_jump_free_and_multistate_fits_round_trip(self, tmp_path):
        # A jump-free fit is one CSV row (t = 0); a three-cause fit has four
        # states, so its covariance comes back from a ten-column triangle.
        driver = hazard_path([], [], horizon=1.0)
        meta = DriverMeta(
            scale_n=50, component_labels=("hazard",), deterministic_mask=(False,)
        )
        fits = [fit_plugin(make_system("survival"), driver, meta)]
        rng = np.random.default_rng(3)
        records = [
            EventRecord(str(i), 0.0, float(t), int(c))
            for i, (t, c) in enumerate(
                zip(rng.uniform(0.05, 1.0, 80).round(2), rng.integers(0, 4, 80))
            )
        ]
        kind = SystemKind("cumulative_incidence", n_causes=3)
        driver, meta = estimate_driver(EventDataset(records, horizon=1.0), kind)
        fits.append(fit_plugin(make_system(kind), driver, meta))
        for k, fit in enumerate(fits):
            band = confidence_band(fit, 0.9)
            write_fit(fit, band, tmp_path / f"fit{k}")
            fit2, band2 = read_fit(tmp_path / f"fit{k}")
            np.testing.assert_array_equal(fit2.times, fit.times)
            np.testing.assert_array_equal(fit2.cov_path, fit.cov_path)
            np.testing.assert_array_equal(fit2.v0, fit.v0)
            np.testing.assert_array_equal(band2.point, band.point)
            np.testing.assert_array_equal(band2.lower, band.lower)
            np.testing.assert_array_equal(band2.upper, band.upper)
