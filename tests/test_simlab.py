"""Hazard specs, simulation, oracles, distances, studies, bootstrap."""

import csv
import json
import math
import tracemalloc

import numpy as np
import pytest
from scipy import integrate, stats

from hazard_transform import simlab

from hazard_transform import (
    ConfigError,
    ConstantHazard,
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
    sup_distance,
    wilson_interval,
    write_study,
)


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

    def test_config_validation(self):
        with pytest.raises(ConfigError, match="'form' key"):
            hazard_from_config({"rate": 1.0})
        with pytest.raises(ConfigError, match="unknown hazard form"):
            hazard_from_config({"form": "weibull"})
        with pytest.raises(ConfigError, match="missing key"):
            hazard_from_config({"form": "constant", "rate": 1.0})


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


class TestDistances:
    def test_hand_built_paths(self):
        a = step_path_1d([0.5], [1.0], horizon=1.0)
        b = step_path_1d([], [], horizon=1.0)
        assert sup_distance(a, b) == 1.0
        assert l2_distance(a, b, 0, 0, upto=1.0) == pytest.approx(0.5, abs=1e-15)

    def test_identical_paths_have_zero_distance(self):
        a = step_path_1d([0.2, 0.8], [0.4, 1.0], horizon=1.0)
        assert sup_distance(a, a) == 0.0
        assert l2_distance(a, a, 0, 0, upto=1.0) == 0.0

    def test_component_selection(self):
        times = np.array([0.5])
        a = StepPath(times, np.array([[1.0, 0.3]]), np.zeros(2), 1.0)
        b = StepPath(times, np.array([[0.0, 0.3]]), np.zeros(2), 1.0)
        assert sup_distance(a, b, component=1) == 0.0
        assert sup_distance(a, b, component=0) == 1.0
        assert l2_distance(a, b, 1, 1, upto=1.0) == 0.0

    def test_sup_requires_matching_horizons(self):
        a = step_path_1d([0.5], [1.0], horizon=1.0)
        b = step_path_1d([0.5], [1.0], horizon=2.0)
        with pytest.raises(ValueError, match="horizon"):
            sup_distance(a, b)


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

    def test_coverage_jobs_do_not_change_results(self):
        sc = survival_scenario(60, 17, k=8)
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

    def test_coverage_times_at_the_window_ends_accepted(self):
        res = coverage_study(survival_scenario(20, 1, k=2), t_grid=[0.0, 1.0])
        assert [row[0] for row in res.rows] == [0.0, 1.0]

    @pytest.mark.parametrize("n_list", [[], [0, 50], [30.5], [-1], [True], [10.0]])
    def test_bad_sample_sizes_rejected_before_any_replication(
        self, n_list, monkeypatch
    ):
        monkeypatch.setattr(
            simlab, "_run_tasks", lambda *a: pytest.fail("a replication ran")
        )
        with pytest.raises(ConfigError, match="n_list"):
            l2_convergence(survival_scenario(10, 1), n_list)

    @pytest.mark.parametrize("b", [1, 0, 2.5, True, None])
    def test_bad_bootstrap_b_rejected_before_any_simulation(self, b, monkeypatch):
        monkeypatch.setattr(
            simlab, "simulate_dataset", lambda *a: pytest.fail("a dataset was simulated")
        )
        with pytest.raises(ConfigError, match="bootstrap_b"):
            l2_convergence(
                survival_scenario(10, 1), [10], target="variance", bootstrap_b=b
            )

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
