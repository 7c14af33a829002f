"""Cumulative-hazard estimators and the time-grid driver."""

import numpy as np
import pytest

from hazard_transform import (
    DataError,
    EventDataset,
    EventRecord,
    SystemKind,
    aalen_additive,
    estimate_driver,
    nelson_aalen,
    time_grid_driver,
)


def make_dataset(rows, horizon=None):
    records = []
    for row in rows:
        records.append(EventRecord(*row))
    if horizon is None:
        horizon = max(r.exit_time for r in records)
    return EventDataset(records=tuple(records), horizon=horizon)


class TestNelsonAalen:
    def test_hand_worked_three_subject_increments(self):
        # exits 1.0 (event), 1.5 (censored), 2.0 (event):
        # risk sets 3 and 1, so jumps 1/3 and 1.
        ds = make_dataset([("s1", 0.0, 1.0, 1), ("s2", 0.0, 1.5, 0), ("s3", 0.0, 2.0, 1)])
        path, meta = nelson_aalen(ds, cause=1)
        np.testing.assert_array_equal(path.times, [1.0, 2.0])
        np.testing.assert_allclose(path.increments.ravel(), [1.0 / 3.0, 1.0])
        assert meta.scale_n == 3
        assert meta.deterministic_mask == (False,)
        assert meta.truncation_time is None

    def test_no_events_gives_constant_zero_path(self):
        ds = make_dataset([("s1", 0.0, 1.0, 0), ("s2", 0.0, 2.0, 0)])
        path, _ = nelson_aalen(ds, cause=1)
        assert path.n_jumps == 0
        assert path.value_at(1.5) == pytest.approx(0.0)

    def test_final_value_is_harmonic_sum_for_distinct_uncensored_events(self):
        n = 6
        rows = [(f"s{i}", 0.0, float(i + 1), 1) for i in range(n)]
        ds = make_dataset(rows)
        path, _ = nelson_aalen(ds, cause=1)
        expected = sum(1.0 / (n - i) for i in range(n))
        assert path.value_at(float(n)) == pytest.approx(expected, rel=1e-15)

    def test_tied_events_jump_by_count_over_risk_set(self):
        ds = make_dataset(
            [("a", 0.0, 1.0, 1), ("b", 0.0, 1.0, 1), ("c", 0.0, 1.0, 0), ("d", 0.0, 2.0, 0)]
        )
        path, _ = nelson_aalen(ds, cause=1)
        np.testing.assert_allclose(path.increments.ravel(), [2.0 / 4.0])

    def test_path_freezes_when_risk_set_empties(self):
        # everyone is gone on (1, 2], so the late entrant's event is dropped
        ds = make_dataset(
            [("a", 0.0, 1.0, 1), ("b", 0.0, 0.5, 0), ("late", 2.0, 3.0, 1)],
            horizon=4.0,
        )
        path, meta = nelson_aalen(ds, cause=1)
        np.testing.assert_array_equal(path.times, [1.0])
        np.testing.assert_allclose(path.increments.ravel(), [1.0])
        assert meta.truncation_time == pytest.approx(1.0)

    def test_group_restriction_uses_group_risk_set(self):
        ds = EventDataset(
            records=(
                EventRecord("a", 0.0, 1.0, 1, group=1),
                EventRecord("b", 0.0, 2.0, 1, group=1),
                EventRecord("c", 0.0, 1.5, 1, group=2),
            ),
            horizon=2.0,
        )
        path, meta = nelson_aalen(ds, cause=1, group=1)
        np.testing.assert_allclose(path.increments.ravel(), [1.0 / 2.0, 1.0])
        assert meta.scale_n == 2
        assert meta.component_labels == ("cause1|group1",)

    def test_empty_dataset_is_an_error(self):
        ds = EventDataset(records=(), horizon=1.0)
        with pytest.raises(DataError, match="no subjects"):
            nelson_aalen(ds, cause=1)


class TestAalenAdditive:
    @staticmethod
    def simulate(n, seed, two_group=False):
        rng = np.random.default_rng(seed)
        records = []
        for i in range(n):
            g = i % 2 if two_group else 0
            rate = 1.0 + 0.8 * g
            t = rng.exponential(1.0 / rate)
            c = rng.exponential(2.0)
            exit_t = min(t, c, 1.0)
            code = 1 if t <= min(c, 1.0) else 0
            records.append(
                EventRecord(f"s{i}", 0.0, max(exit_t, 1e-9), code, covariates=(float(g),))
            )
        return EventDataset(records=tuple(records), horizon=1.0)

    def test_intercept_only_reproduces_the_occurrence_exposure_increments(self):
        ds = self.simulate(150, seed=3)
        no_cov = EventDataset(
            records=tuple(
                EventRecord(r.subject_id, r.entry_time, r.exit_time, r.event_code)
                for r in ds.records
            ),
            horizon=ds.horizon,
        )
        na_path, _ = nelson_aalen(no_cov, cause=1)
        add_path, _ = aalen_additive(no_cov, cause=1)
        np.testing.assert_array_equal(add_path.times, na_path.times)
        assert np.max(np.abs(add_path.increments[:, 0] - na_path.increments[:, 0])) <= 1e-12

    def test_indicator_coding_matches_group_wise_estimates(self):
        ds = self.simulate(300, seed=11, two_group=True)
        add_path, _ = aalen_additive(ds, cause=1)

        grouped = EventDataset(
            records=tuple(
                EventRecord(
                    r.subject_id, r.entry_time, r.exit_time, r.event_code,
                    group=int(r.covariates[0]),
                )
                for r in ds.records
            ),
            horizon=ds.horizon,
        )
        na0, _ = nelson_aalen(grouped, cause=1, group=0)
        na1, _ = nelson_aalen(grouped, cause=1, group=1)

        probe = np.linspace(0.0, 1.0, 101)
        fitted = add_path.value_at(probe)
        group0 = fitted[:, 0]
        group1 = fitted[:, 0] + fitted[:, 1]
        np.testing.assert_allclose(group0, na0.value_at(probe).ravel(), atol=1e-10)
        np.testing.assert_allclose(group1, na1.value_at(probe).ravel(), atol=1e-10)

    def test_constant_covariate_with_intercept_never_has_full_rank(self):
        records = tuple(
            EventRecord(f"s{i}", 0.0, 0.2 + 0.1 * i, 1, covariates=(1.0,))
            for i in range(5)
        )
        ds = EventDataset(records=records, horizon=1.0)
        with pytest.raises(DataError, match="full rank"):
            aalen_additive(ds, cause=1)

    def test_rank_loss_after_the_first_event_truncates(self):
        # the only covariate-1 subject leaves first; afterwards the design
        # (intercept, x) is collinear over the remaining risk set
        records = (
            EventRecord("a", 0.0, 0.2, 1, covariates=(1.0,)),
            EventRecord("b", 0.0, 0.5, 1, covariates=(0.0,)),
            EventRecord("c", 0.0, 0.8, 1, covariates=(0.0,)),
        )
        ds = EventDataset(records=records, horizon=1.0)
        path, meta = aalen_additive(ds, cause=1)
        np.testing.assert_array_equal(path.times, [0.2])
        assert meta.truncation_time == pytest.approx(0.5)

    @pytest.mark.parametrize("with_intercept", [True, False])
    def test_a_non_finite_covariate_is_a_data_error_naming_its_subjects(
        self, with_intercept
    ):
        # Unchecked, a NaN reached the SVD and NumPy raised LinAlgError.
        records = (
            EventRecord("a", 0.0, 0.2, 1, covariates=(1.0, 0.0)),
            EventRecord("d", 0.0, 0.3, 1, covariates=(float("inf"), 0.0)),
            EventRecord("b", 0.0, 0.5, 1, covariates=(0.0, float("nan"))),
            EventRecord("c", 0.0, 0.8, 0, covariates=(0.5, 1.0)),
            EventRecord("b", 0.5, 0.9, 1, covariates=(0.0, float("nan"))),
        )
        ds = EventDataset(records=records, horizon=1.0)
        with pytest.raises(DataError) as info:
            aalen_additive(ds, cause=1, with_intercept=with_intercept)
        assert str(info.value) == "non-finite covariate for subject(s): b, d"


class TestTimeGrid:
    def test_value_is_last_grid_point_not_exceeding_t(self):
        path, meta = time_grid_driver(horizon=1.0, step=0.25)
        assert path.value_at(0.6) == pytest.approx(0.5)
        assert path.value_at(0.25) == pytest.approx(0.25)
        assert path.value_at(1.0) == pytest.approx(1.0)
        assert meta.deterministic_mask == (True,)
        assert meta.scale_n == 1

    def test_step_equal_to_horizon_gives_single_jump(self):
        path, _ = time_grid_driver(horizon=2.0, step=2.0)
        np.testing.assert_array_equal(path.times, [2.0])
        np.testing.assert_allclose(path.increments.ravel(), [2.0])

    def test_discrepancy_from_identity_approaches_the_step(self):
        step = 0.2
        path, _ = time_grid_driver(horizon=1.0, step=step)
        probe = np.linspace(0.0, 1.0, 100001)
        gap = probe - path.value_at(probe).ravel()
        assert gap.max() <= step + 1e-12
        assert gap.max() >= step - 1e-4
        assert gap.min() >= -1e-12

    def test_partial_final_step_reaches_the_horizon(self):
        path, _ = time_grid_driver(horizon=1.0, step=0.3)
        np.testing.assert_allclose(path.times, [0.3, 0.6, 0.9, 1.0])
        assert path.value_at(1.0) == pytest.approx(1.0)

    def test_invalid_steps_are_rejected(self):
        with pytest.raises(ValueError):
            time_grid_driver(horizon=1.0, step=0.0)
        with pytest.raises(ValueError):
            time_grid_driver(horizon=1.0, step=1.5)


class TestEstimateDriver:
    def test_survival_recipe_is_a_single_hazard_component(self):
        ds = make_dataset([("s1", 0.0, 1.0, 1), ("s2", 0.0, 2.0, 0)])
        driver, meta = estimate_driver(ds, SystemKind("survival"))
        assert driver.dimension == 1
        assert meta.component_labels == ("cause1",)
        assert meta.scale_n == 2

    def test_time_driven_recipe_merges_grid_and_hazard(self):
        ds = make_dataset([("s1", 0.0, 1.0, 1), ("s2", 0.0, 2.0, 0)])
        driver, meta = estimate_driver(ds, SystemKind("rmst"), grid_step=0.5)
        assert driver.dimension == 2
        assert meta.deterministic_mask == (True, False)
        assert meta.scale_n == 2
        # grid jumps present alongside the event jump
        assert {0.5, 1.0, 1.5, 2.0}.issubset(set(driver.times.tolist()))

    def test_cause_map_overrides_the_default_codes(self):
        ds = make_dataset([("s1", 0.0, 1.0, 7), ("s2", 0.0, 2.0, 0)])
        driver, _ = estimate_driver(ds, SystemKind("survival"), cause_map={"event": 7})
        assert driver.n_jumps == 1
        np.testing.assert_allclose(driver.increments.ravel(), [0.5])
