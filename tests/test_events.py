"""Event records, datasets and CSV parsing; the risk set and the event
counts, read through Nelson-Aalen's increments ``dN / Y``."""

import numpy as np
import pytest

from hazard_transform import (
    DataError,
    EventDataset,
    EventRecord,
    SystemKind,
    confidence_band,
    estimate_driver,
    fit_plugin,
    make_system,
    nelson_aalen,
    parse_dataset,
    write_dataset,
)
from hazard_transform.plugin import _write_fit


def make_dataset(rows, horizon=None, **kwargs):
    records = [EventRecord(*row, **kwargs) for row in rows]
    if horizon is None:
        horizon = max(r.exit_time for r in records)
    return EventDataset(records=records, horizon=horizon)


THREE_SUBJECTS = [("s1", 0.0, 1.0, 1), ("s2", 0.0, 1.5, 0), ("s3", 0.0, 2.0, 1)]


class TestParsing:
    def test_three_row_file(self, tmp_path):
        f = tmp_path / "d.csv"
        f.write_text(
            "id,entry,exit,event\n"
            "s1,0.0,1.0,1\n"
            "s2,0.0,1.5,0\n"
            "s3,0.0,2.0,1\n"
        )
        ds = parse_dataset(f)
        assert ds.n_subjects == 3
        assert ds.horizon == 2.0
        assert [r.event_code for r in ds.records] == [1, 0, 1]

    def test_header_only_file_gives_empty_dataset(self, tmp_path):
        f = tmp_path / "empty.csv"
        f.write_text("id,entry,exit,event\n")
        ds = parse_dataset(f, horizon=1.0)
        assert ds.n_subjects == 0
        assert ds.records == ()

    def test_entry_after_exit_error_names_the_subject(self, tmp_path):
        f = tmp_path / "bad.csv"
        f.write_text("id,entry,exit,event\nok,0,1,1\nbroken,2,1,0\n")
        with pytest.raises(DataError, match="broken"):
            parse_dataset(f)

    def test_covariate_columns_are_detected_and_ordered(self, tmp_path):
        f = tmp_path / "cov.csv"
        f.write_text(
            "id,entry,exit,event,x2,x1\n"
            "a,0,1,1,10.0,0.5\n"
            "b,0,2,0,20.0,0.7\n"
        )
        ds = parse_dataset(f)
        assert ds.covariate_dim == 2
        # x1 sorts before x2 regardless of file column order
        assert ds.records[0].covariates == (0.5, 10.0)

    def test_round_trip_through_file(self, tmp_path):
        ds = make_dataset(
            [("a", 0.0, 0.25, 1), ("b", 0.1, 1.0, 0), ("c", 0.0, 0.75, 2)],
            horizon=1.0,
        )
        write_dataset(ds, tmp_path / "rt.csv")
        back = parse_dataset(tmp_path / "rt.csv", horizon=1.0)
        assert back.records == ds.records

    @pytest.mark.parametrize(
        "kind", [SystemKind("survival"), SystemKind("cumulative_incidence", n_causes=2)],
        ids=["survival", "cumulative_incidence"],
    )
    def test_ids_stay_an_array_through_an_estimate(self, tmp_path, kind):
        # The estimate never reads the ids: they are decoded only when asked.
        # Thirteen subjects with two consecutive spells each.
        rows = [(f"p{k}", 0.0, 1.0 + 0.05 * k, k % 3) for k in range(13)]
        rows += [(f"p{k}", 1.0 + 0.05 * k, 2.0, (k + 1) % 3) for k in range(13)]
        write_dataset(make_dataset(rows), tmp_path / "d.csv")
        ds = parse_dataset(tmp_path / "d.csv")
        driver, meta = estimate_driver(ds, kind)
        fit = fit_plugin(make_system(kind), driver, meta)
        _write_fit(fit, confidence_band(fit, 0.9), tmp_path / "fit",
                   band_path=tmp_path / "band.csv")
        assert "subject_ids" not in ds.__dict__
        assert ds.subject_ids == tuple(f"p{i}" for i in range(13))
        assert all(type(sid) is str for sid in ds.subject_ids)


class TestValidation:
    def test_entry_equal_to_exit_is_rejected(self):
        with pytest.raises(DataError, match="s1"):
            make_dataset([("s1", 1.0, 1.0, 1)], horizon=2.0)

    def test_negative_entry_rejected(self):
        with pytest.raises(DataError):
            make_dataset([("s1", -0.5, 1.0, 1)], horizon=2.0)

    def test_negative_event_code_rejected(self):
        with pytest.raises(DataError):
            make_dataset([("s1", 0.0, 1.0, -1)], horizon=2.0)

    def test_mixed_covariate_lengths_rejected(self):
        records = [
            EventRecord("a", 0.0, 1.0, 1, covariates=(1.0,)),
            EventRecord("b", 0.0, 2.0, 0, covariates=(1.0, 2.0)),
        ]
        with pytest.raises(DataError):
            EventDataset(records=records, horizon=2.0)


class TestAtRisk:
    def test_all_at_risk_at_earliest_exit(self):
        path, _ = nelson_aalen(make_dataset(THREE_SUBJECTS), cause=1)
        assert path.times[0] == 1.0
        assert path.increments[0, 0] == 1 / 3

    def test_risk_set_shrinks_after_an_exit(self):
        # s1 dies at 1.0 and s2 is censored at 1.5: s3 alone is at risk at 2.0.
        path, _ = nelson_aalen(make_dataset(THREE_SUBJECTS), cause=1)
        np.testing.assert_array_equal(path.times, [1.0, 2.0])
        np.testing.assert_array_equal(path.increments[:, 0], [1 / 3, 1.0])

    def test_beyond_all_exits_nobody_is_at_risk(self):
        # Nobody is at risk after a's exit until b enters: the path freezes
        # there and b's event is dropped.
        ds = make_dataset([("a", 0.0, 1.0, 0), ("b", 2.0, 2.5, 1)], horizon=3.0)
        path, meta = nelson_aalen(ds, cause=1)
        assert path.n_jumps == 0
        assert meta.truncation_time == 1.0

    def test_entry_time_is_exclusive_exit_inclusive(self):
        ds = make_dataset(
            [("early", 0.0, 1.0, 1), ("late", 1.0, 3.0, 1)], horizon=3.0
        )
        path, meta = nelson_aalen(ds, cause=1)
        np.testing.assert_array_equal(path.times, [1.0, 3.0])
        # Not yet entered at its own entry time: early alone is at risk at
        # 1.0.  Still at risk at its exit time: late alone at 3.0.
        np.testing.assert_array_equal(path.increments[:, 0], [1.0, 1.0])
        assert meta.truncation_time is None

    def test_group_filter(self):
        ds = EventDataset(
            records=(
                EventRecord("a", 0.0, 1.0, 1, group=1),
                EventRecord("b", 0.0, 2.0, 1, group=2),
            ),
            horizon=2.0,
        )
        path, _ = nelson_aalen(ds, cause=1, group=1)
        np.testing.assert_array_equal(path.times, [1.0])
        np.testing.assert_array_equal(path.increments[:, 0], [1.0])
        path, _ = nelson_aalen(ds, cause=1)
        np.testing.assert_array_equal(path.increments[:, 0], [1 / 2, 1.0])
        with pytest.raises(ValueError, match="unknown group"):
            nelson_aalen(ds, cause=1, group=9)


def test_subjects_in_group_counts_each_subject_once():
    # Subject 0 has spells in both groups, subject 1 two spells in group 1,
    # subject 2 one in group 2, subject 3 three in group 2.
    ds = EventDataset.from_columns(
        subject=[0, 1, 0, 1, 2, 3, 3, 3],
        entry=[0.0, 0.0, 1.0, 1.0, 0.0, 0.0, 0.5, 1.0],
        exit=[1.0, 1.0, 2.0, 2.0, 1.5, 0.5, 1.0, 2.0],
        code=[1, 0, 1, 1, 0, 1, 1, 0],
        horizon=2.0,
        group=[1, 1, 2, 1, 2, 2, 2, 2],
    )
    assert ds.subjects_in_group(1) == 2
    assert ds.subjects_in_group(2) == 3
    assert ds.subjects_in_group(None) == ds.n_subjects == 4
    with pytest.raises(ValueError, match="unknown group"):
        ds.subjects_in_group(3)


class TestCountingPath:
    def test_unit_jumps_at_each_event(self):
        ds = make_dataset([("a", 0.0, 1.0, 1), ("b", 0.0, 2.0, 1)])
        path, _ = nelson_aalen(ds, cause=1)
        np.testing.assert_array_equal(path.times, [1.0, 2.0])
        np.testing.assert_array_equal(path.increments[:, 0], [1 / 2, 1 / 1])

    def test_absent_cause_gives_constant_zero_path(self):
        ds = make_dataset(THREE_SUBJECTS)
        path, _ = nelson_aalen(ds, cause=2)
        assert path.n_jumps == 0
        assert path.value_at(1.7) == pytest.approx(0.0)

    def test_tied_events_aggregate_into_one_jump(self):
        ds = make_dataset([("a", 0.0, 1.0, 1), ("b", 0.0, 1.0, 1), ("c", 0.0, 2.0, 0)])
        path, _ = nelson_aalen(ds, cause=1)
        np.testing.assert_array_equal(path.times, [1.0])
        np.testing.assert_array_equal(path.increments[:, 0], [2 / 3])
