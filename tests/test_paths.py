"""Step-path container, merging, restriction, and serialization."""

import numpy as np
import pytest

from hazard_transform import (
    DriverMeta,
    Scenario,
    StepPath,
    SystemKind,
    ConstantHazard,
    estimate_driver,
    merge_drivers,
    nelson_aalen,
    read_path,
    restrict_path,
    simulate_dataset,
    time_grid_driver,
    write_path,
)


def test_value_at_is_right_continuous_with_origin_before_first_jump():
    path = StepPath(
        times=[0.5, 1.0], increments=[[0.1], [0.2]], origin_value=[1.0], horizon=2.0
    )
    assert path.value_at(0.0) == pytest.approx(1.0)
    assert path.value_at(0.49) == pytest.approx(1.0)
    assert path.value_at(0.5) == pytest.approx(1.1)
    assert path.value_at(1.7) == pytest.approx(1.3)
    np.testing.assert_allclose(
        path.value_at([0.0, 0.5, 0.75, 1.0]).ravel(), [1.0, 1.1, 1.1, 1.3]
    )


def test_from_values_returns_the_given_values_exactly():
    # Rebuilding these values from their differences by a cumulative sum
    # misses the last 0.1 by one unit in the last place.
    values = np.array([[0.1, 1.0], [0.3, 0.7], [0.6, 0.1]])
    path = StepPath.from_values([0.5, 1.0], values, horizon=2.0)
    np.testing.assert_array_equal(
        path.value_at([0.0, 0.5, 0.9, 1.0, 2.0]), values[[0, 1, 1, 2, 2]]
    )
    np.testing.assert_array_equal(path.values_at_jumps(), values[1:])
    np.testing.assert_array_equal(path.origin_value, values[0])
    np.testing.assert_array_equal(path.increments, np.diff(values, axis=0))
    flat = StepPath.from_values([1.0], [0.0, 0.25], horizon=1.0)
    assert flat.dimension == 1
    np.testing.assert_array_equal(flat.value_at([0.5, 1.0]), [[0.0], [0.25]])
    with pytest.raises(ValueError):
        StepPath.from_values([0.5, 1.0], values[:2], horizon=2.0)


def test_jump_times_must_be_strictly_increasing_and_inside_window():
    with pytest.raises(ValueError):
        StepPath(times=[0.5, 0.5], increments=[[1.0], [1.0]], origin_value=[0.0], horizon=1.0)
    with pytest.raises(ValueError):
        StepPath(times=[0.0], increments=[[1.0]], origin_value=[0.0], horizon=1.0)
    with pytest.raises(ValueError):
        StepPath(times=[1.5], increments=[[1.0]], origin_value=[0.0], horizon=1.0)
    with pytest.raises(ValueError):
        StepPath(times=[0.5], increments=[[1.0], [2.0]], origin_value=[0.0], horizon=1.0)


def test_merge_of_time_grid_and_single_hazard_jump():
    grid, grid_meta = time_grid_driver(horizon=1.0, step=0.5)
    hazard = StepPath(times=[0.7], increments=[[0.3]], origin_value=[0.0], horizon=1.0)
    hazard_meta = DriverMeta(
        scale_n=10, component_labels=("cause1",), deterministic_mask=(False,)
    )
    merged, meta = merge_drivers([(grid, grid_meta), (hazard, hazard_meta)])

    np.testing.assert_array_equal(merged.times, [0.5, 0.7, 1.0])
    np.testing.assert_allclose(
        merged.increments, [[0.5, 0.0], [0.0, 0.3], [0.5, 0.0]]
    )
    assert meta.scale_n == 10
    assert meta.deterministic_mask == (True, False)
    assert meta.component_labels == ("time", "cause1")


def test_merging_a_path_with_itself_doubles_dimension_keeps_times():
    path = StepPath(times=[0.3, 0.9], increments=[[0.1], [0.4]], origin_value=[0.0], horizon=1.0)
    meta = DriverMeta(scale_n=5, component_labels=("a",), deterministic_mask=(False,))
    merged, mmeta = merge_drivers([(path, meta), (path, meta)])
    assert merged.dimension == 2
    np.testing.assert_array_equal(merged.times, path.times)
    np.testing.assert_allclose(merged.increments, [[0.1, 0.1], [0.4, 0.4]])
    assert mmeta.scale_n == 10


def test_merge_requires_equal_horizons():
    a = StepPath(times=[0.3], increments=[[0.1]], origin_value=[0.0], horizon=1.0)
    b = StepPath(times=[0.3], increments=[[0.1]], origin_value=[0.0], horizon=2.0)
    meta = DriverMeta(scale_n=1, component_labels=("a",), deterministic_mask=(False,))
    with pytest.raises(ValueError):
        merge_drivers([(a, meta), (b, meta)])


def test_two_group_merge_has_no_simultaneous_jumps_for_continuous_times():
    sc = Scenario(
        system=SystemKind("relative_survival"),
        hazards={"group1": ConstantHazard(1.2, 1.0), "group0": ConstantHazard(0.8, 1.0)},
        n=400,
        seed=101,
    )
    ds = simulate_dataset(sc)
    merged, _ = estimate_driver(ds, SystemKind("relative_survival"))
    cross = merged.increments[:, 0] * merged.increments[:, 1]
    np.testing.assert_array_equal(cross, np.zeros_like(cross))


def test_restrict_path_freezes_the_early_part():
    path = StepPath(
        times=[0.2, 0.5, 0.8], increments=[[1.0], [2.0], [4.0]], origin_value=[1.0], horizon=1.0
    )
    cut = restrict_path(path, 0.5)
    np.testing.assert_array_equal(cut.times, [0.8])
    assert cut.value_at(0.0) == pytest.approx(4.0)  # 1 + 1 + 2 folded in
    assert cut.value_at(0.6) == pytest.approx(4.0)
    assert cut.value_at(0.9) == pytest.approx(8.0)
    assert cut.value_at(0.9) == path.value_at(0.9)
    with pytest.raises(ValueError):
        restrict_path(path, 1.0)
    with pytest.raises(ValueError):
        restrict_path(path, -0.1)


def test_driver_meta_validation():
    with pytest.raises(ValueError):
        DriverMeta(scale_n=0, component_labels=("a",), deterministic_mask=(False,))
    with pytest.raises(ValueError):
        DriverMeta(scale_n=3, component_labels=("a", "b"), deterministic_mask=(False,))


def test_write_read_round_trip_is_exact(tmp_path):
    rng = np.random.default_rng(7)
    times = np.sort(rng.uniform(0.01, 2.0, size=23))
    incr = rng.normal(size=(23, 3))
    path = StepPath(times=times, increments=incr, origin_value=[0.0, 1.0, -2.0], horizon=2.0)
    meta = DriverMeta(
        scale_n=17,
        component_labels=("time", "cause1", "cause2"),
        deterministic_mask=(True, False, False),
        truncation_time=1.5,
    )
    base = tmp_path / "driver"
    write_path(path, meta, base)
    path2, meta2 = read_path(base)

    np.testing.assert_array_equal(path2.times, path.times)
    np.testing.assert_array_equal(path2.increments, path.increments)
    np.testing.assert_array_equal(path2.origin_value, path.origin_value)
    assert path2.horizon == path.horizon
    assert meta2 == meta
    # cumulative values match exactly too (lookup goes through the cache)
    probe = np.linspace(0.0, 2.0, 41)
    np.testing.assert_array_equal(path2.value_at(probe), path.value_at(probe))


def test_nelson_aalen_round_trip_through_files(tmp_path):
    sc = Scenario(
        system=SystemKind("survival"),
        hazards={"event": ConstantHazard(0.9, 1.0)},
        n=60,
        seed=5,
        censor=ConstantHazard(0.2, 1.0),
    )
    ds = simulate_dataset(sc)
    path, meta = nelson_aalen(ds, cause=1)
    write_path(path, meta, tmp_path / "na")
    path2, meta2 = read_path(tmp_path / "na")
    np.testing.assert_array_equal(path2.times, path.times)
    np.testing.assert_array_equal(path2.increments, path.increments)
    assert meta2 == meta


@pytest.mark.parametrize("m", [0, 1])
def test_short_paths_round_trip(tmp_path, m):
    # A zero-jump path writes a header-only CSV; it reads back without a
    # warning (the suite turns warnings into errors).
    path = StepPath(
        times=[0.5][:m], increments=np.array([[-0.0, 2.5]])[:m],
        origin_value=[1.0, -0.0], horizon=1.0,
    )
    meta = DriverMeta(3, ("a", "b"), (False, True))
    write_path(path, meta, tmp_path / "p")
    path2, meta2 = read_path(tmp_path / "p")
    assert path2.increments.shape == (m, 2)
    np.testing.assert_array_equal(path2.times, path.times)
    np.testing.assert_array_equal(path2.increments, path.increments)
    assert np.signbit(path2.increments).tolist() == np.signbit(path.increments).tolist()
    assert meta2 == meta


def test_read_path_checks_the_header(tmp_path):
    path = StepPath(times=[0.5], increments=[[1.0]], origin_value=[0.0], horizon=1.0)
    write_path(path, DriverMeta(3, ("a",), (False,)), tmp_path / "p")
    csv_file = tmp_path / "p.csv"
    csv_file.write_text(csv_file.read_text().replace("d1", "x1"))
    with pytest.raises(ValueError, match="unexpected path CSV header"):
        read_path(tmp_path / "p")
