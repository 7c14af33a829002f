"""Column-built datasets against the per-record code they replace.

The record-at-a-time simulation, the ``dataclasses.replace`` bootstrap, the
two grid builders and the ``csv.writer`` writers are kept here as references;
the column code must reproduce them exactly (equal records, identical
bytes).  The stacked bootstrap must give every resample exactly the
reference's driver; its covariance is bitwise the reference's for systems
solved jump by jump and within the scan's rounding for linear ones.
"""

import csv
from dataclasses import replace

import numpy as np
import pytest

from hazard_transform import (
    ConstantHazard,
    DataError,
    DriverMeta,
    EventDataset,
    EventRecord,
    LinearHazard,
    Scenario,
    StepPath,
    SystemKind,
    TableHazard,
    bootstrap_covariance,
    confidence_band,
    driver_slots,
    estimate_driver,
    fit_plugin,
    make_system,
    parse_dataset,
    simulate_dataset,
    solve_plugin,
    time_grid_driver,
    write_dataset,
    write_fit,
    write_path,
)
from hazard_transform.plugin import _write_fit
from hazard_transform.simlab import (
    _draws,
    _oracle_driver,
    _ResampleDrivers,
    _SumHazard,
)

from helpers import take_subjects

H = 2.0
TABLE = TableHazard((0.0, 0.5, 1.3, 2.0), (0.4, 1.1, 0.2, 0.9), H)
SCREENING = SystemKind("screening", prevalence=0.4, initial_value=[0.8, 0.7, 0.6, 0.5])

#: One scenario family per system: (kind, hazards by role).
SYSTEMS = {
    "survival": (SystemKind("survival"), {"event": LinearHazard(0.5, 0.3, H)}),
    "rmst": (SystemKind("rmst"), {"event": TABLE}),
    "relative_survival": (
        SystemKind("relative_survival"),
        {"group1": ConstantHazard(1.0, H), "group0": LinearHazard(0.2, 0.5, H)},
    ),
    "led": (
        SystemKind("led"),
        {"group1": ConstantHazard(1.0, H), "group2": ConstantHazard(0.5, H)},
    ),
    "ler": (SystemKind("ler"), {"group1": ConstantHazard(1.0, H), "group2": TABLE}),
    "screening": (
        SCREENING,
        {"positive": ConstantHazard(0.7, H), "negative": LinearHazard(0.1, 0.2, H)},
    ),
    "cumulative_incidence": (
        SystemKind("cumulative_incidence", n_causes=3),
        {
            "cause1": ConstantHazard(0.3, H),
            "cause2": LinearHazard(0.1, 0.4, H),
            "cause3": TABLE,
        },
    ),
    "mean_frequency": (
        SystemKind("mean_frequency"),
        {"recurrent": LinearHazard(0.5, 1.0, H), "terminal": ConstantHazard(0.3, H)},
    ),
}


# ---------------------------------------------------------------------------
# Reference: the record-at-a-time simulation.


def _reference_single_spell(rng, hazard, censor, horizon, ids, group):
    n = len(ids)
    t_event = hazard.invert(rng.exponential(size=n))
    t_cens = (
        censor.invert(rng.exponential(size=n))
        if censor is not None
        else np.full(n, np.inf)
    )
    exit_time = np.minimum(np.minimum(t_event, t_cens), horizon)
    records = []
    for i, sid in enumerate(ids):
        code = 1 if t_event[i] == exit_time[i] else 0
        records.append(EventRecord(sid, 0.0, float(exit_time[i]), code, group))
    return records


def reference_simulate(sc):
    rng = np.random.default_rng(np.random.SeedSequence((sc.seed,)))
    horizon = sc.horizon
    name = sc.system.name
    records = []
    if name in ("survival", "rmst"):
        ids = [f"s{i + 1}" for i in range(sc.n)]
        records = _reference_single_spell(
            rng, sc.hazards["event"], sc.censor, horizon, ids, None
        )
    elif name in ("relative_survival", "led", "ler", "screening"):
        slots = [s for s in driver_slots(sc.system) if not s.deterministic]
        sizes = [sc.n - sc.n // 2, sc.n // 2]
        start = 0
        for slot, size in zip(slots, sizes):
            ids = [f"s{i + 1}" for i in range(start, start + size)]
            start += size
            records.extend(
                _reference_single_spell(
                    rng, sc.hazards[slot.role], sc.censor, horizon, ids, slot.group
                )
            )
    elif name == "cumulative_incidence":
        parts = [sc.hazards[f"cause{j + 1}"] for j in range(sc.system.n_causes)]
        t_event = _SumHazard(parts).invert(rng.exponential(size=sc.n))
        u_cause = rng.random(sc.n)
        t_cens = (
            sc.censor.invert(rng.exponential(size=sc.n))
            if sc.censor is not None
            else np.full(sc.n, np.inf)
        )
        exit_time = np.minimum(np.minimum(t_event, t_cens), horizon)
        for i in range(sc.n):
            if t_event[i] == exit_time[i]:
                rates = np.array([p.rate(t_event[i]) for p in parts], dtype=float)
                srate = rates.sum()
                probs = (
                    rates / srate
                    if srate > 0
                    else np.full(len(parts), 1.0 / len(parts))
                )
                code = 1 + int(np.searchsorted(np.cumsum(probs), u_cause[i]))
                code = min(code, len(parts))
            else:
                code = 0
            records.append(EventRecord(f"s{i + 1}", 0.0, float(exit_time[i]), code))
    else:
        recurrent = sc.hazards["recurrent"]
        t_term = sc.hazards["terminal"].invert(rng.exponential(size=sc.n))
        t_cens = (
            sc.censor.invert(rng.exponential(size=sc.n))
            if sc.censor is not None
            else np.full(sc.n, np.inf)
        )
        follow = np.minimum(np.minimum(t_term, t_cens), horizon)
        for i in range(sc.n):
            sid = f"s{i + 1}"
            prev = 0.0
            clock = 0.0
            while True:
                clock += rng.exponential()
                t_next = float(recurrent.invert(clock)[0])
                if not t_next < follow[i]:
                    break
                records.append(EventRecord(sid, prev, t_next, 1))
                prev = t_next
            final_code = 2 if t_term[i] == follow[i] else 0
            records.append(EventRecord(sid, prev, float(follow[i]), final_code))
    return EventDataset(records=tuple(records), horizon=horizon)


@pytest.mark.parametrize("censored", [False, True], ids=["uncensored", "censored"])
@pytest.mark.parametrize("name", sorted(SYSTEMS))
def test_simulation_matches_the_record_loop(name, censored):
    kind, hazards = SYSTEMS[name]
    censor = ConstantHazard(0.4, H) if censored else None
    for seed in range(3):
        sc = Scenario(system=kind, hazards=hazards, n=150 + 41 * seed, seed=seed,
                      censor=censor)
        got = simulate_dataset(sc)
        want = reference_simulate(sc)
        assert got.records == want.records
        assert repr(got.records) == repr(want.records)
        assert got.n_subjects == want.n_subjects == sc.n


def test_recurrent_simulation_with_many_events_per_subject():
    sc = Scenario(
        system="mean_frequency",
        hazards={"recurrent": ConstantHazard(6.0, H), "terminal": TABLE},
        n=60,
        seed=4,
    )
    got = simulate_dataset(sc)
    assert len(got) > 8 * sc.n
    assert got.records == reference_simulate(sc).records


class Rescaled(ConstantHazard):
    """Constant hazard whose inverted times are scaled by ``factor``, so that
    they disagree with the clock-space bound ``cumulative(follow)``."""

    factor = 1.0

    def invert(self, targets):
        return self.factor * super().invert(targets)


@pytest.mark.parametrize("factor,terminal", [(1.05, 0.2), (0.2, 3.0)])
def test_recurrent_simulation_redoes_subjects_split_wrongly_in_clock_space(
    factor, terminal
):
    # 1.05: clocks just under a subject's bound invert past its follow-up
    # end.  0.2: subjects have several times the events the bound predicts,
    # which also exhausts the first bulk draw.
    rescaled = type("Rescaled", (Rescaled,), {"factor": factor})
    sc = Scenario(
        system="mean_frequency",
        hazards={
            "recurrent": rescaled(3.0, H),
            "terminal": ConstantHazard(terminal, H),
        },
        n=80,
        seed=2,
    )
    assert simulate_dataset(sc).records == reference_simulate(sc).records


def misfit_subjects(sc):
    """Subjects whose record-loop clocks disagree with the clock-space split:
    some clock of theirs is below ``recurrent.cumulative(follow)`` while its
    inverted time is not before ``follow``, or the other way round.  (No
    censoring.)"""
    rng = np.random.default_rng(np.random.SeedSequence((sc.seed,)))
    recurrent = sc.hazards["recurrent"]
    t_term = sc.hazards["terminal"].invert(rng.exponential(size=sc.n))
    follow = np.minimum(t_term, sc.horizon)
    misfits = 0
    for end in follow:
        bound, clock, fits = recurrent.cumulative(end), 0.0, True
        while True:
            clock += rng.exponential()
            event = float(recurrent.invert(clock)[0]) < end
            fits = fits and event == (clock < bound)
            if not event:
                break
        misfits += not fits
    return misfits


def test_recurrent_split_takes_one_bulk_pass_per_misfit_subject():
    # Subjects with several times the events the clock bound predicts: each
    # is finished on its own, so the bulk split (one vector inversion per
    # pass) runs at most once per such subject, plus once.  Splitting again
    # after every disagreeing clock took three times as many passes.
    calls = []

    class Counted(Rescaled):
        factor = 0.2

        def invert(self, targets):
            calls.append(np.ndim(targets))
            return super().invert(targets)

    sc = Scenario(
        system="mean_frequency",
        hazards={"recurrent": Counted(3.0, H), "terminal": ConstantHazard(3.0, H)},
        n=320,
        seed=2,
    )
    got = simulate_dataset(sc)
    passes = calls.count(1)
    calls.clear()
    misfits = misfit_subjects(sc)
    assert 100 < misfits < sc.n
    assert passes <= misfits + 1
    assert got.records == reference_simulate(sc).records


# ---------------------------------------------------------------------------
# Reference: the bootstrap that rebuilt every resample record by record.


def reference_bootstrap(ds, kind, b, seed, time_grid=None, grid_step=None):
    driver, _ = estimate_driver(ds, kind, grid_step=grid_step)
    system = make_system(kind)
    base = solve_plugin(system, driver)
    if time_grid is None:
        time_grid = base.times
    time_grid = np.asarray(time_grid, dtype=float)
    base_values = base.value_at(time_grid)
    subjects, order = {}, []
    for rec in ds.records:
        if rec.subject_id not in subjects:
            subjects[rec.subject_id] = []
            order.append(rec.subject_id)
        subjects[rec.subject_id].append(rec)
    blocks = [subjects[sid] for sid in order]
    n = len(blocks)
    starts_at_zero = np.array([any(r.entry_time == 0.0 for r in blk) for blk in blocks])
    deltas = np.empty((time_grid.size, system.state_dim, b))
    for r in range(b):
        for attempt in range(10):
            rng = np.random.default_rng(np.random.SeedSequence((seed, r, attempt)))
            idx = rng.integers(0, n, size=n)
            if starts_at_zero[idx].any():
                break
        else:
            raise DataError("bootstrap resample kept an empty risk set")
        records = [
            replace(rec, subject_id=f"b{i}")
            for i, block_idx in enumerate(idx)
            for rec in blocks[block_idx]
        ]
        star = EventDataset(records=tuple(records), horizon=ds.horizon)
        star_driver, _ = estimate_driver(star, kind, grid_step=grid_step)
        star_path = solve_plugin(system, star_driver)
        deltas[..., r] = np.sqrt(n) * (star_path.value_at(time_grid) - base_values)
    deltas -= deltas.mean(axis=2, keepdims=True)
    return time_grid, deltas @ deltas.transpose(0, 2, 1) / (b - 1)


def assert_stacked_drivers_match(ds, kind, b, seed, grid_step=None):
    """Each resample's row of the stacked driver is exactly the driver of
    the gathered resample, scattered onto the stacked grid (zero elsewhere)."""
    driver, _ = estimate_driver(ds, kind, grid_step=grid_step)
    stack = _ResampleDrivers(ds, kind, driver)
    incr = stack.increments(_draws(ds, seed, b), 0, b)
    assert incr.shape == (stack.times.size, b, driver.dimension)
    assert np.isin(driver.times, stack.times).all()
    for r, idx in enumerate(_draws(ds, seed, b)):
        star, _ = estimate_driver(take_subjects(ds, idx), kind, grid_step=grid_step)
        pos = np.searchsorted(stack.times, star.times)
        np.testing.assert_array_equal(stack.times[pos], star.times)
        want = np.zeros((stack.times.size, star.dimension))
        want[pos] = star.increments
        np.testing.assert_array_equal(incr[:, r], want)


def assert_bootstrap_equal(ds, kind, b, seed, time_grid=None, grid_step=None):
    got = bootstrap_covariance(
        ds, kind, b=b, seed=seed, time_grid=time_grid, grid_step=grid_step
    )
    want = reference_bootstrap(ds, kind, b, seed, time_grid, grid_step)
    np.testing.assert_array_equal(got[0], want[0])
    if make_system(kind).jacobians is None:
        # Jump by jump, an identity step changes nothing: exact.
        np.testing.assert_array_equal(got[1], want[1])
        return
    # The stacked scan composes identity steps where a resample has no
    # jump, which moves the products at rounding level.
    assert_stacked_drivers_match(ds, kind, b, seed, grid_step)
    np.testing.assert_allclose(
        got[1], want[1], rtol=0, atol=1e-12 * np.abs(want[1]).max()
    )


@pytest.mark.parametrize(
    "name",
    [
        "survival",
        "rmst",
        "led",
        "relative_survival",
        "cumulative_incidence",
        "mean_frequency",
        "screening",
    ],
)
def test_bootstrap_matches_the_record_rebuild(name):
    kind, hazards = SYSTEMS[name]
    sc = Scenario(system=kind, hazards=hazards, n=120, seed=7,
                  censor=ConstantHazard(0.3, H))
    ds = simulate_dataset(sc)
    assert_bootstrap_equal(ds, kind, b=8, seed=3)
    assert_bootstrap_equal(
        ds, kind, b=5, seed=4, time_grid=np.linspace(0.0, H, 23), grid_step=0.05
    )


def interleaved_delayed_entry():
    """Subjects whose spells are not contiguous, most entering late, so that
    resamples without a subject at risk from t = 0 are redrawn."""
    rng = np.random.default_rng(11)
    records = []
    for i in range(12):
        entry = 0.0 if i == 0 else float(rng.uniform(0.05, 0.3))
        mid = entry + float(rng.uniform(0.1, 0.5))
        records.append(EventRecord(f"p{i}", entry, mid, 1, covariates=(float(i),)))
    for i in range(12):
        mid = records[i].exit_time
        records.append(EventRecord(f"p{i}", mid, mid + 0.4, i % 2, covariates=(0.5,)))
    return EventDataset(records=records, horizon=1.5)


def test_bootstrap_retry_path_and_interleaved_subjects():
    ds = interleaved_delayed_entry()
    kind = SystemKind("mean_frequency")
    # P(no subject from t = 0 in a resample) = (11/12)^12, about 0.35.
    assert_bootstrap_equal(ds, kind, b=30, seed=2)
    late = EventDataset(
        records=[replace(r, entry_time=r.entry_time + 0.01) for r in ds.records],
        horizon=1.5,
    )
    with pytest.raises(DataError, match="empty risk set"):
        bootstrap_covariance(late, kind, b=3, seed=1)


def test_resample_without_a_group_is_a_data_error():
    kind, hazards = SYSTEMS["relative_survival"]
    ds = simulate_dataset(Scenario(system=kind, hazards=hazards, n=3, seed=5))
    assert ds.group_labels == (0, 1)
    groups = np.array([ds._group[ds._subject == s][0] for s in range(3)])
    # The lowest resample that draws no subject of group 1 or of group 0.
    for r in range(20):
        rng = np.random.default_rng(np.random.SeedSequence((1, r, 0)))
        drawn = set(groups[rng.integers(0, 3, size=3)].tolist())
        if drawn != {0, 1}:
            break
    missing = ({0, 1} - drawn).pop()
    with pytest.raises(
        DataError, match=rf"^bootstrap resample {r} has no subject of group {missing}$"
    ):
        bootstrap_covariance(ds, kind, b=20, seed=1)


def test_resample_is_a_gather_of_whole_subjects():
    ds = interleaved_delayed_entry()
    idx = np.array([3, 3, 0, 11])
    star = take_subjects(ds, idx)
    assert star.n_subjects == 4
    by_subject = {}
    for rec in ds.records:
        by_subject.setdefault(rec.subject_id, []).append(rec)
    want = [
        replace(rec, subject_id=f"s{i + 1}")
        for i, k in enumerate(idx)
        for rec in by_subject[f"p{k}"]
    ]
    assert star.records == tuple(want)


# ---------------------------------------------------------------------------
# One grid builder for time-grid drivers and oracles.


def reference_grid(horizon, step, start=0.0):
    span = horizon - start
    count = int(np.floor(span / step + 1e-12))
    times = start + np.arange(1, count + 1) * step
    if times.size and times[-1] > horizon:
        times[-1] = horizon
    if not times.size or times[-1] < horizon:
        times = np.append(times, horizon)
    return times


@pytest.mark.parametrize(
    "horizon,step,start",
    [(2.0, 2e-5, 0.0), (1.0, 0.1, 0.0), (3.0, 0.7, 0.0), (2.0, 2.0, 0.0),
     (5.0, 4.9e-5, 0.1), (1.0, 0.3, 0.25), (2.5, 1e-3, 1.3)],
)
def test_oracle_and_time_grid_share_the_grid(horizon, step, start):
    hazards = {"event": LinearHazard(0.5, 0.3, horizon)}
    oracle = _oracle_driver(hazards, SystemKind("rmst"), horizon, step, start=start)
    np.testing.assert_array_equal(oracle.times, reference_grid(horizon, step, start))
    if start == 0.0:
        grid, _ = time_grid_driver(horizon, step)
        times = reference_grid(horizon, step)
        np.testing.assert_array_equal(grid.times, times)
        np.testing.assert_array_equal(
            grid.increments.ravel(), np.diff(times, prepend=0.0)
        )


# ---------------------------------------------------------------------------
# Writers: the same bytes as csv.writer over per-cell repr.


def reference_write_fit_csv(fit, band, path):
    n = len(fit.state_labels)
    pairs = [(i, j) for i in range(n) for j in range(i, n)]
    header = (
        ["time"]
        + [f"X_{i + 1}" for i in range(n)]
        + [f"V_{i + 1}{j + 1}" for i, j in pairs]
        + [c for i in range(n) for c in (f"lo_{i + 1}", f"hi_{i + 1}")]
    )
    cov_all = np.concatenate([fit.v0[None, :, :], fit.cov_path], axis=0)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for r in range(band.times.size):
            row = [repr(float(band.times[r]))]
            row += [repr(float(v)) for v in band.point[r]]
            row += [repr(float(cov_all[r, i, j])) for i, j in pairs]
            for i in range(n):
                row += [repr(float(band.lower[r, i])), repr(float(band.upper[r, i]))]
            writer.writerow(row)


def reference_write_band_csv(band, n, path):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            ["time"] + [c for i in range(n) for c in (f"lo_{i + 1}", f"hi_{i + 1}")]
        )
        for r in range(band.times.size):
            row = [repr(float(band.times[r]))]
            for i in range(n):
                row += [repr(float(band.lower[r, i])), repr(float(band.upper[r, i]))]
            writer.writerow(row)


def reference_write_path_csv(path, out):
    with open(out, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["time"] + [f"d{j + 1}" for j in range(path.dimension)])
        for i in range(path.n_jumps):
            writer.writerow(
                [repr(float(path.times[i]))]
                + [repr(float(v)) for v in path.increments[i]]
            )


def same_bytes(a, b):
    return a.read_bytes() == b.read_bytes()


@pytest.mark.parametrize("name", ["survival", "cumulative_incidence", "led"])
def test_fit_and_band_writers_keep_their_bytes(name, tmp_path):
    kind, hazards = SYSTEMS[name]
    sc = Scenario(system=kind, hazards=hazards, n=200, seed=5,
                  censor=ConstantHazard(0.3, H))
    # Rounded exits create ties; the t = 0 row carries v0, whose off-diagonal
    # entries are -0.0.
    ds = simulate_dataset(sc)
    tied = EventDataset.from_columns(
        ds._subject, ds._entry, np.round(ds._exit, 1).clip(0.1), ds._code,
        ds.horizon, group=ds._group,
    )
    driver, meta = estimate_driver(tied, kind)
    system = make_system(kind)
    n = system.state_dim
    fit = fit_plugin(system, driver, meta, v0=np.where(np.eye(n) > 0, 1e-3, -0.0))
    band = confidence_band(fit, 0.9)
    write_fit(fit, band, tmp_path / "fit")
    reference_write_fit_csv(fit, band, tmp_path / "ref_fit.csv")
    assert same_bytes(tmp_path / "fit.csv", tmp_path / "ref_fit.csv")
    assert n == 1 or b",-0.0," in (tmp_path / "fit.csv").read_bytes()
    # The estimate command writes both files in one pass.
    _write_fit(fit, band, tmp_path / "both", band_path=tmp_path / "band.csv")
    assert same_bytes(tmp_path / "both.csv", tmp_path / "ref_fit.csv")
    reference_write_band_csv(band, n, tmp_path / "ref_band.csv")
    assert same_bytes(tmp_path / "band.csv", tmp_path / "ref_band.csv")
    write_path(driver, meta, tmp_path / "driver")
    reference_write_path_csv(driver, tmp_path / "ref_driver.csv")
    assert same_bytes(tmp_path / "driver.csv", tmp_path / "ref_driver.csv")


def test_path_writer_keeps_signed_zeros_and_extremes(tmp_path):
    path = StepPath(
        times=[0.5, 1.0, 1.25],
        increments=[[-0.0, 1e-300], [0.0, -2.5e10], [1 / 3, -0.0]],
        origin_value=[0.0, -0.0],
        horizon=1.25,
    )
    write_path(path, DriverMeta(3, ("a", "b"), (False, False)), tmp_path / "p")
    reference_write_path_csv(path, tmp_path / "ref.csv")
    assert same_bytes(tmp_path / "p.csv", tmp_path / "ref.csv")
    data = (tmp_path / "p.csv").read_bytes()
    assert b"-0.0" in data and data.endswith(b"\r\n")
    empty = StepPath(times=[], increments=np.zeros((0, 2)), origin_value=[1.0, 2.0],
                     horizon=1.0)
    write_path(empty, DriverMeta(1, ("a", "b"), (False, False)), tmp_path / "e")
    reference_write_path_csv(empty, tmp_path / "ref_e.csv")
    assert same_bytes(tmp_path / "e.csv", tmp_path / "ref_e.csv")


# ---------------------------------------------------------------------------
# write_dataset reads the columns.


def test_write_dataset_round_trip_with_groups_covariates_and_spells(tmp_path):
    records = (
        EventRecord("a", 0.0, 0.25, 1, group=1, covariates=(0.5, -0.0)),
        EventRecord("a", 0.25, 1.0, 2, group=1, covariates=(0.5, -0.0)),
        EventRecord("b,quoted", 0.1, 0.7, 0, group=2, covariates=(1e-300, 3.0)),
        EventRecord("c", 0.0, 0.1 + 0.2, 1, group=1, covariates=(2.0, 1 / 3)),
        EventRecord("b,quoted", 0.7, 1.5, 1, group=2, covariates=(1e-300, 3.0)),
    )
    ds = EventDataset(records=records, horizon=1.5)
    write_dataset(ds, tmp_path / "d.csv")
    text = (tmp_path / "d.csv").read_text()
    assert "float64" not in text and "np." not in text
    back = parse_dataset(tmp_path / "d.csv", horizon=1.5)
    assert back.records == records
    assert back.n_subjects == 3
    # A dataset simulated as columns writes plain decimals too.
    sim = simulate_dataset(Scenario(system=SYSTEMS["mean_frequency"][0],
                                    hazards=SYSTEMS["mean_frequency"][1], n=30, seed=1))
    write_dataset(sim, tmp_path / "s.csv")
    assert "float64" not in (tmp_path / "s.csv").read_text()
    assert parse_dataset(tmp_path / "s.csv", horizon=H).records == sim.records
