"""Study blocks against solo replications.

``coverage_study`` and ``l2_convergence`` run their replications in blocks
of consecutive indices, solved as one stack.  Each replication must come out
as it does alone: ``simulate_dataset``, ``estimate_driver``, ``fit_plugin``
and ``confidence_band`` on its own seed.  Every system matches bit for
bit, and a failing replication records the error its solo fit raises while
the rest of its block carries on.
"""

import tracemalloc
from contextlib import nullcontext
from dataclasses import replace
from statistics import NormalDist
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hazard_transform import (
    ConstantHazard,
    HazardTransformError,
    LinearHazard,
    NegativeVarianceError,
    Scenario,
    StepPath,
    SystemKind,
    bootstrap_covariance,
    confidence_band,
    coverage_study,
    estimate_driver,
    fit_plugin,
    l2_convergence,
    l2_distance,
    make_system,
    oracle_parameter,
    simulate_dataset,
    solve_plugin,
    solve_variance,
    write_study,
)
from hazard_transform import simlab
from hazard_transform.hazards import _block_driver, _block_sources, _driver_grid

RTOL = 1e-12
LEVEL = 0.9
T_GRID = np.array([0.15, 0.4, 0.4, 0.75, 0.95])
ORACLE_STEP = 1e-3

SCREENING = SystemKind("screening", prevalence=0.4, initial_value=[0.8, 0.7, 0.6, 0.5])

#: One scenario family per system: (kind, hazards by role), horizon 1.
SYSTEMS = {
    "survival": (SystemKind("survival"), {"event": LinearHazard(0.5, 1.0, 1.0)}),
    "rmst": (SystemKind("rmst"), {"event": ConstantHazard(1.2, 1.0)}),
    "relative_survival": (
        SystemKind("relative_survival"),
        {"group1": LinearHazard(1.5, -1.0, 1.0), "group0": LinearHazard(0.5, 1.0, 1.0)},
    ),
    "led": (
        SystemKind("led"),
        {"group1": ConstantHazard(1.0, 1.0), "group2": ConstantHazard(0.5, 1.0)},
    ),
    "ler": (
        SystemKind("ler"),
        {"group1": ConstantHazard(1.0, 1.0), "group2": ConstantHazard(0.5, 1.0)},
    ),
    "screening": (
        SCREENING,
        {"positive": ConstantHazard(0.7, 1.0), "negative": ConstantHazard(2.5, 1.0)},
    ),
    "cumulative_incidence": (
        SystemKind("cumulative_incidence", n_causes=2),
        {"cause1": ConstantHazard(0.6, 1.0), "cause2": LinearHazard(0.2, 0.5, 1.0)},
    ),
    "mean_frequency": (
        SystemKind("mean_frequency"),
        {"recurrent": ConstantHazard(1.5, 1.0), "terminal": ConstantHazard(0.8, 1.0)},
    ),
}


def blocks_of(size):
    """Patch the study block size to ``size`` replications."""
    return mock.patch.object(simlab, "_block_size", lambda *args: size)


def block_stack(sc, seeds, system=None):
    """The solved stack of ``sc``'s replications drawn from ``seeds``, built
    as a study block builds it: one draw, then the block kernel's drivers,
    solved by ``system`` (by default ``sc``'s)."""
    spells = simlab._simulate(sc, sc.n, seeds)
    driver = _block_driver(spells, _block_sources(sc.system), None)
    return simlab._Stack(system or make_system(sc.system), driver)


def solo(kind, sc, seed):
    """One replication on its own: ``(fit, band)``, or the error type name."""
    ds = simulate_dataset(replace(sc, seed=seed, k_replications=1))
    driver, meta = estimate_driver(ds, kind)
    try:
        fit = fit_plugin(make_system(kind), driver, meta)
        return fit, confidence_band(fit, LEVEL)
    except HazardTransformError as exc:
        return type(exc).__name__


def solo_coverage(kind, sc):
    """Coverage hits, replications used and failures of the solo runs."""
    comp = kind.headline_index
    truth = oracle_parameter(sc.hazards, kind, ORACLE_STEP).value_at(T_GRID)[:, comp]
    hits, used, failures = np.zeros(T_GRID.size, dtype=int), 0, {}
    for j in range(sc.k_replications):
        out = solo(kind, sc, simlab._child_seed(sc.seed, 0, j))
        if isinstance(out, str):
            failures[out] = failures.get(out, 0) + 1
            continue
        _, lo, hi = out[1].value_at(T_GRID)
        hits += (lo[:, comp] <= truth) & (truth <= hi[:, comp])
        used += 1
    return hits, used, failures


def scenario(name, n, k, seed):
    kind, hazards = SYSTEMS[name]
    return Scenario(system=kind, hazards=hazards, n=n, seed=seed, k_replications=k)


# A ler study stops at its oracle, whose natural start is on the guard.
@pytest.mark.parametrize("name", sorted(set(SYSTEMS) - {"ler"}))
@settings(derandomize=True, database=None, deadline=None, max_examples=10)
@example(n=7, k=1, block=3, seed=1)
@example(n=9, k=7, block=3, seed=2)
@given(
    n=st.integers(2, 40),
    k=st.integers(1, 9),
    block=st.integers(1, 4),
    seed=st.integers(0, 2**32),
)
def test_coverage_blocks_equal_solo_replications(name, n, k, block, seed):
    # Blocks of 1 to 4 replications, k = 1 to 9 (rarely a multiple of the
    # block), small n: uneven jump counts, and guard trips and negative
    # variances (screening) among the others of a block.  The hits are
    # compared exactly: every system is bitwise its solo fits.
    kind, _ = SYSTEMS[name]
    sc = scenario(name, n, k, seed)
    with blocks_of(block):
        res = coverage_study(sc, LEVEL, T_GRID, oracle_step=ORACLE_STEP)
    hits, used, failures = solo_coverage(kind, sc)
    assert res.metadata["replications_used"] == used
    assert res.metadata["failures"] == failures
    if used:
        assert [row[1] for row in res.rows] == (hits / used).tolist()


@pytest.mark.parametrize("name", sorted(SYSTEMS))
def test_stacked_fits_equal_solo_fits(name):
    # Five replications of uneven length stacked: the states and covariances
    # of each replication's own rows against its solo fit, and the guard
    # trips against solve_plugin's: same type, component, time and value.
    # Every system matches bit for bit, screening's stepped states included.
    # ler's natural start trips its guard at 0 in every replication, so it
    # is solved from an interior start too.
    kind, _ = SYSTEMS[name]
    sc = scenario(name, 12, 1, 5)
    drivers = [
        estimate_driver(simulate_dataset(replace(sc, seed=s)), kind) for s in range(5)
    ]
    assert len({driver.n_jumps for driver, _ in drivers}) > 1
    systems = [make_system(kind)]
    if name == "ler":
        interior = np.array([1.0, 1.0, 1.0, 0.1, 0.1])
        systems.append(replace(systems[0], initial_value=interior))
    stacks = [block_stack(sc, range(5), system) for system in systems]
    n = systems[0].state_dim
    cells = [(i, l) for i in range(n) for l in range(n)]
    for system, stack in zip(systems, stacks):
        cov = stack.covariances(cells)
        for r, (driver, meta) in enumerate(drivers):
            try:
                state = solve_plugin(system, driver)
            except HazardTransformError as exc:
                err = stack.errors[r]
                assert type(err) is type(exc)
                assert (err.component, err.time, err.value) == (
                    exc.component, exc.time, exc.value
                )
                continue
            assert stack.errors[r] is None
            m = driver.n_jumps
            want = np.vstack([state.origin_value, state.values_at_jumps()])
            want_cov = solve_variance(system, driver, meta, state)
            got, got_cov = stack.states[: m + 1, r], cov[:m, r].reshape(m, n, n)
            assert got.tobytes() == want.tobytes()
            assert got_cov.tobytes() == want_cov.tobytes()
            # The rows past a replication's own are identity steps: finite,
            # and its last state to rounding.
            pad = stack.states[m + 1 :, r]
            np.testing.assert_allclose(
                pad, np.broadcast_to(got[-1], pad.shape), rtol=1e-14
            )
    if name == "ler":
        assert not stacks[0].ok.any() and stacks[1].ok.all()


def init_coverage(sc, oracle_step=None, grid_step=None):
    """Install the worker context of a coverage study of ``sc`` (headline
    component, level 0.9 at ``T_GRID``)."""
    comp = sc.system.headline_index
    truth = oracle_parameter(sc.hazards, sc.system, oracle_step).value_at(T_GRID)
    simlab._init_worker({
        "scenario": sc, "grid_step": grid_step, "component": comp,
        "measure": simlab._covered, "z": NormalDist().inv_cdf(0.95),
        "t_grid": T_GRID, "oracle_values": truth[:, comp],
        "entries": [(i, i) for i in range(make_system(sc.system).state_dim)],
    })


def test_failures_in_the_middle_of_a_block_leave_the_rest_alone():
    # Screening with six subjects, seed 28: replication 0 is used, 1 to 3
    # trip a guard, 4 has a negative variance and 5 is used again.
    kind, _ = SYSTEMS["screening"]
    sc = scenario("screening", 6, 6, 28)
    outcomes = [solo(kind, sc, simlab._child_seed(28, 0, j)) for j in range(6)]
    kinds = [out if isinstance(out, str) else None for out in outcomes]
    assert kinds == [None] + ["GuardViolation"] * 3 + ["NegativeVarianceError", None]
    with blocks_of(6):
        res = coverage_study(sc, LEVEL, T_GRID, oracle_step=ORACLE_STEP)
    hits, used, failures = solo_coverage(kind, sc)
    assert res.metadata["failures"] == {"GuardViolation": 3, "NegativeVarianceError": 1}
    assert res.metadata["failures"] == failures and used == 2
    assert [row[1] for row in res.rows] == (hits / used).tolist()
    # The block's records: replication 4's lists the times and component of
    # the solo band's error.
    system = make_system(kind)
    seeds = [simlab._child_seed(28, 0, j) for j in range(6)]
    drivers = [
        estimate_driver(simulate_dataset(replace(sc, seed=s, k_replications=1)), kind)
        for s in seeds
    ]
    stack = block_stack(sc, seeds)
    init_coverage(sc, ORACLE_STEP)
    simlab._covered(stack)
    with pytest.raises(NegativeVarianceError) as want:
        confidence_band(fit_plugin(system, *drivers[4]), LEVEL)
    got = stack.errors[4]
    assert type(got) is NegativeVarianceError
    assert (got.component, got.times) == (want.value.component, want.value.times)
    assert str(got) == str(want.value)
    assert [err and type(err).__name__ for err in stack.errors] == kinds


@pytest.mark.parametrize(
    "measure", [simlab._covered, simlab._l2_estimate, simlab._l2_variance]
)
def test_a_block_with_every_replication_failed(measure):
    # ler's natural start is on its guard, so all five replications of the
    # stack trip at time 0.  Each measure returns their error type names and
    # solves no covariance for them: a solve from that start divides by
    # zero, which the suite's warning filter turns into an error.
    kind, _ = SYSTEMS["ler"]
    sc = scenario("ler", 12, 5, 5)
    stack = block_stack(sc, range(5))
    assert not stack.ok.any()
    target = StepPath.from_values(np.array([0.5]), np.zeros((2, 1)), 1.0)
    simlab._init_worker({
        "scenario": sc, "component": 0, "target_path": target, "upto": 1.0,
        "t_grid": T_GRID, "oracle_values": np.zeros(T_GRID.size), "z": 1.0,
        "entries": [(0, 0)] if measure is simlab._l2_variance else
        [(i, i) for i in range(5)],
    })
    assert measure(stack) == [(None, "GuardViolation")] * 5


@pytest.mark.parametrize("n_jobs", [1, 2])
def test_studies_solving_only_the_read_entries_write_the_full_solves_bytes(
    n_jobs, tmp_path, monkeypatch
):
    # Each relative_survival entry reads only itself, so a coverage block
    # solves 3 of the 6 entries and a variance convergence block 1.  The
    # written studies are byte for byte those of measures forced to solve
    # every entry (the workers of two jobs are forked, patch included).
    kind, hazards = SYSTEMS["relative_survival"]
    sc = Scenario(system=kind, hazards=hazards, n=150, seed=11, k_replications=12)

    def write(tag):
        cov = coverage_study(sc, LEVEL, T_GRID, n_jobs=n_jobs)
        write_study(cov, tmp_path / f"coverage_{tag}")
        conv = l2_convergence(
            sc, [60, 150], target="variance", bootstrap_b=10, n_jobs=n_jobs
        )
        write_study(conv, tmp_path / f"convergence_{tag}")

    write("read")
    solve = simlab._Stack.covariances

    def solve_every_cell(self, cells):
        n = self.system.state_dim
        full = solve(self, [(i, l) for i in range(n) for l in range(n)])
        return full[..., [i * n + l for i, l in cells]]

    monkeypatch.setattr(simlab._Stack, "covariances", solve_every_cell)
    write("full")
    for name in ("coverage", "convergence"):
        for suffix in (".csv", ".json"):
            read, full = (tmp_path / f"{name}_{tag}{suffix}" for tag in ("read", "full"))
            assert read.read_bytes() == full.read_bytes()


def test_failing_study_is_the_same_for_any_number_of_jobs():
    # The seed-28 screening study (three guard trips and a negative variance
    # in six replications) in one process and in two.
    sc = scenario("screening", 6, 6, 28)
    one, two = (
        coverage_study(sc, LEVEL, T_GRID, oracle_step=ORACLE_STEP, n_jobs=jobs)
        for jobs in (1, 2)
    )
    assert one.metadata["failures"] == {"GuardViolation": 3, "NegativeVarianceError": 1}
    assert two.metadata["failures"] == one.metadata["failures"]
    assert two.rows == one.rows


@pytest.mark.parametrize(
    "name,target",
    [
        ("rmst", "estimate"),
        ("rmst", "variance"),
        ("relative_survival", "estimate"),
        ("relative_survival", "variance"),
        ("mean_frequency", "variance"),
        ("screening", "estimate"),
    ],
)
def test_convergence_blocks_equal_solo_distances(name, target):
    # L2 per replication: each block's distances are l2_distance of the
    # replication's stacked path, so they match the solo fits' distances
    # (bitwise for linear systems), and blocks of 2 give what blocks of 3
    # give, bitwise.
    kind, _ = SYSTEMS[name]
    sc = scenario(name, 30, 5, 11)
    kwargs = dict(
        target=target, bootstrap_n=60, bootstrap_b=10, oracle_step=ORACLE_STEP
    )
    with blocks_of(2):
        res = l2_convergence(sc, [20, 30], **kwargs)
    with blocks_of(3):
        again = l2_convergence(sc, [20, 30], **kwargs)
    np.testing.assert_array_equal(again.rows, res.rows)
    comp = kind.headline_index
    if target == "estimate":
        ref = oracle_parameter(sc.hazards, kind, ORACLE_STEP)
    else:
        ref_ds = simulate_dataset(replace(sc, n=60, seed=simlab._child_seed(11, 1)))
        grid, cov = bootstrap_covariance(
            ref_ds, kind, b=10, seed=simlab._child_seed(11, 2)
        )
        ref = StepPath.from_values(
            grid, np.concatenate([[0.0], cov[:, comp, comp] / 60]), 1.0
        )
    for i, (n, L) in enumerate(res.rows):
        distances = []
        for j in range(5):
            rep = replace(sc, n=n, seed=simlab._child_seed(11, 0, i, j))
            driver, meta = estimate_driver(simulate_dataset(rep), kind)
            try:
                fit = fit_plugin(make_system(kind), driver, meta)
            except HazardTransformError:
                continue
            if target == "estimate":
                distances.append(l2_distance(ref, fit.state_path, comp, comp, 1.0))
            else:
                diag = fit.cov_diag()[:, comp] / fit.scale_n
                path = StepPath.from_values(fit.times, diag, 1.0)
                distances.append(l2_distance(ref, path, 0, 0, 1.0))
        assert len(distances) + res.metadata["failures"].get(str(n), 0) == 5
        if distances:
            assert L == pytest.approx(np.mean(distances), rel=RTOL, abs=0)
        else:
            assert np.isnan(L)


@pytest.mark.parametrize("study", ["coverage", "estimate", "variance"])
@pytest.mark.parametrize("name", ["rmst", "mean_frequency"])
def test_study_artifacts_do_not_depend_on_the_block_size(name, study, tmp_path):
    # rmst on a fine time grid (a driver row per grid step) and
    # mean_frequency: blocks of 1, of 2 and of the study's own size write
    # the same bytes.
    sc = scenario(name, 30, 5, 4)
    grid_step = 0.01 if name == "rmst" else None
    files = []
    for size in (1, 2, None):
        with blocks_of(size) if size else nullcontext():
            if study == "coverage":
                res = coverage_study(
                    sc, LEVEL, T_GRID, grid_step=grid_step, oracle_step=ORACLE_STEP
                )
            else:
                res = l2_convergence(
                    sc, [20, 30], target=study, grid_step=grid_step,
                    oracle_step=ORACLE_STEP, bootstrap_n=60, bootstrap_b=10,
                )
        base = tmp_path / f"blocks{size}"
        write_study(res, base)
        files.append([base.with_suffix(ext).read_bytes() for ext in (".csv", ".json")])
    assert files[0] == files[1] == files[2]


@pytest.mark.parametrize("name", ["mean_frequency", "rmst", "ler", "screening"])
def test_bootstrap_covariance_does_not_depend_on_the_block_size(name):
    # Blocks of one resample, of five and of all twelve.  ler starts off
    # its guard, as a bootstrap of its natural baseline would trip at 0; the
    # screening sample of seed 4 trips none.
    kind, _ = SYSTEMS[name]
    ds = simulate_dataset(scenario(name, 40, 1, 4))
    driver, _ = estimate_driver(ds, kind)
    rows = simlab._ResampleDrivers(ds, kind, driver).times.size + 1
    system = make_system(kind)
    if name == "ler":
        system = replace(system, initial_value=np.array([1.0, 1.0, 1.0, 0.1, 0.1]))
    got = []
    for size in (1, 5, 12):
        with mock.patch.object(simlab, "_BOOTSTRAP_ROWS", size * rows), \
                mock.patch.object(simlab, "make_system", lambda kind: system):
            got.append(bootstrap_covariance(ds, kind, b=12, seed=3))
    for times, cov in got[1:]:
        assert times.tobytes() == got[0][0].tobytes()
        assert cov.tobytes() == got[0][1].tobytes()


@settings(derandomize=True, database=None, deadline=None, max_examples=200)
@given(
    ks=st.lists(st.integers(1, 120), min_size=1, max_size=3),
    cap=st.integers(1, 40),
)
def test_blocks_are_the_fewest_that_fit_of_near_equal_size(ks, cap):
    # Each group's seeds, in order and each once, in ceil(k / cap) blocks of
    # consecutive seeds whose sizes differ by at most one.
    sc = scenario("survival", 10, 1, 1)
    ctx = {"scenario": sc, "grid_step": None, "entries": [(0, 0)]}
    groups = [(key, 10 + key, list(range(100 * key, 100 * key + k)))
              for key, k in enumerate(ks)]
    with blocks_of(cap):
        blocks = simlab._blocks(groups, ctx)
    for key, n, seeds in groups:
        own = [b for b in blocks if b[0] == key]
        assert all(b[1] == n for b in own)
        assert [seed for b in own for seed in b[2]] == seeds
        sizes = [len(b[2]) for b in own]
        assert len(own) == -(-len(seeds) // cap)
        assert min(sizes) >= 1 and max(sizes) - min(sizes) <= 1
    assert [b[0] for b in blocks] == sorted(b[0] for b in blocks)


def study_context(sc, measure, grid_step=None):
    """The worker context the study of ``measure`` (coverage, estimate or
    variance) installs for ``sc``: the study runs up to its blocks."""
    got = {}

    def keep(groups, ctx, n_jobs):
        got["ctx"] = ctx
        return []

    with mock.patch.object(simlab, "_run_blocks", keep):
        if measure == "coverage":
            coverage_study(sc, LEVEL, T_GRID, grid_step=grid_step, oracle_step=ORACLE_STEP)
        else:
            l2_convergence(sc, [sc.n], target=measure, grid_step=grid_step,
                           oracle_step=ORACLE_STEP, bootstrap_n=100, bootstrap_b=5)
    return got["ctx"]


#: mean_frequency at a recurrent rate of 8: about 5.5 events a subject.
BUSY = {
    "mean_frequency_rate8": (
        SystemKind("mean_frequency"),
        {"recurrent": ConstantHazard(8.0, 1.0), "terminal": ConstantHazard(0.8, 1.0)},
    ),
}


@pytest.mark.parametrize(
    "name,n,grid_step,measure,size",
    [
        ("relative_survival", 500, None, "coverage", 29),
        ("survival", 5000, None, "coverage", 4),
        ("survival", 20000, None, "coverage", 1),
        ("screening", 500, None, "coverage", 17),
        ("rmst", 200, 1e-4, "coverage", 2),
        ("screening", 500, None, "estimate", 47),
        ("mean_frequency", 500, None, "variance", 12),
        ("mean_frequency_rate8", 500, None, "coverage", 3),
    ],
    ids=[
        "relative_survival-500-29",
        "survival-5000-4",
        "survival-20000-1",
        "screening-500-17",
        "rmst-200-grid1e-4-2",
        "screening-500-estimate-47",
        "mean_frequency-500-variance-12",
        "mean_frequency_rate8-500-3",
    ],
)
def test_one_block_working_set_stays_within_the_cap(name, n, grid_step, measure, size):
    # Each replication is charged what one block of its study's measure
    # holds: the bench coverage scenario (relative_survival, n 500) asks for
    # and solves 3 covariance entries, screening's coverage asks for 4 and
    # solves 9, and its estimate none (its draws and drivers alone peak near
    # the floor of the charge), and a mean_frequency subject counts once per
    # expected spell: 2.5 times at a recurrent rate of 1.5, 9 times at a
    # rate of 8 (whose block of 14 held 2.39 times the cap).  A
    # one-component state at large n takes fewer replications per block
    # instead of holding more of its long paths, and rmst's time slot gives
    # each driver a row per grid step, charged its own rate.  The traced
    # peak of one block (draws, datasets, drivers, the stacked solve and the
    # measure) stays within 1.5 times the byte size of the study cap (over
    # seeds 1 to 5 when written: 0.57-0.60, 0.66, 0.66, 0.72-0.74, 0.82,
    # 0.95-0.96, 0.49-0.51 and 0.46-0.50 times, in the order above).
    kind, hazards = {**SYSTEMS, **BUSY}[name]
    sc = Scenario(system=kind, hazards=hazards, n=n, seed=1, k_replications=size)
    ctx = study_context(sc, measure, grid_step)
    grid = 0 if grid_step is None else _driver_grid(sc.horizon, grid_step).size
    assert simlab._block_size(sc, n, grid, ctx["entries"]) == size
    simlab._init_worker(ctx)
    # The first block of a study of twice as many replications, as the
    # study cuts it.
    seeds = [simlab._child_seed(1, 0, j) for j in range(2 * size)]
    blocks = simlab._blocks([(0, n, seeds)], ctx)
    assert blocks == [(0, n, seeds[:size]), (0, n, seeds[size:])]
    simlab._replicate(blocks[0])  # warm caches (piece tables)
    tracemalloc.start()
    try:
        results = simlab._replicate(blocks[0])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert [err for _, _, err in results] == [None] * size
    cap = simlab._STUDY_CELLS * 8
    assert peak <= 1.5 * cap, peak / cap
