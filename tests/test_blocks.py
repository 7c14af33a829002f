"""Study blocks against solo replications.

``coverage_study`` and ``l2_convergence`` run their replications in blocks
of consecutive indices, solved as one stack.  Each replication must come out
as it does alone: ``simulate_dataset``, ``estimate_driver``, ``fit_plugin``
and ``confidence_band`` on its own seed.  Linear systems match bit for bit,
``ler`` and ``screening`` within the scan rule of ``test_scan.py`` (1e-12 of
the largest magnitude), and a failing replication records the error its solo
fit raises while the rest of its block carries on.
"""

import tracemalloc
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


def block_stack(sc, seeds):
    """The solved stack of ``sc``'s replications drawn from ``seeds``, built
    as a study block builds it: one draw, then the block kernel's drivers."""
    spells = simlab._simulate(sc, sc.n, seeds)
    driver = _block_driver(spells, _block_sources(sc.system), None)
    return simlab._Stack(make_system(sc.system), driver)


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
    # compared exactly: linear systems are bitwise their solo fits, and for
    # screening no band bound lies within rounding of the truth in these
    # draws.
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
    kind, _ = SYSTEMS[name]
    sc = scenario(name, 12, 1, 5)
    system = make_system(kind)
    drivers = [
        estimate_driver(simulate_dataset(replace(sc, seed=s)), kind) for s in range(5)
    ]
    assert len({driver.n_jumps for driver, _ in drivers}) > 1
    stack = block_stack(sc, range(5))
    cov = stack.covariances()
    linear = system.jacobians is not None
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
        got, got_cov = stack.states[: m + 1, r], cov[:m, r]
        if linear:
            np.testing.assert_array_equal(got, want)
            np.testing.assert_array_equal(got_cov, want_cov)
        else:
            scale = np.abs(want).max()
            np.testing.assert_allclose(got, want, rtol=0, atol=RTOL * scale)
            scale = np.abs(want_cov).max(initial=1.0)
            np.testing.assert_allclose(got_cov, want_cov, rtol=0, atol=RTOL * scale)
        # The rows past a replication's own are identity steps: finite, and
        # its last state to rounding.
        pad = stack.states[m + 1 :, r]
        np.testing.assert_allclose(pad, np.broadcast_to(got[-1], pad.shape), rtol=1e-14)
    if name == "ler":
        assert not stack.ok.any()


def init_coverage(sc, oracle_step=None, grid_step=None):
    """Install the worker context of a coverage study of ``sc`` (headline
    component, level 0.9 at ``T_GRID``)."""
    comp = sc.system.headline_index
    truth = oracle_parameter(sc.hazards, sc.system, oracle_step).value_at(T_GRID)
    simlab._init_worker({
        "scenario": sc, "grid_step": grid_step, "component": comp,
        "measure": simlab._covered, "z": NormalDist().inv_cdf(0.95),
        "t_grid": T_GRID, "oracle_values": truth[:, comp],
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
        "component": 0, "target_path": target, "upto": 1.0,
        "t_grid": T_GRID, "oracle_values": np.zeros(T_GRID.size), "z": 1.0,
    })
    assert measure(stack) == [(None, "GuardViolation")] * 5


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


@pytest.mark.parametrize(
    "name,n,grid_step,size",
    [
        ("relative_survival", 500, None, 8),
        ("survival", 5000, None, 3),
        ("survival", 20000, None, 1),
        ("screening", 500, None, 1),
        ("rmst", 200, 1e-4, 1),
    ],
    ids=[
        "relative_survival-500-8",
        "survival-5000-3",
        "survival-20000-1",
        "screening-500-1",
        "rmst-200-grid1e-4-1",
    ],
)
def test_one_block_working_set_stays_within_the_cap(name, n, grid_step, size):
    # The bench coverage scenario (relative_survival, n 500) takes full
    # blocks; a one-component state at large n takes fewer replications per
    # block instead of holding more of its long paths, and screening, whose
    # covariance scan rebuilds its maps per driver component, runs alone.
    # rmst's time slot gives each driver a row per grid step, so a fine grid
    # counts like many subjects.  The traced peak of one block (draws,
    # datasets, drivers, the stacked solve and the band) stays within 1.5
    # times the byte size of the study cap (0.88-0.95, 0.44, 0.61, 0.43-0.46
    # and 0.26-0.27 times over seeds 1 to 5 when written; screening's block
    # of 4 at n 500 reached 1.75, and rmst's block of 8 at this grid 1.98).
    kind, hazards = SYSTEMS[name]
    sc = Scenario(system=kind, hazards=hazards, n=n, seed=1, k_replications=size)
    grid = 0 if grid_step is None else _driver_grid(sc.horizon, grid_step).size
    assert simlab._block_size(kind, n, grid) == size
    init_coverage(sc, grid_step=grid_step)
    # The first block of a study of 8 replications, as the study cuts it.
    seeds = [simlab._child_seed(1, 0, j) for j in range(8)]
    block = simlab._blocks([(0, n, seeds)], simlab._CTX)[0]
    assert block == (0, n, seeds[:size])
    simlab._replicate(block)  # warm caches (piece tables, vech tensor)
    tracemalloc.start()
    try:
        results = simlab._replicate(block)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert [err for _, _, err in results] == [None] * size
    cap = simlab._STUDY_CELLS * 8
    assert peak <= 1.5 * cap, peak / cap
