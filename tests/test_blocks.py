"""Study blocks against solo replications.

``coverage_study`` and ``l2_convergence`` run their replications in blocks
of consecutive indices, solved as one stack.  Each replication must come out
as it does alone: ``simulate_dataset``, ``estimate_driver``, ``fit_plugin``
and ``confidence_band`` on its own seed.  Linear systems match bit for bit,
``ler`` and ``screening`` within the scan rule of ``test_scan.py`` (1e-12 of
the largest magnitude), and a failing replication fails with the same error
type while the rest of its block carries on.
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
    return mock.patch.object(simlab, "_block_size", lambda kind, n: size)


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
    # trips against solo_plugin's.
    kind, _ = SYSTEMS[name]
    sc = scenario(name, 12, 1, 5)
    system = make_system(kind)
    drivers = [
        estimate_driver(simulate_dataset(replace(sc, seed=s)), kind) for s in range(5)
    ]
    assert len({driver.n_jumps for driver, _ in drivers}) > 1
    stack = simlab._Stack(system, drivers)
    cov = stack.covariances() if stack.ok.any() else None
    linear = system.jacobians is not None
    for r, (driver, meta) in enumerate(drivers):
        try:
            state = solve_plugin(system, driver)
        except HazardTransformError as exc:
            assert stack.errors[r] == type(exc).__name__
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
        assert stack.errors == ["GuardViolation"] * 5


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
    "name,n,size",
    [("relative_survival", 500, 8), ("survival", 5000, 3), ("survival", 20000, 1)],
)
def test_one_block_working_set_stays_within_the_cap(name, n, size):
    # The bench coverage scenario (relative_survival, n 500) takes full
    # blocks; a one-component state at large n takes fewer replications per
    # block instead of holding more of its long paths.  The traced peak of
    # one block (draws, datasets, drivers, the stacked solve and the band)
    # stays within 1.5 times the byte size of the study cap (0.88, 0.44 and
    # 0.61 times when written).
    kind, hazards = SYSTEMS[name]
    sc = Scenario(system=kind, hazards=hazards, n=n, seed=1, k_replications=size)
    assert simlab._block_size(kind, n) == size
    comp = kind.headline_index
    truth = oracle_parameter(hazards, kind).value_at(T_GRID)[:, comp]
    simlab._init_worker({
        "scenario": sc, "grid_step": None, "component": comp,
        "measure": simlab._covered, "z": NormalDist().inv_cdf(0.95),
        "t_grid": T_GRID, "oracle_values": truth,
    })
    seeds = [simlab._child_seed(1, 0, j) for j in range(size)]
    simlab._replicate((0, n, seeds))  # warm caches (piece tables, vech tensor)
    tracemalloc.start()
    try:
        results = simlab._replicate((0, n, seeds))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert [err for _, _, err in results] == [None] * size
    cap = simlab._STUDY_CELLS * 8
    assert peak <= 1.5 * cap, peak / cap
