"""The scans against per-jump loops, on random drivers that have ties across
components, zero increments and time grids.

State: the package has one kernel, ``plugin._states``, which solves a
triangular system (the six linear ones and ``ler``) row by row, each row a
product limit or a running sum, and steps any other one through the jumps,
with any batch of states stacked.  ``loop_states`` below is the jump-by-jump
reference for both; :func:`stepped` gives a system's copy no rows, which
sends it down the stepping branch, so the same system is solved both ways.
Covariance: the package has one solver, ``plugin._covariances``, which
solves the entries one at a time over all jumps, each a scalar affine
recurrence in the order of the Jacobian pattern, and steps a pattern with a
cycle through the jumps; ``loop_variance`` below is its jump-by-jump
reference.
"""

import os
import subprocess
import sys
import warnings
from dataclasses import replace
from pathlib import Path
from statistics import NormalDist

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import hazard_transform
from hazard_transform import plugin
from hazard_transform import (
    DriverMeta,
    EventDataset,
    EventRecord,
    GuardViolation,
    NegativeVarianceError,
    StepPath,
    SystemKind,
    bootstrap_covariance,
    confidence_band,
    driver_slots,
    estimate_driver,
    fit_plugin,
    make_system,
    solve_plugin,
    solve_variance,
)
from hazard_transform.systems import GUARD_EPS, ParameterSystem, _linear
from hazard_transform.simlab import _draws

from helpers import first_negative_variance, take_subjects

#: Largest deviation allowed between scan and loop, relative to the largest
#: magnitude in the loop's output.
RTOL = 1e-12

LINEAR_KINDS = [
    SystemKind("survival"),
    SystemKind("relative_survival"),
    SystemKind("rmst"),
    SystemKind("led"),
    SystemKind("cumulative_incidence", n_causes=3),
    SystemKind("mean_frequency"),
]

NONLINEAR_KINDS = [
    SystemKind("ler"),
    SystemKind("screening", prevalence=0.4, initial_value=[0.8, 0.7, 0.6, 0.5]),
]

KINDS = LINEAR_KINDS + NONLINEAR_KINDS

JUMP_COUNTS = [0, 1, 1023, 1024, 1025, 3077]


def random_driver(kind, m, rng):
    """Driver with m jumps: hazard increments in [0, 0.01) of which about 40%
    are zero (so some rows are all zero and others tie several components),
    and an exact Lebesgue column for each deterministic slot."""
    slots = driver_slots(kind)
    times = np.cumsum(rng.uniform(0.5, 1.5, size=m)) / max(m, 1)
    horizon = float(times[-1]) if m else 1.0
    increments = rng.uniform(0.0, 0.01, size=(m, len(slots)))
    increments *= rng.uniform(size=increments.shape) < 0.6
    mask = tuple(slot.deterministic for slot in slots)
    for c, deterministic in enumerate(mask):
        if deterministic:
            increments[:, c] = np.diff(times, prepend=0.0)
    driver = StepPath(
        times=times,
        increments=increments,
        origin_value=np.zeros(len(slots)),
        horizon=horizon,
    )
    meta = DriverMeta(
        scale_n=250,
        component_labels=tuple(slot.role for slot in slots),
        deterministic_mask=mask,
    )
    return driver, meta


def loop_states(system, driver, x0):
    """The state recursion of ``solve_plugin``, jump by jump:

    X_k = X_{k-1} + F(X_{k-1}) dA_k,

    the product summed over the driver columns in column order, and the
    guards checked at ``x0`` and after every step, so a violation is raised
    at the first failing time before any later step runs.  Returns the
    ``(m + 1, n)`` states, the first row ``x0``."""
    x = np.array(x0, dtype=float)
    system.check_guards(x, time=0.0)
    values = [x]
    for t, da in zip(driver.times, driver.increments):
        f, step = system.integrand(x), 0.0
        for j, d in enumerate(da):
            step = step + f[:, j] * d
        x = x + step
        system.check_guards(x, time=float(t))
        values.append(x)
    return np.array(values).reshape(-1, system.state_dim)


def loop_variance(system, driver, meta, state, v0):
    """The covariance recursion of ``solve_variance``, jump by jump:

    V_k = V_{k-1} + sum_j (G_j V + V G_j') dA^j_k + n f f',  f = F dA_stochastic,

    the transport applied one component at a time in column order, F and the
    G_j taken at the left limit X_{k-1}."""
    n = system.state_dim
    v = np.array(v0, dtype=float)
    stochastic = np.where(np.asarray(meta.deterministic_mask, dtype=bool), 0.0, 1.0)
    x_prev = state.origin_value
    out = np.empty((driver.n_jumps, n, n))
    for k, (da, x) in enumerate(zip(driver.increments, state.values_at_jumps())):
        f = system.integrand(x_prev)
        for j in np.flatnonzero(da):
            gv = system.gradients[j](x_prev) @ v
            v = v + (gv + gv.T) * da[j]
        fda = f @ (da * stochastic)
        v = v + meta.scale_n * np.outer(fda, fda)
        out[k] = v
        x_prev = x
    return out


def stepped(system):
    """A copy of ``system`` whose derived rows are None: the state kernel
    steps it jump by jump."""
    copy = replace(system)
    vars(copy)["_rows"] = None
    return copy


def interior_x0(system, rng):
    # ler's baseline R1 = R2 = 0 sits on its guard; move every start inside.
    return system.initial_value + rng.uniform(0.0, 0.2, size=system.state_dim)


def assert_close(scan, loop):
    scale = np.abs(loop).max(initial=1.0)
    np.testing.assert_allclose(scan, loop, rtol=0.0, atol=RTOL * scale)


@pytest.mark.parametrize("m", JUMP_COUNTS)
@pytest.mark.parametrize("kind", KINDS, ids=lambda k: k.name)
def test_scan_matches_loop(kind, m):
    rng = np.random.default_rng([m, len(kind.name)])
    scan_system = make_system(kind)
    step_system = stepped(scan_system)
    driver, meta = random_driver(kind, m, rng)
    n = scan_system.state_dim
    x0 = interior_x0(scan_system, rng)
    half = rng.normal(size=(n, n))
    v0 = half @ half.T

    loop = loop_states(scan_system, driver, x0)
    loop_state = StepPath.from_values(driver.times, loop, driver.horizon)
    # Stepping is the loop's own arithmetic on the running state: bitwise.
    step_state = solve_plugin(step_system, driver, x0_override=x0)
    step = np.vstack([step_state.origin_value, step_state.values_at_jumps()])
    assert_bitwise(step, loop)
    scan_state = solve_plugin(scan_system, driver, x0_override=x0)
    np.testing.assert_array_equal(scan_state.times, driver.times)
    np.testing.assert_array_equal(scan_state.origin_value, x0)
    assert_close(scan_state.values_at_jumps(), loop[1:])
    probe = np.linspace(0.0, driver.horizon, 17)
    assert_close(scan_state.value_at(probe), loop_state.value_at(probe))

    scan_cov = solve_variance(scan_system, driver, meta, scan_state, v0=v0)
    loop_cov = loop_variance(scan_system, driver, meta, loop_state, v0)
    assert scan_cov.shape == (m, n, n)
    np.testing.assert_array_equal(scan_cov, scan_cov.transpose(0, 2, 1))
    assert_close(scan_cov, loop_cov)


#: The systems the row solver takes: the six linear ones and ler.
ROW_KINDS = LINEAR_KINDS + [NONLINEAR_KINDS[0]]


@settings(derandomize=True, database=None, deadline=None, max_examples=120)
@given(
    kind=st.sampled_from(ROW_KINDS),
    m=st.integers(0, 60),
    batch=st.lists(st.integers(1, 3), max_size=2).map(tuple),
    zero=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
@example(kind=SystemKind("survival"), m=5, batch=(2,), zero=True, seed=1)
@example(kind=NONLINEAR_KINDS[0], m=40, batch=(3, 2), zero=True, seed=2)
def test_row_solver_matches_the_loop(kind, m, batch, zero, seed):
    # Each batch entry has its own driver (hazard ties, zero rows and an
    # exact time grid for each time slot) and its own start.  With ``zero``,
    # one hazard increment of the last row is 1: the last subject's risk set
    # fails at once, and a product row reading that hazard alone steps to
    # exactly 0.  The row solver agrees with the loop under the scan rule,
    # and an entry solved in the stack gets its solo states bit for bit.
    system = make_system(kind)
    rng = np.random.default_rng(seed)
    entries = list(np.ndindex(batch))
    drivers = [random_driver(kind, m, rng)[0] for _ in entries]
    starts = [interior_x0(system, rng) for _ in entries]
    hazard = [j for j, slot in enumerate(driver_slots(kind)) if not slot.deterministic]
    if zero and m:
        for driver in drivers:
            driver.increments[-1, rng.choice(hazard)] = 1.0
    increments = np.stack([d.increments for d in drivers], axis=1)
    increments = increments.reshape(m, *batch, system.driver_dim)
    x0 = np.reshape(starts, (*batch, system.state_dim))
    stacked = plugin._states(system, increments, x0)
    assert stacked.shape == (m + 1, *batch, system.state_dim)
    for e, driver, start in zip(entries, drivers, starts):
        solo = plugin._states(system, driver.increments, start)
        assert_bitwise(stacked[(slice(None), *e)], solo)
        assert_close(solo, loop_states(system, driver, start))


def test_a_failed_risk_set_zeroes_the_product_row():
    # Kaplan-Meier as the product limit: the hazards of the second jump sum
    # to 1 (the last subject's risk set fails), so 1 - dA = 0 there and every
    # survival row from it on is exactly 0, as jump by jump.
    for kind in (SystemKind("survival"), SystemKind("cumulative_incidence", n_causes=3)):
        system = make_system(kind)
        k = system.driver_dim
        increments = np.full((4, k), 0.25)
        increments[1, 0] = 1.0 - 0.25 * (k - 1)
        driver = StepPath(np.arange(1.0, 5.0), increments, np.zeros(k), 5.0)
        states = plugin._states(system, increments, system.initial_value)
        loop = loop_states(system, driver, system.initial_value)
        np.testing.assert_array_equal(states[2:, 0], 0.0)
        np.testing.assert_array_equal(loop[2:, 0], 0.0)
        assert_close(states, loop)


def ler_driver(m, overshoot):
    """ler on ``m`` unit-spaced jumps of the time grid with hazard 2 at
    ``overshoot`` at the third jump: S2 falls to ``1 - overshoot``."""
    times = np.arange(1, m + 1) / m
    increments = np.zeros((m, 3))
    increments[:, 0] = 1.0 / m
    increments[:, 1] = 0.01
    increments[2, 2] = overshoot
    return StepPath(times, increments, np.zeros(3), horizon=1.0)


@pytest.mark.parametrize("r2", [0.0, 0.05])
def test_ler_guard_trip_matches_the_loop(r2):
    # From R2 = 0 the path trips at time 0.  From 0.05, S2 overshoots to -2
    # at the third jump and R2, its running integral, falls through the
    # guard three jumps later.  The row solver reports the loop's trip, alone
    # and in a stack beside a clean path, without a warning.
    system = make_system("ler")
    x0 = np.array([1.0, 1.0, 1.0, 0.05, r2])
    driver = ler_driver(40, 3.0)
    with pytest.raises(GuardViolation) as want:
        loop_states(system, driver, x0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(GuardViolation) as got:
            solve_plugin(system, driver, x0_override=x0)
        clean = ler_driver(40, 0.5)
        increments = np.stack([clean.increments, driver.increments], axis=1)
        states = plugin._states(system, increments, np.stack([x0 + 0.1, x0]))
    times = np.concatenate([[0.0], driver.times])
    trips = system._guard_trips(times[:, None], states)
    trip = (want.value.component, want.value.time)
    assert trip == ("rmst_2", 0.0 if r2 == 0.0 else driver.times[5])
    assert (got.value.component, got.value.time) == trip
    assert trips[0] is None
    assert (trips[1].component, trips[1].time) == trip
    assert type(trips[1]) is type(got.value) is GuardViolation


def test_nearly_symmetric_v0_is_rejected_by_both_solvers():
    # A 4e-6 asymmetry passes np.allclose's default rtol; the scan reads only
    # the upper triangle while a jump-by-jump recursion carries the asymmetry,
    # so the two would disagree.  Symmetry is required exactly, after either
    # state solver.
    kind = SystemKind("rmst")
    driver, meta = random_driver(kind, 10, np.random.default_rng(3))
    v0 = [[1.0, 0.5], [0.5 + 4e-6, 1.0]]
    scan_system = make_system(kind)
    for system in (scan_system, stepped(scan_system)):
        state = solve_plugin(system, driver)
        with pytest.raises(ValueError, match="v0 must be a symmetric n x n matrix"):
            solve_variance(system, driver, meta, state, v0=v0)
        with pytest.raises(ValueError, match="v0 must be a symmetric n x n matrix"):
            fit_plugin(system, driver, meta, v0=v0)
    symmetric = [[1.0, 0.5], [0.5, 1.0]]
    assert fit_plugin(scan_system, driver, meta, v0=symmetric).cov_path.shape == (10, 2, 2)


def test_solver_choice_follows_the_derived_rows(monkeypatch):
    # The six linear systems and ler take the row solver with rows derived
    # from their gradients, and screening steps.  The rows pick the state
    # kernel's branch and nothing else: the covariance is the same
    # computation without them.
    solved = []
    solve_row = plugin._solve_row
    monkeypatch.setattr(
        plugin, "_solve_row", lambda s, i, *a: solved.append(i) or solve_row(s, i, *a)
    )
    rows = {
        "survival": [0],
        "relative_survival": [0, 1, 2],
        "rmst": [1, 0],
        "led": [1, 2, 0],
        "ler": [1, 2, 3, 4, 0],
        "cumulative_incidence": [0, 1, 2, 3],
        "mean_frequency": [1, 0],
        "screening": [],
    }
    rng = np.random.default_rng(11)
    for kind in KINDS:
        system = make_system(kind)
        # A linear system's Jacobians are constant (finite at a NaN state)
        # and read-only.
        n = system.state_dim
        nan, x = np.full(n, np.nan), np.linspace(0.2, 0.9, n)
        linear = [np.isfinite(g(nan)).all() for g in system.gradients]
        assert all(linear) == (kind in LINEAR_KINDS)
        for gradient in system.gradients if all(linear) else ():
            np.testing.assert_array_equal(gradient(x), gradient(nan))
            assert not gradient(x).flags.writeable
        driver, meta = random_driver(kind, 50, rng)
        x0 = interior_x0(system, rng)
        solved.clear()
        state = solve_plugin(system, driver, x0_override=x0)
        assert solved == rows[kind.name]
        solved.clear()
        solve_plugin(stepped(system), driver, x0_override=x0)
        assert not solved
        np.testing.assert_array_equal(
            solve_variance(stepped(system), driver, meta, state),
            solve_variance(system, driver, meta, state),
        )


@pytest.mark.parametrize("kind", KINDS, ids=lambda k: k.name)
def test_stacked_states_evaluate_like_single_states(kind):
    # The covariance solver evaluates a block of states in one call; it must
    # see exactly what a state-by-state evaluation gives.
    system = make_system(kind)
    n = system.state_dim
    states = np.random.default_rng(len(kind.name)).uniform(0.1, 1.0, size=(2, 6, n))
    rows = states.reshape(-1, n)
    want = np.stack([system.integrand(x) for x in rows]).reshape(2, 6, n, -1)
    assert_bitwise(system.integrand(states), want)
    for gradient in system.gradients:
        want = np.stack([gradient(x) for x in rows]).reshape(2, 6, n, n)
        assert_bitwise(np.broadcast_to(gradient(states), want.shape), want)


def assert_bitwise(got, want):
    assert got.shape == want.shape
    assert np.ascontiguousarray(got).tobytes() == np.ascontiguousarray(want).tobytes()


def test_integrand_columns_are_the_jacobians_applied_to_the_state():
    rng = np.random.default_rng(5)
    for kind in LINEAR_KINDS:
        system = make_system(kind)
        x = rng.uniform(0.1, 1.0, size=system.state_dim)
        f = system.integrand(x)
        for j, gradient in enumerate(system.gradients):
            g = gradient(np.full(system.state_dim, np.nan))
            np.testing.assert_array_equal(f[:, j], g @ x)
            np.testing.assert_array_equal(gradient(x), g)


@pytest.mark.parametrize("m", [5, 3077])
def test_guard_violation_is_raised_at_the_first_failing_time(m):
    # A guarded linear system: survival may not fall to 0.5.  Both branches
    # of the state kernel must stop where the loop does, with its component.
    scan_system = replace(make_system("survival"), guards=((0, 0.5),))
    step_system = stepped(scan_system)
    times = np.arange(1, m + 1) / m
    increments = np.full((m, 1), 1.5 / m)
    driver = StepPath(times, increments, np.zeros(1), horizon=1.0)
    with pytest.raises(GuardViolation) as scan_err:
        solve_plugin(scan_system, driver)
    with pytest.raises(GuardViolation) as step_err:
        solve_plugin(step_system, driver)
    with pytest.raises(GuardViolation) as loop_err:
        loop_states(scan_system, driver, scan_system.initial_value)
    assert step_err.value.time == loop_err.value.time
    assert step_err.value.value == loop_err.value.value
    assert scan_err.value.time == loop_err.value.time
    assert scan_err.value.component == loop_err.value.component == "survival"
    assert scan_err.value.value <= 0.5


SCREENING = NONLINEAR_KINDS[1]


def test_screening_guard_trip_matches_the_loop():
    # A negative-group increment of 1 takes cum_npv to exactly 0, and every
    # later step divides by it.  The kernel steps on through those rows
    # without a warning; the path check must report the loop's first trip.
    system = make_system(SCREENING)
    m = 8
    times = np.arange(1, m + 1) / m
    increments = np.full((m, 2), 0.05)
    increments[3, 1] = 1.0
    driver = StepPath(times, increments, np.zeros(2), horizon=1.0)
    with pytest.raises(GuardViolation) as want:
        loop_states(system, driver, system.initial_value)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(GuardViolation) as got:
            solve_plugin(system, driver)
    assert (want.value.component, want.value.value, want.value.time) == (
        "cum_npv",
        0.0,
        times[3],
    )
    assert (got.value.component, got.value.value, got.value.time) == (
        want.value.component,
        want.value.value,
        want.value.time,
    )


def assert_stacked_covariances_equal_solo(system, drivers, starts, v0):
    """Solve the covariances of ``drivers`` from ``starts`` as a study block
    stacks them (each padded to the longest with zero increments, its last
    state repeated) and compare each entry's own rows with its solo solve
    from the same left limits, bit for bit."""
    m, k = max(d.n_jumps for d in drivers), system.driver_dim
    lefts = np.empty((m, len(drivers), system.state_dim))
    increments = np.zeros((m, len(drivers), k))
    for r, (driver, x0) in enumerate(zip(drivers, starts)):
        states = plugin._states(system, driver.increments, x0)
        lefts[:, r] = states[-1]
        lefts[: driver.n_jumps, r] = states[:-1]
        increments[: driver.n_jumps, r] = driver.increments
    scale = np.array([250.0, 40.0, 7.0, 1000.0])[: len(drivers)]
    n = system.state_dim
    cells = [(i, l) for i in range(n) for l in range(n)]
    stacked = plugin._covariances(
        system, lefts, increments, scale, np.ones(k), v0, cells
    )
    for r, driver in enumerate(drivers):
        m = driver.n_jumps
        solo = plugin._covariances(
            system, lefts[:m, r], driver.increments, scale[r], np.ones(k), v0, cells
        )
        assert_bitwise(stacked[:m, r], solo)


def test_stacked_screening_covariances_equal_solo_covariances():
    # Given the same left limits, each batch entry gets its solo covariances
    # bit for bit, whatever its length and start.
    system = make_system(SCREENING)
    rng = np.random.default_rng(7)
    drivers = [random_driver(SCREENING, m, rng)[0] for m in (40, 7, 0, 25)]
    starts = [rng.uniform(0.3, 0.9, size=4) for _ in drivers]
    assert_stacked_covariances_equal_solo(system, drivers, starts, np.zeros((4, 4)))


def illness_death():
    """Illness-death with recovery, states (healthy, ill) and drivers
    (onset, recovery): each state reads the other, so neither the states
    nor the covariances have a triangular order."""
    return _linear(
        "illness_death", ("healthy", "ill"), ("onset", "recovery"), [0.9, 0.1],
        {(0, 0): -1.0, (1, 0): 1.0}, {(0, 1): 1.0, (1, 1): -1.0},
    )


def test_cyclic_system_steps_its_covariances(monkeypatch):
    # The pattern's cycle sends the covariance down the jump-by-jump branch,
    # which scans nothing, agrees with the loop under the scan rule and gives
    # a stacked entry its solo covariances bit for bit.  Every catalog
    # system, screening included, scans its entries instead.
    scans = []
    prefix = plugin._prefix
    monkeypatch.setattr(plugin, "_prefix", lambda *a: scans.append(1) or prefix(*a))
    system = illness_death()
    assert system._rows is None
    rng = np.random.default_rng(13)
    meta = DriverMeta(250, ("onset", "recovery"), (False, False))
    half = rng.normal(size=(2, 2))
    v0 = half @ half.T
    drivers = []
    for m in (0, 1, 60, 500):
        times = np.cumsum(rng.uniform(0.5, 1.5, size=m)) / max(m, 1)
        increments = rng.uniform(0.0, 0.01, size=(m, 2))
        increments *= rng.uniform(size=increments.shape) < 0.6
        driver = StepPath(times, increments, np.zeros(2), 2.0)
        state = solve_plugin(system, driver)
        got = solve_variance(system, driver, meta, state, v0=v0)
        assert_close(got, loop_variance(system, driver, meta, state, v0))
        drivers.append(driver)
    starts = [system.initial_value + 0.01 * r for r in range(len(drivers))]
    assert_stacked_covariances_equal_solo(system, drivers, starts, v0)
    assert not scans
    for kind in KINDS:
        catalog = make_system(kind)
        driver, meta = random_driver(kind, 20, rng)
        fit_plugin(catalog, driver, meta, x0_override=interior_x0(catalog, rng))
        assert scans
        scans.clear()


#: The rows each catalog system derives from its gradients, as the six
#: linear systems once read them off their Jacobian tensor and ler once
#: declared them.
CATALOG_ROWS = {
    "survival": ((0, ((0, 0, -1.0),)),),
    "relative_survival": (
        (0, ((0, 0, -1.0),)),
        (1, ((1, 1, -1.0),)),
        (2, ((0, 2, -1.0), (1, 2, 1.0))),
    ),
    "rmst": ((1, ((1, 1, -1.0),)), (0, ((0, 1, 1.0),))),
    "led": ((1, ((1, 1, -1.0),)), (2, ((2, 2, -1.0),)), (0, ((0, 1, 1.0), (0, 2, -1.0)))),
    "ler": (
        (1, ((1, 1, -1.0),)),
        (2, ((2, 2, -1.0),)),
        (3, ((0, 1, 1.0),)),
        (4, ((0, 2, 1.0),)),
        (0, None),
    ),
    "cumulative_incidence": (
        (0, ((0, 0, -1.0), (1, 0, -1.0), (2, 0, -1.0))),
        (1, ((0, 0, 1.0),)),
        (2, ((1, 0, 1.0),)),
        (3, ((2, 0, 1.0),)),
    ),
    "mean_frequency": ((1, ((1, 1, -1.0),)), (0, ((0, 1, 1.0),))),
    "screening": None,
}


@pytest.mark.parametrize("kind", KINDS, ids=lambda k: k.name)
def test_derived_rows_are_the_catalog_rows(kind):
    assert make_system(kind)._rows == CATALOG_ROWS[kind.name]


def hand_built(integrand, *gradients, x0):
    """A system given only by its integrand and gradients."""
    n, k = len(x0), len(gradients)
    return ParameterSystem(
        name="hand_built",
        state_labels=tuple(f"x{i}" for i in range(n)),
        driver_labels=tuple(f"a{j}" for j in range(k)),
        initial_value=np.array(x0, dtype=float),
        integrand=integrand,
        gradients=gradients,
    )


def assert_matches_the_loop(system, m=300, seed=17):
    """Solve ``system`` on a random driver (ties and zero increments) and
    compare with the loop: bitwise when it steps, under the scan rule when
    its rows are solved; the covariances under the scan rule."""
    rng = np.random.default_rng(seed)
    k = system.driver_dim
    times = np.cumsum(rng.uniform(0.5, 1.5, size=m)) / max(m, 1)
    increments = rng.uniform(0.0, 0.01, size=(m, k))
    increments *= rng.uniform(size=increments.shape) < 0.6
    driver = StepPath(times, increments, np.zeros(k), float(times[-1]) if m else 1.0)
    meta = DriverMeta(250, system.driver_labels, (False,) * k)
    state = solve_plugin(system, driver)
    got = np.vstack([state.origin_value, state.values_at_jumps()])
    loop = loop_states(system, driver, system.initial_value)
    if system._rows is None:
        assert_bitwise(got, loop)
    assert_close(got, loop)
    loop_state = StepPath.from_values(driver.times, loop, driver.horizon)
    v0 = np.zeros((system.state_dim,) * 2)
    assert_close(
        solve_variance(system, driver, meta, state),
        loop_variance(system, driver, meta, loop_state, v0),
    )


def test_a_nonlinear_triangular_system_takes_the_row_solver():
    # S is a product limit; Q, the integral of S**2 over the second driver,
    # reads S through a cell that varies with the state, so its row reads
    # its integrand.
    def integrand(x):
        f = np.zeros(x.shape[:-1] + (2, 2))
        f[..., 0, 0] = -x[..., 0]
        f[..., 1, 1] = x[..., 0] * x[..., 0]
        return f

    def grad_1(x):
        g = np.zeros(x.shape[:-1] + (2, 2))
        g[..., 1, 0] = 2.0 * x[..., 0]
        return g

    system = hand_built(
        integrand, lambda x: np.array([[-1.0, 0.0], [0.0, 0.0]]), grad_1,
        x0=[1.0, 0.0],
    )
    assert system._rows == ((0, ((0, 0, -1.0),)), (1, None))
    assert_matches_the_loop(system)


def test_an_affine_offset_is_not_read_as_a_product_row():
    # F = 1 - x has the constant Jacobian -1 of a product row, x (1 - dA),
    # but its offset makes it x + (1 - x) dA: the system steps.  An affine
    # sum row, 1 + x_0, reads its integrand instead of its Jacobian cells.
    def offset_self(x):
        return (1.0 - x)[..., None]

    system = hand_built(offset_self, lambda x: np.array([[-1.0]]), x0=[0.5])
    assert system._rows is None
    assert_matches_the_loop(system)

    def offset_sum(x):
        f = np.zeros(x.shape[:-1] + (2, 1))
        f[..., 0, 0] = -x[..., 0]
        f[..., 1, 0] = 1.0 + x[..., 0]
        return f

    system = hand_built(
        offset_sum, lambda x: np.array([[-1.0, 0.0], [1.0, 0.0]]), x0=[1.0, 0.0]
    )
    assert system._rows == ((0, ((0, 0, -1.0),)), (1, None))
    assert_matches_the_loop(system)


@pytest.mark.parametrize("below", [-2.0, 0.0])
def test_a_piecewise_gradient_is_not_read_as_constant(below):
    # The cell is ``below`` at a NaN state (the comparison is False there)
    # and -1 at a state inside (0, 1): not constant, so the row is no product
    # limit, and the system steps.  With ``below`` 0 the cell is read at all
    # only at the second state.
    def integrand(x):
        return np.where(x > 0.0, -x, below * x)[..., None]

    def gradient(x):
        return np.where(x > 0.0, -1.0, below)[..., None]

    system = hand_built(integrand, gradient, x0=[0.8])
    assert system._rows is None
    assert_matches_the_loop(system)


def test_a_gradient_that_rejects_a_nan_state_makes_the_system_step():
    # The probe at the all-NaN state raises; the system steps instead of
    # failing its first solve, and agrees with the loop.
    def integrand(x):
        return -x[..., None]

    def gradient(x):
        if np.isnan(x).any():
            raise ValueError("the state must be finite")
        return np.array([[-1.0]])

    system = hand_built(integrand, gradient, x0=[0.8])
    assert system._rows is None
    assert_matches_the_loop(system)


COEFFICIENTS = st.sampled_from([-2.0, -1.0, -0.5, 0.25, 1.0, 3.0])


@st.composite
def linear_systems(draw):
    """A random linear system and whether it is triangular.

    Its states, taken in a random order, are product rows (reading only
    themselves), sum rows (reading only rows before them) or mixed rows
    (reading themselves and another row), each cell in a random driver
    column; with ``cycle``, the first two sum rows also read each other.  A
    draw is triangular when it has neither a mixed row nor a cycle."""
    n, k = draw(st.integers(1, 5)), draw(st.integers(1, 3))
    order = draw(st.permutations(range(n)))
    columns = [{} for _ in range(k)]
    column = st.integers(0, k - 1)
    mixed, sums = False, []
    for p, i in enumerate(order):
        kind = draw(st.sampled_from(["product", "sum", "mixed"]))
        others = order[:p] if kind == "sum" else [l for l in range(n) if l != i]
        if kind == "mixed" and not others:
            kind = "product"
        if kind != "sum":
            for j in draw(st.sets(column, min_size=1)):
                columns[j][i, i] = draw(COEFFICIENTS)
        if kind != "product":
            reads = draw(st.lists(st.sampled_from(others), unique=True,
                                  min_size=kind == "mixed")) if others else []
            for l in reads:
                columns[draw(column)][i, l] = draw(COEFFICIENTS)
        mixed |= kind == "mixed"
        sums += [i] if kind == "sum" else []
    cycle = len(sums) > 1 and draw(st.booleans())
    if cycle:
        a, b = sums[:2]
        columns[draw(column)][a, b] = draw(COEFFICIENTS)
        columns[draw(column)][b, a] = draw(COEFFICIENTS)
    x0 = draw(st.lists(st.floats(0.5, 1.5), min_size=n, max_size=n))
    labels = tuple(f"x{i}" for i in range(n)), tuple(f"a{j}" for j in range(k))
    return _linear("random", *labels, x0, *columns), not (mixed or cycle)


@settings(derandomize=True, database=None, deadline=None, max_examples=150)
@given(case=linear_systems(), m=st.integers(0, 40), seed=st.integers(0, 2**32 - 1))
def test_a_random_linear_system_takes_the_row_solver_when_triangular(case, m, seed):
    # A triangular draw is solved row by row, any other one steps; both
    # agree with the loop.
    system, triangular = case
    assert (system._rows is not None) == triangular
    assert_matches_the_loop(system, m, seed)


def entry_closure(system, lefts, asked):
    """The unordered entries ``asked`` and, recursively, those they read:
    ``(i, l)`` reads ``(r, l)`` through each Jacobian cell ``(i, r)`` and
    ``(i, r)`` through each cell ``(l, r)`` that is nonzero, or NaN,
    anywhere in the batch (a constant Jacobian's cells count even when
    there are no jumps)."""
    n = system.state_dim
    pattern = np.zeros((n, n), dtype=bool)
    for gradient in system.gradients:
        pattern |= (np.reshape(gradient(lefts), (-1, n, n)) != 0).any(axis=0)
    todo, closure = [tuple(sorted(e)) for e in asked], set()
    while todo:
        i, l = e = todo.pop()
        if e not in closure:
            closure.add(e)
            todo += [tuple(sorted((r, l))) for r in np.flatnonzero(pattern[i])]
            todo += [tuple(sorted((i, r))) for r in np.flatnonzero(pattern[l])]
    return closure


@settings(derandomize=True, database=None, deadline=None, max_examples=150)
@given(
    kind=st.sampled_from([*KINDS, None]),
    m=st.integers(0, 40),
    batch=st.lists(st.integers(1, 3), max_size=2).map(tuple),
    asked=st.lists(st.tuples(st.integers(0, 4), st.integers(0, 4)), max_size=6),
    seed=st.integers(0, 2**32 - 1),
)
@example(kind=SystemKind("relative_survival"), m=30, batch=(3,),
         asked=[(0, 0), (1, 1), (2, 2)], seed=3)
@example(kind=NONLINEAR_KINDS[0], m=25, batch=(2, 2), asked=[(4, 1)], seed=4)
@example(kind=SCREENING, m=25, batch=(2,), asked=[(3, 3)], seed=5)
@example(kind=SystemKind("led"), m=20, batch=(2,),
         asked=[(0, 1), (1, 0), (0, 1), (2, 2)], seed=6)
@example(kind=SystemKind("rmst"), m=10, batch=(2, 3), asked=[], seed=7)
@example(kind=None, m=30, batch=(3,), asked=[(1, 0), (0, 1), (1, 1), (1, 1)], seed=8)
@example(kind=None, m=5, batch=(), asked=[], seed=9)
def test_asked_entries_are_the_full_solve_and_nothing_else(
    kind, m, batch, asked, seed
):
    # A stack of drivers from interior starts (ler's natural one is on its
    # guard), or of the cyclic illness-death system (kind None), which
    # steps: the solve returns one column per cell asked, in order, repeats
    # and both orientations included, each the full solve's cell bit for
    # bit.  A pattern with an order runs one outermost scan per entry of
    # the cells' closure, and a study block is charged for at least that
    # many entries.
    system = illness_death() if kind is None else make_system(kind)
    n, k = system.state_dim, system.driver_dim
    rng = np.random.default_rng(seed)
    asked = [(i % n, l % n) for i, l in asked]
    if kind is None:
        increments = rng.uniform(0.0, 0.01, size=(m, *batch, k))
        stochastic = np.ones(k)
    else:
        drivers = [random_driver(kind, m, rng) for _ in np.ndindex(batch)]
        increments = np.stack([d.increments for d, _ in drivers], axis=1)
        increments = increments.reshape(m, *batch, k)
        stochastic = np.where(drivers[0][1].deterministic_mask, 0.0, 1.0)
    x0 = np.reshape([interior_x0(system, rng) for _ in np.ndindex(batch)], (*batch, n))
    lefts = plugin._states(system, increments, x0)[:-1]
    scale = rng.uniform(10.0, 500.0, size=batch)
    half = rng.normal(size=(n, n))
    args = system, lefts, increments, scale, stochastic, half @ half.T
    every = [(i, l) for i in range(n) for l in range(n)]
    full = plugin._covariances(*args, every).reshape(m, *batch, n, n)
    outermost, depth = [], [0]
    prefix = plugin._prefix

    def counted(*a):
        outermost.append(depth[0] == 0)
        depth[0] += 1
        try:
            return prefix(*a)
        finally:
            depth[0] -= 1

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(plugin, "_prefix", counted)
        some = plugin._covariances(*args, asked)
    assert some.shape == (m, *batch, len(asked))
    for c, (i, l) in enumerate(asked):
        assert_bitwise(some[..., c], full[..., i, l])
    closure = entry_closure(system, lefts, asked)
    charged = plugin._entry_closure(system._reads, asked)
    assert sum(outermost) == (0 if kind is None else len(closure))
    assert len(closure) <= len(charged)


def screening_trips(seed, b=30):
    """12 screening subjects and the guard trip of each of ``b`` bootstrap
    resamples, ``(component, value, time)`` or None, from the loop.

    Group 0 (test-negative) ends with two late censorings; a resample that
    draws neither has a last group-0 risk set that all fail, an increment of
    1 that takes cum_npv to 0.
    """
    exit_ = [0.1, 0.2, 0.3, 0.4, 0.8, 0.9, 0.15, 0.25, 0.35, 0.45, 0.55, 0.65]
    code = [1, 1, 1, 1, 0, 0, 1, 1, 1, 1, 1, 0]
    ds = EventDataset.from_columns(
        np.arange(12), np.zeros(12), exit_, code, 1.0, group=[0] * 6 + [1] * 6
    )
    system = make_system(SCREENING)
    trips = []
    for idx in _draws(ds, seed, b):
        driver, _ = estimate_driver(take_subjects(ds, idx), SCREENING)
        try:
            loop_states(system, driver, system.initial_value)
        except GuardViolation as err:
            trips.append((err.component, err.value, err.time))
        else:
            trips.append(None)
    return ds, trips


def test_bootstrap_guard_trip_is_the_lowest_resample():
    # Per-resample loops find the trips; the stacked bootstrap must raise for
    # the lowest of them.
    b, seed = 30, 22
    ds, trips = screening_trips(seed, b)
    found = [trip for trip in trips if trip is not None]
    # The lowest trip is not resample 0, and no other trip looks like it.
    assert trips[0] is None and found.count(found[0]) == 1 < len(found)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(GuardViolation) as got:
            bootstrap_covariance(ds, SCREENING, b=b, seed=seed)
    assert (got.value.component, got.value.value, got.value.time) == found[0]
    lowest = next(r for r, trip in enumerate(trips) if trip is not None)
    assert str(got.value).startswith(f"bootstrap resample {lowest}: guard violation")


def test_bootstrap_guard_message_names_the_lowest_resample():
    # With seed 4, resamples 8, 16, 18 and 27 all take cum_npv to 0 at
    # t = 0.4: only the message tells the lowest trip from the others.
    ds, trips = screening_trips(4)
    trip = ("cum_npv", 0.0, 0.4)
    assert trips == [trip if r in (8, 16, 18, 27) else None for r in range(30)]
    with pytest.raises(GuardViolation) as got:
        bootstrap_covariance(ds, SCREENING, b=30, seed=4)
    assert (got.value.component, got.value.value, got.value.time) == trip
    assert str(got.value) == (
        "bootstrap resample 8: guard violation at time 0.4: component 'cum_npv' "
        "= 0 is outside its admissible range"
    )


def test_guard_is_checked_at_the_initial_state():
    system = replace(make_system("survival"), guards=((0, 0.5),))
    driver = StepPath([0.5], [[0.1]], np.zeros(1), horizon=1.0)
    with pytest.raises(GuardViolation) as err:
        solve_plugin(system, driver, x0_override=[0.4])
    assert err.value.time == 0.0


#: Few distinct values, so that times tie within and across subjects.
TIMES = st.sampled_from([0.1, 0.25]) | st.floats(0.01, 1.0)


@st.composite
def small_samples(draw):
    """Survival (whose variance can turn negative) or screening (whose
    cum_ppv and cum_npv are guarded), with a few subjects: tied times, one
    or two spells each, delayed entry that can leave a risk set empty before
    a later entry (a frozen driver), and whole risk sets failing at once."""
    kind = draw(st.sampled_from([SystemKind("survival"), SCREENING]))
    groups = (1, 0) if kind.name == "screening" else (None,)
    records = []
    for s in range(draw(st.integers(len(groups), 6))):
        entry = draw(st.sampled_from([0.0, 0.0, 0.2, 0.5]))
        for _ in range(draw(st.integers(1, 2))):
            exit_time = entry + draw(TIMES)
            code = draw(st.integers(0, 1))
            group = groups[s % len(groups)]
            records.append(EventRecord(f"s{s}", entry, exit_time, code, group))
            entry = exit_time
    horizon = max(r.exit_time for r in records) + draw(st.sampled_from([0.0, 0.5]))
    return kind, EventDataset(records, horizon=horizon)


@settings(derandomize=True, database=None, deadline=None, max_examples=200)
@given(small_samples())
def test_small_sample_failures_are_typed_and_never_clamped(case):
    # A guard trip is the loop's: its first failing time, component and
    # value (not the bound).  Without one, the state is the loop's and the
    # covariance diagonal is the loop's, negative entries kept; a band then
    # raises NegativeVarianceError for the first component that has any,
    # listing every time it is negative, or is built from the diagonal as is.
    kind, ds = case
    system = make_system(kind)
    driver, meta = estimate_driver(ds, kind)
    try:
        states = loop_states(system, driver, system.initial_value)
    except GuardViolation as want:
        with pytest.raises(GuardViolation) as got:
            fit_plugin(system, driver, meta)
        trip = (got.value.component, got.value.time, got.value.value)
        assert trip == (want.component, want.time, want.value)
        return
    fit = fit_plugin(system, driver, meta)
    path = fit.state_path
    assert_close(np.vstack([path.origin_value, path.values_at_jumps()]), states)
    loop = loop_variance(system, driver, meta, fit.state_path, fit.v0)
    diag = fit.cov_diag()
    assert_close(diag[1:], np.einsum("kii->ki", loop))
    times = np.concatenate([[0.0], fit.times])
    negative = [
        (label, times[diag[:, i] < 0])
        for i, label in enumerate(system.state_labels)
        if (diag[:, i] < 0).any()
    ]
    if negative:
        with pytest.raises(NegativeVarianceError) as got:
            confidence_band(fit, 0.9)
        label, bad = negative[0]
        assert got.value.component == label
        assert got.value.times == bad.tolist()
    else:
        band = confidence_band(fit, 0.9)
        half = NormalDist().inv_cdf(0.95) * np.sqrt(diag / fit.scale_n)
        np.testing.assert_array_equal(band.lower, band.point - half)
        np.testing.assert_array_equal(band.upper, band.point + half)


#: Screening with three guards out of index order, two of them on one
#: component, so a row can fail several at once.
GUARDED = replace(
    make_system(SCREENING), guards=((2, 0.5), (0, 0.25), (1, GUARD_EPS), (2, 0.25))
)
FAILURE_SYSTEMS = {"screening": make_system(SCREENING), "guarded": GUARDED}
FAILURE_SYSTEMS["unguarded"] = make_system("led")

#: The guard bounds, values either side of them, and NaN.
STATE_VALUES = st.sampled_from(
    [0.25, 0.5, GUARD_EPS, 0.0, -1.0, 0.75, np.nextafter(0.5, 1.0), np.nan]
)
VARIANCE_VALUES = st.sampled_from([-1.0, -1e-300, -0.0, 0.0, 0.5, np.nan])


@st.composite
def failure_batches(draw):
    """A system name, states ``(m, *batch, n)`` and variance diagonals of the
    same shape, their times (one per row, or one per row and entry) and
    the rows each entry keeps (None: all)."""
    name = draw(st.sampled_from(sorted(FAILURE_SYSTEMS)))
    n = FAILURE_SYSTEMS[name].state_dim
    batch = tuple(draw(st.lists(st.integers(0, 3), max_size=2)))
    m = draw(st.integers(1, 5))
    states = draw(hnp.arrays(float, (m, *batch, n), elements=STATE_VALUES))
    diag = draw(hnp.arrays(float, (m, *batch, n), elements=VARIANCE_VALUES))
    shared = draw(st.booleans())
    times_shape = (m, *(1 if shared else b for b in batch))
    times = draw(hnp.arrays(float, times_shape, elements=st.floats(0.0, 10.0)))
    rows = draw(st.none() | hnp.arrays(np.intp, batch, elements=st.integers(0, m)))
    return name, states, diag, times, rows


def record(err):
    if err is None:
        return None
    fields = ("component", "value", "time", "times")
    return type(err), str(err), [getattr(err, f, None) for f in fields]


def loop_guard_trip(system, times, states):
    """``check_guards`` row by row: the first error, or None."""
    for t, x in zip(times, states):
        try:
            system.check_guards(x, time=float(t))
        except GuardViolation as err:
            return err
    return None


SCREENING_X = [0.8, 0.7, 0.6, 0.5]


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(failure_batches())
# Row 1 fails both screening guards: cum_ppv, the first, is reported.
@example(("screening", np.array([[SCREENING_X], [[0.0, GUARD_EPS, 0.6, 0.5]]]),
          np.zeros((2, 1, 4)), np.array([[0.5], [1.0]]), None))
# A NaN row trips nothing; the row on a bound after it does.
@example(("guarded", np.array([[np.nan] * 4, [0.75, 0.75, 0.5, 0.75]]),
          np.full((2, 4), np.nan), np.array([0.5, 1.0]), None))
# The second entry keeps one row, which hides its trip and negative variance.
@example(("screening", np.array([[SCREENING_X] * 2, [SCREENING_X, [0.0] * 4]]),
          np.array([[[0.0] * 4] * 2, [[-1.0] * 4] * 2]), np.array([[0.5], [1.0]]),
          np.array([2, 1])))
def test_failure_kernels_equal_the_row_loops(case):
    # The guard kernel against check_guards on every kept row of each entry,
    # and the negative-variance kernel against the per-component loop on the
    # same rows: same error type, fields and message, or None, per entry.
    name, states, diag, times, rows = case
    system = FAILURE_SYSTEMS[name]
    batch = states.shape[1:-1]
    times_full = np.broadcast_to(times, states.shape[:-1])
    trips = system._guard_trips(times, states, rows)
    negatives = plugin._negative_variances(times, diag, system.state_labels, rows)
    entries = list(np.ndindex(batch))
    assert len(trips) == len(negatives) == len(entries)
    labels = system.state_labels
    for trip, negative, e in zip(trips, negatives, entries):
        kept = (slice(None if rows is None else rows[e]), *e)
        want = loop_guard_trip(system, times_full[kept], states[kept])
        assert record(trip) == record(want)
        want = first_negative_variance(times_full[kept], diag[kept], labels)
        assert record(negative) == record(want)


# ---------------------------------------------------------------------------
# The cold import: what ``import hazard_transform`` loads, and the BLAS thread
# cap of a command-line process.

#: Any of these set by the user turns the cap off.
THREAD_VARS = (
    "OPENBLAS_NUM_THREADS",
    "GOTO_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
)
CAPPED = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


@pytest.fixture
def child_env(child_pythonpath, monkeypatch):
    """Children import the suite's package with no BLAS thread variable set."""
    for name in THREAD_VARS:
        monkeypatch.delenv(name, raising=False)


def run_child(code, *args, **env):
    """Run ``code`` in a fresh ``python -c`` with ``args`` after it and
    ``env`` added to the environment; fail on a nonzero exit."""
    proc = subprocess.run(
        [sys.executable, "-c", code, *args],
        env=dict(os.environ, **env),
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr


def assert_import_does_not_load(*modules, importing="hazard_transform"):
    src = str(Path(hazard_transform.__file__).resolve().parents[1])
    run_child(
        f"import sys, {importing}, hazard_transform; "
        "assert hazard_transform.__file__.startswith(sys.argv[1]); "
        "loaded = sorted(m for m in sys.modules for p in sys.argv[2:] "
        "if m == p or m.startswith(p + '.')); "
        "assert not loaded, loaded",
        src,
        *modules,
    )


@pytest.mark.usefixtures("child_env")
def test_import_does_not_load_scipy():
    assert_import_does_not_load("scipy")


@pytest.mark.usefixtures("child_env")
def test_import_does_not_load_process_pools():
    # Only a study run with n_jobs > 1 needs them.
    assert_import_does_not_load("concurrent", "multiprocessing")


@pytest.mark.usefixtures("child_env")
def test_import_loads_numpy_but_not_the_simulation_lab():
    # An ``estimate`` call never needs simlab.  NumPy stays eager: the
    # benchmark's import probe reads sys.modules["numpy"] right after the
    # import.
    assert_import_does_not_load("hazard_transform.simlab")
    run_child("import sys, hazard_transform; assert 'numpy' in sys.modules")


@pytest.mark.usefixtures("child_env")
def test_the_command_line_does_not_load_the_simulation_lab():
    # Every ``estimate`` call imports the CLI; only the study commands read
    # simlab's hazard forms, and they import it where they run.
    assert_import_does_not_load("hazard_transform.simlab", importing="hazard_transform.cli")


@pytest.mark.usefixtures("child_env")
def test_every_public_name_resolves_from_a_cold_import():
    run_child(
        "import sys, hazard_transform as h\n"
        "lab = 'hazard_transform.simlab'\n"
        "assert set(h.__all__) | {'simlab'} <= set(dir(h))\n"
        "assert lab not in sys.modules\n"
        "star = {}\n"
        "exec('from hazard_transform import *', star)\n"
        "assert set(h.__all__) <= set(star)\n"
        "assert h.simlab is sys.modules[lab]\n"
        "for name in h.__all__:\n"
        "    assert getattr(h, name) is star[name], name\n"
        "    if name in h._SIMLAB_NAMES:\n"
        "        assert getattr(h, name) is getattr(h.simlab, name), name\n"
        "assert not hasattr(h, 'no_such_name')\n"
    )
    run_child(
        "import sys, hazard_transform\n"
        "assert hazard_transform.simlab.__name__ == 'hazard_transform.simlab'\n"
        "assert hazard_transform.Scenario is hazard_transform.simlab.Scenario\n"
    )


def test_public_names_are_the_union_of_the_module_lists():
    # The package declares no public name of its own: the lazy simlab names
    # must match simlab's list, and the rest come from the eager modules.
    from hazard_transform import errors, events, hazards, paths, simlab, systems

    assert set(hazard_transform._SIMLAB_NAMES) == set(simlab.__all__)
    modules = (errors, paths, events, systems, hazards, plugin, simlab)
    union = {name for module in modules for name in module.__all__}
    assert set(hazard_transform.__all__) == union | {"__version__"}
    assert len(hazard_transform.__all__) == len(set(hazard_transform.__all__))


@pytest.mark.parametrize(
    "argv, capped",
    [
        (["-m", "estimate"], True),
        (["/usr/local/bin/hazard-transform", "estimate"], True),
        (["hazard-transform"], True),
        (["-c"], False),
        ([""], False),
        ([], False),
        (["/usr/local/bin/pytest", "tests"], False),
        (["study.py"], False),
        (["/opt/hazard-transform/run.py"], False),
    ],
)
def test_blas_threads_are_capped_only_for_cli_argv(argv, capped):
    environ = {"PATH": "/bin"}
    hazard_transform._single_blas_thread_for_cli(argv, environ)
    assert environ == (dict(CAPPED, PATH="/bin") if capped else {"PATH": "/bin"})


@pytest.mark.parametrize("name", THREAD_VARS)
def test_any_thread_variable_set_by_the_user_disables_the_cap(name):
    environ = {name: "4"}
    hazard_transform._single_blas_thread_for_cli(["-m"], environ)
    assert environ == {name: "4"}


#: Records the BLAS thread variables in force when NumPy starts to load.
SPY_ON_NUMPY = (
    "import os, sys\n"
    "VARS = {vars!r}\n"
    "class Spy:\n"
    "    def find_spec(self, name, path=None, target=None):\n"
    "        if name == 'numpy':\n"
    "            seen.append({{v: os.environ[v] for v in VARS if v in os.environ}})\n"
    "seen = []\n"
    "sys.meta_path.insert(0, Spy())\n"
).format(vars=THREAD_VARS)


@pytest.mark.usefixtures("child_env")
def test_a_cli_process_caps_blas_threads_before_numpy_loads():
    # ``python -m hazard_transform.cli`` imports the package while
    # sys.argv[0] is "-m".
    run_child(
        SPY_ON_NUMPY
        + "sys.argv[:1] = ['-m']\n"
        + "import hazard_transform\n"
        + f"assert seen == [{CAPPED!r}], seen\n"
        + "assert os.environ['OPENBLAS_NUM_THREADS'] == '1'\n"
    )


@pytest.mark.usefixtures("child_env")
@pytest.mark.parametrize("name", ["OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"])
def test_a_thread_variable_set_by_the_user_survives_a_cli_import(name):
    run_child(
        SPY_ON_NUMPY
        + "sys.argv[:1] = ['-m']\n"
        + "import hazard_transform\n"
        + f"assert seen == [{{{name!r}: '2'}}], seen\n",
        **{name: "2"},
    )


@pytest.mark.usefixtures("child_env")
def test_a_library_import_leaves_the_environment_alone():
    run_child(
        "import os\n"
        "before = dict(os.environ)\n"
        "import hazard_transform\n"
        "assert dict(os.environ) == before\n"
    )
