"""The scans against per-jump loops, on random drivers that have ties across
components, zero increments and time grids.

State: the package has one kernel, ``plugin._states``, which scans the
product integral of a linear system and steps a nonlinear one through the
jumps with any batch of states stacked.  ``loop_states`` below is the
jump-by-jump reference for both; a linear system with ``jacobians=None`` takes
the stepping branch, so the same system is solved both ways.  Covariance: the
package has one solver, the vech scan, for every system; ``loop_variance``
below is its jump-by-jump reference.
"""

import os
import subprocess
import sys
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import hazard_transform
from hazard_transform import plugin
from hazard_transform import (
    DriverMeta,
    EventDataset,
    GuardViolation,
    StepPath,
    SystemKind,
    bootstrap_covariance,
    driver_slots,
    estimate_driver,
    fit_plugin,
    make_system,
    solve_plugin,
    solve_variance,
)
from hazard_transform.plugin import SCAN_CHUNK
from hazard_transform.simlab import _draws

from helpers import take_subjects

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

JUMP_COUNTS = [0, 1, SCAN_CHUNK - 1, SCAN_CHUNK, SCAN_CHUNK + 1, 3 * SCAN_CHUNK + 5]


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

    the guards checked at ``x0`` and after every step, so a violation is
    raised at the first failing time before any later step runs.  Returns the
    ``(m + 1, n)`` states, the first row ``x0``."""
    x = np.array(x0, dtype=float)
    system.check_guards(x, time=0.0)
    values = [x]
    for t, da in zip(driver.times, driver.increments):
        x = x + system.integrand(x) @ da
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
    step_system = replace(scan_system, jacobians=None)
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


def test_nearly_symmetric_v0_is_rejected_by_both_solvers():
    # A 4e-6 asymmetry passes np.allclose's default rtol; the scan reads only
    # the upper triangle while a jump-by-jump recursion carries the asymmetry,
    # so the two would disagree.  Symmetry is required exactly, after either
    # state solver.
    kind = SystemKind("rmst")
    driver, meta = random_driver(kind, 10, np.random.default_rng(3))
    v0 = [[1.0, 0.5], [0.5 + 4e-6, 1.0]]
    scan_system = make_system(kind)
    for system in (scan_system, replace(scan_system, jacobians=None)):
        state = solve_plugin(system, driver)
        with pytest.raises(ValueError, match="v0 must be a symmetric n x n matrix"):
            solve_variance(system, driver, meta, state, v0=v0)
        with pytest.raises(ValueError, match="v0 must be a symmetric n x n matrix"):
            fit_plugin(system, driver, meta, v0=v0)
    symmetric = [[1.0, 0.5], [0.5, 1.0]]
    assert fit_plugin(scan_system, driver, meta, v0=symmetric).cov_path.shape == (10, 2, 2)


def test_solver_choice_follows_the_jacobian_tensor(monkeypatch):
    # The tensor picks the state kernel's branch and nothing else: the
    # covariance is the same computation with or without it.
    calls = []
    scan = plugin._product_integral
    monkeypatch.setattr(
        plugin, "_product_integral", lambda *a: calls.append(a) or scan(*a)
    )
    rng = np.random.default_rng(11)
    for kind in KINDS:
        system = make_system(kind)
        linear = kind in LINEAR_KINDS
        k, n = system.driver_dim, system.state_dim
        if linear:
            assert system.jacobians.shape == (k, n, n)
            assert not system.jacobians.flags.writeable
        else:
            assert system.jacobians is None
        driver, meta = random_driver(kind, 50, rng)
        x0 = interior_x0(system, rng)
        calls.clear()
        state = solve_plugin(system, driver, x0_override=x0)
        assert len(calls) == linear
        untensored = replace(system, jacobians=None)
        calls.clear()
        solve_plugin(untensored, driver, x0_override=x0)
        assert not calls
        np.testing.assert_array_equal(
            solve_variance(untensored, driver, meta, state),
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
        for j, g in enumerate(system.jacobians):
            np.testing.assert_array_equal(f[:, j], g @ x)
            np.testing.assert_array_equal(system.gradients[j](x), g)


@pytest.mark.parametrize("m", [5, 3 * SCAN_CHUNK + 5])
def test_guard_violation_is_raised_at_the_first_failing_time(m):
    # A guarded linear system: survival may not fall to 0.5.  Both branches
    # of the state kernel must stop where the loop does, with its component.
    scan_system = replace(make_system("survival"), guards=((0, 0.5),))
    step_system = replace(scan_system, jacobians=None)
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


def assert_import_does_not_load(*modules):
    src = str(Path(hazard_transform.__file__).resolve().parents[1])
    run_child(
        "import sys, hazard_transform; "
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
