"""Acceptance gate: eight end-to-end criteria for the released package.

Each test prints exactly one ``criterion N ...: PASS`` / ``FAIL`` line
(visible with ``pytest -s``) and asserts the same condition, so the suite is
green if and only if every printed line says PASS.  Tolerances are pinned
here and nowhere else.
"""

import json
import math
import subprocess
import sys
import time

import numpy as np
import pytest

from hazard_transform import (
    ConstantHazard,
    EventDataset,
    EventRecord,
    LinearHazard,
    Scenario,
    SystemKind,
    bootstrap_covariance,
    coverage_study,
    estimate_driver,
    fit_plugin,
    l2_convergence,
    make_system,
    oracle_parameter,
    simulate_dataset,
    solve_plugin,
)

from helpers import study_tasks

CLI = [sys.executable, "-m", "hazard_transform.cli"]


def report(label: str, ok: bool) -> bool:
    print(f"\n{label}: {'PASS' if ok else 'FAIL'}")
    return ok


def test_criterion_1_product_limit_identity():
    """Survival plugin == product-limit estimator, 50 datasets, 1e-12, <10 s."""
    t0 = time.perf_counter()
    worst = 0.0
    for seed in range(50):
        n = 40 + 4 * seed
        sc = Scenario(
            system=SystemKind("survival"),
            hazards={"event": ConstantHazard(1.0, 1.5)},
            censor=ConstantHazard(0.5, 1.5) if seed % 2 else None,
            n=n,
            seed=seed,
        )
        ds = simulate_dataset(sc)
        driver, _ = estimate_driver(ds, sc.system)
        state = solve_plugin(make_system("survival"), driver)

        exits = np.array([r.exit_time for r in ds.records])
        codes = np.array([r.event_code for r in ds.records])
        km = np.cumprod(
            [
                1.0 - np.sum((exits == t) & (codes == 1)) / np.sum(exits >= t)
                for t in state.times
            ]
        )
        worst = max(worst, float(np.abs(state.values_at_jumps()[:, 0] - km).max()))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-12 and elapsed < 10.0
    assert report(
        "criterion 1 (product-limit identity on 50 datasets)", ok
    ), f"max deviation {worst:.3e}, elapsed {elapsed:.1f}s"


SAMPLERS = {
    "survival": lambda rng: rng.uniform(0.2, 0.95, size=1),
    "relative_survival": lambda rng: np.concatenate(
        [rng.uniform(0.2, 0.95, size=2), rng.uniform(0.3, 2.0, size=1)]
    ),
    "rmst": lambda rng: np.array([rng.uniform(0.0, 1.0), rng.uniform(0.2, 0.95)]),
    "led": lambda rng: np.concatenate(
        [rng.uniform(-0.5, 0.5, size=1), rng.uniform(0.2, 0.95, size=2)]
    ),
    "ler": lambda rng: np.concatenate(
        [
            rng.uniform(0.5, 2.0, size=1),
            rng.uniform(0.2, 0.95, size=2),
            rng.uniform(0.2, 1.0, size=2),
        ]
    ),
    "cumulative_incidence": lambda rng: np.concatenate(
        [rng.uniform(0.3, 0.9, size=1), rng.uniform(0.01, 0.2, size=3)]
    ),
    "mean_frequency": lambda rng: np.array(
        [rng.uniform(0.0, 2.0), rng.uniform(0.2, 0.95)]
    ),
    "screening": lambda rng: rng.uniform(0.3, 0.9, size=4),
}

ALL_KINDS = [
    SystemKind("survival"),
    SystemKind("relative_survival"),
    SystemKind("rmst"),
    SystemKind("led"),
    SystemKind("ler"),
    SystemKind("cumulative_incidence", n_causes=3),
    SystemKind("mean_frequency"),
    SystemKind("screening", prevalence=0.4, initial_value=[0.8, 0.7, 0.6, 0.5]),
]


def test_criterion_2_gradients_match_finite_differences():
    """Analytic Jacobians vs central differences: 8 systems x 100 states, <10 s."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(1234)
    h = 1e-6
    worst = 0.0
    for kind in ALL_KINDS:
        system = make_system(kind)
        nd, ns = system.driver_dim, system.state_dim
        for _ in range(100):
            x = SAMPLERS[kind.name](rng)
            for j in range(1, nd + 1):
                fd = np.empty((ns, ns))
                for i in range(ns):
                    up, dn = x.copy(), x.copy()
                    up[i] += h
                    dn[i] -= h
                    fd[:, i] = (
                        system.integrand(up)[:, j - 1]
                        - system.integrand(dn)[:, j - 1]
                    ) / (2 * h)
                got = system.gradients[j - 1](x)
                rel = np.abs(got - fd) / np.maximum(1.0, np.abs(got))
                worst = max(worst, float(rel.max()))
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-6 and elapsed < 10.0
    assert report(
        "criterion 2 (gradient check, 8 systems x 100 states)", ok
    ), f"max relative error {worst:.3e}, elapsed {elapsed:.1f}s"


def test_criterion_3_structural_identities():
    """Competing-risks components sum to 1 (1e-12); difference system == R1 - R2 (1e-10)."""
    sc = Scenario(
        system=SystemKind("cumulative_incidence", n_causes=3),
        hazards={
            "cause1": ConstantHazard(0.5, 2.0),
            "cause2": ConstantHazard(0.3, 2.0),
            "cause3": ConstantHazard(0.2, 2.0),
        },
        n=2000,
        seed=77,
    )
    ds = simulate_dataset(sc)
    driver, meta = estimate_driver(ds, sc.system)
    fit = fit_plugin(make_system(sc.system), driver, meta)
    conservation = float(
        np.abs(fit.state_path.values_at_jumps().sum(axis=1) - 1.0).max()
    )

    rng = np.random.default_rng(78)
    records = []
    for i in range(200):
        records.append(
            EventRecord(f"a{i}", 0.0, float(rng.exponential(1.0)), 1, group=1)
        )
        records.append(
            EventRecord(f"b{i}", 0.0, float(rng.exponential(0.5)), 1, group=2)
        )
    horizon = max(r.exit_time for r in records)
    ds2 = EventDataset(records=records, horizon=horizon)
    step = horizon / 500
    led_driver, led_meta = estimate_driver(ds2, SystemKind("led"), grid_step=step)
    led_fit = fit_plugin(make_system("led"), led_driver, led_meta)
    led_curve = led_fit.state_path.values_at_jumps()[:, 0]
    parts = []
    for group in (1, 2):
        sub = EventDataset(
            records=[r for r in records if r.group == group], horizon=horizon
        )
        d, m = estimate_driver(sub, SystemKind("rmst"), grid_step=step)
        parts.append(fit_plugin(make_system("rmst"), d, m).state_path)
    probe = led_fit.times
    diff_err = float(
        np.abs(
            led_curve
            - (parts[0].value_at(probe)[:, 0] - parts[1].value_at(probe)[:, 0])
        ).max()
    )
    ok = conservation <= 1e-12 and diff_err <= 1e-10
    assert report(
        "criterion 3 (component conservation and difference identity)", ok
    ), f"conservation {conservation:.3e}, difference mismatch {diff_err:.3e}"


def test_criterion_4_oracle_accuracy():
    """Fine-grid reference curves vs closed forms: sup < 1e-5."""
    surv = oracle_parameter({"event": ConstantHazard(1.0, 1.0)}, SystemKind("survival"))
    probe = np.linspace(0.0, 1.0, 1001)
    surv_err = float(np.abs(surv.value_at(probe)[:, 0] - np.exp(-probe)).max())

    rmst = oracle_parameter({"event": ConstantHazard(1.0, 1.0)}, SystemKind("rmst"))
    rmst_err = abs(float(rmst.value_at(1.0)[0]) - 0.6321205588285577)
    ok = surv_err < 1e-5 and rmst_err < 1e-5
    assert report(
        "criterion 4 (reference-curve accuracy)", ok
    ), f"survival sup error {surv_err:.3e}, restricted-mean error {rmst_err:.3e}"


def loglog_slope(rows):
    ns = np.log([float(n) for n, _ in rows])
    ls = np.log([float(v) for _, v in rows])
    return float(np.polyfit(ns, ls, 1)[0])


def test_criterion_5_convergence_rates():
    """L2 error decays like 1/n; variance-path error decays at least that fast."""
    sc = Scenario(
        system=SystemKind("survival"),
        hazards={"event": ConstantHazard(1.0, 1.0)},
        n=250,
        seed=2024,
        k_replications=100,
    )
    n_list = [250, 500, 1000, 2000, 4000]
    est = l2_convergence(sc, n_list, target="estimate")
    est_slope = loglog_slope(est.rows)

    var = l2_convergence(sc, n_list, target="variance")
    var_slope = loglog_slope(var.rows)
    ok = (
        -1.4 <= est_slope <= -0.6
        and var_slope <= -1.0
        and not est.metadata["failures"]
        and not var.metadata["failures"]
    )
    assert report(
        "criterion 5 (estimate and variance convergence rates)", ok
    ), f"estimate slope {est_slope:.3f}, variance slope {var_slope:.3f}"


def test_criterion_6_band_coverage():
    """Pointwise 95% bands cover: plain systems in [0.90, 0.98]; crossing-rate
    two-group curve stays above 0.85 everywhere inside the window."""
    results = {}
    for name, kind, hazards in (
        (
            "survival",
            SystemKind("survival"),
            {"event": ConstantHazard(1.0, 1.0)},
        ),
        (
            "rmst",
            SystemKind("rmst"),
            {"event": ConstantHazard(1.0, 1.0)},
        ),
    ):
        sc = Scenario(
            system=kind, hazards=hazards, n=500, seed=31_000, k_replications=500
        )
        res = coverage_study(sc, level=0.95)
        results[name] = [row[1] for row in res.rows]

    crossing = Scenario(
        system=SystemKind("relative_survival"),
        hazards={
            "group1": LinearHazard(1.5, -1.0, 1.0),
            "group0": LinearHazard(0.5, 1.0, 1.0),
        },
        n=500,
        seed=32_000,
        k_replications=500,
    )
    cross_cov = [row[1] for row in coverage_study(crossing, level=0.95).rows]

    plain_lo = min(min(results["survival"]), min(results["rmst"]))
    plain_hi = max(max(results["survival"]), max(results["rmst"]))
    cross_lo = min(cross_cov)
    ok = 0.90 <= plain_lo and plain_hi <= 0.98 and cross_lo >= 0.85
    assert report(
        "criterion 6 (pointwise coverage at the nominal level)", ok
    ), (
        f"plain coverage range [{plain_lo:.3f}, {plain_hi:.3f}], "
        f"crossing-rate minimum {cross_lo:.3f}"
    )


def test_criterion_7_variance_against_bootstrap():
    """Plugin variance within 20% of a 1000-replicate bootstrap at median survival."""
    sc = Scenario(
        system=SystemKind("survival"),
        hazards={"event": ConstantHazard(1.0, 1.0)},
        n=1000,
        seed=99,
    )
    ds = simulate_dataset(sc)
    driver, meta = estimate_driver(ds, sc.system)
    fit = fit_plugin(make_system("survival"), driver, meta)
    t_med = math.log(2.0)
    idx = int(np.searchsorted(fit.times, t_med, side="right")) - 1
    plugin_var = float(fit.cov_path[idx, 0, 0])

    _, cov = bootstrap_covariance(
        ds, sc.system, b=1000, seed=100, time_grid=[t_med]
    )
    boot_var = float(cov[0, 0, 0])
    ratio = plugin_var / boot_var
    ok = 0.8 <= ratio <= 1.2
    assert report(
        "criterion 7 (plugin variance vs bootstrap)", ok
    ), f"plugin/bootstrap variance ratio {ratio:.3f}"


@pytest.mark.usefixtures("child_pythonpath")
def test_criterion_8_parallel_determinism(tmp_path):
    """Study artifacts are byte-identical for --jobs 1 and --jobs 8."""
    outputs = {}
    for jobs in (1, 8):
        conv_out = tmp_path / f"conv{jobs}"
        cov_out = tmp_path / f"cov{jobs}"
        for argv in (
            [
                "converge", "--hazard", "constant:1", "--n-list", "100,200",
                "--k", 8, "--seed", 7, "--jobs", jobs, "--out", conv_out,
            ],
            [
                "coverage", "--hazard", "constant:1", "--n", 100, "--k", 16,
                "--seed", 7, "--jobs", jobs, "--out", cov_out,
            ],
        ):
            proc = subprocess.run(
                CLI + [str(a) for a in argv], capture_output=True, text=True
            )
            assert proc.returncode == 0, proc.stderr
        outputs[jobs] = (
            (conv_out / "convergence.csv").read_bytes(),
            (conv_out / "convergence.json").read_bytes(),
            (cov_out / "coverage.csv").read_bytes(),
            (cov_out / "coverage.json").read_bytes(),
        )
    ok = outputs[1] == outputs[8]
    assert report(
        "criterion 8 (byte-identical artifacts across worker counts)", ok
    ), "outputs differ between --jobs 1 and --jobs 8"


@pytest.mark.usefixtures("child_pythonpath")
def test_criterion_8_parallel_determinism_across_blocks(tmp_path):
    """Criterion 8 with coverage replications spread over several blocks:
    16 replications of 2,000 subjects make two tasks for the workers."""
    assert study_tasks(SystemKind("survival"), [2000], 16, [(0, 0)]) == 2
    outputs = {}
    for jobs in (1, 8):
        out = tmp_path / f"cov{jobs}"
        argv = [
            "coverage", "--hazard", "constant:1", "--n", 2000, "--k", 16,
            "--seed", 7, "--jobs", jobs, "--out", out,
        ]
        proc = subprocess.run(CLI + [str(a) for a in argv], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        outputs[jobs] = [(out / f"coverage{ext}").read_bytes() for ext in (".csv", ".json")]
    assert outputs[1] == outputs[8]
