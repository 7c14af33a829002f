"""Study workloads, run in a fresh interpreter of their own.

    python3 bench/study_worker.py --workload coverage-study --seed N \
        --seconds S --trace 0 --out DIR --result R.json [--smoke]

Calls the study again and again, one call at a time with ``n_jobs=1``, until
``--seconds`` have passed, checks every call's artifacts and writes the call
times and problems to ``--result``.  With ``--trace 1`` every study call is
followed by a replay of the same study through the public functions, each
call inside a span; the replay must reproduce the study's numbers.
"""

import argparse
import hashlib
import json
import math
import time
from dataclasses import replace
from pathlib import Path

import numpy as np

import hazard_transform as ht
from spans import Recorder

LEVEL = 0.95
COVERAGE_RANGE = (0.85, 1.0)
REPLAY_RTOL = 1e-6


def coverage_scenario(seed: int, smoke: bool):
    # The crossing-rate pair of acceptance criterion 6.  Smoke runs keep the
    # full size: the coverage check needs k = 100 replications of n = 500.
    return ht.Scenario(
        system=ht.SystemKind("relative_survival"),
        hazards={
            "group1": ht.LinearHazard(1.5, -1.0, 1.0),
            "group0": ht.LinearHazard(0.5, 1.0, 1.0),
        },
        n=500,
        seed=seed,
        k_replications=100,
    ), None


def variance_settings(seed: int, smoke: bool):
    sc = ht.Scenario(
        system=ht.SystemKind("mean_frequency"),
        hazards={
            "recurrent": ht.ConstantHazard(1.0, 1.0),
            "terminal": ht.ConstantHazard(0.5, 1.0),
        },
        censor=ht.ConstantHazard(0.3, 1.0),
        n=500,
        seed=seed,
        k_replications=2 if smoke else 10,
    )
    study = {
        "n_list": [50, 100] if smoke else [250, 500],
        "bootstrap_n": 200 if smoke else 2000,
        "bootstrap_b": 10 if smoke else 100,
    }
    return sc, study


def child_seed(seed: int, *key: int) -> int:
    """The documented substream seed of replication ``key`` of a study."""
    return int(np.random.SeedSequence((seed, *key)).generate_state(1, np.uint64)[0])


def step_from_values(times, values, origin: float, horizon: float):
    cum = np.concatenate([[origin], values])
    return ht.StepPath(
        times=times, increments=np.diff(cum), origin_value=[origin], horizon=horizon
    )


# --------------------------------------------------------------------------
# Untraced study calls and their checks


def run_coverage(sc, settings):
    return ht.coverage_study(sc, level=LEVEL, n_jobs=1)


def check_coverage(result, sc) -> list[str]:
    meta = result.metadata
    problems = []
    if meta["replications_used"] + sum(meta["failures"].values()) != sc.k_replications:
        problems.append("replications_used + failures != k")
    lo, hi = COVERAGE_RANGE
    coverage = [row[1] for row in result.rows]
    if not all(lo <= c <= hi for c in coverage):
        problems.append(f"coverage outside [{lo}, {hi}]: {min(coverage)}")
    return problems


def run_variance(sc, settings):
    return ht.l2_convergence(sc, settings["n_list"], target="variance", n_jobs=1,
                             bootstrap_n=settings["bootstrap_n"],
                             bootstrap_b=settings["bootstrap_b"])


def check_variance(result, sc) -> list[str]:
    problems = []
    failed = sum(result.metadata["failures"].values())
    if not 0 <= failed <= sc.k_replications * len(result.rows):
        problems.append(f"{failed} failures out of {sc.k_replications} per size")
    if not all(math.isfinite(L) and L > 0 for _, L in result.rows):
        problems.append(f"L not finite and positive: {[L for _, L in result.rows]}")
    return problems


# --------------------------------------------------------------------------
# Traced replays: the study's steps, one public call per span


def _fit(rec, kind, scenario, tag=None):
    with rec.span("simlab.simulate_dataset", tag):
        ds = ht.simulate_dataset(scenario)
    with rec.span("hazards.estimate_driver"):
        driver, meta = ht.estimate_driver(ds, kind)
    with rec.span("systems.make_system"):
        system = ht.make_system(kind)
    with rec.span("plugin.fit_plugin"):
        return ht.fit_plugin(system, driver, meta)


def replay_coverage(rec, sc, settings):
    kind = sc.system
    comp = kind.headline_index
    t_grid = np.linspace(0.2 * sc.horizon, 0.8 * sc.horizon, 13)
    with rec.span("simlab.oracle_parameter"):
        oracle = ht.oracle_parameter(sc.hazards, kind)
    truth = oracle.value_at(t_grid)[:, comp]
    hits = np.zeros(t_grid.size, dtype=int)
    used = failures = 0
    for j in range(sc.k_replications):
        rep = replace(sc, seed=child_seed(sc.seed, 0, j), k_replications=1)
        try:
            fit = _fit(rec, kind, rep)
            with rec.span("plugin.confidence_band"):
                band = ht.confidence_band(fit, LEVEL)
        except ht.HazardTransformError:
            failures += 1
            continue
        _, lo, hi = band.value_at(t_grid)
        hits += (lo[:, comp] <= truth) & (truth <= hi[:, comp])
        used += 1
    return {"values": (hits / used).tolist(), "used": used, "failures": failures}


def replay_variance(rec, sc, settings):
    kind = sc.system
    comp = kind.headline_index
    ref_n = settings["bootstrap_n"]
    ref = replace(sc, n=ref_n, seed=child_seed(sc.seed, 1), k_replications=1)
    with rec.span("simlab.simulate_dataset", "reference"):
        ref_ds = ht.simulate_dataset(ref)
    with rec.span("simlab.bootstrap_covariance"):
        grid, cov = ht.bootstrap_covariance(
            ref_ds, kind, b=settings["bootstrap_b"], seed=child_seed(sc.seed, 2)
        )
    target = step_from_values(grid, cov[:, comp, comp] / ref_n, 0.0, sc.horizon)
    values = []
    used = failures = 0
    for i, n in enumerate(settings["n_list"]):
        total = count = 0
        for j in range(sc.k_replications):
            rep = replace(sc, n=n, seed=child_seed(sc.seed, 0, i, j), k_replications=1)
            try:
                fit = _fit(rec, kind, rep, "replications")
            except ht.HazardTransformError:
                failures += 1
                continue
            path = step_from_values(
                fit.times,
                fit.cov_path[:, comp, comp] / fit.scale_n,
                fit.v0[comp, comp] / fit.scale_n,
                sc.horizon,
            )
            total += ht.l2_distance(target, path, 0, 0, sc.horizon)
            count += 1
        values.append(total / count if count else float("nan"))
        used += count
    return {
        "values": values,
        "used": used,
        "failures": failures,
        "records_per_subject": len(ref_ds.records) / ref_ds.n_subjects,
        "bootstrap_b": settings["bootstrap_b"],
    }


def replay_matches(result, replay) -> bool:
    col = 1  # coverage for coverage studies, L for convergence studies
    study = [row[col] for row in result.rows]
    return len(study) == len(replay["values"]) and all(
        math.isclose(a, b, rel_tol=REPLAY_RTOL, abs_tol=0.0)
        for a, b in zip(study, replay["values"])
    )


WORKLOADS = {
    "coverage-study": (coverage_scenario, run_coverage, check_coverage, replay_coverage),
    "variance-study": (variance_settings, run_variance, check_variance, replay_variance),
}


def _artifact_digest(result, directory: Path) -> str:
    ht.write_study(result, directory / "study")
    h = hashlib.sha256()
    for suffix in (".csv", ".json"):
        h.update((directory / "study").with_suffix(suffix).read_bytes())
    return h.hexdigest()


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--out", required=True)
    parser.add_argument("--result", required=True)
    args = parser.parse_args()

    build, run, check, replay = WORKLOADS[args.workload]
    sc, settings = build(args.seed, args.smoke)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)

    calls, traced, replays = [], [], []
    rec = Recorder()
    first_digest = None
    start = time.monotonic()
    while len(calls) < 2 or time.monotonic() - start < args.seconds:
        t0 = time.monotonic()
        try:
            result = run(sc, settings)
            wall = time.monotonic() - t0
            problems = check(result, sc)
            digest = _artifact_digest(result, out)
            first_digest = first_digest or digest
            if digest != first_digest:
                problems.append("study artifacts differ from the first call's")
        except (ht.HazardTransformError, ValueError, OSError) as exc:
            wall = time.monotonic() - t0
            problems = [f"{type(exc).__name__}: {exc}"]
            result = None
        calls.append({"wall": wall, "problems": problems})
        if args.trace:
            rec.op = len(calls)
            t0 = time.monotonic()
            with rec.span("study", args.workload):
                outcome = replay(rec, sc, settings)
            traced.append(time.monotonic() - t0)
            outcome["matches"] = result is not None and replay_matches(result, outcome)
            replays.append(outcome)

    Path(args.result).write_text(
        json.dumps(
            {"calls": calls, "traced": traced, "replays": replays, "spans": rec.spans}
        )
    )


if __name__ == "__main__":
    main()
