"""End-to-end command-line runs: artifacts, determinism, JSON error paths."""

import csv
import json
import subprocess
import sys

import numpy as np
import pytest

CLI = [sys.executable, "-m", "hazard_transform.cli"]

pytestmark = pytest.mark.usefixtures("child_pythonpath")


def run_cli(*argv, expect=0):
    proc = subprocess.run(
        CLI + [str(a) for a in argv], capture_output=True, text=True
    )
    assert proc.returncode == expect, (
        f"exit {proc.returncode} != {expect}\nstdout: {proc.stdout}\n"
        f"stderr: {proc.stderr}"
    )
    return proc


def error_payload(proc) -> dict:
    payload = json.loads(proc.stderr.strip().splitlines()[-1])
    assert set(payload) == {"error"}
    assert set(payload["error"]) == {"type", "message"}
    return payload["error"]


def read_csv(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def simulate_survival(out_dir, n=120, seed=5):
    run_cli(
        "simulate", "--hazard", "constant:1", "--n", n, "--seed", seed,
        "--horizon", 1.5, "--out", out_dir,
    )
    return out_dir / "dataset.csv"


class TestEstimate:
    def test_survival_fit_matches_product_limit(self, tmp_path):
        data = simulate_survival(tmp_path / "sim")
        out = tmp_path / "est"
        run_cli(
            "estimate", "--system", "survival", "--data", data,
            "--level", 0.95, "--out", out,
        )
        header, rows = read_csv(out / "fit.csv")
        assert header[:2] == ["time", "X_1"]
        fit_times = np.array([float(r[0]) for r in rows[1:]])
        fit_surv = np.array([float(r[1]) for r in rows[1:]])

        exits, codes = [], []
        with open(data, newline="") as fh:
            for rec in csv.DictReader(fh):
                exits.append(float(rec["exit"]))
                codes.append(int(rec["event"]))
        exits = np.array(exits)
        codes = np.array(codes)
        km_times = np.unique(exits[codes == 1])
        km = np.cumprod(
            [
                1.0 - np.sum((exits == t) & (codes == 1)) / np.sum(exits >= t)
                for t in km_times
            ]
        )
        np.testing.assert_array_equal(fit_times, km_times)
        np.testing.assert_allclose(fit_surv, km, rtol=0, atol=1e-12)

        band_header, band_rows = read_csv(out / "band.csv")
        assert band_header == ["time", "lo_1", "hi_1"]
        assert len(band_rows) == len(rows)
        meta = json.loads((out / "fit.json").read_text())
        assert meta["level"] == 0.95
        assert meta["state_labels"] == ["survival"]

    def test_band_lines_are_fit_time_and_bound_fields(self, tmp_path):
        data = tmp_path / "d.csv"
        data.write_text(
            "id,entry,exit,event\n"
            + "".join(f"s{i},0,{0.1 * (i % 7 + 1)!r},{i % 4}\n" for i in range(40))
        )
        out = tmp_path / "est"
        run_cli(
            "estimate", "--system", "cumulative_incidence", "--n-causes", 3,
            "--data", data, "--out", out,
        )
        fit_lines = (out / "fit.csv").read_bytes().split(b"\r\n")
        band_lines = (out / "band.csv").read_bytes().split(b"\r\n")
        assert len(band_lines) == len(fit_lines) > 3
        assert fit_lines[-1] == band_lines[-1] == b""  # every line ends in \r\n
        n = 4  # survival and three cumulative incidences
        for fit_line, band_line in zip(fit_lines[:-1], band_lines[:-1]):
            fields = fit_line.split(b",")
            assert band_line.split(b",") == fields[:1] + fields[-2 * n :]

    def test_empty_dataset_is_an_error(self, tmp_path):
        data = tmp_path / "empty.csv"
        data.write_text("id,entry,exit,event\n")
        proc = run_cli(
            "estimate", "--data", data, "--out", tmp_path / "o", expect=1
        )
        err = error_payload(proc)
        assert err["type"] == "DataError"
        assert "no subjects" in err["message"]

    def test_flag_overrides_config_level(self, tmp_path):
        data = simulate_survival(tmp_path / "sim")
        config = tmp_path / "run.json"
        config.write_text(json.dumps({"data": str(data), "level": 0.8}))
        out = tmp_path / "est"
        run_cli("estimate", "--config", config, "--level", 0.9, "--out", out)
        assert json.loads((out / "fit.json").read_text())["level"] == 0.9

    def test_unknown_config_key_is_an_error(self, tmp_path):
        config = tmp_path / "run.json"
        config.write_text(json.dumps({"data": "d.csv", "bandwidth": 2}))
        proc = run_cli(
            "estimate", "--config", config, "--out", tmp_path / "o", expect=1
        )
        err = error_payload(proc)
        assert err["type"] == "ConfigError"
        assert "bandwidth" in err["message"]

    def test_invalid_level_is_an_error(self, tmp_path):
        data = tmp_path / "d.csv"
        data.write_text("id,entry,exit,event\na,0,1,1\n")
        proc = run_cli(
            "estimate", "--data", data, "--level", 1.5,
            "--out", tmp_path / "o", expect=1,
        )
        assert "level" in error_payload(proc)["message"]


class TestSimulate:
    def test_same_seed_is_byte_identical(self, tmp_path):
        a = simulate_survival(tmp_path / "a", seed=9)
        b = simulate_survival(tmp_path / "b", seed=9)
        assert a.read_bytes() == b.read_bytes()

    def test_negative_rate_is_an_error(self, tmp_path):
        proc = run_cli(
            "simulate", "--hazard", "constant:-1", "--n", 10, "--seed", 1,
            "--out", tmp_path / "o", expect=1,
        )
        err = error_payload(proc)
        assert err["type"] == "ConfigError"
        assert "nonnegative" in err["message"]

    def test_missing_group_hazard_is_an_error(self, tmp_path):
        proc = run_cli(
            "simulate", "--system", "ler", "--hazard", "group1=constant:1",
            "--n", 10, "--seed", 1, "--out", tmp_path / "o", expect=1,
        )
        err = error_payload(proc)
        assert err["type"] == "ConfigError"
        assert "group2" in err["message"]

    def test_missing_seed_is_a_usage_error(self, tmp_path):
        proc = subprocess.run(
            CLI + ["simulate", "--hazard", "constant:1", "--n", "10"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 2
        assert "seed" in error_payload(proc)["message"]


@pytest.mark.parametrize(
    "start, where",
    [(-1, "flag"), (5, "flag"), ("nan", "flag"), (-1, "config")],
    ids=["-1", "5", "nan", "config -1"],
)
def test_start_outside_the_window_is_a_config_error(tmp_path, start, where):
    data = simulate_survival(tmp_path / "sim")
    config = tmp_path / "run.json"
    config.write_text(json.dumps({"start": start} if where == "config" else {}))
    flag = ["--start", start] if where == "flag" else []
    proc = run_cli(
        "estimate", "--system", "survival", "--data", data, "--config", config,
        *flag, "--out", tmp_path / "o", expect=1,
    )
    err = error_payload(proc)
    assert err["type"] == "ConfigError"
    assert "start must lie in [0, horizon)" in err["message"]
    assert not (tmp_path / "o").exists()


def test_start_zero_changes_nothing(tmp_path):
    data = simulate_survival(tmp_path / "sim")
    for name, flag in (("plain", []), ("zero", ["--start", 0])):
        run_cli(
            "estimate", "--system", "survival", "--data", data, *flag,
            "--out", tmp_path / name,
        )
    for file in ("fit.csv", "fit.json", "band.csv"):
        assert (tmp_path / "plain" / file).read_bytes() == (
            tmp_path / "zero" / file
        ).read_bytes()


class TestStudies:
    def test_converge_emits_one_row_per_sample_size(self, tmp_path):
        out = tmp_path / "conv"
        run_cli(
            "converge", "--hazard", "constant:1", "--n-list", "30,60,90",
            "--k", 2, "--seed", 3, "--out", out,
        )
        header, rows = read_csv(out / "convergence.csv")
        assert header == ["n", "L"]
        assert [r[0] for r in rows] == ["30", "60", "90"]
        assert all(float(r[1]) > 0 for r in rows)
        meta = json.loads((out / "convergence.json").read_text())
        assert meta["n_list"] == [30, 60, 90]

    def test_coverage_echoes_the_level(self, tmp_path):
        out = tmp_path / "cov"
        run_cli(
            "coverage", "--hazard", "constant:1", "--n", 40, "--k", 3,
            "--level", 0.95, "--seed", 3, "--out", out,
        )
        header, rows = read_csv(out / "coverage.csv")
        assert header == ["t", "coverage", "wilson_lo", "wilson_hi", "level"]
        assert len(rows) == 13
        assert all(float(r[4]) == 0.95 for r in rows)

    def test_jobs_flag_does_not_change_output(self, tmp_path):
        outs = []
        for jobs, name in ((1, "j1"), (2, "j2")):
            out = tmp_path / name
            run_cli(
                "converge", "--hazard", "constant:1", "--n-list", "30,60",
                "--k", 2, "--seed", 11, "--jobs", jobs, "--out", out,
            )
            outs.append(out)
        assert (outs[0] / "convergence.csv").read_bytes() == (
            outs[1] / "convergence.csv"
        ).read_bytes()
        assert (outs[0] / "convergence.json").read_bytes() == (
            outs[1] / "convergence.json"
        ).read_bytes()


HAZARD = {"form": "constant", "rate": 1, "horizon": 1}

#: command, config (``DATA`` is a valid dataset path) and the key the error
#: names.
WRONG_TYPES = {
    "hazard rate": (
        "simulate",
        {"hazards": {"event": {**HAZARD, "rate": "x"}}, "n": 10},
        "rate",
    ),
    "n_causes": (
        "simulate",
        {
            "system": {"name": "cumulative_incidence", "n_causes": "2"},
            "hazards": {"cause1": HAZARD, "cause2": HAZARD},
            "n": 10,
        },
        "n_causes",
    ),
    "grid_step": (
        "estimate",
        {"system": "rmst", "data": "DATA", "driver": {"grid_step": "0.1"}},
        "grid_step",
    ),
    "component": (
        "coverage",
        {"hazards": {"event": HAZARD}, "n": 10, "k_replications": 2, "component": "0"},
        "component",
    ),
    "hazards": ("simulate", {"hazards": "abc", "n": 10}, "hazards"),
}


@pytest.mark.parametrize("case", WRONG_TYPES.values(), ids=list(WRONG_TYPES))
def test_config_value_of_the_wrong_type_is_a_config_error(tmp_path, case):
    command, config, key = case
    data = tmp_path / "d.csv"
    data.write_text("id,entry,exit,event\na,0,1,1\nb,0,0.5,0\n")
    path = tmp_path / "run.json"
    path.write_text(json.dumps(config).replace('"DATA"', json.dumps(str(data))))
    seed = [] if command == "estimate" else ["--seed", 1]
    proc = run_cli(
        command, "--config", path, *seed, "--out", tmp_path / "o", expect=1
    )
    err = error_payload(proc)
    assert err["type"] == "ConfigError"
    assert key in err["message"]


@pytest.mark.parametrize(
    "argv, key",
    [
        (["coverage", "--n", 10, "--k", 2, "--t-grid", "5,-1"], "t_grid"),
        (["coverage", "--n", 10, "--k", 2, "--t-grid", "0.5,1.001"], "t_grid"),
        (["converge", "--n-list", "30.5,40", "--k", 1], "--n-list"),
        (["converge", "--n-list", "0,50", "--k", 2], "n_list"),
        (["converge", "--target", "variance", "--n-list", 10, "--k", 1,
          "--bootstrap-b", 1], "bootstrap_b"),
    ],
    ids=["t-grid 5,-1", "t-grid past the horizon", "n-list 30.5", "n-list 0,50",
         "bootstrap-b 1"],
)
def test_study_flag_outside_its_domain_is_a_config_error(tmp_path, argv, key):
    proc = run_cli(
        *argv, "--hazard", "constant:1", "--seed", 1, "--out", tmp_path / "o",
        expect=1,
    )
    err = error_payload(proc)
    assert err["type"] == "ConfigError"
    assert key in err["message"]
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["coverage", "--n", 10, "--k", 2, "--component", 5],
        ["converge", "--n-list", 10, "--k", 1, "--component", -1],
    ],
    ids=["coverage 5", "converge -1"],
)
def test_component_outside_the_state_is_a_config_error(tmp_path, argv):
    proc = run_cli(
        *argv, "--system", "survival", "--hazard", "constant:1", "--seed", 1,
        "--out", tmp_path / "o", expect=1,
    )
    err = error_payload(proc)
    assert err["type"] == "ConfigError"
    assert "component" in err["message"]
    assert not (tmp_path / "o").exists()
