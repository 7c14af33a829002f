"""End-to-end command-line runs: artifacts, determinism, JSON error paths."""

import csv
import json
import subprocess
import sys

import numpy as np
import pytest

from hazard_transform import SystemKind

from helpers import study_tasks

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

    def test_a_field_the_system_does_not_read_is_an_error(self, tmp_path):
        data = simulate_survival(tmp_path / "sim")
        proc = run_cli(
            "estimate", "--system", "survival", "--prevalence", 0.3,
            "--data", data, "--out", tmp_path / "o", expect=1,
        )
        assert error_payload(proc) == {
            "type": "ConfigError",
            "message": "prevalence is read only by screening, not by survival",
        }
        assert not (tmp_path / "o").exists()

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

    @pytest.mark.parametrize(
        "argv",
        [
            ["simulate", "--system", "survival", "--hazard", "constant:1e308", "--n", 20],
            [
                "simulate", "--system", "mean_frequency",
                "--hazard", "recurrent=constant:1e308",
                "--hazard", "terminal=constant:0.5", "--n", 20,
            ],
            ["coverage", "--hazard", "constant:1e308", "--n", 20, "--k", 3],
            [
                "converge", "--system", "mean_frequency",
                "--hazard", "recurrent=constant:1e308",
                "--hazard", "terminal=constant:0.5", "--n-list", "20,30", "--k", 3,
            ],
        ],
        ids=["survival", "mean_frequency", "coverage", "converge"],
    )
    def test_hazard_too_large_to_invert_is_a_config_error(self, tmp_path, argv):
        # The scenario rejects the spec before any draw: a study has no
        # replications to fail one by one.
        proc = run_cli(*argv, "--seed", 1, "--out", tmp_path / "o", expect=1)
        err = error_payload(proc)
        assert err["type"] == "ConfigError"
        assert "too large to invert" in err["message"]
        assert "Traceback" not in proc.stderr
        assert not (tmp_path / "o").exists()

    def test_competing_causes_too_large_to_invert_fail_before_any_draw(
        self, tmp_path, monkeypatch, capsys
    ):
        # Each cause alone can be inverted, but not their sum: every
        # replication used to fail alone, naming an internal class.
        from hazard_transform import cli, simlab

        monkeypatch.setattr(simlab, "_simulate", lambda *a, **k: pytest.fail("drew"))
        with pytest.raises(SystemExit) as exit_:
            cli.main([
                "coverage", "--system", "cumulative_incidence", "--n-causes", "2",
                "--hazard", "cause1=constant:6e153", "--hazard", "cause2=constant:6e153",
                "--n", "20", "--k", "3", "--seed", "1", "--out", str(tmp_path / "o"),
            ])
        assert exit_.value.code == 1
        err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])["error"]
        assert err["type"] == "ConfigError"
        assert "too large to invert" in err["message"]
        assert "_SumHazard" not in err["message"]
        assert not (tmp_path / "o").exists()

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
        # One block per sample size: two tasks for the two workers.
        assert study_tasks(SystemKind("survival"), [30, 60], 2, []) == 2
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


#: Each hazard form as a ``--hazard`` flag and as the config it stands for
#: at ``--horizon 1.5``.
FLAG_FORMS = {
    "constant": ("constant:1.2", {"form": "constant", "rate": 1.2, "horizon": 1.5}),
    "linear": (
        "linear:0.4,1.1",
        {"form": "linear", "intercept": 0.4, "slope": 1.1, "horizon": 1.5},
    ),
    "table": (
        "table:0:0.5,0.6:2,1.2:1",
        {
            "form": "table", "times": [0, 0.6, 1.2], "rates": [0.5, 2, 1],
            "horizon": 1.5,
        },
    ),
}


@pytest.mark.parametrize("flag, config", FLAG_FORMS.values(), ids=list(FLAG_FORMS))
def test_a_hazard_flag_simulates_what_its_config_does(tmp_path, flag, config):
    path = tmp_path / "run.json"
    path.write_text(json.dumps({"hazards": {"event": config}, "n": 60}))
    common = ["--censor", "table:0:0.2,1:0.8", "--horizon", 1.5, "--seed", 3]
    run_cli("simulate", "--hazard", flag, "--n", 60, *common, "--out", tmp_path / "f")
    run_cli("simulate", "--config", path, *common, "--out", tmp_path / "c")
    flagged = (tmp_path / "f" / "dataset.csv").read_bytes()
    assert flagged == (tmp_path / "c" / "dataset.csv").read_bytes()
    assert flagged.count(b"\n") == 61


@pytest.mark.parametrize(
    "flag, message",
    [
        ("constant:1,2", "cannot parse hazard parameters in 'constant:1,2'"),
        ("linear:1", "cannot parse hazard parameters in 'linear:1'"),
        ("linear:1,2,3", "cannot parse hazard parameters in 'linear:1,2,3'"),
        ("table:0.5", "cannot parse hazard parameters in 'table:0.5'"),
        ("table:0:1,2", "cannot parse hazard parameters in 'table:0:1,2'"),
        ("table:0:1:2", "cannot parse hazard parameters in 'table:0:1:2'"),
        ("weibull:1", "unknown hazard form: 'weibull'"),
        ("constant", "hazard flag must look like [role=]form:params, got 'constant'"),
    ],
)
def test_a_malformed_hazard_flag_is_a_config_error(tmp_path, flag, message):
    proc = run_cli(
        "simulate", "--hazard", flag, "--n", 10, "--seed", 1,
        "--out", tmp_path / "o", expect=1,
    )
    assert error_payload(proc) == {"type": "ConfigError", "message": message}
    assert not (tmp_path / "o").exists()


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


def test_unknown_hazard_config_key_is_a_config_error(tmp_path):
    # A misspelt key of a hazard entry used to be dropped without a word.
    path = tmp_path / "run.json"
    path.write_text(json.dumps({"hazards": {"event": {**HAZARD, "rat": 2}}, "n": 10}))
    proc = run_cli(
        "simulate", "--config", path, "--seed", 1, "--out", tmp_path / "o", expect=1
    )
    err = error_payload(proc)
    assert err["type"] == "ConfigError"
    assert err["message"].endswith("constant hazard: rat")
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize(
    "argv, key",
    [
        (["coverage", "--n", 10, "--k", 2, "--t-grid", "5,-1"], "t_grid"),
        (["coverage", "--n", 10, "--k", 2, "--t-grid", "0.5,1.001"], "t_grid"),
        (["converge", "--n-list", "30.5,40", "--k", 1], "--n-list"),
        (["converge", "--n-list", "0,50", "--k", 2], "n_list"),
        (["converge", "--n-list", "20,20", "--k", 2], "n_list"),
        (["converge", "--target", "variance", "--n-list", 10, "--k", 1,
          "--bootstrap-b", 1], "bootstrap_b"),
        (["coverage", "--n", 10, "--k", 2, "--t-grid", ","], "t_grid"),
        (["coverage", "--n", 10, "--k", 2, "--jobs", 0], "n_jobs"),
        (["converge", "--n-list", 10, "--k", 1, "--jobs", -5], "n_jobs"),
        (["coverage", "--system", "cumulative_incidence", "--n-causes", 0,
          "--n", 10, "--k", 2], "n_causes"),
    ],
    ids=["t-grid 5,-1", "t-grid past the horizon", "n-list 30.5", "n-list 0,50",
         "n-list 20,20", "bootstrap-b 1", "t-grid ,", "jobs 0", "jobs -5",
         "n-causes 0"],
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


def test_two_group_study_with_one_subject_is_a_config_error(tmp_path):
    proc = run_cli(
        "coverage", "--system", "relative_survival", "--hazard", "group1=constant:1",
        "--hazard", "group0=constant:1", "--n", 1, "--k", 2, "--seed", 1,
        "--out", tmp_path / "o", expect=1,
    )
    err = error_payload(proc)
    assert err["type"] == "ConfigError"
    assert "n >= 2" in err["message"]
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("system", ["survival", "rmst"])
def test_an_infinite_exit_time_is_a_data_error_before_any_output(
    tmp_path, system, capsys
):
    # The default horizon is the largest exit time.  At inf, survival wrote
    # "horizon": Infinity to fit.json (not RFC 8259 JSON) and rmst failed
    # with "cannot convert float NaN to integer".
    from hazard_transform import cli

    data = tmp_path / "d.csv"
    data.write_text("id,entry,exit,event\na,0,1,1\nb,0,inf,0\n")
    with pytest.raises(SystemExit) as exit_:
        cli.main([
            "estimate", "--system", system, "--data", str(data),
            "--out", str(tmp_path / "o"),
        ])
    assert exit_.value.code == 1
    err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])["error"]
    assert err == {"type": "DataError", "message": "horizon must be finite"}
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("grid_step", [-1, 0, 2.5])
def test_bad_grid_step_is_a_config_error_before_the_driver(
    tmp_path, grid_step, monkeypatch, capsys
):
    # The dataset's horizon is 2; the step used to be a ValueError from the
    # time grid, raised while the driver was built.
    from hazard_transform import cli

    data = tmp_path / "d.csv"
    data.write_text("id,entry,exit,event\na,0,1,1\nb,0,2,0\n")
    monkeypatch.setattr(cli, "estimate_driver", lambda *a, **k: pytest.fail("built"))
    with pytest.raises(SystemExit) as exit_:
        cli.main([
            "estimate", "--system", "rmst", "--data", str(data),
            "--grid-step", str(grid_step), "--out", str(tmp_path / "o"),
        ])
    assert exit_.value.code == 1
    err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])["error"]
    assert err["type"] == "ConfigError"
    assert err["message"] == (
        f"grid_step must satisfy 0 < grid_step <= 2, got {float(grid_step)!r}"
    )
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["coverage", "--system", "rmst", "--n", "20", "--k", "2", "--oracle-step", "-1"],
        ["converge", "--n-list", "20", "--k", "2", "--oracle-step", "0"],
        ["coverage", "--n", "20", "--k", "2", "--oracle-step", "1.5"],
    ],
    ids=["coverage -1", "converge 0", "coverage past the horizon"],
)
def test_bad_oracle_step_is_a_config_error_before_any_work(
    tmp_path, argv, monkeypatch, capsys
):
    # The horizon is 1; the step used to be a ValueError from the oracle's
    # time grid, raised while the oracle was built.
    from hazard_transform import cli, simlab

    for name in ("_simulate", "_oracle_values", "oracle_parameter"):
        monkeypatch.setattr(simlab, name, lambda *a, **k: pytest.fail("worked"))
    with pytest.raises(SystemExit) as exit_:
        cli.main([
            *argv, "--hazard", "constant:1", "--seed", "1", "--out", str(tmp_path / "o"),
        ])
    assert exit_.value.code == 1
    err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])["error"]
    assert err["type"] == "ConfigError"
    assert err["message"] == (
        f"oracle_step must satisfy 0 < oracle_step <= 1, got {float(argv[-1])!r}"
    )
    assert not (tmp_path / "o").exists()


def test_simulate_has_no_grid_step_flag(tmp_path):
    proc = run_cli(
        "simulate", "--hazard", "constant:1", "--n", 10, "--seed", 1,
        "--grid-step", 123, "--out", tmp_path / "o", expect=2,
    )
    err = error_payload(proc)
    assert err["type"] == "ConfigError"
    assert "--grid-step" in err["message"]


@pytest.mark.parametrize(
    "argv",
    [
        ["simulate", "--n", 10],
        ["converge", "--n-list", 10, "--k", 1],
        ["coverage", "--n", 10, "--k", 2],
    ],
    ids=["simulate", "converge", "coverage"],
)
def test_negative_seed_is_a_config_error(tmp_path, argv):
    proc = run_cli(
        *argv, "--hazard", "constant:1", "--seed", -1, "--out", tmp_path / "o",
        expect=1,
    )
    assert error_payload(proc) == {
        "type": "ConfigError",
        "message": "seed must be a nonnegative integer",
    }
    assert not (tmp_path / "o").exists()
