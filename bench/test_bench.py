"""Tests of the benchmark itself; smoke mode keeps each run to seconds.

    python3 -m pytest -q bench/test_bench.py
"""

import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from checks import check_fit
from inputs import SPECS, ler_x0, make_inputs
from spans import Recorder, layer_seconds, self_times

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def _bench(root: Path, workload: str, trace: int):
    return subprocess.run(
        [sys.executable, str(root / "bench" / "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "1", "--trace", str(trace), "--smoke"],
        capture_output=True, text=True, cwd=root, timeout=180,
    )


@pytest.fixture(scope="module")
def smoke_results():
    results = {}
    for workload in WORKLOADS:
        for trace in (0, 1):
            proc = _bench(ROOT, workload, trace)
            assert proc.returncode == 0, proc.stderr
            results[workload, trace] = json.loads(proc.stdout.strip().splitlines()[-1])
    return results


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_run_is_correct_and_reports_declared_metrics(smoke_results, workload, trace):
    result = smoke_results[workload, trace]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        name: m["unit"] for name, m in result["metrics"].items()
    }
    if trace:
        assert result["metrics"]["trace.replay_mismatches"]["value"] == 0
    else:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_every_per_layer_metric_is_measured_on_some_workload(smoke_results):
    measured = {
        name
        for workload in WORKLOADS
        for name, m in smoke_results[workload, 1]["metrics"].items()
        if m["value"] != 0
    }
    expected = {m["name"] for m in SPEC["per_layer"]}
    expected -= {"simlab.replication_failures", "trace.replay_mismatches"}
    assert expected <= measured


def test_refuses_a_directory_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench(tmp_path, WORKLOADS[0], 0)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout


def test_design_names_workloads_and_declared_metrics():
    design = json.loads((BENCH / "design.json").read_text())
    assert sorted(design["workloads"]) == sorted(WORKLOADS)
    declared = {m["name"] for m in SPEC["per_layer"]}
    for row in design["layer_map"]:
        for name in row["metric"].split(", "):
            names = [name.replace("<sys>", s) for s in SPECS] if "<sys>" in name else [name]
            assert set(names) <= declared, name


def test_inputs_follow_the_seed(tmp_path):
    a = make_inputs(5, True, tmp_path)
    b = make_inputs(5, True, tmp_path)
    c = make_inputs(6, True, tmp_path)
    assert [i.sha256 for i in a] == [i.sha256 for i in b]
    assert all(x.sha256 != y.sha256 for x, y in zip(a, c))


def test_ler_x0_matches_numerical_integration():
    rates = SPECS["ler"][1]
    t = np.linspace(0.0, 0.1, 100_001)
    surv = [np.exp(-r * t) for r in rates]
    rmst = [float(np.sum((s[1:] + s[:-1]) / 2 * np.diff(t))) for s in surv]
    expected = [rmst[0] / rmst[1], surv[0][-1], surv[1][-1], rmst[0], rmst[1]]
    assert np.allclose(ler_x0(rates), expected, rtol=1e-9, atol=0)


@pytest.fixture(scope="module")
def cli_outputs(tmp_path_factory):
    """Each smoke input with the directory the CLI wrote its fit to."""
    work = tmp_path_factory.mktemp("cli")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    outputs = []
    for inp in make_inputs(9, True, work):
        out = work / inp.name
        subprocess.run(
            [sys.executable, "-m", "hazard_transform.cli", "estimate", "--data",
             str(inp.path), "--out", str(out), *inp.flags],
            env=env, check=True, capture_output=True, timeout=120,
        )
        outputs.append((inp, out))
    return outputs


def _rewrite(out: Path, edit) -> None:
    lines = (out / "fit.csv").read_text().splitlines()
    (out / "fit.csv").write_text("\n".join(edit(lines)) + "\n")


def test_checks_pass_on_the_cli_output(cli_outputs):
    for inp, out in cli_outputs:
        assert check_fit(inp, out) == [], inp.name


@pytest.mark.parametrize("index", range(len(SPECS)))
def test_checks_catch_a_missing_row(cli_outputs, tmp_path, index):
    inp, out = cli_outputs[index]
    shutil.copytree(out, tmp_path / "fit")
    _rewrite(tmp_path / "fit", lambda lines: lines[:-1])
    assert any("rows" in p for p in check_fit(inp, tmp_path / "fit"))


@pytest.mark.parametrize("index", [0, 1])  # survival, cumulative_incidence
def test_checks_catch_a_broken_identity(cli_outputs, tmp_path, index):
    inp, out = cli_outputs[index]
    shutil.copytree(out, tmp_path / "fit")

    def shift(lines):
        cells = lines[10].split(",")
        cells[1] = repr(float(cells[1]) + 1e-9)  # X_1, inside its band
        return lines[:10] + [",".join(cells)] + lines[11:]

    _rewrite(tmp_path / "fit", shift)
    assert check_fit(inp, tmp_path / "fit")


def test_checks_catch_a_state_outside_its_band(cli_outputs, tmp_path):
    inp, out = cli_outputs[2]
    shutil.copytree(out, tmp_path / "fit")

    def escape(lines):
        header = lines[0].split(",")
        cells = lines[10].split(",")
        cells[header.index("X_1")] = repr(float(cells[header.index("hi_1")]) + 1.0)
        return lines[:10] + [",".join(cells)] + lines[11:]

    _rewrite(tmp_path / "fit", escape)
    assert any("lo <= X_1 <= hi" in p for p in check_fit(inp, tmp_path / "fit"))


def test_self_time_subtracts_children():
    spans = [
        {"id": 0, "name": "op", "tag": None, "start": 0.0, "end": 10.0, "parent": None, "op": 1},
        {"id": 1, "name": "a", "tag": "x", "start": 1.0, "end": 4.0, "parent": 0, "op": 1},
        {"id": 2, "name": "a", "tag": "x", "start": 5.0, "end": 6.0, "parent": 0, "op": 1},
        {"id": 3, "name": "b", "tag": None, "start": 2.0, "end": 3.0, "parent": 1, "op": 1},
    ]
    assert self_times(spans) == {0: 6.0, 1: 2.0, 2: 1.0, 3: 1.0}
    layers = layer_seconds(spans)
    assert layers[("a", "x")] == 3.0 and layers[("op", None)] == 6.0


def test_recorder_nests_and_adopts():
    rec = Recorder(op=7)
    with rec.span("outer"):
        with rec.span("inner", "t"):
            pass
        rec.adopt([{"id": 0, "name": "child", "tag": None, "start": 0.0,
                    "end": 0.0, "parent": None, "op": None}])
    outer, inner, child = rec.spans
    assert inner["parent"] == outer["id"] == child["parent"]
    assert child["id"] == 2 and child["op"] == 7
    assert all(math.isfinite(s["end"]) for s in rec.spans)
