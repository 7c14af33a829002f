"""Benchmark of hazard-transform: one workload per run.

    python3 bench/run.py --workload estimate-cli --seed 1 --seconds 20 --trace 0

Workloads (their design is in ``bench/design.json``):

* ``estimate-cli``: rounds of three ``hazard-transform estimate`` calls, one
  subprocess at a time, on CSVs the benchmark draws from the seed;
* ``coverage-study``: repeated in-process ``coverage_study`` calls;
* ``variance-study``: repeated in-process ``l2_convergence(target="variance")``
  calls.

Load is a closed loop with one client: an operation starts only after the
previous one returned, until ``--seconds`` have passed.  Every operation's
output is checked; one that exits nonzero, raises or fails a check counts as
failed.  The checked-out ``src/`` runs through ``PYTHONPATH``, and the run is
refused when ``hazard_transform`` resolves anywhere else.

With ``--trace 0`` the last line of standard output is a JSON object with the
end-to-end metrics of ``BENCHMARK.json``; with ``--trace 1`` every operation
is followed by a replay of it through the public functions with a span
around each call, and the JSON carries the per-layer metrics.  ``--smoke``
shrinks the inputs so that every workload and check runs in seconds.  A run
record (versions, load, input hashes, samples, spans) is written under
``.bench_run/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import shutil
import subprocess
import sys
import time
from pathlib import Path
from statistics import median

from checks import check_fit
from inputs import make_inputs
from spans import Recorder, layer_seconds

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
SETUP_SAMPLES = 5
CALL_TIMEOUT_S = 150

# Times the cold import in a fresh interpreter.  CLOCK_MONOTONIC is shared by
# all processes, so the child's reading lines up with the parent's.
PROBE = (
    "import time, hazard_transform; t = time.monotonic(); import json, sys; "
    "print(json.dumps({'t': t, 'file': hazard_transform.__file__, "
    "'numpy': sys.modules['numpy'].__version__, "
    "'scipy': getattr(sys.modules.get('scipy'), '__version__', None)}))"
)


class Refused(Exception):
    """The run cannot measure this checkout; no result is printed."""


def _run(argv, env, timeout=CALL_TIMEOUT_S):
    """Run a child to completion; return (wall seconds, CompletedProcess)."""
    t0 = time.monotonic()
    try:
        proc = subprocess.run(argv, env=env, capture_output=True, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        proc = subprocess.CompletedProcess(argv, -9, exc.stdout or "",
                                           f"timed out after {timeout} s")
    return time.monotonic() - t0, proc


def _failure(proc) -> list[str]:
    if proc.returncode == 0:
        return []
    return [f"exit {proc.returncode}: {proc.stderr.strip()[-500:]}"]


def _digest(directory: Path, names) -> str:
    h = hashlib.sha256()
    for name in names:
        h.update((directory / name).read_bytes())
    return h.hexdigest()


def measure_setup(env, samples: int):
    """Seconds from spawning an interpreter until ``import hazard_transform``
    returns, ``samples`` times; refuses a package outside ``src/``."""
    times, info = [], None
    for _ in range(samples):
        t0 = time.monotonic()
        _, proc = _run([sys.executable, "-c", PROBE], env)
        if proc.returncode != 0:
            raise Refused(f"cannot import hazard_transform: {proc.stderr[-500:]}")
        info = json.loads(proc.stdout.splitlines()[-1])
        if not Path(info["file"]).resolve().is_relative_to(SRC):
            raise Refused(f"hazard_transform resolves to {info['file']}, not {SRC}")
        times.append(info["t"] - t0)
    return times, info


# --------------------------------------------------------------------------
# estimate-cli


def _replay(run, rec, inp, artifacts):
    """Replay one estimate call with spans, under an op span of its own.

    Returns the replay's wall time and, unless it failed, its counts and the
    digest of what it wrote (which must equal the CLI's).
    """
    out = run.work / "replay"
    spans_file = run.work / "replay-spans.json"
    with rec.span("replay", inp.name) as op_span:
        _, proc = _run(
            [sys.executable, str(BENCH / "estimate_replay.py"),
             "--spans", str(spans_file), "--data", str(inp.path),
             "--out", str(out), *inp.flags],
            run.env,
        )
        traced = None
        if proc.returncode == 0:
            traced = json.loads(spans_file.read_text())
            rec.adopt(traced["spans"])
    if traced is None:
        run.record.setdefault("replay_errors", []).append(_failure(proc))
    else:
        traced["digest"] = _digest(out, artifacts)
    shutil.rmtree(out, ignore_errors=True)
    return op_span["end"] - op_span["start"], traced


def estimate_cli(run) -> dict:
    inputs = make_inputs(run.seed, run.smoke, run.work)
    run.record["inputs"] = {inp.path.name: inp.sha256 for inp in inputs}
    by_name = {inp.name: inp for inp in inputs}
    artifacts = ("fit.csv", "fit.json", "band.csv")
    walls = {name: [] for name in by_name}
    replay_walls = {name: [] for name in by_name}
    counts = {}
    rounds, calls, outputs = [], [], {}
    mismatches = 0
    rec = Recorder()

    start = time.monotonic()
    while not rounds or time.monotonic() - start < run.seconds:
        round_wall = 0.0
        for inp in inputs:
            out = run.work / f"out{len(calls)}"
            wall, proc = _run(
                [sys.executable, "-m", "hazard_transform.cli", "estimate",
                 "--data", str(inp.path), "--out", str(out), *inp.flags],
                run.env,
            )
            round_wall += wall
            walls[inp.name].append(wall)
            call = {"input": inp.name, "wall": wall, "problems": _failure(proc)}
            if not call["problems"]:
                call["digest"] = _digest(out, artifacts)
                key = (inp.name, call["digest"])
                if key in outputs:
                    shutil.rmtree(out)
                else:
                    outputs[key] = out
            calls.append(call)
            if run.trace:
                rec.op = len(calls)
                wall, traced = _replay(run, rec, inp, artifacts)
                replay_walls[inp.name].append(wall)
                if traced is None or traced["digest"] != call.get("digest"):
                    mismatches += 1
                if traced is not None:
                    counts[inp.name] = traced["counts"]
        rounds.append(round_wall)

    problems = {key: check_fit(by_name[key[0]], out) for key, out in outputs.items()}
    for call in calls:
        if "digest" in call:
            call["problems"] += problems[(call["input"], call["digest"])]
    run.record["calls"] = calls
    run.record["rounds"] = rounds
    report = {"op_s": rounds}
    report.update({f"estimate_s.{name}": w for name, w in walls.items()})
    if not run.trace:
        return {"calls": calls, "report": report}

    metrics = {}
    layers = layer_seconds(rec.spans)
    imports = [s["end"] - s["start"] for s in rec.spans if s["name"] == "cli.import"]
    metrics["cli.import_s"] = median(imports) if imports else 0.0
    overhead = 0.0
    for name in by_name:
        cli_wall = median(walls[name])
        overhead += median(replay_walls[name]) - cli_wall
        traced = {k[0]: v for k, v in layers.items() if k[1] == name and k[0] != "replay"}
        for span_name, secs in traced.items():
            if span_name != "cli.import":
                metrics[f"{span_name}_s.{name}"] = secs
        metrics[f"estimate_s.{name}"] = cli_wall
        metrics[f"cli.self_s.{name}"] = cli_wall - sum(traced.values())
        c = counts.get(name, {})
        if c:
            metrics[f"events.rows.{name}"] = c["rows"]
            metrics[f"events.parse_rows_per_s.{name}"] = (
                c["rows"] / traced["events.parse_dataset"]
            )
            metrics[f"hazards.jumps.{name}"] = c["jumps"]
            metrics[f"plugin.ns_per_jump.{name}"] = 1e9 * (
                traced["plugin.solve_plugin"] + traced["plugin.solve_variance"]
            ) / c["jumps"]
            metrics[f"plugin.write_fit_mb.{name}"] = c["write_fit_bytes"] / 1e6
    metrics["trace.overhead_s"] = overhead
    metrics["trace.replay_mismatches"] = mismatches
    run.spans = rec.spans
    return {"calls": calls, "metrics": metrics, "report": report}


# --------------------------------------------------------------------------
# coverage-study and variance-study


def study(run) -> dict:
    result_file = run.work / "study.json"
    wall, proc = _run(
        [sys.executable, str(BENCH / "study_worker.py"), "--workload", run.workload,
         "--seed", str(run.seed), "--seconds", str(run.seconds),
         "--trace", str(run.trace), "--out", str(run.work / "study"),
         "--result", str(result_file)] + (["--smoke"] if run.smoke else []),
        run.env,
        timeout=run.seconds + CALL_TIMEOUT_S,
    )
    if proc.returncode != 0:
        calls = [{"wall": wall, "problems": _failure(proc)}]
        return {"calls": calls, "report": {"op_s": [wall]}, "metrics": {}}
    out = json.loads(result_file.read_text())
    calls = out["calls"]
    walls = [c["wall"] for c in calls]
    run.record["calls"] = calls
    report = {"op_s": walls}
    if not run.trace:
        return {"calls": calls, "report": report}

    metrics = {}
    for (name, tag), secs in layer_seconds(out["spans"]).items():
        if name != "study":
            metrics[f"{name}_s" + (f".{tag}" if tag else "")] = secs
    replays = out["replays"]
    metrics["simlab.replications"] = median(r["used"] for r in replays)
    metrics["simlab.replication_failures"] = median(r["failures"] for r in replays)
    if "records_per_subject" in replays[0]:
        metrics["simlab.records_per_subject"] = replays[0]["records_per_subject"]
        metrics["simlab.bootstrap_resamples_per_s"] = (
            replays[0]["bootstrap_b"] / metrics["simlab.bootstrap_covariance_s"]
        )
    metrics["trace.overhead_s"] = median(out["traced"]) - median(walls)
    metrics["trace.replay_mismatches"] = sum(not r["matches"] for r in replays)
    run.spans = out["spans"]
    return {"calls": calls, "metrics": metrics, "report": report}


WORKLOADS = {
    "estimate-cli": estimate_cli,
    "coverage-study": study,
    "variance-study": study,
}


# --------------------------------------------------------------------------


class Run:
    def __init__(self, args):
        self.workload = args.workload
        self.seed = args.seed
        self.seconds = args.seconds
        self.trace = args.trace
        self.smoke = args.smoke
        name = f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
        self.dir = ROOT / ".bench_run" / name
        self.work = self.dir / "work"
        self.work.mkdir(parents=True, exist_ok=True)
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p
        )
        self.record = {"workload": args.workload, "seed": args.seed,
                       "seconds": args.seconds, "trace": args.trace,
                       "smoke": args.smoke}
        self.spans = []


def _loadavg():
    try:
        return Path("/proc/loadavg").read_text().split()[:3]
    except OSError:
        return None


def _git():
    if not (ROOT / ".git").exists():
        return {"sha": None, "dirty": None}
    sha = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                         capture_output=True, text=True)
    status = subprocess.run(["git", "-C", str(ROOT), "status", "--porcelain"],
                            capture_output=True, text=True)
    return {"sha": sha.stdout.strip() or None, "dirty": bool(status.stdout.strip())}


def _describe(name, samples, unit) -> str:
    n = len(samples)
    text = f"{name}: median {median(samples):.6g} {unit} over {n} samples"
    tails = [p for p in (99.9, 99, 90) if n * (1 - p / 100) >= 10]
    if tails:
        ordered = sorted(samples)
        p = tails[0]
        text += f", p{p:g} {ordered[int(p / 100 * (n - 1))]:.6g} {unit}"
    return text


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs, for the benchmark's own tests")
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if not (SRC / "hazard_transform" / "__init__.py").is_file():
        print(f"bench: no package source under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())

    run = Run(args)
    run.record.update(git=_git(), python=sys.version.split()[0],
                      nproc=len(os.sched_getaffinity(0)),
                      loadavg_before=_loadavg())
    try:
        setup, info = measure_setup(run.env, 2 if args.smoke else SETUP_SAMPLES)
    except Refused as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    run.record.update(numpy=info["numpy"], scipy=info["scipy"], package=info["file"],
                      setup_s=setup)
    outcome = WORKLOADS[args.workload](run)
    run.record["loadavg_after"] = _loadavg()

    calls = outcome["calls"]
    attempted = len(calls)
    failed = sum(bool(c["problems"]) for c in calls)
    if args.trace:
        declared = spec["per_layer"]
        values = outcome["metrics"]
    else:
        declared = spec["end_to_end"]
        rss_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        values = {
            "op_s": median(outcome["report"]["op_s"]),
            "setup_s": median(setup),
            "peak_rss_mb": rss_kb / 1024,
            "ok_ops_ratio": (attempted - failed) / attempted,
        }
    metrics = {m["name"]: {"value": values.get(m["name"], 0.0), "unit": m["unit"]}
               for m in declared}
    run.record["metrics"] = metrics
    run.record["unreported"] = sorted(set(values) - set(metrics))
    (run.dir / "record.json").write_text(json.dumps(run.record, indent=1) + "\n")
    (run.dir / "spans.json").write_text(json.dumps(run.spans) + "\n")
    shutil.rmtree(run.work)

    print(f"run record: {run.dir.relative_to(ROOT)}/record.json")
    for name, sha in run.record.get("inputs", {}).items():
        print(f"input {name} sha256 {sha}")
    print(_describe("setup_s", setup, "s"))
    for name, samples in outcome["report"].items():
        print(_describe(name, samples, "s"))
    for call in calls:
        for problem in call["problems"]:
            print(f"FAILED: {problem}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
