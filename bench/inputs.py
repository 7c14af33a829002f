"""Inputs of the estimate-cli workload, drawn by the benchmark itself.

Three event-history CSVs come from NumPy draws seeded by the workload seed,
not from ``simulate_dataset``, so a change to the simulation lab cannot
change them.  Each input also carries what the output checks need: the
number of driver jumps the fit must have and, for survival, the
product-limit curve the fit must reproduce.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

HORIZON = 2.0
LER_START = 0.1
GRID_STEPS = 1000  # estimate_driver's default time grid: horizon / 1000

# name -> (subjects, event rates, censoring rate).  Survival has one event
# rate; cumulative incidence one rate per cause; ler one rate per group.
SPECS = {
    "survival": (100_000, (1.0,), 0.4),
    "cumulative_incidence": (30_000, (0.5, 0.3, 0.2), 0.4),
    "ler": (20_000, (1.0, 0.6), 0.3),
}
SMOKE_SUBJECTS = {"survival": 2_000, "cumulative_incidence": 1_000, "ler": 1_000}


@dataclass
class CliInput:
    name: str
    path: Path
    flags: list[str]  # estimate flags besides --data and --out
    sha256: str
    exit: np.ndarray
    code: np.ndarray
    expected_rows: int  # driver jumps + 1 (the t = 0 row)


def ler_x0(rates, start: float = LER_START) -> list[float]:
    """Exact ler state (R1/R2, S1, S2, R1, R2) at ``start`` for constant
    group hazards: S = exp(-rate t) and R = (1 - S) / rate."""
    s1, s2 = (math.exp(-r * start) for r in rates)
    r1, r2 = ((1.0 - s) / r for s, r in zip((s1, s2), rates))
    return [r1 / r2, s1, s2, r1, r2]


def _grid_times(horizon: float, step: float) -> np.ndarray:
    """The documented time grid: step, 2*step, ... closed at the horizon."""
    count = int(np.floor(horizon / step + 1e-12))
    times = np.arange(1, count + 1) * step
    if times.size and times[-1] > horizon:
        times[-1] = horizon
    if not times.size or times[-1] < horizon:
        times = np.append(times, horizon)
    return times


def _observe(rng, n: int, rate: float, censor: float):
    """Exit time min(event, censoring, horizon) and whether it is the event."""
    t_event = rng.exponential(1.0 / rate, n)
    t_cens = rng.exponential(1.0 / censor, n)
    exit_time = np.minimum(np.minimum(t_event, t_cens), HORIZON)
    return exit_time, t_event == exit_time


def _draw(name: str, n: int, rng):
    """Columns (exit, event code, group or None) for one input."""
    _, rates, censor = SPECS[name]
    if name == "survival":
        exit_time, event = _observe(rng, n, rates[0], censor)
        return exit_time, event.astype(np.int64), None
    if name == "cumulative_incidence":
        exit_time, event = _observe(rng, n, sum(rates), censor)
        cause = 1 + rng.choice(len(rates), size=n, p=np.array(rates) / sum(rates))
        return exit_time, np.where(event, cause, 0), None
    sizes = (n - n // 2, n // 2)
    draws = [_observe(rng, size, rate, censor) for size, rate in zip(sizes, rates)]
    exit_time = np.concatenate([d[0] for d in draws])
    code = np.concatenate([d[1] for d in draws]).astype(np.int64)
    group = np.repeat([1, 2], sizes)
    return exit_time, code, group


def _write_csv(path: Path, exit_time, code, group) -> str:
    lines = ["id,entry,exit,event" + (",group" if group is not None else "")]
    groups = group.tolist() if group is not None else None
    for i, (t, c) in enumerate(zip(exit_time.tolist(), code.tolist())):
        row = f"s{i + 1},0.0,{t!r},{c}"
        lines.append(row if groups is None else f"{row},{groups[i]}")
    data = ("\n".join(lines) + "\n").encode()
    path.write_bytes(data)
    return hashlib.sha256(data).hexdigest()


def make_inputs(seed: int, smoke: bool, directory: Path) -> list[CliInput]:
    """Draw and write the three CSVs; the same seed gives the same bytes."""
    inputs = []
    for index, (name, (n, rates, _)) in enumerate(SPECS.items()):
        if smoke:
            n = SMOKE_SUBJECTS[name]
        rng = np.random.default_rng(np.random.SeedSequence((seed, index)))
        exit_time, code, group = _draw(name, n, rng)
        path = directory / f"{name}.csv"
        sha = _write_csv(path, exit_time, code, group)

        jump_times = np.unique(exit_time[code > 0])
        flags = ["--system", name, "--horizon", repr(HORIZON)]
        if name == "cumulative_incidence":
            flags += ["--n-causes", str(len(rates))]
        if name == "ler":
            flags += ["--start", repr(LER_START)]
            flags += ["--x0", ",".join(repr(v) for v in ler_x0(rates))]
            jump_times = np.union1d(
                jump_times, _grid_times(HORIZON, HORIZON / GRID_STEPS)
            )
            jump_times = jump_times[jump_times > LER_START]
        inputs.append(
            CliInput(name, path, flags, sha, exit_time, code, jump_times.size + 1)
        )
    return inputs


def product_limit(inp: CliInput) -> np.ndarray:
    """Product-limit survival at t = 0 and at each event time (all entries 0)."""
    times, deaths = np.unique(inp.exit[inp.code == 1], return_counts=True)
    at_risk = inp.exit.size - np.searchsorted(np.sort(inp.exit), times, side="left")
    return np.concatenate([[1.0], np.cumprod(1.0 - deaths / at_risk)])
