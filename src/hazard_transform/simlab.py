"""Simulation laboratory: scenarios, oracles, convergence and coverage studies.

Everything here is deterministic given a 64-bit seed: replication ``j`` of a
study draws from an independent substream derived from ``(seed, j)``, so
results are independent of execution order and of how many worker processes
run the replications.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Mapping

import numpy as np

from .errors import (
    ConfigError,
    DataError,
    GuardViolation,
    HazardTransformError,
    _number,
    _numbers,
)
from .events import EventDataset
from .hazards import _events, _grid_times, _RiskSet, _slot_sources, estimate_driver
from .paths import StepPath
from .plugin import _states, confidence_band, fit_plugin, solve_plugin
from .systems import SystemKind, driver_slots, make_system

__all__ = [
    "HazardSpec",
    "ConstantHazard",
    "LinearHazard",
    "TableHazard",
    "hazard_from_config",
    "Scenario",
    "simulate_dataset",
    "oracle_parameter",
    "sup_distance",
    "l2_distance",
    "l2_convergence",
    "coverage_study",
    "bootstrap_covariance",
    "wilson_interval",
    "StudyResult",
    "write_study",
]

_BISECT_TOL = 1e-10


class HazardSpec:
    """A hazard-rate specification on a window ``[0, horizon]``.

    Subclasses provide ``rate(t)`` and the exact cumulative ``cumulative(t)``
    (both vectorized); event times are drawn by inverting the cumulative
    against unit-exponential exposures with a bisection solve.
    """

    horizon: float

    def rate(self, t):
        raise NotImplementedError

    def cumulative(self, t):
        raise NotImplementedError

    def to_config(self) -> dict:
        raise NotImplementedError

    def invert(self, targets) -> np.ndarray:
        """Solve ``cumulative(t) = target`` on [0, horizon] to 1e-10.

        Entries whose target exceeds ``cumulative(horizon)`` come back as
        ``inf`` (no event inside the window).
        """
        targets = np.atleast_1d(np.asarray(targets, dtype=float))
        out = np.full(targets.shape, np.inf)
        total = float(self.cumulative(self.horizon))
        active = targets <= total
        if active.any():
            t = targets[active]
            lo = np.zeros(t.size)
            hi = np.full(t.size, float(self.horizon))
            while (hi - lo).max() > _BISECT_TOL:
                mid = 0.5 * (lo + hi)
                below = self.cumulative(mid) < t
                lo = np.where(below, mid, lo)
                hi = np.where(below, hi, mid)
            out[active] = 0.5 * (lo + hi)
        return out


@dataclass(frozen=True)
class ConstantHazard(HazardSpec):
    rate_value: float
    horizon: float

    def __post_init__(self):
        if self.rate_value < 0:
            raise ConfigError("hazard rate must be nonnegative")
        if not self.horizon > 0:
            raise ConfigError("horizon must be positive")

    def rate(self, t):
        return np.full_like(np.asarray(t, dtype=float), self.rate_value)

    def cumulative(self, t):
        return self.rate_value * np.asarray(t, dtype=float)

    def to_config(self) -> dict:
        return {"form": "constant", "rate": self.rate_value, "horizon": self.horizon}


@dataclass(frozen=True)
class LinearHazard(HazardSpec):
    """Rate ``intercept + slope * t``; must stay nonnegative on the window."""

    intercept: float
    slope: float
    horizon: float

    def __post_init__(self):
        if not self.horizon > 0:
            raise ConfigError("horizon must be positive")
        if self.rate(0.0) < 0 or self.rate(self.horizon) < 0:
            raise ConfigError("linear hazard is negative somewhere on [0, horizon]")

    def rate(self, t):
        return self.intercept + self.slope * np.asarray(t, dtype=float)

    def cumulative(self, t):
        t = np.asarray(t, dtype=float)
        return self.intercept * t + 0.5 * self.slope * t**2

    def to_config(self) -> dict:
        return {
            "form": "linear",
            "intercept": self.intercept,
            "slope": self.slope,
            "horizon": self.horizon,
        }


@dataclass(frozen=True)
class TableHazard(HazardSpec):
    """Tabulated rate with linear interpolation between knots.

    Outside the knot range the rate extends as a constant; the cumulative is
    the exact integral of the interpolated rate (trapezoids).
    """

    knot_times: tuple[float, ...]
    knot_rates: tuple[float, ...]
    horizon: float

    def __post_init__(self):
        object.__setattr__(self, "knot_times", tuple(float(v) for v in self.knot_times))
        object.__setattr__(self, "knot_rates", tuple(float(v) for v in self.knot_rates))
        if not self.horizon > 0:
            raise ConfigError("horizon must be positive")
        kt = np.asarray(self.knot_times)
        kr = np.asarray(self.knot_rates)
        if kt.size < 1 or kt.size != kr.size:
            raise ConfigError("table hazard needs matching knot times and rates")
        if kt.size > 1 and not np.all(np.diff(kt) > 0):
            raise ConfigError("table knot times must be strictly increasing")
        if (kr < 0).any():
            raise ConfigError("table hazard rates must be nonnegative")
        if kt[0] < 0:
            raise ConfigError("table knot times must be nonnegative")

    def rate(self, t):
        return np.interp(np.asarray(t, dtype=float), self.knot_times, self.knot_rates)

    def cumulative(self, t):
        t = np.asarray(t, dtype=float)
        kt = np.asarray(self.knot_times)
        kr = np.asarray(self.knot_rates)
        # exact cumulative at the knots (leading constant piece before kt[0])
        knot_cum = np.concatenate(
            [[kr[0] * kt[0]], kr[0] * kt[0] + np.cumsum(np.diff(kt) * 0.5 * (kr[1:] + kr[:-1]))]
        )
        idx = np.searchsorted(kt, t, side="right") - 1
        below = idx < 0
        idx_c = np.clip(idx, 0, kt.size - 1)
        dt = t - kt[idx_c]
        seg = knot_cum[idx_c] + dt * 0.5 * (kr[idx_c] + self.rate(t))
        out = np.where(below, kr[0] * t, seg)
        return out if out.shape else float(out)

    def to_config(self) -> dict:
        return {
            "form": "table",
            "times": list(self.knot_times),
            "rates": list(self.knot_rates),
            "horizon": self.horizon,
        }


def hazard_from_config(cfg: dict) -> HazardSpec:
    """Build a hazard spec from its dict form (see each class's to_config)."""
    if not isinstance(cfg, dict) or "form" not in cfg:
        raise ConfigError("hazard config must be a mapping with a 'form' key")
    form = cfg["form"]
    for key, value in cfg.items():
        if key in ("times", "rates"):
            _numbers(value, f"hazard {key!r}")
        elif key in ("rate", "intercept", "slope", "horizon"):
            _number(value, f"hazard {key!r}")
    try:
        if form == "constant":
            return ConstantHazard(rate_value=cfg["rate"], horizon=cfg["horizon"])
        if form == "linear":
            return LinearHazard(
                intercept=cfg["intercept"], slope=cfg["slope"], horizon=cfg["horizon"]
            )
        if form == "table":
            return TableHazard(
                knot_times=tuple(cfg["times"]),
                knot_rates=tuple(cfg["rates"]),
                horizon=cfg["horizon"],
            )
    except KeyError as exc:
        raise ConfigError(f"hazard config missing key: {exc}") from None
    raise ConfigError(f"unknown hazard form: {form!r}")


class _SumHazard(HazardSpec):
    """Internal: total hazard of competing causes (for drawing event times)."""

    def __init__(self, parts):
        self.parts = list(parts)
        self.horizon = self.parts[0].horizon

    def cumulative(self, t):
        return sum(p.cumulative(t) for p in self.parts)

    def rate(self, t):
        return sum(p.rate(t) for p in self.parts)


@dataclass(frozen=True)
class Scenario:
    """Data-generating configuration for one simulated study.

    ``hazards`` is keyed by the driver-slot roles of the system (for example
    ``event`` for survival, ``group1``/``group0`` for relative survival,
    ``recurrent``/``terminal`` for mean frequency).  Censoring, if any, is an
    independent right-censoring hazard drawn the same way.
    """

    system: SystemKind | str
    hazards: Mapping[str, HazardSpec]
    n: int
    seed: int
    k_replications: int = 1
    censor: HazardSpec | None = None

    def __post_init__(self):
        if isinstance(self.system, str):
            object.__setattr__(self, "system", SystemKind(name=self.system))
        object.__setattr__(self, "hazards", dict(self.hazards))
        if self.n < 1:
            raise ConfigError("scenario needs n >= 1 subjects")
        if self.k_replications < 1:
            raise ConfigError("scenario needs k_replications >= 1")
        if self.seed < 0:
            raise ConfigError("seed must be a nonnegative integer")
        roles = [s.role for s in driver_slots(self.system) if not s.deterministic]
        missing = [r for r in roles if r not in self.hazards]
        if missing:
            raise ConfigError(f"scenario missing hazard(s) for role(s): {missing}")
        extra = [r for r in self.hazards if r not in roles]
        if extra:
            raise ConfigError(f"scenario has hazard(s) for unknown role(s): {extra}")
        horizons = {spec.horizon for spec in self.hazards.values()}
        if self.censor is not None:
            horizons.add(self.censor.horizon)
        if len(horizons) != 1:
            raise ConfigError("all hazards in a scenario must share one horizon")

    @property
    def horizon(self) -> float:
        return next(iter(self.hazards.values())).horizon

    def describe(self) -> dict:
        return {
            "system": {
                "name": self.system.name,
                "n_causes": self.system.n_causes,
                "prevalence": self.system.prevalence,
                "initial_value": list(self.system.initial_value)
                if self.system.initial_value is not None
                else None,
            },
            "hazards": {role: h.to_config() for role, h in self.hazards.items()},
            "censor": None if self.censor is None else self.censor.to_config(),
            "n": self.n,
            "k_replications": self.k_replications,
            "seed": self.seed,
        }


def _child_seed(seed: int, *key: int) -> int:
    """64-bit substream seed derived deterministically from (seed, *key)."""
    return int(np.random.SeedSequence((seed, *key)).generate_state(1, np.uint64)[0])


def _censor_times(rng, censor, n):
    """Censoring times of ``n`` subjects; ``inf`` (and no draw) without
    censoring."""
    if censor is None:
        return np.full(n, np.inf)
    return censor.invert(rng.exponential(size=n))


def _single_spell(rng, hazard, censor, horizon, n):
    """Draw one spell per subject: event vs censoring vs horizon.

    Returns the exit times and the event codes (1 event, 0 censored).
    """
    t_event = hazard.invert(rng.exponential(size=n))
    exit_time = np.minimum(np.minimum(t_event, _censor_times(rng, censor, n)), horizon)
    return exit_time, (t_event == exit_time).astype(np.int64)


def _recurrent_times(rng, recurrent, follow):
    """Recurrent event times before each subject's follow-up end.

    Subject ``i`` accumulates unit-exponential gap exposures on the recurrent
    hazard's clock and has an event at ``recurrent.invert(clock)`` for as long
    as that time is ``< follow[i]``; the first exposure that lands at or past
    ``follow[i]`` ends the subject, and the next subject starts on the next
    draw.  The exposures are drawn in bulk and split per subject in clock
    space against ``recurrent.cumulative(follow)``, then every clock is
    inverted in one call.  A subject whose inverted times disagree with the
    clock-space split (a clock within the bisection tolerance of its bound)
    is redone one inversion at a time, and the split restarts after it, so
    the result equals the one-draw-at-a-time loop.  (A vector inversion gives
    each element what a scalar call gives: all intervals start at
    ``[0, horizon]`` and are halved together.)

    Returns ``(counts, times)``: events per subject and all event times,
    subject by subject.
    """
    n = follow.size
    cap = recurrent.cumulative(follow)
    bound = cap.tolist()
    limit = follow.tolist()
    # About n + sum(cap) draws are used.  Bulk draws continue the stream of
    # scalar draws, and nothing draws from ``rng`` afterwards, so drawing too
    # many changes nothing.
    gaps = rng.exponential(size=n + int(2 * cap.sum()) + 16).tolist()
    counts: list[int] = []
    times: list[float] = []
    pos = 0

    def gap():
        nonlocal pos
        if pos == len(gaps):
            gaps.extend(rng.exponential(size=n).tolist())
        pos += 1
        return gaps[pos - 1]

    first = 0
    while first < n:
        starts, clocks, owner = [], [], []
        for i in range(first, n):
            starts.append(pos)
            clock = 0.0
            while True:
                clock += gap()
                clocks.append(clock)
                owner.append(i)
                if not clock < bound[i]:
                    break
        owner = np.array(owner)
        clocks = np.array(clocks)
        inv = recurrent.invert(clocks)
        event = inv < follow[owner]
        misfit = np.flatnonzero(event != (clocks < cap[owner]))
        done = int(owner[misfit[0]]) if misfit.size else n
        keep = owner < done
        spells = np.bincount(owner[keep] - first, minlength=done - first)
        counts += (spells - 1).tolist()
        times += inv[keep & event].tolist()
        if done < n:
            pos = starts[done - first]
            count, clock = 0, 0.0
            while True:
                clock += gap()
                t_next = float(recurrent.invert(clock)[0])
                if not t_next < limit[done]:
                    break
                times.append(t_next)
                count += 1
            counts.append(count)
            done += 1
        first = done
    return counts, times


def simulate_dataset(sc: Scenario) -> EventDataset:
    """Simulate one dataset for the scenario (pure in the scenario's seed).

    Event times come from inverse-transform sampling of each cumulative
    hazard against unit-exponential exposures; competing causes draw the
    cause label from the rates at the event time; recurrent-event scenarios
    draw successive gap exposures on the recurrent hazard's clock until the
    terminal event, censoring, or the horizon.
    """
    rng = np.random.default_rng(np.random.SeedSequence((sc.seed,)))
    horizon = sc.horizon
    name = sc.system.name
    subject = np.arange(sc.n)
    group = None

    if name in ("survival", "rmst"):
        exit_time, code = _single_spell(
            rng, sc.hazards["event"], sc.censor, horizon, sc.n
        )

    elif name in ("relative_survival", "led", "ler", "screening"):
        slots = [s for s in driver_slots(sc.system) if not s.deterministic]
        sizes = [sc.n - sc.n // 2, sc.n // 2]
        drawn = [
            _single_spell(rng, sc.hazards[slot.role], sc.censor, horizon, size)
            for slot, size in zip(slots, sizes)
        ]
        exit_time = np.concatenate([spell[0] for spell in drawn])
        code = np.concatenate([spell[1] for spell in drawn])
        group = np.repeat([slot.group for slot in slots], sizes)

    elif name == "cumulative_incidence":
        roles = [f"cause{j + 1}" for j in range(sc.system.n_causes)]
        parts = [sc.hazards[r] for r in roles]
        total = _SumHazard(parts)
        t_event = total.invert(rng.exponential(size=sc.n))
        u_cause = rng.random(sc.n)
        t_cens = _censor_times(rng, sc.censor, sc.n)
        exit_time = np.minimum(np.minimum(t_event, t_cens), horizon)
        # The cause is drawn from the cause rates at the event time.
        hit = t_event == exit_time
        rates = np.array([p.rate(t_event[hit]) for p in parts], dtype=float)
        srate = rates.sum(axis=0)
        probs = np.full(rates.shape, 1.0 / len(parts))
        np.divide(rates, srate, out=probs, where=srate > 0)
        below = np.cumsum(probs, axis=0) < u_cause[hit]
        code = np.zeros(sc.n, dtype=np.int64)
        code[hit] = np.minimum(1 + below.sum(axis=0), len(parts))

    else:  # mean_frequency
        recurrent = sc.hazards["recurrent"]
        terminal = sc.hazards["terminal"]
        t_term = terminal.invert(rng.exponential(size=sc.n))
        t_cens = _censor_times(rng, sc.censor, sc.n)
        follow = np.minimum(np.minimum(t_term, t_cens), horizon)
        counts, times = _recurrent_times(rng, recurrent, follow)
        # Each subject's spells run 0 -> t_1 -> ... -> t_k (code 1 each),
        # then a last spell to its follow-up end (terminal 2, censored 0).
        counts = np.asarray(counts)
        times = np.asarray(times, dtype=float)
        ends = np.cumsum(counts)
        last_code = np.where(t_term == follow, 2, 0)
        return EventDataset.from_columns(
            np.repeat(subject, counts + 1),
            np.insert(times, ends - counts, 0.0),
            np.insert(times, ends, follow),
            np.insert(np.ones(times.size, dtype=np.int64), ends, last_code),
            horizon,
        )

    return EventDataset.from_columns(
        subject, np.zeros(sc.n), exit_time, code, horizon, group=group
    )


def _oracle_driver(sc_hazards, kind, horizon, step, start=0.0):
    """Exact cumulative hazards discretized on a fine grid (with time slots)."""
    times = _grid_times(horizon, step, start)
    slots = driver_slots(kind)
    increments = np.empty((times.size, len(slots)))
    prev = np.concatenate([[start], times[:-1]])
    for c, slot in enumerate(slots):
        if slot.deterministic:
            increments[:, c] = times - prev
        else:
            spec = sc_hazards[slot.role]
            increments[:, c] = spec.cumulative(times) - spec.cumulative(prev)
    return StepPath(
        times=times,
        increments=increments,
        origin_value=np.zeros(len(slots)),
        horizon=horizon,
    )


def oracle_parameter(
    hazards: Mapping[str, HazardSpec],
    system: SystemKind,
    fine_step: float | None = None,
    x0_override=None,
    start: float = 0.0,
) -> StepPath:
    """Reference parameter path: the plugin recursion on exact hazards.

    Discretizes the exact cumulative hazards on a fine grid (default step
    ``span / 1e5``) and solves the system.  The sup distance to the exact
    parameter shrinks linearly with the step and is a few parts in 1e6 at
    the default for unit-scale problems.  ``start``/``x0_override`` allow
    launching from an interior state for systems whose natural baseline sits
    on a guard.
    """
    if isinstance(system, str):
        system = SystemKind(name=system)
    horizon = next(iter(hazards.values())).horizon
    if fine_step is None:
        fine_step = (horizon - start) / 1e5
    driver = _oracle_driver(hazards, system, horizon, fine_step, start=start)
    return solve_plugin(make_system(system), driver, x0_override=x0_override)


def sup_distance(a: StepPath, b: StepPath, component: int | None = None) -> float:
    """Exact sup-norm distance between two step paths on their window."""
    if a.horizon != b.horizon:
        raise ValueError("paths must share a horizon")
    knots = np.concatenate([[0.0], np.union1d(a.times, b.times)])
    va = a.value_at(knots)
    vb = b.value_at(knots)
    if component is not None:
        va = va[:, [component]]
        vb = vb[:, [component]]
    return float(np.abs(va - vb).max())


def l2_distance(
    a: StepPath, b: StepPath, component_a: int, component_b: int, upto: float
) -> float:
    """Exact integral of ``(a - b)^2`` over ``[0, upto]`` for step paths."""
    ts = np.union1d(a.times, b.times)
    ts = ts[(ts > 0.0) & (ts < upto)]
    knots = np.concatenate([[0.0], ts, [upto]])
    va = a.value_at(knots[:-1])[:, component_a]
    vb = b.value_at(knots[:-1])[:, component_b]
    return float(np.sum((va - vb) ** 2 * np.diff(knots)))


def _variance_step_path(fit, component: int) -> StepPath:
    # Estimator-variance scale (the square of the band half-width): the
    # covariance recursion output divided by the sample size, so paths fitted
    # at different n live in comparable units and a large-sample reference is
    # close to the common limit of all of them.
    diag = fit.cov_diag()[:, component] / fit.scale_n
    return StepPath.from_values(fit.times, diag, fit.state_path.horizon)


@dataclass
class StudyResult:
    """Tabular outcome of a study plus run metadata (seeds, failures)."""

    kind: str
    columns: tuple[str, ...]
    rows: list[tuple]
    metadata: dict


def write_study(result: StudyResult, base) -> None:
    """Write a study as ``<base>.csv`` (rows) + ``<base>.json`` (metadata)."""
    base = Path(base)
    with open(base.with_suffix(".csv"), "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(result.columns)
        for row in result.rows:
            writer.writerow(
                [str(v) if isinstance(v, int) else repr(float(v)) for v in row]
            )
    with open(base.with_suffix(".json"), "w") as fh:
        json.dump(result.metadata, fh, indent=2)
        fh.write("\n")


def wilson_interval(successes: int, trials: int, z: float = 1.959963984540054):
    """Wilson score interval for a binomial proportion (95% by default)."""
    if trials < 1:
        return (float("nan"), float("nan"))
    p = successes / trials
    z2 = z * z
    denom = 1.0 + z2 / trials
    center = (p + z2 / (2.0 * trials)) / denom
    half = z * np.sqrt(p * (1.0 - p) / trials + z2 / (4.0 * trials**2)) / denom
    return (center - half, center + half)


# ---------------------------------------------------------------------------
# Replication execution.  Workers read shared, read-only context from a
# module global installed by the pool initializer (or directly for serial
# runs), and every task carries its own derived seed, so results do not
# depend on how tasks are distributed.

_CTX: dict = {}


def _init_worker(ctx):
    _CTX.clear()
    _CTX.update(ctx)


def _run_tasks(worker, tasks, ctx, n_jobs: int):
    if n_jobs <= 1:
        _init_worker(ctx)
        return [worker(t) for t in tasks]
    # Imported here: it pulls in multiprocessing, socket and logging, which
    # a serial run (and every CLI call) would otherwise load for nothing.
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(
        max_workers=n_jobs, initializer=_init_worker, initargs=(ctx,)
    ) as pool:
        chunk = max(1, len(tasks) // (8 * n_jobs))
        return list(pool.map(worker, tasks, chunksize=chunk))


def _fit_replication(seed: int, n: int):
    """Simulate and fit one replication per the shared context."""
    sc = replace(_CTX["scenario"], n=n, seed=seed, k_replications=1)
    ds = simulate_dataset(sc)
    driver, meta = estimate_driver(ds, sc.system, grid_step=_CTX["grid_step"])
    return fit_plugin(make_system(sc.system), driver, meta)


def _conv_worker(task):
    idx, j, n, seed = task
    try:
        if _CTX["target"] == "estimate":
            sc = replace(_CTX["scenario"], n=n, seed=seed, k_replications=1)
            ds = simulate_dataset(sc)
            driver, _ = estimate_driver(ds, sc.system, grid_step=_CTX["grid_step"])
            path = solve_plugin(make_system(sc.system), driver)
            comp = _CTX["component"]
        else:
            fit = _fit_replication(seed, n)
            path = _variance_step_path(fit, _CTX["component"])
            comp = 0
        value = l2_distance(
            _CTX["target_path"], path, _CTX["target_component"], comp, _CTX["upto"]
        )
        return (idx, j, value, None)
    except HazardTransformError as exc:
        return (idx, j, None, type(exc).__name__)


def _cov_worker(task):
    j, seed = task
    try:
        fit = _fit_replication(seed, _CTX["scenario"].n)
        band = confidence_band(fit, _CTX["level"])
        _, lo, hi = band.value_at(_CTX["t_grid"])
        comp = _CTX["component"]
        truth = _CTX["oracle_values"]
        covered = (lo[:, comp] <= truth) & (truth <= hi[:, comp])
        return (j, covered, None)
    except HazardTransformError as exc:
        return (j, None, type(exc).__name__)


def _component(kind: SystemKind, component) -> int:
    """The state component a study reads: ``component``, by default the one
    the system is named after; anything but ``0 <= component < state_dim``
    is a :class:`ConfigError`."""
    if component is None:
        return kind.headline_index
    dim = make_system(kind).state_dim
    if not 0 <= _number(component, "component", integer=True) < dim:
        raise ConfigError(f"component must be in 0..{dim - 1}, got {component}")
    return int(component)


def l2_convergence(
    sc: Scenario,
    n_list,
    target: str = "estimate",
    component: int | None = None,
    grid_step: float | None = None,
    oracle_step: float | None = None,
    bootstrap_n: int | None = None,
    bootstrap_b: int = 500,
    n_jobs: int = 1,
) -> StudyResult:
    """Monte Carlo L2 criterion over sample sizes.

    For each ``n`` runs ``sc.k_replications`` independent replications and
    averages the exact integral of the squared distance between the fitted
    path and a reference: the fine-grid oracle parameter when ``target`` is
    ``"estimate"``, or a large-sample bootstrap variance path when ``target``
    is ``"variance"`` (reference dataset of ``bootstrap_n`` subjects, default
    ``4 * max(n_list)``, with ``bootstrap_b`` resamples).  The variance
    comparison is made on the estimator-variance scale -- each fitted
    covariance diagonal divided by its own sample size, against the bootstrap
    variance of the reference-sample estimator -- so the reference plays the
    role of the common (near-zero) large-sample limit.

    ``n_list`` must be a non-empty list of integers >= 1 and ``bootstrap_b``
    an integer >= 2; anything else raises :class:`ConfigError` before any
    simulation runs.  Failed replications (guard trips, variance collapse)
    are excluded from the averages and counted per sample size in the
    metadata.
    """
    if target not in ("estimate", "variance"):
        raise ConfigError("target must be 'estimate' or 'variance'")
    kind = sc.system
    comp = _component(kind, component)
    horizon = sc.horizon
    n_list = [int(v) for v in _numbers(n_list, "n_list", integer=True)]
    if not n_list or min(n_list) < 1:
        raise ConfigError(
            f"n_list must be a non-empty list of sample sizes >= 1, got {n_list!r}"
        )
    if _number(bootstrap_b, "bootstrap_b", integer=True) < 2:
        raise ConfigError(f"bootstrap_b must be an integer >= 2, got {bootstrap_b!r}")

    if target == "estimate":
        target_path = oracle_parameter(sc.hazards, kind, fine_step=oracle_step)
        target_component = comp
    else:
        ref_n = bootstrap_n if bootstrap_n is not None else 4 * max(n_list)
        ref_sc = replace(sc, n=ref_n, seed=_child_seed(sc.seed, 1), k_replications=1)
        ref_ds = simulate_dataset(ref_sc)
        grid, cov = bootstrap_covariance(
            ref_ds,
            kind,
            b=bootstrap_b,
            seed=_child_seed(sc.seed, 2),
            grid_step=grid_step,
        )
        # Bring the reference onto the estimator-variance scale: the bootstrap
        # returns the covariance of sqrt(n) * (X* - X_hat), so dividing by the
        # reference sample size yields the variance of the reference estimator
        # itself -- the same units as each replication's V_hat / n.
        target_path = StepPath.from_values(
            grid, np.concatenate([[0.0], cov[:, comp, comp] / ref_n]), horizon
        )
        target_component = 0

    ctx = {
        "scenario": sc,
        "grid_step": grid_step,
        "component": comp,
        "target": target,
        "target_path": target_path,
        "target_component": target_component,
        "upto": horizon,
    }
    tasks = [
        (i, j, n, _child_seed(sc.seed, 0, i, j))
        for i, n in enumerate(n_list)
        for j in range(sc.k_replications)
    ]
    results = _run_tasks(_conv_worker, tasks, ctx, n_jobs)

    sums = np.zeros(len(n_list))
    counts = np.zeros(len(n_list), dtype=int)
    failures = {n: 0 for n in n_list}
    for idx, _, value, err in results:
        if err is None:
            sums[idx] += value
            counts[idx] += 1
        else:
            failures[n_list[idx]] += 1
    rows = [
        (n, sums[i] / counts[i] if counts[i] else float("nan"))
        for i, n in enumerate(n_list)
    ]
    metadata = {
        "study": "convergence",
        "target": target,
        "component": comp,
        "seed": sc.seed,
        "k_replications": sc.k_replications,
        "n_list": n_list,
        "failures": {str(n): c for n, c in failures.items() if c},
        "scenario": sc.describe(),
    }
    if target == "variance":
        metadata["bootstrap_n"] = ref_n
        metadata["bootstrap_b"] = bootstrap_b
    return StudyResult(
        kind="convergence", columns=("n", "L"), rows=rows, metadata=metadata
    )


def coverage_study(
    sc: Scenario,
    level: float = 0.95,
    t_grid=None,
    component: int | None = None,
    grid_step: float | None = None,
    oracle_step: float | None = None,
    n_jobs: int = 1,
) -> StudyResult:
    """Empirical pointwise coverage of the plugin confidence band.

    Each replication simulates a dataset, fits state and covariance paths,
    builds the band at ``level``, and records per time-grid point whether the
    band covers the oracle parameter.  Rows carry the coverage proportion
    with a 95% Wilson interval; the requested level is echoed as a constant
    reference column.  Times in ``t_grid`` must lie in ``[0, horizon]``.
    """
    if not 0.0 < level < 1.0:
        raise ConfigError("level must be strictly between 0 and 1")
    kind = sc.system
    comp = _component(kind, component)
    horizon = sc.horizon
    if t_grid is None:
        t_grid = np.linspace(0.2 * horizon, 0.8 * horizon, 13)
    t_grid = np.asarray(t_grid, dtype=float)
    outside = t_grid[~((t_grid >= 0.0) & (t_grid <= horizon))]
    if outside.size:
        raise ConfigError(
            f"t_grid values must lie in [0, {horizon}], got {outside.tolist()}"
        )

    oracle = oracle_parameter(sc.hazards, kind, fine_step=oracle_step)
    oracle_values = oracle.value_at(t_grid)[:, comp]

    ctx = {
        "scenario": sc,
        "grid_step": grid_step,
        "component": comp,
        "level": level,
        "t_grid": t_grid,
        "oracle_values": oracle_values,
    }
    tasks = [(j, _child_seed(sc.seed, 0, j)) for j in range(sc.k_replications)]
    results = _run_tasks(_cov_worker, tasks, ctx, n_jobs)

    hits = np.zeros(t_grid.size, dtype=int)
    used = 0
    failures: dict[str, int] = {}
    for _, covered, err in results:
        if err is None:
            hits += covered
            used += 1
        else:
            failures[err] = failures.get(err, 0) + 1
    rows = []
    for i, t in enumerate(t_grid):
        coverage = hits[i] / used if used else float("nan")
        lo, hi = wilson_interval(int(hits[i]), used)
        rows.append((float(t), coverage, lo, hi, level))
    metadata = {
        "study": "coverage",
        "level": level,
        "component": comp,
        "seed": sc.seed,
        "k_replications": sc.k_replications,
        "replications_used": used,
        "failures": failures,
        "scenario": sc.describe(),
    }
    return StudyResult(
        kind="coverage",
        columns=("t", "coverage", "wilson_lo", "wilson_hi", "level"),
        rows=rows,
        metadata=metadata,
    )


#: Cap on the grid rows times resamples of one block of bootstrap resamples:
#: a block's stacked driver and states take a few MB whatever ``b`` is.
_BOOTSTRAP_ROWS = 1 << 16


def _draws(ds: EventDataset, seed: int, b: int):
    """Subject indices of bootstrap resamples ``0 .. b - 1``, in order.

    Resample ``r`` (attempt ``a``) draws ``n`` indices from
    ``SeedSequence((seed, r, a))`` and is redrawn, at most 10 times, while
    none of its subjects is at risk from time zero.
    """
    n = ds.n_subjects
    at_zero = np.zeros(n, dtype=bool)
    at_zero[ds._subject[ds._entry == 0.0]] = True
    for r in range(b):
        for attempt in range(10):
            rng = np.random.default_rng(np.random.SeedSequence((seed, r, attempt)))
            idx = rng.integers(0, n, size=n)
            if at_zero[idx].any():
                break
        else:
            raise DataError(
                "bootstrap resample kept an empty risk set at t=0 after 10 retries"
            )
        yield idx


class _ResampleDrivers:
    """Drivers of bootstrap resamples on one jump grid, from subject counts.

    A resample that draws subject ``s`` ``w[s]`` times has the driver that
    :func:`estimate_driver` gives for the dataset repeating each of ``s``'s
    spells ``w[s]`` times: ``dN`` sums ``w`` over each slot's event spells,
    and the risk set and freeze come from ``nelson_aalen``'s own kernel,
    :class:`~hazard_transform.hazards._RiskSet`, with ``w`` as weights.  The
    grid :attr:`times` is the base driver's jump times plus any event times
    the base's freeze dropped (a resample without the subjects behind the
    empty risk set keeps them).  Where a resample has no jump, or is frozen,
    the increment is 0, an identity step of the state recursion.
    """

    def __init__(self, ds, kind, driver, group_map=None, cause_map=None):
        self._n = ds.n_subjects
        events = {
            j: (group, _events(ds, cause, group))
            for j, (slot, cause, group) in enumerate(
                _slot_sources(kind, group_map, cause_map)
            )
            if not slot.deterministic
        }
        self.times = times = np.unique(
            np.concatenate([driver.times] + [ds._exit[e] for _, e in events.values()])
        )
        # Deterministic columns (time grids) are the same in every resample.
        self._fixed = np.zeros((times.size, driver.dimension))
        self._fixed[np.searchsorted(times, driver.times)] = driver.increments
        self._fixed[:, list(events)] = 0.0
        self._slots = [
            (j, group, ds._subject[e], np.searchsorted(times, ds._exit[e]))
            for j, (group, e) in events.items()
        ]
        self._risk = {g: _RiskSet(ds, g, times) for g, _ in events.values()}

    def increments(self, draws, first: int, count: int) -> np.ndarray:
        """Stacked driver increments ``(m, count, k)`` of resamples ``first``
        to ``first + count - 1``, whose subject indices the iterator
        ``draws`` yields.  Raises :class:`DataError` for a resample without
        a subject of a group that a driver component reads."""
        m = self.times.size
        out = np.repeat(self._fixed[:, None, :], count, axis=1)
        for r, idx in zip(range(count), draws):
            w = np.bincount(idx, minlength=self._n)
            risk = {}
            for group, risk_set in self._risk.items():
                if group is not None and not w[risk_set.subject].any():
                    raise DataError(
                        f"bootstrap resample {first + r} has no subject of group "
                        f"{group!r}"
                    )
                at_risk, cut, _ = risk_set(w)
                # Where the resample has an event it is at risk, so a risk set
                # of 0 only ever divides 0 events: the increment is 0 there.
                risk[group] = np.maximum(at_risk, 1.0), cut
            for j, group, subject, bins in self._slots:
                at_risk, cut = risk[group]
                out[:, r, j] = np.bincount(bins, w[subject], m) / at_risk
                out[cut:, r, j] = 0.0
        return out


def bootstrap_covariance(
    ds: EventDataset,
    kind: SystemKind,
    b: int,
    seed: int,
    time_grid=None,
    grid_step: float | None = None,
    group_map=None,
    cause_map=None,
):
    """Nonparametric bootstrap covariance of the plugin estimator.

    Resamples subjects with replacement ``b`` times, refits the plugin
    estimate per resample, and returns ``(times, cov)`` where ``cov[t]`` is
    the empirical covariance of ``sqrt(n) * (X* - X_hat)`` on the time grid
    (default: the original fit's jump times; right-continuous lookup).  A
    resample whose risk set is empty at time zero is redrawn (at most 10
    times); one without a subject of a group its driver reads raises
    :class:`DataError`.

    Resample ``r`` (attempt ``a``) draws its ``n`` subject indices from
    ``SeedSequence((seed, r, a))`` and is held as a count vector over the
    original subjects; each draw counts as a distinct subject, so the
    resample has ``n`` subjects.  Every resample's driver comes from
    ``nelson_aalen``'s own risk-set kernel with those counts as weights, on
    the original fit's jump grid, with zero increments where the resample
    has no jump or is frozen.  A block of resamples is then solved at once,
    stacked, by the plugin state kernel: one product-integral scan for a
    linear system, one step per grid row for a nonlinear one.  A block holds
    about ``_BOOTSTRAP_ROWS`` grid rows, so memory stays near the
    ``(len(times), state_dim, b)`` array of the deltas.  The results agree
    with refitting each resample on its own jump times to rounding, and
    exactly for a nonlinear system, whose zero steps change nothing.  A
    resample whose path trips a guard raises :class:`GuardViolation`; when
    several do, the lowest-numbered one is reported, and its message names
    it (``bootstrap resample <r>: guard violation ...``).
    """
    if b < 2:
        raise ValueError("bootstrap needs b >= 2 replicates")
    if isinstance(kind, str):
        kind = SystemKind(name=kind)
    driver, meta = estimate_driver(
        ds, kind, grid_step=grid_step, group_map=group_map, cause_map=cause_map
    )
    system = make_system(kind)
    base = solve_plugin(system, driver)
    if time_grid is None:
        time_grid = base.times
    time_grid = np.asarray(time_grid, dtype=float)
    base_values = base.value_at(time_grid)

    stack = _ResampleDrivers(ds, kind, driver, group_map, cause_map)
    times = stack.times
    m = times.size
    # Resamples on the last axis: the reductions below then run along
    # contiguous rows.
    values = np.empty((m + 1, system.state_dim, b))
    states = values.transpose(0, 2, 1)
    draws = _draws(ds, seed, b)
    block = max(1, _BOOTSTRAP_ROWS // (m + 1))
    for lo in range(0, b, block):
        hi = min(lo + block, b)
        incr = stack.increments(draws, lo, hi - lo)
        _states(system, incr, system.initial_value, out=states[:, lo:hi])
        for r in range(lo, hi):
            try:
                system.check_guard_path(times, states[1:, r])
            except GuardViolation as err:
                err.args = (f"bootstrap resample {r}: {err}",)
                raise

    pos = np.searchsorted(times, time_grid, side="right")
    deltas = values[1:] if np.array_equal(pos, np.arange(1, m + 1)) else values[pos]
    del values, states
    deltas -= base_values[:, :, None]
    deltas *= np.sqrt(ds.n_subjects)
    deltas -= deltas.mean(axis=2, keepdims=True)
    cov = deltas @ deltas.transpose(0, 2, 1)
    cov /= b - 1
    return time_grid, cov
