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
from functools import cached_property
from pathlib import Path
from statistics import NormalDist
from typing import Mapping

import numpy as np

from .errors import ConfigError, DataError, HazardTransformError, _number, _numbers
from .events import EventDataset
from .hazards import (
    _block_driver,
    _block_sources,
    _driver_grid,
    _events,
    _grid_times,
    _RiskSet,
    _Spells,
    estimate_driver,
)
from .paths import StepPath
from .plugin import (
    SCAN_CHUNK,
    _covariances,
    _negative_variances,
    _product_integral,
    _states,
    solve_plugin,
)
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
    "l2_distance",
    "l2_convergence",
    "coverage_study",
    "bootstrap_covariance",
    "wilson_interval",
    "StudyResult",
    "write_study",
]


class HazardSpec:
    """A hazard-rate specification on a window ``[0, horizon]``.

    Subclasses provide ``rate(t)`` and the exact cumulative ``cumulative(t)``
    (both vectorized), and name in ``_knots()`` the times where the rate may
    change its slope.  Between ``0``, those knots and ``horizon`` the rate
    must be continuous and linear, so the cumulative is piecewise quadratic
    and :meth:`invert` draws event times from it in closed form.  The first
    :meth:`invert` checks that contract, raising :class:`ConfigError` for a
    spec that breaks it, and keeps the piece table it builds: a spec must
    not change afterwards.
    """

    horizon: float

    def rate(self, t):
        raise NotImplementedError

    def cumulative(self, t):
        raise NotImplementedError

    def to_config(self) -> dict:
        raise NotImplementedError

    def _knots(self):
        """Times where the rate may bend; those outside ``(0, horizon)``
        are ignored.  A spec whose rate is linear on the whole window has
        none."""
        return ()

    @cached_property
    def _pieces(self):
        """``(ends, cap, table)`` for :meth:`invert`, built at its first call.

        The pieces run between 0, the knots and the horizon.  ``ends`` holds
        the cumulative at each piece's end; ``cap`` is the next double past
        the last one, to which larger targets are lowered.  ``table`` has one
        column per piece, plus one past the horizon whose times are ``inf``,
        and these rows:

        - at the piece's end with the lower rate: the cumulative, the
          squared rate, and twice the rate's absolute slope;
        - at its other end: the cumulative, the rate (``inf`` on a piece of
          zero rate, which holds no root), the time, and the step's sign
          times 2;
        - the piece's start and end times, which bound the root.

        Raises :class:`ConfigError` when a rate's square or twice a
        cumulative overflows, or when a piece's cumulative increment is not
        the trapezoid of its end rates to a relative 1e-9: the rate is
        curved, jumps, or bends at a time ``_knots`` does not name.
        """
        knots = sorted({float(k) for k in self._knots() if 0.0 < k < self.horizon})
        t = np.array([0.0, *knots, self.horizon], dtype=float)
        c = np.asarray(self.cumulative(t), dtype=float)
        r = np.asarray(self.rate(t), dtype=float)
        dt = np.diff(t)
        with np.errstate(over="ignore", invalid="ignore"):
            finite = np.isfinite(np.concatenate([4.0 * r * r, 2.0 * c]))
            trapezoid = 0.5 * (r[:-1] + r[1:]) * dt
            linear = np.abs(np.diff(c) - trapezoid) <= 1e-9 * np.abs(c[1:])
            slope2 = 2.0 * np.abs(np.diff(r) / dt)
        if not finite.all():
            raise ConfigError(
                f"{type(self).__name__}: the hazard is too large to invert "
                "(a squared rate or a cumulative overflows)"
            )
        if not linear.all():
            raise ConfigError(
                f"{type(self).__name__}: the cumulative hazard is not the "
                "integral of a rate that is linear between its knots"
            )
        # A piece too short for a finite slope holds next to no cumulative:
        # crossing it at a constant rate stays within its length of the root.
        slope2[np.isinf(slope2)] = 0.0
        rise = np.diff(r) > 0
        start = np.arange(dt.size)
        low = np.where(rise, start, start + 1)
        high = np.where(rise, start + 1, start)
        columns = [
            (c[low], c[-1]),
            (r[low] ** 2, 0.0),
            (slope2, 0.0),
            (c[high], c[-1]),
            (np.where(r[high] > 0, r[high], np.inf), np.inf),
            (t[high], np.inf),
            (np.where(rise, -2.0, 2.0), 2.0),
            (t[:-1], np.inf),
            (t[1:], np.inf),
        ]
        table = np.array([np.append(*col) for col in columns])
        return c[1:], np.nextafter(c[-1], np.inf), table

    def invert(self, targets) -> np.ndarray:
        """The first time ``t`` in [0, horizon] with ``cumulative(t) =
        target``, per target, in closed form (negative targets count as 0).

        Entries whose target exceeds ``cumulative(horizon)`` come back as
        ``inf`` (no event inside the window).  Each element is computed on
        its own, so a vector call gives every element what a scalar call
        gives, and the result never decreases as the target grows.
        """
        ends, cap, table = self._pieces
        y = np.clip(np.atleast_1d(np.asarray(targets, dtype=float)), 0.0, cap)
        low_c, low_r2, slope2, high_c, high_r, high_t, two, t0, t1 = table[
            :, np.searchsorted(ends, y, side="left")
        ]
        # On a piece with a linear rate, the rate q at the root has q**2 =
        # r_low**2 + 2 |slope| |y - c_low|, a sum of nonnegative terms, and
        # the root lies 2 |y - c_high| / (r_high + q) from the other end.
        # Every operation is monotone in y, and so is the root.
        q = np.sqrt(low_r2 + slope2 * np.abs(y - low_c))
        root = high_t + two * np.abs(y - high_c) / (high_r + q)
        return np.clip(root, t0, t1)


def _finite(**fields) -> None:
    for name, value in fields.items():
        if not np.isfinite(value).all():
            raise ConfigError(f"hazard {name} must be finite, got {value!r}")


@dataclass(frozen=True)
class ConstantHazard(HazardSpec):
    rate_value: float
    horizon: float

    def __post_init__(self):
        _finite(rate=self.rate_value, horizon=self.horizon)
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
        _finite(intercept=self.intercept, slope=self.slope, horizon=self.horizon)
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
        _finite(
            times=self.knot_times, rates=self.knot_rates, horizon=self.horizon
        )
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
        with np.errstate(over="ignore"):
            steep = ~np.isfinite(np.diff(kr) / np.diff(kt))
        if steep.any():
            raise ConfigError(
                "table knot times are too close for their rates: the rate's "
                "slope between them overflows"
            )

    def rate(self, t):
        return np.interp(np.asarray(t, dtype=float), self.knot_times, self.knot_rates)

    def _knots(self):
        return self.knot_times

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
    """Build a hazard spec from its dict form (see each class's to_config);
    a key the form's ``to_config`` does not write is a :class:`ConfigError`."""
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
            spec = ConstantHazard(rate_value=cfg["rate"], horizon=cfg["horizon"])
        elif form == "linear":
            spec = LinearHazard(
                intercept=cfg["intercept"], slope=cfg["slope"], horizon=cfg["horizon"]
            )
        elif form == "table":
            spec = TableHazard(
                knot_times=tuple(cfg["times"]),
                knot_rates=tuple(cfg["rates"]),
                horizon=cfg["horizon"],
            )
        else:
            raise ConfigError(f"unknown hazard form: {form!r}")
    except KeyError as exc:
        raise ConfigError(f"hazard config missing key: {exc}") from None
    unknown = sorted(map(str, set(cfg) - set(spec.to_config())))
    if unknown:
        raise ConfigError(f"unknown key(s) for a {form} hazard: {', '.join(unknown)}")
    return spec


class _SumHazard(HazardSpec):
    """Internal: total hazard of competing causes (for drawing event times)."""

    def __init__(self, parts):
        self.parts = list(parts)
        self.horizon = self.parts[0].horizon

    def cumulative(self, t):
        return sum(p.cumulative(t) for p in self.parts)

    def rate(self, t):
        return sum(p.rate(t) for p in self.parts)

    def _knots(self):
        return [k for p in self.parts for k in p._knots()]


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
        for field in ("n", "seed", "k_replications"):
            value = _number(getattr(self, field), field, integer=True)
            object.__setattr__(self, field, int(value))
        least = _min_subjects(self.system)
        if self.n < least:
            raise ConfigError(
                f"scenario needs n >= {least} subjects (one per group), got {self.n}"
            )
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


def _min_subjects(kind: SystemKind) -> int:
    """The fewest subjects a simulated dataset of ``kind`` can hold: one in
    each group that its driver slots split subjects into, and at least one."""
    return max(1, len({s.group for s in driver_slots(kind) if not s.deterministic}))


def _child_seed(seed: int, *key: int) -> int:
    """64-bit substream seed derived deterministically from (seed, *key)."""
    return int(np.random.SeedSequence((seed, *key)).generate_state(1, np.uint64)[0])


def _invert(spec, targets) -> np.ndarray:
    """``spec.invert`` of an array of targets of any shape, in one call."""
    return spec.invert(targets.ravel()).reshape(targets.shape)


def _recurrent_times(rng, recurrent, follow):
    """Recurrent event times before each subject's follow-up end.

    Subject ``i`` accumulates unit-exponential gap exposures on the recurrent
    hazard's clock and has an event at ``recurrent.invert(clock)`` for as long
    as that time is ``< follow[i]``; the first exposure that lands at or past
    ``follow[i]`` ends the subject, and the next subject starts on the next
    draw.  The exposures are drawn in bulk and split per subject in clock
    space against the clock bound ``recurrent.cumulative(follow)``; then
    every clock is inverted in one call.  Where an inverted time disagrees
    with the split (a clock within rounding of its bound, or a subclass whose
    ``invert`` does not match its ``cumulative``), the subjects before the
    first such clock are kept, that clock's subject is finished one draw and
    one inversion at a time, and the bulk split resumes from the next
    subject.  So there is at most one bulk pass per disagreeing subject,
    plus one, and the result equals the one-draw-at-a-time loop.  (A vector
    inversion gives each element what a scalar call gives:
    :meth:`HazardSpec.invert` computes each element on its own.)

    Returns ``(counts, times)``: events per subject and all event times,
    subject by subject.
    """
    n = follow.size
    bound = np.array(recurrent.cumulative(follow), dtype=float)
    limit = bound.tolist()
    # About n + sum(bound) draws are used.  Bulk draws continue the stream of
    # scalar draws, and nothing draws from ``rng`` afterwards, so drawing too
    # many changes nothing.
    gaps = rng.exponential(size=n + int(2 * bound.sum()) + 16).tolist()

    def gap(pos):
        if pos == len(gaps):
            gaps.extend(rng.exponential(size=n).tolist())
        return gaps[pos]

    counts: list[int] = []
    times: list[float] = []
    pos = first = 0
    while first < n:
        starts, clocks, owner = [], [], []
        for i in range(first, n):
            starts.append(pos)
            clock = 0.0
            while True:
                clock += gap(pos)
                pos += 1
                clocks.append(clock)
                owner.append(i)
                if not clock < limit[i]:
                    break
        owner = np.array(owner)
        clocks = np.array(clocks)
        inv = recurrent.invert(clocks)
        event = inv < follow[owner]
        misfit = np.flatnonzero(event != (clocks < bound[owner]))
        done = int(owner[misfit[0]]) if misfit.size else n
        keep = owner < done
        spells = np.bincount(owner[keep] - first, minlength=done - first)
        counts += (spells - 1).tolist()
        times += inv[keep & event].tolist()
        if done < n:
            pos = starts[done - first]
            clock, events = 0.0, 0
            while True:
                clock += gap(pos)
                pos += 1
                t = float(recurrent.invert(clock)[0])
                if not t < follow[done]:
                    break
                times.append(t)
                events += 1
            counts.append(events)
            done += 1
        first = done
    return counts, times


def _simulate(sc: Scenario, n: int, seeds) -> _Spells:
    """Datasets of ``n`` subjects of the scenario, one per seed, as the
    spells of one block, replication ``r`` drawn from ``seeds[r]``.

    Each dataset draws from its own ``SeedSequence((seed,))`` stream, in the
    same order whatever the other seeds are, and every hazard inverts the
    draws of all seeds in one call, which gives each element what a call of
    its own gives.
    """
    rngs = [np.random.default_rng(np.random.SeedSequence((seed,))) for seed in seeds]
    horizon = sc.horizon
    name = sc.system.name
    subject = np.arange(n)

    def draws(size):
        return np.array([rng.exponential(size=size) for rng in rngs])

    def censor_times(size):
        """Censoring times; ``inf`` (and no draw) without censoring."""
        if sc.censor is None:
            return np.full((len(rngs), size), np.inf)
        return _invert(sc.censor, draws(size))

    if name == "cumulative_incidence":
        parts = [sc.hazards[f"cause{j + 1}"] for j in range(sc.system.n_causes)]
        t_event = _invert(_SumHazard(parts), draws(n))
        u_cause = np.array([rng.random(n) for rng in rngs])
        exit_time = np.minimum(np.minimum(t_event, censor_times(n)), horizon)
        # The cause is drawn from the cause rates at the event time.
        hit = t_event == exit_time
        rates = np.array([p.rate(t_event[hit]) for p in parts], dtype=float)
        srate = rates.sum(axis=0)
        probs = np.full(rates.shape, 1.0 / len(parts))
        np.divide(rates, srate, out=probs, where=srate > 0)
        below = np.cumsum(probs, axis=0) < u_cause[hit]
        code = np.zeros(exit_time.shape, dtype=np.int64)
        code[hit] = np.minimum(1 + below.sum(axis=0), len(parts))
        group = None

    elif name == "mean_frequency":
        recurrent = sc.hazards["recurrent"]
        t_term = _invert(sc.hazards["terminal"], draws(n))
        follow = np.minimum(np.minimum(t_term, censor_times(n)), horizon)
        last_code = np.where(t_term == follow, 2, 0)
        columns = []
        for rng, ends_at, last in zip(rngs, follow, last_code):
            counts, times = _recurrent_times(rng, recurrent, ends_at)
            # Each subject's spells run 0 -> t_1 -> ... -> t_k (code 1 each),
            # then a last spell to its follow-up end (terminal 2, censored 0).
            counts = np.asarray(counts)
            times = np.asarray(times, dtype=float)
            ends = np.cumsum(counts)
            columns.append((
                np.repeat(subject, counts + 1),
                np.insert(times, ends - counts, 0.0),
                np.insert(times, ends, ends_at),
                np.insert(np.ones(times.size, dtype=np.int64), ends, last),
            ))
        rep = np.repeat(np.arange(len(rngs)), [cols[0].size for cols in columns])
        flat = map(np.concatenate, zip(*columns))
        return _Spells(rep, *flat, None, horizon, len(rngs))

    else:
        # One spell per subject.  The slots split the subjects into groups of
        # near-equal size; a single slot takes them all, with no group column.
        slots = [s for s in driver_slots(sc.system) if not s.deterministic]
        k = len(slots)
        sizes = [n // k + (i < n % k) for i in range(k)]
        exits, codes = [], []
        for slot, size in zip(slots, sizes):
            t_event = _invert(sc.hazards[slot.role], draws(size))
            exits.append(np.minimum(np.minimum(t_event, censor_times(size)), horizon))
            codes.append((t_event == exits[-1]).astype(np.int64))
        exit_time = np.concatenate(exits, axis=1)
        code = np.concatenate(codes, axis=1)
        group = np.repeat([s.group for s in slots], sizes) if k > 1 else None

    count = len(rngs)
    return _Spells(
        np.repeat(np.arange(count), n),
        np.tile(subject, count),
        np.zeros(count * n),
        exit_time.ravel(),
        code.ravel(),
        None if group is None else np.tile(group, count),
        horizon,
        count,
    )


def simulate_dataset(sc: Scenario) -> EventDataset:
    """Simulate one dataset for the scenario (pure in the scenario's seed).

    Event times come from inverse-transform sampling of each cumulative
    hazard against unit-exponential exposures; competing causes draw the
    cause label from the rates at the event time; recurrent-event scenarios
    draw successive gap exposures on the recurrent hazard's clock until the
    terminal event, censoring, or the horizon.
    """
    spells = _simulate(sc, sc.n, [sc.seed])
    return EventDataset.from_columns(
        spells.subject,
        spells.entry,
        spells.exit,
        spells.code,
        spells.horizon,
        group=spells.group,
    )


def _oracle_increments(hazards, kind, times, start=0.0) -> np.ndarray:
    """Increments ``(len(times), k)`` of the exact cumulative hazards on the
    grid ``times`` from ``start``; a time slot takes the grid's steps."""
    slots = driver_slots(kind)
    increments = np.empty((times.size, len(slots)))
    ends = np.concatenate([[start], times])
    for c, slot in enumerate(slots):
        if slot.deterministic:
            increments[:, c] = np.diff(ends)
        else:
            increments[:, c] = np.diff(hazards[slot.role].cumulative(ends))
    return increments


def _oracle_driver(sc_hazards, kind, horizon, step, start=0.0):
    """Exact cumulative hazards discretized on a fine grid (with time slots)."""
    times = _grid_times(horizon, step, start)
    return StepPath(
        times=times,
        increments=_oracle_increments(sc_hazards, kind, times, start),
        origin_value=np.zeros(len(driver_slots(kind))),
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


def _oracle_values(hazards, system: SystemKind, t_grid, fine_step=None):
    """``oracle_parameter(hazards, system, fine_step).value_at(t_grid)``.

    A system without guards and with constant Jacobians (every linear
    system) has nothing to check on the path, so its product integral is
    solved only up to the last grid row ``t_grid`` reads, and applied to the
    state only at the rows read: the same operands cut at the same
    ``SCAN_CHUNK`` rows give the same values bit for bit.
    """
    solver = make_system(system)
    if solver.guards or solver.jacobians is None:
        return oracle_parameter(hazards, system, fine_step).value_at(t_grid)
    horizon = next(iter(hazards.values())).horizon
    step = horizon / 1e5 if fine_step is None else fine_step
    times = _grid_times(horizon, step)
    rows = times.searchsorted(t_grid, side="right")
    increments = _oracle_increments(hazards, system, times[: rows.max()])
    x0 = solver.initial_value
    return _product_integral(solver.jacobians, increments, x0, rows=rows)


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
# Replication execution.  Replications run in blocks of consecutive indices
# whose size depends only on the system, the sample size and the time grid.
# Workers read shared, read-only context from a module global installed by
# the pool initializer (or directly for serial runs), and every replication
# draws from its own derived seed, so results do not depend on how the
# blocks are distributed.

_CTX: dict = {}

#: Most replications in one study block.  Blocks this small still leave a
#: study of a few dozen replications several tasks for ``n_jobs`` workers.
_STUDY_BLOCK = 8

#: Cap on the float64 entries one study block holds at once (4 MB).
_STUDY_CELLS = 1 << 19


def _block_size(kind: SystemKind, n: int, grid: int = 0) -> int:
    """Replications per study block of ``n`` subjects whose drivers have
    ``grid`` time-grid rows (0 without a time slot), fixed by the state size,
    ``n`` and ``grid``: at most ``_STUDY_BLOCK``, and no more than fit in
    ``_STUDY_CELLS`` at about ``(32 + dim^2) (n + grid)`` entries per
    replication (draws, dataset, driver, stacked states and covariances; a
    driver has a row per jump and per grid step) plus its ``SCAN_CHUNK``
    rows of ``p x p`` covariance scan maps, ``p = dim(dim + 1)/2``: one such
    array for constant Jacobians, and ``driver_dim + 1`` (the maps of each
    component and their composition) for a system whose Jacobians depend on
    the state.  A single replication past the cap runs alone."""
    system = make_system(kind)
    dim = system.state_dim
    p = dim * (dim + 1) // 2
    maps = 1 if system.jacobians is not None else system.driver_dim + 1
    per_replication = (32 + dim * dim) * (n + grid) + maps * SCAN_CHUNK * p * p
    return max(1, min(_STUDY_BLOCK, _STUDY_CELLS // per_replication))


def _init_worker(ctx):
    _CTX.clear()
    _CTX.update(ctx)


def _run_tasks(tasks, ctx, n_jobs: int):
    # Never more processes than tasks: the pool forks all of them at once.
    n_jobs = min(n_jobs, len(tasks))
    if n_jobs <= 1:
        _init_worker(ctx)
        return [_replicate(t) for t in tasks]
    # Imported here: it pulls in multiprocessing, socket and logging, which
    # a serial run (and every CLI call) would otherwise load for nothing.
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(
        max_workers=n_jobs, initializer=_init_worker, initargs=(ctx,)
    ) as pool:
        chunk = max(1, len(tasks) // (8 * n_jobs))
        return list(pool.map(_replicate, tasks, chunksize=chunk))


def _blocks(groups, ctx) -> list:
    """The ``(key, n, seeds)`` groups cut into blocks of :func:`_block_size`
    consecutive seeds, for the study whose worker context is ``ctx``."""
    sc, grid = ctx["scenario"], 0
    if None in _block_sources(sc.system):  # a time slot: a driver row per step
        grid = _driver_grid(sc.horizon, ctx["grid_step"]).size
    return [
        (key, n, seeds[lo : lo + size])
        for key, n, seeds in groups
        for size in [_block_size(sc.system, n, grid)]
        for lo in range(0, len(seeds), size)
    ]


def _run_blocks(groups, ctx, n_jobs: int):
    """Run the replications of each ``(key, n, seeds)`` group in
    :func:`_blocks`: ``(key, value, error)`` per replication, in order."""
    tasks = _blocks(groups, ctx)
    return [result for block in _run_tasks(tasks, ctx, n_jobs) for result in block]


def _replicate(task):
    """Run one block ``(key, n, seeds)``: simulate ``n`` subjects of the
    shared scenario from each seed, build the block's drivers in one
    risk-set pass, solve them as one stack and apply the study's ``measure``
    (one of the three below) to it.  Returns ``(key, value, None)``, or
    ``(key, None, error type name)`` on failure, per seed; a failing
    replication leaves the rest of its block alone."""
    key, n, seeds = task
    sc = _CTX["scenario"]
    try:
        spells = _simulate(sc, n, seeds)
    except HazardTransformError as exc:
        return [(key, None, type(exc).__name__)] * len(seeds)
    rejected = _rejected(spells)
    results = [(key, None, DataError.__name__) if bad else None for bad in rejected]
    if not rejected.all():
        spells = _without(spells, rejected)
        block = _block_driver(spells, _block_sources(sc.system), _CTX["grid_step"])
        solved = iter(_CTX["measure"](_Stack(make_system(sc.system), block)))
        results = [res or (key, *next(solved)) for res in results]
    return results


def _rejected(spells: _Spells) -> np.ndarray:
    """Per replication, whether its dataset fails the spell checks of
    :class:`EventDataset` with a :class:`DataError`: a negative entry time
    or event code, or an entry time not before its exit time."""
    bad = (spells.entry < 0) | (spells.code < 0) | ~(spells.entry < spells.exit)
    return np.bincount(spells.rep[bad], minlength=spells.count) > 0


def _without(spells: _Spells, drop) -> _Spells:
    """The spells of the replications not in ``drop``, renumbered in order."""
    if not drop.any():
        return spells
    keep = ~drop[spells.rep]
    rep = (np.cumsum(~drop) - 1)[spells.rep[keep]]
    group = None if spells.group is None else spells.group[keep]
    columns = spells.subject, spells.entry, spells.exit, spells.code
    kept = [column[keep] for column in columns]
    return _Spells(rep, *kept, group, spells.horizon, int(np.count_nonzero(~drop)))


class _Stack:
    """A block's drivers solved as one stack by the state kernel.

    ``driver`` is the :class:`~hazard_transform.hazards._BlockDriver` that
    :func:`~hazard_transform.hazards._block_driver` builds for the block,
    read in place: its ``times``, ``n_jumps``, ``scale`` and ``horizon``
    are the stack's.  Its zero increments, which pad each replication to the
    longest, are identity steps, so each replication's own rows hold its
    solo states; the rows after them repeat its last state to rounding, and
    no measure reads them.  The stack adds ``states`` ``(M + 1, B, n)`` and
    ``errors``: per replication, the error its solo fit raises so far, or
    None.  The constructor records each guard trip (at time 0 or at one of
    the replication's own jumps) as ``check_guard_path`` raises it; a
    measure may add negative variances.
    """

    def __init__(self, system, driver):
        self.system, self.driver = system, driver
        self.states = _states(system, driver.increments, system.initial_value)
        times = np.vstack([np.zeros(len(driver.n_jumps)), driver.times.T])
        self.errors = system._guard_trips(times, self.states, driver.n_jumps + 1)

    @property
    def ok(self) -> np.ndarray:
        """Whether each replication has no error so far."""
        return np.array([err is None for err in self.errors])

    def covariances(self) -> np.ndarray:
        """Covariances ``(M, B, n, n)`` at the jumps, solved for the
        replications without an error and NaN for the others (whose states
        may divide by zero, and which no measure reads).  A block without
        errors is solved on views of its arrays, with no copy."""
        ok, n, driver = self.ok, self.system.state_dim, self.driver
        clean = ok.all()
        pick = slice(None) if clean else ok
        args = self.states[:-1, pick], driver.increments[:, pick], driver.scale[pick]
        stochastic = np.where(driver.deterministic, 0.0, 1.0)
        cov = _covariances(self.system, *args, stochastic, np.zeros((n, n)))
        if clean:
            return cov
        out = np.full((*driver.increments.shape[:2], n, n), np.nan)
        out[:, ok] = cov
        return out

    def results(self, values):
        """``(value, error type name)`` per replication, from ``values`` of
        the ones without an error, in order."""
        values = iter(values)
        return [
            (None, type(err).__name__) if err is not None else (next(values), None)
            for err in self.errors
        ]


def _target_distances(stack, values, component):
    """``l2_distance`` from the target path of each replication without an
    error, whose path has the ``values`` ``(M + 1, B, ...)`` on its own
    rows."""
    target, upto, driver = _CTX["target_path"], _CTX["upto"], stack.driver
    distances = []
    for r in np.flatnonzero(stack.ok):
        m = driver.n_jumps[r]
        times = driver.times[r, :m]
        path = StepPath.from_values(times, values[: m + 1, r], driver.horizon)
        distances.append(l2_distance(target, path, component, component, upto))
    return stack.results(distances)


def _l2_estimate(stack):
    return _target_distances(stack, stack.states, _CTX["component"])


def _l2_variance(stack):
    # Estimator-variance scale (the square of the band half-width): the
    # covariance recursion output divided by the sample size, so paths fitted
    # at different n live in comparable units and a large-sample reference is
    # close to the common limit of all of them.
    comp = _CTX["component"]
    diag = stack.covariances()[:, :, comp, comp] / stack.driver.scale
    return _target_distances(stack, np.vstack([np.zeros((1, diag.shape[1])), diag]), 0)


def _covered(stack):
    # The band X +/- z sqrt(V_ii / n) at t_grid, of the component studied, for
    # every replication with no guard trip and no negative variance.
    n, labels, driver = stack.system.state_dim, stack.system.state_labels, stack.driver
    diag = stack.covariances()[..., range(n), range(n)]
    found = _negative_variances(driver.times.T, diag, labels, driver.n_jumps)
    stack.errors = [err or neg for err, neg in zip(stack.errors, found)]
    ok = np.flatnonzero(stack.ok)
    comp, t_grid, truth = _CTX["component"], _CTX["t_grid"], _CTX["oracle_values"]
    row = [np.searchsorted(driver.times[r], t_grid, side="right") for r in ok]
    row = np.array(row, dtype=np.intp).reshape(ok.size, t_grid.size)
    var = np.vstack([np.zeros((1, ok.size)), diag[:, ok, comp]])
    var = np.take_along_axis(var, row.T, axis=0)
    point = np.take_along_axis(stack.states[:, ok, comp], row.T, axis=0)
    half = _CTX["z"] * np.sqrt(var / driver.scale[ok])
    truth = truth[:, None]
    return stack.results(((point - half <= truth) & (truth <= point + half)).T)


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

    ``n_list`` must be a non-empty list of distinct integers and
    ``bootstrap_n`` an integer, each at least the number of groups the
    scenario's subjects are split into, ``bootstrap_b`` an integer >= 2 and
    ``n_jobs`` an integer >= 1; anything else raises :class:`ConfigError`
    before any simulation runs.
    Failed replications (guard trips, variance collapse) are excluded from
    the averages and counted per sample size in the metadata.

    The replications of each ``n`` run in blocks of consecutive indices, as
    in :func:`coverage_study`, and each distance is the :func:`l2_distance`
    of its replication's path, so the results do not depend on ``n_jobs``.
    """
    if target not in ("estimate", "variance"):
        raise ConfigError("target must be 'estimate' or 'variance'")
    kind = sc.system
    comp = _component(kind, component)
    horizon = sc.horizon
    least = _min_subjects(kind)
    n_list = [int(v) for v in _numbers(n_list, "n_list", integer=True)]
    if not n_list or min(n_list) < least:
        raise ConfigError(
            f"n_list must be a non-empty list of sample sizes >= {least}, "
            f"got {n_list!r}"
        )
    if len(set(n_list)) < len(n_list):
        # Failures are counted per sample size: a repeat would merge two.
        raise ConfigError(f"n_list must not repeat a sample size, got {n_list!r}")
    if _number(bootstrap_b, "bootstrap_b", integer=True) < 2:
        raise ConfigError(f"bootstrap_b must be an integer >= 2, got {bootstrap_b!r}")
    if _number(n_jobs, "n_jobs", integer=True) < 1:
        raise ConfigError(f"n_jobs must be an integer >= 1, got {n_jobs!r}")
    ref_n = 4 * max(n_list) if bootstrap_n is None else bootstrap_n
    if _number(ref_n, "bootstrap_n", integer=True) < least:
        raise ConfigError(f"bootstrap_n must be an integer >= {least}, got {ref_n!r}")

    if target == "estimate":
        target_path = oracle_parameter(sc.hazards, kind, fine_step=oracle_step)
    else:
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

    ctx = {
        "scenario": sc,
        "grid_step": grid_step,
        "component": comp,
        "measure": _l2_estimate if target == "estimate" else _l2_variance,
        "target_path": target_path,
        "upto": horizon,
    }
    groups = [
        (i, n, [_child_seed(sc.seed, 0, i, j) for j in range(sc.k_replications)])
        for i, n in enumerate(n_list)
    ]
    results = _run_blocks(groups, ctx, n_jobs)

    sums = np.zeros(len(n_list))
    counts = np.zeros(len(n_list), dtype=int)
    failures = {n: 0 for n in n_list}
    for idx, value, err in results:
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
    reference column.  ``t_grid`` must be a non-empty 1-D list of times in
    ``[0, horizon]`` and ``n_jobs`` an integer >= 1; anything else raises
    :class:`ConfigError` before any simulation runs.

    Replication ``j`` draws from its own seed, derived from ``(sc.seed, 0,
    j)``.  The replications run in blocks of consecutive indices, at most
    ``_STUDY_BLOCK`` (8), and fewer where the state size and the sample size
    call for it: a block holds about ``_STUDY_CELLS`` float64 entries (4 MB)
    at most, whatever ``k`` is, unless one replication alone needs more (see
    :func:`_block_size`).  A block is one task of the ``n_jobs``
    workers and its size never depends on ``n_jobs``, so neither do the
    results.  In a block, each hazard inverts every replication's draws in
    one call, and one risk-set pass over the block's spells builds every
    replication's Nelson-Aalen driver, on its own jump times and bit for bit
    what :func:`estimate_driver` gives for its dataset alone.  The drivers,
    padded at the end with zero increments, are solved as one stack of
    states and covariances that gives each replication its solo fit (bit for
    bit for a linear system).  A replication whose dataset would be
    rejected, guard trips, negative variances and the band at ``t_grid`` are
    found for the whole block at once; a failing replication is counted
    under its error type, and the rest of its block carries on.

    The truth is the :func:`oracle_parameter` path at ``t_grid``.  For a
    system without guards (every linear one) the oracle is solved only up to
    the last grid row ``t_grid`` reads and evaluated only at the rows read,
    which gives the same values bit for bit.
    """
    if not 0.0 < level < 1.0:
        raise ConfigError("level must be strictly between 0 and 1")
    if _number(n_jobs, "n_jobs", integer=True) < 1:
        raise ConfigError(f"n_jobs must be an integer >= 1, got {n_jobs!r}")
    kind = sc.system
    comp = _component(kind, component)
    horizon = sc.horizon
    if t_grid is None:
        t_grid = np.linspace(0.2 * horizon, 0.8 * horizon, 13)
    t_grid = np.asarray(t_grid, dtype=float)
    if t_grid.ndim != 1 or not t_grid.size:
        raise ConfigError(
            f"t_grid must be a non-empty list of times, got {t_grid.tolist()!r}"
        )
    outside = t_grid[~((t_grid >= 0.0) & (t_grid <= horizon))]
    if outside.size:
        raise ConfigError(
            f"t_grid values must lie in [0, {horizon}], got {outside.tolist()}"
        )

    oracle_values = _oracle_values(sc.hazards, kind, t_grid, oracle_step)[:, comp]

    ctx = {
        "scenario": sc,
        "grid_step": grid_step,
        "component": comp,
        "measure": _covered,
        "z": NormalDist().inv_cdf(0.5 * (1.0 + level)),
        "t_grid": t_grid,
        "oracle_values": oracle_values,
    }
    seeds = [_child_seed(sc.seed, 0, j) for j in range(sc.k_replications)]
    results = _run_blocks([(0, sc.n, seeds)], ctx, n_jobs)

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


#: Cap on the grid rows times resamples of one block of bootstrap resamples,
#: and on the matrix entries of one ``SCAN_CHUNK``-row time block of its
#: product-integral scan: a block's stacked driver, states and scan take a
#: few MB whatever ``b`` is.
_BOOTSTRAP_ROWS = 1 << 15


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
    spells ``w[s]`` times: ``dN`` sums ``w`` over the event spells of each
    ``(cause, group)`` source the block kernel reads (``_block_sources``),
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
            j: (source[1], _events(ds, *source))
            for j, source in enumerate(_block_sources(kind, group_map, cause_map))
            if source is not None  # time grids
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
        self._risk = {g: _RiskSet.of(ds, g, times) for g, _ in events.values()}

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
                at_risk, frozen, _ = risk_set(w)
                # Where the resample has an event it is at risk, so a risk set
                # of 0 only ever divides 0 events: the increment is 0 there.
                risk[group] = np.maximum(at_risk, 1.0), frozen
            for j, group, subject, bins in self._slots:
                at_risk, frozen = risk[group]
                out[:, r, j] = np.bincount(bins, w[subject], m) / at_risk
                out[frozen, r, j] = 0.0
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
    about ``_BOOTSTRAP_ROWS`` grid rows, and its scan about as many matrix
    entries per time block, so memory stays near the ``(len(times),
    state_dim, b)`` array of the deltas.  The results agree
    with refitting each resample on its own jump times to rounding, and
    exactly for a nonlinear system, whose zero steps change nothing.  Each
    block's paths get one batched guard check, which gives every resample
    the :class:`GuardViolation` of its earliest failing row; the block's
    lowest-numbered tripping resample is raised, its message naming it
    (``bootstrap resample <r>: guard violation ...``), so the trip reported
    is the lowest of all ``b``.
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
    scan = min(m, SCAN_CHUNK) * system.state_dim**2
    block = max(1, _BOOTSTRAP_ROWS // max(m + 1, scan))
    for lo in range(0, b, block):
        hi = min(lo + block, b)
        incr = stack.increments(draws, lo, hi - lo)
        _states(system, incr, system.initial_value, out=states[:, lo:hi])
        trips = system._guard_trips(times[:, None], states[1:, lo:hi])
        for r, err in enumerate(trips, start=lo):
            if err is not None:
                err.args = (f"bootstrap resample {r}: {err}",)
                raise err

    pos = np.searchsorted(times, time_grid, side="right")
    deltas = values[1:] if np.array_equal(pos, np.arange(1, m + 1)) else values[pos]
    del values, states
    deltas -= base_values[:, :, None]
    deltas *= np.sqrt(ds.n_subjects)
    deltas -= deltas.mean(axis=2, keepdims=True)
    cov = deltas @ deltas.transpose(0, 2, 1)
    cov /= b - 1
    return time_grid, cov
