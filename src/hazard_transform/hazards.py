"""Cumulative-hazard drivers: Nelson-Aalen, additive regression, time grids.

Every estimator returns a ``(StepPath, DriverMeta)`` pair so that drivers can
be merged component-wise and fed to the plugin solver.  Increments use the
left-continuous risk set (``entry < t <= exit``); tied event times collapse
into one jump.

Nelson-Aalen has one kernel, ``_block_driver``, which builds the merged
drivers of a block of study replications in one risk-set pass, each on its
own jump times; :func:`nelson_aalen` and :func:`estimate_driver` are its call
on a single dataset.  Its risk sets come from :class:`_RiskSet`, from which
``simlab._ResampleDrivers`` also builds the bootstrap's resample drivers,
with each resample's draw counts as subject weights, and it merges the
components as :func:`~hazard_transform.paths.merge_drivers` does, through
one union helper.
"""

from __future__ import annotations

from functools import cached_property
from typing import NamedTuple

import numpy as np

from .errors import DataError
from .events import EventDataset
from .paths import DriverMeta, StepPath, _run_ends, _union
from .systems import SystemKind, driver_slots

__all__ = [
    "nelson_aalen",
    "aalen_additive",
    "time_grid_driver",
    "estimate_driver",
]

#: Reciprocal-condition threshold below which the additive design is treated
#: as rank deficient and the path is frozen.
RANK_RCOND = 1e-10


class _Spells(NamedTuple):
    """The spells of a block of ``count`` replications as flat columns.

    ``rep`` numbers each spell's replication ``0 .. count - 1`` (None for a
    single replication), ``subject`` its subject within the replication
    (``0, 1, ...`` in order of first appearance), and ``group`` is None when
    no spell has a group.  The columns are those of
    :class:`~hazard_transform.events.EventDataset`, one replication after
    another.
    """

    rep: np.ndarray | None
    subject: np.ndarray
    entry: np.ndarray
    exit: np.ndarray
    code: np.ndarray
    group: np.ndarray | None
    horizon: float
    count: int = 1

    @classmethod
    def of(cls, dataset: EventDataset) -> "_Spells":
        return cls(
            None,
            dataset._subject,
            dataset._entry,
            dataset._exit,
            dataset._code,
            dataset._group,
            dataset.horizon,
        )


class _Keys:
    """Sort keys of the ``(replication, time)`` pairs of a block.

    For a single replication the times are their own keys.  Otherwise a key
    is ``rep * size + rank``, with ``rank`` the time's place among the
    block's ``size`` distinct times: keys sort by replication, then by time,
    and tie exactly where the times tie.  So one ``searchsorted`` over a
    block's keys counts, per replication, what the same call on that
    replication's times alone counts, once the replications before it
    cancel out.  :meth:`of` keys a block's entry times, exit times and the
    time grid of every replication.
    """

    def __init__(self, count: int = 1, distinct=None):
        self.count = count
        self._distinct = distinct

    @classmethod
    def of(cls, spells: _Spells, grid):
        """``(keys, entry, exit, grid)``: the keys of each spell's entry and
        exit time in its replication, and of the ``grid`` times in each
        replication, one replication after another."""
        if spells.rep is None:
            return cls(), spells.entry, spells.exit, grid
        times = np.concatenate([spells.entry, spells.exit, grid])
        distinct, rank = np.unique(times, return_inverse=True)
        rank = rank.reshape(-1)
        n, size = spells.entry.size, distinct.size
        every = np.arange(spells.count)[:, None] * size
        return (
            cls(spells.count, distinct),
            spells.rep * size + rank[:n],
            spells.rep * size + rank[n : 2 * n],
            (every + rank[2 * n :]).reshape(-1),
        )

    def rep(self, keys):
        if self._distinct is None:
            return np.zeros(keys.size, dtype=np.intp)
        return keys // self._distinct.size

    def time(self, keys):
        if self._distinct is None:
            return keys
        return self._distinct[keys % self._distinct.size]


class _RiskSet:
    """Weighted risk set of one group's spells on jump grids, per replication.

    Spells and grid ``times`` come as :class:`_Keys` of ``(replication,
    time)`` pairs; the grid keys are sorted.  Each spell is counted in its own
    replication only: a replication's spells enter and leave before the next
    replication's first key, so their counts cancel.  A call with subject
    weights ``w`` (one replication only; default: each spell once) returns
    ``(at_risk, frozen, freeze)``: the weight of the spells at risk at each
    grid time (left-continuous, ``entry < t <= exit``), whether the grid time
    lies past its replication's freeze, and each replication's freeze time
    (``inf`` where it cuts no grid time).  A sample freezes at the first of
    its own exits before the horizon after which no spell is at risk
    (``entry <= t < exit``).
    """

    def __init__(self, keys, subject, entry, exit_, horizon, times):
        self.subject = subject
        self.times = times
        self._keys = keys
        self._spells = entry, exit_
        entry, exit_ = np.sort(entry), np.sort(exit_)
        # The distinct exits before the horizon end runs of ties in exit_.
        last = np.flatnonzero(_run_ends(exit_) & (keys.time(exit_) < horizon))
        self._ends = exit_[last]
        # Weight at risk at t is (weight of entries < t) - (of exits < t);
        # just after an exit time, (of entries <= t) - (of exits <= t).
        self._at = entry.searchsorted(times), exit_.searchsorted(times)
        self._after = entry.searchsorted(self._ends, "right"), last + 1

    @classmethod
    def of(cls, dataset: EventDataset, group: int | None, times) -> "_RiskSet":
        """The risk set of one dataset's ``group`` on the sorted ``times``."""
        mask = dataset._group_mask(group)
        spells = dataset._subject[mask], dataset._entry[mask], dataset._exit[mask]
        return cls(_Keys(), *spells, dataset.horizon, times)

    @cached_property
    def _sorted_subjects(self):
        """The spells' subjects in entry order and in exit order."""
        return [self.subject[np.argsort(x)] for x in self._spells]

    def __call__(self, weights: np.ndarray | None = None):
        (a, b), (c, d) = self._at, self._after
        if weights is None:
            at_risk, empty = a - b, c == d
        else:
            by_entry, by_exit = self._sorted_subjects
            entered = np.concatenate(([0], np.cumsum(weights[by_entry])))
            left = np.concatenate(([0], np.cumsum(weights[by_exit])))
            at_risk = entered[a] - left[b]
            # Only an end time where the sample's exit weight grows is its own.
            empty = (entered[c] == left[d]) & (np.diff(left[d], prepend=0) > 0)
        keys = self._keys
        freeze = np.full(keys.count, np.inf)
        first = self._ends[empty]
        if not first.size:
            return at_risk.astype(float), np.zeros(self.times.size, bool), freeze
        # Each replication's first empty end; a grid time is frozen when the
        # last such end before it is its own replication's.
        rep = keys.rep(first)
        first = first[np.append(True, rep[1:] != rep[:-1])]
        before = first[np.maximum(first.searchsorted(self.times) - 1, 0)]
        frozen = (before < self.times) & (keys.rep(before) == keys.rep(self.times))
        freeze[keys.rep(self.times[frozen])] = keys.time(before[frozen])
        return at_risk.astype(float), frozen, freeze


class _BlockDriver(NamedTuple):
    """The drivers of a block of replications, padded at the end to the
    longest: jump ``times`` ``(B, M)`` padded with ``inf``, ``increments``
    ``(M, B, k)`` padded with zeros, ``n_jumps`` and the sample-size
    ``scale`` ``(B,)``, each replication's ``truncation`` time (``inf`` for
    none), the components' ``deterministic`` flags and the ``horizon``."""

    times: np.ndarray
    increments: np.ndarray
    n_jumps: np.ndarray
    scale: np.ndarray
    truncation: np.ndarray
    deterministic: tuple[bool, ...]
    horizon: float


def _pad(n_jumps, times, increments):
    """Times ``(B, M)`` padded with ``inf`` and increments ``(M, B, k)``
    padded with zeros, from the jump rows of ``B`` replications, sorted by
    replication, then time, replication ``r`` having ``n_jumps[r]`` rows."""
    count, rows = n_jumps.size, int(n_jumps.max(initial=0))
    own = np.arange(rows) < n_jumps[:, None]
    padded_times = np.full((count, rows), np.inf)
    padded_times[own] = times
    padded = np.zeros((rows, count, increments.shape[1]))
    for j in range(increments.shape[1]):  # a column at a time: several times faster
        padded[..., j].T[own] = increments[:, j]
    return padded_times, padded


def _subjects(rep, subject, count: int) -> np.ndarray:
    """Distinct subjects of each replication among the spells given."""
    width = int(subject.max(initial=-1)) + 1
    seen = np.zeros(count * width, dtype=bool)
    seen[subject if rep is None else rep * width + subject] = True
    return np.count_nonzero(seen.reshape(count, width), axis=1)


def _block_driver(spells: _Spells, sources, grid_step=None) -> _BlockDriver:
    """The drivers of a block of replications in one risk-set pass.

    ``sources`` names each driver component in column order: ``(cause,
    group)`` for a Nelson-Aalen component, None for the time grid (step
    ``grid_step``, by default horizon/1000).  Each replication gets, bit for
    bit, the driver :func:`estimate_driver` gives for its own dataset: event
    counts ``dN`` and at-risk counts ``Y`` are integers counted per
    replication, so each ``dN / Y`` is its solo increment; each replication
    freezes on its own, and its rows are the union of its own component
    times, so padding only appends rows.
    """
    horizon, count, rep = spells.horizon, spells.count, spells.rep
    grid = _driver_grid(horizon, grid_step) if None in sources else np.empty(0)
    keys, entry, exit_, grid_keys = _Keys.of(spells, grid)
    parts = []
    scale = np.zeros(count, dtype=np.int64)
    truncation = np.full(count, np.inf)
    for source in sources:
        if source is None:
            steps = np.tile(np.diff(grid, prepend=0.0), count)
            parts.append((grid_keys, steps[:, None]))
            continue
        cause, group = source
        sel = slice(None) if group is None else spells.group == group
        ends = exit_[sel]
        events = (spells.code[sel] == cause) & (spells.exit[sel] <= horizon)
        times, dn = np.unique(ends[events], return_counts=True)
        subject = spells.subject[sel]
        risk = _RiskSet(keys, subject, entry[sel], ends, horizon, times)
        at_risk, frozen, freeze = risk()
        keep = ~frozen
        parts.append((times[keep], (dn[keep] / at_risk[keep])[:, None]))
        r = None if rep is None else rep[sel]
        scale += _subjects(r, subject, count)
        np.minimum(truncation, freeze, out=truncation)

    # Each replication's rows: the union of its components' times.
    rows, increments = _union(parts)
    n_jumps = np.bincount(keys.rep(rows), minlength=count)
    return _BlockDriver(
        *_pad(n_jumps, keys.time(rows), increments),
        n_jumps,
        np.maximum(scale, 1),
        truncation,
        tuple(source is None for source in sources),
        horizon,
    )


def _events(dataset: EventDataset, cause: int, group: int | None) -> np.ndarray:
    """Mask of the spells that end in a ``cause`` event of ``group`` by the
    horizon."""
    mask = dataset._group_mask(group) & (dataset._code == cause)
    return mask & (dataset._exit <= dataset.horizon)


def _block_sources(kind: SystemKind, group_map=None, cause_map=None) -> list:
    """The ``sources`` of :func:`_block_driver` for the driver slots of
    ``kind``, in column order: ``(cause, group)`` per hazard slot, with
    ``cause_map``/``group_map`` overriding the slot's defaults by role, and
    None per time grid."""
    causes, groups = cause_map or {}, group_map or {}
    return [
        None
        if slot.deterministic
        else (causes.get(slot.role, slot.cause), groups.get(slot.role, slot.group))
        for slot in driver_slots(kind)
    ]


def _driver(dataset: EventDataset, sources, grid_step=None):
    """The merged driver of one dataset: :func:`_block_driver` for a block
    of one replication, as a ``(StepPath, DriverMeta)`` pair."""
    if len(dataset) == 0:
        raise DataError("dataset has no subjects")
    labels = []
    for source in sources:
        if source is None:
            labels.append("time")
            continue
        cause, group = source
        if cause < 1:
            raise ValueError("cause must be a positive event code")
        if group is not None:
            dataset._group_mask(group)  # an unknown group raises ValueError
        label = f"cause{cause}" if group is None else f"cause{cause}|group{group}"
        labels.append(label)
    block = _block_driver(_Spells.of(dataset), sources, grid_step)
    path = StepPath(
        times=block.times[0],
        increments=block.increments[:, 0],
        origin_value=np.zeros(len(sources)),
        horizon=dataset.horizon,
    )
    truncation = float(block.truncation[0])
    meta = DriverMeta(
        scale_n=int(block.scale[0]),
        component_labels=tuple(labels),
        deterministic_mask=block.deterministic,
        truncation_time=truncation if truncation < np.inf else None,
    )
    return path, meta


def nelson_aalen(
    dataset: EventDataset, cause: int, group: int | None = None
) -> tuple[StepPath, DriverMeta]:
    """Nelson-Aalen estimate of the cumulative hazard for one cause.

    Jumps ``dN_t / Y_t`` at each (possibly tied) event time of ``cause``
    within the group; ``Y`` is the group's left-continuous risk set.  The path
    is frozen at the first time the risk set empties: later events (possible
    under delayed entry) are dropped and reported via ``truncation_time``.
    This is the one-replication call of the block kernel that the study
    replications use; ``Y`` and the freeze come from its risk-set kernel
    with unit weights, and a bootstrap resample's drivers come from the same
    kernel with its draw counts as weights.
    """
    return _driver(dataset, [(cause, group)])


def aalen_additive(
    dataset: EventDataset, cause: int, with_intercept: bool = True
) -> tuple[StepPath, DriverMeta]:
    """Additive-hazard regression increments for one cause.

    At each event time the increment solves the least-squares system of the
    at-risk design rows against the event indicator (QR solve, no explicit
    inverse), which for an intercept-only design reduces to Nelson-Aalen.
    If the at-risk design drops below full rank (reciprocal condition of the
    normal matrix under ``RANK_RCOND``) the path freezes there; a design that
    is singular already at the first event is an error.
    """
    if len(dataset) == 0:
        raise DataError("dataset has no subjects")
    p = dataset.covariate_dim
    k = p + (1 if with_intercept else 0)
    if k == 0:
        raise ValueError("additive regression needs covariates or an intercept")

    design = np.empty((len(dataset), k))
    if with_intercept:
        design[:, 0] = 1.0
        design[:, 1:] = dataset._covariates
    else:
        design[:] = dataset._covariates

    event_mask = _events(dataset, cause, None)
    times = np.unique(dataset._exit[event_mask])

    increments = np.zeros((times.size, k))
    truncation = None
    n_used = 0
    for i, t in enumerate(times):
        risk = (dataset._entry < t) & (t <= dataset._exit)
        u = design[risk]
        d = (event_mask & (dataset._exit == t))[risk].astype(float)
        s = np.linalg.svd(u, compute_uv=False)
        rcond = (s[-1] / s[0]) ** 2 if s.size and s[0] > 0 else 0.0
        if u.shape[0] < k or rcond < RANK_RCOND:
            if i == 0:
                raise DataError("design never full rank")
            truncation = float(t)
            break
        q, r = np.linalg.qr(u)
        increments[i] = np.linalg.solve(r, q.T @ d)
        n_used = i + 1
    times = times[:n_used]
    increments = increments[:n_used]

    labels = (("intercept",) if with_intercept else ()) + tuple(
        f"x{j + 1}" for j in range(p)
    )
    path = StepPath(
        times=times,
        increments=increments,
        origin_value=np.zeros(k),
        horizon=dataset.horizon,
    )
    meta = DriverMeta(
        scale_n=dataset.n_subjects,
        component_labels=labels,
        deterministic_mask=(False,) * k,
        truncation_time=truncation,
    )
    return path, meta


def _grid_times(horizon: float, step: float, start: float = 0.0) -> np.ndarray:
    """Grid ``start + step, start + 2*step, ...`` ending exactly at ``horizon``
    (a last point past it is moved onto it, a short last step is added)."""
    if not 0 < step <= horizon - start:
        raise ValueError(f"step must satisfy 0 < step <= {horizon - start:g}")
    count = int(np.floor((horizon - start) / step + 1e-12))
    times = start + np.arange(1, count + 1) * step
    if times.size and times[-1] > horizon:
        times[-1] = horizon
    if not times.size or times[-1] < horizon:
        times = np.append(times, horizon)
    return times


def _driver_grid(horizon: float, grid_step=None) -> np.ndarray:
    """The jump times of a driver's time grid: step ``grid_step``, by
    default horizon/1000."""
    return _grid_times(horizon, horizon / 1000.0 if grid_step is None else grid_step)


def time_grid_driver(horizon: float, step: float) -> tuple[StepPath, DriverMeta]:
    """Deterministic Lebesgue driver: the identity discretized on a grid.

    Jumps of size ``step`` at ``step, 2*step, ...`` with a final partial step
    to the horizon, so the path value at ``t`` is the largest grid point
    ``<= t`` and the discrepancy from ``t`` never exceeds ``step``.
    """
    times = _grid_times(horizon, step)
    increments = np.diff(times, prepend=0.0).reshape(-1, 1)
    path = StepPath(
        times=times, increments=increments, origin_value=np.zeros(1), horizon=horizon
    )
    meta = DriverMeta(
        scale_n=1, component_labels=("time",), deterministic_mask=(True,)
    )
    return path, meta


def estimate_driver(
    dataset: EventDataset,
    kind: SystemKind | str,
    grid_step: float | None = None,
    group_map: dict[str, int] | None = None,
    cause_map: dict[str, int] | None = None,
) -> tuple[StepPath, DriverMeta]:
    """Assemble the merged driver a system needs from an event dataset.

    Consults :func:`~hazard_transform.systems.driver_slots` for the component
    layout: Nelson-Aalen per hazard slot (with the slot's default cause/group,
    overridable via ``cause_map``/``group_map`` keyed by slot role) and a time
    grid for Lebesgue slots (``grid_step`` defaults to horizon/1000), on the
    union of the components' jump times, as
    :func:`~hazard_transform.paths.merge_drivers` merges them.
    """
    if isinstance(kind, str):
        kind = SystemKind(name=kind)
    return _driver(dataset, _block_sources(kind, group_map, cause_map), grid_step)
