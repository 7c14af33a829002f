"""Cumulative-hazard drivers: Nelson-Aalen, additive regression, time grids.

Every estimator returns a ``(StepPath, DriverMeta)`` pair so that drivers can
be merged component-wise and fed to the plugin solver.  Increments use the
left-continuous risk set (``entry < t <= exit``); tied event times collapse
into one jump.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np

from .errors import DataError
from .events import EventDataset
from .paths import DriverMeta, StepPath, merge_drivers
from .systems import SystemKind, driver_slots

__all__ = [
    "nelson_aalen",
    "aalen_additive",
    "time_grid_driver",
    "merge_drivers",
    "estimate_driver",
]

#: Reciprocal-condition threshold below which the additive design is treated
#: as rank deficient and the path is frozen.
RANK_RCOND = 1e-10


class _RiskSet:
    """Weighted risk set of one group's spells on a jump grid ``times``.

    The grid is binned once against the spells' sorted entry and exit times.
    A call with subject weights ``w`` (default: each spell once) returns
    ``(at_risk, cut, freeze)``: the weight of the spells at risk at each grid
    time (left-continuous, ``entry < t <= exit``), and the freeze.  A sample
    freezes at the first of its own exits before the horizon after which no
    spell is at risk (``entry <= t < exit``); ``cut`` is the number of grid
    times up to the freeze, and ``freeze`` its time, or None when it cuts no
    grid time.
    """

    def __init__(self, dataset: EventDataset, group: int | None, times: np.ndarray):
        mask = dataset._group_mask(group)
        self.subject = dataset._subject[mask]
        self.times = times
        self._spells = dataset._entry[mask], dataset._exit[mask]
        entry, exit_ = np.sort(self._spells[0]), np.sort(self._spells[1])
        # The distinct exits before the horizon end runs of ties in exit_.
        k = exit_.searchsorted(dataset.horizon)
        last = np.flatnonzero(exit_[:k] != np.append(exit_[1:], np.inf)[:k])
        self._ends = exit_[last]
        # Weight at risk at t is (weight of entries < t) - (of exits < t);
        # just after an exit time, (of entries <= t) - (of exits <= t).
        self._at = entry.searchsorted(times), exit_.searchsorted(times)
        self._after = entry.searchsorted(self._ends, "right"), last + 1

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
        frozen = np.flatnonzero(empty)
        if not frozen.size:
            return at_risk.astype(float), self.times.size, None
        freeze = float(self._ends[frozen[0]])
        cut = int(self.times.searchsorted(freeze, "right"))
        return at_risk.astype(float), cut, freeze if cut < self.times.size else None


def _events(dataset: EventDataset, cause: int, group: int | None) -> np.ndarray:
    """Mask of the spells that end in a ``cause`` event of ``group`` by the
    horizon."""
    mask = dataset._group_mask(group) & (dataset._code == cause)
    return mask & (dataset._exit <= dataset.horizon)


def _slot_sources(kind: SystemKind, group_map=None, cause_map=None):
    """``(slot, cause, group)`` of each driver slot of ``kind`` in column
    order; ``cause_map``/``group_map`` override a slot's defaults by role."""
    for slot in driver_slots(kind):
        cause = (cause_map or {}).get(slot.role, slot.cause)
        group = (group_map or {}).get(slot.role, slot.group)
        yield slot, cause, group


def nelson_aalen(
    dataset: EventDataset, cause: int, group: int | None = None
) -> tuple[StepPath, DriverMeta]:
    """Nelson-Aalen estimate of the cumulative hazard for one cause.

    Jumps ``dN_t / Y_t`` at each (possibly tied) event time of ``cause``
    within the group; ``Y`` is the group's left-continuous risk set.  The path
    is frozen at the first time the risk set empties: later events (possible
    under delayed entry) are dropped and reported via ``truncation_time``.
    ``Y`` and the freeze come from the weighted risk-set kernel with unit
    weights; a bootstrap resample's drivers come from the same kernel with
    its draw counts as weights.
    """
    if len(dataset) == 0:
        raise DataError("dataset has no subjects")
    if cause < 1:
        raise ValueError("cause must be a positive event code")
    events = _events(dataset, cause, group)
    times, dn = np.unique(dataset._exit[events], return_counts=True)
    at_risk, cut, truncation = _RiskSet(dataset, group, times)()
    increments = (dn[:cut] / at_risk[:cut]).reshape(-1, 1)

    label = f"cause{cause}" if group is None else f"cause{cause}|group{group}"
    path = StepPath(
        times=times[:cut],
        increments=increments,
        origin_value=np.zeros(1),
        horizon=dataset.horizon,
    )
    meta = DriverMeta(
        scale_n=dataset.subjects_in_group(group),
        component_labels=(label,),
        deterministic_mask=(False,),
        truncation_time=truncation,
    )
    return path, meta


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

    event_mask = (dataset._code == cause) & (dataset._exit <= dataset.horizon)
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
    grid for Lebesgue slots (``grid_step`` defaults to horizon/1000).
    """
    if isinstance(kind, str):
        kind = SystemKind(name=kind)
    parts = []
    for slot, cause, group in _slot_sources(kind, group_map, cause_map):
        if slot.deterministic:
            step = grid_step if grid_step is not None else dataset.horizon / 1000.0
            parts.append(time_grid_driver(dataset.horizon, step))
        else:
            parts.append(nelson_aalen(dataset, cause=cause, group=group))
    return merge_drivers(parts)
