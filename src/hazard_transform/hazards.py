"""Cumulative-hazard drivers: Nelson-Aalen, additive regression, time grids.

Every estimator returns a ``(StepPath, DriverMeta)`` pair so that drivers can
be merged component-wise and fed to the plugin solver.  Increments use the
left-continuous risk set (``entry < t <= exit``); tied event times collapse
into one jump.
"""

from __future__ import annotations

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


def _freeze_time(
    dataset: EventDataset, entry_sorted: np.ndarray, exit_sorted: np.ndarray
) -> float | None:
    """First time the risk set empties (checked just after each exit), or
    None if it never does before the horizon."""
    exits = np.unique(exit_sorted)
    exits = exits[exits < dataset.horizon]
    # risk set just after t: #{entry <= t} - #{exit <= t}
    y_after = np.searchsorted(entry_sorted, exits, side="right") - np.searchsorted(
        exit_sorted, exits, side="right"
    )
    empty = np.flatnonzero(y_after == 0)
    return float(exits[empty[0]]) if empty.size else None


def nelson_aalen(
    dataset: EventDataset, cause: int, group: int | None = None
) -> tuple[StepPath, DriverMeta]:
    """Nelson-Aalen estimate of the cumulative hazard for one cause.

    Jumps ``dN_t / Y_t`` at each (possibly tied) event time of ``cause``
    within the group; ``Y`` is the group's left-continuous risk set.  The path
    is frozen at the first time the risk set empties: later events (possible
    under delayed entry) are dropped and reported via ``truncation_time``.
    """
    if len(dataset) == 0:
        raise DataError("dataset has no subjects")
    if cause < 1:
        raise ValueError("cause must be a positive event code")
    mask = dataset._group_mask(group)
    scale_n = dataset.subjects_in_group(group)
    entry_sorted = np.sort(dataset._entry[mask])
    exit_sorted = np.sort(dataset._exit[mask])

    event_mask = mask & (dataset._code == cause) & (dataset._exit <= dataset.horizon)
    times, dn = np.unique(dataset._exit[event_mask], return_counts=True)

    truncation = _freeze_time(dataset, entry_sorted, exit_sorted)
    if truncation is not None:
        keep = times <= truncation
        if keep.all():
            truncation = None
        else:
            times, dn = times[keep], dn[keep]

    # left-continuous risk set: #{entry < t} - #{exit < t}
    at_risk = (
        np.searchsorted(entry_sorted, times, side="left")
        - np.searchsorted(exit_sorted, times, side="left")
    ).astype(float)
    increments = (dn / at_risk).reshape(-1, 1) if times.size else np.zeros((0, 1))

    label = f"cause{cause}" if group is None else f"cause{cause}|group{group}"
    path = StepPath(
        times=times,
        increments=increments,
        origin_value=np.zeros(1),
        horizon=dataset.horizon,
    )
    meta = DriverMeta(
        scale_n=scale_n,
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
    if not 0 < step <= horizon:
        raise ValueError("step must satisfy 0 < step <= horizon")
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
    for slot in driver_slots(kind):
        if slot.deterministic:
            step = grid_step if grid_step is not None else dataset.horizon / 1000.0
            parts.append(time_grid_driver(dataset.horizon, step))
        else:
            cause = (cause_map or {}).get(slot.role, slot.cause)
            group = (group_map or {}).get(slot.role, slot.group)
            parts.append(nelson_aalen(dataset, cause=cause, group=group))
    return merge_drivers(parts)
