"""Helpers shared by several test modules."""

import numpy as np

from hazard_transform import EventDataset, NegativeVarianceError, StepPath


def take_subjects(ds: EventDataset, idx) -> EventDataset:
    """Dataset of the subjects ``idx`` of ``ds`` (indices, repeats allowed),
    with their spells gathered from the columns; each draw is a new subject
    (labelled ``s1, s2, ...`` in draw order).  The bootstrap's stacked
    drivers are checked against the drivers of these gathered resamples."""
    # Subject i's spells, in record order, are rows[start[i] : start[i] + size[i]].
    rows = np.argsort(ds._subject, kind="stable")
    size = np.bincount(ds._subject, minlength=ds.n_subjects)
    start = np.cumsum(size) - size
    idx = np.asarray(idx, dtype=np.int64)
    drawn = size[idx]
    offset = np.cumsum(drawn) - drawn
    take = rows[np.arange(drawn.sum()) + np.repeat(start[idx] - offset, drawn)]
    return EventDataset.from_columns(
        np.repeat(np.arange(idx.size), drawn),
        ds._entry[take],
        ds._exit[take],
        ds._code[take],
        ds.horizon,
        group=ds._group[take],
        covariates=ds._covariates[take],
    )


#: Width below which :func:`bisect_invert` stops halving.
BISECT_TOL = 1e-10


def bisect_invert(spec, targets) -> np.ndarray:
    """``spec.invert`` by bisection, the reference for the closed form: the
    midpoint of a bracket ``[lo, hi]`` of ``[0, horizon]``, halved together
    for all targets until it is at most ``BISECT_TOL`` wide, whose ends keep
    ``cumulative(lo) < target <= cumulative(hi)``.  Targets above
    ``cumulative(horizon)`` give ``inf``."""
    targets = np.atleast_1d(np.asarray(targets, dtype=float))
    out = np.full(targets.shape, np.inf)
    total = float(spec.cumulative(spec.horizon))
    active = targets <= total
    if active.any():
        t = targets[active]
        lo = np.zeros(t.size)
        hi = np.full(t.size, float(spec.horizon))
        while (hi - lo).max() > BISECT_TOL:
            mid = 0.5 * (lo + hi)
            below = spec.cumulative(mid) < t
            lo = np.where(below, mid, lo)
            hi = np.where(below, hi, mid)
        out[active] = 0.5 * (lo + hi)
    return out


def first_negative_variance(times, diag, labels):
    """The negative-variance check one component at a time, the reference for
    the batched kernel: a :class:`NegativeVarianceError` for the first
    component ``i`` (of ``labels``) whose variances ``diag[:, i]`` are
    negative anywhere, listing ``times`` where they are, or None."""
    for i, label in enumerate(labels):
        bad = diag[:, i] < 0
        if bad.any():
            return NegativeVarianceError(times[bad], label)
    return None


def _spells(ds: EventDataset, group):
    return [r for r in ds.records if group is None or r.group == group]


def at_risk(ds: EventDataset, t: float, group=None) -> int:
    """Spells of ``group`` under observation just before ``t``, counted from
    the records (``entry < t <= exit``: a subject is at risk at its own event
    time); the reference for Nelson-Aalen's risk set."""
    return sum(r.entry_time < t <= r.exit_time for r in _spells(ds, group))


def counting_path(ds: EventDataset, cause: int, group=None) -> StepPath:
    """Counting process ``N_t`` of the ``cause`` events of ``group`` by the
    horizon, from the records; tied event times make one jump of integer
    size.  The reference for Nelson-Aalen's ``dN``."""
    exits = [
        r.exit_time
        for r in _spells(ds, group)
        if r.event_code == cause and r.exit_time <= ds.horizon
    ]
    times, counts = np.unique(np.array(exits, dtype=float), return_counts=True)
    return StepPath(
        times=times,
        increments=counts.astype(float).reshape(-1, 1),
        origin_value=np.zeros(1),
        horizon=ds.horizon,
    )
