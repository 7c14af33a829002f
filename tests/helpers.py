"""Helpers shared by several test modules."""

from types import SimpleNamespace

import numpy as np

from hazard_transform import (
    DriverMeta,
    EventDataset,
    NegativeVarianceError,
    StepPath,
    simlab,
    time_grid_driver,
)


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


def solo_nelson_aalen(ds: EventDataset, cause: int, group=None):
    """Nelson-Aalen of one dataset from its sorted entry and exit times: the
    per-dataset risk set the block kernel replaced, kept as its reference.
    ``Y`` at each event time is (entries < t) - (exits < t); the path
    freezes at the first exit before the horizon after which (entries <= t)
    equals (exits <= t)."""
    mask = ds._group_mask(group)
    events = mask & (ds._code == cause) & (ds._exit <= ds.horizon)
    times, dn = np.unique(ds._exit[events], return_counts=True)
    entry, exit_ = np.sort(ds._entry[mask]), np.sort(ds._exit[mask])
    k = exit_.searchsorted(ds.horizon)
    last = np.flatnonzero(exit_[:k] != np.append(exit_[1:], np.inf)[:k])
    ends = exit_[last]
    at_risk = (entry.searchsorted(times) - exit_.searchsorted(times)).astype(float)
    frozen = np.flatnonzero(entry.searchsorted(ends, "right") == last + 1)
    cut, truncation = times.size, None
    if frozen.size:
        freeze = float(ends[frozen[0]])
        cut = int(times.searchsorted(freeze, "right"))
        truncation = freeze if cut < times.size else None
    label = f"cause{cause}" if group is None else f"cause{cause}|group{group}"
    path = StepPath(
        times=times[:cut],
        increments=(dn[:cut] / at_risk[:cut]).reshape(-1, 1),
        origin_value=np.zeros(1),
        horizon=ds.horizon,
    )
    meta = DriverMeta(
        scale_n=ds.subjects_in_group(group),
        component_labels=(label,),
        deterministic_mask=(False,),
        truncation_time=truncation,
    )
    return path, meta


def union_merge(paths):
    """``(times, increments)`` of ``paths`` on the union of their jump
    times, each path's columns zero where it has no jump: the chain of
    ``union1d`` calls and the scatter that ``merge_drivers`` merged with
    before it shared the block kernel's union, kept as the reference for
    both."""
    times = paths[0].times
    for path in paths[1:]:
        times = np.union1d(times, path.times)
    increments = np.zeros((times.size, sum(path.dimension for path in paths)))
    offset = 0
    for path in paths:
        pos = np.searchsorted(times, path.times)
        increments[pos, offset : offset + path.dimension] = path.increments
        offset += path.dimension
    return times, increments


def solo_block(spells, sources, grid_step):
    """A block's padded drivers built one replication at a time, the
    reference for the block kernel: each replication's dataset, one
    :func:`solo_nelson_aalen` per ``(cause, group)`` source and a time grid
    per None, merged by :func:`union_merge`, then each driver copied into
    the padded arrays.  Returns ``(times, increments, n_jumps, scale,
    truncation)`` with ``inf`` for no truncation."""
    merged, scale, truncation = [], [], []
    for r in range(spells.count):
        own = spells.rep == r
        ds = EventDataset.from_columns(
            spells.subject[own],
            spells.entry[own],
            spells.exit[own],
            spells.code[own],
            spells.horizon,
            group=None if spells.group is None else spells.group[own],
        )
        parts = [
            time_grid_driver(ds.horizon, grid_step)
            if source is None
            else solo_nelson_aalen(ds, *source)
            for source in sources
        ]
        merged.append(union_merge([path for path, _ in parts]))
        metas = [meta for _, meta in parts]
        stochastic = [m.scale_n for m in metas if not all(m.deterministic_mask)]
        scale.append(max(sum(stochastic), 1))
        cuts = [m.truncation_time for m in metas if m.truncation_time is not None]
        truncation.append(min(cuts, default=np.inf))
    n_jumps = np.array([t.size for t, _ in merged])
    times = np.full((spells.count, n_jumps.max()), np.inf)
    increments = np.zeros((n_jumps.max(), spells.count, len(sources)))
    for r, (t, values) in enumerate(merged):
        times[r, : n_jumps[r]] = t
        increments[: n_jumps[r], r] = values
    return times, increments, n_jumps, np.array(scale), np.array(truncation)


def study_tasks(kind, n_list, k, entries, grid_step=None, horizon=1.0) -> int:
    """How many tasks a study of ``k`` replications at each sample size of
    ``n_list`` runs in: the blocks :func:`simlab._blocks` cuts them into for
    a measure that asks for the covariance cells ``entries``."""
    scenario = SimpleNamespace(system=kind, hazards={}, horizon=horizon)
    ctx = {"scenario": scenario, "grid_step": grid_step, "entries": entries}
    groups = [(i, n, list(range(k))) for i, n in enumerate(n_list)]
    return len(simlab._blocks(groups, ctx))
