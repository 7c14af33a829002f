"""Helpers shared by several test modules."""

import numpy as np

from hazard_transform import EventDataset


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
