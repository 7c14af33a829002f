"""Plugin solver: state recursion, covariance recursion, confidence bands.

Given a driver path A with jump times tau_1 < ... < tau_m and a parameter
system (F, gradients, X0), the solved state is the jump recursion

    X_{tau_k} = X_{tau_{k-1}} + F(X_{tau_{k-1}}) dA_{tau_k}

with F always evaluated at the left limit.  The covariance path follows the
companion recursion

    V_{tau_k} = V_{tau_{k-1}}
              + sum_j (V_{tau_{k-1}} G_j' + G_j V_{tau_{k-1}}) dA^j_{tau_k}
              + n * F dA dA' F'

with G_j the Jacobian of the j-th integrand column at the left limit and n
the driver's sample-size scale; the transport sum is applied one component
at a time, in column order.  Pointwise confidence intervals divide the
diagonal by n and apply a normal quantile.

The state has one kernel, ``_states``, shared by :func:`solve_plugin`, the
stacked bootstrap, the blocks of study replications and the coverage
oracle: it takes the increments of any batch of drivers and returns every
state, leaving the guards to one check of the finished paths,
``ParameterSystem._guard_trips``, which gives each path the error of its
earliest failing row.  Negative variances likewise have one check,
``_negative_variances``, shared by :func:`confidence_band` and the study
blocks.

Every system but ``screening`` is triangular (``ParameterSystem._rows``,
derived from a probe of the gradients): taken in a suitable order, each
state row reads only earlier rows, or only itself, and ``_states`` solves
it row by row over all jumps at once.  A row that reads only itself is a
product limit

    X^i_{tau_k} = X^i_{tau_{k-1}} (1 + sum_j G_j[i,i] dA^j_{tau_k}),

one ``np.multiply.accumulate``; the survival row is literally the
product-limit estimator of Nelson-Aalen, the identity the method
generalizes.  A row that never reads itself is the running sum of its
integrand at the left limits, one ``np.add.accumulate``.  The coefficients
are elementwise multiply-adds in column order, and both accumulations run
sequentially along time, so a driver solved in a stack gets its solo states
bit for bit, and so does a path solved in pieces.  Any other system steps
through the jumps once, the whole batch in each step, with the same
elementwise multiply-adds in column order, so it too gets its solo states
bit for bit.

The covariance has one solver, ``_covariances``, for any batch of drivers.
It inherits the state's structure: entry (i, l) of V is updated through
row i of each G_j, reading entries (r, l), and through row l, reading
entries (i, r).  The Jacobians are evaluated once on the left limits, and
their pattern (the cells nonzero or NaN anywhere in the batch) orders the
rows as the state's are, a row reading itself allowed.  Taken by their
later row, then their earlier one, the entries read only earlier entries
or themselves, so each is a scalar affine recurrence

    V^il_{tau_k} = a_k V^il_{tau_{k-1}} + b_k,

its map composed over the components in column order from the values the
earlier entries have before each (their stages), plus n * fda_i fda_l.
Its prefix compositions (``_prefix``) solve it over all jumps at once.
A solve returns only the cells its caller asks for (a study block those
its measure reads, :func:`solve_variance` all) and solves their closure,
``_entry_closure``, which a study block's memory charge counts too.
Every system in the catalog, ``screening`` included, has such an order; a
hand-built system whose pattern has a cycle steps through the jumps.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from statistics import NormalDist

import numpy as np

from .errors import NegativeVarianceError
from .paths import DriverMeta, StepPath, _read_table, _write_table
from .systems import ParameterSystem, _solving_order

__all__ = [
    "solve_plugin",
    "solve_variance",
    "PluginFit",
    "fit_plugin",
    "ConfidenceBand",
    "confidence_band",
    "write_fit",
    "read_fit",
]


def _prefix(elems, combine):
    """Inclusive prefix compositions ``a_i o ... o a_0`` along axis 0,
    written over ``elems`` and returned.

    ``elems`` is a tuple of arrays (one element per row) and
    ``combine(later, earlier)`` composes two such tuples row-wise into new
    arrays.  Pairs are composed, their prefixes found recursively, and the
    even rows filled in from those: about two compositions per row, in
    log-depth array passes.  Row ``i`` is read only before it is written, so
    no output arrays are needed: a scan holds its elements and about half as
    much again.
    """
    m = elems[0].shape[0]
    if m < 2:
        return elems
    pairs = combine(
        tuple(e[1::2] for e in elems), tuple(e[0 : m - 1 : 2] for e in elems)
    )
    sub = _prefix(pairs, combine)
    if m > 2:
        evens = combine(
            tuple(e[2::2] for e in elems), tuple(p[: (m - 1) // 2] for p in sub)
        )
        for e, ev in zip(elems, evens):
            e[2::2] = ev
    for e, p in zip(elems, sub):
        e[1::2] = p
    return elems


def _compose(later, earlier):
    """Elementwise composition of the affine maps ``x -> a x + b``."""
    (a2, b2), (a1, b1) = later, earlier
    return a2 * a1, a2 * b1 + b2


def solve_plugin(
    system: ParameterSystem, driver: StepPath, x0_override=None
) -> StepPath:
    """Run the state recursion along the driver's jump times.

    Returns a :class:`StepPath` with the same jump times as the driver whose
    value at ``t`` is the plugin estimate.  Guard bounds are checked at the
    initial state and at every jump; a violation raises
    :class:`GuardViolation` with the earliest failing time and its component.
    """
    if driver.dimension != system.driver_dim:
        raise ValueError(
            f"driver has {driver.dimension} components, "
            f"system {system.name!r} expects {system.driver_dim}"
        )
    x = np.array(
        system.initial_value if x0_override is None else x0_override, dtype=float
    )
    if x.shape != (system.state_dim,):
        raise ValueError(f"initial state must have shape ({system.state_dim},)")
    values = _states(system, driver.increments, x)
    system.check_guard_path(np.concatenate([[0.0], driver.times]), values)
    return StepPath.from_values(driver.times.copy(), values, driver.horizon)


def _states(system: ParameterSystem, increments, x0, out=None) -> np.ndarray:
    """States ``X_k = X_{k-1} + F(X_{k-1}) dA_k`` from ``X_0 = x0``.

    ``increments`` has shape ``(m, *batch, k)``; the batch axes (bootstrap
    resamples, study replications) ride along while time stays on axis 0.
    Returns the ``(m + 1, *batch, n)`` values, the first row ``x0``, written
    into ``out`` when given.  A triangular system (``_rows``) is solved row by
    row, any other one jump by jump, each step an elementwise multiply-add
    over the driver columns in column order, as :func:`_solve_row` forms its
    coefficients: a stacked driver gets its solo states bit for bit, on any
    BLAS.  Guards are not checked: rows after a guard trip are computed like
    any other, and the caller's ``ParameterSystem._guard_trips`` (or
    ``check_guard_path``) call, which covers the initial state too, rejects
    the path.
    """
    m, batch = increments.shape[0], increments.shape[1:-1]
    values = np.empty((m + 1, *batch, system.state_dim)) if out is None else out
    values[0] = x0
    with np.errstate(all="ignore"):
        if system._rows is not None:
            for i, terms in system._rows:
                _solve_row(system, i, terms, increments, values)
            return values
        for k in range(m):
            fda, step = system.integrand(values[k]) * increments[k, ..., None, :], 0.0
            for j in range(fda.shape[-1]):
                step = step + fda[..., j]
            values[k + 1] = values[k] + step
    return values


def _solve_row(system, i, terms, increments, values) -> None:
    """Row ``i`` of ``values`` (its first entry set), in place, from its
    ``ParameterSystem._rows`` terms: the product limit ``x_k = x_{k-1} (1 +
    sum_j G_j[i,i] dA^j_k)`` when every term reads row ``i``, else the
    running sum ``x_k = x_{k-1} + sum_j F_ij(x_{k-1}) dA^j_k`` of the
    integrand at the left limits, whose rows are solved.

    Each coefficient is an elementwise multiply-add in column order, and each
    accumulation runs along time, one batch entry at a time: a stacked driver
    gets its solo row bit for bit, and a path solved in pieces, each from the
    last value of the one before, the row of the whole path."""
    row, lefts = values[..., i], values[:-1]
    product = terms is not None and all(l == i for _, l, _ in terms)
    if terms is None:
        f = system.integrand(lefts)[..., i, :]
        coefficients = {j: f[..., j] for j in range(f.shape[-1])}
    else:
        coefficients = {}
        for j, l, g in terms:
            c = g if product else g * lefts[..., l]
            coefficients[j] = coefficients[j] + c if j in coefficients else c
    step = row[1:]
    step[...] = 0.0
    for j, c in coefficients.items():  # a sum row's c is scratch: reused
        step += np.multiply(c, increments[..., j], out=None if product else c)
    if product:
        step += 1.0
        np.multiply.accumulate(row, axis=0, out=row)
    else:
        np.add.accumulate(row, axis=0, out=row)


def solve_variance(
    system: ParameterSystem,
    driver: StepPath,
    meta: DriverMeta,
    state: StepPath,
    v0=None,
) -> np.ndarray:
    """Run the covariance recursion along a solved state path.

    ``state`` must be the output of :func:`solve_plugin` for the same driver
    (same jump times).  Returns an array of shape ``(m, n, n)`` holding the
    symmetric covariance-scale matrix at each jump time; the value at ``t=0``
    is ``v0`` (zero by default, for deterministic initial states), which must
    be exactly symmetric: the solver reads one of each pair of its entries.
    The recursion is solved entry by entry over all jumps at once, in the
    order of the Jacobians' pattern (see :func:`_covariances`).

    Driver components flagged deterministic in ``meta`` (time grids) carry no
    sampling noise: they enter the transport term like every component but
    are excluded from the quadratic term.  Including them there would add the
    squared grid increments -- pure discretization residue of order
    ``scale_n * mesh`` that can dwarf the true variance of time-integrating
    components unless the grid is much finer than ``1 / scale_n``.
    """
    n = system.state_dim
    if driver.dimension != system.driver_dim:
        raise ValueError("driver dimension does not match the system")
    if len(meta.deterministic_mask) != driver.dimension:
        raise ValueError("driver metadata does not match the driver dimension")
    if state.dimension != n or state.n_jumps != driver.n_jumps:
        raise ValueError("state path does not align with the driver")
    if not np.array_equal(state.times, driver.times):
        raise ValueError("state path and driver must share jump times")
    if v0 is None:
        v = np.zeros((n, n))
    else:
        v = np.array(v0, dtype=float)
        if v.shape != (n, n) or not np.array_equal(v, v.T):
            raise ValueError("v0 must be a symmetric n x n matrix")

    lefts = np.vstack([state.origin_value, state.values_at_jumps()[:-1]])
    stochastic = np.where(np.asarray(meta.deterministic_mask, dtype=bool), 0.0, 1.0)
    args = lefts[: driver.n_jumps], driver.increments, meta.scale_n, stochastic, v
    cov = _covariances(system, *args, list(np.ndindex(n, n)))
    return cov.reshape(driver.n_jumps, n, n)


def _entry_closure(reads, cells) -> set:
    """The entries ``(max, min)`` that a covariance solve of the ``(i, l)``
    ``cells`` takes: those and, recursively, the ones they read.  Row ``i``
    reads the rows ``reads[i]``, and entry ``(i, l)`` reads ``(r, l)`` for
    each ``r`` in ``reads[i]`` and ``(i, r)`` for each ``r`` in ``reads[l]``."""
    todo, closure = list(cells), set()
    while todo:
        i, l = todo.pop()
        if (e := (max(i, l), min(i, l))) not in closure:
            closure.add(e)
            todo += [(r, l) for r in reads[i]] + [(i, r) for r in reads[l]]
    return closure


def _covariances(
    system, lefts, increments, scale, stochastic, v0, cells
) -> np.ndarray:
    """Covariances ``V_k`` at every jump from ``V_0 = v0``, given the states
    ``lefts`` at the jumps' left limits, in the ``(i, l)`` ``cells`` asked.

    ``lefts`` has shape ``(m, *batch, n)`` and ``increments`` ``(m, *batch,
    k)``; ``scale`` is the sample-size scale, a number or one per batch
    entry, and ``stochastic`` is 1 for the driver components that carry
    sampling noise and 0 for time grids.  Returns ``(m, *batch,
    len(cells))``, column ``c`` the entry ``cells[c]``, ``(i, l)`` or ``(l,
    i)``.  Only the cells' closure (:func:`_entry_closure`) is solved, each
    entry once and as in a solve of every cell.

    Component ``j`` updates entry ``(i, l)`` by ``sum_r G_j[i, r] V[r, l] +
    G_j[l, r] V[r, i]`` per unit of ``dA^j``.  The Jacobian cells nonzero,
    or NaN, anywhere in the batch order the rows as a triangular state's
    are (``systems._solving_order``, a row reading itself allowed); taken
    by their later row, then their earlier one, the entries then read only
    earlier entries or themselves.  Each is solved over all jumps at once
    as a scalar affine recurrence ``x_k = a_k x_{k-1} + b_k``, its map
    composed over the components in column order from the values the
    earlier entries have before each (their stages), plus ``n * fda_i
    fda_l``, and scanned by ``_prefix``; an entry's stages are kept only
    while a later entry reads them.  The order comes from the pattern of
    the whole batch, every operation is elementwise and the scan's
    compositions depend only on the row, so a batch entry gets its solo
    covariances bit for bit.  A pattern with a cycle (only a hand-built
    system has one) steps jump by jump instead, ``V_k = V_{k-1} + sum_j (G_j
    V + V G_j') dA^j_k + n fda fda'``, the whole batch in each step, and
    keeps the cells asked of each step.
    """
    n = system.state_dim
    m, batch = increments.shape[0], increments.shape[1:-1]
    scale = np.asarray(scale, dtype=float)
    out = np.empty((m, *batch, len(cells)))
    with np.errstate(all="ignore"):

        def pattern(g):  # (s, r) -> G[..., s, r] where nonzero, or NaN, anywhere
            present = np.argwhere((np.reshape(g, (-1, n, n)) != 0).any(0)).tolist()
            return {(s, r): g[..., s, r].copy() for s, r in present}

        jacobians = [pattern(gradient(lefts)) for gradient in system.gradients]
        fda = (system.integrand(lefts) @ (increments * stochastic)[..., None])[..., 0]
        reads = [{r for g in jacobians for s, r in g if s == i} for i in range(n)]
        order = _solving_order(reads)
        if order is None:
            shape = (m, *batch, n, n)
            full = [np.broadcast_to(g(lefts), shape) for g in system.gradients]
            v = np.broadcast_to(v0, shape[1:])
            rows, cols = np.reshape(np.array(cells, dtype=np.intp), (-1, 2)).T
            for k, f in enumerate(fda):
                for g, da in zip(full, np.moveaxis(increments[k], -1, 0)):
                    gv = g[k] @ v
                    v = v + (gv + np.swapaxes(gv, -1, -2)) * da[..., None, None]
                v = v + scale[..., None, None] * f[..., None] * f[..., None, :]
                out[k] = v[..., rows, cols]
            return out
        pos = {row: t for t, row in enumerate(order)}

        def entry(a, b):
            return (a, b) if pos[a] >= pos[b] else (b, a)

        def terms(e):  # (j, G_j[..., s, r], the entry it multiplies) for e
            return [
                (j, cell, entry(r, other))
                for row, other in (e, e[::-1])  # the same terms twice when i == l
                for j, g in enumerate(jacobians)
                for (s, r), cell in g.items()
                if s == row
            ]

        asked = [entry(*e) for e in cells]
        entries = sorted(
            (entry(*e) for e in _entry_closure(reads, cells)),
            key=lambda e: (pos[e[0]], pos[e[1]]),
        )
        last_read = {o: t for t, e in enumerate(entries) for *_, o in terms(e)}
        stages = {}  # entry -> its values before each component, while read
        for t, e in enumerate(entries):
            own, rest = [0.0] * len(jacobians), [0.0] * len(jacobians)
            for j, cell, o in terms(e):
                if o == e:
                    own[j] = own[j] + cell
                else:
                    rest[j] = rest[j] + cell * stages[o][j]
            maps = [(1.0, 0.0)]  # the entry before each component, of V_{k-1}
            for c, r, da in zip(own, rest, np.moveaxis(increments, -1, 0)):
                maps.append(_compose((1.0 + da * c, da * r), maps[-1]))
            (a, b), (i, l) = maps.pop(), e
            a, b = _prefix((a, b + scale * (fda[..., i] * fda[..., l])), _compose)
            values = np.concatenate([np.full((1, *batch), v0[e]), a * v0[e] + b])
            out[..., [c for c, o in enumerate(asked) if o == e]] = values[1:, ..., None]
            if last_read.get(e, t) > t:
                stages[e] = [values[:-1]] + [a * values[:-1] + b for a, b in maps[1:]]
            stages = {o: stage for o, stage in stages.items() if last_read[o] > t}
    return out


@dataclass(frozen=True)
class PluginFit:
    """Solved state path plus covariance path on shared jump times."""

    state_path: StepPath
    cov_path: np.ndarray  # (m, n, n), value at each jump time
    v0: np.ndarray        # (n, n), value at t = 0
    scale_n: int
    state_labels: tuple[str, ...]

    @property
    def times(self) -> np.ndarray:
        return self.state_path.times

    def cov_diag(self) -> np.ndarray:
        """Variance-scale diagonal including the origin row, shape (m+1, n)."""
        diag = np.einsum("kii->ki", self.cov_path)
        return np.vstack([np.diag(self.v0), diag])


def fit_plugin(
    system: ParameterSystem,
    driver: StepPath,
    meta: DriverMeta,
    x0_override=None,
    v0=None,
) -> PluginFit:
    """Solve state and covariance recursions together."""
    state = solve_plugin(system, driver, x0_override=x0_override)
    cov = solve_variance(system, driver, meta, state, v0=v0)
    n = system.state_dim
    return PluginFit(
        state_path=state,
        cov_path=cov,
        v0=np.zeros((n, n)) if v0 is None else np.array(v0, dtype=float),
        scale_n=meta.scale_n,
        state_labels=system.state_labels,
    )


@dataclass(frozen=True)
class ConfidenceBand:
    """Pointwise normal band; step-constant between jump times."""

    times: np.ndarray   # (m + 1,), starting at 0
    point: np.ndarray   # (m + 1, n)
    lower: np.ndarray
    upper: np.ndarray
    level: float

    def value_at(self, t):
        """(point, lower, upper) at scalar or array t, right-continuous."""
        idx = np.searchsorted(self.times[1:], np.asarray(t, dtype=float), side="right")
        return self.point[idx], self.lower[idx], self.upper[idx]


def confidence_band(fit: PluginFit, level: float) -> ConfidenceBand:
    """Pointwise interval ``X_i +/- z * sqrt(V_ii / n)`` per state component.

    Raises :class:`NegativeVarianceError` listing the offending times if any
    variance diagonal entry is negative (small-sample collapse is surfaced,
    never clamped).
    """
    if not 0.0 < level < 1.0:
        raise ValueError("level must be strictly between 0 and 1")
    diag = fit.cov_diag()
    times = np.concatenate([[0.0], fit.times])
    (error,) = _negative_variances(times, diag, fit.state_labels)
    if error is not None:
        raise error
    z = NormalDist().inv_cdf(0.5 * (1.0 + level))
    half = z * np.sqrt(diag / fit.scale_n)
    point = np.vstack([fit.state_path.origin_value, fit.state_path.values_at_jumps()])
    return ConfidenceBand(
        times=times, point=point, lower=point - half, upper=point + half, level=level
    )


def _negative_variances(times, diag, labels, rows=None) -> list:
    """The negative variances of each batch entry of the diagonals ``diag``,
    shape ``(m, *batch, n)``, at ``times`` (broadcast to ``(m, *batch)``),
    entries in C order: a :class:`NegativeVarianceError` for the entry's first
    component (of ``labels``) with a negative entry, listing every time where
    it is, or None.  With ``rows`` (shape ``batch``), only an entry's first
    ``rows`` rows count.  NaN is not negative."""
    m, errors = diag.shape[0], [None] * int(np.prod(diag.shape[1:-1]))
    negative = (diag < 0).reshape(m, len(errors), diag.shape[-1])
    if rows is not None:
        negative &= (np.arange(m)[:, None] < np.reshape(rows, -1))[..., None]
    times = np.broadcast_to(times, diag.shape[:-1]).reshape(m, len(errors))
    for e in np.flatnonzero(negative.any(axis=(0, 2))):
        i = negative[:, e].any(axis=0).argmax()
        errors[e] = NegativeVarianceError(times[negative[:, e, i], e], labels[i])
    return errors


def write_fit(fit: PluginFit, band: ConfidenceBand, base) -> None:
    """Write a fit as ``<base>.csv`` + ``<base>.json`` metadata.

    CSV columns: ``time``, the state components, the upper triangle of the
    covariance matrix, then ``lo_i, hi_i`` per component at the band's level.
    The ``t = 0`` row carries the initial state and covariance.
    """
    _write_fit(fit, band, base)


def _write_fit(fit: PluginFit, band: ConfidenceBand, base, band_path=None) -> None:
    """:func:`write_fit`; with ``band_path``, also write the band CSV there
    (columns ``time, lo_1, hi_1, ...``: the first and last ``2n`` columns of
    the fit CSV) in the same pass, from the same formatted cells."""
    base = Path(base)
    n = len(fit.state_labels)
    rows, cols = np.triu_indices(n)
    header = (
        ["time"]
        + [f"X_{i + 1}" for i in range(n)]
        + [f"V_{i + 1}{j + 1}" for i, j in zip(rows, cols)]
        + [c for i in range(n) for c in (f"lo_{i + 1}", f"hi_{i + 1}")]
    )

    def block(lo, hi):
        # Row 0 is the initial covariance, row i > 0 the path's row i - 1.
        cov = fit.cov_path[max(lo, 1) - 1 : hi - 1]
        if lo == 0:
            cov = np.concatenate([fit.v0[None, :, :], cov])
        return np.column_stack(
            [
                band.times[lo:hi],
                band.point[lo:hi],
                cov[:, rows, cols],
                np.stack([band.lower[lo:hi], band.upper[lo:hi]], axis=2).reshape(
                    hi - lo, 2 * n
                ),
            ]
        )

    tail = None if band_path is None else (band_path, header[:1] + header[-2 * n :])
    _write_table(base.with_suffix(".csv"), header, band.times.size, block, tail=tail)
    metadata = {
        "scale_n": fit.scale_n,
        "state_labels": list(fit.state_labels),
        "level": band.level,
        "horizon": fit.state_path.horizon,
        "state_min": [float(v) for v in band.point.min(axis=0)],
        "state_max": [float(v) for v in band.point.max(axis=0)],
    }
    with open(base.with_suffix(".json"), "w") as fh:
        json.dump(metadata, fh, indent=2)
        fh.write("\n")


def read_fit(base) -> tuple[PluginFit, ConfidenceBand]:
    """Inverse of :func:`write_fit`."""
    base = Path(base)
    with open(base.with_suffix(".json")) as fh:
        metadata = json.load(fh)
    labels = tuple(metadata["state_labels"])
    n = len(labels)
    _, data = _read_table(base.with_suffix(".csv"))
    rows, cols = np.triu_indices(n)
    times = data[:, 0]
    point = data[:, 1 : 1 + n]
    tri = data[:, 1 + n : 1 + n + rows.size]
    lohi = data[:, 1 + n + rows.size :]
    cov = np.empty((data.shape[0], n, n))
    cov[:, rows, cols] = tri
    cov[:, cols, rows] = tri
    # The CSV stores values, not increments, so evaluation round-trips exactly.
    state = StepPath.from_values(times[1:], point, float(metadata["horizon"]))
    fit = PluginFit(
        state_path=state,
        cov_path=cov[1:],
        v0=cov[0],
        scale_n=int(metadata["scale_n"]),
        state_labels=labels,
    )
    band = ConfidenceBand(
        times=times,
        point=point,
        lower=lohi[:, 0::2],
        upper=lohi[:, 1::2],
        level=float(metadata["level"]),
    )
    return fit, band
