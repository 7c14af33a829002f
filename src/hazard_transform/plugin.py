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

The state has one kernel, ``_states``, shared by :func:`solve_plugin` and
the stacked bootstrap: it takes the increments of any batch of drivers and
returns every state, leaving the guards to one check of the finished path.
Linear systems carry a constant Jacobian tensor
(``ParameterSystem.jacobians``, F(x)[:, j] = G_j x), and for them the state
is the product integral

    X_{tau_k} = (I + B_k) ... (I + B_1) X_0,    B_k = sum_j G_j dA^j_{tau_k},

of which Kaplan-Meier as the product integral of Nelson-Aalen is the
one-dimensional case, solved by an associative scan (prefix compositions).
Nonlinear systems (``ler``, ``screening``) step through the jumps once, the
whole batch in each step.

The covariance has one solver for every system.  Given the solved states,
each covariance step is an affine map of vech(V): the Jacobians at the left
limits turn into vech maps, composed over the components in column order,
plus n * vech(f f').  The maps are built for a block of ``SCAN_CHUNK`` jumps
at a time from one batched evaluation of ``gradients`` and ``integrand`` and
scanned like the product integral, the last value of a block carried into
the next.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import cache
from pathlib import Path
from statistics import NormalDist

import numpy as np

from .errors import NegativeVarianceError
from .paths import DriverMeta, StepPath, _read_table, _write_table
from .systems import ParameterSystem

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


#: Jumps per block of the scans.  Blocks are scanned one at a time, each
#: starting from the previous block's last value, so a scan's working memory is
#: a few (SCAN_CHUNK, p, p) arrays whatever the path length.
SCAN_CHUNK = 1024


def _prefix(elems, combine):
    """Inclusive prefix compositions ``a_i o ... o a_0`` along axis 0.

    ``elems`` is a tuple of arrays (one element per row) and
    ``combine(later, earlier)`` composes two such tuples row-wise.  Pairs are
    composed, their prefixes found recursively, and the even rows filled in
    from those: about two compositions per row, in log-depth array passes.
    """
    m = elems[0].shape[0]
    if m < 2:
        return elems
    pairs = combine(
        tuple(e[1::2] for e in elems), tuple(e[0 : m - 1 : 2] for e in elems)
    )
    sub = _prefix(pairs, combine)
    out = tuple(np.empty_like(e) for e in elems)
    for o, e, p in zip(out, elems, sub):
        o[0] = e[0]
        o[1::2] = p
    if m > 2:
        evens = combine(
            tuple(e[2::2] for e in elems), tuple(p[: (m - 1) // 2] for p in sub)
        )
        for o, ev in zip(out, evens):
            o[2::2] = ev
    return out


def _compose_linear(later, earlier):
    return (later[0] @ earlier[0],)


def _compose_affine(later, earlier):
    (a2, c2), (a1, c1) = later, earlier
    return a2 @ a1, (a2 @ c1[..., None])[..., 0] + c2


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
    system.check_guards(x, time=0.0)
    values = _states(system, driver.increments, x)
    system.check_guard_path(driver.times, values[1:])
    return StepPath.from_values(driver.times.copy(), values, driver.horizon)


def _states(system: ParameterSystem, increments, x0, out=None) -> np.ndarray:
    """States ``X_k = X_{k-1} + F(X_{k-1}) dA_k`` from ``X_0 = x0``.

    ``increments`` has shape ``(m, *batch, k)``; the batch axes (bootstrap
    resamples) ride along while time stays on axis 0.  Returns the
    ``(m + 1, *batch, n)`` values, the first row ``x0``, written into ``out``
    when given.  Guards are not checked: rows after a guard trip are computed
    like any other and left to the caller's ``check_guard_path`` to reject.
    """
    if system.jacobians is not None:
        return _product_integral(system.jacobians, increments, x0, out)
    m, batch = increments.shape[0], increments.shape[1:-1]
    values = np.empty((m + 1, *batch, system.state_dim)) if out is None else out
    values[0] = x0
    with np.errstate(all="ignore"):
        for k in range(m):
            step = system.integrand(values[k]) @ increments[k, ..., None]
            values[k + 1] = values[k] + step[..., 0]
    return values


def _product_integral(jac, increments, x, out=None) -> np.ndarray:
    """States ``X_k = (I + B_k) X_{k-1}``, ``B_k = sum_j G_j dA^j_k``, from
    ``X_0 = x``, for the constant Jacobian tensor ``jac`` of shape (k, n, n).

    ``increments`` has shape ``(m, *batch, k)`` and ``x`` shape
    ``(*batch, n)``; the batch axes (bootstrap resamples) ride along while
    time stays on axis 0.  Returns the ``(m + 1, *batch, n)`` values, the
    first row ``x``, written into ``out`` when given.  The prefix matrix
    products are taken one block of about ``SCAN_CHUNK`` matrices at a time.
    """
    k, n = jac.shape[0], jac.shape[1]
    m, batch = increments.shape[0], increments.shape[1:-1]
    values = np.empty((m + 1, *batch, n)) if out is None else out
    values[0] = x
    eye = np.eye(n)
    rows = max(1, SCAN_CHUNK // math.prod(batch))
    for lo in range(0, m, rows):
        hi = min(lo + rows, m)
        steps = increments[lo:hi].reshape(-1, k) @ jac.reshape(k, n * n)
        steps = steps.reshape(hi - lo, *batch, n, n)
        steps += eye
        (products,) = _prefix((steps,), _compose_linear)
        values[lo + 1 : hi + 1] = (products @ values[lo, ..., None])[..., 0]
    return values


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
    is ``v0`` (zero by default, for deterministic initial states).

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

    scale = float(meta.scale_n)
    stochastic = np.where(np.asarray(meta.deterministic_mask, dtype=bool), 0.0, 1.0)
    # Component j's update V -> V + (G_j V + V G_j') dA^j is a linear map of
    # vech(V) (upper triangle, p = n(n+1)/2 entries).  Each jump composes those
    # maps over j, then adds n * vech(f f'): an affine map V_k = L_k V_{k-1} +
    # c_k, scanned block by block.
    k = system.driver_dim
    iu, ju = np.triu_indices(n)
    m = driver.n_jumps
    lefts = np.vstack([state.origin_value, state.values_at_jumps()[:-1]])[:m]
    d_incr = driver.increments
    out = np.empty((m, n, n))
    carry = v[iu, ju]
    eye = np.eye(iu.size)
    ops = None
    for lo in range(0, m, SCAN_CHUNK):
        hi = min(lo + SCAN_CHUNK, m)
        x, da = lefts[lo:hi], d_incr[lo:hi]
        if ops is None or any(op.ndim > 2 for op in ops):
            ops = _vech_maps(system, x)  # maps free of the state are built once
        maps = eye + da[:, 0, None, None] * ops[0]
        for j in range(1, k):
            maps = maps + da[:, j, None, None] * (ops[j] @ maps)
        fda = np.einsum("bij,bj->bi", system.integrand(x), da * stochastic)
        shifts = scale * (fda[:, iu] * fda[:, ju])
        maps, shifts = _prefix((maps, shifts), _compose_affine)
        block = (maps @ carry) + shifts
        out[lo:hi, iu, ju] = block
        out[lo:hi, ju, iu] = block
        carry = block[-1]
    return out


def _vech_maps(system: ParameterSystem, x) -> list[np.ndarray]:
    """Matrices of ``V -> G_j V + V G_j'`` on vech(V), one per component j,
    for the Jacobians G_j at the states ``x``: shape ``(len(x), p, p)``, or
    ``(p, p)`` for a constant Jacobian (returned as one n x n matrix)."""
    n = system.state_dim
    p, tensor = n * (n + 1) // 2, _vech_tensor(n)
    jacs = (gradient(x) for gradient in system.gradients)
    return [
        (g.reshape(*g.shape[:-2], n * n) @ tensor).reshape(*g.shape[:-2], p, p)
        for g in jacs
    ]


@cache
def _vech_tensor(n: int) -> np.ndarray:
    """The (n*n, p*p) tensor ``T`` with ``vec(G) @ T`` the p x p matrix of
    ``V -> G V + V G'`` on vech(V), for any n x n matrix ``G``: row ``a*n + b``
    holds the map of the unit matrix E_ab."""
    iu, ju = np.triu_indices(n)
    p = iu.size
    basis = np.zeros((p, n, n))
    basis[np.arange(p), iu, ju] = 1.0
    basis[np.arange(p), ju, iu] = 1.0
    units = np.eye(n * n).reshape(n * n, 1, n, n)
    image = units @ basis + basis @ units.transpose(0, 1, 3, 2)
    # image[ab, s] is the image of basis matrix E_s; its vech is column s.
    tensor = image[:, :, iu, ju].transpose(0, 2, 1).reshape(n * n, p * p)
    tensor.setflags(write=False)
    return tensor


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
    for i, label in enumerate(fit.state_labels):
        bad = diag[:, i] < 0
        if bad.any():
            raise NegativeVarianceError(times[bad], label)
    z = NormalDist().inv_cdf(0.5 * (1.0 + level))
    half = z * np.sqrt(diag / fit.scale_n)
    point = np.vstack([fit.state_path.origin_value, fit.state_path.values_at_jumps()])
    return ConfidenceBand(
        times=times, point=point, lower=point - half, upper=point + half, level=level
    )


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
    table = np.column_stack(
        [
            band.times,
            band.point,
            np.concatenate([fit.v0[None, :, :], fit.cov_path])[:, rows, cols],
            np.stack([band.lower, band.upper], axis=2).reshape(-1, 2 * n),
        ]
    )
    tail = None if band_path is None else (band_path, header[:1] + header[-2 * n :])
    _write_table(base.with_suffix(".csv"), header, table, tail=tail)
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
