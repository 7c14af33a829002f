"""Right-continuous step paths, driver metadata, and their serialization.

Every object this package estimates or integrates against is a piecewise
constant path on ``[0, horizon]``: a cumulative hazard, a discretized time
grid, or a solved state path.  ``StepPath`` stores the jump times and the
per-jump increment vectors; the value at ``t`` is the origin value plus the
sum of all increments with jump time ``<= t``.
"""

from __future__ import annotations

import csv
import json
import os
import shutil
import signal
import sys
import tempfile
import threading
import traceback
from contextlib import ExitStack
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

import numpy as np

__all__ = [
    "StepPath",
    "DriverMeta",
    "merge_drivers",
    "restrict_path",
    "write_path",
    "read_path",
]


@dataclass(frozen=True)
class StepPath:
    """Piecewise-constant vector path given by jump times and increments.

    Parameters
    ----------
    times : ndarray, shape (m,)
        Strictly increasing jump times in ``(0, horizon]``.
    increments : ndarray, shape (m, k)
        Jump sizes; row ``i`` is applied at ``times[i]``.
    origin_value : ndarray, shape (k,)
        Value at ``t = 0``.
    horizon : float
        Right end of the observation window.
    """

    times: np.ndarray
    increments: np.ndarray
    origin_value: np.ndarray
    horizon: float

    def __post_init__(self):
        times = np.atleast_1d(np.asarray(self.times, dtype=float))
        origin = np.atleast_1d(np.asarray(self.origin_value, dtype=float))
        increments = np.asarray(self.increments, dtype=float)
        if increments.ndim == 1:
            increments = increments.reshape(-1, 1)
        if times.ndim != 1:
            raise ValueError("times must be one-dimensional")
        if increments.shape != (times.size, origin.size):
            raise ValueError(
                f"increments shape {increments.shape} does not match "
                f"{times.size} jump times x {origin.size} components"
            )
        if not self.horizon > 0:
            raise ValueError("horizon must be positive")
        if times.size:
            if not np.all(np.diff(times) > 0):
                raise ValueError("jump times must be strictly increasing")
            if times[0] <= 0 or times[-1] > self.horizon:
                raise ValueError("jump times must lie in (0, horizon]")
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "increments", increments)
        object.__setattr__(self, "origin_value", origin)
        object.__setattr__(self, "horizon", float(self.horizon))

    @classmethod
    def from_values(cls, times, values, horizon: float) -> "StepPath":
        """Path taking ``values[0]`` at ``t = 0`` and ``values[i]`` from
        ``times[i - 1]`` on; ``values`` has shape (m + 1, k) or (m + 1,).

        Evaluation returns ``values`` exactly: they seed the cumulative cache
        instead of being rebuilt from the increments.
        """
        values = np.array(values, dtype=float)
        if values.ndim == 1:
            values = values.reshape(-1, 1)
        path = cls(
            times=times,
            increments=np.diff(values, axis=0),
            origin_value=values[0],
            horizon=horizon,
        )
        path.__dict__["_cumulative"] = values
        return path

    @property
    def dimension(self) -> int:
        return self.origin_value.size

    @property
    def n_jumps(self) -> int:
        return self.times.size

    @cached_property
    def _cumulative(self) -> np.ndarray:
        # values at [0, times[0], ..., times[-1]]; shape (m + 1, k)
        out = np.empty((self.times.size + 1, self.dimension))
        out[0] = self.origin_value
        np.cumsum(self.increments, axis=0, out=out[1:])
        out[1:] += self.origin_value
        return out

    def value_at(self, t):
        """Evaluate the path at scalar or array ``t`` (right-continuous)."""
        t = np.asarray(t, dtype=float)
        idx = np.searchsorted(self.times, t, side="right")
        return self._cumulative[idx]

    def values_at_jumps(self) -> np.ndarray:
        """Path values at each jump time, shape (m, k)."""
        return self._cumulative[1:]


@dataclass(frozen=True)
class DriverMeta:
    """Bookkeeping attached to a driver path.

    ``scale_n`` is the sample-size constant entering the covariance recursion
    (total subjects behind the stochastic components); ``deterministic_mask``
    flags components that carry no sampling noise (time grids).
    """

    scale_n: int
    component_labels: tuple[str, ...]
    deterministic_mask: tuple[bool, ...]
    truncation_time: float | None = None

    def __post_init__(self):
        object.__setattr__(self, "component_labels", tuple(self.component_labels))
        object.__setattr__(
            self, "deterministic_mask", tuple(bool(b) for b in self.deterministic_mask)
        )
        if self.scale_n < 1:
            raise ValueError("scale_n must be a positive integer")
        if len(self.component_labels) != len(self.deterministic_mask):
            raise ValueError("component_labels and deterministic_mask lengths differ")


def restrict_path(path: StepPath, start: float) -> StepPath:
    """Fold all jumps at or before ``start`` into the origin value.

    The result agrees with ``path`` on ``(start, horizon]`` and is constant at
    ``path.value_at(start)`` before that.  Useful for launching a recursion
    from an interior time point: ratio-valued systems whose natural baseline
    sits on a guard (a denominator that starts at zero) are solved on
    ``(start, horizon]`` from a user-supplied interior state instead.
    """
    if not 0.0 <= start < path.horizon:
        raise ValueError("start must lie in [0, horizon)")
    keep = path.times > start
    return StepPath(
        times=path.times[keep],
        increments=path.increments[keep],
        origin_value=path.value_at(float(start)),
        horizon=path.horizon,
    )


def merge_drivers(parts):
    """Stack driver paths on the union of their jump times.

    Parameters
    ----------
    parts : sequence of (StepPath, DriverMeta)
        Drivers on a common horizon.  Component order is preserved; at a jump
        time not shared by a part, that part's components get increment 0.

    Returns
    -------
    (StepPath, DriverMeta)
        The merged driver.  ``scale_n`` is the total subject count over the
        stochastic parts (1 if every part is deterministic).
    """
    parts = list(parts)
    if not parts:
        raise ValueError("merge_drivers needs at least one driver")
    horizon = parts[0][0].horizon
    for path, _ in parts:
        if path.horizon != horizon:
            raise ValueError("drivers must share the same horizon")

    merged_times = parts[0][0].times
    for path, _ in parts[1:]:
        merged_times = np.union1d(merged_times, path.times)

    dims = [path.dimension for path, _ in parts]
    total_dim = sum(dims)
    increments = np.zeros((merged_times.size, total_dim))
    origin = np.concatenate([path.origin_value for path, _ in parts])
    offset = 0
    for path, _ in parts:
        pos = np.searchsorted(merged_times, path.times)
        increments[pos, offset : offset + path.dimension] = path.increments
        offset += path.dimension

    labels: list[str] = []
    mask: list[bool] = []
    scale = 0
    truncation: float | None = None
    for path, meta in parts:
        labels.extend(meta.component_labels)
        mask.extend(meta.deterministic_mask)
        if not all(meta.deterministic_mask):
            scale += meta.scale_n
        if meta.truncation_time is not None:
            truncation = (
                meta.truncation_time
                if truncation is None
                else min(truncation, meta.truncation_time)
            )
    meta = DriverMeta(
        scale_n=max(scale, 1),
        component_labels=tuple(labels),
        deterministic_mask=tuple(mask),
        truncation_time=truncation,
    )
    path = StepPath(
        times=merged_times, increments=increments, origin_value=origin, horizon=horizon
    )
    return path, meta


#: Rows formatted per write in :func:`_write_table`.
_WRITE_BLOCK = 4096

#: Fewest cells :func:`_write_table` gives each process.  A fork costs this
#: process about 2.5 ms and formatting 10k cells about 21 ms (2 CPUs, Python
#: 3.11), so each process added on a free CPU saves more than its fork costs.
_FORK_CELLS = 10_000

#: The cgroup v2 CPU quota of this process's cgroup, as ``"<quota> <period>"``
#: or ``"max <period>"``; absent under cgroup v1 or outside Linux.
_CPU_MAX = "/sys/fs/cgroup/cpu.max"


def _usable_cpus() -> int:
    """CPUs this process may run on, capped by its cgroup v2 CPU quota
    (rounded up), which the affinity mask does not show."""
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:
        cpus = os.cpu_count() or 1
    try:
        quota, period = Path(_CPU_MAX).read_text().split()
        return max(1, min(cpus, -(-int(quota) // int(period))))
    except (OSError, ValueError):
        return cpus


def _writer_count(table: np.ndarray) -> int:
    """Processes :func:`_write_table` formats ``table`` on; 1 means serial.

    One process per usable CPU, each with at least ``_FORK_CELLS`` cells.
    The table is split only when a fork is safe: never with other Python
    threads alive, never on Python 3.12+, where ``os.fork`` warns about the
    OS threads NumPy's BLAS pool keeps, and never unless ``SIGCHLD`` has its
    default action, without which a child's exit status may be lost.
    """
    if (
        not hasattr(os, "fork")
        or sys.version_info >= (3, 12)
        or threading.active_count() > 1
        or signal.getsignal(signal.SIGCHLD) is not signal.SIG_DFL
    ):
        return 1
    return max(1, min(_usable_cpus(), len(table), table.size // _FORK_CELLS))


def _write_table(path, header, table: np.ndarray, tail=None) -> None:
    """Write a header and the rows of a float matrix as CSV.

    Each float is its shortest round-trip decimal (``repr``), so files are
    byte-stable and parse back exactly; lines end in ``\r\n``.  The bytes
    are those ``csv.writer`` writes for the same cells.

    ``tail=(path, header)`` writes a second CSV in the same pass: each row's
    first cell followed by its last ``len(header) - 1`` cells, taken from
    the cells already formatted for the first file.

    Large tables are split into contiguous row ranges, one per usable CPU
    (:func:`_writer_count`).  Forked children format ranges 1, 2, ... into
    unnamed temporary files while this process formats range 0; their bytes
    are then appended in order, so the files do not depend on the split.
    Rows whose fork fails are formatted here after the children's.  A
    failed child raises ``OSError``.  On any failure every child is reaped
    and the output files are removed.
    """
    outputs = [(Path(path), header)]
    first = None
    if tail is not None:
        outputs.append((Path(tail[0]), tail[1]))
        first = table.shape[1] - (len(tail[1]) - 1)
    w = _writer_count(table)
    bounds = [len(table) * i // w for i in range(w + 1)]
    children = []  # (pid, lo, hi, temporary files), in row order
    files = []
    try:
        with ExitStack() as stack:
            for p, _ in outputs:
                files.append(stack.enter_context(open(p, "w", newline="")))
            stack.callback(_reap, children)
            rest = bounds[1]  # the rows from here on are formatted here
            for lo, hi in zip(bounds[1:-1], bounds[2:]):
                parts = [
                    stack.enter_context(
                        tempfile.TemporaryFile("w+", newline="", dir=p.parent)
                    )
                    for p, _ in outputs
                ]
                try:
                    pid = os.fork()
                except OSError:
                    break  # e.g. no process or memory left: go on serially
                if pid == 0:
                    _format_in_child(table[lo:hi], parts, first)
                children.append((pid, lo, hi, parts))
                rest = hi
            for fh, (_, head) in zip(files, outputs):
                fh.write(",".join(head) + "\r\n")
            _format_rows(table[: bounds[1]], files, first)
            while children:
                pid, lo, hi, parts = children[0]
                status = os.waitpid(pid, 0)[1]
                del children[0]
                if status:
                    raise OSError(
                        f"writing rows {lo}-{hi - 1} of {path} failed in process "
                        f"{pid} (exit code {os.waitstatus_to_exitcode(status)})"
                    )
                for fh, part in zip(files, parts):
                    part.seek(0)
                    shutil.copyfileobj(part, fh)
            _format_rows(table[rest:], files, first)
    except BaseException:
        for fh in files:
            Path(fh.name).unlink(missing_ok=True)
        raise


def _format_rows(rows: np.ndarray, files, first) -> None:
    """Write ``rows`` to ``files[0]`` and, with a tail, to ``files[1]``."""
    for lo in range(0, len(rows), _WRITE_BLOCK):
        lines, tails = [], []
        # Format row by row: a block of cell strings would raise the peak
        # memory for little gain.
        for row in rows[lo : lo + _WRITE_BLOCK].tolist():
            cells = list(map(repr, row))
            lines.append(",".join(cells))
            if first is not None:
                tails.append(",".join([cells[0], *cells[first:]]))
        lines.append("")
        files[0].write("\r\n".join(lines))
        if first is not None:
            tails.append("")
            files[1].write("\r\n".join(tails))


def _format_in_child(rows: np.ndarray, parts, first) -> None:
    """Body of a forked writer: format ``rows`` into ``parts``, then leave
    through ``os._exit`` whatever happens, so that no cleanup or buffer of
    the parent runs twice."""
    code = 1
    try:
        _format_rows(rows, parts, first)
        for part in parts:
            part.flush()
        code = 0
    except BaseException:
        traceback.print_exc()
        sys.stderr.flush()
    finally:
        os._exit(code)


def _reap(children) -> None:
    """Kill and wait for the writer processes a failure left running."""
    for pid, *_ in children:
        try:
            os.kill(pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        os.waitpid(pid, 0)
    children.clear()


def _read_table(path) -> tuple[list[str], np.ndarray]:
    """Header and float rows of a CSV written by :func:`_write_table`.

    The rows come back as a ``(rows, columns)`` matrix, empty when the file
    holds only its header.
    """
    with open(path, newline="") as fh:
        header = next(csv.reader([fh.readline()]))
        if not fh.read(1):
            return header, np.empty((0, len(header)))
        fh.seek(0)
        return header, np.loadtxt(fh, delimiter=",", skiprows=1, ndmin=2)


def write_path(path: StepPath, meta: DriverMeta, base) -> None:
    """Write a path as ``<base>.csv`` plus a ``<base>.json`` metadata sidecar.

    The CSV has columns ``time, d1..dk`` holding the jump increments; origin
    value and horizon travel in the sidecar so parsing round-trips exactly.
    """
    base = Path(base)
    _write_table(
        base.with_suffix(".csv"),
        ["time"] + [f"d{j + 1}" for j in range(path.dimension)],
        np.column_stack([path.times, path.increments]),
    )
    sidecar = {
        "scale_n": meta.scale_n,
        "labels": list(meta.component_labels),
        "deterministic_mask": list(meta.deterministic_mask),
        "truncation_time": meta.truncation_time,
        "origin_value": [float(v) for v in path.origin_value],
        "horizon": path.horizon,
    }
    with open(base.with_suffix(".json"), "w") as fh:
        json.dump(sidecar, fh, indent=2)
        fh.write("\n")


def read_path(base):
    """Inverse of :func:`write_path`; returns ``(StepPath, DriverMeta)``."""
    base = Path(base)
    with open(base.with_suffix(".json")) as fh:
        sidecar = json.load(fh)
    k = len(sidecar["labels"])
    header, data = _read_table(base.with_suffix(".csv"))
    if header != ["time"] + [f"d{j + 1}" for j in range(k)]:
        raise ValueError(f"unexpected path CSV header: {header}")
    path = StepPath(
        times=data[:, 0],
        increments=data[:, 1:],
        origin_value=np.array(sidecar["origin_value"], dtype=float),
        horizon=float(sidecar["horizon"]),
    )
    meta = DriverMeta(
        scale_n=int(sidecar["scale_n"]),
        component_labels=tuple(sidecar["labels"]),
        deterministic_mask=tuple(sidecar["deterministic_mask"]),
        truncation_time=sidecar["truncation_time"],
    )
    return path, meta
