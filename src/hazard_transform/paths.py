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
from contextlib import ExitStack
from dataclasses import dataclass
from functools import cache, cached_property
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


def _run_ends(x) -> np.ndarray:
    """Whether each entry of the sorted ``x`` ends a run of ties."""
    ends = np.ones(x.size, dtype=bool)
    np.not_equal(x[1:], x[:-1], out=ends[:-1])
    return ends


def _union(parts):
    """``(times, increments)`` of components on the union of their jump
    times, from ``(times, increments)`` parts with sorted distinct times and
    increments ``(m, k)``: each part's columns, in part order, hold its own
    increments at its own times and zero elsewhere.  The increments are a
    new array, also for one part.  Times may be any sortable keys, such as
    the block kernel's ``(replication, time)`` keys."""
    if len(parts) == 1:
        times, increments = parts[0]
        return times, increments.copy()
    # A sort, not np.unique, which hashes integer keys at several times the
    # cost.
    times = np.sort(np.concatenate([t for t, _ in parts]))
    times = times[_run_ends(times)]
    increments = np.zeros((times.size, sum(v.shape[1] for _, v in parts)))
    offset = 0
    for t, values in parts:
        increments[times.searchsorted(t), offset : offset + values.shape[1]] = values
        offset += values.shape[1]
    return times, increments


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
        The merged driver, on new increments even for one part.  ``scale_n``
        is the total subject count over the stochastic parts (1 if every part
        is deterministic).  The union is the one the Nelson-Aalen block
        kernel puts its components on.
    """
    parts = list(parts)
    if not parts:
        raise ValueError("merge_drivers needs at least one driver")
    horizon = parts[0][0].horizon
    for path, _ in parts:
        if path.horizon != horizon:
            raise ValueError("drivers must share the same horizon")
    merged_times, increments = _union([(p.times, p.increments) for p, _ in parts])
    origin = np.concatenate([path.origin_value for path, _ in parts])

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


#: Cells formatted at a time by :func:`_write_table`: enough to spread
#: NumPy's per-call cost, few enough that the formatter's temporaries stay
#: in cache and below the size of the data being written.
_BLOCK_CELLS = 8192

_U = np.uint64
_M32 = _U(0xFFFFFFFF)
_M63 = _U(2**63 - 1)
_ZEROS = _U(0x3030303030303030)  # eight ASCII "0"
_DOTS = _U(0x2E2E2E2E2E2E2E2E)  # eight ASCII "."


@cache
def _format_tables():
    """Lookup tables of the float formatter, built from Python ints on first
    use, so importing the package costs nothing.

    ``k, h, g1, g0`` serve :func:`_shortest`.  Their rows are indexed by the
    biased exponent, plus 2048 for the irregular spacing at a power of two.
    ``k`` is the decimal exponent of the digits, ``h`` a shift in [2, 5],
    and ``g = g1 2**64 + g0`` is ``10**-k`` scaled to 126 bits, rounded
    down, plus one (Giulietti, "The Schubfach way to render doubles", 2020,
    sections 9.8-9.9).  ``p10`` holds the powers of ten that fit a
    ``uint64``; ``low[t + 16 - 8w]`` masks the bytes below ``t`` of word
    ``w`` of a 24-byte field.
    """
    row = np.arange(4096, dtype=np.int64)
    bq = row % 2048
    q = np.where(bq == 0, -1074, bq - 1075)
    k = np.where(
        row < 2048,
        (q * 661_971_961_083) >> 41,  # floor(q log10 2)
        (q * 661_971_961_083 - 274_743_187_321) >> 41,  # floor(log10(3/4 2**q))
    )
    h = q + ((-k * 913_124_641_741) >> 38) + 2  # floor(-k log2 10)
    g = []
    for e in range(324, -293, -1):  # 10**e for k = -e = -324 ... 292
        num, den = (10**e, 1) if e >= 0 else (1, 10**-e)
        shift = 126 - num.bit_length() + den.bit_length()
        while True:
            v = (num << shift) // den if shift >= 0 else num // (den << -shift)
            if v.bit_length() == 126:
                break
            shift += 126 - v.bit_length()
        g.append(divmod(v + 1, 2**64))
    g = np.array(g, dtype=np.uint64)[k + 324]
    p10 = np.array([10**i for i in range(18)], dtype=np.uint64)
    low = np.array([2 ** (8 * min(max(i - 16, 0), 8)) - 1 for i in range(41)], dtype=np.uint64)
    return k, h.astype(np.uint64), g[:, 0].copy(), g[:, 1].copy(), p10, low


def _mul(a, blo, bhi, b):
    """High and low words of the 128-bit ``a * b``, ``b = bhi 2**32 + blo``."""
    alo = a & _M32
    ahi = a >> _U(32)
    p00 = alo * blo
    mid = ahi * blo + (p00 >> _U(32))
    mid2 = (mid & _M32) + alo * bhi
    return ahi * bhi + (mid >> _U(32)) + (mid2 >> _U(32)), a * b


def _shortest(bits):
    """Shortest decimals ``s 10**k`` that round to the finite positive doubles
    with bit patterns ``bits``: the closest one if several, the even one on a
    tie, as ``repr`` picks them.  Returns ``(s, k)``, with ``s < 10**17``.

    This is Schubfach (Giulietti 2020) in ``uint64`` lanes.  ``cb = 4c``
    for the significand ``c``; ``cb - 2`` and ``cb + 2`` are the ends of the
    rounding interval (``cb - 1`` at a power of two, where the spacing
    below halves).  All three are scaled by ``10**-k`` at once from one
    product ``g cb`` and ``g cb -+ 2g``.  ``s`` or ``s + 1`` at
    ``10**k`` is taken, unless exactly one multiple of ten lies in the
    interval; the interval ends are open for odd ``c``.
    """
    K, H, G1, G0, _, _ = _format_tables()
    bq = bits >> _U(52)
    frac = bits & _U(2**52 - 1)
    c = frac | ((bq != 0).astype(np.uint64) << _U(52))
    irregular = (frac == 0) & (bq > 1)
    row = (bq | (irregular.astype(np.uint64) << _U(11))).astype(np.intp)
    k, h, g1, g0 = K[row], H[row], G1[row], G0[row]
    cb = c << _U(2)
    blo = cb & _M32
    bhi = cb >> _U(32)
    a1, x0 = _mul(g0, blo, bhi, cb)
    x2, b0 = _mul(g1, blo, bhi, cb)
    x1 = b0 + a1  # x = g cb = x2 2**128 + x1 2**64 + x0
    x2 += x1 < b0
    up = h + _U(1)
    down = _U(63) - h
    tail = _U(64) - h

    def rop(x2, x1, x0):
        # x 2**h / 2**127 rounded to odd; bits of x 2**h below 2**64 are
        # dropped, as they are within the error of g
        return (x2 << up) | (x1 >> down) | (((x1 << up) | (x0 >> tail)) != 0)

    d0 = g0 << _U(1)  # 2g, three words as x
    d1 = (g1 << _U(1)) | (g0 >> _U(63))
    r0 = x0 + d0
    t = x1 + d1
    r1 = t + (r0 < d0)
    r2 = x2 + ((t < d1) | (r1 < t))
    if irregular.any():
        d0 = np.where(irregular, g0, d0)
        d1 = np.where(irregular, g1, d1)
    l0 = x0 - d0
    t = x1 - d1
    l1 = t - (x0 < d0)
    l2 = x2 - ((x1 < d1) | (t < l1))
    odd = c & _U(1)
    vb = rop(x2, x1, x0)
    vbl = rop(l2, l1, l0) + odd
    vbr = rop(r2, r1, r0) - odd
    s = vb >> _U(2)
    sp10 = s // _U(10) * _U(10)
    upin = vbl <= sp10 << _U(2)
    wpin = (sp10 + _U(10)) << _U(2) <= vbr
    uin = vbl <= s << _U(2)
    win = (s + _U(1)) << _U(2) <= vbr
    rest = vb & _U(3)
    closer = (rest < _U(2)) | ((rest == _U(2)) & ((s & _U(1)) == _U(0)))
    one = uin != win
    s += ~((one & uin) | (~one & closer))
    ten = upin != wpin
    return s + ten * (sp10 + wpin * _U(10) - s), k


def _ascii8(g):
    """ASCII of the 8-digit numbers ``g``, first digit in the lowest byte."""
    hi = g // _U(10000)
    x = hi | ((g - hi * _U(10000)) << _U(32))
    q = ((x * _U(5243)) >> _U(19)) & _U(0x0000007F0000007F)  # // 100
    x = q | ((x - q * _U(100)) << _U(16))
    q = ((x * _U(103)) >> _U(10)) & _U(0x000F000F000F000F)  # // 10
    return (q | ((x - q * _U(10)) << _U(8))) + _ZEROS


_WORD = np.array([[16], [8], [0]])  # 16 - 8w for the words w of a field
_SPECIAL = {s: _U(int.from_bytes(s, "little") << 8) for s in (b"0.0", b"inf", b"nan")}


def _format_cells(values: np.ndarray) -> np.ndarray:
    """``repr`` of each float, as four little-endian ``uint64`` words a cell.

    Words 0-2 hold the sign and the digits with their point; word 3 holds
    the ``e±XX`` exponent from its byte 0 and leaves bytes 5-7 free for a
    separator.  Unused bytes are zero, so the cell is the words' bytes
    with the zero bytes removed.

    Python's ``repr`` writes ``d.ddde±XX`` when the shortest digits put the
    value below ``1e-4`` or at ``1e16`` and above, and positional digits
    otherwise, with ``.0`` on integral values; ``-0.0``, ``nan`` and
    ``inf`` are spelled out.
    """
    _, _, _, _, p10, low = _format_tables()
    x = np.ascontiguousarray(values, dtype=np.float64).reshape(-1)
    bits = x.view(np.uint64)
    mag = bits & _M63
    special = (mag == 0) | (mag >= _U(0x7FF << 52))
    if special.any():
        mag = np.where(special, _U(0x3FF << 52), mag)  # 1.0, overwritten below
    s, k = _shortest(mag)
    shift = np.zeros(s.size, dtype=np.int64)
    for p in (16, 8, 4, 2, 1):  # left-align s to 17 digits
        m = s < p10[17 - p]
        if m.any():
            step = m * p
            s = s * p10[step]
            shift += step
    point = k + 17 - shift  # digits before the decimal point
    sci = (point < -3) | (point > 16)
    # 24-byte field: sign, 0-4 leading zeros, the 17 digits, zeros
    lead = np.clip(1 - point, 0, 4) * ~sci
    if lead.any():
        div = p10[lead]
        w1 = s // div
        w2 = (s - w1 * div) * p10[6 - lead]
    else:
        w1, w2 = s, _U(0)
    field = np.empty((3, s.size), dtype=np.uint64)
    u = w1 // _U(100)
    np.floor_divide(u, _U(10**8), out=field[0])
    field[1] = u - field[0] * _U(10**8)
    field[2] = (w1 - u * _U(100)) * _U(10**6) + w2
    field = _ascii8(field)
    # byte of the last nonzero digit: a word's bit length in eighths
    nonzero = (np.frexp((field ^ _ZEROS).astype(np.float64))[1] + 7) >> 3
    last = np.max((nonzero + (16 - _WORD)) * (nonzero > 0), axis=0) - 2
    dot = np.maximum(point, 1)
    dot[sci] = 1
    end = np.where(sci, last + (last > 0), np.maximum(last, dot) + 1)
    before, after, keep = (low[t + _WORD] for t in (dot + 1, dot + 2, end + 2))
    shifted = field << _U(8)
    shifted[1:] |= field[:-1] >> _U(56)
    body = ((field & before) | (shifted & ~after) | ((before ^ after) & _DOTS)) & keep
    body[0] = (body[0] & _U(2**64 - 256)) | ((bits >> _U(63)) * _U(0x2D))
    cells = np.zeros((s.size, 4), dtype="<u8")
    cells[:, :3] = body.T
    rows = np.flatnonzero(sci)
    if rows.size:
        e = point[rows] - 1
        a = np.abs(e).astype(np.uint64)
        hundreds = a // _U(100)
        tens = a // _U(10)
        cells[rows, 3] = (
            _U(0x65)  # "e", the sign, the digits: at least two
            | ((_U(0x2B) + (e < 0).astype(np.uint64) * _U(2)) << _U(8))
            | (np.where(hundreds > _U(0), hundreds + _U(0x30), _U(0)) << _U(16))
            | ((tens - hundreds * _U(10) + _U(0x30)) << _U(24))
            | ((a - tens * _U(10) + _U(0x30)) << _U(32))
        )
    rows = np.flatnonzero(special)
    if rows.size:
        nan = np.isnan(x[rows])
        word = np.where(np.isinf(x[rows]), _SPECIAL[b"inf"], _SPECIAL[b"0.0"])
        word = np.where(nan, _SPECIAL[b"nan"], word)
        cells[rows] = 0
        cells[rows, 0] = word | ((bits[rows] >> _U(63)) * ~nan * _U(0x2D))
    return cells


def _write_table(path, header, rows: int, block, tail=None) -> None:
    """Write a header and ``rows`` rows of floats as CSV.

    ``block(lo, hi)`` gives rows ``lo`` to ``hi`` as a ``(hi - lo,
    len(header))`` float matrix.  The rows are asked for, formatted and
    written in blocks of about ``_BLOCK_CELLS`` cells, so the whole table is
    never held at once.  Each float is its shortest round-trip decimal, byte
    for byte what ``repr`` writes (:func:`_format_cells`), so files are
    byte-stable and parse back exactly; lines end in ``\\r\\n``.  The bytes
    are those ``csv.writer`` writes for the same cells.  A cell whose bits
    equal those of the cell above it is formatted once: it copies the cell
    above (for a block's first row, the previous block's last row).

    ``tail=(path, header)`` writes a second CSV in the same pass: each row's
    first cell followed by its last ``len(header) - 1`` cells, taken from
    the cells already formatted for the first file.  On any failure the
    output files are removed.
    """
    cols = len(header)
    outputs = [(Path(path), header)]
    keep = None
    if tail is not None:
        outputs.append((Path(tail[0]), tail[1]))
        keep = np.r_[0, cols - (len(tail[1]) - 1) : cols]
    separator = np.full(cols, 0x2C << 40, dtype=np.uint64)  # "," after a cell
    separator[-1] = 0x0A0D << 40  # "\r\n" after a row
    step = max(1, _BLOCK_CELLS // cols)
    above = None
    files = []
    try:
        with ExitStack() as stack:
            for p, head in outputs:
                files.append(stack.enter_context(open(p, "wb")))
                files[-1].write((",".join(head) + "\r\n").encode())
            for lo in range(0, rows, step):
                values = np.ascontiguousarray(block(lo, min(lo + step, rows)), float)
                cells = _block_cells(values, above)
                above = values[-1].copy(), cells[-1].copy()  # frees the block
                cells[:, :, 3] |= separator
                files[0].write(cells.tobytes().translate(None, b"\0"))
                if keep is not None:
                    files[1].write(cells[:, keep].tobytes().translate(None, b"\0"))
    except BaseException:
        for fh in files:
            Path(fh.name).unlink(missing_ok=True)
        raise


def _block_cells(values: np.ndarray, above) -> np.ndarray:
    """:func:`_format_cells` of a block of rows, shape ``(rows, cols, 4)``.

    A cell whose float64 bits equal those of the cell above it copies that
    cell's words instead of being formatted again; ``above`` is the previous
    block's last row and its cells, or None for the first block.
    """
    bits = values.view(np.uint64)
    fresh = np.ones(bits.shape, dtype=bool)
    np.not_equal(bits[1:], bits[:-1], out=fresh[1:])
    if above is not None:
        np.not_equal(bits[0], above[0].view(np.uint64), out=fresh[0])
    if fresh.all():
        return _format_cells(values).reshape(*values.shape, 4)
    # Row 0 holds the cells above the block; each cell is read from the
    # nearest fresh row at or above its own.
    cells = np.empty((values.shape[0] + 1, values.shape[1], 4), dtype="<u8")
    if above is not None:
        cells[0] = above[1]
    cells[1:][fresh] = _format_cells(values[fresh])
    rows = np.arange(1, cells.shape[0])[:, None]
    source = np.maximum.accumulate(np.where(fresh, rows, 0), axis=0)
    whole = cells.view("V32")[:, :, 0]  # one item a cell: half the gather's time
    return whole[source, np.arange(values.shape[1])][:, :, None].view("<u8")


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
        path.n_jumps,
        lambda lo, hi: np.column_stack([path.times[lo:hi], path.increments[lo:hi]]),
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
