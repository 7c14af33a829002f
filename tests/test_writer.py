"""The CSV table writer: ``repr``'s bytes from vectorized formatting.

``paths._format_cells`` renders floats in ``uint64`` lanes; the tests hold
it to ``repr`` cell by cell, on random bit patterns, on the edges of every
branch (powers of two, the switch to exponent notation, subnormals) and on
Hypothesis floats.  ``_write_table`` formats a table in blocks of
``_BLOCK_CELLS`` cells; the tests force small blocks and compare the files
with ``csv.writer`` over ``repr``.
"""

import csv
import os
import signal
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hazard_transform import (
    ConstantHazard,
    Scenario,
    SystemKind,
    confidence_band,
    estimate_driver,
    fit_plugin,
    make_system,
    simulate_dataset,
)
from hazard_transform import paths
from hazard_transform.plugin import _write_fit

SPECIAL = [-0.0, float("nan"), float("inf"), -float("inf"), 1e16, 5e-324, 0.0, 1e-4, 1e-5]


def formatted(values) -> bytes:
    """``_format_cells`` of ``values``, each cell followed by a newline."""
    out = []
    for lo in range(0, len(values), paths._BLOCK_CELLS):
        cells = paths._format_cells(values[lo : lo + paths._BLOCK_CELLS])
        cells[:, 3] |= np.uint64(0x0A << 40)
        out.append(cells.tobytes().translate(None, b"\0"))
    return b"".join(out)


def assert_repr(values):
    values = np.asarray(values, dtype=np.float64).tolist()
    got = formatted(np.array(values))
    want = "".join(f"{v!r}\n" for v in values).encode()
    if got != want:
        bad = [(w, g) for w, g in zip(want.split(), got.split()) if w != g]
        pytest.fail(f"cells that differ from repr (repr, got): {bad[:10]}")


def neighbours(values, ulps=2):
    """``values`` and the doubles up to ``ulps`` steps either side of them."""
    bits = np.abs(np.asarray(values, dtype=np.float64)).view(np.int64)
    steps = np.arange(-ulps, ulps + 1)
    near = (bits[:, None] + steps).ravel()
    near = near[(near >= 0) & (near < 0x7FF << 52)].view(np.float64)
    return np.concatenate([near, -near])


def test_uniform_bit_patterns():
    bits = np.random.default_rng(20201).integers(0, 2**64, 10**6, dtype=np.uint64)
    assert_repr(bits.view(np.float64))


def test_edge_families():
    powers_of_two = np.ldexp(1.0, np.arange(-1074, 1024))
    powers_of_ten = np.array([float(f"1e{e}") for e in range(-323, 309)])
    assert_repr(
        np.concatenate(
            [
                neighbours(powers_of_two, ulps=1),
                # the switch to and from exponent notation
                neighbours([1e16, 1e-4, 1e-5, 1e15, 1e17, 1e100, 1e-100, 1e22, 1e23]),
                neighbours(powers_of_ten, ulps=1),
                # the smallest subnormals have few digits, the largest many
                np.arange(1, 5000, dtype=np.uint64).view(np.float64),
                neighbours([2.2250738585072014e-308], ulps=50),
                neighbours([5e-324, 1.7976931348623157e308], ulps=3),
                np.arange(-3000, 3001) * 1.0,
                np.arange(-3000, 3001) * 0.25,
                [2.0**53, 2.0**53 + 2, 2.0**63, 2.0**64, 123456789012345680.0],
                [0.0, -0.0, float("nan"), -float("nan"), float("inf"), -float("inf")],
            ]
        )
    )


def test_unit_interval_and_covariance_scales():
    rng = np.random.default_rng(7)
    assert_repr(
        np.concatenate(
            [
                rng.random(3 * 10**4),
                rng.normal(size=3 * 10**4) * 1e-5,
                rng.standard_exponential(3 * 10**4) * 1e-3,
            ]
        )
    )


@settings(derandomize=True, database=None, deadline=None, max_examples=100)
@given(st.lists(st.floats(), min_size=1, max_size=64))
def test_any_float_formats_as_repr(values):
    assert formatted(np.array(values)).decode().split() == [repr(v) for v in values]


def table_with_specials(rows, cols=5, seed=0):
    cells = np.random.default_rng(seed).normal(size=rows * cols)
    cells[: len(SPECIAL)] = SPECIAL[: rows * cols]
    return np.roll(cells, 2).reshape(rows, cols)


def write(tmp_path, table, tail, name="out"):
    header = [f"c{j}" for j in range(table.shape[1])]
    target = tmp_path / f"{name}.csv"
    band = (tmp_path / f"{name}_tail.csv", header[:1] + header[-2:]) if tail else None
    paths._write_table(target, header, table, tail=band)
    return [target.read_bytes()] + ([band[0].read_bytes()] if tail else [])


def csv_writer_bytes(tmp_path, table, tail):
    header = [f"c{j}" for j in range(table.shape[1])]
    out = []
    for cols in [slice(None)] + ([[0, -2, -1]] if tail else []):
        ref = tmp_path / "ref.csv"
        with open(ref, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(np.array(header)[cols].tolist())
            for row in table[:, cols].tolist():
                writer.writerow([repr(v) for v in row])
        out.append(ref.read_bytes())
    return out


@pytest.mark.parametrize("tail", [False, True], ids=["fit", "fit+tail"])
@pytest.mark.parametrize("offset", [None, -1, 0, 1], ids=["0", "w-1", "w", "w+1"])
@pytest.mark.parametrize("blocks", [1, 2, 3])
def test_split_rows_give_the_serial_bytes(tmp_path, monkeypatch, blocks, offset, tail):
    # Blocks of two rows: 0 rows, and one row short of, exactly at and one
    # row past ``blocks`` full blocks.
    rows = 0 if offset is None else 2 * blocks + offset
    table = table_with_specials(rows)
    serial = write(tmp_path, table, tail, name="serial")
    monkeypatch.setattr(paths, "_BLOCK_CELLS", 2 * table.shape[1])
    split = write(tmp_path, table, tail)
    assert split == serial
    assert split == csv_writer_bytes(tmp_path, table, tail)
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(
        ["out.csv", "serial.csv", "ref.csv"]
        + (["out_tail.csv", "serial_tail.csv"] if tail else [])
    )


@pytest.mark.parametrize("cols", [2, 3])
def test_ranges_longer_than_a_write_block(tmp_path, cols):
    rows = 3 * (paths._BLOCK_CELLS // cols) + 7
    table = table_with_specials(rows, cols=cols, seed=cols)
    assert write(tmp_path, table, True) == csv_writer_bytes(tmp_path, table, True)


def cumulative_incidence_fit():
    kind = SystemKind("cumulative_incidence", n_causes=3)
    hazards = {f"cause{i}": ConstantHazard(0.2 * i, 2.0) for i in (1, 2, 3)}
    sc = Scenario(system=kind, hazards=hazards, n=300, seed=3,
                  censor=ConstantHazard(0.3, 2.0))
    driver, meta = estimate_driver(simulate_dataset(sc), kind)
    fit = fit_plugin(make_system(kind), driver, meta)
    return fit, confidence_band(fit, 0.95)


def test_fit_and_band_do_not_depend_on_the_block_size(tmp_path, monkeypatch):
    fit, band = cumulative_incidence_fit()
    files = {}
    for cells in (1, 100, paths._BLOCK_CELLS):
        monkeypatch.setattr(paths, "_BLOCK_CELLS", cells)
        base = tmp_path / f"b{cells}"
        base.mkdir()
        _write_fit(fit, band, base / "fit", band_path=base / "band.csv")
        files[cells] = [(base / f).read_bytes() for f in ("fit.csv", "fit.json", "band.csv")]
    assert files[1] == files[100] == files[paths._BLOCK_CELLS]


@pytest.mark.parametrize("tail", [False, True], ids=["fit", "fit+tail"])
def test_a_failure_mid_write_leaves_no_file(tmp_path, monkeypatch, tail):
    real = paths._format_cells
    calls = []

    def format_cells(values):
        calls.append(None)
        if len(calls) == 2:
            raise RuntimeError("boom")
        return real(values)

    monkeypatch.setattr(paths, "_BLOCK_CELLS", 10)
    monkeypatch.setattr(paths, "_format_cells", format_cells)
    with pytest.raises(RuntimeError, match="boom"):
        write(tmp_path, table_with_specials(20), tail)
    assert len(calls) == 2
    assert list(tmp_path.iterdir()) == []


# The writer formats every cell in the calling process: it never forks, so
# the number of CPUs, a fork that would fail, a live thread or a SIGCHLD
# handler of the caller change nothing in its output.


def forbid_fork(monkeypatch, error=None):
    """Make ``os.fork`` raise ``error`` (an ``AssertionError`` by default);
    returns the list that records each call."""
    calls = []

    def fork():
        calls.append(None)
        raise error or AssertionError("os.fork called by the single-process writer")

    monkeypatch.setattr(os, "fork", fork)
    return calls


def advertise_cpus(monkeypatch, cpus):
    """Make this process appear to run on ``cpus`` CPUs."""
    monkeypatch.setattr(os, "cpu_count", lambda: cpus)
    monkeypatch.setattr(os, "process_cpu_count", lambda: cpus, raising=False)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)


def test_fit_and_band_are_the_same_on_one_and_two_processes(tmp_path, monkeypatch):
    fit, band = cumulative_incidence_fit()
    forks = forbid_fork(monkeypatch)
    files = {}
    for cpus in (1, 2):
        advertise_cpus(monkeypatch, cpus)
        base = tmp_path / f"cpus{cpus}"
        base.mkdir()
        _write_fit(fit, band, base / "fit", band_path=base / "band.csv")
        files[cpus] = [(base / f).read_bytes() for f in ("fit.csv", "fit.json", "band.csv")]
    assert files[1] == files[2]
    assert forks == []


def test_single_cpus_and_unsafe_forks_stay_serial(tmp_path, monkeypatch):
    table = table_with_specials(3 * paths._BLOCK_CELLS // 5 + 1)
    reference = csv_writer_bytes(tmp_path, table, True)
    forks = forbid_fork(monkeypatch)
    for cpus in (1, 4):
        advertise_cpus(monkeypatch, cpus)
        assert write(tmp_path, table, True, name=f"cpus{cpus}") == reference
    # A platform without fork at all writes the same bytes.
    monkeypatch.delattr(os, "fork")
    assert write(tmp_path, table, True, name="nofork") == reference
    assert forks == []


def test_a_live_thread_keeps_the_writer_serial(tmp_path, monkeypatch):
    table = table_with_specials(40)
    serial = write(tmp_path, table, True, name="serial")
    advertise_cpus(monkeypatch, 4)
    forks = forbid_fork(monkeypatch)
    stop = threading.Event()
    thread = threading.Thread(target=stop.wait)
    thread.start()
    try:
        assert write(tmp_path, table, True) == serial
    finally:
        stop.set()
        thread.join()
    assert forks == []


@pytest.mark.skipif(not hasattr(signal, "SIGCHLD"), reason="no SIGCHLD here")
@pytest.mark.parametrize("handler", ["ignored", "handled"])
def test_a_sigchld_not_at_its_default_keeps_the_writer_serial(
    tmp_path, monkeypatch, handler
):
    # An ignored SIGCHLD makes the kernel reap children itself, and a handler
    # may reap them: a writer that forked could lose its children's status.
    table = table_with_specials(40)
    serial = write(tmp_path, table, True, name="serial")
    advertise_cpus(monkeypatch, 4)
    forks = forbid_fork(monkeypatch)
    action = signal.SIG_IGN if handler == "ignored" else (lambda *_: None)
    previous = signal.signal(signal.SIGCHLD, action)
    try:
        assert write(tmp_path, table, True) == serial
        assert signal.getsignal(signal.SIGCHLD) is action
    finally:
        signal.signal(signal.SIGCHLD, previous)
    assert forks == []


@pytest.mark.parametrize("blocks,rest", [(2, 0), (3, 0), (3, 1), (4, 2)])
def test_rows_whose_fork_fails_are_formatted_here(tmp_path, monkeypatch, blocks, rest):
    # A host out of process ids: every fork would fail.  The table spans
    # ``blocks`` whole blocks of three rows and ``rest`` rows more.
    table = table_with_specials(3 * blocks + rest)
    reference = csv_writer_bytes(tmp_path, table, True)
    monkeypatch.setattr(paths, "_BLOCK_CELLS", 3 * table.shape[1])
    advertise_cpus(monkeypatch, blocks)
    forks = forbid_fork(monkeypatch, BlockingIOError(11, "Resource temporarily unavailable"))
    assert write(tmp_path, table, True) == reference
    assert forks == []
    assert sorted(p.name for p in tmp_path.iterdir()) == ["out.csv", "out_tail.csv", "ref.csv"]
