"""The CSV table writer: forked row ranges give the serial writer's bytes.

``_write_table`` splits a large table over ``_writer_count`` processes.  The
tests force the count by replacing the CPU-count helper and the size floor,
and compare every split against the serial writer and ``csv.writer``.
"""

import csv
import os
import signal
import sys
import threading
import time

import numpy as np
import pytest

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

#: Whether this interpreter lets the writer fork at all.
FORKS = hasattr(os, "fork") and sys.version_info < (3, 12)
needs_fork = pytest.mark.skipif(not FORKS, reason="the writer stays serial here")

SPECIAL = [-0.0, float("nan"), float("inf"), -float("inf"), 1e16, 5e-324]


def force_writers(monkeypatch, workers):
    """Make ``_write_table`` split any table over ``workers`` processes;
    returns the list that records each ``os.fork`` call."""
    monkeypatch.setattr(paths, "_FORK_CELLS", 1)
    monkeypatch.setattr(paths, "_usable_cpus", lambda: workers)
    forks = []
    real_fork = os.fork

    def fork():
        forks.append(None)
        return real_fork()

    monkeypatch.setattr(os, "fork", fork)
    return forks


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
@pytest.mark.parametrize("workers", [1, 2, 3])
def test_split_rows_give_the_serial_bytes(tmp_path, monkeypatch, workers, offset, tail):
    rows = 0 if offset is None else workers + offset
    table = table_with_specials(rows)
    forks = force_writers(monkeypatch, workers)
    split = write(tmp_path, table, tail)
    assert len(forks) == (max(min(workers, rows), 1) - 1 if FORKS else 0)
    monkeypatch.setattr(paths, "_usable_cpus", lambda: 1)
    assert split == write(tmp_path, table, tail, name="serial")
    assert split == csv_writer_bytes(tmp_path, table, tail)
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(
        ["out.csv", "serial.csv", "ref.csv"]
        + (["out_tail.csv", "serial_tail.csv"] if tail else [])
    )


@pytest.mark.parametrize("workers", [2, 3])
def test_ranges_longer_than_a_write_block(tmp_path, monkeypatch, workers):
    table = table_with_specials(3 * paths._WRITE_BLOCK + 7, cols=3, seed=workers)
    force_writers(monkeypatch, workers)
    split = write(tmp_path, table, True)
    assert split == csv_writer_bytes(tmp_path, table, True)


def test_fit_and_band_are_the_same_on_one_and_two_processes(tmp_path, monkeypatch):
    kind = SystemKind("cumulative_incidence", n_causes=3)
    hazards = {f"cause{i}": ConstantHazard(0.2 * i, 2.0) for i in (1, 2, 3)}
    sc = Scenario(system=kind, hazards=hazards, n=300, seed=3,
                  censor=ConstantHazard(0.3, 2.0))
    driver, meta = estimate_driver(simulate_dataset(sc), kind)
    fit = fit_plugin(make_system(kind), driver, meta)
    band = confidence_band(fit, 0.95)
    files = {}
    for workers in (1, 2):
        force_writers(monkeypatch, workers)
        base = tmp_path / f"w{workers}"
        base.mkdir()
        _write_fit(fit, band, base / "fit", band_path=base / "band.csv")
        files[workers] = [(base / f).read_bytes() for f in ("fit.csv", "fit.json", "band.csv")]
    assert files[1] == files[2]


def test_each_process_gets_at_least_the_cell_floor(monkeypatch):
    monkeypatch.setattr(paths, "_usable_cpus", lambda: 4)
    cells = paths._FORK_CELLS

    def count(rows, cols=4):
        return paths._writer_count(np.zeros((rows, cols)))

    assert count(2 * cells // 4 - 1) == 1
    assert count(2 * cells // 4) == (2 if FORKS else 1)
    assert count(3 * cells // 4) == (3 if FORKS else 1)
    assert count(100 * cells // 4) == (4 if FORKS else 1)
    assert count(3, cols=100 * cells) == (3 if FORKS else 1)


@pytest.mark.parametrize(
    "cpu_max,cpus",
    [(None, 8), ("max 100000\n", 8), ("150000 100000\n", 2), ("50000 100000\n", 1),
     ("1600000 100000\n", 8), ("garbled\n", 8)],
)
def test_a_cgroup_cpu_quota_caps_the_usable_cpus(tmp_path, monkeypatch, cpu_max, cpus):
    # A container may see every CPU of its host but be allowed only a few.
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(8)), raising=False)
    quota_file = tmp_path / "cpu.max"
    if cpu_max is not None:
        quota_file.write_text(cpu_max)
    monkeypatch.setattr(paths, "_CPU_MAX", str(quota_file))
    assert paths._usable_cpus() == cpus


def test_single_cpus_and_unsafe_forks_stay_serial(monkeypatch):
    large = np.zeros((paths._FORK_CELLS, 4))
    monkeypatch.setattr(paths, "_usable_cpus", lambda: 1)
    assert paths._writer_count(large) == 1
    monkeypatch.setattr(paths, "_usable_cpus", lambda: 4)
    monkeypatch.setattr(sys, "version_info", (3, 12, 0))
    assert paths._writer_count(large) == 1
    monkeypatch.undo()
    monkeypatch.delattr(os, "fork", raising=False)
    assert paths._writer_count(large) == 1


def forbid_fork(monkeypatch):
    def no_fork():
        raise AssertionError("os.fork called where the writer must stay serial")

    monkeypatch.setattr(os, "fork", no_fork)


def test_a_live_thread_keeps_the_writer_serial(tmp_path, monkeypatch):
    table = table_with_specials(40)
    serial = write(tmp_path, table, True, name="serial")
    force_writers(monkeypatch, 2)
    forbid_fork(monkeypatch)
    stop = threading.Event()
    thread = threading.Thread(target=stop.wait)
    thread.start()
    try:
        assert write(tmp_path, table, True) == serial
    finally:
        stop.set()
        thread.join()


@pytest.mark.skipif(not hasattr(signal, "SIGCHLD"), reason="no SIGCHLD here")
@pytest.mark.parametrize("handler", ["ignored", "handled"])
def test_a_sigchld_not_at_its_default_keeps_the_writer_serial(
    tmp_path, monkeypatch, handler
):
    # An ignored SIGCHLD makes the kernel reap children itself, and a handler
    # may reap them, so their exit status would be lost to the writer.
    table = table_with_specials(40)
    serial = write(tmp_path, table, True, name="serial")
    force_writers(monkeypatch, 2)
    forbid_fork(monkeypatch)
    action = signal.SIG_IGN if handler == "ignored" else (lambda *_: None)
    previous = signal.signal(signal.SIGCHLD, action)
    try:
        assert write(tmp_path, table, True) == serial
    finally:
        signal.signal(signal.SIGCHLD, previous)


@needs_fork
@pytest.mark.parametrize("workers,forked", [(2, 0), (3, 0), (3, 1), (4, 2)])
def test_rows_whose_fork_fails_are_formatted_here(
    tmp_path, monkeypatch, workers, forked
):
    # The first ``forked`` forks succeed, the next one finds no process left.
    table = table_with_specials(50)
    serial = write(tmp_path, table, True, name="serial")
    forks = force_writers(monkeypatch, workers)
    counting_fork = os.fork

    def fork():
        if len(forks) == forked:
            forks.append(None)
            raise BlockingIOError(11, "Resource temporarily unavailable")
        return counting_fork()

    monkeypatch.setattr(os, "fork", fork)
    assert write(tmp_path, table, True) == serial
    assert len(forks) == forked + 1
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(
        ["out.csv", "out_tail.csv", "serial.csv", "serial_tail.csv"]
    )
    assert_no_child_left()


def fail_in(monkeypatch, where, action):
    """Make ``_format_rows`` run ``action`` first in the child processes
    (``where="child"``) or in this process (``where="parent"``)."""
    parent = os.getpid()
    real = paths._format_rows

    def format_rows(*args):
        if (os.getpid() == parent) == (where == "parent"):
            action()
        return real(*args)

    monkeypatch.setattr(paths, "_format_rows", format_rows)


def boom():
    raise RuntimeError("boom")


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@needs_fork
@pytest.mark.parametrize("workers", [2, 3])
def test_a_failing_child_raises_oserror_and_leaves_nothing(
    tmp_path, monkeypatch, capfd, workers
):
    force_writers(monkeypatch, workers)
    fail_in(monkeypatch, "child", boom)
    with pytest.raises(OSError, match="failed in process"):
        write(tmp_path, table_with_specials(50), True)
    assert list(tmp_path.iterdir()) == []
    assert_no_child_left()
    assert "RuntimeError: boom" in capfd.readouterr().err


@needs_fork
def test_a_failing_parent_kills_and_reaps_its_children(tmp_path, monkeypatch):
    force_writers(monkeypatch, 3)
    # The children would sleep for a minute; they must be killed, not awaited.
    fail_in(monkeypatch, "child", lambda: time.sleep(60))
    fail_in(monkeypatch, "parent", boom)
    start = time.monotonic()
    with pytest.raises(RuntimeError, match="boom"):
        write(tmp_path, table_with_specials(50), True)
    assert time.monotonic() - start < 30
    assert list(tmp_path.iterdir()) == []
    assert_no_child_left()
