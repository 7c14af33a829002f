"""Property tests on random event datasets.

Datasets have tied times, delayed entry, several spells per subject (not
always contiguous in record order), optional groups and covariates.
Hypothesis runs derandomized, so the examples are the same on every run.
"""

import subprocess
import sys
import tempfile
from contextlib import contextmanager
from dataclasses import replace
from io import StringIO
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hazard_transform import (
    ConfidenceBand,
    DataError,
    DriverMeta,
    EventDataset,
    EventRecord,
    PluginFit,
    StepPath,
    SystemKind,
    estimate_driver,
    fit_plugin,
    make_system,
    merge_drivers,
    nelson_aalen,
    parse_dataset,
    read_fit,
    read_path,
    restrict_path,
    solve_plugin,
    write_dataset,
    write_fit,
    write_path,
)
from hazard_transform import events, paths
from hazard_transform.hazards import _block_driver, _Spells
from hazard_transform.simlab import _ResampleDrivers

from helpers import at_risk, counting_path, solo_block, take_subjects, union_merge

PROPERTY = settings(derandomize=True, database=None, deadline=None, max_examples=60)

#: Few distinct values, so that times tie within and across subjects.
TIMES = st.sampled_from([0.25, 0.5, 1.0]) | st.floats(0.01, 1.0)


@st.composite
def datasets(draw):
    n_subjects = draw(st.integers(1, 6))
    p = draw(st.integers(0, 2))
    grouped = draw(st.booleans())
    records = []
    for s in range(n_subjects):
        entry = draw(st.sampled_from([0.0, 0.0, 0.1, 0.3]))
        group = draw(st.sampled_from([1, 2])) if grouped else None
        covariates = tuple(
            draw(st.floats(-5.0, 5.0, allow_subnormal=False)) for _ in range(p)
        )
        for _ in range(draw(st.integers(1, 3))):
            exit_time = entry + draw(TIMES)
            code = draw(st.integers(0, 2))
            records.append(
                EventRecord(f"id{s}", entry, exit_time, code, group, covariates)
            )
            entry = exit_time
    if draw(st.booleans()):
        records = draw(st.permutations(records))
    horizon = max(r.exit_time for r in records) + draw(st.sampled_from([0.0, 0.5]))
    return EventDataset(records=records, horizon=horizon)


def columns(ds):
    return (ds._subject, ds._entry, ds._exit, ds._code, ds._group, ds._covariates)


@PROPERTY
@given(datasets())
def test_records_view_and_columns_round_trip(ds):
    again = EventDataset.from_columns(
        ds._subject,
        ds._entry,
        ds._exit,
        ds._code,
        ds.horizon,
        group=ds._group,
        covariates=ds._covariates,
        subject_ids=ds.subject_ids,
    )
    assert again.records == ds.records
    assert repr(again.records) == repr(ds.records)
    rebuilt = EventDataset(records=again.records, horizon=ds.horizon)
    for a, b in zip(columns(rebuilt), columns(ds)):
        np.testing.assert_array_equal(a, b)
    ids = [r.subject_id for r in ds.records]
    assert ds.n_subjects == len(set(ids)) == len(ds.subject_ids)
    assert ds.subject_ids == tuple(dict.fromkeys(ids))
    groups = {r.group for r in ds.records} - {None}
    assert ds.group_labels == tuple(sorted(groups))
    for g in groups:
        members = {r.subject_id for r in ds.records if r.group == g}
        assert ds.subjects_in_group(g) == len(members)
    assert len(ds) == len(ds.records)


@PROPERTY
@given(datasets())
def test_write_then_parse_round_trips(ds):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "d.csv"
        write_dataset(ds, path)
        back = parse_dataset(path, horizon=ds.horizon)
    assert back.records == ds.records
    assert back.subject_ids == ds.subject_ids


NUMERIC_COLUMNS = ["entry", "exit", "event", "group", "x1", "x2"]
NOT_A_NUMBER = ["", "abc", "1.2.3", "--1", "1e", "0x1", "1,5"]


@PROPERTY
@given(datasets(), st.data())
def test_malformed_cell_raises_data_error_with_its_line(ds, data):
    with tempfile.TemporaryDirectory() as tmp:
        write_dataset(ds, Path(tmp) / "d.csv")
        lines = (Path(tmp) / "d.csv").read_text().splitlines()
    header = lines[0].split(",")
    row = data.draw(st.integers(1, len(lines) - 1))
    cells = lines[row].split(",")
    if data.draw(st.booleans()):
        column = header.index(data.draw(st.sampled_from(
            [c for c in NUMERIC_COLUMNS if c in header]
        )))
        bad = NOT_A_NUMBER + (["1.5"] if header[column] in ("event", "group") else [])
        cells[column] = data.draw(st.sampled_from(bad))
        if "," in cells[column]:
            cells[column] = f'"{cells[column]}"'
    else:
        cells = cells[: data.draw(st.integers(0, len(cells) - 1))]
    lines[row] = ",".join(cells)
    if not any(cell.strip() for cell in cells):
        return  # a blank row is skipped, not malformed
    with pytest.raises(DataError, match=rf"^line {row + 1}: malformed row"):
        parse_dataset(StringIO("\n".join(lines) + "\n"))


#: Id spellings: quoted with a comma or a doubled quote, padded, ending in
#: NUL (which NumPy's string dtype would drop).
ID_FORMS = [
    lambda s: s,
    lambda s: f'"{s},x"',
    lambda s: f'"{s}""x"',
    lambda s: f" {s} ",
    lambda s: f"{s}\x00",
]
#: Junk rows the loop skips (blank) or rejects (short).
JUNK_ROWS = ["", "   ", ",,,", " , ,", "z"]
#: Cells ``float``/``int`` and NumPy may read differently; "\u0663" is an
#: Arabic-Indic three.
ODD_CELLS = ["1_0", "\u0663", "nan", "inf", "-inf", " 1 ", "+1", "1.0", '"0.5"']


@st.composite
def rendered_datasets(draw):
    """CSV text of a random dataset, with edge-case spellings drawn in."""
    ds = draw(datasets())
    id_form = draw(st.sampled_from(ID_FORMS))
    eol = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    pad = draw(st.sampled_from(["", " ", "\t"]))
    extra = draw(st.booleans())
    has_group = bool(ds.group_labels)
    header = ["id", "entry", "exit", "event"] + ["group"] * has_group
    header += [f"x{j + 1}" for j in range(ds.covariate_dim)] + ["extra"] * extra
    rows = []
    for rec in ds.records:
        cells = [id_form(rec.subject_id), repr(rec.entry_time), repr(rec.exit_time),
                 str(rec.event_code)]
        cells += [str(rec.group)] * has_group + [repr(v) for v in rec.covariates]
        cells = [cells[0]] + [pad + c + pad for c in cells[1:]]
        rows.append(cells + ['"q,r"'] * extra)
    for _ in range(draw(st.integers(0, 2))):
        row = draw(st.integers(0, len(rows) - 1))
        column = draw(st.integers(1, len(header) - 1))
        rows[row][column] = draw(st.sampled_from(ODD_CELLS))
    lines = [",".join(cells) for cells in rows]
    for _ in range(draw(st.integers(0, 2))):
        lines.insert(draw(st.integers(0, len(lines))), draw(st.sampled_from(JUNK_ROWS)))
    return ",".join(header) + eol + eol.join(lines) + eol * draw(st.booleans())


def parse_outcome(parse):
    try:
        ds = parse()
    except DataError as exc:
        return str(exc)
    return (columns(ds), ds.subject_ids, repr(ds.horizon))


@PROPERTY
@given(rendered_datasets())
def test_bulk_parse_equals_the_row_loop(text):
    got = parse_outcome(lambda: parse_dataset(StringIO(text)))
    want = parse_outcome(lambda: events._parse_text(text, None, None, bulk=False))
    if isinstance(want, str):
        assert got == want
        return
    assert not isinstance(got, str), got
    for a, b in zip(got[0], want[0], strict=True):
        assert a.dtype == b.dtype
        np.testing.assert_array_equal(a, b)
    assert got[1:] == want[1:]


def test_bulk_reader_takes_plain_quoted_and_padded_rows(monkeypatch):
    text = (
        'id,entry,exit,event,group,x1\r\n'
        '"a,1", 0.0 ,1.5,1,2,0.25\r\n'
        '"b""2",0.5,inf,0,1, -1e-3\r\n'
        '\r\n'
        '"a,1",1.5,2.0, +2,2,nan\r\n'
    )
    loop = events._parse_text(text, None, None, bulk=False)

    def no_loop(*args):
        raise AssertionError("the row loop read a text NumPy can read")

    monkeypatch.setattr(events, "_read_rows", no_loop)
    bulk = events._parse_text(text, None, None)
    for a, b in zip(columns(bulk), columns(loop), strict=True):
        np.testing.assert_array_equal(a, b)
    assert bulk.subject_ids == loop.subject_ids == ("a,1", 'b"2')
    assert repr(bulk.horizon) == repr(loop.horizon) == "inf"


@pytest.mark.parametrize(
    "exits, message",
    [
        # Python's max keeps a NaN only in first place.
        (("nan", "1.0"), "horizon must be positive"),
        (("1.0", "nan"), "entry_time >= exit_time for subject(s): b"),
    ],
    ids=["nan-first", "nan-later"],
)
def test_default_horizon_is_python_max(exits, message):
    text = f"id,entry,exit,event\na,0.0,{exits[0]},1\nb,0.0,{exits[1]},0\n"
    for bulk in (True, False):
        with pytest.raises(DataError) as info:
            events._parse_text(text, None, None, bulk=bulk)
        assert str(info.value) == message


def drivers(ds):
    """Nelson-Aalen for each cause and group, or the error it raises."""
    out = []
    for cause in (1, 2):
        for group in (None, *ds.group_labels):
            try:
                path, meta = nelson_aalen(ds, cause=cause, group=group)
                out.append((path.times, path.increments, meta))
            except DataError as exc:
                out.append(str(exc))
    return out


@PROPERTY
@given(datasets(), st.data())
def test_gathered_resample_gives_the_record_rebuild_driver(ds, data):
    idx = data.draw(
        st.lists(st.integers(0, ds.n_subjects - 1), min_size=1, max_size=12)
    )
    blocks = {sid: [] for sid in ds.subject_ids}
    for rec in ds.records:
        blocks[rec.subject_id].append(rec)
    rebuilt = EventDataset(
        records=[
            replace(rec, subject_id=f"b{i}")
            for i, k in enumerate(idx)
            for rec in blocks[ds.subject_ids[k]]
        ],
        horizon=ds.horizon,
    )
    gathered = take_subjects(ds, idx)
    assert gathered.n_subjects == rebuilt.n_subjects == len(idx)
    for got, want in zip(drivers(gathered), drivers(rebuilt), strict=True):
        if isinstance(want, str):
            assert got == want
            continue
        np.testing.assert_array_equal(got[0], want[0])
        np.testing.assert_array_equal(got[1], want[1])
        assert got[2] == want[2]


@st.composite
def resampled_drivers(draw):
    """A dataset, a system that reads it (groups and causes remapped onto
    the dataset's own labels) and a few resamples of its subjects, which
    may leave subjects out or draw them several times."""
    ds = draw(datasets())
    maps = {}
    if ds.group_labels:
        name = "led"
        maps["group_map"] = {
            role: draw(st.sampled_from(ds.group_labels))
            for role in ("group1", "group2")
        }
        maps["cause_map"] = {"group1": draw(st.integers(1, 2))}
    else:
        name = draw(st.sampled_from(["survival", "rmst", "mean_frequency"]))
    grid_step = ds.horizon / draw(st.sampled_from([1, 3, 7]))
    resamples = draw(
        st.lists(
            st.lists(st.integers(0, ds.n_subjects - 1), min_size=1, max_size=8),
            min_size=1,
            max_size=4,
        )
    )
    return ds, name, grid_step, maps, resamples


def gap_dataset(covered):
    """``a`` leaves at 0.2 and ``b`` enters at 0.3, so the risk set empties
    at 0.2 unless ``c`` (at risk to 1.0) is there; ``b``'s event at 0.8
    then falls after a freeze."""
    records = [
        EventRecord("a", 0.0, 0.2, 0),
        EventRecord("b", 0.3, 0.8, 1),
        EventRecord("c", 0.0, 1.0, 1),
    ]
    return EventDataset(records=records[: 2 + covered], horizon=1.5)


@PROPERTY
@given(case=resampled_drivers())
# Resample (a, b) freezes where the dataset does not.
@example(case=(gap_dataset(True), "survival", 0.5, {}, [[0, 1], [2]]))
# The dataset freezes at 0.2; resample (b) keeps the jump at 0.8.
@example(case=(gap_dataset(False), "rmst", 0.5, {}, [[1], [0, 1]]))
def check_stacked_drivers(seen, case):
    """Adds to ``seen`` the kinds of case met."""
    ds, name, grid_step, maps, resamples = case
    resamples = [np.array(idx) for idx in resamples]
    kind = SystemKind(name)
    driver, meta = estimate_driver(ds, kind, grid_step=grid_step, **maps)
    stack = _ResampleDrivers(ds, kind, driver, **maps)
    try:
        incr = stack.increments(iter(resamples), 0, len(resamples))
    except DataError as exc:
        # A resample without a subject of a group the driver reads: the
        # gathered dataset does not know the group.
        r = int(str(exc).split()[2])
        for idx in resamples[:r]:
            estimate_driver(take_subjects(ds, idx), kind, grid_step=grid_step, **maps)
        with pytest.raises(ValueError, match="unknown group label"):
            estimate_driver(
                take_subjects(ds, resamples[r]), kind, grid_step=grid_step, **maps
            )
        seen.add("missing group")
        return
    assert np.isin(driver.times, stack.times).all()
    if meta.truncation_time is not None:
        seen.add("base freeze")
    for r, idx in enumerate(resamples):
        star_ds = take_subjects(ds, idx)
        star, star_meta = estimate_driver(star_ds, kind, grid_step=grid_step, **maps)
        pos = np.searchsorted(stack.times, star.times)
        np.testing.assert_array_equal(stack.times[pos], star.times)
        want = np.zeros((stack.times.size, star.dimension))
        want[pos] = star.increments
        np.testing.assert_array_equal(incr[:, r], want)
        events = star_ds._exit[star_ds._code > 0]
        if np.unique(events).size < events.size:
            seen.add("ties")
        if star_meta.truncation_time is not None:
            seen.add("resample freeze")
    first_entry = np.full(ds.n_subjects, np.inf)
    np.minimum.at(first_entry, ds._subject, ds._entry)
    if (first_entry > 0).any():
        seen.add("delayed entry")
    if ds.group_labels:
        seen.add("groups")


def test_stacked_resample_drivers_equal_the_gathered_drivers():
    """Each resample's row of the stacked driver is exactly the driver of
    the gathered resample, scattered onto the stacked grid."""
    seen = set()
    check_stacked_drivers(seen)
    assert seen >= {
        "ties",
        "delayed entry",
        "groups",
        "missing group",
        "resample freeze",
        "base freeze",
    }, seen


def reference_nelson_aalen(ds, cause, group):
    """Nelson-Aalen from its definition on the records: ``counting_path``
    for dN, ``at_risk`` for Y, and the freeze."""
    records = [r for r in ds.records if group is None or r.group == group]
    exits = sorted({r.exit_time for r in records if r.exit_time < ds.horizon})
    freeze = next(
        (
            t
            for t in exits
            if not any(r.entry_time <= t < r.exit_time for r in records)
        ),
        None,
    )
    counts = counting_path(ds, cause, group)
    times, dn = counts.times, counts.increments[:, 0]
    if freeze is not None:
        keep = times <= freeze
        if keep.all():
            freeze = None
        times, dn = times[keep], dn[keep]
    y = np.array([at_risk(ds, t, group) for t in times], dtype=float)
    label = f"cause{cause}" if group is None else f"cause{cause}|group{group}"
    meta = DriverMeta(
        scale_n=len({r.subject_id for r in records}),
        component_labels=(label,),
        deterministic_mask=(False,),
        truncation_time=freeze,
    )
    return times, (dn / y).reshape(-1, 1), meta


@PROPERTY
@given(ds=datasets())
# The risk set empties at 0.2, before b's event at 0.8.
@example(ds=gap_dataset(False))
def check_nelson_aalen_reference(seen, ds):
    """Adds to ``seen`` the kinds of case met."""
    for cause in (1, 2):
        for group in (None, *ds.group_labels):
            path, meta = nelson_aalen(ds, cause=cause, group=group)
            times, increments, want = reference_nelson_aalen(ds, cause, group)
            np.testing.assert_array_equal(path.times, times)
            np.testing.assert_array_equal(path.increments, increments)
            assert meta == want
            if meta.truncation_time is not None:
                seen.add("freeze")
            if (counting_path(ds, cause, group).increments > 1).any():
                seen.add("ties")
    first_entry = np.full(ds.n_subjects, np.inf)
    np.minimum.at(first_entry, ds._subject, ds._entry)
    if (first_entry > 0).any():
        seen.add("delayed entry")
    if ds.group_labels:
        seen.add("groups")


def test_nelson_aalen_matches_its_public_definition():
    """Times, increments and ``DriverMeta`` are bitwise those built from
    ``counting_path``, ``at_risk`` and the records."""
    seen = set()
    check_nelson_aalen_reference(seen)
    assert seen >= {"ties", "delayed entry", "groups", "freeze"}, seen


@st.composite
def replications(draw):
    """One replication's spells as ``(subject, entry, exit, code, group)``
    rows: subjects of groups 1 and 2 (at least one each), one to three
    consecutive spells each, delayed entry, event codes 0 to 3."""
    rows = []
    for s in range(draw(st.integers(2, 5))):
        group = s + 1 if s < 2 else draw(st.sampled_from([1, 2]))
        entry = draw(st.sampled_from([0.0, 0.0, 0.1, 0.3]))
        for _ in range(draw(st.integers(1, 3))):
            exit_time = entry + draw(TIMES)
            rows.append((s, entry, exit_time, draw(st.integers(0, 3)), group))
            entry = exit_time
    return rows


def block_of(replications, horizon):
    """The :class:`_Spells` of a block from each replication's rows."""
    rep = np.repeat(np.arange(len(replications)), [len(r) for r in replications])
    subject, entry, exit_, code, group = (
        np.array(column) for column in zip(*(row for r in replications for row in r))
    )
    return _Spells(rep, subject, entry, exit_, code, group, horizon, len(replications))


#: Driver sources: the time grid, or a ``(cause, group)`` Nelson-Aalen slot.
SOURCES = [None, (1, None), (2, None), (3, None), (1, 1), (2, 2), (3, 1), (3, 2)]


@st.composite
def blocks(draw):
    """``(spells, sources, grid_step)`` of a block of one to four
    replications; times tie within and across them, and some exits lie past
    the horizon."""
    horizon = draw(st.sampled_from([1.0, 1.5, 3.0]))
    spells = block_of(draw(st.lists(replications(), min_size=1, max_size=4)), horizon)
    sources = draw(st.lists(st.sampled_from(SOURCES), min_size=1, max_size=4))
    return spells, sources, horizon / draw(st.sampled_from([1, 3, 7]))


#: Group 1 is empty from 0.2 to 0.3, before an event at 0.8.
GAP = [(0, 0.0, 0.2, 0, 1), (1, 0.3, 0.8, 1, 1), (2, 0.0, 1.0, 2, 2)]

#: Replication 0's group 1 empties at 0.2 and again at 0.5, before its event
#: at 0.9, so it freezes at 0.2; replication 1 is ``GAP`` with a subject
#: that covers the gap, so it does not freeze.
FREEZE_IN_ONE = (
    block_of(
        [
            [(0, 0.0, 0.2, 0, 1), (1, 0.3, 0.5, 0, 1), (2, 0.6, 0.9, 1, 1)]
            + [(3, 0.0, 1.0, 2, 2)],
            GAP + [(3, 0.0, 1.0, 1, 1)],
        ],
        1.5,
    ),
    [(1, 1), (2, 2)],
    0.5,
)

#: Replication 1's group 2 has no cause-2 event; replication 0's has one.
EVENTLESS_GROUP = (
    block_of([GAP, GAP[:2] + [(2, 0.0, 1.0, 0, 2)]], 1.5),
    [None, (1, 1), (2, 2)],
    0.5,
)


def assert_bitwise(got, want):
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


@PROPERTY
@given(case=blocks())
@example(case=FREEZE_IN_ONE)
@example(case=EVENTLESS_GROUP)
def check_block_drivers(seen, case):
    """Adds to ``seen`` the kinds of case met."""
    spells, sources, grid_step = case
    got = _block_driver(spells, sources, grid_step)
    want = solo_block(spells, sources, grid_step)
    fields = got.times, got.increments, got.n_jumps, got.scale, got.truncation
    for a, b in zip(fields, want, strict=True):
        assert_bitwise(a, b)
    assert got.deterministic == tuple(source is None for source in sources)
    events = (spells.code > 0) & (spells.exit <= spells.horizon)
    pairs = {(r, t) for r, t in zip(spells.rep[events], spells.exit[events])}
    if len(pairs) < events.sum():
        seen.add("ties within")
    if len({t for _, t in pairs}) < len(pairs):
        seen.add("ties across")
    if (spells.entry > 0).any():
        seen.add("delayed entry")
    if np.unique(spells.rep * 8 + spells.subject).size < spells.subject.size:
        seen.add("several spells")
    if any(s is not None and s[0] == 3 for s in sources) and (spells.code == 3).any():
        seen.add("three causes")
    if None in sources:
        seen.add("time grid")
    for source in sources:
        if source is not None and source[1] is not None:
            cause, group = source
            hit = events & (spells.code == cause) & (spells.group == group)
            if 0 < np.unique(spells.rep[hit]).size < spells.count:
                seen.add("eventless group")
    frozen = np.isfinite(got.truncation)
    if frozen.any() and not frozen.all():
        seen.add("freeze in one")


def test_block_drivers_equal_the_per_replication_drivers():
    """Every array the block kernel pads is bitwise what each
    replication's own dataset, Nelson-Aalen and ``merge_drivers`` give."""
    seen = set()
    check_block_drivers(seen)
    assert seen >= {
        "ties within",
        "ties across",
        "delayed entry",
        "several spells",
        "three causes",
        "time grid",
        "eventless group",
        "freeze in one",
    }, seen


def reference_validation_error(records):
    """The message the record-at-a-time validation raised, or None."""
    bad_order = []
    cov_dim = None
    for rec in records:
        if rec.entry_time < 0:
            return f"subject {rec.subject_id!r}: negative entry_time"
        if not rec.entry_time < rec.exit_time:
            bad_order.append(rec.subject_id)
        if rec.event_code < 0:
            return f"subject {rec.subject_id!r}: negative event code"
        if cov_dim is None:
            cov_dim = len(rec.covariates)
        elif len(rec.covariates) != cov_dim:
            return f"subject {rec.subject_id!r}: inconsistent covariate count"
    if bad_order:
        return "entry_time >= exit_time for subject(s): " + ", ".join(
            sorted(set(bad_order))
        )
    return None


@st.composite
def suspect_records(draw):
    records = []
    for _ in range(draw(st.integers(1, 8))):
        records.append(
            EventRecord(
                draw(st.sampled_from(["b", "a", "c", "a10", "a9"])),
                draw(st.sampled_from([-0.5, 0.0, 0.2, 1.0])),
                draw(st.sampled_from([0.0, 0.2, 0.7, 1.0, float("nan")])),
                draw(st.sampled_from([-1, 0, 1, 2])),
                covariates=(0.0,) * draw(st.sampled_from([1, 1, 1, 0, 2])),
            )
        )
    return records


@PROPERTY
@given(suspect_records())
def test_validation_raises_the_record_loop_message(records):
    want = reference_validation_error(records)
    if want is None:
        assert len(EventDataset(records=records, horizon=2.0)) == len(records)
    else:
        with pytest.raises(DataError) as info:
            EventDataset(records=records, horizon=2.0)
        assert str(info.value) == want


# ---------------------------------------------------------------------------
# Path and fit files round-trip bit for bit, formatted in one block of rows
# or split over two.

#: Any float but NaN (whose sign ``repr`` drops): signed zeros, subnormals,
#: huge values and infinities.
CELLS = st.floats(allow_nan=False)


def same_bits(got, want):
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    return got.shape == want.shape and got.tobytes() == want.tobytes()


@st.composite
def jump_times(draw):
    times = draw(
        st.lists(st.floats(0.0, 1e6, exclude_min=True), max_size=40, unique=True)
    )
    times = np.sort(np.array(times, dtype=float))
    horizon = float(times[-1]) if times.size else 1.0
    return times, horizon + draw(st.sampled_from([0.0, 0.5]))


def matrix(draw, rows, cols):
    return np.array(
        draw(st.lists(CELLS, min_size=rows * cols, max_size=rows * cols)), dtype=float
    ).reshape(rows, cols)


@st.composite
def driver_files(draw):
    times, horizon = draw(jump_times())
    k = draw(st.integers(1, 3))
    path = StepPath(
        times=times,
        increments=matrix(draw, times.size, k),
        origin_value=matrix(draw, 1, k)[0],
        horizon=horizon,
    )
    meta = DriverMeta(
        scale_n=draw(st.integers(1, 10**6)),
        component_labels=tuple(f"c{j}" for j in range(k)),
        deterministic_mask=tuple(draw(st.lists(st.booleans(), min_size=k, max_size=k))),
        truncation_time=draw(st.none() | st.floats(0.0, 1.0)),
    )
    return path, meta


def symmetric(draw, count, n):
    upper = matrix(draw, count, n * (n + 1) // 2)
    rows, cols = np.triu_indices(n)
    out = np.empty((count, n, n))
    out[:, rows, cols] = upper
    out[:, cols, rows] = upper
    return out


@st.composite
def fit_files(draw):
    times, horizon = draw(jump_times())
    n = draw(st.integers(1, 3))
    values = matrix(draw, times.size + 1, n)
    cov = symmetric(draw, times.size + 1, n)
    fit = PluginFit(
        state_path=StepPath.from_values(times, values, horizon),
        cov_path=cov[1:],
        v0=cov[0],
        scale_n=draw(st.integers(1, 10**6)),
        state_labels=tuple(f"x{i}" for i in range(n)),
    )
    band = ConfidenceBand(
        times=np.concatenate([[0.0], times]),
        point=values,
        lower=matrix(draw, times.size + 1, n),
        upper=matrix(draw, times.size + 1, n),
        level=draw(st.floats(0.5, 0.999)),
    )
    return fit, band


@contextmanager
def written_by(blocks, table_shape):
    """A scratch directory in which a table of ``table_shape`` is formatted
    in ``blocks`` blocks of rows (fewer if it has fewer rows)."""
    rows, cols = table_shape
    with pytest.MonkeyPatch.context() as mp, tempfile.TemporaryDirectory() as tmp:
        mp.setattr(paths, "_BLOCK_CELLS", cols * max(1, -(-rows // blocks)))
        yield Path(tmp)


BLOCKS = pytest.mark.parametrize("blocks", [1, 2])


@BLOCKS
@PROPERTY
@given(case=driver_files())
def test_write_path_then_read_path_is_bitwise(blocks, case):
    path, meta = case
    with written_by(blocks, (path.n_jumps, 1 + path.dimension)) as tmp:
        write_path(path, meta, tmp / "driver")
        back, back_meta = read_path(tmp / "driver")
    assert back_meta == meta
    assert same_bits(back.times, path.times)
    assert same_bits(back.increments, path.increments)
    assert same_bits(back.origin_value, path.origin_value)
    assert back.horizon == path.horizon


@BLOCKS
@PROPERTY
@given(case=fit_files())
def test_write_fit_then_read_fit_is_bitwise(blocks, case):
    fit, band = case
    n = len(fit.state_labels)
    with written_by(blocks, (band.times.size, 1 + 3 * n + n * (n + 1) // 2)) as tmp:
        write_fit(fit, band, tmp / "fit")
        back, back_band = read_fit(tmp / "fit")
    assert back.state_labels == fit.state_labels
    assert back.scale_n == fit.scale_n
    assert back.state_path.horizon == fit.state_path.horizon
    assert same_bits(back.times, fit.times)
    assert same_bits(back.state_path.origin_value, fit.state_path.origin_value)
    assert same_bits(back.state_path.values_at_jumps(), fit.state_path.values_at_jumps())
    assert same_bits(back.cov_path, fit.cov_path)
    assert same_bits(back.v0, fit.v0)
    for name in ("times", "point", "lower", "upper"):
        assert same_bits(getattr(back_band, name), getattr(band, name))
    assert back_band.level == band.level


# ---------------------------------------------------------------------------
# The paper's identities and the driver algebra on random inputs.


@PROPERTY
@given(datasets())
def test_survival_of_nelson_aalen_is_the_product_limit_estimator(ds):
    path, meta = nelson_aalen(ds, cause=1)
    survival = solve_plugin(make_system("survival"), path)
    # Product-limit estimator counted from the records, over the event
    # times up to the freeze (the last time with a subject at risk).
    records = ds.records
    events = sorted({r.exit_time for r in records if r.event_code == 1})
    events = [t for t in events if t <= ds.horizon]
    if meta.truncation_time is not None:
        events = [t for t in events if t <= meta.truncation_time]
    np.testing.assert_array_equal(survival.times, events)
    s = 1.0
    for t, value in zip(events, survival.values_at_jumps()[:, 0]):
        deaths = sum(r.event_code == 1 and r.exit_time == t for r in records)
        at_risk = sum(r.entry_time < t <= r.exit_time for r in records)
        s *= 1.0 - deaths / at_risk
        assert abs(value - s) <= 1e-12


@PROPERTY
@given(datasets())
def test_survival_plus_cumulative_incidences_is_one(ds):
    kind = SystemKind("cumulative_incidence", n_causes=2)
    driver, meta = estimate_driver(ds, kind)
    fit = fit_plugin(make_system(kind), driver, meta)
    values = fit.state_path.values_at_jumps()
    np.testing.assert_allclose(values.sum(axis=1), 1.0, rtol=0, atol=1e-12)
    assert (values >= -1e-12).all()


@st.composite
def two_groups(draw):
    """Two datasets of ``datasets()`` as groups 1 and 2 of one dataset on
    the longer horizon, and a time-grid step."""
    records = []
    for group, prefix in ((1, "a"), (2, "b")):
        records += [
            replace(r, subject_id=prefix + r.subject_id, group=group, covariates=())
            for r in draw(datasets()).records
        ]
    horizon = max(r.exit_time for r in records) + draw(st.sampled_from([0.0, 0.5]))
    step = horizon / draw(st.sampled_from([1, 3, 7, 50]))
    return EventDataset(records=records, horizon=horizon), step


@PROPERTY
@given(two_groups())
def test_led_is_the_difference_of_the_group_restricted_means(case):
    # Criterion 3's identity, LED = RMST_1 - RMST_2, on drawn data with ties
    # and delayed entry, each RMST fitted on its group alone.
    ds, step = case
    led = fit_plugin(make_system("led"), *estimate_driver(ds, "led", grid_step=step))
    rmst = []
    for group in (1, 2):
        alone = EventDataset(
            records=[r for r in ds.records if r.group == group], horizon=ds.horizon
        )
        driver, meta = estimate_driver(alone, "rmst", grid_step=step)
        rmst.append(fit_plugin(make_system("rmst"), driver, meta).state_path)
    probe = np.append(led.times, ds.horizon)
    want = rmst[0].value_at(probe)[:, 0] - rmst[1].value_at(probe)[:, 0]
    np.testing.assert_allclose(
        led.state_path.value_at(probe)[:, 0], want, rtol=0, atol=1e-10
    )


#: Moderate increments, so that sums keep a relative precision.
STEPS = st.floats(-10.0, 10.0, allow_subnormal=False)


@st.composite
def step_paths(draw, times=None):
    if times is None:
        times, horizon = draw(jump_times())
    else:
        horizon = float(times[-1]) if times.size else 1.0
    k = draw(st.integers(1, 3))
    steps = st.lists(STEPS, min_size=times.size * k, max_size=times.size * k)
    return StepPath(
        times=times,
        increments=np.array(draw(steps)).reshape(times.size, k),
        origin_value=draw(st.lists(STEPS, min_size=k, max_size=k)),
        horizon=horizon,
    )


@PROPERTY
@given(step_paths(), st.data())
def test_restrict_path_agrees_on_the_restricted_window(path, data):
    start = data.draw(
        st.sampled_from([0.0, *path.times[path.times < path.horizon]])
        | st.floats(0.0, path.horizon, exclude_max=True)
    )
    restricted = restrict_path(path, start)
    assert restricted.horizon == path.horizon
    assert (restricted.times > start).all()
    np.testing.assert_array_equal(restricted.times, path.times[path.times > start])
    probes = np.concatenate(
        [[start, path.horizon], path.times, (path.times[1:] + path.times[:-1]) / 2]
    )
    after = probes[probes > start]
    scale = 1e-12 * (
        1.0 + np.abs(path.increments).sum() + np.abs(path.origin_value).sum()
    )
    np.testing.assert_allclose(
        restricted.value_at(after), path.value_at(after), rtol=0, atol=scale
    )
    before = probes[probes <= start]
    for value in restricted.value_at(before):
        np.testing.assert_array_equal(value, path.value_at(start))


@st.composite
def driver_parts(draw):
    """Drivers on one horizon whose jump times overlap: each part takes a
    subset of a shared pool."""
    pool, horizon = draw(jump_times())
    parts = []
    for _ in range(draw(st.integers(1, 3))):
        keep = draw(st.lists(st.booleans(), min_size=pool.size, max_size=pool.size))
        path = draw(step_paths(times=pool[np.array(keep, dtype=bool)]))
        path = StepPath(path.times, path.increments, path.origin_value, horizon)
        k = path.dimension
        meta = DriverMeta(
            scale_n=draw(st.integers(1, 1000)),
            component_labels=tuple(f"c{len(parts)}_{j}" for j in range(k)),
            deterministic_mask=tuple(
                draw(st.lists(st.booleans(), min_size=k, max_size=k))
            ),
            truncation_time=draw(st.none() | st.floats(0.0, 1.0)),
        )
        parts.append((path, meta))
    return parts


@PROPERTY
@given(driver_parts())
def test_merge_drivers_stacks_the_parts_on_the_union_of_times(parts):
    merged, meta = merge_drivers(parts)
    times = np.unique(np.concatenate([path.times for path, _ in parts]))
    np.testing.assert_array_equal(merged.times, times)
    offset = 0
    for path, part_meta in parts:
        columns = merged.increments[:, offset : offset + path.dimension]
        pos = np.searchsorted(times, path.times)
        np.testing.assert_array_equal(columns[pos], path.increments)
        others = np.ones(times.size, dtype=bool)
        others[pos] = False
        assert (columns[others] == 0.0).all()
        np.testing.assert_array_equal(
            merged.origin_value[offset : offset + path.dimension], path.origin_value
        )
        offset += path.dimension
    assert offset == merged.dimension
    stochastic = [m.scale_n for _, m in parts if not all(m.deterministic_mask)]
    assert meta.scale_n == max(sum(stochastic), 1)
    assert meta.component_labels == sum((m.component_labels for _, m in parts), ())
    assert meta.deterministic_mask == sum((m.deterministic_mask for _, m in parts), ())
    truncations = [m.truncation_time for _, m in parts]
    truncations = [t for t in truncations if t is not None]
    assert meta.truncation_time == (min(truncations) if truncations else None)


#: Two parts on disjoint times, the second with two columns.
DISJOINT_PARTS = [
    (
        StepPath([0.5, 2.0], [[1.0], [2.0]], [0.0], 2.0),
        DriverMeta(3, ("a",), (False,)),
    ),
    (
        StepPath([1.0], [[3.0, 4.0]], [0.0, 1.0], 2.0),
        DriverMeta(1, ("b", "c"), (True, True)),
    ),
]


@PROPERTY
@given(parts=driver_parts())
@example(parts=DISJOINT_PARTS)
def check_merge_against_the_union1d_reference(seen, parts):
    """Adds to ``seen`` the kinds of case met."""
    paths_ = [path for path, _ in parts]
    merged, _ = merge_drivers(parts)
    times, increments = union_merge(paths_)
    assert_bitwise(merged.times, times)
    assert_bitwise(merged.increments, increments)
    for path in paths_:
        assert not np.shares_memory(merged.increments, path.increments)
    every = np.concatenate([path.times for path in paths_])
    if len(parts) == 1:
        seen.add("single part")
    if any(path.n_jumps == 0 for path in paths_):
        seen.add("empty part")
    if any(path.dimension > 1 for path in paths_):
        seen.add("several columns")
    if np.unique(every).size < every.size:
        seen.add("shared times")
    if len(parts) > 1 and np.unique(every).size == every.size > 0:
        seen.add("disjoint times")


def test_merge_drivers_equals_the_union1d_reference():
    """``merge_drivers`` and the block kernel share one union; this checks it
    against the merge it replaced, kept independent in ``helpers``."""
    seen = set()
    check_merge_against_the_union1d_reference(seen)
    assert seen >= {
        "single part",
        "empty part",
        "several columns",
        "shared times",
        "disjoint times",
    }, seen


# ---------------------------------------------------------------------------
# The suite's own settings.

FAILING_PROPERTY = """
from hypothesis import given, settings, strategies as st


@settings(derandomize=True, database=None)
@given(st.integers())
def test_fails(x):
    assert x < 0


def test_runs_after():
    pass
"""


def test_a_failing_property_does_not_end_the_run(tmp_path):
    # Under the suite's ``filterwarnings = ["error"]``, Hypothesis's failure
    # report must not become an INTERNALERROR that skips the tests after it.
    config = Path(__file__).resolve().parents[1] / "pyproject.toml"
    (tmp_path / "test_two.py").write_text(FAILING_PROPERTY)
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-c", str(config), "test_two.py"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
    )
    assert "INTERNALERROR" not in proc.stdout + proc.stderr
    assert proc.returncode == 1
    assert "1 failed, 1 passed" in proc.stdout
