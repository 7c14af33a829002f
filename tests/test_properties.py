"""Property tests on random event datasets.

Datasets have tied times, delayed entry, several spells per subject (not
always contiguous in record order), optional groups and covariates.
Hypothesis runs derandomized, so the examples are the same on every run.
"""

import tempfile
from dataclasses import replace
from io import StringIO
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hazard_transform import (
    DataError,
    EventDataset,
    EventRecord,
    nelson_aalen,
    parse_dataset,
    write_dataset,
)
from hazard_transform import events

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
    gathered = ds._take_subjects(idx)
    assert gathered.n_subjects == rebuilt.n_subjects == len(idx)
    for got, want in zip(drivers(gathered), drivers(rebuilt), strict=True):
        if isinstance(want, str):
            assert got == want
            continue
        np.testing.assert_array_equal(got[0], want[0])
        np.testing.assert_array_equal(got[1], want[1])
        assert got[2] == want[2]


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
