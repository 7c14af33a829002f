"""Event-history datasets: records, parsing, counting processes, risk sets.

A record is one observation spell ``(entry, exit]`` for a subject, ending in
an event (positive code) or censoring (code 0).  Subjects may contribute
several consecutive spells (recurrent events).  The at-risk convention is
left-continuous: a subject is at risk at time ``t`` when ``entry < t <= exit``,
so it counts as at risk at its own event time.

A dataset keeps its spells as NumPy columns; the tuple of :class:`EventRecord`
objects is a view built from them on first access.
"""

from __future__ import annotations

import csv
import io
import re
import warnings
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DataError
from .paths import StepPath

__all__ = [
    "EventRecord",
    "EventDataset",
    "parse_dataset",
    "write_dataset",
    "counting_path",
    "at_risk",
]

_NO_GROUP = np.iinfo(np.int64).min


@dataclass(frozen=True)
class EventRecord:
    """One observation spell of one subject."""

    subject_id: str
    entry_time: float
    exit_time: float
    event_code: int
    group: int | None = None
    covariates: tuple[float, ...] = ()


class EventDataset:
    """Validated event records over a window ``[0, horizon]``, held as columns.

    One array entry per spell: ``_subject`` (subjects numbered ``0, 1, ...``
    in order of first appearance, labelled by :attr:`subject_ids`),
    ``_entry``, ``_exit``, ``_code``, ``_group`` (``_NO_GROUP`` where a spell
    has none) and the ``(spells, p)`` matrix ``_covariates``.  The columns are
    read-only.  ``EventDataset(records, horizon)`` builds them from
    :class:`EventRecord` objects and :meth:`from_columns` from arrays.
    :attr:`records` is a derived view: the records given, or records rebuilt
    from the columns on first access.
    """

    def __init__(self, records, horizon):
        records = tuple(records)
        index: dict = {}
        subject = [index.setdefault(r.subject_id, len(index)) for r in records]
        widths = [len(r.covariates) for r in records]
        mismatch = next((i for i, w in enumerate(widths) if w != widths[0]), None)
        self._assign(
            horizon,
            subject,
            [r.entry_time for r in records],
            [r.exit_time for r in records],
            [r.event_code for r in records],
            [_NO_GROUP if r.group is None else r.group for r in records],
            tuple(index),
            covariate_mismatch=mismatch,
        )
        covariates = [v for r in records for v in r.covariates]
        self._covariates = _frozen(
            np.array(covariates, dtype=float).reshape(
                len(records), widths[0] if records else 0
            )
        )
        self.__dict__["records"] = records

    @classmethod
    def from_columns(
        cls,
        subject,
        entry,
        exit,
        code,
        horizon,
        group=None,
        covariates=None,
        subject_ids=None,
    ) -> "EventDataset":
        """Dataset from per-spell columns, validated like the record form.

        ``subject`` holds integer subject indices numbered ``0, 1, ...`` in
        order of first appearance; ``subject_ids`` labels them (default
        ``s1, s2, ...``).  ``group`` and ``covariates`` default to no group
        and no covariates.
        """
        subject = np.asarray(subject, dtype=np.int64)
        # First-appearance numbering: starts at 0, and each new index is one
        # above the largest seen so far.
        if subject.size and (
            subject[0] != 0
            or subject.min() < 0
            or np.diff(np.maximum.accumulate(subject)).max(initial=0) > 1
        ):
            raise ValueError(
                "subject indices must be numbered in order of first appearance"
            )
        if group is None:
            group = np.full(subject.size, _NO_GROUP)
        self = cls.__new__(cls)
        self._assign(horizon, subject, entry, exit, code, group, subject_ids)
        if covariates is None:
            covariates = np.empty((subject.size, 0))
        self._covariates = _frozen(np.asarray(covariates, dtype=float))
        if self._covariates.shape[0] != subject.size or self._covariates.ndim != 2:
            raise ValueError("covariates must have one row per spell")
        return self

    def _assign(
        self, horizon, subject, entry, exit, code, group, subject_ids,
        covariate_mismatch=None,
    ):
        self.horizon = float(horizon)
        self._subject = _frozen(np.asarray(subject, dtype=np.int64))
        self._entry = _frozen(np.asarray(entry, dtype=float))
        self._exit = _frozen(np.asarray(exit, dtype=float))
        self._code = _frozen(np.asarray(code, dtype=np.int64))
        self._group = _frozen(np.asarray(group, dtype=np.int64))
        size = self._subject.size
        if any(
            col.shape != (size,)
            for col in (self._entry, self._exit, self._code, self._group)
        ):
            raise ValueError("columns must be one-dimensional and of equal length")
        self.n_subjects = int(self._subject.max()) + 1 if size else 0
        if subject_ids is not None:
            if len(subject_ids) != self.n_subjects:
                raise ValueError("need one subject id per subject")
            self.__dict__["subject_ids"] = tuple(subject_ids)
        self._validate(covariate_mismatch)

    def _validate(self, covariate_mismatch):
        if not self.horizon > 0:
            raise DataError("horizon must be positive")
        # Row checks in record order: the first offending spell raises, with
        # its checks in this order; entry >= exit is reported after a full
        # pass, listing every offending subject.
        checks = [
            (self._entry < 0, "negative entry_time"),
            (self._code < 0, "negative event code"),
        ]
        if covariate_mismatch is not None:
            flag = np.zeros(len(self), dtype=bool)
            flag[covariate_mismatch] = True
            checks.append((flag, "inconsistent covariate count"))
        hit = np.zeros(len(self), dtype=bool)
        for flag, _ in checks:
            hit |= flag
        if hit.any():
            row = int(np.argmax(hit))
            message = next(msg for flag, msg in checks if flag[row])
            sid = self.subject_ids[self._subject[row]]
            raise DataError(f"subject {sid!r}: {message}")
        bad_order = ~(self._entry < self._exit)
        if bad_order.any():
            ids = self.subject_ids
            bad = np.unique(self._subject[bad_order]).tolist()
            raise DataError(
                "entry_time >= exit_time for subject(s): "
                + ", ".join(sorted({ids[s] for s in bad}))
            )

    def __len__(self) -> int:
        """Number of spells (records)."""
        return self._subject.size

    def __repr__(self) -> str:
        return (
            f"EventDataset({len(self)} records, {self.n_subjects} subjects, "
            f"horizon={self.horizon!r})"
        )

    @cached_property
    def subject_ids(self) -> tuple:
        """Subject labels in order of first appearance."""
        return tuple(f"s{i + 1}" for i in range(self.n_subjects))

    @cached_property
    def records(self) -> tuple[EventRecord, ...]:
        """The spells as :class:`EventRecord` objects with plain Python fields."""
        ids = self.subject_ids
        groups = [None if g == _NO_GROUP else g for g in self._group.tolist()]
        return tuple(
            EventRecord(ids[s], entry, exit_, code, group, tuple(covs))
            for s, entry, exit_, code, group, covs in zip(
                self._subject.tolist(),
                self._entry.tolist(),
                self._exit.tolist(),
                self._code.tolist(),
                groups,
                self._covariates.tolist(),
            )
        )

    @property
    def covariate_dim(self) -> int:
        return self._covariates.shape[1]

    @cached_property
    def group_labels(self) -> tuple[int, ...]:
        return tuple(np.unique(self._group[self._group != _NO_GROUP]).tolist())

    def _group_mask(self, group: int | None) -> np.ndarray:
        if group is None:
            return np.ones(len(self), dtype=bool)
        if group not in self.group_labels:
            raise ValueError(f"unknown group label: {group!r}")
        return self._group == group

    def subjects_in_group(self, group: int | None) -> int:
        """Distinct subjects contributing records to the given group."""
        if group is None:
            return self.n_subjects
        seen = np.zeros(self.n_subjects, dtype=bool)
        seen[self._subject[self._group_mask(group)]] = True
        return int(np.count_nonzero(seen))


def _frozen(column: np.ndarray) -> np.ndarray:
    """Read-only view of a column (the caller's array stays writeable)."""
    view = column.view()
    view.flags.writeable = False
    return view


def at_risk(dataset: EventDataset, t: float, group: int | None = None) -> int:
    """Number of subjects under observation just before ``t``.

    Uses the left-continuous convention ``entry < t <= exit``; a subject is in
    the risk set at its own event time.
    """
    if t < 0:
        raise ValueError("time must be nonnegative")
    mask = (dataset._entry < t) & (t <= dataset._exit) & dataset._group_mask(group)
    return int(np.count_nonzero(mask))


def counting_path(
    dataset: EventDataset, cause: int, group: int | None = None
) -> StepPath:
    """Aggregated counting process ``N_t`` for one event cause.

    Tied event times become a single jump of integer size.  Events after the
    dataset horizon are not counted.
    """
    if cause < 1:
        raise ValueError("cause must be a positive event code")
    mask = (
        (dataset._code == cause)
        & (dataset._exit <= dataset.horizon)
        & dataset._group_mask(group)
    )
    times, counts = np.unique(dataset._exit[mask], return_counts=True)
    return StepPath(
        times=times,
        increments=counts.astype(float).reshape(-1, 1),
        origin_value=np.zeros(1),
        horizon=dataset.horizon,
    )


_REQUIRED = ("id", "entry", "exit", "event")


def _default_schema(header: list[str]) -> dict:
    """Column mapping inferred from a header: id/entry/exit/event, optional
    group, covariates x1..xp in numeric-suffix order."""
    schema = {name: name for name in _REQUIRED}
    if "group" in header:
        schema["group"] = "group"
    covs = []
    for col in header:
        if len(col) > 1 and col[0] == "x" and col[1:].isdigit():
            covs.append((int(col[1:]), col))
    schema["covariates"] = [col for _, col in sorted(covs)]
    return schema


def parse_dataset(source, schema: dict | None = None, horizon: float | None = None):
    """Read an :class:`EventDataset` from delimited text.

    The whole source is read into memory, then parsed as a file opened with
    ``newline=""`` would be by :mod:`csv`.

    Parameters
    ----------
    source : path-like or readable text stream
    schema : dict, optional
        Column mapping with keys ``id, entry, exit, event`` and optionally
        ``group`` and ``covariates`` (list of column names).  By default the
        header names above are used and covariates are auto-detected as
        ``x1..xp``.
    horizon : float, optional
        Observation-window end; defaults to the largest exit time.

    Raises
    ------
    DataError
        Malformed rows (with their line number), missing columns, or records
        with ``entry >= exit`` (listing offending subject ids).
    """
    if hasattr(source, "read"):
        text = source.read()
    else:
        with open(source, newline="") as fh:
            text = fh.read()
    return _parse_text(text, schema, horizon)


#: Characters that keep a text off the NumPy reader: NUL, which its ``U``
#: dtype drops from the end of an id, and the ASCII separators
#: ``\x1c-\x1f``, which it strips from numbers as whitespace but ``float``
#: and ``int`` reject.
_NOT_BULK = "\x00\x1c\x1d\x1e\x1f"

#: One line with its ending (``\r\n``, ``\r`` or ``\n``), or a last line
#: without one.
_LINE = re.compile(r"[^\r\n]*(?:\r\n|\r|\n)|[^\r\n]+")


def _parse_text(text: str, schema, horizon, bulk: bool = True):
    """:func:`parse_dataset` on the source text.

    Rows are read by ``np.loadtxt`` when the text allows it (see
    :func:`_read_bulk`) and otherwise by the per-row :mod:`csv` loop
    :func:`_read_rows`, the reference, which alone raises the
    ``line N: malformed row`` errors.  ``bulk=False`` forces the loop.
    """
    # Lines split as a file opened with newline="" splits them; a StringIO
    # would copy the text at four bytes a character.
    reader = csv.reader(m.group() for m in _LINE.finditer(text))
    try:
        header = next(reader)
    except StopIteration:
        raise DataError("empty input: no header row") from None
    header = [h.strip() for h in header]
    if schema is None:
        schema = _default_schema(header)
    missing = [c for c in _REQUIRED if schema.get(c) not in header]
    if missing:
        raise DataError(f"missing required column(s): {', '.join(missing)}")
    cols = [header.index(schema[name]) for name in _REQUIRED]
    group_col = None
    if schema.get("group") is not None and schema["group"] in header:
        group_col = header.index(schema["group"])
    cov_cols = [header.index(c) for c in schema.get("covariates", [])]

    parsed = None
    # The bulk reader starts at the second physical line, so a header that
    # spans lines (a quoted line break) goes to the loop, as does any text
    # that is not plain ASCII: NumPy's number parsers disagree with Python's
    # on non-ASCII characters.
    if (
        bulk
        and reader.line_num == 1
        and text.isascii()
        and not any(c in text for c in _NOT_BULK)
    ):
        parsed = _read_bulk(text, _LINE.match(text).end(), cols, group_col, cov_cols)
    if parsed is None:
        parsed = _read_rows(reader, cols, group_col, cov_cols)
    subject, subject_ids, entry, exit_, code, group, covariates = parsed

    if horizon is None:
        horizon = _largest_exit(exit_)
    return EventDataset.from_columns(
        subject,
        entry,
        exit_,
        code,
        horizon,
        group=group,
        covariates=covariates,
        subject_ids=subject_ids,
    )


def _largest_exit(exit_: np.ndarray) -> float:
    """``max(exit_.tolist(), default=1.0)``: a NaN wins only in first place."""
    if not exit_.size:
        return 1.0
    if np.isnan(exit_[0]):
        return float(exit_[0])
    return float(np.nanmax(exit_))


def _read_bulk(text: str, start: int, cols, group_col, cov_cols):
    """Rows of an ASCII text from ``text[start]`` on, by two ``np.loadtxt``
    passes (numbers, then ids).

    NumPy reads the text's bytes: a ``StringIO`` would hold the text again at
    four bytes a character.

    Returns None when NumPy rejects the text or warns about it (a short,
    blank or ``,,,`` row, a cell it cannot convert, no rows at all): the
    row loop then reads it and raises the reference error, if any.
    """
    names = ["entry", "exit", "event"]
    formats = ["f8", "f8", "i8"]
    usecols = cols[1:]
    if group_col is not None:
        names.append("group")
        formats.append("i8")
        usecols.append(group_col)
    names += [f"x{j}" for j in range(len(cov_cols))]
    formats += ["f8"] * len(cov_cols)
    usecols += cov_cols
    data = text.encode("ascii")

    def load(dtype, columns):
        body = io.BytesIO(data)
        body.seek(start)
        return np.loadtxt(
            body,
            dtype=dtype,
            usecols=columns,
            delimiter=",",
            comments=None,
            quotechar='"',
            ndmin=1,
            encoding="ascii",
        )

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        # Unsized strings are read in blocks of rows, and a blank line makes
        # NumPy note that it does not count towards the block.
        warnings.filterwarnings("ignore", r"Input line \d+ contained no data")
        try:
            numbers = load({"names": names, "formats": formats}, usecols)
            ids = load(str, cols[0])
        except (ValueError, Warning):
            return None
    del data  # freed before the id sort, where the parse peaks in memory
    # Subjects numbered in order of first appearance.
    ids = np.char.strip(ids)
    labels, first, inverse = np.unique(ids, return_index=True, return_inverse=True)
    order = np.argsort(first)
    rank = np.empty_like(order)
    rank[order] = np.arange(order.size)
    covariates = np.empty((numbers.size, len(cov_cols)))
    for j in range(len(cov_cols)):
        covariates[:, j] = numbers[f"x{j}"]
    return (
        rank[inverse],
        tuple(labels[order].tolist()),
        numbers["entry"].copy(),
        numbers["exit"].copy(),
        numbers["event"].copy(),
        numbers["group"].copy() if group_col is not None else None,
        covariates,
    )


def _read_rows(reader, cols, group_col, cov_cols):
    """Rows after the header, one :mod:`csv` row at a time (the reference)."""
    id_col, entry_col, exit_col, event_col = cols
    ids, entry, exit_, code, group, covariates = [], [], [], [], [], []
    for lineno, row in enumerate(reader, start=2):
        if not row or all(not cell.strip() for cell in row):
            continue
        try:
            sid = row[id_col].strip()
            t0 = float(row[entry_col])
            t1 = float(row[exit_col])
            event = int(row[event_col])
            g = int(row[group_col]) if group_col is not None else _NO_GROUP
            covs = [float(row[c]) for c in cov_cols]
        except (ValueError, IndexError) as exc:
            raise DataError(f"line {lineno}: malformed row ({exc})") from None
        ids.append(sid)
        entry.append(t0)
        exit_.append(t1)
        code.append(event)
        group.append(g)
        covariates.extend(covs)
    index: dict[str, int] = {}
    subject = [index.setdefault(sid, len(index)) for sid in ids]
    return (
        subject,
        tuple(index),
        np.array(entry, dtype=float),
        np.array(exit_, dtype=float),
        code,
        group,
        np.array(covariates, dtype=float).reshape(len(ids), len(cov_cols)),
    )


def write_dataset(dataset: EventDataset, path) -> None:
    """Write a dataset as CSV with columns id, entry, exit, event[, group][, x1..]."""
    has_group = bool((dataset._group != _NO_GROUP).any())
    p = dataset.covariate_dim
    header = ["id", "entry", "exit", "event"]
    if has_group:
        header.append("group")
    header += [f"x{j + 1}" for j in range(p)]
    ids = dataset.subject_ids
    columns = [
        [ids[s] for s in dataset._subject.tolist()],
        map(repr, dataset._entry.tolist()),
        map(repr, dataset._exit.tolist()),
        map(str, dataset._code.tolist()),
    ]
    if has_group:
        columns.append(
            ["" if g == _NO_GROUP else str(g) for g in dataset._group.tolist()]
        )
    columns += [map(repr, dataset._covariates[:, j].tolist()) for j in range(p)]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(zip(*columns))
