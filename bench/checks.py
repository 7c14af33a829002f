"""Output checks on the files ``hazard-transform estimate`` writes.

Each function returns a list of problems; an empty list means the output
passed.  A problem makes the operation that wrote the output a failed one.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from inputs import CliInput, product_limit

IDENTITY_TOL = 1e-12


def _read_fit_csv(path: Path) -> tuple[list[str], np.ndarray]:
    with open(path) as fh:
        header = fh.readline().strip().split(",")
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    return header, data


def check_fit(inp: CliInput, out_dir: Path) -> list[str]:
    """Checks on ``fit.csv`` that hold for every system, plus the identity
    the input's system must satisfy."""
    try:
        header, data = _read_fit_csv(out_dir / "fit.csv")
        return _check_columns(inp, header, data)
    except (OSError, ValueError) as exc:
        return [f"{inp.name}: unreadable fit.csv ({exc})"]
    except KeyError as exc:
        return [f"{inp.name}: fit.csv lacks column {exc}"]


def _check_columns(inp: CliInput, header: list[str], data: np.ndarray) -> list[str]:
    col = {name: i for i, name in enumerate(header)}
    states = [name for name in header if name.startswith("X_")]
    problems = []
    if data.shape[0] != inp.expected_rows:
        problems.append(
            f"{inp.name}: {data.shape[0]} rows, expected {inp.expected_rows} "
            "(driver jumps + 1)"
        )
        return problems
    for i, name in enumerate(states, start=1):
        x, lo, hi = (data[:, col[c]] for c in (name, f"lo_{i}", f"hi_{i}"))
        if not np.all((lo <= x) & (x <= hi)):
            problems.append(f"{inp.name}: lo <= {name} <= hi fails")
        if not np.all(data[:, col[f"V_{i}{i}"]] >= 0):
            problems.append(f"{inp.name}: negative or missing V_{i}{i}")
    if inp.name == "survival":
        err = np.abs(data[:, col["X_1"]] - product_limit(inp)).max()
        if not err <= IDENTITY_TOL:
            problems.append(f"survival: X_1 differs from product-limit by {err:.3g}")
    if inp.name == "cumulative_incidence":
        err = np.abs(data[:, [col[s] for s in states]].sum(axis=1) - 1.0).max()
        if not err <= IDENTITY_TOL:
            problems.append(f"cumulative_incidence: states sum to 1 +/- {err:.3g}")
    return problems
