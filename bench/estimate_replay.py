"""Traced replay of one ``hazard-transform estimate`` call.

Runs in a fresh interpreter, like the CLI, and makes the CLI's calls in the
CLI's order through the package's public functions, each inside a span:

    python3 bench/estimate_replay.py --spans S.json --data D.csv --out DIR \
        --system survival [--horizon H] [--n-causes K] [--start T --x0 ...]

It writes the same ``fit.csv``, ``fit.json`` and ``band.csv`` as the CLI and
dumps its spans and counts to ``--spans``.  Only the standard library is
imported before the import span, so the span covers the cold import.
"""

import argparse
import csv
import json
from pathlib import Path

from spans import Recorder


def _write_band_csv(band, n_states: int, path: Path) -> None:
    # The band.csv layout the CLI writes: time, then lo_i, hi_i per component.
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            ["time"]
            + [c for i in range(n_states) for c in (f"lo_{i + 1}", f"hi_{i + 1}")]
        )
        for r in range(band.times.size):
            row = [repr(float(band.times[r]))]
            for i in range(n_states):
                row += [repr(float(band.lower[r, i])), repr(float(band.upper[r, i]))]
            writer.writerow(row)


def main() -> None:
    parser = argparse.ArgumentParser()
    for flag in ("--spans", "--data", "--out", "--system"):
        parser.add_argument(flag, required=True)
    parser.add_argument("--horizon", type=float)
    parser.add_argument("--n-causes", type=int, default=1)
    parser.add_argument("--start", type=float)
    parser.add_argument("--x0")
    args = parser.parse_args()

    rec = Recorder()
    tag = args.system
    with rec.span("cli.import", tag):
        import hazard_transform as ht
    import numpy as np

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    kind = ht.SystemKind(name=args.system, n_causes=args.n_causes)
    x0 = [float(v) for v in args.x0.split(",")] if args.x0 else None

    with rec.span("events.parse_dataset", tag):
        dataset = ht.parse_dataset(args.data, horizon=args.horizon)
    with rec.span("hazards.estimate_driver", tag):
        driver, meta = ht.estimate_driver(dataset, kind)
    if args.start is not None:
        with rec.span("paths.restrict_path", tag):
            driver = ht.restrict_path(driver, args.start)
    with rec.span("systems.make_system", tag):
        system = ht.make_system(kind)
    with rec.span("plugin.solve_plugin", tag):
        state = ht.solve_plugin(system, driver, x0_override=x0)
    with rec.span("plugin.solve_variance", tag):
        cov = ht.solve_variance(system, driver, meta, state)
    n = system.state_dim
    fit = ht.PluginFit(
        state_path=state,
        cov_path=cov,
        v0=np.zeros((n, n)),
        scale_n=meta.scale_n,
        state_labels=system.state_labels,
    )
    with rec.span("plugin.confidence_band", tag):
        band = ht.confidence_band(fit, 0.95)
    with rec.span("plugin.write_fit", tag):
        ht.write_fit(fit, band, out / "fit")
    _write_band_csv(band, n, out / "band.csv")

    counts = {
        "rows": len(dataset.records),
        "jumps": driver.n_jumps,
        "write_fit_bytes": sum((out / f).stat().st_size for f in ("fit.csv", "fit.json")),
    }
    Path(args.spans).write_text(json.dumps({"spans": rec.spans, "counts": counts}))


if __name__ == "__main__":
    main()
