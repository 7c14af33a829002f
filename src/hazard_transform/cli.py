"""Command-line interface wiring datasets, systems, and studies.

Four subcommands::

    hazard-transform estimate --system survival --data d.csv --level 0.95
    hazard-transform simulate --system survival --hazard constant:1 --n 1000 --seed 7
    hazard-transform converge --system survival --hazard constant:1 \
        --n-list 500,1000,2000 --k 100 --seed 7 [--jobs 4]
    hazard-transform coverage --system survival --hazard constant:1 \
        --n 500 --k 500 --level 0.95 --seed 7 [--jobs 4]

Settings come from inline flags, from a JSON file via ``--config``, or both
(flags win).  Hazard flags read ``[role=]form:params`` with forms
``constant:RATE``, ``linear:INTERCEPT,SLOPE`` and ``table:t1:r1,t2:r2,...``;
the role may be omitted when the system has a single stochastic driver.

All randomness flows from ``--seed`` (mandatory for the random commands);
study replications use substreams derived from ``(seed, replication)``, so
outputs are byte-identical for any ``--jobs`` value.  Every failure prints a
single JSON error object on stderr and exits nonzero.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import TYPE_CHECKING

from .errors import ConfigError, HazardTransformError, _number, _numbers
from .events import parse_dataset, write_dataset
from .hazards import _check_grid_step, estimate_driver
from .paths import restrict_path
from .plugin import _write_fit, confidence_band, fit_plugin
from .systems import SystemKind, driver_slots, make_system

# The study commands import ``simlab`` where they run, so that ``estimate``
# does not load it.
if TYPE_CHECKING:
    from .simlab import Scenario

__all__ = ["main"]


def _emit_error(exc: BaseException, code: int = 1):
    payload = {"error": {"type": type(exc).__name__, "message": str(exc)}}
    print(json.dumps(payload), file=sys.stderr)
    raise SystemExit(code)


class _Parser(argparse.ArgumentParser):
    """ArgumentParser whose usage errors are emitted as JSON objects."""

    def error(self, message):
        _emit_error(ConfigError(message), code=2)


def _load_config(path) -> dict:
    if path is None:
        return {}
    p = Path(path)
    if not p.exists():
        raise ConfigError(f"config file not found: {path}")
    try:
        cfg = json.loads(p.read_text())
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}")
    if not isinstance(cfg, dict):
        raise ConfigError("config must be a JSON object")
    return cfg


def _check_keys(cfg: dict, allowed: set, command: str):
    extra = sorted(set(cfg) - allowed)
    if extra:
        raise ConfigError(f"unknown config key(s) for {command}: {', '.join(extra)}")


def _require(cfg: dict, key: str, command: str):
    if key not in cfg:
        raise ConfigError(f"{command} needs a {key!r} setting (flag or config)")
    return cfg[key]


def _setting(cfg: dict, key: str, flag=None, default=None, integer=False, many=False):
    """``flag`` if it was given, else config ``key`` unless it is unset or
    null, else ``default``.  A config value must be a number: an integer
    when ``integer``, a list of them when ``many``."""
    if flag is not None:
        return flag
    if cfg.get(key) is None:
        return default
    return (_numbers if many else _number)(cfg[key], repr(key), integer)


def _number_list(text: str, what: str, integer: bool = False) -> list:
    try:
        return [(int if integer else float)(v) for v in text.split(",") if v.strip()]
    except ValueError:
        kind = "integers" if integer else "numbers"
        raise ConfigError(f"{what} must be a comma-separated list of {kind}") from None


def _parse_hazard_flag(text: str, horizon: float):
    """Parse ``[role=]form:params`` into ``(role or None, config dict)``:
    ``params`` are the form's keys but the horizon, ``table``'s as pairs."""
    from .simlab import _FORMS

    role, rest = None, text
    if "=" in text.split(":", 1)[0]:
        role, rest = text.split("=", 1)
        role = role.strip()
    if ":" not in rest:
        raise ConfigError(
            f"hazard flag must look like [role=]form:params, got {text!r}"
        )
    form, params = rest.split(":", 1)
    if form not in _FORMS:
        raise ConfigError(f"unknown hazard form: {form!r}")
    keys = _FORMS[form]._keys
    try:
        if form == "table":
            pairs = [p.split(":") for p in params.split(",")]
            values = [[float(t) for t, _ in pairs], [float(r) for _, r in pairs]]
        else:
            values = [float(v) for v in params.split(",")]
    except ValueError:
        values = []
    if len(values) != len(keys) - 1:
        raise ConfigError(f"cannot parse hazard parameters in {text!r}")
    return role, {"form": form, **dict(zip(keys, [*values, horizon]))}


def _system_cfg(cfg: dict, args) -> dict:
    """Merge the system selection from config file and flags."""
    sys_cfg = cfg.get("system") or {}
    if isinstance(sys_cfg, str):
        sys_cfg = {"name": sys_cfg}
    if not isinstance(sys_cfg, dict):
        raise ConfigError("'system' must be a name or a mapping")
    sys_cfg = dict(sys_cfg)
    if getattr(args, "system", None):
        sys_cfg["name"] = args.system
    for key in ("n_causes", "prevalence"):
        if getattr(args, key, None) is not None:
            sys_cfg[key] = getattr(args, key)
    if not sys_cfg.get("name"):
        sys_cfg["name"] = "survival"
    return sys_cfg


def _flag_horizon(args) -> float:
    """Horizon of the hazards built from flags: ``--horizon``, default 1."""
    return args.horizon if getattr(args, "horizon", None) is not None else 1.0


def _hazards_cfg(cfg: dict, args, kind: SystemKind) -> dict:
    """Merge hazard configs from file and ``--hazard`` flags, filling roles."""
    if not isinstance(cfg.get("hazards", {}), dict):
        raise ConfigError("'hazards' must map driver roles to hazard configs")
    hazards = dict(cfg.get("hazards") or {})
    flags = getattr(args, "hazard", None) or []
    stochastic_roles = [s.role for s in driver_slots(kind) if not s.deterministic]
    for text in flags:
        role, hcfg = _parse_hazard_flag(text, _flag_horizon(args))
        if role is None:
            if len(stochastic_roles) != 1:
                raise ConfigError(
                    "hazard flags must name their role for this system "
                    f"(roles: {', '.join(stochastic_roles)})"
                )
            role = stochastic_roles[0]
        hazards[role] = hcfg
    return hazards


def _censor_cfg(cfg: dict, args):
    if getattr(args, "censor", None):
        _, hcfg = _parse_hazard_flag(args.censor, _flag_horizon(args))
        return hcfg
    return cfg.get("censor")


def _out_dir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _level(cfg, args) -> float:
    level = float(_setting(cfg, "level", args.level, 0.95))
    if not 0.0 < level < 1.0:
        raise ConfigError("level must be strictly between 0 and 1")
    return level


def _scenario(cfg: dict, args, command: str, n: int | None = None) -> Scenario:
    from .simlab import Scenario, hazard_from_config

    sys_cfg = _system_cfg(cfg, args)
    kind = SystemKind.from_config(sys_cfg)
    hazards_cfg = _hazards_cfg(cfg, args, kind)
    if not hazards_cfg:
        raise ConfigError(f"{command} needs hazards (use --hazard or the config file)")
    hazards = {role: hazard_from_config(h) for role, h in hazards_cfg.items()}
    censor_cfg = _censor_cfg(cfg, args)
    censor = hazard_from_config(censor_cfg) if censor_cfg else None
    if n is None:
        n = getattr(args, "n", None)
    if n is None:
        n = _number(_require(cfg, "n", command), "'n'", integer=True)
    k = _setting(cfg, "k_replications", getattr(args, "k", None), 1, integer=True)
    return Scenario(
        system=kind, hazards=hazards, n=n, seed=args.seed,
        k_replications=k, censor=censor,
    )


def cmd_estimate(args):
    cfg = _load_config(args.config)
    _check_keys(
        cfg,
        {"system", "data", "level", "driver", "x0", "v0", "horizon", "start"},
        "estimate",
    )
    sys_cfg = _system_cfg(cfg, args)
    if args.x0:
        x0 = _number_list(args.x0, "--x0")
    else:
        x0 = _setting(cfg, "x0", many=True)
    if sys_cfg.get("name") == "screening" and "initial_value" not in sys_cfg and x0:
        sys_cfg["initial_value"] = x0
    kind = SystemKind.from_config(sys_cfg)

    data = args.data if args.data else _require(cfg, "data", "estimate")
    if not isinstance(data, str):
        raise ConfigError(f"'data' must be a path, got {data!r}")
    data_path = Path(data)
    if not data_path.exists():
        raise ConfigError(f"data file not found: {data_path}")
    level = _level(cfg, args)
    driver_cfg = cfg.get("driver") or {}
    if not isinstance(driver_cfg, dict):
        raise ConfigError("'driver' must be a mapping")
    _check_keys(driver_cfg, {"grid_step", "groups", "causes"}, "estimate driver")
    grid_step = _setting(driver_cfg, "grid_step", args.grid_step)

    def int_map(value, what):
        if value is None:
            return None
        if not isinstance(value, dict):
            raise ConfigError(f"{what} must be a mapping of driver roles to integers")
        return {
            role: _number(v, f"{what} value", integer=True) for role, v in value.items()
        }

    dataset = parse_dataset(data_path, horizon=_setting(cfg, "horizon", args.horizon))
    _check_grid_step(grid_step, dataset.horizon)
    driver, meta = estimate_driver(
        dataset,
        kind,
        grid_step=grid_step,
        group_map=int_map(driver_cfg.get("groups"), "driver groups"),
        cause_map=int_map(driver_cfg.get("causes"), "driver causes"),
    )
    start = _setting(cfg, "start", args.start, default=0.0)
    if not 0.0 <= start < driver.horizon:
        raise ConfigError(
            f"start must lie in [0, horizon) = [0, {driver.horizon!r}), got {start!r}"
        )
    if start > 0.0:
        driver = restrict_path(driver, float(start))
    system = make_system(kind)
    v0 = cfg.get("v0")
    if v0 is not None:
        if not isinstance(v0, list):
            raise ConfigError(f"'v0' must be a list of rows, got {v0!r}")
        v0 = [_numbers(row, "each row of 'v0'") for row in v0]
    fit = fit_plugin(system, driver, meta, x0_override=x0, v0=v0)
    band = confidence_band(fit, level)

    out = _out_dir(args)
    _write_fit(fit, band, out / "fit", band_path=out / "band.csv")
    print(f"wrote {out / 'fit.csv'}, {out / 'fit.json'}, {out / 'band.csv'}")


def cmd_simulate(args):
    from .simlab import simulate_dataset

    cfg = _load_config(args.config)
    _check_keys(cfg, {"system", "hazards", "censor", "n"}, "simulate")
    sc = _scenario(cfg, args, "simulate")
    dataset = simulate_dataset(sc)
    out = _out_dir(args)
    write_dataset(dataset, out / "dataset.csv")
    print(f"wrote {out / 'dataset.csv'}")


def cmd_converge(args):
    from .simlab import l2_convergence, write_study

    cfg = _load_config(args.config)
    _check_keys(
        cfg,
        {
            "system", "hazards", "censor", "n_list", "k_replications", "target",
            "component", "grid_step", "oracle_step", "bootstrap_n", "bootstrap_b",
        },
        "converge",
    )
    if args.n_list:
        n_list = _number_list(args.n_list, "--n-list", integer=True)
    else:
        n_list = _numbers(_require(cfg, "n_list", "converge"), "'n_list'", True)
    if not n_list:
        raise ConfigError("n_list must be a non-empty list of sample sizes")
    sc = _scenario(cfg, args, "converge", n=max(n_list))
    result = l2_convergence(
        sc,
        n_list,
        target=args.target if args.target else cfg.get("target", "estimate"),
        component=_setting(cfg, "component", args.component, integer=True),
        grid_step=_setting(cfg, "grid_step", args.grid_step),
        oracle_step=_setting(cfg, "oracle_step", args.oracle_step),
        bootstrap_n=_setting(cfg, "bootstrap_n", args.bootstrap_n, integer=True),
        bootstrap_b=_setting(cfg, "bootstrap_b", args.bootstrap_b, 500, integer=True),
        n_jobs=args.jobs,
    )
    out = _out_dir(args)
    write_study(result, out / "convergence")
    print(f"wrote {out / 'convergence.csv'}, {out / 'convergence.json'}")


def cmd_coverage(args):
    from .simlab import coverage_study, write_study

    cfg = _load_config(args.config)
    _check_keys(
        cfg,
        {
            "system", "hazards", "censor", "n", "k_replications", "level",
            "t_grid", "component", "grid_step", "oracle_step",
        },
        "coverage",
    )
    sc = _scenario(cfg, args, "coverage")
    if args.t_grid:
        t_grid = _number_list(args.t_grid, "--t-grid")
    else:
        t_grid = _setting(cfg, "t_grid", many=True)
    result = coverage_study(
        sc,
        level=_level(cfg, args),
        t_grid=t_grid,
        component=_setting(cfg, "component", args.component, integer=True),
        grid_step=_setting(cfg, "grid_step", args.grid_step),
        oracle_step=_setting(cfg, "oracle_step", args.oracle_step),
        n_jobs=args.jobs,
    )
    out = _out_dir(args)
    write_study(result, out / "coverage")
    print(f"wrote {out / 'coverage.csv'}, {out / 'coverage.json'}")


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="hazard-transform",
        description="Plugin estimation on hazard-driven systems, with studies.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, seed: bool, jobs: bool, grid_step: bool = True):
        p.add_argument("--config", help="JSON run configuration (flags override it)")
        p.add_argument("--out", default=".", help="output directory")
        p.add_argument("--system",
                       help="system name (default survival; e.g. rmst, led, ler)")
        p.add_argument("--n-causes", type=int, help="competing-cause count")
        p.add_argument("--prevalence", type=float, help="screening prevalence")
        if grid_step:
            p.add_argument("--grid-step", type=float,
                           help="deterministic time-grid step")
        if seed:
            p.add_argument("--seed", type=int, required=True, help="64-bit master seed")
        if jobs:
            p.add_argument("--jobs", type=int, default=1,
                           help="worker processes (default 1)")

    def scenario_flags(p):
        p.add_argument("--hazard", action="append", metavar="[ROLE=]FORM:PARAMS",
                       help="hazard spec; repeat per driver role")
        p.add_argument("--censor", metavar="FORM:PARAMS",
                       help="independent censoring hazard")
        p.add_argument("--horizon", type=float,
                       help="observation horizon for flag-built hazards (default 1)")

    p = sub.add_parser("estimate")
    common(p, seed=False, jobs=False)
    p.add_argument("--data", help="dataset CSV path")
    p.add_argument("--level", type=float, help="confidence level (default 0.95)")
    p.add_argument("--x0", help="comma-separated initial state override")
    p.add_argument("--start", type=float,
                   help="solve on (start, horizon] from the supplied x0")
    p.add_argument("--horizon", type=float, help="observation horizon override")
    p.set_defaults(func=cmd_estimate)

    p = sub.add_parser("simulate")
    common(p, seed=True, jobs=False, grid_step=False)
    scenario_flags(p)
    p.add_argument("--n", type=int, help="sample size")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("converge")
    common(p, seed=True, jobs=True)
    scenario_flags(p)
    p.add_argument("--n-list", help="comma-separated sample sizes")
    p.add_argument("--k", type=int, help="replications per sample size")
    p.add_argument("--target", choices=("estimate", "variance"))
    p.add_argument("--component", type=int, help="state component index")
    p.add_argument("--oracle-step", type=float, help="oracle discretization step")
    p.add_argument("--bootstrap-n", type=int, help="variance-target reference size")
    p.add_argument("--bootstrap-b", type=int, help="variance-target resamples")
    p.set_defaults(func=cmd_converge)

    p = sub.add_parser("coverage")
    common(p, seed=True, jobs=True)
    scenario_flags(p)
    p.add_argument("--n", type=int, help="sample size")
    p.add_argument("--k", type=int, help="replications")
    p.add_argument("--level", type=float, help="confidence level (default 0.95)")
    p.add_argument("--t-grid", help="comma-separated evaluation times")
    p.add_argument("--component", type=int, help="state component index")
    p.add_argument("--oracle-step", type=float, help="oracle discretization step")
    p.set_defaults(func=cmd_coverage)

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        args.func(args)
    except (HazardTransformError, ValueError, OSError) as exc:
        _emit_error(exc)
    return 0


if __name__ == "__main__":
    sys.exit(main())
