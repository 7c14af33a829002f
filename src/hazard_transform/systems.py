"""Catalog of parameter systems: state transforms of cumulative hazards.

Each system describes an initial value problem

    X_t = X_0 + integral_0^t F(X_{s-}) dA_s

driven by a k-dimensional nondecreasing path A (cumulative hazards, possibly
with a leading time component).  ``F`` maps the n-dimensional state to an
``n x k`` integrand matrix; its per-column Jacobians feed the covariance
recursion.  The catalog covers survival, relative survival, restricted mean
survival time, life expectancy difference and ratio, cumulative incidence,
mean frequency of recurrent events, and screening-test accuracy.  Six of them
are linear, ``F(x)[:, j] = G_j x`` with constant ``G_j``, and are given as
data: the tensor of the ``G_j``.

States that appear in denominators carry guard bounds; evaluating or solving
below a guard raises :class:`~hazard_transform.errors.GuardViolation` rather
than clamping.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import ConfigError, GuardViolation, _number, _numbers

__all__ = [
    "SystemKind",
    "ParameterSystem",
    "DriverSlot",
    "make_system",
    "driver_slots",
    "eval_integrand",
    "eval_gradient",
    "GUARD_EPS",
]

#: Lower bound for guarded state components (denominators).
GUARD_EPS = 1e-8

@dataclass(frozen=True)
class SystemKind:
    """Declarative, picklable selection of a parameter system.

    ``name`` picks the transform; ``n_causes`` parametrizes
    ``cumulative_incidence``; ``prevalence`` and ``initial_value`` configure
    ``screening`` (the screening baseline is user-supplied — a zero baseline
    would sit on the guard).
    """

    name: str
    n_causes: int = 1
    prevalence: float | None = None
    initial_value: tuple[float, ...] | None = None

    def __post_init__(self):
        if not isinstance(self.name, str) or self.name not in _CATALOG:
            raise ConfigError(f"unknown system name: {self.name!r}")
        if self.initial_value is not None:
            object.__setattr__(
                self, "initial_value", tuple(float(v) for v in self.initial_value)
            )

    @property
    def headline_index(self) -> int:
        """Index of the state component the system is named after."""
        return {"relative_survival": 2, "cumulative_incidence": 1, "screening": 2}.get(
            self.name, 0
        )

    @classmethod
    def from_config(cls, cfg: dict) -> "SystemKind":
        if not isinstance(cfg, dict) or "name" not in cfg:
            raise ConfigError("system config must be a mapping with a 'name' key")
        known = {"name", "n_causes", "prevalence", "initial_value"}
        extra = set(cfg) - known
        if extra:
            raise ConfigError(f"unknown system config key(s): {sorted(extra)}")
        kwargs = dict(cfg)
        if "n_causes" in cfg:
            _number(cfg["n_causes"], "n_causes", integer=True)
        if cfg.get("prevalence") is not None:
            _number(cfg["prevalence"], "prevalence")
        if cfg.get("initial_value") is not None:
            kwargs["initial_value"] = _numbers(cfg["initial_value"], "initial_value")
        return cls(**kwargs)


@dataclass(frozen=True)
class ParameterSystem:
    """Concrete system: integrand, per-driver Jacobians, guards, labels.

    ``integrand`` maps states of shape ``(..., n)`` (one state or a stack of
    them) to integrands of shape ``(..., n, k)``, and ``gradients[j]`` maps them
    to the Jacobians of integrand column ``j``, an array that broadcasts to
    ``(..., n, n)``: a constant Jacobian may be returned as one ``(n, n)``
    matrix.  The covariance solver evaluates both on a block of states at
    once, and the state kernel steps a stack of bootstrap resamples.

    ``jacobians`` is set, with shape ``(k, n, n)``, exactly when the system is
    linear with constant Jacobians (``F(x)[:, j] = jacobians[j] @ x``); the
    plugin solver then solves the state by the product-integral scan.
    """

    name: str
    state_labels: tuple[str, ...]
    driver_labels: tuple[str, ...]
    initial_value: np.ndarray
    integrand: Callable[[np.ndarray], np.ndarray]
    gradients: tuple[Callable[[np.ndarray], np.ndarray], ...]
    guards: tuple[tuple[int, float], ...] = ()
    jacobians: np.ndarray | None = None

    @property
    def state_dim(self) -> int:
        return len(self.state_labels)

    @property
    def driver_dim(self) -> int:
        return len(self.driver_labels)

    def check_guards(self, x: np.ndarray, time: float | None = None) -> None:
        for idx, lower in self.guards:
            if x[idx] <= lower:
                raise GuardViolation(self.state_labels[idx], float(x[idx]), time)

    def check_guard_path(self, times: np.ndarray, values: np.ndarray) -> None:
        """:meth:`check_guards` on every row of ``values`` (the states at
        ``times``) in one pass; raises for the earliest failing row."""
        if not self.guards:
            return
        idx, lower = zip(*self.guards)
        bad = np.flatnonzero((values[:, list(idx)] <= np.array(lower)).any(axis=1))
        if bad.size:
            self.check_guards(values[bad[0]], time=float(times[bad[0]]))


@dataclass(frozen=True)
class DriverSlot:
    """One driver component an estimator must supply.

    ``role`` names the component for hazard specs and configs; ``cause`` and
    ``group`` are the default event code / group label consumed when building
    the driver from data (both overridable).  ``deterministic`` marks the
    Lebesgue time component.
    """

    role: str
    deterministic: bool = False
    cause: int | None = None
    group: int | None = None


def _components(x: np.ndarray) -> np.ndarray:
    """The components of states ``x`` of shape ``(..., n)``, each of shape
    ``(...)`` (NumPy scalars for one state).  A transpose: ``np.moveaxis``
    alone costs more than evaluating ``ler``'s integrand at one state."""
    return x.transpose(-1, *range(x.ndim - 1))


def _linear(
    name: str,
    state_labels: tuple[str, ...],
    driver_labels: tuple[str, ...],
    initial_value,
    *columns: dict[tuple[int, int], float],
) -> ParameterSystem:
    """Linear system ``F(x)[:, j] = G_j x`` from the nonzero entries of each G_j.

    The Jacobians are constant, so the integrand and the per-column gradients
    are read off the tensor and the plugin solver may use the product-integral
    scan instead of the per-jump loop.
    """
    n, k = len(state_labels), len(columns)
    jacobians = np.zeros((k, n, n))
    for j, entries in enumerate(columns):
        for (a, b), value in entries.items():
            jacobians[j, a, b] = value
    jacobians.setflags(write=False)
    # F(x)[..., i, j] = sum_l G_j[i, l] x[..., l]: one product with the tensor
    # laid out as (l, (i, j)).
    by_state = jacobians.transpose(2, 1, 0).reshape(n, n * k)
    return ParameterSystem(
        name=name,
        state_labels=state_labels,
        driver_labels=driver_labels,
        initial_value=np.asarray(initial_value, dtype=float),
        integrand=lambda x: (x @ by_state).reshape(*x.shape[:-1], n, k),
        gradients=tuple((lambda x, g=g: g) for g in jacobians),
        jacobians=jacobians,
    )


def _survival(kind: SystemKind) -> ParameterSystem:
    return _linear("survival", ("survival",), ("hazard",), [1.0], {(0, 0): -1.0})


def _relative_survival(kind: SystemKind) -> ParameterSystem:
    # state (S1, S0, RS); drivers (A1, A0)
    return _linear(
        "relative_survival",
        ("survival_exposed", "survival_reference", "relative_survival"),
        ("hazard_exposed", "hazard_reference"),
        [1.0, 1.0, 1.0],
        {(0, 0): -1.0, (2, 2): -1.0},
        {(1, 1): -1.0, (2, 2): 1.0},
    )


def _rmst(kind: SystemKind) -> ParameterSystem:
    # state (R, S); drivers (time, A)
    return _linear(
        "rmst",
        ("rmst", "survival"),
        ("time", "hazard"),
        [0.0, 1.0],
        {(0, 1): 1.0},
        {(1, 1): -1.0},
    )


def _led(kind: SystemKind) -> ParameterSystem:
    # state (LED, S1, S2); drivers (time, A1, A2)
    return _linear(
        "led",
        ("led", "survival_1", "survival_2"),
        ("time", "hazard_1", "hazard_2"),
        [0.0, 1.0, 1.0],
        {(0, 1): 1.0, (0, 2): -1.0},
        {(1, 1): -1.0},
        {(2, 2): -1.0},
    )


def _ler(kind: SystemKind) -> ParameterSystem:
    # state (LER, S1, S2, R1, R2); drivers (time, A1, A2).  The ratio row
    # divides by R2, hence the guard; the natural baseline R1 = R2 = 0 sits on
    # it, so solving needs a start strictly inside the domain (x0 override).
    # Powers are written as products: ``**`` rounds differently on NumPy
    # scalars and arrays, so a stack of states would not evaluate like its rows.
    g2 = np.diag([0.0, -1.0, 0.0, 0.0, 0.0])
    g3 = np.diag([0.0, 0.0, -1.0, 0.0, 0.0])

    def integrand(x):
        _, s1, s2, r1, r2 = _components(x)
        f = np.zeros(x.shape[:-1] + (5, 3))
        f[..., 0, 0] = (s1 * r2 - s2 * r1) / (r2 * r2)
        f[..., 1, 1] = -s1
        f[..., 2, 2] = -s2
        f[..., 3, 0] = s1
        f[..., 4, 0] = s2
        return f

    def grad_time(x):
        _, s1, s2, r1, r2 = _components(x)
        g = np.zeros(x.shape[:-1] + (5, 5))
        g[..., 0, 1] = 1.0 / r2
        g[..., 0, 2] = -r1 / (r2 * r2)
        g[..., 0, 3] = -s2 / (r2 * r2)
        g[..., 0, 4] = (2.0 * s2 * r1 - s1 * r2) / (r2 * r2 * r2)
        g[..., 3, 1] = 1.0
        g[..., 4, 2] = 1.0
        return g

    return ParameterSystem(
        name="ler",
        state_labels=("ler", "survival_1", "survival_2", "rmst_1", "rmst_2"),
        driver_labels=("time", "hazard_1", "hazard_2"),
        initial_value=np.array([1.0, 1.0, 1.0, 0.0, 0.0]),
        integrand=integrand,
        gradients=(grad_time, lambda x: g2, lambda x: g3),
        guards=((4, GUARD_EPS),),
    )


def _cumulative_incidence(kind: SystemKind) -> ParameterSystem:
    # state (S, C1..Cm); drivers (A1..Am)
    m = kind.n_causes
    if m < 1:
        raise ConfigError("cumulative_incidence needs n_causes >= 1")
    return _linear(
        "cumulative_incidence",
        ("survival",) + tuple(f"incidence_{j + 1}" for j in range(m)),
        tuple(f"hazard_{j + 1}" for j in range(m)),
        [1.0] + [0.0] * m,
        *({(0, 0): -1.0, (j + 1, 0): 1.0} for j in range(m)),
    )


def _mean_frequency(kind: SystemKind) -> ParameterSystem:
    # state (K, S); drivers (A_recurrent, A_terminal)
    return _linear(
        "mean_frequency",
        ("mean_frequency", "survival"),
        ("hazard_recurrent", "hazard_terminal"),
        [0.0, 1.0],
        {(0, 1): 1.0},
        {(1, 1): -1.0},
    )


def _screening(kind: SystemKind) -> ParameterSystem:
    # state (U, V, W, X) = cumulative (PPV, NPV, sensitivity, specificity);
    # drivers (A1, A0) = hazards among test-positives / test-negatives.
    prevalence, initial_value = kind.prevalence, kind.initial_value
    if prevalence is None or not 0.0 < prevalence < 1.0:
        raise ConfigError("screening needs a prevalence strictly between 0 and 1")
    if initial_value is None:
        raise ConfigError(
            "screening needs a user-supplied initial_value (U0, V0, W0, X0)"
        )
    x0 = np.asarray(initial_value, dtype=float)
    if x0.shape != (4,):
        raise ConfigError("screening initial_value must have four components")
    gamma = prevalence / (1.0 - prevalence)
    # Powers as products, as in _ler.

    def integrand(x):
        u, v, w, xx = _components(x)
        f = np.zeros(x.shape[:-1] + (4, 2))
        f[..., 0, 0] = 1.0 - u
        f[..., 1, 1] = -v
        f[..., 2, 0] = w * w * (1.0 - v) * (1.0 - u) / (gamma * (u * u))
        f[..., 2, 1] = -(w * w) * v * u / (gamma * (u * u))
        f[..., 3, 0] = gamma * (xx * xx) * (1.0 - u) / v
        f[..., 3, 1] = -gamma * (xx * xx) * (1.0 - u) / v
        return f

    def grad_1(x):
        u, v, w, xx = _components(x)
        g = np.zeros(x.shape[:-1] + (4, 4))
        g[..., 0, 0] = -1.0
        g[..., 2, 0] = w * w * (1.0 - v) * (u - 2.0) / (gamma * (u * u * u))
        g[..., 2, 1] = w * w * (u - 1.0) / (gamma * (u * u))
        g[..., 2, 2] = 2.0 * w * (1.0 - u) * (1.0 - v) / (gamma * (u * u))
        g[..., 3, 0] = -gamma * (xx * xx) / v
        g[..., 3, 1] = -gamma * (xx * xx) * (1.0 - u) / (v * v)
        g[..., 3, 3] = 2.0 * gamma * xx * (1.0 - u) / v
        return g

    def grad_0(x):
        u, v, w, xx = _components(x)
        g = np.zeros(x.shape[:-1] + (4, 4))
        g[..., 1, 1] = -1.0
        g[..., 2, 0] = w * w * v / (gamma * (u * u))
        g[..., 2, 1] = -(w * w) / (gamma * u)
        g[..., 2, 2] = -2.0 * w * v / (gamma * u)
        g[..., 3, 0] = gamma * (xx * xx) / v
        g[..., 3, 1] = gamma * (xx * xx) * (1.0 - u) / (v * v)
        g[..., 3, 3] = -2.0 * gamma * xx * (1.0 - u) / v
        return g

    system = ParameterSystem(
        name="screening",
        state_labels=("cum_ppv", "cum_npv", "cum_sensitivity", "cum_specificity"),
        driver_labels=("hazard_positive", "hazard_negative"),
        initial_value=x0,
        integrand=integrand,
        gradients=(grad_1, grad_0),
        guards=((0, GUARD_EPS), (1, GUARD_EPS)),
    )
    system.check_guards(x0)
    return system


def _cause_slots(kind: SystemKind) -> tuple[DriverSlot, ...]:
    return tuple(DriverSlot(f"cause{j + 1}", cause=j + 1) for j in range(kind.n_causes))


_TIME = DriverSlot("time", deterministic=True)
_GROUP1 = DriverSlot("group1", cause=1, group=1)
_TWO_GROUPS = (_TIME, _GROUP1, DriverSlot("group2", cause=1, group=2))

#: The catalog: system name -> (builder, driver slots).  Slots are a tuple, or
#: a function of the kind when they depend on its parameters.  Default group
#: labels: relative_survival and screening pair 1 (exposed / test-positive)
#: with 0 (reference / test-negative); led and ler use 1 and 2.
#: mean_frequency reads event code 1 as recurrent, 2 as terminal.
_CATALOG = {
    "survival": (_survival, (DriverSlot("event", cause=1),)),
    "relative_survival": (
        _relative_survival,
        (_GROUP1, DriverSlot("group0", cause=1, group=0)),
    ),
    "rmst": (_rmst, (_TIME, DriverSlot("event", cause=1))),
    "led": (_led, _TWO_GROUPS),
    "ler": (_ler, _TWO_GROUPS),
    "cumulative_incidence": (_cumulative_incidence, _cause_slots),
    "mean_frequency": (
        _mean_frequency,
        (DriverSlot("recurrent", cause=1), DriverSlot("terminal", cause=2)),
    ),
    "screening": (
        _screening,
        (
            DriverSlot("positive", cause=1, group=1),
            DriverSlot("negative", cause=1, group=0),
        ),
    ),
}


def _as_kind(kind: SystemKind | str) -> SystemKind:
    return SystemKind(name=kind) if isinstance(kind, str) else kind


def make_system(kind: SystemKind | str) -> ParameterSystem:
    """Instantiate the :class:`ParameterSystem` described by ``kind``."""
    kind = _as_kind(kind)
    build, _ = _CATALOG[kind.name]
    return build(kind)


def driver_slots(kind: SystemKind | str) -> tuple[DriverSlot, ...]:
    """Driver components the system consumes, in column order (see ``_CATALOG``
    for the default cause and group codes)."""
    kind = _as_kind(kind)
    _, slots = _CATALOG[kind.name]
    return slots(kind) if callable(slots) else slots


def eval_integrand(system: ParameterSystem, x) -> np.ndarray:
    """Evaluate ``F(x)`` after checking shape and guard bounds."""
    x = np.asarray(x, dtype=float)
    if x.shape != (system.state_dim,):
        raise ValueError(
            f"state must have shape ({system.state_dim},), got {x.shape}"
        )
    system.check_guards(x)
    return system.integrand(x)


def eval_gradient(system: ParameterSystem, x, j: int) -> np.ndarray:
    """Jacobian of the j-th integrand column (driver components numbered from 1)."""
    x = np.asarray(x, dtype=float)
    if x.shape != (system.state_dim,):
        raise ValueError(
            f"state must have shape ({system.state_dim},), got {x.shape}"
        )
    if not 1 <= j <= system.driver_dim:
        raise ValueError(f"driver index must be in 1..{system.driver_dim}, got {j}")
    system.check_guards(x)
    return system.gradients[j - 1](x).copy()
