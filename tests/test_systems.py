"""Parameter-system definitions: dimensions, integrands, gradients, guards."""

import re

import numpy as np
import pytest

from hazard_transform import (
    ConfigError,
    GuardViolation,
    SystemKind,
    driver_slots,
    make_system,
)

# Interior state samplers, one per system kind; each stays well inside any
# guard so finite differences are well defined.
SAMPLERS = {
    "survival": lambda rng: rng.uniform(0.2, 0.95, size=1),
    "relative_survival": lambda rng: np.concatenate(
        [rng.uniform(0.2, 0.95, size=2), rng.uniform(0.3, 2.0, size=1)]
    ),
    "rmst": lambda rng: np.array([rng.uniform(0.0, 1.0), rng.uniform(0.2, 0.95)]),
    "led": lambda rng: np.concatenate(
        [rng.uniform(-0.5, 0.5, size=1), rng.uniform(0.2, 0.95, size=2)]
    ),
    "ler": lambda rng: np.concatenate(
        [
            rng.uniform(0.5, 2.0, size=1),
            rng.uniform(0.2, 0.95, size=2),
            rng.uniform(0.2, 1.0, size=2),
        ]
    ),
    "cumulative_incidence": lambda rng: np.concatenate(
        [rng.uniform(0.3, 0.9, size=1), rng.uniform(0.01, 0.2, size=3)]
    ),
    "mean_frequency": lambda rng: np.array(
        [rng.uniform(0.0, 2.0), rng.uniform(0.2, 0.95)]
    ),
    "screening": lambda rng: rng.uniform(0.3, 0.9, size=4),
}


def all_kinds():
    return [
        SystemKind("survival"),
        SystemKind("relative_survival"),
        SystemKind("rmst"),
        SystemKind("led"),
        SystemKind("ler"),
        SystemKind("cumulative_incidence", n_causes=3),
        SystemKind("mean_frequency"),
        SystemKind(
            "screening", prevalence=0.4, initial_value=[0.8, 0.7, 0.6, 0.5]
        ),
    ]


def finite_difference_gradient(system, x, j, h=1e-6):
    """Central finite differences of integrand column j at x."""
    n = system.state_dim
    fd = np.empty((n, n))
    for i in range(n):
        up = x.copy()
        dn = x.copy()
        up[i] += h
        dn[i] -= h
        fd[:, i] = (system.integrand(up)[:, j] - system.integrand(dn)[:, j]) / (2 * h)
    return fd


class TestShapes:
    def test_survival_dimensions_and_start(self):
        system = make_system(SystemKind("survival"))
        assert system.state_dim == 1
        assert system.driver_dim == 1
        np.testing.assert_allclose(system.initial_value, [1.0])

    def test_competing_risks_with_three_causes(self):
        system = make_system(SystemKind("cumulative_incidence", n_causes=3))
        assert system.state_dim == 4
        assert system.driver_dim == 3
        np.testing.assert_allclose(system.initial_value, [1.0, 0.0, 0.0, 0.0])

    def test_restricted_mean_ratio_guards_its_denominator(self):
        system = make_system(SystemKind("ler"))
        assert system.state_dim == 5
        assert system.driver_dim == 3
        assert any(idx == 4 for idx, _ in system.guards)

    def test_all_systems_expose_consistent_shapes(self):
        rng = np.random.default_rng(0)
        for kind in all_kinds():
            system = make_system(kind)
            x = SAMPLERS[kind.name](rng)
            f = system.integrand(x)
            assert f.shape == (system.state_dim, system.driver_dim)
            assert len(system.state_labels) == system.state_dim
            assert len(system.driver_labels) == system.driver_dim
            slots = driver_slots(kind)
            assert len(slots) == system.driver_dim


class TestIntegrandValues:
    def test_survival_integrand_is_negated_state(self):
        system = make_system(SystemKind("survival"))
        np.testing.assert_allclose(system.integrand(np.array([0.9])), [[-0.9]])

    def test_relative_survival_integrand_at_unit_state(self):
        system = make_system(SystemKind("relative_survival"))
        got = system.integrand(np.array([1.0, 1.0, 1.0]))
        np.testing.assert_allclose(got, [[-1.0, 0.0], [0.0, -1.0], [-1.0, 1.0]])

    def test_screening_sensitivity_row_at_symmetric_state(self):
        system = make_system(
            SystemKind("screening", prevalence=0.5, initial_value=[0.5, 0.5, 0.5, 0.5])
        )
        x = np.array([0.5, 0.5, 0.5, 0.5])
        system.check_guards(x)
        got = system.integrand(x)
        np.testing.assert_allclose(got[2], [0.25, -0.25])

    def test_rmst_accumulates_survival_against_time(self):
        system = make_system(SystemKind("rmst"))
        got = system.integrand(np.array([0.3, 0.8]))
        np.testing.assert_allclose(got, [[0.8, 0.0], [0.0, -0.8]])


class TestGradientValues:
    def test_survival_gradient_is_constant_minus_one(self):
        system = make_system(SystemKind("survival"))
        np.testing.assert_allclose(system.gradients[0](np.array([0.37])), [[-1.0]])

    def test_relative_survival_first_driver_gradient(self):
        system = make_system(SystemKind("relative_survival"))
        expect = np.zeros((3, 3))
        expect[0, 0] = -1.0
        expect[2, 2] = -1.0
        got = system.gradients[0](np.array([0.5, 0.6, 0.7]))
        np.testing.assert_allclose(got, expect)

    def test_every_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(42)
        for kind in all_kinds():
            system = make_system(kind)
            for _ in range(5):
                x = SAMPLERS[kind.name](rng)
                for j in range(1, system.driver_dim + 1):
                    fd = finite_difference_gradient(system, x, j - 1)
                    got = system.gradients[j - 1](x)
                    np.testing.assert_allclose(
                        got, fd, rtol=1e-6, atol=1e-6,
                        err_msg=f"{kind.name}, driver {j}",
                    )


class TestGuards:
    def test_ratio_denominator_guard_trips_with_component_name(self):
        system = make_system(SystemKind("ler"))
        with pytest.raises(GuardViolation) as exc_info:
            system.check_guards(np.array([1.0, 1.0, 1.0, 0.0, 0.0]))
        assert "rmst_2" in str(exc_info.value)

    def test_screening_rejects_a_baseline_on_the_guard(self):
        with pytest.raises(GuardViolation):
            make_system(
                SystemKind("screening", prevalence=0.3, initial_value=[0.0, 0.5, 1.0, 1.0])
            )

    def test_guard_violation_reports_value_and_time(self):
        err = GuardViolation("survival", -0.25, 1.5)
        msg = str(err)
        assert "survival" in msg and "-0.25" in msg and "1.5" in msg


class TestKindValidation:
    def test_unknown_name_rejected(self):
        with pytest.raises(ConfigError, match="unknown system"):
            SystemKind("martingale")

    def test_from_config_round_trip(self):
        kind = SystemKind.from_config({"name": "cumulative_incidence", "n_causes": 2})
        assert kind.n_causes == 2
        assert make_system(kind).state_dim == 3

    def test_from_config_rejects_unknown_keys(self):
        with pytest.raises(ConfigError):
            SystemKind.from_config({"name": "survival", "rate": 1.0})

    def test_screening_requires_prevalence_and_baseline(self):
        with pytest.raises(ConfigError):
            make_system(SystemKind("screening", prevalence=None, initial_value=[1, 1, 1, 1]))
        with pytest.raises(ConfigError):
            make_system(SystemKind("screening", prevalence=0.3, initial_value=None))
        with pytest.raises(ConfigError):
            make_system(SystemKind("screening", prevalence=1.5, initial_value=[1, 1, 1, 1]))

    def test_cause_count_must_be_positive(self):
        with pytest.raises(ConfigError, match="n_causes"):
            make_system(SystemKind("cumulative_incidence", n_causes=0))

    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("prevalence", "0.3", "prevalence must be a number, got '0.3'"),
            ("prevalence", True, "prevalence must be a number, got True"),
            ("initial_value", "abcd", "initial_value must be a list, got 'abcd'"),
            (
                "initial_value",
                [0.8, "x", 0.6, 0.5],
                "each of initial_value must be a number, got 'x'",
            ),
        ],
    )
    def test_screening_fields_are_checked_when_the_kind_is_built(
        self, field, value, message
    ):
        # A string prevalence used to pass here and fail in make_system with
        # a TypeError; the constructor and from_config now give one error.
        fields = {"prevalence": 0.3, "initial_value": [0.8, 0.7, 0.6, 0.5], field: value}
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            SystemKind("screening", **fields)
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            SystemKind.from_config({"name": "screening", **fields})

    @pytest.mark.parametrize(
        "x0",
        [[0.8, 0.7, 0.6, 0.5], (0.8, 0.7, 0.6, 0.5), np.array([0.8, 0.7, 0.6, 0.5])],
        ids=["list", "tuple", "array"],
    )
    def test_a_baseline_is_kept_as_a_tuple_of_floats(self, x0):
        kind = SystemKind("screening", prevalence=0.3, initial_value=x0)
        assert kind.initial_value == (0.8, 0.7, 0.6, 0.5)
        assert all(type(v) is float for v in kind.initial_value)

    @pytest.mark.parametrize(
        "name, field, value, reader",
        [
            ("survival", "prevalence", 0.3, "screening"),
            ("survival", "initial_value", [5.0], "screening"),
            ("cumulative_incidence", "prevalence", 0.3, "screening"),
            ("survival", "n_causes", 3, "cumulative_incidence"),
            ("screening", "n_causes", 2, "cumulative_incidence"),
        ],
    )
    def test_a_field_the_system_does_not_read_is_rejected(
        self, name, field, value, reader
    ):
        # Such a kind used to be built and its field dropped: survival
        # started from [1.0] whatever initial_value said, and n_causes=3
        # gave a one-state system.
        fields = {field: value}
        if name == "screening":
            fields.update(prevalence=0.3, initial_value=[0.8, 0.7, 0.6, 0.5])
        message = f"{field} is read only by {reader}, not by {name}"
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            SystemKind(name, **fields)
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            SystemKind.from_config({"name": name, **fields})

    @pytest.mark.parametrize("n_causes", [2.5, True, "2"])
    def test_cause_count_must_be_an_integer(self, n_causes):
        with pytest.raises(ConfigError, match="n_causes must be an integer"):
            SystemKind("cumulative_incidence", n_causes=n_causes)

    def test_headline_component_defaults(self):
        assert SystemKind("survival").headline_index == 0
        assert SystemKind("cumulative_incidence", n_causes=2).headline_index == 1
        assert (
            SystemKind("screening", prevalence=0.3, initial_value=[1, 1, 1, 1]).headline_index
            == 2
        )
