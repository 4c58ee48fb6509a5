"""Thermodynamic closures, state validation, and the sampling box."""

import math
import re

import numpy as np
import pytest

from shocklayer import (
    Box,
    DomainError,
    GasModel,
    PowerLaw,
    State,
    internal_energy,
    pressure,
    sound_speed,
)


def test_pressure_ideal_law(gas):
    p, p_rho, p_theta = pressure(gas, 2.0, 3.0)
    assert p == 6.0
    assert p_rho == 3.0
    assert p_theta == 2.0


def test_internal_energy_polytropic(gas):
    e, e_theta = internal_energy(gas, 2.0)
    assert e == pytest.approx(2.0 / 0.4)
    assert e_theta == pytest.approx(2.5)


def test_sound_speed_reference_value(gas):
    # frozen: sqrt(gamma R theta) at the unit state
    c = sound_speed(gas, State(1.0, 0.0, 1.0))
    assert c == pytest.approx(1.1832159566199232, abs=1e-15)


def test_sound_speed_general_formula_matches_ideal(gas, box, rng):
    # c^2 = p_rho + theta p_theta^2 / (rho^2 e_theta) must collapse to gamma R theta
    for st in box.sample(50, rng):
        c = sound_speed(gas, st)
        assert c == pytest.approx(np.sqrt(gas.gamma * gas.R * st.theta), rel=1e-14)


@pytest.mark.parametrize("rho", [1e-162, 1e-300])
def test_sound_speed_where_rho_squared_underflows(rho):
    # rho^2 e_theta is 0 here; the scaled form still gives sqrt(gamma R theta)
    assert sound_speed(GasModel(c_rho=1e-310), State(rho, 0.0, 1.0)) == 1.1832159566199232


TINY_DENSITY_GASES = [GasModel(c_rho=1e-310), GasModel(R=0.287, gamma=5 / 3, c_rho=1e-310)]


@pytest.mark.parametrize("gas_model", TINY_DENSITY_GASES)
def test_sound_speed_where_rho_squared_is_subnormal(gas_model):
    # rho^2 e_theta and theta p_theta^2 lose digits as subnormals long
    # before they reach 0; the scaled form keeps sqrt(gamma R theta)
    for rho in np.logspace(-162, -150, 2000).tolist():
        for theta in (0.37, 1.0, 4.5):
            exact = math.sqrt(gas_model.gamma * gas_model.R * theta)
            c = sound_speed(gas_model, State(rho, 0.0, theta))
            assert abs(c - exact) <= 1e-15 * exact, (rho, theta, c, exact)


@pytest.mark.parametrize("gas_model", TINY_DENSITY_GASES)
def test_sound_speed_keeps_the_unscaled_bits_above_the_underflow(gas_model):
    # every density where rho^2 e_theta is a normal float reads the general
    # expression as before, so no shock speed moves a bit
    for rho in np.logspace(-153, 3, 313).tolist():
        for theta in (0.37, 1.0, 4.5):
            _, p_rho, p_theta = pressure(gas_model, rho, theta)
            _, e_theta = internal_energy(gas_model, theta)
            expected = float(np.sqrt(p_rho + theta * p_theta ** 2 / (rho ** 2 * e_theta)))
            assert sound_speed(gas_model, State(rho, 0.0, theta)) == expected, (rho, theta)


@pytest.mark.parametrize("rho,theta,message", [
    (0.0, 1.0, "pressure needs rho > 0, got 0.0"),
    (-2.0, 1.0, "pressure needs rho > 0, got -2.0"),
    (1.0, 0.0, "pressure needs theta > 0, got 0.0"),
    (np.array([1.0, -3.0, 2.0]), np.ones(3), "pressure needs rho > 0, got -3.0"),
    (np.ones(3), np.array([1.0, 0.0, -1.0]), "pressure needs theta > 0, got -1.0"),
])
def test_pressure_refuses_a_nonpositive_entry(gas, rho, theta, message):
    # the error names the entry, or the lowest entry of an array
    with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
        pressure(gas, rho, theta)


@pytest.mark.parametrize("theta,message", [
    (0.0, "internal energy needs theta > 0, got 0.0"),
    (-1.5, "internal energy needs theta > 0, got -1.5"),
    (np.array([2.0, -0.5, -4.0]), "internal energy needs theta > 0, got -4.0"),
])
def test_internal_energy_refuses_a_nonpositive_entry(gas, theta, message):
    with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
        internal_energy(gas, theta)


def test_power_law_constant_exact():
    law = PowerLaw(2.5, 0.0)
    value, deriv = law(1.7)
    assert value == 2.5
    assert deriv == 0.0


def test_power_law_derivative():
    law = PowerLaw(2.0, 0.5)
    rho = 1.44
    value, deriv = law(rho)
    assert value == pytest.approx(2.0 * np.sqrt(rho), rel=1e-15)
    assert deriv == pytest.approx(1.0 / np.sqrt(rho), rel=1e-14)


def test_power_law_rejects_nonpositive_coeff():
    with pytest.raises(DomainError):
        PowerLaw(0.0, 1.0)


@pytest.mark.parametrize("coeff,exponent,field", [
    (np.inf, 0.0, "coeff"), (np.nan, 0.0, "coeff"), (1.0, np.nan, "exponent"), (1.0, -np.inf, "exponent"),
])
def test_power_law_rejects_non_finite_parameters(coeff, exponent, field):
    with pytest.raises(DomainError, match=f"{field} must be .*finite"):
        PowerLaw(coeff, exponent)


def test_state_validation():
    with pytest.raises(DomainError):
        State(-1.0, 0.0, 1.0)
    with pytest.raises(DomainError):
        State(1.0, 0.0, 0.0)
    with pytest.raises(DomainError):
        State(1.0, np.inf, 1.0)


def test_gas_model_validation():
    with pytest.raises(DomainError):
        GasModel(gamma=1.0)
    with pytest.raises(DomainError):
        GasModel(R=-1.0)
    with pytest.raises(DomainError):
        GasModel(c_rho=0.0)


@pytest.mark.parametrize("field", ["R", "gamma", "c_rho"])
@pytest.mark.parametrize("value", [np.inf, np.nan])
def test_gas_model_rejects_non_finite_parameters(field, value):
    with pytest.raises(DomainError, match=f"{field} must .*finite"):
        GasModel(**{field: value})


def test_box_validate_against_vacuum_bound(gas):
    box = Box(rho=(0.05, 1.0), v=(0.0, 0.0), theta=(1.0, 1.0))
    with pytest.raises(DomainError):
        box.validate(gas)


def test_box_sampling_inside_and_deterministic(box):
    a = box.sample(64, np.random.default_rng(7))
    b = box.sample(64, np.random.default_rng(7))
    assert all(box.contains(s) for s in a)
    assert all(x == y for x, y in zip(a, b))


def test_box_midpoint(box):
    mid = box.midpoint()
    assert (mid.rho, mid.v, mid.theta) == (1.25, 0.0, 1.25)
