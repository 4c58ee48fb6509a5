"""Thermodynamic closures, state validation, and the sampling box."""

import math
import re
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

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
    # rho^2 is 0 here; c does not read rho and is still sqrt(gamma R theta)
    assert sound_speed(GasModel(c_rho=1e-310), State(rho, 0.0, 1.0)) == 1.1832159566199232


TINY_DENSITY_GASES = [GasModel(c_rho=1e-310), GasModel(R=0.287, gamma=5 / 3, c_rho=1e-310)]


@pytest.mark.parametrize("gas_model", TINY_DENSITY_GASES)
def test_sound_speed_where_rho_squared_is_subnormal(gas_model):
    # rho^2 loses digits as a subnormal long before it reaches 0; c does
    # not read rho and keeps sqrt(gamma R theta)
    for rho in np.logspace(-162, -150, 2000).tolist():
        for theta in (0.37, 1.0, 4.5):
            exact = math.sqrt(gas_model.gamma * gas_model.R * theta)
            c = sound_speed(gas_model, State(rho, 0.0, theta))
            assert abs(c - exact) <= 1e-15 * exact, (rho, theta, c, exact)


@pytest.mark.parametrize("gas_model", TINY_DENSITY_GASES)
def test_sound_speed_is_the_closed_form_at_every_density(gas_model):
    # bit for bit sqrt(gamma R theta), whatever the density
    for rho in np.logspace(-153, 3, 313).tolist():
        for theta in (0.37, 1.0, 4.5):
            expected = math.sqrt(gas_model.gamma * gas_model.R * theta)
            assert sound_speed(gas_model, State(rho, 0.0, theta)) == expected, (rho, theta)


@pytest.mark.parametrize("gas_model", [GasModel(), GasModel(R=2.0), GasModel(R=0.287, gamma=5 / 3)])
def test_sound_speed_where_rho_squared_overflows(gas_model):
    # rho^2 (or p_theta^2 = (R rho)^2) is past the float range; c does not read rho and is
    # still sqrt(gamma R theta), at R = 2 and rho = 0.5 * float_info.max too
    for rho in (1.35e154 / max(1.0, gas_model.R), 1e200, 1e300, 0.5 * sys.float_info.max):
        for theta in (0.37, 1.0, 4.5):
            exact = math.sqrt(gas_model.gamma * gas_model.R * theta)
            c = sound_speed(gas_model, State(rho, 0.0, theta))
            assert abs(c - exact) <= 1e-15 * exact, (rho, theta, c, exact)


@pytest.mark.parametrize("rho,theta", [
    # rho^2 is a float but rho^2 e_theta (e_theta = 2.5) is not: the unscaled quotient was finite / inf
    (9e153, 1.0), (1e154, 1.0), (1.3e154, 1.0),
    # theta p_theta^2 overflows, with rho^2 a float
    (1e150, 1e100), (1e100, 1e150),
    # theta p_theta^2 is subnormal while rho^2 e_theta is normal
    (3e-150, 1e-12),
])
def test_sound_speed_where_one_term_is_not_a_normal_float(rho, theta):
    gas_model = GasModel(c_rho=1e-310)
    exact = math.sqrt(gas_model.gamma * gas_model.R * theta)
    c = sound_speed(gas_model, State(rho, 0.0, theta))
    assert abs(c - exact) <= 1e-15 * exact, (rho, theta, c, exact)


def test_sound_speed_that_is_not_a_float_is_a_domain_error():
    # gamma R theta = 1.4e400 is past the float range
    with pytest.raises(DomainError, match=r"^the sound speed is not a finite number at rho=1.0, theta=1e\+200$"):
        sound_speed(GasModel(R=1e200), State(1.0, 0.0, 1e200))


@settings(max_examples=400, deadline=None)
@given(
    log_R=st.floats(-3.0, 200.0),
    gamma=st.floats(1.0, 3.0, exclude_min=True),
    log_rho=st.floats(-300.0, 308.0),
    log_theta=st.floats(-300.0, 300.0),
)
@example(log_R=200.0, gamma=1.4, log_rho=0.0, log_theta=0.0)  # R rho and R^2 overflow, c = 1.18e100 does not
@example(log_R=math.log10(2.0), gamma=1.4, log_rho=308.0, log_theta=0.0)  # p_theta = R rho overflows
@example(log_R=200.0, gamma=1.4, log_rho=0.0, log_theta=200.0)  # gamma R theta overflows
def test_sound_speed_is_sqrt_gamma_R_theta_bit_for_bit(log_R, gamma, log_rho, log_theta):
    # over generated gases and states: the closed form where gamma R theta is a float, else a DomainError
    gas_model = GasModel(R=10.0 ** log_R, gamma=gamma, c_rho=1e-310)
    state = State(10.0 ** log_rho, 0.0, 10.0 ** log_theta)
    c2 = gas_model.gamma * gas_model.R * state.theta
    if math.isfinite(c2):
        assert sound_speed(gas_model, state) == math.sqrt(c2)
    else:
        message = f"the sound speed is not a finite number at rho={state.rho!r}, theta={state.theta!r}"
        with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
            sound_speed(gas_model, state)


def test_sound_speed_keeps_its_bits_wherever_it_gave_a_value():
    # up to the densities where rho^2 e_theta (e_theta = 2.5) overflows, c has the bits the general
    # expression gives at theta = 1
    gas_model = GasModel()
    for rho in np.logspace(3, math.log10(8e153), 200).tolist():
        _, p_rho, p_theta = pressure(gas_model, rho, 1.0)
        _, e_theta = internal_energy(gas_model, 1.0)
        expected = float(np.sqrt(p_rho + p_theta ** 2 / (rho ** 2 * e_theta)))
        assert sound_speed(gas_model, State(rho, 0.0, 1.0)) == expected, rho


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
    assert all(
        box.rho[0] <= s.rho <= box.rho[1] and box.v[0] <= s.v <= box.v[1] and box.theta[0] <= s.theta <= box.theta[1]
        for s in a
    )
    assert all(x == y for x, y in zip(a, b))


def test_box_midpoint(box):
    mid = box.midpoint()
    assert (mid.rho, mid.v, mid.theta) == (1.25, 0.0, 1.25)
