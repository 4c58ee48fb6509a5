"""Tests for jump conditions, shock profiles, the flux-form oracle, and
boundary layers.

The jump solver is checked against the textbook normal-shock relations
and a reflection symmetry, the profile integrator against conserved flux
integrals and the independent flux-form construction, and the layers
across the four velocity regimes of the limit state.
"""

import contextlib
import inspect
import math
import re
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from shocklayer import (
    DomainError,
    GasModel,
    NoDecayingDirectionError,
    NonMonotoneError,
    NoConnectionError,
    PowerLaw,
    Profile,
    RHPair,
    SingularODE,
    State,
    boundary_layer,
    char_speed,
    compare_profiles,
    flux_constants,
    gilbarg_oracle,
    integrate_direct,
    lax_inequalities,
    linearize,
    max_extended_residual,
    rh_residual,
    shock_profile,
    solve_rh,
    sound_speed,
    steady_singular_ode,
    tw_singular_ode,
)
from shocklayer import profiles, reduction, sode
from shocklayer.gas import internal_energy, pressure
from shocklayer.profiles import CompareReport, _flux_form, _flux_integrals, _relative_residual, _sup

from becker import BeckerShock, becker_gas
from flux_form import extended_with_derivatives

C0 = np.sqrt(1.4)  # sound speed at (1, 0, 1) for the default gas


def lab_fluxes(gas, s):
    """Euler fluxes in the lab frame: rho v, rho v^2 + p, v (rho v^2 / 2 + rho e + p)."""
    p, e = pressure(gas, s.rho, s.theta)[0], internal_energy(gas, s.theta)[0]
    return np.array([s.rho * s.v, s.rho * s.v * s.v + p, s.v * (0.5 * s.rho * s.v * s.v + s.rho * e + p)])


def lab_densities(gas, s):
    """Conserved densities in the lab frame: rho, rho v, rho e + rho v^2 / 2."""
    e = internal_energy(gas, s.theta)[0]
    return np.array([s.rho, s.rho * s.v, s.rho * e + 0.5 * s.rho * s.v * s.v])


@pytest.fixture(scope="module")
def gasm():
    return GasModel()


@pytest.fixture(scope="module")
def pair_f1(gasm):
    return solve_rh(gasm, State(1.0, 0.0, 1.0), family=1, strength=0.2)


@pytest.fixture(scope="module")
def prof_f1(gasm, pair_f1):
    return shock_profile(gasm, pair_f1)


@pytest.fixture(scope="module")
def oracle_f1(gasm, pair_f1):
    return gilbarg_oracle(gasm, pair_f1)


def flux_rhs(oracle):
    """The right-hand side [v_x, theta_x] of the oracle's flux-form system, called on [v, theta]."""
    return _flux_form(oracle.gas, oracle.sigma, oracle.m, oracle.Pi, oracle.Eflux).F_eval


def normal_shock_oracle(gas, U_minus, sigma):
    """Downstream state from the textbook density/pressure ratios.

    Works in the wave frame with upstream Mach number M1 = |u-|/c-;
    completely independent of the package's conjugate-state formula.
    """
    g = gas.gamma
    u_m = U_minus.v - sigma
    c_m = sound_speed(gas, U_minus)
    M1sq = (u_m / c_m) ** 2
    rho_ratio = (g + 1.0) * M1sq / ((g - 1.0) * M1sq + 2.0)
    p_ratio = (2.0 * g * M1sq - (g - 1.0)) / (g + 1.0)
    rho_p = U_minus.rho * rho_ratio
    u_p = u_m / rho_ratio
    p_m = gas.R * U_minus.rho * U_minus.theta
    theta_p = p_ratio * p_m / (gas.R * rho_p)
    return State(rho_p, u_p + sigma, theta_p)


def _family3_limit(gas, left):
    """The infinite-strength family-3 bound c (1 - sqrt((gamma - 1) / (2 gamma)))."""
    return sound_speed(gas, left) * (1.0 - np.sqrt((gas.gamma - 1.0) / (2.0 * gas.gamma)))


class TestCharSpeed:
    def test_families_at_rest(self, gasm):
        st = State(1.0, 0.0, 1.0)
        assert char_speed(gasm, st, 1) == pytest.approx(-C0, rel=1e-15)
        assert char_speed(gasm, st, 2) == 0.0
        assert char_speed(gasm, st, 3) == pytest.approx(C0, rel=1e-15)

    def test_bad_family(self, gasm):
        with pytest.raises(DomainError):
            char_speed(gasm, State(1.0, 0.0, 1.0), 5)

    @pytest.mark.parametrize("family,message", [
        (True, "char_speed's family must be an integer, got True"),
        (1.0, "char_speed's family must be an integer, got 1.0"),
        (0, "char_speed's family must be at least 1, got family=0"),
    ], ids=["bool", "float", "zero"])
    def test_family_is_an_integer(self, gasm, family, message):
        with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
            char_speed(gasm, State(1.0, 0.0, 1.0), family)


class TestSolveRH:
    def test_family1_frozen_values(self, pair_f1):
        # closed-form conjugate state for strength 0.2 from (1, 0, 1)
        assert pair_f1.sigma == pytest.approx(-1.3832159566199231, rel=1e-13)
        assert pair_f1.right.rho == pytest.approx(1.2879332945293973, rel=1e-11)
        assert pair_f1.right.v == pytest.approx(-0.30923490302402135, rel=1e-11)
        assert pair_f1.right.theta == pytest.approx(1.1085501541664293, rel=1e-11)

    def test_family1_against_normal_shock_relations(self, gasm, pair_f1):
        ref = normal_shock_oracle(gasm, pair_f1.left, pair_f1.sigma)
        assert pair_f1.right.rho == pytest.approx(ref.rho, rel=1e-10)
        assert pair_f1.right.v == pytest.approx(ref.v, rel=1e-10, abs=1e-12)
        assert pair_f1.right.theta == pytest.approx(ref.theta, rel=1e-10)

    def test_sigma_convention(self, gasm, pair_f1):
        lam = char_speed(gasm, pair_f1.left, 1)
        assert pair_f1.sigma == pytest.approx(lam - 0.2, rel=1e-12)

    def test_residual_and_lax(self, gasm, pair_f1):
        res = rh_residual(gasm, pair_f1)
        assert np.abs(res).max() <= 1e-12
        lax = lax_inequalities(gasm, pair_f1)
        assert lax["satisfied"]
        assert lax["lambda_right"] < lax["sigma"] < lax["lambda_left"]

    def test_family3_mirror_symmetry(self, gasm, pair_f1):
        # reflecting x -> -x turns a 1-wave into a 3-wave: endpoints swap
        # sides, v and sigma flip sign, rho and theta are preserved
        mirrored_left = State(pair_f1.right.rho, -pair_f1.right.v, pair_f1.right.theta)
        strength3 = char_speed(gasm, mirrored_left, 3) - (-pair_f1.sigma)
        assert strength3 > 0.0
        pair3 = solve_rh(gasm, mirrored_left, family=3, strength=strength3)
        assert pair3.sigma == pytest.approx(-pair_f1.sigma, rel=1e-11)
        assert pair3.right.rho == pytest.approx(pair_f1.left.rho, rel=1e-10)
        assert pair3.right.v == pytest.approx(-pair_f1.left.v, rel=1e-10, abs=1e-11)
        assert pair3.right.theta == pytest.approx(pair_f1.left.theta, rel=1e-10)
        assert np.abs(rh_residual(gasm, pair3)).max() <= 1e-12
        assert lax_inequalities(gasm, pair3)["satisfied"]

    def test_family3_against_normal_shock_relations(self, gasm):
        pair = solve_rh(gasm, State(1.2, 0.4, 0.9), family=3, strength=0.35)
        ref = normal_shock_oracle(gasm, pair.left, pair.sigma)
        assert pair.right.rho == pytest.approx(ref.rho, rel=1e-10)
        assert pair.right.v == pytest.approx(ref.v, rel=1e-10)
        assert pair.right.theta == pytest.approx(ref.theta, rel=1e-10)

    @pytest.mark.parametrize("family", [1, 3])
    def test_zero_strength_is_refused(self, gasm, family):
        # the zero-strength pair has no profile; it meets the round-off rule of sigma = lambda(U-)
        with pytest.raises(DomainError, match=r"^strength 0 is below the round-off of lambda\(U-\)"):
            solve_rh(gasm, State(1.0, 0.3, 1.0), family=family, strength=0.0)

    def test_lax_verdict_is_not_forced_at_zero_strength(self, gasm):
        # a constant pair built by hand has sigma on both speeds, so the strict inequalities fail
        left = State(1.0, 0.3, 1.0)
        pair = RHPair(left=left, right=left, sigma=char_speed(gasm, left, 1), family=1, strength=0.0)
        assert np.all(rh_residual(gasm, pair) == 0.0)
        assert not lax_inequalities(gasm, pair)["satisfied"]

    def test_contact_family_rejected(self, gasm):
        with pytest.raises(DomainError, match="contact"):
            solve_rh(gasm, State(1.0, 0.0, 1.0), family=2, strength=0.1)

    def test_invalid_family_rejected(self, gasm):
        with pytest.raises(DomainError):
            solve_rh(gasm, State(1.0, 0.0, 1.0), family=4, strength=0.1)

    @pytest.mark.parametrize("family,message", [
        (True, "solve_rh's family must be an integer, got True"),
        (1.0, "solve_rh's family must be an integer, got 1.0"),
        ("1", "solve_rh's family must be an integer, got '1'"),
        (-1, "solve_rh's family must be at least 1, got family=-1"),
    ], ids=["bool", "float", "str", "negative"])
    def test_family_is_an_integer(self, gasm, family, message):
        with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
            solve_rh(gasm, State(1.0, 0.0, 1.0), family, 0.2)

    def test_integer_like_family_is_an_int(self, gasm):
        pair = solve_rh(gasm, State(1.0, 0.0, 1.0), np.int64(3), 0.2)
        assert type(pair.family) is int and pair == solve_rh(gasm, State(1.0, 0.0, 1.0), 3, 0.2)
        assert type(shock_profile(gasm, pair).diagnostics["family"]) is int

    def test_negative_strength_rejected(self, gasm):
        with pytest.raises(DomainError, match="strength"):
            solve_rh(gasm, State(1.0, 0.0, 1.0), family=1, strength=-0.1)

    @pytest.mark.parametrize("family,strength", [
        (1, float("nan")), (3, float("nan")), (1, float("inf")), (3, float("inf")), (1, float("-inf")),
    ])
    def test_non_finite_strength_is_named(self, gasm, family, strength):
        with pytest.raises(DomainError, match="strength must be finite"):
            solve_rh(gasm, State(1.0, 0.0, 1.0), family=family, strength=strength)

    def test_tiny_density_scales_out(self, gasm):
        # the Euler jump conditions are invariant under rho -> s rho, so a
        # pair at rho 1e-200 has the unit pair's speed and velocity jump
        tiny = solve_rh(GasModel(c_rho=1e-310), State(1e-200, 0.0, 1.0), family=1, strength=0.2)
        unit = solve_rh(GasModel(), State(1.0, 0.0, 1.0), family=1, strength=0.2)
        assert tiny.sigma == pytest.approx(unit.sigma, rel=1e-14)
        assert tiny.right.v == pytest.approx(unit.right.v, rel=1e-12)
        assert tiny.right.rho / 1e-200 == pytest.approx(unit.right.rho, rel=1e-12)

    def test_vacuum_bound_enforced(self):
        # family-3 waves rarefy the right state; a tight bound catches it
        g = GasModel(c_rho=0.5)
        with pytest.raises(DomainError, match="vacuum"):
            solve_rh(g, State(1.0, 0.0, 1.0), family=3, strength=0.6)

    def test_unphysical_seed_fails_cleanly(self, gasm):
        with pytest.raises(DomainError):
            solve_rh(gasm, State(1.0, 0.0, 1.0), family=3, strength=0.9)

    @pytest.mark.parametrize("strength", [0.9, 1.0, 1.5])
    def test_family3_past_the_bound_is_a_domain_error(self, gasm, strength):
        # c (1 - sqrt((gamma - 1) / (2 gamma))) = 0.7360 at (1, 0, 1), gamma 1.4
        with pytest.raises(DomainError, match=r"admissible limit 0\.73"):
            solve_rh(gasm, State(1.0, 0.0, 1.0), family=3, strength=strength)

    @pytest.mark.parametrize("gamma", [1.0625, 1.4, 5.0 / 3.0])
    def test_family3_at_the_limit_within_round_off(self, gamma):
        # theta+ from the total enthalpy keeps its digits at (1 - 2.2e-16) of the
        # limit: the pair solves at round-off residual once the vacuum bound
        # admits its density (0.0303 at gamma 1.0625)
        left = State(1.0, 0.0, 2.0)
        limit = _family3_limit(GasModel(gamma=gamma), left)
        pair = solve_rh(GasModel(gamma=gamma, c_rho=1e-3), left, family=3, strength=(1.0 - 2.2e-16) * limit)
        assert pair.right.theta > 0.0 and lax_inequalities(GasModel(gamma=gamma), pair)["satisfied"]
        scale = max(1.0, _sup(lab_fluxes(GasModel(gamma=gamma), left)))
        assert _sup(rh_residual(GasModel(gamma=gamma), pair)) <= 1e-14 * scale
        if gamma == 1.0625:
            with pytest.raises(DomainError, match="right state density 0.0303.* below the vacuum bound 0.1"):
                solve_rh(GasModel(gamma=gamma), left, family=3, strength=(1.0 - 2.2e-16) * limit)

    def test_family3_temperature_that_rounds_to_zero(self):
        # at gamma = 1 + 2.2e-16 and this left state, theta+ at the limit is
        # below the round-off of theta- - (u+^2 - u-^2) / (2 c_p)
        gas = GasModel(gamma=1.0000000000000002, c_rho=1e-300)
        left = State(1.0, 50.0, 1.0)
        with pytest.raises(DomainError, match="round-off"):
            solve_rh(gas, left, family=3, strength=(1.0 - 1.1e-16) * _family3_limit(gas, left))

    @pytest.mark.parametrize("strength", [1e160, 1e300])
    def test_family1_strength_that_overflows_the_jump_conditions(self, gasm, strength):
        # m u overflows, so P = m u + p is infinite; the family-3 limit is not the cause
        with pytest.raises(DomainError, match="overflows the jump conditions") as info:
            solve_rh(gasm, State(1.0, 0.0, 1.0), 1, strength)
        assert "family-3" not in str(info.value)

    @pytest.mark.parametrize("fraction", [0.0, 1e-300 * 10.0, 1e-17])
    def test_strength_below_round_off_of_lambda(self, fraction):
        # lambda(U-) is about 18.4 here, so these strengths leave
        # sigma = lambda(U-) - strength unchanged in double precision
        gas = GasModel(gamma=1.0000001)
        left = State(1e3, 50.0, 1e3)
        strength = fraction * sound_speed(gas, left)
        with pytest.raises(DomainError, match="below the round-off of lambda") as info:
            solve_rh(gas, left, family=1, strength=strength)
        assert "zero-strength pair" in str(info.value)
        assert "Lax" not in str(info.value)

    def test_mass_flux_underflowing_to_zero(self, gasm):
        # rho (v - sigma) = 1e-300 x 1.2e-150 is below the least subnormal: no conjugate state, and the
        # message names both factors, not a left state moving with the wave
        message = r"^mass flux rho \(v - sigma\) = 1e-300 x 1\.18\d*e-150 is zero, no conjugate state$"
        with pytest.raises(DomainError, match=message):
            solve_rh(gasm, State(1e-300, 0.0, 1e-300), family=1, strength=1e-160)

    def test_strength_just_above_round_off_of_lambda_solves(self):
        gas = GasModel(gamma=1.0000001)
        left = State(1e3, 50.0, 1e3)
        pair = solve_rh(gas, left, family=1, strength=1e-15 * sound_speed(gas, left))
        assert pair.sigma < char_speed(gas, left, 1)
        assert lax_inequalities(gas, pair)["satisfied"]

    def test_other_lax_failures_keep_the_generic_message(self, gasm, monkeypatch):
        # a conjugate state equal to U- puts sigma below both speeds
        import shocklayer.profiles as profiles

        monkeypatch.setattr(profiles, "_conjugate_state", lambda gas, U, sigma: (U.rho, U.v, U.theta))
        with pytest.raises(DomainError, match=r"violates the entropy \(Lax\) inequalities"):
            solve_rh(gasm, State(1.0, 0.0, 1.0), family=1, strength=0.2)

    def test_family3_just_below_the_bound_solves(self, gasm):
        pair = solve_rh(gasm, State(1.0, 0.0, 1.0), family=3, strength=0.73)
        assert np.abs(rh_residual(gasm, pair)).max() <= 1e-10
        assert lax_inequalities(gasm, pair)["satisfied"]

    def test_moving_frame_is_a_shifted_pair(self, gasm):
        # the fluxes are large at v = 20, so the jump residual cannot
        # reach an absolute 1e-13; the pair must still solve
        moving = solve_rh(gasm, State(1.0, 20.0, 1.0), family=1, strength=0.9)
        rest = solve_rh(gasm, State(1.0, 0.0, 1.0), family=1, strength=0.9)
        assert moving.sigma == pytest.approx(rest.sigma + 20.0, rel=1e-12)
        assert moving.right.v == pytest.approx(rest.right.v + 20.0, rel=1e-12)
        assert moving.right.rho == pytest.approx(rest.right.rho, rel=1e-12)
        assert moving.right.theta == pytest.approx(rest.right.theta, rel=1e-12)

    @settings(max_examples=300, deadline=None)
    @given(
        gamma=st.floats(1.0, 5.0 / 3.0, exclude_min=True),
        rho=st.floats(1e-2, 1e3),
        theta=st.floats(1e-2, 1e3),
        v=st.floats(-50.0, 50.0),
        family=st.sampled_from([1, 3]),
        frac=st.floats(1e-6, 1.0 - 1e-6),
    )
    # u+ (P / m - u+) / R cancels four digits of theta+ here, and e_theta = 4.5e15 scales them into the energy flux
    @example(gamma=1.0000000000000002, rho=674.0, theta=5.0, v=0.0, family=3, frac=0.9837218045112782)
    def test_jump_conditions_over_generated_inputs(self, gamma, rho, theta, v, family, frac):
        # family-3 strengths are a fraction of the admissible bound; any
        # family-1 strength is admissible, here up to 10 c. Within
        # round-off of either end no pair is representable: the strict
        # Lax inequalities cannot be resolved near strength 0, and the
        # right temperature can round to 0 at the family-3 limit.
        gas = GasModel(gamma=gamma)
        left = State(rho, v, theta)
        c = sound_speed(gas, left)
        strength = frac * (c * (1.0 - np.sqrt((gamma - 1.0) / (2.0 * gamma))) if family == 3 else 10.0 * c)
        try:
            pair = solve_rh(gas, left, family, strength)
        except DomainError as exc:
            assume("vacuum bound" not in str(exc))
            raise
        lax = lax_inequalities(gas, pair)
        assert lax["lambda_right"] < pair.sigma < lax["lambda_left"]
        scale = max(1.0, _sup(lab_fluxes(gas, left)), abs(pair.sigma) * _sup(lab_densities(gas, left)))
        assert _sup(rh_residual(gas, pair)) <= 1e-12 * scale
        # the wave-frame residual is the lab-frame [f] - sigma [g]
        lab = (lab_fluxes(gas, pair.right) - lab_fluxes(gas, pair.left)) - pair.sigma * (
            lab_densities(gas, pair.right) - lab_densities(gas, pair.left)
        )
        assert _sup(rh_residual(gas, pair) - lab) <= 1e-12 * scale


class TestShockProfile:
    def test_endpoints_and_diagnostics(self, pair_f1, prof_f1):
        d = prof_f1.diagnostics
        assert prof_f1.sigma == pair_f1.sigma
        for end, state in ((prof_f1.left, pair_f1.left), (prof_f1.right, pair_f1.right)):
            assert end.tolist() == [state.rho, state.v, state.theta, 0.0, 0.0]
        assert d["endpoint_mismatch"] <= 1e-6
        assert d["rh_residual_max"] <= 1e-8
        assert d["flux_drift"] <= 1e-6
        assert d["extended_residual_max"] <= 1e-7
        assert d["lax"] is True

    def test_family1_shoots_from_the_saddle_side(self, prof_f1):
        # the left end of a 1-wave is a node; only the right end offers a
        # one-dimensional manifold to track
        assert prof_f1.diagnostics["shoot_from"] == "right"
        rates = prof_f1.diagnostics["rates_start"]
        assert sum(1 for m in rates if m < 0.0) == 1

    def test_profile_velocity_monotone(self, prof_f1):
        dv = np.diff(prof_f1.trajectory.Vs[:, 1])
        assert np.all(dv > 0) or np.all(dv < 0)

    def test_profile_stays_physical(self, prof_f1):
        Vs = prof_f1.trajectory.Vs
        assert np.all(Vs[:, 0] > 0) and np.all(Vs[:, 2] > 0)
        assert np.all(np.isfinite(Vs))

    def test_frozen_endpoint_rates(self, gasm, pair_f1):
        # spatial rates of the travelling-wave field at the two endpoints
        ode = tw_singular_ode(gasm, pair_f1.sigma)
        UL = np.array([1.0, 0.0, 1.0, 0.0, 0.0])
        UR = np.array([pair_f1.right.rho, pair_f1.right.v, pair_f1.right.theta, 0.0, 0.0])
        for U, expected in (
            (UL, [0.33959082, 3.77871212]),
            (UR, [-0.42030157, 3.93216837]),
        ):
            rep = linearize(ode, U)
            zeta = ode.zeta_eval(U.tolist())
            rates = sorted(
                rep.eigenvalues[i].real / zeta
                for i in range(5)
                if i not in rep.center
            )
            np.testing.assert_allclose(rates, expected, atol=1e-5)

    def test_rates_match_flux_form_jacobian(self, gasm, pair_f1, oracle_f1):
        # the 2-D flux-form linearization must reproduce the spatial
        # rates of the 5-D reduction at each equilibrium endpoint
        ode = tw_singular_ode(gasm, pair_f1.sigma)
        for st in (pair_f1.left, pair_f1.right):
            U = np.array([st.rho, st.v, st.theta, 0.0, 0.0])
            rep = linearize(ode, U)
            zeta = ode.zeta_eval(U.tolist())
            rates5 = sorted(
                rep.eigenvalues[i].real / zeta for i in range(5) if i not in rep.center
            )
            h = 1e-6
            J = np.empty((2, 2))
            F = flux_rhs(oracle_f1)
            for j, dv in enumerate(([h, 0.0], [0.0, h])):
                up = F([st.v + dv[0], st.theta + dv[1]])
                dn = F([st.v - dv[0], st.theta - dv[1]])
                J[:, j] = (np.array(up) - np.array(dn)) / (2.0 * h)
            rates2 = sorted(np.linalg.eigvals(J).real)
            np.testing.assert_allclose(rates5, rates2, atol=1e-4)

    def test_family3_profile(self, gasm):
        pair = solve_rh(gasm, State(1.0, 0.0, 1.0), family=3, strength=0.2)
        prof = shock_profile(gasm, pair)
        assert prof.diagnostics["endpoint_mismatch"] <= 1e-6
        assert prof.diagnostics["shoot_from"] == "left"
        assert prof.diagnostics["flux_drift"] <= 1e-6

    @pytest.mark.parametrize("build", [
        lambda g: shock_profile(g, solve_rh(g, State(1.0, 0.0, 1.0), 1, 0.2)),
        lambda g: boundary_layer(g, State(1.0, -0.3, 1.0)),
    ], ids=["shock", "layer"])
    def test_endpoints_are_arrays_of_their_own(self, gasm, build):
        # each end is a (5,) float array that shares no memory with the other end or the trajectory
        prof = build(gasm)
        for end in (prof.left, prof.right):
            assert end.shape == (5,) and end.dtype == np.float64
            assert not np.shares_memory(end, prof.trajectory.ys)
        assert not np.shares_memory(prof.left, prof.right)


SHOT_KEYS = {"sign", "eps", "termination", "endpoint_mismatch", "n_steps"}


class TestShooting:
    @pytest.mark.parametrize(
        "family,strength", [(1, 0.1), (1, 0.5), (1, 2.0), (3, 0.2), (3, 0.5)],
    )
    def test_both_routes_connect_on_the_first_shot(self, gasm, family, strength):
        pair = solve_rh(gasm, State(1.0, 0.0, 1.0), family=family, strength=strength)
        prof = shock_profile(gasm, pair)
        orc = gilbarg_oracle(gasm, pair)
        for shot in (prof.diagnostics, orc.shot):
            assert shot["endpoint_mismatch"] <= 1e-6 and shot["n_steps"] > 0

    @pytest.mark.parametrize("route,gas,left,tol,end_tol", [
        (shock_profile, GasModel(), (1.0, 0.0, 1.0), 1e-12, 1e-8),
        (shock_profile, GasModel(), (1.0, 0.0, 1.0), 1e-6, 1.6e-5),
        (gilbarg_oracle, GasModel(nu_law=PowerLaw(1.2, 0.5), k_law=PowerLaw(0.9, -0.3)), (0.5, 0.3, 2.0), 1e-8, 1e-6),
        (gilbarg_oracle, GasModel(), (1.0, 0.0, 1.0), 1e-5, 1.6e-4),
        (gilbarg_oracle, GasModel(gamma=1.2, k_law=PowerLaw(0.1)), (1.0, 0.0, 1.0), 1e-6, 1.6e-5),
        (gilbarg_oracle, GasModel(gamma=1.2, k_law=PowerLaw(0.1)), (1.0, 0.0, 1.0), 1e-5, 1.6e-4),
        (gilbarg_oracle, GasModel(gamma=1.2, k_law=PowerLaw(0.1)), (2.0, -1.0, 0.5), 1e-6, 1.6e-5),
    ], ids=[
        "profile-tight", "profile-loose", "oracle-power-law", "oracle-loose",
        "oracle-gamma-1.2", "oracle-gamma-1.2-loose", "oracle-gamma-1.2-left-2",
    ])
    def test_weak_shocks_connect_on_the_first_shot(self, route, gas, left, tol, end_tol):
        # a shot starts where |F| is only as large as its perturbation; an absolute rest-point halt there
        # once ended these shots after 6 steps a whole jump (1.7e-3) from the target. At the loose tolerances
        # SHOOT_EPS_REL x the jump alone (1.7e-10) lies below the step control's noise, which would then pick
        # the branch the shot leaves on, whatever its sign
        pair = solve_rh(gas, State(*left), family=1, strength=1e-3)
        result = route(gas, pair, profiles.ShootOpts(tol=tol, end_tol=end_tol))
        shot = result.diagnostics if route is shock_profile else result.shot
        assert shot["termination"] == sode.TERM_STOPPED and shot["n_steps"] > 1000
        assert shot["endpoint_mismatch"] <= end_tol
        assert shot["eps"] >= profiles.SHOOT_EPS_NOISE * max(tol, sode.REL_FLOOR)

    def test_failure_carries_the_shot(self, gasm, monkeypatch):
        import shocklayer.profiles as profiles

        pair = solve_rh(gasm, State(1.0, 0.0, 1.0), family=1, strength=0.5)
        connecting = [shock_profile(gasm, pair).diagnostics, gilbarg_oracle(gasm, pair).shot]
        real = profiles.integrate_direct
        monkeypatch.setattr(
            profiles, "integrate_direct",
            lambda ode, V0, x_span, **kw: real(ode, V0, (x_span[0], 1e-3 * x_span[1]), **kw),
        )
        for route, good in zip((shock_profile, gilbarg_oracle), connecting):
            with pytest.raises(NoConnectionError, match=r"^no connection \(.*\); the shot \(sign, eps, ") as info:
                route(gasm, pair)
            # one shot, no second sign and no smaller perturbation: the cut shot starts as the connecting one
            shot = info.value.shot
            assert set(shot) == SHOT_KEYS
            assert (shot["sign"], shot["eps"]) == (good["sign"], good["eps"])
            assert shot["termination"] == sode.TERM_REACHED_END and shot["endpoint_mismatch"] > 1e-6

    @pytest.mark.parametrize("route", [shock_profile, gilbarg_oracle], ids=lambda f: f.__name__)
    def test_coinciding_endpoints_are_refused(self, gasm, route):
        # a hand-built zero-strength pair, which solve_rh refuses, has no profile to connect: the
        # first shot would start within capture of the target and stop after one step
        left = State(1.0, 0.3, 1.0)
        pair = RHPair(left=left, right=left, sigma=char_speed(gasm, left, 1), family=1, strength=0.0)
        state = "[1.0, 0.3, 1.0, 0.0, 0.0]" if route is shock_profile else "[0.3, 1.0]"
        with pytest.raises(DomainError, match=re.escape(f"the endpoints coincide at {state}")):
            route(gasm, pair)

    @pytest.mark.parametrize("route", [shock_profile, gilbarg_oracle], ids=lambda f: f.__name__)
    @pytest.mark.parametrize("strength,opts", [
        (3e-7, profiles.ShootOpts()),
        (0.2, profiles.ShootOpts(1e-3, 0.7)),
    ], ids=["weak-shock", "loose-end-tol"])
    def test_end_tol_covering_the_jump_is_refused(self, gasm, route, strength, opts):
        # the start lies within end_tol of the target, so such a shot once "connected" after one step, as a
        # 2-sample profile whose endpoint_mismatch was the whole jump (5.0e-7 and 0.31 here)
        pair = solve_rh(gasm, State(1.0, 0.0, 1.0), family=1, strength=strength)
        columns = ("rho", "v", "theta") if route is shock_profile else ("v", "theta")
        distance = max(abs(getattr(pair.right, c) - getattr(pair.left, c)) for c in columns)
        assert distance <= opts.end_tol
        named = f"end_tol {opts.end_tol!r} is at or above the endpoint distance {distance!r}"
        with pytest.raises(DomainError, match=f"^{re.escape(named)}, so the start connects$"):
            route(gasm, pair, opts)

    @pytest.mark.parametrize("route", [shock_profile, gilbarg_oracle], ids=lambda f: f.__name__)
    def test_end_tol_just_below_the_jump_leaves_the_start(self, gasm, route):
        pair = solve_rh(gasm, State(1.0, 0.0, 1.0), family=1, strength=0.2)
        distance = max(abs(getattr(pair.right, c) - getattr(pair.left, c)) for c in ("v", "theta"))
        opts = profiles.ShootOpts(1e-3, math.nextafter(distance, 0.0))
        result = route(gasm, pair, opts)
        shot = result.diagnostics if route is shock_profile else result.shot
        assert shot["termination"] == sode.TERM_STOPPED and shot["n_steps"] > 1
        assert shot["endpoint_mismatch"] <= opts.end_tol

    def test_endpoint_on_the_sonic_set_is_no_connection(self, gasm):
        import shocklayer.profiles as profiles

        ode = tw_singular_ode(gasm, 0.0)
        sonic = np.array([1.0, 0.0, 1.0, 0.0, 0.0])
        other = np.array([1.0, -0.3, 1.0, 0.0, 0.0])
        for ends in ((sonic, other), (other, sonic)):
            with pytest.raises(NoConnectionError, match="sonic set"):
                profiles._connection_plan(ode, *ends)


class TestShotRecord:
    """A connection is one shot, whose record {sign, eps, termination, endpoint_mismatch, n_steps} is held once."""

    def test_the_oracle_and_the_diagnostics_carry_the_same_record(self, gasm, monkeypatch):
        records = []
        shoot = profiles._shoot

        def spy(*args):
            records.append(shoot(*args))
            return records[-1]

        monkeypatch.setattr(profiles, "_shoot", spy)
        pair = solve_rh(gasm, State(1.0, 0.0, 1.0), family=1, strength=0.2)
        prof, orc = shock_profile(gasm, pair), gilbarg_oracle(gasm, pair)
        [(traj, shot), (orc_traj, orc_shot)] = records
        assert set(shot) == set(orc_shot) == SHOT_KEYS and orc.shot is orc_shot
        assert {key: prof.diagnostics[key] for key in SHOT_KEYS} == shot and "attempts" not in prof.diagnostics
        for t, record in ((traj, shot), (orc_traj, orc_shot)):
            assert record["termination"] == t.termination
            assert record["n_steps"] == t.stats.n_accepted + t.stats.n_rejected

    def test_a_refusal_before_any_shot_carries_none(self, gasm):
        # _connection_plan refuses an endpoint on the sonic set, so no shot is fired
        pair = solve_rh(gasm, State(1.0, 0.0, 1.0), family=1, strength=0.5)
        sonic = RHPair(left=pair.left, right=pair.right, sigma=pair.left.v, family=1, strength=0.5)
        with pytest.raises(NoConnectionError, match="sonic set") as info:
            shock_profile(gasm, sonic)
        assert info.value.shot is None
        assert NoConnectionError("no shot").shot is None

    @pytest.mark.parametrize("route", [shock_profile, gilbarg_oracle], ids=lambda f: f.__name__)
    def test_a_shot_that_misses_carries_its_record(self, gasm, route):
        # the pair reversed is an expansion: its one shot leaves the saddle and never reaches the far state
        pair = solve_rh(gasm, State(1.0, 0.0, 1.0), family=1, strength=0.5)
        reversed_pair = RHPair(left=pair.right, right=pair.left, sigma=pair.sigma, family=1, strength=0.5)
        with pytest.raises(NoConnectionError, match=r"^no connection \(.*\); the shot ") as info:
            route(gasm, reversed_pair)
        shot = info.value.shot
        assert set(shot) == SHOT_KEYS and shot["n_steps"] > 0
        assert shot["endpoint_mismatch"] > profiles.ShootOpts().end_tol
        assert f"{shot['endpoint_mismatch']:.2e})" in str(info.value)


ONE_CENTRE_GASES = {
    "default": GasModel(),
    "power-law": GasModel(nu_law=PowerLaw(1.2, 0.5), k_law=PowerLaw(0.9, -0.3)),
    "gamma-5/3": GasModel(gamma=5 / 3, nu_law=PowerLaw(0.3), k_law=PowerLaw(2.0)),
    "gamma-1.01": GasModel(gamma=1.01),
}


class TestOneCentre:
    """A shot's stop rule tests divergence about its target alone.

    A shot starts within the endpoint distance s of its target, and its
    radius is max(10 s, 0.5), so a connecting shot never comes near the
    radius: the divergence test about the start that the rule once made
    as well could not have stopped it.
    """

    @pytest.mark.parametrize("gas_name", sorted(ONE_CENTRE_GASES))
    def test_connecting_shots_stay_within_half_their_radius(self, gas_name, monkeypatch):
        gas = ONE_CENTRE_GASES[gas_name]
        runs = []
        integrate = profiles.integrate_direct

        def spy(*args, **kwargs):
            runs.append((kwargs["stop_when"], integrate(*args, **kwargs)))
            return runs[-1][1]

        monkeypatch.setattr(profiles, "integrate_direct", spy)
        connected = 0
        for left in ((1.0, 0.0, 1.0), (0.5, 0.3, 2.0), (2.0, -1.0, 0.5)):
            bound = profiles._family3_strength_bound(gas, State(*left))
            for family, strength in [(1, 1e-2), (1, 0.2), (1, 3.0), *((3, f * bound) for f in (0.1, 0.5, 0.9))]:
                try:
                    pair = solve_rh(gas, State(*left), family, strength)
                except DomainError:  # past the vacuum bound at gamma 1.01
                    continue
                for route in (shock_profile, gilbarg_oracle):
                    runs.clear()
                    route(gas, pair)
                    [(rule, traj)] = runs
                    worst = _sup(traj.Vs - np.array(rule.target))
                    assert worst <= 0.5 * rule.radius, (left, family, strength, route.__name__, worst / rule.radius)
                    connected += 1
        assert connected == (30 if gas_name == "gamma-1.01" else 36)  # gamma 1.01 refuses three pairs


class TestBaselineCounters:
    """The step counters of the ROADMAP's Baseline, pinned: a change that claims no algorithmic change keeps them.

    Default gas; shocks of family 1 from (1, 0, 1) and the layer of the README config.
    """

    @pytest.mark.parametrize("strength,counters", [(0.2, (189, 5, 1166)), (2.0, (314, 4, 1910))])
    def test_shock(self, gasm, strength, counters):
        stats = shock_profile(gasm, solve_rh(gasm, State(1.0, 0.0, 1.0), 1, strength)).trajectory.stats
        assert (stats.n_accepted, stats.n_rejected, stats.n_fevals) == counters

    def test_readme_layer(self, gasm):
        stats = boundary_layer(gasm, State(1.0, -0.3, 1.0)).trajectory.stats
        assert (stats.n_accepted, stats.n_rejected, stats.n_fevals) == (78, 0, 470)


class TestOptions:
    """ShootOpts when built, and boundary_layer at every amplitude, refuse a tolerance that is not positive and finite.

    The integrators check tol, but a layer refused for its amplitude
    never reaches them, and end_tol = inf would accept any first shot.
    The layer checks tol before its amplitude. ShootOpts also refuses an
    end_tol below MIN_END_TOL_RATIO x max(tol, REL_FLOOR).
    """

    @pytest.mark.parametrize("value", [0.0, -1e-6, float("nan"), float("inf")])
    @pytest.mark.parametrize("build,name", [
        (profiles.ShootOpts, "tol"),
        (profiles.ShootOpts, "end_tol"),
        (lambda **kw: boundary_layer(GasModel(), State(1.0, -0.3, 1.0), amplitude=1e-3, **kw), "tol"),
        (lambda **kw: boundary_layer(GasModel(), State(1.0, -0.3, 1.0), amplitude=0.0, **kw), "tol"),
        (lambda **kw: boundary_layer(GasModel(), State(1.0, -0.3, 1.0), amplitude=0.6, **kw), "tol"),
    ], ids=["ShootOpts-tol", "ShootOpts-end_tol", "layer-tol", "layer-zero-amplitude-tol", "layer-past-cap-tol"])
    def test_rejected(self, build, name, value):
        with pytest.raises(DomainError, match=f"^{name} must be positive and finite, got {value!r}$"):
            build(**{name: value})

    @pytest.mark.parametrize("kwargs,named", [
        ({"tol": 1e-6}, "end_tol 1e-06 is below 16 x tol 1e-06"),
        ({"tol": 1e-7, "end_tol": math.nextafter(1.6e-6, 0.0)}, "end_tol 1.5999999999999997e-06 is below 16 x tol 1e-07"),
        ({"end_tol": 1e-9}, "end_tol 1e-09 is below 16 x tol 1e-10"),
        ({"tol": 5e-324, "end_tol": 1e-300}, "end_tol 1e-300 is below 16 x REL_FLOOR 1e-12 (tol 5e-324 is below it)"),
        ({"tol": 1e-13, "end_tol": math.nextafter(1.6e-11, 0.0)},
         "end_tol 1.5999999999999996e-11 is below 16 x REL_FLOOR 1e-12 (tol 1e-13 is below it)"),
    ], ids=["tol-only", "just-below", "end-tol-only", "below-the-floor", "just-below-the-floor"])
    def test_end_tol_below_the_ratio_is_refused(self, kwargs, named):
        # a shot's far-end mismatch is integration error, so end_tol must leave room for it
        with pytest.raises(DomainError, match=f"^{re.escape(named)}, so a shot's integration error alone can exceed it$"):
            profiles.ShootOpts(**kwargs)

    @pytest.mark.parametrize("tol", [5e-324, 1e-13, 1e-12])
    def test_end_tol_at_the_floor_is_accepted(self, tol):
        # below REL_FLOOR the step control runs at REL_FLOOR, so the floor sets the smallest end_tol
        assert profiles.ShootOpts(tol=tol, end_tol=16 * 1e-12).end_tol == 1.6e-11


class TestFluxConstants:
    def test_drift_small_on_computed_profile(self, gasm, prof_f1):
        rec = flux_constants(gasm, prof_f1)
        assert rec.drift <= 1e-6
        assert rec.values.shape == (prof_f1.trajectory.n, 3)
        # mass flux column equals rho (v - sigma) at the first sample
        U0 = prof_f1.trajectory.Vs[0]
        assert rec.values[0, 0] == pytest.approx(U0[0] * (U0[1] - prof_f1.sigma), rel=1e-14)

    def test_reference_from_equilibrium_endpoint(self, gasm, prof_f1):
        rec = flux_constants(gasm, prof_f1)
        rho, v = prof_f1.right[:2]
        m = rho * (v - prof_f1.sigma)
        assert rec.reference[0] == pytest.approx(m, rel=1e-14)

    def test_corrupted_sample_detected(self, gasm, prof_f1):
        base = flux_constants(gasm, prof_f1).drift
        traj = prof_f1.trajectory
        ys = traj.ys.copy()
        ys[traj.n // 2, 1] += 1e-3
        corrupted = Profile(
            sigma=prof_f1.sigma, left=prof_f1.left,
            right=prof_f1.right,
            trajectory=replace(traj, ys=ys),
            diagnostics={},
        )
        spiked = flux_constants(gasm, corrupted).drift
        assert spiked > 1e-4
        assert spiked > 100.0 * max(base, 1e-12)


class TestProfileChecks:
    """Every Profile carries the same three checks, read on an integrated trajectory."""

    CHECK_KEYS = ("extended_residual_max", "extended_residual_rel", "flux_drift")

    @pytest.mark.parametrize("build,mode", [
        (lambda g: shock_profile(g, solve_rh(g, State(1.0, 0.0, 1.0), 1, 0.2)), "direct"),
        (lambda g: shock_profile(g, solve_rh(g, State(1.0, 0.0, 1.0), 3, 0.2)), "direct"),
        (lambda g: boundary_layer(g, State(1.0, -0.3, 1.0)), "rescaled"),
        (lambda g: boundary_layer(g, State(1.0, 5e-7, 1.0)), "rescaled"),
    ], ids=["shock-f1", "shock-f3", "layer-subsonic", "layer-near-sonic"])
    def test_every_profile_carries_the_checks(self, gasm, build, mode):
        prof = build(gasm)
        checks = {key: prof.diagnostics[key] for key in self.CHECK_KEYS}
        assert prof.trajectory.mode == mode
        assert "extended_residual_skipped" not in prof.diagnostics
        assert checks["extended_residual_rel"] <= 1e-6
        assert checks["flux_drift"] <= 1e-6

    @pytest.mark.parametrize("build,named", [
        (lambda g: solve_rh(g, State(1.0, 0.0, 1.0), 1, 0.0), "zero-strength pair"),
        (lambda g: boundary_layer(g, State(1.0, -0.3, 1.0), amplitude=0.0), "amplitude must be finite and nonzero"),
    ], ids=["shock-zero", "layer-zero"])
    def test_no_profile_is_built_constant(self, gasm, build, named):
        # a constant profile would read 0 on every check by construction, so there is none
        with pytest.raises(DomainError, match=named):
            build(gasm)


class TestGilbargOracle:
    def test_reaches_the_far_state(self, pair_f1, oracle_f1):
        target = np.array([pair_f1.left.v, pair_f1.left.theta])
        mismatch = np.abs(oracle_f1.trajectory.final_V - target).max()
        assert mismatch <= 1e-6

    def test_left_state_moving_with_the_wave_is_refused(self, gasm):
        # solve_rh never builds this pair: at sigma = left.v the mass flux m = rho (v - sigma) is 0
        pair = RHPair(left=State(1.0, 0.5, 1.0), right=State(1.2, 0.3, 1.1), sigma=0.5, family=1, strength=0.2)
        with pytest.raises(DomainError, match="^mass flux vanishes, the flux-form system is undefined$"):
            gilbarg_oracle(gasm, pair)

    def test_rhs_vanishes_at_both_endpoints(self, pair_f1, oracle_f1):
        for st in (pair_f1.left, pair_f1.right):
            vx, thx = flux_rhs(oracle_f1)([st.v, st.theta])
            assert abs(vx) <= 1e-12 and abs(thx) <= 1e-12

    def test_flux_form_rejects_unphysical_states(self, pair_f1, oracle_f1):
        # a NaN theta fails the positivity check, as in `pressure`
        with pytest.raises(DomainError):
            flux_rhs(oracle_f1)([pair_f1.left.v, float("nan")])
        # past the wave speed the mass flux gives rho = m / (v - sigma) < 0
        with pytest.raises(DomainError):
            flux_rhs(oracle_f1)([2.0 * oracle_f1.sigma - pair_f1.left.v, 1.0])

    def test_wave_speed_is_the_source_reject(self, oracle_f1):
        # rho = m / (v - sigma) divides by zero at v = sigma: the float and the column call reject the state
        form = _flux_form(oracle_f1.gas, oracle_f1.sigma, oracle_f1.m, oracle_f1.Pi, oracle_f1.Eflux)
        sigma = oracle_f1.sigma
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for call in (
                lambda: form.F_eval([sigma, 1.0]),
                lambda: form.F_eval([np.array([sigma - 0.1, sigma]), np.array([1.0, 1.0])]),
                lambda: oracle_f1._columns(np.array([[sigma - 0.1, 1.0], [sigma, 1.0]])),
            ):
                with pytest.raises(DomainError, match="^flux-form state left the physical region$") as info:
                    call()
                assert info.value.__context__ is None

    def test_overflow_is_a_domain_error_naming_the_state(self):
        # nu = rho^30 overflows a float just beside the wave speed, where rho = m / (v - sigma) is huge
        gas = GasModel(nu_law=PowerLaw(1.0, 30.0))
        pair = solve_rh(gas, State(1.0, 0.0, 1.0), family=1, strength=0.2)
        orc = gilbarg_oracle(gas, pair)
        v = orc.sigma + float(np.sign(pair.left.v - orc.sigma)) * 1e-14
        with pytest.raises(DomainError, match="flux form overflows a float at the state"):
            flux_rhs(orc)([v, 1.0])
        with pytest.raises(DomainError, match="flux form overflows a float at the state"):
            orc._columns(np.array([[v, 1.0]]))

    def test_oracle_ode_rejects_a_nan_stage(self, gasm, pair_f1, monkeypatch):
        import shocklayer.profiles as profiles

        odes = []
        plan = profiles._connection_plan

        def record(ode, *ends):
            odes.append(ode)
            return plan(ode, *ends)

        monkeypatch.setattr(profiles, "_connection_plan", record)
        gilbarg_oracle(gasm, pair_f1)
        (ode,) = odes
        with pytest.raises(DomainError):
            ode.F_eval([pair_f1.left.v, float("nan")])

    def test_flux_form_solves_the_flux_integrals(self):
        # at every oracle sample the flux integrals of (rho, v, theta, F(v, theta))
        # give back the oracle's constants, so the two forms cannot drift apart
        gas = GasModel(nu_law=PowerLaw(1.3, 0.7), k_law=PowerLaw(0.8, -0.4))
        pair = solve_rh(gas, State(1.0, 0.3, 1.2), family=1, strength=0.5)
        orc = gilbarg_oracle(gas, pair)
        F = _flux_form(gas, orc.sigma, orc.m, orc.Pi, orc.Eflux).F_eval
        rows = [
            _flux_integrals(gas, orc.sigma, orc.m / (v - orc.sigma), v, theta, *F([v, theta]))
            for v, theta in orc.trajectory.Vs.tolist()
        ]
        assert len(rows) > 100
        np.testing.assert_allclose(rows, np.tile([orc.m, orc.Pi, orc.Eflux], (len(rows), 1)), rtol=1e-13, atol=0.0)

    def test_density_reconstruction(self, pair_f1, oracle_f1):
        t = oracle_f1._columns(oracle_f1.trajectory.Vs)
        # at the near end the trajectory starts beside the right state
        assert t["rho"][0] == pytest.approx(pair_f1.right.rho, abs=1e-5)
        assert t["rho"][-1] == pytest.approx(pair_f1.left.rho, abs=1e-5)
        assert set(t) == {"rho", "v", "theta", "z1", "z2"}

    def test_extended_residual_against_reduction(self, gasm, pair_f1, oracle_f1):
        # flux-form states and derivatives must satisfy the reduced
        # travelling-wave equations without any shared code path
        ode = tw_singular_ode(gasm, pair_f1.sigma)
        xs, U, Uprime = extended_with_derivatives(oracle_f1)
        worst = 0.0
        for i in range(U.shape[0]):
            V = U[i].tolist()
            res = ode.zeta_eval(V) * Uprime[i] - np.array(ode.F_eval(V))
            worst = max(worst, float(np.abs(res).max()))
        assert worst <= 1e-6

    def test_profile_matches_oracle(self, prof_f1, oracle_f1):
        rep = compare_profiles(prof_f1, oracle_f1, matching="v")
        assert rep.sup <= 1e-5
        assert set(rep.per_column) == {"rho", "theta", "z1", "z2"}
        assert rep.n_points > 100

    def test_dense_comparison_measures_method_error(self, prof_f1, oracle_f1):
        # interpolating between the samples alone would cost 3.5e-6 here
        assert compare_profiles(prof_f1, oracle_f1, matching="v").sup <= 1e-8

    @pytest.mark.parametrize(
        "family,strength",
        [(1, 0.05), (1, 0.2), (1, 0.8), (1, 2.0), (1, 5.0), (3, 0.05), (3, 0.2), (3, 0.4), (3, 0.5)],
    )
    def test_profile_matches_oracle_over_strengths(self, gasm, family, strength):
        # criterion 5 across the sweep, with the residual relative to sup |F|: the
        # absolute extended residual grows with strength (1.3e-5 at 5.0)
        pair = solve_rh(gasm, State(1.0, 0.0, 1.0), family=family, strength=strength)
        prof = shock_profile(gasm, pair)
        rep = compare_profiles(prof, gilbarg_oracle(gasm, pair), matching="v")
        assert rep.sup <= 1e-5
        assert _sup(rh_residual(gasm, pair)) <= 1e-8
        assert flux_constants(gasm, prof).drift <= 1e-6
        assert prof.diagnostics["extended_residual_rel"] <= 1e-6

    @pytest.mark.parametrize("strength", [0.03, 0.02])
    @pytest.mark.parametrize("family", [1, 3])
    @pytest.mark.parametrize("gas", [
        GasModel(),
        GasModel(nu_law=PowerLaw(1.2, 0.5), k_law=PowerLaw(0.9, -0.3)),
        GasModel(gamma=5 / 3, nu_law=PowerLaw(0.3), k_law=PowerLaw(2.0)),
    ], ids=["default", "power-law", "gamma-5/3"])
    def test_weak_shocks_match_the_oracle(self, gas, family, strength):
        # measured at the default ShootOpts: 4.4e-10 to 1.2e-9 absolute, at most 3.3e-8 of the jump
        pair = solve_rh(gas, State(1.0, 0.0, 1.0), family=family, strength=strength)
        prof = shock_profile(gas, pair)
        rep = compare_profiles(prof, gilbarg_oracle(gas, pair), matching="v")
        assert rep.sup <= 1e-7 * _sup(prof.left - prof.right)


def assert_dense_x_matches_samples(traj):
    """The x column of the dense output at both ends of each step is the x samples."""
    steps = np.arange(traj.hs.size)
    x_start = traj.step_eval(steps, 0.0)[0][:, -1]
    x_end = traj.step_eval(steps, 1.0)[0][:, -1]
    assert np.array_equal(x_start, traj.xs[:-1])
    assert np.all(np.abs(x_end - traj.xs[1:]) <= 1e-12 * np.maximum(1.0, np.abs(traj.xs[1:])))


def _raised(prof, column, delta):
    """Copy of a profile with one component raised by delta in its samples and dense output."""
    traj = prof.trajectory
    ys = traj.ys.copy()
    ys[:, column] += delta
    return replace(prof, trajectory=replace(traj, ys=ys))


# (rho, v, theta, z1, z2) under the mirror (x, v) -> (-x, -v): theta_x = z2 changes sign, v_x = z1 keeps it
MIRROR = np.array([1.0, -1.0, 1.0, 1.0, -1.0])
# the mirror's bound in units of the default tol where solve_rh builds the mirrored pair, whose endpoints
# and speed then differ from the exact mirror by round-off: the worst of 52 shocks (the default and the
# power-law gas, and 40 drawn gases, at strengths 0.05 to 2) read 4.3e-14, 4.3e-4 tol
MIRROR_C = 0.01


def mirror_state(state):
    return State(state.rho, -state.v, state.theta)


def mirrored_pair(gas, pair, exact):
    """The family-3 pair from mirror(U+) at -sigma that mirrors the family-1 pair.

    exact builds it from the mirrored endpoints and speed; otherwise solve_rh
    solves it at the strength that puts its speed at -sigma up to round-off.
    """
    left = mirror_state(pair.right)
    strength = char_speed(gas, left, 3) + pair.sigma
    if exact:
        return RHPair(left=left, right=mirror_state(pair.left), sigma=-pair.sigma, family=3, strength=strength)
    return solve_rh(gas, left, 3, strength)


def mirrored(prof):
    """prof under the mirror (x, v) -> (-x, -v): samples, steps and dense output."""
    t = prof.trajectory
    traj = replace(t, ts=-t.ts, ys=t.ys * MIRROR, hs=-t.hs, Q=t.Q * -MIRROR[:, None])
    return Profile(
        sigma=-prof.sigma, left=prof.right * MIRROR, right=prof.left * MIRROR, trajectory=traj, diagnostics={},
    )


def mirror_shocks(gas, pair, exact):
    """The family-1 profile of pair and the mirror image of its family-3 counterpart's profile."""
    one = shock_profile(gas, pair)
    try:
        three = shock_profile(gas, mirrored_pair(gas, pair, exact))
    except NoConnectionError as exc:
        raise AssertionError(
            f"mirror (x, v) -> (-x, -v): the family-1 shock at strength {pair.strength:g} connects, "
            f"the family-3 shock from mirror(U+) at -sigma does not: {exc}"
        ) from None
    return one, mirrored(three)


def zero_blind_bits(a):
    """The bytes of a with -0.0 read as 0.0: the mirror keeps every value, not the sign of a zero."""
    return (a + 0.0).tobytes()


def assert_mirror_bits(gas, pair):
    one, image = mirror_shocks(gas, pair, exact=True)
    a, b = one.trajectory, image.trajectory
    fields = ("ts", "ys", "hs", "Q")
    same = [f for f in fields if zero_blind_bits(getattr(a, f)) == zero_blind_bits(getattr(b, f))] if a.n == b.n else []
    assert same == list(fields) and a.stats == b.stats, (
        f"mirror (x, v) -> (-x, -v): at strength {pair.strength:g} the family-3 profile is not the family-1 profile "
        f"mirrored bit for bit ({a.n} and {b.n} samples, equal fields {same})"
    )


def assert_mirror_within(gas, pair, bound):
    one, image = mirror_shocks(gas, pair, exact=False)
    dev = compare_profiles(one, image, matching="v").sup
    assert dev <= bound, (
        f"mirror (x, v) -> (-x, -v): at strength {pair.strength:g} the family-3 profile deviates {dev:.3e} "
        f"from the family-1 profile mirrored, past {bound:.1e}"
    )


def planted_tw_ode(*edits):
    """tw_singular_ode on a copy of TW_RHS with each (old, new) line edit made; new None keeps the line."""
    lines = list(reduction.TW_RHS.lines)
    for old, new in edits:
        lines[lines.index(old)] = old if new is None else new
    # kernels and callbacks are compiled once per source name, so each copy has a name of its own
    changed = [new for _, new in edits if new is not None]
    name = f"travelling-wave planted {'; '.join(changed)}" if changed else "travelling-wave copy"
    planted = replace(reduction.TW_RHS, name=name, lines=tuple(lines))

    def build(gas, sigma):
        F, zeta = reduction.rhs_functions(planted, (*reduction._gas_constants(gas), float(sigma)))
        return SingularODE(F_eval=F, zeta_eval=zeta)

    return build


class TestMirror:
    """A family-1 shock from U- at sigma and the family-3 shock from mirror(U+) at -sigma are one profile.

    The mirror (x, v) -> (-x, -v) maps one onto the other. Every step of
    the pipeline is odd or even in v and sigma, and negation is exact, so
    where the mirrored endpoints are exact the two shots agree bit for bit,
    the sign of a zero aside; where solve_rh builds the mirrored pair, within
    MIRROR_C x the default tol.
    """

    @pytest.mark.parametrize("strength", [0.05, 0.2, 0.5, 2.0])
    def test_bit_for_bit_from_exact_endpoints(self, gasm, strength):
        assert_mirror_bits(gasm, solve_rh(gasm, State(1.0, 0.0, 1.0), 1, strength))

    @pytest.mark.parametrize("strength", [0.05, 0.2, 0.5, 2.0])
    def test_power_law_gas_within_c_tol(self, strength):
        gas = GasModel(nu_law=PowerLaw(1.2, 0.5), k_law=PowerLaw(0.9, -0.3))
        assert_mirror_within(gas, solve_rh(gas, State(1.0, 0.0, 1.0), 1, strength), MIRROR_C * sode.DEFAULT_TOL)

    @settings(max_examples=8, deadline=None)
    @given(
        gamma=st.floats(1.2, 5.0 / 3.0),
        nu=st.tuples(st.floats(0.7, 1.4), st.floats(-0.5, 1.0)),
        k=st.tuples(st.floats(0.7, 1.4), st.floats(-0.5, 1.0)),
        strength=st.floats(0.05, 2.0),
    )
    def test_generated_gases_within_c_tol(self, gamma, nu, k, strength):
        gas = GasModel(gamma=gamma, nu_law=PowerLaw(*nu), k_law=PowerLaw(*k))
        assert_mirror_within(gas, solve_rh(gas, State(1.0, 0.0, 1.0), 1, strength), MIRROR_C * sode.DEFAULT_TOL)

    @pytest.mark.parametrize("new", [None, "M12 = p_theta * abs(s) / theta"], ids=["copy", "planted"])
    def test_a_planted_odd_in_v_slip_breaks_it(self, gasm, monkeypatch, new):
        # |s| for s in one line of a copy of TW_RHS: family 1, where s = v - sigma > 0, keeps its profile
        monkeypatch.setattr(profiles, "tw_singular_ode", planted_tw_ode(("M12 = p_theta * s / theta", new)))
        pair = solve_rh(gasm, State(1.0, 0.0, 1.0), 1, 0.5)
        bound = MIRROR_C * sode.DEFAULT_TOL
        checks = (lambda: assert_mirror_bits(gasm, pair), lambda: assert_mirror_within(gasm, pair, bound))
        for check in checks:
            if new is None:  # the copy as it stands keeps the mirror
                check()
            else:
                with pytest.raises(AssertionError, match=r"^mirror \(x, v\) -> \(-x, -v\): "):
                    check()


# the boost's bound in units of the default tol times the jump: over both families, the default and the
# power-law gas, strengths 0.05 to 2 and boosts -0.6, 0.75 and 3, the worst read 46.5 (family 1 at 0.05 on
# the power-law gas), and it falls like 1 / strength: the step control resolves a weak shock relative to |U|
BOOST_C = 100.0
POWER_LAW_GAS = GasModel(nu_law=PowerLaw(1.2, 0.5), k_law=PowerLaw(0.9, -0.3))


def unboosted(prof, V):
    """prof with V taken off its v column, its endpoints and its speed; the dense output's steps are unchanged."""
    shift = np.array([0.0, V, 0.0, 0.0, 0.0])
    t = prof.trajectory
    traj = replace(t, ys=t.ys - shift)
    return Profile(
        sigma=prof.sigma - V, left=prof.left - shift, right=prof.right - shift, trajectory=traj, diagnostics={},
    )


def assert_boost_within(gas, left, family, strength, V, bound_c=BOOST_C):
    """The shock from (rho, v + V, theta), matched on rho with V off its v, is the shock from left within C tol jump."""
    pair = solve_rh(gas, left, family, strength)
    moved = solve_rh(gas, State(left.rho, left.v + V, left.theta), family, strength)
    name = f"Galilean boost (v, sigma) -> (v + V, sigma + V) by V = {V:g}"
    assert abs(moved.sigma - (pair.sigma + V)) <= 4e-16 * (1.0 + abs(V) + abs(pair.sigma)), (
        f"{name}: the boosted speed {moved.sigma!r} is not sigma + V = {pair.sigma + V!r}"
    )
    one = shock_profile(gas, pair)
    try:
        image = unboosted(shock_profile(gas, moved), V)
    except NoConnectionError as exc:
        raise AssertionError(
            f"{name}: the family-{family} shock at strength {strength:g} connects, the boosted one does not: {exc}"
        ) from None
    jump = _sup(one.left - one.right)
    dev = compare_profiles(one, image, matching="rho").sup
    assert dev <= bound_c * sode.DEFAULT_TOL * jump, (
        f"{name}: at strength {strength:g} the boosted family-{family} profile deviates {dev:.3e} from the "
        f"unboosted one, past {bound_c:g} x tol x the jump {jump:.3e}"
    )


def drawn_strength(gas, left, family, frac):
    """Family 1: log-uniform in [0.05, 2] as frac runs over [0, 1]; family 3: 0.1 to 0.7 of the admissible bound."""
    if family == 1:
        return 0.05 * (2.0 / 0.05) ** frac
    return (0.1 + 0.6 * frac) * sound_speed(gas, left) * (1.0 - np.sqrt((gas.gamma - 1.0) / (2.0 * gas.gamma)))


class TestGalileanBoost:
    """The boost (v, sigma) -> (v + V, sigma + V) maps a shock onto the shock from the boosted left state.

    The travelling-wave field reads v only through s = v - sigma, and the
    jump conditions only through v - sigma, so the two profiles agree with
    V taken off v, within BOOST_C x the default tol x the jump.
    """

    @pytest.mark.parametrize("gas", [GasModel(), POWER_LAW_GAS], ids=["default", "power-law"])
    @pytest.mark.parametrize("family,strength", [
        (1, 0.05), (1, 0.2), (1, 0.5), (1, 2.0), (3, 0.05), (3, 0.2), (3, 0.5),
    ])
    def test_within_c_tol_of_the_jump(self, gas, family, strength):
        assert_boost_within(gas, State(1.0, 0.0, 1.0), family, strength, 0.75)

    @settings(max_examples=8, deadline=None)
    @given(
        gamma=st.floats(1.2, 5.0 / 3.0),
        nu=st.tuples(st.floats(0.7, 1.4), st.floats(-0.5, 1.0)),
        k=st.tuples(st.floats(0.7, 1.4), st.floats(-0.5, 1.0)),
        family=st.sampled_from([1, 3]),
        frac=st.floats(0.0, 1.0),
        V=st.floats(-1.0, 3.0),
    )
    def test_generated_gases_and_boosts(self, gamma, nu, k, family, frac, V):
        gas = GasModel(gamma=gamma, nu_law=PowerLaw(*nu), k_law=PowerLaw(*k))
        left = State(1.0, 0.0, 1.0)
        assert_boost_within(gas, left, family, drawn_strength(gas, left, family, frac), V)

    @pytest.mark.parametrize("new", [None, "M12 = p_theta * v / theta"], ids=["copy", "planted"])
    def test_a_planted_v_for_s_breaks_it(self, gasm, monkeypatch, new):
        # v where s = v - sigma is meant, in one line of a copy of TW_RHS: the standing shock (sigma = 0 up to
        # round-off, so s is v) keeps its profile, and the boost by 0.75 moves it off
        monkeypatch.setattr(profiles, "tw_singular_ode", planted_tw_ode(("M12 = p_theta * s / theta", new)))
        standing = State(1.0, C0 + 0.5, 1.0)
        assert abs(solve_rh(gasm, standing, 1, 0.5).sigma) <= 1e-15
        if new is None:
            assert_boost_within(gasm, standing, 1, 0.5, 0.75)
        else:
            with pytest.raises(AssertionError, match=r"^Galilean boost \(v, sigma\) -> \(v \+ V, sigma \+ V\) by V = 0.75: "):
                assert_boost_within(gasm, standing, 1, 0.5, 0.75)


# the dilation's and the density scaling's bounds in units of the default tol times the jump. Measured over
# both families, the default and power-law gases at strengths 0.05 to 2 (lam = 2, a = 4), and 300 drawn gases,
# strengths, lam in [0.5, 2] and a in [0.25, 4]: the worst read 72.1 and 55.7 (family 1 at 0.05), falling like
# 1 / strength as the boost's does
DILATION_C = 150.0
DENSITY_C = 120.0


def transport_scaled(gas, factor, **changes):
    """gas with each transport coefficient c rho^e replaced by factor(e) c rho^e, and any other field changed."""
    nu, k = gas.nu_law, gas.k_law
    return replace(
        gas, nu_law=PowerLaw(factor(nu.exponent) * nu.coeff, nu.exponent),
        k_law=PowerLaw(factor(k.exponent) * k.coeff, k.exponent), **changes,
    )


def rescaled(prof, scale):
    """prof with each column of its samples, endpoints and dense output times scale; x is left as it is."""
    scale = np.asarray(scale, dtype=float)
    t = prof.trajectory
    traj = replace(t, ys=t.ys * scale, Q=t.Q * scale[:, None])
    return Profile(
        sigma=prof.sigma, left=prof.left * scale, right=prof.right * scale, trajectory=traj, diagnostics={},
    )


def assert_image_within(name, gas, pair, image_gas, image_pair, back, bound_c):
    """The shock of image_pair in image_gas, with its columns times back, is the shock of pair within C tol jump.

    compare_profiles reads no x, but z = (v_x, theta_x) carries the scale of x.
    """
    one = shock_profile(gas, pair)
    try:
        image = rescaled(shock_profile(image_gas, image_pair), back)
    except NoConnectionError as exc:
        raise AssertionError(
            f"{name}: the family-{pair.family} shock at strength {pair.strength:g} connects, its image does not: {exc}"
        ) from None
    jump = _sup(one.left - one.right)
    dev = compare_profiles(one, image, matching="v").sup
    assert dev <= bound_c * sode.DEFAULT_TOL * jump, (
        f"{name}: at strength {pair.strength:g} the family-{pair.family} image deviates {dev:.3e} from the "
        f"shock it maps onto, past {bound_c:g} x tol x the jump {jump:.3e}"
    )


def assert_dilation_within(gas, left, family, strength, lam):
    """(nu, k) -> lam (nu, k): the same pair connects with x times lam and z = (v_x, theta_x) over lam."""
    pair = solve_rh(gas, left, family, strength)
    assert_image_within(
        f"dilation (nu, k) -> lam (nu, k) by lam = {lam:g}", gas, pair, transport_scaled(gas, lambda e: lam), pair,
        [1.0, 1.0, 1.0, lam, lam], DILATION_C,
    )


def assert_density_scaling_within(gas, left, family, strength, a):
    """(rho, nu, k) -> a (rho, nu, k): the shock from (a rho, v, theta) is the shock from left with rho times a.

    A law c rho^e that gives a nu at a rho has the coefficient c a^(1 - e),
    and the vacuum bound scales with rho.
    """
    name = f"density scaling (rho, nu, k) -> a (rho, nu, k) by a = {a:g}"
    dense = transport_scaled(gas, lambda e: a ** (1.0 - e), c_rho=a * gas.c_rho)
    pair = solve_rh(gas, left, family, strength)
    moved = solve_rh(dense, State(a * left.rho, left.v, left.theta), family, strength)
    assert abs(moved.sigma - pair.sigma) <= 4e-16 * (1.0 + abs(pair.sigma)), (
        f"{name}: the scaled speed {moved.sigma!r} is not sigma = {pair.sigma!r}"
    )
    assert_image_within(name, gas, pair, dense, moved, [1.0 / a, 1.0, 1.0, 1.0, 1.0], DENSITY_C)


DRAWN_GASES = st.builds(
    lambda gamma, nu, k: GasModel(gamma=gamma, nu_law=PowerLaw(*nu), k_law=PowerLaw(*k)),
    gamma=st.floats(1.2, 5.0 / 3.0),
    nu=st.tuples(st.floats(0.7, 1.4), st.floats(-0.5, 1.0)),
    k=st.tuples(st.floats(0.7, 1.4), st.floats(-0.5, 1.0)),
)


class TestDilation:
    """The dilation (nu, k) -> lam (nu, k) maps each shock onto itself with x -> lam x and z -> z / lam.

    The jump conditions hold no transport coefficient, so the pair is the
    same; the profile with z times lam equals the unscaled one within
    DILATION_C x the default tol x the jump.
    """

    @pytest.mark.parametrize("gas", [GasModel(), POWER_LAW_GAS], ids=["default", "power-law"])
    @pytest.mark.parametrize("family,strength", [
        (1, 0.05), (1, 0.2), (1, 0.5), (1, 2.0), (3, 0.05), (3, 0.2), (3, 0.5),
    ])
    def test_within_c_tol_of_the_jump(self, gas, family, strength):
        assert_dilation_within(gas, State(1.0, 0.0, 1.0), family, strength, 2.0)

    @settings(max_examples=8, deadline=None)
    @given(gas=DRAWN_GASES, family=st.sampled_from([1, 3]), frac=st.floats(0.0, 1.0), lam=st.floats(0.5, 2.0))
    def test_generated_gases_and_factors(self, gas, family, frac, lam):
        left = State(1.0, 0.0, 1.0)
        assert_dilation_within(gas, left, family, drawn_strength(gas, left, family, frac), lam)

    @pytest.mark.parametrize(
        "new", [None, "Fz2 = (theta_sq / k ** 2) * (M21 * z1 + M22 * z2)"], ids=["copy", "planted"],
    )
    def test_a_planted_k_squared_breaks_it(self, gasm, monkeypatch, new):
        # k^2 where k is meant, in one line of a copy of TW_RHS: at the default gas's k = 1 the shock keeps its
        # profile bit for bit, and the dilation by 2 reads 4 for 2
        line = "Fz2 = (theta_sq / k) * (M21 * z1 + M22 * z2)"
        monkeypatch.setattr(profiles, "tw_singular_ode", planted_tw_ode((line, new)))
        if new is None:
            assert_dilation_within(gasm, State(1.0, 0.0, 1.0), 1, 0.5, 2.0)
        else:
            with pytest.raises(AssertionError, match=r"^dilation \(nu, k\) -> lam \(nu, k\) by lam = 2: "):
                assert_dilation_within(gasm, State(1.0, 0.0, 1.0), 1, 0.5, 2.0)


class TestDensityScaling:
    """The scaling (rho, nu, k) -> a (rho, nu, k) maps each shock onto the shock from (a rho, v, theta), x unchanged.

    Mass, momentum and energy fluxes are homogeneous of degree one in rho,
    p and the transport coefficients, and the sound speed does not read
    rho, so the speed is the same within round-off and the profile with
    rho over a equals the unscaled one within DENSITY_C x the default tol
    x the jump.
    """

    @pytest.mark.parametrize("gas", [GasModel(), POWER_LAW_GAS], ids=["default", "power-law"])
    @pytest.mark.parametrize("family,strength", [
        (1, 0.05), (1, 0.2), (1, 0.5), (1, 2.0), (3, 0.05), (3, 0.2), (3, 0.5),
    ])
    def test_within_c_tol_of_the_jump(self, gas, family, strength):
        assert_density_scaling_within(gas, State(1.0, 0.0, 1.0), family, strength, 4.0)

    @settings(max_examples=8, deadline=None)
    @given(gas=DRAWN_GASES, family=st.sampled_from([1, 3]), frac=st.floats(0.0, 1.0), a=st.floats(0.25, 4.0))
    def test_generated_gases_and_factors(self, gas, family, frac, a):
        left = State(1.0, 0.0, 1.0)
        assert_density_scaling_within(gas, left, family, drawn_strength(gas, left, family, frac), a)

    @pytest.mark.parametrize("new", [
        (None, None),
        ("k = k_c if k_e == 0.0 else k_c * (1.0 + rho) ** k_e", "dk = 0.0 if k_e == 0.0 else k_e * k / (1.0 + rho)"),
    ], ids=["copy", "planted"])
    def test_a_law_at_the_wrong_density_breaks_it(self, monkeypatch, new):
        # k read at 1 + rho where rho is meant, with its derivative, in a copy of TW_RHS: a law of its own, whose
        # shock connects, but not c rho^e, so scaling its coefficient by a^(1 - e) does not scale k by a
        lines = ("k = k_c if k_e == 0.0 else k_c * rho ** k_e", "dk = 0.0 if k_e == 0.0 else k_e * k / rho")
        monkeypatch.setattr(profiles, "tw_singular_ode", planted_tw_ode(*zip(lines, new)))
        if new[0] is None:
            assert_density_scaling_within(POWER_LAW_GAS, State(1.0, 0.0, 1.0), 1, 0.5, 4.0)
        else:
            with pytest.raises(AssertionError, match=r"^density scaling \(rho, nu, k\) -> a \(rho, nu, k\) by a = 4: "):
                assert_density_scaling_within(POWER_LAW_GAS, State(1.0, 0.0, 1.0), 1, 0.5, 4.0)


class TestGeneratedGases:
    """Profile invariants over generated gases, transport laws, families and strengths."""

    @settings(max_examples=15, deadline=None)
    @given(
        gamma=st.floats(1.2, 5.0 / 3.0),
        nu=st.tuples(st.floats(0.7, 1.4), st.floats(-0.5, 1.0)),
        k=st.tuples(st.floats(0.7, 1.4), st.floats(-0.5, 1.0)),
        left=st.tuples(st.floats(0.9, 1.1), st.floats(-0.1, 0.1), st.floats(0.9, 1.1)),
        family=st.sampled_from([1, 3]),
        frac=st.floats(0.0, 1.0),
    )
    def test_profile_invariants(self, gamma, nu, k, left, family, frac):
        # family 1: strength in [0.08, 3]; family 3: 0.1 to 0.99 of the
        # admissible bound (the benchmark sweep's range below the bound;
        # weaker shocks only take longer). Strong 3-shocks of a low-gamma
        # gas can put the right state below the vacuum bound; solve_rh
        # rejects those.
        gas = GasModel(gamma=gamma, nu_law=PowerLaw(*nu), k_law=PowerLaw(*k))
        U_minus = State(*left)
        if family == 1:
            strength = 0.08 + frac * (3.0 - 0.08)
        else:
            c = sound_speed(gas, U_minus)
            share = 0.1 + frac * (0.99 - 0.1)
            strength = share * c * (1.0 - np.sqrt((gamma - 1.0) / (2.0 * gamma)))
        try:
            pair = solve_rh(gas, U_minus, family, strength)
        except DomainError as exc:
            assume("vacuum bound" not in str(exc))
            raise
        prof = shock_profile(gas, pair)
        assert flux_constants(gas, prof).drift <= 1e-6
        assert prof.diagnostics["extended_residual_rel"] <= 1e-6
        assert compare_profiles(prof, gilbarg_oracle(gas, pair), matching="v").sup <= 1e-5
        again = shock_profile(gas, pair).trajectory
        assert again.ts.tobytes() == prof.trajectory.ts.tobytes()
        assert again.Vs.tobytes() == prof.trajectory.Vs.tobytes()


class TestBeckerShock:
    """Both shock routes against Becker's closed form (see becker.py): constant nu and k = c_p nu.

    The bounds are measured: over 300 draws of these ranges, H drifted by
    at most 2.5e-10 relative and the error in w was at most 1.2e-9 of the
    jump, the largest at the weakest shocks.
    """

    @settings(max_examples=20, deadline=None)
    @given(
        gamma=st.floats(1.2, 5.0 / 3.0),
        nu=st.floats(0.3, 1.4),
        left=st.tuples(st.floats(0.9, 1.1), st.floats(-0.1, 0.1), st.floats(0.9, 1.1)),
        family=st.sampled_from([1, 3]),
        frac=st.floats(0.0, 1.0),
    )
    def test_profile_and_oracle_match_the_closed_form(self, gamma, nu, left, family, frac):
        # family 1: strength log-uniform in [0.05, 3]; family 3: 0.1 to 0.99 of the admissible bound
        gas = becker_gas(gamma, nu)
        U_minus = State(*left)
        if family == 1:
            strength = 0.05 * (3.0 / 0.05) ** frac
        else:
            bound = sound_speed(gas, U_minus) * (1.0 - np.sqrt((gamma - 1.0) / (2.0 * gamma)))
            strength = (0.1 + 0.89 * frac) * bound
        try:
            pair = solve_rh(gas, U_minus, family, strength)
        except DomainError as exc:
            assume("vacuum bound" not in str(exc))
            raise
        exact = BeckerShock(gas, *left, pair.sigma)
        assert abs(exact.w2 - (pair.right.v - pair.sigma)) <= 1e-12 * exact.jump
        profile = shock_profile(gas, pair).trajectory
        oracle = gilbarg_oracle(gas, pair).trajectory
        for xs, v, theta in ((profile.xs, profile.Vs[:, 1], profile.Vs[:, 2]),
                             (oracle.xs, oracle.Vs[:, 0], oracle.Vs[:, 1])):
            assert exact.enthalpy_drift(v, theta) <= 1e-9
            assert exact.w_error(xs, v) <= 1e-8

    def test_closed_form_detects_another_prandtl_number(self):
        # k 5% off c_p nu: H is no longer constant, and x(w) no longer fits
        gas = GasModel(k_law=PowerLaw(1.05 * 3.5))
        pair = solve_rh(gas, State(1.0, 0.0, 1.0), 1, 0.5)
        traj = shock_profile(gas, pair).trajectory
        exact = BeckerShock(gas, 1.0, 0.0, 1.0, pair.sigma)
        assert exact.enthalpy_drift(traj.Vs[:, 1], traj.Vs[:, 2]) > 1e-4
        assert exact.w_error(traj.xs, traj.Vs[:, 1]) > 1e-4


class TestNoLapackOnTheProfilePath:
    """Shocks, their oracle and checks, and layers call no numpy.linalg routine and no BLAS dot.

    Every rest point they linearize has a leftover block of at most 2x2,
    whose spectrum `linearize` takes in closed form.
    """

    @pytest.fixture
    def no_lapack(self, monkeypatch):
        def refuse(name):
            def call(*args, **kwargs):
                raise AssertionError(f"{name} called on the profile path")
            return call

        for name in dir(np.linalg):
            routine = getattr(np.linalg, name)
            if not name.startswith("_") and callable(routine) and not isinstance(routine, type):
                monkeypatch.setattr(np.linalg, name, refuse(f"numpy.linalg.{name}"))
        for name in ("dot", "vdot", "inner"):
            monkeypatch.setattr(np, name, refuse(f"numpy.{name}"))

    @pytest.mark.parametrize("family", [1, 3])
    def test_shock_oracle_and_checks(self, gasm, family, no_lapack):
        pair = solve_rh(gasm, State(1.0, 0.0, 1.0), family, 0.3)
        prof = shock_profile(gasm, pair)
        assert compare_profiles(prof, gilbarg_oracle(gasm, pair), matching="v").sup <= 1e-6
        assert flux_constants(gasm, prof).drift <= 1e-9

    @pytest.mark.parametrize("v_star", [-0.3, 1e-7])
    def test_layers(self, gasm, v_star, no_lapack):
        prof = boundary_layer(gasm, State(1.0, v_star, 1.0))
        assert prof.diagnostics["mode"] == "rescaled"
        assert prof.diagnostics["flux_drift"] <= 1e-9

    def test_the_guard_refuses(self, no_lapack):
        with pytest.raises(AssertionError, match="numpy.linalg.eig called"):
            np.linalg.eig(np.eye(2))


class TestCompareProfiles:
    def test_self_comparison_is_zero(self, prof_f1):
        rep = compare_profiles(prof_f1, prof_f1)
        assert rep.sup == 0.0

    def test_translation_invariance(self, prof_f1):
        shifted = replace(prof_f1, trajectory=replace(prof_f1.trajectory, ts=prof_f1.trajectory.ts + 17.0))
        assert shifted.trajectory.xs[0] == prof_f1.trajectory.xs[0] + 17.0
        rep = compare_profiles(prof_f1, shifted, matching="v")
        assert rep.sup == 0.0

    def test_translation_of_a_rescaled_run(self, gasm):
        # in rescaled mode x is the last column of ys, and shifting it moves the dense output
        prof = boundary_layer(gasm, State(1.0, -0.3, 1.0))
        traj = prof.trajectory
        assert np.ptp(traj.xs) > 0.1
        shifted = _raised(prof, -1, 17.0)
        assert np.array_equal(shifted.trajectory.xs, traj.xs + 17.0)
        assert np.array_equal(shifted.trajectory.ts, traj.ts)
        assert_dense_x_matches_samples(shifted.trajectory)
        mid = np.arange(traj.hs.size), 0.5
        assert np.allclose(
            shifted.trajectory.step_eval(*mid)[0][:, -1], traj.step_eval(*mid)[0][:, -1] + 17.0, rtol=0, atol=1e-12,
        )
        assert compare_profiles(prof, shifted, matching="v").sup == 0.0

    def test_missing_matching_column(self, prof_f1, oracle_f1):
        # x is no state component, and the oracle integrates only (v, theta)
        with pytest.raises(DomainError):
            compare_profiles(prof_f1, prof_f1, matching="x")
        with pytest.raises(DomainError):
            compare_profiles(prof_f1, oracle_f1, matching="z1")

    def test_non_monotone_matching_rejected(self, prof_f1):
        # z1 = v_x rises from 0 to its peak and falls back across the shock; eval_where names its index
        with pytest.raises(NonMonotoneError, match="^component 3 is not strictly monotone along the trajectory$"):
            compare_profiles(prof_f1, prof_f1, matching="z1")

    def test_the_overlap_is_checked_before_monotonicity(self, prof_f1):
        # z1 is not monotone, but ranges that do not overlap are refused first
        with pytest.raises(DomainError, match="^profiles do not overlap in the matching component$"):
            compare_profiles(prof_f1, _raised(prof_f1, 3, 100.0), matching="z1")

    def test_disjoint_ranges_rejected(self, prof_f1):
        with pytest.raises(DomainError):
            compare_profiles(prof_f1, _raised(prof_f1, 1, 100.0), matching="v")

    def test_detects_deviation(self, prof_f1):
        rep = compare_profiles(prof_f1, _raised(prof_f1, 2, 1e-3), matching="v")
        assert rep.per_column["theta"] == pytest.approx(1e-3, rel=1e-6)
        assert rep.sup == pytest.approx(1e-3, rel=1e-6)

    def test_rejects_inputs_without_a_trajectory(self, prof_f1):
        with pytest.raises(TypeError):
            compare_profiles({"v": prof_f1.trajectory.Vs[:, 1]}, prof_f1)


def unique_grid_compare(a, b, matching="v"):
    """compare_profiles with its grid built by np.unique: the grid and the report."""
    idx = [profiles._integrated_columns(obj).index(matching) for obj in (a, b)]
    ma, mb = (obj.trajectory.Vs[:, j] for obj, j in zip((a, b), idx))
    lo, hi = max(ma.min(), mb.min()), min(ma.max(), mb.max())
    grid = np.unique(np.concatenate([
        ma[(ma >= lo) & (ma <= hi)], mb[(mb >= lo) & (mb <= hi)], np.array([lo, hi]),
    ]))
    ca, cb = (profiles._columns_at(obj, obj.trajectory.eval_where(j, grid)) for obj, j in zip((a, b), idx))
    per_column = {c: float(np.max(np.abs(ca[c] - cb[c]))) for c in profiles._COLUMNS if c != matching}
    return grid, CompareReport(
        sup=max(per_column.values()), per_column=per_column, overlap=(float(lo), float(hi)), n_points=len(grid),
    )


def report_bits(rep):
    """Every field of a CompareReport, floats by their bits (so -0.0 differs from 0.0)."""
    return (
        rep.sup.hex(), [(c, v.hex()) for c, v in rep.per_column.items()],
        tuple(x.hex() for x in rep.overlap), rep.n_points,
    )


def inverted_grids(compare, a, b, matching="v"):
    """compare(a, b, matching) and the grids it hands to the inversion of each profile, in order.

    Only the inversions made inside that one call are recorded.
    """
    grids = []
    eval_where = sode.Trajectory.eval_where

    def spy(traj, j, values):
        grids.append(np.asarray(values).tobytes())
        return eval_where(traj, j, values)

    with pytest.MonkeyPatch.context() as monkeypatch:
        monkeypatch.setattr(sode.Trajectory, "eval_where", spy)
        rep = compare(a, b, matching=matching)
    return rep, grids


def assert_grid_matches_unique(a, b, matching="v", compare=compare_profiles):
    """compare_profiles inverts each profile once on np.unique's grid, bit for bit, and reports as it did."""
    rep, grids = inverted_grids(compare, a, b, matching)
    grid, ref = unique_grid_compare(a, b, matching)  # after the spy is gone: its own inversions are not counted
    assert grids == [grid.tobytes()] * 2
    assert report_bits(rep) == report_bits(ref)


def compare_copy(*edits):
    """A copy of compare_profiles compiled from its source with each (old, new) text edit made."""
    source = inspect.getsource(profiles.compare_profiles)
    for old, new in edits:
        assert old in source
        source = source.replace(old, new)
    namespace = {}
    exec(source, dict(vars(profiles)), namespace)
    return namespace["compare_profiles"]


def polyline_profile(v):
    """Direct-mode profile through samples with these v values, joined linearly.

    rho and theta are affine in v, z1 = v^2 and z2 = sin(v), so two sample
    sets give different values between their samples.
    """
    v = np.asarray(v, dtype=float)
    ys = np.column_stack([1.0 + 0.5 * v, v, 1.0 - 0.25 * v, v * v, np.sin(v)])
    Q = np.zeros((v.size - 1, 5, 4))
    Q[:, :, 0] = np.diff(ys, axis=0)
    traj = sode.Trajectory(
        mode="direct", ts=np.arange(v.size, dtype=float), ys=ys, termination=sode.TERM_REACHED_END,
        stats=sode.TrajectoryStats(v.size - 1, 0, 0, 1.0, 0), hs=np.ones(v.size - 1), Q=Q,
    )
    return Profile(sigma=0.0, left=ys[0].copy(), right=ys[-1].copy(), trajectory=traj, diagnostics={})


class TestCompareGrid:
    """The grid has each value once, with np.unique's values, count and order."""

    @settings(max_examples=8, deadline=None)
    @given(
        gamma=st.floats(1.2, 5.0 / 3.0),
        nu=st.tuples(st.floats(0.7, 1.4), st.floats(-0.5, 1.0)),
        k=st.tuples(st.floats(0.7, 1.4), st.floats(-0.5, 1.0)),
        family=st.sampled_from([1, 3]),
        frac=st.floats(0.1, 0.9),
    )
    def test_generated_power_law_shocks(self, gamma, nu, k, family, frac):
        gas = GasModel(gamma=gamma, nu_law=PowerLaw(*nu), k_law=PowerLaw(*k))
        left = State(1.0, 0.0, 1.0)
        bound = sound_speed(gas, left) * (1.0 - np.sqrt((gamma - 1.0) / (2.0 * gamma)))
        pair = solve_rh(gas, left, family, frac * (bound if family == 3 else 2.0))
        prof, oracle = shock_profile(gas, pair), gilbarg_oracle(gas, pair)
        assert_grid_matches_unique(prof, oracle)
        assert_grid_matches_unique(oracle, prof, matching="theta")

    @pytest.mark.parametrize("va,vb", [
        # shared samples, and both overlap ends on samples of both profiles
        ([0.0, 0.25, 0.5, 0.75, 1.0], [0.25, 0.5, 0.6, 1.0, 1.5]),
        # the overlap ends fall on samples of one profile only
        ([0.0, 0.2, 0.4, 0.8], [0.1, 0.3, 0.4, 0.9]),
        # +0.0 in one profile and -0.0 in the other, either first
        ([-1.0, -0.0, 0.5, 1.0], [-0.5, 0.0, 0.3, 2.0]),
        ([-1.0, 0.0, 0.5, 1.0], [-0.5, -0.0, 0.3, 2.0]),
        # a signed zero as the overlap's lower end
        ([-0.0, 0.4, 1.0], [0.0, 0.7, 2.0]),
        ([0.0, 0.4, 1.0], [-0.0, 0.7, 2.0]),
        # a decreasing matching column against an increasing one
        ([1.0, 0.5, 0.0, -0.5], [-1.0, -0.0, 0.5, 0.75]),
    ])
    def test_hand_made_samples(self, va, vb):
        a, b = polyline_profile(va), polyline_profile(vb)
        assert_grid_matches_unique(a, b)
        rep = compare_profiles(a, b)
        lo, hi = rep.overlap
        assert rep.n_points == len({x for x in va + vb if lo <= x <= hi})  # a set holds one of -0.0 and 0.0
        assert rep.sup > 0.0

    @pytest.mark.parametrize("edit", [
        # the grid leaves out the overlap's ends, and the report counts what is left
        ("ma[(ma >= lo) & (ma <= hi)], mb[(mb >= lo) & (mb <= hi)], np.array([lo, hi]),",
         "ma[(ma > lo) & (ma < hi)], mb[(mb > lo) & (mb < hi)],"),
        # the inversions leave out the grid's ends, and the report still counts them
        ("obj.trajectory.eval_where(j, grid)", "obj.trajectory.eval_where(j, grid[1:-1])"),
    ], ids=["grid", "inverted-grid"])
    def test_a_grid_without_the_overlap_ends_fails(self, prof_f1, oracle_f1, edit):
        # the check above can fail: a compare_profiles that drops the overlap's ends
        planted = compare_copy(edit)
        hand_made = polyline_profile([0.0, 0.2, 0.4, 0.8]), polyline_profile([0.1, 0.3, 0.4, 0.9])
        for a, b in (hand_made, (prof_f1, oracle_f1)):
            assert_grid_matches_unique(a, b, compare=compare_copy())  # the copy as it stands passes
            with pytest.raises(AssertionError):
                assert_grid_matches_unique(a, b, compare=planted)


class TestMaxExtendedResidual:
    def test_small_on_profile(self, gasm, pair_f1, prof_f1):
        ode = tw_singular_ode(gasm, pair_f1.sigma)
        worst, _ = max_extended_residual(ode, prof_f1.trajectory)
        assert worst <= 1e-7

    def test_detects_a_raised_component(self, gasm, pair_f1, prof_f1):
        # theta + 1e-3 everywhere leaves U' unchanged but moves F(U)
        ode = tw_singular_ode(gasm, pair_f1.sigma)
        worst, _ = max_extended_residual(ode, _raised(prof_f1, 2, 1e-3).trajectory)
        assert worst > 1e-5

    def test_relative_value_detects_a_raised_component(self, gasm, pair_f1, prof_f1):
        # on the scale of sup |F| the clean profile reads about 3e-8 and a
        # theta raised by 1e-3 about 1e-3
        ode = tw_singular_ode(gasm, pair_f1.sigma)
        assert prof_f1.diagnostics["extended_residual_rel"] <= 1e-6
        worst, f_sup = max_extended_residual(ode, _raised(prof_f1, 2, 1e-3).trajectory)
        assert f_sup > 0.0
        assert _relative_residual(worst, f_sup) > 1e-4

    @pytest.mark.parametrize("amplitude", [1e-3, -1e-3])
    def test_detects_a_raised_component_next_to_the_sonic_set(self, gasm, amplitude):
        # along a layer at v* = 1e-9, |zeta| = |v| stays below 1e-8; the clean
        # layer reads about 2e-7 and a theta raised by 1e-3 above 1e-4
        prof = boundary_layer(gasm, State(1.0, 1e-9, 1.0), amplitude=amplitude)
        assert float(np.max(np.abs(prof.trajectory.Vs[:, 1]))) < 1e-8
        assert prof.diagnostics["extended_residual_rel"] <= 1e-6
        worst, f_sup = max_extended_residual(steady_singular_ode(gasm), _raised(prof, 2, 1e-3).trajectory)
        assert _relative_residual(worst, f_sup) > 1e-4


def ref_max_extended_residual(ode, traj):
    """The per-midpoint loop of max_extended_residual: one float F call per midpoint."""
    rescaled = traj.mode == "rescaled"
    worst = f_sup = 0.0
    ys, dys = traj.step_eval(np.arange(traj.hs.size), 0.5)
    for y, dy in zip(ys.tolist(), dys.tolist()):
        V = y[:-1] if rescaled else y
        z = ode.zeta_eval(V)
        Uprime = [a / dy[-1] for a in dy[:-1]] if rescaled else dy
        F = ode.F_eval(V)
        worst = max(worst, max([abs(z * a - f) for a, f in zip(Uprime, F)]))
        f_sup = max(f_sup, max(map(abs, F)))
    return worst, f_sup


def ref_flux_constants(gas, prof):
    """The per-sample loop of flux_constants: (values, reference, drift)."""
    rows = [_flux_integrals(gas, prof.sigma, *U) for U in prof.trajectory.Vs.tolist()]
    values = np.array(rows).reshape(-1, 3)
    rho, v, theta = prof.right[:3].tolist()
    reference = np.array(_flux_integrals(gas, prof.sigma, rho, v, theta, 0.0, 0.0))
    drift = float(np.max(np.abs(values - reference) / np.maximum(np.abs(reference), 1.0)))
    return values, reference, drift


def ref_oracle_columns(oracle, V):
    """The per-sample loop of OracleTrajectory._columns."""
    vs, ths = V[:, 0], V[:, 1]
    F = _flux_form(oracle.gas, oracle.sigma, oracle.m, oracle.Pi, oracle.Eflux).F_eval
    z = np.array([F(state) for state in V.tolist()]).reshape(-1, 2)
    return {"rho": oracle.m / (vs - oracle.sigma), "v": vs.copy(), "theta": ths.copy(), "z1": z[:, 0], "z2": z[:, 1]}


def bits(x):
    """The bytes of a float or an array, so equality is bit for bit (signed zeros and NaN included)."""
    return np.asarray(x, dtype=float).tobytes()


def power_gas_of(gamma, nu, k):
    return GasModel(gamma=gamma, nu_law=PowerLaw(*nu), k_law=PowerLaw(*k))


class TestChecksMatchPerSampleReference:
    """Each check evaluates its algebra once over all samples, with the bits of the per-sample loop."""

    def assert_profile_checks_same(self, gas, prof):
        ode = tw_singular_ode(gas, prof.sigma)
        new = max_extended_residual(ode, prof.trajectory)
        ref = ref_max_extended_residual(ode, prof.trajectory)
        assert (bits(new[0]), bits(new[1])) == (bits(ref[0]), bits(ref[1]))
        rec = flux_constants(gas, prof)
        values, reference, drift = ref_flux_constants(gas, prof)
        assert rec.values.shape == values.shape
        assert (bits(rec.values), bits(rec.reference), bits(rec.drift)) == (bits(values), bits(reference), bits(drift))
        return new

    def assert_oracle_columns_same(self, oracle, V):
        new, ref = oracle._columns(V), ref_oracle_columns(oracle, V)
        assert list(new) == list(ref)
        assert all(bits(new[c]) == bits(ref[c]) for c in ref)

    @settings(max_examples=12, deadline=None)
    @given(
        gamma=st.floats(1.2, 5.0 / 3.0),
        nu=st.tuples(st.floats(0.7, 1.4), st.floats(-0.5, 1.0)),
        k=st.tuples(st.floats(0.7, 1.4), st.floats(-0.5, 1.0)),
        family=st.sampled_from([1, 3]),
        frac=st.floats(0.0, 1.0),
    )
    def test_shocks_over_generated_gases(self, gamma, nu, k, family, frac):
        gas = power_gas_of(gamma, nu, k)
        U_minus = State(1.0, 0.0, 1.0)
        bound = sound_speed(gas, U_minus) * (1.0 - np.sqrt((gamma - 1.0) / (2.0 * gamma)))
        strength = 0.08 + frac * 2.9 if family == 1 else (0.1 + 0.8 * frac) * bound
        try:
            pair = solve_rh(gas, U_minus, family, strength)
        except DomainError as exc:
            assume("vacuum bound" not in str(exc))
            raise
        prof = shock_profile(gas, pair)
        self.assert_profile_checks_same(gas, prof)
        oracle = gilbarg_oracle(gas, pair)
        self.assert_oracle_columns_same(oracle, oracle.trajectory.Vs)
        grid = np.linspace(oracle.trajectory.Vs[:, 0].min(), oracle.trajectory.Vs[:, 0].max(), 97)
        self.assert_oracle_columns_same(oracle, oracle.trajectory.eval_where(0, grid))

    @pytest.mark.parametrize("limit", [(1.0, -0.3, 1.0), (1.0, 5e-7, 1.0)], ids=["subsonic", "near-sonic"])
    @pytest.mark.parametrize("gas", [GasModel(), GasModel(nu_law=PowerLaw(0.8, 0.5), k_law=PowerLaw(1.3, -0.25))])
    def test_layers(self, gas, limit):
        prof = boundary_layer(gas, State(*limit), amplitude=1e-3)
        assert prof.trajectory.mode == "rescaled"
        self.assert_profile_checks_same(gas, prof)

    @pytest.mark.parametrize("limit", [(1.0, -0.3, 1.0), (1.0, 5e-7, 1.0)])
    def test_midpoints_on_the_sonic_set_are_checked_alike(self, power_gas, limit):
        # shift v so that one step's midpoint sits on the sonic set within round-off
        prof = boundary_layer(power_gas, State(*limit), amplitude=1e-3)
        traj = prof.trajectory
        mid = traj.step_eval(np.arange(traj.hs.size), 0.5)[0][:, 1]
        k = traj.hs.size // 2
        shifted = _raised(prof, 1, -mid[k])
        worst, _ = self.assert_profile_checks_same(power_gas, shifted)
        assert np.isfinite(worst)

    def test_a_bad_sample_is_a_domain_error(self, gasm, pair_f1, prof_f1, oracle_f1):
        ode = tw_singular_ode(gasm, pair_f1.sigma)
        k = prof_f1.trajectory.n // 2
        ys = prof_f1.trajectory.ys.copy()
        ys[k, 2] = -0.5  # theta < 0 at one sample and at the midpoint of the step it starts
        bad = replace(prof_f1, trajectory=replace(prof_f1.trajectory, ys=ys))
        with pytest.raises(DomainError, match="rho > 0 and theta > 0"):
            max_extended_residual(ode, bad.trajectory)
        with pytest.raises(DomainError, match="theta > 0"):
            flux_constants(gasm, bad)
        V = oracle_f1.trajectory.Vs.copy()
        V[k, 1] = -0.5
        with pytest.raises(DomainError, match="physical region"):
            oracle_f1._columns(V)
        V[k, 1] = np.nan
        with pytest.raises(DomainError, match="physical region"):
            oracle_f1._columns(V)


def run_result(integrate, *args, **kwargs):
    """The bytes of ts, ys, hs and Q, the termination and the stats of a run, or its error class and message."""
    try:
        traj = integrate(*args, **kwargs)
    except Exception as exc:  # compared, then raised again by the caller
        return (type(exc).__name__, str(exc)), exc
    arrays = tuple((a.shape, a.tobytes()) for a in (traj.ts, traj.ys, traj.hs, traj.Q))
    return (traj.mode, traj.termination, traj.stats, arrays), traj


# power-law transport coefficients, constant ones (exponent 0) included
laws = st.builds(PowerLaw, st.floats(0.7, 1.4), st.one_of(st.just(0.0), st.floats(-0.5, 1.0)))


class TestFusedKernelsMatchCallPath:
    """Runs through a kernel with the package's source inlined equal runs through the call source.

    Every integration a profile makes, failed shots included, is run a
    second time with its callbacks wrapped: `sode` then runs the call
    source, which calls them once per stage. Both runs must agree in every
    byte of ts, ys, hs and Q, in the termination and in the stats, and
    the wrapped F must be called exactly n_fevals times.
    """

    @staticmethod
    @contextlib.contextmanager
    def twin_runs():
        """Patch the integrators `profiles` calls to run twice and compare; yields the (label, mode) of each run."""
        runs = []

        def twin(integrate):
            def run(ode, V0, *args, **kwargs):
                m = len(V0)
                assert sode._bound(ode, m)[0].name in ("travelling-wave", "flux-form"), "the package's sources run"
                calls = [0]

                def F(V):
                    calls[0] += 1
                    return ode.F_eval(V)

                wrapped = replace(ode, F_eval=F, zeta_eval=lambda V: ode.zeta_eval(V))
                assert sode._bound(wrapped, m)[0].name == "call"
                fused, out = run_result(integrate, ode, V0, *args, **kwargs)
                called, _ = run_result(integrate, wrapped, V0, *args, **kwargs)
                assert fused == called
                if isinstance(out, Exception):
                    raise out
                assert calls[0] == out.stats.n_fevals
                runs.append((ode.label, out.mode))
                return out

            return run

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(profiles, "integrate_direct", twin(profiles.integrate_direct))
            mp.setattr(profiles, "integrate_rescaled", twin(profiles.integrate_rescaled))
            yield runs

    @pytest.mark.parametrize("family", [1, 3])
    @settings(max_examples=8, deadline=None)
    @given(
        gamma=st.floats(1.2, 5.0 / 3.0),
        nu=laws,
        k=laws,
        frac=st.floats(0.0, 1.0),
        layer=st.tuples(st.floats(0.6, 1.6), st.floats(-0.5, -0.1), st.floats(0.6, 1.6)),
        log_v=st.floats(-6.5, -6.1),
    )
    def test_profiles_oracles_and_layers(self, family, gamma, nu, k, frac, layer, log_v):
        gas = GasModel(gamma=gamma, nu_law=nu, k_law=k)
        U_minus = State(1.0, 0.0, 1.0)
        bound = sound_speed(gas, U_minus) * (1.0 - np.sqrt((gamma - 1.0) / (2.0 * gamma)))
        strength = 0.08 + frac * 2.9 if family == 1 else (0.1 + 0.8 * frac) * bound
        try:
            pair = solve_rh(gas, U_minus, family, strength)
        except DomainError as exc:
            assume("vacuum bound" not in str(exc))
            raise
        rho, _, theta = layer
        with self.twin_runs() as runs:
            shock_profile(gas, pair)
            gilbarg_oracle(gas, pair)
            assert boundary_layer(gas, State(*layer), amplitude=1e-3).trajectory.mode == "rescaled"
            assert boundary_layer(gas, State(rho, 10.0 ** log_v, theta), amplitude=1e-3).trajectory.mode == "rescaled"
        kinds = {(label.split("=")[0], mode) for label, mode in runs}
        assert kinds == {("travelling sigma", "direct"), ("flux form", "direct"), ("steady", "rescaled")}


class TestChecksEvaluateOnce:
    """Each check calls its right-hand side once for all samples, not once per sample."""

    @pytest.fixture(scope="class")
    def wide(self):
        gas = GasModel(nu_law=PowerLaw(0.8, 0.5), k_law=PowerLaw(1.3, -0.25))
        pair = solve_rh(gas, State(1.0, 0.0, 1.0), 1, 1.0)
        prof, oracle = shock_profile(gas, pair), gilbarg_oracle(gas, pair)
        assert prof.trajectory.n >= 200 and oracle.trajectory.n >= 200
        return gas, prof, oracle

    @staticmethod
    def counted(fn, calls):
        def wrapped(*args):
            calls.append(1)
            return fn(*args)
        return wrapped

    def test_max_extended_residual(self, wide):
        gas, prof, _ = wide
        calls = []
        ode = tw_singular_ode(gas, prof.sigma)
        max_extended_residual(replace(ode, F_eval=self.counted(ode.F_eval, calls)), prof.trajectory)
        assert len(calls) == 1

    def test_flux_constants(self, wide, monkeypatch):
        gas, prof, _ = wide
        calls = []
        monkeypatch.setattr(profiles, "_flux_integrals", self.counted(profiles._flux_integrals, calls))
        flux_constants(gas, prof)
        assert len(calls) == 2  # the samples, then the reference

    def test_oracle_columns(self, wide, monkeypatch):
        _, prof, oracle = wide
        calls = []
        def counted_form(*args):
            ode = _flux_form(*args)
            return replace(ode, F_eval=self.counted(ode.F_eval, calls))

        monkeypatch.setattr(profiles, "_flux_form", counted_form)
        oracle._columns(oracle.trajectory.Vs)
        assert len(calls) == 1
        compare_profiles(prof, oracle, matching="v")
        assert len(calls) == 2


def direct_reference(gas, prof, tol=sode.DEFAULT_TOL):
    """The layer swept in x by `integrate_direct` from the same start, to the same cap and length, as a Profile."""
    limit = tuple(prof.right.tolist())
    cap = profiles.LAYER_GROW_CAP * max(1.0, _sup(prof.right))
    stop = sode._StopRule(target=limit, radius=cap, capture=-math.inf, x_floor=-math.inf)  # V past the cap
    start, L = prof.trajectory.Vs[0], prof.diagnostics["length_requested"]
    traj = integrate_direct(steady_singular_ode(gas), start, (L, 0.0), tol=tol, stop_when=stop)
    assert traj.mode == "direct" and traj.termination in (sode.TERM_STOPPED, sode.TERM_REACHED_END)
    return Profile(sigma=0.0, left=traj.final_V, right=prof.right, trajectory=traj, diagnostics={})


def assert_same_extent(prof, ref):
    """prof stops where its direct reference does: both at the growth cap, or both at their full length.

    The reference runs from x = L down to 0, the layer from its start
    down to x <= -L, so the lengths they produce agree within the last
    step of either.
    """
    d, cap = prof.diagnostics, profiles.LAYER_GROW_CAP * max(1.0, _sup(prof.right))
    assert prof.trajectory.termination == sode.TERM_STOPPED
    at_cap = _sup(prof.left - prof.right) > cap
    assert at_cap == (ref.trajectory.termination == sode.TERM_STOPPED)
    xs = prof.trajectory.xs
    step = max(abs(xs[-1] - xs[-2]), abs(ref.trajectory.hs[-1]))
    ref_length = d["length_requested"] - float(ref.trajectory.ts[-1])
    assert abs(d["length_produced"] - ref_length) <= step
    if not at_cap:
        assert d["length_produced"] >= d["length_requested"]


class TestLayersNeverRunDirect:
    """Every layer is one desingularized sweep; the direct integrator stays a test-side reference."""

    @pytest.fixture
    def no_direct(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("integrate_direct called on the layer path")

        monkeypatch.setattr(profiles, "integrate_direct", refuse)

    @pytest.mark.parametrize("limit,direction_index", [
        ((1.0, -0.3, 1.0), 0),
        ((1.0, 0.4, 1.0), 0),
        ((1.0, -2.0, 1.0), 0),
        ((1.0, -2.0, 1.0), 1),
        ((1.0, 1e-7, 1.0), 0),
    ], ids=["subsonic-inflow", "subsonic-outflow", "supersonic-inflow-0", "supersonic-inflow-1", "near-sonic"])
    def test_no_layer_calls_the_direct_integrator(self, gasm, limit, direction_index, no_direct):
        prof = boundary_layer(gasm, State(*limit), direction_index, amplitude=1e-3)
        d = prof.diagnostics
        assert prof.trajectory.mode == d["mode"] == "rescaled"
        assert "mode_switch" not in d and "zeta_sign_changes" not in d
        assert float(np.min(prof.trajectory.xs)) == 0.0 and d["length_produced"] == float(np.max(prof.trajectory.xs))
        assert d["flux_drift"] <= 1e-9 and d["extended_residual_rel"] <= profiles.LAYER_RESIDUAL_BOUND

    @pytest.mark.parametrize("v_star", [-0.3, 0.4, -1.9])
    @pytest.mark.parametrize("gas", [GasModel(), GasModel(nu_law=PowerLaw(0.8, 0.5), k_law=PowerLaw(1.3, -0.25))])
    def test_matches_a_direct_sweep_from_the_same_start(self, gas, v_star):
        # measured: at most 1.6e-9 of the jump over these cases
        prof = boundary_layer(gas, State(1.0, v_star, 1.0), amplitude=1e-3)
        ref = direct_reference(gas, prof)
        assert ref.trajectory.Vs[0].tolist() == prof.trajectory.Vs[0].tolist()
        jump = _sup(prof.left - prof.right)
        assert jump > 0.1
        assert compare_profiles(prof, ref, matching="v").sup <= 5e-9 * jump
        assert_same_extent(prof, ref)

    def test_slow_inflow_reaches_the_growth_cap(self, gasm):
        # dx/dtau = zeta is about v* = -0.003 here, so x = -L takes about L / 0.003 of tau;
        # a span that floored |v| at 0.05 (200 L) stopped this layer at x = -516 of its 586, short of the cap
        prof = boundary_layer(gasm, State(1.0, -0.003, 1.0), amplitude=-1e-3)
        ref = direct_reference(gasm, prof)
        assert ref.trajectory.termination == sode.TERM_STOPPED
        assert_same_extent(prof, ref)
        # refined at the default bound: 2.5e-6 at tol, 2.5e-7 at tol / 10
        assert prof.diagnostics["refined_tol"] == sode.DEFAULT_TOL / 10
        assert prof.diagnostics["extended_residual_rel"] <= profiles.LAYER_RESIDUAL_BOUND
        assert compare_profiles(prof, ref, matching="v").sup <= 5e-9 * _sup(prof.left - prof.right)


class TestBoundaryLayer:
    def test_subsonic_inflow(self, gasm):
        prof = boundary_layer(gasm, State(1.0, -0.3, 1.0), amplitude=1e-3)
        d = prof.diagnostics
        assert prof.sigma == 0.0
        assert d["mode"] == "rescaled"
        assert d["rate"] < 0.0
        assert d["extended_residual_max"] <= 1e-6
        assert d["flux_drift"] <= 1e-5
        # window anchored at zero, limit at the far end
        xs = prof.trajectory.xs
        assert float(np.min(xs)) == 0.0
        far = prof.trajectory.Vs[0]
        U_star = np.array([1.0, -0.3, 1.0, 0.0, 0.0])
        assert np.abs(far - U_star).max() <= 2e-3
        assert prof.right.tolist() == U_star.tolist()
        # trace grew away from the limit state
        trace = prof.left
        assert np.abs(trace - U_star).max() > 1e-2

    def test_length_is_the_math_log_formula(self, gasm):
        # numpy's SIMD log differs from libm's in the last bit at this amplitude on some machines, which
        # would move the layer's x floor with the machine: numpy read 15.34562985815551 on an AVX-512 host
        amplitude = 1.8390901547657737e-05
        d = boundary_layer(gasm, State(1.0, -0.3, 1.0), amplitude=amplitude).diagnostics
        log = math.log(max(profiles.LAYER_GROW_CAP, 10 * amplitude) / amplitude)
        assert d["length_requested"] == min(log / abs(d["rate"]) * 1.5, 1e4)

    def test_subsonic_outflow(self, gasm):
        prof = boundary_layer(gasm, State(1.0, 0.4, 1.0), amplitude=1e-3)
        assert prof.diagnostics["mode"] == "rescaled"
        assert prof.diagnostics["flux_drift"] <= 1e-5
        assert len(prof.diagnostics["decaying_rates"]) == 1

    def test_subsonic_has_single_decaying_direction(self, gasm):
        with pytest.raises(DomainError, match="direction_index"):
            boundary_layer(gasm, State(1.0, -0.3, 1.0), direction_index=1)

    @pytest.mark.parametrize("index,message", [
        (0.0, "boundary_layer's direction_index must be an integer, got 0.0"),
        (True, "boundary_layer's direction_index must be an integer, got True"),
        (None, "boundary_layer's direction_index must be an integer, got None"),
        (-1, "boundary_layer's direction_index must be at least 0, got direction_index=-1"),
    ], ids=["float", "bool", "none", "negative"])
    @pytest.mark.parametrize("limit", [(1.0, -0.3, 1.0), (1.0, -2.0, 1.0)])
    @pytest.mark.parametrize("amplitude", [1e-3, 0.0])
    def test_direction_index_is_an_integer(self, gasm, limit, amplitude, index, message):
        with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
            boundary_layer(gasm, State(*limit), index, amplitude)

    def test_integer_like_direction_index_is_an_int(self, gasm):
        prof = boundary_layer(gasm, State(1.0, -2.0, 1.0), np.int64(1), 1e-3)
        assert type(prof.diagnostics["direction_index"]) is int
        same = boundary_layer(gasm, State(1.0, -2.0, 1.0), 1, 1e-3)
        assert prof.trajectory.ys.tobytes() == same.trajectory.ys.tobytes()

    def test_supersonic_inflow_two_directions(self, gasm):
        st = State(1.0, -2.0, 1.0)
        for idx in (0, 1):
            prof = boundary_layer(gasm, st, direction_index=idx, amplitude=1e-3)
            assert prof.diagnostics["mode"] == "rescaled"
            assert prof.diagnostics["flux_drift"] <= 1e-5
        rates = boundary_layer(gasm, st, amplitude=1e-3).diagnostics["decaying_rates"]
        assert len(rates) == 2
        assert rates[0] <= rates[1] < 0.0

    def test_supersonic_outflow_has_no_layer(self, gasm):
        with pytest.raises(NoDecayingDirectionError):
            boundary_layer(gasm, State(1.0, 2.0, 1.0))

    def test_sonic_limit_has_no_layer(self, gasm):
        # steady flow keeps its mass flux rho v, so v = 0 at the limit keeps
        # v = 0 everywhere: no layer, and amplitude 0 is refused before the limit is read
        with pytest.raises(NoDecayingDirectionError, match="sonic set"):
            boundary_layer(gasm, State(1.0, 0.0, 1.0), amplitude=1e-3)
        with pytest.raises(DomainError, match="^amplitude must be finite and nonzero, got 0.0$"):
            boundary_layer(gasm, State(1.0, 0.0, 1.0), amplitude=0.0)

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_tiny_speeds_behave_like_their_neighbours(self, gasm, sign):
        # no speed next to the sonic set gets a rule of its own: v = +-1e-9
        # ends the way v = +-2e-8 does (a rescaled layer for outflow, no
        # decaying direction for inflow)
        def outcome(v):
            try:
                return boundary_layer(gasm, State(1.0, v, 1.0), amplitude=1e-3).diagnostics["mode"]
            except NoDecayingDirectionError:
                return "no decaying direction"

        assert outcome(sign * 1e-9) == outcome(sign * 2e-8)
        assert outcome(sign * 1e-9) == ("rescaled" if sign > 0 else "no decaying direction")

    def test_sonic_starts_are_one_sweep(self, gasm):
        # a start within 1e-6 of the sonic set, and one whose path comes that
        # close, sweep as every layer does: one run, its window from x = 0
        # to length_produced, the start at the far end
        subsonic = boundary_layer(gasm, State(1.0, -0.3, 1.0), amplitude=1e-3)
        for limit, amplitude in (((1.0, 1e-7, 1.0), 1e-3), ((1.0, 1.3e-6, 1.0), -1e-3)):
            prof = boundary_layer(gasm, State(*limit), amplitude=amplitude)
            d = prof.diagnostics
            assert list(d) == list(subsonic.diagnostics)
            assert d["mode"] == "rescaled" and prof.trajectory.termination == sode.TERM_STOPPED
            assert 0.0 < prof.trajectory.stats.min_abs_zeta <= 1e-6
            assert prof.trajectory.xs[0] == d["length_produced"] > 0.0
            assert float(np.min(prof.trajectory.xs)) == 0.0

    def test_residual_bound_refines_once(self, monkeypatch):
        # this layer reads 8.7e-8 at DEFAULT_TOL and 1.4e-8 at a tenth of it, so a
        # bound of 3e-8 refines it once; the second sweep is the run
        # boundary_layer(..., tol=DEFAULT_TOL / 10) makes, bit for bit
        monkeypatch.setattr(profiles, "LAYER_RESIDUAL_BOUND", 3e-8)
        gas = GasModel(gamma=1.5, nu_law=PowerLaw(1.25, 0.875), k_law=PowerLaw(1.0, 0.0))
        limit = State(0.5, 1e-5, 1.0)
        prof = boundary_layer(gas, limit, amplitude=-1e-2)
        d = prof.diagnostics
        assert d["refined_tol"] == sode.DEFAULT_TOL / 10.0 and d["mode"] == "rescaled"
        assert d["extended_residual_rel"] <= profiles.LAYER_RESIDUAL_BOUND
        fine = boundary_layer(gas, limit, amplitude=-1e-2, tol=sode.DEFAULT_TOL / 10.0)
        assert "refined_tol" not in fine.diagnostics
        assert fine.diagnostics == {k: v for k, v in d.items() if k != "refined_tol"}
        for name in ("ts", "ys", "hs", "Q"):
            assert getattr(prof.trajectory, name).tobytes() == getattr(fine.trajectory, name).tobytes()
        monkeypatch.setattr(profiles, "LAYER_RESIDUAL_BOUND", float("inf"))
        coarse = boundary_layer(gas, limit, amplitude=-1e-2).diagnostics
        assert "refined_tol" not in coarse and coarse["extended_residual_rel"] > 3e-8

    def test_refined_window_starts_at_zero(self, gasm, monkeypatch):
        # a bound of 0 refines every layer; the second sweep is shifted as the first is
        monkeypatch.setattr(profiles, "LAYER_RESIDUAL_BOUND", 0.0)
        for limit in ((1.0, -0.3, 1.0), (1.0, 1e-7, 1.0)):
            prof = boundary_layer(gasm, State(*limit), amplitude=1e-3)
            d = prof.diagnostics
            assert d["refined_tol"] == sode.DEFAULT_TOL / 10.0 and d["mode"] == "rescaled"
            assert float(np.min(prof.trajectory.xs)) == 0.0
            assert prof.trajectory.xs[0] == d["length_produced"] == float(np.max(prof.trajectory.xs))
            assert_dense_x_matches_samples(prof.trajectory)

    @pytest.mark.parametrize("v_star", [-0.3, 1e-7])
    def test_reanchoring_moves_the_dense_output(self, gasm, v_star):
        # x is the last integrated component, so the shift that anchors the
        # window at x = 0 must move the dense output too
        traj = boundary_layer(gasm, State(1.0, v_star, 1.0), amplitude=1e-3).trajectory
        assert traj.mode == "rescaled"
        assert float(np.min(traj.xs)) == 0.0 and np.ptp(traj.xs) > 0.0
        assert_dense_x_matches_samples(traj)

    @pytest.mark.parametrize("amplitude", [0.0, -0.0, float("nan"), float("inf"), float("-inf")])
    def test_zero_or_non_finite_amplitude_is_named(self, gasm, amplitude):
        # at amplitude 0 the start is the limit state itself, which is no layer
        with pytest.raises(DomainError, match=f"^amplitude must be finite and nonzero, got {amplitude}$"):
            boundary_layer(gasm, State(1.0, -0.3, 1.0), amplitude=amplitude)

    def test_amplitude_cap(self, gasm):
        with pytest.raises(DomainError, match="amplitude"):
            boundary_layer(gasm, State(1.0, -0.3, 1.0), amplitude=0.6)

    def test_negative_amplitude_other_branch(self, gasm):
        up = boundary_layer(gasm, State(1.0, -0.3, 1.0), amplitude=1e-3)
        dn = boundary_layer(gasm, State(1.0, -0.3, 1.0), amplitude=-1e-3)
        # the two branches leave the equilibrium on opposite sides
        far_up = up.trajectory.Vs[0] - up.right
        far_dn = dn.trajectory.Vs[0] - dn.right
        assert np.dot(far_up, far_dn) < 0.0


class TestLayerStart:
    """A layer starts on the flux level set of its limit state, so its flux drift is integration error alone."""

    @settings(max_examples=25, deadline=None)
    @given(
        gamma=st.floats(1.2, 5.0 / 3.0),
        nu=laws,
        k=laws,
        rho=st.floats(0.5, 2.0),
        theta=st.floats(0.5, 2.0),
        regime=st.sampled_from(["subsonic inflow", "subsonic outflow", "supersonic inflow"]),
        mach=st.floats(0.0, 1.0),
        direction_index=st.sampled_from([0, 1]),
        log_amp=st.floats(-4.0, -2.0),
        sign=st.sampled_from([1.0, -1.0]),
    )
    def test_flux_drift(self, gamma, nu, k, rho, theta, regime, mach, direction_index, log_amp, sign):
        gas = GasModel(gamma=gamma, nu_law=nu, k_law=k)
        c = sound_speed(gas, State(rho, 0.0, theta))
        if regime == "supersonic inflow":  # two decaying directions
            v = -(1.1 + 0.9 * mach) * c
        else:
            v = (0.1 + 0.7 * mach) * c * (-1.0 if regime == "subsonic inflow" else 1.0)
            direction_index = 0
        prof = boundary_layer(gas, State(rho, v, theta), direction_index, sign * 10.0 ** log_amp)
        assert prof.diagnostics["mode"] == "rescaled"
        assert prof.diagnostics["flux_drift"] <= 1e-9

    def test_start_keeps_v_and_theta_of_the_linear_start(self, gasm):
        limit = State(1.0, -0.3, 1.0)
        U_star = np.array([1.0, -0.3, 1.0, 0.0, 0.0])
        report, rates = profiles._spatial_rates(steady_singular_ode(gasm), U_star, None)
        (i, _), = [p for p in rates if p[1] < 0.0]
        linear = U_star + 1e-2 * profiles._real_unit_eigenvector(report, i)
        start = boundary_layer(gasm, limit, amplitude=1e-2).trajectory.Vs[0]
        m, Pi, Eflux = _flux_integrals(gasm, 0.0, 1.0, -0.3, 1.0, 0.0, 0.0)
        assert start[1:3].tolist() == linear[1:3].tolist()
        assert start[0] == m / start[1]
        assert start[3:].tolist() == _flux_form(gasm, 0.0, m, Pi, Eflux).F_eval(start[1:3].tolist())
        assert 0.0 < np.max(np.abs(start - linear)) <= 1e-3  # an O(amplitude^2) move


class TestNearSonicLayers:
    """Layers whose limit speed lies within a few DELTA of the sonic set."""

    @settings(max_examples=30, deadline=None)
    @given(
        gamma=st.floats(1.2, 5.0 / 3.0),
        nu=st.tuples(st.floats(0.7, 1.4), st.floats(-0.5, 1.0)),
        k=st.tuples(st.floats(0.7, 1.4), st.floats(-0.5, 1.0)),
        rho=st.floats(0.5, 2.0),
        theta=st.floats(0.5, 2.0),
        log_v=st.floats(-9.0, -5.0),
        log_amp=st.floats(-4.0, -2.0),
        sign=st.sampled_from([1.0, -1.0]),
    )
    # the layer of test_residual_bound_refines_once: 8.7e-8 at the default tol
    @example(gamma=1.5, nu=(1.25, 0.875), k=(1.0, 0.0), rho=0.5, theta=1.0, log_v=-5.0, log_amp=-2.0, sign=-1.0)
    def test_layer_invariants(self, gamma, nu, k, rho, theta, log_v, log_amp, sign):
        # one desingularized sweep, whether or not the start lies within 1e-6
        # of the sonic set: it keeps the mass flux and passes a residual
        # check read at every midpoint, below 1e-8 of the sonic set too
        gas = GasModel(gamma=gamma, nu_law=PowerLaw(*nu), k_law=PowerLaw(*k))
        prof = boundary_layer(gas, State(rho, 10.0 ** log_v, theta), amplitude=sign * 10.0 ** log_amp)
        d = prof.diagnostics
        m = prof.trajectory.Vs[:, 0] * prof.trajectory.Vs[:, 1]
        assert np.max(np.abs(m - m[0])) <= 1e-8 * abs(m[0])
        assert d["extended_residual_rel"] <= 1e-6
        assert d["flux_drift"] <= 1e-9
        assert d["length_produced"] > 0.0
