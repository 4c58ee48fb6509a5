"""Tests for the first-order reduction of the travelling-wave equations.

The right-hand side is frozen at hand-computed points, checked against an
independent assembly of the block equations from `system.blocks`, and
probed for its exact polynomial structure in the gradient variables.
"""

import numpy as np
import pytest

from shocklayer import (
    DomainError,
    ExtendedState,
    GasModel,
    Gradient,
    PowerLaw,
    SingularityError,
    State,
    blocks,
    extended_residual,
    reduce_w,
    steady_singular_ode,
    tw_singular_ode,
)


def admissible_extended(rng, n):
    cols = [
        rng.uniform(0.4, 2.5, n),
        rng.uniform(-1.5, 1.5, n),
        rng.uniform(0.4, 2.5, n),
        rng.uniform(-2.0, 2.0, n),
        rng.uniform(-2.0, 2.0, n),
    ]
    return np.stack(cols, axis=1)


class TestFrozenValues:
    def test_steady_point(self, gas):
        ode = steady_singular_ode(gas)
        F = ode.F_eval([1.0, 1.0, 1.0, 1.0, 0.0])
        np.testing.assert_allclose(F, [-1.0, 1.0, 0.0, 0.0, 0.0], atol=1e-15)

    def test_travelling_point_at_sonic_speed(self, gas):
        # v = sigma: convective terms drop, the Schur coupling survives
        ode = tw_singular_ode(gas, 1.0)
        F = ode.F_eval([1.0, 1.0, 1.0, 1.0, 0.0])
        np.testing.assert_allclose(F, [-1.0, 0.0, 0.0, -1.0, 0.0], atol=1e-15)

    def test_equilibrium_is_exact_zero(self, gas, power_gas):
        for g in (gas, power_gas):
            for sigma in (0.0, -0.7, 1.3):
                ode = tw_singular_ode(g, sigma)
                F = np.array(ode.F_eval([1.4, 0.3, 0.9, 0.0, 0.0]))
                assert np.all(F == 0.0)

    def test_zeta_is_relative_speed(self, gas):
        ode = tw_singular_ode(gas, 0.75)
        assert ode.zeta_eval([1.0, 2.0, 1.0, 0.0, 0.0]) == 1.25
        assert ode.zeta_eval([1.0, 0.75, 1.0, 5.0, 5.0]) == 0.0

    def test_steady_equals_travelling_at_zero(self, gas, rng):
        s = steady_singular_ode(gas)
        t = tw_singular_ode(gas, 0.0)
        for U in admissible_extended(rng, 10).tolist():
            np.testing.assert_array_equal(s.F_eval(U), t.F_eval(U))
            assert s.zeta_eval(U) == t.zeta_eval(U)

    def test_labels(self, gas):
        assert steady_singular_ode(gas).label == "steady"
        assert "1.5" in tw_singular_ode(gas, 1.5).label
        assert tw_singular_ode(gas, 1.5).dim == 5

    def test_inadmissible_states_rejected(self, gas):
        ode = steady_singular_ode(gas)
        with pytest.raises(DomainError):
            ode.F_eval([-1.0, 0.0, 1.0, 0.0, 0.0])
        with pytest.raises(DomainError):
            ode.F_eval([1.0, 0.0, 0.0, 0.0, 0.0])


class TestBlockConsistency:
    """The inline right-hand side against the assembled block equations.

    At any point with v != sigma, setting U' = F(U)/zeta(U) must satisfy
    both rows of (A - sigma E) U' = B U'': the scalar hyperbolic row and
    the two parabolic rows, with matrices assembled independently.
    """

    def _check(self, g, sigma, U, tol=1e-12):
        ode = tw_singular_ode(g, sigma)
        zeta = ode.zeta_eval(U.tolist())
        assert abs(zeta) > 1e-3, "test point too close to the sonic set"
        F = np.array(ode.F_eval(U.tolist()))
        Uprime = F / zeta
        w = Uprime[0]
        z = np.array([U[3], U[4]])
        z_x = Uprime[3:]
        st = State(U[0], U[1], U[2])
        blk = blocks(g, st, Gradient(rho_x=w, v_x=U[3], theta_x=U[4]))
        scale = max(1.0, float(np.abs(blk.A).max()))
        eq1 = blk.a11 * (U[1] - sigma) * w + blk.A21 @ z
        eq2 = blk.A21 * w + (blk.A22 - sigma * blk.E22) @ z - blk.b @ z_x
        assert abs(eq1) <= tol * scale
        assert np.abs(eq2).max() <= tol * scale
        # gradient consistency: dv/dx and dtheta/dx must reproduce z
        np.testing.assert_allclose(Uprime[1:3], z, rtol=1e-12, atol=1e-14)

    def test_constant_coefficients(self, gas, rng):
        for U in admissible_extended(rng, 25):
            sigma = float(U[1]) + 0.9  # keep zeta away from zero
            self._check(gas, sigma, U)

    def test_power_law_coefficients(self, power_gas, rng):
        for U in admissible_extended(rng, 25):
            sigma = float(U[1]) - 1.1
            self._check(power_gas, sigma, U)

    def test_nonunit_gas_constants(self, rng):
        g = GasModel(R=2.0, gamma=1.67, nu_law=PowerLaw(0.5, 1.0), k_law=PowerLaw(2.0, 0.5))
        for U in admissible_extended(rng, 15):
            self._check(g, float(U[1]) + 1.4, U)


class TestPolynomialStructure:
    """F is polynomial of degree <= 2 in z with known quadratic part."""

    def _quadratic_part(self, ode, base, z):
        def g(t):
            U = [base[0], base[1], base[2], t * z[0], t * z[1]]
            return np.array(ode.F_eval(U))

        g0, g1, g2, g3 = g(0.0), g(1.0), g(2.0), g(3.0)
        third = g3 - 3.0 * g2 + 3.0 * g1 - g0
        np.testing.assert_allclose(third, 0.0, atol=1e-10)
        return (g2 - 2.0 * g1 + g0) / 2.0

    def test_constant_gas_quadratic_terms(self, gas):
        base = (1.5, 0.4, 1.2)
        z = (0.7, -0.3)
        sigma = -0.6
        quad = self._quadratic_part(tw_singular_ode(gas, sigma), base, z)
        nu, _ = gas.nu_law(base[0])
        k, _ = gas.k_law(base[0])
        s = base[1] - sigma
        np.testing.assert_allclose(quad[:4], 0.0, atol=1e-12)
        # the only quadratic term: -(nu/k) s z1^2 in the theta-gradient row
        assert quad[4] == pytest.approx(-(nu / k) * s * z[0] ** 2, rel=1e-10)

    def test_power_law_gas_quadratic_terms(self, power_gas):
        base = (2.0, -0.3, 0.8)
        z = (0.5, 0.9)
        sigma = 0.7
        quad = self._quadratic_part(tw_singular_ode(power_gas, sigma), base, z)
        rho = base[0]
        s = base[1] - sigma
        nu, dnu = power_gas.nu_law(rho)
        k, dk = power_gas.k_law(rho)
        np.testing.assert_allclose(quad[:3], 0.0, atol=1e-12)
        assert quad[3] == pytest.approx((dnu * rho / nu) * z[0] ** 2, rel=1e-10)
        expected4 = -(nu / k) * s * z[0] ** 2 + (dk * rho / k) * z[0] * z[1]
        assert quad[4] == pytest.approx(expected4, rel=1e-10)


class TestReduceW:
    def test_frozen_value(self, gas):
        u = ExtendedState(2.0, -1.0, 1.0, 3.0, 0.0)
        assert reduce_w(gas, u, 0.0) == pytest.approx(6.0, rel=1e-14)

    def test_matches_density_component(self, gas, power_gas, rng):
        # w must agree with d(rho)/dx = F_rho / zeta from the reduction
        for g in (gas, power_gas):
            for U in admissible_extended(rng, 10):
                sigma = float(U[1]) + 0.8
                ode = tw_singular_ode(g, sigma)
                w = reduce_w(g, ExtendedState.from_array(U), sigma)
                expected = ode.F_eval(U.tolist())[0] / ode.zeta_eval(U.tolist())
                assert w == pytest.approx(expected, rel=1e-13, abs=1e-14)

    def test_singularity_guard(self, gas):
        u = ExtendedState(1.0, 0.5, 1.0, 1.0, 0.0)
        with pytest.raises(SingularityError):
            reduce_w(gas, u, 0.5)
        with pytest.raises(SingularityError):
            reduce_w(gas, u, 0.5 + 5e-9)
        # just outside the guard: finite answer
        assert np.isfinite(reduce_w(gas, u, 0.5 + 1e-6))


class TestExtendedResidual:
    def test_zero_on_claimed_solution(self, gas):
        ode = tw_singular_ode(gas, -0.4)
        U = np.array([1.2, 0.5, 1.1, 0.6, -0.2])
        Uprime = np.array(ode.F_eval(U.tolist())) / ode.zeta_eval(U.tolist())
        res = extended_residual(ode, U, Uprime)
        np.testing.assert_allclose(res, 0.0, atol=1e-13)

    def test_detects_wrong_derivative(self, gas):
        ode = steady_singular_ode(gas)
        U = np.array([1.0, 1.0, 1.0, 1.0, 0.0])
        res = extended_residual(ode, U, np.zeros(5))
        np.testing.assert_allclose(res, [1.0, -1.0, 0.0, 0.0, 0.0], atol=1e-15)


class TestExtendedState:
    def test_array_round_trip(self):
        u = ExtendedState(1.0, 2.0, 3.0, 4.0, 5.0)
        v = ExtendedState.from_array(u.to_array())
        assert u == v

    def test_state_projection(self):
        u = ExtendedState(1.0, 2.0, 3.0, 4.0, 5.0)
        assert u.state() == State(1.0, 2.0, 3.0)
