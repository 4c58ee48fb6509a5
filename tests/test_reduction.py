"""Tests for the first-order reduction of the travelling-wave equations.

The right-hand side is frozen at hand-computed points, checked against an
independent assembly of the block equations from `system.blocks`, and
probed for its exact polynomial structure in the gradient variables.
"""

import warnings

import numpy as np
import pytest

from shocklayer import (
    DomainError,
    GasModel,
    Gradient,
    PowerLaw,
    State,
    blocks,
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
        assert len(tw_singular_ode(gas, 1.5).F_eval([1.0, 0.5, 1.0, 0.0, 0.0])) == 5

    def test_inadmissible_states_rejected(self, gas):
        ode = steady_singular_ode(gas)
        with pytest.raises(DomainError):
            ode.F_eval([-1.0, 0.0, 1.0, 0.0, 0.0])
        with pytest.raises(DomainError):
            ode.F_eval([1.0, 0.0, 0.0, 0.0, 0.0])

    def test_overflow_is_a_domain_error_naming_the_state(self, gas):
        # theta^2 or a transport law overflows a float: an unusable state, not a bare OverflowError
        steep = GasModel(nu_law=PowerLaw(1.0, 2.0))
        for g, U in ((gas, [1e300, 1e300, 1e300, 1.0, 0.0]), (steep, [1e300, 0.5, 1.0, 0.0, 0.0])):
            with pytest.raises(DomainError, match=r"overflows a float at the extended state \[1e\+300"):
                tw_singular_ode(g, 1.0).F_eval(U)

    def test_a_divisor_that_underflows_is_a_domain_error_naming_the_state(self, gas):
        # theta^2 (theta below about 1.6e-162) or nu = rho^2 underflows to 0, and F divides by it: F overflows,
        # and the ZeroDivisionError becomes the same DomainError as an OverflowError
        steep = GasModel(nu_law=PowerLaw(1.0, 2.0))
        for g, U in ((gas, [1.0, 0.0, 1e-300, 0.1, 0.0]), (steep, [1e-200, 0.5, 1.0, 0.1, 0.0])):
            with pytest.raises(DomainError, match=r"^F overflows a float at the extended state \[1"):
                tw_singular_ode(g, 1.0).F_eval(U)


class TestColumnArrays:
    """F and zeta over column arrays give, entry by entry, the bits of the float calls."""

    def test_columns_match_the_float_calls(self, gas, power_gas, rng):
        U = admissible_extended(rng, 3000)  # numpy squares round differently in about 1 of 1,100
        for g in (gas, power_gas, GasModel(gamma=5.0 / 3.0, nu_law=PowerLaw(1.1, 0.7), k_law=PowerLaw(0.9, -0.5))):
            ode = tw_singular_ode(g, -0.4)
            F = np.array(ode.F_eval(list(U.T)))
            ref = np.array([ode.F_eval(row) for row in U.tolist()]).T
            assert F.tobytes() == ref.tobytes()
            zeta = ode.zeta_eval(list(U.T))
            assert zeta.tobytes() == np.array([ode.zeta_eval(row) for row in U.tolist()]).tobytes()

    @pytest.mark.parametrize("column,value", [(0, -1.0), (2, 0.0), (2, float("nan"))])
    def test_one_bad_sample_is_a_domain_error(self, power_gas, rng, column, value):
        U = admissible_extended(rng, 50)
        U[17, column] = value
        with pytest.raises(DomainError, match="rho > 0 and theta > 0"):
            tw_singular_ode(power_gas, 0.0).F_eval(list(U.T))

    def test_columns_raise_exactly_where_a_float_call_raises(self, gas, rng):
        # theta^2 or nu = rho^2 underflows to 0 at some samples: a column call raises the float call's
        # DomainError where one of its samples raises, divides by no zero, and keeps the bits elsewhere.
        # A product past the float range is inf, and inf - inf NaN, in a float call too, and neither warns
        steep = GasModel(nu_law=PowerLaw(1.0, 2.0), k_law=PowerLaw(1.0, -0.5))
        U = admissible_extended(rng, 300)
        U[:, 0] = 10.0 ** rng.uniform(-200.0, 0.0, 300)
        U[:, 2] = 10.0 ** rng.uniform(-200.0, 0.0, 300)
        for g in (gas, steep):
            ode = tw_singular_ode(g, -0.4)
            raises = []
            for row in U.tolist():
                try:
                    ode.F_eval(row)
                except DomainError as exc:
                    assert str(exc).startswith("F overflows a float at the extended state")
                    raises.append(True)
                else:
                    raises.append(False)
            raises = np.array(raises)
            assert 20 < raises.sum() < 280
            ok = U[~raises]
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                F = np.array(ode.F_eval(list(ok.T)))
                assert F.tobytes() == np.array([ode.F_eval(row) for row in ok.tolist()]).T.tobytes()
                for i in np.flatnonzero(raises)[:10]:
                    with pytest.raises(DomainError, match="^F overflows a float at the extended state"):
                        ode.F_eval(list(np.vstack([ok[:40], U[i], ok[40:]]).T))

    def test_a_value_past_the_float_range_is_silent_on_columns_too(self, gas):
        # s z1 and rho s s overflow to inf, and inf - inf is NaN: the float call gives them with no warning, and
        # the column call gives the same bits with none either, in the lines and in F's own products
        U = np.array([[1.0, 1e200, 1.0, 1e200, 0.0], [1.0, 0.3, 1.0, 0.1, 0.2]])
        ode = tw_singular_ode(gas, -0.4)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            F = np.array(ode.F_eval(list(U.T)))
            ref = np.array([ode.F_eval(row) for row in U.tolist()]).T
        assert np.isinf(F[1, 0]) and np.isnan(F[4, 0])
        assert F.tobytes() == ref.tobytes()

    @pytest.mark.parametrize("U", [[1.0, 0.0, 1e-300, 0.1, 0.0], [1.0, -0.3, 1e-300, 0.0, 0.0]])
    def test_an_underflowing_theta_squared_raises_with_no_warning(self, gas, rng, U):
        # the float call divides by theta^2 = 0: the column call raises its error, and warns of no division
        cols = np.vstack([admissible_extended(rng, 20), U]).T
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match="^F overflows a float at the extended state"):
                steady_singular_ode(gas).F_eval(list(cols))


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
        E, A, B = blocks(g, st, Gradient(rho_x=w, v_x=U[3], theta_x=U[4]))
        scale = max(1.0, float(np.abs(A).max()))
        M = A - sigma * E
        eq1 = M[0, 0] * w + M[0, 1:] @ z
        eq2 = M[1:, 0] * w + M[1:, 1:] @ z - B[1:, 1:] @ z_x
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
    """rho_x of the hyperbolic row is F[0] / zeta; `reduce-info` reports it as w."""

    def test_frozen_value(self, gas):
        U = [2.0, -1.0, 1.0, 3.0, 0.0]
        ode = tw_singular_ode(gas, 0.0)
        assert ode.F_eval(U)[0] / ode.zeta_eval(U) == pytest.approx(6.0, rel=1e-14)

    def test_matches_density_component(self, gas, power_gas, rng):
        # F[0] / zeta against w = -(A21^T z) / (A11 - sigma E11) from the assembled blocks
        for g in (gas, power_gas):
            for U in admissible_extended(rng, 10):
                sigma = float(U[1]) + 0.8
                ode = tw_singular_ode(g, sigma)
                E, A, _ = blocks(g, State(*U[:3]))
                w = -(A[1:, 0] @ U[3:]) / (A[0, 0] - sigma * E[0, 0])
                expected = ode.F_eval(U.tolist())[0] / ode.zeta_eval(U.tolist())
                assert w == pytest.approx(expected, rel=1e-13, abs=1e-14)
