"""Tests for the singular ODE integrators.

Calibration problems with closed-form solutions pin down the accuracy of
the direct and rescaled modes, the singularity guard, runs at and near
rest points, dense output, resampling, linearization, and CSV export.
"""

import ast
import math
import os
import platform
import subprocess
import sys
from fractions import Fraction
from operator import sub
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import shocklayer
from shocklayer import profiles, reduction, sode
from shocklayer import (
    DomainError,
    GasModel,
    NonMonotoneError,
    PowerLaw,
    SingularODE,
    SingularityError,
    State,
    StepFailureError,
    linearize,
    steady_singular_ode,
    tw_singular_ode,
)
from shocklayer.sode import (
    DEFAULT_TOL,
    DELTA,
    REL_FLOOR,
    TERM_REACHED_END,
    TERM_SINGULARITY,
    TERM_STEP_FAILURE,
    TERM_STOPPED,
    Trajectory,
    TrajectoryStats,
    integrate_direct,
    integrate_rescaled,
)


def exp_ode():
    # F = V^2, zeta = V: direct dV/dx = V, so V(x) = V(0) e^x
    return SingularODE(
        F_eval=lambda V: [V[0] * V[0]],
        zeta_eval=lambda V: float(V[0]),
        label="exponential calibration",
    )


def affine_zeta_ode():
    # F = 1, zeta = V: rescaled V(tau) = V0 + tau, x(tau) = V0 tau + tau^2/2
    return SingularODE(
        F_eval=lambda V: [1.0],
        zeta_eval=lambda V: float(V[0]),
        label="affine calibration",
    )


def decay_to_zero_ode():
    # F = -1, zeta = V: direct V(x) = sqrt(1 - 2x) from V(0) = 1
    return SingularODE(
        F_eval=lambda V: [-1.0],
        zeta_eval=lambda V: float(V[0]),
        label="square-root collapse",
    )


class TestDirectCalibration:
    def test_exponential_accuracy(self):
        traj = integrate_direct(exp_ode(), np.array([1.0]), (0.0, 2.0), tol=1e-10)
        assert traj.termination == TERM_REACHED_END
        assert traj.mode == "direct"
        assert traj.taus is None
        assert abs(traj.final_V[0] - np.e ** 2) <= 1e-8

    def test_dense_output_accuracy(self):
        traj = integrate_direct(exp_ode(), np.array([1.0]), (0.0, 2.0), tol=1e-10)
        xs = np.linspace(0.05, 1.95, 37)
        worst = max(abs(traj.eval(x)[0] - np.exp(x)) for x in xs)
        assert worst <= 1e-8

    def test_backward_direction(self):
        traj = integrate_direct(exp_ode(), np.array([1.0]), (0.0, -1.0), tol=1e-10)
        assert traj.termination == TERM_REACHED_END
        assert abs(traj.final_V[0] - np.exp(-1.0)) <= 1e-8
        assert traj.ts[0] > traj.ts[-1]

    def test_eval_outside_span_rejected(self):
        traj = integrate_direct(exp_ode(), np.array([1.0]), (0.0, 1.0))
        with pytest.raises(DomainError):
            traj.eval(1.5)

    def test_empty_span_rejected(self):
        with pytest.raises(DomainError):
            integrate_direct(exp_ode(), np.array([1.0]), (1.0, 1.0))


class TestRescaledCalibration:
    def test_affine_solution(self):
        traj = integrate_rescaled(affine_zeta_ode(), np.array([1.0]), (0.0, 2.0), tol=1e-10)
        assert traj.termination == TERM_REACHED_END
        assert traj.mode == "rescaled"
        assert abs(traj.final_V[0] - 3.0) <= 1e-10
        assert abs(traj.xs[-1] - 4.0) <= 1e-10

    def test_dense_output_includes_x(self):
        traj = integrate_rescaled(affine_zeta_ode(), np.array([1.0]), (0.0, 2.0), tol=1e-10)
        tau = 1.3
        y = traj.eval(tau)
        assert y.shape == (2,)
        assert abs(y[0] - (1.0 + tau)) <= 1e-10
        assert abs(y[1] - (tau + tau ** 2 / 2)) <= 1e-10

    def test_x_starts_at_zero(self):
        # x(tau) = tau + tau^2 / 2 from x = 0; no keyword moves the origin
        traj = integrate_rescaled(affine_zeta_ode(), np.array([1.0]), (0.0, 1.0))
        assert traj.xs[0] == 0.0
        assert abs(traj.xs[-1] - 1.5) <= 1e-10
        with pytest.raises(TypeError):
            integrate_rescaled(affine_zeta_ode(), np.array([1.0]), (0.0, 1.0), x0=10.0)

    @pytest.mark.parametrize("limit", [(1.0, -0.3, 1.0), (1.0, 0.4, 1.0), (1.0, -0.03, 1.0)])
    def test_x_has_no_weight_in_the_step_control(self, limit):
        # zeta and 4 zeta move x alone: dV/dtau = F either way, and 4 is a power of two, so
        # every stage sum of x scales exactly. The steps are those of V, so V keeps its bits
        # and x is four times over, from the start of a layer to its end
        gas = GasModel(nu_law=PowerLaw(1.2, 0.5), k_law=PowerLaw(0.9, -0.3))
        ode = steady_singular_ode(gas)
        layer = profiles.boundary_layer(gas, State(*limit), amplitude=1e-3).trajectory
        one, four = (
            integrate_rescaled(
                SingularODE(F_eval=ode.F_eval, zeta_eval=lambda V, s=s: s * ode.zeta_eval(V)),
                layer.Vs[0], (0.0, layer.ts[-1]),
            )
            for s in (1.0, 4.0)
        )
        assert one.stats.n_accepted > 50 and one.stats.n_accepted == four.stats.n_accepted
        assert one.ts.tobytes() == four.ts.tobytes() and one.Vs.tobytes() == four.Vs.tobytes()
        assert (4.0 * one.xs).tobytes() == four.xs.tobytes()

    def test_crosses_singular_set_and_counts(self):
        # V(tau) = -0.5 + tau crosses zeta = 0 at tau = 0.5
        traj = integrate_rescaled(affine_zeta_ode(), np.array([-0.5]), (0.0, 2.0), tol=1e-10)
        assert traj.termination == TERM_REACHED_END
        assert traj.stats.zeta_sign_changes >= 1
        assert np.all(np.isfinite(traj.Vs)) and np.all(np.isfinite(traj.xs))
        assert abs(traj.final_V[0] - 1.5) <= 1e-10
        assert abs(traj.xs[-1] - 1.0) <= 1e-10  # x = -0.5 tau + tau^2/2 at tau=2


class TestModeAgreement:
    def test_direct_vs_rescaled_resampled(self):
        # same orbit: direct V(x) = e^x; rescaled V(tau) = 1/(1-tau), read at x through its x column
        tol = 1e-10
        direct = integrate_direct(exp_ode(), np.array([1.0]), (0.0, 1.0), tol=tol)
        tau_end = 1.0 - np.exp(-1.0)
        resc = integrate_rescaled(exp_ode(), np.array([1.0]), (0.0, tau_end), tol=tol)
        xs = np.linspace(0.05, 0.95, 19)
        vd = direct.eval(xs)
        vr = resc.eval_where(-1, xs)[..., :-1]
        assert np.abs(vd - vr).max() <= 10.0 * tol

    def test_resample_requires_monotone_x(self):
        traj = integrate_rescaled(affine_zeta_ode(), np.array([-0.5]), (0.0, 2.0))
        with pytest.raises(NonMonotoneError):
            traj.eval_where(-1, [0.1])

    def test_resample_out_of_range(self):
        traj = integrate_rescaled(affine_zeta_ode(), np.array([1.0]), (0.0, 1.0))
        with pytest.raises(DomainError):
            traj.eval_where(-1, [100.0])
        direct = integrate_direct(exp_ode(), np.array([1.0]), (0.0, 1.0))
        with pytest.raises(DomainError):
            direct.eval([100.0])


class TestDenseOutput:
    def test_array_eval_matches_scalar_eval(self):
        traj = integrate_direct(exp_ode(), np.array([1.0]), (0.0, 2.0), tol=1e-10)
        xs = np.linspace(0.0, 2.0, 41)
        ys = traj.eval(xs)
        assert ys.shape == (41, 1)
        np.testing.assert_allclose(ys, [traj.eval(x) for x in xs], rtol=1e-14, atol=0.0)
        assert np.abs(ys[:, 0] - np.exp(xs)).max() <= 1e-8 * np.e ** 2

    def test_array_eval_backward(self):
        traj = integrate_direct(exp_ode(), np.array([1.0]), (0.0, -1.0), tol=1e-10)
        xs = np.linspace(-0.95, -0.05, 19)
        assert np.abs(traj.eval(xs)[:, 0] - np.exp(xs)).max() <= 1e-8

    def test_eval_at_the_samples(self):
        traj = integrate_direct(exp_ode(), np.array([1.0]), (0.0, 2.0), tol=1e-10)
        np.testing.assert_allclose(traj.eval(traj.ts), traj.Vs, rtol=1e-14, atol=0.0)

    def test_step_eval_derivative(self):
        # V' = V: the dense derivative at each step's midpoint is the value
        traj = integrate_direct(exp_ode(), np.array([1.0]), (0.0, 2.0), tol=1e-10)
        y, dy = traj.step_eval(np.arange(traj.hs.size), 0.5)
        assert y.shape == dy.shape == (traj.n - 1, 1)
        mid = traj.t0s + 0.5 * traj.hs
        assert np.abs(y[:, 0] - np.exp(mid)).max() <= 1e-8
        assert np.abs(dy - y).max() <= 1e-8

    def test_eval_where_inverts_increasing_component(self):
        traj = integrate_direct(exp_ode(), np.array([1.0]), (0.0, 2.0), tol=1e-10)
        c = np.linspace(1.0, np.exp(2.0) - 1e-9, 57)
        y = traj.eval_where(0, c)
        assert y.shape == (57, 1)
        assert np.abs(y[:, 0] - c).max() <= 8.0 * np.finfo(float).eps * np.e ** 2

    def test_eval_where_inverts_decreasing_component(self):
        traj = integrate_direct(exp_ode(), np.array([1.0]), (0.0, -1.0), tol=1e-10)
        c = np.linspace(np.exp(-1.0) + 1e-9, 0.99, 23)
        assert np.abs(traj.eval_where(0, c)[:, 0] - c).max() <= 8.0 * np.finfo(float).eps
        assert traj.eval_where(0, 0.5).shape == (1,)

    def test_eval_where_on_x_in_rescaled_mode(self):
        # V = 1 + tau and x = tau + tau^2/2, so V = sqrt(1 + 2x)
        traj = integrate_rescaled(affine_zeta_ode(), np.array([1.0]), (0.0, 2.0), tol=1e-10)
        xs = np.linspace(0.0, 4.0, 33)
        y = traj.eval_where(-1, xs)
        assert np.abs(y[:, -1] - xs).max() <= 8.0 * np.finfo(float).eps * 4.0
        assert np.abs(y[:, 0] - np.sqrt(1.0 + 2.0 * xs)).max() <= 1e-10

    def test_eval_where_outside_range_rejected(self):
        traj = integrate_direct(exp_ode(), np.array([1.0]), (0.0, 1.0))
        with pytest.raises(DomainError):
            traj.eval_where(0, [0.5])

    @pytest.mark.parametrize("mode", ["direct", "rescaled"])
    def test_points_outside_the_span_are_domain_errors(self, mode):
        # a DomainError is still a ValueError, so callers catching ValueError keep working
        traj = INTEGRATORS[mode](exp_ode(), np.array([1.0]), (0.0, -1.0))
        lo, hi = sorted((traj.ts[0], traj.ts[-1]))
        for t in (hi + 1e-9, lo - 1e-9, [lo, 0.5 * (lo + hi), hi + 1.0], float("nan")):
            with pytest.raises(DomainError, match="outside the covered span") as info:
                traj.eval(t)
            assert isinstance(info.value, ValueError)
        j = 0 if mode == "direct" else -1
        s = traj.ys[:, j]
        for c in (s.max() + 1e-9, [s.min(), s.max() + 1.0], float("nan")):
            with pytest.raises(DomainError, match="outside the covered range"):
                traj.eval_where(j, c)

    def test_no_dense_output_is_a_domain_error(self):
        traj = integrate_direct(exp_ode(), np.array([1.0]), (0.0, 1.0))
        single = Trajectory(
            mode="direct", ts=traj.ts[:1], ys=traj.ys[:1], termination=traj.termination, stats=traj.stats,
            hs=traj.hs[:0], Q=traj.Q[:0],
        )
        with pytest.raises(DomainError, match="^trajectory carries no dense output$"):
            single.eval(0.0)

    def test_eval_where_non_monotone_rejected(self):
        traj = integrate_rescaled(affine_zeta_ode(), np.array([-0.5]), (0.0, 2.0))
        with pytest.raises(NonMonotoneError):
            traj.eval_where(-1, [0.1])


def compare_grid(a, b):
    """compare_profiles' grid on the matching columns a and b: their samples in the overlap and its ends, once each."""
    lo, hi = max(a.min(), b.min()), min(a.max(), b.max())
    return np.unique(np.concatenate([a[(a >= lo) & (a <= hi)], b[(b >= lo) & (b <= hi)], [lo, hi]]))


def ref_eval_where(traj, j, values):
    """The Newton-bisection inversion of Trajectory.eval_where iterating on every value each round.

    Converged values keep their theta through np.where; each round
    unpacks the coefficients again.
    """
    def quartic(q, theta):
        q1, q2, q3, q4 = np.moveaxis(q, -1, 0)
        value = theta * (q1 + theta * (q2 + theta * (q3 + theta * q4)))
        return value, q1 + theta * (2.0 * q2 + theta * (3.0 * q3 + theta * 4.0 * q4))

    c = np.asarray(values, dtype=float)
    s = traj.ys[:, j]
    d = np.diff(s)
    sgn = 1.0 if d[0] > 0 else -1.0
    i = np.clip(np.searchsorted(sgn * s, sgn * c, side="right") - 1, 0, d.size - 1)
    y0, h, q = traj.y0s[i, j], traj.hs[i], traj.Q[i, j]
    tol = 4.0 * np.finfo(float).eps * float(np.max(np.abs(s)))
    a, b = np.zeros_like(c), np.ones_like(c)
    theta = np.clip((c - s[i]) / d[i], 0.0, 1.0)
    for _ in range(sode._MAX_INVERT_ITER):
        p, dp = quartic(q, theta)
        f = sgn * (y0 + h * p - c)
        done = np.abs(f) <= tol
        if np.all(done):
            break
        a = np.where(f < 0.0, theta, a)
        b = np.where(f > 0.0, theta, b)
        with np.errstate(divide="ignore", invalid="ignore"):
            newton = theta - f / (sgn * h * dp)
        inside = (newton > a) & (newton < b)
        theta = np.where(done, theta, np.where(inside, newton, 0.5 * (a + b)))
    p, _ = quartic(traj.Q[i], theta[..., None])
    return traj.y0s[i] + traj.hs[i][..., None] * p


def polyline(v):
    """Direct-mode trajectory through samples with column 1 at v, joined linearly (columns 0, 2: 1 + v/2, sin v)."""
    v = np.asarray(v, dtype=float)
    ys = np.column_stack([1.0 + 0.5 * v, v, np.sin(v)])
    Q = np.zeros((v.size - 1, 3, 4))
    Q[:, :, 0] = np.diff(ys, axis=0)
    return Trajectory(
        mode="direct", ts=np.arange(v.size, dtype=float), ys=ys, termination=TERM_REACHED_END,
        stats=TrajectoryStats(v.size - 1, 0, 0, 1.0, 0, 1.0), hs=np.ones(v.size - 1), Q=Q,
    )


def newton_values(monkeypatch):
    """The values each call of sode._newton iterates on, recorded as lists."""
    seen = []
    newton = sode._newton

    def spy(theta, c, *args):
        seen.append(c.tolist())
        return newton(theta, c, *args)

    monkeypatch.setattr(sode, "_newton", spy)
    return seen


class TestEvalWhereMatchesReference:
    """eval_where iterates under a mask that values leave as they converge; every result keeps its bits."""

    def assert_same(self, traj, j, values):
        new, ref = traj.eval_where(j, values), ref_eval_where(traj, j, values)
        assert new.shape == ref.shape
        assert new.tobytes() == ref.tobytes()

    @pytest.mark.parametrize("v,values", [
        # samples with -0.0 and values at +0.0, -0.0 and off the samples, either way round
        ([-1.0, -0.0, 0.5, 1.0], [-0.5, 0.0, -0.0, 0.3, 0.5, -1.0, 1.0]),
        ([-1.0, 0.0, 0.5, 1.0], [-0.0, 0.0, 0.3, 0.75, 1.0]),
        # a signed zero as the first sample
        ([-0.0, 0.4, 1.0], [0.0, -0.0, 0.4, 0.7]),
        ([0.0, 0.4, 1.0], [-0.0, 0.0, 0.7, 1.0]),
        # a decreasing column
        ([1.0, 0.5, 0.0, -0.5], [-0.0, 0.0, 0.25, 0.5, -0.5, 1.0, 0.75]),
        ([0.5, -0.0, -1.0], [0.0, -0.0, -0.5, -1.0]),
    ])
    def test_values_at_samples_skip_newton(self, monkeypatch, v, values):
        # a value equal to a step's first sample starts at the fraction 0 and keeps it, signed zero included;
        # the last sample starts at 1, where the quartic need not take it exactly
        seen = newton_values(monkeypatch)
        self.assert_same(polyline(v), 1, values)
        off = [c for c in values if c not in v[:-1]]  # -0.0 == 0.0: a signed zero is a sample either way
        assert seen == ([off] if off else [])

    @pytest.mark.parametrize("family,strength", [(1, 0.2), (3, 0.4)])
    def test_a_shock_sends_newton_only_the_values_off_its_samples(self, power_gas, monkeypatch, family, strength):
        pair = shocklayer.solve_rh(power_gas, shocklayer.State(1.0, 0.0, 1.0), family, strength)
        prof = shocklayer.shock_profile(power_gas, pair)
        oracle = shocklayer.gilbarg_oracle(power_gas, pair)
        seen = newton_values(monkeypatch)
        for traj, j in ((prof.trajectory, 1), (oracle.trajectory, 0)):
            grid = compare_grid(prof.trajectory.Vs[:, 1], oracle.trajectory.Vs[:, 0])
            self.assert_same(traj, j, grid)
            samples = set(traj.y0s[:, j].tolist())
            off = [c for c in grid.tolist() if c not in samples]
            assert 0 < len(off) < grid.size and seen.pop() == off

    def test_scalar_odes(self):
        up = integrate_direct(exp_ode(), np.array([1.0]), (0.0, 2.0), tol=1e-10)
        self.assert_same(up, 0, np.linspace(1.0, np.exp(2.0) - 1e-9, 57))
        self.assert_same(up, 0, up.Vs[:, 0])
        self.assert_same(up, 0, 2.0)
        self.assert_same(up, 0, np.linspace(1.5, 7.0, 12).reshape(3, 4))
        down = integrate_direct(exp_ode(), np.array([1.0]), (0.0, -1.0), tol=1e-10)
        self.assert_same(down, 0, np.linspace(np.exp(-1.0) + 1e-9, 0.99, 23))
        rescaled = integrate_rescaled(affine_zeta_ode(), np.array([1.0]), (0.0, 2.0), tol=1e-10)
        self.assert_same(rescaled, -1, np.linspace(0.0, 4.0, 33))

    @pytest.mark.parametrize("family,strength", [(1, 0.2), (1, 2.0), (3, 0.4)])
    def test_shock_profiles_on_the_comparison_grid(self, power_gas, family, strength):
        pair = shocklayer.solve_rh(power_gas, shocklayer.State(1.0, 0.0, 1.0), family, strength)
        prof = shocklayer.shock_profile(power_gas, pair)
        oracle = shocklayer.gilbarg_oracle(power_gas, pair)
        grid = compare_grid(prof.trajectory.Vs[:, 1], oracle.trajectory.Vs[:, 0])
        self.assert_same(prof.trajectory, 1, grid)
        self.assert_same(oracle.trajectory, 0, grid)
        self.assert_same(prof.trajectory, 2, prof.trajectory.Vs[3:-3, 2])

    @pytest.mark.parametrize("family,strength", [(1, 0.2), (3, 0.4)])
    def test_values_leaving_in_different_rounds(self, power_gas, family, strength):
        # a sample value converges at once, a step midpoint after Newton rounds: both in one call
        pair = shocklayer.solve_rh(power_gas, shocklayer.State(1.0, 0.0, 1.0), family, strength)
        prof = shocklayer.shock_profile(power_gas, pair)
        oracle = shocklayer.gilbarg_oracle(power_gas, pair)
        rescaled = integrate_rescaled(affine_zeta_ode(), np.array([1.0]), (0.0, 2.0), tol=1e-10)
        for traj, j in ((prof.trajectory, 1), (oracle.trajectory, 0), (rescaled, -1)):
            mid = traj.step_eval(np.arange(traj.hs.size), 0.5)[0][:, j]
            values = np.concatenate([traj.ys[:, j], mid, 0.5 * (traj.ys[:-1, j] + traj.ys[1:, j])])
            self.assert_same(traj, j, values)


class TestSingularityGuard:
    def test_halts_near_singular_set(self):
        delta = 1e-6
        traj = integrate_direct(decay_to_zero_ode(), np.array([1.0]), (0.0, 1.0), tol=1e-10)
        assert traj.termination == TERM_SINGULARITY
        z_final = float(traj.final_V[0])
        assert 0.0 < z_final <= 2.0 * delta  # same side, within the guard band
        assert traj.xs[-1] == pytest.approx(0.5, abs=1e-6)  # collapse point of sqrt(1 - 2x)
        assert traj.stats.min_abs_zeta <= 2.0 * delta
        assert np.all(traj.Vs > 0.0)  # never jumped across zeta = 0

    def test_steps_across_the_singular_set_are_rejected(self):
        # F = -zeta makes dV/dx = -1 regular across zeta = V = 0, and the
        # error estimate vanishes; only the sign veto stops the run there
        ode = SingularODE(F_eval=lambda V: [-V[0]], zeta_eval=lambda V: float(V[0]), label="regular crossing")
        traj = integrate_direct(ode, np.array([1.0]), (0.0, 2.0), tol=1e-10)
        assert traj.termination == TERM_SINGULARITY
        assert np.all(traj.Vs > 0.0) and traj.final_V[0] <= 1e-6
        assert traj.stats.n_rejected > 0 and traj.stats.zeta_sign_changes == 0

    def test_initial_point_inside_guard_rejected(self):
        with pytest.raises(SingularityError):
            integrate_direct(decay_to_zero_ode(), np.array([5e-7]), (0.0, 1.0))

    def test_initial_point_on_singular_set_rejected(self):
        # zeta = 0 makes the stage unusable, and is still a SingularityError
        with pytest.raises(SingularityError, match=r"\|zeta\| = 0\.000e\+00 <= delta"):
            integrate_direct(decay_to_zero_ode(), np.array([0.0]), (0.0, 1.0))

    def test_rescaled_continues_past_collapse(self):
        # desingularized: dV/dtau = -1, dx/dtau = V; no halt at V = 0
        traj = integrate_rescaled(decay_to_zero_ode(), np.array([1.0]), (0.0, 1.5), tol=1e-10)
        assert traj.termination == TERM_REACHED_END
        assert traj.final_V[0] == pytest.approx(-0.5, abs=1e-10)
        assert traj.stats.zeta_sign_changes == 1
        assert np.all(np.isfinite(traj.Vs))


class TestRestPoints:
    @pytest.mark.parametrize("mode", ["direct", "rescaled"])
    def test_exact_equilibrium_covers_the_span(self, gas, mode):
        # z = 0 makes the reduced field vanish exactly; no rest-point halt ends the run, so it covers
        # its span in a few growing steps and V never moves
        ode = steady_singular_ode(gas)
        U0 = np.array([1.2, 0.7, 0.9, 0.0, 0.0])
        traj = INTEGRATORS[mode](ode, U0, (0.0, 50.0), tol=1e-10)
        assert traj.termination == TERM_REACHED_END
        assert traj.ts[-1] == 50.0 and traj.stats.n_rejected == 0
        assert np.all(traj.Vs == U0)
        if mode == "direct":
            assert traj.stats.n_accepted == 12
        else:  # dx/dtau = zeta, constant at a rest point
            assert traj.xs[-1] == pytest.approx(50.0 * ode.zeta_eval(U0.tolist()), rel=1e-14)

    def test_relaxation_goes_the_distance(self):
        # an exponential approach to a rest point runs its whole span and
        # ends on the rest point
        ode = SingularODE(
            F_eval=lambda V: [-(V[0] - 2.0)],
            zeta_eval=lambda V: 1.0,
            label="relaxation",
        )
        traj = integrate_direct(ode, np.array([1.0]), (0.0, 100.0), tol=1e-10)
        assert traj.termination == TERM_REACHED_END
        assert abs(traj.final_V[0] - 2.0) <= 1e-8

    def test_no_false_positive_on_slow_field(self):
        ode = SingularODE(
            F_eval=lambda V: [1e-6],
            zeta_eval=lambda V: 1.0,
            label="slow drift",
        )
        traj = integrate_direct(ode, np.array([0.0]), (0.0, 10.0))
        assert traj.termination == TERM_REACHED_END
        assert abs(traj.final_V[0] - 1e-5) <= 1e-12


class TestStopAndFailure:
    def test_stop_when_direct(self):
        traj = integrate_direct(
            exp_ode(), np.array([1.0]), (0.0, 5.0),
            stop_when=lambda x, V: V[0] >= 2.0,
        )
        assert traj.termination == TERM_STOPPED
        assert traj.final_V[0] >= 2.0
        assert np.log(2.0) <= traj.xs[-1] <= np.log(2.0) + 0.5

    def test_stop_when_rescaled_sees_x(self):
        traj = integrate_rescaled(
            affine_zeta_ode(), np.array([1.0]), (0.0, 5.0),
            stop_when=lambda tau, V, x: x >= 1.0,
        )
        assert traj.termination == TERM_STOPPED
        assert traj.xs[-1] >= 1.0
        assert traj.xs[-2] < 1.0 + 0.75  # stopped promptly after the crossing

    def test_step_budget_exhaustion(self, monkeypatch):
        monkeypatch.setattr(sode, "MAX_STEPS", 5)
        with pytest.raises(StepFailureError):
            integrate_direct(exp_ode(), np.array([1.0]), (0.0, 50.0))

    def test_bad_initial_rhs(self, gas):
        ode = steady_singular_ode(gas)
        with pytest.raises(DomainError):
            # negative density: F raises, reported as non-finite start
            integrate_direct(ode, np.array([-1.0, 1.0, 1.0, 0.0, 0.0]), (0.0, 1.0))


class TestInitialStep:
    @staticmethod
    def circle_ode(calls, band):
        # dV/dx = (V1, -V0) keeps V on the unit circle; outside 1 + band, F is NaN (band None: never)
        def F(V):
            calls.append(list(V))
            inside = band is None or V[0] * V[0] + V[1] * V[1] <= 1.0 + band
            return [V[1], -V[0]] if inside else [float("nan")] * 2

        return SingularODE(F_eval=F, zeta_eval=lambda V: 1.0, label="unit circle")

    def test_non_finite_probe_falls_back_to_a_small_step(self):
        # F is finite at y0 = (1, 0), but the starting-step probe y0 + h0 f0 = (1, -h0) is the
        # Euler step, which leaves the circle by h0^2 and lands where F is NaN
        calls = []
        traj = integrate_direct(self.circle_ode(calls, 1e-6), [1.0, 0.0], (0.0, 0.05))
        y0, probe = calls[:2]
        h0 = -probe[1]
        assert y0 == [1.0, 0.0] and probe[0] == 1.0 and 1.0 + h0 * h0 > 1.0 + 1e-6
        fallback = max(min(h0 * 1e-3, 0.05), 1e-12)
        assert traj.termination == TERM_REACHED_END and np.isfinite(traj.Vs).all()
        assert 0.0 < traj.hs[0] <= fallback
        np.testing.assert_allclose(traj.final_V, [np.cos(0.05), -np.sin(0.05)], rtol=0.0, atol=1e-9)
        # without the NaN band the same probe is finite and the first step is far larger
        regular = integrate_direct(self.circle_ode([], None), [1.0, 0.0], (0.0, 0.05))
        assert regular.hs[0] > 100 * fallback


def counted_ode(ode):
    """The same ODE with its F evaluations counted in calls[0] and its zeta evaluations in calls[1]."""
    calls = [0, 0]

    def F(V):
        calls[0] += 1
        return ode.F_eval(V)

    def zeta(V):
        calls[1] += 1
        return ode.zeta_eval(V)

    counted = SingularODE(F_eval=F, zeta_eval=zeta, label=ode.label)
    return counted, calls


def sample_specs(gas):
    """(mode, ode, start, span, tol) of three direct and two rescaled runs."""
    U0 = np.array([1.0, 0.5, 1.0, 0.01, -0.01])
    return [
        ("direct", exp_ode(), np.array([1.0]), (0.0, 2.0), 1e-10),
        ("direct", decay_to_zero_ode(), np.array([1.0]), (0.0, 1.0), 1e-10),
        ("direct", steady_singular_ode(gas), U0, (0.0, 0.25), 1e-8),
        ("rescaled", affine_zeta_ode(), np.array([-0.5]), (0.0, 2.0), 1e-10),
        ("rescaled", steady_singular_ode(gas), U0, (0.0, 0.25), 1e-8),
    ]


INTEGRATORS = {"direct": integrate_direct, "rescaled": integrate_rescaled}


def sample_runs(gas):
    """(ode, trajectory) of the sample_specs runs."""
    return [(ode, INTEGRATORS[mode](ode, V0, span, tol=tol)) for mode, ode, V0, span, tol in sample_specs(gas)]


class TestTolerance:
    """tol must be positive and finite: anything else is a DomainError before the first step."""

    @pytest.mark.parametrize("tol", [0.0, -1e-10, float("nan"), float("inf")])
    @pytest.mark.parametrize("run", ["integrate_direct", "integrate_rescaled", "shock_profile", "boundary_layer"])
    def test_rejected(self, run, tol):
        gas = GasModel()
        ode = SingularODE(F_eval=lambda V: [-V[0], 0.0], zeta_eval=lambda V: 1.0)
        calls = {
            "integrate_direct": lambda: integrate_direct(ode, [1.0, 0.0], (0.0, 1.0), tol=tol),
            "integrate_rescaled": lambda: integrate_rescaled(ode, [1.0, 0.0], (0.0, 1.0), tol=tol),
            "shock_profile": lambda: profiles.shock_profile(
                gas, profiles.solve_rh(gas, State(1.0, 0.0, 1.0), 1, 0.2), profiles.ShootOpts(tol=tol),
            ),
            "boundary_layer": lambda: profiles.boundary_layer(
                gas, State(1.0, -0.3, 1.0), 0, 1e-3, tol=tol,
            ),
        }
        with pytest.raises(DomainError, match=f"tol must be positive and finite, got {tol!r}"):
            calls[run]()


    @pytest.mark.parametrize("mode", ["direct", "rescaled"])
    def test_below_the_floor_steps_at_the_floor(self, gas, mode):
        # the scale is max(tol, REL_FLOOR) (1 + |y|), its absolute part included, so components at 0
        # (v and z2 at the start here) weigh the same at any tol below REL_FLOOR
        U0 = np.array([1.0, 0.0, 1.0, 0.01, 0.0])
        ode = tw_singular_ode(gas, 0.3)
        runs = [run_outcome(INTEGRATORS[mode], ode, U0, (0.0, 0.5), tol=tol) for tol in (5e-324, 1e-20, REL_FLOOR)]
        assert runs[0] == runs[1] == runs[2]
        assert runs[0] == run_outcome(REFERENCES[mode], ode, U0, (0.0, 0.5), tol=5e-324)
        assert runs[0][2].n_accepted > 0


class TestEvaluationCounts:
    def _runs(self, gas):
        return [traj for _, traj in sample_runs(gas)]

    def test_six_evaluations_per_step(self, gas):
        # f0 and the starting-step probe, then six new stages per attempt:
        # k0 is the previous step's last stage, and is kept after a rejection
        runs = self._runs(gas)
        assert any(t.stats.n_rejected > 0 for t in runs)
        for traj in runs:
            st = traj.stats
            assert st.n_fevals <= 2 + 6 * (st.n_accepted + st.n_rejected)

    @pytest.mark.parametrize("mode", ["direct", "rescaled"])
    def test_F_called_once_per_evaluation(self, gas, mode):
        # the accept checks reuse the last stage's (F, zeta) instead of calling F
        # over this span the run ends in rejections and a step failure
        ode, calls = counted_ode(steady_singular_ode(gas))
        U0 = np.array([1.0, 0.5, 1.0, 0.01, -0.01])
        run = integrate_direct if mode == "direct" else integrate_rescaled
        traj = run(ode, U0, (0.0, 10.0), tol=1e-10)
        assert traj.stats.n_accepted > 100 and traj.stats.n_rejected > 10
        assert calls[0] == traj.stats.n_fevals

    def test_zeta_called_once_per_evaluation_in_direct_mode(self, gas):
        # the start check and the guard sign come from the first stage
        ode, calls = counted_ode(steady_singular_ode(gas))
        traj = integrate_direct(ode, np.array([1.0, 0.5, 1.0, 0.01, -0.01]), (0.0, 0.25), tol=1e-8)
        assert calls[1] == traj.stats.n_fevals == calls[0]


def is_float_list(V, n):
    return type(V) is list and len(V) == n and all(type(c) is float for c in V)


class TestCallbackContract:
    """F, zeta and stop_when receive V as a list of Python floats, in both modes."""

    @pytest.mark.parametrize("mode", ["direct", "rescaled"])
    def test_callbacks_receive_float_lists(self, gas, mode):
        ode = steady_singular_ode(gas)
        seen = {"F": [], "zeta": [], "stop": []}

        def F(V):
            seen["F"].append(V)
            return ode.F_eval(V)

        def zeta(V):
            seen["zeta"].append(V)
            return ode.zeta_eval(V)

        def stop(t, V, *x):
            seen["stop"].append(V)
            assert all(type(c) is float for c in (t, *x))
            return False

        recording = SingularODE(F_eval=F, zeta_eval=zeta)
        U0 = np.array([1.0, 0.5, 1.0, 0.01, -0.01])
        traj = INTEGRATORS[mode](recording, U0, (0.0, 0.25), tol=1e-8, stop_when=stop)
        assert traj.termination == TERM_REACHED_END
        assert len(seen["F"]) == traj.stats.n_fevals
        assert len(seen["stop"]) == traj.stats.n_accepted
        for name, calls in seen.items():
            assert calls and all(is_float_list(V, 5) for V in calls), name

    def test_reduction_returns_float_lists(self, gas, power_gas):
        for g in (gas, power_gas):
            ode = tw_singular_ode(g, -0.4)
            V = [1.2, 0.5, 1.1, 0.6, -0.2]
            assert is_float_list(ode.F_eval(V), 5)
            assert type(ode.zeta_eval(V)) is float


def zeta_sign_changes(zetas):
    """Sign changes along a sequence, zeros skipped."""
    signs = np.sign(zetas)
    signs = signs[signs != 0.0]
    return int(np.count_nonzero(signs[1:] != signs[:-1]))


class TestSharedBookkeeping:
    """min |zeta| and the zeta sign changes follow from the samples, in both modes."""

    def _runs(self, gas):
        crossing = integrate_rescaled(decay_to_zero_ode(), np.array([1.0]), (0.0, 1.5), tol=1e-10)
        return sample_runs(gas) + [(decay_to_zero_ode(), crossing)]

    def test_min_abs_zeta_is_exact(self, gas):
        for ode, traj in self._runs(gas):
            zetas = [ode.zeta_eval(V) for V in traj.Vs.tolist()]
            assert traj.stats.min_abs_zeta == min(abs(z) for z in zetas)

    def test_sign_changes_are_exact(self, gas):
        runs = self._runs(gas)
        counts = [zeta_sign_changes([ode.zeta_eval(V) for V in traj.Vs.tolist()]) for ode, traj in runs]
        assert [traj.stats.zeta_sign_changes for _, traj in runs] == counts
        assert [traj.mode for _, traj in runs] == ["direct"] * 3 + ["rescaled"] * 3
        assert counts == [0, 0, 0, 1, 0, 1]  # none in direct mode


# The numpy stepping loop the float stepper replaced, kept as a reference.
# Its tableau products `_A[i] @ K[:i]` and `_E @ K` went through a BLAS
# gemv, which may fuse multiply-adds depending on the kernel, and its norms
# through np.mean. Here every tableau row is summed elementwise, left to
# right over its nonzero entries, and every norm left to right over the
# first m components, V without the rescaled mode's x: the order and the
# weights the float stepper documents.
REF_A = [
    [],
    [1 / 5],
    [3 / 40, 9 / 40],
    [44 / 45, -56 / 15, 32 / 9],
    [19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729],
    [9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656],
    [35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84],
]
REF_E = [71 / 57600, 0.0, -71 / 16695, 71 / 1920, -17253 / 339200, 22 / 525, -1 / 40]
REF_P = np.array([
    [1.0, -8048581381 / 2820520608, 8663915743 / 2820520608, -12715105075 / 11282082432],
    [0.0, 0.0, 0.0, 0.0],
    [0.0, 131558114200 / 32700410799, -68118460800 / 10900136933, 87487479700 / 32700410799],
    [0.0, -1754552775 / 470086768, 14199869525 / 1410260304, -10690763975 / 1880347072],
    [0.0, 127303824393 / 49829197408, -318862633887 / 49829197408, 701980252875 / 199316789632],
    [0.0, -282668133 / 205662961, 2019193451 / 616988883, -1453857185 / 822651844],
    [0.0, 40617522 / 29380423, -110615467 / 29380423, 69997945 / 29380423],
])


def ref_row_sum(row, K):
    """sum_j row[j] K[j], elementwise and left to right over the nonzero entries."""
    acc = None
    for a, k in zip(row, K):
        if a != 0.0:
            acc = a * k if acc is None else acc + a * k
    return acc


def ref_rms(v):
    """sqrt(mean(v^2)), the squares summed left to right."""
    return float(np.sqrt(np.add.accumulate(v * v)[-1] / v.size))


def ref_error_norm(err, y0, y1, tol, m):
    rtol = max(tol, REL_FLOOR)  # the scale max(tol, REL_FLOOR) (1 + |y|), absolute part included
    return ref_rms(err[:m] / (rtol + rtol * np.maximum(np.abs(y0[:m]), np.abs(y1[:m]))))


def ref_initial_step(stage, y0, f0, direction, span, tol, m):
    rtol = max(tol, REL_FLOOR)
    scale = rtol + rtol * np.abs(y0[:m])
    d0 = ref_rms(y0[:m] / scale)
    d1 = ref_rms(f0[:m] / scale)
    h0 = 1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1
    h0 = min(h0, span) or span
    probe = stage(y0 + direction * h0 * f0)
    if probe is None or not np.all(np.isfinite(probe[0])):
        return max(min(h0 * 1e-3, span), 1e-12)
    d2 = ref_rms((probe[0][:m] - f0[:m]) / scale) / h0
    h1 = max(1e-6, h0 * 1e-3) if max(d1, d2) <= 1e-15 else (0.01 / max(d1, d2)) ** 0.2
    return min(100 * h0, h1, span)


def ref_dp54_step(stage, y, h, k0):
    K = np.empty((7, y.size))
    K[0] = k0
    for i in range(1, 7):
        yi = y + h * ref_row_sum(REF_A[i], K[:i])
        r = stage(yi)
        if r is None:
            return None
        K[i] = r[0]
    err = h * ref_row_sum(REF_E, K)
    if not (np.all(np.isfinite(yi)) and np.all(np.isfinite(err))):
        return None
    return yi, err, K, r[1]


def ref_run(rhs, t0, y0, t_end, tol, max_steps, stop_when, guard_sign):
    m = y0.size if guard_sign is not None else y0.size - 1  # the norms weigh V, not the rescaled mode's x
    if t_end == t0:
        raise DomainError("integration span is empty")
    direction = 1.0 if t_end > t0 else -1.0
    span = abs(t_end - t0)
    n_fev = 0

    def stage(y):
        nonlocal n_fev
        n_fev += 1
        return rhs(y)

    first = stage(y0)
    if first is None or not np.all(np.isfinite(first[0])):
        raise DomainError("right-hand side not finite at the initial point")
    k0, z = first
    h = ref_initial_step(stage, y0, k0, direction, span, tol, m)
    min_zeta = abs(z)
    last_sign = np.sign(z)
    sign_changes = 0
    ts, ys, hs, Ks = [t0], [y0], [], []
    n_acc = n_rej = 0
    termination = TERM_REACHED_END
    t, y = t0, y0
    steps = 0
    while steps < max_steps:
        steps += 1
        h = min(h, abs(t_end - t))
        if h <= abs(t) * 1e-16 + 1e-300:
            termination = TERM_STEP_FAILURE
            break
        result = ref_dp54_step(stage, y, direction * h, k0)
        if result is not None:
            y_new, err, K, z = result
            enorm = ref_error_norm(err, y, y_new, tol, m)
            if enorm > 1.0:
                n_rej += 1
                h *= max(0.2, 0.9 * enorm ** -0.2)
                continue
        if result is None or (guard_sign is not None and np.sign(z) == -guard_sign):
            n_rej += 1
            h *= 0.5
            continue
        t = t + direction * h
        hs.append(direction * h)
        Ks.append(K)
        ts.append(t)
        ys.append(y_new)
        n_acc += 1
        y, k0 = y_new, K[6]
        min_zeta = min(min_zeta, abs(z))
        s = np.sign(z)
        if s != 0.0 and last_sign != 0.0 and s != last_sign:
            sign_changes += 1
        if s != 0.0:
            last_sign = s
        if guard_sign is not None and abs(z) <= DELTA:
            termination = TERM_SINGULARITY
            break
        if stop_when is not None and stop_when(t, y.tolist()):
            termination = TERM_STOPPED
            break
        if abs(t - t_end) <= 1e-14 * max(abs(t), abs(t_end), 1.0):
            termination = TERM_REACHED_END
            break
        h *= 5.0 if enorm == 0.0 else min(5.0, max(0.2, 0.9 * enorm ** -0.2))
    else:
        raise StepFailureError(f"step budget {max_steps} exhausted")
    stats = TrajectoryStats(n_acc, n_rej, n_fev, min_zeta, sign_changes, h)
    return dict(
        ts=np.array(ts), ys=np.array(ys), termination=termination, stats=stats, hs=np.array(hs),
        Q=ref_dense_output(np.array(Ks).reshape(-1, 7, y0.size)),
    )


def ref_dense_output(K):
    """Q from all seven stages of every step, K of shape (n, 7, d), summed as the run did when it packed all seven.

    The stages are copied to seven contiguous (n, d) slabs; each is scaled
    by its row of P as (4, 1, 1) and added in place, in tableau order.
    """
    K = K.transpose(1, 0, 2).copy()
    Q = K[0] * REF_P[0, :, None, None]
    for j in range(1, 7):
        Q += K[j] * REF_P[j, :, None, None]
    return Q.transpose(1, 2, 0).copy()


def ref_integrate_direct(ode, V0, x_span, tol=DEFAULT_TOL, stop_when=None):
    V0 = np.asarray(V0, dtype=float)
    z0 = ode.zeta_eval(V0.tolist())
    if abs(z0) <= DELTA:
        raise SingularityError(f"initial point has |zeta| = {abs(z0):.3e} <= delta = {DELTA:g}")

    def rhs(V):
        try:
            z = ode.zeta_eval(V.tolist())
            if z == 0.0 or not np.isfinite(z):
                return None
            return np.array(ode.F_eval(V.tolist())) / z, z
        except (DomainError, ZeroDivisionError, OverflowError):
            return None

    return Trajectory(mode="direct", **ref_run(
        rhs, float(x_span[0]), V0, float(x_span[1]), tol, sode.MAX_STEPS, stop_when, 1.0 if z0 > 0 else -1.0,
    ))


def ref_integrate_rescaled(ode, V0, tau_span, tol=DEFAULT_TOL, x0=0.0, stop_when=None):
    V0 = np.asarray(V0, dtype=float)

    def rhs(y):
        try:
            V = y[:-1].tolist()
            F = np.array(ode.F_eval(V))
            z = ode.zeta_eval(V)
            return np.append(F, z), z
        except (DomainError, ZeroDivisionError, OverflowError):
            return None

    def stop(tau, y):
        return bool(stop_when(tau, y[:-1], float(y[-1])))

    return Trajectory(mode="rescaled", **ref_run(
        rhs, float(tau_span[0]), np.append(V0, float(x0)), float(tau_span[1]), tol, sode.MAX_STEPS,
        stop if stop_when is not None else None, None,
    ))


REFERENCES = {"direct": ref_integrate_direct, "rescaled": ref_integrate_rescaled}


def run_outcome(integrate, *args, **kwargs):
    """Every array byte, the termination and the stats of a run, or its error class and message."""
    try:
        traj = integrate(*args, **kwargs)
    except (DomainError, SingularityError, StepFailureError) as exc:
        return type(exc).__name__, str(exc)
    arrays = {f: getattr(traj, f) for f in ("ts", "Vs", "xs", "taus", "t0s", "hs", "y0s", "Q")}
    return (
        traj.mode, traj.termination, traj.stats,
        {f: None if a is None else (a.shape, a.tobytes()) for f, a in arrays.items()},
    )


def sup_dist(a, b):
    """max |a_i - b_i|, the sup distance the stop closures of profiles were written with."""
    return max(map(abs, map(sub, a, b)))


def spiral(V):
    """A spiral growing as e^(t/5)."""
    return [0.2 * V[0] - V[1], V[0] + 0.2 * V[1]]


def walled_spiral(outcomes):
    """The spiral, raising DomainError where V[0] > 3.

    Each call appends True to outcomes, or False when it raises.
    """

    def F(V):
        outcomes.append(V[0] <= 3.0)
        if not outcomes[-1]:
            raise DomainError("past the wall")
        return spiral(V)

    return F


def failing_positions(outcomes):
    """Stages (2..7) at which attempts failed, from one run's per-evaluation outcomes.

    An attempt evaluates stages 2..7 in turn and stops at the first
    unusable one, the next attempt starts again at stage 2, and an
    accepted step adds six usable evaluations; so the usable evaluations
    between two failures, modulo six, are the second failing stage less 2.
    """
    fails = [i for i, ok in enumerate(outcomes) if not ok]
    return {(b - a - 1) % 6 + 2 for a, b in zip(fails, fails[1:])}


# a generated gas, and a state (rho, v, theta) at the distance zeta0 from the speed sigma, on either side
GAS_AND_STATE = dict(
    gamma=st.floats(1.2, 5.0 / 3.0),
    nu=st.tuples(st.floats(0.7, 1.4), st.floats(-0.5, 1.0)),
    k=st.tuples(st.floats(0.7, 1.4), st.floats(-0.5, 1.0)),
    rho_theta=st.tuples(st.floats(0.8, 1.2), st.floats(0.8, 1.2)),
    v=st.floats(-0.5, 0.5),
    zeta0=st.floats(0.05, 0.7),
    below=st.booleans(),
)


def gas_and_speed(gamma, nu, k, v, zeta0, below):
    """The gas and the speed sigma of GAS_AND_STATE draws."""
    sigma = v + zeta0 if below else v - zeta0
    return GasModel(gamma=gamma, nu_law=PowerLaw(*nu), k_law=PowerLaw(*k)), sigma


class TestFloatStepperMatchesReference:
    """The float stepper reproduces the reference numpy loop bit for bit, counters included."""

    def assert_same(self, mode, ode, V0, span, tol, **kwargs):
        new = run_outcome(INTEGRATORS[mode], ode, V0, span, tol=tol, **kwargs)
        ref = run_outcome(REFERENCES[mode], ode, V0, span, tol=tol, **kwargs)
        assert new == ref
        return new

    def test_sample_runs(self, gas):
        for spec in sample_specs(gas):
            self.assert_same(*spec)

    def test_sign_veto_rejections_and_stops(self, gas):
        crossing = SingularODE(F_eval=lambda V: [-V[0]], zeta_eval=lambda V: float(V[0]))
        _, term, stats, _ = self.assert_same("direct", crossing, np.array([1.0]), (0.0, 2.0), 1e-10)
        assert term == TERM_SINGULARITY and stats.n_rejected > 0
        # rejections by the error test, then a step failure
        U0 = np.array([1.0, 0.5, 1.0, 0.01, -0.01])
        _, _, stats, _ = self.assert_same("direct", steady_singular_ode(gas), U0, (0.0, 10.0), 1e-10)
        assert stats.n_rejected > 10
        self.assert_same("direct", exp_ode(), np.array([1.0]), (0.0, 5.0), 1e-10, stop_when=lambda x, V: V[0] >= 2.0)
        self.assert_same(
            "rescaled", affine_zeta_ode(), np.array([1.0]), (0.0, 5.0), 1e-10, stop_when=lambda tau, V, x: x >= 1.0,
        )
        self.assert_same("rescaled", decay_to_zero_ode(), np.array([1.0]), (0.0, 1.5), 1e-10)
        self.assert_same("direct", steady_singular_ode(gas), np.array([1.2, 0.7, 0.9, 0.0, 0.0]), (0.0, 50.0), 1e-10)

    def test_errors_match(self, gas, monkeypatch):
        assert self.assert_same("direct", decay_to_zero_ode(), np.array([5e-7]), (0.0, 1.0), 1e-10)[0] == "SingularityError"
        assert self.assert_same("direct", exp_ode(), np.array([1.0]), (1.0, 1.0), 1e-10)[0] == "DomainError"
        bad = np.array([-1.0, 1.0, 1.0, 0.0, 0.0])
        assert self.assert_same("direct", steady_singular_ode(gas), bad, (0.0, 1.0), 1e-10)[0] == "DomainError"
        monkeypatch.setattr(sode, "MAX_STEPS", 5)
        out = self.assert_same("direct", exp_ode(), np.array([1.0]), (0.0, 50.0), 1e-10)
        assert out[0] == "StepFailureError"

    def test_flux_form_oracle_kernel(self, gas):
        # the oracle's 2-D flux-form field in direct mode, over its own shot and past it;
        # the kernel runs the flux-form source inline, the reference calls F and zeta
        pair = shocklayer.solve_rh(gas, shocklayer.State(1.0, 0.0, 1.0), 1, 0.2)
        orc = shocklayer.gilbarg_oracle(gas, pair)
        ode = profiles._flux_form(gas, orc.sigma, orc.m, orc.Pi, orc.Eflux)
        ts, Vs = orc.trajectory.ts, orc.trajectory.Vs
        _, _, stats, _ = self.assert_same("direct", ode, Vs[0], (ts[0], ts[-1]), 1e-10)
        assert stats.n_accepted > 50
        self.assert_same("direct", ode, Vs[0], (ts[0], 3.0 * ts[-1] - 2.0 * ts[0]), 1e-10)

    @pytest.mark.parametrize("mode", ["direct", "rescaled"])
    def test_stages_failing_at_different_positions(self, mode):
        # a growing spiral whose F raises past a wall: steps across it fail at whichever stage lands there
        outcomes = []
        ode = SingularODE(F_eval=walled_spiral(outcomes), zeta_eval=lambda V: 1.0)
        _, term, stats, _ = self.assert_same(mode, ode, np.array([1.0, 0.0]), (0.0, 30.0), 1e-10)
        assert term == TERM_STEP_FAILURE and stats.n_rejected > 20
        assert len(outcomes) == 2 * stats.n_fevals  # the run above and the reference
        assert len(failing_positions(outcomes[:stats.n_fevals])) >= 3

    @pytest.mark.parametrize("value", [0.0, float("nan")])
    def test_zeta_unusable_part_way_through_a_step(self, value):
        outcomes = []

        def zeta(V):
            outcomes.append(V[0] <= 3.0)
            return 1.0 if outcomes[-1] else value

        ode = SingularODE(F_eval=spiral, zeta_eval=zeta)
        _, term, stats, _ = self.assert_same("direct", ode, np.array([1.0, 0.0]), (0.0, 30.0), 1e-10)
        assert term == TERM_STEP_FAILURE and stats.n_rejected > 20
        assert len(failing_positions(outcomes[:stats.n_fevals])) >= 3

    @settings(max_examples=20, deadline=None)
    @given(
        **GAS_AND_STATE,
        z=st.tuples(st.floats(-0.05, 0.05), st.floats(-0.05, 0.05)),
        mode=st.sampled_from(["direct", "rescaled"]),
        tol=st.sampled_from([1e-8, 1e-10]),
    )
    def test_generated_gases(self, gamma, nu, k, rho_theta, v, zeta0, below, z, mode, tol):
        gas, sigma = gas_and_speed(gamma, nu, k, v, zeta0, below)
        U0 = np.array([rho_theta[0], v, rho_theta[1], *z])
        self.assert_same(mode, tw_singular_ode(gas, sigma), U0, (0.0, 0.25), tol)

    @settings(max_examples=20, deadline=None)
    @given(
        **GAS_AND_STATE,
        dV=st.tuples(st.floats(-0.02, 0.02), st.floats(-0.02, 0.02)),
        mode=st.sampled_from(["direct", "rescaled"]),
        tol=st.sampled_from([1e-8, 1e-10]),
    )
    def test_generated_flux_forms(self, gamma, nu, k, rho_theta, v, zeta0, below, dV, mode, tol):
        # zeta is the literal 1.0 here, so the direct stages take k = F with no zeta test
        gas, sigma = gas_and_speed(gamma, nu, k, v, zeta0, below)
        m, Pi, Eflux = profiles._flux_integrals(gas, sigma, rho_theta[0], v, rho_theta[1], 0.0, 0.0)
        ode = profiles._flux_form(gas, sigma, m, Pi, Eflux)
        assert sode._bound(ode, 2)[0] is profiles.FLUX_RHS
        self.assert_same(mode, ode, np.array([v + dV[0], rho_theta[1] + dV[1]]), (0.0, 1.0), tol)

    @settings(max_examples=40, deadline=None)
    @given(
        **GAS_AND_STATE,
        z=st.tuples(st.floats(-0.05, 0.05), st.floats(-0.05, 0.05)),
        branch=st.sampled_from(["capture", "diverge", "diverge-near-target", "floor", "cap"]),
        mode=st.sampled_from(["direct", "rescaled"]),
        tol=st.sampled_from([1e-8, 1e-10]),
    )
    def test_generated_stop_rules(self, gamma, nu, k, rho_theta, v, zeta0, below, z, branch, mode, tol):
        # the stop rule, tested inside the kernel, against the closures profiles once passed as stop_when:
        # a shot's (capture within capture of the target, or divergence farther than R from both the
        # start and the target, either of which can decide it) and a layer's (x at or below the floor,
        # or V past the cap from the limit)
        gas, sigma = gas_and_speed(gamma, nu, k, v, zeta0, below)
        ode = tw_singular_ode(gas, sigma)
        U0 = np.array([rho_theta[0], v, rho_theta[1], *z])
        # x falls along the span, as in a layer: in direct mode x is t, in rescaled mode dx/dtau = zeta
        span = (0.0, -0.25 if mode == "direct" or ode.zeta_eval(U0.tolist()) > 0.0 else 0.25)
        full = REFERENCES[mode](ode, U0, span, tol=tol)
        start = U0.tolist()
        if branch in ("capture", "diverge", "diverge-near-target"):
            origin = start
            if branch == "capture":  # a sample half way along is the target, so the run stops on it
                target, capture, R = full.Vs[full.n // 2].tolist(), 1e-12, math.inf
            else:  # half the distance the run covers, away from a far target or, the other way, a far origin
                target, capture = [c + 10.0 for c in start], 0.0
                R = 0.5 * sup_dist(full.final_V.tolist(), start)
                if branch == "diverge-near-target":
                    origin, target = target, origin
            rule = sode._StopRule(
                origin=tuple(origin), radius=R, target=tuple(target), capture=capture, x_floor=-math.inf,
            )

            def stop(t, V, *x):
                d = sup_dist(V, target)
                return d <= capture or (d > R and sup_dist(V, origin) > R)
        else:
            if branch == "floor":  # the x half way along
                x_floor, cap = float(full.xs[full.n // 2]), math.inf
            else:  # half the distance the run covers
                x_floor, cap = -math.inf, 0.5 * sup_dist(full.final_V.tolist(), start)
            rule = sode._StopRule(
                origin=tuple(start), radius=cap, target=tuple(start), capture=-math.inf, x_floor=x_floor,
            )

            def stop(t, V, x=None):
                return (t if x is None else x) <= x_floor or sup_dist(V, start) > cap

        inline = run_outcome(INTEGRATORS[mode], ode, U0, span, tol=tol, stop_when=rule)
        assert inline == run_outcome(REFERENCES[mode], ode, U0, span, tol=tol, stop_when=stop)
        assert inline == run_outcome(INTEGRATORS[mode], ode, U0, span, tol=tol, stop_when=stop)
        assert inline == run_outcome(REFERENCES[mode], ode, U0, span, tol=tol, stop_when=rule)  # the rule called
        if full.termination == TERM_REACHED_END and full.n > 2 and rule.radius > 0.0:
            assert inline[1] == TERM_STOPPED

    @settings(max_examples=20, deadline=None)
    @given(
        **GAS_AND_STATE,
        z=st.tuples(st.floats(-0.05, 0.05), st.floats(-0.05, 0.05)),
        mode=st.sampled_from(["direct", "rescaled"]),
        tol=st.sampled_from([1e-8, 1e-10]),
    )
    def test_generated_wrapped_callbacks(self, gamma, nu, k, rho_theta, v, zeta0, below, z, mode, tol):
        # wrappers around the built pair are not that pair, so the kernel calls them once per stage
        gas, sigma = gas_and_speed(gamma, nu, k, v, zeta0, below)
        built = tw_singular_ode(gas, sigma)
        ode = SingularODE(F_eval=lambda V: built.F_eval(V), zeta_eval=lambda V: built.zeta_eval(V))
        assert sode._bound(ode, 5)[0].name == "call"
        U0 = np.array([rho_theta[0], v, rho_theta[1], *z])
        self.assert_same(mode, ode, U0, (0.0, 0.25), tol)


def recorded_runs(monkeypatch, module, name):
    """Record (args, kwargs, trajectory) of every call to module.name, the integrator it imported."""
    calls = []
    integrate = getattr(module, name)

    def spy(*args, **kwargs):
        calls.append((args, kwargs, integrate(*args, **kwargs)))
        return calls[-1][2]

    monkeypatch.setattr(module, name, spy)
    return calls


class TestDenseOutputFromPackedStages:
    """The run packs stages 2..7 and puts stage 1 back: Q keeps the bytes of the sum over seven packed stages."""

    def assert_q_bits(self, mode, traj, ode, V0, span, **kwargs):
        ref = REFERENCES[mode](ode, V0, span, **kwargs)
        assert traj.Q.shape == ref.Q.shape and traj.Q.tobytes() == ref.Q.tobytes()
        ran = run_outcome(lambda *args, **kw: traj, ode, V0, span, **kwargs)
        assert ran == run_outcome(REFERENCES[mode], ode, V0, span, **kwargs)
        return traj

    @pytest.mark.parametrize("family,strength", [
        (1, 0.05), (1, 0.2), (1, 0.8), (1, 2.0), (1, 5.0), (3, 0.05), (3, 0.2), (3, 0.4), (3, 0.5),
    ])
    def test_the_nine_case_sweep(self, gas, monkeypatch, family, strength):
        # the shot and the oracle's shot of each shock, with their stop rules
        runs = recorded_runs(monkeypatch, profiles, "integrate_direct")
        pair = shocklayer.solve_rh(gas, State(1.0, 0.0, 1.0), family, strength)
        shocklayer.shock_profile(gas, pair)
        shocklayer.gilbarg_oracle(gas, pair)
        assert len(runs) == 2
        for (ode, V0, span), kwargs, traj in runs:
            assert isinstance(kwargs["stop_when"], sode._StopRule)
            self.assert_q_bits("direct", traj, ode, V0, span, **kwargs)

    def test_the_readme_layer(self, gas, monkeypatch):
        runs = recorded_runs(monkeypatch, profiles, "integrate_rescaled")
        shocklayer.boundary_layer(gas, State(1.0, -0.3, 1.0))
        [((ode, V0, span), kwargs, traj)] = runs
        self.assert_q_bits("rescaled", traj, ode, V0, span, **kwargs)

    @pytest.mark.parametrize("mode", ["direct", "rescaled"])
    def test_a_call_source_run(self, mode):
        ode = SingularODE(F_eval=spiral, zeta_eval=lambda V: 1.0 + 0.1 * V[0] * V[0])
        V0, span = np.array([1.0, 0.0]), (0.0, 10.0)
        assert sode._bound(ode, 2)[0].name == "call"
        traj = self.assert_q_bits(mode, INTEGRATORS[mode](ode, V0, span, tol=1e-10), ode, V0, span, tol=1e-10)
        assert traj.stats.n_accepted > 50

    @pytest.mark.parametrize("mode", ["direct", "rescaled"])
    @pytest.mark.parametrize("span,accepted", [((0.0, 1e-300), 0), ((0.0, 1e-9), 1)])
    def test_runs_of_zero_and_one_step(self, mode, span, accepted):
        # a span at the round-off floor fails before its first step; a short one is covered in one
        ode, V0 = (exp_ode(), np.array([1.0])) if mode == "direct" else (affine_zeta_ode(), np.array([-0.5]))
        traj = self.assert_q_bits(mode, INTEGRATORS[mode](ode, V0, span, tol=1e-10), ode, V0, span, tol=1e-10)
        assert traj.stats.n_accepted == accepted and traj.Q.shape == (accepted, V0.size + (mode == "rescaled"), 4)

    def test_the_zero_row_of_p_keeps_its_bits(self):
        # stage 1 at -0.0 and stage 2 at +0.0, every other stage -0.0: P's zero row adds 0.0 * (+0.0) to the
        # -0.0 of stage 1, which makes Q's coefficient of theta +0.0; a sum that skipped the row would keep -0.0
        def scripted():
            calls = []

            def F(V):  # stage 1, the starting-step probe, then stages 2..7 of each step
                calls.append(None)
                return [0.0 if len(calls) > 2 and (len(calls) - 3) % 6 == 0 else -0.0]

            return SingularODE(F_eval=F, zeta_eval=lambda V: 1.0)

        traj = integrate_direct(scripted(), np.array([1.0]), (0.0, 1.0), tol=1e-10)
        self.assert_q_bits("direct", traj, scripted(), np.array([1.0]), (0.0, 1.0), tol=1e-10)
        assert traj.stats.n_accepted > 1 and not np.signbit(traj.Q[:, 0, 0]).any()

    @pytest.mark.parametrize("d,mode,rhs,width", [
        (5, "direct", reduction.TW_RHS, 37),
        (2, "direct", profiles.FLUX_RHS, 16),
        (6, "rescaled", reduction.TW_RHS, 44),
    ], ids=["shot", "oracle", "layer"])
    def test_records_pack_seven_d_plus_two_doubles(self, d, mode, rhs, width):
        assert sode._record_width(d) == width
        assert f"struct.Struct('{width}d')" in sode._kernel_source(d, mode, rhs, "rule")


def profiled_calls(fn, *args, **kwargs):
    """fn(*args, **kwargs) under a profiler: ({code object: Python calls}, the result)."""
    counts = {}

    def profiler(frame, event, arg):
        if event == "call":
            counts[frame.f_code] = counts.get(frame.f_code, 0) + 1

    sys.setprofile(profiler)
    try:
        result = fn(*args, **kwargs)
    finally:
        sys.setprofile(None)
    return counts, result


STOP_KINDS = (None, "stop_when", "rule")


class TestKernels:
    def test_one_compile_per_dimension_and_mode(self, monkeypatch):
        # a 64-operation sweep makes about 120 runs; each must reuse its kernel
        monkeypatch.setattr(sode, "_KERNELS", {})
        compiled = []

        def counting(source, filename, *args):
            compiled.append(filename)
            return compile(source, filename, *args)

        monkeypatch.setattr(reduction, "compile", counting, raising=False)
        integrate_direct(exp_ode(), np.array([1.0]), (0.0, 1.0))
        first = sode._KERNELS[(1, "direct", "call", None)]
        integrate_direct(exp_ode(), np.array([2.0]), (0.0, -1.0))
        assert sode._KERNELS[(1, "direct", "call", None)] is first
        for _ in range(2):
            integrate_rescaled(affine_zeta_ode(), np.array([-0.5]), (0.0, 1.0))
        # the stop test is part of the key: a called stop_when, and a rule, whatever its points and
        # whichever of its tests can fire
        for far in (3.0, 4.0):
            integrate_direct(exp_ode(), np.array([1.0]), (0.0, 1.0), stop_when=lambda x, V: V[0] > far)
            for target, capture, x_floor in (((1.0,), -math.inf, -math.inf), ((2.0,), 1e-6 * far, -far)):
                rule = sode._StopRule((1.0,), far, target, capture, x_floor)
                integrate_direct(exp_ode(), np.array([1.0]), (0.0, 1.0), stop_when=rule)
            rule = sode._StopRule((-0.5,), far, (-0.5,), -math.inf, -far)
            integrate_rescaled(affine_zeta_ode(), np.array([-0.5]), (0.0, 1.0), stop_when=rule)
        assert compiled == [
            "<sode step d=1 direct call>", "<sode step d=2 rescaled call>", "<sode step d=1 direct call stop_when>",
            "<sode step d=1 direct call rule>", "<sode step d=2 rescaled call rule>",
        ]
        assert sorted(sode._KERNELS, key=str) == sorted([
            (1, "direct", "call", None), (2, "rescaled", "call", None), (1, "direct", "call", "stop_when"),
            (1, "direct", "call", "rule"), (2, "rescaled", "call", "rule"),
        ], key=str)

    def test_one_compile_per_right_hand_side(self, monkeypatch):
        # the constants are arguments of make: no gas and no speed compiles a kernel of its own.
        # Only step kernels are counted: the right-hand sides' binders compile on first use too, in
        # whichever test builds them first
        monkeypatch.setattr(sode, "_KERNELS", {})
        compiled = []

        def counting(source, filename, *args):
            if filename.startswith("<sode step "):
                compiled.append(filename)
            return compile(source, filename, *args)

        monkeypatch.setattr(reduction, "compile", counting, raising=False)
        gases = [GasModel(), GasModel(gamma=5 / 3, nu_law=PowerLaw(0.8, 0.5)), GasModel(k_law=PowerLaw(1.3, -0.25))]
        for gas in gases:
            for sigma in (-0.6, -0.3, 0.4):
                U0 = np.array([1.0, 0.0, 1.0, 0.01, -0.01])
                form = profiles._flux_form(gas, sigma, -sigma, 1.0 + sigma * sigma, 2.0)
                for ode, V0 in ((tw_singular_ode(gas, sigma), U0), (form, np.array([0.0, 1.0]))):
                    integrate_direct(ode, V0, (0.0, 0.01))
                    integrate_rescaled(ode, V0, (0.0, 0.01))
        assert sorted(compiled) == sorted([
            "<sode step d=5 direct travelling-wave>", "<sode step d=6 rescaled travelling-wave>",
            "<sode step d=2 direct flux-form>", "<sode step d=3 rescaled flux-form>",
        ])
        assert sorted(sode._KERNELS) == sorted([
            (5, "direct", "travelling-wave", None), (6, "rescaled", "travelling-wave", None),
            (2, "direct", "flux-form", None), (3, "rescaled", "flux-form", None),
        ])

    @pytest.mark.parametrize("mode", ["direct", "rescaled"])
    @pytest.mark.parametrize(
        "rhs", [reduction.TW_RHS, profiles.FLUX_RHS, sode._call_source(3)], ids=lambda rhs: rhs.name,
    )
    def test_sources_reuse_no_kernel_name(self, rhs, mode):
        # a spliced line that assigned h, z, a stage local or a tableau name would change the step silently
        def names(source):
            return {n.id for n in ast.walk(ast.parse(source)) if isinstance(n, ast.Name)}

        def spliced(source):
            return names("\n".join([*source.state, *source.consts, *source.pre, *source.lines, *source.F, source.zeta]))

        m = len(rhs.state)
        d = m + (mode == "rescaled")
        # the kernel's own names: those of kernels around sources whose every name is marked, one with
        # the regular zeta 1.0 and one whose zeta is a name, which keeps the zeta test and the division
        # with every stop test
        own = set()
        for zeta in ("1.0", "blank_0"):
            blank = reduction.RhsSource(
                name="blank", state=tuple(f"blank_{i}" for i in range(m)), consts=(), pre=(), positive=(),
                lines=(), F=tuple(f"blank_{i}" for i in range(m)), zeta=zeta,
            )
            for stop in STOP_KINDS:
                own |= names(sode._kernel_source(d, mode, blank, stop)) - spliced(blank)
        assert {"h", "z", "y", "y_0", f"k7_{d - 1}", "t", "dh", "n_fev", "stop_when", "o_0", "capture_lo"} <= own
        assert spliced(rhs) & own == set()

    @pytest.mark.parametrize("mode", ["direct", "rescaled"])
    def test_regular_sources_drop_the_zeta_test(self, mode):
        # the flux form's zeta is the literal 1.0: its direct stages neither test nor divide by it
        source = sode._kernel_source(2 + (mode == "rescaled"), mode, profiles.FLUX_RHS, None)
        test = "if z == 0.0 or not z - z == 0.0:"
        assert test not in source and "/ z" not in source
        tw = sode._kernel_source(5 + (mode == "rescaled"), mode, reduction.TW_RHS, None)
        assert (test in tw) is (mode == "direct") and ("/ z" in tw) is (mode == "direct")

    @pytest.mark.parametrize("mode", ["direct", "rescaled"])
    @pytest.mark.parametrize(
        "rhs", [reduction.TW_RHS, profiles.FLUX_RHS, sode._call_source(3)], ids=lambda rhs: rhs.name,
    )
    def test_kernels_keep_only_the_bookkeeping_they_use(self, rhs, mode):
        # a regular source tracks no zeta, direct mode counts no sign changes (it rejects them), and
        # no stage names its F: every stage writes k straight from F's expressions
        source = sode._kernel_source(len(rhs.state) + (mode == "rescaled"), mode, rhs, None)
        run = next(f for f in ast.walk(ast.parse(source)) if isinstance(f, ast.FunctionDef) and f.name == "run")
        used = {n.id for n in ast.walk(run) if isinstance(n, ast.Name)}
        zeta = {"z", "az", "min_zeta", "sign0", "DELTA", "last_positive", "sign_changes"}
        if rhs.zeta == "1.0":
            assert used & zeta == set()
        elif mode == "direct":
            assert used & zeta == {"z", "az", "min_zeta", "sign0", "DELTA"}
        else:
            assert used & zeta == {"z", "az", "min_zeta", "last_positive", "sign_changes"}
        assert "ts" not in used and "hs" not in used  # t and the step go into the packed record
        assert not any(name.startswith("f") and name[1:].isdigit() for name in used)

    @pytest.mark.parametrize("mode", ["direct", "rescaled"])
    def test_stop_tests_are_written_only_where_asked(self, mode):
        d = 5 + (mode == "rescaled")
        kernels = {stop: sode._kernel_source(d, mode, reduction.TW_RHS, stop) for stop in STOP_KINDS}
        calls = {stop: "stop_when(t, " in source for stop, source in kernels.items()}
        assert calls == {stop: stop == "stop_when" for stop in STOP_KINDS}
        assert "TERM_STOPPED" not in kernels[None]
        rule = {"x_floor", "g_0", "o_0", "capture_lo", "radius_lo"}
        assert {stop for stop, source in kernels.items() if all(name in source for name in rule)} == {"rule"}
        assert not any(name in kernels[stop] for stop in (None, "stop_when") for name in rule)

    @pytest.mark.parametrize("mode", ["direct", "rescaled"])
    @pytest.mark.parametrize(
        "rhs", [reduction.TW_RHS, profiles.FLUX_RHS, sode._call_source(3)], ids=lambda rhs: rhs.name,
    )
    def test_no_kernel_halts_at_a_rest_point(self, rhs, mode):
        # a run ends by its span, its stop test or its step budget: no kernel counts endpoints near F = 0
        for stop in STOP_KINDS:
            source = sode._kernel_source(len(rhs.state) + (mode == "rescaled"), mode, rhs, stop)
            assert "dwell" not in source and "EQUILIBRIUM" not in source

    def test_one_python_call_per_run_not_per_step(self, gas):
        # under a profiler, a run makes the same calls whatever its length, a called stop_when aside
        pair = shocklayer.solve_rh(gas, State(1.0, 0.0, 1.0), 1, 0.5)
        ode = tw_singular_ode(gas, pair.sigma)
        V0 = shocklayer.shock_profile(gas, pair).trajectory.Vs[0]

        def never(x, V):
            return False

        def calls(L):
            counts, traj = profiled_calls(integrate_direct, ode, V0, (0.0, -L), stop_when=never)
            assert counts.pop(never.__code__) == traj.stats.n_accepted
            return counts, traj.stats.n_accepted + traj.stats.n_rejected

        calls(1.0)  # compiles the kernel that calls stop_when
        short, n_short = calls(10.5)
        long, n_long = calls(60.0)
        assert 40 <= n_short <= 60 and 200 <= n_long <= 300
        assert short == long

    @pytest.mark.parametrize("build,short,long", [
        ("shock_profile", 0.5, 0.01), ("gilbarg_oracle", 0.5, 0.01), ("boundary_layer", -0.3, -0.03),
    ])
    def test_one_python_call_per_profile_not_per_step(self, gas, build, short, long):
        # the stop rules of the shots and of the layer sweep are tested inside the kernel, so a short
        # and a long profile make the same Python calls
        def make(arg):
            if build == "boundary_layer":
                return shocklayer.boundary_layer(gas, State(1.0, arg, 1.0))
            return getattr(shocklayer, build)(gas, shocklayer.solve_rh(gas, State(1.0, 0.0, 1.0), 1, arg))

        def calls(arg):
            make(arg)  # compiles what the run needs
            counts, result = profiled_calls(make, arg)
            traj = result.trajectory
            attempts = result.diagnostics.get("attempts", [None]) if build != "gilbarg_oracle" else result.attempts
            return counts, traj.stats.n_accepted, len(attempts)

        counts_short, n_short, shots_short = calls(short)
        counts_long, n_long, shots_long = calls(long)
        assert shots_short == shots_long == 1
        assert n_long > 4 * n_short
        assert counts_short == counts_long

    def test_tracebacks_show_the_generated_line(self):
        def F(V):
            if V[0] > 1.5:
                raise ValueError("not a stage failure")
            return [V[0] * V[0]]

        ode = SingularODE(F_eval=F, zeta_eval=lambda V: float(V[0]))
        with pytest.raises(ValueError) as info:
            integrate_direct(ode, np.array([1.0]), (0.0, 2.0))
        frames = [e for e in info.traceback if str(e.path) == "<sode step d=1 direct call>"]
        assert frames and "F_0, = F_eval(Y)" in str(frames[-1].statement)

    def test_tracebacks_show_the_spliced_right_hand_side(self):
        # a gas constant that is not a number fails inside the inlined source, not in a stage call
        F, zeta = reduction.rhs_functions(reduction.TW_RHS, ("R", 2.5, 1.0, 0.0, 1.0, 0.0, 0.0))
        ode = SingularODE(F_eval=F, zeta_eval=zeta)
        with pytest.raises(TypeError) as info:
            integrate_direct(ode, np.array([1.0, 0.5, 1.0, 0.0, 0.0]), (0.0, 1.0))
        frames = [e for e in info.traceback if str(e.path) == "<sode step d=5 direct travelling-wave>"]
        assert frames and "p_rho = R * theta" in str(frames[-1].statement)


KERNEL_PROBE = """
import hashlib
import numpy as np
import shocklayer as sl

h = hashlib.sha256()
def add(traj):
    for a in (traj.ts, traj.Vs, traj.xs, traj.Q):
        h.update(np.ascontiguousarray(a).tobytes())
    h.update(repr(traj.stats).encode())

gas = sl.GasModel(nu_law=sl.PowerLaw(0.9, 0.5), k_law=sl.PowerLaw(1.2, -0.3))
for family, strength in ((1, 0.2), (1, 2.0), (3, 0.3)):
    pair = sl.solve_rh(gas, sl.State(1.0, 0.0, 1.0), family, strength)
    add(sl.shock_profile(gas, pair).trajectory)
    add(sl.gilbarg_oracle(gas, pair).trajectory)
add(sl.boundary_layer(sl.GasModel(), sl.State(1.0, -0.3, 1.0)).trajectory)
print(h.hexdigest())
"""


def numpy_uses_openblas():
    try:
        config = np.show_config(mode="dicts")
    except TypeError:  # numpy before 1.26 only prints its configuration
        return False
    blas = config.get("Build Dependencies", {}).get("blas", {})
    return "openblas" in str(blas.get("name", "")).lower()


@pytest.mark.skipif(
    platform.machine().lower() not in ("x86_64", "amd64") or not numpy_uses_openblas(),
    reason="the OpenBLAS core types below exist for x86-64 builds only",
)
def test_trajectories_do_not_depend_on_the_blas_kernel():
    # Prescott has no fused multiply-add; the default kernel here may use it
    src = str(Path(shocklayer.__file__).resolve().parents[1])
    hashes = []
    for coretype in (None, "Prescott"):
        env = dict(os.environ)
        env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
        env.pop("OPENBLAS_CORETYPE", None)
        if coretype is not None:
            env["OPENBLAS_CORETYPE"] = coretype
        proc = subprocess.run(
            [sys.executable, "-c", KERNEL_PROBE], env=env, capture_output=True, text=True, timeout=300, check=True,
        )
        hashes.append(proc.stdout.strip())
    assert len(hashes[0]) == 64
    assert hashes[0] == hashes[1]


class TestLinearize:
    def test_linear_field_recovered(self):
        M = np.array([[0.0, 1.0], [-2.0, -3.0]])

        def F(V):
            return (M @ V).tolist()

        ode = SingularODE(F_eval=F, zeta_eval=lambda V: 1.0)
        rep = linearize(ode, np.array([0.0, 0.0]))
        np.testing.assert_allclose(rep.J, M, atol=1e-9)
        assert sorted(rep.eigenvalues.real) == pytest.approx([-2.0, -1.0], abs=1e-9)
        assert rep.center == ()
        assert all(lam.real < 0.0 for lam in rep.eigenvalues)

    def test_classification_with_center(self):
        D = np.diag([2.0, -3.0, 0.0])
        ode = SingularODE(F_eval=lambda V: (D @ V).tolist(), zeta_eval=lambda V: 1.0)
        rep = linearize(ode, np.zeros(3))
        lam = rep.eigenvalues.real
        noncenter = [i for i in range(3) if i not in rep.center]
        assert {round(lam[i]) for i in noncenter if lam[i] > 0.0} == {2}
        assert {round(lam[i]) for i in noncenter if lam[i] < 0.0} == {-3}
        assert {round(lam[i]) for i in rep.center} == {0}
        # eigenvectors are columns
        for i in range(3):
            np.testing.assert_allclose(
                rep.J @ rep.eigenvectors[:, i],
                rep.eigenvalues[i] * rep.eigenvectors[:, i],
                atol=1e-9,
            )

    def test_jacobian_mirrors_numpy_perturbation(self):
        # numpy's V0 + dv turns a -0.0 entry off the perturbed one into +0.0,
        # and V0 - dv keeps it; a field that reads the sign of zero sees both
        def F(V):
            return [math.copysign(1.0, V[0]) * V[1], math.copysign(1.0, V[1]) * V[0] + V[1]]

        V0 = np.array([-0.0, 0.5])
        ref = np.empty((2, 2))
        for j in range(2):
            dv = np.zeros(2)
            dv[j] = sode.FD_STEP
            ref[:, j] = np.subtract(F((V0 + dv).tolist()), F((V0 - dv).tolist())) / (2.0 * sode.FD_STEP)
        rep = linearize(SingularODE(F_eval=F, zeta_eval=lambda V: 1.0), V0)
        assert rep.J.tobytes() == ref.tobytes()
        assert ref[0, 1] != 1.0  # the sign of the zero reached J

    def test_order_and_orientation_are_rules(self):
        # columns 0 and 2 are exactly zero: their eigenvalues 0.0 come first in
        # column order with the unit vectors, then the leftover block's by
        # ascending real part; each real eigenvector's last nonzero component
        # has the sign of zeta
        M = np.array([
            [0.0, 1.0, 0.0, 2.0],
            [0.0, 4.0, 0.0, 1.0],
            [0.0, -3.0, 0.0, 0.5],
            [0.0, 2.0, 0.0, -1.0],
        ])
        for zeta in (-2.0, 3.0):
            ode = SingularODE(F_eval=lambda V: (M @ V).tolist(), zeta_eval=lambda V: zeta)
            rep = linearize(ode, np.zeros(4))
            sign = np.sign(zeta)
            assert rep.eigenvalues[:2].tolist() == [0.0, 0.0]
            assert rep.eigenvectors[:, 0].tolist() == [sign, 0.0, 0.0, 0.0]
            assert rep.eigenvectors[:, 1].tolist() == [0.0, 0.0, sign, 0.0]
            lam = rep.eigenvalues[2:]
            assert lam[0] < 0.0 < lam[1]
            np.testing.assert_allclose(lam, np.sort(np.linalg.eigvals(M[np.ix_([1, 3], [1, 3])]).real), rtol=1e-9)
            for i in (2, 3):
                x = rep.eigenvectors[:, i]
                assert np.sign(x[3]) == sign
                assert math.fsum(x * x) == pytest.approx(1.0, abs=2e-15)
                np.testing.assert_allclose(M @ x, rep.eigenvalues[i] * x, atol=1e-9)

    def test_complex_pair(self):
        # a rotation block: the pair comes out conjugate, positive imaginary part first
        M = np.array([[0.0, 0.0, 1.0], [0.0, 0.5, -2.0], [0.0, 2.0, 0.5]])
        rep = linearize(SingularODE(F_eval=lambda V: (M @ V).tolist(), zeta_eval=lambda V: 1.0), np.zeros(3))
        assert rep.eigenvalues[0] == 0.0
        np.testing.assert_allclose(rep.eigenvalues[1:], [0.5 + 2.0j, 0.5 - 2.0j], rtol=1e-9)
        for i in range(3):
            x = rep.eigenvectors[:, i]
            np.testing.assert_allclose(M @ x, rep.eigenvalues[i] * x, atol=1e-9)
            assert np.linalg.norm(x) == pytest.approx(1.0, abs=1e-15)

    @pytest.mark.parametrize("M", [
        np.array([[1.0, 2.0, 0.5], [0.0, -1.0, 1.0], [3.0, 0.5, 2.0]]),  # no zero column
        np.array([[0.0, 1.0], [0.0, 0.0]]),  # a leftover block with eigenvalue 0
    ], ids=["full-3x3", "nilpotent"])
    def test_general_branch(self, M, monkeypatch):
        calls = []
        real_eig = np.linalg.eig

        def eig(J):
            calls.append(J)
            return real_eig(J)

        monkeypatch.setattr(np.linalg, "eig", eig)
        rep = linearize(SingularODE(F_eval=lambda V: (M @ V).tolist(), zeta_eval=lambda V: 1.0), np.zeros(len(M)))
        assert len(calls) == 1
        np.testing.assert_allclose(rep.J, M, atol=1e-9)
        ref = real_eig(M)[0]
        np.testing.assert_allclose(np.sort_complex(rep.eigenvalues), np.sort_complex(ref), atol=1e-8)
        for i in range(len(M)):
            x = rep.eigenvectors[:, i]
            np.testing.assert_allclose(M @ x, rep.eigenvalues[i] * x, atol=1e-7)

    @settings(max_examples=60, deadline=None)
    @given(
        gamma=st.floats(1.2, 5.0 / 3.0),
        nu=st.tuples(st.floats(0.7, 1.4), st.floats(-0.5, 1.0)),
        k=st.tuples(st.floats(0.7, 1.4), st.floats(-0.5, 1.0)),
        rho=st.floats(0.5, 2.0),
        theta=st.floats(0.5, 2.0),
        kind=st.sampled_from(["family 1", "family 3", "layer"]),
        frac=st.floats(0.0, 1.0),
        sign=st.sampled_from([1.0, -1.0]),
    )
    def test_rest_points_against_references(self, gamma, nu, k, rho, theta, kind, frac, sign):
        # shock endpoints at strengths 1e-3 to 3 (family 3 up to 0.99 of its
        # bound) and layer limits with |v*| from 1e-7 to twice the sound speed
        gas = GasModel(gamma=gamma, nu_law=PowerLaw(*nu), k_law=PowerLaw(*k))
        c = math.sqrt(gamma * theta)  # the sound speed at R = 1
        if kind == "layer":
            ode = steady_singular_ode(gas)
            points = [[rho, sign * 1e-7 * (2.0 * c / 1e-7) ** frac, theta, 0.0, 0.0]]
        else:
            family = int(kind[-1])
            top = 3.0 if family == 1 else 0.99 * c * (1.0 - math.sqrt((gamma - 1.0) / (2.0 * gamma)))
            try:
                pair = profiles.solve_rh(gas, State(rho, 0.0, theta), family, 1e-3 * (top / 1e-3) ** frac)
            except DomainError as exc:
                assert "vacuum bound" in str(exc)
                return
            ode = tw_singular_ode(gas, pair.sigma)
            points = [[s.rho, s.v, s.theta, 0.0, 0.0] for s in (pair.left, pair.right)]
        for U in points:
            check_rest_point(ode, U)

    @pytest.mark.parametrize("v_star", [-1e-3, -1e-4])
    def test_slow_thermal_root(self, v_star):
        # at a slow inflow limit of the default gas the small root is about 3.5 v*^2
        ode = steady_singular_ode(GasModel())
        rep = check_rest_point(ode, [1.0, v_star, 1.0, 0.0, 0.0])
        small = min(rep.eigenvalues[3:].real, key=abs)
        assert small == pytest.approx(3.5 * v_star * v_star, rel=10.0 * abs(v_star))


def check_rest_point(ode, U):
    """linearize at a rest point against its rules, exact arithmetic and LAPACK; returns the report.

    F vanishes with z, so columns rho, v and theta of J are zero: their
    eigenvalues are exactly 0.0 and come first, with the unit vectors
    times the sign of zeta. Each eigenpair has a residual at round-off
    relative to |J|. The two others are roots of the characteristic
    polynomial of the z-block to 1e-12 relative, checked in rational
    arithmetic, and they ascend. They match LAPACK to 1e-12 relative,
    up to LAPACK's own error of a few eps |J|, which at weak shocks
    exceeds 1e-12 of the slow root.
    """
    rep = linearize(ode, np.array(U))
    J, lam, X = rep.J, rep.eigenvalues, rep.eigenvectors
    zeta = ode.zeta_eval(U)
    norm = np.linalg.norm(J)
    assert not J[:, :3].any() and J[:, 3:].any()
    assert lam[:3].tolist() == [0.0, 0.0, 0.0]
    assert X[:, :3].tolist() == (np.sign(zeta) * np.eye(5)[:, :3]).tolist()
    assert np.isrealobj(lam) and lam[3] < lam[4]
    for i in range(5):
        assert np.linalg.norm(J @ X[:, i] - lam[i] * X[:, i]) <= 4e-15 * norm
        assert math.fsum(X[:, i] * X[:, i]) == pytest.approx(1.0, abs=2e-15)
    for i in (3, 4):
        assert np.sign(X[4, i] if X[4, i] != 0.0 else X[3, i]) == np.sign(zeta)
    a, b, c, d = (Fraction(float(J[i, j])) for i, j in ((3, 3), (3, 4), (4, 3), (4, 4)))
    for root in lam[3:].tolist():
        x = Fraction(root)
        # |root - exact| is about |p(root)| / |p'(root)| for a simple root
        p, dp = x * x - (a + d) * x + (a * d - b * c), 2 * x - (a + d)
        assert abs(p) <= 1e-12 * abs(dp * x)
    ref = sorted(sorted(np.linalg.eigvals(J), key=abs)[3:], key=lambda z: z.real)
    for ours, theirs in zip(lam[3:], ref):
        assert abs(ours - theirs) <= 1e-12 * abs(theirs) + 4.0 * np.finfo(float).eps * norm
    return rep
