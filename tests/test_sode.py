"""Tests for the singular ODE integrators.

Calibration problems with closed-form solutions pin down the accuracy of
the direct and rescaled modes, the singularity guard, the equilibrium
detector, dense output, resampling, linearization, and CSV export.
"""

import os
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import shocklayer
from shocklayer import sode
from shocklayer import (
    DomainError,
    GasModel,
    NonMonotoneError,
    PowerLaw,
    SingularODE,
    SingularityError,
    StepFailureError,
    linearize,
    resample_by_x,
    steady_singular_ode,
    trajectory_metadata,
    trajectory_to_csv,
    tw_singular_ode,
)
from shocklayer.sode import (
    CSV_HEADER,
    DEFAULT_TOL,
    DELTA,
    EQUILIBRIUM_DWELL,
    EQUILIBRIUM_TOL,
    REL_FLOOR,
    TERM_EQUILIBRIUM,
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
        dim=1,
        F_eval=lambda V: [V[0] * V[0]],
        zeta_eval=lambda V: float(V[0]),
        label="exponential calibration",
    )


def affine_zeta_ode():
    # F = 1, zeta = V: rescaled V(tau) = V0 + tau, x(tau) = V0 tau + tau^2/2
    return SingularODE(
        dim=1,
        F_eval=lambda V: [1.0],
        zeta_eval=lambda V: float(V[0]),
        label="affine calibration",
    )


def decay_to_zero_ode():
    # F = -1, zeta = V: direct V(x) = sqrt(1 - 2x) from V(0) = 1
    return SingularODE(
        dim=1,
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
        with pytest.raises(ValueError):
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

    def test_x0_offset(self):
        traj = integrate_rescaled(affine_zeta_ode(), np.array([1.0]), (0.0, 1.0), x0=10.0)
        assert abs(traj.xs[0] - 10.0) == 0.0
        assert abs(traj.xs[-1] - 11.5) <= 1e-10

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
        # same orbit: direct V(x) = e^x; rescaled V(tau) = 1/(1-tau)
        tol = 1e-10
        direct = integrate_direct(exp_ode(), np.array([1.0]), (0.0, 1.0), tol=tol)
        tau_end = 1.0 - np.exp(-1.0)
        resc = integrate_rescaled(exp_ode(), np.array([1.0]), (0.0, tau_end), tol=tol)
        xs = np.linspace(0.05, 0.95, 19)
        vd = resample_by_x(direct, xs)
        vr = resample_by_x(resc, xs)
        assert np.abs(vd - vr).max() <= 10.0 * tol

    def test_resample_requires_monotone_x(self):
        traj = integrate_rescaled(affine_zeta_ode(), np.array([-0.5]), (0.0, 2.0))
        with pytest.raises(NonMonotoneError):
            resample_by_x(traj, [0.1])

    def test_resample_out_of_range(self):
        traj = integrate_rescaled(affine_zeta_ode(), np.array([1.0]), (0.0, 1.0))
        with pytest.raises(ValueError):
            resample_by_x(traj, [100.0])


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
        with pytest.raises(ValueError):
            traj.eval_where(0, [0.5])

    def test_eval_where_non_monotone_rejected(self):
        traj = integrate_rescaled(affine_zeta_ode(), np.array([-0.5]), (0.0, 2.0))
        with pytest.raises(NonMonotoneError):
            traj.eval_where(-1, [0.1])


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
        ode = SingularODE(dim=1, F_eval=lambda V: [-V[0]], zeta_eval=lambda V: float(V[0]), label="regular crossing")
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


class TestEquilibriumDetection:
    def test_dwell_halt_on_exact_equilibrium(self, gas):
        # z = 0 makes the reduced field vanish exactly; the dwell counter
        # should end the run long before the requested span is covered
        ode = steady_singular_ode(gas)
        U0 = np.array([1.2, 0.7, 0.9, 0.0, 0.0])
        traj = integrate_direct(ode, U0, (0.0, 50.0), tol=1e-10)
        assert traj.termination == TERM_EQUILIBRIUM
        np.testing.assert_array_equal(traj.final_V, U0)
        assert traj.ts[-1] < 1.0

    def test_noisy_approach_does_not_trigger_dwell(self):
        # an exponential approach never drops |F| below the integrator's
        # own error floor (~tol), so the run goes the distance instead
        ode = SingularODE(
            dim=1,
            F_eval=lambda V: [-(V[0] - 2.0)],
            zeta_eval=lambda V: 1.0,
            label="relaxation",
        )
        traj = integrate_direct(ode, np.array([1.0]), (0.0, 100.0), tol=1e-10)
        assert traj.termination == TERM_REACHED_END
        assert abs(traj.final_V[0] - 2.0) <= 1e-8

    def test_no_false_positive_on_slow_field(self):
        ode = SingularODE(
            dim=1,
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


def counted_ode(ode):
    """The same ODE with its F evaluations counted in calls[0] and its zeta evaluations in calls[1]."""
    calls = [0, 0]

    def F(V):
        calls[0] += 1
        return ode.F_eval(V)

    def zeta(V):
        calls[1] += 1
        return ode.zeta_eval(V)

    counted = SingularODE(dim=ode.dim, F_eval=F, zeta_eval=zeta, label=ode.label)
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

        recording = SingularODE(dim=5, F_eval=F, zeta_eval=zeta)
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
# components: the order the float stepper documents.
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


def ref_error_norm(err, y0, y1, tol):
    rtol = max(tol, REL_FLOOR)
    return ref_rms(err / (tol + rtol * np.maximum(np.abs(y0), np.abs(y1))))


def ref_initial_step(stage, y0, f0, direction, span, tol):
    rtol = max(tol, REL_FLOOR)
    scale = tol + rtol * np.abs(y0)
    d0 = ref_rms(y0 / scale)
    d1 = ref_rms(f0 / scale)
    h0 = 1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1
    h0 = min(h0, span) or span
    probe = stage(y0 + direction * h0 * f0)
    if probe is None or not np.all(np.isfinite(probe[0])):
        return max(min(h0 * 1e-3, span), 1e-12)
    d2 = ref_rms((probe[0] - f0) / scale) / h0
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
    return yi, err, K, r[1], r[2]


def ref_run(rhs, t0, y0, t_end, tol, max_steps, stop_when, guard_sign):
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
    k0, F, z = first
    h = ref_initial_step(stage, y0, k0, direction, span, tol)
    min_zeta = abs(z)
    last_sign = np.sign(z)
    sign_changes = 0
    dwell = 1 if float(np.max(np.abs(F))) < EQUILIBRIUM_TOL else 0
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
            y_new, err, K, F, z = result
            enorm = ref_error_norm(err, y, y_new, tol)
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
        if float(np.max(np.abs(F))) < EQUILIBRIUM_TOL:
            dwell += 1
            if dwell >= EQUILIBRIUM_DWELL:
                termination = TERM_EQUILIBRIUM
                break
        else:
            dwell = 0
        if stop_when is not None and stop_when(t, y.tolist()):
            termination = TERM_STOPPED
            break
        if abs(t - t_end) <= 1e-14 * max(abs(t), abs(t_end), 1.0):
            termination = TERM_REACHED_END
            break
        h *= 5.0 if enorm == 0.0 else min(5.0, max(0.2, 0.9 * enorm ** -0.2))
    else:
        raise StepFailureError(f"step budget {max_steps} exhausted")
    K = np.array(Ks).reshape(-1, 7, y0.size, 1)
    Q = K[:, 0] * REF_P[0]
    for j in range(1, 7):
        Q = Q + K[:, j] * REF_P[j]
    stats = TrajectoryStats(n_acc, n_rej, n_fev, min_zeta, sign_changes, h)
    return dict(ts=np.array(ts), ys=np.array(ys), termination=termination, stats=stats, hs=np.array(hs), Q=Q)


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
            F = np.array(ode.F_eval(V.tolist()))
            return F / z, F, z
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
            return np.append(F, z), F, z
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
        crossing = SingularODE(dim=1, F_eval=lambda V: [-V[0]], zeta_eval=lambda V: float(V[0]))
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

    @settings(max_examples=20, deadline=None)
    @given(
        gamma=st.floats(1.2, 5.0 / 3.0),
        nu=st.tuples(st.floats(0.7, 1.4), st.floats(-0.5, 1.0)),
        k=st.tuples(st.floats(0.7, 1.4), st.floats(-0.5, 1.0)),
        rho_theta=st.tuples(st.floats(0.8, 1.2), st.floats(0.8, 1.2)),
        v=st.floats(-0.5, 0.5),
        zeta0=st.floats(0.05, 0.7),
        below=st.booleans(),
        z=st.tuples(st.floats(-0.05, 0.05), st.floats(-0.05, 0.05)),
        mode=st.sampled_from(["direct", "rescaled"]),
        tol=st.sampled_from([1e-8, 1e-10]),
    )
    def test_generated_gases(self, gamma, nu, k, rho_theta, v, zeta0, below, z, mode, tol):
        gas = GasModel(gamma=gamma, nu_law=PowerLaw(*nu), k_law=PowerLaw(*k))
        sigma = v + zeta0 if below else v - zeta0
        U0 = np.array([rho_theta[0], v, rho_theta[1], *z])
        self.assert_same(mode, tw_singular_ode(gas, sigma), U0, (0.0, 0.25), tol)


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

        ode = SingularODE(dim=2, F_eval=F, zeta_eval=lambda V: 1.0)
        rep = linearize(ode, np.array([0.0, 0.0]))
        np.testing.assert_allclose(rep.J, M, atol=1e-9)
        assert sorted(rep.eigenvalues.real) == pytest.approx([-2.0, -1.0], abs=1e-9)
        assert set(rep.stable) == {0, 1}
        assert rep.unstable == () and rep.center == ()

    def test_classification_with_center(self):
        D = np.diag([2.0, -3.0, 0.0])
        ode = SingularODE(dim=3, F_eval=lambda V: (D @ V).tolist(), zeta_eval=lambda V: 1.0)
        rep = linearize(ode, np.zeros(3))
        lam = rep.eigenvalues.real
        assert {round(lam[i]) for i in rep.unstable} == {2}
        assert {round(lam[i]) for i in rep.stable} == {-3}
        assert {round(lam[i]) for i in rep.center} == {0}
        # eigenvectors are columns
        for i in range(3):
            np.testing.assert_allclose(
                rep.J @ rep.eigenvectors[:, i],
                rep.eigenvalues[i] * rep.eigenvectors[:, i],
                atol=1e-9,
            )


class TestExportHelpers:
    def _ns_trajectory(self, gas, mode):
        ode = steady_singular_ode(gas)
        U0 = np.array([1.0, 0.5, 1.0, 0.01, -0.01])
        if mode == "direct":
            return integrate_direct(ode, U0, (0.0, 0.25), tol=1e-8)
        return integrate_rescaled(ode, U0, (0.0, 0.25), tol=1e-8)

    def test_csv_header_and_shape(self, gas):
        traj = self._ns_trajectory(gas, "direct")
        text = trajectory_to_csv(traj)
        lines = text.strip().split("\n")
        assert lines[0] == CSV_HEADER
        assert len(lines) == traj.n + 1
        first = lines[1].split(",")
        assert len(first) == 7
        assert first[1] == ""  # no tau column content in direct mode
        assert float(first[0]) == traj.xs[0]
        assert float(first[2]) == traj.Vs[0, 0]

    def test_csv_rescaled_has_tau(self, gas):
        traj = self._ns_trajectory(gas, "rescaled")
        row = trajectory_to_csv(traj).strip().split("\n")[1].split(",")
        assert float(row[1]) == traj.taus[0]

    def test_csv_round_trips_floats(self, gas):
        traj = self._ns_trajectory(gas, "direct")
        lines = trajectory_to_csv(traj).strip().split("\n")[1:]
        parsed = np.array([[float(f) for f in ln.split(",")[2:]] for ln in lines])
        np.testing.assert_array_equal(parsed, traj.Vs)

    def test_csv_deterministic(self, gas):
        a = trajectory_to_csv(self._ns_trajectory(gas, "direct"))
        b = trajectory_to_csv(self._ns_trajectory(gas, "direct"))
        assert a == b

    def test_csv_rejects_wrong_dimension(self):
        traj = integrate_direct(exp_ode(), np.array([1.0]), (0.0, 1.0))
        with pytest.raises(ValueError):
            trajectory_to_csv(traj)

    def test_metadata_keys(self, gas):
        traj = self._ns_trajectory(gas, "rescaled")
        meta = trajectory_metadata(traj, tol=1e-8)
        assert meta["mode"] == "rescaled"
        assert meta["n_samples"] == traj.n
        assert meta["tol"] == 1e-8
        assert meta["stats"]["n_accepted"] == traj.stats.n_accepted
        assert meta["stats"]["n_fevals"] == traj.stats.n_fevals
        assert np.isfinite(meta["stats"]["min_abs_zeta"])
