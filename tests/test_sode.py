"""Tests for the singular ODE integrators.

Calibration problems with closed-form solutions pin down the accuracy of
the direct and rescaled modes, the singularity guard, the equilibrium
detector, dense output, resampling, linearization, and CSV export.
"""

import numpy as np
import pytest

from shocklayer import (
    DomainError,
    NonMonotoneError,
    SingularODE,
    SingularityError,
    StepFailureError,
    linearize,
    resample_by_x,
    steady_singular_ode,
    trajectory_metadata,
    trajectory_to_csv,
)
from shocklayer.sode import (
    CSV_HEADER,
    TERM_EQUILIBRIUM,
    TERM_REACHED_END,
    TERM_SINGULARITY,
    TERM_STOPPED,
    integrate_direct,
    integrate_rescaled,
)


def exp_ode():
    # F = V^2, zeta = V: direct dV/dx = V, so V(x) = V(0) e^x
    return SingularODE(
        dim=1,
        F_eval=lambda V: V * V,
        zeta_eval=lambda V: float(V[0]),
        label="exponential calibration",
    )


def affine_zeta_ode():
    # F = 1, zeta = V: rescaled V(tau) = V0 + tau, x(tau) = V0 tau + tau^2/2
    return SingularODE(
        dim=1,
        F_eval=lambda V: np.ones(1),
        zeta_eval=lambda V: float(V[0]),
        label="affine calibration",
    )


def decay_to_zero_ode():
    # F = -1, zeta = V: direct V(x) = sqrt(1 - 2x) from V(0) = 1
    return SingularODE(
        dim=1,
        F_eval=lambda V: -np.ones(1),
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
        assert abs(traj.eval_x(tau) - (tau + tau ** 2 / 2)) <= 1e-10
        assert traj.eval_V(tau).shape == (1,)

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
        ode = SingularODE(dim=1, F_eval=lambda V: -V, zeta_eval=lambda V: float(V[0]), label="regular crossing")
        traj = integrate_direct(ode, np.array([1.0]), (0.0, 2.0), tol=1e-10)
        assert traj.termination == TERM_SINGULARITY
        assert np.all(traj.Vs > 0.0) and traj.final_V[0] <= 1e-6
        assert traj.stats.n_rejected > 0 and traj.stats.zeta_sign_changes == 0

    def test_initial_point_inside_guard_rejected(self):
        with pytest.raises(SingularityError):
            integrate_direct(decay_to_zero_ode(), np.array([5e-7]), (0.0, 1.0))

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
            F_eval=lambda V: -(V - 2.0),
            zeta_eval=lambda V: 1.0,
            label="relaxation",
        )
        traj = integrate_direct(ode, np.array([1.0]), (0.0, 100.0), tol=1e-10)
        assert traj.termination == TERM_REACHED_END
        assert abs(traj.final_V[0] - 2.0) <= 1e-8

    def test_no_false_positive_on_slow_field(self):
        ode = SingularODE(
            dim=1,
            F_eval=lambda V: np.full(1, 1e-6),
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

    def test_step_budget_exhaustion(self):
        with pytest.raises(StepFailureError):
            integrate_direct(exp_ode(), np.array([1.0]), (0.0, 50.0), max_steps=5)

    def test_bad_initial_rhs(self, gas):
        ode = steady_singular_ode(gas)
        with pytest.raises(DomainError):
            # negative density: F raises, reported as non-finite start
            integrate_direct(ode, np.array([-1.0, 1.0, 1.0, 0.0, 0.0]), (0.0, 1.0))


def counted_ode(ode):
    """The same ODE with its F evaluations counted in .calls[0]."""
    calls = [0]

    def F(V):
        calls[0] += 1
        return ode.F_eval(V)

    counted = SingularODE(dim=ode.dim, F_eval=F, zeta_eval=ode.zeta_eval, label=ode.label)
    return counted, calls


def sample_runs(gas):
    """(ode, trajectory) of three direct and two rescaled runs."""
    U0 = np.array([1.0, 0.5, 1.0, 0.01, -0.01])
    return [
        (exp_ode(), integrate_direct(exp_ode(), np.array([1.0]), (0.0, 2.0), tol=1e-10)),
        (decay_to_zero_ode(), integrate_direct(decay_to_zero_ode(), np.array([1.0]), (0.0, 1.0), tol=1e-10)),
        (steady_singular_ode(gas), integrate_direct(steady_singular_ode(gas), U0, (0.0, 0.25), tol=1e-8)),
        (affine_zeta_ode(), integrate_rescaled(affine_zeta_ode(), np.array([-0.5]), (0.0, 2.0), tol=1e-10)),
        (steady_singular_ode(gas), integrate_rescaled(steady_singular_ode(gas), U0, (0.0, 0.25), tol=1e-8)),
    ]


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
            zetas = [ode.zeta_eval(V) for V in traj.Vs]
            assert traj.stats.min_abs_zeta == min(abs(z) for z in zetas)

    def test_sign_changes_are_exact(self, gas):
        runs = self._runs(gas)
        counts = [zeta_sign_changes([ode.zeta_eval(V) for V in traj.Vs]) for ode, traj in runs]
        assert [traj.stats.zeta_sign_changes for _, traj in runs] == counts
        assert [traj.mode for _, traj in runs] == ["direct"] * 3 + ["rescaled"] * 3
        assert counts == [0, 0, 0, 1, 0, 1]  # none in direct mode


class TestLinearize:
    def test_linear_field_recovered(self):
        M = np.array([[0.0, 1.0], [-2.0, -3.0]])

        def F(V):
            return M @ V

        ode = SingularODE(dim=2, F_eval=F, zeta_eval=lambda V: 1.0)
        rep = linearize(ode, np.array([0.0, 0.0]))
        np.testing.assert_allclose(rep.J, M, atol=1e-9)
        assert sorted(rep.eigenvalues.real) == pytest.approx([-2.0, -1.0], abs=1e-9)
        assert set(rep.stable) == {0, 1}
        assert rep.unstable == () and rep.center == ()

    def test_classification_with_center(self):
        D = np.diag([2.0, -3.0, 0.0])
        ode = SingularODE(dim=3, F_eval=lambda V: D @ V, zeta_eval=lambda V: 1.0)
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
