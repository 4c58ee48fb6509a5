"""Tests for jump conditions, shock profiles, the flux-form oracle, and
boundary layers.

The jump solver is checked against the textbook normal-shock relations
and a reflection symmetry, the profile integrator against conserved flux
integrals and the independent flux-form construction, and the layers
across the four velocity regimes of the limit state.
"""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings
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
    State,
    boundary_layer,
    char_speed,
    compare_profiles,
    flux_constants,
    gilbarg_oracle,
    integrate_rescaled,
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
from shocklayer.gas import conserved, euler_fluxes
from shocklayer.profiles import _relative_residual, _shift_x, _sup

from flux_form import extended_with_derivatives

C0 = np.sqrt(1.4)  # sound speed at (1, 0, 1) for the default gas


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


class TestCharSpeed:
    def test_families_at_rest(self, gasm):
        st = State(1.0, 0.0, 1.0)
        assert char_speed(gasm, st, 1) == pytest.approx(-C0, rel=1e-15)
        assert char_speed(gasm, st, 2) == 0.0
        assert char_speed(gasm, st, 3) == pytest.approx(C0, rel=1e-15)

    def test_bad_family(self, gasm):
        with pytest.raises(DomainError):
            char_speed(gasm, State(1.0, 0.0, 1.0), 5)


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

    def test_zero_strength(self, gasm):
        pair = solve_rh(gasm, State(1.0, 0.3, 1.0), family=1, strength=0.0)
        assert pair.left == pair.right
        assert pair.sigma == char_speed(gasm, pair.left, 1)
        assert np.all(rh_residual(gasm, pair) == 0.0)
        assert lax_inequalities(gasm, pair)["satisfied"]

    def test_contact_family_rejected(self, gasm):
        with pytest.raises(DomainError, match="contact"):
            solve_rh(gasm, State(1.0, 0.0, 1.0), family=2, strength=0.1)

    def test_invalid_family_rejected(self, gasm):
        with pytest.raises(DomainError):
            solve_rh(gasm, State(1.0, 0.0, 1.0), family=4, strength=0.1)

    def test_negative_strength_rejected(self, gasm):
        with pytest.raises(DomainError, match="strength"):
            solve_rh(gasm, State(1.0, 0.0, 1.0), family=1, strength=-0.1)

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

    def test_family3_at_the_limit_within_round_off(self):
        gas = GasModel(gamma=1.0625)
        left = State(1.0, 0.0, 2.0)
        c = sound_speed(gas, left)
        limit = c * (1.0 - np.sqrt((gas.gamma - 1.0) / (2.0 * gas.gamma)))
        with pytest.raises(DomainError, match="round-off"):
            solve_rh(gas, left, family=3, strength=(1.0 - 2.2e-16) * limit)

    @pytest.mark.parametrize("fraction", [1e-300 * 10.0, 1e-17])
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
    def test_jump_conditions_over_generated_inputs(self, gamma, rho, theta, v, family, frac):
        # family-3 strengths are a fraction of the admissible bound; any
        # family-1 strength is admissible, here up to 10 c. Within
        # round-off of either end no pair is representable: the strict
        # Lax inequalities cannot be resolved near strength 0, and the
        # right temperature rounds to 0 at the family-3 limit.
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
        scale = max(1.0, _sup(euler_fluxes(gas, left)), abs(pair.sigma) * _sup(conserved(gas, left)))
        assert _sup(rh_residual(gas, pair)) <= 1e-12 * scale


class TestShockProfile:
    def test_endpoints_and_diagnostics(self, pair_f1, prof_f1):
        d = prof_f1.diagnostics
        assert prof_f1.kind == "shock"
        assert prof_f1.sigma == pair_f1.sigma
        assert prof_f1.left.state() == pair_f1.left
        assert prof_f1.right.state() == pair_f1.right
        assert prof_f1.left.z1 == prof_f1.left.z2 == 0.0
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
            for j, dv in enumerate(([h, 0.0], [0.0, h])):
                up = oracle_f1.rhs(st.v + dv[0], st.theta + dv[1])
                dn = oracle_f1.rhs(st.v - dv[0], st.theta - dv[1])
                J[:, j] = (np.array(up) - np.array(dn)) / (2.0 * h)
            rates2 = sorted(np.linalg.eigvals(J).real)
            np.testing.assert_allclose(rates5, rates2, atol=1e-4)

    def test_family3_profile(self, gasm):
        pair = solve_rh(gasm, State(1.0, 0.0, 1.0), family=3, strength=0.2)
        prof = shock_profile(gasm, pair)
        assert prof.diagnostics["endpoint_mismatch"] <= 1e-6
        assert prof.diagnostics["shoot_from"] == "left"
        assert prof.diagnostics["flux_drift"] <= 1e-6

    def test_zero_strength_profile(self, gasm):
        pair = solve_rh(gasm, State(1.0, 0.0, 1.0), family=1, strength=0.0)
        prof = shock_profile(gasm, pair)
        assert prof.trajectory.n == 1
        assert prof.diagnostics["endpoint_mismatch"] == 0.0
        assert prof.diagnostics["flux_drift"] <= 1e-14
        assert prof.left == prof.right


ATTEMPT_KEYS = {"sign", "eps", "termination", "mismatch", "n_steps"}


class TestShooting:
    @pytest.mark.parametrize(
        "family,strength", [(1, 0.1), (1, 0.5), (1, 2.0), (3, 0.2), (3, 0.5)],
    )
    def test_both_routes_connect_on_the_first_shot(self, gasm, family, strength):
        pair = solve_rh(gasm, State(1.0, 0.0, 1.0), family=family, strength=strength)
        prof = shock_profile(gasm, pair)
        orc = gilbarg_oracle(gasm, pair)
        for attempts in (prof.diagnostics["attempts"], orc.attempts):
            assert len(attempts) == 1
            [shot] = attempts
            assert set(shot) == ATTEMPT_KEYS
            assert shot["mismatch"] <= 1e-6 and shot["n_steps"] > 0
        shot = prof.diagnostics["attempts"][0]
        assert (shot["sign"], shot["eps"]) == (prof.diagnostics["sign"], prof.diagnostics["eps"])

    def test_fallback_sign_tried_when_the_first_fails(self, gasm, monkeypatch):
        import shocklayer.profiles as profiles

        real = profiles.integrate_direct
        starts = []

        def first_shot_cut_short(ode, V0, x_span, **kw):
            starts.append(np.array(V0))
            if len(starts) == 1:
                x_span = (x_span[0], 1e-3 * x_span[1])  # ends far from the target
            return real(ode, V0, x_span, **kw)

        monkeypatch.setattr(profiles, "integrate_direct", first_shot_cut_short)
        pair = solve_rh(gasm, State(1.0, 0.0, 1.0), family=1, strength=0.5)
        prof = shock_profile(gasm, pair)
        attempts = prof.diagnostics["attempts"]
        assert len(attempts) >= 2
        assert attempts[0]["mismatch"] > 1e-6
        assert attempts[1]["sign"] == -attempts[0]["sign"]
        assert attempts[1]["eps"] == attempts[0]["eps"]
        # the two shots leave the saddle on opposite sides
        plan_start = prof.right.to_array()
        assert np.dot(starts[0] - plan_start, starts[1] - plan_start) < 0.0
        assert prof.diagnostics["endpoint_mismatch"] <= 1e-6

    def test_failure_carries_the_attempts(self, gasm, monkeypatch):
        import shocklayer.profiles as profiles

        monkeypatch.setattr(profiles, "SHOOT_RETRIES", 1)
        real = profiles.integrate_direct
        monkeypatch.setattr(
            profiles, "integrate_direct",
            lambda ode, V0, x_span, **kw: real(ode, V0, (x_span[0], 1e-3 * x_span[1]), **kw),
        )
        pair = solve_rh(gasm, State(1.0, 0.0, 1.0), family=1, strength=0.5)
        for route in (
            lambda: shock_profile(gasm, pair),
            lambda: gilbarg_oracle(gasm, pair),
        ):
            with pytest.raises(NoConnectionError) as info:
                route()
            attempts = info.value.attempts
            assert len(attempts) == 4
            assert all(set(a) == ATTEMPT_KEYS for a in attempts)
            assert [a["sign"] for a in attempts[:2]] == [attempts[0]["sign"], -attempts[0]["sign"]]
            assert attempts[2]["eps"] == attempts[0]["eps"] / 16.0


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
        r = prof_f1.right
        m = r.rho * (r.v - prof_f1.sigma)
        assert rec.reference[0] == pytest.approx(m, rel=1e-14)

    def test_corrupted_sample_detected(self, gasm, prof_f1):
        base = flux_constants(gasm, prof_f1).drift
        traj = prof_f1.trajectory
        ys = traj.ys.copy()
        ys[traj.n // 2, 1] += 1e-3
        corrupted = Profile(
            kind=prof_f1.kind, sigma=prof_f1.sigma, left=prof_f1.left,
            right=prof_f1.right,
            trajectory=replace(traj, ys=ys),
            diagnostics={},
        )
        spiked = flux_constants(gasm, corrupted).drift
        assert spiked > 1e-4
        assert spiked > 100.0 * max(base, 1e-12)


class TestGilbargOracle:
    def test_reaches_the_far_state(self, pair_f1, oracle_f1):
        target = np.array([pair_f1.left.v, pair_f1.left.theta])
        mismatch = np.abs(oracle_f1.trajectory.final_V - target).max()
        assert mismatch <= 1e-6

    def test_rhs_vanishes_at_both_endpoints(self, pair_f1, oracle_f1):
        for st in (pair_f1.left, pair_f1.right):
            vx, thx = oracle_f1.rhs(st.v, st.theta)
            assert abs(vx) <= 1e-12 and abs(thx) <= 1e-12

    def test_flux_form_rejects_unphysical_states(self, pair_f1, oracle_f1):
        # a NaN theta fails the positivity check, as in `pressure`
        with pytest.raises(DomainError):
            oracle_f1.rhs(pair_f1.left.v, float("nan"))
        # past the wave speed the mass flux gives rho = m / (v - sigma) < 0
        with pytest.raises(DomainError):
            oracle_f1.rhs(2.0 * oracle_f1.sigma - pair_f1.left.v, 1.0)

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

    def test_density_reconstruction(self, pair_f1, oracle_f1):
        t = oracle_f1.table()
        # at the near end the trajectory starts beside the right state
        assert t["rho"][0] == pytest.approx(pair_f1.right.rho, abs=1e-5)
        assert t["rho"][-1] == pytest.approx(pair_f1.left.rho, abs=1e-5)
        assert set(t) == {"x", "rho", "v", "theta", "z1", "z2"}

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
        pair = solve_rh(gasm, State(1.0, 0.0, 1.0), family=family, strength=strength)
        rep = compare_profiles(shock_profile(gasm, pair), gilbarg_oracle(gasm, pair), matching="v")
        assert rep.sup <= 1e-5

    def test_zero_strength_oracle(self, gasm):
        pair = solve_rh(gasm, State(1.0, 0.0, 1.0), family=1, strength=0.0)
        orc = gilbarg_oracle(gasm, pair)
        assert orc.trajectory.n == 1


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


class TestCompareProfiles:
    def test_self_comparison_is_zero(self, prof_f1):
        rep = compare_profiles(prof_f1, prof_f1)
        assert rep.sup == 0.0

    def test_translation_invariance(self, prof_f1):
        shifted = replace(prof_f1, trajectory=_shift_x(prof_f1.trajectory, 17.0))
        assert shifted.trajectory.xs[0] == prof_f1.trajectory.xs[0] + 17.0
        rep = compare_profiles(prof_f1, shifted, matching="v")
        assert rep.sup == 0.0

    def test_translation_of_a_rescaled_run(self, gasm):
        traj = integrate_rescaled(
            steady_singular_ode(gasm), np.array([1.0, -0.3, 1.0, 0.01, -0.01]), (0.0, 2.0),
        )
        assert np.ptp(traj.xs) > 0.1
        shifted = _shift_x(traj, 17.0)
        assert np.array_equal(shifted.xs, traj.xs + 17.0)
        assert np.array_equal(shifted.ts, traj.ts)
        assert_dense_x_matches_samples(shifted)
        mid = np.arange(traj.hs.size), 0.5
        assert np.allclose(shifted.step_eval(*mid)[0][:, -1], traj.step_eval(*mid)[0][:, -1] + 17.0, rtol=0, atol=1e-12)

    def test_missing_matching_column(self, prof_f1, oracle_f1):
        # x is no state component, and the oracle integrates only (v, theta)
        with pytest.raises(DomainError):
            compare_profiles(prof_f1, prof_f1, matching="x")
        with pytest.raises(DomainError):
            compare_profiles(prof_f1, oracle_f1, matching="z1")

    def test_non_monotone_matching_rejected(self, prof_f1):
        # z1 = v_x rises from 0 to its peak and falls back across the shock
        with pytest.raises(NonMonotoneError):
            compare_profiles(prof_f1, prof_f1, matching="z1")

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


class TestMaxExtendedResidual:
    def test_small_on_profile(self, gasm, pair_f1, prof_f1):
        ode = tw_singular_ode(gasm, pair_f1.sigma)
        worst, skipped, _ = max_extended_residual(ode, prof_f1.trajectory)
        assert worst <= 1e-7
        assert skipped == 0

    def test_detects_a_raised_component(self, gasm, pair_f1, prof_f1):
        # theta + 1e-3 everywhere leaves U' unchanged but moves F(U)
        ode = tw_singular_ode(gasm, pair_f1.sigma)
        worst, _, _ = max_extended_residual(ode, _raised(prof_f1, 2, 1e-3).trajectory)
        assert worst > 1e-5

    def test_relative_value_detects_a_raised_component(self, gasm, pair_f1, prof_f1):
        # on the scale of sup |F| the clean profile reads about 3e-8 and a
        # theta raised by 1e-3 about 1e-3
        ode = tw_singular_ode(gasm, pair_f1.sigma)
        assert prof_f1.diagnostics["extended_residual_rel"] <= 1e-6
        worst, skipped, f_sup = max_extended_residual(ode, _raised(prof_f1, 2, 1e-3).trajectory)
        assert skipped == 0 and f_sup > 0.0
        assert _relative_residual(worst, f_sup) > 1e-4


class TestBoundaryLayer:
    def test_subsonic_inflow_direct(self, gasm):
        prof = boundary_layer(gasm, State(1.0, -0.3, 1.0), amplitude=1e-3)
        d = prof.diagnostics
        assert prof.kind == "boundary_layer"
        assert prof.sigma == 0.0
        assert d["mode"] == "direct"
        assert d["characteristic_limit"] is False
        assert d["rate"] < 0.0
        assert d["extended_residual_max"] <= 1e-6
        assert d["flux_drift"] <= 1e-5
        # window anchored at zero, limit at the far end
        xs = prof.trajectory.xs
        assert float(np.min(xs)) == 0.0
        far = prof.trajectory.Vs[0]
        U_star = np.array([1.0, -0.3, 1.0, 0.0, 0.0])
        assert np.abs(far - U_star).max() <= 2e-3
        assert prof.right.state() == State(1.0, -0.3, 1.0)
        # trace grew away from the limit state
        trace = prof.left.to_array()
        assert np.abs(trace - U_star).max() > 1e-2

    def test_subsonic_outflow(self, gasm):
        prof = boundary_layer(gasm, State(1.0, 0.4, 1.0), amplitude=1e-3)
        assert prof.diagnostics["mode"] == "direct"
        assert prof.diagnostics["flux_drift"] <= 1e-5
        assert len(prof.diagnostics["decaying_rates"]) == 1

    def test_subsonic_has_single_decaying_direction(self, gasm):
        with pytest.raises(DomainError, match="direction_index"):
            boundary_layer(gasm, State(1.0, -0.3, 1.0), direction_index=1)

    def test_supersonic_inflow_two_directions(self, gasm):
        st = State(1.0, -2.0, 1.0)
        for idx in (0, 1):
            prof = boundary_layer(gasm, st, direction_index=idx, amplitude=1e-3)
            assert prof.diagnostics["mode"] == "direct"
            assert prof.diagnostics["flux_drift"] <= 1e-5
        rates = boundary_layer(gasm, st, amplitude=1e-3).diagnostics["decaying_rates"]
        assert len(rates) == 2
        assert rates[0] <= rates[1] < 0.0

    def test_supersonic_outflow_has_no_layer(self, gasm):
        with pytest.raises(NoDecayingDirectionError):
            boundary_layer(gasm, State(1.0, 2.0, 1.0))

    def test_characteristic_limit_rescaled(self, gasm):
        prof = boundary_layer(gasm, State(1.0, 0.0, 1.0), amplitude=1e-3)
        d = prof.diagnostics
        assert d["characteristic_limit"] is True
        assert d["mode"] == "rescaled"
        assert "zeta_sign_changes" in d
        traj = prof.trajectory
        assert np.all(np.isfinite(traj.Vs)) and np.all(np.isfinite(traj.xs))
        assert float(np.min(traj.xs)) == 0.0

    def test_reanchoring_moves_the_dense_output(self, gasm):
        # in rescaled mode x is the last integrated component, so the shift
        # that anchors the window at x = 0 must move the dense output too;
        # here zeta stays 0, so every sample sits at the start x = 10
        traj = boundary_layer(gasm, State(1.0, 0.0, 1.0), amplitude=1e-3).trajectory
        assert traj.mode == "rescaled"
        assert_dense_x_matches_samples(traj)

    def test_zero_amplitude(self, gasm):
        prof = boundary_layer(gasm, State(1.0, -0.3, 1.0), amplitude=0.0)
        assert prof.trajectory.n == 1
        assert prof.left == prof.right
        assert prof.diagnostics["flux_drift"] == 0.0

    def test_amplitude_cap(self, gasm):
        with pytest.raises(DomainError, match="amplitude"):
            boundary_layer(gasm, State(1.0, -0.3, 1.0), amplitude=0.6)

    def test_negative_amplitude_other_branch(self, gasm):
        up = boundary_layer(gasm, State(1.0, -0.3, 1.0), amplitude=1e-3)
        dn = boundary_layer(gasm, State(1.0, -0.3, 1.0), amplitude=-1e-3)
        # the two branches leave the equilibrium on opposite sides
        far_up = up.trajectory.Vs[0] - up.right.to_array()
        far_dn = dn.trajectory.Vs[0] - dn.right.to_array()
        assert np.dot(far_up, far_dn) < 0.0
