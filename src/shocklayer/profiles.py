"""Shock profiles and boundary layers with independent verification.

Shock profiles are computed two ways that share no linear algebra:

* through the travelling-wave singular ODE from `reduction` (shooting in
  the 5-dimensional extended state), and
* through the once-integrated conservation laws in flux form, a plain
  2-dimensional ODE in (v, theta) built directly from the gas model.

The second route (`gilbarg_oracle`) exists so results of the first can be
cross-checked; `compare_profiles` reparametrizes both by a monotone
component and measures the sup deviation. `flux_constants` checks the
three integrals of motion along any profile, and `boundary_layer` builds
steady layers by backward integration from a decaying direction of the
endpoint linearization.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from operator import mul, sub

import numpy as np

from .errors import DomainError, NoConnectionError, NoDecayingDirectionError
from .gas import GasModel, State, _integer, internal_energy, pressure, sound_speed
from .reduction import (
    TW_RHS,
    RhsSource,
    SingularODE,
    _gas_constants,
    rhs_functions,
    steady_singular_ode,
    tw_singular_ode,
)
from .sode import (
    DEFAULT_TOL,
    REL_FLOOR,
    TERM_REACHED_END,
    TERM_STOPPED,
    LinearizationReport,
    Trajectory,
    _positive_finite,
    _StopRule,
    integrate_direct,
    integrate_rescaled,
    linearize,
)


def _sup(a: np.ndarray) -> float:
    return float(np.max(np.abs(a)))


def char_speed(gas: GasModel, state: State, family: int) -> float:
    """Characteristic speed of the chosen family (an integer): v - c, v, or v + c."""
    family = _integer(family, "family", 1, "char_speed")
    if family not in (1, 2, 3):
        raise DomainError(f"family must be 1, 2 or 3, got {family}")
    c = sound_speed(gas, state)
    return {1: state.v - c, 2: state.v, 3: state.v + c}[family]


@dataclass(frozen=True)
class RHPair:
    """Pair of states joined by the jump conditions at speed sigma."""

    left: State
    right: State
    sigma: float
    family: int
    strength: float


def rh_residual(gas: GasModel, pair: RHPair) -> np.ndarray:
    """Jump-condition residual: the fluxes of `_flux_integrals` at U+ minus those at U-, z = 0.

    These are the mass, momentum and energy fluxes in the frame moving at
    sigma, so the residual is [f(U+) - f(U-)] - sigma [g(U+) - g(U-)] for
    the Euler fluxes f and the conserved densities g.
    """
    right, left = (_flux_integrals(gas, pair.sigma, s.rho, s.v, s.theta, 0.0, 0.0) for s in (pair.right, pair.left))
    return np.subtract(right, left)


def lax_inequalities(gas: GasModel, pair: RHPair) -> dict:
    """Family characteristic speeds on both sides against sigma."""
    lam_left = char_speed(gas, pair.left, pair.family)
    lam_right = char_speed(gas, pair.right, pair.family)
    return {
        "lambda_left": lam_left,
        "lambda_right": lam_right,
        "sigma": pair.sigma,
        "satisfied": lam_right < pair.sigma < lam_left,
    }


def _conjugate_state(gas: GasModel, U_minus: State, sigma: float) -> tuple[float, float, float]:
    """Closed-form second root of the jump conditions in the shock frame.

    With m = rho u and P = m u + p fixed by the left state, the relative
    velocity solves a quadratic whose other root is
    u+ = 2 gamma P / ((gamma + 1) m) - u-. For the polytropic gas this is
    the exact right state of the pair, up to round-off. theta+ keeps the
    total enthalpy c_p theta + u^2 / 2, written as a difference of squares
    that cancels no digits, unlike u+ (P / m - u+) / R at large |u+|.
    """
    u_m = U_minus.v - sigma
    m = U_minus.rho * u_m
    if m == 0.0:
        raise DomainError(f"mass flux rho (v - sigma) = {U_minus.rho!r} x {u_m!r} is zero, no conjugate state")
    p_m, _, _ = pressure(gas, U_minus.rho, U_minus.theta)
    P = m * u_m + p_m
    u_p = 2.0 * gas.gamma * P / ((gas.gamma + 1.0) * m) - u_m
    if not math.isfinite(u_p):
        raise DomainError(f"the strength overflows the jump conditions: m = {m:g}, P = m u + p = {P:g}")
    if u_p * u_m <= 0.0:
        raise DomainError("conjugate state crosses the sonic frame, no admissible root")
    rho_p = m / u_p
    c_p = gas.R * gas.gamma / (gas.gamma - 1.0)
    theta_p = U_minus.theta + (u_m - u_p) * (u_m + u_p) / (2.0 * c_p)
    if not theta_p > 0.0:
        raise DomainError("conjugate temperature is not positive; the strength is at the family-3 limit within round-off")
    return rho_p, u_p + sigma, theta_p


def _family3_strength_bound(gas: GasModel, U_minus: State) -> float:
    """Supremum of admissible 3-shock strengths from the left state.

    The left state of a 3-shock is downstream, with Mach number
    (c - strength) / c relative to the shock. That number falls to the
    infinite-strength limit sqrt((gamma - 1) / (2 gamma)) of a polytropic
    gas as the strength grows to this bound.
    """
    c = sound_speed(gas, U_minus)
    return c * (1.0 - math.sqrt((gas.gamma - 1.0) / (2.0 * gas.gamma)))


def solve_rh(gas: GasModel, U_minus: State, family: int, strength: float) -> RHPair:
    """Solve the jump conditions for (rho+, v+, theta+, sigma).

    The wave speed is pinned by sigma = lambda_family(U-) - strength and
    the right state is the closed-form conjugate state of U- in the frame
    moving at sigma. family is an integer, not a bool (DomainError
    otherwise). Family 2 (the contact family) is rejected: it is
    linearly degenerate and admits no compressive connection. A strength
    that is not finite is rejected as such. Negative strengths are
    rejected because the resulting pair violates the entropy
    inequalities, and so are family-3 strengths at or past the
    infinite-strength bound c (1 - sqrt((gamma - 1) / (2 gamma))), which
    no finite shock reaches. A strength of 0, or one below the round-off
    of lambda_family(U-), leaves sigma on it: that is the zero-strength
    pair, which has no profile to connect, and both are rejected by that
    one test. So is a strength at which the jump conditions overflow a
    float (P = m u + p infinite).
    """
    family = _integer(family, "family", 1, "solve_rh")
    if family == 2:
        raise DomainError("family 2 is the contact family; no shock pair exists")
    if family not in (1, 3):
        raise DomainError(f"family must be 1 or 3, got {family}")
    strength = float(strength)
    if not math.isfinite(strength):
        raise DomainError(f"strength must be finite, got {strength}")
    if strength < 0.0:
        raise DomainError("strength must be nonnegative; expansions violate the entropy conditions")
    lam_minus = char_speed(gas, U_minus, family)
    if family == 3:
        bound = _family3_strength_bound(gas, U_minus)
        if strength >= bound:
            raise DomainError(
                f"family-3 strength {strength:g} is at or past the admissible limit "
                f"{bound:.6g} = c (1 - sqrt((gamma - 1) / (2 gamma)))"
            )
    sigma = lam_minus - strength
    if sigma == lam_minus:
        raise DomainError(
            f"strength {strength:g} is below the round-off of lambda(U-) = {lam_minus:.17g}; "
            "within round-off this is the zero-strength pair"
        )
    U_plus = State(*_conjugate_state(gas, U_minus, sigma))
    if U_plus.rho < gas.c_rho:
        raise DomainError(
            f"right state density {U_plus.rho:.6g} fell below the vacuum bound {gas.c_rho:g}"
        )
    pair = RHPair(left=U_minus, right=U_plus, sigma=sigma, family=family, strength=strength)
    if not lax_inequalities(gas, pair)["satisfied"]:
        raise DomainError("computed pair violates the entropy (Lax) inequalities")
    return pair


@dataclass(frozen=True)
class Profile:
    """A computed connection: trajectory plus endpoint data and diagnostics.

    left and right are the extended states (rho, v, theta, z1, z2) at the
    two ends, as (5,) arrays of their own: a layer's left end is its
    boundary trace and its right end the limit state.
    """

    sigma: float
    left: np.ndarray
    right: np.ndarray
    trajectory: Trajectory
    diagnostics: dict


# the shooting perturbation, relative to the distance between the endpoints
SHOOT_EPS_REL = 1e-7
# the least shooting perturbation, in units of the step control's error scale at the start,
# max(tol, REL_FLOOR) (1 + sup |start|): below it, integration noise and not the sign picks
# the branch a shot leaves on. Measured on weak shocks at tol 1e-6 and 1e-5, fewer shots
# diverge as it grows to 1, and none fewer past it. At the default tol it lies 56 times or
# more below SHOOT_EPS_REL x the endpoint distance on every shot of perfbench's shock_sweep
SHOOT_EPS_NOISE = 1.0
# a layer run stops once it strays this far (times max(1, |U*|)) from the limit
LAYER_GROW_CAP = 0.5
# a layer whose extended_residual_rel exceeds this is swept once more at tol / 10
LAYER_RESIDUAL_BOUND = 1e-6
# the smallest end_tol / tol accepted. A shot's far-end mismatch is
# integration error, so end_tol must leave room for it: from (1, 0, 1),
# at the default gas and at nu (1.2, 0.5), k (0.9, -0.3), family 1 at
# strengths 0.05-2 and family 3 at 0.1-0.8 of its bound, with tol
# 1e-10 to 1e-5, every shock connects at end_tol = 10.6 tol, and the
# worst one fails below that; 16 leaves half as much again
MIN_END_TOL_RATIO = 16.0


@dataclass(frozen=True)
class ShootOpts:
    """Controls for the shooting of `shock_profile` and `gilbarg_oracle`.

    tol is the integrator's tolerance and end_tol the largest distance
    from the target at which a shot connects, below the endpoint distance
    (`_shoot`); both must be positive and finite, and end_tol at least
    MIN_END_TOL_RATIO x max(tol, REL_FLOOR) (DomainError otherwise): the
    step control's relative tolerance never falls below REL_FLOOR, so
    neither does a shot's integration error.
    """

    tol: float = DEFAULT_TOL
    end_tol: float = 1e-6

    def __post_init__(self):
        _positive_finite(**vars(self))
        if self.end_tol < MIN_END_TOL_RATIO * max(self.tol, REL_FLOOR):
            floor = f"tol {self.tol!r}"
            if self.tol < REL_FLOOR:
                floor = f"REL_FLOOR {REL_FLOOR:g} ({floor} is below it)"
            raise DomainError(
                f"end_tol {self.end_tol!r} is below {MIN_END_TOL_RATIO:g} x {floor}, "
                "so a shot's integration error alone can exceed it"
            )


def _real_unit_eigenvector(report: LinearizationReport, index: int) -> np.ndarray:
    vec = report.eigenvectors[:, index]
    re = np.real(vec)
    if _sup(np.imag(vec)) > 1e-6 * max(_sup(re), 1e-300):
        raise NoConnectionError("selected eigendirection is genuinely complex")
    # a correctly rounded sum of squares, not BLAS, so the start of every
    # shot is the same on any machine
    n = math.sqrt(math.fsum(c * c for c in re.tolist()))
    if n == 0.0:
        raise NoConnectionError("degenerate eigendirection")
    return re / n


def max_extended_residual(ode: SingularODE, traj: Trajectory) -> tuple[float, float]:
    """Worst residual zeta U' - F at the step midpoints, U' from the dense output.

    U and U' are the dense output and its derivative halfway through each
    step, read by `Trajectory.step_eval` over every step at once (in
    rescaled mode U' = (dV/dtau) / (dx/dtau)). At the step ends
    the derivative would be the stage value F/zeta itself, so the check
    could not fail there. Every midpoint is checked: the residual is
    regular wherever F is, the sonic set zeta = 0 included. Returns the
    worst residual and sup |F| over the midpoints, the scale of the
    residual.

    zeta and F are each evaluated once, on the midpoints as column arrays
    (see `SingularODE`); every value is the one a per-midpoint float
    evaluation gives. A NaN residual propagates into the result.
    """
    U, dU = traj.step_eval(slice(None), 0.5)  # a slice reads views, with no copy of Q
    if traj.mode == "rescaled":
        U, dU = U[:, :-1], dU[:, :-1] / dU[:, -1:]
    z = ode.zeta_eval(list(U.T))
    F = np.array(ode.F_eval(list(U.T)))
    worst = float(np.max(np.abs(z * dU.T - F), initial=0.0))
    return worst, float(np.max(np.abs(F), initial=0.0))


def _relative_residual(worst: float, f_sup: float) -> float:
    """worst / f_sup, or worst itself where F vanished at every midpoint."""
    return worst / f_sup if f_sup > 0.0 else worst


@dataclass(frozen=True)
class FluxRecord:
    """Per-sample flux integrals and their worst relative drift."""

    values: np.ndarray  # (n, 3): mass, momentum, energy flux per sample
    reference: np.ndarray  # (3,) endpoint values
    drift: float


def _flux_integrals(gas: GasModel, sigma: float, rho, v, theta, z1, z2) -> tuple:
    """Mass, momentum and energy flux in the frame moving at sigma, z = (v_x, theta_x).

    m = rho (v - sigma), m v + p - nu z1 and m (e + v^2/2) + v p - k z2 - nu v z1,
    at one state of floats or at every sample of equal-length arrays.
    """
    p, _, _ = pressure(gas, rho, theta)
    e, _ = internal_energy(gas, theta)
    nu, _ = gas.nu_law(rho)
    k, _ = gas.k_law(rho)
    m = rho * (v - sigma)
    return m, m * v + p - nu * z1, m * (e + 0.5 * v * v) + v * p - k * z2 - nu * v * z1


def flux_constants(gas: GasModel, profile: Profile) -> FluxRecord:
    """The three flux integrals of `_flux_integrals` at every sample.

    Exact solutions keep all three constant; the reported drift is the
    worst per-sample deviation from the reference values, relative to
    max(|reference|, 1) per component. The reference is evaluated at the
    equilibrium endpoint (z = 0): for a layer that is the limit state,
    for a shock either endpoint gives the same values up to the
    jump-condition residual. The integrals are evaluated once, on the
    samples as column arrays; each value is the one a per-sample float
    evaluation gives.
    """
    sigma = profile.sigma
    values = np.column_stack(_flux_integrals(gas, sigma, *profile.trajectory.Vs.T))
    reference = np.array(_flux_integrals(gas, sigma, *profile.right[:3].tolist(), 0.0, 0.0))
    scale = np.maximum(np.abs(reference), 1.0)
    drift = float(np.max(np.abs(values - reference) / scale))
    return FluxRecord(values=values, reference=reference, drift=drift)


def _checked_profile(gas: GasModel, ode: SingularODE, sigma: float, left, right, traj, diagnostics) -> Profile:
    """Profile(sigma, left, right, traj) with its checks written into diagnostics.

    left and right are extended-state arrays; the profile keeps copies,
    so neither aliases the trajectory. Every profile carries
    extended_residual_max and extended_residual_rel (see
    `max_extended_residual`) and flux_drift (see `flux_constants`), read
    on a trajectory that was integrated: no profile is built constant.
    """
    prof = Profile(sigma=sigma, left=np.array(left), right=np.array(right), trajectory=traj, diagnostics=diagnostics)
    ext_res, f_sup = max_extended_residual(ode, traj)
    diagnostics["extended_residual_max"] = ext_res
    diagnostics["extended_residual_rel"] = _relative_residual(ext_res, f_sup)
    diagnostics["flux_drift"] = flux_constants(gas, prof).drift
    return prof


@dataclass(frozen=True)
class _ShootPlan:
    """Where to start, which way to integrate, and along which direction."""

    start: np.ndarray
    target: np.ndarray
    direction: float  # +1: integrate x upward from the left end, -1: downward from the right
    xi: np.ndarray
    rate: float  # spatial expansion rate of xi in the integration direction
    rates_start: list[float]
    rates_target: list[float]


def _spatial_rates(ode: SingularODE, U: np.ndarray, on_sonic: Exception) -> tuple[LinearizationReport, list]:
    """linearize(ode, U) and (index, Re lambda / zeta(U)) for its non-center eigenvalues.

    A rest point on the sonic set has no spatial rates; it raises on_sonic.
    """
    z = ode.zeta_eval(U.tolist())
    if z == 0.0:
        raise on_sonic
    report = linearize(ode, U)
    return report, [(i, lam.real / z) for i, lam in enumerate(report.eigenvalues.tolist()) if i not in report.center]


def _connection_plan(ode: SingularODE, U_left: np.ndarray, U_right: np.ndarray) -> _ShootPlan:
    """Pick the saddle endpoint and its one-dimensional shooting manifold.

    A connection between two hyperbolic rest points can only be tracked
    numerically out of the endpoint where it is locally unique: noise
    feeding the faster expanding direction of a node swamps any slow
    perturbation. So the shot starts at whichever endpoint has exactly
    one direction expanding toward the other end (backward integration
    when that is the right endpoint) and the receiving end, attracting
    in the integration direction, absorbs integration noise instead of
    amplifying it. An endpoint on the sonic set is a NoConnectionError.
    Endpoints that coincide, as in a hand-built zero-strength pair, have
    no profile to connect: that is a DomainError naming the state.
    """
    if _sup(U_right - U_left) == 0.0:
        raise DomainError(f"the endpoints coincide at {U_left.tolist()}; a zero-strength pair has no profile")
    on_sonic = NoConnectionError("an endpoint sits on the sonic set; no direct shooting")
    rep_l, mus_l = _spatial_rates(ode, U_left, on_sonic)
    rep_r, mus_r = _spatial_rates(ode, U_right, on_sonic)
    # the left end expanding toward the right first, then the right end contracting toward the left
    ends = ((U_left, rep_l, mus_l, U_right, mus_r, 1.0), (U_right, rep_r, mus_r, U_left, mus_l, -1.0))
    for start, report, mus, target, mus_target, direction in ends:
        leaving = [(i, m) for i, m in mus if direction * m > 0.0]
        if len(leaving) == 1:
            i, m = leaving[0]
            return _ShootPlan(
                start=start, target=target, direction=direction,
                xi=_real_unit_eigenvector(report, i), rate=direction * m,
                rates_start=[m for _, m in mus], rates_target=[m for _, m in mus_target],
            )
    raise NoConnectionError(
        "neither endpoint offers a one-dimensional shooting manifold; "
        f"rates left {[m for _, m in mus_l]}, right {[m for _, m in mus_r]}"
    )


def _shoot(ode: SingularODE, plan: _ShootPlan, opts: ShootOpts) -> tuple[Trajectory, dict]:
    """One shot out of plan.start along plan.xi, accepted if it lands on plan.target.

    An opts.end_tol at or above the endpoint distance, where the start
    itself connects, is a DomainError. The perturbation takes the sign
    with xi . (target - start) >= 0, since along it a monotone profile
    heads toward the target, and the size
    eps = max(SHOOT_EPS_REL x the endpoint distance, SHOOT_EPS_NOISE x
    max(opts.tol, REL_FLOOR) (1 + sup |start|)), never below the step
    control's error scale at the start. The shot spans min(400 / slowest
    rate, 1e6). It stops within half of opts.end_tol of the target, or
    once it is farther than max(10 x the endpoint distance, 0.5) from the
    target, tested inside the step kernel (`_StopRule`). It connects
    when it ends within opts.end_tol of the target, stopped so or at the
    end of its span, not at the sonic set or by step failure. Nothing
    halts it near the start, where |F| is only as large as the
    perturbation.

    Returns the connecting trajectory and the shot's record {sign, eps,
    termination, endpoint_mismatch, n_steps}, n_steps counting accepted
    and rejected steps; raises NoConnectionError, carrying the record as
    its shot, otherwise.
    """
    s_meas = _sup(plan.target - plan.start)
    if opts.end_tol >= s_meas:
        raise DomainError(f"end_tol {opts.end_tol!r} is at or above the endpoint distance {s_meas!r}, so the start connects")
    target, start = tuple(plan.target.tolist()), plan.start.tolist()
    eps = max(SHOOT_EPS_REL * s_meas, SHOOT_EPS_NOISE * max(opts.tol, REL_FLOOR) * (1.0 + _sup(plan.start)))
    rate_floor = min(abs(m) for m in plan.rates_start + plan.rates_target)
    L = min(400.0 / rate_floor, 1e6)
    stop = _StopRule(target=target, radius=max(10.0 * s_meas, 0.5), capture=0.5 * opts.end_tol, x_floor=-math.inf)
    # xi . (target - start) as a correctly rounded sum of the products, not a BLAS
    # dot, whose summation order depends on the kernel
    sgn = 1.0 if math.fsum(map(mul, plan.xi.tolist(), map(sub, target, start))) >= 0.0 else -1.0
    traj = integrate_direct(
        ode, plan.start + sgn * eps * plan.xi, (0.0, plan.direction * L), tol=opts.tol, stop_when=stop,
    )
    shot = {
        "sign": sgn,
        "eps": eps,
        "termination": traj.termination,
        "endpoint_mismatch": _sup(traj.final_V - plan.target),
        "n_steps": traj.stats.n_accepted + traj.stats.n_rejected,
    }
    if shot["endpoint_mismatch"] <= opts.end_tol and traj.termination in (TERM_STOPPED, TERM_REACHED_END):
        return traj, shot
    raise NoConnectionError(
        f"no connection ({ode.label}); the shot (sign, eps, termination, mismatch): "
        f"({sgn:+g}, {eps:.1e}, {traj.termination}, {shot['endpoint_mismatch']:.2e})",
        shot,
    )


def shock_profile(gas: GasModel, pair: RHPair, opts: ShootOpts = ShootOpts()) -> Profile:
    """Travelling-wave connection of an admissible pair by shooting.

    Integrates the travelling-wave singular ODE out of the endpoint whose
    linearization has exactly one direction expanding toward the other
    endpoint, in one shot perturbed along that direction toward the other
    endpoint, never by less than the step control's noise (see `_shoot`).
    Acoustic profiles stay away from the sonic set, so direct integration
    applies throughout. Accepts the shot if it comes within opts.end_tol
    of the far endpoint, its record merged into the diagnostics; raises
    NoConnectionError, carrying that record, otherwise.
    """
    U_minus = np.array([pair.left.rho, pair.left.v, pair.left.theta, 0.0, 0.0])
    U_plus = np.array([pair.right.rho, pair.right.v, pair.right.theta, 0.0, 0.0])
    ode = tw_singular_ode(gas, pair.sigma)
    plan = _connection_plan(ode, U_minus, U_plus)
    traj, shot = _shoot(ode, plan, opts)
    diagnostics = {
        "strength": pair.strength,
        "family": pair.family,
        "shoot_from": "left" if plan.direction > 0 else "right",
        **shot,
        "rate": plan.rate,
        "rates_start": plan.rates_start,
        "rates_target": plan.rates_target,
        "lax": lax_inequalities(gas, pair)["satisfied"],
        "rh_residual_max": _sup(rh_residual(gas, pair)),
    }
    return _checked_profile(gas, ode, pair.sigma, U_minus, U_plus, traj, diagnostics)


# nu v' = m v + p - Pi and k theta' = m (e + v^2/2) + v p - nu v v' - E solved
# for z = (v', theta'), over V = [v, theta] with rho = m / (v - sigma): the
# flux integrals of `_flux_integrals` = (m, Pi, Eflux). p and e are the
# ideal-gas laws of `pressure` and `internal_energy`, nu and k the power laws
# of `PowerLaw`, each written out as it evaluates them.
FLUX_RHS = RhsSource(
    name="flux-form",
    state=("v", "theta"),
    consts=("R", "e_theta", "nu_c", "nu_e", "k_c", "k_e", "sig", "m", "Pi", "Eflux"),
    pre=("rho = m / (v - sig)",),
    positive=("rho", "theta"),
    lines=(
        "p = R * rho * theta",
        "e = e_theta * theta",
        "nu = nu_c if nu_e == 0.0 else nu_c * rho ** nu_e",
        "k = k_c if k_e == 0.0 else k_c * rho ** k_e",
        "v_x = (m * v + p - Pi) / nu",
        "th_x = (m * (e + 0.5 * v * v) + v * p - nu * v * v_x - Eflux) / k",
    ),
    F=("v_x", "th_x"),
    zeta="1.0",
    reject='raise DomainError("flux-form state left the physical region")',
    overflow="the flux form overflows a float at the state {V}",
)


def _flux_form(gas: GasModel, sigma: float, m: float, Pi: float, Eflux: float) -> SingularODE:
    """The flux-form system of the constants (m, Pi, Eflux) with zeta = 1: `FLUX_RHS`.

    F(V) = [v_x, theta_x] at V = [v, theta]; a state with rho = m / (v -
    sigma) or theta not positive (NaN and v = sigma included) is a
    DomainError, and so is one at which a transport law overflows a
    float. V may also be a pair of equal-length arrays; F then checks and
    solves every sample at once, with the bits of the float call.
    """
    F, zeta = rhs_functions(FLUX_RHS, (*_gas_constants(gas), sigma, m, Pi, Eflux))
    return SingularODE(F_eval=F, zeta_eval=zeta, label="flux form")


@dataclass(frozen=True)
class OracleTrajectory:
    """Flux-form shock profile: the (v, theta) trajectory and its flux constants.

    m, Pi and Eflux are the mass, momentum and energy fluxes in the frame
    moving at sigma, fixed by the left state. The flux form they define
    (`_flux_form`) gives rho, z1 = v_x and z2 = theta_x at each sample
    (`_columns`). That right-hand side comes from the gas model and these
    constants alone, never from the symmetrized matrices or the reduced
    singular ODE; only the stepper and the shooting are shared with
    `shock_profile`. ``shot`` is the shot's record (see `_shoot`).
    """

    gas: GasModel
    sigma: float
    m: float
    Pi: float
    Eflux: float
    trajectory: Trajectory
    shot: dict

    def _columns(self, V: np.ndarray) -> dict[str, np.ndarray]:
        """Columns rho, v, theta, z1, z2 at (v, theta) states, z from the flux form."""
        vs, ths = V[:, 0], V[:, 1]
        z1, z2 = _flux_form(self.gas, self.sigma, self.m, self.Pi, self.Eflux).F_eval([vs, ths])
        return {"rho": self.m / (vs - self.sigma), "v": vs.copy(), "theta": ths.copy(), "z1": z1, "z2": z2}


def gilbarg_oracle(gas: GasModel, pair: RHPair, opts: ShootOpts = ShootOpts()) -> OracleTrajectory:
    """Shock profile from the once-integrated conservation laws.

    nu v' = m v + p - Pi and k theta' = m (e + v^2/2) + v p - nu v v' - E
    with the three constants fixed by the left state. This route never
    touches the symmetrized matrices, so it can serve as an independent
    check on the singular-ODE profile. The (v, theta) connection is found
    by the same shooting as `shock_profile`, with the same controls: one
    shot toward the far state, perturbed never below the step control's
    noise (see `_shoot`), whose record is ``shot``.
    """
    U_m = pair.left
    sigma = pair.sigma
    m, Pi, Eflux = _flux_integrals(gas, sigma, U_m.rho, U_m.v, U_m.theta, 0.0, 0.0)
    if m == 0.0:
        raise DomainError("mass flux vanishes, the flux-form system is undefined")

    ode2 = _flux_form(gas, sigma, m, Pi, Eflux)
    left = np.array([U_m.v, U_m.theta])
    right = np.array([pair.right.v, pair.right.theta])
    traj, shot = _shoot(ode2, _connection_plan(ode2, left, right), opts)
    return OracleTrajectory(gas=gas, sigma=sigma, m=m, Pi=Pi, Eflux=Eflux, trajectory=traj, shot=shot)


_COLUMNS = TW_RHS.state


@dataclass(frozen=True)
class CompareReport:
    """Sup deviation of profile components after reparametrization."""

    sup: float
    per_column: dict
    overlap: tuple[float, float]
    n_points: int


def _integrated_columns(obj) -> tuple[str, ...]:
    if isinstance(obj, Profile):
        return _COLUMNS
    if isinstance(obj, OracleTrajectory):
        return FLUX_RHS.state
    raise TypeError(f"cannot compare {type(obj).__name__}; expected a Profile or an OracleTrajectory")


def _columns_at(obj, states: np.ndarray) -> dict[str, np.ndarray]:
    if isinstance(obj, OracleTrajectory):
        return obj._columns(states)
    return dict(zip(_COLUMNS, states.T))


def compare_profiles(a, b, matching: str = "v") -> CompareReport:
    """Reparametrize two profiles by a shared monotone component.

    Each profile (a `Profile` or an `OracleTrajectory`) is evaluated
    through the dense output of its integration, by
    `Trajectory.eval_where`, at the points where the matching component
    takes the grid values: the samples of both profiles inside the
    overlap of their ranges, plus the overlap's ends, sorted, with each
    value once. Repeats are dropped by comparing sorted neighbours, not by
    np.unique, which under numpy >= 2 imports numpy.ma. The matching
    component must be one the profile integrates (rho, v, theta, z1, z2
    for a Profile; v, theta for the oracle, whose rho, z1 and z2 follow
    from the flux form). Ranges that do not overlap are a DomainError,
    checked first; a matching column that is not strictly monotone is
    then `eval_where`'s NonMonotoneError. A grid value that is a sample of
    a profile is read there without Newton iterations, so about half the
    grid is. The sup deviation of the remaining components is returned. x
    never participates: profiles are translation invariant.
    """
    names = [_integrated_columns(obj) for obj in (a, b)]
    for obj, cols in zip((a, b), names):
        if matching not in cols:
            raise DomainError(f"matching column {matching!r} missing from {type(obj).__name__}")
    idx = [cols.index(matching) for cols in names]
    ma, mb = (obj.trajectory.ys[:, j] for obj, j in zip((a, b), idx))
    lo = max(ma.min(), mb.min())
    hi = min(ma.max(), mb.max())
    if not (lo < hi):
        raise DomainError("profiles do not overlap in the matching component")
    grid = np.sort(np.concatenate([
        ma[(ma >= lo) & (ma <= hi)], mb[(mb >= lo) & (mb <= hi)], np.array([lo, hi]),
    ]))
    grid = grid[np.concatenate(([True], grid[1:] != grid[:-1]))]
    ca, cb = (_columns_at(obj, obj.trajectory.eval_where(j, grid)) for obj, j in zip((a, b), idx))
    per_column = {c: float(np.max(np.abs(ca[c] - cb[c]))) for c in _COLUMNS if c != matching}
    return CompareReport(
        sup=max(per_column.values()), per_column=per_column, overlap=(float(lo), float(hi)), n_points=len(grid),
    )


def boundary_layer(
    gas: GasModel,
    limit_state: State,
    direction_index: int = 0,
    amplitude: float = 1e-3,
    *,
    tol: float = DEFAULT_TOL,
) -> Profile:
    """Steady layer converging to limit_state at the far end.

    The layer is integrated backward in x, from the far end, out of
    a perturbation of the given signed amplitude along the decaying
    direction selected by index, the spatial rates at (limit_state, z = 0)
    sorted most stable first. That direction is the unit eigenvector
    `linearize` gives, whose z2 = theta_x component has the sign of zeta
    at the limit, which is its v (the last nonzero component, should z2
    vanish): a positive amplitude starts the layer on that side, a
    negative one on the other. The start keeps v and theta of that
    perturbation and lies on the flux level set of the limit state: rho
    from its mass flux, z from the flux form of its three fluxes (see
    `_flux_form`), so the reported flux drift is integration error alone.
    Steady flow keeps its mass flux rho v, so a limit with v = 0 keeps
    v = 0: like a limit without a decaying direction, it has no layer
    (NoDecayingDirectionError). Every layer is
    one sweep of the desingularized system (`integrate_rescaled`), regular
    on the sonic set: it runs from x = 0 down to x <= -L, or until V
    strays past the growth cap from the limit, and the window is then
    shifted to start at x = 0, the dense output with it.
    A layer whose extended_residual_rel exceeds LAYER_RESIDUAL_BOUND is
    swept once more at tol / 10, which diagnostics["refined_tol"]
    records; its checks are then those of the second sweep, whatever
    they read. The run's termination and min |zeta| are prof.trajectory's.
    L takes its log from math.log: numpy's SIMD log can differ in the
    last bit by machine.
    An amplitude that is zero (the limit state itself, no layer) or not
    finite is one DomainError that names it, and so is one at or past
    the growth cap, checked before the start is built. tol is the
    integrator's tolerance; one that is not positive and finite is a
    DomainError at every amplitude.
    direction_index is an integer no smaller than 0, not a bool; any
    other value is a DomainError, whatever the amplitude.
    """
    _positive_finite(tol=tol)
    direction_index = _integer(direction_index, "direction_index", 0, "boundary_layer")
    if not (math.isfinite(amplitude) and amplitude != 0.0):
        raise DomainError(f"amplitude must be finite and nonzero, got {amplitude}")
    ode = steady_singular_ode(gas)
    U_star = np.array([limit_state.rho, limit_state.v, limit_state.theta, 0.0, 0.0])
    on_sonic = NoDecayingDirectionError("limit state on the sonic set: steady flow keeps v = 0, no layer exists")
    report, rates = _spatial_rates(ode, U_star, on_sonic)
    stable = sorted(((i, m) for i, m in rates if m < 0.0), key=lambda p: p[1])
    if not stable:
        raise NoDecayingDirectionError(
            f"no decaying direction at limit state (v = {limit_state.v:g}); "
            f"non-center rates: {[m for _, m in rates]}"
        )
    if direction_index >= len(stable):
        raise DomainError(
            f"direction_index {direction_index} out of range, {len(stable)} decaying direction(s)"
        )
    sel, rate = stable[direction_index]
    xi = _real_unit_eigenvector(report, sel)

    cap = LAYER_GROW_CAP * max(1.0, _sup(U_star))
    if abs(amplitude) >= cap:
        raise DomainError(f"amplitude {amplitude:g} exceeds the growth cap {cap:g}")
    L = min(math.log(max(LAYER_GROW_CAP, 10 * abs(amplitude)) / abs(amplitude)) / abs(rate) * 1.5, 1e4)
    m, Pi, Eflux = _flux_integrals(gas, 0.0, limit_state.rho, limit_state.v, limit_state.theta, 0.0, 0.0)
    v, theta = (U_star + amplitude * xi)[1:3].tolist()
    start = np.array([m / v, v, theta, *_flux_form(gas, 0.0, m, Pi, Eflux).F_eval([v, theta])])
    diagnostics: dict = {
        "amplitude": amplitude,
        "direction_index": direction_index,
        "rate": rate,
        "decaying_rates": [m for _, m in stable],
        "length_requested": L,
    }
    # tau runs the way that moves x down; at the limit dx/dtau = zeta = v, so the span is ten times L / |v|
    tau_span = max(10.0 * L / abs(limit_state.v), 100.0)
    tau_end = -tau_span if ode.zeta_eval(start.tolist()) > 0 else tau_span
    # x <= -L, or V past the growth cap from the limit, tested inside the step kernel
    stop = _StopRule(target=tuple(U_star.tolist()), radius=cap, capture=-math.inf, x_floor=-L)

    def checked_sweep(tol: float) -> Profile:
        traj = integrate_rescaled(ode, start, (0.0, tau_end), tol=tol, stop_when=stop)
        # shift the window to start at x = 0; x is integrated, so the dense output moves with it
        ys = traj.ys.copy()
        ys[:, -1] -= np.min(ys[:, -1])
        traj = replace(traj, ys=ys)
        d = {**diagnostics, "mode": "rescaled", "length_produced": float(np.max(traj.xs))}
        return _checked_profile(gas, ode, 0.0, traj.final_V, U_star, traj, d)

    prof = checked_sweep(tol)
    if prof.diagnostics["extended_residual_rel"] > LAYER_RESIDUAL_BOUND:
        # the quartic dense output misses the bound: one more sweep at a tenth of tol
        diagnostics["refined_tol"] = tol / 10.0
        prof = checked_sweep(tol / 10.0)
    return prof
