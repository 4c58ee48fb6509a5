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
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import (
    DomainError,
    NoConnectionError,
    NoDecayingDirectionError,
    NonMonotoneError,
)
from .gas import GasModel, State, conserved, euler_fluxes, internal_energy, pressure, sound_speed
from .reduction import (
    SINGULARITY_GUARD,
    ExtendedState,
    SingularODE,
    steady_singular_ode,
    tw_singular_ode,
)
from .sode import (
    TERM_EQUILIBRIUM,
    TERM_REACHED_END,
    TERM_SINGULARITY,
    TERM_STOPPED,
    LinearizationReport,
    Trajectory,
    TrajectoryStats,
    integrate_direct,
    integrate_rescaled,
    linearize,
)


def _sup(a: np.ndarray) -> float:
    return float(np.max(np.abs(a)))


def _sup_dist(a: list[float], b: list[float]) -> float:
    """max |a_i - b_i| on floats; for finite entries it is _sup(a - b) bit for bit."""
    return max([abs(p - q) for p, q in zip(a, b)])


def char_speed(gas: GasModel, state: State, family: int) -> float:
    """Characteristic speed of the chosen family: v - c, v, or v + c."""
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
    """Jump-condition residual [f(U+) - f(U-)] - sigma [g(U+) - g(U-)]."""
    df = euler_fluxes(gas, pair.right) - euler_fluxes(gas, pair.left)
    dg = conserved(gas, pair.right) - conserved(gas, pair.left)
    return df - pair.sigma * dg


def lax_inequalities(gas: GasModel, pair: RHPair) -> dict:
    """Family characteristic speeds on both sides against sigma."""
    lam_left = char_speed(gas, pair.left, pair.family)
    lam_right = char_speed(gas, pair.right, pair.family)
    return {
        "lambda_left": lam_left,
        "lambda_right": lam_right,
        "sigma": pair.sigma,
        "satisfied": lam_right < pair.sigma < lam_left or pair.strength == 0.0,
    }


def _conjugate_state(gas: GasModel, U_minus: State, sigma: float) -> tuple[float, float, float]:
    """Closed-form second root of the jump conditions in the shock frame.

    With m = rho u and P = m u + p fixed by the left state, the relative
    velocity solves a quadratic whose other root is
    u+ = 2 gamma P / ((gamma + 1) m) - u-. For the polytropic gas this is
    the exact right state of the pair, up to round-off.
    """
    u_m = U_minus.v - sigma
    m = U_minus.rho * u_m
    if m == 0.0:
        raise DomainError("left state moves with the wave, no conjugate state")
    p_m, _, _ = pressure(gas, U_minus.rho, U_minus.theta)
    P = m * u_m + p_m
    u_p = 2.0 * gas.gamma * P / ((gas.gamma + 1.0) * m) - u_m
    if u_p * u_m <= 0.0:
        raise DomainError("conjugate state crosses the sonic frame, no admissible root")
    rho_p = m / u_p
    theta_p = u_p * (P / m - u_p) / gas.R
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
    return c * (1.0 - np.sqrt((gas.gamma - 1.0) / (2.0 * gas.gamma)))


def solve_rh(gas: GasModel, U_minus: State, family: int, strength: float) -> RHPair:
    """Solve the jump conditions for (rho+, v+, theta+, sigma).

    The wave speed is pinned by sigma = lambda_family(U-) - strength and
    the right state is the closed-form conjugate state of U- in the frame
    moving at sigma. Family 2 (the contact family) is rejected: it is
    linearly degenerate and admits no compressive connection. Negative
    strengths are rejected because the resulting pair violates the
    entropy inequalities, and so are family-3 strengths at or past the
    infinite-strength bound c (1 - sqrt((gamma - 1) / (2 gamma))), which
    no finite shock reaches. A strength below the round-off of
    lambda_family(U-) leaves sigma on it: that is the zero-strength pair
    within round-off, and it is rejected as such.
    """
    if family == 2:
        raise DomainError("family 2 is the contact family; no shock pair exists")
    if family not in (1, 3):
        raise DomainError(f"family must be 1 or 3, got {family}")
    strength = float(strength)
    if strength < 0.0:
        raise DomainError("strength must be nonnegative; expansions violate the entropy conditions")
    lam_minus = char_speed(gas, U_minus, family)
    if strength == 0.0:
        return RHPair(left=U_minus, right=U_minus, sigma=lam_minus, family=family, strength=0.0)
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
    """A computed connection: trajectory plus endpoint data and diagnostics."""

    kind: str
    sigma: float
    left: ExtendedState
    right: ExtendedState
    trajectory: Trajectory
    diagnostics: dict


# first shooting perturbation, relative to the distance between the endpoints
SHOOT_EPS_REL = 1e-7
# a layer run stops once it strays this far (times max(1, |U*|)) from the limit
LAYER_GROW_CAP = 0.5
# shooting rounds after the first, each with a 16-fold smaller perturbation
SHOOT_RETRIES = 2


@dataclass(frozen=True)
class ShootOpts:
    """Controls for the shooting of `shock_profile` and `gilbarg_oracle`."""

    tol: float = 1e-10
    end_tol: float = 1e-6


@dataclass(frozen=True)
class LayerOpts:
    """Controls for the boundary-layer construction."""

    tol: float = 1e-10


def _constant_trajectory(U: np.ndarray, zeta_abs: float) -> Trajectory:
    stats = TrajectoryStats(
        n_accepted=0, n_rejected=0, n_fevals=0,
        min_abs_zeta=zeta_abs, zeta_sign_changes=0, h_final=0.0,
    )
    return Trajectory(
        mode="direct",
        ts=np.array([0.0]),
        ys=np.array([U]),
        termination=TERM_EQUILIBRIUM,
        stats=stats,
        hs=np.empty(0),
        Q=np.empty((0, U.size, 4)),
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


def max_extended_residual(ode: SingularODE, traj: Trajectory) -> tuple[float, int, float]:
    """Worst residual zeta U' - F at the step midpoints, U' from the dense output.

    U and U' are the dense output and its derivative halfway through each
    step (in rescaled mode U' = (dV/dtau) / (dx/dtau)). At the step ends
    the derivative would be the stage value F/zeta itself, so the check
    could not fail there. Midpoints closer to the sonic set than
    SINGULARITY_GUARD are skipped (the direct derivative is not defined
    there). Returns the worst residual, the number of midpoints skipped,
    and sup |F| over the midpoints checked, the scale of the residual.
    """
    rescaled = traj.mode == "rescaled"
    worst = f_sup = 0.0
    skipped = 0
    ys, dys = traj.step_eval(np.arange(traj.hs.size), 0.5)
    for y, dy in zip(ys.tolist(), dys.tolist()):
        V = y[:-1] if rescaled else y
        z = ode.zeta_eval(V)
        if abs(z) <= SINGULARITY_GUARD:
            skipped += 1
            continue
        Uprime = [a / dy[-1] for a in dy[:-1]] if rescaled else dy
        F = ode.F_eval(V)
        worst = max(worst, _sup_dist([z * a for a in Uprime], F))
        f_sup = max(f_sup, max(map(abs, F)))
    return worst, skipped, f_sup


def _relative_residual(worst: float, f_sup: float) -> float:
    """worst / f_sup, or worst itself where F vanished at every midpoint checked."""
    return worst / f_sup if f_sup > 0.0 else worst


@dataclass(frozen=True)
class FluxRecord:
    """Per-sample flux integrals and their worst relative drift."""

    values: np.ndarray  # (n, 3): mass, momentum, energy flux per sample
    reference: np.ndarray  # (3,) endpoint values
    drift: float


def flux_constants(gas: GasModel, profile: Profile) -> FluxRecord:
    """Integrals m, m v + p - nu v_x, m (e + v^2/2) + v p - k theta_x - nu v v_x.

    Exact solutions keep all three constant; the reported drift is the
    worst per-sample deviation from the reference values, relative to
    max(|reference|, 1) per component. The reference is evaluated at the
    equilibrium endpoint (z = 0): for a layer that is the limit state,
    for a shock either endpoint gives the same values up to the
    jump-condition residual.
    """
    sigma = profile.sigma
    rows = []
    for rho, v, theta, z1, z2 in profile.trajectory.Vs.tolist():
        p, _, _ = pressure(gas, rho, theta)
        e, _ = internal_energy(gas, theta)
        nu, _ = gas.nu_law(rho)
        k, _ = gas.k_law(rho)
        m = rho * (v - sigma)
        rows.append((m, m * v + p - nu * z1, m * (e + 0.5 * v * v) + v * p - k * z2 - nu * v * z1))
    values = np.array(rows).reshape(-1, 3)
    n = len(rows)
    ref = profile.right
    p_r, _, _ = pressure(gas, ref.rho, ref.theta)
    e_r, _ = internal_energy(gas, ref.theta)
    m_r = ref.rho * (ref.v - sigma)
    reference = np.array([
        m_r,
        m_r * ref.v + p_r,
        m_r * (e_r + 0.5 * ref.v ** 2) + ref.v * p_r,
    ])
    scale = np.maximum(np.abs(reference), 1.0)
    drift = float(np.max(np.abs(values - reference) / scale)) if n else 0.0
    return FluxRecord(values=values, reference=reference, drift=drift)


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


def _direct_rates(report: LinearizationReport, zeta: float) -> list[tuple[int, float]]:
    """(index, Re lambda / zeta) for the non-center eigenvalues."""
    return [
        (i, float(report.eigenvalues[i].real / zeta))
        for i in range(len(report.eigenvalues))
        if i not in report.center
    ]


def _connection_plan(ode: SingularODE, U_left: np.ndarray, U_right: np.ndarray) -> _ShootPlan:
    """Pick the saddle endpoint and its one-dimensional shooting manifold.

    A connection between two hyperbolic rest points can only be tracked
    numerically out of the endpoint where it is locally unique: noise
    feeding the faster expanding direction of a node swamps any slow
    perturbation. So the shot starts at whichever endpoint has exactly
    one direction expanding toward the other end (backward integration
    when that is the right endpoint) and the receiving end, attracting
    in the integration direction, absorbs integration noise instead of
    amplifying it.
    """
    zl = ode.zeta_eval(U_left.tolist())
    zr = ode.zeta_eval(U_right.tolist())
    if zl == 0.0 or zr == 0.0:
        raise NoConnectionError("an endpoint sits on the sonic set; no direct shooting")
    rep_l = linearize(ode, U_left)
    rep_r = linearize(ode, U_right)
    mus_l = _direct_rates(rep_l, zl)
    mus_r = _direct_rates(rep_r, zr)
    expanding_left = [(i, m) for i, m in mus_l if m > 0.0]
    contracting_right = [(i, m) for i, m in mus_r if m < 0.0]
    if len(expanding_left) == 1:
        i, m = expanding_left[0]
        return _ShootPlan(
            start=U_left, target=U_right, direction=1.0,
            xi=_real_unit_eigenvector(rep_l, i), rate=m,
            rates_start=[m for _, m in mus_l], rates_target=[m for _, m in mus_r],
        )
    if len(contracting_right) == 1:
        i, m = contracting_right[0]
        return _ShootPlan(
            start=U_right, target=U_left, direction=-1.0,
            xi=_real_unit_eigenvector(rep_r, i), rate=-m,
            rates_start=[m for _, m in mus_r], rates_target=[m for _, m in mus_l],
        )
    raise NoConnectionError(
        "neither endpoint offers a one-dimensional shooting manifold; "
        f"rates left {[m for _, m in mus_l]}, right {[m for _, m in mus_r]}"
    )


def _shoot(ode: SingularODE, plan: _ShootPlan, opts: ShootOpts) -> tuple[Trajectory, list[dict]]:
    """Shoot out of plan.start along plan.xi until a run lands on plan.target.

    The perturbation sign with xi . (target - start) >= 0 goes first,
    since along it a monotone profile heads toward the target; the other
    sign is the fallback. The first perturbation is SHOOT_EPS_REL times
    the endpoint distance, and each of the SHOOT_RETRIES further rounds
    shrinks it 16-fold. Shots run over a span of min(400 / slowest rate,
    1e6). A shot connects when it ends within opts.end_tol of the target
    without halting at the sonic set or by step failure. Every shot is
    recorded as {sign, eps, termination, mismatch, n_steps}, n_steps
    counting accepted and rejected steps.

    Returns the connecting trajectory and the attempts, the last of which
    is that shot; raises NoConnectionError, carrying the attempts,
    otherwise.
    """
    s_meas = max(_sup(plan.target - plan.start), 1e-12)
    base_eps = SHOOT_EPS_REL * s_meas
    rate_floor = min(abs(m) for m in plan.rates_start + plan.rates_target)
    L = min(400.0 / rate_floor, 1e6)
    R_div = max(10.0 * s_meas, 0.5)
    capture = 0.5 * opts.end_tol
    target, start = plan.target.tolist(), plan.start.tolist()

    def stop(x, V):
        d = _sup_dist(V, target)
        return d <= capture or (d > R_div and _sup_dist(V, start) > R_div)

    toward = 1.0 if float(np.dot(plan.xi, plan.target - plan.start)) >= 0.0 else -1.0
    attempts: list[dict] = []
    for attempt in range(SHOOT_RETRIES + 1):
        eps = base_eps / (16.0 ** attempt)
        for sgn in (toward, -toward):
            traj = integrate_direct(
                ode, plan.start + sgn * eps * plan.xi, (0.0, plan.direction * L), tol=opts.tol, stop_when=stop,
            )
            mismatch = _sup(traj.final_V - plan.target)
            attempts.append({
                "sign": sgn,
                "eps": eps,
                "termination": traj.termination,
                "mismatch": mismatch,
                "n_steps": traj.stats.n_accepted + traj.stats.n_rejected,
            })
            if mismatch <= opts.end_tol and traj.termination in (
                TERM_STOPPED, TERM_EQUILIBRIUM, TERM_REACHED_END,
            ):
                return traj, attempts
    raise NoConnectionError(
        f"no connection within budget ({ode.label}); attempts (sign, eps, termination, mismatch): "
        + ", ".join(
            f"({a['sign']:+g}, {a['eps']:.1e}, {a['termination']}, {a['mismatch']:.2e})" for a in attempts
        ),
        attempts,
    )


def shock_profile(gas: GasModel, pair: RHPair, opts: ShootOpts = ShootOpts()) -> Profile:
    """Travelling-wave connection of an admissible pair by shooting.

    Integrates the travelling-wave singular ODE out of the endpoint whose
    linearization has exactly one direction expanding toward the other
    endpoint, perturbed along that direction toward the other endpoint
    first; the opposite sign is the fallback, and SHOOT_RETRIES further
    rounds shrink the perturbation (see `_shoot`). Acoustic profiles stay
    away from the sonic set, so direct integration applies throughout.
    Accepts the shot whose trajectory comes within opts.end_tol of the
    far endpoint, with every shot listed in diagnostics["attempts"];
    raises NoConnectionError otherwise.
    """
    U_minus = np.array([pair.left.rho, pair.left.v, pair.left.theta, 0.0, 0.0])
    U_plus = np.array([pair.right.rho, pair.right.v, pair.right.theta, 0.0, 0.0])
    ode = tw_singular_ode(gas, pair.sigma)

    if pair.strength == 0.0:
        traj = _constant_trajectory(U_minus, abs(ode.zeta_eval(U_minus.tolist())))
        prof = Profile(
            kind="shock", sigma=pair.sigma,
            left=ExtendedState.from_array(U_minus), right=ExtendedState.from_array(U_plus),
            trajectory=traj,
            diagnostics={"strength": 0.0, "endpoint_mismatch": 0.0, "note": "zero-strength pair, constant profile"},
        )
        rec = flux_constants(gas, prof)
        prof.diagnostics.update(
            rh_residual_max=_sup(rh_residual(gas, pair)),
            flux_drift=rec.drift,
            extended_residual_max=0.0,
            extended_residual_rel=0.0,
        )
        return prof

    plan = _connection_plan(ode, U_minus, U_plus)
    traj, attempts = _shoot(ode, plan, opts)
    shot = attempts[-1]
    ext_res, _, f_sup = max_extended_residual(ode, traj)
    prof = Profile(
        kind="shock", sigma=pair.sigma,
        left=ExtendedState.from_array(U_minus),
        right=ExtendedState.from_array(U_plus),
        trajectory=traj,
        diagnostics={
            "strength": pair.strength,
            "family": pair.family,
            "shoot_from": "left" if plan.direction > 0 else "right",
            "sign": shot["sign"],
            "eps": shot["eps"],
            "endpoint_mismatch": shot["mismatch"],
            "termination": traj.termination,
            "rate": plan.rate,
            "rates_start": plan.rates_start,
            "rates_target": plan.rates_target,
            "extended_residual_max": ext_res,
            "extended_residual_rel": _relative_residual(ext_res, f_sup),
            "rh_residual_max": _sup(rh_residual(gas, pair)),
            "lax": lax_inequalities(gas, pair)["satisfied"],
            "attempts": attempts,
        },
    )
    prof.diagnostics["flux_drift"] = flux_constants(gas, prof).drift
    return prof


def _flux_form_rhs(
    gas: GasModel, sigma: float, m: float, Pi: float, Eflux: float, v: float, theta: float,
) -> list[float]:
    """[v_x, theta_x] from nu v' = m v + p - Pi, k theta' = m (e + v^2/2) + v p - nu v v' - E.

    p and e are the ideal-gas laws of `pressure` and `internal_energy`,
    written out in the same order; a NaN rho or theta fails the check.
    """
    rho = m / (v - sigma)
    if not (rho > 0.0 and theta > 0.0):
        raise DomainError("flux-form state left the physical region")
    p = gas.R * rho * theta
    e = gas.R / (gas.gamma - 1.0) * theta
    nu, _ = gas.nu_law(rho)
    k, _ = gas.k_law(rho)
    v_x = (m * v + p - Pi) / nu
    th_x = (m * (e + 0.5 * v * v) + v * p - nu * v * v_x - Eflux) / k
    return [v_x, th_x]


@dataclass(frozen=True)
class OracleTrajectory:
    """Flux-form (v, theta) trajectory with its conserved quantities.

    Built only from the gas model and the once-integrated conservation
    laws; shares nothing with the symmetrized matrices or the reduction.
    """

    gas: GasModel
    sigma: float
    m: float
    Pi: float
    Eflux: float
    trajectory: Trajectory
    attempts: list[dict] = field(default_factory=list)  # the shots, as in Profile diagnostics

    def rhs(self, v: float, theta: float) -> list[float]:
        """Right-hand sides [v_x, theta_x] of the flux-form system."""
        return _flux_form_rhs(self.gas, self.sigma, self.m, self.Pi, self.Eflux, v, theta)

    def _columns(self, V: np.ndarray) -> dict[str, np.ndarray]:
        """Columns rho, v, theta, z1, z2 at (v, theta) states, z from the flux form."""
        vs, ths = V[:, 0], V[:, 1]
        z = np.array([self.rhs(v, th) for v, th in V.tolist()]).reshape(-1, 2)
        return {"rho": self.m / (vs - self.sigma), "v": vs.copy(), "theta": ths.copy(), "z1": z[:, 0], "z2": z[:, 1]}

    def table(self) -> dict[str, np.ndarray]:
        """Columns x, rho, v, theta, z1, z2 with z from the flux form."""
        return {"x": self.trajectory.xs.copy(), **self._columns(self.trajectory.Vs)}


def gilbarg_oracle(gas: GasModel, pair: RHPair, opts: ShootOpts = ShootOpts()) -> OracleTrajectory:
    """Shock profile from the once-integrated conservation laws.

    nu v' = m v + p - Pi and k theta' = m (e + v^2/2) + v p - nu v v' - E
    with the three constants fixed by the left state. This route never
    touches the symmetrized matrices, so it can serve as an independent
    check on the singular-ODE profile. The (v, theta) connection is found
    by the same shooting as `shock_profile`, with the same controls: the
    sign heading toward the far state first, the other as the fallback,
    every shot listed in ``attempts``.
    """
    U_m = pair.left
    sigma = pair.sigma
    m = U_m.rho * (U_m.v - sigma)
    if m == 0.0:
        raise DomainError("mass flux vanishes, the flux-form system is undefined")
    p_m, _, _ = pressure(gas, U_m.rho, U_m.theta)
    e_m, _ = internal_energy(gas, U_m.theta)
    Pi = m * U_m.v + p_m
    Eflux = m * (e_m + 0.5 * U_m.v ** 2) + U_m.v * p_m

    def rhs2(V: list[float]) -> list[float]:
        return _flux_form_rhs(gas, sigma, m, Pi, Eflux, *V)

    ode2 = SingularODE(dim=2, F_eval=rhs2, zeta_eval=lambda V: 1.0, label="flux form")
    left = np.array([U_m.v, U_m.theta])
    right = np.array([pair.right.v, pair.right.theta])

    if pair.strength == 0.0:
        traj = _constant_trajectory(left, 1.0)
        return OracleTrajectory(gas=gas, sigma=sigma, m=m, Pi=Pi, Eflux=Eflux, trajectory=traj)

    plan = _connection_plan(ode2, left, right)
    traj, attempts = _shoot(ode2, plan, opts)
    return OracleTrajectory(gas=gas, sigma=sigma, m=m, Pi=Pi, Eflux=Eflux, trajectory=traj, attempts=attempts)


_COLUMNS = ("rho", "v", "theta", "z1", "z2")


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
        return ("v", "theta")
    raise TypeError(f"cannot compare {type(obj).__name__}; expected a Profile or an OracleTrajectory")


def _columns_at(obj, states: np.ndarray) -> dict[str, np.ndarray]:
    if isinstance(obj, OracleTrajectory):
        return obj._columns(states)
    return dict(zip(_COLUMNS, states.T))


def compare_profiles(a, b, matching: str = "v") -> CompareReport:
    """Reparametrize two profiles by a shared monotone component.

    Each profile (a `Profile` or an `OracleTrajectory`) is evaluated
    through the dense output of its integration at the points where the
    matching component takes the grid values: the samples of both
    profiles inside the overlap of their ranges, plus the overlap's ends
    (see `Trajectory.eval_where`). The matching component must be one the
    profile integrates (rho, v, theta, z1, z2 for a Profile; v, theta for
    the oracle, whose rho, z1 and z2 follow from the flux form). The sup
    deviation of the remaining components is returned. x never
    participates: profiles are translation invariant.
    """
    names = [_integrated_columns(obj) for obj in (a, b)]
    for obj, cols in zip((a, b), names):
        if matching not in cols:
            raise DomainError(f"matching column {matching!r} missing from {type(obj).__name__}")
    idx = [cols.index(matching) for cols in names]
    samples = []
    for obj, j in zip((a, b), idx):
        s = obj.trajectory.Vs[:, j]
        d = np.diff(s)
        if len(s) < 2 or not (np.all(d > 0) or np.all(d < 0)):
            raise NonMonotoneError(f"matching column {matching!r} is not strictly monotone")
        samples.append(s)
    ma, mb = samples
    lo = max(ma.min(), mb.min())
    hi = min(ma.max(), mb.max())
    if not (lo < hi):
        raise DomainError("profiles do not overlap in the matching component")
    grid = np.unique(np.concatenate([
        ma[(ma >= lo) & (ma <= hi)], mb[(mb >= lo) & (mb <= hi)], np.array([lo, hi]),
    ]))
    ca, cb = (_columns_at(obj, obj.trajectory.eval_where(j, grid)) for obj, j in zip((a, b), idx))
    per_column = {c: float(np.max(np.abs(ca[c] - cb[c]))) for c in _COLUMNS if c != matching}
    return CompareReport(
        sup=max(per_column.values()), per_column=per_column, overlap=(float(lo), float(hi)), n_points=len(grid),
    )


def _shift_x(traj: Trajectory, dx: float) -> Trajectory:
    """Translate a trajectory by dx in x, its dense output with it.

    x is ts in direct mode and the last column of ys in rescaled mode.
    """
    if traj.mode == "direct":
        return replace(traj, ts=traj.ts + dx)
    ys = traj.ys.copy()
    ys[:, -1] += dx
    return replace(traj, ys=ys)


def boundary_layer(
    gas: GasModel,
    limit_state: State,
    direction_index: int = 0,
    amplitude: float = 1e-3,
    opts: LayerOpts = LayerOpts(),
) -> Profile:
    """Steady layer converging to limit_state at the far end.

    The steady singular ODE is linearized at the equilibrium
    (limit_state, z = 0); spatial decay rates are the non-center
    eigenvalues divided by zeta = v at the equilibrium. The layer is
    produced by integrating backward (from the far end toward x = 0)
    starting a perturbation of the given signed amplitude along the
    decaying direction selected by index (sorted most stable first).

    If the backward sweep approaches the sonic set v = 0, the run is
    redone with the rescaled integrator, which can pass near the set;
    any zeta sign change is reported in the diagnostics. For a
    characteristic limit state (v = 0 within the guard) classification
    falls back to the desingularized rates and only the rescaled sweep
    is used; the tool makes no existence claim in that case.
    """
    ode = steady_singular_ode(gas)
    U_star = np.array([limit_state.rho, limit_state.v, limit_state.theta, 0.0, 0.0])
    if amplitude == 0.0:
        traj = _constant_trajectory(U_star, abs(limit_state.v))
        return Profile(
            kind="boundary_layer", sigma=0.0,
            left=ExtendedState.from_array(U_star), right=ExtendedState.from_array(U_star),
            trajectory=traj,
            diagnostics={"amplitude": 0.0, "note": "zero amplitude, constant layer",
                         "extended_residual_max": 0.0, "extended_residual_rel": 0.0, "flux_drift": 0.0},
        )

    limit = U_star.tolist()
    zeta_star = ode.zeta_eval(limit)
    characteristic = abs(zeta_star) <= SINGULARITY_GUARD
    report = linearize(ode, U_star)
    lam = report.eigenvalues
    if characteristic:
        rates = lam  # desingularized rates, spatial rates undefined at v = 0
    else:
        rates = lam / zeta_star
    noncenter = [i for i in range(len(lam)) if i not in report.center]
    stable = sorted(
        (i for i in noncenter if rates[i].real < 0.0),
        key=lambda i: rates[i].real,
    )
    if not stable:
        raise NoDecayingDirectionError(
            f"no decaying direction at limit state (v = {limit_state.v:g}); "
            f"non-center rates: {[complex(rates[i]) for i in noncenter]}"
        )
    if not (0 <= direction_index < len(stable)):
        raise DomainError(
            f"direction_index {direction_index} out of range, {len(stable)} decaying direction(s)"
        )
    sel = stable[direction_index]
    xi = _real_unit_eigenvector(report, sel)
    rate = float(rates[sel].real)

    if characteristic:
        L = 10.0
    else:
        L = min(np.log(max(LAYER_GROW_CAP, 10 * abs(amplitude)) / abs(amplitude)) / abs(rate) * 1.5, 1e4)
    start = U_star + amplitude * xi
    cap = LAYER_GROW_CAP * max(1.0, _sup(U_star))
    if abs(amplitude) >= cap:
        raise DomainError(f"amplitude {amplitude:g} exceeds the growth cap {cap:g}")

    def stop(x, V):
        return _sup_dist(V, limit) > cap

    diagnostics: dict = {
        "amplitude": amplitude,
        "direction_index": direction_index,
        "rate": rate,
        "characteristic_limit": characteristic,
        "decaying_rates": [float(rates[i].real) for i in stable],
        "length_requested": float(L),
    }

    traj = None
    if not characteristic:
        traj = integrate_direct(ode, start, (L, 0.0), tol=opts.tol, stop_when=stop)
        diagnostics["mode"] = "direct"
        if traj.termination == TERM_SINGULARITY:
            diagnostics["direct_halt_min_abs_zeta"] = traj.stats.min_abs_zeta
            traj = None
    if traj is None:
        # sonic set on the path (or characteristic limit): desingularized sweep
        zeta_start = ode.zeta_eval(start.tolist())
        tau_dir = -1.0 if zeta_start > 0 else 1.0
        if characteristic and zeta_start == 0.0:
            tau_dir = -np.sign(rate) or -1.0
        tau_max = max(10.0 * L / max(abs(zeta_star), 0.05), 100.0)

        def stop_resc(tau, V, x):
            return x <= 0.0 or _sup_dist(V, limit) > cap

        traj = integrate_rescaled(
            ode, start, (0.0, tau_dir * tau_max), tol=opts.tol, x0=L, stop_when=stop_resc,
        )
        diagnostics["mode"] = "rescaled"
        diagnostics["zeta_sign_changes"] = traj.stats.zeta_sign_changes

    # re-anchor so the produced window starts at x = 0
    traj = _shift_x(traj, -float(np.min(traj.xs)))
    diagnostics["length_produced"] = float(np.max(traj.xs))
    diagnostics["termination"] = traj.termination
    diagnostics["min_abs_zeta"] = traj.stats.min_abs_zeta

    trace = traj.final_V
    prof = Profile(
        kind="boundary_layer", sigma=0.0,
        left=ExtendedState.from_array(trace),
        right=ExtendedState.from_array(U_star),
        trajectory=traj,
        diagnostics=diagnostics,
    )
    ext_res, skipped, f_sup = max_extended_residual(ode, traj)
    diagnostics["extended_residual_max"] = ext_res
    diagnostics["extended_residual_rel"] = _relative_residual(ext_res, f_sup)
    diagnostics["extended_residual_skipped"] = skipped
    diagnostics["flux_drift"] = flux_constants(gas, prof).drift
    return prof
