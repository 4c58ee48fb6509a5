"""Adaptive integration of singular ODEs dV/dx = F(V)/zeta(V).

Two modes share one embedded Dormand-Prince 5(4) stepper:

* direct: integrate F/zeta in x, refusing to touch the singular set.
  The run halts with ``singularity_approached`` once an accepted step
  endpoint has |zeta| <= delta, and steps that would cross zeta = 0 are
  rejected outright.
* rescaled: integrate the desingularized system dV/dtau = F(V),
  dx/dtau = zeta(V). The vector field is regular, so the trajectory can
  pass near (or along) the sonic set; x is recovered per sample.

Both modes detect equilibria (|F| below a tolerance for several accepted
steps in a row), record step statistics, and keep a dense interpolant so
trajectories can be resampled at arbitrary points of the independent
variable without re-integration. All arithmetic is plain sequential
double precision, so identical inputs reproduce trajectories bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .errors import DomainError, NonMonotoneError, SingularityError, StepFailureError
from .reduction import SingularODE

TERM_REACHED_END = "reached_end"
TERM_SINGULARITY = "singularity_approached"
TERM_EQUILIBRIUM = "converged_to_equilibrium"
TERM_STEP_FAILURE = "step_failure"
TERM_STOPPED = "stopped"

DEFAULT_TOL = 1e-10
DEFAULT_REL_FLOOR = 1e-12
DEFAULT_DELTA = 1e-6
EQUILIBRIUM_TOL = 1e-12
EQUILIBRIUM_DWELL = 5
DEFAULT_MAX_STEPS = 500_000

# Dormand-Prince 5(4) tableau. The error row is b5 - b4, the dense-output
# matrix P is the standard quartic continuous extension for this pair.
_C = np.array([0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0])
_A = [
    np.array([]),
    np.array([1 / 5]),
    np.array([3 / 40, 9 / 40]),
    np.array([44 / 45, -56 / 15, 32 / 9]),
    np.array([19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729]),
    np.array([9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656]),
    np.array([35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84]),
]
_B = np.array([35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84, 0.0])
_E = np.array([
    71 / 57600, 0.0, -71 / 16695, 71 / 1920, -17253 / 339200, 22 / 525, -1 / 40,
])
_P = np.array([
    [1.0, -8048581381 / 2820520608, 8663915743 / 2820520608, -12715105075 / 11282082432],
    [0.0, 0.0, 0.0, 0.0],
    [0.0, 131558114200 / 32700410799, -68118460800 / 10900136933, 87487479700 / 32700410799],
    [0.0, -1754552775 / 470086768, 14199869525 / 1410260304, -10690763975 / 1880347072],
    [0.0, 127303824393 / 49829197408, -318862633887 / 49829197408, 701980252875 / 199316789632],
    [0.0, -282668133 / 205662961, 2019193451 / 616988883, -1453857185 / 822651844],
    [0.0, 40617522 / 29380423, -110615467 / 29380423, 69997945 / 29380423],
])

_SAFETY = 0.9
_FAC_MIN = 0.2
_FAC_MAX = 5.0
_ORDER_EXP = 0.2  # 1/5 for the embedded pair


@dataclass(frozen=True)
class TrajectoryStats:
    """Bookkeeping of one integration run."""

    n_accepted: int
    n_rejected: int
    n_fevals: int
    min_abs_zeta: float
    zeta_sign_changes: int
    h_final: float


_MAX_INVERT_ITER = 60  # bisection alone shrinks [0, 1] to round-off in 53 rounds


def _quartic(q: np.ndarray, theta):
    """q1 theta + q2 theta^2 + q3 theta^3 + q4 theta^4 and its theta-derivative.

    q holds (q1, q2, q3, q4) along its last axis; theta broadcasts against
    the other axes.
    """
    q1, q2, q3, q4 = np.moveaxis(q, -1, 0)
    value = theta * (q1 + theta * (q2 + theta * (q3 + theta * q4)))
    return value, q1 + theta * (2.0 * q2 + theta * (3.0 * q3 + theta * 4.0 * q4))


@dataclass
class Trajectory:
    """Sampled solution of one integration run, with its dense output.

    ts is the independent variable (x in direct mode, tau in rescaled
    mode) and is strictly monotone. xs is the spatial coordinate per
    sample; in rescaled mode it is recovered from dx/dtau = zeta and need
    not be monotone. taus is None in direct mode.

    The dense output is the quartic continuous extension of each
    accepted step i: y(t0s[i] + theta hs[i]) = y0s[i] + hs[i] Q[i] @
    (theta, theta^2, theta^3, theta^4) for theta in [0, 1], where y is
    the integrated vector (V in direct mode, (V, x) in rescaled mode).
    """

    mode: str
    ts: np.ndarray
    Vs: np.ndarray
    xs: np.ndarray
    taus: np.ndarray | None
    termination: str
    stats: TrajectoryStats
    t0s: np.ndarray = field(repr=False)  # (n - 1,) step start points
    hs: np.ndarray = field(repr=False)  # (n - 1,) signed step sizes
    y0s: np.ndarray = field(repr=False)  # (n - 1, d) integrated vector at step starts
    Q: np.ndarray = field(repr=False)  # (n - 1, d, 4) interpolation coefficients

    @property
    def n(self) -> int:
        return len(self.ts)

    @property
    def final_V(self) -> np.ndarray:
        return self.Vs[-1]

    def step_eval(self, i, theta) -> tuple[np.ndarray, np.ndarray]:
        """Dense output y and its derivative dy/dt in steps i at fractions theta."""
        p, dp = _quartic(self.Q[i], np.asarray(theta, dtype=float)[..., None])
        return self.y0s[i] + self.hs[i][..., None] * p, dp

    def eval(self, t) -> np.ndarray:
        """Dense-output value of the integrated vector at independent t.

        t may be a scalar or an array; the result gains a last axis of
        the state dimension. In rescaled mode the integrated vector is
        (V, x), so the last component is the spatial coordinate.
        """
        if self.hs.size == 0:
            raise ValueError("trajectory carries no dense output")
        t = np.asarray(t, dtype=float)
        lo, hi = sorted((self.ts[0], self.ts[-1]))
        if np.any((t < lo - 1e-12) | (t > hi + 1e-12)):
            raise ValueError(f"t={t} outside the covered span [{lo}, {hi}]")
        # first step whose end reaches t, along the integration direction
        sgn = 1.0 if self.hs[0] > 0 else -1.0
        i = np.minimum(np.searchsorted(sgn * self.ts[1:], sgn * t), self.hs.size - 1)
        theta = np.clip((t - self.t0s[i]) / self.hs[i], 0.0, 1.0)
        return self.step_eval(i, theta)[0]

    def eval_V(self, t) -> np.ndarray:
        y = self.eval(t)
        return y[..., :-1] if self.mode == "rescaled" else y

    def eval_x(self, t):
        if self.mode == "rescaled":
            return self.eval(t)[..., -1]
        return t

    def eval_where(self, j: int, values) -> np.ndarray:
        """Dense-output integrated vectors where component j equals each value.

        Component j must be strictly monotone over the samples. Each value
        is bracketed between two samples, and the t inside that step where
        the quartic takes the value is found by Newton's method, falling
        back to bisection whenever a Newton iterate leaves the bracket; the
        iteration stops once the residual is at round-off level. Returns
        an array of shape values.shape + (d,).
        """
        c = np.asarray(values, dtype=float)
        nodes = self.Vs if self.mode == "direct" else np.column_stack([self.Vs, self.xs])
        s = nodes[:, j]
        d = np.diff(s)
        if s.size < 2 or not (np.all(d > 0) or np.all(d < 0)):
            raise NonMonotoneError(f"component {j} is not strictly monotone along the trajectory")
        lo, hi = sorted((s[0], s[-1]))
        if np.any((c < lo - 1e-12) | (c > hi + 1e-12)):
            raise ValueError(f"value outside the covered range [{lo}, {hi}]")
        # orient so that f(theta) = sgn (y_j(theta) - c) increases along each step
        sgn = 1.0 if d[0] > 0 else -1.0
        i = np.clip(np.searchsorted(sgn * s, sgn * c, side="right") - 1, 0, d.size - 1)
        y0, h, q = self.y0s[i, j], self.hs[i], self.Q[i, j]
        tol = 4.0 * np.finfo(float).eps * float(np.max(np.abs(s)))
        a, b = np.zeros_like(c), np.ones_like(c)
        theta = np.clip((c - s[i]) / d[i], 0.0, 1.0)
        for _ in range(_MAX_INVERT_ITER):
            p, dp = _quartic(q, theta)
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
        return self.step_eval(i, theta)[0]


def _error_norm(err: np.ndarray, y0: np.ndarray, y1: np.ndarray, tol: float, rel_floor: float) -> float:
    rtol = max(tol, rel_floor)
    scale = tol + rtol * np.maximum(np.abs(y0), np.abs(y1))
    return float(np.sqrt(np.mean((err / scale) ** 2)))


def _initial_step(f, t0, y0, f0, direction, t_end, tol, rel_floor):
    """Deterministic starting step, the classic two-evaluation heuristic."""
    rtol = max(tol, rel_floor)
    scale = tol + rtol * np.abs(y0)
    d0 = float(np.sqrt(np.mean((y0 / scale) ** 2)))
    d1 = float(np.sqrt(np.mean((f0 / scale) ** 2)))
    if d0 < 1e-5 or d1 < 1e-5:
        h0 = 1e-6
    else:
        h0 = 0.01 * d0 / d1
    h0 = min(h0, abs(t_end - t0)) or abs(t_end - t0)
    y1 = y0 + direction * h0 * f0
    f1 = f(t0 + direction * h0, y1)
    if f1 is None or not np.all(np.isfinite(f1)):
        return max(min(h0 * 1e-3, abs(t_end - t0)), 1e-12)
    d2 = float(np.sqrt(np.mean(((f1 - f0) / scale) ** 2))) / h0
    if max(d1, d2) <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** _ORDER_EXP
    return min(100 * h0, h1, abs(t_end - t0))


def _dp54_step(f, t, y, h, k0):
    """One embedded step from (t, y) with k0 = f(t, y) already known.

    Returns (y_new, err_vec, K) or None on a bad stage. The last stage
    K[6] = f(t + h, y_new) is the next step's k0 (first same as last).
    """
    K = np.empty((7, y.size))
    K[0] = k0
    for i in range(1, 6):
        yi = y + h * (_A[i] @ K[:i])
        ki = f(t + _C[i] * h, yi)
        if ki is None:
            return None
        K[i] = ki
    y_new = y + h * (_A[6] @ K[:6])
    k6 = f(t + h, y_new)
    if k6 is None:
        return None
    K[6] = k6
    err = h * (_E @ K)
    if not (np.all(np.isfinite(y_new)) and np.all(np.isfinite(err))):
        return None
    return y_new, err, K


def _run(
    f,
    t0: float,
    y0: np.ndarray,
    t_end: float,
    tol: float,
    rel_floor: float,
    max_steps: int,
    accept_hook,
    stop_when,
    f0: np.ndarray,
):
    """Shared adaptive loop; mode-specific behavior lives in the hooks.

    f(t, y) returns the RHS or None for an unusable stage; f0 = f(t0, y0)
    comes from the caller, which has evaluated it already, and counts as
    one evaluation. accept_hook is called with (t_new, y_new, k_new),
    where k_new = f(t_new, y_new) is the step's last stage and the last
    call to f, before the step is committed. It may veto the step
    (forcing a halved retry) or request a halt; it returns one of
    "accept", "reject", or a termination string.
    """
    if t_end == t0:
        raise DomainError("integration span is empty")
    direction = 1.0 if t_end > t0 else -1.0
    n_fev = [1]

    def fc(t, y):
        n_fev[0] += 1
        return f(t, y)

    if not np.all(np.isfinite(f0)):
        raise DomainError("right-hand side not finite at the initial point")
    h = _initial_step(fc, t0, y0, f0, direction, t_end, tol, rel_floor)

    ts = [t0]
    ys = [y0.copy()]
    hs: list[float] = []
    Ks: list[np.ndarray] = []
    n_acc = n_rej = 0
    termination = TERM_REACHED_END

    t, y, k0 = t0, y0.copy(), f0
    steps = 0
    while steps < max_steps:
        steps += 1
        h = min(h, abs(t_end - t))
        if h <= abs(t) * 1e-16 + 1e-300:
            termination = TERM_STEP_FAILURE
            break
        result = _dp54_step(fc, t, y, direction * h, k0)
        if result is None:
            n_rej += 1
            h *= 0.5
            continue
        y_new, err, K = result
        enorm = _error_norm(err, y, y_new, tol, rel_floor)
        if enorm > 1.0:
            n_rej += 1
            h *= max(_FAC_MIN, _SAFETY * enorm ** -_ORDER_EXP)
            continue
        verdict = accept_hook(t + direction * h, y_new, K[6])
        if verdict == "reject":
            n_rej += 1
            h *= 0.5
            continue
        t_new = t + direction * h
        hs.append(direction * h)
        Ks.append(K)
        ts.append(t_new)
        ys.append(y_new.copy())
        n_acc += 1
        t, y, k0 = t_new, y_new, K[6]
        if verdict not in ("accept",):
            termination = verdict
            break
        if stop_when is not None and stop_when(t, y):
            termination = TERM_STOPPED
            break
        if abs(t - t_end) <= 1e-14 * max(abs(t), abs(t_end), 1.0):
            termination = TERM_REACHED_END
            break
        if enorm == 0.0:
            h *= _FAC_MAX
        else:
            h *= min(_FAC_MAX, max(_FAC_MIN, _SAFETY * enorm ** -_ORDER_EXP))
    else:
        raise StepFailureError(f"step budget {max_steps} exhausted")

    ts_arr, ys_arr = np.array(ts), np.array(ys)
    # dense output of every accepted step, Q[i] = K[i]^T P
    Q = np.array(Ks).reshape(-1, 7, y0.size).transpose(0, 2, 1) @ _P
    dense = dict(t0s=ts_arr[:-1], hs=np.array(hs), y0s=ys_arr[:-1], Q=Q)
    return ts_arr, ys_arr, dense, n_acc, n_rej, n_fev[0], termination, h


def integrate_direct(
    ode: SingularODE,
    V0: np.ndarray,
    x_span: tuple[float, float],
    tol: float = DEFAULT_TOL,
    delta: float = DEFAULT_DELTA,
    rel_floor: float = DEFAULT_REL_FLOOR,
    tol_eq: float = EQUILIBRIUM_TOL,
    max_steps: int = DEFAULT_MAX_STEPS,
    stop_when: Callable[[float, np.ndarray], bool] | None = None,
) -> Trajectory:
    """Integrate dV/dx = F(V)/zeta(V) over x_span.

    Halts with ``singularity_approached`` when an accepted endpoint has
    |zeta| <= delta; steps that would change the sign of zeta are
    rejected, so the singular set is approached from one side only.
    Equilibria (|F| < tol_eq over several consecutive accepted steps)
    halt the run with ``converged_to_equilibrium``.
    """
    V0 = np.asarray(V0, dtype=float)
    z0 = ode.zeta_eval(V0)
    if not np.isfinite(z0):
        raise DomainError("zeta not finite at the initial point")
    if abs(z0) <= delta:
        raise SingularityError(
            f"initial point has |zeta| = {abs(z0):.3e} <= delta = {delta:g}"
        )
    sign0 = 1.0 if z0 > 0 else -1.0
    min_zeta = [abs(z0)]
    F0 = ode.F_eval(V0)
    eq_count = [1 if float(np.max(np.abs(F0))) < tol_eq else 0]
    # (F, zeta) of the last usable evaluation; F/zeta does not give F back
    # bit for bit, so the accept hook reads the pair stored here
    last = [None]

    def rhs(x, V):
        try:
            z = ode.zeta_eval(V)
            if z == 0.0 or not np.isfinite(z):
                return None
            Fv = ode.F_eval(V)
            last[0] = (Fv, z)
            return Fv / z
        except (DomainError, ZeroDivisionError, OverflowError):
            return None

    def accept_hook(x, V, k):
        Fv, z = last[0]  # evaluated at V by the step's last stage
        if not np.isfinite(z) or not np.all(np.isfinite(Fv)):
            return "reject"
        if z != 0.0 and (1.0 if z > 0 else -1.0) != sign0:
            return "reject"  # refuse to jump across the singular set
        min_zeta[0] = min(min_zeta[0], abs(z))
        if abs(z) <= delta:
            return TERM_SINGULARITY
        if float(np.max(np.abs(Fv))) < tol_eq:
            eq_count[0] += 1
            if eq_count[0] >= EQUILIBRIUM_DWELL:
                return TERM_EQUILIBRIUM
        else:
            eq_count[0] = 0
        return "accept"

    ts, ys, dense, n_acc, n_rej, n_fev, termination, h = _run(
        rhs, float(x_span[0]), V0, float(x_span[1]), tol, rel_floor, max_steps,
        accept_hook, stop_when, F0 / z0,
    )
    stats = TrajectoryStats(
        n_accepted=n_acc,
        n_rejected=n_rej,
        n_fevals=n_fev,
        min_abs_zeta=min_zeta[0],
        zeta_sign_changes=0,
        h_final=h,
    )
    return Trajectory(
        mode="direct", ts=ts, Vs=ys, xs=ts, taus=None,
        termination=termination, stats=stats, **dense,
    )


def integrate_rescaled(
    ode: SingularODE,
    V0: np.ndarray,
    tau_span: tuple[float, float],
    tol: float = DEFAULT_TOL,
    x0: float = 0.0,
    rel_floor: float = DEFAULT_REL_FLOOR,
    tol_eq: float = EQUILIBRIUM_TOL,
    max_steps: int = DEFAULT_MAX_STEPS,
    stop_when: Callable[[float, np.ndarray, float], bool] | None = None,
) -> Trajectory:
    """Integrate the desingularized system dV/dtau = F, dx/dtau = zeta.

    The augmented state is (V, x). There is no singularity to guard, so
    the trajectory may approach or touch the sonic set; sign changes of
    zeta along the samples are counted in the stats. ``stop_when``
    receives (tau, V, x), one argument more than in direct mode, since x
    is itself integrated here.
    """
    V0 = np.asarray(V0, dtype=float)
    y0 = np.append(V0, float(x0))
    z_init = ode.zeta_eval(V0)
    min_zeta = [abs(z_init)]
    sign_changes = [0]
    last_sign = [np.sign(z_init)]
    F0 = ode.F_eval(V0)
    eq_count = [1 if float(np.max(np.abs(F0))) < tol_eq else 0]

    def rhs(tau, y):
        try:
            V = y[:-1]
            return np.append(ode.F_eval(V), ode.zeta_eval(V))
        except (DomainError, ZeroDivisionError, OverflowError):
            return None

    def accept_hook(tau, y, k):
        Fv, z = k[:-1], float(k[-1])  # the last stage is (F, zeta) at y
        if not np.isfinite(z) or not np.all(np.isfinite(Fv)):
            return "reject"
        min_zeta[0] = min(min_zeta[0], abs(z))
        s = np.sign(z)
        if s != 0.0 and last_sign[0] != 0.0 and s != last_sign[0]:
            sign_changes[0] += 1
        if s != 0.0:
            last_sign[0] = s
        if float(np.max(np.abs(Fv))) < tol_eq:
            eq_count[0] += 1
            if eq_count[0] >= EQUILIBRIUM_DWELL:
                return TERM_EQUILIBRIUM
        else:
            eq_count[0] = 0
        return "accept"

    def stop(tau, y):
        return bool(stop_when(tau, y[:-1], float(y[-1]))) if stop_when is not None else False

    ts, ys, dense, n_acc, n_rej, n_fev, termination, h = _run(
        rhs, float(tau_span[0]), y0, float(tau_span[1]), tol, rel_floor, max_steps,
        accept_hook, stop if stop_when is not None else None, np.append(F0, z_init),
    )
    stats = TrajectoryStats(
        n_accepted=n_acc,
        n_rejected=n_rej,
        n_fevals=n_fev,
        min_abs_zeta=min_zeta[0],
        zeta_sign_changes=sign_changes[0],
        h_final=h,
    )
    return Trajectory(
        mode="rescaled", ts=ts, Vs=ys[:, :-1], xs=ys[:, -1], taus=ts,
        termination=termination, stats=stats, **dense,
    )


def resample_by_x(traj: Trajectory, xs: Sequence[float]) -> np.ndarray:
    """Evaluate a trajectory at given spatial points via its dense output.

    Rescaled trajectories must have strictly monotone x for the
    reparametrization to be well defined; the tau of each point is found
    by `Trajectory.eval_where` on the x component.
    """
    xs = np.asarray(xs, dtype=float)
    if traj.mode == "direct":
        return traj.eval_V(xs)
    return traj.eval_where(-1, xs)[..., :-1]


@dataclass(frozen=True)
class LinearizationReport:
    """Eigen-decomposition of the desingularized field at one point.

    Directions are classified against a real-part threshold: stable,
    unstable, and center index tuples partition range(dim). Eigenvectors
    are columns of ``eigenvectors``.
    """

    point: np.ndarray
    J: np.ndarray
    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    stable: tuple[int, ...]
    unstable: tuple[int, ...]
    center: tuple[int, ...]
    h: float
    threshold: float


CENTER_THRESHOLD = 1e-7


def linearize(
    ode: SingularODE,
    V0: np.ndarray,
    h: float = 1e-6,
    threshold: float = CENTER_THRESHOLD,
) -> LinearizationReport:
    """Central-difference Jacobian of F at V0 with eigen classification."""
    if not (h > 0.0):
        raise DomainError(f"finite-difference step must be positive, got {h}")
    V0 = np.asarray(V0, dtype=float)
    d = V0.size
    J = np.empty((d, d))
    for j in range(d):
        dv = np.zeros(d)
        dv[j] = h
        J[:, j] = (ode.F_eval(V0 + dv) - ode.F_eval(V0 - dv)) / (2.0 * h)
    lam, vecs = np.linalg.eig(J)
    stable = tuple(i for i in range(d) if lam[i].real < -threshold)
    unstable = tuple(i for i in range(d) if lam[i].real > threshold)
    center = tuple(i for i in range(d) if abs(lam[i].real) <= threshold)
    return LinearizationReport(
        point=V0.copy(), J=J, eigenvalues=lam, eigenvectors=vecs,
        stable=stable, unstable=unstable, center=center, h=h, threshold=threshold,
    )


CSV_HEADER = "x,tau,rho,v,theta,z1,z2"


def trajectory_to_csv(traj: Trajectory) -> str:
    """Fixed-column CSV rendering of a 5-dimensional trajectory.

    Floats are written with repr (shortest round-trip form), which keeps
    reruns byte-identical. The tau column is empty in direct mode.
    """
    if traj.Vs.shape[1] != 5:
        raise ValueError("CSV export expects the 5-dimensional extended state")
    lines = [CSV_HEADER]
    for i in range(traj.n):
        tau_txt = repr(float(traj.taus[i])) if traj.taus is not None else ""
        row = [repr(float(traj.xs[i])), tau_txt]
        row.extend(repr(float(v)) for v in traj.Vs[i])
        lines.append(",".join(row))
    return "\n".join(lines) + "\n"


def trajectory_metadata(traj: Trajectory, tol: float | None = None) -> dict:
    """JSON-ready metadata of a run (termination, stats, extents)."""
    meta = {
        "mode": traj.mode,
        "termination": traj.termination,
        "n_samples": traj.n,
        "t_first": float(traj.ts[0]),
        "t_last": float(traj.ts[-1]),
        "x_first": float(traj.xs[0]),
        "x_last": float(traj.xs[-1]),
        "stats": {
            "n_accepted": traj.stats.n_accepted,
            "n_rejected": traj.stats.n_rejected,
            "n_fevals": traj.stats.n_fevals,
            "min_abs_zeta": traj.stats.min_abs_zeta,
            "zeta_sign_changes": traj.stats.zeta_sign_changes,
            "h_final": traj.stats.h_final,
        },
    }
    if tol is not None:
        meta["tol"] = tol
    return meta
