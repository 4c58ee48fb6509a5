"""Adaptive integration of singular ODEs dV/dx = F(V)/zeta(V).

Two modes share one embedded Dormand-Prince 5(4) stepper:

* direct: integrate F/zeta in x, refusing to touch the singular set.
  The run halts with ``singularity_approached`` once an accepted step
  endpoint has |zeta| <= DELTA, and steps that would cross zeta = 0 are
  rejected outright.
* rescaled: integrate the desingularized system dV/dtau = F(V),
  dx/dtau = zeta(V). The vector field is regular, so the trajectory can
  pass near (or along) the sonic set; x is recovered per sample.

Both modes run through one stepping loop, `_run`, which detects
equilibria (|F| below EQUILIBRIUM_TOL for several accepted steps in a
row), records step statistics, and keeps a dense interpolant so
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
REL_FLOOR = 1e-12  # the relative error tolerance is max(tol, REL_FLOOR)
DELTA = 1e-6  # direct mode halts once |zeta| <= DELTA at an accepted endpoint
EQUILIBRIUM_TOL = 1e-12
EQUILIBRIUM_DWELL = 5
DEFAULT_MAX_STEPS = 500_000

# Dormand-Prince 5(4) tableau (the fields are autonomous, so the nodes c
# are not needed). The error row is b5 - b4, the dense-output matrix P
# is the standard quartic continuous extension for this pair.
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


def _error_norm(err: np.ndarray, y0: np.ndarray, y1: np.ndarray, tol: float) -> float:
    rtol = max(tol, REL_FLOOR)
    scale = tol + rtol * np.maximum(np.abs(y0), np.abs(y1))
    return float(np.sqrt(np.mean((err / scale) ** 2)))


def _initial_step(stage, y0, f0, direction, span, tol):
    """Deterministic starting step, the classic two-evaluation heuristic."""
    rtol = max(tol, REL_FLOOR)
    scale = tol + rtol * np.abs(y0)
    d0 = float(np.sqrt(np.mean((y0 / scale) ** 2)))
    d1 = float(np.sqrt(np.mean((f0 / scale) ** 2)))
    if d0 < 1e-5 or d1 < 1e-5:
        h0 = 1e-6
    else:
        h0 = 0.01 * d0 / d1
    h0 = min(h0, span) or span
    probe = stage(y0 + direction * h0 * f0)
    if probe is None or not np.all(np.isfinite(probe[0])):
        return max(min(h0 * 1e-3, span), 1e-12)
    d2 = float(np.sqrt(np.mean(((probe[0] - f0) / scale) ** 2))) / h0
    if max(d1, d2) <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** _ORDER_EXP
    return min(100 * h0, h1, span)


def _dp54_step(stage, y, h, k0):
    """One embedded step from y with k0, the right-hand side at y, already known.

    Returns (y_new, err_vec, K, F, zeta) or None when a stage is unusable
    or the result is not finite. The last stage K[6] is the right-hand
    side at y_new, the next step's k0 (first same as last), and (F, zeta)
    is the pair it came from.
    """
    K = np.empty((7, y.size))
    K[0] = k0
    for i in range(1, 7):
        yi = y + h * (_A[i] @ K[:i])
        r = stage(yi)
        if r is None:
            return None
        K[i] = r[0]
    # _A[6] is the fifth-order weight row, so the last stage point yi is y_new
    err = h * (_E @ K)
    if not (np.all(np.isfinite(yi)) and np.all(np.isfinite(err))):
        return None
    return yi, err, K, r[1], r[2]


def _run(rhs, t0: float, y0: np.ndarray, t_end: float, tol: float, max_steps: int, stop_when, guard_sign):
    """Adaptive DP5(4) loop shared by the direct and the rescaled mode.

    rhs(y) returns (k, F, zeta), the right-hand side being stepped and
    the pair it came from, or None where it is unusable. Every call is
    one evaluation, the first one at y0 included. A step is rejected
    (and halved) when a stage is unusable or not finite, which covers a
    non-finite (F, zeta) pair at its end.

    guard_sign is the sign of zeta(y0) in direct mode and None in
    rescaled mode. With it, a step whose end has zeta of the opposite
    sign is rejected and halved, and the run halts with
    ``singularity_approached`` at the first accepted endpoint with
    |zeta| <= DELTA. In both modes the run records min |zeta| and the
    sign changes of zeta over the accepted endpoints, and halts with
    ``converged_to_equilibrium`` once |F| < EQUILIBRIUM_TOL at
    EQUILIBRIUM_DWELL endpoints in a row (the start counts).

    Returns the samples of t and y and the remaining `Trajectory` fields
    (termination, stats and the dense output) as a dict.
    """
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
    h = _initial_step(stage, y0, k0, direction, span, tol)
    min_zeta = abs(z)
    last_sign = np.sign(z)
    sign_changes = 0
    dwell = 1 if float(np.max(np.abs(F))) < EQUILIBRIUM_TOL else 0

    ts = [t0]
    ys = [y0]
    hs: list[float] = []
    Ks: list[np.ndarray] = []
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
        result = _dp54_step(stage, y, direction * h, k0)
        if result is not None:
            y_new, err, K, F, z = result
            enorm = _error_norm(err, y, y_new, tol)
            if enorm > 1.0:
                n_rej += 1
                h *= max(_FAC_MIN, _SAFETY * enorm ** -_ORDER_EXP)
                continue
        # an unusable step, or one that jumped across the singular set
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
    stats = TrajectoryStats(
        n_accepted=n_acc, n_rejected=n_rej, n_fevals=n_fev,
        min_abs_zeta=min_zeta, zeta_sign_changes=sign_changes, h_final=h,
    )
    common = dict(termination=termination, stats=stats, t0s=ts_arr[:-1], hs=np.array(hs), y0s=ys_arr[:-1], Q=Q)
    return ts_arr, ys_arr, common


def integrate_direct(
    ode: SingularODE,
    V0: np.ndarray,
    x_span: tuple[float, float],
    tol: float = DEFAULT_TOL,
    max_steps: int = DEFAULT_MAX_STEPS,
    stop_when: Callable[[float, np.ndarray], bool] | None = None,
) -> Trajectory:
    """Integrate dV/dx = F(V)/zeta(V) over x_span.

    Halts with ``singularity_approached`` at the first accepted endpoint
    with |zeta| <= DELTA; steps that would change the sign of zeta are
    rejected, so the singular set is approached from one side only.
    Equilibria (|F| < EQUILIBRIUM_TOL over several consecutive accepted
    steps) halt the run with ``converged_to_equilibrium``.
    """
    V0 = np.asarray(V0, dtype=float)
    z0 = ode.zeta_eval(V0)
    if abs(z0) <= DELTA:
        raise SingularityError(f"initial point has |zeta| = {abs(z0):.3e} <= delta = {DELTA:g}")

    def rhs(V):
        try:
            z = ode.zeta_eval(V)
            if z == 0.0 or not np.isfinite(z):
                return None
            F = ode.F_eval(V)
            return F / z, F, z
        except (DomainError, ZeroDivisionError, OverflowError):
            return None

    ts, Vs, common = _run(
        rhs, float(x_span[0]), V0, float(x_span[1]), tol, max_steps, stop_when, 1.0 if z0 > 0 else -1.0,
    )
    return Trajectory(mode="direct", ts=ts, Vs=Vs, xs=ts, taus=None, **common)


def integrate_rescaled(
    ode: SingularODE,
    V0: np.ndarray,
    tau_span: tuple[float, float],
    tol: float = DEFAULT_TOL,
    x0: float = 0.0,
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

    def rhs(y):
        try:
            V = y[:-1]
            F = ode.F_eval(V)
            z = ode.zeta_eval(V)
            return np.append(F, z), F, z
        except (DomainError, ZeroDivisionError, OverflowError):
            return None

    def stop(tau, y):
        return bool(stop_when(tau, y[:-1], float(y[-1])))

    ts, ys, common = _run(
        rhs, float(tau_span[0]), np.append(V0, float(x0)), float(tau_span[1]), tol, max_steps,
        stop if stop_when is not None else None, None,
    )
    return Trajectory(mode="rescaled", ts=ts, Vs=ys[:, :-1], xs=ys[:, -1], taus=ts, **common)


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

    Directions are classified against the real-part threshold
    CENTER_THRESHOLD: stable, unstable, and center index tuples partition
    range(dim). Eigenvectors are columns of ``eigenvectors``.
    """

    point: np.ndarray
    J: np.ndarray
    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    stable: tuple[int, ...]
    unstable: tuple[int, ...]
    center: tuple[int, ...]


CENTER_THRESHOLD = 1e-7
FD_STEP = 1e-6


def linearize(ode: SingularODE, V0: np.ndarray) -> LinearizationReport:
    """Central-difference Jacobian of F at V0 (step FD_STEP) with eigen classification."""
    V0 = np.asarray(V0, dtype=float)
    d = V0.size
    J = np.empty((d, d))
    for j in range(d):
        dv = np.zeros(d)
        dv[j] = FD_STEP
        J[:, j] = (ode.F_eval(V0 + dv) - ode.F_eval(V0 - dv)) / (2.0 * FD_STEP)
    lam, vecs = np.linalg.eig(J)
    stable = tuple(i for i in range(d) if lam[i].real < -CENTER_THRESHOLD)
    unstable = tuple(i for i in range(d) if lam[i].real > CENTER_THRESHOLD)
    center = tuple(i for i in range(d) if abs(lam[i].real) <= CENTER_THRESHOLD)
    return LinearizationReport(
        point=V0.copy(), J=J, eigenvalues=lam, eigenvectors=vecs,
        stable=stable, unstable=unstable, center=center,
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
