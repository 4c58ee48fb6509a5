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


@dataclass(frozen=True)
class _DenseStep:
    t0: float
    h: float
    y0: np.ndarray
    Q: np.ndarray  # (d, 4) interpolation coefficients


@dataclass
class Trajectory:
    """Sampled solution of one integration run.

    ts is the independent variable (x in direct mode, tau in rescaled
    mode) and is strictly monotone. xs is the spatial coordinate per
    sample; in rescaled mode it is recovered from dx/dtau = zeta and need
    not be monotone. taus is None in direct mode.
    """

    mode: str
    ts: np.ndarray
    Vs: np.ndarray
    xs: np.ndarray
    taus: np.ndarray | None
    termination: str
    stats: TrajectoryStats
    dense: list[_DenseStep] = field(default_factory=list, repr=False)

    @property
    def n(self) -> int:
        return len(self.ts)

    @property
    def final_V(self) -> np.ndarray:
        return self.Vs[-1]

    def eval(self, t: float) -> np.ndarray:
        """Dense-output value of the integrated vector at independent t.

        In rescaled mode the integrated vector is (V, x), so the last
        component is the spatial coordinate.
        """
        if not self.dense:
            raise ValueError("trajectory carries no dense output")
        lo, hi = self.ts[0], self.ts[-1]
        fwd = hi >= lo
        if not (min(lo, hi) - 1e-12 <= t <= max(lo, hi) + 1e-12):
            raise ValueError(f"t={t} outside the covered span [{lo}, {hi}]")
        steps = self.dense
        # binary search over steps, ordered along the integration direction
        a, b = 0, len(steps) - 1
        while a < b:
            m = (a + b) // 2
            t_end = steps[m].t0 + steps[m].h
            if (t_end < t) if fwd else (t_end > t):
                a = m + 1
            else:
                b = m
        st = steps[a]
        theta = (t - st.t0) / st.h
        theta = min(max(theta, 0.0), 1.0)
        powers = np.array([theta, theta ** 2, theta ** 3, theta ** 4])
        return st.y0 + st.h * (st.Q @ powers)

    def eval_V(self, t: float) -> np.ndarray:
        y = self.eval(t)
        return y[:-1] if self.mode == "rescaled" else y

    def eval_x(self, t: float) -> float:
        if self.mode == "rescaled":
            return float(self.eval(t)[-1])
        return float(t)


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
    dense: list[_DenseStep] = []
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
        dense.append(_DenseStep(t0=t, h=direction * h, y0=y.copy(), Q=K.T @ _P))
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

    return np.array(ts), np.array(ys), dense, n_acc, n_rej, n_fev[0], termination, h


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
        termination=termination, stats=stats, dense=dense,
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
        termination=termination, stats=stats, dense=dense,
    )


def resample_by_x(traj: Trajectory, xs: Sequence[float]) -> np.ndarray:
    """Evaluate a trajectory at given spatial points via its dense output.

    Rescaled trajectories must have strictly monotone x for the
    reparametrization to be well defined.
    """
    xs = np.asarray(xs, dtype=float)
    if traj.mode == "direct":
        return np.array([traj.eval_V(x) for x in xs])
    dx = np.diff(traj.xs)
    if not (np.all(dx > 0) or np.all(dx < 0)):
        raise NonMonotoneError("x is not strictly monotone along the trajectory")
    from scipy.optimize import brentq

    out = np.empty((len(xs), traj.Vs.shape[1]))
    for i, x_t in enumerate(xs):
        lo, hi = sorted((traj.xs[0], traj.xs[-1]))
        if not (lo - 1e-12 <= x_t <= hi + 1e-12):
            raise ValueError(f"x={x_t} outside the covered range [{lo}, {hi}]")
        j = int(np.searchsorted(traj.xs, x_t) if dx[0] > 0 else np.searchsorted(-traj.xs, -x_t))
        j = min(max(j, 1), traj.n - 1)
        ta, tb = traj.ts[j - 1], traj.ts[j]
        fa = traj.eval_x(ta) - x_t
        if abs(fa) < 1e-14:
            tau_star = ta
        else:
            tau_star = brentq(lambda s: traj.eval_x(s) - x_t, ta, tb, xtol=1e-15, rtol=8.9e-16)
        out[i] = traj.eval_V(tau_star)
    return out


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
