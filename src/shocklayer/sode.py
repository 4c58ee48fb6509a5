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
variable without re-integration.

The loop steps on lists of Python floats, with no numpy or BLAS call
between two right-hand side evaluations: F, zeta and ``stop_when`` are
handed the stage lists themselves (see `SingularODE`), and only the
start V0 and the finished trajectory are arrays. Every stage
combination, the error estimate and the error norm are summed left to
right in tableau order, one rounded multiply and add at a time (CPython
never fuses them), and the dense output is an elementwise sum over the
seven stages. So a trajectory does not depend on the BLAS kernel or on
the machine's fused multiply-add, and identical inputs reproduce it bit
for bit wherever F and zeta do.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from math import isfinite, sqrt
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
MAX_STEPS = 500_000  # step attempts per run, read when a run starts

# Dormand-Prince 5(4) tableau, unrolled as in DOPRI5 (Hairer, Norsett &
# Wanner, Solving ODEs I, II.5). The fields are autonomous, so the nodes c
# are not needed. The seventh stage is taken at the fifth-order solution,
# so its row a7j is the weight row b; a72, b2 and e2 are zero and left
# out. The error row is e = b5 - b4, and the dense-output matrix P is the
# standard quartic continuous extension for this pair.
_A21 = 1 / 5
_A31, _A32 = 3 / 40, 9 / 40
_A41, _A42, _A43 = 44 / 45, -56 / 15, 32 / 9
_A51, _A52, _A53, _A54 = 19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729
_A61, _A62, _A63, _A64, _A65 = 9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656
_A71, _A73, _A74, _A75, _A76 = 35 / 384, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84
_E1, _E3, _E4, _E5, _E6, _E7 = 71 / 57600, -71 / 16695, 71 / 1920, -17253 / 339200, 22 / 525, -1 / 40
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
    mode) and is strictly monotone. ys holds the integrated vector per
    sample: V in direct mode, (V, x) in rescaled mode, where x is
    recovered from dx/dtau = zeta and need not be monotone. Vs, xs and
    taus are views of these arrays; taus is None in direct mode.

    The dense output is the quartic continuous extension of each
    accepted step i: y(t0s[i] + theta hs[i]) = y0s[i] + hs[i] Q[i] @
    (theta, theta^2, theta^3, theta^4) for theta in [0, 1], where t0s
    and y0s are the samples at the step starts, ts[:-1] and ys[:-1].
    """

    mode: str
    ts: np.ndarray
    ys: np.ndarray
    termination: str
    stats: TrajectoryStats
    hs: np.ndarray = field(repr=False)  # (n - 1,) signed step sizes
    Q: np.ndarray = field(repr=False)  # (n - 1, d, 4) interpolation coefficients

    @property
    def Vs(self) -> np.ndarray:
        return self.ys if self.mode == "direct" else self.ys[:, :-1]

    @property
    def xs(self) -> np.ndarray:
        return self.ts if self.mode == "direct" else self.ys[:, -1]

    @property
    def taus(self) -> np.ndarray | None:
        return None if self.mode == "direct" else self.ts

    @property
    def t0s(self) -> np.ndarray:
        return self.ts[:-1]

    @property
    def y0s(self) -> np.ndarray:
        return self.ys[:-1]

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
        s = self.ys[:, j]
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


def _rms(v: list[float], scale: list[float]) -> float:
    """Root mean square of v / scale, summed left to right."""
    acc = 0.0
    for a, s in zip(v, scale):
        r = a / s
        acc += r * r
    return sqrt(acc / len(v))


def _error_norm(err: list[float], y0: list[float], y1: list[float], tol: float) -> float:
    """RMS of err against tol + rtol max(|y0|, |y1|), summed left to right."""
    rtol = max(tol, REL_FLOOR)
    acc = 0.0
    for e, a, b in zip(err, y0, y1):
        a, b = abs(a), abs(b)
        r = e / (tol + rtol * (a if a >= b else b))
        acc += r * r
    return sqrt(acc / len(err))


def _initial_step(rhs, y0: list[float], f0: list[float], direction: float, span: float, tol: float) -> float:
    """Deterministic starting step, the classic two-evaluation heuristic."""
    rtol = max(tol, REL_FLOOR)
    scale = [tol + rtol * abs(a) for a in y0]
    d0 = _rms(y0, scale)
    d1 = _rms(f0, scale)
    if d0 < 1e-5 or d1 < 1e-5:
        h0 = 1e-6
    else:
        h0 = 0.01 * d0 / d1
    h0 = min(h0, span) or span
    c = direction * h0
    probe = rhs([a + c * f for a, f in zip(y0, f0)])[0]
    if probe is None or not all(map(isfinite, probe)):
        return max(min(h0 * 1e-3, span), 1e-12)
    d2 = _rms([p - f for p, f in zip(probe, f0)], scale) / h0
    if max(d1, d2) <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** _ORDER_EXP
    return min(100 * h0, h1, span)


def _dp54_step(rhs, y: list[float], h: float, k1: list[float]):
    """One embedded step from y with k1, the right-hand side at y, already known.

    Each stage point and the error estimate sum their tableau row left to
    right, one rounded multiply and add at a time. Returns (n, step): n
    is the number of right-hand side evaluations made, and step is
    (y_new, err, stages, F, zeta), or None when a stage is unusable or
    the result is not finite. The last stage is the right-hand side at
    y_new, the next step's k1 (first same as last), and (F, zeta) is the
    pair it came from.
    """
    k2 = rhs([a + h * (_A21 * p) for a, p in zip(y, k1)])[0]
    if k2 is None:
        return 1, None
    k3 = rhs([a + h * (_A31 * p + _A32 * q) for a, p, q in zip(y, k1, k2)])[0]
    if k3 is None:
        return 2, None
    k4 = rhs([a + h * (_A41 * p + _A42 * q + _A43 * r) for a, p, q, r in zip(y, k1, k2, k3)])[0]
    if k4 is None:
        return 3, None
    k5 = rhs([
        a + h * (_A51 * p + _A52 * q + _A53 * r + _A54 * s) for a, p, q, r, s in zip(y, k1, k2, k3, k4)
    ])[0]
    if k5 is None:
        return 4, None
    k6 = rhs([
        a + h * (_A61 * p + _A62 * q + _A63 * r + _A64 * s + _A65 * t)
        for a, p, q, r, s, t in zip(y, k1, k2, k3, k4, k5)
    ])[0]
    if k6 is None:
        return 5, None
    y_new = [
        a + h * (_A71 * p + _A73 * r + _A74 * s + _A75 * t + _A76 * u)
        for a, p, r, s, t, u in zip(y, k1, k3, k4, k5, k6)
    ]
    k7, F, z = rhs(y_new)
    if k7 is None:
        return 6, None
    err = [
        h * (_E1 * p + _E3 * r + _E4 * s + _E5 * t + _E6 * u + _E7 * w)
        for p, r, s, t, u, w in zip(k1, k3, k4, k5, k6, k7)
    ]
    if not (all(map(isfinite, y_new)) and all(map(isfinite, err))):
        return 6, None
    return 6, (y_new, err, (k1, k2, k3, k4, k5, k6, k7), F, z)


def _run(rhs, t0: float, y0: list[float], t_end: float, tol: float, stop_when, guarded: bool):
    """Adaptive DP5(4) loop shared by the direct and the rescaled mode.

    y0 and every state handed to rhs are lists of floats. rhs(y) returns
    (k, F, zeta), the right-hand side being stepped as a list and the
    pair it came from; k is None where the stage is unusable, and zeta
    is then whatever was found (None if it could not be evaluated).
    Every call is one evaluation, the first one at y0 included. A step
    is rejected (and halved) when a stage is unusable or not finite,
    which covers a non-finite (F, zeta) pair at its end.

    guarded is the direct mode. There a start with |zeta| <= DELTA,
    zeta = 0 included, is a SingularityError; a step whose end has zeta
    of the opposite sign to the start is rejected and halved; and the
    run halts with ``singularity_approached`` at the first accepted
    endpoint with |zeta| <= DELTA. In both modes the run records min
    |zeta| and the sign changes of zeta over the accepted endpoints, and
    halts with ``converged_to_equilibrium`` once |F| < EQUILIBRIUM_TOL
    at EQUILIBRIUM_DWELL endpoints in a row (the start counts).
    stop_when(t, y), if given, sees the list y after each accepted step.
    A run still going after MAX_STEPS step attempts is a StepFailureError.

    Returns every `Trajectory` field but the mode as a dict.
    """
    k0, F, z = rhs(y0)
    if guarded and z is not None and abs(z) <= DELTA:
        raise SingularityError(f"initial point has |zeta| = {abs(z):.3e} <= delta = {DELTA:g}")
    if t_end == t0:
        raise DomainError("integration span is empty")
    if k0 is None or not all(map(isfinite, k0)):
        raise DomainError("right-hand side not finite at the initial point")
    direction = 1.0 if t_end > t0 else -1.0
    span = abs(t_end - t0)
    h = _initial_step(rhs, y0, k0, direction, span, tol)
    n_fev = 2  # the first stage and the starting-step probe
    sign0 = 1.0 if z > 0.0 else -1.0  # the side of the singular set a guarded run keeps to
    min_zeta = abs(z)
    last_positive = None if z == 0.0 else z > 0.0  # the sign of the last nonzero zeta
    sign_changes = 0
    dwell = 1 if max(map(abs, F)) < EQUILIBRIUM_TOL else 0

    # per accepted step, y_new and its seven stages, packed as doubles
    d = len(y0)
    pack = struct.Struct(f"{8 * d}d").pack
    store = bytearray()
    ts = [t0]
    hs: list[float] = []
    n_acc = n_rej = 0
    termination = TERM_REACHED_END

    t, y = t0, y0
    steps = 0
    max_steps = MAX_STEPS
    while steps < max_steps:
        steps += 1
        h = min(h, abs(t_end - t))
        if h <= abs(t) * 1e-16 + 1e-300:
            termination = TERM_STEP_FAILURE
            break
        n, step = _dp54_step(rhs, y, direction * h, k0)
        n_fev += n
        if step is not None:
            y_new, err, K, F, z = step
            enorm = _error_norm(err, y, y_new, tol)
            if enorm > 1.0:
                n_rej += 1
                h *= max(_FAC_MIN, _SAFETY * enorm ** -_ORDER_EXP)
                continue
        # an unusable step, or one that jumped across the singular set
        if step is None or (guarded and z * sign0 < 0.0):
            n_rej += 1
            h *= 0.5
            continue
        t = t + direction * h
        hs.append(direction * h)
        ts.append(t)
        k1, k2, k3, k4, k5, k6, k7 = K
        store += pack(*y_new, *k1, *k2, *k3, *k4, *k5, *k6, *k7)
        n_acc += 1
        y, k0 = y_new, k7
        az = abs(z)
        if az < min_zeta:
            min_zeta = az
        if z != 0.0:
            if last_positive is not None and (z > 0.0) != last_positive:
                sign_changes += 1
            last_positive = z > 0.0
        if guarded and az <= DELTA:
            termination = TERM_SINGULARITY
            break
        if max(map(abs, F)) < EQUILIBRIUM_TOL:
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

    records = np.frombuffer(store, dtype=float).reshape(-1, 8, d)
    ys = np.concatenate([np.array([y0]), records[:, 0]])
    # dense output of every accepted step, Q[i] = K[i]^T P, summed over the stages in order
    K = records[:, 1:, :, None]
    Q = K[:, 0] * _P[0]
    for j in range(1, 7):
        Q = Q + K[:, j] * _P[j]
    stats = TrajectoryStats(
        n_accepted=n_acc, n_rejected=n_rej, n_fevals=n_fev,
        min_abs_zeta=min_zeta, zeta_sign_changes=sign_changes, h_final=h,
    )
    return dict(ts=np.array(ts), ys=ys, termination=termination, stats=stats, hs=np.array(hs), Q=Q)


def integrate_direct(
    ode: SingularODE,
    V0: np.ndarray,
    x_span: tuple[float, float],
    tol: float = DEFAULT_TOL,
    stop_when: Callable[[float, list[float]], bool] | None = None,
) -> Trajectory:
    """Integrate dV/dx = F(V)/zeta(V) over x_span.

    A start with |zeta| <= DELTA is a SingularityError. The run halts
    with ``singularity_approached`` at the first accepted endpoint with
    |zeta| <= DELTA; steps that would change the sign of zeta are
    rejected, so the singular set is approached from one side only.
    Equilibria (|F| < EQUILIBRIUM_TOL over several consecutive accepted
    steps) halt the run with ``converged_to_equilibrium``. V0 is
    array-like; F, zeta and ``stop_when`` receive V as a list of floats,
    which they must not modify, ``stop_when`` as (x, V) after each
    accepted step.
    """

    def rhs(V):
        z = None
        try:
            z = ode.zeta_eval(V)
            if z == 0.0 or not isfinite(z):
                return None, None, z
            F = ode.F_eval(V)
            return [f / z for f in F], F, z
        except (DomainError, ZeroDivisionError, OverflowError):
            return None, None, z

    return Trajectory(mode="direct", **_run(
        rhs, float(x_span[0]), np.asarray(V0, dtype=float).tolist(), float(x_span[1]), tol, stop_when, True,
    ))


def integrate_rescaled(
    ode: SingularODE,
    V0: np.ndarray,
    tau_span: tuple[float, float],
    tol: float = DEFAULT_TOL,
    x0: float = 0.0,
    stop_when: Callable[[float, list[float], float], bool] | None = None,
) -> Trajectory:
    """Integrate the desingularized system dV/dtau = F, dx/dtau = zeta.

    The augmented state is (V, x). There is no singularity to guard, so
    the trajectory may approach or touch the sonic set; sign changes of
    zeta along the samples are counted in the stats. V0 is array-like;
    F, zeta and ``stop_when`` receive V as a list of floats.
    ``stop_when`` receives (tau, V, x), one argument more than in direct
    mode, since x is itself integrated here.
    """

    def rhs(y):
        V = y[:-1]
        try:
            F = ode.F_eval(V)
            z = ode.zeta_eval(V)
            return [*F, z], F, z
        except (DomainError, ZeroDivisionError, OverflowError):
            return None, None, None

    def stop(tau, y):
        return bool(stop_when(tau, y[:-1], y[-1]))

    return Trajectory(mode="rescaled", **_run(
        rhs, float(tau_span[0]), np.asarray(V0, dtype=float).tolist() + [float(x0)], float(tau_span[1]), tol,
        stop if stop_when is not None else None, False,
    ))


def resample_by_x(traj: Trajectory, xs: Sequence[float]) -> np.ndarray:
    """Evaluate a trajectory at given spatial points via its dense output.

    Rescaled trajectories must have strictly monotone x for the
    reparametrization to be well defined; the tau of each point is found
    by `Trajectory.eval_where` on the x component.
    """
    xs = np.asarray(xs, dtype=float)
    if traj.mode == "direct":
        return traj.eval(xs)
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
        J[:, j] = np.subtract(ode.F_eval((V0 + dv).tolist()), ode.F_eval((V0 - dv).tolist())) / (2.0 * FD_STEP)
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
