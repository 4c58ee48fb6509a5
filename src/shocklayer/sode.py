"""Adaptive integration of singular ODEs dV/dx = F(V)/zeta(V).

Two modes share one embedded Dormand-Prince 5(4) stepper:

* direct: integrate F/zeta in x, refusing to touch the singular set.
  The run halts with ``singularity_approached`` once an accepted step
  endpoint has |zeta| <= DELTA, and steps that would cross zeta = 0 are
  rejected outright.
* rescaled: integrate the desingularized system dV/dtau = F(V),
  dx/dtau = zeta(V). The vector field is regular, so the trajectory can
  pass near (or along) the sonic set; x is recovered per sample.

Both modes run through one adaptive loop, which records step statistics
and keeps a dense interpolant so trajectories can be resampled at
arbitrary points of the independent variable without re-integration. A
run ends when its span is covered, when its stop test fires, or when its
step budget is exhausted or a step fails (and, in direct mode, at the
singular set). It never halts at a rest point: a shot that starts next
to one, where |F| is only as large as its perturbation, runs on.

The whole run is straight-line Python generated per state dimension,
mode, right-hand side and stop test (`_kernel_source`) and compiled once
per process on first use (`_kernels`): `_run` checks the start and picks
the first step, and the kernel does every step, its step-size control,
its stop test and its bookkeeping in one function, keeping only the
bookkeeping the source and mode can use. A step evaluates the six new
stages inline and writes out every stage point, the new state, the
error estimate and the error norm component by component; the state and
the first-same-as-last stage stay in locals from one step to the next.
An accepted step packs t, its signed step, the new state and stages
2..7 into the run's record, 7d + 2 doubles: its stage 1 is the stage 7
of the step before, or the start's, which `_run` puts back.
Every right-hand side is an `RhsSource` that every stage runs inline,
its constants passed to the kernel. When F and zeta are the pair built
from one source (the package's own right-hand sides), that source runs,
and a step builds no list. A source whose zeta is the literal 1.0 (the
flux form) is regular: its direct stages neither test zeta nor divide
by it. Any other pair of callbacks runs as the call source
(`_call_source`), which hands them the stage point as a list once per
stage; the two give the same bits. A stop rule (`_StopRule`: capture
near a target, divergence from an origin and the target, an x floor),
which the shots and the layers use, is tested inline too. So a step calls no
Python function but the callbacks of the call source, once per stage,
and a ``stop_when`` that is not a rule, once per accepted step. The loop
steps on Python floats, with no numpy or BLAS call between two
right-hand side evaluations: called F and zeta get the stage point as a
list, a called ``stop_when`` gets each accepted endpoint as fresh lists
(see `SingularODE`), and only the start V0 and the finished trajectory
are arrays. Every stage combination, the error estimate and the error
norm are summed left to right in tableau order, one rounded multiply and
add at a time (CPython never fuses them), and the dense output is an
elementwise sum over the seven stages in order. So a trajectory does not
depend on the BLAS kernel or on the machine's fused multiply-add, and
identical inputs reproduce it bit for bit wherever F and zeta do.

The module renders nothing: a trajectory holds arrays of any dimension,
and the command line (`cli`) alone decides how a profile is written.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from math import fsum, inf, isfinite, sqrt
from typing import Callable

import numpy as np

from .errors import DomainError, NonMonotoneError, SingularityError, StepFailureError
from .reduction import RhsSource, SingularODE, _compiled

TERM_REACHED_END = "reached_end"
TERM_SINGULARITY = "singularity_approached"
TERM_STEP_FAILURE = "step_failure"
TERM_STOPPED = "stopped"

DEFAULT_TOL = 1e-10
REL_FLOOR = 1e-12  # the error tolerance, absolute and relative, is max(tol, REL_FLOOR)
DELTA = 1e-6  # direct mode halts once |zeta| <= DELTA at an accepted endpoint
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
_INVERT_TOL = 4.0 * float(np.finfo(float).eps)  # times sup |y_j|: a value leaves the inversion at this residual


def _positive_finite(**tolerances) -> None:
    """DomainError unless every tolerance given is positive and finite."""
    for name, value in tolerances.items():
        if not 0.0 < value < inf:  # NaN included
            raise DomainError(f"{name} must be positive and finite, got {value!r}")


def _outside(t: np.ndarray, lo: float, hi: float) -> bool:
    """Whether some t lies outside [lo, hi] by more than 1e-12; NaN lies outside."""
    return not np.all((t >= lo - 1e-12) & (t <= hi + 1e-12))


def _quartic_value(q1, q2, q3, q4, theta):
    """q1 theta + q2 theta^2 + q3 theta^3 + q4 theta^4; theta broadcasts against the coefficient arrays."""
    return theta * (q1 + theta * (q2 + theta * (q3 + theta * q4)))


def _quartic(q1, q2, q3, q4, theta):
    """`_quartic_value` and its theta-derivative."""
    return _quartic_value(q1, q2, q3, q4, theta), q1 + theta * (2.0 * q2 + theta * (3.0 * q3 + theta * 4.0 * q4))


def _newton(theta, c, y0, h, q1, q2, q3, q4, sgn: float, tol: float):
    """The fractions where y0 + h quartic(theta) = c, one per value, from the starting fractions theta.

    Newton's method on f(theta) = sgn (y0 + h quartic(theta) - c), which
    increases along each step, falls back to bisection of the bracket
    [a, b], starting at [0, 1], whenever an iterate leaves it. A value
    leaves the iteration once |f| <= tol, keeping its iterate; a NaN f
    keeps iterating. sgn (+1 or -1) picks the comparisons rather than
    multiplying: f is the residual r = y0 + h quartic(theta) - c or its
    exact negation, so |f| = |r|, and the Newton step theta - f / (sgn h
    dp) is bit for bit theta - r / (h dp). The derivative's coefficients
    2 q2 and 3 q3 are taken once.
    """
    a, b = np.zeros_like(theta), np.ones_like(theta)
    d2, d3 = 2.0 * q2, 3.0 * q3
    with np.errstate(divide="ignore", invalid="ignore"):  # a zero dp sends newton out of the bracket
        for _ in range(_MAX_INVERT_ITER):
            r = y0 + h * _quartic_value(q1, q2, q3, q4, theta) - c
            going = ~(np.abs(r) <= tol)  # a NaN residual keeps iterating
            if not going.any():
                break
            below, above = (r < 0.0, r > 0.0) if sgn > 0.0 else (r > 0.0, r < 0.0)
            a = np.where(below, theta, a)
            b = np.where(above, theta, b)
            newton = theta - r / (h * (q1 + theta * (d2 + theta * (d3 + theta * 4.0 * q4))))
            inside = (newton > a) & (newton < b)
            theta = np.where(going, np.where(inside, newton, 0.5 * (a + b)), theta)
    return theta


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
        p, dp = _quartic(*np.moveaxis(self.Q[i], -1, 0), np.asarray(theta, dtype=float)[..., None])
        return self.y0s[i] + self.hs[i][..., None] * p, dp

    def eval(self, t) -> np.ndarray:
        """Dense-output value of the integrated vector at independent t.

        t may be a scalar or an array; the result gains a last axis of
        the state dimension. In rescaled mode the integrated vector is
        (V, x), so the last component is the spatial coordinate. A t
        outside the covered span, NaN included, or a trajectory with no
        step is a DomainError.
        """
        if self.hs.size == 0:
            raise DomainError("trajectory carries no dense output")
        t = np.asarray(t, dtype=float)
        lo, hi = sorted((self.ts[0], self.ts[-1]))
        if _outside(t, lo, hi):
            raise DomainError(f"t={t} outside the covered span [{lo}, {hi}]")
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
        back to bisection whenever a Newton iterate leaves the bracket
        (`_newton`). Newton runs only on the values off the samples: a
        value whose starting fraction is exactly 0 (one equal to a sample,
        or one short of the first sample within the range's 1e-12 slack)
        keeps that fraction, signed zero included, as the iteration would
        over a finite dense output. Returns an array of shape values.shape
        + (d,), each row the dense output at the fraction found, computed
        by one expression for every value, values only. A value outside
        the covered range, NaN included, is a DomainError.
        """
        c = np.asarray(values, dtype=float)
        s = self.ys[:, j]
        d = np.diff(s)
        if s.size < 2 or not (np.all(d > 0) or np.all(d < 0)):
            raise NonMonotoneError(f"component {j} is not strictly monotone along the trajectory")
        lo, hi = sorted((s[0], s[-1]))
        if _outside(c, lo, hi):
            raise DomainError(f"value outside the covered range [{lo}, {hi}]")
        return self._invert(j, c, s, d)

    def _invert(self, j: int, c: np.ndarray, s: np.ndarray, d: np.ndarray) -> np.ndarray:
        """`eval_where` on a checked column: s = ys[:, j] strictly monotone, d = diff(s), c inside its range."""
        flat = c.reshape(-1)
        # orient so that f(theta) = sgn (y_j(theta) - c) increases along each step; the step of a
        # value is the last one starting at or below it, the first and the last step taking the rest
        if d[0] > 0:
            sgn, i = 1.0, np.searchsorted(s[1:-1], flat, side="right")
        else:
            sgn, i = -1.0, np.searchsorted(-s[1:-1], -flat, side="right")
        theta = np.clip((flat - s.take(i)) / d.take(i), 0.0, 1.0)
        go = np.flatnonzero(theta)  # the values off the samples
        if go.size:
            k = i.take(go)
            theta[go] = _newton(
                theta.take(go), flat.take(go), s.take(k), self.hs.take(k), *self.Q[:, j].take(k, axis=0).T, sgn,
                _INVERT_TOL * float(np.max(np.abs(s))),
            )
        p = _quartic_value(*self.Q.take(i, axis=0).transpose(2, 0, 1), theta[:, None])
        return (self.ys.take(i, axis=0) + self.hs.take(i)[:, None] * p).reshape(c.shape + self.ys.shape[1:])


def _rms(v: list[float], scale: list[float]) -> float:
    """Root mean square of v / scale over the leading components scale has, summed left to right."""
    acc = 0.0
    for a, s in zip(v, scale):
        r = a / s
        acc += r * r
    return sqrt(acc / len(scale))


def _initial_step(stage, y0: list[float], f0: list[float], direction: float, span: float, tol: float, m: int) -> float:
    """Deterministic starting step, the classic two-evaluation heuristic; its norms weigh the first m components.

    The scale of component i is max(tol, REL_FLOOR) (1 + |y0_i|), as in the step control.
    """
    rtol = max(tol, REL_FLOOR)
    scale = [rtol + rtol * abs(a) for a in y0[:m]]
    d0 = _rms(y0, scale)
    d1 = _rms(f0, scale)
    if d0 < 1e-5 or d1 < 1e-5:
        h0 = 1e-6
    else:
        h0 = 0.01 * d0 / d1
    h0 = min(h0, span) or span
    c = direction * h0
    probe = stage([a + c * f for a, f in zip(y0, f0)])[0]
    if probe is None or not all(map(isfinite, probe)):
        return max(min(h0 * 1e-3, span), 1e-12)
    d2 = _rms([p - f for p, f in zip(probe, f0)], scale) / h0
    if max(d1, d2) <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** _ORDER_EXP
    return min(100 * h0, h1, span)


# Tableau rows of the stage points 2..7 and of the error estimate, as
# (coefficient, stage) over the nonzero entries in order.
_STAGE_ROWS = (
    ((_A21, 1),),
    ((_A31, 1), (_A32, 2)),
    ((_A41, 1), (_A42, 2), (_A43, 3)),
    ((_A51, 1), (_A52, 2), (_A53, 3), (_A54, 4)),
    ((_A61, 1), (_A62, 2), (_A63, 3), (_A64, 4), (_A65, 5)),
    ((_A71, 1), (_A73, 3), (_A74, 4), (_A75, 5), (_A76, 6)),
)
_ERROR_ROW = ((_E1, 1), (_E3, 3), (_E4, 4), (_E5, 5), (_E6, 6), (_E7, 7))
_UNUSABLE = "(DomainError, ZeroDivisionError, OverflowError)"


def _stage_lines(rhs: RhsSource, mode: str, k: list[str], fail: str, read: bool) -> list[str]:
    """One stage at the point bound to the names of rhs.state, written to the locals k.

    read says whether the caller reads the stage's zeta (the first and
    the last stage): then a rescaled source whose zeta is not the literal
    1.0 also sets the local z. The source runs inline, and its
    admissibility test, emitted when it names a positive quantity, fails
    the stage. Direct mode: rhs.pre, zeta as the local z, the unusable
    check, the rest of the source, then k_i = (F_i) / z. Rescaled mode:
    the source, then zeta, with the point holding V alone; the stage is
    (F, zeta). fail is the statement that leaves on a zero or non-finite
    zeta; the caller wraps the lines in a try that treats _UNUSABLE the
    same way. A value x is finite exactly when x - x == 0.0. A source
    whose zeta is the literal 1.0 is regular: its stages set no z, and
    its direct stage has no unusable check and takes k = F, which are the
    bits of F / 1.0.
    """
    test = [f"if not ({rhs.admissible()}):", f"    {fail}"] if rhs.positive else []
    source = [*rhs.pre, *test, *rhs.lines]
    F = [f"{name} = {expr}" for name, expr in zip(k, rhs.F)]
    if rhs.zeta == "1.0":
        return [*source, *F, *([f"{k[-1]} = 1.0"] if mode == "rescaled" else [])]
    if mode == "rescaled":
        return [*source, *F, f"{k[-1]} = {'z = ' if read else ''}{rhs.zeta}"]
    return [
        *rhs.pre, f"z = {rhs.zeta}", "if z == 0.0 or not z - z == 0.0:", f"    {fail}", *test, *rhs.lines,
        *(f"{name} = ({expr}) / z" for name, expr in zip(k, rhs.F)),
    ]


def _call_source(m: int) -> RhsSource:
    """F_eval and zeta_eval of m components as a source: both are called on the stage point as the list Y."""
    state, F = tuple(f"Y_{i}" for i in range(m)), tuple(f"F_{i}" for i in range(m))
    return RhsSource(
        name="call", state=state, consts=("F_eval", "zeta_eval"), pre=(f"Y = [{', '.join(state)}]",),
        positive=(), lines=(f"{', '.join(F)}, = F_eval(Y)",), F=F, zeta="zeta_eval(Y)",
    )


@dataclass(frozen=True)
class _StopRule:
    """A stop_when that the step kernels test inline, with no call per step.

    The run stops at an accepted endpoint whose V lies within capture of
    target, or farther than radius from origin and from target, or whose
    x is at or below x_floor (x is the first argument in direct mode and
    the third in rescaled mode). capture = -inf captures nothing, and
    x_floor = -inf never stops a run; a rule with no target of its own
    passes its origin again. Distances are sup norms, and "sup |V - p| <=
    r" is tested as -r <= V_i - p_i <= r for every i, its verdict
    wherever V and p are finite, as at every accepted endpoint. Calling
    the rule gives the kernel's verdict.
    """

    origin: tuple[float, ...]
    radius: float
    target: tuple[float, ...]
    capture: float
    x_floor: float

    def __call__(self, t: float, V: list[float], x: float | None = None) -> bool:
        def within(p, r):
            return all(-r <= a - b <= r for a, b in zip(V, p))

        x = t if x is None else x
        return (
            x <= self.x_floor or within(self.target, self.capture)
            or not (within(self.origin, self.radius) or within(self.target, self.radius))
        )


def _rule_source(V: list[str], x: str) -> tuple[list[str], str]:
    """The run's unpacking of a `_StopRule`, and its stop test on the names V and x of an endpoint.

    "sup |V - p| <= r" is written as the chain r_lo <= V_0 - p_0 <= r_hi
    and ..., with r_lo = -r_hi taken once per run.
    """
    def point(p: str, name: str) -> str:
        return f"{', '.join(f'{p}_{i}' for i in range(len(V)))}, = stop_when.{name}"

    def within(p: str, r: str) -> str:
        return " and ".join(f"{r}_lo <= {v} - {p}_{i} <= {r}_hi" for i, v in enumerate(V))

    unpack = [
        point("o", "origin"), "radius_hi = stop_when.radius", "radius_lo = -radius_hi",
        point("g", "target"), "capture_hi = stop_when.capture", "capture_lo = -capture_hi",
        "x_floor = stop_when.x_floor",
    ]
    far = f"not ({within('o', 'radius')}) and not ({within('g', 'radius')})"
    return unpack, " or ".join(f"({test})" for test in (f"{x} <= x_floor", within("g", "capture"), far))


def _record_width(d: int) -> int:
    """Doubles the run packs per accepted step of a d-dimensional state: t, the signed step, y_new, stages 2..7."""
    return 7 * d + 2


def _row_sum(row, i: int) -> str:
    """Component i of a tableau row's stage sum, left to right."""
    return " + ".join(f"{c!r} * k{s}_{i}" for c, s in row)


def _kernel_source(d: int, mode: str, rhs: RhsSource, stop: str | None) -> str:
    """Source of make(tol, *consts) -> (stage, run) for dimension d, mode, right-hand side and stop test.

    consts are the constants of rhs, and every stage runs its source
    inline (see `_stage_lines`): one kernel serves every gas and speed,
    or every pair of callbacks. stage(y) is the right-hand side at the
    list y: (k, zeta), with k None where the stage is unusable and zeta
    whatever was found (None if it could not be evaluated).

    run(t, t_end, direction, y, h, k1, z, stop_when) makes every step of
    a run and its bookkeeping (see `_run`), from the start y with its
    first stage k1 and zeta z already known and the starting step h. It
    returns (store, termination, accepted, rejected, evaluations, min
    |zeta|, zeta sign changes, final h), with store the packed records of
    the accepted steps, `_record_width(d)` = 7d + 2 doubles each: t, the
    signed step, y_new and stages 2..7. Stage 1 is not packed: it is
    the stage 7 of the step before (first same as last), and the first
    step's is k1. The state, the first-same-as-last stage and the
    counters stay in locals from step to step. stop says how stop_when
    is tested: None tests nothing, "stop_when" calls it after each
    accepted step, and "rule" writes a
    `_StopRule`'s tests inline (`_rule_source`), the rule's points, radii
    and floor unpacked once per run. So no Python function is called per
    attempt but the source's own calls (the callbacks of the call
    source) and, after an accepted step, a stop_when that is not a rule.

    A stage that fails counts the evaluations made so far and halves h.
    In rescaled mode the last component is x, which no stage reads, so
    the stage points 2..6 leave it out. The error norm takes |y_i| and
    |n_i| by a sign test, which gives the bits of abs. The norm weighs V
    alone and the finiteness test every component: x, a quadrature of
    zeta rather than a state, moves no step. The kernel keeps no
    bookkeeping its run cannot use: a regular source (zeta the literal
    1.0) tracks no zeta, so its min |zeta| is 1.0 and its sign changes 0;
    and direct mode, which rejects every step that would change the sign
    of zeta, counts no sign changes.
    """
    direct = mode == "direct"
    regular = rhs.zeta == "1.0"
    m = d if direct else d - 1  # components of a stage point
    ks = [[f"k{s}_{i}" for i in range(d)] for s in range(8)]
    first = _stage_lines(rhs, mode, ks[0], "return None, z", True)
    new = [f"n_{i}" for i in range(d)]
    record = ", ".join(["t", "dh"] + new + [k for stage in ks[2:] for k in stage])
    unpack, stopping = _rule_source(new[:m], "t" if direct else new[-1]) if stop == "rule" else ([], "")
    out = [
        f"def make(tol, {', '.join(rhs.consts)}):",
        "    rtol = max(tol, REL_FLOOR)",
        f"    pack = struct.Struct('{_record_width(d)}d').pack",
        "",
        "    def stage(y):",
        f"        z = {'1.0' if regular else 'None'}",
        f"        {', '.join(rhs.state)}, = y" + ("" if direct else "[:-1]"),
        "        try:",
        *("            " + line for line in first),
        f"        except {_UNUSABLE}:",
        "            return None, z",
        f"        return [{', '.join(ks[0])}], z",
        "",
        "    def run(t, t_end, direction, y, h, k1, z, stop_when):",
        f"        {', '.join(f'y_{i}' for i in range(d))}, = y",
        f"        {', '.join(ks[1])}, = k1",
        *("        " + line for line in unpack),
    ]
    if not regular:
        out += ["        min_zeta = abs(z)"]
        if direct:
            out += ["        sign0 = 1.0 if z > 0.0 else -1.0  # the side of the singular set the run keeps to"]
        else:
            out += [
                "        last_positive = None if z == 0.0 else z > 0.0  # the sign of the last nonzero zeta",
                "        sign_changes = 0",
            ]
    out += [
        "        n_acc = n_rej = n_fev = steps = 0",
        "        store = bytearray()",
        "        termination = TERM_REACHED_END",
        "        max_steps = MAX_STEPS",
        "        end_scale = max(abs(t_end), 1.0)",
        # the end test breaks once t reaches t_end, so left below is never 0, and these are the
        # bits of h = min(h, abs(t_end - t)) and of the tests through abs and max
        "        while steps < max_steps:",
        "            steps += 1",
        "            left = t_end - t if t_end > t else t - t_end",
        "            if left < h:",
        "                h = left",
        "            if h <= (t if t >= 0.0 else -t) * 1e-16 + 1e-300:",
        "                termination = TERM_STEP_FAILURE",
        "                break",
        "            dh = direction * h",
    ]
    for s, row in enumerate(_STAGE_ROWS, start=2):
        if s < 7:
            points = [f"y_{i} + dh * ({_row_sum(row, i)})" for i in range(m)]
        else:  # the last stage is taken at y_new, all of which is kept
            out += [f"            n_{i} = y_{i} + dh * ({_row_sum(row, i)})" for i in range(d)]
            points = new[:m]
        reject = f"n_fev += {s - 1}; n_rej += 1; h *= 0.5; continue"
        lines = _stage_lines(rhs, mode, ks[s], reject, s == 7)  # the last zeta is that at y_new
        out += [
            *(f"            {name} = {p}" for name, p in zip(rhs.state, points)),
            "            try:",
            *("                " + line for line in lines),
            f"            except {_UNUSABLE}:",
            f"                {reject}",
        ]
    out += [f"            e_{i} = dh * ({_row_sum(_ERROR_ROW, i)})" for i in range(d)]
    checks = " and ".join(f"{v}_{i} - {v}_{i} == 0.0" for v in "ne" for i in range(d))
    out += [
        "            n_fev += 6",
        f"            if not ({checks}):",
        "                n_rej += 1; h *= 0.5; continue",
    ]
    for i in range(m):
        out += [
            f"            a = y_{i} if y_{i} >= 0.0 else -y_{i}",
            f"            b = n_{i} if n_{i} >= 0.0 else -n_{i}",
            f"            r_{i} = e_{i} / (rtol + rtol * (a if a >= b else b))",
        ]
    squares = " + ".join(f"r_{i} * r_{i}" for i in range(m))
    out += [
        f"            enorm = sqrt(({squares}) / {m})",
        "            if enorm > 1.0:",
        "                n_rej += 1; h *= max(_FAC_MIN, _SAFETY * enorm ** -_ORDER_EXP); continue",
    ]
    if direct and not regular:  # a step that jumped across the singular set; on the start's side az = |zeta|
        out += ["            az = z * sign0", "            if az < 0.0:", "                n_rej += 1; h *= 0.5; continue"]
    out += [
        "            t = t + dh",
        f"            store += pack({record})",
        "            n_acc += 1",
        *(f"            y_{i} = n_{i}" for i in range(d)),
        *(f"            k1_{i} = k7_{i}" for i in range(d)),
    ]
    if not regular:
        out += [*([] if direct else ["            az = abs(z)"]), "            if az < min_zeta:", "                min_zeta = az"]
        if direct:
            out += ["            if az <= DELTA:", "                termination = TERM_SINGULARITY", "                break"]
        else:
            out += [
                "            if z != 0.0:",
                "                if last_positive is not None and (z > 0.0) != last_positive:",
                "                    sign_changes += 1",
                "                last_positive = z > 0.0",
            ]
    if stop == "stop_when":
        seen = f"t, [{', '.join(new)}]" if direct else f"t, [{', '.join(new[:-1])}], {new[-1]}"
        out += [f"            if stop_when({seen}):", "                termination = TERM_STOPPED", "                break"]
    elif stop == "rule":
        out += [f"            if {stopping}:", "                termination = TERM_STOPPED", "                break"]
    zeta_stats = "1.0, 0" if regular else "min_zeta, 0" if direct else "min_zeta, sign_changes"
    out += [
        "            a = t if t >= 0.0 else -t",
        "            if (t - t_end if t > t_end else t_end - t) <= 1e-14 * (a if a > end_scale else end_scale):",
        "                break",
        "            if enorm == 0.0:",
        "                h *= _FAC_MAX",
        "            else:",
        "                fac = _SAFETY * enorm ** -_ORDER_EXP",
        "                h *= _FAC_MAX if fac >= _FAC_MAX else fac if fac > _FAC_MIN else _FAC_MIN",
        "        else:",
        '            raise StepFailureError(f"step budget {max_steps} exhausted")',
        f"        return store, termination, n_acc, n_rej, n_fev, {zeta_stats}, h",
        "",
        "    return stage, run",
    ]
    return "\n".join(out) + "\n"


_KERNELS: dict[tuple, Callable] = {}  # (d, mode, rhs name, stop test) -> make, compiled on first use


def _kernels(d: int, mode: str, rhs: RhsSource, stop: str | None):
    """make(tol, *consts) -> (stage, run) for dimension d, mode, right-hand side and stop test.

    The source is compiled once per process and (d, mode, rhs name,
    stop test), as a file named after them (see `_compiled`).
    """
    filename = f"<sode step d={d} {mode} {rhs.name}{'' if stop is None else ' ' + stop}>"
    return _compiled(_KERNELS, (d, mode, rhs.name, stop), filename, lambda: _kernel_source(d, mode, rhs, stop), globals())


def _bound(ode: SingularODE, m: int) -> tuple[RhsSource, tuple]:
    """(source, constants) of ode's right-hand side of m components.

    That is the `RhsSource` F_eval and zeta_eval were built from, while
    they are exactly that pair, else the call source with (F_eval,
    zeta_eval).
    """
    built = getattr(ode.F_eval, "built", None)
    if built is not None and built[0] is ode.F_eval and built[1] is ode.zeta_eval:
        return built[2], built[3]
    return _call_source(m), (ode.F_eval, ode.zeta_eval)


def _run(ode: SingularODE, mode: str, t0: float, y0: list[float], t_end: float, tol: float, stop_when):
    """Adaptive DP5(4) run shared by the direct and the rescaled mode.

    y0 is a list of floats: V in direct mode, (V, x) in rescaled mode.
    The stages and the stepping loop come from the generated kernel of
    `_kernels` for the source of ode's right-hand side, found once here
    (see `_bound`): the `RhsSource` ode's callbacks were built from, or
    else the call source of ode.F_eval and ode.zeta_eval. The kernel also
    depends on stop_when: a `_StopRule`, recognized by its type, is
    tested inline, and any other callable is called. Here the run takes
    the first stage, checks the start and picks the first step; the
    kernel's run does every step and its bookkeeping, and the trajectory
    is assembled from its records (t, the signed step, y_new and stages
    2..7 of each accepted step). The stages go into the dense output Q in
    tableau order, P's zero row included, stage 1 rebuilt as the first
    stage at y0 followed by each step's stage 7 but the last; so Q has
    the bits of a sum over seven packed stages. Every stage is one
    evaluation, the first one at y0 included. A step is rejected (and
    halved) when a stage is unusable or not finite, which covers a
    non-finite (F, zeta) pair at its end.

    Direct mode is guarded. There a start with |zeta| <= DELTA, zeta = 0
    included, is a SingularityError; a step whose end has zeta of the
    opposite sign to the start is rejected and halved; and the run halts
    with ``singularity_approached`` at the first accepted endpoint with
    |zeta| <= DELTA. In both modes the run records min |zeta| and the
    sign changes of zeta over the accepted endpoints. Otherwise a run
    ends ``reached_end`` once its span is covered, ``stopped`` when
    stop_when holds, or ``step_failure`` when the step falls below the
    round-off of t; a rest point does not end it. stop_when, if given,
    sees each accepted endpoint as fresh lists: (x, V) in direct mode,
    (tau, V, x) in rescaled mode. A run still going after MAX_STEPS step
    attempts is a StepFailureError. tol must be positive and finite, else
    the run is a DomainError.

    Returns every `Trajectory` field but the mode as a dict.
    """
    _positive_finite(tol=tol)
    direct = mode == "direct"
    d = len(y0)
    m = d if direct else d - 1  # the components of V
    rhs, consts = _bound(ode, m)
    stop = None if stop_when is None else "rule" if isinstance(stop_when, _StopRule) else "stop_when"
    stage, run = _kernels(d, mode, rhs, stop)(tol, *consts)
    k0, z = stage(y0)
    if direct and z is not None and abs(z) <= DELTA:
        raise SingularityError(f"initial point has |zeta| = {abs(z):.3e} <= delta = {DELTA:g}")
    if t_end == t0:
        raise DomainError("integration span is empty")
    if k0 is None or not all(map(isfinite, k0)):
        raise DomainError("right-hand side not finite at the initial point")
    direction = 1.0 if t_end > t0 else -1.0
    h = _initial_step(stage, y0, k0, direction, abs(t_end - t0), tol, m)
    store, termination, n_acc, n_rej, n_fev, min_zeta, sign_changes, h = run(
        t0, t_end, direction, y0, h, k0, z, stop_when,
    )

    records = np.frombuffer(store, dtype=float).reshape(-1, _record_width(d))  # t, dh, y_new, stages 2..7
    ys = np.concatenate([np.array([y0]), records[:, 2:2 + d]])
    # dense output of every accepted step, Q[i] = K[i]^T P, summed over the stages in order, P's zero
    # row included: each stage is a contiguous (n, d) slab, scaled by P's row as (4, 1, 1) and added
    # in place. Stage 1 is the start's, then the stage 7 of the step before (first same as last)
    K = records[:, 2 + d:].reshape(-1, 6, d).transpose(1, 0, 2).copy()  # stages 2..7
    Q = np.concatenate([np.array([k0]), K[5, :-1]])[:len(records)] * _P[0, :, None, None]  # (4, n, d)
    for j in range(1, 7):
        Q += K[j - 1] * _P[j, :, None, None]
    Q = Q.transpose(1, 2, 0).copy()
    stats = TrajectoryStats(
        n_accepted=n_acc, n_rejected=n_rej, n_fevals=2 + n_fev,  # the first stage and the starting-step probe
        min_abs_zeta=min_zeta, zeta_sign_changes=sign_changes, h_final=h,
    )
    ts = np.concatenate([[t0], records[:, 0]])
    return dict(ts=ts, ys=ys, termination=termination, stats=stats, hs=records[:, 1].copy(), Q=Q)


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
    Otherwise the run ends as `_run` says: a rest point does not end it,
    so a run that starts on one covers its span. V0 is array-like; F,
    zeta and ``stop_when`` receive V as a list of floats, which they must
    not modify, ``stop_when`` as (x, V) after each accepted step.
    ``stop_when`` may be a `_StopRule`, which the step kernel tests
    inline instead of calling it.
    """
    return Trajectory(mode="direct", **_run(
        ode, "direct", float(x_span[0]), np.asarray(V0, dtype=float).tolist(), float(x_span[1]), tol, stop_when,
    ))


def integrate_rescaled(
    ode: SingularODE,
    V0: np.ndarray,
    tau_span: tuple[float, float],
    tol: float = DEFAULT_TOL,
    stop_when: Callable[[float, list[float], float], bool] | None = None,
) -> Trajectory:
    """Integrate the desingularized system dV/dtau = F, dx/dtau = zeta.

    The augmented state is (V, x), x = 0 at the start. There is no
    singularity to guard, so the trajectory may approach or touch the
    sonic set; sign changes of zeta along the samples are counted in the
    stats. The run ends as `_run` says, never at a rest point. V0 is
    array-like; F, zeta and ``stop_when`` receive V as a list of floats.
    ``stop_when`` receives (tau, V, x), one argument more than in direct
    mode, since x is itself integrated here. It may be a `_StopRule`,
    which the step kernel tests inline instead of calling it.
    """
    return Trajectory(mode="rescaled", **_run(
        ode, "rescaled", float(tau_span[0]), np.asarray(V0, dtype=float).tolist() + [0.0], float(tau_span[1]),
        tol, stop_when,
    ))


@dataclass(frozen=True)
class LinearizationReport:
    """Jacobian J of F at one point, its eigenvalues and eigenvectors (columns).

    ``center`` holds the indices with |Re lambda| <= CENTER_THRESHOLD. The
    eigenvalues are rates in tau; the spatial rates of dV/dx = F/zeta are
    these over zeta, so their signs flip where zeta < 0.
    """

    J: np.ndarray
    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    center: tuple[int, ...]


CENTER_THRESHOLD = 1e-7
FD_STEP = 1e-6


def _block_eigenpairs(N: list[list[float]]) -> list[tuple]:
    """The eigenpairs (lambda, y) of a block N of at most 2x2, y unnormalized; complex where disc < 0.

    For [[a, b], [c, d]], with disc = ((a - d)/2)^2 + b c = tr^2/4 - det,
    lambda1 = tr/2 + sign(tr) sqrt(disc) takes the root of larger
    modulus without cancellation, and lambda2 = det /
    lambda1 the other (0 where lambda1 is, which happens only when both
    roots are 0). y is the longer of the null vectors (b, lambda - a)
    and (lambda - d, c) of the two rows of N - lambda; a scalar block,
    where both vanish, has the unit vectors.
    """
    if len(N) < 2:
        return [(N[0][0], (1.0,))] if N else []
    (a, b), (c, d) = N
    half = 0.5 * (a - d)
    mean = 0.5 * (a + d)
    disc = half * half + b * c
    if disc < 0.0:
        lam1 = complex(mean, sqrt(-disc))
        lam2 = lam1.conjugate()
    else:
        lam1 = mean + sqrt(disc) if mean >= 0.0 else mean - sqrt(disc)
        lam2 = (a * d - b * c) / lam1 if lam1 != 0.0 else 0.0
    pairs = []
    for lam, unit in ((lam1, (1.0, 0.0)), (lam2, (0.0, 1.0))):
        r1, r2 = (b, lam - a), (lam - d, c)
        n1, n2 = abs(r1[0]) + abs(r1[1]), abs(r2[0]) + abs(r2[1])
        pairs.append((lam, unit if n1 == n2 == 0.0 else r1 if n1 >= n2 else r2))
    return pairs


def linearize(ode: SingularODE, V0: np.ndarray) -> LinearizationReport:
    """Central-difference Jacobian of F at V0 (step FD_STEP) and its eigen-decomposition.

    J is taken on Python floats, from 2d evaluations of F, with the bits
    of numpy's (F(V0 + dv) - F(V0 - dv)) / (2 FD_STEP). Each exactly-zero
    column j of J (a component F does not feel, as rho, v and theta at a
    rest point z = 0 of the travelling-wave field) has eigenvalue 0.0 and
    eigenvector e_j. J is block upper triangular over those columns Z,
    so its other eigenvalues are those of the block N of the other rows
    and columns. Where N is at most 2x2 with no eigenvalue 0, its
    eigenpairs (lambda, y) come in closed form (`_block_eigenpairs`); each
    lifts to the eigenvector of J that is y on N and J_ZN y / lambda on
    Z, normalized by a correctly rounded sum. No LAPACK or BLAS call is
    made, and two rules hold: the zero eigenvalues come first in column
    order, the others follow by ascending real part (a complex pair with
    its positive imaginary part first); and each real eigenvector's last
    nonzero component has the sign of zeta(V0) (positive where zeta is
    0). For a travelling-wave rest point that component is z2 = theta_x.
    Any other J (a larger block, an eigenvalue 0 of N, or a non-finite
    entry) goes to LAPACK (numpy.linalg.eig), whose order and signs are
    its own.
    """
    V = np.asarray(V0, dtype=float).tolist()
    d = len(V)
    F = ode.F_eval
    h2 = 2.0 * FD_STEP
    shifted = [x + 0.0 for x in V]  # V0 + dv: -0.0 entries off the perturbed one become +0.0
    cols = []
    for j in range(d):
        up, dn = shifted.copy(), V.copy()
        up[j], dn[j] = V[j] + FD_STEP, V[j] - FD_STEP
        cols.append([(p - m) / h2 for p, m in zip(F(up), F(dn))])
    J = np.array(cols).T.copy()
    rest = [j for j in range(d) if any(cols[j])]
    pairs = _block_eigenpairs([[cols[j][i] for j in rest] for i in rest]) if len(rest) <= 2 else None
    if pairs is not None and all(lam != 0.0 and lam - lam == 0.0 for lam, _ in pairs):
        lam, vecs = _lifted(cols, rest, pairs, -1.0 if ode.zeta_eval(V) < 0.0 else 1.0)
    else:  # the general branch: a block larger than 2x2, an eigenvalue 0 of it, or a non-finite entry
        lam, vecs = np.linalg.eig(J)
    center = tuple(i for i, x in enumerate(lam.tolist()) if abs(x.real) <= CENTER_THRESHOLD)
    return LinearizationReport(J=J, eigenvalues=lam, eigenvectors=vecs, center=center)


def _lifted(cols: list, rest: list[int], pairs: list[tuple], sign: float) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues and eigenvector columns of J, given by its columns, from the eigenpairs of its block N.

    rest indexes N's columns, the nonzero ones; sign is that of zeta.
    The order and orientation are `linearize`'s rules.
    """
    d = len(cols)
    zero = [j for j in range(d) if j not in rest]
    lams, vecs = [], []
    for j in zero:
        x = [0.0] * d
        x[j] = sign
        lams.append(0.0)
        vecs.append(x)
    for lam, y in sorted(pairs, key=lambda p: (p[0].real, -p[0].imag)):
        x = [0.0] * d
        for i, c in zip(rest, y):
            x[i] = c
        for i in zero:
            acc = 0.0
            for k, c in zip(rest, y):
                acc += cols[k][i] * c
            x[i] = acc / lam
        if isinstance(lam, complex):
            n = sqrt(fsum(t for c in x for t in (c.real * c.real, c.imag * c.imag)))
            big = max(x, key=abs)
            n *= big / abs(big)  # the component of largest modulus comes out real, as from LAPACK
        else:
            n = sqrt(fsum(c * c for c in x))
            if next(c for c in reversed(x) if c != 0.0) * sign < 0.0:
                n = -n
        lams.append(lam)
        vecs.append([c / n for c in x])
    lam = np.array(lams)
    return lam, np.array(vecs, dtype=lam.dtype).T.copy()
