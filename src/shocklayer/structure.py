"""Structural checks on the symmetrized system over sample boxes.

Coercivity of the parabolic block, symmetry of A at zero gradient,
positive definiteness of E, constancy of rank B, and the block linear
degeneracy question: does the kernel dimension of the shifted hyperbolic
block A11 - sigma E11 stay constant over the states of interest?

All checks are sampling based. Reported constants (like the coercivity
bound c_b) are estimates over the sampled box, not global proofs. Each
matrix is assembled once per sample set, with the samples as columns
(`system`), and each check makes one batched LAPACK call over the
stack. The hyperbolic block is a scalar, so its kernel dimension is
exact: 1 where A11 - sigma E11 is zero, 0 elsewhere, decided on Python
floats. The report carries the samples it checked, so the degeneracy
verdicts can be taken on the same states.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .errors import DomainError
from .gas import Box, GasModel, State, ZERO_GRADIENT, _integer
from .system import _assemble_EAB, assemble_A, assemble_B, assemble_E, blocks

# fixed, not settable: E and A(u, 0) are assembled symmetric bit for bit,
# and B's rank is read on a matrix whose nonzero entries are of order 1
DEFAULT_RANK_TOL = 1e-10
DEFAULT_SYM_TOL = 1e-12


def kernel_dimension(M: np.ndarray) -> int | np.ndarray:
    """Dimension of ker M by singular value counting.

    A singular value counts toward the rank when it exceeds
    DEFAULT_RANK_TOL * (largest singular value), read when the call
    runs, so the answer is invariant under scaling M by a nonzero
    constant. The zero matrix has full kernel. M is one matrix (a scalar
    counts as 1x1), giving an int, or a stack (..., m, k), giving an int
    array of shape (...) from one batched SVD.
    """
    M = np.asarray(M, dtype=float)
    stacked = M.ndim > 2
    M = np.atleast_2d(M)
    svals = np.linalg.svd(M, compute_uv=False)
    dims = M.shape[-1] - np.count_nonzero(svals > DEFAULT_RANK_TOL * svals[..., :1], axis=-1)
    return dims if stacked else int(dims)


def _diag_scaled(M: np.ndarray, by: np.ndarray) -> np.ndarray:
    """D^-1/2 M D^-1/2 over a stack, with D = |diag by| and a zero entry read as 1.

    A congruence by a positive diagonal keeps M's rank and the signs of
    its eigenvalues (Sylvester's law of inertia), and it takes the
    diagonal of by to entries of size 1, so a decision on the scaled
    matrix compares entries of one scale.
    """
    d = np.abs(np.diagonal(by, axis1=-2, axis2=-1))
    d = 1.0 / np.sqrt(np.where(d == 0.0, 1.0, d))
    return d[..., :, None] * M * d[..., None, :]


def _first_min(values: np.ndarray, samples: Sequence[State]) -> tuple[float, State | None]:
    """Smallest value and the first sample that attains it, NaNs skipped.

    This is what a running `if x < worst` scan from +inf keeps, so the
    result is (inf, None) when no value lies below +inf.
    """
    worst = np.fmin.reduce(values)
    if not worst < np.inf:
        return np.inf, None
    i = int(np.flatnonzero(values == worst)[0])
    return float(values[i]), samples[i]


class _Columns(NamedTuple):
    """The samples as columns: the `State` fields an assembler reads, one array entry per sample."""

    rho: np.ndarray
    v: np.ndarray
    theta: np.ndarray


_UNASSEMBLABLE = (ZeroDivisionError, OverflowError)

# the package's own assemblers, which `_assemble` recognizes by identity and runs as one fused assembly
_OWN_ASSEMBLERS = (assemble_E, assemble_A, assemble_B)


def _unassemblable(state: State, where: str = "state") -> DomainError:
    """The error for a state whose E, A(u, 0) or B cannot be assembled or has a non-finite entry."""
    return DomainError(
        f"E, A(u, 0) or B cannot be assembled or is not finite at {where} "
        f"(rho, v, theta) = ({state.rho:g}, {state.v:g}, {state.theta:g})"
    )


def _assemble(gas: GasModel, states: Sequence[State], assemblers: tuple, where: str) -> tuple[np.ndarray, ...]:
    """E, A(u, 0) and B stacked over the states as columns.

    assemblers is (assemble_e, assemble_a, assemble_b). When they are the
    package's own three (`_OWN_ASSEMBLERS`, by identity), one
    `system._assemble_EAB` call over the columns gives all three, with
    the bits of the three calls; other assemblers, such as the corrupted
    ones tests inject, are called one by one. numpy's overflow,
    division and invalid-value warnings are off; instead this raises the
    DomainError of `_unassemblable` at the first state that cannot be
    assembled (division by zero or overflow) or has a non-finite entry,
    with where naming the kind of state. An assembler that raises for the
    whole set names no state, so the first state that fails on its own is
    the one reported.
    """
    cols = _Columns(*np.array([(s.rho, s.v, s.theta) for s in states]).T)
    try:
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            if all(map(operator.is_, assemblers, _OWN_ASSEMBLERS)):
                M = _assemble_EAB(gas, cols)
                mats = M[:, 0], M[:, 1], M[:, 2]
            else:
                assemble_e, assemble_a, assemble_b = assemblers
                mats = assemble_e(gas, cols), assemble_a(gas, cols, ZERO_GRADIENT), assemble_b(gas, cols)
    except _UNASSEMBLABLE as exc:
        if len(states) == 1:
            raise _unassemblable(states[0], where) from exc
        for state in states:
            _assemble(gas, [state], assemblers, where)
        raise
    finite = np.logical_and.reduce([np.isfinite(M).all(axis=(-2, -1)) for M in mats])
    if not finite.all():
        raise _unassemblable(states[int(np.argmin(finite))], where)
    return mats


@dataclass(frozen=True)
class CheckResult:
    """Outcome of one scalar check: verdict, worst value, witness state."""

    passed: bool
    worst: float
    witness: State | None = None


@dataclass(frozen=True)
class RankResult:
    """Observed ranks of B over the samples and the constancy verdict."""

    passed: bool
    ranks: tuple[int, ...]
    r: int | None
    witness: State | None = None


@dataclass(frozen=True)
class DegeneracyVerdict:
    """Kernel dimensions of A11 - sigma E11 over a sample set.

    verdict is "satisfied" when the dimension is constant across the
    samples and "violated" otherwise; witnesses holds one (state, dim)
    pair per distinct dimension observed.
    """

    sigma: float
    dims: tuple[int, ...]
    verdict: str
    witnesses: tuple[tuple[State, int], ...]

    @property
    def satisfied(self) -> bool:
        return self.verdict == "satisfied"


BlockEval = Callable[[State], float]


class _EulerianRows:
    """The rows (state, E11, A11) of the Eulerian block, one per State read.

    A11 = E[0, 0] v and E11 = E[0, 0]. E reads no v, and whether `blocks`
    raises does not depend on v (it divides by and raises powers of rho
    and theta only), so one `blocks` call serves each distinct (rho,
    theta). A row is kept under id(state), next to the state itself so
    that the id cannot be reused; `get(id(state)) or row(state)` reads it.
    The object refers to nothing that refers back to it, so dropping its
    evaluators frees it, its rows and its States at once.
    """

    def __init__(self, gas: GasModel):
        self.gas = gas
        self.e00: dict[tuple[float, float], float] = {}
        self.by_id: dict[int, tuple[State, float, float]] = {}
        self.get = self.by_id.get

    def row(self, state: State) -> tuple[State, float, float]:
        key = (state.rho, state.theta)
        e11 = self.e00.get(key)
        if e11 is None:
            try:
                E, _, _ = blocks(self.gas, state)
                e11 = self.e00[key] = float(E[0, 0])
            except _UNASSEMBLABLE as exc:
                raise _unassemblable(state) from exc
        r = self.by_id[id(state)] = (state, e11, e11 * state.v)
        return r

    def e11(self, state: State) -> float:
        return (self.get(id(state)) or self.row(state))[1]

    def a11(self, state: State) -> float:
        return (self.get(id(state)) or self.row(state))[2]


def check_block_linear_degeneracy(
    A11_eval: BlockEval,
    E11_eval: BlockEval,
    sigma: float,
    samples: Sequence[State],
) -> DegeneracyVerdict:
    """Kernel dimension of the scalar block A11(u) - sigma E11(u) across the samples.

    The dimension is exact: 1 where the block is zero and 0 elsewhere,
    which is what counting singular values gives at any relative
    tolerance below 1. Constancy of the dimension over the sample set is
    the degeneracy condition at this sigma; a violation is reported with
    one witness per observed value, the first sample that shows it.
    Raises DomainError on an empty sample set, which has no dimension,
    and at the first sample where the block is not finite (an overflow of
    sigma E11 or of A11), where zero cannot be decided. The evaluators
    return Python floats, and the block, its zero test, its finiteness
    and the witnesses are all decided on them, with no array round trip.

    Handed exactly a pair of `eulerian_block_evals` (the bound a11 and
    e11 of one `_EulerianRows`: a wrapper of either evaluator is another
    function), the blocks come from one pass over that object's rows,
    with no call of the evaluators. The rows are read in sample order, so
    the first state that cannot be assembled, and its DomainError, are
    the ones the evaluators would give. Any other pair is called once per
    sample.
    """
    samples = list(samples)
    if not samples:
        raise DomainError(f"check_block_linear_degeneracy got an empty sample set at sigma={sigma:g}")
    sigma = float(sigma)
    rows = getattr(A11_eval, "__self__", None)
    if type(rows) is _EulerianRows and A11_eval == rows.a11 and E11_eval == rows.e11:
        get, row = rows.get, rows.row
        x = [a11 - sigma * e11 for _, e11, a11 in [get(id(s)) or row(s) for s in samples]]
    else:
        x = [A11_eval(s) - sigma * E11_eval(s) for s in samples]
    if not all(map(math.isfinite, x)):
        s = samples[next(i for i, xi in enumerate(x) if not math.isfinite(xi))]
        raise DomainError(
            f"A11 - sigma E11 is not finite at sigma={sigma:g} and state "
            f"(rho, v, theta) = ({s.rho:g}, {s.v:g}, {s.theta:g})"
        )
    dims = [1 if xi == 0.0 else 0 for xi in x]
    witnesses = tuple((samples[dims.index(d)], d) for d in (0, 1) if d in dims)
    verdict = "satisfied" if len(witnesses) <= 1 else "violated"
    return DegeneracyVerdict(sigma=sigma, dims=tuple(dims), verdict=verdict, witnesses=witnesses)


def eulerian_block_evals(gas: GasModel) -> tuple[BlockEval, BlockEval]:
    """(A11, E11) evaluators of the Eulerian symmetrized system.

    They are the bound a11 and e11 of one `_EulerianRows`, so the pair
    makes one `blocks` call per distinct (rho, theta): every sigma's
    critical state State(rho, sigma, theta) shares the assembly at (rho,
    theta), and a repeated evaluation is one dict lookup. The pair holds
    every State it has read for as long as it lives, and A11, E11 and
    every sigma probed on the same samples read the same values. A state
    that cannot be assembled (division by zero or overflow) is a
    DomainError that names it. This is the one caller of `blocks` left:
    the benchmark counts its calls, the one structure counter that
    changes with the seed. `check_block_linear_degeneracy` recognizes
    the pair by its object and reads the rows in one pass.
    """
    rows = _EulerianRows(gas)
    return rows.a11, rows.e11


# Each matrix check of a report, once: field, text label, JSON values, and the text value read from them.
_MATRIX_CHECKS = (
    ("e_spd", "E symmetric positive definite",
     lambda c: {"min_eigenvalue": c.worst}, "min eigenvalue {min_eigenvalue:.6e} of D^-1/2 E D^-1/2"),
    ("a0_symmetric", "A symmetric at zero gradient",
     lambda c: {"max_asymmetry": c.worst}, "max asymmetry {max_asymmetry:.6e}"),
    ("b_rank", "B rank constant",
     lambda c: {"ranks_observed": sorted(set(c.ranks)), "r": c.r}, "ranks {ranks_observed}"),
    ("b_coercivity", "parabolic block coercive",
     lambda c: {"c_b": c.worst}, "c_b {c_b:.6e}, box estimate"),
)


@dataclass
class StructureReport:
    """Aggregate of the structural checks over one sampled box.

    samples are the states the checks ran on; they are not serialized.
    degeneracy starts empty and takes one verdict per sigma probed.
    """

    box: Box
    n_samples: int
    seed: int
    samples: list[State] = field(repr=False)
    e_spd: CheckResult
    a0_symmetric: CheckResult
    b_rank: RankResult
    b_coercivity: CheckResult
    degeneracy: list[DegeneracyVerdict] = field(default_factory=list)

    def structural_pass(self) -> bool:
        """True when the hypotheses hold (degeneracy verdicts excluded)."""
        return all(getattr(self, name).passed for name, *_ in _MATRIX_CHECKS)

    def to_json_dict(self) -> dict:
        def state_list(s: State | None):
            return None if s is None else [s.rho, s.v, s.theta]

        checks = {}
        for name, _, values, _ in _MATRIX_CHECKS:
            c = getattr(self, name)
            checks[name] = {"passed": c.passed, **values(c), "witness": state_list(c.witness)}
        return {
            "box": {"rho": list(self.box.rho), "v": list(self.box.v), "theta": list(self.box.theta)},
            "n_samples": self.n_samples,
            "seed": self.seed,
            **checks,
            "degeneracy": [
                {
                    "sigma": d.sigma,
                    "verdict": d.verdict,
                    "dims_observed": sorted(set(d.dims)),
                    "witnesses": [
                        {"state": state_list(s), "kernel_dim": dim} for s, dim in d.witnesses
                    ],
                }
                for d in self.degeneracy
            ],
            "structural_pass": self.structural_pass(),
        }

    def to_text(self) -> str:
        lines = [
            f"structure report  (samples={self.n_samples}, seed={self.seed})",
            f"  box: rho in {list(self.box.rho)}, v in {list(self.box.v)}, theta in {list(self.box.theta)}",
        ]
        for name, label, values, text in _MATRIX_CHECKS:
            c = getattr(self, name)
            lines.append(f"  {label + ':':31}{'pass' if c.passed else 'FAIL'} ({text.format(**values(c))})")
        for d in self.degeneracy:
            lines.append(
                f"  block linear degeneracy at sigma={d.sigma:g}: {d.verdict}"
                f" (kernel dims {sorted(set(d.dims))})"
            )
            for s, dim in d.witnesses:
                lines.append(
                    f"    witness: state ({s.rho:g}, {s.v:g}, {s.theta:g}) -> kernel dim {dim}"
                )
        lines.append(f"  structural hypotheses: {'pass' if self.structural_pass() else 'FAIL'}")
        return "\n".join(lines)


def check_structure(
    gas: GasModel,
    box: Box,
    n_samples: int = 200,
    seed: int = 0,
    assemble_a=assemble_A,
    assemble_b=assemble_B,
    assemble_e=assemble_E,
) -> StructureReport:
    """Run the sampling checks on one box; degeneracy verdicts stay empty.

    n_samples (at least 1) and seed (at least 0) are integers, not bools;
    any other value is a DomainError that names the argument.
    The assembler arguments exist so tests can inject corrupted matrices;
    normal callers never touch them. Each takes the samples as columns
    (an object whose rho, v and theta are arrays, see `system`), returns
    the (n, 3, 3) stack and is called once per check.
    Raises DomainError naming the first sampled state whose E, A(u, 0)
    or B cannot be assembled (division by zero or overflow) or has a
    non-finite entry: no check can be decided there.
    E's definiteness and B's rank are read on the congruent matrices
    D^-1/2 M D^-1/2 with D = |diag M| (a zero entry read as 1), which have
    M's inertia and rank (`_diag_scaled`). So DEFAULT_RANK_TOL compares
    entries of one scale and k/theta^2 at theta 1e11 is not read as zero,
    and a positive diagonal E whose entries span more than the float
    range (rho 1e300 at theta 1.8e-4) is not taken below LAPACK's
    underflow. The reported E value is the smallest eigenvalue of the
    scaled E, the value the verdict reads.
    """
    n_samples = _integer(n_samples, "n_samples", 1, "check_structure")
    seed = _integer(seed, "seed", 0, "check_structure")
    box.validate(gas)
    samples = box.sample(n_samples, np.random.default_rng(seed))
    E, A0, B = _assemble(gas, samples, (assemble_e, assemble_a, assemble_b), "sampled state")

    # symmetric parts as 0.5 M + 0.5 M^T: the bits of 0.5 (M + M^T) wherever
    # that neither overflows nor turns subnormal, and finite for a finite M.
    # A scaled entry past the float range has |S_ij| > 1 >= sqrt(|S_ii S_jj|),
    # so that E is not definite either.
    E_T = E.swapaxes(-1, -2)
    with np.errstate(over="ignore"):
        S = _diag_scaled(0.5 * E + 0.5 * E_T, E)
    finite = np.isfinite(S).all(axis=(-2, -1))
    min_eig = np.linalg.eigvalsh(np.where(finite[:, None, None], S, 0.0)).min(axis=-1)
    min_eig[~finite | (np.abs(E - E_T).max(axis=(-2, -1)) > DEFAULT_SYM_TOL)] = -np.inf
    worst_eig, eig_witness = _first_min(min_eig, samples)

    # the first maximum of the asymmetry is the first minimum of its negative
    neg_asym, asym_witness = _first_min(-np.abs(A0 - A0.swapaxes(-1, -2)).max(axis=(-2, -1)), samples)
    worst_asym = -neg_asym

    ranks = B.shape[-2] - kernel_dimension(_diag_scaled(B, B))
    changed = np.flatnonzero(ranks != ranks[0])

    b = B[:, 1:, 1:]
    worst_cb, cb_witness = _first_min(np.linalg.eigvalsh(0.5 * b + 0.5 * b.swapaxes(-1, -2)).min(axis=-1), samples)

    rank_set = sorted(set(ranks.tolist()))
    return StructureReport(
        box=box,
        n_samples=n_samples,
        seed=seed,
        samples=samples,
        e_spd=CheckResult(passed=worst_eig > 0.0, worst=worst_eig, witness=eig_witness),
        a0_symmetric=CheckResult(passed=worst_asym <= DEFAULT_SYM_TOL, worst=worst_asym, witness=asym_witness),
        b_rank=RankResult(
            passed=len(rank_set) == 1,
            ranks=tuple(ranks.tolist()),
            r=rank_set[0] if len(rank_set) == 1 else None,
            witness=samples[changed[-1]] if changed.size else None,
        ),
        b_coercivity=CheckResult(passed=worst_cb > 0.0, worst=worst_cb, witness=cb_witness),
    )


def suggest_sigmas(gas: GasModel, states: Sequence[State]) -> list[float]:
    """Characteristic speeds at the given states, as degeneracy candidates.

    Eigenvalues of E^-1 A(u, 0) are v and v -/+ c; a shifted block can
    only lose rank where sigma meets the flow speed, so these are the
    natural sigmas to probe alongside any user-supplied list. The states
    take `check_structure`'s guarded column assembly, so one that cannot
    be assembled is a DomainError that names it. E is diagonal and
    symmetrizes A, so with D = diag(E) the speeds are the eigenvalues of
    the symmetric D^-1/2 A D^-1/2: real by construction, taken by one
    eigvalsh call over the stack, and read from entries of the order of
    the speeds wherever E's diagonal is positive (a solve with E loses
    the coupling at rho 1e-300). A state where that diagonal is not
    positive (an entry underflows to 0) is a DomainError that names it.
    """
    if not states:
        return []
    E, A, _ = _assemble(gas, states, _OWN_ASSEMBLERS, "state")
    d = np.diagonal(E, axis1=-2, axis2=-1)
    if not (d > 0.0).all():
        s, diag = next((s, row) for s, row in zip(states, d.tolist()) if min(row) <= 0.0)
        raise DomainError(
            f"E's diagonal ({', '.join(f'{x:g}' for x in diag)}) is not positive at state "
            f"(rho, v, theta) = ({s.rho:g}, {s.v:g}, {s.theta:g}), so it has no characteristic speeds"
        )
    return sorted(set(np.linalg.eigvalsh(_diag_scaled(A, E)).ravel().tolist()))
