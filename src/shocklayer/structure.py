"""Structural checks on the symmetrized system over sample boxes.

Coercivity of the parabolic block, symmetry of A at zero gradient,
positive definiteness of E, constancy of rank B, and the block linear
degeneracy question: does the kernel dimension of the shifted hyperbolic
block A11 - sigma E11 stay constant over the states of interest?

All checks are sampling based. Reported constants (like the coercivity
bound c_b) are estimates over the sampled box, not global proofs. Each
check assembles its matrices once per sample and then makes one batched
LAPACK call over the stacked samples.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .errors import DomainError
from .gas import Box, GasModel, State, ZERO_GRADIENT
from .system import assemble_A, assemble_B, assemble_E, blocks

DEFAULT_RANK_TOL = 1e-10
DEFAULT_SYM_TOL = 1e-12
KERNEL_TOL = 1e-10


def kernel_dimension(M: np.ndarray, tol: float = KERNEL_TOL) -> int | np.ndarray:
    """Dimension of ker M by singular value counting.

    A singular value counts toward the rank when it exceeds
    tol * (largest singular value), so the answer is invariant under
    scaling M by a nonzero constant. The zero matrix has full kernel.
    M is one matrix (a scalar counts as 1x1), giving an int, or a stack
    (..., m, k), giving an int array of shape (...) from one batched SVD.
    """
    M = np.asarray(M, dtype=float)
    stacked = M.ndim > 2
    M = np.atleast_2d(M)
    svals = np.linalg.svd(M, compute_uv=False)
    dims = M.shape[-1] - np.count_nonzero(svals > tol * svals[..., :1], axis=-1)
    return dims if stacked else int(dims)


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


def _stack_2d(values: list) -> np.ndarray:
    """Per-sample scalars, vectors or matrices as one (n, m, k) stack.

    Each entry is lifted the way np.atleast_2d lifts it, so broadcasting
    two stacks matches broadcasting their entries sample by sample.
    """
    arr = np.asarray(values, dtype=float)
    shape = arr.shape[1:]
    return arr.reshape((len(values),) + (1,) * (2 - len(shape)) + shape)


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


BlockEval = Callable[[State], float | np.ndarray]


def check_block_linear_degeneracy(
    A11_eval: BlockEval,
    E11_eval: BlockEval,
    sigma: float,
    samples: Sequence[State],
    tol: float = KERNEL_TOL,
) -> DegeneracyVerdict:
    """Kernel dimension of A11(u) - sigma E11(u) across the samples.

    The evaluators may return scalars or small matrices, of one shape
    across the samples. Constancy of the dimension over the sample set is
    the degeneracy condition at this sigma; a violation is reported with
    one witness per observed value, the first sample that shows it.
    """
    samples = list(samples)
    a_vals, e_vals = [], []
    for state in samples:
        a_vals.append(A11_eval(state))
        e_vals.append(E11_eval(state))
    dims = kernel_dimension(_stack_2d(a_vals) - sigma * _stack_2d(e_vals), tol)
    observed, first = np.unique(dims, return_index=True)
    verdict = "satisfied" if observed.size <= 1 else "violated"
    witnesses = tuple((samples[i], int(d)) for d, i in zip(observed, first))
    return DegeneracyVerdict(sigma=float(sigma), dims=tuple(dims.tolist()), verdict=verdict, witnesses=witnesses)


def eulerian_block_evals(gas: GasModel) -> tuple[BlockEval, BlockEval]:
    """(A11, E11) evaluators of the Eulerian symmetrized system.

    The pair shares one `blocks` assembly per distinct state, kept for
    as long as the pair lives, so A11, E11 and every sigma probed on the
    same samples read the same values.
    """
    cache: dict[State, tuple[float, float]] = {}

    def a11_e11(state: State) -> tuple[float, float]:
        pair = cache.get(state)
        if pair is None:
            blk = blocks(gas, state)
            pair = cache[state] = (blk.a11, blk.E11)
        return pair

    def a11_eval(state: State) -> float:
        return a11_e11(state)[0] * state.v

    def e11_eval(state: State) -> float:
        return a11_e11(state)[1]

    return a11_eval, e11_eval


def lagrangian_block_evals(gas: GasModel) -> tuple[BlockEval, BlockEval]:
    """(A11, E11) evaluators of the mass-coordinate form: A11 = 0, E11 = 1."""
    return (lambda state: 0.0), (lambda state: 1.0)


@dataclass
class StructureReport:
    """Aggregate of the structural checks over one sampled box."""

    box: Box
    n_samples: int
    seed: int
    e_spd: CheckResult | None = None
    a0_symmetric: CheckResult | None = None
    b_rank: RankResult | None = None
    b_coercivity: CheckResult | None = None
    degeneracy: list[DegeneracyVerdict] = field(default_factory=list)

    def structural_pass(self) -> bool:
        """True when the hypotheses hold (degeneracy verdicts excluded)."""
        parts = (self.e_spd, self.a0_symmetric, self.b_rank, self.b_coercivity)
        return all(p is not None and p.passed for p in parts)

    def to_json_dict(self) -> dict:
        def state_list(s: State | None):
            return None if s is None else [s.rho, s.v, s.theta]

        return {
            "box": {"rho": list(self.box.rho), "v": list(self.box.v), "theta": list(self.box.theta)},
            "n_samples": self.n_samples,
            "seed": self.seed,
            "e_spd": None if self.e_spd is None else {
                "passed": self.e_spd.passed,
                "min_eigenvalue": self.e_spd.worst,
                "witness": state_list(self.e_spd.witness),
            },
            "a0_symmetric": None if self.a0_symmetric is None else {
                "passed": self.a0_symmetric.passed,
                "max_asymmetry": self.a0_symmetric.worst,
                "witness": state_list(self.a0_symmetric.witness),
            },
            "b_rank": None if self.b_rank is None else {
                "passed": self.b_rank.passed,
                "ranks_observed": sorted(set(self.b_rank.ranks)),
                "r": self.b_rank.r,
                "witness": state_list(self.b_rank.witness),
            },
            "b_coercivity": None if self.b_coercivity is None else {
                "passed": self.b_coercivity.passed,
                "c_b": self.b_coercivity.worst,
                "witness": state_list(self.b_coercivity.witness),
            },
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
        if self.e_spd is not None:
            lines.append(
                f"  E symmetric positive definite: {'pass' if self.e_spd.passed else 'FAIL'}"
                f" (min eigenvalue {self.e_spd.worst:.6e})"
            )
        if self.a0_symmetric is not None:
            lines.append(
                f"  A symmetric at zero gradient:  {'pass' if self.a0_symmetric.passed else 'FAIL'}"
                f" (max asymmetry {self.a0_symmetric.worst:.6e})"
            )
        if self.b_rank is not None:
            lines.append(
                f"  B rank constant:               {'pass' if self.b_rank.passed else 'FAIL'}"
                f" (ranks {sorted(set(self.b_rank.ranks))})"
            )
        if self.b_coercivity is not None:
            lines.append(
                f"  parabolic block coercive:      {'pass' if self.b_coercivity.passed else 'FAIL'}"
                f" (c_b {self.b_coercivity.worst:.6e}, box estimate)"
            )
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
    rank_tol: float = DEFAULT_RANK_TOL,
    sym_tol: float = DEFAULT_SYM_TOL,
    assemble_a=assemble_A,
    assemble_b=assemble_B,
    assemble_e=assemble_E,
) -> StructureReport:
    """Run the sampling checks on one box; degeneracy verdicts stay empty.

    The assembler arguments exist so tests can inject corrupted matrices;
    normal callers never touch them. Each is called once per sample.
    Raises DomainError naming the first sampled state whose E, A(u, 0)
    or B cannot be assembled (division by zero or overflow) or has a
    non-finite entry: no check can be decided there.
    """
    if n_samples < 1:
        raise DomainError(f"check_structure needs at least one sample, got n_samples={n_samples}")
    box.validate(gas)
    rng = np.random.default_rng(seed)
    samples = box.sample(n_samples, rng)
    report = StructureReport(box=box, n_samples=n_samples, seed=seed)

    Es, A0s, Bs = [], [], []
    try:
        for state in samples:
            E, A0, B = assemble_e(gas, state), assemble_a(gas, state, ZERO_GRADIENT), assemble_b(gas, state)
            Es.append(E)
            A0s.append(A0)
            Bs.append(B)
    except (ZeroDivisionError, OverflowError):
        pass  # the state after the last assembled one is named below
    E, A0, B = _stack_2d(Es), _stack_2d(A0s), _stack_2d(Bs)
    finite = np.logical_and.reduce([np.isfinite(M).all(axis=(-2, -1)) for M in (E, A0, B)])
    bad = np.flatnonzero(~finite)
    first_bad = int(bad[0]) if bad.size else len(Es)
    if first_bad < n_samples:
        s = samples[first_bad]
        raise DomainError(
            "E, A(u, 0) or B cannot be assembled or is not finite at sampled state "
            f"(rho, v, theta) = ({s.rho:g}, {s.v:g}, {s.theta:g})"
        )

    E_T = E.swapaxes(-1, -2)
    min_eig = np.linalg.eigvalsh(0.5 * (E + E_T)).min(axis=-1)
    min_eig[np.abs(E - E_T).max(axis=(-2, -1)) > sym_tol] = -np.inf
    worst_eig, eig_witness = _first_min(min_eig, samples)

    # the first maximum of the asymmetry is the first minimum of its negative
    neg_asym, asym_witness = _first_min(-np.abs(A0 - A0.swapaxes(-1, -2)).max(axis=(-2, -1)), samples)
    worst_asym = -neg_asym

    ranks = B.shape[-2] - kernel_dimension(B, rank_tol)
    changed = np.flatnonzero(ranks != ranks[0])

    b = B[:, 1:, 1:]
    worst_cb, cb_witness = _first_min(np.linalg.eigvalsh(0.5 * (b + b.swapaxes(-1, -2))).min(axis=-1), samples)

    report.e_spd = CheckResult(passed=worst_eig > 0.0, worst=worst_eig, witness=eig_witness)
    report.a0_symmetric = CheckResult(passed=worst_asym <= sym_tol, worst=worst_asym, witness=asym_witness)
    rank_set = sorted(set(ranks.tolist()))
    report.b_rank = RankResult(
        passed=len(rank_set) == 1,
        ranks=tuple(ranks.tolist()),
        r=rank_set[0] if len(rank_set) == 1 else None,
        witness=samples[changed[-1]] if changed.size else None,
    )
    report.b_coercivity = CheckResult(passed=worst_cb > 0.0, worst=worst_cb, witness=cb_witness)
    return report


def suggest_sigmas(gas: GasModel, states: Sequence[State]) -> list[float]:
    """Characteristic speeds at the given states, as degeneracy candidates.

    Eigenvalues of E^-1 A(u, 0) are v and v -/+ c; a shifted block can
    only lose rank where sigma meets the flow speed, so these are the
    natural sigmas to probe alongside any user-supplied list.
    """
    out: set[float] = set()
    for state in states:
        blk = blocks(gas, state)
        lam = np.linalg.eigvals(np.linalg.solve(blk.E, blk.A))
        out.update(float(x) for x in np.real(lam))
    return sorted(out)
