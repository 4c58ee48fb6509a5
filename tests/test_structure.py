"""Tests for the structural condition checker.

Covers the kernel-dimension helper, the sampled hypothesis checks with
deliberately corrupted assemblers, the shifted-block degeneracy verdicts
in both coordinate forms, and report serialization. The batched checks
are compared with a per-sample reference loop over generated gases and
boxes, extreme ones included, and the assemblers' column stacks with
their per-state matrices, bit for bit.
"""

import functools
import gc
import json
import math
import operator
import re
import sys
import warnings
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shocklayer import (
    Box,
    DomainError,
    GasModel,
    PowerLaw,
    State,
    assemble_A,
    assemble_B,
    assemble_E,
    check_block_linear_degeneracy,
    check_structure,
    eulerian_block_evals,
    kernel_dimension,
    suggest_sigmas,
)
from shocklayer import structure
from shocklayer.gas import ZERO_GRADIENT, Gradient
from shocklayer.structure import CheckResult, DegeneracyVerdict, RankResult, StructureReport, _Columns
from shocklayer.system import _assemble_EAB, blocks

from lagrangian import lagrangian_block_evals


# Per-sample reference: one matrix, one LAPACK call and one running
# worst value at a time, the way the checks were first written.

def reference_kernel_dimension(M, tol=1e-10):
    M = np.atleast_2d(np.asarray(M, dtype=float))
    n = M.shape[1]
    svals = np.linalg.svd(M, compute_uv=False)
    if svals.size == 0 or svals[0] == 0.0:
        return n
    return n - int(np.count_nonzero(svals > tol * svals[0]))


def reference_degeneracy(A11_eval, E11_eval, sigma, samples, tol=1e-10):
    dims = []
    first_witness = {}
    for state in samples:
        block = np.atleast_2d(
            np.asarray(A11_eval(state), dtype=float) - sigma * np.asarray(E11_eval(state), dtype=float)
        )
        dim = reference_kernel_dimension(block, tol)
        dims.append(dim)
        first_witness.setdefault(dim, state)
    verdict = "satisfied" if len(first_witness) <= 1 else "violated"
    witnesses = tuple((first_witness[d], d) for d in sorted(first_witness))
    return DegeneracyVerdict(sigma=float(sigma), dims=tuple(dims), verdict=verdict, witnesses=witnesses)


def reference_check_structure(
    gas, box, n_samples, seed, assemble_a=assemble_A, assemble_b=assemble_B, assemble_e=assemble_E,
):
    rank_tol, sym_tol = structure.DEFAULT_RANK_TOL, structure.DEFAULT_SYM_TOL
    box.validate(gas)
    samples = box.sample(n_samples, np.random.default_rng(seed))
    worst_eig, eig_witness = np.inf, None
    worst_asym, asym_witness = -np.inf, None
    ranks, rank_witness = [], None
    worst_cb, cb_witness = np.inf, None
    for state in samples:
        try:
            E, A0, B = assemble_e(gas, state), assemble_a(gas, state, ZERO_GRADIENT), assemble_b(gas, state)
        except (ZeroDivisionError, OverflowError):
            E = None
        if E is None or not all(np.all(np.isfinite(M)) for M in (E, A0, B)):
            raise DomainError(
                "E, A(u, 0) or B cannot be assembled or is not finite at sampled state "
                f"(rho, v, theta) = ({state.rho:g}, {state.v:g}, {state.theta:g})"
            )
        # definiteness of D^-1/2 E D^-1/2, D = |diag E| with a zero entry read as 1: E's inertia, free of E's scales;
        # an entry past the float range is larger than the diagonal allows, so that E is not definite
        d = np.abs(np.diag(E))
        d = 1.0 / np.sqrt(np.where(d == 0.0, 1.0, d))
        with np.errstate(over="ignore"):
            S = d[:, None] * (0.5 * E + 0.5 * E.T) * d[None, :]
        min_eig = float(np.linalg.eigvalsh(S).min()) if np.isfinite(S).all() else -np.inf
        if float(np.abs(E - E.T).max()) > sym_tol:
            min_eig = -np.inf
        if min_eig < worst_eig:
            worst_eig, eig_witness = min_eig, state
        asym = float(np.abs(A0 - A0.T).max())
        if asym > worst_asym:
            worst_asym, asym_witness = asym, state
        # the rank of D^-1/2 B D^-1/2, D = |diag B| with a zero entry read as 1: B's rank, free of B's scales
        d = np.abs(np.diag(B))
        d = 1.0 / np.sqrt(np.where(d == 0.0, 1.0, d))
        rank = B.shape[0] - reference_kernel_dimension(d[:, None] * B * d[None, :], rank_tol)
        ranks.append(rank)
        if rank != ranks[0]:
            rank_witness = state
        b = B[1:, 1:]
        cb = float(np.linalg.eigvalsh(0.5 * b + 0.5 * b.T).min())
        if cb < worst_cb:
            worst_cb, cb_witness = cb, state
    rank_set = sorted(set(ranks))
    return StructureReport(
        box=box,
        n_samples=n_samples,
        seed=seed,
        samples=samples,
        e_spd=CheckResult(passed=worst_eig > 0.0, worst=worst_eig, witness=eig_witness),
        a0_symmetric=CheckResult(passed=worst_asym <= sym_tol, worst=worst_asym, witness=asym_witness),
        b_rank=RankResult(
            passed=len(rank_set) == 1,
            ranks=tuple(ranks),
            r=rank_set[0] if len(rank_set) == 1 else None,
            witness=rank_witness,
        ),
        b_coercivity=CheckResult(passed=worst_cb > 0.0, worst=worst_cb, witness=cb_witness),
    )


def reference_eulerian_evals(gas):
    """One E assembly per call, no cache: A11 = E[0, 0] v and E11 = E[0, 0]."""
    return (lambda s: assemble_E(gas, s)[0, 0] * s.v), (lambda s: assemble_E(gas, s)[0, 0])


# Each corruption takes one State or the samples as columns (see
# `system`), so the batched check and the per-sample reference call the
# same helper: entries are indexed as [..., i, j] and the per-sample
# conditions go through np.where.

def _indefinite_e(g, state):
    E = assemble_E(g, state).copy()
    E[..., 0, 0] = -E[..., 0, 0]
    return E


def _asymmetric_e(g, state):
    E = assemble_E(g, state).copy()
    E[..., 0, 1] += 1e-6
    return E


def _asymmetric_a(g, state, grad):
    A = assemble_A(g, state, grad).copy()
    A[..., 0, 2] += 1e-6
    return A


def _nan_a(g, state, grad):
    # no check can be decided on a NaN entry: both the reference and the
    # batched check raise DomainError at the first state with v > 0
    A = assemble_A(g, state, grad).copy()
    A[..., 0, 2] = np.where(state.v > 0.0, np.nan, A[..., 0, 2])
    return A


def _rank_jump_b(g, state):
    B = assemble_B(g, state).copy()
    B[..., 2, 2] = np.where(state.v > 0.0, 0.0, B[..., 2, 2])
    return B


def _noncoercive_b(g, state):
    B = assemble_B(g, state).copy()
    B[..., 2, 2] = -B[..., 2, 2]
    return B


CORRUPTIONS = {
    "none": {},
    "indefinite_e": {"assemble_e": _indefinite_e},
    "asymmetric_e": {"assemble_e": _asymmetric_e},
    "asymmetric_a": {"assemble_a": _asymmetric_a},
    "nan_a": {"assemble_a": _nan_a},
    "rank_jump_b": {"assemble_b": _rank_jump_b},
    "noncoercive_b": {"assemble_b": _noncoercive_b},
}


@st.composite
def gases_and_boxes(draw):
    power = st.builds(PowerLaw, st.floats(0.05, 20.0), st.sampled_from([0.0, -0.5, 0.25, 1.0]))
    gas = GasModel(
        R=draw(st.floats(0.1, 10.0)),
        gamma=draw(st.floats(1.0, 5.0 / 3.0, exclude_min=True)),
        nu_law=draw(power),
        k_law=draw(power),
        c_rho=0.1,
    )
    rho_lo = draw(st.floats(0.1, 5.0))
    theta_lo = draw(st.floats(0.05, 5.0))
    v_lo = draw(st.floats(-3.0, 3.0))
    box = Box(
        rho=(rho_lo, rho_lo * draw(st.floats(1.0, 5.0))),
        v=(v_lo, v_lo + draw(st.floats(0.0, 4.0))),
        theta=(theta_lo, theta_lo * draw(st.floats(1.0, 5.0))),
    )
    return gas, box


@st.composite
def extreme_gases_and_boxes(draw):
    """Boxes from about 1e-300 to 1e300 and steep transport laws.

    theta^2 over- and underflows, the transport laws overflow, and
    entries of E, A and B overflow or come within a factor 2 of the
    largest float. The exponent grids straddle the thresholds, so one
    box can hold samples on both sides of one.
    """
    power = st.builds(PowerLaw, st.floats(0.05, 20.0), st.sampled_from([0.0, -0.5, 0.25, 1.0, -2.0, 3.0]))
    gas = GasModel(
        R=draw(st.floats(0.1, 10.0)),
        gamma=draw(st.floats(1.0, 5.0 / 3.0, exclude_min=True)),
        nu_law=draw(power),
        k_law=draw(power),
        c_rho=1e-301,
    )

    def span(exponents):
        lo = 10.0 ** draw(st.one_of(st.floats(-300.0, 300.0), st.sampled_from(exponents)))
        return lo, lo * 10.0 ** draw(st.floats(0.0, 3.0))

    v_scale = 10.0 ** draw(st.floats(-1.0, 307.0))
    v_lo = draw(st.floats(-1.0, 1.0)) * v_scale
    box = Box(
        rho=span([-155.0, 102.0, 299.0]),  # rho^-2 and rho^3 overflow
        v=(v_lo, v_lo + draw(st.floats(0.0, 1.0)) * v_scale),
        # theta^2 under- and overflows; at rho near 1e299 and theta near 1e-5, E33 crosses the largest float
        theta=span([-163.0, -155.0, 153.0, -5.0]),
    )
    return gas, box


class TestKernelDimension:
    def test_zero_matrix_full_kernel(self):
        assert kernel_dimension(np.zeros((3, 3))) == 3
        assert kernel_dimension(np.zeros((1, 3))) == 3

    def test_identity_trivial_kernel(self):
        assert kernel_dimension(np.eye(4)) == 0

    def test_rank_one(self):
        M = np.outer([1.0, 2.0, 3.0], [4.0, 5.0, 6.0])
        assert kernel_dimension(M) == 2

    def test_scale_invariance(self):
        rng = np.random.default_rng(7)
        M = rng.standard_normal((3, 3))
        M[2] = M[0] + M[1]  # force rank 2
        for s in (1.0, 1e8, 1e-8):
            assert kernel_dimension(s * M) == 1

    def test_rectangular(self):
        M = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
        assert kernel_dimension(M) == 1

    def test_scalar_input(self):
        assert kernel_dimension(np.array(0.0)) == 1
        assert kernel_dimension(np.array(2.5)) == 0

    def test_single_matrix_gives_an_int(self):
        assert type(kernel_dimension(np.eye(2))) is int
        assert type(kernel_dimension(2.5)) is int

    @pytest.mark.parametrize("shape", [(3, 3), (1, 1), (1, 3), (3, 1), (2, 3)])
    def test_stack_matches_per_matrix_calls(self, shape):
        # mixed ranks, zero matrices and a tiny nonzero scale in one stack
        rng = np.random.default_rng(3)
        m, k = shape
        mats = []
        for i in range(40):
            r = i % (min(m, k) + 1)
            M = rng.standard_normal((m, r)) @ rng.standard_normal((r, k))
            mats.append(M * (1e-200 if i % 7 == 3 else 1.0))
        stack = np.array(mats)
        dims = kernel_dimension(stack)
        assert dims.shape == (40,)
        expected = [kernel_dimension(M) for M in mats]
        assert dims.tolist() == expected
        assert expected == [reference_kernel_dimension(M) for M in mats]
        assert k - min(m, k) in expected  # full rank
        assert k in expected  # the zero matrices

    def test_nested_stack_keeps_leading_shape(self):
        rng = np.random.default_rng(5)
        stack = rng.standard_normal((2, 4, 3, 3))
        stack[1, 2] = 0.0
        stack[0, 1, 2] = stack[0, 1, 0]
        dims = kernel_dimension(stack)
        assert dims.shape == (2, 4)
        assert dims.tolist() == [[kernel_dimension(M) for M in row] for row in stack]
        assert dims[1, 2] == 3 and dims[0, 1] == 1

    def test_empty_stack(self):
        assert kernel_dimension(np.zeros((0, 1, 1))).shape == (0,)

    def test_reads_the_rank_tolerance_when_it_runs(self, monkeypatch):
        # not a default frozen at import: a direct call reads the constant check_structure reads
        M = np.diag([1.0, 1e-6, 0.0])
        assert kernel_dimension(M) == 1
        monkeypatch.setattr(structure, "DEFAULT_RANK_TOL", 1e-5)
        assert kernel_dimension(M) == 2
        assert kernel_dimension(np.array([M, np.eye(3)])).tolist() == [2, 0]


# velocities at which E[0, 0], and whether `blocks` raises, must not change
V_PROBES = (0.0, -0.0, 5e-324, 1.0, -1.0, 1e300, -1e300)


class TestBlockEvals:
    def test_eulerian_values(self, gas):
        a11_eval, e11_eval = eulerian_block_evals(gas)
        st = State(2.0, 0.5, 1.0)
        # E11 = p_rho / (rho theta) = R / rho; the convective entry carries v
        assert e11_eval(st) == pytest.approx(0.5, rel=1e-14)
        assert a11_eval(st) == pytest.approx(0.25, rel=1e-14)

    def test_one_assembly_per_state_across_sigmas(self, gas, monkeypatch):
        calls = []

        def counted(g, state, *args):
            calls.append(state)
            return blocks(g, state, *args)

        monkeypatch.setattr(structure, "blocks", counted)
        samples = Box(rho=(0.5, 2.0), v=(-1.0, 1.0), theta=(0.5, 2.0)).sample(12, np.random.default_rng(4))
        samples = samples + samples[:3]  # repeated states are assembled once
        a11_eval, e11_eval = eulerian_block_evals(gas)
        for sigma in (-1.0, -0.5, 0.0, 0.5, 1.0):
            check_block_linear_degeneracy(a11_eval, e11_eval, sigma, samples)
        assert len(calls) == len(set(samples)) == 12

    def test_one_assembly_per_rho_theta_across_sigmas(self, gas, monkeypatch):
        # each sigma's critical state State(mid.rho, sigma, mid.theta) shares one assembly,
        # and so does a sample that differs from another in v alone
        calls = []

        def counted(g, state, *args):
            calls.append(state)
            return blocks(g, state, *args)

        monkeypatch.setattr(structure, "blocks", counted)
        box = Box(rho=(0.5, 2.0), v=(-1.0, 1.0), theta=(0.5, 2.0))
        samples = box.sample(12, np.random.default_rng(4))
        samples.append(State(samples[0].rho, 0.25, samples[0].theta))
        mid = box.midpoint()
        a11_eval, e11_eval = eulerian_block_evals(gas)
        criticals = []
        for sigma in (-1.0, -0.5, 0.0, 0.5, 1.0):
            criticals.append(State(mid.rho, sigma, mid.theta))
            check_block_linear_degeneracy(a11_eval, e11_eval, sigma, samples + criticals[-1:])
        assert len(calls) == len({(s.rho, s.theta) for s in samples + criticals}) == 13

    def test_equal_states_share_one_assembly(self, gas, monkeypatch):
        calls = []
        monkeypatch.setattr(structure, "blocks", lambda g, state: calls.append(state) or blocks(g, state))
        a11_eval, e11_eval = eulerian_block_evals(gas)
        first, second = State(1.5, 0.5, 2.0), State(1.5, 0.5, 2.0)
        assert first is not second
        assert (e11_eval(first), a11_eval(first)) == (e11_eval(second), a11_eval(second))
        assert calls == [first]

    def test_short_lived_states_read_their_own_values(self, power_gas):
        # each state is dropped after its one call, so CPython would hand its address to the next
        # one; the pair keeps every state it has read, so a row never answers for another state
        a11_eval, e11_eval = eulerian_block_evals(power_gas)
        ref_a11, ref_e11 = reference_eulerian_evals(power_gas)
        draws = np.random.default_rng(11).uniform([0.5, -1.0, 0.5], [2.0, 1.0, 2.0], size=(10_000, 3))
        for i, (rho, v, theta) in enumerate(draws.tolist()):
            evaluate, reference = (a11_eval, ref_a11) if i % 2 else (e11_eval, ref_e11)
            got = evaluate(State(rho, v, theta))
            assert got.hex() == float(reference(State(rho, v, theta))).hex(), (i, rho, v, theta)

    def test_cached_values_match_fresh_assembly(self, power_gas):
        a11_eval, e11_eval = eulerian_block_evals(power_gas)
        ref_a11, ref_e11 = reference_eulerian_evals(power_gas)
        for st_ in (State(2.0, 0.5, 1.0), State(0.3, -1.25, 4.0), State(2.0, -0.5, 1.0)):
            for _ in range(2):
                assert a11_eval(st_) == ref_a11(st_)
                assert e11_eval(st_) == ref_e11(st_)

    @settings(max_examples=50, deadline=None)
    @given(gb=gases_and_boxes(), seed=st.integers(0, 2**31 - 1))
    def test_eulerian_evals_read_E00(self, gb, seed):
        # bit for bit: E11 is E[0, 0] and A11 is E[0, 0] v
        gas, box = gb
        a11_eval, e11_eval = eulerian_block_evals(gas)
        for s in box.sample(20, np.random.default_rng(seed)):
            e00 = assemble_E(gas, s)[0, 0]
            assert e11_eval(s) == e00
            assert a11_eval(s) == e00 * s.v

    @settings(max_examples=50, deadline=None)
    @given(gb=gases_and_boxes(), seed=st.integers(0, 2**31 - 1))
    def test_e00_reads_no_v(self, gb, seed):
        # the first premise of the (rho, theta) key: E[0, 0] has the same bits at every v
        gas, box = gb
        for s in box.sample(10, np.random.default_rng(seed)):
            bits = {float(assemble_E(gas, State(s.rho, v, s.theta))[0, 0]).hex() for v in V_PROBES + (s.v,)}
            assert len(bits) == 1, (s, bits)

    @pytest.mark.parametrize("v", V_PROBES)
    def test_blocks_raises_at_every_v(self, gas, v):
        # the second premise: theta^2 overflows at theta 1.5e154 whatever v is
        with pytest.raises(OverflowError):
            blocks(gas, State(1.0, v, 1.5e154))


class TestDegeneracy:
    def _samples_with_critical(self, sigma):
        # a generic spread plus one state whose velocity equals sigma
        return [
            State(1.0, -0.7, 1.0),
            State(1.5, 0.6, 0.8),
            State(0.8, sigma, 1.2),
            State(1.2, 0.9, 1.5),
        ]

    def test_eulerian_violated_at_interior_sigma(self, gas):
        a11_eval, e11_eval = eulerian_block_evals(gas)
        sigma = 0.0
        verdict = check_block_linear_degeneracy(
            a11_eval, e11_eval, sigma, self._samples_with_critical(sigma)
        )
        assert verdict.verdict == "violated"
        assert not verdict.satisfied
        assert sorted(set(verdict.dims)) == [0, 1]
        # one witness per distinct kernel dimension, sorted by dimension
        assert [dim for _, dim in verdict.witnesses] == [0, 1]
        crit, dim = verdict.witnesses[1]
        assert crit.v == sigma and dim == 1

    def test_eulerian_violated_at_nonzero_sigma(self, gas):
        a11_eval, e11_eval = eulerian_block_evals(gas)
        sigma = 0.6
        verdict = check_block_linear_degeneracy(
            a11_eval, e11_eval, sigma, self._samples_with_critical(sigma)
        )
        assert verdict.verdict == "violated"
        assert 1 in verdict.dims

    def test_eulerian_satisfied_when_sigma_avoids_flow(self, gas):
        a11_eval, e11_eval = eulerian_block_evals(gas)
        verdict = check_block_linear_degeneracy(
            a11_eval, e11_eval, 5.0, self._samples_with_critical(0.0)
        )
        assert verdict.satisfied
        assert set(verdict.dims) == {0}
        assert len(verdict.witnesses) == 1

    def test_lagrangian_satisfied_everywhere(self, gas):
        # the mass-coordinate block is -sigma E11: kernel dim constant
        a11_eval, e11_eval = lagrangian_block_evals(gas)
        for sigma in (0.0, 0.6, -1.3):
            verdict = check_block_linear_degeneracy(
                a11_eval, e11_eval, sigma, self._samples_with_critical(sigma)
            )
            assert verdict.satisfied, f"sigma={sigma}"
            expected = 1 if sigma == 0.0 else 0
            assert set(verdict.dims) == {expected}

    @pytest.mark.parametrize("samples,named", [
        # sigma E11 overflows at v != sigma: the block is -inf, not a kernel
        ([State(2.0, 0.6, 1.0), State(0.5, 0.6, 1.0)], "(0.5, 0.6, 1)"),
        # A11 and sigma E11 both overflow at v = sigma: inf - inf is NaN
        ([State(2.0, 1e308, 1.0), State(0.5, 1e308, 1.0)], "(0.5, 1e+308, 1)"),
    ], ids=["sigma-E11-overflows", "inf-minus-inf"])
    def test_non_finite_block_is_a_domain_error(self, gas, samples, named):
        # E11 = R / rho: times sigma = 1e308 it is finite at rho = 2 and overflows at rho = 0.5
        a11_eval, e11_eval = eulerian_block_evals(gas)
        msg = f"A11 - sigma E11 is not finite at sigma=1e+308 and state (rho, v, theta) = {named}"
        with pytest.raises(DomainError, match=re.escape(msg)):
            check_block_linear_degeneracy(a11_eval, e11_eval, 1e308, samples)

    def test_empty_sample_list(self, gas):
        # with no dimension observed, a "satisfied" verdict would rest on no evidence
        for a_eval, e_eval in (eulerian_block_evals(gas), lagrangian_block_evals(gas)):
            with pytest.raises(DomainError, match="empty sample set at sigma=0.3"):
                check_block_linear_degeneracy(a_eval, e_eval, 0.3, [])

    def test_sigma_recorded(self, gas):
        a11_eval, e11_eval = eulerian_block_evals(gas)
        verdict = check_block_linear_degeneracy(a11_eval, e11_eval, 0.25, [State(1.0, 0.9, 1.0)])
        assert verdict.sigma == 0.25


def _verdict_or_error(a11_eval, e11_eval, sigma, samples):
    """The verdict, or its DomainError as a string."""
    try:
        return check_block_linear_degeneracy(a11_eval, e11_eval, sigma, samples)
    except DomainError as exc:
        return f"DomainError: {exc}"


def _plain(evaluator):
    """evaluator behind a plain wrapper: the same values from another function, so the per-state path."""
    return lambda state: evaluator(state)


def assert_paths_agree(a11_eval, e11_eval, sigmas, rows, bad_at=None):
    """Each sigma's verdict (dims, verdict, witnesses) or DomainError is the same on both paths.

    Each call gets fresh States, which die with the call's list once the
    pair is gone, with the first three repeated; bad_at, when given, is
    where a state that cannot be assembled (theta^2 overflows) goes.
    The pair answers first on its own, then behind plain wrappers.
    """

    def fresh(sigma):
        samples = [State(*row) for row in rows]
        if bad_at is not None:
            samples.insert(bad_at, State(1.0, sigma, 1.5e154))
        return samples + samples[:3]

    for sigma in sigmas:
        one_pass = _verdict_or_error(a11_eval, e11_eval, sigma, fresh(sigma))
        per_state = _verdict_or_error(_plain(a11_eval), _plain(e11_eval), sigma, fresh(sigma))
        # the verdict's sigma, dims, verdict and witnesses, with the witnesses' bits (-0.0 included)
        assert one_pass == per_state and repr(one_pass) == repr(per_state), sigma


class TestDegeneracyPaths:
    """The package pair's one pass over its rows gives the verdicts of per-state calls."""

    @settings(max_examples=60, deadline=None)
    @given(gb=gases_and_boxes(), n=st.integers(1, 30), seed=st.integers(0, 2**31 - 1), data=st.data())
    def test_one_pass_equals_per_state_calls(self, gb, n, seed, data):
        gas, box = gb
        rows = np.random.default_rng(seed).uniform(
            [box.rho[0], box.v[0], box.theta[0]], [box.rho[1], box.v[1], box.theta[1]], size=(n, 3),
        ).tolist()
        # sigmas at the samples' own velocities (a kernel) and anywhere else
        sigmas = data.draw(st.lists(
            st.one_of(st.sampled_from([v for _, v, _ in rows] + [0.0, -0.0]), st.floats(-4.0, 4.0)),
            min_size=1, max_size=6,
        ))
        bad_at = data.draw(st.none() | st.integers(0, n))
        assert_paths_agree(*eulerian_block_evals(gas), sigmas, rows, bad_at)

    def test_unassemblable_state_raises_the_same_error_on_both_paths(self, gas):
        a11_eval, e11_eval = eulerian_block_evals(gas)
        samples = [State(1.0, 0.0, 1.0), State(2.0, 0.5, 1.5e154), State(1.0, 0.0, 1.5e154)]
        msg = "E, A(u, 0) or B cannot be assembled or is not finite at state (rho, v, theta) = (2, 0.5, 1.5e+154)"
        for pair in ((a11_eval, e11_eval), (_plain(a11_eval), _plain(e11_eval))):
            with pytest.raises(DomainError, match=re.escape(msg)):
                check_block_linear_degeneracy(*pair, 0.0, samples)

    @staticmethod
    def _evaluator_calls(a11_eval, e11_eval, call):
        """The calls of the pair's own evaluators while call() runs, by name."""
        codes = {a11_eval.__code__, e11_eval.__code__}
        calls = []

        def profile(frame, event, arg):
            if event == "call" and frame.f_code in codes:
                calls.append(frame.f_code.co_name)

        sys.setprofile(profile)
        try:
            call()
        finally:
            sys.setprofile(None)
        return calls

    def test_the_package_pair_calls_no_evaluator(self, power_gas, box):
        a11_eval, e11_eval = eulerian_block_evals(power_gas)
        samples = box.sample(20, np.random.default_rng(3))
        sigmas = (-1.0, 0.0, samples[4].v, 1.0)

        def verdicts(a11, e11):
            return lambda: [check_block_linear_degeneracy(a11, e11, sigma, samples) for sigma in sigmas]

        assert self._evaluator_calls(a11_eval, e11_eval, verdicts(a11_eval, e11_eval)) == []
        # behind plain wrappers every sample costs one call of each
        calls = self._evaluator_calls(a11_eval, e11_eval, verdicts(_plain(a11_eval), _plain(e11_eval)))
        assert sorted(set(calls)) == ["a11", "e11"] and len(calls) == 2 * 20 * len(sigmas)

    def test_evaluators_of_two_pairs_take_the_per_state_path(self, power_gas, box):
        # only the a11 and e11 of one rows object are read in one pass, in that order
        (a11_one, e11_one), (a11_two, e11_two) = eulerian_block_evals(power_gas), eulerian_block_evals(power_gas)
        samples = box.sample(5, np.random.default_rng(3))
        for a11, e11 in ((a11_one, e11_two), (e11_one, a11_one)):
            calls = self._evaluator_calls(a11, e11, lambda: check_block_linear_degeneracy(a11, e11, 0.5, samples))
            assert len(calls) == 2 * len(samples)

    def test_a_value_changing_wraps_wrapper_takes_the_per_state_path(self, gas):
        # functools.wraps copies name, docstring and __dict__; the wrapper's values must still be read
        a11_eval, e11_eval = eulerian_block_evals(gas)

        @functools.wraps(a11_eval)
        def a11_at_rest(state):  # A11 - E11 v: every block is zero at sigma = 0
            return a11_eval(state) - e11_eval(state) * state.v

        @functools.wraps(e11_eval)
        def e11_doubled(state):
            return 2.0 * e11_eval(state)

        samples = [State(1.0, 0.0, 1.0), State(1.0, 0.5, 1.0), State(2.0, -0.5, 1.5)]
        assert check_block_linear_degeneracy(a11_eval, e11_eval, 0.0, samples).dims == (1, 0, 0)
        assert check_block_linear_degeneracy(a11_at_rest, e11_eval, 0.0, samples).dims == (1, 1, 1)
        # at sigma = 0.25 the doubled E11 puts the kernel at v = 0.5 instead of v = 0.25
        probe = samples + [State(1.0, 0.25, 1.0)]
        assert check_block_linear_degeneracy(a11_eval, e11_eval, 0.25, probe).dims == (0, 0, 0, 1)
        assert check_block_linear_degeneracy(a11_eval, e11_doubled, 0.25, probe).dims == (0, 1, 0, 0)

    def test_evaluators_without_a_rows_object(self, gas):
        # an attrgetter is a plain evaluator of A11 = v, with no __self__ to recognize
        a11_eval, e11_eval = eulerian_block_evals(gas)
        samples = [State(1.0, 0.0, 1.0), State(2.0, 0.5, 1.5)]
        verdict = check_block_linear_degeneracy(operator.attrgetter("v"), e11_eval, 0.5, samples)
        assert verdict.dims == (0, 0)  # v - 0.5 E11 is -0.5 and 0.5 - 0.5 * 0.5
        samples = [State(1.0, 0.5, 1.0), State(2.0, 0.5, 1.5)]  # v - 0.5 rho is 0, then -0.5
        assert check_block_linear_degeneracy(operator.attrgetter("v"), operator.attrgetter("rho"), 0.5, samples).dims == (1, 0)

    def test_a_planted_wrong_reader_fails_the_agreement(self, gas, monkeypatch):
        # the check above can fail: evaluators that swap E11 and A11, while the
        # one pass still reads the rows in their order, are caught
        rows_type = structure._EulerianRows
        a11, e11 = rows_type.a11, rows_type.e11
        monkeypatch.setattr(rows_type, "a11", e11)
        monkeypatch.setattr(rows_type, "e11", a11)
        a11_eval, e11_eval = eulerian_block_evals(gas)
        rows = [(1.0, 0.0, 1.0), (1.5, 0.5, 2.0), (0.8, -0.3, 1.2)]
        with pytest.raises(AssertionError):
            assert_paths_agree(a11_eval, e11_eval, [0.0, 0.5], rows)

    def test_a_pair_holds_no_reference_cycle(self, gas):
        # with the collector off, dropping the pair and the samples frees every State it read
        gc.disable()
        try:
            a11_eval, e11_eval = eulerian_block_evals(gas)
            samples = [State(1.0 + i, 0.1 * i, 1.0) for i in range(5)]
            check_block_linear_degeneracy(a11_eval, e11_eval, 0.3, samples)
            state, pair, rows = weakref.ref(samples[2]), weakref.ref(a11_eval), weakref.ref(a11_eval.__self__)
            del a11_eval, e11_eval, samples
            assert pair() is None and rows() is None
            assert state() is None
        finally:
            gc.enable()


class TestCheckStructure:
    def test_clean_gas_passes(self, gas, box):
        report = check_structure(gas, box, n_samples=200, seed=0)
        assert report.structural_pass()
        assert report.e_spd.passed and report.e_spd.worst > 0.0
        assert report.a0_symmetric.passed and report.a0_symmetric.worst <= 1e-12
        assert report.b_rank.passed and report.b_rank.r == 2
        assert report.b_coercivity.passed and report.b_coercivity.worst > 0.0
        assert report.degeneracy == []

    def test_power_law_gas_passes(self, power_gas, box):
        report = check_structure(power_gas, box, n_samples=100, seed=3)
        assert report.structural_pass()
        assert report.b_rank.r == 2

    def test_seed_determinism(self, gas, box):
        r1 = check_structure(gas, box, n_samples=50, seed=11)
        r2 = check_structure(gas, box, n_samples=50, seed=11)
        assert r1.e_spd.worst == r2.e_spd.worst
        assert r1.b_coercivity.worst == r2.b_coercivity.worst

    def test_detects_indefinite_e(self, gas, box):
        report = check_structure(gas, box, n_samples=50, seed=0, assemble_e=_indefinite_e)
        assert not report.e_spd.passed
        assert report.e_spd.worst < 0.0
        assert report.e_spd.witness is not None
        assert not report.structural_pass()

    def test_detects_asymmetric_e(self, gas, box):
        report = check_structure(gas, box, n_samples=50, seed=0, assemble_e=_asymmetric_e)
        assert not report.e_spd.passed

    def test_detects_asymmetric_a(self, gas, box):
        report = check_structure(gas, box, n_samples=50, seed=0, assemble_a=_asymmetric_a)
        assert not report.a0_symmetric.passed
        assert report.a0_symmetric.worst >= 1e-6
        assert not report.structural_pass()

    def test_detects_rank_jump(self, gas, box):
        report = check_structure(gas, box, n_samples=100, seed=0, assemble_b=_rank_jump_b)
        assert not report.b_rank.passed
        assert report.b_rank.r is None
        assert set(report.b_rank.ranks) == {1, 2}
        assert report.b_rank.witness is not None
        assert not report.structural_pass()

    def test_detects_noncoercive_block(self, gas, box):
        report = check_structure(gas, box, n_samples=50, seed=0, assemble_b=_noncoercive_b)
        assert report.b_rank.passed  # rank is still 2
        assert not report.b_coercivity.passed
        assert report.b_coercivity.worst < 0.0
        assert not report.structural_pass()

    def test_nan_entry_rejected_at_first_state(self, gas, box):
        samples = box.sample(50, np.random.default_rng(0))
        first = next(s for s in samples if s.v > 0.0)
        with pytest.raises(DomainError, match="not finite at sampled state") as info:
            check_structure(gas, box, n_samples=50, seed=0, assemble_a=_nan_a)
        assert f"({first.rho:g}, {first.v:g}, {first.theta:g})" in str(info.value)

    @pytest.mark.parametrize("box_ranges", [
        dict(rho=(1e300, 1e300), v=(-1.0, 1.0), theta=(1e-300, 1e-300)),  # theta ** 2 underflows to 0
        dict(rho=(10.0, 10.0), v=(1e307, 1e308), theta=(0.5, 2.0)),  # A overflows to inf
        dict(rho=(1e300, 1e300), v=(-1.0, 1.0), theta=(1e-10, 1e-10)),  # E overflows to inf
    ])
    def test_unassemblable_matrices_rejected(self, gas, box_ranges):
        box = Box(**box_ranges)
        box.validate(gas)
        samples = box.sample(20, np.random.default_rng(0))
        with pytest.raises(DomainError, match="cannot be assembled or is not finite") as info:
            check_structure(gas, box, n_samples=20, seed=0)
        s = samples[0]
        assert f"({s.rho:g}, {s.v:g}, {s.theta:g})" in str(info.value)

    def test_bad_box_rejected(self, gas):
        with pytest.raises(DomainError):
            check_structure(gas, Box(rho=(0.0, 1.0), v=(-1.0, 1.0), theta=(0.5, 2.0)))

    @pytest.mark.parametrize("n", [0, -3])
    def test_no_samples_rejected(self, gas, box, n):
        # without samples every check would pass on no evidence
        with pytest.raises(DomainError, match=f"n_samples={n}"):
            check_structure(gas, box, n_samples=n)

    def test_single_sample(self, gas, box):
        report = check_structure(gas, box, n_samples=1, seed=2)
        assert report.structural_pass()
        assert report.to_json_dict() == reference_check_structure(gas, box, 1, 2).to_json_dict()

    @pytest.mark.parametrize("theta", [(1.0, 1e11), (1e11, 1e11), (1e30, 1e100)])
    def test_b_rank_is_not_read_from_its_scale(self, gas, theta):
        # B = diag(0, 1/theta, 1/theta^2) has rank 2 at every state; counted on B itself, 1/theta^2
        # falls under DEFAULT_RANK_TOL times 1/theta once theta > 1e10, and the rank read 1
        box = Box(rho=(0.5, 2.0), v=(-1.0, 1.0), theta=theta)
        report = check_structure(gas, box, n_samples=50, seed=0)
        assert report.b_rank == RankResult(passed=True, ranks=(2,) * 50, r=2, witness=None)
        assert report.structural_pass()
        assert report.to_json_dict() == reference_check_structure(gas, box, 50, 0).to_json_dict()
        assert kernel_dimension(assemble_B(gas, State(1.0, 0.0, 1e11))) == 2

    @pytest.mark.parametrize("rho,theta", [(1e300, 1.8e-4), (1e-300, 1.0), (1e-300, 1e-10)])
    def test_e_verdict_past_lapack_scaling(self, rho, theta):
        # E is a positive diagonal whose entries span more than the float range: eigvalsh on E
        # itself scales it by its largest entry, and its smallest eigenvalue underflows to 0. On
        # D^-1/2 E D^-1/2 the diagonal is 1, so E reads as positive definite.
        gas, box = GasModel(c_rho=1e-310), Box(rho=(rho, rho), v=(0.0, 0.0), theta=(theta, theta))
        report = check_structure(gas, box, n_samples=200, seed=0)
        E = assemble_E(gas, State(rho, 0.0, theta))
        d = np.diag(E).tolist()
        assert min(d) > 0.0 and math.log10(max(d)) - math.log10(min(d)) > math.log10(sys.float_info.max)
        assert np.linalg.eigvalsh(E).min() == 0.0
        assert report.e_spd.passed and report.e_spd.worst == pytest.approx(1.0, rel=1e-15)
        assert report.structural_pass()
        assert "  E symmetric positive definite: pass (min eigenvalue 1.000000e+00 of D^-1/2 E D^-1/2)\n" in report.to_text()

    def test_e_entry_past_the_float_range_is_not_definite(self, gas, box):
        # scaled, this off-diagonal entry overflows; unscaled, E is plainly indefinite
        def spread_e(g, state):
            E = np.zeros(np.shape(state.rho) + (3, 3))
            E[..., 0, 0], E[..., 1, 1], E[..., 2, 2] = 1e-200, 1e-200, 1.0
            E[..., 0, 1] = E[..., 1, 0] = 1e200
            return E

        report = check_structure(gas, box, n_samples=5, seed=0, assemble_e=spread_e)
        assert report.e_spd == CheckResult(passed=False, worst=-np.inf, witness=report.samples[0])
        assert report == reference_check_structure(gas, box, 5, 0, assemble_e=spread_e)

    @pytest.mark.parametrize("key,value", [
        ("n_samples", True), ("n_samples", 2.5), ("n_samples", "3"), ("n_samples", None),
        ("seed", True), ("seed", False), ("seed", 2.5), ("seed", "0"),
    ])
    def test_non_integer_count_is_refused_by_name(self, gas, box, key, value):
        with pytest.raises(DomainError, match=f"check_structure's {key} must be an integer, got {re.escape(repr(value))}"):
            check_structure(gas, box, **{key: value})

    def test_negative_seed_is_refused_by_name(self, gas, box):
        with pytest.raises(DomainError, match="check_structure's seed must be at least 0, got seed=-1"):
            check_structure(gas, box, n_samples=5, seed=-1)

    def test_integer_like_counts_are_accepted(self, gas, box):
        report = check_structure(gas, box, n_samples=np.int64(7), seed=np.uint8(3))
        assert type(report.n_samples) is int and type(report.seed) is int
        assert report == check_structure(gas, box, n_samples=7, seed=3)


def _outcome(check, *args, **kwargs):
    """The report of a structure check, or its DomainError as a string."""
    try:
        return check(*args, **kwargs)
    except DomainError as exc:
        return f"DomainError: {exc}"


class TestBatchedMatchesReference:
    """The batched checks give the per-sample loop's report (or error), byte for byte."""

    @staticmethod
    def _with_degeneracy(report, gas, box, a11_eval, e11_eval, degeneracy):
        mid = box.midpoint()
        for sigma in [0.0] + suggest_sigmas(gas, [mid] + report.samples[:8]):
            critical = State(mid.rho, sigma, mid.theta)
            report.degeneracy.append(degeneracy(a11_eval, e11_eval, sigma, report.samples + [critical]))
        return report

    @pytest.mark.parametrize("corruption", sorted(CORRUPTIONS))
    @settings(max_examples=25, deadline=None)
    @given(gb=gases_and_boxes(), n=st.integers(1, 60), seed=st.integers(0, 2**31 - 1))
    def test_report_is_identical(self, corruption, gb, n, seed):
        gas, box = gb
        kw = CORRUPTIONS[corruption]
        report = _outcome(check_structure, gas, box, n_samples=n, seed=seed, **kw)
        ref = _outcome(reference_check_structure, gas, box, n, seed, **kw)
        if isinstance(ref, str):
            assert report == ref
            return
        report = self._with_degeneracy(report, gas, box, *eulerian_block_evals(gas), check_block_linear_degeneracy)
        ref = self._with_degeneracy(ref, gas, box, *reference_eulerian_evals(gas), reference_degeneracy)
        assert report == ref
        assert json.dumps(report.to_json_dict(), sort_keys=True) == json.dumps(ref.to_json_dict(), sort_keys=True)

    @settings(max_examples=25, deadline=None)
    @given(gb=gases_and_boxes(), n=st.integers(1, 40), seed=st.integers(0, 2**31 - 1))
    def test_lagrangian_degeneracy_is_identical(self, gb, n, seed):
        gas, box = gb
        a11_eval, e11_eval = lagrangian_block_evals(gas)
        report = self._with_degeneracy(
            check_structure(gas, box, n_samples=n, seed=seed), gas, box, a11_eval, e11_eval,
            check_block_linear_degeneracy,
        )
        ref = self._with_degeneracy(
            reference_check_structure(gas, box, n, seed), gas, box, a11_eval, e11_eval, reference_degeneracy,
        )
        assert report == ref

    @pytest.mark.parametrize("block_evals", [eulerian_block_evals, lagrangian_block_evals])
    @settings(max_examples=50, deadline=None)
    @given(gb=gases_and_boxes(), n=st.integers(1, 30), seed=st.integers(0, 2**31 - 1), data=st.data())
    def test_exact_count_equals_svd_reference(self, block_evals, gb, n, seed, data):
        # sigmas at the samples' own velocities, at +-0 and subnormal; the
        # states at v = +-0 and a subnormal v leave A11 - sigma E11 subnormal
        gas, box = gb
        mid = box.midpoint()
        samples = box.sample(n, np.random.default_rng(seed))
        samples += [State(mid.rho, v, mid.theta) for v in (0.0, -0.0, 1e-310)]
        sigmas = data.draw(st.lists(st.one_of(
            st.sampled_from([s.v for s in samples]),
            st.sampled_from([0.0, -0.0, 5e-324, -1e-320]),
            st.floats(-2.3e-308, 2.3e-308),
            st.floats(-4.0, 4.0),
        ), min_size=1, max_size=8))
        a11_eval, e11_eval = block_evals(gas)
        for sigma in sigmas:
            probe = samples + [State(mid.rho, sigma, mid.theta)]
            verdict = check_block_linear_degeneracy(a11_eval, e11_eval, sigma, probe)
            assert verdict == reference_degeneracy(a11_eval, e11_eval, sigma, probe)

    @pytest.mark.parametrize("corruption", sorted(CORRUPTIONS))
    def test_fixture_box_is_identical(self, gas, box, corruption):
        kw = CORRUPTIONS[corruption]
        report = _outcome(check_structure, gas, box, n_samples=100, seed=0, **kw)
        ref = _outcome(reference_check_structure, gas, box, 100, 0, **kw)
        assert report == ref
        if not isinstance(ref, str):
            assert report.to_text() == ref.to_text()


# the package's assemblers behind plain wrappers: the same matrices, called one by one
WRAPPED = {
    "assemble_a": lambda g, state, grad: assemble_A(g, state, grad),
    "assemble_b": lambda g, state: assemble_B(g, state),
    "assemble_e": lambda g, state: assemble_E(g, state),
}


def _columns(samples):
    """The samples as the column view check_structure hands its assemblers."""
    return _Columns(*(np.array([getattr(s, name) for s in samples]) for name in ("rho", "v", "theta")))


def _per_state(assemble, gas, samples, *args):
    """Each sample's matrix, or the class of the exception its assembly raised."""
    out = []
    for s in samples:
        try:
            out.append(assemble(gas, s, *args))
        except (ZeroDivisionError, OverflowError) as exc:
            out.append(type(exc))
    return out


class TestColumnAssembly:
    """One assembler call over the sample columns gives every per-state matrix, bit for bit."""

    @pytest.mark.parametrize("assemble,args", [
        (assemble_E, ()),
        (assemble_A, (ZERO_GRADIENT,)),
        (assemble_A, (Gradient(0.7, -0.4, 0.9),)),
        (assemble_B, ()),
    ], ids=["E", "A0", "A-gradient", "B"])
    @settings(max_examples=60, deadline=None)
    @given(gb=st.one_of(gases_and_boxes(), extreme_gases_and_boxes()), n=st.integers(1, 40),
           seed=st.integers(0, 2**31 - 1))
    def test_stack_is_the_per_state_matrices(self, assemble, args, gb, n, seed):
        gas, box = gb
        samples = box.sample(n, np.random.default_rng(seed))
        per_state = _per_state(assemble, gas, samples, *args)
        overflowed = any(M is OverflowError for M in per_state)
        try:
            with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
                stack = assemble(gas, _columns(samples), *args)
        except OverflowError:
            # a float power that overflows raises for the whole set, as it does for its state
            assert overflowed
            return
        assert not overflowed
        assert stack.shape == (n, 3, 3)
        for M, S in zip(per_state, stack):
            if M is ZeroDivisionError:
                assert not np.isfinite(S).all()
            else:
                assert S.tobytes() == M.tobytes()

    @pytest.mark.parametrize("assemble", [assemble_E, assemble_A, assemble_B])
    def test_squares_and_powers_keep_the_float_rounding(self, power_gas, box, assemble):
        # numpy's vectorized ** rounds about one square in 1,200, and more of the
        # powers, unlike a float's **: 5,000 samples hold several of each
        samples = box.sample(5000, np.random.default_rng(0))
        stack = assemble(power_gas, _columns(samples))
        assert stack.tobytes() == np.array([assemble(power_gas, s) for s in samples]).tobytes()

    @pytest.mark.parametrize("box_ranges", [
        dict(rho=(1e300, 1e300), v=(-1.0, 1.0), theta=(1e-300, 1e-300)),  # theta ** 2 underflows to 0
        dict(rho=(10.0, 10.0), v=(1e307, 1e308), theta=(0.5, 2.0)),  # A overflows to inf
        dict(rho=(1e300, 1e300), v=(-1.0, 1.0), theta=(1e-10, 1e-10)),  # E overflows to inf
        dict(rho=(0.5, 2.0), v=(-1.0, 1.0), theta=(1e153, 1e155)),  # theta ** 2 overflows past 1.34e154
        dict(rho=(1e300, 1e300), v=(0.0, 0.0), theta=(1.6e-4, 1.6e-4)),  # 2 E33 overflows
    ])
    @pytest.mark.parametrize("nu_law", [PowerLaw(1.0), PowerLaw(1.2, 3.0)], ids=["constant", "rho-cubed"])
    @pytest.mark.parametrize("corruption", sorted(CORRUPTIONS))
    def test_extreme_boxes_match_the_reference(self, box_ranges, nu_law, corruption):
        gas, box = GasModel(nu_law=nu_law), Box(**box_ranges)
        kw = CORRUPTIONS[corruption]
        for seed in range(3):
            report = _outcome(check_structure, gas, box, n_samples=20, seed=seed, **kw)
            assert report == _outcome(reference_check_structure, gas, box, 20, seed, **kw)

    @pytest.mark.parametrize("corruption", sorted(CORRUPTIONS))
    @settings(max_examples=40, deadline=None)
    @given(gb=extreme_gases_and_boxes(), n=st.integers(1, 30), seed=st.integers(0, 2**31 - 1))
    def test_generated_extremes_match_the_reference(self, corruption, gb, n, seed):
        # the report, or the DomainError naming the first state that cannot be assembled
        gas, box = gb
        kw = CORRUPTIONS[corruption]
        report = _outcome(check_structure, gas, box, n_samples=n, seed=seed, **kw)
        assert report == _outcome(reference_check_structure, gas, box, n, seed, **kw)

    def test_each_assembler_called_once_on_columns(self, power_gas, box):
        calls = []

        def counted(name, assemble):
            def call(g, cols, *args):
                calls.append((name, len(cols.rho), len(cols.v), len(cols.theta)))
                return assemble(g, cols, *args)
            return call

        check_structure(
            power_gas, box, n_samples=65, seed=1, assemble_a=counted("A", assemble_A),
            assemble_b=counted("B", assemble_B), assemble_e=counted("E", assemble_E),
        )
        assert sorted(calls) == [("A", 65, 65, 65), ("B", 65, 65, 65), ("E", 65, 65, 65)]

    def test_own_assemblers_make_one_fused_call(self, power_gas, box, monkeypatch):
        calls = []

        def counted(g, cols, *args):
            calls.append((len(cols.rho), args))
            return _assemble_EAB(g, cols, *args)

        monkeypatch.setattr(structure, "_assemble_EAB", counted)
        report = check_structure(power_gas, box, n_samples=65, seed=1)
        assert calls == [(65, ())]
        monkeypatch.undo()
        assert report == check_structure(power_gas, box, n_samples=65, seed=1, **WRAPPED)

    @settings(max_examples=60, deadline=None)
    @given(gb=st.one_of(gases_and_boxes(), extreme_gases_and_boxes()), n=st.integers(1, 40),
           seed=st.integers(0, 2**31 - 1), grad=st.sampled_from([ZERO_GRADIENT, Gradient(0.7, -0.4, 0.9)]))
    def test_one_assembly_is_the_three(self, gb, n, seed, grad):
        # byte for byte on columns and on each State, or the exception the first of E, A and B raises
        gas, box = gb
        samples = box.sample(n, np.random.default_rng(seed))

        def three(target):
            return np.stack([assemble_E(gas, target), assemble_A(gas, target, grad), assemble_B(gas, target)], axis=-3)

        def outcome(assemble):
            try:
                with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
                    M = assemble()
            except (ZeroDivisionError, OverflowError) as exc:
                return type(exc)
            return M.shape, M.tobytes()

        cols = _columns(samples)
        assert outcome(lambda: _assemble_EAB(gas, cols, grad)) == outcome(lambda: three(cols))
        for s in samples:
            assert outcome(lambda: _assemble_EAB(gas, s, grad)) == outcome(lambda: three(s))

    @settings(max_examples=40, deadline=None)
    @given(gb=st.one_of(gases_and_boxes(), extreme_gases_and_boxes()), n=st.integers(1, 40),
           seed=st.integers(0, 2**31 - 1))
    def test_check_structure_is_the_one_of_wrapped_assemblers(self, gb, n, seed):
        gas, box = gb
        report = _outcome(check_structure, gas, box, n_samples=n, seed=seed)
        wrapped = _outcome(check_structure, gas, box, n_samples=n, seed=seed, **WRAPPED)
        assert report == wrapped and repr(report) == repr(wrapped)


class TestTolerances:
    """The rank and symmetry tolerances are module constants that the checks read when they run."""

    def test_asymmetry_still_caught_at_sym_tol_one(self, monkeypatch, gas, box):
        def asymmetric(g, state, grad):
            A = assemble_A(g, state, grad).copy()
            A[..., 0, 2] += 2.0
            return A

        monkeypatch.setattr(structure, "DEFAULT_SYM_TOL", 1.0)
        report = check_structure(gas, box, n_samples=10, assemble_a=asymmetric)
        assert not report.a0_symmetric.passed and report.a0_symmetric.worst == 2.0
        assert report.to_json_dict() == reference_check_structure(gas, box, 10, 0, assemble_a=asymmetric).to_json_dict()

    # Why neither is a setting: no value in range moves a report. The corruptions that leave
    # E and A(u, 0) symmetric are kept, so a rank jump is still found at every rank tolerance.
    KEEPS_SYMMETRY = ["none", "indefinite_e", "nan_a", "rank_jump_b", "noncoercive_b"]

    @staticmethod
    def _at(name, value, gas, box, n, seed, kw):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(structure, name, value)
            return _outcome(check_structure, gas, box, n_samples=n, seed=seed, **kw)

    @pytest.mark.parametrize("rank_tol", [1e-300, 1e-15, 1e-5, 0.5, 0.99])
    @settings(max_examples=20, deadline=None)
    @given(
        gb=st.one_of(gases_and_boxes(), extreme_gases_and_boxes()), n=st.integers(1, 40),
        seed=st.integers(0, 2**31 - 1), corruption=st.sampled_from(KEEPS_SYMMETRY),
    )
    def test_no_rank_tolerance_in_range_moves_a_report(self, rank_tol, gb, n, seed, corruption):
        gas, box = gb
        kw = CORRUPTIONS[corruption]
        report = self._at("DEFAULT_RANK_TOL", rank_tol, gas, box, n, seed, kw)
        assert report == _outcome(check_structure, gas, box, n_samples=n, seed=seed, **kw)

    @pytest.mark.parametrize("sym_tol", [0.0, 5e-324, 1e-6, 1.0, 1e300])
    @settings(max_examples=20, deadline=None)
    @given(
        gb=st.one_of(gases_and_boxes(), extreme_gases_and_boxes()), n=st.integers(1, 40),
        seed=st.integers(0, 2**31 - 1), corruption=st.sampled_from(KEEPS_SYMMETRY),
    )
    def test_no_symmetry_tolerance_moves_a_report(self, sym_tol, gb, n, seed, corruption):
        # E and A(u, 0) are assembled symmetric bit for bit, so even sym_tol = 0 passes them
        gas, box = gb
        kw = CORRUPTIONS[corruption]
        report = self._at("DEFAULT_SYM_TOL", sym_tol, gas, box, n, seed, kw)
        assert report == _outcome(check_structure, gas, box, n_samples=n, seed=seed, **kw)
        if not isinstance(report, str):
            assert report.a0_symmetric.worst == 0.0


class TestSuggestSigmas:
    @pytest.mark.parametrize("rho,c_rho", [(1.0, 0.1), (1e-300, 1e-310)], ids=["rho-1", "rho-1e-300"])
    def test_single_state_speeds(self, rho, c_rho):
        # at rho 1e-300 a solve with E = diag(1e300, 1e-300, 2.5e-300) gave -+0.632456
        c = np.sqrt(1.4)
        out = suggest_sigmas(GasModel(c_rho=c_rho), [State(rho, 0.0, 1.0)])
        assert len(out) == 3
        np.testing.assert_allclose(out, [-c, 0.0, c], atol=1e-10)

    def test_sorted_and_deduplicated(self, gas):
        # a repeated state adds no speed; the same theta at another rho gives the same speeds up to rounding
        one = suggest_sigmas(gas, [State(1.0, 0.0, 1.0)])
        out = suggest_sigmas(gas, [State(1.0, 0.0, 1.0), State(2.0, 0.0, 1.0), State(1.0, 0.0, 1.0)])
        assert out == sorted(set(out)) and set(one) <= set(out) and len(out) <= 6
        other = suggest_sigmas(gas, [State(2.0, 0.0, 1.0)])
        np.testing.assert_allclose(other, one, rtol=0.0, atol=1e-14 * max(map(abs, one)))

    def test_two_velocities(self, gas):
        out = suggest_sigmas(gas, [State(1.0, 0.0, 1.0), State(1.0, 0.5, 1.0)])
        assert len(out) == 6
        assert 0.5 in [round(x, 12) for x in out]

    def test_no_states(self, gas):
        assert suggest_sigmas(gas, []) == []

    def test_nonpositive_e_diagonal_is_refused(self):
        # at rho 1e-300 and theta 1e30, E = diag(1e300, 0, 0): rho / theta underflows, and the
        # speeds would need 1 / sqrt(0); the state is refused before the square root, with no warning
        gas = GasModel(c_rho=1e-310)
        msg = "E's diagonal (1e+300, 0, 0) is not positive at state (rho, v, theta) = (1e-300, 0, 1e+30)"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match=re.escape(msg)):
                suggest_sigmas(gas, [State(1.0, 0.0, 1.0), State(1e-300, 0.0, 1e30)])

    @settings(max_examples=50, deadline=None)
    @given(gb=gases_and_boxes(), n=st.integers(1, 12), seed=st.integers(0, 2**31 - 1))
    def test_stack_is_the_per_state_speeds(self, gb, n, seed):
        # bit for bit the set of each state's own speeds; each state's speeds within 1e-14 of its
        # largest speed from one blocks call, one solve and one eigvals, the way they were first taken.
        # The states at v = +-0 and a repeated state exercise the set's first-inserted zero.
        gas, box = gb
        mid = box.midpoint()
        states = box.sample(n, np.random.default_rng(seed)) + [State(mid.rho, v, mid.theta) for v in (0.0, -0.0)]
        states.append(states[0])
        union: set[float] = set()
        for state in states:
            speeds = suggest_sigmas(gas, [state])
            union.update(speeds)
            E, A, _ = blocks(gas, state)
            ref = np.sort(np.real(np.linalg.eigvals(np.linalg.solve(E, A))))
            np.testing.assert_allclose(speeds, ref, rtol=0.0, atol=1e-14 * np.abs(ref).max())
        assert [x.hex() for x in suggest_sigmas(gas, states)] == [x.hex() for x in sorted(union)]

    @staticmethod
    def _assert_speeds(gas, state):
        # v and v -/+ c with c = sqrt(gamma R theta), each within 1e-14 of the largest speed; v +- c
        # may round to v, so each computed speed is near an expected one and each expected one near a computed one
        c = math.sqrt(gas.gamma * gas.R * state.theta)
        out, expected = suggest_sigmas(gas, [state]), [state.v - c, state.v, state.v + c]
        tol = 1e-14 * (abs(state.v) + c)
        assert all(min(abs(x - y) for y in expected) <= tol for x in out)
        assert all(min(abs(x - y) for x in out) <= tol for y in expected)

    @settings(max_examples=50, deadline=None)
    @given(gb=gases_and_boxes(), seed=st.integers(0, 2**31 - 1))
    def test_speeds_are_v_and_v_plus_minus_c(self, gb, seed):
        gas, box = gb
        for state in box.sample(5, np.random.default_rng(seed)):
            self._assert_speeds(gas, state)

    @settings(max_examples=100, deadline=None)
    @given(R=st.floats(0.1, 10.0), gamma=st.floats(1.05, 5.0 / 3.0), rho_exp=st.floats(-300.0, 295.0),
           theta_exp=st.floats(-3.0, 3.0), v=st.floats(-1e3, 1e3))
    def test_speeds_are_v_and_v_plus_minus_c_at_extreme_densities(self, R, gamma, rho_exp, theta_exp, v):
        # E's diagonal spans up to 1e600 here, past the float range
        self._assert_speeds(GasModel(R=R, gamma=gamma, c_rho=1e-310), State(10.0 ** rho_exp, v, 10.0 ** theta_exp))

    def test_one_fused_column_call(self, gas, monkeypatch):
        # the states take check_structure's guarded column assembly: one fused call for E, A and B,
        # with no blocks call and no call of a single assembler
        calls = []

        def counted(g, cols, *args):
            calls.append((cols.rho.tolist(), cols.v.tolist(), cols.theta.tolist(), args))
            return _assemble_EAB(g, cols, *args)

        def refused(*args):
            raise AssertionError("a single assembler was called")

        monkeypatch.setattr(structure, "_assemble_EAB", counted)
        for name in ("E", "A", "B"):
            monkeypatch.setattr(structure, f"assemble_{name}", refused)
        monkeypatch.setattr(structure, "blocks", None)
        suggest_sigmas(gas, [State(1.0, 0.0, 1.0), State(2.0, 0.5, 1.5), State(1.0, 0.0, 1.0)])
        assert calls == [([1.0, 2.0, 1.0], [0.0, 0.5, 0.0], [1.0, 1.5, 1.0], ())]


class TestUnassemblableState:
    """theta^2 overflows at theta 1.5e154: every path that assembles there names the state."""

    MSG = "E, A(u, 0) or B cannot be assembled or is not finite at state (rho, v, theta) = (1, 0, 1.5e+154)"

    def test_suggest_sigmas(self, gas):
        with pytest.raises(DomainError, match=re.escape(self.MSG)):
            suggest_sigmas(gas, [State(1.0, 0.0, 1.0), State(1.0, 0.0, 1.5e154)])

    def test_eulerian_evals(self, gas):
        a11_eval, e11_eval = eulerian_block_evals(gas)
        with pytest.raises(DomainError, match=re.escape(self.MSG)):
            check_block_linear_degeneracy(a11_eval, e11_eval, 0.0, [State(1.0, 0.0, 1.0), State(1.0, 0.0, 1.5e154)])

    def test_eulerian_evals_name_each_failing_state(self, gas):
        # a failed assembly is not kept: the first failing state is named, and so is a later one
        # at the same (rho, theta) with another v
        a11_eval, e11_eval = eulerian_block_evals(gas)
        states = [State(1.0, 0.0, 1.0), State(1.0, 0.5, 1.5e154), State(1.0, 0.0, 1.5e154)]
        with pytest.raises(DomainError, match=re.escape("at state (rho, v, theta) = (1, 0.5, 1.5e+154)")):
            check_block_linear_degeneracy(a11_eval, e11_eval, 0.0, states)
        with pytest.raises(DomainError, match=re.escape(self.MSG)):
            a11_eval(states[2])

    def test_the_first_state_that_fails_alone_is_named(self, gas):
        # the float power raises for the whole set; the states are then assembled one by one
        states = [State(1.0, 0.0, 1.0), State(2.0, 0.0, 2e154), State(1.0, 0.0, 1.5e154)]
        with pytest.raises(DomainError, match=re.escape("at state (rho, v, theta) = (2, 0, 2e+154)")):
            suggest_sigmas(gas, states)


class TestReportSerialization:
    def test_json_dict_round_trips(self, gas, box):
        report = check_structure(gas, box, n_samples=30, seed=1)
        a11_eval, e11_eval = eulerian_block_evals(gas)
        report.degeneracy.append(
            check_block_linear_degeneracy(a11_eval, e11_eval, 0.0, [State(1.0, 0.0, 1.0)])
        )
        d = report.to_json_dict()
        assert "samples" not in d and len(report.samples) == 30
        text = json.dumps(d, sort_keys=True)
        back = json.loads(text)
        assert back["structural_pass"] is True
        assert back["b_rank"]["r"] == 2
        assert back["degeneracy"][0]["sigma"] == 0.0
        assert back["degeneracy"][0]["verdict"] == "satisfied"
        assert back["degeneracy"][0]["witnesses"][0]["kernel_dim"] == 1

    def test_text_report_mentions_outcomes(self, gas, box):
        report = check_structure(gas, box, n_samples=30, seed=1)
        a11_eval, e11_eval = eulerian_block_evals(gas)
        report.degeneracy.append(
            check_block_linear_degeneracy(
                a11_eval, e11_eval, 0.0, [State(1.0, -0.5, 1.0), State(1.0, 0.0, 1.0)]
            )
        )
        txt = report.to_text()
        assert "structural hypotheses: pass" in txt
        assert "sigma=0" in txt and "violated" in txt
        assert "witness" in txt
