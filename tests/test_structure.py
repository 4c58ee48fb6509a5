"""Tests for the structural condition checker.

Covers the kernel-dimension helper, the sampled hypothesis checks with
deliberately corrupted assemblers, the shifted-block degeneracy verdicts
in both coordinate forms, and report serialization. The batched checks
are compared with a per-sample reference loop over generated gases and
boxes.
"""

import json

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
    lagrangian_block_evals,
    suggest_sigmas,
)
from shocklayer import structure
from shocklayer.gas import ZERO_GRADIENT
from shocklayer.structure import CheckResult, DegeneracyVerdict, RankResult, StructureReport
from shocklayer.system import blocks


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
    rank_tol=1e-10, sym_tol=1e-12,
):
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
        min_eig = float(np.linalg.eigvalsh(0.5 * (E + E.T)).min())
        if float(np.abs(E - E.T).max()) > sym_tol:
            min_eig = -np.inf
        if min_eig < worst_eig:
            worst_eig, eig_witness = min_eig, state
        asym = float(np.abs(A0 - A0.T).max())
        if asym > worst_asym:
            worst_asym, asym_witness = asym, state
        rank = B.shape[0] - reference_kernel_dimension(B, rank_tol)
        ranks.append(rank)
        if rank != ranks[0]:
            rank_witness = state
        b = B[1:, 1:]
        cb = float(np.linalg.eigvalsh(0.5 * (b + b.T)).min())
        if cb < worst_cb:
            worst_cb, cb_witness = cb, state
    rank_set = sorted(set(ranks))
    return StructureReport(
        box=box,
        n_samples=n_samples,
        seed=seed,
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
    """One `blocks` assembly per call, no cache."""
    return (lambda s: blocks(gas, s).a11 * s.v), (lambda s: blocks(gas, s).E11)


def _indefinite_e(g, state):
    E = assemble_E(g, state).copy()
    E[0, 0] = -E[0, 0]
    return E


def _asymmetric_e(g, state):
    E = assemble_E(g, state).copy()
    E[0, 1] += 1e-6
    return E


def _asymmetric_a(g, state, grad):
    A = assemble_A(g, state, grad).copy()
    A[0, 2] += 1e-6
    return A


def _nan_a(g, state, grad):
    # no check can be decided on a NaN entry: both the reference and the
    # batched check raise DomainError at the first state with v > 0
    A = assemble_A(g, state, grad).copy()
    if state.v > 0.0:
        A[0, 2] = np.nan
    return A


def _rank_jump_b(g, state):
    B = assemble_B(g, state).copy()
    if state.v > 0.0:
        B[2, 2] = 0.0
    return B


def _noncoercive_b(g, state):
    B = assemble_B(g, state).copy()
    B[2, 2] = -B[2, 2]
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

    def test_cached_values_match_fresh_assembly(self, power_gas):
        a11_eval, e11_eval = eulerian_block_evals(power_gas)
        ref_a11, ref_e11 = reference_eulerian_evals(power_gas)
        for st_ in (State(2.0, 0.5, 1.0), State(0.3, -1.25, 4.0), State(2.0, -0.5, 1.0)):
            for _ in range(2):
                assert a11_eval(st_) == ref_a11(st_)
                assert e11_eval(st_) == ref_e11(st_)

    def test_lagrangian_values(self, gas):
        a11_eval, e11_eval = lagrangian_block_evals(gas)
        for st in (State(1.0, 0.0, 1.0), State(0.3, -2.0, 4.0)):
            assert a11_eval(st) == 0.0
            assert e11_eval(st) == 1.0


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
        # mass-coordinate block is -sigma identically: kernel dim constant
        a11_eval, e11_eval = lagrangian_block_evals(gas)
        for sigma in (0.0, 0.6, -1.3):
            verdict = check_block_linear_degeneracy(
                a11_eval, e11_eval, sigma, self._samples_with_critical(sigma)
            )
            assert verdict.satisfied, f"sigma={sigma}"
            expected = 1 if sigma == 0.0 else 0
            assert set(verdict.dims) == {expected}

    def test_matrix_valued_evaluators(self):
        # 2x2 blocks diag(v - sigma, rho - sigma): kernel 2 where both vanish
        a_eval = lambda s: np.array([[s.v, 0.0], [0.0, s.rho]])
        e_eval = lambda s: np.eye(2)
        samples = [State(1.0, 0.5, 1.0), State(1.0, 1.0, 1.0), State(2.0, 1.0, 1.0), State(1.5, 0.2, 2.0)]
        verdict = check_block_linear_degeneracy(a_eval, e_eval, 1.0, samples)
        assert verdict.dims == (1, 2, 1, 0)
        assert verdict.witnesses == ((samples[3], 0), (samples[0], 1), (samples[1], 2))
        assert verdict == reference_degeneracy(a_eval, e_eval, 1.0, samples)

    def test_scalar_and_matrix_evaluators_broadcast(self):
        # a scalar A11 against a 2x2 E11 broadcasts as it does per sample
        a_eval = lambda s: s.v
        e_eval = lambda s: np.array([[1.0, 0.0], [0.0, 2.0]])
        samples = [State(1.0, 0.5, 1.0), State(1.0, 1.0, 1.0), State(1.0, 2.0, 1.0)]
        verdict = check_block_linear_degeneracy(a_eval, e_eval, 1.0, samples)
        assert verdict == reference_degeneracy(a_eval, e_eval, 1.0, samples)
        assert verdict.dims == (0, 0, 0)

    def test_empty_sample_list(self, gas):
        for a_eval, e_eval in (eulerian_block_evals(gas), lagrangian_block_evals(gas)):
            verdict = check_block_linear_degeneracy(a_eval, e_eval, 0.3, [])
            assert verdict.dims == ()
            assert verdict.witnesses == ()
            assert verdict.verdict == "satisfied"

    def test_sigma_recorded(self, gas):
        a11_eval, e11_eval = eulerian_block_evals(gas)
        verdict = check_block_linear_degeneracy(a11_eval, e11_eval, 0.25, [State(1.0, 0.9, 1.0)])
        assert verdict.sigma == 0.25


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
        samples = box.sample(report.n_samples, np.random.default_rng(report.seed))
        mid = box.midpoint()
        for sigma in [0.0] + suggest_sigmas(gas, [mid] + samples[:8]):
            critical = State(mid.rho, sigma, mid.theta)
            report.degeneracy.append(degeneracy(a11_eval, e11_eval, sigma, samples + [critical]))
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

    @pytest.mark.parametrize("corruption", sorted(CORRUPTIONS))
    def test_fixture_box_is_identical(self, gas, box, corruption):
        kw = CORRUPTIONS[corruption]
        report = _outcome(check_structure, gas, box, n_samples=100, seed=0, **kw)
        ref = _outcome(reference_check_structure, gas, box, 100, 0, **kw)
        assert report == ref
        if not isinstance(ref, str):
            assert report.to_text() == ref.to_text()


class TestSuggestSigmas:
    def test_single_state_speeds(self, gas):
        c = np.sqrt(1.4)
        out = suggest_sigmas(gas, [State(1.0, 0.0, 1.0)])
        assert len(out) == 3
        np.testing.assert_allclose(out, [-c, 0.0, c], atol=1e-10)

    def test_sorted_and_deduplicated(self, gas):
        out = suggest_sigmas(gas, [State(1.0, 0.0, 1.0), State(2.0, 0.0, 1.0)])
        # same theta means same speeds regardless of rho
        assert len(out) == 3
        assert out == sorted(out)

    def test_two_velocities(self, gas):
        out = suggest_sigmas(gas, [State(1.0, 0.0, 1.0), State(1.0, 0.5, 1.0)])
        assert len(out) == 6
        assert 0.5 in [round(x, 12) for x in out]


class TestReportSerialization:
    def test_json_dict_round_trips(self, gas, box):
        report = check_structure(gas, box, n_samples=30, seed=1)
        a11_eval, e11_eval = eulerian_block_evals(gas)
        report.degeneracy.append(
            check_block_linear_degeneracy(a11_eval, e11_eval, 0.0, [State(1.0, 0.0, 1.0)])
        )
        d = report.to_json_dict()
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

    def test_structural_pass_requires_all_parts(self, gas, box):
        report = check_structure(gas, box, n_samples=10, seed=0)
        report.b_coercivity = None
        assert not report.structural_pass()
