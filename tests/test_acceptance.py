"""Acceptance suite: ten numbered end-to-end criteria.

Each test prints one `[criterion N] PASS/FAIL` line with its measured
quantities and asserts them at the stated tolerances. The whole module
is expected to run in well under a minute.
"""

import hashlib
import json
import time

import numpy as np
import pytest

from shocklayer import (
    Box,
    GasModel,
    State,
    blocks,
    check_block_linear_degeneracy,
    check_structure,
    compare_profiles,
    eulerian_block_evals,
    flux_constants,
    gilbarg_oracle,
    lagrangian_block_evals,
    max_extended_residual,
    rh_residual,
    shock_profile,
    solve_rh,
    steady_singular_ode,
    tw_singular_ode,
)
from shocklayer.gas import Gradient
from shocklayer.cli import main
from shocklayer.sode import (
    SingularODE,
    TERM_SINGULARITY,
    integrate_direct,
    integrate_rescaled,
    resample_by_x,
)

from flux_form import extended_with_derivatives

STANDARD_BOX = Box(rho=(0.5, 2.0), v=(-1.0, 1.0), theta=(0.5, 2.0))


def _line(n: int, ok: bool, t0: float, detail: str) -> None:
    dt = time.perf_counter() - t0
    print(f"[criterion {n:2d}] {'PASS' if ok else 'FAIL'} ({dt:.2f}s) {detail}")


@pytest.fixture(scope="module")
def gas():
    return GasModel()


@pytest.fixture(scope="module")
def pair(gas):
    return solve_rh(gas, State(1.0, 0.0, 1.0), family=1, strength=0.2)


@pytest.fixture(scope="module")
def profile(gas, pair):
    return shock_profile(gas, pair)


@pytest.fixture(scope="module")
def oracle(gas, pair):
    return gilbarg_oracle(gas, pair)


def test_criterion_01_eulerian_degeneracy_violated(gas):
    t0 = time.perf_counter()
    a11_eval, e11_eval = eulerian_block_evals(gas)
    rng = np.random.default_rng(1)
    samples = [s for s in STANDARD_BOX.sample(50, rng) if s.v != 0.0]
    samples.append(State(1.25, 0.0, 1.25))
    verdict = check_block_linear_degeneracy(a11_eval, e11_eval, 0.0, samples)
    expected = [1 if s.v == 0.0 else 0 for s in samples]
    dims_exact = list(verdict.dims) == expected
    ok = dims_exact and verdict.verdict == "violated"
    _line(1, ok, t0, f"sigma=0 dims v=0 -> 1, v!=0 -> 0 exact={dims_exact}, verdict={verdict.verdict}")
    assert dims_exact, f"kernel dims {verdict.dims} != expected {expected}"
    assert verdict.verdict == "violated"


def test_criterion_02_lagrangian_degeneracy_satisfied(gas):
    t0 = time.perf_counter()
    a11_eval, e11_eval = lagrangian_block_evals(gas)
    rng = np.random.default_rng(2)
    samples = STANDARD_BOX.sample(100, rng)
    outcomes = {}
    for sigma in (0.0, 0.5, -0.5, 2.0, -2.0):
        verdict = check_block_linear_degeneracy(a11_eval, e11_eval, sigma, samples)
        expected = 1 if sigma == 0.0 else 0
        outcomes[sigma] = (verdict.verdict == "satisfied" and set(verdict.dims) == {expected})
    ok = all(outcomes.values())
    _line(2, ok, t0, f"constant kernel dim at sigma in {{0, +/-0.5, +/-2}}: {outcomes}")
    assert ok, outcomes


def test_criterion_03_structural_suite(gas):
    t0 = time.perf_counter()
    report = check_structure(gas, STANDARD_BOX, n_samples=500, seed=0)
    parts = {
        "E spd": report.e_spd.passed and report.e_spd.worst > 0.0,
        "A0 symmetric <= 1e-12": report.a0_symmetric.worst <= 1e-12,
        "rank B == 2": report.b_rank.passed and report.b_rank.r == 2,
        "c_b > 0": report.b_coercivity.worst > 0.0,
    }
    ok = all(parts.values())
    _line(
        3, ok, t0,
        f"min eig E={report.e_spd.worst:.3e}, asym={report.a0_symmetric.worst:.1e}, "
        f"ranks={sorted(set(report.b_rank.ranks))}, c_b={report.b_coercivity.worst:.3e}",
    )
    assert ok, parts


def test_criterion_04_reduction_block_consistency(gas):
    t0 = time.perf_counter()
    rng = np.random.default_rng(4)
    worst = 0.0
    n = 0
    while n < 100:
        rho = rng.uniform(0.5, 2.0)
        v = rng.uniform(-1.0, 1.0)
        th = rng.uniform(0.5, 2.0)
        z1, z2 = rng.uniform(-1.0, 1.0, 2)
        if n % 2 == 0 and abs(v) >= 0.1:
            sigma = 0.0  # the steady block equations themselves
        else:
            sigma = v - float(rng.uniform(0.1, 1.5) * rng.choice([-1.0, 1.0]))
        if abs(v - sigma) < 0.1:
            continue
        n += 1
        U = np.array([rho, v, th, z1, z2])
        ode = tw_singular_ode(gas, sigma)
        zeta = ode.zeta_eval(U.tolist())
        Uprime = np.array(ode.F_eval(U.tolist())) / zeta
        w, z_x = Uprime[0], Uprime[3:]
        z = np.array([z1, z2])
        blk = blocks(gas, State(rho, v, th), Gradient(w, z1, z2))
        eq1 = blk.a11 * (v - sigma) * w + blk.A21 @ z
        eq2 = blk.A21 * w + (blk.A22 - sigma * blk.E22) @ z - blk.b @ z_x
        worst = max(worst, abs(float(eq1)), float(np.abs(eq2).max()))
    ok = worst <= 1e-12
    _line(4, ok, t0, f"worst block-equation residual over 100 states = {worst:.3e} (<= 1e-12)")
    assert ok, worst


def test_criterion_05_shock_end_to_end(gas, pair, profile, oracle):
    t0 = time.perf_counter()
    rh_worst = float(np.abs(rh_residual(gas, pair)).max())
    drift = flux_constants(gas, profile).drift
    deviation = compare_profiles(profile, oracle, matching="v").sup
    ode = tw_singular_ode(gas, pair.sigma)
    ext_res, _, _ = max_extended_residual(ode, profile.trajectory)
    parts = {
        "rh <= 1e-8": rh_worst <= 1e-8,
        "drift <= 1e-6": drift <= 1e-6,
        "oracle dev <= 1e-5": deviation <= 1e-5,
        "ext res <= 1e-7": ext_res <= 1e-7,
    }
    ok = all(parts.values())
    _line(
        5, ok, t0,
        f"rh={rh_worst:.2e}, flux drift={drift:.2e}, oracle deviation={deviation:.2e}, "
        f"extended residual={ext_res:.2e}",
    )
    assert ok, parts


def test_criterion_06_oracle_reduction_cross_check(gas, pair, oracle):
    t0 = time.perf_counter()
    ode = tw_singular_ode(gas, pair.sigma)
    xs, U, Uprime = extended_with_derivatives(oracle)
    worst = 0.0
    for i in range(U.shape[0]):
        V = U[i].tolist()
        res = ode.zeta_eval(V) * Uprime[i] - np.array(ode.F_eval(V))
        worst = max(worst, float(np.abs(res).max()))
    ok = worst <= 1e-6
    _line(6, ok, t0, f"extended residual of flux-form samples = {worst:.3e} at {U.shape[0]} samples (<= 1e-6)")
    assert ok, worst


def test_criterion_07_singularity_behavior(gas):
    t0 = time.perf_counter()
    ode = steady_singular_ode(gas)
    U0 = np.array([1.0, 0.3, 1.0, -0.5, 0.0])
    delta = 1e-6

    direct = integrate_direct(ode, U0, (0.0, 50.0), tol=1e-10)
    zeta_final = abs(ode.zeta_eval(direct.final_V.tolist()))
    resc = integrate_rescaled(ode, U0, (0.0, 30.0), tol=1e-10)
    finite = bool(
        np.all(np.isfinite(direct.Vs)) and np.all(np.isfinite(direct.xs))
        and np.all(np.isfinite(resc.Vs)) and np.all(np.isfinite(resc.xs))
    )
    # the steady flow cannot cross v = 0 (the sonic set is invariant), so
    # the recorded count is 0 there; a scalar field with a real crossing
    # shows the recorder counting
    scalar = SingularODE(dim=1, F_eval=lambda V: [1.0], zeta_eval=lambda V: float(V[0]))
    crossing = integrate_rescaled(scalar, np.array([-0.5]), (0.0, 2.0), tol=1e-10)
    parts = {
        "direct halt": direct.termination == TERM_SINGULARITY,
        "|zeta| <= 2 delta": zeta_final <= 2.0 * delta,
        "rescaled finite": finite and resc.termination != TERM_SINGULARITY,
        "flow-invariant count 0": resc.stats.zeta_sign_changes == 0,
        "recorder counts crossing": crossing.stats.zeta_sign_changes >= 1,
        "crossing finite": bool(np.all(np.isfinite(crossing.Vs))),
    }
    ok = all(parts.values())
    _line(
        7, ok, t0,
        f"direct={direct.termination}, |zeta|={zeta_final:.2e}, rescaled v_final={resc.final_V[1]:.2e}, "
        f"sign changes: steady={resc.stats.zeta_sign_changes}, scalar={crossing.stats.zeta_sign_changes}",
    )
    assert ok, parts


def test_criterion_08_integrator_calibration():
    t0 = time.perf_counter()
    tol = 1e-10
    exp = SingularODE(dim=1, F_eval=lambda V: [V[0] * V[0]], zeta_eval=lambda V: float(V[0]))
    direct = integrate_direct(exp, np.array([1.0]), (0.0, 2.0), tol=tol)
    err_exp = abs(float(direct.final_V[0]) - np.e ** 2)

    affine = SingularODE(dim=1, F_eval=lambda V: [1.0], zeta_eval=lambda V: float(V[0]))
    resc = integrate_rescaled(affine, np.array([1.0]), (0.0, 2.0), tol=tol)
    err_lin = max(abs(float(resc.final_V[0]) - 3.0), abs(float(resc.xs[-1]) - 4.0))

    # same orbit both ways; min |zeta| = 1 >= 0.1 on this path
    d2 = integrate_direct(exp, np.array([1.0]), (0.0, 1.0), tol=tol)
    r2 = integrate_rescaled(exp, np.array([1.0]), (0.0, 1.0 - np.exp(-1.0)), tol=tol)
    xs = np.linspace(0.05, 0.95, 19)
    agree = float(np.abs(resample_by_x(d2, xs) - resample_by_x(r2, xs)).max())

    parts = {
        "exp <= 1e-8": err_exp <= 1e-8,
        "linear <= 1e-10": err_lin <= 1e-10,
        "agreement <= 10 tol": agree <= 10.0 * tol,
    }
    ok = all(parts.values())
    _line(8, ok, t0, f"exp err={err_exp:.2e}, linear err={err_lin:.2e}, mode agreement={agree:.2e}")
    assert ok, parts


def test_criterion_09_equilibrium_characterization(gas):
    t0 = time.perf_counter()
    rng = np.random.default_rng(9)
    states = STANDARD_BOX.sample(100, rng)

    bitwise = True
    for st in states:
        sigma = float(rng.uniform(-2.0, 2.0))
        F = np.array(tw_singular_ode(gas, sigma).F_eval([st.rho, st.v, st.theta, 0.0, 0.0]))
        if not np.all(F == 0.0):
            bitwise = False
            break

    min_norm = np.inf
    for st in states:
        phi = float(rng.uniform(0.0, 2.0 * np.pi))
        z1, z2 = np.cos(phi), np.sin(phi)
        s = float(rng.uniform(0.1, 1.5) * rng.choice([-1.0, 1.0]))
        sigma = st.v - s
        F = np.array(tw_singular_ode(gas, sigma).F_eval([st.rho, st.v, st.theta, z1, z2]))
        min_norm = min(min_norm, float(np.abs(F).max()))

    parts = {"F == 0 bitwise at z=0": bitwise, "|F| > 1e-10 off equilibrium": min_norm > 1e-10}
    ok = all(parts.values())
    _line(9, ok, t0, f"bitwise zero={bitwise}, min |F| over unit-z states={min_norm:.3e}")
    assert ok, parts


def test_criterion_10_cli_reproducibility(tmp_path):
    t0 = time.perf_counter()
    cfg = {
        "seed": 0,
        "out_dir": str(tmp_path / "unused"),
        "gas": {"R": 1.0, "gamma": 1.4, "nu": 1.0, "k": 1.0},
        "box": {"rho": [0.5, 2.0], "v": [-1.0, 1.0], "theta": [0.5, 2.0]},
        "sigma_list": [0.0],
        "n_samples": 100,
        "rh": {"family": 1, "strength": 0.2, "U_minus": [1.0, 0.0, 1.0]},
        "layer": {"limit_state": [1.0, -0.3, 1.0], "direction_index": 0, "amplitude": 1e-3},
        "reduce": {"sigma": 1.0, "U": [1.0, 1.0, 1.0, 1.0, 0.0]},
    }
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(cfg, indent=2))

    runs = {
        "check": ["structure_report.json", "structure_report.txt"],
        "reduce-info": ["reduce_info.json"],
        "shock": ["shock_profile.csv", "shock_diagnostics.json", "shock_plot.gp"],
        "layer": ["layer_profile.csv", "layer_diagnostics.json", "layer_plot.gp"],
    }
    identical = {}
    for cmd, names in runs.items():
        out_a, out_b = tmp_path / f"{cmd}-a", tmp_path / f"{cmd}-b"
        code_a = main([cmd, "--config", str(cfg_path), "--out", str(out_a)])
        code_b = main([cmd, "--config", str(cfg_path), "--out", str(out_b)])
        same = code_a == code_b == 0 and all(
            hashlib.sha256((out_a / n).read_bytes()).digest()
            == hashlib.sha256((out_b / n).read_bytes()).digest()
            for n in names
        )
        identical[cmd] = same
    ok = all(identical.values())
    _line(10, ok, t0, f"byte-identical artifacts per command: {identical}")
    assert ok, identical
