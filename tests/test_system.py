"""Assembled symmetrized matrices and their block decomposition."""

import ast
from pathlib import Path

import numpy as np
import pytest

import shocklayer
from shocklayer import (
    Gradient,
    State,
    assemble_A,
    assemble_B,
    assemble_E,
    blocks,
)


def test_E_reference_values(gas):
    # (1/theta) diag(p_rho/rho, rho, rho e_theta/theta)
    E = assemble_E(gas, State(2.0, 0.0, 2.0))
    np.testing.assert_allclose(E, np.diag([0.5, 1.0, 1.25]), rtol=0, atol=1e-15)
    E1 = assemble_E(gas, State(1.0, 0.0, 1.0))
    np.testing.assert_allclose(E1, np.diag([1.0, 1.0, 2.5]), rtol=0, atol=1e-15)


def test_B_reference_values(gas):
    B = assemble_B(gas, State(1.0, 0.3, 2.0))
    np.testing.assert_allclose(B, np.diag([0.0, 0.5, 0.25]), rtol=0, atol=1e-15)


def test_A_zero_gradient_reference(gas):
    A = assemble_A(gas, State(1.0, 1.0, 1.0))
    expected = np.array([
        [1.0, 1.0, 0.0],
        [1.0, 1.0, 1.0],
        [0.0, 1.0, 2.5],
    ])
    np.testing.assert_allclose(A, expected, rtol=0, atol=1e-15)
    A0 = assemble_A(gas, State(1.0, 0.0, 1.0))
    expected0 = np.array([
        [0.0, 1.0, 0.0],
        [1.0, 0.0, 1.0],
        [0.0, 1.0, 0.0],
    ])
    np.testing.assert_allclose(A0, expected0, rtol=0, atol=1e-15)


def test_A_symmetric_at_zero_gradient(gas, box, rng):
    for st in box.sample(100, rng):
        A = assemble_A(gas, st)
        assert np.abs(A - A.T).max() <= 1e-12


def test_E_spd_on_box(gas, box, rng):
    for st in box.sample(100, rng):
        E = assemble_E(gas, st)
        np.testing.assert_allclose(E, E.T, rtol=0, atol=1e-15)
        assert np.linalg.eigvalsh(E).min() > 0.0


def test_gradient_enters_only_viscous_entries(gas, box, rng):
    # the gradient terms sit in entries (2,2), (3,2), (3,3) only
    for st in box.sample(20, rng):
        grad = Gradient(0.7, -0.4, 0.9)
        D = assemble_A(gas, st, grad) - assemble_A(gas, st)
        mask = np.zeros((3, 3), dtype=bool)
        mask[1, 1] = mask[2, 1] = mask[2, 2] = True
        assert np.all(D[~mask] == 0.0)
        nu, nu_p = gas.nu_law(st.rho)
        k, k_p = gas.k_law(st.rho)
        assert D[1, 1] == pytest.approx(-nu_p * grad.rho_x / st.theta, rel=1e-14)
        assert D[2, 1] == pytest.approx(-nu * grad.v_x / st.theta ** 2, rel=1e-14)
        assert D[2, 2] == pytest.approx(-k_p * grad.rho_x / st.theta ** 2, rel=1e-14)


def test_gradient_entries_with_power_laws(power_gas, box, rng):
    for st in box.sample(20, rng):
        grad = Gradient(0.3, 0.2, -0.1)
        D = assemble_A(power_gas, st, grad) - assemble_A(power_gas, st)
        _, nu_p = power_gas.nu_law(st.rho)
        nu, _ = power_gas.nu_law(st.rho)
        _, k_p = power_gas.k_law(st.rho)
        assert D[1, 1] == pytest.approx(-nu_p * grad.rho_x / st.theta, rel=1e-13)
        assert D[2, 1] == pytest.approx(-nu * grad.v_x / st.theta ** 2, rel=1e-13)
        assert D[2, 2] == pytest.approx(-k_p * grad.rho_x / st.theta ** 2, rel=1e-13)


def test_blocks_reassemble_exactly(gas, box, rng):
    for st in box.sample(30, rng):
        grad = Gradient(0.1, -0.2, 0.3)
        E, A, B = blocks(gas, st, grad)
        np.testing.assert_array_equal(E, assemble_E(gas, st))
        np.testing.assert_array_equal(A, assemble_A(gas, st, grad))
        np.testing.assert_array_equal(B, assemble_B(gas, st))
        # the hyperbolic entry is E11 v, E21 vanishes and B = diag(0, b)
        assert A[0, 0] == pytest.approx(E[0, 0] * st.v, rel=1e-14, abs=1e-15)
        np.testing.assert_array_equal(E[1:, 0], np.zeros(2))
        np.testing.assert_array_equal(B[0], np.zeros(3))
        np.testing.assert_array_equal(B[1:, 0], np.zeros(2))


def test_blocks_are_the_slices_of_one_assembly(power_gas, box, rng):
    # one array for E, A and B, with the bits of the three assemblers
    for st in box.sample(10, rng):
        grad = Gradient(0.1, -0.2, 0.3)
        E, A, B = blocks(power_gas, st, grad)
        assert E.base is A.base is B.base is not None
        assert np.stack([E, A, B]).tobytes() == np.stack([
            assemble_E(power_gas, st), assemble_A(power_gas, st, grad), assemble_B(power_gas, st),
        ]).tobytes()


def test_blocks_reference_point(gas):
    E, A, B = blocks(gas, State(1.0, 0.0, 1.0))
    assert E[0, 0] == pytest.approx(1.0)
    np.testing.assert_allclose(A[1:, 0], [1.0, 0.0], atol=1e-15)
    np.testing.assert_allclose(B[1:, 1:], np.diag([1.0, 1.0]), atol=1e-15)


def _callers(sources: dict[str, str], name: str) -> list[str]:
    """module.definition for each top-level definition of the sources that calls name, bare or as an attribute."""
    return [
        f"{module}.{getattr(top, 'name', '<module>')}"
        for module, text in sorted(sources.items())
        for top in ast.parse(text).body
        if any(
            isinstance(n, ast.Call) and name in (getattr(n.func, "id", None), getattr(n.func, "attr", None))
            for n in ast.walk(top)
        )
    ]


class TestPerStatePath:
    """What stays of the per-state path: one caller of `blocks`.

    Every check assembles on sample columns. `blocks` stays because the
    benchmark counts its calls in the Eulerian evaluators, one per distinct
    (rho, theta); once that counter goes, it can go too.
    """

    SOURCES = {path.stem: path.read_text() for path in Path(shocklayer.__file__).parent.glob("*.py")}

    def test_only_the_eulerian_evaluators_call_blocks(self):
        # the evaluators are the bound a11 and e11 of a structure._EulerianRows
        assert _callers(self.SOURCES, "blocks") == ["structure._EulerianRows"]

    def test_rules_catch_another_caller(self):
        source = (
            "from . import system\n"
            "def speeds(gas, states):\n    return [system.blocks(gas, s)[0] for s in states]\n"
            "TABLE = [blocks(None, s) for s in ()]\n"
            "class Cache:\n    def get(self, s):\n        return blocks(s, s)\n"
        )
        assert _callers({"planted": source}, "blocks") == ["planted.speeds", "planted.<module>", "planted.Cache"]
