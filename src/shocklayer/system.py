"""Symmetrized matrices of the 1-D compressible Navier-Stokes system.

The equations are written as E(u) u_t + A(u, u_x) u_x = B(u) u_xx in the
primitive variables u = (rho, v, theta). E and B depend on the state only;
A additionally carries three gradient-dependent entries coming from the
derivatives of the transport coefficients and from the viscous coupling.

The density row is hyperbolic and the (velocity, temperature) rows are
parabolic: B has the shape diag(0, b) with b symmetric positive definite,
and the shifted hyperbolic block A11 - sigma E11 is E[0, 0] (v - sigma).
The structural checks in `structure` verify this on sample boxes.

Each assembler takes one `State` and gives a (3, 3) matrix, or takes a
whole sample set as columns (rho, v and theta as equal-length arrays)
and gives the (n, 3, 3) stack. Both run through one set of expressions;
theta^2 and the transport laws go entry by entry (`_pow_each`), so every
matrix of the stack has the bits of the per-state call. On columns a
division by zero or an overflow gives a non-finite entry (with numpy's
warning) where the per-state call raises ZeroDivisionError or gives a
non-finite entry, and a float power that overflows raises OverflowError
in both.
"""

from __future__ import annotations

import numpy as np

from .gas import GasModel, Gradient, State, ZERO_GRADIENT, _pow_each, internal_energy, pressure


def _matrix(*entries) -> np.ndarray:
    """Nine entries in row order: floats give a (3, 3) matrix, sample columns an (n, 3, 3) stack."""
    M = np.array(entries)
    return M.reshape(3, 3) if M.ndim == 1 else M.T.reshape(-1, 3, 3)


def assemble_E(gas: GasModel, state: State) -> np.ndarray:
    """Symmetrizer E(u) = (1/theta) diag(p_rho/rho, rho, rho e_theta/theta)."""
    rho, theta = state.rho, state.theta
    _, p_rho, _ = pressure(gas, rho, theta)
    _, e_theta = internal_energy(gas, theta)
    zero = 0.0 * rho
    return _matrix(
        p_rho / (rho * theta), zero, zero,
        zero, rho / theta, zero,
        zero, zero, rho * e_theta / _pow_each(theta, 2),
    )


def assemble_B(gas: GasModel, state: State) -> np.ndarray:
    """Diffusion matrix B(u) = (1/theta) diag(0, nu, k/theta)."""
    theta = state.theta
    nu, _ = gas.nu_law(state.rho)
    k, _ = gas.k_law(state.rho)
    zero = 0.0 * theta
    return _matrix(
        zero, zero, zero,
        zero, nu / theta, zero,
        zero, zero, k / _pow_each(theta, 2),
    )


def assemble_A(gas: GasModel, state: State, grad: Gradient = ZERO_GRADIENT) -> np.ndarray:
    """Convection matrix A(u, u_x).

    Symmetric at zero gradient. Only entries (2,2), (3,2) and (3,3)
    (1-indexed) depend on the gradient, through nu' rho_x, nu v_x and
    k' rho_x respectively.
    """
    rho, v, theta = state.rho, state.v, state.theta
    _, p_rho, p_theta = pressure(gas, rho, theta)
    _, e_theta = internal_energy(gas, theta)
    nu, dnu = gas.nu_law(rho)
    k, dk = gas.k_law(rho)
    zero = 0.0 * rho
    return _matrix(
        p_rho * v / (rho * theta), p_rho / theta, zero,
        p_rho / theta, (rho * v - dnu * grad.rho_x) / theta, p_theta / theta,
        zero, (p_theta - nu * grad.v_x / theta) / theta, (rho * v * e_theta / theta - dk * grad.rho_x / theta) / theta,
    )


def blocks(gas: GasModel, state: State, grad: Gradient = ZERO_GRADIENT) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(E, A(u, u_x), B) at one state, the tuple `structure._assemble` gives on sample columns.

    The blocks are slices: E[0, 0] is E11, A[1:, 0] is A21, B[1:, 1:] is
    the parabolic block b, and A[0, 0] is E[0, 0] v up to rounding.
    Every check assembles on sample columns. This per-state path stays for
    its one caller, `structure.eulerian_block_evals`, which calls it once per
    distinct (rho, theta) and whose calls the benchmark counts.
    """
    return assemble_E(gas, state), assemble_A(gas, state, grad), assemble_B(gas, state)
