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

Each matrix's nine entries are written once, as one entry function over
the intermediates (pressure, e_theta, the transport laws, theta^2).
`assemble_E`, `assemble_A` and `assemble_B` each take what their entries
need; `_assemble_EAB` takes every intermediate once and gives E, A and B
in one array, with the bits of the three calls. `blocks` and the
structure checks' own column assembly (`structure._assemble`) use it.
"""

from __future__ import annotations

import numpy as np

from .gas import GasModel, Gradient, State, ZERO_GRADIENT, _pow_each, internal_energy, pressure


def _matrix(*entries) -> np.ndarray:
    """Entries in row order, nine per matrix.

    Nine floats give a (3, 3) matrix and 27 a (3, 3, 3) stack of E, A and
    B; sample columns give the (n, 3, 3) or (n, 3, 3, 3) stack.
    """
    M = np.array(entries)
    shape = (3, 3) if len(entries) == 9 else (3, 3, 3)
    return M.reshape(shape) if M.ndim == 1 else M.T.reshape(-1, *shape)


# Each matrix's nine entries, written once over the intermediates its
# assemblers share. theta2 is theta^2 by `_pow_each`, and zero is 0.0 * rho.

def _E_entries(rho, theta, p_rho, e_theta, theta2, zero):
    return (
        p_rho / (rho * theta), zero, zero,
        zero, rho / theta, zero,
        zero, zero, rho * e_theta / theta2,
    )


def _A_entries(rho, v, theta, p_rho, p_theta, e_theta, nu, dnu, dk, grad, zero):
    return (
        p_rho * v / (rho * theta), p_rho / theta, zero,
        p_rho / theta, (rho * v - dnu * grad.rho_x) / theta, p_theta / theta,
        zero, (p_theta - nu * grad.v_x / theta) / theta, (rho * v * e_theta / theta - dk * grad.rho_x / theta) / theta,
    )


def _B_entries(theta, nu, k, theta2, zero):
    return (
        zero, zero, zero,
        zero, nu / theta, zero,
        zero, zero, k / theta2,
    )


def assemble_E(gas: GasModel, state: State) -> np.ndarray:
    """Symmetrizer E(u) = (1/theta) diag(p_rho/rho, rho, rho e_theta/theta)."""
    rho, theta = state.rho, state.theta
    _, p_rho, _ = pressure(gas, rho, theta)
    _, e_theta = internal_energy(gas, theta)
    return _matrix(*_E_entries(rho, theta, p_rho, e_theta, _pow_each(theta, 2), 0.0 * rho))


def assemble_B(gas: GasModel, state: State) -> np.ndarray:
    """Diffusion matrix B(u) = (1/theta) diag(0, nu, k/theta)."""
    theta = state.theta
    nu, _ = gas.nu_law(state.rho)
    k, _ = gas.k_law(state.rho)
    return _matrix(*_B_entries(theta, nu, k, _pow_each(theta, 2), 0.0 * theta))


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
    _, dk = gas.k_law(rho)
    return _matrix(*_A_entries(rho, v, theta, p_rho, p_theta, e_theta, nu, dnu, dk, grad, 0.0 * rho))


def _assemble_EAB(gas: GasModel, state: State, grad: Gradient = ZERO_GRADIENT) -> np.ndarray:
    """E, A(u, u_x) and B in one array: (3, 3, 3) at a State, (n, 3, 3, 3) on columns.

    The intermediates are taken once, in the order that makes the first
    exception the one the first of `assemble_E`, `assemble_A` and
    `assemble_B` to raise would give: theta^2 and E's entries come before
    the transport laws.
    """
    rho, v, theta = state.rho, state.v, state.theta
    _, p_rho, p_theta = pressure(gas, rho, theta)
    _, e_theta = internal_energy(gas, theta)
    theta2, zero = _pow_each(theta, 2), 0.0 * rho
    e = _E_entries(rho, theta, p_rho, e_theta, theta2, zero)
    nu, dnu = gas.nu_law(rho)
    k, dk = gas.k_law(rho)
    return _matrix(
        *e,
        *_A_entries(rho, v, theta, p_rho, p_theta, e_theta, nu, dnu, dk, grad, zero),
        *_B_entries(theta, nu, k, theta2, zero),
    )


def blocks(gas: GasModel, state: State, grad: Gradient = ZERO_GRADIENT) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(E, A(u, u_x), B) at one state, the tuple `structure._assemble` gives on sample columns.

    The blocks are slices: E[0, 0] is E11, A[1:, 0] is A21, B[1:, 1:] is
    the parabolic block b, and A[0, 0] is E[0, 0] v up to rounding.
    The three matrices are the three slices of one `_assemble_EAB` array,
    so each entry function runs once and each shared intermediate is
    taken once. Every check assembles on sample columns. This per-state
    path stays for its one caller, `structure.eulerian_block_evals`,
    which calls it once per distinct (rho, theta) and whose calls the
    benchmark counts.
    """
    M = _assemble_EAB(gas, state, grad)
    return M[0], M[1], M[2]
