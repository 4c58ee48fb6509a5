"""Symmetrized matrices of the 1-D compressible Navier-Stokes system.

The equations are written as E(u) u_t + A(u, u_x) u_x = B(u) u_xx in the
primitive variables u = (rho, v, theta). E and B depend on the state only;
A additionally carries three gradient-dependent entries coming from the
derivatives of the transport coefficients and from the viscous coupling.

The density row is hyperbolic and the (velocity, temperature) rows are
parabolic: B has the shape diag(0, b) with b symmetric positive definite,
and the shifted hyperbolic block A11 - sigma E11 is E[0, 0] (v - sigma).
The structural checks in `structure` verify this on sample boxes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .gas import GasModel, Gradient, State, ZERO_GRADIENT, internal_energy, pressure


def assemble_E(gas: GasModel, state: State) -> np.ndarray:
    """Symmetrizer E(u) = (1/theta) diag(p_rho/rho, rho, rho e_theta/theta)."""
    rho, theta = state.rho, state.theta
    _, p_rho, _ = pressure(gas, rho, theta)
    _, e_theta = internal_energy(gas, theta)
    return np.diag([
        p_rho / (rho * theta),
        rho / theta,
        rho * e_theta / theta ** 2,
    ])


def assemble_B(gas: GasModel, state: State) -> np.ndarray:
    """Diffusion matrix B(u) = (1/theta) diag(0, nu, k/theta)."""
    theta = state.theta
    nu, _ = gas.nu_law(state.rho)
    k, _ = gas.k_law(state.rho)
    return np.diag([0.0, nu / theta, k / theta ** 2])


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
    A = np.zeros((3, 3))
    A[0, 0] = p_rho * v / (rho * theta)
    A[0, 1] = p_rho / theta
    A[1, 0] = p_rho / theta
    A[1, 1] = (rho * v - dnu * grad.rho_x) / theta
    A[1, 2] = p_theta / theta
    A[2, 1] = (p_theta - nu * grad.v_x / theta) / theta
    A[2, 2] = (rho * v * e_theta / theta - dk * grad.rho_x / theta) / theta
    return A


@dataclass(frozen=True)
class SystemBlocks:
    """E, A(u, u_x) and B of the symmetrized system at one state.

    The blocks are slices: E[0, 0] is E11, A[1:, 0] is A21, B[1:, 1:] is
    the parabolic block b, and A[0, 0] is E[0, 0] v up to rounding.
    """

    E: np.ndarray
    A: np.ndarray
    B: np.ndarray


def blocks(gas: GasModel, state: State, grad: Gradient = ZERO_GRADIENT) -> SystemBlocks:
    """Assemble E, A(u, u_x) and B at one state."""
    return SystemBlocks(E=assemble_E(gas, state), A=assemble_A(gas, state, grad), B=assemble_B(gas, state))


def format_matrix(M: np.ndarray, name: str = "", precision: int = 6) -> str:
    """Plain-text aligned rendering of a matrix for terminal output."""
    rows = []
    cells = [[f"{x:+.{precision}e}" for x in row] for row in np.atleast_2d(M)]
    width = max(len(c) for row in cells for c in row)
    indent = " " * (len(name) + 3) if name else "  "
    for i, row in enumerate(cells):
        lead = f"{name} = " if (name and i == 0) else indent
        rows.append(lead + "[ " + "  ".join(c.rjust(width) for c in row) + " ]")
    return "\n".join(rows)
