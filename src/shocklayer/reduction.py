"""Reduction of steady and travelling-wave equations to a singular ODE.

For travelling waves with speed sigma the second-order system
[A(U, U') - sigma E(U)] U' = B(U) U'' closes, after eliminating the
density gradient through the first (hyperbolic) row, into

    dU/dx = F(U) / zeta(U),        zeta(U) = v - sigma,

on the extended state U = (rho, v, theta, z1, z2) with z = (v_x, theta_x).
Steady solutions are the sigma = 0 case.

The hyperbolic row gives rho_x = w(U) = -(A21^T z) / (a11 (v - sigma)),
which is F[0] / zeta and is singular on the sonic set v = sigma.
Multiplying the parabolic rows by (v - sigma) removes that singularity
from everything except the shared 1/zeta prefactor: every rho_x inside
A22 appears multiplied by (v - sigma) and is replaced by the closed form
-(A21^T z)/a11, while v_x occurrences take z1 directly. The resulting F is polynomial in z (degree
two, through the gradient-dependent entries of A22) and vanishes
identically on the equilibrium set z = 0.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import DomainError
from .gas import GasModel, State, _lowest, _ndarray, _pow_each

# states closer to the sonic set than this count as on it: `reduce-info` gives
# no rho_x there, and the extended residual check skips them
SINGULARITY_GUARD = 1e-8


@dataclass(frozen=True)
class ExtendedState:
    """Primitive state extended with the gradient pair z = (v_x, theta_x)."""

    rho: float
    v: float
    theta: float
    z1: float
    z2: float

    def to_array(self) -> np.ndarray:
        return np.array([self.rho, self.v, self.theta, self.z1, self.z2])

    @staticmethod
    def from_array(U: np.ndarray) -> "ExtendedState":
        rho, v, theta, z1, z2 = map(float, U)
        return ExtendedState(rho, v, theta, z1, z2)

    def state(self) -> State:
        return State(self.rho, self.v, self.theta)


@dataclass(frozen=True)
class SingularODE:
    """Autonomous system dV/dx = F(V)/zeta(V) on R^dim.

    F_eval and zeta_eval take V as a list of dim Python floats and must
    not modify it. F_eval returns a list of dim floats and zeta_eval a
    float. The integrators step on such lists, so no array is built per
    evaluation; callers holding an array convert it once with .tolist().
    The desingularized companion is dV/dtau = F(V), dx/dtau = zeta(V).

    The reductions of `tw_singular_ode` also take V as a list of dim
    equal-length float arrays, one column per component (V = list(A.T)
    for samples A of shape (n, dim)). F_eval then returns a list of dim
    arrays and zeta_eval an array, each entry bit for bit what the float
    call gives at that sample; an inadmissible sample anywhere is a
    DomainError. The profile checks evaluate all their samples in one
    such call. This widens the contract of these callbacks, which used to
    take float lists only; the integrators still hand them floats.
    """

    dim: int
    F_eval: Callable[[list[float]], list[float]]
    zeta_eval: Callable[[list[float]], float]
    label: str = ""


def _require_admissible(rho, theta) -> None:
    """DomainError unless rho > 0 and theta > 0 (at every sample of column arrays); NaN fails."""
    if not (np.all(rho > 0.0) and np.all(theta > 0.0)):
        raise DomainError(
            f"extended state needs rho > 0 and theta > 0, got rho={_lowest(rho)}, theta={_lowest(theta)}"
        )


def tw_singular_ode(gas: GasModel, sigma: float) -> SingularODE:
    """Travelling-wave reduction at speed sigma as a SingularODE.

    The closed form below is the block algebra of `system.blocks` spelled
    out for the ideal gas, with rho_x (v - sigma) already replaced by
    -(A21^T z)/a11 = -rho z1 and v_x by z1. Keeping it inline makes the
    right-hand side cheap and lets the tests cross-check it against an
    independent assembly from the blocks.

    F and zeta take a state or column arrays (see `SingularODE`). A state
    whose transport laws or theta^2 overflow a float is a DomainError
    that names it.
    """
    R = gas.R
    e_theta = R / (gas.gamma - 1.0)
    # bound __call__: calling the instance goes through the slower type slot
    nu_law, k_law = gas.nu_law.__call__, gas.k_law.__call__
    sig = float(sigma)

    def F(V: list[float]) -> list[float]:
        rho, v, theta, z1, z2 = V
        if rho.__class__ is not float or not (rho > 0.0 and theta > 0.0):
            _require_admissible(rho, theta)  # columns are checked at every sample
        s = v - sig
        p_rho = R * theta
        p_theta = R * rho
        try:
            nu, dnu = nu_law(rho)
            k, dk = k_law(rho)
            theta_sq = theta ** 2 if theta.__class__ is not _ndarray else _pow_each(theta, 2)
        except OverflowError:
            raise DomainError(f"F overflows a float at the extended state {V}") from None
        q = rho * z1  # A21^T z / a11
        # rows of (A22 - sigma E22)(v - sigma) after the substitution
        M11 = (rho * s * s + dnu * q) / theta
        M12 = p_theta * s / theta
        M21 = (p_theta - nu * z1 / theta) * s / theta
        M22 = (rho * s * s * e_theta + dk * q) / theta_sq
        # subtract the Schur-type coupling A21 A21^T / a11 (only entry 11)
        K11 = M11 - rho * p_rho / theta
        Fz1 = (theta / nu) * (K11 * z1 + M12 * z2)
        Fz2 = (theta_sq / k) * (M21 * z1 + M22 * z2)
        return [-q, s * z1, s * z2, Fz1, Fz2]

    def zeta(V: list[float]) -> float:
        return V[1] - sig

    label = "steady" if sig == 0.0 else f"travelling sigma={sig:g}"
    return SingularODE(dim=5, F_eval=F, zeta_eval=zeta, label=label)


def steady_singular_ode(gas: GasModel) -> SingularODE:
    """Steady (boundary layer) reduction; the sigma = 0 travelling case."""
    return tw_singular_ode(gas, 0.0)
