"""Polytropic ideal gas model and basic state types.

Pressure law p = R rho theta, internal energy e = R theta / (gamma - 1).
Viscosity and heat conduction are either constants or power laws in the
density. All thermodynamic helpers return the value together with the
partial derivatives the rest of the package needs. The sound speed is
sqrt(gamma R theta): the density cancels from c^2 (see `sound_speed`).
`PowerLaw`, `pressure` and `internal_energy` also take arrays of samples
and give every entry the bits of the float call (see `_pow_each`).
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field
from itertools import repeat

import numpy as np

from .errors import DomainError

_ndarray = np.ndarray


def _pow_each(x, e):
    """x ** e for a float, and entry by entry for a 1-D array, with the rounding of Python floats.

    numpy's vectorized ** rounds differently from the C library pow that
    Python floats use (for about 5% of doubles at exponents in [-0.5, 1],
    and for about one square in 1,100), so an array is raised one entry at
    a time, by the float pow that ``a ** e`` calls, straight into
    np.fromiter, and every entry keeps the bits of the float call. The
    callers pass positive entries. An entry that overflows raises
    OverflowError, as the float call does.
    """
    if x.__class__ is not _ndarray:
        return x ** e
    return np.fromiter(map(pow, x.tolist(), repeat(e)), float, x.size)


def _lowest(x):
    """x, or the lowest entry of an array x (NaN if it holds one): the value an error names."""
    return np.min(x) if x.__class__ is _ndarray else x


def _integer(value, name: str, low: int, caller: str) -> int:
    """value as an int no smaller than low; a bool, a non-integer or a smaller int is a DomainError naming it."""
    try:
        if isinstance(value, bool):
            raise TypeError
        value = operator.index(value)
    except TypeError:
        raise DomainError(f"{caller}'s {name} must be an integer, got {value!r}") from None
    if value < low:
        raise DomainError(f"{caller}'s {name} must be at least {low}, got {name}={value}")
    return value


@dataclass(frozen=True)
class PowerLaw:
    """Transport coefficient of the form coeff * rho**exponent.

    exponent 0 gives a constant coefficient with an exactly zero derivative.
    """

    coeff: float
    exponent: float = 0.0

    def __post_init__(self):
        if not (self.coeff > 0.0 and math.isfinite(self.coeff)):
            raise DomainError(f"transport coefficient coeff must be positive and finite, got {self.coeff}")
        if not math.isfinite(self.exponent):
            raise DomainError(f"transport exponent must be finite, got {self.exponent}")

    def __call__(self, rho):
        """Return (value, d value / d rho) at the given density, or at each of an array.

        A constant law returns (coeff, 0.0) for an array too; they broadcast.
        """
        e = self.exponent
        if e == 0.0:
            return self.coeff, 0.0
        val = self.coeff * _pow_each(rho, e)
        return val, e * val / rho


@dataclass(frozen=True)
class State:
    """Primitive state (density, velocity, temperature)."""

    rho: float
    v: float
    theta: float

    def __post_init__(self):
        if not (self.rho > 0.0 and math.isfinite(self.rho)):
            raise DomainError(f"density must be positive and finite, got {self.rho}")
        if not (self.theta > 0.0 and math.isfinite(self.theta)):
            raise DomainError(f"temperature must be positive and finite, got {self.theta}")
        if not math.isfinite(self.v):
            raise DomainError(f"velocity must be finite, got {self.v}")


@dataclass(frozen=True)
class Gradient:
    """Spatial derivative (rho_x, v_x, theta_x) of a primitive state."""

    rho_x: float = 0.0
    v_x: float = 0.0
    theta_x: float = 0.0


ZERO_GRADIENT = Gradient(0.0, 0.0, 0.0)


@dataclass(frozen=True)
class GasModel:
    """Polytropic ideal gas with power-law transport coefficients.

    R is the gas constant, gamma > 1 the adiabatic exponent. nu_law and
    k_law map density to (value, derivative). c_rho is the configured
    vacuum bound used by admissibility checks, states with rho < c_rho
    are treated as out of range by box checks.
    """

    R: float = 1.0
    gamma: float = 1.4
    nu_law: PowerLaw = field(default_factory=lambda: PowerLaw(1.0))
    k_law: PowerLaw = field(default_factory=lambda: PowerLaw(1.0))
    c_rho: float = 0.1

    def __post_init__(self):
        if not (self.R > 0.0 and math.isfinite(self.R)):
            raise DomainError(f"gas constant R must be positive and finite, got {self.R}")
        if not (self.gamma > 1.0 and math.isfinite(self.gamma)):
            raise DomainError(f"adiabatic exponent gamma must exceed 1 and be finite, got {self.gamma}")
        if not (self.c_rho > 0.0 and math.isfinite(self.c_rho)):
            raise DomainError(f"vacuum bound c_rho must be positive and finite, got {self.c_rho}")


def pressure(gas: GasModel, rho: float, theta: float) -> tuple[float, float, float]:
    """Return (p, dp/drho, dp/dtheta) for the ideal gas law."""
    if not (rho > 0.0 if rho.__class__ is not _ndarray else np.all(rho > 0.0)):
        raise DomainError(f"pressure needs rho > 0, got {_lowest(rho)}")
    if not (theta > 0.0 if theta.__class__ is not _ndarray else np.all(theta > 0.0)):
        raise DomainError(f"pressure needs theta > 0, got {_lowest(theta)}")
    return gas.R * rho * theta, gas.R * theta, gas.R * rho


def internal_energy(gas: GasModel, theta: float) -> tuple[float, float]:
    """Return (e, de/dtheta); the polytropic energy is linear in theta."""
    if not (theta > 0.0 if theta.__class__ is not _ndarray else np.all(theta > 0.0)):
        raise DomainError(f"internal energy needs theta > 0, got {_lowest(theta)}")
    e_theta = gas.R / (gas.gamma - 1.0)
    return e_theta * theta, e_theta


def sound_speed(gas: GasModel, state: State) -> float:
    """Adiabatic sound speed c = sqrt(gamma R theta).

    For a polytropic ideal gas the general c^2 = p_rho + theta p_theta^2 /
    (rho^2 e_theta) is R theta + R theta (gamma - 1) = gamma R theta
    exactly: the density cancels, so c depends on theta alone. A state
    where gamma R theta is not a finite number is a DomainError naming
    the state.
    """
    c2 = gas.gamma * gas.R * state.theta
    if not c2 < math.inf:
        raise DomainError(f"the sound speed is not a finite number at rho={state.rho!r}, theta={state.theta!r}")
    return math.sqrt(c2)


@dataclass(frozen=True)
class Box:
    """Compact axis-aligned box of admissible states."""

    rho: tuple[float, float]
    v: tuple[float, float]
    theta: tuple[float, float]

    def validate(self, gas: GasModel) -> None:
        for name, (lo, hi) in (("rho", self.rho), ("v", self.v), ("theta", self.theta)):
            if not (lo <= hi):
                raise DomainError(f"box {name} range is empty: [{lo}, {hi}]")
        if self.rho[0] < gas.c_rho:
            raise DomainError(
                f"box density floor {self.rho[0]} is below the vacuum bound {gas.c_rho}"
            )
        if self.theta[0] <= 0.0:
            raise DomainError(f"box temperature floor must be positive, got {self.theta[0]}")

    def midpoint(self) -> State:
        return State(
            0.5 * (self.rho[0] + self.rho[1]),
            0.5 * (self.v[0] + self.v[1]),
            0.5 * (self.theta[0] + self.theta[1]),
        )

    def sample(self, n: int, rng: np.random.Generator) -> list[State]:
        """Draw n states uniformly; deterministic for a seeded generator."""
        pts = rng.uniform(
            low=[self.rho[0], self.v[0], self.theta[0]],
            high=[self.rho[1], self.v[1], self.theta[1]],
            size=(n, 3),
        )
        return [State(*row) for row in pts.tolist()]
