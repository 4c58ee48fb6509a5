"""Becker's exact shock profile, a closed form to check computed profiles against.

A helper for test_profiles.py. Take constant nu and k = c_p nu with
c_p = R gamma / (gamma - 1), Prandtl number 3/4 for the longitudinal
viscosity (Becker, Z. Phys. 8, 1922; Gilbarg & Paolucci, J. Rational
Mech. Anal. 2, 1953). In the frame of the shock, with w = v - sigma and
the mass flux m = rho w, the energy integral keeps H = c_p theta + w^2/2
constant along the profile, and the momentum integral becomes

    nu w w' = a (w - w1)(w - w2),    a = m (gamma + 1) / (2 gamma),

whose roots are the end speeds. So

    x(w) = (nu / a) [w1 ln|w - w1| - w2 ln|w - w2|] / (w1 - w2) + C.

The roots come from the left state through that quadratic, apart from
`solve_rh`; nothing here calls the profile code.
"""

import math

import numpy as np

from shocklayer import GasModel, PowerLaw


def becker_gas(gamma: float, nu: float, R: float = 1.0) -> GasModel:
    """The gas with constant nu and k = c_p nu, whose shocks have the closed form."""
    return GasModel(R=R, gamma=gamma, nu_law=PowerLaw(nu), k_law=PowerLaw(R * gamma / (gamma - 1.0) * nu))


class BeckerShock:
    """The closed-form profile of the shock of speed sigma out of the left state (rho, v, theta)."""

    def __init__(self, gas: GasModel, rho: float, v: float, theta: float, sigma: float):
        g = gas.gamma
        self.nu = gas.nu_law.coeff
        self.cp = gas.R * g / (g - 1.0)
        self.sigma = sigma
        w = v - sigma
        self.m = rho * w
        self.H = self.cp * theta + 0.5 * w * w
        self.a = self.m * (g + 1.0) / (2.0 * g)
        P = self.m * w + gas.R * rho * theta  # momentum flux in the shock frame
        c = self.m * (g - 1.0) * self.H / g
        # a w^2 - P w + c = 0: the root of larger modulus without cancellation, the other by Vieta
        big = (P + math.copysign(math.sqrt(P * P - 4.0 * self.a * c), P)) / (2.0 * self.a)
        small = c / (self.a * big)
        # w1 is the left end: the root nearer the left state's w
        self.w1, self.w2 = (big, small) if abs(big - w) <= abs(small - w) else (small, big)

    @property
    def jump(self) -> float:
        return abs(self.w1 - self.w2)

    def x_of_w(self, w: np.ndarray) -> np.ndarray:
        """x(w) up to the translation C, for w strictly between the end speeds."""
        w1, w2 = self.w1, self.w2
        return (self.nu / self.a) * (w1 * np.log(np.abs(w - w1)) - w2 * np.log(np.abs(w - w2))) / (w1 - w2)

    def slope(self, w: np.ndarray) -> np.ndarray:
        """w' = a (w - w1)(w - w2) / (nu w)."""
        return self.a * (w - self.w1) * (w - self.w2) / (self.nu * w)

    def enthalpy_drift(self, v: np.ndarray, theta: np.ndarray) -> float:
        """max |H - H_left| / |H_left| over samples, H = c_p theta + w^2/2."""
        w = v - self.sigma
        return float(np.max(np.abs(self.cp * theta + 0.5 * w * w - self.H)) / abs(self.H))

    def w_error(self, x: np.ndarray, v: np.ndarray, interior: float = 0.01) -> float:
        """Sup error in w of samples (x, v) against x(w), over the jump.

        The samples kept are those whose w lies at least interior times
        the jump from both end speeds. Each one's error in x, against x(w)
        shifted by the offset that best fits them in least squares,
        becomes an error in w through the slope w'(w) there.
        """
        w = v - self.sigma
        keep = (np.abs(w - self.w1) >= interior * self.jump) & (np.abs(w - self.w2) >= interior * self.jump)
        w, x = w[keep], x[keep]
        s = self.slope(w)
        r = x - self.x_of_w(w)
        C = np.sum(s * s * r) / np.sum(s * s)
        return float(np.max(np.abs(s * (r - C)))) / self.jump
