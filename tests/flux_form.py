"""Flux-form oracle samples as extended states with their derivatives.

A helper for the cross-checks in test_profiles.py and test_acceptance.py:
everything is taken on the flux-form side, from the gas model and the
once-integrated conservation laws, so the pairs (U, U') can be fed to the
reduced travelling-wave equations as an independent consistency check.
"""

import numpy as np

from shocklayer.gas import internal_energy, pressure


def extended_samples(oracle):
    """(xs, (n, 5) extended states) at the oracle's samples, z from the flux form."""
    t = oracle.table()
    U = np.column_stack([t["rho"], t["v"], t["theta"], t["z1"], t["z2"]])
    return t["x"], U


def extended_with_derivatives(oracle):
    """(xs, U, U') with all derivatives taken on the flux-form side.

    rho_x follows from differentiating rho = m / (v - sigma), and z1_x,
    z2_x from differentiating the flux-form right-hand sides along the
    trajectory. Nothing here touches the singular ODE.
    """
    gas, m = oracle.gas, oracle.m
    xs, U = extended_samples(oracle)
    Uprime = np.empty_like(U)
    for i in range(U.shape[0]):
        rho, v, theta, z1, z2 = (float(c) for c in U[i])
        u = v - oracle.sigma
        _, p_rho, p_theta = pressure(gas, rho, theta)
        _, e_theta = internal_energy(gas, theta)
        p, _, _ = pressure(gas, rho, theta)
        nu, nu_p = gas.nu_law(rho)
        k, k_p = gas.k_law(rho)
        rho_x = -rho * z1 / u
        dp = p_rho * rho_x + p_theta * z2
        z1_x = (m * z1 + dp) / nu - z1 * nu_p * rho_x / nu
        dnum2 = (
            m * (e_theta * z2 + v * z1)
            + z1 * p + v * dp
            - (nu_p * rho_x * v * z1 + nu * z1 * z1 + nu * v * z1_x)
        )
        z2_x = dnum2 / k - z2 * k_p * rho_x / k
        Uprime[i] = (rho_x, z1, z2, z1_x, z2_x)
    return xs, U, Uprime
