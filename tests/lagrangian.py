"""The mass-coordinate (Lagrangian) block pair, read from the assembled matrices.

A helper for test_acceptance.py and test_structure.py. In mass
coordinates the hyperbolic block is the fluid-frame one: by the Galilean
boost, A11 - v E11 is A's (1, 1) entry at velocity 0. E11 is E's (1, 1)
entry. Nothing here is a constant, so a convective term planted in A
shows up in the verdicts.
"""

from shocklayer import State
from shocklayer.system import assemble_A, assemble_E


def lagrangian_block_evals(gas, assemble_a=assemble_A):
    """(A11, E11) evaluators of the mass-coordinate form, as Python floats."""

    def a11(s):
        return float(assemble_a(gas, State(s.rho, 0.0, s.theta))[0, 0])

    def e11(s):
        return float(assemble_E(gas, s)[0, 0])

    return a11, e11
