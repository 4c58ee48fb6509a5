"""Numerical toolkit for symmetrized one-dimensional compressible flow.

The package assembles the symmetrized quasilinear form of the viscous
heat-conducting system, checks the structural hypotheses behind it,
reduces travelling-wave and steady problems to a singular first-order
ODE, integrates that ODE both directly and after desingularization, and
builds shock profiles and boundary layers with independent checks.

Each public name loads its submodule on first use (PEP 562), so a
structure check never imports the integrator and a shock never imports
the structure checks. `from shocklayer import *` loads them all, and so
does `shocklayer.cli`, which imports what its commands call by name.
"""

from importlib import import_module

__version__ = "0.1.0"

# the submodule that defines each public name
_EXPORTS = {
    "errors": (
        "ConfigError", "DomainError", "NoConnectionError", "NoDecayingDirectionError", "NonMonotoneError",
        "ShockLayerError", "SingularityError", "StepFailureError",
    ),
    "gas": (
        "Box", "GasModel", "Gradient", "PowerLaw", "State", "ZERO_GRADIENT", "internal_energy", "pressure",
        "sound_speed",
    ),
    "profiles": (
        "CompareReport", "FluxRecord", "OracleTrajectory", "Profile", "RHPair", "ShootOpts", "boundary_layer",
        "char_speed", "compare_profiles", "flux_constants", "gilbarg_oracle", "lax_inequalities",
        "max_extended_residual", "rh_residual", "shock_profile", "solve_rh",
    ),
    "reduction": ("SingularODE", "steady_singular_ode", "tw_singular_ode"),
    "sode": (
        "LinearizationReport", "Trajectory", "TrajectoryStats", "integrate_direct", "integrate_rescaled",
        "linearize",
    ),
    "structure": (
        "CheckResult", "DegeneracyVerdict", "RankResult", "StructureReport", "check_block_linear_degeneracy",
        "check_structure", "eulerian_block_evals", "kernel_dimension", "suggest_sigmas",
    ),
    "system": ("assemble_A", "assemble_B", "assemble_E", "blocks"),
}
_SUBMODULE = {name: module for module, names in _EXPORTS.items() for name in names}

# submodules stay reachable as attributes; `import *` binds none of them
__all__ = sorted(_SUBMODULE)


def __getattr__(name):
    """Import the submodule behind a public name or a submodule name, and bind the name here."""
    if name in _EXPORTS:
        return import_module(f"{__name__}.{name}")
    if name not in _SUBMODULE:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(import_module(f"{__name__}.{_SUBMODULE[name]}"), name)
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
