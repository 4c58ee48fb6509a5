"""Numerical toolkit for symmetrized one-dimensional compressible flow.

The package assembles the symmetrized quasilinear form of the viscous
heat-conducting system, checks the structural hypotheses behind it,
reduces travelling-wave and steady problems to a singular first-order
ODE, integrates that ODE both directly and after desingularization, and
builds shock profiles and boundary layers with independent checks.
"""

from types import ModuleType as _ModuleType

from .errors import (
    ConfigError,
    DomainError,
    NoConnectionError,
    NoDecayingDirectionError,
    NonMonotoneError,
    ShockLayerError,
    SingularityError,
    StepFailureError,
)
from .gas import (
    Box,
    GasModel,
    Gradient,
    PowerLaw,
    State,
    ZERO_GRADIENT,
    internal_energy,
    pressure,
    sound_speed,
)
from .profiles import (
    CompareReport,
    FluxRecord,
    OracleTrajectory,
    Profile,
    RHPair,
    ShootOpts,
    boundary_layer,
    char_speed,
    compare_profiles,
    flux_constants,
    gilbarg_oracle,
    lax_inequalities,
    max_extended_residual,
    rh_residual,
    shock_profile,
    solve_rh,
)
from .reduction import (
    SINGULARITY_GUARD,
    SingularODE,
    steady_singular_ode,
    tw_singular_ode,
)
from .sode import (
    CSV_HEADER,
    LinearizationReport,
    Trajectory,
    TrajectoryStats,
    integrate_direct,
    integrate_rescaled,
    linearize,
    resample_by_x,
    trajectory_metadata,
    trajectory_to_csv,
)
from .structure import (
    CheckResult,
    DegeneracyVerdict,
    RankResult,
    StructureReport,
    check_block_linear_degeneracy,
    check_structure,
    eulerian_block_evals,
    kernel_dimension,
    lagrangian_block_evals,
    suggest_sigmas,
)
from .system import (
    SystemBlocks,
    assemble_A,
    assemble_B,
    assemble_E,
    blocks,
    format_matrix,
)

__version__ = "0.1.0"

# submodules stay reachable as attributes; `import *` binds none of them
__all__ = [name for name in dir() if not name.startswith("_") and not isinstance(globals()[name], _ModuleType)]
