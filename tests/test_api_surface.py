"""The settable values of the integration and shooting entry points.

Each entry point lists exactly the keywords and fields a caller can set;
every other control is a module constant. A new knob, a new `Trajectory`
field or the return of a deleted name shows up here as a test edit. The
`SingularODE` fields are pinned too: the benchmark's tracer replaces
`F_eval` and `zeta_eval` by name, so a rename would leave them untimed.
`SystemBlocks` holds E, A and B only, without slice copies, and every
check of a `StructureReport` is a required field. The degeneracy check
is exact on its scalar block, so it takes no tolerance, and neither does
the config's `tolerances` section. A `Profile` holds its endpoints as
arrays, and `boundary_layer` takes its one control as the keyword `tol`.
"""

import inspect
from dataclasses import fields

import pytest

import shocklayer
from shocklayer import (
    LinearizationReport,
    Profile,
    ShootOpts,
    SingularODE,
    StructureReport,
    SystemBlocks,
    Trajectory,
    boundary_layer,
    check_block_linear_degeneracy,
    integrate_direct,
    integrate_rescaled,
    linearize,
    max_extended_residual,
)
from shocklayer import profiles, sode
from shocklayer.cli import Tolerances


def keywords(fn):
    """Parameters with a default, in order."""
    return [p.name for p in inspect.signature(fn).parameters.values() if p.default is not inspect.Parameter.empty]


@pytest.mark.parametrize("fn,expected", [
    (integrate_direct, ["tol", "stop_when"]),
    (integrate_rescaled, ["tol", "x0", "stop_when"]),
    (linearize, []),
    (max_extended_residual, []),
    (check_block_linear_degeneracy, []),
    (boundary_layer, ["direction_index", "amplitude", "tol"]),
])
def test_keyword_parameters(fn, expected):
    assert keywords(fn) == expected


@pytest.mark.parametrize("cls,expected", [
    (ShootOpts, ["tol", "end_tol"]),
    (Profile, ["sigma", "left", "right", "trajectory", "diagnostics"]),
    (LinearizationReport, ["J", "eigenvalues", "eigenvectors", "center"]),
    (Trajectory, ["mode", "ts", "ys", "termination", "stats", "hs", "Q"]),
    (SingularODE, ["F_eval", "zeta_eval", "label"]),
    (SystemBlocks, ["E", "A", "B"]),
    (StructureReport, [
        "box", "n_samples", "seed", "samples", "e_spd", "a0_symmetric", "b_rank", "b_coercivity", "degeneracy",
    ]),
    (Tolerances, ["ode_tol", "end_tol", "rank_tol", "sym_tol"]),
])
def test_fields(cls, expected):
    assert [f.name for f in fields(cls)] == expected


def test_settable_value_count():
    settable = sum(len(keywords(fn)) for fn in (integrate_direct, integrate_rescaled, linearize, max_extended_residual))
    # direction_index and amplitude choose the layer; tol is its one control
    settable += len(fields(ShootOpts)) + len(set(keywords(boundary_layer)) - {"direction_index", "amplitude"})
    assert settable == 8


@pytest.mark.parametrize("name", [
    "NoConvergenceError", "LagrangianBlocks", "lagrangian_blocks", "reduce_w", "extended_residual",
    "ExtendedState", "LayerOpts", "euler_fluxes", "conserved",
])
def test_deleted_names_stay_deleted(name):
    assert name not in shocklayer.__all__


def test_all_lists_no_module():
    assert [name for name in shocklayer.__all__ if inspect.ismodule(getattr(shocklayer, name))] == []
    assert len(shocklayer.__all__) == 63
    assert shocklayer.sode is sode and shocklayer.profiles is profiles


def test_fixed_controls():
    assert (sode.DELTA, sode.REL_FLOOR, sode.EQUILIBRIUM_TOL) == (1e-6, 1e-12, 1e-12)
    assert (sode.FD_STEP, sode.CENTER_THRESHOLD) == (1e-6, 1e-7)
    assert (profiles.SHOOT_EPS_REL, profiles.LAYER_GROW_CAP) == (1e-7, 0.5)
    assert profiles.SINGULARITY_GUARD == 1e-8
    assert (sode.MAX_STEPS, profiles.SHOOT_RETRIES) == (500_000, 2)
