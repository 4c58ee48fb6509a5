"""The settable values of the integration and shooting entry points.

Each entry point lists exactly the keywords and fields a caller can set;
every other control is a module constant. A new knob, a new `Trajectory`
field or the return of a deleted name shows up here as a test edit. The
`SingularODE` fields are pinned too: the benchmark's tracer replaces
`F_eval` and `zeta_eval` by name, so a rename would leave them untimed.
"""

import inspect
from dataclasses import fields

import pytest

import shocklayer
from shocklayer import (
    LayerOpts,
    LinearizationReport,
    ShootOpts,
    SingularODE,
    Trajectory,
    integrate_direct,
    integrate_rescaled,
    linearize,
    max_extended_residual,
)
from shocklayer import profiles, sode


def keywords(fn):
    """Parameters with a default, in order."""
    return [p.name for p in inspect.signature(fn).parameters.values() if p.default is not inspect.Parameter.empty]


@pytest.mark.parametrize("fn,expected", [
    (integrate_direct, ["tol", "stop_when"]),
    (integrate_rescaled, ["tol", "x0", "stop_when"]),
    (linearize, []),
    (max_extended_residual, []),
])
def test_keyword_parameters(fn, expected):
    assert keywords(fn) == expected


@pytest.mark.parametrize("cls,expected", [
    (ShootOpts, ["tol", "end_tol"]),
    (LayerOpts, ["tol"]),
    (LinearizationReport, ["point", "J", "eigenvalues", "eigenvectors", "stable", "unstable", "center"]),
    (Trajectory, ["mode", "ts", "ys", "termination", "stats", "hs", "Q"]),
    (SingularODE, ["dim", "F_eval", "zeta_eval", "label"]),
])
def test_fields(cls, expected):
    assert [f.name for f in fields(cls)] == expected


def test_settable_value_count():
    settable = sum(len(keywords(fn)) for fn in (integrate_direct, integrate_rescaled, linearize, max_extended_residual))
    settable += len(fields(ShootOpts)) + len(fields(LayerOpts))
    assert settable == 8


@pytest.mark.parametrize("name", ["NoConvergenceError", "LagrangianBlocks", "lagrangian_blocks"])
def test_deleted_names_stay_deleted(name):
    assert name not in shocklayer.__all__


def test_fixed_controls():
    assert (sode.DELTA, sode.REL_FLOOR, sode.EQUILIBRIUM_TOL) == (1e-6, 1e-12, 1e-12)
    assert (sode.FD_STEP, sode.CENTER_THRESHOLD) == (1e-6, 1e-7)
    assert (profiles.SHOOT_EPS_REL, profiles.LAYER_GROW_CAP) == (1e-7, 0.5)
    assert profiles.SINGULARITY_GUARD == 1e-8
    assert (sode.MAX_STEPS, profiles.SHOOT_RETRIES) == (500_000, 2)
