"""The settable values of the integration and shooting entry points.

Each entry point lists exactly the keywords and fields a caller can set;
every other control is a module constant. A new knob shows up here as a
test edit.
"""

import inspect
from dataclasses import fields

import pytest

from shocklayer import (
    LayerOpts,
    LinearizationReport,
    ShootOpts,
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
    (integrate_direct, ["tol", "max_steps", "stop_when"]),
    (integrate_rescaled, ["tol", "x0", "max_steps", "stop_when"]),
    (linearize, []),
    (max_extended_residual, []),
])
def test_keyword_parameters(fn, expected):
    assert keywords(fn) == expected


@pytest.mark.parametrize("cls,expected", [
    (ShootOpts, ["tol", "end_tol", "retries"]),
    (LayerOpts, ["tol", "length"]),
    (LinearizationReport, ["point", "J", "eigenvalues", "eigenvectors", "stable", "unstable", "center"]),
])
def test_fields(cls, expected):
    assert [f.name for f in fields(cls)] == expected


def test_settable_value_count():
    settable = sum(len(keywords(fn)) for fn in (integrate_direct, integrate_rescaled, linearize, max_extended_residual))
    settable += len(fields(ShootOpts)) + len(fields(LayerOpts))
    assert settable == 12


def test_fixed_controls():
    assert (sode.DELTA, sode.REL_FLOOR, sode.EQUILIBRIUM_TOL) == (1e-6, 1e-12, 1e-12)
    assert (sode.FD_STEP, sode.CENTER_THRESHOLD) == (1e-6, 1e-7)
    assert (profiles.SHOOT_EPS_REL, profiles.LAYER_GROW_CAP) == (1e-7, 0.5)
    assert profiles.SINGULARITY_GUARD == 1e-8
