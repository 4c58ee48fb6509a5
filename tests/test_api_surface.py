"""The settable values of the integration and shooting entry points.

Each entry point lists exactly the keywords and fields a caller can set;
every other control is a module constant. A new knob, a new `Trajectory`
field or the return of a deleted name shows up here as a test edit. The
`SingularODE` fields are pinned too: the benchmark's tracer replaces
`F_eval` and `zeta_eval` by name, so a rename would leave them untimed.
Every check of a `StructureReport` is a required field. The degeneracy check
is exact on its scalar block, so it takes no tolerance; `check_structure`'s
rank and symmetry tolerances are module constants, which `kernel_dimension`
reads too, and the config's
`tolerances` section sets only `ShootOpts`. A `Profile` holds its endpoints as
arrays, and `boundary_layer` takes its one control as the keyword `tol`.
Each public name loads only its own submodule and what that imports, so
a structure check runs without the integrator and a shock without the
structure checks; fresh interpreters pin which modules each path loads.
"""

import inspect
import json
import os
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import pytest

import shocklayer
from shocklayer import (
    LinearizationReport,
    Profile,
    ShootOpts,
    SingularODE,
    StructureReport,
    Trajectory,
    boundary_layer,
    check_block_linear_degeneracy,
    check_structure,
    integrate_direct,
    integrate_rescaled,
    kernel_dimension,
    linearize,
    max_extended_residual,
)
from shocklayer import cli, profiles, sode


def keywords(fn):
    """Parameters with a default, in order."""
    return [p.name for p in inspect.signature(fn).parameters.values() if p.default is not inspect.Parameter.empty]


@pytest.mark.parametrize("fn,expected", [
    (integrate_direct, ["tol", "stop_when"]),
    (integrate_rescaled, ["tol", "stop_when"]),
    (linearize, []),
    (max_extended_residual, []),
    (check_block_linear_degeneracy, []),
    (boundary_layer, ["direction_index", "amplitude", "tol"]),
    (check_structure, ["n_samples", "seed", "assemble_a", "assemble_b", "assemble_e"]),
])
def test_keyword_parameters(fn, expected):
    assert keywords(fn) == expected


def test_kernel_dimension_takes_only_the_matrix():
    # its rank tolerance is structure.DEFAULT_RANK_TOL, read when it runs
    assert list(inspect.signature(kernel_dimension).parameters) == ["M"]


@pytest.mark.parametrize("cls,expected", [
    (ShootOpts, ["tol", "end_tol"]),
    (Profile, ["sigma", "left", "right", "trajectory", "diagnostics"]),
    (LinearizationReport, ["J", "eigenvalues", "eigenvectors", "center"]),
    (Trajectory, ["mode", "ts", "ys", "termination", "stats", "hs", "Q"]),
    (SingularODE, ["F_eval", "zeta_eval", "label"]),
    (StructureReport, [
        "box", "n_samples", "seed", "samples", "e_spd", "a0_symmetric", "b_rank", "b_coercivity", "degeneracy",
    ]),
])
def test_fields(cls, expected):
    assert [f.name for f in fields(cls)] == expected


def test_settable_value_count():
    settable = sum(len(keywords(fn)) for fn in (integrate_direct, integrate_rescaled, linearize, max_extended_residual))
    # direction_index and amplitude choose the layer; tol is its one control
    settable += len(fields(ShootOpts)) + len(set(keywords(boundary_layer)) - {"direction_index", "amplitude"})
    assert settable == 7


@pytest.mark.parametrize("name", [
    "NoConvergenceError", "LagrangianBlocks", "lagrangian_blocks", "reduce_w", "extended_residual",
    "ExtendedState", "LayerOpts", "euler_fluxes", "conserved", "resample_by_x", "CSV_HEADER", "trajectory_to_csv",
    "trajectory_metadata", "format_matrix", "SystemBlocks", "SINGULARITY_GUARD", "Tolerances",
    "lagrangian_block_evals", "_constant_trajectory", "_ROW_READERS",
])
def test_deleted_names_stay_deleted(name):
    assert name not in shocklayer.__all__
    assert not any(hasattr(module, name) for module in (cli, profiles, shocklayer.reduction, shocklayer.structure))


def test_all_lists_no_module():
    assert [name for name in shocklayer.__all__ if inspect.ismodule(getattr(shocklayer, name))] == []
    assert len(shocklayer.__all__) == 55
    assert shocklayer.sode is sode and shocklayer.profiles is profiles


def fresh(code: str):
    """Run code after `import shocklayer` in a fresh interpreter; the JSON value it prints as its last line."""
    src = str(Path(shocklayer.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    script = f"import json, sys\nimport shocklayer\n{code}"
    proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


LOADED = "print(json.dumps(sorted(m for m in sys.modules if m.startswith('shocklayer.'))))"


class TestLoadOnFirstUse:
    def test_bare_import_loads_no_submodule(self):
        assert fresh(LOADED) == []

    def test_structure_check_loads_no_integrator(self):
        loaded = fresh(f"shocklayer.check_structure\n{LOADED}")
        assert "shocklayer.structure" in loaded
        assert {"shocklayer.profiles", "shocklayer.sode", "shocklayer.reduction"}.isdisjoint(loaded)

    def test_shock_loads_no_structure_check(self):
        loaded = fresh(f"shocklayer.shock_profile\n{LOADED}")
        assert "shocklayer.profiles" in loaded
        assert {"shocklayer.structure", "shocklayer.system"}.isdisjoint(loaded)

    def test_star_import_binds_exactly_all_and_no_module(self):
        names, modules = fresh(
            "ns = {}\nexec('from shocklayer import *', ns)\ndel ns['__builtins__']\n"
            "print(json.dumps([sorted(ns), [k for k, v in ns.items() if isinstance(v, type(sys))]]))"
        )
        assert names == sorted(shocklayer.__all__)
        assert modules == []

    def test_every_public_name_resolves_and_stays_bound(self):
        missing, unbound = fresh(
            "missing = [n for n in shocklayer.__all__ if not hasattr(shocklayer, n)]\n"
            "print(json.dumps([missing, [n for n in shocklayer.__all__ if n not in vars(shocklayer)]]))"
        )
        assert missing == [] and unbound == []
        assert set(shocklayer.__all__) <= set(dir(shocklayer))

    def test_verified_shock_and_layer_load_no_masked_arrays(self):
        # numpy >= 2 loads numpy.ma for np.unique and the other set routines;
        # the shock path must only carry it if numpy itself does
        bare, loaded = fresh(
            "import numpy\nbare = 'numpy.ma' in sys.modules\n"
            "from shocklayer import State, GasModel, boundary_layer, compare_profiles, flux_constants, "
            "gilbarg_oracle, shock_profile, solve_rh\n"
            "gas = GasModel()\npair = solve_rh(gas, State(1.0, 0.0, 1.0), family=1, strength=0.2)\n"
            "prof = shock_profile(gas, pair)\ncompare_profiles(prof, gilbarg_oracle(gas, pair))\n"
            "flux_constants(gas, prof)\nboundary_layer(gas, State(1.0, -0.3, 1.0))\n"
            "print(json.dumps([bare, 'numpy.ma' in sys.modules]))"
        )
        assert loaded == bare

    def test_submodule_names_resolve(self):
        assert fresh("print(json.dumps(shocklayer.sode.__name__))") == "shocklayer.sode"

    def test_unknown_name_raises_attribute_error(self):
        with pytest.raises(AttributeError, match="has no attribute 'no_such_name'"):
            shocklayer.no_such_name


def test_fixed_controls():
    assert (sode.DELTA, sode.REL_FLOOR) == (1e-6, 1e-12)
    assert (sode.FD_STEP, sode.CENTER_THRESHOLD) == (1e-6, 1e-7)
    assert (profiles.SHOOT_EPS_REL, profiles.LAYER_GROW_CAP) == (1e-7, 0.5)
    assert (shocklayer.structure.DEFAULT_RANK_TOL, shocklayer.structure.DEFAULT_SYM_TOL) == (1e-10, 1e-12)
    assert (sode.MAX_STEPS, profiles.SHOOT_EPS_NOISE) == (500_000, 1.0)
