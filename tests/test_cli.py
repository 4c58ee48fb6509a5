"""End-to-end tests of the command line interface.

Each test drives main() in process with a config file under tmp_path and
inspects exit codes, artifacts, and stdout/stderr. Reruns with the same
config must produce byte-identical artifacts.
"""

import argparse
import ast
import dataclasses
import hashlib
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from shocklayer import (
    Box,
    CheckResult,
    DomainError,
    GasModel,
    NoConnectionError,
    NoDecayingDirectionError,
    NonMonotoneError,
    PowerLaw,
    RankResult,
    ShootOpts,
    SingularityError,
    State,
    StepFailureError,
    StructureReport,
    assemble_E,
    boundary_layer,
    check_structure,
    gilbarg_oracle,
    integrate_direct,
    integrate_rescaled,
    shock_profile,
    solve_rh,
    sound_speed,
    steady_singular_ode,
    suggest_sigmas,
)
import shocklayer.cli as cli
from shocklayer.cli import build_parser, load_config, main
from shocklayer.profiles import MIN_END_TOL_RATIO, SHOOT_EPS_REL


def base_config(out_dir):
    return {
        "seed": 0,
        "out_dir": str(out_dir),
        "gas": {"R": 1.0, "gamma": 1.4, "nu": 1.0, "k": 1.0},
        "box": {"rho": [0.5, 2.0], "v": [-1.0, 1.0], "theta": [0.5, 2.0]},
        "sigma_list": [0.0],
        "n_samples": 100,
        "rh": {"family": 1, "strength": 0.2, "U_minus": [1.0, 0.0, 1.0]},
        "layer": {"limit_state": [1.0, -0.3, 1.0], "direction_index": 0, "amplitude": 1e-3},
        "reduce": {"sigma": 1.0, "U": [1.0, 1.0, 1.0, 1.0, 0.0]},
    }


INF, NAN = float("inf"), float("nan")


def set_key(cfg: dict, dotted: str, value) -> None:
    """Set cfg["a"]["b"] for "a.b", adding the sections that are missing."""
    *sections, key = dotted.split(".")
    for section in sections:
        cfg = cfg.setdefault(section, {})
    cfg[key] = value


def write_config(tmp_path, cfg, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg, indent=2))
    return str(path)


@pytest.fixture()
def outdir(tmp_path):
    return tmp_path / "out"


@pytest.fixture()
def config_path(tmp_path, outdir):
    return write_config(tmp_path, base_config(outdir))


def sha(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


class TestCheck:
    def test_runs_and_writes_report(self, config_path, outdir, capsys):
        assert main(["check", "--config", config_path]) == 0
        report = json.loads((outdir / "structure_report.json").read_text())
        assert report["structural_pass"] is True
        assert report["b_rank"]["r"] == 2
        assert report["e_spd"]["passed"] is True
        # sigma = 0 lies inside the sampled velocity range: violated
        deg = report["degeneracy"][0]
        assert deg["sigma"] == 0.0
        assert deg["verdict"] == "violated"
        assert deg["dims_observed"] == [0, 1]
        txt = (outdir / "structure_report.txt").read_text()
        assert "structural hypotheses: pass" in txt
        out = capsys.readouterr().out
        assert "wrote" in out

    def test_single_sigma(self, tmp_path, outdir):
        # the command always adds the critical state v = sigma, so the
        # Eulerian verdict is "violated" at any sigma, with that state
        # as the kernel-dimension-1 witness
        cfg = base_config(outdir)
        cfg["sigma_list"] = [5.0]
        assert main(["check", "--config", write_config(tmp_path, cfg)]) == 0
        report = json.loads((outdir / "structure_report.json").read_text())
        assert len(report["degeneracy"]) == 1
        deg = report["degeneracy"][0]
        assert deg["sigma"] == 5.0
        assert deg["verdict"] == "violated"
        assert deg["dims_observed"] == [0, 1]
        crit = [w for w in deg["witnesses"] if w["kernel_dim"] == 1]
        assert crit and crit[0]["state"][1] == 5.0

    @pytest.mark.parametrize("rho_hi", [0.6, 2.0])
    def test_overflowing_block_exits_2(self, tmp_path, outdir, capsys, rho_hi):
        # E11 = 1 / rho, so sigma E11 overflows at sigma = 1e308 wherever rho < 0.556:
        # no kernel can be decided there, and no verdict is written
        cfg = base_config(outdir)
        cfg["box"]["rho"] = [0.5, rho_hi]
        cfg["sigma_list"] = [1e308]
        path = write_config(tmp_path, cfg)
        assert main(["check", "--config", path]) == 2
        err = capsys.readouterr().err
        assert (
            "kind=validation exit=2 msg=A11 - sigma E11 is not finite at sigma=1e+308"
            " and state (rho, v, theta) = (0.5"
        ) in err
        assert "Traceback" not in err
        assert not outdir.exists()

    @pytest.mark.parametrize("key,value", [
        ("rank_tol", NAN), ("rank_tol", INF), ("rank_tol", -1e-10), ("rank_tol", 0.0), ("rank_tol", 1.0),
        ("rank_tol", 2.0), ("sym_tol", NAN), ("sym_tol", INF), ("sym_tol", -1e-12), ("sym_tol", 0.0),
    ])
    def test_tolerance_that_cannot_fail_exits_2(self, tmp_path, outdir, capsys, key, value):
        # at rank_tol 2.0 every B would read as rank 0 and the check would pass; the structure
        # tolerances are constants now, so a config that sets one is refused by the key's name
        # whatever its value, before the value is read
        cfg = base_config(outdir)
        cfg["tolerances"] = {key: value}
        assert main(["check", "--config", write_config(tmp_path, cfg)]) == 2
        err = capsys.readouterr().err
        assert f"kind=validation exit=2 msg=config.tolerances has unknown keys [{key!r}]\n" in err
        assert "Traceback" not in err
        assert not outdir.exists()

    def test_verbose_prints_matrices(self, config_path, capsys):
        assert main(["check", "--config", config_path, "--verbose"]) == 0
        out = capsys.readouterr().out
        assert "matrices at the box midpoint" in out
        assert "E =" in out

    def test_structural_failure_exits_4(self, config_path, outdir, monkeypatch):
        def fake_check(gas, box, **kwargs):
            return StructureReport(
                box=box, n_samples=1, seed=0, samples=[box.midpoint()],
                e_spd=CheckResult(passed=False, worst=-1.0, witness=None),
                a0_symmetric=CheckResult(passed=True, worst=0.0, witness=None),
                b_rank=RankResult(passed=True, ranks=(2,), r=2, witness=None),
                b_coercivity=CheckResult(passed=True, worst=1.0, witness=None),
            )

        monkeypatch.setattr("shocklayer.cli.check_structure", fake_check)
        assert main(["check", "--config", config_path]) == 4
        report = json.loads((outdir / "structure_report.json").read_text())
        assert report["structural_pass"] is False

    def test_degeneracy_reads_the_checked_samples(self, tmp_path, outdir, monkeypatch):
        # the verdicts are taken on the states the report checked, not on a second draw
        picked = [State(1.5, 0.25, 0.75), State(0.75, -0.5, 1.5)]

        def picked_check(gas, box, **kwargs):
            return dataclasses.replace(check_structure(gas, box, **kwargs), samples=picked)

        monkeypatch.setattr("shocklayer.cli.check_structure", picked_check)
        cfg = base_config(outdir)
        cfg["sigma_list"] = [-0.5]
        assert main(["check", "--config", write_config(tmp_path, cfg)]) == 0
        report = json.loads((outdir / "structure_report.json").read_text())
        [deg] = report["degeneracy"]
        assert deg["witnesses"] == [
            {"state": [1.5, 0.25, 0.75], "kernel_dim": 0},
            {"state": [0.75, -0.5, 1.5], "kernel_dim": 1},
        ]

    def test_missing_box_is_validation_error(self, tmp_path, outdir, capsys):
        cfg = base_config(outdir)
        del cfg["box"]
        path = write_config(tmp_path, cfg)
        assert main(["check", "--config", path]) == 2
        err = capsys.readouterr().err
        assert "kind=validation exit=2" in err

    @pytest.mark.parametrize("box", [
        {"rho": [1e300, 1e300], "v": [-1.0, 1.0], "theta": [1e-300, 1e-300]},  # E divides by 0
        {"rho": [10.0, 10.0], "v": [1e307, 1e308], "theta": [0.5, 2.0]},  # A has inf entries
        {"rho": [1e300, 1e300], "v": [-1.0, 1.0], "theta": [1e-10, 1e-10]},  # E has an inf entry
    ])
    def test_non_finite_matrices_are_validation_errors(self, tmp_path, outdir, capsys, box):
        cfg = base_config(outdir)
        cfg["box"] = box
        assert main(["check", "--config", write_config(tmp_path, cfg)]) == 2
        err = capsys.readouterr().err
        assert "kind=validation exit=2" in err
        assert "not finite at sampled state" in err
        assert not outdir.exists()

    @pytest.mark.parametrize("extra,flags", [
        ({}, []), ({"suggest_sigmas": True}, []), ({"sigma_list": []}, ["--verbose"]),
    ], ids=["evaluators", "suggest_sigmas", "verbose"])
    def test_unassemblable_midpoint_exits_2(self, tmp_path, outdir, capsys, extra, flags):
        # the one sample assembles, but theta^2 overflows at the midpoint theta 1.5e154, where the
        # Eulerian degeneracy evaluators, suggest_sigmas when on, and --verbose assemble the matrices
        cfg = base_config(outdir)
        cfg.update(box={"rho": [1.0, 1.0], "v": [0.0, 0.0], "theta": [1.0, 3e154]}, n_samples=1, **extra)
        assert main(["check", "--config", write_config(tmp_path, cfg), *flags]) == 2
        err = capsys.readouterr().err
        assert (
            "kind=validation exit=2 msg=E, A(u, 0) or B cannot be assembled or is not finite at state"
            " (rho, v, theta) = (1, 0, 1.5e+154)"
        ) in err
        assert "Traceback" not in err
        assert not outdir.exists()

    @pytest.mark.parametrize("suggest,code", [(True, 2), (False, 4)], ids=["suggest", "no-suggest"])
    def test_underflowing_e_diagonal(self, tmp_path, outdir, capsys, suggest, code):
        # at rho 1e-300 and theta 1e30, E = diag(1e300, 0, 0): E fails its check (exit 4), and with
        # suggest_sigmas on the state has no speeds, which is a validation error that names it
        cfg = base_config(outdir)
        cfg.update(gas={"c_rho": 1e-310}, box={"rho": [1e-300, 1e-300], "v": [0.0, 0.0], "theta": [1e30, 1e30]},
                   suggest_sigmas=suggest)
        assert main(["check", "--config", write_config(tmp_path, cfg)]) == code
        err = capsys.readouterr().err
        if suggest:
            assert err == (
                "shocklayer: kind=validation exit=2 msg=E's diagonal (1e+300, 0, 0) is not positive at state"
                " (rho, v, theta) = (1e-300, 0, 1e+30), so it has no characteristic speeds\n"
            )
            assert not outdir.exists()
        else:
            assert err == ""
            report = json.loads((outdir / "structure_report.json").read_text())
            assert not report["e_spd"]["passed"] and report["b_rank"]["r"] == 2

    @pytest.mark.parametrize("suggest", [False, True], ids=["no-suggest", "suggest"])
    @pytest.mark.parametrize("rho,theta", [(1e300, 1.8e-4), (1e-300, 1.0), (1e-300, 1e-10)])
    def test_e_diagonal_past_the_float_range_passes(self, tmp_path, outdir, capsys, rho, theta, suggest):
        # E is a positive diagonal whose entries span more than the float range; its definiteness
        # is read on D^-1/2 E D^-1/2, whose diagonal is 1, not below LAPACK's underflow
        cfg = base_config(outdir)
        cfg.update(gas={"c_rho": 1e-310}, box={"rho": [rho, rho], "v": [0.0, 0.0], "theta": [theta, theta]},
                   suggest_sigmas=suggest)
        assert main(["check", "--config", write_config(tmp_path, cfg)]) == 0
        assert capsys.readouterr().err == ""
        text = (outdir / "structure_report.txt").read_text()
        assert "  E symmetric positive definite: pass (min eigenvalue 1.000000e+00 of D^-1/2 E D^-1/2)\n" in text
        assert "  structural hypotheses: pass\n" in text

    def test_suggested_sigmas_get_verdicts(self, tmp_path, capsys):
        # the README box with suggest_sigmas on: every speed at the midpoint and the first eight
        # samples that sigma_list lacks is probed after the list, one verdict line each
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        cfg = json.loads(re.findall(r"```json\n(.*?)```", readme, re.S)[0])
        cfg["suggest_sigmas"] = True
        path = write_config(tmp_path, cfg)
        config = load_config(path)
        report = check_structure(config.gas, config.box, n_samples=config.n_samples, seed=config.seed)
        speeds = suggest_sigmas(config.gas, [config.box.midpoint()] + report.samples[:8])
        added = [s for s in speeds if s not in config.sigma_list]
        assert len(added) == 27

        runs = []
        for name in ("a", "b"):
            assert main(["check", "--config", path, "--out", str(tmp_path / name)]) == 0
            files = {f.name: f.read_bytes() for f in sorted((tmp_path / name).iterdir())}
            runs.append((capsys.readouterr().out.replace(str(tmp_path / name), "<out>"), files))
        assert runs[0] == runs[1]
        out, files = runs[0]
        written = json.loads(files["structure_report.json"])
        assert [d["sigma"] for d in written["degeneracy"]] == config.sigma_list + added
        for sigma in added:
            assert f"  block linear degeneracy at sigma={sigma:g}: " in out


class TestReadme:
    def test_config_example_loads_and_runs(self, tmp_path, outdir):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        blocks = re.findall(r"```json\n(.*?)```", readme, re.S)
        assert len(blocks) == 1
        path = tmp_path / "readme.json"
        path.write_text(blocks[0])
        config = load_config(str(path))
        assert config.tol == ShootOpts()  # the example shows the defaults
        assert main(["reduce-info", "--config", str(path), "--out", str(outdir)]) == 0
        assert (outdir / "reduce_info.json").exists()

    def test_library_example_runs(self, capsys):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        blocks = re.findall(r"```python\n(.*?)```", readme, re.S)
        assert len(blocks) == 1
        exec(compile(blocks[0], "README.md", "exec"), {})
        assert "singularity_approached" in capsys.readouterr().out


class TestReduceInfo:
    def test_singular_point_reported(self, config_path, outdir):
        # config pins sigma = 1 at a state with v = 1: on the sonic set
        assert main(["reduce-info", "--config", config_path]) == 0
        info = json.loads((outdir / "reduce_info.json").read_text())
        assert info["F"] == [-1.0, 0.0, 0.0, -1.0, 0.0]
        assert info["zeta"] == 0.0
        assert info["singular"] is True
        assert info["w"] is None

    def test_regular_point(self, tmp_path, outdir):
        cfg = base_config(outdir)
        cfg["reduce"]["sigma"] = 0.0
        assert main(["reduce-info", "--config", write_config(tmp_path, cfg)]) == 0
        info = json.loads((outdir / "reduce_info.json").read_text())
        assert info["F"] == [-1.0, 1.0, 0.0, 0.0, 0.0]
        assert info["zeta"] == 1.0
        assert info["singular"] is False
        assert info["w"] == -1.0
        assert info["label"] == "steady"

    def test_singular_only_where_zeta_is_zero(self, tmp_path, outdir):
        # U has v = 1: sigma = 1 is on the sonic set and has no w; 5e-9 off it, w = F[0] / zeta is finite
        cfg = base_config(outdir)
        for sigma in (1.0, 1.0 + 5e-9, 1.0 - 5e-9):
            cfg["reduce"]["sigma"] = sigma
            assert main(["reduce-info", "--config", write_config(tmp_path, cfg)]) == 0
            info = json.loads((outdir / "reduce_info.json").read_text())
            singular = sigma == 1.0
            assert info["singular"] is singular and (info["zeta"] == 0.0) is singular
            if singular:
                assert info["w"] is None
            else:
                assert math.isfinite(info["w"]) and info["w"] == info["F"][0] / info["zeta"]

    def test_w_that_overflows_exits_2(self, tmp_path, outdir, capsys):
        # zeta = v - sigma = 5e-324 is off the sonic set, and F[0] / zeta = -1 / 5e-324 overflows
        cfg = base_config(outdir)
        cfg["reduce"] = {"sigma": 0.0, "U": [1.0, 5e-324, 1.0, 1.0, 0.0]}
        assert main(["reduce-info", "--config", write_config(tmp_path, cfg)]) == 2
        err = capsys.readouterr().err
        assert "kind=validation exit=2 msg=F, zeta or w is not finite at U = [1.0, 5e-324," in err
        assert "zeta = 5e-324" in err and "Traceback" not in err
        assert not outdir.exists()

    def test_non_numeric_state_entry(self, tmp_path, outdir, capsys):
        cfg = base_config(outdir)
        cfg["reduce"]["U"][1] = "fast"
        path = write_config(tmp_path, cfg)
        assert main(["reduce-info", "--config", path]) == 2
        assert "kind=validation exit=2 msg=config.reduce.U:" in capsys.readouterr().err
        assert not outdir.exists()

    def test_missing_section(self, tmp_path, outdir):
        cfg = base_config(outdir)
        del cfg["reduce"]
        path = write_config(tmp_path, cfg)
        assert main(["reduce-info", "--config", path]) == 2

    def test_state_that_overflows_F(self, tmp_path, outdir, capsys):
        # finite config values whose theta^2 overflows a float: a named DomainError, no traceback
        cfg = base_config(outdir)
        cfg["reduce"]["U"] = [1e300, 1e300, 1e300, 1.0, 0.0]
        path = write_config(tmp_path, cfg)
        assert main(["reduce-info", "--config", path]) == 2
        err = capsys.readouterr().err
        assert "kind=validation exit=2 msg=F overflows a float at the extended state [1e+300" in err
        assert "Traceback" not in err
        assert not outdir.exists()


class TestShock:
    def test_full_run(self, config_path, outdir, capsys):
        assert main(["shock", "--config", config_path]) == 0
        side = json.loads((outdir / "shock_diagnostics.json").read_text())
        # each fact once: the command's own keys at the top, the profile's in details, the run's in trajectory
        assert set(side) == {"sigma", "endpoints", "rh_residual_components", "oracle_deviation", "details", "trajectory"}
        assert side["sigma"] == pytest.approx(-1.3832159566199231, rel=1e-10)
        details = side["details"]
        assert details["family"] == 1 and details["strength"] == 0.2
        assert details["rh_residual_max"] == max(map(abs, side["rh_residual_components"])) <= 1e-12
        assert details["flux_drift"] <= 1e-6
        assert side["oracle_deviation"] <= 1e-5
        assert side["endpoints"]["left"] == [1.0, 0.0, 1.0, 0.0, 0.0]
        assert details["endpoint_mismatch"] <= 1e-6
        csv = (outdir / "shock_profile.csv").read_text()
        assert csv.startswith("x,tau,rho,v,theta,z1,z2\n")
        assert len(csv.strip().split("\n")) == side["trajectory"]["n_samples"] + 1
        assert 'set output "shock_profile.png"' in (outdir / "shock_plot.gp").read_text()
        out = capsys.readouterr().out
        assert "shock: family 1" in out

    def test_zero_strength_exits_2(self, tmp_path, outdir, capsys):
        # the zero-strength pair has no profile: solve_rh refuses it with the round-off rule
        cfg = base_config(outdir)
        cfg["rh"]["strength"] = 0
        assert main(["shock", "--config", write_config(tmp_path, cfg)]) == 2
        err = capsys.readouterr().err
        assert "kind=validation exit=2 msg=strength 0 is below the round-off of lambda(U-)" in err
        assert "zero-strength pair" in err and "Traceback" not in err
        assert not outdir.exists()

    def test_end_tol_covering_the_jump_exits_2(self, tmp_path, outdir, capsys):
        # the jump (5.0e-7) lies within the default end_tol 1e-6, so the shot's start would already connect
        cfg = base_config(outdir)
        cfg["rh"]["strength"] = 3e-7
        assert main(["shock", "--config", write_config(tmp_path, cfg)]) == 2
        err = capsys.readouterr().err
        assert "kind=validation exit=2 msg=end_tol 1e-06 is at or above the endpoint distance 4.99999936565132e-07" in err
        assert "Traceback" not in err
        assert not outdir.exists()

    def test_negative_strength_rejected(self, tmp_path, outdir, capsys):
        cfg = base_config(outdir)
        cfg["rh"]["strength"] = -0.1
        assert main(["shock", "--config", write_config(tmp_path, cfg)]) == 2
        assert "kind=validation" in capsys.readouterr().err

    def test_family3_past_the_bound_rejected(self, tmp_path, outdir, capsys):
        cfg = base_config(outdir)
        cfg["rh"]["family"] = 3
        cfg["rh"]["strength"] = 0.9
        path = write_config(tmp_path, cfg)
        assert main(["shock", "--config", path]) == 2
        err = capsys.readouterr().err
        assert "kind=validation exit=2" in err and "admissible limit" in err

    def test_tiny_density_exits_typed(self, tmp_path, outdir, capsys):
        # the sound speed at rho 1e-200 is finite; linearize's absolute
        # finite-difference step then leaves the state space
        cfg = base_config(outdir)
        cfg["gas"]["c_rho"] = 1e-310
        cfg["rh"]["U_minus"] = [1e-200, 0.0, 1.0]
        assert main(["shock", "--config", write_config(tmp_path, cfg)]) == 2
        err = capsys.readouterr().err
        assert "kind=validation exit=2 msg=extended state needs rho > 0 and theta > 0" in err
        assert "Traceback" not in err
        assert not outdir.exists()

    def test_records_the_shot_and_evaluations(self, config_path, outdir):
        assert main(["shock", "--config", config_path]) == 0
        side = json.loads((outdir / "shock_diagnostics.json").read_text())
        details = side["details"]
        assert {"sign", "eps", "termination", "endpoint_mismatch", "n_steps"} <= set(details)
        assert "attempts" not in details and details["n_steps"] > 0
        stats = side["trajectory"]["stats"]
        assert 0 < stats["n_fevals"] <= 2 + 6 * (stats["n_accepted"] + stats["n_rejected"])

    def test_contact_family_rejected(self, tmp_path, outdir):
        cfg = base_config(outdir)
        cfg["rh"]["family"] = 2
        path = write_config(tmp_path, cfg)
        assert main(["shock", "--config", path]) == 2

    def test_no_partial_artifacts_on_failure(self, tmp_path, outdir):
        cfg = base_config(outdir)
        cfg["rh"]["family"] = 2
        path = write_config(tmp_path, cfg)
        assert main(["shock", "--config", path]) == 2
        assert not (outdir / "shock_profile.csv").exists()
        assert not (outdir / "shock_diagnostics.json").exists()


class TestLayer:
    def test_full_run(self, config_path, outdir, capsys):
        assert main(["layer", "--config", config_path]) == 0
        side = json.loads((outdir / "layer_diagnostics.json").read_text())
        assert side["sigma"] == 0.0
        assert side["endpoints"]["limit"] == [1.0, -0.3, 1.0, 0.0, 0.0]
        assert set(side) == {"sigma", "endpoints", "details", "trajectory"}
        assert side["details"]["mode"] == side["trajectory"]["mode"] == "rescaled"
        assert side["details"]["flux_drift"] <= 1e-5
        assert side["trajectory"]["termination"] == "stopped"
        assert side["trajectory"]["stats"]["min_abs_zeta"] > 0.0
        assert (outdir / "layer_profile.csv").exists()
        assert (outdir / "layer_plot.gp").exists()
        assert "layer: limit (1, -0.3, 1)" in capsys.readouterr().out

    def test_supersonic_outflow_is_numerical_error(self, tmp_path, outdir, capsys):
        # supersonic outflow has no decaying direction; a limit on the sonic
        # set (v = 0) has no layer either
        for limit in ([1.0, 2.0, 1.0], [1.0, 0.0, 1.0]):
            cfg = base_config(outdir)
            cfg["layer"]["limit_state"] = limit
            path = write_config(tmp_path, cfg)
            assert main(["layer", "--config", path]) == 3
            err = capsys.readouterr().err
            assert "kind=numerical exit=3" in err
            for name in ("layer_profile.csv", "layer_diagnostics.json", "layer_plot.gp"):
                assert not (outdir / name).exists()

    @pytest.mark.parametrize("amplitude", [-1.0, -2.0246817147557423, -2.5])
    def test_amplitude_past_the_growth_cap_exits_2(self, tmp_path, outdir, capsys, amplitude):
        # the cap is checked before the start is built: -2.02468... puts the start at v = 0, where
        # rho = m / v divided by zero, and -2.5 puts it at v > 0, outside the physical region
        with pytest.raises(DomainError, match="exceeds the growth cap 0.5"):
            boundary_layer(GasModel(), State(1.0, -0.3, 1.0), amplitude=amplitude)
        cfg = base_config(outdir)
        cfg["layer"]["amplitude"] = amplitude
        assert main(["layer", "--config", write_config(tmp_path, cfg)]) == 2
        err = capsys.readouterr().err
        assert "kind=validation exit=2" in err and "exceeds the growth cap 0.5" in err
        assert not (outdir / "layer_profile.csv").exists()

    def test_zero_amplitude_exits_2(self, tmp_path, outdir, capsys):
        # amplitude 0 starts on the limit state, which is no layer
        cfg = base_config(outdir)
        cfg["layer"]["amplitude"] = 0
        assert main(["layer", "--config", write_config(tmp_path, cfg)]) == 2
        err = capsys.readouterr().err
        assert "kind=validation exit=2 msg=amplitude must be finite and nonzero, got 0.0\n" in err
        assert not outdir.exists()

    def test_near_sonic_limit_runs_rescaled(self, tmp_path, outdir):
        cfg = base_config(outdir)
        cfg["layer"]["limit_state"] = [1.0, 1e-7, 1.0]
        path = write_config(tmp_path, cfg)
        assert main(["layer", "--config", path]) == 0
        details = json.loads((outdir / "layer_diagnostics.json").read_text())["details"]
        assert details["mode"] == "rescaled" and "mode_switch" not in details
        rows = [line.split(",") for line in (outdir / "layer_profile.csv").read_text().splitlines()[1:]]
        assert rows and all(row[1] != "" for row in rows)
        xs = [float(row[0]) for row in rows]
        assert max(xs) - min(xs) > 0.0


class TestStatesPastTheFloatRange:
    """Finite config states whose squares leave the float range are validation errors, never a traceback."""

    @pytest.mark.parametrize("command,key,value,message", [
        # theta^2 underflows to 0 and F divides by it
        ("reduce-info", "reduce.U", [1.0, 0.0, 1e-300, 0.1, 0.0],
         "F overflows a float at the extended state [1.0, 0.0, 1e-300, 0.1, 0.0]"),
        ("shock", "rh.U_minus", [1.0, 0.0, 1e-300], "F overflows a float at the extended state"),
        ("layer", "layer.limit_state", [1.0, -0.3, 1e-300], "F overflows a float at the extended state"),
        # the sound speed does not read rho, but the shot's start is not finite at rho = 1e200; the message
        # names that start, the right end at rho = 1.29e200 perturbed
        ("shock", "rh.U_minus", [1e200, 0.0, 1.0], "right-hand side not finite at the initial point [1.287933267555865e+200, "),
    ], ids=["reduce-info-theta", "shock-theta", "layer-theta", "shock-rho"])
    def test_exits_2(self, tmp_path, outdir, capsys, command, key, value, message):
        cfg = base_config(outdir)
        set_key(cfg, key, value)
        assert main([command, "--config", write_config(tmp_path, cfg)]) == 2
        err = capsys.readouterr().err
        assert f"kind=validation exit=2 msg={message}" in err
        assert "Traceback" not in err
        assert not outdir.exists()

    @pytest.mark.parametrize("R,U_minus,message", [
        # gamma R theta overflows: the error names the sound speed, not lambda(U-) = -inf
        (1e200, [1.0, 0.0, 1e200], "the sound speed is not a finite number at rho=1.0, theta=1e+200"),
        # c = sqrt(2.8) does not depend on rho, but the mass flux m = rho (v - sigma) overflows
        (2.0, [1e308, 0.0, 1.0], "the strength overflows the jump conditions: m = inf, P = m u + p = inf"),
    ], ids=["sound-speed", "jump-conditions"])
    def test_a_state_past_the_float_range_exits_2(self, tmp_path, outdir, capsys, R, U_minus, message):
        cfg = base_config(outdir)
        set_key(cfg, "gas.R", R)
        set_key(cfg, "rh.U_minus", U_minus)
        assert main(["shock", "--config", write_config(tmp_path, cfg)]) == 2
        err = capsys.readouterr().err
        assert f"kind=validation exit=2 msg={message}\n" in err
        assert "Traceback" not in err
        assert not outdir.exists()

    def test_a_dense_left_state_is_no_lax_violation(self, tmp_path, outdir, capsys):
        # the sound speed is sqrt(1.4) at every density, so at rho = 1e154 the pair keeps the Lax inequalities,
        # and the shot is what fails, as a numerical error
        cfg = base_config(outdir)
        set_key(cfg, "rh.U_minus", [1e154, 0.0, 1.0])
        assert main(["shock", "--config", write_config(tmp_path, cfg)]) == 3
        err = capsys.readouterr().err
        assert "kind=numerical exit=3 msg=no connection (travelling sigma=-1.38322)" in err
        assert "Traceback" not in err
        assert not outdir.exists()


class TestPlotScript:
    @pytest.mark.parametrize("command", ["shock", "layer"])
    def test_names_its_own_file(self, config_path, outdir, command):
        assert main([command, "--config", config_path]) == 0
        first = (outdir / f"{command}_plot.gp").read_text().splitlines()[0]
        assert first == f"# gnuplot script; run:  gnuplot {command}_plot.gp"

    @pytest.mark.parametrize("command", ["shock", "layer"])
    def test_columns_follow_the_csv_header(self, config_path, outdir, command):
        assert main([command, "--config", config_path]) == 0
        header = (outdir / f"{command}_profile.csv").read_text().splitlines()[0].split(",")
        column = {name: header.index(name) + 1 for name in ("x", "rho", "v", "theta")}
        plots = [line for line in (outdir / f"{command}_plot.gp").read_text().splitlines() if line.startswith("plot ")]
        assert plots == [
            f'plot "{command}_profile.csv" skip 1 using {column["x"]}:{column[name]} with lines title "{name}"'
            for name in ("rho", "v", "theta")
        ]


class TestExportHelpers:
    def _ns_trajectory(self, gas, mode):
        ode = steady_singular_ode(gas)
        U0 = np.array([1.0, 0.5, 1.0, 0.01, -0.01])
        if mode == "direct":
            return integrate_direct(ode, U0, (0.0, 0.25), tol=1e-8)
        return integrate_rescaled(ode, U0, (0.0, 0.25), tol=1e-8)

    def test_csv_header_and_shape(self, gas):
        traj = self._ns_trajectory(gas, "direct")
        lines = cli._profile_csv(traj).strip().split("\n")
        assert lines[0] == "x,tau,rho,v,theta,z1,z2"
        assert len(lines) == traj.n + 1
        first = lines[1].split(",")
        assert len(first) == 7
        assert first[1] == ""  # no tau column content in direct mode
        assert float(first[0]) == traj.xs[0]
        assert float(first[2]) == traj.Vs[0, 0]

    def test_csv_rescaled_has_tau(self, gas):
        traj = self._ns_trajectory(gas, "rescaled")
        row = cli._profile_csv(traj).strip().split("\n")[1].split(",")
        assert float(row[1]) == traj.taus[0]

    def test_csv_round_trips_floats(self, gas):
        traj = self._ns_trajectory(gas, "direct")
        lines = cli._profile_csv(traj).strip().split("\n")[1:]
        parsed = np.array([[float(f) for f in ln.split(",")[2:]] for ln in lines])
        np.testing.assert_array_equal(parsed, traj.Vs)

    def test_csv_deterministic(self, gas):
        a = cli._profile_csv(self._ns_trajectory(gas, "direct"))
        b = cli._profile_csv(self._ns_trajectory(gas, "direct"))
        assert a == b

    def test_metadata_keys(self, gas):
        traj = self._ns_trajectory(gas, "rescaled")
        meta = cli._run_metadata(traj, tol=1e-8)
        with pytest.raises(TypeError):
            cli._run_metadata(traj)  # every artifact records the tol it ran at
        assert meta["mode"] == "rescaled"
        assert meta["n_samples"] == traj.n
        assert meta["tol"] == 1e-8
        assert meta["stats"]["n_accepted"] == traj.stats.n_accepted
        assert meta["stats"]["n_fevals"] == traj.stats.n_fevals
        assert np.isfinite(meta["stats"]["min_abs_zeta"])

    def test_format_matrix_contains_entries(self, gas):
        text = cli._format_matrix(assemble_E(gas, State(1.0, 0.0, 1.0)), "E")
        assert "E" in text and "2.5" in text


class TestReproducibility:
    def test_rerun_byte_identical(self, tmp_path):
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        cfg = write_config(tmp_path, base_config(tmp_path / "unused"))
        for cmd, names in (
            (["check"], ["structure_report.json", "structure_report.txt"]),
            (["shock"], ["shock_profile.csv", "shock_diagnostics.json", "shock_plot.gp"]),
            (["layer"], ["layer_profile.csv", "layer_diagnostics.json", "layer_plot.gp"]),
            (["reduce-info"], ["reduce_info.json"]),
        ):
            assert main(cmd + ["--config", cfg, "--out", str(out_a)]) == 0
            assert main(cmd + ["--config", cfg, "--out", str(out_b)]) == 0
            for name in names:
                assert sha(out_a / name) == sha(out_b / name), name


class TestRuntimeDependencies:
    def test_shock_and_layer_run_without_scipy(self, config_path, outdir):
        # numpy is the only runtime dependency: a process in which scipy
        # cannot be imported still runs both profile commands
        code = (
            "import sys\n"
            "sys.modules['scipy'] = None\n"
            "from shocklayer.cli import main\n"
            f"codes = [main([cmd, '--config', {config_path!r}]) for cmd in ('shock', 'layer')]\n"
            "try:\n"
            "    import scipy\n"
            "except ImportError:\n"
            "    raise SystemExit(max(codes))\n"
            "raise SystemExit('scipy was importable')\n"
        )
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stdout + proc.stderr
        for name in (
            "shock_profile.csv", "shock_diagnostics.json", "shock_plot.gp",
            "layer_profile.csv", "layer_diagnostics.json", "layer_plot.gp",
        ):
            assert (outdir / name).stat().st_size > 0, name


class TestOutDirResolution:
    def test_cli_flag_beats_config(self, config_path, outdir, tmp_path):
        cli_dir = tmp_path / "cliout"
        assert main(["reduce-info", "--config", config_path, "--out", str(cli_dir)]) == 0
        assert (cli_dir / "reduce_info.json").exists()
        assert not outdir.exists()

    def test_config_out_dir_is_fallback(self, config_path, outdir):
        assert main(["reduce-info", "--config", config_path]) == 0
        assert (outdir / "reduce_info.json").exists()

    @pytest.mark.parametrize("under", [None, "sub"], ids=["a-file", "under-a-file"])
    def test_a_directory_that_cannot_be_created_exits_2(self, config_path, tmp_path, capsys, under):
        # mkdir raises FileExistsError on an existing file and NotADirectoryError below one
        blocker = tmp_path / "blocker"
        blocker.write_text("kept\n")
        out = blocker if under is None else blocker / under
        assert main(["check", "--config", config_path, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert f"kind=validation exit=2 msg=cannot write the artifacts to {out}: " in err
        assert "Traceback" not in err
        assert blocker.read_text() == "kept\n"

    def test_a_target_that_is_a_directory_is_refused_before_any_write(self, config_path, tmp_path, capsys):
        # check writes structure_report.json and then structure_report.txt; the second is a directory here
        out = tmp_path / "out"
        target = out / "structure_report.txt"
        target.mkdir(parents=True)
        assert main(["check", "--config", config_path, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        message = f"cannot write the artifacts to {out}: {target} exists and is not a regular file"
        assert f"kind=validation exit=2 msg={message}" in err and "Traceback" not in err
        assert [p.name for p in out.iterdir()] == ["structure_report.txt"]
        assert list(target.iterdir()) == []

    def test_a_failed_temp_write_removes_the_temp_files(self, config_path, tmp_path, capsys):
        # the second temp file cannot be written: the first one is removed, and nothing was renamed
        out = tmp_path / "out"
        (out / "structure_report.txt.tmp").mkdir(parents=True)
        assert main(["check", "--config", config_path, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert f"kind=validation exit=2 msg=cannot write the artifacts to {out}: " in err
        assert [p.name for p in out.iterdir()] == ["structure_report.txt.tmp"]

    def test_a_failed_temp_write_keeps_a_temp_file_it_did_not_write(self, config_path, tmp_path, capsys):
        # the first temp file cannot be written; the second is a leftover this run never opened
        out = tmp_path / "out"
        (out / "structure_report.json.tmp").mkdir(parents=True)
        (out / "structure_report.txt.tmp").write_text("left over\n")
        assert main(["check", "--config", config_path, "--out", str(out)]) == 2
        assert "kind=validation exit=2" in capsys.readouterr().err
        assert sorted(p.name for p in out.iterdir()) == ["structure_report.json.tmp", "structure_report.txt.tmp"]
        assert (out / "structure_report.txt.tmp").read_text() == "left over\n"

    def test_a_failed_rename_keeps_the_ones_before_it_and_no_temp_file(self, config_path, tmp_path, monkeypatch):
        # the renames are not one transaction: the first stays, the second's temp file is removed
        replace = os.replace

        def second_fails(src, dst):
            if Path(dst).name == "structure_report.txt":
                raise PermissionError(13, "refused", str(dst))
            replace(src, dst)

        monkeypatch.setattr(cli.os, "replace", second_fails)
        out = tmp_path / "out"
        assert main(["check", "--config", config_path, "--out", str(out)]) == 2
        assert [p.name for p in out.iterdir()] == ["structure_report.json"]


class TestRunIsItsConfig:
    """A run follows from its config and --out alone: no flag or environment variable overrides a key."""

    def test_working_directory_and_environment_change_nothing(self, tmp_path, monkeypatch, capsys):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        config = tmp_path / "readme.json"
        config.write_text(re.findall(r"```json\n(.*?)```", readme, re.S)[0])
        monkeypatch.delenv("SHOCKLAYER_OUT", raising=False)
        runs = []
        for name in ("plain", "moved"):
            here = tmp_path / f"cwd-{name}"
            here.mkdir()
            monkeypatch.chdir(here)
            if name == "moved":
                monkeypatch.setenv("SHOCKLAYER_OUT", str(tmp_path / "env-out"))
            out = tmp_path / f"out-{name}"
            stdout = []
            for command in ("check", "reduce-info", "shock", "layer"):
                assert main([command, "--config", str(config), "--out", str(out)]) == 0
                stdout.append(capsys.readouterr().out.replace(str(out), "<out>"))
            assert list(here.iterdir()) == []
            runs.append((stdout, {p.name: p.read_bytes() for p in sorted(out.iterdir())}))
        assert runs[0] == runs[1]
        assert len(runs[0][1]) == 9  # check 2, reduce-info 1, shock 3, layer 3
        # without --out, the config's relative out_dir is taken from the working directory
        assert main(["reduce-info", "--config", str(config)]) == 0
        assert (here / "out" / "reduce_info.json").read_bytes() == runs[0][1]["reduce_info.json"]
        names = ["cwd-moved", "cwd-plain", "out-moved", "out-plain", "readme.json"]
        assert sorted(p.name for p in tmp_path.iterdir()) == names

    @pytest.mark.parametrize("flag", ["--sigma", "--strength"])
    @pytest.mark.parametrize("command", ["check", "reduce-info", "shock", "layer"])
    def test_override_flags_are_usage_errors(self, config_path, outdir, capsys, command, flag):
        with pytest.raises(SystemExit) as exc:
            main([command, "--config", config_path, flag, "0.5"])
        assert exc.value.code == 2
        assert f"unrecognized arguments: {flag} 0.5" in capsys.readouterr().err
        assert not outdir.exists()


class TestConfigValidation:
    def e2(self, tmp_path, cfg, cmd="check"):
        path = write_config(tmp_path, cfg, name=f"cfg_{abs(hash(str(cfg))) % 10**8}.json")
        return main([cmd, "--config", path])

    def test_missing_file(self, capsys):
        assert main(["check", "--config", "/nonexistent/config.json"]) == 2
        assert "kind=validation" in capsys.readouterr().err

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        assert main(["check", "--config", str(path)]) == 2

    @pytest.mark.parametrize("root", ["[]", "1", "null", '"config"'])
    def test_root_that_is_not_an_object(self, tmp_path, capsys, root):
        path = tmp_path / "root.json"
        path.write_text(root)
        assert main(["check", "--config", str(path)]) == 2
        assert "kind=validation exit=2 msg=config root must be a JSON object\n" in capsys.readouterr().err

    def test_missing_seed(self, tmp_path, outdir):
        cfg = base_config(outdir)
        del cfg["seed"]
        assert self.e2(tmp_path, cfg) == 2

    def test_negative_seed(self, tmp_path, outdir):
        cfg = base_config(outdir)
        cfg["seed"] = -1
        assert self.e2(tmp_path, cfg) == 2

    def test_boolean_seed_rejected(self, tmp_path, outdir):
        cfg = base_config(outdir)
        cfg["seed"] = True
        assert self.e2(tmp_path, cfg) == 2

    def test_bad_tolerance_value(self, tmp_path, outdir):
        cfg = base_config(outdir)
        cfg["tolerances"] = {"end_tol": -1.0}
        assert self.e2(tmp_path, cfg) == 2

    def test_unknown_tolerance_key(self, tmp_path, outdir):
        cfg = base_config(outdir)
        cfg["tolerances"] = {"wibble": 1.0}
        assert self.e2(tmp_path, cfg) == 2

    def test_vacuum_box_rejected(self, tmp_path, outdir):
        cfg = base_config(outdir)
        cfg["box"]["rho"] = [0.05, 2.0]  # below the default vacuum bound
        assert self.e2(tmp_path, cfg) == 2

    @pytest.mark.parametrize("box,message", [
        ({"rho": [2.0, 1.0], "v": [-1.0, 1.0], "theta": [0.5, 2.0]}, "box rho range is empty: [2.0, 1.0]"),
        ({"rho": [0.5, 2.0], "v": [1.0, -1.0], "theta": [0.5, 2.0]}, "box v range is empty: [1.0, -1.0]"),
        ({"rho": [0.5, 2.0], "v": [-1.0, 1.0], "theta": [0.0, 2.0]}, "box temperature floor must be positive, got 0.0"),
    ], ids=["empty-rho", "empty-v", "theta-floor-0"])
    def test_invalid_box_rejected(self, tmp_path, outdir, capsys, box, message):
        cfg = base_config(outdir)
        cfg["box"] = box
        assert self.e2(tmp_path, cfg) == 2
        assert f"kind=validation exit=2 msg={message}\n" in capsys.readouterr().err
        assert not outdir.exists()

    def test_bad_sigma_list(self, tmp_path, outdir):
        cfg = base_config(outdir)
        cfg["sigma_list"] = [0.0, "zero"]
        assert self.e2(tmp_path, cfg) == 2

    @pytest.mark.parametrize("value", ["eulerian", "lagrangian", "polar"])
    def test_blocks_key_is_unknown(self, tmp_path, outdir, capsys, value):
        # the degeneracy check always reads the Eulerian block; the key that chose it is gone
        cfg = base_config(outdir)
        cfg["blocks"] = value
        assert self.e2(tmp_path, cfg) == 2
        assert "kind=validation exit=2 msg=config has unknown keys ['blocks']\n" in capsys.readouterr().err

    def test_bad_n_samples(self, tmp_path, outdir):
        cfg = base_config(outdir)
        cfg["n_samples"] = 0
        assert self.e2(tmp_path, cfg) == 2

    def test_gas_power_law_object_form(self, tmp_path, outdir):
        cfg = base_config(outdir)
        cfg["gas"]["nu"] = {"coeff": 0.8, "exponent": 0.5}
        cfg["gas"]["k"] = {"coeff": 1.3, "exponent": -0.25}
        assert self.e2(tmp_path, cfg) == 0

    def test_bad_power_law(self, tmp_path, outdir):
        cfg = base_config(outdir)
        cfg["gas"]["nu"] = "thick"
        assert self.e2(tmp_path, cfg) == 2

    def test_bad_rh_state_shape(self, tmp_path, outdir):
        cfg = base_config(outdir)
        cfg["rh"]["U_minus"] = [1.0, 0.0]
        assert self.e2(tmp_path, cfg, cmd="shock") == 2

    @pytest.mark.parametrize("command,key,value,name", [
        pytest.param("shock", "gas.gamma", INF, "config.gas.gamma must be finite", id="gamma-inf-shock"),
        pytest.param("reduce-info", "gas.gamma", INF, "config.gas.gamma must be finite", id="gamma-inf-reduce"),
        pytest.param("shock", "gas.nu", INF, "config.gas.nu must be finite", id="nu-inf"),
        pytest.param("shock", "gas.nu", {"coeff": 1.0, "exponent": NAN}, "config.gas.nu.exponent", id="exponent-nan"),
        pytest.param("shock", "gas.nu", {"coeff": 1.0, "exponent": "x"}, "config.gas.nu.exponent", id="exponent-str"),
        pytest.param("shock", "gas.R", INF, "config.gas.R must be finite", id="R-inf"),
        pytest.param("shock", "gas.gamma", "1.4", "config.gas.gamma", id="gamma-str"),
        pytest.param("shock", "gas.R", True, "config.gas.R", id="R-bool"),
        pytest.param("check", "box.rho", [0.5, 2.0, 3.0], "config.box.rho", id="box-three"),
        pytest.param("check", "box.rho", ["0.5", "2.0"], "config.box.rho", id="box-str"),
        pytest.param("check", "box.rho", [0.5, INF], "config.box.rho must be finite", id="box-inf"),
        pytest.param("check", "suggest_sigmas", "no", "config.suggest_sigmas", id="suggest-str"),
        pytest.param("check", "out_dir", 5, "config.out_dir", id="out-dir-int"),
        pytest.param("shock", "tolerances.ode_tol", INF, "config.tolerances.ode_tol", id="ode-tol-inf"),
        pytest.param("shock", "rh.U_minus", ["1.0", True, 1], "config.rh.U_minus", id="state-str-bool"),
        pytest.param("shock", "rh.strength", 10**400, "config.rh.strength must be finite", id="strength-400-digits"),
        pytest.param("check", "sigma_list", [0.0, 10**400], "config.sigma_list must be finite", id="sigma-400-digits"),
        pytest.param("shock", "gas.gama", 1.6667, "config.gas has unknown keys ['gama']", id="gas-typo"),
        pytest.param("shock", "rh.strenght", 0.9, "config.rh has unknown keys ['strenght']", id="rh-typo"),
    ])
    def test_value_is_named_without_a_traceback(self, tmp_path, outdir, capsys, command, key, value, name):
        cfg = base_config(outdir)
        set_key(cfg, key, value)
        assert self.e2(tmp_path, cfg, cmd=command) == 2
        err = capsys.readouterr().err
        assert "kind=validation exit=2" in err and name in err
        assert not outdir.exists()

    @pytest.mark.parametrize("command,key,name", [
        ("check", "n_sample", "config"),
        ("check", "box.p", "config.box"),
        ("check", "gas.nu", "config.gas.nu"),
        ("check", "tolerances.abs_tol", "config.tolerances"),
        ("check", "tolerances.kernel_tol", "config.tolerances"),
        # the structure checks' rank and symmetry tolerances are constants, not config keys
        ("check", "tolerances.rank_tol", "config.tolerances"),
        ("shock", "rh.U_plus", "config.rh"),
        ("layer", "layer.direction", "config.layer"),
        ("reduce-info", "reduce.V", "config.reduce"),
    ])
    def test_unknown_key_in_every_section(self, tmp_path, outdir, capsys, command, key, name):
        cfg = base_config(outdir)
        if name == "config.gas.nu":
            cfg["gas"]["nu"] = {"coeff": 1.0, "exponent": 0.0, "offset": 1.0}
            unknown = "offset"
        else:
            set_key(cfg, key, 1.0)
            unknown = key.rsplit(".", 1)[-1]
        assert self.e2(tmp_path, cfg, cmd=command) == 2
        assert f"kind=validation exit=2 msg={name} has unknown keys [{unknown!r}]\n" in capsys.readouterr().err
        assert not outdir.exists()

    def test_integer_past_the_digit_limit(self, tmp_path, outdir, capsys):
        text = json.dumps(base_config(outdir)).replace('"seed": 0', '"seed": ' + "9" * 5000)
        path = tmp_path / "config.json"
        path.write_text(text)
        assert main(["check", "--config", str(path)]) == 2
        assert "kind=validation exit=2 msg=config" in capsys.readouterr().err
        assert not outdir.exists()

    def test_check_ignores_a_broken_rh_section(self, tmp_path, outdir):
        cfg = base_config(outdir)
        cfg["rh"] = {"strenght": "0.9"}
        assert self.e2(tmp_path, cfg) == 0


class TestNonFiniteNumbers:
    """NaN and infinities are validation errors (exit 2) that name the value, with no artifact."""

    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    @pytest.mark.parametrize("command,section,key,where", [
        ("reduce-info", "reduce", "sigma", "config.reduce.sigma"),
        ("reduce-info", "reduce", "U", "config.reduce.U"),
        ("shock", "rh", "strength", "config.rh.strength"),
        ("layer", "layer", "amplitude", "config.layer.amplitude"),
        ("check", None, "sigma_list", "config.sigma_list"),
    ])
    def test_config_number(self, tmp_path, outdir, capsys, command, section, key, where, value):
        cfg = base_config(outdir)
        if key == "U":
            cfg[section][key][2] = value
        elif section is None:
            cfg[key] = [0.0, value]
        else:
            cfg[section][key] = value
        path = write_config(tmp_path, cfg)  # json writes NaN and Infinity, and reads them back
        assert main([command, "--config", path]) == 2
        err = capsys.readouterr().err
        assert "kind=validation exit=2" in err and f"{where} must" in err and "finite" in err
        assert not outdir.exists()


class TestNumericalErrors:
    """Every package error that is not a validation error exits 3 as kind=numerical."""

    @pytest.mark.parametrize("error", [
        SingularityError, StepFailureError, NoConnectionError, NoDecayingDirectionError, NonMonotoneError,
    ])
    def test_error_inside_a_command_exits_3(self, config_path, outdir, capsys, monkeypatch, error):
        import shocklayer.cli as cli

        def fail(*args, **kwargs):
            raise error("raised inside the command")

        monkeypatch.setattr(cli, "shock_profile", fail)
        assert main(["shock", "--config", config_path]) == 3
        assert "kind=numerical exit=3 msg=raised inside the command" in capsys.readouterr().err
        assert not outdir.exists()


def past_the_constructor(tol, end_tol):
    """ShootOpts(tol, end_tol) built without __post_init__, which refuses a pair below the ratio."""
    opts = object.__new__(ShootOpts)
    object.__setattr__(opts, "tol", tol)
    object.__setattr__(opts, "end_tol", end_tol)
    return opts


class TestToleranceCoupling:
    """end_tol below profiles.MIN_END_TOL_RATIO x max(ode_tol, REL_FLOOR) is refused by ShootOpts, so at config read.

    A shot's far-end mismatch is integration error, so below the ratio a
    shock can fail to connect for its tolerances alone. The sweep is the
    one the ratio was measured over: family 1 at five strengths and
    family 3 at four fractions of its bound, from (1, 0, 1), on two gases.
    """

    LEFT = State(1.0, 0.0, 1.0)
    GASES = {"default": GasModel(), "power-law": GasModel(nu_law=PowerLaw(1.2, 0.5), k_law=PowerLaw(0.9, -0.3))}

    @classmethod
    def sweep(cls, gas):
        c = sound_speed(gas, cls.LEFT)
        family3_limit = c * (1.0 - math.sqrt((gas.gamma - 1.0) / (2.0 * gas.gamma)))
        return [solve_rh(gas, cls.LEFT, 1, s) for s in (0.05, 0.2, 0.5, 1.0, 2.0)] + [
            solve_rh(gas, cls.LEFT, 3, f * family3_limit) for f in (0.1, 0.3, 0.5, 0.8)
        ]

    @pytest.mark.parametrize("tol", [1e-5, 1e-6, 1e-7, 1e-8, 1e-9, 1e-10])
    @pytest.mark.parametrize("gas_name", sorted(GASES))
    def test_every_sweep_shock_connects_at_the_ratio(self, gas_name, tol):
        gas = self.GASES[gas_name]
        opts = ShootOpts(tol=tol, end_tol=MIN_END_TOL_RATIO * tol)
        for pair in self.sweep(gas):
            assert shock_profile(gas, pair, opts).diagnostics["endpoint_mismatch"] <= opts.end_tol

    @pytest.mark.parametrize("gas_name", sorted(GASES))
    def test_default_shots_start_at_the_relative_perturbation(self, gas_name):
        # at the default tolerances the perturbation's noise floor lies far below SHOOT_EPS_REL x the jumps
        # of this sweep, so every one of its shots keeps the start that perturbation gives, bit for bit
        gas = self.GASES[gas_name]
        for pair in self.sweep(gas):
            drho, dv, dtheta = (abs(getattr(pair.right, c) - getattr(pair.left, c)) for c in ("rho", "v", "theta"))
            assert shock_profile(gas, pair).diagnostics["eps"] == SHOOT_EPS_REL * max(drho, dv, dtheta)
            assert gilbarg_oracle(gas, pair).shot["eps"] == SHOOT_EPS_REL * max(dv, dtheta)

    @pytest.mark.parametrize("gas_name,family,strength,tol,ratio", [
        # the sweep's worst case: family 3 at 0.8 of its bound needs 10.6 x ode_tol
        ("power-law", 3, None, 1e-5, 10.0),
        # ode_tol 1e-6 with the default end_tol 1e-6: the best shot misses by 1.47e-6
        ("default", 1, 0.5, 1e-6, 1.0),
        ("default", 1, 2.0, 1e-6, 1.0),
    ])
    def test_below_the_ratio_a_sweep_shock_can_fail(self, gas_name, family, strength, tol, ratio):
        # the evidence that the ratio is needed: options the constructor refuses, built past it
        gas = self.GASES[gas_name]
        pair = self.sweep(gas)[-1] if strength is None else solve_rh(gas, self.LEFT, family, strength)
        with pytest.raises(DomainError, match="is below 16 x tol"):
            ShootOpts(tol=tol, end_tol=ratio * tol)
        with pytest.raises(NoConnectionError):
            shock_profile(gas, pair, past_the_constructor(tol, ratio * tol))

    def test_config_at_the_ratio_is_accepted(self, tmp_path, outdir):
        cfg = base_config(outdir)
        cfg["tolerances"] = {"ode_tol": 1e-7, "end_tol": MIN_END_TOL_RATIO * 1e-7}
        assert main(["shock", "--config", write_config(tmp_path, cfg)]) == 0
        assert load_config(write_config(tmp_path, cfg)).tol == ShootOpts(tol=1e-7, end_tol=1.6e-6)

    def test_ode_tol_below_the_floor_steps_at_the_floor(self, tmp_path):
        # the step control's scale is max(ode_tol, REL_FLOOR) (1 + |y|), so a component at 0 gets no
        # absolute tolerance below the floor: the README shock at 5e-324 writes the profile of 1e-12
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        cfg = json.loads(re.findall(r"```json\n(.*?)```", readme, re.S)[0])
        profiles = []
        for ode_tol in (5e-324, 1e-12):
            cfg["tolerances"] = {"ode_tol": ode_tol, "end_tol": 1.6e-11}
            out = tmp_path / f"out-{ode_tol}"
            assert main(["shock", "--config", write_config(tmp_path, cfg), "--out", str(out)]) == 0
            profiles.append((out / "shock_profile.csv").read_bytes())
        assert profiles[0] == profiles[1]

    @pytest.mark.parametrize("tolerances,named", [
        ({"ode_tol": 1e-7, "end_tol": math.nextafter(1.6e-6, 0.0)}, "end_tol 1.5999999999999997e-06 is below 16 x tol 1e-07"),
        # the default end_tol 1e-6 against a given ode_tol, and the default ode_tol 1e-10 against a given end_tol
        ({"ode_tol": 1e-6}, "end_tol 1e-06 is below 16 x tol 1e-06"),
        ({"end_tol": 1e-9}, "end_tol 1e-09 is below 16 x tol 1e-10"),
        # below the step control's relative floor, the floor bounds the mismatch: the best shot misses by 1.98e-12
        ({"ode_tol": 5e-324, "end_tol": 1e-300}, "end_tol 1e-300 is below 16 x REL_FLOOR 1e-12 (tol 5e-324 is below it)"),
    ], ids=["just-below", "ode-tol-only", "end-tol-only", "below-the-floor"])
    @pytest.mark.parametrize("command", ["shock", "check"])
    def test_config_below_the_ratio_is_refused(self, tmp_path, outdir, capsys, tolerances, named, command):
        cfg = base_config(outdir)
        cfg["tolerances"] = tolerances
        assert main([command, "--config", write_config(tmp_path, cfg)]) == 2
        err = capsys.readouterr().err
        assert "kind=validation exit=2" in err and f"config.tolerances: {named}" in err
        assert not outdir.exists()


def _strict(constant):
    raise ValueError(f"{constant} is not strict JSON")


class TestStrictJson:
    """Every JSON artifact parses with NaN and the infinities refused."""

    @pytest.mark.parametrize("source", ["base", "readme"])
    @pytest.mark.parametrize("command", ["check", "reduce-info", "shock", "layer"])
    def test_artifacts_are_strict_json(self, tmp_path, outdir, source, command):
        if source == "readme":
            readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
            path = tmp_path / "readme.json"
            path.write_text(re.findall(r"```json\n(.*?)```", readme, re.S)[0])
        else:
            path = write_config(tmp_path, base_config(outdir))
        assert main([command, "--config", str(path), "--out", str(outdir)]) == 0
        written = sorted(outdir.glob("*.json"))
        assert written
        for artifact in written:
            json.loads(artifact.read_text(), parse_constant=_strict)

    @pytest.mark.parametrize("sigma,U", [
        (1.0, [1e200, 0.0, 1.0, 1e200, 0.0]),  # F = [-inf, -1e200, -0.0, nan, nan] and w = inf
        (1.0, [1.0, 0.0, 1.0, 1e308, 1e308]),  # F[4] = inf
        (1e308, [1.0, -1e308, 1.0, 1.0, 0.0]),  # zeta = -inf, F[1:] not finite
        (1.0, [1e300, 1.0 + 2e-8, 1.0, 10.0, 0.0]),  # F and zeta finite, w = F[0] / zeta = -inf
    ])
    def test_non_finite_reduce_info_exits_2(self, tmp_path, outdir, capsys, sigma, U):
        # products and differences of finite config values overflow without an OverflowError
        cfg = base_config(outdir)
        cfg["reduce"] = {"sigma": sigma, "U": U}
        assert main(["reduce-info", "--config", write_config(tmp_path, cfg)]) == 2
        captured = capsys.readouterr()
        assert f"kind=validation exit=2 msg=F, zeta or w is not finite at U = {U}, sigma = {sigma!r}" in captured.err
        assert captured.out == ""
        assert not outdir.exists()


def _functions(tree: ast.Module) -> dict[str, ast.FunctionDef]:
    return {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}


def _callers(tree: ast.Module, name: str) -> list[str]:
    """The module-level functions of tree that call name."""
    return sorted(
        fn_name for fn_name, fn in _functions(tree).items()
        if any(isinstance(n, ast.Call) and isinstance(n.func, ast.Name) and n.func.id == name for n in ast.walk(fn))
    )


def _command_comparisons(tree: ast.Module) -> list[ast.Compare]:
    """The comparisons in tree with an attribute named command on either side."""
    return [
        node for node in ast.walk(tree) if isinstance(node, ast.Compare)
        if any(isinstance(side, ast.Attribute) and side.attr == "command" for side in [node.left, *node.comparators])
    ]


class TestOnePath:
    """Commands compute and return their artifacts; main alone writes and prints them."""

    TREE = ast.parse(Path(cli.__file__).read_text())

    def test_only_main_writes_artifacts(self):
        assert _callers(self.TREE, "_write_artifacts") == ["main"]

    def test_only_main_and_the_error_line_print(self):
        assert _callers(self.TREE, "print") == ["_fail", "main"]

    def test_commands_take_no_output_directory(self):
        commands = {name: fn for name, fn in _functions(self.TREE).items() if name.startswith("cmd_")}
        assert sorted(commands) == ["cmd_check", "cmd_layer", "cmd_reduce_info", "cmd_shock"]
        for fn in commands.values():
            assert [a.arg for a in fn.args.posonlyargs + fn.args.args + fn.args.kwonlyargs] == ["config", "args"]
            assert fn.args.vararg is None and fn.args.kwarg is None

    def test_no_branch_on_the_command_name(self):
        assert _command_comparisons(self.TREE) == []

    def test_rules_catch_a_command_that_writes(self):
        source = (
            "def cmd_x(config, out_dir):\n    _write_artifacts(out_dir, [])\n    print('wrote')\n"
            "def main(args):\n    if args.command == 'x':\n        return cmd_x(None, None)\n"
        )
        tree = ast.parse(source)
        assert _callers(tree, "_write_artifacts") == ["cmd_x"]
        assert _callers(tree, "print") == ["cmd_x"]
        assert len(_command_comparisons(tree)) == 1


FLAGS = {
    "check": ["--config", "--out", "--verbose"],
    "reduce-info": ["--config", "--out"],
    "shock": ["--config", "--out"],
    "layer": ["--config", "--out"],
}


class TestParser:
    def test_each_command_has_its_flags_in_order(self):
        [sub] = [a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
        assert list(sub.choices) == list(FLAGS)
        for name, parser in sub.choices.items():
            assert [a.option_strings for a in parser._actions] == [["-h", "--help"]] + [[f] for f in FLAGS[name]]

    @pytest.mark.parametrize("command,flag", [
        (command, flag) for command in FLAGS for flag in sorted(set().union(*FLAGS.values()) - set(FLAGS[command]))
    ])
    def test_a_flag_of_another_command_is_a_usage_error(self, config_path, outdir, capsys, command, flag):
        value = [] if flag == "--verbose" else ["1"]
        with pytest.raises(SystemExit) as exc:
            main([command, "--config", config_path, flag, *value])
        assert exc.value.code == 2
        assert f"unrecognized arguments: {flag}" in capsys.readouterr().err
        assert not outdir.exists()
