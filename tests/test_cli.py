"""End-to-end tests of the command line interface.

Each test drives main() in process with a config file under tmp_path and
inspects exit codes, artifacts, and stdout/stderr. Reruns with the same
config must produce byte-identical artifacts.
"""

import hashlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from shocklayer import Box, CheckResult, State, StructureReport
from shocklayer.cli import OUT_ENV_VAR, Tolerances, load_config, main
from shocklayer.sode import CSV_HEADER


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

    def test_sigma_override(self, config_path, outdir):
        # the command always adds the critical state v = sigma, so the
        # Eulerian verdict is "violated" at any sigma, with that state
        # as the kernel-dimension-1 witness
        assert main(["check", "--config", config_path, "--sigma", "5.0"]) == 0
        report = json.loads((outdir / "structure_report.json").read_text())
        assert len(report["degeneracy"]) == 1
        deg = report["degeneracy"][0]
        assert deg["sigma"] == 5.0
        assert deg["verdict"] == "violated"
        assert deg["dims_observed"] == [0, 1]
        crit = [w for w in deg["witnesses"] if w["kernel_dim"] == 1]
        assert crit and crit[0]["state"][1] == 5.0

    def test_lagrangian_blocks_satisfied(self, tmp_path, outdir):
        cfg = base_config(outdir)
        cfg["blocks"] = "lagrangian"
        cfg["sigma_list"] = [0.0, 0.5, -2.0]
        path = write_config(tmp_path, cfg)
        assert main(["check", "--config", path]) == 0
        report = json.loads((outdir / "structure_report.json").read_text())
        assert len(report["degeneracy"]) == 3
        for deg in report["degeneracy"]:
            assert deg["verdict"] == "satisfied"
            expected = [1] if deg["sigma"] == 0.0 else [0]
            assert deg["dims_observed"] == expected

    def test_verbose_prints_matrices(self, config_path, capsys):
        assert main(["check", "--config", config_path, "--verbose"]) == 0
        out = capsys.readouterr().out
        assert "matrices at the box midpoint" in out
        assert "E =" in out

    def test_structural_failure_exits_4(self, config_path, outdir, monkeypatch):
        def fake_check(gas, box, **kwargs):
            report = StructureReport(box=box, n_samples=1, seed=0)
            report.e_spd = CheckResult(passed=False, worst=-1.0, witness=None)
            report.a0_symmetric = CheckResult(passed=True, worst=0.0, witness=None)
            report.b_coercivity = CheckResult(passed=True, worst=1.0, witness=None)
            return report

        monkeypatch.setattr("shocklayer.cli.check_structure", fake_check)
        assert main(["check", "--config", config_path]) == 4
        report = json.loads((outdir / "structure_report.json").read_text())
        assert report["structural_pass"] is False

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


class TestReadme:
    def test_config_example_loads_and_runs(self, tmp_path, outdir):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        blocks = re.findall(r"```json\n(.*?)```", readme, re.S)
        assert len(blocks) == 1
        path = tmp_path / "readme.json"
        path.write_text(blocks[0])
        config = load_config(str(path))
        assert config.tol == Tolerances()  # the example shows the defaults
        assert main(["reduce-info", "--config", str(path), "--out", str(outdir)]) == 0
        assert (outdir / "reduce_info.json").exists()


class TestReduceInfo:
    def test_singular_point_reported(self, config_path, outdir):
        # config pins sigma = 1 at a state with v = 1: on the sonic set
        assert main(["reduce-info", "--config", config_path]) == 0
        info = json.loads((outdir / "reduce_info.json").read_text())
        assert info["F"] == [-1.0, 0.0, 0.0, -1.0, 0.0]
        assert info["zeta"] == 0.0
        assert info["singular"] is True
        assert info["w"] is None

    def test_sigma_override_regular_point(self, config_path, outdir):
        assert main(["reduce-info", "--config", config_path, "--sigma", "0.0"]) == 0
        info = json.loads((outdir / "reduce_info.json").read_text())
        assert info["F"] == [-1.0, 1.0, 0.0, 0.0, 0.0]
        assert info["zeta"] == 1.0
        assert info["singular"] is False
        assert info["w"] == -1.0
        assert info["label"] == "steady"

    def test_missing_section(self, tmp_path, outdir):
        cfg = base_config(outdir)
        del cfg["reduce"]
        path = write_config(tmp_path, cfg)
        assert main(["reduce-info", "--config", path]) == 2


class TestShock:
    def test_full_run(self, config_path, outdir, capsys):
        assert main(["shock", "--config", config_path]) == 0
        side = json.loads((outdir / "shock_diagnostics.json").read_text())
        assert side["sigma"] == pytest.approx(-1.3832159566199231, rel=1e-10)
        assert side["family"] == 1 and side["strength"] == 0.2
        assert side["rh_residual"] <= 1e-12
        assert side["flux_drift"] <= 1e-6
        assert side["oracle_deviation"] <= 1e-5
        assert side["endpoints"]["left"] == [1.0, 0.0, 1.0, 0.0, 0.0]
        assert side["details"]["endpoint_mismatch"] <= 1e-6
        csv = (outdir / "shock_profile.csv").read_text()
        assert csv.startswith(CSV_HEADER + "\n")
        assert len(csv.strip().split("\n")) == side["trajectory"]["n_samples"] + 1
        gp = (outdir / "shock_plot.gp").read_text()
        assert 'using 1:3' in gp and 'using 1:4' in gp and 'using 1:5' in gp
        assert "shock_profile.png" in gp
        out = capsys.readouterr().out
        assert "shock: family 1" in out

    def test_strength_override_zero(self, config_path, outdir):
        assert main(["shock", "--config", config_path, "--strength", "0"]) == 0
        side = json.loads((outdir / "shock_diagnostics.json").read_text())
        assert side["strength"] == 0.0
        assert side["oracle_deviation"] == 0.0
        assert side["trajectory"]["n_samples"] == 1

    def test_negative_strength_rejected(self, config_path, capsys):
        assert main(["shock", "--config", config_path, "--strength", "-0.1"]) == 2
        assert "kind=validation" in capsys.readouterr().err

    def test_family3_past_the_bound_rejected(self, tmp_path, outdir, capsys):
        cfg = base_config(outdir)
        cfg["rh"]["family"] = 3
        path = write_config(tmp_path, cfg)
        assert main(["shock", "--config", path, "--strength", "0.9"]) == 2
        err = capsys.readouterr().err
        assert "kind=validation exit=2" in err and "admissible limit" in err

    def test_records_attempts_and_evaluations(self, config_path, outdir):
        assert main(["shock", "--config", config_path]) == 0
        side = json.loads((outdir / "shock_diagnostics.json").read_text())
        [shot] = side["details"]["attempts"]
        assert set(shot) == {"sign", "eps", "termination", "mismatch", "n_steps"}
        assert shot["sign"] == side["details"]["sign"]
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
        assert side["details"]["mode"] == "direct"
        assert side["flux_drift"] <= 1e-5
        assert (outdir / "layer_profile.csv").exists()
        assert (outdir / "layer_plot.gp").exists()
        assert "layer: limit (1, -0.3, 1)" in capsys.readouterr().out

    def test_supersonic_outflow_is_numerical_error(self, tmp_path, outdir, capsys):
        cfg = base_config(outdir)
        cfg["layer"]["limit_state"] = [1.0, 2.0, 1.0]
        path = write_config(tmp_path, cfg)
        assert main(["layer", "--config", path]) == 3
        err = capsys.readouterr().err
        assert "kind=numerical exit=3" in err
        assert not (outdir / "layer_profile.csv").exists()


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
    def test_env_variable(self, config_path, tmp_path, monkeypatch):
        env_dir = tmp_path / "envout"
        monkeypatch.setenv(OUT_ENV_VAR, str(env_dir))
        assert main(["reduce-info", "--config", config_path]) == 0
        assert (env_dir / "reduce_info.json").exists()

    def test_cli_flag_beats_env(self, config_path, tmp_path, monkeypatch):
        env_dir = tmp_path / "envout"
        cli_dir = tmp_path / "cliout"
        monkeypatch.setenv(OUT_ENV_VAR, str(env_dir))
        assert main(["reduce-info", "--config", config_path, "--out", str(cli_dir)]) == 0
        assert (cli_dir / "reduce_info.json").exists()
        assert not env_dir.exists()

    def test_config_out_dir_is_fallback(self, config_path, outdir, monkeypatch):
        monkeypatch.delenv(OUT_ENV_VAR, raising=False)
        assert main(["reduce-info", "--config", config_path]) == 0
        assert (outdir / "reduce_info.json").exists()


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

    def test_bad_sigma_list(self, tmp_path, outdir):
        cfg = base_config(outdir)
        cfg["sigma_list"] = [0.0, "zero"]
        assert self.e2(tmp_path, cfg) == 2

    def test_bad_blocks_value(self, tmp_path, outdir):
        cfg = base_config(outdir)
        cfg["blocks"] = "polar"
        assert self.e2(tmp_path, cfg) == 2

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
