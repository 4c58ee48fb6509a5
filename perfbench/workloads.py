"""Operations of each workload, with the checks on every output.

Each `run_*` function takes one generated operation and a caller: the
`Plain` caller below for timed runs, or a `tracer.Tracer` for the traced
run. It returns an `Outcome`: whether the output passed its checks, the
error class or missed checks when it did not, and a fingerprint (stepper
counters plus SHA-256 of every produced trajectory or artifact) used by
the determinism self-check.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import shutil
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path

from gen import REFERENCE_GAS

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

RH_TOL = 1e-10
DRIFT_TOL = 1e-6


class Plain:
    """Caller without tracing: calls the function and records nothing."""

    def call(self, name, fn, *args, **kwargs):
        return fn(*args, **kwargs)

    def count(self, name, n=1):
        pass


@dataclass
class Outcome:
    ok: bool = True
    error: str | None = None
    misses: list[str] = field(default_factory=list)
    fingerprint: list = field(default_factory=list)
    oracle_dev: float | None = None
    flux_drift: float | None = None
    mode: str | None = None

    def miss(self, check: str, passed: bool) -> None:
        if not passed:
            self.ok = False
            self.misses.append(check)


def _sha(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(a.tobytes() if hasattr(a, "tobytes") else a)
    return h.hexdigest()


def _trajectory_print(traj) -> list:
    st = traj.stats
    return [st.n_accepted, st.n_rejected, st.n_fevals, _sha(traj.ts, traj.Vs, traj.xs)]


def _gas(spec):
    import shocklayer as sl

    return sl.GasModel(
        gamma=spec["gamma"],
        nu_law=sl.PowerLaw(spec["nu"]["coeff"], spec["nu"]["exponent"]),
        k_law=sl.PowerLaw(spec["k"]["coeff"], spec["k"]["exponent"]),
    )


def run_shock(op: dict, api) -> Outcome:
    """solve_rh -> shock_profile -> gilbarg_oracle -> compare_profiles -> flux_constants."""
    import shocklayer as sl

    gas = _gas(op["gas"])
    opts = sl.ShootOpts()
    pair = api.call("profiles.solve_rh", sl.solve_rh, gas, sl.State(*op["left"]), op["family"], op["strength"])
    prof = api.call("profiles.shock_profile", sl.shock_profile, gas, pair, opts)
    oracle = api.call("profiles.gilbarg_oracle", sl.gilbarg_oracle, gas, pair)
    report = api.call("profiles.compare_profiles", sl.compare_profiles, prof, oracle, matching="v")
    flux = api.call("profiles.flux_constants", sl.flux_constants, gas, prof)

    out = Outcome(oracle_dev=report.sup, flux_drift=flux.drift)
    rh = float(max(abs(x) for x in sl.rh_residual(gas, pair)))
    out.miss("rh_residual", rh <= RH_TOL)
    out.miss("lax", bool(sl.lax_inequalities(gas, pair)["satisfied"]))
    out.miss("flux_drift", flux.drift <= DRIFT_TOL)
    out.miss("endpoint_mismatch", prof.diagnostics["endpoint_mismatch"] <= opts.end_tol)
    out.miss("oracle_deviation_finite", math.isfinite(report.sup))
    out.fingerprint = [_trajectory_print(prof.trajectory), _trajectory_print(oracle.trajectory)]
    return out


def run_layer(op: dict, api) -> Outcome:
    import shocklayer as sl

    gas = _gas(op["gas"])
    prof = api.call(
        "profiles.boundary_layer", sl.boundary_layer,
        gas, sl.State(*op["limit_state"]), op["direction_index"], op["amplitude"],
    )
    d = prof.diagnostics
    out = Outcome(flux_drift=d["flux_drift"], mode=d["mode"])
    out.miss("flux_drift", d["flux_drift"] <= DRIFT_TOL)
    out.miss("extended_residual_finite", math.isfinite(d["extended_residual_max"]))
    out.fingerprint = [_trajectory_print(prof.trajectory)]
    return out


def run_structure(op: dict, api, assemblers: dict | None = None) -> Outcome:
    """What `shocklayer check` does with suggest_sigmas on: checks, then degeneracy per sigma."""
    import numpy as np
    import shocklayer as sl

    gas = _gas(op["gas"])
    b = op["box"]
    box = sl.Box(rho=tuple(b["rho"]), v=tuple(b["v"]), theta=tuple(b["theta"]))
    n, seed = op["n_samples"], op["sample_seed"]
    report = api.call(
        "structure.check_structure", sl.check_structure, gas, box, n_samples=n, seed=seed, **(assemblers or {}),
    )
    api.count("structure.samples", n)
    samples = box.sample(n, np.random.default_rng(seed))
    mid = box.midpoint()
    sigmas = [0.0]
    for s in api.call("structure.suggest_sigmas", sl.suggest_sigmas, gas, [mid] + samples[:8]):
        if s not in sigmas:
            sigmas.append(s)
    a11, e11 = sl.eulerian_block_evals(gas)
    for sigma in sigmas:
        critical = sl.State(mid.rho, sigma, mid.theta)
        report.degeneracy.append(api.call(
            "structure.check_block_linear_degeneracy", sl.check_block_linear_degeneracy,
            a11, e11, sigma, samples + [critical],
        ))

    out = Outcome()
    out.miss("structural_pass", report.structural_pass())
    # the critical state v = sigma always loses rank, so every Eulerian verdict is a violation
    out.miss("eulerian_degeneracy_violated", all(not d.satisfied for d in report.degeneracy))
    text = json.dumps(report.to_json_dict(), sort_keys=True).encode()
    out.fingerprint = [n, len(sigmas), _sha(text)]
    return out


def cli_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env.pop("SHOCKLAYER_OUT", None)
    return env


class CliRunner:
    """Runs each CLI operation as a fresh process in a temporary directory.

    The fingerprint covers every artifact byte, so repeated runs of one
    config compare their artifacts through it.
    """

    def __init__(self, work: Path, tracer=None):
        """With a tracer, each process runs through cli_child.py and its spans are merged in."""
        self.work = work
        self.tracer = tracer
        self.n = 0

    def prepare(self, op: dict) -> list[str]:
        """Write the op's config; returns the command line (not timed)."""
        self.n += 1
        cfg = self.work / f"{op['name']}.json"
        cfg.write_text(json.dumps(op["config"], sort_keys=True))
        out_dir = self.work / f"out-{self.n}"
        args = [op["command"], "--config", str(cfg), "--out", str(out_dir)]
        if self.tracer is not None:
            spans = self.work / f"spans-{self.n}.json"
            return [sys.executable, str(Path(__file__).with_name("cli_child.py")), str(spans), *args]
        return [sys.executable, "-m", "shocklayer.cli", *args]

    def execute(self, argv: list[str]) -> subprocess.CompletedProcess:
        return subprocess.run(argv, cwd=ROOT, env=cli_env(), capture_output=True, timeout=120)

    def finish(self, op: dict, argv: list[str], proc: subprocess.CompletedProcess) -> Outcome:
        out_dir = Path(argv[argv.index("--out") + 1])
        out = Outcome()
        if proc.returncode != 0:
            out.ok = False
            out.error = f"exit{proc.returncode}"
        artifacts = {}
        if out_dir.is_dir():
            artifacts = {p.name: p.read_bytes() for p in sorted(out_dir.iterdir())}
            shutil.rmtree(out_dir)
        if self.tracer is not None:
            spans = Path(argv[2])
            if spans.exists():
                data = json.loads(spans.read_text())
                spans.unlink()
                self.tracer.merge(data["table"], data["counters"])
        if out.ok:
            out.miss("artifacts_written", bool(artifacts))
        out.fingerprint = [op["command"], _sha(*(n.encode() + b"\0" + t for n, t in artifacts.items()))]
        return out


def warm_up(workload: str, work: Path | None = None) -> None:
    """One untimed operation per public function the workload calls.

    The first compare_profiles imports scipy (most of a cold start), so
    it happens here and not in the first timed operation.
    """
    api = Plain()
    gas = REFERENCE_GAS
    if workload == "shock_sweep":
        run_shock({"gas": gas, "left": [1.0, 0.0, 1.0], "family": 1, "strength": 0.2}, api)
    elif workload == "layer_sweep":
        run_layer({"gas": gas, "limit_state": [1.0, -0.3, 1.0], "direction_index": 0, "amplitude": 1e-3}, api)
    elif workload == "structure_scan":
        box = {"rho": [0.5, 2.0], "v": [-1.0, 1.0], "theta": [0.5, 2.0]}
        run_structure({"gas": gas, "box": box, "n_samples": 20, "sample_seed": 0}, api)
    else:
        cfg = work / "warm-up.json"
        cfg.write_text(json.dumps({"seed": 0, "reduce": {"sigma": 1.0, "U": [1.0, 1.0, 1.0, 1.0, 0.0]}}))
        proc = subprocess.run(
            [sys.executable, "-m", "shocklayer.cli", "reduce-info", "--config", str(cfg), "--out", str(work / "warm-up")],
            cwd=ROOT, env=cli_env(), capture_output=True, timeout=120,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"CLI warm-up failed with exit {proc.returncode}: {proc.stderr.decode()[-400:]}")
