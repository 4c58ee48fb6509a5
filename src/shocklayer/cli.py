"""Command-line front end: structure checks, reductions, shocks, layers.

One JSON configuration file drives every subcommand; a few flags
(--sigma, --strength, --out) override single entries for quick scans.
Artifacts are written atomically (temp file, then rename) and only after
all computation has finished, so a failing run leaves no partial files.
With a fixed config and seed, reruns produce byte-identical artifacts.

Exit codes: 0 success, 2 configuration or domain validation error (a
non-finite --sigma, --strength or config number included), 3 any other
package error, a numerical failure (no connection, step failure, ...),
4 structural hypotheses failed in `check`. A degeneracy verdict of
"violated" is a reported finding, not a failure.
"""

from __future__ import annotations

import argparse
import json
import math
import os
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ConfigError, DomainError, ShockLayerError
from .gas import Box, GasModel, PowerLaw, State
from .profiles import (
    LayerOpts,
    ShootOpts,
    boundary_layer,
    compare_profiles,
    gilbarg_oracle,
    rh_residual,
    shock_profile,
    solve_rh,
)
from .reduction import SINGULARITY_GUARD, ExtendedState, reduce_w, tw_singular_ode
from .sode import trajectory_metadata, trajectory_to_csv
from .structure import (
    DEFAULT_RANK_TOL,
    DEFAULT_SYM_TOL,
    KERNEL_TOL,
    check_block_linear_degeneracy,
    check_structure,
    eulerian_block_evals,
    lagrangian_block_evals,
    suggest_sigmas,
)
from .system import assemble_A, assemble_B, assemble_E, format_matrix

OUT_ENV_VAR = "SHOCKLAYER_OUT"

_VALIDATION_ERRORS = (ConfigError, DomainError)


def _dump_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def _atomic_write(path: Path, text: str) -> None:
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(text)
    os.replace(tmp, path)


def _write_artifacts(out_dir: Path, artifacts: list[tuple[str, str]]) -> list[Path]:
    out_dir.mkdir(parents=True, exist_ok=True)
    written = []
    for name, text in artifacts:
        path = out_dir / name
        _atomic_write(path, text)
        written.append(path)
    return written


@dataclass(frozen=True)
class Tolerances:
    ode_tol: float = 1e-10
    end_tol: float = 1e-6
    rank_tol: float = DEFAULT_RANK_TOL
    sym_tol: float = DEFAULT_SYM_TOL
    kernel_tol: float = KERNEL_TOL


@dataclass
class RunConfig:
    """Validated run configuration; one file drives all subcommands."""

    seed: int
    gas: GasModel
    out_dir: Path
    box: Box | None
    sigma_list: list[float]
    suggest: bool
    n_samples: int
    blocks: str
    tol: Tolerances
    rh: dict | None
    layer: dict | None
    reduce: dict | None


def _need(raw: dict, key: str, kind, where: str):
    if key not in raw:
        raise ConfigError(f"missing required key {key!r} in {where}")
    value = raw[key]
    if kind is float:
        if not isinstance(value, (int, float)) or isinstance(value, bool):
            raise ConfigError(f"{where}.{key} must be a number, got {value!r}")
        if not math.isfinite(value):
            raise ConfigError(f"{where}.{key} must be finite, got {value!r}")
        return float(value)
    if kind is int:
        if not isinstance(value, int) or isinstance(value, bool):
            raise ConfigError(f"{where}.{key} must be an integer, got {value!r}")
        return value
    if not isinstance(value, kind):
        raise ConfigError(f"{where}.{key} has wrong type {type(value).__name__}")
    return value


def _state_from(value, where: str) -> State:
    if not (isinstance(value, list) and len(value) == 3):
        raise ConfigError(f"{where} must be a list [rho, v, theta]")
    try:
        return State(*(float(c) for c in value))
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{where}: {exc}") from exc


def _power_law_from(value, where: str) -> PowerLaw:
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return PowerLaw(float(value), 0.0)
    if isinstance(value, dict):
        coeff = _need(value, "coeff", float, where)
        exponent = float(value.get("exponent", 0.0))
        return PowerLaw(coeff, exponent)
    raise ConfigError(f"{where} must be a number or {{coeff, exponent}}")


def load_config(path: str) -> RunConfig:
    try:
        raw = json.loads(Path(path).read_text())
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError("config root must be a JSON object")

    seed = _need(raw, "seed", int, "config")
    if seed < 0:
        raise ConfigError(f"seed must be nonnegative, got {seed}")

    gas_raw = raw.get("gas", {})
    if not isinstance(gas_raw, dict):
        raise ConfigError("config.gas must be an object")
    gas = GasModel(
        R=float(gas_raw.get("R", 1.0)),
        gamma=float(gas_raw.get("gamma", 1.4)),
        nu_law=_power_law_from(gas_raw.get("nu", 1.0), "config.gas.nu"),
        k_law=_power_law_from(gas_raw.get("k", 1.0), "config.gas.k"),
        c_rho=float(gas_raw.get("c_rho", 0.1)),
    )

    box = None
    if "box" in raw:
        braw = raw["box"]
        if not isinstance(braw, dict):
            raise ConfigError("config.box must be an object")
        try:
            box = Box(
                rho=tuple(float(c) for c in braw["rho"]),
                v=tuple(float(c) for c in braw["v"]),
                theta=tuple(float(c) for c in braw["theta"]),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigError(f"config.box: {exc}") from exc
        box.validate(gas)

    sigma_list = raw.get("sigma_list", [0.0])
    if not (isinstance(sigma_list, list) and all(
        isinstance(s, (int, float)) and not isinstance(s, bool) for s in sigma_list
    )):
        raise ConfigError("config.sigma_list must be a list of numbers")
    if not all(math.isfinite(s) for s in sigma_list):
        raise ConfigError(f"config.sigma_list must hold finite numbers, got {sigma_list!r}")
    sigma_list = [float(s) for s in sigma_list]

    n_samples = raw.get("n_samples", 200)
    if not isinstance(n_samples, int) or isinstance(n_samples, bool) or n_samples < 1:
        raise ConfigError(f"config.n_samples must be a positive integer, got {n_samples!r}")

    blocks = raw.get("blocks", "eulerian")
    if blocks not in ("eulerian", "lagrangian"):
        raise ConfigError(f"config.blocks must be 'eulerian' or 'lagrangian', got {blocks!r}")

    tol_raw = raw.get("tolerances", {})
    if not isinstance(tol_raw, dict):
        raise ConfigError("config.tolerances must be an object")
    tol_kwargs = {}
    for name in ("ode_tol", "end_tol", "rank_tol", "sym_tol", "kernel_tol"):
        if name in tol_raw:
            value = tol_raw[name]
            if not isinstance(value, (int, float)) or isinstance(value, bool) or not value > 0:
                raise ConfigError(f"config.tolerances.{name} must be positive, got {value!r}")
            tol_kwargs[name] = float(value)
    unknown = set(tol_raw) - {"ode_tol", "end_tol", "rank_tol", "sym_tol", "kernel_tol"}
    if unknown:
        raise ConfigError(f"unknown tolerance keys: {sorted(unknown)}")

    return RunConfig(
        seed=seed,
        gas=gas,
        out_dir=Path(raw.get("out_dir", ".")),
        box=box,
        sigma_list=sigma_list,
        suggest=bool(raw.get("suggest_sigmas", False)),
        n_samples=n_samples,
        blocks=blocks,
        tol=Tolerances(**tol_kwargs),
        rh=raw.get("rh"),
        layer=raw.get("layer"),
        reduce=raw.get("reduce"),
    )


def _resolve_out_dir(config: RunConfig, cli_out: str | None) -> Path:
    if cli_out is not None:
        return Path(cli_out)
    env = os.environ.get(OUT_ENV_VAR)
    if env:
        return Path(env)
    return config.out_dir


def _ext_state_list(U) -> list[float]:
    return [float(c) for c in np.asarray(U).ravel()]


def _plot_script(csv_name: str, png_name: str, title: str) -> str:
    lines = [
        "# gnuplot script; run:  gnuplot " + csv_name.replace(".csv", ".gp"),
        'set datafile separator ","',
        "set terminal pngcairo size 900,900",
        f'set output "{png_name}"',
        f'set multiplot layout 3,1 title "{title}"',
        'set xlabel "x"',
        f'plot "{csv_name}" skip 1 using 1:3 with lines title "rho"',
        f'plot "{csv_name}" skip 1 using 1:4 with lines title "v"',
        f'plot "{csv_name}" skip 1 using 1:5 with lines title "theta"',
        "unset multiplot",
    ]
    return "\n".join(lines) + "\n"


def _profile_artifacts(stem: str, title: str, profile, sidecar: dict, tol: float) -> list[tuple[str, str]]:
    """CSV, diagnostics JSON and gnuplot script of a shock or layer profile.

    sidecar holds the command's own keys; the keys every profile shares
    (flux_drift, termination, details, trajectory) are added here.
    """
    sidecar = {
        **sidecar,
        "flux_drift": profile.diagnostics["flux_drift"],
        "termination": profile.trajectory.termination,
        "details": profile.diagnostics,
        "trajectory": trajectory_metadata(profile.trajectory, tol=tol),
    }
    csv_name = f"{stem}_profile.csv"
    return [
        (csv_name, trajectory_to_csv(profile.trajectory)),
        (f"{stem}_diagnostics.json", _dump_json(sidecar)),
        (f"{stem}_plot.gp", _plot_script(csv_name, f"{stem}_profile.png", title)),
    ]


def cmd_check(config: RunConfig, out_dir: Path, verbose: bool) -> int:
    if config.box is None:
        raise ConfigError("check requires a 'box' entry in the config")
    report = check_structure(
        config.gas, config.box,
        n_samples=config.n_samples, seed=config.seed,
        rank_tol=config.tol.rank_tol, sym_tol=config.tol.sym_tol,
    )
    rng = np.random.default_rng(config.seed)
    samples = config.box.sample(config.n_samples, rng)
    mid = config.box.midpoint()

    sigmas = list(config.sigma_list)
    if config.suggest:
        for s in suggest_sigmas(config.gas, [mid] + samples[:8]):
            if s not in sigmas:
                sigmas.append(s)

    if config.blocks == "eulerian":
        a11_eval, e11_eval = eulerian_block_evals(config.gas)
    else:
        a11_eval, e11_eval = lagrangian_block_evals(config.gas)
    for sigma in sigmas:
        # the shifted block can only lose rank where v = sigma, so a
        # critical state is always added to the random samples
        critical = State(mid.rho, sigma, mid.theta)
        verdict = check_block_linear_degeneracy(
            a11_eval, e11_eval, sigma, samples + [critical], tol=config.tol.kernel_tol,
        )
        report.degeneracy.append(verdict)

    artifacts = [
        ("structure_report.json", _dump_json(report.to_json_dict())),
        ("structure_report.txt", report.to_text() + "\n"),
    ]
    written = _write_artifacts(out_dir, artifacts)
    print(report.to_text())
    if verbose:
        E = assemble_E(config.gas, mid)
        A0 = assemble_A(config.gas, mid)
        B = assemble_B(config.gas, mid)
        print(f"matrices at the box midpoint ({mid.rho:g}, {mid.v:g}, {mid.theta:g}):")
        print(format_matrix(E, "E"))
        print(format_matrix(A0, "A(u, 0)"))
        print(format_matrix(B, "B"))
    for path in written:
        print(f"wrote {path}")
    return 0 if report.structural_pass() else 4


def cmd_reduce_info(config: RunConfig, out_dir: Path, sigma_override: float | None) -> int:
    if config.reduce is None:
        raise ConfigError("reduce-info requires a 'reduce' entry in the config")
    raw = config.reduce
    if not isinstance(raw, dict):
        raise ConfigError("config.reduce must be an object")
    sigma = sigma_override if sigma_override is not None else _need(raw, "sigma", float, "config.reduce")
    U_raw = _need(raw, "U", list, "config.reduce")
    if len(U_raw) != 5:
        raise ConfigError("config.reduce.U must be [rho, v, theta, z1, z2]")
    try:
        U = np.array([float(c) for c in U_raw])
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"config.reduce.U: {exc}") from exc
    if not np.all(np.isfinite(U)):
        raise ConfigError(f"config.reduce.U must be finite, got {U_raw!r}")
    ext = ExtendedState.from_array(U)

    ode = tw_singular_ode(config.gas, sigma)
    V = U.tolist()
    F = ode.F_eval(V)
    zeta = ode.zeta_eval(V)
    w = None
    if abs(zeta) > SINGULARITY_GUARD:
        w = reduce_w(config.gas, ext, sigma)
    payload = {
        "sigma": sigma,
        "U": _ext_state_list(U),
        "F": _ext_state_list(F),
        "zeta": zeta,
        "w": w,
        "singular": abs(zeta) <= SINGULARITY_GUARD,
        "label": ode.label,
    }
    text = _dump_json(payload)
    written = _write_artifacts(out_dir, [("reduce_info.json", text)])
    print(text, end="")
    for path in written:
        print(f"wrote {path}")
    return 0


def cmd_shock(config: RunConfig, out_dir: Path, strength_override: float | None) -> int:
    if config.rh is None:
        raise ConfigError("shock requires an 'rh' entry in the config")
    raw = config.rh
    if not isinstance(raw, dict):
        raise ConfigError("config.rh must be an object")
    family = _need(raw, "family", int, "config.rh")
    strength = strength_override if strength_override is not None else _need(raw, "strength", float, "config.rh")
    U_minus = _state_from(_need(raw, "U_minus", list, "config.rh"), "config.rh.U_minus")

    pair = solve_rh(config.gas, U_minus, family, strength)
    opts = ShootOpts(tol=config.tol.ode_tol, end_tol=config.tol.end_tol)
    profile = shock_profile(config.gas, pair, opts)

    if pair.strength == 0.0:
        oracle_deviation = 0.0
    else:
        oracle = gilbarg_oracle(config.gas, pair, opts)
        oracle_deviation = compare_profiles(profile, oracle, matching="v").sup

    res = rh_residual(config.gas, pair)
    sidecar = {
        "sigma": profile.sigma,
        "family": pair.family,
        "strength": pair.strength,
        "endpoints": {
            "left": _ext_state_list(profile.left.to_array()),
            "right": _ext_state_list(profile.right.to_array()),
        },
        "rh_residual": float(np.max(np.abs(res))),
        "rh_residual_components": _ext_state_list(res),
        "oracle_deviation": oracle_deviation,
    }
    written = _write_artifacts(
        out_dir, _profile_artifacts("shock", "shock profile", profile, sidecar, config.tol.ode_tol),
    )
    print(
        f"shock: family {pair.family}, strength {pair.strength:g}, sigma {profile.sigma:.12g}, "
        f"samples {profile.trajectory.n}, oracle deviation {oracle_deviation:.3e}"
    )
    for path in written:
        print(f"wrote {path}")
    return 0


def cmd_layer(config: RunConfig, out_dir: Path) -> int:
    if config.layer is None:
        raise ConfigError("layer requires a 'layer' entry in the config")
    raw = config.layer
    if not isinstance(raw, dict):
        raise ConfigError("config.layer must be an object")
    limit_state = _state_from(_need(raw, "limit_state", list, "config.layer"), "config.layer.limit_state")
    direction_index = _need(raw, "direction_index", int, "config.layer") if "direction_index" in raw else 0
    amplitude = _need(raw, "amplitude", float, "config.layer") if "amplitude" in raw else 1e-3

    opts = LayerOpts(tol=config.tol.ode_tol)
    profile = boundary_layer(config.gas, limit_state, direction_index, amplitude, opts)
    sidecar = {
        "sigma": 0.0,
        "endpoints": {
            "boundary_trace": _ext_state_list(profile.left.to_array()),
            "limit": _ext_state_list(profile.right.to_array()),
        },
    }
    written = _write_artifacts(
        out_dir, _profile_artifacts("layer", "boundary layer", profile, sidecar, config.tol.ode_tol),
    )
    print(
        f"layer: limit ({limit_state.rho:g}, {limit_state.v:g}, {limit_state.theta:g}), "
        f"amplitude {amplitude:g}, samples {profile.trajectory.n}, "
        f"termination {profile.trajectory.termination}"
    )
    for path in written:
        print(f"wrote {path}")
    return 0


def _finite_float(text: str) -> float:
    """argparse type of --sigma and --strength: a float that is not NaN or infinite."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid float value: {text!r}") from None
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"must be finite, got {text!r}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="shocklayer",
        description="Structure checks, singular reductions, shock profiles and boundary layers "
        "for the symmetrized one-dimensional compressible flow system.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_check = sub.add_parser("check", help="run structural hypothesis checks over a state box")
    p_check.add_argument("--config", required=True)
    p_check.add_argument("--sigma", type=_finite_float, default=None, help="replace sigma_list with this single value")
    p_check.add_argument("--out", default=None)
    p_check.add_argument("--verbose", action="store_true", help="print the assembled matrices at the box midpoint")

    p_red = sub.add_parser("reduce-info", help="print F(U) and zeta(U) of the singular reduction at one state")
    p_red.add_argument("--config", required=True)
    p_red.add_argument("--sigma", type=_finite_float, default=None)
    p_red.add_argument("--out", default=None)

    p_shock = sub.add_parser("shock", help="compute a travelling shock profile and its diagnostics")
    p_shock.add_argument("--config", required=True)
    p_shock.add_argument("--strength", type=_finite_float, default=None)
    p_shock.add_argument("--out", default=None)

    p_layer = sub.add_parser("layer", help="compute a steady boundary layer")
    p_layer.add_argument("--config", required=True)
    p_layer.add_argument("--out", default=None)

    return parser


def _fail(kind: str, code: int, exc: Exception) -> int:
    import sys

    msg = " ".join(str(exc).split())
    print(f"shocklayer: kind={kind} exit={code} msg={msg}", file=sys.stderr)
    return code


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        config = load_config(args.config)
        if getattr(args, "sigma", None) is not None and args.command == "check":
            config.sigma_list = [args.sigma]
        out_dir = _resolve_out_dir(config, args.out)
        if args.command == "check":
            return cmd_check(config, out_dir, args.verbose)
        if args.command == "reduce-info":
            return cmd_reduce_info(config, out_dir, args.sigma)
        if args.command == "shock":
            return cmd_shock(config, out_dir, args.strength)
        if args.command == "layer":
            return cmd_layer(config, out_dir)
        raise ConfigError(f"unknown command {args.command!r}")
    except _VALIDATION_ERRORS as exc:
        return _fail("validation", 2, exc)
    except ShockLayerError as exc:
        return _fail("numerical", 3, exc)


if __name__ == "__main__":
    raise SystemExit(main())
