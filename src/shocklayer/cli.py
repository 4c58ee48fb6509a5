"""Command-line front end: structure checks, reductions, shocks, layers.

One JSON configuration file fixes every run. The only other inputs are
--out, which replaces the config's out_dir, and check's --verbose, which
adds the matrices at the box midpoint to stdout; no environment
variable is read. Each subcommand is a `cmd_*(config, args)` listed in
`_COMMANDS` with its help and flags; it computes and returns its
artifacts, its stdout text and its exit code, and writes nothing. `main`
alone runs it, writes the artifacts to the output directory, staged
(`_write_artifacts`: every temp file before any rename) and prints, so
a run that fails before the renames leaves no partial files. With a
fixed config, reruns produce byte-identical artifacts.

This module decides every artifact format but one: the JSON reports
(`_dump_json`), the profile CSV (`_CSV_HEADER`, `_profile_csv`), the
record of the run behind a profile (`_run_metadata`), the gnuplot script
that reads that CSV by its header (`_plot_script`) and the matrix
printout of `check --verbose` (`_format_matrix`). The exception is the
`check` report, whose text and JSON layout `StructureReport.to_text`
and `to_json_dict` give in `structure`; they stay there because the
benchmark hashes `to_json_dict()`. Beyond that report, no other module
renders anything. A profile's diagnostics JSON holds each fact once
(`_profile_artifacts`).

Every config value goes through one checked read (`_need`, `_floats`,
`_section`): a number is a finite JSON number (an int, not a bool), the
booleans, strings and lists have their JSON type and length, and a key
its section does not read is an error in every section. The root keys
and the box are read at load; rh, layer and reduce by their command.

Exit codes: 0 success, 2 configuration or domain validation error (a
missing, unknown or mistyped key, a non-finite config number, a
tolerance pair `ShootOpts` refuses, a non-finite F, zeta or w in
`reduce-info`, an output directory that cannot be created or written
and an artifact path that exists and is not a regular file included),
3 any other package error, a numerical failure (no connection, step
failure, ...), 4 structural hypotheses failed in `check`. A degeneracy
verdict of "violated" is a reported finding, not a failure.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from .errors import ConfigError, DomainError, ShockLayerError
from .gas import Box, GasModel, PowerLaw, State
from .profiles import (
    ShootOpts,
    boundary_layer,
    compare_profiles,
    gilbarg_oracle,
    rh_residual,
    shock_profile,
    solve_rh,
)
from .reduction import TW_RHS, tw_singular_ode
from .structure import (
    _assemble,
    check_block_linear_degeneracy,
    check_structure,
    eulerian_block_evals,
    suggest_sigmas,
)
from .system import assemble_A, assemble_B, assemble_E

_VALIDATION_ERRORS = (ConfigError, DomainError)


def _dump_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def _write_artifacts(out_dir: Path, artifacts: list[tuple[str, str]]) -> list[Path]:
    """The (name, text) artifacts written to out_dir: every target checked, every name.tmp written, then renamed.

    An OSError removes the temp files this call wrote and propagates; the
    renames are not one transaction, so one that fails keeps those before.
    """
    paths = [out_dir / name for name, _ in artifacts]
    for path in paths:
        if path.exists() and not path.is_file():
            raise ConfigError(f"cannot write the artifacts to {out_dir}: {path} exists and is not a regular file")
    out_dir.mkdir(parents=True, exist_ok=True)
    tmps = [path.with_name(path.name + ".tmp") for path in paths]
    written = []  # the temp files this call opened; a renamed one is gone
    try:
        for tmp, (_, text) in zip(tmps, artifacts):
            with tmp.open("w") as f:
                written.append(tmp)
                f.write(text)
        for tmp, path in zip(tmps, paths):
            os.replace(tmp, path)
    except OSError:
        for tmp in written:
            tmp.unlink(missing_ok=True)
        raise
    return paths


@dataclass
class RunConfig:
    """Validated run configuration; raw keeps the sections a command reads itself."""

    seed: int
    gas: GasModel
    out_dir: Path
    box: Box | None
    sigma_list: list[float]
    suggest: bool
    n_samples: int
    tol: ShootOpts
    raw: dict


def _float(value, name: str) -> float:
    """value as a float, if it is a finite JSON number: an int or a float, not a bool."""
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        raise ConfigError(f"{name}: expected a number, got {value!r}")
    if not abs(value) <= sys.float_info.max:  # NaN, an infinity, or an int past the float range
        raise ConfigError(f"{name} must be finite, got {value!r}")
    return float(value)


def _need(raw: dict, key: str, kind, where: str, default=None):
    """raw[key] checked against kind; a key without a default is required.

    kind float is a finite number, int an integer that is not a bool,
    and any other kind an isinstance check.
    """
    if key not in raw:
        if default is None:
            raise ConfigError(f"missing required key {key!r} in {where}")
        return default
    value = raw[key]
    if kind is float:
        return _float(value, f"{where}.{key}")
    if kind is int and isinstance(value, bool) or not isinstance(value, kind):
        raise ConfigError(f"{where}.{key}: expected {kind.__name__}, got {value!r}")
    return value


def _floats(raw: dict, key: str, where: str, length: int | None = None, default=None) -> list[float]:
    """raw[key] as a list of finite numbers, length of them where one applies."""
    value = _need(raw, key, list, where, default)
    if length is not None and len(value) != length:
        raise ConfigError(f"{where}.{key} must be a list of {length} numbers, got {value!r}")
    return [_float(c, f"{where}.{key}") for c in value]


def _known_keys(section: dict, name: str, keys) -> dict:
    unknown = sorted(set(section) - set(keys))
    if unknown:
        raise ConfigError(f"{name} has unknown keys {unknown}")
    return section


def _section(raw: dict, key: str, where: str, keys, default=None) -> dict:
    """raw[key] as an object that holds no key outside keys."""
    return _known_keys(_need(raw, key, dict, where, default), f"{where}.{key}", keys)


def _state(raw: dict, key: str, where: str) -> State:
    try:
        return State(*_floats(raw, key, where, 3))
    except DomainError as exc:
        raise ConfigError(f"{where}.{key}: {exc}") from exc


def _power_law(raw: dict, key: str, where: str) -> PowerLaw:
    """A number (constant coefficient) or {coeff, exponent} (power law in density)."""
    if not isinstance(raw.get(key), dict):
        return PowerLaw(_need(raw, key, float, where, 1.0), 0.0)
    law, name = _section(raw, key, where, ("coeff", "exponent")), f"{where}.{key}"
    return PowerLaw(_need(law, "coeff", float, name), _need(law, "exponent", float, name, 0.0))


_CONFIG_KEYS = ("seed", "out_dir", "gas", "box", "sigma_list", "suggest_sigmas", "n_samples", "tolerances", "rh",
                "layer", "reduce")

# each key of the tolerances section and the ShootOpts field it sets
_TOLERANCES = {"ode_tol": "tol", "end_tol": "end_tol"}


def load_config(path: str) -> RunConfig:
    try:
        raw = json.loads(Path(path).read_text())
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except ValueError as exc:  # a JSONDecodeError, or an integer past the digit limit
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError("config root must be a JSON object")
    _known_keys(raw, "config", _CONFIG_KEYS)

    seed = _need(raw, "seed", int, "config")
    if seed < 0:
        raise ConfigError(f"seed must be nonnegative, got {seed}")

    gas_raw = _section(raw, "gas", "config", ("R", "gamma", "nu", "k", "c_rho"), {})
    gas = GasModel(
        R=_need(gas_raw, "R", float, "config.gas", 1.0),
        gamma=_need(gas_raw, "gamma", float, "config.gas", 1.4),
        nu_law=_power_law(gas_raw, "nu", "config.gas"),
        k_law=_power_law(gas_raw, "k", "config.gas"),
        c_rho=_need(gas_raw, "c_rho", float, "config.gas", 0.1),
    )

    box = None
    if "box" in raw:
        braw = _section(raw, "box", "config", ("rho", "v", "theta"))
        box = Box(**{name: tuple(_floats(braw, name, "config.box", 2)) for name in ("rho", "v", "theta")})
        box.validate(gas)

    n_samples = _need(raw, "n_samples", int, "config", 200)
    if n_samples < 1:
        raise ConfigError(f"config.n_samples must be a positive integer, got {n_samples!r}")

    tol_raw = _section(raw, "tolerances", "config", _TOLERANCES, {})
    try:
        opts = ShootOpts(**{_TOLERANCES[name]: _need(tol_raw, name, float, "config.tolerances") for name in tol_raw})
    except DomainError as exc:
        raise ConfigError(f"config.tolerances: {exc}") from exc

    return RunConfig(
        seed=seed,
        gas=gas,
        out_dir=Path(_need(raw, "out_dir", str, "config", ".")),
        box=box,
        sigma_list=_floats(raw, "sigma_list", "config", default=[0.0]),
        suggest=_need(raw, "suggest_sigmas", bool, "config", False),
        n_samples=n_samples,
        tol=opts,
        raw=raw,
    )


# every profile the commands write is 5-D: x, tau (empty in direct mode), then the state rho, v, theta, z1, z2
_CSV_HEADER = ",".join(("x", "tau", *TW_RHS.state))


def _profile_csv(traj) -> str:
    """Fixed-column CSV of a profile's trajectory, one row per sample.

    Floats are written with repr (shortest round-trip form), which keeps
    reruns byte-identical.
    """
    taus = [""] * traj.n if traj.taus is None else map(repr, traj.taus.tolist())
    rows = (",".join([repr(x), tau, *map(repr, V)]) for x, tau, V in zip(traj.xs.tolist(), taus, traj.Vs.tolist()))
    return "\n".join([_CSV_HEADER, *rows]) + "\n"


def _run_metadata(traj, tol: float) -> dict:
    """JSON-ready record of a run (termination, stats, extents) and the tol it ran at."""
    return {
        "mode": traj.mode,
        "termination": traj.termination,
        "n_samples": traj.n,
        "t_first": float(traj.ts[0]),
        "t_last": float(traj.ts[-1]),
        "x_first": float(traj.xs[0]),
        "x_last": float(traj.xs[-1]),
        "stats": asdict(traj.stats),
        "tol": tol,
    }


def _plot_script(gp_name: str, csv_name: str, png_name: str, title: str) -> str:
    """gnuplot script gp_name: rho, v and theta of the CSV against x, each found by its `_CSV_HEADER` column."""
    column = {name: i for i, name in enumerate(_CSV_HEADER.split(","), start=1)}
    lines = [
        "# gnuplot script; run:  gnuplot " + gp_name,
        'set datafile separator ","',
        "set terminal pngcairo size 900,900",
        f'set output "{png_name}"',
        f'set multiplot layout 3,1 title "{title}"',
        'set xlabel "x"',
        *(
            f'plot "{csv_name}" skip 1 using {column["x"]}:{column[name]} with lines title "{name}"'
            for name in ("rho", "v", "theta")
        ),
        "unset multiplot",
    ]
    return "\n".join(lines) + "\n"


def _profile_artifacts(stem: str, title: str, profile, sidecar: dict, tol: float) -> list[tuple[str, str]]:
    """CSV, diagnostics JSON and gnuplot script of a shock or layer profile.

    sidecar holds what the command adds; details (the profile's diagnostics) and
    trajectory (the run, `_run_metadata`) are added here, so each fact is written once.
    """
    sidecar = {**sidecar, "details": profile.diagnostics, "trajectory": _run_metadata(profile.trajectory, tol=tol)}
    csv_name, gp_name = f"{stem}_profile.csv", f"{stem}_plot.gp"
    return [
        (csv_name, _profile_csv(profile.trajectory)),
        (f"{stem}_diagnostics.json", _dump_json(sidecar)),
        (gp_name, _plot_script(gp_name, csv_name, f"{stem}_profile.png", title)),
    ]


def _format_matrix(M: np.ndarray, name: str) -> str:
    """Plain-text aligned rendering of a matrix for terminal output, six digits after the point."""
    cells = [[f"{x:+.6e}" for x in row] for row in np.atleast_2d(M)]
    width = max(len(c) for row in cells for c in row)
    leads = [f"{name} = "] + [" " * (len(name) + 3)] * (len(cells) - 1)
    return "\n".join(lead + "[ " + "  ".join(c.rjust(width) for c in row) + " ]" for lead, row in zip(leads, cells))


# what a command returns: its artifacts as (file name, text), its stdout text and its exit code
_Result = tuple[list[tuple[str, str]], str, int]


def cmd_check(config: RunConfig, args: argparse.Namespace) -> _Result:
    if config.box is None:
        raise ConfigError("check requires a 'box' entry in the config")
    report = check_structure(config.gas, config.box, n_samples=config.n_samples, seed=config.seed)
    mid = config.box.midpoint()

    sigmas = list(config.sigma_list)
    if config.suggest:
        for s in suggest_sigmas(config.gas, [mid] + report.samples[:8]):
            if s not in sigmas:
                sigmas.append(s)

    a11_eval, e11_eval = eulerian_block_evals(config.gas)
    for sigma in sigmas:
        # the shifted block can only lose rank where v = sigma, so a
        # critical state is always added to the random samples
        critical = State(mid.rho, sigma, mid.theta)
        verdict = check_block_linear_degeneracy(a11_eval, e11_eval, sigma, report.samples + [critical])
        report.degeneracy.append(verdict)

    text = report.to_text() + "\n"
    artifacts = [
        ("structure_report.json", _dump_json(report.to_json_dict())),
        ("structure_report.txt", text),
    ]
    if args.verbose:
        # the guarded assembly: a midpoint that cannot be assembled is a DomainError naming it
        E, A, B = _assemble(config.gas, [mid], (assemble_E, assemble_A, assemble_B), "state")
        text += "\n".join([
            f"matrices at the box midpoint ({mid.rho:g}, {mid.v:g}, {mid.theta:g}):",
            _format_matrix(E[0], "E"), _format_matrix(A[0], "A(u, 0)"), _format_matrix(B[0], "B"),
        ]) + "\n"
    return artifacts, text, 0 if report.structural_pass() else 4


def cmd_reduce_info(config: RunConfig, args: argparse.Namespace) -> _Result:
    raw = _section(config.raw, "reduce", "config", ("sigma", "U"))
    sigma = _need(raw, "sigma", float, "config.reduce")
    V = _floats(raw, "U", "config.reduce", 5)

    ode = tw_singular_ode(config.gas, sigma)
    F = ode.F_eval(V)
    zeta = ode.zeta_eval(V)
    # the density gradient rho_x of the hyperbolic row, undefined on the sonic set zeta = 0
    singular = zeta == 0.0
    w = None if singular else F[0] / zeta
    if not all(map(math.isfinite, [*F, zeta, 0.0 if singular else w])):
        raise DomainError(f"F, zeta or w is not finite at U = {V}, sigma = {sigma!r}: F = {F}, zeta = {zeta!r}")
    text = _dump_json({"sigma": sigma, "U": V, "F": F, "zeta": zeta, "w": w, "singular": singular, "label": ode.label})
    return [("reduce_info.json", text)], text, 0


def cmd_shock(config: RunConfig, args: argparse.Namespace) -> _Result:
    raw = _section(config.raw, "rh", "config", ("family", "strength", "U_minus"))
    family = _need(raw, "family", int, "config.rh")
    strength = _need(raw, "strength", float, "config.rh")
    U_minus = _state(raw, "U_minus", "config.rh")

    pair = solve_rh(config.gas, U_minus, family, strength)
    profile = shock_profile(config.gas, pair, config.tol)
    oracle_deviation = compare_profiles(profile, gilbarg_oracle(config.gas, pair, config.tol), matching="v").sup
    # family, strength and the residual's sup are in details (see `shock_profile`)
    sidecar = {
        "sigma": profile.sigma,
        "endpoints": {
            "left": profile.left.tolist(),
            "right": profile.right.tolist(),
        },
        "rh_residual_components": rh_residual(config.gas, pair).tolist(),
        "oracle_deviation": oracle_deviation,
    }
    text = (
        f"shock: family {pair.family}, strength {pair.strength:g}, sigma {profile.sigma:.12g}, "
        f"samples {profile.trajectory.n}, oracle deviation {oracle_deviation:.3e}\n"
    )
    return _profile_artifacts("shock", "shock profile", profile, sidecar, config.tol.tol), text, 0


def cmd_layer(config: RunConfig, args: argparse.Namespace) -> _Result:
    raw = _section(config.raw, "layer", "config", ("limit_state", "direction_index", "amplitude"))
    limit_state = _state(raw, "limit_state", "config.layer")
    direction_index = _need(raw, "direction_index", int, "config.layer", 0)
    amplitude = _need(raw, "amplitude", float, "config.layer", 1e-3)

    profile = boundary_layer(config.gas, limit_state, direction_index, amplitude, tol=config.tol.tol)
    sidecar = {
        "sigma": 0.0,
        "endpoints": {
            "boundary_trace": profile.left.tolist(),
            "limit": profile.right.tolist(),
        },
    }
    text = (
        f"layer: limit ({limit_state.rho:g}, {limit_state.v:g}, {limit_state.theta:g}), "
        f"amplitude {amplitude:g}, samples {profile.trajectory.n}, "
        f"termination {profile.trajectory.termination}\n"
    )
    return _profile_artifacts("layer", "boundary layer", profile, sidecar, config.tol.tol), text, 0


_CONFIG = ("--config", {"required": True})
_OUT = ("--out", {})

# name: (command, help, its flags in the order --help lists them)
_COMMANDS = {
    "check": (cmd_check, "run structural hypothesis checks over a state box", [
        _CONFIG,
        _OUT,
        ("--verbose", {"action": "store_true", "help": "print the assembled matrices at the box midpoint"}),
    ]),
    "reduce-info": (cmd_reduce_info, "print F(U) and zeta(U) of the singular reduction at one state", [_CONFIG, _OUT]),
    "shock": (cmd_shock, "compute a travelling shock profile and its diagnostics", [_CONFIG, _OUT]),
    "layer": (cmd_layer, "compute a steady boundary layer", [_CONFIG, _OUT]),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="shocklayer",
        description="Structure checks, singular reductions, shock profiles and boundary layers "
        "for the symmetrized one-dimensional compressible flow system.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_text, flags) in _COMMANDS.items():
        command = sub.add_parser(name, help=help_text)
        for flag, kwargs in flags:
            command.add_argument(flag, **kwargs)
    return parser


def _fail(kind: str, code: int, exc: Exception) -> int:
    msg = " ".join(str(exc).split())
    print(f"shocklayer: kind={kind} exit={code} msg={msg}", file=sys.stderr)
    return code


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config = load_config(args.config)
        artifacts, text, code = _COMMANDS[args.command][0](config, args)
        out_dir = config.out_dir if args.out is None else Path(args.out)
        try:
            written = _write_artifacts(out_dir, artifacts)
        except OSError as exc:  # such as a path that is a file, or lies under one
            raise ConfigError(f"cannot write the artifacts to {out_dir}: {exc}") from exc
    except _VALIDATION_ERRORS as exc:
        return _fail("validation", 2, exc)
    except ShockLayerError as exc:
        return _fail("numerical", 3, exc)
    print(text, end="")
    for path in written:
        print(f"wrote {path}")
    return code


if __name__ == "__main__":
    raise SystemExit(main())
