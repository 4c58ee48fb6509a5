"""Deterministic input generator for the benchmark workloads.

`operations(workload, seed)` yields an endless stream of plain-data
operations (dicts of floats, ints and lists), built only from the seed:
the same seed gives the same stream, bit for bit. The stream comes in
blocks with a fixed composition; inside a block the draws are stratified
and shuffled, so every completed block has the same mix of cheap and
expensive operations and run-to-run spread comes from the program, not
from the luck of the draw.
"""

from __future__ import annotations

import math
from typing import Iterator

import numpy as np

WORKLOADS = ("shock_sweep", "layer_sweep", "structure_scan", "cli_cold")

GAMMA_RANGE = (1.2, 5.0 / 3.0)


def _rng(workload: str, seed: int) -> np.random.Generator:
    return np.random.default_rng([int(seed), WORKLOADS.index(workload)])


def _log_uniform(lo: float, hi: float, u: float) -> float:
    return math.exp(math.log(lo) + u * (math.log(hi) - math.log(lo)))


def _strata(rng: np.random.Generator, n: int) -> list[float]:
    """n uniform draws, one from each of n equal sub-intervals, shuffled."""
    u = (np.arange(n) + rng.uniform(size=n)) / n
    rng.shuffle(u)
    return [float(x) for x in u]


def _gas(rng: np.random.Generator) -> dict:
    return {
        "gamma": float(rng.uniform(*GAMMA_RANGE)),
        "nu": {"coeff": float(rng.uniform(0.7, 1.4)), "exponent": float(rng.uniform(-0.5, 1.0))},
        "k": {"coeff": float(rng.uniform(0.7, 1.4)), "exponent": float(rng.uniform(-0.5, 1.0))},
    }


def _near_unit_state(rng: np.random.Generator) -> list[float]:
    return [
        float(rng.uniform(0.9, 1.1)),
        float(rng.uniform(-0.1, 0.1)),
        float(rng.uniform(0.9, 1.1)),
    ]


def sound_speed(gamma: float, theta: float) -> float:
    """Ideal-gas sound speed with R = 1."""
    return math.sqrt(gamma * theta)


def family3_strength_bound(gamma: float, left: list[float]) -> float:
    """Largest admissible 3-shock strength from the left state (R = 1).

    For a 3-shock the left state is downstream; its Mach number relative
    to the shock, (c - strength) / c, cannot fall below the
    infinite-strength limit sqrt((gamma - 1) / (2 gamma)).
    """
    c = sound_speed(gamma, left[2])
    return c * (1.0 - math.sqrt((gamma - 1.0) / (2.0 * gamma)))


# shock_sweep: families 1 and 3, eight stratified strengths each per block.
SHOCK_BLOCK = 16
SHOCK_F1_STRENGTH = (0.08, 3.0)
# family-3 strengths as a share of the admissible bound; the top of the
# range lies past the bound on purpose
SHOCK_F3_SHARE = (0.1, 1.4)


def _shock_block(rng: np.random.Generator) -> list[dict]:
    ops = []
    for family in (1, 3):
        for u in _strata(rng, SHOCK_BLOCK // 2):
            gas = _gas(rng)
            left = _near_unit_state(rng)
            if family == 1:
                strength = _log_uniform(*SHOCK_F1_STRENGTH, u)
            else:
                bound = family3_strength_bound(gas["gamma"], left)
                strength = bound * _log_uniform(*SHOCK_F3_SHARE, u)
            ops.append({"kind": "shock", "gas": gas, "left": left, "family": family, "strength": strength})
    rng.shuffle(ops)
    return ops


# layer_sweep: limit-state classes per block. Near-sonic ops run about
# 50x longer than the fast classes and characteristic ones about 10x.
# With 2 near-sonic ops in 10 the 90th latency percentile falls in the
# middle of the near-sonic group and the median inside the fast group.
# The two slow classes use the reference gas and limit state, so their
# run time depends on the amplitude and the speed alone. A near-sonic
# run costs about 25k F evaluations at amplitude 1e-2 and 48k at 2e-4,
# so its amplitude is kept within a factor of two; otherwise the 90th
# percentile of a run follows the luck of two draws.
LAYER_CLASSES = (
    ("subsonic", 5),
    ("supersonic_inflow", 2),
    ("characteristic", 1),
    ("near_sonic", 2),
)
LAYER_AMPLITUDE = (1e-4, 1e-2)
LAYER_NEAR_SONIC_AMPLITUDE = (1e-3, 2e-3)
LAYER_NEAR_SONIC_SPEED = (0.01, 0.0105)
REFERENCE_GAS = {"gamma": 1.4, "nu": {"coeff": 1.0, "exponent": 0.0}, "k": {"coeff": 1.0, "exponent": 0.0}}


def _layer_block(rng: np.random.Generator) -> list[dict]:
    ops = []
    for cls, count in LAYER_CLASSES:
        for i, u in enumerate(_strata(rng, count)):
            magnitude = LAYER_NEAR_SONIC_AMPLITUDE if cls == "near_sonic" else LAYER_AMPLITUDE
            amplitude = float(rng.choice([-1.0, 1.0])) * _log_uniform(*magnitude, u)
            direction = 0
            if cls in ("characteristic", "near_sonic"):
                gas = REFERENCE_GAS
                rho = theta = 1.0
                v = 0.0 if cls == "characteristic" else -float(rng.uniform(*LAYER_NEAR_SONIC_SPEED))
            else:
                gas = _gas(rng)
                rho = float(rng.uniform(0.7, 1.5))
                theta = float(rng.uniform(0.7, 1.5))
                c = sound_speed(gas["gamma"], theta)
                if cls == "subsonic":
                    v = float(rng.choice([-1.0, 1.0]) * rng.uniform(0.1, 0.8) * c)
                else:
                    v = -float(rng.uniform(1.1, 2.0) * c)
                    direction = i % 2
            ops.append({
                "kind": "layer", "class": cls, "gas": gas, "limit_state": [rho, v, theta],
                "direction_index": direction, "amplitude": amplitude,
            })
    rng.shuffle(ops)
    return ops


STRUCTURE_BLOCK = 4
STRUCTURE_SAMPLES = (30, 120)


def _structure_block(rng: np.random.Generator) -> list[dict]:
    ops = []
    for u in _strata(rng, STRUCTURE_BLOCK):
        rho_lo = float(rng.uniform(0.2, 1.0))
        theta_lo = float(rng.uniform(0.2, 1.0))
        v_half = float(rng.uniform(0.5, 2.0))
        v_mid = float(rng.uniform(-0.5, 0.5))
        ops.append({
            "kind": "structure",
            "gas": _gas(rng),
            "box": {
                "rho": [rho_lo, rho_lo * float(rng.uniform(2.0, 5.0))],
                "v": [v_mid - v_half, v_mid + v_half],
                "theta": [theta_lo, theta_lo * float(rng.uniform(2.0, 5.0))],
            },
            "n_samples": int(round(_log_uniform(*STRUCTURE_SAMPLES, u))),
            "sample_seed": int(rng.integers(0, 2**31 - 1)),
        })
    rng.shuffle(ops)
    return ops


CLI_COMMANDS = ("shock", "layer", "check", "reduce-info")
# per block; `check` twice so the median process time falls inside the
# `check` group and the 90th percentile inside the `shock` group (the
# slowest, because of its scipy import)
CLI_MIX = ("shock", "check", "check", "layer", "reduce-info")


def cli_config(rng: np.random.Generator, command: str) -> dict:
    """A config for one CLI subcommand, inside the admissible range.

    The ranges are narrow: cli_cold measures process start, imports and
    the cli layer, and the other workloads vary the numerical work. With
    wide ranges one `shock` config could cost 1.7x another, and the
    90th percentile of ten processes would follow the draw.
    """
    gas = _gas(rng)
    cfg: dict = {"seed": int(rng.integers(0, 10_000)), "gas": gas}
    if command == "shock":
        left = _near_unit_state(rng)
        family = int(rng.choice([1, 3]))
        if family == 1:
            strength = _log_uniform(0.3, 0.6, float(rng.uniform()))
        else:
            strength = family3_strength_bound(gas["gamma"], left) * float(rng.uniform(0.4, 0.6))
        cfg["rh"] = {"family": family, "strength": strength, "U_minus": left}
    elif command == "layer":
        theta = float(rng.uniform(0.7, 1.5))
        c = sound_speed(gas["gamma"], theta)
        v = -float(rng.uniform(0.2, 0.8) * c)
        cfg["layer"] = {
            "limit_state": [float(rng.uniform(0.7, 1.5)), v, theta],
            "direction_index": 0,
            "amplitude": float(rng.choice([-1.0, 1.0])) * _log_uniform(1e-4, 1e-3, float(rng.uniform())),
        }
    elif command == "check":
        rho_lo = float(rng.uniform(0.5, 0.8))
        theta_lo = float(rng.uniform(0.5, 0.8))
        cfg["box"] = {
            "rho": [rho_lo, 2.0 * rho_lo + 1.0],
            "v": [-float(rng.uniform(1.0, 1.2)), float(rng.uniform(1.0, 1.2))],
            "theta": [theta_lo, 2.0 * theta_lo + 1.0],
        }
        cfg["n_samples"] = 100
        cfg["suggest_sigmas"] = True
    else:
        sigma = float(rng.uniform(-1.0, 1.0))
        cfg["reduce"] = {
            "sigma": sigma,
            "U": [float(rng.uniform(0.5, 2.0)), sigma + float(rng.uniform(0.1, 1.0)),
                  float(rng.uniform(0.5, 2.0)), float(rng.uniform(-1, 1)), float(rng.uniform(-1, 1))],
        }
    return cfg


def _cli_block(rng: np.random.Generator, block: int) -> list[dict]:
    ops = [
        {"kind": "cli", "command": command, "name": f"b{block}-{i}-{command}", "config": cli_config(rng, command)}
        for i, command in enumerate(CLI_MIX)
    ]
    rng.shuffle(ops)
    return ops


def blocks(workload: str, seed: int) -> Iterator[list[dict]]:
    """Endless stream of operation blocks for the workload."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
    rng = _rng(workload, seed)
    b = 0
    while True:
        if workload == "shock_sweep":
            yield _shock_block(rng)
        elif workload == "layer_sweep":
            yield _layer_block(rng)
        elif workload == "structure_scan":
            yield _structure_block(rng)
        else:
            yield _cli_block(rng, b)
        b += 1


def operations(workload: str, seed: int) -> Iterator[dict]:
    """The same stream as `blocks`, flattened."""
    for block in blocks(workload, seed):
        yield from block
