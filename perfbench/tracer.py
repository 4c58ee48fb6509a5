"""In-memory span tracer wrapped around the names the library calls.

A span is (name, parent, start, end). Spans live in flat lists with
parent links until the run ends; `table()` folds them into per-name
calls, total and self time, where self time is a span's duration minus
the time its direct children cover. Children of one span run one after
another, so the time they cover is the sum of their durations.

`installed(tracer)` swaps module attributes that the package looks up at
call time (`profiles.integrate_direct`, `structure.blocks`, ...) for
timed wrappers and restores them on exit. Nothing under the package
source changes.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import inspect
from collections import Counter
from time import perf_counter

import numpy as np


class Tracer:
    """Spans with parent links plus named counters."""

    def __init__(self):
        self.names: list[str] = []
        self.parents: list[int] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.counters: Counter = Counter()
        self.foreign: list[dict] = []
        self._stack: list[int] = []

    def call(self, name: str, fn, *args, **kwargs):
        """Run fn inside a span called name."""
        idx = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.starts.append(0.0)
        self.ends.append(0.0)
        self._stack.append(idx)
        t0 = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            t1 = perf_counter()
            self._stack.pop()
            self.starts[idx] = t0
            self.ends[idx] = t1

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def timed(*args, **kwargs):
            return self.call(name, fn, *args, **kwargs)

        return timed

    def count(self, name: str, n: float = 1) -> None:
        self.counters[name] += n

    def inside(self, name: str) -> bool:
        """True when a span called name is open."""
        return any(self.names[i] == name for i in self._stack)

    def table(self) -> dict[str, dict]:
        return span_table(self.names, self.parents, self.starts, self.ends)

    def top_level_seconds(self, first: int = 0) -> float:
        """Summed duration of the top-level spans from index `first` on.

        Top-level spans run one after another, so for the spans of one
        operation this can never exceed the operation's wall time.
        """
        return sum(self.ends[i] - self.starts[i] for i in range(first, len(self.names)) if self.parents[i] < 0)

    def merge(self, table: dict[str, dict], counters: dict) -> None:
        """Fold the span table and counters of another process into this one."""
        self.foreign.append(table)
        self.counters.update(counters)

    def merged_table(self) -> dict[str, dict]:
        out = self.table()
        for table in self.foreign:
            for name, row in table.items():
                acc = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
                for key in acc:
                    acc[key] += row[key]
        return out

    def save(self, path) -> None:
        """Write the raw spans (names, parent links, times) as an .npz file."""
        names = sorted(set(self.names))
        index = {n: i for i, n in enumerate(names)}
        np.savez_compressed(
            path,
            names=np.array(names),
            name=np.array([index[n] for n in self.names], dtype=np.int32),
            parent=np.array(self.parents, dtype=np.int64),
            start=np.array(self.starts),
            end=np.array(self.ends),
        )


def span_table(names, parents, starts, ends) -> dict[str, dict]:
    """Per-name calls, total seconds and self seconds of a span list."""
    n = len(names)
    if n == 0:
        return {}
    parent = np.asarray(parents, dtype=np.int64)
    dur = np.asarray(ends, dtype=float) - np.asarray(starts, dtype=float)
    has_parent = parent >= 0
    covered = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=n)
    self_time = dur - covered
    out: dict[str, dict] = {}
    for i, name in enumerate(names):
        row = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        row["calls"] += 1
        row["total_s"] += float(dur[i])
        row["self_s"] += float(self_time[i])
    return out


def _integrate(tracer: Tracer, name: str, fn):
    """Timed integrator that also books the run's stepper counters.

    Runs under gilbarg_oracle integrate the flux-form system, not the
    reduction, so their evaluations are booked as oracle work.
    """

    @functools.wraps(fn)
    def timed(*args, **kwargs):
        idx = len(tracer.names)
        traj = tracer.call(name, fn, *args, **kwargs)
        st = traj.stats
        if tracer.inside("profiles.gilbarg_oracle"):
            tracer.count("profiles.oracle_fevals", st.n_fevals)
        else:
            tracer.count("sode.fevals", st.n_fevals)
            tracer.count("sode.steps_accepted", st.n_accepted)
            tracer.count("sode.steps_rejected", st.n_rejected)
            tracer.count("sode.step_time_s", tracer.ends[idx] - tracer.starts[idx])
        if tracer.inside("profiles.shock_profile") or tracer.inside("profiles.gilbarg_oracle"):
            tracer.count("profiles.shots")
        return traj

    return timed


def _timed_ode(tracer: Tracer, fn):
    @functools.wraps(fn)
    def make(*args, **kwargs):
        ode = fn(*args, **kwargs)
        return dataclasses.replace(
            ode,
            F_eval=tracer.wrap("reduction.F_eval", ode.F_eval),
            zeta_eval=tracer.wrap("reduction.zeta_eval", ode.zeta_eval),
        )

    return make


# Public functions the CLI module imported by name; tracing a CLI process
# swaps them in the cli module's namespace as well.
CLI_CALLS = {
    "solve_rh": "profiles.solve_rh",
    "shock_profile": "profiles.shock_profile",
    "gilbarg_oracle": "profiles.gilbarg_oracle",
    "compare_profiles": "profiles.compare_profiles",
    "boundary_layer": "profiles.boundary_layer",
    "check_structure": "structure.check_structure",
    "check_block_linear_degeneracy": "structure.check_block_linear_degeneracy",
    "suggest_sigmas": "structure.suggest_sigmas",
    "load_config": "cli.load_config",
    "_write_artifacts": "cli.write_artifacts",
}


@contextlib.contextmanager
def installed(tracer: Tracer, cli_module=None):
    """Swap in timed wrappers for the duration of the block."""
    from shocklayer import profiles, structure, system

    swaps = [
        (profiles, "integrate_direct", _integrate(tracer, "sode.integrate_direct", profiles.integrate_direct)),
        (profiles, "integrate_rescaled", _integrate(tracer, "sode.integrate_rescaled", profiles.integrate_rescaled)),
        (profiles, "linearize", tracer.wrap("sode.linearize", profiles.linearize)),
        (profiles, "max_extended_residual", tracer.wrap("profiles.max_extended_residual", profiles.max_extended_residual)),
        (profiles, "flux_constants", tracer.wrap("profiles.flux_constants", profiles.flux_constants)),
        (profiles, "tw_singular_ode", _timed_ode(tracer, profiles.tw_singular_ode)),
        (profiles, "steady_singular_ode", _timed_ode(tracer, profiles.steady_singular_ode)),
        (structure, "blocks", tracer.wrap("system.blocks", system.blocks)),
    ]
    if cli_module is not None:
        for attr, name in CLI_CALLS.items():
            fn = getattr(cli_module, attr)
            if attr == "check_structure":
                fn = _counted_samples(tracer, functools.partial(fn, **timed_assemblers(tracer)))
            swaps.append((cli_module, attr, tracer.wrap(name, fn)))
        swaps.append((cli_module, "tw_singular_ode", _timed_ode(tracer, cli_module.tw_singular_ode)))
    saved = [(mod, attr, getattr(mod, attr)) for mod, attr, _ in swaps]
    try:
        for mod, attr, new in swaps:
            setattr(mod, attr, new)
        yield tracer
    finally:
        for mod, attr, old in saved:
            setattr(mod, attr, old)


def _counted_samples(tracer: Tracer, check_structure):
    """check_structure that books its sample count as `structure.samples`."""
    signature = inspect.signature(check_structure)

    @functools.wraps(check_structure)
    def counted(*args, **kwargs):
        bound = signature.bind(*args, **kwargs)
        bound.apply_defaults()
        tracer.count("structure.samples", bound.arguments["n_samples"])
        return check_structure(*args, **kwargs)

    return counted


def timed_assemblers(tracer: Tracer) -> dict:
    """check_structure's assemble_a/b/e parameters, each in a span."""
    from shocklayer import system

    return {
        "assemble_a": tracer.wrap("system.assemble", system.assemble_A),
        "assemble_b": tracer.wrap("system.assemble", system.assemble_B),
        "assemble_e": tracer.wrap("system.assemble", system.assemble_E),
    }
