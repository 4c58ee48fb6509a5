"""shocklayer benchmark: one workload, one closed-loop client, one process.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. The workload's operations come from
`gen.py` and the seed alone; each runs to completion before the next
starts (one client, no threads). Every output is checked
(`workloads.py`); an operation that raises, exits nonzero or misses a
check counts as failed.

--trace 0 times whole operations, in several passes over one list of
whole blocks sized by --seconds, with nothing installed, sets up five
fresh interpreters spread between the passes, and reports the
end-to-end metrics. --trace 1 runs every
operation twice, once plain and once right after with the span tracer
installed, and reports the per-layer metrics and the tracing overhead;
it also runs the determinism self-check on the first block of operations.

The last line of standard output is one JSON object:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {name: {"value", "unit"}}}.
`correct` is false when the program crashed with an untyped exception,
when tracing changed a result, when the top-level spans of an operation
cover more than its wall time, or when the determinism self-check fails.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import re
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from collections import Counter
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import gen  # noqa: E402
import workloads as wl  # noqa: E402
from tracer import Tracer, installed, timed_assemblers  # noqa: E402

# Per workload: passes over the operation list, and the seconds one block
# of operations takes on the machine the benchmark was built on. A run of
# S seconds times max(1, round(S / (passes * block seconds))) whole
# blocks, so the same seed and S always give the same operations. At
# S = 20 and S = 40 the 90th latency percentile falls inside one group of
# operations on every workload (see gen.py). Twelve passes over half as
# many operations gave no smaller spread over seeds than six passes.
TIMING = {
    "shock_sweep": (6, 1.6),
    "layer_sweep": (6, 1.7),
    "structure_scan": (6, 0.45),
    "cli_cold": (4, 2.5),
}
SETUPS = 5


def timed_operations(workload: str, seed: int, seconds: float) -> list[dict]:
    passes, block_s = TIMING[workload]
    n = max(1, round(seconds / (passes * block_s)))
    return [op for block in itertools.islice(gen.blocks(workload, seed), n) for op in block]


def first_operations(workload: str, seed: int, n: int | None = None) -> list[dict]:
    """The first n operations of the stream (default: the first block)."""
    if n is None:
        return next(gen.blocks(workload, seed))
    return list(itertools.islice(gen.operations(workload, seed), n))


IMPORT_REPEATS = 3

# (name, unit, better) of every metric the run reports
END_TO_END = (
    ("setup_s", "s", "lower"),
    ("ops_per_s", "1/s", "higher"),
    ("op_p50_ms", "ms", "lower"),
    ("op_p90_ms", "ms", "lower"),
    ("peak_rss_mb", "MB", "lower"),
)


def _span_metrics(prefix: str) -> list[tuple[str, str, str]]:
    return [(f"{prefix}.calls", "count", "lower"), (f"{prefix}.total_ms", "ms", "lower"),
            (f"{prefix}.self_ms", "ms", "lower")]


PER_LAYER = (
    ("reduction.F_eval.calls", "count", "lower"),
    ("reduction.F_eval.total_ms", "ms", "lower"),
    ("reduction.F_eval.us_per_call", "us", "lower"),
    ("reduction.zeta_eval.calls", "count", "lower"),
    ("reduction.zeta_eval.us_per_call", "us", "lower"),
    ("reduction.F_calls_per_feval", "ratio", "lower"),
    ("sode.fevals", "count", "lower"),
    ("sode.steps_accepted", "count", "lower"),
    ("sode.steps_rejected", "count", "lower"),
    ("sode.accept_ratio", "ratio", "higher"),
    ("sode.fevals_per_step", "ratio", "lower"),
    ("sode.us_per_step", "us", "lower"),
    *_span_metrics("sode.integrate_direct"),
    *_span_metrics("sode.integrate_rescaled"),
    *_span_metrics("sode.linearize"),
    *_span_metrics("profiles.solve_rh"),
    *_span_metrics("profiles.shock_profile"),
    ("profiles.shots_per_connection", "ratio", "lower"),
    *_span_metrics("profiles.gilbarg_oracle"),
    ("profiles.oracle_fevals", "count", "lower"),
    *_span_metrics("profiles.compare_profiles"),
    *_span_metrics("profiles.max_extended_residual"),
    *_span_metrics("profiles.flux_constants"),
    *_span_metrics("profiles.boundary_layer"),
    ("profiles.layer_rescaled_share", "frac", "lower"),
    ("profiles.oracle_dev_max", "1", "lower"),
    ("profiles.flux_drift_max", "1", "lower"),
    *_span_metrics("structure.check_structure"),
    ("structure.us_per_sample", "us", "lower"),
    *_span_metrics("structure.check_block_linear_degeneracy"),
    *_span_metrics("structure.suggest_sigmas"),
    *_span_metrics("system.blocks"),
    *_span_metrics("system.assemble"),
    ("cli.import_ms", "ms", "lower"),
    ("cli.import_scipy_ms", "ms", "lower"),
    *((f"cli.process_ms.{c}", "ms", "lower") for c in gen.CLI_COMMANDS),
    *_span_metrics("cli.load_config"),
    *_span_metrics("cli.write_artifacts"),
    ("shock_sweep.err.NoConvergenceError", "count", "lower"),
    ("shock_sweep.err.DomainError", "count", "lower"),
    *((f"{w}.err.exception", "count", "lower") for w in gen.WORKLOADS),
    *((f"{w}.err.check", "count", "lower") for w in gen.WORKLOADS),
    ("trace.overhead_frac", "frac", "lower"),
    ("trace.span_cover_frac", "frac", "higher"),
)

RUNNERS = {
    "shock_sweep": wl.run_shock,
    "layer_sweep": wl.run_layer,
    "structure_scan": wl.run_structure,
}


class Run:
    """Executes operations of one workload and keeps their outcomes."""

    def __init__(self, workload: str, work: Path, tracer: Tracer | None = None):
        self.workload = workload
        self.tracer = tracer
        self.api = tracer if tracer is not None else wl.Plain()
        self.cli = wl.CliRunner(work, tracer)
        self.assemblers = timed_assemblers(tracer) if tracer is not None else None
        self.crashes: list[str] = []
        # largest share of an operation's wall time its top-level spans cover
        self.span_cover = 0.0

    def execute(self, op: dict) -> tuple[wl.Outcome, float]:
        """One operation; returns its outcome and its wall time in seconds."""
        if self.tracer is None:
            return self._execute(op)
        first, child_s = len(self.tracer.names), self.tracer.counters["trace.top_level_s"]
        out, dt = self._execute(op)
        covered = self.tracer.top_level_seconds(first) + self.tracer.counters["trace.top_level_s"] - child_s
        self.span_cover = max(self.span_cover, covered / dt)
        return out, dt

    def _execute(self, op: dict) -> tuple[wl.Outcome, float]:
        if self.workload == "cli_cold":
            argv = self.cli.prepare(op)
            t0 = perf_counter()
            proc = self.cli.execute(argv)
            dt = perf_counter() - t0
            return self.cli.finish(op, argv, proc), dt
        import shocklayer

        runner = RUNNERS[self.workload]
        extra = {"assemblers": self.assemblers} if self.workload == "structure_scan" else {}
        t0 = perf_counter()
        try:
            out = runner(op, self.api, **extra)
        except Exception as exc:  # every failure is counted, by class
            out = wl.Outcome(ok=False, error=type(exc).__name__)
            if not isinstance(exc, shocklayer.ShockLayerError):
                self.crashes.append(f"{type(exc).__name__}: {exc}")
        return out, perf_counter() - t0

    def phase(self, ops: list[dict], passes: int = 1, between=None, seconds: float = float("inf")):
        """Run the operations in `passes` passes over the list, in order.

        Each operation is timed exactly as many times as there are
        passes, and every pass must reproduce the first pass's outcome
        and fingerprint bit for bit. `between(k)`, when given, runs before
        the first pass (k = 0) and after pass k. Should the first pass
        take more than twice its share of `seconds`, fewer passes run.

        Returns one (outcome, [seconds in each pass]) pair per operation.
        """
        if between:
            between(0)
        results = [(out, [dt]) for out, dt in map(self.execute, ops)]
        first_s = sum(dts[0] for _, dts in results)
        if first_s > 2 * seconds / passes:
            passes = max(1, int(2 * seconds / first_s))
        if between:
            between(1)
        for k in range(2, passes + 1):
            for op, (out, dts) in zip(ops, results):
                again, dt = self.execute(op)
                dts.append(dt)
                same = (again.ok, again.error, again.fingerprint) == (out.ok, out.error, out.fingerprint)
                if not same and "repeat_identical" not in out.misses:
                    out.miss("repeat_identical", False)
            if between:
                between(k)
        return results


def fresh_setup_seconds(workload: str, work: Path) -> float:
    """Fresh interpreter to ready: imports plus one warm-up per public function.

    On cli_cold, one warm-up CLI process.
    """
    t0 = perf_counter()
    if workload == "cli_cold":
        wl.warm_up(workload, work)
    else:
        # output is captured: then the wait ends when the child closes its
        # pipes, where a bare wait with a timeout polls in 50 ms steps
        subprocess.run(
            [sys.executable, str(Path(__file__)), "--setup-only", "--workload", workload],
            cwd=ROOT, check=True, timeout=170, capture_output=True,
        )
    return perf_counter() - t0


def quantile(values: list[float], q: int) -> float:
    """q-th percentile (q in 1..99) by the inclusive method."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def peak_rss_mb(workload: str) -> float:
    who = resource.RUSAGE_CHILDREN if workload == "cli_cold" else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def end_to_end(workload: str, setup: list[float], results) -> dict:
    """Throughput and latency from each operation's fastest pass; the median set-up time.

    The machine this was built on runs at two speeds, about 1.25-1.45x
    apart, switching after seconds to minutes whatever the program does.
    Every operation is timed in all passes, which lie seconds apart, and
    its fastest time is the one most likely to fall in the fast state. ops_per_s is verified operations per second of these
    times. A stall of the program's own that does not recur in every
    pass (a garbage collection, say) is not counted.
    """
    verified = sum(1 for out, _ in results if out.ok)
    lat = [min(dts) for _, dts in results]
    return {
        "setup_s": statistics.median(setup),
        "ops_per_s": verified / sum(lat),
        "op_p50_ms": 1e3 * statistics.median(lat),
        "op_p90_ms": 1e3 * quantile(lat, 90),
        "peak_rss_mb": peak_rss_mb(workload),
    }


def failures(results) -> Counter:
    """Failed operations by error class, and missed checks by name."""
    c: Counter = Counter()
    for out, _ in results:
        if out.error:
            c[f"err.{out.error}"] += 1
        for m in out.misses:
            c[f"check.{m}"] += 1
    return c


def import_times() -> tuple[float, float]:
    """(shocklayer.cli, scipy.interpolate) cumulative import ms from -X importtime."""
    cli, scipy_ = [], []
    for _ in range(IMPORT_REPEATS):
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import shocklayer.cli; import scipy.interpolate"],
            cwd=ROOT, env=wl.cli_env(), capture_output=True, text=True, timeout=120, check=True,
        )
        ms = {"shocklayer": 0.0, "scipy": 0.0}
        for line in proc.stderr.splitlines():
            m = re.match(r"import time:\s+\d+ \|\s+(\d+) \| (\S.*)$", line)
            if m:  # top-level entries only: nested ones are indented
                top = m.group(2).split(".")[0]
                if top in ms:
                    ms[top] += int(m.group(1)) / 1e3
        cli.append(ms["shocklayer"])
        scipy_.append(ms["scipy"])
    return statistics.median(cli), statistics.median(scipy_)


def fingerprint(results, tracer: Tracer) -> dict:
    """Counters and SHA-256 over every produced trajectory or artifact."""
    table = tracer.merged_table()
    counters = {
        "sode.fevals": int(tracer.counters["sode.fevals"]),
        "sode.steps_accepted": int(tracer.counters["sode.steps_accepted"]),
        "sode.steps_rejected": int(tracer.counters["sode.steps_rejected"]),
        "reduction.F_eval.calls": table.get("reduction.F_eval", {}).get("calls", 0),
        "profiles.shots": int(tracer.counters["profiles.shots"]),
        "profiles.oracle_fevals": int(tracer.counters["profiles.oracle_fevals"]),
        "system.blocks.calls": table.get("system.blocks", {}).get("calls", 0),
        "failed": sum(1 for out, _ in results if not out.ok),
    }
    digest = hashlib.sha256(json.dumps([out.fingerprint for out, _ in results]).encode()).hexdigest()
    return {"ops": len(results), "counters": counters, "sha256": digest}


def self_check(workload: str, seed: int, work: Path, n_ops: int | None = None) -> dict:
    """Fingerprint of the first n_ops operations (default: the first block), run traced."""
    tracer = Tracer()
    run = Run(workload, work, tracer)
    with installed(tracer):
        results = run.phase(first_operations(workload, seed, n_ops))
    return fingerprint(results, tracer)


def determinism(workload: str, seed: int, work: Path, n_ops: int | None = None) -> tuple[bool, list[str]]:
    """Same seed twice: identical fingerprints; the next seed: other counters and hash."""
    first = self_check(workload, seed, work, n_ops)
    again = self_check(workload, seed, work, n_ops)
    other = self_check(workload, seed + 1, work, n_ops)
    same = first == again
    differs = first["counters"] != other["counters"] and first["sha256"] != other["sha256"]
    return same and differs, [
        f"determinism: seed {seed} twice identical: {same}; seed {seed + 1} differs: {differs}",
        f"determinism: seed {seed}: {json.dumps(first, sort_keys=True)}",
        f"determinism: seed {seed + 1}: {json.dumps(other, sort_keys=True)}",
    ]


def traced_pairs(workload: str, seed: int, seconds: float, work: Path, tracer: Tracer):
    """Whole blocks of operations, each run untraced and then traced, for `seconds`.

    Running the two back to back lets machine-speed drift cancel out of
    the tracing overhead.
    """
    plain, traced = Run(workload, work), Run(workload, work, tracer)
    pairs = []
    t_start = perf_counter()
    for block in gen.blocks(workload, seed):
        for op in block:
            untraced = plain.execute(op)
            with installed(tracer):
                pairs.append((untraced, traced.execute(op)))
        if perf_counter() - t_start >= seconds:
            return [u for u, _ in pairs], [t for _, t in pairs], plain.crashes + traced.crashes, traced.span_cover


def per_layer(workload: str, seed: int, tracer: Tracer, un_results, tr_results, span_cover: float) -> dict:
    table = tracer.merged_table()
    c = tracer.counters
    m: dict[str, float] = {}

    def span(name: str) -> dict:
        row = table.get(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        m[f"{name}.calls"] = row["calls"]
        m[f"{name}.total_ms"] = 1e3 * row["total_s"]
        m[f"{name}.self_ms"] = 1e3 * row["self_s"]
        return row

    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    for name in ("reduction.F_eval", "reduction.zeta_eval"):
        row = table.get(name, {"calls": 0, "total_s": 0.0})
        m[f"{name}.calls"] = row["calls"]
        m[f"{name}.us_per_call"] = 1e6 * ratio(row["total_s"], row["calls"])
    m["reduction.F_eval.total_ms"] = 1e3 * table.get("reduction.F_eval", {"total_s": 0.0})["total_s"]
    steps = c["sode.steps_accepted"] + c["sode.steps_rejected"]
    m["reduction.F_calls_per_feval"] = ratio(m["reduction.F_eval.calls"], c["sode.fevals"])
    m["sode.fevals"] = c["sode.fevals"]
    m["sode.steps_accepted"] = c["sode.steps_accepted"]
    m["sode.steps_rejected"] = c["sode.steps_rejected"]
    m["sode.accept_ratio"] = ratio(c["sode.steps_accepted"], steps)
    m["sode.fevals_per_step"] = ratio(c["sode.fevals"], steps)
    m["sode.us_per_step"] = 1e6 * ratio(c["sode.step_time_s"], steps)
    for name in ("sode.integrate_direct", "sode.integrate_rescaled", "sode.linearize",
                 "profiles.solve_rh", "profiles.gilbarg_oracle", "profiles.compare_profiles",
                 "profiles.max_extended_residual", "profiles.flux_constants", "profiles.boundary_layer",
                 "structure.check_block_linear_degeneracy", "structure.suggest_sigmas",
                 "system.blocks", "system.assemble", "cli.load_config", "cli.write_artifacts"):
        span(name)
    connections = span("profiles.shock_profile")["calls"] + table.get("profiles.gilbarg_oracle", {"calls": 0})["calls"]
    m["profiles.shots_per_connection"] = ratio(c["profiles.shots"], connections)
    m["profiles.oracle_fevals"] = c["profiles.oracle_fevals"]
    modes = [out.mode for out, _ in un_results if out.mode]
    m["profiles.layer_rescaled_share"] = ratio(modes.count("rescaled"), len(modes))
    devs = [out.oracle_dev for out, _ in un_results if out.oracle_dev is not None]
    drifts = [out.flux_drift for out, _ in un_results if out.flux_drift is not None]
    m["profiles.oracle_dev_max"] = max(devs, default=0.0)
    m["profiles.flux_drift_max"] = max(drifts, default=0.0)
    cs = span("structure.check_structure")
    m["structure.us_per_sample"] = 1e6 * ratio(cs["total_s"], c["structure.samples"])

    m["cli.import_ms"], m["cli.import_scipy_ms"] = import_times()
    for cmd in gen.CLI_COMMANDS:
        m[f"cli.process_ms.{cmd}"] = 0.0
    if workload == "cli_cold":
        by_cmd: dict[str, list[float]] = {}
        for op, (_, dt) in zip(gen.operations(workload, seed), un_results):
            by_cmd.setdefault(op["command"], []).append(dt)
        for cmd, dts in by_cmd.items():
            m[f"cli.process_ms.{cmd}"] = 1e3 * statistics.median(dts)

    fails = failures(un_results)
    for w in gen.WORKLOADS:
        mine = w == workload
        m[f"{w}.err.exception"] = sum(v for k, v in fails.items() if k.startswith("err.")) if mine else 0
        m[f"{w}.err.check"] = sum(v for k, v in fails.items() if k.startswith("check.")) if mine else 0
    mine = workload == "shock_sweep"
    m["shock_sweep.err.NoConvergenceError"] = fails["err.NoConvergenceError"] if mine else 0
    m["shock_sweep.err.DomainError"] = fails["err.DomainError"] if mine else 0

    traced_s = sum(dt for _, dt in tr_results)
    m["trace.overhead_frac"] = 1.0 - sum(dt for _, dt in un_results) / traced_s
    m["trace.span_cover_frac"] = span_cover
    return {name: m[name] for name, _, _ in PER_LAYER}


def report(title: str, metrics: dict, units: dict, extra: list[str]) -> None:
    print(f"== {title}")
    for line in extra:
        print(f"   # {line}")
    for name, value in metrics.items():
        print(f"   {name:<48} {value:>16.6g} {units[name]}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=gen.WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    workload, seed, seconds = args.workload, args.seed, args.seconds

    wl.OUT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=wl.OUT))
    try:
        if args.setup_only:
            import shocklayer  # noqa: F401

            wl.warm_up(workload, work)
            return 0
        if workload != "cli_cold":
            wl.warm_up(workload, work)

        if args.trace == 0:
            run = Run(workload, work)
            setup: list[float] = []
            passes = TIMING[workload][0]
            # SETUPS fresh set-ups, spread evenly between the passes
            set_up_after = {round(i * passes / (SETUPS - 1)) for i in range(SETUPS)}

            def set_up(k: int) -> None:
                if k in set_up_after:
                    setup.append(fresh_setup_seconds(workload, work))

            results = run.phase(timed_operations(workload, seed, seconds), passes, set_up, seconds)
            crashes = run.crashes
            metrics = end_to_end(workload, setup, results)
            units = {n: u for n, u, _ in END_TO_END}
            checks_ok = True
            notes = []
        else:
            tracer = Tracer()
            results, tr_results, crashes, span_cover = traced_pairs(workload, seed, seconds, work, tracer)
            metrics = per_layer(workload, seed, tracer, results, tr_results, span_cover)
            units = {n: u for n, u, _ in PER_LAYER}
            same = [o.fingerprint for o, _ in results] == [o.fingerprint for o, _ in tr_results]
            deterministic, det_notes = determinism(workload, seed, work)
            checks_ok = same and span_cover <= 1.0 and deterministic
            tracer.save(wl.OUT / f"spans-{workload}-{seed}.npz")
            notes = [
                f"tracing left every result unchanged: {same}",
                f"top-level spans cover at most {span_cover:.4f} of an operation's wall time",
                *det_notes,
            ]

        fails = failures(results)
        failed = sum(1 for out, _ in results if not out.ok)
        verified = len(results) - failed
        notes = [
            f"workload {workload}, seed {seed}, {len(results)} operations attempted, "
            f"{verified} verified, fail_frac {failed / len(results):.4f}",
            f"latency percentiles over all {len(results)} attempted operations",
            *(f"{k}: {v}" for k, v in sorted(fails.items())),
            *notes,
        ]
        if args.trace == 0:
            devs = [o.oracle_dev for o, _ in results if o.oracle_dev is not None]
            drifts = [o.flux_drift for o, _ in results if o.flux_drift is not None]
            if devs:
                notes.append(f"oracle_dev_max {max(devs):.6g} (1) over {len(devs)} shocks")
            if drifts:
                notes.append(f"flux_drift_max {max(drifts):.6g} (1) over {len(drifts)} profiles")
        for crash in crashes:
            notes.append(f"crash: {crash}")
        report(f"{workload} trace={args.trace}", metrics, units, notes)
        out = {
            "correct": bool(checks_ok and not crashes),
            "attempted": len(results),
            "failed": failed,
            "metrics": {n: {"value": float(v), "unit": units[n]} for n, v in metrics.items()},
        }
        print(json.dumps(out))
        return 0
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    raise SystemExit(main())
