"""Run the benchmark over several seeds and summarise its spread.

    python3 perfbench/record.py [--workloads a,b] [--seeds 1-10] [--write] [--save FILE] [--against FILE]

For each workload this runs `run.py --trace 0` once per seed, prints the
median of every end-to-end metric and its spread (the distance between
the first and third quartile as a share of the median), then makes one
traced run. A metric is steady when its spread is below a third of its
bound. With --against it also compares every median with the one in an
earlier record, and calls the two records consistent when no median is
worse than the earlier one by more than the bound. --write stores the
record, with a description of the machine, in perfbench/baseline.json,
the record later changes compare against; --save stores it elsewhere.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
NOTE = "   # "


def run(workload: str, seed: int, trace: int) -> dict:
    cmd = [*BENCHMARK["command"], "--workload", workload, "--seed", str(seed),
           "--seconds", str(BENCHMARK["run_seconds"]), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=180)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    result["notes"] = [ln[len(NOTE):] for ln in lines if ln.startswith(NOTE)]
    return result


def spread(values: list[float]) -> tuple[float, float, float]:
    """(median, first quartile, third quartile)."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q2, q1, q3


def machine() -> dict:
    import numpy
    import scipy

    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }


def parse_seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workloads", default=",".join(w["name"] for w in BENCHMARK["workloads"]))
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--write", action="store_true", help="write perfbench/baseline.json")
    ap.add_argument("--save", type=Path, help="write the record to this file")
    ap.add_argument("--against", type=Path, help="an earlier record to compare medians with")
    args = ap.parse_args()
    earlier = json.loads(args.against.read_text())["workloads"] if args.against else {}
    better = {m["name"]: m["better"] for m in BENCHMARK["end_to_end"]}
    seeds = parse_seeds(args.seeds)
    bounds = {m["name"]: m["bound"] for m in BENCHMARK["end_to_end"]}
    record: dict = {"machine": machine(), "run_seconds": BENCHMARK["run_seconds"], "seeds": seeds,
                    "why": {w["name"]: w["why"] for w in BENCHMARK["workloads"]}, "workloads": {}}
    steady = consistent = True
    for workload in args.workloads.split(","):
        runs = [run(workload, s, 0) for s in seeds]
        entry: dict = {"attempted": [r["attempted"] for r in runs], "failed": [r["failed"] for r in runs],
                       "correct": all(r["correct"] for r in runs), "end_to_end": {}}
        print(f"== {workload}: attempted {entry['attempted']} failed {entry['failed']} correct {entry['correct']}")
        for name in bounds:
            values = [r["metrics"][name]["value"] for r in runs]
            med, q1, q3 = spread(values)
            share = (q3 - q1) / med
            ok = share < bounds[name] / 3
            steady &= ok
            shift = ""
            if workload in earlier:
                before = earlier[workload]["end_to_end"][name]["median"]
                worse = (med - before) / before if better[name] == "lower" else (before - med) / before
                consistent &= worse <= bounds[name]
                shift = f"  worse than earlier by {worse:+.4f}{'' if worse <= bounds[name] else ' BEYOND BOUND'}"
            entry["end_to_end"][name] = {
                "unit": runs[0]["metrics"][name]["unit"], "median": med, "q1": q1, "q3": q3,
                "spread": share, "bound": bounds[name], "values": values,
            }
            print(f"   {name:<14} median {med:12.6g}  spread {share:7.4f}  bound {bounds[name]:.2f}"
                  f"  {'ok' if ok else 'WIDE'}{shift}")
            print(f"   {'':<14} values {' '.join(f'{v:.4g}' for v in values)}")
        traced = run(workload, seeds[0], 1)
        entry["traced"] = {"seed": seeds[0], "correct": traced["correct"], "notes": traced["notes"],
                           "per_layer": {k: v["value"] for k, v in traced["metrics"].items()}}
        print(f"   traced: correct {traced['correct']} overhead "
              f"{traced['metrics']['trace.overhead_frac']['value']:.3f}")
        record["workloads"][workload] = entry
    text = json.dumps(record, indent=1, sort_keys=True) + "\n"
    if args.write:
        (HERE / "baseline.json").write_text(text)
    if args.save:
        args.save.write_text(text)
    print("steady" if steady else "not steady: some spread is at or above a third of its bound")
    if earlier:
        print("consistent with the earlier record" if consistent else
              "not consistent: some median is worse than the earlier record by more than its bound")
    return 0


if __name__ == "__main__":
    sys.exit(main())
