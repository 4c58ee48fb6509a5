"""One operation of every workload, the determinism self-check, and the output contract."""

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parents[1]
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import gen  # noqa: E402
import run  # noqa: E402


@pytest.fixture
def work(tmp_path):
    return tmp_path


@pytest.mark.parametrize("workload", gen.WORKLOADS)
def test_one_operation(workload, work):
    [(outcome, [seconds])] = run.Run(workload, work).phase(run.first_operations(workload, 1, 1))
    assert outcome.error is None and outcome.ok, (outcome.error, outcome.misses)
    assert seconds > 0.0 and outcome.fingerprint


@pytest.mark.parametrize("workload", gen.WORKLOADS)
def test_determinism_self_check(workload, work):
    ok, notes = run.determinism(workload, 4, work, n_ops=1)
    assert ok, notes


def test_tracing_leaves_results_unchanged(work):
    ops = run.first_operations("shock_sweep", 2, 2)
    plain = run.Run("shock_sweep", work).phase(ops)
    tracer = run.Tracer()
    traced_run = run.Run("shock_sweep", work, tracer)
    with run.installed(tracer):
        traced = traced_run.phase(ops)
    assert [o.fingerprint for o, _ in plain] == [o.fingerprint for o, _ in traced]
    assert tracer.counters["sode.fevals"] > 0
    assert 0.5 < traced_run.span_cover <= 1.0


def test_end_to_end_times_each_operation_by_its_fastest_pass():
    ok, bad = run.wl.Outcome(), run.wl.Outcome(ok=False, error="DomainError")
    results = [(ok, [0.1, 0.2, 0.1]), (ok, [0.3, 0.2, 0.4]), (bad, [0.5, 0.3, 0.6])]
    m = run.end_to_end("structure_scan", [1.0, 3.0, 2.0], results)
    assert m["setup_s"] == 2.0
    assert m["ops_per_s"] == pytest.approx(2 / 0.6)
    assert m["op_p50_ms"] == pytest.approx(200.0)


def test_benchmark_json_matches_the_runner():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(spec) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    # layer_sweep and cli_cold run on request but are left out of the gated set (README.md)
    assert [w["name"] for w in spec["workloads"]] == ["shock_sweep", "structure_scan"]
    assert {w["name"] for w in spec["workloads"]} < set(gen.WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == list(run.PER_LAYER)


def test_run_prints_contract_line(capsys):
    assert run.main(["--workload", "structure_scan", "--seed", "3", "--seconds", "0.01", "--trace", "0"]) == 0
    last = capsys.readouterr().out.strip().splitlines()[-1]
    result = json.loads(last)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["attempted"] >= 1
    assert list(result["metrics"]) == [name for name, _, _ in run.END_TO_END]
    assert all(m["value"] > 0 for m in result["metrics"].values())
