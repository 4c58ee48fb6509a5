"""The input generator is a pure function of (workload, seed)."""

import itertools
import sys
from collections import Counter
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import gen  # noqa: E402


def first_ops(workload, seed, n):
    return list(itertools.islice(gen.operations(workload, seed), n))


def test_same_seed_same_inputs():
    for w in gen.WORKLOADS:
        assert first_ops(w, 7, 30) == first_ops(w, 7, 30)


def test_other_seed_other_inputs():
    for w in gen.WORKLOADS:
        assert first_ops(w, 7, 30) != first_ops(w, 8, 30)


def test_layer_blocks_have_fixed_composition():
    blocks = itertools.islice(gen.blocks("layer_sweep", 3), 5)
    for block in blocks:
        assert Counter(op["class"] for op in block) == Counter(dict(gen.LAYER_CLASSES))
        for op in block:
            assert 1e-4 <= abs(op["amplitude"]) <= 1e-2
            if op["class"] == "near_sonic":
                assert 1e-3 <= abs(op["amplitude"]) <= 2e-3
        assert {op["limit_state"][1] for op in block if op["class"] == "characteristic"} == {0.0}


def test_family3_strengths_span_the_admissible_bound():
    shares = []
    for op in first_ops("shock_sweep", 1, 400):
        if op["family"] == 3:
            shares.append(op["strength"] / gen.family3_strength_bound(op["gas"]["gamma"], op["left"]))
    assert min(shares) < 0.2 and max(shares) > 1.0
    assert 0.02 < sum(s > 1.0 for s in shares) / len(shares) < 0.3


def test_family3_bound_matches_known_value():
    # about 0.736 for gamma 1.4 from the state (1, 0, 1)
    assert abs(gen.family3_strength_bound(1.4, [1.0, 0.0, 1.0]) - 0.7360) < 1e-3


def test_cli_blocks_have_fixed_mix():
    for block in itertools.islice(gen.blocks("cli_cold", 2), 3):
        assert sorted(op["command"] for op in block) == sorted(gen.CLI_MIX)
        assert set(gen.CLI_MIX) == set(gen.CLI_COMMANDS)
