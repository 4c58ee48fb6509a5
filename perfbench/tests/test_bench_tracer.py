"""Self-time arithmetic and wrapper installation of the span tracer."""

import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

from tracer import Tracer, installed, span_table  # noqa: E402


def test_self_time_on_synthetic_tree():
    # root [0, 10] with children a [1, 4] and b [5, 9]; b has child c [6, 8];
    # a second root d [12, 13]
    names = ["root", "a", "b", "c", "d"]
    parents = [-1, 0, 0, 2, -1]
    starts = [0.0, 1.0, 5.0, 6.0, 12.0]
    ends = [10.0, 4.0, 9.0, 8.0, 13.0]
    t = span_table(names, parents, starts, ends)
    assert t["root"] == {"calls": 1, "total_s": 10.0, "self_s": 3.0}
    assert t["a"]["self_s"] == 3.0
    assert t["b"] == {"calls": 1, "total_s": 4.0, "self_s": 2.0}
    assert t["c"]["self_s"] == 2.0
    # self times of all spans add up to the time the root spans cover
    assert sum(r["self_s"] for r in t.values()) == pytest.approx(11.0)


def test_repeated_names_aggregate():
    t = span_table(["f", "g", "g"], [-1, 0, 0], [0.0, 0.5, 2.0], [3.0, 1.5, 2.5])
    assert t["g"] == {"calls": 2, "total_s": 1.5, "self_s": 1.5}
    assert t["f"]["self_s"] == pytest.approx(1.5)


def test_call_nests_spans_and_keeps_exceptions():
    tr = Tracer()

    def inner():
        raise ValueError("boom")

    def outer():
        with pytest.raises(ValueError):
            tr.call("inner", inner)
        return 5

    assert tr.call("outer", outer) == 5
    assert tr.names == ["outer", "inner"]
    assert tr.parents == [-1, 0]
    assert all(e >= s for s, e in zip(tr.starts, tr.ends))


def test_installed_swaps_and_restores():
    from shocklayer import profiles, structure

    before = (profiles.integrate_direct, structure.blocks, profiles.tw_singular_ode)
    tr = Tracer()
    with installed(tr):
        assert profiles.integrate_direct is not before[0]
        assert structure.blocks is not before[1]
    assert (profiles.integrate_direct, structure.blocks, profiles.tw_singular_ode) == before
