"""The metric list in BENCHMARK.json, the tail percentile and the scaling
to the reference speed.

Run from the root of a checkout:

    python3 -m pytest -q perfbench/tests
"""

import json
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(os.path.dirname(BENCH), "src"), BENCH]

import run  # noqa: E402
import workloads  # noqa: E402


def _spec():
    with open(os.path.join(os.path.dirname(BENCH), "BENCHMARK.json"),
              encoding="utf-8") as fh:
        return json.load(fh)


def test_end_to_end_metrics_match():
    listed = {m["name"]: m["unit"] for m in _spec()["end_to_end"]}
    assert listed == run.END_TO_END


def test_per_layer_metrics_match():
    listed = {m["name"]: m["unit"] for m in _spec()["per_layer"]}
    assert listed == run.PER_LAYER


def test_workloads_match():
    listed = [w["name"] for w in _spec()["workloads"]]
    assert sorted(listed) == sorted(workloads.WORKLOADS)


def test_tail_percentile():
    assert run.tail([3.0]) == (3.0, 0)
    assert run.tail([3.0, 1.0, 2.0]) == (2.7, 1)
    cut, beyond = run.tail([float(v) for v in range(40)])
    assert abs(cut - 33.15) < 1e-12 and beyond == 6


def test_reference_scale(monkeypatch):
    refs = iter([run.REF_S, 3.0 * run.REF_S, 2.0 * run.REF_S])
    monkeypatch.setattr(run, "reference", lambda: next(refs))
    clock = run.StageClock()
    assert clock(lambda x: x + 1, 1) == 2
    assert clock(lambda: None) is None
    assert len(clock.wall) == 2
    loop = run.Loop(workloads.Numerics(1))
    loop.clocks.append(clock)
    assert loop.scale() == pytest.approx(0.5)
