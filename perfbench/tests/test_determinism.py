"""The seed alone fixes a workload's inputs and the work the package does.

Run from the root of a checkout:

    python3 -m pytest -q perfbench/tests
"""

import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(os.path.dirname(BENCH), "src"), BENCH]

import run  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402

# work counters that must repeat exactly for the same seed
COUNTS = (
    "compiler.compile.samples",
    "compiler.save.bytes",
    "chirp.fresnel.points",
    "fieldtheory.mode_decomposition.modes",
    "passage.rhs_evals",
    "adiabatic.rhs_evals",
)
# items per count; a traced loop traces the even-numbered ones
ITEMS = {"cli_circuits": 5, "design_export": 3, "numerics": 1}


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_same_seed_same_inputs(name):
    cls = workloads.WORKLOADS[name]
    first = [cls(7).make_item(i) for i in range(6)]
    assert first == [cls(7).make_item(i) for i in range(6)]
    assert first != [cls(8).make_item(i) for i in range(6)]


def _counts(name, seed):
    wl = workloads.WORKLOADS[name](seed)
    wl.setup()
    tracer = Tracer()
    tracer.install()
    try:
        loop = run.Loop(wl, tracer)
        loop.timed(float("inf"), limit=ITEMS[name])
    finally:
        tracer.uninstall()
    assert loop.failed == 0
    return {k: tracer.counters.get(k, 0) for k in COUNTS}


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_same_seed_same_counts(name, tmp_path, monkeypatch):
    monkeypatch.setattr(run, "TMP", str(tmp_path))
    first = _counts(name, 11)
    assert any(first.values())
    assert first == _counts(name, 11)


def test_every_circuit_leaves_the_vacuum():
    """The vacuum oracles need at least one x rotation per circuit."""
    wl = workloads.CliCircuits(7)
    wl.setup()
    for index in range(200):
        circuit = wl.make_item(index)["circuit"]
        amp = workloads.ideal_vacuum_amplitude(circuit, *wl.native)
        assert abs(amp) < 1.0 - 1e-6
