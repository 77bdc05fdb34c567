"""Property tests over generated inputs."""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from fieldforge.chirp import fresnel
from fieldforge.circuits import (GateSpec, LogicalCircuit, ideal_unitary,
                                 insert_swaps)

FRESNEL_TOL = 1e-10   # the evaluator's absolute-error contract
finite = st.floats(allow_nan=False, allow_infinity=False)


@settings(max_examples=300, derandomize=True)
@given(finite)
def test_fresnel_odd_and_bounded(z):
    c, s = fresnel(z)
    cm, sm = fresnel(-z)
    assert cm == -c and sm == -s
    # max C is C(1) = 0.7799, max S is S(sqrt 2) = 0.7139
    assert abs(c) <= 0.78 and abs(s) <= 0.78


@settings(max_examples=300, derandomize=True)
@given(st.floats(min_value=1.0, max_value=1e300))
def test_fresnel_tail_bound(z):
    c, _ = fresnel(z)
    # exact for the true C; the computed one may sit FRESNEL_TOL outside
    assert abs(c - 0.5) <= 1.0 / (np.pi * z) + FRESNEL_TOL


angles = st.floats(min_value=-2.0 * np.pi, max_value=2.0 * np.pi)


@st.composite
def circuits(draw):
    n = draw(st.integers(min_value=1, max_value=5))
    kinds = ["xrot", "zrot"] + (["entangling", "swap"] if n > 1 else [])
    gates = []
    for _ in range(draw(st.integers(min_value=0, max_value=8))):
        kind = draw(st.sampled_from(kinds))
        if kind in ("xrot", "zrot"):
            q = draw(st.integers(min_value=0, max_value=n - 1))
            gates.append(GateSpec(kind, (q,), angle=draw(angles)))
        elif kind == "swap":
            q = draw(st.integers(min_value=0, max_value=n - 2))
            gates.append(GateSpec(kind, (q, q + 1)))
        else:
            a, b = draw(st.permutations(range(n)))[:2]
            gates.append(GateSpec(kind, (a, b), alpha=draw(angles),
                                  beta=draw(angles)))
    return LogicalCircuit(n, tuple(gates))


@settings(max_examples=100, derandomize=True)
@given(circuits())
def test_ideal_unitary_is_unitary(circuit):
    u = ideal_unitary(circuit)
    np.testing.assert_allclose(u @ u.conj().T, np.eye(u.shape[0]),
                               rtol=0.0, atol=1e-12)


@settings(max_examples=100, derandomize=True)
@given(circuits())
def test_insert_swaps_keeps_unitary(circuit):
    routed = insert_swaps(circuit)
    assert routed.is_nearest_neighbor()
    np.testing.assert_allclose(ideal_unitary(routed), ideal_unitary(circuit),
                               rtol=0.0, atol=1e-12)
