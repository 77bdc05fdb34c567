"""Property tests over generated inputs."""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from fieldforge.chirp import fresnel

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
