import numpy as np
import pytest

from fieldforge.errors import ValidationError
from fieldforge.measure import Decision, ShotResult, decision, hadamard_test


PSI2 = np.array([0.6, 0.8j])


def _overlap(u):
    return np.vdot(PSI2, u @ PSI2)


def test_identity_is_exact():
    res = hadamard_test(1.0, shots=500)
    assert res.p0_exact == 1.0
    assert res.estimate == 1.0
    assert res.standard_error == pytest.approx(1.0 / 500)


def test_minus_identity_is_exact():
    res = hadamard_test(-1.0, shots=500)
    assert res.p0_exact == 0.0
    assert res.estimate == -1.0


def test_imaginary_part_channel():
    res = hadamard_test(1j, part="im", shots=50)
    assert res.p0_exact == 1.0
    assert res.estimate == 1.0
    re = hadamard_test(1j, part="re", shots=50)
    assert re.p0_exact == pytest.approx(0.5)


def test_same_seed_reproduces():
    overlap = _overlap(np.diag([1.0, np.exp(0.9j)]))
    a = hadamard_test(overlap, shots=10_000, seed=42)
    b = hadamard_test(overlap, shots=10_000, seed=42)
    assert a == b
    c = hadamard_test(overlap, shots=10_000, seed=43)
    assert c.p0_exact == a.p0_exact
    assert c.estimate != a.estimate


def test_estimator_rms_matches_binomial_theory():
    overlap = _overlap(np.exp(1j * np.pi / 3.0) * np.eye(2))  # Re 1/2, p0 3/4
    shots = 400
    errs = [hadamard_test(overlap, shots=shots, seed=s).estimate - 0.5
            for s in range(200)]
    rms = np.sqrt(np.mean(np.square(errs)))
    sigma = 2.0 * np.sqrt(0.75 * 0.25 / shots)
    assert 0.75 * sigma < rms < 1.3 * sigma


def test_standard_error_formula():
    res = hadamard_test(_overlap(np.diag([1.0, np.exp(1.3j)])), shots=2048,
                        seed=5)
    p_hat = (1.0 + res.estimate) / 2.0
    expect = 2.0 * np.sqrt(p_hat * (1.0 - p_hat) / 2048) + 1.0 / 2048
    assert res.standard_error == pytest.approx(expect, rel=1e-12)
    assert isinstance(res, ShotResult)
    assert res.part == "re"
    assert res.seed == 5


def test_validation():
    for overlap in (np.nan, complex(0.0, np.nan), np.inf, 1.1, np.ones(2),
                    "1"):
        with pytest.raises(ValidationError):
            hadamard_test(overlap)
    with pytest.raises(ValidationError):
        hadamard_test(1.0, part="abs")
    with pytest.raises(ValidationError):
        hadamard_test(1.0, shots=0)
    for shots in (2.5, np.nan, np.inf, "ten"):
        with pytest.raises(ValidationError):
            hadamard_test(1.0, shots=shots)
    assert hadamard_test(1.0, shots=2.0).shots == 2
    assert hadamard_test(1.0, shots=np.int64(3)).shots == 3
    # the seed keys Philox: a u64, not a value that rounds or parses to one
    for seed in (1.5, "3", np.nan, -1, 2 ** 64, 2 ** 70):
        with pytest.raises(ValidationError, match="seed"):
            hadamard_test(1.0, seed=seed)
    assert hadamard_test(1.0, seed=2 ** 64 - 1).seed == 2 ** 64 - 1
    assert hadamard_test(1.0, seed=np.uint64(3)) == hadamard_test(1.0, seed=3)
    # roundoff just above modulus 1 is sampled, clipped to p0 = 1
    assert hadamard_test(1.0 + 1e-12).p0_exact == 1.0


def test_decision_regions():
    up = decision(0.8)
    assert up == Decision("above_two_thirds", pytest.approx(0.8 - 2.0 / 3.0))
    down = decision(0.2)
    assert down.outcome == "below_one_third"
    assert down.margin == pytest.approx(1.0 / 3.0 - 0.2)
    mid = decision(0.5)
    assert mid.outcome == "promise_violated"
    assert mid.margin == pytest.approx(-1.0 / 6.0)
    assert decision(2.0 / 3.0).outcome == "promise_violated"
    assert decision(1.0).outcome == "above_two_thirds"
    assert decision(0.0).outcome == "below_one_third"


def test_decision_validation():
    with pytest.raises(ValidationError):
        decision(1.2)
    with pytest.raises(ValidationError):
        decision(-0.1)
