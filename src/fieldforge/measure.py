"""Hadamard-test sampling and the promise decision rule.

The control register is prepared in (|0> + |1>)/sqrt(2) for the real part
or (|0> - i|1>)/sqrt(2) for the imaginary part; after the controlled-U and
a final Hadamard, p0 = (1 + Re<psi|U|psi>)/2 or (1 + Im<psi|U|psi>)/2.
The sampler takes that overlap, not U and psi.  Shots are drawn from the
exact p0 with a counter-based Philox generator, so results are
reproducible given (seed, N) and parallel batches can use distinct
sub-seeds.
"""

import numbers
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError, _count


@dataclass(frozen=True)
class ShotResult:
    shots: int
    part: str
    estimate: float         # 2 p0_hat - 1
    standard_error: float   # 2 sqrt(p(1-p)/N) + 1/N finite-sample floor
    p0_exact: float
    seed: int


def _shot_args(part, shots, seed):
    """(shots, seed) as integers, or ValidationError; needs no overlap, so
    a caller can check them before the amplitude is computed."""
    if part not in ("re", "im"):
        raise ValidationError("part must be 're' or 'im'")
    shots = _count(shots, "shots")
    if shots < 1:
        raise ValidationError("need at least one shot")
    seed = _count(seed, "seed")
    if not 0 <= seed < 2 ** 64:
        raise ValidationError("seed must fit in u64")
    return shots, seed


def hadamard_test(overlap, part="re", shots=10_000, seed=0):
    """Sampled estimate of Re or Im of overlap = <psi|U|psi> from N shots."""
    if not isinstance(overlap, numbers.Number):
        raise ValidationError(f"overlap must be a complex scalar, got {overlap!r}")
    overlap = complex(overlap)
    # NaN fails the comparison too
    if not abs(overlap) <= 1.0 + 1e-9:
        raise ValidationError(f"overlap {overlap} needs a finite modulus <= 1")
    shots, seed = _shot_args(part, shots, seed)

    value = overlap.real if part == "re" else overlap.imag
    # clip away roundoff outside [0, 1]
    p0 = min(max((1.0 + value) / 2.0, 0.0), 1.0)

    rng = np.random.Generator(np.random.Philox(key=seed))
    hits = int(rng.binomial(shots, p0))
    p_hat = hits / shots
    estimate = 2.0 * p_hat - 1.0
    stderr = 2.0 * np.sqrt(p_hat * (1.0 - p_hat) / shots) + 1.0 / shots
    return ShotResult(shots=shots, part=part, estimate=float(estimate),
                      standard_error=float(stderr), p0_exact=float(p0),
                      seed=seed)


@dataclass(frozen=True)
class Decision:
    outcome: str   # above_two_thirds | below_one_third | promise_violated
    margin: float  # distance outside the promise gap; negative inside it


def decision(p):
    """Classify an acceptance probability against the 2/3 / 1/3 promise."""
    if not 0.0 <= p <= 1.0:
        raise ValidationError("probability must lie in [0, 1]")
    if p > 2.0 / 3.0:
        return Decision("above_two_thirds", p - 2.0 / 3.0)
    if p < 1.0 / 3.0:
        return Decision("below_one_third", 1.0 / 3.0 - p)
    return Decision("promise_violated", -min(p - 1.0 / 3.0, 2.0 / 3.0 - p))
