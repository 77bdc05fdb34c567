"""Two-level sweeps, the parameter ladder, and the condition checks."""

import numpy as np
import pytest

from fieldforge.errors import UnstableVacuum, ValidationError
from fieldforge.passage import (CONDITION_NAMES, TwoLevelSweep,
                                check_conditions, effective_hamiltonian,
                                prep_time_estimate, propagate_sweep,
                                rwa_error_bound, scale_parameters)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize("field", ["omega0", "Omega", "B", "T"])
def test_sweep_rejects_non_finite(field, bad):
    params = {"omega0": 100.0, "Omega": 1.0, "B": 1.0, "T": 20.0}
    params[field] = bad
    with pytest.raises(ValidationError):
        TwoLevelSweep(**params)


def test_ladder_exponents():
    eps = 0.2
    sp = scale_parameters(eps)
    assert sp.g == eps ** 5
    assert sp.lam == eps ** 4
    assert sp.B == eps ** 4
    assert sp.T == eps ** -8
    assert sp.epsilon_used == eps


def test_ladder_gate_count_tightening():
    sp = scale_parameters(0.35, G=10_000)
    assert sp.epsilon_used == pytest.approx(0.1)
    assert sp.lam == pytest.approx(1e-4)      # min(eps^4, 1/G)
    assert sp.T == pytest.approx(1e8)         # max(eps^-8, G^2)


def test_ladder_prefactors():
    sp = scale_parameters(0.5, prefactors={"g": 2.0, "T": 3.0})
    base = scale_parameters(0.5)
    assert sp.g == 2.0 * base.g
    assert sp.T == 3.0 * base.T
    assert sp.lam == base.lam


@pytest.mark.parametrize("eps", [0.0, 1.0, -0.3])
def test_ladder_validation(eps):
    with pytest.raises(ValidationError):
        scale_parameters(eps)


def test_ladder_rejects_bad_gate_count():
    with pytest.raises(ValidationError):
        scale_parameters(0.5, G=0)


@pytest.mark.parametrize("eps", [0.3, 0.15])
def test_conditions_under_ladder(eps):
    sp = scale_parameters(eps)
    report = check_conditions(sp.g, sp.g, sp.B, sp.T, 1.0, sp.lam, eps, C=1.0)
    assert report.passed
    expected = (eps, eps, eps ** 5, eps, 1.0, eps, eps)
    np.testing.assert_allclose(report.ratios(), expected, rtol=1e-12)
    assert tuple(c.name for c in report.checks) == CONDITION_NAMES


def test_conditions_flag_fast_drive():
    sp = scale_parameters(0.2)
    # doubling Omega pushes the alignment ratio past epsilon
    report = check_conditions(sp.g, 2.0 * sp.g, sp.B, sp.T, 1.0, sp.lam, 0.2)
    assert not report.passed
    failed = [c.name for c in report.checks if not c.passed]
    assert "dressed_alignment" in failed


def test_conditions_boundary_inclusive():
    report = check_conditions(0.1, 0.1, 1.0, 100.0, 1.0, 1.0, 0.1, C=1.0)
    # g/B sits exactly at epsilon; the boundary must count as passing
    check = {c.name: c for c in report.checks}["source_weak_vs_band"]
    assert check.ratio == pytest.approx(0.1, rel=1e-15)
    assert check.passed


def test_dressed_states_on_resonance():
    ds = effective_hamiltonian(1.0, 0.0)
    assert ds.theta == pytest.approx(np.pi / 4.0)
    np.testing.assert_allclose(ds.hamiltonian @ ds.minus,
                               ds.eigenvalues[0] * ds.minus, atol=1e-14)
    np.testing.assert_allclose(ds.hamiltonian @ ds.plus,
                               ds.eigenvalues[1] * ds.plus, atol=1e-14)
    assert abs(np.dot(ds.minus, ds.plus)) < 1e-14


def test_dressed_states_asymptotes():
    far_below = effective_hamiltonian(0.01, -100.0)
    far_above = effective_hamiltonian(0.01, 100.0)
    # |-> interpolates from |g> to -|e> across the sweep
    assert abs(far_below.minus[0]) > 0.999999
    assert abs(far_above.minus[1]) > 0.999999
    assert far_below.theta < 1e-4
    assert far_above.theta > np.pi / 2.0 - 1e-4


def test_rwa_error_bound_formula():
    assert rwa_error_bound(0.1, 50.0, 2.0, 10.0) == pytest.approx(
        0.1 / 100.0 + (0.1 * 10.0 / 200.0) * 2.1)
    with pytest.raises(ValidationError):
        rwa_error_bound(0.1, 0.0, 1.0, 1.0)


def test_sweep_timescale_invariance():
    # rescaling (Omega, B, 1/T) by a common factor is a change of time unit
    a = propagate_sweep(TwoLevelSweep(1.0, 0.05, 2.0, 800.0))
    b = propagate_sweep(TwoLevelSweep(1.0, 0.10, 4.0, 400.0))
    assert a.fidelity == pytest.approx(b.fidelity, abs=1e-9)


@pytest.mark.parametrize("Omega,B,T", [(0.05, 2.0, 2000.0), (0.05, 2.0, 800.0)])
def test_sweep_matches_landau_zener(Omega, B, T):
    res = propagate_sweep(TwoLevelSweep(1.0, Omega, B, T))
    lz = 1.0 - np.exp(-np.pi * Omega ** 2 * T / (2.0 * B))
    # finite sweep window: percent-level edge corrections are expected
    assert res.fidelity == pytest.approx(lz, abs=0.05)


def test_sweep_adiabatic_limit():
    res = propagate_sweep(TwoLevelSweep(1.0, 0.05, 2.0, 4000.0))
    assert res.fidelity > 0.998
    assert res.frame == "rwa"


def test_lab_frame_within_rwa_bound():
    rng = np.random.default_rng(11)
    for _ in range(4):
        w0 = rng.uniform(50.0, 150.0)
        Omega = w0 * 1e-2 * rng.uniform(0.3, 1.0)
        B = Omega * rng.uniform(0.5, 2.0)
        T = rng.uniform(10.0, 30.0)
        sweep = TwoLevelSweep(omega0=w0, Omega=Omega, B=B, T=T)
        lab = propagate_sweep(sweep, frame="lab")
        rwa = propagate_sweep(sweep, frame="rwa")
        diff = np.linalg.norm(lab.amplitudes - rwa.amplitudes)
        assert diff <= rwa_error_bound(Omega, w0, B / 2.0, T)


def test_sweep_validation():
    with pytest.raises(ValidationError):
        TwoLevelSweep(1.0, 0.0, 1.0, 1.0)
    with pytest.raises(ValidationError):
        propagate_sweep(TwoLevelSweep(1.0, 0.1, 1.0, 1.0), frame="interaction")


def test_prep_time_estimate():
    assert prep_time_estimate(1.0, 0.5) == pytest.approx(4.0)
    with pytest.raises(UnstableVacuum):
        prep_time_estimate(1.0, 1.0)
