"""Two-level sweeps, the parameter ladder, and the condition checks."""

import tracemalloc

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from fieldforge._ode import _propagator, evolve, hermitian, two_level
from fieldforge.errors import UnstableVacuum, ValidationError
from fieldforge.passage import (CONDITION_NAMES, SWEEP_TOL, TwoLevelSweep,
                                check_conditions, prep_time_estimate,
                                propagate_sweep, rwa_error_bound,
                                scale_parameters)


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


def _random_lab_sweeps():
    rng = np.random.default_rng(11)
    sweeps = []
    for _ in range(4):
        w0 = rng.uniform(50.0, 150.0)
        Omega = w0 * 1e-2 * rng.uniform(0.3, 1.0)
        B = Omega * rng.uniform(0.5, 2.0)
        T = rng.uniform(10.0, 30.0)
        sweeps.append(TwoLevelSweep(omega0=w0, Omega=Omega, B=B, T=T))
    return sweeps


def test_lab_frame_within_rwa_bound():
    for sweep in _random_lab_sweeps():
        lab = propagate_sweep(sweep, frame="lab")
        rwa = propagate_sweep(sweep, frame="rwa")
        diff = np.linalg.norm(lab.amplitudes - rwa.amplitudes)
        assert diff <= rwa_error_bound(sweep.Omega, sweep.omega0,
                                       sweep.B / 2.0, sweep.T)


def _schrodinger_lab_sweep(sweep):
    """The lab frame with the static splitting in H: [[0, drive], [drive,
    omega0]] through the dense hermitian kernel, then diag(1, e^{i Theta})."""
    def h(t):
        out = np.zeros((t.size, 2, 2), dtype=complex)
        out[:, 0, 1] = out[:, 1, 0] = sweep.Omega * np.cos(sweep.drive_phase(t))
        out[:, 1, 1] = sweep.omega0
        return out

    t1 = sweep.T / 2.0
    psi, _ = evolve(hermitian(h), [1.0, 0.0], -t1, t1, SWEEP_TOL)
    psi[1] *= np.exp(1j * sweep.drive_phase(t1))
    return psi


def test_lab_frame_matches_schrodinger_picture():
    # the interaction picture of omega0 changes the integrator's work, not
    # the dynamics: counter-rotating term and back transform included.  The
    # two routes also cross the kernels, two_level against hermitian.
    # Each route stops once its own error estimate is below SWEEP_TOL, so
    # the two may differ by up to twice that (1.0e-10 on the first sweep,
    # whose routes sit 8.0e-11 and 3.7e-11 from DOP853 at rtol 1e-13).
    for sweep in _random_lab_sweeps():
        lab = propagate_sweep(sweep, frame="lab")
        err = np.max(np.abs(lab.amplitudes - _schrodinger_lab_sweep(sweep)))
        assert err <= 2.0 * SWEEP_TOL


def _dop853_sweep(sweep, frame, rtol, atol):
    """Oracle: DOP853 on one 2x2 right-hand side at a time."""
    def h(t):
        if frame == "rwa":
            return np.array([[0.0, sweep.Omega / 2.0],
                             [sweep.Omega / 2.0, -sweep.detuning(t)]])
        drive = sweep.Omega * np.cos(sweep.drive_phase(t))
        return np.array([[0.0, drive], [drive, sweep.omega0]])

    sol = solve_ivp(lambda t, y: -1j * h(t) @ y, (-sweep.T / 2.0, sweep.T / 2.0),
                    np.array([1.0, 0.0], dtype=complex), method="DOP853",
                    rtol=rtol, atol=atol)
    psi = sol.y[:, -1]
    if frame == "lab":
        psi[1] *= np.exp(1j * sweep.drive_phase(sweep.T / 2.0))
    return psi


def _converged_and_former(sweep, frame):
    """DOP853 at rtol 1e-13, and at the sweep's former rtol 1e-11."""
    return (_dop853_sweep(sweep, frame, 1e-13, 1e-16),
            _dop853_sweep(sweep, frame, 1e-11, 1e-14))


@pytest.mark.parametrize("sweep", [TwoLevelSweep(50.0, 0.3, 0.4, 10.0),
                                   TwoLevelSweep(60.0, 0.4, 0.5, 12.0)],
                         ids=["w0T500", "w0T720"])
def test_lab_sweep_as_close_as_dop853(sweep):
    converged, former = _converged_and_former(sweep, "lab")
    res = propagate_sweep(sweep, frame="lab")
    err = np.max(np.abs(res.amplitudes - converged))
    assert err <= np.max(np.abs(former - converged))
    assert err < 1e-10
    assert res.steps > 0


def test_ladder_sweep_as_close_as_dop853():
    sp = scale_parameters(0.2)
    sweep = TwoLevelSweep(1.0, sp.g, sp.B, sp.T)
    converged, former = _converged_and_former(sweep, "rwa")
    err = np.max(np.abs(propagate_sweep(sweep).amplitudes - converged))
    assert err <= np.max(np.abs(former - converged))


def _rwa_kernel(sweep, kernel):
    """The rwa Hamiltonian [[0, Omega/2], [Omega/2, -Delta]] for a kernel."""
    def pauli(t):
        half = 0.5 * sweep.detuning(t)
        zero = np.zeros(t.size)
        return -half, np.stack([zero + sweep.Omega / 2.0, zero, half], axis=1)

    def dense(t):
        out = np.zeros((t.size, 2, 2), dtype=complex)
        out[:, 0, 1] = out[:, 1, 0] = sweep.Omega / 2.0
        out[:, 1, 1] = -sweep.detuning(t)
        return out

    return two_level(pauli) if kernel == "two_level" else hermitian(dense)


@pytest.mark.parametrize("kernel", ["two_level", "hermitian"])
def test_magnus_steps_converge_at_fourth_order(kernel):
    sweep = TwoLevelSweep(1.0, 0.3, 0.5, 40.0)
    converged = _dop853_sweep(sweep, "rwa", 1e-13, 1e-16)
    block = _rwa_kernel(sweep, kernel)
    errs = [np.max(np.abs(_propagator(block, -20.0, 20.0, n, 2)[:, 0]
                          - converged))
            for n in (64, 128)]
    assert 12.0 <= errs[0] / errs[1] <= 20.0


def test_lab_sweep_memory_is_blocked():
    # numerics-size sweep: omega0 T = 2000 takes 131008 Magnus steps over
    # its doublings, the last of them 2^16
    sweep = TwoLevelSweep(100.0, 0.6, 0.8, 20.0)
    tracemalloc.start()
    try:
        res = propagate_sweep(sweep, frame="lab")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 10e6
    assert res.steps == 131008


def test_sweep_validation():
    with pytest.raises(ValidationError):
        TwoLevelSweep(1.0, 0.0, 1.0, 1.0)
    with pytest.raises(ValidationError):
        propagate_sweep(TwoLevelSweep(1.0, 0.1, 1.0, 1.0), frame="interaction")


def test_prep_time_estimate():
    assert prep_time_estimate(1.0, 0.5) == pytest.approx(4.0)
    with pytest.raises(UnstableVacuum):
        prep_time_estimate(1.0, 1.0)
