"""Bump schedules, frame generators, and adiabatic-frame propagation."""

import numpy as np
import pytest
from scipy.integrate import quad, simpson
from scipy.linalg import expm

from fieldforge._ode import evolve
from fieldforge.adiabatic import (TimeDependentHamiltonian, bump_integral,
                                  build_frame_trajectory, frame_generator,
                                  gevrey_bump, gevrey_derivative_check,
                                  leakage_overlap_bound, propagate)
from fieldforge.errors import (DegenerateGap, GapClosure, ValidationError)


def test_bump_values():
    assert gevrey_bump(0.5) == pytest.approx(np.exp(-4.0), rel=1e-15)
    assert gevrey_bump(0.0) == 0.0
    assert gevrey_bump(1.0) == 0.0
    assert gevrey_bump(-0.2) == 0.0
    assert gevrey_bump(1.3) == 0.0
    s = np.linspace(0.0, 1.0, 101)
    np.testing.assert_allclose(gevrey_bump(s), gevrey_bump(1.0 - s), atol=1e-18)


def test_bump_integral_dual_route():
    eta = bump_integral()
    assert eta == pytest.approx(7.0299e-3, abs=1e-6)
    # independent fixed-grid route
    s = np.linspace(0.0, 1.0, 40001)
    eta_simpson = simpson(gevrey_bump(s), x=s)
    assert eta == pytest.approx(eta_simpson, abs=1e-10)
    assert eta == pytest.approx(0.007029858406609657, abs=1e-12)


def test_gevrey_derivative_envelope():
    c, r, maxima, residual = gevrey_derivative_check(gevrey_bump, order=2.0,
                                                     k_max=6)
    assert c > 0 and r > 0
    ks = np.arange(1, 7, dtype=float)
    # fitted envelope covers every sampled derivative maximum
    assert np.all(maxima <= c * r ** ks * ks ** (2.0 * ks) * (1.0 + 1e-12))
    # derivative maxima grow faster than any geometric sequence
    growth = maxima[1:] / maxima[:-1]
    assert np.all(np.diff(growth) > 0)


def _two_level(tau, delta=1.0, coupling=0.25):
    def h(s):
        return np.array([[delta * (s - 0.5), coupling],
                         [coupling, -delta * (s - 0.5)]], dtype=complex)
    return TimeDependentHamiltonian(dimension=2, evaluator=h, tau=tau)


def test_hamiltonian_validation():
    with pytest.raises(ValidationError):
        TimeDependentHamiltonian(1, lambda s: np.eye(1), 1.0)
    with pytest.raises(ValidationError):
        TimeDependentHamiltonian(2, lambda s: np.eye(2), 0.0)
    bad = TimeDependentHamiltonian(2, lambda s: np.array([[0.0, 1.0],
                                                          [0.5, 0.0]]), 1.0)
    with pytest.raises(ValidationError):
        bad.h(0.3)


def test_derivative_stencil_matches_analytic():
    def h(s):
        return np.array([[np.sin(2.0 * s), 0.3], [0.3, np.cos(s)]])

    def dh(s):
        return np.array([[2.0 * np.cos(2.0 * s), 0.0], [0.0, -np.sin(s)]])

    numeric = TimeDependentHamiltonian(2, h, 5.0)
    analytic = TimeDependentHamiltonian(2, h, 5.0, dds=dh)
    for s in (0.0, 1e-4, 0.37, 0.82, 1.0):
        np.testing.assert_allclose(numeric.dh_ds(s), dh(s), atol=1e-9)
        np.testing.assert_allclose(analytic.dh_dt(s), dh(s) / 5.0, atol=1e-15)


def test_frame_trajectory_tracks_through_crossing():
    # diabatic levels cross linearly at s = 1/2; overlap matching must keep
    # following them instead of re-sorting by energy
    def h(s):
        return np.diag([s - 0.5, 0.5 - s]).astype(complex)

    system = TimeDependentHamiltonian(2, h, 1.0)
    traj = build_frame_trajectory(system, n_samples=201)
    np.testing.assert_allclose(traj.energies[:, 0], traj.s_samples - 0.5,
                               atol=1e-12)
    assert traj.min_gap(1) < 0.0


def test_frame_gauge_continuity():
    system = _two_level(10.0)
    traj = build_frame_trajectory(system, n_samples=401)
    overlaps = np.einsum("sij,sij->sj", traj.vectors[:-1].conj(),
                         traj.vectors[1:])
    # parallel transport: successive overlaps real, positive, near 1
    assert np.max(np.abs(overlaps.imag)) < 1e-12
    assert overlaps.real.min() > 0.999


def test_frame_generator_matches_vector_derivative():
    system = _two_level(7.0)
    s0, ds = 0.4, 1e-6
    w, v = np.linalg.eigh(system.h(s0))
    m = frame_generator(system, s0, basis=(w, v))
    # oracle: M_jk = -i <L_j | d L_k / dt> from parallel-transported vectors
    wp, vp = np.linalg.eigh(system.h(s0 + ds))
    for k in range(2):
        phase = np.vdot(v[:, k], vp[:, k])
        vp[:, k] *= abs(phase) / phase
    dv_dt = (vp - v) / (ds * system.tau)
    oracle = -1j * v.conj().T @ dv_dt
    np.testing.assert_allclose(m[0, 1], oracle[0, 1], atol=1e-6)
    np.testing.assert_allclose(m[1, 0], oracle[1, 0], atol=1e-6)
    assert np.allclose(m, m.conj().T, atol=1e-12)
    assert m[0, 0] == pytest.approx(w[0]) and m[1, 1] == pytest.approx(w[1])


def test_frame_generator_degenerate_gap():
    def h(s):
        return np.diag([0.0, 1e-12]).astype(complex)

    system = TimeDependentHamiltonian(2, h, 1.0)
    with pytest.raises(DegenerateGap):
        frame_generator(system, 0.5)

    def h4(s):
        return np.diag([0.0, 1.0, 2.0, 2.0 + 1e-12]).astype(complex)

    system = TimeDependentHamiltonian(4, h4, 1.0)
    with pytest.raises(DegenerateGap, match="levels 2,3"):
        frame_generator(system, 0.5)


def _four_level(tau):
    rng = np.random.default_rng(7)
    a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    b = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    h0, h1 = a + a.conj().T, b + b.conj().T
    return TimeDependentHamiltonian(4, lambda s: h0 + np.sin(3.0 * s) * h1,
                                    tau, dds=lambda s: 3.0 * np.cos(3.0 * s) * h1)


def test_frame_generator_matches_loop_oracle():
    system = _four_level(6.0)
    for s in (0.1, 0.45, 0.8):
        m = frame_generator(system, s)
        # oracle: the element-by-element form of the generator
        w, v = np.linalg.eigh(system.h(s))
        elem = v.conj().T @ system.dh_dt(s) @ v
        oracle = np.zeros((4, 4), dtype=complex)
        for j in range(4):
            oracle[j, j] = w[j]
            for k in range(4):
                if j != k:
                    oracle[j, k] = 1j * elem[j, k] / (w[j] - w[k])
        assert m.tobytes() == oracle.tobytes()


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_hamiltonian_rejected(bad):
    system = TimeDependentHamiltonian(2, lambda s: np.full((2, 2), bad), 1.0)
    with pytest.raises(ValidationError):
        system.h(0.5)


def test_evolve_matches_expm_for_constant_hamiltonian():
    rng = np.random.default_rng(3)
    a = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    h0 = a + a.conj().T
    t0, t1 = 0.3, 2.1
    u = expm(-1j * h0 * (t1 - t0))
    psi0 = np.array([0.6, 0.8j, 0.0])
    psi = evolve(lambda t: h0, psi0, t0, t1, 1e-12)
    assert psi.shape == (3,)
    np.testing.assert_allclose(psi, u @ psi0, rtol=0.0, atol=1e-10)
    cols = rng.normal(size=(3, 2)) + 1j * rng.normal(size=(3, 2))
    out = evolve(lambda t: h0, cols, t0, t1, 1e-12)
    assert out.shape == (3, 2)
    np.testing.assert_allclose(out, u @ cols, rtol=0.0, atol=1e-10)


def test_static_hamiltonian_phases():
    # constant H: the frame propagator is exactly diag(exp(-i E_j tau))
    h0 = np.array([[0.3, 0.1], [0.1, -0.2]], dtype=complex)
    system = TimeDependentHamiltonian(2, lambda s: h0, tau=3.0,
                                      dds=lambda s: np.zeros((2, 2)))
    w = np.linalg.eigh(h0)[0]
    res = propagate(system, 2, mode="reduced", n_samples=201)
    np.testing.assert_allclose(res.unitary, np.diag(np.exp(-1j * w * 3.0)),
                               atol=1e-12)
    full = propagate(system, 2, mode="full", n_samples=201)
    np.testing.assert_allclose(full.unitary, res.unitary, atol=1e-9)


def test_reduced_matches_full():
    system = _two_level(12.0)
    red = propagate(system, 2, mode="reduced")
    full = propagate(system, 2, mode="full")
    assert np.max(np.abs(red.unitary - full.unitary)) < 1e-4
    assert full.unitary_lab is not None
    # unitarity of the reduced product
    np.testing.assert_allclose(red.unitary @ red.unitary.conj().T, np.eye(2),
                               atol=1e-10)


def test_reduced_step_halving():
    system = _two_level(9.0)
    a = propagate(system, 2, mode="reduced", n_samples=1025).unitary
    b = propagate(system, 2, mode="reduced", n_samples=2049).unitary
    assert np.max(np.abs(a - b)) < 1e-6


def test_gap_closure_detected():
    def h(s):
        return np.diag([s - 0.5, 0.5 - s]).astype(complex)

    system = TimeDependentHamiltonian(2, h, 1.0)
    with pytest.raises(GapClosure):
        propagate(system, 1)


def _bump_driven(tau, gamma=1.0, beta=0.05):
    def h(s):
        u = s * (2.0 - s)
        drive = beta * gevrey_bump(u)
        return np.array([[gamma / 2.0, drive], [drive, -gamma / 2.0]],
                        dtype=complex)
    return TimeDependentHamiltonian(dimension=2, evaluator=h, tau=tau)


def test_leakage_decreases_with_tau():
    leaks = []
    for tau in (20.0, 60.0, 180.0):
        res = propagate(_bump_driven(tau), 1, mode="full")
        leaks.append(res.leakage)
    assert leaks[0] > leaks[1] > leaks[2] > 0.0


def test_leakage_overlap_bound():
    assert leakage_overlap_bound(2.0, 4.0, 0.1, 1.0) == pytest.approx(0.95)
    assert leakage_overlap_bound(100.0, 1.0, 1.0, 1.0) == 0.0
    assert leakage_overlap_bound(0.0, 1.0, 0.5, 10.0) == 1.0
    with pytest.raises(ValidationError):
        leakage_overlap_bound(1.0, 0.0, 0.1, 1.0)


def test_trajectory_csv_export(tmp_path):
    system = _two_level(5.0)
    traj = build_frame_trajectory(system, n_samples=33)
    path = tmp_path / "levels.csv"
    traj.to_csv(path)
    rows = path.read_text().strip().splitlines()
    assert rows[0] == "s,E0,E1"
    assert len(rows) == 34
    first = [float(tok) for tok in rows[1].split(",")]
    assert first[0] == 0.0
    assert first[1] == pytest.approx(traj.energies[0, 0], rel=1e-15)
