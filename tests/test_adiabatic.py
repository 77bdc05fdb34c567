"""Bump schedules, frame generators, and adiabatic-frame propagation."""

import numpy as np
import pytest
from scipy.integrate import simpson, solve_ivp
from scipy.linalg import expm
from scipy.optimize import linear_sum_assignment

from fieldforge._ode import (_two_level_product, evolve, exp_product,
                             hermitian, two_level)
from fieldforge.adiabatic import (TimeDependentHamiltonian, _midpoint_frames,
                                  bump_integral, build_frame_trajectory,
                                  frame_generator, gevrey_bump, propagate)
from fieldforge.errors import (DegenerateGap, GapClosure, IntegrationFailure,
                               ValidationError)


def test_bump_values():
    assert gevrey_bump(0.5) == pytest.approx(np.exp(-4.0), rel=1e-15)
    assert gevrey_bump(0.0) == 0.0
    assert gevrey_bump(1.0) == 0.0
    assert gevrey_bump(-0.2) == 0.0
    assert gevrey_bump(1.3) == 0.0
    s = np.linspace(0.0, 1.0, 101)
    np.testing.assert_allclose(gevrey_bump(s), gevrey_bump(1.0 - s), atol=1e-18)


def test_scalar_bump_matches_array_bits():
    rng = np.random.default_rng(11)
    s = np.concatenate([np.linspace(0.0, 1.0, 100_001)[1:-1],
                        rng.random(20_000),
                        [1e-3, 0.5, 1.0 - 1e-3, 5e-324, 1.0 - 2.0 ** -53]])
    scalar = [gevrey_bump(float(v)) for v in s]
    assert all(type(v) is float for v in scalar)
    with np.errstate(over="ignore"):  # -1 / (5e-324 (1 - 5e-324)) is -inf
        array = gevrey_bump(s)
    assert np.array(scalar).tobytes() == array.tobytes()

    edges = [0.0, 1.0, -0.2, 1.3, np.nan, np.inf, -np.inf]
    for v in edges + [0, 1]:
        got = gevrey_bump(v)
        assert type(got) is float and got == 0.0
        assert np.float64(got).tobytes() == gevrey_bump(np.array([v])).tobytes()
    for v in (np.float64(0.25), np.array(0.25)):
        got = gevrey_bump(v)
        assert type(got) is float
        assert np.float64(got).tobytes() == gevrey_bump(np.array([0.25])).tobytes()


def test_bump_integral_dual_route():
    eta = bump_integral()
    assert eta == pytest.approx(7.0299e-3, abs=1e-6)
    # independent fixed-grid route
    s = np.linspace(0.0, 1.0, 40001)
    eta_simpson = simpson(gevrey_bump(s), x=s)
    assert eta == pytest.approx(eta_simpson, abs=1e-10)
    assert eta == pytest.approx(0.007029858406609657, abs=1e-12)


def _two_level(tau, delta=1.0, coupling=0.25):
    def h(s):
        return np.array([[delta * (s - 0.5), coupling],
                         [coupling, -delta * (s - 0.5)]], dtype=complex)
    return TimeDependentHamiltonian(dimension=2, evaluator=h, tau=tau)


def test_hamiltonian_validation():
    with pytest.raises(ValidationError):
        TimeDependentHamiltonian(1, lambda s: np.eye(1), 1.0)
    for tau in (0.0, -1.0, np.nan, np.inf):
        with pytest.raises(ValidationError):
            TimeDependentHamiltonian(2, lambda s: np.eye(2), tau)
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
    for s in (0.0, 1e-4, 0.37, 0.82, 1.0):
        np.testing.assert_allclose(numeric.dh_ds(s), dh(s), atol=1e-9)


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
                                    tau)


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

    def h(t):
        return np.broadcast_to(h0, (t.size, 3, 3))

    psi, steps = evolve(hermitian(h), psi0, t0, t1, 1e-12)
    assert psi.shape == (3,)
    np.testing.assert_allclose(psi, u @ psi0, rtol=0.0, atol=1e-10)
    # commuting steps: the first doubling already agrees
    assert steps == 64 + 128
    cols = rng.normal(size=(3, 2)) + 1j * rng.normal(size=(3, 2))
    out, _ = evolve(hermitian(h), cols, t0, t1, 1e-12)
    assert out.shape == (3, 2)
    np.testing.assert_allclose(out, u @ cols, rtol=0.0, atol=1e-10)


def test_evolve_matches_dop853_for_time_dependent_three_level():
    rng = np.random.default_rng(5)
    a, b, c = (rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
               for _ in range(3))
    h0, h1, h2 = a + a.conj().T, b + b.conj().T, c + c.conj().T

    def h_at(t):
        # non-commuting terms, so the commutator step matters
        return h0 + np.sin(2.0 * t) * h1 + t ** 2 * h2

    def h(t):
        return np.stack([h_at(ti) for ti in t])

    t0, t1 = -0.4, 1.3
    sol = solve_ivp(lambda t, y: (-1j * h_at(t) @ y.reshape(3, 3)).ravel(),
                    (t0, t1), np.eye(3, dtype=complex).ravel(),
                    method="DOP853", rtol=1e-13, atol=1e-15)
    oracle = sol.y[:, -1].reshape(3, 3)
    u, _ = evolve(hermitian(h), np.eye(3), t0, t1, 1e-12)
    np.testing.assert_allclose(u, oracle, rtol=0.0, atol=1e-10)
    np.testing.assert_allclose(u @ u.conj().T, np.eye(3), atol=1e-12)


def _hermitian_stack(rng, n, d, scale):
    a = rng.normal(size=(n, d, d)) + 1j * rng.normal(size=(n, d, d))
    return scale * (a + a.conj().transpose(0, 2, 1))


def _pauli(m):
    """(a0, a) with m = a0 I + a.sigma for a stack of Hermitian 2x2 matrices."""
    a0 = 0.5 * (m[:, 0, 0] + m[:, 1, 1]).real
    a = np.stack([m[:, 1, 0].real, m[:, 1, 0].imag,
                  0.5 * (m[:, 0, 0] - m[:, 1, 1]).real], axis=1)
    return a0, a


@pytest.mark.parametrize("n", [1, 2, 7, 64])
def test_two_level_closed_form_matches_eigh(n):
    rng = np.random.default_rng(n)
    k = _hermitian_stack(rng, n, 2, 0.7)
    k[n // 2] = 0.0                       # a zero step: r = 0
    closed = _two_level_product(*_pauli(k))
    np.testing.assert_allclose(closed, exp_product(k), rtol=0.0, atol=1e-14)
    if n <= 7:
        # ordered product, last step leftmost
        oracle = np.eye(2)
        for step in k:
            oracle = expm(-1j * step) @ oracle
        np.testing.assert_allclose(closed, oracle, rtol=0.0, atol=1e-13)


def _driven_two_level(t):
    """Non-commuting, time-dependent H = a0 I + a.sigma as Pauli components."""
    t = np.asarray(t, dtype=float)
    a = np.stack([0.8 * np.cos(1.7 * t), 0.5 * np.sin(t ** 2),
                  0.3 + 0.6 * t], axis=-1)
    return 0.2 * np.sin(3.0 * t), a


def _dense(a0, a):
    """The (n, 2, 2) stack a0 I + a.sigma."""
    x, y, z = a[..., 0], a[..., 1], a[..., 2]
    return np.stack([np.stack([a0 + z, x - 1j * y], axis=-1),
                     np.stack([x + 1j * y, a0 - z], axis=-1)], axis=-2)


def test_two_level_and_hermitian_kernels_agree():
    t0, t1 = -0.7, 2.2
    u2, steps2 = evolve(two_level(_driven_two_level), np.eye(2), t0, t1, 1e-12)
    uh, stepsh = evolve(hermitian(lambda t: _dense(*_driven_two_level(t))),
                        np.eye(2), t0, t1, 1e-12)
    np.testing.assert_allclose(u2, uh, rtol=0.0, atol=1e-12)
    assert steps2 == stepsh
    sol = solve_ivp(
        lambda t, y: (-1j * _dense(*_driven_two_level(t)) @ y.reshape(2, 2)).ravel(),
        (t0, t1), np.eye(2, dtype=complex).ravel(), method="DOP853",
        rtol=1e-13, atol=1e-15)
    oracle = sol.y[:, -1].reshape(2, 2)
    np.testing.assert_allclose(u2, oracle, rtol=0.0, atol=1e-10)
    np.testing.assert_allclose(uh, oracle, rtol=0.0, atol=1e-10)


@pytest.mark.parametrize("extra, tail", [(0, (2,)), (0, (2, 3)), (1, (2, 2)),
                                         (0, (2, 2, 2)), (0, (3, 3))],
                         ids=["vectors", "non-square", "count", "4d",
                              "dimension"])
def test_hermitian_kernel_rejects_wrong_shape(extra, tail):
    # a (3, 3) step product for a 2-state y0 is refused by the driver
    def h(t):
        return np.zeros((t.size + extra,) + tail)

    with pytest.raises(ValidationError):
        evolve(hermitian(h), [1.0, 0.0], 0.0, 1.0, 1e-10)


def test_evolve_rejects_non_finite_hamiltonian():
    def h(t):
        return np.full((t.size, 2, 2), np.nan, dtype=complex)

    with pytest.raises(IntegrationFailure):
        evolve(hermitian(h), [1.0, 0.0], 0.0, 1.0, 1e-10)


def test_two_level_rejects_non_finite_components():
    def h(t):
        return np.full(t.size, np.nan), np.full((t.size, 3), np.nan)

    with pytest.raises(IntegrationFailure):
        evolve(two_level(h), [1.0, 0.0], 0.0, 1.0, 1e-10)


def test_static_hamiltonian_phases():
    # constant H: the frame propagator is exactly diag(exp(-i E_j tau))
    h0 = np.array([[0.3, 0.1], [0.1, -0.2]], dtype=complex)
    system = TimeDependentHamiltonian(2, lambda s: h0, tau=3.0)
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


def test_reduced_ignores_untracked_degeneracy():
    # levels 2 and 3 stay degenerate, but only levels 0 and 1 are tracked
    def h(s):
        m = np.diag([0.0, 1.0, 3.0, 3.0]).astype(complex)
        m[0, 1] = m[1, 0] = 0.1 * np.sin(3.0 * s)
        return m

    system = TimeDependentHamiltonian(4, h, 2.0)
    red = propagate(system, 2, mode="reduced")
    full = propagate(system, 2, mode="full")
    assert red.unitary.shape == (2, 2)
    assert full.leakage == 0.0
    assert np.max(np.abs(red.unitary - full.unitary[:2, :2])) < 1e-6


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


# --- batched sample routes -------------------------------------------------


def _crossing(tau):
    # levels 1 and 2 cross at s = 0.513, between samples, in a complex basis;
    # level 0 couples to level 3
    q, _ = np.linalg.qr(np.random.default_rng(11).normal(size=(4, 4))
                        + 1j * np.random.default_rng(12).normal(size=(4, 4)))

    def h(s):
        e = np.diag([-2.0, 0.3 * (s - 0.513), -0.3 * (s - 0.513), 2.0 + s])
        e[0, 3] = e[3, 0] = 0.2 * np.sin(2.0 * s)
        return q @ e @ q.conj().T
    return TimeDependentHamiltonian(4, h, tau)


def _fix_gauge_oracle(prev_v, w, v):
    """One sample at a time: assignment on |overlap|, then real positive
    overlaps.  Returns the re-gauged (w, v) and the permutation."""
    row, col = linear_sum_assignment(-np.abs(prev_v.conj().T @ v))
    perm = np.empty_like(col)
    perm[row] = col
    v, w = v[:, perm], w[perm]
    diag = np.einsum("ij,ij->j", prev_v.conj(), v)
    return w, v / (diag / np.abs(diag)), perm


def test_stack_matches_per_sample_h():
    system = _four_level(6.0)
    s = np.linspace(0.0, 1.0, 9)
    stacked = system.stack(s)
    assert stacked.shape == (9, 4, 4)
    assert stacked.tobytes() == np.stack([system.h(si) for si in s]).tobytes()
    assert system.stack(s.reshape(3, 3)).shape == (3, 3, 4, 4)


def test_stack_names_first_non_hermitian_sample():
    def h(s):
        return np.array([[0.0, 1.0], [1.0 + (s > 0.4), 0.0]])

    system = TimeDependentHamiltonian(2, h, 1.0)
    with pytest.raises(ValidationError, match=r"H\(0\.5\)"):
        system.stack(np.linspace(0.0, 1.0, 5))


SHAPE_3 = r"H\(0\.5\) has shape \(3, 3\), need \(2, 2\)"


@pytest.mark.parametrize("evaluator, s, message", [
    (lambda s: np.eye(3), [0.5, 0.75, 1.0], SHAPE_3),
    (lambda s: np.eye(2 + (s > 0.4)), [0.0, 0.25, 0.5, 0.75], SHAPE_3),
    (lambda s: np.array([[0.0, np.nan if s > 0.4 else 1.0], [1.0, 0.0]]),
     [0.0, 0.25, 0.5, 0.75], r"H\(0\.5\) is not a finite Hermitian matrix"),
])
def test_stack_names_first_bad_sample(evaluator, s, message):
    system = TimeDependentHamiltonian(2, evaluator, 1.0)
    with pytest.raises(ValidationError, match=message):
        system.stack(np.array(s))


def test_batched_derivative_and_generator_match_scalar_calls():
    system = _four_level(6.0)
    numeric = TimeDependentHamiltonian(4, system.evaluator, 6.0)
    s = np.array([0.0, 5e-4, 0.3, 0.9995, 1.0])   # shifted stencils at the ends
    batch = numeric.dh_ds(s)
    assert batch.tobytes() == np.stack([numeric.dh_ds(si) for si in s]).tobytes()
    m = frame_generator(numeric, s)
    assert m.tobytes() == np.stack([frame_generator(numeric, si)
                                    for si in s]).tobytes()


def test_degenerate_gap_names_first_sample_and_pair():
    def h(s):
        return np.diag([0.0, 1.0, 2.0 + (s > 0.3), 2.0 + 1e-12]).astype(complex)

    system = TimeDependentHamiltonian(4, h, 1.0)
    with pytest.raises(DegenerateGap, match=r"levels 2,3 .* s=0\.25"):
        frame_generator(system, np.array([0.5, 0.25, 0.1]))


@pytest.mark.parametrize("make", [_four_level, _crossing])
def test_sample_chain_matches_per_sample_gauge(make):
    system = make(5.0)
    traj = build_frame_trajectory(system)
    energies, vectors = np.empty_like(traj.energies), np.empty_like(traj.vectors)
    energies[0], vectors[0] = np.linalg.eigh(system.h(0.0))
    moved = 0
    for i, si in enumerate(traj.s_samples[1:], start=1):
        w, v = np.linalg.eigh(system.h(si))
        energies[i], vectors[i], perm = _fix_gauge_oracle(vectors[i - 1], w, v)
        moved += np.any(perm != np.arange(4))
    assert (moved > 0) == (make is _crossing)
    np.testing.assert_allclose(traj.energies, energies, rtol=0.0, atol=1e-14)
    np.testing.assert_allclose(traj.vectors, vectors, rtol=0.0, atol=1e-14)

    smid, (w_mid, v_mid) = _midpoint_frames(system, traj)
    moved = 0
    for i, si in enumerate(smid):
        w, v, perm = _fix_gauge_oracle(traj.vectors[i],
                                       *np.linalg.eigh(system.h(si)))
        moved += np.any(perm != np.arange(4))
        np.testing.assert_allclose(w_mid[i], w, rtol=0.0, atol=1e-14)
        np.testing.assert_allclose(v_mid[i], v, rtol=0.0, atol=1e-14)
    assert (moved > 0) == (make is _crossing)


def _counting(system):
    calls = [0]

    def h(s):
        calls[0] += 1
        return system.evaluator(s)
    return TimeDependentHamiltonian(system.dimension, h, system.tau), calls


def test_evaluator_call_counts():
    n = 129
    system, calls = _counting(_two_level(6.0))
    full = propagate(system, 2, mode="full", n_samples=n)
    assert calls[0] == n + 2 * full.steps
    calls[0] = 0
    propagate(system, 2, mode="reduced", n_samples=n)
    assert calls[0] == n + 6 * (n - 1)


# --- input checks ----------------------------------------------------------


@pytest.mark.parametrize("dimension", [2.5, np.nan, np.inf, "two"])
def test_dimension_must_be_integral(dimension):
    with pytest.raises(ValidationError):
        TimeDependentHamiltonian(dimension, lambda s: np.eye(2), 1.0)


def test_counts_must_be_integral():
    system = _two_level(4.0)
    for d in (1.5, np.nan, np.inf):
        with pytest.raises(ValidationError):
            propagate(system, d)
    for n in (2.5, np.nan, np.inf):
        with pytest.raises(ValidationError):
            propagate(system, 2, n_samples=n)
        with pytest.raises(ValidationError):
            build_frame_trajectory(system, n_samples=n)
    assert TimeDependentHamiltonian(2.0, system.evaluator, 4.0).dimension == 2
    assert propagate(system, 2.0, n_samples=17.0).steps == 16
