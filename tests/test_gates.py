"""Gate calibrations: single-qubit phases and the six-state entangling model."""

import json
import math

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from fieldforge.adiabatic import bump_integral, gevrey_bump
from fieldforge.errors import (DimensionMismatch, NoClosure,
                               SolvabilityViolated, ValidationError)
from fieldforge.fieldtheory import effective_potential
from fieldforge.gates import (BASIS_LABELS, WELL_GRID, WELL_SAMPLES,
                              TwoQubitSchedule, WellPairTrajectory,
                              calibrate_entangling,
                              calibrate_x_gate, calibrate_z_gate,
                              coefficients_from_wells, entangling_check,
                              extract_logical, gate_infidelity,
                              propagate_two_qubit, tune_closure, x_gate_phase,
                              z_gate_beta)
from fieldforge.potentials import Grid, QESDoubleWell, Tabulated
from fieldforge.schrodinger import solve_bound_states
from fieldforge.units import natural

ETA = bump_integral()


@pytest.mark.parametrize("theta", [np.pi / 2.0, np.pi, 0.3])
def test_z_gate_beta_formula(theta):
    res = z_gate_beta(theta, lambda_pt=2.0, tau=100.0, alpha0=1.0)
    assert res.beta == pytest.approx(-theta / (100.0 * ETA), rel=1e-12)
    assert res.achieved_phase == pytest.approx(-theta, abs=1e-10)
    assert res.residual < 1e-10


def test_z_gate_phase_is_the_solving_closed_form():
    # the reported phase is the product that solved beta, so it meets -theta
    # to within an ulp of 2 pi
    for theta in np.linspace(0.0, 2.0 * np.pi, 402)[1:-1]:
        res = z_gate_beta(float(theta))
        assert abs(res.achieved_phase + theta) <= 1e-15
        assert res.residual == abs(res.achieved_phase + theta)
    cal = calibrate_z_gate(0.3)
    assert json.loads(cal.to_json()) == cal.record()


def test_z_calibration_record():
    cal = calibrate_z_gate(np.pi / 3.0)
    assert cal.gate == "z"
    assert cal.parameter_name == "beta"
    assert cal.achieved_phases[0] == pytest.approx(-np.pi / 3.0, abs=1e-10)
    assert cal.infidelity < 1e-12
    record = json.loads(cal.to_json())
    assert record["gate"] == "z"
    assert record["beta"] == cal.parameter_value
    assert record["target"] == pytest.approx(np.pi / 3.0)


def test_x_gate_duration_analytic():
    g, beta = 0.01, 50.0
    cal = calibrate_x_gate(g, beta, target=math.pi)
    analytic = math.pi * (1.0 + g) / (2.0 * g * (1.0 + 2.0 * beta * ETA))
    assert cal.parameter_value == pytest.approx(analytic, rel=1e-12)
    assert cal.parameter_value == pytest.approx(93.160157423686442, rel=1e-12)
    assert abs(cal.achieved_phases[0] - math.pi) < 1e-8
    assert cal.residual < 1e-8


def test_x_gate_without_idle_phase():
    g, beta = 0.01, 50.0
    cal = calibrate_x_gate(g, beta, target=math.pi, include_idle=False)
    analytic = math.pi * (1.0 + g) / (4.0 * g * beta * ETA)
    assert cal.parameter_value == pytest.approx(analytic, rel=1e-12)
    # excess-only phase needs a much longer hold than the full splitting
    assert cal.parameter_value > calibrate_x_gate(g, beta).parameter_value


def test_x_gate_phase_linear_in_tau():
    a = x_gate_phase(0.01, 50.0, 10.0)
    b = x_gate_phase(0.01, 50.0, 20.0)
    assert b == pytest.approx(2.0 * a, rel=1e-12)


def test_solvability_floor():
    with pytest.raises(SolvabilityViolated):
        x_gate_phase(0.01, -1.0, 10.0)
    # b dips below 1 only by ~beta e^-4; positive beta never violates
    assert x_gate_phase(0.01, 1.0, 10.0) > 0.0


def test_doublet_parity_selection():
    # dV/db is even in x while the doublet states have opposite parity, so
    # barrier modulation cannot couple them: the X gate is diagonal in the
    # solvable doublet basis
    well = QESDoubleWell(0.01, 1.0)
    states = solve_bound_states(well, grid=Grid.symmetric(20.0, 8001),
                                max_states=2)
    x = states.grid.x
    g = well.g
    ch2 = np.cosh(x) ** 2
    den = 1.0 + g * ch2
    dv_db = -8.0 * well.b * (g + 2.0) / den \
        + 4.0 * (2.0 * well.b + 1.0) * (1.0 + g) / den ** 2
    coupling = np.trapezoid(states.wavefunctions[0] * dv_db
                            * states.wavefunctions[1], x)
    assert abs(coupling) < 1e-8


def _bump_schedule(n=81, tau=40.0, amp_b=0.3, amp_c=-0.2, amp_d=0.25):
    s = np.linspace(0.0, 1.0, n)
    bump = gevrey_bump(s)
    return TwoQubitSchedule(s, amp_b * bump, amp_c * bump, amp_d * bump,
                            tau=tau)


def test_schedule_validation():
    s = np.linspace(0.0, 1.0, 11)
    flat = np.ones(11)
    with pytest.raises(ValidationError):
        TwoQubitSchedule(s, flat, 0.0 * flat, 0.0 * flat, tau=1.0)
    with pytest.raises(ValidationError):
        TwoQubitSchedule(s, 1j * gevrey_bump(s), 0.0 * s, 0.0 * s, tau=1.0)
    with pytest.raises(ValidationError):
        TwoQubitSchedule(s[::-1], 0.0 * s, 0.0 * s, 0.0 * s, tau=1.0)


@pytest.mark.parametrize("field,bad", [
    ("tau", np.nan), ("tau", np.inf), ("tau", 0.0), ("z", np.nan),
    ("z", np.inf), ("z", -1.0), ("b", np.nan), ("c", np.inf), ("d", np.nan)])
def test_schedule_rejects_non_finite(field, bad):
    s = np.linspace(0.0, 1.0, 11)
    args = {"b": 0.3 * gevrey_bump(s), "c": 0.0 * s, "d": 0.0 * s,
            "tau": 1.0, "z": 1.0}
    if field in "bcd":
        args[field] = args[field].copy()
        args[field][5] = bad        # interior sample: endpoints still vanish
    else:
        args[field] = bad
    with pytest.raises(ValidationError):
        TwoQubitSchedule(s, **args)


@pytest.mark.parametrize("field,bad", [
    ("depth", np.nan), ("width", np.nan), ("tau", np.nan), ("tau", np.inf),
    ("depth", -1.0), ("ell_min", np.nan), ("ell_max", np.nan),
    ("ell_max", np.inf)])
def test_well_pair_rejects_non_finite(field, bad):
    args = {"ell_max": 8.0, "ell_min": 2.1, "depth": 4.5, "width": 0.7,
            "tau": 40.0}
    args[field] = bad
    with pytest.raises(ValidationError):
        WellPairTrajectory(**args)


def test_schedule_integrals_and_stretch():
    sched = _bump_schedule()
    eta_num = np.trapezoid(gevrey_bump(sched.s_samples), sched.s_samples)
    assert sched.theta_x() == pytest.approx(40.0 * 0.3 * eta_num, rel=1e-12)
    doubled = sched.stretched(2.0)
    assert doubled.theta_x() == pytest.approx(2.0 * sched.theta_x(), rel=1e-12)
    assert doubled.int_c() == pytest.approx(2.0 * sched.int_c(), rel=1e-12)


def test_tune_closure_minimal_winding():
    sched = _bump_schedule()
    z = tune_closure(sched)
    theta = sched.stretched(z).theta_x()
    k = round(theta / (2.0 * math.pi))
    assert k >= 1
    assert theta == pytest.approx(2.0 * math.pi * k, abs=1e-10)
    # minimality: one less winding would need z below z_min
    assert (k - 1) * 2.0 * math.pi / abs(sched.theta_x()) < 1.0
    z5 = tune_closure(sched, z_min=5.0)
    assert z5 >= 5.0


def test_tune_closure_rejects_flat_b():
    s = np.linspace(0.0, 1.0, 21)
    sched = TwoQubitSchedule(s, 0.0 * s, gevrey_bump(s), 0.0 * s, tau=1.0)
    with pytest.raises(NoClosure):
        tune_closure(sched)


def test_six_state_propagator_against_ode():
    # time-ordered integration of the piecewise-linear H(t); the trapezoid
    # rule inside the analytic route integrates that interpolant exactly,
    # and the generators commute, so both routes must agree
    sched = _bump_schedule(n=41, tau=7.0)
    u_analytic = propagate_two_qubit(sched)

    def h_of(t):
        s = t / sched.tau
        b = np.interp(s, sched.s_samples, sched.b)
        c = np.interp(s, sched.s_samples, sched.c)
        d = np.interp(s, sched.s_samples, sched.d)
        h = np.zeros((6, 6), dtype=complex)
        h[0, 5] = h[5, 0] = b
        h[3, 4] = h[4, 3] = b
        h[1, 1] = c
        h[2, 2] = d
        return h

    def rhs(t, y):
        return (-1j * h_of(t) @ y.reshape(6, 6)).ravel()

    sol = solve_ivp(rhs, (0.0, sched.tau), np.eye(6, dtype=complex).ravel(),
                    method="DOP853", rtol=1e-11, atol=1e-13)
    u_ode = sol.y[:, -1].reshape(6, 6)
    assert np.max(np.abs(u_analytic - u_ode)) < 1e-8


def test_extract_logical_phases():
    phases = np.array([0.0, 0.7, -1.2, 0.0, 0.4, 0.9])
    u6 = np.diag(np.exp(1j * phases))
    u4, leakage, alpha, beta = extract_logical(u6)
    assert leakage == 0.0
    assert alpha == pytest.approx(0.7)
    assert beta == pytest.approx(-1.2)
    with pytest.raises(DimensionMismatch):
        extract_logical(np.eye(4))


def test_entangling_check():
    assert entangling_check(0.7, -1.2)
    assert not entangling_check(0.8, -0.8)
    assert not entangling_check(np.pi, np.pi)


def test_gate_infidelity():
    u = np.diag([1.0, np.exp(0.4j)])
    assert gate_infidelity(u, u) == pytest.approx(0.0, abs=1e-15)
    assert gate_infidelity(np.exp(0.3j) * u, u) == pytest.approx(0.0, abs=1e-15)
    phi = 0.8
    got = gate_infidelity(np.diag([1.0, np.exp(1j * phi)]), np.eye(2))
    assert got == pytest.approx(np.sin(phi / 2.0) ** 2, rel=1e-12)
    with pytest.raises(DimensionMismatch):
        gate_infidelity(np.eye(2), np.eye(3))


def test_calibrate_entangling_closure():
    sched = _bump_schedule()
    cal = calibrate_entangling(sched)
    tuned = sched.stretched(cal.parameter_value)
    assert cal.gate == "entangling"
    assert cal.residual < 1e-9
    assert cal.details["leakage"] < 1e-12
    assert cal.infidelity < 1e-12
    alpha, beta, theta = cal.achieved_phases
    assert math.remainder(alpha - (-tuned.int_c()), 2.0 * math.pi) \
        == pytest.approx(0.0, abs=1e-9)
    assert math.remainder(beta - (-tuned.int_d()), 2.0 * math.pi) \
        == pytest.approx(0.0, abs=1e-9)
    assert cal.details["entangling"]


def test_well_pair_coefficients():
    traj = WellPairTrajectory(ell_max=8.0, ell_min=2.1, depth=4.5, width=0.7,
                              tau=40.0)
    sched = coefficients_from_wells(traj, lam=0.1, m=1.0)
    mid = len(sched.b) // 2
    assert sched.b[mid] > 1e3 * abs(sched.b[0])      # tunneling on at approach
    assert sched.c[mid] < 0.0 < sched.d[mid]
    # c + d is the pair interaction energy: linear in lam at small lam
    weak = coefficients_from_wells(traj, lam=1e-3, m=1.0)
    ratio = np.max(np.abs(sched.c + sched.d)) / np.max(np.abs(weak.c + weak.d))
    assert ratio == pytest.approx(100.0, rel=0.05)


def _pair_coefficients(traj, lam, m, samples, attr_product):
    """b, c, d solved directly at each schedule index in samples.

    attr_product(v_attr, rho) is the symmetric Toeplitz product of the
    attractive kernel with a density.
    """
    grid = Grid.symmetric(traj.ell_max / 2.0 + 9.0 * traj.width, WELL_GRID)
    x, dx = grid.x, grid.dx
    contact, v_attr = effective_potential(np.arange(WELL_GRID) * dx, m, lam)
    iso = Tabulated(x, -traj.depth * np.exp(-x ** 2 / (2.0 * traj.width ** 2)),
                    units=natural(m))
    e_iso = solve_bound_states(iso, grid=grid, max_states=1,
                               tail_tol=1e-5).energies[0]
    s_all = np.linspace(0.0, 1.0, WELL_SAMPLES)
    out = []
    for i in samples:
        ell = traj.separation(s_all[i])
        v = -traj.depth * (
            np.exp(-(x - ell / 2.0) ** 2 / (2.0 * traj.width ** 2))
            + np.exp(-(x - -ell / 2.0) ** 2 / (2.0 * traj.width ** 2)))
        states = solve_bound_states(Tabulated(x, v, units=natural(m)),
                                    grid=grid, max_states=2, tail_tol=1e-5)
        e_sym, e_anti = states.energies[:2]
        psi_sym, psi_anti = states.wavefunctions[:2]
        rho_l = ((psi_sym + psi_anti) / np.sqrt(2.0)) ** 2
        rho_r = ((psi_sym - psi_anti) / np.sqrt(2.0)) ** 2
        e_bar = (e_sym + e_anti) / 2.0
        pair = (contact * np.trapezoid(rho_l * rho_r, x)
                + dx ** 2 * float(rho_l @ attr_product(v_attr, rho_r)))
        out.append(((e_anti - e_sym) / 2.0, pair + (e_bar - e_iso),
                    e_iso - e_bar))
    return np.array(out).T


def _fft_product(v_attr, rho):
    n_fft = 2 * WELL_GRID - 1
    spectrum = np.fft.rfft(np.concatenate((v_attr, v_attr[-1:0:-1])))
    return np.fft.irfft(spectrum * np.fft.rfft(rho, n=n_fft),
                        n=n_fft)[:WELL_GRID]


def test_well_schedule_mirror_is_exact():
    # the mirrored half is only exact while 1 - s_i is the sample s_(n-1-i)
    s = np.linspace(0.0, 1.0, WELL_SAMPLES)
    assert np.array_equal(s[::-1], 1.0 - s)
    traj = WellPairTrajectory(ell_max=8.0, ell_min=2.1, depth=4.5, width=0.7,
                              tau=40.0)
    sched = coefficients_from_wells(traj, lam=0.1, m=1.0)
    mirrored = range((WELL_SAMPLES + 1) // 2, WELL_SAMPLES)
    direct = _pair_coefficients(traj, 0.1, 1.0, mirrored, _fft_product)
    for got, want in zip((sched.b, sched.c, sched.d), direct):
        assert got[list(mirrored)].tobytes() == want.tobytes()


@pytest.mark.parametrize("lam", [0.1, 2.0])
def test_well_coefficients_match_full_schedule(lam):
    from scipy.linalg import matmul_toeplitz

    traj = WellPairTrajectory(ell_max=8.0, ell_min=2.1, depth=4.5, width=0.7,
                              tau=40.0)
    sched = coefficients_from_wells(traj, lam=lam, m=1.0)
    b, c, d = _pair_coefficients(
        traj, lam, 1.0, range(WELL_SAMPLES),
        lambda v, rho: matmul_toeplitz((v, v), rho))
    assert sched.b.tobytes() == b.tobytes()
    assert sched.d.tobytes() == d.tobytes()
    # numpy's and scipy's FFTs may round differently
    np.testing.assert_allclose(sched.c, c, rtol=1e-14, atol=0.0)


def test_splitting_decay_rate_matches_wkb():
    # half-splitting b(l) ~ exp(-kappa l) with kappa = sqrt(2 m |E_iso|)
    depth, width = 4.5, 0.7
    grid = Grid.symmetric(4.0 + 9.0 * width, 701)
    x = grid.x
    iso = Tabulated(x, -depth * np.exp(-x ** 2 / (2.0 * width ** 2)),
                    units=natural(1.0))
    e_iso = solve_bound_states(iso, grid=grid, max_states=1,
                               tail_tol=1e-5).energies[0]
    kappa = np.sqrt(2.0 * abs(e_iso))
    seps = np.array([3.5, 4.0, 4.5, 5.0, 5.5])
    halves = []
    for ell in seps:
        v = -depth * (np.exp(-(x - ell / 2.0) ** 2 / (2.0 * width ** 2))
                      + np.exp(-(x + ell / 2.0) ** 2 / (2.0 * width ** 2)))
        states = solve_bound_states(Tabulated(x, v, units=natural(1.0)),
                                    grid=grid, max_states=2, tail_tol=1e-5)
        halves.append((states.energies[1] - states.energies[0]) / 2.0)
    slope = np.polyfit(seps, np.log(halves), 1)[0]
    assert -slope == pytest.approx(kappa, rel=5e-3)


def test_basis_labels_order():
    assert BASIS_LABELS[:4] == ("0101", "0110", "1001", "1010")
    assert len(set(BASIS_LABELS)) == 6
