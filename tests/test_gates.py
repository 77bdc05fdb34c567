"""Gate calibrations: single-qubit phases and the six-state entangling model."""

import json
import math

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from fieldforge.adiabatic import gevrey_bump
from fieldforge.errors import (DimensionMismatch, NoClosure,
                               SolvabilityViolated, ValidationError)
from fieldforge.gates import (BASIS_LABELS, TwoQubitSchedule,
                              WellPairTrajectory, calibrate_entangling,
                              calibrate_x_gate, calibrate_z_gate,
                              coefficients_from_wells, entangling_check,
                              eta_constant, extract_logical, gate_infidelity,
                              propagate_two_qubit, tune_closure, x_gate_phase,
                              z_gate_beta)
from fieldforge.potentials import Grid, QESDoubleWell, Tabulated
from fieldforge.schrodinger import solve_bound_states
from fieldforge.units import natural

ETA = eta_constant()


@pytest.mark.parametrize("theta", [np.pi / 2.0, np.pi, 0.3])
def test_z_gate_beta_formula(theta):
    res = z_gate_beta(theta, lambda_pt=2.0, tau=100.0, alpha0=1.0)
    assert res.beta == pytest.approx(-theta / (100.0 * ETA), rel=1e-12)
    assert res.achieved_phase == pytest.approx(-theta, abs=1e-10)
    assert res.residual < 1e-10


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
