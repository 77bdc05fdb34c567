"""Acceptance gate: one test per release criterion, one printed verdict each.

Every test prints a single PASS/FAIL line on the real stdout (bypassing
pytest capture) with the measured numbers and wall time, then asserts.
Tolerances are pinned; oracles are recomputed here, independently of the
library code under test.
"""
import math
import time

import numpy as np
from scipy.integrate import simpson
from scipy.linalg import expm

from fieldforge.potentials import Grid, PoschlTeller, QESDoubleWell, SquareBarrier
from fieldforge.schrodinger import (barrier_wronskian_closed_form,
                                    dressed_propagator, solve_bound_states,
                                    wronskian)
from fieldforge.passage import (TwoLevelSweep, check_conditions,
                                propagate_sweep, rwa_error_bound,
                                scale_parameters)
from fieldforge.chirp import ChirpSource, chirp_spectrum, g_component, region_bound
from fieldforge.adiabatic import (TimeDependentHamiltonian, bump_integral,
                                  gevrey_bump, propagate)
from fieldforge.gates import (WellPairTrajectory, calibrate_entangling,
                              calibrate_x_gate, coefficients_from_wells,
                              x_gate_phase)
from fieldforge.fieldtheory import (creation_probabilities, local_energy_probe,
                                    mode_decomposition)
from fieldforge.circuits import (GateSpec, LogicalCircuit, ideal_unitary,
                                 vacuum_amplitude)
from fieldforge.compiler import (CompileParams, compile, infidelity_budget,
                                 native_entangling_phases, simulate_schedule)
from fieldforge.measure import hadamard_test


def _report(capsys, name, ok, detail):
    # capsys.disabled() bypasses pytest's fd-level capture so the verdict
    # lands on the real terminal even on a passing run
    verdict = "PASS" if ok else "FAIL"
    with capsys.disabled():
        print(f"[acceptance] {name}: {verdict}  ({detail})", flush=True)
    return ok


def test_c01_interface_constant(capsys):
    t0 = time.perf_counter()
    eta = bump_integral()
    # independent route: Simpson on a uniform grid; the integrand vanishes
    # to all orders at both endpoints
    s = np.linspace(0.0, 1.0, 200001)
    with np.errstate(divide="ignore"):
        f = np.exp(-1.0 / (s * (1.0 - s)))
    f[0] = f[-1] = 0.0
    ref = simpson(f, x=s)
    elapsed = time.perf_counter() - t0
    ok = (abs(eta - 7.0299e-3) < 1e-6
          and abs(eta - ref) < 1e-9 * eta + 1e-12
          and elapsed < 1.0)
    assert _report(capsys, "C01 interface constant", ok,
                   f"eta={eta:.12e}, |eta-simpson|={abs(eta - ref):.1e}, "
                   f"|eta-7.0299e-3|={abs(eta - 7.0299e-3):.2e}, {elapsed:.2f}s")


def test_c02_x_gate_calibration(capsys):
    t0 = time.perf_counter()
    g, beta = 0.01, 50.0
    eta = bump_integral()
    cal = calibrate_x_gate(g, beta, math.pi)
    tau_analytic = math.pi * (1.0 + g) / (2.0 * g * (1.0 + 2.0 * beta * eta))
    ok = abs(cal.parameter_value - tau_analytic) / tau_analytic < 1e-6
    ok &= abs(x_gate_phase(g, beta, cal.parameter_value, include_idle=True)
              - math.pi) < 1e-8
    # idle-free convention has its own closed form
    cal_ex = calibrate_x_gate(g, beta, math.pi, include_idle=False)
    tau_ex = math.pi * (1.0 + g) / (4.0 * g * beta * eta)
    ok &= abs(cal_ex.parameter_value - tau_ex) / tau_ex < 1e-6
    # the 96.1602 reference tabulation sits a known ~3% away from the
    # idle-inclusive closed form; record the gap rather than hide it
    dev = abs(cal.parameter_value - 96.1602) / 96.1602
    ok &= 0.02 < dev < 0.05
    elapsed = time.perf_counter() - t0
    ok &= elapsed < 10.0
    assert _report(capsys, "C02 x-gate calibration", ok,
                   f"tau*={cal.parameter_value:.9f} vs analytic "
                   f"{tau_analytic:.9f}, idle-free tau*={cal_ex.parameter_value:.4f}, "
                   f"{dev:.2%} from the 96.1602 tabulation, {elapsed:.2f}s")


def test_c03_bound_state_sweep(capsys):
    t0 = time.perf_counter()
    worst = 0.0
    n_checked = 0
    for alpha in (0.5, 1.0, 2.0):
        for lam in (2.0, 3.0):
            pot = PoschlTeller(alpha, lam)
            exact = pot.exact_energies()
            res = solve_bound_states(pot, grid=Grid.symmetric(20.0 / alpha, 32001))
            got = res.energies[:len(exact)]
            rel = np.abs(got - exact[:len(got)]) / np.maximum(1.0, np.abs(exact[:len(got)]))
            worst = max(worst, float(rel.max()))
            n_checked += len(got)
    for g in (0.005, 0.01, 0.02):
        for b in (1.0, 1.5, 2.0):
            well = QESDoubleWell(g, b)
            exact = well.exact_energies()
            res = solve_bound_states(well, grid=Grid.symmetric(20.0, 16001),
                                     max_states=2)
            rel = np.abs(res.energies[:2] - exact) / np.maximum(1.0, np.abs(exact))
            worst = max(worst, float(rel.max()))
            n_checked += 2
    # second-order solver: halving the step should cut the error ~4x
    pt = PoschlTeller(1.0, 2.0)
    e_coarse = solve_bound_states(pt, grid=Grid.symmetric(20.0, 2001)).energies[0]
    e_fine = solve_bound_states(pt, grid=Grid.symmetric(20.0, 4001)).energies[0]
    ratio = abs(e_coarse + 1.0) / abs(e_fine + 1.0)
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-6 and ratio >= 3.0 and elapsed < 60.0
    assert _report(capsys, "C03 bound-state sweep", ok,
                   f"{n_checked} levels, worst rel err {worst:.2e}, "
                   f"halving ratio {ratio:.2f}, {elapsed:.2f}s")


def test_c04_barrier_wronskian_and_dressing(capsys):
    t0 = time.perf_counter()
    ok = True
    worst = 0.0
    for m, v, l in [(1.0, 1.5, 1.0), (1.0, 0.5, 2.0), (2.0, 3.0, 0.7)]:
        res = wronskian(SquareBarrier(v, l, mass=m), z=-m / 2.0)
        ref = barrier_wronskian_closed_form(m, v, l)
        rel = abs(res.value - ref) / abs(ref)
        worst = max(worst, rel)
        ok &= rel < 1e-8
    prop = dressed_propagator(1.0, 1.5, 1.0)
    ok &= prop.m_eff == 2.0
    ok &= abs(prop.value - prop.closed_form) / abs(prop.closed_form) < 1e-8
    far = dressed_propagator(1.0, 1.5, 5.0)
    tail = abs(far.value - far.large_separation) / abs(far.large_separation)
    ok &= tail < 1e-6
    elapsed = time.perf_counter() - t0
    ok &= elapsed < 10.0
    assert _report(capsys, "C04 barrier wronskian / dressed propagator", ok,
                   f"worst wronskian rel {worst:.2e}, m_eff={prop.m_eff}, "
                   f"asymptotic tail dev {tail:.2e}, {elapsed:.2f}s")


def test_c05_rwa_error_bound(capsys):
    t0 = time.perf_counter()
    rng = np.random.default_rng(11)
    worst_ratio = 0.0
    ok = True
    for _ in range(20):
        w0 = rng.uniform(50.0, 150.0)
        omega_r = w0 * 1e-2 * rng.uniform(0.3, 1.0)
        band = omega_r * rng.uniform(0.5, 2.0)
        horizon = rng.uniform(10.0, 30.0)
        sweep = TwoLevelSweep(omega0=w0, Omega=omega_r, B=band, T=horizon)
        lab = propagate_sweep(sweep, frame="lab")
        rwa = propagate_sweep(sweep, frame="rwa")
        diff = float(np.linalg.norm(lab.amplitudes - rwa.amplitudes))
        bound = rwa_error_bound(omega_r, w0, band / 2.0, horizon)
        ok &= diff <= bound
        worst_ratio = max(worst_ratio, diff / bound)
    elapsed = time.perf_counter() - t0
    ok &= elapsed < 300.0
    assert _report(capsys, "C05 rotating-wave error bound", ok,
                   f"20 random sweeps, worst diff/bound {worst_ratio:.3f}, "
                   f"{elapsed:.1f}s")


def test_c06_slow_passage_ladder(capsys):
    t0 = time.perf_counter()
    ok = True
    infids = []
    for eps in (0.2, 0.1):
        sp = scale_parameters(eps)
        report = check_conditions(sp.g, sp.g, sp.B, sp.T, 1.0, sp.lam,
                                  sp.epsilon_used, C=1.0)
        ok &= report.passed
        expected = (eps, eps, eps ** 5, eps, 1.0, eps, eps)
        ok &= np.allclose(report.ratios(), expected, rtol=1e-12)
        res = propagate_sweep(TwoLevelSweep(omega0=1.0, Omega=sp.g,
                                            B=sp.B, T=sp.T))
        infid = 1.0 - res.fidelity
        ok &= infid <= 5.0 * eps
        infids.append(infid)
    elapsed = time.perf_counter() - t0
    ok &= elapsed < 600.0
    assert _report(capsys, "C06 slow-passage ladder", ok,
                   f"infidelity {infids[0]:.4f} at eps=0.2, "
                   f"{infids[1]:.4f} at eps=0.1 (caps 1.0/0.5), {elapsed:.1f}s")


def _chirp_fft_oracle(src, oversample=8.0):
    # plain Riemann sum works because the source half-weights its window edges
    w_max = src.omega0 + src.B / 2.0
    dt_max = 2.0 * np.pi / (2.0 * w_max * oversample)
    m = int(np.ceil(src.T / dt_max))
    dt = src.T / m
    n = 1 << int(np.ceil(np.log2(8 * m)))
    t0 = -src.T / 2.0
    t = t0 + dt * np.arange(m + 1)
    spec = np.fft.rfft(src(t), n=n) * dt
    omega = 2.0 * np.pi * np.fft.rfftfreq(n, d=dt)
    spec *= np.exp(-1j * omega * t0)
    return omega, spec


def test_c07_chirp_spectrum(capsys):
    t0 = time.perf_counter()
    ok = True
    out_in = []
    rels = []
    for omega0, kappa, horizon in [(30.0, 0.25, 20.0), (60.0, 0.25, 200.0)]:
        src = ChirpSource(omega0=omega0, kappa=kappa, T=horizon)
        band = src.B
        omega, spec = _chirp_fft_oracle(src)
        sel = np.abs(omega - omega0) <= 0.35 * band
        closed = chirp_spectrum(src, omega[sel])
        rel = float(np.max(np.abs(closed - spec[sel]) / np.abs(spec[sel])))
        rels.append(rel)
        ok &= rel < 1e-3
        # one-sided component against the per-region envelope; the summed
        # spectrum interferes and may exceed it in the tails, the component
        # must not
        offs = np.linspace(-2.0 * band, 2.0 * band, 1601)
        dens = band / (2.0 * np.pi) * np.abs(g_component(src, offs, +1)) ** 2
        for off, d in zip(offs, dens):
            ok &= d <= region_bound(src, off).bound * (1.0 + 1e-9)
        out = (np.abs(omega - omega0) >= 0.75 * band) \
            & (np.abs(omega - omega0) <= 2.0 * band)
        out_in.append(float(np.mean(np.abs(spec[out]) ** 2)
                            / np.mean(np.abs(spec[sel]) ** 2)))
    ok &= out_in[1] < out_in[0]
    elapsed = time.perf_counter() - t0
    ok &= elapsed < 120.0
    assert _report(capsys, "C07 chirp spectrum", ok,
                   f"in-band rel {rels[0]:.1e} (BT=100) / {rels[1]:.1e} (BT=1e4), "
                   f"out/in power {out_in[0]:.1e} -> {out_in[1]:.1e}, {elapsed:.1f}s")


def _bump_driven(tau, gamma=1.0, drive_amp=0.05):
    def h(s):
        u = s * (2.0 - s)
        drive = drive_amp * gevrey_bump(u)
        return np.array([[gamma / 2.0, drive], [drive, -gamma / 2.0]],
                        dtype=complex)
    return TimeDependentHamiltonian(dimension=2, evaluator=h, tau=tau)


def test_c08_gevrey_leakage_scaling(capsys):
    t0 = time.perf_counter()
    taus = np.geomspace(20.0, 200.0, 9)
    leaks = np.array([propagate(_bump_driven(tau), 1, mode="full").leakage
                      for tau in taus])
    # leakage ~ exp(-c tau^(1/3)) for Gevrey order 3: fit the inner exponent
    slope = float(np.polyfit(np.log(taus), np.log(-np.log(leaks)), 1)[0])
    elapsed = time.perf_counter() - t0
    ok = (abs(slope - 1.0 / 3.0) < 0.1
          and bool(np.all(np.diff(leaks) < 0))
          and elapsed < 600.0)
    assert _report(capsys, "C08 gevrey leakage scaling", ok,
                   f"fitted exponent {slope:.4f} (target 1/3 +- 0.1), "
                   f"leakage {leaks[0]:.2e} -> {leaks[-1]:.2e}, {elapsed:.1f}s")


def test_c09_entangling_calibration(capsys):
    t0 = time.perf_counter()
    traj = WellPairTrajectory(ell_max=8.0, ell_min=2.1, depth=4.5, width=0.7,
                              tau=40.0)
    sched = coefficients_from_wells(traj, lam=0.1, m=1.0)
    cal = calibrate_entangling(sched)
    tuned = sched.stretched(cal.parameter_value)
    ok = cal.residual < 1e-9
    ok &= cal.details["leakage"] < 1e-6
    ok &= cal.infidelity < 1e-6
    alpha, beta, _theta = cal.achieved_phases
    ok &= abs(math.remainder(alpha + tuned.int_c(), 2.0 * math.pi)) < 1e-6
    ok &= abs(math.remainder(beta + tuned.int_d(), 2.0 * math.pi)) < 1e-6
    ok &= bool(cal.details["entangling"])
    elapsed = time.perf_counter() - t0
    ok &= elapsed < 60.0
    assert _report(capsys, "C09 entangling calibration", ok,
                   f"stretch z={cal.parameter_value:.4f}, leakage "
                   f"{cal.details['leakage']:.1e}, infidelity "
                   f"{cal.infidelity:.1e}, {elapsed:.1f}s")


def test_c10_vacuum_persistence(capsys):
    grid = Grid.symmetric(10.0, 201)
    basis = mode_decomposition(np.zeros(grid.n), 1.0, grid, n_continuum=3)
    overlaps = np.array([0.55 - 0.2j, 0.35j, -0.4 + 0.15j])
    t0 = time.perf_counter()
    report = creation_probabilities(overlaps, basis)
    ok = abs(report.p0 - math.exp(-float(np.sum(report.nbar)))) < 1e-12
    # independent route: truncated-Fock displacement operator per mode
    n_fock = 48
    a_op = np.diag(np.sqrt(np.arange(1.0, n_fock)), k=1)
    p0_ref = 1.0
    for jt, w in zip(overlaps, basis.omegas):
        coh = jt / np.sqrt(2.0 * w)
        d_op = expm(coh * a_op.conj().T - np.conj(coh) * a_op)
        p0_ref *= abs(d_op[0, 0]) ** 2
    rel = abs(report.p0 - p0_ref) / p0_ref
    ok &= rel < 1e-9
    norm_err = float(np.max(np.abs(report.table_normalization() - 1.0)))
    ok &= norm_err < 1e-10
    elapsed = time.perf_counter() - t0
    ok &= elapsed < 1.0
    assert _report(capsys, "C10 vacuum persistence", ok,
                   f"p0={report.p0:.10f}, |p0-fock|/p0={rel:.1e}, "
                   f"table norm err {norm_err:.1e}, {elapsed:.2f}s")


def test_c11_local_energy_probe(capsys):
    t0 = time.perf_counter()
    sharp_vars, wide_vars, shifts, w0s = [], [], [], []
    for n in (1480, 1560, 1640, 1720, 1800):
        grid = Grid.symmetric(54.0, n)
        j2 = -0.45 * np.exp(-grid.x ** 2 / (2.0 * 1.5 ** 2))
        basis = mode_decomposition(j2, 1.0, grid, n_continuum=None)
        sharp = (np.abs(grid.x) <= 2.0).astype(float)
        wide = np.exp(-grid.x ** 2 / (2.0 * 12.0 ** 2))
        sharp_vars.append(local_energy_probe(sharp, basis).variance)
        probe = local_energy_probe(wide, basis)
        wide_vars.append(probe.variance)
        shifts.append(probe.shift)
        w0s.append(basis.omegas[0])
    drift = abs(wide_vars[-1] / wide_vars[-2] - 1.0)
    dev = abs(shifts[-1] / w0s[-1] - 1.0)
    elapsed = time.perf_counter() - t0
    # sharp window: vacuum variance grows without bound as the grid refines;
    # smooth window: variance and bound-mode shift settle
    ok = bool(np.all(np.diff(sharp_vars) > 0))
    ok &= drift < 0.01
    ok &= dev < 0.01
    ok &= elapsed < 120.0
    assert _report(capsys, "C11 local energy probe", ok,
                   f"sharp var {sharp_vars[0]:.2f} -> {sharp_vars[-1]:.2f} "
                   f"(rising), wide var drift {drift:.2%}, shift "
                   f"{shifts[-1]:.5f} vs omega0 {w0s[-1]:.5f} (dev {dev:.2%}), "
                   f"{elapsed:.1f}s")


def _random_circuit(rng, n_qubits=3, max_gates=8):
    alpha, beta = native_entangling_phases()
    n_gates = int(rng.integers(3, max_gates + 1))
    gates = []
    for _ in range(n_gates):
        kind = rng.choice(["zrot", "xrot", "entangling"], p=[0.3, 0.3, 0.4])
        if kind == "zrot":
            gates.append(GateSpec("zrot", (int(rng.integers(n_qubits)),),
                                  angle=float(rng.uniform(-1.5, 1.5))))
        elif kind == "xrot":
            gates.append(GateSpec("xrot", (int(rng.integers(n_qubits)),),
                                  angle=float(rng.uniform(0.2, 1.4))))
        else:
            a = int(rng.integers(n_qubits))
            b = int(rng.integers(n_qubits))
            while b == a:
                b = int(rng.integers(n_qubits))
            gates.append(GateSpec("entangling", (a, b), alpha=alpha, beta=beta))
    return LogicalCircuit(n_qubits, tuple(gates))


def test_c12_end_to_end_pipeline(capsys):
    t0 = time.perf_counter()
    rng = np.random.default_rng(2026)
    ok = True
    worst_replay = 0.0
    worst_hadamard = 0.0
    max_samples = 0
    for k in range(10):
        circ = _random_circuit(rng)
        compiled = compile(circ)
        report = simulate_schedule(compiled)
        ideal = ideal_unitary(circ)
        ideal_p = float(abs(ideal[0, 0]) ** 2)
        gap = abs(report.vacuum_return_probability - ideal_p)
        budget = infidelity_budget(report, compiled)
        ok &= gap <= report.total_infidelity + 1e-12
        ok &= report.total_infidelity <= budget + 2e-12
        max_samples = max(max_samples, 2 * compiled.t.size * compiled.x.size)
        replay = abs(abs(ideal_unitary(report.circuit)[0, 0]) ** 2 - ideal_p)
        worst_replay = max(worst_replay, replay)
        est = hadamard_test(vacuum_amplitude(circ), shots=10_000, seed=k)
        pull = abs(est.estimate - ideal[0, 0].real) / est.standard_error
        worst_hadamard = max(worst_hadamard, pull)
        ok &= pull <= 3.0
    ok &= worst_replay <= 1.7e-16
    ok &= max_samples < 24_000_000
    elapsed = time.perf_counter() - t0
    ok &= elapsed < 600.0
    assert _report(capsys, "C12 end-to-end pipeline", ok,
                   f"10 circuits, worst replay gap {worst_replay:.2e}, "
                   f"max samples {max_samples}, worst hadamard pull "
                   f"{worst_hadamard:.2f} sigma, {elapsed:.1f}s")
