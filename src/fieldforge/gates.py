"""Gate calibration and simulation for dual-rail well qubits.

Z rotations come from briefly deepening one Poschl-Teller well, X rotations
from lowering the central barrier of the quasi-exactly-solvable double well,
and the entangling gate from the six-state occupation model of two dual-rail
qubits whose center wells approach and separate.  All schedules are built
from the smooth bump B(s) = exp(-1/(s(1-s))), which vanishes with all
derivatives at both endpoints, so every gate returns the wells to their
initial configuration.

Propagation convention: U = exp(-i int H dt), so a level held at energy E
accumulates the phase factor exp(-i E t).
"""

import json
import math
from dataclasses import dataclass, field

import numpy as np
from scipy.integrate import simpson
from scipy.linalg import expm, matmul_toeplitz

from .adiabatic import bump_integral, gevrey_bump
from .errors import (
    DimensionMismatch,
    NoClosure,
    SolvabilityViolated,
    ValidationError,
)
from .fieldtheory import effective_potential
from .potentials import Grid, Tabulated
from .schrodinger import solve_bound_states
from .units import natural

# QES closed forms hold for b >= 1; the tolerance keeps the b = 1 baseline
# itself legal in floating point.
QES_B_MIN = 1.0 - 1e-12
ENTANGLING_TOL = 1e-6
BUMP_PEAK = math.exp(-4.0)  # B(1/2), the schedule maximum

# occupation basis of two dual-rail qubits (wells 1..4, center pair 2,3);
# the first four states are the coding subspace |00>, |01>, |10>, |11>
# with |0> = 01 and |1> = 10 on each rail pair
BASIS_LABELS = ("0101", "0110", "1001", "1010", "1100", "0011")


def eta_constant():
    """Area of the bump schedule, eta = int_0^1 exp(-1/(s(1-s))) ds."""
    return bump_integral()


def _bump_quadrature(fn, n):
    # independent fixed-grid Simpson check, deliberately not reusing the
    # adaptive quadrature behind eta_constant
    s = np.linspace(0.0, 1.0, n)
    return simpson(fn(s), x=s)


@dataclass(frozen=True)
class ZGateResult:
    beta: float
    phase_integral: float  # int_0^tau (E0(t) - E0(0)) dt
    achieved_phase: float  # exponent phase, -phase_integral
    residual: float


def z_gate_beta(theta, lambda_pt=2.0, tau=100.0, alpha0=1.0, n_quad=2001):
    """Bump amplitude for a Z rotation by theta on a Poschl-Teller well.

    The well scale is modulated as alpha^2(t) = alpha0^2 (1 + beta B(t/tau)),
    moving the ground energy E0 = -alpha^2 (lambda-1)^2 away from its idle
    value and accumulating the relative phase exp(-i int (E0(t)-E0(0)) dt).
    Returns the amplitude together with the phase integral re-evaluated by
    direct quadrature of the modulated energy.
    """
    if lambda_pt <= 1.0:
        raise ValidationError("Poschl-Teller qubit needs lambda_pt > 1")
    if tau <= 0:
        raise ValidationError("need tau > 0")
    scale = (lambda_pt - 1.0) ** 2 * tau * alpha0 ** 2
    beta = -theta / (scale * eta_constant())

    def shift(s):
        # E0(t) - E0(0) = -alpha0^2 beta B (lambda-1)^2
        return -(alpha0 ** 2) * beta * gevrey_bump(s) * (lambda_pt - 1.0) ** 2

    integral = tau * _bump_quadrature(shift, n_quad)
    achieved = -integral
    return ZGateResult(beta, integral, achieved, abs(achieved - (-theta)))


def _check_b_schedule(beta, b_baseline=1.0):
    b_min = b_baseline + min(0.0, beta * BUMP_PEAK)
    if b_min < QES_B_MIN:
        raise SolvabilityViolated(
            f"b(t) reaches {b_min}, below the QES validity floor of 1")


def x_gate_phase(g, beta, tau, include_idle=True, b_baseline=1.0):
    """Doublet phase int (E2 - E1) dt for b(t) = b_baseline + beta B(t/tau).

    The instantaneous splitting of the double-well doublet is
    2 g (2 b - 1)/(1 + g).  With include_idle the constant baseline part of
    the splitting counts toward the phase; without it only the bump-driven
    excess does.  Linear in tau either way.
    """
    if g <= 0:
        raise ValidationError("need g > 0")
    if tau <= 0:
        raise ValidationError("need tau > 0")
    _check_b_schedule(beta, b_baseline)
    rate = 2.0 * g / (1.0 + g)
    idle = (2.0 * b_baseline - 1.0) if include_idle else 0.0
    return tau * rate * (idle + 2.0 * beta * eta_constant())


@dataclass(frozen=True)
class GateCalibration:
    """Solved gate parameters, exportable as a JSON record."""

    gate: str
    parameter_name: str
    parameter_value: float
    achieved_phases: tuple
    residual: float
    infidelity: float
    details: dict = field(default_factory=dict)

    def __post_init__(self):
        if not 0.0 <= self.infidelity <= 1.0:
            raise ValidationError("infidelity must lie in [0, 1]")

    def to_json(self, indent=2):
        record = {
            "gate": self.gate,
            self.parameter_name: self.parameter_value,
            "achieved_phases": list(self.achieved_phases),
            "residual": self.residual,
            "infidelity": self.infidelity,
        }
        record.update(self.details)
        return json.dumps(record, indent=indent)


def calibrate_x_gate(g, beta, target=math.pi, include_idle=True,
                     b_baseline=1.0, n_quad=2001):
    """Solve phi(tau) = target for the X-gate duration.

    phi is linear in tau, so the solve is exact; the residual reported is
    the defect of an independent fixed-grid quadrature of the instantaneous
    splitting at the solved duration.
    """
    rate_at_unit_tau = x_gate_phase(g, beta, 1.0, include_idle=include_idle,
                                    b_baseline=b_baseline)
    if rate_at_unit_tau == 0.0:
        raise ValidationError("phase accumulation rate vanishes; nothing to solve")
    tau = target / rate_at_unit_tau

    def splitting_excess(s):
        b = b_baseline + beta * gevrey_bump(s)
        full = 2.0 * g * (2.0 * b - 1.0) / (1.0 + g)
        if include_idle:
            return full
        return full - 2.0 * g * (2.0 * b_baseline - 1.0) / (1.0 + g)

    phi_quad = tau * _bump_quadrature(splitting_excess, n_quad)
    residual = abs(phi_quad - target)
    infid = gate_infidelity(
        np.diag([1.0, np.exp(-1j * phi_quad)]),
        np.diag([1.0, np.exp(-1j * target)]))
    return GateCalibration(
        gate="x", parameter_name="tau", parameter_value=tau,
        achieved_phases=(phi_quad,), residual=residual, infidelity=infid,
        details={"g": g, "beta": beta, "include_idle": include_idle,
                 "target": target})


def calibrate_z_gate(theta, lambda_pt=2.0, tau=100.0, alpha0=1.0):
    """Wrap z_gate_beta into an exportable calibration record."""
    result = z_gate_beta(theta, lambda_pt=lambda_pt, tau=tau, alpha0=alpha0)
    infid = gate_infidelity(
        np.diag([1.0, np.exp(1j * result.achieved_phase)]),
        np.diag([1.0, np.exp(-1j * theta)]))
    return GateCalibration(
        gate="z", parameter_name="beta", parameter_value=result.beta,
        achieved_phases=(result.achieved_phase,), residual=result.residual,
        infidelity=infid,
        details={"lambda_pt": lambda_pt, "tau": tau, "alpha0": alpha0,
                 "target": theta})


# --- two-qubit entangling gate on the six-state occupation subspace ---


def _six_state_generators():
    x05 = np.zeros((6, 6))
    x05[0, 5] = x05[5, 0] = 1.0
    x34 = np.zeros((6, 6))
    x34[3, 4] = x34[4, 3] = 1.0
    p1 = np.zeros((6, 6))
    p1[1, 1] = 1.0
    p2 = np.zeros((6, 6))
    p2[2, 2] = 1.0
    return x05 + x34, p1, p2


@dataclass
class TwoQubitSchedule:
    """Sampled coefficient trajectories b, c, d of the six-state model.

    H(t) = b(t) (X_05 + X_34) + c(t) P_0110 + d(t) P_1001 in the basis
    BASIS_LABELS.  The stretch factor z multiplies the duration while
    keeping the shape in s = t/(z tau) fixed.
    """

    s_samples: np.ndarray
    b: np.ndarray
    c: np.ndarray
    d: np.ndarray
    tau: float
    z: float = 1.0
    endpoint_tol: float = 1e-6

    def __post_init__(self):
        self.s_samples = np.asarray(self.s_samples, dtype=float)
        for name in ("b", "c", "d"):
            arr = getattr(self, name)
            if np.iscomplexobj(arr):
                raise ValidationError(f"{name}(t) must be real")
            arr = np.asarray(arr, dtype=float)
            if arr.shape != self.s_samples.shape:
                raise ValidationError("coefficient arrays must match s_samples")
            scale = max(np.max(np.abs(arr)), 1e-300)
            if abs(arr[0]) > self.endpoint_tol * scale or \
                    abs(arr[-1]) > self.endpoint_tol * scale:
                raise ValidationError(
                    f"{name}(t) must vanish at the schedule endpoints")
            setattr(self, name, arr)
        if self.s_samples.ndim != 1 or self.s_samples.size < 3:
            raise ValidationError("need at least 3 samples")
        if np.any(np.diff(self.s_samples) <= 0) or \
                abs(self.s_samples[0]) > 1e-12 or abs(self.s_samples[-1] - 1.0) > 1e-12:
            raise ValidationError("s_samples must increase from 0 to 1")
        if self.tau <= 0 or self.z <= 0:
            raise ValidationError("need tau > 0 and z > 0")

    def theta_x(self):
        return self.z * self.tau * np.trapezoid(self.b, self.s_samples)

    def int_c(self):
        return self.z * self.tau * np.trapezoid(self.c, self.s_samples)

    def int_d(self):
        return self.z * self.tau * np.trapezoid(self.d, self.s_samples)

    def stretched(self, z):
        return TwoQubitSchedule(self.s_samples, self.b, self.c, self.d,
                                self.tau, z=z, endpoint_tol=self.endpoint_tol)


def propagate_two_qubit(schedule: TwoQubitSchedule):
    """6x6 propagator U = T exp(-i int H dt) of the six-state model.

    The coefficient matrices commute at all times (the X blocks and the two
    projectors have disjoint support), so the time-ordered product collapses
    to a single exponential of the integrated generator; the only numerical
    content is the trapezoid quadrature of the coefficient trajectories.
    """
    xsum, p1, p2 = _six_state_generators()
    gen = (schedule.theta_x() * xsum
           + schedule.int_c() * p1
           + schedule.int_d() * p2)
    return expm(-1j * gen)


def extract_logical(u6):
    """Coding-block unitary, leakage, and diagonal phases of a 6x6 propagator.

    Returns (u4, leakage, alpha, beta) with u4 the 4x4 block on the coding
    states |00>, |01>, |10>, |11>, leakage the spectral norm of the coupling
    into the two non-coding states, and alpha, beta the phases of the |01>
    and |10> diagonal entries (principal branch; the continuous branch is
    -int c dt and -int d dt from the generating schedule).
    """
    u6 = np.asarray(u6)
    if u6.shape != (6, 6):
        raise DimensionMismatch(f"expected a 6x6 unitary, got {u6.shape}")
    u4 = u6[:4, :4].copy()
    leakage = float(np.linalg.norm(u6[4:, :4], 2))
    alpha = float(np.angle(u4[1, 1]))
    beta = float(np.angle(u4[2, 2]))
    return u4, leakage, alpha, beta


def tune_closure(schedule: TwoQubitSchedule, z_min=1.0):
    """Smallest stretch z >= z_min making theta_x(z) an integer multiple of 2 pi."""
    theta1 = schedule.tau * np.trapezoid(schedule.b, schedule.s_samples)
    if abs(theta1) < 1e-14:
        raise NoClosure("int b dt vanishes; no stretch closes the X rotation")
    k = math.ceil(z_min * abs(theta1) / (2.0 * math.pi) - 1e-12)
    k = max(k, 1)
    z = 2.0 * math.pi * k / abs(theta1)
    if z < z_min:
        k += 1
        z = 2.0 * math.pi * k / abs(theta1)
    return z


def entangling_check(alpha, beta, tol=ENTANGLING_TOL):
    """True when the diagonal gate diag(1, e^{i a}, e^{i b}, 1) is entangling."""
    return bool(abs(np.exp(1j * (alpha + beta)) - 1.0) > tol)


def gate_infidelity(u_actual, u_target):
    """1 - |tr(U_target^dag U_actual)/dim|^2, global-phase invariant."""
    ua = np.asarray(u_actual, dtype=complex)
    ut = np.asarray(u_target, dtype=complex)
    if ua.ndim != 2 or ua.shape[0] != ua.shape[1]:
        raise DimensionMismatch(f"U_actual has shape {ua.shape}")
    if ua.shape != ut.shape:
        raise DimensionMismatch(f"shape mismatch {ua.shape} vs {ut.shape}")
    overlap = np.trace(ut.conj().T @ ua) / ua.shape[0]
    return float(max(1.0 - abs(overlap) ** 2, 0.0))


def calibrate_entangling(schedule: TwoQubitSchedule, z_min=1.0):
    """Tune closure, propagate, and report the logical gate as a record."""
    z = tune_closure(schedule, z_min=z_min)
    tuned = schedule.stretched(z)
    u6 = propagate_two_qubit(tuned)
    u4, leakage, alpha, beta = extract_logical(u6)
    theta = tuned.theta_x()
    residual = abs(theta - 2.0 * math.pi * round(theta / (2.0 * math.pi)))
    target = np.diag([1.0,
                      np.exp(-1j * tuned.int_c()),
                      np.exp(-1j * tuned.int_d()),
                      1.0])
    infid = gate_infidelity(u4, target)
    return GateCalibration(
        gate="entangling", parameter_name="z", parameter_value=z,
        achieved_phases=(alpha, beta, theta), residual=residual,
        infidelity=infid,
        details={"leakage": leakage,
                 "entangling": entangling_check(alpha, beta)})


# --- microscopic coefficients from the approaching-well geometry ---


@dataclass(frozen=True)
class WellPairTrajectory:
    """Separation schedule for the two approaching center wells.

    The wells are Gaussian dips of the given depth and width whose centers
    sit at +-separation/2; the separation follows a normalized bump from
    ell_max (parked) down to ell_min at mid-schedule and back.
    """

    ell_max: float
    ell_min: float
    depth: float
    width: float
    tau: float

    def __post_init__(self):
        if not 0 < self.ell_min <= self.ell_max:
            raise ValidationError("need 0 < ell_min <= ell_max")
        if self.depth <= 0 or self.width <= 0 or self.tau <= 0:
            raise ValidationError("depth, width, tau must be positive")

    def separation(self, s):
        reach = (self.ell_max - self.ell_min) / BUMP_PEAK
        return self.ell_max - reach * gevrey_bump(s)


def _well_pair_potential(x, separation, depth, width):
    return -depth * (np.exp(-(x - separation / 2.0) ** 2 / (2.0 * width ** 2))
                     + np.exp(-(x + separation / 2.0) ** 2 / (2.0 * width ** 2)))


def coefficients_from_wells(trajectory: WellPairTrajectory, lam, m,
                            n_samples=17, n_grid=701, half_width=None):
    """Six-state coefficients b, c, d from instantaneous two-well solves.

    At each schedule sample the center-well pair is solved for its lowest
    doublet: b is half the symmetric/antisymmetric splitting, c the pair
    interaction energy of the left/right localized orbitals (contact plus
    the attractive exchange tail) plus the common orbital-energy shift, and
    d the empty-well shift, both measured against the singly-occupied
    parked reference energy so that all three vanish at the endpoints up to
    the residual tunneling at the parked separation.
    """
    t = trajectory
    if half_width is None:
        half_width = t.ell_max / 2.0 + 9.0 * t.width
    grid = Grid.symmetric(half_width, n_grid)
    x = grid.x
    dx = grid.dx

    # attractive pair kernel sampled on the relative-coordinate lattice,
    # reused across schedule samples
    contact, v_attr = effective_potential(np.arange(n_grid) * dx, m, lam)

    # singly-occupied reference: one isolated well
    iso = Tabulated(x, -t.depth * np.exp(-x ** 2 / (2.0 * t.width ** 2)),
                    units=natural(m))
    e_iso = solve_bound_states(iso, grid=grid, max_states=1,
                               tail_tol=1e-5).energies[0]

    s_samples = np.linspace(0.0, 1.0, n_samples)
    b_arr = np.empty(n_samples)
    c_arr = np.empty(n_samples)
    d_arr = np.empty(n_samples)
    for i, s in enumerate(s_samples):
        ell = t.separation(s)
        pot = Tabulated(x, _well_pair_potential(x, ell, t.depth, t.width),
                        units=natural(m))
        states = solve_bound_states(pot, grid=grid, max_states=2,
                                    tail_tol=1e-5)
        if len(states) < 2:
            raise ValidationError(
                f"separation {ell}: doublet not resolved (got {len(states)})")
        e_sym, e_anti = states.energies[:2]
        psi_sym, psi_anti = states.wavefunctions[:2]
        # orient both so the left/right combinations localize
        left = x < 0
        if np.trapezoid(psi_sym[left] ** 2, x[left]) < 0.5:
            psi_sym = -psi_sym  # symmetric state has no sign freedom issue
        if np.sum(psi_sym[left] * psi_anti[left]) < 0:
            psi_anti = -psi_anti
        psi_l = (psi_sym + psi_anti) / np.sqrt(2.0)
        psi_r = (psi_sym - psi_anti) / np.sqrt(2.0)
        rho_l = psi_l ** 2
        rho_r = psi_r ** 2

        b_arr[i] = (e_anti - e_sym) / 2.0
        pair_contact = contact * np.trapezoid(rho_l * rho_r, x)
        # double integral of the attractive kernel; plain dx^2 Riemann is
        # enough since the densities vanish at the walls
        pair_attr = dx ** 2 * float(
            rho_l @ matmul_toeplitz((v_attr, v_attr), rho_r))
        e_bar = (e_sym + e_anti) / 2.0
        c_arr[i] = pair_contact + pair_attr + (e_bar - e_iso)
        d_arr[i] = e_iso - e_bar

    return TwoQubitSchedule(s_samples, b_arr, c_arr, d_arr, tau=t.tau,
                            endpoint_tol=1e-2)
