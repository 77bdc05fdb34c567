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
WELL_SAMPLES = 17   # schedule samples of coefficients_from_wells
WELL_GRID = 701     # grid points of each two-well solve

# occupation basis of two dual-rail qubits (wells 1..4, center pair 2,3);
# the first four states are the coding subspace |00>, |01>, |10>, |11>
# with |0> = 01 and |1> = 10 on each rail pair
BASIS_LABELS = ("0101", "0110", "1001", "1010", "1100", "0011")


@dataclass(frozen=True)
class ZGateResult:
    beta: float
    achieved_phase: float  # exponent phase, -int_0^tau (E0(t) - E0(0)) dt
    residual: float


def z_gate_beta(theta, lambda_pt=2.0, tau=100.0, alpha0=1.0):
    """Bump amplitude for a Z rotation by theta on a Poschl-Teller well.

    The well scale is modulated as alpha^2(t) = alpha0^2 (1 + beta B(t/tau)),
    moving the ground energy E0 = -alpha^2 (lambda-1)^2 away from its idle
    value and accumulating the relative phase exp(-i int (E0(t)-E0(0)) dt).
    The integral is beta (lambda-1)^2 tau alpha0^2 eta in closed form; the
    same product solves beta and reports the achieved phase.
    """
    if not 1.0 < lambda_pt < math.inf:
        raise ValidationError("Poschl-Teller qubit needs finite lambda_pt > 1")
    if not 0 < tau < math.inf:
        raise ValidationError("need finite tau > 0")
    if not (math.isfinite(theta) and math.isfinite(alpha0)):
        raise ValidationError("need finite theta and alpha0")
    scale = (lambda_pt - 1.0) ** 2 * tau * alpha0 ** 2 * bump_integral()
    beta = -theta / scale
    achieved = beta * scale
    return ZGateResult(beta, achieved, abs(achieved - (-theta)))


def _check_b_schedule(beta):
    b_min = 1.0 + min(0.0, beta * BUMP_PEAK)
    if b_min < QES_B_MIN:
        raise SolvabilityViolated(
            f"b(t) reaches {b_min}, below the QES validity floor of 1")


def x_gate_phase(g, beta, tau, include_idle=True):
    """Doublet phase int (E2 - E1) dt for b(t) = 1 + beta B(t/tau).

    The instantaneous splitting of the double-well doublet is
    2 g (2 b - 1)/(1 + g).  With include_idle the constant baseline part of
    the splitting counts toward the phase; without it only the bump-driven
    excess does.  Linear in tau either way.
    """
    if not 0 < g < math.inf:
        raise ValidationError("need finite g > 0")
    if not 0 < tau < math.inf:
        raise ValidationError("need finite tau > 0")
    if not math.isfinite(beta):
        raise ValidationError("need finite beta")
    _check_b_schedule(beta)
    rate = 2.0 * g / (1.0 + g)
    idle = 1.0 if include_idle else 0.0
    return tau * rate * (idle + 2.0 * beta * bump_integral())


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

    def record(self):
        """The calibration as one flat dict, the details merged in last."""
        return {
            "gate": self.gate,
            self.parameter_name: self.parameter_value,
            "achieved_phases": list(self.achieved_phases),
            "residual": self.residual,
            "infidelity": self.infidelity,
        } | self.details

    def to_json(self):
        return json.dumps(self.record(), indent=2)


def calibrate_x_gate(g, beta, target=math.pi, include_idle=True):
    """Solve phi(tau) = target for the X-gate duration.

    phi is linear in tau, so the solve is exact.  The phase counts only
    mod 2 pi, so tau solves for target mod 2 pi, taken with the rate's
    sign so the duration is never negative; details keep the requested
    angle.
    """
    if not math.isfinite(target):
        raise ValidationError("need a finite target phase")
    rate_at_unit_tau = x_gate_phase(g, beta, 1.0, include_idle=include_idle)
    if rate_at_unit_tau == 0.0:
        raise ValidationError("phase accumulation rate vanishes; nothing to solve")
    wrapped = target % math.copysign(2.0 * math.pi, rate_at_unit_tau)
    tau = wrapped / rate_at_unit_tau
    phi = tau * rate_at_unit_tau
    residual = abs(phi - wrapped)
    infid = gate_infidelity(
        np.diag([1.0, np.exp(-1j * phi)]),
        np.diag([1.0, np.exp(-1j * target)]))
    return GateCalibration(
        gate="x", parameter_name="tau", parameter_value=tau,
        achieved_phases=(phi,), residual=residual, infidelity=infid,
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
            if not np.all(np.isfinite(arr)):
                raise ValidationError(f"{name}(t) must be finite")
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
        if not (0 < self.tau < math.inf and 0 < self.z < math.inf):
            raise ValidationError("need finite tau > 0 and z > 0")

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
    from scipy.linalg import expm
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
    theta1 = schedule.stretched(1.0).theta_x()
    if abs(theta1) < 1e-14:
        raise NoClosure("int b dt vanishes; no stretch closes the X rotation")
    k = math.ceil(z_min * abs(theta1) / (2.0 * math.pi) - 1e-12)
    k = max(k, 1)
    z = 2.0 * math.pi * k / abs(theta1)
    if z < z_min:
        k += 1
        z = 2.0 * math.pi * k / abs(theta1)
    return z


def entangling_check(alpha, beta):
    """True when the diagonal gate diag(1, e^{i a}, e^{i b}, 1) is entangling."""
    return bool(abs(np.exp(1j * (alpha + beta)) - 1.0) > ENTANGLING_TOL)


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


def calibrate_entangling(schedule: TwoQubitSchedule):
    """Tune closure, propagate, and report the logical gate as a record."""
    z = tune_closure(schedule)
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
        if not 0 < self.ell_min <= self.ell_max < math.inf:
            raise ValidationError("need 0 < ell_min <= ell_max, finite")
        if not all(0 < v < math.inf for v in (self.depth, self.width, self.tau)):
            raise ValidationError("depth, width, tau must be finite and positive")

    def separation(self, s):
        reach = (self.ell_max - self.ell_min) / BUMP_PEAK
        return self.ell_max - reach * gevrey_bump(s)


def _gaussian(x, center, width):
    """Unit-height Gaussian well shape exp(-(x - center)^2 / (2 width^2))."""
    return np.exp(-(x - center) ** 2 / (2.0 * width ** 2))


def _well_pair_potential(x, separation, depth, width):
    return -depth * (_gaussian(x, separation / 2.0, width)
                     + _gaussian(x, -separation / 2.0, width))


def coefficients_from_wells(trajectory: WellPairTrajectory, lam, m):
    """Six-state coefficients b, c, d from instantaneous two-well solves.

    At each schedule sample the center-well pair is solved for its lowest
    doublet: b is half the symmetric/antisymmetric splitting, c the pair
    interaction energy of the left/right localized orbitals (contact plus
    the attractive exchange tail) plus the common orbital-energy shift, and
    d the empty-well shift, both measured against the singly-occupied
    parked reference energy so that all three vanish at the endpoints up to
    the residual tunneling at the parked separation.

    The schedule has WELL_SAMPLES samples, each solved on a WELL_GRID-point
    grid reaching 9 well widths past the parked wells.  The schedule is
    symmetric in time, so only the first (WELL_SAMPLES + 1) // 2 samples
    are solved and the rest are their mirror images, with the same bits:
    one reference solve and 9 well-pair solves.  The attractive kernel's
    Toeplitz product is a circulant FFT product whose kernel spectrum is
    computed once per call.
    """
    t = trajectory
    grid = Grid.symmetric(t.ell_max / 2.0 + 9.0 * t.width, WELL_GRID)
    x = grid.x
    dx = grid.dx

    # attractive pair kernel sampled on the relative-coordinate lattice;
    # the symmetric Toeplitz matrix it spans, embedded in a circulant of
    # length 2 WELL_GRID - 1 (as scipy.linalg.matmul_toeplitz does), has
    # this spectrum at every schedule sample
    contact, v_attr = effective_potential(np.arange(WELL_GRID) * dx, m, lam)
    n_fft = 2 * WELL_GRID - 1
    kernel_spectrum = np.fft.rfft(np.concatenate((v_attr, v_attr[-1:0:-1])))

    # singly-occupied reference: one isolated well
    iso = Tabulated(x, -t.depth * _gaussian(x, 0.0, t.width), units=natural(m))
    e_iso = solve_bound_states(iso, grid=grid, max_states=1,
                               tail_tol=1e-5).energies[0]

    # s_i = i/(WELL_SAMPLES - 1) is dyadic for WELL_SAMPLES = 17, so
    # 1 - s_i is exact and equals s_(16-i); gevrey_bump takes s (1 - s),
    # which commutes, so the separation, the potential, the solve and
    # b, c, d are the same bits at s and 1 - s
    s_samples = np.linspace(0.0, 1.0, WELL_SAMPLES)
    half = (WELL_SAMPLES + 1) // 2
    b_arr = np.empty(WELL_SAMPLES)
    c_arr = np.empty(WELL_SAMPLES)
    d_arr = np.empty(WELL_SAMPLES)
    for i, s in enumerate(s_samples[:half]):
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
        # both states are positive on their left peak (solve_bound_states),
        # so psi_l localizes left and psi_r right
        psi_l = (psi_sym + psi_anti) / np.sqrt(2.0)
        psi_r = (psi_sym - psi_anti) / np.sqrt(2.0)
        rho_l = psi_l ** 2
        rho_r = psi_r ** 2

        b_arr[i] = (e_anti - e_sym) / 2.0
        pair_contact = contact * np.trapezoid(rho_l * rho_r, x)
        # double integral of the attractive kernel; plain dx^2 Riemann is
        # enough since the densities vanish at the walls
        v_rho_r = np.fft.irfft(kernel_spectrum * np.fft.rfft(rho_r, n=n_fft),
                               n=n_fft)[:WELL_GRID]
        pair_attr = dx ** 2 * float(rho_l @ v_rho_r)
        e_bar = (e_sym + e_anti) / 2.0
        c_arr[i] = pair_contact + pair_attr + (e_bar - e_iso)
        d_arr[i] = e_iso - e_bar
    for arr in (b_arr, c_arr, d_arr):
        arr[half:] = arr[half - 2::-1]

    return TwoQubitSchedule(s_samples, b_arr, c_arr, d_arr, tau=t.tau,
                            endpoint_tol=1e-2)
