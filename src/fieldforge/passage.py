"""Two-level adiabatic passage: rotating frame, sweep propagation, and the
sufficiency conditions that make the transfer error O(epsilon).

The sweep drives a two-level system (ground |g>, excited |e> split by
omega0) with a linearly chirped coupling.  In the rotating frame after
the rotating-wave approximation the Hamiltonian is

    H_eff = [[0, Omega/2], [Omega/2, -Delta(t)]],   Delta(t) = B t / T

on t in [-T/2, T/2].  The lab-frame drive is Omega cos(Theta(t)) with
phase Theta(t) = omega0 t + (B/2T) t^2, whose derivative sweeps the
instantaneous frequency through resonance at t = 0.
"""

from dataclasses import dataclass

import numpy as np

from ._ode import evolve
from .errors import IntegrationFailure, UnstableVacuum, ValidationError

SWEEP_RTOL = 1e-11


@dataclass(frozen=True)
class TwoLevelSweep:
    omega0: float
    Omega: float
    B: float
    T: float

    def __post_init__(self):
        values = (self.omega0, self.Omega, self.B, self.T)
        if not all(np.isfinite(v) and v > 0 for v in values):
            raise ValidationError("sweep parameters must be finite and positive")

    def detuning(self, t):
        return self.B * t / self.T

    def drive_phase(self, t):
        # d(phase)/dt = omega0 + Delta(t)
        return self.omega0 * t + 0.5 * (self.B / self.T) * t ** 2


@dataclass
class DressedStates:
    hamiltonian: np.ndarray
    theta: float               # mixing angle in [0, pi/2]
    eigenvalues: tuple         # (E_minus, E_plus)
    minus: np.ndarray          # adiabatically |g> -> -|e|
    plus: np.ndarray


def effective_hamiltonian(Omega, Delta):
    """Rotating-frame two-level Hamiltonian with dressed-state data.

    tan(2 theta) = -Omega/Delta with 2 theta in [0, pi], so theta runs
    from 0 (far below resonance) to pi/2 (far above) and |-> interpolates
    |g> -> -|e> across the sweep.
    """
    if Omega < 0:
        raise ValidationError("Omega must be nonnegative")
    h = np.array([[0.0, Omega / 2.0], [Omega / 2.0, -Delta]])
    theta = 0.5 * np.arctan2(Omega, -Delta)
    root = 0.5 * np.hypot(Omega, Delta)
    e_minus, e_plus = -Delta / 2.0 - root, -Delta / 2.0 + root
    minus = np.array([np.cos(theta), -np.sin(theta)])
    plus = np.array([np.sin(theta), np.cos(theta)])
    return DressedStates(h, theta, (e_minus, e_plus), minus, plus)


def rwa_error_bound(Omega, omega, Delta, T):
    """Counter-rotating-term error bound Omega/2w + (Omega T/4w)(Delta+Omega).

    The same formula also covers the counter-rotating diagonal terms, at
    the cost of an O(2) safety factor already absorbed in the constant.
    """
    if omega <= 0:
        raise ValidationError("omega must be positive")
    return Omega / (2.0 * omega) + (Omega * T / (4.0 * omega)) * (Delta + Omega)


@dataclass
class PassageResult:
    amplitudes: np.ndarray
    fidelity: float        # |<e|psi(T/2)>|^2 in the rotating frame
    frame: str
    sweep: TwoLevelSweep


def propagate_sweep(sweep: TwoLevelSweep, frame="rwa"):
    """Propagate |g> from -T/2 to +T/2 in the chosen frame.

    frame="lab" integrates the full oscillating drive and re-expresses
    the final state in the rotating frame (diag(1, e^{i Theta})), so the
    two frames are directly comparable.  DOP853 at the fixed relative
    tolerance SWEEP_RTOL keeps the norm within 1e-9 even for the very
    long sweeps the scaling ladder produces.
    """
    if frame not in ("rwa", "lab"):
        raise ValidationError(f"unknown frame {frame!r}")
    t0, t1 = -sweep.T / 2.0, sweep.T / 2.0

    if frame == "rwa":
        def h(t):
            d = sweep.detuning(t)
            return np.array([[0.0, sweep.Omega / 2.0],
                             [sweep.Omega / 2.0, -d]], dtype=complex)
    else:
        def h(t):
            drive = sweep.Omega * np.cos(sweep.drive_phase(t))
            return np.array([[0.0, drive], [drive, sweep.omega0]], dtype=complex)
    psi = evolve(h, [1.0, 0.0], t0, t1, SWEEP_RTOL)
    if frame == "lab":
        psi[1] *= np.exp(1j * sweep.drive_phase(t1))

    norm = np.linalg.norm(psi)
    if abs(norm - 1.0) > 1e-9:
        raise IntegrationFailure(f"propagation lost norm: {norm}")
    return PassageResult(psi, float(abs(psi[1]) ** 2), frame, sweep)


CONDITION_NAMES = (
    "dressed_alignment",      # Omega/B
    "sweep_slow_enough",      # B^2/(T Omega^3)
    "drive_weak_vs_carrier",  # Omega/omega0
    "rwa_phase_budget",       # Omega B T/omega0
    "bandwidth_vs_coupling",  # B/lambda
    "source_weak_vs_band",    # g/B
    "multiparticle_pressure", # (g sqrt(T))^3/sqrt(B)
)


@dataclass
class ConditionCheck:
    name: str
    ratio: float
    threshold: float
    passed: bool


@dataclass
class ConditionReport:
    checks: list
    epsilon: float
    C: float

    @property
    def passed(self):
        return all(c.passed for c in self.checks)

    def ratios(self):
        return np.array([c.ratio for c in self.checks])


def check_conditions(g, Omega, B, T, omega0, lam, epsilon, C=1.0):
    """Evaluate the seven passage sufficiency ratios.

    Six ratios are compared against C*epsilon.  The bandwidth ratio B/lam
    is an O(1) matching condition (B of order lam), so its threshold is
    C itself; a C*epsilon threshold there would reject the published
    scaling solution it is meant to accept.  Raw ratios are stored so
    different C can be re-applied later.
    """
    if min(g, Omega, B, T, omega0, lam) <= 0:
        raise ValidationError("all parameters must be positive")
    ratios = [
        Omega / B,
        B ** 2 / (T * Omega ** 3),
        Omega / omega0,
        Omega * B * T / omega0,
        B / lam,
        g / B,
        (g * np.sqrt(T)) ** 3 / np.sqrt(B),
    ]
    checks = []
    for name, ratio in zip(CONDITION_NAMES, ratios):
        threshold = C if name == "bandwidth_vs_coupling" else C * epsilon
        # boundary-inclusive with float slack so "ratio = epsilon exactly" passes
        ok = ratio <= threshold * (1.0 + 1e-12)
        checks.append(ConditionCheck(name, float(ratio), float(threshold), bool(ok)))
    return ConditionReport(checks, epsilon, C)


@dataclass
class ScaledParameters:
    g: float
    lam: float
    B: float
    T: float
    epsilon_used: float


def scale_parameters(epsilon, G=None, prefactors=None):
    """Parameter ladder (g, lam, B, T) = (e^5, e^4, e^4, e^-8) in units of omega0.

    With a gate count G the accuracy target tightens to
    epsilon_used = min(epsilon, G^(-1/4)), which reproduces both
    lam = min(epsilon^4, 1/G) and T = max(epsilon^-8, G^2).
    Prefactors default to 1 and multiply term-by-term.
    """
    if not 0.0 < epsilon < 1.0:
        raise ValidationError("need 0 < epsilon < 1")
    eps = epsilon
    if G is not None:
        if G < 1:
            raise ValidationError("need G >= 1")
        eps = min(epsilon, G ** -0.25)
    pf = {"g": 1.0, "lam": 1.0, "B": 1.0, "T": 1.0}
    if prefactors:
        pf.update(prefactors)
    return ScaledParameters(
        g=pf["g"] * eps ** 5,
        lam=pf["lam"] * eps ** 4,
        B=pf["B"] * eps ** 4,
        T=pf["T"] * eps ** -8,
        epsilon_used=eps,
    )


def prep_time_estimate(m, binding):
    """Vacuum preparation time scale 1/(m - binding)^2, up to log factors."""
    if binding >= m:
        raise UnstableVacuum(f"binding {binding} >= mass {m}")
    return 1.0 / (m - binding) ** 2
