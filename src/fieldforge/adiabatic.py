"""Instantaneous-eigenbasis (adiabatic frame) dynamics.

A time-dependent Hamiltonian H(s), s in [0,1] with physical time t = s*tau,
is re-expressed in its instantaneous eigenbasis.  The frame generator is

    M_jj = E_j,    M_jk = i <L_j| dH/dt |L_k> / (E_j - E_k)   (j != k),

and reduced propagation keeps only the tracked block of M.  Eigenvector
phases follow a discrete parallel-transport gauge: successive overlaps
<L_k(s_i)|L_k(s_{i+1})> are made real and positive, and levels are matched
across samples by maximal overlap, never by energy ordering.
"""

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np
from scipy.optimize import linear_sum_assignment

from ._ode import evolve, exp_product
from .errors import DegenerateGap, GapClosure, ValidationError

HERMITICITY_TOL = 1e-12
GAP_FLOOR_FRACTION = 1e-8
FULL_TOL = 1e-12


def gevrey_bump(s):
    """Bump B(s) = exp(-1/(s(1-s))) on (0,1), zero outside.

    Smooth, compactly supported, Gevrey order 2: derivative maxima grow
    like k^{2k}.  B(1/2) = e^-4.
    """
    s = np.asarray(s, dtype=float)
    inside = (s > 0.0) & (s < 1.0)
    out = np.zeros(s.shape)
    ss = np.where(inside, s * (1.0 - s), 1.0)
    out[inside] = np.exp(-1.0 / ss[inside])
    if out.ndim == 0:
        return float(out)
    return out


BUMP_PANELS = 512


def bump_integral():
    """eta = integral of the bump over [0,1], about 7.0299e-3.

    The trapezoid rule converges faster than any power of the panel width
    here, because every derivative of the bump vanishes at both ends; on
    BUMP_PANELS panels it is within 2e-18 of a 40-digit mpmath value.
    """
    return float(np.sum(gevrey_bump(np.linspace(0.0, 1.0, BUMP_PANELS + 1)))
                 / BUMP_PANELS)


@dataclass
class TimeDependentHamiltonian:
    """H(s) for s in [0,1]; physical time is t = s*tau."""
    dimension: int
    evaluator: Callable
    tau: float
    dds: Optional[Callable] = None   # analytic dH/ds if available

    def __post_init__(self):
        if self.dimension < 2:
            raise ValidationError("need dimension >= 2")
        if not 0 < self.tau < np.inf:
            raise ValidationError("need finite tau > 0")

    def h(self, s):
        m = np.asarray(self.evaluator(s), dtype=complex)
        if m.shape != (self.dimension, self.dimension):
            raise ValidationError("evaluator shape mismatch")
        # "not <=" also rejects NaN and inf entries
        if not np.max(np.abs(m - m.conj().T)) <= HERMITICITY_TOL * max(1.0, np.max(np.abs(m))):
            raise ValidationError(f"H({s}) is not Hermitian")
        return m

    def dh_ds(self, s):
        """dH/ds: analytic when supplied, else a 4th-order 5-point stencil.

        The stencil shifts near the endpoints so every node stays in [0,1];
        the weights come from a Vandermonde solve, so order is kept.
        """
        if self.dds is not None:
            return np.asarray(self.dds(s), dtype=complex)
        h = 1e-3  # stencil step in s
        offsets = np.array([-2.0, -1.0, 0.0, 1.0, 2.0])
        lo, hi = s + offsets[0] * h, s + offsets[-1] * h
        if lo < 0.0:
            offsets = offsets - offsets[0] - s / h
        elif hi > 1.0:
            offsets = offsets - offsets[-1] + (1.0 - s) / h
        nodes = s + offsets * h
        powers = np.vander(offsets * h, 5, increasing=True).T  # row m: (x)^m
        rhs = np.zeros(5)
        rhs[1] = 1.0  # first derivative
        w = np.linalg.solve(powers, rhs)
        acc = np.zeros((self.dimension, self.dimension), dtype=complex)
        for wi, xi in zip(w, nodes):
            acc += wi * self.h(float(xi))
        return acc

    def dh_dt(self, s):
        return self.dh_ds(s) / self.tau


def _gap_floor(energies):
    """Smallest resolvable gap: GAP_FLOOR_FRACTION of the spectral range."""
    spread = float(np.max(energies) - np.min(energies))
    return GAP_FLOOR_FRACTION * max(spread, 1.0)


@dataclass
class FrameTrajectory:
    s_samples: np.ndarray
    energies: np.ndarray       # (n_samples, d_total)
    vectors: np.ndarray        # (n_samples, d_total, d_total), columns

    def min_gap(self, d):
        """Smallest gap between tracked level d-1 and level d."""
        return float(np.min(self.energies[:, d] - self.energies[:, d - 1]))


def _fix_gauge(prev_v, w, v):
    """Match columns to the previous frame by max overlap, then rotate
    each phase so the successive overlap is real positive."""
    overlap = prev_v.conj().T @ v
    row, col = linear_sum_assignment(-np.abs(overlap))
    perm = np.empty_like(col)
    perm[row] = col
    v = v[:, perm]
    w = w[perm]
    diag = np.einsum("ij,ij->j", prev_v.conj(), v)
    phases = np.where(np.abs(diag) > 0, diag / np.abs(np.where(np.abs(diag) > 0, diag, 1.0)), 1.0)
    v = v / phases[np.newaxis, :]
    return w, v


def build_frame_trajectory(system: TimeDependentHamiltonian, n_samples=1025):
    """Eigen-decompose H on a uniform s grid with parallel-transport gauge.

    The first sample is energy-ordered; later samples follow continuity.
    """
    if n_samples < 3:
        raise ValidationError("need at least 3 samples")
    s_grid = np.linspace(0.0, 1.0, n_samples)
    d = system.dimension
    energies = np.empty((n_samples, d))
    vectors = np.empty((n_samples, d, d), dtype=complex)
    w, v = np.linalg.eigh(system.h(0.0))
    energies[0], vectors[0] = w, v
    for i in range(1, n_samples):
        w, v = np.linalg.eigh(system.h(float(s_grid[i])))
        energies[i], vectors[i] = _fix_gauge(vectors[i - 1], w, v)
    return FrameTrajectory(s_grid, energies, vectors)


def frame_generator(system: TimeDependentHamiltonian, s, basis=None):
    """Hermitian frame generator M at parameter s (physical-time units).

    basis: optional (energies, vectors) fixing the gauge; otherwise the
    energy-ordered eigenbasis at s is used (phases drop out of |M_jk|).
    """
    if basis is None:
        w, v = np.linalg.eigh(system.h(float(s)))
    else:
        w, v = basis
    floor = _gap_floor(w)
    elem = v.conj().T @ system.dh_dt(float(s)) @ v
    gap = w[:, np.newaxis] - w[np.newaxis, :]
    np.fill_diagonal(gap, np.inf)
    close = np.argwhere(np.abs(gap) < floor)
    if close.size:
        j, k = close[0]
        raise DegenerateGap(f"levels {j},{k} within gap floor at s={s}")
    m = 1j * elem / gap
    np.fill_diagonal(m, w)
    return m


@dataclass
class PropagationResult:
    unitary: np.ndarray            # frame-expressed propagator
    mode: str
    leakage: Optional[float] = None
    unitary_lab: Optional[np.ndarray] = None
    trajectory: Optional[FrameTrajectory] = None
    subspace_dim: int = 0
    steps: int = 0     # Magnus steps over all doublings, or midpoint steps


def _reduced_propagator(system, trajectory, d):
    """Midpoint-exponential product for the tracked block of M.

    Second-order in the step; the step-halving invariant (phases move by
    under 1e-6) is the accuracy check.  The steps tau ds M_mid[:d, :d]
    go through the propagator's exponential-and-product kernel at once.
    """
    s = trajectory.s_samples
    steps = np.empty((len(s) - 1, d, d), dtype=complex)
    for i in range(len(s) - 1):
        smid = 0.5 * (s[i] + s[i + 1])
        w, v = np.linalg.eigh(system.h(float(smid)))
        # re-gauge midpoint basis against the stored left sample
        w, v = _fix_gauge(trajectory.vectors[i], w, v)
        m = frame_generator(system, smid, basis=(w, v))
        steps[i] = system.tau * (s[i + 1] - s[i]) * m[:d, :d]
    return exp_product(steps)


def propagate(system: TimeDependentHamiltonian, subspace_dim, mode="reduced",
              n_samples=1025):
    """Propagate in the adiabatic frame over s in [0,1] (t in [0, tau]).

    reduced: integrates the tracked d x d block of M; requires the gap to
    level d+1 to stay positive.  full: integrates the exact Schrodinger
    equation for the whole propagator with fourth-order Magnus steps on
    H sampled at the Gauss nodes (each sample Hermiticity-checked),
    doubling the step count until the Richardson error estimate
    max|U_2n - U_n| / 15 falls below FULL_TOL; it re-expresses U in the
    initial/final frames and reports the worst leakage norm out of the
    tracked subspace.
    """
    d = int(subspace_dim)
    if not 1 <= d <= system.dimension:
        raise ValidationError("subspace_dim out of range")
    if mode not in ("reduced", "full"):
        raise ValidationError("mode must be reduced or full")
    traj = build_frame_trajectory(system, n_samples=n_samples)
    if d < system.dimension:
        floor = _gap_floor(traj.energies[0])
        if traj.min_gap(d) < floor:
            raise GapClosure(f"gap to level {d} closed (min {traj.min_gap(d)})")

    if mode == "reduced":
        u = _reduced_propagator(system, traj, d)
        return PropagationResult(unitary=u, mode=mode, trajectory=traj,
                                 subspace_dim=d, steps=n_samples - 1)

    def h(t):
        return np.stack([system.h(float(ti / system.tau)) for ti in t])

    u_lab, steps = evolve(h, np.eye(system.dimension), 0.0, system.tau,
                          FULL_TOL)
    u_frame = traj.vectors[-1].conj().T @ u_lab @ traj.vectors[0]
    leak = 0.0
    if d < system.dimension:
        leak = float(np.max(np.linalg.norm(u_frame[d:, :d], axis=0)))
    return PropagationResult(unitary=u_frame, mode=mode, leakage=leak,
                             unitary_lab=u_lab, trajectory=traj,
                             subspace_dim=d, steps=steps)

