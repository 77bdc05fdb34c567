"""Instantaneous-eigenbasis (adiabatic frame) dynamics.

A time-dependent Hamiltonian H(s), s in [0,1] with physical time t = s*tau,
is re-expressed in its instantaneous eigenbasis.  The frame generator is

    M_jj = E_j,    M_jk = i <L_j| dH/dt |L_k> / (E_j - E_k)   (j != k),

and reduced propagation keeps only the tracked block of M.  Eigenvector
phases follow a discrete parallel-transport gauge: successive overlaps
<L_k(s_i)|L_k(s_{i+1})> are made real and positive, and levels are matched
across samples by maximal overlap, never by energy ordering.

The user's evaluator is scalar: it maps one s to a (d, d) matrix.
``TimeDependentHamiltonian.stack`` calls it once per sample and checks the
whole stack at once, and every frame quantity downstream (the derivative
stencil, the eigenbases, the gauge and the generator) is one array
operation over its sample set.
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
STENCIL_STEP = 1e-3
STENCIL = np.array([-2.0, -1.0, 0.0, 1.0, 2.0])
# A unitary overlap with |O_jj|^2 > 1/2 in every column has the identity as
# its unique maximal assignment.  The margin covers the rounding of a
# numerically unitary O; rows below it go to linear_sum_assignment.
DOMINANT_OVERLAP = 0.5 + 1e-9


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


def _count(value, name):
    """value as an int; NaN, inf and fractional values are rejected."""
    try:
        integral = float(value).is_integer()
    except (TypeError, ValueError, OverflowError):
        integral = False
    if not integral:
        raise ValidationError(f"{name} must be an integer, got {value!r}")
    return int(value)


@dataclass
class TimeDependentHamiltonian:
    """H(s) for s in [0,1]; physical time is t = s*tau.

    evaluator (and dds, the analytic dH/ds when supplied) maps one float s
    to a (dimension, dimension) Hermitian matrix.  stack(s) evaluates it
    once per sample and checks every sample's shape, finiteness and
    Hermiticity in one pass; h(s) is the one-sample stack.
    """
    dimension: int
    evaluator: Callable
    tau: float
    dds: Optional[Callable] = None   # analytic dH/ds if available

    def __post_init__(self):
        self.dimension = _count(self.dimension, "dimension")
        if self.dimension < 2:
            raise ValidationError("need dimension >= 2")
        if not 0 < self.tau < np.inf:
            raise ValidationError("need finite tau > 0")

    def _sampled(self, fn, s, name):
        """fn at every s, shape s.shape + (d, d), each sample checked."""
        s = np.asarray(s, dtype=float)
        shape = (self.dimension, self.dimension)
        out = np.empty((s.size,) + shape, dtype=complex)
        for i, si in enumerate(s.flat):
            m = np.asarray(fn(float(si)), dtype=complex)
            if m.shape != shape:
                raise ValidationError(f"{name}({si}) has shape {m.shape}, "
                                      f"need {shape}")
            out[i] = m
        skew = np.max(np.abs(out - out.conj().transpose(0, 2, 1)), axis=(1, 2))
        scale = np.maximum(1.0, np.max(np.abs(out), axis=(1, 2)))
        # "not <=" also rejects NaN and inf entries
        bad = np.flatnonzero(~(skew <= HERMITICITY_TOL * scale))
        if bad.size:
            raise ValidationError(f"{name}({s.flat[bad[0]]}) is not a finite "
                                  "Hermitian matrix")
        return out.reshape(s.shape + shape)

    def stack(self, s):
        """H at every s, shape s.shape + (d, d)."""
        return self._sampled(self.evaluator, s, "H")

    def h(self, s):
        """H at one s, shape (d, d)."""
        return self.stack(float(s))

    def dh_ds(self, s):
        """dH/ds at every s: analytic when supplied, else a 4th-order
        5-point stencil.

        The stencil shifts near the endpoints so every node stays in [0,1];
        the weights come from a Vandermonde solve, so order is kept.
        """
        if self.dds is not None:
            return self._sampled(self.dds, s, "dH/ds")
        s = np.asarray(s, dtype=float)
        col = s.reshape(-1, 1)
        offsets = np.where(
            col + STENCIL[0] * STENCIL_STEP < 0.0,
            STENCIL - STENCIL[0] - col / STENCIL_STEP,
            np.where(col + STENCIL[-1] * STENCIL_STEP > 1.0,
                     STENCIL - STENCIL[-1] + (1.0 - col) / STENCIL_STEP,
                     STENCIL))
        x = offsets * STENCIL_STEP
        # powers[i, m, k] = x[i, k]^m, by repeated products as np.vander
        powers = np.ones((col.size, 5, 5))
        powers[:, 1:, :] = x[:, np.newaxis, :]
        np.multiply.accumulate(powers[:, 1:], axis=1, out=powers[:, 1:])
        rhs = np.zeros((col.size, 5, 1))
        rhs[:, 1] = 1.0  # first derivative
        w = np.linalg.solve(powers, rhs)[:, :, 0]
        hs = self.stack(col + x)
        acc = sum(w[:, k, np.newaxis, np.newaxis] * hs[:, k] for k in range(5))
        return acc.reshape(s.shape + hs.shape[2:])

    def dh_dt(self, s):
        return self.dh_ds(s) / self.tau


def _gap_floor(energies):
    """Smallest resolvable gap: GAP_FLOOR_FRACTION of the spectral range
    (over the last axis)."""
    spread = np.max(energies, axis=-1) - np.min(energies, axis=-1)
    return GAP_FLOOR_FRACTION * np.maximum(spread, 1.0)


@dataclass
class FrameTrajectory:
    s_samples: np.ndarray
    energies: np.ndarray       # (n_samples, d_total)
    vectors: np.ndarray        # (n_samples, d_total, d_total), columns

    def min_gap(self, d):
        """Smallest gap between tracked level d-1 and level d."""
        return float(np.min(self.energies[:, d] - self.energies[:, d - 1]))


def _fix_gauge(prev_v, w, v):
    """Match columns to the previous frames by max overlap, then rotate
    each phase so the successive overlap is real positive.

    Works on stacks: energies w (n, d), bases prev_v and v (n, d, d).
    Returns the re-gauged (w, v) and the permutations and phases applied:
    v_new = v[:, :, perm] / phases.
    """
    n, d = w.shape
    perm = np.tile(np.arange(d), (n, 1))
    overlap = np.abs(prev_v.conj().transpose(0, 2, 1) @ v)
    diag = overlap[:, np.arange(d), np.arange(d)]
    for i in np.flatnonzero(~np.all(diag ** 2 > DOMINANT_OVERLAP, axis=1)):
        row, col = linear_sum_assignment(-overlap[i])
        perm[i, row] = col
    v = np.take_along_axis(v, perm[:, np.newaxis, :], axis=2)
    diag = np.einsum("nij,nij->nj", prev_v.conj(), v)
    nonzero = np.abs(diag) > 0
    phases = np.where(nonzero, diag / np.abs(np.where(nonzero, diag, 1.0)), 1.0)
    return (np.take_along_axis(w, perm, axis=1), v / phases[:, np.newaxis, :],
            perm, phases)


def build_frame_trajectory(system: TimeDependentHamiltonian, n_samples=1025):
    """Eigen-decompose H on a uniform s grid with parallel-transport gauge.

    The first sample is energy-ordered; later samples follow continuity.
    Each sample is matched to the raw previous one, and the relative
    permutations and phases are composed along the chain.
    """
    n_samples = _count(n_samples, "n_samples")
    if n_samples < 3:
        raise ValidationError("need at least 3 samples")
    s_grid = np.linspace(0.0, 1.0, n_samples)
    w, v = np.linalg.eigh(system.stack(s_grid))
    _, _, perm, phases = _fix_gauge(v[:-1], w[1:], v[1:])
    # order[i] = perm[i-1][order[i-1]]: only non-identity steps change it
    identity = np.arange(system.dimension)
    order = np.tile(identity, (n_samples, 1))
    for i in np.flatnonzero(np.any(perm != identity, axis=1)):
        order[i + 1:] = perm[i][order[i]]
    # total[i-1] = phases[i-1][order[i-1]] * total[i-2]: sample i's phase
    total = np.cumprod(np.take_along_axis(phases, order[:-1], axis=1), axis=0)
    total /= np.abs(total)   # the running product drifts off the unit circle
    vectors = np.take_along_axis(v, order[:, np.newaxis, :], axis=2)
    vectors[1:] /= total[:, np.newaxis, :]
    return FrameTrajectory(s_grid, np.take_along_axis(w, order, axis=1),
                           vectors)


def frame_generator(system: TimeDependentHamiltonian, s, basis=None):
    """Hermitian frame generator M at parameter s (physical-time units).

    s is a scalar or an array; M has shape s.shape + (d, d).  basis:
    optional (energies, vectors) stacks fixing the gauge; otherwise the
    energy-ordered eigenbasis at s is used (phases drop out of |M_jk|).
    """
    s = np.asarray(s, dtype=float)
    if basis is None:
        w, v = np.linalg.eigh(system.stack(s))
    else:
        w, v = basis
    elem = np.swapaxes(v.conj(), -1, -2) @ system.dh_dt(s) @ v
    gap = w[..., :, np.newaxis] - w[..., np.newaxis, :]
    diagonal = np.arange(w.shape[-1])
    gap[..., diagonal, diagonal] = np.inf
    floor = _gap_floor(w)[..., np.newaxis, np.newaxis]
    close = np.argwhere(np.abs(gap) < floor)
    if close.size:
        *i, j, k = close[0]
        raise DegenerateGap(f"levels {j},{k} within gap floor at "
                            f"s={float(s[tuple(i)])}")
    m = 1j * elem / gap
    m[..., diagonal, diagonal] = w
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


def _midpoint_frames(system, trajectory):
    """Midpoints of the trajectory's samples and their eigenbases, each
    re-gauged against the stored left sample."""
    s = trajectory.s_samples
    smid = 0.5 * (s[:-1] + s[1:])
    w, v = np.linalg.eigh(system.stack(smid))
    return smid, _fix_gauge(trajectory.vectors[:-1], w, v)[:2]


def _reduced_propagator(system, trajectory, d):
    """Midpoint-exponential product for the tracked block of M.

    Second-order in the step; the step-halving invariant (phases move by
    under 1e-6) is the accuracy check.  The steps tau ds M_mid[:d, :d]
    go through the propagator's exponential-and-product kernel at once.
    """
    smid, basis = _midpoint_frames(system, trajectory)
    m = frame_generator(system, smid, basis=basis)
    ds = np.diff(trajectory.s_samples)[:, np.newaxis, np.newaxis]
    return exp_product(system.tau * ds * m[:, :d, :d])


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
    d = _count(subspace_dim, "subspace_dim")
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
                                 subspace_dim=d, steps=len(traj.s_samples) - 1)

    u_lab, steps = evolve(lambda t: system.stack(t / system.tau),
                          np.eye(system.dimension), 0.0, system.tau, FULL_TOL)
    u_frame = traj.vectors[-1].conj().T @ u_lab @ traj.vectors[0]
    leak = 0.0
    if d < system.dimension:
        leak = float(np.max(np.linalg.norm(u_frame[d:, :d], axis=0)))
    return PropagationResult(unitary=u_frame, mode=mode, leakage=leak,
                             unitary_lab=u_lab, trajectory=traj,
                             subspace_dim=d, steps=steps)
