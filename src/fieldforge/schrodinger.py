"""Bound states, tunneling estimates, and Wronskian Green's functions in 1d.

Everything here works on the stationary problem H u = -c u'' + V u with
c the kinetic coefficient of the potential's units convention.
"""

from dataclasses import dataclass

import numpy as np
from scipy.integrate import solve_ivp
from scipy.linalg import eigh_tridiagonal

from .errors import (
    BoxTooSmall,
    ClassicallyAllowed,
    IntegrationFailure,
    NoBoundStates,
    ValidationError,
)
from .potentials import Grid, Potential, SquareBarrier
from .units import natural

TAIL_TOL = 1e-8
NORM_TOL = 1e-10


@dataclass
class BoundStates:
    energies: np.ndarray
    wavefunctions: np.ndarray  # row k is psi_k on grid.x, trapezoid-normalized
    grid: Grid
    potential: Potential

    def __len__(self):
        return self.energies.size


def solve_bound_states(potential, grid=None, max_states=None, tail_tol=TAIL_TOL):
    """Finite-difference bound spectrum of -c u'' + V u = E u.

    Second-order central differences with hard walls at the grid ends.
    Bound means E below the potential's asymptote.  Raises NoBoundStates
    when nothing lies below, BoxTooSmall when a returned state has not
    decayed at the boundary (relative tail above tail_tol).  An explicit
    grid is used as given; with grid=None the solver picks one from the
    potential's decay length and widens it (same spacing) until the
    shallowest kept state has decayed too.
    """
    if max_states is not None and max_states < 1:
        raise ValidationError("max_states must be at least 1")
    if grid is not None:
        return _solve_on_grid(potential, grid, max_states, tail_tol)
    grid = potential.default_grid()
    half = grid.x[-1]
    n = grid.x.size
    for attempt in range(5):
        try:
            return _solve_on_grid(potential, grid, max_states, tail_tol)
        except BoxTooSmall:
            if attempt == 4:
                raise
            half *= 2.0
            n = 2 * (n - 1) + 1
            grid = Grid.symmetric(half, n)


def _solve_on_grid(potential, grid, max_states, tail_tol):
    x = grid.x
    dx = grid.dx
    c = potential.units.kinetic_coefficient
    v = np.asarray(potential(x), dtype=float)

    # interior-point tridiagonal; hard walls drop the end points
    diag = 2.0 * c / dx ** 2 + v[1:-1]
    off = -c / dx ** 2 * np.ones(x.size - 3)
    ceiling = float(potential.asymptote)
    floor = min(v.min(), ceiling) - 1.0
    w, vecs = eigh_tridiagonal(diag, off, select="v", select_range=(floor, ceiling))
    keep = w < ceiling - 1e-12
    w, vecs = w[keep], vecs[:, keep]
    if w.size == 0:
        raise NoBoundStates(f"no level below {ceiling} on this grid")
    if max_states is not None:
        w, vecs = w[:max_states], vecs[:, :max_states]

    psis = np.zeros((w.size, x.size))
    for k in range(w.size):
        psi = np.zeros(x.size)
        psi[1:-1] = vecs[:, k]
        norm = np.sqrt(np.trapezoid(psi ** 2, x))
        psi /= norm
        imax = np.argmax(np.abs(psi))
        if psi[imax] < 0:
            psi = -psi
        tail = max(abs(psi[1]), abs(psi[-2])) / np.abs(psi).max()
        if tail > tail_tol:
            raise BoxTooSmall(
                f"state {k}: boundary amplitude {tail:.2e} exceeds {tail_tol:.0e}"
            )
        psis[k] = psi
    return BoundStates(w, psis, grid, potential)


def exact_energies(potential):
    """Closed-form spectrum where one exists (see the potential classes)."""
    return potential.exact_energies()


@dataclass
class TunnelingEstimate:
    wkb_factor: float          # W = exp(-l sqrt(2m(V-E)))
    interaction_strength: float  # (lam/m^2) W^2
    kappa: float


def tunneling_and_interaction_estimates(v_height, length, energy, m, lam):
    """Single-exponential estimates for a square barrier.

    Tunneling amplitude W = exp(-l sqrt(2m(V-E))) versus the two-particle
    interaction strength (lam/m^2) W^2 across the same barrier.
    """
    if m <= 0 or length <= 0:
        raise ValidationError("need m > 0 and length > 0")
    if v_height < energy:
        raise ClassicallyAllowed(f"E = {energy} is above the barrier {v_height}")
    kappa = np.sqrt(2.0 * m * (v_height - energy))
    w = np.exp(-length * kappa)
    return TunnelingEstimate(w, (lam / m ** 2) * w ** 2, kappa)


@dataclass
class WronskianResult:
    value: float
    samples: np.ndarray     # W evaluated at interior check points
    x_checks: np.ndarray
    u_left: object          # callables x -> (u, u')
    u_right: object


class _PiecewiseSolution:
    """Dense ODE solution stitched across discontinuity segments."""

    def __init__(self, segments):
        self.segments = segments  # list of (lo, hi, OdeSolution)

    def __call__(self, x):
        for lo, hi, sol in self.segments:
            if lo - 1e-12 <= x <= hi + 1e-12:
                return sol(x)
        raise ValidationError(f"x = {x} outside the integrated range")


def _integrate_solution(potential, z, x_from, x_to, u0, du0, rtol):
    """Propagate (u, u') through c u'' = (V - z) u, splitting at jumps."""
    c = potential.units.kinetic_coefficient

    def rhs(x, y):
        return [y[1], (potential(x) - z) / c * y[0]]

    cuts = [b for b in potential.breakpoints if min(x_from, x_to) < b < max(x_from, x_to)]
    cuts.sort(reverse=x_to < x_from)
    y = np.array([u0, du0])
    segments = []
    for seg_end in cuts + [x_to]:
        sol = solve_ivp(rhs, (x_from, seg_end), y, method="RK45",
                        rtol=rtol, atol=1e-300, dense_output=True)
        if not sol.success:
            raise IntegrationFailure(sol.message)
        segments.append((min(x_from, seg_end), max(x_from, seg_end), sol.sol))
        y = sol.y[:, -1]
        x_from = seg_end
    return _PiecewiseSolution(segments), y


def wronskian(potential, z, rtol=1e-10, n_checks=5):
    """W(z) = u_L' u_R - u_L u_R' for the decaying solutions of (H - z)u = 0.

    u_L and u_R start from exponential asymptotics with amplitude sqrt(2)
    at the left/right edge of the potential's support; that normalization
    reproduces the closed-form W of the square barrier (free case
    W = 4 m exp(m l)).  W is checked for x-independence at n_checks
    interior points.
    """
    c = potential.units.kinetic_coefficient
    if potential.breakpoints:
        x_l, x_r = min(potential.breakpoints), max(potential.breakpoints)
    else:
        d = potential.decay_length()
        if d is None:
            raise ValidationError("potential needs breakpoints or a decay length")
        x_l, x_r = -12.0 * d, 12.0 * d
    v_inf = potential.asymptote
    if z >= v_inf:
        raise ValidationError(f"need z < asymptote {v_inf} for decaying solutions")
    kap = np.sqrt((v_inf - z) / c)

    amp = np.sqrt(2.0)
    # left solution grows as exp(+kap x), amplitude referenced at x_l
    sol_l, _ = _integrate_solution(potential, z, x_l, x_r, amp, kap * amp, rtol)
    # right solution decays as exp(-kap x), amplitude referenced at x_r
    sol_r, _ = _integrate_solution(potential, z, x_r, x_l, amp, -kap * amp, rtol)

    xs = np.linspace(x_l, x_r, n_checks + 2)[1:-1]
    ws = np.empty(xs.size)
    for i, xc in enumerate(xs):
        ul, dul = sol_l(xc)
        ur, dur = sol_r(xc)
        ws[i] = dul * ur - ul * dur
    w = ws[n_checks // 2]
    spread = np.max(np.abs(ws - w)) / max(abs(w), 1e-300)
    if spread > 1e-8:
        raise IntegrationFailure(f"Wronskian drifts by {spread:.2e} across the box")
    return WronskianResult(w, ws, xs, sol_l, sol_r)


@dataclass
class DressedPropagator:
    value: float              # -2/W, from the numerical Wronskian
    closed_form: float        # -2/W with the closed-form W
    large_separation: float   # leading exponential asymptote
    wronskian_numeric: float
    wronskian_closed: float
    m_eff: float


def barrier_wronskian_closed_form(m, v_height, length):
    """W = 4m(cosh(kappa l) + ((m^2+mV)/(m kappa)) sinh(kappa l)), kappa = m_eff."""
    kap = np.sqrt(m ** 2 + 2.0 * m * v_height)
    return 4.0 * m * (np.cosh(kap * length)
                      + (m ** 2 + m * v_height) / (m * kap) * np.sinh(kap * length))


def dressed_propagator(m, v_height, length, rtol=1e-10):
    """Two-point amplitude across a square barrier in the quadratic source.

    The barrier raises the quadratic source by m*V over a width l, so the
    exchanged quantum propagates with effective mass sqrt(m^2 + 2mV).
    Returns the edge-to-edge value -2/W together with its closed form and
    the large-separation asymptote.
    """
    if m <= 0:
        raise ValidationError("need m > 0")
    barrier = SquareBarrier(v_height, length, mass=m)
    w_num = wronskian(barrier, z=-m / 2.0, rtol=rtol).value
    w_closed = barrier_wronskian_closed_form(m, v_height, length)
    m_eff = np.sqrt(m ** 2 + 2.0 * m * v_height)
    ratio = (m ** 2 + m * v_height) / (m * m_eff)
    large = -np.exp(-m_eff * length) / (m * (1.0 + ratio))
    return DressedPropagator(
        value=-2.0 / w_num,
        closed_form=-2.0 / w_closed,
        large_separation=large,
        wronskian_numeric=w_num,
        wronskian_closed=w_closed,
        m_eff=m_eff,
    )


def greens_function(potential, z, x1, x2, rtol=1e-10):
    """G(x1, x2; z) = u_L(x<) u_R(x>) / (c W); independent of normalization."""
    res = wronskian(potential, z, rtol=rtol)
    c = potential.units.kinetic_coefficient
    lo, hi = min(x1, x2), max(x1, x2)
    ul = res.u_left(lo)[0]
    ur = res.u_right(hi)[0]
    return ul * ur / (c * res.value)
