"""The one time propagator for time-dependent Hamiltonians.

Fourth-order Magnus steps on the two-point Gauss-Legendre rule (Blanes,
Casas, Oteo and Ros, Phys. Rep. 470, 151 (2009)).  With H1 and H2 the
Hamiltonian at t + (1/2 -+ sqrt(3)/6) dt, one step is exactly exp(-i K),

    K = dt/2 (H1 + H2) - i (sqrt(3)/12) dt^2 [H2, H1].

evolve is the one driver and its caller picks the step kernel; no matrix
size is dispatched on.  hermitian(h) takes one batched eigh of the steps,
two_level(h) a closed form in the Pauli basis and quaternion products, and
both reduce pairwise (log depth), BLOCK steps at a time, so memory is flat.
"""

import numpy as np

from .errors import IntegrationFailure, ValidationError

FIRST_STEPS = 64
MAX_STEPS = 2 ** 22
BLOCK = 8192
_NODE = np.sqrt(3.0) / 6.0     # Gauss nodes at 1/2 -+ _NODE of a step
_COMMUTATOR = np.sqrt(3.0) / 12.0


def evolve(block, y0, t0, t1, tol):
    """Integrate i dY/dt = H(t) Y from t0 to t1 with 4th-order Magnus steps.

    block is the step kernel, hermitian(h) or two_level(h): it maps the
    Gauss nodes of a run of steps, in pairs, and dt to their ordered
    product.  y0 is a state vector or a matrix whose columns evolve
    together (y0 = I gives the propagator).  The step count starts at
    FIRST_STEPS and doubles until max|Y_2n - Y_n| / 15 < tol, the
    Richardson estimate of the error of Y_2n.  Returns (Y(t1) from the 2n
    steps, the number of steps taken over all the doublings).
    """
    y0 = np.asarray(y0, dtype=complex)
    prev, taken, n = None, 0, FIRST_STEPS
    while n <= MAX_STEPS:
        y = _propagator(block, t0, t1, n, y0.shape[0]) @ y0
        taken += n
        if prev is not None:
            err = np.max(np.abs(y - prev)) / 15.0
            if err < tol:
                return y, taken
            if not np.isfinite(err):
                raise IntegrationFailure("Magnus steps went non-finite")
        prev, n = y, 2 * n
    raise IntegrationFailure(f"no convergence to {tol:g} in {MAX_STEPS} steps")


def _propagator(block, t0, t1, n, d):
    """Product of n Magnus steps over [t0, t1], built BLOCK steps at a time."""
    dt = (t1 - t0) / n
    u = np.eye(d, dtype=complex)
    for lo in range(0, n, BLOCK):
        mid = np.arange(lo, min(lo + BLOCK, n)) + 0.5
        nodes = np.stack([mid - _NODE, mid + _NODE], axis=1).ravel()
        step = block(t0 + (t1 - t0) * nodes / n, dt)
        if step.shape != (d, d):
            raise ValidationError(f"step product has shape {step.shape}")
        u = step @ u
    return u


def hermitian(h):
    """Kernel for h mapping n times to an (n, d, d) Hermitian stack."""
    def block(t, dt):
        hs = np.asarray(h(t), dtype=complex)
        if hs.shape != (t.size,) + hs.shape[-1:] * 2:
            raise ValidationError(f"h returned shape {hs.shape}")
        h1, h2 = hs[0::2], hs[1::2]
        return exp_product(0.5 * dt * (h1 + h2)
                           - 1j * _COMMUTATOR * dt ** 2 * (h2 @ h1 - h1 @ h2))
    return block


def two_level(h):
    """Kernel for h mapping n times to (a0, a) of shapes (n,) and (n, 3),
    with H = a0 I + a.sigma; [H2, H1] = 2i (a2 x a1).sigma."""
    def block(t, dt):
        a0, a = h(t)
        return _two_level_product(
            0.5 * dt * (a0[0::2] + a0[1::2]),
            0.5 * dt * (a[0::2] + a[1::2])
            + 2.0 * _COMMUTATOR * dt ** 2 * _cross(a[1::2], a[0::2]))
    return block


def exp_product(k):
    """Ordered product exp(-i k[-1]) ... exp(-i k[0]) of a Hermitian stack."""
    w, v = np.linalg.eigh(k)
    steps = (v * np.exp(-1j * w)[:, np.newaxis, :]) @ v.conj().transpose(0, 2, 1)
    return _reduce(steps, np.matmul)


def _cross(u, v):
    out = np.empty_like(u)
    for i, j, k in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
        out[:, i] = u[:, j] * v[:, k] - u[:, k] * v[:, j]
    return out


def _two_level_product(a0, a):
    """Closed form: exp(-i (a0 I + a.sigma)) = e^{-i a0} (cos r - i sin r
    a.sigma / r) with r = |a|.  The SU(2) parts multiply as the unit
    quaternions (cos r, sin(r) a / r)."""
    r = np.sqrt(np.sum(a * a, axis=1))
    quats = np.empty((len(a), 4))
    quats[:, 0] = np.cos(r)
    quats[:, 1:] = np.sinc(r / np.pi)[:, np.newaxis] * a
    q0, q1, q2, q3 = _reduce(quats, _quaternion_product)
    return np.exp(-1j * np.sum(a0)) * np.array([[q0 - 1j * q3, -1j * q1 - q2],
                                                [-1j * q1 + q2, q0 + 1j * q3]])


def _quaternion_product(q, p):
    """Rows of (q0 I - i q.sigma)(p0 I - i p.sigma), as quaternions."""
    q0, q1, q2, q3 = q.T
    p0, p1, p2, p3 = p.T
    out = np.empty_like(q)
    out[:, 0] = q0 * p0 - q1 * p1 - q2 * p2 - q3 * p3
    out[:, 1] = q0 * p1 + p0 * q1 + q2 * p3 - q3 * p2
    out[:, 2] = q0 * p2 + p0 * q2 + q3 * p1 - q1 * p3
    out[:, 3] = q0 * p3 + p0 * q3 + q1 * p2 - q2 * p1
    return out


def _reduce(x, mul):
    """Ordered product x[-1] ... x[0] by pairwise reduction (log depth)."""
    while len(x) > 1:
        even = len(x) // 2 * 2
        x = np.concatenate([mul(x[1:even:2], x[0:even:2]), x[even:]])
    return x[0]
