"""The one time propagator for time-dependent Hamiltonians."""

import numpy as np
from scipy.integrate import solve_ivp

from .errors import IntegrationFailure

ATOL = 1e-14


def evolve(h, y0, t0, t1, rtol):
    """Integrate i dY/dt = H(t) Y from t0 to t1 with DOP853.

    y0 is a state vector or a matrix whose columns evolve together (y0 = I
    gives the propagator).  Returns Y(t1) with the shape of y0.
    """
    y0 = np.asarray(y0, dtype=complex)
    shape = y0.shape

    def rhs(t, y):
        return (-1j * h(t) @ y.reshape(shape)).ravel()

    sol = solve_ivp(rhs, (t0, t1), y0.ravel(), method="DOP853",
                    rtol=rtol, atol=ATOL)
    if not sol.success:
        raise IntegrationFailure(sol.message)
    return sol.y[:, -1].reshape(shape)
