"""Model potentials and grids for the one-dimensional solvers.

The two solvable wells used for gate calibration quote their closed-form
energies with unit kinetic coefficient (hbar = 2m = 1); the square
barrier appears in the propagator analysis with an explicit mass and
kinetic coefficient 1/(2m).
"""

import csv

import numpy as np

from .errors import Unsupported, ValidationError
from .units import UnitsConvention, UNIT_KINETIC, natural


class Grid:
    """Uniform spatial grid on [x0, x1]."""

    def __init__(self, x):
        x = np.asarray(x, dtype=float)
        if x.ndim != 1 or x.size < 8:
            raise ValidationError("grid must be a 1d array with at least 8 points")
        if not np.all(np.isfinite(x)):
            raise ValidationError("grid points must be finite")
        dx = np.diff(x)
        if not np.all(dx > 0):
            raise ValidationError("grid must be strictly increasing")
        if np.max(np.abs(dx - dx.mean())) > 1e-9 * dx.mean():
            raise ValidationError("grid must be uniform")
        self.x = x

    @classmethod
    def symmetric(cls, half_width, n=2048):
        return cls(np.linspace(-half_width, half_width, int(n)))

    @property
    def dx(self):
        return self.x[1] - self.x[0]

    @property
    def n(self):
        return self.x.size

    def __len__(self):
        return self.x.size


class Potential:
    """Base class: callable V(x) plus metadata the solvers need."""

    units: UnitsConvention = UNIT_KINETIC
    # x-values where V jumps; ODE integrations split at these
    breakpoints = ()
    # V(x) -> asymptote as |x| -> inf; bound states live below it
    asymptote = 0.0

    def __call__(self, x):
        raise NotImplementedError

    def decay_length(self):
        """1/kappa of the ground state tail, if known ahead of time."""
        return None

    def exact_energies(self):
        raise Unsupported(f"{type(self).__name__} has no closed-form spectrum")

    def default_grid(self):
        # 19 decay lengths puts the slowest tail near 5e-9 at the wall,
        # inside the post-hoc boundary check
        d = self.decay_length()
        if d is None:
            raise ValidationError(
                f"{type(self).__name__} has no intrinsic length scale; pass a grid"
            )
        return Grid.symmetric(19.0 * d, 2048)


class PoschlTeller(Potential):
    """V(x) = -alpha^2 lam (lam-1) / cosh^2(alpha x), unit kinetic term.

    For lam > 1 the well binds floor-ish(lam-1) states with
    E_n = -alpha^2 (lam-1-n)^2.  The printed pair (V, E_0) solves
    -u'' + V u = E u, so the native convention is hbar = 2m = 1.
    """

    def __init__(self, alpha, lam):
        if not 0 < alpha < np.inf:
            raise ValidationError("alpha must be finite and positive")
        if not 1 < lam < np.inf:
            raise ValidationError("need finite lam > 1 for an attractive well")
        self.alpha = float(alpha)
        self.lam = float(lam)
        self.units = UNIT_KINETIC

    def __call__(self, x):
        a, lam = self.alpha, self.lam
        return -(a ** 2) * lam * (lam - 1.0) / np.cosh(a * np.asarray(x)) ** 2

    def decay_length(self):
        return 1.0 / (self.alpha * (self.lam - 1.0))

    def exact_energies(self):
        a, lam = self.alpha, self.lam
        n = np.arange(int(np.ceil(lam - 1.0 - 1e-12)))
        return -(a ** 2) * (lam - 1.0 - n) ** 2


class QESDoubleWell(Potential):
    """Quasi-exactly-solvable double well, unit kinetic term.

    V(x) = V1/cosh^2 x + V2/(1+g cosh^2 x) + V3/(1+g cosh^2 x)^2 with
    V1 = g(g+2)/(4(1+g)^2), V2 = -4b^2(g+2), V3 = 4b(b+1)(1+g).
    The lowest two levels are known in closed form; their splitting
    2g(2b-1)/(1+g) drives the X gate.
    """

    def __init__(self, g, b):
        # the printed solvability inequality b > g/(2(1+g)) + 1 excludes
        # the b = 1 baseline the gate schedules use, so only positivity
        # is enforced here; see strict_solvability()
        if not (0 < g < np.inf and 0 < b < np.inf):
            raise ValidationError("need finite g > 0 and b > 0")
        self.g = float(g)
        self.b = float(b)
        self.units = UNIT_KINETIC

    def __call__(self, x):
        g, b = self.g, self.b
        v1 = g * (g + 2.0) / (4.0 * (1.0 + g) ** 2)
        v2 = -4.0 * b ** 2 * (g + 2.0)
        v3 = 4.0 * b * (b + 1.0) * (1.0 + g)
        ch2 = np.cosh(np.asarray(x)) ** 2
        den = 1.0 + g * ch2
        return v1 / ch2 + v2 / den + v3 / den ** 2

    def strict_solvability(self):
        """The inequality as printed in the source analysis."""
        return self.b > self.g / (2.0 * (1.0 + self.g)) + 1.0

    def decay_length(self):
        return 1.0 / np.sqrt(-self.exact_energies()[0])

    def exact_energies(self):
        g, b = self.g, self.b
        e1 = -((2.0 + g - 4.0 * b * (1.0 + g)) ** 2) / (4.0 * (1.0 + g) ** 2)
        e2 = -((2.0 + 3.0 * g - 4.0 * b * (1.0 + g)) ** 2) / (4.0 * (1.0 + g) ** 2)
        return np.array([e1, e2])

    def splitting(self):
        """E2 - E1 = 2g(2b-1)/(1+g)."""
        return 2.0 * self.g * (2.0 * self.b - 1.0) / (1.0 + self.g)


class SquareBarrier(Potential):
    """Square barrier of height V0 on [-width/2, width/2], mass m explicit."""

    def __init__(self, height, width, mass=1.0):
        if width <= 0 or mass <= 0:
            raise ValidationError("need width > 0 and mass > 0")
        self.height = float(height)
        self.width = float(width)
        self.mass = float(mass)
        self.units = natural(mass)
        self.breakpoints = (-self.width / 2.0, self.width / 2.0)

    def __call__(self, x):
        x = np.asarray(x)
        return np.where(np.abs(x) <= self.width / 2.0, self.height, 0.0)

    def decay_length(self):
        return self.width


class Tabulated(Potential):
    """Potential sampled on a grid; linear interpolation off-sample.

    The samples must be finite and the x values distinct; they may come in
    any order.
    """

    def __init__(self, x, v, units=UNIT_KINETIC):
        x = np.asarray(x, dtype=float)
        v = np.asarray(v, dtype=float)
        if x.shape != v.shape or x.ndim != 1:
            raise ValidationError("x and V(x) must be 1d arrays of equal length")
        if not (np.all(np.isfinite(x)) and np.all(np.isfinite(v))):
            raise ValidationError("x and V(x) must be finite")
        order = np.argsort(x)
        self.x = x[order]
        if np.any(np.diff(self.x) == 0.0):
            raise ValidationError("x values must be distinct")
        self.v = v[order]
        self.units = units
        self.asymptote = min(self.v[0], self.v[-1])

    @classmethod
    def from_csv(cls, path):
        """Two columns x, V(x); header row; UTF-8; '.' decimal separator."""
        xs, vs = [], []
        with open(path, newline="", encoding="utf-8") as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            if header is None:
                raise ValidationError(f"{path}: empty file")
            for row in reader:
                if not row or not row[0].strip():
                    continue
                try:
                    xs.append(float(row[0]))
                    vs.append(float(row[1]))
                except (IndexError, ValueError) as exc:
                    raise ValidationError(f"{path}: bad row {row!r}") from exc
        if len(xs) < 8:
            raise ValidationError(f"{path}: need at least 8 samples")
        return cls(np.array(xs), np.array(vs))

    def __call__(self, x):
        return np.interp(np.asarray(x), self.x, self.v)
