"""Free scalar field with classical sources: modes, creation, probes.

The phi^2 source J2 dresses the mode operator K = -dxx + m^2 + 2 J2;
its eigenfunctions psi_l with eigenvalues omega_l^2 define the particle
modes.  A linear source J1 populates them coherently, so vacuum
persistence and per-mode statistics follow from the overlaps
Jt(omega_l, l) = int dt dx psi_l(x) exp(+i omega_l t) J1(t, x).
"""

from dataclasses import dataclass

import numpy as np

from .errors import (DimensionMismatch, GridTooLarge, InfeasibleNulling,
                     UnstableVacuum, ValidationError, _count)
from .potentials import Grid
from .schrodinger import _fix_signs

ORTHONORMALITY_TOL = 1e-8
FEWBODY_BUDGET = 256 ** 2  # dense/sparse dimension cap: 2 particles x 256 points
KERNEL_STEP = 1.0 / 16.0   # trapezoid step in u of the pair kernel
KERNEL_NODES = 640         # nodes u = k KERNEL_STEP, k = 1..640: |u| <= 40
_KERNEL_COSH = np.cosh(KERNEL_STEP * np.arange(1, KERNEL_NODES + 1))


@dataclass
class ModeBasis:
    omegas: np.ndarray          # ascending; bound modes first
    psis: np.ndarray            # rows, normalized so int psi^2 dx = 1
    n_bound: int
    m: float
    j2: np.ndarray
    grid: Grid

    def overlap_matrix(self):
        """The gram matrix int psi_l psi_m dx, scaled in place."""
        g = self.psis @ self.psis.T
        g *= self.grid.dx
        return g

    def check_orthonormality(self):
        """max |G - I| <= ORTHONORMALITY_TOL, with G the only (n, n) array."""
        g = self.overlap_matrix()
        g[np.diag_indices_from(g)] -= 1.0
        return float(np.max(np.abs(g, out=g))) <= ORTHONORMALITY_TOL


def mode_decomposition(j2, m, grid: Grid, n_continuum=0):
    """Bound plus box-discretized continuum modes of -dxx + m^2 + 2 J2.

    Hard walls at the grid edges quantize the continuum; bound modes are
    those with omega < m.  n_continuum=None keeps every lattice mode.
    The vacuum must be stable: m^2 + 2 J2 > 0 everywhere and every
    omega^2 > 0.

    One call to LAPACK's MRRR driver (dstemr, Dhillon, Parlett and
    Voemel 2006) gives every lattice mode, orthonormal to about 5e-13 at
    n = 1348 (ORTHONORMALITY_TOL is 1e-8); n_bound is read off its
    eigenvalues and a partial request keeps the lowest n_keep modes.
    dstemr calls no level-3 BLAS, unlike divide-and-conquer (dstevd),
    whose merge step runs dgemm on scipy's OpenBLAS thread pool; so a
    caller that follows the solve with numpy products, as the probes do,
    keeps one BLAS thread pool busy, not two competing for the cores.
    Each psi is positive at its leftmost largest-magnitude sample, so the
    sign does not depend on rounding when J2 is mirror-symmetric.
    """
    if not m > 0:
        raise ValidationError(f"need m > 0, got {m!r}")
    j2 = np.asarray(j2, dtype=float)
    if j2.shape != grid.x.shape:
        raise DimensionMismatch("J2 shape does not match the grid")
    if n_continuum is not None:
        n_continuum = _count(n_continuum, "n_continuum")
        if n_continuum < 0:
            raise ValidationError(f"need n_continuum >= 0, got {n_continuum}")
    # NaN or inf in m or J2, or an m^2 + 2 J2 that overflows
    with np.errstate(over="ignore", invalid="ignore"):
        w2 = m * m + 2.0 * j2
    if not np.isfinite(w2).all():
        raise ValidationError("m^2 + 2 J2 must be finite")
    if np.min(w2) <= 0.0:
        raise UnstableVacuum(f"m^2 + 2 J2 reaches {np.min(w2)}")
    dx = grid.dx
    diag = 2.0 / dx ** 2 + w2[1:-1]
    off = -np.ones(len(diag) - 1) / dx ** 2
    from scipy.linalg import eigh_tridiagonal
    w2_modes, vecs = eigh_tridiagonal(diag, off, lapack_driver="stemr")
    n_bound = int(np.sum(w2_modes < m * m * (1.0 - 1e-12)))
    if n_continuum is None:
        n_keep = len(diag)
    else:
        n_keep = n_bound + n_continuum
    if n_keep == 0:
        raise ValidationError("no modes requested: n_continuum = 0 and no bound modes")
    if n_keep > len(diag):
        raise ValidationError("more modes requested than grid supports")
    if w2_modes[0] <= 0.0:
        raise UnstableVacuum(f"mode with omega^2 = {w2_modes[0]}")
    # scaled in place and dropped once copied, so at most two (n, n)
    # arrays are alive at a time
    kept = vecs[:, :n_keep]
    kept /= np.sqrt(dx)
    psis = np.zeros((n_keep, grid.n))
    psis[:, 1:-1] = kept.T
    del vecs, kept
    _fix_signs(psis)
    return ModeBasis(np.sqrt(w2_modes[:n_keep]), psis, n_bound, float(m), j2, grid)


@dataclass
class SourceHistory:
    """J1 sampled on a spacetime grid: values[i_t, i_x]."""
    t: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        self.t = np.asarray(self.t, dtype=float)
        self.values = np.asarray(self.values, dtype=float)
        if self.values.shape[0] != len(self.t):
            raise DimensionMismatch("time axis mismatch")


def source_overlap(j1: SourceHistory, basis: ModeBasis):
    """Jt(omega_l, l): space integral first, then the e^{+i omega t} one."""
    if j1.values.shape[1] != basis.grid.n:
        raise DimensionMismatch("space axis mismatch")
    spatial = np.trapezoid(j1.values[:, None, :] * basis.psis[None, :, :],
                           x=basis.grid.x, axis=2)       # (nt, n_modes)
    phases = np.exp(1j * np.outer(j1.t, basis.omegas))   # (nt, n_modes)
    return np.trapezoid(phases * spatial, x=j1.t, axis=0)


@dataclass
class CreationReport:
    nbar: np.ndarray
    p0: float
    pk: np.ndarray
    poisson_table: np.ndarray   # (n_modes, n_max+1)
    poisson_consistent: bool

    def table_normalization(self):
        return self.poisson_table.sum(axis=1)


def creation_probabilities(overlaps, basis: ModeBasis, poisson_consistent=False,
                           n_max=30):
    """Vacuum persistence and per-mode creation statistics.

    nbar_l = |Jt_l|^2/(2 omega_l), P(0) = exp(-sum nbar).  The printed
    one-particle formula is P(k) = |Jt_k|^2 P(0), which is not the n = 1
    Poisson entry; poisson_consistent=True divides by 2 omega_k so that
    it is.  Both are kept because the source text is self-inconsistent.
    """
    overlaps = np.asarray(overlaps, dtype=complex)
    if overlaps.shape != basis.omegas.shape:
        raise DimensionMismatch("one overlap per mode required")
    if not np.isfinite(overlaps).all():
        raise ValidationError("overlaps must be finite")
    n_max = _count(n_max, "n_max")
    if n_max < 0:
        raise ValidationError(f"need n_max >= 0, got {n_max}")
    nbar = np.abs(overlaps) ** 2 / (2.0 * basis.omegas)
    p0 = float(np.exp(-np.sum(nbar)))
    if poisson_consistent:
        pk = nbar * p0
    else:
        pk = np.abs(overlaps) ** 2 * p0
    ns = np.arange(n_max + 1)
    log_fact = np.cumsum(np.concatenate([[0.0], np.log(np.arange(1, n_max + 1))]))
    with np.errstate(divide="ignore", invalid="ignore"):
        log_nbar = np.where(nbar > 0, np.log(np.where(nbar > 0, nbar, 1.0)), -np.inf)
        # 0 * -inf rows are rewritten below, so the nan is harmless
        log_p = -nbar[:, None] + ns[None, :] * log_nbar[:, None] - log_fact[None, :]
    table = np.exp(log_p)
    table[nbar == 0] = 0.0
    table[nbar == 0, 0] = 1.0
    return CreationReport(nbar, p0, pk, table, poisson_consistent)


@dataclass
class SourceProfile:
    h: np.ndarray
    grid: Grid
    normalized: bool = False

    def __post_init__(self):
        self.h = np.asarray(self.h, dtype=float)
        if self.h.shape != self.grid.x.shape:
            raise DimensionMismatch("profile shape mismatch")
        edge = max(abs(self.h[0]), abs(self.h[-1]))
        if edge > 1e-10 * max(1.0, np.max(np.abs(self.h))):
            raise ValidationError("profile must be supported inside the grid")
        if self.normalized:
            norm = np.trapezoid(self.h ** 2, self.grid.x)
            if abs(norm - 1.0) > 1e-8:
                raise ValidationError("normalized flag set but int h^2 != 1")


def rabi_frequency(g, h: SourceProfile, basis: ModeBasis, target=0):
    """Omega = g int h psi_target dx / sqrt(2 omega_target)."""
    if not 0 <= target < basis.n_bound:
        raise ValidationError("target must be a bound mode")
    overlap = np.trapezoid(h.h * basis.psis[target], basis.grid.x)
    return g * overlap / np.sqrt(2.0 * basis.omegas[target])


def design_source_profile(basis: ModeBasis, target, nulled):
    """Profile maximizing the target matrix element with nulled modes at zero.

    h starts as psi_target and loses its components along the nulled
    modes (Gram-Schmidt on the discrete inner product), then renormalizes.
    """
    n_modes = len(basis.omegas)
    target = _count(target, "target")
    nulled = [_count(i, "nulled index") for i in nulled]
    if not all(0 <= i < n_modes for i in [target] + nulled):
        raise ValidationError(f"mode indices must lie in [0, {n_modes})")
    if target in nulled:
        raise InfeasibleNulling("target mode is in the nulled set")
    dx = basis.grid.dx
    h = basis.psis[target].copy()
    if nulled:
        block = basis.psis[nulled]
        q, _ = np.linalg.qr(block.T * np.sqrt(dx))
        h = h - (q @ (q.T @ (h * np.sqrt(dx)))) / np.sqrt(dx)
    norm2 = np.trapezoid(h ** 2, basis.grid.x)
    if norm2 < 1e-16:
        raise InfeasibleNulling("target lies in the span of the nulled modes")
    return SourceProfile(h / np.sqrt(norm2), basis.grid, normalized=True)


def _attractive_kernel(r, m):
    """int_0^1 dy exp(-m r/sqrt(y(1-y)))/sqrt(y(1-y)), elementwise in r.

    With y = sin^2(v/2) the integral is int_0^pi exp(-2 m r/sin v) dv, and
    with 1/sin v = cosh u it is int exp(-2 m r cosh u) sech u du over the
    real line, which is 2 Ki_1(2 m r) (Ki_1 the Bickley-Naylor function),
    pi at r = 0.  That integrand is even in u, decays, and is analytic in
    |Im u| < pi/2, so the trapezoid rule in u converges geometrically in
    1/KERNEL_STEP; the sum stops at |u| = 40, where sech u < 1e-17.
    Against a 30-digit mpmath value it is within 3e-15 relative for
    2 m r <= 48 and 4e-13 up to 60.

    The nodes are summed one at a time over r sorted ascending.  A term
    with -2 m r cosh u below -746 is exactly 0 (exp underflows below about
    -745.13), so node u adds only to the prefix of sorted r where
    2 m r <= 746/cosh u, and the sum has the bits of the full one.  The
    extra memory is a few arrays the size of r, of any shape; a 0-d r
    gives a 0-d result.
    """
    x = 2.0 * m * np.asarray(r, dtype=float)
    order = np.argsort(x, axis=None)
    x_sorted = x.ravel()[order]
    # node k adds to the first counts[k] entries of x_sorted
    counts = np.searchsorted(x_sorted, 746.0 / _KERNEL_COSH, side="right")
    a_sorted = -x_sorted
    tail_sorted = np.zeros_like(a_sorted)
    term = np.empty_like(a_sorted)
    for c, k in zip(_KERNEL_COSH, counts):
        t = term[:k]
        np.multiply(a_sorted[:k], c, out=t)
        np.exp(t, out=t)
        t /= c
        tail_sorted[:k] += t
    tail = np.empty_like(tail_sorted)
    tail[order] = tail_sorted
    return KERNEL_STEP * (np.exp(-x) + 2.0 * tail.reshape(x.shape))


def effective_potential(r, m, lam):
    """Nonrelativistic pair potential: (contact strength, attractive V(r)).

    The contact strength is lam/(4 m^2) (1 + lam/(4 pi m^2)); the
    attractive exchange tail is V(r) = -lam^2/(32 pi m^3) * 2 Ki_1(2 m r)
    (see _attractive_kernel), a float for a scalar r and an array shaped
    like r otherwise.  Needs 0 < m < inf, a finite lam and r >= 0.
    """
    if not 0 < m < np.inf:
        raise ValidationError("need finite m > 0")
    if not -np.inf < lam < np.inf:
        raise ValidationError("need finite lam")
    rs = np.asarray(r, dtype=float)
    if not np.all(rs >= 0):
        raise ValidationError("need r >= 0")
    contact = (lam / (4.0 * m ** 2)) * (1.0 + lam / (4.0 * np.pi * m ** 2))
    pref = -lam ** 2 / (32.0 * np.pi * m ** 3)
    return contact, pref * _attractive_kernel(rs, m)


@dataclass
class FewBodyHamiltonian:
    matrix: object              # scipy sparse
    n_particles: int
    grid: Grid
    m: float
    lam: float
    include_relativistic: bool

    def lowest_eigenvalues(self, k=4):
        """The k lowest eigenvalues, ascending; needs 1 <= k <= dim."""
        dim = self.matrix.shape[0]
        k = _count(k, "k")
        if not 1 <= k <= dim:
            raise ValidationError(f"need 1 <= k <= {dim}, got {k}")
        # ARPACK needs k < dim; the whole spectrum is a dense solve
        if dim <= 1200 or k == dim:
            w = np.linalg.eigvalsh(self.matrix.toarray())
            return w[:k]
        from scipy.sparse.linalg import eigsh
        return np.sort(eigsh(self.matrix, k=k, which="SA",
                             return_eigenvectors=False))


def nr_hamiltonian_terms(grid: Grid, j2, m, lam, n_particles=1,
                         include_relativistic=False, budget=FEWBODY_BUDGET):
    """Few-body nonrelativistic Hamiltonian on the grid (Dirichlet walls).

    Per particle: p^2/2m (optionally - p^4/8m^3) + J2(x)/m.  Pairs get the
    contact term (a discrete delta of weight contact/dx) plus the
    attractive exchange tail.
    """
    if n_particles not in (1, 2, 3):
        raise ValidationError("1 to 3 particles")
    if not 0 < m < np.inf:
        raise ValidationError("need finite m > 0")
    j2 = np.asarray(j2, dtype=float)
    if j2.shape != grid.x.shape:
        raise DimensionMismatch("J2 shape mismatch")
    n = grid.n - 2                      # interior points
    if n ** n_particles > budget:
        raise GridTooLarge(f"{n}^{n_particles} exceeds budget {budget}")
    import scipy.sparse as sp
    dx = grid.dx
    x_in = grid.x[1:-1]
    k2 = sp.diags([np.full(n, 2.0 / dx ** 2),
                   np.full(n - 1, -1.0 / dx ** 2),
                   np.full(n - 1, -1.0 / dx ** 2)], [0, 1, -1], format="csr")
    t1 = k2 / (2.0 * m)
    if include_relativistic:
        t1 = t1 - (k2 @ k2) / (8.0 * m ** 3)
    v1 = sp.diags(j2[1:-1] / m)
    h1 = (t1 + v1).tocsr()
    if n_particles == 1:
        return FewBodyHamiltonian(h1, 1, grid, m, lam, include_relativistic)

    eye = sp.identity(n, format="csr")
    def lift(op, slot):
        mats = [eye] * n_particles
        mats[slot] = op
        out = mats[0]
        for mm in mats[1:]:
            out = sp.kron(out, mm, format="csr")
        return out

    h = sum(lift(h1, i) for i in range(n_particles))
    # pair interaction sampled on the relative coordinate, the contact
    # term a discrete delta of weight contact/dx at zero separation
    contact, w = effective_potential(np.arange(n) * dx, m, lam)
    w[0] += contact / dx
    idx = np.indices([n] * n_particles).reshape(n_particles, -1)
    pair = sum(w[np.abs(idx[i] - idx[j])]
               for i in range(n_particles) for j in range(i + 1, n_particles))
    h = h + sp.diags(pair, format="csr")
    return FewBodyHamiltonian(h.tocsr(), n_particles, grid, m, lam,
                              include_relativistic)


@dataclass
class ProbeReport:
    """The probe's three numbers, with A and B rebuilt on demand.

    mean, variance and shift are computed by local_energy_probe.  The
    report keeps the basis and its own copy of the window values, so the
    dense (n, n) forms a_matrix (normal-ordered a†a coefficients) and
    b_matrix (a†a† coefficients) are recomputed on each read and are
    not held between reads.
    """
    mean: float
    variance: float
    shift: float
    spacing: float
    basis: ModeBasis
    _window: np.ndarray

    @property
    def a_matrix(self):
        q = _probe_gram(self.basis, self._window)
        return _a_form(q, self.basis.omegas)

    @property
    def b_matrix(self):
        q = _probe_gram(self.basis, self._window)
        return _b_form(q, self.basis.omegas)


def _signed_gram(v, weights, w):
    """(v diag(weights) v^T)_lm / sqrt(w_l w_m) for mode rows v, as
    U+ U+^T - U- U-^T over the columns of positive and negative weight.

    U is as wide as the window; it is freed on return, so the gram is
    the only (n, n) array its callers hold.
    """
    u = v * np.sqrt(np.abs(weights))
    u /= np.sqrt(w)[:, None]
    # numpy's matmul takes the symmetric rank-k (syrk) route, half the
    # flops of a general product, only when both operands are one buffer;
    # with the MRRR mode solve this is the probe's only level-3 BLAS call
    positive = weights > 0
    up = u if positive.all() else u[:, positive]
    q = up @ up.T
    negative = weights < 0
    if negative.any():
        un = u[:, negative]
        q -= un @ un.T
    return q


def _probe_gram(basis: ModeBasis, fvals):
    """S = W^(-1/2) Qt W^(-1/2) for the window values fvals on basis.grid.

    sum_x a f H(x) is the lattice sum of the continuum forms, so Qt is
    the dx-weighted overlap of the int psi^2 dx = 1 mode rows; the points
    where f is exactly zero add nothing, so the product runs over the
    span of its nonzero values only (none: an empty span, S = 0).
    """
    inner = fvals[1:-1]
    nonzero = np.flatnonzero(inner)
    lo, hi = (nonzero[0], nonzero[-1] + 1) if nonzero.size else (0, 0)
    return _signed_gram(basis.psis[:, 1 + lo:1 + hi],
                        inner[lo:hi] * basis.grid.dx, basis.omegas)


def _a_form(q, w):
    """A_lm = S_lm ((w_l + w_m)/2)^2, written over q."""
    half = w / 2.0
    factor = np.add.outer(half, half)
    factor *= factor
    q *= factor
    return q


def _b_form(q, w):
    """B_lm = S_lm ((w_l - w_m)/sqrt(8))^2, written over q."""
    scaled = w / np.sqrt(8.0)
    factor = np.subtract.outer(scaled, scaled)
    factor *= factor
    q *= factor
    return q


def local_energy_probe(f, basis: ModeBasis):
    """Windowed energy H_f = sum_x a f(x) H(x) in the free-mode vacuum.

    The probe spacing a is the basis lattice spacing dx.

    Quadratic-form bookkeeping on the lattice: with K the dressed mode
    operator and F = diag(f), the momentum form is Q = a F and the field
    form is P = a (F K + K F)/2.  In mode space,

        A_lm = (Pt_lm/sqrt(w_l w_m) + sqrt(w_l w_m) Qt_lm)/2
        B_lm = (Pt_lm/sqrt(w_l w_m) - sqrt(w_l w_m) Qt_lm)/4

    give mean = sum_l A_ll/2, variance = 2 sum |B|^2, and the one-bound-
    particle shift A_00.  f identically 1 recovers H itself: zero
    variance and shift omega_0.

    The basis columns V are eigenvectors of this same K (K V = V W^2 with
    W = diag(w)), so V^T F K V = Qt W^2 and V^T K F V = W^2 Qt, for a
    partial basis too.  Hence Pt_lm = Qt_lm (w_l^2 + w_m^2)/2 and

        A_lm = Qt_lm (w_l + w_m)^2 / (4 sqrt(w_l w_m))
        B_lm = Qt_lm (w_l - w_m)^2 / (8 sqrt(w_l w_m)),

    and B carries no cancellation between the two forms.  Both are read
    off one signed symmetric product,

        S = W^(-1/2) Qt W^(-1/2) = U+ U+^T - U- U-^T,
        U = W^(-1/2) V^T sqrt(|F| a),

    with U+ (U-) the columns of U where f > 0 (f < 0), as

        A_lm = S_lm ((w_l + w_m)/2)^2,   B_lm = S_lm ((w_l - w_m)/sqrt(8))^2,

    so A and B are exactly symmetric.  The mean and shift need only A's
    diagonal, w_l^2 S_ll; S then becomes B in place for the variance and
    is dropped, so no (n, n) array outlives the call.  The report keeps
    the basis and a copy of f, and rebuilds A or B when one is read.
    """
    grid = basis.grid
    values = f(grid.x) if callable(f) else f
    try:
        fvals = np.array(values, dtype=float)   # the report's own copy
    except (TypeError, ValueError):
        raise ValidationError(
            f"envelope must be numeric, got {values!r}") from None
    if fvals.shape != grid.x.shape:
        raise DimensionMismatch("envelope shape mismatch")
    if not np.isfinite(fvals).all():
        raise ValidationError("envelope must be finite")
    w = basis.omegas
    q = _probe_gram(basis, fvals)
    # A_ll = S_ll ((w_l + w_l)/2)^2, the same bits as the full form's diagonal
    a_diag = w * w * np.diagonal(q)
    mean = float(0.5 * np.sum(a_diag))
    shift = float(a_diag[0])
    b_mat = _b_form(q, w)
    variance = float(2.0 * np.vdot(b_mat, b_mat))
    return ProbeReport(mean, variance, shift, float(grid.dx), basis, fvals)
