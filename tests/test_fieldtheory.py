import tracemalloc
import warnings

import mpmath as mp
import numpy as np
import pytest
import scipy.sparse as sp
from scipy.integrate import quad
from scipy.linalg import eigh_tridiagonal, expm

from fieldforge.errors import (
    DimensionMismatch,
    GridTooLarge,
    InfeasibleNulling,
    UnstableVacuum,
    ValidationError,
)
from fieldforge.compiler import CompileParams
from fieldforge.fieldtheory import (
    KERNEL_NODES,
    KERNEL_STEP,
    ORTHONORMALITY_TOL,
    ModeBasis,
    SourceHistory,
    SourceProfile,
    _attractive_kernel,
    creation_probabilities,
    design_source_profile,
    effective_potential,
    local_energy_probe,
    mode_decomposition,
    nr_hamiltonian_terms,
    rabi_frequency,
    source_overlap,
)
from fieldforge.gates import WELL_GRID
from fieldforge.potentials import Grid
from fieldforge.schrodinger import _fix_signs


def square_well(x, depth=0.45, half_width=1.5):
    return np.where(np.abs(x) <= half_width, -depth, 0.0)


@pytest.fixture(scope="module")
def free_basis():
    grid = Grid.symmetric(10.0, 201)
    return mode_decomposition(np.zeros(grid.n), 1.0, grid, n_continuum=6)


@pytest.fixture(scope="module")
def well_basis():
    # sqrt(2*0.45)*4.0 > pi, so at least three bound modes
    grid = Grid.symmetric(20.0, 1201)
    j2 = square_well(grid.x, depth=0.45, half_width=4.0)
    return mode_decomposition(j2, 1.0, grid, n_continuum=5)


def dirichlet_fd_eigenvalues(grid, count):
    # exact spectrum of the lattice Laplacian with hard walls
    j = np.arange(1, count + 1)
    length = grid.x[-1] - grid.x[0]
    return 4.0 / grid.dx ** 2 * np.sin(j * np.pi * grid.dx / (2.0 * length)) ** 2


def test_free_modes_match_lattice_dispersion(free_basis):
    grid = free_basis.grid
    lam = dirichlet_fd_eigenvalues(grid, 6)
    assert free_basis.n_bound == 0
    assert np.all(np.diff(free_basis.omegas) > 0)
    np.testing.assert_allclose(free_basis.omegas ** 2, 1.0 + lam, rtol=1e-10)


def test_mode_basis_orthonormal(free_basis):
    g = free_basis.overlap_matrix()
    np.testing.assert_allclose(g, np.eye(len(free_basis.omegas)), atol=1e-10)
    assert free_basis.check_orthonormality()
    norms = np.trapezoid(free_basis.psis ** 2, free_basis.grid.x, axis=1)
    np.testing.assert_allclose(norms, 1.0, rtol=1e-12)


def test_orthonormality_flag_detects_tampering(free_basis):
    bad = ModeBasis(free_basis.omegas, 1.1 * free_basis.psis,
                    free_basis.n_bound, free_basis.m, free_basis.j2,
                    free_basis.grid)
    assert not bad.check_orthonormality()


@pytest.fixture(scope="module")
def full_basis():
    grid = Grid.symmetric(20.0, 602)
    return mode_decomposition(square_well(grid.x), 1.0, grid,
                              n_continuum=None)


def test_mode_decomposition_memory(full_basis):
    grid = full_basis.grid
    n = len(full_basis.omegas)
    tracemalloc.start()
    try:
        basis = mode_decomposition(full_basis.j2, 1.0, grid, n_continuum=None)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # the eigenvectors scale in place and are dropped once copied:
    # about 2.5 (n, n) arrays at the peak, 3.5 for an out-of-place scale
    assert peak < 3.0 * n * n * 8
    diag = 2.0 / grid.dx ** 2 + (1.0 + 2.0 * basis.j2[1:-1])   # m = 1
    w2, vecs = eigh_tridiagonal(diag, -np.ones(n - 1) / grid.dx ** 2,
                                lapack_driver="stemr")
    want = np.zeros((n, grid.n))
    want[:, 1:-1] = (vecs / np.sqrt(grid.dx)).T
    _fix_signs(want)
    assert basis.psis.tobytes() == want.tobytes()
    assert basis.omegas.tobytes() == np.sqrt(w2).tobytes()


def test_overlap_checks_hold_one_gram(full_basis):
    n = len(full_basis.omegas)
    g = full_basis.psis @ full_basis.psis.T * full_basis.grid.dx
    for name in ("overlap_matrix", "check_orthonormality"):
        tracemalloc.start()
        try:
            out = getattr(full_basis, name)()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # the gram is scaled, shifted and made absolute in place: one
        # (n, n) array, three for out-of-place forms
        assert peak < 1.5 * n * n * 8, name
    assert full_basis.overlap_matrix().tobytes() == g.tobytes()
    assert out is bool(np.max(np.abs(g - np.eye(n))) <= ORTHONORMALITY_TOL)


def test_bound_mode_matches_shooting_route():
    from fieldforge.potentials import SquareBarrier
    from fieldforge.schrodinger import solve_bound_states

    grid = Grid.symmetric(20.0, 4001)
    basis = mode_decomposition(square_well(grid.x), 1.0, grid, n_continuum=0)
    assert basis.n_bound == 1
    res = solve_bound_states(SquareBarrier(-0.45, 3.0))
    w0 = np.sqrt(1.0 + 2.0 * res.energies[0])
    assert basis.omegas[0] == pytest.approx(w0, abs=5e-4)


def test_unstable_vacuum_raises():
    grid = Grid.symmetric(5.0, 64)
    with pytest.raises(UnstableVacuum):
        mode_decomposition(np.full(grid.n, -0.5), 1.0, grid, n_continuum=2)


def test_mode_decomposition_validation():
    grid = Grid.symmetric(5.0, 64)
    with pytest.raises(ValidationError):
        mode_decomposition(np.zeros(grid.n), 0.0, grid)
    with pytest.raises(DimensionMismatch):
        mode_decomposition(np.zeros(grid.n - 1), 1.0, grid)
    with pytest.raises(ValidationError):
        mode_decomposition(np.zeros(grid.n), 1.0, grid, n_continuum=0)
    with pytest.raises(ValidationError):
        mode_decomposition(np.zeros(grid.n), 1.0, grid, n_continuum=grid.n - 1)
    full = mode_decomposition(np.zeros(grid.n), 1.0, grid, n_continuum=None)
    assert len(full.omegas) == grid.n - 2
    for m in (np.nan, np.inf, 1e200):
        with pytest.raises(ValidationError):
            mode_decomposition(np.zeros(grid.n), m, grid)
    for bad in (np.nan, np.inf, -np.inf, 1e308):
        j2 = np.zeros(grid.n)
        j2[grid.n // 2] = bad
        with pytest.raises(ValidationError):
            mode_decomposition(j2, 1.0, grid)
    for n_continuum in (2.7, -5, "2"):
        with pytest.raises(ValidationError):
            mode_decomposition(np.zeros(grid.n), 1.0, grid,
                               n_continuum=n_continuum)
    assert len(mode_decomposition(np.zeros(grid.n), 1.0, grid,
                                  n_continuum=3.0).omegas) == 3


def _leftmost_peak(rows):
    mag = np.abs(rows)
    first = np.argmax(mag >= (1.0 - 1e-8) * mag.max(axis=1, keepdims=True), axis=1)
    return rows[np.arange(len(rows)), first]


@pytest.mark.parametrize("centre", [1.3, 0.0], ids=["off-centre", "centred"])
def test_spectrum_matches_index_selection(centre):
    # MRRR against bisection plus inverse iteration
    # (select="i"); the centred well is mirror-symmetric, so odd modes have
    # equal peaks at +-x and only a tie-robust sign rule makes both agree
    grid = Grid.symmetric(15.0, 241)
    j2 = square_well(grid.x - centre, depth=0.4, half_width=2.5)
    basis = mode_decomposition(j2, 1.0, grid, n_continuum=None)
    dx = grid.dx
    diag = 2.0 / dx ** 2 + 1.0 + 2.0 * j2[1:-1]
    off = np.full(len(diag) - 1, -1.0 / dx ** 2)
    w2, vecs = eigh_tridiagonal(diag, off, select="i",
                                select_range=(0, len(diag) - 1))
    np.testing.assert_allclose(basis.omegas ** 2, w2, rtol=1e-10)
    assert basis.n_bound == int(np.sum(w2 < 1.0 - 1e-12)) > 0
    assert np.all(_leftmost_peak(basis.psis) > 0)
    ref = vecs.T / np.sqrt(dx)
    ref *= np.where(_leftmost_peak(ref) < 0, -1.0, 1.0)[:, None]
    np.testing.assert_allclose(basis.psis[:, 1:-1], ref, rtol=0.0, atol=1e-8)
    partial = mode_decomposition(j2, 1.0, grid, n_continuum=5)
    n_keep = basis.n_bound + 5
    assert partial.n_bound == basis.n_bound
    np.testing.assert_array_equal(partial.omegas, basis.omegas[:n_keep])
    np.testing.assert_array_equal(partial.psis, basis.psis[:n_keep])


def test_sign_rule_picks_left_peak_of_odd_modes():
    grid = Grid.symmetric(15.0, 241)
    basis = mode_decomposition(square_well(grid.x, depth=0.4, half_width=2.5),
                               1.0, grid, n_continuum=None)
    x = grid.x
    for psi in basis.psis[1::2]:      # odd under x -> -x
        np.testing.assert_allclose(psi, -psi[::-1], atol=1e-10)
        peaks = np.flatnonzero(np.abs(psi) >= (1.0 - 1e-8) * np.max(np.abs(psi)))
        assert x[peaks[0]] < 0 and psi[peaks[0]] > 0


@pytest.mark.parametrize("separation", [4.0, 12.0, 20.0, 30.0, None],
                         ids=["s4", "s12", "s20", "s30", "probe"])
def test_mrrr_resolves_tight_doublets(separation):
    # MRRR's orthogonality rests on its relative-gap analysis, so tight
    # clusters are where it is weakest: the two-well doublets split by
    # 8e-2 (s = 4/m) down to 8e-6 (s = 30/m); "probe" is the numerics
    # probe's single Gaussian well, at its grid size
    grid = Grid.symmetric(54.0, 1350)
    x = grid.x
    if separation is None:
        j2 = -0.4 * np.exp(-x ** 2 / (2.0 * 1.5 ** 2))
    else:
        # wells of depth 0.2 and width 1.0 at +-separation/2, made
        # bit-symmetric under x -> -x (linspace is not), so each mode is
        # even or odd and the doublet's members do not mix
        one = -0.2 * np.exp(-(x - separation / 2.0) ** 2 / 2.0)
        j2 = one + one[::-1]
    basis = mode_decomposition(j2, 1.0, grid, n_continuum=None)
    g = basis.overlap_matrix()
    g[np.diag_indices_from(g)] -= 1.0
    assert basis.check_orthonormality()
    assert np.max(np.abs(g)) < 1e-11
    dx = grid.dx
    k = np.diag(2.0 / dx ** 2 + 1.0 + 2.0 * j2[1:-1])
    k[np.arange(1, k.shape[0]), np.arange(k.shape[0] - 1)] = -1.0 / dx ** 2
    w2, vecs = np.linalg.eigh(k, UPLO="L")
    np.testing.assert_allclose(basis.omegas, np.sqrt(w2), rtol=1e-12, atol=0)
    assert basis.n_bound == int(np.sum(w2 < 1.0 - 1e-12)) == 2
    if separation is not None:
        splitting = basis.omegas[1] - basis.omegas[0]
        assert 5e-6 < splitting < 0.1
    for psi, ref in zip(basis.psis[:2, 1:-1] * np.sqrt(dx), vecs.T[:2]):
        gap = min(np.max(np.abs(psi - ref)), np.max(np.abs(psi + ref)))
        assert gap < 1e-8
        parity = min(np.max(np.abs(psi - psi[::-1])),
                     np.max(np.abs(psi + psi[::-1])))
        assert parity < 1e-9


def test_source_overlap_separable(free_basis):
    grid = free_basis.grid
    t = np.linspace(0.0, 4.0, 97)
    f_t = np.sin(1.3 * t) * np.exp(-0.2 * t)
    h_x = np.exp(-grid.x ** 2)
    hist = SourceHistory(t, f_t[:, None] * h_x[None, :])
    got = source_overlap(hist, free_basis)
    spatial = np.trapezoid(h_x * free_basis.psis, grid.x, axis=1)
    temporal = np.trapezoid(
        f_t[:, None] * np.exp(1j * np.outer(t, free_basis.omegas)), x=t, axis=0)
    np.testing.assert_allclose(got, spatial * temporal, rtol=1e-12, atol=1e-12)


def test_source_overlap_shape_errors(free_basis):
    t = np.linspace(0.0, 1.0, 11)
    with pytest.raises(DimensionMismatch):
        SourceHistory(t, np.zeros((10, free_basis.grid.n)))
    hist = SourceHistory(t, np.zeros((11, free_basis.grid.n - 3)))
    with pytest.raises(DimensionMismatch):
        source_overlap(hist, free_basis)


def test_vacuum_persistence_matches_displacement_operator(free_basis):
    rng = np.random.default_rng(7)
    n_modes = len(free_basis.omegas)
    overlaps = 0.6 * (rng.normal(size=n_modes) + 1j * rng.normal(size=n_modes))
    report = creation_probabilities(overlaps, free_basis)
    np.testing.assert_allclose(
        report.nbar, np.abs(overlaps) ** 2 / (2.0 * free_basis.omegas),
        rtol=1e-12)
    assert report.p0 == pytest.approx(np.exp(-np.sum(report.nbar)), rel=1e-12)
    # independent route: truncated-Fock displacement operator per mode
    n_fock = 48
    a_op = np.diag(np.sqrt(np.arange(1.0, n_fock)), k=1)
    p0 = 1.0
    for jt, w in zip(overlaps, free_basis.omegas):
        alpha = jt / np.sqrt(2.0 * w)
        d_op = expm(alpha * a_op.conj().T - np.conj(alpha) * a_op)
        p0 *= abs(d_op[0, 0]) ** 2
    assert report.p0 == pytest.approx(p0, rel=1e-9)


def test_poisson_table_normalized(free_basis):
    overlaps = np.array([0.5, -0.3 + 0.2j, 0.8j, 0.1, 0.0, 0.4])
    report = creation_probabilities(overlaps, free_basis, n_max=40)
    assert report.poisson_table.shape == (6, 41)
    np.testing.assert_allclose(report.table_normalization(), 1.0, atol=1e-10)
    from scipy.stats import poisson
    for row, mean in zip(report.poisson_table, report.nbar):
        ref = poisson.pmf(np.arange(41), mean) if mean > 0 else None
        if ref is not None:
            np.testing.assert_allclose(row, ref, rtol=1e-9, atol=1e-300)


def test_one_particle_conventions(free_basis):
    overlaps = np.array([0.5, -0.3 + 0.2j, 0.8j, 0.1, 0.25, 0.4])
    printed = creation_probabilities(overlaps, free_basis)
    poisson = creation_probabilities(overlaps, free_basis,
                                     poisson_consistent=True)
    assert printed.p0 == poisson.p0
    np.testing.assert_allclose(printed.pk,
                               np.abs(overlaps) ** 2 * printed.p0, rtol=1e-12)
    np.testing.assert_allclose(poisson.pk, poisson.nbar * poisson.p0,
                               rtol=1e-12)
    np.testing.assert_allclose(printed.pk / poisson.pk,
                               2.0 * free_basis.omegas, rtol=1e-12)


def test_zero_overlap_mode_table(free_basis):
    overlaps = np.zeros(len(free_basis.omegas), dtype=complex)
    overlaps[2] = 0.7
    report = creation_probabilities(overlaps, free_basis, n_max=12)
    assert report.nbar[0] == 0.0
    np.testing.assert_allclose(report.poisson_table[0],
                               np.eye(13)[0], atol=0.0)


def test_overlaps_shape_validation(free_basis):
    with pytest.raises(DimensionMismatch):
        creation_probabilities(np.zeros(2), free_basis)


def test_creation_probabilities_validation(free_basis):
    overlaps = np.full(len(free_basis.omegas), 0.3 + 0.1j)
    for bad in (-1, 2.5, "4", np.nan):
        with pytest.raises(ValidationError):
            creation_probabilities(overlaps, free_basis, n_max=bad)
    assert creation_probabilities(overlaps, free_basis,
                                  n_max=0).poisson_table.shape == (6, 1)
    for bad in (np.nan, np.inf, complex(0.0, -np.inf)):
        broken = overlaps.copy()
        broken[3] = bad
        with pytest.raises(ValidationError):
            creation_probabilities(broken, free_basis)


def test_rabi_frequency_self_overlap(well_basis):
    h = SourceProfile(well_basis.psis[0], well_basis.grid)
    got = rabi_frequency(0.37, h, well_basis)
    assert got == pytest.approx(0.37 / np.sqrt(2.0 * well_basis.omegas[0]),
                                rel=1e-12)


def test_rabi_target_validation(well_basis):
    h = SourceProfile(well_basis.psis[0], well_basis.grid)
    with pytest.raises(ValidationError):
        rabi_frequency(1.0, h, well_basis, target=well_basis.n_bound)
    with pytest.raises(ValidationError):
        rabi_frequency(1.0, h, well_basis, target=-1)


def test_source_profile_validation(well_basis):
    grid = well_basis.grid
    with pytest.raises(ValidationError):
        SourceProfile(np.ones(grid.n), grid)
    with pytest.raises(ValidationError):
        SourceProfile(2.0 * well_basis.psis[0], grid, normalized=True)
    with pytest.raises(DimensionMismatch):
        SourceProfile(np.zeros(grid.n - 1), grid)


def test_design_source_profile_nulls(well_basis):
    assert well_basis.n_bound >= 2
    prof = design_source_profile(well_basis, 0, [1, 3])
    assert prof.normalized
    x = well_basis.grid.x
    assert abs(np.trapezoid(prof.h * well_basis.psis[1], x)) < 1e-10
    assert abs(np.trapezoid(prof.h * well_basis.psis[3], x)) < 1e-10
    assert np.trapezoid(prof.h ** 2, x) == pytest.approx(1.0, rel=1e-10)
    assert abs(np.trapezoid(prof.h * well_basis.psis[0], x)) > 0.9


@pytest.mark.parametrize("target, nulled", [
    (-1, []), (0, [-1]), (8, []), (0, [8]), (0.5, []), (0, [1.5]),
    ("0", []), (0, [np.nan])])
def test_design_source_profile_rejects_bad_indices(well_basis, target,
                                                   nulled):
    # well_basis keeps eight modes; -1 would silently pick the last one
    assert len(well_basis.omegas) == 8
    with pytest.raises(ValidationError):
        design_source_profile(well_basis, target, nulled)


def test_design_infeasible(well_basis):
    with pytest.raises(InfeasibleNulling):
        design_source_profile(well_basis, 1, [0, 1])
    grid = Grid.symmetric(5.0, 101)
    psi = np.exp(-grid.x ** 2)
    psi[0] = psi[-1] = 0.0
    psi /= np.sqrt(np.trapezoid(psi ** 2, grid.x))
    dup = ModeBasis(np.array([1.0, 1.0]), np.vstack([psi, psi]), 2, 1.0,
                    np.zeros(grid.n), grid)
    with pytest.raises(InfeasibleNulling):
        design_source_profile(dup, 0, [1])


def test_effective_potential_contact_and_kernel():
    m, lam = 1.2, 0.8
    contact, v0 = effective_potential(0.0, m, lam)
    assert contact == pytest.approx(
        lam / (4.0 * m ** 2) * (1.0 + lam / (4.0 * np.pi * m ** 2)), rel=1e-12)
    pref = -lam ** 2 / (32.0 * np.pi * m ** 3)
    assert v0 == pytest.approx(pref * np.pi, rel=1e-12)
    for r in (0.3, 1.0, 2.5):
        _, v = effective_potential(r, m, lam)
        ref, _ = quad(lambda y: np.exp(-m * r / np.sqrt(y * (1 - y)))
                      / np.sqrt(y * (1 - y)), 0.0, 1.0, limit=400)
        assert v == pytest.approx(pref * ref, rel=1e-8)
        assert v < 0
    _, arr = effective_potential(np.array([0.3, 1.0]), m, lam)
    assert arr.shape == (2,)
    for bad in [(-0.1, m, lam), (1.0, 0.0, lam), (1.0, np.nan, lam),
                (1.0, np.inf, lam), (1.0, -1.0, lam), (np.nan, m, lam),
                (np.array([0.3, np.nan]), m, lam), (1.0, m, np.nan),
                (1.0, m, np.inf)]:
        with pytest.raises(ValidationError):
            effective_potential(*bad)


def calibration_lattice():
    """(r, m) of the default entangling calibration's pair kernel."""
    m, _, width, intra, _ = CompileParams().resolved()
    grid = Grid.symmetric(intra + 9.0 * 0.7 * width, WELL_GRID)
    return np.arange(WELL_GRID) * grid.dx, m


def bickley_oracle(x):
    """2 Ki_1(x) = int exp(-x cosh u) sech u du over the real line, 30 digits.

    The peak at u = 0 narrows as 1/sqrt(x), so the breakpoints scale with
    it; fixed breakpoints mis-integrate it past x of about 50.
    """
    with mp.workdps(30):
        x = mp.mpf(x)
        scale = 1 / mp.sqrt(x) if x > 1 else mp.mpf(1)
        pts = [k * scale / 4 for k in range(49)] + [100]
        return 2 * mp.quad(lambda u: mp.exp(-x * mp.cosh(u)) / mp.cosh(u),
                           pts)


def test_attractive_kernel_against_bickley():
    r, m = calibration_lattice()
    spacing, span = 2.0 * m * r[1], 2.0 * m * r[-1]
    assert span == pytest.approx(41.2)
    cases = [(x, 1e-13) for x in (0.0, 1e-300, 1e-12, 1e-6, spacing, 1.0,
                                  6.0, 12.0, 20.0, span, 48.0)]
    for x, tol in cases + [(60.0, 1e-11)]:
        got = _attractive_kernel(x / 2.0, 1.0)
        ref = bickley_oracle(x)
        assert abs(got - ref) <= tol * ref, x


def test_effective_potential_shapes_and_memory():
    m, lam = 1.2, 0.8
    _, v = effective_potential(0.5, m, lam)
    assert isinstance(v, float)
    r = np.array([[0.0, 0.3, 1.0], [2.5, 4.0, 7.0]])
    _, grid = effective_potential(r, m, lam)
    assert grid.shape == (2, 3)
    np.testing.assert_allclose(
        grid.ravel(), [effective_potential(ri, m, lam)[1] for ri in r.flat],
        rtol=1e-14)
    lattice, m0 = calibration_lattice()
    tracemalloc.start()
    try:
        effective_potential(lattice, m0, 1.0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1e6


def full_node_kernel(r, m):
    """_attractive_kernel's trapezoid sum over all KERNEL_NODES nodes."""
    a = -2.0 * m * np.asarray(r, dtype=float)
    tail = np.zeros_like(a)
    for c in np.cosh(KERNEL_STEP * np.arange(1, KERNEL_NODES + 1)):
        tail += np.exp(a * c) / c
    return KERNEL_STEP * (np.exp(a) + 2.0 * tail)


@pytest.mark.parametrize("m", [0.5, 1.0, 2.0])
def test_attractive_kernel_skips_only_underflow(m):
    # the skipped terms are exact zeros, so every order and shape of r
    # gives the full sum's bits
    r = np.linspace(0.0, 60.0 / m, 701)
    shuffled = np.random.default_rng(7).permutation(r)[:700].reshape(7, 100)
    for rs in (r, r[::-1], shuffled, np.array([0.0, 5.0, 0.0]),
               np.float64(0.0), np.float64(0.3 / m), 60.0 / m):
        got = _attractive_kernel(rs, m)
        want = full_node_kernel(rs, m)
        assert got.shape == np.shape(rs)
        assert got.tobytes() == want.tobytes(), rs


def test_nr_single_particle_free_spectrum():
    grid = Grid.symmetric(10.0, 201)
    m = 1.4
    ham = nr_hamiltonian_terms(grid, np.zeros(grid.n), m, 0.0)
    lam = dirichlet_fd_eigenvalues(grid, 4)
    np.testing.assert_allclose(ham.lowest_eigenvalues(4), lam / (2.0 * m),
                               rtol=1e-10)


def test_nr_relativistic_correction_exact():
    grid = Grid.symmetric(10.0, 201)
    m = 0.9
    ham = nr_hamiltonian_terms(grid, np.zeros(grid.n), m, 0.0,
                               include_relativistic=True)
    # the p^4 term shares the p^2 eigenvectors, so the full lattice
    # spectrum maps through the polynomial before sorting
    lam = dirichlet_fd_eigenvalues(grid, grid.n - 2)
    expect = np.sort(lam / (2.0 * m) - lam ** 2 / (8.0 * m ** 3))[:4]
    np.testing.assert_allclose(ham.lowest_eigenvalues(4), expect, rtol=1e-10)


def test_nr_two_particle_noninteracting():
    grid = Grid.symmetric(6.0, 42)
    single = nr_hamiltonian_terms(grid, square_well(grid.x), 1.0, 0.0)
    e1 = single.lowest_eigenvalues(2)
    pair = nr_hamiltonian_terms(grid, square_well(grid.x), 1.0, 0.0,
                                n_particles=2)
    assert pair.matrix.shape == (1600, 1600)
    e2 = pair.lowest_eigenvalues(2)
    assert e2[0] == pytest.approx(2.0 * e1[0], rel=1e-8)
    assert e2[1] == pytest.approx(e1[0] + e1[1], rel=1e-8)


def test_nr_contact_repulsion_raises_energy():
    grid = Grid.symmetric(6.0, 26)
    j2 = square_well(grid.x)
    free = nr_hamiltonian_terms(grid, j2, 1.0, 0.0, n_particles=2)
    coupled = nr_hamiltonian_terms(grid, j2, 1.0, 0.25, n_particles=2)
    assert coupled.lowest_eigenvalues(1)[0] > free.lowest_eigenvalues(1)[0]


def test_nr_budget_and_validation():
    grid = Grid.symmetric(8.0, 33)
    j2 = np.zeros(grid.n)
    ham = nr_hamiltonian_terms(grid, j2, 1.0, 0.2, n_particles=2, budget=1000)
    assert ham.matrix.shape == (961, 961)
    with pytest.raises(GridTooLarge):
        nr_hamiltonian_terms(grid, j2, 1.0, 0.2, n_particles=3, budget=1000)
    with pytest.raises(ValidationError):
        nr_hamiltonian_terms(grid, j2, 1.0, 0.2, n_particles=4)
    with pytest.raises(DimensionMismatch):
        nr_hamiltonian_terms(grid, j2[:-1], 1.0, 0.2)
    for bad_m, lam, n_particles in [(np.nan, 0.2, 1), (0.0, 0.2, 1),
                                    (np.inf, 0.2, 1), (1.0, np.nan, 2)]:
        with pytest.raises(ValidationError):
            nr_hamiltonian_terms(grid, j2, bad_m, lam, n_particles=n_particles)


def test_nr_lowest_eigenvalues_validates_k():
    grid = Grid.symmetric(6.0, 41)
    dense = nr_hamiltonian_terms(grid, square_well(grid.x), 1.0, 0.0)
    assert dense.matrix.shape == (39, 39)
    full = np.linalg.eigvalsh(dense.matrix.toarray())
    np.testing.assert_array_equal(dense.lowest_eigenvalues(39), full)
    np.testing.assert_array_equal(dense.lowest_eigenvalues(2.0), full[:2])
    grid = Grid.symmetric(6.0, 42)
    sparse = nr_hamiltonian_terms(grid, square_well(grid.x), 1.0, 0.0,
                                  n_particles=2)
    dim = sparse.matrix.shape[0]
    assert dim == 1600                  # above the dense cut: ARPACK
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        every = sparse.lowest_eigenvalues(dim)
    assert every.shape == (dim,)
    np.testing.assert_allclose(sparse.lowest_eigenvalues(3), every[:3],
                               rtol=1e-10)
    for ham, bad in [(dense, 0), (dense, -1), (dense, 40), (dense, 100),
                     (dense, 2.5), (dense, "2"), (dense, np.nan),
                     (dense, None), (sparse, 0), (sparse, dim + 1),
                     (sparse, 2.5)]:
        with pytest.raises(ValidationError):
            ham.lowest_eigenvalues(bad)


@pytest.fixture(scope="module")
def probe_basis():
    grid = Grid.symmetric(20.0, 901)
    return mode_decomposition(square_well(grid.x), 1.0, grid, n_continuum=None)


def test_probe_uniform_window_recovers_hamiltonian(probe_basis):
    report = local_energy_probe(np.ones(probe_basis.grid.n), probe_basis)
    assert report.variance < 1e-18
    assert report.mean == pytest.approx(0.5 * np.sum(probe_basis.omegas),
                                        rel=1e-12)
    assert report.shift == pytest.approx(probe_basis.omegas[0], rel=1e-12)


def test_probe_windowed_variance_positive(probe_basis):
    x = probe_basis.grid.x
    report = local_energy_probe(np.exp(-x ** 2 / 8.0 ** 2), probe_basis)
    assert report.variance > 0.0
    assert report.shift == pytest.approx(probe_basis.omegas[0], rel=0.05)


def test_probe_callable_and_array_agree(probe_basis):
    f = lambda x: np.exp(-x ** 2 / 25.0)
    r1 = local_energy_probe(f, probe_basis)
    r2 = local_energy_probe(f(probe_basis.grid.x), probe_basis)
    assert r1.variance == r2.variance
    assert r1.mean == r2.mean
    assert r1.shift == r2.shift


def test_probe_validation(probe_basis):
    with pytest.raises(DimensionMismatch):
        local_energy_probe(np.ones(10), probe_basis)
    with pytest.raises(ValidationError):
        local_energy_probe("abc", probe_basis)
    for bad in (np.nan, np.inf, -np.inf):
        f = np.ones(probe_basis.grid.n)
        f[probe_basis.grid.n // 2] = bad
        with pytest.raises(ValidationError):
            local_energy_probe(f, probe_basis)


def _two_product_probe(f, basis):
    """A and B with P = (F K + K F)/2 built from K, as before the identity."""
    grid = basis.grid
    dx = grid.dx
    n = grid.n - 2
    w2 = basis.m ** 2 + 2.0 * basis.j2
    k2 = sp.diags([2.0 / dx ** 2 + w2[1:-1],
                   np.full(n - 1, -1.0 / dx ** 2),
                   np.full(n - 1, -1.0 / dx ** 2)], [0, 1, -1], format="csr")
    fd = sp.diags(f[1:-1])
    p_form = ((fd @ k2 + k2 @ fd) / 2.0).tocsr()
    v = basis.psis[:, 1:-1].T * np.sqrt(dx)
    pt = v.T @ (p_form @ v)
    qt = v.T @ (fd @ v)
    sw = np.sqrt(basis.omegas)
    inv = 1.0 / (sw[:, None] * sw[None, :])
    out = sw[:, None] * sw[None, :]
    return 0.5 * (pt * inv + out * qt), 0.25 * (pt * inv - out * qt)


@pytest.mark.parametrize("n_continuum", [None, 5])
@pytest.mark.parametrize("window", ["sharp", "smooth", "edge", "zero",
                                    "signed", "negative"])
def test_probe_matches_two_product_formula(window, n_continuum):
    grid = Grid.symmetric(20.0, 301)
    basis = mode_decomposition(square_well(grid.x), 1.0, grid,
                               n_continuum=n_continuum)
    x = grid.x
    if window == "sharp":
        f = (np.abs(x) <= 2.0).astype(float)
    elif window == "smooth":
        f = np.exp(-x ** 2 / (2.0 * 6.0 ** 2))
    elif window == "edge":
        # off centre, through the last grid point
        f = (x >= 7.0) * (1.0 + 0.1 * x)
    elif window == "zero":
        f = np.zeros_like(x)
    elif window == "signed":
        # negative values and interior zeros inside the nonzero span
        f = np.where(np.abs(x + 3.0) <= 6.0, np.sin(x), 0.0)
    else:
        # f < 0 over its whole span: only the U- U-^T part is nonzero
        f = -np.exp(-(x - 2.0) ** 2 / 8.0) * (np.abs(x - 2.0) <= 5.0)
    report = local_energy_probe(f, basis)
    a_ref, b_ref = _two_product_probe(f, basis)
    np.testing.assert_allclose(report.a_matrix, a_ref, rtol=0.0, atol=1e-10)
    np.testing.assert_allclose(report.b_matrix, b_ref, rtol=0.0, atol=1e-10)
    assert np.array_equal(report.a_matrix, report.a_matrix.T)
    assert np.array_equal(report.b_matrix, report.b_matrix.T)
    assert report.mean == pytest.approx(0.5 * np.trace(a_ref), rel=1e-12)
    assert report.shift == pytest.approx(a_ref[0, 0], rel=1e-12)
    if window == "zero":
        assert not report.a_matrix.any() and not report.b_matrix.any()
    # the three numbers are the rebuilt forms' own, to the bit
    b_mat = report.b_matrix
    assert report.variance == 2.0 * np.vdot(b_mat, b_mat)
    assert report.mean == 0.5 * np.trace(report.a_matrix)
    assert report.shift == report.a_matrix[0, 0]


def test_probe_holds_no_dense_form():
    grid = Grid.symmetric(20.0, 602)
    basis = mode_decomposition(square_well(grid.x), 1.0, grid,
                               n_continuum=None)
    n = len(basis.omegas)
    f = np.exp(-grid.x ** 2 / (2.0 * 6.0 ** 2))   # nonzero on every point
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        report = local_energy_probe(f, basis)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # the gram and one factor at a time while it runs, the window after
    assert peak - before < 2.5 * n * n * 8
    assert held - before < 0.05 * n * n * 8
    assert report.variance > 0.0
