"""Units conventions and the analytic potential classes."""

import numpy as np
import pytest

from fieldforge.errors import Unsupported, ValidationError
from fieldforge.potentials import (Grid, PoschlTeller, QESDoubleWell,
                                   SquareBarrier, Tabulated)
from fieldforge.units import HALF_KINETIC, UNIT_KINETIC, UnitsConvention, natural


def test_kinetic_coefficients():
    assert UNIT_KINETIC.kinetic_coefficient == 1.0
    assert HALF_KINETIC.kinetic_coefficient == 0.5


@pytest.mark.parametrize("m", [0.25, 1.0, 2.0, 7.5])
def test_natural_units(m):
    conv = natural(m)
    assert conv.hbar == 1.0
    assert conv.kinetic_coefficient == pytest.approx(1.0 / (2.0 * m), rel=1e-15)


@pytest.mark.parametrize("hbar,mass", [(0.0, 1.0), (1.0, 0.0), (-1.0, 1.0)])
def test_units_validation(hbar, mass):
    with pytest.raises(ValueError):
        UnitsConvention("bad", hbar=hbar, mass=mass)


def test_grid_symmetric():
    grid = Grid.symmetric(5.0, 11)
    assert grid.n == 11
    assert len(grid) == 11
    assert grid.x[0] == -5.0 and grid.x[-1] == 5.0
    assert grid.dx == pytest.approx(1.0)


def test_grid_rejects_nonuniform():
    with pytest.raises(ValidationError):
        Grid(np.array([0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 8.0]))
    with pytest.raises(ValidationError):
        Grid(np.linspace(1.0, 0.0, 16))
    with pytest.raises(ValidationError):
        Grid(np.linspace(0.0, 1.0, 7))


@pytest.mark.parametrize("alpha,lam", [(1.0, 2.0), (1.0, 3.0), (2.0, 2.5)])
def test_poschl_teller_energies(alpha, lam):
    pt = PoschlTeller(alpha, lam)
    n = np.arange(int(np.ceil(lam - 1.0 - 1e-12)))
    expected = -(alpha ** 2) * (lam - 1.0 - n) ** 2
    np.testing.assert_allclose(pt.exact_energies(), expected, rtol=1e-15)
    assert pt(0.0) == pytest.approx(-(alpha ** 2) * lam * (lam - 1.0))
    assert pt.decay_length() == pytest.approx(1.0 / (alpha * (lam - 1.0)))


def test_poschl_teller_state_count():
    # lam = 4 binds exactly three levels, lam = 4 + tiny binds a fourth
    assert PoschlTeller(1.0, 4.0).exact_energies().size == 3
    assert PoschlTeller(1.0, 4.0 + 1e-6).exact_energies().size == 4


def test_poschl_teller_validation():
    with pytest.raises(ValidationError):
        PoschlTeller(0.0, 2.0)
    with pytest.raises(ValidationError):
        PoschlTeller(1.0, 1.0)


@pytest.mark.parametrize("g,b", [(0.01, 1.0), (0.1, 1.3), (0.5, 2.0)])
def test_qes_splitting_identity(g, b):
    well = QESDoubleWell(g, b)
    e1, e2 = well.exact_energies()
    assert e2 - e1 == pytest.approx(2.0 * g * (2.0 * b - 1.0) / (1.0 + g),
                                    rel=1e-12)
    assert well.splitting() == pytest.approx(e2 - e1, rel=1e-12)


def test_qes_strict_solvability():
    # printed inequality b > g/(2(1+g)) + 1; the b = 1 baseline sits below it
    assert not QESDoubleWell(0.01, 1.0).strict_solvability()
    assert QESDoubleWell(0.01, 1.1).strict_solvability()


def test_qes_decay_length():
    well = QESDoubleWell(0.05, 1.2)
    assert well.decay_length() == pytest.approx(
        1.0 / np.sqrt(-well.exact_energies()[0]))


def test_square_barrier_values():
    bar = SquareBarrier(2.0, 1.5, mass=3.0)
    assert bar(0.0) == 2.0
    assert bar(0.74) == 2.0
    assert bar(0.76) == 0.0
    assert bar.breakpoints == (-0.75, 0.75)
    assert bar.units.mass == 3.0
    with pytest.raises(Unsupported):
        bar.exact_energies()


def test_tabulated_sorts_and_interpolates():
    rng = np.random.default_rng(7)
    x = rng.permutation(np.linspace(-3.0, 3.0, 31))
    pot = Tabulated(x, x ** 2)
    assert pot(0.1) == pytest.approx(0.01, abs=0.05)
    assert np.all(np.diff(pot.x) > 0)
    assert pot.asymptote == pytest.approx(9.0)


def test_tabulated_from_csv(tmp_path):
    path = tmp_path / "well.csv"
    x = np.linspace(-2.0, 2.0, 21)
    v = -np.exp(-(x ** 2))
    lines = ["x,v"] + [f"{xi:.17g},{vi:.17g}" for xi, vi in zip(x, v)]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    pot = Tabulated.from_csv(path)
    np.testing.assert_allclose(pot.x, x)
    np.testing.assert_allclose(pot.v, v)


def test_tabulated_from_csv_rejects_garbage(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("x,v\n0.0,1.0\nnope,2.0\n", encoding="utf-8")
    with pytest.raises(ValidationError):
        Tabulated.from_csv(path)
    short = tmp_path / "short.csv"
    short.write_text("x,v\n" + "\n".join(f"{i},0" for i in range(5)),
                     encoding="utf-8")
    with pytest.raises(ValidationError):
        Tabulated.from_csv(short)


def test_default_grid_spans_decay_lengths():
    pt = PoschlTeller(1.0, 2.0)
    grid = pt.default_grid()
    assert grid.x[-1] == pytest.approx(19.0 * pt.decay_length())
    with pytest.raises(ValidationError):
        Tabulated(np.linspace(-1, 1, 9), np.zeros(9)).default_grid()
