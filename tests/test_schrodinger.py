"""Bound-state solver, Wronskian machinery, and the dressed propagator."""

import numpy as np
import pytest

from fieldforge.errors import BoxTooSmall, NoBoundStates, ValidationError
from fieldforge.potentials import (Grid, PoschlTeller, QESDoubleWell,
                                   SquareBarrier, Tabulated)
from fieldforge.schrodinger import (barrier_wronskian_closed_form,
                                    dressed_propagator, solve_bound_states,
                                    wronskian)


@pytest.mark.parametrize("alpha", [0.5, 1.0, 2.0])
@pytest.mark.parametrize("lam", [2.0, 3.0])
def test_poschl_teller_spectrum(alpha, lam):
    pt = PoschlTeller(alpha, lam)
    exact = pt.exact_energies()
    states = solve_bound_states(pt, grid=Grid.symmetric(20.0 / alpha, 32001))
    assert len(states) == exact.size
    rel = np.abs(states.energies - exact) / np.maximum(1.0, np.abs(exact))
    assert rel.max() < 1e-6


@pytest.mark.parametrize("g", [0.005, 0.01, 0.02])
@pytest.mark.parametrize("b", [1.0, 1.5, 2.0])
def test_qes_doublet(g, b):
    well = QESDoubleWell(g, b)
    exact = well.exact_energies()
    states = solve_bound_states(well, grid=Grid.symmetric(20.0, 16001),
                                max_states=2)
    rel = np.abs(states.energies[:2] - exact) / np.maximum(1.0, np.abs(exact))
    assert rel.max() < 1e-6
    gap = states.energies[1] - states.energies[0]
    assert gap == pytest.approx(well.splitting(), rel=1e-4)


def test_grid_halving_cuts_error():
    pt = PoschlTeller(1.0, 2.0)
    coarse = solve_bound_states(pt, grid=Grid.symmetric(20.0, 2001)).energies[0]
    fine = solve_bound_states(pt, grid=Grid.symmetric(20.0, 4001)).energies[0]
    # second-order scheme: halving dx should cut the error about 4x
    assert abs(coarse + 1.0) / abs(fine + 1.0) >= 3.0


def test_states_normalized_orthogonal():
    states = solve_bound_states(PoschlTeller(1.0, 4.0),
                                grid=Grid.symmetric(30.0, 4001))
    x = states.grid.x
    for psi in states.wavefunctions:
        assert np.trapezoid(psi ** 2, x) == pytest.approx(1.0, abs=1e-10)
    overlap = np.trapezoid(states.wavefunctions[0] * states.wavefunctions[1], x)
    assert abs(overlap) < 1e-10


def test_box_too_small_explicit_grid():
    # shallow top state of lam = 4 has unit decay length; 6.3 is far too tight
    with pytest.raises(BoxTooSmall):
        solve_bound_states(PoschlTeller(1.0, 4.0), grid=Grid.symmetric(6.3, 801))


def test_box_too_small_names_first_failing_state():
    # on this grid states 1 and 2 both reach the wall; the message names 1
    with pytest.raises(BoxTooSmall, match=r"^state 1: boundary amplitude"):
        solve_bound_states(PoschlTeller(1.0, 4.0), grid=Grid.symmetric(6.3, 801))


@pytest.mark.parametrize("n", [2001, 2003, 2005, 2011, 2027, 2047, 2059])
def test_odd_state_positive_on_left_peak(n):
    # the two peaks of the odd state tie in magnitude, so an argmax rule
    # would pick the sign by rounding and flip it between these grids
    states = solve_bound_states(PoschlTeller(1.0, 3.0),
                                grid=Grid.symmetric(25.0, n))
    x, psi = states.grid.x, states.wavefunctions[1]
    left = np.argmax(np.abs(psi) * (x < 0))
    right = np.argmax(np.abs(psi) * (x > 0))
    assert psi[left] > 0 > psi[right]
    assert states.wavefunctions[0][x.size // 2] > 0


def test_auto_grid_widens_for_shallow_states():
    pt = PoschlTeller(1.0, 4.0)
    states = solve_bound_states(pt)   # default grid sized for the ground state
    exact = pt.exact_energies()
    assert len(states) == 3
    np.testing.assert_allclose(states.energies, exact, atol=5e-4)
    # the solver must have widened beyond the 19-decay-length default
    assert states.grid.x[-1] > 19.0 * pt.decay_length() + 1.0


def test_no_bound_states():
    with pytest.raises(NoBoundStates):
        solve_bound_states(SquareBarrier(1.0, 1.0), grid=Grid.symmetric(5.0, 501))


def test_max_states_truncates():
    states = solve_bound_states(PoschlTeller(1.0, 3.0),
                                grid=Grid.symmetric(25.0, 2001), max_states=1)
    assert len(states) == 1


def test_max_states_must_be_integral():
    pot, grid = PoschlTeller(1.0, 3.0), Grid.symmetric(25.0, 2001)
    for bad in (1.5, np.nan, np.inf):
        with pytest.raises(ValidationError):
            solve_bound_states(pot, grid=grid, max_states=bad)
    for ok in (1.0, np.int64(1)):
        assert len(solve_bound_states(pot, grid=grid, max_states=ok)) == 1


def test_wronskian_free_case():
    # V = 0: W = 4 m exp(m l) with the sqrt(2) edge normalization
    free = SquareBarrier(0.0, 1.0, mass=1.0)
    res = wronskian(free, z=-0.5)
    assert res.value == pytest.approx(4.0 * np.exp(1.0), rel=1e-9)
    assert np.max(np.abs(res.samples - res.value)) < 1e-8 * abs(res.value)


@pytest.mark.parametrize("m,v,l", [(1.0, 1.5, 1.0), (1.0, 0.5, 2.0),
                                   (2.0, 3.0, 0.7)])
def test_wronskian_matches_closed_form(m, v, l):
    bar = SquareBarrier(v, l, mass=m)
    res = wronskian(bar, z=-m / 2.0)
    assert res.value == pytest.approx(barrier_wronskian_closed_form(m, v, l),
                                      rel=1e-8)


def test_wronskian_rejects_scattering_energies():
    with pytest.raises(ValidationError):
        wronskian(SquareBarrier(1.0, 1.0), z=0.5)


def test_dressed_propagator_effective_mass():
    prop = dressed_propagator(1.0, 1.5, 1.0)
    assert prop.m_eff == 2.0
    assert prop.value == pytest.approx(prop.closed_form, rel=1e-8)


def test_dressed_propagator_large_separation():
    # l = 10/m_eff: the subleading exp(-2 m_eff l) correction is ~2e-9
    prop = dressed_propagator(1.0, 1.5, 5.0)
    assert prop.value == pytest.approx(prop.large_separation, rel=1e-6)
    assert prop.value < 0
