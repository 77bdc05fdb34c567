"""Fresnel integrals, the chirp spectrum closed form, and its region bounds."""

import numpy as np
import pytest
import scipy.special
from scipy.integrate import quad

from fieldforge.chirp import (ChirpSource, chirp_spectrum, fresnel,
                              g_component, region_bound)
from fieldforge.errors import ValidationError, ZeroChirp


def test_fresnel_against_scipy():
    z = np.concatenate([np.linspace(-12.0, 12.0, 4001),
                        np.array([3.89, 3.9, 3.91, 1e3, 1e4, -1e4])])
    c, s = fresnel(z)
    s_ref, c_ref = scipy.special.fresnel(z)
    np.testing.assert_allclose(c, c_ref, atol=1e-10)
    np.testing.assert_allclose(s, s_ref, atol=1e-10)


def test_fresnel_against_mpmath():
    mpmath = pytest.importorskip("mpmath")
    mag = np.logspace(-300.0, 9.0, 156)
    edges = np.array([0.0, 3.9, 1e6, np.nextafter(1e6, 0.0),
                      np.nextafter(1e6, np.inf)])
    # pi z^2/2 = 2 pi (z^2/4) lands on, or just off, a multiple of 2 pi
    on_turn = np.array([1e7, np.nextafter(1e7, 0.0), np.nextafter(1e7, np.inf),
                        2.0 * np.sqrt(25e12 + 1.0), 2.0 * np.sqrt(25e12 + 7.0)])
    z = np.concatenate([mag, edges, on_turn])
    z = np.concatenate([z, -z])
    c, s = fresnel(z)
    with mpmath.workdps(40):
        c_ref = np.array([float(mpmath.fresnelc(mpmath.mpf(v))) for v in z])
        s_ref = np.array([float(mpmath.fresnels(mpmath.mpf(v))) for v in z])
    np.testing.assert_allclose(c, c_ref, rtol=0.0, atol=1e-10)
    np.testing.assert_allclose(s, s_ref, rtol=0.0, atol=1e-10)


def test_fresnel_scalar_and_oddness():
    c, s = fresnel(1.7)
    cm, sm = fresnel(-1.7)
    assert isinstance(c, float)
    assert cm == -c and sm == -s
    assert fresnel(0.0) == (0.0, 0.0)


def test_fresnel_asymptote():
    for z in (5.0, 50.0, 500.0):
        c, _ = fresnel(z)
        assert abs(c - 0.5) <= 1.0 / (np.pi * z)


def test_fresnel_rejects_nonfinite():
    with pytest.raises(ValidationError):
        fresnel(np.inf)
    with pytest.raises(ValidationError):
        fresnel(np.array([0.0, np.nan]))


def test_source_window():
    src = ChirpSource(omega0=3.0, kappa=0.1, T=10.0)
    assert src.B == pytest.approx(1.0)
    assert src(5.1) == 0.0
    assert src(-7.0) == 0.0
    # edges carry half weight, rect(1/2) convention
    inner = src(5.0 - 1e-9)
    assert src(5.0) == pytest.approx(0.5 * inner, rel=1e-6)
    assert src(0.0) == pytest.approx(2.0 / np.sqrt(10.0))


def test_source_amplitude_override():
    a = ChirpSource(3.0, 0.1, 10.0)
    b = ChirpSource(3.0, 0.1, 10.0, amplitude=5.0)
    assert b(0.3) == pytest.approx(5.0 * np.sqrt(10.0) / 2.0 * a(0.3))


@pytest.mark.parametrize("offset", [0.0, 1.0, -2.0, 2.4])
def test_g_component_against_quadrature(offset):
    src = ChirpSource(omega0=30.0, kappa=0.25, T=20.0)
    kap, T = src.kappa, src.T
    re = quad(lambda t: np.cos(kap * t ** 2 / 2.0 - offset * t),
              -T / 2.0, T / 2.0, limit=400)[0]
    im = quad(lambda t: np.sin(kap * t ** 2 / 2.0 - offset * t),
              -T / 2.0, T / 2.0, limit=400)[0]
    direct = (re + 1j * im) / np.sqrt(T)
    assert g_component(src, offset, +1) == pytest.approx(direct, abs=1e-9)


def test_g_branches_conjugate():
    src = ChirpSource(omega0=30.0, kappa=0.25, T=20.0)
    offs = np.linspace(-3.0, 3.0, 7)
    gp = g_component(src, offs, +1)
    gm = g_component(src, offs, -1)
    np.testing.assert_allclose(gm, gp.conj(), atol=1e-14)


def test_spectrum_is_component_sum():
    src = ChirpSource(omega0=30.0, kappa=0.25, T=20.0, amplitude=0.7)
    omega = np.array([28.0, 30.0, 33.0])
    expected = 0.7 * np.sqrt(20.0) / 2.0 * (
        g_component(src, omega - 30.0, +1) + g_component(src, omega + 30.0, -1))
    np.testing.assert_allclose(chirp_spectrum(src, omega), expected, rtol=1e-13)


def test_in_band_power_near_unity():
    # normalized source: (B/2pi)|F|^2 -> 1 inside the band as BT grows
    src = ChirpSource(omega0=80.0, kappa=0.01, T=1000.0)   # BT = 1e4
    dens = src.B / (2.0 * np.pi) * np.abs(chirp_spectrum(src, 80.0)) ** 2
    assert dens == pytest.approx(1.0, abs=0.05)


def test_zero_chirp_raises():
    flat = ChirpSource(omega0=3.0, kappa=0.0, T=10.0)
    with pytest.raises(ZeroChirp):
        g_component(flat, 1.0)
    with pytest.raises(ZeroChirp):
        region_bound(flat, 1.0)


def test_region_classification():
    src = ChirpSource(omega0=80.0, kappa=0.01, T=1000.0)   # margin 0.0177
    b = src.B
    assert region_bound(src, 0.2 * b).region == "in_band"
    assert region_bound(src, 0.503 * b).region == "transition"
    assert region_bound(src, 0.7 * b).region == "tail"
    mid = region_bound(src, 0.52 * b)
    assert mid.ambiguous and mid.region == "tail"


def test_region_bound_on_builtin_floats():
    src = ChirpSource(omega0=80.0, kappa=0.01, T=1000.0)
    for frac in (0.2, 0.503, 0.52, 0.7):
        off = np.float64(frac * src.B)
        got = region_bound(src, off)
        same = region_bound(src, float(off))
        assert type(got.bound) is float and type(got.margin) is float
        assert got == same and got.bound.hex() == same.bound.hex()


@pytest.mark.parametrize("B,T", [(5.0, 20.0), (10.0, 1000.0)])
def test_component_power_below_region_bound(B, T):
    src = ChirpSource(omega0=8.0 * B, kappa=B / T, T=T)
    offs = np.linspace(-1.8 * B, 1.8 * B, 721)
    dens = B / (2.0 * np.pi) * np.abs(g_component(src, offs, +1)) ** 2
    for off, d in zip(offs, dens):
        bound = region_bound(src, off).bound
        assert d <= bound * (1.0 + 1e-9)


def test_spectrum_against_fft_oracle():
    # 8x-oversampled trapezoid FFT of the sampled source; the window edges
    # already carry half weight, so the plain Riemann sum is trapezoidal
    src = ChirpSource(omega0=40.0, kappa=0.25, T=20.0)   # BT = 100
    oversample = 8.0
    w_max = src.omega0 + src.B / 2.0
    m = int(np.ceil(src.T * 2.0 * w_max * oversample / (2.0 * np.pi)))
    dt = src.T / m
    n = 1 << int(np.ceil(np.log2(8 * m)))
    t0 = -src.T / 2.0
    f = src(t0 + dt * np.arange(m + 1))
    spec = np.fft.rfft(f, n=n) * dt
    omega = 2.0 * np.pi * np.fft.rfftfreq(n, d=dt)
    spec *= np.exp(-1j * omega * t0)
    sel = np.abs(omega - src.omega0) <= 0.35 * src.B
    closed = chirp_spectrum(src, omega[sel])
    rel = np.abs(closed - spec[sel]) / np.abs(spec[sel])
    assert rel.max() < 1e-3
