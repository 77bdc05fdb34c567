"""Spectrum of a rectangular-windowed linear-chirp drive.

The drive f(t) = (2/sqrt(T)) rect(t/T) cos(w0 t + kappa t^2/2) has the
transform (convention F(w) = integral f(t) exp(-i w t) dt)

    F(w) = G+(w - w0) + G-(w + w0),
    G+-(w) = sqrt(pi/kappa T) exp(-+ i w^2/2 kappa)
             { C(x+) + C(x-) +- i [S(x+) + S(x-)] },
    x+- = sqrt(kappa/pi) (T/2 -+ w/kappa).

C and S are the Fresnel integrals, evaluated to 1e-10 absolute.  Up to
|z| = 1e6 they come from scipy.special.fresnel, which agrees with 40-digit
mpmath to within 4e-16 below z = 4 and 4e-11 up to 1e6.  Past 1e6 its
phase pi z^2/2 loses digits (errors reach 4e-9 by 1e9), so there the
auxiliary f/g asymptotic series is used with the phase range-reduced
exactly on the float's mantissa.  No extended precision is involved.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError, ZeroChirp

_SCIPY_MAX = 1e6
_MAX_ASYMP_TERMS = 13


def _reduced_phase(z):
    """(pi z^2/2) mod 2pi, exactly: equals 2pi frac(z^2/4).

    The fractional part of z^2/4 is computed on the float's integer
    mantissa, so the reduction involves no rounding of pi at all.
    """
    m, e = math.frexp(float(z))
    mant = int(m * (1 << 53))        # z = mant * 2^(e-53), exactly
    shift = 2 * e - 106 - 2          # z^2/4 = mant^2 * 2^shift
    if shift >= 0:
        frac = 0.0
    else:
        frac = (mant * mant % (1 << -shift)) / float(1 << -shift)
    return 2.0 * math.pi * frac


def _asymptotic_cs(z):
    """Auxiliary-function form for z > _SCIPY_MAX.

    f and g are alternating asymptotic series; summation stops at the
    smallest term, which bounds the remainder.  The oscillatory phase
    pi z^2/2 is range-reduced exactly so the result stays accurate for
    arbitrarily large z.
    """
    u = _reduced_phase(z)
    inv = (2.0 / math.pi) / z / z  # 1/(pi z^2/2); underflow is harmless
    f_sum = 0.0
    g_sum = 0.0
    poch = 1.0   # (1/2)_k, advanced incrementally
    k = 0
    sign = 1.0
    prev = math.inf
    for m in range(_MAX_ASYMP_TERMS):
        tf = poch * inv ** (2 * m)           # (1/2)_{2m} / u^{2m}
        poch *= 0.5 + k
        k += 1
        tg = poch * inv ** (2 * m + 1)       # (1/2)_{2m+1} / u^{2m+1}
        poch *= 0.5 + k
        k += 1
        if max(abs(tf), abs(tg)) >= prev:
            break  # smallest term reached; stop before divergence
        f_sum += sign * tf
        g_sum += sign * tg
        prev = max(abs(tf), abs(tg))
        sign = -sign
    pre = 1.0 / (math.pi * z)
    f = pre * f_sum
    g = pre * g_sum
    su, cu = math.sin(u), math.cos(u)
    c = 0.5 + f * su - g * cu
    s = 0.5 - f * cu - g * su
    return c, s


def fresnel(z):
    """Fresnel integrals (C(z), S(z)), absolute error below 1e-10.

    Accepts scalars or arrays; a scalar gives a pair of floats.  C and S
    are odd, and are evaluated at |z| with the sign applied afterwards,
    so the oddness is exact.  |z| <= 1e6 goes to scipy.special.fresnel;
    larger |z| (which no chirp in this package reaches) to the exactly
    range-reduced asymptotic series.  C(z) -> 1/2 as z -> +inf with
    |C - 1/2| <= 1/(pi z).
    """
    zarr = np.asarray(z, dtype=float)
    if not np.all(np.isfinite(zarr)):
        raise ValidationError("fresnel requires finite arguments")
    flat = zarr.ravel()
    az = np.abs(flat)
    import scipy.special
    s, c = scipy.special.fresnel(az)
    for i in np.flatnonzero(az > _SCIPY_MAX):
        c[i], s[i] = _asymptotic_cs(float(az[i]))
    sign = np.where(flat < 0, -1.0, 1.0)
    c *= sign
    s *= sign
    if zarr.ndim == 0:
        return float(c[0]), float(s[0])
    return c.reshape(zarr.shape), s.reshape(zarr.shape)


@dataclass(frozen=True)
class ChirpSource:
    """rect-windowed cos chirp: amplitude * rect(t/T) cos(w0 t + kappa t^2/2).

    amplitude=None means the normalized 2/sqrt(T) form, for which the
    in-band power density (B/2pi)|G|^2 is 1 up to O(1/sqrt(BT)).
    """
    omega0: float
    kappa: float
    T: float
    amplitude: float = None

    def __post_init__(self):
        if not 0 < self.T < math.inf:
            raise ValidationError("need finite T > 0")
        if not 0 <= self.kappa < math.inf:
            raise ValidationError("need finite kappa >= 0")
        if not math.isfinite(self.B * self.T):
            raise ValidationError("need a finite B T = kappa T^2")
        if not math.isfinite(self.omega0):
            raise ValidationError("need finite omega0")
        if self.amplitude is not None and not math.isfinite(self.amplitude):
            raise ValidationError("need a finite amplitude")

    @property
    def B(self):
        return self.kappa * self.T

    @property
    def _scale(self):
        # multiplies the normalized G sum; 1 for the 2/sqrt(T) form
        if self.amplitude is None:
            return 1.0
        return self.amplitude * np.sqrt(self.T) / 2.0

    def __call__(self, t):
        amp = 2.0 / np.sqrt(self.T) if self.amplitude is None else self.amplitude
        t = np.asarray(t)
        inside = np.abs(t) <= self.T / 2.0
        edge = np.abs(np.abs(t) - self.T / 2.0) < 1e-300
        w = np.where(inside, 1.0, 0.0) - 0.5 * edge  # rect(+-1/2) = 1/2
        return amp * w * np.cos(self.omega0 * t + 0.5 * self.kappa * t ** 2)


def g_component(source: ChirpSource, omega, branch=+1):
    """G+ (branch=+1) or G- (branch=-1) at offset frequency omega."""
    if source.kappa == 0.0:
        raise ZeroChirp("kappa = 0: use the sinc transform of the windowed tone")
    kap, T = source.kappa, source.T
    omega = np.asarray(omega, dtype=float)
    root = np.sqrt(kap / np.pi)
    xp = root * (T / 2.0 - omega / kap)
    xm = root * (T / 2.0 + omega / kap)
    cp, sp = fresnel(xp)
    cm, sm = fresnel(xm)
    phase = np.exp(-1j * branch * omega ** 2 / (2.0 * kap))
    val = np.sqrt(np.pi / (kap * T)) * phase * ((cp + cm) + 1j * branch * (sp + sm))
    return val


def chirp_spectrum(source: ChirpSource, omega):
    """F(omega) = G+(omega - w0) + G-(omega + w0), with the source's scale."""
    omega = np.asarray(omega, dtype=float)
    val = g_component(source, omega - source.omega0, +1) \
        + g_component(source, omega + source.omega0, -1)
    return source._scale * val


@dataclass
class SpectrumRegionBound:
    region: str
    bound: float              # upper bound on (B/2pi)|G(omega)|^2
    omega: float
    margin: float             # sqrt(pi/BT)
    ambiguous: bool = False


def _in_band_or_tail_bound(bt, what):
    """Shared c-3, c-2, c-1 maximization; in_band adds the half-power rows."""
    w = what  # |omega|/B
    d = 1.0 - 4.0 * w ** 2
    wm = abs(0.5 - w)
    wp = 0.5 + w
    # cos(omega T) maximizing each coefficient separately
    c3 = (64.0 / (math.pi * d ** 6)) * (1.0 + 60.0 * w ** 2 + 240.0 * w ** 4
                                        + 64.0 * w ** 6 + abs(d ** 3))
    c2 = (128.0 / (math.pi * abs(d) ** 3)) * w
    c1 = (4.0 / (math.pi * d ** 2)) * (1.0 + 4.0 * w ** 2 + abs(d))
    total = c3 / bt ** 3 + c2 / bt ** 2 + c1 / bt
    if w < 0.5:  # in-band rows
        c32 = (1.0 / math.sqrt(math.pi)) * (2.0 / wm ** 3 + 2.0 / wp ** 3)
        c12 = (1.0 / math.sqrt(math.pi)) * (2.0 / wm + 2.0 / wp)
        total += c32 / bt ** 1.5 + c12 / math.sqrt(bt) + 1.0
    return total


def _transition_bound(bt, what):
    """Half-power-point expansion, all unknowns at their suprema.

    As printed, the half-power coefficients mix sqrt(BT/pi) and
    sqrt(BT/2) scalings in the same expansion; both appear here verbatim
    and the maximized bound absorbs either choice.
    """
    w = what
    wm = abs(0.5 - w)
    wp = 0.5 + w
    a_pi = math.sqrt(bt / math.pi) * wm
    a_2 = math.sqrt(bt / 2.0) * wm
    c3 = 32.0 / (math.pi * (1.0 + 2.0 * w) ** 6)
    c32 = (1.0 / (6.0 * math.sqrt(math.pi) * wp ** 3)) * (
        3.0 * (1.0 + 2.0 * a_pi) + (3.0 + math.pi * a_pi ** 3))
    c1 = 32.0 / (math.pi * (1.0 + 2.0 * w) ** 2)
    c12 = (1.0 / (6.0 * math.sqrt(math.pi) * wp)) * (
        3.0 * (1.0 + 2.0 * a_2) + (3.0 + math.pi * a_2 ** 3))
    c0 = 0.25 \
        + (math.sqrt(bt) * wm / (2.0 * math.sqrt(math.pi))) * (1.0 + a_pi) \
        + (math.pi / 72.0) * a_pi ** 3 * (6.0 + math.pi * a_pi ** 3)
    return c0 + c12 / math.sqrt(bt) + c1 / bt + c32 / bt ** 1.5 + c3 / bt ** 3


def region_bound(source: ChirpSource, omega):
    """Worst-case bound on (B/2pi)|G(omega)|^2 by spectral region.

    omega is measured from the chirp center (the argument of G+-).
    Classification margin: in_band needs 1/2 - |omega|/B above
    3 sqrt(pi/BT), transition needs |...| below sqrt(pi/BT)/3, tail the
    mirror of in_band; anything between is ambiguous and gets the max of
    the two adjacent bounds.
    """
    if source.kappa == 0.0:
        raise ZeroChirp("kappa = 0 has no chirp band")
    # built-in floats throughout: numpy scalar arithmetic costs several
    # times more per operation, and this runs once per frequency
    omega = float(omega)
    b = float(source.B)
    bt = b * float(source.T)
    w = abs(omega) / b
    margin = math.sqrt(math.pi / bt)
    wminus = 0.5 - w

    if wminus >= 3.0 * margin:
        return SpectrumRegionBound("in_band", _in_band_or_tail_bound(bt, w),
                                   omega, margin)
    if wminus <= -3.0 * margin:
        return SpectrumRegionBound("tail", _in_band_or_tail_bound(bt, w),
                                   omega, margin)
    if abs(wminus) <= margin / 3.0:
        return SpectrumRegionBound("transition", _transition_bound(bt, w),
                                   omega, margin)
    # between margins
    trans = _transition_bound(bt, w)
    other = _in_band_or_tail_bound(bt, w)
    region = "in_band" if wminus > 0 else "tail"
    return SpectrumRegionBound(region, max(trans, other), omega, margin,
                               ambiguous=True)
