"""Physical-parameter layer for the acoustic phonon bath.

Maps laboratory-scale bath and drive specifications (GHz, Kelvin) to the
quantities that feed the effective-reservoir model: thermal occupation
n(omega, T), super-Ohmic spectral density J(omega), the polaron displacement
factor <B>, and the drive-induced damping rates gamma_1, gamma_2.  Like the
rest of the package it needs numpy only: <B> is a closed form plus, at
T > 0, a fixed Gauss-Legendre rule.

Units: every rate and frequency in this package is an angular frequency in
GHz (hbar = 1), temperatures are in Kelvin.  The only dimensional constant
is hbar/kB, fixed to the CODATA values below.
"""

from __future__ import annotations

import functools
import math
import sys
import warnings
from dataclasses import dataclass

import numpy as np

from .reservoir import _BOUNDED, _NBAR_RULE, _check_fields, _check_rule, \
    _declare

HBAR = 1.054571817e-34  # J s, CODATA 2018
KB = 1.380649e-23       # J/K, exact

#: hbar/kB scaled so that x = HBAR_OVER_KB * omega[GHz] / T[K] is the Bose exponent.
HBAR_OVER_KB = HBAR * 1e9 / KB

#: Integration cutoff for the displacement-factor quadrature, in units of omega_c.
#: The Gaussian cutoff makes the tail beyond 8*omega_c negligible at 1e-10 accuracy.
QUAD_CUTOFF = 8.0
QUAD_RTOL = 1e-10
#: Cutoff of the thermal part in units of kB*T/hbar: the Bose factor beyond it
#: is below exp(-60), far under double precision of the exponent.
THERMAL_CUTOFF = 60.0
#: Composite Gauss-Legendre rule of the thermal part: equal panels, and two
#: orders whose difference is the error estimate (the higher one is returned).
QUAD_PANELS = 8
QUAD_ORDERS = (16, 24)
#: spectral_density's alpha*omega**3 is taken at the detuning and at J's peak
#: omega_c*sqrt(3/2): with both below half the largest float's cube root,
#: omega**3 < 0.23*max there, and alpha < 4 keeps the product finite.
_CUBED_RULE = f"> 0 and < {sys.float_info.max ** (1.0 / 3.0) / 2.0!r}"


class QuadratureError(RuntimeError):
    """The displacement-factor quadrature missed the requested tolerance."""


@dataclass(frozen=True)
class PhononBathSpec:
    """Acoustic bath with J(omega) = alpha * omega**3 * exp(-(omega/omega_c)**2).

    Parameters
    ----------
    alpha : float
        Spectral-density prefactor in GHz**-2 (alpha = 0 means no coupling).
    omega_c : float
        Gaussian cutoff frequency in GHz.
    temperature : float, optional
        Bath temperature in Kelvin.
    nbar_override : float, optional
        Fixed mode occupation used instead of the thermal one.  Exactly one
        of ``temperature`` / ``nbar_override`` must be given.

    Each field declares its range and its ``[bath]`` config key.
    """

    alpha: float = _declare(rule=">= 0 and < 4", section="bath")
    omega_c: float = _declare(rule=_CUBED_RULE, section="bath")
    temperature: float | None = _declare(None, ">= 0", section="bath")
    nbar_override: float | None = _declare(None, _NBAR_RULE, name="nbar",
                                           section="bath")

    def __post_init__(self):
        _check_fields(self)
        if (self.temperature is None) == (self.nbar_override is None):
            raise ValueError("PhononBathSpec needs exactly one of temperature / "
                             "nbar_override ([bath] keys temperature / nbar)")

    def occupation(self, omega):
        """Mean phonon number of the mode at ``omega`` (GHz)."""
        if self.nbar_override is not None:
            return self.nbar_override
        return thermal_occupation(omega, self.temperature)


@dataclass(frozen=True, kw_only=True)
class DriveConfig:
    """Bichromatic drive: two tones at detunings +-Delta.

    Rabi frequencies and the detuning are in GHz, phases in radians.  The
    squeezing phase of the engineered reservoir is (phi1 + phi2)/2.  Each
    field declares its range and its ``[drive]`` config key.
    """

    omega1_rabi: float = _declare(rule=_BOUNDED, name="omega1",
                                  section="drive")
    omega2_rabi: float = _declare(rule=_BOUNDED, name="omega2",
                                  section="drive")
    phi1: float = _declare(0.0, section="drive")
    phi2: float = _declare(0.0, section="drive")
    detuning: float = _declare(rule=_CUBED_RULE, section="drive")

    def __post_init__(self):
        _check_fields(self)

    @property
    def phi(self):
        """Squeezing phase phi = ((phi1 + phi2) mod 2*pi)/2 in [0, pi)."""
        return ((self.phi1 + self.phi2) % (2.0 * math.pi)) / 2.0


def thermal_occupation(omega, temperature):
    """Bose-Einstein occupation 1/(exp(hbar*omega/kB*T) - 1).

    ``omega`` is an angular frequency in GHz, ``temperature`` in Kelvin.
    Returns 0 at T = 0, and inf where hbar*omega/kB*T underflows to 0.
    """
    _check_rule("omega", "> 0", omega)
    _check_rule("temperature", ">= 0", temperature)
    if temperature == 0.0:
        return 0.0
    x = HBAR_OVER_KB * omega / temperature
    if x > 700.0:  # exp would overflow; occupation is indistinguishable from 0
        return 0.0
    return 1.0 / math.expm1(x) if x else math.inf


def spectral_density(omega, bath):
    """Super-Ohmic spectral density J(omega) = alpha*omega**3*exp(-(omega/omega_c)**2).

    Accepts scalar or array ``omega`` (GHz, must be >= 0); returns GHz.
    The single interior maximum sits at omega_c*sqrt(3/2).
    """
    omega = np.asarray(omega, dtype=float)
    _check_rule("omega", ">= 0", omega)
    result = bath.alpha * omega**3 * np.exp(-((omega / bath.omega_c) ** 2))
    return result if result.ndim else float(result)


@functools.cache
def _legendre_rule(order):
    """Read-only Gauss-Legendre nodes and weights on [-1, 1], computed once
    per order: ``leggauss`` costs far more than the rule it feeds."""
    nodes, weights = np.polynomial.legendre.leggauss(order)
    nodes.flags.writeable = weights.flags.writeable = False
    return nodes, weights


def _thermal_excess(bath, order):
    """2*alpha * integral omega*n(omega)*exp(-(omega/omega_c)^2) d omega, by
    ``QUAD_PANELS`` equal Gauss-Legendre panels of ``order`` nodes on
    [0, min(8*omega_c, 60*kB*T/hbar)]: the panels follow the thermal scale."""
    scale = bath.temperature / HBAR_OVER_KB  # kB*T/hbar in GHz
    upper = min(QUAD_CUTOFF * bath.omega_c, THERMAL_CUTOFF * scale)
    nodes, weights = _legendre_rule(order)
    half = 0.5 * upper / QUAD_PANELS
    w = half * (2.0 * np.arange(QUAD_PANELS)[:, None] + 1.0 + nodes)
    f = w / np.expm1(w / scale) * np.exp(-((w / bath.omega_c) ** 2))
    return 2.0 * bath.alpha * half * float(np.sum(f @ weights))


def _displacement_exponent(bath):
    """integral_0^(8 omega_c) J(omega)/omega^2 * (2 n(omega)+1), so <B> = exp(-it/2).

    The zero-point part alpha*omega_c**2/2*(1 - e**-64) is closed; with
    ``nbar_override`` it carries the factor 2*nbar+1 and is the whole answer.
    At T > 0 the thermal excess comes from :func:`_thermal_excess`, and two
    rule orders that differ by more than ``QUAD_RTOL`` of the exponent (or a
    non-finite one) raise :class:`QuadratureError`.
    """
    exponent = 0.5 * bath.alpha * bath.omega_c**2 * -math.expm1(-QUAD_CUTOFF**2)
    if bath.nbar_override is not None:
        return exponent * (2.0 * bath.nbar_override + 1.0)
    if bath.temperature == 0.0:
        return exponent
    coarse, fine = (_thermal_excess(bath, order) for order in QUAD_ORDERS)
    if not abs(fine - coarse) <= QUAD_RTOL * (exponent + fine):
        raise QuadratureError(
            f"displacement-factor quadrature did not converge: thermal "
            f"excess {fine!r} (order {QUAD_ORDERS[1]}) vs {coarse!r} (order "
            f"{QUAD_ORDERS[0]}), zero-point part {exponent!r}, "
            f"QUAD_RTOL={QUAD_RTOL!r}")
    return exponent + fine


def displacement_factor(bath):
    """Polaron displacement factor <B> in (0, 1].

    Continuum form exp[-1/2 * integral_0^(8 omega_c) J(omega)/omega^2 *
    (2 n(omega)+1)]: the zero-point part in closed form, the thermal excess
    by a fixed composite Gauss-Legendre rule whose panels follow kB*T/hbar
    (see :func:`_displacement_exponent`).  At T = 0 the exponent is
    alpha*omega_c**2/2, which the tests use as an oracle.
    """
    return math.exp(-0.5 * _displacement_exponent(bath))


def phonon_rates(drive, bath, include_b=False):
    """Drive-induced damping rates (gamma_1, gamma_2), gamma_i = 2*pi *
    Omega_i**2 * alpha * Delta (GHz), of the two tones at one detuning.

    With ``include_b`` each Rabi frequency is renormalized by the displacement
    factor, Omega_i -> <B>*Omega_i; the default uses the bare values.  Warns
    once when the detuning falls outside the support of J (the flat-density
    estimate is then meaningless).
    """
    delta = drive.detuning  # > 0, as DriveConfig declares

    j_peak = spectral_density(bath.omega_c * math.sqrt(1.5), bath)
    if j_peak > 0 and spectral_density(delta, bath) / j_peak < 1e-6:
        warnings.warn(
            f"detuning {delta} GHz lies outside the support of J(omega) "
            f"(cutoff {bath.omega_c} GHz); gamma_i estimate is unreliable",
            stacklevel=2)

    scale = displacement_factor(bath) if include_b else 1.0
    return tuple(2.0 * math.pi * (scale * omega_rabi)**2 * bath.alpha * delta
                 for omega_rabi in (drive.omega1_rabi, drive.omega2_rabi))
