"""Physical-parameter layer for the acoustic phonon bath.

Maps laboratory-scale bath and drive specifications (GHz, Kelvin) to the
quantities that feed the effective-reservoir model: thermal occupation
n(omega, T), super-Ohmic spectral density J(omega), the polaron displacement
factor <B>, and the drive-induced damping rates gamma_1, gamma_2.

Units: every rate and frequency in this package is an angular frequency in
GHz (hbar = 1), temperatures are in Kelvin.  The only dimensional constant
is hbar/kB, fixed to the CODATA values below.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

HBAR = 1.054571817e-34  # J s, CODATA 2018
KB = 1.380649e-23       # J/K, exact

#: hbar/kB scaled so that x = HBAR_OVER_KB * omega[GHz] / T[K] is the Bose exponent.
HBAR_OVER_KB = HBAR * 1e9 / KB

#: Integration cutoff for the displacement-factor quadrature, in units of omega_c.
#: The Gaussian cutoff makes the tail beyond 8*omega_c negligible at 1e-10 accuracy.
QUAD_CUTOFF = 8.0
QUAD_RTOL = 1e-10


class QuadratureError(RuntimeError):
    """Adaptive quadrature failed to reach the requested tolerance."""


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
    """

    alpha: float
    omega_c: float
    temperature: float | None = None
    nbar_override: float | None = None

    def __post_init__(self):
        if self.alpha < 0:
            raise ValueError(f"alpha must be >= 0, got {self.alpha}")
        if self.omega_c <= 0:
            raise ValueError(f"omega_c must be > 0, got {self.omega_c}")
        if (self.temperature is None) == (self.nbar_override is None):
            raise ValueError(
                "exactly one of temperature / nbar_override must be given")
        if self.temperature is not None and self.temperature < 0:
            raise ValueError(f"temperature must be >= 0, got {self.temperature}")
        if self.nbar_override is not None and self.nbar_override < 0:
            raise ValueError(f"nbar_override must be >= 0, got {self.nbar_override}")

    def occupation(self, omega):
        """Mean phonon number of the mode at ``omega`` (GHz)."""
        if self.nbar_override is not None:
            return self.nbar_override
        return thermal_occupation(omega, self.temperature)


@dataclass(frozen=True)
class DriveConfig:
    """Bichromatic drive (two tones at detunings +-Delta) plus the resonant
    exciting laser.

    Rabi frequencies and the detuning are in GHz, phases in radians.  The
    squeezing phase of the engineered reservoir is (phi1 + phi2)/2.
    """

    omega1_rabi: float
    omega2_rabi: float
    phi1: float = 0.0
    phi2: float = 0.0
    detuning: float = 0.0
    laser_rabi: float = 0.0
    laser_phase: float = 0.0

    def __post_init__(self):
        if self.omega1_rabi < 0 or self.omega2_rabi < 0:
            raise ValueError("Rabi frequencies must be >= 0")
        if self.detuning <= 0:
            raise ValueError(f"detuning must be > 0, got {self.detuning}")
        if self.laser_rabi < 0:
            raise ValueError("laser_rabi must be >= 0")

    @property
    def two_phi(self):
        """Combined squeezing phase 2*phi = phi1 + phi2, reduced to [0, 2*pi)."""
        return (self.phi1 + self.phi2) % (2.0 * math.pi)

    @property
    def phi(self):
        """Squeezing phase phi in [0, pi)."""
        return self.two_phi / 2.0


def thermal_occupation(omega, temperature):
    """Bose-Einstein occupation 1/(exp(hbar*omega/kB*T) - 1).

    ``omega`` is an angular frequency in GHz, ``temperature`` in Kelvin.
    Returns 0 at T = 0.
    """
    if omega <= 0:
        raise ValueError(f"omega must be > 0, got {omega}")
    if temperature < 0:
        raise ValueError(f"temperature must be >= 0, got {temperature}")
    if temperature == 0.0:
        return 0.0
    x = HBAR_OVER_KB * omega / temperature
    if x > 700.0:  # exp would overflow; occupation is indistinguishable from 0
        return 0.0
    return 1.0 / math.expm1(x)


def spectral_density(omega, bath):
    """Super-Ohmic spectral density J(omega) = alpha*omega**3*exp(-(omega/omega_c)**2).

    Accepts scalar or array ``omega`` (GHz, must be >= 0); returns GHz.
    The single interior maximum sits at omega_c*sqrt(3/2).
    """
    omega = np.asarray(omega, dtype=float)
    if np.any(omega < 0):
        raise ValueError("omega must be >= 0")
    result = bath.alpha * omega**3 * np.exp(-((omega / bath.omega_c) ** 2))
    return result if result.ndim else float(result)


def _displacement_integrand(bath):
    """Integrand alpha*omega*exp(-(omega/omega_c)^2)*(2 n(omega)+1) of the
    displacement exponent, with the omega -> 0 limit handled analytically."""
    alpha, wc = bath.alpha, bath.omega_c

    if bath.nbar_override is not None:
        factor = 2.0 * bath.nbar_override + 1.0

        def f(w):
            return alpha * w * math.exp(-((w / wc) ** 2)) * factor

        return f

    temp = bath.temperature

    def f(w):
        gauss = alpha * math.exp(-((w / wc) ** 2))
        if temp == 0.0:
            return gauss * w
        x = HBAR_OVER_KB * w / temp
        if x < 1e-12:  # w*(2 n + 1) -> 2*T/(hbar/kB)
            return gauss * 2.0 * temp / HBAR_OVER_KB
        if x > 700.0:
            return gauss * w
        return gauss * w * (2.0 / math.expm1(x) + 1.0)

    return f


def displacement_factor(bath, rtol=QUAD_RTOL):
    """Polaron displacement factor <B> in (0, 1].

    Continuum form exp[-1/2 * integral_0^inf J(omega)/omega^2 * (2 n(omega)+1)]
    evaluated by adaptive quadrature on [0, 8*omega_c]; at T = 0 the integral
    is alpha*omega_c**2/2 exactly, which the tests use as an oracle.
    """
    if bath.alpha == 0.0:
        return 1.0
    # Imported here: scipy.integrate costs ~0.5 s, and nothing else needs it.
    from scipy.integrate import quad

    upper = QUAD_CUTOFF * bath.omega_c
    integral, abserr = quad(_displacement_integrand(bath), 0.0, upper,
                            epsabs=0.0, epsrel=rtol, limit=200)
    if abserr > 10.0 * rtol * abs(integral):
        raise QuadratureError(
            f"displacement-factor quadrature did not converge: "
            f"integral={integral!r}, abserr={abserr!r}, requested rtol={rtol!r}")
    return math.exp(-0.5 * integral)


def phonon_rate(i, drive, bath, include_b=False):
    """Drive-induced damping rate gamma_i = 2*pi * Omega_i**2 * alpha * Delta (GHz).

    ``i`` selects the drive tone (1 or 2).  With ``include_b`` the Rabi
    frequency is renormalized by the displacement factor, Omega_i -> <B>*Omega_i;
    the default uses the bare value.  Warns when the detuning falls outside
    the support of J (the flat-density estimate is then meaningless).
    """
    if i == 1:
        omega_rabi = drive.omega1_rabi
    elif i == 2:
        omega_rabi = drive.omega2_rabi
    else:
        raise ValueError(f"tone index must be 1 or 2, got {i}")
    delta = drive.detuning
    if delta <= 0:
        raise ValueError(f"detuning must be > 0, got {delta}")

    j_peak = spectral_density(bath.omega_c * math.sqrt(1.5), bath)
    if j_peak > 0 and spectral_density(delta, bath) / j_peak < 1e-6:
        warnings.warn(
            f"detuning {delta} GHz lies outside the support of J(omega) "
            f"(cutoff {bath.omega_c} GHz); gamma_i estimate is unreliable",
            stacklevel=2)

    if include_b:
        omega_rabi = displacement_factor(bath) * omega_rabi
    return 2.0 * math.pi * omega_rabi**2 * bath.alpha * delta
