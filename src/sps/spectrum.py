"""Analytic resonance-fluorescence spectrum of the driven dot.

The incoherent spectrum is 2*Re{Lambda(-i*(omega-omega0))} where Lambda(z)
is the Laplace transform of the steady-state dipole fluctuation correlation
<dS+(t) dS-(t+tau)>.  Two engines are provided: the exact rational form
(``exact_incoherent_spectrum``, production) and the strong-field
three-Lorentzian approximation (``strong_field_spectrum``, pedagogical,
valid for Omega much larger than the damping rates).  Delta-function
contributions are never rendered onto the grid: the elastic component is
carried in ``coherent_weight`` and the zero-width incoherent feature of the
coherence-locked regime in ``zero_width_weight`` (both are coefficients of
2*pi*delta(omega-omega0)).
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .bloch import damping_triple, driven_steady_state
from .reservoir import _check_rule, _mesh_table

DEFAULT_OMEGA_POINTS = 2001


@dataclass(frozen=True)
class SpectrumResult:
    """Sampled incoherent spectrum plus the delta-function weights.

    ``incoherent`` holds S_in on ``omega_grid`` (offsets from the laser
    frequency, GHz) in 1/GHz.  ``coherent_weight`` is the elastic weight
    |<S+>_s|^2 and ``zero_width_weight`` the non-decaying fluctuation weight
    that appears when gamma_x = 0; both multiply 2*pi*delta(omega-omega0).
    ``fluctuation_total`` is the exact total incoherent power
    <dS+ dS->_s = 1/2 + s_z - s_x^2 - s_y^2 of the engine's steady state,
    which :func:`sum_rule` approaches as the grid resolves every peak.
    """

    coherent_weight: float
    omega_grid: np.ndarray
    incoherent: np.ndarray
    fluctuation_total: float
    zero_width_weight: float = 0.0
    engine: str = ""


def default_omega_grid(omega, points=DEFAULT_OMEGA_POINTS):
    """Default frequency grid [-2*Omega, 2*Omega]."""
    _check_rule("omega", "> 0", omega)
    return np.linspace(-2.0 * omega, 2.0 * omega, points)


def sum_rule(result):
    """Total incoherent power (1/2pi) * integral S_in + zero-width weight.

    Equals the steady-state fluctuation strength <dS+ dS->_s up to grid
    truncation of the Lorentzian tails.
    """
    return (np.trapezoid(result.incoherent, result.omega_grid) / (2.0 * math.pi)
            + result.zero_width_weight)


def rendered_incoherent(result, width):
    """Incoherent spectrum with the zero-width feature drawn as a Lorentzian.

    Replaces the delta of weight w by 2w/(width*(1 + (delta/width)^2)), which
    carries the same integrated power and is never NaN, at any width > 0.
    """
    _check_rule("width", "> 0", width)
    with np.errstate(over="ignore"):  # a peak beyond the float range is inf
        return result.incoherent + 2.0 * result.zero_width_weight / (
            width * (1.0 + (result.omega_grid / width) ** 2))


def _fluctuation_moments(rates, omega, phi_choice, sx0):
    """Steady state, damping triple and the initial fluctuation products.

    Returns (triple, steady, cx0, cy0, cz0) where cq0 = <dS+ dSq>_s feed the
    regression-theorem initial conditions of the correlation vector.
    """
    triple = damping_triple(rates, phi_choice)
    steady = driven_steady_state(rates, omega, phi_choice, sx0=sx0)
    sx, sy, sz = steady.sx, steady.sy, steady.sz
    sp = sx + 1j * sy  # <S+>_s
    cx0 = 0.5 * (sz + 0.5) - sx * sp
    cy0 = 0.5j * (sz + 0.5) - sy * sp
    cz0 = -0.5 * sp * (1.0 + 2.0 * sz)
    return triple, steady, cx0, cy0, cz0


def _lambda_rational(z, triple, omega, cx0, cy0, cz0):
    """Lambda(z) from the fluctuation moments, without the gamma_x = 0 pole:

    Lambda(z) = <dS+ dSx>_s/(z + gamma_x)
              - i*[<dS+ dSy>_s (z + gamma_z) - Omega <dS+ dSz>_s]
                / [z^2 + (gamma_y+gamma_z) z + gamma_y*gamma_z + Omega^2]
    """
    denom = z**2 + (triple.gamma_y + triple.gamma_z) * z + (
        triple.gamma_y * triple.gamma_z + omega**2)
    val = -1j * (cy0 * (z + triple.gamma_z) - omega * cz0) / denom
    if triple.gamma_x > 0.0:
        val = val + cx0 / (z + triple.gamma_x)
    return val


def exact_incoherent_spectrum(rates, omega, phi_choice, sx0=0.0, *, omega_grid):
    """Incoherent spectrum from the exact rational Lambda (no approximation).

    S_in(omega) = 2*Re{Lambda(-i*(omega-omega0))} on the grid.  In the
    coherence-locked regime (gamma_x = 0) the non-decaying part of the
    correlation, of weight (1 - 4*sx0^2)/4, is reported in
    ``zero_width_weight`` instead of being evaluated as a pole; the elastic
    weight |<S+>_s|^2 goes to ``coherent_weight``.  An undamped dot
    (gamma_s + gamma_n + Gamma = 0) raises ValueError.
    """
    if rates.gamma_s + rates.gamma_n + rates.gamma_rad == 0.0:
        # Its sideband poles sit on the axis: S_in is 0/0 at delta = +-Omega.
        raise ValueError("undamped dot: the correlation never decays")
    omega_grid = np.asarray(omega_grid, dtype=float)
    triple, steady, cx0, cy0, cz0 = _fluctuation_moments(
        rates, omega, phi_choice, sx0)

    val = _lambda_rational(-1j * omega_grid, triple, omega, cx0, cy0, cz0)
    # cx0 is real when gamma_x = 0 (sy_s = 0 in the locked regime)
    zero_width = 0.0 if triple.gamma_x > 0.0 else cx0.real
    s_in = 2.0 * np.real(val)

    return SpectrumResult(
        coherent_weight=steady.sx**2 + steady.sy**2,
        omega_grid=omega_grid,
        incoherent=s_in,
        fluctuation_total=(cx0 - 1j * cy0).real,
        zero_width_weight=zero_width,
        engine="exact")


def strong_field_spectrum(rates, omega, phi_choice, sx0=0.0, *, omega_grid):
    """Three-Lorentzian strong-field spectrum (valid Omega >> damping rates).

    Central peak 1/2*(1-4*sx^2)*gamma_x/(gamma_x^2+delta^2); Rabi sidebands
    at delta = +-Omega with symmetric weight (1 +- 2*sx)*(gamma_y+gamma_z)/8
    plus the small dispersive correction (gamma_z-gamma_y)/(8*Omega).  This
    is a clearly labeled approximation engine; use the exact engine for
    ground truth.
    """
    _check_rule("omega", "> 0", omega)
    omega_grid = np.asarray(omega_grid, dtype=float)
    triple, steady, cx0, cy0, _ = _fluctuation_moments(
        rates, omega, phi_choice, sx0)
    gx, gy, gz = triple.gamma_x, triple.gamma_y, triple.gamma_z
    if omega < 10.0 * max(gy, gz):
        warnings.warn(
            f"strong-field formula used at Omega = {omega} < 10*max(gamma_y, "
            f"gamma_z) = {10.0 * max(gy, gz)}; accuracy degrades", stacklevel=2)
    sx = steady.sx

    delta = omega_grid
    zero_width = 0.0
    if gx > 0.0:
        central = 0.5 * (1.0 - 4.0 * sx**2) * gx / (gx**2 + delta**2)
    else:
        central = np.zeros_like(delta)
        zero_width = 0.25 * (1.0 - 4.0 * sx**2)
    width2 = 0.25 * (gy + gz) ** 2
    disp = (gz - gy) / (8.0 * omega)
    upper = (0.125 * (1.0 + 2.0 * sx) * (gy + gz) + disp * (delta - omega)) / (
        width2 + (delta - omega) ** 2)
    lower = (0.125 * (1.0 - 2.0 * sx) * (gy + gz) + disp * (delta + omega)) / (
        width2 + (delta + omega) ** 2)

    return SpectrumResult(
        coherent_weight=sx**2,
        omega_grid=omega_grid,
        incoherent=central + upper + lower,
        fluctuation_total=(cx0 - 1j * cy0).real,
        zero_width_weight=zero_width,
        engine="strong-field")


def pole_decomposition(rates, omega, phi_choice, sx0=0.0):
    """Exact poles and residues of Lambda(z).

    Returns a dict with the sideband pole pair (roots of the quadratic
    denominator; "upper"/"lower" labels refer to the sideband at
    delta = +Omega / -Omega) and the central term (pole at -gamma_x with
    weight <dS+ dSx>_s).  The residues quantify each spectral component's
    weight; an extinguished sideband's is below eps*(gamma_y + gamma_z)/Omega
    of the other.  A critical drive raises: the discriminant does not cancel.
    """
    triple, _, cx0, cy0, cz0 = _fluctuation_moments(rates, omega, phi_choice, sx0)
    gy, gz = triple.gamma_y, triple.gamma_z
    disc = complex((gy - gz) * (gy - gz) - 4.0 * (omega * omega))
    root = np.sqrt(disc)
    if abs(root) < 1e-12 * max(gy + gz, 1.0):
        raise ValueError("critically damped sideband pair: poles coincide")
    z_plus = 0.5 * (-(gy + gz) + root)
    z_minus = 0.5 * (-(gy + gz) - root)

    def numerator(z):
        return -1j * (cy0 * (z + gz) - omega * cz0)

    res_plus = numerator(z_plus) / (z_plus - z_minus)
    res_minus = numerator(z_minus) / (z_minus - z_plus)
    # The pole with negative imaginary part peaks at delta = +Omega; the
    # principal root has imag >= 0, so that pole is z_minus.
    return {
        "z_upper": z_minus, "residue_upper": res_minus,
        "z_lower": z_plus, "residue_lower": res_plus,
        "z_central": -triple.gamma_x, "weight_central": cx0,
    }


def _figure5_value(rates, omega, phi_choice, render_width, sx0, delta):
    """S_in at (sx0, delta), elementwise; given a ``render_width``, the
    zero-width central feature drawn as in :func:`rendered_incoherent`."""
    result = exact_incoherent_spectrum(rates, omega, phi_choice, sx0=sx0,
                                       omega_grid=delta)
    return (result.incoherent if render_width is None
            else rendered_incoherent(result, render_width))


def figure5_dataset(rates, omega, phi_choice, sx0_grid, *, omega_grid,
                    render_width=None):
    """Incoherent-spectrum surface over the initial coherence sx0.

    Rows are (sx0, delta_omega, S_in) with sx0 as the outer loop; each sx0
    block is ``exact_incoherent_spectrum(rates, omega, phi_choice, sx0,
    omega_grid=omega_grid)``.  Given a ``render_width``, the zero-width
    central feature is drawn as a Lorentzian of that width, which keeps its
    integrated power.  The table is filled block by block, as fig3/fig4's.
    """
    return _mesh_table(functools.partial(_figure5_value, rates, omega,
                                         phi_choice, render_width),
                       sx0_grid, omega_grid)
