"""Analytic dynamics of the dot under the engineered reservoir.

Closed-form solutions of the optical Bloch equations: free decay of the
quadrature components, the driven system at resonance for squeezing phase
phi in {0, pi/2}, steady states with coherence locking in the perfect
regime, dressed-state populations, and the externally-generated squeezed
vacuum comparison case.  The brute-force counterpart lives in
:mod:`sps.oracle`; everything here must agree with it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .reservoir import RATE_FLOOR, _check_fields, _check_rule, _declare, \
    _scalar

#: Tolerance on the Bloch-sphere containment check sx^2+sy^2+sz^2 <= 1/4.
SPHERE_TOL = 1e-12

_HALF_PI = math.pi / 2.0


@dataclass(frozen=True)
class BlochVector:
    """Expectation values (<Sx>, <Sy>, <Sz>) of a physical dot state (or
    arrays of them)."""

    sx: float
    sy: float
    sz: float

    def __post_init__(self):
        norm2 = self.sx * self.sx + self.sy * self.sy + self.sz * self.sz
        if not np.all(norm2 <= 0.25 + SPHERE_TOL):
            raise ValueError(
                f"unphysical Bloch vector: |s|^2 = {_scalar(np.max(norm2))!r} > 1/4")

    def as_array(self):
        return np.array([self.sx, self.sy, self.sz])


def _bloch(sx, sy, sz):
    """BlochVector of the broadcast fields: Python floats when all are 0-d."""
    return BlochVector(*map(_scalar, np.broadcast_arrays(sx, sy, sz)))


def _times(t):
    """``t`` as a float array, checked elementwise to be >= 0."""
    t = np.asarray(t, dtype=float)
    _check_rule("t", ">= 0", t)
    return t


@dataclass(frozen=True)
class DampingTriple:
    """Damping rates (gamma_x, gamma_y, gamma_z) of the driven Bloch system.

    ``phi_choice`` records which squeezing phase (0 or pi/2) fixed the sign
    of the +-2*gamma_m terms; gamma_z = gamma_x + gamma_y always holds.
    The constructor checks each rate against its declared range.
    """

    gamma_x: float = _declare(rule=">= 0")
    gamma_y: float = _declare(rule=">= 0")
    gamma_z: float = _declare(rule=">= 0")
    phi_choice: float

    def __post_init__(self):
        _check_fields(self)


def quadrature(state, phi):
    """Rotated dipole components (s_phi, s_phi_perp).

    s_phi = sx*sin(phi) + sy*cos(phi); s_phi_perp = sx*cos(phi) - sy*sin(phi).
    The map is a reflection (its own inverse at fixed phi).
    """
    s, c = math.sin(phi), math.cos(phi)
    return state.sx * s + state.sy * c, state.sx * c - state.sy * s


def _decay_rates(rates, floor=RATE_FLOOR):
    """Decay rates (s_phi, s_phi_perp, <Sz>) of the undriven dot, elementwise.

    Gamma/2 + gamma_s + gamma_n -+ 2*gamma_m and gamma_z = Gamma + 2*(gamma_s
    + gamma_n); a reduced rate at most floor*gamma_z is returned as exactly 0
    (by default the one rule for a vanishing rate, RATE_FLOOR).
    """
    base = 0.5 * rates.gamma_rad + (rates.gamma_s + rates.gamma_n)
    reduced = base - 2.0 * rates.gamma_m
    gamma_z = rates.gamma_rad + 2.0 * (rates.gamma_s + rates.gamma_n)
    return (np.where(reduced <= floor * gamma_z, 0.0, reduced),
            base + 2.0 * rates.gamma_m, gamma_z)


def free_steady_inversion(rates):
    """Steady <Sz> of the undriven dot, -(gamma_s-gamma_n+Gamma/2)/(2(gamma_s+gamma_n+Gamma/2)).

    Positive (population inversion) exactly when gamma_n > gamma_s + Gamma/2,
    i.e. for gamma_1 sufficiently above gamma_2.
    """
    gamma_z = _decay_rates(rates)[2]
    return -_drive_inhomogeneity(rates) / gamma_z if gamma_z else 0.0


def free_evolution(state0, rates, t):
    """Free decay of the dot in the engineered reservoir after time ``t``.

    The quadrature s_phi decays at the reduced rate Gamma/2+gamma_s+gamma_n-2*gamma_m
    (0 up to RATE_FLOOR*gamma_z), s_phi_perp at the enhanced rate with
    +2*gamma_m, and <Sz> relaxes exponentially to ``free_steady_inversion``.
    ``t`` may be an array (the rates stay scalar); its fields broadcast.
    """
    t = _times(t)
    phi = rates.phi
    s_phi0, s_perp0 = quadrature(state0, phi)
    g_phi, g_perp, g_z = _decay_rates(rates)
    s_phi = s_phi0 * np.exp(-g_phi * t)
    s_perp = s_perp0 * np.exp(-g_perp * t)
    # The quadrature map is an involution: apply it again to rotate back.
    s, c = math.sin(phi), math.cos(phi)
    sz_ss = free_steady_inversion(rates)
    return _bloch(s_phi * s + s_perp * c, s_phi * c - s_perp * s,
                  sz_ss + (state0.sz - sz_ss) * np.exp(-g_z * t))


def _check_phi_choice(phi_choice):
    """phi_choice snapped elementwise to 0 (abs. tol. 1e-12) or pi/2 (rel.
    tol. 1e-12); any other value raises ValueError."""
    phi = np.asarray(phi_choice, dtype=float)
    zero = np.abs(phi) <= 1e-12
    ok = zero | (np.abs(phi - _HALF_PI)
                 <= 1e-12 * np.maximum(np.abs(phi), _HALF_PI))
    if not np.all(ok):
        raise ValueError("driven analysis supports phi in {0, pi/2} only, "
                         f"got {phi[~ok].flat[0]}")
    return _scalar(np.where(zero, 0.0, _HALF_PI))


def damping_triple(rates, phi_choice):
    """Damping rates of the driven Bloch system for phi_choice in {0, pi/2}.

    phi = 0:    gamma_x = gamma_s+gamma_n+2*gamma_m, gamma_y = gamma_s+gamma_n-2*gamma_m
    phi = pi/2: the two are swapped.
    gamma_z = 2*(gamma_s+gamma_n).  A nonzero radiative rate adds Gamma/2 to
    gamma_x, gamma_y and Gamma to gamma_z (extension beyond the Gamma = 0
    regime the closed forms were derived in).  The sign assignment is fixed
    by the perfect-regime limits: phi = 0 gives gamma_y = 0 and phi = pi/2
    gives gamma_x = 0 when gamma_1 = gamma_2.  Array-valued rates or
    phi_choice give array fields; a phi_choice other than the phase of
    ``rates`` (elementwise) raises ValueError.
    """
    phi = _check_phi_choice(phi_choice)
    if np.any(phi != _check_phi_choice(rates.phi)):
        raise ValueError(f"phi_choice {phi_choice} contradicts the reservoir's "
                         f"phase phi = {rates.phi}")
    reduced, enhanced, gamma_z = _decay_rates(rates)
    # gamma_y at phi = 0 is not floored: the drive couples s_y to <Sz>.
    coupled = _decay_rates(rates, floor=0.0)[0]
    phi_is_zero = phi == 0.0
    fields = np.broadcast_arrays(np.where(phi_is_zero, enhanced, reduced),
                                 np.where(phi_is_zero, coupled, enhanced),
                                 gamma_z, phi)
    return DampingTriple(*map(_scalar, fields))


def _drive_inhomogeneity(rates):
    """Constant term -(gamma_s - gamma_n + Gamma/2) in the <Sz> equation."""
    return rates.gamma_s - rates.gamma_n + 0.5 * rates.gamma_rad


def _sy_undamped(triple, omega):
    """Where nothing restores <Sy>: omega = 0 with gamma_y <= RATE_FLOOR*gamma_z
    (zero, as every engine counts it), or gamma_y*gamma_z + omega^2 = 0."""
    gy, gz = triple.gamma_y, triple.gamma_z
    return (((omega == 0.0) & (gy <= RATE_FLOOR * gz))
            | (gy * gz + omega * omega == 0.0))


def driven_steady_state(rates, omega, phi_choice, sx0=0.0):
    """Steady state of the resonantly driven dot (Rabi frequency ``omega``).

    <Sy>_s = d*Omega/(gamma_y*gamma_z + Omega^2) and
    <Sz>_s = -d*gamma_y/(gamma_y*gamma_z + Omega^2) with d = gamma_s - gamma_n
    (+Gamma/2 when radiative decay is kept).  <Sx>_s vanishes whenever
    gamma_x > 0; in the locked case (phi = pi/2, gamma_x at most the floor
    of _decay_rates, so 0) it stays at the initial coherence ``sx0``.  An
    undamped <Sy> (omega = 0 with gamma_y at most RATE_FLOOR*gamma_z) raises
    ValueError.  Every argument may be an array; they broadcast elementwise
    and any invalid element raises for the whole call.
    """
    omega = np.asarray(omega, dtype=float)
    _check_rule("omega", ">= 0", omega)
    triple = damping_triple(rates, phi_choice)
    if np.any(_sy_undamped(triple, omega)):
        raise ValueError(
            "steady state undefined: omega = 0 with gamma_y = 0 leaves <Sy> "
            "undamped (use free_evolution for the undriven dot)")
    denom = triple.gamma_y * triple.gamma_z + omega * omega
    d = _drive_inhomogeneity(rates)
    sy = d * omega / denom
    sz = -d * triple.gamma_y / denom
    sx = np.where(triple.gamma_x == 0.0, sx0, 0.0)
    return _bloch(sx, sy, sz)


def _expm2(a11, a12, a21, a22, t):
    """Closed-form exp(A t) for a real, stable 2x2 matrix A, elementwise in ``t``.

    Written through the eigen-exponentials exp((mu +- q) t) so that nothing
    overflows for strongly damped blocks at long times; their half
    difference is -exp((mu + q) t)*expm1(-2 q t)/2, which does not cancel.
    Where |q t| < 1e-3 the near-defective case uses the series of
    sinh(q t)/(q t) instead, whose first omitted term (q t)^6/5040 is below
    2e-22 (Moler & Van Loan 2003).  Each branch is evaluated on its own
    elements only, so neither overflows nor divides by q = 0.
    """
    mu = 0.5 * (a11 + a22)
    b11, b22 = a11 - mu, a22 - mu  # traceless part; B^2 = q^2 * I
    q = np.sqrt(complex(b11 * b11 + a12 * a21))
    ch = np.empty(t.shape, dtype=complex)
    sh_over_q = np.empty_like(ch)
    near = abs(q) * t < 1e-3
    tn, tf = t[near], t[~near]
    e = np.exp(mu * tn)
    x2 = (q * tn) ** 2
    ch[near] = e * np.cosh(q * tn)
    sh_over_q[near] = e * tn * (1.0 + x2 / 6.0 + x2 * x2 / 120.0)
    ep, em = np.exp((mu + q) * tf), np.exp((mu - q) * tf)
    ch[~near] = 0.5 * (ep + em)
    sh_over_q[~near] = -0.5 * ep * np.expm1(-2.0 * q * tf) / q
    return (
        (ch + sh_over_q * b11).real, (sh_over_q * a12).real,
        (sh_over_q * a21).real, (ch + sh_over_q * b22).real,
    )


def driven_evolution(state0, rates, omega, phi_choice, t):
    """Closed-form state of the driven dot at time ``t``.

    <Sx> decays independently at gamma_x (or is locked when gamma_x = 0);
    the coupled (<Sy>, <Sz>) block is propagated with the exact 2x2 matrix
    exponential about its fixed point, :func:`driven_steady_state`.  Agrees
    with the exact propagation of the full master equation to rounding
    accuracy.  ``t`` may be an array; the rates and ``omega`` stay scalar.
    """
    t = _times(t)
    triple = damping_triple(rates, phi_choice)
    sx = state0.sx * np.exp(-triple.gamma_x * t)

    gy, gz = triple.gamma_y, triple.gamma_z
    if _sy_undamped(triple, omega):
        # omega = 0 and gamma_y = 0: <Sy> is conserved, <Sz> relaxes alone
        # to the undriven dot's inversion.
        sz_ss = free_steady_inversion(rates)
        return _bloch(sx, state0.sy,
                      sz_ss + (state0.sz - sz_ss) * np.exp(-gz * t))

    fixed = driven_steady_state(rates, omega, phi_choice)
    e11, e12, e21, e22 = _expm2(-gy, -omega, omega, -gz, t)
    dy, dz = state0.sy - fixed.sy, state0.sz - fixed.sz
    return _bloch(sx, fixed.sy + e11 * dy + e12 * dz,
                  fixed.sz + e21 * dy + e22 * dz)


def dressed_populations(state):
    """Populations (rho_++, rho_--) of the resonant dressed states.

    |+-> = (|g> +- |e>)/sqrt(2); the populations depend on the coherence
    only: rho_+- = (1 +- 2<Sx>)/2.
    """
    return 0.5 * (1.0 + 2.0 * state.sx), 0.5 * (1.0 - 2.0 * state.sx)


def external_squeezed_decay(state0, n_photons, m_abs, gamma, t):
    """Free decay in an externally generated squeezed vacuum (phase Phi = 0).

    <Sy> decays at gamma*(1/2 + N - |M|), <Sx> at gamma*(1/2 + N + |M|), and
    <Sz> relaxes at gamma*(2N+1) to -1/(2*(2N+1)).  Requires the physical
    correlation range 0 <= |M| <= sqrt(N*(N+1)).
    """
    t = _times(t)
    _check_rule("n_photons", ">= 0", n_photons)
    _check_rule("gamma", ">= 0", gamma)
    m_max = math.sqrt(n_photons * (n_photons + 1.0))
    if not 0.0 <= m_abs <= m_max * (1.0 + 1e-12) + 1e-15:
        raise ValueError(
            f"|M| = {m_abs} outside the physical range [0, sqrt(N(N+1))] "
            f"= [0, {m_max}]")
    g_slow = gamma * (0.5 + n_photons - m_abs)
    g_fast = gamma * (0.5 + n_photons + m_abs)
    rate_z = gamma * (2.0 * n_photons + 1.0)
    sz_ss = -1.0 / (2.0 * (2.0 * n_photons + 1.0))
    sz = (state0.sz if rate_z == 0.0
          else sz_ss + (state0.sz - sz_ss) * np.exp(-rate_z * t))
    return _bloch(state0.sx * np.exp(-g_fast * t),
                  state0.sy * np.exp(-max(g_slow, 0.0) * t), sz)
