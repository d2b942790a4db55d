"""The physical domain that every property test draws from.

A point of it is a reservoir (gamma1, gamma2, nbar, Gamma), a resonant
drive Omega with its phase choice phi in {0, pi/2}, and an initial
coherence sx0; a Bloch state is drawn uniformly from the ball |s| <= 1/2.
Each edge case of the closed forms is an explicit branch of the strategy
that draws its parameter:

- the perfect regime, gamma2 = gamma1 (``gamma_pairs``);
- T = 0, which is nbar = 0 in the rate domain (``nbars``);
- Gamma = 0 and Gamma > 0 (``gamma_rads``);
- the undriven dot, Omega = 0 (``omegas``);
- a critically damped sideband pair, Omega = (gamma_z - gamma_y)/2
  (``points``);
- the locked coherence at its bounds, sx0 = +-1/2 (``sx0s``).

Where a property needs a narrower draw, a named sub-strategy at the end of
this module offers it, with its reason.  The constants the test modules
share live here too.
"""

import math
from typing import NamedTuple

from hypothesis import strategies as st

from sps.bloch import BlochVector, damping_triple
from sps.reservoir import reservoir_rates

HALF_PI = math.pi / 2.0

#: The locked reservoir of the paper's figures: gamma1 = gamma2 = 1 GHz,
#: nbar = 0.5, squeezing phase pi/2 (gamma_y = gamma_z = 8 at phi = pi/2).
LOCKED = reservoir_rates(1.0, 1.0, 0.5, phi1=HALF_PI, phi2=HALF_PI)


def csv_text(value):
    """A float as the CSV writer spells it, for bit-for-bit comparisons."""
    return "%.17g" % value


GAMMA_MIN, GAMMA_MAX = 1e-3, 50.0   # gamma1, gamma2 (GHz)
NBAR_MAX = 5.0
GAMMA_RAD_MAX = 5.0                 # Gamma (GHz)
OMEGA_MAX = 300.0                   # Omega (GHz)

gammas = st.floats(GAMMA_MIN, GAMMA_MAX)
#: (gamma1, gamma2): gamma2 equal to gamma1 (the perfect regime, drawn as
#: None) or drawn on its own.
gamma_pairs = st.tuples(gammas, st.one_of(st.none(), gammas)).map(
    lambda p: (p[0], p[0] if p[1] is None else p[1]))
nbars = st.one_of(st.just(0.0), st.floats(0.0, NBAR_MAX))
gamma_rads = st.one_of(st.just(0.0), st.floats(0.0, GAMMA_RAD_MAX))
#: (gamma1, gamma2, nbar, Gamma).
reservoirs = st.builds(lambda pair, nbar, gamma_rad: (*pair, nbar, gamma_rad),
                       gamma_pairs, nbars, gamma_rads)
phis = st.sampled_from((0.0, HALF_PI))
omegas = st.one_of(st.just(0.0), st.floats(0.0, OMEGA_MAX))
sx0s = st.one_of(st.sampled_from((-0.5, 0.5)), st.floats(-0.5, 0.5))
bloch_states = st.builds(
    lambda u, costh, azimuth: BlochVector(
        0.5 * u * math.sqrt(1 - costh**2) * math.cos(azimuth),
        0.5 * u * math.sqrt(1 - costh**2) * math.sin(azimuth),
        0.5 * u * costh),
    st.floats(0.0, 1.0), st.floats(-1.0, 1.0), st.floats(0.0, 2.0 * math.pi))


class Point(NamedTuple):
    """One point of the domain."""

    gamma1: float
    gamma2: float
    nbar: float
    gamma_rad: float
    omega: float
    sx0: float
    phi: float

    def rates(self):
        """The reservoir of the point, at squeezing phase ``phi``."""
        return reservoir_rates(self.gamma1, self.gamma2, self.nbar,
                               phi1=self.phi, phi2=self.phi,
                               gamma_rad=self.gamma_rad)


def critical_omega(rates, phi):
    """The drive (gamma_z - gamma_y)/2 that makes the (Sy, Sz) block
    defective.  Where gamma_z = gamma_y it is 0 in real arithmetic but can
    round below 0, outside the library's Omega >= 0, so it is clamped."""
    triple = damping_triple(rates, phi)
    return max(0.0, 0.5 * (triple.gamma_z - triple.gamma_y))


def _point(reservoir, omega, sx0, phi):
    point = Point(*reservoir, omega or 0.0, sx0, phi)
    if omega is None:  # the critical drive
        point = point._replace(omega=critical_omega(point.rates(), phi))
    return point


def _points(omegas):
    """Points whose Omega is drawn from ``omegas`` or is the critical one."""
    return st.builds(_point, reservoirs, st.one_of(st.none(), omegas), sx0s,
                     phis)


points = _points(omegas)

#: The perfect regime at phi = pi/2 and Gamma = 0, where (gamma_z -
#: gamma_y)/2 rounds to -8.9e-16: the critical drive that once fell below 0
#: (found by hypothesis seed 122).  Built as a critical draw, so it goes
#: through the clamp; its Omega is 0.
ROUNDED_CRITICAL = _point((1.84375, 1.84375, 0.39966502237142987, 0.0), None,
                          0.0, HALF_PI)


# Narrower draws, each for the properties that name it.

#: A nonzero Omega of at least 0.01 GHz: in the perfect regime at phi = 0
#: the slowest rate of the driven pair, ~Omega^2/gamma_z, then stays far
#: above rounding.
drives = st.floats(0.01, OMEGA_MAX)
#: Points whose Omega is 0, one of the ``drives`` or the critical one, for
#: properties that wait out the slowest rate.  A critical Omega may be
#: below 0.01 GHz: it damps the pair at (gamma_y + gamma_z)/2 all the same.
resolved_points = _points(st.one_of(st.just(0.0), drives))

#: Pairs with |gamma1 - gamma2| >= 1e-3 max(gamma1, gamma2): closer, a
#: reduced rate ~(gamma2 - gamma1)^2 can fall below RATE_FLOOR*gamma_z and
#: count as exactly 0.
unequal_pairs = st.tuples(gammas, gammas).filter(
    lambda p: abs(p[0] - p[1]) >= 1e-3 * max(p))

#: Points for the oracle cross-check of the spectrum and the decay.  The
#: oracle's resolvent and propagator agree with the closed forms to about
#: eps*scale/rate, and the cross-check's bounds admit that only for
#: well-resolved rates.  So gamma1 is in [0.1, 5] GHz, Omega in [0.5, 30] GHz
#: (its ~Omega^2/gamma_z at phi = 0 stays resolved), Gamma is 0 or at least
#: 0.05 GHz, and gamma2/gamma1 stays off the near-perfect band 0.8 <
#: gamma2/gamma1 < 1.25, where a slow rate gamma_x or gamma_y ~ (gamma2 -
#: gamma1)^2 makes the resolvent ill-conditioned; that band has its own
#: tests.  The exception is the locked draw: there the reduced rate lies
#: below RATE_FLOOR*gamma_z and both engines count it as zero.  It stops at
#: 2e-6, not at the floor (~4e-5), because the snapped rate, ~(gamma2/gamma1
#: - 1)^2/16 of gamma_z, moves the free decay over a 5/gamma_z horizon by
#: 5/16*(gamma2/gamma1 - 1)^2, which must stay under the 1e-12 bound.
oracle_points = st.builds(
    lambda gamma1, ratio, *rest: Point(gamma1, gamma1 * ratio, *rest),
    st.floats(0.1, 5.0),
    st.one_of(st.just(1.0), st.floats(1.25, 10.0), st.floats(0.1, 0.8),
              st.floats(-2e-6, 2e-6).map(lambda e: 1.0 + e)),
    nbars, st.one_of(st.just(0.0), st.floats(0.05, 2.0)),
    st.floats(0.5, 30.0), sx0s, phis)

#: Pairs with gamma2/gamma1 = 1 +- 10^e, e in [-7, -3]: both sides of the
#: reduced rate's RATE_FLOOR, which it crosses near gamma2/gamma1 - 1 ~ 4e-5.
#: gamma1 starts at 0.01 GHz, not at GAMMA_MIN.  The oracle's SVD resolves a
#: singular value only to ~eps*|L| ~ eps*Omega; with Omega up to 300 GHz and a
#: smaller gamma1 that is more than a percent of the floor RATE_FLOOR*gamma_z,
#: and the engines disagree on locking well outside the floor's 1e-3 band.
#: That is a known defect of kernel_projector (the FOUND note on it in
#: CHANGES.md; pinned by TestOracleAgainstClosedForms.
#: test_strong_drive_near_floor_disagrees_on_locking), and it reaches
#: gamma1 >= 0.01 GHz too, only in a band too narrow for random draws.
floor_band_pairs = st.tuples(
    st.floats(0.01, GAMMA_MAX), st.floats(-7.0, -3.0),
    st.sampled_from((-1.0, 1.0))).map(
        lambda p: (p[0], p[0] * (1.0 + p[2] * 10.0 ** p[1])))

#: gamma2/gamma1 in (1, 1 + 1e-3], the ordinary side of the perfect regime,
#: where N and |M| grow like 1/(gamma2/gamma1 - 1).
near_perfect_ratios = st.floats(1.0, 1.001, exclude_min=True)
