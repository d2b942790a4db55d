"""Resonantly driven dot: steady states, coherence locking, dressed states.

Adding a resonant laser (Rabi frequency Omega) on top of the engineered
reservoir decouples <Sx> from the drive.  For unequal tones it simply decays;
in the perfect regime at squeezing phase pi/2 its damping rate is exactly
zero, so the steady state remembers the initial coherence: the dressed-state
populations (1 +- 2<Sx>)/2 can be polarized at will, up to complete trapping
in one dressed state at sx0 = +-1/2.
"""

import math

import numpy as np

from sps import (
    BlochVector,
    damping_triple,
    dressed_populations,
    driven_evolution,
    driven_steady_state,
    oracle,
    reservoir_rates,
)

HALF_PI = math.pi / 2.0

print("unequal tones: the steady state forgets the initial coherence")
rates = reservoir_rates(2.0, 1.0, 0.0)
steady = driven_steady_state(rates, 2.0, 0.0, sx0=0.4)
print(f"  gamma1=2, gamma2=1, nbar=0, phi=0, Omega=2:")
print(f"  steady (sx, sy, sz) = ({steady.sx:+.5f}, {steady.sy:+.5f}, "
      f"{steady.sz:+.5f})")

print("\nperfect regime, phase pi/2: gamma_x = 0 locks <Sx>")
locked = reservoir_rates(1.0, 1.0, 0.5, phi1=HALF_PI, phi2=HALF_PI)
triple = damping_triple(locked, HALF_PI)
print(f"  damping triple: gamma_x = {triple.gamma_x}, gamma_y = "
      f"{triple.gamma_y}, gamma_z = {triple.gamma_z}")

print(f"\n{'sx0':>6} {'steady sx':>10} {'rho_++':>8} {'rho_--':>8}   note")
for sx0 in (-0.5, -0.3, 0.0, 0.3, 0.5):
    steady = driven_steady_state(locked, 20.0, HALF_PI, sx0=sx0)
    plus, minus = dressed_populations(steady)
    note = ""
    if sx0 == 0.5:
        note = "trapped in |+> = (|g>+|e>)/sqrt(2)"
    elif sx0 == -0.5:
        note = "trapped in |-> = (|g>-|e>)/sqrt(2)"
    print(f"{sx0:6.2f} {steady.sx:10.5f} {plus:8.3f} {minus:8.3f}   {note}")

print("\ntransient: everything but the locked coherence relaxes fast")
state0 = BlochVector(0.3, 0.2, -0.25)
print(f"{'t':>6} {'sx':>9} {'sy':>9} {'sz':>9}")
for t in (0.0, 0.1, 0.3, 1.0, 3.0):
    s = driven_evolution(state0, locked, 20.0, HALF_PI, t)
    print(f"{t:6.2f} {s.sx:9.5f} {s.sy:9.5f} {s.sz:9.5f}")

print("\nbrute-force check of the locked steady state (kernel projection)")
lv = oracle.build_liouvillian(locked, omega=20.0, laser_on=True)
rho_inf = oracle.stationary_state(lv, oracle.bloch_to_rho(state0))
print(f"  asymptotic (sx, sy, sz) = "
      f"{np.round(oracle.rho_to_bloch(rho_inf).as_array(), 10)}")
print("  the Liouvillian kernel is two-dimensional here: the stationary")
print("  state is selected by the initial coherence, not by the rates.")
