"""From bath physics to effective reservoir rates.

An InAs/GaAs-like dot couples to acoustic phonons through the super-Ohmic
spectral density J(w) = alpha*w^3*exp(-(w/w_c)^2).  Driving the dot with two
laser tones at detunings +-Delta converts that bath into an effective
two-parameter reservoir: each tone contributes a damping rate
gamma_i = 2*pi*Omega_i^2*alpha*Delta.  This script walks through the numbers
for the reference parameter set.
"""

import numpy as np

from sps import (
    DriveConfig,
    PhononBathSpec,
    displacement_factor,
    phonon_rates,
    reservoir_rates,
    spectral_density,
    thermal_occupation,
)

ALPHA = 2.535e-7   # GHz^-2
OMEGA_C = 1500.0   # GHz
DETUNING = 490.0   # GHz
RABI = 70.0        # GHz, both tones

bath_cold = PhononBathSpec(alpha=ALPHA, omega_c=OMEGA_C, temperature=0.0)
bath_warm = PhononBathSpec(alpha=ALPHA, omega_c=OMEGA_C, temperature=2.35)
bath_pinned = PhononBathSpec(alpha=ALPHA, omega_c=OMEGA_C, nbar_override=0.5)
drive = DriveConfig(omega1_rabi=RABI, omega2_rabi=RABI, detuning=DETUNING)

print("spectral density J(w) = alpha w^3 exp(-(w/w_c)^2)")
print(f"  peak position  : {OMEGA_C * np.sqrt(1.5):8.1f} GHz (= w_c sqrt(3/2))")
print(f"  J at detuning  : {spectral_density(DETUNING, bath_cold):8.3f} GHz")

print("\nthermal occupation at the detuning frequency")
for temp in (0.5, 1.0, 2.35, 4.0):
    print(f"  T = {temp:4.2f} K  ->  nbar = {thermal_occupation(DETUNING, temp):.4f}")
print("  note: 2.35 K gives nbar = 0.255, so the reference datasets pin")
print("  nbar = 0.5 directly via the bath override instead of a temperature.")

print("\npolaron displacement factor <B> (Rabi-frequency renormalization)")
print(f"  T = 0          : {displacement_factor(bath_cold):.6f}")
print(f"  T = 2.35 K     : {displacement_factor(bath_warm):.6f}")
print(f"  nbar = 0.5     : {displacement_factor(bath_pinned):.6f}")

gamma_bare, _ = phonon_rates(drive, bath_pinned)
gamma_dressed, _ = phonon_rates(drive, bath_pinned, include_b=True)
print("\ndrive-induced damping rate per tone (Omega_i = 70 GHz)")
print(f"  bare Omega_i   : gamma_i = {gamma_bare:.4f} GHz   (~4 GHz estimate)")
print(f"  with <B>       : gamma_i = {gamma_dressed:.4f} GHz")

rr = reservoir_rates(gamma_bare, gamma_bare, 0.5)
print("\nengineered reservoir triple at nbar = 0.5 (symmetric drive)")
print(f"  gamma_s = gamma_n = gamma_m = {rr.gamma_s:.4f} GHz")
print("  equal rates: the perfect-squeezing regime (see demo 03)")
