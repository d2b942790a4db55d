"""Reproduce the three reference datasets as CSV files.

Writes fig3.csv (|M|/N surface), fig4.csv (background-to-squeezing ratio
surface) and fig5.csv (incoherent spectrum against initial coherence) into
the current directory using the library API; `sps figure fig3|fig4|fig5`
emits the same files from the preset configs, byte-identically across runs.
"""

import math

import numpy as np

from sps import figure3_dataset, figure4_dataset, figure5_dataset, \
    reservoir_rates
from sps.output import write_csv
from sps.spectrum import default_omega_grid

nbar_grid = np.linspace(0.0, 3.0, 201)
ratio_grid = np.linspace(1.0, 10.0, 202)[1:]

write_csv("fig3.csv", ["nbar", "ratio", "value"],
          [figure3_dataset(nbar_grid, ratio_grid).T])
print("fig3.csv: |M|/N over (nbar, gamma2/gamma1), 201x201")

write_csv("fig4.csv", ["nbar", "ratio", "value"],
          [figure4_dataset(nbar_grid, ratio_grid).T])
print("fig4.csv: Nb/(|M|-Ns) over the same grid")

# The perfect-squeezing reservoir gamma1 = gamma2 = 1 at phase pi/2.
locked = reservoir_rates(1.0, 1.0, 0.5, phi1=math.pi / 2, phi2=math.pi / 2)
surface = figure5_dataset(locked, 20.0, math.pi / 2, np.linspace(-0.5, 0.5, 41),
                          omega_grid=default_omega_grid(20.0),
                          render_width=1.0)
write_csv("fig5.csv", ["sx0", "delta_omega", "S_in"], [surface.T])
print("fig5.csv: S_in over (sx0, omega-omega0) at Omega = 20 gamma0,")
print("          zero-width central feature rendered as a width-gamma0")
print("          Lorentzian so it is visible on the grid")
