"""The paper's two other forms of the reservoir Liouvillian, for the tests.

The oracle builds the reservoir in one form, ``reservoir_liouvillian``.
The paper also writes it as a maximally squeezed jump plus a thermal
background, and in the perfect regime as a quadrature (QND) coupling; the
tests check that all three are one matrix.
"""

import math

import numpy as np

from sps.oracle import I2, SM, SP, dissipator, sandwich
from sps.reservoir import REGIME_ORDINARY, map_to_squeezing

SX = 0.5 * (SP + SM)
SY = 0.5j * (SM - SP)


def build_liouvillian_decomposed(rates):
    """Reservoir Liouvillian as maximally-squeezed jump + thermal background.

    gamma*(D[Y] + Nb*D[S-] + Nb*D[S+]) with the squeezed jump operator
    Y = sqrt(Ns+1) S- e^{-i phi} - sqrt(Ns) S+ e^{i phi}.  Valid in the
    ordinary regime (gamma_2 > gamma_1) only; equals
    ``reservoir_liouvillian`` as a matrix.
    """
    desc = map_to_squeezing(rates)
    if desc.regime != REGIME_ORDINARY:
        raise ValueError(
            f"decomposition requires the ordinary regime (gamma2 > gamma1), "
            f"got {desc.regime}")
    phi = rates.phi
    jump = (math.sqrt(desc.n_squeezed + 1.0) * np.exp(-1j * phi) * SM
            - math.sqrt(desc.n_squeezed) * np.exp(1j * phi) * SP)
    return desc.gamma_eff * (dissipator(jump)
                             + desc.n_background * dissipator(SM)
                             + desc.n_background * dissipator(SP))


def build_qnd_liouvillian(gamma0, nbar, phi):
    """Quadrature-coupling (QND) form of the perfect-regime reservoir.

    4*(2*nbar+1)*gamma0 * (2 S_phi . S_phi - S_phi^2 . - . S_phi^2) with
    S_phi = Sx sin(phi) + Sy cos(phi).  Equals ``reservoir_liouvillian`` for
    gamma_1 = gamma_2 = gamma0 as a matrix; only S_phi couples to the bath,
    so <S_phi> is conserved.
    """
    s_phi = SX * math.sin(phi) + SY * math.cos(phi)
    s_phi2 = s_phi @ s_phi
    rate = 4.0 * (2.0 * nbar + 1.0) * gamma0
    return rate * (2.0 * sandwich(s_phi, s_phi)
                   - sandwich(s_phi2, I2) - sandwich(I2, s_phi2))
