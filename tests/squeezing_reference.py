"""The squeezed-field picture of the ordinary regime in 400-digit decimals.

For gamma1 = 1 < gamma2 = ratio, straight from the definitions in
:func:`sps.reservoir.map_to_squeezing` and with none of its algebra:
N = gamma_n/(gamma2 - gamma1), |M| = gamma_m/(gamma2 - gamma1),
Ns(Ns + 1) = |M|**2 and Nb = N - Ns.  For float inputs with nbar <= 5,
N - Ns cancels by at most about 355 digits (ratio = 1 + 2**-52, nbar the
smallest subnormal), which leaves more than 40 exact ones.
"""

from decimal import Decimal, localcontext

DIGITS = 400


def ordinary_split(ratio, nbar):
    """Floats (|M|/N, Nb/(|M| - Ns), Nb) at gamma1 = 1, gamma2 = ``ratio``
    > 1, each rounded once from the exact decimal value of the float inputs."""
    with localcontext() as ctx:
        ctx.prec = DIGITS
        g2, n = Decimal(ratio), Decimal(nbar)
        diff = g2 - 1
        n_photons = ((n + 1) + g2 * n) / diff
        m_abs = (2 * n + 1) * g2.sqrt() / diff
        n_squeezed = (Decimal("0.25") + m_abs * m_abs).sqrt() - Decimal("0.5")
        n_background = n_photons - n_squeezed
        return (float(m_abs / n_photons),
                float(n_background / (m_abs - n_squeezed)),
                float(n_background))
