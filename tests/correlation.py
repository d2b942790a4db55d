"""Time-domain fluctuation correlation for the tests, from the oracle alone.

C(tau) = tr(S- exp(L tau) X0) with X0 = rho_ss S+ - <S+>_ss rho_ss is the
quantum-regression correlation <dS+(t) dS-(t+tau)>_ss.  It is built on the
oracle's propagator and shares nothing with :mod:`sps.bloch` or
:mod:`sps.spectrum`, so it checks both independently.
"""

import numpy as np

from sps.oracle import SP, _propagate_vec, vectorize


def fluctuation_correlation(liouvillian, rho_ss, tau_grid):
    """C(tau) on a non-decreasing ``tau_grid`` starting at tau = 0."""
    rho_ss = np.asarray(rho_ss, dtype=complex)
    x0 = rho_ss @ SP - np.trace(rho_ss @ SP) * rho_ss
    traj = _propagate_vec(vectorize(x0), liouvillian, tau_grid)
    # tr(S- X) is the (e,g) element of X in the fixed vectorization order.
    return traj[:, 1]
