"""Brute-force ground truth for the two-level dot, in numpy alone.

Builds the full 4x4 Liouvillian superoperator L and answers every question
with exact linear algebra on it.  Propagation applies exp(L (t_k - t_0))
at every sample (Pade-13 scaling and squaring, Higham 2005).  The
t -> infinity state is P vec(rho_0), with P the spectral projector onto
ker L built from SVD null vectors (not from an eigendecomposition: L is
defective at a critically damped sideband pair).  The regression-theorem
spectrum is the resolvent -(L - P + i delta)^-1 (1 - P) X_0, one batched
solve over the frequency grid; the never-decaying kernel part P X_0 is
the zero-width weight.  Nothing here reuses the closed forms of
:mod:`sps.bloch` or :mod:`sps.spectrum`: this module is the independent
check they are tested against.

Vectorization convention (fixed everywhere): the density matrix in the
{|e>, |g>} basis is flattened row-major, vec(rho) = (rho_ee, rho_eg,
rho_ge, rho_gg), so the superoperator of rho -> A rho B is kron(A, B.T).
"""

from __future__ import annotations

import math

import numpy as np

from .bloch import BlochVector
from .reservoir import REGIME_ORDINARY, map_to_squeezing
from .spectrum import SpectrumResult

# Dot operators in the {|e>, |g>} basis.
SP = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)   # S+ = |e><g|
SM = np.array([[0.0, 0.0], [1.0, 0.0]], dtype=complex)   # S- = |g><e|
SX = 0.5 * (SP + SM)
SY = 0.5j * (SM - SP)
SZ = np.array([[0.5, 0.0], [0.0, -0.5]], dtype=complex)
I2 = np.eye(2, dtype=complex)

_KERNEL_TOL = 1e-10
#: Relative bound on the projector identities, stationarity and solve residuals.
_RESIDUAL_TOL = 1e-8
#: Samples per batched matrix exponential (bounds the working memory).
_CHUNK = 4096

#: Pade-13 coefficients b_0..b_13 and the largest 1-norm theta_13 at which
#: the unscaled approximant meets unit roundoff (Higham 2005, Table 2.3).
_PADE13 = (64764752532480000.0, 32382376266240000.0, 7771770303897600.0,
           1187353796428800.0, 129060195264000.0, 10559470521600.0,
           670442572800.0, 33522128640.0, 1323241920.0, 40840800.0,
           960960.0, 16380.0, 182.0, 1.0)
_THETA13 = 5.371920351148152


class DegenerateSteadyStateError(ValueError):
    """The Liouvillian kernel is more than one-dimensional."""


class PropagationError(RuntimeError):
    """A linear-algebra result failed its check (broken invariants or residuals)."""


def vectorize(rho):
    """Flatten a 2x2 operator to the fixed (ee, eg, ge, gg) order."""
    return np.asarray(rho, dtype=complex).reshape(4)


def unvectorize(vec):
    return np.asarray(vec, dtype=complex).reshape(2, 2)


def sandwich(a, b):
    """Superoperator of rho -> a @ rho @ b."""
    return np.kron(a, b.T)


def dissipator(c):
    """Lindblad dissipator D[c] = c rho c+ - 1/2 {c+ c, rho} as a 4x4 matrix."""
    cdc = c.conj().T @ c
    return (sandwich(c, c.conj().T)
            - 0.5 * sandwich(cdc, I2) - 0.5 * sandwich(I2, cdc))


def hamiltonian_superop(h):
    """Superoperator of the coherent part rho -> -i [h, rho]."""
    return -1j * (sandwich(h, I2) - sandwich(I2, h))


def expect(op, rho):
    """Expectation value tr(rho @ op)."""
    return complex(np.trace(rho @ op))


def bloch_to_rho(state):
    """Density matrix of a Bloch vector: rho = I/2 + 2(sx Sx + sy Sy + sz Sz)."""
    return np.array([[0.5 + state.sz, state.sx - 1j * state.sy],
                     [state.sx + 1j * state.sy, 0.5 - state.sz]], dtype=complex)


def rho_to_bloch(rho):
    """Bloch vector of a density matrix (float fields), or of each matrix in
    an (n, 2, 2) stack (array fields, equal to the per-matrix values)."""
    rho = np.asarray(rho)
    fields = (rho[..., 0, 1].real, -rho[..., 0, 1].imag,
              0.5 * (rho[..., 0, 0] - rho[..., 1, 1]).real)
    return BlochVector(*(map(float, fields) if rho.ndim == 2 else fields))


def assert_density_matrix(rho, tol=1e-10):
    """Raise unless rho is Hermitian, unit-trace and positive to ``tol``."""
    rho = np.asarray(rho, dtype=complex)
    if rho.shape != (2, 2):
        raise ValueError(f"expected a 2x2 matrix, got shape {rho.shape}")
    if np.abs(rho - rho.conj().T).max() > tol:
        raise ValueError("density matrix is not Hermitian")
    if abs(np.trace(rho) - 1.0) > tol:
        raise ValueError(f"density matrix trace {np.trace(rho)!r} != 1")
    if np.linalg.eigvalsh(0.5 * (rho + rho.conj().T)).min() < -tol:
        raise ValueError("density matrix has a negative eigenvalue")


def reservoir_liouvillian(rates):
    """Engineered-reservoir part of the master equation.

    2*gamma_s D[S-] + 2*gamma_n D[S+]
    - 2*gamma_m (e^{2i phi} S+ . S+ + e^{-2i phi} S- . S-)
    """
    phi = rates.phi
    lv = 2.0 * rates.gamma_s * dissipator(SM) + 2.0 * rates.gamma_n * dissipator(SP)
    lv -= 2.0 * rates.gamma_m * (np.exp(2j * phi) * sandwich(SP, SP)
                                 + np.exp(-2j * phi) * sandwich(SM, SM))
    return lv


def build_liouvillian(rates, *, omega=0.0, laser_on=False):
    """Full Liouvillian: reservoir + radiative decay + optional resonant drive.

    The squeezing phase and Gamma are those of ``rates``.  The radiative
    part is Gamma*D[S-]; the drive enters as -i[V, .] with
    V = (Omega/2)(S+ + S-), which reproduces d<Sy>/dt = -Omega <Sz>,
    d<Sz>/dt = +Omega <Sy>.
    """
    lv = reservoir_liouvillian(rates)
    if rates.gamma_rad > 0.0:
        lv = lv + rates.gamma_rad * dissipator(SM)
    if laser_on and omega != 0.0:
        lv = lv + hamiltonian_superop(0.5 * omega * (SP + SM))
    return lv


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


def kernel_projector(liouvillian):
    """Spectral projector P onto ker L, and the dimension of the kernel.

    P = R (W^H R)^-1 W^H, where the columns of R and W are the right and
    left null vectors of the SVD (singular values at most 1e-10 times the
    largest).  P commutes with L and exp(L t) -> P as t -> infinity.
    Raises :class:`PropagationError` unless P^2 = P and L P = 0 hold to
    1e-8 relative to |P| and to the Liouvillian scale.
    """
    u, sv, vh = np.linalg.svd(liouvillian)
    scale = max(sv[0], 1.0)
    null = sv <= _KERNEL_TOL * scale
    if not np.any(null):
        raise ValueError("Liouvillian has no stationary modes")
    right = vh[null].conj().T
    left_h = u[:, null].conj().T
    try:
        proj = right @ np.linalg.solve(left_h @ right, left_h)
    except np.linalg.LinAlgError:
        raise PropagationError(
            "kernel of the Liouvillian is not semisimple (W^H R is singular)") from None
    size = max(np.abs(proj).max(), 1.0)
    idempotency = np.abs(proj @ proj - proj).max()
    annihilation = np.abs(liouvillian @ proj).max()
    # Written as "not <=" so that NaN fails the check.
    if not (idempotency <= _RESIDUAL_TOL * size
            and annihilation <= _RESIDUAL_TOL * scale * size):
        raise PropagationError(
            f"kernel projector failed its checks: |P^2 - P| = {idempotency!r}, "
            f"|L P| = {annihilation!r}")
    return proj, int(np.count_nonzero(null))


def _projected_state(liouvillian, proj, rho0):
    """Density matrix P vec(rho0), checked to be stationary."""
    rho = unvectorize(proj @ vectorize(rho0))
    rho = 0.5 * (rho + rho.conj().T)
    rho = rho / np.trace(rho).real
    scale = max(np.abs(liouvillian).max(), 1.0)
    residual = np.abs(liouvillian @ vectorize(rho)).max()
    if residual > _RESIDUAL_TOL * scale:
        raise PropagationError(
            f"asymptotic state is not stationary: |L rho| = {residual!r}")
    return rho


def stationary_state(liouvillian, rho0=None):
    """t -> infinity limit of exp(L t) rho0: the kernel projection P vec(rho0).

    ``rho0`` may be omitted when the kernel is one-dimensional, where the
    limit is the unique steady state.  A degenerate kernel (e.g. coherence
    locking) makes the limit depend on rho0, and omitting it then raises
    :class:`DegenerateSteadyStateError`.
    """
    proj, kernel_dim = kernel_projector(liouvillian)
    if rho0 is None:
        if kernel_dim > 1:
            raise DegenerateSteadyStateError(
                f"steady-state manifold is {kernel_dim}-dimensional: "
                f"the limit depends on rho0")
        rho0 = 0.5 * I2
    return _projected_state(liouvillian, proj, rho0)


def _expm(stack):
    """exp of each matrix in a (n, d, d) stack: Pade-13 scaling and squaring.

    Each matrix is scaled by 2^-s so that its 1-norm is at most theta_13,
    the [13/13] Pade approximant is evaluated, and the result is squared s
    times (Higham 2005).
    """
    a = np.asarray(stack, dtype=complex)
    norm = np.abs(a).sum(axis=-2).max(axis=-1)
    with np.errstate(divide="ignore"):
        squarings = np.maximum(np.ceil(np.log2(norm / _THETA13)), 0.0)
    a = a / np.exp2(squarings)[:, None, None]
    b = _PADE13
    ident = np.eye(a.shape[-1])
    a2 = a @ a
    a4 = a2 @ a2
    a6 = a4 @ a2
    u = a @ (a6 @ (b[13] * a6 + b[11] * a4 + b[9] * a2)
             + b[7] * a6 + b[5] * a4 + b[3] * a2 + b[1] * ident)
    v = (a6 @ (b[12] * a6 + b[10] * a4 + b[8] * a2)
         + b[6] * a6 + b[4] * a4 + b[2] * a2 + b[0] * ident)
    result = np.linalg.solve(v - u, v + u)
    result[norm == 0.0] = ident  # exactly, so t = t_0 returns rho_0 unchanged
    for k in range(int(squarings.max(initial=0.0))):
        more = squarings > k
        result[more] = result[more] @ result[more]
    return result


def _propagate_vec(y0, liouvillian, t_grid):
    """exp(L (t_k - t_0)) y0 at every sample of a non-decreasing grid."""
    t_grid = np.asarray(t_grid, dtype=float)
    if t_grid.ndim != 1 or len(t_grid) < 1 or np.any(np.diff(t_grid) < 0):
        raise ValueError("t_grid must be non-decreasing")
    lv = np.asarray(liouvillian, dtype=complex)
    out = np.empty((len(t_grid), 4), dtype=complex)
    for start in range(0, len(t_grid), _CHUNK):
        elapsed = t_grid[start:start + _CHUNK] - t_grid[0]
        out[start:start + _CHUNK] = _expm(lv * elapsed[:, None, None]) @ y0
    return out


def propagate(rho0, liouvillian, t_grid):
    """Propagate a density matrix along ``t_grid``; returns (len(t), 2, 2).

    Each sample is exp(L (t_k - t_0)) applied to rho0, so no error
    accumulates along the grid; trace and Hermiticity are checked to 1e-10
    at every sample.
    """
    assert_density_matrix(rho0)
    traj = _propagate_vec(vectorize(rho0), liouvillian, t_grid)
    rhos = traj.reshape(-1, 2, 2)
    traces = np.abs(np.trace(rhos, axis1=1, axis2=2) - 1.0)
    herm = np.abs(rhos - np.conj(np.swapaxes(rhos, 1, 2))).max()
    if traces.max() > 1e-10 or herm > 1e-10:
        raise PropagationError(
            f"propagation broke invariants: max trace error {traces.max()!r}, "
            f"max Hermiticity error {herm!r}")
    return rhos


def _check_stationary(liouvillian, rho_ss):
    scale = max(np.abs(liouvillian).max(), 1.0)
    residual = np.abs(liouvillian @ vectorize(rho_ss)).max()
    if residual > 1e-10 * scale:
        raise ValueError(
            f"rho_ss is not stationary: |L rho| = {residual!r} "
            f"(tolerance {1e-10 * scale!r})")


def _fluctuation_operator(rho_ss):
    """vec of X(0) = rho_ss S+ - <S+>_ss rho_ss, the regression initial value."""
    return vectorize(rho_ss @ SP - expect(SP, rho_ss) * rho_ss)


def two_time_correlation(liouvillian, rho_ss, tau_grid):
    """Fluctuation correlation <dS+(t) dS-(t+tau)>_ss on ``tau_grid``.

    Quantum regression theorem: propagate X(tau) = exp(L tau) X(0) from
    X(0) = rho_ss S+ - <S+>_ss rho_ss and read out tr(S- X(tau)).
    ``rho_ss`` must be stationary (residual |L rho| below 1e-10 relative to
    the Liouvillian scale).
    """
    rho_ss = np.asarray(rho_ss, dtype=complex)
    _check_stationary(liouvillian, rho_ss)
    traj = _propagate_vec(_fluctuation_operator(rho_ss), liouvillian, tau_grid)
    # tr(S- X) is the (e,g) element of X in the fixed vectorization order.
    return traj[:, 1].copy()


def regression_spectrum(rates, omega, sx0=0.0, sy0=0.0, sz0=0.0, *,
                        omega_grid):
    """End-to-end numeric spectrum of the driven dot.

    Builds the full Liouvillian (squeezing phase taken from ``rates``), and
    takes the stationary state as P vec(rho0) for the initial Bloch vector
    (the unique steady state when the kernel is one-dimensional).  The
    regression correlation tr(S- exp(L tau) X0) splits into the
    non-decaying kernel part tr(S- P X0), reported as
    ``zero_width_weight``, and a decaying part whose transform is exact:

        S_in(delta) = 2 Re tr[S- (-(L - P + i delta)^-1 (1 - P) X0)],

    evaluated by one batched solve over ``omega_grid``.  Raises
    :class:`PropagationError` if a solve residual exceeds 1e-8 relative,
    and ValueError for an undamped dot.
    """
    if rates.gamma_s + rates.gamma_n + rates.gamma_rad == 0.0:
        # Then L is purely coherent: its modes at +-i*Omega never decay, and
        # the transform of the correlation does not converge.
        raise ValueError("undamped dot: the correlation never decays")
    omega_grid = np.asarray(omega_grid, dtype=float)
    lv = build_liouvillian(rates, omega=omega, laser_on=True)
    proj, kernel_dim = kernel_projector(lv)
    rho_ss = _projected_state(lv, proj, bloch_to_rho(BlochVector(sx0, sy0, sz0)))
    _check_stationary(lv, rho_ss)
    x0 = _fluctuation_operator(rho_ss)
    # A one-dimensional kernel gives P = |rho_ss>><tr| and tr X0 = 0.
    x0_kernel = proj @ x0 if kernel_dim > 1 else np.zeros(4, dtype=complex)
    rhs = x0 - x0_kernel

    system = (lv - proj) + 1j * omega_grid[:, None, None] * np.eye(4)
    resolved = np.linalg.solve(
        system, np.broadcast_to(rhs[:, None], (len(omega_grid), 4, 1)))[..., 0]
    residual = np.abs(np.einsum("nij,nj->ni", system, resolved) - rhs).max(axis=1)
    bound = _RESIDUAL_TOL * (np.abs(system).max(axis=(1, 2))
                             * np.abs(resolved).max(axis=1)
                             + np.abs(rhs).max())
    failed = ~(residual <= bound)  # NaN fails too
    if np.any(failed):
        worst = int(np.argmax(failed))
        raise PropagationError(
            f"resolvent solve residual {residual[worst]!r} exceeds "
            f"{bound[worst]!r} at delta = {omega_grid[worst]!r}")

    return SpectrumResult(
        coherent_weight=float(abs(expect(SP, rho_ss)) ** 2),
        omega_grid=omega_grid,
        incoherent=-2.0 * resolved[:, 1].real,
        zero_width_weight=float(x0_kernel[1].real),
        engine="numeric",
        params={"omega": omega, "phi": rates.phi, "sx0": sx0,
                "kernel_dim": kernel_dim})
