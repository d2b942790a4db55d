"""Brute-force ground truth for the two-level dot, in numpy alone.

Builds the full 4x4 Liouvillian superoperator L and answers every question
with exact linear algebra on it.  Propagation applies exp(L (t_k - t_0))
at every sample as P + exp((L - P)(t_k - t_0)) (1 - P), the decaying part
by Pade-13 scaling and squaring (Higham 2005).  The t -> infinity state is
P vec(rho_0) of a required, checked rho_0 (it keeps part of rho_0 wherever
the dot locks), with P the spectral projector onto ker L built from SVD
null vectors (not from an eigendecomposition: L is defective at a
critically damped sideband pair), whose modes are those of rate at most
the closed forms' RATE_FLOOR*gamma_z.  The regression-theorem spectrum is
the resolvent -(L - P + i delta)^-1 (1 - P) X_0, one batched solve over
the frequency grid; the never-decaying kernel part P X_0 is the
zero-width weight.  Nothing here reuses the closed forms of
:mod:`sps.bloch` or :mod:`sps.spectrum`: this module is the independent
check they are tested against.

Vectorization convention (fixed everywhere): the density matrix in the
{|e>, |g>} basis is flattened row-major, vec(rho) = (rho_ee, rho_eg,
rho_ge, rho_gg), so the superoperator of rho -> A rho B is kron(A, B.T).
"""

from __future__ import annotations

import numpy as np

from .bloch import BlochVector
from .reservoir import RATE_FLOOR, _check_rule
from .spectrum import SpectrumResult

# Dot operators in the {|e>, |g>} basis.
SP = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)   # S+ = |e><g|
SM = np.array([[0.0, 0.0], [1.0, 0.0]], dtype=complex)   # S- = |g><e|
SZ = np.array([[0.5, 0.0], [0.0, -0.5]], dtype=complex)
I2 = np.eye(2, dtype=complex)

#: Relative bound on the projector identities and solve residuals.
_RESIDUAL_TOL = 1e-8
#: Absolute bound on a density matrix's Hermiticity, trace and positivity errors.
_STATE_TOL = 1e-10
#: Samples per batched matrix exponential (bounds the working memory).
_CHUNK = 4096

#: Pade-13 coefficients b_0..b_13 and the largest 1-norm theta_13 at which
#: the unscaled approximant meets unit roundoff (Higham 2005, Table 2.3).
_PADE13 = (64764752532480000.0, 32382376266240000.0, 7771770303897600.0,
           1187353796428800.0, 129060195264000.0, 10559470521600.0,
           670442572800.0, 33522128640.0, 1323241920.0, 40840800.0,
           960960.0, 16380.0, 182.0, 1.0)
_THETA13 = 5.371920351148152


class PropagationError(RuntimeError):
    """A linear-algebra result failed its check (broken invariants or residuals)."""


def vectorize(rho):
    """Flatten a 2x2 operator to the fixed (ee, eg, ge, gg) order."""
    return np.asarray(rho, dtype=complex).reshape(4)


def sandwich(a, b):
    """Superoperator of rho -> a @ rho @ b."""
    return np.kron(a, b.T)


def dissipator(c):
    """Lindblad dissipator D[c] = c rho c+ - 1/2 {c+ c, rho} as a 4x4 matrix."""
    cdc = c.conj().T @ c
    return (sandwich(c, c.conj().T)
            - 0.5 * sandwich(cdc, I2) - 0.5 * sandwich(I2, cdc))


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


def assert_density_matrix(rho):
    """Raise unless rho is Hermitian, unit-trace and positive to _STATE_TOL."""
    rho = np.asarray(rho, dtype=complex)
    if rho.shape != (2, 2):
        raise ValueError(f"expected a 2x2 matrix, got shape {rho.shape}")
    if np.abs(rho - rho.conj().T).max() > _STATE_TOL:
        raise ValueError("density matrix is not Hermitian")
    if abs(np.trace(rho) - 1.0) > _STATE_TOL:
        raise ValueError(f"density matrix trace {complex(np.trace(rho))!r} != 1")
    if np.linalg.eigvalsh(0.5 * (rho + rho.conj().T)).min() < -_STATE_TOL:
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
        v = 0.5 * omega * (SP + SM)
        lv = lv + -1j * (sandwich(v, I2) - sandwich(I2, v))
    return lv


def kernel_projector(liouvillian):
    """Spectral projector P onto ker L, and the dimension of the kernel.

    P = R (W^H R)^-1 W^H, where the columns of R and W are the right and
    left null vectors of the SVD: singular values at most RATE_FLOOR*|tr L|/2
    (the closed forms' zero-rate floor, as |tr L| = 2 gamma_z), or below
    numpy's rank tolerance 4 eps sigma_1 where that is larger (an undamped
    dot).  P commutes with L and exp(L t) -> P as t -> infinity.  Raises
    :class:`PropagationError` unless P^2 = P and L P = 0 hold to 1e-8
    relative to |P| and to the Liouvillian scale.
    """
    u, sv, vh = np.linalg.svd(liouvillian)
    scale = max(sv[0], 1.0)
    null = sv <= max(RATE_FLOOR * abs(np.trace(liouvillian)) / 2.0,
                     4.0 * np.finfo(float).eps * sv[0])
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
            f"kernel projector failed its checks: |P^2 - P| = {float(idempotency)!r}, "
            f"|L P| = {float(annihilation)!r}")
    return proj, int(np.count_nonzero(null))


def _projected_state(liouvillian, proj, rho0):
    """Density matrix P vec(rho0), checked to be stationary: |L rho| at most
    1e-10 relative to the Liouvillian scale."""
    rho = (proj @ vectorize(rho0)).reshape(2, 2)
    rho = 0.5 * (rho + rho.conj().T)
    rho = rho / np.trace(rho).real
    scale = max(np.abs(liouvillian).max(), 1.0)
    residual = np.abs(liouvillian @ vectorize(rho)).max()
    if not residual <= 1e-10 * scale:  # NaN fails too
        raise PropagationError(
            f"asymptotic state is not stationary: |L rho| = {float(residual)!r}")
    return rho


def stationary_state(liouvillian, rho0):
    """t -> infinity limit of exp(L t) rho0: the kernel projection P vec(rho0).

    rho0 is checked as :func:`propagate` checks it.  The limit is the
    unique steady state where the kernel is one-dimensional; a larger
    kernel (coherence locking) keeps part of rho0.
    """
    assert_density_matrix(rho0)
    return _projected_state(liouvillian, kernel_projector(liouvillian)[0], rho0)


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
    for k in range(int(squarings.max(initial=0.0))):
        more = squarings > k
        result[more] = result[more] @ result[more]
    return result


def _propagate_vec(y0, liouvillian, t_grid):
    """exp(L (t_k - t_0)) y0 at every sample of a non-decreasing grid."""
    t_grid = np.asarray(t_grid, dtype=float)
    if t_grid.ndim != 1 or len(t_grid) < 1:
        raise ValueError(f"t_grid needs shape (n,), n >= 1, got {t_grid.shape}")
    _check_rule("t_grid step", ">= 0", np.diff(t_grid, prepend=t_grid[:1]))
    lv = np.asarray(liouvillian, dtype=complex)
    proj = kernel_projector(lv)[0]
    fixed = proj @ y0
    out = np.empty((len(t_grid), 4), dtype=complex)
    for start in range(0, len(t_grid), _CHUNK):
        elapsed = t_grid[start:start + _CHUNK] - t_grid[0]
        out[start:start + _CHUNK] = fixed + _expm(
            (lv - proj) * elapsed[:, None, None]) @ (y0 - fixed)
    out[t_grid == t_grid[0]] = y0  # exactly, where no time has elapsed
    return out


def propagate(rho0, liouvillian, t_grid):
    """Propagate a density matrix along ``t_grid``; returns (len(t), 2, 2).

    Each sample is (P + exp((L - P)(t_k - t_0)) (1 - P)) rho0, so no error
    accumulates along the grid and the kernel part is exact at any t; trace
    and Hermiticity are checked to _STATE_TOL (1e-10) at every sample.
    """
    assert_density_matrix(rho0)
    traj = _propagate_vec(vectorize(rho0), liouvillian, t_grid)
    rhos = traj.reshape(-1, 2, 2)
    traces = np.abs(np.trace(rhos, axis1=1, axis2=2) - 1.0)
    herm = np.abs(rhos - np.conj(np.swapaxes(rhos, 1, 2))).max()
    if not (traces.max() <= _STATE_TOL and herm <= _STATE_TOL):
        raise PropagationError(
            f"propagation broke invariants: max trace error {float(traces.max())!r}, "
            f"max Hermiticity error {float(herm)!r}")
    return rhos


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
    # The regression initial value X0 = rho_ss S+ - <S+>_ss rho_ss.
    s_plus = complex(np.trace(rho_ss @ SP))
    x0 = vectorize(rho_ss @ SP - s_plus * rho_ss)
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
            f"resolvent solve residual {float(residual[worst])!r} exceeds "
            f"{float(bound[worst])!r} at delta = {float(omega_grid[worst])!r}")

    return SpectrumResult(
        coherent_weight=float(abs(s_plus) ** 2),
        omega_grid=omega_grid,
        incoherent=-2.0 * resolved[:, 1].real,
        fluctuation_total=float(x0[1].real),  # C(0) = tr(S- X0)
        zero_width_weight=float(x0_kernel[1].real),
        engine="numeric")
