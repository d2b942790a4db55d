"""Brute-force Liouvillian layer: superoperator structure, equivalent
forms, propagation, stationary states, the time-domain fluctuation
correlation, the resolvent spectrum."""

import dataclasses
import math
import re

import numpy as np
import pytest
from hypothesis import assume, given, settings

from sps import oracle
from sps.bloch import BlochVector, damping_triple, driven_evolution, \
    driven_steady_state, free_evolution
from sps.oracle import (
    SM,
    SP,
    PropagationError,
    bloch_to_rho,
    build_liouvillian,
    kernel_projector,
    propagate,
    regression_spectrum,
    reservoir_liouvillian,
    rho_to_bloch,
    sandwich,
    stationary_state,
    vectorize,
)
from sps.reservoir import RATE_FLOOR, reservoir_rates
from sps.spectrum import exact_incoherent_spectrum, sum_rule

from correlation import fluctuation_correlation
from domain import HALF_PI, LOCKED, bloch_states, drives, floor_band_pairs, \
    nbars, oracle_points, sx0s
from liouvillian_forms import SX, SY, build_liouvillian_decomposed, \
    build_qnd_liouvillian

RNG = np.random.default_rng(20240817)


def random_rates(rng, equal=False, gamma_rad=False):
    g1 = rng.uniform(0.1, 3.0)
    g2 = g1 if equal else rng.uniform(0.1, 3.0)
    return reservoir_rates(
        g1, g2, rng.uniform(0.0, 2.0),
        phi1=rng.uniform(0.0, 2.0 * math.pi), phi2=rng.uniform(0.0, 2.0 * math.pi),
        gamma_rad=rng.uniform(0.0, 0.5) if gamma_rad else 0.0)


def random_hermitian(rng):
    a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    return a + a.conj().T


def random_density_matrix(rng):
    a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    rho = a @ a.conj().T
    return rho / np.trace(rho)


class TestSuperoperatorStructure:
    def test_sandwich_convention(self):
        # vec is row-major (ee, eg, ge, gg): check A rho B elementwise.
        rng = np.random.default_rng(7)
        a, b, rho = (rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
                     for _ in range(3))
        direct = a @ rho @ b
        via_super = (sandwich(a, b) @ vectorize(rho)).reshape(2, 2)
        assert np.allclose(direct, via_super, atol=1e-14)

    @pytest.mark.parametrize("seed", range(20))
    def test_trace_and_hermiticity_preservation(self, seed):
        rng = np.random.default_rng(seed)
        rates = random_rates(rng, gamma_rad=True)
        lv = build_liouvillian(rates, omega=rng.uniform(0, 5), laser_on=True)
        # Trace preservation: columns of L sum to zero against the trace functional.
        trace_row = vectorize(np.eye(2))  # tr(rho) = <trace_row, vec(rho)>
        assert np.abs(trace_row @ lv).max() < 1e-12
        # Hermiticity preservation: L(rho^+) = (L rho)^+ on random Hermitian rho.
        rho = random_hermitian(rng)
        lhs = (lv @ vectorize(rho.conj().T)).reshape(2, 2)
        rhs = (lv @ vectorize(rho)).reshape(2, 2).conj().T
        assert np.abs(lhs - rhs).max() < 1e-12


class TestBuildLiouvillian:
    def test_pure_decay_steady_state(self):
        rates = reservoir_rates(0.0, 0.0, 0.0, gamma_rad=1.3)
        rho = stationary_state(build_liouvillian(rates), np.eye(2) / 2)
        assert np.allclose(rho, np.diag([0.0, 1.0]), atol=1e-12)

    def test_locked_kernel_is_two_dimensional(self):
        rates = LOCKED
        lv = build_liouvillian(rates, omega=5.0, laser_on=True)
        sv = np.linalg.svd(lv, compute_uv=False)
        assert sv[3] < 1e-10 and sv[2] < 1e-10 < sv[1]

    def test_inverted_null_vector_inversion(self):
        rates = reservoir_rates(4.0, 1.0, 0.5)
        rho = stationary_state(build_liouvillian(rates), np.eye(2) / 2)
        assert rho_to_bloch(rho).sz == pytest.approx(0.15, abs=1e-12)

    def test_drive_matches_bloch_equations(self):
        # The drive superoperator must produce dSy/dt = -Omega Sz and
        # dSz/dt = +Omega Sy on top of the damping.
        omega = 3.7
        rates = reservoir_rates(0.0, 0.0, 0.0)
        lv = build_liouvillian(rates, omega=omega, laser_on=True)
        rho = bloch_to_rho(BlochVector(0.1, 0.2, 0.3))
        drho = (lv @ vectorize(rho)).reshape(2, 2)
        dsy = np.trace(drho @ SY).real
        dsz = np.trace(drho @ oracle.SZ).real
        assert dsy == pytest.approx(-omega * 0.3, rel=1e-12)
        assert dsz == pytest.approx(omega * 0.2, rel=1e-12)


class TestLiouvillianEquivalences:
    @pytest.mark.parametrize("nbar", [0.0, 0.5])
    def test_decomposed_matches_reservoir_form(self, nbar):
        rates = reservoir_rates(1.0, 4.0, nbar, phi1=0.3, phi2=0.9)
        dev = np.abs(reservoir_liouvillian(rates)
                     - build_liouvillian_decomposed(rates)).max()
        assert dev < 1e-12

    def test_decomposed_random_ordinary(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            g1 = rng.uniform(0.1, 2.0)
            rates = reservoir_rates(g1, g1 + rng.uniform(0.05, 3.0),
                                    rng.uniform(0.0, 2.0),
                                    phi1=rng.uniform(0, 2 * math.pi),
                                    phi2=rng.uniform(0, 2 * math.pi))
            dev = np.abs(reservoir_liouvillian(rates)
                         - build_liouvillian_decomposed(rates)).max()
            assert dev < 1e-12

    def test_decomposed_rejects_inverted_and_perfect(self):
        with pytest.raises(ValueError, match="ordinary"):
            build_liouvillian_decomposed(reservoir_rates(4.0, 1.0, 0.5))
        with pytest.raises(ValueError, match="ordinary"):
            build_liouvillian_decomposed(reservoir_rates(1.0, 1.0, 0.5))

    def test_single_jump_steady_state(self):
        # At nbar = 0 the background vanishes: the whole reservoir is the
        # single squeezed jump operator, whose unique steady state carries
        # <Sz> = -1/(2(2N+1)) and no coherence.  (The jump operator itself
        # is invertible, det Y = sqrt(Ns(Ns+1)), so no state is dark.)
        rates = reservoir_rates(1.0, 4.0, 0.0, phi1=0.5, phi2=0.1)
        from sps.reservoir import map_to_squeezing
        desc = map_to_squeezing(rates)
        assert desc.n_background == pytest.approx(0.0, abs=1e-15)
        jump = (math.sqrt(desc.n_squeezed + 1.0) * np.exp(-1j * rates.phi) * SM
                - math.sqrt(desc.n_squeezed) * np.exp(1j * rates.phi) * SP)
        assert abs(np.linalg.det(jump)) == pytest.approx(
            math.sqrt(desc.n_squeezed * (desc.n_squeezed + 1.0)), rel=1e-12)

        single_jump = desc.gamma_eff * oracle.dissipator(jump)
        rho = stationary_state(single_jump, np.eye(2) / 2)
        assert np.abs(rho - stationary_state(reservoir_liouvillian(rates),
                                             np.eye(2) / 2)).max() < 1e-12
        state = rho_to_bloch(rho)
        n = desc.n_photons
        assert state.sz == pytest.approx(-1.0 / (2.0 * (2.0 * n + 1.0)), abs=1e-12)
        assert abs(state.sx) < 1e-12 and abs(state.sy) < 1e-12

    def test_qnd_matches_reservoir_form(self):
        for gamma0, nbar, phi in [(1.0, 0.0, HALF_PI), (0.7, 1.3, 0.4),
                                  (2.0, 0.5, 0.0)]:
            rates = reservoir_rates(gamma0, gamma0, nbar,
                                    phi1=phi, phi2=phi)
            dev = np.abs(reservoir_liouvillian(rates)
                         - build_qnd_liouvillian(gamma0, nbar, phi)).max()
            assert dev < 1e-12

    def test_qnd_commutes_with_quadrature_multiplication(self):
        phi, gamma0, nbar = 0.8, 1.1, 0.6
        lv = build_qnd_liouvillian(gamma0, nbar, phi)
        s_phi = SX * math.sin(phi) + SY * math.cos(phi)
        left = sandwich(s_phi, np.eye(2))
        right = sandwich(np.eye(2), s_phi)
        assert np.abs(lv @ left - left @ lv).max() < 1e-12
        assert np.abs(lv @ right - right @ lv).max() < 1e-12

    def test_qnd_conserves_quadrature(self):
        phi, gamma0, nbar = 1.2, 0.9, 0.4
        rates = reservoir_rates(gamma0, gamma0, nbar, phi1=phi, phi2=phi)
        lv = build_liouvillian(rates)
        s_phi = SX * math.sin(phi) + SY * math.cos(phi)
        rng = np.random.default_rng(3)
        for _ in range(5):
            rho0 = random_density_matrix(rng)
            traj = propagate(rho0, lv, np.linspace(0.0, 5.0, 21))
            values = [np.trace(rho @ s_phi).real for rho in traj]
            assert max(abs(v - values[0]) for v in values) < 1e-10


class TestPropagate:
    def test_zero_liouvillian_constant(self):
        rho0 = bloch_to_rho(BlochVector(0.2, 0.1, -0.3))
        traj = propagate(rho0, np.zeros((4, 4), complex), np.linspace(0, 5, 6))
        assert np.abs(traj - rho0).max() == 0.0

    def test_pure_radiative_decay(self):
        gamma = 1.1
        rates = reservoir_rates(0.0, 0.0, 0.0, gamma_rad=gamma)
        lv = build_liouvillian(rates)
        rho0 = np.diag([1.0, 0.0]).astype(complex)
        ts = np.linspace(0.0, 4.0, 9)
        traj = propagate(rho0, lv, ts)
        for t, rho in zip(ts, traj):
            assert rho[0, 0].real == pytest.approx(math.exp(-gamma * t), abs=1e-10)

    def test_positivity_along_trajectory(self):
        rng = np.random.default_rng(5)
        rates = random_rates(rng, gamma_rad=True)
        lv = build_liouvillian(rates, omega=3.0, laser_on=True)
        traj = propagate(random_density_matrix(rng), lv, np.linspace(0, 8, 33))
        for rho in traj:
            assert np.linalg.eigvalsh(rho).min() >= -1e-10

    def test_matches_closed_form_driven_evolution(self):
        rates = reservoir_rates(1.5, 0.6, 0.8)
        s0 = BlochVector(-0.1, 0.3, 0.2)
        lv = build_liouvillian(rates, omega=4.0, laser_on=True)
        ts = np.linspace(0.0, 6.0, 25)
        traj = propagate(bloch_to_rho(s0), lv, ts)
        for t, rho in zip(ts, traj):
            ana = driven_evolution(s0, rates, 4.0, 0.0, t).as_array()
            assert np.abs(rho_to_bloch(rho).as_array() - ana).max() < 1e-8

    def test_rho_to_bloch_reads_a_stack(self):
        rng = np.random.default_rng(11)
        lv = build_liouvillian(random_rates(rng, gamma_rad=True), omega=2.0,
                               laser_on=True)
        traj = propagate(random_density_matrix(rng), lv, np.linspace(0, 3, 9))
        stack = rho_to_bloch(traj)
        assert stack.as_array().shape == (3, 9)
        for k, rho in enumerate(traj):
            single = rho_to_bloch(rho)
            fields = (single.sx, single.sy, single.sz)
            assert all(type(value) is float for value in fields)
            assert fields == (stack.sx[k], stack.sy[k], stack.sz[k])

    def test_rejects_decreasing_grid(self):
        with pytest.raises(ValueError):
            propagate(np.eye(2, dtype=complex) / 2, np.zeros((4, 4), complex),
                      np.array([0.0, 1.0, 0.5]))

    @pytest.mark.parametrize("grid,got", [
        ([0.0, 1.0, 0.5], "-0.5"), ([math.nan], "nan"),
        ([0.0, 1.0, math.nan, 2.0], "nan")])
    def test_grid_step_names_its_first_failure(self, grid, got):
        with pytest.raises(ValueError, match=f"^t_grid step must be >= 0, "
                                             f"got {got}$"):
            propagate(np.eye(2, dtype=complex) / 2, np.zeros((4, 4), complex),
                      np.array(grid))

    def test_rejects_unphysical_initial_state(self):
        with pytest.raises(ValueError):
            propagate(np.diag([1.5, -0.5]).astype(complex),
                      np.zeros((4, 4), complex), np.linspace(0, 1, 3))

    @pytest.mark.parametrize("rho0,message", [
        (np.eye(3) / 3.0, r"expected a 2x2 matrix, got shape \(3, 3\)"),
        (np.array([[0.5, 0.1], [0.0, 0.5]]), "not Hermitian"),
    ], ids=["shape", "hermiticity"])
    def test_rejects_malformed_initial_state(self, rho0, message):
        with pytest.raises(ValueError, match=message):
            propagate(rho0, np.zeros((4, 4), complex), [0.0])

    @pytest.mark.parametrize("grid", [np.zeros((2, 2)), np.array([])],
                             ids=["2d", "empty"])
    def test_rejects_grid_shape(self, grid):
        with pytest.raises(ValueError, match=re.escape(
                f"t_grid needs shape (n,), n >= 1, got {grid.shape}")):
            propagate(np.eye(2, dtype=complex) / 2, np.zeros((4, 4), complex),
                      grid)

    def test_errors_print_python_numbers(self):
        # A generator that does not keep the trace loses half of it.
        with pytest.raises(PropagationError,
                           match=r"max trace error 0\.5\d*, ") as err:
            propagate(np.eye(2, dtype=complex) / 2,
                      np.diag([0.0, -1.0, -1.0, -1.0]).astype(complex),
                      [0.0, 50.0])
        assert "np." not in str(err.value)
        with pytest.raises(ValueError, match=r"trace \(1.2\+0j\) != 1"):
            propagate(np.diag([0.6, 0.6]).astype(complex),
                      np.zeros((4, 4), complex), [0.0])


    def test_nan_fails_the_invariant_check(self):
        # The growing coherences overflow to inf, then NaN in the squarings.
        with pytest.raises(PropagationError,
                           match="max Hermiticity error nan$"), \
                np.errstate(over="ignore", invalid="ignore"):
            propagate(bloch_to_rho(BlochVector(0.1, 0.0, 0.2)),
                      np.diag([0.0, 1000.0, 1000.0, 0.0]).astype(complex),
                      [0.0, 1.0])


class TestStationaryStates:
    def test_asymptotic_matches_locked_prediction(self):
        rates = LOCKED
        lv = build_liouvillian(rates, omega=20.0, laser_on=True)
        rho0 = bloch_to_rho(BlochVector(0.3, 0.1, -0.2))
        rho_inf = stationary_state(lv, rho0)
        state = rho_to_bloch(rho_inf)
        assert state.sx == pytest.approx(0.3, abs=1e-12)
        assert state.sy == pytest.approx(0.0, abs=1e-12)
        assert state.sz == pytest.approx(0.0, abs=1e-12)

    def test_asymptotic_agrees_with_long_propagation(self):
        # Well-separated rates: slowest decay ~0.6, so t = 100 is converged.
        # The kernel part is applied exactly, not squared up to t, so it
        # stays converged up to t's bound, locked or not.
        rho0 = random_density_matrix(np.random.default_rng(13))
        for rates in (reservoir_rates(1.0, 2.5, 0.4), LOCKED):
            lv = build_liouvillian(rates, omega=2.0, laser_on=True)
            rho_inf = stationary_state(lv, rho0)
            late = propagate(rho0, lv, [0.0, 100.0, 1e5, 1e10, 1e100, 8e152])
            assert np.abs(late[1:] - rho_inf).max() < 1e-9

    @given(point=oracle_points, a=bloch_states, b=bloch_states)
    @settings(max_examples=150, deadline=None)
    def test_property_limit_keeps_rho0_only_where_locked(self, point, a, b):
        # The paper's claim: the limit depends on the initial coherence
        # exactly where the dot locks.  Over 3 x 3000 draws the worst
        # distances were 2.2e-16 (one-dimensional kernel, 7836 draws) and
        # 2.8e-16 (locked, 1164 draws), about eps; 1e-14 leaves 36x.
        lv = build_liouvillian(point.rates(), omega=point.omega, laser_on=True)
        rho_a, rho_b = (stationary_state(lv, bloch_to_rho(s)) for s in (a, b))
        if kernel_projector(lv)[1] == 1:
            assert np.abs(rho_a - rho_b).max() <= 1e-14
        else:  # <Sx> = Re rho_eg, read without the sphere check
            assert abs(rho_a[0, 1].real - a.sx) <= 1e-14
            assert abs(rho_b[0, 1].real - b.sx) <= 1e-14

    def test_rejects_what_propagate_rejects(self):
        # rho0 is required for every L, and checked as propagate checks it.
        lv = build_liouvillian(LOCKED, omega=5.0, laser_on=True)
        with pytest.raises(TypeError):
            stationary_state(lv)
        for rho0, message in ((np.eye(3) / 3, "expected a 2x2 matrix"),
                              ([[0.5, 0.1], [0.0, 0.5]], "not Hermitian"),
                              (np.diag([0.6, 0.6]), r"trace \(1.2\+0j\) != 1"),
                              (np.diag([1.5, -0.5]), "negative eigenvalue")):
            for solve in (lambda: stationary_state(lv, rho0),
                          lambda: propagate(rho0, lv, [0.0])):
                with pytest.raises(ValueError, match=message):
                    solve()

    def test_rejects_nonstationary_state(self):
        # The one stationarity check: |L rho| at most 1e-10 of the
        # Liouvillian scale, whatever the projector handed in.
        lv = build_liouvillian(reservoir_rates(1.0, 2.5, 0.4))
        rho0 = bloch_to_rho(BlochVector(0.3, 0.0, 0.2))
        with pytest.raises(PropagationError, match="not stationary"):
            oracle._projected_state(lv, np.eye(4), rho0)
        # A state off the kernel by a residual of 1e-9 of the scale fails
        # too; one off by 1e-11 passes.
        proj, _ = kernel_projector(lv)
        scale = max(np.abs(lv).max(), 1.0)
        # Adds a multiple of Sx, scaled so that |L rho| grows by exactly
        # scale, to P vec(rho0) (tr rho0 = 1).
        off_kernel = np.outer(vectorize(SX) / np.abs(lv @ vectorize(SX)).max(),
                              vectorize(np.eye(2))) * scale
        with pytest.raises(PropagationError, match="not stationary"):
            oracle._projected_state(lv, proj + 1e-9 * off_kernel, rho0)
        rho = oracle._projected_state(lv, proj + 1e-11 * off_kernel, rho0)
        assert np.abs(lv @ vectorize(rho)).max() <= 1e-10 * scale


class TestTwoTimeCorrelation:
    def test_tau_zero_value(self):
        rates = reservoir_rates(1.0, 2.5, 0.4)
        lv = build_liouvillian(rates, omega=3.0, laser_on=True)
        rho_ss = stationary_state(lv, np.eye(2) / 2)
        corr = fluctuation_correlation(lv, rho_ss, np.linspace(0.0, 1.0, 5))
        state = rho_to_bloch(rho_ss)
        expected = (0.5 + state.sz) - (state.sx**2 + state.sy**2)
        assert corr[0] == pytest.approx(expected, abs=1e-12)

    def test_decays_to_zero_for_unique_steady_state(self):
        rates = reservoir_rates(1.0, 2.5, 0.4)
        lv = build_liouvillian(rates, omega=3.0, laser_on=True)
        rho_ss = stationary_state(lv, np.eye(2) / 2)
        corr = fluctuation_correlation(lv, rho_ss, np.linspace(0.0, 40.0, 801))
        assert abs(corr[-1]) < 1e-10 * abs(corr[0])

    def test_ground_state_has_no_fluctuations(self):
        rates = reservoir_rates(0.0, 0.0, 0.0, gamma_rad=1.0)
        lv = build_liouvillian(rates)
        rho_ss = np.diag([0.0, 1.0]).astype(complex)
        corr = fluctuation_correlation(lv, rho_ss, np.linspace(0.0, 3.0, 7))
        assert np.abs(corr).max() == 0.0


class TestNumericSpectrum:
    #: gamma1 = 0 switches the two-phonon correlation off (gamma_m = 0), so
    #: the undriven dot's fluctuation correlation is a single exponential,
    #: C(tau) = rho_ee exp(-g tau) with g = gamma_s + gamma_n = 1.4 and
    #: rho_ee = gamma_n/(gamma_s + gamma_n) = 1/4.
    THERMAL = reservoir_rates(0.0, 0.7, 0.5)
    G = 1.4
    WEIGHT = 0.25

    def test_exponential_correlation_gives_lorentzian(self):
        # C(tau) = w exp(-g tau) transforms to 2 w g/(g^2 + delta^2).
        lv = build_liouvillian(self.THERMAL)
        tau = np.linspace(0.0, 10.0, 11)
        corr = fluctuation_correlation(lv, stationary_state(lv, np.eye(2) / 2), tau)
        assert np.abs(corr - self.WEIGHT * np.exp(-self.G * tau)).max() < 1e-14
        grid = np.linspace(-12.0, 12.0, 401)
        result = regression_spectrum(self.THERMAL, 0.0, omega_grid=grid)
        expected = 2.0 * self.WEIGHT * self.G / (self.G**2 + grid**2)
        assert np.abs(result.incoherent - expected).max() < 1e-14
        assert result.zero_width_weight == 0.0

    def test_lorentzian_sum_rule(self):
        # The grid |delta| <= 400 misses the Lorentzian tails,
        # w (1 - (2/pi) atan(400/g)) ~ 5.6e-4 of the power; adding them back
        # leaves the trapezoid error of the frequency grid, ~1e-11.
        wide = np.linspace(-400.0, 400.0, 20001)
        result = regression_spectrum(self.THERMAL, 0.0, omega_grid=wide)
        tail = self.WEIGHT * (1.0 - 2.0 * math.atan(400.0 / self.G) / math.pi)
        assert sum_rule(result) + tail == pytest.approx(self.WEIGHT, abs=1e-9)

    def test_non_decaying_weight(self):
        # The kernel part Re tr(S- P X0) is the part of the correlation that
        # never decays: (1 - 4 sx0^2)/4 on the locked two-dimensional kernel,
        # and exactly 0 on a one-dimensional kernel.
        rates = LOCKED
        lv = build_liouvillian(rates, omega=20.0, laser_on=True)
        assert kernel_projector(lv)[1] == 2
        grid = np.linspace(-1.0, 1.0, 11)
        for sx0 in (-0.5, -0.2, 0.0, 0.3):
            result = regression_spectrum(rates, 20.0, sx0=sx0, omega_grid=grid)
            assert result.zero_width_weight == pytest.approx(
                0.25 * (1.0 - 4.0 * sx0**2), abs=1e-14)
            rho_ss = stationary_state(lv, bloch_to_rho(BlochVector(sx0, 0.0, 0.0)))
            late = fluctuation_correlation(lv, rho_ss, np.array([0.0, 50.0]))[-1]
            assert late.real == pytest.approx(result.zero_width_weight, abs=1e-12)
        rates = reservoir_rates(1.0, 3.0, 0.5)
        unlocked = regression_spectrum(rates, 8.0, sx0=0.3, omega_grid=grid)
        assert kernel_projector(
            build_liouvillian(rates, omega=8.0, laser_on=True))[1] == 1
        assert unlocked.zero_width_weight == 0.0

    def test_nan_frequency_fails_the_residual_check(self):
        rates = reservoir_rates(1.0, 2.0, 0.5)
        with pytest.raises(PropagationError,
                           match="residual nan exceeds nan at delta = nan"):
            regression_spectrum(rates, 3.0, omega_grid=[0.0, math.nan])

    def test_rejects_undamped_dot(self):
        with pytest.raises(ValueError, match="undamped"):
            regression_spectrum(reservoir_rates(0.0, 0.0, 0.0), 1.0, sx0=0.2,
                                omega_grid=np.array([-1.0, 0.0, 1.0]))

    def test_locked_tail_split_off(self):
        rates = LOCKED
        result = regression_spectrum(rates, 20.0, sx0=0.0,
                                     omega_grid=np.linspace(-40, 40, 101))
        assert result.zero_width_weight == pytest.approx(0.25, abs=1e-6)
        assert result.coherent_weight == pytest.approx(0.0, abs=1e-12)

    def test_symmetric_spectrum_for_unpolarized_locked_case(self):
        rates = LOCKED
        grid = np.linspace(-40.0, 40.0, 801)
        result = regression_spectrum(rates, 20.0, sx0=0.0, omega_grid=grid)
        mirrored = result.incoherent[::-1]
        assert np.abs(result.incoherent - mirrored).max() < 1e-6


class TestExactLinearAlgebra:
    def test_expm_of_jordan_block(self):
        # A defective matrix: exp([[l, 1], [0, l]] t) = e^{l t} [[1, t], [0, 1]].
        block = np.array([[-2.0, 1.0], [0.0, -2.0]])
        for t in (0.0, 0.1, 3.0, 50.0):
            expected = math.exp(-2.0 * t) * np.array([[1.0, t], [0.0, 1.0]])
            got = oracle._expm((block * t)[None])[0]
            assert np.abs(got - expected).max() <= 1e-13 * np.abs(expected).max()

    def test_expm_matches_eigen_exponential(self):
        # Diagonalizable random matrices over five decades of norm.
        rng = np.random.default_rng(17)
        for scale in (1e-3, 1e-1, 1.0, 10.0, 100.0):
            a = scale * (rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)))
            evals, evecs = np.linalg.eig(a)
            expected = evecs @ np.diag(np.exp(evals)) @ np.linalg.inv(evecs)
            got = oracle._expm(a[None])[0]
            assert np.abs(got - expected).max() <= 1e-11 * np.abs(expected).max()

    @pytest.mark.parametrize("locked", [False, True])
    def test_kernel_projector_identities(self, locked):
        rates = LOCKED if locked else reservoir_rates(1.0, 2.5, 0.4)
        lv = build_liouvillian(rates, omega=5.0, laser_on=True)
        proj, dim = kernel_projector(lv)
        assert dim == (2 if locked else 1)
        assert np.abs(proj @ proj - proj).max() < 1e-13
        assert np.abs(lv @ proj).max() < 1e-13
        assert np.abs(proj @ lv).max() < 1e-13
        # Trace is conserved, so the trace functional is a left null vector.
        trace_row = vectorize(np.eye(2))
        assert np.abs(trace_row @ proj - trace_row).max() < 1e-13
        assert np.linalg.matrix_rank(proj) == dim

    def test_projector_needs_a_kernel(self):
        with pytest.raises(ValueError, match="no stationary modes"):
            kernel_projector(-np.eye(4, dtype=complex))

    def test_projector_checks_a_nearly_defective_kernel(self):
        # The kernel vector is within 1e-12 of the eigenvector of rate 1e-12:
        # W^H R ~ 1e-12, and P loses its identities to rounding.
        jordan = np.diag([0.0, 1e-12, -1.0, -2.0])
        jordan[0, 1] = 1.0
        hadamard = np.array([[1, 1, 1, 1], [1, -1, 1, -1], [1, 1, -1, -1],
                             [1, -1, -1, 1]]) / 2.0
        with pytest.raises(PropagationError, match="projector failed its checks"):
            kernel_projector((hadamard @ jordan @ hadamard.T).astype(complex))

    def test_projector_rejects_non_semisimple_kernel(self):
        nilpotent = np.zeros((4, 4), dtype=complex)
        nilpotent[0, 1] = 1.0
        with pytest.raises(PropagationError, match="semisimple"):
            kernel_projector(nilpotent)


class TestOracleAgainstClosedForms:
    @given(point=oracle_points)
    @settings(max_examples=150, deadline=None)
    def test_property_spectrum_and_decay(self, point):
        g1, g2, _, _, omega, sx0, phi = point
        # A locked |sx0| near 1/2 leaves the Bloch sphere when gamma2 !=
        # gamma1 (test_locked_half_coherence_leaves_sphere).
        assume(g1 == g2 or abs(g2 / g1 - 1.0) > 1e-3 or abs(sx0) < 0.49)
        rates = point.rates()
        grid = np.linspace(-2.0 * omega, 2.0 * omega, 201)
        exact = exact_incoherent_spectrum(rates, omega, phi, sx0=sx0,
                                          omega_grid=grid)
        numeric = regression_spectrum(rates, omega, sx0=sx0, omega_grid=grid)
        peak = np.abs(exact.incoherent).max()
        assert np.abs(exact.incoherent - numeric.incoherent).max() <= 1e-9 * peak
        assert numeric.zero_width_weight == pytest.approx(
            exact.zero_width_weight, abs=1e-12)

        state0 = BlochVector(0.8 * sx0, 0.15, -0.2)
        # The undriven quadratures and the inversion decay at the rates of
        # damping_triple at pi/2, whatever the reservoir's phi is; follow the
        # slowest nonzero one.
        triple = damping_triple(dataclasses.replace(rates, phi=HALF_PI), HALF_PI)
        slowest = min(r for r in (triple.gamma_x, triple.gamma_y,
                                  triple.gamma_z) if r > 0)
        t_grid = np.linspace(0.0, 5.0 / slowest, 16)
        traj = propagate(bloch_to_rho(state0), build_liouvillian(rates), t_grid)
        for t, rho in zip(t_grid, traj):
            expected = free_evolution(state0, rates, t).as_array()
            assert np.abs(rho_to_bloch(rho).as_array() - expected).max() <= 1e-12

    @given(point=oracle_points)
    @settings(max_examples=150, deadline=None)
    def test_property_fluctuation_total(self, point):
        # The exact engine's 1/2 + s_z - s_x^2 - s_y^2 against the oracle's
        # C(0) = tr(S- X0).  Over 9000 draws the largest distance was
        # 1.1e-14 (median 5.6e-17), at nbar = 0 and a weak drive, where the
        # oracle's null vector is least well conditioned; the bound is ten
        # times that.
        _, _, _, _, omega, sx0, phi = point
        rates = point.rates()
        exact = exact_incoherent_spectrum(rates, omega, phi, sx0=sx0,
                                          omega_grid=[0.0])
        numeric = regression_spectrum(rates, omega, sx0=sx0, omega_grid=[0.0])
        assert abs(exact.fluctuation_total - numeric.fluctuation_total) <= 1e-13

    def test_critically_damped_sideband_pair(self):
        # phi = 0 with gamma_y = 8 - 4 sqrt 3, gamma_z = 16: at
        # Omega = (gamma_z - gamma_y)/2 the (Sy, Sz) block is a Jordan block,
        # where np.linalg.eigvals splits the double root by ~1e-7.
        rates = reservoir_rates(1.0, 3.0, 0.5)
        omega = 4.0 + 2.0 * math.sqrt(3.0)
        triple = damping_triple(rates, 0.0)
        assert omega == pytest.approx(0.5 * abs(triple.gamma_y - triple.gamma_z),
                                      rel=1e-14)
        grid = np.linspace(-2.0 * omega, 2.0 * omega, 2001)
        exact = exact_incoherent_spectrum(rates, omega, 0.0, omega_grid=grid)
        numeric = regression_spectrum(rates, omega, omega_grid=grid)
        peak = np.abs(exact.incoherent).max()
        assert np.abs(exact.incoherent - numeric.incoherent).max() <= 1e-12 * peak

        expected = driven_steady_state(rates, omega, 0.0).as_array()
        lv = build_liouvillian(rates, omega=omega, laser_on=True)
        rho0 = bloch_to_rho(BlochVector(0.2, -0.1, 0.3))
        for rho in (stationary_state(lv, np.eye(2) / 2), stationary_state(lv, rho0)):
            assert np.abs(rho_to_bloch(rho).as_array() - expected).max() <= 1e-12

        ts = np.linspace(0.0, 2.0, 21)
        traj = propagate(rho0, lv, ts)
        for t, rho in zip(ts, traj):
            ana = driven_evolution(BlochVector(0.2, -0.1, 0.3), rates, omega,
                                   0.0, t).as_array()
            assert np.abs(rho_to_bloch(rho).as_array() - ana).max() <= 1e-12

    def test_near_perfect_regime(self):
        # gamma2/gamma1 = 1 + 1e-4 puts gamma_x at ~5e-9, so the resolvent
        # solve at delta = 0 has a condition number of ~1e10.
        rates = reservoir_rates(1.0, 1.0 + 1e-4, 0.5, phi1=HALF_PI, phi2=HALF_PI)
        grid = np.linspace(-40.0, 40.0, 2001)
        exact = exact_incoherent_spectrum(rates, 20.0, HALF_PI, sx0=0.3,
                                          omega_grid=grid)
        numeric = regression_spectrum(rates, 20.0, sx0=0.3, omega_grid=grid)
        assert kernel_projector(
            build_liouvillian(rates, omega=20.0, laser_on=True))[1] == 1
        peak = np.abs(exact.incoherent).max()
        assert np.abs(exact.incoherent - numeric.incoherent).max() <= 1e-6 * peak
        assert numeric.zero_width_weight == exact.zero_width_weight == 0.0

    def test_band_below_rate_floor_is_locked(self):
        # At gamma2/gamma1 = 1 + 1e-7 the reduced rate, ~5e-15, lies below
        # RATE_FLOOR*gamma_z: the closed forms snap gamma_x to 0 and the
        # oracle's SVD counts its mode as kernel, so both engines report the
        # same locked coherence and zero-width line.
        rates = reservoir_rates(1.0, 1.0 + 1e-7, 0.5, phi1=HALF_PI, phi2=HALF_PI)
        assert damping_triple(rates, HALF_PI).gamma_x == 0.0
        grid = np.linspace(-40.0, 40.0, 11)
        exact = exact_incoherent_spectrum(rates, 20.0, HALF_PI, sx0=0.3,
                                          omega_grid=grid)
        numeric = regression_spectrum(rates, 20.0, sx0=0.3, omega_grid=grid)
        assert kernel_projector(
            build_liouvillian(rates, omega=20.0, laser_on=True))[1] == 2
        for result in (exact, numeric):
            assert result.zero_width_weight == pytest.approx(0.16, abs=1e-9)
        peak = np.abs(exact.incoherent).max()
        assert np.abs(exact.incoherent - numeric.incoherent).max() <= 1e-9 * peak
        assert driven_steady_state(rates, 20.0, HALF_PI, sx0=0.3).sx == 0.3
        lv = build_liouvillian(rates, omega=20.0, laser_on=True)
        rho0 = bloch_to_rho(BlochVector(0.3, 0.0, 0.0))
        assert rho_to_bloch(stationary_state(lv, rho0=rho0)).sx == \
            pytest.approx(0.3, abs=1e-9)

    @given(pair=floor_band_pairs, nbar=nbars, omega=drives, sx0=sx0s)
    @settings(max_examples=150, deadline=None)
    def test_property_one_rule_across_rate_floor(self, pair, nbar, omega, sx0):
        rates = reservoir_rates(*pair, nbar, phi1=HALF_PI, phi2=HALF_PI)
        # Each engine rounds the rate its own way (the SVD to ~eps*|L|), so
        # a draw within 1e-3 of the floor could fall on either side of it.
        reduced = rates.gamma_s + rates.gamma_n - 2.0 * rates.gamma_m
        floor = RATE_FLOOR * 2.0 * (rates.gamma_s + rates.gamma_n)
        assume(abs(reduced - floor) > 1e-3 * floor)
        lv = build_liouvillian(rates, omega=omega, laser_on=True)
        locked = damping_triple(rates, HALF_PI).gamma_x == 0.0
        assert locked == (kernel_projector(lv)[1] == 2)
        rho = stationary_state(lv, rho0=bloch_to_rho(BlochVector(sx0, 0.0, 0.0)))
        if locked:  # <Sx> = Re rho_eg, read without the sphere check (below)
            assert rho[0, 1].real == pytest.approx(sx0, abs=1e-9)

    def test_strong_drive_near_floor_disagrees_on_locking(self):
        # Known defect, left open: the SVD resolves the reduced rate only to
        # ~eps*|L| ~ eps*Omega, here several percent of the floor.  At 0.934
        # of the floor, far outside the 1e-3 band, the closed forms lock the
        # coherence while the oracle's kernel stays one-dimensional.
        rates = reservoir_rates(0.001, 0.00099996134, 0.0,
                                phi1=HALF_PI, phi2=HALF_PI)
        reduced = rates.gamma_s + rates.gamma_n - 2.0 * rates.gamma_m
        floor = RATE_FLOOR * 2.0 * (rates.gamma_s + rates.gamma_n)
        assert abs(reduced - floor) > 1e-3 * floor
        assert damping_triple(rates, HALF_PI).gamma_x == 0.0
        lv = build_liouvillian(rates, omega=300.0, laser_on=True)
        assert kernel_projector(lv)[1] == 1

    def test_locked_half_coherence_leaves_sphere(self):
        # Known defect, left open: inside the locked band sx stays at
        # sx0 = 1/2 while d = gamma_s - gamma_n != 0 still drives sy and sz,
        # so the steady vector lies outside the Bloch sphere.  Both steady
        # engines and the exact spectrum raise; the oracle's spectrum
        # returns a negative zero-width weight.
        rates = reservoir_rates(1.0, 1.0 + 3e-5, 0.5, phi1=HALF_PI, phi2=HALF_PI)
        assert damping_triple(rates, HALF_PI).gamma_x == 0.0
        grid = np.linspace(-40.0, 40.0, 11)
        lv = build_liouvillian(rates, omega=20.0, laser_on=True)
        rho0 = bloch_to_rho(BlochVector(0.5, 0.0, 0.0))
        for solve in (
                lambda: driven_steady_state(rates, 20.0, HALF_PI, sx0=0.5),
                lambda: rho_to_bloch(stationary_state(lv, rho0=rho0)),
                lambda: exact_incoherent_spectrum(rates, 20.0, HALF_PI, sx0=0.5,
                                                  omega_grid=grid)):
            with pytest.raises(ValueError, match="unphysical Bloch vector"):
                solve()
        numeric = regression_spectrum(rates, 20.0, sx0=0.5, omega_grid=grid)
        assert numeric.zero_width_weight < 0.0
