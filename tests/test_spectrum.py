"""Analytic fluorescence spectrum: Laplace form, strong-field limit,
pole structure, sum rules, figure-5 surface."""

import math
import tracemalloc
import warnings

import numpy as np
import pytest

from sps import oracle
from sps.bloch import damping_triple
from sps.reservoir import reservoir_rates
from sps.spectrum import (
    default_omega_grid,
    exact_incoherent_spectrum,
    figure5_dataset,
    pole_decomposition,
    rendered_incoherent,
    strong_field_spectrum,
    sum_rule,
)

from correlation import fluctuation_correlation
from domain import HALF_PI, LOCKED

#: The drive of the reference point used throughout, with LOCKED.
OMEGA = 20.0
GRID = default_omega_grid(OMEGA)


def strong_field_quiet(*args, **kwargs):
    """Reference-point calls sit below the advisory validity bound on purpose."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        return strong_field_spectrum(*args, **kwargs)


def wide_grid(omega, gamma_bar, factor=200.0, points=40001):
    """Grid wide enough that Lorentzian-tail truncation is below 1e-3."""
    return np.linspace(-factor * omega, factor * omega, points)


class TestLambdaLaplace:
    """S_in(delta) = 2 Re Lambda(z) at z = -i delta."""

    def test_decay_at_large_z(self):
        rates = reservoir_rates(1.0, 3.0, 0.4)
        for sign in (1.0, -1.0):
            grid = sign * np.array([1e3, 1e5, 1e7])
            values = np.abs(exact_incoherent_spectrum(
                rates, 5.0, 0.0, omega_grid=grid).incoherent)
            assert values[0] > values[1] > values[2]
            assert values[2] < 1e-6

    def test_finite_at_origin_for_unequal_rates(self):
        rates = reservoir_rates(1.0, 3.0, 0.4)
        result = exact_incoherent_spectrum(rates, 5.0, 0.0,
                                           omega_grid=np.array([0.0]))
        assert np.isfinite(result.incoherent[0])

    def test_strong_field_root_reduction(self):
        # Exact quadratic roots approach -(gamma_y+gamma_z)/2 +- i*Omega,
        # with the position shift falling off as ((gamma_z-gamma_y)/2)^2/(2*Omega).
        rates = reservoir_rates(1.0, 3.0, 0.4)
        triple = damping_triple(rates, 0.0)
        gap_sum = 0.5 * (triple.gamma_y + triple.gamma_z)
        previous = math.inf
        for omega in (50.0, 200.0, 800.0, 3200.0):
            poles = pole_decomposition(rates, omega, 0.0)
            dev = abs(poles["z_upper"] - (-gap_sum - 1j * omega))
            bound = (0.5 * (triple.gamma_z - triple.gamma_y)) ** 2 / (2.0 * omega)
            assert dev < previous
            assert dev < 1.1 * bound
            previous = dev
        assert previous < 1e-2

    def test_matches_correlation_transform(self):
        # S_in(delta) must equal 2 Re of the numerically Fourier-transformed
        # regression-theorem correlation, int C(tau) e^{i delta tau} dtau.
        rates = reservoir_rates(1.0, 3.0, 0.4)
        omega = 8.0
        lv = oracle.build_liouvillian(rates, omega=omega, laser_on=True)
        rho_ss = oracle.stationary_state(lv, np.eye(2) / 2)
        tau = np.linspace(0.0, 15.0, 40001)
        corr = fluctuation_correlation(lv, rho_ss, tau)
        deltas = np.array([0.0, 3.0, -8.0, 20.0])
        analytic = exact_incoherent_spectrum(rates, omega, 0.0,
                                             omega_grid=deltas).incoherent
        for delta, value in zip(deltas, analytic):
            numeric = 2.0 * np.trapezoid(corr * np.exp(1j * delta * tau), tau).real
            assert abs(numeric - value) < 1e-4


class TestExactSpectrum:
    def test_surviving_sideband_height(self):
        result = exact_incoherent_spectrum(LOCKED, OMEGA, HALF_PI, sx0=0.5,
                                           omega_grid=GRID)
        at_plus = result.incoherent[np.argmin(np.abs(result.omega_grid - OMEGA))]
        assert at_plus == pytest.approx(1.0 / 16.0, abs=1e-12)

    def test_extinguished_sideband_residue_is_zero(self):
        poles = pole_decomposition(LOCKED, OMEGA, HALF_PI, sx0=0.5)
        assert abs(poles["residue_lower"]) < 1e-14
        assert poles["residue_upper"].real == pytest.approx(0.25, abs=1e-12)
        mirrored = pole_decomposition(LOCKED, OMEGA, HALF_PI, sx0=-0.5)
        assert abs(mirrored["residue_upper"]) < 1e-14

    def test_mirror_symmetry_in_sx0(self):
        plus = exact_incoherent_spectrum(LOCKED, OMEGA, HALF_PI, sx0=0.3,
                                         omega_grid=GRID)
        minus = exact_incoherent_spectrum(LOCKED, OMEGA, HALF_PI, sx0=-0.3,
                                          omega_grid=GRID)
        assert np.abs(plus.incoherent - minus.incoherent[::-1]).max() < 1e-12

    def test_delta_weights_in_locked_regime(self):
        for sx0 in (0.0, 0.3, 0.5):
            result = exact_incoherent_spectrum(LOCKED, OMEGA, HALF_PI, sx0=sx0,
                                               omega_grid=GRID)
            assert result.coherent_weight == pytest.approx(sx0**2, abs=1e-15)
            assert result.zero_width_weight == pytest.approx(
                0.25 * (1.0 - 4.0 * sx0**2), abs=1e-15)

    def test_unlocked_regime_has_no_zero_width_part(self):
        from sps.bloch import driven_steady_state

        rates = reservoir_rates(1.0, 3.0, 0.4, HALF_PI, HALF_PI)
        result = exact_incoherent_spectrum(rates, OMEGA, HALF_PI, sx0=0.4,
                                           omega_grid=GRID)
        assert result.zero_width_weight == 0.0
        steady = driven_steady_state(rates, OMEGA, HALF_PI, sx0=0.4)
        assert steady.sx == 0.0  # no locking away from the perfect regime
        assert result.coherent_weight == pytest.approx(steady.sy**2, rel=1e-12)

    def test_rejects_undamped_dot(self):
        # Like the oracle: without damping the sidebands never decay.
        with pytest.raises(ValueError, match="undamped dot"):
            exact_incoherent_spectrum(reservoir_rates(0.0, 0.0, 0.5), 20.0,
                                      HALF_PI, sx0=0.3,
                                      omega_grid=np.linspace(-40, 40, 201))

    def test_nonnegative_on_default_grid(self):
        for rates, phi in ((LOCKED, HALF_PI),
                           (reservoir_rates(1.0, 3.0, 0.4), 0.0),
                           (reservoir_rates(2.0, 0.7, 0.2, HALF_PI, HALF_PI),
                            HALF_PI)):
            result = exact_incoherent_spectrum(rates, OMEGA, phi, sx0=0.2,
                                               omega_grid=GRID)
            assert result.incoherent.min() >= -1e-10

    def test_matches_oracle_spectrum(self):
        exact = exact_incoherent_spectrum(LOCKED, OMEGA, HALF_PI, sx0=0.5,
                                          omega_grid=GRID)
        numeric = oracle.regression_spectrum(LOCKED, OMEGA, sx0=0.5,
                                             omega_grid=GRID)
        peak = np.abs(exact.incoherent).max()
        assert np.abs(exact.incoherent - numeric.incoherent).max() / peak < 1e-9

    def test_equals_pole_decomposition_sum(self):
        # The sampled exact spectrum is the sum of its pole contributions.
        rates = reservoir_rates(1.0, 3.0, 0.4)
        result = exact_incoherent_spectrum(rates, OMEGA, 0.0, omega_grid=GRID)
        poles = pole_decomposition(rates, OMEGA, 0.0)
        z = -1j * GRID
        total = (poles["residue_upper"] / (z - poles["z_upper"])
                 + poles["residue_lower"] / (z - poles["z_lower"])
                 + poles["weight_central"] / (z - poles["z_central"]))
        assert np.abs(result.incoherent - 2.0 * np.real(total)).max() < 1e-12

    def test_pole_decomposition_rejects_coincident_poles(self):
        # gamma_y = 1, gamma_z = 10: Omega = 4.5 is exactly critical.
        rates = reservoir_rates(1.0, 4.0, 0.0)
        with pytest.raises(ValueError, match="poles coincide"):
            pole_decomposition(rates, 4.5, 0.0)


class TestStrongFieldSpectrum:
    def test_phi_zero_equal_height_triplet(self):
        # Perfect regime at phase 0: three peaks of equal height 1/(2*gamma_x),
        # central peak twice as wide as the sidebands.  Peak-tail overlap
        # decays as 1/Omega^2, so a deep strong-field point isolates them.
        gamma0, nbar = 1.0, 0.5
        rates = reservoir_rates(gamma0, gamma0, nbar)
        omega = 400.0
        grid = np.linspace(-2.0 * omega, 2.0 * omega, 16001)
        result = strong_field_spectrum(rates, omega, 0.0, omega_grid=grid)
        gx = 4.0 * (2.0 * nbar + 1.0) * gamma0
        center = result.incoherent[np.argmin(np.abs(grid))]
        upper = result.incoherent[np.argmin(np.abs(grid - omega))]
        lower = result.incoherent[np.argmin(np.abs(grid + omega))]
        assert center == pytest.approx(0.5 / gx, rel=1e-3)
        assert upper == pytest.approx(center, rel=1e-3)
        assert lower == pytest.approx(center, rel=1e-3)

        def hwhm(peak_center):
            # full width at half maximum / 2: the dispersive tilt shifts the
            # two half crossings antisymmetrically, so their distance is clean
            idx = np.argmin(np.abs(grid - peak_center))
            half = result.incoherent[idx] / 2.0

            def crossing(direction):
                k = idx + direction * np.argmax(
                    result.incoherent[idx::direction] < half)
                y1, y2 = result.incoherent[k - direction], result.incoherent[k]
                frac = (y1 - half) / (y1 - y2)
                return grid[k - direction] + frac * (grid[k] - grid[k - direction])

            return 0.5 * (crossing(+1) - crossing(-1))

        assert hwhm(0.0) == pytest.approx(2.0 * hwhm(omega), rel=1e-3)

    def test_single_sideband_at_full_coherence(self):
        result = strong_field_quiet(LOCKED, OMEGA, HALF_PI, sx0=0.5,
                                    omega_grid=GRID)
        at_plus = result.incoherent[np.argmin(np.abs(GRID - OMEGA))]
        at_minus = result.incoherent[np.argmin(np.abs(GRID + OMEGA))]
        assert at_plus == pytest.approx(1.0 / 16.0, abs=1e-12)
        # the -Omega value is purely the surviving peak's Lorentzian tail
        gy_gz = 16.0
        tail = 0.25 * (1.0 + 2.0 * 0.5) * gy_gz / (
            0.25 * gy_gz**2 + (2.0 * OMEGA) ** 2) * 0.5
        assert at_minus == pytest.approx(tail, rel=1e-12)

    def test_sideband_weight_formula(self):
        # Lorentzian weights (1 +- 2 sx0)/8; dispersive parts integrate to 0.
        result = strong_field_quiet(LOCKED, OMEGA, HALF_PI, sx0=0.3,
                                    omega_grid=wide_grid(OMEGA, 8.0))
        total = sum_rule(result)
        assert total == pytest.approx(0.5 - 0.3**2, abs=1e-3)

    def test_warns_outside_validity(self):
        with pytest.warns(UserWarning, match="strong-field"):
            strong_field_spectrum(LOCKED, 5.0, HALF_PI, omega_grid=GRID)

    def test_converges_to_exact_with_drive(self):
        # Sup-norm distance to the exact engine decreases monotonically
        # along Omega = {10, 20, 40, 80} * gamma_bar (first-order in
        # gamma_bar/Omega, so roughly halving at each doubling).
        rates = reservoir_rates(1.0, 1.3, 0.5)
        gamma_bar = damping_triple(rates, 0.0).gamma_z
        previous = math.inf
        for multiple in (10.0, 20.0, 40.0, 80.0):
            omega = multiple * gamma_bar
            grid = np.linspace(-2.0 * omega, 2.0 * omega, 4001)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", UserWarning)
                approx = strong_field_spectrum(rates, omega, 0.0, omega_grid=grid)
            exact = exact_incoherent_spectrum(rates, omega, 0.0, omega_grid=grid)
            peak = np.abs(exact.incoherent).max()
            dev = np.abs(approx.incoherent - exact.incoherent).max() / peak
            assert dev < previous
            previous = dev
        assert previous < 1e-2


class TestSumRules:
    def test_locked_strong_field_sum_rule(self):
        for sx0 in (0.0, 0.25, 0.5):
            result = strong_field_quiet(LOCKED, OMEGA, HALF_PI, sx0=sx0,
                                        omega_grid=wide_grid(OMEGA, 8.0))
            assert sum_rule(result) == pytest.approx(0.5 - sx0**2, abs=1e-3)
            assert result.fluctuation_total == pytest.approx(0.5 - sx0**2,
                                                             abs=1e-15)

    def test_exact_engine_matches_fluctuation_strength(self):
        # General (unlocked) case: total power equals <dS+ dS->_ss from the
        # brute-force steady state.
        rates = reservoir_rates(1.0, 3.0, 0.4)
        omega = 20.0
        lv = oracle.build_liouvillian(rates, omega=omega, laser_on=True)
        state = oracle.rho_to_bloch(oracle.stationary_state(lv, np.eye(2) / 2))
        c0 = (0.5 + state.sz) - (state.sx**2 + state.sy**2)
        result = exact_incoherent_spectrum(rates, omega, 0.0,
                                           omega_grid=wide_grid(omega, 9.0))
        assert sum_rule(result) == pytest.approx(c0, abs=1e-3)
        assert result.fluctuation_total == pytest.approx(c0, abs=1e-13)


class TestFigure5Dataset:
    def test_shape_and_ordering(self):
        sx0_grid = np.array([-0.5, 0.0, 0.5])
        grid = np.linspace(-40.0, 40.0, 101)
        data = figure5_dataset(LOCKED, OMEGA, HALF_PI, sx0_grid,
                               omega_grid=grid)
        assert data.shape == (303, 3)
        assert np.allclose(np.unique(data[:, 0]), sx0_grid)
        assert np.allclose(data[:101, 0], -0.5)

    def test_zero_coherence_slice_symmetric(self):
        grid = np.linspace(-40.0, 40.0, 801)
        data = figure5_dataset(LOCKED, OMEGA, HALF_PI, np.array([0.0]),
                               omega_grid=grid)
        values = data[:, 2]
        assert np.abs(values - values[::-1]).max() < 1e-14

    def test_full_coherence_doubles_surviving_sideband(self):
        # The sideband pole residue doubles exactly between sx0 = 0 and
        # sx0 = 1/2; the sampled curve carries a few-percent tail overlap.
        res0 = pole_decomposition(LOCKED, OMEGA, HALF_PI, sx0=0.0)
        res5 = pole_decomposition(LOCKED, OMEGA, HALF_PI, sx0=0.5)
        assert res5["residue_upper"].real == pytest.approx(
            2.0 * res0["residue_upper"].real, rel=1e-12)

        grid = np.linspace(-40.0, 40.0, 801)
        base = figure5_dataset(LOCKED, OMEGA, HALF_PI, np.array([0.0]),
                               omega_grid=grid)
        full = figure5_dataset(LOCKED, OMEGA, HALF_PI, np.array([0.5]),
                               omega_grid=grid)
        idx = np.argmin(np.abs(grid - 20.0))
        assert full[idx, 2] == pytest.approx(2.0 * base[idx, 2], rel=5e-2)

    def test_render_flag_adds_power_preserving_lorentzian(self):
        grid = np.linspace(-40.0, 40.0, 4001)
        plain = figure5_dataset(LOCKED, OMEGA, HALF_PI, np.array([0.0]),
                                omega_grid=grid)
        drawn = figure5_dataset(LOCKED, OMEGA, HALF_PI, np.array([0.0]),
                                omega_grid=grid, render_width=1.0)
        extra = drawn[:, 2] - plain[:, 2]
        # Lorentzian of width gamma0 = 1 carrying weight 1/4
        expected = 0.25 * 2.0 * 1.0 / (1.0 + grid**2)
        assert np.abs(extra - expected).max() < 1e-12

    def test_continuity_in_sx0(self):
        sx0_grid = np.linspace(-0.5, 0.5, 21)
        grid = np.linspace(-40.0, 40.0, 201)
        data = figure5_dataset(LOCKED, OMEGA, HALF_PI, sx0_grid,
                               omega_grid=grid)
        surface = data[:, 2].reshape(21, 201)
        jumps = np.abs(np.diff(surface, axis=0)).max()
        assert jumps < 0.02  # rational in sx0, no slice-to-slice jumps


def _concatenated_surface(sx0_grid, omega_grid, render_width):
    """figure5_dataset at the reference point, as one column_stack block per
    sx0."""
    blocks = []
    for sx0 in sx0_grid:
        result = exact_incoherent_spectrum(LOCKED, OMEGA, HALF_PI, sx0=sx0,
                                           omega_grid=omega_grid)
        values = (result.incoherent if render_width is None
                  else rendered_incoherent(result, render_width))
        blocks.append(np.column_stack([
            np.full_like(omega_grid, sx0), omega_grid, values]))
    return np.concatenate(blocks, axis=0)


class TestFigure5Table:
    @pytest.mark.parametrize("render_delta", [False, True])
    @pytest.mark.parametrize("shape", [(1, 1), (3, 101), (41, 201)])
    def test_bytes_equal_concatenated_blocks(self, shape, render_delta):
        sx0_grid = np.linspace(-0.5, 0.5, shape[0])
        grid = np.linspace(-40.0, 40.0, shape[1])
        width = 1.0 if render_delta else None
        table = figure5_dataset(LOCKED, OMEGA, HALF_PI, sx0_grid,
                                omega_grid=grid, render_width=width)
        expected = _concatenated_surface(sx0_grid, grid, width)
        assert table.shape == expected.shape
        assert table.tobytes() == expected.tobytes()

    def test_empty_sx0_grid_gives_empty_table(self):
        table = figure5_dataset(LOCKED, OMEGA, HALF_PI, np.array([]),
                                omega_grid=np.linspace(-40.0, 40.0, 11))
        assert table.shape == (0, 3)

    def test_traced_peak_is_the_table_plus_two_megabytes(self):
        sx0_grid = np.linspace(-0.5, 0.5, 41)
        grid = np.linspace(-40.0, 40.0, 4001)
        tracemalloc.start()
        try:
            table = figure5_dataset(LOCKED, OMEGA, HALF_PI, sx0_grid,
                                    omega_grid=grid)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < table.nbytes + 2 * 2**20


class TestRenderedIncoherent:
    @pytest.mark.parametrize("width", [5e-324, 1e-310, 1e-200, 1e-160, 1e-3,
                                       1.0, 7.0, 1e300])
    def test_any_positive_width_is_finite_or_an_inf_peak(self, width):
        grid = np.array([-40.0, -1e-300, 0.0, 1e-300, 3.0, 40.0])
        result = exact_incoherent_spectrum(LOCKED, OMEGA, HALF_PI, sx0=0.0,
                                           omega_grid=grid)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            drawn = rendered_incoherent(result, width)
        assert not np.isnan(drawn).any()
        assert (drawn - result.incoherent >= 0.0).all()
        # At delta = 0 the Lorentzian is 2w/width: inf where that overflows.
        with np.errstate(over="ignore"):
            peak = 2.0 * result.zero_width_weight / np.float64(width)
        assert drawn[2] == peak + result.incoherent[2]

    def test_unit_width_keeps_the_textbook_form(self):
        result = exact_incoherent_spectrum(LOCKED, OMEGA, HALF_PI, sx0=0.1,
                                           omega_grid=GRID)
        delta, weight = result.omega_grid, result.zero_width_weight
        textbook = result.incoherent + weight * 2.0 * 1.0 / (1.0 * 1.0 + delta**2)
        assert rendered_incoherent(result, 1.0).tobytes() == textbook.tobytes()

    def test_rejects_bad_width(self):
        result = exact_incoherent_spectrum(LOCKED, OMEGA, HALF_PI, sx0=0.0,
                                           omega_grid=GRID)
        with pytest.raises(ValueError):
            rendered_incoherent(result, 0.0)
