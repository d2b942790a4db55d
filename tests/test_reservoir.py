"""Reservoir triple, squeezing mapping, regime classification, ratio datasets."""

import dataclasses
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sps.reservoir import (
    GRID_BLOCK_POINTS,
    REGIME_INVERTED,
    REGIME_ORDINARY,
    REGIME_PERFECT,
    ReservoirRates,
    _background_ratio,
    _quantum_ratio,
    figure3_dataset,
    figure4_dataset,
    map_to_squeezing,
    quantum_threshold,
    reservoir_rates,
)
from domain import csv_text, gamma_pairs, nbars, near_perfect_ratios, \
    reservoirs
from squeezing_reference import ordinary_split


class TestReservoirRates:
    def test_vacuum_example(self):
        r = reservoir_rates(1.0, 4.0, 0.0)
        assert (r.gamma_s, r.gamma_n, r.gamma_m) == (4.0, 1.0, 2.0)

    def test_equal_rates_collapse(self):
        for nbar in (0.0, 0.5, 3.0):
            r = reservoir_rates(2.5, 2.5, nbar)
            expected = (2.0 * nbar + 1.0) * 2.5
            assert r.gamma_s == r.gamma_n == pytest.approx(expected, rel=1e-15)
            assert r.gamma_m == pytest.approx(expected, rel=1e-15)

    def test_single_tone_is_plain_vacuum(self):
        r = reservoir_rates(0.0, 1.0, 0.0)
        assert (r.gamma_s, r.gamma_n, r.gamma_m) == (1.0, 0.0, 0.0)

    def test_phase_average(self):
        r = reservoir_rates(1.0, 2.0, 0.0, phi1=0.4, phi2=0.8)
        assert r.phi == pytest.approx(0.6)
        # The constructor reduces the phase the same way, to [0, pi).
        assert ReservoirRates(1.0, 2.0, 0.0, 0.0, 7.0).phi == \
            reservoir_rates(1.0, 2.0, 0.0, phi1=7.0, phi2=7.0).phi == 7.0 - 2.0 * math.pi

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            reservoir_rates(-1.0, 1.0, 0.0)
        with pytest.raises(ValueError):
            reservoir_rates(1.0, 1.0, -0.5)

    @pytest.mark.parametrize("name", ["nbar", "gamma_rad", "phi"])
    def test_constructor_rejects_nan(self, name):
        fields = dict(phi=0.0, gamma_rad=0.0, gamma1=1.0, gamma2=1.0, nbar=0.0)
        fields[name] = math.nan
        with pytest.raises(ValueError, match=f"{name} must be >= 0, got nan"):
            ReservoirRates(**fields)

    def test_rejects_nan_and_infinite_inputs(self):
        with pytest.raises(ValueError, match="gamma1 must be >= 0"):
            reservoir_rates(math.nan, 1.0, 0.0)
        with pytest.raises(ValueError):
            reservoir_rates(math.inf, 1.0, 0.5)
        with pytest.raises(ValueError, match="nbar must be >= 0"):
            reservoir_rates(np.array([1.0, 2.0]), 1.0, np.array([0.5, -0.5]))
        # A negative rate is named, with no warning from the sqrt it enters.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="gamma2 must be >= 0, got -1.0"):
                reservoir_rates(1.0, -1.0, 0.5)
            # An infinite rate fails its own bound, before inf*0 = nan
            # reaches the triple.
            with pytest.raises(ValueError, match=r"^gamma1 must be < "
                               r"8\.379879956214122e\+152, got inf$"):
                reservoir_rates(np.array([1.0, 1.0, math.inf]), 1.0,
                                np.array([0.5, 1e153, 0.0]))
            # A triple whose products would overflow names its first
            # failing element (2e153), not a later one (1.2e154).
            with pytest.raises(ValueError, match=r"^gamma_s must be < "
                               r"8\.379879956214122e\+152, got 2e\+153$"):
                reservoir_rates(1.0, 1.0, np.array([0.5, 1e153, 6e153]))
            # nbar*(nbar+1) overflows under rates too small to lift the triple.
            with pytest.raises(ValueError, match=r"^nbar must be < "
                               r"6\.703903964971298e\+153, got 1e\+200$"):
                reservoir_rates(1e-300, 2e-300, 1e200)
            # A phase that is not finite, or whose sum overflows, reduces
            # to NaN and fails its rule.
            for phi1, phi2 in ((math.inf, 0.0), (1e308, 1e308)):
                with pytest.raises(ValueError, match="^phi must be >= 0, got nan$"):
                    reservoir_rates(1.0, 2.0, 0.5, phi1=phi1, phi2=phi2)

    def test_array_fields_broadcast(self):
        r = reservoir_rates(1.0, np.array([2.0, 4.0]), 0.0)
        assert isinstance(r.gamma_s, np.ndarray) and r.gamma1.shape == (2,)
        assert r.gamma_n.tolist() == [1.0, 1.0]
        assert r.is_perfect.tolist() == [False, False]
        s = reservoir_rates(1.0, 4.0, 0.0)
        assert type(s.gamma_s) is float and type(s.is_perfect) is bool

    def test_triple_cannot_be_passed_in(self):
        with pytest.raises(ValueError, match="gamma_m is declared with init=False"):
            dataclasses.replace(reservoir_rates(1.0, 2.0, 0.5), gamma_m=0.9)

    @given(pair=gamma_pairs, nbar=nbars)
    @settings(max_examples=300, deadline=None)
    def test_determinant_identity(self, pair, nbar):
        g1, g2 = pair
        r = reservoir_rates(g1, g2, nbar)
        lhs = r.gamma_s * r.gamma_n - r.gamma_m**2
        rhs = nbar * (nbar + 1.0) * (g1 - g2) ** 2
        scale = max(r.gamma_s * r.gamma_n, r.gamma_m**2, 1e-300)
        assert abs(lhs - rhs) <= 1e-12 * scale


class TestMapToSqueezing:
    def test_ordinary_example(self):
        d = map_to_squeezing(reservoir_rates(1.0, 4.0, 0.0))
        assert d.regime == REGIME_ORDINARY
        assert d.gamma_eff == pytest.approx(6.0)
        assert d.n_photons == pytest.approx(1.0 / 3.0)
        assert d.m_abs == pytest.approx(2.0 / 3.0)
        assert d.quantum
        # u = 2/3, w = 5/6 split the occupation into Ns = 1/3, Nb = 0.
        assert d.n_squeezed == pytest.approx(1.0 / 3.0)
        assert d.n_background == pytest.approx(0.0, abs=1e-15)
        assert d.n_squeezed * (d.n_squeezed + 1.0) == pytest.approx(d.m_abs**2)

    def test_inverted_mirror(self):
        d = map_to_squeezing(reservoir_rates(4.0, 1.0, 0.0))
        assert d.regime == REGIME_INVERTED
        assert d.gamma_eff == pytest.approx(6.0)
        assert d.n_photons == pytest.approx(1.0 / 3.0)
        assert d.m_abs == pytest.approx(2.0 / 3.0)

    def test_perfect_sentinels(self):
        d = map_to_squeezing(reservoir_rates(2.0, 2.0, 0.5))
        assert d.regime == REGIME_PERFECT
        assert d.gamma_eff == 0.0
        assert math.isinf(d.n_photons) and math.isinf(d.m_abs)
        assert d.n_background == 0.0
        assert d.quantum

    def test_perfect_limit_of_correlation_identity(self):
        # Approaching gamma_1 = gamma_2, |M|^2 - N(N+1) -> -nbar(nbar+1);
        # N ~ 1/eps, so keep eps large enough that the cancellation noise
        # N^2 * ulp stays far below 0.75.
        d = map_to_squeezing(reservoir_rates(1.0, 1.0 + 1e-3, 0.5))
        assert d.m_abs**2 - d.n_photons * (d.n_photons + 1.0) == pytest.approx(
            -0.75, rel=1e-6)

    @given(pair=gamma_pairs, nbar=nbars)
    @settings(max_examples=300, deadline=None)
    def test_correlation_and_split_identities(self, pair, nbar):
        d = map_to_squeezing(reservoir_rates(*pair, nbar))
        if d.regime == REGIME_PERFECT:
            return
        n, m = d.n_photons, d.m_abs
        scale = max(n * (n + 1.0), 1.0)
        assert abs(m**2 - n * (n + 1.0) + nbar * (nbar + 1.0)) <= 1e-12 * scale
        assert abs(d.n_squeezed + d.n_background - n) <= 1e-12 * scale
        assert abs(d.n_squeezed * (d.n_squeezed + 1.0) - m**2) <= 1e-12 * scale

    @given(pair=gamma_pairs, nbar=nbars)
    @settings(max_examples=200, deadline=None)
    def test_exchange_symmetry(self, pair, nbar):
        g1, g2 = pair
        d12 = map_to_squeezing(reservoir_rates(g1, g2, nbar))
        d21 = map_to_squeezing(reservoir_rates(g2, g1, nbar))
        if d12.regime == REGIME_PERFECT:
            assert d21.regime == REGIME_PERFECT
            return
        assert {d12.regime, d21.regime} == {REGIME_ORDINARY, REGIME_INVERTED}
        assert d12.n_photons == pytest.approx(d21.n_photons, rel=1e-12)
        assert d12.m_abs == pytest.approx(d21.m_abs, rel=1e-12)

    @given(pair=gamma_pairs, nbar=nbars)
    @example(pair=(0.001, 0.0010000000000000002), nbar=0.0)
    @settings(max_examples=200, deadline=None)
    def test_printed_lower_limit_matches_mapping(self, pair, nbar):
        # |M| - N from the mapping equals the closed form
        # [sqrt(g_small) - nbar(sqrt(g_big)-sqrt(g_small))]/(sqrt(g1)+sqrt(g2)).
        g1, g2 = pair
        d = map_to_squeezing(reservoir_rates(g1, g2, nbar))
        if d.regime == REGIME_PERFECT:
            return
        small, big = min(g1, g2), max(g1, g2)
        closed = (math.sqrt(small) - nbar * (math.sqrt(big) - math.sqrt(small))) / (
            math.sqrt(g1) + math.sqrt(g2))
        # Next to g1 == g2, |M| and N grow like 1/|g2 - g1|, and their
        # difference keeps their rounding: at most 2.3 eps*N over 200 000
        # draws, beyond the 1e-10 that covers every N below 1e5.
        tol = 1e-10 + 4 * 2**-52 * d.n_photons
        assert d.m_abs - d.n_photons == pytest.approx(closed, abs=tol)


class TestArrayPath:
    """Array calls of the closed forms equal the per-element scalar calls
    bit for bit (compared as the CSV writes them, ``%.17g``)."""

    FIELDS = ("gamma_eff", "n_photons", "m_abs", "n_squeezed", "n_background")

    def assert_matches_scalar(self, g1, g2, nbar, gamma_rad):
        rates = reservoir_rates(g1, g2, nbar, gamma_rad=gamma_rad)
        desc = map_to_squeezing(rates)
        for i in range(len(g1)):
            r = reservoir_rates(float(g1[i]), float(g2[i]), float(nbar[i]),
                                gamma_rad=float(gamma_rad[i]))
            d = map_to_squeezing(r)
            for name in ("gamma_s", "gamma_n", "gamma_m", "phi"):
                assert csv_text(getattr(rates, name)[i]) == csv_text(getattr(r, name))
            for name in self.FIELDS:
                assert csv_text(getattr(desc, name)[i]) == csv_text(getattr(d, name))
            assert desc.regime[i] == d.regime
            assert desc.quantum[i] == d.quantum
            assert rates.is_perfect[i] == r.is_perfect

    @given(draws=st.lists(reservoirs, min_size=1, max_size=16))
    @settings(max_examples=200, deadline=None)
    def test_squeezing_array_equals_scalar(self, draws):
        self.assert_matches_scalar(*(np.array(c) for c in zip(*draws)))

    def test_sweep_across_equal_rates(self):
        # Ordinary, perfect (gamma2 == gamma1 only) and inverted; one ulp
        # either side of 1 is a finite, non-perfect point.
        near = [1.0 + 2**-52, 1.0 - 2**-53, 1.0 + 1e-12, 1.0 - 1e-12]
        g2 = np.concatenate([np.linspace(0.5, 1.5, 101), [1.0, *near]])
        ones = np.ones_like(g2)
        self.assert_matches_scalar(ones, g2, 0.7 * ones, 0.0 * ones)
        desc = map_to_squeezing(reservoir_rates(1.0, g2, 0.7))
        assert set(desc.regime) == {REGIME_ORDINARY, REGIME_PERFECT,
                                    REGIME_INVERTED}
        assert ((desc.regime == REGIME_PERFECT) == (g2 == 1.0)).all()
        for name in self.FIELDS:
            assert np.isfinite(getattr(desc, name)[-len(near):]).all()

    def test_figure_grids_equal_scalar_route(self):
        nbar_grid, ratio_grid = np.linspace(0.0, 2.9, 8), np.linspace(1.1, 9.3, 7)
        fig3 = figure3_dataset(nbar_grid, ratio_grid)
        fig4 = figure4_dataset(nbar_grid, ratio_grid)
        for row3, row4 in zip(fig3, fig4):
            d = map_to_squeezing(reservoir_rates(1.0, row3[1], row3[0]))
            assert row3[2] == _quantum_ratio(d)
            assert row4[2] == _background_ratio(d)


class TestQuantumThreshold:
    def test_ratio_four(self):
        assert quantum_threshold(1.0, 4.0) == pytest.approx(1.0)

    def test_ratio_nine(self):
        assert quantum_threshold(1.0, 9.0) == pytest.approx(0.5)

    def test_equal_rates_sentinel(self):
        assert quantum_threshold(3.0, 3.0) == math.inf

    def test_mirrored(self):
        assert quantum_threshold(4.0, 1.0) == pytest.approx(1.0)

    @pytest.mark.parametrize("g1,g2", [(1.0, 4.0), (1.0, 9.0), (2.0, 5.0)])
    def test_flag_flips_at_threshold(self, g1, g2):
        nbar_star = quantum_threshold(g1, g2)
        below = map_to_squeezing(reservoir_rates(g1, g2, nbar_star * (1 - 1e-9)))
        above = map_to_squeezing(reservoir_rates(g1, g2, nbar_star * (1 + 1e-9)))
        assert below.quantum and not above.quantum

    def test_vanishing_rate_limit(self):
        # One rate 0: classical at every nbar, the formula's limit 0.
        assert quantum_threshold(0.0, 1.0) == quantum_threshold(1.0, 0.0) == 0.0
        assert not map_to_squeezing(reservoir_rates(0.0, 1.0, 0.0)).quantum

    def test_rejects_negative(self):
        for bad in (-5e-324, math.nan):
            with pytest.raises(ValueError, match="gamma1 must be >= 0"):
                quantum_threshold(bad, 1.0)


#: Bounds against the decimal reference in the band gamma2/gamma1 in
#: (1, 1 + 1e-3]: relative, and absolute for a subnormal value.  Over
#: 30 000 draws (ratio - 1 from 2**-52 to 1e-3, nbar 0 and 1e-323 to 5) the
#: worst was 4.4e-16 (|M|/N), 6.0e-16 (fig4) and 5.8e-16 (Nb) relative,
#: and 2 ulp(0) absolute.
NEAR_PERFECT_RTOL = 1e-15
NEAR_PERFECT_ATOL = 4 * math.ulp(0.0)


class TestNearPerfectBand:
    @given(ratio=near_perfect_ratios, nbar=nbars)
    @example(ratio=1.0 + 2**-52, nbar=0.5)
    @example(ratio=1.0 + 1e-6, nbar=3.0)
    @example(ratio=1.0 + 1e-12, nbar=1e-300)
    @settings(max_examples=200, deadline=None)
    def test_figures_and_split_match_decimal_reference(self, ratio, nbar):
        got = (figure3_dataset([nbar], [ratio])[0, 2],
               figure4_dataset([nbar], [ratio])[0, 2],
               map_to_squeezing(reservoir_rates(1.0, ratio, nbar)).n_background)
        for value, exact in zip(got, ordinary_split(ratio, nbar)):
            assert math.isfinite(value)
            assert abs(value - exact) <= (NEAR_PERFECT_RTOL * abs(exact)
                                          + NEAR_PERFECT_ATOL)

    @pytest.mark.filterwarnings("error")
    def test_huge_nbar_matches_decimal_reference(self):
        # nbar*u passes ~6.7e153 up to ratio ~1.01 (u = sqrt(ratio)/(ratio
        # - 1)), where the root's square overflows; past it, it does not.
        # At ratio 10 this nbar keeps gamma_s = 11*nbar + 10 below its bound.
        nbar = 7e151
        ratios = np.concatenate([1.0 + np.geomspace(2**-52, 0.1, 12),
                                 np.linspace(1.0, 10.0, 202)[1:]])
        got = (figure3_dataset([nbar], ratios)[:, 2],
               figure4_dataset([nbar], ratios)[:, 2],
               map_to_squeezing(reservoir_rates(1.0, ratios, nbar)).n_background)
        exact = np.array([ordinary_split(ratio, nbar) for ratio in ratios]).T
        for value, reference in zip(got, exact):
            assert np.all(np.abs(value - reference)
                          <= NEAR_PERFECT_RTOL * np.abs(reference))


def _contour_crossing(dataset, ratio_grid, nbar_grid, target_ratio, level=1.0):
    """nbar at which the dataset value crosses ``level`` in the column whose
    ratio is closest to ``target_ratio`` (linear interpolation)."""
    values = dataset[:, 2].reshape(len(nbar_grid), len(ratio_grid))
    col = int(np.argmin(np.abs(ratio_grid - target_ratio)))
    column = values[:, col]
    sign = column - level
    idx = np.where(np.diff(np.sign(sign)) != 0)[0]
    assert len(idx) > 0, "no crossing found"
    i = idx[0]
    frac = sign[i] / (sign[i] - sign[i + 1])
    return nbar_grid[i] + frac * (nbar_grid[i + 1] - nbar_grid[i]), ratio_grid[col]


class TestFigureDatasets:
    nbar_grid = np.linspace(0.0, 3.0, 201)
    ratio_grid = np.linspace(1.0, 10.0, 202)[1:]

    def test_fig3_zero_nbar_row(self):
        data = figure3_dataset(np.array([0.0]), self.ratio_grid)
        # At nbar = 0, |M|/N = sqrt(1 + 1/N) > 1 everywhere.
        n = map_to_squeezing(reservoir_rates(1.0, 4.0, 0.0)).n_photons
        row = data[np.isclose(data[:, 1], 4.0, atol=0.03)]
        assert row[0, 2] == pytest.approx(math.sqrt(1.0 + 1.0 / n), rel=1e-3)
        assert np.all(data[:, 2] > 1.0)

    def test_fig3_contour_matches_threshold(self):
        data = figure3_dataset(self.nbar_grid, self.ratio_grid)
        for target in (2.25, 4.0, 9.0):
            crossing, ratio_col = _contour_crossing(
                data, self.ratio_grid, self.nbar_grid, target)
            theory = 1.0 / (math.sqrt(ratio_col) - 1.0)
            cell = self.nbar_grid[1] - self.nbar_grid[0]
            assert abs(crossing - theory) <= cell

    def test_fig3_decreasing_in_nbar(self):
        data = figure3_dataset(self.nbar_grid, np.array([3.0]))
        column = data[:, 2]
        assert np.all(np.diff(column) < 0)

    def test_fig3_consistent_with_scalar_route(self):
        data = figure3_dataset(np.array([0.7]), np.array([2.5]))
        d = map_to_squeezing(reservoir_rates(1.0, 2.5, 0.7))
        assert data[0, 2] == pytest.approx(d.m_abs / d.n_photons, rel=1e-12)

    def test_fig4_zero_nbar_is_zero(self):
        data = figure4_dataset(np.array([0.0]), self.ratio_grid)
        assert np.allclose(data[:, 2], 0.0, atol=1e-12)

    def test_fig4_boundary_matches_threshold(self):
        data = figure4_dataset(self.nbar_grid, self.ratio_grid)
        crossing, ratio_col = _contour_crossing(
            data, self.ratio_grid, self.nbar_grid, 4.0)
        cell = self.nbar_grid[1] - self.nbar_grid[0]
        assert abs(crossing - 1.0 / (math.sqrt(ratio_col) - 1.0)) <= cell

    def test_fig4_increasing_in_nbar(self):
        # Finite-difference monotonicity scan along nbar at fixed ratio.
        data = figure4_dataset(self.nbar_grid, np.array([4.0]))
        assert np.all(np.diff(data[:, 2]) > 0)

    def test_fig4_consistent_with_scalar_route(self):
        data = figure4_dataset(np.array([1.2]), np.array([6.0]))
        d = map_to_squeezing(reservoir_rates(1.0, 6.0, 1.2))
        expected = d.n_background / (d.m_abs - d.n_squeezed)
        assert data[0, 2] == pytest.approx(expected, rel=1e-12)

    def test_row_ordering_nbar_major(self):
        data = figure3_dataset(np.array([0.0, 1.0]), np.array([2.0, 3.0]))
        assert np.allclose(data[:, 0], [0.0, 0.0, 1.0, 1.0])
        assert np.allclose(data[:, 1], [2.0, 3.0, 2.0, 3.0])

    def test_rejects_ratio_at_or_below_one(self):
        with pytest.raises(ValueError):
            figure3_dataset(self.nbar_grid, np.array([0.5, 2.0]))


def _whole_mesh_tables(nbar_grid, ratio_grid):
    """fig3 and fig4 tables from one evaluation over the whole mesh."""
    nn, rr = np.meshgrid(nbar_grid, ratio_grid, indexing="ij")
    desc = map_to_squeezing(reservoir_rates(1.0, rr, nn))
    return [np.column_stack([nn.ravel(), rr.ravel(), value.ravel()])
            for value in (_quantum_ratio(desc), _background_ratio(desc))]


def _cli_grids(n_nbar, n_ratio):
    """The grids ``sps figure fig3|fig4`` builds from its [run] keys."""
    return (np.linspace(0.0, 3.0, n_nbar),
            np.linspace(1.0, 10.0, n_ratio + 1)[1:])


class TestBlockedFigureTables:
    B = GRID_BLOCK_POINTS

    @pytest.mark.parametrize("shape", [
        (0, 5), (4, 0), (1, 1), (1, B - 1), (2, B // 2), (B + 1, 1),
        (5, B - 3), (1, 2 * B + 7)])
    def test_bytes_equal_whole_mesh(self, shape):
        nbar_grid, ratio_grid = _cli_grids(*shape)
        fig3, fig4 = _whole_mesh_tables(nbar_grid, ratio_grid)
        for blocked, whole in ((figure3_dataset(nbar_grid, ratio_grid), fig3),
                               (figure4_dataset(nbar_grid, ratio_grid), fig4)):
            assert blocked.shape == whole.shape == (shape[0] * shape[1], 3)
            assert blocked.tobytes() == whole.tobytes()

    @pytest.mark.parametrize("dataset", [figure3_dataset, figure4_dataset])
    @pytest.mark.parametrize("shape", [(400, 400), (1, 160000)])
    def test_traced_peak_is_the_table_plus_two_megabytes(self, dataset, shape):
        nbar_grid, ratio_grid = _cli_grids(*shape)
        tracemalloc.start()
        try:
            table = dataset(nbar_grid, ratio_grid)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < table.nbytes + 2 * 2**20
