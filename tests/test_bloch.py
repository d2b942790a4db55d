"""Closed-form Bloch dynamics: quadratures, free decay, driven steady
states, coherence locking, dressed populations, external squeezed vacuum."""

import decimal
import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from sps import oracle
from sps.bloch import (
    BlochVector,
    _expm2,
    damping_triple,
    dressed_populations,
    driven_evolution,
    driven_steady_state,
    external_squeezed_decay,
    free_evolution,
    free_steady_inversion,
    quadrature,
)
from sps.reservoir import RATE_FLOOR, reservoir_rates

from domain import HALF_PI, LOCKED, Point, ROUNDED_CRITICAL, bloch_states, \
    csv_text, drives, gamma_pairs, gammas, nbars, omegas, points, \
    reservoirs, resolved_points, unequal_pairs


class TestBlochVector:
    def test_rejects_unphysical(self):
        with pytest.raises(ValueError, match="unphysical"):
            BlochVector(0.5, 0.5, 0.0)

    def test_boundary_allowed(self):
        BlochVector(0.5, 0.0, 0.0)
        BlochVector(0.0, 0.0, -0.5)


class TestQuadrature:
    def test_phi_half_pi_selects_sx(self):
        assert quadrature(BlochVector(0.5, 0.0, 0.0), HALF_PI) == pytest.approx((0.5, 0.0))

    def test_phi_zero_selects_sy(self):
        assert quadrature(BlochVector(0.0, 0.5, 0.0), 0.0) == pytest.approx((0.5, 0.0))

    @given(state=bloch_states, phi=st.floats(0.0, 2.0 * math.pi))
    @settings(max_examples=200, deadline=None)
    def test_involution(self, state, phi):
        # The quadrature map is a reflection: applying it twice at the same
        # phi returns the original (sx, sy).
        s_phi, s_perp = quadrature(state, phi)
        back = quadrature(BlochVector(s_phi, s_perp, state.sz), phi)
        assert back[0] == pytest.approx(state.sx, abs=1e-14)
        assert back[1] == pytest.approx(state.sy, abs=1e-14)


class TestFreeEvolution:
    def test_perfect_regime_locks_quadrature(self):
        state0 = BlochVector(0.3, -0.2, 0.1)
        for nbar in (0.0, 0.5, 3.0):
            rates = reservoir_rates(1.3, 1.3, nbar, phi1=0.7, phi2=0.9)
            s_phi0, _ = quadrature(state0, rates.phi)
            for t in (0.5, 2.0, 20.0):
                s_phi_t, _ = quadrature(free_evolution(state0, rates, t), rates.phi)
                assert abs(s_phi_t - s_phi0) < 1e-10

    def test_perfect_regime_enhanced_rate(self):
        # The orthogonal quadrature decays at 4*(2*nbar+1)*gamma0.
        gamma0, nbar, t = 0.8, 0.5, 0.37
        rates = reservoir_rates(gamma0, gamma0, nbar)
        state0 = BlochVector(0.4, 0.0, 0.0)
        _, s_perp0 = quadrature(state0, rates.phi)
        _, s_perp_t = quadrature(free_evolution(state0, rates, t), rates.phi)
        expected = s_perp0 * math.exp(-4.0 * (2.0 * nbar + 1.0) * gamma0 * t)
        assert s_perp_t == pytest.approx(expected, rel=1e-12)

    def test_inverted_steady_inversion(self):
        rates = reservoir_rates(4.0, 1.0, 0.5)
        assert free_steady_inversion(rates) == pytest.approx(0.15, abs=1e-15)
        late = free_evolution(BlochVector(0.0, 0.0, -0.5), rates, 50.0)
        assert late.sz == pytest.approx(0.15, abs=1e-12)

    def test_sign_of_steady_inversion(self):
        # Inversion appears iff gamma_n > gamma_s, i.e. gamma_1 > gamma_2.
        assert free_steady_inversion(reservoir_rates(4.0, 1.0, 0.5)) > 0
        assert free_steady_inversion(reservoir_rates(1.0, 4.0, 0.5)) < 0

    def test_matches_oracle_with_gamma_rad(self):
        rates = reservoir_rates(0.7, 1.9, 0.8, phi1=1.1, phi2=2.2, gamma_rad=0.35)
        state0 = BlochVector(0.2, -0.1, 0.4)
        lv = oracle.build_liouvillian(rates)
        ts = np.linspace(0.0, 6.0, 25)
        traj = oracle.propagate(oracle.bloch_to_rho(state0), lv, ts)
        for t, rho in zip(ts, traj):
            ana = free_evolution(state0, rates, t).as_array()
            num = oracle.rho_to_bloch(rho).as_array()
            assert np.abs(ana - num).max() < 1e-8

    def test_rejects_negative_time(self):
        rates = reservoir_rates(1.0, 2.0, 0.0)
        with pytest.raises(ValueError):
            free_evolution(BlochVector(0, 0, 0), rates, -1.0)

    @given(reservoir=reservoirs)
    @settings(max_examples=300, deadline=None)
    def test_steady_inversion_formula(self, reservoir):
        gamma1, gamma2, nbar, gamma_rad = reservoir
        rates = reservoir_rates(gamma1, gamma2, nbar, gamma_rad=gamma_rad)
        s, n, half_rad = rates.gamma_s, rates.gamma_n, 0.5 * rates.gamma_rad
        assert free_steady_inversion(rates) == \
            -(s - n + half_rad) / (2.0 * (s + n + half_rad))


class TestDampingTriple:
    def test_perfect_phi_zero_limits(self):
        # gamma_x = gamma_z = 4*(2*nbar+1)*gamma0, gamma_y = 0.
        gamma0, nbar = 1.2, 0.7
        rates = reservoir_rates(gamma0, gamma0, nbar)
        triple = damping_triple(rates, 0.0)
        expected = 4.0 * (2.0 * nbar + 1.0) * gamma0
        assert triple.gamma_x == pytest.approx(expected, rel=1e-12)
        assert triple.gamma_z == pytest.approx(expected, rel=1e-12)
        assert triple.gamma_y == 0.0

    def test_perfect_phi_half_pi_limits(self):
        gamma0, nbar = 1.2, 0.7
        rates = reservoir_rates(gamma0, gamma0, nbar, HALF_PI, HALF_PI)
        triple = damping_triple(rates, HALF_PI)
        expected = 4.0 * (2.0 * nbar + 1.0) * gamma0
        assert triple.gamma_x == 0.0
        assert triple.gamma_y == pytest.approx(expected, rel=1e-12)
        assert triple.gamma_z == pytest.approx(expected, rel=1e-12)

    @given(pair=unequal_pairs, nbar=nbars)
    @settings(max_examples=200, deadline=None)
    def test_unequal_rates_both_positive(self, pair, nbar):
        for phi in (0.0, HALF_PI):
            triple = damping_triple(reservoir_rates(*pair, nbar, phi, phi), phi)
            assert triple.gamma_x > 0.0 and triple.gamma_y > 0.0

    @given(pair=gamma_pairs, nbar=nbars)
    @settings(max_examples=200, deadline=None)
    def test_rate_sum_identity(self, pair, nbar):
        triple = damping_triple(reservoir_rates(*pair, nbar), 0.0)
        assert triple.gamma_x + triple.gamma_y == pytest.approx(
            triple.gamma_z, rel=1e-12)

    def test_rejects_other_phases(self):
        rates = reservoir_rates(1.0, 2.0, 0.0)
        with pytest.raises(ValueError, match="phi"):
            damping_triple(rates, 0.3)
        # Nor the phase the reservoir does not have: the phi = 0
        # reservoir's answer is not the pi/2 closed form's.
        with pytest.raises(ValueError, match=r"phi_choice 1\.5707963267948966 "
                           r"contradicts the reservoir's phase phi = 0\.0"):
            driven_steady_state(reservoir_rates(1, 2, 0.5), 5, HALF_PI, sx0=0.3)
        rates = reservoir_rates(1.0, 2.0, 0.5, [0.0, HALF_PI], [0.0, HALF_PI])
        with pytest.raises(ValueError, match="contradicts"):
            damping_triple(rates, 0.0)
        assert damping_triple(rates, [0.0, HALF_PI]).phi_choice.tolist() == [
            0.0, HALF_PI]


class TestDrivenSteadyState:
    def test_worked_example(self):
        # gamma1=2, gamma2=1, nbar=0, phi=0, Omega=2:
        # gamma_s=1, gamma_n=2, gamma_m=sqrt(2), gamma_y=3-2*sqrt(2), gamma_z=6.
        rates = reservoir_rates(2.0, 1.0, 0.0)
        assert rates.gamma_s == 1.0 and rates.gamma_n == 2.0
        assert rates.gamma_m == pytest.approx(math.sqrt(2.0), rel=1e-15)
        triple = damping_triple(rates, 0.0)
        assert triple.gamma_y == pytest.approx(3.0 - 2.0 * math.sqrt(2.0), rel=1e-12)
        assert triple.gamma_z == 6.0
        state = driven_steady_state(rates, 2.0, 0.0)
        denom = 22.0 - 12.0 * math.sqrt(2.0)
        assert state.sy == pytest.approx(-2.0 / denom, rel=1e-14)
        assert state.sz == pytest.approx((3.0 - 2.0 * math.sqrt(2.0)) / denom, rel=1e-14)

    def test_locking_at_half_pi(self):
        rates = reservoir_rates(1.5, 1.5, 0.5, phi1=HALF_PI, phi2=HALF_PI)
        state = driven_steady_state(rates, 5.0, HALF_PI, sx0=0.3)
        assert state == BlochVector(0.3, 0.0, -0.0)

    def test_no_locking_at_phi_zero(self):
        rates = reservoir_rates(1.5, 1.5, 0.5)
        state = driven_steady_state(rates, 5.0, 0.0, sx0=0.3)
        assert state.sx == 0.0 and state.sy == 0.0 and state.sz == 0.0

    @given(gamma=gammas, nbar=nbars, state=bloch_states,
           t=st.floats(0.0, 1e3))
    @settings(max_examples=300, deadline=None)
    def test_undriven_perfect_phi_zero_leaves_sy_undamped(self, gamma, nbar,
                                                          state, t):
        # gamma_y = gamma_s + gamma_n - 2*gamma_m is 0 up to rounding, and
        # RATE_FLOOR counts it as 0 whichever way it rounds.
        rates = reservoir_rates(gamma, gamma, nbar)
        with pytest.raises(ValueError, match="steady state undefined"):
            driven_steady_state(rates, 0.0, 0.0)
        assert driven_evolution(state, rates, 0.0, 0.0, t).sy == state.sy

    @given(pair=gamma_pairs, nbar=nbars, omega=drives)
    @settings(max_examples=200, deadline=None)
    def test_fixed_point_of_equations_of_motion(self, pair, nbar, omega):
        for phi in (0.0, HALF_PI):
            rates = reservoir_rates(*pair, nbar, phi, phi)
            triple = damping_triple(rates, phi)
            s = driven_steady_state(rates, omega, phi, sx0=0.2)
            rhs = np.array([
                -triple.gamma_x * s.sx,
                -triple.gamma_y * s.sy - omega * s.sz,
                -(rates.gamma_s - rates.gamma_n) - triple.gamma_z * s.sz
                + omega * s.sy,
            ])
            scale = max(omega, triple.gamma_z, 1.0)
            assert np.abs(rhs).max() <= 1e-12 * scale


def _edge_times(q):
    """t = 0 and the times just either side of |q t| = 1e-3 and 1e-6, where
    the 2x2 exponential switches to its near-defective series."""
    if q == 0.0:
        return [0.0]
    return [0.0] + [x * f / q for x in (1e-6, 1e-3) for f in (1 - 1e-9, 1 + 1e-9)]


class TestArrayPath:
    """Array calls equal the per-element scalar calls bit for bit, and an
    element the scalar call rejects makes the whole array call raise."""

    @staticmethod
    def scalar_rows(draws):
        rows = []
        for g1, g2, nbar, gamma_rad, omega, sx0, phi in draws:
            rates = reservoir_rates(g1, g2, nbar, phi1=phi, phi2=phi,
                                    gamma_rad=gamma_rad)
            triple = damping_triple(rates, phi)
            s = driven_steady_state(rates, omega, phi, sx0=sx0)
            rows.append([triple.gamma_x, triple.gamma_y, triple.gamma_z,
                         triple.phi_choice, s.sx, s.sy, s.sz])
        return rows

    def assert_matches_scalar(self, draws):
        g1, g2, nbar, gamma_rad, omega, sx0, phi = (
            np.array(c, dtype=float) for c in zip(*draws))
        rates = reservoir_rates(g1, g2, nbar, phi1=phi, phi2=phi,
                                gamma_rad=gamma_rad)
        try:
            expected = self.scalar_rows(draws)
        except ValueError:
            with pytest.raises(ValueError):
                driven_steady_state(rates, omega, phi, sx0=sx0)
            return
        triple = damping_triple(rates, phi)
        s = driven_steady_state(rates, omega, phi, sx0=sx0)
        got = np.column_stack([triple.gamma_x, triple.gamma_y, triple.gamma_z,
                               triple.phi_choice, s.sx, s.sy, s.sz])
        assert [[csv_text(v) for v in row] for row in got] == \
            [[csv_text(v) for v in row] for row in expected]

    @given(draws=st.lists(points, min_size=1, max_size=16))
    @settings(max_examples=300, deadline=None)
    def test_steady_array_equals_scalar(self, draws):
        self.assert_matches_scalar(draws)

    def test_sweep_across_equal_rates(self):
        g2 = np.concatenate([np.linspace(0.5, 1.5, 101),
                             [1.0, 1.0 + 1e-12, 1.0 - 1e-12, 1.0 + 1e-6,
                              1.0 + 1e-3]])
        for phi in (0.0, HALF_PI):
            self.assert_matches_scalar(
                [(1.0, v, 0.5, 0.0, 20.0, 0.3, phi) for v in g2])
        rates = reservoir_rates(1.0, g2, 0.5, phi1=HALF_PI, phi2=HALF_PI)
        locked = driven_steady_state(rates, 20.0, HALF_PI, sx0=0.3).sx == 0.3
        assert locked[-5:].tolist() == [True, True, True, True, False]
        # Each element locks exactly where the oracle's kernel is 2-D.
        kernel_dims = [oracle.kernel_projector(oracle.build_liouvillian(
            reservoir_rates(1.0, v, 0.5, phi1=HALF_PI, phi2=HALF_PI),
            omega=20.0, laser_on=True))[1] for v in g2]
        assert locked.tolist() == [dim == 2 for dim in kernel_dims]

    def test_undamped_element_fails_whole_call(self):
        rates = reservoir_rates(1.0, 1.0, 0.5)  # gamma_y = 0 at phi = 0
        with pytest.raises(ValueError, match="steady state undefined"):
            driven_steady_state(rates, np.array([2.0, 1.0, 0.0]), 0.0)

    def test_rejects_phase_outside_choices_in_array(self):
        rates = reservoir_rates(1.0, 2.0, 0.0)
        with pytest.raises(ValueError, match="got 0.3"):
            damping_triple(rates, np.array([0.0, HALF_PI, 0.3]))

    @staticmethod
    def assert_trajectory_matches_scalar(evolve, times):
        """One array call on ``times`` equals the scalar calls as %.17g
        text, without a warning; a negative or NaN time fails it."""
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = evolve(np.array(times))
            expected = [evolve(t) for t in times]
        fields = ("sx", "sy", "sz")
        assert all(type(getattr(s, f)) is float for s in expected for f in fields)
        assert [[csv_text(v) for v in getattr(got, f)] for f in fields] == \
            [[csv_text(getattr(s, f)) for s in expected] for f in fields]
        for bad in (-1e-300, math.nan):
            with pytest.raises(ValueError, match="t must be >= 0"):
                evolve(np.array([*times, bad]))

    @given(point=points, state=bloch_states,
           times=st.lists(st.floats(0.0, 50.0), max_size=4))
    @settings(max_examples=60, deadline=None)
    def test_free_evolution_array_equals_scalar(self, point, state, times):
        rates = point.rates()
        self.assert_trajectory_matches_scalar(
            lambda t: free_evolution(state, rates, t), _edge_times(1.0) + times)

    @given(point=points, state=bloch_states,
           times=st.lists(st.floats(0.0, 50.0), max_size=4))
    @example(point=ROUNDED_CRITICAL, state=BlochVector(0.1, -0.2, 0.3),
             times=[])
    @settings(max_examples=100, deadline=None)
    def test_driven_evolution_array_equals_scalar(self, point, state, times):
        rates, omega, phi = point.rates(), point.omega, point.phi
        triple = damping_triple(rates, phi)
        # |q|: half the eigenvalue splitting of the (Sy, Sz) block, 0 up to
        # rounding at the critical drive.
        q = math.sqrt(abs(0.25 * (triple.gamma_z - triple.gamma_y) ** 2
                          - omega * omega))
        self.assert_trajectory_matches_scalar(
            lambda t: driven_evolution(state, rates, omega, phi, t),
            _edge_times(q) + times)

    @given(n=st.one_of(st.just(0.0), st.floats(0.0, 100.0)),
           squeeze=st.floats(0.0, 1.0),
           gamma=st.one_of(st.just(0.0), st.floats(0.0, 5.0)),
           state=bloch_states,
           times=st.lists(st.floats(0.0, 50.0), max_size=4))
    @settings(max_examples=60, deadline=None)
    def test_external_decay_array_equals_scalar(self, n, squeeze, gamma, state,
                                                times):
        m = squeeze * math.sqrt(n * (n + 1.0))
        self.assert_trajectory_matches_scalar(
            lambda t: external_squeezed_decay(state, n, m, gamma, t),
            _edge_times(1.0) + times)

    def test_undriven_locked_pair(self):
        # Omega = 0 and gamma_y = 0: <Sy> is conserved and broadcasts.
        rates = reservoir_rates(1.0, 1.0, 0.5)
        s0 = BlochVector(0.1, -0.3, 0.2)
        out = driven_evolution(s0, rates, 0.0, 0.0, np.linspace(0.0, 5.0, 4))
        assert out.sy.tolist() == [-0.3] * 4
        self.assert_trajectory_matches_scalar(
            lambda t: driven_evolution(s0, rates, 0.0, 0.0, t), [0.0, 1e-7, 3.0])


class TestDrivenEvolution:
    RATES = reservoir_rates(2.0, 1.0, 0.3)

    def test_time_zero_identity(self):
        s0 = BlochVector(0.1, -0.2, 0.3)
        assert driven_evolution(s0, self.RATES, 2.5, 0.0, 0.0) == s0

    @given(point=resolved_points, state=bloch_states)
    @example(point=Point(2.0, 1.0, 0.3, 0.0, 2.5, 0.0, 0.0),
             state=BlochVector(0.1, -0.2, 0.3))
    @settings(max_examples=300, deadline=None)
    def test_long_time_reaches_steady_state(self, point, state):
        rates, omega, phi = point.rates(), point.omega, point.phi
        triple = damping_triple(rates, phi)
        # Omega = 0 with a vanishing gamma_y leaves <Sy> undamped.
        assume(omega > 0 or triple.gamma_y > RATE_FLOOR * triple.gamma_z)
        block = -np.linalg.eigvals([[-triple.gamma_y, -omega],
                                    [omega, -triple.gamma_z]]).real
        slowest = min(r for r in (triple.gamma_x, *block) if r > 0)
        late = driven_evolution(state, rates, omega, phi, 50.0 / slowest)
        steady = driven_steady_state(rates, omega, phi, sx0=state.sx)
        assert np.allclose(late.as_array(), steady.as_array(), atol=1e-12)

    def test_midtime_against_oracle(self):
        s0 = BlochVector(0.1, -0.2, 0.3)
        lv = oracle.build_liouvillian(self.RATES, omega=2.5, laser_on=True)
        ts = np.linspace(0.0, 4.0, 17)
        traj = oracle.propagate(oracle.bloch_to_rho(s0), lv, ts)
        for t, rho in zip(ts, traj):
            ana = driven_evolution(s0, self.RATES, 2.5, 0.0, t).as_array()
            num = oracle.rho_to_bloch(rho).as_array()
            assert np.abs(ana - num).max() < 1e-8

    def test_critically_damped_block(self):
        # Omega = |gamma_z - gamma_y|/2 makes the (sy, sz) block defective;
        # the closed form must stay finite and match the oracle.
        rates = reservoir_rates(1.0, 2.0, 0.0)
        triple = damping_triple(rates, 0.0)
        omega = 0.5 * (triple.gamma_z - triple.gamma_y)
        s0 = BlochVector(0.0, 0.3, -0.3)
        lv = oracle.build_liouvillian(rates, omega=omega, laser_on=True)
        ts = np.linspace(0.0, 3.0, 7)
        traj = oracle.propagate(oracle.bloch_to_rho(s0), lv, ts)
        for t, rho in zip(ts, traj):
            ana = driven_evolution(s0, rates, omega, 0.0, t).as_array()
            num = oracle.rho_to_bloch(rho).as_array()
            assert np.abs(ana - num).max() < 1e-8

    def test_coherence_locked_trajectory(self):
        s0 = BlochVector(0.35, 0.1, -0.2)
        for t in np.linspace(0.0, 10.0, 11):
            state = driven_evolution(s0, LOCKED, 20.0, HALF_PI, t)
            assert state.sx == s0.sx  # exactly locked, not merely slow

    @given(state=bloch_states, pair=gamma_pairs, nbar=nbars, omega=omegas,
           t=st.floats(0.0, 50.0))
    @settings(max_examples=300, deadline=None)
    def test_bloch_sphere_containment(self, state, pair, nbar, omega, t):
        for phi in (0.0, HALF_PI):
            rates = reservoir_rates(*pair, nbar, phi, phi)
            out = driven_evolution(state, rates, omega, phi, t)
            norm2 = out.sx**2 + out.sy**2 + out.sz**2
            assert norm2 <= 0.25 + 1e-12


def _decimal_expm2(a, t):
    """exp(A t) of the row-major 2x2 float matrix ``a`` in 80-digit decimal
    arithmetic: the Taylor series of A t halved until its entries are below
    1e-3, squared back."""
    def product(p, r):
        return [p[0] * r[0] + p[1] * r[2], p[0] * r[1] + p[1] * r[3],
                p[2] * r[0] + p[3] * r[2], p[2] * r[1] + p[3] * r[3]]

    with decimal.localcontext(decimal.Context(prec=80)):
        m = [decimal.Decimal(x) * decimal.Decimal(t) for x in a]
        halvings = 0
        while max(map(abs, m)) > decimal.Decimal("1e-3"):
            m, halvings = [x / 2 for x in m], halvings + 1
        term = total = [1, 0, 0, 1]
        for k in range(1, 30):  # the omitted terms are below 1e-90
            term = [x / k for x in product(term, m)]
            total = [x + y for x, y in zip(total, term)]
        for _ in range(halvings):
            total = product(total, total)
        return [float(x) for x in total]


class TestExpm2:
    @given(t=st.floats(0.5, 2.0), gy_t=st.floats(0.0, 1.0),
           half_split_t=st.floats(0.0, 1.0),
           qt=st.floats(-4.0, -1.0).map(lambda e: 10.0**e),
           overdamped=st.booleans())
    @settings(max_examples=200, deadline=None)
    def test_near_the_critical_drive_within_four_ulps(
            self, t, gy_t, half_split_t, qt, overdamped):
        # The (Sy, Sz) block at a drive Omega near (gamma_z - gamma_y)/2,
        # where |q t| = qt straddles the series switch at 1e-3, on either
        # side of the critical drive: q is real below it, imaginary above.
        # Moved to 1e-1, the series misses (q t)^6/5040, up to 2e-10.
        assume(not overdamped or half_split_t >= qt)
        gy, gz = gy_t / t, (gy_t + 2.0 * half_split_t) / t
        omega = math.sqrt(half_split_t**2 + (-qt if overdamped else qt)
                          * qt) / t
        a = (-gy, -omega, omega, -gz)
        got = [float(e[0]) for e in _expm2(*a, np.array([t]))]
        for value, exact in zip(got, _decimal_expm2(a, t)):
            assert abs(value - exact) <= 4 * 2.0**-52 * max(1.0, abs(exact))


class TestDressedPopulations:
    @pytest.mark.parametrize("sx,expected", [
        (0.5, (1.0, 0.0)),
        (0.0, (0.5, 0.5)),
        (-0.5, (0.0, 1.0)),
    ])
    def test_polarization_map(self, sx, expected):
        plus, minus = dressed_populations(BlochVector(sx, 0.0, 0.0))
        assert (plus, minus) == pytest.approx(expected)
        assert plus + minus == pytest.approx(1.0)


class TestExternalSqueezedDecay:
    def test_plain_vacuum_limit(self):
        s0 = BlochVector(0.3, 0.2, 0.2)
        gamma, t = 1.7, 0.9
        out = external_squeezed_decay(s0, 0.0, 0.0, gamma, t)
        assert out.sx == pytest.approx(s0.sx * math.exp(-gamma * t / 2.0), rel=1e-12)
        assert out.sy == pytest.approx(s0.sy * math.exp(-gamma * t / 2.0), rel=1e-12)
        late = external_squeezed_decay(s0, 0.0, 0.0, gamma, 100.0)
        assert late.sz == pytest.approx(-0.5, abs=1e-12)

    def test_maximally_squeezed_locks_slow_quadrature(self):
        # For |M| = sqrt(N(N+1)), the slow rate gamma*(1/2+N-|M|) -> 0 as N grows.
        s0 = BlochVector(0.0, 0.4, 0.0)
        for n in (10.0, 100.0, 1000.0):
            m = math.sqrt(n * (n + 1.0))
            rate = 0.5 + n - m
            out = external_squeezed_decay(s0, n, m, 1.0, 1.0)
            assert out.sy == pytest.approx(s0.sy * math.exp(-rate), rel=1e-12)
            assert rate < 1.0 / (8.0 * n) * 1.01

    def test_finite_n_steady_inversion_against_oracle(self):
        # (N=1, |M|=sqrt(2), gamma) is realized by the engineered reservoir
        # at gamma1=gamma/2, gamma2=gamma, nbar=0; its steady <Sz> is -1/6.
        gamma = 1.0
        rates = reservoir_rates(0.5 * gamma, gamma, 0.0)
        assert rates.gamma_s - rates.gamma_n == pytest.approx(gamma / 2.0)
        assert rates.gamma_n == pytest.approx(gamma / 2.0)          # = gamma*N/2
        assert rates.gamma_m == pytest.approx(gamma * math.sqrt(2.0) / 2.0)
        rho_ss = oracle.stationary_state(oracle.build_liouvillian(rates),
                                         np.eye(2) / 2)
        assert oracle.rho_to_bloch(rho_ss).sz == pytest.approx(-1.0 / 6.0, abs=1e-12)

        out = external_squeezed_decay(BlochVector(0.2, 0.1, 0.3),
                                      1.0, math.sqrt(2.0), gamma, 200.0)
        assert out.sz == pytest.approx(-1.0 / 6.0, abs=1e-12)

    def test_trajectory_matches_engineered_equivalent(self):
        s0 = BlochVector(0.2, 0.1, 0.3)
        gamma = 1.3
        rates = reservoir_rates(0.5 * gamma, gamma, 0.0)
        lv = oracle.build_liouvillian(rates)
        ts = np.linspace(0.0, 5.0, 11)
        traj = oracle.propagate(oracle.bloch_to_rho(s0), lv, ts)
        for t, rho in zip(ts, traj):
            ana = external_squeezed_decay(s0, 1.0, math.sqrt(2.0), gamma, t)
            num = oracle.rho_to_bloch(rho)
            assert np.abs(ana.as_array() - num.as_array()).max() < 1e-8

    def test_rejects_unphysical_correlation(self):
        with pytest.raises(ValueError, match="physical range"):
            external_squeezed_decay(BlochVector(0, 0, 0), 1.0, 1.5, 1.0, 1.0)
