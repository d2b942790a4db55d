"""Bath-parameter layer: Bose factor, spectral density, displacement factor,
drive-induced rates."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sps import physparams
from sps.physparams import (
    HBAR_OVER_KB,
    DriveConfig,
    PhononBathSpec,
    QuadratureError,
    _displacement_exponent,
    displacement_factor,
    phonon_rates,
    spectral_density,
    thermal_occupation,
)

BATH_REF = dict(alpha=2.535e-7, omega_c=1500.0)


class TestThermalOccupation:
    def test_zero_temperature(self):
        assert thermal_occupation(490.0, 0.0) == 0.0

    def test_exponent_ln3_gives_half(self):
        # exp(x) = 3 forces 1/(exp(x)-1) = 1/2; pick T so that x = ln 3.
        omega = 490.0
        temp = HBAR_OVER_KB * omega / math.log(3.0)
        assert thermal_occupation(omega, temp) == pytest.approx(0.5, abs=1e-14)

    def test_reference_point_frozen(self):
        # Direct Bose-factor evaluation at 490 GHz / 2.35 K with CODATA
        # constants; notably NOT 0.5, which the bath presets pin by hand.
        value = thermal_occupation(490.0, 2.35)
        assert value == pytest.approx(0.2553121119685684, abs=1e-15)
        assert abs(value - 0.5) > 0.2

    def test_rejects_nonpositive_omega(self):
        with pytest.raises(ValueError):
            thermal_occupation(0.0, 1.0)
        with pytest.raises(ValueError):
            thermal_occupation(-2.0, 1.0)

    @given(omega=st.floats(1.0, 5000.0), t1=st.floats(0.1, 50.0),
           scale=st.floats(1.1, 10.0))
    @settings(max_examples=200, deadline=None)
    def test_monotone_increasing_in_temperature(self, omega, t1, scale):
        assert thermal_occupation(omega, t1 * scale) > thermal_occupation(omega, t1)

    @given(omega=st.floats(1.0, 5000.0), temp=st.floats(0.1, 50.0),
           scale=st.floats(1.1, 10.0))
    @settings(max_examples=200, deadline=None)
    def test_monotone_decreasing_in_omega(self, omega, temp, scale):
        assert thermal_occupation(omega * scale, temp) < thermal_occupation(omega, temp)


class TestSpectralDensity:
    def test_zero_at_zero(self):
        bath = PhononBathSpec(**BATH_REF, temperature=0.0)
        assert spectral_density(0.0, bath) == 0.0

    def test_value_at_cutoff(self):
        bath = PhononBathSpec(alpha=1.0, omega_c=1500.0, temperature=0.0)
        assert spectral_density(1500.0, bath) == pytest.approx(
            1500.0**3 / math.e, rel=1e-15)

    def test_argmax_by_golden_section(self):
        # Independent golden-section search for the maximum of J.
        bath = PhononBathSpec(**BATH_REF, temperature=0.0)
        lo, hi = 0.0, 8.0 * bath.omega_c
        invphi = (math.sqrt(5.0) - 1.0) / 2.0
        a, b = lo, hi
        c, d = b - invphi * (b - a), a + invphi * (b - a)
        for _ in range(200):
            if spectral_density(c, bath) > spectral_density(d, bath):
                b, d = d, c
                c = b - invphi * (b - a)
            else:
                a, c = c, d
                d = a + invphi * (b - a)
        argmax = 0.5 * (a + b)
        # sqrt(eps) limits derivative-free max location on a flat quadratic top
        assert argmax == pytest.approx(bath.omega_c * math.sqrt(1.5), rel=1e-6)

    def test_rejects_negative_omega(self):
        bath = PhononBathSpec(**BATH_REF, temperature=0.0)
        with pytest.raises(ValueError):
            spectral_density(-1.0, bath)


class TestDisplacementFactor:
    def test_no_coupling_limit(self):
        bath = PhononBathSpec(alpha=0.0, omega_c=1500.0, temperature=0.0)
        assert displacement_factor(bath) == 1.0

    def test_zero_temperature_against_two_oracles(self):
        # Oracle 1: closed form; the T = 0 exponent is alpha*omega_c^2/4.
        # Oracle 2: 200-node Gauss-Legendre, independent of adaptive quad.
        bath = PhononBathSpec(**BATH_REF, temperature=0.0)
        value = displacement_factor(bath)
        closed = math.exp(-bath.alpha * bath.omega_c**2 / 4.0)
        assert value == pytest.approx(closed, abs=1e-12)

        nodes, weights = np.polynomial.legendre.leggauss(200)
        upper = 8.0 * bath.omega_c
        x = 0.5 * upper * (nodes + 1.0)
        integrand = bath.alpha * x * np.exp(-((x / bath.omega_c) ** 2))
        integral = 0.5 * upper * float(weights @ integrand)
        assert value == pytest.approx(math.exp(-0.5 * integral), abs=1e-10)

    def test_finite_temperature_smaller_than_t0(self):
        cold = PhononBathSpec(**BATH_REF, temperature=0.0)
        warm = PhononBathSpec(**BATH_REF, temperature=2.35)
        assert displacement_factor(warm) < displacement_factor(cold)

    def test_finite_temperature_against_gauss_legendre(self):
        bath = PhononBathSpec(**BATH_REF, temperature=2.35)
        nodes, weights = np.polynomial.legendre.leggauss(400)
        upper = 8.0 * bath.omega_c
        x = 0.5 * upper * (nodes + 1.0)
        occ = 1.0 / np.expm1(HBAR_OVER_KB * x / bath.temperature)
        integrand = bath.alpha * x * np.exp(-((x / bath.omega_c) ** 2)) * (2 * occ + 1)
        integral = 0.5 * upper * float(weights @ integrand)
        assert displacement_factor(bath) == pytest.approx(
            math.exp(-0.5 * integral), abs=1e-10)

    def test_nbar_override_branch(self):
        # Constant occupation scales the T = 0 exponent by (2 nbar + 1).
        bath = PhononBathSpec(**BATH_REF, nbar_override=0.5)
        closed = math.exp(-2.0 * BATH_REF["alpha"] * BATH_REF["omega_c"] ** 2 / 4.0)
        assert displacement_factor(bath) == pytest.approx(closed, abs=1e-12)

    @given(scale=st.floats(1.5, 20.0))
    @settings(max_examples=50, deadline=None)
    def test_monotone_decreasing_in_alpha(self, scale):
        weak = PhononBathSpec(**BATH_REF, temperature=1.0)
        strong = PhononBathSpec(alpha=BATH_REF["alpha"] * scale,
                                omega_c=BATH_REF["omega_c"], temperature=1.0)
        assert displacement_factor(strong) < displacement_factor(weak)


def _reference_exponent(bath):
    """The displacement exponent by scipy's adaptive quad, split at
    kB*T/hbar * {1, 10, 100} so that no thermal feature hides between its
    first samples; independent of the closed form and of Gauss-Legendre."""
    from scipy.integrate import quad

    alpha, wc, upper = bath.alpha, bath.omega_c, 8.0 * bath.omega_c
    pinned = 2.0 * (bath.nbar_override or 0.0) + 1.0
    scale = (bath.temperature or 0.0) / HBAR_OVER_KB  # 0 when pinned or T = 0
    points = [p * scale for p in (1.0, 10.0, 100.0) if 0.0 < p * scale < upper]

    def integrand(w):  # quad samples only interior points, never w = 0
        x = w / scale if scale else math.inf
        occupation = 0.0 if x > 700.0 else 1.0 / math.expm1(x)
        return alpha * w * math.exp(-((w / wc) ** 2)) * (2.0 * occupation + pinned)

    integral, _ = quad(integrand, 0.0, upper, points=points or None,
                       epsabs=0.0, epsrel=1e-13, limit=400)
    return integral


LOG_TEMPERATURE = st.floats(-3.0, 3.0).map(lambda e: 10.0**e)


class TestDisplacementExponent:
    def test_low_temperature_thermal_part(self):
        # Sommerfeld limit: kB*T/hbar = 0.131 GHz << omega_c, so the thermal
        # excess is alpha*(pi^2/3)*(kB*T/hbar)^2, 5e-8 of the exponent; a rule
        # whose samples do not follow kB*T/hbar misses it.
        bath = PhononBathSpec(**BATH_REF, temperature=1e-3)
        scale = bath.temperature / HBAR_OVER_KB
        expected = (bath.alpha * bath.omega_c**2 / 2.0
                    + bath.alpha * math.pi**2 / 3.0 * scale**2)
        assert -2.0 * math.log(displacement_factor(bath)) == pytest.approx(
            expected, rel=1e-12, abs=0.0)

    @given(alpha=st.one_of(st.just(0.0), st.floats(1e-9, 1e-3)),
           omega_c=st.floats(1.0, 4.0).map(lambda e: 10.0**e),
           occupation=st.one_of(
               st.builds(lambda t: {"temperature": t},
                         st.one_of(st.just(0.0), LOG_TEMPERATURE)),
               st.builds(lambda n: {"nbar_override": n}, st.floats(0.0, 10.0))))
    @settings(max_examples=150, deadline=None)
    def test_matches_split_adaptive_quad(self, alpha, omega_c, occupation):
        bath = PhononBathSpec(alpha=alpha, omega_c=omega_c, **occupation)
        reference = _reference_exponent(bath)
        assert _displacement_exponent(bath) == pytest.approx(
            reference, rel=1e-12, abs=0.0)

    def test_disagreeing_orders_raise(self, monkeypatch):
        # One 2- and one 3-node panel cannot resolve the Bose factor.
        monkeypatch.setattr(physparams, "QUAD_PANELS", 1)
        monkeypatch.setattr(physparams, "QUAD_ORDERS", (2, 3))
        bath = PhononBathSpec(**BATH_REF, temperature=300.0)
        with pytest.raises(QuadratureError, match="did not converge"):
            displacement_factor(bath)
        # The same rule passes a loose enough tolerance, read at call time.
        monkeypatch.setattr(physparams, "QUAD_RTOL", 1.0)
        assert 0.0 < displacement_factor(bath) < 1.0


class TestBathSpecValidation:
    def test_occupation_source_exclusive(self):
        with pytest.raises(ValueError):
            PhononBathSpec(alpha=1e-7, omega_c=1500.0,
                           temperature=2.0, nbar_override=0.5)
        with pytest.raises(ValueError):
            PhononBathSpec(alpha=1e-7, omega_c=1500.0)

    def test_occupation_dispatch(self):
        pinned = PhononBathSpec(**BATH_REF, nbar_override=0.5)
        thermal = PhononBathSpec(**BATH_REF, temperature=2.35)
        assert pinned.occupation(490.0) == 0.5
        assert thermal.occupation(490.0) == thermal_occupation(490.0, 2.35)


class TestPhononRate:
    DRIVE = DriveConfig(omega1_rabi=70.0, omega2_rabi=70.0, detuning=490.0)
    BATH = PhononBathSpec(**BATH_REF, nbar_override=0.5)

    def test_reference_estimate_near_4ghz(self):
        gamma1, gamma2 = phonon_rates(self.DRIVE, self.BATH)
        assert gamma1 == gamma2 == pytest.approx(
            2.0 * math.pi * 70.0**2 * 2.535e-7 * 490.0, rel=1e-15)
        assert abs(gamma1 - 4.0) / 4.0 < 0.05

    def test_zero_drive(self):
        drive = DriveConfig(omega1_rabi=0.0, omega2_rabi=3.0, detuning=490.0)
        gamma1, gamma2 = phonon_rates(drive, self.BATH)
        assert gamma1 == 0.0 and gamma2 > 0.0

    def test_doubling_rabi_quadruples(self):
        drive2 = DriveConfig(omega1_rabi=140.0, omega2_rabi=70.0, detuning=490.0)
        doubled, same = phonon_rates(drive2, self.BATH)
        base = phonon_rates(self.DRIVE, self.BATH)
        assert doubled / base[0] == pytest.approx(4.0, rel=1e-12)
        assert same == base[1]

    @given(omega=st.floats(1.0, 200.0), delta=st.floats(10.0, 2000.0),
           k=st.floats(1.1, 5.0))
    @settings(max_examples=200, deadline=None)
    def test_exact_scaling_laws(self, omega, delta, k):
        d1 = DriveConfig(omega1_rabi=omega, omega2_rabi=omega, detuning=delta)
        dk1 = DriveConfig(omega1_rabi=k * omega, omega2_rabi=omega, detuning=delta)
        dk2 = DriveConfig(omega1_rabi=omega, omega2_rabi=k * omega, detuning=delta)
        dd = DriveConfig(omega1_rabi=omega, omega2_rabi=omega, detuning=k * delta)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # far-detuning advisories
            base1, base2 = phonon_rates(d1, self.BATH)
            assert phonon_rates(dk1, self.BATH) == pytest.approx(
                (k**2 * base1, base2), rel=1e-12)
            assert phonon_rates(dk2, self.BATH) == pytest.approx(
                (base1, k**2 * base2), rel=1e-12)
            assert phonon_rates(dd, self.BATH) == pytest.approx(
                (k * base1, k * base2), rel=1e-12)

    def test_include_b_renormalization(self):
        drive = DriveConfig(omega1_rabi=70.0, omega2_rabi=35.0, detuning=490.0)
        bare = phonon_rates(drive, self.BATH)
        dressed = phonon_rates(drive, self.BATH, include_b=True)
        b = displacement_factor(self.BATH)
        assert dressed == pytest.approx((b**2 * bare[0], b**2 * bare[1]),
                                        rel=1e-12)

    def test_far_detuning_warns(self):
        # One warning for both tones, even where every warning is shown.
        drive = DriveConfig(omega1_rabi=70.0, omega2_rabi=70.0, detuning=30000.0)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            phonon_rates(drive, self.BATH)
        assert [w.category for w in caught] == [UserWarning]
        assert "outside the support" in str(caught[0].message)


class TestDriveConfig:
    def test_phase_reduction(self):
        drive = DriveConfig(omega1_rabi=1.0, omega2_rabi=1.0,
                            phi1=3.0 * math.pi, phi2=0.5 * math.pi,
                            detuning=100.0)
        assert drive.phi == pytest.approx(0.75 * math.pi)

    def test_rejects_nonpositive_detuning(self):
        with pytest.raises(ValueError):
            DriveConfig(omega1_rabi=1.0, omega2_rabi=1.0, detuning=0.0)
