"""The property-test domain: every draw is an argument the library admits."""

import dataclasses

from hypothesis import example, given, settings
from hypothesis import strategies as st

from sps.bloch import SPHERE_TOL, BlochVector, _check_phi_choice
from sps.reservoir import ReservoirRates, _check_rule

from domain import ROUNDED_CRITICAL, bloch_states, drives, floor_band_pairs, \
    gamma_pairs, near_perfect_ratios, oracle_points, points, resolved_points, \
    unequal_pairs

RULES = {f.name: f.metadata.get("rule")
         for f in dataclasses.fields(ReservoirRates)}


@given(point=st.one_of(points, resolved_points, oracle_points),
       pair=st.one_of(gamma_pairs, unequal_pairs, floor_band_pairs),
       drive=drives, ratio=near_perfect_ratios, state=bloch_states)
@example(point=ROUNDED_CRITICAL, pair=(1.0, 1.0), drive=0.01, ratio=1.001,
         state=BlochVector(0.5, 0.0, 0.0))
@settings(max_examples=100, deadline=None)
def test_every_draw_meets_the_declared_rules(point, pair, drive, ratio, state):
    for name, value in zip(("gamma1", "gamma2", "nbar", "gamma_rad"), point):
        _check_rule(name, RULES[name], value)
    point.rates()  # and every derived ReservoirRates field
    for name, value in zip(("gamma1", "gamma2"), pair):
        _check_rule(name, RULES[name], value)
    _check_rule("omega", ">= 0", point.omega)
    _check_rule("omega", "> 0", drive)   # a resonant drive, as spectra need
    _check_rule("ratio", "> 1", ratio)   # the ratio rule of fig3/fig4
    assert _check_phi_choice(point.phi) == point.phi
    assert point.sx0**2 <= 0.25
    assert state.sx**2 + state.sy**2 + state.sz**2 <= 0.25 + SPHERE_TOL
