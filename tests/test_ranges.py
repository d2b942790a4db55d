"""Every range of a library argument is checked by ``reservoir._check_rule``:
a value inside it passes, the last value outside each clause (one ulp past
its bound) and NaN raise ``"<name> must be <clause>, got <value>"`` for the
first clause they fail, and an array argument names its first element
failing that clause."""

import math
import operator
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sps.bloch import (
    BlochVector,
    DampingTriple,
    driven_steady_state,
    external_squeezed_decay,
    free_evolution,
)
from sps.physparams import PhononBathSpec, spectral_density, thermal_occupation
from sps.reservoir import _BOUNDED, _NBAR_RULE, figure3_dataset, \
    quantum_threshold, reservoir_rates
from sps.spectrum import (
    SpectrumResult,
    default_omega_grid,
    rendered_incoherent,
    strong_field_spectrum,
)

RATES = reservoir_rates(1.0, 2.0, 0.5)
STATE = BlochVector(0.1, 0.2, -0.3)
BATH = PhononBathSpec(alpha=0.03, omega_c=2.0, temperature=4.0)
LOCKED = SpectrumResult(coherent_weight=0.0, omega_grid=np.linspace(-1, 1, 5),
                        incoherent=np.zeros(5), fluctuation_total=0.2,
                        zero_width_weight=0.2)

#: (name, rule, call of the library with that one argument varied); the
#: other arguments are valid.
SCALAR_CHECKS = {
    "thermal_occupation-omega": (
        "omega", "> 0", lambda v: thermal_occupation(v, 4.0)),
    "thermal_occupation-temperature": (
        "temperature", ">= 0", lambda v: thermal_occupation(1.0, v)),
    "quantum_threshold-gamma1": (
        "gamma1", ">= 0", lambda v: quantum_threshold(v, 2.0)),
    "quantum_threshold-gamma2": (
        "gamma2", ">= 0", lambda v: quantum_threshold(1.0, v)),
    "external_squeezed_decay-n_photons": (
        "n_photons", ">= 0",
        lambda v: external_squeezed_decay(STATE, v, 0.0, 1.0, 1.0)),
    "external_squeezed_decay-gamma": (
        "gamma", ">= 0",
        lambda v: external_squeezed_decay(STATE, 0.5, 0.0, v, 1.0)),
    "default_omega_grid-omega": ("omega", "> 0", default_omega_grid),
    "rendered_incoherent-width": (
        "width", "> 0", lambda v: rendered_incoherent(LOCKED, v)),
    "strong_field_spectrum-omega": (
        "omega", "> 0", lambda v: strong_field_spectrum(
            RATES, v, 0.0, omega_grid=LOCKED.omega_grid)),
}
#: The checks whose argument may be an array.
ARRAY_CHECKS = {
    "bloch._times-t": ("t", ">= 0", lambda v: free_evolution(STATE, RATES, v)),
    "DampingTriple-gamma_x": (
        "gamma_x", ">= 0", lambda v: DampingTriple(v, 1.0, 1.0, 0.0)),
    "DampingTriple-gamma_y": (
        "gamma_y", ">= 0", lambda v: DampingTriple(1.0, v, 1.0, 0.0)),
    "DampingTriple-gamma_z": (
        "gamma_z", ">= 0", lambda v: DampingTriple(1.0, 1.0, v, 0.0)),
    "reservoir_rates-nbar": (
        "nbar", _NBAR_RULE, lambda v: reservoir_rates(0.0, 0.0, v)),
    "reservoir_rates-gamma_rad": (
        "gamma_rad", _BOUNDED,
        lambda v: reservoir_rates(1.0, 2.0, 0.5, gamma_rad=v)),
    "driven_steady_state-omega": (
        "omega", ">= 0", lambda v: driven_steady_state(RATES, v, 0.0)),
    "spectral_density-omega": (
        "omega", ">= 0", lambda v: spectral_density(v, BATH)),
    "_ratio_grid_table-ratio": (
        "ratio", "> 1", lambda v: figure3_dataset([0.5], v)),
}
CHECKS = SCALAR_CHECKS | ARRAY_CHECKS

_RELATIONS = {">=": operator.ge, ">": operator.gt, "<": operator.lt}


def _failed_clause(rule, values):
    """The first clause of ``rule`` that one of ``values`` fails, and the
    first value failing it; None if every value meets every clause."""
    for clause in rule.split(" and "):
        relation, bound = clause.split()
        failing = [v for v in values
                   if not _RELATIONS[relation](v, float(bound))]
        if failing:
            return clause, failing[0]
    return None


def _edges(rule):
    """Each clause of ``rule`` with the value inside it nearest its bound
    and the value one ulp past that, outside it."""
    for clause in rule.split(" and "):
        relation, bound = clause.split()
        inside = float(bound) if relation == ">=" else math.nextafter(
            float(bound), -math.inf if relation == "<" else math.inf)
        yield clause, inside, math.nextafter(
            inside, math.inf if relation == "<" else -math.inf)


def _expected(name, rule, values):
    """The error a call with ``values`` (its array, or its one value) must
    raise, or None."""
    failed = _failed_clause(rule, values)
    return failed and f"{name} must be {failed[0]}, got {failed[1]}"


def _range_error(name, call, value):
    """The range error ``call(value)`` raises for ``name``, or None.  Other
    errors of an extreme but admitted value (an unphysical result, say) are
    not the check's and count as passing; warnings are ignored."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        try:
            call(value)
        except ValueError as error:
            if str(error).startswith(f"{name} must be "):
                return str(error)
    return None


@pytest.mark.parametrize("check", CHECKS.values(), ids=CHECKS.keys())
def test_bound_passes_one_ulp_outside_and_nan_fail(check):
    name, rule, call = check
    for clause, inside, outside in _edges(rule):
        assert _range_error(name, call, inside) is None
        assert _range_error(name, call, outside) == \
            f"{name} must be {clause}, got {outside}"
    first = rule.split(" and ")[0]
    assert _range_error(name, call, math.nan) == \
        f"{name} must be {first}, got nan"
    if _failed_clause(rule, [sys.float_info.max]) is None:
        assert _range_error(name, call, sys.float_info.max) is None


@pytest.mark.parametrize("check", CHECKS.values(), ids=CHECKS.keys())
@given(value=st.floats())
@settings(max_examples=40, deadline=None)
def test_fails_exactly_outside_the_rule(check, value):
    name, rule, call = check
    assert _range_error(name, call, value) == _expected(name, rule, [value])


@pytest.mark.parametrize("check", ARRAY_CHECKS.values(),
                         ids=ARRAY_CHECKS.keys())
@given(values=st.lists(st.floats(), min_size=1, max_size=6))
@settings(max_examples=40, deadline=None)
def test_array_names_its_first_failing_element(check, values):
    name, rule, call = check
    assert _range_error(name, call, np.array(values)) == \
        _expected(name, rule, values)
