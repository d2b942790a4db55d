"""Every range of a library argument is checked by ``reservoir._check_rule``:
a value inside it passes, the last value outside it (one ulp past the
bound) and NaN raise ``"<name> must be <rule>, got <value>"``, and an
array argument names its first failing element."""

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
from sps.reservoir import figure3_dataset, quantum_threshold, reservoir_rates
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
                        incoherent=np.zeros(5), zero_width_weight=0.2)

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
        "omega", "> 0", lambda v: strong_field_spectrum(RATES, v, 0.0)),
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
    "driven_steady_state-omega": (
        "omega", ">= 0", lambda v: driven_steady_state(RATES, v, 0.0)),
    "spectral_density-omega": (
        "omega", ">= 0", lambda v: spectral_density(v, BATH)),
    "_ratio_grid_table-ratio": (
        "ratio", "> 1", lambda v: figure3_dataset([0.5], v)),
}
CHECKS = SCALAR_CHECKS | ARRAY_CHECKS

_RELATIONS = {">=": operator.ge, ">": operator.gt}


def _meets(rule, value):
    relation, bound = rule.split()
    return _RELATIONS[relation](value, float(bound))


def _edge(rule):
    """The first value inside ``rule`` and the last one outside it."""
    relation, bound = rule.split()
    inside = float(bound) if relation == ">=" else math.nextafter(
        float(bound), math.inf)
    return inside, math.nextafter(inside, -math.inf)


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
    inside, outside = _edge(rule)
    for good in (inside, sys.float_info.max):
        assert _range_error(name, call, good) is None
    for bad in (outside, math.nan):
        assert _range_error(name, call, bad) == \
            f"{name} must be {rule}, got {bad}"


@pytest.mark.parametrize("check", CHECKS.values(), ids=CHECKS.keys())
@given(value=st.floats())
@settings(max_examples=40, deadline=None)
def test_fails_exactly_outside_the_rule(check, value):
    name, rule, call = check
    expected = None if _meets(rule, value) else \
        f"{name} must be {rule}, got {value}"
    assert _range_error(name, call, value) == expected


@pytest.mark.parametrize("check", ARRAY_CHECKS.values(),
                         ids=ARRAY_CHECKS.keys())
@given(values=st.lists(st.floats(), min_size=1, max_size=6))
@settings(max_examples=40, deadline=None)
def test_array_names_its_first_failing_element(check, values):
    name, rule, call = check
    failing = [v for v in values if not _meets(rule, v)]
    expected = f"{name} must be {rule}, got {failing[0]}" if failing else None
    assert _range_error(name, call, np.array(values)) == expected
