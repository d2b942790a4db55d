"""Squeezed-phonon-reservoir simulator for a bichromatically driven quantum dot.

A two-level dot driven by two laser tones at detunings +-Delta sees its
acoustic phonon bath as an effective squeezed reservoir whose properties
are set by the drive.  The package computes the effective reservoir rates
from physical bath/drive parameters, classifies the squeezing regime, and
provides closed-form Bloch dynamics, steady states, dressed-state
populations, and the resonance-fluorescence spectrum, each cross-validated
against a built-in brute-force Lindblad solver.
"""

from .physparams import (
    HBAR_OVER_KB,
    DriveConfig,
    PhononBathSpec,
    displacement_factor,
    phonon_rates,
    spectral_density,
    thermal_occupation,
)
from .reservoir import (
    REGIME_INVERTED,
    REGIME_ORDINARY,
    REGIME_PERFECT,
    ReservoirRates,
    SqueezingDescriptor,
    figure3_dataset,
    figure4_dataset,
    map_to_squeezing,
    quantum_threshold,
    reservoir_rates,
)
from .bloch import (
    BlochVector,
    DampingTriple,
    damping_triple,
    dressed_populations,
    driven_evolution,
    driven_steady_state,
    external_squeezed_decay,
    free_evolution,
    free_steady_inversion,
    quadrature,
)
from .spectrum import (
    SpectrumResult,
    exact_incoherent_spectrum,
    figure5_dataset,
    pole_decomposition,
    rendered_incoherent,
    strong_field_spectrum,
    sum_rule,
)
from . import oracle

__version__ = "0.1.0"

__all__ = [
    "HBAR_OVER_KB",
    "DriveConfig",
    "PhononBathSpec",
    "displacement_factor",
    "phonon_rates",
    "spectral_density",
    "thermal_occupation",
    "REGIME_INVERTED",
    "REGIME_ORDINARY",
    "REGIME_PERFECT",
    "ReservoirRates",
    "SqueezingDescriptor",
    "figure3_dataset",
    "figure4_dataset",
    "map_to_squeezing",
    "quantum_threshold",
    "reservoir_rates",
    "BlochVector",
    "DampingTriple",
    "damping_triple",
    "dressed_populations",
    "driven_evolution",
    "driven_steady_state",
    "external_squeezed_decay",
    "free_evolution",
    "free_steady_inversion",
    "quadrature",
    "SpectrumResult",
    "exact_incoherent_spectrum",
    "figure5_dataset",
    "pole_decomposition",
    "rendered_incoherent",
    "strong_field_spectrum",
    "sum_rule",
    "oracle",
]
