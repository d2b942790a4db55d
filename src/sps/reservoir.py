"""Engineered-reservoir rates and their squeezed-vacuum description.

The bichromatic drive turns the phonon bath into an effective reservoir for
the dot described by the triple (gamma_s, gamma_n, gamma_m): incoherent
damping, incoherent pumping, and the two-photon correlation strength.  This
module builds the triple from (gamma_1, gamma_2, nbar, phi), classifies the
regime by the sign of gamma_2 - gamma_1, and maps the triple onto the
standard squeezed-field picture (N, |M|) together with the split of N into
maximally squeezed (Ns) and thermal background (Nb) phonons.
"""

from __future__ import annotations

import functools
import math
import operator
import sys
from dataclasses import MISSING, dataclass, field, fields

import numpy as np

REGIME_ORDINARY = "ordinary"   # gamma_2 > gamma_1: net damping
REGIME_INVERTED = "inverted"   # gamma_1 > gamma_2: net pumping
REGIME_PERFECT = "perfect"     # gamma_1 = gamma_2: one quadrature decoherence-free

#: Every engine counts a rate <= RATE_FLOOR*gamma_z (the largest rate) as zero.
RATE_FLOOR = 1e-10


#: Rates, frequencies and times stay below B = sqrt(largest float)/16: the
#: largest product, 4*(gamma_y*gamma_z + Omega**2) ~ 94*B**2 in spectrum's
#: pole_decomposition, stays finite; nbar's bound does so for 4*nbar*(nbar+1).
_BOUND = math.sqrt(sys.float_info.max) / 16.0
_TRIPLE_RULE = f"< {_BOUND!r}"
_NBAR_RULE = f">= 0 and < {math.sqrt(sys.float_info.max) / 2.0!r}"
_BOUNDED = f">= 0 and {_TRIPLE_RULE}"  # a rate, frequency or time given

#: The relations a declared range may use.
_RELATIONS = {">=": operator.ge, ">": operator.gt, "<": operator.lt,
              "<=": operator.le}


def _scalar(value):
    """A 0-d result as a Python scalar; arrays pass through unchanged."""
    return np.asarray(value).item() if np.ndim(value) == 0 else value


def _declare(default=MISSING, rule=None, name=None, section=None):
    """A dataclass field that declares the rule of its value: a range such
    as ``">= 0"`` or ``">= 0 and < 1"``, or a tuple of allowed values.  A
    config key is declared on it too: ``section`` is its config section and
    ``name`` its config name where that differs from the field's; it is
    required where the field has no default, and typed by its annotation."""
    return field(default=default,
                 metadata={"rule": rule, "name": name, "section": section})


def _check_rule(name, rule, value, got=None):
    """Raise ValueError ``"<name> must be <clause>, got <got>"`` at the
    first clause of ``rule`` that ``value`` fails, elementwise (NaN fails
    each); ``got`` is ``value``, or an array's first element failing that
    clause, unless given.  The one range check of every argument and field."""
    if rule is None:
        return
    for clause in [rule] if isinstance(rule, tuple) else rule.split(" and "):
        if isinstance(clause, tuple):
            ok, clause = value in clause, f"one of {clause}"
        else:
            relation, bound = clause.split()
            ok = _RELATIONS[relation](value, float(bound))
        if not np.all(ok):
            if got is None:
                got = _scalar(value[~ok].flat[0] if np.ndim(value) else value)
            raise ValueError(f"{name} must be {clause}, got {got}")


def _check_fields(instance):
    """Check each field of dataclass ``instance`` that is not None against
    the rule declared on it, in declaration order."""
    for f in fields(instance):
        value = getattr(instance, f.name)
        if value is not None:
            _check_rule(f.name, f.metadata.get("rule"), value)


@dataclass(frozen=True)
class ReservoirRates:
    """Effective-reservoir triple plus provenance.

    gamma1, gamma2 (GHz) are the drive-induced rates, nbar the phonon
    occupation, gamma_rad the radiative rate of the dot outside the
    engineered reservoir and phi the squeezing phase in radians, stored
    reduced as (2*phi mod 2*pi)/2.  The triple (GHz) is derived from them:

    gamma_s = gamma1*nbar + gamma2*(nbar+1)
    gamma_n = gamma1*(nbar+1) + gamma2*nbar
    gamma_m = (2*nbar+1)*sqrt(gamma1*gamma2)

    The constructor checks the inputs, then the triple, against their
    declared ranges.
    """

    gamma1: float = _declare(rule=_BOUNDED)
    gamma2: float = _declare(rule=_BOUNDED)
    nbar: float = _declare(rule=_NBAR_RULE)
    gamma_rad: float = _declare(rule=_BOUNDED)
    phi: float = _declare(rule=">= 0")
    gamma_s: float = field(init=False, metadata={"rule": _TRIPLE_RULE})
    gamma_n: float = field(init=False, metadata={"rule": _TRIPLE_RULE})
    gamma_m: float = field(init=False, metadata={"rule": _TRIPLE_RULE})

    def __post_init__(self):
        gamma1, gamma2, nbar = self.gamma1, self.gamma2, self.nbar
        # A negative input fails its range check, an overflow the bound,
        # and a phase that is not finite reduces to NaN, which fails its own.
        with np.errstate(over="ignore", invalid="ignore"):
            derived = dict(phi=np.asarray(2.0 * self.phi) % (2.0 * math.pi) / 2.0,
                           gamma_s=gamma1 * nbar + gamma2 * (nbar + 1.0),
                           gamma_n=gamma1 * (nbar + 1.0) + gamma2 * nbar,
                           gamma_m=(2.0 * nbar + 1.0) * np.sqrt(gamma1 * gamma2))
        for name, value in derived.items():
            object.__setattr__(self, name, _scalar(value))
        _check_fields(self)

    @property
    def is_perfect(self):
        """True when gamma_1 == gamma_2 exactly (elementwise)."""
        return _scalar(np.equal(self.gamma1, self.gamma2))


@dataclass(frozen=True)
class SqueezingDescriptor:
    """Squeezed-field picture of the engineered reservoir.

    ``regime`` is one of the REGIME_* strings; ``gamma_eff`` the effective
    emission rate (gamma or gamma_I); ``n_photons``/``m_abs`` the occupation
    N and correlation |M| (math.inf sentinels in the perfect regime);
    ``n_squeezed``/``n_background`` the split N = Ns + Nb with
    Ns(Ns+1) = |M|**2; ``quantum`` flags |M| > N.
    """

    regime: str
    gamma_eff: float
    n_photons: float
    m_abs: float
    n_squeezed: float
    n_background: float
    quantum: bool


def reservoir_rates(gamma1, gamma2, nbar, phi1=0.0, phi2=0.0, gamma_rad=0.0):
    """Build the reservoir from the two drive-induced rates, at squeezing
    phase phi = (phi1 + phi2)/2; ReservoirRates reduces the phase and
    derives the triple.

    Array arguments broadcast together into array fields; scalar arguments
    give Python floats.  An input out of the range that ReservoirRates
    declares for it raises ValueError.
    """
    gamma1, gamma2, nbar, phi1, phi2, gamma_rad = np.broadcast_arrays(
        *(np.asarray(x, dtype=float)
          for x in (gamma1, gamma2, nbar, phi1, phi2, gamma_rad)))
    with np.errstate(over="ignore"):  # the sum's overflow fails phi's rule
        phi = (phi1 + phi2) / 2.0
    return ReservoirRates(*map(_scalar, (gamma1, gamma2, nbar, gamma_rad, phi)))


def map_to_squeezing(rates):
    """Map the reservoir triple onto (N, |M|, Ns, Nb) with regime bookkeeping.

    Ordinary regime (gamma_2 > gamma_1): gamma/2 = gamma_s - gamma_n,
    N = gamma_n/(gamma_s - gamma_n), |M| = gamma_m/(gamma_s - gamma_n).
    Inverted regime mirrors the mapping under gamma_s <-> gamma_n.  The
    perfect regime (gamma_1 == gamma_2) is the N -> inf limit of a maximally
    correlated field and is reported with inf sentinels (Nb -> 0 there).
    gamma_s - gamma_n is evaluated as gamma_2 - gamma_1, its value without
    cancellation.  Array-valued rates give array fields.
    """
    gamma1, gamma2, nbar, gamma_s, gamma_n, gamma_m = (
        np.asarray(x, dtype=float) for x in (
            rates.gamma1, rates.gamma2, rates.nbar,
            rates.gamma_s, rates.gamma_n, rates.gamma_m))
    perfect = rates.is_perfect
    ordinary = gamma2 > gamma1
    half_gamma = np.abs(gamma2 - gamma1)
    with np.errstate(divide="ignore", invalid="ignore"):
        n_photons = np.where(ordinary, gamma_n, gamma_s) / half_gamma
        gamma_eff = 2.0 * half_gamma
        m_abs = gamma_m / half_gamma
        # Split N = Ns + Nb; w**2 - u**2 = 1/4 gives Nb without a subtraction.
        u = 2.0 * np.sqrt(gamma1 * gamma2) / gamma_eff
        w = (gamma1 + gamma2) / gamma_eff
        with np.errstate(over="ignore"):  # once nbar*u passes ~6.7e153
            root = np.sqrt(4.0 * nbar * (nbar + 1.0) * (u * u) + w * w)
        # There the same root without the squares; elsewhere the same bits.
        root = np.where(np.isfinite(root), root,
                        np.hypot(2.0 * u * np.sqrt(nbar * (nbar + 1.0)), w))
        n_background = nbar * (nbar + 1.0) / ((2.0 * nbar + 1.0) * w + root)
        quantum = m_abs > n_photons

    values = {
        "regime": np.where(perfect, REGIME_PERFECT, np.where(
            ordinary, REGIME_ORDINARY, REGIME_INVERTED)),
        "gamma_eff": np.where(perfect, 0.0, gamma_eff),
        "n_photons": np.where(perfect, math.inf, n_photons),
        "m_abs": np.where(perfect, math.inf, m_abs),
        "n_squeezed": np.where(perfect, math.inf, root - 0.5),
        "n_background": np.where(perfect, 0.0, n_background),
        "quantum": perfect | quantum,
    }
    return SqueezingDescriptor(**{k: _scalar(v) for k, v in values.items()})


def quantum_threshold(gamma1, gamma2):
    """Largest nbar at which the reservoir correlations are quantum (|M| > N).

    Returns sqrt(gamma1)/(sqrt(gamma2)-sqrt(gamma1)) for gamma2 > gamma1 and
    the mirrored expression otherwise (0 when one rate is 0); +inf for
    gamma1 = gamma2 (quantum at every nbar).
    """
    _check_rule("gamma1", ">= 0", gamma1)
    _check_rule("gamma2", ">= 0", gamma2)
    if gamma1 == gamma2:
        return math.inf
    r1, r2 = math.sqrt(gamma1), math.sqrt(gamma2)
    if gamma2 > gamma1:
        return r1 / (r2 - r1)
    return r2 / (r1 - r2)


#: Mesh points evaluated per block by every table (the figure datasets,
#: ``sps figure`` and ``sps sweep``): the temporaries of one block stay below
#: a megabyte however many points the mesh has.
GRID_BLOCK_POINTS = 4096


def mesh_blocks(*shape):
    """The flat points of the mesh of ``shape`` (first axis outermost),
    ``GRID_BLOCK_POINTS`` at a time: for each block, the index arrays of its
    points along each axis.  Flat point k lies at
    ``np.unravel_index(k, shape)``, so a block may cut a row."""
    size = math.prod(shape)
    for start in range(0, size, GRID_BLOCK_POINTS):
        yield np.unravel_index(
            np.arange(start, min(start + GRID_BLOCK_POINTS, size)), shape)


def _mesh_table(value, outer, inner):
    """Rows (outer, inner, value(outer, inner)), outer-major, filled from the
    blocks of :func:`mesh_blocks` into one table: for an elementwise
    ``value`` each cell equals that of a whole-mesh call."""
    outer = np.asarray(outer, float).ravel()
    inner = np.asarray(inner, float).ravel()
    table = np.empty((outer.size, inner.size, 3))
    for i, j in mesh_blocks(outer.size, inner.size):
        x, y = outer[i], inner[j]
        table[i, j] = np.column_stack((x, y, value(x, y)))
    return table.reshape(-1, 3)


def _ratio_value(value, nbar, ratio):
    """``value`` of the descriptor at gamma1 = 1 and gamma2 = ratio > 1,
    elementwise in (nbar, ratio)."""
    _check_rule("ratio", "> 1", ratio)
    return value(map_to_squeezing(reservoir_rates(1.0, ratio, nbar)))


def _quantum_ratio(desc):
    return desc.m_abs / desc.n_photons


def _background_ratio(desc):
    # (|M| + 1/2)**2 - (Ns + 1/2)**2 = |M| turns Nb/(|M| - Ns) into a sum.
    nb = desc.n_background
    return nb + nb * ((1.0 + desc.n_squeezed) / desc.m_abs)


def figure3_dataset(nbar_grid, ratio_grid):
    """Table of |M|/N over (nbar, gamma2/gamma1), ordinary regime.

    Returns an array of rows (nbar, ratio, |M|/N) with nbar as the outer
    loop.  The |M|/N = 1 contour coincides with ``quantum_threshold``.
    """
    return _mesh_table(functools.partial(_ratio_value, _quantum_ratio),
                       nbar_grid, ratio_grid)


def figure4_dataset(nbar_grid, ratio_grid):
    """Table of Nb/(|M| - Ns) over (nbar, gamma2/gamma1), ordinary regime.

    The ratio exceeds 1 exactly where the background overwhelms the quantum
    correlations, i.e. for nbar > 1/(sqrt(gamma2/gamma1) - 1).
    """
    return _mesh_table(functools.partial(_ratio_value, _background_ratio),
                       nbar_grid, ratio_grid)
