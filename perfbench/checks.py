"""Output checks of the benchmark and the oracle-agreement figures.

Every check is one operation: it passes or fails, and failures are kept
with a description.  Beyond the shape of each CSV (header, row count, no
NaN outside documented columns) and the ``status`` of every
``*_compare.meta``, a seeded sample of rows of each bulk output is
recomputed in-process and must match the CSV cell as ``%.17g`` text, and
a seeded sample of analytic outputs is compared with the Liouvillian
oracle at the CLI's own ``--engine both`` tolerances.
"""

from __future__ import annotations

import math
import os

import numpy as np

from sps import oracle
from sps.bloch import BlochVector, driven_steady_state
from sps.cli import parse_config_file
from sps.reservoir import figure3_dataset, figure4_dataset, map_to_squeezing, \
    reservoir_rates
from sps.spectrum import exact_incoherent_spectrum

#: Tolerances of ``--engine both``: sup norm for dynamics, relative to the
#: analytic peak for spectra.
DYNAMICS_TOL = 1e-8
SPECTRUM_TOL = 1e-3
#: Rows recomputed, or compared with the oracle, per sampled output.
SAMPLE_ROWS = 16
#: Deviations below this count as exact agreement in ``xcheck_digits``.
DEVIATION_FLOOR = 1e-17

_HALF_PI = math.pi / 2.0


class Checker:
    """Counts checks and keeps the description of each failure."""

    def __init__(self):
        self.attempted = 0
        self.failures = []
        # kind ("dynamics" or "spectrum") -> deviations seen
        self.deviations = {"dynamics": [], "spectrum": []}

    @property
    def failed(self):
        return len(self.failures)

    def check(self, ok, what):
        self.attempted += 1
        if not ok:
            self.failures.append(what)
        return ok

    def agreement(self, kind, deviation, what):
        """Record an analytic-vs-oracle deviation and check it."""
        self.deviations[kind].append(deviation)
        tol = DYNAMICS_TOL if kind == "dynamics" else SPECTRUM_TOL
        self.check(deviation <= tol, f"{what}: deviation {deviation!r} > {tol}")

    def digits(self, kind):
        """-log10 of the worst deviation of ``kind`` (NaN counts as worst)."""
        values = self.deviations[kind]
        if not values or any(math.isnan(v) for v in values):
            return 0.0
        return -math.log10(max(max(values), DEVIATION_FLOOR))


def cell(value):
    """A value as the CLI writes it: floats at ``%.17g``."""
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (float, np.floating)):
        return "%.17g" % float(value)
    return str(value)


def read_csv(path):
    with open(path, encoding="utf-8", newline="") as handle:
        lines = handle.read().split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    return lines[0].split(","), [line.split(",") for line in lines[1:]]


def read_meta(path):
    with open(path, encoding="utf-8") as handle:
        return dict(line.split("=", 1) for line in handle.read().splitlines())


def sample(rng, n, count=SAMPLE_ROWS, always=()):
    """Sorted seeded sample of row indices, including ``always``."""
    picked = set(always) | set(rng.sample(range(n), min(count, n)))
    return sorted(picked)


def check_command(checker, command, rng):
    """All output checks of one finished command."""
    tables = {}
    for output in command.outputs:
        path = os.path.join(command.out, output.file)
        what = f"{' '.join(command.args)} {output.file}"
        if not checker.check(os.path.isfile(path), f"{what}: missing"):
            continue
        header, rows = read_csv(path)
        ok = (tuple(header) == output.header and len(rows) == output.rows
              and all(len(row) == len(header) for row in rows))
        if not checker.check(ok, f"{what}: header {header} or {len(rows)} "
                                 f"rows, expected {output.rows}"):
            continue
        checked = [i for i, name in enumerate(header)
                   if name not in output.nan_columns]
        nan = any(row[i].lower() in ("nan", "-nan")
                  for row in rows for i in checked)
        checker.check(not nan, f"{what}: NaN outside {output.nan_columns}")
        tables[output.file] = rows

    for name in command.compare:
        path = os.path.join(command.out, name)
        meta = read_meta(path) if os.path.isfile(path) else {}
        checker.check(meta.get("status") == "pass",
                      f"{' '.join(command.args)} {name}: status "
                      f"{meta.get('status')!r}")
        kind = "spectrum" if name.startswith("spectrum") else "dynamics"
        key = "relative_deviation" if kind == "spectrum" else "supnorm_deviation"
        if key in meta:
            checker.deviations[kind].append(float(meta[key]))

    if not command.recompute and not command.oracle:
        return
    if len(tables) != len(command.outputs):
        return  # already failed above
    cfg = parse_config_file(command.config)
    rows = tables[command.outputs[0].file]
    what = " ".join(command.args)
    if command.recompute:
        expected = RECOMPUTE[command.recompute](cfg, sample(rng, len(rows)))
        bad = [i for i, cells in expected.items()
               if [cell(v) for v in cells] != rows[i]]
        checker.check(not bad, f"{what}: recomputed rows {bad} differ")
    if command.oracle:
        kind, deviation = ORACLE[command.oracle](cfg, rows, rng)
        checker.agreement(kind, deviation, f"{what} vs oracle")


# ----------------------------------------------------------------------
# In-process recomputation of sampled rows
# ----------------------------------------------------------------------

def _sweep_rates(cfg, value):
    params = {"gamma1": cfg.gamma1, "gamma2": cfg.gamma2, "nbar": cfg.nbar,
              "phi": cfg.phi, "Omega": cfg.laser_omega, "sx0": cfg.sx0}
    params[cfg.sweep_param] = value
    rates = reservoir_rates(params["gamma1"], params["gamma2"], params["nbar"],
                            phi1=params["phi"], phi2=params["phi"],
                            gamma_rad=cfg.gamma_rad)
    return rates, params


def _recompute_sweep(cfg, picked):
    values = np.linspace(cfg.sweep_start, cfg.sweep_stop, cfg.sweep_points)
    out = {}
    for i in picked:
        rates, params = _sweep_rates(cfg, values[i])
        if cfg.sweep_quantity == "steady":
            s = driven_steady_state(rates, params["Omega"], params["phi"],
                                    sx0=params["sx0"])
            out[i] = [i, values[i], s.sx, s.sy, s.sz]
        else:
            d = map_to_squeezing(rates)
            out[i] = [i, values[i], d.regime, d.gamma_eff, d.n_photons,
                      d.m_abs, d.n_squeezed, d.n_background, d.quantum]
    return out


def _recompute_figure(dataset):
    def recompute(cfg, picked):
        nbar_grid = np.linspace(0.0, cfg.nbar_max, cfg.nbar_points)
        ratio_grid = np.linspace(1.0, cfg.ratio_max, cfg.ratio_points + 1)[1:]
        table = dataset(nbar_grid, ratio_grid)
        return {i: list(table[i]) for i in picked}
    return recompute


def _fig5_grids(cfg):
    span = cfg.omega_span if cfg.omega_span > 0 else 2.0 * cfg.laser_omega
    return (np.linspace(-0.5, 0.5, cfg.sx0_points),
            np.linspace(-span, span, cfg.omega_points))


def _fig5_rates(cfg):
    return reservoir_rates(cfg.gamma1, cfg.gamma1, cfg.nbar,
                           phi1=_HALF_PI, phi2=_HALF_PI)


def _recompute_fig5(cfg, picked):
    sx0_grid, omega_grid = _fig5_grids(cfg)
    rates = _fig5_rates(cfg)
    out, spectra = {}, {}
    for i in picked:
        block, j = divmod(i, len(omega_grid))
        if block not in spectra:
            spectra[block] = exact_incoherent_spectrum(
                rates, cfg.laser_omega, _HALF_PI, sx0=sx0_grid[block],
                omega_grid=omega_grid).incoherent
        out[i] = [sx0_grid[block], omega_grid[j], spectra[block][j]]
    return out


RECOMPUTE = {
    "sweep": _recompute_sweep,
    "fig3": _recompute_figure(figure3_dataset),
    "fig4": _recompute_figure(figure4_dataset),
    "fig5": _recompute_fig5,
}


# ----------------------------------------------------------------------
# Oracle comparison of sampled analytic rows
# ----------------------------------------------------------------------

def _oracle_steady(rates, omega, sx0, sy0=0.0, sz0=0.0):
    lv = oracle.build_liouvillian(rates, omega=omega, laser_on=True)
    rho0 = oracle.bloch_to_rho(BlochVector(sx0, sy0, sz0))
    return oracle.rho_to_bloch(oracle.stationary_state(lv, rho0=rho0))


def _numbers(row, columns):
    return np.array([float(row[c]) for c in columns])


def _oracle_steady_row(cfg, rows, rng):
    s = _oracle_steady(cfg.resolved_rates(), cfg.laser_omega,
                       cfg.sx0, cfg.sy0, cfg.sz0)
    dev = np.abs(_numbers(rows[0], (0, 1, 2)) - s.as_array()).max()
    return "dynamics", float(dev)


def _oracle_decay(cfg, rows, rng):
    # propagate starts from rho0 at the first time, which must be t = 0
    picked = sample(rng, len(rows), always=(0,))
    times = np.array([float(rows[i][0]) for i in picked])
    lv = oracle.build_liouvillian(cfg.resolved_rates())
    rho0 = oracle.bloch_to_rho(BlochVector(cfg.sx0, cfg.sy0, cfg.sz0))
    traj = oracle.propagate(rho0, lv, times)
    dev = max(np.abs(_numbers(rows[i], (1, 2, 3))
                     - oracle.rho_to_bloch(rho).as_array()).max()
              for i, rho in zip(picked, traj))
    return "dynamics", float(dev)


def _spectrum_deviation(rates, omega, rows, picked, peak, **initial):
    """Sup-norm deviation of sampled spectrum rows from the oracle, over peak."""
    grid = np.array([float(rows[i][-2]) for i in picked])
    numeric = oracle.regression_spectrum(rates, omega, omega_grid=grid,
                                         **initial)
    analytic = np.array([float(rows[i][-1]) for i in picked])
    return float(np.abs(analytic - numeric.incoherent).max() / peak)


def _oracle_spectrum(cfg, rows, rng):
    peak = max(abs(float(row[1])) for row in rows)
    return "spectrum", _spectrum_deviation(
        cfg.resolved_rates(), cfg.laser_omega, rows, sample(rng, len(rows)),
        peak, sx0=cfg.sx0, sy0=cfg.sy0, sz0=cfg.sz0)


def _oracle_sweep(cfg, rows, rng):
    values = np.linspace(cfg.sweep_start, cfg.sweep_stop, cfg.sweep_points)
    dev = 0.0
    for i in sample(rng, len(rows)):
        rates, params = _sweep_rates(cfg, values[i])
        s = _oracle_steady(rates, params["Omega"], params["sx0"])
        dev = max(dev, np.abs(_numbers(rows[i], (2, 3, 4))
                              - s.as_array()).max())
    return "dynamics", float(dev)


def _oracle_fig5(cfg, rows, rng):
    sx0_grid, omega_grid = _fig5_grids(cfg)
    block = len(sx0_grid) // 2  # sx0 = 0: the largest zero-width weight
    first = block * len(omega_grid)
    block_rows = rows[first:first + len(omega_grid)]
    peak = max(abs(float(row[2])) for row in block_rows)
    return "spectrum", _spectrum_deviation(
        _fig5_rates(cfg), cfg.laser_omega, block_rows,
        sample(rng, len(block_rows)), peak, sx0=sx0_grid[block])


ORACLE = {
    "steady": _oracle_steady_row,
    "decay": _oracle_decay,
    "spectrum": _oracle_spectrum,
    "sweep": _oracle_sweep,
    "fig5": _oracle_fig5,
}
