"""Command-line front end: ``sps <subcommand> --config FILE``.

Subcommands: rates, squeezing, decay, steady, spectrum, sweep, figure.
Configuration is a plain-text file of ``key = value`` lines under sections
[bath], [drive], [rates], [run] (see the package README for every key).
Exactly one of two input modes must be used: the physical mode ([bath] +
[drive], the damping rates are computed from the bath spectral density)
or the direct-rate mode ([rates] with gamma1/gamma2/nbar given verbatim).

Outputs are deterministic CSV files (17-significant-digit floats, LF line
endings, fixed column order) plus flat ``key=value`` metadata sidecars, so
repeated runs of the same config are byte-identical.
"""

from __future__ import annotations

import argparse
import ast
import math
import operator
import os
import sys
from dataclasses import dataclass

import numpy as np

from . import oracle
from .bloch import BlochVector, _check_phi_choice, _decay_rates, \
    dressed_populations, driven_steady_state, free_evolution
from .physparams import DriveConfig, PhononBathSpec, displacement_factor, \
    phonon_rate
from .reservoir import figure3_dataset, figure4_dataset, map_to_squeezing, \
    quantum_threshold, reservoir_rates
from .spectrum import exact_incoherent_spectrum, figure5_dataset, sum_rule

#: Analytic-vs-numeric comparison tolerances for --engine both.
DECAY_TOL = 1e-8
STEADY_TOL = 1e-8
SPECTRUM_TOL = 1e-8  # relative sup norm against the analytic peak

SUBCOMMANDS = ("rates", "squeezing", "decay", "steady", "spectrum", "sweep",
               "figure")
FIGURES = ("fig3", "fig4", "fig5")
ENGINES = ("analytic", "numeric", "both")

#: The arithmetic a config number may use, besides literals and ``pi``.
_OPS = {ast.Add: operator.add, ast.Sub: operator.sub, ast.Mult: operator.mul,
        ast.Div: operator.truediv, ast.UAdd: operator.pos, ast.USub: operator.neg}


class ConfigError(ValueError):
    """Bad configuration file; carries the offending line number when known."""

    def __init__(self, message, line=None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


# Section -> key -> type ("float", "int", "bool", "str").
_SCHEMA = {
    "bath": {
        "alpha": "float", "omega_c": "float",
        "temperature": "float", "nbar": "float",
    },
    "drive": {
        "omega1": "float", "omega2": "float",
        "phi1": "float", "phi2": "float", "detuning": "float",
        "include_B": "bool",
    },
    "rates": {
        "gamma1": "float", "gamma2": "float", "nbar": "float", "phi": "float",
    },
    "run": {
        "engine": "str", "out": "str", "Gamma": "float",
        "Omega": "float", "sx0": "float", "sy0": "float", "sz0": "float",
        "t_max": "float", "t_points": "int",
        "omega_span": "float", "omega_points": "int",
        "nbar_max": "float", "nbar_points": "int",
        "ratio_max": "float", "ratio_points": "int",
        "sx0_points": "int", "render_delta": "bool", "render_width": "float",
        "sweep_param": "str", "sweep_start": "float", "sweep_stop": "float",
        "sweep_points": "int", "sweep_quantity": "str",
    },
}

#: Range of a [run] key: a grid needs a point, a length or width is not
#: negative (0 selects the automatic value), nor is n-bar, and the fig3/fig4
#: ratios gamma2/gamma1 lie above 1.
_RUN_RANGE = {"t_points": ">= 1", "omega_points": ">= 1",
              "nbar_points": ">= 1", "ratio_points": ">= 1",
              "sx0_points": ">= 1", "t_max": ">= 0", "omega_span": ">= 0",
              "render_width": ">= 0", "nbar_max": ">= 0", "ratio_max": "> 1"}
_RELATIONS = {">=": operator.ge, ">": operator.gt}

#: RunConfig fields of the [run] keys not named alike.
_RUN_FIELDS = {"Gamma": "gamma_rad", "Omega": "laser_omega"}

_SWEEP_PARAMS = ("gamma1", "gamma2", "nbar", "phi", "Omega", "sx0")
_SWEEP_QUANTITIES = ("steady", "squeezing")


@dataclass
class RunConfig:
    """Validated configuration for one CLI invocation."""

    mode: str                      # "physical" or "direct"
    bath: PhononBathSpec | None = None
    drive: DriveConfig | None = None
    include_b: bool = False
    gamma1: float = 0.0
    gamma2: float = 0.0
    nbar: float = 0.0
    phi: float = 0.0
    gamma_rad: float = 0.0
    engine: str = "analytic"
    out: str = "."
    laser_omega: float = 0.0
    sx0: float = 0.0
    sy0: float = 0.0
    sz0: float = 0.0
    t_max: float = 0.0             # 0 -> auto
    t_points: int = 201
    omega_span: float = 0.0        # 0 -> auto (2*Omega)
    omega_points: int = 2001
    nbar_max: float = 3.0
    nbar_points: int = 201
    ratio_max: float = 10.0
    ratio_points: int = 201
    sx0_points: int = 41
    render_delta: bool = False
    render_width: float = 0.0      # 0 -> gamma1
    sweep_param: str = ""
    sweep_start: float = 0.0
    sweep_stop: float = 0.0
    sweep_points: int = 0
    sweep_quantity: str = "steady"

    def resolved_rates(self):
        """Reservoir triple for this configuration (either input mode)."""
        if self.mode == "direct":
            return reservoir_rates(self.gamma1, self.gamma2, self.nbar,
                                   phi1=self.phi, phi2=self.phi,
                                   gamma_rad=self.gamma_rad)
        gamma1 = phonon_rate(1, self.drive, self.bath, include_b=self.include_b)
        gamma2 = phonon_rate(2, self.drive, self.bath, include_b=self.include_b)
        nbar = self.bath.occupation(self.drive.detuning)
        return reservoir_rates(gamma1, gamma2, nbar,
                               phi1=self.drive.phi1, phi2=self.drive.phi2,
                               gamma_rad=self.gamma_rad)


def _evaluate(node):
    """Value of a number expression: literals, ``pi``, + - * /, parentheses."""
    if isinstance(node, ast.Constant) and type(node.value) in (int, float):
        return node.value
    if isinstance(node, ast.Name) and node.id == "pi":
        return math.pi
    if isinstance(node, ast.BinOp) and type(node.op) in _OPS:
        return _OPS[type(node.op)](_evaluate(node.left), _evaluate(node.right))
    if isinstance(node, ast.UnaryOp) and type(node.op) in _OPS:
        return _OPS[type(node.op)](_evaluate(node.operand))
    raise ValueError("not a number expression")


def _parse_number(text, line):
    """Parse a finite number, allowing pi expressions like ``pi/2`` or ``0.3*pi``."""
    try:
        value = float(_evaluate(ast.parse(text.strip(), mode="eval").body))
    except (SyntaxError, ValueError, ArithmeticError, RecursionError):
        raise ConfigError(f"unparseable number {text!r}", line) from None
    if not math.isfinite(value):
        raise ConfigError(f"non-finite number {text!r}", line)
    return value


def _parse_value(kind, text, line):
    if kind == "float":
        return _parse_number(text, line)
    if kind == "int":
        value = _parse_number(text, line)
        if value != int(value):
            raise ConfigError(f"expected an integer, got {text!r}", line)
        return int(value)
    if kind == "bool":
        lowered = text.lower()
        if lowered in ("true", "yes", "1", "on"):
            return True
        if lowered in ("false", "no", "0", "off"):
            return False
        raise ConfigError(f"expected a boolean, got {text!r}", line)
    return text


def parse_config(text):
    """Parse configuration text into a validated :class:`RunConfig`."""
    sections: dict[str, dict] = {}
    current = None
    for lineno, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            name = line[1:-1].strip()
            if name not in _SCHEMA:
                raise ConfigError(f"unknown section [{name}]", lineno)
            if name in sections:
                raise ConfigError(f"duplicate section [{name}]", lineno)
            sections[name] = {}
            current = name
            continue
        if "=" not in line:
            raise ConfigError(f"expected key = value, got {line!r}", lineno)
        if current is None:
            raise ConfigError("key outside of any section", lineno)
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if key not in _SCHEMA[current]:
            raise ConfigError(f"unknown key {key!r} in section [{current}]", lineno)
        if key in sections[current]:
            raise ConfigError(f"duplicate key {key!r} in section [{current}]", lineno)
        parsed = _parse_value(_SCHEMA[current][key], value, lineno)
        rule = _RUN_RANGE.get(key) if current == "run" else None
        if rule is not None:
            relation, bound = rule.split()
            if not _RELATIONS[relation](parsed, float(bound)):
                raise ConfigError(f"{key} must be {rule}, got {value!r}", lineno)
        sections[current][key] = parsed

    return _build_config(sections)


def _require(section, key, sections):
    try:
        return sections[section][key]
    except KeyError:
        raise ConfigError(f"missing required key {key!r} in section [{section}]") from None


def _build_config(sections):
    has_bath = "bath" in sections
    has_rates = "rates" in sections
    if has_bath == has_rates:
        raise ConfigError(
            "exactly one of [bath]+[drive] (physical mode) or [rates] "
            "(direct-rate mode) must be present")

    run = sections.get("run", {})
    cfg = RunConfig(mode="physical" if has_bath else "direct")

    if has_bath:
        if "drive" not in sections:
            raise ConfigError("physical mode needs a [drive] section")
        bath_keys = sections["bath"]
        if ("temperature" in bath_keys) == ("nbar" in bath_keys):
            raise ConfigError(
                "section [bath] needs exactly one of temperature / nbar")
        try:
            cfg.bath = PhononBathSpec(
                alpha=_require("bath", "alpha", sections),
                omega_c=_require("bath", "omega_c", sections),
                temperature=bath_keys.get("temperature"),
                nbar_override=bath_keys.get("nbar"))
            drive_keys = sections["drive"]
            cfg.drive = DriveConfig(
                omega1_rabi=_require("drive", "omega1", sections),
                omega2_rabi=_require("drive", "omega2", sections),
                phi1=drive_keys.get("phi1", 0.0),
                phi2=drive_keys.get("phi2", 0.0),
                detuning=_require("drive", "detuning", sections))
        except ValueError as exc:
            if isinstance(exc, ConfigError):
                raise
            raise ConfigError(str(exc)) from exc
        cfg.include_b = sections["drive"].get("include_B", False)
        cfg.phi = cfg.drive.phi
    else:
        if "drive" in sections:
            raise ConfigError("[drive] requires the physical mode ([bath])")
        cfg.gamma1 = _require("rates", "gamma1", sections)
        cfg.gamma2 = _require("rates", "gamma2", sections)
        cfg.nbar = sections["rates"].get("nbar", 0.0)
        cfg.phi = sections["rates"].get("phi", 0.0)

    for key, value in run.items():
        setattr(cfg, _RUN_FIELDS.get(key, key), value)
    if cfg.engine not in ENGINES:
        raise ConfigError(f"engine must be one of {ENGINES}, got {cfg.engine!r}")
    if cfg.sweep_param and cfg.sweep_param not in _SWEEP_PARAMS:
        raise ConfigError(
            f"sweep_param must be one of {_SWEEP_PARAMS}, got {cfg.sweep_param!r}")
    if cfg.sweep_quantity not in _SWEEP_QUANTITIES:
        raise ConfigError(
            f"sweep_quantity must be one of {_SWEEP_QUANTITIES}, "
            f"got {cfg.sweep_quantity!r}")
    if (cfg.sweep_param == "phi" and cfg.sweep_quantity == "steady"
            and cfg.sweep_points >= 2):
        _phi_choice(np.linspace(cfg.sweep_start, cfg.sweep_stop,
                                cfg.sweep_points))
    return cfg


def parse_config_file(path):
    with open(path, "r", encoding="utf-8") as handle:
        return parse_config(handle.read())


# ----------------------------------------------------------------------
# Deterministic output helpers
# ----------------------------------------------------------------------

#: Rows that :func:`write_csv` formats with one ``%`` operation: enough to
#: spread the per-operation cost, which is flat per cell from 256 rows up,
#: few enough that a chunk's cells and text stay near a megabyte or below.
CSV_CHUNK_ROWS = 1024


def _column(values):
    """``(conversion, array)`` for a CSV column: the ``%`` rule of its dtype.

    Floats are written at full round-trip precision (``%.17g``), integers
    with ``%d``, bools as ``true``/``false`` and anything else with ``%s``.
    Strings not already in an array stay Python objects, since a numpy
    string drops trailing NULs; a list that numpy would turn into strings
    must hold only ``str``, or it is a ValueError.
    """
    array = np.asarray(values)
    kind = array.dtype.kind
    if kind in "SU" and not isinstance(values, np.ndarray):
        array = np.asarray(values, dtype=object)
        if not all(isinstance(item, str) for item in array.flat):
            raise ValueError(f"a text column holds non-str values: {values!r:.80}")
    if kind == "b":
        return "%s", np.where(array, "true", "false")
    if kind == "f":
        return "%.17g", array
    if kind in "iu":
        return "%d", array
    return "%s", array


def format_value(value):
    """Serialize one value by the rule :func:`write_csv` applies to its column."""
    conversion, array = _column(value)
    return conversion % (array.tolist(),)


def write_csv(path, header, columns):
    """Write equal-length ``columns`` (arrays or lists) as CSV under ``header``.

    A column holds one kind of value and is formatted by the rule of its
    dtype; rows are formatted ``CSV_CHUNK_ROWS`` at a time by one ``%``.
    """
    columns = [_column(values) for values in columns]
    if len(columns) != len(header):
        raise ValueError(f"{len(header)} CSV header names for "
                         f"{len(columns)} columns")
    shapes = [array.shape for _, array in columns]
    if any(len(shape) != 1 for shape in shapes) or len(set(shapes)) > 1:
        raise ValueError(f"CSV columns must be 1-D and of equal length, got "
                         f"shapes {shapes}")
    n_rows = columns[0][1].size if columns else 0
    width = len(columns)
    row = ",".join(conversion for conversion, _ in columns) + "\n"
    with open(path, "w", encoding="utf-8", newline="") as handle:
        handle.write(",".join(header) + "\n")
        for start in range(0, n_rows, CSV_CHUNK_ROWS):
            chunk = min(CSV_CHUNK_ROWS, n_rows - start)
            cells = [None] * (chunk * width)
            for j, (_, array) in enumerate(columns):
                cells[j::width] = array[start:start + chunk].tolist()
            handle.write(row * chunk % tuple(cells))


def write_meta(path, entries):
    with open(path, "w", encoding="utf-8", newline="") as handle:
        for key, value in entries.items():
            handle.write(f"{key}={format_value(value)}\n")


def _phi_choice(phi):
    """The driven-system phase 0 or pi/2 (elementwise), else ConfigError."""
    try:
        return _check_phi_choice(phi)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


def _time_grid(cfg, rates):
    if cfg.t_max > 0:
        t_max = cfg.t_max
    else:
        nonzero = [r for r in _decay_rates(rates) if r > 1e-12]
        t_max = 10.0 / min(nonzero) if nonzero else 1.0
    return np.linspace(0.0, t_max, cfg.t_points)


def _omega_grid(cfg):
    span = cfg.omega_span if cfg.omega_span > 0 else 2.0 * cfg.laser_omega
    if span <= 0:
        raise ConfigError("spectrum needs omega_span > 0 or Omega > 0")
    return np.linspace(-span, span, cfg.omega_points)


# ----------------------------------------------------------------------
# Subcommands
# ----------------------------------------------------------------------

def _cmd_rates(cfg, out_dir):
    rr = cfg.resolved_rates()
    write_csv(os.path.join(out_dir, "rates.csv"),
              ["gamma1", "gamma2", "nbar", "gamma_s", "gamma_n", "gamma_m",
               "phi", "Gamma"],
              [[rr.gamma1], [rr.gamma2], [rr.nbar], [rr.gamma_s],
               [rr.gamma_n], [rr.gamma_m], [rr.phi], [rr.gamma_rad]])
    meta = {"mode": cfg.mode, "engine": cfg.engine}
    if cfg.mode == "physical":
        meta["displacement_factor"] = displacement_factor(cfg.bath)
        meta["include_B"] = cfg.include_b
        meta["detuning"] = cfg.drive.detuning
    write_meta(os.path.join(out_dir, "rates.meta"), meta)
    return 0


def _cmd_squeezing(cfg, out_dir):
    rr = cfg.resolved_rates()
    desc = map_to_squeezing(rr)
    try:
        threshold = quantum_threshold(rr.gamma1, rr.gamma2)
    except ValueError:
        threshold = math.nan  # a vanishing rate never reaches the quantum regime
    write_csv(os.path.join(out_dir, "squeezing.csv"),
              ["regime", "gamma_eff", "N", "M_abs", "Ns", "Nb", "quantum",
               "nbar_threshold"],
              [[desc.regime], [desc.gamma_eff], [desc.n_photons],
               [desc.m_abs], [desc.n_squeezed], [desc.n_background],
               [desc.quantum], [threshold]])
    return 0


def _run_engines(cfg, out_dir, stem, analytic, numeric, write, compare, tol):
    """Run the solvers ``cfg.engine`` selects; returns the exit status.

    ``write(path_stem, result)`` writes one engine as ``<stem>.*``.  Under
    ``both`` the analytic result is written first as ``<stem>_analytic.*``,
    then the numeric one as ``<stem>_numeric.*``, and ``<stem>_compare.meta``
    holds ``compare(analytic, numeric)``, whose last value is the deviation,
    then ``tolerance`` and ``status``: fail and 1 unless it is <= ``tol``.
    """
    if cfg.engine != "both":
        solve = analytic if cfg.engine == "analytic" else numeric
        write(os.path.join(out_dir, stem), solve())
        return 0
    results = []
    for engine, solve in (("analytic", analytic), ("numeric", numeric)):
        results.append(solve())
        write(os.path.join(out_dir, f"{stem}_{engine}"), results[-1])
    entries = compare(*results)
    ok = [*entries.values()][-1] <= tol
    entries.update(tolerance=tol, status="pass" if ok else "fail")
    write_meta(os.path.join(out_dir, stem + "_compare.meta"), entries)
    return 0 if ok else 1


def _bloch_deviation(analytic, numeric):
    return {"supnorm_deviation":
            np.abs(analytic.as_array() - numeric.as_array()).max()}


def _cmd_decay(cfg, out_dir):
    rr = cfg.resolved_rates()
    t_grid = _time_grid(cfg, rr)
    state0 = BlochVector(cfg.sx0, cfg.sy0, cfg.sz0)

    def analytic():
        return BlochVector(*np.array(
            [free_evolution(state0, rr, t).as_array() for t in t_grid]).T)

    def numeric():
        return oracle.rho_to_bloch(oracle.propagate(
            oracle.bloch_to_rho(state0), oracle.build_liouvillian(rr), t_grid))

    def write(stem, state):
        write_csv(stem + ".csv", ["t", "sx", "sy", "sz"],
                  [t_grid, state.sx, state.sy, state.sz])

    return _run_engines(cfg, out_dir, "decay", analytic, numeric, write,
                        _bloch_deviation, DECAY_TOL)


def _cmd_steady(cfg, out_dir):
    rr = cfg.resolved_rates()
    phi_choice = _phi_choice(cfg.phi)

    def analytic():
        return driven_steady_state(rr, cfg.laser_omega, phi_choice, sx0=cfg.sx0)

    def numeric():
        lv = oracle.build_liouvillian(rr, omega=cfg.laser_omega, laser_on=True)
        rho0 = oracle.bloch_to_rho(BlochVector(cfg.sx0, cfg.sy0, cfg.sz0))
        return oracle.rho_to_bloch(oracle.stationary_state(lv, rho0=rho0))

    def write(stem, state):
        plus, minus = dressed_populations(state)
        write_csv(stem + ".csv", ["sx", "sy", "sz", "rho_plus", "rho_minus"],
                  [[state.sx], [state.sy], [state.sz], [plus], [minus]])

    return _run_engines(cfg, out_dir, "steady", analytic, numeric, write,
                        _bloch_deviation, STEADY_TOL)


def _write_spectrum(stem, result):
    write_csv(stem + ".csv", ["delta_omega", "S_in"],
              [result.omega_grid, result.incoherent])
    write_meta(stem + ".meta",
               {"engine": result.engine,
                "coherent_weight": result.coherent_weight,
                "zero_width_weight": result.zero_width_weight,
                "sum_rule": sum_rule(result)})


def _spectrum_deviation(analytic, numeric):
    """Sup-norm deviation, also relative to the analytic peak."""
    peak = float(np.abs(analytic.incoherent).max())
    dev = float(np.abs(analytic.incoherent - numeric.incoherent).max())
    return {"supnorm_deviation": dev, "peak": peak,
            "relative_deviation": dev / peak if peak > 0 else dev}


def _cmd_spectrum(cfg, out_dir):
    rr = cfg.resolved_rates()
    phi_choice = _phi_choice(cfg.phi)
    if cfg.laser_omega <= 0:
        raise ConfigError("spectrum needs a resonant drive: set Omega > 0")
    grid = _omega_grid(cfg)

    def analytic():
        return exact_incoherent_spectrum(rr, cfg.laser_omega, phi_choice,
                                         sx0=cfg.sx0, omega_grid=grid)

    def numeric():
        return oracle.regression_spectrum(
            rr, cfg.laser_omega, sx0=cfg.sx0, sy0=cfg.sy0, sz0=cfg.sz0,
            omega_grid=grid)

    return _run_engines(cfg, out_dir, "spectrum", analytic, numeric,
                        _write_spectrum, _spectrum_deviation, SPECTRUM_TOL)


def _cmd_sweep(cfg, out_dir):
    if cfg.mode != "direct":
        raise ConfigError("sweep supports the direct-rate mode only")
    if not cfg.sweep_param:
        raise ConfigError("sweep needs sweep_param/sweep_start/sweep_stop/sweep_points")
    if cfg.sweep_points < 2:
        raise ConfigError("sweep_points must be >= 2")
    values = np.linspace(cfg.sweep_start, cfg.sweep_stop, cfg.sweep_points)
    params = {"gamma1": cfg.gamma1, "gamma2": cfg.gamma2, "nbar": cfg.nbar,
              "phi": cfg.phi, "Omega": cfg.laser_omega, "sx0": cfg.sx0}
    params[cfg.sweep_param] = values
    rr = reservoir_rates(params["gamma1"], params["gamma2"], params["nbar"],
                         phi1=params["phi"], phi2=params["phi"],
                         gamma_rad=cfg.gamma_rad)
    if cfg.sweep_quantity == "steady":
        state = driven_steady_state(rr, params["Omega"],
                                    _phi_choice(params["phi"]),
                                    sx0=params["sx0"])
        header = ["index", cfg.sweep_param, "sx", "sy", "sz"]
        columns = [state.sx, state.sy, state.sz]
    else:
        desc = map_to_squeezing(rr)
        header = ["index", cfg.sweep_param, "regime", "gamma_eff", "N",
                  "M_abs", "Ns", "Nb", "quantum"]
        columns = [desc.regime, desc.gamma_eff, desc.n_photons, desc.m_abs,
                   desc.n_squeezed, desc.n_background, desc.quantum]
    # A column the swept parameter does not reach is one repeated value.
    write_csv(os.path.join(out_dir, "sweep.csv"), header,
              [np.arange(values.size), values,
               *(np.broadcast_to(c, values.shape) for c in columns)])
    return 0


def _cmd_figure(cfg, out_dir, fig):
    if fig == "fig3" or fig == "fig4":
        nbar_grid = np.linspace(0.0, cfg.nbar_max, cfg.nbar_points)
        ratio_grid = np.linspace(1.0, cfg.ratio_max, cfg.ratio_points + 1)[1:]
        dataset = (figure3_dataset if fig == "fig3" else figure4_dataset)(
            nbar_grid, ratio_grid)
        write_csv(os.path.join(out_dir, fig + ".csv"),
                  ["nbar", "ratio", "value"], dataset.T)
        return 0
    if fig == "fig5":
        if cfg.mode != "direct":
            raise ConfigError("fig5 needs the direct-rate mode")
        if not cfg.resolved_rates().is_perfect:
            raise ConfigError("fig5 needs the perfect regime (gamma1 = gamma2)")
        if cfg.laser_omega <= 0:
            raise ConfigError("fig5 needs Omega > 0")
        dataset = figure5_dataset(
            sx0_grid=np.linspace(-0.5, 0.5, cfg.sx0_points),
            gamma0=cfg.gamma1, nbar=cfg.nbar, omega=cfg.laser_omega,
            omega_grid=_omega_grid(cfg),
            render_delta=cfg.render_delta,
            render_width=cfg.render_width if cfg.render_width > 0 else None)
        write_csv(os.path.join(out_dir, "fig5.csv"),
                  ["sx0", "delta_omega", "S_in"], dataset.T)
        return 0
    raise ConfigError(f"unknown figure {fig!r} (expected one of {FIGURES})")


def run_subcommand(name, cfg, fig=None):
    """Execute one subcommand; returns the process exit status."""
    out_dir = cfg.out
    os.makedirs(out_dir, exist_ok=True)
    if name == "rates":
        return _cmd_rates(cfg, out_dir)
    if name == "squeezing":
        return _cmd_squeezing(cfg, out_dir)
    if name == "decay":
        return _cmd_decay(cfg, out_dir)
    if name == "steady":
        return _cmd_steady(cfg, out_dir)
    if name == "spectrum":
        return _cmd_spectrum(cfg, out_dir)
    if name == "sweep":
        return _cmd_sweep(cfg, out_dir)
    if name == "figure":
        return _cmd_figure(cfg, out_dir, fig)
    raise ConfigError(f"unknown subcommand {name!r}")


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="sps",
        description="Squeezed-phonon-reservoir simulator for a driven quantum dot")
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name in SUBCOMMANDS:
        p = sub.add_parser(name)
        if name == "figure":
            p.add_argument("figure", choices=FIGURES)
        p.add_argument("--config", required=True, help="configuration file")
        p.add_argument("--engine", choices=ENGINES,
                       help="override the engine from the config")
        p.add_argument("--out", help="override the output directory")
    return parser


def main(argv=None):
    args = _build_parser().parse_args(argv)
    try:
        cfg = parse_config_file(args.config)
        if args.engine:
            cfg.engine = args.engine
        if args.out:
            cfg.out = args.out
        status = run_subcommand(args.subcommand, cfg,
                                fig=getattr(args, "figure", None))
    except ConfigError as exc:
        print(f"sps: config error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, RuntimeError, OSError) as exc:
        print(f"sps: error: {exc}", file=sys.stderr)
        return 1
    return status


if __name__ == "__main__":
    sys.exit(main())
