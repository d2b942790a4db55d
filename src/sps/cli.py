"""Command-line front end: ``sps <subcommand> --config FILE``.

Subcommands: rates, squeezing, decay, steady, spectrum, sweep, figure.
Configuration is a plain-text file of ``key = value`` lines under sections
[bath], [drive], [rates], [run] (see the package README for every key).
Exactly one of two input modes must be used: the physical mode ([bath] +
[drive], the damping rates are computed from the bath spectral density)
or the direct-rate mode ([rates] with gamma1/gamma2/nbar given verbatim).

Outputs are deterministic CSV files (17-significant-digit floats, LF line
endings, fixed column order) plus flat ``key=value`` metadata sidecars,
written by :mod:`sps.output`, so repeated runs of the same config are
byte-identical.
"""

from __future__ import annotations

import argparse
import ast
import functools
import gc
import math
import operator
import os
import sys
import warnings
from dataclasses import MISSING, dataclass, fields, replace

import numpy as np

from . import oracle
from .bloch import BlochVector, _check_phi_choice, _decay_rates, \
    dressed_populations, driven_steady_state, free_evolution
from .output import _axis_texts, write_csv, write_meta
from .physparams import DriveConfig, PhononBathSpec, displacement_factor, \
    phonon_rates
from .reservoir import GRID_BLOCK_POINTS, _BOUNDED, _NBAR_RULE, \
    _check_rule, _declare, figure3_dataset, figure4_dataset, \
    map_to_squeezing, quantum_threshold, reservoir_rates
from .spectrum import DEFAULT_OMEGA_POINTS, default_omega_grid, \
    exact_incoherent_spectrum, figure5_dataset, sum_rule

#: Analytic-vs-numeric comparison tolerances for --engine both.
DECAY_TOL = 1e-8
STEADY_TOL = 1e-8
SPECTRUM_TOL = 1e-8  # relative sup norm against the analytic peak

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


def _config_error(check, *args, line=None):
    """``check(*args)``, with a ValueError it raises made a ConfigError."""
    try:
        return check(*args)
    except ValueError as exc:
        raise ConfigError(str(exc), line) from None


_SWEEP_PARAMS = ("gamma1", "gamma2", "nbar", "phi", "Omega", "sx0")
_SWEEP_QUANTITIES = ("steady", "squeezing")


#: A [run] key, declared on its RunConfig field (see reservoir._declare).
_key = functools.partial(_declare, section="run")
#: A component of the initial Bloch vector; BlochVector checks |s|^2 <= 1/4.
_COMPONENT_RULE = ">= -0.5 and <= 0.5"


@dataclass(kw_only=True)
class RunConfig:
    """Validated configuration for one CLI invocation.

    Its fields declare the [rates] and [run] config keys and [drive]'s
    include_B.  A length or width of 0 selects its automatic value.  A rate,
    frequency or time is bounded, so each grid built from it is finite.
    """

    mode: str                      # "physical" or "direct"
    bath: PhononBathSpec | None = None
    drive: DriveConfig | None = None
    include_b: bool = _declare(False, name="include_B", section="drive")
    # The direct-rate mode's rates; the physical mode computes its own,
    # and its phi is the drive's.
    gamma1: float | None = _declare(rule=_BOUNDED, section="rates")
    gamma2: float | None = _declare(rule=_BOUNDED, section="rates")
    nbar: float = _declare(0.0, _NBAR_RULE, section="rates")
    phi: float = _declare(0.0, section="rates")
    engine: str = _key("analytic", ENGINES)
    out: str = _key(".")
    gamma_rad: float = _key(0.0, _BOUNDED, name="Gamma")
    laser_omega: float = _key(0.0, _BOUNDED, name="Omega")
    sx0: float = _key(0.0, _COMPONENT_RULE)
    sy0: float = _key(0.0, _COMPONENT_RULE)
    sz0: float = _key(0.0, _COMPONENT_RULE)
    t_max: float = _key(0.0, _BOUNDED)         # 0 -> auto
    t_points: int = _key(201, ">= 1")
    omega_span: float = _key(0.0, _BOUNDED)    # 0 -> auto (2*Omega)
    omega_points: int = _key(DEFAULT_OMEGA_POINTS, ">= 1")
    nbar_max: float = _key(3.0, _NBAR_RULE)
    nbar_points: int = _key(201, ">= 1")
    ratio_max: float = _key(10.0, "> 1")
    ratio_points: int = _key(201, ">= 1")
    sx0_points: int = _key(41, ">= 1")
    render_delta: bool = _key(False)
    render_width: float = _key(0.0, ">= 0")    # 0 -> gamma1 (none if 0)
    sweep_param: str = _key("", _SWEEP_PARAMS)
    sweep_start: float = _key(0.0)
    sweep_stop: float = _key(0.0)
    sweep_points: int = _key(0, ">= 2")        # 0 -> not set
    sweep_quantity: str = _key("steady", _SWEEP_QUANTITIES)

    def resolved_rates(self):
        """Reservoir triple for this configuration (either input mode)."""
        gamma1, gamma2, nbar = self.gamma1, self.gamma2, self.nbar
        if self.mode == "physical":
            gamma1, gamma2 = phonon_rates(self.drive, self.bath,
                                          include_b=self.include_b)
            nbar = self.bath.occupation(self.drive.detuning)
        return reservoir_rates(gamma1, gamma2, nbar, phi1=self.phi,
                               phi2=self.phi, gamma_rad=self.gamma_rad)


def _config_keys(*classes):
    """Section -> config key -> the field of ``classes`` that declares it."""
    table = {}
    for cls in classes:
        for f in fields(cls):
            if f.metadata.get("section"):
                table.setdefault(f.metadata["section"], {})[
                    f.metadata["name"] or f.name] = f
    return table


_KEYS = _config_keys(PhononBathSpec, DriveConfig, RunConfig)


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
    if not text:
        raise ConfigError("expected a non-empty string, got ''", line)
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
            if name not in _KEYS:
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
        declared = _KEYS[current].get(key)
        if declared is None:
            raise ConfigError(f"unknown key {key!r} in section [{current}]", lineno)
        if key in sections[current]:
            raise ConfigError(f"duplicate key {key!r} in section [{current}]", lineno)
        parsed = _parse_value(declared.type.removesuffix(" | None"), value,
                              lineno)
        _config_error(_check_rule, key, declared.metadata["rule"], parsed,
                      repr(value), line=lineno)
        sections[current][key] = parsed

    return _build_config(sections)


def _take(cls, values):
    """Construct dataclass ``cls`` from the entries of ``values`` (field
    name -> value) that name its fields, removing them from ``values``."""
    return cls(**{f.name: values.pop(f.name) for f in fields(cls)
                  if f.name in values})


def _build_config(sections):
    has_bath = "bath" in sections
    if has_bath == ("rates" in sections):
        raise ConfigError(
            "exactly one of [bath]+[drive] (physical mode) or [rates] "
            "(direct-rate mode) must be present")
    if has_bath and "drive" not in sections:
        raise ConfigError("physical mode needs a [drive] section")
    if not has_bath and "drive" in sections:
        raise ConfigError("[drive] requires the physical mode ([bath])")

    values = {}  # field name -> value
    for section, declared in _KEYS.items():
        if section not in sections:
            continue
        for key, f in declared.items():
            if key in sections[section]:
                values[f.name] = sections[section][key]
            elif f.default is MISSING:
                raise ConfigError(
                    f"missing required key {key!r} in section [{section}]")
    if has_bath:  # parsing checked each key's range; this is their relation
        bath = _config_error(_take, PhononBathSpec, values)
        drive = _config_error(_take, DriveConfig, values)
        values.update(bath=bath, drive=drive, gamma1=None, gamma2=None,
                      phi=drive.phi)
    cfg = RunConfig(mode="physical" if has_bath else "direct", **values)
    if cfg.sweep_param and cfg.sweep_points:
        swept = np.linspace(cfg.sweep_start, cfg.sweep_stop, cfg.sweep_points)
        _config_error(_check_rule, cfg.sweep_param,
                      _swept_field(cfg).metadata["rule"], swept)
        if cfg.sweep_param == "phi" and cfg.sweep_quantity == "steady":
            for rows in _blocks(swept.size):
                _phi_choice(_config_error(
                    replace(cfg, phi=swept[rows]).resolved_rates))
    return cfg


def _swept_field(cfg):
    """The RunConfig field that declares ``cfg.sweep_param``."""
    return (_KEYS["rates"] | _KEYS["run"])[cfg.sweep_param]


def parse_config_file(path):
    with open(path, "r", encoding="utf-8") as handle:
        return parse_config(handle.read())


def _phi_choice(rr):
    """The driven-system phase 0 or pi/2 of reservoir ``rr``'s reduced
    phase (elementwise), else ConfigError."""
    return _config_error(_check_phi_choice, rr.phi)


def _time_grid(cfg, rates):
    if cfg.t_max > 0:
        t_max = cfg.t_max
    else:
        nonzero = [float(r) for r in _decay_rates(rates) if r > 0]
        t_max = 10.0 / min(nonzero) if nonzero else 1.0
        _config_error(_check_rule, "automatic t_max", _BOUNDED, t_max)
    return np.linspace(0.0, t_max, cfg.t_points)


def _spectrum_drive(cfg, rr, command):
    """The phase choice and frequency grid of a spectrum ``command`` runs on
    reservoir ``rr``, after its check that the laser drives the dot."""
    phi_choice = _phi_choice(rr)
    if cfg.laser_omega <= 0:
        raise ConfigError(f"{command} needs a resonant drive: set Omega > 0")
    if cfg.omega_span > 0:
        return phi_choice, np.linspace(-cfg.omega_span, cfg.omega_span,
                                       cfg.omega_points)
    return phi_choice, default_omega_grid(cfg.laser_omega, cfg.omega_points)


# ----------------------------------------------------------------------
# Subcommands
# ----------------------------------------------------------------------

def _cmd_rates(cfg, out_dir):
    rr = cfg.resolved_rates()
    write_csv(os.path.join(out_dir, "rates.csv"),
              ["gamma1", "gamma2", "nbar", "gamma_s", "gamma_n", "gamma_m",
               "phi", "Gamma"],
              [[[rr.gamma1], [rr.gamma2], [rr.nbar], [rr.gamma_s],
                [rr.gamma_n], [rr.gamma_m], [rr.phi], [rr.gamma_rad]]])
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
    write_csv(os.path.join(out_dir, "squeezing.csv"),
              ["regime", "gamma_eff", "N", "M_abs", "Ns", "Nb", "quantum",
               "nbar_threshold"],
              [[[desc.regime], [desc.gamma_eff], [desc.n_photons],
                [desc.m_abs], [desc.n_squeezed], [desc.n_background],
                [desc.quantum], [quantum_threshold(rr.gamma1, rr.gamma2)]]])
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
        return free_evolution(state0, rr, t_grid)

    def numeric():
        return oracle.rho_to_bloch(oracle.propagate(
            oracle.bloch_to_rho(state0), oracle.build_liouvillian(rr), t_grid))

    def write(stem, state):
        write_csv(stem + ".csv", ["t", "sx", "sy", "sz"],
                  [[t_grid, state.sx, state.sy, state.sz]])

    return _run_engines(cfg, out_dir, "decay", analytic, numeric, write,
                        _bloch_deviation, DECAY_TOL)


def _cmd_steady(cfg, out_dir):
    rr = cfg.resolved_rates()
    phi_choice = _phi_choice(rr)

    def analytic():
        return driven_steady_state(rr, cfg.laser_omega, phi_choice, sx0=cfg.sx0)

    def numeric():
        lv = oracle.build_liouvillian(rr, omega=cfg.laser_omega, laser_on=True)
        rho0 = oracle.bloch_to_rho(BlochVector(cfg.sx0, cfg.sy0, cfg.sz0))
        return oracle.rho_to_bloch(oracle.stationary_state(lv, rho0=rho0))

    def write(stem, state):
        plus, minus = dressed_populations(state)
        write_csv(stem + ".csv", ["sx", "sy", "sz", "rho_plus", "rho_minus"],
                  [[[state.sx], [state.sy], [state.sz], [plus], [minus]]])

    return _run_engines(cfg, out_dir, "steady", analytic, numeric, write,
                        _bloch_deviation, STEADY_TOL)


def _write_spectrum(stem, result):
    write_csv(stem + ".csv", ["delta_omega", "S_in"],
              [[result.omega_grid, result.incoherent]])
    write_meta(stem + ".meta",
               {"engine": result.engine,
                "coherent_weight": result.coherent_weight,
                "zero_width_weight": result.zero_width_weight,
                "sum_rule": sum_rule(result),
                "fluctuation_total": result.fluctuation_total})


def _spectrum_deviation(analytic, numeric):
    """Sup-norm deviation, also relative to the analytic peak."""
    peak = float(np.abs(analytic.incoherent).max())
    dev = float(np.abs(analytic.incoherent - numeric.incoherent).max())
    return {"supnorm_deviation": dev, "peak": peak,
            "relative_deviation": dev / peak if peak > 0 else dev}


def _cmd_spectrum(cfg, out_dir):
    rr = cfg.resolved_rates()
    phi_choice, grid = _spectrum_drive(cfg, rr, "spectrum")

    def analytic():
        return exact_incoherent_spectrum(rr, cfg.laser_omega, phi_choice,
                                         sx0=cfg.sx0, omega_grid=grid)

    def numeric():
        return oracle.regression_spectrum(
            rr, cfg.laser_omega, sx0=cfg.sx0, sy0=cfg.sy0, sz0=cfg.sz0,
            omega_grid=grid)

    return _run_engines(cfg, out_dir, "spectrum", analytic, numeric,
                        _write_spectrum, _spectrum_deviation, SPECTRUM_TOL)


def _blocks(size, step=GRID_BLOCK_POINTS):
    """The slices of ``range(size)`` taken ``step`` items at a time."""
    return (slice(start, start + step) for start in range(0, size, step))


def _cmd_sweep(cfg, out_dir):
    if cfg.mode != "direct":
        raise ConfigError("sweep supports the direct-rate mode only")
    if not (cfg.sweep_param and cfg.sweep_points):
        raise ConfigError("sweep needs sweep_param/sweep_start/sweep_stop/sweep_points")
    values = np.linspace(cfg.sweep_start, cfg.sweep_stop, cfg.sweep_points)
    steady = cfg.sweep_quantity == "steady"
    header = ["index", cfg.sweep_param, *(
        ["sx", "sy", "sz"] if steady else
        ["regime", "gamma_eff", "N", "M_abs", "Ns", "Nb", "quantum"])]
    name = _swept_field(cfg).name

    def blocks():
        for rows in _blocks(values.size):
            block = values[rows]
            swept = replace(cfg, **{name: block})
            rr = swept.resolved_rates()
            if steady:
                state = driven_steady_state(rr, swept.laser_omega,
                                            _phi_choice(rr), sx0=swept.sx0)
                columns = [state.sx, state.sy, state.sz]
            else:
                desc = map_to_squeezing(rr)
                columns = [desc.regime, desc.gamma_eff, desc.n_photons,
                           desc.m_abs, desc.n_squeezed, desc.n_background,
                           desc.quantum]
            # A column the swept parameter does not reach is one value.
            yield [np.arange(rows.start, rows.start + block.size), block,
                   *(np.broadcast_to(c, block.shape) for c in columns)]

    write_csv(os.path.join(out_dir, "sweep.csv"), header, blocks())
    return 0


def _cmd_figure(cfg, out_dir, fig):
    if fig == "fig3" or fig == "fig4":
        header = ["nbar", "ratio", "value"]
        outer = np.linspace(0.0, cfg.nbar_max, cfg.nbar_points)
        inner = np.linspace(1.0, cfg.ratio_max, cfg.ratio_points + 1)[1:]
        dataset = figure3_dataset if fig == "fig3" else figure4_dataset

        def table(rows):
            return dataset(rows, inner)
    elif fig == "fig5":
        rr = cfg.resolved_rates()
        if not rr.is_perfect:
            raise ConfigError("fig5 needs the perfect regime (gamma1 = gamma2)")
        header = ["sx0", "delta_omega", "S_in"]
        phi_choice, inner = _spectrum_drive(cfg, rr, "fig5")
        outer = np.linspace(-0.5, 0.5, cfg.sx0_points)
        table = functools.partial(
            figure5_dataset, rr, cfg.laser_omega, phi_choice, omega_grid=inner,
            render_width=(cfg.render_width or rr.gamma1 or None)
            if cfg.render_delta else None)
    else:
        raise ConfigError(f"unknown figure {fig!r} (expected one of {FIGURES})")
    # The table is outer-major over the grid: each axis value is formatted
    # once, and its text repeated.
    outer_texts, inner_texts = _axis_texts(outer), _axis_texts(inner)

    def blocks():
        step = max(1, GRID_BLOCK_POINTS // inner.size)  # whole outer rows
        for rows in _blocks(outer.size, step):
            texts = outer_texts[rows]
            yield [np.repeat(texts, inner.size),
                   np.tile(inner_texts, texts.size), table(outer[rows])[:, 2]]

    write_csv(os.path.join(out_dir, fig + ".csv"), header, blocks())
    return 0


_COMMANDS = {"rates": _cmd_rates, "squeezing": _cmd_squeezing,
             "decay": _cmd_decay, "steady": _cmd_steady,
             "spectrum": _cmd_spectrum, "sweep": _cmd_sweep,
             "figure": _cmd_figure}
SUBCOMMANDS = tuple(_COMMANDS)


def run_subcommand(name, cfg, fig=None):
    """Execute one subcommand; returns the process exit status.  A run that
    fails before its first write into ``cfg.out`` leaves no directory."""
    if name not in _COMMANDS:
        raise ConfigError(f"unknown subcommand {name!r}")
    return _COMMANDS[name](cfg, cfg.out, *([fig] if name == "figure" else []))


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="sps",
        description="Squeezed-phonon-reservoir simulator for a driven quantum dot")
    parser.add_argument("subcommand", choices=SUBCOMMANDS)
    parser.add_argument("figure", nargs="?", choices=FIGURES,
                        help="the figure table to write (figure only)")
    parser.add_argument("--config", required=True, help="configuration file")
    parser.add_argument("--engine", choices=ENGINES,
                        help="override the engine from the config")
    parser.add_argument("--out", help="override the output directory")
    return parser


def main(argv=None):
    parser = _build_parser()
    args = parser.parse_intermixed_args(argv)
    if args.subcommand == "figure" and args.figure is None:
        parser.error("the following arguments are required: figure")
    if args.subcommand != "figure" and args.figure is not None:
        parser.error(f"unrecognized arguments: {args.figure}")
    try:
        cfg = parse_config_file(args.config)
        if args.engine:
            cfg.engine = args.engine
        if args.out:
            cfg.out = args.out
        status = run_subcommand(args.subcommand, cfg, fig=args.figure)
    except ConfigError as exc:
        print(f"sps: config error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, RuntimeError, OSError, MemoryError) as exc:
        print(f"sps: error: {exc}", file=sys.stderr)
        return 1
    return status


def run(argv=None):
    """Process entry of ``sps``: :func:`main` after :func:`gc.freeze`, with
    each warning printed as one ``sps: warning:`` line.

    The objects the imports made live until the process exits; frozen, no
    collection walks them again, the one at interpreter exit included.
    Objects made later are collected as usual.  A warning's line names
    neither the install path nor a source line, so stderr does not depend
    on where sps lives.  :func:`main` and ``import sps`` leave the collector
    and the warning machinery alone, since tests and library code call
    them inside a longer-lived process.
    """
    gc.freeze()
    warnings.formatwarning = lambda message, *_: f"sps: warning: {message}\n"
    return main(argv)


if __name__ == "__main__":
    sys.exit(run())
