"""Seeded inputs for the three benchmark workloads.

Each workload is a fixed list of CLI invocations.  The seed only draws the
physical parameters inside fixed per-case ranges; grid sizes, and with them
the amount of output, do not depend on it.  The ranges are narrow so that
the cost of a case, and the oracle agreement it reaches, barely move
between seeds.  Configs are written to the run's work directory and the
program receives only ``--config`` and ``--out``.
"""

from __future__ import annotations

import os
import random
from dataclasses import dataclass, field

RATES = ("gamma1", "gamma2", "nbar", "gamma_s", "gamma_n", "gamma_m", "phi",
         "Gamma")
SQUEEZING = ("regime", "gamma_eff", "N", "M_abs", "Ns", "Nb", "quantum",
             "nbar_threshold")
DECAY = ("t", "sx", "sy", "sz")
STEADY = ("sx", "sy", "sz", "rho_plus", "rho_minus")
SPECTRUM = ("delta_omega", "S_in")
SWEEP_STEADY = ("sx", "sy", "sz")
SWEEP_SQUEEZING = ("regime", "gamma_eff", "N", "M_abs", "Ns", "Nb", "quantum")
FIGURE = ("nbar", "ratio", "value")
FIG5 = ("sx0", "delta_omega", "S_in")

#: The CLI's default t_points, used where a config leaves it out.
T_POINTS = 201


@dataclass
class Output:
    """One CSV a command must write."""

    file: str
    header: tuple
    rows: int
    nan_columns: tuple = ()   # columns documented to hold NaN


@dataclass
class Command:
    """One CLI invocation and what its outputs must look like.

    ``recompute`` names the in-process row recomputation of a bulk output,
    ``oracle`` the oracle comparison made on a sample of an analytic output.
    """

    args: tuple
    config: str
    out: str
    outputs: list = field(default_factory=list)
    compare: tuple = ()       # *_compare.meta files that must say pass
    recompute: str = ""
    oracle: str = ""

    def argv(self):
        return [*self.args, "--config", self.config, "--out", self.out]


def _config_text(sections):
    lines = []
    for section, keys in sections.items():
        lines.append(f"[{section}]")
        for key, value in keys.items():
            if isinstance(value, bool):
                value = "true" if value else "false"
            elif isinstance(value, float):
                value = repr(value)
            lines.append(f"{key} = {value}")
    return "\n".join(lines) + "\n"


class _CommandList:
    def __init__(self, workdir):
        self.workdir = workdir
        self.commands = []

    def add(self, args, sections, outputs, **kw):
        index = len(self.commands)
        config = os.path.join(self.workdir, "cfg", f"{index:02d}.cfg")
        out = os.path.join(self.workdir, "out", f"{index:02d}")
        os.makedirs(os.path.dirname(config), exist_ok=True)
        with open(config, "w", encoding="utf-8") as handle:
            handle.write(_config_text(sections))
        self.commands.append(Command(tuple(args), config, out, outputs, **kw))


def _physical(rng, **bath):
    return {
        "bath": {"alpha": rng.uniform(2.4e-7, 2.7e-7), "omega_c": 1500.0,
                 **bath},
        "drive": {"omega1": rng.uniform(60.0, 70.0),
                  "omega2": rng.uniform(75.0, 85.0),
                  "detuning": rng.uniform(470.0, 510.0),
                  "phi1": 0.0, "phi2": 0.0, "include_B": True},
        "run": {"engine": "analytic"},
    }


def cold_cli(rng, b):
    """Every subcommand once or twice on small inputs, analytic engine."""
    # Fixed copies of the shipped presets, with the engine set to analytic.
    b.add(["rates"], {
        "bath": {"alpha": 2.535e-7, "omega_c": 1500.0, "nbar": 0.5},
        "drive": {"omega1": 70.0, "omega2": 70.0, "detuning": 490.0,
                  "phi1": 0.0, "phi2": 0.0},
        "run": {"engine": "analytic", "Gamma": 0.0}},
        [Output("rates.csv", RATES, 1)])
    locked = {"gamma1": 1.0, "gamma2": 1.0, "nbar": 0.5, "phi": "pi/2"}
    b.add(["steady"], {"rates": locked, "run": {
        "engine": "analytic", "Omega": 20.0, "sx0": 0.3}},
        [Output("steady.csv", STEADY, 1)], oracle="steady")
    b.add(["spectrum"], {"rates": locked, "run": {
        "engine": "analytic", "Omega": 20.0, "sx0": 0.5,
        "omega_points": 1001}},
        [Output("spectrum.csv", SPECTRUM, 1001)])

    # Physical mode: thermal and pinned occupation, <B> renormalisation on.
    b.add(["rates"], _physical(rng, temperature=rng.uniform(2.0, 6.0)),
          [Output("rates.csv", RATES, 1)])
    b.add(["squeezing"], _physical(rng, nbar=rng.uniform(0.3, 0.7)),
          [Output("squeezing.csv", SQUEEZING, 1)])
    physical_decay = _physical(rng, temperature=rng.uniform(2.0, 6.0))
    physical_decay["run"].update({"sx0": 0.3, "sz0": -0.2})
    b.add(["decay"], physical_decay, [Output("decay.csv", DECAY, T_POINTS)])

    # Direct-rate mode.
    ordinary = {"gamma1": 1.0, "gamma2": rng.uniform(2.9, 3.1),
                "nbar": rng.uniform(0.45, 0.55)}
    b.add(["rates"], {"rates": dict(ordinary, phi=rng.uniform(0.0, 3.0)),
                      "run": {"engine": "analytic"}},
          [Output("rates.csv", RATES, 1)])
    b.add(["squeezing"], {"rates": {"gamma1": 1.0,
                                    "gamma2": rng.uniform(0.15, 0.25),
                                    "nbar": rng.uniform(0.3, 0.7)},
                          "run": {"engine": "analytic"}},
          [Output("squeezing.csv", SQUEEZING, 1)])
    b.add(["decay"], {"rates": dict(ordinary, phi=0.0), "run": {
        "engine": "analytic", "sx0": 0.2, "sy0": 0.1, "sz0": -0.2}},
        [Output("decay.csv", DECAY, T_POINTS)], oracle="decay")
    b.add(["steady"], {"rates": dict(ordinary, phi=0.0), "run": {
        "engine": "analytic", "Omega": rng.uniform(6.0, 10.0)}},
        [Output("steady.csv", STEADY, 1)], oracle="steady")
    b.add(["spectrum"], {"rates": dict(ordinary, phi="pi/2"), "run": {
        "engine": "analytic", "Omega": rng.uniform(7.8, 8.2),
        "sx0": 0.2, "omega_points": 1001}},
        [Output("spectrum.csv", SPECTRUM, 1001)], oracle="spectrum")
    b.add(["sweep"], {"rates": dict(ordinary, phi=0.0), "run": {
        "engine": "analytic", "sweep_param": "Omega", "sweep_start": 0.5,
        "sweep_stop": rng.uniform(15.0, 25.0), "sweep_points": 11,
        "sweep_quantity": "steady"}},
        [Output("sweep.csv", ("index", "Omega") + SWEEP_STEADY, 11)],
        recompute="sweep")
    small_grid = {"nbar_max": rng.uniform(2.5, 3.5), "nbar_points": 11,
                  "ratio_max": rng.uniform(8.0, 12.0), "ratio_points": 10}
    b.add(["figure", "fig3"], {"rates": ordinary, "run": small_grid},
          [Output("fig3.csv", FIGURE, 110)], recompute="fig3")
    b.add(["figure", "fig4"], {"rates": ordinary, "run": small_grid},
          [Output("fig4.csv", FIGURE, 110, ("value",))], recompute="fig4")


def oracle_xcheck(rng, b):
    """decay, steady and spectrum with --engine both over six regimes."""
    def u(lo, hi):
        return rng.uniform(lo, hi)

    omega_points = 1001
    cases = [
        # ordinary regime at phi = 0 and at phi = pi/2
        ({"gamma1": 1.0, "gamma2": u(2.9, 3.1), "nbar": u(0.45, 0.55),
          "phi": 0.0},
         {"Omega": u(7.5, 8.5), "sx0": u(0.15, 0.25), "sz0": u(-0.25, -0.21)}),
        ({"gamma1": 1.0, "gamma2": u(2.9, 3.1), "nbar": u(0.45, 0.55),
          "phi": "pi/2"},
         {"Omega": u(7.5, 8.5), "sx0": u(0.15, 0.25), "sz0": u(-0.25, -0.21)}),
        # inverted regime
        ({"gamma1": 1.0, "gamma2": u(0.19, 0.21), "nbar": u(0.48, 0.52),
          "phi": 0.0},
         {"Omega": u(7.8, 8.2), "sx0": u(0.18, 0.22), "sz0": u(0.18, 0.22)}),
        # perfect regime, locked at sx0 = 1/2
        ({"gamma1": (g := u(0.95, 1.05)), "gamma2": g, "nbar": u(0.45, 0.55),
          "phi": "pi/2"},
         {"Omega": u(19.0, 21.0), "sx0": 0.5}),
        # Gamma > 0 near the locked point: the stiff case
        ({"gamma1": 1.0, "gamma2": u(1.045, 1.055), "nbar": u(0.47, 0.53),
          "phi": "pi/2"},
         {"Gamma": u(0.5, 0.54), "Omega": u(4.8, 5.2), "sx0": 0.3}),
        # weak drive
        ({"gamma1": 1.0, "gamma2": u(2.9, 3.1), "nbar": u(0.45, 0.55),
          "phi": 0.0},
         {"Omega": u(0.28, 0.32), "sx0": u(0.05, 0.15), "sz0": u(-0.35, -0.25)}),
    ]
    for rates, run in cases:
        sections = {"rates": rates, "run": {
            "engine": "both", "omega_points": omega_points, **run}}
        for sub, header, rows in (("decay", DECAY, T_POINTS),
                                  ("steady", STEADY, 1),
                                  ("spectrum", SPECTRUM, omega_points)):
            b.add([sub], sections,
                  [Output(f"{sub}_{engine}.csv", header, rows)
                   for engine in ("analytic", "numeric")],
                  compare=(f"{sub}_compare.meta",))


def bulk_datasets(rng, b):
    """Large single outputs: two sweeps and the three figure datasets."""
    sweep_points = 10000
    b.add(["sweep"], {
        "rates": {"gamma1": 1.0, "gamma2": rng.uniform(2.5, 3.5),
                  "nbar": rng.uniform(0.3, 0.7), "phi": 0.0},
        "run": {"engine": "analytic", "sweep_param": "Omega",
                "sweep_start": 0.1, "sweep_stop": rng.uniform(35.0, 45.0),
                "sweep_points": sweep_points, "sweep_quantity": "steady"}},
        [Output("sweep.csv", ("index", "Omega") + SWEEP_STEADY, sweep_points)],
        recompute="sweep", oracle="sweep")
    b.add(["sweep"], {
        "rates": {"gamma1": 1.0, "gamma2": rng.uniform(3.5, 4.5)},
        "run": {"engine": "analytic", "sweep_param": "nbar",
                "sweep_start": 0.0, "sweep_stop": rng.uniform(2.5, 3.5),
                "sweep_points": sweep_points, "sweep_quantity": "squeezing"}},
        [Output("sweep.csv", ("index", "nbar") + SWEEP_SQUEEZING,
                sweep_points)],
        recompute="sweep")
    nbar_points, ratio_points = 251, 250
    grid = {"engine": "analytic", "nbar_points": nbar_points,
            "ratio_points": ratio_points}
    rates = {"gamma1": 1.0, "gamma2": 4.0, "nbar": 0.5}
    for fig, nan_columns in (("fig3", ()), ("fig4", ("value",))):
        b.add(["figure", fig], {"rates": rates, "run": dict(
            grid, nbar_max=rng.uniform(2.5, 3.5),
            ratio_max=rng.uniform(8.0, 12.0))},
            [Output(f"{fig}.csv", FIGURE, nbar_points * ratio_points,
                    nan_columns)],
            recompute=fig)
    sx0_points, omega_points = 21, 3001
    gamma0 = rng.uniform(0.9, 1.1)
    b.add(["figure", "fig5"], {
        "rates": {"gamma1": gamma0, "gamma2": gamma0,
                  "nbar": rng.uniform(0.4, 0.6), "phi": "pi/2"},
        "run": {"engine": "analytic", "Omega": rng.uniform(18.0, 22.0),
                "sx0_points": sx0_points, "omega_points": omega_points}},
        [Output("fig5.csv", FIG5, sx0_points * omega_points)],
        recompute="fig5", oracle="fig5")


WORKLOADS = {"cold_cli": cold_cli, "oracle_xcheck": oracle_xcheck,
             "bulk_datasets": bulk_datasets}


def build(workload, seed, workdir):
    """Write the workload's configs under ``workdir``; return its commands."""
    plan = _CommandList(workdir)
    WORKLOADS[workload](random.Random(f"{workload}:{seed}"), plan)
    return plan.commands
