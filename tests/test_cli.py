"""CLI: config parsing, subcommand outputs, dual-engine comparisons,
determinism of the figure datasets."""

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sps
from sps import cli
from sps.cli import (
    CSV_CHUNK_ROWS,
    ConfigError,
    format_value,
    main,
    parse_config,
    run_subcommand,
    write_csv,
)

PRESETS = Path(__file__).resolve().parent.parent / "presets"

MINIMAL_DIRECT = """
[rates]
gamma1 = 1
gamma2 = 1
nbar = 0.5
phi = pi/2

[run]
Omega = 20
"""


class TestParseConfig:
    def test_minimal_direct_mode(self):
        cfg = parse_config(MINIMAL_DIRECT)
        assert cfg.mode == "direct"
        assert (cfg.gamma1, cfg.gamma2, cfg.nbar) == (1.0, 1.0, 0.5)
        assert cfg.phi == pytest.approx(math.pi / 2.0)
        assert cfg.laser_omega == 20.0
        assert cfg.engine == "analytic"

    def test_both_modes_rejected(self):
        text = MINIMAL_DIRECT + "\n[bath]\nalpha = 1e-7\nomega_c = 1500\nnbar = 0.5\n"
        with pytest.raises(ConfigError, match="exactly one"):
            parse_config(text)

    def test_fig5_preset_parses_to_reference_point(self):
        cfg = parse_config((PRESETS / "fig5.cfg").read_text())
        assert cfg.gamma1 == cfg.gamma2 == 1.0
        assert cfg.nbar == 0.5
        assert cfg.phi == pytest.approx(math.pi / 2.0)
        assert cfg.laser_omega == 20.0
        assert cfg.render_delta is True

    def test_physical_preset(self):
        cfg = parse_config((PRESETS / "physical.cfg").read_text())
        assert cfg.mode == "physical"
        rr = cfg.resolved_rates()
        assert rr.gamma1 == pytest.approx(2 * math.pi * 70**2 * 2.535e-7 * 490)
        assert rr.nbar == 0.5  # pinned by the bath nbar key

    def test_duplicate_key_reports_line(self):
        text = "[rates]\ngamma1 = 1\ngamma1 = 2\ngamma2 = 1\n"
        with pytest.raises(ConfigError, match="line 3.*duplicate"):
            parse_config(text)

    def test_unknown_key_reports_line(self):
        text = "[rates]\ngamma1 = 1\ngamma2 = 1\nbogus = 3\n"
        with pytest.raises(ConfigError, match="line 4.*unknown key"):
            parse_config(text)

    def test_unparseable_number_reports_line(self):
        text = "[rates]\ngamma1 = fast\ngamma2 = 1\n"
        with pytest.raises(ConfigError, match="line 2.*unparseable"):
            parse_config(text)

    def test_rejects_import_smuggling(self):
        with pytest.raises(ConfigError, match="unparseable"):
            parse_config("[rates]\ngamma1 = __import__('os')\ngamma2 = 1\n")

    def test_pi_expressions(self):
        text = "[rates]\ngamma1 = 1\ngamma2 = 2\nphi = 0.25*pi\n"
        assert parse_config(text).phi == pytest.approx(0.25 * math.pi)

    def test_arithmetic_expressions(self):
        text = "[rates]\ngamma1 = -(1 - 3) * +2 / 4\ngamma2 = 2\nphi = (pi)/2\n"
        cfg = parse_config(text)
        assert cfg.gamma1 == 1.0 and cfg.phi == math.pi / 2

    @pytest.mark.parametrize("expr", ["2**100", "2 % 3", "abs(-1)",
                                      "[1]", "True", "1j", "e", "'1'", ""])
    def test_rejects_other_expressions(self, expr):
        with pytest.raises(ConfigError, match="line 2: unparseable"):
            parse_config(f"[rates]\ngamma1 = {expr}\ngamma2 = 1\n")

    @pytest.mark.parametrize("expr", ["1e400", "-1e400", "0*1e400",
                                      "1e308*10"])
    def test_rejects_non_finite(self, expr):
        with pytest.raises(ConfigError, match="line 3: non-finite number"):
            parse_config(f"[rates]\ngamma1 = 1\ngamma2 = {expr}\n")

    def test_phi_sweep_checked_at_config_time(self, tmp_path, capsys):
        text = ("[rates]\ngamma1 = 1\ngamma2 = 1\nnbar = 0.5\n[run]\n"
                "Omega = 20\nsweep_param = phi\nsweep_start = 0\n"
                "sweep_stop = 1\nsweep_points = 3\nsweep_quantity = steady\n")
        with pytest.raises(ConfigError, match="phi in {0, pi/2}.*got 0.5"):
            parse_config(text)
        (tmp_path / "cfg").write_text(text)
        out = tmp_path / "out"
        assert run_cli(["sweep", "--config", tmp_path / "cfg",
                        "--out", out]) == 2
        assert "config error" in capsys.readouterr().err
        assert not out.exists()

    def test_phi_sweep_over_driven_phases(self, tmp_path):
        (tmp_path / "cfg").write_text(
            "[rates]\ngamma1 = 1\ngamma2 = 1\nnbar = 0.5\n[run]\n"
            "Omega = 20\nsx0 = 0.3\nsweep_param = phi\nsweep_start = 0\n"
            "sweep_stop = pi/2\nsweep_points = 2\nsweep_quantity = steady\n")
        assert run_cli(["sweep", "--config", tmp_path / "cfg",
                        "--out", tmp_path]) == 0
        rows = (tmp_path / "sweep.csv").read_text().splitlines()[1:]
        # Only phi = pi/2 locks the coherence at sx0.
        assert [row.split(",")[2] for row in rows] == ["0", "0.29999999999999999"]

    def test_comments_and_blank_lines(self):
        text = "# header\n\n[rates]\ngamma1 = 1  # inline\ngamma2 = 2\n"
        assert parse_config(text).gamma1 == 1.0

    def test_missing_required_key(self):
        with pytest.raises(ConfigError, match="missing required key"):
            parse_config("[rates]\ngamma1 = 1\n")

    def test_tau_points_is_not_a_key(self):
        # The oracle's spectrum is exact: it has no correlation-time grid.
        with pytest.raises(ConfigError, match="line 10: unknown key 'tau_points'"):
            parse_config(MINIMAL_DIRECT + "tau_points = 4096\n")

    @pytest.mark.parametrize("key,value,command", [
        ("t_points", "0", ["decay"]),
        ("t_points", "-3", ["decay"]),
        ("omega_points", "0", ["spectrum"]),
        ("nbar_points", "0", ["figure", "fig3"]),
        ("ratio_points", "0", ["figure", "fig4"]),
        ("sx0_points", "0", ["figure", "fig5"]),
        ("t_max", "-1", ["decay"]),
        ("omega_span", "-2", ["spectrum"]),
        ("render_width", "-0.5", ["figure", "fig5"]),
        ("nbar_max", "-1", ["figure", "fig3"]),
        ("ratio_max", "0.5", ["figure", "fig3"]),
        ("ratio_max", "1", ["figure", "fig4"]),
    ])
    def test_out_of_range_run_key_reports_line(self, tmp_path, capsys,
                                               key, value, command):
        (tmp_path / "cfg").write_text(MINIMAL_DIRECT + f"{key} = {value}\n")
        out = tmp_path / "out"
        assert run_cli([*command, "--config", tmp_path / "cfg",
                        "--out", out]) == 2
        rule = "> 1," if key == "ratio_max" else ">= "
        assert f"line 10: {key} must be {rule}" in capsys.readouterr().err
        assert not out.exists()

    def test_run_keys_at_their_minimum(self):
        cfg = parse_config(MINIMAL_DIRECT + "t_points = 1\nomega_points = 1\n"
                           "nbar_points = 1\nratio_points = 1\nsx0_points = 1\n"
                           "t_max = 0\nomega_span = 0\nrender_width = 0\n"
                           "sweep_points = 0\nnbar_max = 0\n")
        assert (cfg.t_points, cfg.omega_points, cfg.nbar_points,
                cfg.ratio_points, cfg.sx0_points) == (1, 1, 1, 1, 1)
        assert (cfg.t_max == cfg.omega_span == cfg.render_width
                == cfg.nbar_max == 0.0)

    def test_bad_engine(self):
        with pytest.raises(ConfigError, match="engine"):
            parse_config("[rates]\ngamma1 = 1\ngamma2 = 1\n[run]\nengine = fft\n")


def _cell_text(value):
    """The per-type rule every CSV cell and meta value has always followed."""
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (float, np.floating)):
        return f"{float(value):.17g}"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return str(value)


class TestFormatValue:
    def test_roundtrip_precision(self):
        x = 0.1 + 0.2
        assert float(format_value(x)) == x

    def test_bool_and_inf(self):
        assert format_value(True) == "true"
        assert format_value(np.bool_(False)) == "false"
        assert format_value(math.inf) == "inf"

    @pytest.mark.parametrize("value", [
        -0.0, math.nan, -math.inf, 5e-324, 1e308, np.float32(0.1), 7,
        np.int64(-3), np.uint64(2**64 - 1), 10**30, "ordinary", None])
    def test_per_type_rule(self, value):
        assert format_value(value) == _cell_text(value)


_SPECIAL_FLOATS = [math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324,
                   -2.2250738585072014e-308 / 3, 1e308, -1e308]
_INT64 = st.integers(-2**63, 2**63 - 1)


@st.composite
def _csv_column(draw, n_rows):
    """One CSV column of ``n_rows`` cells, in one of the shapes callers pass."""
    kind = draw(st.sampled_from(["float", "int", "bool", "str", "broadcast"]))
    if kind == "float":
        pool = draw(st.lists(st.one_of(st.floats(), st.sampled_from(_SPECIAL_FLOATS)),
                             min_size=1, max_size=12))
        dtype = float
    elif kind == "int":
        pool = draw(st.lists(_INT64, min_size=1, max_size=12))
        dtype = np.int64
    elif kind == "bool":
        pool = draw(st.lists(st.booleans(), min_size=1, max_size=2))
        dtype = bool
    elif kind == "str":
        # A numpy string array drops trailing NULs; the list form keeps them.
        text = st.text(st.characters(blacklist_categories=("Cs",)), max_size=6)
        pool = draw(st.lists(text, min_size=1, max_size=6))
        dtype = str
    else:
        scalar = draw(st.one_of(st.floats(), _INT64, st.booleans()))
        return np.broadcast_to(np.asarray(scalar), (n_rows,))
    seed = draw(st.integers(0, 2**32 - 1))
    picks = np.random.default_rng(seed).integers(len(pool), size=n_rows)
    array = np.array(pool, dtype=dtype)[picks]
    form = draw(st.sampled_from(["array", "list", "numpy scalars"]))
    if form == "array":
        return array
    if form == "list":
        return [pool[i] for i in picks]
    return list(array)


@st.composite
def _table(draw):
    chunk = CSV_CHUNK_ROWS
    n_rows = draw(st.sampled_from([0, 1, chunk - 1, chunk, chunk + 1,
                                   3 * chunk + 1]))
    width = draw(st.integers(1, 4))
    return [draw(_csv_column(n_rows)) for _ in range(width)]


class TestWriteCsv:
    @settings(max_examples=40, deadline=None)
    @given(columns=_table())
    def test_bytes_equal_per_row_reference(self, tmp_path_factory, columns):
        path = tmp_path_factory.mktemp("csv") / "t.csv"
        header = [f"c{j}" for j in range(len(columns))]
        write_csv(path, header, columns)
        expected = ",".join(header) + "\n" + "".join(
            ",".join(format_value(cell) for cell in row) + "\n"
            for row in zip(*columns))
        assert path.read_bytes() == expected.encode("utf-8")
        for column in columns:
            for cell in list(column[:3]) + list(column[-3:]):
                assert format_value(cell) == _cell_text(cell)

    def test_text_keeps_trailing_nul(self, tmp_path):
        assert format_value("a\x00") == "a\x00"
        path = tmp_path / "t.csv"
        write_csv(path, ["name", "x"], [["a\x00", "b"], [1, 2]])
        assert path.read_bytes() == b"name,x\na\x00,1\nb,2\n"

    @pytest.mark.parametrize("column", [
        [0.1, "a"], ["a", 1], ["a", b"b"], [True, "x"]])
    def test_mixed_text_column_rejected(self, tmp_path, column):
        # numpy would make these strings, e.g. 0.1 as "0.1", not %.17g.
        path = tmp_path / "t.csv"
        with pytest.raises(ValueError, match="non-str"):
            write_csv(path, ["c"], [column])
        assert not path.exists()

    def test_unequal_lengths_rejected(self, tmp_path):
        path = tmp_path / "t.csv"
        with pytest.raises(ValueError, match="equal length"):
            write_csv(path, ["delta_omega", "S_in"],
                      [np.linspace(-1.0, 1.0, 5), np.zeros(4)])
        with pytest.raises(ValueError, match="2 CSV header names for 3"):
            write_csv(path, ["delta_omega", "S_in"], [[0.0], [1.0], [2.0]])
        assert not path.exists()


def run_cli(args):
    return main([str(a) for a in args])


class TestSubcommands:
    def test_rates_physical(self, tmp_path):
        code = run_cli(["rates", "--config", PRESETS / "physical.cfg",
                        "--out", tmp_path])
        assert code == 0
        header, row = (tmp_path / "rates.csv").read_text().splitlines()
        assert header == "gamma1,gamma2,nbar,gamma_s,gamma_n,gamma_m,phi,Gamma"
        gamma1 = float(row.split(",")[0])
        assert gamma1 == pytest.approx(3.8242827283634298)
        meta = dict(line.split("=", 1) for line in
                    (tmp_path / "rates.meta").read_text().splitlines())
        assert meta["mode"] == "physical"

    def test_squeezing_output(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "cfg").write_text(
            "[rates]\ngamma1 = 1\ngamma2 = 4\nnbar = 0\n")
        assert run_cli(["squeezing", "--config", "cfg"]) == 0
        row = (tmp_path / "squeezing.csv").read_text().splitlines()[1].split(",")
        assert row[0] == "ordinary"
        assert float(row[2]) == pytest.approx(1.0 / 3.0)  # N
        assert float(row[3]) == pytest.approx(2.0 / 3.0)  # |M|
        assert row[6] == "true"

    def test_decay_both_engines(self, tmp_path):
        (tmp_path / "cfg").write_text(
            "[rates]\ngamma1 = 1\ngamma2 = 4\nnbar = 0.5\nphi = 0\n"
            "[run]\nengine = both\nsx0 = 0.4\nsy0 = 0.2\nsz0 = -0.1\n"
            "t_points = 41\n")
        assert run_cli(["decay", "--config", tmp_path / "cfg",
                        "--out", tmp_path]) == 0
        meta = dict(line.split("=", 1) for line in
                    (tmp_path / "decay_compare.meta").read_text().splitlines())
        assert meta["status"] == "pass"
        assert float(meta["supnorm_deviation"]) < 1e-8
        table = np.genfromtxt(tmp_path / "decay_analytic.csv", delimiter=",",
                              names=True)
        assert table["sx"][0] == 0.4

    def test_steady_locked_both_engines(self, tmp_path):
        assert run_cli(["steady", "--config", PRESETS / "steady_locked.cfg",
                        "--out", tmp_path]) == 0
        row = (tmp_path / "steady_analytic.csv").read_text().splitlines()[1]
        sx, sy, sz, plus, minus = map(float, row.split(","))
        assert (sx, plus, minus) == (0.3, 0.8, 0.2)
        meta = dict(line.split("=", 1) for line in
                    (tmp_path / "steady_compare.meta").read_text().splitlines())
        assert meta["status"] == "pass"

    def test_spectrum_both_engines(self, tmp_path):
        assert run_cli(["spectrum", "--config", PRESETS / "spectrum_locked.cfg",
                        "--out", tmp_path]) == 0
        meta = dict(line.split("=", 1) for line in
                    (tmp_path / "spectrum_compare.meta").read_text().splitlines())
        assert meta["status"] == "pass"
        assert float(meta["relative_deviation"]) < 1e-8
        ana = dict(line.split("=", 1) for line in
                   (tmp_path / "spectrum_analytic.meta").read_text().splitlines())
        assert float(ana["coherent_weight"]) == pytest.approx(0.25)

    def test_spectrum_needs_drive(self, tmp_path, capsys):
        (tmp_path / "cfg").write_text("[rates]\ngamma1 = 1\ngamma2 = 2\n")
        assert run_cli(["spectrum", "--config", tmp_path / "cfg",
                        "--out", tmp_path]) == 2
        assert "Omega" in capsys.readouterr().err

    def test_sweep_row_order(self, tmp_path):
        (tmp_path / "cfg").write_text(
            "[rates]\ngamma1 = 1\ngamma2 = 4\nnbar = 0.5\n"
            "[run]\nsweep_param = nbar\nsweep_start = 0\nsweep_stop = 2\n"
            "sweep_points = 17\nsweep_quantity = squeezing\n")
        assert run_cli(["sweep", "--config", tmp_path / "cfg",
                        "--out", tmp_path]) == 0
        table = (tmp_path / "sweep.csv").read_text().splitlines()[1:]
        indices = [int(line.split(",")[0]) for line in table]
        values = [float(line.split(",")[1]) for line in table]
        assert indices == list(range(17))
        assert values == pytest.approx(list(np.linspace(0, 2, 17)))

    def test_sweep_against_direct_evaluation(self, tmp_path):
        (tmp_path / "cfg").write_text(
            "[rates]\ngamma1 = 2\ngamma2 = 1\nnbar = 0\nphi = 0\n"
            "[run]\nOmega = 2\nsweep_param = Omega\nsweep_start = 1\n"
            "sweep_stop = 3\nsweep_points = 3\nsweep_quantity = steady\n")
        assert run_cli(["sweep", "--config", tmp_path / "cfg",
                        "--out", tmp_path]) == 0
        from sps.bloch import driven_steady_state
        from sps.reservoir import reservoir_rates
        rows = (tmp_path / "sweep.csv").read_text().splitlines()[1:]
        for row in rows:
            _, omega, sx, sy, sz = map(float, row.split(","))
            expected = driven_steady_state(reservoir_rates(2.0, 1.0, 0.0),
                                           omega, 0.0)
            assert (sy, sz) == pytest.approx((expected.sy, expected.sz))

    def test_undamped_omega_sweep_writes_nothing(self, tmp_path, capsys):
        # Perfect regime at phi = 0 without Gamma has gamma_y = 0, so the
        # Omega = 0 point has no steady state: the whole sweep fails.
        (tmp_path / "cfg").write_text(
            "[rates]\ngamma1 = 1\ngamma2 = 1\nnbar = 0.5\nphi = 0\n"
            "[run]\nsweep_param = Omega\nsweep_start = 0\nsweep_stop = 2\n"
            "sweep_points = 5\nsweep_quantity = steady\n")
        assert run_cli(["sweep", "--config", tmp_path / "cfg",
                        "--out", tmp_path]) == 1
        assert "steady state undefined" in capsys.readouterr().err
        assert not (tmp_path / "sweep.csv").exists()

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("command", [["spectrum", "--engine", "analytic"],
                                         ["figure", "fig5"]])
    def test_undamped_dot_writes_no_spectrum(self, tmp_path, capsys, command):
        # gamma1 = gamma2 = Gamma = 0: the Rabi sidebands never decay, and
        # S_in would be 0/0 at delta = +-Omega.
        (tmp_path / "cfg").write_text(
            "[rates]\ngamma1 = 0\ngamma2 = 0\nnbar = 0.5\nphi = pi/2\n"
            "[run]\nOmega = 20\nsx0 = 0.3\nomega_points = 201\n"
            "sx0_points = 3\n")
        out = tmp_path / "out"
        assert run_cli([*command, "--config", tmp_path / "cfg",
                        "--out", out]) == 1
        assert "undamped dot" in capsys.readouterr().err
        assert os.listdir(out) == []

    @pytest.mark.parametrize("gamma2,code", [
        ("1.0000000005", 0), ("1.000000002", 2)])
    def test_fig5_perfect_regime_tolerance(self, tmp_path, capsys, gamma2, code):
        # fig5 accepts what ReservoirRates.is_perfect calls perfect.
        text = (f"[rates]\ngamma1 = 1\ngamma2 = {gamma2}\nnbar = 0.5\n"
                "phi = pi/2\n[run]\nOmega = 20\nsx0_points = 3\n"
                "omega_points = 5\n")
        assert parse_config(text).resolved_rates().is_perfect == (code == 0)
        (tmp_path / "cfg").write_text(text)
        assert run_cli(["figure", "fig5", "--config", tmp_path / "cfg",
                        "--out", tmp_path]) == code
        if code:
            assert "config error" in capsys.readouterr().err
            assert not (tmp_path / "fig5.csv").exists()

    def test_unknown_figure_rejected(self, tmp_path):
        code = run_cli(["figure", "fig3", "--config", PRESETS / "fig5.cfg",
                        "--out", tmp_path])
        assert code == 0  # any preset works for fig3: it sweeps its own grid


#: A direct-mode run that every engine of decay, steady and spectrum accepts.
ENGINE_CONFIG = """
[rates]
gamma1 = 1
gamma2 = 4
nbar = 0.5
phi = 0

[run]
Gamma = 0.3
Omega = 3
sx0 = 0.2
sy0 = 0.1
sz0 = -0.2
t_points = 21
omega_points = 41
"""

#: Extensions each engine's output has under its stem.
ENGINE_OUTPUTS = {"decay": (".csv",), "steady": (".csv",),
                  "spectrum": (".csv", ".meta")}
#: Ordered keys of ``<command>_compare.meta``.
COMPARE_KEYS = {
    "decay": ["supnorm_deviation", "tolerance", "status"],
    "steady": ["supnorm_deviation", "tolerance", "status"],
    "spectrum": ["supnorm_deviation", "peak", "relative_deviation",
                 "tolerance", "status"],
}
#: The oracle step each command's numeric engine runs.
ORACLE_STEP = {"decay": "propagate", "steady": "stationary_state",
               "spectrum": "regression_spectrum"}


def _outputs(stem, command):
    return {stem + ext for ext in ENGINE_OUTPUTS[command]}


def _meta_items(path):
    return [tuple(line.split("=", 1)) for line in path.read_text().splitlines()]


class TestEngineContract:
    """What --engine analytic/numeric/both writes and returns, per command."""

    @pytest.fixture
    def config(self, tmp_path):
        path = tmp_path / "engines.cfg"
        path.write_text(ENGINE_CONFIG)
        return path

    def run(self, config, command, engine, out):
        return run_cli([command, "--config", config, "--engine", engine,
                        "--out", out])

    @pytest.mark.parametrize("command", list(ENGINE_OUTPUTS))
    @pytest.mark.parametrize("engine", ["analytic", "numeric"])
    def test_one_engine_writes_the_plain_stem(self, tmp_path, config,
                                              command, engine):
        out = tmp_path / "out"
        assert self.run(config, command, engine, out) == 0
        assert set(os.listdir(out)) == _outputs(command, command)

    @pytest.mark.parametrize("command", list(ENGINE_OUTPUTS))
    def test_both_engines_write_each_and_a_comparison(self, tmp_path, config,
                                                      command):
        out = tmp_path / "both"
        assert self.run(config, command, "both", out) == 0
        assert set(os.listdir(out)) == (
            _outputs(f"{command}_analytic", command)
            | _outputs(f"{command}_numeric", command)
            | {f"{command}_compare.meta"})
        items = _meta_items(out / f"{command}_compare.meta")
        assert [key for key, _ in items] == COMPARE_KEYS[command]
        assert items[-1] == ("status", "pass")
        # Each engine's files are those it writes when run alone.
        for engine in ("analytic", "numeric"):
            alone = tmp_path / engine
            assert self.run(config, command, engine, alone) == 0
            for ext in ENGINE_OUTPUTS[command]:
                assert ((out / f"{command}_{engine}{ext}").read_bytes()
                        == (alone / f"{command}{ext}").read_bytes())

    @pytest.mark.parametrize("command", list(ENGINE_OUTPUTS))
    def test_deviation_beyond_tolerance_exits_1(self, tmp_path, config,
                                                monkeypatch, command):
        monkeypatch.setattr(cli, f"{command.upper()}_TOL", -1.0)
        out = tmp_path / "out"
        assert self.run(config, command, "both", out) == 1
        assert set(os.listdir(out)) == (
            _outputs(f"{command}_analytic", command)
            | _outputs(f"{command}_numeric", command)
            | {f"{command}_compare.meta"})
        items = dict(_meta_items(out / f"{command}_compare.meta"))
        assert (items["tolerance"], items["status"]) == ("-1", "fail")

    @pytest.mark.parametrize("command", list(ENGINE_OUTPUTS))
    def test_numeric_failure_keeps_the_analytic_files(self, tmp_path, config,
                                                      monkeypatch, capsys,
                                                      command):
        def fail(*args, **kwargs):
            raise RuntimeError("oracle failed")
        monkeypatch.setattr(sps.oracle, ORACLE_STEP[command], fail)
        out = tmp_path / "out"
        assert self.run(config, command, "both", out) == 1
        assert "oracle failed" in capsys.readouterr().err
        assert set(os.listdir(out)) == _outputs(f"{command}_analytic", command)


class TestFigureDeterminism:
    @pytest.mark.parametrize("fig,preset", [
        ("fig3", "fig3.cfg"), ("fig4", "fig4.cfg"), ("fig5", "fig5.cfg")])
    def test_byte_identical_reruns(self, tmp_path, fig, preset):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        for out in (out1, out2):
            assert run_cli(["figure", fig, "--config", PRESETS / preset,
                            "--out", out]) == 0
        first = (out1 / f"{fig}.csv").read_bytes()
        second = (out2 / f"{fig}.csv").read_bytes()
        assert first == second
        assert b"\r" not in first  # LF endings only

    def test_fig3_csv_contract(self, tmp_path):
        run_cli(["figure", "fig3", "--config", PRESETS / "fig3.cfg",
                 "--out", tmp_path])
        lines = (tmp_path / "fig3.csv").read_text().splitlines()
        assert lines[0] == "nbar,ratio,value"
        assert len(lines) == 1 + 201 * 201


#: Runs in a fresh interpreter; argv[1] is a direct-mode config, argv[2] a
#: physical-mode one and argv[3] the output dir.
IMPORT_PROBE = """
import math
import sys

def scipy_modules():
    return sorted(m for m in sys.modules if m.split(".")[0] == "scipy")

import sps
from sps.cli import main
assert not scipy_modules(), scipy_modules()
for sub in ("steady", "spectrum"):
    status = main([sub, "--config", sys.argv[1], "--out", sys.argv[3]])
    assert status == 0, (sub, status)
for sub in ("rates", "squeezing", "decay"):
    status = main([sub, "--config", sys.argv[2], "--out", sys.argv[3]])
    assert status == 0, (sub, status)

bath = sps.PhononBathSpec(alpha=2.535e-7, omega_c=1500.0, temperature=0.0)
closed = math.exp(-bath.alpha * bath.omega_c**2 / 4.0)
assert abs(sps.displacement_factor(bath) - closed) < 1e-12
assert not scipy_modules(), scipy_modules()
"""

#: Physical mode with a thermal bath and the polaron-dressed Rabi frequencies,
#: so that every command computes <B> with a thermal part.
PHYSICAL_THERMAL = """
[bath]
alpha = 2.535e-7
omega_c = 1500
temperature = 2.35

[drive]
omega1 = 70
omega2 = 70
detuning = 490
include_B = true
"""


class TestImportCost:
    def test_no_scipy_loaded_at_runtime(self, tmp_path):
        # Neither import sps nor any command in either input mode may load
        # scipy: <B> and the oracle are numpy only.
        direct, physical = tmp_path / "direct.cfg", tmp_path / "physical.cfg"
        direct.write_text(MINIMAL_DIRECT + "engine = both\nsx0 = 0.3\n")
        physical.write_text(PHYSICAL_THERMAL)
        src = str(Path(sps.__file__).resolve().parent.parent)
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [src] + [p for p in [env.get("PYTHONPATH")] if p])
        proc = subprocess.run(
            [sys.executable, "-c", IMPORT_PROBE, str(direct), str(physical),
             str(tmp_path)],
            env=env, capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        for name in ("steady", "spectrum"):
            meta = (tmp_path / f"{name}_compare.meta").read_text()
            assert "status=pass" in meta
        meta = (tmp_path / "rates.meta").read_text()
        assert "mode=physical" in meta and "include_B=true" in meta
