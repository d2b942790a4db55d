"""CLI: config parsing, subcommand outputs, dual-engine comparisons,
determinism of the figure datasets."""

import ast
import dataclasses
import gc
import importlib
import math
import os
import re
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sps
from sps import cli
from sps.bloch import BlochVector, free_evolution
from sps.cli import (
    CSV_CHUNK_ROWS,
    ConfigError,
    format_value,
    main,
    parse_config,
    run_subcommand,
    write_csv,
)
from sps.reservoir import reservoir_rates

ROOT = Path(__file__).resolve().parent.parent
PRESETS = ROOT / "presets"

MINIMAL_DIRECT = """
[rates]
gamma1 = 1
gamma2 = 1
nbar = 0.5
phi = pi/2

[run]
Omega = 20
"""

PHYSICAL = (PRESETS / "physical.cfg").read_text()


def _declared(key, rule):
    """A config key with its declared rule, as the README's config table
    shows it."""
    if isinstance(rule, tuple):
        return f"{key} ∈ {{{', '.join(rule)}}}"
    return f"{key} {rule}" if rule else key


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

    @pytest.mark.parametrize("text,value", [
        ("true", True), ("Yes", True), ("1", True), ("ON", True),
        ("false", False), ("No", False), ("0", False), ("Off", False)])
    def test_boolean_spellings(self, text, value):
        cfg = parse_config(MINIMAL_DIRECT + f"render_delta = {text}\n")
        assert cfg.render_delta is value

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
        ("sweep_points", "1", ["sweep"]),
        ("sweep_points", "-5", ["rates"]),
        ("Gamma", "-0.1", ["decay"]),
        ("Gamma", "-1e-300", ["rates"]),
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

    @pytest.mark.parametrize("key,line,command", [
        ("gamma1", 3, ["decay"]),
        ("gamma2", 4, ["steady"]),
        ("nbar", 5, ["spectrum"]),
        ("nbar", 5, ["figure", "fig5"]),
        ("Omega", 9, ["steady"]),
        ("Omega", 9, ["rates"]),
    ])
    def test_negative_rate_reports_line(self, tmp_path, capsys, key, line,
                                        command):
        text = re.sub(rf"^{key} = .*$", f"{key} = -5", MINIMAL_DIRECT,
                      flags=re.M)
        (tmp_path / "cfg").write_text(text)
        out = tmp_path / "out"
        assert run_cli([*command, "--config", tmp_path / "cfg",
                        "--out", out]) == 2
        assert capsys.readouterr().err == (
            f"sps: config error: line {line}: {key} must be >= 0, got '-5'\n")
        assert not out.exists()

    @pytest.mark.parametrize("key,value,line,command", [
        ("alpha", "-5", 7, ["rates"]),
        ("omega_c", "0", 8, ["squeezing"]),
        ("nbar", "-5", 9, ["rates"]),
        ("temperature", "-5", 9, ["decay"]),
        ("omega1", "-5", 12, ["rates"]),
        ("omega2", "-5", 13, ["steady"]),
        ("detuning", "0", 14, ["rates"]),
        ("detuning", "-490", 14, ["spectrum"]),
    ])
    def test_out_of_range_physical_key_reports_line(self, tmp_path, capsys,
                                                    key, value, line, command):
        # temperature replaces the preset's nbar, its alternative.
        target = "nbar" if key == "temperature" else key
        text = re.sub(rf"^{target} = .*$", f"{key} = {value}",
                      (PRESETS / "physical.cfg").read_text(), flags=re.M)
        (tmp_path / "cfg").write_text(text)
        out = tmp_path / "out"
        assert run_cli([*command, "--config", tmp_path / "cfg",
                        "--out", out]) == 2
        rule = "> 0" if key in ("omega_c", "detuning") else ">= 0"
        assert capsys.readouterr().err == (
            f"sps: config error: line {line}: {key} must be {rule}, "
            f"got '{value}'\n")
        assert not out.exists()

    def test_run_keys_at_their_minimum(self):
        cfg = parse_config(MINIMAL_DIRECT + "t_points = 1\nomega_points = 1\n"
                           "nbar_points = 1\nratio_points = 1\nsx0_points = 1\n"
                           "t_max = 0\nomega_span = 0\nrender_width = 0\n"
                           "sweep_points = 2\nnbar_max = 0\nGamma = 0\n")
        assert (cfg.t_points, cfg.omega_points, cfg.nbar_points,
                cfg.ratio_points, cfg.sx0_points) == (1, 1, 1, 1, 1)
        assert cfg.sweep_points == 2
        assert (cfg.t_max == cfg.omega_span == cfg.render_width
                == cfg.nbar_max == cfg.gamma_rad == 0.0)

    def test_zero_rates_and_drive_are_accepted(self):
        text = re.sub(r"^(gamma1|nbar|Omega) = .*$", r"\1 = 0", MINIMAL_DIRECT,
                      flags=re.M)
        cfg = parse_config(text)
        assert cfg.gamma1 == cfg.nbar == cfg.laser_omega == 0.0

    def test_bad_engine(self):
        with pytest.raises(ConfigError, match="engine"):
            parse_config("[rates]\ngamma1 = 1\ngamma2 = 1\n[run]\nengine = fft\n")

    @pytest.mark.parametrize("key,choices", [
        ("engine", "('analytic', 'numeric', 'both')"),
        ("sweep_param", "('gamma1', 'gamma2', 'nbar', 'phi', 'Omega', 'sx0')"),
        ("sweep_quantity", "('steady', 'squeezing')"),
    ], ids=["engine", "sweep_param", "sweep_quantity"])
    def test_choice_key_reports_line(self, tmp_path, capsys, key, choices):
        (tmp_path / "cfg").write_text(MINIMAL_DIRECT + f"{key} = fft\n")
        out = tmp_path / "out"
        assert run_cli(["rates", "--config", tmp_path / "cfg",
                        "--out", out]) == 2
        assert capsys.readouterr().err == (
            f"sps: config error: line 10: {key} must be one of {choices}, "
            "got 'fft'\n")
        assert not out.exists()

    def test_empty_string_reports_line(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "cfg").write_text(MINIMAL_DIRECT + "out =\n")
        assert run_cli(["rates", "--config", "cfg"]) == 2
        assert capsys.readouterr().err == (
            "sps: config error: line 10: expected a non-empty string, got ''\n")
        assert os.listdir(tmp_path) == ["cfg"]

    def test_readme_lists_each_sections_keys_with_their_rules(self):
        rows = {match[1]: re.findall(r"`([^`]+)`", match[2]) for match in
                re.finditer(r"^\| `\[(\w+)\]` \|(.*)$",
                            (ROOT / "README.md").read_text(), flags=re.M)}
        assert rows == {
            section: [_declared(key, f.metadata["rule"])
                      for key, f in declared.items()]
            for section, declared in cli._KEYS.items()}


#: (section, config key, field name, range) of every [bath], [drive] and
#: [rates] key that declares a range.
RANGED_KEYS = [(section, key, f.name, f.metadata["rule"])
               for section in ("bath", "drive", "rates")
               for key, f in cli._KEYS[section].items()
               if isinstance(f.metadata["rule"], str)]


class TestDeclaredRanges:
    """The CLI rejects a value of a ranged key exactly when the library
    does: ``PhononBathSpec``/``DriveConfig`` for [bath]/[drive] and
    ``reservoir_rates`` for [rates]."""

    def _library(self, section, name, value):
        if section == "rates":
            cfg = parse_config(MINIMAL_DIRECT)
            rates = dict(gamma1=cfg.gamma1, gamma2=cfg.gamma2, nbar=cfg.nbar)
            return reservoir_rates(**{**rates, name: value})
        base = getattr(parse_config(PHYSICAL), section)
        # temperature replaces the preset's nbar, its alternative.
        other = {"nbar_override": None} if name == "temperature" else {}
        return dataclasses.replace(base, **other, **{name: value})

    def _config(self, section, key, value):
        """The config with ``key = value`` and the line it is on."""
        base = MINIMAL_DIRECT if section == "rates" else PHYSICAL
        target = "nbar" if key == "temperature" else key
        text, count = re.subn(rf"^{target} = .*$", f"{key} = {value!r}", base,
                              flags=re.M)
        assert count == 1
        line, = (n for n, row in enumerate(text.splitlines(), start=1)
                 if row.startswith(f"{key} = "))
        return text, line

    @pytest.mark.parametrize("section,key,name,rule", RANGED_KEYS,
                             ids=[f"{s}.{k}" for s, k, _, _ in RANGED_KEYS])
    @given(offset=st.floats(-1e300, -1.0))
    @settings(max_examples=20, deadline=None)
    def test_cli_and_library_reject_the_same_values(self, section, key, name,
                                                    rule, offset):
        bound = float(rule.split()[1])
        for value in (bound, math.nextafter(bound, -math.inf),
                      math.nextafter(bound, math.inf), bound + offset):
            try:
                self._library(section, name, value)
                library_rejects = False
            except ValueError:
                library_rejects = True
            text, line = self._config(section, key, value)
            if not library_rejects:
                parse_config(text)
                continue
            with pytest.raises(ConfigError) as error:
                parse_config(text)
            assert error.value.line == line
            assert str(error.value) == (
                f"line {line}: {key} must be {rule}, got {repr(value)!r}")


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


_SPECIAL_FLOATS = [-0.0, 0.0, math.nan, math.inf, -math.inf, 5e-324,
                   -2.2250738585072014e-308 / 3, 1e308, -1e308]
#: NaNs with either sign, quiet and signalling, with and without payload.
_NAN_BITS = [0xFFF8000000000000, 0x7FF8000000000001, 0x7FF0000000000001,
             0xFFFFFFFFFFFFFFFF, 0x7FF4000000000123]
#: Floats with distinct bit patterns: -0.0 and 0.0 first, then the NaNs.
_SPECIAL_POOL = np.concatenate([
    _SPECIAL_FLOATS[:2],
    np.array(_NAN_BITS, dtype=np.uint64).view(np.float64),
    _SPECIAL_FLOATS[2:]])
_INT64 = st.integers(-2**63, 2**63 - 1)
_FLOAT_DTYPES = st.sampled_from([np.float64, np.float32])


def _as_dtype(values, dtype):
    """``values`` as an array of ``dtype``; a float32 overflows to inf."""
    with np.errstate(over="ignore", invalid="ignore"):
        return np.array(values, dtype=dtype)


def _with_specials(values):
    """``values`` with the special floats after the first one."""
    specials = _as_dtype(_SPECIAL_POOL, values.dtype)
    return np.concatenate([values[:1], specials, values[1:]])


@st.composite
def _float_phases(draw, n_rows):
    """A float column of two phases, each tiling its own pool of distinct
    bit patterns (one pool holds -0.0, 0.0 and the NaNs), as a constant,
    a grid axis or distinct values do, with the turn at or near a chunk
    edge."""
    chunk, longest = CSV_CHUNK_ROWS, 4096
    never = max(n_rows, 1)  # a pool size at which no value repeats
    head, tail = draw(st.sampled_from([
        (1, never), (2, never), (chunk // 2, never),  # repeats, then none
        (never, 1), (never, chunk // 2),              # none, then repeats
        (chunk // 2, chunk // 2),          # CSV_CHUNK_ROWS values in all
        (chunk // 2, chunk // 2 + 1),      # one past them
        (3 * chunk - 1, 1),                # a long period, then one more value
        (longest, never), (longest + 1, 1),  # the longest period, one past it
        (1, 2)]))
    split = min(draw(st.sampled_from([chunk - 1, chunk, chunk + 1,
                                      2 * head, 2 * head + 1])), n_rows)
    dtype = np.dtype(draw(_FLOAT_DTYPES))
    bits = np.dtype(f"u{dtype.itemsize}")
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    begin, step = rng.integers(0, 2**(8 * bits.itemsize), size=2, dtype=bits)
    spread = begin + np.arange(head + tail, dtype=bits) * (step | 1)
    pool = _with_specials(spread.view(dtype))
    offsets = draw(st.sampled_from([(0, head), (tail, 0)]))
    column = np.concatenate([
        pool[offsets[0] + np.arange(split) % head],
        pool[offsets[1] + np.arange(n_rows - split) % tail]])
    return column if draw(st.booleans()) else list(column)


@st.composite
def _csv_column(draw, n_rows):
    """One CSV column of ``n_rows`` cells, in one of the shapes callers pass."""
    kind = draw(st.sampled_from(["float", "int", "bool", "str", "broadcast"]))
    if kind == "float":
        pool = draw(st.lists(st.one_of(st.floats(), st.sampled_from(_SPECIAL_POOL)),
                             min_size=1, max_size=12))
        dtype = draw(_FLOAT_DTYPES)
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
        dtype = draw(_FLOAT_DTYPES)
        floats = st.floats(width=np.finfo(dtype).bits).map(dtype)
        scalar = draw(st.one_of(floats, st.sampled_from(_SPECIAL_POOL),
                                _INT64, st.booleans()))
        return np.broadcast_to(np.asarray(scalar), (n_rows,))
    seed = draw(st.integers(0, 2**32 - 1))
    picks = np.random.default_rng(seed).integers(len(pool), size=n_rows)
    array = _as_dtype(pool, dtype)[picks]
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
                                   2 * chunk - 1, 2 * chunk, 2 * chunk + 1,
                                   6 * chunk - 1, 8 * chunk + 1]))
    columns = [draw(_csv_column(n_rows)) for _ in range(draw(st.integers(0, 3)))]
    # One column is always a float column in phases.
    columns.insert(draw(st.integers(0, len(columns))),
                   draw(_float_phases(n_rows)))
    return columns


def _headed(columns):
    """``(header, columns)`` for :func:`write_csv`, naming the columns c0, c1..."""
    return [f"c{j}" for j in range(len(columns))], columns


def _per_row_reference(columns):
    """What :func:`write_csv` writes, built one cell at a time."""
    header, _ = _headed(columns)
    text = ",".join(header) + "\n" + "".join(
        ",".join(format_value(cell) for cell in row) + "\n"
        for row in zip(*columns))
    return text.encode("utf-8")


class TestWriteCsv:
    @settings(max_examples=60, deadline=None)
    @given(columns=_table())
    def test_bytes_equal_per_row_reference(self, tmp_path_factory, columns):
        path = tmp_path_factory.mktemp("csv") / "t.csv"
        write_csv(path, *_headed(columns))
        assert path.read_bytes() == _per_row_reference(columns)
        for column in columns:
            for cell in list(column[:3]) + list(column[-3:]):
                assert format_value(cell) == _cell_text(cell)

    @pytest.mark.parametrize("shape", ["distinct", "fig3", "fig5", "turns",
                                       "longest period"])
    def test_traced_peak_is_under_a_megabyte(self, tmp_path, shape):
        n_rows = 8 * CSV_CHUNK_ROWS + 1
        rows = np.arange(n_rows)
        distinct = np.random.default_rng(7).random((6, n_rows))
        columns = {
            "distinct": list(distinct),
            "fig3": [np.linspace(0.0, 3.0, 251)[rows // 250],
                     np.linspace(1.0, 10.0, 251)[1:][rows % 250], distinct[0]],
            "fig5": [np.linspace(-0.5, 0.5, 21)[rows // 3001],
                     np.linspace(-40.0, 40.0, 3001)[rows % 3001], distinct[0]],
            # Constant in the first chunk, then never repeating.
            "turns": list(np.where(rows < CSV_CHUNK_ROWS, 0.5, distinct[:3])),
            "longest period": [distinct[0][rows % 4096]],
        }[shape]
        path = tmp_path / "t.csv"
        tracemalloc.start()
        try:
            write_csv(path, *_headed(columns))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20

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


#: (config text, subcommand, line number or None, message fragment) of a
#: run that stops with a config error.
CONFIG_ERRORS = [
    pytest.param(PHYSICAL, ["spectrum"], None,
                 "spectrum needs a resonant drive", id="spectrum-undriven"),
    pytest.param(MINIMAL_DIRECT + "sweep_param = nbar\nsweep_points = 1\n",
                 ["sweep"], 11, "sweep_points must be >= 2, got '1'",
                 id="sweep-one-point"),
    pytest.param("[rates]\ngamma1 = 1\ngamma2 = 2\n[run]\nOmega = 20\n",
                 ["figure", "fig5"], None, "fig5 needs the perfect regime",
                 id="fig5-imperfect"),
    pytest.param(PHYSICAL, ["figure", "fig5"], None,
                 "fig5 needs a resonant drive: set Omega > 0",
                 id="fig5-physical"),
    pytest.param("[rates]\ngamma1 = 1\ngamma2 = 1\nphi = 1\n[run]\nOmega = 20\n",
                 ["steady"], None,
                 "driven analysis supports phi in {0, pi/2} only",
                 id="steady-phi"),
    pytest.param(MINIMAL_DIRECT + "t_points = 2.5\n", ["decay"], 10,
                 "expected an integer, got '2.5'", id="integer"),
    pytest.param(MINIMAL_DIRECT + "render_delta = maybe\n", ["figure", "fig5"],
                 10, "expected a boolean, got 'maybe'", id="boolean"),
    pytest.param(MINIMAL_DIRECT + "[plot]\n", ["rates"], 10,
                 "unknown section [plot]", id="unknown-section"),
    pytest.param(MINIMAL_DIRECT + "[rates]\n", ["rates"], 10,
                 "duplicate section [rates]", id="duplicate-section"),
    pytest.param(MINIMAL_DIRECT + "Omega 20\n", ["rates"], 10,
                 "expected key = value, got 'Omega 20'", id="no-equals-sign"),
    pytest.param("gamma1 = 1\n" + MINIMAL_DIRECT, ["rates"], 1,
                 "key outside of any section", id="key-outside-section"),
    pytest.param(PHYSICAL.partition("[drive]")[0], ["rates"], None,
                 "physical mode needs a [drive] section",
                 id="physical-without-drive"),
    pytest.param(MINIMAL_DIRECT + "[drive]\nomega1 = 1\nomega2 = 1\n"
                 "detuning = 1\n", ["rates"], None,
                 "[drive] requires the physical mode ([bath])",
                 id="drive-without-bath"),
    pytest.param(PHYSICAL.replace("[drive]", "temperature = 2\n[drive]"),
                 ["rates"], None, "[bath] keys temperature / nbar",
                 id="bath-temperature-and-nbar"),
    pytest.param(re.sub(r"^nbar = .*$", "", PHYSICAL, flags=re.M), ["rates"],
                 None, "[bath] keys temperature / nbar",
                 id="bath-neither-temperature-nor-nbar"),
    pytest.param(PHYSICAL + "sweep_param = phi\nsweep_points = 2\n", ["sweep"],
                 None, "sweep supports the direct-rate mode only",
                 id="sweep-physical"),
    pytest.param(MINIMAL_DIRECT + "sweep_param = nbar\n", ["sweep"], None,
                 "sweep needs sweep_param/sweep_start/sweep_stop/sweep_points",
                 id="sweep-without-points"),
    pytest.param(MINIMAL_DIRECT + "sweep_points = 3\n", ["sweep"], None,
                 "sweep needs sweep_param/sweep_start/sweep_stop/sweep_points",
                 id="sweep-without-param"),
    pytest.param(MINIMAL_DIRECT.replace("Omega = 20", "Omega = 0"),
                 ["figure", "fig5"], None,
                 "fig5 needs a resonant drive: set Omega > 0",
                 id="fig5-undriven"),
    pytest.param(MINIMAL_DIRECT + "sweep_param = Omega\nsweep_start = -1\n"
                 "sweep_stop = 1\nsweep_points = 3\n", ["steady"], None,
                 "Omega must be >= 0, got -1.0", id="sweep-negative-Omega"),
    # Omega**2 would overflow: refused before any engine runs.
    pytest.param(MINIMAL_DIRECT.replace("Omega = 20", "Omega = 1e155"),
                 ["steady", "--engine", "numeric"], None,
                 "Omega must be < 1.3407807929942596e+154, got 1e+155",
                 id="huge-Omega-steady-numeric"),
    pytest.param(MINIMAL_DIRECT.replace("Omega = 20", "Omega = 1e155"),
                 ["figure", "fig5"], None,
                 "Omega must be < 1.3407807929942596e+154, got 1e+155",
                 id="huge-Omega-fig5"),
    pytest.param(MINIMAL_DIRECT + "sweep_param = Omega\nsweep_stop = 1e155\n"
                 "sweep_points = 3\n", ["sweep"], None,
                 "Omega must be < 1.3407807929942596e+154, got 5e+154",
                 id="sweep-huge-Omega"),
]


#: Perfect-regime fig5 configs off the paper's reference point: with a
#: radiative rate, at phase 0, in the physical mode with equal Rabi
#: frequencies, and a radiatively damped dot without a reservoir asking for
#: the automatic rendering width gamma1 = 0 (it has no zero-width feature,
#: so nothing is drawn).
FIG5_CONFIGS = {
    "Gamma": MINIMAL_DIRECT + "Gamma = 0.5\n",
    "phi-zero": MINIMAL_DIRECT.replace("phi = pi/2", "phi = 0"),
    "physical": PHYSICAL + "Omega = 20\n",
    "no-reservoir-rendered": MINIMAL_DIRECT.replace(
        "gamma1 = 1\ngamma2 = 1", "gamma1 = 0\ngamma2 = 0")
    + "Gamma = 1\nrender_delta = true\n",
}


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

    def test_decay_bytes_equal_scalar_reference(self, tmp_path):
        # One array call writes what a scalar call per row would.
        text = ("[rates]\ngamma1 = 0.7\ngamma2 = 1.9\nnbar = 0.8\nphi = 1.1\n"
                "[run]\nengine = analytic\nGamma = 0.3\nsx0 = 0.2\n"
                "sy0 = -0.15\nsz0 = 0.25\nt_points = 3001\n")
        (tmp_path / "cfg").write_text(text)
        assert run_cli(["decay", "--config", tmp_path / "cfg",
                        "--out", tmp_path]) == 0
        cfg = parse_config(text)
        rates = cfg.resolved_rates()
        state0 = BlochVector(cfg.sx0, cfg.sy0, cfg.sz0)
        t_grid = cli._time_grid(cfg, rates)
        assert len(t_grid) == 3001
        rows = []
        for t in t_grid.tolist():
            s = free_evolution(state0, rates, t)
            rows.append(",".join(map(format_value, (t, s.sx, s.sy, s.sz))))
        expected = "t,sx,sy,sz\n" + "".join(row + "\n" for row in rows)
        assert (tmp_path / "decay.csv").read_bytes() == expected.encode()

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

    def test_spectrum_meta_reports_exact_fluctuation_total(self, tmp_path):
        # Near the perfect regime the central peak is far narrower than the
        # grid step: both engines' sum_rule misses it by six orders, while
        # fluctuation_total is each engine's exact <dS+ dS->_s.
        (tmp_path / "cfg").write_text(
            MINIMAL_DIRECT.replace("gamma2 = 1", "gamma2 = 1.0001")
            + "sx0 = 0.3\nengine = both\n")
        assert run_cli(["spectrum", "--config", tmp_path / "cfg",
                        "--out", tmp_path / "out"]) == 0
        metas = [dict(line.split("=", 1) for line in
                      (tmp_path / "out" / f"spectrum_{engine}.meta")
                      .read_text().splitlines())
                 for engine in ("analytic", "numeric")]
        totals = [float(meta["fluctuation_total"]) for meta in metas]
        assert totals[0] == pytest.approx(0.49999827578106715, abs=1e-15)
        assert abs(totals[1] - totals[0]) <= 1e-13
        for meta in metas:
            assert list(meta)[-2:] == ["sum_rule", "fluctuation_total"]
            assert float(meta["sum_rule"]) == pytest.approx(636649.6, rel=1e-5)

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

    def test_sweep_into_negative_rate_names_first_value(self, tmp_path,
                                                        capsys):
        # The swept values are checked against gamma2's range at config time.
        (tmp_path / "cfg").write_text(
            MINIMAL_DIRECT + "sweep_param = gamma2\nsweep_start = -1\n"
            "sweep_stop = 1\nsweep_points = 5\n")
        assert run_cli(["sweep", "--config", tmp_path / "cfg",
                        "--out", tmp_path]) == 2
        assert capsys.readouterr().err == (
            "sps: config error: gamma2 must be >= 0, got -1.0\n")
        assert not (tmp_path / "sweep.csv").exists()

    def test_undriven_perfect_phi_zero_fails_however_gamma_y_rounds(
            self, tmp_path, capsys):
        # gamma_y rounds to 0 at (0.1, 0.3) and to 3.6e-15 at (4.3, 0.7);
        # both are below RATE_FLOOR*gamma_z, so neither has a steady state.
        errors = []
        for gamma, nbar in (("0.1", "0.3"), ("4.3", "0.7")):
            (tmp_path / "cfg").write_text(
                f"[rates]\ngamma1 = {gamma}\ngamma2 = {gamma}\nnbar = {nbar}\n"
                "phi = 0\n[run]\nOmega = 0\nsy0 = 0.2\nengine = both\n")
            out = tmp_path / "out"
            assert run_cli(["steady", "--config", tmp_path / "cfg",
                            "--out", out]) == 1
            errors.append(capsys.readouterr().err)
            assert not out.exists()
        assert errors[0] == errors[1]
        assert errors[0].startswith("sps: error: steady state undefined")
        assert errors[0].count("\n") == 1

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
        assert os.listdir(tmp_path) == ["cfg"]  # nor its output directory

    @pytest.mark.parametrize("command", ["steady", "spectrum", "decay"])
    @pytest.mark.parametrize("gamma2", ["1.0000001", "1.00001"])
    def test_engines_agree_below_rate_floor(self, tmp_path, command, gamma2):
        # Off the perfect regime, but with gamma_x below RATE_FLOOR*gamma_z:
        # both engines lock, and the decay horizon skips the zero rate.
        (tmp_path / "cfg").write_text(
            f"[rates]\ngamma1 = 1\ngamma2 = {gamma2}\nnbar = 0.5\n"
            "phi = pi/2\n[run]\nOmega = 20\nsx0 = 0.3\nomega_points = 201\n"
            "t_points = 21\n")
        assert run_cli([command, "--config", tmp_path / "cfg", "--engine",
                        "both", "--out", tmp_path]) == 0
        compare = (tmp_path / f"{command}_compare.meta").read_text()
        assert compare.endswith("status=pass\n")

    @pytest.mark.parametrize("gamma2,code", [
        ("1", 0), ("1.0000000005", 2), ("1.000000002", 2)])
    def test_fig5_perfect_regime_tolerance(self, tmp_path, capsys, gamma2, code):
        # fig5 accepts what ReservoirRates.is_perfect calls perfect:
        # gamma2 == gamma1, with no tolerance.
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

    @pytest.mark.parametrize("text", FIG5_CONFIGS.values(), ids=FIG5_CONFIGS)
    def test_fig5_blocks_are_the_spectrum_at_each_sx0(self, tmp_path, text):
        # fig5 is the spectrum subcommand over the sx0 grid: same rates,
        # phase choice, drive and frequency grid.
        text += "sx0_points = 5\nomega_points = 41\n"
        (tmp_path / "cfg").write_text(text)
        assert run_cli(["figure", "fig5", "--config", tmp_path / "cfg",
                        "--out", tmp_path / "fig5"]) == 0
        rows = [row.split(",", 1) for row in
                (tmp_path / "fig5" / "fig5.csv").read_text().splitlines()[1:]]
        assert len(rows) == 5 * 41
        for block in range(5):
            cells = rows[block * 41:(block + 1) * 41]
            sx0 = cells[0][0]
            assert {row[0] for row in cells} == {sx0}
            (tmp_path / "cfg").write_text(text + f"sx0 = {sx0}\n")
            out = tmp_path / f"spectrum{block}"
            assert run_cli(["spectrum", "--config", tmp_path / "cfg",
                            "--out", out]) == 0
            spectrum = (out / "spectrum.csv").read_text().splitlines()[1:]
            assert [row[1] for row in cells] == spectrum

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("fig", ["fig3", "fig4"])
    def test_figure_next_to_ratio_one_is_finite(self, tmp_path, fig):
        # Ratios 1 + 5e-13 and 1 + 1e-12 are ordinary points, not perfect.
        (tmp_path / "cfg").write_text(
            "[rates]\ngamma1 = 1\ngamma2 = 2\n[run]\n"
            "ratio_max = 1.000000000001\nratio_points = 2\nnbar_points = 2\n")
        assert run_cli(["figure", fig, "--config", tmp_path / "cfg",
                        "--out", tmp_path]) == 0
        table = np.loadtxt(tmp_path / f"{fig}.csv", delimiter=",", skiprows=1)
        assert table.shape == (4, 3) and np.isfinite(table).all()

    @pytest.mark.parametrize("fig,name", [("fig3", "figure3_dataset"),
                                          ("fig4", "figure4_dataset"),
                                          ("fig5", "figure5_dataset")])
    def test_figure_csv_is_its_dataset_written(self, tmp_path, monkeypatch,
                                               fig, name):
        # The axis texts, formatted once per grid value, are the bytes of
        # the dataset written cell by cell.
        made = []
        dataset = getattr(cli, name)
        monkeypatch.setattr(cli, name, lambda *args, **kwargs: made.append(
            dataset(*args, **kwargs)) or made[-1])
        (tmp_path / "cfg").write_text(
            MINIMAL_DIRECT + "nbar_max = 1\nnbar_points = 4\nratio_max = 2\n"
            "ratio_points = 3\nsx0_points = 3\nomega_points = 7\n")
        assert run_cli(["figure", fig, "--config", tmp_path / "cfg",
                        "--out", tmp_path / "out"]) == 0
        written = (tmp_path / "out" / f"{fig}.csv").read_bytes()
        header = written.decode().splitlines()[0].split(",")
        write_csv(tmp_path / "reference.csv", header, made[0].T)
        assert len(made) == 1 and len(made[0]) == (21 if fig == "fig5" else 12)
        assert written == (tmp_path / "reference.csv").read_bytes()

    def test_nan_frequency_axis_fails_the_run(self, tmp_path, capsys):
        # The span overflows, so the frequency grid holds NaN; the check
        # reads the axis before its texts are made.
        (tmp_path / "cfg").write_text(MINIMAL_DIRECT + "omega_span = 1.7e308\n"
                                      "sx0_points = 3\nomega_points = 5\n")
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # numpy's linspace overflow
            assert run_cli(["figure", "fig5", "--config", tmp_path / "cfg",
                            "--out", tmp_path / "out"]) == 1
        assert capsys.readouterr().err == \
            "sps: error: fig5.csv: column 'delta_omega' holds NaN\n"
        assert os.listdir(tmp_path) == ["cfg"]

    def test_both_modes_accept_phi_pi(self, tmp_path):
        # The reservoir sees 2*phi: phi = pi runs as phi = 0 in either mode.
        direct = MINIMAL_DIRECT + "sx0 = 0.3\n"
        physical = PHYSICAL + "Omega = 20\nsx0 = 0.3\n"
        for name, zero, pi in (
                ("direct", direct.replace("phi = pi/2", "phi = 0"),
                 direct.replace("phi = pi/2", "phi = pi")),
                ("physical", physical, physical.replace(
                    "phi1 = 0\nphi2 = 0", "phi1 = pi\nphi2 = pi"))):
            assert zero != pi
            for phase, text in (("zero", zero), ("pi", pi)):
                (tmp_path / "cfg").write_text(text)
                for command in ("rates", "steady"):
                    assert run_cli([command, "--config", tmp_path / "cfg",
                                    "--out", tmp_path / name / phase]) == 0
            assert _tree_bytes(tmp_path / name / "pi") == \
                _tree_bytes(tmp_path / name / "zero")
            rates = (tmp_path / name / "pi" / "rates.csv").read_text()
            assert rates.splitlines()[1].split(",")[6] == "0"

    def test_squeezing_threshold_of_a_vanishing_rate(self, tmp_path):
        (tmp_path / "cfg").write_text(
            "[rates]\ngamma1 = 0\ngamma2 = 1\nnbar = 0.5\n")
        assert run_cli(["squeezing", "--config", tmp_path / "cfg",
                        "--out", tmp_path]) == 0
        header, row = (tmp_path / "squeezing.csv").read_text().splitlines()
        cells = dict(zip(header.split(","), row.split(",")))
        assert cells["nbar_threshold"] == "0" and cells["quantum"] == "false"

    def test_nan_output_fails_the_run(self, tmp_path, capsys, monkeypatch):
        # No known input makes a dataset hold NaN, so a stand-in does: the
        # run fails before fig3.csv is written.
        monkeypatch.setattr(cli, "figure3_dataset",
                            lambda *grids: np.array([[0.0, 2.0, np.nan]]))
        (tmp_path / "cfg").write_text(MINIMAL_DIRECT)
        out = tmp_path / "out"
        assert run_cli(["figure", "fig3", "--config", tmp_path / "cfg",
                        "--out", out]) == 1
        assert capsys.readouterr().err == \
            "sps: error: fig3.csv: column 'value' holds NaN\n"
        assert os.listdir(tmp_path) == ["cfg"]  # nor its output directory

    @pytest.mark.parametrize("width,peak", [("1e-200", "4.9999999999999998e+199"),
                                            ("5e-324", "inf")])
    def test_fig5_narrow_rendering_width(self, tmp_path, capsys, width, peak):
        # The squared width underflows: the delta peak is 2w/width, written
        # as inf beyond the float range, and nothing else moves.
        text = MINIMAL_DIRECT + "sx0_points = 3\nomega_points = 5\n"
        tables = {}
        for name, extra in (("plain", ""), ("drawn", "render_delta = true\n"
                                                     f"render_width = {width}\n")):
            (tmp_path / "cfg").write_text(text + extra)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                assert run_cli(["figure", "fig5", "--config", tmp_path / "cfg",
                                "--out", tmp_path / name]) == 0
            tables[name] = [row.split(",") for row in
                            (tmp_path / name / "fig5.csv").read_text().splitlines()]
        assert capsys.readouterr().err == ""
        plain, drawn = tables["plain"], tables["drawn"]
        assert drawn[8] == ["0", "0", peak]  # sx0 = 0, delta = 0
        assert drawn[:8] + drawn[9:] == plain[:8] + plain[9:]
        assert not any("nan" in cell for row in drawn for cell in row)

    @staticmethod
    def _one_error_line(tmp_path, capsys, command, text, got):
        (tmp_path / "cfg").write_text(text)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run_cli([*command, "--config", tmp_path / "cfg",
                            "--out", tmp_path / "out"]) == 1
        assert capsys.readouterr().err == f"sps: error: {got}\n"
        assert os.listdir(tmp_path) == ["cfg"]

    def test_overflowing_nbar_is_one_error_line(self, tmp_path, capsys):
        # gamma_s overflows in the first block; the error names its first
        # failing element, not the whole array.
        self._one_error_line(
            tmp_path, capsys, ["figure", "fig3"],
            MINIMAL_DIRECT + "nbar_max = 1e308\n",
            "gamma_s must be < 1.3407807929942596e+154, got 1.0223880597014925e+306")

    @pytest.mark.parametrize("command,rates,got", [
        (["figure", "fig4"], "gamma1 = 1\ngamma2 = 1\nnbar = 0.5",
         "gamma_s must be < 1.3407807929942596e+154, got 1.0223880597014925e+198"),
        (["squeezing"], "gamma1 = 1\ngamma2 = 1\nnbar = 1e200",
         "gamma_s must be < 1.3407807929942596e+154, got 2e+200"),
        (["spectrum"], "gamma1 = 1\ngamma2 = 1\nnbar = 1e200",
         "gamma_s must be < 1.3407807929942596e+154, got 2e+200"),
        (["spectrum", "--engine", "both"], "gamma1 = 1\ngamma2 = 1\nnbar = 1e200",
         "gamma_s must be < 1.3407807929942596e+154, got 2e+200"),
        (["squeezing"], "gamma1 = 1e-300\ngamma2 = 1e-300\nnbar = 1e200",
         "nbar must be < 6.703903964971298e+153, got 1e+200"),
    ], ids=["fig4", "squeezing", "spectrum", "spectrum-both",
            "squeezing-small-rates"])
    def test_finite_nbar_past_the_bound_is_one_error_line(self, tmp_path, capsys,
                                                           command, rates, got):
        # At nbar = 1e200 the triple is finite but gamma_s*gamma_n is not (or,
        # under tiny rates, nbar*(nbar+1)): the run stops before a closed
        # form overflows.
        text = MINIMAL_DIRECT.replace("gamma1 = 1\ngamma2 = 1\nnbar = 0.5", rates)
        self._one_error_line(tmp_path, capsys, command,
                             text + "nbar_max = 1e200\n", got)

    @pytest.mark.parametrize("command,keys,expected", [
        ("decay", "t_max = 3\nt_points = 4\n", np.linspace(0.0, 3.0, 4)),
        ("spectrum", "omega_span = 5\nomega_points = 5\n",
         np.linspace(-5.0, 5.0, 5)),
    ], ids=["t_max", "omega_span"])
    def test_explicit_grid_is_written(self, tmp_path, command, keys, expected):
        (tmp_path / "cfg").write_text(MINIMAL_DIRECT + keys)
        assert run_cli([command, "--config", tmp_path / "cfg",
                        "--out", tmp_path / "out"]) == 0
        rows = (tmp_path / "out" / f"{command}.csv").read_text().splitlines()
        assert [float(row.split(",")[0]) for row in rows[1:]] == expected.tolist()

    @pytest.mark.parametrize("text,command,line,fragment", CONFIG_ERRORS)
    def test_config_error_leaves_no_output_directory(self, tmp_path, capsys,
                                                     text, command, line,
                                                     fragment):
        (tmp_path / "cfg").write_text(text)
        out = tmp_path / "out" / "nested"
        assert run_cli([*command, "--config", tmp_path / "cfg",
                        "--out", out]) == 2
        err = capsys.readouterr().err
        prefix = "sps: config error: " + (f"line {line}: " if line else "")
        assert err.startswith(prefix) and err.count("\n") == 1, err
        assert fragment in err and (line or "line " not in err), err
        assert os.listdir(tmp_path) == ["cfg"]

    def test_config_error_keeps_an_existing_directory(self, tmp_path):
        (tmp_path / "cfg").write_text("[rates]\ngamma1 = 1\ngamma2 = 2\n")
        out = tmp_path / "out"
        out.mkdir()
        assert run_cli(["spectrum", "--config", tmp_path / "cfg",
                        "--out", out]) == 2
        assert os.listdir(out) == []

    @pytest.mark.parametrize("command,key", [
        (["decay"], "t_points = 1e15\n"),
        (["sweep"], "sweep_param = nbar\nsweep_stop = 1\n"
                    "sweep_points = 1e15\n"),
    ], ids=["decay-t_points", "sweep-sweep_points"])
    def test_grid_too_large_to_allocate_is_one_error_line(
            self, tmp_path, capsys, command, key):
        # An 8 PB grid fails at its allocation, before any memory is touched.
        (tmp_path / "cfg").write_text(MINIMAL_DIRECT + key)
        assert run_cli([*command, "--config", tmp_path / "cfg",
                        "--out", tmp_path / "out" / "nested"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("sps: error: ") and err.count("\n") == 1, err
        assert os.listdir(tmp_path) == ["cfg"]

    def test_unknown_figure_rejected(self, tmp_path):
        code = run_cli(["figure", "fig3", "--config", PRESETS / "fig5.cfg",
                        "--out", tmp_path])
        assert code == 0  # any preset works for fig3: it sweeps its own grid
        # argparse guards main; run_subcommand checks its own arguments.
        cfg = dataclasses.replace(parse_config(MINIMAL_DIRECT),
                                  out=str(tmp_path / "new" / "nested"))
        with pytest.raises(ConfigError, match="unknown subcommand 'nope'"):
            run_subcommand("nope", cfg)
        with pytest.raises(ConfigError, match="unknown figure 'fig6'"):
            run_subcommand("figure", cfg, fig="fig6")
        assert not (tmp_path / "new").exists()


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


def run_python(source, *args):
    """Run ``source`` in a fresh interpreter that imports this ``sps``."""
    src = str(Path(sps.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + [p for p in [env.get("PYTHONPATH")] if p])
    return subprocess.run([sys.executable, "-c", source, *map(str, args)],
                          env=env, capture_output=True, text=True, timeout=120)


#: Runs in a fresh interpreter; argv[1] is a direct-mode config, argv[2] a
#: physical-mode one and argv[3] the output dir.
IMPORT_PROBE = """
import math
import sys

def scipy_modules():
    return sorted(m for m in sys.modules if m.split(".")[0] == "scipy")

import sps
assert "sps.cli" not in sys.modules and "argparse" not in sys.modules
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
        # scipy: <B> and the oracle are numpy only.  Nor may import sps load
        # the CLI or argparse, which only a command needs.
        direct, physical = tmp_path / "direct.cfg", tmp_path / "physical.cfg"
        direct.write_text(MINIMAL_DIRECT + "engine = both\nsx0 = 0.3\n")
        physical.write_text(PHYSICAL_THERMAL)
        proc = run_python(IMPORT_PROBE, direct, physical, tmp_path)
        assert proc.returncode == 0, proc.stderr
        for name in ("steady", "spectrum"):
            meta = (tmp_path / f"{name}_compare.meta").read_text()
            assert "status=pass" in meta
        meta = (tmp_path / "rates.meta").read_text()
        assert "mode=physical" in meta and "include_B=true" in meta


#: Runs in a fresh interpreter: ``import sps`` and ``import sps.cli`` leave
#: the collector alone, then the process entry runs argv[1:]; prints the
#: (enabled, frozen count) states before the imports, after them and after
#: the entry, and exits with the entry's status.
ENTRY_PROBE = """
import gc
import sys

states = [(gc.isenabled(), gc.get_freeze_count())]
import sps
import sps.cli
states.append((gc.isenabled(), gc.get_freeze_count()))
status = sps.cli.run(sys.argv[1:])
states.append((gc.isenabled(), gc.get_freeze_count()))
print(states)
sys.exit(status)
"""


def _tree_bytes(directory):
    return {path.name: path.read_bytes() for path in directory.iterdir()}


class TestProcessEntry:
    ARGV = ["spectrum", "--config", PRESETS / "spectrum_locked.cfg",
            "--engine", "both"]

    def test_main_leaves_the_collector_alone(self, tmp_path):
        def state():
            return gc.isenabled(), gc.get_freeze_count(), warnings.formatwarning

        before = state()
        assert run_cli([*self.ARGV, "--out", tmp_path]) == 0
        assert state() == before

    def test_entry_in_process(self, tmp_path, monkeypatch):
        frozen = []
        monkeypatch.setattr(gc, "freeze", lambda: frozen.append(True))
        monkeypatch.setattr(warnings, "formatwarning", warnings.formatwarning)
        assert cli.run([str(arg) for arg in self.ARGV]
                       + ["--out", str(tmp_path)]) == 0
        assert frozen == [True]
        assert warnings.formatwarning(UserWarning("far"), UserWarning,
                                      "x.py", 1) == "sps: warning: far\n"
        assert (tmp_path / "spectrum_compare.meta").exists()

    def test_entry_freezes_the_import_heap_and_matches_main(self, tmp_path):
        proc = run_python(ENTRY_PROBE, *self.ARGV, "--out", tmp_path / "entry")
        status = run_cli([*self.ARGV, "--out", tmp_path / "main"])
        assert proc.returncode == status == 0, proc.stderr
        before, imported, after = ast.literal_eval(proc.stdout)
        assert imported == before and before[0]
        assert after[0] and after[1] > 0
        assert _tree_bytes(tmp_path / "entry") == _tree_bytes(tmp_path / "main")

    def test_warning_is_one_stderr_line(self, tmp_path):
        # A detuning far beyond the cutoff warns once for both tones, as a
        # line that names neither the install path nor a source line.
        config = tmp_path / "far.cfg"
        config.write_text((PRESETS / "physical.cfg").read_text().replace(
            "detuning = 490", "detuning = 30000"))
        proc = run_python("import sys, sps.cli; sys.exit(sps.cli.run(sys.argv[1:]))",
                          "rates", "--config", config, "--out", tmp_path / "out")
        assert proc.returncode == 0, proc.stderr
        line, = proc.stderr.splitlines()
        assert line.startswith("sps: warning: detuning 30000.0 GHz lies outside")
        assert (tmp_path / "out" / "rates.csv").exists()

    def test_console_script_is_the_main_block_entry(self):
        tomllib = pytest.importorskip("tomllib")  # Python >= 3.11
        with open(ROOT / "pyproject.toml", "rb") as handle:
            target = tomllib.load(handle)["project"]["scripts"]["sps"]
        module, _, name = target.partition(":")
        entry = getattr(importlib.import_module(module), name)
        tree = ast.parse(Path(cli.__file__).read_text(encoding="utf-8"))
        main_block, = [node for node in tree.body if isinstance(node, ast.If)
                       and ast.unparse(node.test) == "__name__ == '__main__'"]
        call = main_block.body[0].value  # sys.exit(<entry>())
        assert ast.unparse(call.func) == "sys.exit" and not call.args[0].args
        assert entry is getattr(cli, call.args[0].func.id)
