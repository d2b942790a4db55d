"""Unit tests of the benchmark's own logic.

Run with ``python -m pytest perfbench`` from the repository root; they are
kept out of the package's test paths.
"""

import random
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import checks  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from sps.cli import main  # noqa: E402


def test_union_merges_overlaps_and_clips():
    intervals = [(1.0, 3.0), (2.0, 4.0), (6.0, 7.0), (-1.0, 0.5), (9.0, 12.0)]
    # [0, 0.5] + [1, 4] + [6, 7] + [9, 10] after clipping to [0, 10]
    assert spans.union_length(intervals, 0.0, 10.0) == pytest.approx(5.5)
    assert spans.union_length([], 0.0, 1.0) == 0.0


def test_self_time_subtracts_union_not_sum():
    parent = spans.Span(1, None, "cli", "main", 0.0, 10.0)
    # two children overlapping in time, as on two pool threads
    a = spans.Span(2, 1, "bloch", "f", 1.0, 5.0)
    b = spans.Span(3, 1, "bloch", "f", 2.0, 6.0)
    grandchild = spans.Span(4, 2, "reservoir", "g", 1.5, 2.5)
    own = spans.self_times([parent, a, b, grandchild])
    assert own[1] == pytest.approx(10.0 - 5.0)
    assert own[2] == pytest.approx(4.0 - 1.0)
    assert own[3] == pytest.approx(4.0)
    assert own[4] == pytest.approx(1.0)


def test_thread_spans_attach_to_the_running_command(tmp_path):
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text("[rates]\ngamma1 = 1\ngamma2 = 3\nnbar = 0.5\nphi = 0\n"
                   "[run]\nOmega = 2\nsweep_param = Omega\nsweep_start = 1\n"
                   "sweep_stop = 3\nsweep_points = 40\n"
                   "sweep_quantity = steady\n")
    tracer = spans.Tracer()
    tracer.install()
    try:
        status = tracer.command(main, ["sweep", "--config", str(cfg),
                                       "--out", str(tmp_path)])
    finally:
        tracer.uninstall()
    assert status == 0
    root = next(s for s in tracer.spans if s.name == "main")
    rates = [s for s in tracer.spans if s.name == "reservoir_rates"]
    assert len(rates) == 40
    assert all(s.parent == root.sid for s in rates)
    layers = spans.aggregate(tracer.spans)
    assert layers["cli.rows_written"] == 40
    assert layers["oracle.calls"] == 0
    assert layers["cli.self_s"] <= root.duration


def _fig5_command(tmp_path):
    commands = workloads.build("bulk_datasets", 3, str(tmp_path))
    command = next(c for c in commands if c.args == ("figure", "fig5"))
    assert main(command.argv()) == 0
    return command


def test_row_recompute_accepts_the_program_output(tmp_path):
    command = _fig5_command(tmp_path)
    checker = checks.Checker()
    checks.check_command(checker, command, random.Random(0))
    assert checker.failures == []
    assert checker.attempted >= 4


def test_row_recompute_rejects_one_corrupted_cell(tmp_path):
    command = _fig5_command(tmp_path)
    path = Path(command.out) / "fig5.csv"
    lines = path.read_text().split("\n")
    picked = checks.sample(random.Random(0), command.outputs[0].rows)
    row = lines[1 + picked[3]].split(",")
    row[2] = "%.17g" % (float(row[2]) * (1.0 + 2.0 ** -50))  # last digits
    lines[1 + picked[3]] = ",".join(row)
    path.write_text("\n".join(lines))
    checker = checks.Checker()
    command.oracle = ""  # only the recompute check is under test
    checks.check_command(checker, command, random.Random(0))
    assert len(checker.failures) == 1
    assert "recomputed rows" in checker.failures[0]


SAMPLE_META = """supnorm_deviation=1.0384992857326303e-05
peak=0.12818095956985912
relative_deviation=8.1018217465180089e-05
tolerance=0.001
status=pass
"""


def test_xcheck_digits_from_compare_meta(tmp_path):
    out = tmp_path / "out"
    out.mkdir()
    (out / "spectrum_compare.meta").write_text(SAMPLE_META)
    (out / "decay_compare.meta").write_text(
        "supnorm_deviation=2e-12\ntolerance=1e-08\nstatus=pass\n")
    command = workloads.Command(("spectrum",), "unused", str(out),
                                compare=("spectrum_compare.meta",
                                         "decay_compare.meta"))
    checker = checks.Checker()
    checks.check_command(checker, command, random.Random(0))
    assert checker.failures == []
    assert checker.digits("spectrum") == pytest.approx(
        4.091417, abs=1e-6)
    assert checker.digits("dynamics") == pytest.approx(11.698970, abs=1e-6)


def test_failed_compare_meta_is_a_failure(tmp_path):
    (tmp_path / "steady_compare.meta").write_text(
        "supnorm_deviation=1e-3\ntolerance=1e-08\nstatus=fail\n")
    command = workloads.Command(("steady",), "unused", str(tmp_path),
                                compare=("steady_compare.meta",))
    checker = checks.Checker()
    checks.check_command(checker, command, random.Random(0))
    assert checker.failed == 1
    assert checker.digits("dynamics") == pytest.approx(3.0)


def test_importtime_parsing():
    text = """import time: self [us] | cumulative | imported package
import time:       200 |       1500 |   numpy
import time:       100 |     600000 |     scipy.integrate
import time:      5000 |     700000 |   sps.physparams
import time:       800 |     900000 | sps
"""
    got = run.parse_importtime(text)
    assert got == {"import.scipy_integrate_s": 0.6, "import.numpy_s": 0.0015,
                   "import.sps_self_s": 0.0058}
