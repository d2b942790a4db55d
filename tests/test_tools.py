"""tools/compare_outputs.py: run-by-run output comparison of two trees."""

import importlib.util
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TOOL = ROOT / "tools" / "compare_outputs.py"

_spec = importlib.util.spec_from_file_location("compare_outputs", TOOL)
compare_outputs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(compare_outputs)


def test_same_tree_is_identical():
    proc = subprocess.run(
        [sys.executable, str(TOOL), str(ROOT), str(ROOT),
         "--config", str(ROOT / "presets" / "fig5.cfg"),
         "--command", "figure fig5"],
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.splitlines()[-1] == "identical: 4 runs"


def test_ulps_and_cell_report():
    assert compare_outputs.ulps(1.0, 1.0) == 0
    assert compare_outputs.ulps(1.0, 1.0000000000000002) == 1
    assert compare_outputs.ulps(-0.0, 0.0) == 0
    assert compare_outputs.ulps(-5e-324, 5e-324) == 2
    report = compare_outputs.diff_file(
        "t.csv", b"a,b\n1,0.1\n", b"a,b\n1,0.10000000000000002\n")
    assert report.startswith("t.csv: 1 cells differ, largest 1 ulps")
