"""tools/compare_outputs.py: run-by-run output comparison of two trees;
tools/unreached_lines.py: the source lines a test run never executes."""

import importlib.util
import os
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


def _fake_tree(root, cli_source):
    """A checkout whose ``python -m sps.cli`` runs ``cli_source``."""
    package = root / "src" / "sps"
    package.mkdir(parents=True)
    (package / "__init__.py").write_text("")
    (package / "cli.py").write_text(cli_source)
    return root


def test_directory_made_by_one_side_is_reported(tmp_path):
    # Both trees exit 2 with no file written; only the parent leaves out/.
    parent = _fake_tree(tmp_path / "parent",
                        "import os, sys\nos.makedirs('out')\nsys.exit(2)\n")
    change = _fake_tree(tmp_path / "change", "import sys\nsys.exit(2)\n")
    config = tmp_path / "x.cfg"
    config.write_text("")
    proc = subprocess.run(
        [sys.executable, str(TOOL), str(parent), str(change),
         "--config", str(config), "--command", "rates"],
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 1, proc.stdout + proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[:2] == ["x.cfg rates:", "    out/: written by the parent only"]
    assert lines[-1] == "differ: 4 of 4 runs"


UNREACHED = ROOT / "tools" / "unreached_lines.py"


def test_unreached_lines_names_the_branch_never_taken(tmp_path):
    package = tmp_path / "pkg"
    package.mkdir()
    (package / "mod.py").write_text(
        "def sign(x):\n"
        "    if x < 0:\n"
        "        return -1\n"
        "    return 1\n")
    (tmp_path / "test_mod.py").write_text(
        "from pkg.mod import sign\n\n\n"
        "def test_positive():\n"
        "    assert sign(2) == 1\n")
    proc = subprocess.run(
        [sys.executable, str(UNREACHED), "--source", str(package), "-q",
         "-p", "no:cacheprovider", str(tmp_path / "test_mod.py")],
        capture_output=True, text=True, timeout=120, cwd=tmp_path)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.splitlines()[-2:] == [
        os.path.join("pkg", "mod.py") + ":3: return -1", "unreached: 1"]
