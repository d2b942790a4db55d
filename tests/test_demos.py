"""Smoke test: every demo script runs to completion against the package,
and the figure demo writes what `sps figure` writes."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import sps
from sps.cli import main

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def run_demo(demo, cwd):
    """Run one demo script in ``cwd`` against this package; its process."""
    src = str(Path(sps.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + [p for p in [env.get("PYTHONPATH")] if p])
    return subprocess.run([sys.executable, str(demo)], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.name)
def test_demo_runs(demo, tmp_path):
    # cwd is tmp_path so that the fig*.csv a demo writes stay out of the repo.
    proc = run_demo(demo, tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout


def test_figure_demo_writes_the_cli_figures(tmp_path):
    # The library calls of the demo and `sps figure` on the presets are the
    # same computation, down to the bytes of each CSV.
    assert run_demo(ROOT / "demos" / "06_figure_datasets.py",
                    tmp_path).returncode == 0
    for fig in ("fig3", "fig4", "fig5"):
        out = tmp_path / "cli" / fig
        assert main(["figure", fig, "--config",
                     str(ROOT / "presets" / f"{fig}.cfg"), "--out", str(out)]) == 0
        csv = f"{fig}.csv"
        assert (out / csv).read_bytes() == (tmp_path / csv).read_bytes(), csv
