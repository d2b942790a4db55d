"""Compare what two source trees of sps write, run by run.

    python3 tools/compare_outputs.py PARENT_SRC CHANGE_SRC [--config CFG ...]
                                     [--command CMD ...]

PARENT_SRC and CHANGE_SRC are checkouts, each holding ``src/sps``.  Every
config (by default the ``presets/*.cfg`` of CHANGE_SRC) is run through
every command (by default each subcommand and each figure), once without
``--engine`` and once with each engine, as ``python -m sps.cli`` in a fresh
process per run and tree.  The runs are compared by exit code, standard
output, standard error (with each tree's ``src`` path replaced by
``<src>``), the directories made and the bytes of every file written.  For
a file that differs, the cells (split at ``,`` and ``=``) that differ are
counted, and the largest distance between two differing finite floats is
given in ulps.

The last line is ``identical: N runs`` (exit status 0) or
``differ: K of N runs`` (exit status 1).
"""

from __future__ import annotations

import argparse
import filecmp
import math
import os
import re
import shutil
import struct
import subprocess
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

COMMANDS = ("rates", "squeezing", "decay", "steady", "spectrum", "sweep",
            "figure fig3", "figure fig4", "figure fig5")
ENGINES = (None, "analytic", "numeric", "both")
#: Child processes run at once; each run is one short single-threaded process.
JOBS = min(4, os.cpu_count() or 1)
#: Differing cells quoted per file.
QUOTED_CELLS = 3


def ulps(a, b):
    """Number of representable doubles from ``a`` to ``b`` (both finite)."""
    def ordinal(x):
        bits = struct.unpack("<q", struct.pack("<d", x))[0]
        return bits if bits >= 0 else -(bits & 0x7FFFFFFFFFFFFFFF)
    return abs(ordinal(a) - ordinal(b))


def _finite(text):
    try:
        value = float(text)
    except ValueError:
        return None
    return value if math.isfinite(value) else None


def diff_file(name, old, new):
    """How two versions of an output file differ: a summary line, then up
    to ``QUOTED_CELLS`` of the differing cells."""
    old_lines = old.decode("utf-8", "replace").splitlines()
    new_lines = new.decode("utf-8", "replace").splitlines()
    if len(old_lines) != len(new_lines):
        return f"{name}: {len(old_lines)} vs {len(new_lines)} lines"
    cells, worst, quoted = 0, None, []
    for row, (a, b) in enumerate(zip(old_lines, new_lines)):
        if a == b:
            continue
        a_cells, b_cells = re.split("[,=]", a), re.split("[,=]", b)
        if len(a_cells) != len(b_cells):
            return f"{name}: line {row + 1} has {len(a_cells)} vs {len(b_cells)} cells"
        for col, (x, y) in enumerate(zip(a_cells, b_cells)):
            if x == y:
                continue
            cells += 1
            fx, fy = _finite(x), _finite(y)
            if fx is not None and fy is not None:
                worst = max(worst or 0, ulps(fx, fy))
            if len(quoted) < QUOTED_CELLS:
                quoted.append(f"line {row + 1} cell {col + 1}: {x} vs {y}")
    text = f"{name}: {cells} cells differ"
    if worst is not None:
        text += f", largest {worst} ulps between floats"
    return text + "".join(f"\n      {q}" for q in quoted)


def run(tree, config, command, engine, work):
    """Exit code, stdout, stderr and written paths of one fresh CLI run.

    The paths map each name under ``work`` to its ``Path``; a directory's
    name ends in ``/``.
    """
    work.mkdir(parents=True)
    src = str(tree / "src")
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    env["PYTHONPATH"] = src
    argv = [sys.executable, "-m", "sps.cli", *command.split(),
            "--config", str(config), "--out", "out"]
    if engine:
        argv += ["--engine", engine]
    proc = subprocess.run(argv, cwd=work, env=env, capture_output=True)
    files = {str(p.relative_to(work)) + "/" * p.is_dir(): p
             for p in work.rglob("*")}
    return (proc.returncode, proc.stdout.replace(src.encode(), b"<src>"),
            proc.stderr.replace(src.encode(), b"<src>"), files)


def compare(old, new):
    """Lines describing how two run results differ; empty if identical."""
    found = []
    if old[0] != new[0]:
        found.append(f"exit {old[0]} vs {new[0]}")
    for label, a, b in (("stdout", old[1], new[1]), ("stderr", old[2], new[2])):
        if a != b:
            found.append(diff_file(label, a, b))
    old_files, new_files = old[3], new[3]
    for name in sorted(old_files.keys() | new_files.keys()):
        if name not in new_files or name not in old_files:
            side = "parent" if name in old_files else "change"
            found.append(f"{name}: written by the {side} only")
        elif not name.endswith("/") and not filecmp.cmp(
                old_files[name], new_files[name], shallow=False):
            found.append(diff_file(name, old_files[name].read_bytes(),
                                   new_files[name].read_bytes()))
    return found


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path, help="parent checkout")
    parser.add_argument("change", type=Path, help="changed checkout")
    parser.add_argument("--config", type=Path, action="append",
                        help="config to run (repeatable; default: the presets)")
    parser.add_argument("--command", action="append", choices=COMMANDS,
                        help="command to run (repeatable; default: all)")
    args = parser.parse_args(argv)
    trees = [args.parent.resolve(), args.change.resolve()]
    for tree in trees:
        if not (tree / "src" / "sps" / "cli.py").is_file():
            parser.error(f"{tree} holds no src/sps/cli.py")
    configs = [c.resolve() for c in
               args.config or sorted((trees[1] / "presets").glob("*.cfg"))]
    cases = [(config, command, engine) for config in configs
             for command in args.command or COMMANDS for engine in ENGINES]

    with tempfile.TemporaryDirectory(prefix="compare-outputs-") as tmp:
        def both(index):
            """Run one case on both trees; its outputs go once compared."""
            work = Path(tmp) / str(index)
            old, new = (run(tree, *cases[index], work / side)
                        for side, tree in zip(("parent", "change"), trees))
            found = compare(old, new)
            shutil.rmtree(work)
            return found
        with ThreadPoolExecutor(JOBS) as pool:
            results = list(pool.map(both, range(len(cases))))

    differing = 0
    for (config, command, engine), found in zip(cases, results):
        if found:
            differing += 1
            flag = f" --engine {engine}" if engine else ""
            print(f"{config.name} {command}{flag}:")
            for line in found:
                print(f"    {line}")
    if differing:
        print(f"differ: {differing} of {len(cases)} runs")
        return 1
    print(f"identical: {len(cases)} runs")
    return 0


if __name__ == "__main__":
    sys.exit(main())
