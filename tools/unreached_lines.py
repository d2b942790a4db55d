"""List the source lines that an in-process pytest run never executes.

    python3 tools/unreached_lines.py [--source DIR] [PYTEST_ARGS ...]

Runs ``pytest.main(PYTEST_ARGS)`` (by default the suite under ``tests/``)
in this process under ``sys.settrace`` and ``threading.settrace``, and
records each line executed in a ``*.py`` file of ``--source`` (by default
``src/sps``; its parent directory goes first on ``sys.path``).  A file's
executable lines are those of the functions and class bodies it defines,
as their nested code objects' ``co_lines()`` give them; module-level
statements are not counted.  Tests run in child processes are not traced.

Prints ``file:line: text`` for each unreached line, then ``unreached: N``.
The exit status is pytest's.  It needs nothing beyond the standard library
and pytest.
"""

from __future__ import annotations

import argparse
import os
import sys
import threading
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def executable_lines(path):
    """Line numbers of the code objects nested in the module at ``path``."""
    module = compile(Path(path).read_text(encoding="utf-8"), str(path), "exec")
    lines, stack = set(), [const for const in module.co_consts
                           if hasattr(const, "co_lines")]
    while stack:
        code = stack.pop()
        lines.update(line for _, _, line in code.co_lines() if line is not None)
        stack.extend(const for const in code.co_consts
                     if hasattr(const, "co_lines"))
    return lines


def trace_run(files, pytest_args):
    """``(pytest status, {file: reached line numbers})`` for ``files``."""
    reached = {path: set() for path in files}

    def local(frame, event, arg):
        reached[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def on_call(frame, event, arg):
        if frame.f_code.co_filename not in reached:
            return None
        return local(frame, event, arg)

    threading.settrace(on_call)
    sys.settrace(on_call)
    try:
        status = pytest.main(list(pytest_args))
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return int(status), reached


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--source", type=Path, default=ROOT / "src" / "sps",
                        help="directory of the traced *.py files")
    args, pytest_args = parser.parse_known_args(argv)
    source = args.source.resolve()
    sys.path.insert(0, str(source.parent))
    files = sorted(str(path) for path in source.glob("*.py"))
    status, reached = trace_run(files, pytest_args or [str(ROOT / "tests")])
    count = 0
    for path in files:
        text = Path(path).read_text(encoding="utf-8").splitlines()
        for line in sorted(executable_lines(path) - reached[path]):
            print(f"{os.path.relpath(path)}:{line}: {text[line - 1].strip()}")
            count += 1
    print(f"unreached: {count}")
    return status


if __name__ == "__main__":
    sys.exit(main())
