"""Per-layer timing of sps from outside the package.

Wrappers are installed on the public functions of each sps module, under
every name a caller looks the function up by (``cli`` uses
``from .x import y``, so ``sps.cli.y`` is wrapped as well as ``sps.x.y``).
Each wrapped call records a span: layer, function name, start, end and the
span that caused it.  Spans stay in memory until the pass ends.

``sweep`` evaluates its points on pool worker threads.  A span opened on a
thread with no open span of its own takes the running command as parent,
so thread work is attributed to the command that submitted it.  A span's
self time is its duration minus the union of its children's intervals,
which may overlap when the children ran on different threads.

Run as a script, this module is the traced run of the benchmark:

    python perfbench/spans.py PLAN.json RESULT.json

PLAN.json holds ``{"commands": [argv, ...], "seconds": s}``.  The script
runs every argv through ``sps.cli.main`` in this one process: a warm-up
pass, then passes that run each command untraced and then traced,
repeated while the next pass is expected to end within ``seconds``.  It
writes the untraced and traced time of every pass, the last pass's exit
statuses and the per-layer aggregates of every pass to RESULT.json.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import json
import os
import sys
import threading
import time
from dataclasses import dataclass, field

#: Modules whose public functions are wrapped; the layer is the module name.
LAYER_MODULES = ("physparams", "reservoir", "bloch", "spectrum", "oracle")
#: cli functions wrapped besides ``main``, which opens the command span.
CLI_PARSE = ("parse_config_file",)
CLI_WRITE = ("write_csv", "write_meta")
#: oracle functions whose inclusive time is reported on its own.
ORACLE_STAGES = ("propagate", "stationary_state", "regression_spectrum")


@dataclass
class Span:
    sid: int
    parent: int | None
    layer: str
    name: str
    start: float
    end: float
    note: dict = field(default_factory=dict)

    @property
    def duration(self):
        return self.end - self.start


def union_length(intervals, lo, hi):
    """Length of the union of ``intervals`` clipped to [lo, hi]."""
    clipped = sorted((max(a, lo), min(b, hi)) for a, b in intervals)
    total = 0.0
    cur_a = cur_b = None
    for a, b in clipped:
        if b <= a:
            continue
        if cur_b is None or a > cur_b:
            if cur_b is not None:
                total += cur_b - cur_a
            cur_a, cur_b = a, b
        else:
            cur_b = max(cur_b, b)
    if cur_b is not None:
        total += cur_b - cur_a
    return total


def self_times(spans):
    """Map span id -> duration minus the union of its children's intervals."""
    children = {}
    for span in spans:
        children.setdefault(span.parent, []).append((span.start, span.end))
    return {s.sid: s.duration - union_length(children.get(s.sid, ()),
                                             s.start, s.end)
            for s in spans}


class Tracer:
    """Collects spans from wrapped functions; one command at a time."""

    def __init__(self):
        self.spans = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._command = None
        self._installed = []

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _record(self, layer, name, fn, args, kwargs, note):
        stack = self._stack()
        parent = stack[-1] if stack else self._command
        sid = next(self._ids)
        stack.append(sid)
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            stack.pop()
            span = Span(sid, parent, layer, name, start, end)
            self.spans.append(span)
        if note is not None:
            span.note = note(args, result)
        return result

    def wrap(self, layer, name, fn, note=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return self._record(layer, name, fn, args, kwargs, note)
        return wrapper

    def command(self, main, argv):
        """Run one CLI command as the root span of the layer tree."""
        sid = next(self._ids)
        self._command = sid
        start = time.perf_counter()
        try:
            return main(argv)
        finally:
            end = time.perf_counter()
            self._command = None
            self.spans.append(Span(sid, None, "cli", "main", start, end))

    def install(self):
        """Wrap every target under each sps module name bound to it."""
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "sps" or n.startswith("sps."))]
        targets = []
        for layer in LAYER_MODULES:
            mod = sys.modules["sps." + layer]
            for name, fn in vars(mod).items():
                if (not name.startswith("_") and inspect.isfunction(fn)
                        and fn.__module__ == mod.__name__):
                    note = _spectrum_note if layer == "spectrum" else None
                    targets.append((layer, name, fn, note))
        cli = sys.modules["sps.cli"]
        for name in CLI_PARSE:
            targets.append(("cli", name, getattr(cli, name), None))
        for name in CLI_WRITE:
            targets.append(("cli", name, getattr(cli, name), _path_note))
        for layer, name, fn, note in targets:
            wrapper = self.wrap(layer, name, fn, note)
            for mod in modules:
                if vars(mod).get(name) is fn:
                    self._installed.append((mod, name, fn))
                    setattr(mod, name, wrapper)

    def uninstall(self):
        for mod, name, fn in reversed(self._installed):
            setattr(mod, name, fn)
        self._installed.clear()


def _spectrum_note(args, result):
    grid = getattr(result, "omega_grid", None)
    return {"omega_points": len(grid)} if grid is not None else {}


def _path_note(args, result):
    return {"path": os.fspath(args[0])}


def aggregate(spans):
    """Per-layer metrics of one traced pass (``import.*`` come from elsewhere)."""
    own = self_times(spans)
    out = {}
    for layer in LAYER_MODULES:
        mine = [s for s in spans if s.layer == layer]
        out[f"{layer}.busy_s"] = sum(own[s.sid] for s in mine)
        out[f"{layer}.calls"] = len(mine)
    out["physparams.displacement_factor.calls"] = sum(
        1 for s in spans if s.layer == "physparams"
        and s.name == "displacement_factor")
    for stage in ORACLE_STAGES:
        out[f"oracle.{stage}_s"] = sum(
            s.duration for s in spans if s.layer == "oracle" and s.name == stage)
    out["spectrum.omega_points"] = sum(
        s.note.get("omega_points", 0) for s in spans if s.layer == "spectrum")
    cli = [s for s in spans if s.layer == "cli"]
    out["cli.self_s"] = sum(own[s.sid] for s in cli)
    out["cli.parse_s"] = sum(s.duration for s in cli if s.name in CLI_PARSE)
    out["cli.write_s"] = sum(s.duration for s in cli if s.name in CLI_WRITE)
    rows = written = 0
    for s in cli:
        path = s.note.get("path")
        if path is None:
            continue
        with open(path, "rb") as handle:
            data = handle.read()
        written += len(data)
        if s.name == "write_csv":
            rows += data.count(b"\n") - 1
    out["cli.rows_written"] = rows
    out["cli.bytes_written"] = written
    return out


def _timed(call, *args):
    start = time.perf_counter()
    result = call(*args)
    return time.perf_counter() - start, result


def run_plan(plan):
    import sps.cli

    main = sps.cli.main
    commands = plan["commands"]
    for argv in commands:  # warm-up: lazy imports and first-call costs
        main(argv)
    untraced, traced, layers = [], [], []
    start = time.perf_counter()
    elapsed = 0.0
    while not traced or elapsed + elapsed / len(traced) <= plan["seconds"]:
        # Each command runs untraced and then traced, back to back, so that
        # a drift in machine speed hardly enters the traced-minus-untraced
        # overhead.
        tracer = Tracer()
        plain = wrapped = 0.0
        statuses = []
        for argv in commands:
            plain += _timed(main, argv)[0]
            tracer.install()
            try:
                wall, status = _timed(tracer.command, main, argv)
            finally:
                tracer.uninstall()
            wrapped += wall
            statuses.append(status)
        untraced.append(plain)
        traced.append(wrapped)
        layers.append(aggregate(tracer.spans))
        elapsed = time.perf_counter() - start
    return {"untraced_s": untraced, "traced_s": traced,
            "statuses": statuses, "layers": layers}


if __name__ == "__main__":
    with open(sys.argv[1], encoding="utf-8") as handle:
        result = run_plan(json.load(handle))
    with open(sys.argv[2], "w", encoding="utf-8") as handle:
        json.dump(result, handle)
