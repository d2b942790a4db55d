"""Benchmark of the sps command-line program.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout (the program is imported from
``src/``).  Workloads, chosen so that each stresses different layers:

- ``cold_cli``: about a dozen small analytic invocations, one quick answer
  per call; interpreter start, ``import sps``, parsing and <B> dominate.
- ``oracle_xcheck``: ``--engine both`` for decay, steady and spectrum over
  six regimes; the Liouvillian oracle does nearly all the work.
- ``bulk_datasets``: two 10 000-point sweeps and the three figure datasets
  on large grids; closed forms, the sweep thread pool and CSV writing
  dominate.

With ``--trace 0`` every command runs as ``python -m sps.cli`` in a fresh
process, one at a time, in whole passes over the workload: at least one,
and another while it is expected to end within ``--seconds``; the
end-to-end metrics are printed.  With ``--trace 1`` the same commands run in one process through
``sps.cli.main`` with wrappers on each layer's public functions (see
``spans.py``), and the per-layer metrics are printed, together with the
``import sps`` breakdown from ``python -X importtime``.  Either way the
outputs are checked, and the last line of standard output is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

#: Fresh ``import sps`` processes timed for ``setup_s``.
SETUP_SAMPLES = 5
#: Fresh ``-X importtime`` processes for the import breakdown.
IMPORTTIME_SAMPLES = 3


class Child:
    """Wall time, exit code and max-RSS of one finished child process."""

    def __init__(self, argv, env, log):
        flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
        start = time.perf_counter()
        pid = os.posix_spawn(
            sys.executable, [sys.executable, *argv], env,
            file_actions=[(os.POSIX_SPAWN_OPEN, 1, log, flags, 0o644),
                          (os.POSIX_SPAWN_DUP2, 1, 2)])
        _, status, usage = os.wait4(pid, 0)
        self.wall_s = time.perf_counter() - start
        self.code = os.waitstatus_to_exitcode(status)
        self.rss_mb = usage.ru_maxrss / 1024.0  # ru_maxrss is in KiB on Linux
        self.log = log


def child_env():
    """Environment of every child: sources on the path, default sweep pool."""
    env = {k: v for k, v in os.environ.items() if k != "SPS_THREADS"}
    env["PYTHONPATH"] = str(SRC)
    return env


def _tail(path, lines=5):
    try:
        with open(path, encoding="utf-8", errors="replace") as handle:
            return " | ".join(handle.read().strip().splitlines()[-lines:])
    except OSError:
        return ""


def _ran(checker, child, what):
    return checker.check(child.code == 0,
                         f"{what}: exit {child.code}: {_tail(child.log)}")


def end_to_end(commands, seconds, work, checker):
    """Untraced passes in fresh processes; the end-to-end metrics."""
    env = child_env()
    log = str(work / "child.log")
    setup = []
    for _ in range(SETUP_SAMPLES):
        child = Child(["-c", "import sps"], env, log)
        _ran(checker, child, "import sps")
        setup.append(child.wall_s)

    # walls[i] holds the wall time of command i in every pass so far
    walls, rss, passes = [[] for _ in commands], 0.0, 0
    start = time.perf_counter()
    while not passes or elapsed * (passes + 1) / passes <= seconds:
        for command, times in zip(commands, walls):
            child = Child(["-m", "sps.cli", *command.argv()], env, log)
            _ran(checker, child, " ".join(command.args))
            times.append(child.wall_s)
            rss = max(rss, child.rss_mb)
        passes += 1
        elapsed = time.perf_counter() - start
    # A pass is timed as the sum of each command's median over the passes,
    # so one disturbed invocation does not move it.
    typical = [statistics.median(times) for times in walls]
    wall = sum(typical)
    rows = sum(o.rows for c in commands for o in c.outputs)
    return {
        "setup_s": (statistics.median(setup), "s"),
        "wall_s": (wall, "s"),
        "cmd_p50_s": (statistics.median(typical), "s"),
        "rows_per_s": (rows / wall, "1/s"),
        "peak_rss_mb": (rss, "MB"),
    }, passes


def import_breakdown(work, checker):
    """Median ``import.*`` seconds over fresh ``-X importtime`` imports."""
    samples = []
    for i in range(IMPORTTIME_SAMPLES):
        log = str(work / f"importtime{i}.log")
        child = Child(["-X", "importtime", "-c", "import sps"], child_env(), log)
        if not _ran(checker, child, "import sps -X importtime"):
            continue
        with open(log, encoding="utf-8") as handle:
            samples.append(parse_importtime(handle.read()))
    return {key: statistics.median(s[key] for s in samples)
            for key in samples[0]} if samples else {}


def parse_importtime(text):
    """``import.*`` seconds from ``-X importtime`` output."""
    self_us, cumulative_us = {}, {}
    for line in text.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        own, cumulative, name = line[len("import time:"):].split("|")
        name = name.strip()
        if own.strip().isdigit():
            self_us[name] = int(own)
            cumulative_us[name] = int(cumulative)
    sps_self = sum(v for k, v in self_us.items()
                   if k == "sps" or k.startswith("sps."))
    return {"import.scipy_integrate_s": cumulative_us.get("scipy.integrate", 0) / 1e6,
            "import.numpy_s": cumulative_us.get("numpy", 0) / 1e6,
            "import.sps_self_s": sps_self / 1e6}


def layers(commands, seconds, work, checker):
    """Traced in-process run; the per-layer metrics."""
    plan, result = work / "plan.json", work / "spans.json"
    plan.write_text(json.dumps({"commands": [c.argv() for c in commands],
                                "seconds": seconds}))
    metrics = import_breakdown(work, checker)
    child = Child([str(HERE / "spans.py"), str(plan), str(result)],
                  child_env(), str(work / "spans.log"))
    if not _ran(checker, child, "traced run"):
        raise RuntimeError(f"traced run failed: {_tail(child.log, 20)}")
    traced = json.loads(result.read_text())
    for command, status in zip(commands, traced["statuses"]):
        checker.check(status == 0, f"{' '.join(command.args)}: status {status}")
    for key in traced["layers"][0]:
        metrics[key] = statistics.median(p[key] for p in traced["layers"])
    metrics["trace.overhead_s"] = (statistics.median(traced["traced_s"])
                                   - statistics.median(traced["untraced_s"]))
    units = {"_s": "s", "calls": "count", "omega_points": "count",
             "rows_written": "count", "bytes_written": "bytes"}
    out = {}
    for key, value in metrics.items():
        unit = next(u for suffix, u in units.items() if key.endswith(suffix))
        out[key] = (value, unit)
    return out, len(traced["traced_s"])


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "sps" / "__init__.py").is_file():
        print(f"perfbench: no sps sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import numpy
    import scipy

    import checks
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"--workload must be one of {sorted(workloads.WORKLOADS)}")

    checker = checks.Checker()
    work = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT))
    try:
        commands = workloads.build(args.workload, args.seed, str(work))
        if args.trace:
            metrics, passes = layers(commands, args.seconds, work, checker)
        else:
            metrics, passes = end_to_end(commands, args.seconds, work, checker)
        rng = random.Random(f"check:{args.workload}:{args.seed}")
        for command in commands:
            try:
                checks.check_command(checker, command, rng)
            except Exception as exc:  # malformed output fails its command
                checker.check(False, f"{' '.join(command.args)}: "
                                     f"checking raised {exc!r}")
    finally:
        shutil.rmtree(work, ignore_errors=True)

    if not args.trace:
        for kind in ("dynamics", "spectrum"):
            metrics[f"xcheck_digits.{kind}"] = (checker.digits(kind), "digits")
        metrics["success_rate"] = (
            1.0 - checker.failed / checker.attempted, "ratio")

    for name, (value, unit) in metrics.items():
        print(f"{name:40s} {value:>16.6g} {unit}")
    for failure in checker.failures:
        print(f"FAILED: {failure}")
    print(json.dumps({"info": {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "passes": passes, "commands": len(commands),
        "nproc": os.cpu_count(), "python": platform.python_version(),
        "numpy": numpy.__version__, "scipy": scipy.__version__}}))
    print(json.dumps({
        "correct": checker.failed == 0, "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
