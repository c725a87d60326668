"""Benchmark of the sdrelax CLI: seeded workloads, end-to-end and per-layer metrics.

Usage, from the root of a source checkout::

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The program under test is the checkout's own ``src/sdrelax``: every CLI
child runs the ``sdrelax`` console entry point (``sdrelax.cli.main``) with
``src`` on ``PYTHONPATH``.  Inputs come from ``--seed`` (see
``workloads.py``).  A single closed-loop client runs the workload's CLI
processes one after the other, tracing off, and keeps starting passes while
another one fits in ``--seconds``.  Every report is checked (``checks.py``);
a nonzero exit, a timeout or a failed check counts as a failed attempt.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs one
untraced pass and then each CLI config once more in a traced child
(``traced.py``) and prints the per-layer metrics with the tracing overhead
(traced minus untraced wall time).  Human-readable lines come first: every
metric with its samples, the failure ratio, the bracket gap of assembly
reports, a digest of each report and, when traced, self time per span.  The
last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  Scratch files live under
``.perfbench-work/``; the spans of the latest traced run of each workload
and seed stay there as ``spans-<workload>-seed<n>-<i>.json``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import checks  # noqa: E402
import traced  # noqa: E402
import workloads  # noqa: E402

WORK = os.path.join(ROOT, ".perfbench-work")
CLI = [sys.executable, "-c", "import sys; from sdrelax.cli import main; sys.exit(main())"]
CHILD_TIMEOUT_S = 60.0    # one CLI process; the slowest full-size one takes ~8 s
HARD_BUDGET_S = 165.0     # the whole run must end within 180 s
SETUP_PROBES = 5
GAUSS_GREEN_TOL = 1e-10


@dataclass
class Child:
    """One finished child process."""

    wall_s: float
    cpu_s: float
    rss_mb: float
    problems: list
    report: dict | None = None
    digest: str | None = None

    @property
    def ok(self) -> bool:
        return not self.problems


class Budget:
    """Caps every child's timeout so the whole run ends in time."""

    def __init__(self, seconds: float = HARD_BUDGET_S):
        self.end = time.perf_counter() + seconds

    def timeout(self) -> float:
        return max(1.0, min(CHILD_TIMEOUT_S, self.end - time.perf_counter()))


def child_env() -> dict:
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def spawn(cmd: list, cwd: str, timeout: float, log_path: str):
    """Run cmd to completion; return (exit code, wall s, rusage, timed out).

    Wall time runs from spawn to the child's exit, as ``os.wait4`` reports
    it; a timer kills the child after ``timeout`` seconds.
    """
    with open(log_path, "wb") as log:
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=cwd, env=child_env(), stdin=subprocess.DEVNULL,
                                stdout=log, stderr=subprocess.STDOUT)
    fired = threading.Event()

    def kill():
        fired.set()
        proc.kill()

    timer = threading.Timer(timeout, kill)
    timer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    finally:
        timer.cancel()
    wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage, fired.is_set()


def run_child(cmd: list, cwd: str, report_path: str, kind: str, seed: int,
              timeout: float, log_path: str) -> Child:
    """Run one child that should write ``report_path``, and check that report."""
    if os.path.exists(report_path):
        os.remove(report_path)
    code, wall, usage, timed_out = spawn(cmd, cwd, timeout, log_path)
    child = Child(wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0, [])
    if timed_out:
        child.problems.append(f"timeout after {timeout:.0f} s")
    elif code != 0:
        child.problems.append(f"exit code {code}")
    else:
        child.problems, child.report = checks.check_report(report_path, kind, seed)
        if child.report is not None:
            child.digest = checks.digest(child.report)
    if child.problems:
        with open(log_path, errors="replace") as fh:
            tail = fh.read()[-2000:]
        print(f"FAILED {' '.join(cmd[3:])}: {'; '.join(child.problems)}\n{tail}")
    return child


def run_cli(run: workloads.Run, rundir: str, seed: int, budget: Budget) -> Child:
    cmd = CLI + ["run", run.config, "--out", run.out, "--seed", str(seed)]
    report = os.path.join(rundir, run.out, run.report)
    return run_child(cmd, rundir, report, run.kind, seed, budget.timeout(),
                     os.path.join(rundir, "child.log"))


def run_setup_probe(runs: list, rundir: str, budget: Budget) -> float | None:
    """Wall time of a fresh interpreter that imports the CLI and builds the inputs."""
    cmd = [sys.executable, os.path.join(HERE, "setup_probe.py")] + [r.config for r in runs]
    code, wall, _, timed_out = spawn(cmd, rundir, budget.timeout(),
                                     os.path.join(rundir, "setup.log"))
    if code != 0 or timed_out:
        with open(os.path.join(rundir, "setup.log"), errors="replace") as fh:
            print(f"FAILED setup probe (exit {code}):\n{fh.read()[-2000:]}")
        return None
    return wall


# ---------------------------------------------------------------------------
# statistics and output
# ---------------------------------------------------------------------------


def tail_percentile(values: list) -> tuple[int, float] | None:
    """Highest whole percentile with at least ten samples above it (nearest rank)."""
    n = len(values)
    if n < 11:
        return None
    p = (100 * (n - 10)) // n
    rank = max(1, math.ceil(p * n / 100))
    return p, sorted(values)[rank - 1]


def describe(name: str, values: list, unit: str) -> str:
    line = f"{name:<14} median {statistics.median(values):.6g} {unit}"
    tail = tail_percentile(values)
    line += f", p{tail[0]} {tail[1]:.6g} {unit}" if tail else ", no percentile (<11 samples)"
    return line + f", n={len(values)}: " + " ".join(f"{v:.4g}" for v in values)


def result_line(correct: bool, attempted: int, failed: int, metrics: dict, spec: list) -> str:
    out = {name: {"value": metrics[name], "unit": unit} for name, unit in spec}
    return json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                       "metrics": out})


def print_digests(name: str, seed: int, runs: list, digests: list) -> None:
    for run, dig in zip(runs, digests):
        print(f"digest {name} seed={seed} {os.path.basename(run.config)}: {dig}")


def consistent_digests(passes: list) -> list:
    """Digest of each run; a run whose digest changes between passes fails."""
    out = []
    for i, first in enumerate(passes[0]):
        seen = {p[i].digest for p in passes if p[i].digest is not None}
        if len(seen) > 1:
            for p in passes:
                p[i].problems.append("report differs between passes")
        out.append(first.digest)
    return out


# ---------------------------------------------------------------------------
# the two modes
# ---------------------------------------------------------------------------

END_TO_END = [("wall_s", "s"), ("cpu_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB")]


def measure(name: str, seed: int, seconds: float, rundir: str,
            sizes: dict = workloads.FULL) -> str:
    """Untraced run: set-up probes, then closed-loop passes for ``seconds``."""
    budget = Budget()
    runs = workloads.build(name, seed, rundir, ROOT, sizes)
    setups = [run_setup_probe(runs, rundir, budget) for _ in range(SETUP_PROBES)]
    setups = [s for s in setups if s is not None]

    passes = []
    start = time.perf_counter()
    while True:
        passes.append([run_cli(run, rundir, seed, budget) for run in runs])
        elapsed = time.perf_counter() - start
        per_pass = elapsed / len(passes)
        if elapsed + per_pass > seconds or time.perf_counter() + per_pass > budget.end:
            break
    digests = consistent_digests(passes)
    children = [c for p in passes for c in p]
    failed = sum(not c.ok for c in children)
    walls = [sum(c.wall_s for c in p) for p in passes]
    cpus = [sum(c.cpu_s for c in p) for p in passes]
    metrics = {
        "wall_s": statistics.median(walls),
        "cpu_s": statistics.median(cpus),
        "setup_s": statistics.median(setups) if setups else 0.0,
        "peak_rss_mb": max(c.rss_mb for c in children),
    }
    print(f"workload {name} seed={seed}: {len(passes)} passes of {len(runs)} CLI "
          f"process(es), one closed-loop client, {time.perf_counter() - start:.1f} s")
    print(describe("wall_s", walls, "s"))
    print(describe("cpu_s", cpus, "s"))
    if setups:
        print(describe("setup_s", setups, "s"))
    print(f"{'peak_rss_mb':<14} max {metrics['peak_rss_mb']:.6g} MB over {len(children)} processes")
    print(f"{'fail_ratio':<14} {failed / len(children):.6g} ({failed} of {len(children)})")
    gaps = [c.report["relaxed"]["total"] for c in passes[0]
            if c.report is not None and "relaxed" in c.report]
    if gaps:
        print(f"{'bracket_gap':<14} {sum(t['upper'] - t['lower'] for t in gaps):.17g} energy")
    print_digests(name, seed, runs, digests)
    correct = failed == 0 and len(setups) == SETUP_PROBES
    return result_line(correct, len(children), failed, metrics, END_TO_END)


def trace(name: str, seed: int, rundir: str, sizes: dict = workloads.FULL) -> str:
    """One untraced pass, then every config once in a traced child."""
    budget = Budget()
    runs = workloads.build(name, seed, rundir, ROOT, sizes)
    untraced = [run_cli(run, rundir, seed, budget) for run in runs]
    results = []
    children = list(untraced)
    for i, run in enumerate(runs):
        spans = os.path.join(WORK, f"spans-{name}-seed{seed}-{i}.json")
        res_path = os.path.join(rundir, f"traced-{i}.json")
        out = run.out + "-traced"
        cmd = [sys.executable, os.path.join(HERE, "traced.py"), run.config, "--out", out,
               "--seed", str(seed), "--spans", spans,
               "--result", res_path, "--report", run.report]
        child = run_child(cmd, rundir, os.path.join(rundir, out, run.report), run.kind, seed,
                          budget.timeout(), os.path.join(rundir, "traced.log"))
        if child.digest is not None and child.digest != untraced[i].digest:
            child.problems.append("traced report differs from the untraced one")
        children.append(child)
        if os.path.exists(res_path):
            with open(res_path) as fh:
                res = json.load(fh)
            res["wall_s"] = child.wall_s - res.pop("post_s")
            results.append(res)
            if res["metrics"]["fields.gauss_green_residual_max"] > GAUSS_GREEN_TOL:
                child.problems.append("Gauss-Green residual of u_n above 1e-10")
    failed = sum(not c.ok for c in children)
    correct = failed == 0 and len(results) == len(runs)
    metrics = traced.combine(results)
    metrics["trace.untraced_wall_s"] = sum(c.wall_s for c in untraced)
    metrics["trace.overhead_s"] = metrics["trace.wall_s"] - metrics["trace.untraced_wall_s"]
    print(f"workload {name} seed={seed}: traced run of {len(runs)} CLI config(s)")
    print(f"untraced wall {metrics['trace.untraced_wall_s']:.4f} s, traced wall "
          f"{metrics['trace.wall_s']:.4f} s, overhead {metrics['trace.overhead_s']:.4f} s")
    if results:
        print("self time by span (s):")
        self_s = traced.combine_self(results)
        for span, value in sorted(self_s.items(), key=lambda kv: -kv[1])[:15]:
            print(f"  {span:<44} {value:.4f}")
    print_digests(name, seed, runs, [c.digest for c in untraced])
    return result_line(correct, len(children), failed, metrics, traced.LAYER_METRICS)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "sdrelax", "cli.py")):
        print(f"error: no sdrelax source under {ROOT}/src", file=sys.stderr)
        return 2
    os.makedirs(WORK, exist_ok=True)
    rundir = os.path.join(WORK, f"{args.workload}-seed{args.seed}-{os.getpid()}")
    os.makedirs(rundir)
    try:
        if args.trace:
            line = trace(args.workload, args.seed, rundir)
        else:
            line = measure(args.workload, args.seed, args.seconds, rundir)
    finally:
        shutil.rmtree(rundir, ignore_errors=True)
    print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
