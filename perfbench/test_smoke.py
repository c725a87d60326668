"""Smoke test of the benchmark on tiny sizes.

Run from the root of the checkout with ``python3 -m pytest perfbench``.
Each workload runs with the tiny grids of ``workloads.TINY`` in both modes,
and must emit every metric that ``BENCHMARK.json`` names, with its unit.
Planted reports check that a broken identity, a non-finite number and a
hanging child each count as a failed attempt.
"""

import json
import math
import os
import shutil
import sys

import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import checks  # noqa: E402
import run  # noqa: E402
import traced  # noqa: E402
import workloads  # noqa: E402

with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
    SPEC = json.load(fh)

COPY = "import shutil, sys; shutil.copy(sys.argv[1], sys.argv[2])"


@pytest.fixture
def rundir(request):
    path = os.path.join(run.WORK, f"smoke-{request.node.name}-{os.getpid()}")
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)
    yield path
    shutil.rmtree(path, ignore_errors=True)


def _emitted(line: str, spec: list) -> dict:
    result = json.loads(line)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1
    metrics = result["metrics"]
    assert [(m["name"], m["unit"]) for m in spec] == \
        [(name, v["unit"]) for name, v in metrics.items()]
    for name, v in metrics.items():
        assert isinstance(v["value"], float) and math.isfinite(v["value"]), name
    return result


def test_spec_lists_every_workload_and_layer_metric():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.NAMES)
    assert [(m["name"], m["unit"]) for m in SPEC["per_layer"]] == traced.LAYER_METRICS
    assert [(m["name"], m["unit"]) for m in SPEC["end_to_end"]] == run.END_TO_END


@pytest.mark.parametrize("name", workloads.NAMES)
def test_end_to_end_metrics(name, rundir):
    line = run.measure(name, 3, 0.1, rundir, workloads.TINY)
    result = _emitted(line, SPEC["end_to_end"])
    assert result["correct"] is True and result["failed"] == 0
    for metric in ("wall_s", "cpu_s", "setup_s", "peak_rss_mb"):
        assert result["metrics"][metric]["value"] > 0.0


@pytest.mark.parametrize("name", workloads.NAMES)
def test_per_layer_metrics(name, rundir):
    line = run.trace(name, 3, rundir, workloads.TINY)
    metrics = _emitted(line, SPEC["per_layer"])["metrics"]
    assert metrics["cli.run_s"]["value"] > 0.0
    assert metrics["trace.wall_s"]["value"] > 0.0


def _relaxed_report(rundir: str) -> str:
    runs = workloads.build("assemble-distinct", 3, rundir, run.ROOT, workloads.TINY)
    child = run.run_cli(runs[0], rundir, 3, run.Budget())
    assert child.report is not None
    return os.path.join(rundir, runs[0].out, runs[0].report)


@pytest.mark.parametrize("plant, problem", [
    ("total", "total.upper != I1 + I2"),
    ("nan", "non-finite number NaN"),
])
def test_planted_report_counts_as_failure(plant, problem, rundir):
    report = _relaxed_report(rundir)
    planted = os.path.join(rundir, "planted.json")
    with open(report) as fh:
        body = json.load(fh)
    if plant == "total":
        body["relaxed"]["total"]["upper"] += 1.0
    else:
        body["relaxed"]["bulk1"]["upper"] = float("nan")
    with open(planted, "w") as fh:
        json.dump(body, fh)
    child = run.run_child([sys.executable, "-c", COPY, planted, report], rundir, report,
                          "relax-assemble", 3, 30.0, os.path.join(rundir, "copy.log"))
    assert not child.ok
    assert any(problem in p for p in child.problems)


def test_planted_report_fails_the_run(rundir, monkeypatch):
    report = _relaxed_report(rundir)
    planted = os.path.join(rundir, "planted.json")
    body = checks.load_strict(report)
    body["relaxed"]["total"]["lower"] -= 1.0
    with open(planted, "w") as fh:
        json.dump(body, fh)
    # stands in for the CLI: "run CONFIG --out DIR ..." copies the planted report to DIR
    fake = f"import shutil, sys; shutil.copy({planted!r}, sys.argv[4] + '/report.json')"
    monkeypatch.setattr(run, "CLI", [sys.executable, "-c", fake])
    result = json.loads(run.measure("assemble-distinct", 3, 0.1, rundir, workloads.TINY))
    assert result["correct"] is False
    assert result["failed"] == result["attempted"] >= 1


@pytest.mark.xfail(strict=True, reason="program defect: estimate_gamma1 certifies a lower "
                   "bound above its upper bound on a jump of rounding size")
def test_fixture_without_offset_keeps_brackets_ordered(rundir):
    # Without the offset every jump of g is rounding noise; the report then has
    # surf1.lower ~1e-16 > surf1.upper = 0.0.  This passes once the defect is fixed.
    g, G = workloads.fixture_fields(3, 2)
    runs = workloads._generated(rundir, 3, "relax-assemble", 2, g, G, {"assemble": {}})
    child = run.run_cli(runs[0], rundir, 3, run.Budget())
    assert child.ok, child.problems


def test_timeout_counts_as_failure(rundir):
    report = os.path.join(rundir, "never.json")
    child = run.run_child([sys.executable, "-c", "import time; time.sleep(30)"], rundir,
                          report, "relax-assemble", 3, 0.5, os.path.join(rundir, "sleep.log"))
    assert child.problems and child.problems[0].startswith("timeout")
    assert child.wall_s < 10.0
