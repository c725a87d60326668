"""Traced in-process run of one CLI config, and the per-layer metrics.

Usage (with the checkout's ``src`` on ``PYTHONPATH``)::

    python3 perfbench/traced.py CONFIG --out DIR --seed N \
        --report NAME --spans FILE --result FILE

The child times ``import sdrelax.cli``, wraps the names each calling module
looks up (``sdrelax.cli`` for the task functions, ``sdrelax.assembly`` for
the estimators, ``sdrelax.cellformulas`` for ``check_admissibility``,
``competitor_energy``, ``trace_boundary``, ``recession`` and each family's
``build``, and so on; see ``install``), then calls ``sdrelax.cli.run`` the
way the console entry point does, with one job.  Each wrapped call becomes a
span: name, start, end and parent span.  Spans stay in memory and are
written once, after every wrapper is restored.  An admissibility check or a
competitor energy is charged to the family whose ``build`` made the field.

The benchmark's own check of ``u_n`` (the Gauss-Green residual) runs with
tracing paused; its time and the time spent writing results are reported as
``post_s`` so the parent can leave them out of the traced wall time.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
import time
from collections import defaultdict

import numpy as np

VARIANTS = {"estimate_W1": "W1", "estimate_W2": "W2",
            "estimate_gamma1": "gamma1", "estimate_gamma2": "gamma2"}
FAMILIES = ("staircase", "elementary_jump", "splitting", "affine", "laminate", "inclusion",
            "gradient_zigzag")

# metric name -> span name whose outermost calls it sums
SPAN_SECONDS = {
    "cli.run_s": "cli.run",
    "fields.jump_set_s": "fields.jump_set",
    "fields.l1_s": "fields.l1",
    "fields.refine_s": "fields.refine",
    "fields.trace_boundary_s": "fields.trace_boundary",
    "integrate.box_abs_affine_s": "integrate.box_abs_affine",
    "constructions.approximating_sequence_s": "constructions.approximating_sequence",
    "energy.total_energy_s": "energy.total_energy",
    **{f"cellformulas.{v}.s": f"cellformulas.{v}" for v in VARIANTS.values()},
    **{f"cellformulas.build.{f}.s": f"cellformulas.build.{f}" for f in FAMILIES},
    "cellformulas.check_admissibility_s": "cellformulas.check_admissibility",
    "cellformulas.competitor_energy_s": "cellformulas.competitor_energy",
    "densities.eval_s": "densities.eval",
    "densities.recession_s": "densities.recession",
    "assembly.assemble_s": "assembly.assemble",
    "hypotheses.check_s": "hypotheses.check",
    "trace_formula.verify_example_s": "trace_formula.verify_example",
    "expressions.eval_s": "expressions.eval",
}
# metric name -> span name whose calls it counts
SPAN_CALLS = {
    "fields.jump_set_calls": "fields.jump_set",
    "integrate.box_abs_affine_calls": "integrate.box_abs_affine",
    **{f"cellformulas.{v}.calls": f"cellformulas.{v}" for v in VARIANTS.values()},
    **{f"cellformulas.built.{f}": f"cellformulas.build.{f}" for f in FAMILIES},
    "cellformulas.evaluated": "cellformulas.competitor_energy",
    "densities.calls": "densities.eval",
    "densities.recession_calls": "densities.recession",
}

LAYER_METRICS = [
    ("cli.import_s", "s"), ("cli.run_s", "s"), ("cli.report_bytes", "bytes"),
    ("fields.jump_set_s", "s"), ("fields.jump_set_calls", "count"), ("fields.facets", "count"),
    ("fields.l1_s", "s"), ("fields.refine_s", "s"), ("fields.trace_boundary_s", "s"),
    ("fields.trace_boundary_records", "count"), ("fields.gauss_green_residual_max", "1"),
    ("integrate.box_abs_affine_calls", "count"), ("integrate.box_abs_affine_s", "s"),
    ("constructions.approximating_sequence_s", "s"), ("constructions.fine_cells", "count"),
    ("energy.total_energy_s", "s"), ("energy.inexact_facets", "count"),
    *[(f"cellformulas.{v}.{k}", u) for v in VARIANTS.values()
      for k, u in (("calls", "count"), ("s", "s"))],
    *[(f"cellformulas.build.{f}.s", "s") for f in FAMILIES],
    *[(f"cellformulas.check.{f}.s", "s") for f in FAMILIES],
    *[(f"cellformulas.energy.{f}.s", "s") for f in FAMILIES],
    *[(f"cellformulas.built.{f}", "count") for f in FAMILIES],
    *[(f"cellformulas.rejected.{f}", "count") for f in FAMILIES],
    ("cellformulas.check_admissibility_s", "s"), ("cellformulas.competitor_energy_s", "s"),
    ("cellformulas.evaluated", "count"), ("cellformulas.admissible_ratio", "1"),
    ("cellformulas.admissibility_residual_max", "1"),
    ("densities.calls", "count"), ("densities.points", "count"), ("densities.eval_s", "s"),
    ("densities.recession_calls", "count"), ("densities.recession_s", "s"),
    ("assembly.assemble_s", "s"), ("assembly.self_s", "s"), ("assembly.cache_hits", "count"),
    ("assembly.cache_misses", "count"), ("assembly.cache_hit_ratio", "1"),
    ("assembly.bracket_gap", "energy"),
    ("hypotheses.check_s", "s"), ("hypotheses.samples", "count"),
    ("trace_formula.verify_example_s", "s"), ("trace_formula.evaluations", "count"),
    ("expressions.eval_s", "s"),
    ("trace.wall_s", "s"), ("trace.untraced_wall_s", "s"), ("trace.overhead_s", "s"),
]
MAXIMA = ("fields.gauss_green_residual_max", "cellformulas.admissibility_residual_max")


class Tracer:
    """In-memory spans and counters around wrapped module attributes."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.spans: list[list] = []          # [name id, start, end, parent index or -1]
        self.counts: dict[str, float] = defaultdict(float)
        self.enabled = True
        self.built_by: dict[int, str] = {}   # id(competitor field) -> family name
        self.pending_pair = None             # the last approximating-sequence pair
        self.check_s = 0.0                   # time of the benchmark's own checks
        self._stack: list[int] = []
        self._patches: list = []

    def count(self, key: str, value: float = 1.0) -> None:
        self.counts[key] += value

    def maximum(self, key: str, value: float) -> None:
        self.counts[key] = max(self.counts[key], value)

    def wrap(self, name: str, fn, after=None):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        nid = self._ids[name]
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            rec = [nid, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = time.perf_counter()
                stack.pop()
            if after is not None:
                after(rec, result, *args, **kwargs)
            return result

        return wrapper

    def patch(self, owner, attr: str, name: str, after=None) -> None:
        original = vars(owner)[attr]
        setattr(owner, attr, self.wrap(name, original, after))
        self._patches.append((owner, attr, original))

    def restore(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- summaries -------------------------------------------------------------

    def summarize(self) -> tuple[dict, dict, dict]:
        """(outermost seconds, calls, self seconds) per span name."""
        spans = self.spans
        children: dict[int, list] = defaultdict(list)
        for i, rec in enumerate(spans):
            if rec[3] >= 0:
                children[rec[3]].append(i)
        total = defaultdict(float)
        calls = defaultdict(int)
        self_s = defaultdict(float)
        for i, (nid, start, end, parent) in enumerate(spans):
            name = self.names[nid]
            calls[name] += 1
            p = parent
            while p >= 0 and spans[p][0] != nid:
                p = spans[p][3]
            if p < 0:
                total[name] += end - start
            self_s[name] += end - start - _covered(start, end, [spans[c] for c in children[i]])
        return total, calls, self_s


def _covered(start: float, end: float, kids: list) -> float:
    """Length of [start, end] covered by the union of the child spans."""
    covered, reach = 0.0, start
    for _, s, e, _ in sorted(kids, key=lambda r: r[1]):
        s, e = max(s, reach), min(e, end)
        if e > s:
            covered += e - s
            reach = e
    return covered


def _points(x) -> int:
    return int(np.shape(x)[0]) if np.ndim(x) == 2 else 1


def install(t: Tracer) -> None:
    """Wrap every layer boundary the CLI tasks cross."""
    from sdrelax import assembly, cellformulas, cli, densities, expressions, fields, trace_formula

    def on_sequence(span, result, *args, **kwargs):
        t.pending_pair = result[0]
        t.count("constructions.fine_cells", result[0].u.domain.num_cells)

    def on_energy(span, result, u, *args, **kwargs):
        t.count("energy.inexact_facets", result.quadrature["inexact_facets"])
        if u is t.pending_pair:
            t.pending_pair = None
            t.enabled = False
            t0 = time.perf_counter()
            residual = float(np.max(np.abs(fields.gauss_green_residual(u.u))))
            t.check_s += time.perf_counter() - t0
            t.enabled = True
            t.maximum("fields.gauss_green_residual_max", residual)

    def on_assemble(span, report, *args, **kwargs):
        t.count("assembly.cache_hits", report.cache_hits)
        t.count("assembly.cache_misses", report.cache_misses)
        t.count("assembly.bracket_gap", report.total.upper - report.total.lower)

    def on_admissibility(span, result, problem, field):
        ok, residual = result
        if ok:  # its energy is evaluated next, which releases the family
            family = t.built_by.get(id(field), "unknown")
            t.maximum("cellformulas.admissibility_residual_max", residual)
        else:
            family = t.built_by.pop(id(field), "unknown")
            t.count(f"cellformulas.rejected.{family}")
        t.count(f"cellformulas.check.{family}.s", span[2] - span[1])

    def on_competitor_energy(span, result, problem, field, *args, **kwargs):
        family = t.built_by.pop(id(field), "unknown")
        t.count(f"cellformulas.energy.{family}.s", span[2] - span[1])

    def on_build(family):
        def after(span, result, *args, **kwargs):
            t.built_by[id(result[0])] = family
        return after

    def on_density(span, result, density, *args, **kwargs):
        t.count("densities.points", _points(args[0] if args else kwargs["x"]))

    t.patch(cli, "approximating_sequence", "constructions.approximating_sequence", on_sequence)
    t.patch(cli, "total_energy", "energy.total_energy", on_energy)
    t.patch(cli, "assemble_relaxed_energy", "assembly.assemble", on_assemble)
    t.patch(cli, "check_hypotheses", "hypotheses.check",
            lambda span, r, triple, cfg: t.count("hypotheses.samples", cfg.samples))
    t.patch(cli, "verify_example", "trace_formula.verify_example",
            lambda span, r, *a, **k: t.count("trace_formula.evaluations",
                                             r["family_stats"]["evaluations"]))
    for attr, variant in VARIANTS.items():
        t.patch(cli, attr, f"cellformulas.{variant}")
        t.patch(assembly, attr, f"cellformulas.{variant}")
    t.patch(cellformulas, "check_admissibility", "cellformulas.check_admissibility",
            on_admissibility)
    t.patch(cellformulas, "competitor_energy", "cellformulas.competitor_energy",
            on_competitor_energy)
    t.patch(cellformulas, "recession", "densities.recession")
    for cls in vars(cellformulas).values():
        if isinstance(cls, type) and "build" in vars(cls) and getattr(cls, "name", None) in FAMILIES:
            t.patch(cls, "build", f"cellformulas.build.{cls.name}", on_build(cls.name))
    records = lambda span, r, *a, **k: t.count("fields.trace_boundary_records", len(r))
    t.patch(cellformulas, "trace_boundary", "fields.trace_boundary", records)
    t.patch(fields, "trace_boundary", "fields.trace_boundary", records)
    facets = lambda span, r, *a, **k: t.count("fields.facets", len(r))
    t.patch(fields.PiecewiseAffineField, "jump_set", "fields.jump_set")
    for attr in ("_build_interior_facets", "_build_boundary_facets"):
        t.patch(fields.PiecewiseAffineField, attr, "fields.jump_set.build", facets)
    t.patch(fields.PiecewiseAffineField, "refine", "fields.refine")
    t.patch(fields, "_l1_of_cell_data", "fields.l1")
    for module in (fields, densities, trace_formula):
        t.patch(module, "box_abs_affine", "integrate.box_abs_affine")
    t.patch(densities.BulkDensity, "__call__", "densities.eval", on_density)
    t.patch(densities.InterfacialDensity, "__call__", "densities.eval", on_density)
    t.patch(expressions.CompiledExpression, "__call__", "expressions.eval")


def layer_metrics(t: Tracer) -> tuple[dict, dict]:
    """Raw per-layer sums of one traced child, and self seconds per span name."""
    total, calls, self_s = t.summarize()
    metrics = {name: 0.0 for name, _ in LAYER_METRICS}
    metrics.update({k: v for k, v in t.counts.items() if k in metrics})
    for metric, span in SPAN_SECONDS.items():
        metrics[metric] = total.get(span, 0.0)
    for metric, span in SPAN_CALLS.items():
        metrics[metric] = float(calls.get(span, 0))
    metrics["assembly.self_s"] = self_s.get("assembly.assemble", 0.0)
    return metrics, dict(self_s)


def combine(results: list) -> dict:
    """Per-layer metrics of a workload from the results of its traced children."""
    metrics = {name: 0.0 for name, _ in LAYER_METRICS}
    for res in results:
        for name, value in res["metrics"].items():
            if name in MAXIMA:
                metrics[name] = max(metrics[name], value)
            else:
                metrics[name] += value
        metrics["trace.wall_s"] += res["wall_s"]
    built = sum(metrics[f"cellformulas.built.{f}"] for f in FAMILIES)
    metrics["cellformulas.admissible_ratio"] = metrics["cellformulas.evaluated"] / built if built else 0.0
    lookups = metrics["assembly.cache_hits"] + metrics["assembly.cache_misses"]
    metrics["assembly.cache_hit_ratio"] = metrics["assembly.cache_hits"] / lookups if lookups else 0.0
    return metrics


def combine_self(results: list) -> dict:
    """Self seconds per span name, summed over the traced children."""
    out = defaultdict(float)
    for res in results:
        for name, value in res["self_s"].items():
            out[name] += value
    return dict(out)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="traced run of one sdrelax CLI config")
    parser.add_argument("config")
    parser.add_argument("--out", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--report", required=True)
    parser.add_argument("--spans", required=True)
    parser.add_argument("--result", required=True)
    args = parser.parse_args(argv)

    t0 = time.perf_counter()
    import sdrelax.cli as cli
    import_s = time.perf_counter() - t0

    tracer = Tracer()
    install(tracer)
    run = tracer.wrap("cli.run", cli.run)
    try:
        code = run(args.config, out_dir=args.out, seed=args.seed, strict=False, jobs=1)
    finally:
        tracer.restore()
    t_done = time.perf_counter()

    metrics, self_s = layer_metrics(tracer)
    metrics["cli.import_s"] = import_s
    report = os.path.join(args.out, args.report)
    metrics["cli.report_bytes"] = float(os.path.getsize(report)) if os.path.exists(report) else 0.0
    with open(args.spans, "w") as fh:
        json.dump({"names": tracer.names, "spans": tracer.spans}, fh)
    post_s = tracer.check_s + time.perf_counter() - t_done
    with open(args.result, "w") as fh:
        json.dump({"metrics": metrics, "self_s": self_s, "post_s": post_s}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
