"""Output checks on CLI reports, and the report digest.

A report passes when it parses as strict JSON (no NaN or Infinity), names the
expected task and seed, and satisfies the identities its task promises:

- relax-assemble: ``total = I1 + I2``, ``I1 = bulk1 + surf1`` and
  ``I2 = bulk2 + surf2`` hold exactly for upper and lower, and
  ``lower <= upper`` holds for every term;
- approx-sequence: ``second_gradient_exact`` is true and
  ``energy.total = bulk + jump1 + jump2`` exactly, for every ``n``;
- example-verify: every competitor respects the closed-form lower bound and
  the best competitor does not undercut the closed form;
- cell-sweep: the bracket is ordered;
- check-hypotheses: every hypothesis carries a verdict.

The digest is a SHA-256 of the report body without its timestamp, so two
commits that report the same digits give the same digest.
"""

from __future__ import annotations

import hashlib
import json
import math

TERMS = ("bulk1", "bulk2", "surf1", "surf2", "I1", "I2", "total")


def _reject_constant(name: str):
    raise ValueError(f"non-finite number {name} in report")


def load_strict(path: str) -> dict:
    with open(path) as fh:
        return json.load(fh, parse_constant=_reject_constant)


def digest(report: dict) -> str:
    body = {k: v for k, v in report.items() if k != "timestamp"}
    text = json.dumps(body, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def check_relaxed(r: dict) -> list[str]:
    problems = []
    for side in ("upper", "lower"):
        if r["total"][side] != r["I1"][side] + r["I2"][side]:
            problems.append(f"total.{side} != I1 + I2")
        if r["I1"][side] != r["bulk1"][side] + r["surf1"][side]:
            problems.append(f"I1.{side} != bulk1 + surf1")
        if r["I2"][side] != r["bulk2"][side] + r["surf2"][side]:
            problems.append(f"I2.{side} != bulk2 + surf2")
    for term in TERMS:
        if not r[term]["lower"] <= r[term]["upper"]:
            problems.append(f"{term}.lower > {term}.upper")
    return problems


def check_sequence(entries: list) -> list[str]:
    problems = []
    if not entries:
        problems.append("empty sequence")
    for e in entries:
        n = e["n"]
        if e["second_gradient_exact"] is not True:
            problems.append(f"n={n}: second gradient not exact")
        en = e["energy"]
        if en["total"] != en["bulk"] + en["jump1"] + en["jump2"]:
            problems.append(f"n={n}: energy.total != bulk + jump1 + jump2")
    return problems


def check_example(ex: dict, tolerance: float) -> list[str]:
    problems = []
    if ex["lower_bound_ok"] is not True:
        problems.append("a competitor undercuts the closed-form lower bound")
    if not ex["gap"] >= -tolerance:
        problems.append("best competitor below the closed form")
    return problems


def check_estimate(est: dict) -> list[str]:
    if not math.isfinite(est["upper"]):
        return ["upper bound not finite"]
    if est["lower"] is not None and not est["lower"] <= est["upper"]:
        return ["lower > upper"]
    return []


def check_hypotheses(rep: dict) -> list[str]:
    results = rep["results"]
    if not results:
        return ["no hypothesis results"]
    return [f"{name}: no verdict" for name, res in results.items() if not res.get("verdict")]


def check_report(path: str, kind: str, seed: int) -> tuple[list[str], dict | None]:
    """Return (problems, report); an empty problem list means the report passes."""
    try:
        report = load_strict(path)
    except (OSError, ValueError) as err:
        return [f"unreadable report: {err}"], None
    problems = []
    if report.get("task") != kind:
        problems.append(f"task {report.get('task')!r} != {kind!r}")
    if report.get("seed") != seed:
        problems.append(f"seed {report.get('seed')!r} != {seed}")
    try:
        if kind == "relax-assemble":
            problems += check_relaxed(report["relaxed"])
        elif kind == "approx-sequence":
            problems += check_sequence(report["sequence"])
        elif kind == "example-verify":
            tol = float(report["config"]["example"].get("tolerance", 1e-9))
            problems += check_example(report["example"], tol)
        elif kind == "cell-sweep":
            problems += check_estimate(report["estimate"])
        elif kind == "check-hypotheses":
            problems += check_hypotheses(report["report"])
        else:
            problems.append(f"no check for task {kind!r}")
    except (KeyError, TypeError) as err:
        problems.append(f"malformed report: missing {err}")
    return problems, report
