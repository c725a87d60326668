"""Command-line interface: config ingestion, task dispatch, report emission.

One task per invocation.  Anything nontrivial lives in a single JSON config
file; flags cover only paths, seed, strictness, and a ``jobs`` value that is
recorded in the report (nothing runs in parallel).
Every report embeds the fully resolved config for reproducibility, and
repeated runs with the same config and seed are byte-identical up to the
timestamp field.

Exit codes: 0 success, 2 config validation error (non-finite input and any
value the library rejects with ``ValueError`` included), 3 estimator failure
or a non-finite result, 4 hypothesis-check hard failures under --strict.
"""

from __future__ import annotations

import argparse
import csv
import datetime
import json
import math
import os
import sys

import numpy as np

from . import __version__
from .assembly import AssembleConfig, assemble_relaxed_energy
from .cellformulas import (
    EstimationError,
    estimate_W1,
    estimate_W2,
    estimate_gamma1,
    estimate_gamma2,
)
from .constructions import SD2Triple, approximating_sequence
from .densities import DensityTriple, catalog, triple_from_expressions
from .energy import total_energy
from .expressions import CompiledExpression, ExpressionError
from .fields import AffineBoundary, BoxDomain, PiecewiseAffineField, SecondOrderField, StepBoundary
from .hypotheses import CheckConfig, check_hypotheses
from .trace_formula import verify_example

TASKS = ("check-hypotheses", "energy", "approx-sequence", "cell-sweep",
         "example-verify", "relax-assemble")


class ConfigError(ValueError):
    pass


def _reject_constant(name: str):
    raise ValueError(f"non-finite number {name} is not allowed")


def _parse_float(text: str) -> float:
    value = float(text)
    if math.isinf(value):
        raise ValueError(f"non-finite number {text} is not allowed (it overflows)")
    return value


def _parse_int(text: str) -> int:
    _parse_float(text)  # an integer beyond the float range overflows just the same
    return int(text)


def _load_json(fh):
    """``json.load`` that refuses NaN, Infinity and literals that overflow to infinity."""
    return json.load(fh, parse_constant=_reject_constant, parse_float=_parse_float,
                     parse_int=_parse_int)


def _require_finite(name: str, *arrays):
    for arr in arrays:
        if not np.all(np.isfinite(arr)):
            raise ConfigError(f"{name} has non-finite values")


def _finite_array(value, name: str) -> np.ndarray:
    """``value`` as a float array with finite entries only."""
    arr = np.asarray(value, dtype=float)
    _require_finite(name, arr)
    return arr


def _require_finite_field(name: str, field: PiecewiseAffineField):
    """Cell data, jump tolerance, domain bounds and boundary data of a field."""
    arrays = [field.const, field.lin, field.jump_tol, field.domain.lower, field.domain.upper]
    bd = field.boundary_data
    if isinstance(bd, AffineBoundary):
        arrays += [bd.const, bd.lin]
    elif isinstance(bd, StepBoundary):
        arrays += [bd.payload, bd.threshold]
    _require_finite(f"field {name!r}", *arrays)


def _check_keys(section: dict, allowed: set, path: str):
    for key in section:
        if key not in allowed:
            raise ConfigError(f"unknown key {path}{key!r}")


# ---------------------------------------------------------------------------
# config -> objects
# ---------------------------------------------------------------------------


def _build_domain(cfg: dict) -> BoxDomain:
    _check_keys(cfg, {"lower", "upper", "resolution"}, "domain.")
    try:
        domain = BoxDomain(cfg["lower"], cfg["upper"], cfg["resolution"])
    except KeyError as err:
        raise ConfigError(f"domain section missing {err}") from err
    _require_finite("domain", domain.lower, domain.upper)
    return domain


def _build_density_component(which: str, cfg: dict, d: int, N: int):
    _check_keys(cfg, {"catalog", "params", "expression"}, f"densities.{which}.")
    if "catalog" in cfg:
        params = dict(cfg.get("params", {}))
        d = int(params.pop("d", d))
        N = int(params.pop("N", N))
        try:
            return catalog(cfg["catalog"], d=d, N=N, **params)
        except ValueError as err:
            raise ConfigError(f"bad density densities.{which}: {err}") from err
    if "expression" in cfg:
        raise ConfigError("per-component expressions are given together; "
                          "use densities.expressions")
    raise ConfigError(f"densities.{which} needs a catalog name")


def _build_densities(cfg: dict) -> DensityTriple:
    _check_keys(cfg, {"W", "psi1", "psi2", "expressions", "d", "N"}, "densities.")
    d = int(cfg.get("d", 2))
    N = int(cfg.get("N", 2))
    if "expressions" in cfg:
        ex = cfg["expressions"]
        _check_keys(ex, {"W", "psi1", "psi2", "coercive_bulk", "coercive_interfacial"},
                    "densities.expressions.")
        try:
            return triple_from_expressions(
                ex["W"], ex["psi1"], ex["psi2"],
                coercive_bulk=bool(ex.get("coercive_bulk", True)),
                coercive_interfacial=bool(ex.get("coercive_interfacial", True)),
            )
        except ExpressionError as err:
            raise ConfigError(f"bad density expression: {err}") from err
    try:
        W = _build_density_component("W", cfg["W"], d, N)
        psi1 = _build_density_component("psi1", cfg["psi1"], d, N)
        psi2 = _build_density_component("psi2", cfg["psi2"], d, N)
    except KeyError as err:
        raise ConfigError(f"densities section missing {err}") from err
    return DensityTriple(W, psi1, psi2)


def _sample_expression_field(domain: BoxDomain, exprs, grad_exprs=None) -> PiecewiseAffineField:
    """Sample nested component expressions (variables: x) onto the grid.

    Gradients come from ``grad_exprs`` when given (exact for closed forms),
    otherwise from central differences at the cell centers.
    """

    def compile_nested(node):
        if isinstance(node, str):
            return CompiledExpression(node, {"x": 1})
        return [compile_nested(child) for child in node]

    def eval_tree(node, pts):
        if isinstance(node, CompiledExpression):
            out = np.asarray(node(x=pts), dtype=float)
            return np.broadcast_to(out, (pts.shape[0],)).astype(float)
        # children fill the axis right after the points axis, in order
        return np.stack([eval_tree(child, pts) for child in node], axis=1)

    compiled = compile_nested(exprs)
    pts = domain.cell_centers().reshape(-1, domain.ndim)
    vals = eval_tree(compiled, pts)
    value_shape = vals.shape[1:]
    const = vals.reshape(domain.cells_shape + value_shape)
    if grad_exprs is not None:
        lin = eval_tree(compile_nested(grad_exprs), pts).reshape(
            domain.cells_shape + value_shape + (domain.ndim,))
    else:
        h = 1e-5 * domain.widths
        cols = []
        for k in range(domain.ndim):
            up = pts.copy()
            up[:, k] += h[k]
            dn = pts.copy()
            dn[:, k] -= h[k]
            cols.append((eval_tree(compiled, up) - eval_tree(compiled, dn)) / (2 * h[k]))
        lin = np.stack(cols, axis=-1).reshape(domain.cells_shape + value_shape + (domain.ndim,))
    return PiecewiseAffineField(domain, const, lin)


def _build_field(domain: BoxDomain, cfg: dict, name: str) -> PiecewiseAffineField:
    _check_keys(cfg, {"file", "expression", "grad_expression", "constant", "linear"},
                f"fields.{name}.")
    if "file" in cfg:
        try:
            with open(cfg["file"]) as fh:
                field = PiecewiseAffineField.from_dict(_load_json(fh))
        except (OSError, ValueError) as err:
            raise ConfigError(f"cannot read field file for {name!r}: {err}") from err
    elif "expression" in cfg:
        try:
            field = _sample_expression_field(domain, cfg["expression"], cfg.get("grad_expression"))
        except ExpressionError as err:
            raise ConfigError(f"bad field expression for {name!r}: {err}") from err
    elif "linear" in cfg:
        lin = np.asarray(cfg["linear"], dtype=float)
        centers = domain.cell_centers()
        const = np.einsum("...k,ck->c...", lin, centers.reshape(-1, domain.ndim))
        const = const.reshape(domain.cells_shape + lin.shape[:-1])
        linb = np.broadcast_to(lin, domain.cells_shape + lin.shape).copy()
        field = PiecewiseAffineField(domain, const, linb)
    elif "constant" in cfg:
        value = np.asarray(cfg["constant"], dtype=float)
        const = np.broadcast_to(value, domain.cells_shape + value.shape).copy()
        field = PiecewiseAffineField(domain, const)
    else:
        raise ConfigError(f"fields.{name} needs one of: file, expression, constant, linear")
    _require_finite_field(name, field)
    return field


def _build_sd2(config: dict) -> SD2Triple:
    if "domain" not in config:
        raise ConfigError("missing domain section")
    domain = _build_domain(config["domain"])
    fields_cfg = config.get("fields")
    if fields_cfg is None:
        raise ConfigError("missing fields section")
    _check_keys(fields_cfg, {"g", "G", "Gamma"}, "fields.")
    g = _build_field(domain, fields_cfg["g"], "g")
    G = _build_field(domain, fields_cfg["G"], "G")
    gamma_cfg = fields_cfg.get("Gamma")
    d = g.value_shape[0] if g.value_shape else 1
    N = domain.ndim
    if gamma_cfg is None:
        gamma = np.zeros(domain.cells_shape + (d, N, N))
    elif isinstance(gamma_cfg, dict) and "table" in gamma_cfg:
        gamma = np.asarray(gamma_cfg["table"], dtype=float)
    elif isinstance(gamma_cfg, dict) and "constant" in gamma_cfg:
        value = np.asarray(gamma_cfg["constant"], dtype=float)
        gamma = np.broadcast_to(value, domain.cells_shape + value.shape).copy()
    elif isinstance(gamma_cfg, dict) and "expression" in gamma_cfg:
        try:
            sampled = _sample_expression_field(domain, gamma_cfg["expression"])
        except ExpressionError as err:
            raise ConfigError(f"bad field expression for 'Gamma': {err}") from err
        gamma = sampled.const
    else:
        raise ConfigError("fields.Gamma needs 'constant', 'table', or 'expression'")
    _require_finite("field 'Gamma'", gamma)
    try:
        return SD2Triple(g, G, gamma)
    except ValueError as err:
        raise ConfigError(f"bad structured deformation: {err}") from err


# ---------------------------------------------------------------------------
# task runners
# ---------------------------------------------------------------------------


def _task_check(config: dict, seed: int, jobs: int) -> tuple[dict, int]:
    densities = _build_densities(config.get("densities", {}))
    section = config.get("check", {})
    _check_keys(section, {"samples", "input_range", "d", "N", "schedule", "pair_scales"},
                "check.")
    try:
        cfg = CheckConfig(
            d=int(section.get("d", config.get("densities", {}).get("d", 2))),
            N=int(section.get("N", config.get("densities", {}).get("N", 2))),
            samples=int(section.get("samples", 10_000)),
            input_range=float(section.get("input_range", 10.0)),
            seed=seed,
            schedule=tuple(section.get("schedule", [float(2**k) for k in range(7, 18)])),
        )
    except ValueError as err:
        raise ConfigError(f"bad check section: {err}") from err
    report = check_hypotheses(densities, cfg)
    return {"report": report.to_dict()}, (0 if report.all_pass else 4)


def _task_energy(config: dict, seed: int, jobs: int) -> tuple[dict, int]:
    sd2_like = config.get("fields", {})
    domain = _build_domain(config.get("domain", {}))
    _check_keys(sd2_like, {"u", "grad", "g", "G", "Gamma"}, "fields.")
    densities = _build_densities(config.get("densities", {}))
    u_cfg = sd2_like.get("u", sd2_like.get("g"))
    if u_cfg is None:
        raise ConfigError("energy task needs fields.u (or fields.g)")
    u = _build_field(domain, u_cfg, "u")
    if "grad" in sd2_like:
        grad = _build_field(domain, sd2_like["grad"], "grad")
        field = SecondOrderField(u, grad)
    else:
        field = u
    breakdown = total_energy(field, densities)
    return {"energy": breakdown.to_dict()}, 0


def _task_sequence(config: dict, seed: int, jobs: int) -> tuple[dict, int]:
    sd2 = _build_sd2(config)
    densities = _build_densities(config.get("densities", {}))
    section = config.get("sequence", {})
    _check_keys(section, {"n"}, "sequence.")
    ns = [int(n) for n in section.get("n", [4, 8, 16, 32])]
    out = []
    for n in ns:
        pair, diag = approximating_sequence(sd2, n)
        breakdown = total_energy(pair, densities)
        diag["energy"] = breakdown.to_dict()
        out.append(diag)
    return {"sequence": out}, 0


def _task_cell_sweep(config: dict, seed: int, jobs: int) -> tuple[dict, int]:
    densities = _build_densities(config.get("densities", {}))
    section = config.get("cell")
    if section is None:
        raise ConfigError("missing cell section")
    _check_keys(section, {"variant", "x", "A", "lam", "Lam", "nu", "L", "M",
                          "budget", "resolution"}, "cell.")
    variant = section.get("variant")
    x = _finite_array(section.get("x", [0.0, 0.0]), "cell.x")
    budget = int(section.get("budget", 1))
    kwargs = {"budget": budget}
    if "resolution" in section:
        kwargs["resolution"] = int(section["resolution"])
    try:
        if variant == "W1":
            result = estimate_W1(x, _finite_array(section["A"], "cell.A"), densities, **kwargs)
        elif variant == "Gamma1":
            result = estimate_gamma1(x, _finite_array(section["lam"], "cell.lam"),
                                     _finite_array(section["nu"], "cell.nu"), densities, **kwargs)
        elif variant == "W2":
            result = estimate_W2(x, _finite_array(section["A"], "cell.A"),
                                 _finite_array(section["L"], "cell.L"),
                                 _finite_array(section["M"], "cell.M"), densities, **kwargs)
        elif variant == "Gamma2":
            result = estimate_gamma2(x, _finite_array(section["A"], "cell.A"),
                                     _finite_array(section["Lam"], "cell.Lam"),
                                     _finite_array(section["nu"], "cell.nu"), densities, **kwargs)
        else:
            raise ConfigError(f"unknown cell variant {variant!r}")
    except KeyError as err:
        raise ConfigError(f"cell section missing {err}") from err
    payload = result.to_dict()
    rows = result.rows
    return {"estimate": payload, "_csv_rows": rows}, 0


def _task_example(config: dict, seed: int, jobs: int) -> tuple[dict, int]:
    section = config.get("example")
    if section is None:
        raise ConfigError("missing example section")
    _check_keys(section, {"a", "L", "M", "tolerance", "random_count"}, "example.")
    a = _finite_array(section.get("a", [1.0, 0.0]), "example.a")
    N = len(a)
    L = _finite_array(section.get("L", np.zeros((N, N, N))), "example.L")
    M = _finite_array(section.get("M", np.zeros((N, N, N))), "example.M")
    report = verify_example(L, M, a,
                            tolerance=float(section.get("tolerance", 1e-9)),
                            random_count=int(section.get("random_count", 0)),
                            seed=seed)
    return {"example": report}, 0


def _task_assemble(config: dict, seed: int, jobs: int) -> tuple[dict, int]:
    sd2 = _build_sd2(config)
    densities = _build_densities(config.get("densities", {}))
    section = config.get("assemble", {})
    _check_keys(section, {"budget", "resolution", "w2_resolution", "quantize", "cache",
                          "w2_estimator", "gamma2_representative", "collect_cells"},
                "assemble.")
    cfg = AssembleConfig(
        budget=int(section.get("budget", 1)),
        resolution=int(section.get("resolution", 4)),
        w2_resolution=int(section.get("w2_resolution", 8)),
        quantize=float(section.get("quantize", 1e-6)),
        cache=bool(section.get("cache", True)),
        w2_estimator=section.get("w2_estimator", "families"),
        gamma2_representative=section.get("gamma2_representative", "average"),
        jobs=jobs,
        collect_cells=bool(section.get("collect_cells", False)),
    )
    report = assemble_relaxed_energy(sd2, densities, cfg)
    payload = report.to_dict()
    payload.pop("cell_rows", None)
    return {"relaxed": payload, "_csv_rows": report.cell_rows}, 0


_RUNNERS = {
    "check-hypotheses": _task_check,
    "energy": _task_energy,
    "approx-sequence": _task_sequence,
    "cell-sweep": _task_cell_sweep,
    "example-verify": _task_example,
    "relax-assemble": _task_assemble,
}

_TOP_KEYS = {"task", "seed", "output", "densities", "domain", "fields", "check",
             "sequence", "cell", "example", "assemble"}


def _write_csv(path: str, rows: list):
    if not rows:
        return
    if isinstance(rows[0], dict) and "family" in rows[0]:
        max_params = max(len(r.get("params", ())) for r in rows)
        header = ["family"] + [f"param{i+1}" for i in range(max_params)] + ["admissible", "energy"]
        meta = ["name"] + ["dimensionless"] * max_params + ["bool", "energy"]
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(header)
            w.writerow(meta)
            for r in rows:
                params = list(r.get("params", ()))
                params += [""] * (max_params - len(params))
                w.writerow([r["family"], *params, r["admissible"], r["energy"]])
    else:
        header = list(rows[0].keys())
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(header)
            w.writerow(["index" if h == "cell" else "value" for h in header])
            for r in rows:
                w.writerow([r[h] for h in header])


def run(config_path: str, out_dir: str | None = None, seed: int | None = None,
        strict: bool = False, jobs: int = 1) -> int:
    """Execute the task named in the config file; returns the exit code."""
    try:
        with open(config_path) as fh:
            config = _load_json(fh)
    except (OSError, ValueError) as err:
        print(f"error: cannot read config: {err}", file=sys.stderr)
        return 2
    try:
        _check_keys(config, _TOP_KEYS, "")
        task = config.get("task")
        if task not in TASKS:
            raise ConfigError(f"task must be one of {TASKS}, got {task!r}")
        resolved_seed = int(config.get("seed", 0)) if seed is None else int(seed)
        output_cfg = config.get("output", {})
        _check_keys(output_cfg, {"json", "csv"}, "output.")
        runner = _RUNNERS[task]
        payload, code = runner(config, resolved_seed, jobs)
    except ValueError as err:  # ConfigError, and bad values the library rejects
        print(f"error: {err}", file=sys.stderr)
        return 2
    except EstimationError as err:
        print(f"estimator failure: {err}", file=sys.stderr)
        return 3

    csv_rows = payload.pop("_csv_rows", None)
    report = {
        "task": task,
        "version": __version__,
        "seed": resolved_seed,
        "jobs": jobs,
        "timestamp": datetime.datetime.now(datetime.timezone.utc).isoformat(),
        "config": config,
        **payload,
    }
    try:
        text = json.dumps(report, sort_keys=True, indent=2, allow_nan=False)
    except ValueError as err:
        print(f"error: non-finite result, no report written: {err}", file=sys.stderr)
        return 3
    out_dir = out_dir or os.environ.get("SDRELAX_OUT", ".")
    os.makedirs(out_dir, exist_ok=True)
    json_path = os.path.join(out_dir, output_cfg.get("json", "report.json"))
    with open(json_path, "w") as fh:
        fh.write(text + "\n")
    if csv_rows and "csv" in output_cfg:
        _write_csv(os.path.join(out_dir, output_cfg["csv"]), csv_rows)
    print(json_path)
    if code == 4:
        return 4 if strict else 0
    return code


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="sdrelax",
                                     description="structured-deformation energetics toolkit")
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("config", help="path to the JSON run config")
        p.add_argument("--out", default=None, help="output directory (default: $SDRELAX_OUT or .)")
        p.add_argument("--seed", type=int, default=None, help="override the config seed")
        p.add_argument("--strict", action="store_true",
                       help="exit 4 on hypothesis-check hard failures")
        p.add_argument("--jobs", type=int, default=1,
                       help="recorded in the report; does not run anything in parallel")

    add_common(sub.add_parser("run", help="run the task named in the config"))
    for task in TASKS:
        p = sub.add_parser(task, help=f"run the {task} task")
        add_common(p)

    args = parser.parse_args(argv)
    if args.command != "run":
        try:
            with open(args.config) as fh:
                declared = _load_json(fh).get("task")
        except (OSError, ValueError) as err:
            print(f"error: cannot read config: {err}", file=sys.stderr)
            return 2
        if declared != args.command:
            print(f"error: config task {declared!r} does not match subcommand {args.command!r}",
                  file=sys.stderr)
            return 2
    return run(args.config, out_dir=args.out, seed=args.seed, strict=args.strict, jobs=args.jobs)


if __name__ == "__main__":
    sys.exit(main())
