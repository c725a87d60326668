"""Command-line interface: config ingestion, task dispatch, report emission.

One task per invocation.  Anything nontrivial lives in a single JSON config
file; flags cover only paths, seed, strictness, and a ``jobs`` value that is
recorded at the top of the report.  Nothing runs in parallel, numpy's BLAS
included: the CLI runs one OpenBLAS thread unless the caller's environment
sets ``OPENBLAS_NUM_THREADS``.
Every report embeds the fully resolved config for reproducibility, and
repeated runs with the same config and seed are byte-identical up to the
timestamp field.

Start-up: this module imports only the standard library, numpy and
``__version__``; each task imports the modules it runs.  check-hypotheses
loads densities, expressions, integrate and hypotheses; example-verify loads
trace_formula and integrate; energy loads fields, densities, expressions,
integrate and energy, approx-sequence adds constructions, cell-sweep adds
cellformulas and relax-assemble adds constructions, cellformulas and
assembly.

Exit codes: 0 success, 2 config validation error (unknown keys, a section
that is not an object, a value of the wrong type, non-finite input and any
value the library rejects with ``ValueError`` included), 3 estimator failure
or a non-finite result (finite data whose energy overflows included), 4
hypothesis-check hard failures under --strict.
"""

from __future__ import annotations

import argparse
import csv
import datetime
import json
import math
import os
import sys
from typing import TYPE_CHECKING

# The cell data are 2x2 to 3x3 matrices, so an OpenBLAS worker thread never
# helps and its start-up is the largest cost of a short run.  OpenBLAS reads
# this once, when numpy first loads, so it is set before any numpy import; a
# value the caller's environment sets wins.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import numpy as np

from . import EstimationError, __version__

if TYPE_CHECKING:  # names for annotations only; each task imports the modules it runs
    from .constructions import SD2Triple
    from .densities import DensityTriple
    from .fields import BoxDomain, PiecewiseAffineField


def _on_first_call(module: str, name: str):
    """``name`` of ``sdrelax.<module>``, whose module is imported on the first call.

    The task code calls these names through this module's globals, where
    ``perfbench/traced.py`` and the tests patch them.  They can go once
    ``traced.py`` reads counters instead of wrapping names (ROADMAP item 1);
    the tasks then import the functions where they call them.
    """

    def call(*args, **kwargs):
        # __import__, unlike importlib.import_module, shows in -X importtime
        return getattr(__import__(f"{__package__}.{module}", fromlist=[name]), name)(*args, **kwargs)

    call.__name__ = call.__qualname__ = name
    return call


approximating_sequence = _on_first_call("constructions", "approximating_sequence")
total_energy = _on_first_call("energy", "total_energy")
assemble_relaxed_energy = _on_first_call("assembly", "assemble_relaxed_energy")
check_hypotheses = _on_first_call("hypotheses", "check_hypotheses")
verify_example = _on_first_call("trace_formula", "verify_example")
estimate_W1 = _on_first_call("cellformulas", "estimate_W1")
estimate_W2 = _on_first_call("cellformulas", "estimate_W2")
estimate_gamma1 = _on_first_call("cellformulas", "estimate_gamma1")
estimate_gamma2 = _on_first_call("cellformulas", "estimate_gamma2")

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


def _floats(value) -> np.ndarray:
    """A JSON number, or nested lists of them, as a float array with finite
    entries only; ``np.asarray`` would accept "0.5" and true."""
    arr = np.asarray(_nested(value, _number), dtype=float)
    if not np.all(np.isfinite(arr)):
        raise ValueError("non-finite values")
    return arr


def _typed(kind: type, what: str):
    """A coercion that passes values of ``kind`` through and refuses the rest."""

    def check(value):
        if not isinstance(value, kind):
            raise TypeError(f"must be {what}, got {type(value).__name__}")
        return value

    return check


_object = _typed(dict, "an object")
_text = _typed(str, "a string")
_flag = _typed(bool, "true or false")  # not bool(): bool("false") is True


def _file_name(value) -> str:
    """A string naming a file in the output directory, not the directory."""
    if os.path.basename(_text(value)) in ("", ".", ".."):
        raise ValueError(f"must name a file, got {value!r}")
    return value


def _int(value) -> int:
    """A JSON integer; ``int()`` would truncate 1.7 and accept "2" and true."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise TypeError(f"must be an integer, got {type(value).__name__}")
    return value


def _number(value) -> float:
    """A JSON number; ``float()`` would accept "0.5" and true."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise TypeError(f"must be a number, got {type(value).__name__}")
    return float(value)


def _numbers(value) -> tuple:
    """A list of JSON numbers."""
    return tuple(_number(v) for v in _typed(list, "a list of numbers")(value))


def _nested(value, leaf):
    """``leaf`` of a value, or of each entry of nested lists of them."""
    return [_nested(v, leaf) for v in value] if isinstance(value, list) else leaf(value)


def _ints(value) -> list:
    return [_int(n) for n in value]


def _count(value) -> int:
    """A JSON integer that is not negative."""
    if _int(value) < 0:
        raise ValueError(f"must not be negative, got {value}")
    return value


def _sequence_ns(value) -> list:
    ns = _ints(value)
    if not ns:
        raise ValueError("must list at least one n")
    return ns


def _int_array(value) -> np.ndarray:
    return np.asarray(_ints(value) if isinstance(value, list) else _int(value), dtype=int)


def _expressions(value):
    """One component expression, or a nested list of them."""
    return _nested(value, _text)


def _require_finite_field(name: str, field: PiecewiseAffineField):
    """Cell data, jump tolerance and boundary data of a field (``BoxDomain``
    checks its own bounds)."""
    from .fields import AffineBoundary, StepBoundary

    arrays = [field.const, field.lin, field.jump_tol]
    bd = field.boundary_data
    if isinstance(bd, AffineBoundary):
        arrays += [bd.const, bd.lin]
    elif isinstance(bd, StepBoundary):
        arrays += [bd.payload, bd.threshold]
    _require_finite(f"field {name!r}", *arrays)


def _options(section, fields: dict, name: str) -> dict:
    """The keys an object section gives, each coerced by its entry in ``fields``.

    A section that is not an object, an unknown key and a value that does not
    coerce are config errors naming ``name.key``; ``name`` is empty at the top.
    """
    if not isinstance(section, dict):
        raise ConfigError(f"{name or 'config'} must be an object, got {type(section).__name__}")
    prefix = f"{name}." if name else ""
    out = {}
    for key, value in section.items():
        if key not in fields:
            raise ConfigError(f"unknown key {prefix}{key!r}")
        try:
            out[key] = fields[key](value)
        except (TypeError, ValueError) as err:
            where = f"{name} section" if name else "config"
            raise ConfigError(f"bad {where}: {prefix}{key}: {err}") from err
    return out


# ---------------------------------------------------------------------------
# config -> objects
# ---------------------------------------------------------------------------


def _build_domain(cfg: dict) -> BoxDomain:
    from .fields import BoxDomain

    opts = _options(cfg, {"lower": _floats, "upper": _floats, "resolution": _int_array},
                    "domain")
    try:
        return BoxDomain(opts["lower"], opts["upper"], opts["resolution"])
    except KeyError as err:
        raise ConfigError(f"domain section missing {err}") from err


# the catalog params keys, each with its coercion
_PARAM_FIELDS = {"d": _int, "N": _int, "probe_range": _number, "t_min": _number, "a": _numbers}


def _build_density_component(which: str, cfg: dict, d: int, N: int):
    from .densities import catalog

    path = f"densities.{which}"
    cfg = _options(cfg, {"catalog": _text, "params": _object, "expression": _text}, path)
    if "catalog" in cfg:
        params = cfg.get("params", {})
        # the keys some density takes are typed here; catalog names any others
        typed = _options({k: v for k, v in params.items() if k in _PARAM_FIELDS}, _PARAM_FIELDS,
                         f"{path}.params")
        others = {k: v for k, v in params.items() if k not in _PARAM_FIELDS}
        d, N = typed.pop("d", d), typed.pop("N", N)
        try:
            return catalog(cfg["catalog"], d=d, N=N, **typed, **others)
        except KeyError as err:  # an unknown catalog name
            raise ConfigError(f"bad density {path}: {err.args[0]}") from err
        except ValueError as err:
            raise ConfigError(f"bad density {path}: {err}") from err
    if "expression" in cfg:
        raise ConfigError("per-component expressions are given together; "
                          "use densities.expressions")
    raise ConfigError(f"densities.{which} needs a catalog name")


_DENSITY_FIELDS = {"W": _object, "psi1": _object, "psi2": _object, "expressions": _object,
                   "d": _int, "N": _int}


def _build_densities(cfg: dict) -> DensityTriple:
    from .densities import DensityTriple, triple_from_expressions
    from .expressions import ExpressionError

    cfg = _options(cfg, _DENSITY_FIELDS, "densities")
    d = cfg.get("d", 2)
    N = cfg.get("N", 2)
    if "expressions" in cfg:
        ex = _options(cfg["expressions"], {"W": _text, "psi1": _text, "psi2": _text,
                                           "coercive_bulk": _flag, "coercive_interfacial": _flag},
                      "densities.expressions")
        try:
            return triple_from_expressions(
                ex["W"], ex["psi1"], ex["psi2"],
                coercive_bulk=ex.get("coercive_bulk", True),
                coercive_interfacial=ex.get("coercive_interfacial", True),
            )
        except KeyError as err:
            raise ConfigError(f"densities.expressions section missing {err}") from err
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
    from .expressions import CompiledExpression
    from .fields import PiecewiseAffineField

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


_FIELD_FIELDS = {"file": _text, "expression": _expressions, "grad_expression": _expressions,
                 "constant": _floats, "linear": _floats}


def _build_field(domain: BoxDomain, cfg: dict, name: str) -> PiecewiseAffineField:
    from .expressions import ExpressionError
    from .fields import PiecewiseAffineField

    cfg = _options(cfg, _FIELD_FIELDS, f"fields.{name}")
    if "file" in cfg:
        try:
            with open(cfg["file"]) as fh:
                field = PiecewiseAffineField.from_dict(_load_json(fh))
        except (OSError, ValueError) as err:
            raise ConfigError(f"cannot read field file for {name!r}: {err}") from err
        if not field.domain.compatible(domain):
            raise ConfigError(
                f"field file for {name!r} covers the box {field.domain.lower.tolist()} to "
                f"{field.domain.upper.tolist()}, not the domain section's "
                f"{domain.lower.tolist()} to {domain.upper.tolist()}")
    elif "expression" in cfg:
        try:
            field = _sample_expression_field(domain, cfg["expression"], cfg.get("grad_expression"))
        except ExpressionError as err:
            raise ConfigError(f"bad field expression for {name!r}: {err}") from err
    elif "linear" in cfg:
        lin = cfg["linear"]
        centers = domain.cell_centers()
        const = np.einsum("...k,ck->c...", lin, centers.reshape(-1, domain.ndim))
        const = const.reshape(domain.cells_shape + lin.shape[:-1])
        linb = np.broadcast_to(lin, domain.cells_shape + lin.shape).copy()
        field = PiecewiseAffineField(domain, const, linb)
    elif "constant" in cfg:
        value = cfg["constant"]
        const = np.broadcast_to(value, domain.cells_shape + value.shape).copy()
        field = PiecewiseAffineField(domain, const)
    else:
        raise ConfigError(f"fields.{name} needs one of: file, expression, constant, linear")
    _require_finite_field(name, field)
    return field


def _build_sd2(config: dict) -> SD2Triple:
    from .constructions import SD2Triple
    from .expressions import ExpressionError

    if "domain" not in config:
        raise ConfigError("missing domain section")
    domain = _build_domain(config["domain"])
    if "fields" not in config:
        raise ConfigError("missing fields section")
    fields_cfg = _options(config["fields"], {"g": _object, "G": _object, "Gamma": _object},
                          "fields")
    try:
        g = _build_field(domain, fields_cfg["g"], "g")
        G = _build_field(domain, fields_cfg["G"], "G")
    except KeyError as err:
        raise ConfigError(f"fields section missing {err}") from err
    gamma_cfg = fields_cfg.get("Gamma")
    if gamma_cfg is not None:
        gamma_cfg = _options(gamma_cfg, {"table": _floats, "constant": _floats,
                                         "expression": _expressions}, "fields.Gamma")
    d = g.value_shape[0] if g.value_shape else 1
    N = domain.ndim
    if gamma_cfg is None:
        gamma = np.zeros(domain.cells_shape + (d, N, N))
    elif "table" in gamma_cfg:
        gamma = gamma_cfg["table"]
    elif "constant" in gamma_cfg:
        value = gamma_cfg["constant"]
        gamma = np.broadcast_to(value, domain.cells_shape + value.shape).copy()
    elif "expression" in gamma_cfg:
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


# the CheckConfig fields a check section may set, each with its coercion
_CHECK_FIELDS = {"d": _int, "N": _int, "samples": _int, "input_range": _number,
                 "schedule": _numbers, "pair_scales": _numbers}


def _task_check(config: dict, seed: int) -> tuple[dict, int]:
    from .hypotheses import CheckConfig

    densities_cfg = config.get("densities", {})
    densities = _build_densities(densities_cfg)
    # the dimensions default to the densities section's, the rest to CheckConfig's
    dims = {k: densities_cfg[k] for k in ("d", "N") if k in densities_cfg}
    kwargs = _options({**dims, **config.get("check", {})}, _CHECK_FIELDS, "check")
    try:
        cfg = CheckConfig(seed=seed, **kwargs)
    except ValueError as err:
        raise ConfigError(f"bad check section: {err}") from err
    report = check_hypotheses(densities, cfg)
    return {"report": report.to_dict()}, (0 if report.all_pass else 4)


def _task_energy(config: dict, seed: int) -> tuple[dict, int]:
    from .fields import SecondOrderField

    domain = _build_domain(config.get("domain", {}))
    sd2_like = _options(config.get("fields", {}), dict.fromkeys(("u", "grad", "g", "G", "Gamma"),
                                                                _object), "fields")
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


def _task_sequence(config: dict, seed: int) -> tuple[dict, int]:
    sd2 = _build_sd2(config)
    densities = _build_densities(config.get("densities", {}))
    section = _options(config.get("sequence", {}), {"n": _sequence_ns}, "sequence")
    out = []
    for n in section.get("n", [4, 8, 16, 32]):
        pair, diag = approximating_sequence(sd2, n)
        breakdown = total_energy(pair, densities)
        diag["energy"] = breakdown.to_dict()
        out.append(diag)
    return {"sequence": out}, 0


_CELL_FIELDS = {"variant": _text, "budget": _int, "resolution": _int,
                **dict.fromkeys(("x", "A", "lam", "Lam", "nu", "L", "M"), _floats)}


def _task_cell_sweep(config: dict, seed: int) -> tuple[dict, int]:
    densities_cfg = config.get("densities", {})
    densities = _build_densities(densities_cfg)
    if "cell" not in config:
        raise ConfigError("missing cell section")
    section = _options(config["cell"], _CELL_FIELDS, "cell")
    variant = section.get("variant")
    if "x" in section:
        x = section["x"]
    else:  # the origin of the densities section's N, 2 as there
        N = densities_cfg.get("N", 2)
        if N < 1:  # catalog densities check N themselves, expression densities do not
            raise ConfigError(f"densities.N must be at least 1 for the default cell.x, got {N}")
        x = np.zeros(N)
    kwargs = {"budget": section.get("budget", 1)}
    if "resolution" in section:
        kwargs["resolution"] = section["resolution"]
    try:
        if variant == "W1":
            result = estimate_W1(x, section["A"], densities, **kwargs)
        elif variant == "Gamma1":
            result = estimate_gamma1(x, section["lam"], section["nu"], densities, **kwargs)
        elif variant == "W2":
            result = estimate_W2(x, section["A"], section["L"], section["M"], densities, **kwargs)
        elif variant == "Gamma2":
            result = estimate_gamma2(x, section["A"], section["Lam"], section["nu"], densities,
                                     **kwargs)
        else:
            raise ConfigError(f"unknown cell variant {variant!r}")
    except KeyError as err:
        raise ConfigError(f"cell section missing {err}") from err
    payload = result.to_dict()
    rows = result.rows
    return {"estimate": payload, "_csv_rows": rows}, 0


def _task_example(config: dict, seed: int) -> tuple[dict, int]:
    if "example" not in config:
        raise ConfigError("missing example section")
    section = _options(config["example"], {"a": _numbers, "L": _floats, "M": _floats,
                                           "tolerance": _number, "random_count": _count}, "example")
    a = section.get("a", np.array([1.0, 0.0]))
    N = len(a)
    report = verify_example(section.get("L", np.zeros((N, N, N))),
                            section.get("M", np.zeros((N, N, N))), a,
                            tolerance=section.get("tolerance", 1e-9),
                            random_count=section.get("random_count", 0),
                            seed=seed)
    return {"example": report}, 0


# the AssembleConfig fields an assemble section may set, each with its coercion
_ASSEMBLE_FIELDS = {"budget": _int, "resolution": _int, "w2_resolution": _int,
                    "w2_estimator": _text, "gamma2_representative": _text, "collect_cells": _flag}


def _task_assemble(config: dict, seed: int) -> tuple[dict, int]:
    from .assembly import AssembleConfig

    sd2 = _build_sd2(config)
    densities = _build_densities(config.get("densities", {}))
    cfg = AssembleConfig(**_options(config.get("assemble", {}), _ASSEMBLE_FIELDS, "assemble"))
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

_TOP_FIELDS = {"task": _text, "seed": _int,
               **dict.fromkeys(("output", "densities", "domain", "fields", "check", "sequence",
                                "cell", "example", "assemble"), _object)}


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
        top = _options(config, _TOP_FIELDS, "")
        task = top.get("task")
        if task not in TASKS:
            raise ConfigError(f"task must be one of {TASKS}, got {task!r}")
        try:  # the seed argument takes the config key's rule: an integer, never truncated
            resolved_seed = top.get("seed", 0) if seed is None else _int(seed)
        except TypeError as err:
            raise ConfigError(f"bad seed argument: {err}") from err
        output_cfg = _options(top.get("output", {}), {"json": _file_name, "csv": _file_name}, "output")
        # overflow to inf and underflow to zero are IEEE results that the run
        # checks itself (non-finite fields exit 2, a non-finite report exits 3),
        # whatever the caller's errstate
        with np.errstate(over="ignore", under="ignore"):
            payload, code = _RUNNERS[task](config, resolved_seed)
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
                config = _load_json(fh)
            declared = config.get("task") if isinstance(config, dict) else None
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
