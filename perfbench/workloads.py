"""Seeded inputs for the benchmark workloads.

A workload is a list of CLI runs, one child process each, run one after the
other by a single closed-loop client.  ``build`` writes every input a run
needs into a fresh directory: the config and, for the generated workloads,
``g`` and ``G`` as serialized field files (the ``PiecewiseAffineField.to_dict``
format) and ``Gamma`` as a per-cell table, so the program receives only grid
data.  Config paths are relative to that directory, which is the children's
working directory, so the reports embed no run-specific path.

Why each workload, and its measured work at seed 0:

seq-fine
    ``approx-sequence`` with ``n = [16]`` on a 4x4 base grid; the second-stage
    grid is 256x256 (65 536 cells, 138 240 jump facets built).  The work is
    in ``fields`` (``jump_set``, ``_l1_of_cell_data``), ``constructions`` and
    ``energy``; ``cellformulas`` is never called.
assemble-distinct
    ``relax-assemble`` with the defaults (budget 1, one job) on a 16x16 grid
    of the same fixture, with a seeded constant in [-0.1, 0.1] added to ``g``
    per cell (``G_OFFSET``): 256 cells, 480 jump facets of ``g``, none of
    ``G``; 992 estimate lookups, 992 distinct problems, hit share 0.  Every
    cell is its own W1 and W2 problem and every facet its own Gamma1
    problem; the W2 sweep takes most of the time.  Without the offset the
    jump of ``g`` at each facet centroid is rounding noise, and on such a
    jump the program reports ``surf1.lower > surf1.upper`` (a defect of
    ``estimate_gamma1`` kept as an expected failure in ``test_smoke.py``).
configs-shipped
    The five configs in ``configs/``, one process each, with ``--seed``.
    The only load on ``hypotheses``, ``trace_formula``, ``expressions`` and
    ``cell-sweep``; process start and ``import sdrelax.cli`` are ~40% of the
    time.

The fixture of the first two is the one of the roadmap baseline,
``g = (a x^2/2 + b y, c x y)``, ``G = grad g / 2`` (affine) and ``Gamma = 0``
on the unit square, with ``a, b, c`` drawn from the seed in [0.5, 1.5].
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass

import numpy as np

NAMES = ("seq-fine", "assemble-distinct", "configs-shipped")

SHIPPED_CONFIGS = ("check_catalog.json", "example_identity.json", "relax_slip.json",
                   "sequence_quadratic.json", "sweep_w1.json")

# Grid sizes per workload; TINY keeps the same structure for the smoke test.
FULL = {"seq-fine": {"base": 4, "n": 16}, "assemble-distinct": {"grid": 16}}
TINY = {"seq-fine": {"base": 2, "n": 2}, "assemble-distinct": {"grid": 2}}

# per-cell offset of g on assemble-distinct, so its facets carry real jumps
G_OFFSET = 0.1

NORM_DENSITIES = {"W": {"catalog": "W_norm"}, "psi1": {"catalog": "Psi1_norm"},
                  "psi2": {"catalog": "Psi2_norm"}, "d": 2, "N": 2}


@dataclass
class Run:
    """One CLI invocation of a workload."""

    kind: str            # what the output checks expect: the config's task
    config: str          # config path, relative to the run directory or absolute
    out: str             # output directory, relative to the run directory
    report: str          # report file name inside ``out``


def _field_dict(res: int, const: np.ndarray, lin: np.ndarray) -> dict:
    value_shape = list(const.shape[2:])
    return {
        "type": "piecewise_affine",
        "domain": {"lower": [0.0, 0.0], "upper": [1.0, 1.0], "resolution": [res, res]},
        "value_shape": value_shape,
        "const": const.tolist(),
        "lin": lin.tolist(),
        "boundary": None,
        "jump_tol": 1e-12,
    }


def fixture_fields(seed: int, res: int, offset: float = 0.0) -> tuple[dict, dict]:
    """The roadmap fixture sampled cellwise on a res x res grid of the unit square.

    Each cell carries the tangent plane at its centre, so the jump of ``g`` at
    every facet centroid is zero up to rounding.  ``offset > 0`` adds to ``g``
    a seeded constant per cell, uniform in ``[-offset, offset]``, which gives
    every facet a jump of that order and changes no cell problem.
    """
    a, b, c = np.random.default_rng(seed).uniform(0.5, 1.5, 3)
    centers = (np.arange(res) + 0.5) / res
    x, y = np.meshgrid(centers, centers, indexing="ij")
    zero = np.zeros_like(x)
    g_const = np.stack([a * x * x / 2 + b * y, c * x * y], axis=-1)
    if offset > 0.0:
        g_const += np.random.default_rng([seed, 1]).uniform(-offset, offset, g_const.shape)
    g_lin = np.stack([np.stack([a * x, b + zero], -1), np.stack([c * y, c * x], -1)], -2)
    G_const = 0.5 * g_lin
    dG = 0.5 * np.array([[[a, 0.0], [0.0, 0.0]], [[0.0, c], [c, 0.0]]])
    G_lin = np.broadcast_to(dG, (res, res, 2, 2, 2)).copy()
    return _field_dict(res, g_const, g_lin), _field_dict(res, G_const, G_lin)


def _write_json(path: str, obj) -> None:
    with open(path, "w") as fh:
        json.dump(obj, fh)


def _generated(workdir: str, seed: int, task: str, res: int, g: dict, G: dict,
               section: dict) -> list[Run]:
    _write_json(os.path.join(workdir, "g.json"), g)
    _write_json(os.path.join(workdir, "G.json"), G)
    config = {
        "task": task,
        "seed": seed,
        "densities": NORM_DENSITIES,
        "domain": {"lower": [0.0, 0.0], "upper": [1.0, 1.0], "resolution": [res, res]},
        "fields": {"g": {"file": "g.json"}, "G": {"file": "G.json"},
                   "Gamma": {"table": np.zeros((res, res, 2, 2, 2)).tolist()}},
        **section,
    }
    _write_json(os.path.join(workdir, "config.json"), config)
    return [Run(task, "config.json", "out", "report.json")]


def build(name: str, seed: int, workdir: str, root: str, sizes: dict = FULL) -> list[Run]:
    """Write the inputs of workload ``name`` for ``seed`` into ``workdir``."""
    if name == "seq-fine":
        p = sizes[name]
        g, G = fixture_fields(seed, p["base"])
        return _generated(workdir, seed, "approx-sequence", p["base"], g, G,
                          {"sequence": {"n": [p["n"]]}})
    if name == "assemble-distinct":
        res = sizes[name]["grid"]
        g, G = fixture_fields(seed, res, G_OFFSET)
        return _generated(workdir, seed, "relax-assemble", res, g, G, {"assemble": {}})
    if name == "configs-shipped":
        runs = []
        for i, fname in enumerate(SHIPPED_CONFIGS):
            path = os.path.join(root, "configs", fname)
            with open(path) as fh:
                config = json.load(fh)
            report = config.get("output", {}).get("json", "report.json")
            runs.append(Run(config["task"], path, f"out{i}", report))
        return runs
    raise ValueError(f"unknown workload {name!r}")
