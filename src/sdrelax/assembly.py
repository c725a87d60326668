"""Assembly of the relaxed-energy integral representation.

Per cell, the two bulk cell formulas are estimated at the frozen cell center
(first-gradient mismatch for the disarrangement part, boundary/average
tensors for the second-gradient part) and summed against cell volumes; per
jump facet of the macroscopic field and of its companion gradient field, the
corresponding oriented-cube formulas are estimated and summed against facet
areas.  Every term carries an upper/lower bracket; the report exposes the
split into a first-gradient part and a second-gradient part whose sum is the
total by construction.

Every variant goes one way.  Its problems are stacked as key rows (the
position, zeroed for densities that declare no dependence on it, then the
variant's data, ``-0.0`` folded into ``0.0``); one ``np.unique`` pass over
the rows' bytes finds the distinct problems, and those are solved in one
call, each at the data of its first occurrence: ``estimate_batch`` for W1,
W2, Gamma1 and Gamma2, swept in blocks of ``cellformulas._SWEEP_BLOCK``
problems so memory stays bounded at any grid size, or the closed form per
problem for the trace-formula W2.  A batch returns its failures instead of
raising them, and the first failure in grid and table order (a cell's W1
before its W2) is the one raised, naming its cell.

Only bit-equal problems share a solve, and the estimators are deterministic
(an entry of a batch is its one-problem solve bit for bit), so neither the
deduplication nor the batches change a reported digit; every cell and facet
is priced at its own data.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dataclass_field

import numpy as np

from .cellformulas import (
    EstimateResult,
    EstimationError,
    estimate_W1,  # noqa: F401 - solved by estimate_batch here; perfbench/traced.py wraps it by this name
    estimate_W2,  # noqa: F401 - as estimate_W1
    estimate_batch,
    estimate_gamma1,  # noqa: F401 - as estimate_W1
    estimate_gamma2,  # noqa: F401 - as estimate_W1
)
from .constructions import SD2Triple
from .densities import DensityTriple
from .integrate import fsum
from .trace_formula import closed_form_W2


@dataclass
class AssembleConfig:
    budget: int = 1
    resolution: int = 4
    w2_resolution: int = 8
    w2_estimator: str = "families"          # families | trace-formula
    gamma2_representative: str = "average"  # average | plus | minus
    collect_cells: bool = False

    def to_dict(self) -> dict:
        return {
            "budget": self.budget,
            "resolution": self.resolution,
            "w2_resolution": self.w2_resolution,
            "w2_estimator": self.w2_estimator,
            "gamma2_representative": self.gamma2_representative,
        }


@dataclass
class TermBracket:
    upper: float = 0.0
    lower: float = 0.0

    def to_dict(self) -> dict:
        return {"upper": self.upper, "lower": self.lower}


@dataclass
class RelaxedEnergyReport:
    bulk1: TermBracket
    bulk2: TermBracket
    surf1: TermBracket
    surf2: TermBracket
    I1: TermBracket
    I2: TermBracket
    total: TermBracket
    cells: int
    facets_g: int
    facets_G: int
    cache_hits: int
    cache_misses: int
    config: dict = dataclass_field(default_factory=dict)
    cell_rows: list = dataclass_field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            "bulk1": self.bulk1.to_dict(),
            "bulk2": self.bulk2.to_dict(),
            "surf1": self.surf1.to_dict(),
            "surf2": self.surf2.to_dict(),
            "I1": self.I1.to_dict(),
            "I2": self.I2.to_dict(),
            "total": self.total.to_dict(),
            "cells": self.cells,
            "facets_g": self.facets_g,
            "facets_G": self.facets_G,
            "cache": {"hits": self.cache_hits, "misses": self.cache_misses},
            "config": self.config,
        }


def _bracket(results, weights) -> TermBracket:
    """Sum of weighted brackets; a missing or negative lower bound counts as 0."""
    return TermBracket(fsum([r.upper * w for r, w in zip(results, weights)]),
                       fsum([max(0.0, r.lower or 0.0) * w for r, w in zip(results, weights)]))


def _trace_formula_estimate(x, L_bil, M_bil, a) -> EstimateResult:
    value = closed_form_W2(L_bil, M_bil, np.asarray(a, dtype=float))
    return EstimateResult(upper=value, lower=value, best_family="trace-formula",
                          best_params=(), evaluations=1,
                          notes="closed-form relaxed bulk density (exact for this density pair)")


def assemble_relaxed_energy(sd2: SD2Triple, densities: DensityTriple,
                            config: AssembleConfig | None = None) -> RelaxedEnergyReport:
    """Estimate all four relaxed densities over a structured deformation.

    Raises EstimationError (carrying the serialized offending sub-problem)
    when any cell or facet problem produces no admissible competitor.
    """
    if config is None:
        config = AssembleConfig()
    if config.w2_estimator not in ("families", "trace-formula"):
        raise ValueError(f"unknown w2 estimator {config.w2_estimator!r}")
    if config.w2_estimator == "trace-formula":
        if densities.psi2.name != "Psi2_proj" or densities.W.name != "W_zero":
            raise ValueError("trace-formula estimator requires the zero bulk density "
                             "and the directional-jump interfacial density")
    if config.gamma2_representative not in ("average", "plus", "minus"):
        raise ValueError(f"unknown trace representative {config.gamma2_representative!r}")
    # checked before any solve: otherwise a bad value fails only where a cell or facet reads it
    if config.resolution < 2 or config.resolution % 2:
        raise ValueError("resolution must be an even integer >= 2 (the jump axis of the Gamma "
                         f"cells), got {config.resolution}")
    if config.w2_resolution < 1:
        raise ValueError(f"w2_resolution must be at least 1, got {config.w2_resolution}")
    if config.budget < 1:
        raise ValueError(f"budget must be at least 1, got {config.budget}")

    g, G, Gamma = sd2.g, sd2.G, sd2.Gamma
    dom = G.domain
    N = dom.ndim
    cells = dom.num_cells
    vol = dom.cell_volume
    centers = dom.cell_centers().reshape(-1, N)
    A1 = (G.const - g.lin).reshape((-1,) + G.value_shape)
    A2 = G.const.reshape((-1,) + G.value_shape)
    # the W2 tensors in the bilinear layout
    L_bil = np.swapaxes(G.lin.reshape((-1,) + G.value_shape + (N,)), -1, -2)
    M_bil = np.swapaxes(Gamma.reshape((-1,) + G.value_shape + (N,)), -1, -2)
    # densities with declared zero position modulus let identical cell
    # problems at different points share one solve
    x_free_1 = densities.psi1.constants.get("H6") == 0.0
    x_free_2 = (densities.W.constants.get("H3") == 0.0
                and densities.psi2.constants.get("H6") == 0.0)
    lookups = distinct = 0

    def solve(variant: str, x_free: bool, points: np.ndarray, *data: np.ndarray) -> list:
        """The result, or the EstimationError, of each problem ``(point, *data)``
        (row ``i`` of every array), in order.  Problems whose key rows (the
        point, zeroed when ``x_free``, then the data) have the same bits share
        one solve, at the data of the first; the distinct ones are solved in
        one call, in first-occurrence order."""
        nonlocal lookups, distinct
        if not len(points):
            return []
        keys = [np.zeros_like(points) if x_free else points] + [a.reshape(len(a), -1) for a in data]
        rows = np.concatenate(keys, axis=1) + 0.0   # + 0.0 folds -0.0 into 0.0
        _, first, inverse = np.unique(rows.view(np.dtype((np.void, rows.itemsize * rows.shape[1]))),
                                      return_index=True, return_inverse=True)
        order = np.argsort(first)   # the distinct rows, in first-occurrence order
        problems = [(points[i],) + tuple(a[i] for a in data) for i in first[order]]
        if variant == "W2t":
            results = [_trace_formula_estimate(*problem, densities.psi2.params["a"])
                       for problem in problems]
        else:
            results = estimate_batch(variant, problems, densities, budget=config.budget,
                                     resolution=config.w2_resolution if variant == "W2"
                                     else config.resolution)
        lookups += len(rows)
        distinct += len(problems)
        return [results[k] for k in np.argsort(order)[inverse.ravel()]]

    def first_failure(results: list) -> list:
        for result in results:
            if isinstance(result, EstimationError):
                raise result
        return results

    w1 = solve("W1", x_free_1, centers, A1)
    if config.w2_estimator == "trace-formula":
        w2 = solve("W2t", x_free_2, centers, L_bil, M_bil)
    else:
        w2 = solve("W2", x_free_2, centers, A2, L_bil, M_bil)
    # a cell's W1 failure before its W2, and both after every earlier cell's
    for i, results in enumerate(zip(w1, w2)):
        for err in results:
            if isinstance(err, EstimationError):
                raise EstimationError(
                    f"cell {i} at x={centers[i].tolist()}: {err}; "
                    f"A1={A1[i].tolist()}, L={L_bil[i].tolist()}, M={M_bil[i].tolist()}") from err
    bulk1 = _bracket(w1, [vol] * cells)
    bulk2 = _bracket(w2, [vol] * cells)

    facets_g = g.jump_set()
    surf1 = _bracket(first_failure(solve("Gamma1", x_free_1, facets_g.centroid, facets_g.jump,
                                         facets_g.normal)), facets_g.area)

    facets_G = G.jump_set()
    # the plus/minus representatives are mean +- half the jump; reading the
    # plus/minus columns directly rounds differently and would move reported digits
    reps = facets_G.trace_mean
    if config.gamma2_representative != "average":
        half = 0.5 * facets_G.jump
        reps = reps + half if config.gamma2_representative == "plus" else reps - half
    surf2 = _bracket(first_failure(solve("Gamma2", x_free_2, facets_G.centroid, reps, facets_G.jump,
                                         facets_G.normal)), facets_G.area)

    cell_rows = []
    if config.collect_cells:
        for i, (r1, r2) in enumerate(zip(w1, w2)):
            cell_rows.append({
                "cell": i,
                "x": centers[i].tolist(),
                "w1_upper": r1.upper, "w1_lower": r1.lower,
                "w2_upper": r2.upper, "w2_lower": r2.lower,
            })

    I1 = TermBracket(bulk1.upper + surf1.upper, bulk1.lower + surf1.lower)
    I2 = TermBracket(bulk2.upper + surf2.upper, bulk2.lower + surf2.lower)
    total = TermBracket(I1.upper + I2.upper, I1.lower + I2.lower)
    return RelaxedEnergyReport(
        bulk1=bulk1, bulk2=bulk2, surf1=surf1, surf2=surf2,
        I1=I1, I2=I2, total=total,
        cells=cells, facets_g=len(facets_g), facets_G=len(facets_G),
        cache_hits=lookups - distinct, cache_misses=distinct,
        config=config.to_dict(), cell_rows=cell_rows,
    )
