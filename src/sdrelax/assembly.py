"""Assembly of the relaxed-energy integral representation.

Per cell, the two bulk cell formulas are estimated at the frozen cell center
(first-gradient mismatch for the disarrangement part, boundary/average
tensors for the second-gradient part) and summed against cell volumes; per
jump facet of the macroscopic field and of its companion gradient field, the
corresponding oriented-cube formulas are estimated and summed against facet
areas.  Every term carries an upper/lower bracket; the report exposes the
split into a first-gradient part and a second-gradient part whose sum is the
total by construction.

The first-order and Gamma problems are solved in batches: all the W1 cell
problems in one ``estimate_batch`` sweep, then all the Gamma1 facet problems,
then all the Gamma2 ones, each sweep in blocks of ``cellformulas._SWEEP_BLOCK``
problems, so memory stays bounded at any grid size.  The W2 cell problems
are solved one at a time, in grid order.  A batch returns its failures
instead of raising them, and the first failure in grid and table order (a
cell's W1 before its W2) is the one raised, naming its cell.

Identical cell problems are solved once: each estimate is memoized under the
exact float bits of its arguments (``-0.0`` folded into ``0.0``, and the
position zeroed for densities that declare no dependence on it), and a
problem is solved at the data of its first lookup.  Only bit-equal problems
share a solve, and the estimators are deterministic (an entry of a batch is
its one-problem solve bit for bit), so neither the memo nor the batches
change a reported digit; every cell and facet is priced at its own data.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dataclass_field

import numpy as np

from .cellformulas import (
    EstimateResult,
    EstimationError,
    estimate_W1,  # noqa: F401 - solved by estimate_batch here; perfbench/traced.py wraps it by this name
    estimate_W2,
    estimate_batch,
    estimate_gamma1,  # noqa: F401 - as estimate_W1
    estimate_gamma2,  # noqa: F401 - as estimate_W1
)
from .constructions import SD2Triple
from .densities import DensityTriple
from .integrate import fsum
from .trace_formula import closed_form_W2, swap_layout


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
    L_field = G.lin.reshape((-1,) + G.value_shape + (N,))
    M_field = Gamma.reshape((-1,) + G.value_shape + (N,))
    # densities with declared zero position modulus let identical cell
    # problems at different points share one solve
    x_free_1 = densities.psi1.constants.get("H6") == 0.0
    x_free_2 = (densities.W.constants.get("H3") == 0.0
                and densities.psi2.constants.get("H6") == 0.0)
    zero_x = np.zeros(N)
    memo: dict[tuple, EstimateResult | EstimationError] = {}
    lookups = 0

    def key_of(variant: str, args: tuple) -> tuple:
        # exact float bits (+ 0.0 folds -0.0 into 0.0); each variant has fixed shapes
        return (variant,) + tuple((np.asarray(a, dtype=float) + 0.0).tobytes() for a in args)

    def lookup(variant: str, args: tuple, solve) -> EstimateResult:
        nonlocal lookups
        lookups += 1
        key = key_of(variant, args)
        if key not in memo:
            memo[key] = solve()
        return memo[key]

    def lookup_all(variant: str, keyed: list) -> list:
        """The result, or the EstimationError, of each ``(key args, args)``
        problem, in order; the memo's misses are solved by one batch sweep,
        each at the args of its first lookup."""
        nonlocal lookups
        lookups += len(keyed)
        keys = [key_of(variant, key) for key, _ in keyed]
        missing = {}
        for key, (_, args) in zip(keys, keyed):
            if key not in memo:
                missing.setdefault(key, args)
        memo.update(zip(missing, estimate_batch(variant, list(missing.values()), densities,
                                                budget=config.budget, resolution=config.resolution)))
        return [memo[key] for key in keys]

    def first_failure(results: list) -> list:
        for result in results:
            if isinstance(result, EstimationError):
                raise result
        return results

    def solve_cell(i: int, r1) -> tuple[EstimateResult, EstimateResult]:
        x = centers[i]
        L_bil = swap_layout(L_field[i])
        M_bil = swap_layout(M_field[i])
        try:
            if isinstance(r1, EstimationError):
                raise r1
            if config.w2_estimator == "trace-formula":
                r2 = lookup("W2t", (zero_x if x_free_2 else x, L_bil, M_bil),
                            lambda: _trace_formula_estimate(x, L_bil, M_bil,
                                                            densities.psi2.params["a"]))
            else:
                r2 = lookup("W2", (zero_x if x_free_2 else x, A2[i], L_bil, M_bil),
                            lambda: estimate_W2(x, A2[i], L_bil, M_bil, densities,
                                                budget=config.budget,
                                                resolution=config.w2_resolution))
            return r1, r2
        except EstimationError as err:
            raise EstimationError(
                f"cell {i} at x={x.tolist()}: {err}; "
                f"A1={A1[i].tolist()}, L={L_bil.tolist()}, M={M_bil.tolist()}") from err

    w1 = lookup_all("W1", [((zero_x if x_free_1 else x, a), (x, a)) for x, a in zip(centers, A1)])
    cell_results = [solve_cell(i, r1) for i, r1 in enumerate(w1)]
    bulk1 = _bracket([r1 for r1, _ in cell_results], [vol] * cells)
    bulk2 = _bracket([r2 for _, r2 in cell_results], [vol] * cells)

    facets_g = g.jump_set()
    surf1 = _bracket(first_failure(lookup_all("Gamma1", [
        ((zero_x if x_free_1 else centroid, jump, normal), (centroid, jump, normal))
        for centroid, jump, normal in zip(facets_g.centroid, facets_g.jump, facets_g.normal)
    ])), facets_g.area)

    facets_G = G.jump_set()
    # the plus/minus representatives are mean +- half the jump; reading the
    # plus/minus columns directly rounds differently and would move reported digits
    reps = facets_G.trace_mean
    if config.gamma2_representative != "average":
        half = 0.5 * facets_G.jump
        reps = reps + half if config.gamma2_representative == "plus" else reps - half
    surf2 = _bracket(first_failure(lookup_all("Gamma2", [
        ((zero_x if x_free_2 else centroid, rep, jump, normal), (centroid, rep, jump, normal))
        for centroid, rep, jump, normal in zip(facets_G.centroid, reps, facets_G.jump,
                                               facets_G.normal)
    ])), facets_G.area)

    cell_rows = []
    if config.collect_cells:
        for i, (r1, r2) in enumerate(cell_results):
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
        cache_hits=lookups - len(memo), cache_misses=len(memo),
        config=config.to_dict(), cell_rows=cell_rows,
    )
