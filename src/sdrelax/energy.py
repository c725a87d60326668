"""Evaluation of the initial energy of a field.

The bulk term uses midpoint quadrature per cell, which is exact because the
density arguments are cellwise constant there; interfacial terms sum the
densities over jump facets at facet centroids, switching to the density's
exact facet integral (or Gauss-Legendre) when a facet carries affine jump
variation.  Densities are assumed orientation-consistent,
psi(x, -jump, -normal) = psi(x, jump, normal), as the jump triple is only
defined up to that flip.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dataclass_field

import numpy as np

from .densities import DensityTriple, InterfacialDensity
from .fields import FacetTable, PiecewiseAffineField, SecondOrderField
from .integrate import fsum


@dataclass
class EnergyBreakdown:
    bulk: float
    jump1: float
    jump2: float
    total: float
    quadrature: dict = dataclass_field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "bulk": self.bulk,
            "jump1": self.jump1,
            "jump2": self.jump2,
            "total": self.total,
            "quadrature": self.quadrature,
        }


def _in_ranges(facets: FacetTable, cell_ranges) -> FacetTable:
    """The facets whose index lies in the sub-box of cell index ranges."""
    keep = np.ones(len(facets), dtype=bool)
    for column, (lo, hi) in zip(facets.index.T, cell_ranges):
        keep &= (lo <= column) & (column < hi)
    return facets.select(keep)


def interfacial_energy(psi: InterfacialDensity, facets: FacetTable, widths,
                       x0: np.ndarray | None = None, R: np.ndarray | None = None) -> tuple[float, int]:
    """Sum psi over facets; returns (energy, number of centroid-only facets).

    The discrete interfacial measure samples each facet at its centroid
    (exact for facet-constant jumps).  Affine jump variation is integrated
    exactly when the density ships a facet integral; otherwise the centroid
    sample stands and the facet counts as inexact in the metadata.  Centroid
    sums stay compatible with the discrete Gauss-Green certificates: the
    affine pairing of jumps against normals is integrated exactly by
    centroids.

    A cell problem evaluates the density at its frozen point ``x0`` instead
    of the facet centroids, and its competitors live in rotated coordinates:
    ``R`` maps their facet normals to the true ones.
    """
    varies = facets.varies()
    hooked = varies if psi.facet_integral is not None else np.zeros(len(facets), dtype=bool)
    plain = facets.select(~hooked)
    plain_terms = np.zeros(0)
    if len(plain):
        x = plain.centroid if x0 is None else np.broadcast_to(x0, (len(plain), len(x0)))
        nu = plain.normal if R is None else plain.normal @ R.T
        plain_terms = np.asarray(psi(x, plain.jump, nu), dtype=float) * plain.area
    hooked_terms = []
    if hooked.any():
        rows = facets.select(hooked)
        for axis, centroid, jump, jump_lin, normal in zip(rows.axis, rows.centroid, rows.jump,
                                                          rows.jump_lin, rows.normal):
            normal = normal if R is None else R @ normal
            tangent_axes = [k for k in range(len(widths)) if k != axis]
            twidths = np.asarray([widths[k] for k in tangent_axes], dtype=float)
            hooked_terms.append(psi.facet_integral(centroid if x0 is None else x0, jump,
                                                   jump_lin, normal, twidths, tangent_axes))
    return fsum(np.append(plain_terms, hooked_terms)), int(np.count_nonzero(varies & ~hooked))


def total_energy(u, densities: DensityTriple, cell_ranges=None) -> EnergyBreakdown:
    """Initial energy of a field in the discrete second-gradient class.

    Accepts a SecondOrderField or a plain piecewise-affine field (wrapped
    with its derived, jump-free second data).  ``cell_ranges`` restricts the
    evaluation to a sub-box of cell indices; facets belong to the range of
    their lower adjacent cell, so ranges partitioning the grid partition the
    energy.
    """
    if isinstance(u, PiecewiseAffineField):
        u = SecondOrderField.from_affine(u)
    dom = u.domain
    N = dom.ndim
    if cell_ranges is None:
        cell_ranges = tuple((0, int(r)) for r in dom.resolution)

    centers = dom.cell_centers().reshape(-1, N)
    A = u.grad.const.reshape((-1,) + u.grad.value_shape)
    M = u.grad.lin.reshape((-1,) + u.grad.value_shape + (N,))
    mask = np.ones(len(centers), dtype=bool)
    idx = np.indices(dom.cells_shape).reshape(N, -1)
    for k, (lo, hi) in enumerate(cell_ranges):
        mask &= (idx[k] >= lo) & (idx[k] < hi)
    vals = np.asarray(densities.W(centers[mask], A[mask], M[mask]), dtype=float)
    bulk = fsum(vals * dom.cell_volume)

    facets1 = _in_ranges(u.u.jump_set(), cell_ranges)
    facets2 = _in_ranges(u.grad.jump_set(), cell_ranges)
    jump1, inexact1 = interfacial_energy(densities.psi1, facets1, dom.widths)
    jump2, inexact2 = interfacial_energy(densities.psi2, facets2, dom.widths)

    total = bulk + jump1 + jump2
    meta = {
        "bulk_rule": "cell-midpoint (exact for cellwise-constant arguments)",
        "facet_rule": "centroid samples; affine jumps upgraded via density hooks",
        "inexact_facets": inexact1 + inexact2,
    }
    return EnergyBreakdown(bulk, jump1, jump2, total, meta)
