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
    terms, inexact = _interfacial_terms(psi, facets, widths, x0, R)
    return fsum(terms), inexact


def _interfacial_terms(psi: InterfacialDensity, facets: FacetTable, widths,
                       x0: np.ndarray | None = None, R: np.ndarray | None = None) -> tuple[np.ndarray, int]:
    """The terms of ``interfacial_energy``, one per facet in row order, and
    its count of centroid-only facets.  Each term depends on its own row
    only, so the terms of a table's row blocks, joined, are the table's."""
    varies = facets.varies()
    hooked = varies if psi.facet_integral is not None else np.zeros(len(facets), dtype=bool)
    terms = np.zeros(len(facets))
    plain = facets.select(~hooked)
    if len(plain):
        x = plain.centroid if x0 is None else np.broadcast_to(x0, (len(plain), len(x0)))
        nu = plain.normal if R is None else plain.normal @ R.T
        terms[~hooked] = np.asarray(psi(x, plain.jump, nu), dtype=float) * plain.area
    if hooked.any():
        rows = facets.select(hooked)
        hooked_terms = []
        for axis, centroid, jump, jump_lin, normal in zip(rows.axis, rows.centroid, rows.jump,
                                                          rows.jump_lin, rows.normal):
            normal = normal if R is None else R @ normal
            tangent_axes = [k for k in range(len(widths)) if k != axis]
            twidths = np.asarray([widths[k] for k in tangent_axes], dtype=float)
            hooked_terms.append(psi.facet_integral(centroid if x0 is None else x0, jump,
                                                   jump_lin, normal, twidths, tangent_axes))
        terms[hooked] = hooked_terms
    return terms, int(np.count_nonzero(varies & ~hooked))


def total_energy(u, densities: DensityTriple, cell_ranges=None) -> EnergyBreakdown:
    """Initial energy of a field in the discrete second-gradient class.

    Accepts a SecondOrderField or a plain piecewise-affine field (wrapped
    with its derived, jump-free second data).  ``cell_ranges`` restricts the
    evaluation to a sub-box of cell indices; facets belong to the range of
    their lower adjacent cell, so ranges partitioning the grid partition the
    energy.

    The jump facets are priced block by block as the fields'
    ``facet_blocks`` build them, and no jump set is built or cached: the
    fields hold one block of facets at a time, at most
    ``fields._FACET_BLOCK`` interior facets or the boundary facets.  The
    energy is that of their ``jump_set`` bit for bit, as every facet's term
    keeps its bits and each ``fsum`` rounds its terms' exact sum.
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

    jump1, inexact1 = _jump_energy(densities.psi1, u.u, cell_ranges)
    jump2, inexact2 = _jump_energy(densities.psi2, u.grad, cell_ranges)

    total = bulk + jump1 + jump2
    meta = {
        "bulk_rule": "cell-midpoint (exact for cellwise-constant arguments)",
        "facet_rule": "centroid samples; affine jumps upgraded via density hooks",
        "inexact_facets": inexact1 + inexact2,
    }
    return EnergyBreakdown(bulk, jump1, jump2, total, meta)


def _jump_energy(psi: InterfacialDensity, field: PiecewiseAffineField, cell_ranges) -> tuple[float, int]:
    """``interfacial_energy`` over the field's jump facets in ``cell_ranges``,
    priced block by block as ``facet_blocks`` builds them: no more than one
    block of facets is held at a time."""
    terms, inexact = [], 0
    for block in field.facet_blocks():
        block_terms, block_inexact = _interfacial_terms(psi, _in_ranges(block, cell_ranges),
                                                        field.domain.widths)
        terms.append(block_terms)
        inexact += block_inexact
    return fsum(np.concatenate(terms)), inexact
