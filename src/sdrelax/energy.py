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


def _interfacial_terms(psi: InterfacialDensity, facets: FacetTable, widths,
                       x: np.ndarray | None = None,
                       R: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
    """psi over each facet times its area, in row order, and which facets
    went by their centroid only: the one interfacial routine of the energy
    and the cell formulas.

    The discrete interfacial measure samples each facet at its centroid
    (exact for facet-constant jumps).  Affine jump variation is integrated
    exactly when the density ships a facet integral; otherwise the centroid
    sample stands and the facet counts as inexact in the metadata.  Centroid
    sums stay compatible with the discrete Gauss-Green certificates: the
    affine pairing of jumps against normals is integrated exactly by
    centroids.

    Cell problems evaluate the density at their frozen points instead of the
    facet centroids, ``x`` holding one per row, and their competitors live in
    rotated coordinates: ``R`` holds, per row, the rotation that maps its
    facet normal to the true one.  ``widths`` are the grid's cell widths, or
    one row of them per facet.  Each term depends on its own row only, so
    the terms of a table's row blocks, joined, are the table's, and ``fsum``
    of them is the energy.
    """
    varies = facets.varies()
    if psi.facet_integral is None or not varies.any():
        return _centroid_terms(psi, facets, x, R), varies
    terms = np.zeros(len(facets))
    flat = ~varies
    terms[flat] = _centroid_terms(psi, facets.select(flat), None if x is None else x[flat],
                                  None if R is None else R[flat])
    rows = facets.select(varies)
    row_widths = np.broadcast_to(np.asarray(widths, dtype=float), facets.normal.shape)[varies]
    points = rows.centroid if x is None else x[varies]
    rotations = [None] * len(rows) if R is None else R[varies]
    hooked_terms = []
    for axis, point, jump, jump_lin, normal, w, rotation in zip(rows.axis, points, rows.jump, rows.jump_lin,
                                                                rows.normal, row_widths, rotations):
        normal = normal if rotation is None else rotation @ normal
        tangent_axes = [k for k in range(len(w)) if k != axis]
        hooked_terms.append(psi.facet_integral(point, jump, jump_lin, normal, w[tangent_axes], tangent_axes))
    terms[varies] = hooked_terms
    return terms, np.zeros(len(facets), dtype=bool)


def _centroid_terms(psi: InterfacialDensity, facets: FacetTable, x, R) -> np.ndarray:
    """psi at each facet's centroid (or at its row of ``x``) times its area."""
    if not len(facets):
        return np.zeros(0)
    x = facets.centroid if x is None else x
    nu = facets.normal if R is None else np.einsum("fk,fmk->fm", facets.normal, R)
    return np.asarray(psi(x, facets.jump, nu), dtype=float) * facets.area


def total_energy(u, densities: DensityTriple, cell_ranges=None) -> EnergyBreakdown:
    """Initial energy of a field in the discrete second-gradient class.

    Accepts a SecondOrderField or a plain piecewise-affine field (wrapped
    with its derived, jump-free second data).  ``cell_ranges`` restricts the
    evaluation to a sub-box of cell indices, one ``(lo, hi)`` per axis with
    ``0 <= lo <= hi <=`` the axis resolution; facets belong to the range of
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
    if len(cell_ranges) != N or not all(0 <= lo <= hi <= r for (lo, hi), r in
                                        zip(cell_ranges, dom.cells_shape)):
        raise ValueError(f"cell_ranges {cell_ranges} must hold one (lo, hi) per axis with "
                         f"0 <= lo <= hi <= resolution {dom.cells_shape}")

    # the sub-box as slices: views of the cell arrays, copied only where partial
    box = tuple(slice(lo, hi) for lo, hi in cell_ranges)
    centers = dom.cell_centers()[box].reshape(-1, N)
    A = u.grad.const[box].reshape((-1,) + u.grad.value_shape)
    M = u.grad.lin[box].reshape((-1,) + u.grad.value_shape + (N,))
    vals = np.asarray(densities.W(centers, A, M), dtype=float)
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


def _jump_energy(psi: InterfacialDensity, field: PiecewiseAffineField,
                 cell_ranges) -> tuple[float, int]:
    """The interfacial energy of the field's jump facets (those in
    ``cell_ranges``), priced block by block as ``facet_blocks``
    builds them: no more than one block of facets is held at a time, and no
    jump set is joined or cached.  Returns (energy, number of centroid-only
    facets)."""
    terms, inexact = [], 0
    for block in field.facet_blocks():
        block = _in_ranges(block, cell_ranges)
        block_terms, block_inexact = _interfacial_terms(psi, block, field.domain.widths)
        terms.append(block_terms)
        inexact += int(np.count_nonzero(block_inexact))
    return fsum(np.concatenate(terms)), inexact
