"""Explicit field constructions used in the relaxation arguments.

These are the building blocks of the upper-bound side of the theory:
zero-trace fields with prescribed constant gradient, piecewise-constant
approximation, primitives with prescribed gradient, elementary jumps across a
plane, and the composed approximating sequence for a second-order structured
deformation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fields import (
    AffineBoundary,
    BoxDomain,
    PiecewiseAffineField,
    PiecewiseConstantField,
    SecondOrderField,
    StepBoundary,
    common_refinement,
    l1_distance,
    unit_cube,
)


@dataclass
class SD2Triple:
    """A second-order structured deformation on a grid.

    ``g`` is vector-valued and may jump; ``G`` is matrix-valued and may jump;
    ``Gamma`` holds the cellwise third-order values on the grid of ``G``
    (stored with the derivative index last, matching field linear parts).
    Construction puts all three on one grid, the least common refinement of
    the grids of ``g`` and ``G``; ``Gamma`` is repeated along with ``G``.
    Inputs already on one grid are kept as the same objects.
    """

    g: PiecewiseAffineField
    G: PiecewiseAffineField
    Gamma: np.ndarray

    def __post_init__(self):
        if not self.g.domain.compatible(self.G.domain):
            raise ValueError("g and G must live on the same box")
        self.Gamma = np.asarray(self.Gamma, dtype=float)
        d = self.g.value_shape[0] if self.g.value_shape else 1
        N = self.g.domain.ndim
        expected = self.G.domain.cells_shape + (d, N, N)
        if self.Gamma.shape != expected:
            raise ValueError(f"Gamma shape {self.Gamma.shape} != {expected}")
        coarse = self.G.domain.resolution
        self.g, self.G = common_refinement(self.g, self.G)
        for axis, factor in enumerate(self.G.domain.resolution // coarse):
            if factor > 1:
                self.Gamma = np.repeat(self.Gamma, factor, axis=axis)

    @property
    def domain(self) -> BoxDomain:
        return self.g.domain

    @property
    def d(self) -> int:
        return self.g.value_shape[0]

    @property
    def N(self) -> int:
        return self.domain.ndim


def staircase(A, n: int, domain: BoxDomain) -> PiecewiseAffineField:
    """Zero-trace field with cellwise gradient exactly A.

    Superposes, per axis j, a slab-centered sawtooth carrying jump vector
    (A e_j) * width_j / n across n planes (slab interfaces plus the two face
    mismatches, which are accounted as boundary jump facets).  Centering each
    affine piece at its cell gives zero trace at every boundary facet
    centroid, so the jump mass decomposes exactly per axis:

        mass = sum_j |A e_j| * |domain|  <=  sqrt(N) |A| |domain|.
    """
    if n < 1:
        raise ValueError("need at least one slab per axis")
    A = np.atleast_2d(np.asarray(A, dtype=float))
    d, N = A.shape
    if N != domain.ndim:
        raise ValueError("column count of A must match the domain dimension")
    grid = BoxDomain(domain.lower, domain.upper, n * np.ones(N, dtype=int))
    const = np.zeros(grid.cells_shape + (d,))
    lin = np.broadcast_to(A, grid.cells_shape + (d, N)).copy()
    return PiecewiseAffineField(grid, const, lin, boundary_data=AffineBoundary.zero((d,), N))


def staircase_mass_bound(A, domain: BoxDomain) -> float:
    A = np.atleast_2d(np.asarray(A, dtype=float))
    return float(np.sqrt(A.shape[1]) * np.linalg.norm(A) * domain.volume)


def piecewise_constant_approx(u: PiecewiseAffineField, n) -> PiecewiseConstantField:
    """Cell-midpoint sampling of u on the resolution-n grid."""
    n = np.broadcast_to(np.asarray(n, dtype=int), (u.domain.ndim,))
    if np.any(n < 1):
        raise ValueError("resolution must be >= 1")
    grid = BoxDomain(u.domain.lower, u.domain.upper, n)
    centers = grid.cell_centers().reshape(-1, grid.ndim)
    values = u.evaluate(centers).reshape(grid.cells_shape + u.value_shape)
    return PiecewiseConstantField(grid, values, jump_tol=u.jump_tol)


def gradient_primitive(f: PiecewiseAffineField) -> PiecewiseAffineField:
    """Field u with cellwise gradient equal to f, anchored at zero at centers.

    The last value axis of f is consumed as the gradient direction, so
    matrix-valued f yields a vector field and third-order cell data yields a
    matrix field.  Anchoring every affine piece at its cell center keeps
    |u| <= |f_K| * diam/2 cellwise and the centroid-sampled jump mass below
    4 N ||f||_L1 (the constructive constant is N).
    """
    if not f.value_shape or f.value_shape[-1] != f.domain.ndim:
        raise ValueError("gradient direction axis of f must match the domain dimension")
    value_shape = f.value_shape[:-1]
    const = np.zeros(f.domain.cells_shape + value_shape)
    lin = f.const.copy()
    return PiecewiseAffineField(f.domain, const, lin, jump_tol=f.jump_tol)


def gradient_primitive_mass_bound(f: PiecewiseAffineField) -> float:
    from .fields import l1_norm

    return 4.0 * f.domain.ndim * l1_norm(f)


def elementary_jump(payload, ndim: int | None = None, resolution: int = 4,
                    domain: BoxDomain | None = None) -> PiecewiseAffineField:
    """Field equal to ``payload`` above the mid-plane of the cell cube, 0 below.

    The cube is the oriented unit cube in rotated coordinates (the jump normal
    maps to the last axis); callers evaluating densities supply the true
    normal themselves.  The resolution along the last axis must be even so the
    mid-plane is a union of grid facets.
    """
    payload = np.asarray(payload, dtype=float)
    if domain is None:
        if ndim is None:
            raise ValueError("give either a domain or the dimension")
        domain = unit_cube(ndim, resolution)
    N = domain.ndim
    if int(domain.resolution[N - 1]) % 2 != 0:
        raise ValueError("resolution along the jump axis must be even")
    mid = 0.5 * (domain.lower[N - 1] + domain.upper[N - 1])
    centers = domain.cell_centers()
    above = centers[..., N - 1] > mid
    const = np.where(above.reshape(above.shape + (1,) * payload.ndim), payload, np.zeros_like(payload))
    return PiecewiseAffineField(domain, const, boundary_data=StepBoundary(payload, N - 1, mid))


def approximating_sequence(sd2: SD2Triple, n: int) -> tuple[SecondOrderField, dict]:
    """Build the n-th approximation of a structured deformation.

    Composes a gradient primitive for Gamma, a piecewise-constant correction
    toward G, a second gradient primitive, and a final piecewise-constant
    correction toward g (sampled on the n^2-refined grid, which meets the 1/n
    error budget).  The returned pair has cellwise second gradient exactly
    Gamma; the diagnostics dict reports the L1 errors and masses.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    base = sd2.domain
    res1 = np.lcm(base.resolution, n * np.ones(base.ndim, dtype=int))
    res2 = np.lcm(base.resolution, n * n * np.ones(base.ndim, dtype=int))

    gamma_field = PiecewiseConstantField(base, sd2.Gamma).refine(res1 // base.resolution)
    h = gradient_primitive(gamma_field)                      # matrix field, grad h = Gamma
    G1 = sd2.G.refine(res1 // base.resolution)
    diff = PiecewiseAffineField(G1.domain, G1.const - h.const, G1.lin - h.lin)
    v_n = piecewise_constant_approx(diff, res1)
    w_n = PiecewiseAffineField(G1.domain, v_n.const + h.const, h.lin, jump_tol=G1.jump_tol)

    w_n2 = w_n.refine(res2 // res1)
    h_tilde = gradient_primitive(w_n2)                       # vector field, grad = w_n2
    g2 = sd2.g.refine(res2 // base.resolution)
    resid = PiecewiseAffineField(g2.domain, g2.const - h_tilde.const, g2.lin - h_tilde.lin)
    h_bar = piecewise_constant_approx(resid, res2)
    u_n = PiecewiseAffineField(g2.domain, h_tilde.const + h_bar.const, h_tilde.lin, jump_tol=g2.jump_tol)

    pair = SecondOrderField(u_n, w_n2, check=True, tol=1e-9)
    diagnostics = {
        "n": int(n),
        "grid_stage1": [int(r) for r in res1],
        "grid_stage2": [int(r) for r in res2],
        "l1_u": l1_distance(u_n, g2),
        "l1_grad": l1_distance(w_n2, sd2.G.refine(res2 // base.resolution)),
        "second_gradient_exact": _blocks_equal(w_n2.lin, sd2.Gamma, res2 // base.resolution),
    }
    return pair, diagnostics


def _blocks_equal(fine: np.ndarray, coarse: np.ndarray, factor) -> bool:
    """Whether every block of ``factor`` fine cells holds its coarse cell's value."""
    N = len(factor)
    cells = coarse.shape[:N]
    fine_blocks = fine.reshape(tuple(x for r, f in zip(cells, factor) for x in (r, int(f))) + fine.shape[N:])
    coarse_blocks = coarse.reshape(tuple(x for r in cells for x in (r, 1)) + coarse.shape[N:])
    return bool(np.all(fine_blocks == coarse_blocks))
