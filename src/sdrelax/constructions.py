"""Explicit field constructions used in the relaxation arguments.

These are the building blocks of the upper-bound side of the theory:
primitives with prescribed gradient, corrected toward a target at the cell
centres, and the composed approximating sequence for a second-order
structured deformation.  The cell formulas build their competitors as facet
rows (``cellformulas``), not here.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np

from .fields import BoxDomain, PiecewiseAffineField, SecondOrderField, common_refinement, l1_distance


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


def approximating_sequence(sd2: SD2Triple, n: int) -> tuple[SecondOrderField, dict]:
    """Build the n-th approximation of a structured deformation.

    Composes a gradient primitive for Gamma, a piecewise-constant correction
    toward G, a second gradient primitive, and a final piecewise-constant
    correction toward g (sampled on the n^2-refined grid, which meets the 1/n
    error budget).  The returned pair has cellwise second gradient exactly
    Gamma; the diagnostics dict reports the L1 errors and masses.

    At most two fields on the n^2-refined grid live at once, plus one block
    of the L1 distance: ``w_n2``'s distance to ``G`` is taken before ``g``
    is refined, and ``u_n``'s linear part is ``w_n2``'s constant part itself.
    An ``n`` whose grid numpy cannot index raises ``ValueError`` first.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    base = sd2.domain
    n = operator.index(n)
    res1 = np.array([math.lcm(int(r), n) for r in base.resolution])
    res2 = [math.lcm(int(r), n * n) for r in base.resolution]
    # G's refinement, its const and lin entries per cell, is the largest field there
    if math.prod(res2) * math.prod(sd2.G.value_shape) * (1 + base.ndim) > np.iinfo(np.intp).max:
        raise ValueError(f"sequence n = {n} needs a {'x'.join(map(str, res2))} grid, too large for numpy to index")
    res2 = np.array(res2)

    gamma_field = PiecewiseAffineField(base, sd2.Gamma).refine(res1 // base.resolution)
    w_n2 = _corrected_primitive(gamma_field, sd2.G.refine(res1 // base.resolution)).refine(res2 // res1)
    l1_grad = l1_distance(w_n2, sd2.G.refine(res2 // base.resolution))
    g2 = sd2.g.refine(res2 // base.resolution)
    u_n = _corrected_primitive(w_n2, g2)
    l1_u = l1_distance(u_n, g2)
    del g2
    diagnostics = {
        "n": int(n),
        "grid_stage1": [int(r) for r in res1],
        "grid_stage2": [int(r) for r in res2],
        "l1_u": l1_u,
        "l1_grad": l1_grad,
        "second_gradient_exact": _blocks_equal(w_n2.lin, sd2.Gamma, res2 // base.resolution),
    }
    return SecondOrderField(u_n, w_n2), diagnostics


def _corrected_primitive(f: PiecewiseAffineField, target: PiecewiseAffineField) -> PiecewiseAffineField:
    """The gradient primitive of ``f`` plus the cell-midpoint samples of
    ``target`` minus that primitive, on the common grid of both: cellwise
    gradient exactly ``f``, values at cell centres those of ``target``.

    The primitive is anchored at the cell centres, where it is 0, so the
    samples are ``target.const`` itself; ``+ 0.0`` turns a ``-0.0`` into
    ``0.0``, as adding the primitive's zero constant did.  The linear part
    is ``f.const`` itself.
    """
    return PiecewiseAffineField(target.domain, target.const + 0.0, f.const, jump_tol=target.jump_tol)


def _blocks_equal(fine: np.ndarray, coarse: np.ndarray, factor) -> bool:
    """Whether every block of ``factor`` fine cells holds its coarse cell's value."""
    N = len(factor)
    cells = coarse.shape[:N]
    fine_blocks = fine.reshape(tuple(x for r, f in zip(cells, factor) for x in (r, int(f))) + fine.shape[N:])
    coarse_blocks = coarse.reshape(tuple(x for r in cells for x in (r, 1)) + coarse.shape[N:])
    return bool(np.all(fine_blocks == coarse_blocks))
