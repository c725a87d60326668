"""Exact integration helpers on axis-aligned boxes.

The key primitive is the exact integral of the absolute value of an affine
function over a box in any dimension.  Integrating one axis at a time turns
|s| into a piecewise polynomial of the remaining affine combination, so the
whole integral reduces to bookkeeping on breakpoints and polynomial
coefficients; no quadrature error enters.
"""

from __future__ import annotations

import math

import numpy as np
from numpy.polynomial import polynomial as npoly


class PiecewisePoly:
    """Piecewise polynomial on the real line.

    ``breaks`` is a sorted 1d array; piece ``i`` covers
    ``(breaks[i-1], breaks[i])`` with the outer pieces unbounded.  ``coeffs``
    holds one lowest-degree-first coefficient array per piece
    (``len(coeffs) == len(breaks) + 1``).
    """

    def __init__(self, breaks, coeffs):
        self.breaks = np.asarray(breaks, dtype=float)
        self.coeffs = [np.atleast_1d(np.asarray(c, dtype=float)) for c in coeffs]
        if len(self.coeffs) != len(self.breaks) + 1:
            raise ValueError("need one more piece than breakpoints")

    @classmethod
    def abs(cls) -> "PiecewisePoly":
        return cls([0.0], [np.array([0.0, -1.0]), np.array([0.0, 1.0])])

    def __call__(self, x: float) -> float:
        idx = int(np.searchsorted(self.breaks, x, side="left"))
        return float(npoly.polyval(x, self.coeffs[idx]))

    def antiderivative(self) -> "PiecewisePoly":
        """Global continuous antiderivative (constant fixed piece to piece)."""
        raw = [npoly.polyint(c) for c in self.coeffs]
        out = [raw[0]]
        for i, b in enumerate(self.breaks):
            left = float(npoly.polyval(b, out[i]))
            right = float(npoly.polyval(b, raw[i + 1]))
            shifted = raw[i + 1].copy()
            shifted[0] += left - right
            out.append(shifted)
        return PiecewisePoly(self.breaks, out)

    def shift(self, delta: float) -> "PiecewisePoly":
        """Return ``s -> self(s + delta)``."""
        coeffs = [_poly_compose_shift(c, delta) for c in self.coeffs]
        return PiecewisePoly(self.breaks - delta, coeffs)

    @staticmethod
    def combine(a1: float, f1: "PiecewisePoly", a2: float, f2: "PiecewisePoly") -> "PiecewisePoly":
        breaks = np.union1d(f1.breaks, f2.breaks)
        coeffs = []
        # sample a point inside each merged piece to locate source pieces
        probes = _piece_probes(breaks)
        for p in probes:
            i1 = int(np.searchsorted(f1.breaks, p, side="left"))
            i2 = int(np.searchsorted(f2.breaks, p, side="left"))
            c = npoly.polyadd(a1 * f1.coeffs[i1], a2 * f2.coeffs[i2])
            coeffs.append(c)
        return PiecewisePoly(breaks, coeffs)


def _piece_probes(breaks: np.ndarray) -> list[float]:
    if len(breaks) == 0:
        return [0.0]
    pts = [float(breaks[0]) - 1.0]
    for a, b in zip(breaks[:-1], breaks[1:]):
        pts.append(0.5 * (float(a) + float(b)))
    pts.append(float(breaks[-1]) + 1.0)
    return pts


def _poly_compose_shift(c: np.ndarray, delta: float):
    # p(s + delta) by Horner on the shifted variable
    out = np.zeros(1)
    for coef in c[::-1]:
        out = npoly.polymul(out, np.array([delta, 1.0]))
        out = npoly.polyadd(out, np.array([coef]))
    return out


def box_abs_affine(const: float, grad, widths) -> float:
    """Exact ``integral of |const + grad . t|`` for t in the centered box.

    The box is ``prod_k [-w_k/2, w_k/2]``.  Axes with zero slope only scale
    the measure; each sloped axis is integrated analytically, keeping the
    result piecewise polynomial in the remaining affine combination.
    """
    grad = np.atleast_1d(np.asarray(grad, dtype=float))
    widths = np.atleast_1d(np.asarray(widths, dtype=float))
    if grad.shape != widths.shape:
        raise ValueError("grad and widths must have matching length")
    factor = 1.0
    pp = PiecewisePoly.abs()
    for g, w in zip(grad, widths):
        if g == 0.0 or w * abs(g) < 1e-300:
            factor *= w
            continue
        f = pp.antiderivative()
        hi = f.shift(g * w / 2.0)
        lo = f.shift(-g * w / 2.0)
        pp = PiecewisePoly.combine(1.0 / g, hi, -1.0 / g, lo)
    return factor * pp(float(const))


def box_monomial_moment(lower, upper, alpha) -> float:
    """``integral over the box of prod_k y_k**alpha_k``, exact."""
    lower = np.atleast_1d(np.asarray(lower, dtype=float))
    upper = np.atleast_1d(np.asarray(upper, dtype=float))
    alpha = np.atleast_1d(np.asarray(alpha, dtype=int))
    out = 1.0
    for lo, hi, a in zip(lower, upper, alpha):
        out *= (hi ** (a + 1) - lo ** (a + 1)) / (a + 1)
    return out


def gauss_legendre_points(lower, upper, order: int):
    """Tensor Gauss-Legendre rule on a box: (points (m, N), weights (m,))."""
    lower = np.atleast_1d(np.asarray(lower, dtype=float))
    upper = np.atleast_1d(np.asarray(upper, dtype=float))
    x, w = np.polynomial.legendre.leggauss(order)
    pts_1d, wts_1d = [], []
    for lo, hi in zip(lower, upper):
        mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
        pts_1d.append(mid + half * x)
        wts_1d.append(half * w)
    grids = np.meshgrid(*pts_1d, indexing="ij")
    pts = np.stack([g.ravel() for g in grids], axis=-1)
    wts = np.ones(pts.shape[0])
    wgrids = np.meshgrid(*wts_1d, indexing="ij")
    for g in wgrids:
        wts = wts * g.ravel()
    return pts, wts


def norm(arr, rank: int) -> np.ndarray:
    """Frobenius norm over the trailing ``rank`` axes; the absolute value for rank 0."""
    arr = np.asarray(arr, dtype=float)
    if rank == 0:
        return np.abs(arr)
    axes = tuple(range(arr.ndim - rank, arr.ndim))
    return np.sqrt(np.sum(arr * arr, axis=axes))


def fsum(values) -> float:
    """Exactly rounded sum; shared by all energy accumulations."""
    return math.fsum(np.asarray(values, dtype=float).ravel().tolist())
