"""Exact integration helpers on axis-aligned boxes.

The key primitive is the exact integral of the absolute value of an affine
function over a box in any dimension.  Integrating one axis at a time turns
|s| into a piecewise polynomial of the remaining affine combination, so the
whole integral reduces to bookkeeping on breakpoints and polynomial
coefficients; no quadrature error enters.  The bookkeeping runs on arrays
with a leading row axis, so a whole block of cells (a scalar field's L1
norm, the faces of an inclusion box) is integrated in one pass.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

# cells per batch of the L1 paths, and values per chunk of ``fsum``: bounds their temporaries
_L1_BLOCK_CELLS = 1024


def box_abs_affine(const, grad, widths):
    """Exact ``integral of |const + grad . t|`` for t in the centered box.

    The box is ``prod_k [-w_k/2, w_k/2]``.  A scalar ``const`` with ``grad``
    and ``widths`` of shape ``(k,)`` gives a float; ``const`` of shape
    ``(n,)`` with ``grad`` of shape ``(n, k)`` gives one value per row, and
    ``widths`` is then ``(k,)`` or ``(n, k)``.

    The integral is positively 1-homogeneous in ``(const, grad)``, so each row
    is first scaled by the power of two that brings ``max(|const|,
    |g_k| w_k)`` into ``[1/2, 1)``; the scale is exact, and extreme
    magnitudes neither overflow nor underflow.  Axes with zero slope only
    scale the measure; each sloped axis is integrated analytically, keeping
    the result piecewise polynomial in the remaining affine combination.
    The sloped axes go in increasing order of ``|g_k| w_k``.  A row whose
    box does not straddle the zero set, ``|const| >= sum_k |g_k| w_k / 2``,
    is ``vol |const|``.
    """
    scalar = np.ndim(const) == 0
    const = np.atleast_1d(np.asarray(const, dtype=float))
    grad = np.asarray(grad, dtype=float)
    if scalar:
        grad = np.atleast_1d(grad)[None]
    widths = np.atleast_1d(np.asarray(widths, dtype=float))
    if grad.ndim != 2 or grad.shape[0] != const.shape[0] or widths.shape[-1] != grad.shape[1]:
        raise ValueError("need grad of shape (n, k) for n consts, and widths of shape (k,) or (n, k)")
    widths = np.broadcast_to(widths, grad.shape)
    scale = np.max(np.abs(np.column_stack([const, grad * widths])), axis=1)
    # a row with an infinite or NaN coefficient is that scale; it is not integrated
    finite = np.isfinite(scale)
    exp = np.frexp(scale)[1]
    const = np.where(finite, np.ldexp(const, -exp), 0.0)
    grad = np.where(finite[:, None], np.ldexp(grad, -exp[:, None]), 0.0)
    # a box off the zero set of its row (or touching it) integrates to
    # vol |const|: the affine part averages out.  Such a row is integrated as
    # if flat, so its piecewise polynomial, whose coefficients grow as
    # 1 / prod g_k, is never formed
    off = np.abs(const) >= np.sum(np.abs(grad) * widths, axis=1) / 2.0
    flat = (widths * np.abs(grad) < 1e-300) | off[:, None]
    factor = np.ones_like(const)
    for k in range(grad.shape[1]):
        factor = np.where(flat[:, k], factor * widths[:, k], factor)
    # sloped axes first, by increasing |g_k| w_k (ties in axis order): a small
    # slope integrated after a large one would cancel in (F(s + d) - F(s - d)) / g
    order = np.lexsort((np.abs(grad) * widths, flat), axis=1)
    grad = np.take_along_axis(grad, order, axis=1)
    widths = np.take_along_axis(widths, order, axis=1)
    sloped = grad.shape[1] - flat.sum(axis=1)
    out = np.empty_like(const)
    # the occupied counts, ascending (``np.unique`` would import ``numpy.ma``)
    for m in np.flatnonzero(np.bincount(sloped)):
        rows = np.flatnonzero(sloped == m)
        out[rows] = _abs_affine_rows(const[rows], grad[rows, :m], widths[rows, :m])
    out = np.where(finite, np.ldexp(factor * out, exp), scale)
    return float(out[0]) if scalar else out


def _abs_affine_rows(const, grad, widths) -> np.ndarray:
    """``integral of |const + grad . t|`` for rows whose slopes are all nonzero.

    After ``j`` axes each row holds its partial integral as a piecewise
    polynomial in ``s``: ``2^j`` sorted breaks and ``2^j + 1`` pieces, one
    coefficient array each (lowest degree first, zero-padded).  Breaks that
    coincide leave empty pieces; they carry the polynomial on their left, so
    no rounding passes through them.
    """
    n = const.shape[0]
    breaks = np.zeros((n, 1))
    coeffs = np.zeros((n, 2, 2))
    coeffs[:, 0, 1] = -1.0
    coeffs[:, 1, 1] = 1.0
    ends = np.full((n, 1), np.inf)
    for g, w in zip(grad.T, widths.T):
        # integral over t of p(s + g t) is (F(s + delta) - F(s - delta)) / g
        f = _antiderivative(breaks, coeffs)
        delta = g * w / 2.0
        hi_breaks = breaks - delta[:, None]
        lo_breaks = breaks + delta[:, None]
        breaks = np.sort(np.concatenate([hi_breaks, lo_breaks], axis=1), axis=1)
        probes = np.concatenate([-ends, 0.5 * (breaks[:, :-1] + breaks[:, 1:]), ends], axis=1)
        hi = np.take_along_axis(_shift(f, delta), _piece_of(hi_breaks, probes)[..., None], axis=1)
        lo = np.take_along_axis(_shift(f, -delta), _piece_of(lo_breaks, probes)[..., None], axis=1)
        coeffs = (1.0 / g)[:, None, None] * hi + (-1.0 / g)[:, None, None] * lo
    piece = _piece_of(breaks, const[:, None])[:, 0]
    return _horner(const, coeffs[np.arange(n), piece])


def _piece_of(breaks, points) -> np.ndarray:
    """Index of the piece holding each point: the number of breaks below it."""
    return np.sum(breaks[:, None, :] < points[:, :, None], axis=2)


def _horner(x, c) -> np.ndarray:
    """Rows of ``c`` (lowest degree first) evaluated at ``x``, one point per row.

    The steps are those of ``numpy.polynomial.polynomial.polyval``, so each
    row rounds as a per-row call would.
    """
    acc = c[..., -1] + x * 0
    for k in range(c.shape[-1] - 2, -1, -1):
        acc = c[..., k] + acc * x
    return acc


def _antiderivative(breaks, coeffs) -> np.ndarray:
    """Continuous antiderivative of each row's pieces; piece 0 has no constant term."""
    raw = np.zeros(coeffs.shape[:2] + (coeffs.shape[2] + 1,))
    raw[..., 1:] = coeffs / np.arange(1, coeffs.shape[2] + 1)
    out = raw.copy()
    for i in range(breaks.shape[1]):
        b = breaks[:, i]
        out[:, i + 1, 0] = raw[:, i + 1, 0] + (_horner(b, out[:, i]) - _horner(b, raw[:, i + 1]))
        if i + 1 < breaks.shape[1]:
            empty = b == breaks[:, i + 1]
            out[empty, i + 1] = out[empty, i]
    return out


def _shift(coeffs, delta) -> np.ndarray:
    """Coefficients of ``s -> p(s + delta)`` by Horner on the shifted variable."""
    d = delta[:, None, None]
    out = np.zeros_like(coeffs)
    for k in range(coeffs.shape[2] - 1, -1, -1):
        nxt = out * d
        nxt[..., 1:] += out[..., :-1]
        nxt[..., 0] += coeffs[..., k]
        out = nxt
    return out


def gauss_legendre_rule(lower, upper, order: int):
    """Tensor Gauss-Legendre rule on a box in product form: (nodes, weights).

    ``nodes`` holds the ``order`` nodes of each axis; ``weights`` (m,) holds
    the tensor weight of each of the ``m = order**N`` points, the last axis
    running fastest.
    """
    lower = np.atleast_1d(np.asarray(lower, dtype=float))
    upper = np.atleast_1d(np.asarray(upper, dtype=float))
    x, w = np.polynomial.legendre.leggauss(order)
    nodes, wts_1d = [], []
    for lo, hi in zip(lower, upper):
        mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
        nodes.append(mid + half * x)
        wts_1d.append(half * w)
    wts = np.ones(order ** len(nodes))
    for g in np.meshgrid(*wts_1d, indexing="ij"):
        wts = wts * g.ravel()
    return nodes, wts


def tensor_points(nodes) -> np.ndarray:
    """The points (m, N) of the tensor grid of per-axis ``nodes``, the last axis fastest."""
    return np.stack([g.ravel() for g in np.meshgrid(*nodes, indexing="ij")], axis=-1)


def norm(arr, rank: int) -> np.ndarray:
    """Frobenius norm over the trailing ``rank`` axes; the absolute value for rank 0."""
    arr = np.asarray(arr, dtype=float)
    if rank == 0:
        return np.abs(arr)
    axes = tuple(range(arr.ndim - rank, arr.ndim))
    return np.sqrt((arr * arr).sum(axis=axes))


def fsum(values) -> float:
    """Exactly rounded sum; shared by all energy accumulations.  ``math.fsum``
    reads one chunk of ``_L1_BLOCK_CELLS`` values at a time as floats, so no
    list of them all is built; the sum is exact, so its bits do not move."""
    flat = np.asarray(values, dtype=float).ravel()
    chunks = (flat[start:start + _L1_BLOCK_CELLS].tolist() for start in range(0, flat.size, _L1_BLOCK_CELLS))
    return math.fsum(itertools.chain.from_iterable(chunks))
