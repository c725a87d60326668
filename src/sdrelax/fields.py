"""Piecewise-affine fields on box grids.

Fields store one affine piece per grid cell (constant part anchored at the
cell center plus a linear part); a cellwise-constant field is a
:class:`PiecewiseAffineField` with zero linear part.  Jump sets live on grid
facets only; a field may carry prescribed boundary data, in which case trace
mismatches on the outer faces are accounted as boundary jump facets with the
outward normal.  That accounting is what lets zero-trace constructions keep an
exact cellwise gradient while their jump mass stays fully visible to the
energy.

Facets have one record, the column table :class:`FacetTable`, which keeps
both one-sided traces of every facet.  The jump set is such a table; so is
the cached table of all outer faces, which the boundary jump facets (its rows
that jump) and the Gauss-Green closure read.

The data-free columns of those tables (facet axes, cell indices, normals,
areas, centroids) are the grid's geometry, built per table, so no grid holds
it.  The traces of interior facets come from cell arrays alone
(:func:`interior_jumps`), whose arithmetic the inclusion boxes of the cell
formulas repeat on the gathered cells of their faces.  A field also
yields its jump set as blocks of bounded size (``facet_blocks``), which the
energy prices one at a time without holding the whole table.

All operations are pure; fields are treated as immutable after construction.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .integrate import box_abs_affine, fsum, gauss_legendre_rule, norm, tensor_points

DEFAULT_JUMP_TOL = 1e-12
GRADIENT_MATCH_TOL = 1e-9
# numpy sums up to this many terms one after the other, and more pairwise
_SEQUENTIAL_SUM_MAX = 7
# interior facets per block of a jump set built block by block: bounds its temporaries
_FACET_BLOCK = 16384


@dataclass(frozen=True, eq=False)
class BoxDomain:
    """Axis-aligned box with a regular cell grid.

    Domains compare and hash by identity; grids are compared with
    :meth:`compatible`.
    """

    lower: np.ndarray
    upper: np.ndarray
    resolution: np.ndarray

    def __init__(self, lower, upper, resolution):
        lower = np.atleast_1d(np.asarray(lower, dtype=float))
        upper = np.atleast_1d(np.asarray(upper, dtype=float))
        resolution = np.atleast_1d(np.asarray(resolution, dtype=int))
        if lower.shape != upper.shape or lower.shape != resolution.shape:
            raise ValueError("lower, upper, resolution must share length")
        if not (np.all(np.isfinite(lower)) and np.all(np.isfinite(upper))):
            raise ValueError("lower and upper must be finite")
        if not np.all(upper > lower):
            raise ValueError("upper must exceed lower componentwise")
        if not np.all(resolution >= 1):
            raise ValueError("resolution must be >= 1 per axis")
        object.__setattr__(self, "lower", lower)
        object.__setattr__(self, "upper", upper)
        object.__setattr__(self, "resolution", resolution)
        # read on every facet table and competitor: computed once
        widths = (upper - lower) / resolution
        widths.flags.writeable = False
        object.__setattr__(self, "_widths", widths)
        object.__setattr__(self, "_cell_volume", float(np.prod(widths)))

    @property
    def ndim(self) -> int:
        return len(self.lower)

    @property
    def widths(self) -> np.ndarray:
        """Cell widths per axis; read-only."""
        return self._widths

    @property
    def cell_volume(self) -> float:
        return self._cell_volume

    @property
    def cells_shape(self) -> tuple:
        return tuple(int(r) for r in self.resolution)

    @property
    def num_cells(self) -> int:
        return int(np.prod(self.resolution))

    def axis_centers(self, axis: int) -> np.ndarray:
        n = int(self.resolution[axis])
        w = self.widths[axis]
        return self.lower[axis] + (np.arange(n) + 0.5) * w

    def cell_centers(self) -> np.ndarray:
        """Array of shape cells_shape + (N,)."""
        return np.stack(np.meshgrid(*[self.axis_centers(k) for k in range(self.ndim)],
                                    indexing="ij"), axis=-1)

    def interior_blocks(self) -> tuple:
        """The interior facets in blocks of at most ``_FACET_BLOCK`` rows.

        One ``(m, rows, lower-cell slice, upper-cell slice)`` per block: for
        each axis ``m`` with two cells or more, boxes of lower cells that are
        runs of rows in C order, split along the first cell axis, or along a
        later one where a layer of the axes after it exceeds the bound.
        ``rows`` are the block's rows among all interior facets, which run
        by axis, then by lower cell in C order: the blocks, joined in order,
        give every interior facet in that order.
        """
        return tuple(_interior_blocks(self))

    def block_geometry(self, m: int, lo: tuple) -> dict:
        """The ``axis``, ``index``, ``boundary``, ``normal``, ``area`` and
        ``centroid`` columns of the interior facets normal to axis ``m``
        whose lower cells are ``cells[lo]``, in C order of those cells."""
        N = self.ndim
        index = np.stack(np.meshgrid(*[np.arange(self.cells_shape[k])[lo[k]] for k in range(N)],
                                     indexing="ij"), axis=-1).reshape(-1, N)
        cent = np.stack(np.meshgrid(*[self.axis_centers(k)[lo[k]] for k in range(N)],
                                    indexing="ij"), axis=-1).reshape(-1, N)
        cent[:, m] += 0.5 * self.widths[m]
        return _faces(m, index, 1.0, self.cell_volume / self.widths[m], cent, False)

    def outer_geometry(self):
        """The data-free part of the outer faces: ``(cell, row, half, columns)``.

        Rows by axis, lower side before upper, then by face: ``cell`` is the
        flat index of each face's cell, ``row`` the row number, ``half`` the
        signed half width from the cell centre to the face along its normal,
        and ``columns`` the ``axis``, ``index``, ``boundary``, ``normal``,
        ``area`` and ``centroid`` columns.
        """
        N = self.ndim
        centers = self.cell_centers()
        index = np.indices(self.cells_shape).transpose(*range(1, N + 1), 0)
        parts = []
        for m in range(N):
            area = self.cell_volume / self.widths[m]
            for side, normal_sign in ((0, -1.0), (-1, 1.0)):
                sl = tuple(side if k == m else slice(None) for k in range(N))
                cent = centers[sl].reshape((-1, N)).copy()
                cent[:, m] = self.lower[m] if side == 0 else self.upper[m]
                parts.append(_faces(m, index[sl].reshape(-1, N), normal_sign, area, cent, True))
        columns = _stack(parts)
        axis = columns["axis"]
        row = np.arange(len(axis))
        half = columns["normal"][row, axis] * 0.5 * self.widths[axis]
        return np.ravel_multi_index(tuple(columns["index"].T), self.cells_shape), row, half, columns

    def refine(self, factor) -> "BoxDomain":
        factor = np.broadcast_to(np.asarray(factor, dtype=int), (self.ndim,))
        return BoxDomain(self.lower, self.upper, self.resolution * factor)

    def compatible(self, other: "BoxDomain") -> bool:
        """Whether both grids cover the same box, bit for bit; resolutions may differ."""
        return np.array_equal(self.lower, other.lower) and np.array_equal(self.upper, other.upper)

    def to_dict(self) -> dict:
        return {
            "lower": [float(v) for v in self.lower],
            "upper": [float(v) for v in self.upper],
            "resolution": [int(v) for v in self.resolution],
        }

    @classmethod
    def from_dict(cls, d: dict) -> "BoxDomain":
        return cls(d["lower"], d["upper"], d["resolution"])


def unit_cube(ndim: int, resolution: int = 4) -> BoxDomain:
    """Unit cube centered at the origin (the cell-problem domain).

    One domain per argument pair, shared by every competitor of the cell
    formulas, so its ``lower``, ``upper`` and ``resolution`` are read-only.
    """
    return _unit_cube(int(ndim), int(resolution))


@functools.cache
def _unit_cube(ndim: int, resolution: int) -> BoxDomain:
    half = 0.5 * np.ones(ndim)
    dom = BoxDomain(-half, half, resolution * np.ones(ndim, dtype=int))
    for arr in (dom.lower, dom.upper, dom.resolution):
        arr.flags.writeable = False
    return dom


def _interior_blocks(dom: BoxDomain):
    N = dom.ndim
    start = 0
    for m in range(N):
        lower = list(dom.cells_shape)
        lower[m] -= 1
        if lower[m] < 1:
            continue
        # split along the first axis j whose trailing layers fit a block,
        # one block per run of such layers and per index of the axes before j
        j = next(j for j in range(N) if np.prod(lower[j + 1:], dtype=int) <= _FACET_BLOCK)
        layer = int(np.prod(lower[j + 1:], dtype=int))
        step = _FACET_BLOCK // layer
        shift = [int(k == m) for k in range(N)]  # the upper cells' offset
        for lead in np.ndindex(*lower[:j]):
            for a in range(0, lower[j], step):
                ranges = ([(i, i + 1) for i in lead] + [(a, min(a + step, lower[j]))]
                          + [(0, n) for n in lower[j + 1:]])
                first = start + int(np.ravel_multi_index(lead + (a,), lower[:j + 1])) * layer
                yield (m, slice(first, first + (ranges[j][1] - a) * layer),
                       tuple(slice(s, e) for s, e in ranges),
                       tuple(slice(s + d, e + d) for (s, e), d in zip(ranges, shift)))
        start += int(np.prod(lower, dtype=int))


def _faces(m: int, index, normal_sign: float, area: float, centroid, boundary: bool) -> dict:
    """The geometry columns of facets normal to axis ``m``."""
    count, N = index.shape
    normal = np.zeros((count, N))
    normal[:, m] = normal_sign
    return {"axis": np.full(count, m), "index": index, "boundary": np.full(count, boundary),
            "normal": normal, "area": np.full(count, area), "centroid": centroid}


def _stack(parts: list) -> dict:
    return {name: np.concatenate([p[name] for p in parts]) for name in parts[0]}


# ---------------------------------------------------------------------------
# prescribed boundary data
# ---------------------------------------------------------------------------


class BoundaryData:
    """Interface: prescribed value and tangential linear part at points."""

    def value_and_lin(self, points: np.ndarray):  # pragma: no cover - interface
        raise NotImplementedError

    def to_dict(self) -> dict:  # pragma: no cover - interface
        raise NotImplementedError

    @staticmethod
    def from_dict(d):
        if d is None:
            return None
        kind = d["kind"]
        if kind == "affine":
            return AffineBoundary(np.asarray(d["const"], dtype=float), np.asarray(d["lin"], dtype=float))
        if kind == "step":
            return StepBoundary(np.asarray(d["payload"], dtype=float), d["axis"], d["threshold"])
        raise ValueError(f"unknown boundary kind {kind!r}")


class AffineBoundary(BoundaryData):
    """Prescribed affine trace ``y -> const + lin . y``."""

    def __init__(self, const, lin):
        self.const = np.asarray(const, dtype=float)
        self.lin = np.asarray(lin, dtype=float)
        if self.lin.shape[: self.const.ndim] != self.const.shape:
            raise ValueError("lin must extend const shape by one axis")

    @classmethod
    def zero(cls, value_shape: tuple, ndim: int) -> "AffineBoundary":
        return cls(np.zeros(value_shape), np.zeros(value_shape + (ndim,)))

    @classmethod
    def linear(cls, lin) -> "AffineBoundary":
        lin = np.asarray(lin, dtype=float)
        return cls(np.zeros(lin.shape[:-1]), lin)

    def value_and_lin(self, points: np.ndarray):
        vals = self.const + np.einsum("...k,mk->m...", self.lin, points)
        lins = np.broadcast_to(self.lin, (points.shape[0],) + self.lin.shape)
        return vals, lins

    def to_dict(self) -> dict:
        return {"kind": "affine", "const": self.const.tolist(), "lin": self.lin.tolist()}


class StepBoundary(BoundaryData):
    """Prescribed trace equal to ``payload`` where y[axis] > threshold, else 0."""

    def __init__(self, payload, axis: int, threshold: float = 0.0):
        self.payload = np.asarray(payload, dtype=float)
        self.axis = int(axis)
        self.threshold = float(threshold)

    def value_and_lin(self, points: np.ndarray):
        above = points[:, self.axis] > self.threshold
        vals = np.where(
            above.reshape((-1,) + (1,) * self.payload.ndim),
            self.payload,
            np.zeros_like(self.payload),
        )
        lins = np.zeros((points.shape[0],) + self.payload.shape + (points.shape[1],))
        return vals, lins

    def to_dict(self) -> dict:
        return {"kind": "step", "payload": self.payload.tolist(), "axis": self.axis, "threshold": self.threshold}


# ---------------------------------------------------------------------------
# facets
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class FacetTable:
    """Grid facets as one array per attribute: the jump set, or the outer faces.

    Row ``i`` of every column describes facet ``i``: ``axis``, ``boundary``
    and ``area`` have shape ``(F,)``; ``index`` (the adjacent cell on the
    lower side, or the boundary cell), ``normal`` and ``centroid`` have shape
    ``(F, N)``; ``plus`` and ``minus`` have shape ``(F,) + value_shape`` and
    ``jump_lin`` has shape ``(F,) + value_shape + (N,)``.

    ``plus`` is the trace at the centroid on the side the normal points to,
    ``minus`` the trace on the other side.  Interior facets are canonicalized
    with normal ``+e_axis``; boundary facets use the outward normal, with the
    prescribed value (or the interior trace when the field carries no data)
    as ``plus`` and the interior trace as ``minus``, so a prescribed-trace
    mismatch reads ``prescribed - interior``.  ``jump_lin`` is the tangential
    affine variation of ``plus - minus`` over the facet (zero along ``axis``).
    """

    axis: np.ndarray
    index: np.ndarray
    boundary: np.ndarray
    normal: np.ndarray
    area: np.ndarray
    plus: np.ndarray
    minus: np.ndarray
    jump_lin: np.ndarray
    centroid: np.ndarray

    @classmethod
    def empty(cls, ndim: int, value_shape: tuple) -> "FacetTable":
        return cls(
            axis=np.zeros(0, dtype=int),
            index=np.zeros((0, ndim), dtype=int),
            boundary=np.zeros(0, dtype=bool),
            normal=np.zeros((0, ndim)),
            area=np.zeros(0),
            plus=np.zeros((0,) + value_shape),
            minus=np.zeros((0,) + value_shape),
            jump_lin=np.zeros((0,) + value_shape + (ndim,)),
            centroid=np.zeros((0, ndim)),
        )

    @classmethod
    def concat(cls, parts: list, ndim: int, value_shape: tuple) -> "FacetTable":
        """Stack tables row-wise; the empty table of that shape for no rows."""
        parts = [p for p in parts if len(p)]
        if not parts:
            return cls.empty(ndim, value_shape)
        if len(parts) == 1:
            return parts[0]
        return cls(**{name: np.concatenate([getattr(p, name) for p in parts])
                      for name in cls.__dataclass_fields__})

    def select(self, rows) -> "FacetTable":
        """Sub-table of the rows picked by a boolean mask or an index array;
        the table itself for a mask that keeps every row."""
        if rows.dtype == bool and rows.all():
            return self
        return FacetTable(**{name: getattr(self, name)[rows] for name in self.__dataclass_fields__})

    def __len__(self) -> int:
        return len(self.area)

    @property
    def jump(self) -> np.ndarray:
        """The trace difference ``plus - minus`` of each facet."""
        return self.plus - self.minus

    @property
    def trace_mean(self) -> np.ndarray:
        """The mean of the two one-sided traces of each facet."""
        return 0.5 * (self.plus + self.minus)

    def magnitudes(self) -> np.ndarray:
        """Frobenius norm of each facet's jump."""
        jump = self.jump
        return norm(jump, jump.ndim - 1)

    def varies(self) -> np.ndarray:
        """Per facet: does the jump carry affine variation (any nonzero jump_lin)?"""
        return (_rows(self.jump_lin) != 0.0).any(axis=1)


def _rows(arr: np.ndarray) -> np.ndarray:
    """View a column as (rows, entries), also when it has no rows."""
    return arr.reshape(arr.shape[0], math.prod(arr.shape[1:]))


def interior_jumps(const, lin, m: int, lo: tuple, hi: tuple, h: float, jump_tol: float):
    """Over the facets normal to axis ``m`` between the cells ``lo`` and
    ``hi`` of the cell arrays ``const`` and ``lin`` (width ``h`` along ``m``):
    which of them jump by more than ``jump_tol``, and the ``plus``, ``minus``
    and ``jump_lin`` rows of those that do, in C order of their cells."""
    N = lin.shape[-1]
    value_ndim = const.ndim - N
    flat = (-1,) + const.shape[N:]
    trace_lo = (const[lo] + 0.5 * h * lin[lo + (Ellipsis, m)]).reshape(flat)
    trace_hi = (const[hi] - 0.5 * h * lin[hi + (Ellipsis, m)]).reshape(flat)
    jlin = (lin[hi] - lin[lo]).reshape(flat + (N,))
    jlin[..., m] = 0.0
    mag = norm(trace_hi - trace_lo, value_ndim) + norm(jlin, value_ndim + 1)
    keep = ~(mag <= jump_tol)  # a NaN magnitude counts as a jump here
    return keep, trace_hi[keep], trace_lo[keep], jlin[keep]


class PiecewiseAffineField:
    """Cellwise-affine field: value(y) = const[c] + lin[c] . (y - center[c])."""

    def __init__(self, domain: BoxDomain, const, lin=None, boundary_data=None, jump_tol: float = DEFAULT_JUMP_TOL):
        self.domain = domain
        const = np.asarray(const, dtype=float)
        cells = domain.cells_shape
        if const.shape[: domain.ndim] != cells:
            raise ValueError("const leading shape must equal the cell grid")
        self.value_shape = const.shape[domain.ndim:]
        self.const = const
        if lin is None:
            lin = np.zeros(cells + self.value_shape + (domain.ndim,))
        else:
            lin = np.asarray(lin, dtype=float)
            if lin.shape != cells + self.value_shape + (domain.ndim,):
                raise ValueError("lin shape must be cells + value_shape + (N,)")
        self.lin = lin
        self.boundary_data = boundary_data
        self.jump_tol = float(jump_tol)
        self._jump_cache = None
        self._trace_cache = None

    # -- basic queries ------------------------------------------------------

    @property
    def value_ndim(self) -> int:
        return len(self.value_shape)

    # -- jump set -----------------------------------------------------------

    def jump_set(self) -> FacetTable:
        """The facets whose jump exceeds ``jump_tol``: interior ones first
        (by axis, then cell), then boundary ones (by axis, lower side before
        upper).  The join of ``facet_blocks``, built once and cached."""
        if self._jump_cache is None:
            self._jump_cache = FacetTable.concat(
                [self._build_interior_facets(), self._build_boundary_facets()],
                self.domain.ndim, self.value_shape)
        return self._jump_cache

    def facet_blocks(self):
        """The rows of ``jump_set`` in blocks, built one at a time and not
        kept: the interior ones per block of ``domain.interior_blocks``,
        then the boundary ones."""
        yield from self._interior_blocks()
        yield self._build_boundary_facets()

    def _build_interior_facets(self) -> FacetTable:
        """The interior blocks of ``facet_blocks``, joined."""
        return FacetTable.concat(list(self._interior_blocks()), self.domain.ndim, self.value_shape)

    def _interior_blocks(self):
        dom = self.domain
        widths = dom.widths
        for m, _, lo, hi in dom.interior_blocks():
            keep, plus, minus, jump_lin = interior_jumps(self.const, self.lin, m, lo, hi, widths[m],
                                                         self.jump_tol)
            geometry = dom.block_geometry(m, lo)
            if not keep.all():
                geometry = {name: column[keep] for name, column in geometry.items()}
            yield FacetTable(plus=plus, minus=minus, jump_lin=jump_lin, **geometry)

    def _build_boundary_facets(self) -> FacetTable:
        if self.boundary_data is None:
            return FacetTable.empty(self.domain.ndim, self.value_shape)
        faces = self.boundary_trace()
        mag = norm(faces.jump, self.value_ndim) + norm(faces.jump_lin, self.value_ndim + 1)
        return faces.select(~(mag <= self.jump_tol))  # a NaN magnitude counts as a jump here

    def boundary_trace(self) -> FacetTable:
        """Every outer face, jump or not, as boundary facets: rows by axis,
        lower side before upper, then by face.  ``plus`` is the prescribed
        value when the field carries boundary data and the interior trace
        otherwise; ``minus`` is the interior trace.  Built once and cached."""
        if self._trace_cache is None:
            cell, row, half, columns = self.domain.outer_geometry()
            lin = self.lin.reshape((-1,) + self.value_shape + (self.domain.ndim,))[cell]
            offset = half.reshape((-1,) + (1,) * self.value_ndim) * lin[row, ..., columns["axis"]]
            interior = self.const.reshape((-1,) + self.value_shape)[cell] + offset
            if self.boundary_data is None:
                effective, plin = interior, lin
            else:
                effective, plin = self.boundary_data.value_and_lin(columns["centroid"])
            jump_lin = plin - lin
            jump_lin[row, ..., columns["axis"]] = 0.0
            self._trace_cache = FacetTable(plus=effective, minus=interior, jump_lin=jump_lin, **columns)
        return self._trace_cache

    # -- grid surgery ---------------------------------------------------------

    def refine(self, factor) -> "PiecewiseAffineField":
        """Exact restriction of each affine piece to a finer grid."""
        dom = self.domain
        N = dom.ndim
        factor = np.broadcast_to(np.asarray(factor, dtype=int), (N,))
        new_dom = dom.refine(factor)
        const = self.const
        lin = self.lin
        for ax in range(N):
            const = np.repeat(const, factor[ax], axis=ax)
            lin = np.repeat(lin, factor[ax], axis=ax)
        new_centers = new_dom.cell_centers()
        old_idx = (np.indices(new_dom.cells_shape).transpose(*range(1, N + 1), 0)) // factor
        old_centers = dom.lower + (old_idx + 0.5) * dom.widths
        shift = new_centers - old_centers
        shift_b = shift.reshape(new_dom.cells_shape + (1,) * self.value_ndim + (N,))
        if N > _SEQUENTIAL_SUM_MAX:
            offset = np.sum(lin * shift_b, axis=-1)
        else:
            # numpy's sum of these few products, in its order
            offset = lin[..., 0] * shift_b[..., 0]
            for k in range(1, N):
                offset = offset + lin[..., k] * shift_b[..., k]
        const = const + offset
        return PiecewiseAffineField(new_dom, const, lin, boundary_data=self.boundary_data, jump_tol=self.jump_tol)

    # -- serialization --------------------------------------------------------

    def to_dict(self) -> dict:
        return {
            "type": "piecewise_affine",
            "domain": self.domain.to_dict(),
            "value_shape": list(self.value_shape),
            "const": self.const.tolist(),
            "lin": self.lin.tolist(),
            "boundary": None if self.boundary_data is None else self.boundary_data.to_dict(),
            "jump_tol": self.jump_tol,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "PiecewiseAffineField":
        dom = BoxDomain.from_dict(d["domain"])
        return cls(
            dom,
            np.asarray(d["const"], dtype=float),
            np.asarray(d["lin"], dtype=float),
            boundary_data=BoundaryData.from_dict(d.get("boundary")),
            jump_tol=d.get("jump_tol", DEFAULT_JUMP_TOL),
        )


# ---------------------------------------------------------------------------
# module-level operations
# ---------------------------------------------------------------------------


def common_refinement(f: PiecewiseAffineField, g: PiecewiseAffineField):
    """Both fields on the least common grid of their box; a field already on
    it is returned as the same object.  Value shapes may differ."""
    if not f.domain.compatible(g.domain):
        raise ValueError("fields live on different boxes")
    res_f, res_g = f.domain.resolution, g.domain.resolution
    lcm = np.lcm(res_f, res_g)
    ff = f if np.all(lcm == res_f) else f.refine(lcm // res_f)
    gg = g if np.all(lcm == res_g) else g.refine(lcm // res_g)
    return ff, gg


# Gauss-Legendre points per axis for tensor values with affine variation
_L1_QUAD_ORDER = 6


def l1_distance(f: PiecewiseAffineField, g: PiecewiseAffineField) -> float:
    """Cellwise integral of |f - g|.

    Exact for scalar values and for cellwise-constant differences.  Tensor
    values with affine variation use the tensor-product Gauss-Legendre rule
    of order ``_L1_QUAD_ORDER`` per axis (the integrand is then a square root
    of a quadratic): each block of cells is evaluated per axis, normed, and
    weighted by one vectorised dot, each cell's points rounding as a per-cell
    dot would.  The difference ``f - g`` is formed one block of cells at a
    time, never on the whole grid.
    """
    if f.value_shape != g.value_shape:
        raise ValueError(f"value shape mismatch: {f.value_shape} vs {g.value_shape}")
    ff, gg = common_refinement(f, g)
    return _l1_of_cell_data(ff.domain, (ff.const, gg.const), (ff.lin, gg.lin), ff.value_shape,
                            _L1_QUAD_ORDER)


# cells per batch of the L1 paths: bounds their temporaries
_L1_BLOCK_CELLS = 1024


def _l1_of_cell_data(dom: BoxDomain, const, lin, value_shape, quad_order) -> float:
    """The L1 norm of the cell data ``const`` and ``lin``, block by block.

    Either may also be a pair ``(a, b)`` of cell arrays standing for
    ``a - b``, which is then formed one block of cells at a time.
    """
    widths = dom.widths
    vol = dom.cell_volume
    entries = int(np.prod(value_shape, dtype=int))
    blocks = [slice(start, start + _L1_BLOCK_CELLS)
              for start in range(0, dom.num_cells, _L1_BLOCK_CELLS)]
    const_rows = _cell_rows(const, tuple(value_shape))
    lin_rows = _cell_rows(lin, tuple(value_shape) + (dom.ndim,))
    if all(np.all(lin_rows(block) == 0.0) for block in blocks):
        return fsum(np.concatenate([norm(const_rows(block), len(value_shape)) * vol
                                    for block in blocks]))
    if entries > 1:
        nodes, wts = gauss_legendre_rule(-widths / 2.0, widths / 2.0, quad_order)
    terms = []
    for block in blocks:
        # one column per value entry
        flat_c = const_rows(block).reshape(-1, entries)
        flat_l = lin_rows(block).reshape(-1, entries, dom.ndim)
        if entries <= 1:
            terms.append(box_abs_affine(flat_c[:, 0], flat_l[:, 0], widths))
        else:
            # one BLAS dot per cell, as a per-cell ``wts.dot`` rounds
            terms.append(np.vecdot(_norms_at_points(flat_c, flat_l, nodes), wts))
    return fsum(np.concatenate(terms))


def _cell_rows(data, shape: tuple):
    """The rows ``block`` of cell data viewed as ``(cells,) + shape``; for a
    pair ``(a, b)``, of ``a - b``."""
    if isinstance(data, tuple):
        a, b = (np.reshape(x, (-1,) + shape) for x in data)
        return lambda block: a[block] - b[block]
    data = np.reshape(data, (-1,) + shape)
    return lambda block: data[block]


def _norms_at_points(const, lin, nodes) -> np.ndarray:
    """Frobenius norm of ``const + lin . p`` per cell and tensor point: (cells, points).

    ``const`` is (cells, entries) and ``lin`` (cells, entries, N); each entry
    is evaluated on its own.  Up to ``_SEQUENTIAL_SUM_MAX`` entries the
    squares are added in entry order, which is numpy's order for so few;
    more are stacked and summed by ``norm``, pairwise as numpy sums them.
    """
    vals = (_affine_at_points(const[:, e], lin[:, e], nodes) for e in range(const.shape[1]))
    if const.shape[1] > _SEQUENTIAL_SUM_MAX:
        return norm(np.stack(tuple(vals), axis=-1), 1)
    sq = next(vals)
    sq *= sq
    for v in vals:
        sq += v * v
    return np.sqrt(sq)


def _affine_at_points(const, lin, nodes) -> np.ndarray:
    """``const + lin . p`` per cell and tensor point: (cells, points).

    ``const`` is (cells,) and ``lin`` (cells, N); ``p`` runs over the tensor
    grid of the per-axis ``nodes``, the last axis fastest.  Up to 3D the
    products are formed per axis, ``lin_k x_i`` (``order`` products per axis
    instead of one per point), summed by broadcasting and added to
    ``const``.  In 3D the sum is ``(p_0 + p_2) + p_1``: the order numpy's
    einsum takes on an AVX-512 host, written out so that no host's SIMD
    width decides the last bits.  Above 3D the einsum stays.
    """
    N = len(nodes)
    if N > 3:
        return const[:, None] + np.einsum("ck,mk->cm", lin, tensor_points(nodes))
    prods = [lin[:, k, None] * x for k, x in enumerate(nodes)]
    if N == 1:
        total = prods[0]
    elif N == 2:
        total = prods[0][:, :, None] + prods[1][:, None, :]
    else:
        total = (prods[0][:, :, None, None] + prods[2][:, None, None, :]) + prods[1][:, None, :, None]
    total += const.reshape((-1,) + (1,) * N)
    return total.reshape(len(const), -1)


def trace_boundary(field: PiecewiseAffineField) -> FacetTable:
    """The field's cached table of its outer faces."""
    return field.boundary_trace()


def gauss_green_residual(field: PiecewiseAffineField) -> np.ndarray:
    """Discrete closure  int(grad u) + sum jump x normal * area - boundary flux.

    The boundary flux uses the effective trace (prescribed data when the
    field carries any, the interior trace otherwise), so the residual
    vanishes up to rounding for every field: facet-centroid samples integrate
    affine jumps and traces exactly.  With zero prescribed data the flux term
    drops and the identity pins the total directed jump mass, which is what
    certifies the cell-formula lower bounds.
    """
    dom = field.domain
    vol = dom.cell_volume
    N = dom.ndim
    shape = field.value_shape + (N,)
    acc = np.sum(field.lin.reshape((-1,) + shape), axis=0) * vol
    facets = field.jump_set()
    acc = acc + _flux(facets.jump, facets.normal, facets.area)
    faces = trace_boundary(field)
    return acc - _flux(faces.plus, faces.normal, faces.area)


def _flux(values: np.ndarray, normals: np.ndarray, areas: np.ndarray) -> np.ndarray:
    """Sum over rows of values x normal * area."""
    weighted = values * areas.reshape((-1,) + (1,) * (values.ndim - 1))
    return np.tensordot(weighted, normals, axes=(0, 0))


class SecondOrderField:
    """Discrete stand-in for a field with special-bounded-variation gradient.

    Pairs a vector field ``u`` with its gradient field ``grad`` (itself
    piecewise affine, so it may jump).  The cellwise second gradient is the
    linear part of ``grad``; consistency requires the linear part of ``u`` to
    match the gradient field at cell centers to ``GRADIENT_MATCH_TOL``, which
    the constructor checks unless ``check`` is false.
    """

    def __init__(self, u: PiecewiseAffineField, grad: PiecewiseAffineField, check: bool = True):
        if check:
            uu, gg = common_refinement(u, grad)
            mismatch = np.max(np.abs(uu.lin - gg.const)) if uu.lin.size else 0.0
            if not mismatch <= GRADIENT_MATCH_TOL:  # a NaN mismatch fails too
                raise ValueError(f"gradient field inconsistent with u (max mismatch {mismatch:.3e})")
            u, grad = uu, gg
        self.u = u
        self.grad = grad

    @property
    def domain(self) -> BoxDomain:
        return self.u.domain

    @classmethod
    def from_affine(cls, u: PiecewiseAffineField) -> "SecondOrderField":
        grad = PiecewiseAffineField(u.domain, u.lin.copy(), jump_tol=u.jump_tol)
        return cls(u, grad, check=False)

