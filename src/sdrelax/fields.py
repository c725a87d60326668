"""Piecewise-affine and piecewise-constant fields on box grids.

Fields store one affine piece per grid cell (constant part anchored at the
cell center plus a linear part).  Jump sets live on grid facets only; a field
may carry prescribed boundary data, in which case trace mismatches on the
outer faces are accounted as boundary jump facets with the outward normal.
That accounting is what lets zero-trace constructions keep an exact cellwise
gradient while their jump mass stays fully visible to the energy.

All operations are pure; fields are treated as immutable after construction.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .integrate import box_abs_affine, fsum, gauss_legendre_points, norm

DEFAULT_JUMP_TOL = 1e-12

# the name under which the test suite's reference loops import the norm
_vnorm = norm


@dataclass(frozen=True)
class BoxDomain:
    """Axis-aligned box with a regular cell grid."""

    lower: np.ndarray
    upper: np.ndarray
    resolution: np.ndarray

    def __init__(self, lower, upper, resolution):
        lower = np.atleast_1d(np.asarray(lower, dtype=float))
        upper = np.atleast_1d(np.asarray(upper, dtype=float))
        resolution = np.atleast_1d(np.asarray(resolution, dtype=int))
        if lower.shape != upper.shape or lower.shape != resolution.shape:
            raise ValueError("lower, upper, resolution must share length")
        if not np.all(upper > lower):
            raise ValueError("upper must exceed lower componentwise")
        if not np.all(resolution >= 1):
            raise ValueError("resolution must be >= 1 per axis")
        object.__setattr__(self, "lower", lower)
        object.__setattr__(self, "upper", upper)
        object.__setattr__(self, "resolution", resolution)

    @property
    def ndim(self) -> int:
        return len(self.lower)

    @property
    def widths(self) -> np.ndarray:
        return (self.upper - self.lower) / self.resolution

    @property
    def volume(self) -> float:
        return float(np.prod(self.upper - self.lower))

    @property
    def cell_volume(self) -> float:
        return float(np.prod(self.widths))

    @property
    def cells_shape(self) -> tuple:
        return tuple(int(r) for r in self.resolution)

    @property
    def num_cells(self) -> int:
        return int(np.prod(self.resolution))

    @property
    def diameter(self) -> float:
        return float(np.linalg.norm(self.upper - self.lower))

    def axis_centers(self, axis: int) -> np.ndarray:
        n = int(self.resolution[axis])
        w = self.widths[axis]
        return self.lower[axis] + (np.arange(n) + 0.5) * w

    def cell_centers(self) -> np.ndarray:
        """Array of shape cells_shape + (N,)."""
        grids = np.meshgrid(*[self.axis_centers(k) for k in range(self.ndim)], indexing="ij")
        return np.stack(grids, axis=-1)

    def refine(self, factor) -> "BoxDomain":
        factor = np.broadcast_to(np.asarray(factor, dtype=int), (self.ndim,))
        return BoxDomain(self.lower, self.upper, self.resolution * factor)

    def compatible(self, other: "BoxDomain") -> bool:
        return (
            self.ndim == other.ndim
            and np.allclose(self.lower, other.lower)
            and np.allclose(self.upper, other.upper)
        )

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
    """Unit cube centered at the origin (the cell-problem domain)."""
    half = 0.5 * np.ones(ndim)
    return BoxDomain(-half, half, resolution * np.ones(ndim, dtype=int))


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


@dataclass(frozen=True)
class JumpFacet:
    """One grid facet carrying a jump: a row of a :class:`FacetTable`.

    ``jump`` is the trace difference (+ side minus - side) at the facet
    centroid; ``jump_lin`` is its tangential affine variation over the facet
    (zero along ``axis``).  Interior facets are canonicalized with normal
    ``+e_axis``; boundary facets use the outward normal, so a prescribed-trace
    mismatch reads ``prescribed - interior``.
    """

    axis: int
    index: tuple
    boundary: bool
    normal: np.ndarray
    area: float
    jump: np.ndarray
    jump_lin: np.ndarray
    centroid: np.ndarray
    trace_mean: np.ndarray = None

    @property
    def magnitude(self) -> float:
        return float(norm(self.jump, self.jump.ndim))

    def trace_plus(self) -> np.ndarray:
        return self.trace_mean + 0.5 * self.jump

    def trace_minus(self) -> np.ndarray:
        return self.trace_mean - 0.5 * self.jump


@dataclass(frozen=True, eq=False)
class FacetTable:
    """The jump set of a field, one array per facet attribute.

    Row ``i`` of every column describes facet ``i``: ``axis``, ``boundary``
    and ``area`` have shape ``(F,)``; ``index`` (the adjacent cell on the
    lower side, or the boundary cell), ``normal`` and ``centroid`` have shape
    ``(F, N)``; ``jump`` and ``trace_mean`` have shape ``(F,) + value_shape``
    and ``jump_lin`` has shape ``(F,) + value_shape + (N,)``.  Indexing or
    iterating the table yields :class:`JumpFacet` rows.
    """

    axis: np.ndarray
    index: np.ndarray
    boundary: np.ndarray
    normal: np.ndarray
    area: np.ndarray
    jump: np.ndarray
    jump_lin: np.ndarray
    centroid: np.ndarray
    trace_mean: np.ndarray

    @classmethod
    def empty(cls, ndim: int, value_shape: tuple) -> "FacetTable":
        return cls(
            axis=np.zeros(0, dtype=int),
            index=np.zeros((0, ndim), dtype=int),
            boundary=np.zeros(0, dtype=bool),
            normal=np.zeros((0, ndim)),
            area=np.zeros(0),
            jump=np.zeros((0,) + value_shape),
            jump_lin=np.zeros((0,) + value_shape + (ndim,)),
            centroid=np.zeros((0, ndim)),
            trace_mean=np.zeros((0,) + value_shape),
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
        """Sub-table of the rows picked by a boolean mask or an index array."""
        return FacetTable(**{name: getattr(self, name)[rows] for name in self.__dataclass_fields__})

    def __len__(self) -> int:
        return len(self.area)

    def __getitem__(self, i: int) -> JumpFacet:
        return JumpFacet(
            axis=int(self.axis[i]),
            index=tuple(int(v) for v in self.index[i]),
            boundary=bool(self.boundary[i]),
            normal=np.array(self.normal[i]),
            area=float(self.area[i]),
            jump=np.array(self.jump[i]),
            jump_lin=np.array(self.jump_lin[i]),
            centroid=np.array(self.centroid[i]),
            trace_mean=np.array(self.trace_mean[i]),
        )

    def __iter__(self):
        return (self[i] for i in range(len(self)))

    def magnitudes(self) -> np.ndarray:
        """Frobenius norm of each facet's jump."""
        return norm(self.jump, self.jump.ndim - 1)

    def varies(self) -> np.ndarray:
        """Per facet: does the jump carry affine variation (any nonzero jump_lin)?"""
        return np.any(_rows(self.jump_lin) != 0.0, axis=1)


def _rows(arr: np.ndarray) -> np.ndarray:
    """View a column as (rows, entries), also when it has no rows."""
    return arr.reshape(arr.shape[0], int(np.prod(arr.shape[1:], dtype=int)))


def _facet_rows(keep, index, axis: int, boundary: bool, sign: float, area: float,
                jump, jump_lin, centroid, trace_mean) -> FacetTable:
    """Table of the facets of one axis (and side) that ``keep`` selects."""
    count = len(index)
    normal = np.zeros((count, index.shape[1]))
    normal[:, axis] = sign
    return FacetTable(
        axis=np.full(count, axis),
        index=index,
        boundary=np.full(count, boundary),
        normal=normal,
        area=np.full(count, area),
        jump=jump[keep],
        jump_lin=jump_lin[keep],
        centroid=centroid[keep],
        trace_mean=trace_mean[keep],
    )


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

    # -- basic queries ------------------------------------------------------

    @property
    def value_ndim(self) -> int:
        return len(self.value_shape)

    def evaluate(self, points: np.ndarray) -> np.ndarray:
        points = np.atleast_2d(np.asarray(points, dtype=float))
        idx = np.floor((points - self.domain.lower) / self.domain.widths).astype(int)
        idx = np.clip(idx, 0, self.domain.resolution - 1)
        centers = self.domain.lower + (idx + 0.5) * self.domain.widths
        flat = np.ravel_multi_index(tuple(idx.T), self.domain.cells_shape)
        const = self.const.reshape((-1,) + self.value_shape)[flat]
        lin = self.lin.reshape((-1,) + self.value_shape + (self.domain.ndim,))[flat]
        return const + np.einsum("m...k,mk->m...", lin, points - centers)

    def cellwise_gradient(self) -> np.ndarray:
        return self.lin

    def gradient_field(self) -> "PiecewiseConstantField":
        """The derived gradient as a cellwise-constant field."""
        return PiecewiseConstantField(self.domain, self.lin.copy(), jump_tol=self.jump_tol)

    # -- jump set -----------------------------------------------------------

    def jump_set(self) -> FacetTable:
        """The facets whose jump exceeds ``jump_tol``: interior ones first
        (by axis, then cell), then boundary ones (by axis, lower side before
        upper).  Built once and cached."""
        if self._jump_cache is None:
            self._jump_cache = FacetTable.concat(
                [self._build_interior_facets(), self._build_boundary_facets()],
                self.domain.ndim, self.value_shape)
        return self._jump_cache

    def _build_interior_facets(self) -> FacetTable:
        dom = self.domain
        N = dom.ndim
        vnd = self.value_ndim
        parts = []
        centers = dom.cell_centers()
        for m in range(N):
            if dom.resolution[m] < 2:
                continue
            h = dom.widths[m]
            area = dom.cell_volume / h
            sl_lo = [slice(None)] * N
            sl_hi = [slice(None)] * N
            sl_lo[m] = slice(None, -1)
            sl_hi[m] = slice(1, None)
            sl_lo, sl_hi = tuple(sl_lo), tuple(sl_hi)
            trace_lo = self.const[sl_lo] + 0.5 * h * self.lin[sl_lo + (Ellipsis, m)]
            trace_hi = self.const[sl_hi] - 0.5 * h * self.lin[sl_hi + (Ellipsis, m)]
            jump = trace_hi - trace_lo
            tmean = 0.5 * (trace_hi + trace_lo)
            jlin = self.lin[sl_hi] - self.lin[sl_lo]
            jlin[..., m] = 0.0
            mag = norm(jump, vnd) + norm(jlin, vnd + 1)
            cent = centers[sl_lo].copy()
            cent[..., m] += 0.5 * h
            keep = mag > self.jump_tol
            parts.append(_facet_rows(keep, np.argwhere(keep), m, False, 1.0, area,
                                     jump, jlin, cent, tmean))
        return FacetTable.concat(parts, N, self.value_shape)

    def _build_boundary_facets(self) -> FacetTable:
        dom = self.domain
        N = dom.ndim
        if self.boundary_data is None:
            return FacetTable.empty(N, self.value_shape)
        vnd = self.value_ndim
        parts = []
        centers = dom.cell_centers()
        for m in range(N):
            h = dom.widths[m]
            area = dom.cell_volume / h
            for side, normal_sign in ((0, -1.0), (-1, 1.0)):
                sl = [slice(None)] * N
                sl[m] = side
                sl = tuple(sl)
                trace = self.const[sl] + normal_sign * 0.5 * h * self.lin[sl + (Ellipsis, m)]
                cent = centers[sl].reshape((-1, N)).copy()
                cent[:, m] = dom.lower[m] if side == 0 else dom.upper[m]
                prescribed, plin = self.boundary_data.value_and_lin(cent)
                trace_flat = trace.reshape((-1,) + self.value_shape)
                lin_flat = self.lin[sl].reshape((-1,) + self.value_shape + (N,))
                jump = prescribed - trace_flat
                jlin = plin - lin_flat
                jlin[..., m] = 0.0
                mag = norm(jump, vnd) + norm(jlin, vnd + 1)
                keep = ~(mag <= self.jump_tol)  # a NaN magnitude counts as a jump here
                side_idx = 0 if side == 0 else int(dom.resolution[m]) - 1
                face = np.argwhere(np.ones(trace.shape[: N - 1], dtype=bool))
                index = np.insert(face, m, side_idx, axis=1)[keep]
                parts.append(_facet_rows(keep, index, m, True, normal_sign, area, jump, jlin, cent,
                                         0.5 * (prescribed + trace_flat)))
        return FacetTable.concat(parts, N, self.value_shape)

    # -- norms and pairings ---------------------------------------------------

    def l1_norm(self) -> float:
        return l1_norm(self)

    def total_jump_mass(self) -> float:
        return total_jump_mass(self)

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
        const = const + np.sum(lin * shift_b, axis=-1)
        return PiecewiseAffineField(new_dom, const, lin, boundary_data=self.boundary_data, jump_tol=self.jump_tol)

    def __add__(self, other: "PiecewiseAffineField") -> "PiecewiseAffineField":
        if self.value_shape != other.value_shape:
            raise ValueError(f"value shape mismatch: {self.value_shape} vs {other.value_shape}")
        a, b = common_refinement(self, other)
        return PiecewiseAffineField(a.domain, a.const + b.const, a.lin + b.lin, jump_tol=min(a.jump_tol, b.jump_tol))

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


class PiecewiseConstantField(PiecewiseAffineField):
    """Cellwise-constant field; its total variation is the facet jump mass."""

    def __init__(self, domain: BoxDomain, values, boundary_data=None, jump_tol: float = DEFAULT_JUMP_TOL):
        super().__init__(domain, values, lin=None, boundary_data=boundary_data, jump_tol=jump_tol)

    def total_variation(self) -> float:
        return total_jump_mass(self)


# ---------------------------------------------------------------------------
# module-level operations
# ---------------------------------------------------------------------------


def jump_set(field: PiecewiseAffineField) -> FacetTable:
    return field.jump_set()


def total_jump_mass(field: PiecewiseAffineField) -> float:
    """Sum of |jump| * area over all jump facets (Frobenius on tensor jumps).

    Jumps are sampled at facet centroids; for facets with affine jump
    variation this is the centroid-sampled mass (a lower bound on the exact
    facet integral), which is what all mass bounds in this package refer to.
    """
    facets = field.jump_set()
    return fsum(facets.magnitudes() * facets.area)


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


def l1_distance(f: PiecewiseAffineField, g: PiecewiseAffineField, quad_order: int = 6) -> float:
    """Cellwise integral of |f - g|.

    Exact for scalar values and for cellwise-constant differences; tensor
    values with affine variation fall back to Gauss-Legendre of the given
    order (the integrand is then a square root of a quadratic).
    """
    if f.value_shape != g.value_shape:
        raise ValueError(f"value shape mismatch: {f.value_shape} vs {g.value_shape}")
    ff, gg = common_refinement(f, g)
    const = ff.const - gg.const
    lin = ff.lin - gg.lin
    return _l1_of_cell_data(ff.domain, const, lin, ff.value_shape, quad_order)


def l1_norm(f: PiecewiseAffineField, quad_order: int = 6) -> float:
    return _l1_of_cell_data(f.domain, f.const, f.lin, f.value_shape, quad_order)


# cells per batch of the Gauss-Legendre L1 path: bounds its temporaries
_L1_BLOCK_CELLS = 4096


def _l1_of_cell_data(dom: BoxDomain, const, lin, value_shape, quad_order) -> float:
    widths = dom.widths
    vol = dom.cell_volume
    scalar = int(np.prod(value_shape, dtype=int)) <= 1
    vnd = len(value_shape)
    if np.all(lin == 0.0):
        mags = norm(const, vnd)
        return fsum(mags * vol)
    flat_c = const.reshape((-1,) + value_shape)
    flat_l = lin.reshape((-1,) + value_shape + (dom.ndim,))
    terms = []
    if scalar:
        for c, b in zip(flat_c.reshape(flat_c.shape[0], -1), flat_l.reshape(flat_l.shape[0], -1, dom.ndim)):
            terms.append(box_abs_affine(float(c[0]) if c.size else float(c), b[0] if b.size else b, widths))
    else:
        pts, wts = gauss_legendre_points(-widths / 2.0, widths / 2.0, quad_order)
        for start in range(0, flat_c.shape[0], _L1_BLOCK_CELLS):
            vals = _affine_at_points(flat_c[start:start + _L1_BLOCK_CELLS],
                                     flat_l[start:start + _L1_BLOCK_CELLS], pts)
            # one dot per cell: a single matrix-vector product rounds differently
            terms.extend(map(wts.dot, norm(vals, vnd)))
    return fsum(terms)


def _affine_at_points(const, lin, pts) -> np.ndarray:
    """``const + lin . p`` per cell and point: shape (cells, points) + value_shape."""
    N = pts.shape[1]
    if N > 2:
        return const[:, None] + np.einsum("c...k,mk->cm...", lin, pts)
    # With two products or fewer per entry any summation order gives the same
    # bits, so explicit products match the einsum; they are kept because the
    # einsum alone made a 256x256 seq-fine process ~37% slower (median 1.51 s
    # against 1.10 s on a 2-vCPU host), while for N = 3 only the einsum keeps
    # the digits.
    shape = pts.shape[:1] + (1,) * (lin.ndim - 2)
    out = lin[:, None, ..., 0] * pts[:, 0].reshape(shape)
    if N == 2:
        out = out + lin[:, None, ..., 1] * pts[:, 1].reshape(shape)
    return const[:, None] + out


def trace_boundary(field: PiecewiseAffineField) -> list[dict]:
    """One-sided boundary values per boundary facet.

    Each record carries the interior trace at the facet centroid and the
    effective exterior value (prescribed data when the field carries any,
    otherwise the interior trace itself).
    """
    dom = field.domain
    N = dom.ndim
    records = []
    centers = dom.cell_centers()
    for m in range(N):
        h = dom.widths[m]
        area = dom.cell_volume / h
        for side, sgn in ((0, -1.0), (-1, 1.0)):
            sl = [slice(None)] * N
            sl[m] = side
            sl = tuple(sl)
            trace = field.const[sl] + sgn * 0.5 * h * field.lin[sl + (Ellipsis, m)]
            cent = centers[sl].reshape((-1, N)).copy()
            cent[:, m] = dom.lower[m] if side == 0 else dom.upper[m]
            trace_flat = trace.reshape((-1,) + field.value_shape)
            if field.boundary_data is not None:
                effective, _ = field.boundary_data.value_and_lin(cent)
            else:
                effective = trace_flat
            normal = np.zeros(N)
            normal[m] = sgn
            for i in range(cent.shape[0]):
                records.append(
                    {
                        "axis": m,
                        "side": "lower" if side == 0 else "upper",
                        "normal": normal.copy(),
                        "centroid": cent[i],
                        "area": area,
                        "interior": np.array(trace_flat[i]),
                        "effective": np.array(effective[i]),
                    }
                )
    return records


def weak_star_pairing(field_or_values, alpha, domain: BoxDomain | None = None) -> np.ndarray:
    """Pair a field (or cellwise data) against the monomial y**alpha.

    Returns the tensor ``integral of y^alpha * field`` computed cellwise with
    exact monomial moments (the integrand is polynomial, so there is no
    quadrature error).
    """
    if isinstance(field_or_values, PiecewiseAffineField):
        dom = field_or_values.domain
        const = field_or_values.const
        lin = field_or_values.lin
        value_shape = field_or_values.value_shape
    else:
        if domain is None:
            raise ValueError("domain required when pairing raw cell data")
        dom = domain
        const = np.asarray(field_or_values, dtype=float)
        value_shape = const.shape[dom.ndim:]
        lin = np.zeros(const.shape + (dom.ndim,))
    alpha = tuple(int(a) for a in np.atleast_1d(alpha))
    if len(alpha) != dom.ndim:
        raise ValueError("monomial multi-index length must equal dimension")
    N = dom.ndim
    edges = [dom.lower[k] + dom.widths[k] * np.arange(dom.resolution[k] + 1) for k in range(N)]

    def axis_moment(k: int, power: int) -> np.ndarray:
        lo, hi = edges[k][:-1], edges[k][1:]
        return (hi ** (power + 1) - lo ** (power + 1)) / (power + 1)

    def outer(per_axis: list[np.ndarray]) -> np.ndarray:
        out = per_axis[0]
        for arr in per_axis[1:]:
            out = np.multiply.outer(out, arr)
        return out

    m0 = outer([axis_moment(k, alpha[k]) for k in range(N)])
    extra = (1,) * len(value_shape)
    total = const * m0.reshape(m0.shape + extra)
    centers = [dom.axis_centers(k) for k in range(N)]
    for k in range(N):
        per = [axis_moment(j, alpha[j]) for j in range(N)]
        per[k] = axis_moment(k, alpha[k] + 1) - centers[k] * axis_moment(k, alpha[k])
        mk = outer(per)
        total = total + lin[..., k] * mk.reshape(mk.shape + extra)
    flat = total.reshape((-1,) + value_shape)
    out = np.empty(value_shape)
    if value_shape == ():
        return np.asarray(fsum(flat))
    for idx in np.ndindex(*value_shape):
        out[idx] = fsum(flat[(slice(None),) + idx])
    return out


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
    records = trace_boundary(field)
    if records:
        acc = acc - _flux(np.stack([rec["effective"] for rec in records]),
                          np.stack([rec["normal"] for rec in records]),
                          np.array([rec["area"] for rec in records]))
    return acc


def _flux(values: np.ndarray, normals: np.ndarray, areas: np.ndarray) -> np.ndarray:
    """Sum over rows of values x normal * area."""
    weighted = values * areas.reshape((-1,) + (1,) * (values.ndim - 1))
    return np.tensordot(weighted, normals, axes=(0, 0))


class SecondOrderField:
    """Discrete stand-in for a field with special-bounded-variation gradient.

    Pairs a vector field ``u`` with its gradient field ``grad`` (itself
    piecewise affine, so it may jump).  The cellwise second gradient is the
    linear part of ``grad``; consistency requires the linear part of ``u`` to
    match the gradient field at cell centers.
    """

    def __init__(self, u: PiecewiseAffineField, grad: PiecewiseAffineField, check: bool = True, tol: float = 1e-9):
        if check:
            uu, gg = common_refinement(u, grad)
            mismatch = np.max(np.abs(uu.lin - gg.const)) if uu.lin.size else 0.0
            if mismatch > tol:
                raise ValueError(f"gradient field inconsistent with u (max mismatch {mismatch:.3e})")
            u, grad = uu, gg
        self.u = u
        self.grad = grad

    @property
    def domain(self) -> BoxDomain:
        return self.u.domain

    def second_gradient(self) -> np.ndarray:
        """Cellwise linear part of the gradient field."""
        return self.grad.lin

    @classmethod
    def from_affine(cls, u: PiecewiseAffineField) -> "SecondOrderField":
        grad = PiecewiseConstantField(u.domain, u.lin.copy(), jump_tol=u.jump_tol)
        return cls(u, grad, check=False)

