"""Upper/lower bracketing of the four relaxed-density cell formulas.

The cell formulas are infima over all special-bounded-variation competitors;
exact values are out of reach, so each estimator returns an explicit bracket:
an upper bound from the best member of structured competitor families
(staircases, elementary jumps, plane splittings, gradient zigzags,
uniform-gradient laminates, inclusion boxes) and, where the interfacial
densities are coercive with declared constants, a certified lower bound from
the discrete Gauss-Green closure (the total directed jump mass of any
admissible competitor is pinned by its boundary data, and coercivity converts
mass into energy).

A :class:`CellProblem` fixes once, in field layout, what its variant
decides: the interfacial density, the jump payload, the prescribed outer
trace, the prescribed gradient (cell by cell for W1/Gamma1, on average for
W2/Gamma2), the total directed jump that Gauss-Green pins, and the rotation
of its cube.  The W2 families are the laminate (the affine map ``L y`` when
``M = L``) and the inclusion boxes.

Every competitor reaches the sweep as :class:`Planes`: rows of grid facets
and the gradients of its cells, priced without building its grid field.
The inclusion box hands over one row per grid facet on the faces of its box,
with the traces the grid field's arithmetic gives (that of
``fields.interior_jumps``) and one gradient per cell.  Every other family is
a stack of parallel planes with one gradient per layer of cells: one row per
plane.  The energies are the grid fields' bit for bit (the laminate's to a
few ulp).  A family builds all the candidates of a problem in one call, one
:class:`Planes` each; the inclusion boxes of a problem share one pass over
their cell arrays, with their data-free geometry cached per cube and per
candidate list.  Each competitor is admitted by the discrete Gauss-Green
identity and the variant's gradient condition, and one density call prices
all the admitted competitors of a problem.

Competitors on oriented cubes are built in rotated coordinates (the jump
normal mapped to the last axis); densities receive the true normals and
derivative slots are un-rotated before bulk terms are evaluated.  The
parameter sweep is one deterministic pass over each family's candidate list
(nested as the budget grows), each candidate built and priced once; ties
break on ``(energy, family name, params)``.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, field as dataclass_field, replace

import numpy as np

from .densities import DensityTriple, InterfacialDensity, recession
from .energy import _interfacial_terms
from .fields import (
    DEFAULT_JUMP_TOL,
    AffineBoundary,
    BoundaryData,
    BoxDomain,
    FacetTable,
    StepBoundary,
    _stack,
    trace_boundary,  # noqa: F401 - no caller here; perfbench/traced.py wraps it by this name
    unit_cube,
)
from .integrate import fsum, norm
from .trace_formula import swap_layout

ADMISSIBILITY_TOL = 1e-10
DEFAULT_RESOLUTION = 4
DEFAULT_W2_RESOLUTION = 8


# the data each variant needs, and its shape: N = len(x), and d is the leading
# axis of the variant's first entry
_VARIANT_DATA = {"W1": ("A",), "Gamma1": ("lam", "nu"), "W2": ("A", "L", "M"),
                 "Gamma2": ("A", "Lam", "nu")}
_SHAPES = {"A": "(d, N)", "lam": "(d,)", "Lam": "(d, N)", "L": "(d, N, N)", "M": "(d, N, N)",
           "nu": "(N,)"}


@dataclass
class CellProblem:
    """One cell-formula instance with its frozen material point.

    ``__post_init__`` checks the shapes of the variant's data and the
    ``resolution`` (at least 1, and even along the jump axis of Gamma1 and
    Gamma2), and fixes, once and in field layout, what the variant decides:
    the interfacial density ``psi``, the jump ``payload``, the prescribed
    outer trace ``prescription``, the prescribed ``gradient`` (cell by cell,
    or on average when ``averaged``), the admissibility tolerance ``tol``,
    relative to the size of the prescribed data, the ``rotation`` of the
    cube (the jump normal to the last axis; ``None`` for W1 and W2) and
    ``directed``: the total directed jump, the sum of ``[v] (x) q`` times
    area over the facets, that the discrete Gauss-Green identity pins on
    every admissible competitor (the prescription's outer flux minus the
    integral of the prescribed gradient over the unit cube), in the cube's
    coordinates.
    """

    variant: str                        # W1 | Gamma1 | W2 | Gamma2
    x: np.ndarray
    densities: DensityTriple
    A: np.ndarray | None = None         # W1 target gradient / frozen first-gradient slot
    lam: np.ndarray | None = None       # Gamma1 jump payload
    Lam: np.ndarray | None = None       # Gamma2 jump payload
    nu: np.ndarray | None = None        # oriented-cube normal
    L: np.ndarray | None = None         # W2 boundary tensor (bilinear layout)
    M: np.ndarray | None = None         # W2 average-gradient tensor (bilinear layout)
    resolution: int = DEFAULT_RESOLUTION
    psi: InterfacialDensity = dataclass_field(init=False, repr=False)
    payload: np.ndarray | None = dataclass_field(init=False, repr=False)
    prescription: BoundaryData = dataclass_field(init=False, repr=False)
    gradient: np.ndarray = dataclass_field(init=False, repr=False)
    averaged: bool = dataclass_field(init=False, repr=False)
    tol: float = dataclass_field(init=False, repr=False)
    rotation: np.ndarray | None = dataclass_field(init=False, repr=False)
    directed: np.ndarray = dataclass_field(init=False, repr=False)

    def __post_init__(self):
        self.x = np.asarray(self.x, dtype=float)
        for name in ("A", "lam", "Lam", "nu", "L", "M"):
            v = getattr(self, name)
            if v is not None:
                setattr(self, name, np.asarray(v, dtype=float))
        self._check_shapes()
        if self.resolution < 1 or self.variant in ("Gamma1", "Gamma2") and self.resolution % 2:
            raise ValueError(f"resolution must be at least 1 and must be even for Gamma1 and Gamma2, "
                             f"got {self.resolution} for {self.variant}")
        if self.nu is not None and abs(np.linalg.norm(self.nu) - 1.0) > 1e-12:
            raise ValueError("nu must be a unit vector")
        N = len(self.x)
        self.averaged = self.variant in ("W2", "Gamma2")
        self.psi = self.densities.psi2 if self.averaged else self.densities.psi1
        self.payload = self.lam if self.variant == "Gamma1" else self.Lam
        if self.variant == "W1":
            self.prescription = AffineBoundary.zero(self.A.shape[:1], N)
            self.gradient, data = self.A, (self.A,)
            flux = np.zeros_like(self.A)
        elif self.variant == "W2":
            self.prescription = AffineBoundary.linear(swap_layout(self.L))
            self.gradient, data = swap_layout(self.M), (self.L, self.M)
            flux = self.prescription.lin
        else:
            self.prescription = StepBoundary(self.payload, N - 1, 0.0)
            self.gradient, data = np.zeros(self.payload.shape + (N,)), (self.payload,)
            flux = np.multiply.outer(self.payload, np.eye(N)[N - 1])
        self.tol = ADMISSIBILITY_TOL * max(1.0, *(float(norm(t, t.ndim)) for t in data))
        self.rotation = None if self.nu is None else rotation_to_last_axis(self.nu)
        self.directed = flux - self.gradient

    def _check_shapes(self):
        if self.variant not in _VARIANT_DATA:
            raise ValueError(f"unknown cell variant {self.variant!r}")
        if self.x.ndim != 1:
            raise ValueError(f"x must be a vector, got shape {self.x.shape}")
        N = len(self.x)
        names = _VARIANT_DATA[self.variant]
        first = getattr(self, names[0])
        sizes = {"N": N, "d": first.shape[0] if first is not None and first.ndim else None}
        for name in names:
            value = getattr(self, name)
            if value is None:
                raise ValueError(f"{self.variant} cell problem needs {name}")
            if value.shape != tuple(sizes[axis] for axis in _SHAPES[name] if axis in sizes):
                raise ValueError(f"{name} must have shape {_SHAPES[name]} with N = len(x) = {N}, "
                                 f"got {value.shape}")


@dataclass
class EstimateResult:
    upper: float
    lower: float | None
    best_family: str
    best_params: tuple
    evaluations: int
    seed: int | None = None
    inexact_quadrature: bool = False
    admissibility_residual: float = 0.0
    rows: list = dataclass_field(default_factory=list)
    notes: str = ""

    def to_dict(self) -> dict:
        return {
            "upper": self.upper,
            "lower": self.lower,
            "best_family": self.best_family,
            "best_params": list(self.best_params),
            "evaluations": self.evaluations,
            "seed": self.seed,
            "inexact_quadrature": self.inexact_quadrature,
            "admissibility_residual": self.admissibility_residual,
            "notes": self.notes,
        }


class EstimationError(RuntimeError):
    """No admissible competitor was generated for a cell problem."""


def rotation_to_last_axis(nu: np.ndarray) -> np.ndarray:
    """Orthogonal map sending the last basis vector to nu (Householder)."""
    nu = np.asarray(nu, dtype=float)
    N = len(nu)
    eN = np.zeros(N)
    eN[-1] = 1.0
    w = eN - nu
    nw = np.linalg.norm(w)
    if nw < 1e-14:
        return np.eye(N)
    w = w / nw
    return np.eye(N) - 2.0 * np.outer(w, w)


# ---------------------------------------------------------------------------
# competitors: admitted and priced as facet rows
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Planes:
    """A competitor as rows of grid facets on ``domain``, in the cube's
    coordinates, and its gradients.

    Row ``i`` of ``facets`` stands for ``counts[i]`` facets of the
    competitor's jump set with the same traces: a representative facet of
    one plane, or one facet on a face of an inclusion box, whose traces the
    grid's own arithmetic computes.  ``gradients[j]`` is the gradient of
    ``cells[j]`` cells.  The laminate's planes are those
    of the zero-trace staircase of ``M - L`` (the laminate minus the affine
    map ``L y``), with the exact jumps ``h (L - M) e_m``; its grid field's
    carry the rounding of ``L y`` at each cell centre.

    A family's ``planes(problem, batch)`` returns one per candidate of
    ``batch``, each the same whatever else the batch holds.
    """

    domain: BoxDomain
    facets: FacetTable
    counts: np.ndarray
    gradients: np.ndarray
    cells: np.ndarray


@functools.cache
def _layer_layout(N: int, r: int) -> dict:
    """The planes of a field on ``unit_cube(N, r)`` whose cells share their
    data within each layer (the cells with one index along the last axis).

    One row per plane: for the last axis, the interior facets between
    layers ``i`` and ``i + 1`` and the outer faces of the first and the last
    layer; for another axis, per layer, the interior facets and the outer
    faces on each side.  ``behind`` is the layer of the cell on the facet's
    minus side and ``side`` the face of that cell it is (0 lower, 1 upper);
    ``ahead`` is the layer on the plus side of an interior facet.  Each
    row's geometry is that of the facet whose other cell indices are 0;
    ``z`` holds the layers' centres along the last axis.
    """
    dom = unit_cube(N, r)
    m = N - 1
    # axis, normal sign, outer face, side, behind, ahead, facets, cell index along the axis
    rows = []
    for k in range(m):
        if r > 1:
            rows += [(k, 1.0, False, 1, i, i, (r - 1) * r ** (N - 2), 0) for i in range(r)]
        rows += [(k, -1.0, True, 0, i, i, r ** (N - 2), 0) for i in range(r)]
        rows += [(k, 1.0, True, 1, i, i, r ** (N - 2), r - 1) for i in range(r)]
    rows += [(m, 1.0, False, 1, i, i + 1, r ** m, i) for i in range(r - 1)]
    rows += [(m, -1.0, True, 0, 0, 0, r ** m, 0), (m, 1.0, True, 1, r - 1, r - 1, r ** m, r - 1)]
    axis, sign, outer, side, behind, ahead, count, at = (np.array(c) for c in zip(*rows))
    every = np.arange(len(rows))
    index = np.zeros((len(rows), N), dtype=int)
    index[every, axis] = at
    index[:, m] = behind
    centroid = dom.lower + (index + 0.5) * dom.widths
    face = centroid[every, axis] + 0.5 * dom.widths[axis]
    wall = np.where(sign < 0, dom.lower[axis], dom.upper[axis])
    centroid[every, axis] = np.where(outer, wall, face)
    normal = np.zeros((len(rows), N))
    normal[every, axis] = sign
    lay = dict(axis=axis, boundary=outer, side=side, behind=behind, ahead=ahead, count=count,
               index=index, centroid=centroid, normal=normal, every=every,
               area=dom.cell_volume / dom.widths[axis], half=0.5 * dom.widths,
               cells=np.full(r, r ** m), z=dom.axis_centers(m))
    for value in lay.values():
        value.flags.writeable = False
    return lay


@functools.cache
def _cell_centers(N: int, r: int) -> np.ndarray:
    """The cell centres of ``unit_cube(N, r)``, read-only."""
    centers = unit_cube(N, r).cell_centers()
    centers.flags.writeable = False
    return centers


@functools.cache
def _box_layout(N: int, r: int, boxes: tuple) -> dict:
    """The data-free part of the inclusion boxes ``boxes`` on ``unit_cube(N, r)``,
    whose cell arrays are stacked (box ``c``'s flat cell ``i`` at row
    ``c * cells + i``): per box, its cells (``box``) and volume; the rows of
    the cells inside the boxes (``inside``); per facet on the faces of a box,
    box by box and in the order of its grid field's jump set (per axis, one
    stepped slice of lower cells), the rows of its two cells (``rows``), half
    the cell width along its axis and its geometry.  Box ``c`` has the
    facets ``edges[c]:edges[c + 1]``."""
    dom = unit_cube(N, r)
    flat = np.arange(dom.num_cells).reshape(dom.cells_shape)
    slices, volumes, inside, rows, geometry = [], [], [], [], []
    for c, params in enumerate(boxes):
        half = np.asarray(params[:N], dtype=int)
        mid = r // 2 + np.asarray(params[N:], dtype=int)
        box = tuple(slice(k - h, k + h) for k, h in zip(mid, half))
        slices.append(box)
        volumes.append(float(np.prod(2 * half * dom.widths)))
        inside.append(c * dom.num_cells + flat[box].ravel())
        for m, (k, h) in enumerate(zip(mid, half)):
            lo = box[:m] + (slice(k - h - 1, k + h, 2 * h),) + box[m + 1:]
            hi = box[:m] + (slice(k - h, k + h + 1, 2 * h),) + box[m + 1:]
            rows.append(c * dom.num_cells + np.stack([flat[lo].ravel(), flat[hi].ravel()]))
            geometry.append(dom.block_geometry(m, lo))
    geometry = _stack(geometry)
    edges = np.cumsum([0] + [part.shape[1] for part in rows])[::N]
    lay = dict(volume=np.array(volumes), inside=np.concatenate(inside), rows=np.concatenate(rows, axis=1),
               half=0.5 * dom.widths[geometry["axis"], None, None], every=np.arange(edges[-1]), edges=edges)
    for column in (*lay.values(), *geometry.values()):
        column.flags.writeable = False
    return dict(lay, box=tuple(slices), geometry=geometry)


def _layered(r: int, const: np.ndarray, lin: np.ndarray, prescription: BoundaryData) -> Planes:
    """The planes of the field on ``unit_cube(N, r)`` equal to ``const[i]``
    and ``lin[i]`` in every cell of layer ``i`` and carrying
    ``prescription``, which may depend on the last coordinate only.

    The traces and the jump variation of each representative facet are the
    field's, by its own arithmetic (``PiecewiseAffineField``'s interior
    jumps and outer traces), and facets jumping by at most
    ``DEFAULT_JUMP_TOL`` are dropped, as the field drops them.
    """
    N = lin.shape[-1]
    lay = _layer_layout(N, r)
    axis, outer = lay["axis"], lay["boundary"]
    step = lay["half"] * lin  # half a cell width times the slope, per axis
    # each cell's trace at its lower and upper face along each axis: (face, layer, ..., axis)
    traces = np.stack([const[..., None] - step, const[..., None] + step])
    minus = traces[lay["side"], lay["behind"], ..., axis]
    plus = traces[0, lay["ahead"], ..., axis]
    plus[outer], ahead = prescription.value_and_lin(lay["centroid"][outer])
    jump_lin = lin[lay["ahead"]]
    jump_lin[outer] = ahead
    jump_lin -= lin[lay["behind"]]
    jump_lin[lay["every"], ..., axis] = 0.0
    vnd = const.ndim - 1
    keep = ~(norm(plus - minus, vnd) + norm(jump_lin, vnd + 1) <= DEFAULT_JUMP_TOL)
    facets = FacetTable(axis=axis, index=lay["index"], boundary=outer, normal=lay["normal"],
                        area=lay["area"], plus=plus, minus=minus, jump_lin=jump_lin,
                        centroid=lay["centroid"])
    return Planes(unit_cube(N, r), facets.select(keep), lay["count"][keep], lin, lay["cells"])


def check_admissibility(problem: CellProblem, planes: Planes) -> tuple[bool, float]:
    """Re-verify a competitor before its energy may count: the gradient
    condition (cell by cell, or on average when ``problem.averaged``) and
    the discrete Gauss-Green identity, the competitor's total directed jump
    being ``problem.directed``.  Residuals combine with ``np.max`` (a NaN
    rejects), admitted when at most ``problem.tol``."""
    if problem.averaged:
        avg = np.einsum("j,j...->...", planes.cells, planes.gradients) * planes.domain.cell_volume
        residual = float(norm(avg - problem.gradient, avg.ndim))
    else:
        residual = float(np.max(np.abs(planes.gradients - problem.gradient), initial=0.0))
    f = planes.facets
    directed = np.einsum("f...,f,fk->...k", f.jump, f.area * planes.counts, f.normal)
    residual = float(np.max(np.abs(directed - problem.directed), initial=residual))
    return residual <= problem.tol, residual


def competitor_energy(problem: CellProblem, competitors: list) -> list[tuple[float, int]]:
    """Energy of each competitor, and its count of centroid-only facets.

    One interfacial pass over the rows of all of them (one ``psi`` call,
    plus the density's facet integral per row whose jump varies) and, for
    W2 and Gamma2, one bulk call over all their gradients: W(x0, A, .) for
    W2, its recession for Gamma2.  Each term is counted once per facet or
    cell it stands for; the terms are the grid field's bit for bit and
    ``fsum`` rounds their exact sum, so each energy is that of the
    competitor's field.
    """
    if not competitors:
        return []
    tables = [p.facets for p in competitors]
    sizes = [len(t) for t in tables]
    table = FacetTable.concat(tables, len(problem.x), tables[0].plus.shape[1:])
    widths = np.repeat([p.domain.widths for p in competitors], sizes, axis=0)
    terms, inexact = _interfacial_terms(problem.psi, table, widths, problem.x, problem.rotation)
    starts = np.cumsum(sizes) - sizes
    priced = [(fsum(np.repeat(terms[a:a + n], p.counts)), int(np.sum(p.counts[inexact[a:a + n]])))
              for p, a, n in zip(competitors, starts, sizes)]
    if not problem.averaged:
        return priced
    # in C order, as a field's cells: the bulk integrand's sums then round as the field's
    gradients = np.ascontiguousarray(np.concatenate([p.gradients for p in competitors]))
    if problem.rotation is not None:
        gradients = np.einsum("...k,mk->...m", gradients, problem.rotation)
    xs = np.broadcast_to(problem.x, (len(gradients), len(problem.x)))
    As = np.broadcast_to(problem.A, (len(gradients),) + problem.A.shape)
    if problem.variant == "W2":
        values = np.asarray(problem.densities.W(xs, As, gradients), dtype=float)
    else:
        values = recession(problem.densities.W, xs, As, gradients)
    pieces = np.split(values, np.cumsum([len(p.gradients) for p in competitors])[:-1])
    return [(fsum(np.repeat(v * p.domain.cell_volume, p.cells)) + jump, inexact)
            for p, v, (jump, inexact) in zip(competitors, pieces, priced)]


# ---------------------------------------------------------------------------
# competitor families
# ---------------------------------------------------------------------------


def _layer_column(values: np.ndarray, payload: np.ndarray) -> np.ndarray:
    """Per-layer values shaped to broadcast against the payload."""
    return values.reshape(values.shape + (1,) * payload.ndim)


def _jump_layers(problem: CellProblem, r: int) -> tuple[np.ndarray, np.ndarray]:
    """The layer centres ``z`` along the jump axis of ``unit_cube(N, r)``, and
    the elementary jump's layers: the payload above the mid-plane, 0 below."""
    z = _layer_column(_layer_layout(len(problem.x), r)["z"], problem.payload)
    return z, np.where(z > 0.0, problem.payload, np.zeros_like(problem.payload))


class StaircaseFamily:
    """Zero-trace prescribed-gradient staircases (the W1 default)."""

    name = "staircase"

    def candidates(self, problem: CellProblem, budget: int):
        base = max(2, problem.resolution)
        for level in range(budget):
            yield (base * 2**level,)

    def planes(self, problem: CellProblem, batch) -> list[Planes]:
        A = problem.A
        return [_layered(int(n), np.zeros((n,) + A.shape[:1]), np.broadcast_to(A, (n,) + A.shape),
                         problem.prescription) for (n,) in batch]


class ElementaryJumpFamily:
    """The single-plane competitor for the oriented-cube formulas."""

    name = "elementary_jump"

    def candidates(self, problem: CellProblem, budget: int):
        yield ()

    def planes(self, problem: CellProblem, batch) -> list[Planes]:
        _, const = _jump_layers(problem, problem.resolution)
        planes = _layered(problem.resolution, const, np.zeros(const.shape + (len(problem.x),)),
                          problem.prescription)
        return [planes] * len(batch)


class SplittingFamily:
    """Two parallel planes sharing the payload (probes subadditivity slack)."""

    name = "splitting"

    def candidates(self, problem: CellProblem, budget: int):
        fractions = (0.5,) if budget < 2 else (0.25, 0.5, 0.75)
        for alpha in fractions:
            yield (alpha, -1, 0.0)
        if budget >= 2 and problem.variant == "Gamma1":
            for alpha in fractions:
                for j in range(len(problem.lam)):
                    for beta in (-0.5, 0.5):
                        yield (alpha, j, beta)

    def planes(self, problem: CellProblem, batch) -> list[Planes]:
        payload = problem.payload
        N = len(problem.x)
        r = max(4, problem.resolution)
        z = _layer_column(_layer_layout(N, r)["z"], payload)
        out = []
        for alpha, j, beta in batch:
            part = alpha * payload
            if j >= 0:
                part[int(j)] += beta
            const = np.where(z <= -0.25, np.zeros_like(payload), np.where(z > 0.25, payload, part))
            out.append(_layered(r, const, np.zeros(const.shape + (N,)), problem.prescription))
        return out


class LaminateFamily:
    """Uniform-gradient staircase: grad v = M everywhere, slab jumps pay the move
    (the jump-free affine map v = L y when M = L); its planes are those of
    the zero-trace staircase of ``M - L``."""

    name = "laminate"

    def candidates(self, problem: CellProblem, budget: int):
        yield ()

    def planes(self, problem: CellProblem, batch) -> list[Planes]:
        r = problem.resolution
        L, M = problem.prescription.lin, problem.gradient
        lin = np.broadcast_to(M - L, (r,) + M.shape)
        planes = _layered(r, np.zeros((r,) + M.shape[:-1]), lin,
                          AffineBoundary.zero(M.shape[:-1], len(problem.x)))
        return [replace(planes, gradients=np.broadcast_to(M, lin.shape))] * len(batch)


class InclusionFamily:
    """Affine inside a grid-aligned box, boundary datum outside (W2 only)."""

    name = "inclusion"

    def candidates(self, problem: CellProblem, budget: int):
        N = len(problem.x)
        max_half = problem.resolution // 2 - 1
        if max_half < 1 or N > 3:
            return
        for half in itertools.product(range(1, max_half + 1), repeat=N):
            yield half + (0,) * N
        if budget >= 2:
            for h in (1, 2):
                if h + 1 > max_half:
                    continue
                for axis in range(N):
                    for shift in (-1, 1):
                        center = [0] * N
                        center[axis] = shift
                        yield (h,) * N + tuple(center)

    def planes(self, problem: CellProblem, batch) -> list[Planes]:
        """Per box: the grid facets on its faces (its grid field's jump set,
        less any rounding of ``L y`` off them) and one gradient per cell.

        One pass for all boxes over their stacked cell arrays (``L y`` and
        ``L`` outside each box, ``P y`` and ``P = (M - (1 - |R|) L) / |R|``
        inside), with one gather of the two cells of every face facet; the
        traces and jump test are the field's (``fields.interior_jumps``).
        """
        if not batch:
            return []
        N, r, C = len(problem.x), problem.resolution, len(batch)
        dom, centers = unit_cube(N, r), _cell_centers(N, r)
        lay = _box_layout(N, r, tuple(tuple(int(p) for p in params) for params in batch))
        L, inside, every, half = problem.prescription.lin, lay["inside"], lay["every"], lay["half"]
        vol = lay["volume"][:, None, None, None]
        P = (problem.gradient - (1.0 - vol) * L) / vol
        # the boxes' cell arrays, stacked; each einsum takes the subscripts and
        # operand shapes of the grid field's, so its sums round as the field's
        value = L.shape[:-1]
        const = np.tile(np.einsum("vwk,...k->...vw", L, centers).reshape((-1,) + value), (C, 1, 1))
        const[inside] = np.concatenate([np.einsum("vwk,...k->...vw", p, centers[box]).reshape((-1,) + value)
                                        for p, box in zip(P, lay["box"])])
        lin = np.tile(L, (C * dom.num_cells, 1, 1, 1))
        lin[inside] = P[inside // dom.num_cells]
        # each face facet's lower and upper cell, in one gather
        (minus, plus), (lin_lo, lin_hi) = const[lay["rows"]], lin[lay["rows"]]
        axis = lay["geometry"]["axis"]
        minus = minus + half * lin_lo[every, ..., axis]
        plus = plus - half * lin_hi[every, ..., axis]
        jump_lin = lin_hi - lin_lo
        jump_lin[every, ..., axis] = 0.0
        keep = ~(norm(plus - minus, 2) + norm(jump_lin, 3) <= DEFAULT_JUMP_TOL)
        facets = FacetTable(plus=plus, minus=minus, jump_lin=jump_lin, **lay["geometry"]).select(keep)
        columns = [getattr(facets, name) for name in FacetTable.__dataclass_fields__]
        edges = np.concatenate([[0], np.cumsum(keep)])[lay["edges"]]
        cells = np.ones(dom.num_cells, dtype=int)
        return [Planes(dom, FacetTable(*(column[a:b] for column in columns)), np.ones(b - a, dtype=int),
                       gradients, cells)
                for a, b, gradients in zip(edges[:-1], edges[1:], lin.reshape((C, -1) + L.shape))]


class GradientZigzagFamily:
    """Zero-average gradient oscillation added to the elementary jump (Gamma2)."""

    name = "gradient_zigzag"

    def candidates(self, problem: CellProblem, budget: int):
        if budget < 2:
            return
        for alpha in (0.25, 0.5):
            yield (alpha,)

    def planes(self, problem: CellProblem, batch) -> list[Planes]:
        N = len(problem.x)
        r = max(4, problem.resolution)
        z, base = _jump_layers(problem, r)
        out = []
        for (alpha,) in batch:
            D = alpha * problem.payload
            const = base + (np.abs(z) - 0.25) * D
            lin = np.zeros(const.shape + (N,))
            lin[..., N - 1] += np.where(z > 0.0, 1.0, -1.0) * D
            out.append(_layered(r, const, lin, problem.prescription))
        return out


# ---------------------------------------------------------------------------
# the sweep
# ---------------------------------------------------------------------------


def _estimate(problem: CellProblem, families, budget: int, forced: np.ndarray) -> EstimateResult:
    """Sweep the families for the best admissible competitor (the upper bound),
    and certify ``c |forced|`` from below when ``problem.psi`` is coercive with
    a declared constant ``c``: ``forced`` is the total directed jump that the
    boundary data pins on every admissible competitor (Gauss-Green).

    Each family builds its candidates in one ``planes`` call, one
    :class:`Planes` each; each competitor is admitted by
    ``check_admissibility``, and the admitted ones of every family are priced
    together in one ``competitor_energy`` call.  The best is the least
    ``(energy, family name, params)``.
    """
    if budget < 1:
        raise ValueError(f"budget must be at least 1 (the coarsest parameter grid), got {budget}")
    swept = [list(family.candidates(problem, budget)) for family in families]
    planes = [family.planes(problem, batch) for family, batch in zip(families, swept)]
    admitted = [[check_admissibility(problem, p) for p in built] for built in planes]
    prices = iter(competitor_energy(problem, [p for built, checks in zip(planes, admitted)
                                              for p, (ok, _) in zip(built, checks) if ok]))
    rows = []
    best = None                 # (energy, family, params, residual) of the best so far
    evaluations = 0
    any_inexact = False
    for family, batch, checks in zip(families, swept, admitted):
        for params, (ok, residual) in zip(batch, checks):
            params, energy = tuple(params), None
            if ok:
                energy, inexact = next(prices)
                evaluations += 1
                any_inexact = any_inexact or inexact > 0
                if best is None or (energy, family.name, params) < best[:3]:
                    best = (energy, family.name, params, residual)
            rows.append({"family": family.name, "params": params, "admissible": ok, "energy": energy})

    if best is None:
        payload = {name: getattr(problem, name).tolist()
                   for name in ("x", "A", "lam", "Lam", "nu", "L", "M")
                   if getattr(problem, name) is not None}
        raise EstimationError(
            f"no admissible competitor generated for {problem.variant}: {payload}")
    upper, best_family, best_params, residual = best
    c = problem.psi.constants.get("H5.lower") if problem.psi.coercive else None
    lower = None if c is None else c * float(norm(forced, forced.ndim))
    notes = "certified lower exceeded best upper; check declared constants" \
        if lower is not None and lower > upper else ""
    return EstimateResult(upper, lower, best_family, best_params, evaluations,
                          inexact_quadrature=any_inexact, admissibility_residual=residual,
                          rows=rows, notes=notes)


def estimate_W1(x, A, densities: DensityTriple, budget: int = 1,
                resolution: int = DEFAULT_RESOLUTION, families=None) -> EstimateResult:
    """Zero-trace prescribed-gradient formula for the first interfacial density.

    The zero trace forces the total directed jump of any competitor to equal
    minus the prescribed gradient, so coercivity certifies c1 |A| from below.
    """
    problem = CellProblem("W1", x, densities, A=np.atleast_2d(A), resolution=resolution)
    if families is None:
        families = [StaircaseFamily()]
    return _estimate(problem, families, budget, problem.A)


def estimate_gamma1(x, lam, nu, densities: DensityTriple, budget: int = 1,
                    resolution: int = DEFAULT_RESOLUTION, families=None) -> EstimateResult:
    """Elementary-jump boundary formula for the first interfacial density."""
    problem = CellProblem("Gamma1", x, densities, lam=lam, nu=nu, resolution=resolution)
    if families is None:
        families = [ElementaryJumpFamily(), SplittingFamily()]
    return _estimate(problem, families, budget, problem.lam)


def estimate_W2(x, A, L, M, densities: DensityTriple, budget: int = 1,
                resolution: int = DEFAULT_W2_RESOLUTION, families=None) -> EstimateResult:
    """Linear-boundary, prescribed-average-gradient formula (bulk + psi2).

    L and M are third-order tensors in the bilinear layout.  With a coercive
    second interfacial density the Gauss-Green closure certifies
    c2 |L - M| from below (the bulk term is nonnegative).
    """
    problem = CellProblem("W2", x, densities, A=A, L=L, M=M, resolution=resolution)
    if families is None:
        families = [LaminateFamily(), InclusionFamily()]
    return _estimate(problem, families, budget, problem.L - problem.M)


def estimate_gamma2(x, A, Lam, nu, densities: DensityTriple, budget: int = 1,
                    resolution: int = DEFAULT_RESOLUTION, families=None) -> EstimateResult:
    """Elementary-jump boundary formula for the second interfacial density,
    with the recession of W as the bulk integrand."""
    problem = CellProblem("Gamma2", x, densities, A=A, Lam=Lam, nu=nu, resolution=resolution)
    if families is None:
        families = [ElementaryJumpFamily(), SplittingFamily(), GradientZigzagFamily()]
    return _estimate(problem, families, budget, problem.Lam)
