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
few ulp).

The sweep runs over a list of problems of one variant (``estimate_batch``,
in blocks of ``_SWEEP_BLOCK`` problems); ``estimate_W1`` and its siblings are
its one-problem case.  A family builds all the candidates of all the
problems of a block in one call: the plane families in one stacked
``_layered`` pass per layer count, the inclusion boxes of a problem in one
pass over their cell arrays.  All the competitors of a block are admitted in
one pass (the discrete Gauss-Green identity and the variant's gradient
condition) and the admitted ones priced with one density call, each row at
its own problem's point and rotation.  The certificate, ``fsum`` and the
choice of the best competitor then run per problem, so an entry of a batch
is its one-problem solve bit for bit.

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
import math
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
from .integrate import norm
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
    coordinates.  ``forced`` is that jump as the certificate prices it:
    ``A``, ``lam``, ``L - M`` or ``Lam``.
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
    forced: np.ndarray = dataclass_field(init=False, repr=False)

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
            flux, self.forced = np.zeros_like(self.A), self.A
        elif self.variant == "W2":
            self.prescription = AffineBoundary.linear(swap_layout(self.L))
            self.gradient, data = swap_layout(self.M), (self.L, self.M)
            flux, self.forced = self.prescription.lin, self.L - self.M
        else:
            self.prescription = StepBoundary(self.payload, N - 1, 0.0)
            self.gradient, data = np.zeros(self.payload.shape + (N,)), (self.payload,)
            flux, self.forced = np.multiply.outer(self.payload, np.eye(N)[N - 1]), self.payload
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

    A family's ``planes(problems, batch)`` returns, per problem of
    ``problems``, one per candidate of ``batch``, each the same whatever else
    the problems and the batch hold.
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
    ``z`` holds the layers' centres along the last axis, and ``above`` says
    which outer rows lie above the mid-plane of the last axis.
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
               cells=np.full(r, r ** m), z=dom.axis_centers(m), above=centroid[outer, m] > 0.0)
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


def _layered(r: int, const: np.ndarray, lin: np.ndarray, step: np.ndarray) -> list[Planes]:
    """The planes of ``K = len(const)`` fields on ``unit_cube(N, r)``: field
    ``k`` equals ``const[k, i]`` and ``lin[k, i]`` in every cell of layer
    ``i``, and its prescribed outer trace is ``step[k]`` above the mid-plane
    of the last axis and 0 below (a ``StepBoundary``, or the zero
    ``AffineBoundary`` when ``step[k]`` is 0).

    The traces and the jump variation of each representative facet are the
    field's, by its own arithmetic (``PiecewiseAffineField``'s interior
    jumps and outer traces), and facets jumping by at most
    ``DEFAULT_JUMP_TOL`` are dropped, as the field drops them.  All K fields
    go in one pass, with a leading axis; the kept rows are sliced per field.
    """
    K, N = len(const), lin.shape[-1]
    lay = _layer_layout(N, r)
    axis, outer = lay["axis"], lay["boundary"]
    half = lay["half"] * lin  # half a cell width times the slope, per axis
    # each cell's trace at its lower and upper face along each axis: (face, field, layer, ..., axis)
    traces = np.stack([const[..., None] - half, const[..., None] + half])
    k = np.arange(K)[:, None]
    minus = traces[lay["side"], k, lay["behind"], ..., axis]
    plus = traces[0, k, lay["ahead"], ..., axis]
    plus[:, outer] = np.where(_layer_column(lay["above"], step[0]), step[:, None], 0.0)
    jump_lin = np.take(lin, lay["ahead"], axis=1)
    jump_lin[:, outer] = 0.0
    jump_lin -= np.take(lin, lay["behind"], axis=1)
    jump_lin[:, lay["every"], ..., axis] = 0.0
    vnd = step.ndim - 1
    keep = ~(norm(plus - minus, vnd) + norm(jump_lin, vnd + 1) <= DEFAULT_JUMP_TOL)
    columns = {name: np.broadcast_to(lay[name], keep.shape + lay[name].shape[1:])[keep]
               for name in ("axis", "index", "boundary", "normal", "area", "centroid", "count")}
    columns.update(plus=plus[keep], minus=minus[keep], jump_lin=jump_lin[keep])
    count = columns.pop("count")
    edges = np.concatenate([[0], np.cumsum(np.count_nonzero(keep, axis=1))]).tolist()
    dom = unit_cube(N, r)
    return [Planes(dom, FacetTable(**{name: column[a:b] for name, column in columns.items()}),
                   count[a:b], gradients, lay["cells"])
            for a, b, gradients in zip(edges[:-1], edges[1:], lin)]


def _admit(problems: list, competitors: list) -> tuple[np.ndarray, np.ndarray]:
    """Re-verify each competitor, against its own problem, before its energy
    may count: the gradient condition (cell by cell, or on average when
    ``averaged``) and the discrete Gauss-Green identity, the competitor's
    total directed jump being ``problem.directed``.  Residuals combine as
    ``np.max`` does (a NaN rejects); admitted when at most ``problem.tol``.

    One pass over the stacked gradients for the cellwise condition; the
    averages and the directed jumps are the one-competitor ``einsum`` sums,
    whose rounding the reported residual keeps.
    """
    if not competitors:
        return np.zeros(0, dtype=bool), np.zeros(0)
    if problems[0].averaged:
        averages = [np.einsum("j,j...->...", planes.cells, planes.gradients) * planes.domain.cell_volume
                    for planes in competitors]
        residual = np.array([float(norm(avg - problem.gradient, avg.ndim))
                             for problem, avg in zip(problems, averages)])
    else:
        sizes = [len(planes.gradients) for planes in competitors]
        gradients = np.concatenate([planes.gradients for planes in competitors])
        gap = np.abs(gradients - np.repeat([problem.gradient for problem in problems], sizes, axis=0))
        residual = np.maximum.reduceat(gap.reshape(len(gap), -1).max(axis=1), np.cumsum(sizes) - sizes)
    tables = [planes.facets for planes in competitors]
    directed = np.array([np.einsum("f...,f,fk->...k", f.jump, f.area * planes.counts, f.normal)
                         for planes, f in zip(competitors, tables)])
    gap = np.abs(directed - np.array([problem.directed for problem in problems]))
    residual = np.maximum(residual, gap.reshape(len(gap), -1).max(axis=1))
    return residual <= np.array([problem.tol for problem in problems]), residual


def check_admissibility(problem: CellProblem, planes: Planes) -> tuple[bool, float]:
    """One competitor's admissibility and residual, as the sweep's ``_admit``
    decides them."""
    ok, residual = _admit([problem], [planes])
    return bool(ok[0]), float(residual[0])


def _fsums(terms: np.ndarray, repeats: np.ndarray, sizes: list) -> list[float]:
    """Per run of ``sizes`` consecutive terms, the ``fsum`` of its terms, each
    counted ``repeats`` times."""
    edges = np.cumsum([0] + sizes).tolist()
    return [math.fsum(np.repeat(terms[a:b], repeats[a:b]).tolist()) for a, b in zip(edges, edges[1:])]


def competitor_energy(problems: list, competitors: list) -> list[tuple[float, int]]:
    """Energy of each competitor for its own problem (``problems`` holds one
    per competitor, all of one variant), and its count of centroid-only
    facets.

    One interfacial pass over the rows of all of them (one ``psi`` call, each
    row at its problem's point and rotation, plus the density's facet
    integral per row whose jump varies) and, for W2 and Gamma2, one bulk call
    over all their gradients: W(x0, A, .) for W2, its recession for Gamma2.
    Each term is counted once per facet or cell it stands for; the terms are
    the grid field's bit for bit and ``fsum`` rounds their exact sum, so each
    energy is that of the competitor's field.
    """
    if not competitors:
        return []
    lead = problems[0]
    tables = [planes.facets for planes in competitors]
    sizes = [len(table) for table in tables]
    table = FacetTable.concat(tables, len(lead.x), tables[0].plus.shape[1:])
    widths = np.repeat([planes.domain.widths for planes in competitors], sizes, axis=0)
    xs = np.repeat([problem.x for problem in problems], sizes, axis=0)
    rotations = None if lead.rotation is None else \
        np.repeat([problem.rotation for problem in problems], sizes, axis=0)
    terms, inexact = _interfacial_terms(lead.psi, table, widths, xs, rotations)
    counts = np.concatenate([planes.counts for planes in competitors])
    edges = np.cumsum([0] + sizes)
    centroid_only = np.diff(np.concatenate([[0], np.cumsum(counts * inexact)])[edges]).tolist()
    jumps = _fsums(terms, counts, sizes)
    if not lead.averaged:
        return list(zip(jumps, centroid_only))
    sizes = [len(planes.gradients) for planes in competitors]
    # in C order, as a field's cells: the bulk integrand's sums then round as the field's
    gradients = np.ascontiguousarray(np.concatenate([planes.gradients for planes in competitors]))
    if lead.rotation is not None:
        gradients = np.einsum("g...k,gmk->g...m", gradients,
                              np.repeat([problem.rotation for problem in problems], sizes, axis=0))
    xs = np.repeat([problem.x for problem in problems], sizes, axis=0)
    As = np.repeat([problem.A for problem in problems], sizes, axis=0)
    if lead.variant == "W2":
        values = np.asarray(lead.densities.W(xs, As, gradients), dtype=float)
    else:
        values = recession(lead.densities.W, xs, As, gradients)
    volumes = np.repeat([planes.domain.cell_volume for planes in competitors], sizes)
    bulk = _fsums(values * volumes, np.concatenate([planes.cells for planes in competitors]), sizes)
    return [(b + jump, c) for b, jump, c in zip(bulk, jumps, centroid_only)]


# ---------------------------------------------------------------------------
# competitor families
# ---------------------------------------------------------------------------


def _layer_column(values: np.ndarray, payload: np.ndarray) -> np.ndarray:
    """Per-layer values shaped to broadcast against one payload."""
    return values.reshape(values.shape + (1,) * payload.ndim)


def _payloads(problems: list) -> np.ndarray:
    """The jump payloads of the problems, stacked along a leading axis."""
    return np.array([problem.payload for problem in problems])


def _jump_layers(payloads: np.ndarray, N: int, r: int) -> tuple[np.ndarray, np.ndarray]:
    """The layer centres ``z`` along the jump axis of ``unit_cube(N, r)``,
    shaped to broadcast against one payload, and the elementary jump's
    layers of each payload: the payload above the mid-plane, 0 below."""
    z = _layer_column(_layer_layout(N, r)["z"], payloads[0])
    return z, np.where(z > 0.0, payloads[:, None], 0.0)


def _per_problem(built: list, P: int) -> list[list[Planes]]:
    """The planes of every candidate for each of ``P`` problems, candidate by
    candidate, as one list per problem."""
    return [built[p::P] for p in range(P)]


class StaircaseFamily:
    """Zero-trace prescribed-gradient staircases (the W1 default)."""

    name = "staircase"

    def candidates(self, problem: CellProblem, budget: int):
        base = max(2, problem.resolution)
        for level in range(budget):
            yield (base * 2**level,)

    def planes(self, problems: list, batch) -> list[list[Planes]]:
        A = np.array([problem.A for problem in problems])
        P = len(A)
        return _per_problem([planes for (n,) in batch
                             for planes in _layered(int(n), np.zeros((P, n) + A.shape[1:2]),
                                                    np.broadcast_to(A[:, None], (P, n) + A.shape[1:]),
                                                    np.zeros(A.shape[:2]))], P)


class ElementaryJumpFamily:
    """The single-plane competitor for the oriented-cube formulas."""

    name = "elementary_jump"

    def candidates(self, problem: CellProblem, budget: int):
        yield ()

    def planes(self, problems: list, batch) -> list[list[Planes]]:
        payloads, N, r = _payloads(problems), len(problems[0].x), problems[0].resolution
        _, const = _jump_layers(payloads, N, r)
        built = _layered(r, const, np.zeros(const.shape + (N,)), payloads)
        return [[planes] * len(batch) for planes in built]


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

    def planes(self, problems: list, batch) -> list[list[Planes]]:
        if not batch:
            return [[] for _ in problems]
        payloads, N, r = _payloads(problems), len(problems[0].x), max(4, problems[0].resolution)
        z = _layer_column(_layer_layout(N, r)["z"], payloads[0])
        # (candidate, problem, ...): the value of the middle layers
        parts = np.array([alpha * payloads for alpha, _, _ in batch])
        for part, (_, j, beta) in zip(parts, batch):
            if j >= 0:
                part[:, int(j)] += beta
        const = np.where(z <= -0.25, 0.0, np.where(z > 0.25, payloads[:, None], parts[:, :, None]))
        const = const.reshape((-1,) + const.shape[2:])
        built = _layered(r, const, np.zeros(const.shape + (N,)), np.concatenate([payloads] * len(batch)))
        return _per_problem(built, len(problems))


class LaminateFamily:
    """Uniform-gradient staircase: grad v = M everywhere, slab jumps pay the move
    (the jump-free affine map v = L y when M = L); its planes are those of
    the zero-trace staircase of ``M - L``."""

    name = "laminate"

    def candidates(self, problem: CellProblem, budget: int):
        yield ()

    def planes(self, problems: list, batch) -> list[list[Planes]]:
        r, P = problems[0].resolution, len(problems)
        L = np.array([problem.prescription.lin for problem in problems])
        M = np.array([problem.gradient for problem in problems])
        lin = np.broadcast_to((M - L)[:, None], (P, r) + M.shape[1:])
        built = _layered(r, np.zeros((P, r) + M.shape[1:-1]), lin, np.zeros(M.shape[:-1]))
        return [[replace(planes, gradients=np.broadcast_to(m, lin.shape[1:]))] * len(batch)
                for planes, m in zip(built, M)]


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

    def planes(self, problems: list, batch) -> list[list[Planes]]:
        return [self._boxes(problem, batch) for problem in problems]

    def _boxes(self, problem: CellProblem, batch) -> list[Planes]:
        """Per box: the grid facets on its faces (its grid field's jump set,
        less any rounding of ``L y`` off them) and one gradient per cell.

        One pass for all boxes of a problem over their stacked cell arrays
        (``L y`` and ``L`` outside each box, ``P y`` and
        ``P = (M - (1 - |R|) L) / |R|`` inside), with one gather of the two cells of every face facet; the
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

    def planes(self, problems: list, batch) -> list[list[Planes]]:
        if not batch:
            return [[] for _ in problems]
        payloads, N, r = _payloads(problems), len(problems[0].x), max(4, problems[0].resolution)
        z, base = _jump_layers(payloads, N, r)
        # (candidate, problem, layer, ...)
        D = np.array([alpha * payloads for (alpha,) in batch])[:, :, None]
        const = base + (np.abs(z) - 0.25) * D
        lin = np.zeros(const.shape + (N,))
        lin[..., N - 1] += np.where(z > 0.0, 1.0, -1.0) * D
        built = _layered(r, const.reshape((-1,) + const.shape[2:]), lin.reshape((-1,) + lin.shape[2:]),
                         np.concatenate([payloads] * len(batch)))
        return _per_problem(built, len(problems))


# ---------------------------------------------------------------------------
# the sweep
# ---------------------------------------------------------------------------


_FAMILIES = {"W1": (StaircaseFamily,), "Gamma1": (ElementaryJumpFamily, SplittingFamily),
             "W2": (LaminateFamily, InclusionFamily),
             "Gamma2": (ElementaryJumpFamily, SplittingFamily, GradientZigzagFamily)}
# problems per pass of the sweep: bounds the stacked competitors' arrays at any count
_SWEEP_BLOCK = 64


def _sweep(problems: list, families, budget: int) -> list:
    """Sweep the families for the best admissible competitor of each problem
    (its upper bound), and certify ``c |forced|`` from below when ``psi`` is
    coercive with a declared constant ``c``: ``forced`` is the total directed
    jump that the boundary data pins on every admissible competitor
    (Gauss-Green).

    The problems share their variant, densities, resolution and data
    shapes, so every family's candidates are those of the first.  Each
    family builds its candidates for all the problems in one ``planes`` call;
    all the competitors are admitted by one ``_admit``, and the admitted ones
    priced by one ``competitor_energy`` call.  Per problem the best is the
    least ``(energy, family name, params)``; a problem with no admissible
    competitor gets an :class:`EstimationError` as its entry.
    """
    if budget < 1:
        raise ValueError(f"budget must be at least 1 (the coarsest parameter grid), got {budget}")
    lead = problems[0]
    names = ("x",) + _VARIANT_DATA[lead.variant]
    if len({tuple(getattr(problem, name).shape for name in names) for problem in problems}) > 1:
        raise ValueError(f"the {lead.variant} problems of a batch must share the shapes of {names}")
    swept = [list(family.candidates(lead, budget)) for family in families]
    built = [family.planes(problems, batch) for family, batch in zip(families, swept)]
    owners, competitors = [], []
    for p, problem in enumerate(problems):
        for planes in built:
            owners += [problem] * len(planes[p])
            competitors += planes[p]
    admitted, residuals = _admit(owners, competitors)
    prices = iter(competitor_energy([o for o, ok in zip(owners, admitted) if ok],
                                    [c for c, ok in zip(competitors, admitted) if ok]))
    checks = iter(zip(admitted.tolist(), residuals.tolist()))
    return [_best(problem, families, swept, checks, prices) for problem in problems]


def _best(problem: CellProblem, families, swept: list, checks, prices) -> EstimateResult | EstimationError:
    """One problem's result from the next admission checks and prices of the
    sweep, one per candidate in family order."""
    rows = []
    best = None                 # (energy, family, params, residual) of the best so far
    evaluations = 0
    any_inexact = False
    for family, batch in zip(families, swept):
        for params in batch:
            (ok, residual), params, energy = next(checks), tuple(params), None
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
        return EstimationError(f"no admissible competitor generated for {problem.variant}: {payload}")
    upper, best_family, best_params, residual = best
    forced = problem.forced
    c = problem.psi.constants.get("H5.lower") if problem.psi.coercive else None
    lower = None if c is None else c * float(norm(forced, forced.ndim))
    notes = "certified lower exceeded best upper; check declared constants" \
        if lower is not None and lower > upper else ""
    return EstimateResult(upper, lower, best_family, best_params, evaluations,
                          inexact_quadrature=any_inexact, admissibility_residual=residual,
                          rows=rows, notes=notes)


def estimate_batch(variant: str, problems: list, densities: DensityTriple, budget: int = 1,
                   resolution: int | None = None, families=None) -> list:
    """Estimate many cell problems of one variant in one sweep.

    ``problems`` holds, per problem, the arguments its estimator takes before
    ``densities``: ``(x, A)`` for W1, ``(x, lam, nu)`` for Gamma1,
    ``(x, A, L, M)`` for W2 and ``(x, A, Lam, nu)`` for Gamma2, all of one
    shape.  Returns one entry per problem, in order: the estimator's
    :class:`EstimateResult` bit for bit, or the :class:`EstimationError` it
    raises, so that the caller decides which failure to report first.
    Invalid data raise ``ValueError`` at once.  The problems are swept
    ``_SWEEP_BLOCK`` at a time, which bounds the memory at any count.
    """
    if resolution is None:
        resolution = DEFAULT_W2_RESOLUTION if variant == "W2" else DEFAULT_RESOLUTION
    if families is None:
        families = [family() for family in _FAMILIES.get(variant, ())]
    names = _VARIANT_DATA.get(variant, ())
    results = []
    for start in range(0, len(problems), _SWEEP_BLOCK):
        block = [CellProblem(variant, x, densities, resolution=resolution, **dict(zip(names, data)))
                 for x, *data in problems[start:start + _SWEEP_BLOCK]]
        results += _sweep(block, families, budget)
    return results


def _one(results: list) -> EstimateResult:
    (result,) = results
    if isinstance(result, EstimationError):
        raise result
    return result


def estimate_W1(x, A, densities: DensityTriple, budget: int = 1,
                resolution: int = DEFAULT_RESOLUTION, families=None) -> EstimateResult:
    """Zero-trace prescribed-gradient formula for the first interfacial density.

    The zero trace forces the total directed jump of any competitor to equal
    minus the prescribed gradient, so coercivity certifies c1 |A| from below.
    """
    return _one(estimate_batch("W1", [(x, np.atleast_2d(A))], densities, budget, resolution, families))


def estimate_gamma1(x, lam, nu, densities: DensityTriple, budget: int = 1,
                    resolution: int = DEFAULT_RESOLUTION, families=None) -> EstimateResult:
    """Elementary-jump boundary formula for the first interfacial density."""
    return _one(estimate_batch("Gamma1", [(x, lam, nu)], densities, budget, resolution, families))


def estimate_W2(x, A, L, M, densities: DensityTriple, budget: int = 1,
                resolution: int = DEFAULT_W2_RESOLUTION, families=None) -> EstimateResult:
    """Linear-boundary, prescribed-average-gradient formula (bulk + psi2).

    L and M are third-order tensors in the bilinear layout.  With a coercive
    second interfacial density the Gauss-Green closure certifies
    c2 |L - M| from below (the bulk term is nonnegative).
    """
    return _one(estimate_batch("W2", [(x, A, L, M)], densities, budget, resolution, families))


def estimate_gamma2(x, A, Lam, nu, densities: DensityTriple, budget: int = 1,
                    resolution: int = DEFAULT_RESOLUTION, families=None) -> EstimateResult:
    """Elementary-jump boundary formula for the second interfacial density,
    with the recession of W as the bulk integrand."""
    return _one(estimate_batch("Gamma2", [(x, A, Lam, nu)], densities, budget, resolution, families))
