"""Upper/lower bracketing of the four relaxed-density cell formulas.

The cell formulas are infima over all special-bounded-variation competitors;
exact values are out of reach, so each estimator returns an explicit bracket:
an upper bound from the best member of structured competitor families
(staircases, elementary jumps, plane splittings, uniform-gradient laminates,
inclusion boxes) and, where the interfacial densities are coercive with
declared constants, a certified lower bound from the discrete Gauss-Green
closure (the total directed jump mass of any admissible competitor is pinned
by its boundary data, and coercivity converts mass into energy).

A :class:`CellProblem` fixes once, in field layout, what its variant
decides: the interfacial density, the jump payload, the prescribed outer
trace and the prescribed gradient (cell by cell for W1/Gamma1, on average
for W2/Gamma2).  The admissibility check, the competitor energy and every
family read those fields.  The W2 families are the laminate (the affine map
``L y`` when ``M = L``) and the inclusion boxes.

Competitors on oriented cubes are built in rotated coordinates (the jump
normal mapped to the last axis); densities receive the true normals and
derivative slots are un-rotated before bulk terms are evaluated.  The
parameter sweep is a deterministic grid search (nested as the budget grows)
followed by coordinate descent on the inclusion boxes; ties break toward the
lexicographically smallest parameter vector.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field as dataclass_field

import numpy as np

from .constructions import elementary_jump, staircase
from .densities import DensityTriple, InterfacialDensity, recession
from .energy import interfacial_energy
from .fields import (
    AffineBoundary,
    BoundaryData,
    PiecewiseAffineField,
    StepBoundary,
    trace_boundary,
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

    ``__post_init__`` checks the shapes of the variant's data and fixes, once
    and in field layout, what the variant decides: the interfacial density
    ``psi``, the jump ``payload``, the prescribed outer trace
    ``prescription``, the prescribed ``gradient`` (cell by cell, or on
    average when ``averaged``) and the admissibility tolerance ``tol``,
    relative to the size of the prescribed data.
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

    def __post_init__(self):
        self.x = np.asarray(self.x, dtype=float)
        for name in ("A", "lam", "Lam", "nu", "L", "M"):
            v = getattr(self, name)
            if v is not None:
                setattr(self, name, np.asarray(v, dtype=float))
        self._check_shapes()
        if self.nu is not None and abs(np.linalg.norm(self.nu) - 1.0) > 1e-12:
            raise ValueError("nu must be a unit vector")
        N = len(self.x)
        self.averaged = self.variant in ("W2", "Gamma2")
        self.psi = self.densities.psi2 if self.averaged else self.densities.psi1
        self.payload = self.lam if self.variant == "Gamma1" else self.Lam
        if self.variant == "W1":
            self.prescription = AffineBoundary.zero(self.A.shape[:1], N)
            self.gradient, data = self.A, (self.A,)
        elif self.variant == "W2":
            self.prescription = AffineBoundary.linear(swap_layout(self.L))
            self.gradient, data = swap_layout(self.M), (self.L, self.M)
        else:
            self.prescription = StepBoundary(self.payload, N - 1, 0.0)
            self.gradient, data = np.zeros(self.payload.shape + (N,)), (self.payload,)
        self.tol = ADMISSIBILITY_TOL * max(1.0, *(float(norm(t, t.ndim)) for t in data))

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
# energy of a competitor
# ---------------------------------------------------------------------------


def competitor_energy(problem: CellProblem, field: PiecewiseAffineField,
                      R: np.ndarray | None = None) -> tuple[float, int]:
    """Interfacial energy of the field's jump set, plus, for the second-order
    formulas, the bulk term summed over the cells: W(x0, A, grad v) for W2 and
    the recession of W for the oriented-cube formula (Gamma2)."""
    dom = field.domain
    jump, inexact = interfacial_energy(problem.psi, field.jump_set(), dom.widths, problem.x, R)
    if not problem.averaged:
        return jump, inexact
    lin = field.lin.reshape((-1,) + field.value_shape + (dom.ndim,))
    if R is not None:
        lin = np.einsum("...k,mk->...m", lin, R)
    xs = np.broadcast_to(problem.x, (lin.shape[0], len(problem.x)))
    As = np.broadcast_to(problem.A, (lin.shape[0],) + problem.A.shape)
    if problem.variant == "W2":
        vals = np.asarray(problem.densities.W(xs, As, lin), dtype=float)
    else:
        vals = recession(problem.densities.W, xs, As, lin)
    return fsum(vals * dom.cell_volume) + jump, inexact


# ---------------------------------------------------------------------------
# admissibility
# ---------------------------------------------------------------------------


def check_admissibility(problem: CellProblem, field: PiecewiseAffineField) -> tuple[bool, float]:
    """Re-verify trace and gradient constraints before an energy may count.

    The gradient residual compares the field's gradient with the prescribed
    one cell by cell, or its average over the cube when ``problem.averaged``.
    The trace residual compares the field's outer trace (the ``plus`` side of
    its outer faces) with ``problem.prescription`` at every outer-face
    centroid.  The residuals are combined with ``np.max``, which propagates a
    NaN (Python's ``max`` may drop one), so a NaN in the gradient or the
    trace rejects the field.  The field is admissible when the residual is
    at most ``problem.tol``.
    """
    dom = field.domain
    lin = field.lin
    if problem.averaged:
        avg = np.sum(lin.reshape((-1,) + lin.shape[dom.ndim:]), axis=0) * dom.cell_volume
        residual = float(norm(avg - problem.gradient, avg.ndim))
    else:
        residual = float(np.max(np.abs(lin - problem.gradient), initial=0.0))
    faces = trace_boundary(field)
    want, _ = problem.prescription.value_and_lin(faces.centroid)
    residual = float(np.max(np.abs(faces.plus - want), initial=residual))
    return residual <= problem.tol, residual


# ---------------------------------------------------------------------------
# competitor families
# ---------------------------------------------------------------------------


class StaircaseFamily:
    """Zero-trace prescribed-gradient staircases (the W1 default)."""

    name = "staircase"

    def candidates(self, problem: CellProblem, budget: int):
        base = max(2, problem.resolution)
        for level in range(budget):
            yield (base * 2**level,)

    def build(self, problem: CellProblem, params):
        (n,) = params
        field = staircase(problem.A, int(n), unit_cube(len(problem.x), n))
        return field, None


class ElementaryJumpFamily:
    """The single-plane competitor for the oriented-cube formulas."""

    name = "elementary_jump"

    def candidates(self, problem: CellProblem, budget: int):
        yield ()

    def build(self, problem: CellProblem, params):
        field = elementary_jump(problem.payload, ndim=len(problem.x), resolution=problem.resolution)
        return field, rotation_to_last_axis(problem.nu)


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

    def build(self, problem: CellProblem, params):
        alpha, j, beta = params
        payload = problem.payload
        part = alpha * payload
        if j >= 0:
            part[int(j)] += beta
        N = len(problem.x)
        dom = unit_cube(N, max(4, problem.resolution))
        centers = dom.cell_centers()
        z = centers[..., N - 1]
        shape = z.shape + (1,) * payload.ndim
        low = np.zeros_like(payload)
        const = np.where(z.reshape(shape) <= -0.25, low,
                         np.where(z.reshape(shape) > 0.25, payload, part))
        field = PiecewiseAffineField(dom, const, boundary_data=problem.prescription)
        return field, rotation_to_last_axis(problem.nu)


class LaminateFamily:
    """Uniform-gradient staircase: grad v = M everywhere, slab jumps pay the move
    (the jump-free affine map v = L y when M = L)."""

    name = "laminate"

    def candidates(self, problem: CellProblem, budget: int):
        yield ()

    def build(self, problem: CellProblem, params):
        dom = unit_cube(len(problem.x), problem.resolution)
        L_field = problem.prescription.lin
        const = np.einsum("vwk,...k->...vw", L_field, dom.cell_centers())
        lin = np.broadcast_to(problem.gradient, dom.cells_shape + L_field.shape).copy()
        field = PiecewiseAffineField(dom, const, lin, boundary_data=problem.prescription)
        return field, None


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

    def build(self, problem: CellProblem, params):
        N = len(problem.x)
        half = np.asarray(params[:N], dtype=int)
        mid = problem.resolution // 2 + np.asarray(params[N:], dtype=int)
        dom = unit_cube(N, problem.resolution)
        L_field = problem.prescription.lin
        vol_R = float(np.prod(2 * half * dom.widths))
        P_field = (problem.gradient - (1.0 - vol_R) * L_field) / vol_R
        box = tuple(slice(m - h, m + h) for m, h in zip(mid, half))
        centers = dom.cell_centers()
        const = np.einsum("vwk,...k->...vw", L_field, centers)
        const[box] = np.einsum("vwk,...k->...vw", P_field, centers[box])
        lin = np.broadcast_to(L_field, dom.cells_shape + L_field.shape).copy()
        lin[box] = P_field
        field = PiecewiseAffineField(dom, const, lin, boundary_data=problem.prescription)
        return field, None

    def refine(self, problem: CellProblem, params, evaluate, budget: int):
        """Deterministic coordinate descent over half-sides and centers."""
        N = len(problem.x)
        best_params = tuple(int(p) for p in params)
        best_energy = evaluate(best_params)
        max_iter = 4 * budget
        for _ in range(max_iter):
            improved = False
            for slot in range(2 * N):
                for delta in (-1, 1):
                    cand = list(best_params)
                    cand[slot] += delta
                    cand = tuple(cand)
                    if min(cand[:N]) < 1:
                        continue
                    if max(cand[k] + abs(cand[N + k]) for k in range(N)) > problem.resolution // 2 - 1:
                        continue
                    e = evaluate(cand)
                    if e is not None and e < best_energy - 1e-15:
                        best_params, best_energy = cand, e
                        improved = True
            if not improved:
                break
        return best_params, best_energy


class GradientZigzagFamily:
    """Zero-average gradient oscillation added to the elementary jump (Gamma2)."""

    name = "gradient_zigzag"

    def candidates(self, problem: CellProblem, budget: int):
        if budget < 2:
            return
        for alpha in (0.25, 0.5):
            yield (alpha,)

    def build(self, problem: CellProblem, params):
        (alpha,) = params
        N = len(problem.x)
        dom = unit_cube(N, max(4, problem.resolution))
        payload = problem.payload
        base = elementary_jump(payload, domain=dom)
        D = alpha * payload
        centers = dom.cell_centers()
        z = centers[..., N - 1]
        sign = np.where(z > 0.0, 1.0, -1.0)
        tri = np.abs(z) - 0.25
        const = base.const + tri.reshape(tri.shape + (1,) * payload.ndim) * D
        lin = base.lin.copy()
        lin[..., N - 1] += sign.reshape(sign.shape + (1,) * payload.ndim) * D
        field = PiecewiseAffineField(dom, const, lin, boundary_data=base.boundary_data)
        return field, rotation_to_last_axis(problem.nu)


# ---------------------------------------------------------------------------
# the sweep
# ---------------------------------------------------------------------------


def _estimate(problem: CellProblem, families, budget: int, forced: np.ndarray) -> EstimateResult:
    """Sweep the families for the best admissible competitor (the upper bound),
    and certify ``c |forced|`` from below when ``problem.psi`` is coercive with
    a declared constant ``c``: ``forced`` is the total directed jump that the
    boundary data pins on every admissible competitor (Gauss-Green)."""
    if budget < 1:
        raise ValueError(f"budget must be at least 1 (the coarsest parameter grid), got {budget}")
    rows = []
    best = None                 # (energy, family, params, residual) of the best so far
    evaluations = 0
    any_inexact = False

    def consider(family_name, params, field, R):
        nonlocal best, evaluations, any_inexact
        params = tuple(params)
        ok, residual = check_admissibility(problem, field)
        energy = None
        if ok:
            energy, inexact = competitor_energy(problem, field, R)
            evaluations += 1
            any_inexact = any_inexact or inexact > 0
            if best is None or (energy, family_name, params) < best[:3]:
                best = (energy, family_name, params, residual)
        rows.append({"family": family_name, "params": params, "admissible": ok, "energy": energy})
        return energy

    for family in families:
        for params in family.candidates(problem, budget):
            field, R = family.build(problem, params)
            consider(family.name, params, field, R)
        if hasattr(family, "refine") and best is not None and best[1] == family.name:
            cache: dict[tuple, float | None] = {}

            def evaluate(params):
                if params not in cache:
                    field, R = family.build(problem, params)
                    cache[params] = consider(family.name, params, field, R)
                return cache[params]

            family.refine(problem, best[2], evaluate, budget)

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
