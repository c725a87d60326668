"""Upper/lower bracketing of the four relaxed-density cell formulas.

The cell formulas are infima over all special-bounded-variation competitors;
exact values are out of reach, so each estimator returns an explicit bracket:
an upper bound from the best member of structured competitor families
(staircases, elementary jumps, plane splittings, uniform-gradient laminates,
inclusion boxes) and, where the interfacial densities are coercive with
declared constants, a certified lower bound from the discrete Gauss-Green
closure (the total directed jump mass of any admissible competitor is pinned
by its boundary data, and coercivity converts mass into energy).

Competitors on oriented cubes are built in rotated coordinates (the jump
normal mapped to the last axis); densities receive the true normals and
derivative slots are un-rotated before bulk terms are evaluated.  The
parameter sweep is a deterministic grid search (nested as the budget grows)
followed by coordinate descent on the inclusion boxes; ties break toward the
lexicographically smallest parameter vector.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dataclass_field, replace

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


@dataclass
class CellProblem:
    """One cell-formula instance with its frozen material point."""

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

    def __post_init__(self):
        self.x = np.asarray(self.x, dtype=float)
        for name in ("A", "lam", "Lam", "nu", "L", "M"):
            v = getattr(self, name)
            if v is not None:
                setattr(self, name, np.asarray(v, dtype=float))
        if self.nu is not None and abs(np.linalg.norm(self.nu) - 1.0) > 1e-12:
            raise ValueError("nu must be a unit vector")


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


def _bulk_energy(problem: CellProblem, field: PiecewiseAffineField,
                 R: np.ndarray | None) -> float:
    """Bulk term summed over the cells: W(x0, A, grad v) for W2, and the
    recession of W for the oriented-cube second formula (Gamma2)."""
    dom = field.domain
    lin = field.lin.reshape((-1,) + field.value_shape + (dom.ndim,))
    if R is not None:
        lin = np.einsum("...k,mk->...m", lin, R)
    xs = np.broadcast_to(problem.x, (lin.shape[0], len(problem.x)))
    As = np.broadcast_to(problem.A, (lin.shape[0],) + problem.A.shape)
    if problem.variant == "W2":
        vals = np.asarray(problem.densities.W(xs, As, lin), dtype=float)
    else:
        vals = recession(problem.densities.W, xs, As, lin)
    return fsum(vals * dom.cell_volume)


def competitor_energy(problem: CellProblem, field: PiecewiseAffineField,
                      R: np.ndarray | None = None) -> tuple[float, int]:
    facets, widths = field.jump_set(), field.domain.widths
    if problem.variant in ("W1", "Gamma1"):
        return interfacial_energy(problem.densities.psi1, facets, widths, problem.x, R)
    jump, inexact = interfacial_energy(problem.densities.psi2, facets, widths, problem.x, R)
    return _bulk_energy(problem, field, R) + jump, inexact


# ---------------------------------------------------------------------------
# admissibility
# ---------------------------------------------------------------------------


def _prescription(problem: CellProblem) -> BoundaryData:
    """The variant's prescribed boundary trace."""
    N = len(problem.x)
    if problem.variant == "W1":
        return AffineBoundary.zero(problem.A.shape[:1], N)
    if problem.variant == "W2":
        return AffineBoundary.linear(swap_layout(problem.L))
    payload = problem.lam if problem.variant == "Gamma1" else problem.Lam
    return StepBoundary(payload, N - 1, 0.0)


def check_admissibility(problem: CellProblem, field: PiecewiseAffineField) -> tuple[bool, float]:
    """Re-verify trace and gradient constraints before an energy may count.

    The trace residual compares the field's outer trace (the ``plus`` side of
    its outer faces) with the variant's prescription at every outer-face
    centroid.  The residuals are combined with ``np.max``, which propagates a
    NaN (Python's ``max`` may drop one), so a NaN in the gradient or the
    trace rejects the field.
    """
    dom = field.domain
    lin = field.lin
    if problem.variant == "W1":
        residual = float(np.max(np.abs(lin - problem.A)))
    elif problem.variant == "Gamma1":
        residual = float(np.max(np.abs(lin), initial=0.0))
    else:
        target = np.zeros(lin.shape[dom.ndim:]) if problem.variant == "Gamma2" \
            else swap_layout(problem.M)
        avg = np.sum(lin.reshape((-1,) + lin.shape[dom.ndim:]), axis=0) * dom.cell_volume
        residual = float(norm(avg - target, avg.ndim))
    faces = trace_boundary(field)
    want, _ = _prescription(problem).value_and_lin(faces.centroid)
    residual = float(np.max(np.abs(faces.plus - want), initial=residual))
    return residual <= ADMISSIBILITY_TOL, residual


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
        field = staircase(problem.A, int(n), unit_cube(len(problem.x), 1))
        return field, None


class ElementaryJumpFamily:
    """The single-plane competitor for the oriented-cube formulas."""

    name = "elementary_jump"

    def candidates(self, problem: CellProblem, budget: int):
        yield ()

    def build(self, problem: CellProblem, params):
        payload = problem.lam if problem.variant == "Gamma1" else problem.Lam
        field = elementary_jump(payload, ndim=len(problem.x), resolution=problem.resolution)
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
        payload = problem.lam if problem.variant == "Gamma1" else problem.Lam
        part = alpha * payload
        if j >= 0:
            part = part.copy()
            part[int(j)] += beta
        N = len(problem.x)
        dom = unit_cube(N, max(4, problem.resolution))
        centers = dom.cell_centers()
        z = centers[..., N - 1]
        shape = z.shape + (1,) * payload.ndim
        low = np.zeros_like(payload)
        const = np.where(z.reshape(shape) <= -0.25, low,
                         np.where(z.reshape(shape) > 0.25, payload, part))
        field = PiecewiseAffineField(dom, const, boundary_data=StepBoundary(payload, N - 1, 0.0))
        return field, rotation_to_last_axis(problem.nu)


class AffineFamily:
    """The jump-free competitor v = L y (admissible only when M = L)."""

    name = "affine"

    def candidates(self, problem: CellProblem, budget: int):
        yield ()

    def build(self, problem: CellProblem, params):
        N = len(problem.x)
        L_field = swap_layout(problem.L)
        dom = unit_cube(N, problem.resolution)
        centers = dom.cell_centers()
        const = np.einsum("vwk,...k->...vw", L_field, centers)
        lin = np.broadcast_to(L_field, dom.cells_shape + L_field.shape).copy()
        field = PiecewiseAffineField(dom, const, lin, boundary_data=AffineBoundary.linear(L_field))
        return field, None


class LaminateFamily:
    """Uniform-gradient staircase: grad v = M everywhere, slab jumps pay the move."""

    name = "laminate"

    def candidates(self, problem: CellProblem, budget: int):
        yield ()

    def build(self, problem: CellProblem, params):
        N = len(problem.x)
        L_field = swap_layout(problem.L)
        M_field = swap_layout(problem.M)
        dom = unit_cube(N, problem.resolution)
        centers = dom.cell_centers()
        const = np.einsum("vwk,...k->...vw", L_field, centers)
        lin = np.broadcast_to(M_field, dom.cells_shape + M_field.shape).copy()
        field = PiecewiseAffineField(dom, const, lin, boundary_data=AffineBoundary.linear(L_field))
        return field, None


class InclusionFamily:
    """Affine inside a grid-aligned box, boundary datum outside (W2 only)."""

    name = "inclusion"

    def candidates(self, problem: CellProblem, budget: int):
        res = problem.resolution
        N = len(problem.x)
        max_half = res // 2 - 1
        if max_half < 1:
            return
        halves = range(1, max_half + 1)
        if N > 3:
            return
        for half_cells in np.ndindex(*([len(list(halves))] * N)):
            half = tuple(h + 1 for h in half_cells)
            if max(half) > max_half:
                continue
            yield half + (0,) * N
        if budget >= 2:
            for half in ((1,) * N, (2,) * N):
                if max(half) > max_half:
                    continue
                for axis in range(N):
                    for shift in (-1, 1):
                        center = [0] * N
                        center[axis] = shift
                        if max(half[k] + abs(center[k]) for k in range(N)) <= max_half:
                            yield half + tuple(center)

    def build(self, problem: CellProblem, params):
        N = len(problem.x)
        half = np.asarray(params[:N], dtype=int)
        center = np.asarray(params[N:], dtype=int)
        res = problem.resolution
        dom = unit_cube(N, res)
        w = dom.widths
        L_field = swap_layout(problem.L)
        M_field = swap_layout(problem.M)
        vol_R = float(np.prod(2 * half * w))
        P_field = (M_field - (1.0 - vol_R) * L_field) / vol_R
        centers = dom.cell_centers()
        mid = (res // 2 + center).astype(int)
        idx = np.indices(dom.cells_shape).transpose(*range(1, N + 1), 0)
        inside = np.all((idx >= mid - half) & (idx < mid + half), axis=-1)
        const_out = np.einsum("vwk,...k->...vw", L_field, centers)
        const_in = np.einsum("vwk,...k->...vw", P_field, centers)
        sel = inside.reshape(inside.shape + (1, 1))
        const = np.where(sel, const_in, const_out)
        lin = np.where(sel[..., None], P_field, L_field)
        field = PiecewiseAffineField(dom, const, lin, boundary_data=AffineBoundary.linear(L_field))
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
                    if cand[:N] and min(cand[:N]) < 1:
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
        payload = problem.Lam
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


def _sweep(problem: CellProblem, families, budget: int) -> EstimateResult:
    if budget < 1:
        raise ValueError(f"budget must be at least 1 (the coarsest parameter grid), got {budget}")
    rows = []
    best = None
    evaluations = 0
    any_inexact = False

    def consider(family_name, params, field, R):
        nonlocal best, evaluations, any_inexact
        ok, residual = check_admissibility(problem, field)
        if not ok:
            rows.append({"family": family_name, "params": tuple(params), "admissible": False,
                         "energy": None})
            return None
        energy, inexact = competitor_energy(problem, field, R)
        evaluations += 1
        if inexact:
            any_inexact = True
        rows.append({"family": family_name, "params": tuple(params), "admissible": True,
                     "energy": energy})
        key = (energy, family_name, tuple(params))
        if best is None or key < (best["energy"], best["family"], best["params"]):
            best = {"energy": energy, "family": family_name, "params": tuple(params),
                    "residual": residual}
        return energy

    for family in families:
        for params in family.candidates(problem, budget):
            field, R = family.build(problem, params)
            consider(family.name, params, field, R)
        if hasattr(family, "refine") and best is not None and best["family"] == family.name:
            cache: dict[tuple, float | None] = {}

            def evaluate(params):
                if params not in cache:
                    field, R = family.build(problem, params)
                    cache[params] = consider(family.name, params, field, R)
                return cache[params]

            family.refine(problem, best["params"], evaluate, budget)

    if best is None:
        payload = {name: getattr(problem, name).tolist()
                   for name in ("x", "A", "lam", "Lam", "nu", "L", "M")
                   if getattr(problem, name) is not None}
        raise EstimationError(
            f"no admissible competitor generated for {problem.variant}: {payload}")
    return EstimateResult(
        upper=best["energy"],
        lower=None,
        best_family=best["family"],
        best_params=best["params"],
        evaluations=evaluations,
        seed=None,
        inexact_quadrature=any_inexact,
        admissibility_residual=best["residual"],
        rows=rows,
    )


def _certified_lower_interfacial(psi: InterfacialDensity, magnitude: float) -> float | None:
    """Coercivity times the forced total jump mass, when a constant is declared."""
    if not psi.coercive:
        return None
    c = psi.constants.get("H5.lower")
    if c is None:
        return None
    return c * magnitude


def estimate_W1(x, A, densities: DensityTriple, budget: int = 1,
                resolution: int = DEFAULT_RESOLUTION, families=None) -> EstimateResult:
    """Zero-trace prescribed-gradient formula for the first interfacial density.

    The zero trace forces the total directed jump of any competitor to equal
    minus the prescribed gradient, so coercivity certifies c1 |A| from below.
    """
    problem = CellProblem("W1", x, densities, A=np.atleast_2d(np.asarray(A, dtype=float)),
                          resolution=resolution)
    if families is None:
        families = [StaircaseFamily()]
    result = _sweep(problem, families, budget)
    result.lower = _certified_lower_interfacial(densities.psi1, float(norm(problem.A, problem.A.ndim)))
    if result.lower is not None and result.lower > result.upper:
        result.notes = "certified lower exceeded best upper; check declared constants"
    return result


def estimate_gamma1(x, lam, nu, densities: DensityTriple, budget: int = 1,
                    resolution: int = DEFAULT_RESOLUTION, families=None) -> EstimateResult:
    """Elementary-jump boundary formula for the first interfacial density."""
    problem = CellProblem("Gamma1", x, densities, lam=np.asarray(lam, dtype=float),
                          nu=np.asarray(nu, dtype=float), resolution=resolution)
    if families is None:
        families = [ElementaryJumpFamily(), SplittingFamily()]
    result = _sweep(problem, families, budget)
    result.lower = _certified_lower_interfacial(densities.psi1, float(np.linalg.norm(problem.lam)))
    return result


def estimate_W2(x, A, L, M, densities: DensityTriple, budget: int = 1,
                resolution: int = DEFAULT_W2_RESOLUTION, families=None) -> EstimateResult:
    """Linear-boundary, prescribed-average-gradient formula (bulk + psi2).

    L and M are third-order tensors in the bilinear layout.  With a coercive
    second interfacial density the Gauss-Green closure certifies
    c2 |L - M| from below (the bulk term is nonnegative).
    """
    problem = CellProblem("W2", x, densities, A=np.asarray(A, dtype=float),
                          L=np.asarray(L, dtype=float), M=np.asarray(M, dtype=float),
                          resolution=resolution)
    if families is None:
        families = [AffineFamily(), LaminateFamily(), InclusionFamily()]
    result = _sweep(problem, families, budget)
    delta = problem.L - problem.M
    result.lower = _certified_lower_interfacial(densities.psi2, float(norm(delta, delta.ndim)))
    return result


def estimate_gamma2(x, A, Lam, nu, densities: DensityTriple, budget: int = 1,
                    resolution: int = DEFAULT_RESOLUTION, families=None) -> EstimateResult:
    """Elementary-jump boundary formula for the second interfacial density,
    with the recession of W as the bulk integrand."""
    problem = CellProblem("Gamma2", x, densities, A=np.asarray(A, dtype=float),
                          Lam=np.asarray(Lam, dtype=float), nu=np.asarray(nu, dtype=float),
                          resolution=resolution)
    if families is None:
        families = [ElementaryJumpFamily(), SplittingFamily(), GradientZigzagFamily()]
    result = _sweep(problem, families, budget)
    result.lower = _certified_lower_interfacial(densities.psi2, float(norm(problem.Lam, problem.Lam.ndim)))
    return result


def _homogeneous_extension(estimate, head: tuple, theta, densities: DensityTriple,
                           kwargs: dict) -> EstimateResult:
    """``estimate(*head, nu, densities, **kwargs)`` extended with degree one
    in the direction: zero at theta = 0, else |theta| times the value at
    nu = theta / |theta|."""
    theta = np.asarray(theta, dtype=float)
    length = float(np.linalg.norm(theta))
    if length == 0.0:
        return EstimateResult(0.0, 0.0, "zero-direction", (), 0)
    result = estimate(*head, theta / length, densities, **kwargs)
    return replace(result, upper=length * result.upper,
                   lower=None if result.lower is None else length * result.lower)


def estimate_gamma1_extended(x, lam, theta, densities: DensityTriple, **kwargs) -> EstimateResult:
    """Degree-one homogeneous extension of the first boundary formula to
    non-unit directions."""
    return _homogeneous_extension(estimate_gamma1, (x, lam), theta, densities, kwargs)


def estimate_gamma2_extended(x, A, Lam, theta, densities: DensityTriple, **kwargs) -> EstimateResult:
    """Degree-one homogeneous extension of the second boundary formula."""
    return _homogeneous_extension(estimate_gamma2, (x, A, Lam), theta, densities, kwargs)
