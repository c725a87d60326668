"""Per-facet, per-cell and per-point loops that the array code in ``sdrelax`` replaced.

They build one ``JumpFacet`` per facet and one dict per outer face, filter
and sum facet by facet, integrate the L1 norm cell by cell (a scalar field's
with one ``PiecewisePoly`` integral of ``|affine|`` per cell), evaluate the
recession function one point at a time, price the Gamma2 bulk term cell by
cell, and assemble the relaxed energy with one estimator call per cell and
facet (no memo).  The plane families' competitors and the inclusion box
are built here as fields on the cube (``GridFamily``, ``of_field``), the
sequence's corrected primitive samples its target at the cell centres
through ``evaluate``, and the bulk term of ``total_energy`` picks its
sub-box with a mask over the whole grid.  The worked example's random competitors are drawn and priced one
box and one laminate at a time.  A cell problem is one ``CellProblem`` object,
one row of ``cellformulas.ProblemTable`` fixed alone, and ``Psi2_proj``'s
facet integral runs one facet at a time (``facet_integral``).  The property tests in
``test_facet_table.py``, ``test_densities.py``, ``test_cellformulas.py``,
``test_assembly.py``, ``test_integrate.py``, ``test_constructions.py``,
``test_energy.py`` and ``test_trace_formula.py`` require the library code to
reproduce their results bit for bit (the laminate to a stated bound).

The fields, masses and quadrature points that only the tests build (the
zero-trace staircase, the elementary jump, midpoint sampling, the jump mass,
the L1 norm, the tensor Gauss-Legendre points) live here too.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dataclass_field

import numpy as np
from numpy.polynomial import polynomial as npoly

from sdrelax.assembly import _trace_formula_estimate
from sdrelax.cellformulas import (
    _SHAPES,
    _VARIANT_DATA,
    ADMISSIBILITY_TOL,
    DEFAULT_RESOLUTION,
    Planes,
    ProblemTable,
    estimate_W1,
    estimate_W2,
    estimate_gamma1,
    estimate_gamma2,
    rotation_to_last_axis,
)
from sdrelax.constructions import gradient_primitive
from sdrelax.densities import DEFAULT_SCHEDULE, DensityTriple, InterfacialDensity
from sdrelax.fields import (
    _L1_QUAD_ORDER,
    AffineBoundary,
    BoundaryData,
    BoxDomain,
    PiecewiseAffineField,
    StepBoundary,
    _l1_of_cell_data,
    unit_cube,
)
from sdrelax.integrate import fsum, gauss_legendre_rule, tensor_points
from sdrelax.integrate import norm as _vnorm
from sdrelax import integrate, trace_formula
from sdrelax.trace_formula import (
    BoxInclusion,
    _slice,
    closed_form_W2,
    default_box_family,
    is_in_S,
    swap_layout,
)


@dataclass(frozen=True)
class JumpFacet:
    """One grid facet carrying a jump.

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
        return float(_vnorm(self.jump, self.jump.ndim))


def rows(table) -> list[JumpFacet]:
    """A ``FacetTable`` read row by row, as the per-facet loops saw it."""
    jump, trace_mean = table.jump, table.trace_mean
    return [JumpFacet(
        axis=int(table.axis[i]),
        index=tuple(int(v) for v in table.index[i]),
        boundary=bool(table.boundary[i]),
        normal=np.array(table.normal[i]),
        area=float(table.area[i]),
        jump=np.array(jump[i]),
        jump_lin=np.array(table.jump_lin[i]),
        centroid=np.array(table.centroid[i]),
        trace_mean=np.array(trace_mean[i]),
    ) for i in range(len(table))]


def interior_facets(field) -> list[JumpFacet]:
    dom = field.domain
    N = dom.ndim
    vnd = field.value_ndim
    facets: list[JumpFacet] = []
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
        trace_lo = field.const[sl_lo] + 0.5 * h * field.lin[sl_lo + (Ellipsis, m)]
        trace_hi = field.const[sl_hi] - 0.5 * h * field.lin[sl_hi + (Ellipsis, m)]
        jump = trace_hi - trace_lo
        tmean = 0.5 * (trace_hi + trace_lo)
        jlin = field.lin[sl_hi] - field.lin[sl_lo]
        jlin = jlin.copy()
        jlin[..., m] = 0.0
        mag = _vnorm(jump, vnd) + _vnorm(jlin, vnd + 1)
        normal = np.zeros(N)
        normal[m] = 1.0
        cent = centers[sl_lo].copy()
        cent[..., m] += 0.5 * h
        for cell in np.argwhere(~(mag <= field.jump_tol)):  # a NaN magnitude counts as a jump
            cid = tuple(int(c) for c in cell)
            facets.append(JumpFacet(
                axis=m, index=cid, boundary=False, normal=normal.copy(), area=area,
                jump=np.array(jump[cid]), jump_lin=np.array(jlin[cid]),
                centroid=np.array(cent[cid]), trace_mean=np.array(tmean[cid])))
    return facets


def boundary_facets(field) -> list[JumpFacet]:
    if field.boundary_data is None:
        return []
    dom = field.domain
    N = dom.ndim
    vnd = field.value_ndim
    facets: list[JumpFacet] = []
    centers = dom.cell_centers()
    for m in range(N):
        h = dom.widths[m]
        area = dom.cell_volume / h
        for side, normal_sign in ((0, -1.0), (-1, 1.0)):
            sl = [slice(None)] * N
            sl[m] = side
            sl = tuple(sl)
            trace = field.const[sl] + normal_sign * 0.5 * h * field.lin[sl + (Ellipsis, m)]
            cent = centers[sl].copy()
            cent = cent.reshape((-1, N))
            cent[:, m] = dom.lower[m] if side == 0 else dom.upper[m]
            prescribed, plin = field.boundary_data.value_and_lin(cent)
            trace_flat = trace.reshape((-1,) + field.value_shape)
            lin_flat = field.lin[sl].reshape((-1,) + field.value_shape + (N,))
            jump = prescribed - trace_flat
            jlin = plin - lin_flat
            jlin = jlin.copy()
            jlin[..., m] = 0.0
            mag = _vnorm(jump, vnd) + _vnorm(jlin, vnd + 1)
            normal = np.zeros(N)
            normal[m] = normal_sign
            side_idx = 0 if side == 0 else int(dom.resolution[m]) - 1
            grid_idx = np.argwhere(np.ones(trace.shape[: N - 1], dtype=bool)) if N > 1 else np.array([[]])
            for flat_i in range(trace_flat.shape[0]):
                if mag.ravel()[flat_i] <= field.jump_tol:
                    continue
                if N > 1:
                    rest = tuple(int(v) for v in grid_idx[flat_i])
                    cid = rest[:m] + (side_idx,) + rest[m:]
                else:
                    cid = (side_idx,)
                facets.append(JumpFacet(
                    axis=m, index=cid, boundary=True, normal=normal.copy(), area=area,
                    jump=np.array(jump[flat_i]), jump_lin=np.array(jlin[flat_i]),
                    centroid=np.array(cent[flat_i]),
                    trace_mean=np.array(0.5 * (prescribed[flat_i] + trace_flat[flat_i]))))
    return facets


def jump_set(field) -> list[JumpFacet]:
    return interior_facets(field) + boundary_facets(field)


def jump_mass_by_facet(field) -> float:
    return fsum([f.magnitude * f.area for f in jump_set(field)])


def in_ranges(index: tuple, cell_ranges) -> bool:
    return all(lo <= i < hi for i, (lo, hi) in zip(index, cell_ranges))


def interfacial_energy(psi, facets: list[JumpFacet], widths) -> tuple[float, int]:
    """The energy module's routine: densities at the facet centroids."""
    plain, hooked = [], []
    for f in facets:
        if psi.facet_integral is not None and np.any(f.jump_lin != 0.0):
            hooked.append(f)
        else:
            plain.append(f)
    terms = []
    inexact = 0
    if plain:
        x = np.stack([f.centroid for f in plain])
        payload = np.stack([f.jump for f in plain])
        nu = np.stack([f.normal for f in plain])
        vals = np.asarray(psi(x, payload, nu), dtype=float)
        terms.extend(float(v) * f.area for v, f in zip(vals, plain))
        inexact = sum(1 for f in plain if np.any(f.jump_lin != 0.0))
    for f in hooked:
        tangent_axes = [k for k in range(len(widths)) if k != f.axis]
        twidths = np.asarray([widths[k] for k in tangent_axes], dtype=float)
        terms.append(facet_integral(psi, f.centroid, f.jump, f.jump_lin, f.normal, twidths, tangent_axes))
    return fsum(terms), inexact


def facet_energy(psi, field, x0, R) -> tuple[float, int]:
    """The cell-formula routine: densities at a frozen point, rotated normals."""
    widths = field.domain.widths
    facets = jump_set(field)
    terms = []
    inexact = 0
    exact_idx = [i for i, f in enumerate(facets)
                 if psi.facet_integral is None or not np.any(f.jump_lin != 0.0)]
    hook_idx = [i for i, f in enumerate(facets)
                if psi.facet_integral is not None and np.any(f.jump_lin != 0.0)]
    if exact_idx:
        payload = np.stack([facets[i].jump for i in exact_idx])
        normals = np.stack([facets[i].normal for i in exact_idx])
        if R is not None:
            normals = normals @ R.T
        xs = np.broadcast_to(x0, (len(exact_idx), len(x0)))
        vals = np.asarray(psi(xs, payload, normals), dtype=float)
        terms.extend(float(v) * facets[i].area for v, i in zip(vals, exact_idx))
        inexact += sum(1 for i in exact_idx if np.any(facets[i].jump_lin != 0.0))
    for i in hook_idx:
        f = facets[i]
        normal = f.normal if R is None else R @ f.normal
        tangent_axes = [k for k in range(len(widths)) if k != f.axis]
        twidths = np.asarray([widths[k] for k in tangent_axes], dtype=float)
        terms.append(facet_integral(psi, x0, f.jump, f.jump_lin, normal, twidths, tangent_axes))
    return fsum(terms), inexact


def proj_facet_terms(psi, x, jump, jump_lin, nu, tangential_widths, tangent_axes) -> tuple[float, np.ndarray]:
    """``Psi2_proj``'s integrand on one facet, ``nu . (J(y) a)``, as the
    affine function ``s0 + grad . t`` of the tangential offset: two
    one-facet ``einsum`` sums."""
    a = np.asarray(psi.params["a"], dtype=float)
    s0 = float(np.einsum("i,ij,j->", nu, jump, a))
    grad = np.array([float(np.einsum("i,ij,j->", nu, jump_lin[..., k], a)) for k in tangent_axes])
    return s0, grad


def facet_integral(psi, x, jump, jump_lin, nu, tangential_widths, tangent_axes) -> float:
    """``Psi2_proj``'s exact integral over one facet: the per-row loop that
    ``energy._interfacial_terms`` ran before the density's facet integral
    took arrays of rows (one ``box_abs_affine`` call per facet)."""
    s0, grad = proj_facet_terms(psi, x, jump, jump_lin, nu, tangential_widths, tangent_axes)
    return integrate.box_abs_affine(s0, grad, tangential_widths)


def l1_of_cell_data(dom, const, lin, value_shape, quad_order) -> float:
    widths = dom.widths
    vol = dom.cell_volume
    scalar = int(np.prod(value_shape, dtype=int)) <= 1
    vnd = len(value_shape)
    if np.all(lin == 0.0):
        mags = _vnorm(const, vnd)
        return fsum(mags * vol)
    flat_c = const.reshape((-1,) + value_shape)
    flat_l = lin.reshape((-1,) + value_shape + (dom.ndim,))
    terms = []
    if scalar:
        for c, b in zip(flat_c.reshape(flat_c.shape[0], -1), flat_l.reshape(flat_l.shape[0], -1, dom.ndim)):
            terms.append(box_abs_affine(float(c[0]) if c.size else float(c), b[0] if b.size else b, widths))
    else:
        pts, wts = gauss_legendre_points(-widths / 2.0, widths / 2.0, quad_order)
        for c, b in zip(flat_c, flat_l):
            vals = c + _lin_at_points(b, pts)
            terms.append(float(np.dot(_vnorm(vals, vnd), wts)))
    return fsum(terms)


def _lin_at_points(b, pts) -> np.ndarray:
    """``b . p`` at each point: (points,) + value shape.  In 3D the products
    are added as ``(p_0 + p_2) + p_1``, the order numpy's einsum takes on an
    AVX-512 host, written out (as the library writes it) so that no host's
    SIMD width decides the last bits; other dimensions keep the einsum."""
    if pts.shape[1] != 3:
        return np.einsum("...k,mk->m...", b, pts)
    p0, p1, p2 = (b[..., k] * pts[:, k].reshape((-1,) + (1,) * (b.ndim - 1)) for k in range(3))
    return (p0 + p2) + p1


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
    """Exact ``integral of |const + grad . t|`` for t in the centered box, one call per cell.

    The box is ``prod_k [-w_k/2, w_k/2]``.  Axes with zero slope only scale
    the measure; each sloped axis is integrated analytically, in increasing
    order of ``|g_k| w_k``, keeping the result piecewise polynomial in the
    remaining affine combination.  A box off the zero set,
    ``|const| >= sum_k |g_k| w_k / 2``, integrates to ``vol |const|``.
    """
    grad = np.atleast_1d(np.asarray(grad, dtype=float))
    widths = np.atleast_1d(np.asarray(widths, dtype=float))
    if grad.shape != widths.shape:
        raise ValueError("grad and widths must have matching length")
    off = abs(const) >= np.sum(np.abs(grad) * widths) / 2.0
    factor = 1.0
    sloped = []
    for g, w in zip(grad, widths):
        if off or g == 0.0 or w * abs(g) < 1e-300:
            factor *= w
        else:
            sloped.append((g, w))
    pp = PiecewisePoly.abs()
    # by increasing |g| w, ties in axis order, as the batched integral takes them
    for g, w in sorted(sloped, key=lambda gw: abs(gw[0]) * gw[1]):
        f = pp.antiderivative()
        hi = f.shift(g * w / 2.0)
        lo = f.shift(-g * w / 2.0)
        pp = PiecewisePoly.combine(1.0 / g, hi, -1.0 / g, lo)
    return factor * pp(float(const))


def gauss_green_residual(field) -> np.ndarray:
    dom = field.domain
    N = dom.ndim
    acc = np.sum(field.lin.reshape((-1,) + field.value_shape + (N,)), axis=0) * dom.cell_volume
    for f in jump_set(field):
        acc = acc + np.multiply.outer(f.jump, f.normal) * f.area
    for rec in trace_boundary(field):
        acc = acc - np.multiply.outer(rec["effective"], rec["normal"]) * rec["area"]
    return acc


def trace_boundary(field) -> list[dict]:
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


def recession(W, x, A, M, schedule=None) -> float:
    """W^inf at one point: |M| times the closed form at M/|M|, else |M| times
    the quotient W(x, A, t M/|M|)/t at the last schedule point; 0 at M = 0."""
    if schedule is None:
        schedule = DEFAULT_SCHEDULE
    x = np.asarray(x, dtype=float)
    A = np.asarray(A, dtype=float)
    M = np.asarray(M, dtype=float)
    m = float(_vnorm(M, M.ndim))
    if m == 0.0:
        return 0.0
    Mhat = M / m
    if W.recession_closed_form is not None:
        return m * float(W.recession_closed_form(x=x, A=A, M=Mhat))
    t = float(schedule[-1])
    return m * (float(W(x, A, t * Mhat)) / t)


def bulk_energy_recession(problem, field, R) -> float:
    """The Gamma2 bulk term: one recession call per distinct cell gradient."""
    dom = field.domain
    lin = field.lin.reshape((-1,) + field.value_shape + (dom.ndim,))
    if R is not None:
        lin = np.einsum("...k,mk->...m", lin, R)
    cache: dict[bytes, float] = {}
    terms = []
    for cell_lin in lin:
        key = np.round(cell_lin, 14).tobytes()
        if key not in cache:
            cache[key] = recession(problem.densities.W, problem.x, problem.A, cell_lin)
        terms.append(cache[key] * dom.cell_volume)
    return fsum(terms)


def assemble_relaxed_energy(sd2, densities, config) -> dict:
    """The relaxed-energy report body without the memo: every cell and facet
    calls its estimator, at its own point, one after the other.  The cache
    counts are left out; the cell rows are kept as ``cell_rows`` when the
    config collects them."""
    g, G, Gamma = sd2.g, sd2.G, sd2.Gamma
    dom = G.domain
    N = dom.ndim
    vol = dom.cell_volume
    centers = dom.cell_centers().reshape(-1, N)
    A1 = (G.const - g.lin).reshape((-1,) + G.value_shape)
    A2 = G.const.reshape((-1,) + G.value_shape)
    L_field = G.lin.reshape((-1,) + G.value_shape + (N,))
    M_field = Gamma.reshape((-1,) + G.value_shape + (N,))

    def bracket(results, weights):
        return {"upper": fsum([r.upper * w for r, w in zip(results, weights)]),
                "lower": fsum([max(0.0, r.lower or 0.0) * w for r, w in zip(results, weights)])}

    w1, w2 = [], []
    for i in range(dom.num_cells):
        x = centers[i]
        L_bil = swap_layout(L_field[i])
        M_bil = swap_layout(M_field[i])
        w1.append(estimate_W1(x, A1[i], densities, budget=config.budget,
                              resolution=config.resolution))
        if config.w2_estimator == "trace-formula":
            w2.append(_trace_formula_estimate(x, L_bil, M_bil, densities.psi2.params["a"]))
        else:
            w2.append(estimate_W2(x, A2[i], L_bil, M_bil, densities, budget=config.budget,
                                  resolution=config.w2_resolution))
    facets_g = g.jump_set()
    g1 = [estimate_gamma1(c, j, n, densities, budget=config.budget,
                          resolution=config.resolution)
          for c, j, n in zip(facets_g.centroid, facets_g.jump, facets_g.normal)]
    facets_G = G.jump_set()
    reps = facets_G.trace_mean
    if config.gamma2_representative != "average":
        half = 0.5 * facets_G.jump
        reps = reps + half if config.gamma2_representative == "plus" else reps - half
    g2 = [estimate_gamma2(c, rep, j, n, densities, budget=config.budget,
                          resolution=config.resolution)
          for c, rep, j, n in zip(facets_G.centroid, reps, facets_G.jump, facets_G.normal)]

    body = {"bulk1": bracket(w1, [vol] * len(w1)), "bulk2": bracket(w2, [vol] * len(w2)),
            "surf1": bracket(g1, facets_g.area), "surf2": bracket(g2, facets_G.area)}
    for name, (a, b) in (("I1", ("bulk1", "surf1")), ("I2", ("bulk2", "surf2"))):
        body[name] = {k: body[a][k] + body[b][k] for k in ("upper", "lower")}
    body["total"] = {k: body["I1"][k] + body["I2"][k] for k in ("upper", "lower")}
    body.update(cells=dom.num_cells, facets_g=len(facets_g), facets_G=len(facets_G),
                config=config.to_dict())
    if config.collect_cells:
        body["cell_rows"] = [{"cell": i, "x": centers[i].tolist(), "w1_upper": r1.upper,
                              "w1_lower": r1.lower, "w2_upper": r2.upper, "w2_lower": r2.lower}
                             for i, (r1, r2) in enumerate(zip(w1, w2))]
    return body


# ---------------------------------------------------------------------------
# one cell problem at a time
# ---------------------------------------------------------------------------


@dataclass
class CellProblem:
    """One cell-formula instance with its frozen material point: the
    per-problem object that ``cellformulas.ProblemTable`` replaced, one row
    of the table.

    ``__post_init__`` checks the shapes of the variant's data and the
    ``resolution``, and fixes, once and in field layout, what the variant
    decides: the interfacial density ``psi``, the jump ``payload``, the
    prescribed outer trace ``prescription``, the prescribed ``gradient``,
    ``averaged``, the admissibility tolerance ``tol``, the ``rotation`` of
    the cube, ``directed`` and ``forced`` (see ``ProblemTable``).
    """

    variant: str
    x: np.ndarray
    densities: DensityTriple
    A: np.ndarray | None = None
    lam: np.ndarray | None = None
    Lam: np.ndarray | None = None
    nu: np.ndarray | None = None
    L: np.ndarray | None = None
    M: np.ndarray | None = None
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
            self.prescription = AffineBoundary(np.zeros(self.A.shape[:1]), np.zeros(self.A.shape[:1] + (N,)))
            self.gradient, data = self.A, (self.A,)
            flux, self.forced = np.zeros_like(self.A), self.A
        elif self.variant == "W2":
            self.prescription = AffineBoundary(np.zeros(self.L.shape[:2]), swap_layout(self.L))
            self.gradient, data = swap_layout(self.M), (self.L, self.M)
            flux, self.forced = self.prescription.lin, self.L - self.M
        else:
            self.prescription = StepBoundary(self.payload, N - 1, 0.0)
            self.gradient, data = np.zeros(self.payload.shape + (N,)), (self.payload,)
            flux, self.forced = np.multiply.outer(self.payload, np.eye(N)[N - 1]), self.payload
        self.tol = ADMISSIBILITY_TOL * max(1.0, *(float(_vnorm(t, t.ndim)) for t in data))
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


def table_of(variant, x, densities, resolution=DEFAULT_RESOLUTION, **data) -> ProblemTable:
    """The one-row table of the problem ``CellProblem`` takes the same
    arguments for."""
    return ProblemTable(variant, [(x, *(data[name] for name in _VARIANT_DATA[variant]))], densities, resolution)


def problem_of(variant, args, densities, resolution=DEFAULT_RESOLUTION) -> CellProblem:
    """The ``CellProblem`` of one problem's estimator arguments before ``densities``."""
    x, *data = args
    return CellProblem(variant, x, densities, resolution=resolution, **dict(zip(_VARIANT_DATA[variant], data)))


def problems_of(table: ProblemTable) -> list[CellProblem]:
    """One ``CellProblem`` per row of the table."""
    names = ("x",) + _VARIANT_DATA[table.variant]
    return [problem_of(table.variant, [getattr(table, name)[p] for name in names], table.densities,
                       table.resolution)
            for p in range(len(table))]


# ---------------------------------------------------------------------------
# the plane families built as grid fields
# ---------------------------------------------------------------------------


def staircase_field(problem, params):
    (n,) = params
    field = staircase(problem.A, int(n), unit_cube(len(problem.x), n))
    return field, None


def elementary_jump_field(problem, params):
    field = elementary_jump(problem.payload, ndim=len(problem.x), resolution=problem.resolution)
    return field, rotation_to_last_axis(problem.nu)


def splitting_field(problem, params):
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


def laminate_field(problem, params):
    dom = unit_cube(len(problem.x), problem.resolution)
    L_field = problem.prescription.lin
    const = np.einsum("vwk,...k->...vw", L_field, dom.cell_centers())
    lin = np.broadcast_to(problem.gradient, dom.cells_shape + L_field.shape).copy()
    field = PiecewiseAffineField(dom, const, lin, boundary_data=problem.prescription)
    return field, None


def gradient_zigzag_field(problem, params):
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


def inclusion_field(problem, params):
    """The inclusion box as a field on the cube: ``P y`` inside the box,
    ``L y`` outside and on the outer faces."""
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


GRID_BUILDERS = {"staircase": staircase_field, "elementary_jump": elementary_jump_field,
                 "splitting": splitting_field, "laminate": laminate_field,
                 "gradient_zigzag": gradient_zigzag_field, "inclusion": inclusion_field}


def of_field(field) -> Planes:
    """The rows of a competitor built as a field: one per facet of its jump
    set, and one gradient per cell, in C order."""
    dom = field.domain
    facets = field.jump_set()
    return Planes(dom, facets, np.ones(len(facets), dtype=int),
                  field.lin.reshape((-1,) + field.value_shape + (dom.ndim,)),
                  np.ones(dom.num_cells, dtype=int))


class GridFamily:
    """A family whose competitors are built as fields on the cube, as the
    package built them before it priced them by formula, and handed to the
    sweep as one row per facet of the field's jump set and one gradient per
    cell (``of_field``)."""

    def __init__(self, family):
        self.family = family
        self.name = family.name

    def candidates(self, problem, budget):
        return self.family.candidates(problem, budget)

    def planes(self, table, batch):
        return [[of_field(GRID_BUILDERS[self.name](problem, params)[0]) for params in batch]
                for problem in problems_of(table)]


# ---------------------------------------------------------------------------
# the sequence's corrected primitive through cell-midpoint sampling
# ---------------------------------------------------------------------------


def piecewise_constant_approx(u, n):
    """Cell-midpoint sampling of u on the resolution-n grid (zero linear part)."""
    n = np.broadcast_to(np.asarray(n, dtype=int), (u.domain.ndim,))
    grid = BoxDomain(u.domain.lower, u.domain.upper, n)
    centers = grid.cell_centers().reshape(-1, grid.ndim)
    values = evaluate(u, centers).reshape(grid.cells_shape + u.value_shape)
    return PiecewiseAffineField(grid, values, jump_tol=u.jump_tol)


def corrected_primitive(f, target):
    """The gradient primitive of ``f`` plus the cell-midpoint samples of
    ``target`` minus that primitive, sampled through ``evaluate``."""
    h = gradient_primitive(f)
    diff = PiecewiseAffineField(target.domain, target.const - h.const, target.lin - h.lin)
    correction = piecewise_constant_approx(diff, target.domain.resolution)
    return PiecewiseAffineField(target.domain, correction.const + h.const, h.lin,
                                jump_tol=target.jump_tol)


def bulk_energy_masked(u, densities, cell_ranges) -> float:
    """``total_energy``'s bulk term with the sub-box picked by a mask over
    ``np.indices`` of the whole grid."""
    dom = u.domain
    N = dom.ndim
    centers = dom.cell_centers().reshape(-1, N)
    A = u.grad.const.reshape((-1,) + u.grad.value_shape)
    M = u.grad.lin.reshape((-1,) + u.grad.value_shape + (N,))
    mask = np.ones(len(centers), dtype=bool)
    idx = np.indices(dom.cells_shape).reshape(N, -1)
    for k, (lo, hi) in enumerate(cell_ranges):
        mask &= (idx[k] >= lo) & (idx[k] < hi)
    vals = np.asarray(densities.W(centers[mask], A[mask], M[mask]), dtype=float)
    return fsum(vals * dom.cell_volume)


# ---------------------------------------------------------------------------
# fields, masses and quadrature points that only the tests build
# ---------------------------------------------------------------------------


def evaluate(field, points: np.ndarray) -> np.ndarray:
    """The field's values at ``points`` (m, N), each in the cell that holds it."""
    dom = field.domain
    points = np.atleast_2d(np.asarray(points, dtype=float))
    idx = np.floor((points - dom.lower) / dom.widths).astype(int)
    idx = np.clip(idx, 0, dom.resolution - 1)
    centers = dom.lower + (idx + 0.5) * dom.widths
    flat = np.ravel_multi_index(tuple(idx.T), dom.cells_shape)
    const = field.const.reshape((-1,) + field.value_shape)[flat]
    lin = field.lin.reshape((-1,) + field.value_shape + (dom.ndim,))[flat]
    return const + np.einsum("m...k,mk->m...", lin, points - centers)


def staircase(A, n: int, domain: BoxDomain) -> PiecewiseAffineField:
    """Zero-trace field with cellwise gradient exactly A, on the box of
    ``domain`` with ``n`` cells per axis (``domain`` itself when it has them).

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
    grid = domain if np.all(domain.resolution == n) else \
        BoxDomain(domain.lower, domain.upper, n * np.ones(N, dtype=int))
    const = np.zeros(grid.cells_shape + (d,))
    lin = np.broadcast_to(A, grid.cells_shape + (d, N)).copy()
    return PiecewiseAffineField(grid, const, lin, boundary_data=AffineBoundary(np.zeros(d), np.zeros((d, N))))


def elementary_jump(payload, ndim: int | None = None, resolution: int = 4,
                    domain: BoxDomain | None = None) -> PiecewiseAffineField:
    """Field equal to ``payload`` above the mid-plane of the cell cube, 0 below.

    The cube is the oriented unit cube in rotated coordinates (the jump normal
    maps to the last axis).  The resolution along the last axis must be even
    so the mid-plane is a union of grid facets.
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


def total_jump_mass(field) -> float:
    """Sum of |jump| * area over the rows of the field's jump set (Frobenius
    on tensor jumps), sampled at the facet centroids."""
    facets = field.jump_set()
    return fsum(facets.magnitudes() * facets.area)


def l1_norm(field) -> float:
    """The field's L1 norm through the library's block path."""
    return _l1_of_cell_data(field.domain, field.const, field.lin, field.value_shape, _L1_QUAD_ORDER)


def gauss_legendre_points(lower, upper, order: int):
    """Tensor Gauss-Legendre rule on a box: (points (m, N), weights (m,))."""
    nodes, wts = gauss_legendre_rule(lower, upper, order)
    return tensor_points(nodes), wts


# ---------------------------------------------------------------------------
# the worked example's competitors, one box and one laminate at a time
# ---------------------------------------------------------------------------


def corners_inside_cube(box: BoxInclusion, margin: float = 0.0) -> bool:
    N = len(box.center)
    V = np.eye(N) if box.basis is None else box.basis
    pts = []
    for signs in np.ndindex(*(2,) * N):
        z = np.array([(1.0 if s else -1.0) * h for s, h in zip(signs, box.half)])
        pts.append(box.center + V @ z)
    return bool(np.all(np.abs(np.asarray(pts)) < 0.5 - margin))


def inclusion_energy(L, M, a, box: BoxInclusion) -> float:
    """The inclusion box's energy with its own ``box_abs_affine`` call."""
    a = np.asarray(a, dtype=float)
    if abs(np.linalg.norm(a) - 1.0) > 1e-12:
        raise ValueError("a must be a unit vector")
    if not corners_inside_cube(box, margin=1e-9):
        raise ValueError("R must be compactly contained in the unit cell cube")
    B = _slice(L, M, a)
    N = B.shape[0]
    V = np.eye(N) if box.basis is None else np.asarray(box.basis, dtype=float)
    Vinv = np.linalg.inv(V)
    C = Vinv @ B @ V
    c0 = Vinv @ B @ np.asarray(box.center, dtype=float)
    half = np.asarray(box.half, dtype=float)
    vol_z = float(np.prod(2.0 * half))
    tangents = [[t for t in range(N) if t != m] for m in range(N)]
    const = np.array([c0[m] + sign * half[m] * C[m, m] for m in range(N) for sign in (-1.0, 1.0)])
    grad = np.repeat([C[m, t] for m, t in enumerate(tangents)], 2, axis=0)
    widths = np.repeat([2.0 * half[t] for t in tangents], 2, axis=0)
    return fsum(integrate.box_abs_affine(const, grad, widths)) / vol_z


def laminate_energy(L, M, a, basis=None) -> float:
    B = _slice(L, M, a)
    N = B.shape[0]
    V = np.eye(N) if basis is None else np.asarray(basis, dtype=float)
    C = np.linalg.inv(V) @ B @ V
    return fsum([abs(C[m, m]) for m in range(N)])


def random_competitors(L, M, a, count: int = 1000, seed: int = 0) -> list[dict]:
    """Each box draws its center and half-widths with ``rng.uniform`` over
    ``trace_formula._BOX_DRAWS`` and is priced alone; so is each laminate."""
    (c_lo, c_hi), (h_lo, h_hi) = trace_formula._BOX_DRAWS
    rng = np.random.default_rng(seed)
    N = np.asarray(L).shape[0]
    out = []
    n_boxes = count // 2
    for _ in range(n_boxes):
        center = rng.uniform(c_lo, c_hi, N)
        half = rng.uniform(h_lo, h_hi, N)
        box = BoxInclusion(center, half)
        out.append({"kind": "box", "params": box.describe(),
                    "energy": inclusion_energy(L, M, a, box)})
    for _ in range(count - n_boxes):
        Q, _ = np.linalg.qr(rng.standard_normal((N, N)))
        out.append({"kind": "laminate", "params": {"basis": Q.tolist()},
                    "energy": laminate_energy(L, M, a, basis=Q)})
    return out


def verify_example(L, M, a, tolerance: float = 1e-9, random_count: int = 0, seed: int = 0) -> dict:
    a = np.asarray(a, dtype=float)
    closed = closed_form_W2(L, M, a)
    boxes = [{"kind": "box", "params": box.describe(), "energy": inclusion_energy(L, M, a, box)}
             for box in default_box_family(L, M, a)]
    best = min(boxes, key=lambda e: e["energy"])
    extras = [{"kind": "laminate", "params": {"basis": None},
               "energy": laminate_energy(L, M, a)}]
    if random_count:
        extras.extend(random_competitors(L, M, a, count=random_count, seed=seed))
    everything = boxes + extras
    laminates = [e["energy"] for e in everything if e["kind"] == "laminate"]
    return {
        "closed_form": closed,
        "best_upper": best["energy"],
        "best_competitor": {"kind": best["kind"], "params": best["params"]},
        "gap": best["energy"] - closed,
        "lower_bound_ok": all(e["energy"] >= closed - tolerance for e in everything),
        "in_S": bool(is_in_S(_slice(L, M, a))),
        "family_stats": {
            "evaluations": len(everything),
            "kinds": sorted({e["kind"] for e in everything}),
            "max_energy": max(e["energy"] for e in everything),
            "best_laminate": min(laminates) if laminates else None,
            "best_overall": min(e["energy"] for e in everything),
        },
    }
