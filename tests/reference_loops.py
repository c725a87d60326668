"""Per-facet, per-cell and per-point loops that the array code in ``sdrelax`` replaced.

They build one ``JumpFacet`` per facet and one dict per outer face, filter
and sum facet by facet, integrate the tensor L1 norm cell by cell, check
admissibility face by face, evaluate the recession function one point at a
time and price the Gamma2 bulk term cell by cell.  The property tests in
``test_facet_table.py``, ``test_densities.py`` and ``test_cellformulas.py``
require the array code to reproduce their results bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from sdrelax.cellformulas import ADMISSIBILITY_TOL
from sdrelax.densities import DEFAULT_SCHEDULE
from sdrelax.fields import StepBoundary
from sdrelax.integrate import box_abs_affine, fsum, gauss_legendre_points
from sdrelax.integrate import norm as _vnorm
from sdrelax.trace_formula import swap_layout


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
        for cell in np.argwhere(mag > field.jump_tol):
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


def total_jump_mass(field) -> float:
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
        terms.append(psi.facet_integral(f.centroid, f.jump, f.jump_lin, f.normal, twidths, tangent_axes))
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
        terms.append(psi.facet_integral(x0, f.jump, f.jump_lin, normal, twidths, tangent_axes))
    return fsum(terms), inexact


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
            vals = c + np.einsum("...k,mk->m...", b, pts)
            terms.append(float(np.dot(_vnorm(vals, vnd), wts)))
    return fsum(terms)


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


def _prescription(problem):
    """The variant's boundary prescription as a function of boundary points."""
    N = len(problem.x)
    if problem.variant == "W1":
        return lambda pts: np.zeros((pts.shape[0],) + _payload_shape(problem))
    if problem.variant == "Gamma1":
        payload = problem.lam
    elif problem.variant == "Gamma2":
        payload = problem.Lam
    else:
        L_field = swap_layout(problem.L)
        return lambda pts: np.einsum("...k,mk->m...", L_field, pts)
    step = StepBoundary(payload, N - 1, 0.0)
    return lambda pts: step.value_and_lin(pts)[0]


def _payload_shape(problem) -> tuple:
    if problem.variant == "W1":
        return problem.A.shape[:1]
    if problem.variant == "Gamma1":
        return problem.lam.shape
    if problem.variant == "Gamma2":
        return problem.Lam.shape
    # W2 fields are matrix-valued: (value row, value column) of the boundary tensor
    return problem.L.shape[:1] + problem.L.shape[2:3]


def check_admissibility(problem, field) -> tuple[bool, float]:
    """The cell-formula check: one prescription call per boundary record."""
    dom = field.domain
    residual = 0.0
    lin = field.lin
    if problem.variant == "W1":
        residual = max(residual, float(np.max(np.abs(lin - problem.A))))
    elif problem.variant == "Gamma1":
        residual = max(residual, float(np.max(np.abs(lin))) if lin.size else 0.0)
    else:
        target = np.zeros(lin.shape[dom.ndim:]) if problem.variant == "Gamma2" \
            else swap_layout(problem.M)
        avg = np.sum(lin.reshape((-1,) + lin.shape[dom.ndim:]), axis=0) * dom.cell_volume
        residual = max(residual, float(_vnorm(avg - target, avg.ndim)))
    prescription = _prescription(problem)
    for rec in trace_boundary(field):
        want = prescription(rec["centroid"][None])[0]
        residual = max(residual, float(np.max(np.abs(rec["effective"] - want))))
    return residual <= ADMISSIBILITY_TOL, residual


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
