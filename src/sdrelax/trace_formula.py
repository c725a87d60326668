"""The explicit trace formula for the relaxed bulk density.

For the purely gradient-interfacial initial density |nu . (J a)| the relaxed
bulk density has the closed form |tr((L - M)(., a))|.  This module holds that
formula, the exact energies of inclusion and laminate competitors (face
integrals of |affine| are computed exactly, so no quadrature error enters),
and a verifier that brackets the closed form against competitor families.
Competitors are priced in batches: boxes that share a basis, and laminates,
each in one pass whose digits are those of pricing them one at a time.

Tensor layout: third-order tensors here use the bilinear-map convention
T(y, z)_i = sum_jk T_ijk y_j z_k; field linear parts store the derivative
index last, so conversion swaps the last two axes.  ``swap_layout`` is that
conversion, in both directions, for the whole package.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .integrate import box_abs_affine, fsum


def swap_layout(T) -> np.ndarray:
    """Bilinear layout (i, y-slot, z-slot) <-> field layout (i, col, deriv)."""
    return np.asarray(T, dtype=float).transpose(0, 2, 1)


def _difference(L, M) -> np.ndarray:
    """``L - M`` for two N x N x N tensors."""
    L = np.asarray(L, dtype=float)
    M = np.asarray(M, dtype=float)
    for T in (L, M):
        if T.ndim != 3 or len(set(T.shape)) != 1:
            raise ValueError("entries must be an N x N x N array")
    return L - M


def _slice(L, M, a) -> np.ndarray:
    """The example slice ``(L - M)(., a)``: the N x N matrix ``sum_k (L - M)_ijk a_k``."""
    return np.einsum("ijk,k->ij", _difference(L, M), np.asarray(a, dtype=float))


def _unit(a) -> np.ndarray:
    a = np.asarray(a, dtype=float)
    if abs(np.linalg.norm(a) - 1.0) > 1e-12:
        raise ValueError("a must be a unit vector")
    return a


def closed_form_W2(L, M, a) -> float:
    """|tr((L - M)(., a))| = |sum_ij (L_iij - M_iij) a_j|."""
    a = _unit(a)
    delta = _difference(L, M)
    return float(abs(np.einsum("iij,j->", delta, a)))


def _inside_cube(centers, halves, V, margin: float) -> np.ndarray:
    """Whether every corner ``center + V z`` of each box lies in ``|x| < 0.5 - margin``."""
    N = centers.shape[1]
    signs = 2.0 * np.array(list(np.ndindex(*(2,) * N)), dtype=float) - 1.0
    # one matrix-vector product per corner, rounded as ``V @ z`` for that corner alone
    pts = centers[:, None, :] + (V @ (signs * halves[:, None, :])[..., None])[..., 0]
    return np.all(np.abs(pts) < 0.5 - margin, axis=(1, 2))


@dataclass(frozen=True)
class BoxInclusion:
    """Axis box in an optional linear basis: R = {center + V z : |z_k| <= half_k}."""

    center: np.ndarray
    half: np.ndarray
    basis: np.ndarray | None = None

    def corners_inside_cube(self, margin: float = 0.0) -> bool:
        center = np.asarray(self.center, dtype=float)[None]
        V = np.eye(center.shape[1]) if self.basis is None else np.asarray(self.basis, dtype=float)
        return bool(_inside_cube(center, np.asarray(self.half, dtype=float)[None], V, margin)[0])

    def describe(self) -> dict:
        return {
            "center": [float(v) for v in self.center],
            "half": [float(v) for v in self.half],
            "basis": None if self.basis is None else np.asarray(self.basis).tolist(),
        }


def inclusion_energies(L, M, a, centers, halves, basis=None) -> list[float]:
    """Exact jump energies of inclusion competitors on boxes that share one basis.

    Box ``r`` is ``{centers[r] + V z : |z_k| <= halves[r, k]}``.  The
    competitor is affine outside and inside R; its jump on the boundary of R
    is |R|^{-1} (L - M) x, so each face integrand is the absolute value of an
    affine function and is integrated exactly by splitting at its zero set.
    The value is invariant under scaling R at fixed shape.  The faces of all
    boxes go through one ``box_abs_affine`` call, then one ``fsum`` per box.
    """
    a = _unit(a)
    centers = np.asarray(centers, dtype=float)
    halves = np.asarray(halves, dtype=float)
    N = centers.shape[1]
    V = np.eye(N) if basis is None else np.asarray(basis, dtype=float)
    if not np.all(_inside_cube(centers, halves, V, 1e-9)):
        raise ValueError("R must be compactly contained in the unit cell cube")
    VinvB = np.linalg.inv(V) @ _slice(L, M, a)
    C = VinvB @ V
    # one matrix-vector product per box, rounded as for that box alone; a
    # matrix product over all centers rounds differently
    c0 = (VinvB @ centers[..., None])[..., 0]
    # the two faces normal to each axis m, (m, -1) then (m, +1), for every box
    axis = np.repeat(np.arange(N), 2)
    sign = np.tile([-1.0, 1.0], N)
    tangents = np.array([[t for t in range(N) if t != m] for m in axis], dtype=int)
    const = c0[:, axis] + sign * halves[:, axis] * C[axis, axis]
    widths = 2.0 * halves[:, tangents]
    grad = np.broadcast_to(C[axis[:, None], tangents], widths.shape)
    rows = (const.size, N - 1)
    faces = box_abs_affine(const.ravel(), grad.reshape(rows), widths.reshape(rows))
    vols = np.prod(2.0 * halves, axis=1).tolist()
    return [fsum(f) / vol for f, vol in zip(faces.reshape(-1, 2 * N), vols)]


def inclusion_energy(L, M, a, box: BoxInclusion) -> float:
    """Exact jump energy of the inclusion competitor on the box R (see ``inclusion_energies``)."""
    return inclusion_energies(L, M, a, [box.center], [box.half], box.basis)[0]


def _family_energies(L, M, a, boxes) -> list[float]:
    """``inclusion_energies`` of a box list, one batch per run of boxes sharing a basis."""
    out: list[float] = []
    for _, run in itertools.groupby(boxes, key=lambda box: id(box.basis)):
        run = list(run)
        out += inclusion_energies(L, M, a, [b.center for b in run], [b.half for b in run],
                                  run[0].basis)
    return out


def laminate_energies(L, M, a, bases) -> list[float]:
    """Exact costs of parallel-plane (laminate) competitors, one per basis in ``bases``.

    Superposed plane jumps in the directions of the basis columns realize the
    full average-gradient constraint at cost sum_m |C_mm| with
    C = V^-1 (L - M)(., a) V; this always dominates |tr C| = the closed form.
    """
    bases = np.asarray(bases, dtype=float)
    C = np.linalg.inv(bases) @ _slice(L, M, a) @ bases
    return [fsum(d) for d in np.abs(np.diagonal(C, axis1=1, axis2=2))]


def laminate_energy(L, M, a, basis=None) -> float:
    """``laminate_energies`` of one basis; the axis basis when ``basis`` is None."""
    N = _difference(L, M).shape[0]
    return laminate_energies(L, M, a, [np.eye(N) if basis is None else basis])[0]


def is_in_S(B) -> bool:
    """Distinct eigenvalues, all with nonzero real part, and nonzero trace."""
    B = np.asarray(B, dtype=float)
    eig = np.linalg.eigvals(B)
    for i in range(len(eig)):
        for j in range(i + 1, len(eig)):
            if abs(eig[i] - eig[j]) <= 1e-9:
                return False
    if np.any(np.abs(eig.real) <= 1e-9):
        return False
    return abs(np.trace(B)) > 1e-9


def eigen_basis(B, tol: float = 1e-9) -> np.ndarray | None:
    """Real eigenvector basis of B when it exists and is well conditioned."""
    eig, vec = np.linalg.eig(np.asarray(B, dtype=float))
    if np.max(np.abs(eig.imag)) > tol or np.max(np.abs(vec.imag)) > tol:
        return None
    V = vec.real
    if abs(np.linalg.det(V)) < 1e-9:
        return None
    return V / np.linalg.norm(V, axis=0, keepdims=True)


def default_box_family(L, M, a) -> list[BoxInclusion]:
    """Centered and shifted boxes, axis-aligned plus eigenbasis when available."""
    B = _slice(L, M, a)
    N = B.shape[0]
    family: list[BoxInclusion] = []
    sizes = (0.05, 0.1, 0.2)
    aspects = [np.ones(N)]
    for k in range(N):
        asp = np.ones(N)
        asp[k] = 2.0
        aspects.append(asp)
    for r in sizes:
        for asp in aspects:
            half = r * asp / np.max(asp)
            family.append(BoxInclusion(np.zeros(N), half))
    for shift_axis in range(N):
        center = np.zeros(N)
        center[shift_axis] = 0.15
        family.append(BoxInclusion(center, 0.1 * np.ones(N)))
    V = eigen_basis(B)
    if V is not None:
        for r in sizes:
            half = r * np.ones(N)
            box = BoxInclusion(np.zeros(N), half, basis=V)
            if box.corners_inside_cube():
                family.append(box)
    return family


# the ranges a random box draws its center and its half-widths from; a box
# then reaches at most 0.4 from the origin, inside the cube
_BOX_DRAWS = ((-0.15, 0.15), (0.02, 0.25))


def random_competitors(L, M, a, count: int = 1000, seed: int = 0) -> list[dict]:
    """Seeded random admissible boxes and laminates with their exact energies.

    The first ``count // 2`` are axis boxes, each drawing its center and then
    its half-widths; the rest are laminates in random orthonormal bases.
    Each kind is drawn and priced in one batch.
    """
    if count < 0:
        raise ValueError(f"count must not be negative, got {count}")
    rng = np.random.default_rng(seed)
    N = _difference(L, M).shape[0]
    n_boxes = count // 2
    # rng.uniform(low, high, N) is low + (high - low) * rng.random(N), drawn box after box
    low, high = np.array(_BOX_DRAWS).T
    draws = low[:, None] + (high - low)[:, None] * rng.random((n_boxes, 2, N))
    centers, halves = draws[:, 0], draws[:, 1]
    boxes = [{"kind": "box", "params": {"center": c, "half": h, "basis": None}, "energy": e}
             for c, h, e in zip(centers.tolist(), halves.tolist(),
                                inclusion_energies(L, M, a, centers, halves))]
    bases, _ = np.linalg.qr(rng.standard_normal((count - n_boxes, N, N)))
    laminates = [{"kind": "laminate", "params": {"basis": Q}, "energy": e}
                 for Q, e in zip(bases.tolist(), laminate_energies(L, M, a, bases))]
    return boxes + laminates


def verify_example(L, M, a, tolerance: float = 1e-9, random_count: int = 0, seed: int = 0) -> dict:
    """Bracket the closed form against inclusion/laminate competitors.

    Reports the closed-form value, the best family upper bound, the gap, and
    whether every sampled competitor respects the divergence-theorem lower
    bound.  A nonzero gap is expected (and documented, not a failure) when
    the slice spectrum has mixed signs: the optimal-set construction for that
    regime is out of scope, so the box family cannot see cancellation.
    """
    a = np.asarray(a, dtype=float)
    closed = closed_form_W2(L, M, a)
    family = default_box_family(L, M, a)
    boxes = [{"kind": "box", "params": box.describe(), "energy": energy}
             for box, energy in zip(family, _family_energies(L, M, a, family))]
    best = min(boxes, key=lambda e: e["energy"])
    extras = [{"kind": "laminate", "params": {"basis": None},
               "energy": laminate_energy(L, M, a)}]
    if random_count:
        extras.extend(random_competitors(L, M, a, count=random_count, seed=seed))
    everything = boxes + extras
    lower_ok = all(e["energy"] >= closed - tolerance for e in everything)
    B = _slice(L, M, a)
    laminates = [e["energy"] for e in everything if e["kind"] == "laminate"]
    return {
        "closed_form": closed,
        "best_upper": best["energy"],
        "best_competitor": {"kind": best["kind"], "params": best["params"]},
        "gap": best["energy"] - closed,
        "lower_bound_ok": bool(lower_ok),
        "in_S": bool(is_in_S(B)),
        "family_stats": {
            "evaluations": len(everything),
            "kinds": sorted({e["kind"] for e in everything}),
            "max_energy": max(e["energy"] for e in everything),
            "best_laminate": min(laminates) if laminates else None,
            "best_overall": min(e["energy"] for e in everything),
        },
    }
