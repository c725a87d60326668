"""The explicit trace formula for the relaxed bulk density.

For the purely gradient-interfacial initial density |nu . (J a)| the relaxed
bulk density has the closed form |tr((L - M)(., a))|.  This module holds that
formula, the exact energies of inclusion and laminate competitors (face
integrals of |affine| are computed exactly, so no quadrature error enters),
and a verifier that brackets the closed form against competitor families.

Tensor layout: third-order tensors here use the bilinear-map convention
T(y, z)_i = sum_jk T_ijk y_j z_k; field linear parts store the derivative
index last, so conversion swaps the last two axes.  ``swap_layout`` is that
conversion, in both directions, for the whole package.
"""

from __future__ import annotations

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


def closed_form_W2(L, M, a) -> float:
    """|tr((L - M)(., a))| = |sum_ij (L_iij - M_iij) a_j|."""
    a = np.asarray(a, dtype=float)
    if abs(np.linalg.norm(a) - 1.0) > 1e-12:
        raise ValueError("a must be a unit vector")
    delta = _difference(L, M)
    return float(abs(np.einsum("iij,j->", delta, a)))


@dataclass(frozen=True)
class BoxInclusion:
    """Axis box in an optional linear basis: R = {center + V z : |z_k| <= half_k}."""

    center: np.ndarray
    half: np.ndarray
    basis: np.ndarray | None = None

    def corners_inside_cube(self, margin: float = 0.0) -> bool:
        N = len(self.center)
        V = np.eye(N) if self.basis is None else self.basis
        pts = []
        for signs in np.ndindex(*(2,) * N):
            z = np.array([(1.0 if s else -1.0) * h for s, h in zip(signs, self.half)])
            pts.append(self.center + V @ z)
        pts = np.asarray(pts)
        return bool(np.all(np.abs(pts) < 0.5 - margin))

    def describe(self) -> dict:
        return {
            "center": [float(v) for v in self.center],
            "half": [float(v) for v in self.half],
            "basis": None if self.basis is None else np.asarray(self.basis).tolist(),
        }


def inclusion_energy(L, M, a, box: BoxInclusion) -> float:
    """Exact jump energy of the inclusion competitor on the box R.

    The competitor is affine outside and inside R; its jump on the boundary
    of R is |R|^{-1} (L - M) x, so each face integrand is the absolute value
    of an affine function and is integrated exactly by splitting at its zero
    set.  The value is invariant under scaling R at fixed shape.
    """
    a = np.asarray(a, dtype=float)
    if abs(np.linalg.norm(a) - 1.0) > 1e-12:
        raise ValueError("a must be a unit vector")
    if not box.corners_inside_cube(margin=1e-9):
        raise ValueError("R must be compactly contained in the unit cell cube")
    B = _slice(L, M, a)
    N = B.shape[0]
    V = np.eye(N) if box.basis is None else np.asarray(box.basis, dtype=float)
    Vinv = np.linalg.inv(V)
    C = Vinv @ B @ V
    c0 = Vinv @ B @ np.asarray(box.center, dtype=float)
    half = np.asarray(box.half, dtype=float)
    vol_z = float(np.prod(2.0 * half))
    # the two faces normal to each axis m, integrated in one batch
    tangents = [[t for t in range(N) if t != m] for m in range(N)]
    const = np.array([c0[m] + sign * half[m] * C[m, m] for m in range(N) for sign in (-1.0, 1.0)])
    grad = np.repeat([C[m, t] for m, t in enumerate(tangents)], 2, axis=0)
    widths = np.repeat([2.0 * half[t] for t in tangents], 2, axis=0)
    return fsum(box_abs_affine(const, grad, widths)) / vol_z


def laminate_energy(L, M, a, basis=None) -> float:
    """Exact cost of the parallel-plane (laminate) competitor family.

    Superposed plane jumps in the directions of the basis columns realize the
    full average-gradient constraint at cost sum_m |C_mm| with
    C = V^-1 (L - M)(., a) V; this always dominates |tr C| = the closed form.
    """
    B = _slice(L, M, a)
    N = B.shape[0]
    V = np.eye(N) if basis is None else np.asarray(basis, dtype=float)
    C = np.linalg.inv(V) @ B @ V
    return fsum([abs(C[m, m]) for m in range(N)])


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


def random_competitors(L, M, a, count: int = 1000, seed: int = 0) -> list[dict]:
    """Seeded random admissible boxes and laminates with their exact energies."""
    rng = np.random.default_rng(seed)
    N = _difference(L, M).shape[0]
    out = []
    n_boxes = count // 2
    for _ in range(n_boxes):
        center = rng.uniform(-0.15, 0.15, N)
        half = rng.uniform(0.02, 0.25, N)
        box = BoxInclusion(center, half)
        if not box.corners_inside_cube():
            half = np.minimum(half, 0.45 - np.abs(center))
            box = BoxInclusion(center, half)
        out.append({"kind": "box", "params": box.describe(),
                    "energy": inclusion_energy(L, M, a, box)})
    for _ in range(count - n_boxes):
        Q, _ = np.linalg.qr(rng.standard_normal((N, N)))
        out.append({"kind": "laminate", "params": {"basis": Q.tolist()},
                    "energy": laminate_energy(L, M, a, basis=Q)})
    return out


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
    boxes = []
    for box in default_box_family(L, M, a):
        energy = inclusion_energy(L, M, a, box)
        boxes.append({"kind": "box", "params": box.describe(), "energy": energy})
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
