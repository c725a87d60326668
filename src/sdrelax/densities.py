"""Energy density triples and the built-in catalog.

A triple bundles a bulk density W(x, A, M) with two interfacial densities
acting on value jumps and gradient jumps.  Densities evaluate on numpy
arrays with arbitrary leading batch dimensions and must be pure.

Catalog entries ship their exact constants together with probe inputs that
attain them, so the sampling checker can validate (not infer) the declared
values.  Growth-type constants (the linear-growth bound and the recession
rate of the norm density) are exact for the checker's default probe ranges;
the factories take the relevant dimensions and ranges as arguments.

``recession`` is the one routine for the recession function W^inf: it
evaluates a whole batch of points in one call, for the bulk term of the
second boundary cell formula and for the checker's recession hypotheses.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dataclass_field
from typing import Callable, Optional

import numpy as np

from . import expressions
from .integrate import box_abs_affine, norm

DEFAULT_SCHEDULE = tuple(float(2**k) for k in range(7, 18))


@dataclass
class BulkDensity:
    """W(x, A, M) with declared constants for the linear-growth hypotheses."""

    name: str
    fn: Callable
    constants: dict = dataclass_field(default_factory=dict)
    coercive: bool = True
    recession_closed_form: Optional[Callable] = None
    probes: dict = dataclass_field(default_factory=dict)
    params: dict = dataclass_field(default_factory=dict)

    def __call__(self, x, A, M):
        return self.fn(x=x, A=A, M=M)


@dataclass
class InterfacialDensity:
    """Psi(x, payload, nu); kind 1 acts on value jumps, kind 2 on gradient jumps."""

    name: str
    kind: int
    fn: Callable
    constants: dict = dataclass_field(default_factory=dict)
    coercive: bool = True
    probes: dict = dataclass_field(default_factory=dict)
    facet_integral: Optional[Callable] = None
    params: dict = dataclass_field(default_factory=dict)

    def __call__(self, x, payload, nu):
        if self.kind == 1:
            return self.fn(x=x, lam=payload, nu=nu)
        return self.fn(x=x, Lam=payload, nu=nu)


@dataclass
class DensityTriple:
    """The (W, Psi1, Psi2) triple entering the initial energy."""

    W: BulkDensity
    psi1: InterfacialDensity
    psi2: InterfacialDensity

    def __post_init__(self):
        if self.psi1.kind != 1 or self.psi2.kind != 2:
            raise ValueError("psi1 must have kind 1 and psi2 kind 2")

    @property
    def coercive_interfacial(self) -> bool:
        return self.psi1.coercive and self.psi2.coercive

    def names(self) -> dict:
        return {"W": self.W.name, "psi1": self.psi1.name, "psi2": self.psi2.name}


# ---------------------------------------------------------------------------
# recession
# ---------------------------------------------------------------------------


def recession(W: BulkDensity, x, A, M, schedule=None) -> np.ndarray:
    """The recession function W^inf(x, A, M) = lim W(x, A, tM)/t over a batch.

    ``M`` has shape batch + (d, N, N) and ``x``, ``A`` broadcast against the
    batch; the result holds one value per batch point.  The limit is
    degree-one homogeneous in M, so M is normalized and the value rescaled:
    |M| times W's closed form at M/|M| when W ships one, else |M| times the
    quotient at the largest schedule point, and 0 where M = 0.  How fast the
    quotients converge is hypothesis H4, which the sampling checker tests on
    the same schedule.
    """
    if schedule is None:
        schedule = DEFAULT_SCHEDULE
    schedule = [float(t) for t in schedule]
    if len(schedule) < 3:
        raise ValueError("schedule too short: need at least 3 points")
    if any(b <= a for a, b in zip(schedule, schedule[1:])):
        raise ValueError("schedule must be strictly increasing")
    L = W.constants.get("H4.L", 0.0)
    if schedule[-1] <= L:
        raise ValueError(f"schedule must exceed the declared threshold {L}")
    M = np.asarray(M, dtype=float)
    norms = norm(M, 3)
    # M = 0 rows are evaluated at Mhat = 0 and masked to 0 below
    Mhat = M / np.where(norms > 0, norms, 1.0)[..., None, None, None]
    if W.recession_closed_form is not None:
        vals = np.asarray(W.recession_closed_form(x=x, A=A, M=Mhat), dtype=float)
    else:
        t = schedule[-1]
        vals = np.asarray(W(x, A, t * Mhat), dtype=float) / t
    return np.where(norms > 0, norms * vals, 0.0)


# ---------------------------------------------------------------------------
# catalog
# ---------------------------------------------------------------------------


def bulk_norm(d: int = 2, N: int = 2, probe_range: float = 10.0, t_min: float = 2.0**7) -> BulkDensity:
    """W(x, A, M) = |A| + |M| (Frobenius norms).

    The growth and recession-rate constants are exact for corner probes with
    entries of magnitude ``probe_range`` and schedules starting at ``t_min``:
    ``t_min`` must be finite and > 0, ``probe_range`` finite and >= 0.
    """
    if not (math.isfinite(t_min) and t_min > 0.0):
        raise ValueError(f"t_min must be finite and > 0, got {t_min}")
    if not (math.isfinite(probe_range) and probe_range >= 0.0):
        raise ValueError(f"probe_range must be finite and >= 0, got {probe_range}")

    def fn(x, A, M):
        return norm(A, 2) + norm(M, 3)

    corner_A = probe_range * np.sqrt(d * N)
    constants = {
        "H1.upper": 1.0,
        "H1.lower": 1.0,
        "H2": 1.0,
        "H3": 0.0,
        "H4": corner_A / math.sqrt(t_min),
        "H4.alpha": 0.5,
        "H4.L": 1.0,
        "h1infty.lower": 1.0,
        "h1infty.upper": 1.0,
        "h2infty": 1.0,
        "h3infty": 0.0,
    }
    return BulkDensity(
        name="W_norm",
        fn=fn,
        constants=constants,
        coercive=True,
        recession_closed_form=lambda x, A, M: norm(M, 3),
    )


def bulk_zero(d: int = 2, N: int = 2) -> BulkDensity:
    """W = 0; flagged non-coercive (potential-well regime), so the lower
    growth bound and the recession lower bound are skipped, not failed."""

    def fn(x, A, M):
        batch = np.broadcast_shapes(
            np.shape(x)[:-1], np.shape(A)[:-2], np.shape(M)[:-3]
        )
        return np.zeros(batch)

    constants = {
        "H1.upper": 0.0,
        "H2": 0.0,
        "H3": 0.0,
        "H4": 0.0,
        "H4.alpha": 0.5,
        "H4.L": 1.0,
        "h1infty.upper": 0.0,
        "h2infty": 0.0,
        "h3infty": 0.0,
    }
    return BulkDensity(
        name="W_zero",
        fn=fn,
        constants=constants,
        coercive=False,
        recession_closed_form=lambda x, A, M: 0.0,
    )


def psi1_norm(d: int = 2, N: int = 2) -> InterfacialDensity:
    """Psi1(x, lam, nu) = |lam|."""

    def fn(x, lam, nu):
        return norm(lam, 1)

    constants = {"H5.lower": 1.0, "H5.upper": 1.0, "H6": 0.0}
    return InterfacialDensity("Psi1_norm", 1, fn, constants=constants, coercive=True)


def psi1_weighted(d: int = 2, N: int = 2) -> InterfacialDensity:
    """Psi1 = c(x) |lam| with c(x) = 5/4 + (3/4) cos(pi x_1), 1/2 <= c <= 2.

    The bounds are attained at the corners x_1 = 1 and x_1 = 0 of the default
    unit sampling domain; probe inputs pin them exactly.
    """

    def weight(x):
        x = np.asarray(x, dtype=float)
        return 1.25 + 0.75 * np.cos(np.pi * x[..., 0])

    def fn(x, lam, nu):
        return weight(x) * norm(lam, 1)

    lam0 = np.zeros(d)
    lam0[0] = 1.0
    nu0 = np.zeros(N)
    nu0[0] = 1.0
    x_hi = np.zeros(N)            # c = 2
    x_lo = np.zeros(N)
    x_lo[0] = 1.0                 # c = 1/2
    probes = {
        "H5": [
            {"x": x_hi, "payload": lam0, "nu": nu0},
            {"x": x_lo, "payload": lam0, "nu": nu0},
        ],
        "H6": [
            {"x": np.full(N, 0.5) + 0.0005 * nu0, "x0": np.full(N, 0.5) - 0.0005 * nu0,
             "payload": lam0, "nu": nu0},
        ],
    }
    constants = {"H5.lower": 0.5, "H5.upper": 2.0, "H6": 0.75 * math.pi}
    return InterfacialDensity("Psi1_weighted", 1, fn, constants=constants, coercive=True, probes=probes)


def psi2_norm(d: int = 2, N: int = 2) -> InterfacialDensity:
    """Psi2(x, Lam, nu) = |Lam| (Frobenius)."""

    def fn(x, Lam, nu):
        return norm(Lam, 2)

    constants = {"H5.lower": 1.0, "H5.upper": 1.0, "H6": 0.0}
    return InterfacialDensity("Psi2_norm", 2, fn, constants=constants, coercive=True)


def _contract(nu, J, a) -> np.ndarray:
    """``nu . (J a)`` per row of ``nu`` (F, N) and ``J`` (F, N, N, ...): the
    products ``(nu_i J_ij) a_j`` summed as a one-row ``einsum("i,ij,j->")``
    sums them, ``(p00 + p01) + (p10 + p11)`` in 2D and in C order after a
    ``0.0`` otherwise, written out so that no host's SIMD width decides the
    last bits."""
    extra = (1,) * (J.ndim - 3)
    p = (nu.reshape(nu.shape + (1,) + extra) * J) * a.reshape(a.shape + extra)
    if len(a) == 2:
        return 0.0 + ((p[:, 0, 0] + p[:, 0, 1]) + (p[:, 1, 0] + p[:, 1, 1]))
    return sum((p[:, i, j] for i, j in np.ndindex(p.shape[1:3])), 0.0)


def psi2_proj(a, d: int | None = None, N: int | None = None) -> InterfacialDensity:
    """Psi2(x, J, nu) = |nu . (J a)| for a fixed unit vector a.

    Measures the non-tangential part of jumps in the directional derivative
    along a.  Not coercive: payloads with J a orthogonal to nu cost nothing,
    so the lower interfacial bound is skipped with a note.
    """
    a = np.asarray(a, dtype=float)
    N = len(a) if N is None and a.ndim == 1 else N
    if a.shape != (N,):
        raise ValueError(f"a must be a vector of length N = {N}, got shape {a.shape}")
    if abs(np.linalg.norm(a) - 1.0) > 1e-12:
        raise ValueError("a must be a unit vector")
    d = N if d is None else d

    def fn(x, Lam, nu):
        return np.abs(np.einsum("...i,...ij,j->...", nu, Lam, a))

    def facet_integral(x, jump, jump_lin, nu, tangential_widths, tangent_axes):
        """Exact facet integrals, one per row (its jump, slopes, normal, and
        widths along its tangent axes): |nu . J(y) a| is |affine|."""
        s0 = _contract(nu, jump, a)
        slopes = np.take_along_axis(jump_lin, tangent_axes[:, None, None, :], axis=3)
        return box_abs_affine(s0, _contract(nu, slopes, a), tangential_widths)

    nu0 = np.zeros(N)
    nu0[0] = 1.0
    w = np.zeros(N)
    if N > 1:
        w[1] = 1.0
    probes = {
        "H5": [
            {"x": np.zeros(N), "payload": np.outer(nu0, a), "nu": nu0},      # ratio 1: K2 attained
            {"x": np.zeros(N), "payload": np.outer(w, a), "nu": nu0},        # tangential: ratio 0
        ]
    }
    constants = {"H5.upper": 1.0, "H6": 0.0}
    return InterfacialDensity(
        "Psi2_proj", 2, fn, constants=constants, coercive=False, probes=probes,
        facet_integral=facet_integral, params={"a": [float(v) for v in a]},
    )


def psi1_zero(d: int = 2, N: int = 2) -> InterfacialDensity:
    """Psi1 = 0 (purely gradient-interfacial settings); non-coercive."""

    def fn(x, lam, nu):
        batch = np.broadcast_shapes(np.shape(x)[:-1], np.shape(lam)[:-1], np.shape(nu)[:-1])
        return np.zeros(batch)

    return InterfacialDensity("Psi1_zero", 1, fn, constants={"H5.upper": 0.0, "H6": 0.0}, coercive=False)


def psi1_square(d: int = 2, N: int = 2) -> InterfacialDensity:
    """Planted homogeneity violator Psi1 = |lam|^2 (test fixture, not catalog)."""

    def fn(x, lam, nu):
        v = norm(lam, 1)
        return v * v

    return InterfacialDensity("Psi1_square", 1, fn, constants={}, coercive=True)


def catalog(name: str, d: int = 2, N: int = 2, **params):
    """Look up a built-in density by name; extras beyond the six core entries
    (zero interfacial densities, the planted violator) are also reachable.
    Each entry takes only its own ``params`` keys (``ValueError`` otherwise)."""
    table = {
        "W_norm": (("probe_range", "t_min"), lambda: bulk_norm(d=d, N=N, **params)),
        "W_zero": ((), lambda: bulk_zero(d=d, N=N)),
        "Psi1_norm": ((), lambda: psi1_norm(d=d, N=N)),
        "Psi1_weighted": ((), lambda: psi1_weighted(d=d, N=N)),
        "Psi2_norm": ((), lambda: psi2_norm(d=d, N=N)),
        "Psi2_proj": (("a",), lambda: psi2_proj(params.get("a", _default_a(N)), d=d, N=N)),
        "Psi1_zero": ((), lambda: psi1_zero(d=d, N=N)),
        "Psi1_square": ((), lambda: psi1_square(d=d, N=N)),
    }
    if name not in table:
        raise KeyError(f"unknown catalog density {name!r}")
    for axis, size in (("d", d), ("N", N)):
        if size < 1:
            raise ValueError(f"{axis} must be at least 1, got {size}")
    allowed, build = table[name]
    unknown = sorted(set(params) - set(allowed))
    if unknown:
        raise ValueError(f"unknown params {unknown} for catalog density {name!r} "
                         f"(allowed: {list(allowed)})")
    return build()


def _default_a(N: int) -> np.ndarray:
    a = np.zeros(N)
    a[0] = 1.0
    return a


def triple_from_expressions(w_expr: str, psi1_expr: str, psi2_expr: str,
                            coercive_bulk: bool = True, coercive_interfacial: bool = True) -> DensityTriple:
    """Build a triple from expression-language strings (the CLI path)."""
    w = expressions.compile_bulk(w_expr)
    p1 = expressions.compile_psi1(psi1_expr)
    p2 = expressions.compile_psi2(psi2_expr)
    W = BulkDensity(f"expr:{w_expr}", lambda x, A, M: w(x=x, A=A, M=M), coercive=coercive_bulk)
    psi1 = InterfacialDensity(f"expr:{psi1_expr}", 1, lambda x, lam, nu: p1(x=x, lam=lam, nu=nu),
                              coercive=coercive_interfacial)
    psi2 = InterfacialDensity(f"expr:{psi2_expr}", 2, lambda x, Lam, nu: p2(x=x, Lam=Lam, nu=nu),
                              coercive=coercive_interfacial)
    return DensityTriple(W, psi1, psi2)


def norm_triple(d: int = 2, N: int = 2) -> DensityTriple:
    """The all-norms triple: W = |A|+|M|, Psi1 = |lam|, Psi2 = |Lam|."""
    return DensityTriple(bulk_norm(d=d, N=N), psi1_norm(d=d, N=N), psi2_norm(d=d, N=N))


def example_triple(a=None, N: int | None = None) -> DensityTriple:
    """The worked-example setting: W = 0, Psi1 = 0, Psi2 = |nu . (J a)|, in
    N = len(a) dimensions (2 when a is not given)."""
    if N is None:
        N = 2 if a is None else len(a)
    if a is None:
        a = _default_a(N)
    return DensityTriple(bulk_zero(d=N, N=N), psi1_zero(d=N, N=N), psi2_proj(a, d=N, N=N))
