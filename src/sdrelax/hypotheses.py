"""Sampling-based checker for the density hypotheses.

For each growth/continuity/homogeneity hypothesis the checker draws seeded
random inputs, adds structured probes (scaling pairs, range corners, any
probe inputs the density ships to pin its declared constants), and measures
the smallest admissible constant seen.  Declared constants are validated,
never inferred.  Failures are report entries carrying a concrete witness,
not exceptions.

Continuity-in-position hypotheses are probed on a finite ladder of pair
separations; their verdicts mean "consistent with", not proof.  The H4 rate
test and the recession-function bounds read W^inf from
``densities.recession`` on the configured schedule, the same routine the
cell formulas use; H4 compares the schedule's quotients with that limit.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dataclass_field

import numpy as np

from .densities import BulkDensity, DensityTriple, InterfacialDensity, DEFAULT_SCHEDULE, recession
from .integrate import norm

_TINY = 1e-300
# each position-modulus rung probes at least this many of the random samples
MIN_SAMPLES = 64
# the largest input range: the growth probes square norms of 100 * input_range
MAX_INPUT_RANGE = 1e100
# positions are drawn from the unit cube [DOMAIN_LOWER, DOMAIN_UPPER]^N
DOMAIN_LOWER = 0.0
DOMAIN_UPPER = 1.0
# a declared constant passes when the measurement is within this factor of it
REL_FACTOR = 1.01
# largest relative residual the homogeneity and subadditivity checks forgive
EXACT_TOL = 1e-9


@dataclass
class CheckConfig:
    d: int = 2
    N: int = 2
    samples: int = 10_000
    input_range: float = 10.0
    seed: int = 0
    schedule: tuple = DEFAULT_SCHEDULE
    pair_scales: tuple = (1e-1, 1e-2, 1e-3)

    def __post_init__(self):
        for axis, size in (("d", self.d), ("N", self.N)):
            if size < 1:
                raise ValueError(f"{axis} must be at least 1, got {size}")
        if self.samples < MIN_SAMPLES:
            raise ValueError(f"samples must be at least {MIN_SAMPLES} (the structured probes), "
                             f"got {self.samples}")
        schedule = np.asarray(self.schedule, dtype=float)
        if (schedule.ndim != 1 or len(schedule) < 3 or not np.all(np.isfinite(schedule))
                or schedule[0] <= 0.0 or np.any(np.diff(schedule) <= 0.0)):
            raise ValueError("schedule must be at least 3 finite, positive, strictly increasing "
                             f"points, got {list(self.schedule)}")
        scales = np.asarray(self.pair_scales, dtype=float)
        if scales.ndim != 1 or len(scales) == 0 or not np.all(np.isfinite(scales) & (scales > 0.0)):
            raise ValueError(f"pair_scales must be a non-empty list of finite values > 0, "
                             f"got {list(self.pair_scales)}")
        # the h2infty probe draws its scales from [0.5, input_range]
        if not 0.5 <= self.input_range <= MAX_INPUT_RANGE:
            raise ValueError(f"input_range must be at least 0.5 and at most {MAX_INPUT_RANGE:g}, "
                             f"got {self.input_range}")

    def to_dict(self) -> dict:
        return {
            "d": self.d,
            "N": self.N,
            "samples": self.samples,
            "input_range": self.input_range,
            "seed": self.seed,
            "domain_lower": [DOMAIN_LOWER] * self.N,
            "domain_upper": [DOMAIN_UPPER] * self.N,
            "schedule": [float(t) for t in self.schedule],
            "pair_scales": [float(s) for s in self.pair_scales],
            "rel_factor": REL_FACTOR,
            "exact_tol": EXACT_TOL,
        }


@dataclass
class HypothesisResult:
    verdict: str                      # pass | fail | skipped
    measured: float | None = None
    declared: float | None = None
    worst: dict | None = None
    samples: int = 0
    note: str = ""

    def to_dict(self) -> dict:
        return {
            "verdict": self.verdict,
            "measured": self.measured,
            "declared": self.declared,
            "worst": self.worst,
            "samples": self.samples,
            "note": self.note,
        }


@dataclass
class HypothesisReport:
    density_names: dict
    seed: int
    config: dict
    results: dict = dataclass_field(default_factory=dict)

    @property
    def all_pass(self) -> bool:
        return all(r.verdict != "fail" for r in self.results.values())

    def to_dict(self) -> dict:
        return {
            "density_names": self.density_names,
            "seed": self.seed,
            "config": self.config,
            "all_pass": self.all_pass,
            "results": {k: v.to_dict() for k, v in sorted(self.results.items())},
        }


def _witness(idx: int, **arrays) -> dict:
    out = {}
    for name, arr in arrays.items():
        a = np.asarray(arr)
        out[name] = a[idx].tolist() if a.ndim > 0 and a.shape[0] > idx else np.asarray(a).tolist()
    return out


def _validate(measured: float, declared: float | None, samples: int,
              worst: dict | None = None, note: str = "") -> HypothesisResult:
    """Compare a measured minimal constant against a declared one.

    Declared constants are exact (attained by probe inputs), so validation is
    two-sided: the measurement must neither exceed nor undershoot the
    declaration beyond ``REL_FACTOR``.
    """
    if declared is None:
        return HypothesisResult("pass", measured, None, worst, samples,
                                note or "no declared constant; estimate only")
    if declared == 0.0:
        ok = measured <= 1e-9
        return HypothesisResult("pass" if ok else "fail", measured, declared, worst, samples, note)
    ok = measured <= declared * REL_FACTOR and measured >= declared / REL_FACTOR
    return HypothesisResult("pass" if ok else "fail", measured, declared, worst, samples, note)


def _sample_x(cfg: CheckConfig, rng, n: int) -> np.ndarray:
    return rng.uniform(DOMAIN_LOWER, DOMAIN_UPPER, size=(n, cfg.N))


def _sample_unit(rng, n: int, dim: int) -> np.ndarray:
    v = rng.standard_normal((n, dim))
    norms = np.linalg.norm(v, axis=1, keepdims=True)
    norms[norms == 0] = 1.0
    return v / norms


def _argmax_witness(values: np.ndarray, **arrays) -> dict:
    idx = int(np.argmax(values))
    w = _witness(idx, **arrays)
    w["value"] = float(values[idx])
    return w


# ---------------------------------------------------------------------------
# bulk density checks (linear growth, Lipschitz, position modulus, recession)
# ---------------------------------------------------------------------------


def check_bulk(W: BulkDensity, cfg: CheckConfig, rng=None) -> dict:
    if rng is None:
        rng = np.random.default_rng(cfg.seed)
    d, N, n, r = cfg.d, cfg.N, cfg.samples, cfg.input_range
    out: dict[str, HypothesisResult] = {}

    x = _sample_x(cfg, rng, n)
    A = rng.uniform(-r, r, size=(n, d, N))
    M = rng.uniform(-r, r, size=(n, d, N, N))
    # growth probes: push the at-infinity bound toward its supremum
    n_grow = max(8, n // 100)
    A_big = 100.0 * A[:n_grow]
    M_big = 100.0 * M[:n_grow]
    xA = np.concatenate([x, x[:n_grow]])
    AA = np.concatenate([A, A_big])
    MM = np.concatenate([M, M_big])
    S = norm(AA, 2) + norm(MM, 3)
    vals = np.asarray(W(xA, AA, MM), dtype=float)
    up_ratio = vals / (1.0 + S)
    out["H1.upper"] = _validate(float(np.max(up_ratio)), W.constants.get("H1.upper"),
                                len(vals), _argmax_witness(up_ratio, x=xA, A=AA, M=MM))
    if W.coercive:
        c_need = 0.5 * (-vals + np.sqrt(vals * vals + 4.0 * S))
        out["H1.lower"] = _validate(float(np.max(c_need)), W.constants.get("H1.lower"),
                                    len(vals), _argmax_witness(c_need, x=xA, A=AA, M=MM))
    else:
        idx = int(np.argmax(S - vals))
        out["H1.lower"] = HypothesisResult(
            "skipped", None, W.constants.get("H1.lower"), _witness(idx, x=xA, A=AA, M=MM),
            len(vals), "non-coercive bulk density: lower growth bound not claimed")

    # H2: joint Lipschitz in (A, M); colinear probes attain norm-type constants
    half = n // 2
    A1, A2 = A[:half], A[half: 2 * half]
    M1, M2 = M[:half], M[half: 2 * half]
    xp = x[:half]
    A1p = np.concatenate([A1, A1])
    A2p = np.concatenate([A2, 2.0 * A1])
    M1p = np.concatenate([M1, M1])
    M2p = np.concatenate([M2, 2.0 * M1])
    xpp = np.concatenate([xp, xp])
    den = norm(A1p - A2p, 2) + norm(M1p - M2p, 3)
    num = np.abs(np.asarray(W(xpp, A1p, M1p), dtype=float) - np.asarray(W(xpp, A2p, M2p), dtype=float))
    mask = den > 1e-12
    ratios = np.where(mask, num / np.where(mask, den, 1.0), 0.0)
    out["H2"] = _validate(float(np.max(ratios)), W.constants.get("H2"), len(ratios),
                          _argmax_witness(ratios, x=xpp, A1=A1p, A2=A2p, M1=M1p, M2=M2p))

    # H3: position modulus at a ladder of separations ("consistent with")
    mods = []
    worst = None
    n3 = max(MIN_SAMPLES, n // len(cfg.pair_scales) // 2)
    for scale in cfg.pair_scales:
        x0 = _sample_x(cfg, rng, n3)
        dx = scale * _sample_unit(rng, n3, N)
        x1 = np.clip(x0 + dx, DOMAIN_LOWER, DOMAIN_UPPER)
        sep = np.linalg.norm(x1 - x0, axis=1)
        Ah = A[:n3]
        Mh = M[:n3]
        Sh = 1.0 + norm(Ah, 2) + norm(Mh, 3)
        dW = np.abs(np.asarray(W(x1, Ah, Mh), dtype=float) - np.asarray(W(x0, Ah, Mh), dtype=float))
        mask = sep > 1e-12
        ratio = np.where(mask, dW / (np.where(mask, sep, 1.0) * Sh), 0.0)
        mods.append(float(np.max(ratio)))
        if worst is None or mods[-1] >= max(mods):
            worst = _argmax_witness(ratio, x0=x0, x1=x1, A=Ah, M=Mh)
    out["H3"] = _validate(max(mods), W.constants.get("H3"), n3 * len(cfg.pair_scales), worst,
                          note="finite separation ladder; consistent-with, not a proof")

    # H4: recession rate envelope, with the range corner probe
    n4 = max(32, n // 20)
    x4 = x[:n4]
    A4 = np.concatenate([A[:n4], np.full((1, d, N), r)])
    x4 = np.concatenate([x4, x4[:1]])
    Mdir = _sample_unit(rng, n4 + 1, d * N * N).reshape(n4 + 1, d, N, N)
    alpha = W.constants.get("H4.alpha", 0.5)
    schedule = np.asarray(cfg.schedule, dtype=float)
    qs = np.stack([np.asarray(W(x4, A4, t * Mdir), dtype=float) / t for t in schedule], axis=-1)
    winf = recession(W, x4, A4, Mdir, schedule)
    c_rec = np.max(np.abs(winf[..., None] - qs) * schedule**alpha, axis=-1)
    c_env = np.zeros(len(c_rec))
    for i in range(len(schedule)):
        for j in range(i + 1, len(schedule)):
            env = schedule[i] ** (-alpha) + schedule[j] ** (-alpha)
            c_env = np.maximum(c_env, np.abs(qs[..., i] - qs[..., j]) / env)
    c_all = np.maximum(c_rec, c_env)
    out["H4"] = _validate(float(np.max(c_all)), W.constants.get("H4"), len(c_all),
                          _argmax_witness(c_all, x=x4, A=A4, M=Mdir),
                          note=f"alpha={alpha}; constants refer to the configured probe ranges")

    # recession-function consequences of the growth hypotheses
    ratio_up = winf
    out["h1infty.upper"] = _validate(float(np.max(ratio_up)), W.constants.get("h1infty.upper"),
                                     len(winf), _argmax_witness(ratio_up, x=x4, A=A4, M=Mdir))
    if W.coercive:
        with np.errstate(divide="ignore"):
            c_lo = np.where(winf > 0, 1.0 / np.where(winf > 0, winf, 1.0), np.inf)
        out["h1infty.lower"] = _validate(float(np.max(c_lo)), W.constants.get("h1infty.lower"),
                                         len(winf), _argmax_witness(c_lo, x=x4, A=A4, M=Mdir))
    else:
        out["h1infty.lower"] = HypothesisResult("skipped", None, None, None, len(winf),
                                                "non-coercive bulk density: recession lower bound not claimed")

    half4 = (n4 + 1) // 2
    Md1, Md2 = Mdir[:half4], Mdir[half4: 2 * half4]
    scale1 = rng.uniform(0.5, float(r), size=(half4, 1, 1, 1))
    scale2 = rng.uniform(0.5, float(r), size=(half4, 1, 1, 1))
    M1s = np.concatenate([scale1 * Md1, scale1[: half4 // 2] * Md1[: half4 // 2]])
    M2s = np.concatenate([scale2 * Md2, 2.0 * scale1[: half4 // 2] * Md1[: half4 // 2]])
    x2s = np.concatenate([x4[:half4], x4[: half4 // 2]])
    A2s = np.concatenate([A4[:half4], A4[: half4 // 2]])
    winf_1 = recession(W, x2s, A2s, M1s, schedule)
    winf_2 = recession(W, x2s, A2s, M2s, schedule)
    den = norm(M1s - M2s, 3)
    mask = den > 1e-12
    ratios = np.where(mask, np.abs(winf_1 - winf_2) / np.where(mask, den, 1.0), 0.0)
    out["h2infty"] = _validate(float(np.max(ratios)), W.constants.get("h2infty"), len(ratios),
                               _argmax_witness(ratios, x=x2s, A=A2s, M1=M1s, M2=M2s))

    x0 = _sample_x(cfg, rng, half4)
    dx = cfg.pair_scales[-1] * _sample_unit(rng, half4, N)
    x1 = np.clip(x0 + dx, DOMAIN_LOWER, DOMAIN_UPPER)
    winf_a = recession(W, x0, A4[:half4], Mdir[:half4], schedule)
    winf_b = recession(W, x1, A4[:half4], Mdir[:half4], schedule)
    sep = np.linalg.norm(x1 - x0, axis=1)
    mask = sep > 1e-12
    ratio = np.where(mask, np.abs(winf_a - winf_b) / np.where(mask, sep, 1.0), 0.0)
    out["h3infty"] = _validate(float(np.max(ratio)), W.constants.get("h3infty"), len(ratio),
                               _argmax_witness(ratio, x0=x0, x1=x1),
                               note="finite separation ladder; consistent-with, not a proof")
    return out


# ---------------------------------------------------------------------------
# interfacial density checks (bounds, modulus, homogeneity, subadditivity)
# ---------------------------------------------------------------------------


def _payload_shape(psi: InterfacialDensity, cfg: CheckConfig) -> tuple:
    return (cfg.d,) if psi.kind == 1 else (cfg.d, cfg.N)


def check_interfacial(psi: InterfacialDensity, tag: str, cfg: CheckConfig, rng=None) -> dict:
    if rng is None:
        rng = np.random.default_rng(cfg.seed + psi.kind)
    n, r, N = cfg.samples, cfg.input_range, cfg.N
    pshape = _payload_shape(psi, cfg)
    prank = len(pshape)
    out: dict[str, HypothesisResult] = {}

    x = _sample_x(cfg, rng, n)
    payload = rng.uniform(-r, r, size=(n,) + pshape)
    nu = _sample_unit(rng, n, N)
    for probe in psi.probes.get("H5", []):
        p = np.asarray(probe["payload"], dtype=float)
        if p.shape != pshape:
            raise ValueError(
                f"density {psi.name!r} ships probes for payload shape {p.shape}, "
                f"but the checker is configured for {pshape}; align d/N")
        x = np.concatenate([x, [np.asarray(probe["x"], dtype=float)]])
        payload = np.concatenate([payload, [p]])
        nu = np.concatenate([nu, [np.asarray(probe["nu"], dtype=float)]])
    vals = np.asarray(psi(x, payload, nu), dtype=float)
    mags = norm(payload, prank)
    mask = mags > 1e-12
    ratios = np.where(mask, vals / np.where(mask, mags, 1.0), np.nan)
    finite = ratios[np.isfinite(ratios)]
    k_meas = float(np.max(finite))
    out[f"H5.{tag}.upper"] = _validate(k_meas, psi.constants.get("H5.upper"), len(vals),
                                       _argmax_witness(np.where(np.isfinite(ratios), ratios, -np.inf),
                                                       x=x, payload=payload, nu=nu))
    low_ratio = np.where(np.isfinite(ratios), ratios, np.inf)
    idx_min = int(np.argmin(low_ratio))
    min_witness = _witness(idx_min, x=x, payload=payload, nu=nu)
    min_witness["value"] = float(low_ratio[idx_min])
    if psi.coercive:
        c_meas = float(np.min(low_ratio))
        out[f"H5.{tag}.lower"] = _validate(c_meas, psi.constants.get("H5.lower"),
                                           len(vals), min_witness)
    else:
        out[f"H5.{tag}.lower"] = HypothesisResult(
            "skipped", float(np.min(low_ratio)), psi.constants.get("H5.lower"), min_witness, len(vals),
            "non-coercive interfacial density: coercivity removable under bounded-variation sequence bounds")

    # H6: position modulus
    mods = []
    worst = None
    n6 = max(MIN_SAMPLES, n // len(cfg.pair_scales) // 2)
    for scale in cfg.pair_scales:
        x0 = _sample_x(cfg, rng, n6)
        dx = scale * _sample_unit(rng, n6, N)
        x1 = np.clip(x0 + dx, DOMAIN_LOWER, DOMAIN_UPPER)
        pl = payload[:n6]
        nn = nu[:n6]
        sep = np.linalg.norm(x1 - x0, axis=1)
        dpsi = np.abs(np.asarray(psi(x1, pl, nn), dtype=float) - np.asarray(psi(x0, pl, nn), dtype=float))
        den = sep * norm(pl, prank)
        mask = den > 1e-12
        ratio = np.where(mask, dpsi / np.where(mask, den, 1.0), 0.0)
        mods.append(float(np.max(ratio)))
        if mods[-1] >= max(mods):
            worst = _argmax_witness(ratio, x0=x0, x1=x1, payload=pl, nu=nn)
    count = n6 * len(cfg.pair_scales)
    for probe in psi.probes.get("H6", []):
        x0 = np.asarray(probe["x0"], dtype=float)[None]
        x1 = np.asarray(probe["x"], dtype=float)[None]
        pl = np.asarray(probe["payload"], dtype=float)[None]
        nn = np.asarray(probe["nu"], dtype=float)[None]
        sep = np.linalg.norm(x1 - x0, axis=1)
        dpsi = np.abs(np.asarray(psi(x1, pl, nn), dtype=float) - np.asarray(psi(x0, pl, nn), dtype=float))
        ratio = float(dpsi[0] / max(sep[0] * float(norm(pl, prank)[0]), _TINY))
        mods.append(ratio)
        count += 1
    out[f"H6.{tag}"] = _validate(max(mods), psi.constants.get("H6"), count, worst,
                                 note="finite separation ladder; consistent-with, not a proof")

    # H7: positive one-homogeneity, tested at fixed scalings
    n7 = n // 2
    x7, p7, nu7 = x[:n7], payload[:n7], nu[:n7]
    base = np.asarray(psi(x7, p7, nu7), dtype=float)
    worst_rel = -1.0
    worst_wit = None
    for t in (0.5, 2.0, 3.0):
        scaled = np.asarray(psi(x7, t * p7, nu7), dtype=float)
        resid = np.abs(scaled - t * base)
        rel = resid / np.maximum(t * np.abs(base), 1e-12)
        m = float(np.max(rel))
        if m > worst_rel:
            worst_rel = m
            idx = int(np.argmax(rel))
            worst_wit = _witness(idx, x=x7, payload=p7, nu=nu7)
            worst_wit.update({"t": t, "psi_scaled": float(scaled[idx]), "t_psi": float(t * base[idx])})
    verdict = "pass" if worst_rel <= EXACT_TOL else "fail"
    out[f"H7.{tag}"] = HypothesisResult(verdict, worst_rel, 0.0, worst_wit, n7 * 3,
                                        "relative residual of psi(t payload) against t psi(payload)")

    # H8: subadditivity
    n8 = n // 2
    p1 = payload[:n8]
    p2 = rng.uniform(-r, r, size=(n8,) + pshape)
    x8, nu8 = x[:n8], nu[:n8]
    lhs = np.asarray(psi(x8, p1 + p2, nu8), dtype=float)
    rhs = np.asarray(psi(x8, p1, nu8), dtype=float) + np.asarray(psi(x8, p2, nu8), dtype=float)
    slack = lhs - rhs
    rel = slack / np.maximum(np.abs(rhs), 1e-12)
    idx = int(np.argmax(rel))
    worst = _witness(idx, x=x8, p1=p1, p2=p2, nu=nu8)
    worst.update({"lhs": float(lhs[idx]), "rhs": float(rhs[idx])})
    verdict = "pass" if float(rel[idx]) <= EXACT_TOL else "fail"
    out[f"H8.{tag}"] = HypothesisResult(verdict, float(np.max(rel)), 0.0, worst, n8,
                                        "relative subadditivity slack (nonpositive when satisfied)")
    return out


def check_hypotheses(triple: DensityTriple, cfg: CheckConfig | None = None) -> HypothesisReport:
    """Run the full hypothesis battery on a density triple."""
    if cfg is None:
        cfg = CheckConfig()
    rng = np.random.default_rng(cfg.seed)
    results = {}
    results.update(check_bulk(triple.W, cfg, rng))
    results.update(check_interfacial(triple.psi1, "psi1", cfg, rng))
    results.update(check_interfacial(triple.psi2, "psi2", cfg, rng))
    return HypothesisReport(triple.names(), cfg.seed, cfg.to_dict(), results)
