"""Acceptance suite: every criterion at its stated tolerance.

Each test prints one PASS/FAIL line (run with ``pytest -s`` to see them all
even on success) and enforces the stated runtime budget.
"""

import json
import time

import numpy as np
import pytest

from sdrelax.assembly import AssembleConfig, assemble_relaxed_energy
from sdrelax.cellformulas import estimate_W1, estimate_W2, estimate_gamma1
from sdrelax.cli import run as cli_run
from reference_loops import elementary_jump, l1_norm, staircase, total_jump_mass
from sdrelax.constructions import SD2Triple, approximating_sequence, gradient_primitive
from sdrelax.densities import (
    DensityTriple,
    bulk_norm,
    bulk_zero,
    example_triple,
    norm_triple,
    psi1_norm,
    psi1_square,
    psi1_weighted,
    psi2_norm,
    psi2_proj,
)
from sdrelax.energy import total_energy
from sdrelax.fields import BoxDomain, PiecewiseAffineField, gauss_green_residual
from sdrelax.hypotheses import CheckConfig, check_hypotheses, check_interfacial
from sdrelax.trace_formula import (
    BoxInclusion,
    closed_form_W2,
    inclusion_energy,
    random_competitors,
    verify_example,
)

A_E1 = np.array([1.0, 0.0])


def report_line(number: int, ok: bool, detail: str):
    status = "PASS" if ok else "FAIL"
    print(f"[{status}] criterion {number}: {detail}")
    assert ok, f"criterion {number}: {detail}"


def slice_tensor(B: np.ndarray) -> np.ndarray:
    T = np.zeros((2, 2, 2))
    T[:, :, 0] = B
    return T


def test_criterion_1_identity_case():
    t0 = time.perf_counter()
    L = slice_tensor(np.eye(2))
    Z = np.zeros((2, 2, 2))
    closed = closed_form_W2(L, Z, A_E1)
    squares = [BoxInclusion(np.zeros(2), np.array([h, h])) for h in (0.05, 0.1, 0.15, 0.2)]
    energies = [inclusion_energy(L, Z, A_E1, b) for b in squares]
    best = min(energies)
    sampled = random_competitors(L, Z, A_E1, count=400, seed=0)
    all_above = all(e["energy"] >= 2.0 - 1e-9 for e in sampled) and \
        all(e >= 2.0 - 1e-9 for e in energies)
    elapsed = time.perf_counter() - t0
    ok = (closed == pytest.approx(2.0, abs=1e-15)
          and abs(best - 2.0) <= 1e-9
          and all_above
          and elapsed < 1.0)
    report_line(1, ok, f"closed={closed}, best square={best}, "
                       f"all competitors >= 2-1e-9: {all_above}, {elapsed:.2f}s")


def test_criterion_2_same_and_mixed_sign():
    t0 = time.perf_counter()
    L_pos = slice_tensor(np.diag([1.0, 2.0]))
    Z = np.zeros((2, 2, 2))
    rep_pos = verify_example(L_pos, Z, A_E1)
    same_sign_ok = (rep_pos["in_S"]
                    and rep_pos["closed_form"] == pytest.approx(3.0, abs=1e-12)
                    and abs(rep_pos["gap"]) <= 1e-6)

    L_mix = slice_tensor(np.diag([1.0, -2.0]))
    rep_mix = verify_example(L_mix, Z, A_E1, random_count=1000, seed=1)
    mixed_ok = (rep_mix["closed_form"] == pytest.approx(1.0, abs=1e-12)
                and rep_mix["lower_bound_ok"]
                and rep_mix["best_upper"] == pytest.approx(3.0, abs=1e-12)
                and rep_mix["gap"] == pytest.approx(2.0, abs=1e-9))
    elapsed = time.perf_counter() - t0
    ok = same_sign_ok and mixed_ok and elapsed < 5.0
    report_line(2, ok, f"same-sign gap={rep_pos['gap']:.2e}, mixed box value="
                       f"{rep_mix['best_upper']}, documented gap={rep_mix['gap']}, {elapsed:.2f}s")


def test_criterion_3_certified_exactness():
    t0 = time.perf_counter()
    rng = np.random.default_rng(42)
    worst_gamma = 0.0
    for i in range(100):
        d = 2 if i % 2 == 0 else 3
        lam = 3.0 * rng.standard_normal(d)
        nu = rng.standard_normal(d)
        nu /= np.linalg.norm(nu)
        r = estimate_gamma1(np.zeros(d), lam, nu, norm_triple(d=d, N=d))
        worst_gamma = max(worst_gamma, abs(r.upper - r.lower),
                          abs(r.upper - np.linalg.norm(lam)))
    worst_w1 = 0.0
    for i in range(50):
        d = 2 if i % 2 == 0 else 3
        A = np.zeros((d, d))
        A[:, int(rng.integers(d))] = rng.standard_normal(d)
        r = estimate_W1(np.zeros(d), A, norm_triple(d=d, N=d))
        worst_w1 = max(worst_w1, r.upper - r.lower)
    elapsed = time.perf_counter() - t0
    ok = worst_gamma <= 1e-12 and worst_w1 <= 1e-10 and elapsed < 10.0
    report_line(3, ok, f"gamma1 width <= {worst_gamma:.1e} (tol 1e-12), "
                       f"W1 rank-one width <= {worst_w1:.1e} (tol 1e-10), {elapsed:.2f}s")


def test_criterion_4_hypothesis_checker():
    t0 = time.perf_counter()
    cfg = CheckConfig(samples=10_000, seed=0)
    rep_a = check_hypotheses(norm_triple(), cfg)
    rep_b = check_hypotheses(
        DensityTriple(bulk_zero(), psi1_weighted(), psi2_proj(A_E1)), cfg)
    declared_ok = rep_a.all_pass and rep_b.all_pass
    within = []
    for rep in (rep_a, rep_b):
        for key, res in rep.results.items():
            if res.declared not in (None, 0.0) and res.measured is not None:
                within.append(res.declared / 1.01 <= res.measured <= res.declared * 1.01)
    declared_ok = declared_ok and all(within)

    violator = check_interfacial(psi1_square(), "psi1", cfg)
    caught = (violator["H7.psi1"].verdict == "fail"
              and violator["H7.psi1"].worst is not None
              and "t" in violator["H7.psi1"].worst)
    flagged = (rep_b.results["H5.psi2.lower"].verdict == "skipped"
               and "non-coercive" in rep_b.results["H5.psi2.lower"].note)
    elapsed = time.perf_counter() - t0
    ok = declared_ok and caught and flagged and elapsed < 30.0
    report_line(4, ok, f"declared constants within 1.01 over {cfg.samples} samples "
                       f"({len(within)} checks), violator caught={caught}, "
                       f"non-coercive flagged={flagged}, {elapsed:.2f}s")


def test_criterion_5_construction_bounds():
    t0 = time.perf_counter()
    rng = np.random.default_rng(7)
    worst_mass_dev = 0.0
    worst_gg = 0.0
    for _ in range(1000):
        d, N = int(rng.integers(1, 4)), int(rng.integers(1, 4))
        A = rng.uniform(-5, 5, size=(d, N))
        dom = BoxDomain(np.zeros(N), np.ones(N), np.ones(N, dtype=int))
        u = staircase(A, 4, dom)
        mass = total_jump_mass(u)
        expected = sum(np.linalg.norm(A[:, j]) for j in range(N))
        worst_mass_dev = max(worst_mass_dev, abs(mass - expected))
        worst_gg = max(worst_gg, float(np.max(np.abs(gauss_green_residual(u)))))
    primitive_ok = True
    for k in range(10_000):
        d, N = int(rng.integers(1, 3)), int(rng.integers(1, 3))
        res = rng.integers(2, 4, size=N)
        dom = BoxDomain(np.zeros(N), np.ones(N), res)
        values = rng.uniform(-3, 3, size=tuple(res) + (d, N))
        f = PiecewiseAffineField(dom, values)
        u = gradient_primitive(f)
        primitive_ok &= total_jump_mass(u) <= 4 * N * l1_norm(f) + 1e-12
        if k % 20 == 0:
            worst_gg = max(worst_gg, float(np.max(np.abs(gauss_green_residual(u)))))
    ej = elementary_jump(np.array([1.0, -2.0]), ndim=2, resolution=4)
    worst_gg = max(worst_gg, float(np.max(np.abs(gauss_green_residual(ej)))))
    elapsed = time.perf_counter() - t0
    ok = worst_mass_dev <= 1e-10 and primitive_ok and worst_gg <= 1e-10
    report_line(5, ok, f"staircase mass dev {worst_mass_dev:.1e} (tol 1e-10), "
                       f"primitive 4N bound on 1e4 fields: "
                       f"{primitive_ok}, closure residual {worst_gg:.1e}, {elapsed:.1f}s")


def _corpus():
    dom = BoxDomain([0.0], [1.0], [4])
    centers = dom.cell_centers().reshape(4, 1)

    g_aff = PiecewiseAffineField(dom, 2.0 * centers, np.full((4, 1, 1), 2.0))
    G_aff = PiecewiseAffineField(dom, np.full((4, 1, 1), 2.0))
    affine = SD2Triple(g_aff, G_aff, np.zeros((4, 1, 1, 1)))

    g_slip = PiecewiseAffineField(dom, centers, np.ones((4, 1, 1)))
    G_slip = PiecewiseAffineField(dom, np.zeros((4, 1, 1)))
    slip = SD2Triple(g_slip, G_slip, np.zeros((4, 1, 1, 1)))

    g_quad = PiecewiseAffineField(dom, 0.5 * centers**2, centers.reshape(4, 1, 1))
    G_quad = PiecewiseAffineField(dom, centers.reshape(4, 1, 1), np.ones((4, 1, 1, 1)))
    quad = SD2Triple(g_quad, G_quad, np.ones((4, 1, 1, 1)))
    return {"affine": affine, "slip": slip, "quadratic": quad}


def test_criterion_6_approximating_sequences():
    t0 = time.perf_counter()
    decay_ok = True
    exact_ok = True
    details = []
    for name, sd2 in _corpus().items():
        errors = []
        for n in (4, 8, 16, 32):
            _, diag = approximating_sequence(sd2, n)
            errors.append(diag["l1_u"] + diag["l1_grad"])
            exact_ok &= diag["second_gradient_exact"]
        for a, b in zip(errors, errors[1:]):
            decay_ok &= b <= max(0.6 * a, 1e-14)
        details.append(f"{name}: {['%.2e' % e for e in errors]}")
    elapsed = time.perf_counter() - t0
    ok = decay_ok and exact_ok and elapsed < 10.0
    report_line(6, ok, f"decay<=0.6 {decay_ok}, second gradient exact {exact_ok}; "
                       + "; ".join(details) + f", {elapsed:.1f}s")


def test_criterion_7_assembly():
    t0 = time.perf_counter()
    corpus = _corpus()
    rep = assemble_relaxed_energy(corpus["slip"], norm_triple(d=1, N=1))
    decomposition_ok = (rep.total.upper == rep.I1.upper + rep.I2.upper
                        and rep.total.lower == rep.I1.lower + rep.I2.lower)
    slip_ok = (rep.total.upper == pytest.approx(1.0, abs=1e-12)
               and rep.total.upper - rep.total.lower <= 1e-10)

    dom = BoxDomain([0, 0], [1, 1], [2, 2])
    P = np.zeros((2, 2, 2))
    P[0, 0, 0] = 1.0
    P[1, 0, 1] = 1.0
    centers = dom.cell_centers()
    G = PiecewiseAffineField(dom, np.einsum("vwk,...k->...vw", P, centers),
                             np.broadcast_to(P, (2, 2) + P.shape).copy())
    g = PiecewiseAffineField(dom, np.zeros((2, 2, 2)))
    sd2 = SD2Triple(g, G, np.zeros((2, 2, 2, 2, 2)))
    rep6 = assemble_relaxed_energy(sd2, example_triple(A_E1),
                                   AssembleConfig(w2_estimator="trace-formula"))
    oracle = 2.0  # |tr(grad G (., e1))| = |P_000 + P_101| = 2 on the unit square
    example_ok = abs(rep6.bulk2.upper - oracle) <= 1e-8
    elapsed = time.perf_counter() - t0
    ok = decomposition_ok and slip_ok and example_ok
    report_line(7, ok, f"decomposition exact={decomposition_ok}, slip total="
                       f"{rep.total.upper} width={rep.total.upper - rep.total.lower:.1e}, "
                       f"example bulk2={rep6.bulk2.upper} vs oracle={oracle}, {elapsed:.1f}s")


def test_criterion_8_determinism(tmp_path):
    t0 = time.perf_counter()
    config = {
        "task": "relax-assemble",
        "seed": 5,
        "densities": {"W": {"catalog": "W_norm"}, "psi1": {"catalog": "Psi1_norm"},
                      "psi2": {"catalog": "Psi2_norm"}, "d": 1, "N": 1},
        "domain": {"lower": [0.0], "upper": [1.0], "resolution": [4]},
        "fields": {"g": {"linear": [[1.0]]}, "G": {"constant": [[0.0]]},
                   "Gamma": {"constant": [[[0.0]]]}},
        "assemble": {"collect_cells": True},
        "output": {"json": "out.json"},
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(config))

    def run_once(tag, jobs):
        out = tmp_path / tag
        assert cli_run(str(cfg_path), out_dir=str(out), jobs=jobs) == 0
        lines = [ln for ln in (out / "out.json").read_text().splitlines()
                 if '"timestamp"' not in ln and '"jobs"' not in ln]
        return "\n".join(lines)

    a = run_once("a", 1)
    b = run_once("b", 1)
    c = run_once("c", 8)
    elapsed = time.perf_counter() - t0
    ok = a == b == c
    report_line(8, ok, f"byte-identical reports modulo timestamp across reruns "
                       f"and jobs 1 vs 8: {ok}, {elapsed:.1f}s")
