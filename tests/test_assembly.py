import json
from dataclasses import replace
from math import fsum

import numpy as np
import pytest

import reference_loops as ref
from sdrelax import assembly, cellformulas
from sdrelax.assembly import AssembleConfig, assemble_relaxed_energy
from sdrelax.cellformulas import EstimationError
from sdrelax.constructions import SD2Triple, approximating_sequence
from sdrelax.densities import (
    DensityTriple,
    InterfacialDensity,
    bulk_norm,
    bulk_zero,
    example_triple,
    norm_triple,
    psi1_norm,
    psi2_norm,
    triple_from_expressions,
)
from sdrelax.energy import total_energy
from sdrelax.fields import BoxDomain, PiecewiseAffineField
from sdrelax.integrate import norm


def linear_field(domain, A):
    A = np.atleast_2d(np.asarray(A, dtype=float))
    centers = domain.cell_centers().reshape(-1, domain.ndim)
    const = (centers @ A.T).reshape(domain.cells_shape + (A.shape[0],))
    lin = np.broadcast_to(A, domain.cells_shape + A.shape).copy()
    return PiecewiseAffineField(domain, const, lin)


def slip_sd2():
    dom = BoxDomain([0.0], [1.0], [4])
    g = linear_field(dom, [[1.0]])
    G = PiecewiseAffineField(dom, np.zeros((4, 1, 1)))
    return SD2Triple(g, G, np.zeros((4, 1, 1, 1)))


def affine_sd2(A=np.array([[1.0, 0.5], [0.0, 1.0]])):
    dom = BoxDomain([0, 0], [1, 1], [2, 2])
    g = linear_field(dom, A)
    G = PiecewiseAffineField(dom, np.broadcast_to(A, (2, 2) + A.shape).copy())
    return SD2Triple(g, G, np.zeros((2, 2, 2, 2, 2)))


def example_sd2(P=None):
    dom = BoxDomain([0, 0], [1, 1], [2, 2])
    if P is None:
        P = np.zeros((2, 2, 2))
        P[0, 0, 0] = 1.0
        P[1, 0, 1] = 1.0   # field layout: closed-form integrand 2 with a = e1
    centers = dom.cell_centers()
    G = PiecewiseAffineField(dom, np.einsum("vwk,...k->...vw", P, centers),
                             np.broadcast_to(P, (2, 2) + P.shape).copy())
    g = PiecewiseAffineField(dom, np.zeros((2, 2, 2)))
    return SD2Triple(g, G, np.zeros((2, 2, 2, 2, 2)))


class TestDecomposition:
    def test_identity_exact(self):
        rep = assemble_relaxed_energy(slip_sd2(), norm_triple(d=1, N=1))
        assert rep.total.upper == rep.I1.upper + rep.I2.upper
        assert rep.total.lower == rep.I1.lower + rep.I2.lower

    def test_brackets_ordered(self):
        rep = assemble_relaxed_energy(affine_sd2(), norm_triple())
        for term in (rep.bulk1, rep.bulk2, rep.surf1, rep.surf2, rep.I1, rep.I2, rep.total):
            assert term.lower <= term.upper + 1e-12


class TestSlipCase:
    def test_unit_total_with_tight_bracket(self):
        rep = assemble_relaxed_energy(slip_sd2(), norm_triple(d=1, N=1))
        assert rep.total.upper == pytest.approx(1.0, abs=1e-12)
        assert rep.total.upper - rep.total.lower <= 1e-10
        assert rep.surf1.upper == 0.0 and rep.surf2.upper == 0.0
        assert rep.bulk2.upper == 0.0


class TestAffineCase:
    def test_disarrangement_free_deformation(self):
        A = np.array([[1.0, 0.5], [0.0, 1.0]])
        rep = assemble_relaxed_energy(affine_sd2(A), norm_triple())
        assert rep.bulk1.upper == 0.0
        assert rep.surf1.upper == 0.0
        assert rep.bulk2.upper <= np.linalg.norm(A) + 1e-12


class TestWorkedExampleSetting:
    # the closed-form bulk energy of example_sd2 with a = e1: |P_000 + P_101| = 2
    # per unit area, on the unit square
    ORACLE = 2.0

    def test_trace_estimator_matches_oracle(self):
        a = np.array([1.0, 0.0])
        sd2 = example_sd2()
        rep = assemble_relaxed_energy(sd2, example_triple(a),
                                      AssembleConfig(w2_estimator="trace-formula"))
        assert rep.bulk2.upper == pytest.approx(self.ORACLE, abs=1e-8)
        assert rep.bulk2.lower == pytest.approx(self.ORACLE, abs=1e-8)
        assert rep.total.upper == rep.I1.upper + rep.I2.upper

    def test_family_estimator_dominates_oracle(self):
        a = np.array([1.0, 0.0])
        sd2 = example_sd2()
        rep = assemble_relaxed_energy(sd2, example_triple(a), AssembleConfig(budget=2))
        assert rep.bulk2.upper >= self.ORACLE - 1e-9

    def test_trace_estimator_guarded(self):
        with pytest.raises(ValueError):
            assemble_relaxed_energy(example_sd2(), norm_triple(),
                                    AssembleConfig(w2_estimator="trace-formula"))


def repeated_sd2(seed):
    """A seeded 3x3 input whose cells draw (g, G, Gamma) from a pool of three,
    two of which differ only in the sign of their zero entries."""
    rng = np.random.default_rng(seed)
    dom = BoxDomain([0.0, 0.0], [1.0, 1.0], [3, 3])

    def pooled(shape):
        base = rng.standard_normal(shape)
        base[rng.random(shape) < 0.4] = 0.0
        negzero = np.where(base == 0.0, -0.0, base)
        pool = np.stack([base, negzero, rng.standard_normal(shape)])
        return pool[rng.integers(0, 3, size=(3, 3))]

    g = PiecewiseAffineField(dom, pooled((2,)), np.zeros((3, 3, 2, 2)))
    G = PiecewiseAffineField(dom, pooled((2, 2)), pooled((2, 2, 2)))
    return SD2Triple(g, G, pooled((2, 2, 2)))


def exact_body(body: dict) -> str:
    """A report body without its cache counts; repr keeps every float's bits."""
    return json.dumps({k: v for k, v in body.items() if k != "cache"}, sort_keys=True)


class TestCache:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("densities", [
        norm_triple(),
        triple_from_expressions("norm(A) + norm(M)*(1 + x[0])", "norm(lam)", "norm(Lam)"),
    ], ids=["x-free", "x-dependent"])
    def test_matches_memo_free_reference(self, seed, densities):
        sd2 = repeated_sd2(seed)
        config = AssembleConfig()
        rep = assemble_relaxed_energy(sd2, densities, config)
        assert rep.cache_hits + rep.cache_misses == 2 * rep.cells + rep.facets_g + rep.facets_G
        assert exact_body(rep.to_dict()) == exact_body(
            ref.assemble_relaxed_energy(sd2, densities, config))

    def test_x_free_densities_share_solves(self):
        rep = assemble_relaxed_energy(slip_sd2(), norm_triple(d=1, N=1))
        assert rep.cache_hits >= rep.cells - 1

    def test_key_folds_signed_zero(self):
        # A1 = G - grad g and A2 = G are 0.0 in one cell and -0.0 in the other
        dom = BoxDomain([0.0], [1.0], [2])
        G = PiecewiseAffineField(dom, np.array([[[0.0]], [[-0.0]]]))
        sd2 = SD2Triple(PiecewiseAffineField(dom, np.zeros((2, 1))), G, np.zeros((2, 1, 1, 1)))
        rep = assemble_relaxed_energy(sd2, norm_triple(d=1, N=1))
        assert (rep.facets_g, rep.facets_G) == (0, 0)
        assert (rep.cache_hits, rep.cache_misses) == (2, 2)

    @pytest.mark.parametrize("slopes", [(1.0 + 3e-7, 1.0), (1.0, 1.0 + 3e-7)])
    def test_near_equal_cells_keep_their_own_bracket(self, slopes):
        # the two W1 problems differ by 3e-7: each cell is priced at its own slope
        dom = BoxDomain([0.0], [1.0], [2])
        lin = np.array(slopes).reshape(2, 1, 1)
        const = np.array([[0.25 * slopes[0]], [0.5 * slopes[0] + 0.25 * slopes[1]]])
        sd2 = SD2Triple(PiecewiseAffineField(dom, const, lin),
                        PiecewiseAffineField(dom, np.zeros((2, 1, 1))), np.zeros((2, 1, 1, 1)))
        rep = assemble_relaxed_energy(sd2, norm_triple(d=1, N=1))
        expected = fsum(0.5 * s for s in slopes)
        assert expected == pytest.approx(1.00000015, rel=1e-15)
        assert rep.bulk1.upper == rep.bulk1.lower == expected


    def test_negative_lower_bound_counts_as_zero(self):
        # a false declaration H5.lower = -1 makes every W1 lower bound -|A1| = -1
        nt = norm_triple(d=1, N=1)
        psi1 = replace(nt.psi1, constants={**nt.psi1.constants, "H5.lower": -1.0})
        rep = assemble_relaxed_energy(slip_sd2(), DensityTriple(nt.W, psi1, nt.psi2))
        assert rep.bulk1.upper == 1.0
        assert rep.bulk1.lower == 0.0

    def test_normal_is_part_of_the_gamma1_key(self):
        # psi1 declares no position dependence but weighs x-facets 3 and y-facets 2;
        # g = i + j on a 2x2 grid jumps by 1 across every interior facet
        dom = BoxDomain([0.0, 0.0], [1.0, 1.0], [2, 2])
        g = PiecewiseAffineField(dom, np.array([[[0.0], [1.0]], [[1.0], [2.0]]]))
        G = PiecewiseAffineField(dom, np.zeros((2, 2, 1, 2)))
        sd2 = SD2Triple(g, G, np.zeros((2, 2, 1, 2, 2)))
        psi1 = InterfacialDensity("Psi1_nu", 1, lambda x, lam, nu: norm(lam, 1) * (2.0 + nu[..., 0]),
                                  constants={"H6": 0.0})
        densities = DensityTriple(bulk_norm(d=1, N=2), psi1, psi2_norm(d=1, N=2))
        config = AssembleConfig()
        rep = assemble_relaxed_energy(sd2, densities, config)
        assert rep.facets_g == 4
        assert rep.surf1.upper == pytest.approx(2 * 0.5 * 3.0 + 2 * 0.5 * 2.0)
        assert exact_body(rep.to_dict()) == exact_body(
            ref.assemble_relaxed_energy(sd2, densities, config))


def pooled_sd2(N, res, seed=0):
    """A seeded input on an N-dimensional grid of ``res`` cells per axis whose
    cells draw g, G and Gamma from pools of three: g and G jump across
    facets (Gamma1 and Gamma2 problems), and the repeated cells and facets
    share solves under densities that declare no position dependence."""
    rng = np.random.default_rng([N, res, seed])
    dom = BoxDomain(np.zeros(N), np.ones(N), [res] * N)
    cells = dom.cells_shape

    def pooled(shape):
        pool = rng.standard_normal((3,) + shape)
        return pool[rng.integers(0, 3, size=cells)]

    g = PiecewiseAffineField(dom, pooled((N,)), pooled((N, N)))
    G = PiecewiseAffineField(dom, pooled((N, N)), pooled((N, N, N)))
    return SD2Triple(g, G, pooled((N, N, N)))


class TestBatchedAssembly:
    """The W1, Gamma1 and Gamma2 problems go through batched sweeps and the
    W2 ones one at a time; the report is the reference loop's, which calls
    each estimator once per cell and facet, byte for byte, cell rows
    included."""

    @pytest.mark.parametrize("representative", ["average", "plus", "minus"])
    @pytest.mark.parametrize("N, res", [(1, 6), (2, 3), (3, 2)])
    def test_matches_the_reference_loop(self, N, res, representative):
        sd2 = pooled_sd2(N, res)
        expression = triple_from_expressions("norm(M)*(norm(A) - 2)", "norm(lam)*(1 + x[0])",
                                             f"norm(Lam)*(2 + x[{N - 1}])")
        for densities, budget in ((norm_triple(d=N, N=N), 1), (expression, 2)):
            config = AssembleConfig(budget=budget, gamma2_representative=representative,
                                    collect_cells=True)
            rep = assemble_relaxed_energy(sd2, densities, config)
            assert rep.facets_g > 0 and rep.facets_G > 0
            if densities.psi1.constants.get("H6") == 0.0:
                assert rep.cache_hits > 0
            assert exact_body({**rep.to_dict(), "cell_rows": rep.cell_rows}) == exact_body(
                ref.assemble_relaxed_energy(sd2, densities, config))

    def test_blocks_do_not_move_the_report(self, monkeypatch):
        sd2 = pooled_sd2(2, 3)
        reports = []
        for block in (1, 7, 10**6):
            monkeypatch.setattr(cellformulas, "_SWEEP_BLOCK", block)
            rep = assemble_relaxed_energy(sd2, norm_triple(), AssembleConfig(collect_cells=True))
            reports.append(json.dumps({**rep.to_dict(), "cell_rows": rep.cell_rows}, sort_keys=True))
        assert reports[0] == reports[1] == reports[2]


class TestDeterminism:
    def test_reruns_match_bitwise(self):
        sd2 = repeated_sd2(3)
        runs = [exact_body(assemble_relaxed_energy(sd2, norm_triple()).to_dict())
                for _ in range(2)]
        assert runs[0] == runs[1]


class TestEstimationFailure:
    def test_failed_solve_names_the_cell(self, monkeypatch):
        # all four cells share one W1 key; its one solve fails and the
        # failure surfaces with the first cell's data instead of a memoized result
        calls = []
        batch = assembly.estimate_batch

        def planted(variant, problems, *args, **kwargs):
            if variant != "W1":
                return batch(variant, problems, *args, **kwargs)
            calls.append(problems)
            return [EstimationError("planted") for _ in problems]

        monkeypatch.setattr(assembly, "estimate_batch", planted)
        with pytest.raises(EstimationError, match=r"cell 0 at x=\[0.25, 0.25\]: planted; A1="):
            assemble_relaxed_energy(affine_sd2(), norm_triple())
        assert [len(problems) for problems in calls] == [1]

    @staticmethod
    def failing_sd2(w1_cell, w2_cell):
        """``affine_sd2`` with a NaN first-gradient slot A1 in cell ``w1_cell``,
        whose W1 problem then has no admissible competitor, and a NaN Gamma in
        cell ``w2_cell``, whose W2 problem then has none."""
        sd2 = affine_sd2()
        lin, Gamma = sd2.g.lin.copy(), sd2.Gamma.copy()
        lin[np.unravel_index(w1_cell, (2, 2)) + (0, 0)] = np.nan
        if w2_cell is not None:
            Gamma[np.unravel_index(w2_cell, (2, 2)) + (0, 0, 0)] = np.nan
        return SD2Triple(PiecewiseAffineField(sd2.g.domain, sd2.g.const, lin), sd2.G, Gamma)

    @pytest.mark.parametrize("w1_cell, w2_cell, named", [
        (3, None, r"cell 3 at x=\[0.75, 0.75\]: no admissible competitor generated for W1: "),
        (3, 1, r"cell 1 at x=\[0.25, 0.75\]: no admissible competitor generated for W2: "),
        (2, 2, r"cell 2 at x=\[0.75, 0.25\]: no admissible competitor generated for W1: "),
    ], ids=["later-W1-after-earlier-W2", "earlier-W2-before-later-W1", "W1-before-W2-of-a-cell"])
    def test_first_failure_in_grid_order_names_its_cell(self, monkeypatch, w1_cell, w2_cell, named):
        # the W1 batch is solved before any W2, but its failures are raised
        # where the grid order reaches them: a cell's W1 before its W2, and
        # after the W2 of every earlier cell
        solved = []
        estimate_W2 = assembly.estimate_W2

        def spied(x, *args, **kwargs):
            solved.append(x.tolist())
            return estimate_W2(x, *args, **kwargs)

        monkeypatch.setattr(assembly, "estimate_W2", spied)
        with pytest.raises(EstimationError, match=named):
            assemble_relaxed_energy(self.failing_sd2(w1_cell, w2_cell), norm_triple())
        # the norm densities declare no position dependence: cell 0's W2 solve
        # serves every earlier cell with finite data
        assert solved[0] == [0.25, 0.25]


class TestSequenceConsistency:
    def test_liminf_dominates_lower_bracket(self):
        # the relaxed energy bounds sequence limits, so compare the
        # extrapolated limit (1/n^2-rate Richardson) against the bracket
        dom = BoxDomain([0.0], [1.0], [4])
        centers = dom.cell_centers().reshape(4, 1)
        quad = SD2Triple(
            PiecewiseAffineField(dom, 0.5 * centers**2, centers.reshape(4, 1, 1)),
            PiecewiseAffineField(dom, centers.reshape(4, 1, 1), np.ones((4, 1, 1, 1))),
            np.ones((4, 1, 1, 1)))
        cases = [
            (slip_sd2(), norm_triple(d=1, N=1)),
            (affine_sd2(), norm_triple()),
            (quad, norm_triple(d=1, N=1)),
        ]
        for sd2, densities in cases:
            rep = assemble_relaxed_energy(sd2, densities)
            energies = {}
            for n in (8, 16, 32):
                pair, _ = approximating_sequence(sd2, n)
                energies[n] = total_energy(pair, densities).total
            extrapolated = energies[32] + (energies[32] - energies[16]) / 3.0
            assert extrapolated >= rep.total.lower - 1e-6
            assert energies[16] >= energies[8] - 1e-12  # monotone toward the limit


class TestBracketOrder:
    @pytest.mark.xfail(strict=True, reason="program defect: the W2 certificate and the winning "
                       "inclusion box round the same value differently (ROADMAP item 5)")
    def test_small_gamma_keeps_bulk2_and_total_ordered(self):
        # G constant 1 and Gamma constant 5e-11 on the 1D slip grid: bulk2 and
        # total read upper 4.9999999999999995e-11 below lower 5e-11
        dom = BoxDomain([0.0], [1.0], [4])
        sd2 = SD2Triple(linear_field(dom, [[1.0]]), PiecewiseAffineField(dom, np.ones((4, 1, 1))),
                        np.full((4, 1, 1, 1), 5e-11))
        densities = DensityTriple(bulk_zero(d=1, N=1), psi1_norm(d=1, N=1), psi2_norm(d=1, N=1))
        rep = assemble_relaxed_energy(sd2, densities)
        assert rep.bulk2.lower <= rep.bulk2.upper
        assert rep.total.lower <= rep.total.upper


class TestJumpSurfaces:
    def test_jumping_g_produces_surface_term(self):
        dom = BoxDomain([0.0], [1.0], [4])
        const = np.zeros((4, 1))
        const[2:] = 1.0   # step of height 1 at y = 1/2
        g = PiecewiseAffineField(dom, const)
        G = PiecewiseAffineField(dom, np.zeros((4, 1, 1)))
        sd2 = SD2Triple(g, G, np.zeros((4, 1, 1, 1)))
        rep = assemble_relaxed_energy(sd2, norm_triple(d=1, N=1))
        assert rep.surf1.upper == pytest.approx(1.0, abs=1e-12)
        assert rep.surf1.lower == pytest.approx(1.0, abs=1e-12)

    def test_jumping_G_produces_second_surface_term(self):
        dom = BoxDomain([0.0], [1.0], [4])
        Gc = np.zeros((4, 1, 1))
        Gc[2:] = 1.0
        g = PiecewiseAffineField(dom, np.zeros((4, 1)))
        G = PiecewiseAffineField(dom, Gc)
        sd2 = SD2Triple(g, G, np.zeros((4, 1, 1, 1)))
        rep = assemble_relaxed_energy(sd2, norm_triple(d=1, N=1))
        assert rep.surf2.upper == pytest.approx(1.0, abs=1e-12)

    def test_representative_choices_run(self):
        dom = BoxDomain([0.0], [1.0], [4])
        Gc = np.zeros((4, 1, 1))
        Gc[2:] = 1.0
        g = PiecewiseAffineField(dom, np.zeros((4, 1)))
        G = PiecewiseAffineField(dom, Gc)
        sd2 = SD2Triple(g, G, np.zeros((4, 1, 1, 1)))
        values = set()
        for rep_choice in ("average", "plus", "minus"):
            rep = assemble_relaxed_energy(sd2, norm_triple(d=1, N=1),
                                          AssembleConfig(gamma2_representative=rep_choice))
            values.add(rep.surf2.upper)
        assert len(values) == 1  # norm densities ignore the frozen slot

    def test_representative_reaches_the_recession_term(self):
        # W = |M| (|A| - 2) has a recession that changes sign with the frozen
        # slot A, so the three representatives price the G jumps differently
        rng = np.random.default_rng(8)
        dom = BoxDomain([0.0, 0.0], [1.0, 1.0], [2, 2])
        g = PiecewiseAffineField(dom, rng.standard_normal((2, 2, 2)),
                                 rng.standard_normal((2, 2, 2, 2)))
        G = PiecewiseAffineField(dom, rng.standard_normal((2, 2, 2, 2)))
        sd2 = SD2Triple(g, G, np.zeros((2, 2, 2, 2, 2)))
        densities = triple_from_expressions("norm(M)*(norm(A) - 2)", "norm(lam)", "norm(Lam)")
        upper = {rep: assemble_relaxed_energy(sd2, densities, AssembleConfig(
                     budget=2, gamma2_representative=rep)).surf2.upper
                 for rep in ("average", "plus", "minus")}
        assert upper == {"average": 7.301904176507416, "plus": 7.367350457438638,
                         "minus": 6.116363856347059}


def random_field(domain, value_shape, rng):
    cells = domain.cells_shape
    return PiecewiseAffineField(domain, rng.standard_normal(cells + value_shape),
                                rng.standard_normal(cells + value_shape + (domain.ndim,)))


class TestMixedGrids:
    """g and (G, Gamma) on different grids of one box behave as if the caller
    had refined both onto their least common grid first."""

    def fields(self):
        rng = np.random.default_rng(7)
        coarse = BoxDomain([0, 0], [1, 1], [2, 2])
        fine = BoxDomain([0, 0], [1, 1], [4, 4])
        g = random_field(coarse, (2,), rng)
        G = random_field(fine, (2, 2), rng)
        Gamma = rng.standard_normal((4, 4, 2, 2, 2))
        return g, G, Gamma

    def test_coarse_g_assembles_like_refined_g(self):
        g, G, Gamma = self.fields()
        mixed = assemble_relaxed_energy(SD2Triple(g, G, Gamma), norm_triple())
        refined = assemble_relaxed_energy(SD2Triple(g.refine(2), G, Gamma), norm_triple())
        assert mixed.cells == 16
        assert mixed.to_dict() == refined.to_dict()

    def test_coarse_G_assembles_like_refined_G(self):
        rng = np.random.default_rng(8)
        coarse = BoxDomain([0.0], [1.0], [2])
        fine = BoxDomain([0.0], [1.0], [4])
        g = random_field(fine, (1,), rng)
        G = random_field(coarse, (1, 1), rng)
        Gamma = rng.standard_normal((2, 1, 1, 1))
        mixed = assemble_relaxed_energy(SD2Triple(g, G, Gamma), norm_triple(d=1, N=1))
        refined = assemble_relaxed_energy(
            SD2Triple(g, G.refine(2), np.repeat(Gamma, 2, axis=0)), norm_triple(d=1, N=1))
        assert mixed.to_dict() == refined.to_dict()

    def test_coarse_g_sequence_like_refined_g(self):
        g, G, Gamma = self.fields()
        mixed, diag_mixed = approximating_sequence(SD2Triple(g, G, Gamma), 2)
        refined, diag_refined = approximating_sequence(SD2Triple(g.refine(2), G, Gamma), 2)
        assert diag_mixed == diag_refined
        for a, b in ((mixed.u, refined.u), (mixed.grad, refined.grad)):
            assert np.array_equal(a.const, b.const) and np.array_equal(a.lin, b.lin)

    def test_one_grid_inputs_are_kept(self):
        sd2 = affine_sd2()
        again = SD2Triple(sd2.g, sd2.G, sd2.Gamma)
        assert again.g is sd2.g and again.G is sd2.G and again.Gamma is sd2.Gamma
