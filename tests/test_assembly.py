import threading
import time

import numpy as np
import pytest

from sdrelax import assembly
from sdrelax.assembly import AssembleConfig, assemble_relaxed_energy
from sdrelax.cellformulas import EstimationError
from sdrelax.constructions import SD2Triple, approximating_sequence
from sdrelax.densities import example_triple, norm_triple, triple_from_expressions
from sdrelax.energy import total_energy
from sdrelax.fields import BoxDomain, PiecewiseAffineField
from sdrelax.trace_formula import bulk_relaxed_energy_example


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
    def test_trace_estimator_matches_oracle(self):
        a = np.array([1.0, 0.0])
        sd2 = example_sd2()
        rep = assemble_relaxed_energy(sd2, example_triple(a),
                                      AssembleConfig(w2_estimator="trace-formula"))
        oracle = bulk_relaxed_energy_example(sd2, a)
        assert rep.bulk2.upper == pytest.approx(oracle, abs=1e-8)
        assert rep.bulk2.lower == pytest.approx(oracle, abs=1e-8)
        assert rep.total.upper == rep.I1.upper + rep.I2.upper

    def test_family_estimator_dominates_oracle(self):
        a = np.array([1.0, 0.0])
        sd2 = example_sd2()
        rep = assemble_relaxed_energy(sd2, example_triple(a), AssembleConfig(budget=2))
        oracle = bulk_relaxed_energy_example(sd2, a)
        assert rep.bulk2.upper >= oracle - 1e-9

    def test_trace_estimator_guarded(self):
        with pytest.raises(ValueError):
            assemble_relaxed_energy(example_sd2(), norm_triple(),
                                    AssembleConfig(w2_estimator="trace-formula"))


class TestCache:
    def test_transparency(self):
        sd2 = affine_sd2()
        on = assemble_relaxed_energy(sd2, norm_triple(), AssembleConfig(cache=True))
        off = assemble_relaxed_energy(sd2, norm_triple(), AssembleConfig(cache=False))
        assert on.total.upper == off.total.upper
        assert on.total.lower == off.total.lower
        assert on.cache_hits > 0 and off.cache_hits == 0

    def test_x_free_densities_share_solves(self):
        rep = assemble_relaxed_energy(slip_sd2(), norm_triple(d=1, N=1))
        assert rep.cache_hits >= rep.cells - 1


class TestParallelDeterminism:
    def test_jobs_do_not_change_digits(self):
        sd2 = affine_sd2()
        r1 = assemble_relaxed_energy(sd2, norm_triple(), AssembleConfig(jobs=1))
        r8 = assemble_relaxed_energy(sd2, norm_triple(), AssembleConfig(jobs=8))
        assert r1.to_dict()["total"] == r8.to_dict()["total"]
        assert r1.to_dict()["bulk2"] == r8.to_dict()["bulk2"]


class TestParallelFailure:
    def test_failed_solve_reaches_every_waiter(self, monkeypatch):
        # all four cells share one W1 key; the owner fails while the other
        # worker waits on that key, which must re-raise instead of hanging
        def planted(*args, **kwargs):
            time.sleep(0.2)
            raise EstimationError("planted")

        monkeypatch.setattr(assembly, "estimate_W1", planted)
        outcome = []

        def target():
            try:
                assemble_relaxed_energy(affine_sd2(), norm_triple(), AssembleConfig(jobs=2))
            except Exception as err:  # noqa: BLE001 - recorded for the assertion below
                outcome.append(err)

        worker = threading.Thread(target=target, daemon=True)
        worker.start()
        worker.join(timeout=20)
        assert not worker.is_alive(), "parallel assembly hung after a failed solve"
        assert len(outcome) == 1 and isinstance(outcome[0], EstimationError)


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


class TestQuantizeCheck:
    @pytest.mark.parametrize("quantize", [0.0, -1e-6, float("inf"), float("nan")])
    def test_rejected(self, quantize):
        with pytest.raises(ValueError, match="quantize"):
            assemble_relaxed_energy(affine_sd2(), norm_triple(), AssembleConfig(quantize=quantize))

    def test_tiny_quantize_keeps_distinct_problems(self):
        rng = np.random.default_rng(0)
        dom = BoxDomain([0, 0], [1, 1], [2, 2])
        g = PiecewiseAffineField(dom, rng.standard_normal((2, 2, 2)), rng.standard_normal((2, 2, 2, 2)))
        G = PiecewiseAffineField(dom, rng.standard_normal((2, 2, 2, 2)),
                                 rng.standard_normal((2, 2, 2, 2, 2)))
        sd2 = SD2Triple(g, G, rng.standard_normal((2, 2, 2, 2, 2)))
        reports = [assemble_relaxed_energy(sd2, norm_triple(), AssembleConfig(quantize=q))
                   for q in (1e-6, 1e-300)]
        assert reports[0].cache_misses == 16
        assert (reports[1].cache_hits, reports[1].cache_misses) == (reports[0].cache_hits,
                                                                    reports[0].cache_misses)
        assert reports[1].total == reports[0].total

    def test_key_folds_signed_zero(self):
        cache = assembly._EstimateCache(1e-6, True)
        assert cache.key("W1", [0.0, -1e-9]) == cache.key("W1", [-0.0, 1e-9])
        assert cache.key("W1", [1.0]) != cache.key("W1", [2.0])

    def test_overflowing_quotient_rejected(self):
        with pytest.raises(ValueError, match="overflows"):
            assembly._EstimateCache(1e-320, True).key("W1", [1e10])
