import numpy as np
import pytest

import reference_loops as ref
from sdrelax.assembly import AssembleConfig, assemble_relaxed_energy
from reference_loops import l1_norm, piecewise_constant_approx, total_jump_mass
from sdrelax.constructions import SD2Triple, approximating_sequence
from sdrelax.densities import (
    DensityTriple,
    bulk_norm,
    bulk_zero,
    example_triple,
    norm_triple,
    psi1_norm,
    psi1_zero,
    psi2_norm,
    triple_from_expressions,
)
from sdrelax.energy import total_energy
from sdrelax.fields import BoxDomain, PiecewiseAffineField, SecondOrderField

NT1 = norm_triple(d=1, N=1)


def linear_field(domain, A):
    A = np.atleast_2d(np.asarray(A, dtype=float))
    centers = domain.cell_centers().reshape(-1, domain.ndim)
    const = (centers @ A.T).reshape(domain.cells_shape + (A.shape[0],))
    lin = np.broadcast_to(A, domain.cells_shape + A.shape).copy()
    return PiecewiseAffineField(domain, const, lin)


class TestTotalEnergy:
    def test_zero_field(self):
        dom = BoxDomain([0.0], [1.0], [4])
        u = PiecewiseAffineField(dom, np.zeros((4, 1)))
        eb = total_energy(u, NT1)
        assert (eb.bulk, eb.jump1, eb.jump2, eb.total) == (0.0, 0.0, 0.0, 0.0)

    def test_nan_cell_gives_nan(self):
        # the NaN cell's facets stay in the jump set, so the NaN reaches the total
        u = PiecewiseAffineField(BoxDomain([0.0], [1.0], [4]), np.array([0.0, np.nan, 1.0, 1.0]))
        assert np.isnan(total_energy(u, NT1).total)

    def test_plateau_staircase(self):
        # plateaus k/n: bulk 0, jump1 = (n-1)/n interior, gradient continuous
        n = 8
        dom = BoxDomain([0.0], [1.0], [n])
        ramp = linear_field(dom, [[1.0]])
        u = piecewise_constant_approx(ramp, n)
        eb = total_energy(u, NT1)
        assert eb.bulk == 0.0
        assert eb.jump1 == pytest.approx((n - 1) / n, abs=1e-14)
        assert eb.jump2 == 0.0

    def test_quadratic_profile_bulk(self):
        # u = y^2/2: grad = y, second = 1: bulk = int (|y| + 1) = 3/2, exactly
        n = 4
        dom = BoxDomain([0.0], [1.0], [n])
        centers = dom.cell_centers().reshape(n, 1)
        u = PiecewiseAffineField(dom, 0.5 * centers**2, centers.reshape(n, 1, 1))
        grad = PiecewiseAffineField(dom, centers.reshape(n, 1, 1), np.ones((n, 1, 1, 1)))
        pair = SecondOrderField(u, grad)
        eb = total_energy(pair, NT1)
        assert eb.bulk == pytest.approx(1.5, abs=1e-15)
        assert eb.total == eb.bulk

    def test_total_is_exact_sum(self):
        n = 8
        dom = BoxDomain([0.0], [1.0], [n])
        u = piecewise_constant_approx(linear_field(dom, [[1.0]]), n)
        eb = total_energy(u, NT1)
        assert eb.total == eb.bulk + eb.jump1 + eb.jump2


class TestAdditivity:
    def test_axis_bisection_partitions_energy(self):
        n = 8
        dom = BoxDomain([0.0], [1.0], [n])
        u = piecewise_constant_approx(linear_field(dom, [[1.0]]), n)
        whole = total_energy(u, NT1)
        left = total_energy(u, NT1, cell_ranges=((0, n // 2),))
        right = total_energy(u, NT1, cell_ranges=((n // 2, n),))
        assert whole.total == left.total + right.total

    def test_2d_bisection(self):
        dom = BoxDomain([0, 0], [1, 1], [4, 4])
        rng = np.random.default_rng(0)
        u = PiecewiseAffineField(dom, np.round(rng.uniform(-2, 2, (4, 4, 2)), 2))
        nt = norm_triple(d=2, N=2)
        whole = total_energy(u, nt)
        parts = [total_energy(u, nt, cell_ranges=((0, 2), (0, 4))),
                 total_energy(u, nt, cell_ranges=((2, 4), (0, 4)))]
        assert whole.total == pytest.approx(sum(p.total for p in parts), abs=1e-12)


class TestBulkSubBox:
    """The bulk term reads the sub-box as slices of the cell arrays; the mask
    over ``np.indices`` of the whole grid that it replaced gave the same bits."""

    @pytest.mark.parametrize("N", [1, 2, 3])
    def test_matches_the_mask_form_bitwise(self, N):
        rng = np.random.default_rng(N)
        densities = [norm_triple(d=N, N=N),
                     triple_from_expressions("norm(M)*(norm(A) - 2) + x[0]", "norm(lam)", "norm(Lam)")]
        for case in range(12):
            res = rng.integers(1, 6, N)
            dom = BoxDomain(-rng.uniform(0.0, 1.0, N), rng.uniform(0.5, 2.0, N), res)
            C = rng.standard_normal(dom.cells_shape + (N, N))
            u = PiecewiseAffineField(dom, rng.standard_normal(dom.cells_shape + (N,)), C)
            pair = SecondOrderField(u, PiecewiseAffineField(
                dom, C, rng.standard_normal(dom.cells_shape + (N, N, N))))
            partial = []
            for r in res:
                lo = int(rng.integers(0, r))
                partial.append((lo, int(rng.integers(lo + 1, r + 1))))
            for cell_ranges in (tuple((0, int(r)) for r in res), tuple(partial)):
                triple = densities[case % 2]
                got = total_energy(pair, triple, cell_ranges).bulk
                assert got == ref.bulk_energy_masked(pair, triple, cell_ranges)


    @pytest.mark.parametrize("cell_ranges", [((-1, 2), (0, 4)), ((0, 5), (0, 4)), ((3, 2), (0, 4)),
                                             ((0, 4),)])
    def test_ranges_outside_the_grid_are_refused(self, cell_ranges):
        # a negative slice start counts from the end, where the facet filter reads 0
        u = PiecewiseAffineField(BoxDomain([0, 0], [1, 1], [4, 4]), np.ones((4, 4, 2)))
        with pytest.raises(ValueError, match="cell_ranges"):
            total_energy(u, norm_triple(d=2, N=2), cell_ranges)


class TestMonotonicity:
    def test_pointwise_dominated_densities(self):
        n = 8
        dom = BoxDomain([0.0], [1.0], [n])
        u = piecewise_constant_approx(linear_field(dom, [[1.0]]), n)
        small = DensityTriple(bulk_zero(d=1, N=1), psi1_zero(d=1, N=1),
                              psi2_norm(d=1, N=1))
        big = NT1
        eb_small = total_energy(u, small)
        eb_big = total_energy(u, big)
        assert eb_small.bulk <= eb_big.bulk
        assert eb_small.jump1 <= eb_big.jump1
        assert eb_small.jump2 <= eb_big.jump2


class TestSequenceEnergyBound:
    def test_shape_of_upper_bound(self):
        # energies of the construction stay below the linear-growth budget
        dom = BoxDomain([0.0], [1.0], [4])
        centers = dom.cell_centers().reshape(4, 1)
        g = PiecewiseAffineField(dom, 0.5 * centers**2, centers.reshape(4, 1, 1))
        G = PiecewiseAffineField(dom, centers.reshape(4, 1, 1), np.ones((4, 1, 1, 1)))
        sd2 = SD2Triple(g, G, np.ones((4, 1, 1, 1)))
        budget = (1.0
                  + l1_norm(SecondOrderField.from_affine(sd2.g).grad) + total_jump_mass(sd2.g)
                  + l1_norm(sd2.G)
                  + l1_norm(SecondOrderField.from_affine(sd2.G).grad) + total_jump_mass(sd2.G)
                  + float(np.sum(np.abs(sd2.Gamma)) * dom.cell_volume))
        ratios = []
        for n in (4, 8, 16):
            pair, _ = approximating_sequence(sd2, n)
            eb = total_energy(pair, NT1)
            ratios.append(eb.total / budget)
        assert max(ratios) <= 4.0           # constant reported, not asserted tight
        assert max(ratios) / min(ratios) <= 1.5  # stable under n


class TestDisarrangementDensities:
    """The disarrangement densities G - grad g and grad G - Gamma, as the
    relaxed-energy assembly prices them in its bulk1 and bulk2 terms."""

    def test_compatible_pair_vanishes(self):
        dom = BoxDomain([0.0], [1.0], [4])
        A = np.array([[1.0]])
        g = linear_field(dom, A)
        G = PiecewiseAffineField(dom, np.broadcast_to(A, (4, 1, 1)).copy())
        sd2 = SD2Triple(g, G, np.zeros((4, 1, 1, 1)))
        bulk1 = assemble_relaxed_energy(sd2, NT1).bulk1
        assert (bulk1.upper, bulk1.lower) == (0.0, 0.0)

    def test_pure_slip(self):
        dom = BoxDomain([0.0], [1.0], [4])
        g = linear_field(dom, [[1.0]])
        G = PiecewiseAffineField(dom, np.zeros((4, 1, 1)))
        sd2 = SD2Triple(g, G, np.zeros((4, 1, 1, 1)))
        bulk1 = assemble_relaxed_energy(sd2, NT1).bulk1
        assert (bulk1.upper, bulk1.lower) == (1.0, 1.0)

    def test_half_gradient(self):
        dom = BoxDomain([0, 0], [1, 1], [2, 2])
        g = linear_field(dom, np.eye(2))
        G = PiecewiseAffineField(dom, np.broadcast_to(0.5 * np.eye(2), (2, 2, 2, 2)).copy())
        sd2 = SD2Triple(g, G, np.zeros((2, 2, 2, 2, 2)))
        # G - grad g = -I/2: the column norms sum to 1, the Frobenius norm is 1/sqrt(2)
        bulk1 = assemble_relaxed_energy(sd2, norm_triple()).bulk1
        assert bulk1.upper == 1.0
        assert bulk1.lower == pytest.approx(0.5 * np.sqrt(2.0), abs=1e-15)

    def test_gradient_disarrangement_exact_cases(self):
        dom = BoxDomain([0.0], [1.0], [4])
        centers = dom.cell_centers().reshape(4, 1, 1)
        G = PiecewiseAffineField(dom, centers, np.ones((4, 1, 1, 1)))
        # in 1D the closed-form bulk density |tr((grad G - Gamma)(., a))| is |grad G - Gamma|
        example = example_triple([1.0], N=1)
        config = AssembleConfig(w2_estimator="trace-formula")
        for gamma, expected in ((1.0, 0.0), (0.0, 1.0), (0.5, 0.5)):
            sd2 = SD2Triple(linear_field(dom, [[1.0]]), G, np.full((4, 1, 1, 1), gamma))
            bulk2 = assemble_relaxed_energy(sd2, example, config).bulk2
            assert (bulk2.upper, bulk2.lower) == (expected, expected)
