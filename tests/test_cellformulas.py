import numpy as np
import pytest

import reference_loops as ref
from sdrelax.cellformulas import (
    CellProblem,
    ElementaryJumpFamily,
    EstimationError,
    GradientZigzagFamily,
    InclusionFamily,
    SplittingFamily,
    check_admissibility,
    competitor_energy,
    estimate_W1,
    estimate_W2,
    estimate_gamma1,
    estimate_gamma2,
    rotation_to_last_axis,
)
from sdrelax.densities import (
    DensityTriple,
    bulk_zero,
    example_triple,
    norm_triple,
    psi1_norm,
    psi1_weighted,
    psi2_norm,
    triple_from_expressions,
)
from sdrelax.trace_formula import closed_form_W2

X0 = np.array([0.25, 0.75])
NT = norm_triple()


class TestRotation:
    @pytest.mark.parametrize("seed", range(6))
    def test_orthogonal_and_maps_last_axis(self, seed):
        rng = np.random.default_rng(seed)
        nu = rng.standard_normal(3)
        nu /= np.linalg.norm(nu)
        R = rotation_to_last_axis(nu)
        assert np.allclose(R @ R.T, np.eye(3), atol=1e-13)
        assert np.allclose(R @ np.array([0.0, 0.0, 1.0]), nu, atol=1e-13)

    def test_antipodal_direction(self):
        R = rotation_to_last_axis(np.array([0.0, -1.0]))
        assert np.allclose(R @ np.array([0.0, 1.0]), [0.0, -1.0], atol=1e-15)


class TestW1:
    def test_zero_matrix_is_exact_zero(self):
        r = estimate_W1(X0, np.zeros((2, 2)), NT)
        assert r.upper == 0.0
        assert r.lower == 0.0

    def test_rank_one_single_column_certified(self):
        A = np.zeros((2, 2))
        A[:, 0] = [1.0, 0.0]
        r = estimate_W1(X0, A, NT)
        assert r.upper - r.lower <= 1e-10
        assert r.upper == pytest.approx(1.0, abs=1e-14)

    def test_identity_reports_gap(self):
        r = estimate_W1(X0, np.eye(2), NT)
        assert r.upper == pytest.approx(2.0, abs=1e-14)
        assert r.lower == pytest.approx(np.sqrt(2.0), abs=1e-14)
        assert r.lower <= r.upper

    def test_no_certificate_without_coercivity(self):
        trip = example_triple(np.array([1.0, 0.0]))
        r = estimate_W1(X0, np.eye(2), trip)
        assert r.lower is None
        assert r.upper == 0.0  # zero interfacial density costs nothing

    def test_lipschitz_transport(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            A = rng.standard_normal((2, 2))
            B = A + rng.standard_normal((2, 2)) * 0.3
            ua = estimate_W1(X0, A, NT).upper
            ub = estimate_W1(X0, B, NT).upper
            assert ua <= ub + np.sqrt(2.0) * 1.0 * np.linalg.norm(A - B) + 1e-12


class TestGamma1:
    def test_zero_payload(self):
        r = estimate_gamma1(X0, np.zeros(2), np.array([1.0, 0.0]), NT)
        assert r.upper == 0.0

    def test_three_four_five(self):
        r = estimate_gamma1(X0, np.array([3.0, 4.0]), np.array([0.6, 0.8]), NT)
        assert r.upper == pytest.approx(5.0, abs=1e-14)
        assert r.lower == pytest.approx(5.0, abs=1e-14)
        assert r.best_family == "elementary_jump"

    def test_frozen_weight(self):
        trip = DensityTriple(NT.W, psi1_weighted(), psi2_norm())
        lam = np.array([1.0, 0.0])
        nu = np.array([0.0, 1.0])
        x_high = np.array([0.0, 0.0])   # weight 2 at this point
        r = estimate_gamma1(x_high, lam, nu, trip)
        assert r.upper == pytest.approx(2.0, abs=1e-14)

    def test_scale_equivariance(self):
        lam = np.array([1.3, -0.7])
        nu = np.array([0.6, 0.8])
        base = estimate_gamma1(X0, lam, nu, NT, budget=1)
        for t in (2.0, 4.0, 0.5):
            scaled = estimate_gamma1(X0, t * lam, nu, NT, budget=1)
            assert scaled.upper == t * base.upper
            assert scaled.best_params == base.best_params
            assert scaled.best_family == base.best_family


class TestW2:
    def test_zero_boundary_zero_average(self):
        Z = np.zeros((2, 2, 2))
        A = np.eye(2)
        r = estimate_W2(X0, A, Z, Z, NT)
        assert r.upper <= float(NT.W(X0, A, np.zeros((2, 2, 2)))) + 1e-14
        assert r.best_family == "affine"

    def test_affine_competitor_when_constraint_matches(self):
        rng = np.random.default_rng(1)
        L = rng.standard_normal((2, 2, 2))
        A = rng.standard_normal((2, 2))
        r = estimate_W2(X0, A, L, L, NT)
        expected = float(NT.W(X0, A, L.transpose(0, 2, 1)))
        assert r.upper <= expected + 1e-12

    def test_worked_example_reaches_closed_form(self):
        trip = example_triple(np.array([1.0, 0.0]))
        M = np.zeros((2, 2, 2))
        M[0, 0, 0] = 1.0
        M[1, 1, 0] = 1.0
        r = estimate_W2(X0, np.zeros((2, 2)), np.zeros((2, 2, 2)), M, trip, budget=2)
        closed = closed_form_W2(np.zeros((2, 2, 2)), M, np.array([1.0, 0.0]))
        assert r.upper == pytest.approx(closed, abs=1e-9)
        assert r.upper >= closed - 1e-9

    def test_never_below_closed_form_random(self):
        trip = example_triple(np.array([1.0, 0.0]))
        rng = np.random.default_rng(2)
        for _ in range(10):
            L = rng.standard_normal((2, 2, 2))
            M = rng.standard_normal((2, 2, 2))
            r = estimate_W2(X0, np.zeros((2, 2)), L, M, trip, budget=2)
            closed = closed_form_W2(L, M, np.array([1.0, 0.0]))
            assert r.upper >= closed - 1e-9

    def test_coercive_lower_bound(self):
        rng = np.random.default_rng(3)
        L = rng.standard_normal((2, 2, 2))
        M = rng.standard_normal((2, 2, 2))
        r = estimate_W2(X0, np.zeros((2, 2)), L, M, NT)
        assert r.lower == pytest.approx(np.linalg.norm(L - M), abs=1e-12)
        assert r.lower <= r.upper + 1e-12


class TestGamma2:
    def test_zero_payload(self):
        r = estimate_gamma2(X0, np.eye(2), np.zeros((2, 2)), np.array([1.0, 0.0]), NT)
        assert r.upper == 0.0

    def test_identity_certified_with_norm_density(self):
        trip = DensityTriple(bulk_zero(), psi1_norm(), psi2_norm())
        nu = np.array([0.6, 0.8])
        r = estimate_gamma2(X0, np.zeros((2, 2)), np.eye(2), nu, trip)
        assert r.upper == pytest.approx(np.sqrt(2.0), abs=1e-14)
        assert r.lower == pytest.approx(np.sqrt(2.0), abs=1e-14)

    def test_worked_example_direction(self):
        trip = example_triple(np.array([1.0, 0.0]))
        r = estimate_gamma2(X0, np.zeros((2, 2)), np.eye(2), np.array([1.0, 0.0]), trip)
        assert r.upper <= 1.0 + 1e-14
        assert r.lower is None

    def test_recession_bulk_term_enters(self):
        # with W = |A| + |M| the zigzag family pays recession bulk, so the
        # elementary jump stays optimal
        nu = np.array([0.0, 1.0])
        r = estimate_gamma2(X0, np.ones((2, 2)), np.eye(2), nu, NT, budget=2)
        assert r.best_family == "elementary_jump"
        assert r.upper == pytest.approx(np.sqrt(2.0), abs=1e-12)


class TestGamma2BulkReference:
    """The batched recession bulk term against the per-cell reference loop."""

    @pytest.mark.parametrize("N", [2, 3])
    @pytest.mark.parametrize("W", ["norm", "norm(M)*(norm(A) - 2)"])
    def test_every_competitor_matches_bitwise(self, N, W):
        densities = norm_triple(d=2, N=N) if W == "norm" else \
            triple_from_expressions(W, "norm(lam)", "norm(Lam)")
        rng = np.random.default_rng(10 * N + len(W))
        nu = rng.standard_normal(N)
        problem = CellProblem("Gamma2", rng.uniform(0.0, 1.0, N), densities,
                              A=rng.standard_normal((2, N)), Lam=rng.standard_normal((2, N)),
                              nu=nu / np.linalg.norm(nu))
        bulk_terms = []
        for family in (ElementaryJumpFamily(), SplittingFamily(), GradientZigzagFamily()):
            for params in family.candidates(problem, 2):
                field, R = family.build(problem, params)
                bulk = ref.bulk_energy_recession(problem, field, R)
                jump, _ = ref.facet_energy(densities.psi2, field, problem.x, R)
                assert competitor_energy(problem, field, R)[0] == bulk + jump
                bulk_terms.append(bulk)
        assert any(b != 0.0 for b in bulk_terms)  # the zigzag pays bulk


class TestSweepMechanics:
    @pytest.mark.parametrize("budget", [0, -1])
    def test_budget_below_one_rejected(self, budget):
        with pytest.raises(ValueError, match="budget must be at least 1"):
            estimate_W1(X0, np.eye(2), NT, budget=budget)

    def test_budget_monotone(self):
        rng = np.random.default_rng(4)
        for _ in range(5):
            A = rng.standard_normal((2, 2))
            u1 = estimate_W1(X0, A, NT, budget=1).upper
            u2 = estimate_W1(X0, A, NT, budget=2).upper
            assert u2 <= u1 + 1e-15

    def test_rows_record_admissibility(self):
        M = np.zeros((2, 2, 2))
        M[0, 0, 0] = 1.0
        r = estimate_W2(X0, np.zeros((2, 2)), np.zeros((2, 2, 2)), M, NT)
        assert any(not row["admissible"] for row in r.rows)  # affine family fails M != L
        assert all(row["energy"] is None for row in r.rows if not row["admissible"])

    def test_admissibility_re_verified(self):
        problem = CellProblem("W1", X0, NT, A=np.eye(2))
        from sdrelax.cellformulas import StaircaseFamily

        field, _ = StaircaseFamily().build(problem, (4,))
        ok, residual = check_admissibility(problem, field)
        assert ok and residual <= 1e-10
        # breaking the gradient breaks admissibility
        bad = field.lin.copy()
        bad[0] += 0.5
        from sdrelax.fields import PiecewiseAffineField

        broken = PiecewiseAffineField(field.domain, field.const, bad,
                                      boundary_data=field.boundary_data)
        ok2, residual2 = check_admissibility(problem, broken)
        assert not ok2 and residual2 > 1e-10

    @pytest.mark.parametrize("variant", ["W1", "Gamma1", "W2", "Gamma2"])
    def test_nan_gradient_rejected(self, variant):
        from sdrelax.cellformulas import (
            ElementaryJumpFamily,
            GradientZigzagFamily,
            LaminateFamily,
            StaircaseFamily,
        )
        from sdrelax.fields import PiecewiseAffineField

        nu = np.array([0.0, 1.0])
        L = np.arange(8.0).reshape(2, 2, 2)
        problem, family, params = {
            "W1": (CellProblem("W1", X0, NT, A=np.eye(2)), StaircaseFamily(), (4,)),
            "Gamma1": (CellProblem("Gamma1", X0, NT, lam=np.array([1.0, 0.0]), nu=nu),
                       ElementaryJumpFamily(), ()),
            "W2": (CellProblem("W2", X0, NT, A=np.eye(2), L=L, M=L), LaminateFamily(), ()),
            "Gamma2": (CellProblem("Gamma2", X0, NT, A=np.eye(2), Lam=np.eye(2), nu=nu),
                       GradientZigzagFamily(), (0.25,)),
        }[variant]
        field, _ = family.build(problem, params)
        assert check_admissibility(problem, field) == (True, 0.0)
        # a NaN gradient with the boundary data kept: only the gradient check sees it
        lin = field.lin.copy()
        lin.flat[0] = np.nan
        broken = PiecewiseAffineField(field.domain, field.const, lin,
                                      boundary_data=field.boundary_data)
        ok, residual = check_admissibility(problem, broken)
        assert ok is False and np.isnan(residual)

    def test_lower_never_exceeds_upper(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            lam = rng.standard_normal(2)
            nu = rng.standard_normal(2)
            nu /= np.linalg.norm(nu)
            r = estimate_gamma1(X0, lam, nu, NT)
            assert (r.lower or 0.0) <= r.upper + 1e-12

    def test_deterministic_and_seed_free(self):
        A = np.array([[1.0, 0.2], [0.0, -0.5]])
        r1 = estimate_W1(X0, A, NT, budget=2)
        r2 = estimate_W1(X0, A, NT, budget=2)
        assert r1.upper == r2.upper
        assert r1.best_params == r2.best_params
        assert r1.seed is None


class TestEstimationFailure:
    def test_no_admissible_competitor_is_reported(self):
        from sdrelax.cellformulas import AffineFamily

        M = np.zeros((2, 2, 2))
        M[0, 0, 0] = 1.0
        with pytest.raises(EstimationError):
            estimate_W2(X0, np.zeros((2, 2)), np.zeros((2, 2, 2)), M, NT,
                        families=[AffineFamily()])


class TestUpperBoundProperties:
    def test_gamma1_dominated_by_linear_growth(self):
        rng = np.random.default_rng(6)
        K1 = NT.psi1.constants["H5.upper"]
        for _ in range(20):
            lam = 3 * rng.standard_normal(2)
            nu = rng.standard_normal(2)
            nu /= np.linalg.norm(nu)
            r = estimate_gamma1(X0, lam, nu, NT)
            assert r.upper <= K1 * np.linalg.norm(lam) + 1e-12

    def test_gamma2_dominated_by_linear_growth(self):
        trip = DensityTriple(bulk_zero(), psi1_norm(), psi2_norm())
        rng = np.random.default_rng(7)
        K2 = trip.psi2.constants["H5.upper"]
        for _ in range(10):
            Lam = rng.standard_normal((2, 2))
            nu = rng.standard_normal(2)
            nu /= np.linalg.norm(nu)
            r = estimate_gamma2(X0, np.zeros((2, 2)), Lam, nu, trip)
            assert r.upper <= K2 * np.linalg.norm(Lam) + 1e-12


class TestDimensionGenerality:
    def test_rectangular_value_shapes(self):
        nt12 = norm_triple(d=1, N=2)
        r = estimate_W1(np.zeros(2), np.array([[1.0, 2.0]]), nt12)
        assert r.upper == pytest.approx(3.0, abs=1e-12)
        assert r.lower == pytest.approx(np.sqrt(5.0), abs=1e-12)
        rg = estimate_gamma2(np.zeros(2), np.zeros((1, 2)), np.array([[1.0, 2.0]]),
                             np.array([0.0, 1.0]), nt12)
        assert rg.upper == pytest.approx(np.sqrt(5.0), abs=1e-12)

    def test_rectangular_second_formula(self):
        rng = np.random.default_rng(12)
        nt12 = norm_triple(d=1, N=2)
        L = rng.standard_normal((1, 2, 2))
        M = rng.standard_normal((1, 2, 2))
        r = estimate_W2(np.zeros(2), np.zeros((1, 2)), L, M, nt12, budget=2)
        assert r.lower == pytest.approx(np.linalg.norm(L - M), abs=1e-12)
        assert r.lower <= r.upper

    def test_three_dimensional_sweep(self):
        rng = np.random.default_rng(13)
        nt3 = norm_triple(d=3, N=3)
        L = rng.standard_normal((3, 3, 3))
        r = estimate_W2(np.zeros(3), np.zeros((3, 3)), L, 0.5 * L, nt3, resolution=6)
        assert r.lower == pytest.approx(0.5 * np.linalg.norm(L), abs=1e-12)
        assert r.lower <= r.upper


class TestHomogeneousExtension:
    def test_zero_direction(self):
        from sdrelax.cellformulas import estimate_gamma1_extended

        r = estimate_gamma1_extended(X0, np.ones(2), np.zeros(2), NT)
        assert r.upper == 0.0

    def test_scaling(self):
        from sdrelax.cellformulas import estimate_gamma1_extended

        lam = np.array([3.0, 4.0])
        nu = np.array([0.0, 1.0])
        base = estimate_gamma1(X0, lam, nu, NT)
        ext = estimate_gamma1_extended(X0, lam, 2.0 * nu, NT)
        assert ext.upper == 2.0 * base.upper
        assert ext.lower == 2.0 * base.lower

    def test_gamma2_extension(self):
        from sdrelax.cellformulas import estimate_gamma2_extended

        trip = DensityTriple(bulk_zero(), psi1_norm(), psi2_norm())
        base = estimate_gamma2(X0, np.zeros((2, 2)), np.eye(2), np.array([0.0, 1.0]), trip)
        ext = estimate_gamma2_extended(X0, np.zeros((2, 2)), np.eye(2),
                                       np.array([0.0, 4.0]), trip)
        assert ext.upper == 4.0 * base.upper
