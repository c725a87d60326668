import re
from dataclasses import replace

import numpy as np
import pytest

import reference_loops as ref
from sdrelax import cellformulas
from sdrelax.cellformulas import (
    CellProblem,
    ElementaryJumpFamily,
    EstimateResult,
    EstimationError,
    GradientZigzagFamily,
    InclusionFamily,
    LaminateFamily,
    SplittingFamily,
    StaircaseFamily,
    check_admissibility,
    competitor_energy,
    estimate_W1,
    estimate_W2,
    estimate_batch,
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
from sdrelax.fields import (
    DEFAULT_JUMP_TOL,
    AffineBoundary,
    BoxDomain,
    FacetTable,
    PiecewiseAffineField,
    unit_cube,
)
from sdrelax.integrate import fsum, norm
from sdrelax.trace_formula import closed_form_W2

X0 = np.array([0.25, 0.75])
NT = norm_triple()


class AffineCompetitor:
    """The jump-free competitor v = L y, built as the package's W2 affine family
    did: admissible only when M = L, where the laminate builds the same field."""

    name = "affine"

    def candidates(self, problem, budget):
        yield ()

    def planes(self, problems, batch):
        return [[self.build(problem) for _ in batch] for problem in problems]

    @staticmethod
    def build(problem):
        dom = unit_cube(len(problem.x), problem.resolution)
        L_field = problem.L.transpose(0, 2, 1)
        const = np.einsum("vwk,...k->...vw", L_field, dom.cell_centers())
        lin = np.broadcast_to(L_field, dom.cells_shape + L_field.shape).copy()
        return ref.of_field(PiecewiseAffineField(dom, const, lin,
                                                 boundary_data=AffineBoundary.linear(L_field)))


class TestCellProblemShapes:
    E2 = np.eye(2)
    NU = np.array([0.0, 1.0])

    @pytest.mark.parametrize("variant, data, message", [
        ("W1", {"A": np.ones((2, 3))}, "A must have shape (d, N) with N = len(x) = 2, got (2, 3)"),
        ("Gamma1", {"lam": np.ones((2, 2)), "nu": NU}, "lam must have shape (d,)"),
        ("Gamma1", {"lam": np.ones(2), "nu": np.array([0.0, 0.0, 1.0])}, "nu must have shape (N,)"),
        ("Gamma2", {"A": E2, "Lam": np.ones((3, 2)), "nu": NU}, "Lam must have shape (d, N)"),
        ("W2", {"A": E2, "L": np.ones((2, 2, 3)), "M": np.ones((2, 2, 2))}, "L must have shape (d, N, N)"),
        ("W2", {"A": E2, "L": np.ones((2, 2, 2)), "M": np.ones((3, 2, 2))}, "M must have shape (d, N, N)"),
        ("W2", {"A": E2, "L": np.ones((2, 2, 2))}, "W2 cell problem needs M"),
        ("W3", {"A": E2}, "unknown cell variant 'W3'"),
        ("W2", {"A": E2, "L": np.ones((2, 2, 2)), "M": np.ones((2, 2, 2)), "resolution": 0},
         "resolution must be at least 1 and must be even for Gamma1 and Gamma2, got 0 for W2"),
        ("Gamma2", {"A": E2, "Lam": E2, "nu": NU, "resolution": 5},
         "resolution must be at least 1 and must be even for Gamma1 and Gamma2, got 5 for Gamma2"),
    ])
    def test_mismatch_names_the_field(self, variant, data, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            CellProblem(variant, X0, NT, **data)

    def test_x_must_be_a_vector(self):
        with pytest.raises(ValueError, match="x must be a vector"):
            CellProblem("W1", np.zeros((1, 2)), NT, A=self.E2)


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

    def test_certificate_never_exceeds_the_competitor_on_offset_facets(self):
        # the facets of g = (a x^2/2 + b y, c x y) on a 16x16 grid of the unit
        # square plus a seeded constant in [-0.1, 0.1] per cell: the certificate
        # c1 |lam| must round as the elementary jump's own psi1 = |lam| does
        a, b, c = np.random.default_rng(0).uniform(0.5, 1.5, 3)
        x, y = np.meshgrid((np.arange(16) + 0.5) / 16, (np.arange(16) + 0.5) / 16, indexing="ij")
        const = np.stack([a * x * x / 2 + b * y, c * x * y], axis=-1)
        const += np.random.default_rng([0, 1]).uniform(-0.1, 0.1, const.shape)
        lin = np.stack([np.stack([a * x, b + 0 * x], -1), np.stack([c * y, c * x], -1)], -2)
        facets = PiecewiseAffineField(BoxDomain([0, 0], [1, 1], [16, 16]), const, lin).jump_set()
        assert len(facets) == 480
        results = [estimate_gamma1(cent, lam, nu, NT)
                   for cent, lam, nu in zip(facets.centroid, facets.jump, facets.normal)]
        assert [i for i, r in enumerate(results) if not r.lower <= r.upper] == []


class TestW2:
    def test_zero_boundary_zero_average(self):
        Z = np.zeros((2, 2, 2))
        A = np.eye(2)
        r = estimate_W2(X0, A, Z, Z, NT)
        assert r.upper <= float(NT.W(X0, A, np.zeros((2, 2, 2)))) + 1e-14

    def test_affine_competitor_when_constraint_matches(self):
        rng = np.random.default_rng(1)
        L = rng.standard_normal((2, 2, 2))
        A = rng.standard_normal((2, 2))
        r = estimate_W2(X0, A, L, L, NT)
        expected = float(NT.W(X0, A, L.transpose(0, 2, 1)))
        assert r.upper <= expected + 1e-12

    @pytest.mark.parametrize("triple", ["norm", "example"])
    @pytest.mark.parametrize("N", [1, 2, 3])
    def test_laminate_covers_the_affine_competitor(self, triple, N):
        # at M = L the laminate is the affine map v = L y, bit for bit; an
        # inclusion box may undercut it by rounding only
        densities = norm_triple(d=N, N=N) if triple == "norm" else example_triple(np.eye(N)[0])
        for seed in range(4):
            rng = np.random.default_rng([N, seed])
            x, A, L = rng.uniform(0.0, 1.0, N), rng.standard_normal((N, N)), rng.standard_normal((N, N, N))
            affine = estimate_W2(x, A, L, L, densities, families=[AffineCompetitor()]).upper
            r = estimate_W2(x, A, L, L.copy(), densities, budget=2)
            assert [row["energy"] for row in r.rows if row["family"] == "laminate"] == [affine]
            assert 0.0 <= affine - r.upper <= 4 * np.spacing(affine)

    def test_near_equal_boundary_and_average_keep_the_bracket(self):
        # a competitor that ignores M passed the tolerance here: upper 0 < lower 5e-11
        M = np.zeros((2, 2, 2))
        M[0, 0, 0] = 5e-11
        densities = DensityTriple(bulk_zero(), psi1_norm(), psi2_norm())
        r = estimate_W2(np.zeros(2), np.zeros((2, 2)), np.zeros((2, 2, 2)), M, densities)
        assert r.lower == 5e-11
        assert r.lower <= r.upper

    def test_large_data_passes_admissibility(self):
        # rounding in a field's average gradient grows with the data (~1e-11 at
        # 1e4): the inclusion boxes, checked as fields, need the scaled tolerance
        rng = np.random.default_rng(0)
        L, M = 1e5 * rng.standard_normal((2, 2, 2)), 1e5 * rng.standard_normal((2, 2, 2))
        r = estimate_W2(np.zeros(2), np.zeros((2, 2)), L, M, NT, budget=2)
        assert all(row["admissible"] for row in r.rows)
        assert r.admissibility_residual <= 1e-10 * np.linalg.norm(L)
        assert r.lower <= r.upper
        boxes = estimate_W2(np.zeros(2), np.zeros((2, 2)), L, M, NT, budget=2,
                            families=[InclusionFamily()])
        assert all(row["admissible"] for row in boxes.rows)
        assert 1e-10 < boxes.admissibility_residual <= 1e-10 * np.linalg.norm(L)

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
                field, R = ref.GRID_BUILDERS[family.name](problem, params)
                bulk = ref.bulk_energy_recession(problem, field, R)
                jump, _ = ref.facet_energy(densities.psi2, field, problem.x, R)
                assert competitor_energy([problem], [ref.of_field(field)])[0][0] == bulk + jump
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
        r = estimate_W2(X0, np.zeros((2, 2)), np.zeros((2, 2, 2)), M, NT,
                        families=[AffineCompetitor(), LaminateFamily()])
        assert any(not row["admissible"] for row in r.rows)  # the affine map fails M != L
        assert all(row["energy"] is None for row in r.rows if not row["admissible"])

    def test_each_competitor_is_built_and_priced_once(self):
        # in 1D at L = M = 0 every competitor ties at 0: the laminate and the
        # three boxes, each one row and one evaluation
        r = estimate_W2(np.zeros(1), np.zeros((1, 1)), np.zeros((1, 1, 1)), np.zeros((1, 1, 1)),
                        norm_triple(d=1, N=1))
        named = [(row["family"], row["params"]) for row in r.rows]
        assert r.evaluations == len(r.rows) == len(set(named)) == 4

    def test_admissibility_re_verified(self):
        problem = CellProblem("W1", X0, NT, A=np.eye(2))
        ((planes,),) = StaircaseFamily().planes([problem], [(4,)])
        ok, residual = check_admissibility(problem, planes)
        assert ok and residual <= 1e-10
        # breaking the gradient breaks admissibility
        gradients = planes.gradients.copy()
        gradients[0] += 0.5
        ok2, residual2 = check_admissibility(problem, replace(planes, gradients=gradients))
        assert not ok2 and residual2 > 1e-10
        # and so does dropping a facet row: the Gauss-Green identity no longer holds
        ok3, residual3 = check_admissibility(problem, replace(planes, counts=planes.counts - 1))
        assert not ok3 and residual3 > 1e-10

    @pytest.mark.parametrize("variant", ["W1", "Gamma1", "W2", "Gamma2"])
    def test_nan_gradient_rejected(self, variant):
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
        ((planes,),) = family.planes([problem], [params])
        assert check_admissibility(problem, planes) == (True, 0.0)
        # a NaN gradient with the facet rows kept: only the gradient condition sees it
        gradients = planes.gradients.copy()
        gradients.flat[0] = np.nan
        ok, residual = check_admissibility(problem, replace(planes, gradients=gradients))
        assert ok is False and np.isnan(residual)

    def test_lower_never_exceeds_upper(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            lam = rng.standard_normal(2)
            nu = rng.standard_normal(2)
            nu /= np.linalg.norm(nu)
            r = estimate_gamma1(X0, lam, nu, NT)
            assert (r.lower or 0.0) <= r.upper + 1e-12

    @pytest.mark.xfail(strict=True, reason="program defect: the Gamma2 competitor drops a jump "
                       "of rounding size that its certificate counts (ROADMAP item 5)")
    def test_gamma2_lower_never_exceeds_upper_on_a_rounding_size_jump(self):
        # the twin of estimate_gamma1's defect: upper 0.0, lower 1e-16
        r = estimate_gamma2(np.zeros(2), np.eye(2), [[1e-16, 0.0], [0.0, 0.0]],
                            np.array([1.0, 0.0]), NT)
        assert r.lower <= r.upper

    @pytest.mark.xfail(strict=True, reason="program defect: the certificate and the winning "
                       "inclusion box round the same value differently (ROADMAP item 5)")
    def test_w2_lower_never_exceeds_upper_on_a_small_average(self):
        # upper 4.9999999999999995e-11 (an inclusion box), lower 5e-11
        densities = DensityTriple(bulk_zero(d=1, N=1), psi1_norm(d=1, N=1), psi2_norm(d=1, N=1))
        r = estimate_W2([0.5], [[0.0]], np.zeros((1, 1, 1)), np.full((1, 1, 1), 5e-11), densities,
                        resolution=8)
        assert r.lower <= r.upper

    def test_deterministic_and_seed_free(self):
        A = np.array([[1.0, 0.2], [0.0, -0.5]])
        r1 = estimate_W1(X0, A, NT, budget=2)
        r2 = estimate_W1(X0, A, NT, budget=2)
        assert r1.upper == r2.upper
        assert r1.best_params == r2.best_params
        assert r1.seed is None


def _plane_densities(kind, N):
    if kind == "norm":
        return norm_triple(d=N, N=N)
    if kind == "example":  # the facet-integral hook prices the facets whose jump varies
        return example_triple(np.eye(N)[0], N=N)
    # a negative recession, and an interfacial density that reads the frozen point
    return triple_from_expressions("norm(M)*(norm(A) - 2)", "norm(lam)*(1 + x[0])", "norm(Lam)")


class TestPlanesMatchTheGrid:
    """Each plane family priced by formula against its competitors built as
    fields on the cube (``reference_loops.GridFamily``): the same rows,
    evaluations, quadrature flag, best competitor and lower bound; energies
    bit for bit, except the laminate's, whose grid jumps carry the rounding
    of ``L y`` at each cell centre: within ``4 eps (|L| + |M|)`` of the grid."""

    @staticmethod
    def _cases(N, resolution, budget, seed, densities):
        rng = np.random.default_rng([N, resolution, budget, seed])
        x, A = rng.uniform(0.0, 1.0, N), rng.standard_normal((N, N))
        nu = rng.standard_normal(N)
        nu /= np.linalg.norm(nu)
        lam, Lam = rng.standard_normal(N), rng.standard_normal((N, N))
        L, M = rng.standard_normal((N, N, N)), rng.standard_normal((N, N, N))
        if seed == 0:  # payloads at and below the jump tolerance, and a laminate with M = L
            lam, Lam, M = DEFAULT_JUMP_TOL * np.eye(N)[0], 0.5 * DEFAULT_JUMP_TOL * Lam, L.copy()
        kw = dict(densities=densities, budget=budget, resolution=resolution)
        yield (lambda f: estimate_W1(x, A, families=f, **kw), [StaircaseFamily()], None)
        yield (lambda f: estimate_gamma1(x, lam, nu, families=f, **kw),
               [ElementaryJumpFamily(), SplittingFamily()], None)
        yield (lambda f: estimate_gamma2(x, A, Lam, nu, families=f, **kw),
               [ElementaryJumpFamily(), SplittingFamily(), GradientZigzagFamily()], None)
        yield (lambda f: estimate_W2(x, A, L, M, families=f, **kw), [LaminateFamily()],
               4 * np.finfo(float).eps * (np.linalg.norm(L) + np.linalg.norm(M)))

    @pytest.mark.parametrize("budget", [1, 2])
    @pytest.mark.parametrize("resolution", [4, 8])
    @pytest.mark.parametrize("N", [1, 2, 3])
    def test_formula_is_the_grid_value(self, N, resolution, budget):
        for kind in ("norm", "example", "expression"):
            densities = _plane_densities(kind, N)
            for seed in range(3):
                for estimate, families, bound in self._cases(N, resolution, budget, seed, densities):
                    new = estimate(families)
                    old = estimate([ref.GridFamily(f) for f in families])
                    assert [(r["family"], r["params"], r["admissible"]) for r in new.rows] == \
                        [(r["family"], r["params"], r["admissible"]) for r in old.rows]
                    assert (new.evaluations, new.inexact_quadrature, new.best_family,
                            new.best_params, new.lower) == \
                        (old.evaluations, old.inexact_quadrature, old.best_family,
                         old.best_params, old.lower)
                    energies = [(r["energy"], s["energy"]) for r, s in zip(new.rows, old.rows)]
                    if bound is None:
                        assert [a for a, _ in energies] == [b for _, b in energies]
                    else:
                        assert all(abs(a - b) <= bound for a, b in energies)

    @pytest.mark.parametrize("resolution", [4, 8])
    @pytest.mark.parametrize("N", [1, 2, 3])
    def test_planes_are_the_grid_jump_set(self, N, resolution):
        # every facet of the field's jump set, with its traces bit for bit, is
        # one that a plane row stands for; the laminate's are the staircase's
        # of M - L, not the field's
        def tally(rows, counts):
            out = {}
            for i, count in enumerate(counts):
                key = tuple(getattr(rows, name)[i].tobytes() for name in
                            ("axis", "boundary", "normal", "area", "plus", "minus", "jump_lin"))
                out[key] = out.get(key, 0) + int(count)
            return out

        rng = np.random.default_rng([N, resolution])
        nu = rng.standard_normal(N)
        data = {"W1": dict(A=rng.standard_normal((N, N))),
                "Gamma1": dict(lam=rng.standard_normal(N), nu=nu / np.linalg.norm(nu)),
                "Gamma2": dict(A=rng.standard_normal((N, N)), Lam=rng.standard_normal((N, N)),
                               nu=nu / np.linalg.norm(nu))}
        families = {"W1": [StaircaseFamily()], "Gamma1": [ElementaryJumpFamily(), SplittingFamily()],
                    "Gamma2": [ElementaryJumpFamily(), SplittingFamily(), GradientZigzagFamily()]}
        for variant, fams in families.items():
            problem = CellProblem(variant, rng.uniform(0.0, 1.0, N), norm_triple(d=N, N=N),
                                  resolution=resolution, **data[variant])
            for family in fams:
                for params in family.candidates(problem, 2):
                    ((planes,),) = family.planes([problem], [params])
                    field, _ = ref.GRID_BUILDERS[family.name](problem, params)
                    facets = field.jump_set()
                    assert tally(planes.facets, planes.counts) == tally(facets, np.ones(len(facets)))
                    cells = field.lin.reshape((-1,) + field.lin.shape[N:])
                    assert sorted(g.tobytes() for g, c in zip(planes.gradients, planes.cells)
                                  for _ in range(c)) == sorted(g.tobytes() for g in cells)

    def test_default_w2_sweep_keeps_its_best(self):
        # the laminate's last bits must not flip a tie with the inclusion boxes
        for N in (1, 2, 3):
            densities = norm_triple(d=N, N=N)
            for seed in range(4):
                rng = np.random.default_rng([N, seed])
                x, A = rng.uniform(0.0, 1.0, N), rng.standard_normal((N, N))
                L, M = rng.standard_normal((N, N, N)), rng.standard_normal((N, N, N))
                for budget in (1, 2):
                    new = estimate_W2(x, A, L, M, densities, budget=budget, resolution=4)
                    old = estimate_W2(x, A, L, M, densities, budget=budget, resolution=4,
                                      families=[ref.GridFamily(LaminateFamily()), InclusionFamily()])
                    assert (new.best_family, new.best_params, new.evaluations) == \
                        (old.best_family, old.best_params, old.evaluations)
                    assert [r["params"] for r in new.rows] == [r["params"] for r in old.rows]


def _assert_same_planes(planes, other):
    """Every ``FacetTable`` column, ``counts``, ``gradients`` and ``cells``
    bit for bit, and the same cube."""
    for name in FacetTable.__dataclass_fields__:
        a, b = getattr(planes.facets, name), getattr(other.facets, name)
        assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes()), name
    for name in ("counts", "gradients", "cells"):
        a, b = getattr(planes, name), getattr(other, name)
        assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes()), name
    assert planes.domain is other.domain


class _BoxAgainstItsField(InclusionFamily):
    """The inclusion box, checked at every entry of the candidate batch the
    sweep builds against the rows of its grid field
    (``reference_loops.inclusion_field``)."""

    def __init__(self):
        self.visited = []

    def planes(self, problems, batch):
        built = super().planes(problems, batch)
        assert len(built) == len(problems)
        for problem, boxes in zip(problems, built):
            assert len(boxes) == len(batch)
            for params, planes in zip(batch, boxes):
                field, _ = ref.inclusion_field(problem, params)
                _assert_same_planes(planes, ref.of_field(field))
                self.visited.append(tuple(params))
        return built


class TestInclusionBoxMatchesItsField:
    """The inclusion box's face rows are its grid field's jump set bit for
    bit, at data of order 1, where no rounding of ``L y`` off the box's faces
    exceeds the jump tolerance."""

    @pytest.mark.parametrize("resolution", [4, 8, 10])
    @pytest.mark.parametrize("N", [1, 2, 3])
    def test_every_visited_box_is_its_field(self, N, resolution):
        for seed in range(3):
            rng = np.random.default_rng([N, resolution, seed])
            x, A = rng.uniform(0.0, 1.0, N), rng.standard_normal((N, N))
            L = rng.standard_normal((N, N, N))
            M = L.copy() if seed == 0 else rng.standard_normal((N, N, N))
            family = _BoxAgainstItsField()
            problem = CellProblem("W2", x, norm_triple(d=N, N=N), A=A, L=L, M=M,
                                  resolution=resolution)
            candidates = set(family.candidates(problem, 2))
            estimate_W2(x, A, L, M, norm_triple(d=N, N=N), budget=2, resolution=resolution,
                        families=[family])
            assert candidates and candidates <= set(family.visited)


def _problem_of(variant, N, resolution, rng):
    x, A = rng.uniform(0.0, 1.0, N), rng.standard_normal((N, N))
    nu = rng.standard_normal(N)
    nu /= np.linalg.norm(nu)
    L = rng.standard_normal((N, N, N))
    data = {"W1": dict(A=A), "Gamma1": dict(lam=rng.standard_normal(N), nu=nu),
            "Gamma2": dict(A=A, Lam=rng.standard_normal((N, N)), nu=nu),
            "W2": dict(A=A, L=L, M=rng.standard_normal((N, N, N))),
            "W2, M = L": dict(A=A, L=L, M=L)}[variant]
    return CellProblem(variant.split(",")[0], x, norm_triple(d=N, N=N), resolution=resolution, **data)


class TestBatchIsItsEntries:
    """A family's ``planes`` on a list of problems and a batch of candidates
    gives each entry what one problem and a one-entry batch give, bit for
    bit, whatever else the problems and the batch hold."""

    FAMILIES = [(StaircaseFamily(), "W1"), (ElementaryJumpFamily(), "Gamma1"),
                (ElementaryJumpFamily(), "Gamma2"), (SplittingFamily(), "Gamma1"),
                (SplittingFamily(), "Gamma2"), (GradientZigzagFamily(), "Gamma2"),
                (LaminateFamily(), "W2"), (InclusionFamily(), "W2"), (InclusionFamily(), "W2, M = L")]

    @pytest.mark.parametrize("resolution", [4, 8, 10])
    @pytest.mark.parametrize("N", [1, 2, 3])
    def test_each_entry_is_its_one_entry_batch(self, N, resolution):
        rng = np.random.default_rng([N, resolution])
        for family, variant in self.FAMILIES:
            problems = [_problem_of(variant, N, resolution, rng) for _ in range(3)]
            candidates = list(family.candidates(problems[0], 2))
            assert candidates
            shuffled = [candidates[i] for i in rng.permutation(len(candidates))]
            repeated = shuffled[:3] + candidates + shuffled[:2]
            alone = [{params: family.planes([problem], [params]) for params in candidates}
                     for problem in problems]
            assert all(len(one) == 1 and len(one[0]) == 1 for own in alone for one in own.values())
            for batch in (candidates, shuffled, repeated):
                for order in ([0, 1, 2], [2, 1, 0], [1]):
                    built = family.planes([problems[i] for i in order], batch)
                    assert len(built) == len(order)
                    for i, entries in zip(order, built):
                        assert len(entries) == len(batch)
                        for params, planes in zip(batch, entries):
                            _assert_same_planes(planes, alone[i][params][0][0])
            assert family.planes(problems, []) == [[], [], []]

    def test_budget_1_builds_every_box_of_a_problem_in_one_call(self, monkeypatch):
        calls = []
        planes = InclusionFamily.planes

        def counted(self, problems, batch):
            calls.append(list(batch))
            return planes(self, problems, batch)

        monkeypatch.setattr(InclusionFamily, "planes", counted)
        for problems, N in enumerate((1, 2, 3), start=1):
            rng = np.random.default_rng(N)
            x, A, M = rng.uniform(0.0, 1.0, N), rng.standard_normal((N, N)), rng.standard_normal((N, N, N))
            estimate_W2(x, A, np.zeros((N, N, N)), M, norm_triple(d=N, N=N), budget=1)
            assert len(calls) == problems and len(calls[-1]) == 3 ** N


def _unit(rng, N):
    nu = rng.standard_normal(N)
    return nu / np.linalg.norm(nu)


def _batch_densities(N):
    """The norm triple; the worked-example triple, whose psi2 reads the
    normal and prices varying jumps by its facet integral; and expression
    densities that read the frozen point."""
    return {"norm": norm_triple(d=N, N=N), "example": example_triple(np.eye(N)[0], N=N),
            "expression": triple_from_expressions("norm(M)*(norm(A) - 2)", "norm(lam)*(1 + x[0])",
                                                  f"norm(Lam)*(2 + x[{N - 1}]) + abs(nu[0])")}


def _batch_problems(variant, N, rng):
    """Arguments of eight problems of one variant, before ``densities``: a zero
    payload, payloads below and at the jump tolerance, random ones over four
    decades, and random unit normals (Householder rotations)."""
    out = []
    for i in range(8):
        x, A, nu = rng.uniform(0.0, 1.0, N), rng.standard_normal((N, N)), _unit(rng, N)
        payload = rng.standard_normal((N, N)) * 10.0 ** rng.integers(-2, 3)
        if i < 3:  # the ROADMAP item 5 cases: a zero and rounding-size payloads
            payload = (0.0, 0.5 * DEFAULT_JUMP_TOL, DEFAULT_JUMP_TOL)[i] * np.eye(N)
        out.append({"W1": (x, payload), "Gamma1": (x, payload[0], nu),
                    "Gamma2": (x, A, payload, nu)}[variant])
    return out


ESTIMATORS = {"W1": estimate_W1, "Gamma1": estimate_gamma1, "Gamma2": estimate_gamma2}
RESULT_FIELDS = ("upper", "lower", "best_family", "best_params", "evaluations", "inexact_quadrature",
                 "admissibility_residual", "rows", "notes")


def _alone(variant, args, densities, **kw):
    """A problem's one-problem estimate, or the EstimationError it raises."""
    try:
        return ESTIMATORS[variant](*args, densities, **kw)
    except EstimationError as err:
        return err


def _assert_same_entry(batched, alone):
    """Every EstimateResult field bit for bit (``repr`` keeps a float's bits and
    the sign of a zero), or the same EstimationError message."""
    assert type(batched) is type(alone)
    if isinstance(alone, EstimationError):
        assert str(batched) == str(alone)
    else:
        for name in RESULT_FIELDS:
            assert repr(getattr(batched, name)) == repr(getattr(alone, name)), name


class TestBatchedSweep:
    """``estimate_batch`` over many problems of one variant: each entry is its
    one-problem ``estimate_*`` in every field, whatever the order of the
    problems and the size of the sweep's blocks."""

    @pytest.mark.parametrize("budget", [1, 2])
    @pytest.mark.parametrize("N", [1, 2, 3])
    @pytest.mark.parametrize("variant", ["W1", "Gamma1", "Gamma2"])
    def test_each_entry_is_its_one_problem_solve(self, monkeypatch, variant, N, budget):
        rng = np.random.default_rng([N, budget, len(variant)])
        for name, densities in _batch_densities(N).items():
            problems = _batch_problems(variant, N, rng)
            for resolution in (2, 4, 6, 8):
                kw = dict(budget=budget, resolution=resolution)
                alone = [_alone(variant, args, densities, **kw) for args in problems]
                assert any(isinstance(r, EstimateResult) for r in alone)
                blocks = (1, 7, len(problems)) if resolution == 4 else (len(problems),)
                for block in blocks:
                    monkeypatch.setattr(cellformulas, "_SWEEP_BLOCK", block)
                    batched = estimate_batch(variant, problems, densities, **kw)
                    assert len(batched) == len(problems)
                    for entry, one in zip(batched, alone):
                        _assert_same_entry(entry, one)
                order = rng.permutation(len(problems))
                shuffled = estimate_batch(variant, [problems[i] for i in order], densities, **kw)
                for entry, i in zip(shuffled, order):
                    _assert_same_entry(entry, alone[i])

    @pytest.mark.parametrize("variant", ["W1", "Gamma1", "Gamma2"])
    def test_a_nan_payload_is_rejected_alone(self, variant):
        # its competitors fail the Gauss-Green check; the other entries stand
        rng = np.random.default_rng(len(variant))
        problems = _batch_problems(variant, 2, rng)
        bad, at = list(problems[4]), {"W1": 1, "Gamma1": 1, "Gamma2": 2}[variant]
        bad[at] = np.full_like(bad[at], np.nan)
        problems[4] = tuple(bad)
        batched = estimate_batch(variant, problems, NT)
        with pytest.raises(EstimationError, match=f"no admissible competitor generated for {variant}"):
            ESTIMATORS[variant](*problems[4], NT)
        assert [isinstance(r, EstimationError) for r in batched] == [i == 4 for i in range(len(problems))]
        for entry, args in zip(batched, problems):
            _assert_same_entry(entry, _alone(variant, args, NT))

    def test_empty_and_mixed_shape_batches(self):
        assert estimate_batch("Gamma1", [], NT) == []
        problems = [(X0, np.ones(2), np.array([0.0, 1.0])), (X0, np.ones(1), np.array([0.0, 1.0]))]
        with pytest.raises(ValueError, match="must share the shapes"):
            estimate_batch("Gamma1", problems, NT)


def test_no_cell_problem_builds_a_field(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a cell problem built a PiecewiseAffineField")

    monkeypatch.setattr(PiecewiseAffineField, "__init__", refuse)
    with pytest.raises(AssertionError):
        PiecewiseAffineField(unit_cube(1, 2), np.zeros(2))
    for N in (1, 2, 3):
        rng = np.random.default_rng(N)
        densities = norm_triple(d=N, N=N)
        x, A = rng.uniform(0.0, 1.0, N), rng.standard_normal((N, N))
        nu = rng.standard_normal(N)
        nu /= np.linalg.norm(nu)
        estimate_W1(x, A, densities, budget=2)
        estimate_gamma1(x, rng.standard_normal(N), nu, densities, budget=2)
        estimate_W2(x, A, rng.standard_normal((N, N, N)), rng.standard_normal((N, N, N)), densities,
                    budget=2)
        estimate_gamma2(x, A, rng.standard_normal((N, N)), nu, densities, budget=2)


class TestPlaneOracles:
    @pytest.mark.parametrize("budget", [1, 2])
    @pytest.mark.parametrize("N", [1, 2, 3])
    def test_w1_with_the_norm_density_is_the_column_norm_sum(self, N, budget):
        # each axis's planes carry |A e_k| in total: exact on the dyadic cubes
        densities = norm_triple(d=N, N=N)
        for seed in range(40):
            rng = np.random.default_rng([N, budget, seed])
            A = rng.standard_normal((N, N)) * 10.0 ** rng.integers(-3, 4)
            r = estimate_W1(rng.uniform(0.0, 1.0, N), A, densities, budget=budget)
            assert r.upper == fsum([norm(A[:, k], 1) for k in range(N)])

    @pytest.mark.parametrize("scale", [0.0, 0.5, 1.0])
    def test_gamma1_payload_at_the_jump_tolerance_prices_to_zero(self, scale):
        # the plane drops out of the jump set, as on the grid; the certificate
        # still counts it (the open lower > upper defect of a rounding-size jump)
        lam = np.array([scale * DEFAULT_JUMP_TOL, 0.0])
        r = estimate_gamma1(X0, lam, np.array([0.6, 0.8]), NT)
        grid = estimate_gamma1(X0, lam, np.array([0.6, 0.8]), NT,
                               families=[ref.GridFamily(ElementaryJumpFamily()),
                                         ref.GridFamily(SplittingFamily())])
        assert r.upper == grid.upper == 0.0
        assert r.lower == scale * DEFAULT_JUMP_TOL


class TestEstimationFailure:
    def test_no_admissible_competitor_is_reported(self):
        M = np.zeros((2, 2, 2))
        M[0, 0, 0] = 1.0
        with pytest.raises(EstimationError):
            estimate_W2(X0, np.zeros((2, 2)), np.zeros((2, 2, 2)), M, NT,
                        families=[AffineCompetitor()])


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

