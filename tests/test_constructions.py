import numpy as np
import pytest

import reference_loops as ref
from sdrelax import constructions
from reference_loops import (
    elementary_jump,
    l1_norm,
    piecewise_constant_approx,
    staircase,
    total_jump_mass,
)
from sdrelax.constructions import SD2Triple, approximating_sequence, gradient_primitive
from sdrelax.fields import (
    BoxDomain,
    PiecewiseAffineField,
    gauss_green_residual,
    l1_distance,
    trace_boundary,
)

UNIT_1D = BoxDomain([0.0], [1.0], [1])
UNIT_2D = BoxDomain([0, 0], [1, 1], [1, 1])


def linear_field(domain, A):
    A = np.atleast_2d(np.asarray(A, dtype=float))
    centers = domain.cell_centers().reshape(-1, domain.ndim)
    const = (centers @ A.T).reshape(domain.cells_shape + (A.shape[0],))
    lin = np.broadcast_to(A, domain.cells_shape + A.shape).copy()
    return PiecewiseAffineField(domain, const, lin)


class TestStaircase:
    def test_zero_matrix(self):
        u = staircase(np.zeros((1, 1)), 4, UNIT_1D)
        assert total_jump_mass(u) == 0.0
        assert np.all(u.lin == 0.0)

    def test_1d_mass_equals_gradient_times_volume(self):
        u = staircase(np.array([[1.0]]), 4, UNIT_1D)
        assert np.all(u.lin == 1.0)
        assert total_jump_mass(u) == pytest.approx(1.0, abs=1e-15)
        facets = u.jump_set()
        interior = facets.select(~facets.boundary)
        assert len(interior) == 3
        for jump in interior.jump:
            assert abs(jump[0]) == pytest.approx(0.25, abs=1e-15)

    def test_single_column_only_one_sawtooth_active(self):
        u = staircase(np.array([[1.0, 0.0]]), 6, UNIT_2D)
        assert total_jump_mass(u) == pytest.approx(1.0, abs=1e-12)
        # all jump mass sits on planes orthogonal to the active axis; the
        # lateral boundary facets carry only affine variation, no mass
        facets = u.jump_set()
        for axis, magnitude in zip(facets.axis, facets.magnitudes()):
            if axis != 0:
                assert magnitude == 0.0

    def test_effective_boundary_trace_zero(self):
        u = staircase(np.array([[1.0, 2.0], [0.0, 1.0]]), 4, UNIT_2D)
        for effective in trace_boundary(u).plus:
            assert np.max(np.abs(effective)) <= 1e-12

    def test_mass_identity_and_bound_random(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            d, N = rng.integers(1, 4), rng.integers(1, 4)
            A = rng.uniform(-5, 5, size=(d, N))
            dom = BoxDomain(np.zeros(N), np.ones(N), np.ones(N, dtype=int))
            u = staircase(A, 4, dom)
            mass = total_jump_mass(u)
            expected = sum(np.linalg.norm(A[:, j]) for j in range(N))
            assert mass == pytest.approx(expected, abs=1e-10)

    def test_equality_case_is_one_dimensional(self):
        A = np.array([[2.0]])
        u = staircase(A, 8, UNIT_1D)
        # one column: the mass |A e_1| |domain| is also sqrt(N) |A| |domain|
        assert total_jump_mass(u) == pytest.approx(2.0, abs=1e-12)


class TestPiecewiseConstantApprox:
    def test_constant_field_fixed_point(self):
        u = PiecewiseAffineField(BoxDomain([0.0], [1.0], [2]), np.full((2, 1), 3.0))
        ap = piecewise_constant_approx(u, 8)
        assert np.all(ap.const == 3.0)
        assert total_jump_mass(ap) == 0.0

    def test_linear_ramp_tv(self):
        u = linear_field(BoxDomain([0.0], [1.0], [1]), [[1.0]])
        ap = piecewise_constant_approx(u, 10)
        assert total_jump_mass(ap) == pytest.approx(0.9, abs=1e-12)

    def test_tv_monotone_from_below(self):
        u = linear_field(BoxDomain([0.0], [1.0], [1]), [[1.0]])
        tvs = [total_jump_mass(piecewise_constant_approx(u, n)) for n in (2, 4, 8, 16, 32)]
        assert all(a <= b + 1e-15 for a, b in zip(tvs, tvs[1:]))
        assert all(tv <= 1.0 for tv in tvs)
        assert tvs == [pytest.approx((n - 1) / n, abs=1e-12) for n in (2, 4, 8, 16, 32)]


class TestGradientPrimitive:
    def test_zero_input(self):
        f = PiecewiseAffineField(BoxDomain([0.0], [1.0], [2]), np.zeros((2, 1, 1)))
        u = gradient_primitive(f)
        assert np.all(u.const == 0.0) and np.all(u.lin == 0.0)

    def test_unit_slope_two_cells(self):
        f = PiecewiseAffineField(BoxDomain([0.0], [1.0], [2]), np.ones((2, 1, 1)))
        u = gradient_primitive(f)
        facets = u.jump_set()
        assert len(facets) == 1
        assert facets.jump[0, 0] == pytest.approx(-0.5, abs=1e-15)
        assert total_jump_mass(u) == pytest.approx(0.5, abs=1e-15)
        assert total_jump_mass(u) <= 4 * 1 * l1_norm(f)

    def test_step_input_localized_jumps(self):
        dom = BoxDomain([0, 0], [1, 1], [4, 4])
        values = np.zeros((4, 4, 1, 2))
        values[2:, :, 0, 0] = 3.0  # right half carries the gradient
        f = PiecewiseAffineField(dom, values)
        u = gradient_primitive(f)
        mass = total_jump_mass(u)
        assert mass <= 4 * 2 * l1_norm(f) + 1e-12
        for index in u.jump_set().index:
            assert index[0] >= 1  # no jumps in the untouched left strip

    def test_mass_and_l1_bounds_random(self):
        rng = np.random.default_rng(5)
        for _ in range(300):
            d, N = int(rng.integers(1, 3)), int(rng.integers(1, 3))
            res = rng.integers(2, 4, size=N)
            dom = BoxDomain(np.zeros(N), np.ones(N), res)
            values = rng.uniform(-3, 3, size=tuple(res) + (d, N))
            f = PiecewiseAffineField(dom, values)
            u = gradient_primitive(f)
            assert total_jump_mass(u) <= 4 * N * l1_norm(f) + 1e-12
            assert l1_norm(u) <= np.linalg.norm(dom.upper - dom.lower) * l1_norm(f) + 1e-12

    def test_gauss_green_closure_against_own_traces(self):
        # without prescribed data the flux of the interior traces closes the identity
        f = PiecewiseAffineField(BoxDomain([0.0], [1.0], [2]), np.ones((2, 1, 1)))
        u = gradient_primitive(f)
        assert np.max(np.abs(gauss_green_residual(u))) <= 1e-12


class TestElementaryJump:
    def test_zero_payload(self):
        u = elementary_jump(np.zeros(2), ndim=2, resolution=4)
        assert len(u.jump_set()) == 0

    def test_vector_payload(self):
        u = elementary_jump(np.array([1.0, 0.0]), ndim=2, resolution=4)
        facets = u.jump_set()
        assert all(axis == 1 and not boundary for axis, boundary in zip(facets.axis, facets.boundary))
        assert sum(facets.area) == pytest.approx(1.0, abs=1e-15)
        for jump in facets.jump:
            assert jump == pytest.approx([1.0, 0.0])
        assert total_jump_mass(u) == pytest.approx(1.0, abs=1e-15)

    def test_matrix_payload(self):
        u = elementary_jump(np.eye(2), ndim=2, resolution=4)
        assert total_jump_mass(u) == pytest.approx(np.sqrt(2.0), abs=1e-15)

    def test_odd_resolution_rejected(self):
        with pytest.raises(ValueError):
            elementary_jump(np.ones(2), ndim=2, resolution=3)


def slip_case():
    dom = BoxDomain([0.0], [1.0], [4])
    g = linear_field(dom, [[1.0]])
    G = PiecewiseAffineField(dom, np.zeros((4, 1, 1)))
    return SD2Triple(g, G, np.zeros((4, 1, 1, 1)))


def affine_case():
    dom = BoxDomain([0.0], [1.0], [4])
    g = linear_field(dom, [[2.0]])
    G = PiecewiseAffineField(dom, np.full((4, 1, 1), 2.0))
    return SD2Triple(g, G, np.zeros((4, 1, 1, 1)))


def quadratic_case():
    # g = y^2/2 sampled cellwise, G = y, Gamma = 1
    dom = BoxDomain([0.0], [1.0], [4])
    centers = dom.cell_centers().reshape(4, 1)
    g = PiecewiseAffineField(dom, 0.5 * centers**2, centers.reshape(4, 1, 1))
    G = PiecewiseAffineField(dom, centers.reshape(4, 1, 1), np.ones((4, 1, 1, 1)))
    return SD2Triple(g, G, np.ones((4, 1, 1, 1)))


CORPUS = {"affine": affine_case, "slip": slip_case, "quadratic": quadratic_case}


class TestApproximatingSequence:
    def test_affine_case_is_exact(self):
        sd2 = affine_case()
        for n in (4, 8):
            pair, diag = approximating_sequence(sd2, n)
            assert diag["l1_u"] == pytest.approx(0.0, abs=1e-14)
            assert diag["l1_grad"] == pytest.approx(0.0, abs=1e-14)

    def test_slip_case_rates(self):
        sd2 = slip_case()
        for n in (4, 8, 16):
            pair, diag = approximating_sequence(sd2, n)
            assert diag["l1_u"] == pytest.approx(1.0 / (4 * n * n), abs=1e-14)
            assert diag["l1_grad"] == 0.0
            assert np.all(pair.grad.const == 0.0)

    def test_second_gradient_exact_everywhere(self):
        for make in CORPUS.values():
            sd2 = make()
            pair, diag = approximating_sequence(sd2, 4)
            assert diag["second_gradient_exact"]
            gamma_fine = np.repeat(sd2.Gamma, pair.domain.num_cells // sd2.domain.num_cells, axis=0)
            assert np.array_equal(pair.grad.lin, gamma_fine)

    def test_block_check_finds_a_changed_cell(self):
        from sdrelax.constructions import _blocks_equal

        coarse = np.random.default_rng(3).standard_normal((2, 3, 2, 2, 2))
        fine = np.repeat(np.repeat(coarse, 4, axis=0), 2, axis=1)
        assert _blocks_equal(fine, coarse, np.array([4, 2]))
        fine[5, 3, 1, 0, 1] += 1.0
        assert not _blocks_equal(fine, coarse, np.array([4, 2]))

    def test_error_decay_ratios(self):
        for name, make in CORPUS.items():
            sd2 = make()
            errors = []
            for n in (4, 8, 16, 32):
                _, diag = approximating_sequence(sd2, n)
                errors.append(diag["l1_u"] + diag["l1_grad"])
            for a, b in zip(errors, errors[1:]):
                assert b <= max(0.6 * a, 1e-14), f"{name}: {errors}"

    def test_incompatible_domains_rejected(self):
        # boxes are compared bit for bit: a near miss is another box
        g = linear_field(BoxDomain([0.0], [1.0], [4]), [[1.0]])
        for upper in (2.0, 1.000009):
            G = PiecewiseAffineField(BoxDomain([0.0], [upper], [4]), np.zeros((4, 1, 1)))
            with pytest.raises(ValueError):
                SD2Triple(g, G, np.zeros((4, 1, 1, 1)))


def _signed_zeros(rng, shape):
    """Seeded values of which about a third are +0.0 or -0.0."""
    values = rng.standard_normal(shape)
    zero = rng.random(shape) < 0.35
    values[zero] = np.where(rng.random(shape) < 0.5, 0.0, -0.0)[zero]
    return values


def fixture_triple(res: int, seed: int = 0) -> SD2Triple:
    """g = (a x^2/2 + b y, c x y) with its tangent plane per cell, G = grad g / 2
    and Gamma = 0 on a res x res grid of the unit square."""
    a, b, c = np.random.default_rng(seed).uniform(0.5, 1.5, 3)
    dom = BoxDomain([0.0, 0.0], [1.0, 1.0], [res, res])
    x, y = np.moveaxis(dom.cell_centers(), -1, 0)
    zero = np.zeros_like(x)
    g_lin = np.stack([np.stack([a * x, b + zero], -1), np.stack([c * y, c * x], -1)], -2)
    g = PiecewiseAffineField(dom, np.stack([a * x * x / 2 + b * y, c * x * y], axis=-1), g_lin)
    dG = 0.5 * np.array([[[a, 0.0], [0.0, 0.0]], [[0.0, c], [c, 0.0]]])
    G = PiecewiseAffineField(dom, 0.5 * g_lin, np.broadcast_to(dG, (res, res, 2, 2, 2)).copy())
    return SD2Triple(g, G, np.zeros((res, res, 2, 2, 2)))


class TestCorrectedPrimitive:
    """The sequence's corrected primitive reads the target's constants; the
    cell-midpoint sampling it replaced gave the same bits, signed zeros too."""

    def test_matches_midpoint_sampling_bitwise(self):
        rng = np.random.default_rng(19)
        for case in range(200):
            N = 1 + case % 3
            dom = BoxDomain(-rng.uniform(0.0, 1.0, N), rng.uniform(0.5, 2.0, N),
                            rng.integers(1, 5, N))
            d = int(rng.integers(1, 3))
            f = PiecewiseAffineField(dom, _signed_zeros(rng, dom.cells_shape + (d, N)),
                                     _signed_zeros(rng, dom.cells_shape + (d, N, N)))
            target = PiecewiseAffineField(dom, _signed_zeros(rng, dom.cells_shape + (d,)),
                                          _signed_zeros(rng, dom.cells_shape + (d, N)),
                                          jump_tol=float(rng.uniform(1e-13, 1e-11)))
            new = constructions._corrected_primitive(f, target)
            old = ref.corrected_primitive(f, target)
            assert new.const.tobytes() == old.const.tobytes()
            assert new.lin.tobytes() == old.lin.tobytes()
            assert (new.domain, new.jump_tol) == (old.domain, old.jump_tol)

    @pytest.mark.parametrize("case", ["fixture", *CORPUS])
    def test_sequence_matches_midpoint_sampling_bitwise(self, case, monkeypatch):
        sd2 = fixture_triple(4) if case == "fixture" else CORPUS[case]()
        new = approximating_sequence(sd2, 4)
        monkeypatch.setattr(constructions, "_corrected_primitive", ref.corrected_primitive)
        old = approximating_sequence(sd2, 4)
        for a, b in ((new[0].u, old[0].u), (new[0].grad, old[0].grad)):
            assert a.const.tobytes() == b.const.tobytes() and a.lin.tobytes() == b.lin.tobytes()
        assert new[1] == old[1]
