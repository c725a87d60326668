import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reference_loops import elementary_jump, evaluate, l1_norm, staircase, total_jump_mass
from sdrelax.fields import (
    AffineBoundary,
    BoxDomain,
    PiecewiseAffineField,
    SecondOrderField,
    StepBoundary,
    gauss_green_residual,
    l1_distance,
    trace_boundary,
)


def affine_field(domain, A, c=None):
    """u(y) = A y + c, exactly representable: no jumps."""
    A = np.atleast_2d(np.asarray(A, dtype=float))
    d = A.shape[0]
    centers = domain.cell_centers().reshape(-1, domain.ndim)
    const = (centers @ A.T).reshape(domain.cells_shape + (d,))
    if c is not None:
        const = const + np.asarray(c, dtype=float)
    lin = np.broadcast_to(A, domain.cells_shape + A.shape).copy()
    return PiecewiseAffineField(domain, const, lin)


def staircase_1d_left_anchored(n=4):
    """u = y - k/n on [k/n, (k+1)/n): the hand-evaluated step example."""
    dom = BoxDomain([0.0], [1.0], [n])
    const = np.full((n, 1), 0.5 / n)
    lin = np.ones((n, 1, 1))
    return PiecewiseAffineField(dom, const, lin, boundary_data=AffineBoundary(np.zeros(1), np.zeros((1, 1))))


class TestJumpSet:
    def test_globally_affine_has_no_jumps(self):
        dom = BoxDomain([0, 0], [1, 1], [3, 3])
        u = affine_field(dom, [[1.0, 2.0], [0.5, -1.0]], c=[0.3, 0.0])
        assert len(u.jump_set()) == 0

    def test_single_step(self):
        dom = BoxDomain([0.0], [1.0], [2])
        u = PiecewiseAffineField(dom, np.array([[0.0], [1.0]]))
        facets = u.jump_set()
        assert len(facets) == 1
        assert facets.jump[0] == pytest.approx([1.0])
        assert facets.normal[0] == pytest.approx([1.0])
        assert facets.centroid[0] == pytest.approx([0.5])

    def test_staircase_interior_jumps(self):
        u = staircase_1d_left_anchored(4)
        facets = u.jump_set()
        interior = facets.select(~facets.boundary)
        assert len(interior) == 3
        for jump in interior.jump:
            assert abs(jump[0]) == pytest.approx(0.25, abs=1e-15)

    def test_canonicalization_idempotent(self):
        u = staircase_1d_left_anchored(4)
        first = u.jump_set()
        second = u.jump_set()
        assert len(first) == len(second)
        assert np.array_equal(first.index, second.index) and np.array_equal(first.axis, second.axis)
        assert np.array_equal(first.jump, second.jump)
        assert np.array_equal(first.normal, second.normal)


class TestBoxDomainIdentity:
    def test_domains_compare_by_identity_and_hash(self):
        a, b = BoxDomain([0, 0], [1, 1], [2, 2]), BoxDomain([0, 0], [1, 1], [2, 2])
        assert a == a and a != b
        assert {a: 1, b: 2}[a] == 1
        assert a.compatible(b)


class TestNonFinite:
    @pytest.mark.parametrize("lower, upper", [([0.0], [np.inf]), ([-np.inf], [1.0]),
                                              ([0.0, 0.0], [1.0, np.inf])])
    def test_box_domain_rejects_infinite_bounds(self, lower, upper):
        with pytest.raises(ValueError, match="finite"):
            BoxDomain(lower, upper, [4] * len(lower))

    def test_nan_cell_keeps_its_facets(self):
        # both facets of the NaN cell have a NaN magnitude: they count as jumps
        u = PiecewiseAffineField(BoxDomain([0.0], [1.0], [4]), np.array([0.0, np.nan, 1.0, 1.0]))
        facets = u.jump_set()
        assert facets.index.ravel().tolist() == [0, 1]
        assert np.isnan(facets.jump).ravel().tolist() == [True, True]


class TestTotalJumpMass:
    def test_affine_zero(self):
        dom = BoxDomain([0, 0], [1, 1], [2, 2])
        assert total_jump_mass(affine_field(dom, np.eye(2))) == 0.0

    def test_single_step_height_one(self):
        dom = BoxDomain([0.0], [1.0], [2])
        u = PiecewiseAffineField(dom, np.array([[0.0], [1.0]]))
        assert total_jump_mass(u) == pytest.approx(1.0, abs=1e-15)

    def test_staircase_with_boundary_jump(self):
        # 3 interior jumps of 1/4 plus the right-boundary mismatch 1/4
        u = staircase_1d_left_anchored(4)
        assert total_jump_mass(u) == pytest.approx(1.0, abs=1e-15)
        facets = u.jump_set()
        boundary = facets.select(facets.boundary)
        assert len(boundary) == 1
        assert boundary.jump[0, 0] == pytest.approx(-0.25, abs=1e-15)
        assert boundary.normal[0] == pytest.approx([1.0])

    def test_refinement_invariance_constant_jumps(self):
        u = staircase_1d_left_anchored(4)
        m0 = total_jump_mass(u)
        assert total_jump_mass(u.refine(3)) == pytest.approx(m0, abs=1e-12)
        dom = BoxDomain([0, 0], [1, 1], [2, 2])
        v = PiecewiseAffineField(dom, np.arange(4.0).reshape(2, 2))
        assert total_jump_mass(v.refine(2)) == pytest.approx(total_jump_mass(v), abs=1e-12)


class TestL1:
    def test_identical_fields(self):
        dom = BoxDomain([0.0], [1.0], [4])
        u = affine_field(dom, [[2.0]])
        assert l1_distance(u, u) == 0.0

    def test_constant_difference(self):
        dom = BoxDomain([0.0], [1.0], [4])
        one = PiecewiseAffineField(dom, np.ones((4, 1)))
        zero = PiecewiseAffineField(dom, np.zeros((4, 1)))
        assert l1_distance(one, zero) == pytest.approx(1.0, abs=1e-15)

    @pytest.mark.parametrize("n", [4, 10, 16])
    def test_midpoint_staircase_distance(self, n):
        # per-cell triangles: total = 1/(4n), exactly
        dom = BoxDomain([0.0], [1.0], [n])
        f = affine_field(dom, [[1.0]])
        g = PiecewiseAffineField(dom, dom.cell_centers().reshape(n, 1))
        assert l1_distance(f, g) == pytest.approx(1.0 / (4 * n), abs=1e-15)

    def test_l1_norm_matrix_values_quadrature(self):
        dom = BoxDomain([0, 0], [1, 1], [2, 2])
        lin = np.zeros((2, 2, 2, 2, 2))
        lin[..., 0, 0, 0] = 1.0
        u = PiecewiseAffineField(dom, np.ones((2, 2, 2, 2)), lin)
        val = l1_norm(u)
        assert val > 0


class TestTraceBoundary:
    def test_linear_boundary_values(self):
        L = np.array([[1.0, 2.0], [3.0, 4.0]])
        dom = BoxDomain([0, 0], [1, 1], [2, 2])
        u = affine_field(dom, L)
        faces = trace_boundary(u)
        for interior, centroid in zip(faces.minus, faces.centroid):
            assert interior == pytest.approx(L @ centroid, abs=1e-14)

    def test_staircase_effective_trace_zero(self):
        u = staircase_1d_left_anchored(4)
        for effective in trace_boundary(u).plus:
            assert np.max(np.abs(effective)) <= 1e-12

    def test_elementary_jump_traces(self):
        u = elementary_jump(np.array([2.0, 0.0]), ndim=2, resolution=4)
        faces = trace_boundary(u)
        for axis, normal, effective in zip(faces.axis, faces.normal, faces.plus):
            if axis == 1 and normal[axis] > 0:
                assert effective == pytest.approx([2.0, 0.0])
            if axis == 1 and normal[axis] < 0:
                assert effective == pytest.approx([0.0, 0.0])


class TestGaussGreen:
    def test_staircase_closure(self):
        u = staircase_1d_left_anchored(4)
        assert np.max(np.abs(gauss_green_residual(u))) <= 1e-10

    def test_2d_zero_trace_closure(self):
        A = np.array([[1.0, -0.5], [0.25, 2.0]])
        u = staircase(A, 4, BoxDomain([0, 0], [1, 1], [1, 1]))
        assert np.max(np.abs(gauss_green_residual(u))) <= 1e-10

    def test_linear_boundary_closure(self):
        L = np.array([[1.0, 2.0], [3.0, 4.0]])
        dom = BoxDomain([0, 0], [1, 1], [2, 2])
        u = affine_field(dom, L)
        u = PiecewiseAffineField(dom, u.const, u.lin, boundary_data=AffineBoundary(np.zeros(L.shape[:-1]), L))
        assert np.max(np.abs(gauss_green_residual(u))) <= 1e-10


class TestSerialization:
    def test_round_trip_bit_exact(self):
        u = staircase_1d_left_anchored(4)
        blob = json.dumps(u.to_dict())
        v = PiecewiseAffineField.from_dict(json.loads(blob))
        assert np.array_equal(u.const, v.const)
        assert np.array_equal(u.lin, v.lin)
        assert json.dumps(v.to_dict()) == blob

    def test_step_boundary_round_trip(self):
        u = elementary_jump(np.array([1.0, 0.5]), ndim=2, resolution=4)
        v = PiecewiseAffineField.from_dict(json.loads(json.dumps(u.to_dict())))
        assert total_jump_mass(v) == total_jump_mass(u)


class TestSecondOrderField:
    def test_consistency_enforced(self):
        dom = BoxDomain([0.0], [1.0], [4])
        u = affine_field(dom, [[1.0]])
        bad_grad = PiecewiseAffineField(dom, np.full((4, 1, 1), 2.0))
        with pytest.raises(ValueError):
            SecondOrderField(u, bad_grad)

    @pytest.mark.parametrize("entry", [1.0, np.nan])
    def test_mismatched_or_nan_gradient_rejected(self, entry):
        dom = BoxDomain([0.0, 0.0], [1.0, 1.0], [2, 2])
        u = PiecewiseAffineField(dom, np.zeros((2, 2, 1)))
        const = np.zeros((2, 2, 1, 2))
        const[0, 0, 0, 0] = entry
        with pytest.raises(ValueError, match="inconsistent"):
            SecondOrderField(u, PiecewiseAffineField(dom, const))

    def test_from_affine_has_zero_second_gradient(self):
        dom = BoxDomain([0.0], [1.0], [4])
        pair = SecondOrderField.from_affine(affine_field(dom, [[1.0]]))
        assert np.all(pair.grad.lin == 0.0)


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=1, max_value=5), st.integers(min_value=1, max_value=4))
def test_refine_preserves_values(k, n):
    dom = BoxDomain([0.0], [2.0], [n])
    rng = np.random.default_rng(k + 10 * n)
    const = rng.standard_normal((n, 1))
    lin = rng.standard_normal((n, 1, 1))
    u = PiecewiseAffineField(dom, const, lin)
    v = u.refine(k)
    pts = rng.uniform(0.05, 1.95, size=(20, 1))
    assert np.allclose(evaluate(u, pts), evaluate(v, pts), atol=1e-12)
