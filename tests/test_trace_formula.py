import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_loops as ref
from sdrelax import trace_formula
from sdrelax.assembly import AssembleConfig, assemble_relaxed_energy
from sdrelax.constructions import SD2Triple
from sdrelax.densities import example_triple
from sdrelax.fields import BoxDomain, PiecewiseAffineField
from sdrelax.trace_formula import (
    BoxInclusion,
    closed_form_W2,
    default_box_family,
    eigen_basis,
    inclusion_energy,
    is_in_S,
    laminate_energy,
    random_competitors,
    swap_layout,
    verify_example,
)

A_E1 = np.array([1.0, 0.0])


def tensor_with_slice(B: np.ndarray, a=A_E1) -> np.ndarray:
    """Build a bilinear-layout tensor whose a-slice equals B (a = e1)."""
    N = B.shape[0]
    T = np.zeros((N, N, N))
    j = int(np.argmax(np.abs(a)))
    T[:, :, j] = B / a[j]
    return T


def brute_force_trace(L, M, a):
    """Independent contraction oracle for the component form."""
    delta = np.asarray(L) - np.asarray(M)
    total = 0.0
    N = delta.shape[0]
    for i in range(N):
        for j in range(N):
            total += delta[i, i, j] * a[j]
    return abs(total)


class TestBilinear3:
    def test_field_layout_round_trip(self):
        rng = np.random.default_rng(1)
        stored = rng.standard_normal((2, 2, 2))
        assert np.array_equal(swap_layout(swap_layout(stored)), stored)


class TestClosedForm:
    def test_equal_tensors(self):
        rng = np.random.default_rng(2)
        L = rng.standard_normal((2, 2, 2))
        assert closed_form_W2(L, L, A_E1) == 0.0

    def test_identity_slice_case(self):
        M = np.zeros((2, 2, 2))
        M[0, 0, 0] = 1.0
        M[1, 1, 0] = 1.0
        assert closed_form_W2(np.zeros((2, 2, 2)), M, A_E1) == pytest.approx(2.0, abs=1e-15)
        assert brute_force_trace(np.zeros((2, 2, 2)), M, A_E1) == pytest.approx(2.0)

    def test_matches_brute_force_contraction(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            L = rng.standard_normal((3, 3, 3))
            M = rng.standard_normal((3, 3, 3))
            a = rng.standard_normal(3)
            a /= np.linalg.norm(a)
            assert closed_form_W2(L, M, a) == pytest.approx(brute_force_trace(L, M, a), abs=1e-12)

    def test_similarity_invariance_of_slice_trace(self):
        rng = np.random.default_rng(4)
        B = rng.standard_normal((2, 2))
        T = rng.standard_normal((2, 2)) + 2 * np.eye(2)
        conjugated = T @ B @ np.linalg.inv(T)
        La = tensor_with_slice(B)
        Lb = tensor_with_slice(conjugated)
        Z = np.zeros((2, 2, 2))
        assert closed_form_W2(La, Z, A_E1) == pytest.approx(closed_form_W2(Lb, Z, A_E1), abs=1e-12)

    def test_non_unit_direction_rejected(self):
        with pytest.raises(ValueError):
            closed_form_W2(np.zeros((2, 2, 2)), np.zeros((2, 2, 2)), np.array([2.0, 0.0]))

    def test_lipschitz_in_second_argument(self):
        rng = np.random.default_rng(5)
        L = rng.standard_normal((2, 2, 2))
        for _ in range(100):
            M1 = rng.standard_normal((2, 2, 2))
            M2 = rng.standard_normal((2, 2, 2))
            lhs = abs(closed_form_W2(L, M1, A_E1) - closed_form_W2(L, M2, A_E1))
            assert lhs <= np.sqrt(2.0) * np.linalg.norm(M1 - M2) + 1e-12


class TestInclusionEnergy:
    def test_identity_slice_all_radii(self):
        L = tensor_with_slice(np.eye(2))
        Z = np.zeros((2, 2, 2))
        for r in (0.1, 0.2, 0.4):
            box = BoxInclusion(np.zeros(2), np.array([r / 2, r / 2]))
            assert inclusion_energy(L, Z, A_E1, box) == pytest.approx(2.0, abs=1e-10)

    def test_diag_positive(self):
        L = tensor_with_slice(np.diag([1.0, 2.0]))
        box = BoxInclusion(np.zeros(2), np.array([0.15, 0.15]))
        assert inclusion_energy(L, np.zeros((2, 2, 2)), A_E1, box) == pytest.approx(3.0, abs=1e-12)

    def test_diag_mixed_sign_sees_no_cancellation(self):
        L = tensor_with_slice(np.diag([1.0, -2.0]))
        box = BoxInclusion(np.zeros(2), np.array([0.15, 0.15]))
        assert inclusion_energy(L, np.zeros((2, 2, 2)), A_E1, box) == pytest.approx(3.0, abs=1e-12)

    def test_scale_invariance_exact(self):
        rng = np.random.default_rng(6)
        L = rng.standard_normal((2, 2, 2))
        M = rng.standard_normal((2, 2, 2))
        vals = [inclusion_energy(L, M, A_E1, BoxInclusion(np.zeros(2), np.array([r, r])))
                for r in (0.05, 0.1, 0.2)]
        assert abs(vals[0] - vals[1]) <= 1e-10
        assert abs(vals[1] - vals[2]) <= 1e-10

    def test_containment_enforced(self):
        L = tensor_with_slice(np.eye(2))
        with pytest.raises(ValueError):
            inclusion_energy(L, np.zeros((2, 2, 2)), A_E1,
                             BoxInclusion(np.array([0.4, 0.0]), np.array([0.2, 0.1])))

    def test_monte_carlo_face_integral(self):
        # independent check of one face integral against sampling
        rng = np.random.default_rng(7)
        B = rng.standard_normal((2, 2))
        L = tensor_with_slice(B)
        box = BoxInclusion(np.array([0.05, -0.1]), np.array([0.12, 0.2]))
        exact = inclusion_energy(L, np.zeros((2, 2, 2)), A_E1, box)
        n = 200_000
        total = 0.0
        for m, sign in ((0, -1), (0, 1), (1, -1), (1, 1)):
            t = rng.uniform(-box.half[1 - m], box.half[1 - m], n)
            x = np.zeros((n, 2))
            x[:, m] = box.center[m] + sign * box.half[m]
            x[:, 1 - m] = box.center[1 - m] + t
            vals = np.abs((B @ x.T)[m])
            total += vals.mean() * 2 * box.half[1 - m]
        mc = total / (4 * box.half[0] * box.half[1])
        assert exact == pytest.approx(mc, rel=5e-3)


class TestLaminates:
    def test_axis_laminate_diagonal_slice(self):
        L = tensor_with_slice(np.diag([1.0, 2.0]))
        assert laminate_energy(L, np.zeros((2, 2, 2)), A_E1) == pytest.approx(3.0, abs=1e-14)

    def test_rotated_laminates_dominate_trace(self):
        rng = np.random.default_rng(8)
        L = rng.standard_normal((2, 2, 2))
        M = rng.standard_normal((2, 2, 2))
        closed = closed_form_W2(L, M, A_E1)
        for _ in range(200):
            Q, _ = np.linalg.qr(rng.standard_normal((2, 2)))
            assert laminate_energy(L, M, A_E1, basis=Q) >= closed - 1e-9


class TestVerifyExample:
    def test_identity_gap_zero(self):
        L = tensor_with_slice(np.eye(2))
        rep = verify_example(L, np.zeros((2, 2, 2)), A_E1)
        assert rep["closed_form"] == pytest.approx(2.0, abs=1e-15)
        assert abs(rep["gap"]) <= 1e-9
        assert rep["lower_bound_ok"]
        assert not rep["in_S"]  # repeated eigenvalue

    def test_same_sign_eigenbasis_gap(self):
        L = tensor_with_slice(np.diag([1.0, 2.0]))
        rep = verify_example(L, np.zeros((2, 2, 2)), A_E1)
        assert rep["in_S"]
        assert rep["closed_form"] == pytest.approx(3.0, abs=1e-15)
        assert abs(rep["gap"]) <= 1e-6

    def test_mixed_sign_documented_gap(self):
        L = tensor_with_slice(np.diag([1.0, -2.0]))
        rep = verify_example(L, np.zeros((2, 2, 2)), A_E1, random_count=200)
        assert rep["closed_form"] == pytest.approx(1.0, abs=1e-15)
        assert rep["best_upper"] == pytest.approx(3.0, abs=1e-12)
        assert rep["gap"] == pytest.approx(2.0, abs=1e-9)
        assert rep["lower_bound_ok"]

    def test_lower_bound_certificate_random_competitors(self):
        rng = np.random.default_rng(9)
        for _ in range(3):
            L = rng.standard_normal((2, 2, 2))
            M = rng.standard_normal((2, 2, 2))
            closed = closed_form_W2(L, M, A_E1)
            for comp in random_competitors(L, M, A_E1, count=1000, seed=int(rng.integers(1000))):
                assert comp["energy"] >= closed - 1e-9


def bits(records: list[dict]) -> list:
    """Kind, params and the exact bits of the energy of each record."""
    return [(r["kind"], r["params"], r["energy"].hex()) for r in records]


class TestBatchMatchesReference:
    """The batched draw and pricing reproduce the per-box loop bit for bit."""

    @pytest.mark.parametrize("count", [0, 1, 2, 7, 1000])
    @pytest.mark.parametrize("N", [2, 3])
    @pytest.mark.parametrize("widened", [False, True], ids=["shipped", "clamping"])
    def test_random_competitors(self, monkeypatch, N, count, widened):
        if widened:  # boxes that may reach past the cube, which both refuse
            monkeypatch.setattr(trace_formula, "_BOX_DRAWS", ((-0.3, 0.3), (0.02, 0.45)))
        rng = np.random.default_rng(100 * N + count)
        L = rng.standard_normal((N, N, N))
        M = rng.standard_normal((N, N, N))
        a = rng.standard_normal(N)
        a /= np.linalg.norm(a)
        try:
            want = ref.random_competitors(L, M, a, count=count, seed=count + N)
        except ValueError as err:
            assert widened and "compactly contained" in str(err)
            with pytest.raises(ValueError, match="compactly contained"):
                random_competitors(L, M, a, count=count, seed=count + N)
            return
        got = random_competitors(L, M, a, count=count, seed=count + N)
        assert len(got) == count
        assert bits(got) == bits(want)

    def test_random_boxes_lie_inside_the_cube(self):
        # every drawn box is compactly inside, with the margin the pricing requires
        (c_lo, c_hi), (h_lo, h_hi) = trace_formula._BOX_DRAWS
        assert h_lo > 0.0
        assert max(abs(c_lo), abs(c_hi)) + h_hi < 0.5 - 1e-9

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_verify_example_on_the_example_triple(self, seed):
        L = tensor_with_slice(np.eye(2))
        Z = np.zeros((2, 2, 2))
        got = verify_example(L, Z, A_E1, random_count=1000, seed=seed)
        want = ref.verify_example(L, Z, A_E1, random_count=1000, seed=seed)
        # the JSON text of a float round-trips its bits
        assert json.dumps(got, sort_keys=True) == json.dumps(want, sort_keys=True)

    def test_negative_count_refused(self):
        with pytest.raises(ValueError, match="count must not be negative"):
            random_competitors(np.zeros((2, 2, 2)), np.zeros((2, 2, 2)), A_E1, count=-5)

    def test_one_bad_box_refuses_the_batch(self):
        L = tensor_with_slice(np.eye(2))
        with pytest.raises(ValueError, match="compactly contained"):
            trace_formula.inclusion_energies(L, np.zeros((2, 2, 2)), A_E1,
                                             [[0.0, 0.0], [0.4, 0.0]], [[0.1, 0.1], [0.1, 0.1]])
        with pytest.raises(ValueError, match="unit vector"):
            trace_formula.inclusion_energies(L, np.zeros((2, 2, 2)), 2 * A_E1,
                                             [[0.0, 0.0]], [[0.1, 0.1]])


class TestMembership:
    def test_distinct_positive(self):
        assert is_in_S(np.diag([1.0, 2.0]))

    def test_repeated_eigenvalue(self):
        assert not is_in_S(np.eye(2))

    def test_zero_trace(self):
        assert not is_in_S(np.diag([1.0, -1.0]))

    def test_eigen_basis_falls_back_for_complex_spectrum(self):
        rot = np.array([[0.0, -1.0], [1.0, 0.0]])
        assert eigen_basis(rot) is None


def closed_form_bulk(sd2) -> tuple[float, float]:
    """The ``bulk2`` bracket of the trace-formula assembly, a = e1."""
    rep = assemble_relaxed_energy(sd2, example_triple(A_E1),
                                  AssembleConfig(w2_estimator="trace-formula"))
    return rep.bulk2.upper, rep.bulk2.lower


class TestBulkIntegral:
    def make_sd2(self, delta_field_tensor, res=2):
        dom = BoxDomain([0, 0], [1, 1], [res, res])
        centers = dom.cell_centers()
        G_lin = np.broadcast_to(delta_field_tensor, dom.cells_shape + delta_field_tensor.shape).copy()
        G_const = np.einsum("vwk,...k->...vw", delta_field_tensor, centers)
        G = PiecewiseAffineField(dom, G_const, G_lin)
        g = PiecewiseAffineField(dom, np.zeros(dom.cells_shape + (2,)))
        Gamma = np.zeros(dom.cells_shape + (2, 2, 2))
        return SD2Triple(g, G, Gamma)

    def test_matching_gamma_gives_zero(self):
        T = np.zeros((2, 2, 2))
        T[0, 0, 0] = 1.0
        sd2 = self.make_sd2(T)
        sd2 = SD2Triple(sd2.g, sd2.G, sd2.G.lin.copy())
        assert closed_form_bulk(sd2) == (0.0, 0.0)

    def test_constant_trace_two(self):
        # field-layout tensor with trace contraction sum = 2 for a = e1
        P = np.zeros((2, 2, 2))
        P[0, 0, 0] = 1.0   # i=0, col=0, deriv=0
        P[1, 0, 1] = 1.0   # i=1, col=0, deriv=1
        sd2 = self.make_sd2(P)
        assert closed_form_bulk(sd2) == pytest.approx((2.0, 2.0), abs=1e-14)

    def test_two_half_domains_average(self):
        P = np.zeros((2, 2, 2))
        P[0, 0, 0] = 1.0
        P[1, 0, 1] = 1.0
        dom = BoxDomain([0, 0], [1, 1], [2, 2])
        G_lin = np.broadcast_to(P, dom.cells_shape + P.shape).copy()
        G_lin[1, :, :, :, :] = 0.0   # right half: gradient zero
        centers = dom.cell_centers()
        G_const = np.einsum("vwk,...k->...vw", P, centers)
        G = PiecewiseAffineField(dom, G_const, G_lin)
        g = PiecewiseAffineField(dom, np.zeros(dom.cells_shape + (2,)))
        sd2 = SD2Triple(g, G, np.zeros(dom.cells_shape + (2, 2, 2)))
        assert closed_form_bulk(sd2) == pytest.approx((1.0, 1.0), abs=1e-14)


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_closed_form_continuity_property(seed):
    rng = np.random.default_rng(seed)
    L = rng.standard_normal((2, 2, 2))
    M1 = rng.standard_normal((2, 2, 2))
    M2 = M1 + 1e-3 * rng.standard_normal((2, 2, 2))
    diff = abs(closed_form_W2(L, M1, A_E1) - closed_form_W2(L, M2, A_E1))
    assert diff <= np.sqrt(2.0) * np.linalg.norm(M1 - M2) + 1e-12
