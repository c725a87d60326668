import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_loops as ref

from sdrelax.densities import (
    BulkDensity,
    DensityTriple,
    bulk_norm,
    bulk_zero,
    catalog,
    example_triple,
    extend_homogeneous,
    norm_triple,
    psi1_norm,
    psi1_weighted,
    psi2_norm,
    psi2_proj,
    recession,
    triple_from_expressions,
)


class TestRecession:
    def test_norm_plus_bulk_slope(self):
        # W = |A| + |M|: the quotient tends to |M| of the direction
        W = bulk_norm()
        A = np.ones((2, 2))
        M = np.zeros((2, 2, 2))
        M[0, 0, 0] = 1.0
        res = recession(W, np.zeros(2), A, M)
        assert res.shape == ()
        assert float(res) == pytest.approx(1.0, abs=1e-12)

    def test_zero_density(self):
        res = recession(bulk_zero(), np.zeros(2), np.zeros((2, 2)), np.ones((2, 2, 2)))
        assert float(res) == 0.0

    def test_sublinear_term_at_1e4(self):
        # W = |M| + sqrt(1 + |M|): quotient at t = 1e4 within 2e-2 of 1
        def fn(x, A, M):
            m = np.sqrt(np.sum(np.asarray(M) ** 2, axis=(-3, -2, -1)))
            return m + np.sqrt(1.0 + m)

        W = BulkDensity("sqrt_growth", fn, constants={"H4.alpha": 0.5, "H4": 1.01, "H4.L": 1.0})
        M = np.ones((2, 2, 2)) / math.sqrt(8.0)
        res = recession(W, np.zeros(2), np.zeros((2, 2)), M, schedule=[1e2, 1e3, 1e4])
        assert abs(float(res) - 1.0) < 2e-2

    def test_norm_density_large_schedules(self):
        # exact |M| for every schedule ending past 1e3, within 1e-2
        W = bulk_norm()
        W_numeric = BulkDensity(W.name, W.fn, constants=W.constants, coercive=True,
                                recession_closed_form=None)
        M = np.ones((1, 2, 2)) * 0.7
        for schedule in ([10.0, 100.0, 1e3], [50.0, 1e3, 1e5], [2.0**7, 2.0**12, 2.0**17]):
            res = recession(W_numeric, np.zeros(2), np.zeros((1, 2)), M, schedule=schedule)
            expected = float(np.sqrt(np.sum(M * M)))
            assert float(res) == pytest.approx(expected, abs=1e-2)

    def test_short_schedule_rejected(self):
        with pytest.raises(ValueError):
            recession(bulk_norm(), np.zeros(2), np.zeros((2, 2)), np.ones((2, 2, 2)),
                      schedule=[10.0, 100.0])

    def test_zero_direction(self):
        res = recession(bulk_norm(), np.zeros(2), np.ones((2, 2)), np.zeros((2, 2, 2)))
        assert float(res) == 0.0


def _without_closed_form(W: BulkDensity) -> BulkDensity:
    return BulkDensity(W.name, W.fn, constants=W.constants, recession_closed_form=None)


RECESSION_DENSITIES = {
    "W_norm": lambda d, N: bulk_norm(d=d, N=N),
    "W_norm numeric": lambda d, N: _without_closed_form(bulk_norm(d=d, N=N)),
    "W_zero": lambda d, N: bulk_zero(d=d, N=N),
    "dot": lambda d, N: triple_from_expressions(
        "norm(dot(M, x)) + norm(A)*(x[0] - 1)", "norm(lam)", "norm(Lam)").W,
}


@st.composite
def recession_batches(draw):
    """A density, a schedule, (x, A, M) for batch shape () or (n,), some M rows zero."""
    d, N = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    W = RECESSION_DENSITIES[draw(st.sampled_from(sorted(RECESSION_DENSITIES)))](d, N)
    schedule = draw(st.sampled_from([None, (3.0, 30.0, 300.0)]))
    batch = draw(st.sampled_from([(), (draw(st.integers(1, 6)),)]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    scale = 10.0 ** rng.uniform(-3.0, 3.0, batch + (1, 1, 1))
    M = scale * rng.standard_normal(batch + (d, N, N))
    M[rng.random(batch) < 0.3] = 0.0
    return W, schedule, rng.uniform(0.0, 1.0, batch + (N,)), rng.standard_normal(batch + (d, N)), M


@settings(max_examples=200, deadline=None)
@given(recession_batches())
def test_batched_recession_matches_per_point_reference(case):
    W, schedule, x, A, M = case
    got = recession(W, x, A, M, schedule)
    assert isinstance(got, np.ndarray) and got.shape == M.shape[:-3]
    for i in np.ndindex(got.shape):
        assert got[i] == ref.recession(W, x[i], A[i], M[i], schedule)


class TestExtendHomogeneous:
    def test_zero_direction_gives_zero(self):
        psi = psi1_norm()
        assert extend_homogeneous(psi, np.zeros(2), np.ones(2), np.zeros(2)) == 0.0

    def test_scaled_direction(self):
        psi = psi1_norm()
        val = extend_homogeneous(psi, np.zeros(2), np.array([1.0, 0.0]), np.array([2.0, 0.0]))
        assert val == pytest.approx(2.0, abs=1e-15)

    def test_projected_density_scaling(self):
        a = np.array([1.0, 0.0])
        psi = psi2_proj(a)
        nu0 = np.array([1.0, 0.0])
        J = np.array([[2.0, 0.0], [0.0, 1.0]])
        base = float(psi(np.zeros(2), J, nu0))
        val = extend_homogeneous(psi, np.zeros(2), J, 3.0 * nu0)
        assert val == pytest.approx(3.0 * base, abs=1e-14)

    @settings(max_examples=50, deadline=None)
    @given(st.floats(min_value=0.01, max_value=100.0))
    def test_degree_one_scaling_property(self, t):
        psi = psi2_norm()
        theta = np.array([0.3, -0.4])
        p = np.array([[1.0, 2.0], [0.0, 1.0]])
        a = extend_homogeneous(psi, np.zeros(2), p, t * theta)
        b = t * extend_homogeneous(psi, np.zeros(2), p, theta)
        assert a == pytest.approx(b, rel=1e-12)


class TestCatalog:
    def test_six_entries_present(self):
        for name in ("W_norm", "W_zero", "Psi1_norm", "Psi1_weighted", "Psi2_norm", "Psi2_proj"):
            entry = catalog(name)
            assert entry.name == name

    def test_weighted_bounds(self):
        psi = psi1_weighted()
        lam = np.array([1.0, 0.0])
        nu = np.array([1.0, 0.0])
        hi = float(psi(np.zeros(2), lam, nu))
        lo = float(psi(np.array([1.0, 0.0]), lam, nu))
        assert hi == pytest.approx(2.0, abs=1e-15)
        assert lo == pytest.approx(0.5, abs=1e-15)

    def test_proj_tangential_blindness(self):
        a = np.array([1.0, 0.0])
        psi = psi2_proj(a)
        nu = np.array([1.0, 0.0])
        tangential = np.outer(np.array([0.0, 1.0]), a)
        assert float(psi(np.zeros(2), tangential, nu)) == 0.0
        assert not psi.coercive

    def test_proj_requires_unit_vector(self):
        with pytest.raises(ValueError):
            psi2_proj(np.array([2.0, 0.0]))

    def test_norm_triple_shapes(self):
        t = norm_triple()
        assert t.coercive_interfacial
        assert t.names()["W"] == "W_norm"

    def test_example_triple_flags(self):
        t = example_triple(np.array([1.0, 0.0]))
        assert not t.W.coercive
        assert not t.psi2.coercive
        assert t.psi2.params["a"] == [1.0, 0.0]

    def test_unknown_name(self):
        with pytest.raises(KeyError):
            catalog("W_unknown")

    @pytest.mark.parametrize("name", ["W_norm", "Psi1_norm"])
    def test_unknown_params_rejected(self, name):
        with pytest.raises(ValueError, match="bogus"):
            catalog(name, bogus=1.0)

    def test_declared_params_accepted(self):
        assert catalog("W_norm", probe_range=5.0, t_min=4.0).name == "W_norm"
        assert catalog("Psi2_proj", a=[0.0, 1.0]).params["a"] == [0.0, 1.0]


def test_proj_facet_integral_matches_quadrature():
    a = np.array([1.0, 0.0])
    psi = psi2_proj(a)
    rng = np.random.default_rng(3)
    nu = np.array([1.0, 0.0])
    jump = rng.standard_normal((2, 2))
    jump_lin = np.zeros((2, 2, 2))
    jump_lin[..., 1] = rng.standard_normal((2, 2))
    widths = np.array([0.5])
    exact = psi.facet_integral(np.zeros(2), jump, jump_lin, nu, widths, [1])
    pts = np.linspace(-0.25, 0.25, 20001)
    vals = [abs(nu @ ((jump + jump_lin[..., 1] * t) @ a)) for t in pts]
    approx = np.trapezoid(vals, pts)
    assert exact == pytest.approx(float(approx), rel=1e-6)
