import numpy as np
import pytest

from sdrelax.integrate import (
    PiecewisePoly,
    box_abs_affine,
    fsum,
    gauss_legendre_points,
)


def mc_abs_affine(const, grad, widths, n=400_000, seed=0):
    """Monte Carlo oracle for the exact integrator."""
    rng = np.random.default_rng(seed)
    grad = np.atleast_1d(np.asarray(grad, dtype=float))
    widths = np.atleast_1d(np.asarray(widths, dtype=float))
    pts = rng.uniform(-widths / 2, widths / 2, size=(n, len(widths)))
    return float(np.mean(np.abs(const + pts @ grad))) * float(np.prod(widths))


def test_abs_affine_1d_closed_forms():
    assert box_abs_affine(0.0, [1.0], [1.0]) == pytest.approx(0.25, abs=1e-15)
    # no sign change: just |const| * volume
    assert box_abs_affine(2.0, [1.0], [1.0]) == pytest.approx(2.0, abs=1e-15)
    assert box_abs_affine(-3.0, [0.5], [2.0]) == pytest.approx(6.0, abs=1e-14)


def test_abs_affine_2d_known_value():
    # integral of |y1 + y2| over the centered unit square = 1/3
    assert box_abs_affine(0.0, [1.0, 1.0], [1.0, 1.0]) == pytest.approx(1 / 3, abs=1e-15)


@pytest.mark.parametrize("dim", [1, 2, 3, 4])
def test_abs_affine_matches_monte_carlo(dim):
    rng = np.random.default_rng(dim)
    const = float(rng.uniform(-1, 1))
    grad = rng.uniform(-2, 2, dim)
    widths = rng.uniform(0.5, 2.0, dim)
    exact = box_abs_affine(const, grad, widths)
    approx = mc_abs_affine(const, grad, widths, seed=dim + 10)
    assert exact == pytest.approx(approx, rel=5e-3)


def test_abs_affine_zero_slope_axes():
    v = box_abs_affine(1.5, [0.0, 0.0], [2.0, 3.0])
    assert v == pytest.approx(1.5 * 6.0, abs=1e-14)


def test_piecewise_poly_antiderivative_continuity():
    pp = PiecewisePoly.abs()
    F = pp.antiderivative()
    assert F(0.0) == pytest.approx(F(-1e-12), abs=1e-11)
    assert F(2.0) - F(1.0) == pytest.approx(1.5, abs=1e-14)  # integral of s on [1,2]


def test_gauss_legendre_exact_for_cubics():
    pts, wts = gauss_legendre_points([-1.0], [2.0], 2)
    val = float(np.sum(wts * pts[:, 0] ** 3))
    assert val == pytest.approx((2.0**4 - 1.0) / 4.0, abs=1e-12)


def test_fsum_is_order_stable():
    values = [0.1] * 10 + [1e16, -1e16]
    assert fsum(values) == pytest.approx(1.0, abs=1e-15)
