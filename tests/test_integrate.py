import itertools
import math
import os
import re
import subprocess
import sys
import warnings
from fractions import Fraction

import numpy as np
import pytest

import reference_loops as ref
import sdrelax.integrate
from reference_loops import PiecewisePoly, gauss_legendre_points
from sdrelax.integrate import _L1_BLOCK_CELLS, box_abs_affine, fsum


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


@pytest.mark.parametrize("args, exact", [
    ((1e200, [1e200], [1.0]), 1e200),
    ((0.0, [1e200], [1.0]), 2.5e199),
    ((0.0, [1e160, 1e160], [1.0, 1.0]), 1e160 / 3),
    ((0.0, [1e-200], [1.0]), 2.5e-201),
], ids=["huge-const", "huge-slope", "huge-2d", "tiny-slope"])
def test_abs_affine_extreme_magnitudes(args, exact):
    # the integral is 1-homogeneous in (const, grad): no overflow, no underflow
    assert box_abs_affine(*args) == pytest.approx(exact, rel=1e-13, abs=0.0)


def test_abs_affine_nan_stays_nan():
    assert np.isnan(box_abs_affine(np.nan, [1.0], [1.0]))
    assert np.isnan(box_abs_affine(1.0, [np.nan, 1.0], [1.0, 1.0]))
    assert np.all(np.isnan(box_abs_affine(np.array([np.nan, 1.0]), np.array([[1.0], [np.nan]]), [1.0])))


def exact_abs_affine(const, grad, widths) -> Fraction:
    """The recursion of ``box_abs_affine`` in exact rational arithmetic.

    Integrating ``p(s + g t)`` over ``t`` in ``[-w/2, w/2]`` gives ``(P(s + g w/2)
    - P(s - g w/2)) / g``, with ``P`` an antiderivative of ``p``; starting from
    ``|s|``, whose m-th antiderivative is ``s^m |s| / (m + 1)!``, the m sloped
    axes give a signed sum over the 2^m corners.
    """
    factor, sloped = Fraction(1), []
    for g, w in zip(grad, widths):
        if g == 0.0:
            factor *= Fraction(w)
        else:
            sloped.append((Fraction(g), Fraction(w)))
    m = len(sloped)
    total = Fraction(0)
    for signs in itertools.product((1, -1), repeat=m):
        s = Fraction(const) + sum(e * g * w / 2 for e, (g, w) in zip(signs, sloped))
        total += math.prod(signs) * s ** m * abs(s) / math.factorial(m + 1)
    return factor * total / math.prod(g for g, _ in sloped)


@pytest.mark.parametrize("const, grad, widths", [
    (1.0, [1e-200, 1e-200], [1.0, 1.0]),
    (-3.0, [1e-150, 2e-150, 1e-160], [1.0, 0.5, 2.0]),
    (1e-300, [1e-310, 0.0], [1.0, 1.0]),
])
def test_tiny_slopes_off_the_zero_set_do_not_overflow(const, grad, widths):
    # the piecewise polynomial's coefficients grow as 1 / prod g_k; a box off
    # the zero set is vol |const| without it
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        value = box_abs_affine(const, grad, widths)
    assert value == float(exact_abs_affine(const, grad, widths)) == math.prod(widths) * abs(const)


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_box_off_the_zero_set_matches_the_exact_value(k):
    # the rows that take the vol |const| path, against the rational recursion
    rng = np.random.default_rng(40 + k)
    grad = rng.standard_normal((60, k)) * 10.0 ** rng.integers(-5, 5, (60, k))
    grad[rng.random((60, k)) < 0.2] = 0.0
    widths = rng.uniform(0.5, 2.0, (60, k))
    reach = np.sum(np.abs(grad) * widths, axis=1) / 2.0
    const = rng.choice([-1.0, 1.0], 60) * reach * rng.choice([1.0, 1.5, 10.0], 60)
    got = box_abs_affine(const, grad, widths)
    for value, c, g, w in zip(got, const, grad, widths):
        exact = float(exact_abs_affine(c, g, w))
        assert value == pytest.approx(exact, rel=4 * np.finfo(float).eps, abs=0.0)


def _small_after_large_rows(k, n, seed):
    """Seeded rows whose first axis has a large slope and the others slopes
    10^-3 to 10^-17 times smaller, with boxes straddling the zero set."""
    rng = np.random.default_rng(seed)
    grad = rng.choice([-1.0, 1.0], (n, k)) * rng.uniform(0.5, 2.0, (n, k))
    grad[:, 1:] *= 10.0 ** -rng.integers(3, 18, (n, k - 1))
    widths = rng.uniform(0.5, 2.0, (n, k))
    const = rng.uniform(-0.4, 0.4, n) * np.abs(grad[:, 0]) * widths[:, 0]
    return const, grad, widths


@pytest.mark.parametrize("const, grad, widths", [
    (0.1, [1.0, 1e-17], [1.0, 1.0]),
    (0.1, [1.0, 1e-14], [1.0, 1.0]),
    *zip(*_small_after_large_rows(2, 20, seed=2)),
    *zip(*_small_after_large_rows(3, 20, seed=3)),
])
def test_small_slope_after_a_large_one_keeps_its_digits(const, grad, widths):
    # integrated after the large slope, the small one cancelled in
    # (F(s + d) - F(s - d)) / g: 0.01 and 0.25951171875 for the first two rows,
    # relative errors up to 0.8 on the seeded ones; taken smallest first, the
    # worst seeded row (slopes 1, 1e-3, 1e-14) is off by 4e-13
    exact = exact_abs_affine(const, grad, widths)
    assert box_abs_affine(const, grad, widths) == pytest.approx(float(exact), rel=1e-12, abs=0.0)
    assert ref.box_abs_affine(const, grad, widths) == box_abs_affine(const, grad, widths)


def _reference_rows(k, n, seed):
    """Seeded rows: zero, negative, tiny and coincident slopes; consts on breaks."""
    rng = np.random.default_rng(seed)
    const = rng.standard_normal(n) * np.exp(rng.uniform(-3.0, 3.0, n))
    grad = rng.standard_normal((n, k)) * np.exp(rng.uniform(-3.0, 3.0, (n, k)))
    kind = rng.integers(0, 6, (n, k))
    grad[kind == 0] = 0.0
    grad[kind == 1] *= 1e-12
    # small integer slopes on dyadic widths make breaks coincide
    grad[kind == 2] = rng.integers(-3, 4, np.count_nonzero(kind == 2))
    widths = 2.0 ** -rng.integers(0, 4, (n, k)) * np.where(kind == 2, 1.0, rng.uniform(0.5, 1.5, (n, k)))
    # each break is (0 -+ d_1) -+ d_2 ... over the sloped axes, d_k = g_k w_k / 2
    on_break = rng.random(n) < 0.25
    signs = rng.choice([-1.0, 1.0], (n, k))
    breaks = np.zeros(n)
    for j in range(k):
        breaks = breaks + signs[:, j] * (grad[:, j] * widths[:, j] / 2.0)
    const[on_break] = breaks[on_break]
    const[rng.random(n) < 0.05] = 0.0
    return const, grad, widths


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_batch_matches_per_cell_reference_bitwise(k):
    const, grad, widths = _reference_rows(k, 240, seed=k)
    straddles = np.abs(const) < np.sum(np.abs(grad) * widths, axis=1) / 2.0
    assert straddles.any() and not straddles.all()
    want = np.array([ref.box_abs_affine(c, g, w) for c, g, w in zip(const, grad, widths)])
    assert box_abs_affine(const, grad, widths).tobytes() == want.tobytes()
    shared = widths[0]
    want = np.array([ref.box_abs_affine(c, g, shared) for c, g in zip(const, grad)])
    assert box_abs_affine(const, grad, shared).tobytes() == want.tobytes()
    assert box_abs_affine(float(const[0]), grad[0], shared) == want[0]


def _oracle_rows(k, n=400, seed=0):
    """Rows with moderate slopes, some zero, whose box may straddle the zero set."""
    rng = np.random.default_rng(seed + k)
    grad = rng.choice([-1.0, 1.0], (n, k)) * rng.uniform(0.5, 2.0, (n, k))
    grad[rng.random((n, k)) < 0.2] = 0.0
    widths = rng.uniform(0.5, 2.0, (n, k))
    reach = np.sum(np.abs(grad) * widths, axis=1) / 2.0
    const = rng.uniform(-1.2, 1.2, n) * reach + rng.uniform(-0.1, 0.1, n)
    return const, grad, widths


@pytest.mark.parametrize("k", [1, 2, 3, 4])
class TestIdentityOracles:
    def test_split_box_sums_the_halves(self, k):
        const, grad, widths = _oracle_rows(k)
        whole = box_abs_affine(const, grad, widths)
        for a in range(k):
            half = widths.copy()
            half[:, a] /= 2.0
            shift = grad[:, a] * widths[:, a] / 4.0
            parts = box_abs_affine(const - shift, grad, half) + box_abs_affine(const + shift, grad, half)
            np.testing.assert_allclose(parts, whole, rtol=1e-13, atol=0.0)

    def test_flipping_an_axis_keeps_the_value(self, k):
        const, grad, widths = _oracle_rows(k)
        whole = box_abs_affine(const, grad, widths)
        for a in range(k):
            flipped = grad.copy()
            flipped[:, a] *= -1.0
            np.testing.assert_allclose(box_abs_affine(const, flipped, widths), whole, rtol=1e-13, atol=0.0)

    def test_permuting_the_axes_keeps_the_value(self, k):
        const, grad, widths = _oracle_rows(k)
        whole = box_abs_affine(const, grad, widths)
        rng = np.random.default_rng(k)
        for _ in range(4):
            perm = rng.permutation(k)
            np.testing.assert_allclose(box_abs_affine(const, grad[:, perm], widths[:, perm]), whole,
                                       rtol=1e-13, atol=0.0)

    def test_box_off_the_zero_set_is_volume_times_const(self, k):
        const, grad, widths = _oracle_rows(k)
        reach = np.sum(np.abs(grad) * widths, axis=1) / 2.0
        const = np.where(const < 0.0, -1.0, 1.0) * (reach + np.abs(const))
        np.testing.assert_allclose(box_abs_affine(const, grad, widths),
                                   np.prod(widths, axis=1) * np.abs(const), rtol=1e-13, atol=0.0)


def test_batch_does_not_import_numpy_ma():
    # rows with 0, 1 and 2 sloped axes; np.unique would import numpy.ma (~16 ms)
    code = (
        "import sys\n"
        "import numpy as np\n"
        "from sdrelax.integrate import box_abs_affine\n"
        "box_abs_affine(np.array([0.1, 0.2, 0.3, 0.4]),\n"
        "               np.array([[1.0, 0.0], [1.0, 2.0], [0.0, 0.0], [0.0, -1.0]]), np.ones(2))\n"
        "sys.exit('numpy.ma' in sys.modules)\n"
    )
    src = os.path.dirname(os.path.dirname(sdrelax.integrate.__file__))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=src), timeout=60)
    assert proc.returncode == 0, proc.stderr or "numpy.ma was imported"


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


@pytest.mark.parametrize("length", [0, 1, _L1_BLOCK_CELLS - 1, _L1_BLOCK_CELLS, _L1_BLOCK_CELLS + 1,
                                    3 * _L1_BLOCK_CELLS + 7])
def test_streamed_fsum_matches_one_list(length):
    # fsum hands math.fsum one chunk at a time; the exact sum keeps its bits,
    # with cancellation between chunks and magnitudes from 1e-300 to 1e300
    rng = np.random.default_rng(length)
    values = rng.standard_normal(length) * 10.0 ** rng.integers(-300, 301, length)
    values[length // 2:] = -values[:length - length // 2][::-1] * (1.0 + rng.integers(0, 2, length - length // 2))
    for array in (values, values.reshape(1, -1), values.tolist()):
        assert math.fsum(np.ravel(values).tolist()).hex() == fsum(array).hex()


@pytest.mark.parametrize("at", [0, _L1_BLOCK_CELLS - 1, _L1_BLOCK_CELLS])
def test_streamed_fsum_raises_as_math_fsum(at):
    values = np.ones(2 * _L1_BLOCK_CELLS)
    for first, second in ((np.inf, -np.inf), (1.5e308, 1.5e308)):
        values[at], values[-1] = first, second
        with pytest.raises((ValueError, OverflowError)) as expected:
            math.fsum(values.tolist())
        with pytest.raises(expected.type, match=re.escape(str(expected.value))):
            fsum(values)
