"""The facet table (jump sets and outer faces) and the batched L1 against
the loops they replaced.

Every comparison is bitwise: the array code must reproduce the per-facet,
per-face and per-cell reference loops in ``reference_loops.py`` exactly.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_loops as ref
from sdrelax import energy
from sdrelax.cellformulas import rotation_to_last_axis
from sdrelax.constructions import SD2Triple, approximating_sequence
from sdrelax.densities import BulkDensity, DensityTriple, InterfacialDensity, psi2_proj
from sdrelax.energy import total_energy
from sdrelax.integrate import norm
from sdrelax.fields import (
    AffineBoundary,
    BoxDomain,
    FacetTable,
    PiecewiseAffineField,
    SecondOrderField,
    StepBoundary,
    _L1_BLOCK_CELLS,
    _l1_of_cell_data,
    gauss_green_residual,
    trace_boundary,
    unit_cube,
)

COLUMNS = ("normal", "jump", "jump_lin", "centroid", "trace_mean")


def interfacial_energy(psi, facets, widths, x0=None, R=None):
    """A facet table's interfacial energy, the exact sum of the energy
    module's terms, and its count of centroid-only facets; a cell problem's
    frozen point ``x0`` and rotation ``R`` stand for every row."""
    x = None if x0 is None else np.broadcast_to(x0, (len(facets), len(x0)))
    rotations = None if R is None else np.broadcast_to(R, (len(facets),) + R.shape)
    terms, inexact = energy._interfacial_terms(psi, facets, widths, x, rotations)
    return energy.fsum(terms), int(np.count_nonzero(inexact))


@st.composite
def fields(draw, value_shape=None):
    """Random piecewise-affine fields on 1-D to 3-D grids.

    Covers axes of resolution 1, value shapes (), (d,) and (d, N), fields
    without jumps, and affine and step boundary data.
    """
    N = draw(st.integers(1, 3))
    res = [draw(st.integers(1, 3)) for _ in range(N)]
    if value_shape is None:
        d = draw(st.integers(1, 3))
        value_shape = draw(st.sampled_from([(), (d,), (d, N)]))
    elif value_shape == "square":
        value_shape = (N, N)
    kind = draw(st.sampled_from(["random", "affine", "steps", "zero"]))
    boundary = draw(st.sampled_from(["none", "affine", "matching", "step"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))

    lower = rng.uniform(-1.0, 0.0, N)
    dom = BoxDomain(lower, lower + rng.uniform(0.5, 2.0, N), res)
    cells = dom.cells_shape
    A = rng.standard_normal(value_shape + (N,))
    c0 = rng.standard_normal(value_shape)
    if kind == "random":
        const = rng.standard_normal(cells + value_shape)
        lin = rng.standard_normal(cells + value_shape + (N,))
    elif kind == "affine":
        const = c0 + np.einsum("...k,ck->c...", A, dom.cell_centers().reshape(-1, N)).reshape(
            cells + value_shape)
        lin = np.broadcast_to(A, cells + A.shape).copy()
    elif kind == "steps":
        const = rng.integers(0, 2, cells + value_shape).astype(float)
        lin = np.zeros(cells + value_shape + (N,))
    else:
        const = np.zeros(cells + value_shape)
        lin = np.zeros(cells + value_shape + (N,))

    if boundary == "affine":
        data = AffineBoundary(rng.standard_normal(value_shape), rng.standard_normal(value_shape + (N,)))
    elif boundary == "matching":  # the trace of an affine or zero field: no boundary jumps
        data = AffineBoundary(c0, A) if kind == "affine" else \
            AffineBoundary(np.zeros(value_shape), np.zeros(value_shape + (N,)))
    elif boundary == "step":
        payload = rng.integers(0, 2, value_shape).astype(float)
        axis = int(rng.integers(0, N))
        data = StepBoundary(payload, axis, float(dom.lower[axis] + rng.uniform(0.0, 1.0)))
    else:
        data = None
    return PiecewiseAffineField(dom, const, lin, boundary_data=data)


def _generic_fn(x, lam=None, Lam=None, nu=None):
    payload = lam if Lam is None else Lam
    flat = payload.reshape(payload.shape[0], -1)
    return np.sqrt(np.sum(flat * flat, axis=1)) * (1.0 + 0.25 * np.sin(x[:, 0])) + 0.5 * np.abs(nu[:, -1])


def generic_psi(kind: int) -> InterfacialDensity:
    return InterfacialDensity(f"generic{kind}", kind, _generic_fn)


def generic_triple(psi2=None) -> DensityTriple:
    def W(x, A, M):
        a = A.reshape(A.shape[0], -1)
        m = M.reshape(M.shape[0], -1)
        return np.sqrt(np.sum(a * a, axis=1)) + np.sum(np.abs(m), axis=1)

    return DensityTriple(BulkDensity("W", W), generic_psi(1), psi2 or generic_psi(2))


def assert_rows_equal(table: FacetTable, rows: list):
    assert len(table) == len(rows)
    for new, old in zip(ref.rows(table), rows):
        assert new.axis == old.axis and new.index == old.index and new.boundary == old.boundary
        assert new.area == old.area
        for name in COLUMNS:
            a, b = getattr(new, name), getattr(old, name)
            assert a.shape == b.shape and np.array_equal(a, b, equal_nan=True), name


def unit_vector(rng, N):
    v = rng.standard_normal(N)
    return v / np.linalg.norm(v)


@settings(max_examples=200, deadline=None)
@given(fields())
def test_jump_set_matches_per_facet_builders(u):
    assert_rows_equal(u._build_interior_facets(), ref.interior_facets(u))
    assert_rows_equal(u._build_boundary_facets(), ref.boundary_facets(u))
    assert_rows_equal(u.jump_set(), ref.jump_set(u))
    assert u.jump_set() is u.jump_set()


@settings(max_examples=200, deadline=None)
@given(fields())
def test_boundary_trace_matches_per_face_records(u):
    faces, records = trace_boundary(u), ref.trace_boundary(u)
    assert faces is u.boundary_trace() and len(faces) == len(records)
    dom = u.domain
    for i, rec in enumerate(records):
        assert faces.axis[i] == rec["axis"] and faces.area[i] == rec["area"]
        assert (faces.normal[i, rec["axis"]] > 0) == (rec["side"] == "upper")
        for name, key in (("normal", "normal"), ("centroid", "centroid"),
                          ("minus", "interior"), ("plus", "effective")):
            a, b = getattr(faces, name)[i], rec[key]
            assert a.shape == b.shape and np.array_equal(a, b), name
        # the boundary cell: its center agrees with the centroid off the normal axis
        center = dom.lower + (faces.index[i] + 0.5) * dom.widths
        off = np.arange(dom.ndim) != rec["axis"]
        assert np.array_equal(center[off], faces.centroid[i][off])
        assert faces.index[i, rec["axis"]] == (0 if rec["side"] == "lower" else dom.resolution[rec["axis"]] - 1)
    assert faces.jump_lin.shape == (len(records),) + u.value_shape + (dom.ndim,)
    if u.boundary_data is None:
        assert not np.any(faces.jump_lin)


@settings(max_examples=200, deadline=None)
@given(fields())
def test_boundary_jumps_are_the_outer_faces_that_jump(u):
    faces, jumps = u.boundary_trace(), u.jump_set()
    assert faces.boundary.all()
    expected = FacetTable.empty(u.domain.ndim, u.value_shape)
    if u.boundary_data is not None:
        mag = norm(faces.jump, u.value_ndim) + norm(faces.jump_lin, u.value_ndim + 1)
        expected = faces.select(~(mag <= u.jump_tol))
    got = jumps.select(jumps.boundary)
    for name in FacetTable.__dataclass_fields__:
        a, b = getattr(got, name), getattr(expected, name)
        assert a.shape == b.shape and np.array_equal(a, b), name


@settings(max_examples=200, deadline=None)
@given(fields())
def test_total_jump_mass_matches(u):
    assert ref.total_jump_mass(u) == ref.jump_mass_by_facet(u)


@settings(max_examples=100, deadline=None)
@given(fields())
def test_gauss_green_residual_matches_to_rounding(u):
    new, old = gauss_green_residual(u), ref.gauss_green_residual(u)
    scale = 1.0 + float(np.max(np.abs(u.const))) + float(np.max(np.abs(u.lin)))
    assert new.shape == old.shape
    assert np.max(np.abs(new - old), initial=0.0) <= 1e-12 * scale


@settings(max_examples=200, deadline=None)
@given(fields(), st.integers(0, 2**32 - 1))
def test_interfacial_energy_matches_both_routines(u, seed):
    rng = np.random.default_rng(seed)
    N = u.domain.ndim
    psi = generic_psi(1)
    facets, widths = u.jump_set(), u.domain.widths
    assert interfacial_energy(psi, facets, widths) == ref.interfacial_energy(psi, ref.rows(facets), widths)
    x0 = rng.standard_normal(N)
    R = rotation_to_last_axis(unit_vector(rng, N))
    for rot in (None, R):
        assert interfacial_energy(psi, facets, widths, x0, rot) == ref.facet_energy(psi, u, x0, rot)


@settings(max_examples=60, deadline=None)
@given(fields(value_shape="square"), st.integers(0, 2**32 - 1))
def test_psi2_proj_facet_integral_hook(u, seed):
    rng = np.random.default_rng(seed)
    N = u.domain.ndim
    psi = psi2_proj(unit_vector(rng, N))
    facets, widths = u.jump_set(), u.domain.widths
    assert interfacial_energy(psi, facets, widths) == ref.interfacial_energy(psi, ref.rows(facets), widths)
    x0 = rng.standard_normal(N)
    R = rotation_to_last_axis(unit_vector(rng, N))
    for rot in (None, R):
        assert interfacial_energy(psi, facets, widths, x0, rot) == ref.facet_energy(psi, u, x0, rot)


def _reference_jumps(u, psi1, psi2, cell_ranges):
    facets1 = [f for f in ref.jump_set(u) if ref.in_ranges(f.index, cell_ranges)]
    grad = PiecewiseAffineField(u.domain, u.lin, jump_tol=u.jump_tol)
    facets2 = [f for f in ref.jump_set(grad) if ref.in_ranges(f.index, cell_ranges)]
    jump1, inexact1 = ref.interfacial_energy(psi1, facets1, u.domain.widths)
    jump2, inexact2 = ref.interfacial_energy(psi2, facets2, u.domain.widths)
    return jump1, jump2, inexact1 + inexact2


@settings(max_examples=150, deadline=None)
@given(fields(), st.integers(0, 2**32 - 1), st.booleans())
def test_total_energy_on_sub_boxes(u, seed, proj):
    rng = np.random.default_rng(seed)
    N = u.domain.ndim
    psi2 = psi2_proj(unit_vector(rng, N)) if proj and u.value_shape == (N,) else None
    triple = generic_triple(psi2)
    ranges = []
    for r in u.domain.cells_shape:
        lo = int(rng.integers(0, r))
        ranges.append((lo, int(rng.integers(lo + 1, r + 1))))
    for cell_ranges in (None, tuple(ranges)):
        out = total_energy(u, triple, cell_ranges)
        full = tuple((0, r) for r in u.domain.cells_shape)
        jump1, jump2, inexact = _reference_jumps(u, triple.psi1, triple.psi2, cell_ranges or full)
        assert (out.jump1, out.jump2, out.quadrature["inexact_facets"]) == (jump1, jump2, inexact)


# grids of more than one block of interior facets per axis at _FACET_BLOCK = 10,
# the last block of each axis partial
BLOCK_GRIDS = {1: [26], 2: [8, 4], 3: [6, 2, 2]}


def _second_order_field(dom, rng):
    """A seeded pair (u, grad) with jumping, affinely varying gradient data
    and boundary data for u."""
    N = dom.ndim
    C = rng.standard_normal(dom.cells_shape + (N, N))
    u = PiecewiseAffineField(dom, rng.standard_normal(dom.cells_shape + (N,)), C,
                             boundary_data=AffineBoundary(rng.standard_normal(N),
                                                          rng.standard_normal((N, N))))
    grad = PiecewiseAffineField(dom, C, rng.standard_normal(dom.cells_shape + (N, N, N)))
    return SecondOrderField(u, grad)


@pytest.mark.parametrize("proj", [False, True])
@pytest.mark.parametrize("N", [1, 2, 3])
def test_total_energy_prices_the_jump_set_term_by_term(N, proj, monkeypatch):
    monkeypatch.setattr("sdrelax.fields._FACET_BLOCK", 10)
    rng = np.random.default_rng([N, proj])
    dom = BoxDomain(np.zeros(N), np.linspace(1.3, 0.7, N), BLOCK_GRIDS[N])
    blocks = dom.interior_blocks()
    for m in range(N):
        sizes = [rows.stop - rows.start for axis, rows, _, _ in blocks if axis == m]
        assert len(sizes) > 1 and sizes[-1] < sizes[0] <= 10
    pair = _second_order_field(dom, rng)
    triple = generic_triple(psi2_proj(unit_vector(rng, N)) if proj else None)
    recorded = []
    exact = energy.fsum

    def recording_fsum(values):
        recorded.append(np.asarray(values, dtype=float).ravel())
        return exact(values)

    monkeypatch.setattr(energy, "fsum", recording_fsum)
    sub = tuple((1, r - 1) if r > 2 else (0, r) for r in dom.cells_shape)
    runs = []
    for cell_ranges in (None, sub):
        recorded.clear()
        runs.append((cell_ranges, total_energy(pair, triple, cell_ranges), recorded[1:]))
    assert pair.u._jump_cache is None and pair.grad._jump_cache is None
    for cell_ranges, out, streamed in runs:  # streamed: the fsum inputs after the bulk term's
        recorded.clear()
        ranges = cell_ranges or tuple((0, r) for r in dom.cells_shape)
        whole = [interfacial_energy(psi, energy._in_ranges(f.jump_set(), ranges), dom.widths)
                 for psi, f in ((triple.psi1, pair.u), (triple.psi2, pair.grad))]
        assert len(streamed) == len(recorded) == 2
        for new, old in zip(streamed, recorded):
            assert _bits(new) == _bits(old)
        assert (out.jump1, out.jump2) == (whole[0][0], whole[1][0])
        assert out.quadrature["inexact_facets"] == whole[0][1] + whole[1][1]
        if proj and N > 1:  # the facet-integral hook priced some facets of grad
            assert any(pair.grad.jump_set().varies())


def test_total_energy_holds_one_block_of_facets(monkeypatch):
    # 10 x 9 + 11 x 8 interior facets and 42 outer faces, in blocks of at most 50
    monkeypatch.setattr("sdrelax.fields._FACET_BLOCK", 50)
    pair = _second_order_field(BoxDomain([0.0, 0.0], [1.0, 1.0], [11, 9]), np.random.default_rng(3))
    sizes = []

    class Recording(FacetTable):
        def __init__(self, **columns):
            super().__init__(**columns)
            sizes.append(len(self))

    monkeypatch.setattr("sdrelax.fields.FacetTable", Recording)
    total_energy(pair, generic_triple())
    assert sizes and max(sizes) <= 50
    assert pair.u._jump_cache is None and pair.grad._jump_cache is None
    assert len(pair.u.jump_set()) > 50


# grids with a layer of lower cells wider than a block of 7: split along a later axis
WIDE_GRIDS = {2: [3, 25], 3: [2, 2, 25]}


@pytest.mark.parametrize("block", [1, 7, 16384])
def test_facet_blocks_join_to_the_jump_set(block, monkeypatch):
    monkeypatch.setattr("sdrelax.fields._FACET_BLOCK", block)
    grids = [BLOCK_GRIDS[1], BLOCK_GRIDS[2], BLOCK_GRIDS[3], WIDE_GRIDS[2], WIDE_GRIDS[3]]
    for i, res in enumerate(grids):
        N = len(res)
        rng = np.random.default_rng([i, block])
        dom = BoxDomain(np.zeros(N), np.ones(N), res)
        u = _second_order_field(dom, rng).u
        stop = 0  # each block's rows follow the last block's and count its lower cells
        for m, rows, lo, hi in dom.interior_blocks():
            assert rows.start == stop and rows.stop - rows.start == np.zeros(res)[lo].size
            stop = rows.stop
        parts = list(u.facet_blocks())
        assert all(len(p) <= block for p in parts[:-1])
        joined = FacetTable.concat(parts, N, u.value_shape)
        TestCubeGeometry().assert_rows_bitwise(joined, ref.jump_set(u))
        for name in FacetTable.__dataclass_fields__:
            assert _bits(getattr(joined, name)) == _bits(getattr(u.jump_set(), name)), name


def assert_l1_terms_equal(args, ref_args=None):
    """``_l1_of_cell_data`` equals the per-cell loop in its total and in every
    cell's term: the exactly rounded total hides a last-bit change of one cell."""
    ref_args = ref_args or args
    assert _l1_of_cell_data(*args) == ref.l1_of_cell_data(*ref_args)
    terms = lambda values: np.asarray(values, dtype=float).ravel()  # noqa: E731
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr("sdrelax.fields.fsum", terms)
        mp.setattr(ref, "fsum", terms)
        assert _bits(_l1_of_cell_data(*args)) == _bits(ref.l1_of_cell_data(*ref_args))


@settings(max_examples=200, deadline=None)
@given(fields(), st.integers(2, 6))
def test_l1_matches_per_cell_loop(u, quad_order):
    assert_l1_terms_equal((u.domain, u.const, u.lin, u.value_shape, quad_order))


def test_l1_blocks_match_per_cell_loop():
    # more cells than one block, on the grid and value shape of the benchmark
    rng = np.random.default_rng(7)
    dom = BoxDomain([0.0, 0.0], [1.0, 1.0], [80, 80])
    const, const_b = rng.standard_normal((2,) + dom.cells_shape + (2, 2))
    lin, lin_b = rng.standard_normal((2,) + dom.cells_shape + (2, 2, 2))
    assert_l1_terms_equal((dom, const, lin, (2, 2), 6))
    # the pairs of l1_distance: each block of the difference is formed on its own
    assert_l1_terms_equal((dom, (const, const_b), (lin, lin_b), (2, 2), 6),
                          (dom, const - const_b, lin - lin_b, (2, 2), 6))
    # equal linear parts: the cellwise-constant path, also decided block by block
    assert_l1_terms_equal((dom, (const, const_b), (lin, lin.copy()), (2, 2), 6),
                          (dom, const - const_b, np.zeros_like(lin), (2, 2), 6))


def test_scalar_sequence_l1_matches_per_cell_loop():
    # d = 1 in 2D: l1_u runs the batched exact |affine| integral on a 64x64 grid
    rng = np.random.default_rng(11)
    base = BoxDomain([0.0, 0.0], [1.0, 1.0], [4, 4])
    g = PiecewiseAffineField(base, rng.standard_normal((4, 4, 1)), rng.standard_normal((4, 4, 1, 2)))
    G = PiecewiseAffineField(base, rng.standard_normal((4, 4, 1, 2)), rng.standard_normal((4, 4, 1, 2, 2)))
    sd2 = SD2Triple(g, G, rng.standard_normal((4, 4, 1, 2, 2)))
    pair, diag = approximating_sequence(sd2, 8)
    assert list(pair.u.domain.resolution) == [64, 64]
    terms = lambda values: np.asarray(values, dtype=float).ravel()  # noqa: E731
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr("sdrelax.fields.fsum", terms)
        _, cell_terms = approximating_sequence(sd2, 8)
    for key, f, target in (("l1_u", pair.u, sd2.g), ("l1_grad", pair.grad, sd2.G)):
        target = target.refine((16, 16))
        args = (f.domain, f.const - target.const, f.lin - target.lin, f.value_shape, 6)
        assert diag[key] == ref.l1_of_cell_data(*args)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(ref, "fsum", terms)
            assert _bits(cell_terms[key]) == _bits(ref.l1_of_cell_data(*args))


# grids of more cells than one L1 block, the last block partial
L1_GRIDS = {1: [1100], 2: [33, 35], 3: [11, 11, 10]}


@pytest.mark.parametrize("quad_order", [2, 3, 4, 5, 6])
@pytest.mark.parametrize("value_shape", [(2,), (2, 2), (3, 3), (2, 2, 2)])
@pytest.mark.parametrize("N", [1, 2, 3])
def test_l1_kernel_matches_per_cell_loop(N, value_shape, quad_order):
    # (3, 3) and (2, 2, 2) have 8 entries or more, which numpy sums pairwise
    dom = BoxDomain(np.zeros(N), np.linspace(1.3, 0.7, N), L1_GRIDS[N])
    assert dom.num_cells > _L1_BLOCK_CELLS and dom.num_cells % _L1_BLOCK_CELLS
    rng = np.random.default_rng(N * 100 + len(value_shape) * 10 + quad_order)
    const = rng.standard_normal(dom.cells_shape + value_shape)
    lin = rng.standard_normal(dom.cells_shape + value_shape + (N,)) * 10.0 ** rng.integers(
        -3, 4, dom.cells_shape + value_shape + (N,))
    assert_l1_terms_equal((dom, const, lin, value_shape, quad_order))


@pytest.mark.parametrize("points", [36, 216])
def test_vecdot_rounds_as_per_row_dot(points):
    # the L1 kernel weighs a block of cells by one vecdot in place of one dot per cell
    rng = np.random.default_rng(points)
    rows = np.abs(rng.standard_normal((4096, points))) * 10.0 ** rng.integers(-8, 9, (4096, points))
    w = rng.uniform(0.0, 1.0, points)
    out = np.vecdot(rows, w)
    assert np.array_equal(out, [np.dot(row, w) for row in rows])


def _same_refinement(u, factor):
    new, old = u.refine(factor), ref.refine(u, factor)
    assert new.const.shape == old.const.shape and new.lin.shape == old.lin.shape
    assert new.const.tobytes() == old.const.tobytes() and new.lin.tobytes() == old.lin.tobytes()
    assert new.domain.compatible(old.domain) and np.array_equal(new.domain.resolution, old.domain.resolution)
    assert (new.boundary_data, new.jump_tol) == (old.boundary_data, old.jump_tol)


@pytest.mark.parametrize("value_shape", [(), (2,), (2, 2), (3, 3)])
@pytest.mark.parametrize("N", [1, 2, 3])
def test_refine_matches_summed_products(N, value_shape):
    # refine adds the products lin_k * shift_k one axis after the other; its
    # broadcast views and per-axis shifts give the bits of np.repeat and
    # whole-grid centres, on boxes off dyadic bounds and at every magnitude
    rng = np.random.default_rng(N + 7 * len(value_shape))
    for _ in range(20):
        lower = rng.uniform(-1.0, 1.0, N) * 10.0 ** rng.integers(-3, 4)
        dom = BoxDomain(lower, lower + rng.uniform(0.1, 3.0, N), rng.integers(1, 4, N))
        scale = 10.0 ** rng.integers(-8, 9, dom.cells_shape + value_shape)
        u = PiecewiseAffineField(dom, rng.standard_normal(dom.cells_shape + value_shape) * scale,
                                 rng.standard_normal(dom.cells_shape + value_shape + (N,)) * scale[..., None],
                                 jump_tol=float(rng.uniform(1e-13, 1e-11)))
        _same_refinement(u, rng.integers(1, 6, N))


def test_refine_matches_repeat_reference_above_sequential_sum():
    # eight axes: the offset is numpy's pairwise sum of the stacked products
    N = 8
    rng = np.random.default_rng(8)
    dom = BoxDomain(rng.uniform(-1.0, 0.0, N), rng.uniform(0.3, 1.7, N), [1] * N)
    u = PiecewiseAffineField(dom, rng.standard_normal((1,) * N + (2,)),
                             rng.standard_normal((1,) * N + (2, N)))
    # products at axes 0, 4 and 5: numpy adds them as p0 + (p4 + p5), not (p0 + p4) + p5
    _same_refinement(u, [2, 1, 1, 1, 2, 2, 1, 1])


class TestFacetTable:
    def test_rows_and_selection(self):
        dom = BoxDomain([0.0], [1.0], [3])
        u = PiecewiseAffineField(dom, np.array([[0.0], [1.0], [3.0]]),
                                 boundary_data=AffineBoundary(np.zeros(1), np.zeros((1, 1))))
        table = u.jump_set()
        assert len(table) == 3
        assert table.index.tolist() == [[0], [1], [2]]
        assert table.boundary.tolist() == [False, False, True]
        assert table.jump[1] == pytest.approx([2.0])
        assert table.normal[-1] == pytest.approx([1.0])
        sub = table.select(table.boundary)
        assert len(sub) == 1 and sub.jump[0] == pytest.approx([-3.0])
        assert np.array_equal(table.magnitudes(), [1.0, 2.0, 3.0])

    def test_one_sided_traces(self):
        dom = BoxDomain([0.0], [1.0], [3])
        u = PiecewiseAffineField(dom, np.array([[0.0], [1.0], [3.0]]),
                                 boundary_data=AffineBoundary(np.zeros(1), np.zeros((1, 1))))
        table = u.jump_set()
        # interior facets: plus is the upper cell; the boundary facet: plus is the prescribed zero
        assert table.plus[:, 0].tolist() == [1.0, 3.0, 0.0]
        assert table.minus[:, 0].tolist() == [0.0, 1.0, 3.0]
        assert np.array_equal(table.jump, table.plus - table.minus)
        assert np.array_equal(table.trace_mean, 0.5 * (table.plus + table.minus))

    def test_empty_table_shapes(self):
        table = FacetTable.empty(2, (3,))
        assert len(table) == 0 and ref.rows(table) == []
        assert table.jump_lin.shape == (0, 3, 2)
        assert table.plus.shape == table.minus.shape == table.jump.shape == (0, 3)
        assert table.magnitudes().shape == (0,) and table.varies().shape == (0,)

    def test_nan_cells_match_the_reference_facet_choice(self):
        dom = BoxDomain([0.0], [1.0], [2])
        const = np.array([[0.0], [np.nan]])
        u = PiecewiseAffineField(dom, const, boundary_data=AffineBoundary(np.zeros(1), np.zeros((1, 1))))
        assert len(u.jump_set()) == 2  # the interior facet and the upper outer face
        assert_rows_equal(u.jump_set(), ref.jump_set(u))


def _cube_field(dom, rng, value_shape, kind, boundary):
    """A seeded field on ``dom``: random, 0/1 steps without slopes (so most
    facets do not jump), or random with NaN entries."""
    N = dom.ndim
    cells = dom.cells_shape
    if kind == "steps":
        const = rng.integers(0, 2, cells + value_shape).astype(float)
        lin = np.zeros(cells + value_shape + (N,))
    else:
        const = rng.standard_normal(cells + value_shape)
        lin = rng.standard_normal(cells + value_shape + (N,))
    if kind == "nan":
        const.flat[rng.integers(0, const.size)] = np.nan
        lin.flat[rng.integers(0, lin.size)] = np.nan
    if boundary == "affine":
        data = AffineBoundary(rng.standard_normal(value_shape), rng.standard_normal(value_shape + (N,)))
    elif boundary == "step":
        data = StepBoundary(rng.integers(0, 2, value_shape).astype(float), int(rng.integers(0, N)), 0.0)
    else:
        data = None
    return PiecewiseAffineField(dom, const, lin, boundary_data=data)


def _bits(value) -> tuple:
    value = np.ascontiguousarray(value)
    return value.dtype, value.shape, value.tobytes()


class TestCubeGeometry:
    """Fields on a shared cell-problem cube and on a plain grid of the same
    box: every column must equal the per-facet and per-face loops bit for
    bit, in the same row order, and no field may share data with another."""

    def assert_rows_bitwise(self, table, rows):
        assert len(table) == len(rows)
        for new, old in zip(ref.rows(table), rows):
            assert (new.axis, new.index, new.boundary) == (old.axis, old.index, old.boundary)
            assert _bits(new.area) == _bits(old.area)
            for name in COLUMNS:
                assert _bits(getattr(new, name)) == _bits(getattr(old, name)), name

    def assert_trace_bitwise(self, u, faces, records):
        dom = u.domain
        assert len(faces) == len(records)
        for i, rec in enumerate(records):
            assert faces.axis[i] == rec["axis"] and _bits(faces.area[i]) == _bits(rec["area"])
            for name, key in (("normal", "normal"), ("centroid", "centroid"),
                              ("minus", "interior"), ("plus", "effective")):
                assert _bits(getattr(faces, name)[i]) == _bits(rec[key]), name
            side = 0 if rec["side"] == "lower" else dom.resolution[rec["axis"]] - 1
            off = np.arange(dom.ndim) != rec["axis"]
            assert faces.index[i, rec["axis"]] == side
            assert np.array_equal(dom.cell_centers()[tuple(faces.index[i])][off], rec["centroid"][off])

    @pytest.mark.parametrize("N", [1, 2, 3])
    @pytest.mark.parametrize("boundary", ["none", "affine", "step"])
    @pytest.mark.parametrize("kind", ["random", "steps", "nan"])
    def test_columns_match_the_reference_loops(self, N, boundary, kind):
        for seed, res in enumerate((1, 2, 3, 4)):
            rng = np.random.default_rng([N, seed])
            value_shape = ((), (2,), (2, N), (3,))[seed]
            cube = unit_cube(N, res)
            plain = BoxDomain(cube.lower, cube.upper, cube.resolution)  # builds its own geometry
            for dom in (cube, cube, plain):
                u = _cube_field(dom, rng, value_shape, kind, boundary)
                self.assert_rows_bitwise(u._build_interior_facets(), ref.interior_facets(u))
                self.assert_rows_bitwise(u._build_boundary_facets(), ref.boundary_facets(u))
                self.assert_rows_bitwise(u.jump_set(), ref.jump_set(u))
                self.assert_trace_bitwise(u, u.boundary_trace(), ref.trace_boundary(u))

    def test_cube_is_shared_and_its_geometry_read_only(self):
        # one domain per argument pair, whose bounds and resolution are read-only
        dom = unit_cube(2, 4)
        assert unit_cube(2, 4) is dom and unit_cube(2) is dom and unit_cube(2, 3) is not dom
        for arr in (dom.lower, dom.upper, dom.resolution):
            with pytest.raises(ValueError, match="read-only"):
                arr[0] = 1

    def test_other_domains_keep_no_geometry(self):
        dom = BoxDomain([-0.5, -0.5], [0.5, 0.5], [4, 4])
        assert dom.cell_centers() is not dom.cell_centers()
        assert dom.cell_centers().flags.writeable
        m, _, lo, _ = dom.interior_blocks()[0]
        assert dom.block_geometry(m, lo)["centroid"] is not dom.block_geometry(m, lo)["centroid"]

    @pytest.mark.parametrize("kind", ["random", "steps"])
    def test_fields_on_one_cube_own_their_data(self, kind):
        dom = unit_cube(2, 4)
        rng = np.random.default_rng(1)
        f, g = (_cube_field(dom, rng, (2, 2), kind, "affine") for _ in range(2))
        cell, row, half, outer = dom.outer_geometry()
        geometry = {"interior": [dom.block_geometry(m, lo) for m, _, lo, _ in dom.interior_blocks()],
                    "outer": [outer]}
        for kind_of_rows, table_f, table_g in (("interior", f._build_interior_facets(),
                                                g._build_interior_facets()),
                                               ("outer", f.boundary_trace(), g.boundary_trace())):
            for name in ("plus", "minus", "jump_lin"):
                a, b = getattr(table_f, name), getattr(table_g, name)
                assert a.flags.writeable and not np.shares_memory(a, b)
                assert not any(np.shares_memory(a, c) for c in [cell, row, half, dom.cell_centers(),
                                                                *(column for columns in geometry[kind_of_rows]
                                                                  for column in columns.values())])
                before = b.copy()
                a[...] = 7.0
                assert np.array_equal(b, before, equal_nan=True)
