import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mherz.errors import (
    AlignmentError,
    DataError,
    GridSizeError,
    RectangleError,
)
from mherz.grid import (
    AnnulusIndex,
    DyadicRectangle,
    GridFunction,
    GridRectangle,
    GridSpec,
    annulus_restrict,
    _box_sum,
    build_function,
    cell_split_noise,
    constant,
    dilate,
    indicator,
    integrate_over_rectangle,
    make_grid,
    _prefix_table,
    _segment_starts,
    annulus_mask_1d,
    restrict_to_window,
    window_mask,
    window_support_violations,
)


def test_make_grid_small():
    g = make_grid(1, 1)
    assert g.n_cells == 4
    assert g.h == 0.5
    assert g.x0 == -1.0
    assert g.cell_edges()[0] == -1.0 and g.cell_edges()[-1] == 1.0


def test_make_grid_window():
    g = make_grid(3, 5)
    assert g.n_cells == 256
    assert g.window_low == -3 and g.window_high == 3
    assert list(g.window_range()) == [-3, -2, -1, 0, 1, 2, 3]


def test_make_grid_size_guard():
    with pytest.raises(GridSizeError, match="size guard"):
        make_grid(13, 0)
    with pytest.raises(GridSizeError):
        make_grid(0, 3)


@pytest.mark.parametrize("sizes, field", [((2.5, 3), "L_max"), ((2, 3.9), "s"), ((True, 3), "L_max")])
def test_grid_sizes_must_be_integers(sizes, field):
    # GridSpec(2.5, 3) built with n_cells 45.25, make_grid truncated 3.9 to 3,
    # and a bool read as 1
    for build in (GridSpec, make_grid):
        with pytest.raises(GridSizeError, match=f"^{field} must be an integer"):
            build(*sizes)


def test_make_grid_takes_numpy_integers_as_ints():
    g = make_grid(np.int64(2), np.int32(3))
    assert g == make_grid(2, 3)
    assert type(g.L_max) is int and type(g.s) is int and type(g.n_cells) is int


def test_cell_split_noise_refuses_another_box():
    with pytest.raises(ValueError, match="L_max"):
        cell_split_noise(make_grid(3, 2), make_grid(2, 1), 0)
    assert cell_split_noise(make_grid(2, 2), make_grid(2, 1), 0).spec == make_grid(2, 2)


def test_cell_alignment_includes_zero():
    g = make_grid(2, 3)
    edges = g.cell_edges()
    assert 0.0 in edges
    # dyadic boundaries 2**(i-1) for window i land on edges
    for i in g.window_range():
        assert 2.0 ** (i - 1) in edges


def test_indicator_of_central_rectangle():
    g = make_grid(2, 3)
    f = indicator(g, DyadicRectangle(0, 0))
    assert f.values.sum() == 64  # 8x8 central cells
    inner = f.values[12:20, 12:20]
    assert (inner == 1.0).all()
    assert f.values[0, 0] == 0.0


def test_build_function_routes():
    g = make_grid(2, 2)
    c = build_function(g, builtin="constant", value=1.0)
    assert (c.values == 1.0).all()
    r = build_function(g, rule=lambda x, y: x + y)
    mid = g.n_cells // 2
    assert r.values[mid, mid] == pytest.approx(2 * (g.h / 2))
    v = build_function(g, values=np.ones((16, 16)))
    assert (v.values == 1.0).all()
    with pytest.raises(ValueError, match="exactly one"):
        build_function(g, builtin="constant", rule=lambda x, y: x)
    with pytest.raises(ValueError, match="unknown builtin"):
        build_function(g, builtin="nope")


def test_truncated_log_finite_and_symmetric():
    g = make_grid(2, 3)
    f = build_function(g, builtin="truncated_log")
    assert np.isfinite(f.values).all()
    assert np.allclose(f.values, f.values[::-1, :])
    assert np.allclose(f.values, f.values[:, ::-1])


def test_non_finite_rule_rejected():
    g = make_grid(1, 1)
    with np.errstate(divide="ignore"), pytest.raises(DataError, match="non-finite"):
        build_function(g, rule=lambda x, y: 1.0 / (x - x))


def test_misaligned_indicator_rejected():
    g = make_grid(2, 2)  # h = 1/4
    with pytest.raises(AlignmentError):
        build_function(g, builtin="indicator", bounds=(-0.3, 0.3, -0.25, 0.25))


def test_integrate_indicator_whole_box():
    g = make_grid(2, 3)
    f = indicator(g, DyadicRectangle(0, 0))
    box = GridRectangle(0, g.n_cells, 0, g.n_cells)
    assert integrate_over_rectangle(f, box) == pytest.approx(1.0, abs=1e-15)


def test_integrate_constant_cells():
    g = make_grid(2, 2)  # h = 1/4
    f = constant(g, 1.0)
    r = GridRectangle(0, 3, 0, 5)
    assert integrate_over_rectangle(f, r) == pytest.approx(15.0 / 16.0, abs=1e-15)


def test_integrate_empty_rectangle_rejected():
    with pytest.raises(RectangleError, match="empty"):
        GridRectangle(3, 3, 0, 5)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**6), st.data())
def test_prefix_sum_matches_direct_summation(seed, data):
    g = make_grid(2, 2)
    n = g.n_cells
    rng = np.random.default_rng(seed)
    f = GridFunction(g, rng.normal(size=(n, n)))
    ix0 = data.draw(st.integers(0, n - 1))
    ix1 = data.draw(st.integers(ix0 + 1, n))
    iy0 = data.draw(st.integers(0, n - 1))
    iy1 = data.draw(st.integers(iy0 + 1, n))
    r = GridRectangle(ix0, ix1, iy0, iy1)
    direct = f.values[ix0:ix1, iy0:iy1].sum() * g.h**2
    assert integrate_over_rectangle(f, r) == pytest.approx(direct, rel=1e-12, abs=1e-14)
    # the raw-array helpers: one box, and the same box in the all-positions table
    P = _prefix_table(f.values)
    wx, wy = ix1 - ix0, iy1 - iy0
    boxes = _box_sum(P, np.s_[:-wx], np.s_[wx:], np.s_[:-wy], np.s_[wy:])
    for raw in (_box_sum(P, ix0, ix1, iy0, iy1), boxes[ix0, iy0]):
        assert raw * g.h**2 == pytest.approx(direct, rel=1e-12, abs=1e-14)
    direct_abs = np.abs(f.values[ix0:ix1, iy0:iy1]).sum() * g.h**2
    assert integrate_over_rectangle(f, r, absolute=True) == pytest.approx(
        direct_abs, rel=1e-12, abs=1e-14
    )


def test_prefix_table_in_place_matches_chained_cumsums():
    # the chained cumsums the table was built from are the oracle: same bits,
    # and no N x N temporary beside the table (they held two)
    rng = np.random.default_rng(11)
    for shape in [(1, 1), (3, 5), (64, 64), (256, 256)]:
        for scale in (1.0, 1e150):
            a = rng.normal(size=shape) * scale
            want = np.zeros((shape[0] + 1, shape[1] + 1))
            want[1:, 1:] = a.cumsum(axis=0).cumsum(axis=1)
            assert np.array_equal(_prefix_table(a), want)
    tracemalloc.start()
    try:
        P = _prefix_table(a)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * P.nbytes, peak / P.nbytes


def test_rect_mean_below_overflow_is_the_raw_prefix_table():
    # inputs whose cell sums stay finite take the unscaled table, bit for bit
    g = make_grid(2, 2)
    n = g.n_cells
    rng = np.random.default_rng(6)
    spike = np.full((n, n), 1e-300)
    spike[-1, -1] = 1e300  # a needless rescale by max|f| would flush the rest to 0
    for scale in (1.0, 1e-300, 1e300, spike):
        vals = rng.normal(size=(n, n)) * scale
        f = GridFunction(g, vals)
        for _ in range(50):
            ix0, iy0 = (int(k) for k in rng.integers(0, n, size=2))
            ix1, iy1 = int(rng.integers(ix0 + 1, n + 1)), int(rng.integers(iy0 + 1, n + 1))
            r = GridRectangle(ix0, ix1, iy0, iy1)
            for absolute, table in ((False, vals), (True, np.abs(vals))):
                raw = float(_box_sum(_prefix_table(table), ix0, ix1, iy0, iy1))
                assert f.rect_cell_sum(r, absolute) == raw
                assert f.rect_mean(r, absolute) == raw / r.cells()


@pytest.mark.parametrize("scale", [1.0, 1e308, 1e-300])
def test_rect_means_match_a_four_corner_oracle_and_keep_no_table(scale):
    # one prefix table per call, scaled by 2**-e where cell sums would
    # overflow (scale 1e308), and dropped after it
    g = make_grid(2, 2)
    n = g.n_cells
    rng = np.random.default_rng(12)
    vals = rng.uniform(-1.0, 1.0, size=(n, n)) * scale
    f = GridFunction(g, vals)
    rects = []
    for _ in range(40):
        ix0, iy0 = (int(k) for k in rng.integers(0, n, size=2))
        ix1, iy1 = int(rng.integers(ix0 + 1, n + 1)), int(rng.integers(iy0 + 1, n + 1))
        rects.append(GridRectangle(ix0, ix1, iy0, iy1))
    top = float(np.abs(vals).max())
    e = int(np.frexp(top)[1]) if np.isinf(top * n * n) else 0
    assert (e != 0) == (scale == 1e308)
    for absolute in (False, True):
        P = _prefix_table(np.ldexp(np.abs(vals) if absolute else vals, -e))
        sums = [
            float(P[r.ix1, r.iy1] - P[r.ix0, r.iy1] - P[r.ix1, r.iy0] + P[r.ix0, r.iy0])
            for r in rects
        ]
        means = [float(np.ldexp(t / r.cells(), e)) for t, r in zip(sums, rects)]
        assert f.rect_means(rects, absolute).tolist() == means
        assert [f.rect_mean(r, absolute) for r in rects] == means
        with np.errstate(over="ignore"):  # raw sums of 1e308 values may be inf
            raw = [float(np.ldexp(t, e)) for t in sums]
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # the library's inf comes without one
            assert [f.rect_cell_sum(r, absolute) for r in rects] == raw


def test_overflowing_rectangle_sums_are_inf_without_a_warning():
    # a caller running with warnings as errors gets the documented inf, not a
    # RuntimeWarning from the scale-back of the 2**-e scaled sum
    g = make_grid(2, 1)  # N = 8: 64 cells of 1e308 sum past the float range
    n = g.n_cells
    box = GridRectangle(0, n, 0, n)
    f = GridFunction(g, np.full((n, n), 1e308))
    top = GridFunction(g, np.full((n, n), np.finfo(float).max))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for absolute in (False, True):
            assert f.rect_cell_sum(box, absolute) == math.inf
            assert integrate_over_rectangle(f, box, absolute) == math.inf
            assert f.rect_means([box, GridRectangle(0, 1, 0, 1)], absolute).tolist() == [1e308] * 2
            # at the top of the float range: no exception, and no NaN
            means = top.rect_means([box, GridRectangle(n - 1, n, n - 1, n)], absolute)
            assert not np.isnan(means).any()


def test_single_cell_means_stay_in_range_at_the_top_of_the_float_range():
    # the box sum of one cell may round past the cell's value; at the float
    # maximum the scale-back of such a mean would overflow to inf
    g = make_grid(2, 1)
    n = g.n_cells
    top = np.finfo(float).max
    ulp = np.spacing(np.nextafter(top, 0.0))
    near = top - ulp * np.random.default_rng(11).integers(0, 4, size=(n, n))
    cells = [GridRectangle(i, i + 1, j, j + 1) for i in range(n) for j in range(n)]
    for values in (np.full((n, n), top), near):
        f = GridFunction(g, values)
        for absolute in (False, True):
            means = f.rect_means(cells, absolute)
            assert np.isfinite(means).all()
            assert (means >= values.min()).all() and (means <= values.max()).all()


def test_prefix_oracle_200_random_rectangles():
    g = make_grid(2, 3)
    n = g.n_cells
    rng = np.random.default_rng(3)
    f = GridFunction(g, rng.normal(size=(n, n)))
    for _ in range(200):
        ix0, iy0 = rng.integers(0, n - 1, size=2)
        ix1 = rng.integers(ix0 + 1, n + 1)
        iy1 = rng.integers(iy0 + 1, n + 1)
        r = GridRectangle(int(ix0), int(ix1), int(iy0), int(iy1))
        direct = f.values[ix0:ix1, iy0:iy1].sum() * g.h**2
        assert integrate_over_rectangle(f, r) == pytest.approx(direct, rel=1e-12, abs=1e-14)


def test_integration_linearity_and_monotonicity():
    g = make_grid(2, 2)
    n = g.n_cells
    rng = np.random.default_rng(11)
    f = GridFunction(g, rng.normal(size=(n, n)))
    gfn = GridFunction(g, rng.normal(size=(n, n)))
    r = GridRectangle(2, 13, 5, 11)
    lhs = integrate_over_rectangle(GridFunction(g, 2.0 * f.values + 3.0 * gfn.values), r)
    rhs = 2.0 * integrate_over_rectangle(f, r) + 3.0 * integrate_over_rectangle(gfn, r)
    assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-13)
    bigger = GridFunction(g, f.values + np.abs(gfn.values))
    assert integrate_over_rectangle(bigger, r) >= integrate_over_rectangle(f, r) - 1e-14


def test_annulus_restrict_measure():
    g = make_grid(2, 3)
    f = annulus_restrict(constant(g, 1.0), AnnulusIndex(0, 0))
    box = GridRectangle(0, g.n_cells, 0, g.n_cells)
    # |I_0| = 1 - 1/2 = 1/2 per axis
    assert integrate_over_rectangle(f, box) == pytest.approx(0.25, abs=1e-15)


def test_annulus_disjointness():
    g = make_grid(2, 3)
    one = constant(g, 1.0)
    a = annulus_restrict(one, AnnulusIndex(0, 0))
    b = annulus_restrict(one, AnnulusIndex(1, 1))
    assert (a.values * b.values == 0.0).all()


def test_annulus_partition_of_window():
    g = make_grid(2, 2)
    rng = np.random.default_rng(5)
    f = GridFunction(g, rng.normal(size=(g.n_cells, g.n_cells)))
    total = np.zeros_like(f.values)
    for i in g.window_range():
        for j in g.window_range():
            total += annulus_restrict(f, AnnulusIndex(i, j)).values
    masked = np.where(window_mask(g), f.values, 0.0)
    assert np.array_equal(total, masked)


def test_annulus_out_of_window_rejected():
    g = make_grid(2, 3)
    with pytest.raises(RectangleError, match="outside window"):
        annulus_restrict(constant(g, 1.0), AnnulusIndex(3, 0))


def test_window_support_violations_reported():
    g = make_grid(2, 3)
    f = constant(g, 1.0)
    bad = window_support_violations(f)
    assert len(bad) > 0
    assert len(window_support_violations(restrict_to_window(f))) == 0


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 4), st.integers(0, 3), st.integers(0, 10**6), st.integers(0, 5))
def test_window_support_violations_match_full_scan(L_max, s, seed, cross_cells):
    g = make_grid(L_max, s)
    n = g.n_cells
    rng = np.random.default_rng(seed)
    f = restrict_to_window(GridFunction(g, rng.normal(size=(n, n))))
    vals = f.values.copy()
    for _ in range(cross_cells):  # put mass on the central cross
        k, along = rng.integers(n // 2 - 1, n // 2 + 1), rng.integers(n)
        vals[(k, along) if rng.random() < 0.5 else (along, k)] = rng.normal()
    f = f.with_values(vals)
    want = np.argwhere(~window_mask(g) & (f.values != 0.0))
    got = window_support_violations(f)
    assert got.shape == want.shape and got.dtype == want.dtype
    assert np.array_equal(got, want)


def test_window_mask_is_union_of_annuli_and_read_only():
    for L_max, s in [(1, 0), (1, 1), (2, 3), (3, 5)]:
        g = make_grid(L_max, s)
        m = window_mask(g)
        assert not m.flags.writeable
        axis = np.zeros(g.n_cells, dtype=bool)
        for i in g.window_range():
            axis |= annulus_mask_1d(g, i)
        assert np.array_equal(m, axis[:, None] & axis[None, :])
    with pytest.raises(ValueError):
        m[0, 0] = True


def test_segment_starts_tile_the_axis():
    for L_max, s in [(1, 0), (1, 1), (2, 2), (3, 5)]:
        g = make_grid(L_max, s)
        starts = _segment_starts(g)
        w = len(list(g.window_range()))
        assert starts.size == 2 * w + 1 and starts[0] == 0
        assert (np.diff(starts) > 0).all()
        mid = g.n_cells // 2
        assert starts[w] == mid - 1  # the central gap: cells mid-1 and mid
        for k, i in enumerate(g.window_range()):
            (a0, a1), (b0, b1) = g.annulus_runs(i)
            assert starts[w - 1 - k] == a0 and starts[w + 1 + k] == b0
        assert not starts.flags.writeable


def test_gridfunction_immutable():
    g = make_grid(1, 1)
    f = constant(g, 1.0)
    with pytest.raises(ValueError):
        f.values[0, 0] = 2.0
    with pytest.raises(AttributeError):
        f.values = np.zeros((4, 4))


def test_refine_preserves_function():
    g = make_grid(2, 2)
    rng = np.random.default_rng(9)
    f = GridFunction(g, rng.normal(size=(g.n_cells, g.n_cells)))
    f2 = f.refine()
    assert f2.spec.s == g.s + 1
    box = GridRectangle(0, g.n_cells, 0, g.n_cells)
    box2 = GridRectangle(0, f2.spec.n_cells, 0, f2.spec.n_cells)
    assert integrate_over_rectangle(f2, box2) == pytest.approx(
        integrate_over_rectangle(f, box), rel=1e-12
    )


def test_gridfunction_copies_the_callers_array():
    g = make_grid(1, 1)
    vals = np.zeros((4, 4))
    f = GridFunction(g, vals)
    vals[0, 0] = 5.0  # the caller still owns and may write its array
    assert f.values[0, 0] == 0.0 and vals.flags.writeable
    # so do with_values and an unclipped rule whose output the caller holds
    held = np.ones((4, 4))
    fw = f.with_values(held)
    fr = build_function(g, rule=lambda x, y: held)
    held[1, 1] = 7.0
    assert fw.values[1, 1] == fr.values[1, 1] == 1.0 and held.flags.writeable
    assert not np.shares_memory(fw.values, held) and not np.shares_memory(fr.values, held)


def test_refine_adopts_its_fresh_table():
    # copying the refined table (an np.kron) into the function made the traced
    # peak twice the 2.0 MB result
    f = build_function(make_grid(3, 5), builtin="noise", seed=3)
    tracemalloc.start()
    try:
        fine = f.refine(1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * fine.values.nbytes, peak / fine.values.nbytes
    assert not fine.values.flags.writeable and fine.values.flags.c_contiguous
    assert np.array_equal(fine.values, np.kron(f.values, np.ones((2, 2))))
    g = build_function(make_grid(2, 1), builtin="noise", seed=4)
    assert np.array_equal(g.refine(2).values, np.kron(g.values, np.ones((4, 4))))


def _refuse_the_copying_constructor(monkeypatch):
    def refuse(self, spec, values):
        raise AssertionError("a fresh library table went through GridFunction()")

    monkeypatch.setattr(GridFunction, "__init__", refuse)


ADOPTING_BUILDERS = {
    "refine": lambda f: f.refine(1),
    "indicator": lambda f: indicator(f.spec, DyadicRectangle(1, 0)),
    "constant": lambda f: constant(f.spec, 2.5),
    "annulus_restrict": lambda f: annulus_restrict(f, AnnulusIndex(1, 0)),
    "step": lambda f: build_function(f.spec, builtin="step", l1=1, l2=0),
    "dilate": lambda f: dilate(f, 2.0),
    "restrict_to_window": restrict_to_window,
    "clipped_rule": lambda f: build_function(f.spec, rule=lambda x, y: x * y, clip=1.0),
    "gaussian": lambda f: build_function(f.spec, builtin="gaussian", sigma=0.7),
    "power": lambda f: build_function(f.spec, builtin="power", a=0.3, b=0.3),
}


@pytest.mark.parametrize("name", sorted(ADOPTING_BUILDERS))
def test_builders_adopt_their_fresh_tables(name, monkeypatch):
    # each builder's table is fresh and referenced nowhere else, so it is
    # held without the public constructor's copy, then checked and frozen
    f = build_function(make_grid(2, 2), builtin="noise", seed=9)
    _refuse_the_copying_constructor(monkeypatch)
    out = ADOPTING_BUILDERS[name](f)
    assert not out.values.flags.writeable and out.values.flags.c_contiguous
    assert not np.shares_memory(out.values, f.values)


def test_adopted_arrays_are_checked_and_frozen():
    g = make_grid(1, 1)
    bad = np.zeros((4, 4))
    bad[1, 2] = np.inf
    with pytest.raises(DataError, match="1 non-finite"):
        GridFunction._adopt(g, bad)
    with pytest.raises(DataError, match="4x4"):
        GridFunction._adopt(g, np.zeros((2, 2)))
    f = GridFunction._adopt(g, np.ones((4, 4)))
    with pytest.raises(ValueError):
        f.values[0, 0] = 2.0
    # a transposed view is stored C-ordered, as the public constructor stores it
    assert GridFunction._adopt(g, np.arange(16.0).reshape(4, 4).T).values.flags.c_contiguous


def test_dilate_power_of_two_exact():
    g = make_grid(3, 3)
    f = indicator(g, DyadicRectangle(-1, -1))
    f2 = dilate(f, 2.0)
    expected = indicator(g, DyadicRectangle(0, 0))
    assert np.array_equal(f2.values, expected.values)


def test_noise_builtin_seeded():
    g = make_grid(1, 2)
    a = build_function(g, builtin="noise", seed=42)
    b = build_function(g, builtin="noise", seed=42)
    assert np.array_equal(a.values, b.values)
