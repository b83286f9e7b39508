import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mherz.errors import (
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
    from_rule,
    indicator,
    make_grid,
    _prefix_table,
    _segment_starts,
    annulus_mask_1d,
    restrict_to_window,
    window_mask,
    window_support_violations,
)
from mherz.norms import ExponentParams, RectangleFamily
from mherz.operators import rubio_de_francia
from mherz.verification import check_extrapolation, check_fefferman_stein, check_norm_duality


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
    r = from_rule(g, lambda x, y: x + y)
    mid = g.n_cells // 2
    assert r.values[mid, mid] == pytest.approx(2 * (g.h / 2))
    v = GridFunction(g, np.ones((16, 16)))
    assert (v.values == 1.0).all()
    # a builtin takes its own keyword parameters only: a rule is no route of it
    with pytest.raises(ValueError, match="'rule'"):
        build_function(g, builtin="constant", rule=lambda x, y: x)
    with pytest.raises(ValueError, match="unknown builtin"):
        build_function(g, builtin="nope")


def test_build_function_names_the_builtin_and_its_keys_on_a_bad_keyword():
    g = make_grid(2, 2)
    misspelt = r"'constant'.*unknown keys \['valu'\].*takes \['value'\]"
    with pytest.raises(ValueError, match=misspelt):
        build_function(g, builtin="constant", valu=2)
    missing = r"'indicator'.*missing keys \['l2'\].*takes \['l1', 'l2'\]"
    with pytest.raises(ValueError, match=missing):
        build_function(g, builtin="indicator", l1=0)
    # a TypeError raised inside a builder is no binding error: it surfaces as raised
    with pytest.raises(TypeError) as info:
        build_function(g, builtin="power", a="x", b=0.0)
    assert not isinstance(info.value, ValueError)


def test_truncated_log_finite_and_symmetric():
    g = make_grid(2, 3)
    f = build_function(g, builtin="truncated_log")
    assert np.isfinite(f.values).all()
    assert np.allclose(f.values, f.values[::-1, :])
    assert np.allclose(f.values, f.values[:, ::-1])


def test_non_finite_rule_rejected():
    g = make_grid(1, 1)
    with np.errstate(divide="ignore"), pytest.raises(DataError, match="non-finite"):
        from_rule(g, lambda x, y: 1.0 / (x - x))


def test_integrate_indicator_whole_box():
    g = make_grid(2, 3)
    f = indicator(g, DyadicRectangle(0, 0))
    box = GridRectangle(0, g.n_cells, 0, g.n_cells)
    # the box has area 16 and Q(0) x Q(0) area 1
    assert f.rect_means([box])[0] * 16.0 == pytest.approx(1.0, abs=1e-15)


def test_integrate_constant_cells():
    g = make_grid(2, 2)  # h = 1/4
    f = constant(g, 1.0)
    r = GridRectangle(0, 3, 0, 5)
    assert f.rect_means([r])[0] * r.cells() * g.h**2 == pytest.approx(15.0 / 16.0, abs=1e-15)


def test_integrate_empty_rectangle_rejected():
    with pytest.raises(RectangleError, match="empty"):
        GridRectangle(3, 3, 0, 5)


@pytest.mark.parametrize(
    "build, field",
    [
        # a bool is no cell index, though cells() would read it as 1
        pytest.param(lambda: GridRectangle(True, 2, 0, 2), "ix0", id="bool-cell"),
        pytest.param(lambda: GridRectangle(0, 2, 0, 2.5), "iy1", id="fraction-cell"),
        # a float bound would reach numpy's slicing as a bare IndexError
        pytest.param(lambda: GridRectangle(0, 2.0, 0, 2), "ix1", id="float-cell"),
        pytest.param(lambda: DyadicRectangle(np.int64(0), 1.5), "l2", id="fraction-level"),
        pytest.param(lambda: DyadicRectangle(False, 1), "l1", id="bool-level"),
        # the builtin passes its levels on as given, never truncated to Q(0) x Q(1)
        pytest.param(
            lambda: build_function(make_grid(2, 2), builtin="indicator", l1=0.7, l2=1.9),
            "l1",
            id="indicator-builtin",
        ),
    ],
)
def test_rectangles_refuse_bools_and_fractions(build, field):
    with pytest.raises(RectangleError, match=f"^{field} must be an integer"):
        build()


def test_rectangles_take_numpy_integers_as_ints():
    r = GridRectangle(np.int64(1), np.int32(3), np.uint8(0), np.int64(2))
    assert r == GridRectangle(1, 3, 0, 2) and r.cells() == 4
    d = DyadicRectangle(np.int64(0), np.int16(-1))
    assert d == DyadicRectangle(0, -1)
    assert all(type(v) is int for v in (r.ix0, r.ix1, r.iy0, r.iy1, d.l1, d.l2))


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
    area = r.cells() * g.h**2
    assert f.rect_means([r])[0] * area == pytest.approx(direct, rel=1e-12, abs=1e-14)
    # the raw-array helpers: one box, and the same box in the all-positions table
    P = _prefix_table(f.values)
    wx, wy = ix1 - ix0, iy1 - iy0
    boxes = _box_sum(P, np.s_[:-wx], np.s_[wx:], np.s_[:-wy], np.s_[wy:])
    for raw in (_box_sum(P, ix0, ix1, iy0, iy1), boxes[ix0, iy0]):
        assert raw * g.h**2 == pytest.approx(direct, rel=1e-12, abs=1e-14)
    direct_abs = np.abs(f.values[ix0:ix1, iy0:iy1]).sum() * g.h**2
    assert f.rect_means([r], absolute=True)[0] * area == pytest.approx(
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
                assert f.rect_means([r], absolute)[0] == raw / r.cells()


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
        assert [f.rect_means([r], absolute)[0] for r in rects] == means


def test_overflowing_rectangle_sums_give_finite_means_without_a_warning():
    # a caller running with warnings as errors gets finite means, not a
    # RuntimeWarning from the scale-back of the 2**-e scaled sums
    g = make_grid(2, 1)  # N = 8: 64 cells of 1e308 sum past the float range
    n = g.n_cells
    box = GridRectangle(0, n, 0, n)
    f = GridFunction(g, np.full((n, n), 1e308))
    top = GridFunction(g, np.full((n, n), np.finfo(float).max))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for absolute in (False, True):
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
        area = r.cells() * g.h**2
        assert f.rect_means([r])[0] * area == pytest.approx(direct, rel=1e-12, abs=1e-14)


def test_integration_linearity_and_monotonicity():
    g = make_grid(2, 2)
    n = g.n_cells
    rng = np.random.default_rng(11)
    f = GridFunction(g, rng.normal(size=(n, n)))
    gfn = GridFunction(g, rng.normal(size=(n, n)))
    r = GridRectangle(2, 13, 5, 11)
    area = r.cells() * g.h**2

    def integral(f):
        return f.rect_means([r])[0] * area

    lhs = integral(GridFunction(g, 2.0 * f.values + 3.0 * gfn.values))
    rhs = 2.0 * integral(f) + 3.0 * integral(gfn)
    assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-13)
    bigger = GridFunction(g, f.values + np.abs(gfn.values))
    assert integral(bigger) >= integral(f) - 1e-14


def test_annulus_restrict_measure():
    g = make_grid(2, 3)
    f = annulus_restrict(constant(g, 1.0), AnnulusIndex(0, 0))
    box = GridRectangle(0, g.n_cells, 0, g.n_cells)
    # |I_0| = 1 - 1/2 = 1/2 per axis, in a box of area 16
    assert f.rect_means([box])[0] * 16.0 == pytest.approx(0.25, abs=1e-15)


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
    f = GridFunction(g, vals)
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
    # the same box, so the same mean
    assert f2.rect_means([box2])[0] == pytest.approx(f.rect_means([box])[0], rel=1e-12)


def test_gridfunction_copies_the_callers_array():
    g = make_grid(1, 1)
    vals = np.zeros((4, 4))
    f = GridFunction(g, vals)
    vals[0, 0] = 5.0  # the caller still owns and may write its array
    assert f.values[0, 0] == 0.0 and vals.flags.writeable
    # so does an unclipped rule whose output the caller holds
    held = np.ones((4, 4))
    fw = GridFunction(g, held)
    fr = from_rule(g, lambda x, y: held)
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
    "dilate": lambda f: dilate(f, 2.0),
    "restrict_to_window": restrict_to_window,
    "clipped_rule": lambda f: from_rule(f.spec, lambda x, y: x * y, clip=1.0),
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


# -- one rule for numeric arguments ----------------------------------------------
#
# Every integer and real argument goes through grid._integer or grid._real: a
# bool, a float where an integer is due, a str, None where it is not taken,
# or a value outside the domain is refused by name, and a numpy scalar is
# stored as the Python number of its value.  A 0-d array is the numpy scalar
# of its value wherever grid._python_number reads it first (the reals and
# the suite options); grid._integer takes no array, so the integer
# arguments of the constructors refuse it by name.  Each site is (build from
# the value, error, field, integral, a numpy value, a value outside the
# domain, whether None is taken, how to read the stored value or None for a
# site that stores nothing).

_NOISE = build_function(make_grid(1, 1), builtin="noise", seed=1)
_G22 = make_grid(2, 2)
_PR = ExponentParams(0.25, 2, 2, 0.5)
_PRX = ExponentParams(0.2, 4, 4, 0.2)

ONE_RULE_SITES = {
    "GridSpec": (
        lambda v: GridSpec(v, 1), GridSizeError, "L_max", True, np.int64(2), 0, False,
        lambda spec: spec.L_max,
    ),
    "GridRectangle": (
        lambda v: GridRectangle(0, v, 0, 2), RectangleError, "ix1", True, np.int32(2), None,
        False, lambda rect: rect.ix1,
    ),
    "DyadicRectangle": (
        lambda v: DyadicRectangle(0, v), RectangleError, "l2", True, np.int16(-1), None,
        False, lambda rect: rect.l2,
    ),
    "ExponentParams.n": (
        lambda v: ExponentParams(0.25, 2, 2, 0.5, n=v), ValueError, "n", True, np.int64(2), 0,
        False, lambda pr: pr.n,
    ),
    "ExponentParams.alpha": (
        lambda v: ExponentParams(v, 2, 2, 0.5), ValueError, "alpha", False, np.float32(0.25),
        np.inf, False, lambda pr: pr.alpha,
    ),
    "ExponentParams.lam": (
        lambda v: ExponentParams(0.25, 2, 2, v), ValueError, "lam", False, np.float64(0.5),
        -0.1, False, lambda pr: pr.lam,
    ),
    "RectangleFamily.stride": (
        lambda v: RectangleFamily("dyadic-sides", stride=v), ValueError, "stride", True,
        np.int64(2), 0, True, lambda family: family.stride,
    ),
    "RectangleFamily.min_side": (
        lambda v: RectangleFamily("dyadic-sides", min_side=v), ValueError, "min_side", True,
        np.uint8(2), 0, False, lambda family: family.min_side,
    ),
    "GridFunction.refine": (
        lambda v: _NOISE.refine(v), ValueError, "extra_levels", True, np.int64(1), -1, False,
        None,
    ),
    "rubio_de_francia.K": (
        lambda v: rubio_de_francia(_NOISE, 1.0, v), ValueError, "K", True, np.int64(2), 0,
        False, None,
    ),
    "rubio_de_francia.c": (
        lambda v: rubio_de_francia(_NOISE, v, 2), ValueError, "c", False, np.float32(0.5), 0.0,
        False, None,
    ),
    "options.seed": (
        lambda v: check_norm_duality(_G22, _PR, seed=v, trials=2, refine=False), ValueError,
        "seed", True, np.int64(3), -1, False, lambda rep: rep.params["seed"],
    ),
    "options.p0": (
        lambda v: check_extrapolation(_G22, "strong-maximal", v, _PRX, trials=1, refine=False),
        ValueError, "p0", False, np.float32(2.0), 0.0, False, lambda rep: rep.params["p0"],
    ),
    "options.c": (
        lambda v: check_extrapolation(_G22, "strong-maximal", 2.0, _PRX, c=v, trials=1, refine=False),
        ValueError, "c", False, np.float64(0.5), -1.0, True, lambda rep: rep.params["c"],
    ),
    "options.family_count": (
        lambda v: check_fefferman_stein(_G22, _PR, family_count=v, refine=False), ValueError,
        "family_count", True, np.int64(2), 0, False, lambda rep: rep.params["family_count"],
    ),
}

ONE_RULE_CASES = [
    pytest.param(site, kind, id=f"{site}-{kind}")
    for site, (*_, integral, _np, outside, _none, _read) in ONE_RULE_SITES.items()
    for kind in ("bool", "float", "str", "None", "numpy", "0-d", "outside")
    if (kind != "float" or integral) and (kind != "outside" or outside is not None)
] + [pytest.param("options.r_list", "0-d", id="options.r_list-0-d")]


@pytest.mark.parametrize("site, kind", ONE_RULE_CASES)
def test_numeric_arguments_follow_one_rule(site, kind):
    if site == "options.r_list":  # a 0-d array is a number, not the list this option takes
        with pytest.raises(ValueError, match="^r_list must be a non-empty list") as info:
            check_fefferman_stein(_G22, _PR, r_list=np.array(2.0), refine=False)
        assert info.value.field == site
        return
    build, error, field, integral, numpy_value, outside, nullable, read = ONE_RULE_SITES[site]
    if kind == "None" and nullable:
        build(None)
        return
    if kind == "0-d" and (not integral or site.startswith("options.")):
        kind, numpy_value = "numpy", np.asarray(numpy_value)
    if kind == "numpy":
        want = numpy_value.item()
        got, plain = build(numpy_value), build(want)
        if read is None:  # nothing stored: the output of the Python value
            assert got.values.tobytes() == plain.values.tobytes()
        else:
            assert type(read(got)) is type(want) and read(got) == want
        return
    value = {
        "bool": True, "float": 2.5, "str": "2", "None": None, "outside": outside,
        "0-d": np.asarray(numpy_value),
    }[kind]
    with pytest.raises(error, match=f"^{field} must be") as info:
        build(value)
    if site.startswith("options."):
        assert info.value.field == site
