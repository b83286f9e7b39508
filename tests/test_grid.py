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
    annulus_restrict,
    _box_sum,
    build_function,
    constant,
    dilate,
    indicator,
    integrate_over_rectangle,
    make_grid,
    _prefix_table,
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
