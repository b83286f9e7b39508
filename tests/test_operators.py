import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy.ndimage import maximum_filter1d

from mherz import operators
from mherz.errors import CostGuardError
from mherz.grid import (
    DyadicRectangle,
    GridFunction,
    GridRectangle,
    _box_sum,
    _prefix_table,
    build_function,
    constant,
    indicator,
    make_grid,
    restrict_to_window,
)
from mherz.norms import ExponentParams, block_norm_bracket
from mherz.operators import (
    DYADIC_SIDES,
    EXACT_GRID,
    EXACT_GATE,
    ITERATED_1D,
    _axis_weights,
    _maximal_dyadic,
    _maximal_exact,
    _maximal_kernel,
    as_variant,
    commutator,
    cz_apply,
    estimate_block_norm_constant,
    interval_average_profile,
    maximal_iterates,
    rubio_de_francia,
    rubio_from_iterates,
    strong_maximal,
)


def brute_force_maximal(values):
    """O(N^6) oracle: sup over all grid rectangles of the |f|-average."""
    n = values.shape[0]
    a = np.abs(values)
    out = np.zeros((n, n))
    for x in range(n):
        for y in range(n):
            best = 0.0
            for ix0 in range(x + 1):
                for ix1 in range(x + 1, n + 1):
                    for iy0 in range(y + 1):
                        for iy1 in range(y + 1, n + 1):
                            best = max(best, a[ix0:ix1, iy0:iy1].mean())
            out[x, y] = best
    return out


def trailing_window_max(a: np.ndarray, w: int, axis: int) -> np.ndarray:
    """out[x] = max(a[x-w+1 .. x]) along ``axis``, missing entries = -inf."""
    return maximum_filter1d(
        a, size=w, axis=axis, origin=(w - 1) // 2, mode="constant", cval=-np.inf
    )


def filter_maximal_dyadic(absv):
    """Oracle for ``_maximal_dyadic``: the direct formulation, with one padded
    N x N table and two sliding max filters per side pair."""
    n = absv.shape[0]
    P = _prefix_table(absv)
    sides = [1 << a for a in range(n.bit_length())]
    out = np.full((n, n), -np.inf)
    for wx in sides:
        for wy in sides:
            corners = (np.s_[:-wx], np.s_[wx:], np.s_[:-wy], np.s_[wy:])
            T = _box_sum(P, *corners) / float(wx * wy)
            pad = np.full((n, n), -np.inf)
            pad[: n - wx + 1, : n - wy + 1] = T
            cov = trailing_window_max(trailing_window_max(pad, wx, 0), wy, 1)
            np.maximum(out, cov, out=out)
    return out


def staircase_interval_average_profile(v: np.ndarray) -> np.ndarray:
    """Oracle for ``interval_average_profile``: the full staircase, one
    ``(n, n)`` table of all interval means per line."""
    v = np.asarray(v, dtype=float)
    n = v.shape[-1]
    P = np.zeros(v.shape[:-1] + (n + 1,))
    np.cumsum(v, axis=-1, out=P[..., 1:])
    num = P[..., None, 1:] - P[..., :-1, None]  # [.., i0, j] = P[j+1] - P[i0]
    den = np.arange(1, n + 1)[None, :] - np.arange(n)[:, None]
    A = np.where(den > 0, num / np.maximum(den, 1), -np.inf)
    B = np.flip(np.maximum.accumulate(np.flip(A, -1), -1), -1)
    C = np.maximum.accumulate(B, axis=-2)
    return np.ascontiguousarray(np.einsum("...ii->...i", C))


def staircase_maximal_1d_lines(absv: np.ndarray, chunk: int = 32) -> np.ndarray:
    """The former ``_maximal_1d_lines``: the staircase on ``chunk`` lines at
    a time, along the last axis."""
    n = absv.shape[0]
    out = np.empty_like(absv)
    for k in range(0, n, chunk):
        out[k : k + chunk] = staircase_interval_average_profile(absv[k : k + chunk])
    return out


def staircase_iterated_1d(absv: np.ndarray) -> np.ndarray:
    """Oracle for the ``iterated-1d`` kernel: chunked staircase lines."""
    return staircase_maximal_1d_lines(staircase_maximal_1d_lines(absv).T).T


def staircase_maximal_exact(absv: np.ndarray) -> np.ndarray:
    """Oracle for ``_maximal_exact``: the same sweep over the staircase."""
    n = absv.shape[0]
    Py = np.zeros((n, n + 1))
    np.cumsum(absv, axis=1, out=Py[:, 1:])
    out = np.zeros((n, n))
    heights = np.arange(1, n + 1, dtype=float)
    for iy0 in range(n):
        S = (Py[:, iy0 + 1 :] - Py[:, iy0 : iy0 + 1]).T
        m = staircase_interval_average_profile(S) / heights[: n - iy0, None]
        cover = np.flip(np.maximum.accumulate(np.flip(m, 0), 0), 0)
        np.maximum(out[:, iy0:], cover.T, out=out[:, iy0:])
    return out


def test_variant_coercion():
    assert as_variant("exact-grid", EXACT_GATE) == "exact-grid"
    assert as_variant(DYADIC_SIDES) == "dyadic-sides"
    assert as_variant(ITERATED_1D, 1024) == "iterated-1d"
    for bad in ("bogus", None, 1, ["dyadic-sides"]):
        with pytest.raises(ValueError):
            as_variant(bad)
    with pytest.raises(CostGuardError):
        as_variant(EXACT_GRID, EXACT_GATE + 1)


def test_trailing_window_max_oracle():
    rng = np.random.default_rng(0)
    for _ in range(50):
        n = int(rng.integers(1, 30))
        w = int(rng.integers(1, n + 1))
        a = rng.normal(size=n)
        got = trailing_window_max(a, w, axis=-1)
        want = np.array([a[max(0, x - w + 1) : x + 1].max() for x in range(n)])
        assert np.allclose(got, want)


def _table(kind, n, rng):
    if kind in ("zero", "spike"):
        a = np.zeros((n, n))
        if kind == "spike":
            a[rng.integers(n), rng.integers(n)] = 1e300
        return a
    a = np.abs(rng.normal(size=(n, n)))
    if kind == "sparse":
        a *= rng.random((n, n)) < 0.05
    return a


@pytest.mark.parametrize("kind", ["dense", "sparse", "zero", "spike"])
def test_dyadic_kernel_bit_identical_to_filter_oracle(kind):
    rng = np.random.default_rng(0)
    for n in range(1, 41):
        a = _table(kind, n, rng)
        assert np.array_equal(_maximal_dyadic(a), filter_maximal_dyadic(a)), n


def test_dyadic_kernel_bit_identical_to_filter_oracle_n256():
    a = np.abs(np.random.default_rng(256).normal(size=(256, 256)))
    assert np.array_equal(_maximal_dyadic(a), filter_maximal_dyadic(a))


@settings(max_examples=60, deadline=None)
@given(
    st.integers(1, 40).flatmap(
        lambda n: hnp.arrays(float, (n, n), elements=st.floats(0.0, 1e300))
    )
)
def test_dyadic_kernel_matches_oracle_on_arbitrary_tables(a):
    assert np.array_equal(_maximal_dyadic(a), filter_maximal_dyadic(a))


@pytest.mark.parametrize("kind", ["dense", "sparse", "zero", "spike"])
def test_interval_profile_bit_identical_to_staircase(kind):
    rng = np.random.default_rng(1)
    for n in range(1, 41):
        a = _table(kind, n, rng)
        for v in (a[0], a, np.stack([a, a[::-1]])):  # 1-D, 2-D and 3-D shapes
            got = interval_average_profile(v)
            assert got.shape == v.shape
            assert np.array_equal(got, staircase_interval_average_profile(v)), (n, v.ndim)


@settings(max_examples=60, deadline=None)
@given(
    st.integers(1, 3).flatmap(
        lambda ndim: hnp.arrays(
            float,
            hnp.array_shapes(min_dims=ndim, max_dims=ndim, min_side=1, max_side=12),
            elements=st.floats(0.0, 1e300),
        )
    ),
    st.sampled_from(["plain", "T", "every-other"]),
)
def test_interval_profile_matches_staircase_on_arbitrary_views(a, view):
    # the profile moves the profiled axis to the front, so strided and
    # transposed inputs must give what the staircase gives on the same view
    if view == "T":
        a = a.T
    elif view == "every-other":
        a = a[..., ::2]
    got = interval_average_profile(a)
    assert got.shape == a.shape
    assert np.array_equal(got, staircase_interval_average_profile(a))


def test_iterated_1d_kernel_bit_identical_to_staircase_n256():
    a = np.abs(np.random.default_rng(257).normal(size=(256, 256)))
    assert np.array_equal(_maximal_kernel(ITERATED_1D, a), staircase_iterated_1d(a))


@pytest.mark.parametrize("kind", ["dense", "sparse", "zero", "spike"])
def test_exact_kernel_bit_identical_to_staircase_sweep(kind):
    rng = np.random.default_rng(2)
    for n in (1, 2, 3, 7, 16, 40):
        a = _table(kind, n, rng)
        assert np.array_equal(_maximal_exact(a), staircase_maximal_exact(a)), n


@settings(max_examples=60, deadline=None)
@given(
    st.integers(1, 40).flatmap(
        lambda n: hnp.arrays(float, (n, n), elements=st.floats(0.0, 1e300))
    )
)
def test_iterated_1d_kernel_matches_staircase_on_arbitrary_tables(a):
    assert np.array_equal(_maximal_kernel(ITERATED_1D, a), staircase_iterated_1d(a))


def test_iterated_1d_memory_is_a_few_slabs():
    # the staircase held (32, N, N) tables: about 132 N**2 doubles at N = 256
    g = make_grid(5, 3)  # N = 256
    n = g.n_cells
    f = build_function(g, builtin="noise", seed=5)
    tracemalloc.start()
    try:
        strong_maximal(f, ITERATED_1D)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 16 * n * n * 8, peak / (8 * n * n)


def test_dyadic_sides_memory_is_a_few_slabs():
    # prefix table, output and the two reused row-block buffers: about 6.3 N**2
    g = make_grid(5, 3)  # N = 256
    n = g.n_cells
    f = build_function(g, builtin="noise", seed=5)
    tracemalloc.start()
    try:
        strong_maximal(f, DYADIC_SIDES)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 7 * n * n * 8, peak / (8 * n * n)


def test_interval_average_profile_oracle():
    rng = np.random.default_rng(1)
    for _ in range(30):
        n = int(rng.integers(1, 16))
        v = np.abs(rng.normal(size=n))
        got = interval_average_profile(v)
        want = np.array(
            [
                max(
                    v[i0:i1].mean()
                    for i0 in range(x + 1)
                    for i1 in range(x + 1, n + 1)
                )
                for x in range(n)
            ]
        )
        assert np.allclose(got, want)


def test_exact_grid_matches_brute_force():
    g = make_grid(2, 1)  # N = 8
    rng = np.random.default_rng(2)
    f = GridFunction(g, rng.normal(size=(8, 8)))
    got = strong_maximal(f, EXACT_GRID).values
    assert np.allclose(got, brute_force_maximal(f.values), atol=1e-12)


def test_maximal_of_constant():
    g = make_grid(2, 2)
    for variant in (EXACT_GRID, DYADIC_SIDES, ITERATED_1D):
        m = strong_maximal(constant(g, -3.0), variant).values
        assert np.allclose(m, 3.0, atol=1e-12)


def test_maximal_of_huge_finite_values():
    # |f| * N**2 overflows, so the prefix sums inside the kernels would too
    g = make_grid(2, 1)  # N = 8
    f = constant(g, 1e308)
    rng = np.random.default_rng(3)
    mixed = f.with_values(rng.uniform(-1.0, 1.0, size=(8, 8)) * 1e308)
    for variant in (EXACT_GRID, DYADIC_SIDES, ITERATED_1D):
        assert (strong_maximal(f, variant).values == 1e308).all()
        m = strong_maximal(mixed, variant).values
        assert np.isfinite(m).all()
        assert (m >= np.abs(mixed.values)).all()


def test_maximal_1d_slice_interval_average():
    # 1-D check: the maximal value of chi_[0,1] at x = 2 is 1/2 (interval [0,2])
    g = make_grid(3, 4)  # box [-4,4], h = 1/16
    n = g.n_cells
    v = np.zeros(n)
    a = g.point_to_cell(0.0)
    b = g.point_to_cell(1.0)
    v[a:b] = 1.0
    prof = interval_average_profile(v)
    x2 = g.point_to_cell(2.0)
    # brute-force oracle over intervals
    want = max(
        v[i0:i1].mean() for i0 in range(x2 + 1) for i1 in range(x2 + 1, n + 1)
    )
    assert prof[x2] == pytest.approx(want, rel=1e-12)
    assert prof[x2] == pytest.approx(0.5, abs=g.h)


def test_maximal_2d_unit_square_at_2_half():
    g = make_grid(2, 4)  # box [-2,2], h = 1/16, N = 64
    chi = build_function(g, builtin="indicator", bounds=(0, 1, 0, 1))
    m = strong_maximal(chi, EXACT_GRID)
    # best rectangle containing (2-, 1/2) is [0,2] x [0,1]: average 1/2
    ix = g.n_cells - 1  # cell touching x = 2
    iy = g.point_to_cell(0.5)
    assert m.values[ix, iy] == pytest.approx(0.5, abs=2 * g.h)


def test_maximal_idempotent_on_indicator():
    g = make_grid(2, 3)
    chi = indicator(g, DyadicRectangle(0, 0))
    r = DyadicRectangle(0, 0).to_cells(g)
    for variant in (EXACT_GRID, DYADIC_SIDES, ITERATED_1D):
        m = strong_maximal(chi, variant).values
        assert np.array_equal(m[r.ix0 : r.ix1, r.iy0 : r.iy1], np.ones((8, 8)))


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 10**6))
def test_maximal_sublinear_and_monotone(seed):
    g = make_grid(2, 1)
    rng = np.random.default_rng(seed)
    f = GridFunction(g, rng.normal(size=(8, 8)))
    h = GridFunction(g, rng.normal(size=(8, 8)))
    for variant in (EXACT_GRID, DYADIC_SIDES, ITERATED_1D):
        mf = strong_maximal(f, variant).values
        mh = strong_maximal(h, variant).values
        msum = strong_maximal(f.with_values(f.values + h.values), variant).values
        assert (msum <= mf + mh + 1e-12).all()
        assert (mf >= np.abs(f.values)).all()


def test_variant_sandwich_random_grids():
    g = make_grid(2, 3)
    for seed in range(20):
        f = build_function(g, builtin="noise", seed=[17, seed], low=-1.0, high=1.0)
        md = strong_maximal(f, DYADIC_SIDES).values
        me = strong_maximal(f, EXACT_GRID).values
        mi = strong_maximal(f, ITERATED_1D).values
        assert (md <= me + 1e-10).all()
        assert (me <= 4.0 * md + 1e-10).all()
        assert (me <= mi + 1e-10).all()


def test_exact_grid_cost_gate(monkeypatch):
    from mherz import operators

    g = make_grid(3, 4)  # N = 128 > 64
    f = constant(g, 1.0)
    with pytest.raises(CostGuardError, match="gate"):
        strong_maximal(f, EXACT_GRID)
    monkeypatch.setattr(operators, "EXACT_GATE", 128)
    m = strong_maximal(f, EXACT_GRID)
    assert np.allclose(m.values, 1.0)


# -- majorant iteration ---------------------------------------------------------------


def test_rubio_constant_geometric_sum():
    g = make_grid(2, 2)
    one = constant(g, 1.0)
    for c in (0.75, 1.0, 4.0):
        for K in (1, 3, 8):
            res = rubio_de_francia(one, c, K, DYADIC_SIDES)
            want = sum((2.0 * c) ** (-k) for k in range(K + 1))
            assert np.allclose(res.values, want, rtol=1e-12)
            if c == 1.0:  # the geometric share left beyond the truncation is 2**-K
                assert np.allclose(res.values, 2.0 - 2.0 ** (-K), rtol=1e-12)


def test_rubio_majorizes_input_exactly():
    g = make_grid(2, 2)
    rng = np.random.default_rng(8)
    f = GridFunction(g, rng.normal(size=(16, 16)))
    for c in (0.5, 1.0, 4.0):
        res = rubio_de_francia(f, c, 6, DYADIC_SIDES)
        assert (res.values >= np.abs(f.values)).all()  # exact, no tolerance


def test_rubio_truncated_commutation_bound():
    g = make_grid(2, 3)
    f = build_function(g, builtin="noise", seed=3)
    iters = maximal_iterates(f, 7, DYADIC_SIDES)
    for c in (0.5, 1.0, 4.0):
        rk = rubio_from_iterates(f, iters, c, 6)
        rk1 = rubio_from_iterates(f, iters, c, 7)
        m = strong_maximal(rk, DYADIC_SIDES).values
        assert (m <= 2.0 * c * rk1.values + 1e-10).all()


def test_rubio_monotone_in_K():
    g = make_grid(2, 2)
    f = build_function(g, builtin="noise", seed=4)
    iters = maximal_iterates(f, 5, DYADIC_SIDES)
    prev = rubio_from_iterates(f, iters, 1.0, 1).values
    for K in range(2, 6):
        cur = rubio_from_iterates(f, iters, 1.0, K).values
        assert (cur >= prev).all()
        prev = cur


def test_rubio_parameter_errors():
    g = make_grid(1, 1)
    f = constant(g, 1.0)
    with pytest.raises(ValueError, match="positive"):
        rubio_de_francia(f, 0.0, 3)
    with pytest.raises(ValueError, match="K"):
        rubio_from_iterates(f, maximal_iterates(f, 2), 1.0, 5)


def test_estimate_block_norm_constant():
    g = make_grid(2, 3)
    est = estimate_block_norm_constant(g, ExponentParams(-0.25, 2, 2, 0.5))
    assert math.isfinite(est) and est > 0


def three_probe_block_norm_constant(spec, block_params):
    """Oracle for ``estimate_block_norm_constant``: every probe run, even
    when the low-level and mid-window indicators coincide."""
    mid = (spec.window_low + spec.window_high) // 2
    low = max(0, 1 - spec.s)
    probes = [
        build_function(spec, builtin="indicator", l1=low, l2=low),
        build_function(spec, builtin="indicator", l1=mid, l2=mid),
        build_function(spec, builtin="noise", seed=7),
    ]
    best = 0.0
    for g in probes:
        cur = restrict_to_window(g)
        prev = block_norm_bracket(cur, block_params).upper
        if prev == 0.0:
            continue
        for _ in range(2):
            cur = restrict_to_window(strong_maximal(cur))
            now = block_norm_bracket(cur, block_params).upper
            best = max(best, now / prev)
            prev = now
            if prev == 0.0:
                break
    return best


def test_estimate_block_norm_constant_skips_the_repeated_probe(monkeypatch):
    g = make_grid(3, 4)  # the low and mid-window levels are both 0
    assert max(0, 1 - g.s) == (g.window_low + g.window_high) // 2
    block = ExponentParams(-0.25, 2, 2, 0.5)
    want = three_probe_block_norm_constant(g, block)
    calls = []

    def counted(f, variant=DYADIC_SIDES):
        calls.append(variant)
        return strong_maximal(f, variant)

    monkeypatch.setattr(operators, "strong_maximal", counted)
    assert estimate_block_norm_constant(g, block) == want
    assert len(calls) == 4


# -- singular convolution -----------------------------------------------------------------


def test_cz_closed_form_on_square():
    g = make_grid(3, 5)
    chi = build_function(g, builtin="indicator", bounds=(-1, 1, -1, 1))
    t = cz_apply(chi)
    centers = g.cell_centers()
    for ix in (8, 100, 170, 200, 251):
        for iy in (20, 90, 180, 210, 245):
            x, y = centers[ix], centers[iy]
            want = (
                (1 / math.pi**2)
                * math.log(abs((x + 1) / (x - 1)))
                * math.log(abs((y + 1) / (y - 1)))
            )
            assert t.values[ix, iy] == pytest.approx(want, rel=1e-9), (x, y)


def test_cz_oddness():
    # odd kernel in each axis: T maps even-even functions to odd-odd ones
    g = make_grid(2, 3)
    f = build_function(g, builtin="gaussian", sigma=0.5)
    t = cz_apply(f).values
    assert np.allclose(t, -t[::-1, :], atol=1e-10)
    assert np.allclose(t, -t[:, ::-1], atol=1e-10)


def test_cz_linearity():
    g = make_grid(2, 2)
    rng = np.random.default_rng(9)
    f = GridFunction(g, rng.normal(size=(16, 16)))
    h = GridFunction(g, rng.normal(size=(16, 16)))
    lhs = cz_apply(f.with_values(2.0 * f.values - 3.0 * h.values)).values
    rhs = 2.0 * cz_apply(f).values - 3.0 * cz_apply(h).values
    assert np.allclose(lhs, rhs, atol=1e-10)


def test_cz_principal_value_cell_weight_vanishes():
    # PV over the cell holding the target center is exactly zero for 1/(pi u)
    g = make_grid(1, 2)
    f = indicator(g, GridRectangle(3, 4, 3, 4))
    t = cz_apply(f)
    assert t.values[3, 3] == pytest.approx(0.0, abs=1e-14)


def test_commutator_constant_symbol_vanishes():
    g = make_grid(2, 3)
    f = build_function(g, builtin="noise", seed=12)
    cm = commutator(constant(g, 5.0), f).values
    assert np.abs(cm).max() < 1e-10


def test_commutator_shift_invariance_in_symbol():
    g = make_grid(2, 2)
    rng = np.random.default_rng(13)
    b = GridFunction(g, rng.normal(size=(16, 16)))
    f = GridFunction(g, rng.normal(size=(16, 16)))
    c1 = commutator(b, f).values
    c2 = commutator(b.with_values(b.values + 11.0), f).values
    assert np.allclose(c1, c2, atol=1e-10)


def test_commutator_disjoint_supports_reduces_to_b_Tf():
    g = make_grid(2, 3)
    b = indicator(g, GridRectangle(2, 6, 2, 6))
    f = indicator(g, GridRectangle(20, 26, 20, 26))
    assert (b.values * f.values == 0).all()
    cm = commutator(b, f).values
    want = b.values * cz_apply(f).values
    assert np.allclose(cm, want, atol=1e-12)


# -- kernel conditions -------------------------------------------------------------------


def _assert_hilbert_conditions(n_radii):
    # the size, cancellation and smoothness conditions of 1/(pi u), per axis
    r = np.geomspace(2.0**-6, 2.0**6, n_radii)
    A = lambda u: np.log(np.abs(u)) / math.pi  # the antiderivative _axis_weights uses
    a, b = np.meshgrid(r, r)
    assert np.abs((A(b) - A(a)) + (A(-a) - A(-b))).max() <= 1e-10  # symmetric annuli
    xs = np.concatenate([r, -r])
    K = lambda u: 1.0 / (math.pi * u)
    size = np.abs(np.outer(K(xs), K(xs)) * np.outer(xs, xs))
    assert size.max() == pytest.approx(1 / math.pi**2, rel=1e-12)
    # mean-value bound: |K(x+h)-K(x)| <= (2/pi) |h| / x^2 at h <= x/4
    h = np.abs(xs)[:, None] * np.array([0.25, 0.125, 0.0625])
    ratio = np.abs(K(xs[:, None] + h) - K(xs[:, None])) * xs[:, None] ** 2 / h
    assert ratio.max() <= 2.0 / math.pi + 1e-9


def test_kernel_conditions_double_hilbert():
    _assert_hilbert_conditions(17)
    for spec in (make_grid(2, 3), make_grid(3, 2)):
        W = _axis_weights(spec)
        assert np.array_equal(W, -W[::-1, ::-1])  # W[i, j] == -W[n-1-i, n-1-j]
        i, k = len(W) // 2, np.arange(1, len(W) // 2)
        assert np.abs(W[i, i + k] + W[i, i - k]).max() <= 1e-10  # annuli of cells


def test_kernel_conditions_custom_plan():
    # the same conditions on a coarser sample of radii
    _assert_hilbert_conditions(5)


def test_axis_weights_cached_read_only():
    for spec in (make_grid(1, 1), make_grid(2, 3), make_grid(3, 2), make_grid(3, 4)):
        W = _axis_weights(spec)
        assert np.array_equal(W, _axis_weights.__wrapped__(spec))
        assert _axis_weights(spec) is W
        assert not W.flags.writeable
        with pytest.raises(ValueError):
            W[0, 0] = 1.0
        with pytest.raises(ValueError):
            W *= 2.0
