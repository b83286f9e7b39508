import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy.ndimage import maximum_filter1d

from mherz import grid, operators
from mherz.errors import CostGuardError
from mherz.grid import (
    DyadicRectangle,
    GridFunction,
    GridRectangle,
    _box_sum,
    _prefix_table,
    annulus_comb,
    build_function,
    constant,
    indicator,
    make_grid,
    restrict_to_window,
)
from mherz.norms import ExponentParams, block_norm_upper
from mherz.operators import (
    DYADIC_BLOCK,
    DYADIC_SIDES,
    EXACT_GRID,
    EXACT_GATE,
    ITERATED_1D,
    _axis_weights,
    _maximal_dyadic,
    _maximal_exact,
    _maximal_iterated,
    as_variant,
    commutator,
    cz_apply,
    estimate_block_norm_constant,
    interval_average_profile,
    rubio_de_francia,
    strong_maximal,
)
from mherz.verification import OPERATOR_OBJECTS, extrapolation_block_params, trial_objects
from mherz.weights import generate_a1_weight


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


def _filter_maximal(n, averages):
    """Max over side pairs of the doubly trailing window max of the padded
    box-average tables ``averages(wx, wy)``, by sliding max filters."""
    sides = [1 << a for a in range(n.bit_length())]
    out = np.full((n, n), -np.inf)
    for wy in sides:
        for wx in sides:
            pad = np.full((n, n), -np.inf)
            pad[: n - wx + 1, : n - wy + 1] = averages(wx, wy)
            cov = trailing_window_max(trailing_window_max(pad, wx, 0), wy, 1)
            np.maximum(out, cov, out=out)
    return out


def filter_maximal_dyadic(absv):
    """Semantic oracle for ``_maximal_dyadic``: the direct formulation, with
    the four-corner ``_box_sum`` average of every side pair."""
    P = _prefix_table(absv)

    def averages(wx, wy):
        corners = (np.s_[:-wx], np.s_[wx:], np.s_[:-wy], np.s_[wy:])
        return _box_sum(P, *corners) / float(wx * wy)

    return _filter_maximal(absv.shape[0], averages)


def reassociated_filter_maximal_dyadic(absv):
    """Bit-level oracle for ``_maximal_dyadic``: the same filter form, unblocked,
    with the kernel's reassociated average ``(D[wx:] - D[:-wx]) * (1/wx)`` of
    the column differences ``D = (P[:, wy:] - P[:, :-wy]) * (1/wy)``."""
    P = _prefix_table(absv)

    def averages(wx, wy):
        D = (P[:, wy:] - P[:, :-wy]) * (1.0 / wy)
        return (D[wx:] - D[:-wx]) * (1.0 / wx)

    return _filter_maximal(absv.shape[0], averages)


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


# sizes past one column block of the kernel: 129 runs a full block and a
# one-column one at wy = 1, 200 a full and a ragged one at every side height
# up to 64, and 256 two full blocks at wy = 1 and a full and a ragged one
# (ny = 255) at wy = 2; 300 runs three blocks, the last ragged.  At every
# height with more than one block, each block's y fold reads columns of the
# block to its left, which the right-to-left walk has not yet overwritten
BLOCK_SIZES = (129, 200, 256, 300)


@pytest.mark.parametrize("kind", ["dense", "sparse", "zero", "spike"])
def test_dyadic_kernel_bit_identical_to_filter_oracle(kind):
    rng = np.random.default_rng(0)
    for n in (*range(1, 41), *BLOCK_SIZES):
        a = _table(kind, n, rng)
        assert np.array_equal(_maximal_dyadic(a), reassociated_filter_maximal_dyadic(a)), n


def test_dyadic_kernel_bit_identical_to_filter_oracle_n256():
    a = np.abs(np.random.default_rng(256).normal(size=(256, 256)))
    assert np.array_equal(_maximal_dyadic(a), reassociated_filter_maximal_dyadic(a))


# the reassociated averages differ from the four-corner box sum by rounding:
# at most 6.3e-15 relative for n <= 40 and 3.1e-14 at n = 256 on these tables
@pytest.mark.parametrize("kind", ["dense", "sparse", "zero", "spike"])
def test_dyadic_kernel_close_to_four_corner_oracle(kind):
    rng = np.random.default_rng(0)
    for n in range(1, 41):
        a = _table(kind, n, rng)
        np.testing.assert_allclose(
            _maximal_dyadic(a), filter_maximal_dyadic(a), rtol=1e-13, atol=0, err_msg=str(n)
        )


def test_dyadic_kernel_close_to_four_corner_oracle_n256():
    a = np.abs(np.random.default_rng(256).normal(size=(256, 256)))
    np.testing.assert_allclose(_maximal_dyadic(a), filter_maximal_dyadic(a), rtol=5e-13, atol=0)


@settings(max_examples=60, deadline=None)
@given(
    st.integers(1, 40).flatmap(
        lambda n: hnp.arrays(float, (n, n), elements=st.floats(0.0, 1e300))
    )
)
def test_dyadic_kernel_matches_oracle_on_arbitrary_tables(a):
    assert np.array_equal(_maximal_dyadic(a), reassociated_filter_maximal_dyadic(a))


# every size here spans two or three column blocks at wy = 1, where the y
# fold reads across blocks
@settings(max_examples=15, deadline=None)
@given(
    st.integers(129, 260),
    st.sampled_from(["dense", "sparse", "zero", "spike"]),
    st.integers(0, 2**32 - 1),
)
def test_dyadic_kernel_matches_oracle_across_column_blocks(n, kind, seed):
    a = _table(kind, n, np.random.default_rng(seed))
    assert np.array_equal(_maximal_dyadic(a), reassociated_filter_maximal_dyadic(a))


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


@st.composite
def _lines_from_a_small_pool(draw):
    """A 1-, 2- or 3-D table whose lines (along the last axis) are each drawn
    from a pool of 1-4 lines: a line with a 0.0, its twin with -0.0 there,
    a one-ulp neighbour of the first, and a free line.  Returned as a plain,
    transposed-memory or strided view."""
    n = draw(st.integers(1, 12))
    base = draw(hnp.arrays(float, n, elements=st.floats(0.0, 1e300)))
    k, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
    zero, neg_zero, ulp = base.copy(), base.copy(), base.copy()
    zero[k] = ulp[k] = 0.0
    neg_zero[k] = -0.0
    ulp[j] = np.nextafter(ulp[j], np.inf)
    free = draw(hnp.arrays(float, n, elements=st.floats(-1e300, 1e300)))
    pool = np.stack([zero, neg_zero, ulp, free][: draw(st.integers(1, 4))])
    batch = draw(hnp.array_shapes(min_dims=0, max_dims=2, min_side=1, max_side=6))
    pick = draw(hnp.arrays(np.intp, batch, elements=st.integers(0, len(pool) - 1)))
    a = pool[pick]
    view = draw(st.sampled_from(["plain", "T", "strided"]))
    if view == "T":  # the same table, stored with its axes reversed
        a = np.ascontiguousarray(a.T).T
    elif view == "strided":  # each line every other double of a wider table
        wide = np.full(a.shape[:-1] + (2 * n,), np.pi)
        wide[..., ::2] = a
        a = wide[..., ::2]
    return a


@settings(max_examples=150, deadline=None)
@given(_lines_from_a_small_pool())
def test_interval_profile_of_repeated_lines(a):
    got = interval_average_profile(a)
    assert got.shape == a.shape
    assert np.array_equal(got, staircase_interval_average_profile(a))
    # bit for bit what each line gives alone: -0.0 and 0.0 lines stay apart
    alone = [interval_average_profile(line) for line in a.reshape(-1, a.shape[-1])]
    assert got.tobytes() == np.stack(alone).reshape(a.shape).tobytes()


def test_lines_of_powers_of_two_are_grouped_by_their_bits():
    # such lines differ only in their exponent bits, the top 12 of each word
    a = 2.0 ** -np.random.default_rng(8).integers(0, 8, size=(512, 64))
    assert len({line.tobytes() for line in a}) == 512
    both = np.concatenate([a, a])
    first, inverse = operators._distinct_lines(both)
    assert first.size == 512 and sorted(first % 512) == list(range(512))
    assert np.array_equal(inverse[:512], inverse[512:])
    assert both[first[inverse]].tobytes() == both.tobytes()


def _fold_by_division(P, lengths):
    """The interval fold as a plain loop over rows: each mean divided by its
    length, each row the max with its two parents of the previous length."""
    n = P.shape[0] - 1
    q, prev = [], n + 1
    for L in lengths:
        m = [(P[i + L] - P[i]) / L for i in range(n - L + 1)]
        for i in range(n - L + 1):
            for j in (i, i - (prev - L)):
                if 0 <= j < len(q):
                    m[i] = np.maximum(m[i], q[j])
        q, prev = m, L
    return np.array(q)


@settings(max_examples=80, deadline=None)
@given(
    st.integers(1, 40).flatmap(
        lambda n: hnp.arrays(
            float,
            (n + 1, 3),
            elements=st.floats(-1e300, 1e300) | st.floats(-2.3e-308, 2.3e-308),
        )
    )
)
def test_interval_sweep_on_dyadic_lengths_divides_bit_for_bit(P):
    # a power-of-two length scales by 1 / L instead of dividing by L: the
    # same bits, subnormal and huge means included
    n = P.shape[0] - 1
    sides = [1 << a for a in reversed(range(n.bit_length()))]
    got = operators._interval_sweep(P, sides)
    assert got.tobytes() == _fold_by_division(P, sides).tobytes()


def test_iterated_1d_sweeps_each_distinct_line_once(monkeypatch):
    swept = []
    distinct = operators._distinct_lines

    def counting(lines):
        first, inverse = distinct(lines)
        swept.append((len(lines), first.size, len({line.tobytes() for line in lines})))
        return first, inverse

    monkeypatch.setattr(operators, "_distinct_lines", counting)
    # the constant cut to the window has two kinds of line, and so does its
    # profile: each pass sweeps two lines, not N
    g = make_grid(2, 4)  # N = 64
    strong_maximal(restrict_to_window(constant(g, 1.0)), ITERATED_1D)
    assert swept == [(64, 2, 2), (64, 2, 2)]
    # on the maximal suite's objects at N = 256: 2 to 256 distinct lines
    # per pass, each swept once
    swept.clear()
    g = make_grid(3, 5)
    for _, build in trial_objects(OPERATOR_OBJECTS, g, 2024):
        strong_maximal(build(g), ITERATED_1D)
    assert all(k == m for _, k, m in swept)
    assert sorted(k for _, k, _ in swept) == [2, 2, 2, 2, 8, 113, 127, 128, 253, 255, 256, 256]


def test_iterated_1d_output_needs_no_copy():
    # the gathered profiles keep the sweep's layout: the kernel's output is
    # C-ordered, so GridFunction._adopt holds it as it is
    a = np.abs(np.random.default_rng(4).normal(size=(16, 16)))
    a[::3] = 1.0  # repeated lines in both passes
    assert _maximal_iterated(a).flags.c_contiguous
    assert interval_average_profile(a).T.flags.c_contiguous


@pytest.mark.parametrize("kernel", [_maximal_exact, _maximal_dyadic])
def test_kernel_output_needs_no_copy(kernel):
    # GridFunction._adopt makes any table C-ordered, so a test after it
    # cannot see a kernel output that it had to copy: check the raw output
    for n in (8, 16):
        a = np.abs(np.random.default_rng(n).normal(size=(n, n)))
        out = kernel(a)
        assert out.dtype == np.float64 and out.flags.c_contiguous and out.shape == (n, n)


def test_iterated_1d_kernel_bit_identical_to_staircase_n256():
    a = np.abs(np.random.default_rng(257).normal(size=(256, 256)))
    assert np.array_equal(_maximal_iterated(a), staircase_iterated_1d(a))


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
    assert np.array_equal(_maximal_iterated(a), staircase_iterated_1d(a))


def test_operator_outputs_are_adopted_frozen_tables(monkeypatch):
    # the kernels' fresh outputs are held without a copy, checked and frozen
    # like any GridFunction, and share no memory with their inputs
    g = make_grid(2, 3)
    f = restrict_to_window(build_function(g, builtin="noise", seed=2))
    b = build_function(g, builtin="noise", seed=3)

    def refuse(self, spec, values):
        raise AssertionError("a fresh library table went through GridFunction()")

    monkeypatch.setattr(GridFunction, "__init__", refuse)
    outs = [strong_maximal(f, v) for v in (EXACT_GRID, DYADIC_SIDES, ITERATED_1D)]
    block = extrapolation_block_params(ExponentParams(0.2, 4, 4, 0.2), 2.0)
    outs += [cz_apply(f), commutator(b, f), rubio_de_francia(f, 2.0, 2)]
    outs += [generate_a1_weight(f, 2.0, 2, block_params=p).fn for p in (None, block)]
    outs.append(annulus_comb(g))
    tables = [out.values for out in outs]
    for t in tables:
        assert not t.flags.writeable and t.flags.c_contiguous
        assert not np.shares_memory(t, f.values)
        assert not np.shares_memory(t, b.values)
    assert not any(np.shares_memory(s, t) for k, s in enumerate(tables) for t in tables[:k])


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


def _dyadic_sides_peak_slabs(g):
    """Traced peak of ``strong_maximal(., dyadic-sides)`` on noise, in N**2
    doubles."""
    n = g.n_cells
    f = build_function(g, builtin="noise", seed=5)
    tracemalloc.start()
    try:
        strong_maximal(f, DYADIC_SIDES)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak / (8 * n * n)


def test_dyadic_sides_memory_is_a_few_slabs():
    # prefix table and output, three N x 128 column-block buffers and
    # numpy's fixed 128 kB ufunc buffer for strided operands, with no |f|
    # beside them and no copy of an overlapping view: about 3.8 N**2
    assert _dyadic_sides_peak_slabs(make_grid(5, 3)) < 4.0  # N = 256


def test_dyadic_sides_memory_at_n512():
    # the column-block buffers shrink relative to N**2: about 2.8 N**2
    assert _dyadic_sides_peak_slabs(make_grid(6, 3)) < 3.0  # N = 512


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
    mixed = GridFunction(f.spec, rng.uniform(-1.0, 1.0, size=(8, 8)) * 1e308)
    for variant in (EXACT_GRID, DYADIC_SIDES, ITERATED_1D):
        assert (strong_maximal(f, variant).values == 1e308).all()
        m = strong_maximal(mixed, variant).values
        assert np.isfinite(m).all()
        assert (m >= np.abs(mixed.values)).all()
    # at N = 512 the scaled |f| spans four column blocks of dyadic-sides.
    # 2**1023 scales to 0.5, whose prefix sums are exact, so its maximal
    # function is too; 1e308 scales to a mantissa whose prefix sums round,
    # which leaves its maximal function up to 2.9e-11 relative above it
    g = make_grid(3, 6)
    assert (strong_maximal(constant(g, 2.0**1023), DYADIC_SIDES).values == 2.0**1023).all()
    f = constant(g, 1e308)
    np.testing.assert_allclose(strong_maximal(f, DYADIC_SIDES).values, 1e308, rtol=3e-10, atol=0)
    mixed = GridFunction(f.spec, rng.uniform(-1.0, 1.0, size=(512, 512)) * 1e308)
    m = strong_maximal(mixed, DYADIC_SIDES).values
    assert np.isfinite(m).all()
    assert (m >= np.abs(mixed.values)).all()


def test_maximal_1d_slice_interval_average():
    # 1-D check: the maximal value of chi_[0,1] at x = 2 is 1/2 (interval [0,2])
    g = make_grid(3, 4)  # box [-4,4], h = 1/16
    n = g.n_cells
    v = np.zeros(n)
    a, b, x2 = (n // 2 + 16 * x for x in (0, 1, 2))  # the cells starting at x = 0, 1 and 2
    v[a:b] = 1.0
    prof = interval_average_profile(v)
    # brute-force oracle over intervals
    want = max(
        v[i0:i1].mean() for i0 in range(x2 + 1) for i1 in range(x2 + 1, n + 1)
    )
    assert prof[x2] == pytest.approx(want, rel=1e-12)
    assert prof[x2] == pytest.approx(0.5, abs=g.h)


def test_maximal_2d_unit_square_at_2_half():
    g = make_grid(2, 4)  # box [-2,2], h = 1/16, N = 64
    mid = g.n_cells // 2  # the cell starting at 0
    chi = indicator(g, GridRectangle(mid, mid + 16, mid, mid + 16))  # [0,1] x [0,1]
    m = strong_maximal(chi, EXACT_GRID)
    # best rectangle containing (2-, 1/2) is [0,2] x [0,1]: average 1/2
    ix = g.n_cells - 1  # cell touching x = 2
    iy = mid + 8  # the cell starting at y = 1/2
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
        msum = strong_maximal(GridFunction(f.spec, f.values + h.values), variant).values
        assert (msum <= mf + mh + 1e-12).all()
        assert (mf >= np.abs(f.values)).all()


@settings(max_examples=30, deadline=None)
@given(
    st.tuples(st.integers(1, 5), st.integers(0, 5))
    .filter(lambda t: 2 <= sum(t) <= 6)
    .map(lambda t: make_grid(*t)),
    st.integers(0, 10**6),
)
def test_maximal_commutes_with_power_of_two_scaling(spec, seed):
    # every average and maximum scales exactly by 8: bit-equal outputs
    f = restrict_to_window(build_function(spec, builtin="noise", seed=seed))
    for variant in (DYADIC_SIDES, ITERATED_1D):
        mf = strong_maximal(f, variant).values
        m8f = strong_maximal(GridFunction(spec, 8.0 * f.values), variant).values
        assert np.array_equal(m8f, 8.0 * mf), variant


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


# -- symmetries ----------------------------------------------------------------
#
# The grid, its window and the exact-grid and dyadic-sides families are
# invariant under both reflections and the transpose, so those operators
# commute with them; iterated-1d maximises in y, then in x, so it commutes
# with the reflections only.  Only the prefix-sum rounding moves.  Each
# tolerance is about 10x the largest error measured over every grid with
# 1 <= L_max + s <= 7 (N <= EXACT_GATE for exact-grid), 12 noise functions
# each: 1.5e-12 for dyadic-sides, 1.1e-14 for exact-grid and 2.5e-14 for
# iterated-1d.  These checks use no kernel code: the images are plain array
# views.  An operator that maximises along one axis only fails the
# transpose; one whose averages read one cell off fails a reflection.

ADMITTED_GRIDS_N128 = (
    st.tuples(st.integers(1, 7), st.integers(0, 6))
    .filter(lambda t: sum(t) <= 7)
    .map(lambda t: make_grid(*t))
)

MOVES = {
    "x-reflection": lambda a: a[::-1, :],
    "y-reflection": lambda a: a[:, ::-1],
    "transpose": lambda a: a.T,
}


def masked_noise(spec, seed):
    return restrict_to_window(build_function(spec, builtin="noise", seed=seed))


def assert_maximal_commutes(f, variant, moves, rtol):
    mf = strong_maximal(f, variant).values
    for name in moves:
        move = MOVES[name]
        image = strong_maximal(GridFunction(f.spec, move(f.values)), variant).values
        np.testing.assert_allclose(move(image), mf, rtol=rtol, atol=0, err_msg=name)


@settings(max_examples=25, deadline=None)
@given(ADMITTED_GRIDS_N128, st.integers(0, 10**6))
def test_dyadic_sides_commutes_with_reflections_and_transpose(spec, seed):
    assert_maximal_commutes(masked_noise(spec, seed), DYADIC_SIDES, MOVES, 1.5e-11)


@settings(max_examples=15, deadline=None)
@given(ADMITTED_GRIDS_N128.filter(lambda spec: spec.n_cells <= EXACT_GATE), st.integers(0, 10**6))
def test_exact_grid_commutes_with_reflections_and_transpose(spec, seed):
    assert_maximal_commutes(masked_noise(spec, seed), EXACT_GRID, MOVES, 1.1e-13)


@settings(max_examples=15, deadline=None)
@given(ADMITTED_GRIDS_N128, st.integers(0, 10**6))
def test_iterated_1d_commutes_with_reflections(spec, seed):
    reflections = ("x-reflection", "y-reflection")
    assert_maximal_commutes(masked_noise(spec, seed), ITERATED_1D, reflections, 2.5e-13)


@settings(max_examples=25, deadline=None)
@given(ADMITTED_GRIDS_N128, st.integers(0, 10**6))
def test_cz_apply_odd_under_reflections_and_commutes_with_transpose(spec, seed):
    # T f = W f W^T with W[i, j] == -W[n-1-i, n-1-j] exactly, so T is odd
    # under each reflection and commutes with the transpose; only the
    # products' summation order moves.  The tolerance, relative to max |T f|,
    # is about 10x the largest error measured as above (2.4e-15).  The
    # identity and a one-axis W f are not odd in both axes
    f = build_function(spec, builtin="noise", seed=seed, low=-1.0, high=1.0)
    tf = cz_apply(f).values
    atol = 2.5e-14 * np.abs(tf).max()
    for name, sign in (("x-reflection", -1.0), ("y-reflection", -1.0), ("transpose", 1.0)):
        move = MOVES[name]
        image = cz_apply(GridFunction(spec, move(f.values))).values
        np.testing.assert_allclose(move(image), sign * tf, rtol=0, atol=atol, err_msg=name)


@settings(max_examples=25, deadline=None)
@given(ADMITTED_GRIDS_N128, st.integers(0, 10**6))
def test_iterated_1d_transposed_is_the_x_first_composition(spec, seed):
    # iterated-1d maximises in y, then in x; the two orders differ (by up to
    # 26 % on noise), so the transpose must give exactly the other order
    f = masked_noise(spec, seed)
    a = np.abs(f.values)
    want = np.maximum(staircase_iterated_1d(a.T).T, a)  # x first, then y
    got = strong_maximal(GridFunction(spec, f.values.T), ITERATED_1D).values.T
    assert np.array_equal(got, want)
    # both orders dominate the dyadic-sides operator, and for N <= EXACT_GATE
    # the exact-grid one, which dominates dyadic-sides and is within 4x of
    # it; to rtol 1e-11, about 10x the largest prefix-sum rounding measured
    # over every grid with 1 <= L_max + s <= 7 (1.0e-12)
    tol = 1 + 1e-11
    md = strong_maximal(f, DYADIC_SIDES).values
    lower = md
    if spec.n_cells <= EXACT_GATE:
        me = strong_maximal(f, EXACT_GRID).values
        assert (md <= me * tol).all() and (me <= 4.0 * md * tol).all()
        lower = me
    for order in (strong_maximal(f, ITERATED_1D).values, got):
        assert (lower <= order * tol).all()


# -- scratch alignment ----------------------------------------------------------
#
# The kernels' scratch starts on a 64-byte line (grid._aligned_empty), which
# speeds their out-of-place writes and must move no bit: no result may depend
# on where the scratch starts or on what it held.  The offset scratch below
# starts 8, 16 or 48 bytes past a line and is filled with a value that a read
# of an entry the kernel did not write would carry into the result.

SCRATCH_FILL = {8: np.nan, 16: np.inf, 48: 1e300}  # offset in bytes: fill


def offset_empty(offset):
    """A stand-in for ``grid._aligned_empty`` whose arrays start ``offset``
    bytes past a 64-byte line, filled with ``SCRATCH_FILL[offset]``."""

    def empty(size):
        a = grid._aligned_empty(size + 8)[offset // 8 :][:size]
        a.fill(SCRATCH_FILL[offset])
        return a

    return empty


@st.composite
def _scaled_tables(draw):
    """An admitted grid and a table on it: signed noise, sparse noise (many
    zero lines) or rows drawn from a pool of three, scaled by 2**0 or 2**+-600."""
    spec = draw(ADMITTED_GRIDS_N128)
    n = spec.n_cells
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    values = rng.uniform(-1.0, 1.0, (n, n))
    kind = draw(st.sampled_from(["noise", "sparse", "pooled"]))
    if kind == "sparse":
        values *= rng.random((n, n)) < 0.05
    elif kind == "pooled":
        values = values[rng.integers(0, min(3, n), n)]
    return spec, np.ldexp(values, draw(st.sampled_from([0, 600, -600])))


@settings(max_examples=60, deadline=None)
@given(_scaled_tables(), st.booleans())
def test_interval_sweep_bits_do_not_depend_on_its_slabs(table, dyadic):
    _, a = table
    n = a.shape[0]
    P = np.zeros((n + 1, n))
    np.cumsum(a, axis=0, out=P[1:])
    lengths = [1 << e for e in reversed(range(n.bit_length()))] if dyadic else None
    want = operators._interval_sweep(P, lengths).view(np.int64)  # aligned slabs
    for offset in SCRATCH_FILL:
        empty = offset_empty(offset)
        got = operators._interval_sweep(P, lengths, (empty(n * n), empty(n * n)))
        assert np.array_equal(got.view(np.int64), want), offset


@settings(max_examples=25, deadline=None)
@given(_scaled_tables(), st.sampled_from([DYADIC_SIDES, ITERATED_1D]))
def test_maximal_bits_do_not_depend_on_its_scratch(table, variant):
    f = GridFunction(*table)
    want = strong_maximal(f, variant).values.view(np.int64)
    # np.empty is the scratch the kernels took before alignment
    for empty in (np.empty, *map(offset_empty, SCRATCH_FILL)):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(operators, "_aligned_empty", empty)
            got = strong_maximal(f, variant).values
        assert np.array_equal(got.view(np.int64), want), empty


def test_kernels_take_their_scratch_from_the_aligned_helper(monkeypatch):
    sizes = []

    def counting(size):
        sizes.append(size)
        return grid._aligned_empty(size)

    monkeypatch.setattr(operators, "_aligned_empty", counting)
    f = build_function(make_grid(3, 5), builtin="noise", seed=5)  # N = 256
    strong_maximal(f, DYADIC_SIDES)
    # two slabs and the column differences, once per call
    assert sizes == [256 * DYADIC_BLOCK, 256 * DYADIC_BLOCK, 257 * DYADIC_BLOCK]
    sizes.clear()
    strong_maximal(f, ITERATED_1D)
    assert sizes == [256 * 256] * 4  # two slabs per pass, on 256 distinct lines


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
    for c in (0.5, 1.0, 4.0):
        rk = rubio_de_francia(f, c, 6, DYADIC_SIDES)
        rk1 = rubio_de_francia(f, c, 7, DYADIC_SIDES)
        m = strong_maximal(rk, DYADIC_SIDES).values
        assert (m <= 2.0 * c * rk1.values + 1e-10).all()


def test_rubio_monotone_in_K():
    g = make_grid(2, 2)
    f = build_function(g, builtin="noise", seed=4)
    prev = rubio_de_francia(f, 1.0, 1, DYADIC_SIDES).values
    for K in range(2, 6):
        cur = rubio_de_francia(f, 1.0, K, DYADIC_SIDES).values
        assert (cur >= prev).all()
        prev = cur


def test_rubio_parameter_errors():
    g = make_grid(1, 1)
    f = constant(g, 1.0)
    with pytest.raises(ValueError, match="positive"):
        rubio_de_francia(f, 0.0, 3)
    with pytest.raises(ValueError, match="positive"):
        rubio_de_francia(f, -1.0, 3)
    with pytest.raises(ValueError, match="K must be an integer >= 1"):
        rubio_de_francia(f, 1.0, 0)


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
        prev = block_norm_upper(cur, block_params)
        if prev == 0.0:
            continue
        for _ in range(2):
            cur = restrict_to_window(strong_maximal(cur))
            now = block_norm_upper(cur, block_params)
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
    chi = build_function(g, builtin="indicator", l1=1, l2=1)  # [-1,1] x [-1,1]
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
    lhs = cz_apply(GridFunction(f.spec, 2.0 * f.values - 3.0 * h.values)).values
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
    c2 = commutator(GridFunction(b.spec, b.values + 11.0), f).values
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
