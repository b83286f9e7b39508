import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy.ndimage import minimum_filter1d

import mherz
from mherz.grid import (
    DyadicRectangle,
    GridFunction,
    GridRectangle,
    build_function,
    constant,
    indicator,
    make_grid,
    restrict_to_window,
)
from mherz.norms import ExponentParams, RectangleFamily, lp_norm
from mherz.operators import DYADIC_SIDES, rubio_de_francia, strong_maximal
from mherz.weights import (
    _forward_window_min,
    ap_star_characteristic,
    generate_a1_weight,
    make_weight,
    weighted_lp_norm,
)

G = make_grid(2, 3)
FAM = RectangleFamily("dyadic-sides", stride=1)


def test_make_weight_requires_positivity():
    with pytest.raises(ValueError, match="strictly positive"):
        make_weight(constant(G, 0.0))


def test_identity_weight_characteristic_one():
    w = make_weight(constant(G, 1.0))
    for p in (1.0, 1.5, 2.0, 4.0):
        assert ap_star_characteristic(w, p, FAM) == pytest.approx(1.0, abs=1e-12)


def test_characteristic_at_least_one_and_constant_iff_one():
    rng = np.random.default_rng(0)
    w = make_weight(GridFunction(G, rng.uniform(0.5, 2.0, size=(32, 32))))
    assert ap_star_characteristic(w, 2.0, FAM) >= 1.0
    step = make_weight(build_function(G, builtin="step", l1=0, l2=0, inside=4.0, outside=1.0))
    assert ap_star_characteristic(step, 2.0, FAM) > 1.0
    assert ap_star_characteristic(make_weight(constant(G, 7.0)), 2.0, FAM) == pytest.approx(1.0)


def test_power_weight_characteristic_grows_toward_boundary():
    # |x|^a per axis: the A_2 boundary per axis is a = 1, so the
    # characteristic grows as a -> 1
    vals = []
    for a in (0.3, 0.5, 0.7):
        w = make_weight(build_function(G, builtin="power", a=a, b=0.0))
        vals.append(ap_star_characteristic(w, 2.0, FAM))
    assert vals[0] < vals[1] < vals[2]
    assert all(math.isfinite(v) for v in vals)


def test_characteristic_vectorized_matches_enumerated():
    rng = np.random.default_rng(1)
    w = make_weight(GridFunction(G, rng.uniform(0.25, 4.0, size=(32, 32))))
    fam_enum = RectangleFamily("dyadic-sides", stride=2)
    for p in (1.0, 2.0, 3.0):
        fast = ap_star_characteristic(w, p, FAM)
        # slow path via stride != 1 visits a subset, so it is dominated
        slow = ap_star_characteristic(w, p, fam_enum)
        assert slow <= fast + 1e-12
    # direct oracle on a small explicit family
    rects = [GridRectangle(0, 4, 0, 4), GridRectangle(3, 17, 5, 9)]
    got = ap_star_characteristic(w, 2.0, rects)
    want = 0.0
    for r in rects:
        sl = np.s_[r.ix0 : r.ix1, r.iy0 : r.iy1]
        aw = w.values[sl].mean()
        au = (1.0 / w.values[sl]).mean()
        want = max(want, aw * au)
    assert got == pytest.approx(want, rel=1e-12)
    # p = 1 enumerated path and its oracle
    got1 = ap_star_characteristic(w, 1.0, rects)
    want1 = max(
        w.values[r.ix0 : r.ix1, r.iy0 : r.iy1].mean()
        / w.values[r.ix0 : r.ix1, r.iy0 : r.iy1].min()
        for r in rects
    )
    assert got1 == pytest.approx(want1, rel=1e-12)


def scipy_forward_window_min(a, w, axis):
    """Oracle: the sliding-window minimum filter the doubling minimum replaced,
    cut to the ``n - w + 1`` full windows."""
    out = minimum_filter1d(a, size=w, axis=axis, origin=-(w // 2), mode="constant", cval=np.inf)
    return np.take(out, np.arange(a.shape[axis] - w + 1), axis=axis)


@pytest.mark.parametrize("kind", ["random", "integer"])
def test_forward_window_min_matches_filter(kind):
    rng = np.random.default_rng(11)
    for n in range(1, 41):
        for axis in (0, 1):
            shape = (n, 5) if axis == 0 else (5, n)
            if kind == "random":
                a = rng.uniform(0.1, 10.0, size=shape)
            else:  # ties between window minima
                a = rng.integers(0, 4, size=shape).astype(float)
            for w in range(1, n + 1):
                got = _forward_window_min(a, w, axis)
                assert np.array_equal(got, scipy_forward_window_min(a, w, axis)), (n, w, axis)


@settings(max_examples=60, deadline=None)
@given(
    hnp.arrays(
        float,
        st.tuples(st.integers(1, 24), st.integers(1, 24)),
        elements=st.floats(-1e6, 1e6, allow_nan=False),
    ),
    st.data(),
)
def test_forward_window_min_matches_filter_property(a, data):
    axis = data.draw(st.sampled_from([0, 1]))
    w = data.draw(st.integers(1, a.shape[axis]))
    assert np.array_equal(_forward_window_min(a, w, axis), scipy_forward_window_min(a, w, axis))


@pytest.mark.parametrize("p", [1.0, 2.0])
def test_exact_grid_characteristic_matches_enumerated(p):
    # exact-grid widths are every integer, not only powers of two
    g = make_grid(1, 3)  # N = 16
    rng = np.random.default_rng(6)
    w = make_weight(GridFunction(g, rng.uniform(0.25, 4.0, size=(16, 16))))
    fam = RectangleFamily("exact-grid", stride=1)
    fast = ap_star_characteristic(w, p, fam)
    slow = ap_star_characteristic(w, p, fam.rectangles(g))
    assert fast == pytest.approx(slow, rel=1e-12)


def test_runtime_does_not_import_scipy():
    src = Path(mherz.__file__).resolve().parent.parent
    code = """
import sys
from mherz.grid import build_function, make_grid
from mherz.norms import ExponentParams, RectangleFamily
from mherz.verification import check_maximal_bounds
from mherz.weights import ap_star_characteristic, make_weight

g = make_grid(2, 3)
w = make_weight(build_function(g, builtin="noise", seed=1, low=0.5, high=2.0))
assert ap_star_characteristic(w, 1.0, RectangleFamily("dyadic-sides", stride=1)) >= 1.0
pr = ExponentParams(0.25, 2, 2, 0.5)
rep = check_maximal_bounds(g, "morrey-herz", pr, trials=3, refine=False)
assert rep.status == "pass", rep.status
print(sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
"""
    out = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True,
        text=True,
        check=True,
    )
    assert out.stdout.strip() == "[]"


def test_characteristic_monotone_in_p():
    rng = np.random.default_rng(2)
    w = make_weight(GridFunction(G, rng.uniform(0.5, 3.0, size=(32, 32))))
    c1 = ap_star_characteristic(w, 1.0, FAM)
    c2 = ap_star_characteristic(w, 2.0, FAM)
    c4 = ap_star_characteristic(w, 4.0, FAM)
    assert c1 + 1e-12 >= c2 >= c4 - 1e-12


@pytest.mark.parametrize("c", [2.0**-1000, 1.0, 1e300, 1e307, np.finfo(float).max])
def test_constant_weight_characteristic_is_one_at_every_scale(c):
    # stride 1 takes the all-positions path, stride 2 the enumerated one
    g = make_grid(2, 2)
    w = make_weight(constant(g, c))
    for fam in (FAM, RectangleFamily("dyadic-sides", stride=2)):
        for p in (1.0, 2.0, 3.0):
            assert ap_star_characteristic(w, p, fam) == pytest.approx(1.0, rel=1e-12), (fam, p)


@settings(max_examples=20, deadline=None)
@given(
    st.tuples(st.integers(1, 6), st.integers(0, 5)).filter(lambda t: sum(t) <= 6),
    st.integers(0, 10**6),
    st.sampled_from([1.0, 1.5, 2.0, 3.0]),
)
def test_characteristic_invariant_under_reflections_and_transpose(levels, seed, p):
    # the stride-1 dyadic-sides family is closed under both reflections and
    # the transpose; only the prefix-sum rounding moves.  rtol is about 10x
    # the largest error measured over every grid with 1 <= L_max + s <= 6,
    # 12 weights each at these p (4.2e-13).  A u box read one cell off the
    # w box fails a reflection
    g = make_grid(*levels)
    noise = build_function(g, builtin="noise", seed=seed, low=-3.0, high=3.0)
    w = make_weight(GridFunction(g, np.exp(noise.values)))
    want = ap_star_characteristic(w, p, FAM)
    for name, move in (
        ("x-reflection", lambda a: a[::-1, :]),
        ("y-reflection", lambda a: a[:, ::-1]),
        ("transpose", lambda a: a.T),
    ):
        got = ap_star_characteristic(make_weight(GridFunction(g, move(w.values))), p, FAM)
        assert got == pytest.approx(want, rel=4.3e-12, abs=0), name


@pytest.mark.parametrize("c", [2.0**-1000, 1.0, 1e300])
def test_wide_range_weight_characteristic_near_p_one(c):
    # cells of c and 4096c at p = 1.01: 4096**(1/(p-1)) = 2**1200 is past the
    # float range, so u = w**(-1/(p-1)) must be built where it is at most 1
    g = make_grid(2, 2)  # N = 16
    n = g.n_cells
    ones = np.random.default_rng(0).random((n, n)) < 0.5
    w = make_weight(GridFunction(g, np.where(ones, c, 4096.0 * c)))
    fam = RectangleFamily("dyadic-sides", stride=1)
    rects = fam.rectangles(g)
    for p in (1.0, 1.01):
        # per rectangle with a cells of c and b of 4096c: the 2**-1200 share
        # the 4096c cells add to avg(u) is below any float rounding of a/(a+b)
        expected = 1.0
        for r in rects:
            sl = np.s_[r.ix0 : r.ix1, r.iy0 : r.iy1]
            a = int(ones[sl].sum())
            cells = r.cells()
            if a:
                expected = max(expected, (a + 4096 * (cells - a)) / cells * (a / cells) ** (p - 1.0))
        with np.errstate(over="raise", invalid="raise"):
            for path in (fam, rects):
                assert ap_star_characteristic(w, p, path) == pytest.approx(expected, rel=1e-12), p


def test_weighted_lp_reduces_to_lp():
    rng = np.random.default_rng(3)
    f = GridFunction(G, rng.normal(size=(32, 32)))
    w = make_weight(constant(G, 1.0))
    for p in (1.0, 2.0, 3.0):
        assert weighted_lp_norm(f, w, p) == pytest.approx(lp_norm(f, p), rel=1e-12)


def test_weighted_lp_indicator():
    rng = np.random.default_rng(4)
    w = make_weight(GridFunction(G, rng.uniform(0.5, 2.0, size=(32, 32))))
    r = GridRectangle(4, 12, 6, 20)
    chi = indicator(G, r)
    for p in (1.0, 2.0):
        want = (w.values[4:12, 6:20].sum() * G.h**2) ** (1 / p)
        assert weighted_lp_norm(chi, w, p) == pytest.approx(want, rel=1e-12)


def test_weighted_lp_matches_direct():
    rng = np.random.default_rng(5)
    f = GridFunction(G, rng.normal(size=(32, 32)))
    w = make_weight(GridFunction(G, rng.uniform(0.1, 5.0, size=(32, 32))))
    direct = ((np.abs(f.values) ** 2.5 * w.values).sum() * G.h**2) ** (1 / 2.5)
    assert weighted_lp_norm(f, w, 2.5) == pytest.approx(direct, rel=1e-12)


def test_weighted_lp_parameter_errors():
    f = constant(G, 1.0)
    w = make_weight(constant(G, 1.0))
    with pytest.raises(ValueError):
        weighted_lp_norm(f, w, math.inf)


def test_generate_a1_weight_constant_input():
    w = generate_a1_weight(constant(G, 1.0), 1.0, 4)
    assert np.ptp(w.values) < 1e-12
    assert w.provenance["K"] == 4
    assert w.provenance["tail_factor"] == 2.0**-4


def test_generate_a1_weight_zero_rejected():
    with pytest.raises(ValueError, match="degenerate"):
        generate_a1_weight(constant(G, 0.0), 1.0, 4)


def test_generated_weight_shape_from_indicator():
    h = restrict_to_window(indicator(G, DyadicRectangle(0, 0)))
    w = generate_a1_weight(h, 1.0, 6, DYADIC_SIDES)
    assert (w.values > 0).all()
    mid = G.n_cells // 2
    # along the positive x-axis row the profile decays away from the support
    row = w.values[:, mid + 1]
    inside = row[mid]
    corner = row[-1]
    assert inside > corner


def test_generated_weight_a1_characteristic_bound():
    for seed in range(10):
        h = build_function(G, builtin="noise", seed=[71, seed])
        for c in (1.0, 4.0):
            w = generate_a1_weight(h, c, 8, DYADIC_SIDES)
            char = ap_star_characteristic(w, 1.0, FAM)
            assert char <= 2.0 * c * 1.1


def test_generated_weight_maximal_truncation_bound():
    h = build_function(G, builtin="noise", seed=72)
    c, K = 1.0, 6
    w = rubio_de_francia(h, c, K, DYADIC_SIDES)
    nxt = rubio_de_francia(h, c, K + 1, DYADIC_SIDES)
    m = strong_maximal(w, DYADIC_SIDES).values
    assert (m <= 2.0 * c * nxt.values + 1e-10).all()


def test_generate_a1_weight_records_block_bracket():
    h = restrict_to_window(build_function(G, builtin="noise", seed=73))
    block = ExponentParams(-0.25, 2, 2, 0.5)
    w = generate_a1_weight(h, 1.0, 4, DYADIC_SIDES, block_params=block)
    assert w.provenance["h_block_upper"] is not None
    assert w.provenance["h_block_upper"] > 0
