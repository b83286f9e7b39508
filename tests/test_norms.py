import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mherz.cli import emit
from mherz.errors import CostGuardError, DataError, PredicateError, SupportWindowError
from mherz.grid import (
    AnnulusIndex,
    DyadicRectangle,
    GridFunction,
    GridRectangle,
    _box_sum,
    _prefix_table,
    _require_finite,
    annulus_mask_1d,
    annulus_restrict,
    build_function,
    constant,
    indicator,
    make_grid,
    restrict_to_window,
    window_mask,
)
from mherz import norms
from mherz.norms import (
    ExponentParams,
    NormBracket,
    RectangleFamily,
    _block_upper_bounds,
    _cell_counts,
    _clip_runs,
    _count_table,
    _family_rectangles,
    _herz_from_table,
    _indicator_denominators,
    _indicator_norms,
    _level_weights,
    _lp_table,
    _morrey_herz_from_table,
    _oscillation_sweep,
    _rect_counts,
    annulus_lp_table,
    block_norm_bracket,
    bmo_mk_norm,
    bmo_norm,
    char_rect_norm_closed_form,
    conjugate_exponent,
    herz_norm,
    lp_norm,
    morrey_herz_norm,
    pairing_l1,
    predicate_violations,
    require_predicate,
    smallest_containing_dyadic,
)
from mherz import verification
from mherz.verification import (
    InequalityReport,
    TrialRecord,
    _norm_product_sweep,
)

G35 = make_grid(3, 5)
PR = ExponentParams(0.25, 2, 2, 0.5)


def masked_chi(spec, l1, l2):
    return restrict_to_window(indicator(spec, DyadicRectangle(l1, l2)))


def masked_noise(spec, seed):
    return restrict_to_window(build_function(spec, builtin="noise", seed=seed))


def window_indicator_table(spec, rect, p):
    """The annulus table of the window-masked indicator of ``rect``, from its counts."""
    return _count_table(spec, _rect_counts(spec, [rect])[0], p)


# -- exponents ----------------------------------------------------------------


def test_conjugate_exponent():
    assert conjugate_exponent(2.0) == 2.0
    assert conjugate_exponent(4.0) == pytest.approx(4.0 / 3.0)
    assert conjugate_exponent(1.0) == math.inf
    assert conjugate_exponent(math.inf) == 1.0
    # the conjugate of q <= 1 is infinity by convention
    assert conjugate_exponent(0.5) == math.inf


def test_predicates():
    assert predicate_violations(PR, "ms_herz") == []
    assert predicate_violations(ExponentParams(0.6, 2, 2), "ms_herz")  # alpha at/after 1 - 1/p
    assert predicate_violations(PR, "char") == []
    assert predicate_violations(ExponentParams(0.0, 2, 2, 0.9), "char")
    assert predicate_violations(ExponentParams(-0.25, 2, 2, 0.5), "block") == []
    assert predicate_violations(PR, "block")  # -alpha + n/p' = 0.25 < 0.5
    with pytest.raises(ValueError, match="unknown predicate"):
        predicate_violations(PR, "banach")


def test_predicate_error_names_inequality():
    with pytest.raises(PredicateError, match="alpha"):
        require_predicate(ExponentParams(0.0, 2, 2, 0.9), "char")


def test_dual_params():
    d = PR.dual()
    assert d.alpha == -0.25 and d.p == 2.0 and d.q == 2.0 and d.lam == 0.5


def test_exponent_validation():
    with pytest.raises(ValueError):
        ExponentParams(0, -1, 2)
    with pytest.raises(ValueError):
        ExponentParams(0, 2, 2, -0.1)
    # a bool or a float would pass n >= 1 and reach a report as true or 1.5
    for dims in ({"n": 1.5}, {"n": True}, {"m": 2.0}, {"m": False}, {"n": 0}, {"m": np.int64(-1)}):
        with pytest.raises(ValueError, match="n and m must be positive integers"):
            ExponentParams(0.25, 2, 2, 0.5, **dims)
    pr = ExponentParams(0.25, 2, 2, 0.5, n=np.int64(2), m=np.int32(3))
    assert (pr.n, pr.m) == (2, 3)


# -- L^p ------------------------------------------------------------------------


def test_lp_unit_indicator():
    g = make_grid(2, 3)
    chi = indicator(g, DyadicRectangle(0, 0))
    assert lp_norm(chi, 2) == pytest.approx(1.0, abs=1e-14)


def test_lp_constant_closed_form():
    g = make_grid(2, 2)
    area = 16.0
    for p in (0.5, 1, 2, 3):
        assert lp_norm(constant(g, -2.5), p) == pytest.approx(
            2.5 * area ** (1 / p), rel=1e-13
        )
    assert lp_norm(constant(g, -2.5), math.inf) == 2.5


def test_lp_matches_direct_summation():
    g = make_grid(2, 2)
    rng = np.random.default_rng(0)
    f = GridFunction(g, rng.normal(size=(16, 16)))
    direct = (np.abs(f.values) ** 3).sum() * g.h**2
    assert lp_norm(f, 3) == pytest.approx(direct ** (1 / 3), rel=1e-12)


def test_lp_region_and_errors():
    g = make_grid(2, 2)
    f = constant(g, 1.0)
    r = GridRectangle(0, 4, 0, 4)
    assert lp_norm(f, 1, region=r) == pytest.approx(1.0)
    with pytest.raises(ValueError, match="positive"):
        lp_norm(f, 0.0)


# -- Herz -------------------------------------------------------------------------


def test_herz_support_check():
    with pytest.raises(SupportWindowError, match="outside the annulus window"):
        herz_norm(constant(G35, 1.0), PR)


def test_herz_alpha0_qp_collapses_to_lp():
    chi = masked_chi(G35, 0, 0)
    pr = ExponentParams(0.0, 2, 2)
    assert herz_norm(chi, pr) == pytest.approx(lp_norm(chi, 2), rel=1e-13)


def test_herz_alpha0_qp_collapses_random():
    g22 = make_grid(2, 2)
    for seed in range(100):
        f = masked_noise(g22, seed)
        for p in (1.0, 2.0, 3.5):
            pr = ExponentParams(0.0, p, p)
            assert herz_norm(f, pr) == pytest.approx(lp_norm(f, p), rel=1e-12)


def test_herz_homogeneity():
    f = masked_noise(G35, 1)
    assert herz_norm(f.with_values(2.0 * f.values), PR) == pytest.approx(
        2.0 * herz_norm(f, PR), rel=1e-13
    )


def test_herz_continuum_closed_form_against_series_oracle():
    # independent oracle: direct partial geometric series, summed far past
    # float convergence
    alpha, p, q = 0.25, 2.0, 2.0
    beta = alpha + 1.0 / p
    pref = (1 - 0.5) ** (1 / p)

    def axis(l):
        return pref * sum(2.0 ** (i * q * beta) for i in range(l, l - 400, -1)) ** (1 / q)

    want = axis(0) * axis(0)
    got = char_rect_norm_closed_form(ExponentParams(alpha, p, q), 0, 0, "herz")
    assert got == pytest.approx(want, rel=1e-12)
    assert got == pytest.approx(0.7734590803390136, rel=1e-12)


def test_herz_q_infinity_branch():
    chi = masked_chi(G35, 0, 0)
    pr = ExponentParams(0.25, 2, math.inf)
    table = annulus_lp_table(chi, 2.0)
    win = list(G35.window_range())
    want = max(
        2.0 ** ((win[i] + win[j]) * 0.25) * table[i, j]
        for i in range(len(win))
        for j in range(len(win))
    )
    assert herz_norm(chi, pr) == pytest.approx(want, rel=1e-13)


def test_herz_p_infinity_branch():
    chi = masked_chi(G35, 0, 0)
    pr = ExponentParams(0.25, math.inf, 2)
    assert herz_norm(chi, pr) > 0


# -- Morrey-Herz ---------------------------------------------------------------------


def test_morrey_lam0_equals_herz():
    for seed in range(5):
        f = masked_noise(G35, seed)
        pr = ExponentParams(0.25, 2, 2, 0.0)
        assert morrey_herz_norm(f, pr) == pytest.approx(herz_norm(f, pr), rel=1e-13)


def test_morrey_closed_form_agreement_full_window():
    for l1 in G35.window_range():
        for l2 in G35.window_range():
            got = morrey_herz_norm(masked_chi(G35, l1, l2), PR)
            want = char_rect_norm_closed_form(
                PR, l1, l2, "morrey-herz", window_floor=G35.window_low
            )
            assert got == pytest.approx(want, rel=1e-12), (l1, l2)


def test_closed_form_below_the_window_is_zero_like_the_masked_grid_indicator():
    # Q(window_low - 1) lies inside the central cross, which the mask clears
    below = G35.window_low - 1
    for pr in (PR, ExponentParams(0.25, 2, math.inf, 0.5)):
        for l2 in (G35.window_low, G35.window_high):
            want = char_rect_norm_closed_form(
                pr, below, l2, "morrey-herz", window_floor=G35.window_low
            )
            assert want == 0.0
            assert morrey_herz_norm(masked_chi(G35, below, l2), pr) == want


def test_morrey_monotone_in_absolute_value():
    rng = np.random.default_rng(2)
    f = masked_noise(G35, 10)
    g = f.with_values(f.values * rng.uniform(0, 1, size=f.values.shape))
    assert morrey_herz_norm(g, PR) <= morrey_herz_norm(f, PR) + 1e-12


def test_diagonal_ratio_exact():
    target = 2.0 ** (PR.alpha + PR.n / PR.p - PR.lam)
    vals = [char_rect_norm_closed_form(PR, l, 0, "morrey-herz") for l in range(-2, 3)]
    for a, b in zip(vals, vals[1:]):
        assert b / a == pytest.approx(target, rel=1e-12)


def test_closed_form_inadmissible_params():
    with pytest.raises(PredicateError):
        char_rect_norm_closed_form(ExponentParams(0.0, 2, 2, 0.9), 0, 0, "morrey-herz")
    with pytest.raises(PredicateError, match="alpha"):
        char_rect_norm_closed_form(ExponentParams(-0.6, 2, 2), 0, 0, "herz")


def test_closed_form_symbolic_dimensions():
    # n = m = 2 continuum value: prefactor (1 - 2**-2)**(1/p), beta = alpha + 2/p
    pr = ExponentParams(0.25, 2.0, 2.0, 0.5, n=2, m=2)
    beta = 0.25 + 1.0
    pref = 0.75**0.5

    def axis(l):
        return pref * sum(2.0 ** (i * 2 * beta) for i in range(l, l - 200, -1)) ** 0.5

    want = axis(1) * axis(0) * 2.0 ** (-(1 + 0) * 0.5)
    got = char_rect_norm_closed_form(pr, 1, 0, "morrey-herz")
    assert got == pytest.approx(want, rel=1e-12)


# -- norm axioms (property-based) -----------------------------------------------------


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10**6), st.floats(1.0, 4.0), st.floats(1.0, 4.0))
def test_triangle_inequality_banach_range(seed, p, q):
    g = make_grid(2, 2)
    rng = np.random.default_rng(seed)
    n = g.n_cells
    f = restrict_to_window(GridFunction(g, rng.normal(size=(n, n))))
    h = restrict_to_window(GridFunction(g, rng.normal(size=(n, n))))
    pr = ExponentParams(0.25, p, q)
    lhs = herz_norm(f.with_values(f.values + h.values), pr)
    assert lhs <= herz_norm(f, pr) + herz_norm(h, pr) + 1e-10


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10**6), st.floats(-1.5, 1.5))
def test_absolute_homogeneity(seed, scale):
    g = make_grid(2, 2)
    rng = np.random.default_rng(seed)
    f = restrict_to_window(GridFunction(g, rng.normal(size=(g.n_cells, g.n_cells))))
    pr = ExponentParams(0.25, 2, 2, 0.5)
    got = morrey_herz_norm(f.with_values(scale * f.values), pr)
    assert got == pytest.approx(abs(scale) * morrey_herz_norm(f, pr), rel=1e-10, abs=1e-12)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10**6))
def test_lattice_monotonicity_all_norms(seed):
    g = make_grid(2, 2)
    rng = np.random.default_rng(seed)
    n = g.n_cells
    small = restrict_to_window(GridFunction(g, rng.normal(size=(n, n))))
    big = small.with_values(
        np.abs(small.values) * (1.0 + rng.uniform(0, 1, size=(n, n)))
    )
    pr = ExponentParams(0.25, 2, 2, 0.5)
    assert lp_norm(small, 2) <= lp_norm(big, 2) + 1e-12
    assert herz_norm(small, pr) <= herz_norm(big, pr) + 1e-12
    assert morrey_herz_norm(small, pr) <= morrey_herz_norm(big, pr) + 1e-12


def test_duality_pairing_constant_one():
    # two exact Hölder steps: int |fg| <= ||f||_dual ||g||, constant exactly 1
    worst = 0.0
    for seed in range(20):
        f = masked_noise(G35, [7, seed])
        g = masked_noise(G35, [8, seed])
        num = pairing_l1(f, g)
        den = herz_norm(f, PR.dual()) * herz_norm(g, PR)
        worst = max(worst, num / den)
    assert worst <= 1.0 + 1e-10


def test_duality_pairing_self_dual_point():
    # alpha = 0, p = q = 2 is self-dual: for a masked indicator the pairing
    # of the function with itself saturates the bound with ratio exactly 1
    chi = masked_chi(G35, 0, 0)
    pr = ExponentParams(0.0, 2, 2)
    num = pairing_l1(chi, chi)
    den = herz_norm(chi, pr) * herz_norm(chi, pr.dual())
    assert num == pytest.approx(den, rel=1e-13)
    zero = GridFunction(G35, np.zeros((256, 256)))
    assert pairing_l1(zero, chi) == 0.0


def test_duality_pairing_equality_on_single_annulus():
    # Hölder equality case: on one annulus the pairing saturates the bound
    g = make_grid(2, 3)
    one = constant(g, 1.0)
    f = annulus_restrict(one, AnnulusIndex(0, 1))
    h = f.with_values(np.abs(f.values) ** (2 - 1))  # |f|^(p-1) with p = 2
    pr = ExponentParams(0.25, 2, 2)
    num = pairing_l1(f, h)
    den = herz_norm(f, pr) * herz_norm(h, pr.dual())
    assert num == pytest.approx(den, rel=1e-12)


# -- block bracket ----------------------------------------------------------------------


PRB = ExponentParams(-0.25, 2, 2, 0.5)


def test_block_bracket_requires_block_predicate():
    with pytest.raises(PredicateError):
        block_norm_bracket(masked_chi(G35, 0, 0), PR)


def test_block_bracket_zero_function():
    z = GridFunction(G35, np.zeros((256, 256)))
    br = block_norm_bracket(z, PRB)
    assert br.lower == 0.0 and br.upper == 0.0


def test_block_bracket_single_block_bound():
    chi = masked_chi(G35, 0, 0)
    br = block_norm_bracket(chi, PRB)
    single = 2.0 ** ((0 + 0) * PRB.lam) * herz_norm(chi, PRB)
    assert br.upper <= single + 1e-12


def test_block_bracket_consistent_on_100_random():
    g22 = make_grid(2, 2)
    fam = [masked_chi(g22, l, l) for l in range(-1, 2)]
    for seed in range(100):
        g = masked_noise(g22, [21, seed])
        br = block_norm_bracket(g, PRB, fam)
        assert 0.0 <= br.lower <= br.upper


def test_block_bracket_empty_family_warns():
    br = block_norm_bracket(masked_chi(G35, 0, 0), PRB, [])
    assert br.lower == 0.0
    assert any("empty test family" in n for n in br.notes)


def test_block_bracket_monotone():
    f = masked_noise(G35, 77)
    smaller = f.with_values(f.values * 0.5)
    b1 = block_norm_bracket(smaller, PRB)
    b2 = block_norm_bracket(f, PRB)
    assert b1.upper <= b2.upper + 1e-12


def test_bracket_sandwiches_pairing():
    # int |fg| <= ||f||_MK(dual) * upper(g) with constant 1
    fam = [masked_chi(G35, l, l) for l in range(-1, 2)]
    dual = PRB.dual()
    for seed in range(10):
        g = masked_noise(G35, [31, seed])
        br = block_norm_bracket(g, PRB, fam)
        for f in fam:
            lhs = pairing_l1(f, g)
            rhs = morrey_herz_norm(f, dual) * br.upper
            assert lhs <= rhs * (1 + 1e-10)


def test_norm_bracket_validation():
    with pytest.raises(ValueError, match="inverted"):
        NormBracket(2.0, 1.0)
    with pytest.raises(ValueError, match="nonnegative"):
        NormBracket(-1.0, 1.0)


# -- rectangle families -------------------------------------------------------------------


def test_family_kinds_and_bounds():
    g = make_grid(2, 2)
    dy = RectangleFamily("dyadic-sides", stride=1).rectangles(g)
    ex = RectangleFamily("exact-grid").rectangles(g)
    # dyadic-sides members are valid exact-grid members
    ex_set = {(r.ix0, r.ix1, r.iy0, r.iy1) for r in ex}
    assert all((r.ix0, r.ix1, r.iy0, r.iy1) in ex_set for r in dy)
    cen = RectangleFamily("dyadic-centered").rectangles(g)
    assert len(cen) == len(list(g.window_range())) ** 2
    with pytest.raises(ValueError, match="family kind"):
        RectangleFamily("bogus")


@pytest.mark.parametrize(
    "field, value",
    [
        ("max_side", 0), ("stride", 0), ("stride", -3), ("min_side", -5), ("min_side", 0),
        ("max_members", 0), ("stride", True), ("min_side", None), ("max_side", 2.0),
    ],
)
def test_family_refuses_knobs_it_would_misread(field, value):
    # max_side=0 enumerated the unbounded family, stride <= 0 acted as 1 and
    # min_side < 1 as 1: each is refused by name instead
    with pytest.raises(ValueError, match=f"^{field} must be"):
        RectangleFamily("dyadic-sides", **{field: value})


def test_family_knobs_at_their_least_values():
    g = make_grid(2, 1)
    assert len(RectangleFamily("dyadic-sides", max_side=1).rectangles(g)) == 64
    assert len(RectangleFamily("dyadic-sides", stride=1).rectangles(g)) == 441
    assert len(RectangleFamily("dyadic-sides").rectangles(g)) == 225


def test_family_member_cap():
    g = make_grid(3, 3)
    with pytest.raises(CostGuardError, match="max_members"):
        RectangleFamily("exact-grid", max_members=100).rectangles(g)


# -- oscillation norms -----------------------------------------------------------------------


def test_bmo_constant_is_zero():
    g = make_grid(2, 2)
    assert bmo_norm(constant(g, 3.0), RectangleFamily("exact-grid")) == 0.0


def test_bmo_square_indicator_half():
    g = make_grid(2, 2)
    chi = indicator(g, GridRectangle(6, 10, 6, 10))
    val = bmo_norm(chi, RectangleFamily("exact-grid"))
    # oscillation 2t(1-t) at overlap fraction t maximised at t = 1/2
    assert val == pytest.approx(0.5, abs=1e-12)
    # brute-force oracle over the same family
    best = 0.0
    for r in RectangleFamily("exact-grid").rectangles(g):
        sl = chi.values[r.ix0 : r.ix1, r.iy0 : r.iy1]
        best = max(best, float(np.abs(sl - sl.mean()).mean()))
    assert val == pytest.approx(best, rel=1e-12)


def test_bmo_shift_invariance():
    g = make_grid(2, 2)
    rng = np.random.default_rng(6)
    f = GridFunction(g, rng.normal(size=(16, 16)))
    fam = RectangleFamily("dyadic-sides", stride=1)
    a = bmo_norm(f, fam)
    b = bmo_norm(f.with_values(f.values + 17.0), fam)
    assert a == pytest.approx(b, rel=1e-12)


def test_bmo_mk_constant_zero_and_homogeneous():
    fam = RectangleFamily("dyadic-centered")
    c = constant(G35, 4.0)
    val, _, _ = bmo_mk_norm(c, PR, fam)
    assert val == 0.0
    f = build_function(G35, builtin="truncated_log")
    v1, _, _ = bmo_mk_norm(f, PR, fam)
    v2, _, _ = bmo_mk_norm(f.with_values(2.0 * f.values), PR, fam)
    assert v2 == pytest.approx(2.0 * v1, rel=1e-12)


def test_bmo_mk_requires_predicates():
    fam = RectangleFamily("dyadic-centered")
    with pytest.raises(PredicateError):
        bmo_mk_norm(constant(G35, 1.0), ExponentParams(0.0, 2, 2, 0.9), fam)


def test_bmo_norm_cost_guard_precedes_the_shared_sweep():
    # both oscillation norms refuse the family before any sweep work
    g = make_grid(3, 4)  # N = 128: 12,300 full boxes visit just over 2 * 10**8 cells
    f = build_function(g, builtin="noise", seed=3)
    rects = [GridRectangle(0, 128, 0, 128)] * 12_300
    with pytest.raises(CostGuardError, match="oscillation sweep visits"):
        bmo_norm(f, rects)
    with pytest.raises(CostGuardError, match="oscillation sweep visits"):
        bmo_mk_norm(f, PR, rects)


# -- segmented annulus tables against the code they replaced ---------------------------


def prefix_annulus_lp_table(f, p):
    """Oracle: the annulus table from one (N+1)^2 prefix table of |f|^p and a
    W x W x 4 loop of box sums (block maxima for p = inf)."""
    spec = f.spec
    win = list(spec.window_range())
    w = len(win)
    runs = [spec.annulus_runs(i) for i in win]
    if math.isinf(p):
        out = np.zeros((w, w))
        a = np.abs(f.values)
        for ii, rx in enumerate(runs):
            for jj, ry in enumerate(runs):
                m = 0.0
                for x0, x1 in rx:
                    for y0, y1 in ry:
                        blk = a[x0:x1, y0:y1]
                        if blk.size:
                            m = max(m, float(blk.max()))
                out[ii, jj] = m
        return out
    P = _prefix_table(np.abs(f.values) ** p)
    h2 = spec.h * spec.h
    out = np.zeros((w, w))
    for ii, rx in enumerate(runs):
        for jj, ry in enumerate(runs):
            s = 0.0
            for x0, x1 in rx:
                for y0, y1 in ry:
                    s += _box_sum(P, x0, x1, y0, y1)
            # prefix cancellation can leave a zero-mass annulus at -1e-18
            out[ii, jj] = max(s, 0.0) ** (1.0 / p) * h2 ** (1.0 / p)
    return out


def window_oscillation_table(f, rect, p):
    """The annulus table of ``(f - f_R) chi_R`` masked to the window: the
    oscillation sweep of ``rect`` alone (finite ``p``)."""
    _, blocks = _oscillation_sweep(f, [rect], p, [True])
    return _lp_table(f.spec, blocks, p)[0]


def masked_sum_annulus_lp_table(f, p):
    """Oracle: each entry sums |f|^p (max |f| for p = inf) over the cells
    that the two axis masks of one annulus pick out."""
    spec = f.spec
    a = np.abs(f.values) if math.isinf(p) else np.abs(f.values) ** p
    masks = [annulus_mask_1d(spec, i) for i in spec.window_range()]
    w = len(masks)
    if math.isinf(p):
        return np.array([[a[mx][:, my].max() for my in masks] for mx in masks]).reshape(w, w)
    sums = np.array([[a[mx][:, my].sum() for my in masks] for mx in masks]).reshape(w, w)
    return (sums * spec.h * spec.h) ** (1.0 / p)


def mask_bmo_mk_norm(f, params, family, table=prefix_annulus_lp_table):
    """Oracle: bmo_mk_norm with both functions built as window-masked N x N
    tables per rectangle, normed through ``table`` (by default the prefix-table
    annulus table it used)."""
    rects = _family_rectangles(f.spec, family)
    mask = window_mask(f.spec)
    best = 0.0
    notes = []
    n = f.spec.n_cells

    def norm(values):
        return _morrey_herz_from_table(f.spec, table(f.with_values(values), params.p), params)

    for r in rects:
        mean = f.rect_cell_sum(r) / r.cells()
        chi = np.zeros((n, n))
        chi[r.ix0 : r.ix1, r.iy0 : r.iy1] = 1.0
        chi *= mask
        denom = norm(chi)
        if denom == 0.0:
            notes.append(f"skipped {r}: masked indicator has zero norm")
            continue
        num_vals = np.zeros((n, n))
        num_vals[r.ix0 : r.ix1, r.iy0 : r.iy1] = f.values[r.ix0 : r.ix1, r.iy0 : r.iy1] - mean
        num_vals *= mask
        num = norm(num_vals)
        if num / denom > best:
            best = num / denom
    return best, notes


def random_grid(max_level_sum, min_level_sum=1):
    return (
        st.tuples(st.integers(1, max_level_sum), st.integers(0, max_level_sum - 1))
        .filter(lambda t: min_level_sum <= sum(t) <= max_level_sum)
        .map(lambda t: make_grid(*t))
    )


def random_values(spec, kind, seed):
    rng = np.random.default_rng(seed)
    n = spec.n_cells
    if kind == "normal":
        return rng.normal(size=(n, n))
    if kind == "sparse":
        return rng.normal(size=(n, n)) * (rng.random((n, n)) < 0.05)
    if kind == "scales":  # magnitudes over 60 decades
        return rng.normal(size=(n, n)) * 10.0 ** rng.uniform(-30, 30, size=(n, n))
    c = spec.cell_centers()  # gaussian: tiny mass on the outer annuli
    return np.exp(-(c[:, None] ** 2 + c[None, :] ** 2) / 0.5)


VALUE_KINDS = st.sampled_from(["normal", "sparse", "scales", "gaussian"])
SEEDS = st.integers(0, 10**6)


# -- symmetries -----------------------------------------------------------------
#
# With n = m and one alpha for both axes, the annuli, the window and the norms
# are symmetric under both reflections and the transpose, and the norms are
# positively homogeneous: only the summation order moves, so the values agree
# to rounding.  rtol 5e-15 is about 10x the largest error measured over every
# grid with 2 <= L_max + s <= 6 (5.8e-16, for 8 f at p = 1.5).

SYMMETRY_SETS = [
    ExponentParams(0.25, 2, 2, 0.5),
    ExponentParams(0.0, 3, 1.5, 0.2),
    ExponentParams(-0.1, 1.5, 3, 0.3),
]
SYMMETRY_MOVES = {
    "x-reflection": lambda a: a[::-1, :],
    "y-reflection": lambda a: a[:, ::-1],
    "transpose": lambda a: a.T,
}


@settings(max_examples=40, deadline=None)
@given(random_grid(6, 2), SEEDS, st.sampled_from(SYMMETRY_SETS))
def test_norms_invariant_under_reflections_and_transpose_and_homogeneous(spec, seed, params):
    f = masked_noise(spec, seed)
    for norm in (herz_norm, morrey_herz_norm):
        want = norm(f, params)
        for name, move in SYMMETRY_MOVES.items():
            assert norm(GridFunction(spec, move(f.values)), params) == pytest.approx(
                want, rel=5e-15, abs=0
            ), (norm.__name__, name)
        eight = norm(GridFunction(spec, 8.0 * f.values), params)
        assert eight == pytest.approx(8.0 * want, rel=5e-15, abs=0), norm.__name__


# The centered dyadic family, the single-block host and the annulus-wise l^1
# decomposition are symmetric in the same way, so the bmo norms and the
# block bracket's upper bound are invariant too.  Each rtol is about 10x the
# largest error measured over every grid with 2 <= L_max + s <= 7, 12 noise
# functions each, for both sets of a test: 7.1e-14 for the bmo_mk value,
# 1.7e-14 for its plain bmo and 4.0e-16 for the block upper bound.  An
# annulus table that drops one of its four run blocks fails a reflection.

BMO_SYMMETRY_SETS = [ExponentParams(0.25, 2, 2, 0.5), ExponentParams(0.0, 3, 1.5, 0.2)]
BLOCK_SYMMETRY_SETS = [
    ExponentParams(-0.25, 2, 2, 0.5),
    ExponentParams(-0.25, 1.5, 1.5, 0.3),
    ExponentParams(-0.25, 2, math.inf, 0.5),
]


@settings(max_examples=25, deadline=None)
@given(random_grid(7, 2), SEEDS, st.sampled_from(BMO_SYMMETRY_SETS))
def test_bmo_mk_norm_over_centered_dyadics_invariant_under_reflections_and_transpose(
    spec, seed, params
):
    f = masked_noise(spec, seed)
    family = RectangleFamily("dyadic-centered")
    value, plain, _ = bmo_mk_norm(f, params, family)
    for name, move in SYMMETRY_MOVES.items():
        got, got_plain, _ = bmo_mk_norm(GridFunction(spec, move(f.values)), params, family)
        assert got == pytest.approx(value, rel=7.2e-13, abs=0), name
        assert got_plain == pytest.approx(plain, rel=1.7e-13, abs=0), name


@settings(max_examples=25, deadline=None)
@given(random_grid(7, 2), SEEDS, st.sampled_from(BLOCK_SYMMETRY_SETS))
def test_block_upper_bound_invariant_under_reflections_and_transpose(spec, seed, params):
    f = masked_noise(spec, seed)
    upper = block_norm_bracket(f, params).upper
    for name, move in SYMMETRY_MOVES.items():
        got = block_norm_bracket(GridFunction(spec, move(f.values)), params).upper
        assert got == pytest.approx(upper, rel=4.1e-15, abs=0), name


@settings(max_examples=100, deadline=None)
@given(
    random_grid(7),
    VALUE_KINDS,
    SEEDS,
    st.sampled_from([1.0, 1.5, 2.0, 3.0, math.inf]),
    st.booleans(),
)
def test_annulus_table_matches_oracles(spec, kind, seed, p, masked):
    f = GridFunction(spec, random_values(spec, kind, seed))
    if masked:
        f = restrict_to_window(f)
    got = annulus_lp_table(f, p)
    if math.isinf(p):  # max is exact
        assert np.array_equal(got, prefix_annulus_lp_table(f, p))
        assert np.array_equal(got, masked_sum_annulus_lp_table(f, p))
    else:
        # not against the prefix oracle: it cancels on tiny-mass annuli (the
        # outer annuli of a narrow Gaussian come out orders of magnitude off)
        np.testing.assert_allclose(got, masked_sum_annulus_lp_table(f, p), rtol=1e-12, atol=0)


def test_annulus_table_empty_window():
    spec = make_grid(1, 0)  # N = 2: every cell is on the central cross
    f = constant(spec, 1.0)
    assert annulus_lp_table(f, 2.0).shape == (0, 0)
    assert annulus_lp_table(f, math.inf).shape == (0, 0)
    # every norm over the empty table is the empty sum or sup
    for g in (constant(spec, 0.0), restrict_to_window(f)):
        for q in (2.0, math.inf):
            pr = ExponentParams(0.25, 2, q, 0.5)
            assert herz_norm(g, pr) == 0.0, q
            assert morrey_herz_norm(g, pr) == 0.0, q


def test_annulus_table_overflow_is_inf_and_reports_stay_strict(tmp_path):
    f = restrict_to_window(constant(make_grid(2, 1), 1e308))  # N = 8
    with np.errstate(over="ignore"):
        for p in (1.0, 1.5, 2.0, 3.0):
            table = annulus_lp_table(f, p)
            assert (table == math.inf).all(), p
        assert (annulus_lp_table(f, math.inf) == 1e308).all()
        value = morrey_herz_norm(f, PR)
    assert value == math.inf
    rep = InequalityReport(
        claim="overflow",
        params={},
        trials=[TrialRecord("mk", value, 1.0)],
        summary={"max_ratio": value},
        thresholds={},
        refinement=None,
        status="fail",
    )

    def reject(token):
        raise ValueError(f"{token} is not strict JSON")

    path = emit(rep, "json", tmp_path / "r.json")
    doc = json.loads(path.read_text(), parse_constant=reject)["report"]
    assert doc["trials"][0]["lhs"] == "inf"
    assert doc["summary"]["max_ratio"] == "inf"


def test_annulus_root_past_the_float_range_is_not_nan():
    # at p = 0.001 an annulus of area A has L^p norm A**1000: inf past
    # A = 2.03, finite below.  The sums ** 1000 overflow, and the cell-area
    # factor (h * h) ** 1000 underflows to 0, so their product read nan
    g = make_grid(3, 2)  # N = 32
    f = restrict_to_window(constant(g, -1.0))
    areas = annulus_lp_table(f, 1.0)
    table = annulus_lp_table(f, 0.001)
    assert not np.isnan(table).any()
    assert np.isfinite(table).any() and np.isinf(table).any()
    e = 1.0 / 0.001
    assert table.tolist() == [[norms._pow(a, e) for a in row] for row in areas.tolist()]


def test_axis_block_factor_past_the_float_range():
    # the window sum sum_{i=-3}^{l} r**i with r = 2**(q * beta), beta = 0.75;
    # (r**(l+1) - r**-3) / (r - 1) read inf - inf = nan or inf / inf = nan
    # once r**(l+1) overflowed.  Then the largest term r**l is factored out
    # of the sum, and its 1/q root 2**(l * beta) taken alone: the factor is
    # finite wherever 2**(l * beta) is, as (1 + r**-1 + ...)**(1/q) rounds
    # to 1 here
    axis = norms._axis_block_factor
    pref = 0.5**0.5
    q1000 = ExponentParams(0.25, 2, 1000, 0.5)  # r = 2**750
    assert axis(q1000, 1, 1, -3) == pytest.approx(pref * 2**0.75, rel=1e-15)
    assert axis(q1000, 1, 2, -3) == pytest.approx(pref * 2**1.5, rel=1e-15)  # the sum is 2**1500
    assert axis(q1000, 1, 2, None) == pytest.approx(pref * 2**1.5, rel=1e-15)  # the continuum's too
    q2000 = ExponentParams(0.25, 2, 2000, 0.5)  # r = 2**1500 overflows
    # the sum r**-1 + r**-2 + r**-3 underflows to 0: factored the same way
    assert axis(q2000, 1, -1, -3) == pytest.approx(pref * 2**-0.75, rel=1e-15)
    assert axis(q2000, 1, 0, -3) == pref
    assert axis(q2000, 1, 1, -3) == pytest.approx(pref * 2**0.75, rel=1e-15)
    alpha2000 = ExponentParams(2000, 2, 2, 0.5)  # 2**(l * beta) itself overflows
    assert axis(alpha2000, 1, 1, -3) == math.inf


def test_herz_norm_at_large_q_factors_the_sum_past_the_float_range():
    # at q = 1000 the l^q sum of chi(2, 2)'s terms is about 2**2000, its
    # root 4: the sum is taken again relative to the largest term
    g = make_grid(3, 2)
    pr = ExponentParams(0.25, 2, 1000, 0.5)
    for l in range(4):
        f = restrict_to_window(indicator(g, DyadicRectangle(l, l)))
        want = char_rect_norm_closed_form(pr, l, l, "herz", window_floor=g.window_low)
        assert herz_norm(f, pr) == pytest.approx(want, rel=1e-12)
        assert want == pytest.approx(2.0 ** (1.5 * l - 1), rel=1e-12)  # finite


def test_morrey_herz_batch_at_large_q_matches_each_table_alone():
    # only the levels whose sums overflow are taken again, per table
    g = make_grid(3, 2)
    pr = ExponentParams(0.25, 2, 1000, 0.5)
    masks = [restrict_to_window(indicator(g, DyadicRectangle(l, 3 - l))) for l in range(4)]
    tables = np.stack([annulus_lp_table(f, pr.p) for f in masks])
    alone = [_morrey_herz_from_table(g, t, pr) for t in tables]
    assert _morrey_herz_from_table(g, tables, pr).tolist() == alone
    want = [char_rect_norm_closed_form(pr, l, 3 - l, window_floor=g.window_low) for l in range(4)]
    assert alone == pytest.approx(want, rel=1e-12)
    assert all(map(math.isfinite, want))


def test_bmo_sweep_holds_the_symbol_and_one_rectangle_buffer():
    # traced peak of building a symbol and running bmo_mk_norm over the
    # default family of G35's refinement (N = 512), in N x N doubles: f, then
    # the per-call prefix table of the means or the one |f - f_R| buffer
    # beside the block stack.  2.21 measured; a prefix table kept on f and a
    # fresh |f - f_R| per rectangle measured 3.68
    from mherz.verification import _default_bmo_family

    spec = make_grid(3, 6)
    family = _default_bmo_family(spec)
    tracemalloc.start()
    try:
        f = build_function(spec, builtin="truncated_log")
        bmo_mk_norm(f, PR, family)
        del f
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak / (8 * spec.n_cells**2) <= 2.45


def test_rect_means_of_huge_finite_values():
    # |f| * N**2 overflows, so the (N+1)**2 prefix tables of f would too
    g = make_grid(2, 1)  # N = 8
    f = constant(g, 1e308)
    box = GridRectangle(0, 8, 0, 8)
    assert f.rect_mean(box, absolute=True) == 1e308
    assert f.rect_mean(box) == 1e308
    assert bmo_norm(f, RectangleFamily("dyadic-centered")) == 0.0
    assert bmo_norm(f, RectangleFamily("exact-grid")) == 0.0
    value, _, _ = bmo_mk_norm(f, PR, RectangleFamily("dyadic-centered"))
    assert value == 0.0
    # signed values: the means stay finite and match exactly rounded sums
    vals = np.random.default_rng(4).uniform(-1.0, 1.0, size=(8, 8)) * 1e308
    f = GridFunction(g, vals)
    for r in (box, GridRectangle(1, 6, 2, 8)):
        block = vals[r.ix0 : r.ix1, r.iy0 : r.iy1]
        want = math.fsum((block / 64.0).ravel()) / r.cells() * 64.0
        assert f.rect_mean(r) == pytest.approx(want, rel=1e-12)
        want_abs = math.fsum((np.abs(block) / 64.0).ravel()) / r.cells() * 64.0
        assert f.rect_mean(r, absolute=True) == pytest.approx(want_abs, rel=1e-12)


def _bmo_family(kind, spec, stride):
    n = spec.n_cells
    if kind == "dyadic-centered":
        return RectangleFamily("dyadic-centered")
    if kind == "dyadic-sides":
        return RectangleFamily("dyadic-sides", stride=max(1, n // stride), min_side=max(1, n // 16))
    return RectangleFamily("exact-grid", stride=stride, max_side=8)


BMO_CASES = st.sampled_from(["dyadic-centered", "dyadic-sides", "exact-grid"]).flatmap(
    lambda kind: st.tuples(
        st.just(kind),
        random_grid({"exact-grid": 3, "dyadic-sides": 5, "dyadic-centered": 6}[kind], 2),
        st.sampled_from([1, 2, 4]),
    )
)


@settings(max_examples=30, deadline=None)
@given(
    BMO_CASES,
    VALUE_KINDS,
    SEEDS,
    st.sampled_from([1.5, 2.0, 3.0]),
    st.sampled_from([1.0, 2.0]),
)
@example(("dyadic-centered", make_grid(1, 6), 1), "sparse", 0, 3.0, 1.0)
def test_bmo_mk_norm_matches_mask_oracle(case, kind, seed, p, q):
    family_kind, spec, stride = case
    f = GridFunction(spec, random_values(spec, kind, seed))
    params = ExponentParams(0.25, p, q, 0.5)
    fam = _bmo_family(family_kind, spec, stride)
    got, _, notes = bmo_mk_norm(f, params, fam)
    want, want_notes = mask_bmo_mk_norm(f, params, fam, masked_sum_annulus_lp_table)
    assert got == pytest.approx(want, rel=1e-12, abs=0)
    # the prefix tables cancel on tiny-mass annuli (4.8e-11 relative seen on
    # sparse data at p = 3): the new value is never further from the direct
    # sums than the code it replaced
    before, before_notes = mask_bmo_mk_norm(f, params, fam)
    assert abs(got - want) <= max(abs(before - want), 1e-12 * want)
    assert notes == want_notes == before_notes
    for r in _family_rectangles(spec, fam)[:12]:
        chi = restrict_to_window(indicator(spec, r))
        osc = f.with_values(chi.values * (f.values - f.rect_cell_sum(r) / r.cells()))
        np.testing.assert_allclose(
            window_oscillation_table(f, r, p),
            masked_sum_annulus_lp_table(osc, p),
            rtol=1e-12,
            atol=0,
        )


@pytest.mark.parametrize("p", [1.5, 2.0, 3.0, math.inf])
def test_bmo_denominators_bit_identical_to_masked_indicator_tables(p):
    # arbitrary rectangles give overlap counts that are not powers of two,
    # where a vectorised power and the scalar one can differ in the last bit
    rng = np.random.default_rng(7)
    for spec in (make_grid(1, 1), make_grid(1, 3), make_grid(2, 4), make_grid(4, 2)):
        for _ in range(100):
            x0, x1 = sorted(rng.choice(spec.n_cells + 1, 2, replace=False))
            y0, y1 = sorted(rng.choice(spec.n_cells + 1, 2, replace=False))
            r = GridRectangle(int(x0), int(x1), int(y0), int(y1))
            chi = restrict_to_window(indicator(spec, r))
            want = prefix_annulus_lp_table(chi, p)
            assert np.array_equal(window_indicator_table(spec, r, p), want)


# the demo's two char_norms sets, norm_duality's dual and block exponents
# (-alpha, p', q', lam) with its p = 2 and p = 3 sets, and a p = inf and a
# q = inf set; block-upper is compared where the block predicate holds
INDICATOR_ORACLE_SETS = [
    ExponentParams(0.25, 2, 2, 0.5),
    ExponentParams(0.0, 3, 1.5, 0.2),
    ExponentParams(-0.25, 2, 2, 0.5),
    ExponentParams(-0.25, 1.5, 2, 0.5),
    ExponentParams(0.5, math.inf, 2, 0.25),
    ExponentParams(-0.25, 2, math.inf, 0.5),
]


def test_indicator_norms_from_closed_form_tables_equal_masked_arrays():
    blocks = 0
    for L_max, s in ((1, 1), (1, 3), (2, 4), (4, 2), (3, 4)):
        spec = make_grid(L_max, s)
        for l1 in spec.window_range():
            for l2 in spec.window_range():
                rect = DyadicRectangle(l1, l2)
                chi = masked_chi(spec, l1, l2)
                host = smallest_containing_dyadic(chi)
                assert (host.l1, host.l2) == (l1, l2)
                for pr in INDICATOR_ORACLE_SETS:
                    table = window_indicator_table(spec, rect.to_cells(spec), pr.p)
                    assert np.array_equal(table, annulus_lp_table(chi, pr.p))
                    assert _herz_from_table(spec, table, pr) == herz_norm(chi, pr)
                    assert _morrey_herz_from_table(spec, table, pr) == morrey_herz_norm(chi, pr)
                    if predicate_violations(pr, "block"):
                        continue
                    upper = min(_block_upper_bounds(spec, table, rect, pr))
                    assert upper == block_norm_bracket(chi, pr).upper
                    blocks += 1
    assert blocks > 0


# -- indicator quantities from count tables against the arrays they replace ----------
#
# On admitted grids (L_max + s >= 2, a nonempty window) with N <= 128.


def random_rectangles(spec, rng, k):
    out = []
    for _ in range(k):
        x0, x1 = sorted(rng.choice(spec.n_cells + 1, 2, replace=False))
        y0, y1 = sorted(rng.choice(spec.n_cells + 1, 2, replace=False))
        out.append(GridRectangle(int(x0), int(x1), int(y0), int(y1)))
    return out


@settings(max_examples=30, deadline=None)
@given(random_grid(7, 2), SEEDS)
def test_l1_table_prefix_sums_equal_pairings_with_masked_dyadic_indicators(spec, seed):
    # norm_duality's unit-block pairings: a signed function with mass on the
    # central cross, paired with every centered dyadic rectangle cut to the
    # window.  The prefix sums reassociate the sum: 4.4e-16 relative at most
    # over 60 draws on each grid with 2 <= L_max + s <= 7, so 5e-15 here
    f = build_function(spec, builtin="noise", seed=seed, low=-1.0, high=1.0)
    mass, lo = annulus_lp_table(f, 1.0).cumsum(0).cumsum(1), spec.window_low
    assert mass.shape == (len(spec.window_range()),) * 2
    for l1 in spec.window_range():
        for l2 in spec.window_range():
            want = pairing_l1(f, restrict_to_window(indicator(spec, DyadicRectangle(l1, l2))))
            assert mass[l1 - lo, l2 - lo] == pytest.approx(want, rel=5e-15, abs=0), (l1, l2)


@settings(max_examples=30, deadline=None)
@given(random_grid(7, 2), SEEDS, st.sampled_from(INDICATOR_ORACLE_SETS))
def test_level_set_norms_from_counts_equal_masked_arrays(spec, seed, pr):
    # level sets of noise, from nearly the whole grid to empty, in one batch
    f = build_function(spec, builtin="noise", seed=seed)
    cells = [f.values > g for g in (0.0, 0.3, 0.7, 0.95, 1.0)]
    counts = np.stack([_cell_counts(spec, c) for c in cells])
    want = [
        morrey_herz_norm(restrict_to_window(GridFunction(spec, c.astype(float))), pr)
        for c in cells
    ]
    assert _indicator_norms(spec, counts, pr) == want
    assert [float(k.sum()) for k in counts] == [float(c.sum()) for c in cells]


@settings(max_examples=30, deadline=None)
@given(random_grid(7, 2), SEEDS, st.sampled_from([1.5, 2.0, 3.0, math.inf]))
def test_stacked_denominators_equal_per_rectangle_norms(spec, seed, p):
    params = ExponentParams(0.25, p, 2, 0.5)
    rects = tuple(random_rectangles(spec, np.random.default_rng(seed), 12))
    got = _indicator_denominators(spec, rects, params)
    tables = [window_indicator_table(spec, r, p) for r in rects]
    assert got == tuple(_morrey_herz_from_table(spec, t, params) for t in tables)
    masked = [restrict_to_window(indicator(spec, r)) for r in rects]
    assert got == tuple(morrey_herz_norm(chi, params) for chi in masked)


def test_lp_table_batch_keeps_each_tables_bits_past_the_float_range():
    # at p = 0.01 a sum of 2**20 cells overflows its 100th power, so that
    # table is taken again with the cell area 2**-12 inside the power.  The
    # table beside it keeps its own form, where (2**-12) ** 100 underflows:
    # its root is 0, not the 2**-200 of (2**10 * 2**-12) ** 100
    spec = make_grid(1, 6)
    runs = 2 * len(spec.window_range()) + 1
    seg = np.zeros((2, runs, runs))
    seg[0, 0, 0], seg[1, 0, 0] = 2.0**20, 2.0**10
    alone = [_lp_table(spec, s, 0.01) for s in seg]
    assert alone[0].max() == 2.0**800 and alone[1].max() == 0.0
    batch = _lp_table(spec, seg, 0.01)
    assert all(np.array_equal(b, a) for b, a in zip(batch, alone))


def test_bmo_mk_norm_non_finite_oscillation_raises():
    # on R = [0, 2)^2 the exact mean is -0.85e308, so f - f_R overflows at (0, 0)
    vals = np.zeros((8, 8))
    vals[:2, :2] = -1.7e308
    vals[0, 0] = 1.7e308
    f = GridFunction(make_grid(2, 1), vals)
    with pytest.raises(DataError, match="non-finite cell values"):
        with np.errstate(over="ignore", invalid="ignore"):
            bmo_mk_norm(f, PR, [GridRectangle(0, 2, 0, 2)])


# -- the one-pass oscillation sweep against the per-rectangle loops it replaced ----------


def loop_lp_table(spec, seg, p):
    """Oracle: one run-block table to annulus L^p norms, per entry in libm."""
    w = seg.shape[0] // 2
    left, right = seg[:w][::-1], seg[w + 1 :]
    sums = left[:, :w][:, ::-1] + left[:, w + 1 :] + right[:, :w][:, ::-1] + right[:, w + 1 :]
    roots = np.array([s ** (1.0 / p) for s in sums.ravel().tolist()]).reshape(sums.shape)
    return roots * (spec.h * spec.h) ** (1.0 / p)


def loop_morrey_herz(spec, table, params):
    """Oracle: the Morrey-Herz norm of one annulus table."""
    terms = _level_weights(spec, params.alpha) * table
    win = np.array(list(spec.window_range()), dtype=float)
    if math.isinf(params.q):
        inner = np.maximum.accumulate(np.maximum.accumulate(terms, axis=0), axis=1)
    else:
        csum = (terms**params.q).cumsum(axis=0).cumsum(axis=1)
        inner = csum ** (1.0 / params.q)
        # a level sum past the float range, or below the normal range where
        # the level holds mass, is taken with its largest term factored out
        for i, j in zip(*np.nonzero(np.isinf(csum) | (csum < np.finfo(float).tiny))):
            corner = terms[: i + 1, : j + 1]
            top = float(corner.max())
            if 0.0 < top < math.inf:
                inner[i, j] = top * float(((corner / top) ** params.q).sum()) ** (1.0 / params.q)
    pref = 2.0 ** (-(win[:, None] + win[None, :]) * params.lam)
    return float((pref * inner).max(initial=0.0))


def loop_run_blocks(spec, a, r):
    """Oracle: block sums of ``a`` (the cells of ``r``) over pairs of axis runs."""
    cx, sx = _clip_runs(spec, r.ix0, r.ix1)
    cy, sy = _clip_runs(spec, r.iy0, r.iy1)
    seg = np.zeros((cx.size, cy.size))
    seg[np.ix_(cx > 0, cy > 0)] = np.add.reduceat(np.add.reduceat(a, sy, axis=1), sx, axis=0)
    return seg


def loop_oscillation_table(f, r, p):
    """Oracle: the annulus table of ``(f - f_R) chi_R`` masked to the window."""
    osc = f.values[r.ix0 : r.ix1, r.iy0 : r.iy1] - f.rect_mean(r)
    _require_finite(osc)
    return loop_lp_table(f.spec, loop_run_blocks(f.spec, np.abs(osc) ** p, r), p)


def loop_bmo_norm(f, family):
    """Oracle: the plain oscillation sup, one slice and one mean per rectangle."""
    best = 0.0
    for r in _family_rectangles(f.spec, family):
        dev = f.values[r.ix0 : r.ix1, r.iy0 : r.iy1] - f.rect_mean(r)
        osc = float(np.abs(dev).sum()) / r.cells()
        if osc > best:
            best = osc
    return best


def loop_bmo_mk_norm(f, params, family):
    """Oracle: bmo_mk_norm with one table and one Morrey-Herz norm per rectangle."""
    spec = f.spec
    best, notes = 0.0, []
    for r in _family_rectangles(spec, family):
        cx, cy = _clip_runs(spec, r.ix0, r.ix1)[0], _clip_runs(spec, r.iy0, r.iy1)[0]
        counts = np.multiply.outer(cx, cy).astype(float)
        denom = loop_morrey_herz(spec, loop_lp_table(spec, counts, params.p), params)
        if denom == 0.0:
            notes.append(f"skipped {r}: masked indicator has zero norm")
            continue
        num = loop_morrey_herz(spec, loop_oscillation_table(f, r, params.p), params)
        if num / denom > best:
            best = num / denom
    return best, notes


def sweep_values(spec, kind, seed):
    if kind != "overflow":
        return random_values(spec, kind, seed)
    # +-1.7e308 cells: f - f_R overflows on rectangles that mix signs
    rng = np.random.default_rng(seed)
    return 1.7e308 * rng.choice([-1.0, 0.0, 1.0], size=(spec.n_cells, spec.n_cells))


def sweep_family(kind, spec, stride, seed):
    if kind != "cross":
        return _bmo_family(kind, spec, stride)
    # random rectangles, the first on the central cross: its masked indicator is 0
    rng = np.random.default_rng(seed)
    n, mid = spec.n_cells, spec.n_cells // 2
    rects = [GridRectangle(mid - 1, mid + 1, 0, n)]
    for _ in range(6):
        x0, x1 = sorted(rng.choice(n + 1, 2, replace=False))
        y0, y1 = sorted(rng.choice(n + 1, 2, replace=False))
        rects.append(GridRectangle(int(x0), int(x1), int(y0), int(y1)))
    return rects


SWEEP_LEVELS = {"exact-grid": 3, "dyadic-sides": 5, "dyadic-centered": 6, "cross": 6}
SWEEP_CASES = st.sampled_from(sorted(SWEEP_LEVELS)).flatmap(
    lambda kind: st.tuples(
        st.just(kind), random_grid(SWEEP_LEVELS[kind], 2), st.sampled_from([1, 2, 4])
    )
)


@settings(max_examples=60, deadline=None)
@given(
    SWEEP_CASES,
    st.sampled_from(["normal", "sparse", "scales", "gaussian", "overflow"]),
    SEEDS,
    st.sampled_from([1.5, 2.0, 3.0]),
    st.sampled_from([1.0, 2.0, math.inf]),
)
@example(("cross", make_grid(2, 2), 1), "overflow", 1, 2.0, 2.0)
@example(("cross", make_grid(5, 0), 1), "gaussian", 0, 1.5, 2.0)  # l^q sums below the normal range
def test_oscillation_sweep_bit_identical_to_per_rectangle_loops(case, kind, seed, p, q):
    family_kind, spec, stride = case
    f = GridFunction(spec, sweep_values(spec, kind, seed))
    fam = sweep_family(family_kind, spec, stride, seed)
    rects = _family_rectangles(spec, fam)
    params = ExponentParams(0.25, p, q, 0.5)
    with np.errstate(over="ignore", invalid="ignore"):
        plain = loop_bmo_norm(f, fam)
        assert bmo_norm(f.with_values(f.values), fam) == plain
        try:
            tables = [loop_oscillation_table(f, r, p) for r in rects]
        except DataError:
            tables = None
        if tables is not None:  # every rectangle's table and norm, batched and alone
            blocks = _oscillation_sweep(f, rects, p, [True] * len(rects))[1]
            stack = _lp_table(spec, blocks, p)
            assert all(np.array_equal(a, b) for a, b in zip(stack, tables, strict=True))
            got = _morrey_herz_from_table(spec, stack, params).tolist()
            assert got == [loop_morrey_herz(spec, t, params) for t in tables]
            for r, t in list(zip(rects, tables))[:8]:
                assert np.array_equal(window_oscillation_table(f, r, p), t)
        g = f.with_values(f.values)
        if math.isinf(q):  # outside pred_ms_herz
            with pytest.raises(PredicateError):
                bmo_mk_norm(g, params, fam)
            return
        try:
            want = loop_bmo_mk_norm(f, params, fam)
        except DataError as exc:
            with pytest.raises(DataError) as got:
                bmo_mk_norm(g, params, fam)
            assert str(got.value) == str(exc)
            return
        # bmo_mk_norm's plain oscillation, from its own sweep, is bmo_norm's to the bit
        value, mk_plain, notes = bmo_mk_norm(g, params, fam)
        assert (value, notes) == want
        assert mk_plain == bmo_norm(g, fam) == plain


# -- cached geometry and repeated tables: equal to a fresh build --------------------------


@settings(max_examples=60, deadline=None)
@given(random_grid(6), VALUE_KINDS, SEEDS, st.sampled_from([1.0, 1.5, 2.0, 3.0, math.inf]))
def test_annulus_table_repeats_on_each_call(spec, kind, seed, p):
    f = GridFunction(spec, random_values(spec, kind, seed))
    assert np.array_equal(annulus_lp_table(f, p), annulus_lp_table(f, p))
    # an integer p gives the table of float(p)
    assert np.array_equal(annulus_lp_table(f, 2), annulus_lp_table(f, 2.0))
    assert np.array_equal(annulus_lp_table(f, 3), annulus_lp_table(f, 3.0))


@settings(max_examples=60, deadline=None)
@given(random_grid(8), st.data())
def test_clip_runs_cache_matches_uncached(spec, data):
    n = spec.n_cells
    lo = data.draw(st.integers(0, n - 1))
    hi = data.draw(st.integers(lo + 1, n))
    got = _clip_runs(spec, lo, hi)
    want = _clip_runs.__wrapped__(spec, lo, hi)
    for g, w in zip(got, want):
        assert np.array_equal(g, w)
        assert not g.flags.writeable
    assert _clip_runs(spec, lo, hi) is got


@settings(max_examples=60, deadline=None)
@given(random_grid(8), st.floats(-4.0, 4.0))
def test_level_weights_cache_matches_uncached(spec, x):
    got = _level_weights(spec, x)
    assert np.array_equal(got, _level_weights.__wrapped__(spec, x))
    assert not got.flags.writeable
    assert _level_weights(spec, x) is got


@settings(max_examples=60, deadline=None)
@given(random_grid(7), SEEDS, st.floats(0.0, 0.2))
def test_smallest_containing_dyadic_matches_nonzero_bounds(spec, seed, density):
    rng = np.random.default_rng(seed)
    n = spec.n_cells
    sparse = rng.normal(size=(n, n)) * (rng.random((n, n)) < density)
    f = restrict_to_window(GridFunction(spec, sparse))
    nz = np.nonzero(f.values)
    host = smallest_containing_dyadic(f)
    if nz[0].size == 0:
        assert host is None
        return
    mid = n // 2
    want = []
    for ax in (0, 1):
        radius = max(mid - int(nz[ax].min()), int(nz[ax].max()) + 1 - mid)
        want.append((radius - 1).bit_length() + 1 - spec.s)
    assert (host.l1, host.l2) == tuple(want)


def counting_rect_counts(monkeypatch):
    """Record the rectangles of every :func:`norms._rect_counts` stack."""
    stacks = []

    def counting(spec, rects):
        stacks.append(list(rects))
        return _rect_counts(spec, rects)

    monkeypatch.setattr(norms, "_rect_counts", counting)
    return stacks


def test_norm_product_sweep_builds_one_table_stack_per_p(monkeypatch):
    tables = []

    def counting(spec, counts, p):
        tables.append((len(counts), float(p)))
        return _count_table(spec, counts, p)

    def no_array(*args, **kwargs):
        raise AssertionError("an indicator sweep built an N x N array")

    stacks = counting_rect_counts(monkeypatch)
    monkeypatch.setattr(verification, "_count_table", counting)
    monkeypatch.setattr(norms, "annulus_lp_table", no_array)
    monkeypatch.setattr(verification, "indicator", no_array)
    spec = make_grid(2, 3)
    # p = 3 makes the dual exponent 1.5: the Herz pair, the Morrey-Herz norm
    # and the block bound read five tables of each indicator, two distinct,
    # all from one count stack of the grid's centered dyadic rectangles
    params = ExponentParams(0.25, 3, 2, 0.5)
    _norm_product_sweep(spec, params)
    k = len(spec.window_range()) ** 2
    assert [len(s) for s in stacks] == [k]
    assert sorted(tables) == [(k, 1.5), (k, 3.0)]


def test_bmo_mk_norm_builds_family_denominators_once(monkeypatch):
    stacks = counting_rect_counts(monkeypatch)
    _indicator_denominators.cache_clear()
    spec = make_grid(2, 3)
    rects = _family_rectangles(spec, RectangleFamily("dyadic-sides", min_side=4))
    symbols = [masked_noise(spec, k) for k in range(3)]
    values = [bmo_mk_norm(f, PR, rects) for f in symbols]
    assert stacks == [rects]  # one stack for the family, however many symbols
    _indicator_denominators.cache_clear()
    assert [bmo_mk_norm(f, PR, rects) for f in symbols] == values
    assert stacks == [rects, rects]
