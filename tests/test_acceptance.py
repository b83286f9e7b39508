"""Acceptance gate: one test per numbered criterion, at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one pass/fail line
per criterion.  Heavy suite runs are shared through module-scoped fixtures;
every criterion prints its line before asserting, so failures still show the
measured numbers.
"""

import math
import time

import numpy as np
import pytest

from mherz.grid import (
    DyadicRectangle,
    build_function,
    indicator,
    make_grid,
    restrict_to_window,
)
from mherz.norms import (
    ExponentParams,
    RectangleFamily,
    char_rect_norm_closed_form,
    morrey_herz_norm,
)
from mherz.operators import (
    DYADIC_SIDES,
    EXACT_GRID,
    ITERATED_1D,
    cz_apply,
    rubio_de_francia,
    strong_maximal,
)
from mherz.verification import (
    check_cz_comm,
    check_extrapolation,
    check_fefferman_stein,
    check_john_nirenberg_bmo,
    check_maximal_bounds,
    check_norm_duality,
)
from mherz.weights import ap_star_characteristic, generate_a1_weight

G35 = make_grid(3, 5)  # N = 256
PR = ExponentParams(0.25, 2, 2, 0.5)
PR2 = ExponentParams(0.0, 3, 1.5, 0.2)
PRX = ExponentParams(0.2, 4, 4, 0.2)  # admissible for extrapolation at p0 = 2


def announce(num: int, ok: bool, detail: str) -> None:
    print(f"criterion {num:02d} [{'PASS' if ok else 'FAIL'}]: {detail}")


@pytest.fixture(scope="module")
def timed_suites():
    """Run the four criterion-7 sweeps once, recording wall times."""
    out = {}

    def timed(name, fn):
        t0 = time.perf_counter()
        rep = fn()
        out[name] = (rep, time.perf_counter() - t0)

    timed("maximal-herz", lambda: check_maximal_bounds(G35, "herz", PR, seed=1))
    timed("maximal-mk", lambda: check_maximal_bounds(G35, "morrey-herz", PR, seed=2))
    timed("fefferman-stein", lambda: check_fefferman_stein(G35, PR, seed=3))
    timed(
        "extrapolation-maximal",
        lambda: check_extrapolation(G35, "strong-maximal", 2.0, PRX, seed=4),
    )
    timed(
        "extrapolation-hilbert",
        lambda: check_extrapolation(G35, "double-hilbert", 2.0, PRX, seed=5),
    )
    timed("cz-comm", lambda: check_cz_comm(G35, PR, seed=6))
    return out


@pytest.fixture(scope="module")
def jn_report():
    return check_john_nirenberg_bmo(G35, PR, seed=7)


def test_criterion_01_closed_form_agreement():
    t0 = time.perf_counter()
    worst = 0.0
    for pr in (PR, PR2):
        for l1 in G35.window_range():
            for l2 in G35.window_range():
                chi = restrict_to_window(indicator(G35, DyadicRectangle(l1, l2)))
                got = morrey_herz_norm(chi, pr)
                want = char_rect_norm_closed_form(
                    pr, l1, l2, "morrey-herz", window_floor=G35.window_low
                )
                worst = max(worst, abs(got - want) / want)
    ratio_err = 0.0
    for pr in (PR, PR2):
        target = 2.0 ** (pr.alpha + pr.n / pr.p - pr.lam)
        for l in range(-2, 3):
            a = char_rect_norm_closed_form(pr, l, 0, "morrey-herz")
            b = char_rect_norm_closed_form(pr, l + 1, 0, "morrey-herz")
            ratio_err = max(ratio_err, abs(b / a - target) / target)
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-12 and ratio_err <= 1e-12 and elapsed < 5.0
    announce(
        1,
        ok,
        f"closed-form agreement: worst rel err {worst:.2e} (<=1e-12), "
        f"diagonal-ratio err {ratio_err:.2e}, {elapsed:.2f}s (<5s)",
    )
    assert ok


def test_criterion_02_norm_product_spread():
    rep = check_norm_duality(G35, PR, seed=11)
    n_rects = len(list(G35.window_range())) ** 2
    spread = rep.summary["herz_product_spread"]
    drift = rep.refinement["drift"]
    ok = n_rects == 49 and spread <= 16.0 and drift <= 0.10 and rep.passed
    announce(
        2,
        ok,
        f"norm-product lemma: spread {spread:.3f} (<=16) over {n_rects} rectangles, "
        f"refinement drift {drift:.3%} (<=10%)",
    )
    assert ok


def test_criterion_03_maximal_sandwich_200_grids():
    g = make_grid(2, 3)  # 32 x 32
    violations = 0
    tol = 1e-10
    for k in range(200):
        f = build_function(g, builtin="noise", seed=[303, k], low=-1.0, high=1.0)
        a = np.abs(f.values)
        md = strong_maximal(f, DYADIC_SIDES).values
        me = strong_maximal(f, EXACT_GRID).values
        mi = strong_maximal(f, ITERATED_1D).values
        violations += int((md > me + tol).sum())
        violations += int((me > 4.0 * md + tol).sum())
        violations += int((me > mi + tol).sum())
        violations += int((md < a).sum() + (me < a).sum() + (mi < a).sum())
    ok = violations == 0
    announce(3, ok, f"maximal sandwich on 200 random 32x32 grids: {violations} violations")
    assert ok


def test_criterion_04_rubio_truncation_identities():
    g = make_grid(2, 3)
    K = 8
    worst_low = 0.0  # |h| - R_K, must be <= 0 exactly
    worst_comm = -math.inf  # M(R_K) - 2c R_{K+1}, must be <= 1e-10
    for k in range(50):
        h = build_function(g, builtin="noise", seed=[404, k], low=-1.0, high=1.0)
        for c in (0.5, 1.0, 4.0):
            rk = rubio_de_francia(h, c, K, DYADIC_SIDES)
            rk1 = rubio_de_francia(h, c, K + 1, DYADIC_SIDES)
            worst_low = max(worst_low, float((np.abs(h.values) - rk.values).max()))
            m = strong_maximal(rk, DYADIC_SIDES).values
            worst_comm = max(worst_comm, float((m - 2.0 * c * rk1.values).max()))
    ok = worst_low <= 0.0 and worst_comm <= 1e-10
    announce(
        4,
        ok,
        f"majorant truncation: max(|h|-R_K)={worst_low:.1e} (<=0 exact), "
        f"max(M R_K - 2c R_K+1)={worst_comm:.2e} (<=1e-10), 50 probes, c in {{0.5,1,4}}",
    )
    assert ok


def test_criterion_05_generated_weight_quality():
    # c >= 1 models the operator norm (M f >= |f| forces norm >= 1 on any
    # lattice norm); for 2c <= 1 the defining series has no geometric decay
    # and the truncated bound genuinely fails, so c = 0.5 is out of scope here
    g = make_grid(2, 3)
    fam = RectangleFamily("dyadic-sides", stride=1)
    worst = 0.0
    for k in range(50):
        h = build_function(g, builtin="noise", seed=[505, k])
        for c in (1.0, 4.0):
            w = generate_a1_weight(h, c, 8, DYADIC_SIDES)
            char = ap_star_characteristic(w, 1.0, fam)
            worst = max(worst, char / (2.0 * c))
    ok = worst <= 1.1
    announce(
        5,
        ok,
        f"generated-weight quality: worst a1-char/(2c) = {worst:.4f} (<=1.1), "
        f"50 probes, c in {{1,4}}, dyadic-sides family",
    )
    assert ok


def test_criterion_06_cz_exactness_and_speed():
    chi = build_function(G35, builtin="indicator", l1=1, l2=1)  # [-1,1] x [-1,1]
    t0 = time.perf_counter()
    t = cz_apply(chi)
    elapsed = time.perf_counter() - t0
    centers = G35.cell_centers()
    idx = np.linspace(170, 250, 5, dtype=int)  # centers in (1.3, 3.9), off boundary
    worst = 0.0
    for ix in idx:
        for iy in idx:
            x, y = centers[ix], centers[iy]
            want = (
                (1 / math.pi**2)
                * math.log(abs((x + 1) / (x - 1)))
                * math.log(abs((y + 1) / (y - 1)))
            )
            worst = max(worst, abs(t.values[ix, iy] - want) / abs(want))
    ok = worst <= 1e-9 and elapsed < 10.0
    announce(
        6,
        ok,
        f"singular-convolution exactness: worst rel err {worst:.2e} (<=1e-9) "
        f"at 25 centers, transform {elapsed:.2f}s (<10s) at N=256",
    )
    assert ok


def test_criterion_07_boundedness_sweeps(timed_suites):
    lines = []
    ok = True
    for name, (rep, dt) in timed_suites.items():
        drift = rep.refinement["drift"] if rep.refinement else 0.0
        cap = rep.thresholds["drift_cap"]
        good = rep.passed and dt < 180.0 and drift <= cap
        ok &= good
        lines.append(f"{name}: {rep.status}, {dt:.0f}s, drift {drift:.1%} (cap {cap:.0%})")
    announce(7, ok, "boundedness sweeps at N=256 -- " + "; ".join(lines))
    assert ok


def test_criterion_08_john_nirenberg_decay(jn_report):
    slope = jn_report.summary["decay_slope"]
    r2 = jn_report.summary["decay_r2"]
    n_gammas = len(jn_report.params["gammas"])
    ok = slope < 0 and r2 >= 0.98 and n_gammas == 8
    announce(
        8,
        ok,
        f"level-set decay: slope {slope:.3f} (<0), R^2 {r2:.4f} (>=0.98), "
        f"{n_gammas}-point gamma grid",
    )
    assert ok


def test_criterion_09_bmo_equivalence(jn_report):
    lo = jn_report.summary["equiv_min_ratio"]
    hi = jn_report.summary["equiv_max_ratio"]
    drift = jn_report.refinement["drift"]
    n_symbols = sum(1 for t in jn_report.trials if t.trial.startswith("equiv:"))
    ok = 0.1 <= lo and hi <= 10.0 and drift <= 0.20 and n_symbols == 6
    announce(
        9,
        ok,
        f"bmo equivalence: ratios in [{lo:.3f}, {hi:.3f}] (within [0.1, 10]) over "
        f"{n_symbols} symbols, refinement drift {drift:.1%} (<=20%)",
    )
    assert ok


def test_criterion_10_commutator_dichotomy(timed_suites):
    rep, _ = timed_suites["cz-comm"]
    bmo_max = rep.summary["bmo_comm_max_ratio"]
    growth = rep.summary["non_bmo_growth_factor"]
    cap = rep.thresholds["comm_ratio_cap"]
    ok = bmo_max <= cap and growth >= 2.0
    announce(
        10,
        ok,
        f"commutator dichotomy: bounded-symbol ratios <= {bmo_max:.3f} (cap {cap}), "
        f"coordinate symbol grows {growth:.1f}x from t=1 to t=16 (>=2x)",
    )
    assert ok


def test_criterion_11_performance():
    g512 = make_grid(3, 6)
    f = build_function(g512, builtin="noise", seed=1111)
    t0 = time.perf_counter()
    strong_maximal(f, DYADIC_SIDES)
    dt_dyadic = time.perf_counter() - t0

    g64 = make_grid(3, 3)
    f64 = build_function(g64, builtin="noise", seed=2222)
    t0 = time.perf_counter()
    strong_maximal(f64, EXACT_GRID)
    dt_exact = time.perf_counter() - t0

    ok = dt_dyadic < 5.0 and dt_exact < 10.0
    announce(
        11,
        ok,
        f"performance: dyadic-sides 512x512 in {dt_dyadic:.2f}s (<5s), "
        f"exact-grid 64x64 in {dt_exact:.2f}s (<10s)",
    )
    assert ok
