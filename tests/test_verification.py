import math

import numpy as np
import pytest

from mherz.errors import PredicateError
from mherz.grid import make_grid
from mherz.norms import ExponentParams
from mherz.verification import (
    InequalityReport,
    TrialRecord,
    check_char_norms,
    check_cz_comm,
    check_extrapolation,
    check_fefferman_stein,
    check_john_nirenberg_bmo,
    check_maximal_bounds,
    check_norm_duality,
    extrapolation_block_params,
    standard_objects,
)

G = make_grid(3, 4)  # N = 128: big enough to be meaningful, fast enough for CI
PR = ExponentParams(0.25, 2, 2, 0.5)
PRX = ExponentParams(0.2, 4, 4, 0.2)


def test_trial_record_ratio():
    assert TrialRecord("t", 2.0, 4.0).ratio == 0.5
    assert TrialRecord("t", 0.0, 0.0).ratio == 0.0
    assert TrialRecord("t", 1.0, 0.0).ratio == math.inf


def test_report_round_trip():
    rep = check_char_norms(make_grid(2, 3), [PR])
    back = InequalityReport.from_dict(rep.to_dict())
    assert back.to_dict() == rep.to_dict()


def test_standard_objects_window_supported_and_refinable():
    from mherz.grid import window_support_violations

    for obj in standard_objects(G, seed=0):
        f = obj.build(G)
        assert len(window_support_violations(f)) == 0
        fine = obj.build(make_grid(3, 5))
        assert fine.spec.s == 5


def test_char_norms_passes_and_degenerate_trials_present():
    rep = check_char_norms(G, [PR, ExponentParams(0.0, 3, 1.5, 0.2)])
    assert rep.passed
    assert rep.summary["worst_rel_err"] <= 1e-12
    names = [t.trial for t in rep.trials]
    assert any("diagonal-ratio" in n for n in names)
    assert any("lam0-degenerate" in n for n in names)


def test_char_norms_predicate_surfaces():
    with pytest.raises(PredicateError):
        check_char_norms(G, [ExponentParams(0.0, 2, 2, 0.9)])


def test_norm_duality_passes():
    rep = check_norm_duality(G, PR, trials=6)
    assert rep.passed
    assert rep.summary["herz_product_spread"] <= 16.0
    assert rep.summary["pairing_worst_ratio"] <= 1.0 + 1e-10
    assert 0 < rep.summary["sup_pairing_fraction"] <= 1.0 + 1e-10
    assert rep.refinement["drift"] <= 0.10


def test_maximal_bounds_constant_fixed_point():
    rep = check_maximal_bounds(G, "herz", PR, trials=4, refine=False)
    assert rep.passed
    assert rep.summary["constant_ratio"] <= 1.5


def test_maximal_bounds_out_of_hypothesis_never_passes():
    bad = ExponentParams(0.75, 2, 2, 0.9)  # alpha outside the admissible window
    with pytest.raises(PredicateError):
        check_maximal_bounds(G, "herz", bad, refine=False)
    rep = check_maximal_bounds(
        G, "herz", bad, refine=False, allow_out_of_hypothesis=True
    )
    assert rep.status == "out-of-hypothesis"
    assert not rep.passed
    assert rep.notes  # carries the violated inequality text


def test_maximal_bounds_block_upper_space():
    rep = check_maximal_bounds(
        G, "block-upper", ExponentParams(-0.25, 2, 2, 0.5), trials=4, refine=False
    )
    assert rep.status in ("pass", "fail")
    assert math.isfinite(rep.summary["max_ratio"])


def test_fefferman_stein_r_guard():
    with pytest.raises(ValueError, match="r must be"):
        check_fefferman_stein(G, PR, r_list=(math.inf,), refine=False)


def test_fefferman_stein_single_function_reduces_to_scalar():
    rep = check_fefferman_stein(
        make_grid(2, 3), PR, r_list=(2.0,), family_count=1, refine=False, seed=5
    )
    # the size-1 family trial is exactly a scalar maximal ratio
    t = next(t for t in rep.trials if t.extra["size"] == 1)
    from mherz.grid import build_function, restrict_to_window
    from mherz.norms import morrey_herz_norm
    from mherz.operators import DYADIC_SIDES, strong_maximal

    base = make_grid(2, 3)
    f = restrict_to_window(build_function(base, builtin="noise", seed=[5, 101]))
    want = morrey_herz_norm(
        restrict_to_window(strong_maximal(f, DYADIC_SIDES)), PR
    ) / morrey_herz_norm(f, PR)
    assert t.ratio == pytest.approx(want, rel=1e-12)


def test_fefferman_stein_disjoint_indicator_family():
    # r-sum of disjointly supported indicators is itself an indicator sum;
    # the vector-valued ratio stays under the default cap
    from mherz.grid import AnnulusIndex, GridFunction, annulus_restrict, constant, restrict_to_window
    from mherz.norms import morrey_herz_norm
    from mherz.operators import DYADIC_SIDES, strong_maximal

    g = make_grid(2, 3)
    one = constant(g, 1.0)
    fns = [annulus_restrict(one, AnnulusIndex(i, i)) for i in g.window_range()]
    r = 2.0
    rsum = GridFunction(g, sum(np.abs(f.values) ** r for f in fns) ** (1 / r))
    mrsum = GridFunction(
        g,
        sum(np.abs(strong_maximal(f, DYADIC_SIDES).values) ** r for f in fns) ** (1 / r),
    )
    ratio = morrey_herz_norm(restrict_to_window(mrsum), PR) / morrey_herz_norm(
        restrict_to_window(rsum), PR
    )
    assert math.isfinite(ratio) and ratio <= 50.0


def test_extrapolation_guards():
    with pytest.raises(ValueError, match="unknown operator"):
        check_extrapolation(G, "bogus-op", 2.0, PRX, refine=False)
    with pytest.raises(ValueError, match="0 < p0 < p"):
        extrapolation_block_params(PR, 2.0)  # p0 = p = 2
    with pytest.raises(PredicateError, match="0 < p0 < p"):
        check_extrapolation(G, "strong-maximal", 2.0, PR, refine=False)


def test_extrapolation_block_params_values():
    block = extrapolation_block_params(PRX, 2.0)
    assert block.alpha == pytest.approx(-0.4)
    assert block.p == pytest.approx(2.0)
    assert block.q == pytest.approx(2.0)
    assert block.lam == pytest.approx(0.4)


def test_extrapolation_unit_weight_layer():
    rep = check_extrapolation(G, "strong-maximal", 2.0, PRX, trials=3, K=4, refine=False)
    assert rep.passed
    unit_trials = [t for t in rep.trials if t.trial.endswith("|unit")]
    assert unit_trials
    # unit weight reduces the hypothesis layer to the unweighted L^p0 ratio
    from mherz.norms import lp_norm
    from mherz.grid import restrict_to_window
    from mherz.operators import DYADIC_SIDES, strong_maximal

    obj = standard_objects(G, rep.params["seed"], n_random=1)[0]
    f = obj.build(G)
    want = lp_norm(strong_maximal(f, DYADIC_SIDES), 2.0) / lp_norm(f, 2.0)
    t = next(t for t in rep.trials if t.trial == f"{obj.name}|unit")
    assert t.ratio == pytest.approx(want, rel=1e-12)


def test_john_nirenberg_constant_symbol_rejected():
    with pytest.raises(ValueError, match="degenerate symbol"):
        check_john_nirenberg_bmo(G, PR, symbol="constant", refine=False)


def test_john_nirenberg_log_symbol_passes():
    rep = check_john_nirenberg_bmo(G, PR, refine=False)
    assert rep.passed
    assert rep.summary["decay_slope"] < 0
    assert rep.summary["decay_r2"] >= 0.98
    assert 0.1 <= rep.summary["equiv_min_ratio"]
    assert rep.summary["equiv_max_ratio"] <= 10.0


def test_john_nirenberg_bounded_symbol_trivial_decay():
    # bounded indicator symbol: level sets empty beyond gamma ~ 1
    rep = check_john_nirenberg_bmo(
        make_grid(2, 3),
        PR,
        symbol="gaussian",
        gammas=(2.0, 3.0, 4.0, 5.0),
        refine=False,
    )
    assert any("trivially" in n for n in rep.notes)
    assert rep.passed


def test_cz_comm_dichotomy():
    rep = check_cz_comm(make_grid(3, 3), PR, refine=False)
    assert rep.passed
    assert rep.summary["non_bmo_growth_factor"] >= 2.0
    assert rep.summary["bmo_comm_max_ratio"] <= 50.0
    # dilation trials present for every t
    for t in (1, 2, 4, 8, 16):
        assert any(tr.trial == f"comm:coordinate-x:t={t}" for tr in rep.trials)


def test_reports_reproducible_bit_for_bit():
    a = check_maximal_bounds(make_grid(2, 3), "herz", PR, trials=4, seed=9, refine=False)
    b = check_maximal_bounds(make_grid(2, 3), "herz", PR, trials=4, seed=9, refine=False)
    assert a.to_dict() == b.to_dict()
    c = check_maximal_bounds(make_grid(2, 3), "herz", PR, trials=4, seed=10, refine=False)
    assert c.to_dict() != a.to_dict()


def test_refinement_skipped_at_size_guard():
    from mherz.grid import MAX_LEVEL_SUM
    from mherz.verification import _finish

    def fine(spec):
        raise AssertionError(f"refined run attempted on {spec}")

    top = make_grid(1, MAX_LEVEL_SUM - 1)
    rep = _finish(
        "claim", top, {}, [], {}, {"drift_cap": 0.1}, True,
        refine=True, stat="max_ratio", base=1.0, fine=fine,
    )
    assert rep.refinement is None
    assert rep.status == "pass"
    below = make_grid(1, 2)
    rep = _finish(
        "claim", below, {}, [], {}, {"drift_cap": 0.1}, True,
        refine=True, stat="max_ratio", base=1.0, fine=lambda spec: 2.0,
    )
    assert list(rep.refinement) == ["base_max_ratio", "refined_max_ratio", "drift", "refined_grid"]
    assert rep.refinement["refined_grid"] == {"L_max": 1, "s": 3, "N": 16}
    assert rep.status == "fail"  # drift 1.0 exceeds the cap
