import inspect
import json
import math
import tracemalloc
import warnings
from collections import Counter
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mherz import verification
from mherz.errors import CostGuardError, PredicateError
from mherz.grid import MAX_LEVEL_SUM, build_function, indicator, make_grid, restrict_to_window
from mherz.norms import ExponentParams, pairing_l1
from mherz.verification import (
    OPERATOR_OBJECTS,
    SUITES,
    TRIAL_OBJECTS,
    Gate,
    InequalityReport,
    TrialObject,
    TrialRecord,
    _Measured,
    _drive,
    admit,
    check_char_norms,
    check_cz_comm,
    check_extrapolation,
    check_fefferman_stein,
    check_john_nirenberg_bmo,
    check_maximal_bounds,
    check_norm_duality,
    extrapolation_block_params,
    finest_grid,
    trial_objects,
)
from mherz.weights import generate_a1_weight

G = make_grid(3, 4)  # N = 128: big enough to be meaningful, fast enough for CI
PR = ExponentParams(0.25, 2, 2, 0.5)
PRX = ExponentParams(0.2, 4, 4, 0.2)


def select_objects(monkeypatch, selection, builders):
    """Make the suites select ``builders`` (label -> builder of ``spec``) as
    their ``selection`` of trial objects, unmasked."""
    for label, build in builders.items():
        entry = TrialObject(label, lambda spec, base, build=build: build(spec), False)
        monkeypatch.setitem(TRIAL_OBJECTS, label, entry)
    monkeypatch.setattr(verification, selection, tuple(builders))


def test_trial_record_ratio():
    assert TrialRecord("t", 2.0, 4.0).ratio == 0.5
    assert TrialRecord("t", 0.0, 0.0).ratio is None  # 0/0 has no ratio
    assert TrialRecord("t", 1.0, 0.0).ratio == math.inf


positive_floats = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)


@settings(max_examples=300, deadline=None)
@given(
    st.lists(positive_floats, min_size=1, max_size=20).flatmap(
        lambda pool: st.lists(st.sampled_from(pool), min_size=1, max_size=60)
    )
)
def test_median_has_the_bits_of_np_median(values):
    # drawn from a small pool, so values repeat; both parities of length occur
    with np.errstate(over="ignore"):  # two values near the float maximum sum to inf
        expected = np.float64(np.median(values))
    got = np.float64(verification._median(values))
    assert got.view(np.uint64) == expected.view(np.uint64), (got, expected)


def test_ratio_summary_keeps_its_four_keys():
    trials = [TrialRecord(f"t{k}", num, 2.0) for k, num in enumerate((3.0, 1.0, 0.0, 7.0, 5.0))]
    summary = verification._ratio_stats(trials)
    # the 0 ratio counts: it is the min and moves the median
    assert summary == {"n_trials": 5, "max_ratio": 3.5, "min_ratio": 0.0, "median_ratio": 1.5}
    assert list(summary) == ["n_trials", "max_ratio", "min_ratio", "median_ratio"]
    assert verification._ratio_stats(trials[:2] + trials[3:4]) == {
        "n_trials": 3, "max_ratio": 3.5, "min_ratio": 0.5, "median_ratio": 1.5,
    }
    assert list(verification._ratio_stats([])) == list(summary)
    # no nonzero ratio: nothing was measured, so the statistics are undefined, not 0
    assert verification._ratio_stats(trials[2:3]) == {
        "n_trials": 1, "max_ratio": None, "min_ratio": None, "median_ratio": None,
    }


def test_zero_over_zero_trial_has_no_ratio_and_fails_its_gate(monkeypatch, tmp_path):
    from mherz.cli import emit

    trials = [TrialRecord("empty", 0.0, 0.0), TrialRecord("half", 1.0, 2.0)]
    assert trials[0].ratio is None and trials[1].ratio == 0.5
    assert verification._ratio_stats(trials) == {
        "n_trials": 2, "max_ratio": None, "min_ratio": None, "median_ratio": None,
    }
    # driven: a sweep that yields the two trials fails the max_ratio gate
    monkeypatch.setattr(verification, "_operator_sweep", lambda *args, **kwargs: iter(trials))
    rep = check_maximal_bounds(make_grid(2, 2), "herz", PR, trials=1, refine=False)
    assert rep.summary["max_ratio"] is None
    assert rep.status == "fail" and rep.notes == ["gate max_ratio <= 50.0 fails: None"]
    doc = json.loads(emit(rep, "json", tmp_path / "rep.json").read_text())
    assert [t["ratio"] for t in doc["report"]["trials"]] == [None, 0.5]
    rows = emit(rep, "csv", tmp_path / "rep.csv").read_text().splitlines()
    ratio = rows[4].split(",").index("ratio")
    assert [row.split(",")[ratio] for row in rows[5:]] == ["", "0.5"]


def test_an_infinite_ratio_is_the_max_and_fails_its_gate(monkeypatch):
    # a left side that overflowed is not dropped from the statistics
    trials = [TrialRecord("overflow", math.inf, 1.0), TrialRecord("one", 1.0, 1.0)]
    monkeypatch.setattr(verification, "_operator_sweep", lambda *args, **kwargs: iter(trials))
    rep = check_maximal_bounds(make_grid(2, 2), "herz", PR, trials=1, refine=False)
    assert rep.summary["max_ratio"] == math.inf
    assert rep.status == "fail" and rep.notes == ["gate max_ratio <= 50.0 fails: inf"]


def test_a_zero_ratio_is_the_min():
    stats = verification._ratio_stats([TrialRecord("zero", 0.0, 2.0), TrialRecord("half", 1.0, 2.0)])
    assert stats["min_ratio"] == 0.0 and stats["max_ratio"] == 0.5
    # a spread over a 0 min is inf, with no division warning
    assert verification._spread(stats) == math.inf


@pytest.mark.parametrize("order", [1, -1])
def test_a_nan_ratio_leaves_every_statistic_undefined_in_either_order(order):
    trials = [TrialRecord("one", 1.0, 1.0), TrialRecord("nan", math.inf, math.inf)][::order]
    assert math.isnan(next(t.ratio for t in trials if t.trial == "nan"))
    assert verification._ratio_stats(trials) == {
        "n_trials": 2, "max_ratio": None, "min_ratio": None, "median_ratio": None,
    }


def test_fefferman_stein_fails_a_zero_family_without_raising(monkeypatch):
    # a family of zeros gives r-sums of norm 0 on both sides: no trial has a
    # ratio, so the ratio and family-size gates fail on None
    from mherz.grid import constant

    member = TrialObject(
        "member-{k}", lambda spec, base, seed: constant(spec, 0.0), False, lambda seed, k: [seed, k]
    )
    monkeypatch.setitem(TRIAL_OBJECTS, "member", member)
    rep = check_fefferman_stein(make_grid(2, 3), PR, refine=False)
    assert rep.summary["max_ratio"] is None and rep.summary["family_size_drift"] is None
    assert rep.notes == [
        "gate max_ratio <= 50.0 fails: None", "gate family_size_drift <= 0.25 fails: None"
    ]


def test_report_round_trip():
    rep = check_char_norms(make_grid(2, 3), [PR])
    back = InequalityReport.from_dict(rep.to_dict())
    assert back.to_dict() == rep.to_dict()


def test_trial_objects_window_supported_and_refinable():
    from mherz.grid import restrict_to_window, window_support_violations

    # a suite keys its trials by label, so no two objects it selects share
    # one, at the draw count it uses or at any other: a seeded entry whose
    # label has no {k} is drawn once
    selections = {
        OPERATOR_OBJECTS: 3,
        verification.BMO_SYMBOLS: 1,
        tuple(verification.COMMUTATOR_SYMBOLS): 1,
        ("member",): 8,
    }
    for names, draws in selections.items():
        for d in (draws, 3):
            labels = [label for label, _ in trial_objects(names, G, seed=0, draws=d)]
            assert len(set(labels)) == len(labels), (d, labels)
    assert {name for names in selections for name in names} == set(TRIAL_OBJECTS)
    fine = make_grid(3, 5)
    for name, entry in TRIAL_OBJECTS.items():
        for k, (_, build) in enumerate(trial_objects([name], G, seed=0, draws=2)):
            f, f_fine = build(G), build(fine)
            assert f_fine.spec == fine
            # the operator suites take annulus norms, which need window support
            if entry.masked or name in OPERATOR_OBJECTS:
                assert len(window_support_violations(f)) == 0, name
            if entry.seed:  # noise is drawn once, on the base grid, and cell-split
                split = entry.build(G, G, entry.seed(0, k)).refine(1)
                want = restrict_to_window(split) if entry.masked else split
                assert np.array_equal(f_fine.values, want.values), name


def test_char_norms_passes_and_degenerate_trials_present():
    # the last two sets take the closed form's q = inf branch
    sets = [
        PR,
        ExponentParams(0.0, 3, 1.5, 0.2),
        ExponentParams(0.25, 2, math.inf, 0.5),
        ExponentParams(0.3, math.inf, math.inf, 0.2),
    ]
    rep = check_char_norms(G, sets)
    assert rep.passed
    assert rep.summary["worst_rel_err"] <= 1e-12
    names = [t.trial for t in rep.trials]
    assert any("diagonal-ratio" in n for n in names)
    assert any("lam0-degenerate" in n for n in names)


@pytest.mark.parametrize(
    "s, overflow",
    [
        (2, {"q": 1000, "alpha": 2000}),  # sums factored, norms still past the range
        (2, {"alpha": 300}),
        (2, {"p": 0.001}),
        (2, {"q": 1e-300}),
        (5, {"alpha": 1e300, "lam": 1e299}),
    ],
)
def test_char_norms_past_the_float_range_warns_nothing(s, overflow):
    # the overflowing powers and inf * 0 products read inf and nan, and the
    # gate fails on the nan, without a numpy RuntimeWarning on the way
    pr = ExponentParams(**{**asdict(PR), **overflow})
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rep = check_char_norms(make_grid(3, s), [pr])
    assert rep.status == "fail"
    assert math.isnan(rep.summary["worst_rel_err"])


@pytest.mark.parametrize("s", [2, 5])
def test_char_norms_at_large_q_factor_the_sums_past_the_float_range(s):
    # at q = 1000 each l^q sum of the norms passes the float range where its
    # 1/q root does not (the y factor of chi(0, 2) sums to about 2**1500);
    # both sides factor out the largest term and agree at rounding level
    pr = ExponentParams(**{**asdict(PR), "q": 1000})
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rep = check_char_norms(make_grid(3, s), [pr])
    rel = {t.trial: t.extra["rel_err"] for t in rep.trials}
    levels = [k for k in rel if k.startswith("set0:chi(") and "-" not in k]  # l >= 0: no underflow
    assert len(levels) == 16
    assert all(rel[k] <= 1e-12 for k in levels), rel
    if s == 2:  # the window floor is 0, so no level underflows
        assert rep.passed and rep.summary["worst_rel_err"] <= 1e-12


@pytest.mark.parametrize("s, q", [(3, 500), (5, 1000)])
def test_char_norms_at_large_q_factor_the_sums_below_the_normal_range(s, q):
    # below the unit cube the l^q sums underflow: at (3, 3), q = 500, the
    # grid norm of chi(-1, -1) read 0.0 against 0.354 in closed form; at
    # (3, 5), q = 1000, the closed form's window sum of chi(-3, 3) read 0.
    # Both sides factor out the largest term and agree at rounding level
    pr = ExponentParams(**{**asdict(PR), "q": q})
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rep = check_char_norms(make_grid(3, s), [pr])
    assert rep.passed and rep.summary["worst_rel_err"] <= 1e-12
    assert all(0 < t.lhs < math.inf for t in rep.trials if t.trial.startswith("set0:chi("))


def test_every_refining_suite_declares_a_drift_cap():
    # the driver gates a refinement's drift against the suite's drift_cap
    for sdef in SUITES.values():
        assert ("refine" in sdef.options) == ("drift_cap" in sdef.caps), sdef.name


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


def test_norm_duality_refines_the_herz_product_spread(monkeypatch):
    # the Morrey-Herz x block spread equals the Herz one to rounding, so a
    # refinement that read it instead would leave every report as it is:
    # perturb it on the refined grid only, where nothing may read it
    want = check_norm_duality(G, PR, trials=6).to_dict()
    sweep = verification._norm_product_sweep
    seen = []

    def perturbed(spec, params):
        trials, spread, mk_spread, singles = sweep(spec, params)
        seen.append(spec)
        return trials, spread, mk_spread if spec == G else 2.0 * mk_spread, singles

    monkeypatch.setattr(verification, "_norm_product_sweep", perturbed)
    got = check_norm_duality(G, PR, trials=6).to_dict()
    assert seen == [G, finest_grid(G, True)] and seen[1] != G
    assert got["refinement"]["refined_spread"] == want["refinement"]["refined_spread"]
    assert got == want


def test_norm_duality_sup_pairing_gate_fails_on_a_zero_probe_norm(monkeypatch):
    # a probe of zero Morrey-Herz norm measures no unit-block pairing: the
    # fraction and its excess are None, so the gate fails instead of passing
    # on a default 0.0
    monkeypatch.setattr(verification, "morrey_herz_norm", lambda f, params: 0.0)
    rep = check_norm_duality(make_grid(2, 3), PR, refine=False)
    assert rep.status == "fail"
    assert rep.summary["sup_pairing_fraction"] is None
    assert "sup-pairing-vs-mk" not in [t.trial for t in rep.trials]
    assert any("no unit-block pairing measured" in n for n in rep.notes)
    assert "gate sup_pairing_excess <= 1e-10 fails: None" in rep.notes


@pytest.mark.parametrize("grid", [make_grid(1, 2), make_grid(2, 3), make_grid(3, 2)])
def test_norm_duality_unit_block_pairings_equal_masked_indicator_pairings(monkeypatch, grid):
    # the sup-pairing lhs, read off the probe's L^1 prefix sums, against
    # pairing_l1 with each window-cut indicator over its single-block bound
    probes, mk = [], verification.morrey_herz_norm
    monkeypatch.setattr(
        verification, "morrey_herz_norm", lambda f, params: probes.append(f) or mk(f, params)
    )
    rep = check_norm_duality(grid, PR, seed=5, refine=False)
    (got,) = [t.lhs for t in rep.trials if t.trial == "sup-pairing-vs-mk"]
    singles = verification._norm_product_sweep(grid, PR)[3]
    want = max(pairing_l1(probes[-1], restrict_to_window(indicator(grid, r))) / d for r, d in singles)
    assert type(got) is float and got == pytest.approx(want, rel=5e-15, abs=0)


def test_indicator_suites_cut_only_their_trial_objects_to_the_window(monkeypatch):
    # the unit blocks and the level sets are read from tables: only the
    # masked trial objects are cut to the window, never an indicator
    cut = []

    def counting(f):
        cut.append(f)
        return restrict_to_window(f)

    monkeypatch.setattr(verification, "restrict_to_window", counting)
    spec = make_grid(2, 3)
    # one pairing trial: the constant (masked) against the annulus comb
    # (built on the window), and the probe, the last noise draw (masked)
    check_norm_duality(spec, PR, trials=1, refine=False)
    assert len(cut) == 2
    cut.clear()
    check_john_nirenberg_bmo(spec, PR, refine=False)  # its symbols are on the whole box
    assert cut == []


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


def test_option_domain_guards_raise_before_any_trial():
    # an empty r_list used to give a vacuous pass with n_trials 0
    with pytest.raises(ValueError, match="r_list must be a non-empty list"):
        check_fefferman_stein(G, PR, r_list=(), refine=False)
    # so did an empty list of parameter sets
    with pytest.raises(ValueError, match="at least one parameter set") as info:
        check_char_norms(G, [])
    assert info.value.field == "params"
    with pytest.raises(ValueError, match="unknown space"):
        check_maximal_bounds(G, "bogus", PR, refine=False, allow_out_of_hypothesis=True)
    # K = 0, c <= 0 and an empty family used to crash mid-run or pass vacuously
    with pytest.raises(ValueError, match="family_count must be an integer >= 1"):
        check_fefferman_stein(G, PR, family_count=0, refine=False)
    with pytest.raises(ValueError, match="K must be an integer >= 1"):
        check_extrapolation(G, "strong-maximal", 2.0, PRX, K=0, refine=False)
    with pytest.raises(ValueError, match="c must be null or a finite number > 0"):
        check_extrapolation(G, "strong-maximal", 2.0, PRX, c=-1.0, refine=False)
    # trials = 0 gave a pairing gate over no pairings; an empty gamma grid a
    # decay claim checked on no gamma at all
    with pytest.raises(ValueError, match="trials must be an integer >= 1"):
        check_norm_duality(G, PR, trials=0, refine=False)
    with pytest.raises(ValueError, match="trials must be an integer >= 1"):
        check_maximal_bounds(G, "herz", PR, trials=-3, refine=False)
    with pytest.raises(ValueError, match="trials must be an integer >= 1"):
        check_extrapolation(G, "strong-maximal", 2.0, PRX, trials=0, refine=False)
    with pytest.raises(ValueError, match="gammas must be null or a non-empty list"):
        check_john_nirenberg_bmo(G, PR, gammas=[], refine=False)
    with pytest.raises(ValueError, match="gammas must be null or a non-empty list"):
        check_john_nirenberg_bmo(G, PR, gammas=[2.0, math.nan], refine=False)
    # exact-grid is refused when the refined grid (N=128) exceeds the gate
    small = make_grid(3, 3)
    for suite, args in (
        (check_maximal_bounds, ("herz", PR)),
        (check_fefferman_stein, (PR,)),
        (check_extrapolation, ("strong-maximal", 2.0, PRX)),
    ):
        with pytest.raises(CostGuardError, match="N=128 exceeds gate 64"):
            suite(small, *args, variant="exact-grid")


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


def test_fefferman_stein_maximises_each_member_once_per_grid(monkeypatch):
    from collections import Counter

    from mherz import verification
    from mherz.grid import GridFunction, GridSpec, build_function, restrict_to_window
    from mherz.norms import morrey_herz_norm
    from mherz.operators import strong_maximal

    grid, fc, seed, r_list = make_grid(2, 3), 2, 7, (1.5, 2.0, 3.0)
    fine = GridSpec(grid.L_max, grid.s + 1)

    def duplicate_call_trials(spec):
        # the former loop: the family is rebuilt and re-maximised per (r, size)
        def r_sum(fns, r):
            acc = np.zeros((spec.n_cells, spec.n_cells))
            for f in fns:
                acc += np.abs(f.values) ** r
            return restrict_to_window(GridFunction(spec, acc ** (1.0 / r)))

        trials = []
        for r in r_list:
            for size in (fc, 2 * fc):
                fns = []
                for k in range(size):
                    f = build_function(grid, builtin="noise", seed=[seed, 101 + k])
                    if spec.s > grid.s:
                        f = f.refine(spec.s - grid.s)
                    fns.append(restrict_to_window(f))
                rhs = morrey_herz_norm(r_sum(fns, r), PR)
                lhs = morrey_herz_norm(r_sum([strong_maximal(f) for f in fns], r), PR)
                trials.append(
                    TrialRecord(f"r={r},size={size}", lhs, rhs, extra={"r": r, "size": size})
                )
        return trials

    calls = Counter()

    def counting(f, *args, **kwargs):
        calls[f.spec.n_cells] += 1
        return strong_maximal(f, *args, **kwargs)

    monkeypatch.setattr(verification, "strong_maximal", counting)
    rep = check_fefferman_stein(grid, PR, r_list=r_list, family_count=fc, seed=seed)
    monkeypatch.undo()

    assert calls == {grid.n_cells: 2 * fc, fine.n_cells: 2 * fc}
    assert rep.trials == duplicate_call_trials(grid)
    assert rep.refinement["refined_max_ratio"] == verification._ratio_stats(
        duplicate_call_trials(fine)
    )["max_ratio"]


def test_fefferman_stein_streams_its_family():
    # demo grid and options; the refined run at N = 256 sets the peak, given
    # here in N**2 doubles of that grid.  Holding all 2 * family_count
    # members and their M f at once, the suite read 21 N**2.  Streaming the
    # members, one side's three running sums and one member are alive while
    # the maximal operator runs: 9.8 N**2 with |f| and an overlap copy beside
    # the kernel's tables, 7.8 N**2 without them
    check_fefferman_stein(make_grid(2, 2), PR, seed=2027)  # warm the caches
    tracemalloc.start()
    try:
        check_fefferman_stein(G, PR, r_list=(1.5, 2, 3), seed=2027)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    n = finest_grid(G, True).n_cells
    assert peak < 8.6 * 8 * n * n, peak / (8 * n * n)


@pytest.mark.parametrize(
    "suite, cap",
    [("maximal_bounds", 5.3), ("extrapolation", 5.3), ("cz_comm", 3.6)],
)
def test_operator_sweep_drops_each_object_before_the_next(suite, cap):
    # traced peak of a demo run, in N**2 doubles of the refinement's grid
    # (N = 256): 4.8, 4.8 and 3.2.  extrapolation kept the last object and
    # its M f alive while the next was built and maximised, and read 6.8
    run = {
        "maximal_bounds": lambda: check_maximal_bounds(G, "morrey-herz", PR, seed=2026),
        "extrapolation": lambda: check_extrapolation(G, "strong-maximal", 2.0, PRX, seed=2028),
        "cz_comm": lambda: check_cz_comm(G, PR, seed=2030),
    }[suite]
    run()  # warm the caches
    tracemalloc.start()
    try:
        run()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    n = finest_grid(G, True).n_cells
    assert peak < cap * 8 * n * n, peak / (8 * n * n)


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

    label, build = trial_objects(OPERATOR_OBJECTS, G, rep.params["seed"])[0]
    f = build(G)
    want = lp_norm(strong_maximal(f, DYADIC_SIDES), 2.0) / lp_norm(f, 2.0)
    t = next(t for t in rep.trials if t.trial == f"{label}|unit")
    assert t.ratio == pytest.approx(want, rel=1e-12)


def test_extrapolation_reports_the_weights_it_sampled():
    # the probes are a slice of the six operator objects: twelve trials ask
    # for seven weights, but only the unit weight and five generated ones exist
    rep = check_extrapolation(make_grid(2, 2), "strong-maximal", 2.0, PRX, trials=12, refine=False)
    sampled = {t.trial.split("|")[1] for t in rep.trials}
    assert rep.params["n_weights_sampled"] == len(sampled) == 6


def test_john_nirenberg_log_symbol_passes():
    rep = check_john_nirenberg_bmo(G, PR, refine=False)
    assert rep.passed
    assert rep.summary["decay_slope"] < 0
    assert rep.summary["decay_r2"] >= 0.98
    assert 0.1 <= rep.summary["equiv_min_ratio"]
    assert rep.summary["equiv_max_ratio"] <= 10.0


def test_john_nirenberg_decay_fit_is_closed_form_and_matches_lstsq(monkeypatch):
    # the suite fits its decay line without LAPACK (whose pages would stay
    # resident for the rest of a run); an lstsq fit of the trials' (gamma,
    # log norm) points is the oracle, to rounding: at most 1.8e-15 relative
    # measured over 156 fits on grids with N <= 256
    def no_lapack(*args, **kwargs):
        raise AssertionError("np.linalg.lstsq called")

    grids = [
        make_grid(L, s)
        for L in range(1, 8)
        for s in range(max(0, 2 - L), 8 - L)  # admitted, N <= 128
    ]
    fitted = 0
    for g in grids:
        with monkeypatch.context() as m:
            m.setattr(np.linalg, "lstsq", no_lapack)
            rep = check_john_nirenberg_bmo(g, PR, refine=False)
        pts = [
            (t.extra["gamma"], math.log(t.lhs))
            for t in rep.trials
            if "gamma" in t.extra and t.lhs > 0
        ]
        if len(pts) < 3:
            assert rep.summary["decay_slope"] is None
            continue
        x, y = np.array(pts).T
        A = np.vstack([np.ones(len(x)), x]).T
        coef, *_ = np.linalg.lstsq(A, y, rcond=None)
        r2 = 1.0 - ((y - A @ coef) ** 2).sum() / ((y - y.mean()) ** 2).sum()
        assert rep.summary["decay_slope"] == pytest.approx(coef[1], rel=1e-13)
        assert rep.summary["decay_r2"] == pytest.approx(r2, rel=1e-13)
        fitted += 1
    assert fitted >= 3


def test_john_nirenberg_bounded_symbol_trivial_decay():
    # the truncated log is bounded on the grid: its level sets are empty
    # for every gamma beyond its oscillation on the box.  With no decay fit
    # the two decay gates fail on None rather than pass vacuously
    rep = check_john_nirenberg_bmo(
        make_grid(2, 3),
        PR,
        gammas=(10.0, 20.0, 30.0, 40.0),
        refine=False,
    )
    assert rep.summary["decay_slope"] is None and rep.summary["decay_r2"] is None
    assert any("only 0 nonempty level sets" in n and "trivially" in n for n in rep.notes)
    assert rep.status == "fail"
    assert rep.notes[-2:] == [
        "gate decay_slope < 0.0 fails: None",
        "gate decay_r2 >= 0.98 fails: None",
    ]


def test_john_nirenberg_fails_cleanly_when_every_symbol_is_dropped(monkeypatch):
    from mherz import verification
    from mherz.grid import constant

    g = make_grid(2, 3)
    flat = {f"constant-{c}": lambda spec, c=c: constant(spec, c) for c in (0.0, 2.0)}
    select_objects(monkeypatch, "BMO_SYMBOLS", flat)
    rep = check_john_nirenberg_bmo(g, PR)
    assert rep.status == "fail"
    assert rep.summary["equiv_min_ratio"] is None and rep.summary["equiv_max_ratio"] is None
    assert rep.refinement is None  # no base statistic to drift from
    assert rep.notes[-2:] == [
        "gate equiv_min_ratio >= 0.1 fails: None",
        "gate equiv_max_ratio <= 10.0 fails: None",
    ]
    assert not [t for t in rep.trials if t.trial.startswith("equiv:")]
    json.dumps(rep.to_dict(), allow_nan=False)

    # constant only on the finer grid: the refined statistic is undefined
    coarse_noise = build_function(g, builtin="noise", seed=1)
    fine_only = {"coarse-noise": lambda spec: coarse_noise if spec == g else constant(spec, 1.0)}
    select_objects(monkeypatch, "BMO_SYMBOLS", fine_only)
    rep = check_john_nirenberg_bmo(g, PR)
    assert rep.status == "fail"
    assert rep.refinement["refined_equiv_max"] is None
    assert rep.refinement["drift"] is None
    assert "gate drift <= 0.2 fails: None" in rep.notes


@pytest.mark.parametrize("suite", ["maximal_bounds", "extrapolation", "cz_comm"])
def test_suite_fails_cleanly_when_every_trial_is_dropped(monkeypatch, tmp_path, suite):
    from mherz import cli
    from mherz.grid import constant, restrict_to_window

    def run(g):
        if suite == "maximal_bounds":
            return check_maximal_bounds(g, "herz", PR)
        if suite == "cz_comm":
            return check_cz_comm(g, PR)
        return check_extrapolation(g, "strong-maximal", 2.0, PRX, c=1.0)

    # the gated statistic; refined from no trial, it is undefined
    stat = {
        "maximal_bounds": "max_ratio",
        "extrapolation": "mk_max_ratio",
        "cz_comm": "tk_max_ratio",
    }[suite]
    g = make_grid(2, 3)
    select_objects(monkeypatch, "OPERATOR_OBJECTS", {"zero": lambda spec: constant(spec, 0.0)})
    rep = run(g)
    assert rep.status == "fail"
    assert rep.summary[stat] is None
    assert rep.refinement is None  # no base statistic to drift from
    assert f"gate {stat} <= 50.0 fails: None" in rep.notes
    path = cli.emit(rep, "json", tmp_path / "report.json")

    def refuse(token):
        raise ValueError(f"non-strict JSON token {token}")

    json.loads(path.read_text(), parse_constant=refuse)

    # zero only on the finer grid: the refined statistic is undefined
    coarse_noise = restrict_to_window(build_function(g, builtin="noise", seed=1))
    fine_only = {"coarse-noise": lambda spec: coarse_noise if spec == g else constant(spec, 0.0)}
    select_objects(monkeypatch, "OPERATOR_OBJECTS", fine_only)
    rep = run(g)
    assert rep.status == "fail"
    assert rep.refinement[f"refined_{stat}"] is None
    assert rep.refinement["drift"] is None
    assert f"gate drift <= {SUITES[suite].caps['drift_cap']!r} fails: None" in rep.notes


def test_default_bmo_family_has_no_repeated_rectangle():
    from mherz.grid import GridRectangle
    from mherz.verification import _default_bmo_family

    for spec in (make_grid(1, 1), make_grid(2, 3), G, make_grid(3, 5), make_grid(3, 6)):
        family = _default_bmo_family(spec)
        assert len(set(family)) == len(family), spec.n_cells
        n = spec.n_cells
        assert GridRectangle(0, n, 0, n) in family  # in both of its parts


def test_john_nirenberg_sweeps_each_rectangle_once_per_symbol(monkeypatch):
    from mherz import norms, verification
    from mherz.grid import GridFunction, GridSpec
    from mherz.verification import BMO_SYMBOLS, _default_bmo_family

    # rectangles whose mean is taken; rect_mean goes through rect_means too
    means = Counter()
    rect_means = GridFunction.rect_means

    def counting_means(self, rects, absolute=False):
        means[self.spec.n_cells] += len(rects)
        return rect_means(self, rects, absolute)

    batched = Counter()

    def counted(name, fn):
        def wrapper(spec, table, *args):
            batched[name, table.ndim] += 1
            return fn(spec, table, *args)

        return wrapper

    monkeypatch.setattr(GridFunction, "rect_means", counting_means)
    for name in ("_lp_table", "_morrey_herz_from_table"):
        monkeypatch.setattr(norms, name, counted(name, getattr(norms, name)))
    mk_calls, plain_calls = Counter(), Counter()
    bmo_mk_norm, bmo_norm = norms.bmo_mk_norm, norms.bmo_norm

    def counting_mk(f, *args):
        mk_calls[f.spec.n_cells] += 1
        return bmo_mk_norm(f, *args)

    def counting_plain(f, family):
        plain_calls[f.spec.n_cells] += 1
        return bmo_norm(f, family)

    monkeypatch.setattr(verification, "bmo_mk_norm", counting_mk)
    monkeypatch.setattr(verification, "bmo_norm", counting_plain, raising=False)
    monkeypatch.setattr(norms, "bmo_norm", counting_plain)
    norms._indicator_denominators.cache_clear()
    g = make_grid(2, 3)
    fine = GridSpec(g.L_max, g.s + 1)
    check_john_nirenberg_bmo(g, PR)
    symbols = len(BMO_SYMBOLS)
    rects = {spec.n_cells: len(_default_bmo_family(spec)) for spec in (g, fine)}
    # one mean per rectangle and symbol; the decay sweep takes the box mean once
    assert means == {
        g.n_cells: 1 + symbols * rects[g.n_cells],
        fine.n_cells: symbols * rects[fine.n_cells],
    }
    # one bmo_mk_norm call per symbol and grid gives both oscillation norms
    assert mk_calls == {g.n_cells: symbols, fine.n_cells: symbols}
    assert not plain_calls
    # each bmo_mk_norm call takes the annulus and Morrey-Herz tables once, on
    # its stack; so do the family's denominators once per grid, and the decay
    # sweep's box and level sets, each from one count stack
    assert batched["_lp_table", 3] == batched["_morrey_herz_from_table", 3] == 2 * symbols + 4


def test_john_nirenberg_g35_matches_the_benchmark_reference():
    # the norms-g35 workload's gated suite at its acceptance grid; the
    # reference file is read, never written
    ref = Path(__file__).resolve().parents[1] / "bench" / "reference" / "norms-g35.json"
    want = next(s for s in json.loads(ref.read_text())["summaries"] if "equiv_max_ratio" in s)
    rep = check_john_nirenberg_bmo(make_grid(3, 5), PR, seed=2024)
    assert rep.summary == want
    assert rep.refinement["refined_equiv_max"] == 2.076294505796948
    assert rep.passed


def test_cz_comm_dichotomy():
    rep = check_cz_comm(make_grid(3, 3), PR, refine=False)
    assert rep.passed
    assert rep.summary["non_bmo_growth_factor"] >= 2.0
    assert rep.summary["bmo_comm_max_ratio"] <= 50.0
    # dilation trials present for every t
    for t in (1, 2, 4, 8, 16):
        assert any(tr.trial == f"comm:coordinate-x:t={t}" for tr in rep.trials)


def test_cz_comm_fails_with_the_identity_operator(monkeypatch):
    # T = identity makes every commutator vanish: the growth factor is 0/0,
    # undefined, and must not read as an infinite growth
    from mherz import operators

    monkeypatch.setattr(operators, "cz_apply", lambda f: f)
    monkeypatch.setattr(verification, "cz_apply", lambda f: f)
    rep = check_cz_comm(make_grid(3, 3), PR, refine=False)
    assert rep.summary["non_bmo_growth_factor"] is None
    # every bmo commutator ratio is 0 too: nothing was measured, so no max
    assert rep.summary["bmo_comm_max_ratio"] is None
    assert rep.status == "fail"
    assert rep.notes == [
        "gate bmo_comm_max_ratio <= 50.0 fails: None",
        "gate non_bmo_growth_factor >= 2.0 fails: None",
    ]
    json.dumps(rep.to_dict(), allow_nan=False)


@pytest.mark.parametrize("t1, t16", [(0.0, math.nan), (math.nan, None)])
def test_cz_comm_growth_over_a_nan_end_ratio_fails(monkeypatch, t1, t16):
    # coordinate-x's commutator norm fixed at t = 1 and t = 16 (None: left as
    # measured).  A NaN end ratio gives an undefined growth factor that fails,
    # not inf growth that passes growth_min
    commutator, restrict, norm = (
        verification.commutator, verification.restrict_to_window, verification.morrey_herz_norm
    )
    dilations = verification.DILATIONS
    x = list(verification.COMMUTATOR_SYMBOLS).index("coordinate-x")
    fixed_at = {(x, 0): t1, (x, len(dilations) - 1): t16}  # (symbol, dilation) -> norm
    calls = []

    class Fixed(float):
        """A commutator whose Morrey-Herz norm is fixed to its value."""

    def fixed_commutator(b, f):
        at = divmod(len(calls), len(dilations))  # the symbols run in order, each over every t
        calls.append(at)
        return commutator(b, f) if fixed_at.get(at) is None else Fixed(fixed_at[at])

    monkeypatch.setattr(
        verification, "restrict_to_window", lambda f: f if isinstance(f, Fixed) else restrict(f)
    )
    monkeypatch.setattr(
        verification, "morrey_herz_norm", lambda f, p: float(f) if isinstance(f, Fixed) else norm(f, p)
    )
    monkeypatch.setattr(verification, "commutator", fixed_commutator)
    rep = check_cz_comm(make_grid(3, 3), PR, refine=False)
    lo, hi = (next(t.ratio for t in rep.trials if t.trial == f"comm:coordinate-x:t={d}")
              for d in (dilations[0], dilations[-1]))
    assert (lo == 0.0 and math.isnan(hi)) if t1 == 0.0 else (math.isnan(lo) and hi > 0.0)
    growth = rep.summary["non_bmo_growth_factor"]
    assert growth is None or math.isnan(growth)
    assert rep.status == "fail"
    assert rep.notes == [f"gate non_bmo_growth_factor >= 2.0 fails: {growth}"]


def test_cz_comm_skips_zero_over_zero_trials():
    # at N = 32 the widest dilation leaves the box: both sides of every
    # symbol's t = 16 trial are 0, which has no ratio.  The growth factor
    # then lacks an end and fails on None, not on a ratio read as 0.0
    rep = check_cz_comm(make_grid(2, 3), PR, refine=False)
    assert not [t for t in rep.trials if t.lhs == t.rhs == 0.0]
    assert rep.summary["non_bmo_growth_factor"] is None
    assert rep.summary["bmo_comm_max_ratio"] is not None
    labels = [label for label, _ in trial_objects(verification.COMMUTATOR_SYMBOLS, make_grid(2, 3), 0)]
    assert rep.notes == [f"skipped comm:{label}:t=16: both sides are 0" for label in labels] + [
        "gate non_bmo_growth_factor >= 2.0 fails: None"
    ]
    json.dumps(rep.to_dict(), allow_nan=False)


def test_cz_comm_and_bmo_take_each_shared_norm_once(monkeypatch):
    # cz_comm builds each dilation f_t and its norm once for all three
    # symbols; john_nirenberg_bmo takes the box norm and every level-set
    # norm from count tables, so it takes no Morrey-Herz norm of an array
    dilate, morrey_herz_norm = verification.dilate, verification.morrey_herz_norm
    dilated, normed = [], []

    def counted_dilate(f, t):
        out = dilate(f, t)
        dilated.append((f.spec, t, f, out))
        return out

    def counted_norm(f, params):
        normed.append(f)
        return morrey_herz_norm(f, params)

    monkeypatch.setattr(verification, "dilate", counted_dilate)
    monkeypatch.setattr(verification, "morrey_herz_norm", counted_norm)
    check_cz_comm(make_grid(2, 3), PR)  # the refinement runs no dilation
    assert sorted(Counter((spec, t) for spec, t, _, _ in dilated).values()) == [1] * (
        len(verification.DILATIONS) - 1
    )
    shared = {id(g) for _, _, f, out in dilated for g in (f, out)}  # f_1 = f0 and each f_t
    assert len(shared) == len(verification.DILATIONS)
    assert Counter(id(f) for f in normed if id(f) in shared) == Counter(shared)

    normed.clear()
    check_john_nirenberg_bmo(make_grid(2, 3), PR)
    assert normed == []


def test_reports_reproducible_bit_for_bit():
    a = check_maximal_bounds(make_grid(2, 3), "herz", PR, trials=4, seed=9, refine=False)
    b = check_maximal_bounds(make_grid(2, 3), "herz", PR, trials=4, seed=9, refine=False)
    assert a.to_dict() == b.to_dict()
    c = check_maximal_bounds(make_grid(2, 3), "herz", PR, trials=4, seed=10, refine=False)
    assert c.to_dict() != a.to_dict()


def driven(fine, base=1.0, gates=()):
    """A suite through the driver whose body measures nothing but ``gates``,
    named after ``cz_comm`` so that suite's admission and caps (drift cap
    0.25) apply.  It is driven but not registered."""

    def check_cz_comm(grid, params, seed=0, refine=True):
        return _Measured(
            "claim", {"seed": seed}, [], {}, gates=[*gates], stat="max_ratio", base=base, fine=fine
        )

    return _drive(check_cz_comm, inspect.signature(check_cz_comm))


def test_refinement_skipped_at_size_guard():
    def fine(spec):
        raise AssertionError(f"refined run attempted on {spec}")

    top = make_grid(1, MAX_LEVEL_SUM - 1)
    rep = driven(fine)(top, PR)
    assert rep.refinement is None
    assert rep.status == "pass"
    below = make_grid(1, 2)
    rep = driven(lambda spec: 2.0)(below, PR)
    assert list(rep.refinement) == ["base_max_ratio", "refined_max_ratio", "drift", "refined_grid"]
    assert rep.refinement["refined_grid"] == {"L_max": 1, "s": 3, "N": 16}
    assert rep.status == "fail"  # drift 1.0 exceeds the cap
    assert rep.params == {"grid": {"L_max": 1, "s": 2, "N": 8}, "params": asdict(PR), "seed": 0}
    assert rep.thresholds == SUITES["cz_comm"].caps
    assert rep.thresholds is not SUITES["cz_comm"].caps


def test_refinement_skipped_without_a_base_statistic():
    def fine(spec):
        raise AssertionError(f"refined run attempted on {spec}")

    rep = driven(fine, base=None)(make_grid(1, 2), PR, refine=True)
    assert rep.refinement is None
    assert rep.status == "pass"


def test_gate_rule():
    g = make_grid(1, 2)
    decided = [
        (Gate("s", None, "<=", 1.0), False),  # undefined
        (Gate("s", math.nan, "<=", 1.0), False),
        (Gate("s", math.nan, ">=", 1.0), False),
        (Gate("s", 1.0, "<=", 1.0), True),  # equality
        (Gate("s", 1.0, ">=", 1.0), True),
        (Gate("s", 1.0, "<", 1.0), False),
        (Gate("s", 0.5, "<", 1.0), True),
    ]
    for gate, holds in decided:
        rep = driven(None, base=None, gates=[gate])(g, PR)
        assert rep.status == ("pass" if holds else "fail"), gate
        assert rep.notes == ([] if holds else [f"gate s {gate.op} 1.0 fails: {gate.value!r}"])

    # the drift gate comes last; failing gates are noted in their order
    gates = [Gate("a", 3.0, "<", 2.0), Gate("b", 1.0, "<=", 2.0), Gate("c", None, ">=", 0.5)]
    rep = driven(lambda spec: 2.0, gates=gates)(g, PR)
    assert rep.status == "fail"
    assert rep.notes == [
        "gate a < 2.0 fails: 3.0",
        "gate c >= 0.5 fails: None",
        "gate drift <= 0.25 fails: 1.0",
    ]
    # an undefined refined statistic leaves the drift undefined
    rep = driven(lambda spec: None, gates=gates[1:2])(g, PR)
    assert rep.refinement["drift"] is None
    assert rep.notes == ["gate drift <= 0.25 fails: None"]
    # a passing report gains no note
    rep = driven(lambda spec: 1.25, gates=gates[1:2])(g, PR)
    assert rep.refinement["drift"] == 0.25
    assert rep.status == "pass" and rep.notes == []


def test_driven_bodies_leave_the_registry_alone():
    # runs after the three driver tests above, and drives one more body
    # named check_cz_comm: only the decorator registers
    driven(lambda spec: 1.0)(make_grid(1, 2), PR)
    real = [
        check_char_norms, check_cz_comm, check_extrapolation, check_fefferman_stein,
        check_john_nirenberg_bmo, check_maximal_bounds, check_norm_duality,
    ]
    assert {name: sdef.runner for name, sdef in SUITES.items()} == {
        check.__name__.removeprefix("check_"): check for check in real
    }


def test_positional_call_reports_and_admits_as_the_keyword_call(monkeypatch):
    seen = []

    def recording(suite, grid, params, options):
        seen.append((suite, grid, params, options))
        return admit(suite, grid, params, options)

    monkeypatch.setattr(verification, "admit", recording)
    g = make_grid(2, 3)
    positional = check_maximal_bounds(g, "herz", PR, 4)
    keyword = check_maximal_bounds(grid=g, params=PR, trials=4, space="herz")
    assert positional.to_dict() == keyword.to_dict()
    options = [
        ("space", "herz"), ("trials", 4), ("variant", "dyadic-sides"), ("seed", 0),
        ("refine", True), ("allow_out_of_hypothesis", False),
    ]
    assert [(suite, grid, params, list(o.items())) for suite, grid, params, o in seen] == [
        ("maximal_bounds", g, PR, options)
    ] * 2


def test_reports_name_variants_and_kernel_by_their_strings():
    g = make_grid(2, 2)
    h = build_function(g, builtin="noise", seed=5)
    for variant in ("exact-grid", "dyadic-sides", "iterated-1d"):
        rep = check_maximal_bounds(g, "herz", PR, trials=1, variant=variant, refine=False)
        assert rep.params["variant"] == variant
        assert generate_a1_weight(h, 1.0, 2, variant).provenance["variant"] == variant
    rep = check_extrapolation(
        g, "double-hilbert", 2.0, PRX, trials=1, variant="iterated-1d", refine=False
    )
    assert rep.claim == "extrapolation[double-hilbert]"
    assert rep.params["variant"] == "iterated-1d"
    assert check_cz_comm(g, PR, refine=False).params["kernel"] == "double-hilbert"


# suite -> (refined statistic, its summary key, the layers only the base
# run takes, the suite's run on a grid)
TRIMMED_REFINEMENTS = {
    "strong-maximal": (
        "mk_max_ratio", "mk_max_ratio", ("generate_a1_weight", "weighted_lp_norm"),
        lambda g, **kw: check_extrapolation(g, "strong-maximal", 2.0, PRX, trials=4, seed=3, **kw),
    ),
    "double-hilbert": (
        "mk_max_ratio", "mk_max_ratio", ("generate_a1_weight", "weighted_lp_norm"),
        lambda g, **kw: check_extrapolation(g, "double-hilbert", 2.0, PRX, trials=4, seed=3, **kw),
    ),
    "cz_comm": (
        "tk_max_ratio", "tk_max_ratio", ("commutator",),
        lambda g, **kw: check_cz_comm(g, PR, seed=3, **kw),
    ),
    "norm_duality": (
        "spread", "herz_product_spread",
        ("pairing_l1", "herz_norm", "morrey_herz_norm", "annulus_lp_table"),
        lambda g, **kw: check_norm_duality(g, PR, trials=6, seed=3, **kw),
    ),
    "john_nirenberg_bmo": (
        "equiv_max", "equiv_max_ratio", ("_cell_counts", "_rect_counts"),
        lambda g, **kw: check_john_nirenberg_bmo(g, PR, seed=3, **kw),
    ),
}


@pytest.mark.parametrize("suite", list(TRIMMED_REFINEMENTS))
def test_trimmed_refinement_matches_full_run_on_finer_grid(monkeypatch, suite):
    # the refinement computes only its gated statistic; the oracle is the
    # untrimmed suite run on the finer grid, weights, commutator sweep,
    # pairings and level sets included, with its objects realised on the
    # base grid as the refinement's are
    from collections import Counter

    from mherz import verification

    grid, finer = make_grid(2, 2), make_grid(2, 3)
    stat, key, untrimmed, check = TRIMMED_REFINEMENTS[suite]

    calls = Counter()

    def counted(name, f):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return f(*args, **kwargs)

        return wrapper

    for name in untrimmed:
        monkeypatch.setattr(verification, name, counted(name, getattr(verification, name)))

    rep = check(grid)
    refined_calls = Counter(calls)
    calls.clear()
    check(grid, refine=False)
    assert refined_calls == calls and sum(calls.values()) > 0  # nothing extra at 2N
    assert rep.refinement["refined_grid"]["N"] == finer.n_cells

    calls.clear()
    monkeypatch.setattr(
        verification,
        "trial_objects",
        lambda names, base, seed, draws=1: trial_objects(names, grid, seed, draws),
    )
    # cz_comm places its commutator bump by the grid it is called on, which
    # moves the comm: trials but not the gated tk: ones
    extra = {"c": rep.params["c"]} if "c" in rep.params else {}
    full = check(finer, refine=False, **extra)
    assert set(calls) == set(untrimmed)  # the oracle ran the untrimmed layers
    assert rep.refinement[f"refined_{stat}"] == full.summary[key]


def _comb_loop(spec):
    # the former annulus-by-annulus sum, kept as the oracle of annulus_comb
    from mherz.grid import AnnulusIndex, annulus_restrict, constant

    vals = np.zeros((spec.n_cells, spec.n_cells))
    one = constant(spec, 1.0)
    for i in spec.window_range():
        for j in spec.window_range():
            amp = (-1.0) ** (i + j) * 2.0 ** (-0.5 * (i + j))
            vals += amp * annulus_restrict(one, AnnulusIndex(i, j)).values
    return vals


def test_comb_matches_annulus_loop_bit_for_bit():
    from mherz.grid import annulus_comb

    for spec in [make_grid(L, s) for L in range(1, 6) for s in range(7) if L + s <= 8]:
        if spec.window_low > spec.window_high:
            continue  # no annulus: the suites refuse the grid
        want = _comb_loop(spec).tobytes()
        assert annulus_comb(spec).values.tobytes() == want, spec
