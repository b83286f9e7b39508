"""Claim-level verification suites.

Each suite sweeps one boundedness / equivalence claim over deterministic
trials (seeded random objects plus fixed adversarial ones), records per-trial
left/right sides and ratios, and asserts only the falsifiable content at desk
scale: finiteness, declared ratio caps, two-sided spreads, and stability of
the summary statistic when the grid is refined from (L_max, s) to
(L_max, s+1).  Empirical constants are reported, never compared against
implicit constants.

Conventions shared by all suites:

* operator outputs are window-masked before annulus-decomposed norms are
  taken (the truncation convention; plain and weighted L^p norms use the
  unmasked output);
* random trial objects are generated at the base resolution and refined by
  exact cell splitting for the refinement run, so both runs measure the same
  underlying function; rule-defined objects are resampled from their rule;
* a suite whose exponent predicate fails never reports "pass": it either
  raises up front or, where a hypothesis-violated run is informative, reports
  status "out-of-hypothesis" with the data.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import asdict, dataclass, field
from typing import Callable, Sequence

import numpy as np

from .errors import MherzError, PredicateError, RectangleError
from .grid import (
    MAX_LEVEL_SUM,
    AnnulusIndex,
    DyadicRectangle,
    GridFunction,
    GridRectangle,
    GridSpec,
    annulus_restrict,
    build_function,
    constant,
    dilate,
    indicator,
    restrict_to_window,
)
from .norms import (
    ExponentParams,
    RectangleFamily,
    block_norm_bracket,
    bmo_mk_norm,
    bmo_norm,
    char_rect_norm_closed_form,
    conjugate_exponent,
    herz_norm,
    morrey_herz_norm,
    pairing_l1,
    predicate_violations,
)
from .operators import (
    DOUBLE_HILBERT,
    DYADIC_SIDES,
    as_variant,
    commutator,
    cz_apply,
    estimate_block_norm_constant,
    strong_maximal,
)
from .weights import generate_a1_weight, make_weight, weighted_lp_norm

# -- report containers -----------------------------------------------------


@dataclass
class TrialRecord:
    trial: str
    lhs: float
    rhs: float
    note: str = ""
    extra: dict = field(default_factory=dict)

    @property
    def ratio(self) -> float:
        if self.rhs == 0.0:
            return 0.0 if self.lhs == 0.0 else math.inf
        return self.lhs / self.rhs


@dataclass
class InequalityReport:
    claim: str
    params: dict
    trials: list[TrialRecord]
    summary: dict
    thresholds: dict
    refinement: dict | None
    status: str  # "pass" | "fail" | "out-of-hypothesis"
    notes: list[str] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return self.status == "pass"

    def to_dict(self) -> dict:
        d = asdict(self)
        for t in d["trials"]:
            t["ratio"] = TrialRecord(**{k: t[k] for k in ("trial", "lhs", "rhs", "note", "extra")}).ratio
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "InequalityReport":
        trials = [
            TrialRecord(t["trial"], t["lhs"], t["rhs"], t.get("note", ""), t.get("extra", {}))
            for t in d["trials"]
        ]
        return cls(
            claim=d["claim"],
            params=d["params"],
            trials=trials,
            summary=d["summary"],
            thresholds=d["thresholds"],
            refinement=d.get("refinement"),
            status=d["status"],
            notes=list(d.get("notes", [])),
        )


def _ratio_summary(trials: Sequence[TrialRecord]) -> dict:
    ratios = [t.ratio for t in trials if math.isfinite(t.ratio) and t.ratio > 0]
    if not ratios:
        return {"n_trials": len(trials), "max_ratio": 0.0, "min_ratio": 0.0, "median_ratio": 0.0}
    return {
        "n_trials": len(trials),
        "max_ratio": float(max(ratios)),
        "min_ratio": float(min(ratios)),
        "median_ratio": float(np.median(ratios)),
    }


def _drift(base: float, refined: float) -> float:
    if base == 0.0:
        return 0.0 if refined == 0.0 else math.inf
    return abs(refined - base) / abs(base)


def _grid_dict(spec: GridSpec) -> dict:
    return {"L_max": spec.L_max, "s": spec.s, "N": spec.n_cells}


def finest_grid(grid: GridSpec, refine: bool) -> GridSpec:
    """The finest grid a suite runs: one level finer when ``refine`` is set
    and the size guard admits it."""
    if refine and grid.L_max + grid.s < MAX_LEVEL_SUM:
        return GridSpec(grid.L_max, grid.s + 1)
    return grid


def _finish(
    claim: str,
    grid: GridSpec,
    params: dict,
    trials: list[TrialRecord],
    summary: dict,
    thresholds: dict,
    gates: bool,
    refine: bool = False,
    stat: str = "",
    base: float = 0.0,
    fine: Callable[[GridSpec], float] | None = None,
    violations: Sequence[str] = (),
    notes: Sequence[str] = (),
) -> InequalityReport:
    """Shared tail of every suite: guarded refinement, drift gate, status.

    With ``refine`` set, ``fine`` recomputes the statistic ``stat`` (base
    value ``base``) on the grid one level finer, provided that grid passes
    the size guard; its relative drift must stay within
    ``thresholds["drift_cap"]`` on top of the suite's own ``gates``.  The
    refinement run recomputes only ``refined_<stat>``: ``fine`` evaluates
    what that one statistic reads, not the suite's whole base sweep.  The
    report keeps a copy of ``thresholds``.  Violated hypotheses make the
    status "out-of-hypothesis" and lead the notes.
    """
    thresholds = dict(thresholds)
    refinement = None
    finer = finest_grid(grid, refine)
    if finer != grid:
        value = fine(finer)
        refinement = {
            f"base_{stat}": base,
            f"refined_{stat}": value,
            "drift": _drift(base, value),
            "refined_grid": _grid_dict(finer),
        }
        gates = gates and refinement["drift"] <= thresholds["drift_cap"]
    return InequalityReport(
        claim=claim,
        params={"grid": _grid_dict(grid)} | params,
        trials=trials,
        summary=summary,
        thresholds=thresholds,
        refinement=refinement,
        status="out-of-hypothesis" if violations else ("pass" if gates else "fail"),
        notes=[*violations, *notes],
    )


# -- deterministic test objects -----------------------------------------------


@dataclass(frozen=True)
class TestObject:
    name: str
    build: Callable[[GridSpec], GridFunction]


def _comb(spec: GridSpec) -> GridFunction:
    """Alternating-sign annulus comb with geometrically decaying amplitudes.

    Annulus ``(i, j)`` carries ``(-1)**(i+j) * 2**(-(i+j)/2)``: the amplitude
    table over window level pairs, gathered per cell through each axis's
    window level, and 0 on the central cross that no annulus covers.
    """
    levels = spec.window_range()
    level = np.zeros(spec.n_cells, dtype=int)  # position in ``levels``
    inside = np.zeros(spec.n_cells, dtype=bool)
    for k, i in enumerate(levels):
        for a, b in spec.annulus_runs(i):
            level[a:b], inside[a:b] = k, True
    amps = np.array(
        [[(-1.0) ** (i + j) * 2.0 ** (-0.5 * (i + j)) for j in levels] for i in levels]
    )
    vals = amps[level[:, None], level[None, :]]
    vals[~inside[:, None] | ~inside[None, :]] = 0.0
    return GridFunction(spec, vals)


def _dyadic_indicators(spec: GridSpec):
    """Each centered dyadic rectangle with its window-masked indicator."""
    for l1 in spec.window_range():
        for l2 in spec.window_range():
            rect = DyadicRectangle(l1, l2)
            yield rect, restrict_to_window(indicator(spec, rect))


def _center_level(spec: GridSpec) -> int:
    return min(max(0, spec.window_low), spec.window_high)


def _base_noise(
    base: GridSpec, seed: Sequence[int], masked: bool
) -> Callable[[GridSpec], GridFunction]:
    """Builder of the noise realised on ``base`` and cell-split on finer grids,
    so refinement runs see the same function; ``masked`` restricts it to the
    window."""

    def build(spec: GridSpec) -> GridFunction:
        if spec.s < base.s:
            raise ValueError("test objects only refine, never coarsen")
        f = build_function(base, builtin="noise", seed=seed)
        if spec.s > base.s:
            f = f.refine(spec.s - base.s)
        return restrict_to_window(f) if masked else f

    return build


def standard_objects(base: GridSpec, seed: int, n_random: int = 3) -> list[TestObject]:
    """Window-supported trial functions: fixed adversarial ones plus noise
    (see :func:`_base_noise`)."""
    l0 = _center_level(base)
    lo, hi = base.window_low, base.window_high

    objs = [
        TestObject("constant", lambda spec: restrict_to_window(constant(spec, 1.0))),
        TestObject(
            f"indicator-R({l0},{l0})",
            lambda spec: restrict_to_window(indicator(spec, DyadicRectangle(l0, l0))),
        ),
        TestObject(
            f"annulus-({hi},{lo})",
            lambda spec: annulus_restrict(constant(spec, 1.0), AnnulusIndex(hi, lo)),
        ),
        TestObject("annulus-comb", _comb),
        TestObject(
            "truncated-log",
            lambda spec: restrict_to_window(build_function(spec, builtin="truncated_log")),
        ),
    ]
    for k in range(n_random):
        objs.append(TestObject(f"noise-{k}", _base_noise(base, [seed, k], masked=True)))
    return objs


# -- option domains --------------------------------------------------------------
#
# The values a suite option may take, one check per option name.  Each raises
# the suite's own error for a value outside its domain; :func:`admit` runs
# them, for the suites and for the CLI alike.

SPACES: dict[str, Callable[[GridFunction, ExponentParams], float]] = {
    "herz": herz_norm,
    "morrey-herz": morrey_herz_norm,
    "block-upper": lambda f, params: block_norm_bracket(f, params).upper,
}

EXTRAPOLATION_OPS = ("strong-maximal", DOUBLE_HILBERT)


def _space(space) -> None:
    if not (isinstance(space, str) and space in SPACES):
        raise ValueError(f"unknown space {space!r}")


def _extrapolation_op(op) -> None:
    if op not in EXTRAPOLATION_OPS:
        raise ValueError(f"unknown operator {op!r}; use {' or '.join(EXTRAPOLATION_OPS)}")


def _r_list(r_list) -> None:
    listlike = isinstance(r_list, (Sequence, np.ndarray)) and not isinstance(r_list, str)
    if not listlike or len(r_list) == 0:
        raise ValueError(f"r_list must be a non-empty list of exponents, got {r_list!r}")
    for r in r_list:
        if not (isinstance(r, numbers.Real) and 1.0 < r < math.inf):
            raise ValueError(f"r must be in (1, inf), got {r}")


def _integer(name: str, value, least: int) -> None:
    if isinstance(value, bool) or not (isinstance(value, numbers.Integral) and value >= least):
        raise ValueError(f"{name} must be an integer >= {least}, got {value!r}")


def _positive(name: str, value, nullable: bool = False) -> None:
    if nullable and value is None:
        return
    if isinstance(value, bool) or not (isinstance(value, numbers.Real) and 0 < value < math.inf):
        null = "null or " if nullable else ""
        raise ValueError(f"{name} must be {null}a finite number > 0, got {value!r}")


def _flag(name: str, value) -> None:
    if not isinstance(value, bool):
        raise ValueError(f"{name} must be true or false, got {value!r}")


def _gammas(gammas) -> None:
    if gammas is None:
        return
    listlike = isinstance(gammas, (Sequence, np.ndarray)) and not isinstance(gammas, str)
    if not listlike or len(gammas) == 0 or not all(
        isinstance(g, numbers.Real) and not isinstance(g, bool) and math.isfinite(g)
        for g in gammas
    ):
        raise ValueError(
            f"gammas must be null or a non-empty list of finite numbers, got {gammas!r}"
        )


OPTION_DOMAINS: dict[str, Callable[[object], None]] = {
    "space": _space,
    "variant": as_variant,
    "op": _extrapolation_op,
    "p0": lambda p0: _positive("p0", p0),
    "r_list": _r_list,
    "trials": lambda trials: _integer("trials", trials, 1),
    "K": lambda K: _integer("K", K, 1),
    "family_count": lambda count: _integer("family_count", count, 1),
    "c": lambda c: _positive("c", c, nullable=True),
    "gammas": _gammas,
    "seed": lambda seed: _integer("seed", seed, 0),
    "refine": lambda refine: _flag("refine", refine),
    "allow_out_of_hypothesis": lambda allow: _flag("allow_out_of_hypothesis", allow),
}


# -- suite caps --------------------------------------------------------------------
#
# Each suite's caps, copied as they stand into every report's ``thresholds``;
# the suites read their entry when called.

THRESHOLDS: dict[str, dict[str, float]] = {
    "char_norms": {"rel_tol": 1e-12},
    "norm_duality": {"spread_cap": 16.0, "pairing_cap": 1.0, "drift_cap": 0.10},
    "maximal_bounds": {"ratio_cap": 50.0, "constant_cap": 1.5, "drift_cap": 0.20},
    "fefferman_stein": {"ratio_cap": 50.0, "size_drift_cap": 0.25, "drift_cap": 0.25},
    "extrapolation": {"ratio_cap": 50.0, "drift_cap": 0.25},
    "john_nirenberg_bmo": {"r2_min": 0.98, "equiv_cap": 10.0, "drift_cap": 0.20},
    "cz_comm": {"tk_ratio_cap": 50.0, "comm_ratio_cap": 50.0, "growth_min": 2.0, "drift_cap": 0.25},
}


# -- suite hypotheses ------------------------------------------------------------
#
# Each suite's exponent hypotheses, as a function of its params block and
# options returning the violated inequalities; :func:`admit` raises
# PredicateError from it.


def _violations(params: ExponentParams, *names: str) -> list[str]:
    return [v for name in names for v in predicate_violations(params, name)]


def _with_positive_lam(params: ExponentParams) -> ExponentParams:
    return params if params.lam > 0 else params.with_lam(0.5)


def _char_norms_hypotheses(param_sets: Sequence[ExponentParams], options: dict) -> list[str]:
    out: list[str] = []
    for pr in param_sets:
        if pr.lam > 0:
            out += predicate_violations(pr, "char")
        elif not pr.alpha + min(pr.n, pr.m) / pr.p > 0:
            # lam = 0 sets still take the closed form, which needs alpha + n/p > 0
            out.append(f"alpha + n/p > 0 fails: alpha={pr.alpha}, p={pr.p}")
    return out


def _norm_duality_hypotheses(params: ExponentParams, options: dict) -> list[str]:
    dual = _with_positive_lam(params).dual()
    return _violations(params, "ms_herz") + [
        f"dual exponents: {v}" for v in _violations(dual, "block")
    ]


def _maximal_bounds_hypotheses(params: ExponentParams, options: dict) -> list[str]:
    space = options["space"]
    extra = {"block-upper": ("block",), "morrey-herz": ("char",)}.get(space, ())
    return _violations(params, "ms_herz", *extra)


def _ms_herz_char_hypotheses(params: ExponentParams, options: dict) -> list[str]:
    return _violations(params, "ms_herz", "char")


def _extrapolation_hypotheses(params: ExponentParams, options: dict) -> list[str]:
    out = _violations(params, "ms_herz", "char")
    try:
        block = extrapolation_block_params(params, options["p0"])
    except ValueError as exc:
        return out + [str(exc)]
    return out + _violations(block, "block", "ms_herz")


HYPOTHESES: dict[str, Callable[..., list[str]]] = {
    "char_norms": _char_norms_hypotheses,
    "norm_duality": _norm_duality_hypotheses,
    "maximal_bounds": _maximal_bounds_hypotheses,
    "fefferman_stein": _ms_herz_char_hypotheses,
    "extrapolation": _extrapolation_hypotheses,
    "john_nirenberg_bmo": _ms_herz_char_hypotheses,
    "cz_comm": _ms_herz_char_hypotheses,
}


def admit(suite: str, grid: GridSpec, params, options: dict) -> list[str]:
    """What ``check_<suite>`` accepts, decided once for the suite and the CLI.

    ``options`` holds every option of the suite.  Checks the grid's window,
    each option's ``OPTION_DOMAINS`` entry, the exact-grid gate on
    :func:`finest_grid` and ``HYPOTHESES[suite]``, whose violations are
    returned under ``allow_out_of_hypothesis``.  Every error raised names its
    cause in ``field``: ``"grid"``, ``"options.<key>"`` or ``"params"``.
    """
    cause = "grid"
    try:
        if grid.window_low > grid.window_high:
            raise RectangleError(f"annulus window [{grid.window_low}, {grid.window_high}] is empty")
        for key, value in options.items():
            cause = f"options.{key}"
            OPTION_DOMAINS[key](value)
        if "variant" in options:
            cause = "options.variant"
            as_variant(options["variant"], finest_grid(grid, options["refine"]).n_cells)
        cause = "params"
        if isinstance(params, Sequence) and not params:
            raise ValueError("expected at least one parameter set")
        violations = HYPOTHESES[suite](params, options)
        if violations and not options.get("allow_out_of_hypothesis", False):
            raise PredicateError(f"{suite}: " + "; ".join(violations))
    except (ValueError, MherzError) as exc:
        exc.field = cause
        raise
    return violations


# -- suite: indicator closed forms -----------------------------------------------


def check_char_norms(
    grid: GridSpec,
    param_sets: Sequence[ExponentParams],
) -> InequalityReport:
    """Grid Morrey-Herz norms of centered indicators vs the exact closed form.

    Also checks that consecutive-diagonal ratios of the continuum closed form
    equal 2**(alpha + n/p - lam), and that lam = 0 degenerates to the Herz
    closed form.
    """
    admit("char_norms", grid, param_sets, {})
    caps = THRESHOLDS["char_norms"]
    trials: list[TrialRecord] = []
    worst = 0.0
    for pset_id, pr in enumerate(param_sets):
        for rect, chi in _dyadic_indicators(grid):
            got = morrey_herz_norm(chi, pr)
            want = char_rect_norm_closed_form(
                pr, rect.l1, rect.l2, "morrey-herz", window_floor=grid.window_low
            )
            rel = abs(got - want) / want
            worst = max(worst, rel)
            trials.append(
                TrialRecord(
                    f"set{pset_id}:chi({rect.l1},{rect.l2})", got, want,
                    extra={"rel_err": rel},
                )
            )
        # continuum diagonal scaling, checked away from float-pow noise
        target = 2.0 ** (pr.alpha + pr.n / pr.p - pr.lam)
        base_v = char_rect_norm_closed_form(pr, 0, 0, "morrey-herz")
        step_v = char_rect_norm_closed_form(pr, 1, 0, "morrey-herz")
        rel = abs(step_v / base_v - target) / target
        worst = max(worst, rel)
        trials.append(
            TrialRecord(f"set{pset_id}:diagonal-ratio", step_v / base_v, target,
                        extra={"rel_err": rel})
        )
        # lam = 0 degenerates to the Herz closed form, checked at a window level
        pr0, l0 = pr.with_lam(0.0), _center_level(grid)
        g0 = char_rect_norm_closed_form(pr0, l0, l0, "morrey-herz", window_floor=grid.window_low)
        h0 = char_rect_norm_closed_form(pr0, l0, l0, "herz", window_floor=grid.window_low)
        rel = abs(g0 - h0) / h0
        worst = max(worst, rel)
        trials.append(TrialRecord(f"set{pset_id}:lam0-degenerate", g0, h0, extra={"rel_err": rel}))

    return _finish(
        "char-indicator-closed-form",
        grid,
        {"param_sets": [asdict(p) for p in param_sets]},
        trials,
        summary={"n_trials": len(trials), "worst_rel_err": worst},
        thresholds=caps,
        gates=worst <= caps["rel_tol"],
    )


# -- suite: duality and norm products ----------------------------------------------


def _herz_product(chi: GridFunction, params: ExponentParams) -> float:
    return herz_norm(chi, params) * herz_norm(chi, params.dual())


def _norm_product_sweep(spec: GridSpec, params: ExponentParams):
    herz_vals, mk_vals, trials = [], [], []
    lam_params = _with_positive_lam(params)
    block_params = lam_params.dual()
    for rect, chi in _dyadic_indicators(spec):
        area = rect.measure()
        hprod = _herz_product(chi, params)
        herz_vals.append(hprod / area)
        mkprod = morrey_herz_norm(chi, lam_params) * block_norm_bracket(chi, block_params).upper
        mk_vals.append(mkprod / area)
        trials.append(
            TrialRecord(
                f"chi({rect.l1},{rect.l2})", hprod, area,
                extra={"mk_block_product_over_area": mkprod / area},
            )
        )
    return trials, _spread(herz_vals), _spread(mk_vals)


def _herz_product_spread(spec: GridSpec, params: ExponentParams) -> float:
    """The Herz spread of :func:`_norm_product_sweep` alone (what the
    refinement gates), without the Morrey-Herz and block products."""
    return _spread(
        [_herz_product(chi, params) / rect.measure() for rect, chi in _dyadic_indicators(spec)]
    )


def _spread(values: list[float]) -> float:
    a = np.array(values)
    return float(a.max() / a.min())


def check_norm_duality(
    grid: GridSpec,
    params: ExponentParams,
    trials: int = 10,
    seed: int = 0,
    refine: bool = True,
) -> InequalityReport:
    """Pairing bound, indicator norm products, and the sup-pairing lower bound.

    (i) int |fg| <= ||f||_dual * ||g|| holds with constant exactly 1 on the
    grid (two exact Hölder steps); asserted to rounding.  (ii) the product of
    the Herz norms of an indicator and its dual norm, normalised by |R|, has
    bounded spread over the dyadic sweep, as does the Morrey-Herz times
    block-upper analogue.  (iii) pairing against unit blocks never exceeds
    the Morrey-Herz norm (constant 1), and the achieved fraction is recorded.
    """
    admit("norm_duality", grid, params, dict(trials=trials, seed=seed, refine=refine))
    caps = THRESHOLDS["norm_duality"]
    notes: list[str] = []
    all_trials, spread, mk_spread = _norm_product_sweep(grid, params)

    dual = params.dual()
    pairing_worst = 0.0
    objs = standard_objects(grid, seed, n_random=max(2, trials - 3))
    for k in range(trials):
        a = objs[k % len(objs)].build(grid)
        b = objs[(k * 7 + 3) % len(objs)].build(grid)
        lhs = pairing_l1(a, b)
        rhs = herz_norm(a, dual) * herz_norm(b, params)
        if rhs == 0.0:
            continue
        pairing_worst = max(pairing_worst, lhs / rhs)
        all_trials.append(TrialRecord(f"pairing-{k}", lhs, rhs))

    lam_params = _with_positive_lam(params)
    sup_fraction = 0.0
    sup_excess = 0.0
    f_probe = objs[-1].build(grid)
    mk = morrey_herz_norm(f_probe, lam_params)
    if mk > 0:
        best = 0.0
        for rect, chi in _dyadic_indicators(grid):
            level = rect.l1 + rect.l2
            denom = 2.0 ** (level * lam_params.lam) * herz_norm(chi, lam_params.dual())
            if denom == 0.0:
                continue
            best = max(best, pairing_l1(f_probe, chi) / denom)
        sup_fraction = best / mk
        sup_excess = max(0.0, sup_fraction - 1.0)
        all_trials.append(
            TrialRecord("sup-pairing-vs-mk", best, mk, note="unit-block pairing lower bound")
        )
        notes.append(f"unit-block pairing achieves {sup_fraction:.3f} of the Morrey-Herz norm")

    return _finish(
        "dual-pairing-and-rectangle-norm-products",
        grid,
        {"params": asdict(params), "seed": seed},
        all_trials,
        summary={
            "herz_product_spread": spread,
            "mk_block_product_spread": mk_spread,
            "pairing_worst_ratio": pairing_worst,
            "sup_pairing_fraction": sup_fraction,
        },
        thresholds=caps,
        gates=spread <= caps["spread_cap"]
        and mk_spread <= caps["spread_cap"]
        and pairing_worst <= caps["pairing_cap"] + 1e-10
        and sup_excess <= 1e-10,
        refine=refine,
        stat="spread",
        base=spread,
        fine=lambda spec: _herz_product_spread(spec, params),
        notes=notes,
    )


# -- suite: maximal operator bounds -----------------------------------------------


def check_maximal_bounds(
    grid: GridSpec,
    space: str,
    params: ExponentParams,
    trials: int = 6,
    variant: str = DYADIC_SIDES,
    seed: int = 0,
    refine: bool = True,
    allow_out_of_hypothesis: bool = False,
) -> InequalityReport:
    """Ratio sweep norm(M f) / norm(f) over adversarial and random objects."""
    violations = admit("maximal_bounds", grid, params, dict(
        space=space, trials=trials, variant=variant, seed=seed, refine=refine,
        allow_out_of_hypothesis=allow_out_of_hypothesis,
    ))
    norm = SPACES[space]
    caps = THRESHOLDS["maximal_bounds"]
    objs = standard_objects(grid, seed, n_random=max(1, trials - 5))

    def run(spec: GridSpec):
        out = []
        for obj in objs:
            f = obj.build(spec)
            rhs = norm(f, params)
            if rhs == 0.0:
                continue
            mf = restrict_to_window(strong_maximal(f, variant))
            lhs = norm(mf, params)
            out.append(TrialRecord(obj.name, lhs, rhs))
        return out

    base_trials = run(grid)
    summary = _ratio_summary(base_trials)
    const_ratio = next((t.ratio for t in base_trials if t.trial == "constant"), None)
    return _finish(
        f"maximal-bounded-on-{space}",
        grid,
        {"params": asdict(params), "variant": variant, "seed": seed},
        base_trials,
        summary=summary | {"constant_ratio": const_ratio},
        thresholds=caps,
        gates=summary["max_ratio"] <= caps["ratio_cap"]
        and (const_ratio is None or const_ratio <= caps["constant_cap"]),
        refine=refine,
        stat="max_ratio",
        base=summary["max_ratio"],
        fine=lambda spec: _ratio_summary(run(spec))["max_ratio"],
        violations=violations,
    )


# -- suite: vector-valued maximal inequality ------------------------------------------


def check_fefferman_stein(
    grid: GridSpec,
    params: ExponentParams,
    r_list: Sequence[float] = (1.5, 2.0, 3.0),
    family_count: int = 4,
    variant: str = DYADIC_SIDES,
    seed: int = 0,
    refine: bool = True,
) -> InequalityReport:
    """Vector-valued maximal inequality: r-sums before vs after the operator."""
    admit("fefferman_stein", grid, params, dict(
        r_list=r_list, family_count=family_count, variant=variant, seed=seed, refine=refine,
    ))
    caps = THRESHOLDS["fefferman_stein"]
    # the size-family_count family is the first half of the doubled one,
    # so each member is built and maximised once per grid
    family = [_base_noise(grid, [seed, 101 + k], masked=True) for k in range(2 * family_count)]

    sizes = (family_count, 2 * family_count)

    def r_sum_norms(spec: GridSpec, fns: list[GridFunction], r: float) -> list[float]:
        # the norm of (sum_{k<size} |f_k|**r)**(1/r) per size; the larger sum
        # continues the smaller one's accumulator, so each |f_k|**r is built once
        acc = np.zeros((spec.n_cells, spec.n_cells))
        norms = []
        for lo, hi in zip((0,) + sizes, sizes):
            for f in fns[lo:hi]:
                acc += np.abs(f.values) ** r
            total = GridFunction(spec, acc ** (1.0 / r))
            norms.append(morrey_herz_norm(restrict_to_window(total), params))
        return norms

    def run(spec: GridSpec):
        fns = [build(spec) for build in family]
        mfns = [strong_maximal(f, variant) for f in fns]
        out = []
        for r in r_list:
            rhs_norms = r_sum_norms(spec, fns, r)
            lhs_norms = r_sum_norms(spec, mfns, r)
            for size, lhs, rhs in zip(sizes, lhs_norms, rhs_norms):
                out.append(TrialRecord(f"r={r},size={size}", lhs, rhs, extra={"r": r, "size": size}))
        return out

    base_trials = run(grid)
    summary = _ratio_summary(base_trials)

    size_drift = 0.0
    for r in r_list:
        small = next(t.ratio for t in base_trials if t.extra == {"r": r, "size": family_count})
        big = next(t.ratio for t in base_trials if t.extra == {"r": r, "size": 2 * family_count})
        size_drift = max(size_drift, _drift(small, big))

    return _finish(
        "vector-valued-maximal",
        grid,
        {
            "params": asdict(params),
            "r_list": list(r_list),
            "family_count": family_count,
            "variant": variant,
            "seed": seed,
        },
        base_trials,
        summary=summary | {"family_size_drift": size_drift},
        thresholds=caps,
        gates=summary["max_ratio"] <= caps["ratio_cap"] and size_drift <= caps["size_drift_cap"],
        refine=refine,
        stat="max_ratio",
        base=summary["max_ratio"],
        fine=lambda spec: _ratio_summary(run(spec))["max_ratio"],
    )


# -- suite: weighted-to-Morrey-Herz extrapolation --------------------------------------


def extrapolation_block_params(params: ExponentParams, p0: float) -> ExponentParams:
    """Block-space exponents (-p0*alpha, (p/p0)', (q/p0)', p0*lam)."""
    if not (0 < p0 < params.p):
        raise ValueError(f"0 < p0 < p required, got p0={p0}, p={params.p}")
    return ExponentParams(
        -p0 * params.alpha,
        conjugate_exponent(params.p / p0),
        conjugate_exponent(params.q / p0),
        p0 * params.lam,
        params.n,
        params.m,
    )


def check_extrapolation(
    grid: GridSpec,
    op: str,
    p0: float,
    params: ExponentParams,
    trials: int = 4,
    variant: str = DYADIC_SIDES,
    c: float | None = None,
    K: int = 6,
    seed: int = 0,
    refine: bool = True,
) -> InequalityReport:
    """Weighted L^p0 hypothesis layer vs Morrey-Herz conclusion layer.

    For generated weights v (the majorant construction applied to unit-block
    probes), the suite measures the weighted ratio ||op f|| / ||f|| in
    L^p0(v) and, side by side, the Morrey-Herz ratio.  The implication is
    demonstrated, not proved: finitely many weights are sampled and both
    layers must stay under the cap with stable refinement.
    """
    admit("extrapolation", grid, params, dict(
        op=op, p0=p0, trials=trials, variant=variant, c=c, K=K, seed=seed, refine=refine,
    ))
    caps = THRESHOLDS["extrapolation"]
    block = extrapolation_block_params(params, p0)

    def apply_op(f: GridFunction) -> GridFunction:
        if op == "strong-maximal":
            return strong_maximal(f, variant)
        return cz_apply(f)

    c_used = c
    if c_used is None:
        c_used = max(1.0, estimate_block_norm_constant(grid, block, variant))

    objs = standard_objects(grid, seed, n_random=max(1, trials - 3))

    def mk_layer(spec: GridSpec):
        """Each object of nonzero Morrey-Herz norm, with ``op f`` and the
        Morrey-Herz ratio (the conclusion layer, which reads no weight)."""
        for obj in objs:
            f = obj.build(spec)
            mk_rhs = morrey_herz_norm(f, params)
            if mk_rhs == 0.0:
                continue
            opf = apply_op(f)
            yield obj, f, opf, morrey_herz_norm(restrict_to_window(opf), params) / mk_rhs

    def run(spec: GridSpec):
        out = []
        probes = standard_objects(grid, seed + 1, n_random=1)
        weights = [("unit", make_weight(constant(spec, 1.0)))]
        for probe in probes[1 : 1 + max(1, trials // 2)]:
            h = probe.build(spec)
            weights.append(
                (
                    f"generated[{probe.name}]",
                    generate_a1_weight(h, c_used, K, variant, block_params=block),
                )
            )
        for obj, f, opf, mk_ratio in mk_layer(spec):
            for wname, w in weights:
                rhs = weighted_lp_norm(f, w, p0)
                if rhs == 0.0:
                    continue
                lhs = weighted_lp_norm(opf, w, p0)
                out.append(
                    TrialRecord(
                        f"{obj.name}|{wname}",
                        lhs,
                        rhs,
                        extra={
                            "mk_ratio": mk_ratio,
                            "weighted_ratio": lhs / rhs,
                        },
                    )
                )
        return out

    base_trials = run(grid)
    summary = _ratio_summary(base_trials)
    # the unit weight keeps every object of nonzero norm, so the trials hold
    # each object's Morrey-Herz ratio: the refinement needs mk_layer alone
    mk_max = max(t.extra["mk_ratio"] for t in base_trials)
    return _finish(
        f"extrapolation[{op}]",
        grid,
        {
            "params": asdict(params),
            "block_params": asdict(block),
            "p0": p0,
            "c": c_used,
            "K": K,
            "variant": variant,
            "seed": seed,
            "n_weights_sampled": 1 + max(1, trials // 2),
        },
        base_trials,
        summary=summary | {"mk_max_ratio": mk_max},
        thresholds=caps,
        gates=summary["max_ratio"] <= caps["ratio_cap"] and mk_max <= caps["ratio_cap"],
        refine=refine,
        stat="mk_max_ratio",
        base=mk_max,
        fine=lambda spec: max(ratio for *_, ratio in mk_layer(spec)),
        notes=[
            "hypothesis layer samples finitely many generated weights; "
            "no exhaustiveness over the unit ball is claimed"
        ],
    )


# -- suite: oscillation decay and bmo equivalence ----------------------------------------


def _default_bmo_family(spec: GridSpec) -> list[GridRectangle]:
    n = spec.n_cells
    fam = RectangleFamily("dyadic-centered").rectangles(spec)
    strided = RectangleFamily(
        "dyadic-sides", stride=max(1, n // 2), min_side=max(1, n // 8)
    ).rectangles(spec)
    return fam + strided


def _bmo_symbols(base: GridSpec, seed: int) -> list[TestObject]:
    l0 = _center_level(base)
    return [
        TestObject("truncated-log", lambda spec: build_function(spec, builtin="truncated_log")),
        TestObject(
            f"indicator-R({l0},{l0})",
            lambda spec: indicator(spec, DyadicRectangle(l0, l0)),
        ),
        TestObject("annulus-comb", _comb),
        TestObject("gaussian", lambda spec: build_function(spec, builtin="gaussian", sigma=0.7)),
        TestObject("power-0.3", lambda spec: build_function(spec, builtin="power", a=0.3, b=0.3)),
        TestObject("noise", _base_noise(base, [seed, 907], masked=False)),
    ]


def check_john_nirenberg_bmo(
    grid: GridSpec,
    params: ExponentParams,
    gammas: Sequence[float] | None = None,
    seed: int = 0,
    refine: bool = True,
) -> InequalityReport:
    """Level-set decay in the Morrey-Herz norm plus the two-norm equivalence.

    For the truncated log b, measures the Morrey-Herz norm of the masked
    level-set indicator {|b - b_R| > gamma} inside the box for a gamma grid
    and fits log-norm against gamma: slope < 0 and R^2 >= r2_min are
    asserted.  Separately, the ratio of the rectangle-normalised Morrey-Herz
    oscillation norm to the plain oscillation norm must sit in
    [1/equiv_cap, equiv_cap] over a six-symbol test set, stably under
    refinement.  The caps are ``THRESHOLDS["john_nirenberg_bmo"]``.
    """
    admit("john_nirenberg_bmo", grid, params, dict(gammas=gammas, seed=seed, refine=refine))
    caps = THRESHOLDS["john_nirenberg_bmo"]
    b = build_function(grid, builtin="truncated_log")
    if gammas is None:
        # start above the symbol's bounded lower-tail oscillation (~2 for the
        # truncated log on this box) so the fit sees the singular-tail decay
        gammas = tuple(np.linspace(2.0, 5.5, 8))

    n = grid.n_cells
    box = GridRectangle(0, n, 0, n)
    b_mean = b.rect_mean(box)
    chi_box = restrict_to_window(constant(grid, 1.0))
    box_norm = morrey_herz_norm(chi_box, params)

    trials: list[TrialRecord] = []
    xs, ys = [], []
    for g in gammas:
        level = np.abs(b.values - b_mean) > g
        meas = float(level.sum()) * grid.h * grid.h
        chi = restrict_to_window(GridFunction(grid, level.astype(float)))
        norm = morrey_herz_norm(chi, params)
        trials.append(
            TrialRecord(
                f"gamma={g:.4g}",
                norm,
                box_norm,
                extra={"gamma": float(g), "level_set_measure": meas},
            )
        )
        if norm > 0:
            xs.append(float(g))
            ys.append(math.log(norm))

    slope, r2 = None, None
    decay_notes: list[str] = []
    if len(xs) >= 3:
        A = np.vstack([np.ones(len(xs)), xs]).T
        coef, *_ = np.linalg.lstsq(A, np.array(ys), rcond=None)
        fit = A @ coef
        ss_res = float(((np.array(ys) - fit) ** 2).sum())
        ss_tot = float(((np.array(ys) - np.mean(ys)) ** 2).sum())
        slope = float(coef[1])
        r2 = 1.0 - (ss_res / ss_tot if ss_tot > 0 else 0.0)
        decay_ok = slope < 0 and r2 >= caps["r2_min"]
    else:
        # gammas beyond the symbol's oscillation on the box leave the level
        # sets empty; the exponential decay statement then holds trivially
        decay_ok = True
        decay_notes.append(
            f"only {len(xs)} nonempty level sets on the gamma grid; "
            f"decay holds trivially"
        )

    symbols = _bmo_symbols(grid, seed)

    def equivalence(spec: GridSpec):
        fam = _default_bmo_family(spec)
        out = []
        for obj in symbols:
            f = obj.build(spec)
            plain = bmo_norm(f, fam)
            mk, _ = bmo_mk_norm(f, params, fam)
            if plain == 0.0:
                continue
            out.append(TrialRecord(f"equiv:{obj.name}", mk, plain))
        return out

    equiv_trials = equivalence(grid)
    trials += equiv_trials
    ratios = [t.ratio for t in equiv_trials]
    equiv_lo, equiv_hi = min(ratios), max(ratios)
    return _finish(
        "john-nirenberg-and-bmo-equivalence",
        grid,
        {
            "params": asdict(params),
            "symbol": "truncated_log",
            "gammas": [float(g) for g in gammas],
            "seed": seed,
        },
        trials,
        summary={
            "decay_slope": slope,
            "decay_r2": r2,
            "equiv_min_ratio": equiv_lo,
            "equiv_max_ratio": equiv_hi,
        },
        thresholds=caps,
        gates=decay_ok and equiv_lo >= 1.0 / caps["equiv_cap"] and equiv_hi <= caps["equiv_cap"],
        refine=refine,
        stat="equiv_max",
        base=equiv_hi,
        fine=lambda spec: max(t.ratio for t in equivalence(spec)),
        notes=decay_notes,
    )


# -- suite: singular integral and commutator dichotomy ------------------------------------

DILATIONS = (1, 2, 4, 8, 16)  # the commutator sweep f_t = f(./t), increasing


def check_cz_comm(
    grid: GridSpec,
    params: ExponentParams,
    seed: int = 0,
    refine: bool = True,
) -> InequalityReport:
    """Operator boundedness plus the commutator dilation dichotomy.

    (i) Morrey-Herz ratios of the double Hilbert transform stay under the
    cap.  (ii) For symbols with bounded mean oscillation, commutator ratios
    stay under the cap across the dilation sweep f_t = f(./t), t in
    ``DILATIONS``.  (iii) For the coordinate symbol b(x, y) = x the ratio at
    the largest dilation must exceed the smallest-dilation ratio by the
    declared growth factor: the empirical contrapositive of the necessity
    direction.  The caps are ``THRESHOLDS["cz_comm"]``.
    """
    admit("cz_comm", grid, params, dict(seed=seed, refine=refine))
    caps = THRESHOLDS["cz_comm"]
    # base object small enough that every dilation stays inside the box
    shift = int(math.log2(DILATIONS[-1]))
    l0 = max(grid.window_low, grid.window_high - shift - 1)

    symbols = [
        ("truncated-log", lambda spec: build_function(spec, builtin="truncated_log"), "bmo"),
        (
            "indicator-square",
            lambda spec: indicator(spec, DyadicRectangle(_center_level(spec), _center_level(spec))),
            "bmo",
        ),
        ("coordinate-x", lambda spec: build_function(spec, rule=lambda x, y: x + 0.0 * y), "non-bmo"),
    ]

    def run(spec: GridSpec, comm: bool = True):
        """The trials on ``spec``; ``comm=False`` keeps the gated ``tk:``
        layer alone, as the refinement needs."""
        out = []
        objs = standard_objects(grid, seed, n_random=2)
        # (i) plain operator layer
        for obj in objs:
            f = obj.build(spec)
            rhs = morrey_herz_norm(f, params)
            if rhs == 0.0:
                continue
            tf = restrict_to_window(cz_apply(f))
            out.append(TrialRecord(f"tk:{obj.name}", morrey_herz_norm(tf, params), rhs))
        if not comm:
            return out
        # (ii)+(iii) commutator dilation sweep
        f0 = restrict_to_window(indicator(spec, DyadicRectangle(l0, l0)))
        for name, build, expected in symbols:
            bsym = build(spec)
            for t in DILATIONS:
                ft = dilate(f0, t) if t > 1 else f0
                rhs = morrey_herz_norm(ft, params)
                cm = restrict_to_window(commutator(bsym, ft))
                lhs = morrey_herz_norm(cm, params)
                out.append(
                    TrialRecord(
                        f"comm:{name}:t={t}",
                        lhs,
                        rhs,
                        extra={"t": t, "expected": expected},
                    )
                )
        return out

    def tk_max_of(trials: list[TrialRecord]) -> float:
        return max(t.ratio for t in trials if t.trial.startswith("tk:"))

    base_trials = run(grid)
    tk_max = tk_max_of(base_trials)
    bmo_max = max(
        t.ratio for t in base_trials if t.trial.startswith("comm:") and t.extra["expected"] == "bmo"
    )
    ratio_of = {t.trial: t.ratio for t in base_trials}
    lo = ratio_of[f"comm:coordinate-x:t={DILATIONS[0]}"]
    hi = ratio_of[f"comm:coordinate-x:t={DILATIONS[-1]}"]
    growth_factor = hi / lo if lo > 0 else math.inf
    return _finish(
        "singular-integral-and-commutator",
        grid,
        {
            "params": asdict(params),
            "kernel": DOUBLE_HILBERT,
            "dilations": list(DILATIONS),
            "seed": seed,
        },
        base_trials,
        summary={
            "tk_max_ratio": tk_max,
            "bmo_comm_max_ratio": bmo_max,
            "non_bmo_growth_factor": growth_factor,
        },
        thresholds=caps,
        gates=tk_max <= caps["tk_ratio_cap"]
        and bmo_max <= caps["comm_ratio_cap"]
        and growth_factor >= caps["growth_min"],
        refine=refine,
        stat="tk_max_ratio",
        base=tk_max,
        fine=lambda spec: tk_max_of(run(spec, comm=False)),
    )
