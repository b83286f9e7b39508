"""Claim-level verification suites.

Each suite sweeps one boundedness / equivalence claim over deterministic
trials (seeded random objects plus fixed adversarial ones), records per-trial
left/right sides and ratios, and asserts only the falsifiable content at desk
scale: finiteness, declared ratio caps, two-sided spreads, and stability of
the summary statistic when the grid is refined from (L_max, s) to
(L_max, s+1).  Empirical constants are reported, never compared against
implicit constants.

One driver, :func:`_drive`, runs every ``check_<suite>``: it binds the
call with its defaults, admits it (:func:`admit`), runs the suite's body,
which returns only what it measured and its :class:`Gate` list, applies the
guarded refinement and appends its drift gate against the suite's caps,
and builds the report.  A gate whose value is undefined (None or NaN) fails;
any failing gate makes the status "fail" and is named in the notes.  The
decorator :func:`_suite_driver` builds each suite with that driver and
registers it in ``SUITES``, the one suite registry, which the CLI reads: a
suite's summary, options, caps and hypotheses are all declared where the suite
is defined, and read from its :class:`SuiteDef`.

Conventions shared by all suites:

* the suites select their objects from one table, ``TRIAL_OBJECTS``, and the
  operator-ratio trials run in one loop, :func:`_operator_sweep`; operator
  outputs are window-masked before annulus-decomposed norms (the truncation
  convention; plain and weighted L^p norms use the unmasked output);
* random objects are drawn at the base resolution and cell-split for the
  refinement run, so both runs measure the same function; rule-defined
  objects are resampled from their rule;
* a suite whose exponent predicate fails never reports "pass": it either
  raises up front or, where a hypothesis-violated run is informative, reports
  status "out-of-hypothesis" with the data.
"""

from __future__ import annotations

import functools
import inspect
import math
import numbers
import operator
from dataclasses import asdict, dataclass, field, fields
from typing import Callable, Iterable, NamedTuple, Sequence

import numpy as np

from .errors import CostGuardError, MherzError, PredicateError, RectangleError
from .grid import (
    MAX_LEVEL_SUM,
    AnnulusIndex,
    DyadicRectangle,
    GridFunction,
    GridRectangle,
    GridSpec,
    annulus_comb,
    annulus_restrict,
    build_function,
    cell_split_noise,
    constant,
    dilate,
    indicator,
    restrict_to_window,
)
from .norms import (
    ExponentParams,
    RectangleFamily,
    _block_upper_bounds,
    _cell_counts,
    _count_table,
    _dyadic_counts,
    _herz_from_table,
    _indicator_norms,
    _morrey_herz_from_table,
    _pow2,
    _rect_counts,
    _swept_rectangles,
    annulus_lp_table,
    block_norm_bracket,
    bmo_mk_norm,
    char_rect_norm_closed_form,
    conjugate_exponent,
    herz_norm,
    morrey_herz_norm,
    pairing_l1,
    predicate_violations,
    require_predicate,
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
    def ratio(self) -> float | None:
        return _ratio(self.lhs, self.rhs)


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
        for t, trial in zip(d["trials"], self.trials):
            t["ratio"] = trial.ratio
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "InequalityReport":
        report = _from_fields(cls, d)
        report.trials = [_from_fields(TrialRecord, t) for t in d["trials"]]
        return report


def _from_fields(cls, d: dict):
    """The dataclass ``cls`` from the entries of ``d`` named by its fields;
    the rest, such as a trial's derived ``ratio``, are dropped."""
    return cls(**{f.name: d[f.name] for f in fields(cls) if f.name in d})


def _ratio(lhs: float, rhs: float) -> float | None:
    """``lhs / rhs``: inf for a positive ``lhs`` over a zero ``rhs``, and
    None, no ratio, for 0/0 and NaN/0."""
    if rhs == 0.0:
        return math.inf if lhs > 0.0 else None
    return lhs / rhs


def _ratio_stats(trials: Iterable[TrialRecord], of=lambda t: t.ratio) -> dict:
    """``n_trials`` and the max, min and median of the ratios ``of(trial)``,
    inf and 0 included.  Each statistic is None, so its gate fails, when a
    trial has no ratio (0/0) or a NaN one, and when no ratio is nonzero,
    which takes in no trials at all: then nothing was measured."""
    ratios = [of(t) for t in trials]
    undefined = any(r is None or math.isnan(r) for r in ratios) or not any(ratios)
    return {
        "n_trials": len(ratios),
        "max_ratio": None if undefined else float(max(ratios)),
        "min_ratio": None if undefined else float(min(ratios)),
        "median_ratio": None if undefined else float(_median(ratios)),
    }


def _spread(stats: dict) -> float | None:
    """Max over min of ``_ratio_stats``' statistics: inf when the min is 0."""
    return None if stats["max_ratio"] is None else _ratio(stats["max_ratio"], stats["min_ratio"])


def _median(xs: Sequence[float]) -> float:
    """The middle of the sorted values, or the mean of the middle two: the
    bits of ``np.median``, which would import ``numpy.ma`` mid-run."""
    s = sorted(xs)
    m = len(s) // 2
    return s[m] if len(s) % 2 else (s[m - 1] + s[m]) / 2


def _drift(base: float | None, refined: float | None) -> float | None:
    if base is None or refined is None:
        return None
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


# -- trial objects ------------------------------------------------------------------


def _center_level(spec: GridSpec) -> int:
    return min(max(0, spec.window_low), spec.window_high)


def _center_indicator(spec: GridSpec, base: GridSpec) -> GridFunction:
    l0 = _center_level(base)
    return indicator(spec, DyadicRectangle(l0, l0))


def _outer_annulus(spec: GridSpec, base: GridSpec) -> GridFunction:
    return annulus_restrict(constant(spec, 1.0), AnnulusIndex(base.window_high, base.window_low))


def _coordinate_x(spec: GridSpec, base: GridSpec) -> GridFunction:
    return GridFunction._adopt(spec, np.repeat(spec.cell_centers()[:, None], spec.n_cells, axis=1))


def _builtin(name: str, **params) -> Callable[[GridSpec, GridSpec], GridFunction]:
    return lambda spec, base: build_function(spec, builtin=name, **params)


class TrialObject(NamedTuple):
    """``build(spec, base)`` samples the object on ``spec`` for a suite on the
    base grid ``base``; a seeded one's also takes ``seed(suite seed, k)``, the
    noise seed of draw ``k``.  ``masked`` cuts it to the window.  ``label``
    names it in reports, with ``{k}`` and the base grid's ``{l0}``, ``{lo}``,
    ``{hi}`` filled in."""

    label: str
    build: Callable[..., GridFunction]
    masked: bool
    seed: Callable[[int, int], list[int]] | None = None

    def realise(self, base: GridSpec, noise_seed, spec: GridSpec) -> GridFunction:
        f = self.build(spec, base, noise_seed) if self.seed else self.build(spec, base)
        return restrict_to_window(f) if self.masked else f


TRIAL_OBJECTS: dict[str, TrialObject] = {
    # the operator suites' objects, all window-supported: the annuli as built
    "constant": TrialObject("constant", lambda spec, base: constant(spec, 1.0), True),
    "indicator-R": TrialObject("indicator-R({l0},{l0})", _center_indicator, True),
    "annulus": TrialObject("annulus-({hi},{lo})", _outer_annulus, False),
    "annulus-comb": TrialObject("annulus-comb", lambda spec, base: annulus_comb(spec), False),
    "truncated-log": TrialObject("truncated-log", _builtin("truncated_log"), True),
    "noise": TrialObject("noise-{k}", cell_split_noise, True, lambda seed, k: [seed, k]),
    "member": TrialObject("member-{k}", cell_split_noise, True, lambda seed, k: [seed, 101 + k]),
    # symbols, on the whole box
    "log-symbol": TrialObject("truncated-log", _builtin("truncated_log"), False),
    "indicator-symbol": TrialObject("indicator-R({l0},{l0})", _center_indicator, False),
    "square-symbol": TrialObject("indicator-square", _center_indicator, False),
    "gaussian": TrialObject("gaussian", _builtin("gaussian", sigma=0.7), False),
    "power-0.3": TrialObject("power-0.3", _builtin("power", a=0.3, b=0.3), False),
    "noise-symbol": TrialObject("noise", cell_split_noise, False, lambda seed, k: [seed, 907]),
    "coordinate-x": TrialObject("coordinate-x", _coordinate_x, False),
}
# what the suites select, in trial order; fefferman_stein draws "member"s
OPERATOR_OBJECTS = ("constant", "indicator-R", "annulus", "annulus-comb", "truncated-log", "noise")
BMO_SYMBOLS = (
    "log-symbol", "indicator-symbol", "annulus-comb", "gaussian", "power-0.3", "noise-symbol"
)
COMMUTATOR_SYMBOLS = {"log-symbol": "bmo", "square-symbol": "bmo", "coordinate-x": "non-bmo"}


def trial_objects(names: Sequence[str], base: GridSpec, seed: int, draws: int = 1) -> list:
    """The ``TRIAL_OBJECTS`` entries ``names`` for a suite on the base grid
    ``base`` with seed ``seed``, in order, as ``(label, build)`` pairs, where
    ``build(spec)`` samples it on ``spec``; a seeded entry whose label takes
    ``{k}`` gives ``draws``, and one whose label does not gives one."""
    levels = {"l0": _center_level(base), "lo": base.window_low, "hi": base.window_high}
    out = []
    for entry in (TRIAL_OBJECTS[name] for name in names):
        for k in range(draws if entry.seed and "{k}" in entry.label else 1):
            noise_seed = entry.seed(seed, k) if entry.seed else None
            build = functools.partial(entry.realise, base, noise_seed)
            out.append((entry.label.format(k=k, **levels), build))
    return out


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

EXTRAPOLATION_OPS: dict[str, Callable[[GridFunction, str], GridFunction]] = {
    "strong-maximal": strong_maximal,
    DOUBLE_HILBERT: lambda f, variant: cz_apply(f),
}


def _choice(what: str, value, choices: dict) -> None:
    if not (isinstance(value, str) and value in choices):
        raise ValueError(f"unknown {what} {value!r}; use {' or '.join(choices)}")


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
    "space": lambda space: _choice("space", space, SPACES),
    "variant": as_variant,
    "op": lambda op: _choice("operator", op, EXTRAPOLATION_OPS),
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


# -- suite hypotheses ------------------------------------------------------------
#
# Each suite's exponent hypotheses, as a function of its params block and
# options returning the violated inequalities.  A suite declares its own with
# ``@_suite_driver(..., hypotheses=...)``; :func:`admit` raises
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


def admit(suite: str, grid: GridSpec, params, options: dict) -> list[str]:
    """What ``check_<suite>`` accepts, decided once for the suite and the CLI.

    ``options`` holds every option of the suite.  Checks the grid's window,
    each option's ``OPTION_DOMAINS`` entry, the exact-grid gate and
    ``SUITES[suite].grid_guard`` on :func:`finest_grid`, and
    ``SUITES[suite].hypotheses``, whose violations are returned under
    ``allow_out_of_hypothesis``.  Every error raised names its cause in
    ``field``: ``"grid"``, ``"options.<key>"`` or ``"params"``.
    """
    cause = "grid"
    try:
        if grid.window_low > grid.window_high:
            raise RectangleError(f"annulus window [{grid.window_low}, {grid.window_high}] is empty")
        for key, value in options.items():
            cause = f"options.{key}"
            OPTION_DOMAINS[key](value)
        finest = finest_grid(grid, options.get("refine", False))
        if "variant" in options:
            cause = "options.variant"
            as_variant(options["variant"], finest.n_cells)
        cause = "grid"
        SUITES[suite].grid_guard(finest)
        cause = "params"
        if isinstance(params, Sequence) and not params:
            raise ValueError("expected at least one parameter set")
        violations = SUITES[suite].hypotheses(params, options)
        if violations and not options.get("allow_out_of_hypothesis", False):
            raise PredicateError(f"{suite}: " + "; ".join(violations))
    except (ValueError, MherzError) as exc:
        exc.field = cause
        raise
    return violations


# -- the suite driver --------------------------------------------------------------


_GATE_OPS = {"<": operator.lt, "<=": operator.le, ">=": operator.ge}


class Gate(NamedTuple):
    """One gated statistic: ``value op cap`` must hold.  An undefined value,
    None or NaN, fails."""

    stat: str
    value: float | None
    op: str  # "<", "<=" or ">="
    cap: float

    def holds(self) -> bool:
        return self.value is not None and _GATE_OPS[self.op](self.value, self.cap)


@dataclass
class _Measured:
    """What a suite's body measured on its base grid.  ``params`` holds the
    suite's own report entries; ``fine`` recomputes the gated statistic
    ``stat`` (base value ``base``) on a finer grid, and a None ``base``
    skips the refinement."""

    claim: str
    params: dict
    trials: list[TrialRecord]
    summary: dict
    gates: list[Gate]
    notes: Sequence[str] = ()
    stat: str = ""
    base: float | None = None
    fine: Callable[[GridSpec], float | None] | None = None


def _drive(body: Callable[..., _Measured], signature: inspect.Signature) -> Callable:
    """``check_<suite>`` from its body: admission, refinement, status, report.

    The suite keeps the body's ``signature`` and docstring.  The call is bound
    to it with the defaults filled in, and every argument but ``grid`` and
    the exponents goes to :func:`admit` as an option before ``body`` runs.
    With the ``refine`` option set and a ``base`` measured, the statistic is
    recomputed on :func:`finest_grid` when the size guard admits it; that
    run recomputes only ``refined_<stat>``, not the suite's whole base
    sweep, and its relative drift is one more gate, capped by
    ``SUITES[suite].caps["drift_cap"]``.  A failing gate makes the status
    "fail" and is named in the notes, after the body's own.  The report
    keeps a copy of the suite's caps.  Violated hypotheses make the status
    "out-of-hypothesis" and lead the notes.
    """
    suite = body.__name__.removeprefix("check_")

    @functools.wraps(body)
    def check(*args, **kwargs) -> InequalityReport:
        call = signature.bind(*args, **kwargs)
        call.apply_defaults()
        options = dict(call.arguments)
        grid = options.pop("grid")
        key = "param_sets" if "param_sets" in options else "params"
        params = options.pop(key)
        violations = admit(suite, grid, params, options)
        measured = body(*call.args, **call.kwargs)
        thresholds = dict(SUITES[suite].caps)
        gates, refinement = measured.gates, None
        finer = finest_grid(grid, options.get("refine", False) and measured.base is not None)
        if finer != grid:
            value = measured.fine(finer)
            refinement = {
                f"base_{measured.stat}": measured.base,
                f"refined_{measured.stat}": value,
                "drift": _drift(measured.base, value),
                "refined_grid": _grid_dict(finer),
            }
            gates.append(Gate("drift", refinement["drift"], "<=", thresholds["drift_cap"]))
        failing = [f"gate {g.stat} {g.op} {g.cap!r} fails: {g.value!r}" for g in gates if not g.holds()]
        exponents = [asdict(p) for p in params] if key == "param_sets" else asdict(params)
        return InequalityReport(
            claim=measured.claim,
            params={"grid": _grid_dict(grid), key: exponents} | measured.params,
            trials=measured.trials,
            summary=measured.summary,
            thresholds=thresholds,
            refinement=refinement,
            status="out-of-hypothesis" if violations else ("fail" if failing else "pass"),
            notes=[*violations, *measured.notes, *failing],
        )

    return check


@dataclass(frozen=True)
class SuiteDef:
    """A registered suite ``runner = check_<name>``, whose ``options`` are its
    arguments after ``grid`` and ``param_sets`` (if ``multi_params``) or
    ``params``.  ``caps`` are its constants, copied as they stand into every
    report's ``thresholds``; ``hypotheses(params, options)`` lists the
    violated exponent hypotheses, and ``grid_guard(grid)`` raises on a finest
    grid the suite's cost guards would refuse mid-run, both for
    :func:`admit`."""

    name: str
    summary: str
    runner: Callable[..., InequalityReport]
    options: tuple[str, ...]
    defaults: dict  # option -> default; options without one are required
    multi_params: bool
    caps: dict[str, float]
    hypotheses: Callable[..., list[str]]
    grid_guard: Callable[[GridSpec], None]


SUITES: dict[str, SuiteDef] = {}  # filled by @_suite_driver, read by the CLI


def _suite_driver(
    summary: str,
    *,
    caps: dict[str, float],
    hypotheses: Callable[..., list[str]],
    grid_guard: Callable[[GridSpec], None] = lambda grid: None,
):
    """Decorator: ``check_<name>`` is its body under :func:`_drive`, and is
    registered as ``SUITES[name]`` with ``summary``, ``caps``, ``hypotheses``,
    ``grid_guard`` and the options read off the same signature."""

    def register(body: Callable[..., _Measured]) -> Callable[..., InequalityReport]:
        signature = inspect.signature(body)
        check = _drive(body, signature)
        multi = "param_sets" in signature.parameters
        exclude = ("grid", "param_sets" if multi else "params")
        options = {k: p for k, p in signature.parameters.items() if k not in exclude}
        defaults = {k: p.default for k, p in options.items() if p.default is not p.empty}
        name = body.__name__.removeprefix("check_")
        SUITES[name] = SuiteDef(
            name, summary, check, tuple(options), defaults, multi, caps, hypotheses, grid_guard
        )
        return check

    return register


# -- suite: indicator closed forms -----------------------------------------------


def _closed_form_trial(name: str, got: float, want: float) -> TrialRecord:
    """``got`` against the closed form ``want``, with the relative error
    ``|got - want| / want``: NaN, which fails the gate, where ``want``
    underflowed to 0 or both sides overflowed to inf."""
    rel = abs(got - want) / want if want else math.nan
    return TrialRecord(name, got, want, extra={"rel_err": rel})


@_suite_driver(
    "indicator Morrey-Herz norms vs exact closed forms",
    caps={"rel_tol": 1e-12},
    hypotheses=_char_norms_hypotheses,
)
def check_char_norms(
    grid: GridSpec,
    param_sets: Sequence[ExponentParams],
) -> InequalityReport:
    """Grid Morrey-Herz norms of centered indicators vs the exact closed form.

    Also checks that consecutive-diagonal ratios of the continuum closed form
    equal 2**(alpha + n/p - lam), and that lam = 0 degenerates to the Herz
    closed form.
    """
    caps = SUITES["char_norms"].caps
    trials: list[TrialRecord] = []
    rects, counts = _dyadic_counts(grid)
    for pset_id, pr in enumerate(param_sets):
        for rect, got in zip(rects, _indicator_norms(grid, counts, pr)):
            want = char_rect_norm_closed_form(
                pr, rect.l1, rect.l2, "morrey-herz", window_floor=grid.window_low
            )
            trials.append(_closed_form_trial(f"set{pset_id}:chi({rect.l1},{rect.l2})", got, want))
        # continuum diagonal scaling, checked away from float-pow noise
        target = _pow2(pr.alpha + pr.n / pr.p - pr.lam)
        base_v = char_rect_norm_closed_form(pr, 0, 0, "morrey-herz")
        step_v = char_rect_norm_closed_form(pr, 1, 0, "morrey-herz")
        ratio = step_v / base_v if base_v else math.nan  # NaN where base_v underflowed
        trials.append(_closed_form_trial(f"set{pset_id}:diagonal-ratio", ratio, target))
        # lam = 0 degenerates to the Herz closed form, checked at a window level
        pr0, l0 = pr.with_lam(0.0), _center_level(grid)
        g0 = char_rect_norm_closed_form(pr0, l0, l0, "morrey-herz", window_floor=grid.window_low)
        h0 = char_rect_norm_closed_form(pr0, l0, l0, "herz", window_floor=grid.window_low)
        trials.append(_closed_form_trial(f"set{pset_id}:lam0-degenerate", g0, h0))

    # np.max, unlike max(), keeps a NaN error, which fails the gate
    worst = float(np.max([t.extra["rel_err"] for t in trials]))
    return _Measured(
        "char-indicator-closed-form",
        {},
        trials,
        summary={"n_trials": len(trials), "worst_rel_err": worst},
        gates=[Gate("worst_rel_err", worst, "<=", caps["rel_tol"])],
    )


# -- suite: duality and norm products ----------------------------------------------


def _norm_product_sweep(spec: GridSpec, params: ExponentParams):
    """Herz and Morrey-Herz-times-block-upper products of every centered
    dyadic indicator, from its closed-form annulus tables: the masked
    indicator of ``(l1, l2)`` is its own smallest containing dyadic
    rectangle, the host of the block bound.  Also returns each indicator's
    single-block bound ``2**((l1+l2)*lam) * herz`` in the dual exponents,
    as ``(rectangle, bound)`` pairs, where that bound is nonzero."""
    trials, singles = [], []
    dual = params.dual()
    lam_params = _with_positive_lam(params)
    block_params = lam_params.dual()
    require_predicate(block_params, "block")
    rects, counts = _dyadic_counts(spec)
    # one table stack per exponent; the dual Herz and block exponents coincide
    tables = {p: _count_table(spec, counts, p) for p in {params.p, dual.p}}
    mks = _morrey_herz_from_table(spec, tables[params.p], lam_params).tolist()
    for rect, mk, table, dual_table in zip(rects, mks, tables[params.p], tables[dual.p]):
        area = rect.measure()
        hprod = _herz_from_table(spec, table, params) * _herz_from_table(spec, dual_table, dual)
        bounds = _block_upper_bounds(spec, dual_table, rect, block_params)
        if bounds[0] != 0.0:
            singles.append((rect, bounds[0]))
        mkprod = mk * min(bounds)
        trials.append(
            TrialRecord(
                f"chi({rect.l1},{rect.l2})", hprod, area,
                extra={"mk_block_product_over_area": mkprod / area},
            )
        )
    mk = _ratio_stats(trials, lambda t: t.extra["mk_block_product_over_area"])
    return trials, _spread(_ratio_stats(trials)), _spread(mk), singles


@_suite_driver(
    "pairing bounds and indicator norm products",
    caps={"spread_cap": 16.0, "pairing_cap": 1.0, "drift_cap": 0.10},
    hypotheses=_norm_duality_hypotheses,
)
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
    the Morrey-Herz norm (constant 1), and the achieved fraction is recorded;
    a probe of zero norm measures nothing, so that gate fails on None.
    """
    caps = SUITES["norm_duality"].caps
    notes: list[str] = []
    all_trials, spread, mk_spread, singles = _norm_product_sweep(grid, params)

    dual = params.dual()
    pairings = []
    builds = [build for _, build in trial_objects(OPERATOR_OBJECTS, grid, seed, max(2, trials - 3))]
    for k in range(trials):
        a = builds[k % len(builds)](grid)
        b = builds[(k * 7 + 3) % len(builds)](grid)
        lhs = pairing_l1(a, b)
        rhs = herz_norm(a, dual) * herz_norm(b, params)
        if rhs == 0.0:
            continue
        pairings.append(TrialRecord(f"pairing-{k}", lhs, rhs))
    all_trials += pairings
    pairing_worst = _ratio_stats(pairings)["max_ratio"]

    sup_fraction = sup_excess = None
    f_probe = builds[-1](grid)
    mk = morrey_herz_norm(f_probe, _with_positive_lam(params))
    if not mk > 0:
        notes.append(f"the probe's Morrey-Herz norm is {mk!r}: no unit-block pairing measured")
    else:
        # Q(l) cut to the window is the annuli window_low..l on each axis, so the
        # L^1 table's prefix sums are the pairings; float(), as the CSV writes repr(lhs)
        mass, lo = annulus_lp_table(f_probe, 1.0).cumsum(0).cumsum(1), grid.window_low
        best = max([0.0] + [float(mass[r.l1 - lo, r.l2 - lo]) / d for r, d in singles])
        sup_fraction = best / mk
        sup_excess = max(0.0, sup_fraction - 1.0)
        all_trials.append(
            TrialRecord("sup-pairing-vs-mk", best, mk, note="unit-block pairing lower bound")
        )
        notes.append(f"unit-block pairing achieves {sup_fraction:.3f} of the Morrey-Herz norm")

    return _Measured(
        "dual-pairing-and-rectangle-norm-products",
        {"seed": seed},
        all_trials,
        summary={
            "herz_product_spread": spread,
            "mk_block_product_spread": mk_spread,
            "pairing_worst_ratio": pairing_worst,
            "sup_pairing_fraction": sup_fraction,
        },
        gates=[
            Gate("herz_product_spread", spread, "<=", caps["spread_cap"]),
            Gate("mk_block_product_spread", mk_spread, "<=", caps["spread_cap"]),
            Gate("pairing_worst_ratio", pairing_worst, "<=", caps["pairing_cap"] + 1e-10),
            Gate("sup_pairing_excess", sup_excess, "<=", 1e-10),
        ],
        stat="spread",
        base=spread,
        fine=lambda spec: _norm_product_sweep(spec, params)[1],
        notes=notes,
    )


# -- suite: maximal operator bounds -----------------------------------------------


def _operator_sweep(
    objs: Sequence[tuple[str, Callable[[GridSpec], GridFunction]]],
    spec: GridSpec,
    op: Callable[[GridFunction], GridFunction],
    norm: Callable[[GridFunction, ExponentParams], float],
    params: ExponentParams,
    also: Callable[[GridFunction, GridFunction], dict] | None = None,
):
    """The operator-ratio trials of the suites: for each object ``f`` of nonzero
    ``norm`` on ``spec``, the record of ``norm(op f)`` (``op f`` cut to the
    window) over ``norm(f)``, whose ``extra`` is what ``also(f, op f)``
    measured.  A measured object's tables are dropped before the next build."""
    for name, build in objs:
        f = build(spec)
        rhs = norm(f, params)
        if rhs == 0.0:
            continue
        opf = op(f)
        extra = also(f, opf) if also else {}
        masked = restrict_to_window(opf)
        del f, opf  # before the norm, which takes tables of its own
        lhs = norm(masked, params)
        del masked
        yield TrialRecord(name, lhs, rhs, extra=extra)


@_suite_driver(
    "maximal operator norm ratios on herz / morrey-herz / block-upper",
    caps={"ratio_cap": 50.0, "constant_cap": 1.5, "drift_cap": 0.20},
    hypotheses=_maximal_bounds_hypotheses,
)
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
    norm = SPACES[space]
    caps = SUITES["maximal_bounds"].caps
    objs = trial_objects(OPERATOR_OBJECTS, grid, seed, draws=max(1, trials - 5))

    def run(spec: GridSpec):
        return list(_operator_sweep(objs, spec, lambda f: strong_maximal(f, variant), norm, params))

    base_trials = run(grid)
    summary = _ratio_stats(base_trials)
    const_ratio = next((t.ratio for t in base_trials if t.trial == "constant"), None)
    gates = [Gate("max_ratio", summary["max_ratio"], "<=", caps["ratio_cap"])]
    if const_ratio is not None:  # a constant of zero norm is dropped and leaves nothing to cap
        gates.append(Gate("constant_ratio", const_ratio, "<=", caps["constant_cap"]))
    return _Measured(
        f"maximal-bounded-on-{space}",
        {"variant": variant, "seed": seed},
        base_trials,
        summary=summary | {"constant_ratio": const_ratio},
        gates=gates,
        stat="max_ratio",
        base=summary["max_ratio"],
        fine=lambda spec: _ratio_stats(run(spec))["max_ratio"],
    )


# -- suite: vector-valued maximal inequality ------------------------------------------


@_suite_driver(
    "vector-valued maximal inequality ratios",
    caps={"ratio_cap": 50.0, "size_drift_cap": 0.25, "drift_cap": 0.25},
    hypotheses=_ms_herz_char_hypotheses,
)
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
    caps = SUITES["fefferman_stein"].caps
    # the size-family_count family is the first half of the doubled one,
    # so each member is maximised once per grid
    family = [build for _, build in trial_objects(("member",), grid, seed, 2 * family_count)]

    sizes = (family_count, 2 * family_count)

    def r_sum_norms(spec: GridSpec, members) -> dict:
        # norms of (sum_{k<size} |g_k|**r)**(1/r), keyed (r index, size): one
        # running sum per r takes the streamed members in order, so each sum
        # has the bits of a sum over a list of them
        n = spec.n_cells
        sums = [np.zeros((n, n)) for _ in r_list]
        norms = {}
        k = 0  # not enumerate(): its reused result tuple keeps the last member alive
        for g in members:
            a = np.abs(g.values)
            del g  # before the scratch table, and before the next member is built
            t = np.empty_like(a)
            for r, acc in zip(r_list, sums):
                acc += np.power(a, r, out=t)  # the bits of a ** r
            del a, t
            k += 1
            if k in sizes:
                for i, (r, acc) in enumerate(zip(r_list, sums)):
                    total = restrict_to_window(GridFunction._adopt(spec, acc ** (1.0 / r)))
                    norms[i, k] = morrey_herz_norm(total, params)
                del total
        return norms

    def run(spec: GridSpec):
        # one member and its M f at a time; the f side rebuilds the members
        # (cheap next to M f) once the M f side is done, so only one side's
        # running sums are alive during the maximal-operator calls
        lhs = r_sum_norms(spec, (strong_maximal(build(spec), variant) for build in family))
        rhs = r_sum_norms(spec, (build(spec) for build in family))
        return [
            TrialRecord(
                f"r={r},size={size}", lhs[i, size], rhs[i, size], extra={"r": r, "size": size}
            )
            for i, r in enumerate(r_list)
            for size in sizes
        ]

    base_trials = run(grid)
    summary = _ratio_stats(base_trials)

    ratio_of = {(t.extra["r"], t.extra["size"]): t.ratio for t in base_trials}
    drifts = [_drift(ratio_of[r, family_count], ratio_of[r, 2 * family_count]) for r in r_list]
    size_drift = None if None in drifts else max(0.0, *drifts)

    return _Measured(
        "vector-valued-maximal",
        {
            "r_list": list(r_list),
            "family_count": family_count,
            "variant": variant,
            "seed": seed,
        },
        base_trials,
        summary=summary | {"family_size_drift": size_drift},
        gates=[
            Gate("max_ratio", summary["max_ratio"], "<=", caps["ratio_cap"]),
            Gate("family_size_drift", size_drift, "<=", caps["size_drift_cap"]),
        ],
        stat="max_ratio",
        base=summary["max_ratio"],
        fine=lambda spec: _ratio_stats(run(spec))["max_ratio"],
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


@_suite_driver(
    "weighted L^p0 hypothesis layer vs Morrey-Herz conclusion layer",
    caps={"ratio_cap": 50.0, "drift_cap": 0.25},
    hypotheses=_extrapolation_hypotheses,
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
    caps = SUITES["extrapolation"].caps
    block = extrapolation_block_params(params, p0)
    c_used = c
    if c_used is None:
        c_used = max(1.0, estimate_block_norm_constant(grid, block, variant))

    objs = trial_objects(OPERATOR_OBJECTS, grid, seed, draws=max(1, trials - 3))

    def sweep(spec: GridSpec, also=None):
        return _operator_sweep(
            objs, spec, lambda f: EXTRAPOLATION_OPS[op](f, variant), morrey_herz_norm, params, also
        )

    probes = trial_objects(OPERATOR_OBJECTS, grid, seed + 1)[1 : 1 + max(1, trials // 2)]
    weights = [("unit", make_weight(constant(grid, 1.0)))] + [
        (f"generated[{name}]", generate_a1_weight(h(grid), c_used, K, variant, block))
        for name, h in probes
    ]

    def weighted(f: GridFunction, opf: GridFunction) -> dict:
        """The hypothesis layer: ``op f`` and ``f`` in L^p0 of each weight
        under which ``f`` is nonzero."""
        out = {}
        for wname, w in weights:
            rhs = weighted_lp_norm(f, w, p0)
            if rhs != 0.0:
                out[wname] = weighted_lp_norm(opf, w, p0), rhs
        return out

    # the conclusion layer's records, one per object, read no weight; the
    # trials give each weight's pair beside the object's Morrey-Herz ratio
    records, base_trials = list(sweep(grid, weighted)), []
    for t in records:
        for wname, (lhs, rhs) in t.extra.items():
            extra = {"mk_ratio": t.ratio, "weighted_ratio": _ratio(lhs, rhs)}
            base_trials.append(TrialRecord(f"{t.trial}|{wname}", lhs, rhs, extra=extra))
    summary = _ratio_stats(base_trials)
    mk_max = _ratio_stats(records)["max_ratio"]
    return _Measured(
        f"extrapolation[{op}]",
        {
            "block_params": asdict(block),
            "p0": p0,
            "c": c_used,
            "K": K,
            "variant": variant,
            "seed": seed,
            "n_weights_sampled": len(weights),
        },
        base_trials,
        summary=summary | {"mk_max_ratio": mk_max},
        gates=[
            Gate("max_ratio", summary["max_ratio"], "<=", caps["ratio_cap"]),
            Gate("mk_max_ratio", mk_max, "<=", caps["ratio_cap"]),
        ],
        stat="mk_max_ratio",
        base=mk_max,
        fine=lambda spec: _ratio_stats(sweep(spec))["max_ratio"],
        notes=[
            "hypothesis layer samples finitely many generated weights; "
            "no exhaustiveness over the unit ball is claimed",
        ],
    )


# -- suite: oscillation decay and bmo equivalence ----------------------------------------


def _default_bmo_family(spec: GridSpec) -> list[GridRectangle]:
    """The dyadic-centered rectangles, then the strided dyadic-sides ones,
    each rectangle once: the whole grid is in both."""
    n = spec.n_cells
    fam = RectangleFamily("dyadic-centered").rectangles(spec)
    strided = RectangleFamily(
        "dyadic-sides", stride=max(1, n // 2), min_side=max(1, n // 8)
    ).rectangles(spec)
    return list(dict.fromkeys(fam + strided))


def _bmo_sweep_guard(spec: GridSpec) -> None:
    """The oscillation sweep's cost guard on the default family of ``spec``,
    so a grid it refuses is refused before the run, not halfway through."""
    try:
        _swept_rectangles(spec, _default_bmo_family(spec))
    except CostGuardError as exc:
        raise CostGuardError(f"N={spec.n_cells} is past the bmo sweep's cost guard: {exc}") from None


@_suite_driver(
    "level-set decay fit and bmo norm equivalence",
    caps={"r2_min": 0.98, "equiv_cap": 10.0, "drift_cap": 0.20},
    hypotheses=_ms_herz_char_hypotheses,
    grid_guard=_bmo_sweep_guard,
)
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
    asserted, and fail when fewer than three level sets are nonempty, since
    then nothing is fitted.  Separately, the ratio of the
    rectangle-normalised Morrey-Herz oscillation norm to the plain
    oscillation norm must sit in [1/equiv_cap, equiv_cap] over a six-symbol
    test set, stably under refinement.  The caps are ``SUITES["john_nirenberg_bmo"].caps``.
    """
    caps = SUITES["john_nirenberg_bmo"].caps
    if gammas is None:
        # start above the symbol's bounded lower-tail oscillation (~2 for the
        # truncated log on this box) so the fit sees the singular-tail decay
        gammas = tuple(np.linspace(2.0, 5.5, 8))

    n = grid.n_cells
    box = GridRectangle(0, n, 0, n)
    b = build_function(grid, builtin="truncated_log")
    dev = np.abs(b.values - b.rect_mean(box))  # |b - b_R|, once for every gamma
    (box_norm,) = _indicator_norms(grid, _rect_counts(grid, [box]), params)
    # each level set's masked indicator, from its counts, which sum to its cells
    counts = np.stack([_cell_counts(grid, dev > g) for g in gammas])
    trials = [
        TrialRecord(
            f"gamma={g:.4g}",
            norm,
            box_norm,
            extra={"gamma": float(g), "level_set_measure": float(c.sum()) * grid.h * grid.h},
        )
        for g, c, norm in zip(gammas, counts, _indicator_norms(grid, counts, params))
    ]
    fit = [(t.extra["gamma"], math.log(t.lhs)) for t in trials if t.lhs > 0]

    slope, r2 = None, None
    notes: list[str] = []
    if len(fit) >= 3:
        # least squares in closed form on centred data, elementwise only: a
        # BLAS or LAPACK call would leave its library pages resident
        x, y = (np.array(v) for v in zip(*fit))
        xc, yc = x - x.mean(), y - y.mean()
        slope = float((xc * yc).sum() / (xc * xc).sum())
        ss_res = float(((yc - slope * xc) ** 2).sum())
        ss_tot = float((yc**2).sum())
        r2 = 1.0 - (ss_res / ss_tot if ss_tot > 0 else 0.0)
    else:
        # gammas beyond the symbol's oscillation on the box leave the level
        # sets empty; the decay statement then holds trivially, but nothing
        # was measured, so both decay gates fail on None
        notes.append(
            f"only {len(fit)} nonempty level sets on the gamma grid; "
            f"decay holds trivially"
        )

    symbols = trial_objects(BMO_SYMBOLS, grid, seed)

    def equivalence(spec: GridSpec):
        fam = _default_bmo_family(spec)
        out = []
        for name, build in symbols:
            f = build(spec)
            mk, plain, _ = bmo_mk_norm(f, params, fam)  # one sweep gives both norms
            del f  # free it before the next symbol is built
            if plain == 0.0:
                continue
            out.append(TrialRecord(f"equiv:{name}", mk, plain))
        return out

    equiv_trials = equivalence(grid)
    trials += equiv_trials
    equiv = _ratio_stats(equiv_trials)
    equiv_lo, equiv_hi = equiv["min_ratio"], equiv["max_ratio"]
    cap = caps["equiv_cap"]
    return _Measured(
        "john-nirenberg-and-bmo-equivalence",
        {
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
        gates=[
            Gate("decay_slope", slope, "<", 0.0),
            Gate("decay_r2", r2, ">=", caps["r2_min"]),
            Gate("equiv_min_ratio", equiv_lo, ">=", 1.0 / cap),
            Gate("equiv_max_ratio", equiv_hi, "<=", cap),
        ],
        stat="equiv_max",
        base=equiv_hi,
        fine=lambda spec: _ratio_stats(equivalence(spec))["max_ratio"],
        notes=notes,
    )


# -- suite: singular integral and commutator dichotomy ------------------------------------

DILATIONS = (1, 2, 4, 8, 16)  # the commutator sweep f_t = f(./t), increasing


@_suite_driver(
    "singular operator boundedness and commutator dichotomy",
    caps={"tk_ratio_cap": 50.0, "comm_ratio_cap": 50.0, "growth_min": 2.0, "drift_cap": 0.25},
    hypotheses=_ms_herz_char_hypotheses,
)
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
    direction.  The caps are ``SUITES["cz_comm"].caps``.
    """
    caps = SUITES["cz_comm"].caps
    # base object small enough that every dilation stays inside the box
    shift = int(math.log2(DILATIONS[-1]))
    l0 = max(grid.window_low, grid.window_high - shift - 1)

    # (i) the plain operator layer, the one the refinement recomputes
    objs = [(f"tk:{name}", build) for name, build in trial_objects(OPERATOR_OBJECTS, grid, seed, 2)]
    tk = functools.partial(_operator_sweep, objs, op=cz_apply, norm=morrey_herz_norm, params=params)
    base_trials = list(tk(grid))
    tk_max = _ratio_stats(base_trials)["max_ratio"]
    # (ii)+(iii) commutator dilation sweep, kept at a zero right side unless
    # the left side is zero too: a 0/0 trial (on coarse grids the widest
    # dilations leave the box) has no ratio and is named in the notes
    f0 = restrict_to_window(indicator(grid, DyadicRectangle(l0, l0)))
    dilated = [dilate(f0, t) if t > 1 else f0 for t in DILATIONS]  # shared by the symbols
    rhs_of = [morrey_herz_norm(ft, params) for ft in dilated]
    symbols = trial_objects(COMMUTATOR_SYMBOLS, grid, seed)
    skipped = []
    for (label, build), expected in zip(symbols, COMMUTATOR_SYMBOLS.values()):
        bsym = build(grid)
        for t, ft, rhs in zip(DILATIONS, dilated, rhs_of):
            lhs = morrey_herz_norm(restrict_to_window(commutator(bsym, ft)), params)
            name = f"comm:{label}:t={t}"
            if lhs == rhs == 0.0:
                skipped.append(f"skipped {name}: both sides are 0")
                continue
            base_trials.append(TrialRecord(name, lhs, rhs, extra={"t": t, "expected": expected}))
    bmo_max = _ratio_stats(t for t in base_trials if t.extra.get("expected") == "bmo")["max_ratio"]
    ratio_of = {t.trial: t.ratio for t in base_trials}
    lo = ratio_of.get(f"comm:coordinate-x:t={DILATIONS[0]}")
    hi = ratio_of.get(f"comm:coordinate-x:t={DILATIONS[-1]}")
    # None where an end dilation was skipped
    growth_factor = None if lo is None or hi is None else _ratio(hi, lo)
    return _Measured(
        "singular-integral-and-commutator",
        {
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
        gates=[
            Gate("tk_max_ratio", tk_max, "<=", caps["tk_ratio_cap"]),
            Gate("bmo_comm_max_ratio", bmo_max, "<=", caps["comm_ratio_cap"]),
            Gate("non_bmo_growth_factor", growth_factor, ">=", caps["growth_min"]),
        ],
        stat="tk_max_ratio",
        base=tk_max,
        notes=skipped,
        fine=lambda spec: _ratio_stats(tk(spec))["max_ratio"],
    )
