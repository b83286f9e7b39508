"""Function-space norms on the truncated product plane.

Implements, for piecewise-constant functions supported in the annulus window:

* the product Herz norm: weighted l^q sum over product annuli of annulus
  L^p norms, with weight ``2**((i+j)*q*alpha)``,
* the product Morrey-Herz norm: supremum over truncation levels ``(L1, L2)``
  of ``2**(-(L1+L2)*lam)`` times the Herz sum restricted to ``i <= L1,
  j <= L2``.  The supremum over all integers is exact on the grid: below the
  window the inner sum is empty, and above ``L_max`` the inner sum is
  saturated while the prefactor only shrinks (for ``lam > 0``; for
  ``lam = 0`` the value is flat beyond ``L_max``), so scanning
  ``[window_low - 1, L_max]`` loses nothing,
* exact closed forms for norms of centered dyadic-rectangle indicators,
  both for the continuum definition (sums over all annuli) and for the
  window-truncated grid norm (finite geometric sums),
* a certified upper bound for the block-space norm, an infimum over
  decompositions,
* little-bmo style oscillation norms over rectangle families, from one
  pass over each rectangle that serves both the plain and the Morrey-Herz
  oscillation (:func:`_oscillation_sweep`), both returned by :func:`bmo_mk_norm`.

The table helpers (:func:`_annulus_blocks`, :func:`_lp_table`,
:func:`_morrey_herz_from_table`) take leading batch axes, so a family's
oscillation tables, or the count tables of many indicators, are combined as
one stack; a single table is a batch of one.  Scalar powers that must match
libm entry by entry are taken from a generator, never from a list of every
entry.

All annulus-decomposed norms require the input to vanish off the annulus
window and raise :class:`~mherz.errors.SupportWindowError` otherwise; use
:func:`mherz.grid.restrict_to_window` for test objects that straddle the
central cross.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import CostGuardError, PredicateError, SupportWindowError
from .grid import (  # noqa: F401  (window_mask is re-exported)
    _TINY,
    DyadicRectangle,
    GridFunction,
    GridRectangle,
    GridSpec,
    _cut_cross,
    _integer,
    _pow,
    _power_exponent,
    _read_only,
    _real,
    _require_finite,
    _segment_starts,
    window_mask,
    window_support_violations,
)

# -- exponents ---------------------------------------------------------------


def conjugate_exponent(p: float) -> float:
    """Hölder conjugate; by convention the conjugate of q <= 1 is infinity."""
    if p <= 0:
        raise ValueError(f"exponent must be positive, got {p}")
    if p <= 1.0:
        return math.inf
    if math.isinf(p):
        return 1.0
    return p / (p - 1.0)


@dataclass(frozen=True)
class ExponentParams:
    """The tuple (alpha, p, q, lam, n, m) feeding every norm and predicate.

    ``n`` and ``m`` are the symbolic axis dimensions of the analytic
    formulas; sampled grids always use n = m = 1.
    """

    alpha: float
    p: float
    q: float
    lam: float = 0.0
    n: int = 1
    m: int = 1

    def __post_init__(self) -> None:
        for name, ok, what in (
            ("alpha", math.isfinite, "finite"),
            ("p", lambda v: v > 0, "in (0, inf]"),
            ("q", lambda v: v > 0, "in (0, inf]"),
            ("lam", lambda v: 0 <= v < math.inf, "in [0, inf)"),
        ):
            object.__setattr__(self, name, _real(name, getattr(self, name), ok, what))
        for name in ("n", "m"):
            object.__setattr__(self, name, _integer(name, getattr(self, name), least=1))

    @property
    def p_conj(self) -> float:
        return conjugate_exponent(self.p)

    @property
    def q_conj(self) -> float:
        return conjugate_exponent(self.q)

    def dual(self) -> "ExponentParams":
        """(-alpha, p', q', same lam): the pairing-dual exponent tuple."""
        return ExponentParams(-self.alpha, self.p_conj, self.q_conj, self.lam, self.n, self.m)

    def with_lam(self, lam: float) -> "ExponentParams":
        return ExponentParams(self.alpha, self.p, self.q, lam, self.n, self.m)


def _violations_ms_herz(pr: ExponentParams) -> list[str]:
    out = []
    if not (1 < pr.p < math.inf):
        out.append(f"1 < p < inf fails: p={pr.p}")
    if not (0 < pr.q < math.inf):
        out.append(f"0 < q < inf fails: q={pr.q}")
    if 1 < pr.p < math.inf:
        lo = max(-pr.n / pr.p, -pr.m / pr.p)
        hi = min(pr.n * (1 - 1 / pr.p), pr.m * (1 - 1 / pr.p))
        if not (lo < pr.alpha < hi):
            out.append(
                f"max(-n/p, -m/p) < alpha < min(n(1-1/p), m(1-1/p)) fails: "
                f"{lo} < {pr.alpha} < {hi} is false"
            )
    return out


def _violations_char(pr: ExponentParams) -> list[str]:
    out = []
    if not (pr.lam > 0):
        out.append(f"lambda > 0 fails: lambda={pr.lam}")
    if not (pr.alpha + pr.n / pr.p > pr.lam):
        out.append(
            f"alpha + n/p > lambda fails: {pr.alpha + pr.n / pr.p} > {pr.lam} is false"
        )
    if pr.m != pr.n and not (pr.alpha + pr.m / pr.p > pr.lam):
        out.append(
            f"alpha + m/p > lambda fails: {pr.alpha + pr.m / pr.p} > {pr.lam} is false"
        )
    return out


def _violations_block(pr: ExponentParams) -> list[str]:
    out = []
    if not (pr.lam > 0):
        out.append(f"lambda > 0 fails: lambda={pr.lam}")
    pc = pr.p_conj
    npc = 0.0 if math.isinf(pc) else pr.n / pc
    mpc = 0.0 if math.isinf(pc) else pr.m / pc
    if not (-pr.alpha + npc > pr.lam):
        out.append(
            f"-alpha + n/p' > lambda fails: {-pr.alpha + npc} > {pr.lam} is false"
        )
    if pr.m != pr.n and not (-pr.alpha + mpc > pr.lam):
        out.append(
            f"-alpha + m/p' > lambda fails: {-pr.alpha + mpc} > {pr.lam} is false"
        )
    return out


PREDICATES = {
    "ms_herz": _violations_ms_herz,
    "char": _violations_char,
    "block": _violations_block,
}


def predicate_violations(params: ExponentParams, name: str) -> list[str]:
    try:
        return PREDICATES[name](params)
    except KeyError:
        raise ValueError(f"unknown predicate {name!r}; known: {sorted(PREDICATES)}") from None


def require_predicate(params: ExponentParams, name: str) -> None:
    bad = predicate_violations(params, name)
    if bad:
        raise PredicateError(f"pred_{name}: " + "; ".join(bad) + f" (params={params})")


# -- pairing -------------------------------------------------------------------


def pairing_l1(f: GridFunction, g: GridFunction) -> float:
    """Exact integral of |f*g| (the duality pairing in absolute value)."""
    if f.spec != g.spec:
        raise ValueError("pairing requires functions on the same grid")
    return float(np.abs(f.values * g.values).sum() * f.spec.h * f.spec.h)


# -- annulus tables ----------------------------------------------------------


def _require_window_support(f: GridFunction) -> None:
    bad = window_support_violations(f)
    if len(bad):
        head = ", ".join(f"({i},{j})" for i, j in bad[:4])
        raise SupportWindowError(
            f"{len(bad)} cells carry mass outside the annulus window "
            f"(first: {head}); restrict_to_window() the input if truncation "
            f"to the window is intended"
        )


@functools.lru_cache(maxsize=1024)
def _clip_runs(spec: GridSpec, lo: int, hi: int) -> tuple[np.ndarray, np.ndarray]:
    """Overlap of the cell range ``[lo, hi)`` with each axis run.

    Returns the overlap cell count of every run of :func:`grid._segment_starts`
    and the starts, relative to ``lo``, of the runs that overlap.  Cached and
    read-only, like the starts: a suite clips the same few ranges thousands
    of times.
    """
    clipped = np.clip(_segment_starts(spec), lo, hi)
    counts = np.diff(clipped, append=hi)
    return _read_only(counts), _read_only(clipped[counts > 0] - lo)


def _segment_table(
    spec: GridSpec, a: np.ndarray, op, x0: int = 0, y0: int = 0, out: np.ndarray | None = None
) -> np.ndarray:
    """``op``-reduction of ``a`` over every block of two axis runs.

    ``a`` holds the cells of the rectangle with low corner ``(x0, y0)``; each
    run is clipped to it, and blocks it misses are 0.  Shape ``(2W+1, 2W+1)``;
    ``out``, if given, is a zero table of that shape to write into (a row of
    an oscillation sweep's stack).
    """
    cx, sx = _clip_runs(spec, x0, x0 + a.shape[0])
    cy, sy = _clip_runs(spec, y0, y0 + a.shape[1])
    if out is None:
        out = np.zeros((cx.size, cy.size))
    # the runs that meet the rectangle are consecutive: from the first, sx.size of them
    kx, ky = int((cx > 0).argmax()), int((cy > 0).argmax())
    blocks = op.reduceat(op.reduceat(a, sy, axis=1), sx, axis=0)
    out[kx : kx + sx.size, ky : ky + sy.size] = blocks
    return out


def _annulus_blocks(seg: np.ndarray, op) -> np.ndarray:
    """W x W table: each annulus pair combines its four (left/right)^2 run blocks.

    The central gap (run ``W``) belongs to no annulus and is dropped.  The run
    blocks are the last two axes of ``seg``; leading axes are a batch of
    tables, combined entrywise.
    """
    w = seg.shape[-1] // 2
    # row runs, innermost first
    left, right = seg[..., :w, :][..., ::-1, :], seg[..., w + 1 :, :]
    out = left[..., :w][..., ::-1]
    for block in (left[..., w + 1 :], right[..., :w][..., ::-1], right[..., w + 1 :]):
        out = op(out, block)
    return out


def _lp_table(spec: GridSpec, seg: np.ndarray, p: float, e: int = 0) -> np.ndarray:
    """Annulus L^p norms of ``|f|`` from the run-block sums of ``(|f| * 2**-e)^p``
    (batched like :func:`_annulus_blocks`; each table has the bits it has alone)."""
    # scalar powers: numpy's vectorised float64 power can differ from libm's
    # in the last bit, and these tables must match the entrywise evaluation;
    # the closed-form indicator tables that replace masked indicator arrays
    # go through here with the same integer counts.  Only the nonzero sums
    # are powered (most of a sweep's stack is empty annuli, and 0.0 ** r is
    # exactly 0.0 for the finite p that reach here).  A generator, not a
    # list: a stack has thousands of entries, and a list of Python floats
    # would outlive the loop.  A power past the float range raises, and only
    # then are the entries taken again, each one inf where it overflows:
    # then the cell area goes inside the power, since an overflowed sum **
    # r times an underflowed (h * h) ** r is inf * 0 = nan where the root
    # (sum * h * h) ** r itself is finite.  In a batch, only the tables
    # that overflow are taken again, so each keeps the bits it has alone.
    sums = _annulus_blocks(seg, np.add)
    r = 1.0 / p
    area = spec.h * spec.h
    roots = np.zeros(sums.shape)
    live = np.flatnonzero(sums)
    try:
        powered = np.fromiter((float(s) ** r for s in sums.flat[live]), float, live.size)
    except OverflowError:
        if sums.ndim > 2:
            return np.stack([_lp_table(spec, table, p, e) for table in seg])
        powered = np.fromiter((_pow(float(s) * area, r) for s in sums.flat[live]), float, live.size)
        area = 1.0
    roots.flat[live] = powered
    roots *= area**r
    with np.errstate(over="ignore"):  # scaled back by 2**e: inf past the float range
        return np.ldexp(roots, e, out=roots)


def annulus_lp_table(f: GridFunction, p: float) -> np.ndarray:
    """W x W table of annulus L^p norms, indexed from the window floor.

    Entry ``[ii, jj]`` is the L^p norm of f restricted to the product annulus
    ``(window_low + ii, window_low + jj)``.  The annulus runs and the central
    gap tile each axis, so one segmented reduction of ``|f|^p`` per axis
    (``np.add.reduceat``; ``np.maximum.reduceat`` for ``p = inf``) gives
    every run-by-run block, and each annulus adds its four blocks.  Sums of
    nonnegative terms cannot cancel: an annulus without mass is exactly 0.
    The powers are taken on ``|f| * 2**-e``, ``e`` the :func:`_power_exponent`
    of ``max|f|``: up to p of about 1022, ``+inf`` only past the float range.
    Past that p no power of two keeps ``max|f|**p`` normal, and each annulus
    takes its powers on its cells divided by its own peak, which sum to
    between 1 and its cell count: its norm is ``peak * (sum * h**2)**(1/p)``.
    Below that p, so does each annulus with mass whose scaled powers sum to
    less than the normal range (cells far below ``max|f|``, at a large p).
    """
    a = np.abs(f.values)
    return _abs_lp_table(f.spec, a, p, lambda: np.abs(f.values, out=a))


def _abs_lp_table(spec: GridSpec, a: np.ndarray, p: float, again) -> np.ndarray:
    """:func:`annulus_lp_table` of the function whose ``|f|`` is ``a``, a
    fresh table it overwrites.  ``again()`` gives ``|f|`` once more; it is
    called only where an annulus's scaled powers sum to less than the normal
    range, and may write into ``a``, which is spent by then."""
    if math.isinf(p):
        return _peak_table(spec, a)
    top = float(a.max())
    e = _power_exponent(top, p, a.size)
    if top and not e and not _TINY <= _pow(top, p) < math.inf:
        w = len(spec.window_range())  # every annulus with mass, per peak
        return _over_peaks(spec, a, p, np.zeros((w, w)), np.full((w, w), True))
    if e:
        np.ldexp(a, -e, out=a)
    a **= p  # in place: one N x N buffer per call
    seg = _segment_table(spec, a, np.add)
    table = _lp_table(spec, seg, p, e)
    low = _annulus_blocks(seg, np.add) < _TINY  # empty, or its powers underflowed
    if top and low.any():
        _over_peaks(spec, again(), p, table, low)
    return table


def _peak_table(spec: GridSpec, a: np.ndarray, x0: int = 0, y0: int = 0) -> np.ndarray:
    """The largest entry of ``a``, the cells of the rectangle with low corner
    ``(x0, y0)``, on each annulus: its ``p = inf`` table."""
    return _annulus_blocks(_segment_table(spec, a, np.maximum, x0, y0), np.maximum)


def _over_peaks(
    spec: GridSpec, a: np.ndarray, p: float, table: np.ndarray, low: np.ndarray,
    x0: int = 0, y0: int = 0,
) -> np.ndarray:
    """``table`` with each annulus where ``low`` is true and that has mass
    taken again on its cells over its own peak (:func:`_peak_table`), from
    ``a = |f|`` (overwritten) on the cells of the rectangle with low corner
    ``(x0, y0)``; every other entry keeps its bits."""
    peak = _peak_table(spec, a, x0, y0)
    low = low & (peak > 0)
    if not low.any():
        return table
    # each cell over its annulus's peak, gathered per axis through the
    # runs; the gap (position -1) and the empty annuli divide by inf
    div = np.pad(peak, (0, 1))
    div[div == 0] = np.inf
    w = peak.shape[0]
    pos = np.repeat(np.abs(np.arange(-w, w + 1)) - 1, _clip_runs(spec, 0, spec.n_cells)[0])
    a /= div[pos[x0 : x0 + a.shape[0], None], pos[None, y0 : y0 + a.shape[1]]]
    a **= p
    with np.errstate(over="ignore"):  # inf past the float range
        table[low] = (peak * _lp_table(spec, _segment_table(spec, a, np.add, x0, y0), p))[low]
    return table


@functools.lru_cache(maxsize=1024)
def _level_weights(spec: GridSpec, x: float) -> np.ndarray:
    """``2**((i + j) x)`` over the annulus window; cached and read-only,
    since every norm call of a sweep asks for the same few exponents."""
    win = np.array(list(spec.window_range()), dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):  # inf past the float range
        return _read_only(2.0 ** ((win[:, None] + win[None, :]) * x))


# -- Herz and Morrey-Herz ----------------------------------------------------


def herz_norm(f: GridFunction, params: ExponentParams) -> float:
    """Product Herz norm of a window-supported function."""
    _require_window_support(f)
    return _herz_from_table(f.spec, annulus_lp_table(f, params.p), params)


def _herz_from_table(spec: GridSpec, table: np.ndarray, params: ExponentParams) -> float:
    """The Herz norm from an :func:`annulus_lp_table`.  Past the float range
    the terms are inf, or nan where an inf weight meets an empty annulus,
    without a warning."""
    with np.errstate(over="ignore", invalid="ignore"):
        terms = _level_weights(spec, params.alpha) * table
        if math.isinf(params.q):
            return float(terms.max(initial=0.0))
        total = float((terms**params.q).sum())
        return _pow(total, 1 / params.q) if _TINY <= total < math.inf else _lq_norm(terms, params.q)


def morrey_herz_norm(f: GridFunction, params: ExponentParams) -> float:
    """Product Morrey-Herz norm; ``lam = 0`` reduces exactly to the Herz norm.

    The inner sum at level ``(L1, L2)`` keeps the annuli with ``i <= L1`` and
    ``j <= L2`` (the rectangular truncation of the definition).
    """
    _require_window_support(f)
    return _morrey_herz_from_table(f.spec, annulus_lp_table(f, params.p), params)


def _morrey_herz_from_table(spec: GridSpec, table: np.ndarray, params: ExponentParams):
    """The Morrey-Herz norm from an :func:`annulus_lp_table`.

    The table's last two axes are the annuli; leading axes are a batch of
    tables, whose norms come back as an array of the batch's shape (a float
    for a single table).  Every step is entrywise, a cumulative sum along one
    annulus axis or an exact max, so each norm has the bits it has alone.
    A level whose l^q sum passes the float range, or falls below the normal
    range while its terms hold mass, is taken again by :func:`_lq_norm`;
    past the float range the steps give inf or nan without a warning.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        terms = _level_weights(spec, params.alpha) * table
        if math.isinf(params.q):
            inner = np.maximum.accumulate(np.maximum.accumulate(terms, axis=-2), axis=-1)
        else:
            csum = (terms**params.q).cumsum(axis=-2).cumsum(axis=-1)
            inner = csum ** (1.0 / params.q)
            # the sums grow along both axes, so one past the float range shows
            # in the last; one below the normal range counts where it has mass
            under = csum < _TINY
            if np.isinf(csum[..., -1:, -1:]).any() or terms.any(where=under):
                peak = np.maximum.accumulate(np.maximum.accumulate(terms, axis=-2), axis=-1)
                for idx in np.argwhere(np.isinf(csum) | (under & (peak > 0))):
                    corner = terms[(*idx[:-2], slice(idx[-2] + 1), slice(idx[-1] + 1))]
                    inner[tuple(idx)] = _lq_norm(corner, params.q)
        best = (_level_weights(spec, -params.lam) * inner).max(axis=(-2, -1), initial=0.0)
    return float(best) if best.ndim == 0 else best


def _lq_norm(terms: np.ndarray, q: float) -> float:
    """``(terms ** q).sum() ** (1 / q)`` with the largest term factored out
    of the sum, so it is finite and nonzero wherever that term and the norm
    are: the form for sums that pass the float range or underflow."""
    top = float(terms.max(initial=0.0))
    if not 0.0 < top < math.inf:  # no mass, or an inf or nan term
        return top
    return top * _pow(float(((terms / top) ** q).sum()), 1.0 / q)


# -- indicator closed forms ----------------------------------------------------


def _pow2(x: float) -> float:
    """``2.0 ** x``, or ``inf`` where that overflows."""
    return _pow(2.0, x)


def _axis_block_factor(
    params: ExponentParams, dim: int, l: int, window_floor: int | None
) -> float:
    """One axis of the indicator norm: prefactor times the l^q geometric sum.

    ``window_floor=None`` gives the continuum value (sum over all annuli
    ``i <= l``); an integer floor gives the grid-window truncation
    (``floor <= i <= l``).  Requires ``alpha + dim/p > 0``.  A power past
    the float range is ``inf``.
    """
    invp = 0.0 if math.isinf(params.p) else 1.0 / params.p
    beta = params.alpha + dim * invp
    if beta <= 0:
        raise PredicateError(
            f"alpha + n/p > 0 required for the indicator closed form: "
            f"{params.alpha} + {dim}*{invp} = {beta}"
        )
    pref = (1.0 - 2.0 ** (-dim)) ** invp
    if window_floor is not None and l < window_floor:
        return 0.0
    if math.isinf(params.q):
        return pref * _pow2(l * beta)
    r = _pow2(params.q * beta)
    if r == 1.0:  # every term r**i rounds to 1: the sum counts them
        count = math.inf if window_floor is None else l - window_floor + 1.0
        return pref * _pow(count, 1.0 / params.q)
    # the sum is r**l * rest
    if window_floor is None:  # sum_{i<=l} r**i
        ssum = _pow2(l * params.q * beta) / (1.0 - 1.0 / r)
        rest = 1.0 / (1.0 - 1.0 / r)
    else:  # finite geometric sum_{i=floor}^{l} r**i (inf - inf would be nan)
        top = _pow2((l + 1) * params.q * beta)
        ssum = math.inf if math.isinf(top) else (top - _pow2(window_floor * params.q * beta)) / (r - 1.0)
        rest = (1.0 - _pow2(-(l - window_floor + 1) * params.q * beta)) / (1.0 - 1.0 / r)
    if not _TINY <= ssum < math.inf:
        # the sum passed the float range or fell below the normal range, its
        # root need not: factor out r**l, whose root is 2**(l*beta)
        return pref * _pow2(l * beta) * _pow(rest, 1.0 / params.q)
    return pref * _pow(ssum, 1.0 / params.q)


def char_rect_norm_closed_form(
    params: ExponentParams,
    l1: int,
    l2: int,
    space: str = "morrey-herz",
    window_floor: int | None = None,
) -> float:
    """Exact norm of the indicator of the centered dyadic rectangle (l1, l2).

    For the Morrey-Herz space the supremum over truncation levels is resolved
    analytically: each axis factor ``2**(-L*lam) * S(L)**(1/q)`` is strictly
    increasing while ``L <= l`` (the sum grows by factor >= 2**(q*(alpha+n/p))
    > 2**(q*lam) per level) and strictly decreasing after saturation, so the
    supremum sits at ``(l1, l2)``.  This needs ``alpha + n/p > lam`` per axis,
    which is the admissibility predicate.

    With ``window_floor`` set, the value matches the grid norm of the
    window-masked indicator to rounding error; with ``None`` it is the
    continuum value, whose consecutive-diagonal ratio is exactly
    ``2**(alpha + n/p - lam)``.
    """
    if space not in ("herz", "morrey-herz"):
        raise ValueError(f"unknown space {space!r}")
    if space == "morrey-herz" and params.lam > 0:
        require_predicate(params, "char")
    fx = _axis_block_factor(params, params.n, l1, window_floor)
    fy = _axis_block_factor(params, params.m, l2, window_floor)
    value = fx * fy
    if space == "morrey-herz":
        value *= _pow2(-(l1 + l2) * params.lam)
    return value


# -- rectangle families --------------------------------------------------------

MAX_MEMBERS = 200_000  # the enumeration cost guard of RectangleFamily.rectangles


@dataclass(frozen=True)
class RectangleFamily:
    """Enumerable family of grid rectangles for supremum sweeps.

    kinds:
      * ``exact-grid``: all rectangles with corners on ``stride`` multiples,
      * ``dyadic-sides``: side lengths ``2**a x 2**b`` cells; anchors on
        ``stride`` multiples (default: one side length, a tiling plus the
        flush-right anchor),
      * ``dyadic-centered``: the centered rectangles Q(l1) x Q(l2) over the
        annulus window.

    ``min_side`` bounds side lengths in cells from below.  Each is an
    integer >= 1; ``stride`` may be None.  An enumeration of more than
    :data:`MAX_MEMBERS` rectangles is refused.
    """

    kind: str
    stride: int | None = None
    min_side: int = 1

    def __post_init__(self) -> None:
        if self.kind not in ("exact-grid", "dyadic-sides", "dyadic-centered"):
            raise ValueError(f"unknown family kind {self.kind!r}")
        if self.stride is not None:
            object.__setattr__(self, "stride", _integer("stride", self.stride, least=1))
        object.__setattr__(self, "min_side", _integer("min_side", self.min_side, least=1))

    def _anchors(self, n: int, side: int) -> range:
        if self.stride is None:
            step = side if self.kind == "dyadic-sides" else 1
        else:
            step = self.stride
        return range(0, n - side + 1, step)

    def _sides(self, n: int) -> list[int]:
        if self.kind == "dyadic-sides":
            return [1 << a for a in range(n.bit_length()) if self.min_side <= (1 << a) <= n]
        return list(range(self.min_side, n + 1))

    def rectangles(self, spec: GridSpec) -> list[GridRectangle]:
        n = spec.n_cells
        out: list[GridRectangle] = []
        if self.kind == "dyadic-centered":
            for l1 in spec.window_range():
                for l2 in spec.window_range():
                    out.append(DyadicRectangle(l1, l2).to_cells(spec))
            return out
        for wx in self._sides(n):
            for wy in self._sides(n):
                xs = list(self._anchors(n, wx))
                ys = list(self._anchors(n, wy))
                if xs and xs[-1] != n - wx:
                    xs.append(n - wx)
                if ys and ys[-1] != n - wy:
                    ys.append(n - wy)
                if len(out) + len(xs) * len(ys) > MAX_MEMBERS:
                    raise CostGuardError(
                        f"family enumeration exceeds max_members={MAX_MEMBERS}; "
                        f"increase stride or min_side"
                    )
                for x0 in xs:
                    for y0 in ys:
                        out.append(GridRectangle(x0, x0 + wx, y0, y0 + wy))
        return out


# -- block norm upper bound -----------------------------------------------------


def _support_host(spec: GridSpec, values: np.ndarray) -> DyadicRectangle | None:
    """Smallest centered dyadic rectangle containing the support of the cell
    table ``values``, or None where it has none."""
    rows = values.any(axis=1)
    if not rows.any():
        return None
    n = spec.n_cells
    mid = n // 2
    ls = []
    for occupied in (rows, values.any(axis=0)):  # the support's projections
        lo, hi = int(occupied.argmax()), n - 1 - int(occupied[::-1].argmax())
        radius_cells = max(mid - lo, hi + 1 - mid)
        ls.append((radius_cells - 1).bit_length() + 1 - spec.s)
    return DyadicRectangle(ls[0], ls[1])


def _block_upper_bounds(
    spec: GridSpec, table: np.ndarray, host: DyadicRectangle, params: ExponentParams
) -> tuple[float, float]:
    """The two upper bounds of :func:`block_norm_upper`, (a) and (b), from
    an :func:`annulus_lp_table` and the support's host rectangle."""
    herz = _herz_from_table(spec, table, params)
    upper_single = 2.0 ** ((host.l1 + host.l2) * params.lam) * herz
    upper_annuli = float((_level_weights(spec, params.lam + params.alpha) * table).sum())
    return upper_single, upper_annuli


def block_norm_upper(g: GridFunction, params: ExponentParams) -> float:
    """Certified upper bound for the block-space norm of g: the better of (a)
    the single block ``2**((l1+l2)*lam) * herz(g)``, ``(l1, l2)`` the smallest
    centered dyadic rectangle containing the support, and (b) the annulus-wise
    l^1 decomposition.  Both Hölder steps of the pairing carry constant exactly
    1 on the grid, so ``int |f g| <= ||f||_{MK(dual)} * block_norm_upper(g)``."""
    require_predicate(params, "block")
    _require_window_support(g)
    return _window_cut_norm("block-upper", g.spec, lambda: np.abs(g.values), params)


def _window_cut_norm(space: str, spec: GridSpec, source, params: ExponentParams) -> float:
    """The norm ``space`` ("herz", "morrey-herz" or "block-upper") of
    ``restrict_to_window(f)``, bit for bit, where ``source()`` gives a fresh
    ``|f|`` table on ``spec`` (called again only where an annulus's powers
    underflow, see :func:`_abs_lp_table`).

    The cut changes only the central cross, so it is made by zeroing the
    cross in the one ``|f|`` table the norm takes anyway, before ``max|f|``,
    its power-of-two scale and block-upper's host are read from it: no cut
    copy, and no ``|f|`` copy of one."""
    a = _cut_cross(spec, source())
    if space == "block-upper":
        require_predicate(params, "block")
        host = _support_host(spec, a)
        if host is None:
            return 0.0
        table = _abs_lp_table(spec, a, params.p, source)
        return min(_block_upper_bounds(spec, table, host, params))
    of_table = _herz_from_table if space == "herz" else _morrey_herz_from_table
    return of_table(spec, _abs_lp_table(spec, a, params.p, source), params)


# -- oscillation norms ---------------------------------------------------------


def _family_rectangles(spec: GridSpec, family) -> list[GridRectangle]:
    if isinstance(family, RectangleFamily):
        rects = family.rectangles(spec)
    else:
        rects = [r.check_within(spec) for r in family]
    if not rects:
        raise ValueError("rectangle family is empty")
    return rects


def _swept_rectangles(spec: GridSpec, family) -> list[GridRectangle]:
    """The family's rectangles; the oscillation sweep's one cost guard, run
    before any sweep work, refuses a sweep of more than ``2 * 10**8`` cells."""
    rects = _family_rectangles(spec, family)
    total = sum(r.cells() for r in rects)
    if total > 2 * 10**8:
        raise CostGuardError(f"oscillation sweep visits {total} cells; use a strided family")
    return rects


def _oscillation_sup(rects: list[GridRectangle], sums: list[float]) -> float:
    """The largest mean oscillation, from the ``|f - f_R|`` sums of a sweep."""
    best = 0.0
    for r, total in zip(rects, sums):
        osc = total / r.cells()
        if osc > best:
            best = osc
    return best


def bmo_mk_norm(
    f: GridFunction, params: ExponentParams, family
) -> tuple[float, float, list[str]]:
    """sup over R of ||(f - f_R) chi_R|| / ||chi_R|| in the Morrey-Herz norm.

    Both the numerator and the indicator are window-masked before taking the
    norm (the truncation convention).  Rectangles whose masked indicator has
    zero norm are skipped and reported in the notes.  Returns (value, plain,
    notes), where ``plain`` is the sup over the family of the mean
    oscillation ``(1/|R|) int_R |f - f_R|``.

    One :func:`_oscillation_sweep` over the family gives every numerator's
    run-block table, and the annulus and Morrey-Herz tables are then taken
    once, on the whole stack.  The sweep's ``|f - f_R|`` sums are the plain
    oscillations, so ``plain`` costs no second sweep.
    """
    require_predicate(params, "char")
    require_predicate(params, "ms_herz")
    spec, p = f.spec, params.p
    rects = _swept_rectangles(spec, family)
    denoms = _indicator_denominators(spec, tuple(rects), params)
    # |f - f_R| is at most 2 max|f|: its powers at most 2**p times those of max|f|
    e = _power_exponent(float(max(f.values.max(), -f.values.min())), p, f.values.size * _pow2(p))
    sums, tables = _oscillation_tables(f, rects, p, [d != 0.0 for d in denoms], e)
    nums = _morrey_herz_from_table(spec, tables, params)
    best = 0.0
    notes: list[str] = []
    for r, num, denom in zip(rects, nums.tolist(), denoms):
        if denom == 0.0:
            notes.append(f"skipped {r}: masked indicator has zero norm")
            continue
        if num / denom > best:
            best = num / denom
    return best, _oscillation_sup(rects, sums), notes


def _oscillation_sweep(
    f: GridFunction, rects: list[GridRectangle], p: float, rows, e: int = 0
) -> tuple[list[float], np.ndarray]:
    """One pass over each rectangle ``R`` of ``rects``: ``dev = |f - f_R|`` on R.

    Returns the sums of ``dev``, one per rectangle, and a stack of shape
    ``(len(rects), 2W+1, 2W+1)`` whose row ``i`` holds the run-block sums
    (:func:`_segment_table`) of ``(dev * 2**-e)**p``, finite ``p``, where
    ``rows[i]`` is true, and 0 elsewhere.  The window mask needs no array: the
    runs are clipped to R and the central gap is dropped by
    :func:`_annulus_blocks`.

    A rectangle with a row raises :class:`~mherz.errors.DataError` if ``dev``
    has a non-finite entry.  Its sum of non-negative terms is finite only if
    every term is, so the full check runs only when the sum is not.
    """
    spec = f.spec
    # the means first: their prefix table is dropped before the stack and
    # the buffer are allocated
    means = f.rect_means(rects).tolist()
    runs = _segment_starts(spec).size
    blocks = np.zeros((len(rects), runs, runs))
    # every dev is written into the front of one buffer, C-ordered as a fresh
    # array of its shape would be, so its sum keeps its bits
    buf = np.empty(max(r.cells() for r in rects))
    sums = []
    for i, (r, mean) in enumerate(zip(rects, means)):
        dev = buf[: r.cells()].reshape(r.ix1 - r.ix0, r.iy1 - r.iy0)
        np.subtract(f.values[r.ix0 : r.ix1, r.iy0 : r.iy1], mean, out=dev)
        np.abs(dev, out=dev)
        total = float(dev.sum())
        sums.append(total)
        if not rows[i]:
            continue
        if not math.isfinite(total):
            _require_finite(dev)
        if e:
            np.ldexp(dev, -e, out=dev)
        dev **= p
        _segment_table(spec, dev, np.add, r.ix0, r.iy0, out=blocks[i])
    return sums, blocks


def _oscillation_tables(
    f: GridFunction, rects: list[GridRectangle], p: float, rows, e: int = 0
) -> tuple[list[float], np.ndarray]:
    """The ``|f - f_R|`` sums of :func:`_oscillation_sweep` and the stack of
    annulus tables (:func:`_lp_table`) of its rows, the numerators
    ``(f - f_R) chi_R`` cut to the window.

    An annulus that meets ``R`` but whose scaled powers sum below the normal
    range (its cells far below ``max|f|``) takes the per-peak form of
    :func:`annulus_lp_table` instead, and only that annulus, so every other
    entry keeps its bits.  Such rows are found at once for the whole stack,
    from its sums and the rectangles' corners; each is mended from
    ``|f - f_R|`` on ``R`` taken again.  A row with no oscillation (``f``
    constant on ``R``) has nothing to mend.
    """
    spec = f.spec
    sums, blocks = _oscillation_sweep(f, rects, p, rows, e)
    tables = _lp_table(spec, blocks, p, e)
    low = _annulus_blocks(blocks, np.add) < _TINY
    del blocks
    starts = _segment_starts(spec)
    ends = np.append(starts[1:], spec.n_cells)
    x0, x1, y0, y1 = np.array([(r.ix0, r.ix1, r.iy0, r.iy1) for r in rects]).T
    # the axis runs each rectangle meets, and from them the annuli
    mx = np.minimum(x1[:, None], ends) > np.maximum(x0[:, None], starts)
    my = np.minimum(y1[:, None], ends) > np.maximum(y0[:, None], starts)
    low &= _annulus_blocks(mx[:, :, None] & my[:, None, :], np.logical_or)
    live = np.asarray(rows, dtype=bool) & (np.array(sums) > 0.0)
    for i in np.flatnonzero(live & low.any(axis=(1, 2))):
        r = rects[i]
        dev = np.abs(f.values[r.ix0 : r.ix1, r.iy0 : r.iy1] - f.rect_means([r])[0])
        _over_peaks(spec, dev, p, tables[i], low[i], r.ix0, r.iy0)
    return sums, tables


@functools.lru_cache(maxsize=32)
def _indicator_denominators(
    spec: GridSpec, rects: tuple[GridRectangle, ...], params: ExponentParams
) -> tuple[float, ...]:
    """Morrey-Herz norms of the window-masked indicators of ``rects``.

    These are the denominators of :func:`bmo_mk_norm`; they do not depend on
    ``f``, so a family swept over several symbols computes them once, from
    one stack of count tables.
    """
    return tuple(_indicator_norms(spec, _rect_counts(spec, rects), params))


# -- indicator tables ------------------------------------------------------------
#
# The annulus tables of 0/1 functions come from their run-block cell counts,
# never from an N x N array of 0.0 and 1.0.  The block sums of 1.0 cells are
# exact integer counts, so a table has the same bits as the indicator's own
# :func:`annulus_lp_table`; for ``p = inf`` a block's max is 1.0 where its
# count is positive.  The central gap run is dropped by :func:`_annulus_blocks`,
# so the window mask needs no array either.


def _rect_counts(spec: GridSpec, rects) -> np.ndarray:
    """Run-block cell counts of the indicators of the grid rectangles
    ``rects``, stacked: each block is the product of the per-axis overlap
    counts, closed-form geometry, O(W**2) per rectangle."""
    cx = np.array([_clip_runs(spec, r.ix0, r.ix1)[0] for r in rects])
    cy = np.array([_clip_runs(spec, r.iy0, r.iy1)[0] for r in rects])
    return (cx[:, :, None] * cy[:, None, :]).astype(float)


def _cell_counts(spec: GridSpec, cells: np.ndarray) -> np.ndarray:
    """Run-block counts of the cells where the boolean N x N table ``cells``
    is true; they cover every cell, so they sum to its count."""
    starts = _segment_starts(spec)
    return np.add.reduceat(np.add.reduceat(cells, starts, axis=1, dtype=float), starts, axis=0)


def _count_table(spec: GridSpec, counts: np.ndarray, p: float) -> np.ndarray:
    """:func:`annulus_lp_table` of the window-masked 0/1 functions whose
    run-block counts are ``counts`` (batched like :func:`_annulus_blocks`)."""
    if math.isinf(p):
        return _annulus_blocks(np.minimum(counts, 1.0), np.maximum)
    return _lp_table(spec, counts, p)


def _indicator_norms(spec: GridSpec, counts: np.ndarray, params: ExponentParams) -> list[float]:
    """Morrey-Herz norms of the window-masked 0/1 functions of a stack of
    run-block counts, in one batched call; each has the bits of
    :func:`morrey_herz_norm` of the masked function."""
    return _morrey_herz_from_table(spec, _count_table(spec, counts, params.p), params).tolist()


def _dyadic_counts(spec: GridSpec) -> tuple[list[DyadicRectangle], np.ndarray]:
    """The centered dyadic rectangles and the stack of their
    :func:`_rect_counts`: the indicator sweeps take their norms from these,
    so no N x N indicator is built."""
    rects = [DyadicRectangle(l1, l2) for l1 in spec.window_range() for l2 in spec.window_range()]
    return rects, _rect_counts(spec, [r.to_cells(spec) for r in rects])
