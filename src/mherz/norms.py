"""Function-space norms on the truncated product plane.

Implements, for piecewise-constant functions supported in the annulus window:

* plain and weighted-region L^p norms (exact quadrature),
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
* a certified two-sided bracket for the block-space norm, whose defining
  infimum over decompositions is not directly computable,
* little-bmo style oscillation norms over rectangle families.

All annulus-decomposed norms require the input to vanish off the annulus
window and raise :class:`~mherz.errors.SupportWindowError` otherwise; use
:func:`mherz.grid.restrict_to_window` for test objects that straddle the
central cross.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import CostGuardError, PredicateError, SupportWindowError
from .grid import (
    DyadicRectangle,
    GridFunction,
    GridRectangle,
    GridSpec,
    _box_sum,
    _prefix_table,
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
        if not (self.p > 0):
            raise ValueError(f"p must be in (0, inf], got {self.p}")
        if not (self.q > 0):
            raise ValueError(f"q must be in (0, inf], got {self.q}")
        if self.lam < 0:
            raise ValueError(f"lam must be >= 0, got {self.lam}")
        if self.n < 1 or self.m < 1:
            raise ValueError("n and m must be positive integers")

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


def _violations_banach(pr: ExponentParams) -> list[str]:
    out = []
    if not (pr.p >= 1 and pr.q >= 1):
        out.append(f"p, q >= 1 fails: p={pr.p}, q={pr.q}")
    return out


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
    "banach": _violations_banach,
    "ms_herz": _violations_ms_herz,
    "char": _violations_char,
    "block": _violations_block,
}


def predicate_violations(params: ExponentParams, name: str) -> list[str]:
    try:
        return PREDICATES[name](params)
    except KeyError:
        raise ValueError(f"unknown predicate {name!r}; known: {sorted(PREDICATES)}") from None


def pred_banach(params: ExponentParams) -> bool:
    return not _violations_banach(params)


def pred_ms_herz(params: ExponentParams) -> bool:
    return not _violations_ms_herz(params)


def pred_char(params: ExponentParams) -> bool:
    return not _violations_char(params)


def pred_block(params: ExponentParams) -> bool:
    return not _violations_block(params)


def require_predicate(params: ExponentParams, name: str) -> None:
    bad = predicate_violations(params, name)
    if bad:
        raise PredicateError(f"pred_{name}: " + "; ".join(bad) + f" (params={params})")


# -- L^p ---------------------------------------------------------------------


def lp_norm(f: GridFunction, p: float, region: GridRectangle | None = None) -> float:
    """(sum |f|^p h^2)^(1/p) over the grid or a rectangle; ess-sup for p=inf."""
    if p <= 0:
        raise ValueError(f"p must be positive, got {p}")
    vals = f.values
    if region is not None:
        region.check_within(f.spec)
        vals = vals[region.ix0 : region.ix1, region.iy0 : region.iy1]
    if math.isinf(p):
        return float(np.abs(vals).max(initial=0.0))
    h2 = f.spec.h * f.spec.h
    return float((np.abs(vals) ** p).sum() * h2) ** (1.0 / p)


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


def annulus_lp_table(f: GridFunction, p: float) -> np.ndarray:
    """W x W table of annulus L^p norms, indexed from the window floor.

    Entry ``[ii, jj]`` is the L^p norm of f restricted to the product annulus
    ``(window_low + ii, window_low + jj)``.  Uses prefix sums of |f|^p, so the
    whole table costs one grid pass.
    """
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


def _alpha_weights(spec: GridSpec, alpha: float) -> np.ndarray:
    win = np.array(list(spec.window_range()), dtype=float)
    return 2.0 ** ((win[:, None] + win[None, :]) * alpha)


# -- Herz and Morrey-Herz ----------------------------------------------------


def herz_norm(f: GridFunction, params: ExponentParams) -> float:
    """Product Herz norm of a window-supported function."""
    _require_window_support(f)
    table = annulus_lp_table(f, params.p)
    terms = _alpha_weights(f.spec, params.alpha) * table
    if math.isinf(params.q):
        return float(terms.max(initial=0.0))
    return float((terms**params.q).sum()) ** (1.0 / params.q)


def morrey_herz_norm(
    f: GridFunction,
    params: ExponentParams,
    truncation: str = "rectangular",
) -> float:
    """Product Morrey-Herz norm; ``lam = 0`` reduces exactly to the Herz norm.

    ``truncation`` selects how the inner sum is cut at level ``(L1, L2)``:
    ``"rectangular"`` keeps annuli with ``i <= L1 and j <= L2`` (the
    definition); ``"diagonal"`` keeps ``i + j <= L`` and scans a single level
    (a variant appearing in indicator-norm computations, kept for
    comparison).
    """
    _require_window_support(f)
    spec = f.spec
    table = annulus_lp_table(f, params.p)
    terms = _alpha_weights(spec, params.alpha) * table
    win = np.array(list(spec.window_range()), dtype=float)
    if truncation not in ("rectangular", "diagonal"):
        raise ValueError(f"unknown truncation {truncation!r}")

    if truncation == "diagonal":
        lev = win[:, None] + win[None, :]
        best = 0.0
        levels = np.unique(lev)
        for L in levels:
            sel = terms[lev <= L]
            if math.isinf(params.q):
                inner = float(sel.max(initial=0.0))
            else:
                inner = float((sel**params.q).sum()) ** (1.0 / params.q)
            best = max(best, 2.0 ** (-L * params.lam) * inner)
        return best

    if math.isinf(params.q):
        run = np.maximum.accumulate(np.maximum.accumulate(terms, axis=0), axis=1)
        inner = run
    else:
        csum = (terms**params.q).cumsum(axis=0).cumsum(axis=1)
        inner = csum ** (1.0 / params.q)
    pref = 2.0 ** (-(win[:, None] + win[None, :]) * params.lam)
    return float((pref * inner).max(initial=0.0))


# -- indicator closed forms ----------------------------------------------------


def _axis_block_factor(
    params: ExponentParams, dim: int, l: int, window_floor: int | None
) -> float:
    """One axis of the indicator norm: prefactor times the l^q geometric sum.

    ``window_floor=None`` gives the continuum value (sum over all annuli
    ``i <= l``); an integer floor gives the grid-window truncation
    (``floor <= i <= l``).  Requires ``alpha + dim/p > 0``.
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
        return pref * 2.0 ** (l * beta)
    r = 2.0 ** (params.q * beta)
    if window_floor is None:
        ssum = 2.0 ** (l * params.q * beta) / (1.0 - 1.0 / r)
    else:
        # finite geometric sum_{i=floor}^{l} r**i
        ssum = (2.0 ** ((l + 1) * params.q * beta) - 2.0 ** (window_floor * params.q * beta)) / (r - 1.0)
    return pref * ssum ** (1.0 / params.q)


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
        value *= 2.0 ** (-(l1 + l2) * params.lam)
    return value


# -- rectangle families --------------------------------------------------------


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

    ``min_side``/``max_side`` bound side lengths in cells; ``max_members``
    guards enumeration cost.
    """

    kind: str
    stride: int | None = None
    min_side: int = 1
    max_side: int | None = None
    max_members: int = 200_000

    def __post_init__(self) -> None:
        if self.kind not in ("exact-grid", "dyadic-sides", "dyadic-centered"):
            raise ValueError(f"unknown family kind {self.kind!r}")

    def _anchors(self, n: int, side: int) -> range:
        if self.stride is None:
            step = side if self.kind == "dyadic-sides" else 1
        else:
            step = max(1, self.stride)
        return range(0, n - side + 1, step)

    def _sides(self, n: int) -> list[int]:
        hi = min(self.max_side or n, n)
        if self.kind == "dyadic-sides":
            out = [1 << a for a in range(n.bit_length()) if self.min_side <= (1 << a) <= hi]
        else:
            out = list(range(max(1, self.min_side), hi + 1))
        return out

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
                if len(out) + len(xs) * len(ys) > self.max_members:
                    raise CostGuardError(
                        f"family enumeration exceeds max_members={self.max_members}; "
                        f"increase stride or min_side"
                    )
                for x0 in xs:
                    for y0 in ys:
                        out.append(GridRectangle(x0, x0 + wx, y0, y0 + wy))
        return out


# -- block norm bracket --------------------------------------------------------


@dataclass(frozen=True)
class NormBracket:
    """Certified lower/upper bounds for an infimum-defined norm."""

    lower: float
    upper: float
    notes: tuple[str, ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        if self.lower < 0 or self.upper < 0:
            raise ValueError(f"bracket bounds must be nonnegative: {self}")
        if self.lower > self.upper * (1.0 + 1e-9) + 1e-300:
            raise ValueError(f"bracket inverted: lower={self.lower} > upper={self.upper}")


def smallest_containing_dyadic(f: GridFunction) -> DyadicRectangle | None:
    """Smallest centered dyadic rectangle containing the support of f."""
    spec = f.spec
    nz = np.nonzero(f.values)
    if nz[0].size == 0:
        return None
    mid = spec.n_cells // 2
    ls = []
    for ax in (0, 1):
        lo, hi = int(nz[ax].min()), int(nz[ax].max())
        radius_cells = max(mid - lo, hi + 1 - mid)
        ls.append((radius_cells - 1).bit_length() + 1 - spec.s)
    return DyadicRectangle(ls[0], ls[1])


def block_norm_bracket(
    g: GridFunction,
    params: ExponentParams,
    test_family: list[GridFunction] | None = None,
) -> NormBracket:
    """Two-sided bracket for the block-space norm of g.

    Upper bound: the better of (a) the single-block bound
    ``2**((l1+l2)*lam) * herz(g)`` with ``(l1, l2)`` the smallest centered
    dyadic rectangle containing the support, and (b) the annulus-wise l^1
    decomposition, each annulus piece treated as its own block.

    Lower bound: the pairing ``int |f g| / ||f||_{MK(dual)}`` maximised over
    the test family.  Both Hölder steps in the pairing estimate carry
    constant exactly 1 on the grid, so the bound is certified, not heuristic.
    """
    require_predicate(params, "block")
    _require_window_support(g)
    notes: list[str] = []

    host = smallest_containing_dyadic(g)
    if host is None:
        return NormBracket(0.0, 0.0, ("zero function",))

    upper_single = 2.0 ** ((host.l1 + host.l2) * params.lam) * herz_norm(g, params)
    notes.append(
        f"upper (a): single block in rectangle ({host.l1},{host.l2}) = {upper_single:.6g}"
    )

    table = annulus_lp_table(g, params.p)
    win = np.array(list(g.spec.window_range()), dtype=float)
    lev = win[:, None] + win[None, :]
    upper_annuli = float((2.0 ** (lev * (params.lam + params.alpha)) * table).sum())
    notes.append(f"upper (b): annulus-wise l^1 decomposition = {upper_annuli:.6g}")
    upper = min(upper_single, upper_annuli)

    lower = 0.0
    if not test_family:
        notes.append("warning: empty test family, lower bound is trivial 0")
    else:
        dual = params.dual()
        for k, fdual in enumerate(test_family):
            denom = morrey_herz_norm(fdual, dual)
            if denom == 0.0:
                continue
            cand = pairing_l1(fdual, g) / denom
            if cand > lower:
                lower = cand
                notes.append(f"lower: test function #{k} gives {cand:.6g}")
    lower = min(lower, upper)  # guard rounding at the certified-equality edge
    return NormBracket(lower, upper, tuple(notes))


# -- oscillation norms ---------------------------------------------------------


def _family_rectangles(spec: GridSpec, family) -> list[GridRectangle]:
    if isinstance(family, RectangleFamily):
        rects = family.rectangles(spec)
    else:
        rects = [r.check_within(spec) for r in family]
    if not rects:
        raise ValueError("rectangle family is empty")
    return rects


def bmo_norm(f: GridFunction, family) -> float:
    """sup over the family of the mean oscillation (1/|R|) int_R |f - f_R|."""
    rects = _family_rectangles(f.spec, family)
    total_cells = sum(r.cells() for r in rects)
    if total_cells > 2 * 10**8:
        raise CostGuardError(
            f"oscillation sweep visits {total_cells} cells; use a strided family"
        )
    vals = f.values
    best = 0.0
    for r in rects:
        cells = r.cells()
        mean = f.rect_cell_sum(r) / cells
        osc = float(np.abs(vals[r.ix0 : r.ix1, r.iy0 : r.iy1] - mean).sum()) / cells
        if osc > best:
            best = osc
    return best


def bmo_mk_norm(
    f: GridFunction,
    params: ExponentParams,
    family,
    truncation: str = "rectangular",
) -> tuple[float, list[str]]:
    """sup over R of ||(f - f_R) chi_R|| / ||chi_R|| in the Morrey-Herz norm.

    Both the numerator and the indicator are window-masked before taking the
    norm (the truncation convention).  Rectangles whose masked indicator has
    zero norm are skipped and reported in the notes.  Returns (value, notes).
    """
    require_predicate(params, "char")
    require_predicate(params, "ms_herz")
    rects = _family_rectangles(f.spec, family)
    mask = window_mask(f.spec)
    best = 0.0
    notes: list[str] = []
    n = f.spec.n_cells
    for r in rects:
        mean = f.rect_cell_sum(r) / r.cells()
        chi = np.zeros((n, n))
        chi[r.ix0 : r.ix1, r.iy0 : r.iy1] = 1.0
        chi *= mask
        denom = morrey_herz_norm(f.with_values(chi), params, truncation)
        if denom == 0.0:
            notes.append(f"skipped {r}: masked indicator has zero norm")
            continue
        num_vals = np.zeros((n, n))
        num_vals[r.ix0 : r.ix1, r.iy0 : r.iy1] = (
            f.values[r.ix0 : r.ix1, r.iy0 : r.iy1] - mean
        )
        num_vals *= mask
        num = morrey_herz_norm(f.with_values(num_vals), params, truncation)
        if num / denom > best:
            best = num / denom
    return best, notes
