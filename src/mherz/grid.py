"""Discrete functions on a truncated dyadic product plane.

Geometry conventions, used everywhere downstream:

* The domain is the square box ``[-2**(L_max-1), 2**(L_max-1)]**2``, i.e. the
  dyadic cube of side ``2**L_max`` centered at the origin, cut into
  ``N = 2**(L_max+s)`` cells per axis of side ``h = 2**(-s)``.
* Cells are half-open ``[k*h, (k+1)*h)`` so every point belongs to exactly one
  cell; 0 is a cell boundary.  Cell values are constants; pointwise rules are
  sampled at cell centers.
* ``Q(i)`` denotes the centered dyadic cube of side ``2**i`` per axis.  Its
  boundary ``±2**(i-1)`` lands on a cell boundary exactly when ``i >= 1-s``.
* The dyadic annulus with index ``i`` per axis is ``Q(i) \\ Q(i-1)``; a product
  annulus is indexed by a pair ``(i, j)``.  Both cubes are cell-aligned exactly
  when ``2-s <= i <= L_max``; this range is the *annulus window*.  The union of
  window annuli misses the central cross ``{|x| < h} ∪ {|y| < h}``; functions
  fed to annulus-decomposed norms must vanish there (see
  :func:`restrict_to_window`).

The ``noise`` builtin's cell values are
``numpy.random.default_rng(seed).uniform(low, high, (N, N))`` bit for bit,
drawn from the in-house PCG64 stream of :mod:`mherz._pcg`, so no run imports
``numpy.random``.  ``seed`` is a non-negative Python or numpy integer of any
size, a list, tuple or range of them, nested or not, or None for fresh
entropy; a seed that numpy refuses raises numpy's exception type.

All functions here are pure; :class:`GridFunction` is immutable after
construction and safe to share across workers.
"""

from __future__ import annotations

import functools
import math
import numbers
import operator
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import _pcg
from .errors import (
    AlignmentError,
    DataError,
    GridSizeError,
    RectangleError,
)

MAX_LEVEL_SUM = 12  # memory guard: N = 2**(L_max+s) <= 4096 cells per axis


@dataclass(frozen=True)
class GridSpec:
    """Truncation box and resolution of the discrete product plane."""

    L_max: int
    s: int

    def __post_init__(self) -> None:
        for name in ("L_max", "s"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                raise GridSizeError(f"{name} must be an integer, got {value!r}")
            object.__setattr__(self, name, operator.index(value))  # a numpy integer as an int
        if self.L_max < 1:
            raise GridSizeError(f"L_max must be >= 1, got {self.L_max}")
        if self.s < 0:
            raise GridSizeError(f"s must be >= 0, got {self.s}")
        if self.L_max + self.s > MAX_LEVEL_SUM:
            raise GridSizeError(
                f"size guard exceeded: L_max + s = {self.L_max + self.s} "
                f"> {MAX_LEVEL_SUM} (N would be 2**{self.L_max + self.s})"
            )

    @property
    def n_cells(self) -> int:
        return 2 ** (self.L_max + self.s)

    @property
    def h(self) -> float:
        return 2.0 ** (-self.s)

    @property
    def x0(self) -> float:
        return -(2.0 ** (self.L_max - 1))

    @property
    def window_low(self) -> int:
        """Smallest annulus index whose inner cube is still cell-aligned."""
        return 2 - self.s

    @property
    def window_high(self) -> int:
        return self.L_max

    def window_range(self) -> range:
        return range(self.window_low, self.window_high + 1)

    def cell_centers(self) -> np.ndarray:
        n = self.n_cells
        return self.x0 + (np.arange(n) + 0.5) * self.h

    def cell_edges(self) -> np.ndarray:
        return self.x0 + np.arange(self.n_cells + 1) * self.h

    def half_width_cells(self, i: int) -> int:
        """Number of cells between 0 and the boundary of Q(i), per half axis."""
        if i < 1 - self.s:
            raise AlignmentError(
                f"Q({i}) boundary 2**{i-1} is below cell resolution h=2**-{self.s}"
            )
        return 2 ** (i - 1 + self.s)

    def annulus_runs(self, i: int) -> tuple[tuple[int, int], tuple[int, int]]:
        """Cell-index runs (left, right) covering the 1-D annulus Q(i)\\Q(i-1)."""
        if not (self.window_low <= i <= self.window_high):
            raise RectangleError(
                f"annulus index {i} outside window [{self.window_low}, "
                f"{self.window_high}]; its contribution is not representable "
                f"on this grid (treat as zero only if that is what you mean)"
            )
        mid = self.n_cells // 2
        outer = self.half_width_cells(i)
        inner = self.half_width_cells(i - 1)
        return (mid - outer, mid - inner), (mid + inner, mid + outer)

    def point_to_cell(self, x: float) -> int:
        """Index of the half-open cell containing coordinate x."""
        idx = int(np.floor((x - self.x0) / self.h))
        if not (0 <= idx < self.n_cells):
            raise RectangleError(f"coordinate {x} outside the truncation box")
        return idx


def _central_gap(spec: GridSpec) -> slice:
    """The two central cells of an axis, which no window annulus covers."""
    mid = spec.n_cells // 2
    return slice(mid - 1, mid + 1)


@functools.lru_cache(maxsize=16)
def _segment_starts(spec: GridSpec) -> np.ndarray:
    """Sorted starts of the ``2W + 1`` cell runs that tile one axis.

    The window annuli (``W`` of them) contribute a left and a right run each,
    and the central gap is the run in the middle: run ``W - 1 - k`` is the
    left run of annulus ``window_low + k``, run ``W`` the gap and run
    ``W + 1 + k`` the right run.  Private and cached: a step inside the
    annulus tables, not a layer of its own (see :func:`_prefix_table`).
    """
    runs = [spec.annulus_runs(i) for i in spec.window_range()]
    starts = [_central_gap(spec).start] + [run[0] for pair in runs for run in pair]
    return _read_only(np.array(sorted(starts)))


def make_grid(L_max: int, s: int) -> GridSpec:
    """Build a :class:`GridSpec`, enforcing the size guard."""
    return GridSpec(L_max, s)


# The one 2-D prefix-sum primitive.  Private: these are steps inside the
# kernels, not layers of their own, so bench/tracer.py (which wraps every
# public function) keeps one span per kernel call rather than one per box.


def _prefix_table(a: np.ndarray) -> np.ndarray:
    """Zero-padded 2-D prefix sums: ``P[i, j] == a[:i, :j].sum()``.

    Both cumulative sums write into ``P``: no N x N temporary, and the same
    additions in the same order as ``a.cumsum(axis=0).cumsum(axis=1)``.
    """
    P = np.zeros((a.shape[0] + 1, a.shape[1] + 1))
    np.cumsum(a, axis=0, out=P[1:, 1:])
    np.cumsum(P[1:, 1:], axis=1, out=P[1:, 1:])
    return P


def _box_sum(P: np.ndarray, x0, x1, y0, y1):
    """Sum over cells ``[x0, x1) x [y0, y1)`` from a :func:`_prefix_table`.

    With slices ``x0 = np.s_[:-wx], x1 = np.s_[wx:]`` (and likewise for y)
    this is the table of every ``wx x wy`` box sum, indexed by low corner.
    """
    return P[x1, y1] - P[x0, y1] - P[x1, y0] + P[x0, y0]


def _sum_exponent(top: float, count: int) -> int:
    """0 if sums of ``count`` values of size at most ``top`` stay finite, else
    the power of two that puts ``top`` in [0.5, 1); scaling by it is exact."""
    return 0 if math.isfinite(top * count) else int(np.frexp(top)[1])


def _scale_back(x, e: int):
    """``x * 2**e`` for a :func:`_sum_exponent` ``e``.  Where that overflows
    the result is ``inf``, as documented, and no overflow warning is raised."""
    if not e:
        return x
    with np.errstate(over="ignore"):
        return np.ldexp(x, e)


def _read_only(a: np.ndarray) -> np.ndarray:
    """``a`` with writes turned off: the form of every cached or shared table."""
    a.flags.writeable = False
    return a


def _require_finite(values: np.ndarray) -> None:
    if not np.isfinite(values).all():
        bad = int(np.count_nonzero(~np.isfinite(values)))
        raise DataError(f"{bad} non-finite cell values")


@dataclass(frozen=True)
class GridRectangle:
    """Axis-parallel rectangle in half-open cell indices."""

    ix0: int
    ix1: int
    iy0: int
    iy1: int

    def __post_init__(self) -> None:
        if not (self.ix0 < self.ix1 and self.iy0 < self.iy1):
            raise RectangleError(f"empty rectangle {self!r}")
        if self.ix0 < 0 or self.iy0 < 0:
            raise RectangleError(f"rectangle {self!r} has negative cell indices")

    def cells(self) -> int:
        return (self.ix1 - self.ix0) * (self.iy1 - self.iy0)

    def check_within(self, spec: GridSpec) -> "GridRectangle":
        n = spec.n_cells
        if self.ix1 > n or self.iy1 > n:
            raise RectangleError(f"rectangle {self!r} exceeds grid of {n} cells")
        return self


@dataclass(frozen=True)
class DyadicRectangle:
    """Centered dyadic rectangle Q(l1) x Q(l2)."""

    l1: int
    l2: int

    def to_cells(self, spec: GridSpec) -> GridRectangle:
        hw1 = spec.half_width_cells(self.l1)
        hw2 = spec.half_width_cells(self.l2)
        mid = spec.n_cells // 2
        if self.l1 > spec.L_max or self.l2 > spec.L_max:
            raise RectangleError(
                f"dyadic rectangle ({self.l1},{self.l2}) exceeds the box "
                f"(L_max={spec.L_max})"
            )
        return GridRectangle(mid - hw1, mid + hw1, mid - hw2, mid + hw2)

    def measure(self) -> float:
        """Continuum measure 2**(l1+l2), independent of any grid."""
        return 2.0 ** (self.l1 + self.l2)


@dataclass(frozen=True)
class AnnulusIndex:
    """Product annulus (Q(i)\\Q(i-1)) x (Q(j)\\Q(j-1))."""

    i: int
    j: int


class GridFunction:
    """Piecewise-constant real function on a :class:`GridSpec`.

    ``values[ix, iy]`` is the constant on cell ``(ix, iy)``; axis 0 is x.
    The value table is frozen at construction, and nothing derived from it
    is kept: each :meth:`rect_means` call builds its own prefix-sum table
    and drops it.
    """

    __slots__ = ("spec", "values")

    def __init__(self, spec: GridSpec, values: np.ndarray):
        self._hold(spec, np.asarray(values, dtype=float), copy=True)

    @classmethod
    def _adopt(cls, spec: GridSpec, values: np.ndarray) -> "GridFunction":
        """A function that holds ``values`` itself rather than a copy.

        For arrays the library has just built and keeps no other reference
        to (a kernel's output, a refined table, a ``np.where``): the copy of
        the public constructor would double their peak.  They are checked
        and frozen all the same.
        """
        f = cls.__new__(cls)
        f._hold(spec, np.ascontiguousarray(values, dtype=float), copy=False)
        return f

    def _hold(self, spec: GridSpec, arr: np.ndarray, copy: bool) -> None:
        n = spec.n_cells
        if arr.shape != (n, n):
            raise DataError(f"expected a {n}x{n} value table, got {arr.shape}")
        _require_finite(arr)
        if copy:
            arr = arr.copy()
        arr.flags.writeable = False
        object.__setattr__(self, "spec", spec)
        object.__setattr__(self, "values", arr)

    def __setattr__(self, name, value):  # pragma: no cover - defensive
        raise AttributeError("GridFunction is immutable")

    # -- rectangle sums ----------------------------------------------------

    def _scaled_sums(self, rects, absolute: bool):
        """Cell sums of ``f`` (or ``|f|``) over each of ``rects`` scaled by
        ``2**-e``, the rectangles' cell counts, ``e``, and bounds ``(lo, hi)``
        on the scaled cell values summed.

        ``e`` is :func:`_sum_exponent` of ``max|f|`` over the ``N**2`` cells:
        0, and raw sums, unless cell sums could overflow.  The prefix table
        is built for this call and dropped after it: no N x N table outlives
        the call.
        """
        vals = self.values
        lo, hi = float(vals.min()), float(vals.max())
        e = _sum_exponent(max(hi, -lo), vals.size)
        if absolute:  # |f| of mixed signs is bounded by [0, max|f|]
            lo, hi = (lo, hi) if lo >= 0 else (-hi, -lo) if hi <= 0 else (0.0, max(hi, -lo))
        a = np.abs(vals) if absolute else vals
        P = _prefix_table(np.ldexp(a, -e) if e else a)
        x0, x1, y0, y1 = np.array([(r.ix0, r.ix1, r.iy0, r.iy1) for r in rects]).T
        bounds = (math.ldexp(lo, -e), math.ldexp(hi, -e))
        return _box_sum(P, x0, x1, y0, y1), (x1 - x0) * (y1 - y0), e, bounds

    def rect_means(self, rects, absolute: bool = False) -> np.ndarray:
        """Mean cell value of f (or |f|) over each rectangle of the sequence
        ``rects``, all from one prefix table; finite even where a cell sum
        overflows, since the means are taken on the scaled sums."""
        totals, cells, e, bounds = self._scaled_sums(rects, absolute)
        means = totals / cells
        if e:  # a rounded mean past the largest value would scale back to inf
            means = np.clip(means, *bounds)
        return _scale_back(means, e)

    def rect_cell_sum(self, rect: GridRectangle, absolute: bool = False) -> float:
        """Raw cell sum of f (or |f|) over ``rect`` (unscaled by h**2);
        ``inf`` where the sum overflows."""
        totals, _, e, _ = self._scaled_sums([rect], absolute)
        return float(_scale_back(totals[0], e))

    def rect_mean(self, rect: GridRectangle, absolute: bool = False) -> float:
        """:meth:`rect_means` of the one rectangle ``rect``."""
        return float(self.rect_means([rect], absolute)[0])

    # -- convenience -------------------------------------------------------

    def with_values(self, values: np.ndarray) -> "GridFunction":
        return GridFunction(self.spec, values)

    def refine(self, extra_levels: int = 1) -> "GridFunction":
        """Same function represented at resolution s + extra_levels (exact)."""
        fine = GridSpec(self.spec.L_max, self.spec.s + extra_levels)
        n, k = self.spec.n_cells, 2**extra_levels
        # each cell as a k x k block: one copy out of a broadcast view
        cells = np.broadcast_to(self.values[:, None, :, None], (n, k, n, k))
        return GridFunction._adopt(fine, cells.reshape(n * k, n * k))


def dilate(f: GridFunction, t: float) -> GridFunction:
    """The dilation z -> f(z/t), sampled at cell centers (t >= 1).

    For power-of-two t and cell-aligned f this is exact: scaled centers never
    land on cell boundaries.
    """
    if t < 1:
        raise ValueError(f"dilation factor must be >= 1, got {t}")
    spec = f.spec
    c = spec.cell_centers() / t
    idx = np.floor((c - spec.x0) / spec.h).astype(int)
    idx = np.clip(idx, 0, spec.n_cells - 1)
    return GridFunction._adopt(spec, f.values[np.ix_(idx, idx)])


def integrate_over_rectangle(
    f: GridFunction, rect: GridRectangle, absolute: bool = False
) -> float:
    """Exact integral of f (or |f|) over a cell-aligned rectangle.

    Builds one prefix table for the call (O(N**2)); for many rectangles of
    one function, :meth:`GridFunction.rect_means` shares one table.  The
    h**2 scaling is a power of two, so no precision is lost relative to
    summing scaled cells.
    """
    rect.check_within(f.spec)
    return f.rect_cell_sum(rect, absolute=absolute) * f.spec.h * f.spec.h


# -- annulus machinery -----------------------------------------------------


def annulus_mask_1d(spec: GridSpec, i: int) -> np.ndarray:
    m = np.zeros(spec.n_cells, dtype=bool)
    (a0, a1), (b0, b1) = spec.annulus_runs(i)
    m[a0:a1] = True
    m[b0:b1] = True
    return m


def window_mask(spec: GridSpec) -> np.ndarray:
    """Boolean table of cells covered by the product annulus window (read-only).

    The window annuli cover each axis but its central gap.
    """
    axis = np.ones(spec.n_cells, dtype=bool)
    axis[_central_gap(spec)] = False
    return _read_only(axis[:, None] & axis[None, :])


def annulus_restrict(f: GridFunction, annulus: AnnulusIndex) -> GridFunction:
    """f multiplied by the indicator of a product annulus (exact alignment)."""
    mx = annulus_mask_1d(f.spec, annulus.i)
    my = annulus_mask_1d(f.spec, annulus.j)
    return GridFunction._adopt(f.spec, np.where(mx[:, None] & my[None, :], f.values, 0.0))


def restrict_to_window(f: GridFunction) -> GridFunction:
    """Zero f outside the union of window annuli (the central cross is cut).

    Annulus-decomposed norms reject functions with mass off the window; this
    is the documented projection for test objects such as centered indicators.
    """
    return GridFunction._adopt(f.spec, np.where(window_mask(f.spec), f.values, 0.0))


def window_support_violations(f: GridFunction) -> np.ndarray:
    """Cell indices (k x 2 array) where f is nonzero outside the window."""
    gap = _central_gap(f.spec)  # off the window: two rows and two columns
    if not (f.values[gap].any() or f.values[:, gap].any()):
        return np.empty((0, 2), dtype=np.intp)
    off = (~window_mask(f.spec)) & (f.values != 0.0)
    return np.argwhere(off)


# -- builders ----------------------------------------------------------------


def from_rule(spec: GridSpec, rule: Callable, clip: float | None = None) -> GridFunction:
    """Sample a pointwise rule at cell centers (the sampling convention)."""
    c = spec.cell_centers()
    vals = np.asarray(rule(c[:, None], c[None, :]), dtype=float)
    if vals.shape != (spec.n_cells, spec.n_cells):
        vals = np.broadcast_to(vals, (spec.n_cells, spec.n_cells)).copy()
    if clip is not None:
        # a fresh array, so it is adopted; the rule's own output is copied,
        # since the caller may still hold it
        vals = np.clip(vals, -clip, clip)
    if not np.isfinite(vals).all():
        raise DataError("rule produced non-finite samples; pass a clip bound")
    return GridFunction(spec, vals) if clip is None else GridFunction._adopt(spec, vals)


def indicator(spec: GridSpec, rect: GridRectangle | DyadicRectangle) -> GridFunction:
    if isinstance(rect, DyadicRectangle):
        rect = rect.to_cells(spec)
    rect.check_within(spec)
    vals = np.zeros((spec.n_cells, spec.n_cells))
    vals[rect.ix0 : rect.ix1, rect.iy0 : rect.iy1] = 1.0
    return GridFunction._adopt(spec, vals)


def _aligned_rect_from_bounds(spec: GridSpec, x0, x1, y0, y1) -> GridRectangle:
    idx = []
    for v in (x0, x1, y0, y1):
        t = (v - spec.x0) / spec.h
        k = round(t)
        if abs(t - k) > 1e-9:
            raise AlignmentError(f"coordinate {v} is not a cell boundary (h={spec.h})")
        idx.append(int(k))
    return GridRectangle(idx[0], idx[1], idx[2], idx[3]).check_within(spec)


def _builtin_indicator(spec: GridSpec, *, l1=None, l2=None, bounds=None):
    if bounds is not None:
        return indicator(spec, _aligned_rect_from_bounds(spec, *bounds))
    return indicator(spec, DyadicRectangle(int(l1), int(l2)))


def constant(spec: GridSpec, value: float) -> GridFunction:
    return GridFunction._adopt(spec, np.full((spec.n_cells, spec.n_cells), float(value)))


def _builtin_power(spec: GridSpec, *, a, b):
    # |x|**a |y|**b at cell centers, never on the axes: finite, fresh, adopted
    c = spec.cell_centers()
    return GridFunction._adopt(spec, np.abs(c[:, None]) ** a * np.abs(c[None, :]) ** b)


def _builtin_truncated_log(spec: GridSpec, *, clip=None):
    bound = float(clip) if clip is not None else 2.0**spec.s
    return from_rule(
        spec,
        lambda x, y: np.log(1.0 / np.abs(x)) + np.log(1.0 / np.abs(y)),
        clip=bound,
    )


def _builtin_gaussian(spec: GridSpec, *, sigma=1.0):
    c2 = spec.cell_centers() ** 2
    return GridFunction._adopt(spec, np.exp(-(c2[:, None] + c2[None, :]) / (2.0 * sigma**2)))


def _builtin_noise(spec: GridSpec, *, seed, low=0.0, high=1.0):
    # seed may be an int or a sequence of ints (derived per-trial seeds)
    n = spec.n_cells
    return GridFunction._adopt(spec, _pcg.uniform(seed, low, high, n * n).reshape(n, n))


def _builtin_step(spec: GridSpec, *, l1=0, l2=0, inside=2.0, outside=1.0):
    rect = DyadicRectangle(int(l1), int(l2)).to_cells(spec)
    vals = np.full((spec.n_cells, spec.n_cells), float(outside))
    vals[rect.ix0 : rect.ix1, rect.iy0 : rect.iy1] = float(inside)
    return GridFunction._adopt(spec, vals)


def annulus_comb(spec: GridSpec) -> GridFunction:
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
    return GridFunction._adopt(spec, vals)


def cell_split_noise(spec: GridSpec, base: GridSpec, seed) -> GridFunction:
    """The ``noise`` builtin drawn on ``base`` at ``seed`` and cell-split
    onto the finer ``spec``: the same function on both grids."""
    if spec.s < base.s:
        raise ValueError("noise drawn on a grid only refines, never coarsens")
    if spec.L_max != base.L_max:
        raise ValueError(
            f"noise drawn on L_max={base.L_max} refines onto the same box, not L_max={spec.L_max}"
        )
    f = build_function(base, builtin="noise", seed=seed)
    return f.refine(spec.s - base.s) if spec.s > base.s else f


BUILTINS: dict[str, Callable[..., GridFunction]] = {
    "indicator": _builtin_indicator,
    "constant": lambda spec, *, value=1.0: constant(spec, value),
    "power": _builtin_power,
    "truncated_log": _builtin_truncated_log,
    "gaussian": _builtin_gaussian,
    "noise": _builtin_noise,
    "step": _builtin_step,
}


def build_function(
    spec: GridSpec,
    builtin: str | None = None,
    rule: Callable | None = None,
    values: np.ndarray | None = None,
    clip: float | None = None,
    **params,
) -> GridFunction:
    """Single entry point for the three construction routes.

    Exactly one of ``builtin`` (name + keyword params), ``rule`` (pointwise,
    sampled at cell centers), or ``values`` (explicit cell table) must be
    given.
    """
    given = sum(x is not None for x in (builtin, rule, values))
    if given != 1:
        raise ValueError("pass exactly one of builtin=, rule=, values=")
    if builtin is not None:
        try:
            factory = BUILTINS[builtin]
        except KeyError:
            raise ValueError(
                f"unknown builtin {builtin!r}; known: {sorted(BUILTINS)}"
            ) from None
        return factory(spec, **params)
    if rule is not None:
        return from_rule(spec, rule, clip=clip)
    return GridFunction(spec, values)
