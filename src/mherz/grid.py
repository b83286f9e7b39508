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

All functions here are pure; :class:`GridFunction` is immutable after
construction and safe to share across workers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

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


def make_grid(L_max: int, s: int) -> GridSpec:
    """Build a :class:`GridSpec`, enforcing the size guard."""
    return GridSpec(int(L_max), int(s))


# The one 2-D prefix-sum primitive.  Private: these are steps inside the
# kernels, not layers of their own, so bench/tracer.py (which wraps every
# public function) keeps one span per kernel call rather than one per box.


def _prefix_table(a: np.ndarray) -> np.ndarray:
    """Zero-padded 2-D prefix sums: ``P[i, j] == a[:i, :j].sum()``."""
    P = np.zeros((a.shape[0] + 1, a.shape[1] + 1))
    P[1:, 1:] = a.cumsum(axis=0).cumsum(axis=1)
    return P


def _box_sum(P: np.ndarray, x0, x1, y0, y1):
    """Sum over cells ``[x0, x1) x [y0, y1)`` from a :func:`_prefix_table`.

    With slices ``x0 = np.s_[:-wx], x1 = np.s_[wx:]`` (and likewise for y)
    this is the table of every ``wx x wy`` box sum, indexed by low corner.
    """
    return P[x1, y1] - P[x0, y1] - P[x1, y0] + P[x0, y0]


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

    def measure(self, spec: GridSpec) -> float:
        return self.cells() * spec.h * spec.h

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
    The value table is frozen at construction; prefix-sum tables for ``f``
    and ``|f|`` are built lazily and reused.
    """

    __slots__ = ("spec", "values", "_cache")

    def __init__(self, spec: GridSpec, values: np.ndarray):
        n = spec.n_cells
        arr = np.asarray(values, dtype=float)
        if arr.shape != (n, n):
            raise DataError(f"expected a {n}x{n} value table, got {arr.shape}")
        if not np.isfinite(arr).all():
            bad = int(np.count_nonzero(~np.isfinite(arr)))
            raise DataError(f"{bad} non-finite cell values")
        arr = arr.copy()
        arr.flags.writeable = False
        object.__setattr__(self, "spec", spec)
        object.__setattr__(self, "values", arr)
        object.__setattr__(self, "_cache", {})

    def __setattr__(self, name, value):  # pragma: no cover - defensive
        raise AttributeError("GridFunction is immutable")

    # -- prefix tables -----------------------------------------------------

    def _prefix(self, key: str, table: Callable[[], np.ndarray]) -> np.ndarray:
        cache = object.__getattribute__(self, "_cache")
        if key not in cache:
            cache[key] = _prefix_table(table())
        return cache[key]

    def prefix_sum(self) -> np.ndarray:
        """(N+1)x(N+1) table of raw cell sums of f (unscaled by h**2)."""
        return self._prefix("sum", lambda: self.values)

    def prefix_abs_sum(self) -> np.ndarray:
        return self._prefix("abs", lambda: np.abs(self.values))

    def rect_cell_sum(self, rect: GridRectangle, absolute: bool = False) -> float:
        P = self.prefix_abs_sum() if absolute else self.prefix_sum()
        return float(_box_sum(P, rect.ix0, rect.ix1, rect.iy0, rect.iy1))

    # -- convenience -------------------------------------------------------

    def value_at(self, x: float, y: float) -> float:
        return float(self.values[self.spec.point_to_cell(x), self.spec.point_to_cell(y)])

    def with_values(self, values: np.ndarray) -> "GridFunction":
        return GridFunction(self.spec, values)

    def __abs__(self) -> "GridFunction":
        return self.with_values(np.abs(self.values))

    def refine(self, extra_levels: int = 1) -> "GridFunction":
        """Same function represented at resolution s + extra_levels (exact)."""
        fine = GridSpec(self.spec.L_max, self.spec.s + extra_levels)
        k = 2**extra_levels
        return GridFunction(fine, np.kron(self.values, np.ones((k, k))))


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
    return f.with_values(f.values[np.ix_(idx, idx)])


def integrate_over_rectangle(
    f: GridFunction, rect: GridRectangle, absolute: bool = False
) -> float:
    """Exact integral of f (or |f|) over a cell-aligned rectangle.

    O(1) after the prefix table is built; the h**2 scaling is a power of two,
    so no precision is lost relative to summing scaled cells.
    """
    rect.check_within(f.spec)
    return f.rect_cell_sum(rect, absolute=absolute) * f.spec.h * f.spec.h


def rect_average(f: GridFunction, rect: GridRectangle, absolute: bool = True) -> float:
    rect.check_within(f.spec)
    return f.rect_cell_sum(rect, absolute=absolute) / rect.cells()


# -- annulus machinery -----------------------------------------------------


def annulus_mask_1d(spec: GridSpec, i: int) -> np.ndarray:
    m = np.zeros(spec.n_cells, dtype=bool)
    (a0, a1), (b0, b1) = spec.annulus_runs(i)
    m[a0:a1] = True
    m[b0:b1] = True
    return m


def window_mask(spec: GridSpec) -> np.ndarray:
    """Boolean table of cells covered by the product annulus window."""
    axis = np.zeros(spec.n_cells, dtype=bool)
    for i in spec.window_range():
        axis |= annulus_mask_1d(spec, i)
    return axis[:, None] & axis[None, :]


def annulus_restrict(f: GridFunction, annulus: AnnulusIndex) -> GridFunction:
    """f multiplied by the indicator of a product annulus (exact alignment)."""
    mx = annulus_mask_1d(f.spec, annulus.i)
    my = annulus_mask_1d(f.spec, annulus.j)
    return f.with_values(np.where(mx[:, None] & my[None, :], f.values, 0.0))


def restrict_to_window(f: GridFunction) -> GridFunction:
    """Zero f outside the union of window annuli (the central cross is cut).

    Annulus-decomposed norms reject functions with mass off the window; this
    is the documented projection for test objects such as centered indicators.
    """
    return f.with_values(np.where(window_mask(f.spec), f.values, 0.0))


def window_support_violations(f: GridFunction) -> np.ndarray:
    """Cell indices (k x 2 array) where f is nonzero outside the window."""
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
        vals = np.clip(vals, -clip, clip)
    if not np.isfinite(vals).all():
        raise DataError("rule produced non-finite samples; pass a clip bound")
    return GridFunction(spec, vals)


def indicator(spec: GridSpec, rect: GridRectangle | DyadicRectangle) -> GridFunction:
    if isinstance(rect, DyadicRectangle):
        rect = rect.to_cells(spec)
    rect.check_within(spec)
    vals = np.zeros((spec.n_cells, spec.n_cells))
    vals[rect.ix0 : rect.ix1, rect.iy0 : rect.iy1] = 1.0
    return GridFunction(spec, vals)


def _aligned_rect_from_bounds(spec: GridSpec, x0, x1, y0, y1) -> GridRectangle:
    idx = []
    for v in (x0, x1, y0, y1):
        t = (v - spec.x0) / spec.h
        k = round(t)
        if abs(t - k) > 1e-9:
            raise AlignmentError(f"coordinate {v} is not a cell boundary (h={spec.h})")
        idx.append(int(k))
    return GridRectangle(idx[0], idx[1], idx[2], idx[3]).check_within(spec)


def _builtin_indicator(spec: GridSpec, *, l1=None, l2=None, bounds=None, masked=False):
    if bounds is not None:
        f = indicator(spec, _aligned_rect_from_bounds(spec, *bounds))
    else:
        f = indicator(spec, DyadicRectangle(int(l1), int(l2)))
    return restrict_to_window(f) if masked else f


def _builtin_annulus(spec: GridSpec, *, i, j):
    return annulus_restrict(constant(spec, 1.0), AnnulusIndex(int(i), int(j)))


def constant(spec: GridSpec, value: float) -> GridFunction:
    return GridFunction(spec, np.full((spec.n_cells, spec.n_cells), float(value)))


def _builtin_power(spec: GridSpec, *, a, b):
    # |x|**a |y|**b at cell centers; centers never hit the axes, so finite.
    return from_rule(spec, lambda x, y: np.abs(x) ** a * np.abs(y) ** b)


def _builtin_truncated_log(spec: GridSpec, *, clip=None):
    bound = float(clip) if clip is not None else 2.0**spec.s
    return from_rule(
        spec,
        lambda x, y: np.log(1.0 / np.abs(x)) + np.log(1.0 / np.abs(y)),
        clip=bound,
    )


def _builtin_gaussian(spec: GridSpec, *, sigma=1.0, center=(0.0, 0.0)):
    cx, cy = center
    return from_rule(
        spec,
        lambda x, y: np.exp(-((x - cx) ** 2 + (y - cy) ** 2) / (2.0 * sigma**2)),
    )


def _builtin_noise(spec: GridSpec, *, seed, low=0.0, high=1.0):
    # seed may be an int or a sequence of ints (derived per-trial seeds)
    rng = np.random.default_rng(seed)
    n = spec.n_cells
    return GridFunction(spec, rng.uniform(low, high, size=(n, n)))


def _builtin_step(spec: GridSpec, *, l1=0, l2=0, inside=2.0, outside=1.0):
    rect = DyadicRectangle(int(l1), int(l2)).to_cells(spec)
    vals = np.full((spec.n_cells, spec.n_cells), float(outside))
    vals[rect.ix0 : rect.ix1, rect.iy0 : rect.iy1] = float(inside)
    return GridFunction(spec, vals)


BUILTINS: dict[str, Callable[..., GridFunction]] = {
    "indicator": _builtin_indicator,
    "annulus": _builtin_annulus,
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
