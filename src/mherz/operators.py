"""Operators on grid functions: strong maximal variants, rectangle averaging,
Rubio de Francia iteration, and separable singular convolution.

Strong maximal operator variants (all return the sup of |f|-averages over a
rectangle family containing each cell):

* ``exact-grid``: every grid-aligned rectangle.  O(N^4) via per-row-range 1-D
  reductions; gated to small grids.
* ``dyadic-sides``: rectangles with power-of-two side lengths at every
  position, O(N^2 log^2 N) via prefix sums and sliding-window maxima.
  Pointwise it is dominated by exact-grid, and dominates it up to the factor
  4 (any rectangle sits inside a dyadic-sided one of at most 4x the area at
  an admissible anchor).
* ``iterated-1d``: the 1-D maximal operator applied in y then in x; dominates
  exact-grid pointwise.

The singular convolution evaluates at cell centers with exact per-cell
antiderivatives of each axis kernel, which makes the principal value exact
algebra for piecewise-constant inputs: the weight of a source cell [a, b) at
target x is A(x - a) - A(x - b) with A an antiderivative of the axis kernel,
finite even on the singular cell because centers never sit on cell edges.
Separability turns the O(N^4) sum into two dense N x N matrix products.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np
from scipy.ndimage import maximum_filter1d

from .errors import CostGuardError, KernelError
from .grid import (
    GridFunction,
    GridRectangle,
    GridSpec,
    _box_sum,
    _prefix_table,
    build_function,
    restrict_to_window,
)
from .norms import block_norm_bracket

# -- maximal variants ----------------------------------------------------------


@dataclass(frozen=True)
class MaximalVariant:
    kind: str
    exact_gate: int = 64  # largest N for the O(N^4) exact sweep
    note: str = ""

    def __post_init__(self) -> None:
        if self.kind not in ("exact-grid", "dyadic-sides", "iterated-1d"):
            raise ValueError(f"unknown maximal variant {self.kind!r}")


EXACT_GRID = MaximalVariant("exact-grid", note="all grid rectangles, O(N^4)")
DYADIC_SIDES = MaximalVariant("dyadic-sides", note="2^a x 2^b sides, O(N^2 log^2 N)")
ITERATED_1D = MaximalVariant("iterated-1d", note="1-D maximal in y then x")

_VARIANTS = {v.kind: v for v in (EXACT_GRID, DYADIC_SIDES, ITERATED_1D)}


def as_variant(variant: MaximalVariant | str) -> MaximalVariant:
    if isinstance(variant, MaximalVariant):
        return variant
    try:
        return _VARIANTS[variant]
    except KeyError:
        raise ValueError(f"unknown maximal variant {variant!r}") from None


def trailing_window_max(a: np.ndarray, w: int, axis: int) -> np.ndarray:
    """out[x] = max(a[x-w+1 .. x]) along ``axis``, missing entries = -inf."""
    return maximum_filter1d(
        a, size=w, axis=axis, origin=(w - 1) // 2, mode="constant", cval=-np.inf
    )


def interval_average_profile(v: np.ndarray) -> np.ndarray:
    """Per position, the max over subintervals containing it of the mean.

    Operates on the last axis; leading axes are batch.  Vectorised staircase:
    suffix-max over interval ends, prefix-max over interval starts, then the
    diagonal picks out intervals straddling each position.
    """
    v = np.asarray(v, dtype=float)
    n = v.shape[-1]
    P = np.zeros(v.shape[:-1] + (n + 1,))
    np.cumsum(v, axis=-1, out=P[..., 1:])
    num = P[..., None, 1:] - P[..., :-1, None]  # [.., i0, j] = P[j+1] - P[i0]
    den = np.arange(1, n + 1)[None, :] - np.arange(n)[:, None]
    A = np.where(den > 0, num / np.maximum(den, 1), -np.inf)
    B = np.flip(np.maximum.accumulate(np.flip(A, -1), -1), -1)
    C = np.maximum.accumulate(B, axis=-2)
    return np.ascontiguousarray(np.einsum("...ii->...i", C))


def _maximal_exact(absv: np.ndarray) -> np.ndarray:
    n = absv.shape[0]
    Py = np.zeros((n, n + 1))
    np.cumsum(absv, axis=1, out=Py[:, 1:])
    out = np.zeros((n, n))
    heights = np.arange(1, n + 1, dtype=float)
    for iy0 in range(n):
        # batch over all upper ends iy1 = iy0+1 .. n
        S = (Py[:, iy0 + 1 :] - Py[:, iy0 : iy0 + 1]).T  # (n-iy0, n)
        m = interval_average_profile(S) / heights[: n - iy0, None]
        # cell (x, y>=iy0) is covered by every range end iy1 > y
        cover = np.flip(np.maximum.accumulate(np.flip(m, 0), 0), 0)
        np.maximum(out[:, iy0:], cover.T, out=out[:, iy0:])
    return out


def _maximal_dyadic(absv: np.ndarray) -> np.ndarray:
    n = absv.shape[0]
    P = _prefix_table(absv)
    sides = [1 << a for a in range(n.bit_length())]
    out = np.full((n, n), -np.inf)
    for wx in sides:
        for wy in sides:
            corners = (np.s_[:-wx], np.s_[wx:], np.s_[:-wy], np.s_[wy:])
            T = _box_sum(P, *corners) / float(wx * wy)
            pad = np.full((n, n), -np.inf)
            pad[: n - wx + 1, : n - wy + 1] = T
            cov = trailing_window_max(trailing_window_max(pad, wx, 0), wy, 1)
            np.maximum(out, cov, out=out)
    return out


def _maximal_1d_lines(absv: np.ndarray, chunk: int = 32) -> np.ndarray:
    """Apply the 1-D all-intervals maximal operator along the last axis."""
    n = absv.shape[0]
    out = np.empty_like(absv)
    for k in range(0, n, chunk):
        out[k : k + chunk] = interval_average_profile(absv[k : k + chunk])
    return out


def strong_maximal(f: GridFunction, variant: MaximalVariant | str = DYADIC_SIDES) -> GridFunction:
    """Discrete strong maximal function of f for the chosen rectangle family."""
    var = as_variant(variant)
    absv = np.abs(f.values)
    n = f.spec.n_cells
    if var.kind == "exact-grid":
        if n > var.exact_gate:
            raise CostGuardError(
                f"exact-grid maximal on N={n} exceeds gate {var.exact_gate}; "
                f"pass MaximalVariant('exact-grid', exact_gate=...) to override"
            )
        out = _maximal_exact(absv)
    elif var.kind == "dyadic-sides":
        out = _maximal_dyadic(absv)
    else:
        out = _maximal_1d_lines(_maximal_1d_lines(absv).T).T
    # the single-cell rectangle is in every family; evaluating it directly
    # makes M f >= |f| exact instead of up to prefix-sum cancellation noise
    np.maximum(out, absv, out=out)
    return f.with_values(out)


def rect_average_P(f: GridFunction, rect: GridRectangle) -> GridFunction:
    """The averaging projection: (avg_R |f|) on R, zero elsewhere."""
    rect.check_within(f.spec)
    avg = f.rect_cell_sum(rect, absolute=True) / rect.cells()
    vals = np.zeros_like(f.values)
    vals[rect.ix0 : rect.ix1, rect.iy0 : rect.iy1] = avg
    return f.with_values(vals)


# -- Rubio de Francia iteration --------------------------------------------------


def maximal_iterates(
    h: GridFunction, K: int, variant: MaximalVariant | str = DYADIC_SIDES
) -> list[np.ndarray]:
    """[|h|, M|h|, M^2|h|, ..., M^K|h|] as value tables (K+1 entries)."""
    if K < 0:
        raise ValueError("K must be >= 0")
    cur = h.with_values(np.abs(h.values))
    tables = [cur.values]
    for _ in range(K):
        cur = strong_maximal(cur, variant)
        tables.append(cur.values)
    return tables


@dataclass(frozen=True)
class RubioResult:
    """Truncated geometric-series majorant sum_{k<=K} M^k|h| / (2c)^k."""

    fn: GridFunction
    c: float
    K: int
    tail_factor: float  # 2**-K, the geometric share left beyond the truncation

    @property
    def values(self) -> np.ndarray:
        return self.fn.values


def rubio_from_iterates(
    h: GridFunction, iterates: Sequence[np.ndarray], c: float, K: int
) -> RubioResult:
    if c <= 0:
        raise ValueError(f"c must be positive, got {c}")
    if K < 1 or K + 1 > len(iterates):
        raise ValueError(f"need iterates up to order K={K}")
    # accumulate upward from the k=0 term so the pointwise lower bound
    # |h| <= sum is exact in floating point (adding nonnegative terms
    # never decreases the running sum)
    acc = iterates[0].copy()
    for k in range(1, K + 1):
        acc += iterates[k] / (2.0 * c) ** k
    return RubioResult(h.with_values(acc), float(c), int(K), 2.0 ** (-K))


def rubio_de_francia(
    h: GridFunction,
    c: float,
    K: int,
    variant: MaximalVariant | str = DYADIC_SIDES,
) -> RubioResult:
    """Apply the truncated majorant construction to |h|.

    The construction is applied to |h| so the k=0 term already dominates the
    input pointwise; c stands in for the operator norm of the maximal
    operator on the block space and may be estimated with
    :func:`estimate_block_norm_constant`.
    """
    return rubio_from_iterates(h, maximal_iterates(h, K, variant), c, K)


def estimate_block_norm_constant(
    spec: GridSpec,
    block_params,
    variant: MaximalVariant | str = DYADIC_SIDES,
    probes: Sequence[GridFunction] | None = None,
    iterations: int = 2,
) -> float:
    """Power-iteration style estimate of the maximal operator's block norm.

    Ratio of certified block upper brackets before/after the maximal operator
    on a probe set (outputs are window-masked before the bracket, matching the
    truncation convention).  This is an estimate for choosing c, not a
    certified operator norm.
    """
    if probes is None:
        mid = (spec.window_low + spec.window_high) // 2
        probes = [
            restrict_to_window(
                build_function(spec, builtin="indicator", l1=0, l2=0)
            ),
            restrict_to_window(
                build_function(spec, builtin="indicator", l1=mid, l2=mid)
            ),
            restrict_to_window(build_function(spec, builtin="noise", seed=7)),
        ]
    best = 0.0
    for g in probes:
        cur = g
        prev = block_norm_bracket(cur, block_params).upper
        if prev == 0.0:
            continue
        for _ in range(max(1, iterations)):
            cur = restrict_to_window(strong_maximal(cur, variant))
            now = block_norm_bracket(cur, block_params).upper
            best = max(best, now / prev)
            prev = now
            if prev == 0.0:
                break
    return best


# -- separable singular kernels ---------------------------------------------------


@dataclass(frozen=True)
class AxisKernel:
    """One axis factor with an exact antiderivative rule."""

    name: str
    degree: int  # homogeneity degree is -degree (the axis dimension)
    value: Callable[[np.ndarray], np.ndarray]
    antiderivative: Callable[[np.ndarray], np.ndarray]
    odd: bool = True


@dataclass(frozen=True)
class SeparableKernel:
    name: str
    axis1: AxisKernel
    axis2: AxisKernel
    eta: float = 1.0  # smoothness exponent used by the condition checks

    def value(self, x, y):
        return self.axis1.value(np.asarray(x, float)) * self.axis2.value(
            np.asarray(y, float)
        )


def _hilbert_axis() -> AxisKernel:
    return AxisKernel(
        name="hilbert",
        degree=1,
        value=lambda u: 1.0 / (math.pi * u),
        antiderivative=lambda u: np.log(np.abs(u)) / math.pi,
        odd=True,
    )


DOUBLE_HILBERT = SeparableKernel("double-hilbert", _hilbert_axis(), _hilbert_axis(), eta=1.0)

KERNELS = {"double-hilbert": DOUBLE_HILBERT}


def get_kernel(name: str) -> SeparableKernel:
    try:
        return KERNELS[name]
    except KeyError:
        raise KernelError(f"unknown kernel {name!r}; known: {sorted(KERNELS)}") from None


def _axis_weights(spec: GridSpec, axis: AxisKernel) -> np.ndarray:
    """W[target, source] = integral of the axis kernel over the source cell.

    Principal-value exact: over the cell holding the target center the two
    antiderivative evaluations are at equal distances h/2, so for an odd
    kernel the weight vanishes, exactly as the symmetric limit does.
    """
    centers = spec.cell_centers()
    edges = spec.cell_edges()
    A = axis.antiderivative(centers[:, None] - edges[None, :])
    if not np.isfinite(A).all():
        raise KernelError(
            f"axis kernel {axis.name!r} produced non-finite antiderivative values"
        )
    return A[:, :-1] - A[:, 1:]


def cz_apply(f: GridFunction, kernel: SeparableKernel | str = DOUBLE_HILBERT) -> GridFunction:
    """Convolution with a separable singular kernel, exact at cell centers."""
    ker = get_kernel(kernel) if isinstance(kernel, str) else kernel
    W1 = _axis_weights(f.spec, ker.axis1)
    W2 = _axis_weights(f.spec, ker.axis2)
    return f.with_values(W1 @ f.values @ W2.T)


def commutator(
    b: GridFunction, f: GridFunction, kernel: SeparableKernel | str = DOUBLE_HILBERT
) -> GridFunction:
    """b * T(f) - T(b * f) for the separable singular operator T."""
    ker = get_kernel(kernel) if isinstance(kernel, str) else kernel
    tf = cz_apply(f, ker)
    tbf = cz_apply(f.with_values(b.values * f.values), ker)
    return f.with_values(b.values * tf.values - tbf.values)


# -- kernel condition report --------------------------------------------------------


@dataclass(frozen=True)
class SamplePlan:
    r_min: float = 2.0**-6
    r_max: float = 2.0**6
    n_radii: int = 17
    h_fractions: tuple[float, ...] = (0.25, 0.125, 0.0625)

    def radii(self) -> np.ndarray:
        return np.geomspace(self.r_min, self.r_max, self.n_radii)


@dataclass(frozen=True)
class KernelConditionReport:
    kernel: str
    eta: float
    cancellation_max: float
    size_ratio_max: float
    smoothness_ratio_max: float
    mixed_ratio_max: float
    cancellation_tol: float
    passed: bool
    worst: dict = field(default_factory=dict)


def kernel_condition_check(
    kernel: SeparableKernel | str,
    plan: SamplePlan | None = None,
    cancellation_tol: float = 1e-8,
) -> KernelConditionReport:
    """Numerically audit the size, cancellation, and smoothness conditions.

    Cancellation integrals use the exact antiderivatives over annuli (so for
    odd kernels they vanish to rounding); the size and smoothness bounds are
    evaluated as ratios against their model envelopes over log-spaced
    samples, and the max ratio is reported as the empirical constant.
    """
    ker = get_kernel(kernel) if isinstance(kernel, str) else kernel
    plan = plan or SamplePlan()
    radii = plan.radii()
    worst: dict = {}

    canc = 0.0
    for axis in (ker.axis1, ker.axis2):
        for a in radii:
            for b in radii:
                if b <= a:
                    continue
                pos = axis.antiderivative(np.array(b)) - axis.antiderivative(np.array(a))
                neg = axis.antiderivative(np.array(-a)) - axis.antiderivative(np.array(-b))
                tot = abs(float(pos + neg))
                if tot > canc:
                    canc = tot
                    worst["cancellation"] = {"axis": axis.name, "a": float(a), "b": float(b)}

    xs = np.concatenate([radii, -radii])
    K = ker.value(xs[:, None], xs[None, :])
    size_ratio = np.abs(K) * np.abs(xs[:, None]) ** ker.axis1.degree * np.abs(
        xs[None, :]
    ) ** ker.axis2.degree
    size_max = float(size_ratio.max())
    idx = np.unravel_index(np.argmax(size_ratio), size_ratio.shape)
    worst["size"] = {"x": float(xs[idx[0]]), "y": float(xs[idx[1]])}

    def axis_smooth(axis: AxisKernel) -> float:
        best = 0.0
        for x in xs:
            for frac in plan.h_fractions:
                hh = frac * abs(x)  # guarantees |x| > 2|h|
                diff = abs(float(axis.value(np.array(x + hh)) - axis.value(np.array(x))))
                envelope = (hh / abs(x)) ** ker.eta / abs(x) ** axis.degree
                ratio = diff / envelope
                if ratio > best:
                    best = ratio
                    worst["smoothness"] = {"axis": axis.name, "x": float(x), "h": float(hh)}
        return best

    smooth_max = max(axis_smooth(ker.axis1), axis_smooth(ker.axis2))

    mixed = 0.0
    sub = xs[:: max(1, len(xs) // 12)]
    for x in sub:
        for y in sub:
            for frac in plan.h_fractions:
                hh, kk = frac * abs(x), frac * abs(y)
                dd = abs(
                    float(
                        (ker.value(x + hh, y + kk) - ker.value(x, y + kk))
                        - (ker.value(x + hh, y) - ker.value(x, y))
                    )
                )
                env = (
                    ((hh / abs(x)) * (kk / abs(y))) ** ker.eta
                    / (abs(x) ** ker.axis1.degree * abs(y) ** ker.axis2.degree)
                )
                mixed = max(mixed, dd / env)

    passed = canc <= cancellation_tol and all(
        math.isfinite(v) for v in (size_max, smooth_max, mixed)
    )
    return KernelConditionReport(
        kernel=ker.name,
        eta=ker.eta,
        cancellation_max=canc,
        size_ratio_max=size_max,
        smoothness_ratio_max=smooth_max,
        mixed_ratio_max=mixed,
        cancellation_tol=cancellation_tol,
        passed=passed,
        worst=worst,
    )
