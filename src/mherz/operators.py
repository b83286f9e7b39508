"""Operators on grid functions: strong maximal variants, Rubio de Francia
iteration, and separable singular convolution.

Strong maximal operator variants (all return the sup of |f|-averages over a
rectangle family containing each cell):

* ``exact-grid``: every grid-aligned rectangle.  O(N^4) via per-row-range 1-D
  reductions; refused beyond ``EXACT_GATE`` cells a side.
* ``dyadic-sides``: rectangles with power-of-two side lengths at every
  position, O(N^2 log^2 N) via prefix sums and the doubling recurrence of
  trailing-window maxima (each side pair costs one box-sum table and one
  shifted elementwise max).
  Pointwise it is dominated by exact-grid, and dominates it up to the factor
  4 (any rectangle sits inside a dyadic-sided one of at most 4x the area at
  an admissible anchor).
* ``iterated-1d``: the 1-D maximal operator applied in y then in x; dominates
  exact-grid pointwise.  O(N^3) time and O(N^2) memory:
  :func:`interval_average_profile` sweeps the interval lengths from N down to
  1 over all lines at once, in two alternating N x N slabs.
  ``exact-grid`` runs the same 1-D sweep on its row-range sums.

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

from .errors import CostGuardError, KernelError
from .grid import (
    GridFunction,
    GridSpec,
    _box_sum,
    _prefix_table,
    _sum_exponent,
    build_function,
    restrict_to_window,
)
from .norms import block_norm_bracket

# -- maximal variants ----------------------------------------------------------


EXACT_GATE = 64  # largest N for the O(N^4) exact-grid sweep


@dataclass(frozen=True)
class MaximalVariant:
    kind: str

    def __post_init__(self) -> None:
        if self.kind not in ("exact-grid", "dyadic-sides", "iterated-1d"):
            raise ValueError(f"unknown maximal variant {self.kind!r}")


EXACT_GRID = MaximalVariant("exact-grid")
DYADIC_SIDES = MaximalVariant("dyadic-sides")
ITERATED_1D = MaximalVariant("iterated-1d")

_VARIANTS = {v.kind: v for v in (EXACT_GRID, DYADIC_SIDES, ITERATED_1D)}


def as_variant(variant: MaximalVariant | str, n_cells: int = 0) -> MaximalVariant:
    """``variant`` as a MaximalVariant; exact-grid on more than ``EXACT_GATE``
    cells a side raises CostGuardError."""
    if not isinstance(variant, MaximalVariant):
        try:
            variant = _VARIANTS[variant]
        except (KeyError, TypeError):
            raise ValueError(f"unknown maximal variant {variant!r}") from None
    if variant.kind == "exact-grid" and n_cells > EXACT_GATE:
        raise CostGuardError(f"exact-grid maximal on N={n_cells} exceeds gate {EXACT_GATE}")
    return variant


def interval_average_profile(v: np.ndarray) -> np.ndarray:
    """Per position, the max over subintervals containing it of the mean.

    Operates on the last axis; leading axes are batch.  One sweep over
    interval lengths ``L = n, n-1, ..., 1``: ``Q_L[i]``, the largest mean over
    intervals containing ``[i, i+L-1]``, is the max of that interval's own
    mean and ``Q_{L+1}[i-1]``, ``Q_{L+1}[i]`` (the two one-longer intervals
    around it, where they exist), and the profile is ``Q_1``.  O(n^2) work
    per line, two ``n``-row slabs of ``Q`` per line.  The profiled axis is
    moved to the front, so every step is elementwise over contiguous batches
    of lines.  Every mean is the float expression ``(P[j+1] - P[i]) /
    (j+1-i)`` on the prefix sums ``P``, and ``max`` is exact, so the result
    does not depend on the sweep order.
    """
    v = np.moveaxis(np.asarray(v, dtype=float), -1, 0)
    n = v.shape[0]
    P = np.zeros((n + 1,) + v.shape[1:])
    np.cumsum(v, axis=0, out=P[1:])
    # two reused slabs: a fresh array per length costs more peak RSS at large n
    slabs = (np.empty(v.shape), np.empty(v.shape))
    q = P[:0]  # Q_{n+1}: no interval is longer than the line
    for L in range(n, 0, -1):
        m = slabs[L % 2][: n - L + 1]
        np.subtract(P[L:], P[:-L], out=m)  # [i] = P[i+L] - P[i]
        m /= float(L)
        np.maximum(m[1:], q, out=m[1:])
        np.maximum(m[:-1], q, out=m[:-1])
        q = m
    return np.moveaxis(q, 0, -1)


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
    """Max over sides ``(wx, wy)`` of the trailing ``wx x wy`` window max of
    the box-average table ``T_{wx,wy}`` (indexed by low corner).

    Windows are powers of two, so the trailing max of width ``2w`` is the
    width-``w`` one of ``max(X, X shifted by w)``.  Walking the sides from
    largest to smallest in Horner order, every side pair then costs one
    shifted ``np.maximum`` and one fold of ``T``; ``max`` is exact, so the
    result does not depend on this order.
    """
    n = absv.shape[0]
    P = _prefix_table(absv)
    sides = [1 << a for a in reversed(range(n.bit_length()))]
    out = np.full((n, n), -np.inf)
    for wx in sides:
        np.maximum(out[wx:], out[:-wx], out=out[wx:])
        R = np.full((n - wx + 1, n), -np.inf)  # anchored at low x corner
        for wy in sides:
            np.maximum(R[:, wy:], R[:, :-wy], out=R[:, wy:])
            T = _box_sum(P, np.s_[:-wx], np.s_[wx:], np.s_[:-wy], np.s_[wy:]) / float(wx * wy)
            np.maximum(R[:, : n - wy + 1], T, out=R[:, : n - wy + 1])
        np.maximum(out[: n - wx + 1], R, out=out[: n - wx + 1])
    return out


def _maximal_kernel(var: MaximalVariant, absv: np.ndarray) -> np.ndarray:
    if var.kind == "exact-grid":
        return _maximal_exact(absv)
    if var.kind == "dyadic-sides":
        return _maximal_dyadic(absv)
    return interval_average_profile(interval_average_profile(absv).T).T


def strong_maximal(f: GridFunction, variant: MaximalVariant | str = DYADIC_SIDES) -> GridFunction:
    """Discrete strong maximal function of f for the chosen rectangle family."""
    n = f.spec.n_cells
    var = as_variant(variant, n)
    absv = np.abs(f.values)
    e = _sum_exponent(float(absv.max()), n * n)
    if not e:
        out = _maximal_kernel(var, absv)
    else:
        # the kernels' prefix sums would overflow (and inf - inf is NaN):
        # run them on |f| scaled by the exact power of two 2**-e
        out = np.ldexp(_maximal_kernel(var, np.ldexp(absv, -e)), e)
    # the single-cell rectangle is in every family; evaluating it directly
    # makes M f >= |f| exact instead of up to prefix-sum cancellation noise
    np.maximum(out, absv, out=out)
    return f.with_values(out)


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


def rubio_from_iterates(
    h: GridFunction, iterates: Sequence[np.ndarray], c: float, K: int
) -> GridFunction:
    """The truncated majorant ``sum_{k<=K} M^k|h| / (2c)^k`` from
    :func:`maximal_iterates` of order at least K."""
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
    return h.with_values(acc)


def rubio_de_francia(
    h: GridFunction,
    c: float,
    K: int,
    variant: MaximalVariant | str = DYADIC_SIDES,
) -> GridFunction:
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
) -> float:
    """Power-iteration style estimate of the maximal operator's block norm.

    Ratio of certified block upper brackets before/after two applications of
    the maximal operator on three probes: the indicators of Q(l) x Q(l) with
    l = max(0, 1 - s), the first level from 0 up whose cube is cell-aligned,
    and of the mid-window square, and seeded noise (outputs are window-masked
    before the bracket, matching the truncation convention).  This is an
    estimate for choosing c, not a certified operator norm.
    """
    mid = (spec.window_low + spec.window_high) // 2
    low = max(0, 1 - spec.s)
    probes = [
        build_function(spec, builtin="indicator", l1=low, l2=low),
        build_function(spec, builtin="indicator", l1=mid, l2=mid),
        build_function(spec, builtin="noise", seed=7),
    ]
    best = 0.0
    for g in probes:
        cur = restrict_to_window(g)
        prev = block_norm_bracket(cur, block_params).upper
        if prev == 0.0:
            continue
        for _ in range(2):
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


def cz_apply(f: GridFunction, kernel: SeparableKernel = DOUBLE_HILBERT) -> GridFunction:
    """Convolution with a separable singular kernel, exact at cell centers."""
    W1 = _axis_weights(f.spec, kernel.axis1)
    W2 = _axis_weights(f.spec, kernel.axis2)
    return f.with_values(W1 @ f.values @ W2.T)


def commutator(
    b: GridFunction, f: GridFunction, kernel: SeparableKernel = DOUBLE_HILBERT
) -> GridFunction:
    """b * T(f) - T(b * f) for the separable singular operator T."""
    tf = cz_apply(f, kernel)
    tbf = cz_apply(f.with_values(b.values * f.values), kernel)
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
    kernel: SeparableKernel,
    plan: SamplePlan | None = None,
    cancellation_tol: float = 1e-8,
) -> KernelConditionReport:
    """Numerically audit the size, cancellation, and smoothness conditions.

    Cancellation integrals use the exact antiderivatives over annuli (so for
    odd kernels they vanish to rounding); the size and smoothness bounds are
    evaluated as ratios against their model envelopes over log-spaced
    samples, and the max ratio is reported as the empirical constant.
    """
    plan = plan or SamplePlan()
    radii = plan.radii()
    worst: dict = {}

    canc = 0.0
    for axis in (kernel.axis1, kernel.axis2):
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
    K = kernel.value(xs[:, None], xs[None, :])
    size_ratio = np.abs(K) * np.abs(xs[:, None]) ** kernel.axis1.degree * np.abs(
        xs[None, :]
    ) ** kernel.axis2.degree
    size_max = float(size_ratio.max())
    idx = np.unravel_index(np.argmax(size_ratio), size_ratio.shape)
    worst["size"] = {"x": float(xs[idx[0]]), "y": float(xs[idx[1]])}

    def axis_smooth(axis: AxisKernel) -> float:
        best = 0.0
        for x in xs:
            for frac in plan.h_fractions:
                hh = frac * abs(x)  # guarantees |x| > 2|h|
                diff = abs(float(axis.value(np.array(x + hh)) - axis.value(np.array(x))))
                envelope = (hh / abs(x)) ** kernel.eta / abs(x) ** axis.degree
                ratio = diff / envelope
                if ratio > best:
                    best = ratio
                    worst["smoothness"] = {"axis": axis.name, "x": float(x), "h": float(hh)}
        return best

    smooth_max = max(axis_smooth(kernel.axis1), axis_smooth(kernel.axis2))

    mixed = 0.0
    sub = xs[:: max(1, len(xs) // 12)]
    for x in sub:
        for y in sub:
            for frac in plan.h_fractions:
                hh, kk = frac * abs(x), frac * abs(y)
                dd = abs(
                    float(
                        (kernel.value(x + hh, y + kk) - kernel.value(x, y + kk))
                        - (kernel.value(x + hh, y) - kernel.value(x, y))
                    )
                )
                env = (
                    ((hh / abs(x)) * (kk / abs(y))) ** kernel.eta
                    / (abs(x) ** kernel.axis1.degree * abs(y) ** kernel.axis2.degree)
                )
                mixed = max(mixed, dd / env)

    passed = canc <= cancellation_tol and all(
        math.isfinite(v) for v in (size_max, smooth_max, mixed)
    )
    return KernelConditionReport(
        kernel=kernel.name,
        eta=kernel.eta,
        cancellation_max=canc,
        size_ratio_max=size_max,
        smoothness_ratio_max=smooth_max,
        mixed_ratio_max=mixed,
        cancellation_tol=cancellation_tol,
        passed=passed,
        worst=worst,
    )
