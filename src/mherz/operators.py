"""Operators on grid functions: strong maximal variants, Rubio de Francia
iteration, and the double Hilbert transform.

Strong maximal operator variants, named by plain strings (all return the
sup of |f|-averages over a rectangle family containing each cell):

* ``exact-grid``: every grid-aligned rectangle.  O(N^4) via per-row-range 1-D
  reductions; refused beyond ``EXACT_GATE`` cells a side.
* ``dyadic-sides``: rectangles with power-of-two side lengths at every
  position, O(N^2 log^2 N) via prefix sums and the doubling recurrence of
  trailing-window maxima.  Side heights ``wy`` are the outer loop and widths
  ``wx`` the inner one, so each side pair costs one in-place box-average
  table and one shifted elementwise max, both on contiguous row blocks of
  two N x N buffers allocated once per call; exact power-of-two scaling and
  exact ``max`` keep every bit independent of that loop order.
  Pointwise it is dominated by exact-grid, and dominates it up to the factor
  4 (any rectangle sits inside a dyadic-sided one of at most 4x the area at
  an admissible anchor).
* ``iterated-1d``: the 1-D maximal operator applied in y then in x; dominates
  exact-grid pointwise.  O(N^3) time and O(N^2) memory:
  :func:`interval_average_profile` sweeps the interval lengths from N down to
  1 over all lines at once, in two alternating N x N slabs.
  ``exact-grid`` runs the same 1-D sweep on its row-range sums.

The double Hilbert transform, with kernel 1/(pi x) * 1/(pi y), evaluates at
cell centers with the exact per-cell antiderivative A(u) = log|u| / pi of
each axis factor, which makes the principal value exact algebra for
piecewise-constant inputs: the weight of a source cell [a, b) at target x is
A(x - a) - A(x - b), finite even on the singular cell because centers never
sit on cell edges.  Both axes share one weight table W, and separability
turns the O(N^4) sum into two dense N x N matrix products, W f W^T.  W
depends on the grid alone, so it is built once per grid, cached and
read-only.
"""

from __future__ import annotations

import functools
import math
from typing import Sequence

import numpy as np

from .errors import CostGuardError, KernelError
from .grid import (
    GridFunction,
    GridSpec,
    _prefix_table,
    _read_only,
    _sum_exponent,
    build_function,
    restrict_to_window,
)
from .norms import block_norm_bracket

# -- maximal variants ----------------------------------------------------------


EXACT_GATE = 64  # largest N for the O(N^4) exact-grid sweep

EXACT_GRID = "exact-grid"
DYADIC_SIDES = "dyadic-sides"
ITERATED_1D = "iterated-1d"


def as_variant(variant: str, n_cells: int = 0) -> str:
    """``variant`` if it names a maximal variant; exact-grid on more than
    ``EXACT_GATE`` cells a side raises CostGuardError."""
    if not (isinstance(variant, str) and variant in (EXACT_GRID, DYADIC_SIDES, ITERATED_1D)):
        raise ValueError(f"unknown maximal variant {variant!r}")
    if variant == EXACT_GRID and n_cells > EXACT_GATE:
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
    shifted ``np.maximum`` and one fold of ``T``.

    ``wy`` is the outer loop and ``wx`` the inner one, so the inner steps
    shift and fold whole rows: ``R`` (the running max for one ``wy``,
    anchored at the low y corner) and ``T`` are C-ordered views of two flat
    N**2 buffers allocated once per call, and ``R[wx:]``, ``R[:-wx]`` and
    ``T`` are contiguous.  ``T`` is the ``grid._box_sum`` expression
    ``((hi[wx:] - hi[:-wx]) - lo[wx:]) + lo[:-wx]`` evaluated in place, times
    the exact power of two ``1 / (wx * wy)``, so every box average has the
    same bits as ``_box_sum(...) / (wx * wy)``; ``max`` is exact, so the
    result does not depend on the loop order either.
    """
    n = absv.shape[0]
    P = _prefix_table(absv)
    sides = [1 << a for a in reversed(range(n.bit_length()))]
    out = np.full((n, n), -np.inf)
    r_buf, t_buf = np.empty(n * n), np.empty(n * n)
    for wy in sides:
        ny = n - wy + 1
        np.maximum(out[:, wy:], out[:, :-wy], out=out[:, wy:])
        hi, lo = P[:, wy:], P[:, :-wy]
        R = r_buf[: n * ny].reshape(n, ny)
        R.fill(-np.inf)
        for wx in sides:
            nx = n - wx + 1
            np.maximum(R[wx:], R[:-wx], out=R[wx:])
            T = t_buf[: nx * ny].reshape(nx, ny)
            np.subtract(hi[wx:], hi[:-wx], out=T)
            T -= lo[wx:]
            T += lo[:-wx]
            T *= 1.0 / (wx * wy)
            np.maximum(R[:nx], T, out=R[:nx])
        np.maximum(out[:, :ny], R, out=out[:, :ny])
    return out


def _maximal_kernel(var: str, absv: np.ndarray) -> np.ndarray:
    if var == EXACT_GRID:
        return _maximal_exact(absv)
    if var == DYADIC_SIDES:
        return _maximal_dyadic(absv)
    return interval_average_profile(interval_average_profile(absv).T).T


def strong_maximal(f: GridFunction, variant: str = DYADIC_SIDES) -> GridFunction:
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
    h: GridFunction, K: int, variant: str = DYADIC_SIDES
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
    variant: str = DYADIC_SIDES,
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
    variant: str = DYADIC_SIDES,
) -> float:
    """Power-iteration style estimate of the maximal operator's block norm.

    Ratio of certified block upper brackets before/after two applications of
    the maximal operator on two or three probes: the indicators of Q(l) x
    Q(l) with l = max(0, 1 - s), the first level from 0 up whose cube is
    cell-aligned, and of the mid-window square (one probe when the two
    levels coincide: ``best`` is a max, so a repeat cannot change it), and
    seeded noise (outputs are window-masked before the bracket, matching the
    truncation convention).  This is an estimate for choosing c, not a
    certified operator norm.
    """
    mid = (spec.window_low + spec.window_high) // 2
    low = max(0, 1 - spec.s)
    probes = [
        build_function(spec, builtin="indicator", l1=l, l2=l) for l in dict.fromkeys((low, mid))
    ]
    probes.append(build_function(spec, builtin="noise", seed=7))
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


# -- double Hilbert transform -----------------------------------------------------

DOUBLE_HILBERT = "double-hilbert"  # the kernel 1/(pi x) * 1/(pi y)


@functools.lru_cache(maxsize=4)
def _axis_weights(spec: GridSpec) -> np.ndarray:
    """W[target, source] = integral of 1/(pi (x - t)) over the source cell.

    With the antiderivative ``log|u| / pi``, principal-value exact: over the
    cell holding the target center the two evaluations are at equal
    distances h/2, so the weight vanishes, exactly as the symmetric limit does.
    Cached and read-only: a suite applies the transform dozens of times on
    the same one or two grids.
    """
    centers = spec.cell_centers()
    edges = spec.cell_edges()
    A = np.log(np.abs(centers[:, None] - edges[None, :])) / math.pi
    if not np.isfinite(A).all():
        raise KernelError("the Hilbert kernel produced non-finite antiderivative values")
    return _read_only(A[:, :-1] - A[:, 1:])


def cz_apply(f: GridFunction) -> GridFunction:
    """The double Hilbert transform of f, exact at cell centers."""
    W = _axis_weights(f.spec)
    return f.with_values(W @ f.values @ W.T)


def commutator(b: GridFunction, f: GridFunction) -> GridFunction:
    """b * T(f) - T(b * f) for the double Hilbert transform T."""
    tf = cz_apply(f)
    tbf = cz_apply(f.with_values(b.values * f.values))
    return f.with_values(b.values * tf.values - tbf.values)
