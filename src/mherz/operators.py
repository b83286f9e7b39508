"""Operators on grid functions: strong maximal variants, Rubio de Francia
iteration, and the double Hilbert transform.

Strong maximal operator variants, named by plain strings (all return the
sup of |f|-averages over a rectangle family containing each cell):

* ``exact-grid``: every grid-aligned rectangle.  O(N^4) via per-row-range 1-D
  reductions; refused beyond ``EXACT_GATE`` cells a side.
* ``dyadic-sides``: rectangles with power-of-two side lengths at every
  position, O(N^2 log^2 N): prefix sums, then in each direction the fold of
  :func:`_interval_sweep` on dyadic sides, over column blocks of
  ``DYADIC_BLOCK`` that fit in cache, in the memory of the prefix table,
  the output and three block buffers (see :func:`_maximal_dyadic`).
  Pointwise it is dominated by exact-grid, and dominates it up to the factor
  4 (any rectangle sits inside a dyadic-sided one of at most 4x the area at
  an admissible anchor).
* ``iterated-1d``: the 1-D maximal operator applied in y then in x; dominates
  exact-grid pointwise.  O(N^2) time per distinct line (O(N^3) at most) and
  O(N^2) memory: :func:`interval_average_profile` sweeps the interval
  lengths from N down to 1 over all distinct lines at once (grouped by
  ``np.unique`` on their bytes), in two alternating slabs, and gathers the
  profiles back to every line.
  ``exact-grid`` runs the same 1-D sweep on its row-range sums, on every
  line: its batches are too small for the search for repeats to pay.

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
from typing import Callable

import numpy as np

from .errors import CostGuardError
from .grid import (
    GridFunction,
    GridSpec,
    _aligned_empty,
    _integer,
    _power_exponent,
    _prefix_table,
    _read_only,
    _real,
    build_function,
    restrict_to_window,
)
from .norms import block_norm_upper

# -- maximal variants ----------------------------------------------------------


EXACT_GATE = 64  # largest N for the O(N^4) exact-grid sweep
DYADIC_BLOCK = 128  # columns per block of the dyadic-sides kernel

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


def _distinct_lines(lines: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(first, inverse)`` for the rows of a 2-D float table: one row of
    each group of rows with the same bits, in byte order, and for every row
    the position in ``first`` of its group.

    ``np.unique`` groups the rows as raw bytes, so ``0.0`` and ``-0.0``
    stay apart.  Each row's profile depends on its own bits alone, so the
    order of ``first`` does not matter.
    """
    rows = np.ascontiguousarray(lines)
    keys = rows.view(np.dtype((np.void, rows.itemsize * rows.shape[1]))).ravel()
    _, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
    return first, inverse.ravel()


def _interval_sweep(P: np.ndarray, lengths=None, slabs=None) -> np.ndarray:
    """The fold of :func:`interval_average_profile` on the ``k`` lines whose
    prefix sums are the columns of the ``(n + 1, k)`` table ``P``, over the
    descending interval ``lengths`` (default ``n, n-1, ..., 1``).

    The means of length ``L`` (``n - L + 1`` rows) take the max with the
    previous length's result ``q`` at rows ``[: len(q)]`` and ``[prev - L :]``;
    the result for the last length is returned, a view of one of ``slabs``,
    two flat buffers of at least ``n * k`` doubles that the lengths use in
    turn (allocated here if not given, each starting on a 64-byte line by
    :func:`grid._aligned_empty`: the means are written out of place into the
    slab, and that write ran at half speed into a buffer 16 bytes past a
    line).  A power-of-two ``L`` scales by the exact ``1 / L``, which rounds
    as the division does but costs less.
    """
    n, k = P.shape[0] - 1, P.shape[1]
    if slabs is None:
        # two reused slabs: a fresh array per length costs more peak RSS at large n
        slabs = (_aligned_empty(n * k), _aligned_empty(n * k))
    this, other = slabs
    q, prev = P[:0], n + 1  # Q_{n+1}: no interval is longer than the line
    for L in range(n, 0, -1) if lengths is None else lengths:
        m = this[: (n - L + 1) * k].reshape(n - L + 1, k)
        np.subtract(P[L:], P[:-L], out=m)  # [i] = P[i+L] - P[i]
        if L & (L - 1):
            m /= float(L)
        else:
            m *= 1.0 / L
        np.maximum(m[: len(q)], q, out=m[: len(q)])
        np.maximum(m[prev - L :], q, out=m[prev - L :])
        q, prev, this, other = m, L, other, this
    return q


def interval_average_profile(v: np.ndarray) -> np.ndarray:
    """Per position, the max over subintervals containing it of the mean.

    Operates on the last axis; leading axes are batch.  One sweep over
    interval lengths ``L = n, n-1, ..., 1``: ``Q_L[i]``, the largest mean over
    intervals containing ``[i, i+L-1]``, is the max of that interval's own
    mean and ``Q_{L+1}[i-1]``, ``Q_{L+1}[i]`` (the two one-longer intervals
    around it, where they exist), and the profile is ``Q_1``.  O(n^2) work
    per distinct line, two ``n``-row slabs of ``Q`` per distinct line.  The
    profiled axis is moved to the front, so every step is elementwise over
    contiguous batches of lines.  Every mean is the float expression
    ``(P[j+1] - P[i]) / (j+1-i)`` on the prefix sums ``P``, and ``max`` is
    exact, so the result does not depend on the sweep order.

    Nor does a line's profile depend on the other lines of its batch, so
    lines with equal bits have profiles with equal bits: the sweep runs on
    the distinct lines only (:func:`_distinct_lines`) and their profiles are
    gathered back, in the input's shape and in the layout the sweep over
    all lines would give.  The product-structured test objects (indicators
    of rectangles, annuli, constants cut to the window) repeat most lines.
    """
    v = np.asarray(v, dtype=float)
    n = v.shape[-1]
    lines = v.reshape(math.prod(v.shape[:-1]), n)
    first, inverse = _distinct_lines(lines)
    P = np.zeros((n + 1, first.size))
    np.cumsum(lines[first].T, axis=0, out=P[1:])
    q = _interval_sweep(P)
    del P
    # np.take, unlike q[:, inverse], returns a C-ordered (n, lines) table
    return np.moveaxis(np.take(q, inverse, axis=1).reshape((n,) + v.shape[:-1]), 0, -1)


def _maximal_exact(absv: np.ndarray) -> np.ndarray:
    """Per lower y edge ``iy0``, the 1-D sweep along x of the row-range sums
    to every upper edge.  Every line is swept, repeats included: a batch
    holds at most ``EXACT_GATE`` lines, and searching them for repeats made
    this kernel 14-34 % slower on noise at N = 16 to 64."""
    n = absv.shape[0]
    Py = np.zeros((n, n + 1))
    np.cumsum(absv, axis=1, out=Py[:, 1:])
    out = np.zeros((n, n))
    heights = np.arange(1, n + 1, dtype=float)
    for iy0 in range(n):
        # x prefix sums of the sums over rows iy0 .. iy1-1, for iy1 = iy0+1 .. n
        P = np.zeros((n + 1, n - iy0))
        np.cumsum(Py[:, iy0 + 1 :] - Py[:, iy0 : iy0 + 1], axis=0, out=P[1:])
        m = _interval_sweep(P).T / heights[: n - iy0, None]
        # cell (x, y>=iy0) is covered by every range end iy1 > y
        cover = np.flip(np.maximum.accumulate(np.flip(m, 0), 0), 0)
        np.maximum(out[:, iy0:], cover.T, out=out[:, iy0:])
    return out


def _maximal_dyadic(absv: np.ndarray) -> np.ndarray:
    """Per cell, the max of the box averages over every rectangle with
    power-of-two sides that contains it.

    This is :func:`_interval_sweep`'s fold on dyadic sides, in each
    direction.  Let ``R_w[i]`` be the largest average over the windows of
    side at least ``w`` that contain ``[i, i + w)`` at an offset that is a
    multiple of ``w``.  Such a window is that window itself, or it contains,
    at an offset that is a multiple of ``2w``, one of the two twice-as-long
    windows ``[i, i + 2w)`` and ``[i - w, i + w)``.  So ``R_w`` is the max
    of the side-``w`` averages (``N - w + 1`` rows, indexed by low corner)
    with ``R_{2w}`` (``N - 2w + 1`` rows) at rows ``[: N - 2w + 1]`` and at
    rows ``[w:]``.  The sides run from the widest down; at ``w = 1`` every
    offset is a multiple, so ``R_1`` is the answer.

    ``wy`` is the outer loop.  The box sum is reassociated: per ``wy`` the
    column differences ``D = (P[:, wy:] - P[:, :-wy]) * (1 / wy)`` of the
    prefix table are taken once, and the x fold is ``_interval_sweep(D,
    sides, slabs)``, whose averages are ``(D[wx:] - D[:-wx]) * (1 / wx)``,
    both scalings exact powers of two.  The x fold never crosses columns, so
    the ``ny = N - wy + 1`` columns are walked in blocks of
    ``DYADIC_BLOCK``: ``D`` (``(N+1) x b``) and the sweep's two ``slabs`` are
    C-ordered views of three small flat buffers allocated once per call, so
    the whole ``wx`` loop runs on them in cache.  Each buffer starts on a
    64-byte line (:func:`grid._aligned_empty`), since ``D`` and the means
    are written out of place, and that write ran at half speed into a
    buffer 16 bytes past a line, where a large numpy array starts.

    The y fold runs per block too.  A block's ``R_1`` takes the max with the
    previous height's output at its own columns ``c`` and at ``c - wy``,
    then overwrites its columns of ``out``.  The blocks of each height run
    right to left, so every column a block reads still holds the previous
    height's value; ``out`` needs no initial value and no staged copy.
    Each box average is one fixed float expression of the prefix table and
    ``max`` is exact, so the result does not depend on the block size or
    the loop order; it differs from ``_box_sum(...) / (wx * wy)`` by
    rounding only (a few 1e-14 relative on dense tables).

    ``absv`` is dropped once the prefix table is built, so a caller that
    keeps no reference to it frees it: the kernel then holds the prefix
    table, the output and the three block buffers, about ``2 N^2 + 3 N b``
    doubles (2.8 N^2 at N=512, 3.8 N^2 at N=256).
    """
    n = absv.shape[0]
    P = _prefix_table(absv)
    del absv
    sides = [1 << a for a in reversed(range(n.bit_length()))]
    out = np.empty((n, n))
    b = min(DYADIC_BLOCK, n)
    slabs, d_buf = (_aligned_empty(n * b), _aligned_empty(n * b)), _aligned_empty((n + 1) * b)
    prev = out[:, :0]  # no height is taller than the grid
    for wy in sides:
        ny = n - wy + 1
        for c0 in reversed(range(0, ny, b)):
            c1 = min(c0 + b, ny)
            k = c1 - c0
            D = d_buf[: (n + 1) * k].reshape(n + 1, k)
            np.subtract(P[:, wy + c0 : wy + c1], P[:, c0:c1], out=D)
            D *= 1.0 / wy
            R = _interval_sweep(D, sides, slabs)
            at, below = prev[:, c0:c1], prev[:, max(c0 - wy, 0) : max(c1 - wy, 0)]
            np.maximum(R[:, : at.shape[1]], at, out=R[:, : at.shape[1]])
            np.maximum(R[:, k - below.shape[1] :], below, out=R[:, k - below.shape[1] :])
            out[:, c0:c1] = R
        prev = out[:, :ny]
    return out


def _maximal_iterated(absv: np.ndarray) -> np.ndarray:
    return interval_average_profile(interval_average_profile(absv).T).T


_MAXIMAL_KERNELS = {
    EXACT_GRID: _maximal_exact,
    DYADIC_SIDES: _maximal_dyadic,
    ITERATED_1D: _maximal_iterated,
}


def _maximal_table(spec: GridSpec, source: Callable[[], np.ndarray], variant: str) -> np.ndarray:
    """The values of the strong maximal function, for the chosen rectangle
    family, of the function on ``spec`` whose ``|f|`` table ``source()``
    gives fresh at each of its two calls: the kernel's input, then the
    single-cell rectangle."""
    n = spec.n_cells
    kernel = _MAXIMAL_KERNELS[as_variant(variant, n)]
    # the kernels' prefix sums would overflow (and inf - inf is NaN) unless
    # |f| is scaled, in place, by the exact power of two 2**-e.  The table
    # leaves the list unnamed, so the dyadic kernel can free it
    fresh = [source()]
    e = _power_exponent(float(fresh[0].max()), 1.0, n * n)
    if e:
        np.ldexp(fresh[0], -e, out=fresh[0])
    out = kernel(fresh.pop())
    if e:
        np.ldexp(out, e, out=out)
    # the single-cell rectangle is in every family; evaluating it directly
    # makes M f >= |f| exact instead of up to prefix-sum cancellation noise
    np.maximum(out, source(), out=out)
    return out


def strong_maximal(f: GridFunction, variant: str = DYADIC_SIDES) -> GridFunction:
    """Discrete strong maximal function of f for the chosen rectangle family."""
    return GridFunction._adopt(f.spec, _maximal_table(f.spec, lambda: np.abs(f.values), variant))


# -- Rubio de Francia iteration --------------------------------------------------


def rubio_de_francia(
    h: GridFunction,
    c: float,
    K: int,
    variant: str = DYADIC_SIDES,
) -> GridFunction:
    """The truncated majorant ``sum_{k<=K} M^k|h| / (2c)^k``.

    The construction is applied to |h| so the k=0 term already dominates the
    input pointwise; c stands in for the operator norm of the maximal
    operator on the block space and may be estimated with
    :func:`estimate_block_norm_constant`.  One loop holds the current
    iterate and the running sum.
    """
    c, K = _real("c", c, lambda v: v > 0, "positive"), _integer("K", K, least=1)
    cur = GridFunction._adopt(h.spec, np.abs(h.values))
    # accumulate upward from the k=0 term so the pointwise lower bound
    # |h| <= sum is exact in floating point (adding nonnegative terms
    # never decreases the running sum)
    acc = cur.values.copy()
    for k in range(1, K + 1):
        cur = strong_maximal(cur, variant)
        acc += cur.values / (2.0 * c) ** k
    return GridFunction._adopt(h.spec, acc)


def estimate_block_norm_constant(
    spec: GridSpec,
    block_params,
    variant: str = DYADIC_SIDES,
) -> float:
    """Power-iteration style estimate of the maximal operator's block norm.

    Ratio of certified block upper bounds before/after two applications of
    the maximal operator on two or three probes: the indicators of Q(l) x
    Q(l) with l = max(0, 1 - s), the first level from 0 up whose cube is
    cell-aligned, and of the mid-window square (one probe when the two
    levels coincide: ``best`` is a max, so a repeat cannot change it), and
    seeded noise (outputs are window-masked before the bound, matching the
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
        prev = block_norm_upper(cur, block_params)
        if prev == 0.0:
            continue
        for _ in range(2):
            cur = restrict_to_window(strong_maximal(cur, variant))
            now = block_norm_upper(cur, block_params)
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
    return _read_only(A[:, :-1] - A[:, 1:])


def cz_apply(f: GridFunction) -> GridFunction:
    """The double Hilbert transform of f, exact at cell centers."""
    W = _axis_weights(f.spec)
    return GridFunction._adopt(f.spec, W @ f.values @ W.T)


def commutator(b: GridFunction, f: GridFunction) -> GridFunction:
    """b * T(f) - T(b * f) for the double Hilbert transform T."""
    tf = cz_apply(f)
    tbf = cz_apply(GridFunction._adopt(f.spec, b.values * f.values))
    return GridFunction._adopt(f.spec, b.values * tf.values - tbf.values)
