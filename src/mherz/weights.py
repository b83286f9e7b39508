"""Strong Muckenhoupt weights: characteristics, weighted norms, generation.

The characteristic is computed in the scale-invariant average form

    sup_R  avg_R(w) * (avg_R(w**(-1/(p-1))))**(p-1)        for p > 1,
    sup_R  avg_R(w) / essmin_R(w)                          for p = 1,

over a rectangle family.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .grid import _TINY, GridFunction, _box_sum, _pow, _power_exponent, _prefix_table
from .norms import RectangleFamily, _family_rectangles, block_norm_upper
from .operators import DYADIC_SIDES, rubio_de_francia


@dataclass(frozen=True, eq=False)
class WeightFunction:
    """Strictly positive grid function with its provenance."""

    fn: GridFunction
    provenance: dict = field(default_factory=dict)

    @property
    def values(self) -> np.ndarray:
        return self.fn.values

    @property
    def spec(self):
        return self.fn.spec


def make_weight(fn: GridFunction, provenance: dict | None = None) -> WeightFunction:
    if float(fn.values.min()) <= 0.0:
        raise ValueError("weight must be strictly positive on every cell")
    return WeightFunction(fn, provenance or {})


def weighted_lp_norm(f: GridFunction, w: WeightFunction, p: float) -> float:
    """(int |f|^p w)^(1/p); exact for piecewise-constant f and w.  The powers
    are taken on ``|f| * 2**-e``, ``e`` the :func:`grid._power_exponent` of
    ``max|f|``, and the root is scaled back by ``2**e``.  A sum that the
    weight carries past the float range, or below its normal range, is taken
    again on ``w`` scaled by an exact power of two into [0.5, 1), which keeps
    every term finite, and with its largest term factored out, as
    :func:`norms._lq_norm` does; the root undoes the weight's scale."""
    if not (0 < p < math.inf):
        raise ValueError(f"p must be in (0, inf), got {p}")
    if f.spec != w.spec:
        raise ValueError("function and weight live on different grids")
    h2 = f.spec.h * f.spec.h
    a = np.abs(f.values)
    e = _power_exponent(float(a.max()), p, a.size)
    if e:
        np.ldexp(a, -e, out=a)
    with np.errstate(over="ignore"):
        terms = a**p * w.values
        total = float(terms.sum() * h2)
    if _TINY <= total < math.inf:
        root = _pow(total, 1.0 / p)
    else:
        ew = math.frexp(float(w.values.max()))[1]
        terms = a**p * np.ldexp(w.values, -ew)
        top = float(terms.max())
        share = float((terms / top).sum() * h2) if top else 1.0
        total = top * share  # finite; below the normal range, two roots keep its bits
        root = _pow(total, 1 / p) if total >= _TINY else _pow(top, 1 / p) * _pow(share, 1 / p)
        k = math.floor(ew / p)  # 2**(ew / p) is 2**k, folded into e, times 2**(ew / p - k)
        root *= 2.0 ** (ew / p - k)
        e += k
    with np.errstate(over="ignore"):  # inf past the float range
        return float(np.ldexp(root, e))


def _forward_window_min(a: np.ndarray, w: int, axis: int) -> np.ndarray:
    """Minima of the ``n - w + 1`` full windows ``a[i .. i+w-1]`` along axis.

    Doubling: after the loop ``a[i]`` is the minimum over ``k`` entries from
    ``i``, ``k`` the largest power of two ``<= w``, and the windows of width
    ``k`` at ``i`` and ``i + w - k`` cover the width-``w`` one.  ``min`` is
    exact, so the order of the comparisons does not change the result.
    """
    a = np.moveaxis(a, axis, 0)
    k = 1
    while 2 * k <= w:
        a = np.minimum(a[:-k], a[k:])
        k *= 2
    return np.moveaxis(np.minimum(a[: len(a) - (w - k)], a[w - k :]), 0, axis)


def ap_star_characteristic(w: WeightFunction, p: float, family) -> float:
    """Characteristic of w over a rectangle family (see module docstring).

    ``family`` is a :class:`~mherz.norms.RectangleFamily` or an explicit list
    of rectangles.  Stride-1 dyadic-sides and exact-grid families take a
    vectorised all-positions path (prefix sums per size, sliding minima for
    p = 1); anything else is enumerated.  The characteristic does not change
    when w is scaled, so it is taken of w times the exact power of two that
    puts its minimum in [1, 2): then ``u = w**(-1/(p-1))`` is at most 1 and
    cannot overflow, however close p is to 1.
    """
    if p < 1:
        raise ValueError(f"p must be >= 1, got {p}")
    n = w.spec.n_cells
    wv = np.ldexp(w.values, 1 - int(np.frexp(w.values.min())[1]))
    u = None if p == 1.0 else wv ** (-1.0 / (p - 1.0))

    all_positions = (
        isinstance(family, RectangleFamily)
        and family.kind in ("dyadic-sides", "exact-grid")
        and family.stride == 1
    )
    if all_positions:
        Pw = _prefix_table(wv)
        Pu = _prefix_table(u) if u is not None else None
        best = 0.0
        for wx in family._sides(n):
            for wy in family._sides(n):
                cells = float(wx * wy)
                corners = (np.s_[:-wx], np.s_[wx:], np.s_[:-wy], np.s_[wy:])
                avg_w = _box_sum(Pw, *corners) / cells
                if p == 1.0:
                    mins = _forward_window_min(_forward_window_min(wv, wx, 0), wy, 1)
                    table = avg_w / mins
                else:
                    # a box of u far below the rounding of its prefix table
                    # can sum to just under 0; the power of that is NaN
                    avg_u = np.maximum(_box_sum(Pu, *corners), 0.0) / cells
                    table = avg_w * avg_u ** (p - 1.0)
                best = max(best, float(table.max()))
        return best

    best = 0.0
    for rect in _family_rectangles(w.spec, family):
        cells = rect.cells()
        sl = np.s_[rect.ix0 : rect.ix1, rect.iy0 : rect.iy1]
        avg_w = float(wv[sl].sum()) / cells
        if p == 1.0:
            val = avg_w / float(wv[sl].min())
        else:
            avg_u = float(u[sl].sum()) / cells
            val = avg_w * avg_u ** (p - 1.0)
        best = max(best, val)
    return best


def generate_a1_weight(
    h: GridFunction,
    c: float,
    K: int,
    variant: str = DYADIC_SIDES,
    block_params=None,
) -> WeightFunction:
    """Weight from the truncated majorant series of |h|, floored at tiny.

    When ``block_params`` is given, h is first scaled by its certified block
    upper bound so the generated weight corresponds to a unit-block-norm
    input; the upper bound is recorded in the provenance either way.
    """
    if not np.any(h.values):
        raise ValueError("degenerate weight: input function is identically zero")
    upper = None
    scaled = h
    if block_params is not None:
        upper = block_norm_upper(h, block_params)
        if upper > 0:
            scaled = GridFunction._adopt(h.spec, h.values / upper)
    majorant = rubio_de_francia(scaled, c, K, variant)
    vals = np.maximum(majorant.values, _TINY)
    prov = {
        "c": float(c),
        "K": int(K),
        "tail_factor": 2.0**-K,  # the geometric share left beyond the truncation
        "variant": variant,
        "h_block_upper": upper,
    }
    return make_weight(GridFunction._adopt(h.spec, vals), prov)
