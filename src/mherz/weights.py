"""Strong Muckenhoupt weights: characteristics, weighted norms, generation.

The characteristic is computed in the scale-invariant average form

    sup_R  avg_R(w) * (avg_R(w**(-1/(p-1))))**(p-1)        for p > 1,
    sup_R  avg_R(w) / essmin_R(w)                          for p = 1,

over a rectangle family.  A raw, unnormalised variant (plain L^1 and
L^(p'/p) norms of w and 1/w over R, no |R| factors) is kept behind
``raw=True`` for comparison; it is not scale invariant and is never used by
the verification suites.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .grid import GridFunction, _box_sum, _prefix_table
from .norms import RectangleFamily, _family_rectangles
from .operators import (
    DYADIC_SIDES,
    MaximalVariant,
    RubioResult,
    as_variant,
    rubio_de_francia,
)

_TINY = np.finfo(float).tiny


@dataclass(frozen=True, eq=False)
class WeightFunction:
    """Strictly positive grid function with a cached reciprocal table."""

    fn: GridFunction
    reciprocal: np.ndarray
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
    recip = 1.0 / fn.values
    recip.flags.writeable = False
    return WeightFunction(fn, recip, provenance or {})


def weighted_lp_norm(f: GridFunction, w: WeightFunction, p: float) -> float:
    """(int |f|^p w)^(1/p); exact for piecewise-constant f and w."""
    if not (0 < p < math.inf):
        raise ValueError(f"p must be in (0, inf), got {p}")
    if f.spec != w.spec:
        raise ValueError("function and weight live on different grids")
    h2 = f.spec.h * f.spec.h
    return float((np.abs(f.values) ** p * w.values).sum() * h2) ** (1.0 / p)


def _forward_window_min(a: np.ndarray, w: int, axis: int) -> np.ndarray:
    """out[i] = min(a[i .. i+w-1]) along axis, +inf outside."""
    from scipy.ndimage import minimum_filter1d

    return minimum_filter1d(
        a, size=w, axis=axis, origin=-(w // 2), mode="constant", cval=np.inf
    )


def ap_star_characteristic(
    w: WeightFunction,
    p: float,
    family,
    raw: bool = False,
) -> float:
    """Characteristic of w over a rectangle family (see module docstring).

    ``family`` is a :class:`~mherz.norms.RectangleFamily` or an explicit list
    of rectangles.  Stride-1 dyadic-sides and exact-grid families take a
    vectorised all-positions path (prefix sums per size, sliding minima for
    p = 1); anything else is enumerated.
    """
    if p < 1:
        raise ValueError(f"p must be >= 1, got {p}")
    n = w.spec.n_cells
    h2 = w.spec.h * w.spec.h

    if p == 1.0:
        u = None
    else:
        u = w.reciprocal ** (1.0 / (p - 1.0))

    all_positions = (
        isinstance(family, RectangleFamily)
        and family.kind in ("dyadic-sides", "exact-grid")
        and family.stride == 1
    )
    if all_positions:
        Pw = _prefix_table(w.values)
        Pu = _prefix_table(u) if u is not None else None
        best = 0.0
        for wx in family._sides(n):
            for wy in family._sides(n):
                cells = float(wx * wy)
                corners = (np.s_[:-wx], np.s_[wx:], np.s_[:-wy], np.s_[wy:])
                avg_w = _box_sum(Pw, *corners) / cells
                if p == 1.0:
                    mins = _forward_window_min(
                        _forward_window_min(w.values, wx, 0), wy, 1
                    )[: n - wx + 1, : n - wy + 1]
                    if raw:
                        table = (avg_w * cells * h2) / mins
                    else:
                        table = avg_w / mins
                else:
                    avg_u = _box_sum(Pu, *corners) / cells
                    if raw:
                        table = (avg_w * cells * h2) * (
                            avg_u * cells * h2
                        ) ** (p - 1.0)
                    else:
                        table = avg_w * avg_u ** (p - 1.0)
                best = max(best, float(table.max()))
        return best

    best = 0.0
    for rect in _family_rectangles(w.spec, family):
        cells = rect.cells()
        sl = np.s_[rect.ix0 : rect.ix1, rect.iy0 : rect.iy1]
        avg_w = float(w.values[sl].sum()) / cells
        if p == 1.0:
            denom = float(w.values[sl].min())
            val = (avg_w * cells * h2) / denom if raw else avg_w / denom
        else:
            avg_u = float(u[sl].sum()) / cells
            if raw:
                val = (avg_w * cells * h2) * (avg_u * cells * h2) ** (p - 1.0)
            else:
                val = avg_w * avg_u ** (p - 1.0)
        best = max(best, val)
    return best


def generate_a1_weight(
    h: GridFunction,
    c: float,
    K: int,
    variant: MaximalVariant | str = DYADIC_SIDES,
    block_params=None,
) -> WeightFunction:
    """Weight from the truncated majorant series of |h|, floored at tiny.

    When ``block_params`` is given, h is first scaled by its certified block
    upper bracket so the generated weight corresponds to a unit-block-norm
    input; the bracket value is recorded in the provenance either way.
    """
    if not np.any(h.values):
        raise ValueError("degenerate weight: input function is identically zero")
    upper = None
    scaled = h
    if block_params is not None:
        from .norms import block_norm_bracket

        upper = block_norm_bracket(h, block_params).upper
        if upper > 0:
            scaled = h.with_values(h.values / upper)
    res: RubioResult = rubio_de_francia(scaled, c, K, variant)
    vals = np.maximum(res.values, _TINY)
    prov = {
        "c": float(c),
        "K": int(K),
        "tail_factor": res.tail_factor,
        "variant": as_variant(variant).kind,
        "h_block_upper": upper,
    }
    return make_weight(h.with_values(vals), prov)
