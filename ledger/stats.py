"""Order statistics the ledger reports: percentile, geomean, Spearman."""

from __future__ import annotations

import math
from typing import List, Sequence


def percentile(values: Sequence[float], p: float) -> float:
    """The ``p``-quantile (``0 <= p <= 1``), linearly interpolated
    between the two nearest order statistics."""
    if not values:
        raise ValueError("percentile of an empty sample")
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"percentile rank {p!r} is outside [0, 1]")
    ordered = sorted(values)
    position = (len(ordered) - 1) * p
    lower = math.floor(position)
    upper = math.ceil(position)
    weight = position - lower
    return ordered[lower] * (1.0 - weight) + ordered[upper] * weight


def median(values: Sequence[float]) -> float:
    return percentile(values, 0.5)


def geomean(values: Sequence[float]) -> float:
    """Geometric mean: a 2x on a 1.5 ms cell weighs as much as a 2x on
    a 38 ms one. Defined for positive values only."""
    if not values:
        raise ValueError("geomean of an empty sample")
    if any(value <= 0 for value in values):
        raise ValueError("geomean needs strictly positive values")
    return math.exp(sum(math.log(value) for value in values) / len(values))


def ranks(values: Sequence[float]) -> List[float]:
    """1-based ranks; ties share the mean of the ranks they span."""
    order = sorted(range(len(values)), key=values.__getitem__)
    out = [0.0] * len(values)
    i = 0
    while i < len(order):
        j = i
        while j + 1 < len(order) and values[order[j + 1]] == values[order[i]]:
            j += 1
        shared = (i + j) / 2.0 + 1.0
        for k in range(i, j + 1):
            out[order[k]] = shared
        i = j + 1
    return out


def spearman(xs: Sequence[float], ys: Sequence[float]) -> float:
    """Spearman rank correlation (Pearson over tie-averaged ranks);
    0.0 when either side is constant."""
    if len(xs) != len(ys):
        raise ValueError("spearman needs two samples of equal length")
    if len(xs) < 2:
        raise ValueError("spearman needs at least two pairs")
    rx, ry = ranks(xs), ranks(ys)
    mean_x = sum(rx) / len(rx)
    mean_y = sum(ry) / len(ry)
    cov = sum((a - mean_x) * (b - mean_y) for a, b in zip(rx, ry))
    var_x = sum((a - mean_x) ** 2 for a in rx)
    var_y = sum((b - mean_y) ** 2 for b in ry)
    if var_x == 0 or var_y == 0:
        return 0.0
    return cov / math.sqrt(var_x * var_y)
