"""Brute-force references: tests compare the fast implementations against
these slow, obviously-correct ones."""

from __future__ import annotations

import numpy as np

from robust_auctions.distributions import Distribution, _candidate_points
from robust_auctions.links import PiecewiseLinearFn


def naive_envelope(xs, ys) -> PiecewiseLinearFn:
    """Lower convex envelope by the literal argmin-slope walk, O(k^2).

    From the current vertex, hop to the later point with the smallest chord
    slope, taking the farthest such point on exact ties so that collinear
    runs collapse to their endpoints (the printed procedure leaves the
    tie-break open; this choice matches the tie-merging of the fast hull).
    """
    pts = PiecewiseLinearFn(xs, ys)     # checks the input
    xs, ys = pts.xs, pts.ys
    if xs.size < 2:
        raise ValueError("need at least two points")
    hull_x = [xs[0]]
    hull_y = [ys[0]]
    i = 0
    while i < xs.size - 1:
        slopes = (ys[i + 1:] - ys[i]) / (xs[i + 1:] - xs[i])
        best = slopes.min()
        j = i + 1 + int(np.nonzero(slopes == best)[0][-1])
        hull_x.append(xs[j])
        hull_y.append(ys[j])
        i = j
    return PiecewiseLinearFn(hull_x, hull_y)


def grid_reserve(dist, step: float):
    """(reserve, revenue) by exhaustive grid argmax of x * Pr[V >= x]."""
    if step <= 0:
        raise ValueError("step must be positive")
    hi = dist.support_top()
    if not np.isfinite(hi):
        hi = float(dist.ppf(1.0 - 1e-12))
    grid = np.arange(0.0, hi + step, step)
    revs = grid * (1.0 - np.asarray(dist.cdf_left(grid)))
    i = int(np.argmax(revs))
    return float(grid[i]), float(revs[i])


def dominates(d1: Distribution, d2: Distribution, slack: float = 1e-9) -> bool:
    """True when F1 <= F2 + slack at evaluation points (d1 first-order
    dominates d2)."""
    cand, _ = _candidate_points(d1, d2)
    f1r, f2r = np.asarray(d1.cdf(cand)), np.asarray(d2.cdf(cand))
    f1l, f2l = np.asarray(d1.cdf_left(cand)), np.asarray(d2.cdf_left(cand))
    return bool(np.all(f1r <= f2r + slack) and np.all(f1l <= f2l + slack))
