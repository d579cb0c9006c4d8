"""Link-space transforms and the lower convex envelope.

A CDF F is mapped into "link space" where the shape constraint of interest
becomes convexity of the transformed curve x -> link(F(x)):

    mhr:      link(p) = -ln(1 - p)      convex  <=>  monotone hazard rate
    regular:  link(p) = 1 / (1 - p)     convex  <=>  non-decreasing virtual value

Both links are strictly increasing on [0, 1), so CDF dominance is preserved:
F1 <= F2 pointwise iff link(F1) <= link(F2) pointwise.  The lower convex
envelope of a set of link-space points is therefore the largest convex curve
below them, which is what pessimistic ("minimal in the ball") constructions
need.
"""

from __future__ import annotations

import numpy as np

KINDS = ("mhr", "regular")

# Absolute tolerance on cross products when merging near-collinear hull
# vertices.  Comparisons are done on cross products (no divisions), so this
# is a tolerance on slope *numerators*.
_HULL_TOL = 1e-12


def check_kind(kind: str) -> str:
    if kind not in KINDS:
        raise ValueError(f"kind must be one of {KINDS}, got {kind!r}")
    return kind


def check_alpha(alpha) -> float:
    """A corruption budget, as a float in [0, 1)."""
    alpha = float(alpha)
    if not 0.0 <= alpha < 1.0:
        raise ValueError("alpha must lie in [0, 1)")
    return alpha


def link_origin(kind: str) -> float:
    """Value of the link at p = 0 (the lowest attainable link value)."""
    return 0.0 if check_kind(kind) == "mhr" else 1.0


def link_forward(kind, p):
    """Apply the link to probabilities p in [0, 1).

    Accepts scalars or arrays; raises for p outside [0, 1) because the link
    diverges at p = 1.
    """
    check_kind(kind)
    arr = np.asarray(p, dtype=float)
    if np.any(arr < 0.0) or np.any(arr >= 1.0):
        raise ValueError("link diverges: p must lie in [0, 1)")
    if kind == "mhr":
        out = -np.log1p(-arr)
    else:
        out = 1.0 / (1.0 - arr)
    return float(out) if np.isscalar(p) else out


def link_inverse(kind, h):
    """Inverse of link_forward; maps link values back to probabilities."""
    check_kind(kind)
    arr = np.asarray(h, dtype=float)
    if kind == "mhr":
        if np.any(arr < -1e-12):
            raise ValueError("mhr link values must be >= 0")
        out = -np.expm1(-np.maximum(arr, 0.0))
    else:
        if np.any(arr < 1.0 - 1e-12):
            raise ValueError("regular link values must be >= 1")
        out = 1.0 - 1.0 / np.maximum(arr, 1.0)
    return float(out) if np.isscalar(h) else out


class PiecewiseLinearFn:
    """Continuous piecewise-linear function through vertices (xs, ys).

    Evaluation outside [xs[0], xs[-1]] clamps to the end values; callers that
    need extrapolation handle it themselves.
    """

    def __init__(self, xs, ys):
        xs = np.asarray(xs, dtype=float)
        ys = np.asarray(ys, dtype=float)
        if xs.ndim != 1 or xs.shape != ys.shape:
            raise ValueError("xs and ys must be 1-d arrays of equal length")
        if xs.size < 1:
            raise ValueError("need at least one vertex")
        if np.any(np.diff(xs) <= 0):
            raise ValueError("xs must be strictly increasing")
        self.xs = xs
        self.ys = ys

    def __call__(self, x):
        return np.interp(x, self.xs, self.ys)

    def slopes(self) -> np.ndarray:
        return np.diff(self.ys) / np.diff(self.xs)

    def vertices(self):
        return self.xs.copy(), self.ys.copy()

    def __repr__(self):
        pts = ", ".join(f"({x:g}, {y:g})" for x, y in zip(self.xs, self.ys))
        return f"PiecewiseLinearFn[{pts}]"


def convex_envelope(xs, ys) -> PiecewiseLinearFn:
    """Lower convex envelope of the points (xs[i], ys[i]).

    Monotone-chain lower hull.  Slope comparisons use cross products with an
    absolute tolerance of 1e-12, which merges collinear runs so the output
    slope sequence is strictly increasing.  The first and last input points
    are always vertices.
    """
    pts = PiecewiseLinearFn(xs, ys)     # checks the input
    if pts.xs.size < 2:
        raise ValueError("need at least two points")

    hull_x: list[float] = []
    hull_y: list[float] = []
    for x, y in zip(pts.xs, pts.ys):
        # pop the middle point b while (a, b, x) is not strictly convex:
        # slope(a,b) >= slope(b,c) <=> cross >= 0, with tolerance merging ties
        while len(hull_x) >= 2:
            ax, ay = hull_x[-2], hull_y[-2]
            bx, by = hull_x[-1], hull_y[-1]
            cross = (by - ay) * (x - bx) - (y - by) * (bx - ax)
            if cross >= -_HULL_TOL:
                hull_x.pop()
                hull_y.pop()
            else:
                break
        hull_x.append(float(x))
        hull_y.append(float(y))
    return PiecewiseLinearFn(np.array(hull_x), np.array(hull_y))
