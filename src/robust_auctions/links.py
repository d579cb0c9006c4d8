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

# convex_envelope's pruning passes: points per block of a pass, and the most
# passes before the stack loop takes whatever survived.  A pass drops at
# least one point per concave run, so inputs such as a convex chain ending
# in a low point lose only one point a pass and need the loop.
_BLOCK = 1 << 14
_MAX_PASSES = 64


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
        if not (np.all(np.isfinite(xs)) and np.all(np.isfinite(ys))):
            raise ValueError("vertices must be finite")
        if np.any(np.diff(xs) <= 0):
            raise ValueError("xs must be strictly increasing")
        self.xs = xs
        self.ys = ys

    def __call__(self, x):
        return np.interp(x, self.xs, self.ys)

    def __repr__(self):
        pts = ", ".join(f"({x:g}, {y:g})" for x, y in zip(self.xs, self.ys))
        return f"PiecewiseLinearFn[{pts}]"


def convex_envelope(xs, ys) -> PiecewiseLinearFn:
    """Lower convex envelope of the points (xs[i], ys[i]).

    Two steps.  First, pruning passes in numpy: each pass takes every
    interior point's cross product with its current neighbours, in the
    expression the stack loop uses, and drops the points that lie above
    their neighbours' chord by at least the 1e-12 tolerance, so clearly not
    vertices.  Passes repeat until one drops nothing or a fixed cap is
    reached.  Second, the monotone-chain stack loop (`_chain`) runs on the
    survivors and alone decides near-ties: cross products within 1e-12 of
    zero merge collinear runs, so the output slope sequence is strictly
    increasing.  The first and last input points are always vertices.

    Where the cross products are exact (integer points of modest size) the
    result is the loop's on the whole input; on near-collinear floats a
    near-tie can resolve differently.
    """
    pts = PiecewiseLinearFn(xs, ys)     # checks the input
    if pts.xs.size < 2:
        raise ValueError("need at least two points")
    # A pass reads the points (px, py) and compacts its survivors to the
    # front of (x, y); later passes work in place.  Pages of x and y that no
    # survivor reaches are never touched, so cost no memory.  The blocks
    # stay because both simpler designs measured worse (2-core Xeon, numpy
    # 2.4.6): whole-array passes raise the traced peak of a reproduce-cex1
    # op at m = 2e5 from 10.9 to 12.2 arrays of m floats, past the 11.5 of
    # test_reproduce_cex1_memory_peak; a blocked mask followed by x[keep]
    # keeps the memory down but took a median 76 ms against 59 ms on the
    # 948,558-point hull input of a learn-spike op, over 15 alternating runs.
    px, py = pts.xs, pts.ys
    n = px.size
    x, y = np.empty(n), np.empty(n)
    x[0], y[0] = px[0], py[0]
    # block-sized scratch, reused by every block of every pass, so a pass
    # over a long input allocates nothing of its length
    size = min(_BLOCK, n - 2)
    a, b, c = np.empty(size), np.empty(size), np.empty(size)
    below = np.empty(size, dtype=bool)
    for _ in range(_MAX_PASSES):
        w = 1           # x[:w] holds the survivors so far; x[0] always stays
        for s in range(1, n - 1, _BLOCK):
            e = min(s + _BLOCK, n - 1)
            k = e - s
            # cross of (i - 1, i, i + 1) for i in [s, e), as _chain takes it.
            # In place, the writes of earlier blocks end before px[s - 1]
            # unless they dropped nothing, so these reads see the pass's input.
            ab, bb, cb, keep = a[:k], b[:k], c[:k], below[:k]
            np.subtract(py[s:e], py[s - 1:e - 1], out=ab)
            np.subtract(px[s + 1:e + 1], px[s:e], out=bb)
            np.multiply(ab, bb, out=ab)
            np.subtract(py[s + 1:e + 1], py[s:e], out=bb)
            np.subtract(px[s:e], px[s - 1:e - 1], out=cb)
            np.multiply(bb, cb, out=bb)
            np.subtract(ab, bb, out=ab)
            np.less(ab, _HULL_TOL, out=keep)
            kept = int(np.count_nonzero(keep))
            if kept == k and w == s and px is x:    # in place, nothing to move
                w = e
                continue
            np.compress(keep, px[s:e], out=ab[:kept])
            np.compress(keep, py[s:e], out=bb[:kept])
            x[w:w + kept] = ab[:kept]
            y[w:w + kept] = bb[:kept]
            w += kept
        x[w], y[w] = px[n - 1], py[n - 1]
        px, py = x, y
        if w + 1 == n:
            break
        n = w + 1
    return PiecewiseLinearFn(*_chain(x[:n], y[:n]))


def _chain(xs, ys):
    """Monotone-chain lower hull (Andrew 1979) of points sorted by x, as
    (vertex xs, vertex ys) arrays.

    The middle point b of the last two hull points (a, b) is popped while
    (a, b, c) is not strictly convex for the next point c: slope(a, b) >=
    slope(b, c), i.e. cross >= 0, with a tolerance of 1e-12 merging ties.
    """
    hull_x: list[float] = []
    hull_y: list[float] = []
    for x, y in zip(xs.tolist(), ys.tolist()):
        while len(hull_x) >= 2:
            ax, ay = hull_x[-2], hull_y[-2]
            bx, by = hull_x[-1], hull_y[-1]
            cross = (by - ay) * (x - bx) - (y - by) * (bx - ax)
            if cross >= -_HULL_TOL:
                hull_x.pop()
                hull_y.pop()
            else:
                break
        hull_x.append(x)
        hull_y.append(y)
    return np.array(hull_x), np.array(hull_y)
