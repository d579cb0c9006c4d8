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

# convex_envelope's pruning passes: points per block, the most passes before
# the stack loop takes whatever survived, and the factor by which the stencil
# width grows in a round (1, 16, 256, 4096: at most _BLOCK, so one held-back
# block covers every read back).  A wide pass drops a point only if its cross
# is at least _WIDE_TOL and its block's rounding bound: 4 _MARGIN max|y| times
# the x span of the block's triples, above Shewchuk's bound on any one triple.
# Its sign is then certain, and it is clear of the loop's tie band, inside
# which a drop can change the near-tie the loop keeps (at 1e-12, 381 of 2,340
# learners on samples scaled by 2^-45 .. 2^19 changed; at 1e-9 none).
_BLOCK = 1 << 14
_MAX_PASSES = 64
_WIDTH_STEP = 16
_WIDE_TOL = 1e-9
_MARGIN = 8.0 * np.finfo(float).eps


def check_kind(kind: str) -> str:
    if kind not in KINDS:
        raise ValueError(f"kind must be one of {KINDS}, got {kind!r}")
    return kind


def check_alpha(alpha, open_at_0: bool = False) -> float:
    """A corruption budget, as a float in [0, 1), or (0, 1) if open_at_0."""
    alpha = float(alpha)
    if not (0.0 < alpha if open_at_0 else 0.0 <= alpha) or not alpha < 1.0:
        raise ValueError("alpha must be in (0, 1)" if open_at_0
                         else "alpha must lie in [0, 1)")
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
    # min and max, not masks of the input's length; NaN fails too
    if arr.size and not (arr.min() >= 0.0 and arr.max() < 1.0):
        raise ValueError("link diverges: p must lie in [0, 1)")
    # -log1p(-p) or 1 / (1 - p), in place on one new array
    out = np.negative(arr, out=np.empty(arr.shape))
    if kind == "mhr":
        np.negative(np.log1p(out, out=out), out=out)
    else:
        np.divide(1.0, np.add(out, 1.0, out=out), out=out)
    return float(out) if np.isscalar(p) else out[()]    # 0-d: a scalar


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

    Two steps.  First, pruning passes in numpy (`_prune`): a pass at stencil
    width d takes the cross product of every point i with points i - d and
    i + d, in the expression the stack loop uses, and drops the points
    clearly above that chord: by the 1e-12 tolerance at d = 1, by 1e-9 and
    a rounding bound per block on wide passes.  Second, the
    monotone-chain stack loop (`_chain`) runs on the few survivors and
    alone decides near-ties: cross products within 1e-12 of zero merge
    collinear runs, so the output slope sequence is strictly increasing.
    The first and last input points are always vertices.

    Where the cross products are exact (integer points of modest size) the
    result is the loop's on the whole input; on near-collinear floats a
    near-tie can resolve differently.
    """
    pts = PiecewiseLinearFn(xs, ys)     # checks the input
    if pts.xs.size < 2:
        raise ValueError("need at least two points")
    return PiecewiseLinearFn(*_chain(*_prune(pts.xs, pts.ys)))


def _prune(px, py):
    """The points of (px, py) that the pruning passes keep, as (x, y).

    A round runs passes at stencil widths d = 1, 16, 256, ... while a
    point has both stencil ends and d <= _BLOCK, and ends after a wide
    pass that drops nothing; rounds repeat until one drops nothing or
    _MAX_PASSES passes have run.  The first pass compacts its survivors to
    the front of new arrays (x, y), later ones work in place; pages no
    survivor reaches are never touched.  Blocks, not whole-array passes:
    those raised the traced peak of a reproduce-cex1 op at m = 2e5 from
    10.9 to 12.2 arrays of m floats (2-core Xeon, numpy 2.4.6).
    """
    n = px.size
    x, y = np.empty(n), np.empty(n)
    # block-sized scratch, reused by every block of every pass, so a pass
    # over a long input allocates nothing of its length
    size = min(_BLOCK, n)
    scratch = [np.empty(size) for _ in range(5)] + [np.empty(size, dtype=bool)]
    passes, dropped = 0, True
    while dropped and passes < _MAX_PASSES:
        dropped, d, wide_dropped = False, 1, True
        while (wide_dropped and 2 * d < n and d <= _BLOCK
               and passes < _MAX_PASSES):
            kept = _pass(px, py, x, y, n, d, scratch)
            px, py = x, y
            dropped |= kept < n
            wide_dropped = d == 1 or kept < n
            n, d, passes = kept, _WIDTH_STEP * d, passes + 1
    return px[:n], py[:n]


@np.errstate(over="ignore", invalid="ignore")    # as in _chain
def _pass(px, py, x, y, n, d, scratch):
    """One pruning pass at stencil width d over (px[:n], py[:n]); compacts
    the survivors to the front of (x, y), which may be (px, py), and
    returns their count.  A point stays unless its cross is >= the
    tolerance: a cross whose products both overflow is NaN, and _chain
    keeps that point too."""
    a, b, c, hx, hy, keep = scratch
    if px is not x:
        x[:d], y[:d] = px[:d], py[:d]
    w = d       # x[:w] holds the survivors so far; x[:d] always stays
    held = 0    # survivors of the last block, in (hx, hy)
    for s in range(d, n - d, _BLOCK):
        e = min(s + _BLOCK, n - d)
        k = e - s
        # cross of (i - d, i, i + d) for i in [s, e), as _chain takes it.
        # In place, the survivors written so far end at or before the
        # previous block's start, which is at most px[s - d]: a block's
        # survivors are held back until the next block has read.
        xa, xb, xc = px[s - d:e - d], px[s:e], px[s + d:e + d]
        ya, yb, yc = py[s - d:e - d], py[s:e], py[s + d:e + d]
        ab, bb, cb, kb = a[:k], b[:k], c[:k], keep[:k]
        np.subtract(yb, ya, out=ab)
        np.subtract(xc, xb, out=bb)
        np.multiply(ab, bb, out=ab)
        np.subtract(yc, yb, out=bb)
        np.subtract(xb, xa, out=cb)
        np.multiply(bb, cb, out=bb)
        np.subtract(ab, bb, out=ab)
        tol = _HULL_TOL
        if d > 1:   # Python floats: an overflow is inf and keeps the block
            yw = py[s - d:e + d]
            tol = max(_WIDE_TOL, 4.0 * _MARGIN
                      * max(float(yw.max()), -float(yw.min()))
                      * (float(px[e - 1 + d]) - float(px[s - d])))
        np.logical_not(np.greater_equal(ab, tol, out=kb), out=kb)
        kept = int(np.count_nonzero(kb))
        if kept == k and w == s and px is x:    # in place, nothing to move
            w = e
            continue
        x[w:w + held], y[w:w + held] = hx[:held], hy[:held]
        w += held
        held = kept
        np.compress(kb, xb, out=hx[:kept])
        np.compress(kb, yb, out=hy[:kept])
    x[w:w + held], y[w:w + held] = hx[:held], hy[:held]
    w += held
    x[w:w + d], y[w:w + d] = px[n - d:n], py[n - d:n]
    return w + d


@np.errstate(over="ignore", invalid="ignore")    # as Python floats do
def _chain(xs, ys):
    """Monotone-chain lower hull (Andrew 1979) of points sorted by x, as
    (vertex xs, vertex ys) arrays.

    The middle point b of the last two hull points (a, b) is popped while
    (a, b, c) is not strictly convex for the next point c: slope(a, b) >=
    slope(b, c), i.e. cross >= 0, with a tolerance of 1e-12 merging ties.
    Nothing pops before the first consecutive triple with cross >= -1e-12,
    so that prefix is taken whole, and the collinear run from there is found
    in numpy too (`_ties`); a relative tie predicate changes it and the loop.
    """
    tie = _ties(xs, ys, slice(None, -2), slice(1, -1), slice(2, None))
    start = int(np.argmax(np.append(tie, True))) + 2    # past the prefix
    if start >= xs.size:    # every point is a vertex
        return xs.copy(), ys.copy()
    # while each next c ties with the anchor a and the last point b (and not
    # with a and the point before a), c pops b alone: the loop skips the run
    a, b, c = start - 2, slice(start - 1, -1), slice(start, None)
    run = _ties(xs, ys, a, b, c)
    if a:
        run &= ~_ties(xs, ys, a - 1, a, c)
    start += int(np.argmin(np.append(run, False)))
    first = np.append(np.arange(a + 1), start - 1)
    hull_x, hull_y = xs[first].tolist(), ys[first].tolist()
    for x, y in zip(xs[start:].tolist(), ys[start:].tolist()):
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


def _ties(xs, ys, a, b, c):
    """Whether c pops b after a (indices or slices), as the loop tests it."""
    return ((ys[b] - ys[a]) * (xs[c] - xs[b])
            - (ys[c] - ys[b]) * (xs[b] - xs[a]) >= -_HULL_TOL)
