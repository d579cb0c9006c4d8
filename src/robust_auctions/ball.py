"""Most pessimistic shape-constrained distribution within a KS ball.

"Shaped" here means the kind's link curve h(F) is convex on all of [0, top]:
mass at zero and a closing top atom are fine, but an atom at an interior
bottom knot is not (its jump breaks convexity at the jump point, and no
single CDF can sit above every such member at once).  Every construction in
this package emits curves anchored at x = 0, hence inside the class.

Given a reported CDF F~ and budget alpha, the pointwise-largest shaped CDF
that every shaped member of the alpha-ball dominates is the one whose link
curve is the lower convex envelope of link(min(F~ + alpha, 1)).
Working with the capped function G = min(F~ + alpha, 1):

  * the first x with G(x) = 1, namely F~.ppf(1 - alpha), becomes the new
    support top and takes the closing atom;
  * anchor points below the top are linked and enveloped;
  * envelope vertices become the knots of the output PiecewiseLinkCDF.

G is built in one place for every input, from F~'s own table
(`Distribution.table`) shifted by alpha, with one anchor rule: x = 0 at
G(0) = min(F~(0) + alpha, 1), then the table at the quantiles
G^{-1}(q) = F~^{-1}(q - alpha), q > G(0), of a uniform grid, joined with the
breakpoints, which keep plateaus and support tops exact.  A purely atomic
input tabulates its atoms instead; G is flat between them, so nothing is
lost.  (The empirical learner balls its shaded steps at alpha = 0, where
G(0) is the input's own mass at zero.)  Anchoring a link CDF at its own
knots alone would be wrong for alpha > 0: when ppf(1 - alpha) falls between
knots, the rising stretch past the last kept knot needs anchors or its mass
would wrongly fold into the closing atom.  (A same-kind input with
alpha = 0 never reaches the anchor step; it is returned as is.)
"""

from __future__ import annotations

import numpy as np

from . import links
from .distributions import Distribution, PiecewiseLinkCDF

DEFAULT_GRID = 2048


def minimal_in_ks_ball(dist: Distribution, alpha: float, kind: str,
                       grid: int = DEFAULT_GRID) -> PiecewiseLinkCDF:
    """Largest `kind`-shaped CDF dominated by every shaped member of the
    alpha-ball around `dist`."""
    links.check_kind(kind)
    alpha = links.check_alpha(alpha)

    if alpha == 0.0 and isinstance(dist, PiecewiseLinkCDF) and dist.kind == kind:
        return dist    # already the envelope of itself

    new_top = float(dist.ppf(1.0 - alpha))
    if not np.isfinite(new_top):
        # unbounded input with alpha = 0: close at the last grid quantile and
        # let the remaining sliver of mass ride on the top atom
        new_top = float(dist.ppf(grid / (grid + 1.0)))
    g0 = min(float(dist.cdf(0.0)) + alpha, 1.0)
    qs = np.arange(1, grid + 1) / (grid + 1.0)
    xs, g = dist.table(qs[qs > g0] - alpha)[::2]     # the anchors and F there
    g = np.minimum(np.add(g, alpha, out=g), 1.0, out=g)
    if xs[0] > 0.0:
        xs, g = np.concatenate(([0.0], xs)), np.concatenate(([g0], g))
    # anchors at or past the top, or at G = 1, belong to the closing atom,
    # not the envelope.  xs increases: those past the top are a slice off.
    j = int(np.searchsorted(xs, new_top))
    xs, g = xs[:j], g[:j]
    if not g.max(initial=0.0) < 1.0:
        keep = g < 1.0
        xs, g = xs[keep], g[keep]
    hs = links.link_forward(kind, g)
    del g       # F off the table is not needed past here: free it first
    if xs.size == 0:
        # everything at or above new_top: the ball collapses to a point mass
        xs, hs = [new_top], [links.link_origin(kind)]
    elif xs.size > 1:
        env = links.convex_envelope(xs, hs)
        xs, hs = env.xs, env.ys
        with np.errstate(over="ignore", divide="ignore"):
            steep = np.isinf(np.diff(hs) / np.diff(xs))
            if steep[-1]:
                # a rise over a subnormal width overflows the slope; convex,
                # the steep pieces end the curve.  From the first, one piece
                # up to the last h at the first x with a finite slope lies
                # below them all, so F <= G still, off on a subnormal sliver.
                i = int(np.argmax(steep))
                x0, dh = xs[i], hs[-1] - hs[i]
                x = x0 + dh / np.finfo(float).max
                while np.isinf(dh / (x - x0)):
                    x = np.nextafter(x, np.inf)
                xs, hs = np.append(xs[:i + 1], x), np.append(hs[:i + 1], hs[-1])
                new_top = max(new_top, float(x))
    else:
        xs = xs.copy()      # not a view that holds the whole table alive
    return PiecewiseLinkCDF(kind, xs, hs, new_top)
