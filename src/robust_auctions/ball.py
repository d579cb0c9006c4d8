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

Anchor selection depends on the input.  Purely atomic inputs keep their own
atom table (`atom_cdf`): one anchor per atom, with G shifted inline, and one
at x = 0 with the input's own mass there (this is the convention the
empirical shading pipeline needs: the budget is accounted for in the
quantiles, never at zero); between atoms G is flat, so nothing is lost.
Everything else, link CDFs included, reads G off the cap `UpShift(F~, alpha)`
(the shift:up adversary's output; F~ itself at alpha = 0): anchors at its
quantile-uniform grid joined with its breakpoints and x = 0, which keeps
plateaus and support tops exact, valued by its CDF.  Anchoring a link CDF at
its own knots alone would be wrong for alpha > 0: when ppf(1 - alpha) falls
between knots, the rising stretch past the last kept knot needs anchors or
its mass would wrongly fold into the closing atom.  (A same-kind input with
alpha = 0 never reaches the anchor step; it is returned as is.)
"""

from __future__ import annotations

import numpy as np

from . import links
from .distributions import Distribution, PiecewiseLinkCDF, UpShift

DEFAULT_GRID = 2048


def minimal_in_ks_ball(dist: Distribution, alpha: float, kind: str,
                       grid: int = DEFAULT_GRID) -> PiecewiseLinkCDF:
    """Largest `kind`-shaped CDF dominated by every shaped member of the
    alpha-ball around `dist`."""
    links.check_kind(kind)
    alpha = links.check_alpha(alpha)

    if alpha == 0.0 and isinstance(dist, PiecewiseLinkCDF):
        if dist.kind == kind:
            return dist    # already the envelope of itself

    new_top = float(dist.ppf(1.0 - alpha))
    if not np.isfinite(new_top):
        # unbounded input with alpha = 0: close at the last grid quantile and
        # let the remaining sliver of mass ride on the top atom
        new_top = float(dist.ppf(grid / (grid + 1.0)))
    if dist.purely_atomic and not isinstance(dist, PiecewiseLinkCDF):
        xs, g = dist.atom_cdf()[::2]        # the atoms and F at them
        g = np.minimum(np.add(g, alpha, out=g), 1.0, out=g)
        if xs[0] > 0.0:
            xs, g = np.concatenate(([0.0], xs)), np.concatenate(([0.0], g))
        # the x = 0 anchor keeps the input's own mass at zero, uncapped
        g[0] = float(dist.cdf(0.0))
    else:
        cap = UpShift(dist, alpha) if alpha > 0.0 else dist
        pts = cap.breakpoints()
        qs = np.arange(1, grid + 1) / (grid + 1.0)
        xs = np.unique(np.concatenate((cap.ppf(qs), pts[np.isfinite(pts)],
                                       [0.0])))
        g = cap.cdf(xs)
    # anchors at or past the top, or at G = 1, belong to the closing atom,
    # not the envelope
    keep = (xs < new_top) & (g < 1.0)
    xs, hs = xs[keep], links.link_forward(kind, g[keep])
    if xs.size == 0:
        # everything at or above new_top: the ball collapses to a point mass
        xs, hs = [new_top], [links.link_origin(kind)]
    elif xs.size > 1:
        env = links.convex_envelope(xs, hs)
        xs, hs = env.xs, env.ys
    return PiecewiseLinkCDF(kind, xs, hs, new_top)
