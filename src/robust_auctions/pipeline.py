"""End-to-end robust auction construction.

  * population_robust_myerson: corrupted distributions are known exactly;
    each bidder's CDF is replaced by the smallest member of its KS ball
    (pessimal but shape-constrained) and Myerson's auction is built on top.
  * robust_empirical_myerson: only samples are available; each bidder's
    empirical survival is shaved by a Bernstein-style confidence term, cut
    by the corruption budget and (envelope path) pushed through the link
    convexification to obtain a valid shape-constrained CDF.

The no-envelope ablation skips the budget cut and the convexification and
sells at the discrete revenue argmax of the shaved empirical CDF: the
classical empirical Myerson reserve, which the tail-spike corruption blows
up, kept runnable on purpose (single bidder only).  A posted price r is the
one-bidder Myerson auction on a one-knot link CDF closing at r, so the
ablation returns a plain Mechanism too.
"""

from __future__ import annotations

import numpy as np

from .ball import minimal_in_ks_ball
from .distributions import (PiecewiseLinkCDF, ProductDist, StepCDF,
                            empirical_from_samples)
from .links import check_alpha, link_origin
from .myerson import Mechanism
from .revenue import opt_single


def confidence_log(m: int, n: int, delta: float):
    """L = ln(2 m n / delta), checked finite: for a delta near the smallest
    float it overflows, and the shave would then cut every atom."""
    L = np.log(2.0 * m * n / delta)
    if not np.isfinite(L):
        raise ValueError(f"delta {delta!r} is too small: ln(2 m n / delta) "
                         "is not finite")
    return L


def _shave(E: StepCDF, m: int, L: float):
    """E's atoms, with a zero atom put first if E has none, and the
    confidence-shaved survival q - sqrt(2 q (1-q) L / m) - 4 L / m at each,
    where q(v) = Pr[V >= v] and L = `confidence_log`."""
    xs, q = E.table()[:2]
    if xs[0] > 0.0:
        xs, q = np.concatenate(([0.0], xs)), np.concatenate(([0.0], q))
    q = np.subtract(1.0, q, out=q)      # Pr[V >= v], atom v included
    shaved = np.sqrt(2.0 * q * (1.0 - q) * L / m)
    np.subtract(q, shaved, out=shaved)      # q less the root, in place
    shaved -= 4.0 * L / m
    return xs, shaved


def _cut(xs, shaved, alpha: float) -> StepCDF:
    """The budget cut: q_hat = max(shaved - alpha, 0) with q_hat(0) = 1,
    made non-increasing.  Atoms whose q_hat reaches 0 are truncated away;
    the last one left closes the support."""
    q_hat = np.subtract(shaved, alpha)
    np.maximum(q_hat, 0.0, out=q_hat)
    q_hat[0] = 1.0                      # xs[0] is the zero atom
    np.minimum.accumulate(q_hat, out=q_hat)
    q_hat[:-1] -= q_hat[1:]             # now the atom masses
    keep = q_hat > 0
    return StepCDF(xs[keep], q_hat[keep])


def shade_quantiles(E: StepCDF, m: int, L: float, alpha: float) -> StepCDF:
    """Shaded pessimistic version of an empirical CDF of m samples: the
    confidence shave of every atom's survival, then the budget cut.  Off
    the learner's path (`_learn` shaves once per bidder and cuts once per
    mechanism); perfbench's traced run names it as a span target."""
    return _cut(*_shave(E, m, L), alpha)


def population_robust_myerson(f_tilde: ProductDist, alpha, kind: str) -> Mechanism:
    """Myerson auction on the minimal KS-ball member of each reported CDF."""
    alphas = [check_alpha(a) for a in alpha]
    if len(alphas) != f_tilde.n:
        raise ValueError("need one alpha per bidder")
    bidders = [minimal_in_ks_ball(dist, a, kind)
               for dist, a in zip(f_tilde.components, alphas)]
    return Mechanism(kind=kind, bidders=bidders, alpha=alphas,
                     provenance={"algorithm": "population"})


def robust_empirical_myerson(samples, alpha, delta: float, kind: str,
                             with_envelope: bool = True):
    """Learn a mechanism from per-bidder sample lists.

    samples: sequence of n arrays, all of the same length m.
    """
    return _learn(samples, alpha, delta, kind, (bool(with_envelope),))[0]


def _learn(samples, alpha, delta: float, kind: str, envelopes) -> list:
    """One mechanism per with_envelope flag in `envelopes`, all learned from
    one empirical CDF and one confidence shave per bidder."""
    cols = [np.asarray(s, dtype=float) for s in samples]
    if not cols or any(c.size == 0 for c in cols):
        raise ValueError("empty samples")
    m = cols[0].size
    if any(c.size != m for c in cols):
        raise ValueError("inconsistent m across bidders")
    n, delta = len(cols), float(delta)
    if not 0.0 < delta < 1.0:
        raise ValueError("delta must lie in (0, 1)")
    L = confidence_log(m, n, delta)
    alphas = [check_alpha(a) for a in alpha]
    if len(alphas) != n:
        raise ValueError("need one alpha per bidder")
    if not (all(envelopes) or n == 1):
        raise ValueError("the no-envelope ablation is single-bidder only")
    bidders = [[] for _ in envelopes]
    for i, col in enumerate(cols):
        xs, shaved = _shave(empirical_from_samples(col), m, L)
        if not all(envelopes):
            # the ablation: the confidence shave alone, no budget cut
            price, _ = opt_single(_cut(xs, shaved, 0.0))
        if any(envelopes):
            shaded = _cut(xs, shaved, alphas[i])
        del xs, shaved      # freed before the ball's working arrays exist
        for env, out in zip(envelopes, bidders):
            out.append(minimal_in_ks_ball(shaded, 0.0, kind) if env else
                       PiecewiseLinkCDF(kind, [price], [link_origin(kind)],
                                        price))
    return [Mechanism(kind=kind, bidders=b, alpha=list(alphas),
                      provenance={"algorithm": "empirical", "m": m,
                                  "delta": delta, "with_envelope": env})
            for env, b in zip(envelopes, bidders)]
