"""End-to-end robust auction construction.

Two entry points:

  * population_robust_myerson: corrupted distributions are known exactly;
    each bidder's CDF is replaced by the smallest member of its KS ball
    (pessimal but shape-constrained) and Myerson's auction is built on top.

  * robust_empirical_myerson: only samples are available; per-bidder
    empirical quantiles are shaded down by a Bernstein-style confidence term
    plus the corruption budget, then (envelope path) pushed through the link
    convexification to obtain a valid shape-constrained CDF.

The no-envelope ablation keeps the confidence shading but skips both the
corruption term and the convexification, selling at the discrete revenue
argmax of the shaded empirical CDF.  That is the classical empirical Myerson
reserve, and it is exactly the construction the tail-spike corruption blows
up, so it is kept runnable on purpose (single bidder only).  A posted price r
is the one-bidder Myerson auction on a one-knot link CDF closing at r, so the
ablation returns a plain Mechanism too.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .ball import minimal_in_ks_ball
from .distributions import (PiecewiseLinkCDF, ProductDist, StepCDF,
                            empirical_from_samples)
from .links import check_alpha, link_origin
from .myerson import Mechanism
from .revenue import opt_single


@dataclass(frozen=True)
class ShadingParams:
    m: int
    n: int
    delta: float
    alpha: tuple

    def __post_init__(self):
        if int(self.m) < 1:
            raise ValueError("m must be at least 1")
        if not 0.0 < self.delta < 1.0:
            raise ValueError("delta must lie in (0, 1)")
        object.__setattr__(self, "m", int(self.m))
        object.__setattr__(self, "n", int(self.n))
        object.__setattr__(self, "alpha", tuple(map(check_alpha, self.alpha)))
        if len(self.alpha) != self.n:
            raise ValueError("need one alpha per bidder")


def _survival_at_atoms(E: StepCDF) -> np.ndarray:
    """Pr[V >= v] at each atom v of E, atom included: bit for bit
    E.survival_quantile(E.values), read off the running mass sums (clipped
    at 1 as cdf_left clips them) instead of searching every atom for
    itself."""
    q = np.empty(E.masses.size)
    q[0] = 0.0
    np.cumsum(E.masses[:-1], out=q[1:])
    np.minimum(q, 1.0, out=q)
    return np.subtract(1.0, q, out=q)


def shade_quantiles(E: StepCDF, params: ShadingParams, bidder_index: int) -> StepCDF:
    """Shaded pessimistic version of an empirical CDF.

    Every atom's survival is shaded to q_hat(v) = max{0, q(v) -
    sqrt(2 q (1-q) L / m) - 4 L / m - alpha_i} with L = ln(2 m n / delta),
    and q_hat(0) = 1.  Atoms whose shaded survival reaches 0 are truncated
    away; the last atom with positive shaded survival closes the support.
    """
    m = params.m
    xs = E.values
    q = _survival_at_atoms(E)
    L = np.log(2.0 * m * params.n / params.delta)
    shaved = q - np.sqrt(2.0 * q * (1.0 - q) * L / m) - 4.0 * L / m
    q_hat = np.maximum(shaved - params.alpha[bidder_index], 0.0)
    q_hat[xs == 0.0] = 1.0
    q_hat = np.minimum.accumulate(q_hat)
    if xs[0] > 0.0:
        xs = np.concatenate(([0.0], xs))
        q_hat = np.concatenate(([1.0], q_hat))
    masses = np.append(-np.diff(q_hat), q_hat[-1])
    keep = masses > 0
    if not np.any(keep):
        return StepCDF([0.0], [1.0])
    return StepCDF(xs[keep], masses[keep])


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
    cols = [np.asarray(s, dtype=float) for s in samples]
    if not cols or any(c.size == 0 for c in cols):
        raise ValueError("empty samples")
    m = cols[0].size
    if any(c.size != m for c in cols):
        raise ValueError("inconsistent m across bidders")
    n = len(cols)
    params = ShadingParams(m=m, n=n, delta=float(delta), alpha=tuple(alpha))
    prov = {"algorithm": "empirical", "m": m, "delta": float(delta),
            "with_envelope": bool(with_envelope)}
    if not (with_envelope or n == 1):
        raise ValueError("the no-envelope ablation is single-bidder only")
    # the ablation shades by the confidence term only, not the budget
    shading = params if with_envelope else replace(params, alpha=(0.0,))
    bidders = []
    for i, col in enumerate(cols):
        shaded = shade_quantiles(empirical_from_samples(col), shading, i)
        if with_envelope:
            bidders.append(minimal_in_ks_ball(shaded, 0.0, kind))
        else:
            price, _ = opt_single(shaded)
            bidders.append(PiecewiseLinkCDF(kind, [price], [link_origin(kind)],
                                            price))
    return Mechanism(kind=kind, bidders=bidders, alpha=list(params.alpha),
                     provenance=prov)
