"""Revenue evaluation: posted prices, Monte Carlo auction revenue, ratios.

Everything here is deterministic given its (inputs, seed) pair.  Monte Carlo
draws come from counter-based substreams (see _rng), so estimates do not
depend on how work is chunked or distributed across workers.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .ball import minimal_in_ks_ball
from .distributions import Distribution, PiecewiseLinkCDF, ProductDist
from .myerson import Mechanism, best_price, optimal_reserve

_CHUNK = 1 << 20
_OPT_GRID = 200_000
_TRUTH_GRID = 8192


def revenue_at_reserve(dist: Distribution, price) -> float:
    """Expected revenue of a posted price: price * Pr[V >= price]."""
    price = float(price)
    if price < 0:
        raise ValueError("price must be nonnegative")
    return price * (1.0 - float(dist.cdf_left(price)))


def opt_single(dist: Distribution):
    """(reserve, revenue) of the best posted price for one bidder.

    PiecewiseLinkCDF inputs use the closed form.  Purely atomic inputs scan
    their atoms.  Everything else is a quantile-uniform grid search refined
    locally to 1e-6.
    """
    if isinstance(dist, PiecewiseLinkCDF):
        return optimal_reserve(dist)
    if dist.purely_atomic:
        return best_price(dist, dist.atoms()[0])
    qs = np.linspace(0.0, 1.0, _OPT_GRID, endpoint=False)
    cand = np.unique(np.concatenate([np.asarray(dist.ppf(qs), dtype=float),
                                     dist.breakpoints()]))
    cand = cand[np.isfinite(cand) & (cand >= 0)]
    revs = cand * (1.0 - np.asarray(dist.cdf_left(cand)))
    i = int(np.argmax(revs))
    lo = cand[i - 1] if i > 0 else cand[i]
    hi = cand[i + 1] if i + 1 < cand.size else cand[i]
    best_x, best_r = float(cand[i]), float(revs[i])
    while hi - lo > 1e-6:
        grid = np.linspace(lo, hi, 33)
        r = grid * (1.0 - np.asarray(dist.cdf_left(grid)))
        j = int(np.argmax(r))
        if r[j] > best_r:
            best_x, best_r = float(grid[j]), float(r[j])
        lo = grid[max(j - 1, 0)]
        hi = grid[min(j + 1, grid.size - 1)]
    return best_x, best_r


@dataclass(frozen=True)
class RevenueEstimate:
    mean: float
    half_width_95: float
    n_draws: int
    seed: int


def rev_monte_carlo(mech: Mechanism, d_true: ProductDist, n_draws: int,
                    seed: int) -> RevenueEstimate:
    """Average truthful-auction payment over n_draws sampled profiles."""
    if d_true.n != mech.n:
        raise ValueError("arity mismatch")
    n_draws = int(n_draws)
    if n_draws < 1:
        raise ValueError("n_draws must be at least 1")
    total = 0.0
    total_sq = 0.0
    done = 0
    while done < n_draws:
        take = min(_CHUNK, n_draws - done)
        profiles = d_true.sample_profiles(take, seed, first_profile=done)
        _, pay = mech.payments_batch(profiles)
        total += float(np.sum(pay))
        total_sq += float(np.sum(pay * pay))
        done += take
    mean = total / n_draws
    var = max(total_sq / n_draws - mean * mean, 0.0)
    hw = 1.96 * np.sqrt(var / n_draws)
    return RevenueEstimate(mean=mean, half_width_95=float(hw),
                           n_draws=n_draws, seed=int(seed))


def truth_mechanism(d_true: ProductDist, kind: str) -> Mechanism:
    """Myerson mechanism for the true distributions, each represented on a
    fine zero-radius ball discretization (exact for piecewise-link inputs)."""
    bidders = [minimal_in_ks_ball(d, 0.0, kind, grid=_TRUTH_GRID)
               for d in d_true.components]
    return Mechanism(kind=kind, bidders=bidders,
                     provenance={"role": "benchmark", "grid": _TRUTH_GRID})


def revenue_ratio_detail(mech: Mechanism, d_true: ProductDist, n_draws: int,
                         seed: int):
    """(ratio, ci, opt, rev).  OPT is exact for n=1, Monte Carlo (common
    random numbers) against the true-distribution Myerson mechanism for n>1.
    The ci is the propagated 95% half width in ratio units."""
    if d_true.n != mech.n:
        raise ValueError("arity mismatch")
    if mech.n == 1:
        _, opt = opt_single(d_true.components[0])
        if opt <= 0:
            raise ValueError("zero OPT")
        rev = revenue_at_reserve(d_true.components[0], mech.reserves[0])
        return rev / opt, 0.0, opt, rev
    bench = truth_mechanism(d_true, mech.kind)
    est_opt = rev_monte_carlo(bench, d_true, n_draws, seed)
    est_rev = rev_monte_carlo(mech, d_true, n_draws, seed)
    opt, rev = est_opt.mean, est_rev.mean
    if opt <= 0:
        raise ValueError("zero OPT")
    ratio = rev / opt
    rel = np.hypot(est_rev.half_width_95 / max(rev, 1e-300),
                   est_opt.half_width_95 / opt)
    ci = ratio * float(rel) if rev > 0 else est_rev.half_width_95 / opt
    return ratio, ci, opt, rev


def revenue_ratio(mech: Mechanism, d_true: ProductDist, n_draws: int,
                  seed: int):
    """Rev(M, D)/OPT(D) with a 95% half width; see revenue_ratio_detail."""
    ratio, ci, _, _ = revenue_ratio_detail(mech, d_true, n_draws, seed)
    return ratio, ci
