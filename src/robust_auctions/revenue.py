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


def _payment_moments(mechs, d_true: ProductDist, n_draws: int, seed: int):
    """The one Monte Carlo pass: each chunk is sampled once and run through
    every mechanism.  Returns the mean payments and their covariance, from
    chunk co-moments merged by Chan, Golub and LeVeque's pairwise update."""
    if any(d_true.n != mech.n for mech in mechs):
        raise ValueError("arity mismatch")
    n_draws = int(n_draws)
    if n_draws < 1:
        raise ValueError("n_draws must be at least 1")
    totals = [0.0] * len(mechs)
    mean = np.zeros(len(mechs))
    co = np.zeros((len(mechs), len(mechs)))
    done = 0
    while done < n_draws:
        take = min(_CHUNK, n_draws - done)
        profiles = d_true.sample_profiles(take, seed, first_profile=done)
        pays = [mech.payments_batch(profiles)[1] for mech in mechs]
        sums = [float(np.sum(pay)) for pay in pays]
        totals = [t + s for t, s in zip(totals, sums)]
        chunk_mean = np.array(sums) / take
        devs = [pay - m for pay, m in zip(pays, chunk_mean)]
        # single-threaded reductions: a BLAS dot would wake worker threads
        chunk_co = np.array([[np.sum(a * b) for b in devs] for a in devs])
        delta = chunk_mean - mean
        co += chunk_co + np.multiply.outer(delta, delta) * (done * take
                                                            / (done + take))
        mean += delta * (take / (done + take))
        done += take
    return [t / n_draws for t in totals], co / n_draws / n_draws


def rev_monte_carlo(mech: Mechanism, d_true: ProductDist, n_draws: int,
                    seed: int) -> RevenueEstimate:
    """Average truthful-auction payment over n_draws sampled profiles."""
    (mean,), cov = _payment_moments([mech], d_true, n_draws, seed)
    return RevenueEstimate(mean=mean,
                           half_width_95=1.96 * float(np.sqrt(cov[0, 0])),
                           n_draws=int(n_draws), seed=int(seed))


def truth_mechanism(d_true: ProductDist, kind: str) -> Mechanism:
    """Myerson mechanism for the true distributions, each represented on a
    fine zero-radius ball discretization (exact for piecewise-link inputs)."""
    bidders = [minimal_in_ks_ball(d, 0.0, kind, grid=_TRUTH_GRID)
               for d in d_true.components]
    return Mechanism(kind=kind, bidders=bidders,
                     provenance={"role": "benchmark", "grid": _TRUTH_GRID})


def revenue_ratio_detail(mech: Mechanism, d_true: ProductDist, n_draws: int,
                         seed: int, bench: Mechanism | None = None):
    """(ratio, ci, opt, rev).  OPT is exact for n=1; for n>1 it is the Monte
    Carlo revenue of `bench`, the truth mechanism (built if not given), on
    mech's profiles.  The ci is the paired 95% delta-method half width."""
    if d_true.n != mech.n:
        raise ValueError("arity mismatch")
    if mech.n == 1:
        _, opt = opt_single(d_true.components[0])
        if opt <= 0:
            raise ValueError("zero OPT")
        rev = revenue_at_reserve(d_true.components[0], mech.reserves[0])
        return rev / opt, 0.0, opt, rev
    if bench is None:
        bench = truth_mechanism(d_true, mech.kind)
    (opt, rev), cov = _payment_moments([bench, mech], d_true, n_draws, seed)
    if opt <= 0:
        raise ValueError("zero OPT")
    ratio = rev / opt
    # the variance of the mean residual rev_i - ratio * opt_i (Cochran's
    # ratio estimator); 0 for a mechanism against itself
    var = max(cov[1, 1] - 2 * ratio * cov[0, 1] + ratio * ratio * cov[0, 0], 0.0)
    return ratio, 1.96 * float(np.sqrt(var)) / opt, opt, rev


def revenue_ratio(mech: Mechanism, d_true: ProductDist, n_draws: int,
                  seed: int):
    """Rev(M, D)/OPT(D) with a 95% half width; see revenue_ratio_detail."""
    ratio, ci, _, _ = revenue_ratio_detail(mech, d_true, n_draws, seed)
    return ratio, ci
