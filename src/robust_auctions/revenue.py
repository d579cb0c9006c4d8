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
from .myerson import Mechanism

_CHUNK = 1 << 20
_OPT_GRID = 200_000
_TRUTH_GRID = 8192


def _posted_revenue(price: np.ndarray, cdf_left: np.ndarray) -> np.ndarray:
    """price * Pr[V >= price], given F(price-): the one place it is written."""
    return price * (1.0 - cdf_left)


def revenue_at_reserve(dist: Distribution, price):
    """Expected revenue of posted prices: price * Pr[V >= price].  A scalar
    price gives a float, an array of prices an array."""
    arr = np.asarray(price, dtype=float)
    # min and max propagate NaN; an elementwise mask over a learner's 10^6
    # atoms would cost the learn op ~8 MB of peak memory
    if arr.size and not (arr.min() >= 0 and arr.max() < np.inf):
        raise ValueError("price must be nonnegative and finite")
    rev = _posted_revenue(arr, np.asarray(dist.cdf_left(arr)))
    return float(rev) if arr.ndim == 0 else rev


def opt_single(dist: Distribution):
    """(reserve, revenue) of the best posted price for one bidder; the
    smallest argmax on ties.

    The candidates: for a PiecewiseLinkCDF its knots, its support top and
    (MHR only) each piece's interior stationary point 1/slope, which are
    exact (regular pieces have monotone revenue, so their ends suffice); for
    a purely atomic input its atoms; for anything else a quantile-uniform
    grid plus the breakpoints, whose best point is refined locally to 1e-6.
    """
    exact = isinstance(dist, PiecewiseLinkCDF) or dist.purely_atomic
    if isinstance(dist, PiecewiseLinkCDF):
        cand = [dist.xs, [dist.support_top()]]
        if dist.kind == "mhr":
            stat = dist.inv_slopes
            cand.append(stat[(stat > dist.xs[:-1]) & (stat < dist.xs[1:])])
        cand = np.unique(np.concatenate(cand))
        cand = cand[cand > 0] if cand.size > 1 else cand
        revs = revenue_at_reserve(dist, cand)
    elif dist.purely_atomic:
        # F(atom-) off the atom table, unsearched; atoms are valid prices
        cand, f_left, _ = dist.atom_cdf()
        revs = _posted_revenue(cand, f_left)
    else:
        qs = np.linspace(0.0, 1.0, _OPT_GRID, endpoint=False)
        cand = np.unique(np.concatenate([np.asarray(dist.ppf(qs), dtype=float),
                                         dist.breakpoints()]))
        cand = cand[np.isfinite(cand) & (cand >= 0)]
        revs = revenue_at_reserve(dist, cand)
    i = int(np.argmax(revs))
    best_x, best_r = float(cand[i]), float(revs[i])
    if exact:
        return best_x, best_r
    lo = cand[i - 1] if i > 0 else cand[i]
    hi = cand[i + 1] if i + 1 < cand.size else cand[i]
    while hi - lo > 1e-6:
        grid = np.linspace(lo, hi, 33)
        r = revenue_at_reserve(dist, grid)
        j = int(np.argmax(r))
        if r[j] > best_r:
            best_x, best_r = float(grid[j]), float(r[j])
        lo = grid[max(j - 1, 0)]
        hi = grid[min(j + 1, grid.size - 1)]
    return best_x, best_r


@dataclass(frozen=True)
class RevenueEstimate:
    """Monte Carlo payments of mechanisms run on the same profiles: their
    means, and the covariance matrix of those means."""
    means: tuple
    cov: np.ndarray
    n_draws: int
    seed: int


def rev_monte_carlo(mechs, d_true: ProductDist, n_draws: int,
                    seed: int) -> RevenueEstimate:
    """The one Monte Carlo pass: each chunk of n_draws sampled profiles is
    run through every mechanism in `mechs`.  The covariance comes from chunk
    co-moments merged by Chan, Golub and LeVeque's pairwise update."""
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
    return RevenueEstimate(means=tuple(t / n_draws for t in totals),
                           cov=co / n_draws / n_draws, n_draws=n_draws,
                           seed=int(seed))


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
    est = rev_monte_carlo([bench, mech], d_true, n_draws, seed)
    (opt, rev), cov = est.means, est.cov
    if opt <= 0:
        raise ValueError("zero OPT")
    ratio = rev / opt
    # the variance of the mean residual rev_i - ratio * opt_i (Cochran's
    # ratio estimator); 0 for a mechanism against itself
    var = max(cov[1, 1] - 2 * ratio * cov[0, 1] + ratio * ratio * cov[0, 0], 0.0)
    return ratio, 1.96 * float(np.sqrt(var)) / opt, opt, rev

