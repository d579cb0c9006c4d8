"""Revenue evaluation: posted prices, Monte Carlo auction revenue, ratios.

Everything here is deterministic given its (inputs, seed) pair.  Monte Carlo
draws come from counter-based substreams (see _rng), so estimates do not
depend on how work is chunked or distributed across workers.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .ball import minimal_in_ks_ball
from .distributions import Distribution, ProductDist, _refine_max
from ._rng import check_count
from .myerson import Mechanism, _pass_ranks, _pay

_CHUNK = 1 << 20
_BLOCK = 1 << 16     # rows sampled and paid at a time within a chunk
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
    smallest argmax on ties.  Exact on the prices a type states (`_prices`)
    and on a purely atomic input's atoms, as revenue rises between atoms to
    the next.  The wrappers over non-atomic bases take their table on a
    quantile grid, its best point zoomed to 1e-6 as `ks_distance` zooms."""
    cand = dist._prices
    if cand is not None:
        cand = np.unique(np.hstack(cand))
        cand = cand[cand > 0] if cand.size > 1 else cand
        revs = revenue_at_reserve(dist, cand)
    else:   # F(x-) off the table, unsearched; its points are valid prices
        cand, f_left = dist.table(np.linspace(0.0, 1.0, _OPT_GRID,
                                              endpoint=False))[:2]
        revs = _posted_revenue(cand, f_left)
    i = int(np.argmax(revs))
    if dist._prices is not None or dist.purely_atomic:
        return float(cand[i]), float(revs[i])
    return _refine_max(lambda p: revenue_at_reserve(dist, p), cand, i,
                       float(revs[i]), 1e-6)


@dataclass(frozen=True)
class RevenueEstimate:
    """Monte Carlo payments of mechanisms run on the same profiles: their
    means, and the covariance matrix of those means."""
    means: tuple
    cov: np.ndarray
    n_draws: int


def rev_monte_carlo(mechs, d_true: ProductDist, n_draws: int,
                    seed: int) -> RevenueEstimate:
    """The one Monte Carlo pass: `myerson._pay` pays every mechanism in
    `mechs` on n_draws sampled profiles, a cache-sized block at a time.  Sums
    and co-moments (of the deviations, made in place) are per chunk, merged
    by Chan, Golub and LeVeque's pairwise update into the covariance."""
    if not mechs:
        raise ValueError("need at least one mechanism")
    if any(d_true.n != mech.n for mech in mechs):
        raise ValueError("arity mismatch")
    n_draws = check_count(n_draws, "n_draws")
    totals = [0.0] * len(mechs)
    mean = np.zeros(len(mechs))
    co = np.zeros((len(mechs), len(mechs)))
    ranks = _pass_ranks(mechs)
    done = 0
    while done < n_draws:
        take = min(_CHUNK, n_draws - done)
        pays = np.empty((len(mechs), take))
        for lo in range(0, take, _BLOCK):
            hi = min(lo + _BLOCK, take)
            _pay(mechs, d_true.sample_profiles(hi - lo, seed, done + lo),
                 pays[:, lo:hi], *ranks)
        sums = [float(np.sum(pay)) for pay in pays]
        totals = [t + s for t, s in zip(totals, sums)]
        chunk_mean = np.array(sums) / take
        pays -= chunk_mean[:, None]
        # once per pair (a * b is b * a); no BLAS dot: it wakes worker threads
        prod, chunk_co = np.empty(take), np.empty_like(co)
        for i, j in zip(*np.triu_indices(len(mechs))):
            np.multiply(pays[i], pays[j], out=prod)
            chunk_co[i, j] = chunk_co[j, i] = np.sum(prod)
        delta = chunk_mean - mean
        co += chunk_co + np.multiply.outer(delta, delta) * (done * take
                                                            / (done + take))
        mean += delta * (take / (done + take))
        done += take
    return RevenueEstimate(means=tuple(t / n_draws for t in totals),
                           cov=co / n_draws / n_draws, n_draws=n_draws)


def truth_mechanism(d_true: ProductDist, kind: str) -> Mechanism:
    """Myerson mechanism for the true distributions, each represented on a
    fine zero-radius ball discretization (exact for piecewise-link inputs)."""
    bidders = [minimal_in_ks_ball(d, 0.0, kind, grid=_TRUTH_GRID)
               for d in d_true.components]
    return Mechanism(kind=kind, bidders=bidders,
                     provenance={"role": "benchmark", "grid": _TRUTH_GRID})


def _benchmark(d_true: ProductDist, kind: str):
    """OPT for one bidder; for n > 1 the mechanism whose revenue is OPT."""
    return (opt_single(d_true.components[0])[1] if d_true.n == 1
            else truth_mechanism(d_true, kind))


def _ratios(bench, mechs, d_true: ProductDist, n_draws: int, seed: int):
    """(ratio, ci, opt, rev) of each mechanism against `_benchmark`'s bench:
    exact for n = 1; else one Monte Carlo pass and a 95% delta-method ci."""
    if d_true.n == 1:     # no draws, so no variance
        d = d_true.components[0]
        opt, cov = bench, np.zeros((len(mechs) + 1,) * 2)
        revs = [revenue_at_reserve(d, mech.reserves[0]) for mech in mechs]
    else:
        est = rev_monte_carlo([bench, *mechs], d_true, n_draws, seed)
        (opt, *revs), cov = est.means, est.cov
    if opt <= 0:
        raise ValueError("zero OPT")
    rows = []
    for j, rev in enumerate(revs, 1):
        r = rev / opt
        # the variance of the mean residual rev_i - r * opt_i (Cochran's
        # ratio estimator); 0 for a mechanism against itself
        var = max(cov[j, j] - 2 * r * cov[0, j] + r * r * cov[0, 0], 0.0)
        rows.append((r, 1.96 * float(np.sqrt(var)) / opt, opt, rev))
    return rows


def revenue_ratio_detail(mech: Mechanism, d_true: ProductDist, n_draws: int,
                         seed: int):
    """(ratio, ci, opt, rev) of mech against OPT (`_ratios`): exact for n=1,
    else paired with the truth mechanism on n_draws Monte Carlo profiles."""
    if d_true.n != mech.n:
        raise ValueError("arity mismatch")
    return _ratios(_benchmark(d_true, mech.kind), [mech], d_true, n_draws,
                   seed)[0]
