"""Shared random-instance generators for the test suite.

Everything takes an explicit numpy Generator so tests stay reproducible.
"""

import numpy as np

from robust_auctions import links
from robust_auctions.distributions import (Distribution, DownShiftSpike,
                                           PiecewiseLinkCDF, PointMass,
                                           StepCDF, UpShift, appx_c1, appx_c2)
from robust_auctions.harness import RESULT_COLUMNS
from robust_auctions.links import link_origin
from robust_auctions.revenue import revenue_at_reserve


def random_points(rng, k_max=50, allow_flats=True):
    """Non-decreasing (xs, ys) point sets for envelope tests."""
    k = int(rng.integers(2, k_max + 1))
    xs = np.sort(rng.uniform(0.0, 10.0, size=k))
    xs = np.unique(xs)
    while xs.size < 2:
        xs = np.unique(np.sort(rng.uniform(0.0, 10.0, size=k)))
    inc = rng.uniform(0.0, 1.0, size=xs.size - 1)
    if allow_flats:
        inc[rng.random(xs.size - 1) < 0.25] = 0.0
    ys = np.concatenate(([rng.uniform(0.0, 1.0)], )) + np.concatenate(
        ([0.0], np.cumsum(inc)))
    return xs, ys


def random_link_cdf(rng, kind, k_max=8, max_tries=50, from_zero=False):
    """A valid random PiecewiseLinkCDF with no near-zero virtual-value
    intercepts (those make grid-vs-closed-form reserve comparisons flaky:
    revenue is then nearly flat along a whole piece).

    `from_zero` pins the first knot to x = 0, which keeps the link curve
    convex on all of [0, top]; without it some draws carry an atom at an
    interior bottom knot and sit outside the KS-ball guarantee class.
    """
    for _ in range(max_tries):
        k = int(rng.integers(2, k_max + 1))
        xs = np.concatenate(([0.0], np.cumsum(rng.uniform(0.2, 1.5, size=k - 1))))
        if not from_zero and rng.random() < 0.3:
            xs = xs + rng.uniform(0.0, 0.5)
        slopes = np.cumsum(rng.uniform(0.1, 1.0, size=k - 1))
        h0 = link_origin(kind) + rng.uniform(0.0, 1.0)
        hs = np.concatenate(([h0], h0 + np.cumsum(slopes * np.diff(xs))))
        top = float(xs[-1]) + (rng.uniform(0.1, 1.5) if rng.random() < 0.5 else 0.0)
        cdf = PiecewiseLinkCDF(kind, xs, hs, top)
        if kind == "regular":
            consts = xs[:-1] - hs[:-1] / slopes
            if np.any(np.abs(consts) < 1e-6):
                continue
        else:
            stats = 1.0 / slopes
            if np.any(np.abs(stats - xs[:-1]) < 1e-6) or \
               np.any(np.abs(stats - xs[1:]) < 1e-6):
                continue
        return cdf
    raise RuntimeError("could not draw a clean random link CDF")


def random_step_cdf(rng, k_max=12, lo=0.0, hi=10.0):
    k = int(rng.integers(1, k_max + 1))
    values = np.unique(np.round(rng.uniform(lo, hi, size=k), 6))
    masses = rng.dirichlet(np.ones(values.size))
    while np.any(masses < 1e-9):
        masses = rng.dirichlet(np.ones(values.size))
    return StepCDF(values, masses)


def atomic_cases(rng, count=200):
    """Purely atomic inputs: random step CDFs (half with an atom at 0), one
    atom, an atom at 0, partial mass sums that round past 1, a PointMass,
    and UpShift / DownShiftSpike wrappers over step CDFs."""
    cases = [StepCDF([2.5], [1.0]), StepCDF([0.0], [1.0]),
             StepCDF([0.0, 1.0, 3.0], [0.2, 0.3, 0.5]),
             StepCDF([1.0, 2.0, 3.0], [0.5, 0.5 + 5e-10, 1e-12]),
             PointMass(0.0), PointMass(1.7)]
    for i in range(count):
        k = int(rng.integers(1, 400))
        values = np.unique(rng.exponential(size=k))
        if rng.random() < 0.5:
            values[0] = 0.0
        masses = rng.random(values.size) + 1e-3
        E = StepCDF(values, masses / masses.sum())
        cases.append(E)
        if i % 10 == 0:
            cases.append(UpShift(E, 0.1))
            cases.append(DownShiftSpike(E, 0.1, 2.0 * values[-1] + 1.0))
    return cases


def searched_minimal_in_ks_ball(dist, alpha, kind):
    """The atomic branch of ball.minimal_in_ks_ball as it was before the
    atom table: anchors from np.unique over 0 and the atoms, and G from
    dist.cdf searched at every anchor.  A reference for bit-identity."""
    alpha = links.check_alpha(alpha)
    new_top = float(dist.ppf(1.0 - alpha))
    xs = np.unique(np.concatenate(([0.0], dist.atoms()[0])))
    xs = xs[(xs >= 0.0) & (xs < new_top)]
    g = np.minimum(np.asarray(dist.cdf(xs)) + alpha, 1.0)
    if xs.size and xs[0] == 0.0:
        g[0] = float(dist.cdf(0.0))
    keep = g < 1.0
    xs, g = xs[keep], g[keep]
    if xs.size == 0:
        return PiecewiseLinkCDF(kind, [new_top], [link_origin(kind)], new_top)
    hs = np.asarray(links.link_forward(kind, g))
    if xs.size == 1:
        return PiecewiseLinkCDF(kind, xs, hs, new_top)
    env = links.convex_envelope(xs, hs)
    return PiecewiseLinkCDF(kind, env.xs, env.ys, new_top)


def searched_opt_single(dist):
    """opt_single on a purely atomic input as it was before the atom table:
    revenue_at_reserve searches F(atom-) for every atom.  A reference for
    bit-identity."""
    cand = dist.atoms()[0]
    revs = revenue_at_reserve(dist, cand)
    i = int(np.argmax(revs))
    return float(cand[i]), float(revs[i])


class Truncated(Distribution):
    """Mass Pr[V >= cutoff] collapsed onto an atom at the cutoff."""

    def __init__(self, base: Distribution, cutoff):
        cutoff = float(cutoff)
        if cutoff < 0 or not np.isfinite(cutoff):
            raise ValueError("cutoff must be finite and nonnegative")
        self.base = base
        self.cutoff = cutoff
        self.purely_atomic = base.purely_atomic

    def _cdf(self, arr, left=False):
        ge = np.greater if left else np.greater_equal
        base = self.base.cdf_left if left else self.base.cdf
        return np.where(ge(arr, self.cutoff), 1.0, np.asarray(base(arr)))

    def _ppf(self, q):
        return np.minimum(np.asarray(self.base.ppf(q)), self.cutoff)

    def support_top(self):
        return min(self.base.support_top(), self.cutoff)

    def breakpoints(self):
        base_pts = self.base.breakpoints()
        return np.unique(np.concatenate((base_pts[base_pts < self.cutoff],
                                         [self.cutoff])))


def truncate(dist: Distribution, cutoff) -> Truncated:
    return Truncated(dist, cutoff)


def reference_payments(mech, profiles):
    """(winners, payments) of `mech.payments_batch` by the prefix/suffix
    maxima algorithm it used to run: for each column, the best virtual value
    among the lower indices (beaten strictly) and among the higher ones
    (beaten weakly), from (rows, n + 1) running-maximum copies."""
    B = np.asarray(profiles, dtype=float)
    rows = B.shape[0]
    phi = np.empty_like(B)
    for j, vv in enumerate(mech.vvs):
        phi[:, j] = vv.phi(np.minimum(B[:, j], vv.top))
    winners = np.argmax(phi, axis=1)
    best = phi[np.arange(rows), winners]
    winners = np.where(best >= 0, winners, -1)
    payments = np.zeros(rows)
    pad = np.full((rows, 1), -np.inf)
    prefix = np.maximum.accumulate(np.concatenate([pad, phi[:, :-1]], axis=1),
                                   axis=1)
    suffix = np.maximum.accumulate(
        np.concatenate([pad, phi[:, :0:-1]], axis=1), axis=1)[:, ::-1]
    for j, vv in enumerate(mech.vvs):
        won = winners == j
        if not np.any(won):
            continue
        pay = np.asarray(vv.inverse(np.maximum(suffix[won, j], 0.0)))
        t_strict = prefix[won, j]
        finite = np.isfinite(t_strict)
        if np.any(finite):
            alt = np.asarray(vv.inverse(t_strict[finite], strict=True))
            pay[finite] = np.maximum(pay[finite], alt)
        payments[won] = pay
    return winners, payments


def mean_and_half_width(est, i=0):
    """Mechanism i's mean payment in a RevenueEstimate, and its 95% half
    width."""
    return est.means[i], 1.96 * float(np.sqrt(est.cov[i, i]))


def mhr_lb_family(n: int, beta: float):
    """The confusable MHR triple (base point mass, high CDF, low CDF)."""
    return appx_c1(n, beta, "b"), appx_c1(n, beta, "h"), appx_c1(n, beta, "l")


def regular_lb_family(n: int, beta: float):
    """The confusable regular triple (base point mass, high CDF, low CDF)."""
    return appx_c2(n, beta, "b"), appx_c2(n, beta, "h"), appx_c2(n, beta, "l")


def read_rows(path) -> list:
    """The rows of a results CSV written by `harness.write_rows`."""
    out = []
    with open(path) as fh:
        header = fh.readline().strip().split(",")
        if tuple(header) != RESULT_COLUMNS:
            raise ValueError(f"unexpected results header {header}")
        for line in fh:
            vals = line.strip().split(",")
            row = dict(zip(RESULT_COLUMNS, vals))
            for k in ("n", "m", "seed"):
                row[k] = int(row[k])
            for k in ("alpha", "ratio", "ci", "opt", "rev"):
                row[k] = float(row[k])
            out.append(row)
    return out
