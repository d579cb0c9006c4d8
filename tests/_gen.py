"""Shared random-instance generators for the test suite.

Everything takes an explicit numpy Generator so tests stay reproducible.
"""

import contextlib
import signal

import numpy as np

from robust_auctions import links
from robust_auctions._rng import profile_uniforms
from robust_auctions.adversary import corrupt
from robust_auctions.distributions import (AppxC1, AppxC2, Distribution,
                                           DownShiftSpike, EqualRevenue,
                                           Exponential, PiecewiseLinkCDF,
                                           PointMass, ProductDist, StepCDF,
                                           Uniform, UpShift,
                                           _candidate_points, appx_c1,
                                           appx_c2)
from robust_auctions.harness import (_EVAL_SEED_OFFSET, RESULT_COLUMNS,
                                     result_row)
from robust_auctions.links import link_origin
from robust_auctions.pipeline import (population_robust_myerson,
                                      robust_empirical_myerson)
from robust_auctions.revenue import (opt_single, rev_monte_carlo,
                                     revenue_at_reserve, truth_mechanism)


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


def dip_link_cdfs():
    """Two mhr link CDFs whose slope drops at a knot by less than the 1e-9
    convexity tolerance, so that phi from each piece's own 1/slope would dip
    below 0 at or just past the reserve: slopes 2 and 2 (1 - 5e-10) on knots
    x = 0, 0.5, 1.5 (reserve 0.5, phi(0.5) = -2.5e-10), and 1 + 1e-10 then
    1 - 4e-10 on knots x = 0, 1, 2 (reserve 1 - 1e-10, phi(1) = -4e-10).
    The running min of 1/slope gives phi(0.5) = 0 and phi(1) = 1e-10."""
    out = []
    for xs, slopes in (([0.0, 0.5, 1.5], [2.0, 2.0 * (1 - 5e-10)]),
                       ([0.0, 1.0, 2.0], [1 + 1e-10, 1 - 4e-10])):
        xs = np.array(xs)
        hs = np.concatenate(([0.0], np.cumsum(slopes * np.diff(xs))))
        out.append(PiecewiseLinkCDF("mhr", xs, hs, xs[-1]))
    return out


def edge_bids(vv, rng, grid=16):
    """Bids where a reserve screen could go wrong for one VirtualValueFn:
    its reserve, each knot and its top, each one ulp either side; 0; and a
    grid over [0, 1.1 top]."""
    pts = np.append(vv.reserve, vv._lefts)
    return np.concatenate([pts, np.nextafter(pts, np.inf),
                           np.nextafter(pts, -np.inf).clip(0.0), [0.0],
                           np.linspace(0.0, 1.1 * vv.top, grid),
                           rng.uniform(0.0, 1.1 * vv.top, grid)])


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


def jump_table(dist):
    """(locs, F(locs-), F(locs)) at the breakpoints where F jumps by more
    than 1e-15, whatever the type: the atoms of any distribution, found by
    searching its CDF at every breakpoint.  A reference for the atom tables
    and for the atoms of types that are not purely atomic."""
    xs = dist.breakpoints()
    left, right = np.asarray(dist.cdf_left(xs)), np.asarray(dist.cdf(xs))
    keep = right - left > 1e-15
    return xs[keep], left[keep], right[keep]


def atom_masses(dist):
    """(locations, masses) of the point masses of dist."""
    locs, left, right = jump_table(dist)
    return locs, right - left


def searched_minimal_in_ks_ball(dist, alpha, kind):
    """ball.minimal_in_ks_ball on a purely atomic input, spelled out: anchors
    from np.unique over 0 and the atoms, and G = min(F + alpha, 1) from
    dist.cdf searched at every anchor, x = 0 included.  A reference for
    bit-identity."""
    alpha = links.check_alpha(alpha)
    new_top = float(dist.ppf(1.0 - alpha))
    xs = np.unique(np.concatenate(([0.0], jump_table(dist)[0])))
    xs = xs[(xs >= 0.0) & (xs < new_top)]
    g = np.minimum(np.asarray(dist.cdf(xs)) + alpha, 1.0)
    keep = g < 1.0
    xs, g = xs[keep], g[keep]
    if xs.size == 0:
        return PiecewiseLinkCDF(kind, [new_top], [link_origin(kind)], new_top)
    hs = np.asarray(links.link_forward(kind, g))
    if xs.size == 1:
        return PiecewiseLinkCDF(kind, xs, hs, new_top)
    env = links.convex_envelope(xs, hs)
    return PiecewiseLinkCDF(kind, env.xs, env.ys, new_top)


def anchored_minimal_in_ks_ball(dist, alpha, kind, grid):
    """minimal_in_ks_ball on an input that is not purely atomic, spelled out:
    G^{-1} and G written on the input itself, every grid quantile kept, and
    anchors through np.unique with 0.  A reference for bit-identity."""
    alpha = links.check_alpha(alpha)
    if alpha == 0.0 and isinstance(dist, PiecewiseLinkCDF) and dist.kind == kind:
        return dist
    new_top = float(dist.ppf(1.0 - alpha))
    if not np.isfinite(new_top):
        new_top = float(dist.ppf(grid / (grid + 1.0)))
    qs = np.arange(1, grid + 1) / (grid + 1.0)
    # G^{-1}(q) = F~^{-1}(q - alpha) for q > G(0), else 0
    inner = np.asarray(dist.ppf(np.clip(qs - alpha, 0.0, 1.0)))
    g0 = min(float(dist.cdf(0.0)) + alpha, 1.0)
    xs = np.where(qs <= g0, 0.0, np.maximum(inner, 0.0))
    pts = dist.breakpoints()
    xs = np.unique(np.concatenate((xs, pts[np.isfinite(pts)], [0.0])))
    xs = xs[xs >= 0.0]
    g = np.minimum(np.asarray(dist.cdf(xs)) + alpha, 1.0)
    keep = (xs < new_top) & (g < 1.0)
    xs, hs = xs[keep], links.link_forward(kind, g[keep])
    if xs.size == 0:
        return PiecewiseLinkCDF(kind, [new_top], [link_origin(kind)], new_top)
    if xs.size > 1:
        env = links.convex_envelope(xs, hs)
        xs, hs = env.xs, env.ys
    return PiecewiseLinkCDF(kind, xs, hs, new_top)


def reference_support_facts(dist):
    """(support_top, breakpoints) of dist by the formulas each type stated in
    its own two methods, before Distribution read both off the `_top` and
    `_breaks` its constructors set.  A reference for bit-identity."""
    if isinstance(dist, UpShift):
        top = float(dist.base.ppf(1.0 - dist.alpha))
        base_pts = reference_support_facts(dist.base)[1]
        return top, np.unique(np.concatenate(
            ([0.0], base_pts[base_pts < top], [top])))
    if isinstance(dist, DownShiftSpike):
        base_pts = reference_support_facts(dist.base)[1]
        return dist.spike_x, np.unique(np.concatenate(
            (base_pts[base_pts < dist.spike_x],
             [float(dist.base.ppf(dist.alpha)), dist.spike_x])))
    if isinstance(dist, StepCDF):          # PointMass too
        return float(dist.values[-1]), dist.values.copy()
    if isinstance(dist, PiecewiseLinkCDF):
        top = dist.to_dict()["support_top"]
        return top, np.unique(np.append(dist.xs, top))
    if isinstance(dist, Exponential):
        return np.inf, np.array([0.0])
    if isinstance(dist, (Uniform, EqualRevenue)):
        top = dist.hi if isinstance(dist, Uniform) else dist.cap
        return top, np.array([dist.lo, top])
    if isinstance(dist, AppxC1):
        return dist.v1, np.array([0.0, dist.v1] if dist.which == "l"
                                 else [0.0, dist.v2, dist.v1])
    if isinstance(dist, AppxC2):
        return np.inf, np.array([dist.bottom] if dist.which == "l"
                                else [dist.bottom, dist.v2])
    raise TypeError(f"no reference for {type(dist).__name__}")


def searched_opt_single(dist):
    """opt_single on a purely atomic input, spelled out: revenue_at_reserve
    searches F(atom-) at every atom, and nothing is refined.  A reference
    for bit-identity."""
    cand = jump_table(dist)[0]
    revs = revenue_at_reserve(dist, cand)
    i = int(np.argmax(revs))
    return float(cand[i]), float(revs[i])


def golden_ks_distance(d1, d2):
    """ks_distance as it was before the shared zoom: golden-section search,
    one scalar CDF pair per step, around the five best candidates.  A
    reference to a few ulps, as the two searches probe different points."""
    cand, exact = _candidate_points(d1, d2)
    gap_r = np.abs(np.asarray(d1.cdf(cand)) - np.asarray(d2.cdf(cand)))
    gap_l = np.abs(np.asarray(d1.cdf_left(cand)) - np.asarray(d2.cdf_left(cand)))
    best = float(max(gap_r.max(), gap_l.max()))
    if exact:
        return best
    g = lambda x: abs(float(d1.cdf(x)) - float(d2.cdf(x)))
    inv_phi = (np.sqrt(5.0) - 1.0) / 2.0
    for i in np.argsort(np.maximum(gap_r, gap_l))[::-1][:5]:
        a = cand[i - 1] if i > 0 else cand[i]
        b = cand[i + 1] if i + 1 < cand.size else cand[i]
        if b <= a:
            continue
        c, d = b - inv_phi * (b - a), a + inv_phi * (b - a)
        fc, fd = g(c), g(d)
        for _ in range(80):
            if b - a < 1e-13 * max(1.0, abs(a)):
                break
            if fc >= fd:
                b, d, fd = d, c, fc
                c = b - inv_phi * (b - a)
                fc = g(c)
            else:
                a, c, fc = c, d, fd
                d = a + inv_phi * (b - a)
                fd = g(d)
        best = max(best, fc, fd)
    return best


def one_bracket_refine_max(f, cand, i, best, tol):
    """distributions._refine_max as it was before it zoomed every bracket at
    once: one bracket, one 33-point grid at a time.  A reference for
    bit-identity."""
    best_x = float(cand[i])
    lo = cand[i - 1] if i > 0 else cand[i]
    hi = cand[i + 1] if i + 1 < cand.size else cand[i]
    width = np.inf
    while tol < hi - lo < width:
        width = hi - lo
        grid = np.linspace(lo, hi, 33)
        vals = f(grid)
        j = int(np.argmax(vals))
        if vals[j] > best:
            best_x, best = float(grid[j]), float(vals[j])
        lo, hi = grid[max(j - 1, 0)], grid[min(j + 1, grid.size - 1)]
    return best_x, best


def bracketwise_ks_distance(d1, d2):
    """ks_distance as it was before its five brackets zoomed at once: one
    `one_bracket_refine_max` call per bracket, best first.  A reference for
    bit-identity."""
    cand, exact = _candidate_points(d1, d2)
    gap_r = np.abs(np.asarray(d1.cdf(cand)) - np.asarray(d2.cdf(cand)))
    gap_l = np.abs(np.asarray(d1.cdf_left(cand)) - np.asarray(d2.cdf_left(cand)))
    best = float(max(gap_r.max(), gap_l.max()))
    if exact:
        return best
    gap = lambda x: np.abs(d1.cdf(x) - d2.cdf(x))
    for i in np.argsort(np.maximum(gap_r, gap_l))[::-1][:5]:
        tol = 1e-13 * max(1.0, abs(cand[i]))
        best = one_bracket_refine_max(gap, cand, i, best, tol)[1]
    return best


def reference_shade_quantiles(E, m, n, delta, alpha):
    """pipeline.shade_quantiles as it was before the shave and the budget
    cut were split: one body, survival pinned by an `xs == 0` mask and the
    zero atom put first after the running minimum.  A reference for
    bit-identity."""
    xs, q = jump_table(E)[:2]
    q = 1.0 - q
    L = np.log(2.0 * m * n / delta)
    shaved = q - np.sqrt(2.0 * q * (1.0 - q) * L / m) - 4.0 * L / m
    q_hat = np.maximum(shaved - alpha, 0.0)
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


def pruned_envelope(xs, ys):
    """The envelope by neighbour-only pruning passes on whole arrays, as
    (vertex xs, vertex ys): each pass takes every interior point's cross
    product with its neighbours at once, in the stack loop's expression,
    and keeps the points below the tolerance, for at most _MAX_PASSES
    passes; then the stack loop.  A reference for the hull that the
    wide-stencil passes of convex_envelope must not change."""
    x, y = np.asarray(xs, dtype=float), np.asarray(ys, dtype=float)
    for _ in range(links._MAX_PASSES):
        cross = ((y[1:-1] - y[:-2]) * (x[2:] - x[1:-1])
                 - (y[2:] - y[1:-1]) * (x[1:-1] - x[:-2]))
        keep = np.concatenate(([True], cross < links._HULL_TOL, [True]))
        if keep.all():
            break
        x, y = x[keep], y[keep]
    return looped_chain(x, y)


def looped_chain(xs, ys):
    """links._chain as a stack loop over every point, with no prefix taken
    whole: the monotone-chain lower hull (Andrew 1979) of points sorted by
    x, popping the middle point b of the last two hull points (a, b) while
    cross >= -1e-12 for the next point c.  A reference for bit-identity."""
    hull_x: list[float] = []
    hull_y: list[float] = []
    for x, y in zip(xs.tolist(), ys.tolist()):
        while len(hull_x) >= 2:
            ax, ay = hull_x[-2], hull_y[-2]
            bx, by = hull_x[-1], hull_y[-1]
            cross = (by - ay) * (x - bx) - (y - by) * (bx - ax)
            if cross >= -links._HULL_TOL:
                hull_x.pop()
                hull_y.pop()
            else:
                break
        hull_x.append(x)
        hull_y.append(y)
    return np.array(hull_x), np.array(hull_y)


def near_collinear_points(rng):
    """Sorted points near a line, crowding the loop's 1e-12 tie band at some
    scales: n from 8 to 512, x spans of 10^-6 .. 10^6, slope 0.5, noise of
    1e-17 .. 1e-10 and offsets of 0 .. 1e6 in y."""
    n = int(rng.integers(8, 513))
    xs = np.unique(rng.uniform(0.0, 1.0, n)) * 10.0 ** rng.uniform(-6.0, 6.0)
    noise = 10.0 ** rng.uniform(-17.0, -10.0) * rng.standard_normal(xs.size)
    offset = rng.choice([0.0, 1.0, 10.0 ** rng.uniform(0.0, 6.0)])
    return xs, offset + 0.5 * xs + noise


def stencil_pruned_points(xs, ys):
    """convex_envelope's pruning passes on whole arrays, as (x, y, widths):
    the points they keep and the stencil width of every pass run.  A round
    runs passes at widths d = 1, 16, 256, ... while 2 d < n and d <= _BLOCK,
    up to the first wide pass that drops nothing; rounds repeat until one
    drops nothing or _MAX_PASSES passes have run.  A pass keeps the interior
    point b = i, with a = i - d and c = i + d, unless its cross, in the stack
    loop's expression, is at least the tolerance: 1e-12 at d = 1; on wide
    passes _WIDE_TOL or, if larger, the rounding bound of i's block of
    _BLOCK points, 4 _MARGIN max|y| (x span), over the points the block's
    triples read.  A reference for bit-identity of the blocked in-place
    passes."""
    x, y = np.asarray(xs, dtype=float), np.asarray(ys, dtype=float)
    widths, dropped = [], True
    while dropped and len(widths) < links._MAX_PASSES:
        dropped, d, wide_dropped = False, 1, True
        while (wide_dropped and 2 * d < x.size and d <= links._BLOCK
               and len(widths) < links._MAX_PASSES):
            n = x.size
            cross = ((y[d:n - d] - y[:n - 2 * d]) * (x[2 * d:] - x[d:n - d])
                     - (y[2 * d:] - y[d:n - d]) * (x[d:n - d] - x[:n - 2 * d]))
            tol = np.full(n - 2 * d, links._HULL_TOL if d == 1
                          else links._WIDE_TOL)
            for s in range(d, n - d, links._BLOCK) if d > 1 else ():
                e = min(s + links._BLOCK, n - d)
                bound = (4.0 * links._MARGIN * np.abs(y[s - d:e + d]).max()
                         * (x[e - 1 + d] - x[s - d]))
                tol[s - d:e - d] = max(tol[0], bound)
            keep = np.ones(n, dtype=bool)
            keep[d:n - d] = ~(cross >= tol)     # a NaN cross keeps its point
            wide_dropped = d == 1 or not keep.all()
            dropped |= not keep.all()
            x, y = x[keep], y[keep]
            widths.append(d)
            d *= links._WIDTH_STEP
    return x, y, widths


def searched_inverse(vv, t, strict=False):
    """VirtualValueFn.inverse as it was before the bucketed rank: the piece
    of every target found by np.searchsorted over all of the sups.  A
    reference for bit-identity."""
    arr = np.atleast_1d(np.asarray(t, dtype=float))
    i = np.searchsorted(vv._sups, arr, side="right" if strict else "left")
    if vv.kind == "mhr":
        with np.errstate(invalid="ignore"):
            out = np.fmax(vv._lefts[i], arr + vv._inv_s[i])
        np.minimum(out, vv._rights[i], out=out)
    else:
        out = vv._lefts[i]
    return out


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
    (beaten weakly), from (rows, n + 1) running-maximum copies, and each
    threshold's value by `searched_inverse`."""
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
        pay = searched_inverse(vv, np.maximum(suffix[won, j], 0.0))
        t_strict = prefix[won, j]
        finite = np.isfinite(t_strict)
        if np.any(finite):
            alt = searched_inverse(vv, t_strict[finite], strict=True)
            pay[finite] = np.maximum(pay[finite], alt)
        payments[won] = pay
    return winners, payments


def topped_payments(mech, profiles):
    """(winners, payments) of `mech.payments_batch` as it was before Monte
    Carlo passes shared bid ranks and uncontested winners read their reserve
    from a table: each bidder's phi by its own rank, a top-two reduction,
    then one `inverse` call per bidder on every row it wins.  A reference
    for bit-identity."""
    B = np.asarray(profiles, dtype=float)
    if B.ndim != 2 or B.shape[1] != mech.n:
        raise ValueError("profile matrix arity mismatch")
    if not np.all(B >= 0.0):
        raise ValueError("bids must be nonnegative")
    rows = B.shape[0]
    best, second = mech.vvs[0].phi(B[:, 0]), np.full(rows, -np.inf)
    win, lower = np.zeros(rows, dtype=np.intp), np.zeros(rows, dtype=bool)
    for j in range(1, mech.n):
        phi = mech.vvs[j].phi(B[:, j])
        new = phi > best
        lower &= phi <= second
        lower |= new
        np.maximum(second, np.minimum(best, phi), out=second)
        np.maximum(best, phi, out=best)
        np.maximum(win, new * j, out=win)
    win = (win + 1) * (best >= 0) - 1
    payments = np.zeros(rows)
    for j, vv in enumerate(mech.vvs):
        won = np.flatnonzero(win == j)
        r = second[won]
        payments[won] = vv.inverse(np.maximum(r, 0.0), lower[won] & (r >= 0))
    return win, payments


def row_major_sample_profiles(prod, count, seed, first_profile=0):
    """ProductDist.sample_profiles as it was before bidder-major storage: a
    C-order (count, n) matrix filled one bidder column at a time.  A
    reference for bit-identity."""
    u = profile_uniforms(seed, first_profile, count, prod.n)
    out = np.empty_like(u)
    for j, dist in enumerate(prod.components):
        out[:, j] = dist._ppf(u[:, j])
    return out


def unblocked_rev_monte_carlo(mechs, d_true, n_draws, seed):
    """(means, cov) of revenue.rev_monte_carlo as it was before blocks: one
    sample_profiles call and one payments_batch call per mechanism for each
    whole chunk.  A reference for bit-identity."""
    from robust_auctions.revenue import _CHUNK

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
        chunk_co = np.array([[np.sum(a * b) for b in devs] for a in devs])
        delta = chunk_mean - mean
        co += chunk_co + np.multiply.outer(delta, delta) * (done * take
                                                            / (done + take))
        mean += delta * (take / (done + take))
        done += take
    return tuple(t / n_draws for t in totals), co / n_draws / n_draws


def per_cell_sweep(cfg):
    """harness.run_sweep as it was before cells shared Monte Carlo passes:
    every cell learns its own mechanism and takes its own pass against the
    truth mechanism (`per_cell`).  A reference for bit-identity."""
    truths = cfg.dists()
    corrupted = {a: [corrupt(d, cfg.adversary, a) for d in truths]
                 for a in set(cfg.alphas)}
    bench = (truth_mechanism(ProductDist(truths), cfg.kind)
             if len(truths) > 1 else None)
    cells = [(a, m, s) for a in cfg.alphas for m in (cfg.ms or [None])
             for s in cfg.seeds]
    rows = [per_cell(cfg, *c, corrupted[c[0]], bench) for c in cells]
    rows.sort(key=lambda r: (r["alpha"], r["m"], r["seed"]))
    return rows


def per_cell(cfg, alpha, m, seed, corrupted, bench):
    """One sweep cell as harness.run_cell ran it, learning and evaluating,
    with revenue.revenue_ratio_detail's body inlined."""
    truths = cfg.dists()
    n = len(truths)
    if m is None:
        mech = population_robust_myerson(ProductDist(corrupted), [alpha] * n,
                                         cfg.kind)
    else:
        profiles = ProductDist(corrupted).sample_profiles(int(m), seed)
        mech = robust_empirical_myerson([profiles[:, j] for j in range(n)],
                                        [alpha] * n, cfg.delta, cfg.kind)
    d_true = ProductDist(truths)
    if mech.n == 1:     # exact: no draws, so no variance
        _, opt = opt_single(d_true.components[0])
        rev = revenue_at_reserve(d_true.components[0], mech.reserves[0])
        cov = np.zeros((2, 2))
    else:
        est = rev_monte_carlo([bench, mech], d_true, cfg.mc_draws,
                              seed + _EVAL_SEED_OFFSET)
        (opt, rev), cov = est.means, est.cov
    if opt <= 0:
        raise ValueError("zero OPT")
    ratio = rev / opt
    var = max(cov[1, 1] - 2 * ratio * cov[0, 1] + ratio * ratio * cov[0, 0], 0.0)
    detail = ratio, 1.96 * float(np.sqrt(var)) / opt, opt, rev
    return result_row(n, cfg.kind, cfg.adversary, alpha,
                      0 if m is None else int(m), seed, *detail)


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


@contextlib.contextmanager
def time_limit(seconds: int):
    """Fail, rather than hang, a block still running after `seconds`: a
    SIGALRM raises TimeoutError between two Python bytecodes (main thread,
    POSIX only)."""
    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")
    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


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
