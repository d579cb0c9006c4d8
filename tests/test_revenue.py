"""Tests for revenue_at_reserve / opt_single / Monte Carlo estimates and the
population-level revenue inequalities they are meant to satisfy."""

import tracemalloc

import numpy as np
import pytest
from _gen import (atomic_cases, dip_link_cdfs, grid_opt_single,
                  mean_and_half_width, random_link_cdf, random_step_cdf,
                  searched_opt_single, time_limit, truncate,
                  unblocked_rev_monte_carlo)
from _oracle import dominates

from robust_auctions import distributions, revenue
from robust_auctions.adversary import corrupt
from robust_auctions.ball import minimal_in_ks_ball
from robust_auctions.distributions import (
    AppxC1,
    AppxC2,
    DownShiftSpike,
    EqualRevenue,
    Exponential,
    PointMass,
    ProductDist,
    Uniform,
    UpShift,
    ks_distance,
    parse_dist_spec,
)
from robust_auctions.myerson import Mechanism
from robust_auctions.pipeline import population_robust_myerson
from robust_auctions.revenue import (
    _BLOCK,
    _CHUNK,
    _ratios,
    opt_single,
    rev_monte_carlo,
    revenue_at_reserve,
    revenue_ratio_detail,
    truth_mechanism,
)


def _exp_link(rate=1.0, top=4.0):
    """Exponential(rate) truncated at `top`, as an exact mhr link CDF."""
    from robust_auctions.distributions import PiecewiseLinkCDF

    return PiecewiseLinkCDF("mhr", [0.0, top], [0.0, rate * top], top)


def test_revenue_at_reserve_exponential():
    d = Exponential(1.0)
    for p in [0.0, 0.3, 1.0, 2.5]:
        np.testing.assert_allclose(revenue_at_reserve(d, p), p * np.exp(-p),
                                   rtol=0, atol=1e-12)


def test_revenue_at_reserve_rejects_negative_price():
    # NaN and +-inf prices used to come back as a NaN revenue
    for price in (-0.1, np.nan, np.inf, -np.inf, [1.0, np.nan], [2.0, -1.0]):
        with pytest.raises(ValueError, match="price must be nonnegative and finite"):
            revenue_at_reserve(Exponential(1.0), price)


def test_revenue_at_reserve_takes_arrays():
    d = Exponential(1.0)
    prices = np.array([0.0, 0.3, 1.0, 2.5])
    revs = revenue_at_reserve(d, prices)
    assert isinstance(revs, np.ndarray) and revs.shape == prices.shape
    assert type(revenue_at_reserve(d, 1.0)) is float
    assert revs.tolist() == [revenue_at_reserve(d, p) for p in prices]


def test_opt_single_frozen_values():
    r, opt = opt_single(Exponential(1.0))
    assert abs(r - 1.0) < 1e-6
    np.testing.assert_allclose(opt, np.exp(-1.0), rtol=0, atol=1e-9)

    r, opt = opt_single(Uniform(0.0, 1.0))
    assert abs(r - 0.5) < 1e-6
    np.testing.assert_allclose(opt, 0.25, rtol=0, atol=1e-9)

    r, opt = opt_single(PointMass(2.0))
    assert r == 2.0 and opt == 2.0

    # constant-virtual-value member: revenue x * S(x) = x / (x - 1) on
    # [2, inf) is maximized at the bottom of the support
    r, opt = opt_single(AppxC2(1, 0.5, "l"))
    np.testing.assert_allclose([r, opt], [2.0, 2.0], rtol=0, atol=1e-9)


def test_opt_single_zoom_is_the_one_bracket_zoom():
    """opt_single's zoom, the one-bracket helper it shares with
    ks_distance, gives the price and revenue of the reference zoom
    (`_gen.grid_opt_single`) bit for bit, on the inputs that still zoom:
    the corruption wrappers over non-atomic bases.  The parametric types
    price in closed form (`test_opt_single_closed_forms_against_the_grid`),
    atomic inputs by their best atom."""
    for d in (UpShift(Exponential(1.0), 0.05),
              UpShift(EqualRevenue(1.0, 20.0), 0.05),
              corrupt(Uniform(0.0, 3.0), "shift:down", 0.05),
              corrupt(Exponential(0.3), "tailspike:1.0", 0.05),
              corrupt(AppxC2(3, 0.5, "h"), "shift:down", 0.05)):
        assert opt_single(d) == grid_opt_single(d)


def test_opt_single_closed_forms_against_the_grid():
    """Exp, U, eqrev, appxC1 and appxC2 price in closed form, and beat the
    grid path (`_gen.grid_opt_single`, what they took before and what
    the wrappers still take): never below its revenue by more than 2 ulp,
    the rounding of p (1 - F(p-)) at the grid's prices next to the peak,
    with the reserve within 1e-6 relative of its reserve.  Below a reserve
    of 1 the grid's 1e-6 stop is absolute, so its reserve is that of its
    quantile grid, 5e-6 apart in F: within 1e-5 relative there.  The scale
    families run over 2^-40 .. 2^40 (eqrev, which needs lo >= 1, over
    2^0 .. 2^40); the confusable families are not scale families and run
    over their (n, beta) instead.  eqrev earns lo at every price in
    [lo, cap], and its smallest argmax is lo with revenue lo, exactly,
    where the grid overstates it."""
    dists = [AppxC1(n, beta, which) for n in (3, 5, 10, 100)
             for beta in (0.1, 0.3164, 0.5, 0.9) for which in "lh"]
    dists += [AppxC2(n, beta, which) for n in (1, 3, 10)
              for beta in (0.1, 0.3164, 0.5, 0.9) for which in "lh"]
    for k in range(-40, 41, 8):
        c = 2.0 ** k
        dists += [Exponential(1.0 / c), Exponential(0.3 / c),
                  Uniform(0.0, c), Uniform(0.5 * c, 3.0 * c),
                  Uniform(0.6 * c, c)]
    for d in dists:
        (x, rev), (gx, grev) = opt_single(d), grid_opt_single(d)
        assert rev >= grev - 2 * np.spacing(grev), (d, rev, grev)
        assert abs(x - gx) <= (1e-6 if x >= 1.0 else 1e-5) * x, (d, x, gx)
    assert opt_single(EqualRevenue(1.0, 50.0)) == (1.0, 1.0)
    assert opt_single(EqualRevenue(1.0, 1e10))[1] == 1.0
    assert grid_opt_single(EqualRevenue(1.0, 50.0))[1] > 1.0
    for k in range(0, 41, 8):
        c = 2.0 ** k
        for cap in (1.0 + 2.0 ** -30, 20.0, 1e10):
            assert opt_single(EqualRevenue(c, cap * c)) == (c, c)


def test_opt_single_equal_revenue_is_flat():
    # every price in [1, 20] earns exactly 1
    d = EqualRevenue(1.0, 20.0)
    for p in [1.0, 3.7, 20.0]:
        np.testing.assert_allclose(revenue_at_reserve(d, p), 1.0,
                                   rtol=0, atol=1e-12)
    r, opt = opt_single(d)
    np.testing.assert_allclose(opt, 1.0, rtol=0, atol=1e-9)
    assert 1.0 <= r <= 20.0


def test_opt_single_returns_at_large_value_scales():
    """Past prices of about 2**33 the float spacing exceeds the 1e-6 stop,
    and the refinement bracket becomes two adjacent floats: the zoom stops
    there instead of returning the same bracket forever.  Scaling a truth
    by a power of two c scales its OPT by c."""
    makers = (lambda c: Exponential(1.0 / c),
              lambda c: Uniform(0.5 * c, 2.0 * c),
              lambda c: EqualRevenue(c, 20.0 * c),
              lambda c: UpShift(Exponential(1.0 / c), 0.05))
    for make in makers:
        _, unit = opt_single(make(1.0))
        for k in (34, 40, 100):
            c = 2.0 ** k
            with time_limit(10):
                _, opt = opt_single(make(c))
            np.testing.assert_allclose(opt, c * unit, rtol=1e-9, atol=0)
    cases = ((Exponential(1e-10), 1e10 / np.e), (Uniform(1e12, 3e12), 1.125e12),
             (EqualRevenue(1e12, 1e14), 1e12))
    for d, want in cases:
        with time_limit(10):
            _, opt = opt_single(d)
        np.testing.assert_allclose(opt, want, rtol=1e-9, atol=0)


def test_rev_monte_carlo_exponential_posted_price():
    """A reserve-1 mechanism on Exponential(1) earns e^{-1} per draw in
    expectation; the estimate must cover that and repeat bit for bit."""
    mech = Mechanism(kind="mhr", bidders=[_exp_link()])
    truth = ProductDist([Exponential(1.0)])
    est = rev_monte_carlo([mech], truth, 1_000_000, seed=42)
    assert est.n_draws == 1_000_000
    mean, hw = mean_and_half_width(est)
    assert hw < 2e-3
    assert abs(mean - np.exp(-1.0)) <= 3 * hw
    again = rev_monte_carlo([mech], truth, 1_000_000, seed=42)
    assert again.means == est.means
    assert np.array_equal(again.cov, est.cov)


def test_rev_monte_carlo_zero_when_reserve_above_support():
    mech = Mechanism(kind="mhr", bidders=[_exp_link(rate=0.5)])  # reserve 2
    assert mech.reserves == [2.0]
    est = rev_monte_carlo([mech], ProductDist([PointMass(1.0)]), 5000, seed=3)
    assert mean_and_half_width(est) == (0.0, 0.0)


def test_revenue_ratio_truth_mechanism_single_bidder():
    truth = ProductDist([Exponential(1.0)])
    mech = truth_mechanism(truth, "mhr")
    assert mech.provenance["role"] == "benchmark"
    ratio, ci = revenue_ratio_detail(mech, truth, 1000, seed=0)[:2]
    assert ci == 0.0
    assert 1.0 - 1e-6 <= ratio <= 1.0 + 1e-12


def test_revenue_ratio_posted_price_two_over_e():
    # reserve 2 on Exponential(1): 2 e^{-2} / e^{-1} = 2 / e
    truth = ProductDist([Exponential(1.0)])
    mech = Mechanism(kind="mhr", bidders=[_exp_link(rate=0.5)])
    ratio, ci, opt, rev = revenue_ratio_detail(mech, truth, 1000, seed=0)
    assert ci == 0.0
    np.testing.assert_allclose(rev, 2 * np.exp(-2.0), rtol=0, atol=1e-12)
    np.testing.assert_allclose(ratio, 2 / np.e, rtol=0, atol=1e-8)


def test_revenue_ratio_two_bidders_benchmark_and_suboptimal():
    truth = ProductDist([Exponential(1.0), Exponential(1.0)])
    bench = truth_mechanism(truth, "mhr")
    # common random numbers make the benchmark ratio exactly one, and every
    # per-draw residual rev_i - ratio * opt_i zero, so the paired ci is too
    ratio, ci = revenue_ratio_detail(bench, truth, 200_000, seed=11)[:2]
    assert ratio == 1.0
    assert ci == 0.0
    posted = Mechanism(kind="mhr", bidders=[_exp_link(rate=0.5)] * 2)
    ratio2, ci2 = revenue_ratio_detail(posted, truth, 200_000, seed=11)[:2]
    assert ratio2 <= 1.0 + 3 * (ci + ci2)
    assert ratio2 > 0.3


def test_revenue_ratio_ci_covers_exact_ratio():
    """Two Exp(1) bidders: reserve-2 second price against the Myerson
    auction (reserve 1).  With R(r) = 2r e^-r - e^-2r (2r - 1) / 2 the exact
    ratio is R(2) / R(1).  Over the fixed seeds 0..199 at 2e4 draws, the
    paired 95% half width must cover it on 92-98% of seeds: an interval
    hundreds of times too wide covers every seed and fails."""
    def rev(r):
        return 2 * r * np.exp(-r) - np.exp(-2 * r) * (2 * r - 1) / 2

    exact = rev(2.0) / rev(1.0)
    assert abs(exact - 0.76915792827) < 1e-10
    truth = ProductDist([Exponential(1.0)] * 2)
    bench = truth_mechanism(truth, "mhr")
    posted = Mechanism(kind="mhr", bidders=[_exp_link(rate=0.5)] * 2)
    covered = 0
    for seed in range(200):
        ratio, ci, _, _ = _ratios(bench, [posted], truth, 20_000, seed)[0]
        covered += abs(ratio - exact) <= ci
    assert 0.92 <= covered / 200 <= 0.98


def test_chunk_moments_merge_to_the_one_pass_values(monkeypatch):
    """With chunks of 997 draws, the merged co-moments give the standard
    errors of one pass over all the payments (rev_monte_carlo's and the
    paired ratio's), and the chunk sums the same means."""
    import robust_auctions.revenue as revenue

    truth = ProductDist([Exponential(1.0), Uniform(0.0, 3.0)])
    bench = truth_mechanism(truth, "mhr")
    posted = Mechanism(kind="mhr", bidders=[_exp_link(rate=0.5)] * 2)
    draws, seed = 10_000, 5
    profiles = truth.sample_profiles(draws, seed)
    opt_i = bench.payments_batch(profiles)[1]
    rev_i = posted.payments_batch(profiles)[1]
    ratio = rev_i.mean() / opt_i.mean()
    hw_rev = 1.96 * rev_i.std() / np.sqrt(draws)
    hw_ratio = 1.96 * (rev_i - ratio * opt_i).std() / np.sqrt(draws) / opt_i.mean()

    monkeypatch.setattr(revenue, "_CHUNK", 997)
    mean, hw = mean_and_half_width(rev_monte_carlo([posted], truth, draws, seed))
    got_ratio, ci, opt, rev = _ratios(bench, [posted], truth, draws, seed)[0]
    np.testing.assert_allclose([mean, rev, opt, got_ratio],
                               [rev_i.mean(), rev_i.mean(), opt_i.mean(), ratio],
                               rtol=1e-12)
    np.testing.assert_allclose([hw, ci], [hw_rev, hw_ratio],
                               rtol=1e-9)


def _three_bidder_mechanisms():
    """The three-bidder instance (Exp(1), Exp(1/2), U[0, 3]) and three
    mechanisms on it: the truth mechanism, and population-robust ones
    learned at shift:down, alpha = 0.05, in the mhr and regular kinds."""
    truth = ProductDist([parse_dist_spec(s)
                         for s in ("exp:1.0", "exp:0.5", "unif:0:3")])
    corrupted = ProductDist([corrupt(d, "shift:down", 0.05)
                             for d in truth.components])
    return truth, [truth_mechanism(truth, "mhr")] + [
        population_robust_myerson(corrupted, [0.05] * 3, kind)
        for kind in ("mhr", "regular")]


def test_blocks_leave_the_chunk_moments_unchanged():
    """rev_monte_carlo samples and pays a block of rows at a time but sums
    over whole chunks: its means and covariance are those of one
    sample_profiles call per chunk, bit for bit, at draw counts on either
    side of a block edge and past a chunk edge, for one, two and three
    mechanisms.  Each co-moment is taken once and mirrored, so the
    covariance is exactly symmetric."""
    truth, mechs = _three_bidder_mechanisms()
    for k in (1, 2, 3):
        for draws in (1, _BLOCK - 1, _BLOCK + 1, _CHUNK + 12_345):
            est = rev_monte_carlo(mechs[:k], truth, draws, seed=11)
            means, cov = unblocked_rev_monte_carlo(mechs[:k], truth, draws,
                                                   seed=11)
            assert est.means == means, (k, draws)
            assert est.cov.tobytes() == cov.tobytes(), (k, draws)
            assert est.cov.tobytes() == est.cov.T.copy().tobytes()


def test_a_pass_pays_each_mechanism_as_it_pays_alone(monkeypatch):
    """In a pass over k mechanisms, which share each block's bid ranks, every
    mechanism's row of the block's one `_pay` is what its own payments_batch
    pays on the block, bit for bit; so its mean and variance are those of a
    pass over it alone."""
    import robust_auctions.revenue as revenue

    truth, mechs = _three_bidder_mechanisms()
    rng = np.random.default_rng(8)
    kinds = [m.kind for m in mechs]
    mechs += [Mechanism(kind, [random_link_cdf(rng, kind) for _ in range(3)])
              for kind in kinds]
    pay = revenue._pay
    blocks = []

    def checked(pass_mechs, profiles, pays, *ranks):
        wins = pay(pass_mechs, profiles, pays, *ranks)
        for mech, win, row in zip(pass_mechs, wins, pays):
            alone = mech.payments_batch(profiles)
            assert np.array_equal(win.astype(np.intp) - 1, alone[0])
            assert row.tobytes() == alone[1].tobytes()
        blocks.append(len(profiles))
        return wins

    monkeypatch.setattr(revenue, "_pay", checked)
    est = rev_monte_carlo(mechs, truth, _BLOCK + 17, seed=5)
    assert blocks == [_BLOCK, 17]
    monkeypatch.undo()
    for j, mech in enumerate(mechs):
        one = rev_monte_carlo([mech], truth, _BLOCK + 17, seed=5)
        assert one.means[0] == est.means[j]
        assert one.cov[0, 0] == est.cov[j, j]


def test_screened_pass_equals_the_unblocked_reference():
    """A pass gathers the rows any of its mechanisms contests, once, and
    scatters each mechanism's payments back: its means and covariance equal
    `_gen.unblocked_rev_monte_carlo`'s bit for bit across a chunk edge, in a
    pass with a dip mechanism, and in passes whose mechanisms contest
    different rows."""
    truth = ProductDist([Exponential(1.0), Uniform(0.0, 2.0)])
    rng = np.random.default_rng(2626)
    dip = Mechanism("mhr", [dip_link_cdfs()[0], random_link_cdf(rng, "mhr")])
    plain = [Mechanism(kind, [random_link_cdf(rng, kind, from_zero=True)
                              for _ in range(2)])
             for kind in ("mhr", "mhr", "regular", "regular")]
    profiles = truth.sample_profiles(1000, seed=4)
    masks = [m._screen(profiles, np.empty(len(profiles)))[1] for m in plain]
    assert not masks[0].all() and not np.array_equal(masks[0], masks[1])
    assert not np.array_equal(masks[2], masks[3])
    for mechs in ([dip, plain[0]], plain[:2], plain[2:]):
        est = rev_monte_carlo(mechs, truth, _CHUNK + 4321, seed=9)
        means, cov = unblocked_rev_monte_carlo(mechs, truth, _CHUNK + 4321,
                                               seed=9)
        assert est.means == means
        assert est.cov.tobytes() == cov.tobytes()


def test_monte_carlo_pass_holds_one_chunk_array_per_mechanism():
    """A pass over k mechanisms at _CHUNK + 12,345 draws holds the chunk's
    payments of each mechanism and one scratch product: a traced peak of
    at most k + 1.5 arrays of _CHUNK floats, the rest being blocks.
    (Deviations in new arrays, one per mechanism, put it at 2k + 1.05 to
    2k + 1.19.)"""
    truth, mechs = _three_bidder_mechanisms()
    rev_monte_carlo(mechs, truth, 10, seed=3)     # one-time allocations
    for k in (1, 2, 3):
        tracemalloc.start()
        try:
            rev_monte_carlo(mechs[:k], truth, _CHUNK + 12_345, seed=3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= (k + 1.5) * 8 * _CHUNK, (k, peak / (8 * _CHUNK))


def test_revenue_ratio_errors():
    mech = Mechanism(kind="mhr", bidders=[_exp_link()])
    with pytest.raises(ValueError, match="arity mismatch"):
        rev_monte_carlo([mech], ProductDist([Exponential(1.0)] * 2), 10, seed=0)
    with pytest.raises(ValueError, match="arity mismatch"):
        revenue_ratio_detail(mech, ProductDist([Exponential(1.0)] * 2), 10,
                             seed=0)
    with pytest.raises(ValueError, match="n_draws must be at least 1"):
        rev_monte_carlo([mech], ProductDist([Exponential(1.0)]), 0, seed=0)
    with pytest.raises(ValueError, match="zero OPT"):
        revenue_ratio_detail(mech, ProductDist([PointMass(0.0)]), 10, seed=0)


def test_a_pass_over_no_mechanism_raises_before_drawing(monkeypatch):
    """An empty mechanism list is a ValueError, and no profile is drawn."""
    def drawn(*args, **kwargs):
        raise AssertionError("a profile was drawn")

    monkeypatch.setattr(ProductDist, "sample_profiles", drawn)
    with pytest.raises(ValueError, match="need at least one mechanism"):
        rev_monte_carlo([], ProductDist([Exponential(1.0)] * 2), 10, seed=0)


def test_a_pass_takes_whole_numbers_only():
    """A seed or draw count that is not a whole number is a ValueError,
    never rounded down (a seed of 1.5 would reuse seed 1's stream, and 2.5
    draws would draw 2), and inf is no OverflowError.  numpy ints and whole
    floats such as 1e4 are the same pass as the ints."""
    mech = Mechanism(kind="mhr", bidders=[_exp_link()] * 2)
    truth = ProductDist([Exponential(1.0)] * 2)
    for draws, seed in ((10, 1.5), (2.5, 0), (float("inf"), 0),
                        (float("nan"), 0), (None, 0), (10, None)):
        with pytest.raises(ValueError, match="must be a whole number"):
            rev_monte_carlo([mech], truth, draws, seed)
    est = rev_monte_carlo([mech], truth, 10_000, seed=7)
    for draws, seed in ((np.int64(10_000), np.uint64(7)), (1e4, 7.0)):
        same = rev_monte_carlo([mech], truth, draws, seed)
        assert same.means == est.means and same.n_draws == 10_000
        assert same.cov.tobytes() == est.cov.tobytes()


# ---------------------------------------------------------------------------
# population-level inequalities
# ---------------------------------------------------------------------------


def test_strong_revenue_monotonicity():
    """A mechanism tuned for a dominated distribution earns weakly more when
    the bidders actually draw from a dominating one.

    Checked on 20 seeded pairs (D_lo = mass-shifted-down D_hi) with a
    three-sigma Monte Carlo allowance.
    """
    draws = 200_000
    for i in range(20):
        rng = np.random.default_rng(500 + i)
        kind = "mhr" if i % 2 == 0 else "regular"
        base = random_link_cdf(rng, kind, from_zero=True)
        alpha = float(rng.uniform(0.02, 0.15))
        lo = UpShift(base, alpha)
        assert dominates(base, lo)
        n = 1 + i % 3
        d_lo = ProductDist([lo] * n)
        d_hi = ProductDist([base] * n)
        mech = truth_mechanism(d_lo, kind)
        lo_mean, lo_hw = mean_and_half_width(
            rev_monte_carlo([mech], d_lo, draws, seed=1000 + i))
        hi_mean, hi_hw = mean_and_half_width(
            rev_monte_carlo([mech], d_hi, draws, seed=1000 + i))
        allowance = 3 * (lo_hw + hi_hw)
        assert hi_mean >= lo_mean - allowance, (
            f"pair {i}: {hi_mean} < {lo_mean} - {allowance}")


def _mean_and_hw(values):
    values = np.asarray(values, dtype=float)
    mean = float(values.mean())
    hw = 1.96 * float(values.std()) / np.sqrt(values.size)
    return mean, hw


def test_increasing_function_expectation_bound():
    """Moving each bidder's distribution by KS distance alpha_i moves the
    expectation of any bounded increasing profile function by at most
    u_bar * sum(alpha_i), up to Monte Carlo noise."""
    draws = 200_000
    u_bar = 2.0
    for i in range(10):
        rng = np.random.default_rng(7000 + i)
        n = 1 + i % 3
        comps, comps2, total_alpha = [], [], 0.0
        for j in range(n):
            kind = ("mhr", "regular")[(i + j) % 2]
            base = random_link_cdf(rng, kind, from_zero=True)
            a = float(rng.uniform(0.01, 0.08))
            moved = (UpShift(base, a) if rng.random() < 0.5 else
                     minimal_in_ks_ball(base, a, kind))
            comps.append(base)
            comps2.append(moved)
            total_alpha += ks_distance(base, moved)
        seed = 4000 + i
        p1 = ProductDist(comps).sample_profiles(draws, seed)
        p2 = ProductDist(comps2).sample_profiles(draws, seed)
        m1, h1 = _mean_and_hw(np.minimum(p1.max(axis=1), u_bar))
        m2, h2 = _mean_and_hw(np.minimum(p2.max(axis=1), u_bar))
        bound = u_bar * total_alpha + 3 * (h1 + h2)
        assert abs(m1 - m2) <= bound, f"instance {i}: {abs(m1 - m2)} > {bound}"


def test_truncation_preserves_most_revenue_exact_single_bidder():
    # truncating at u >= OPT / eps costs at most a 4*eps fraction of OPT
    for d in [Exponential(1.0), EqualRevenue(1.0, 50.0)]:
        _, opt = opt_single(d)
        for eps in [0.1, 0.25]:
            u = opt / eps
            _, opt_t = opt_single(truncate(d, u))
            assert opt + 1e-9 >= opt_t >= (1 - 4 * eps) * opt - 1e-9


@pytest.mark.parametrize("n", [2, 3])
def test_truncation_preserves_most_revenue_monte_carlo(n):
    draws = 400_000
    truth = ProductDist([Exponential(1.0)] * n)
    bench = truth_mechanism(truth, "mhr")
    mean, hw = mean_and_half_width(rev_monte_carlo([bench], truth, draws,
                                                   seed=21))
    for eps in [0.1, 0.25]:
        u = mean / eps
        trunc = ProductDist([truncate(Exponential(1.0), u)] * n)
        bench_t = truth_mechanism(trunc, "mhr")
        mean_t, hw_t = mean_and_half_width(rev_monte_carlo([bench_t], trunc,
                                                           draws, seed=22))
        allowance = 3 * (hw + hw_t)
        assert mean_t <= mean + allowance
        assert mean_t >= (1 - 4 * eps) * mean - allowance


def test_mhr_ball_opt_ratio_bounds():
    """How much optimal revenue the minimal mhr ball member can lose.

    With F1 the minimal member of the radius-alpha ball around F2,
    OPT(F1) >= r2 * S1(r2) >= r2 * (S2(r2) - alpha) = OPT(F2) - alpha * r2,
    so the ratio is at least 1 - alpha / S2(r2), where r2 is F2's optimal
    reserve and S2(r2) = OPT(F2) / r2 its sale probability.  When F2 is
    continuous with a non-decreasing hazard rate, S2(r2) >= 1/e, which turns
    that into the distribution-free floor 1 - alpha * e.  The same one-liner
    with the roles swapped caps the inverse ratio at 1 / (1 - alpha / S1(r1)).
    """
    rng = np.random.default_rng(909)
    bases = [Exponential(1.0), Uniform(0.0, 1.0), Uniform(0.5, 2.0)]
    bases += [random_link_cdf(rng, "mhr", from_zero=True) for _ in range(3)]
    checked_floor = 0
    for base in bases:
        r2, opt2 = opt_single(base)
        s2 = opt2 / r2
        for alpha in [0.02, 0.05, 0.1]:
            f1 = minimal_in_ks_ball(base, alpha, "mhr")
            a_eff = ks_distance(f1, base)
            assert a_eff <= alpha + 1e-3
            r1, opt1 = opt_single(f1)
            ratio = opt1 / opt2
            # dominated member never earns more
            assert ratio <= 1.0 + 1e-9
            # sharp per-pair floor
            assert ratio >= 1 - a_eff / s2 - 1e-3
            # distribution-free floor whenever the sale-probability premise
            # holds at the base's optimum
            if s2 >= 1 / np.e - 1e-9:
                assert ratio >= 1 - a_eff * np.e - 1e-3
                checked_floor += 1
            # swapped-roles ceiling
            s1 = opt1 / r1
            if a_eff < s1:
                assert 1.0 / ratio <= 1.0 / (1 - a_eff / s1) + 1e-3
    assert checked_floor >= 9


def test_regular_shading_revenue_floor():
    """Pricing with a dominating regular distribution F_bar loses at most a
    beta / (1 - F(P_bar)) fraction of F_bar's optimum when the truth F sits
    within KS distance beta below it."""
    rng = np.random.default_rng(313)
    checked = 0
    for i in range(24):
        base = random_link_cdf(rng, "regular", from_zero=True)
        beta = float(rng.uniform(0.01, 0.1))
        shaded = minimal_in_ks_ball(base, beta, "regular")
        assert dominates(base, shaded)
        beta_eff = ks_distance(base, shaded)
        p_bar, opt_bar = opt_single(base)
        _, opt_f = opt_single(shaded)
        cdf_at_p = float(shaded.cdf(p_bar))
        if cdf_at_p >= 1.0 - 1e-12:
            continue  # vacuous floor: 1/(1 - F) blows up
        floor = 1.0 - beta_eff / (1.0 - cdf_at_p)
        assert opt_f / opt_bar >= floor - 1e-6, f"case {i}"
        checked += 1
    assert checked >= 8


def test_opt_single_atomic_matches_searched_scan():
    """On purely atomic inputs opt_single reads F(atom-) off the atom table
    and takes the best atom: the reserve and revenue are bit-identical to
    searching every atom."""
    for dist in atomic_cases(np.random.default_rng(29)):
        assert repr(opt_single(dist)) == repr(searched_opt_single(dist))


def test_opt_single_takes_the_best_atom_without_the_zoom(monkeypatch):
    """A purely atomic input, bare or under either wrapper, gets its best
    atom back unzoomed: bit for bit the grid path with its zoom
    (`_gen.grid_opt_single`) and the searched scan, and the zoom
    (`distributions._refine_max`) is never called."""
    calls = []

    def spy(*args):
        calls.append(args)
        return distributions._refine_max(*args)

    assert revenue._refine_max is distributions._refine_max
    monkeypatch.setattr(revenue, "_refine_max", spy)
    rng = np.random.default_rng(31)
    cases = atomic_cases(rng)
    for _ in range(200):
        E = random_step_cdf(rng)
        cases += [E, UpShift(E, rng.uniform(0.01, 0.9)),
                  DownShiftSpike(E, rng.uniform(0.01, 0.9),
                                 rng.uniform(0.5, 15.0))]
    for dist in cases:
        assert dist.purely_atomic
        got = repr(opt_single(dist))
        assert got == repr(grid_opt_single(dist)), dist
        assert got == repr(searched_opt_single(dist)), dist
    assert calls == []
