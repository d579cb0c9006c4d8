"""Tests for revenue_at_reserve / opt_single / Monte Carlo estimates and the
population-level revenue inequalities they are meant to satisfy."""

import numpy as np
import pytest
from _gen import (atomic_cases, mean_and_half_width, random_link_cdf,
                  searched_opt_single, truncate)

from robust_auctions.ball import minimal_in_ks_ball
from robust_auctions.distributions import (
    AppxC2,
    EqualRevenue,
    Exponential,
    PointMass,
    ProductDist,
    Uniform,
    UpShift,
    ks_distance,
)
from robust_auctions.myerson import Mechanism
from robust_auctions.oracle import dominates
from robust_auctions.revenue import (
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


def test_opt_single_equal_revenue_is_flat():
    # every price in [1, 20] earns exactly 1
    d = EqualRevenue(1.0, 20.0)
    for p in [1.0, 3.7, 20.0]:
        np.testing.assert_allclose(revenue_at_reserve(d, p), 1.0,
                                   rtol=0, atol=1e-12)
    r, opt = opt_single(d)
    np.testing.assert_allclose(opt, 1.0, rtol=0, atol=1e-9)
    assert 1.0 <= r <= 20.0


def test_rev_monte_carlo_exponential_posted_price():
    """A reserve-1 mechanism on Exponential(1) earns e^{-1} per draw in
    expectation; the estimate must cover that and repeat bit for bit."""
    mech = Mechanism(kind="mhr", bidders=[_exp_link()])
    truth = ProductDist([Exponential(1.0)])
    est = rev_monte_carlo([mech], truth, 1_000_000, seed=42)
    assert est.n_draws == 1_000_000 and est.seed == 42
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
        ratio, ci, _, _ = revenue_ratio_detail(posted, truth, 20_000, seed,
                                               bench=bench)
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
    got_ratio, ci, opt, rev = revenue_ratio_detail(posted, truth, draws, seed,
                                                   bench=bench)
    np.testing.assert_allclose([mean, rev, opt, got_ratio],
                               [rev_i.mean(), rev_i.mean(), opt_i.mean(), ratio],
                               rtol=1e-12)
    np.testing.assert_allclose([hw, ci], [hw_rev, hw_ratio],
                               rtol=1e-9)


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
    """On purely atomic inputs opt_single reads F(atom-) off the atom table;
    the reserve and revenue are bit-identical to searching every atom."""
    for dist in atomic_cases(np.random.default_rng(29)):
        assert repr(opt_single(dist)) == repr(searched_opt_single(dist))
