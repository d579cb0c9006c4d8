"""Virtual values, reserves, and the truthful auction."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from robust_auctions.distributions import PiecewiseLinkCDF
from robust_auctions.links import link_origin
from robust_auctions.myerson import (
    Mechanism,
    _KnotRank,
    Outcome,
    VirtualValueFn,
    inverse_virtual,
    virtual_value,
)
from robust_auctions.oracle import grid_reserve
from robust_auctions.revenue import opt_single

from _gen import random_link_cdf, reference_payments


def _exp_link(top=4.0):
    # -log survival of exp(1), truncated at `top`
    return PiecewiseLinkCDF("mhr", [0.0, top], [0.0, top], top)


def test_phi_exponential():
    """Slope-1 mhr link is exp(1): phi(v) = v - 1, and the top atom takes
    virtual value equal to the top itself."""
    vv = VirtualValueFn(_exp_link())
    assert_allclose(vv.phi([0.0, 1.0, 2.5, 3.999]),
                    [-1.0, 0.0, 1.5, 2.999], atol=1e-12)
    assert vv.phi(4.0) == 4.0
    assert vv.reserve == 1.0


def test_phi_below_support_is_minus_inf():
    d = PiecewiseLinkCDF("mhr", [1.0, 3.0], [0.0, 2.0], 3.0)
    vv = VirtualValueFn(d)
    assert vv.phi(0.5) == -np.inf
    assert np.isfinite(vv.phi(1.0))


def test_inverse_exponential():
    vv = VirtualValueFn(_exp_link())
    assert vv.inverse(1.0) == 2.0
    assert vv.inverse(0.0) == 1.0
    assert vv.inverse(-5.0) == 0.0  # phi(0) = -1 already clears -5
    assert vv.inverse(3.5) == 4.0  # only the top atom clears 3.5


def test_regular_constant_pieces():
    """Regular link (0,1) -> (2,17/3): phi is -3/7 on [0,2), then the top."""
    d = PiecewiseLinkCDF("regular", [0.0, 2.0], [1.0, 17.0 / 3.0], 2.0)
    vv = VirtualValueFn(d)
    assert_allclose(vv.phi([0.0, 1.0, 1.999]), [-3 / 7] * 3, atol=1e-12)
    assert vv.phi(2.0) == 2.0
    assert vv.inverse(-3 / 7) == 0.0
    assert vv.inverse(-3 / 7, strict=True) == 2.0
    assert vv.reserve == 2.0


def test_optimal_reserve_three_knots():
    """Knots (0,0),(2,1),(4,5): the hazard kink at 2 is the best price and
    sells with probability exp(-1)."""
    d = PiecewiseLinkCDF("mhr", [0.0, 2.0, 4.0], [0.0, 1.0, 5.0], 4.0)
    res, rev = opt_single(d)
    assert res == 2.0
    assert_allclose(rev, 2.0 / np.e, atol=1e-12)


def test_optimal_reserve_interior_stationary_point():
    # single piece of slope 1/2: phi crosses zero at v = 2, inside (0, 4)
    d = PiecewiseLinkCDF("mhr", [0.0, 4.0], [0.0, 2.0], 4.0)
    res, rev = opt_single(d)
    assert_allclose(res, 2.0, atol=1e-12)
    assert_allclose(rev, 2.0 * np.exp(-1.0), atol=1e-12)


def test_public_wrappers_validate():
    d = _exp_link()
    assert_allclose(virtual_value(d, 2.0), 1.0, atol=1e-12)
    with pytest.raises(ValueError, match="v beyond support top"):
        virtual_value(d, 4.5)
    with pytest.raises(ValueError, match="v must be nonnegative"):
        virtual_value(d, -0.5)
    assert inverse_virtual(d, 1.0) == 2.0
    with pytest.raises(ValueError, match="t exceeds max virtual value"):
        inverse_virtual(d, 4.5)


def test_public_wrappers_reject_nan():
    # a NaN used to come back as NaN from virtual_value and as the support
    # top from inverse_virtual
    d = _exp_link()
    for x in (np.nan, [1.0, np.nan]):
        with pytest.raises(ValueError, match="v must not be NaN"):
            virtual_value(d, x)
        with pytest.raises(ValueError, match="t must not be NaN"):
            inverse_virtual(d, x)
    # and -inf on a flat first piece (phi = -inf there) gave NaN, not 0
    flat = PiecewiseLinkCDF("mhr", [0.0, 1.0, 3.0], [0.0, 0.0, 2.0], 3.0)
    assert inverse_virtual(flat, -np.inf) == 0.0
    assert inverse_virtual(flat, -1e300) == 1.0


def test_reserve_matches_argmax_without_gap():
    """With the support top at the last knot, the phi >= 0 threshold and the
    posted-price argmax coincide exactly."""
    rng = np.random.default_rng(12)
    for kind in ("mhr", "regular"):
        done = 0
        while done < 40:
            d = random_link_cdf(rng, kind, from_zero=True)
            if d.support_top() != d.xs[-1]:
                continue
            res, rev = opt_single(d)
            assert res == VirtualValueFn(d).reserve
            done += 1


def test_argmax_never_loses_to_threshold():
    # with a massless gap below the top atom the argmax can leave the phi
    # threshold behind, but must never fall below its revenue
    rng = np.random.default_rng(13)
    for kind in ("mhr", "regular"):
        for _ in range(60):
            d = random_link_cdf(rng, kind, from_zero=True)
            res, rev = opt_single(d)
            vres = VirtualValueFn(d).reserve
            assert rev >= vres * (1.0 - d.cdf_left(vres)) - 1e-12


def test_optimal_reserve_matches_grid_oracle():
    rng = np.random.default_rng(14)
    for kind in ("mhr", "regular"):
        for _ in range(25):
            d = random_link_cdf(rng, kind, from_zero=True)
            res, rev = opt_single(d)
            gres, grev = grid_reserve(d, 1e-5)
            assert rev >= grev - 1e-12
            assert abs(rev - grev) < 1e-4


def test_auction_worked_examples():
    mech = Mechanism("mhr", [_exp_link(), _exp_link()])
    assert mech.run([3.0, 2.0]) == Outcome(winner=0, payment=2.0)
    assert mech.run([2.0, 3.0]) == Outcome(winner=1, payment=2.0)
    assert mech.run([0.5, 0.4]) == Outcome(winner=None, payment=0.0)
    # exact tie: lowest index wins and pays the tying bid
    assert mech.run([1.5, 1.5]) == Outcome(winner=0, payment=1.5)
    # bids beyond the support top are clamped, not rejected
    assert mech.run([5.0, 2.0]) == Outcome(winner=0, payment=2.0)


def test_single_bidder_pays_reserve():
    mech = Mechanism("mhr", [_exp_link()])
    assert mech.run([3.0]) == Outcome(winner=0, payment=1.0)
    assert mech.run([0.9]) == Outcome(winner=None, payment=0.0)
    assert mech.reserves == [1.0]


def test_payments_batch_matches_run():
    rng = np.random.default_rng(31)
    bidders = [random_link_cdf(rng, "mhr", from_zero=True) for _ in range(3)]
    mech = Mechanism("mhr", bidders)
    profiles = rng.uniform(0.0, 6.0, size=(200, 3))
    winners, payments = mech.payments_batch(profiles)
    for row, w, p in zip(profiles, winners, payments):
        out = mech.run(row)
        assert out.winner == (None if w < 0 else w)
        assert out.payment == p


def test_winner_pays_at_most_bid_and_losers_nothing():
    rng = np.random.default_rng(32)
    for kind in ("mhr", "regular"):
        bidders = [random_link_cdf(rng, kind, from_zero=True)
                   for _ in range(4)]
        mech = Mechanism(kind, bidders)
        profiles = rng.uniform(0.0, 8.0, size=(500, 4))
        winners, payments = mech.payments_batch(profiles)
        sold = winners >= 0
        assert np.all(payments[~sold] == 0.0)
        clamped = np.minimum(profiles, [vv.top for vv in mech.vvs])
        win_bids = clamped[np.arange(len(winners)), winners]
        assert np.all(payments[sold] <= win_bids[sold] + 1e-9)
        assert np.all(payments[sold] >= 0.0)


def test_truthful_beats_misreports():
    """Spot DSIC check; the acceptance suite runs the heavyweight version."""
    rng = np.random.default_rng(33)
    bidders = [random_link_cdf(rng, "regular", from_zero=True)
               for _ in range(3)]
    mech = Mechanism("regular", bidders)
    values = rng.uniform(0.0, 6.0, size=(50, 3))
    winners, payments = mech.payments_batch(values)
    util_truth = np.zeros(len(values))
    sold = winners >= 0
    vals_w = values[np.arange(len(values)), winners]
    util_truth[sold] = (vals_w - payments)[sold]
    for _ in range(20):
        j = rng.integers(0, 3)
        lies = values.copy()
        lies[:, j] = rng.uniform(0.0, 8.0, size=len(values))
        w2, p2 = mech.payments_batch(lies)
        util_lie = np.where(w2 == j, values[:, j] - p2, 0.0)
        base = np.where(winners == j, util_truth, 0.0)
        assert np.all(util_lie <= base + 1e-9)


def test_raising_winning_bid_keeps_winning():
    rng = np.random.default_rng(34)
    bidders = [random_link_cdf(rng, "mhr", from_zero=True) for _ in range(3)]
    mech = Mechanism("mhr", bidders)
    profiles = rng.uniform(0.0, 6.0, size=(300, 3))
    winners, payments = mech.payments_batch(profiles)
    sold = winners >= 0
    bumped = profiles.copy()
    bumped[np.arange(len(winners)), winners] += rng.uniform(
        0.1, 2.0, size=len(winners))
    w2, p2 = mech.payments_batch(bumped)
    assert np.all(w2[sold] == winners[sold])
    # threshold payments do not move with the winner's own bid
    assert_allclose(p2[sold], payments[sold], atol=1e-12)


def test_mechanism_dict_roundtrip():
    rng = np.random.default_rng(35)
    bidders = [random_link_cdf(rng, "regular", from_zero=True)
               for _ in range(2)]
    mech = Mechanism("regular", bidders, alpha=[0.05, 0.1],
                     provenance={"algorithm": "population"})
    d = mech.to_dict()
    assert d["n"] == 2
    assert [b["reserve"] for b in d["bidders"]] == mech.reserves
    clone = Mechanism.from_dict(d)
    assert clone.kind == mech.kind
    assert clone.alpha == [0.05, 0.1]
    assert clone.reserves == mech.reserves
    profiles = rng.uniform(0.0, 6.0, size=(100, 2))
    w1, p1 = mech.payments_batch(profiles)
    w2, p2 = clone.payments_batch(profiles)
    assert np.array_equal(w1, w2)
    assert_allclose(p1, p2, atol=0)


def test_auction_validation():
    mech = Mechanism("mhr", [_exp_link(), _exp_link()])
    with pytest.raises(ValueError, match="arity mismatch"):
        mech.run([1.0])
    with pytest.raises(ValueError, match="bids must be nonnegative"):
        mech.run([1.0, -2.0])
    # a NaN bid would otherwise win the argmax and cancel bidder 1's sale
    with pytest.raises(ValueError, match="bids must be nonnegative"):
        mech.run([np.nan, 2.0])
    with pytest.raises(ValueError, match="bids must be nonnegative"):
        mech.payments_batch(np.array([[np.nan, 2.0]]))
    with pytest.raises(ValueError, match="bids must be nonnegative"):
        mech.payments_batch(np.array([[-1.0, 2.0]]))
    with pytest.raises(ValueError, match="profile matrix arity mismatch"):
        mech.payments_batch(np.zeros((5, 3)))
    with pytest.raises(ValueError, match="need at least one bidder"):
        Mechanism("mhr", [])
    # a benchmark built in the wrong shape class would read a wrong OPT
    regular = PiecewiseLinkCDF("regular", [1.0, 2.0], [1.0, 2.0], 4.0)
    with pytest.raises(ValueError, match="kind 'mhr' but bidder 1 is 'regular'"):
        Mechanism("mhr", [regular, _exp_link()])


# ---------------------------------------------------------------------------
# the bucketed knot lookup and the top-two payment reduction
# ---------------------------------------------------------------------------


def _knot_table(rng, size, scale, spacing):
    """A strictly increasing table of `size` knots near `scale`."""
    if spacing == "uniform":
        xs = rng.uniform(0.0, scale, size)
    elif spacing == "heavy":       # equal-revenue quantiles: lo / (1 - q)
        xs = scale / (1.0 - rng.uniform(0.0, 1.0 - 1e-9, size))
    elif spacing == "clustered":   # dense clumps far apart
        xs = scale * (rng.integers(0, 4, size) * 1e3
                      + rng.uniform(0.0, 1e-6, size))
    else:                          # consecutive floats
        xs = scale + np.arange(size) * np.spacing(scale)
    xs = np.unique(xs)
    return xs if xs.size else np.array([scale])


@settings(deadline=None, max_examples=150)
@given(seed=st.integers(0, 2 ** 32 - 1), log_size=st.floats(0.0, 4.0),
       log_scale=st.integers(-12, 12),
       spacing=st.sampled_from(["uniform", "heavy", "clustered", "ulps"]))
def test_knot_rank_equals_searchsorted(seed, log_size, log_scale, spacing):
    """The bucketed rank is np.searchsorted(knots, a, "right") bit for bit,
    at exact knots, one ulp either side of each, 0, the top, beyond the top,
    +inf and random points, on 1 to 10^4 knots at scales 1e-12 to 1e12."""
    rng = np.random.default_rng(seed)
    knots = _knot_table(rng, int(10 ** log_size), 10.0 ** log_scale, spacing)
    top = knots[-1]
    queries = np.concatenate([
        knots, np.nextafter(knots, -np.inf), np.nextafter(knots, np.inf),
        [0.0, -0.0, top, 2 * top, np.finfo(float).max, np.inf, -np.inf],
        rng.uniform(0.0, 2 * top, 500)])
    rank = _KnotRank(knots)
    assert np.array_equal(rank(queries),
                          np.searchsorted(knots, queries, side="right"))


def test_knot_rank_degenerate_tables():
    for knots in ([0.0], [3.5], [0.0, 5e-324], [0.0, 1e-310, 1.0],
                  [1e-300, 1e300]):
        knots = np.asarray(knots)
        q = np.concatenate([knots, np.nextafter(knots, -np.inf),
                            np.nextafter(knots, np.inf), [0.0, np.inf]])
        assert np.array_equal(_KnotRank(knots)(q),
                              np.searchsorted(knots, q, side="right"))


@settings(deadline=None, max_examples=120)
@given(seed=st.integers(0, 2 ** 32 - 1), kind=st.sampled_from(["mhr", "regular"]),
       n=st.integers(1, 4), decimals=st.integers(0, 2), shared=st.booleans())
def test_payments_batch_equals_prefix_suffix_reference(seed, kind, n,
                                                        decimals, shared):
    """The top-two reduction gives the winners and payments of the
    prefix/suffix maxima algorithm bit for bit.  Rounded bids, knots and
    support tops as bids, and (with `shared`) bidders drawing the same CDF
    force exact virtual-value ties across bidders."""
    rng = np.random.default_rng(seed)
    pool = [random_link_cdf(rng, kind, from_zero=bool(rng.random() < 0.5))
            for _ in range(1 if shared else n)]
    bidders = [pool[int(rng.integers(0, len(pool)))] for _ in range(n)]
    mech = Mechanism(kind, bidders)
    profiles = np.round(rng.uniform(0.0, 8.0, size=(400, n)), decimals)
    for j, b in enumerate(bidders):
        rows = rng.integers(0, 400, size=80)
        profiles[rows, j] = rng.choice(np.append(b.xs, b.support_top()), 80)
    winners, payments = mech.payments_batch(profiles)
    ref_w, ref_p = reference_payments(mech, profiles)
    assert np.array_equal(winners, ref_w)
    assert payments.tobytes() == ref_p.tobytes()


def _scaled_link_cdf(rng, kind, scale, near_collinear):
    """A random link CDF whose values live at `scale`; with `near_collinear`
    consecutive slopes differ by at most 1e-9 relative (or not at all)."""
    k = int(rng.integers(2, 7))
    xs = scale * np.concatenate(([0.0], np.cumsum(rng.uniform(0.2, 1.5, k - 1))))
    if rng.random() < 0.3:
        xs = xs + scale * rng.uniform(0.0, 0.5)
    if near_collinear:
        steps = rng.uniform(0.0, 1e-9, k - 1) * (rng.random(k - 1) < 0.7)
        slopes = rng.uniform(0.1, 1.0) * np.cumprod(1.0 + steps)
    else:
        slopes = np.cumsum(rng.uniform(0.1, 1.0, k - 1))
    slopes = slopes / scale
    h0 = link_origin(kind) + rng.uniform(0.0, 1.0)
    hs = np.concatenate(([h0], h0 + np.cumsum(slopes * np.diff(xs))))
    top = xs[-1] + (scale * rng.uniform(0.1, 1.5) if rng.random() < 0.5 else 0.0)
    return PiecewiseLinkCDF(kind, xs, hs, top)


@settings(deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), kind=st.sampled_from(["mhr", "regular"]),
       n=st.integers(1, 3), log_scale=st.sampled_from([-12, 0, 12]),
       near_collinear=st.booleans(), shared=st.booleans())
def test_dsic_ir_and_monotone_at_extreme_scales(seed, kind, n, log_scale,
                                                near_collinear, shared):
    """On random link CDFs at value scales 1e-12, 1 and 1e12: no bidder
    gains by misreporting on a grid of deviations, the winner pays at most
    their bid, and raising the winner's bid keeps the winner and the
    payment.  Knots and support tops are among the values and deviations,
    and with `shared` every bidder draws the same CDF, so that virtual
    values tie."""
    rng = np.random.default_rng(seed)
    scale = 10.0 ** log_scale
    bidders = [_scaled_link_cdf(rng, kind, scale, near_collinear)
               for _ in range(1 if shared else n)] * (n if shared else 1)
    mech = Mechanism(kind, bidders)
    tops = np.array([vv.top for vv in mech.vvs])
    values = rng.uniform(0.0, 1.2, size=(200, n)) * tops
    for j, b in enumerate(bidders):
        rows = rng.integers(0, 200, size=40)
        values[rows, j] = rng.choice(np.append(b.xs, b.support_top()), 40)
    tol = 1e-9 * tops.max()
    rows = np.arange(len(values))
    winners, payments = mech.payments_batch(values)
    sold = winners >= 0
    assert np.all(payments[~sold] == 0.0)
    win_values = np.minimum(values, tops)[rows, winners]
    assert np.all(payments[sold] <= win_values[sold] + tol)
    util = np.where(sold, values[rows, winners] - payments, 0.0)

    for j, b in enumerate(bidders):
        truthful = np.where(winners == j, util, 0.0)
        for dev in np.concatenate((np.linspace(0.0, 1.1 * tops[j], 25),
                                   b.xs, [b.support_top()])):
            lies = values.copy()
            lies[:, j] = dev
            w_lie, p_lie = mech.payments_batch(lies)
            gain = np.where(w_lie == j, values[:, j] - p_lie, 0.0) - truthful
            assert gain.max() <= tol, (j, dev)

    raised = values.copy()
    raised[rows[sold], winners[sold]] *= 1.5
    w_up, p_up = mech.payments_batch(raised)
    assert np.array_equal(w_up[sold], winners[sold])
    assert p_up[sold].tobytes() == payments[sold].tobytes()
