"""Virtual values, reserves, and the truthful auction."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from robust_auctions.distributions import (PiecewiseLinkCDF, ProductDist,
                                           StepCDF, Uniform)
from robust_auctions.links import link_origin
from robust_auctions.myerson import (
    Mechanism,
    _KnotRank,
    VirtualValueFn,
    _pass_ranks,
    _rank_key,
)
from robust_auctions.revenue import opt_single, rev_monte_carlo, truth_mechanism

from _gen import (dip_link_cdfs, edge_bids, random_link_cdf,
                  reference_payments, searched_inverse, topped_payments,
                  unblocked_rev_monte_carlo)
from _oracle import grid_reserve


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
    vv = VirtualValueFn(_exp_link())
    assert_allclose(vv.phi(2.0), 1.0, atol=1e-12)
    assert vv.inverse(1.0) == 2.0


def test_public_wrappers_reject_nan():
    # a NaN used to come back as NaN from phi and as the support top from
    # inverse
    vv = VirtualValueFn(_exp_link())
    for x in (np.nan, [1.0, np.nan]):
        with pytest.raises(ValueError, match="v must not be NaN"):
            vv.phi(x)
        with pytest.raises(ValueError, match="t must not be NaN"):
            vv.inverse(x)
    # and -inf on a flat first piece (phi = -inf there) gave NaN, not 0
    flat = PiecewiseLinkCDF("mhr", [0.0, 1.0, 3.0], [0.0, 0.0, 2.0], 3.0)
    assert VirtualValueFn(flat).inverse(-np.inf) == 0.0
    assert VirtualValueFn(flat).inverse(-1e300) == 1.0


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


def _one_profile(mech, bids):
    """(winner, payment) of a one-row payments_batch; winner -1: no sale."""
    winners, payments = mech.payments_batch(np.asarray([bids], dtype=float))
    return int(winners[0]), float(payments[0])


def test_auction_worked_examples():
    mech = Mechanism("mhr", [_exp_link(), _exp_link()])
    assert _one_profile(mech, [3.0, 2.0]) == (0, 2.0)
    assert _one_profile(mech, [2.0, 3.0]) == (1, 2.0)
    assert _one_profile(mech, [0.5, 0.4]) == (-1, 0.0)
    # exact tie: lowest index wins and pays the tying bid
    assert _one_profile(mech, [1.5, 1.5]) == (0, 1.5)
    # bids beyond the support top are clamped, not rejected
    assert _one_profile(mech, [5.0, 2.0]) == (0, 2.0)


def test_single_bidder_pays_reserve():
    mech = Mechanism("mhr", [_exp_link()])
    assert _one_profile(mech, [3.0]) == (0, 1.0)
    assert _one_profile(mech, [0.9]) == (-1, 0.0)
    assert mech.reserves == [1.0]


def test_payments_batch_matches_one_row_calls():
    rng = np.random.default_rng(31)
    bidders = [random_link_cdf(rng, "mhr", from_zero=True) for _ in range(3)]
    mech = Mechanism("mhr", bidders)
    profiles = rng.uniform(0.0, 6.0, size=(200, 3))
    winners, payments = mech.payments_batch(profiles)
    for row, w, p in zip(profiles, winners, payments):
        assert _one_profile(mech, row) == (w, p)


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


@pytest.mark.parametrize("kind", ["mhr", "regular"])
def test_negative_zero_support_top_reads_as_zero(kind):
    """A one-knot link CDF at 0 whose support top is -0.0 is the +0.0 one:
    the same dict form, reserves and payments, bit for bit.  (Its ranks
    used to bin with scale -inf, and eval exited 2.)"""
    origin = link_origin(kind)
    neg, pos = (Mechanism(kind, [PiecewiseLinkCDF(kind, [0.0], [origin], top)
                                 for _ in range(2)]) for top in (-0.0, 0.0))
    assert repr(neg.to_dict()) == repr(pos.to_dict())
    assert np.array(neg.reserves).tobytes() == np.array(pos.reserves).tobytes()
    profiles = np.array([[0.0, 0.0], [0.0, 1.0], [2.0, 0.0]])
    for a, b in zip(neg.payments_batch(profiles), pos.payments_batch(profiles)):
        assert a.tobytes() == b.tobytes()


def test_auction_validation():
    mech = Mechanism("mhr", [_exp_link(), _exp_link()])
    for bids in ([[1.0]], [1.0, 2.0]):     # one bid short, or not a matrix
        with pytest.raises(ValueError, match="profile matrix arity mismatch"):
            mech.payments_batch(np.array(bids))
    with pytest.raises(ValueError, match="bids must be nonnegative"):
        mech.payments_batch(np.array([[1.0, -2.0]]))
    # a NaN bid would otherwise win the argmax and cancel bidder 1's sale
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


def _knot_table(rng, size, scale, spacing, ties=False):
    """An increasing table of about `size` knots near `scale`; with `ties`,
    some knots repeat."""
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
    if ties:
        xs = np.sort(np.concatenate((xs, rng.choice(xs, xs.size))))
    return xs if xs.size else np.array([scale])


@settings(deadline=None, max_examples=150)
@given(seed=st.integers(0, 2 ** 32 - 1), log_size=st.floats(0.0, 4.0),
       log_scale=st.integers(-12, 12),
       spacing=st.sampled_from(["uniform", "heavy", "clustered", "ulps"]),
       ties=st.booleans())
def test_knot_rank_equals_searchsorted(seed, log_size, log_scale, spacing,
                                       ties):
    """One bucketed rank is np.searchsorted(knots, a, side) bit for bit on
    either side, chosen per call, at exact knots, one ulp either side of
    each, 0, the top, beyond the top, +inf and random points, on 1 to 10^4
    knots at scales 1e-12 to 1e12, with and without repeated knots."""
    rng = np.random.default_rng(seed)
    knots = _knot_table(rng, int(10 ** log_size), 10.0 ** log_scale, spacing,
                        ties)
    top = knots[-1]
    queries = np.concatenate([
        knots, np.nextafter(knots, -np.inf), np.nextafter(knots, np.inf),
        [0.0, -0.0, top, 2 * top, np.finfo(float).max, np.inf, -np.inf],
        rng.uniform(0.0, 2 * top, 500)])
    rank = _KnotRank(knots)
    for side in ("left", "right"):
        assert np.array_equal(rank(queries, side),
                              np.searchsorted(knots, queries, side=side))


def test_knot_rank_degenerate_tables():
    """Each degenerate table alone, and all of them stacked in one rank with
    an empty table and a wide one, each query naming its table: the rank in
    a table, less its offset, is np.searchsorted there."""
    tables = [np.asarray(knots) for knots in (
        [0.0], [3.5], [0.0, 5e-324], [0.0, 1e-310, 1.0], [1e-300, 1e300],
        [2.0, 2.0], [0.0, 0.0, 1.0, 1.0, 1.0], [], np.linspace(0.0, 3.0, 999))]
    qs = [np.concatenate([knots, np.nextafter(knots, -np.inf),
                          np.nextafter(knots, np.inf), [0.0, 2.0, np.inf]])
          for knots in tables]
    which = np.repeat(np.arange(len(tables)), [q.size for q in qs])
    order = np.random.default_rng(25).permutation(which.size)
    q, which = np.concatenate(qs)[order], which[order]
    stacked = _KnotRank(*tables)
    for side in ("left", "right"):
        for knots, qw in zip(tables, qs):
            if knots.size:
                assert np.array_equal(_KnotRank(knots)(qw, side),
                                      np.searchsorted(knots, qw, side=side))
        want = np.choose(which, [np.searchsorted(knots, q, side=side)
                                 for knots in tables])
        got = stacked(q, side, which) - stacked.offsets.take(which)
        assert np.array_equal(got, want)


# the targets a strict rank must step past: the infinities, both zeros, the
# subnormals at either end and the largest floats
_EDGE_TARGETS = np.array([-np.inf, np.inf, 0.0, -0.0, 5e-324, -5e-324,
                          2.2250738585072009e-308, -2.2250738585072009e-308,
                          2.2250738585072014e-308, np.finfo(float).max,
                          -np.finfo(float).max])


@settings(deadline=None, max_examples=200)
@given(knots=st.lists(st.floats(-1e300, 1e300), min_size=1, max_size=40),
       repeat=st.integers(0, 3),
       extra=st.lists(st.floats(allow_nan=False), max_size=20))
def test_strict_rank_is_the_left_rank_of_the_next_float(knots, repeat, extra):
    """For knots of finite span, the right-side rank of t is the left-side
    rank of the next float above t, through the bucketed rank and through
    np.searchsorted alike, at the edge targets, at every knot, one ulp
    either side of each and at random floats.  inverse ranks strict targets
    so."""
    knots = np.sort(np.array(knots + knots[:repeat]))
    t = np.concatenate([knots, np.nextafter(knots, -np.inf),
                        np.nextafter(knots, np.inf), _EDGE_TARGETS, extra])
    with np.errstate(over="ignore"):
        up = np.nextafter(t, np.inf)
    right = np.searchsorted(knots, t, side="right")
    assert np.array_equal(np.searchsorted(knots, up, side="left"), right)
    rank = _KnotRank(knots)
    assert np.array_equal(rank(t, "right"), right)
    assert np.array_equal(rank(up, "left"), right)


# the targets named for the integer step, and random floats over 2^+-1000
_STEP_TARGETS = np.concatenate([
    [-np.inf, -1.0, -5e-324, -0.0, 0.0, 5e-324, 1.0, np.finfo(float).max,
     np.inf], _EDGE_TARGETS,
    np.random.default_rng(20).choice([-1.0, 1.0], 2000)
    * np.exp2(np.random.default_rng(21).uniform(-1000.0, 1000.0, 2000))])


def test_rank_key_is_nextafter_bit_for_bit():
    """The integer step on the bits is np.nextafter(t, max(t, +inf where
    strict, else -inf)) bit for bit, with -0.0 read as +0.0 (the one change:
    the two zeros rank alike), for a strict flag and a strict mask; and
    inverse, which ranks by it, is the searched reference on these
    targets."""
    t = _STEP_TARGETS
    mask = np.random.default_rng(22).random(t.size) < 0.5
    with np.errstate(over="ignore"):    # the largest float steps to inf
        for strict in (False, True, mask):
            away = np.where(strict, np.inf, -np.inf)
            want = np.nextafter(t + 0.0, np.maximum(t + 0.0, away))
            assert _rank_key(t, strict).tobytes() == want.tobytes()
            assert np.array_equal(_rank_key(t, strict),
                                  np.nextafter(t, np.maximum(t, away)))
    assert _rank_key(np.array([-0.0]), True)[0] == 5e-324
    assert _rank_key(np.array([-5e-324]), True).tobytes() == (
        np.array([-0.0]).tobytes())
    rng = np.random.default_rng(23)
    for kind in ("mhr", "regular"):
        for cdf in _INVERSE_CASES + [_tricky_link_cdf(rng, kind),
                                     random_link_cdf(rng, kind)]:
            vv = VirtualValueFn(cdf)
            for strict in (False, True):
                assert (vv.inverse(t, strict).tobytes()
                        == searched_inverse(vv, t, strict).tobytes())


@pytest.mark.parametrize("kind", ["mhr", "regular"])
def test_payments_batch_at_a_runner_up_phi_of_either_zero(kind):
    """A point mass at z = +0.0 or -0.0 (knot and support top) has phi =
    +0.0 at every bid: a -0.0 support top reads as +0.0.  A winner against
    it pays the threshold of a zero target, weak or strict by index.
    Payments equal the prefix/suffix reference bit for bit.  (inverse's own
    test above covers -0.0 targets.)"""
    rng = np.random.default_rng(24)
    for zero in (0.0, -0.0):
        flat = PiecewiseLinkCDF(kind, [zero], [link_origin(kind)], zero)
        phi = VirtualValueFn(flat).phi(np.array([0.0, 1.0]))
        assert phi.tobytes() == np.zeros(2).tobytes()
        for n in (2, 3):
            for at in range(n):
                others = [random_link_cdf(rng, kind, from_zero=True)
                          for _ in range(n - 1)]
                mech = Mechanism(kind, others[:at] + [flat] + others[at:])
                tops = np.array([vv.top for vv in mech.vvs])
                profiles = rng.uniform(0.0, 1.1, (400, n)) * tops
                winners, payments = mech.payments_batch(profiles)
                ref_w, ref_p = reference_payments(mech, profiles)
                assert np.array_equal(winners, ref_w)
                assert payments.tobytes() == ref_p.tobytes()
                # sales whose runner-up is the zero bidder: every other
                # loser has phi < 0
                phis = np.column_stack([vv.phi(profiles[:, j]) for j, vv
                                        in enumerate(mech.vvs)])
                phis[np.arange(400), np.maximum(winners, 0)] = -np.inf
                phis[:, at] = -np.inf
                assert np.any((winners >= 0) & (winners != at)
                              & (phis.max(axis=1) < 0.0)), (zero, n, at)


def _assert_masked_inverse_is_split(vv, rng):
    """inverse(t, strict=mask) is the strict call on t[mask] and the weak
    one on t[~mask], bit for bit."""
    t = np.concatenate([vv._sups, np.nextafter(vv._sups, -np.inf),
                        np.nextafter(vv._sups, np.inf), _EDGE_TARGETS,
                        [vv.top], rng.uniform(-0.5, 1.5 * vv.top, 100)])
    for t in (t, t[t >= 0.0]):      # with and without the negative targets
        mask = rng.random(t.size) < 0.5
        split = np.empty_like(t)
        split[mask] = vv.inverse(t[mask], True)
        split[~mask] = vv.inverse(t[~mask], False)
        assert vv.inverse(t, mask).tobytes() == split.tobytes()
        for strict in (False, True):
            assert (vv.inverse(t, np.full(t.size, strict)).tobytes()
                    == searched_inverse(vv, t, strict).tobytes())


@settings(deadline=None, max_examples=150)
@given(seed=st.integers(0, 2 ** 32 - 1), kind=st.sampled_from(["mhr", "regular"]))
def test_inverse_with_a_strict_mask_equals_the_split_calls(seed, kind):
    rng = np.random.default_rng(seed)
    for cdf in _INVERSE_CASES + [_tricky_link_cdf(rng, kind),
                                 random_link_cdf(rng, kind)]:
        _assert_masked_inverse_is_split(VirtualValueFn(cdf), rng)


def _dyadic_link_cdf(rng, kind):
    """A link CDF whose knots, 1/slopes and virtual values are multiples of
    1/64, so that bids on a 1/16 grid put virtual values exactly on the sups
    of other bidders."""
    k = int(rng.integers(1, 6))
    xs = np.cumsum(np.concatenate(([rng.choice([0.0, 0.0, 0.5])],
                                   rng.choice([0.25, 0.5, 1.0], k - 1))))
    slopes = np.sort(rng.choice([0.25, 0.5, 1.0, 2.0, 4.0], k - 1))
    h0 = link_origin(kind) + rng.choice([0.0, 0.5, 1.0])
    hs = h0 + np.concatenate(([0.0], np.cumsum(slopes * np.diff(xs))))
    return PiecewiseLinkCDF(kind, xs, hs, xs[-1] + rng.choice([0.0, 0.5]))


@pytest.mark.parametrize("kind", ["mhr", "regular"])
@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_payments_batch_equals_the_reference_in_every_row_case(kind, n):
    """payments_batch gives the winners and payments of the prefix/suffix
    reference bit for bit, on dyadic link CDFs (some shared by several
    bidders) and bids on a 1/16 grid that reach every case a row can take:
    exact virtual-value ties across bidders, phi = -inf below a first knot,
    a runner-up exactly at one of the winner's sups (so strict and weak
    thresholds differ), a runner-up of lower and of higher index, zero bids
    and no sale."""
    rng = np.random.default_rng(1000 * n + len(kind))
    hits = dict.fromkeys(["tie", "-inf", "at sup", "lower", "higher",
                          "zero", "no sale"], 0)
    for _ in range(30):
        pool = [_dyadic_link_cdf(rng, kind) for _ in range(int(rng.integers(1, n + 1)))]
        mech = Mechanism(kind, [pool[int(rng.integers(len(pool)))]
                                for _ in range(n)])
        tops = np.array([vv.top for vv in mech.vvs])
        profiles = np.floor(rng.uniform(0.0, 1.1, (500, n)) * tops * 16) / 16
        profiles[:40] = 0.0
        for j in range(1, n):       # copy another bidder's bid
            rows = rng.integers(0, 500, 100)
            profiles[rows, j] = profiles[rows, int(rng.integers(0, j))]
        winners, payments = mech.payments_batch(profiles)
        ref_w, ref_p = reference_payments(mech, profiles)
        assert np.array_equal(winners, ref_w)
        assert payments.tobytes() == ref_p.tobytes()

        phis = np.column_stack([vv.phi(profiles[:, j])
                                for j, vv in enumerate(mech.vvs)])
        order = np.argsort(-phis, axis=1, kind="stable")
        top2 = np.take_along_axis(phis, order[:, :2], axis=1) if n > 1 else None
        sold = winners >= 0
        hits["-inf"] += int(np.sum(np.isneginf(phis).any(axis=1)))
        hits["zero"] += int(np.sum(~sold & (profiles == 0.0).all(axis=1)))
        hits["no sale"] += int(np.sum(~sold))
        if n > 1:
            contested = sold & (top2[:, 1] >= 0.0)
            hits["tie"] += int(np.sum(contested & (top2[:, 0] == top2[:, 1])))
            hits["lower"] += int(np.sum(contested & (order[:, 1] < winners)))
            hits["higher"] += int(np.sum(contested & (order[:, 1] > winners)))
            for j, vv in enumerate(mech.vvs):
                won = contested & (winners == j)
                hits["at sup"] += int(np.sum(np.isin(top2[won, 1], vv._sups)))
    assert hits["no sale"] and hits["zero"] and hits["-inf"], hits
    assert n == 1 or all(hits.values()), hits


@settings(deadline=None, max_examples=120)
@given(seed=st.integers(0, 2 ** 32 - 1), kind=st.sampled_from(["mhr", "regular"]),
       n=st.integers(1, 4), decimals=st.integers(0, 2), shared=st.booleans(),
       tricky=st.booleans())
def test_payments_batch_equals_prefix_suffix_reference(seed, kind, n,
                                                        decimals, shared,
                                                        tricky):
    """The top-two reduction gives the winners and payments of the
    prefix/suffix maxima algorithm bit for bit.  Rounded bids, knots and
    support tops as bids, and (with `shared`) bidders drawing the same CDF
    force exact virtual-value ties across bidders.  Bids one ulp above the
    top, at 1e300 and at inf take the top's virtual value.  With `tricky`,
    the bidders are drawn from the tricky-table cases instead."""
    rng = np.random.default_rng(seed)
    pool = ([cdf for cdf in _INVERSE_CASES if cdf.kind == kind] if tricky else
            [random_link_cdf(rng, kind, from_zero=bool(rng.random() < 0.5))
             for _ in range(1 if shared else n)])
    bidders = [pool[int(rng.integers(0, len(pool)))] for _ in range(n)]
    mech = Mechanism(kind, bidders)
    profiles = np.round(rng.uniform(0.0, 8.0, size=(400, n)), decimals)
    for j, b in enumerate(bidders):
        rows = rng.integers(0, 400, size=80)
        top = b.support_top()
        profiles[rows, j] = rng.choice(
            np.append(b.xs, [top, np.nextafter(top, np.inf), 1e300, np.inf]), 80)
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


# link CDFs whose sup tables stress inverse's rank: a run of leading -inf
# sups (flat first pieces), running-max plateaus (equal-revenue pieces with
# phi exactly 0, a gap row repeating the last sup), one sup at -1e16 (a
# near-flat first piece), no non-negative sup at all, one-knot curves with
# and without a gap (the gap row alone, empty when the top is the knot), and
# a gap row one ulp wide
_INVERSE_CASES = [
    PiecewiseLinkCDF("mhr", [0.0, 1.0, 2.0, 3.0, 4.0], [0.0, 0.0, 0.0, 1.0, 3.0],
                     5.0),
    PiecewiseLinkCDF("regular", [1.0, 2.0, 3.0, 4.0, 6.0],
                     [1.0, 2.0, 3.0, 4.0, 8.0], 7.0),
    PiecewiseLinkCDF("regular", [0.5, 1.0, 2.0], [1.0, 1.0, 2.0], 4.0),
    PiecewiseLinkCDF("mhr", [0.0, 1.0, 2.0, 3.0], [0.0, 1e-16, 1.0, 3.0], 3.0),
    PiecewiseLinkCDF("mhr", [0.0, 1.0, 2.0], [0.0, 1e-3, 3e-3], 2.5),
    PiecewiseLinkCDF("mhr", [1.0], [0.0], 1.0),
    PiecewiseLinkCDF("regular", [1.0], [1.0], 3.0),
    PiecewiseLinkCDF("regular", [2.0], [1.5], 2.0),
    PiecewiseLinkCDF("mhr", [0.0, 1.0, 2.0], [0.0, 0.5, 2.0],
                     np.nextafter(2.0, np.inf)),
]


def _tricky_link_cdf(rng, kind):
    """A random link CDF whose slopes come from a pool with flat (0) and
    near-flat (1e-16) entries and repeats, so sups run through -inf, -1e16
    and ties."""
    k = int(rng.integers(1, 9))
    xs = np.cumsum(np.concatenate(([rng.uniform(0.0, 2.0)],
                                   rng.uniform(0.1, 2.0, k))))
    slopes = np.sort(rng.choice([0.0, 1e-16, 1e-3, 0.5, 1.0, 1.0, 2.0, 10.0], k))
    h0 = link_origin(kind) + (rng.uniform(0.0, 2.0) if rng.random() < 0.5 else 0.0)
    hs = h0 + np.concatenate(([0.0], np.cumsum(slopes * np.diff(xs))))
    top = xs[-1] + (rng.uniform(0.0, 2.0) if rng.random() < 0.5 else 0.0)
    return PiecewiseLinkCDF(kind, xs, hs, top)


def _assert_inverse_is_searched(vv, rng):
    sups = vv._sups[np.isfinite(vv._sups)]
    nonneg = np.concatenate([
        sups, np.nextafter(sups, -np.inf), np.nextafter(sups, np.inf),
        [0.0, -0.0, vv.top, np.nextafter(vv.top, np.inf), 2.0 * vv.top],
        rng.uniform(0.0, 1.5 * vv.top, 200)])
    nonneg = nonneg[nonneg >= 0.0]
    negative = np.array([-1e-300, -0.5, -1e16, -np.inf])
    for strict in (False, True):
        # the batches a payment run sends (every target >= 0), targets below
        # 0 alone, and the two mixed
        for t in (nonneg, negative, np.concatenate((negative, nonneg)),
                  nonneg[:0]):
            assert (vv.inverse(t, strict).tobytes()
                    == searched_inverse(vv, t, strict).tobytes()), (strict, t)
        for t in (0.0, -0.0, vv.top, -1.0, -np.inf, np.inf):
            assert vv.inverse(t, strict) == searched_inverse(vv, t, strict)[0]


def test_inverse_equals_searched_reference_on_tricky_tables():
    """The bucketed rank over the non-negative sups, plus the count of
    negative ones, is np.searchsorted over all of them: inverse matches the
    searched reference bit for bit on both sides."""
    rng = np.random.default_rng(0)
    for cdf in _INVERSE_CASES:
        _assert_inverse_is_searched(VirtualValueFn(cdf), rng)
    sups = [VirtualValueFn(cdf)._sups for cdf in _INVERSE_CASES]
    # the cases do reach what they are named for
    assert np.array_equal(sups[0][:2], [-np.inf, -np.inf])
    assert np.array_equal(sups[1], [0.0, 0.0, 0.0, 2.0, 2.0])
    assert sups[3][0] < -1e15 and sups[3][-1] > 0
    assert np.all(sups[4] < 0)
    assert not np.any(sups[5] >= 0) and not np.any(sups[7] >= 0)
    assert sups[8][-1] > sups[8][-2]        # the one-ulp gap row's own sup


@settings(deadline=None, max_examples=150)
@given(seed=st.integers(0, 2 ** 32 - 1), kind=st.sampled_from(["mhr", "regular"]))
def test_inverse_equals_searched_reference(seed, kind):
    rng = np.random.default_rng(seed)
    _assert_inverse_is_searched(VirtualValueFn(_tricky_link_cdf(rng, kind)), rng)


@pytest.mark.parametrize("kind", ["mhr", "regular"])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_payments_with_a_negative_lower_index_runner_up(kind, n):
    """Where the runner-up's phi is below 0 (finite or -inf) and its index
    is below the winner's, the winner pays its reserve: payments_batch
    matches the prefix/suffix reference bit for bit.  The lower-index
    bidders bid below their first knot (phi -inf) or between it and their
    reserve (phi < 0); the last bidder bids above its reserve."""
    rng = np.random.default_rng(17 * n + len(kind))
    hits = {"finite": 0, "-inf": 0}
    for _ in range(40):
        bidders = [random_link_cdf(rng, kind) for _ in range(n)]
        mech = Mechanism(kind, bidders)
        rows = 300
        profiles = np.empty((rows, n))
        for j, (b, vv) in enumerate(zip(bidders, mech.vvs)):
            if j < n - 1:
                low = rng.uniform(0.0, b.xs[0], rows)
                below = rng.uniform(b.xs[0], max(vv.reserve, b.xs[0]), rows)
                profiles[:, j] = np.where(rng.random(rows) < 0.5, low, below)
            else:
                profiles[:, j] = rng.uniform(vv.reserve, vv.top, rows)
        winners, payments = mech.payments_batch(profiles)
        ref_w, ref_p = reference_payments(mech, profiles)
        assert np.array_equal(winners, ref_w)
        assert payments.tobytes() == ref_p.tobytes()
        phis = np.column_stack([vv.phi(np.minimum(profiles[:, j], vv.top))
                                for j, vv in enumerate(mech.vvs)])
        runner_up = (phis[:, :-1].max(axis=1) if n > 1
                     else np.full(rows, -np.inf))
        last = winners == n - 1
        hits["finite"] += int(np.sum(last & np.isfinite(runner_up)
                                     & (runner_up < 0)))
        hits["-inf"] += int(np.sum(last & np.isneginf(runner_up)))
    assert hits["-inf"] > 0
    assert n == 1 or hits["finite"] > 0, hits


@pytest.mark.parametrize("kind", ["mhr", "regular"])
def test_virtual_value_fn_rejects_nan(kind):
    """phi and inverse raise ValueError on a NaN anywhere in their input,
    with no warning first (phi's rank used to warn in a cast and then raise
    numpy's IndexError; inverse returned the support top)."""
    vv = VirtualValueFn(PiecewiseLinkCDF(kind, [0.0, 1.0],
                                         [link_origin(kind), 2.0], 2.0))
    for x in (np.nan, [1.0, np.nan], np.full(5, np.nan), [np.inf, np.nan]):
        with pytest.raises(ValueError, match="v must not be NaN"):
            vv.phi(x)
        for strict in (False, True):
            with pytest.raises(ValueError, match="t must not be NaN"):
                vv.inverse(x, strict)
    assert vv.phi(np.array([])).size == vv.inverse(np.array([])).size == 0


def _kernel_case(rng, kind, n, k):
    """k mechanisms of n bidders drawn from one small pool of link CDFs, so
    that they share knots, and bids that hit every kind of row: on knots
    and support tops (of any mechanism), one ulp either side, -0.0, 0.0,
    +inf, rows where every bid is 0 (nobody clears a reserve) and rows
    where one bidder alone bids.  Half the time in the regular kind one
    more mechanism has its equal-revenue phi of 0 stored as -0.0, which no
    validated CDF yields, so that runner-ups at -0.0 occur."""
    pool = [random_link_cdf(rng, kind, from_zero=bool(rng.random() < 0.5))
            for _ in range(int(rng.integers(1, 4)))]
    pool += [c for c in _INVERSE_CASES if c.kind == kind][:2]
    mechs = [Mechanism(kind, [pool[int(rng.integers(len(pool)))]
                              for _ in range(n)]) for _ in range(k)]
    if kind == "regular" and rng.random() < 0.5:
        # _INVERSE_CASES[1]: phi = 0 on its equal-revenue pieces
        neg = Mechanism(kind, [_INVERSE_CASES[1]] * n)
        for vv in neg.vvs:
            vv._phi_tab[vv._phi_tab == 0.0] = -0.0
        mechs.append(neg)
    rows = 600
    profiles = np.empty((rows, n))
    for j in range(n):
        knots = np.concatenate([m.vvs[j]._lefts for m in mechs])
        pts = np.concatenate([knots, np.nextafter(knots, np.inf),
                              np.nextafter(knots, 0.0),
                              [-0.0, 0.0, np.inf, 1e300]])
        top = max(m.vvs[j].top for m in mechs)
        profiles[:, j] = np.where(rng.random(rows) < 0.5,
                                  rng.choice(pts, rows),
                                  rng.uniform(0.0, 1.2 * top, rows))
    profiles[:30] = 0.0
    lone = rng.integers(0, n, 30)
    profiles[30:60] = 0.0
    profiles[np.arange(30, 60), lone] = rng.uniform(0.0, 8.0, 30)
    return mechs, profiles


def _assert_kernel_is_topped(mechs, profiles):
    """Each mechanism's payments_batch, alone and on a pass's shared ranks,
    equals the parent kernel bit for bit.
    Returns the count of rows whose runner-up phi is -0.0."""
    rankers, tables = _pass_ranks(mechs)
    for B in (profiles, np.asfortranarray(profiles)):
        ranks = [rank(np.ascontiguousarray(col))
                 for rank, col in zip(rankers, B.T)]
        for mech, tabs in zip(mechs, tables):
            ref_w, ref_p = topped_payments(mech, B)
            winners, payments = mech.payments_batch(B)
            assert np.array_equal(winners, ref_w)
            assert payments.tobytes() == ref_p.tobytes()
            winners, payments = mech.payments_batch(B, list(zip(ranks, tabs)))
            assert np.array_equal(winners, ref_w)
            assert payments.tobytes() == ref_p.tobytes()
    neg = 0
    for mech in mechs:
        if mech.n > 1:
            phis = np.sort(np.column_stack([vv.phi(profiles[:, j]) for j, vv
                                            in enumerate(mech.vvs)]), axis=1)
            second = phis[:, -2]
            neg += int(np.sum((second == 0.0) & np.signbit(second)))
    return neg


@settings(deadline=None, max_examples=120)
@given(seed=st.integers(0, 2 ** 32 - 1), kind=st.sampled_from(["mhr", "regular"]),
       n=st.integers(1, 4), k=st.integers(1, 3))
def test_payments_batch_equals_the_topped_kernel(seed, kind, n, k):
    """The reserve table and shared ranks change no bit of any payment:
    every mechanism of a pass equals `_gen.topped_payments`, a verbatim
    copy of the kernel that ranked each bidder on its own knots and called
    inverse for every sale."""
    _assert_kernel_is_topped(*_kernel_case(np.random.default_rng(seed),
                                           kind, n, k))


@pytest.mark.parametrize("kind", ["mhr", "regular"])
def test_topped_kernel_cases_reach_every_row_kind(kind):
    """The cases above reach what they are named for: runner-ups at -0.0
    (regular), +inf bids, all-zero rows and lone-bidder rows, at n = 1 to 4
    and with three mechanisms sharing knots."""
    rng = np.random.default_rng(31 + len(kind))
    neg = 0
    for n in (1, 2, 3, 4):
        for _ in range(8):
            mechs, profiles = _kernel_case(rng, kind, n, 3)
            neg += _assert_kernel_is_topped(mechs, profiles)
            assert np.isposinf(profiles).any()
            assert all((m.payments_batch(profiles[:30])[0] == -1).all()
                       for m in mechs)
    assert kind == "mhr" or neg > 0


# ---------------------------------------------------------------------------
# the reserve screen
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("from_zero", [False, True])
@pytest.mark.parametrize("kind", ["mhr", "regular"])
def test_phi_is_nonnegative_exactly_from_the_reserve(kind, from_zero):
    """Every VirtualValueFn has phi(v) >= 0 exactly where v >= reserve, and
    phi non-decreasing, over its reserve, each knot and the top, one ulp
    either side of each, 0 and a grid: the one fact the reserve screen
    rests on.  This holds for the two dip curves too, whose slope drops at
    a knot inside the convexity tolerance."""
    rng = np.random.default_rng(26 + 2 * len(kind) + from_zero)
    cdfs = [random_link_cdf(rng, kind, from_zero=from_zero)
            for _ in range(300)]
    for cdf in cdfs + (dip_link_cdfs() if kind == "mhr" else []):
        vv = VirtualValueFn(cdf)
        v = np.sort(edge_bids(vv, rng))
        phi = vv.phi(v)
        assert np.array_equal(phi >= 0.0, v >= vv.reserve)
        assert np.all(phi[1:] >= phi[:-1])


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("case", ["certified", "uncertified", "mixed"])
def test_screened_payments_equal_the_reference_on_edge_bids(case, n):
    """payments_batch, which pays rows with at most one bid at or above its
    reserve without phi, gives the winners and payments of
    `_gen.reference_payments` bit for bit on bids at every screen edge of
    every bidder, for mechanisms of random link CDFs in both kinds
    ("certified"), of dip bidders alone ("uncertified") and of dip bidders
    mixed with random ones."""
    rng = np.random.default_rng(260 + 3 * n + len(case))
    dips = dip_link_cdfs()
    for trial in range(12):
        kind = "mhr" if case != "certified" else ("mhr", "regular")[trial % 2]
        bidders = [random_link_cdf(rng, kind, from_zero=bool(trial % 3))
                   for _ in range(n)]
        if case == "uncertified":
            bidders = [dips[(trial + j) % 2] for j in range(n)]
        elif case == "mixed":
            bidders[int(rng.integers(n))] = dips[trial % 2]
        mech = Mechanism(kind, bidders)
        rows = 2000
        profiles = np.column_stack([rng.choice(edge_bids(vv, rng), rows)
                                    for vv in mech.vvs])
        winners, payments = mech.payments_batch(profiles)
        ref_w, ref_p = reference_payments(mech, profiles)
        assert np.array_equal(winners, ref_w)
        assert payments.tobytes() == ref_p.tobytes()


def test_a_dip_bidder_wins_alone_at_its_reserve():
    """A lone bid at the posted reserve (first dip curve) or at the knot
    just past it (second), where the slope drops inside the convexity
    tolerance, has phi >= 0: it wins and pays the reserve, bit for bit."""
    for d, bid in zip(dip_link_cdfs(), (0.5, 1.0)):
        mech = Mechanism("mhr", [d, d])
        assert mech.reserves[0] <= bid and mech.vvs[0].phi(bid) >= 0.0
        winners, payments = mech.payments_batch(np.array([[bid, 0.0]]))
        assert winners[0] == 0
        assert payments[0].tobytes() == np.float64(mech.reserves[0]).tobytes()


# ---------------------------------------------------------------------------
# the stacked threshold lookup
# ---------------------------------------------------------------------------


def _stack_edge_bidders():
    """Three mhr bidders of unlike threshold tables: one whose running sups
    are all negative (knots (0, 0) and (1, 0.1), top 1: phi = v - 10 below
    the top, sups -9, reserve 1.0), an Exp-like one (knots (0, 0) and (4, 4):
    phi = v - 1, reserve 1, top 4) and the 8,193-knot U(0, 3) truth grid."""
    neg = PiecewiseLinkCDF("mhr", [0.0, 1.0], [0.0, 0.1], 1.0)
    exp = PiecewiseLinkCDF("mhr", [0.0, 4.0], [0.0, 4.0], 4.0)
    grid = truth_mechanism(ProductDist([Uniform(0.0, 3.0)]), "mhr").bidders[0]
    return [neg, exp, grid]


def _stack_edge_atoms(rng):
    """Bids at every screen edge of the three bidders, and half the mass on
    those where a bidder's phi is 0 or 1.0 (the negative bidder's top), as
    (atoms, masses)."""
    vvs = [VirtualValueFn(c) for c in _stack_edge_bidders()]
    ties = np.unique([vv.inverse(t) for vv in vvs for t in (0.0, 1.0)])
    edges = np.unique(np.concatenate([edge_bids(vv, rng, grid=8)
                                      for vv in vvs]))
    atoms, at = np.unique(np.concatenate([ties, edges]), return_inverse=True)
    masses = np.bincount(at, np.append(np.full(ties.size, 0.5 / ties.size),
                                       np.full(edges.size, 0.5 / edges.size)))
    return atoms, masses


def test_stacked_lookup_bidders_reach_their_edges():
    """The negative bidder has no sup >= 0 and posts its top; the Exp-like
    bidder's phi is 0 and 1.0 at 1 and 2; and the three sup tables take 0,
    2 and 1 bucket steps, so the stacked rank pads each to 2 steps."""
    vvs = [VirtualValueFn(c) for c in _stack_edge_bidders()]
    neg, exp, grid = vvs
    assert np.all(neg._sups == -9.0) and neg.reserve == neg.top == 1.0
    assert (neg.phi(np.array([0.5, 1.0, 2.0])) == [-9.5, 1.0, 1.0]).all()
    assert exp.reserve == 1.0
    assert (exp.phi(np.array([1.0, 2.0])) == [0.0, 1.0]).all()
    assert grid._lefts.size == 8194 and grid.phi(grid.inverse(0.0)) == 0.0
    assert [len(_KnotRank(vv._sups[vv._neg_sups:])._steps)
            for vv in vvs] == [0, 2, 1]
    assert len(Mechanism("mhr", _stack_edge_bidders())._paid._steps) == 2


@pytest.mark.parametrize("n", [2, 3])
def test_stacked_lookup_equals_the_reference_at_ties(n):
    """Mechanisms of n of the three bidders above, in every order: on bids
    at every bidder's edges, the runner-up's phi ties the winner's at 0 and
    at the top 1.0, weakly (a higher-index runner-up) and strictly (a lower
    one), and the negative bidder wins contested rows.  payments_batch, and
    one Monte Carlo pass of all these mechanisms across a block edge whose
    truths draw the same bids, give the winners and payment bytes of
    `_gen.reference_payments`."""
    rng = np.random.default_rng(2800 + n)
    cdfs = _stack_edge_bidders()
    atoms, masses = _stack_edge_atoms(rng)
    mechs = [Mechanism("mhr", [cdfs[i] for i in order])
             for order in itertools.permutations(range(3), n)]
    ties = {(t, strict): 0 for t in (0.0, 1.0) for strict in (False, True)}
    neg_wins = 0
    for mech, order in zip(mechs, itertools.permutations(range(3), n)):
        profiles = rng.choice(atoms, (4000, n), p=masses)
        winners, payments = mech.payments_batch(profiles)
        ref_w, ref_p = reference_payments(mech, profiles)
        assert np.array_equal(winners, ref_w)
        assert payments.tobytes() == ref_p.tobytes()
        phis = np.column_stack([vv.phi(profiles[:, j]) for j, vv
                                in enumerate(mech.vvs)])
        sold = np.flatnonzero(winners >= 0)
        phis[sold, winners[sold]] = -np.inf
        runner = np.argmax(phis[sold], axis=1)
        second = phis[sold, runner]
        lower = runner < winners[sold]
        for t, strict in ties:
            ties[t, strict] += int(np.sum((second == t) & (lower == strict)))
        if 0 in order:
            neg_wins += int(np.sum((second >= 0.0)
                                   & (winners[sold] == order.index(0))))
    assert min(ties.values()) > 50 and neg_wins > 50, (ties, neg_wins)
    draws = (1 << 16) + 4321
    d_true = ProductDist([StepCDF(atoms, masses) for _ in range(n)])
    means, cov = unblocked_rev_monte_carlo(mechs, d_true, draws, 7)
    est = rev_monte_carlo(mechs, d_true, draws, 7)
    assert np.array(est.means).tobytes() == np.array(means).tobytes()
    assert est.cov.tobytes() == cov.tobytes()
    profiles = d_true.sample_profiles(draws, 7)
    for mech, mean in zip(mechs, means):
        ref_p = reference_payments(mech, profiles)[1]
        assert mean == float(np.sum(ref_p)) / draws
