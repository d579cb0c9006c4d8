"""Tests for the learning pipeline: quantile shading, the envelope and
no-envelope mechanism constructions, and the population-level variant."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from robust_auctions.ball import minimal_in_ks_ball
from robust_auctions.adversary import corrupt
from robust_auctions.distributions import (
    EqualRevenue,
    Exponential,
    PiecewiseLinkCDF,
    PointMass,
    ProductDist,
    StepCDF,
    Uniform,
    empirical_from_samples,
)
from robust_auctions.links import link_origin
from robust_auctions.myerson import Mechanism
from robust_auctions.pipeline import (
    _learn,
    confidence_log,
    population_robust_myerson,
    robust_empirical_myerson,
    shade_quantiles,
)
from robust_auctions.revenue import opt_single, revenue_ratio_detail

from _gen import reference_shade_quantiles, truncate
from _oracle import dominates


def test_shading_params_validation():
    ok = dict(samples=[np.ones(100)] * 2, delta=0.1, alpha=(0.0, 0.1),
              kind="mhr")
    robust_empirical_myerson(**ok)
    with pytest.raises(ValueError, match="empty samples"):
        robust_empirical_myerson(**dict(ok, samples=[np.ones(0)] * 2))
    with pytest.raises(ValueError, match=r"delta must lie in \(0, 1\)"):
        robust_empirical_myerson(**dict(ok, delta=0.0))
    with pytest.raises(ValueError, match=r"delta must lie in \(0, 1\)"):
        robust_empirical_myerson(**dict(ok, delta=1.0))
    # L = ln(2 m n / delta) must be finite: 400 / 5e-324 overflows
    robust_empirical_myerson(**dict(ok, delta=1e-300))
    with pytest.raises(ValueError, match="delta 5e-324 is too small"):
        robust_empirical_myerson(**dict(ok, delta=5e-324))
    with pytest.raises(ValueError, match="need one alpha per bidder"):
        robust_empirical_myerson(**dict(ok, alpha=(0.1,)))
    with pytest.raises(ValueError, match=r"alpha must lie in \[0, 1\)"):
        robust_empirical_myerson(**dict(ok, alpha=(0.0, 1.0)))


def _shade(E, m, n, delta, alpha):
    return shade_quantiles(E, m, confidence_log(m, n, delta), alpha)


def test_shade_quantiles_worked_example():
    """One atom at survival 1/2 with m=10^4, n=1, delta=0.01, alpha=0.05.

    L = ln(2 m n / delta) = ln(2e6) = 14.508658, so the shaded survival is
    0.5 - sqrt(2 * 0.25 * L / m) - 4 L / m - 0.05 = 0.417263.
    """
    E = StepCDF([0.0, 1.0], [0.5, 0.5])
    shaded = _shade(E, 10_000, 1, 0.01, 0.05)
    np.testing.assert_allclose(shaded.values, [0.0, 1.0], rtol=0, atol=0)
    np.testing.assert_allclose(shaded.masses, [1 - 0.417263, 0.417263],
                               rtol=0, atol=1e-6)
    # survival at zero is pinned to one, so no mass is lost overall
    np.testing.assert_allclose(np.sum(shaded.masses), 1.0, rtol=0, atol=1e-12)


def test_shade_quantiles_truncates_thin_tail():
    # at m=100 the confidence term exceeds a 0.1 tail, so the top atom dies
    E = StepCDF([0.0, 5.0], [0.9, 0.1])
    shaded = _shade(E, 100, 1, 0.05, 0.0)
    np.testing.assert_allclose(shaded.values, [0.0])
    np.testing.assert_allclose(shaded.masses, [1.0])
    assert shaded.support_top() == 0.0


def test_shading_monotone_in_alpha():
    samples = Exponential(1.0).sample(400, seed=17)
    from robust_auctions.distributions import empirical_from_samples

    E = empirical_from_samples(samples)
    shadeds = []
    for a in [0.0, 0.05, 0.1, 0.3]:
        shadeds.append(_shade(E, 400, 1, 0.05, a))
    for lighter, heavier in zip(shadeds, shadeds[1:]):
        assert dominates(lighter, heavier)
        assert heavier.support_top() <= lighter.support_top()


def test_shading_vanishes_with_many_samples():
    E = StepCDF([0.0, 1.0, 2.0], [0.2, 0.3, 0.5])
    shaded = _shade(E, 10**9, 1, 0.5, 0.0)
    np.testing.assert_allclose(shaded.values, E.values)
    np.testing.assert_allclose(shaded.masses, E.masses, rtol=0, atol=1e-3)


def test_robust_empirical_myerson_clean_exponential():
    exp = Exponential(1.0)
    truth = ProductDist([exp])
    for m, want in [(10_000, 0.99), (100_000, 0.95)]:
        mech = robust_empirical_myerson([exp.sample(m, seed=901)], [0.0],
                                        0.05, "mhr")
        ratio, _ = revenue_ratio_detail(mech, truth, 1000, seed=0)[:2]
        assert ratio >= want
    assert abs(mech.reserves[0] - 1.0) <= 0.1


def test_learned_cdf_usually_dominated_by_truth():
    """The shading step is calibrated so the learned CDF sits below the truth
    with probability at least 1 - delta; at delta = 0.1 over 200 trials the
    failure count should stay well under 20 (observed: 0)."""
    cases = [("mhr", Exponential(1.0)),
             ("regular", truncate(EqualRevenue(1.0, 50.0), 10.0))]
    for kind, truth in cases:
        failures = 0
        for t in range(200):
            s = truth.sample(500, seed=5000 + t)
            mech = robust_empirical_myerson([s], [0.0], 0.1, kind)
            if not dominates(truth, mech.bidders[0]):
                failures += 1
        assert failures <= 20, (kind, failures)


def test_envelope_branch_outputs_valid_link_cdfs():
    rng = np.random.default_rng(64)
    truths = [Exponential(1.0), Uniform(0.0, 2.0)]
    for i in range(20):
        kind = "mhr" if i % 2 == 0 else "regular"
        n = 1 + i % 2
        m = int(rng.integers(50, 2000))
        cols = [truths[(i + j) % 2].sample(m, seed=100 * i + j)
                for j in range(n)]
        alphas = [float(rng.uniform(0.0, 0.1))] * n
        mech = robust_empirical_myerson(cols, alphas, 0.05, kind)
        assert isinstance(mech, Mechanism)
        for b in mech.bidders:
            assert isinstance(b, PiecewiseLinkCDF)
            assert b.kind == kind
            assert b.hs[0] >= link_origin(kind) - 1e-12
            if b.xs.size >= 3:
                slopes = np.diff(b.hs) / np.diff(b.xs)
                assert np.all(np.diff(slopes) >= -1e-9)


def test_no_envelope_ablation_posted_price():
    """Half the mass at 1 and half at 3: the shaded discrete revenues are
    1 * 0.99484 at price 1 and 3 * 0.469444 = 1.40833 at price 3 (m=10^4,
    delta=0.05), so the ablation posts price 3: a one-knot link CDF closing
    at 3."""
    samples = np.concatenate([np.full(5000, 1.0), np.full(5000, 3.0)])
    mech = robust_empirical_myerson([samples], [0.0], 0.05, "mhr",
                                    with_envelope=False)
    assert isinstance(mech, Mechanism)
    assert mech.provenance["with_envelope"] is False
    posted = mech.bidders[0]
    assert posted.xs.tolist() == [3.0] and posted.support_top() == 3.0
    assert mech.reserves == [3.0]
    winners, pays = mech.payments_batch(np.array([[0.5], [2.9], [3.0],
                                                  [10.0]]))
    np.testing.assert_array_equal(winners, [-1, -1, 0, 0])
    np.testing.assert_array_equal(pays, [0.0, 0.0, 3.0, 3.0])
    with pytest.raises(ValueError, match="profile matrix arity mismatch"):
        mech.payments_batch(np.zeros((3, 2)))
    with pytest.raises(ValueError, match="bids must be nonnegative"):
        mech.payments_batch(np.array([[-1.0]]))
    # the corruption budget is recorded but not subtracted in this branch
    mech2 = robust_empirical_myerson([samples], [0.2], 0.05, "mhr",
                                     with_envelope=False)
    assert mech2.reserves == [3.0]
    assert mech2.alpha == [0.2]


def test_step_mechanism_tie_takes_smaller_price():
    # the ablation's price: revenue 1 at both atoms, the smaller one wins
    assert opt_single(StepCDF([1.0, 2.0], [0.5, 0.5])) == (1.0, 1.0)


def test_mechanism_from_dict_round_trip():
    samples = np.concatenate([np.full(400, 1.0), np.full(600, 3.0)])
    posted = robust_empirical_myerson([samples], [0.1], 0.05, "mhr",
                                      with_envelope=False)
    back = Mechanism.from_dict(posted.to_dict())
    assert back.reserves == posted.reserves == [3.0]
    assert back.alpha == [0.1]
    assert back.provenance == posted.provenance

    link = PiecewiseLinkCDF("mhr", [0.0, 4.0], [0.0, 4.0], 4.0)
    mech = Mechanism(kind="mhr", bidders=[link])
    back2 = Mechanism.from_dict(mech.to_dict())
    assert back2.reserves == mech.reserves

    step = dict(posted.to_dict(),
                bidders=[{"type": "step", "values": [1.0, 3.0],
                          "masses": [0.4, 0.6]}])
    with pytest.raises(ValueError, match="bidders must be link_cdf entries"):
        Mechanism.from_dict(step)


def test_robust_empirical_myerson_validation():
    s = Exponential(1.0).sample(10, seed=1)
    with pytest.raises(ValueError, match="empty samples"):
        robust_empirical_myerson([], [0.0], 0.1, "mhr")
    with pytest.raises(ValueError, match="empty samples"):
        robust_empirical_myerson([np.array([])], [0.0], 0.1, "mhr")
    with pytest.raises(ValueError, match="inconsistent m across bidders"):
        robust_empirical_myerson([s, s[:5]], [0.0, 0.0], 0.1, "mhr")
    with pytest.raises(ValueError, match="need one alpha per bidder"):
        robust_empirical_myerson([s], [0.0, 0.0], 0.1, "mhr")
    with pytest.raises(ValueError,
                       match="the no-envelope ablation is single-bidder only"):
        robust_empirical_myerson([s, s], [0.0, 0.0], 0.1, "mhr",
                                 with_envelope=False)


def test_population_robust_myerson():
    exp = Exponential(1.0)
    mech = population_robust_myerson(ProductDist([exp]), [0.05], "mhr")
    assert mech.provenance["algorithm"] == "population"
    ball = minimal_in_ks_ball(exp, 0.05, "mhr")
    vs = np.linspace(0.0, ball.support_top(), 500)
    np.testing.assert_allclose(mech.bidders[0].cdf(vs), ball.cdf(vs),
                               rtol=0, atol=1e-12)
    # shading can only lower the price here
    assert 0.8 < mech.reserves[0] < 1.0

    mech0 = population_robust_myerson(ProductDist([exp]), [0.0], "mhr")
    np.testing.assert_allclose(mech0.reserves[0], 1.0, rtol=0, atol=1e-6)

    with pytest.raises(ValueError, match="need one alpha per bidder"):
        population_robust_myerson(ProductDist([exp]), [0.1, 0.1], "mhr")
    with pytest.raises(ValueError, match=r"alpha must lie in \[0, 1\)"):
        population_robust_myerson(ProductDist([exp]), [1.0], "mhr")


def test_population_multi_bidder_reserves_sorted_by_budget():
    # a bidder with a bigger corruption budget gets the lower posted reserve
    exp = Exponential(1.0)
    mech = population_robust_myerson(ProductDist([exp, exp, exp]),
                                     [0.0, 0.05, 0.15], "mhr")
    rs = mech.reserves
    assert rs[0] > rs[1] > rs[2]


def _assert_same_bits(a, b):
    assert np.array(a.reserves).tobytes() == np.array(b.reserves).tobytes()
    assert a.alpha == b.alpha and a.provenance == b.provenance
    for x, y in zip(a.bidders, b.bidders, strict=True):
        assert x.xs.tobytes() == y.xs.tobytes()
        assert x.hs.tobytes() == y.hs.tobytes()
        assert np.float64(x.support_top()).tobytes() == \
            np.float64(y.support_top()).tobytes()


def _assert_sharing_changes_nothing(samples, alpha, delta, kind):
    """The naive and robust mechanisms learned from one empirical CDF and
    one shave equal two independent learner calls, bit for bit, and the
    shading equals the one-body reference."""
    naive, robust = _learn([samples], [alpha], delta, kind, (False, True))
    for shared, env in ((naive, False), (robust, True)):
        alone = robust_empirical_myerson([samples], [alpha], delta, kind,
                                         with_envelope=env)
        _assert_same_bits(shared, alone)
    E = empirical_from_samples(samples)
    for a in (0.0, alpha):
        params = (samples.size, 1, delta, a)
        got = _shade(E, *params)
        want = reference_shade_quantiles(E, *params)
        assert got.values.tobytes() == want.values.tobytes()
        assert got.masses.tobytes() == want.masses.tobytes()
    return naive, robust


@pytest.mark.parametrize("m", [1, 2, 1000, 20_000])
@pytest.mark.parametrize("kind", ["mhr", "regular"])
def test_shared_learners_equal_independent_calls(m, kind):
    spiked = corrupt(Exponential(1.0), "tailspike:20.0", 0.05)
    rng = np.random.default_rng(m)
    ties = rng.integers(0, 6, size=m).astype(float)    # atoms at 0 too
    for samples in (spiked.sample(m, seed=m), ties,
                    np.round(Exponential(1.0).sample(m, seed=1), 1)):
        for alpha in (0.05, 1e-12, 1.0 - 1e-9):
            _assert_sharing_changes_nothing(samples, alpha, 0.01, kind)


def test_shared_naive_cut_to_the_zero_atom():
    # at m = 3 the confidence term 4 L / m exceeds 1: every atom is cut, the
    # zero atom alone is left, and the naive learner posts price 0
    samples = np.array([0.5, 1.0, 2.0])
    naive, robust = _assert_sharing_changes_nothing(samples, 0.1, 0.01, "mhr")
    shaded = _shade(empirical_from_samples(samples), 3, 1, 0.01, 0.0)
    assert shaded.values.tolist() == [0.0] and shaded.masses.tolist() == [1.0]
    assert naive.reserves == [0.0]


# atoms at 0 and at the smallest normal float: the ball's first two anchors
# are a subnormal width apart under a link rise of 4.2 (mhr) or 172
# (regular), and that slope overflows
_SUBNORMAL_GAP = [(0.0, 1), (2.2250738585072014e-308, 1137), (1.0, 2455)]


@settings(deadline=None, max_examples=150, database=None)
@given(st.lists(st.tuples(st.floats(0.0, 50.0, allow_subnormal=False),
                          st.integers(1, 3000)), min_size=1, max_size=8),
       st.sampled_from([0.0, 1e-9, 0.01, 0.2, 0.6, 0.999999]),
       st.sampled_from([1e-6, 0.01, 0.5, 0.999]),
       st.sampled_from(["mhr", "regular"]))
@example(_SUBNORMAL_GAP, 0.6, 1e-6, "mhr")
@example(_SUBNORMAL_GAP, 0.6, 1e-6, "regular")
def test_shared_learners_equal_independent_calls_on_atoms(atoms, alpha,
                                                          delta, kind):
    # atoms with repeat counts: exact ties, often a zero atom, m up to 24,000
    values, counts = zip(*atoms)
    samples = np.repeat(values, counts)
    _assert_sharing_changes_nothing(samples, alpha, delta, kind)


@pytest.mark.parametrize("kind", ["mhr", "regular"])
def test_learner_survives_a_subnormal_anchor_gap(kind):
    """The overflowing piece's right knot moves right to the first x with a
    finite slope: the learned CDF stays at or below the shaded one at its
    atoms, and reaches the shaded level at 2.2e-308 by x < 1e-305."""
    values, counts = zip(*_SUBNORMAL_GAP)
    samples = np.repeat(values, counts)
    mech = robust_empirical_myerson([samples], [0.6], 1e-6, kind)
    learned = mech.bidders[0]
    assert np.all(np.isfinite(np.diff(learned.hs) / np.diff(learned.xs)))
    shaded = _shade(empirical_from_samples(samples), samples.size, 1, 1e-6,
                    0.6)
    atoms = shaded.values
    assert atoms.tolist() == [0.0, 2.2250738585072014e-308, 1.0]
    assert np.all(learned.cdf(atoms) <= shaded.cdf(atoms))
    assert learned.cdf(0.0) == shaded.cdf(0.0)
    assert learned.xs.tolist() == [0.0, learned.xs[1]]
    assert atoms[1] < learned.xs[1] < 1e-305
    assert learned.cdf(learned.xs[1]) == pytest.approx(shaded.cdf(atoms[1]),
                                                       rel=1e-15)
    assert learned.support_top() == 1.0
