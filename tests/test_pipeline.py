"""Tests for the learning pipeline: quantile shading, the envelope and
no-envelope mechanism constructions, and the population-level variant."""

import numpy as np
import pytest

from robust_auctions.ball import minimal_in_ks_ball
from robust_auctions.distributions import (
    EqualRevenue,
    Exponential,
    PiecewiseLinkCDF,
    PointMass,
    ProductDist,
    StepCDF,
    Uniform,
)
from robust_auctions.links import link_origin
from robust_auctions.myerson import Mechanism
from robust_auctions.oracle import dominates
from robust_auctions.pipeline import (
    ShadingParams,
    population_robust_myerson,
    robust_empirical_myerson,
    shade_quantiles,
)
from robust_auctions.revenue import opt_single, revenue_ratio_detail

from _gen import truncate


def test_shading_params_validation():
    ok = dict(m=100, n=2, delta=0.1, alpha=(0.0, 0.1))
    ShadingParams(**ok)
    with pytest.raises(ValueError, match="m must be at least 1"):
        ShadingParams(**dict(ok, m=0))
    with pytest.raises(ValueError, match=r"delta must lie in \(0, 1\)"):
        ShadingParams(**dict(ok, delta=0.0))
    with pytest.raises(ValueError, match=r"delta must lie in \(0, 1\)"):
        ShadingParams(**dict(ok, delta=1.0))
    with pytest.raises(ValueError, match="need one alpha per bidder"):
        ShadingParams(**dict(ok, alpha=(0.1,)))
    with pytest.raises(ValueError, match=r"alpha must lie in \[0, 1\)"):
        ShadingParams(**dict(ok, alpha=(0.0, 1.0)))


def test_shade_quantiles_worked_example():
    """One atom at survival 1/2 with m=10^4, n=1, delta=0.01, alpha=0.05.

    L = ln(2 m n / delta) = ln(2e6) = 14.508658, so the shaded survival is
    0.5 - sqrt(2 * 0.25 * L / m) - 4 L / m - 0.05 = 0.417263.
    """
    E = StepCDF([0.0, 1.0], [0.5, 0.5])
    params = ShadingParams(m=10_000, n=1, delta=0.01, alpha=(0.05,))
    shaded = shade_quantiles(E, params, 0)
    np.testing.assert_allclose(shaded.values, [0.0, 1.0], rtol=0, atol=0)
    np.testing.assert_allclose(shaded.masses, [1 - 0.417263, 0.417263],
                               rtol=0, atol=1e-6)
    # survival at zero is pinned to one, so no mass is lost overall
    np.testing.assert_allclose(np.sum(shaded.masses), 1.0, rtol=0, atol=1e-12)


def test_shade_quantiles_truncates_thin_tail():
    # at m=100 the confidence term exceeds a 0.1 tail, so the top atom dies
    E = StepCDF([0.0, 5.0], [0.9, 0.1])
    params = ShadingParams(m=100, n=1, delta=0.05, alpha=(0.0,))
    shaded = shade_quantiles(E, params, 0)
    np.testing.assert_allclose(shaded.values, [0.0])
    np.testing.assert_allclose(shaded.masses, [1.0])
    assert shaded.support_top() == 0.0


def test_shading_monotone_in_alpha():
    samples = Exponential(1.0).sample(400, seed=17)
    from robust_auctions.distributions import empirical_from_samples

    E = empirical_from_samples(samples)
    shadeds = []
    for a in [0.0, 0.05, 0.1, 0.3]:
        params = ShadingParams(m=400, n=1, delta=0.05, alpha=(a,))
        shadeds.append(shade_quantiles(E, params, 0))
    for lighter, heavier in zip(shadeds, shadeds[1:]):
        assert dominates(lighter, heavier)
        assert heavier.support_top() <= lighter.support_top()


def test_shading_vanishes_with_many_samples():
    E = StepCDF([0.0, 1.0, 2.0], [0.2, 0.3, 0.5])
    params = ShadingParams(m=10**9, n=1, delta=0.5, alpha=(0.0,))
    shaded = shade_quantiles(E, params, 0)
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
    assert mech.run([2.9]).winner is None
    out = mech.run([3.0])
    assert out.winner == 0 and out.payment == 3.0
    winners, pays = mech.payments_batch(np.array([[0.5], [3.0], [10.0]]))
    np.testing.assert_array_equal(winners, [-1, 0, 0])
    np.testing.assert_allclose(pays, [0.0, 3.0, 3.0])
    with pytest.raises(ValueError, match="profile matrix arity mismatch"):
        mech.payments_batch(np.zeros((3, 2)))
    with pytest.raises(ValueError, match="bids must be nonnegative"):
        mech.run([-1.0])
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
