"""Tests for the KS-ball corruption generators and the confusable
lower-bound families' exact radii."""

import numpy as np
import pytest

from robust_auctions import adversary
from robust_auctions.adversary import (
    _VERIFY_TOL,
    AdversaryError,
    corrupt,
    mhr_lb_radius,
    parse_adversary,
    regular_lb_radius,
)
from robust_auctions.distributions import (
    _TYPES,
    AppxC1,
    AppxC2,
    DownShiftSpike,
    EqualRevenue,
    Exponential,
    PiecewiseLinkCDF,
    PointMass,
    StepCDF,
    Uniform,
    UpShift,
    appx_c1,
    appx_c2,
    ks_distance,
)

from _gen import (atom_masses, bracketwise_ks_distance, mhr_lb_family,
                  random_link_cdf, regular_lb_family)


def test_tail_spike_exponential():
    exp = Exponential(1.0)
    d = corrupt(exp, "tailspike:1.0", 0.05)
    assert d.spike_x == 20.0
    # mass alpha (plus whatever the base had beyond) lands on the spike
    assert 1.0 - float(d.cdf_left(20.0)) >= 0.05
    np.testing.assert_allclose(d.cdf(2.0), np.exp(-2.0) * 0 + (1 - np.exp(-2.0)) - 0.05,
                               rtol=0, atol=1e-12)
    np.testing.assert_allclose(ks_distance(d, exp), 0.05, rtol=0, atol=1e-9)


def test_tail_spike_point_mass():
    d = corrupt(PointMass(1.0), "tailspike:0.5", 0.1)
    locs, masses = atom_masses(d)
    np.testing.assert_allclose(locs, [1.0, 5.0])
    np.testing.assert_allclose(masses, [0.9, 0.1], rtol=0, atol=1e-12)


def test_tail_spike_validation():
    # the spec grammar checks the scale, so a bad one fails even at alpha 0,
    # where a valid spike returns its input
    exp = Exponential(1.0)
    for spec in ("tailspike:0", "tailspike:-1", "tailspike:nan",
                 "tailspike:inf"):
        with pytest.raises(ValueError, match="spike scale c must be positive"):
            corrupt(exp, spec, 0.0)


def test_tail_spike_verifies_its_own_budget():
    # a spike below the base's only atom drags the whole distribution with
    # it, so the generated corruption exceeds alpha and must be refused
    with pytest.raises(AdversaryError, match="corruption KS"):
        corrupt(PointMass(1.0), "tailspike:0.2", 0.3)


def test_self_check_is_exact_on_a_corpus_of_every_type(monkeypatch):
    """corrupt's self-check reads ks_distance's exact path: a wrapper
    against its own base.  On 600 (base, adversary, alpha) triples, the
    bases of every type a corrupt spec accepts (purely atomic ones and the
    wrappers themselves included) and alpha from 1e-4 to 0.9, the KS it
    measured is never below the grid reference
    (`_gen.bracketwise_ks_distance`, the path every other pair takes) by
    more than 4 ulp of alpha plus half an ulp of 1.  The second term is the rounding of F + alpha and
    F - alpha, which the grid's max over ~10^5 points picks up: measured at
    up to 4.4e-17, thousands of ulp of alpha = 1e-4.  Every verdict,
    refused or not, is the one the reference gives."""
    rng = np.random.default_rng(12)
    values = np.sort(rng.choice(np.arange(1, 60) / 7.0, 12, replace=False))
    bases = [
        StepCDF(values, rng.dirichlet(np.ones(values.size))),
        StepCDF([0.0, 1.0, 2.5], [0.3, 0.3, 0.4]), PointMass(1.0),
        PointMass(0.0), PiecewiseLinkCDF("mhr", [2.0], [0.0], 2.0),
        random_link_cdf(rng, "mhr"), random_link_cdf(rng, "regular"),
        Exponential(1.0), Exponential(2.0 ** 20), Uniform(0.0, 3.0),
        Uniform(1.0, 4.0), EqualRevenue(1.0, 50.0), EqualRevenue(2.0, 1e6),
        AppxC1(3, 0.5, "l"), AppxC1(3, 0.5, "h"), AppxC2(3, 0.5, "l"),
        AppxC2(3, 0.5, "h"), UpShift(Exponential(1.0), 0.1),
        DownShiftSpike(Uniform(0.0, 3.0), 0.1, 5.0),
        DownShiftSpike(PointMass(2.0), 0.25, 3.0)]
    assert set(map(type, bases)) == set(_TYPES.values())
    seen = []

    def measured(d, base):
        seen.append((d, base, ks_distance(d, base)))
        return seen[-1][2]

    monkeypatch.setattr(adversary, "ks_distance", measured)
    verdicts = []
    for base in bases:
        for spec in ("shift:up", "shift:down", "tailspike:0.2",
                     "tailspike:1.0", "tailspike:20.0"):
            for alpha in (1e-4, 1e-3, 0.02, 0.05, 0.3, 0.9):
                try:
                    corrupt(base, spec, alpha)
                    refused = False
                except AdversaryError:
                    refused = True
                d, other, ks = seen.pop()
                assert d.base is base and other is base
                ref = bracketwise_ks_distance(d, base)
                assert ref - ks <= 4 * np.spacing(alpha) + np.spacing(1.0) / 2, \
                    (base, spec, alpha, ks, ref)
                assert refused == (ref > alpha + _VERIFY_TOL), (base, spec, alpha)
                verdicts.append(refused)
    assert len(verdicts) == 600 and 0 < sum(verdicts) < 600


def test_cdf_shift_up():
    exp = Exponential(1.0)
    d = corrupt(exp, "shift:up", 0.1)
    vs = np.linspace(0.0, 5.0, 200)
    np.testing.assert_allclose(d.cdf(vs),
                               np.minimum(1 - np.exp(-vs) + 0.1, 1.0),
                               rtol=0, atol=1e-12)
    np.testing.assert_allclose(ks_distance(d, exp), 0.1, rtol=0, atol=1e-9)


def test_cdf_shift_down():
    exp = Exponential(1.0)
    d = corrupt(exp, "shift:down", 0.05)
    np.testing.assert_allclose(d.cdf(2.0), 1 - np.exp(-2.0) - 0.05,
                               rtol=0, atol=1e-12)
    assert ks_distance(d, exp) <= 0.05 + 1e-9
    assert d.support_top() <= exp.ppf(1.0 - 1e-4) + 1e-9


def test_cdf_shift_zero_and_validation():
    exp = Exponential(1.0)
    assert corrupt(exp, "shift:up", 0.0) is exp
    assert corrupt(exp, "shift:down", 0.0) is exp
    with pytest.raises(ValueError, match="direction must be up or down"):
        corrupt(exp, "shift:sideways", 0.1)


def test_mhr_lb_radius_needs_two_bidders():
    with pytest.raises(ValueError, match="need n >= 2"):
        mhr_lb_radius(1, 0.5)


def test_mhr_lb_radius_frozen_value():
    # interior stationary point beats the break-point gap beta/n here;
    # value cross-checked on a two-million-point CDF grid
    np.testing.assert_allclose(mhr_lb_radius(10, 0.1), 0.016458103,
                               rtol=0, atol=1e-8)


@pytest.mark.parametrize("n,beta", [(2, 0.3), (2, 0.4), (2, 0.5),
                                    (5, 0.2), (10, 0.1), (20, 0.05)])
def test_mhr_lb_radius_matches_measured_ks(n, beta):
    _, h, l = mhr_lb_family(n, beta)
    np.testing.assert_allclose(mhr_lb_radius(n, beta), ks_distance(h, l),
                               rtol=0, atol=1e-9)


def test_mhr_lb_radius_vs_break_gap():
    # for two bidders and beta in [0.3, 0.5] the break-point gap beta/n is
    # the true radius; elsewhere the interior maximum strictly exceeds it
    for beta in [0.3, 0.4, 0.5]:
        np.testing.assert_allclose(mhr_lb_radius(2, beta), beta / 2,
                                   rtol=0, atol=1e-12)
    assert mhr_lb_radius(10, 0.1) > 0.1 / 10
    assert mhr_lb_radius(5, 0.2) > 0.2 / 5


@pytest.mark.parametrize("n,beta", [(1, 0.5), (3, 0.5), (2, 0.25), (10, 0.9)])
def test_regular_lb_radius_matches_measured_ks(n, beta):
    _, h, l = regular_lb_family(n, beta)
    closed = (1.0 - np.sqrt(1.0 - beta)) ** 2 / n
    np.testing.assert_allclose(regular_lb_radius(n, beta), closed,
                               rtol=0, atol=0)
    np.testing.assert_allclose(regular_lb_radius(n, beta), ks_distance(h, l),
                               rtol=0, atol=1e-9)
    assert regular_lb_radius(n, beta) < beta * beta / n


def test_family_base_members():
    b1 = appx_c1(10, 0.1, "b")
    assert isinstance(b1, PointMass)
    np.testing.assert_allclose(b1.value, AppxC1(10, 0.1, "l").v0,
                               rtol=0, atol=0)
    b2 = appx_c2(3, 0.5, "b")
    assert isinstance(b2, PointMass) and b2.value == 1.5


def test_corrupt_dispatch_tail_spike_and_shift():
    exp = Exponential(1.0)
    d = corrupt(exp, "tailspike:1.0", 0.05)
    ref = DownShiftSpike(exp, 0.05, 20.0)
    vs = np.linspace(0.0, 25.0, 300)
    np.testing.assert_allclose(d.cdf(vs), ref.cdf(vs), rtol=0, atol=0)
    assert corrupt(exp, "tailspike:1.0", 0.0) is exp
    up = corrupt(exp, "shift:up", 0.1)
    np.testing.assert_allclose(up.cdf(1.0), 1 - np.exp(-1.0) + 0.1,
                               rtol=0, atol=1e-12)
    down = corrupt(exp, "shift:down", 0.1)
    np.testing.assert_allclose(down.cdf(1.0), 1 - np.exp(-1.0) - 0.1,
                               rtol=0, atol=1e-12)


def test_corrupt_dispatch_family_swap():
    low = AppxC1(2, 0.4, "l")
    swapped = corrupt(low, "mhr-lb:0.4", 0.25)
    assert isinstance(swapped, AppxC1) and swapped.which == "h"
    # omitting the argument defaults to the member's own beta
    swapped2 = corrupt(low, "mhr-lb", 0.25)
    assert swapped2.which == "h"
    back = corrupt(swapped, "mhr-lb:0.4", 0.25)
    assert back.which == "l"
    reg = corrupt(AppxC2(3, 0.5, "h"), "regular-lb:0.5", 0.05)
    assert isinstance(reg, AppxC2) and reg.which == "l"
    # the 0-ball holds only the input, but the input is still checked
    assert corrupt(low, "mhr-lb", 0.0) is low
    with pytest.raises(ValueError, match="beta does not match"):
        corrupt(low, "mhr-lb:0.3", 0.0)


def test_parse_adversary():
    assert parse_adversary("tailspike:20") == ("tailspike", 20.0)
    assert parse_adversary("shift:down") == ("shift", "down")
    assert parse_adversary("mhr-lb:0.4") == ("mhr-lb", 0.4)
    assert parse_adversary("regular-lb") == ("regular-lb", None)
    for spec, match in [("gremlin:1", "unknown adversary spec"),
                        ("shift", "direction must be up or down"),
                        ("shift:sideways", "direction must be up or down"),
                        ("tailspike", "needs a numeric argument"),
                        ("tailspike:big", "needs a numeric argument"),
                        ("mhr-lb:x", "needs a numeric argument"),
                        ("tailspike:0", "spike scale c must be positive"),
                        ("tailspike:-1", "spike scale c must be positive"),
                        ("tailspike:nan", "spike scale c must be positive"),
                        ("tailspike:inf", "spike scale c must be positive"),
                        ("mhr-lb:2", r"beta must be in \(0, 1\)"),
                        ("mhr-lb:0", r"beta must be in \(0, 1\)"),
                        ("regular-lb:nan", r"beta must be in \(0, 1\)")]:
        with pytest.raises(ValueError, match=match):
            parse_adversary(spec)


def test_corrupt_errors():
    exp = Exponential(1.0)
    with pytest.raises(ValueError, match=r"alpha must lie in \[0, 1\)"):
        corrupt(exp, "shift:up", 1.0)
    with pytest.raises(ValueError, match="unknown adversary spec"):
        corrupt(exp, "gremlin:3", 0.1)
    with pytest.raises(ValueError, match="needs a matching family member"):
        corrupt(exp, "mhr-lb:0.4", 0.25)
    with pytest.raises(ValueError, match="needs a matching family member"):
        corrupt(appx_c1(2, 0.4, "b"), "mhr-lb:0.4", 0.25)
    with pytest.raises(ValueError, match="beta does not match"):
        corrupt(AppxC1(2, 0.4, "l"), "mhr-lb:0.3", 0.25)
    with pytest.raises(AdversaryError, match="family radius"):
        corrupt(AppxC1(2, 0.4, "l"), "mhr-lb:0.4", 0.1)
