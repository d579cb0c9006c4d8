"""Minimal shape-constrained member of a KS ball."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from robust_auctions.ball import minimal_in_ks_ball
from robust_auctions.distributions import (
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
    ks_distance,
)
from robust_auctions.links import KINDS, link_origin
from robust_auctions.myerson import VirtualValueFn

from _gen import (anchored_minimal_in_ks_ball, atomic_cases, random_link_cdf,
                  searched_minimal_in_ks_ball, truncate)
from _oracle import dominates


def test_exponential_worked_example():
    """exp(1) with alpha = 0.1: h(x) = -log(exp(-x) - 0.1) is already convex,
    so the output CDF is F + alpha up to the new top at log 10.
    """
    base = Exponential(1.0)
    out = minimal_in_ks_ball(base, 0.1, "mhr")
    assert out.kind == "mhr"
    assert_allclose(out.support_top(), np.log(10.0), atol=1e-12)
    v = np.linspace(0.0, 2.0, 157)
    assert_allclose(out.cdf(v), base.cdf(v) + 0.1, atol=1e-5)
    atom = 1.0 - out.cdf_left(out.support_top())
    assert 0.0 < atom < 1e-3


def test_step_worked_example():
    """Two equal atoms, alpha = 0.2, regular link.

    The zero anchor is lifted by alpha like every other (G(0) = 0.2,
    h = 1.25), the atom at 1 is lifted to 0.7, and the 0.8-quantile point 2
    becomes the closing atom.
    """
    out = minimal_in_ks_ball(StepCDF([1.0, 2.0], [0.5, 0.5]), 0.2, "regular")
    assert out.kind == "regular"
    assert_allclose(out.xs, [0.0, 1.0])
    assert_allclose(out.hs, [1.25, 10.0 / 3.0], atol=1e-12)
    assert out.support_top() == 2.0
    assert_allclose(out.cdf(0.0), 0.2, atol=1e-12)
    assert_allclose(out.cdf(1.0), 0.7, atol=1e-12)
    assert_allclose(out.cdf(1.5), 0.7, atol=1e-12)
    assert_allclose(1.0 - out.cdf_left(2.0), 0.3, atol=1e-12)
    # between knots the CDF follows the link interpolation: h(0.5) = 55/24
    assert_allclose(out.cdf(0.5), 31.0 / 55.0, atol=1e-12)


def test_zero_alpha_is_identity_on_own_output():
    rng = np.random.default_rng(21)
    for kind in ("mhr", "regular"):
        for _ in range(10):
            d = random_link_cdf(rng, kind)
            assert minimal_in_ks_ball(d, 0.0, kind) is d


def test_zero_alpha_parametric_approximation():
    base = Exponential(1.0)
    out = minimal_in_ks_ball(base, 0.0, "mhr")
    v = np.linspace(0.0, 2.0, 100)
    assert_allclose(out.cdf(v), base.cdf(v), atol=1e-5)


def test_new_top_is_quantile_of_budget():
    base = Uniform(0.0, 1.0)
    for alpha in (0.05, 0.1, 0.25):
        out = minimal_in_ks_ball(base, alpha, "regular")
        assert_allclose(out.support_top(), 1.0 - alpha, atol=1e-12)


def test_point_mass_passes_through():
    """alpha of mass moves to zero, F = alpha on [0, 2), and the rest is
    the top atom at 2, which is still the reserve."""
    alpha = 0.3
    out = minimal_in_ks_ball(PointMass(2.0), alpha, "mhr")
    assert out.support_top() == 2.0
    assert_allclose(out.cdf([0.0, 1.0, 1.9, np.nextafter(2.0, 0.0)]), alpha,
                    rtol=0, atol=1e-12)
    assert_allclose(1.0 - out.cdf_left(2.0), 1.0 - alpha, rtol=0, atol=1e-12)
    assert out.cdf(2.0) == 1.0
    assert VirtualValueFn(out).reserve == 2.0


@pytest.mark.parametrize("kind", ["mhr", "regular"])
@pytest.mark.parametrize("alpha", [0.05, 0.1])
def test_one_zero_rule_for_atomic_and_continuous_inputs(kind, alpha):
    """The ball lifts F(0) by alpha whether the input is atomic or not: a
    point mass and a narrow uniform around it get the same F(0), alpha up to
    the link round trip."""
    atomic = minimal_in_ks_ball(PointMass(2.0), alpha, kind).cdf(0.0)
    smooth = minimal_in_ks_ball(Uniform(1.999, 2.001), alpha, kind).cdf(0.0)
    assert atomic == smooth
    assert_allclose(atomic, alpha, rtol=0, atol=1e-15)


@pytest.mark.parametrize("kind", ["mhr", "regular"])
def test_one_knot_link_cdfs_are_tabulated_at_their_atoms(kind):
    """A one-knot link CDF is purely atomic, so the ball anchors it at its
    atoms.  With h0 above the link origin that is bit for bit the anchor
    reference; with h0 at the origin the knot carries no atom, and the flat
    knot [0, 1] of the reference is dropped to [0] with the same CDF."""
    other = "regular" if kind == "mhr" else "mhr"
    origin = link_origin(kind)
    v = np.concatenate((np.linspace(-1.0, 4.0, 101), [1.0, 3.0]))
    for h0, flat in ((origin + 0.5, False), (origin, True)):
        d = PiecewiseLinkCDF(kind, [1.0], [h0], 3.0)
        assert d.purely_atomic
        for out_kind, alpha in ((other, 0.0), (kind, 0.1), (other, 0.1)):
            got = minimal_in_ks_ball(d, alpha, out_kind)
            ref = anchored_minimal_in_ks_ball(d, alpha, out_kind, 2048)
            if flat:
                assert got.xs.tolist() == [0.0] and ref.xs.tolist() == [0.0, 1.0]
                assert got.hs.tobytes() == ref.hs[:1].tobytes()
                assert ref.hs[1] == ref.hs[0]
            else:
                assert got.xs.tobytes() == ref.xs.tobytes()
                assert got.hs.tobytes() == ref.hs.tobytes()
            assert got.support_top() == ref.support_top() == 3.0
            assert got.cdf(v).tobytes() == ref.cdf(v).tobytes()
            assert got.cdf_left(v).tobytes() == ref.cdf_left(v).tobytes()


def test_output_dominated_by_shaped_ball_members():
    """Every shape-constrained CDF within the budget dominates the output."""
    alpha = 0.1
    for kind in ("mhr", "regular"):
        base = Exponential(1.0)
        out = minimal_in_ks_ball(base, alpha, kind)
        members = [minimal_in_ks_ball(base, t, kind)
                   for t in np.linspace(0.0, alpha, 26)]
        for u in (1.5, 2.0, 3.0, 4.0):
            spare = alpha - (1.0 - base.cdf_left(u))
            if spare > 0:
                members.append(minimal_in_ks_ball(truncate(base, u), spare,
                                                  kind))
        assert len(members) >= 28
        for m in members:
            assert ks_distance(m, base) <= alpha + 1e-3
            assert dominates(m, out, slack=1e-6)


def test_alpha_monotone():
    rng = np.random.default_rng(4)
    for kind in ("mhr", "regular"):
        for base in [Exponential(1.0), Uniform(0.5, 2.0),
                     StepCDF([1, 2, 3], [0.2, 0.5, 0.3]),
                     random_link_cdf(rng, kind, from_zero=True)]:
            budgets = [0.0, 0.02, 0.05, 0.1, 0.2]
            outs = [minimal_in_ks_ball(base, a, kind) for a in budgets]
            for small, big in zip(outs, outs[1:]):
                assert dominates(small, big, slack=1e-6)


def test_output_is_valid_input():
    base = Exponential(1.0)
    out = minimal_in_ks_ball(base, 0.05, "mhr")
    out2 = minimal_in_ks_ball(out, 0.05, "mhr")
    assert isinstance(out2, PiecewiseLinkCDF)
    assert dominates(out, out2, slack=1e-6)


def test_alpha_validation():
    with pytest.raises(ValueError, match=r"alpha must lie in \[0, 1\)"):
        minimal_in_ks_ball(Exponential(1.0), 1.0, "mhr")
    with pytest.raises(ValueError, match=r"alpha must lie in \[0, 1\)"):
        minimal_in_ks_ball(Exponential(1.0), -0.1, "mhr")
    with pytest.raises(ValueError, match="kind must be one of"):
        minimal_in_ks_ball(Exponential(1.0), 0.1, "hazard")


@pytest.mark.parametrize("kind", ["mhr", "regular"])
@pytest.mark.parametrize("alpha", [0.0, 0.05])
def test_atomic_inputs_match_searched_anchors(kind, alpha):
    """On purely atomic inputs the ball reads G off the atom table; its
    knots and top are bit-identical to anchoring with np.unique and
    searching dist.cdf, x = 0 lifted by alpha like every other anchor."""
    for dist in atomic_cases(np.random.default_rng(23), count=60):
        got = minimal_in_ks_ball(dist, alpha, kind)
        ref = searched_minimal_in_ks_ball(dist, alpha, kind)
        assert got.xs.tobytes() == ref.xs.tobytes()
        assert got.hs.tobytes() == ref.hs.tobytes()
        assert got.support_top() == ref.support_top()


def _grid_cases():
    """Inputs that are not purely atomic: closed forms with values scaled by
    2^k, both wrappers over them, link CDFs of both kinds, and an UpShift
    whose F(0) = 0.6 leaves no quantile anchor at alpha = 0.5."""
    rng = np.random.default_rng(31)
    cases = [AppxC1(10, 0.1, "l"), AppxC1(10, 0.1, "h"),
             AppxC2(3, 0.4, "l"), AppxC2(3, 0.4, "h")]
    for k in (-20, -3, 0, 7, 30):
        c = 2.0 ** k
        lo = max(c, 1.0)                       # an equal-revenue lo is >= 1
        cases += [Exponential(1.0 / c), Uniform(0.0, 3.0 * c),
                  Uniform(c, 4.0 * c), EqualRevenue(lo, 10.0 * lo)]
    closed = list(cases)
    cases += [UpShift(d, 0.1) for d in closed[::2]]
    cases += [DownShiftSpike(d, 0.05, 3.0 * float(d.ppf(0.5)))
              for d in closed[1::2]]
    cases.append(UpShift(Exponential(1.0), 0.6))
    for kind in KINDS:
        for i in range(4):
            link = random_link_cdf(rng, kind, from_zero=i % 2 == 0)
            c = 2.0 ** (10 * i - 15)
            cases += [link, PiecewiseLinkCDF(kind, link.xs * c, link.hs,
                                             link.support_top() * c)]
    return cases


@pytest.mark.parametrize("grid", [64, 2048, 8192])
def test_grid_inputs_match_the_anchor_reference(grid):
    """The ball reads G and its quantiles off the input's table, shifted by
    alpha; its knots and top are bit-identical to spelling G^{-1} and G out
    on the input."""
    for dist in _grid_cases():
        for kind in KINDS:
            for alpha in (0.0, 1e-9, 0.05, 0.5):
                got = minimal_in_ks_ball(dist, alpha, kind, grid)
                ref = anchored_minimal_in_ks_ball(dist, alpha, kind, grid)
                assert got.xs.tobytes() == ref.xs.tobytes()
                assert got.hs.tobytes() == ref.hs.tobytes()
                assert (np.float64(got.support_top()).tobytes()
                        == np.float64(ref.support_top()).tobytes())
