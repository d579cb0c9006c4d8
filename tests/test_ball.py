"""Minimal shape-constrained member of a KS ball."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from robust_auctions.ball import minimal_in_ks_ball
from robust_auctions.distributions import (
    Exponential,
    PiecewiseLinkCDF,
    PointMass,
    StepCDF,
    Uniform,
    ks_distance,
)
from robust_auctions.oracle import dominates

from _gen import (atomic_cases, random_link_cdf, searched_minimal_in_ks_ball,
                  truncate)


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
    atom = out.survival_quantile(out.support_top())
    assert 0.0 < atom < 1e-3


def test_step_worked_example():
    """Two equal atoms, alpha = 0.2, regular link.

    The zero anchor keeps the input's own mass there (none), the atom at 1
    is lifted to 0.7, and the 0.8-quantile point 2 becomes the closing atom.
    """
    out = minimal_in_ks_ball(StepCDF([1.0, 2.0], [0.5, 0.5]), 0.2, "regular")
    assert out.kind == "regular"
    assert_allclose(out.xs, [0.0, 1.0])
    assert_allclose(out.hs, [1.0, 10.0 / 3.0], atol=1e-12)
    assert out.support_top() == 2.0
    assert_allclose(out.cdf(1.0), 0.7, atol=1e-12)
    assert_allclose(out.cdf(1.5), 0.7, atol=1e-12)
    assert_allclose(out.survival_quantile(2.0), 0.3, atol=1e-12)
    # between knots the CDF follows the link interpolation: h(0.5) = 13/6
    assert_allclose(out.cdf(0.5), 7.0 / 13.0, atol=1e-12)


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
    out = minimal_in_ks_ball(PointMass(2.0), 0.3, "mhr")
    assert out.support_top() == 2.0
    assert out.cdf(1.9) == 0.0
    assert out.survival_quantile(2.0) == 1.0


def test_output_dominated_by_shaped_ball_members():
    """Every shape-constrained CDF within the budget dominates the output."""
    alpha = 0.1
    for kind in ("mhr", "regular"):
        base = Exponential(1.0)
        out = minimal_in_ks_ball(base, alpha, kind)
        members = [minimal_in_ks_ball(base, t, kind)
                   for t in np.linspace(0.0, alpha, 26)]
        for u in (1.5, 2.0, 3.0, 4.0):
            spare = alpha - base.survival_quantile(u)
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
    """The atomic branch reads G off the atom table; its knots and top are
    bit-identical to anchoring with np.unique and searching dist.cdf."""
    for dist in atomic_cases(np.random.default_rng(23), count=60):
        got = minimal_in_ks_ball(dist, alpha, kind)
        ref = searched_minimal_in_ks_ball(dist, alpha, kind)
        assert got.xs.tobytes() == ref.xs.tobytes()
        assert got.hs.tobytes() == ref.hs.tobytes()
        assert got.support_top() == ref.support_top()
