import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from robust_auctions.links import (PiecewiseLinearFn, convex_envelope,
                                   link_forward, link_inverse, link_origin)
from robust_auctions.oracle import naive_envelope

from _gen import random_points


# ---------------------------------------------------------------- links

def test_link_round_trip():
    p = np.linspace(0.0, 1.0 - 1e-9, 10_000)
    for kind in ("mhr", "regular"):
        h = link_forward(kind, p)
        back = link_inverse(kind, h)
        np.testing.assert_allclose(back, p, atol=1e-12, rtol=0)


def test_link_origin_values():
    assert link_forward("mhr", 0.0) == 0.0
    assert link_forward("regular", 0.0) == 1.0
    assert link_origin("mhr") == 0.0
    assert link_origin("regular") == 1.0


def test_link_diverges_at_one():
    for kind in ("mhr", "regular"):
        with pytest.raises(ValueError, match="link diverges"):
            link_forward(kind, 1.0)
        with pytest.raises(ValueError):
            link_forward(kind, 1.5)
        with pytest.raises(ValueError):
            link_forward(kind, -0.1)


def test_link_monotone_and_convex():
    # both links are increasing and convex in p, which is what makes the
    # lower envelope in h-space the minimal dominating CDF
    p = np.linspace(0.0, 0.999, 2000)
    for kind in ("mhr", "regular"):
        h = np.asarray(link_forward(kind, p))
        assert np.all(np.diff(h) > 0)
        assert np.all(np.diff(np.diff(h)) > -1e-9)


@given(st.floats(min_value=0.0, max_value=0.999999))
def test_link_inverse_is_inverse(p):
    for kind in ("mhr", "regular"):
        assert link_inverse(kind, link_forward(kind, p)) == pytest.approx(
            p, abs=1e-12)


# ------------------------------------------------------- piecewise fns

def test_piecewise_linear_eval():
    f = PiecewiseLinearFn([0.0, 1.0, 3.0], [0.0, 2.0, 4.0])
    np.testing.assert_allclose(f(np.array([0.0, 0.5, 1.0, 2.0, 3.0])),
                               [0.0, 1.0, 2.0, 3.0, 4.0])
    # clamps outside the knot range
    assert f(-1.0) == 0.0
    assert f(10.0) == 4.0
    np.testing.assert_allclose(f.slopes(), [2.0, 1.0])


# ----------------------------------------------------------- envelope

def test_envelope_identity_on_convex_input():
    env = convex_envelope([0.0, 1.0, 2.0], [0.0, 1.0, 3.0])
    np.testing.assert_array_equal(env.xs, [0.0, 1.0, 2.0])
    np.testing.assert_array_equal(env.ys, [0.0, 1.0, 3.0])


def test_envelope_drops_interior_point():
    # hand-checked: chords from (0,0) have slopes 2, 1.25, 5/3, so (1,2) is
    # above the hull and (2,2.5) is a vertex
    env = convex_envelope([0.0, 1.0, 2.0, 3.0], [0.0, 2.0, 2.5, 5.0])
    np.testing.assert_array_equal(env.xs, [0.0, 2.0, 3.0])
    np.testing.assert_array_equal(env.ys, [0.0, 2.5, 5.0])


def test_envelope_merges_collinear():
    env = convex_envelope([0.0, 1.0, 2.0, 3.0], [0.0, 1.0, 2.0, 4.0])
    np.testing.assert_array_equal(env.xs, [0.0, 2.0, 3.0])


def test_envelope_errors():
    with pytest.raises(ValueError, match="at least two points"):
        convex_envelope([1.0], [1.0])
    with pytest.raises(ValueError, match="strictly increasing"):
        convex_envelope([0.0, 0.0, 1.0], [0.0, 1.0, 2.0])
    with pytest.raises(ValueError, match="strictly increasing"):
        naive_envelope([2.0, 1.0], [0.0, 1.0])


def test_envelope_matches_oracle_on_random_inputs():
    """Fast hull and the literal argmin-slope walk give identical vertices."""
    rng = np.random.default_rng(20240817)
    for _ in range(1000):
        xs, ys = random_points(rng)
        fast = convex_envelope(xs, ys)
        slow = naive_envelope(xs, ys)
        np.testing.assert_array_equal(fast.xs, slow.xs)
        np.testing.assert_allclose(fast.ys, slow.ys, atol=1e-12, rtol=0)


def test_envelope_invariants_random():
    rng = np.random.default_rng(7)
    for _ in range(300):
        xs, ys = random_points(rng, k_max=30)
        env = convex_envelope(xs, ys)
        # below the input everywhere, exact at its own vertices
        assert np.all(env(xs) <= ys + 1e-12)
        idx = np.searchsorted(xs, env.xs)
        np.testing.assert_allclose(env.ys, ys[idx], atol=1e-12, rtol=0)
        # endpooints always kept
        assert env.xs[0] == xs[0] and env.xs[-1] == xs[-1]
        # strictly increasing slopes after tie merging
        slopes = env.slopes()
        if slopes.size > 1:
            assert np.all(np.diff(slopes) > 0)


@settings(deadline=None, max_examples=200)
@given(st.lists(st.floats(min_value=0.0, max_value=100.0), min_size=1,
                max_size=30))
def test_envelope_below_input_property(increments):
    xs = np.arange(len(increments) + 1, dtype=float)
    ys = np.concatenate(([0.0], np.cumsum(increments)))
    env = convex_envelope(xs, ys)
    assert np.all(env(xs) <= ys + 1e-9)
    assert env(xs[0]) == ys[0]
    assert env(xs[-1]) == ys[-1]
