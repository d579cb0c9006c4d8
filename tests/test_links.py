import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from robust_auctions import links
from robust_auctions.ball import minimal_in_ks_ball
from robust_auctions.distributions import (EqualRevenue, Exponential,
                                           ProductDist, Uniform)
from robust_auctions.harness import reproduce_counterexample1
from robust_auctions.links import (PiecewiseLinearFn, convex_envelope,
                                   link_forward, link_inverse, link_origin)
from robust_auctions.pipeline import robust_empirical_myerson
from robust_auctions.revenue import truth_mechanism

from _gen import (looped_chain, near_collinear_points, pruned_envelope,
                  random_points, stencil_pruned_points)
from _oracle import naive_envelope


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


@pytest.mark.parametrize("kind, h, match", [
    ("mhr", -0.5, "mhr link values must be >= 0"),
    ("regular", 0.5, "regular link values must be >= 1"),
])
def test_link_inverse_rejects_values_below_the_origin(kind, h, match):
    with pytest.raises(ValueError, match=match):
        link_inverse(kind, h)


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
    np.testing.assert_allclose(np.diff(f.ys) / np.diff(f.xs), [2.0, 1.0])


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
    with pytest.raises(ValueError, match="1-d arrays of equal length"):
        PiecewiseLinearFn([0.0, 1.0], [0.0])
    with pytest.raises(ValueError, match="need at least one vertex"):
        PiecewiseLinearFn([], [])


@pytest.mark.parametrize("xs, ys", [
    ([0.0, 1.0, 2.0, 3.0], [1.0, np.nan, 0.5, 2.0]),      # NaN y
    ([0.0, np.nan, 2.0, 3.0], [1.0, 3.0, 0.5, 2.0]),      # NaN x
    ([0.0, 1.0, 2.0, 3.0], [1.0, np.inf, 0.5, 2.0]),      # inf y
])
def test_envelope_rejects_non_finite_vertices(xs, ys):
    # NaN passed the increasing-xs check and gave the hull (0,1),(3,2),
    # dropping the true vertex (2,0.5)
    for envelope in (convex_envelope, naive_envelope, PiecewiseLinearFn):
        with pytest.raises(ValueError, match="vertices must be finite"):
            envelope(xs, ys)


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
        slopes = np.diff(env.ys) / np.diff(env.xs)
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


# Integer points with |coordinate| <= 2**20: every cross product is an exact
# integer in float64, so the 1e-12 tolerance never decides a case.
_COORD = 2 ** 20


@st.composite
def lattice_points(draw):
    if draw(st.booleans()):
        # chains of small steps: collinear runs whenever a step repeats
        steps = draw(st.lists(st.tuples(st.integers(1, 3), st.integers(-3, 3)),
                              min_size=1, max_size=60))
        scale = draw(st.integers(1, 2 ** 11))
        y0 = draw(st.integers(-2 ** 19, 2 ** 19))
        dx, dy = np.array(steps).T * scale
        xs = np.concatenate(([0], np.cumsum(dx)))
        ys = y0 + np.concatenate(([0], np.cumsum(dy)))
    else:
        xs = np.array(sorted(draw(st.sets(st.integers(-_COORD, _COORD),
                                          min_size=2, max_size=60))))
        ys = np.array(draw(st.lists(st.integers(-_COORD, _COORD),
                                    min_size=xs.size, max_size=xs.size)))
    return xs.astype(float), ys.astype(float)


@settings(deadline=None, max_examples=300)
@given(lattice_points(), st.one_of(st.integers(0, 1002),
                                   st.integers(980, 1002)))
def test_envelope_equals_stack_loop_on_lattice(points, shift):
    """Scaling x by 2**shift scales every cross exactly until its products
    overflow, near shift 980; past that the envelope still keeps every
    vertex of the unscaled hull."""
    xs, ys = points
    env = convex_envelope(xs, ys)
    hx, hy = links._chain(xs, ys)
    np.testing.assert_array_equal(env.xs, hx)
    np.testing.assert_array_equal(env.ys, hy)
    scale = 2.0 ** shift
    scaled = convex_envelope(xs * scale, ys)
    idx = np.searchsorted(scaled.xs, hx * scale)
    np.testing.assert_array_equal(scaled.xs[idx], hx * scale)
    np.testing.assert_array_equal(scaled.ys[idx], hy)


def test_envelope_keeps_a_vertex_whose_cross_overflows():
    """(1e308, 1e10) lies 7.6e9 below the chord of its neighbours, but
    both products of its cross overflow: inf - inf is NaN, and a NaN cross
    keeps its point, as the stack loop does."""
    env = convex_envelope([0.0, 1e308, 1.7e308], [0.0, 1e10, 3e10])
    assert env.xs.tolist() == [0.0, 1e308, 1.7e308]


@st.composite
def adversarial_points(draw):
    """Near-collinear, tied and tiny inputs at scales 1e-12 .. 1e12."""
    n = draw(st.one_of(st.integers(2, 3), st.integers(2, 40)))
    sx = 10.0 ** draw(st.integers(-12, 12))
    sy = 10.0 ** draw(st.integers(-12, 12))
    xs = np.unique(sx * np.array(draw(st.lists(st.floats(0.0, 1.0),
                                                min_size=n, max_size=n))))
    if xs.size < 2:
        xs = np.array([0.0, sx])
    shape = draw(st.sampled_from(["line", "ties", "free"]))
    if shape == "line":        # a line, each point nudged near rounding
        noise = draw(st.lists(st.sampled_from([0.0, 1e-16, -1e-16, 1e-13,
                                               -1e-13, 1e-10]),
                              min_size=xs.size, max_size=xs.size))
        ys = 0.25 + 0.5 * xs / sx + np.array(noise)
    elif shape == "ties":      # few distinct heights: flats and exact ties
        ys = np.array(draw(st.lists(st.sampled_from([0.0, 0.5, 1.0]),
                                    min_size=xs.size, max_size=xs.size)))
    else:
        ys = np.array(draw(st.lists(st.floats(-1.0, 1.0), min_size=xs.size,
                                    max_size=xs.size)))
    return xs, ys * sy


@settings(deadline=None, max_examples=300)
@given(adversarial_points())
def test_envelope_properties_on_adversarial_floats(points):
    xs, ys = points
    env = convex_envelope(xs, ys)
    assert (env.xs[0], env.ys[0]) == (xs[0], ys[0])
    assert (env.xs[-1], env.ys[-1]) == (xs[-1], ys[-1])
    idx = np.searchsorted(xs, env.xs)
    np.testing.assert_array_equal(xs[idx], env.xs)
    np.testing.assert_array_equal(ys[idx], env.ys)
    # strictly increasing slopes, compared as the hull compares them: the
    # cross product of every three consecutive vertices is below -1e-12.
    # (Slopes divided out at these scales can round to equal floats.)
    dx, dy = np.diff(env.xs), np.diff(env.ys)
    assert np.all(dy[:-1] * dx[1:] - dy[1:] * dx[:-1] < -links._HULL_TOL)


def test_envelope_pass_cap_and_loop_fallback():
    """Inputs spanning several pruning blocks.  A convex chain ending in a low
    point loses one point per pass, so the passes stop at their cap and the
    stack loop finishes the hull.  A parabola with every odd point raised
    keeps every even point as a vertex, so a point lost at a block edge
    shows.  A random walk drops points in every block over several passes."""
    n = 3 * links._BLOCK + 5
    assert n - 2 > links._MAX_PASSES
    xs = np.arange(n, dtype=float)
    ys = xs * xs
    ys[-1] = -1.0
    env = convex_envelope(xs, ys)
    np.testing.assert_array_equal(env.xs, [0.0, xs[-1]])
    np.testing.assert_array_equal(env.ys, [0.0, -1.0])

    zigzag = xs * xs + n * (np.arange(n) % 2)
    walk = np.cumsum(np.random.default_rng(3).integers(-50, 51, n))
    for ys in (zigzag, walk.astype(float)):
        env = convex_envelope(xs, ys)
        hx, hy = links._chain(xs, ys)
        np.testing.assert_array_equal(env.xs, hx)
        np.testing.assert_array_equal(env.ys, hy)
    # n is odd, so the last point is even: the hull is exactly the evens
    np.testing.assert_array_equal(convex_envelope(xs, zigzag).xs, xs[::2])


def test_envelope_leaves_near_ties_to_the_loop():
    """Near-collinear points: the passes drop only points clearly above the
    chord, so the loop decides the ties as it would on the whole input.
    (Dropping every point with cross >= -1e-12 in the passes changes the
    hull here.)"""
    xs = [0.0007037331785697726, 0.0019264362860078844, 0.005477985114598788,
          0.005528139211835984, 0.008641989566794338]
    ys = [3.3119337489278215e-10, 2.481847169165255e-09, 2.0068155572756788e-08,
          2.0437308403179426e-08, 4.994514046614357e-08]
    env = convex_envelope(xs, ys)
    hx, hy = links._chain(np.array(xs), np.array(ys))
    np.testing.assert_array_equal(env.xs, hx)
    np.testing.assert_array_equal(env.ys, hy)


def _assert_envelope_is_pruned_reference(xs, ys):
    env = convex_envelope(xs, ys)
    rx, ry = pruned_envelope(xs, ys)
    assert env.xs.tobytes() == rx.tobytes()
    assert env.ys.tobytes() == ry.tobytes()


@pytest.mark.parametrize("n", [2, 3, links._BLOCK - 1, links._BLOCK,
                               links._BLOCK + 1, 2 * links._BLOCK + 1])
def test_envelope_equals_the_whole_array_reference(n):
    """The blocked in-place pruning passes keep what whole-array passes
    keep, bit for bit, at sizes around the block edges: on a noisy
    parabola, a random walk, near-collinear floats and a convex chain
    ending in a low point (one point lost per pass)."""
    rng = np.random.default_rng(n)
    xs = np.cumsum(rng.uniform(0.01, 1.0, n))
    low_end = xs * xs
    low_end[-1] = -1.0
    for ys in (1e-3 * (xs - xs.mean()) ** 2 + rng.uniform(0.0, 1.0, n),
               np.cumsum(rng.integers(-50, 51, n)).astype(float),
               0.5 * xs + rng.normal(0.0, 1e-13, n),
               low_end):
        _assert_envelope_is_pruned_reference(xs, ys)


@pytest.mark.parametrize("interior", [links._MAX_PASSES - 1, links._MAX_PASSES,
                                      links._MAX_PASSES + 1,
                                      3 * links._MAX_PASSES])
def test_envelope_equals_the_whole_array_reference_at_the_pass_cap(interior):
    """A convex chain ending in a low point loses one interior point per
    pass: the passes end one short of, at, and past their cap."""
    xs = np.arange(interior + 2, dtype=float)
    ys = xs * xs
    ys[-1] = -1.0
    _assert_envelope_is_pruned_reference(xs, ys)


def _assert_passes_are_the_stencil_reference(xs, ys):
    x, y = links._prune(np.asarray(xs, dtype=float), np.asarray(ys, dtype=float))
    rx, ry, widths = stencil_pruned_points(xs, ys)
    assert x.tobytes() == rx.tobytes()
    assert y.tobytes() == ry.tobytes()
    return widths


@pytest.mark.parametrize("n", [3, 5, links._BLOCK - 1, links._BLOCK,
                               links._BLOCK + 1, 2 * links._BLOCK + 1,
                               3 * links._BLOCK + 2])
def test_stencil_passes_equal_the_whole_array_reference(n):
    """The blocked in-place passes keep what whole-array passes keep, bit
    for bit, at sizes around the block edges: on a noisy parabola, a random
    walk, near-collinear floats and a convex chain ending in a low point,
    and on the first two scaled down by 2^-20 in x and 2^-10 in y, where
    no block's rounding bound reaches the wide tolerance."""
    rng = np.random.default_rng(n)
    xs = np.cumsum(rng.uniform(0.01, 1.0, n))
    low_end = xs * xs
    low_end[-1] = -1.0
    parabola = 1e-3 * (xs - xs.mean()) ** 2 + rng.uniform(0.0, 1.0, n)
    walk = np.cumsum(rng.integers(-50, 51, n)).astype(float)
    for x, ys in ((xs, parabola), (xs, walk),
                  (xs, 0.5 * xs + rng.normal(0.0, 1e-13, n)), (xs, low_end),
                  (xs * 2.0 ** -20, parabola * 2.0 ** -10),
                  (xs * 2.0 ** -20, walk * 2.0 ** -10)):
        _assert_passes_are_the_stencil_reference(x, ys)


@pytest.mark.parametrize("n", [2 * links._BLOCK + 1, 3 * links._BLOCK - 1,
                               3 * links._BLOCK, 3 * links._BLOCK + 1,
                               4 * links._BLOCK + 5])
def test_stencil_passes_equal_the_reference_up_to_the_widest(n):
    """Exact parabolas whose rounds run every width up to 16^3 = 4096 over
    several blocks.  With a raised run, a pass at width d drops the run's
    points within d of its edges.  With deep dips, a pass drops only the
    two points d away from each dip: fewer than d in a block, so the next
    block reads back points that the block's survivors would overwrite if
    they were written before that read."""
    rng = np.random.default_rng(n)
    xs = np.arange(n, dtype=float)
    raised = xs * xs
    raised[n // 4:3 * n // 4] += 1e10
    dipped = xs * xs
    dips = rng.choice(n, 40, replace=False)
    dipped[dips] -= rng.uniform(1e8, 1e9, dips.size).round()
    for ys in (raised, dipped):
        widths = _assert_passes_are_the_stencil_reference(xs, ys)
        assert links._WIDTH_STEP ** 3 in widths
        np.testing.assert_array_equal(convex_envelope(xs, ys).xs,
                                      pruned_envelope(xs, ys)[0])


def test_wide_passes_drop_only_certain_signs():
    """64 points on the line y = 1 + 0.75 x / 2^19, with x up to 1.7e7:
    width-16 crosses read up to 1.9e-8 on rounding alone, past the wide
    tolerance.  Each triple's rounding bound, 8 eps (|y_a| + |y_b| +
    |y_c|) (x_c - x_a), at least 3.9e-7 here, is below the block's, which
    keeps those points; dropped on their cross alone, the loop would keep
    one vertex more."""
    rng = np.random.default_rng(116)
    xs = np.cumsum(rng.uniform(0.01, 1.0, 64)) * 2.0 ** 19
    ys = 1.0 + 0.75 * xs / 2.0 ** 19
    d = 16
    cross = ((ys[d:-d] - ys[:-2 * d]) * (xs[2 * d:] - xs[d:-d])
             - (ys[2 * d:] - ys[d:-d]) * (xs[d:-d] - xs[:-2 * d]))
    bound = ((abs(ys[:-2 * d]) + abs(ys[d:-d]) + abs(ys[2 * d:]))
             * (xs[2 * d:] - xs[:-2 * d]) * links._MARGIN)
    assert np.any(cross >= links._WIDE_TOL) and np.all(cross < bound)
    env = convex_envelope(xs, ys)
    assert env.xs.size == 4
    hx, hy = links._chain(xs, ys)
    np.testing.assert_array_equal(env.xs, hx)
    np.testing.assert_array_equal(env.ys, hy)


def _enveloped_points(call):
    """call()'s result, and the points it passed to convex_envelope (once)."""
    seen = []
    def spy(xs, ys):
        seen.append((np.array(xs), np.array(ys)))
        return convex_envelope(xs, ys)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(links, "convex_envelope", spy)
        out = call()
    (points,) = seen
    return out, points


class ScaledEqualRevenue(EqualRevenue):
    """EqualRevenue(lo, cap) for any lo > 0 (the type wants lo >= 1)."""
    def __init__(self, lo, cap):
        super().__init__(1.0, cap / lo)
        self.lo, self.cap = lo, cap
        self._top, self._breaks = cap, np.array([lo, cap])


@pytest.mark.parametrize("kind", ["mhr", "regular"])
def test_wide_passes_keep_equal_revenue_balls_at_every_scale(kind):
    """EqualRevenue(2^k, 50 2^k), balled at alpha = 0 for k in [-40, 40]:
    a straight regular link, and near-ties everywhere far below k = 0.  The
    hull is the neighbour-pass reference's at every scale.  (Wide passes
    at the loop's own 1e-12 tolerance gain a knot at k = -32 .. -29 in the
    mhr kind.)"""
    for k in range(-40, 41):
        dist = ScaledEqualRevenue(2.0 ** k, 50 * 2.0 ** k)
        out, (xs, hs) = _enveloped_points(
            lambda: minimal_in_ks_ball(dist, 0.0, kind))
        rx, ry = pruned_envelope(xs, hs)
        assert out.xs.tobytes() == rx.tobytes(), k
        assert out.hs.tobytes() == ry.tobytes(), k


def test_the_loop_sees_only_the_hull_of_a_learn_input(monkeypatch):
    """On the tail-spike learner's hull input the pruning passes leave the
    stack loop a few times the vertex count, not tens of thousands."""
    sizes = []
    chain = links._chain
    def spy(xs, ys):
        out = chain(xs, ys)
        sizes.append((xs.size, out[0].size))
        return out
    monkeypatch.setattr(links, "_chain", spy)
    reproduce_counterexample1(0.05, 20.0, 2 * 10 ** 5, 7)
    (points, vertices), = sizes
    assert points <= 3 * vertices


@pytest.mark.parametrize("kind", ["mhr", "regular"])
def test_wide_passes_keep_learners_on_small_values(kind):
    """Learners on Exp(1000) samples, values near 1e-3: the balled link
    points crowd the 1e-12 tie band, and the hull is the neighbour-pass
    reference's.  (Wide passes at 1e-12 gain a knot in the regular kind.)"""
    samples = Exponential(1000.0).sample(50_000, 2)
    mech, (xs, hs) = _enveloped_points(
        lambda: robust_empirical_myerson([samples], [0.05], 0.01, kind))
    rx, ry = pruned_envelope(xs, hs)
    assert mech.bidders[0].xs.tobytes() == rx.tobytes()
    assert mech.bidders[0].hs.tobytes() == ry.tobytes()


@pytest.mark.parametrize("kind", ["mhr", "regular"])
@pytest.mark.parametrize("values", ["exp", "geomspace"])
def test_learners_on_values_near_the_float_limit(kind, values):
    """Learners on Exp(1) samples times 1e307 and on values from 1e300 to
    1.7e308: the pruning passes' cross products overflow without a warning
    (warnings are errors here), and the hull is the stack loop's over every
    point."""
    samples = (Exponential(1.0).sample(20_000, 3) * 1e307 if values == "exp"
               else np.geomspace(1e300, 1.7e308, 20_000))
    mech, (xs, hs) = _enveloped_points(
        lambda: robust_empirical_myerson([samples], [0.0], 0.05, kind))
    rx, ry = looped_chain(xs, hs)
    assert mech.bidders[0].xs.tobytes() == rx.tobytes()
    assert mech.bidders[0].hs.tobytes() == ry.tobytes()


def _assert_chain_is_the_loop(xs, ys):
    hx, hy = links._chain(xs, ys)
    rx, ry = looped_chain(xs, ys)
    assert hx.tobytes() == rx.tobytes()
    assert hy.tobytes() == ry.tobytes()


def _consecutive_crosses(xs, ys):
    return ((ys[1:-1] - ys[:-2]) * (xs[2:] - xs[1:-1])
            - (ys[2:] - ys[1:-1]) * (xs[1:-1] - xs[:-2]))


@pytest.mark.parametrize("kind", ["mhr", "regular"])
def test_chain_is_the_loop_on_the_truth_grids(kind):
    """_chain, which takes its convex prefix whole, is the stack loop over
    every point, bit for bit, on the truth mechanism's hull inputs for Exp(1),
    Exp(1/2) and U(0, 3): collinear in the mhr kind for the exponentials, so
    every point ties, and strictly convex for U(0, 3), which the loop then
    never sees."""
    inputs = []
    chain = links._chain
    def spy(xs, ys):
        inputs.append((xs.copy(), ys.copy()))
        return chain(xs, ys)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(links, "_chain", spy)
        truth_mechanism(ProductDist([Exponential(1.0), Exponential(0.5),
                                     Uniform(0.0, 3.0)]), kind)
    assert [xs.size for xs, _ in inputs] == [8192, 8192, 8193]
    for xs, ys in inputs:
        _assert_chain_is_the_loop(xs, ys)
    cross = [_consecutive_crosses(xs, ys) for xs, ys in inputs]
    assert np.all(cross[2] < -links._HULL_TOL)      # U(0, 3): no tie
    if kind == "mhr":
        assert np.all(cross[0] >= -links._HULL_TOL)  # Exp(1): all ties


def test_chain_is_the_loop_past_a_convex_prefix():
    """A convex prefix ends in a near-tie on either side of -1e-12 (or on
    +-1e-12 itself); the points after it pop back into the prefix.  _chain
    is the stack loop bit for bit, and so it is at 1, 2 and 3 points."""
    for target in (-1.5e-12, -1e-12, -0.5e-12, 0.0, 1e-12, 5e-12):
        xs = np.arange(12, dtype=float)
        ys = 0.01 * xs * xs
        # point 10 makes the triple (8, 9, 10) cross at about `target`
        ys[10] = ys[9] + ((ys[9] - ys[8]) * (xs[10] - xs[9]) - target)
        ys[11] = -1.0 if target < 0 else ys[10] + 0.5
        cross = _consecutive_crosses(xs, ys)
        assert np.all(cross[:8] < -links._HULL_TOL)
        assert abs(cross[8] - target) < 1e-14
        _assert_chain_is_the_loop(xs, ys)
    for xs, ys in (([0.0], [1.0]), ([0.0, 1.0], [1.0, 0.0]),
                   ([0.0, 1.0, 2.0], [0.0, 1.0, 0.0]),
                   ([0.0, 1.0, 2.0], [0.0, 0.0, 1.0]),
                   ([0.0, 1.0, 2.0], [0.0, 1.0, 2.0])):
        _assert_chain_is_the_loop(np.array(xs), np.array(ys))


def test_chain_is_the_loop_on_near_collinear_points():
    """2,000 near-collinear inputs, whose crosses sit in and around the
    1e-12 tie band: _chain is the stack loop over every point, bit for
    bit."""
    rng = np.random.default_rng(86)
    prefixes = 0
    for _ in range(2000):
        xs, ys = near_collinear_points(rng)
        _assert_chain_is_the_loop(xs, ys)
        prefixes += bool(_consecutive_crosses(xs, ys)[:1] < -links._HULL_TOL)
    assert prefixes > 100
