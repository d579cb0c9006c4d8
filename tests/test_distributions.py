"""Distribution layer: CDF algebra, sampling, KS distance, serialization."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from robust_auctions.distributions import (
    AppxC1,
    AppxC2,
    DownShiftSpike,
    EqualRevenue,
    Exponential,
    PiecewiseLinkCDF,
    PointMass,
    ProductDist,
    StepCDF,
    Uniform,
    UpShift,
    appx_c1,
    appx_c2,
    dist_from_dict,
    empirical_from_samples,
    ks_distance,
    parse_dist_spec,
)
from robust_auctions._rng import check_seed, uniform_stream
from robust_auctions.adversary import corrupt
from robust_auctions.ball import minimal_in_ks_ball
from robust_auctions.links import KINDS, link_forward
from robust_auctions.revenue import _BLOCK, _CHUNK, opt_single

from _gen import (Truncated, atom_masses, atomic_cases,
                  bracketwise_ks_distance, golden_ks_distance, jump_table,
                  random_link_cdf, random_step_cdf, reference_support_facts,
                  row_major_sample_profiles, truncate)
from _oracle import dominates


def _zoo():
    rng = np.random.default_rng(11)
    return [
        Exponential(1.0),
        Exponential(0.3),
        Uniform(0.0, 1.0),
        Uniform(0.5, 3.0),
        PointMass(2.0),
        EqualRevenue(1.0, 20.0),
        StepCDF([0.5, 1.0, 4.0], [0.2, 0.5, 0.3]),
        AppxC1(10, 0.1, "l"),
        AppxC1(10, 0.1, "h"),
        AppxC2(3, 0.4, "l"),
        AppxC2(3, 0.4, "h"),
        UpShift(Exponential(1.0), 0.1),
        DownShiftSpike(Exponential(1.0), 0.05, 20.0),
        Truncated(Exponential(1.0), 2.0),
        random_step_cdf(rng),
        random_link_cdf(rng, "mhr"),
        random_link_cdf(rng, "regular"),
    ]


def test_atomic_table_equals_searched_cdf():
    """On purely atomic inputs table() is (atoms, cdf_left(atoms),
    cdf(atoms)) bit for bit, whatever qs: StepCDF and PointMass, a one-atom
    StepCDF, read their running sums, clipped as the searches clip them, and
    the corruption wrappers take the base-class path."""
    qs = np.linspace(0.0, 1.0, 7, endpoint=False)
    for dist in atomic_cases(np.random.default_rng(11)):
        locs = dist.table()[0]
        want = (locs, dist.cdf_left(locs), dist.cdf(locs))
        for got, alt, ref in zip(dist.table(), dist.table(qs), want):
            assert got.dtype == ref.dtype and got.tobytes() == ref.tobytes()
            assert alt.tobytes() == ref.tobytes()


def test_table_equals_searched_cdf():
    """table(qs) is (the unique finite points of ppf(qs) joined with the
    breakpoints, cdf_left there, cdf there) bit for bit on every input that
    is not purely atomic, for an empty, a coarse and a fine grid."""
    for dist in _zoo() + [AppxC1(7, 0.8, "h")]:
        if dist.purely_atomic:
            continue
        for qs in ((), np.linspace(0.0, 1.0, 9),
                   np.arange(1, 2049) / 2049.0):
            pts = np.unique(np.concatenate((np.asarray(dist.ppf(qs), float),
                                            dist.breakpoints())))
            pts = pts[np.isfinite(pts)]
            want = (pts, dist.cdf_left(pts), dist.cdf(pts))
            for got, ref in zip(dist.table(qs), want, strict=True):
                assert got.dtype == ref.dtype and got.tobytes() == ref.tobytes()


@pytest.mark.parametrize("v", [0.0, 1.7, 2.0, 1e12])
def test_point_mass_is_the_one_atom_step(v):
    """PointMass(v) is StepCDF([v], [1.0]) with its own dict form: the two
    agree bit for bit wherever a caller reads them."""
    pm, step = PointMass(v), StepCDF([v], [1.0])

    def same(a, b):
        a, b = np.asarray(a), np.asarray(b)
        assert a.dtype == b.dtype and a.shape == b.shape
        assert a.tobytes() == b.tobytes()

    x = np.array([-1.0, 0.0, np.nextafter(v, -np.inf), v,
                  np.nextafter(v, np.inf), 2.0 * v + 1.0, np.inf])
    for name in ("cdf", "cdf_left"):
        same(getattr(pm, name)(x), getattr(step, name)(x))
        assert repr(getattr(pm, name)(v)) == repr(getattr(step, name)(v))
    same(pm.ppf(np.linspace(0.0, 1.0, 11)), step.ppf(np.linspace(0.0, 1.0, 11)))
    same(pm.sample(100, seed=3), step.sample(100, seed=3))
    for a, b in zip(pm.table(), step.table(), strict=True):
        same(a, b)
    for kind in KINDS:
        for alpha in (0.0, 0.1, 0.5):
            a = minimal_in_ks_ball(pm, alpha, kind)
            b = minimal_in_ks_ball(step, alpha, kind)
            same(a.xs, b.xs), same(a.hs, b.hs)
            assert a.support_top() == b.support_top()
    assert repr(opt_single(pm)) == repr(opt_single(step))
    assert pm.to_dict() == {"type": "point", "value": v}
    assert repr(pm) == f"PointMass(1 atoms on [{v:g}, {v:g}])"


def test_cdf_shape():
    for dist in _zoo():
        top = dist.support_top()
        hi = top if np.isfinite(top) else dist.ppf(1 - 1e-9)
        v = np.linspace(-1.0, hi + 2.0, 500)
        f = dist.cdf(v)
        fl = dist.cdf_left(v)
        assert np.all(np.diff(f) >= -1e-12)
        assert np.all(fl <= f + 1e-12)
        assert np.all((f >= -1e-12) & (f <= 1 + 1e-12))
        assert dist.cdf(-1.0) == 0.0
        if np.isfinite(top):
            assert dist.cdf(top) == pytest.approx(1.0, abs=1e-12)


def _closed_form_atoms(d):
    """(locations, masses) of the point masses of a _zoo() member."""
    if isinstance(d, PointMass):
        return [d.value], [1.0]
    if isinstance(d, EqualRevenue):
        return [d.cap], [d.lo / d.cap]
    if isinstance(d, AppxC1):
        return [d.v1], [np.exp(-d.v1)]
    if isinstance(d, UpShift):          # continuous base with F(0) = 0
        return [0.0], [d.alpha]
    if isinstance(d, DownShiftSpike):
        return [d.spike_x], [d.alpha + 1.0 - d.base.cdf_left(d.spike_x)]
    if isinstance(d, Truncated):
        return [d.cutoff], [1.0 - d.base.cdf_left(d.cutoff)]
    if isinstance(d, StepCDF):
        return d.values, d.masses
    if isinstance(d, PiecewiseLinkCDF):  # mass at the first knot, top atom
        return [d.xs[0], d.support_top()], [d.f_knots[0], d.top_atom]
    return [], []


def test_left_limit_closed_forms():
    """cdf - cdf_left is the atom mass at every breakpoint: the reference
    jump scan (and the atom table of purely atomic types) match closed
    forms, and at breakpoints without an atom, such as AppxC1 'h' at v2 or
    DownShiftSpike at base.ppf(alpha), the left limit equals the CDF
    exactly."""
    # in AppxC1(7, 0.8, 'h') the piece below v2 rounds one ulp away from
    # the piece above it at v2, so the left limit must use the upper piece
    for d in _zoo() + [AppxC1(7, 0.8, "h")]:
        want_x, want_m = _closed_form_atoms(d)
        tables = [jump_table(d)] + ([d.table()] if d.purely_atomic else [])
        for xs, left, right in tables:
            np.testing.assert_array_equal(xs, want_x)
            assert_allclose(right - left, want_m, rtol=0, atol=1e-12)
        pts = d.breakpoints()
        smooth = pts[np.isfinite(pts) & ~np.isin(pts, want_x)]
        np.testing.assert_array_equal(d.cdf_left(smooth), d.cdf(smooth))


def test_support_facts_match_the_per_type_formulas():
    """support_top and breakpoints, read off the two fields each constructor
    sets, equal every type's own formulas bit for bit, through both
    wrappers too; each breakpoints() call returns a fresh array."""
    rng = np.random.default_rng(17)
    bases = [Exponential(0.3), Uniform(0.5, 3.0), EqualRevenue(1.0, 20.0),
             StepCDF([0.5, 1.0, 4.0], [0.2, 0.5, 0.3]), PointMass(2.0),
             random_link_cdf(rng, "mhr"), random_link_cdf(rng, "regular"),
             AppxC1(10, 0.1, "l"), AppxC1(10, 0.1, "h"),
             AppxC2(3, 0.4, "l"), AppxC2(3, 0.4, "h")]
    cases = (bases + [UpShift(d, 0.1) for d in bases]
             + [DownShiftSpike(d, 0.05, 2.5) for d in bases])
    for d in cases:
        top, pts = reference_support_facts(d)
        assert type(d.support_top()) is float
        assert np.float64(d.support_top()).tobytes() == np.float64(top).tobytes()
        got = d.breakpoints()
        assert got.dtype == np.float64 and got.tobytes() == pts.tobytes()
        xs = np.concatenate((np.linspace(0.0, 25.0, 101), pts[np.isfinite(pts)]))
        before = d.cdf(xs).tobytes(), d.cdf_left(xs).tobytes()
        got[:] = 7.0
        assert d.breakpoints().tobytes() == pts.tobytes()
        assert (d.cdf(xs).tobytes(), d.cdf_left(xs).tobytes()) == before


def test_cdf_scalar_vs_array():
    dist = StepCDF([1.0, 2.0], [0.5, 0.5])
    assert isinstance(dist.cdf(1.5), float)
    assert_allclose(dist.cdf(np.array([1.5, 2.0])), [0.5, 1.0])



def test_cdf_clipped_at_support_boundaries():
    """Closed-form CDFs can round a hair outside [0, 1] at their support
    edges (e.g. 1 - 1/(n(x-1)) at x = 1 + 1/n); the public wrappers clip."""
    d = AppxC2(3, 0.5, "h")
    assert d.cdf(d.bottom) == 0.0
    for dist in _zoo():
        pts = dist.breakpoints()
        pts = pts[np.isfinite(pts)]
        for arr in (dist.cdf(pts), dist.cdf_left(pts)):
            arr = np.atleast_1d(arr)
            assert np.all(arr >= 0.0) and np.all(arr <= 1.0)


def test_atoms_sum_and_ppf_roundtrip():
    rng = np.random.default_rng(5)
    for _ in range(50):
        dist = random_step_cdf(rng)
        assert_allclose(dist.masses.sum(), 1.0, atol=1e-12)
        q = rng.uniform(0, 1, 200)
        v = dist.ppf(q)
        # ppf(q) is the smallest support point whose CDF reaches q
        assert np.all(dist.cdf(v) >= q - 1e-12)
        assert np.all(dist.cdf_left(v) <= q + 1e-12)


def test_step_cdf_worked_example():
    dist = StepCDF([1.0, 2.0], [0.5, 0.5])
    assert dist.cdf(0.5) == 0.0
    assert dist.cdf(1.0) == 0.5
    assert dist.cdf(1.5) == 0.5
    assert dist.cdf_left(2.0) == 0.5
    assert dist.cdf(2.0) == 1.0
    assert 1.0 - dist.cdf_left(2.0) == 0.5
    assert dist.ppf(0.5) == 1.0
    assert dist.ppf(0.5 + 1e-12) == 2.0
    assert dist.ppf(0.0) == 1.0
    assert dist.ppf(1.0) == 2.0


def test_step_cdf_validation():
    with pytest.raises(ValueError, match="strictly increasing"):
        StepCDF([1.0, 1.0], [0.5, 0.5])
    with pytest.raises(ValueError, match="masses must be positive"):
        StepCDF([1.0, 2.0], [1.0, 0.0])
    with pytest.raises(ValueError, match="masses must sum to 1"):
        StepCDF([1.0, 2.0], [0.5, 0.6])
    with pytest.raises(ValueError, match="nonnegative"):
        StepCDF([-1.0, 2.0], [0.5, 0.5])
    with pytest.raises(ValueError, match="quantiles must be in"):
        StepCDF([1.0], [1.0]).ppf(1.5)


@pytest.mark.parametrize("spec", ["exp:nan", "point:nan", "unif:nan:1",
                                  "point:inf", "unif:0:inf", "eqrev:1:nan",
                                  "eqrev:nan:5", "exp:inf"])
def test_spec_with_non_finite_parameter_is_rejected(spec):
    # each of these used to build a distribution that sampled NaN or inf
    # (or, for eqrev:nan:5 and exp:inf, a constant) and had no dict form
    with pytest.raises(ValueError, match="must be finite"):
        parse_dist_spec(spec)


def test_constructors_reject_non_finite_parameters():
    for build in (lambda: StepCDF([np.nan], [1.0]),
                  lambda: StepCDF([1.0, 2.0], [0.5, np.nan]),
                  lambda: PiecewiseLinkCDF("mhr", [np.nan, 1.0], [0.0, 1.0], 1.0),
                  lambda: PiecewiseLinkCDF("mhr", [0.0, 1.0], [0.0, np.inf], 1.0),
                  lambda: EqualRevenue(1.0, np.inf),
                  lambda: Uniform(0.0, np.nan),
                  lambda: PointMass(np.inf),
                  lambda: Exponential(np.nan)):
        with pytest.raises(ValueError, match="must be finite"):
            build()


@pytest.mark.parametrize("build, match", [
    (lambda: DownShiftSpike(Exponential(1.0), 0.0, 20.0), r"alpha must be in \(0, 1\)"),
    (lambda: DownShiftSpike(Exponential(1.0), 1.0, 20.0), r"alpha must be in \(0, 1\)"),
    (lambda: PointMass(-1.0), "point mass location must be nonnegative"),
    (lambda: PiecewiseLinkCDF("mhr", [-1.0, 1.0], [0.0, 1.0], 2.0),
     "knot xs must be nonnegative"),
    (lambda: Uniform(-1.0, 1.0), "need 0 <= lo < hi"),
    (lambda: Uniform(2.0, 2.0), "need 0 <= lo < hi"),
    (lambda: Uniform(3.0, 1.0), "need 0 <= lo < hi"),
    (lambda: ProductDist([]), "need at least one component"),
    (lambda: uniform_stream(0, -1, 4), "start and count must be nonnegative"),
    (lambda: uniform_stream(0, 0, -1), "start and count must be nonnegative"),
    (lambda: check_seed(1.5), "seed must be a whole number, not 1.5"),
    (lambda: uniform_stream(1.5, 0, 3), "seed must be a whole number"),
    (lambda: uniform_stream(float("inf"), 0, 3), "seed must be a whole number"),
    (lambda: uniform_stream(-1.0, 0, 3), r"seed -1 is not in \[0, 2\*\*128\)"),
])
def test_bad_arguments_raise_typed_errors(build, match):
    with pytest.raises(ValueError, match=match):
        build()


def test_whole_number_seeds_are_their_ints():
    """numpy ints and whole floats are seeds, the stream of the same int."""
    want = uniform_stream(3, 5, 7)
    for seed in (np.int64(3), np.uint8(3), 3.0, np.float64(3.0)):
        assert check_seed(seed) == 3 and type(check_seed(seed)) is int
        assert uniform_stream(seed, 5, 7).tobytes() == want.tobytes()


def test_link_cdf_validation():
    with pytest.raises(ValueError, match="convex"):
        PiecewiseLinkCDF("mhr", [0.0, 1.0, 2.0], [0.0, 1.0, 1.5],
                         support_top=3.0)
    with pytest.raises(ValueError, match="support_top must be finite"):
        PiecewiseLinkCDF("mhr", [0.0, 1.0], [0.0, 1.0], support_top=np.inf)
    with pytest.raises(ValueError, match="support_top must be finite"):
        PiecewiseLinkCDF("mhr", [0.0, 1.0], [0.0, 1.0], support_top=0.5)
    with pytest.raises(ValueError, match="at or above the link origin"):
        PiecewiseLinkCDF("regular", [0.0, 1.0], [0.5, 2.0], support_top=1.0)
    with pytest.raises(ValueError, match="non-decreasing"):
        PiecewiseLinkCDF("mhr", [0.0, 1.0, 2.0], [0.0, 1.0, 0.5],
                         support_top=2.0)
    with pytest.raises(ValueError, match="kind must be one of"):
        PiecewiseLinkCDF("uniform-hazard", [0.0, 1.0], [0.0, 1.0],
                         support_top=1.0)


def test_link_cdf_matches_exponential():
    """mhr knots sampled from -log survival of exp(1) reproduce its CDF."""
    xs = np.linspace(0.0, 4.0, 40)
    dist = PiecewiseLinkCDF("mhr", xs, xs, support_top=4.0)
    v = np.linspace(0.0, 4.0, 300)[:-1]  # the top itself carries an atom
    assert_allclose(dist.cdf(v), -np.expm1(-v), atol=1e-12)
    assert_allclose(dist.ppf(dist.cdf(v)), v, atol=1e-9)
    # closing atom of size e^{-4} at the support top
    assert_allclose(1.0 - dist.cdf_left(4.0), np.exp(-4.0), atol=1e-12)


def test_link_cdf_flat_gap():
    """Between the last knot and support_top the CDF is flat, then jumps."""
    dist = PiecewiseLinkCDF("regular", [0.0, 1.0], [1.0, 2.0],
                            support_top=3.0)
    assert dist.cdf(1.0) == pytest.approx(0.5)
    assert dist.cdf(2.9) == pytest.approx(0.5)
    assert dist.cdf_left(3.0) == pytest.approx(0.5)
    assert dist.cdf(3.0) == 1.0
    xs, ms = atom_masses(dist)
    assert 3.0 in xs
    assert_allclose(ms[xs == 3.0], 0.5)


def test_ks_frozen_values():
    assert_allclose(ks_distance(Exponential(1.0), Exponential(2.0)), 0.25,
                    atol=1e-9)
    assert_allclose(ks_distance(Uniform(0, 1), Uniform(0, 2)), 0.5,
                    atol=1e-9)
    s1 = StepCDF([1, 2], [0.5, 0.5])
    s2 = StepCDF([1, 2], [0.25, 0.75])
    assert_allclose(ks_distance(s1, s2), 0.25, atol=1e-12)
    assert ks_distance(s1, s1) == 0.0


def test_ks_zoom_matches_golden_section():
    """The shared zoom finds the interior maxima the golden-section search
    found, to a few ulps of 1: the two probe different points of the same
    smooth gap.  Corruptions peak at a breakpoint and agree bit for bit."""
    truth = Exponential(1.0)
    smooth = [(minimal_in_ks_ball(d, a, k), d)
              for d in (truth, Uniform(1.0, 4.0), EqualRevenue(2.0, 10.0))
              for k in KINDS for a in (0.0, 0.05)]
    smooth += [(appx_c1(2, 0.4, "l"), appx_c1(2, 0.4, "h")),
               (appx_c2(3, 0.5, "l"), appx_c2(3, 0.5, "h")),
               (Exponential(1.0), Exponential(2.0)), (Uniform(0, 1), truth)]
    for d1, d2 in smooth:
        assert abs(ks_distance(d1, d2) - golden_ks_distance(d1, d2)) <= 1e-15
    for adversary in ("tailspike:1.0", "tailspike:20.0", "shift:up",
                      "shift:down"):
        for alpha in (0.01, 0.05):
            d = corrupt(truth, adversary, alpha)
            assert ks_distance(d, truth) == golden_ks_distance(d, truth)


def test_ks_zoom_of_all_brackets_at_once_is_the_bracketwise_zoom():
    """ks_distance zooms its five brackets one at a time, best first, with
    the one-bracket helper it shares with opt_single, and returns what the
    reference (`_gen.bracketwise_ks_distance`) returns, bit for bit.  The
    cases: balls of four truths in both kinds, the lower-bound pairs, two
    parametric pairs, every adversary's self-check input and random link
    CDFs against each other and against parametric truths."""
    rng = np.random.default_rng(41)
    truths = [Exponential(1.0), Exponential(0.5), Uniform(1.0, 4.0),
              EqualRevenue(2.0, 10.0), appx_c2(3, 0.5, "h")]
    pairs = [(minimal_in_ks_ball(d, a, k), d) for d in truths[:4]
             for k in KINDS for a in (0.0, 0.05)]
    pairs += [(appx_c1(2, 0.4, "l"), appx_c1(2, 0.4, "h")),
              (appx_c2(3, 0.5, "l"), appx_c2(3, 0.5, "h")),
              (Exponential(1.0), Exponential(2.0)), (Uniform(0, 1), truths[0])]
    pairs += [(corrupt(d, adversary, alpha), d) for d in truths
              for adversary in ("tailspike:1.0", "tailspike:20.0",
                                "shift:up", "shift:down")
              for alpha in (0.01, 0.05)]
    for i in range(20):
        kind = KINDS[i % 2]
        pairs.append((random_link_cdf(rng, kind), random_link_cdf(rng, kind)))
        pairs.append((random_link_cdf(rng, kind), truths[i % len(truths)]))
    for d1, d2 in pairs:
        assert ks_distance(d1, d2) == bracketwise_ks_distance(d1, d2)


def test_ks_symmetry():
    rng = np.random.default_rng(3)
    for _ in range(20):
        d1 = random_step_cdf(rng)
        d2 = random_step_cdf(rng)
        assert_allclose(ks_distance(d1, d2), ks_distance(d2, d1), atol=1e-12)


def test_shift_wrappers_hit_their_radius():
    base = Exponential(1.0)
    up = UpShift(base, 0.1)
    assert_allclose(ks_distance(up, base), 0.1, atol=1e-9)
    assert_allclose(up.cdf(0.0), 0.1 + base.cdf(0.0), atol=1e-12)
    assert up.cdf(np.log(10.0) + 1.0) == 1.0

    down = DownShiftSpike(base, 0.05, 20.0)
    assert_allclose(ks_distance(down, base), 0.05, atol=1e-9)
    assert_allclose(1.0 - down.cdf_left(20.0), 0.05, atol=1e-12)
    assert_allclose(down.cdf(1.0), base.cdf(1.0) - 0.05, atol=1e-12)
    with pytest.raises(ValueError, match="alpha must be in"):
        UpShift(base, 1.5)
    with pytest.raises(ValueError, match="spike location"):
        DownShiftSpike(base, 0.05, np.inf)


def test_upshift_cdf_is_one_from_its_top():
    """F_b(ppf(1 - alpha)) >= 1 - alpha, so UpShift's CDF is 1 from its top
    on, though F_b + alpha can round below 1 there (U(0, 3) at four alphas
    and appxC2:3:0.5:h at two read 1 - 1.1e-16 .. 1 - 3.3e-16 with the
    formula alone).  Its table reads 1 at the top too, and the left limit
    and every value below the top stay min(F_b + alpha, 1)."""
    bases = [Exponential(1.0), Exponential(0.3), Uniform(0.0, 3.0),
             EqualRevenue(1.0, 50.0), appx_c1(3, 0.5, "h"),
             appx_c2(3, 0.5, "h")]
    for base in bases:
        for alpha in (1e-4, 0.01, 0.05, 0.1, 0.2, 0.3, 0.5, 0.9):
            d = UpShift(base, alpha)
            top = d.support_top()
            assert d.cdf(top) == 1.0 and d.cdf(2.0 * top) == 1.0
            xs, _, right = d.table(np.linspace(0.0, 1.0, 64, endpoint=False))
            assert right[xs == top].tolist() == [1.0]
            x = np.concatenate((np.linspace(0.0, top, 257)[1:], [2.0 * top]))
            formula = np.minimum(base.cdf_left(x) + alpha, 1.0)
            assert np.array_equal(d.cdf_left(x), formula)
            below = x < top
            assert np.array_equal(d.cdf(x[below]),
                                  np.minimum(base.cdf(x[below]) + alpha, 1.0))


def test_appx_c1_frozen_constants():
    d = AppxC1(10, 0.1, "h")
    assert_allclose(d.a, 2.407946, atol=1e-6)
    assert_allclose(d.b_, 2.302585, atol=1e-6)
    assert_allclose(d.v0, 1.407946, atol=1e-6)
    assert_allclose(d.v1, 2.513306, atol=1e-6)
    assert_allclose(d.v2, d.a, atol=0)
    # continuous at the kink v2, where both members have CDF 1 - 1/n
    assert_allclose(d.cdf(d.v2 - 1e-9), d.cdf(d.v2), atol=1e-8)
    assert_allclose(d.cdf(d.v2), 0.9, atol=1e-12)
    for which in ("l", "h"):
        m = AppxC1(10, 0.1, which)
        xs, ms = atom_masses(m)
        assert_allclose(xs, [m.v1], atol=0)
        assert_allclose(ms, [np.exp(-m.v1)], atol=1e-12)
        assert_allclose(ms, [0.081], atol=1e-12)
    base = appx_c1(10, 0.1, "b")
    assert isinstance(base, PointMass)
    assert_allclose(base.support_top(), d.v0, atol=0)


def test_appx_c1_rejects_tiny_settings():
    with pytest.raises(ValueError, match="must be positive"):
        AppxC1(2, 0.2, "l")
    AppxC1(2, 0.3, "l")  # inside the valid window
    with pytest.raises(ValueError, match="need n >= 2"):
        AppxC1(1, 0.3, "l")
    with pytest.raises(ValueError, match="which must be"):
        AppxC1(10, 0.1, "x")


def test_appx_c2_shapes():
    d = AppxC2(1, 0.5, "l")
    assert d.ppf(0.0) == 2.0
    assert d.cdf(2.0) == 0.0
    assert d.support_top() == np.inf
    h = AppxC2(1, 0.5, "h")
    assert h.v2 == 3.0
    # agree below v2; beyond it the 'h' CDF sits strictly above, and the
    # widest gap is the closed form (1 - sqrt(1 - beta))^2 / n
    v = np.linspace(2.0, 2.99, 50)
    assert_allclose(h.cdf(v), d.cdf(v), atol=1e-12)
    v = np.linspace(3.2, 50.0, 50)
    assert np.all(h.cdf(v) > d.cdf(v))
    assert_allclose(ks_distance(h, d), (1 - np.sqrt(0.5)) ** 2, atol=1e-6)
    assert isinstance(appx_c2(1, 0.5, "b"), PointMass)


def test_equal_revenue_constant_revenue():
    d = EqualRevenue(1.0, 20.0)
    v = np.linspace(1.0, 20.0, 100)
    assert_allclose(v * (1.0 - d.cdf_left(v)), np.ones_like(v), atol=1e-12)
    with pytest.raises(ValueError, match="scale lo"):
        EqualRevenue(0.5, 20.0)
    with pytest.raises(ValueError, match="cap must exceed"):
        EqualRevenue(2.0, 2.0)


def test_truncation():
    base = Exponential(1.0)
    t = truncate(base, 2.0)
    assert t.cdf(2.0) == 1.0
    assert t.support_top() == 2.0
    assert_allclose(t.cdf(1.0), base.cdf(1.0), atol=1e-12)
    xs, ms = atom_masses(t)
    assert_allclose(ms[xs == 2.0], np.exp(-2.0), atol=1e-12)
    with pytest.raises(ValueError, match="cutoff"):
        truncate(base, np.inf)


def test_truncation_contracts_ks():
    rng = np.random.default_rng(9)
    pairs = [(Exponential(1.0), Exponential(1.7)),
             (Uniform(0, 2), Exponential(1.0)),
             (EqualRevenue(1, 50), EqualRevenue(1, 30))]
    for _ in range(10):
        pairs.append((random_step_cdf(rng), random_step_cdf(rng)))
    for d1, d2 in pairs:
        for u in (0.8, 1.5, 3.0):
            trunc_ks = ks_distance(truncate(d1, u), truncate(d2, u))
            assert trunc_ks <= ks_distance(d1, d2) + 1e-9


def test_sampling_prefix_stable():
    for dist in [Exponential(1.0), Uniform(0, 2),
                 StepCDF([1, 2, 5], [0.3, 0.3, 0.4])]:
        full = dist.sample(100, seed=42)
        for k in (1, 50, 99):
            assert np.array_equal(dist.sample(k, seed=42), full[:k])
        assert not np.array_equal(full, dist.sample(100, seed=43))


def test_profile_sampling_partition_invariant():
    prod = ProductDist([Exponential(1.0), Uniform(0, 1), Exponential(2.0)])
    full = prod.sample_profiles(10, seed=7)
    assert full.shape == (10, 3)
    assert np.array_equal(prod.sample_profiles(4, seed=7, first_profile=3),
                          full[3:7])


def test_profile_sampling_matches_the_row_major_reference():
    """Profiles are stored bidder-major, so that each bid column is
    contiguous, with the values of the row-major matrix bit for bit: at
    block and chunk edges, over atoms, point masses, link CDFs and closed
    forms."""
    link = PiecewiseLinkCDF("mhr", [0.0, 1.0, 2.5], [0.0, 0.5, 2.0], 3.0)
    prods = [ProductDist([Exponential(1.0)]),
             ProductDist([Exponential(0.5), Uniform(0.0, 3.0),
                          StepCDF([0.0, 1.0, 4.0], [0.2, 0.5, 0.3]),
                          PointMass(2.0), link])]
    for prod in prods:
        for count, first in ((1, 0), (_BLOCK - 1, 0), (_BLOCK + 1, _BLOCK - 3),
                             (_BLOCK, _CHUNK - 5), (_CHUNK + 12_345, 0)):
            got = prod.sample_profiles(count, 9, first_profile=first)
            ref = row_major_sample_profiles(prod, count, 9, first)
            assert got.shape == ref.shape
            assert np.array_equal(got.view(np.int64), ref.view(np.int64)), \
                (prod.n, count, first)
            assert all(got[:, j].flags.c_contiguous for j in range(prod.n))


def test_sampling_matches_distribution():
    x = Exponential(1.0).sample(10_000, seed=77)
    assert ks_distance(empirical_from_samples(x), Exponential(1.0)) < 0.02


def test_empirical_from_samples():
    emp = empirical_from_samples([2.0, 1.0, 2.0, 3.0])
    xs, ms = atom_masses(emp)
    assert_allclose(xs, [1.0, 2.0, 3.0])
    assert_allclose(ms, [0.25, 0.5, 0.25])
    with pytest.raises(ValueError, match="no samples"):
        empirical_from_samples([])
    with pytest.raises(ValueError, match="finite and nonnegative"):
        empirical_from_samples([1.0, -2.0])


def test_dominates():
    assert dominates(Exponential(0.5), Exponential(1.0))
    assert not dominates(Exponential(1.0), Exponential(0.5))
    assert dominates(Uniform(1, 2), Uniform(0, 1))
    base = Exponential(1.0)
    assert dominates(base, UpShift(base, 0.1))
    # a spike beyond a bounded support only ever moves mass up
    unif = Uniform(0.0, 1.0)
    assert dominates(DownShiftSpike(unif, 0.1, 2.0), unif)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_step_ppf_is_generalized_inverse(seed):
    dist = random_step_cdf(np.random.default_rng(seed))
    q = np.random.default_rng(seed + 1).uniform(0, 1, 64)
    v = dist.ppf(q)
    below = v - 1e-9
    assert np.all(dist.cdf(v) >= q - 1e-12)
    assert np.all(dist.cdf(below) < q + 1e-12)


def _discrete_survival(masses):
    s = np.concatenate([np.cumsum(masses[::-1])[::-1], [0.0]])
    s[0] = 1.0
    return s


def test_hazard_monotone_iff_mhr_knots_convex():
    """On integer supports, a non-decreasing hazard is exactly convexity of
    the mhr link applied to the CDF, which is what the shape machinery tests.
    """
    rng = np.random.default_rng(0)
    checked = 0
    for _ in range(2000):
        k = rng.integers(1, 8)
        p = rng.dirichlet(np.ones(k + 1) * rng.uniform(0.3, 3.0))
        s = _discrete_survival(p)
        mono = np.diff(p / s[:-1])
        y = link_forward("mhr", 1.0 - s[:-1])
        conv = np.diff(y, 2)
        if np.any(np.abs(mono) < 1e-9) or np.any(np.abs(conv) < 1e-9):
            continue  # borderline either way, skip
        checked += 1
        assert bool(np.all(mono > 0)) == (conv.size == 0 or bool(np.all(conv > 0)))
    assert checked > 1500


def test_virtual_value_monotone_iff_regular_knots_convex():
    rng = np.random.default_rng(1)
    checked = 0
    for _ in range(2000):
        k = rng.integers(1, 8)
        p = rng.dirichlet(np.ones(k + 1) * rng.uniform(0.3, 3.0))
        s = _discrete_survival(p)
        phi = np.arange(k + 1) - s[1:] / p
        mono = np.diff(phi)
        y = link_forward("regular", 1.0 - s[:-1])
        conv = np.diff(y, 2)
        if np.any(np.abs(mono) < 1e-9) or np.any(np.abs(conv) < 1e-9):
            continue
        checked += 1
        assert bool(np.all(mono > 0)) == (conv.size == 0 or bool(np.all(conv > 0)))
    assert checked > 1500


def test_parse_dist_spec():
    cases = {
        "exp:1.5": Exponential,
        "unif:0:2": Uniform,
        "eqrev:1:20": EqualRevenue,
        "point:3": PointMass,
        "appxC1:10:0.1:h": AppxC1,
        "appxC2:1:0.5:l": AppxC2,
        "appxC1:10:0.1:b": PointMass,
    }
    for spec, cls in cases.items():
        assert isinstance(parse_dist_spec(spec), cls)
    with pytest.raises(ValueError, match="unknown distribution spec"):
        parse_dist_spec("normal:0:1")
    with pytest.raises(ValueError, match="unknown distribution spec"):
        parse_dist_spec("exp")
    with pytest.raises(ValueError, match="bad distribution spec"):
        parse_dist_spec("exp:zero")


def test_dict_roundtrip():
    for dist in _zoo():
        if isinstance(dist, Truncated):
            continue            # a test-only type without a dict form
        clone = dist_from_dict(dist.to_dict())
        top = dist.support_top()
        hi = top if np.isfinite(top) else dist.ppf(1 - 1e-9)
        v = np.linspace(0.0, hi + 0.5, 200)
        assert_allclose(clone.cdf(v), dist.cdf(v), atol=1e-12)
        assert_allclose(clone.cdf_left(v), dist.cdf_left(v), atol=1e-12)
    with pytest.raises(ValueError, match="unknown distribution dict"):
        dist_from_dict({"type": "gaussian"})


def test_dict_errors_name_the_field():
    cases = [
        ([1, 2], "must be a JSON object"),
        ({"type": ["exp"]}, "unknown distribution dict type"),
        ({"rate": 1.0}, "unknown distribution dict type None"),
        ({"type": "exp"}, "exp: missing field 'rate'"),
        ({"type": "exp", "rate": None}, "exp: field 'rate' has the wrong"),
        ({"type": "exp", "rate": "1.5"}, "field 'rate' has the wrong"),
        ({"type": "exp", "rate": True}, "field 'rate' has the wrong"),
        ({"type": "exp", "rate": float("inf")}, "field 'rate' has the wrong"),
        ({"type": "step", "values": [float("nan")], "masses": [1.0]},
         "field 'values' has the wrong"),
        ({"type": "step", "values": [None], "masses": [1.0]},
         "field 'values' has the wrong"),
        ({"type": "link_cdf", "kind": "mhr", "knots": [1, 2],
          "support_top": 2.0}, "field 'knots' has the wrong"),
        ({"type": "link_cdf", "kind": "mhr", "knots": [[0, 0, 1]],
          "support_top": 2.0}, "field 'knots' has the wrong"),
        ({"type": "link_cdf", "kind": 3, "knots": [[0, 0]],
          "support_top": 2.0}, "field 'kind' has the wrong"),
        ({"type": "upshift", "alpha": 0.1, "base": {"type": "exp"}},
         "exp: missing field 'rate'"),
        ({"type": "appxC1", "n": 10 ** 30, "beta": 0.1, "which": "l"},
         "appxC1: "),
        ({"type": "exp", "rate": -1.0}, "rate must be positive"),
    ]
    for d, match in cases:
        with pytest.raises(ValueError, match=match):
            dist_from_dict(d)


def test_ks_link_pair_between_knots():
    """Two link CDFs differ most between their knots: 1 - e^-x against
    1 - e^-2x peaks at x = ln 2 with gap 1/2 - 1/4, above the knot gap
    e^-1 - e^-2 = 0.2325."""
    a = PiecewiseLinkCDF("mhr", [0.0, 1.0], [0.0, 1.0], 1.0)
    b = PiecewiseLinkCDF("mhr", [0.0, 1.0], [0.0, 2.0], 1.0)
    assert abs(ks_distance(a, b) - 0.25) < 1e-9
    assert abs(ks_distance(b, a) - 0.25) < 1e-9


def test_spike_below_the_shifted_base_is_the_bottom():
    """A spike below base.ppf(alpha) holds all the mass, so it is where the
    support starts."""
    d = DownShiftSpike(Exponential(1.0), 0.5, 0.002)
    assert d.ppf(0.0) == 0.002
    assert d.cdf(0.002) == 1.0 and d.cdf_left(0.002) == 0.0
