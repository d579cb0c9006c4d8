"""Value distributions: step CDFs, piecewise-link CDFs, parametric families,
corruption wrappers, products, and the KS metric.

Conventions used throughout:

  * Supports live on [0, inf); bounded types close with a top atom.
  * Sampling is inverse-transform on counter-based uniform substreams, so a
    sample prefix never depends on how many draws were requested.
"""

from __future__ import annotations

import numpy as np

from . import links
from ._rng import profile_uniforms, uniform_stream

_ATOM_TOL = 1e-15


def _check_finite(**params):
    """NaN slips past checks written as `x <= 0 -> raise`, and a dict form
    cannot hold an infinity: both are a ValueError naming the parameter."""
    for name, value in params.items():
        if not np.all(np.isfinite(value)):
            raise ValueError(f"{name} must be finite")


class Distribution:
    """Base interface. Subclasses implement _cdf/_ppf on 1-d float arrays;
    scalar handling lives here.  `_cdf(arr, left=True)` is the left limit
    Pr[V < x], which differs from the CDF only at atoms.  Each constructor
    sets `_top`, the support top, and `_breaks`, the finite discontinuities
    and kinks; a parametric one or a link CDF also `_prices`, its own exact
    candidates for the best posted price (opt_single).  A type with a dict
    form names it in TYPE and its constructor arguments, in dict order, in
    FIELDS: the table the JSON codec and the spec strings read."""

    TYPE, FIELDS = None, ()
    purely_atomic = False
    _prices = None

    # -- array core, overridden by subclasses ------------------------------
    def _cdf(self, arr: np.ndarray, left: bool = False) -> np.ndarray:
        raise NotImplementedError

    def _ppf(self, q: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    # -- public API ---------------------------------------------------------
    def cdf(self, x):
        arr = np.atleast_1d(np.asarray(x, dtype=float))
        # formulas like 1 - 1/(n(x-1)) can land a hair outside [0, 1] at
        # support boundaries; the public contract clips that noise away
        out = np.clip(self._cdf(arr), 0.0, 1.0)
        return float(out[0]) if np.ndim(x) == 0 else out

    def cdf_left(self, x):
        arr = np.atleast_1d(np.asarray(x, dtype=float))
        out = np.clip(self._cdf(arr, True), 0.0, 1.0)
        return float(out[0]) if np.ndim(x) == 0 else out

    def ppf(self, q):
        arr = np.atleast_1d(np.asarray(q, dtype=float))
        if np.any(arr < 0.0) or np.any(arr > 1.0):
            raise ValueError("quantiles must be in [0, 1]")
        out = self._ppf(arr)
        return float(out[0]) if np.ndim(q) == 0 else out

    def sample(self, count: int, seed: int) -> np.ndarray:
        return self._ppf(uniform_stream(seed, 0, count))

    def support_top(self) -> float:
        return self._top

    def breakpoints(self) -> np.ndarray:
        """Finite discontinuities and kinks, for grids and the KS metric."""
        return self._breaks.copy()

    def table(self, qs=()):
        """(xs, F(xs-), F(xs)): the table the learner, the KS ball and
        opt_single read instead of searching point by point.  A purely
        atomic input tabulates its atoms, the breakpoints where F jumps, and
        ignores qs; any other input the finite points of ppf(qs) joined with
        its breakpoints.  The CDF arrays are new; xs may be shared."""
        if not self.purely_atomic:
            xs = np.unique(np.concatenate((self.ppf(qs), self.breakpoints())))
            xs = xs[np.isfinite(xs)]
            return xs, np.asarray(self.cdf_left(xs)), np.asarray(self.cdf(xs))
        xs = self.breakpoints()
        left, right = np.asarray(self.cdf_left(xs)), np.asarray(self.cdf(xs))
        keep = right - left > _ATOM_TOL
        return xs[keep], left[keep], right[keep]

    def to_dict(self) -> dict:
        if self.TYPE is None:
            raise NotImplementedError
        out = {"type": self.TYPE}
        for name in self.FIELDS:
            v = getattr(self, name)
            out[name] = (v.to_dict() if isinstance(v, Distribution)
                         else v.tolist() if isinstance(v, np.ndarray) else v)
        return out


class StepCDF(Distribution):
    """Finite discrete distribution: mass masses[i] at values[i]."""

    TYPE, FIELDS = "step", ("values", "masses")
    purely_atomic = True

    def __init__(self, values, masses):
        values = np.asarray(values, dtype=float)
        masses = np.asarray(masses, dtype=float)
        # one test passes every valid input; the checks name what is wrong
        if not (values.ndim == 1 and values.shape == masses.shape
                and values.size and values[0] >= 0 and values[-1] < np.inf
                and np.all(values[1:] > values[:-1])
                and masses.min() > 0 and masses.max() < np.inf):
            _check_finite(values=values, masses=masses)
            if values.ndim != 1 or values.shape != masses.shape or values.size == 0:
                raise ValueError("values and masses must be matching nonempty 1-d arrays")
            if np.any(np.diff(values) <= 0):
                raise ValueError("values must be strictly increasing")
            if np.any(values < 0):
                raise ValueError("values must be nonnegative")
            if np.any(masses <= 0):
                raise ValueError("masses must be positive")
        self._cum0 = np.zeros(masses.size + 1)     # F just below each atom
        cum = self._cum = np.cumsum(masses, out=self._cum0[1:])
        if abs(cum[-1] - 1.0) > 1e-9:
            raise ValueError("masses must sum to 1")
        cum[-1] = 1.0
        self.values = values
        self.masses = masses
        self._top, self._breaks = float(values[-1]), values

    def _cdf(self, arr, left=False):
        side = "left" if left else "right"
        return self._cum0[np.searchsorted(self.values, arr, side=side)]

    def _ppf(self, q):
        idx = np.searchsorted(self._cum, q, side="left")
        return self.values[np.minimum(idx, self.values.size - 1)]

    def table(self, qs=()):
        # the running sums, clipped as cdf/cdf_left clip them: bit for bit
        # the searched values, as the atoms strictly increase
        return (self.values, np.clip(self._cum0[:-1], 0.0, 1.0),
                np.clip(self._cum, 0.0, 1.0))

    def __repr__(self):
        return (f"{type(self).__name__}({self.values.size} atoms on"
                f" [{self.values[0]:g}, {self.values[-1]:g}])")


class PiecewiseLinkCDF(Distribution):
    """CDF given by straight knots in link space plus a closing top atom.

    Between knots, F(x) = link_inverse(linear interpolation of h).  Beyond the
    last knot F stays flat until `support_top`, where the remaining mass
    1 - link_inverse(h_last) sits as an atom.  Knot convexity is validated at
    construction (no ironing here: non-convex inputs are rejected).
    """

    TYPE, FIELDS = "link_cdf", ("kind", "knots", "support_top")

    def __init__(self, kind, xs, hs, support_top):
        links.check_kind(kind)
        xs = np.asarray(xs, dtype=float)
        hs = np.asarray(hs, dtype=float)
        _check_finite(xs=xs, hs=hs)
        if xs.ndim != 1 or xs.shape != hs.shape or xs.size == 0:
            raise ValueError("xs and hs must be matching nonempty 1-d arrays")
        if np.any(np.diff(xs) <= 0):
            raise ValueError("knot xs must be strictly increasing")
        if xs[0] < 0:
            raise ValueError("knot xs must be nonnegative")
        origin = links.link_origin(kind)
        if hs[0] < origin - 1e-9:
            raise ValueError("h values must start at or above the link origin")
        if np.any(np.diff(hs) < -1e-12):
            raise ValueError("h values must be non-decreasing")
        hs = np.maximum.accumulate(np.maximum(hs, origin))
        with np.errstate(over="ignore"):
            slopes = np.diff(hs) / np.diff(xs)  # >= 0: hs is non-decreasing
        if not np.all(np.isfinite(slopes)):
            raise ValueError("knot slopes must be finite")
        if np.any(np.diff(slopes) < -1e-9 * np.maximum(1.0, slopes[:-1])):
            raise ValueError("link knots must be convex")
        support_top = float(support_top) + 0.0     # -0.0 is +0.0
        if not np.isfinite(support_top) or support_top < xs[-1]:
            raise ValueError("support_top must be finite, at or beyond the last knot")
        self.kind = kind
        self.xs = xs
        self.hs = hs
        with np.errstate(divide="ignore", over="ignore"):
            # 1/slope of each piece: inf for a flat (or subnormal) slope
            self.inv_slopes = inv = 1.0 / slopes
        self._top = support_top
        self._breaks = np.unique(np.append(xs, support_top))
        self.f_knots = np.asarray(links.link_inverse(kind, hs))
        self.top_atom = 1.0 - float(self.f_knots[-1])
        self.purely_atomic = xs.size == 1
        # an MHR piece's revenue peaks at 1/slope; a regular one's is monotone
        stat = inv[(inv > xs[:-1]) & (inv < xs[1:])] if kind == "mhr" else []
        self._prices = [xs, [support_top], stat]

    def _interp_cdf(self, arr):
        return links.link_inverse(self.kind, np.interp(arr, self.xs, self.hs))

    def _cdf(self, arr, left=False):
        # past the last knot np.interp holds h_last, so F stays f_last up to
        # the top atom
        ge = np.greater if left else np.greater_equal
        return np.select([ge(arr, self._top), ge(arr, self.xs[0])],
                         [1.0, self._interp_cdf(arr)], default=0.0)

    def _ppf(self, q):
        f0, f_last = self.f_knots[0], self.f_knots[-1]
        out = np.full(q.shape, self._top)
        out[q == f_last] = self.xs[-1]
        out[q <= f0] = self.xs[0]
        mid = (q > f0) & (q < f_last)
        if np.any(mid):
            hq = np.asarray(links.link_forward(self.kind, q[mid]))
            j = np.searchsorted(self.hs, hq, side="left")
            j = np.clip(j, 1, self.hs.size - 1)
            dh = self.hs[j] - self.hs[j - 1]
            dx = self.xs[j] - self.xs[j - 1]
            frac = np.where(dh > 0, (hq - self.hs[j - 1]) / np.where(dh > 0, dh, 1.0), 1.0)
            out[mid] = self.xs[j - 1] + frac * dx
        return out

    @classmethod
    def from_fields(cls, kind, knots, support_top):
        """The dict form's fields, for which the constructor's differ."""
        knots = np.asarray(knots, dtype=float).reshape(-1, 2)
        return cls(kind, knots[:, 0], knots[:, 1], support_top)

    def to_dict(self):
        return {"type": "link_cdf", "kind": self.kind,
                "knots": [[float(x), float(h)] for x, h in zip(self.xs, self.hs)],
                "support_top": self._top, "top_atom": self.top_atom}

    def __repr__(self):
        return (f"PiecewiseLinkCDF({self.kind}, {self.xs.size} knots, "
                f"top={self._top:g}, top_atom={self.top_atom:.4g})")


class PointMass(StepCDF):
    TYPE, FIELDS = "point", ("value",)

    def __init__(self, value):
        value = float(value)
        _check_finite(value=value)
        if value < 0:
            raise ValueError("point mass location must be nonnegative")
        self.value = value
        super().__init__([value], [1.0])


class Exponential(Distribution):
    TYPE, FIELDS = "exp", ("rate",)

    def __init__(self, rate):
        rate = float(rate)
        _check_finite(rate=rate)
        if rate <= 0:
            raise ValueError("rate must be positive")
        self.rate = rate
        self._top, self._breaks = np.inf, np.array([0.0])
        self._prices = [1.0 / rate]     # revenue x e^{-rate x} peaks there

    # rate * x and the quantiles may pass the float range; their IEEE
    # limits (F = 1, x = inf) are the answers
    def _cdf(self, arr, left=False):
        with np.errstate(over="ignore"):
            return np.where(arr <= 0, 0.0,
                            -np.expm1(-self.rate * np.maximum(arr, 0.0)))

    def _ppf(self, q):
        with np.errstate(divide="ignore", over="ignore"):
            out = np.negative(q)    # -log1p(-q) / rate, computed in place
            np.log1p(out, out=out)
            return np.divide(np.negative(out, out=out), self.rate, out=out)


class Uniform(Distribution):
    TYPE, FIELDS = "unif", ("lo", "hi")

    def __init__(self, lo, hi):
        lo, hi = float(lo), float(hi)
        _check_finite(lo=lo, hi=hi)
        if lo < 0 or hi <= lo:
            raise ValueError("need 0 <= lo < hi")
        self.lo, self.hi = lo, hi
        self._top, self._breaks = hi, np.array([lo, hi])
        self._prices = [max(lo, 0.5 * hi)]  # x (hi - x) peaks at hi / 2

    def _cdf(self, arr, left=False):
        with np.errstate(over="ignore"):    # a subnormal width: clipped to 0 or 1
            return np.clip((arr - self.lo) / (self.hi - self.lo), 0.0, 1.0)

    def _ppf(self, q):
        return self.lo + q * (self.hi - self.lo)


class EqualRevenue(Distribution):
    """F(x) = 1 - lo/x on [lo, cap), closed with an atom at cap.

    Every reserve in [lo, cap] earns revenue lo; the regular link is the
    straight line h_r(x) = x / lo.
    """

    TYPE, FIELDS = "eqrev", ("lo", "cap")

    def __init__(self, lo, cap):
        lo, cap = float(lo), float(cap)
        _check_finite(lo=lo, cap=cap)
        if lo < 1:
            raise ValueError("scale lo must be >= 1")
        if cap <= lo:
            raise ValueError("cap must exceed lo")
        self.lo, self.cap = lo, cap
        self._top, self._breaks = cap, np.array([lo, cap])
        # every price earns lo; the smallest, lo, with no rounding in F(lo-)
        self._prices = [lo]

    def _cdf(self, arr, left=False):
        ge = np.greater if left else np.greater_equal
        out = np.zeros(arr.shape)
        m = ge(arr, self.lo)
        out[m] = 1.0 - self.lo / arr[m]
        out[ge(arr, self.cap)] = 1.0
        return out

    def _ppf(self, q):
        qcut = 1.0 - self.lo / self.cap
        out = np.full(q.shape, self.cap)
        m = q < qcut
        out[m] = self.lo / (1.0 - q[m])
        return out


def _family_member(n, beta, which, n_min):
    """Checked (n, beta, which) of a confusable pair's low or high member."""
    n, beta = int(n), float(beta)
    if n < n_min:
        raise ValueError(f"need n >= {n_min}")
    if not 0 < beta < 1:
        raise ValueError("beta must be in (0, 1)")
    if which not in ("l", "h"):
        raise ValueError("which must be 'l' or 'h'")
    return n, beta, which


class AppxC1(Distribution):
    """A confusable pair of bounded MHR distributions.

    Parameterized by (n, beta); `which` selects the lower ('l') or upper ('h')
    member.  Both close with an atom of e^{-v1} at v1 and are KS-close while
    demanding very different reserves; use `appx_c1` for the point-mass base
    'b' variant.  Derived constants are exposed as attributes (a, b_, v0, v1,
    v2) for the generator that declares the pair's exact KS radius.
    """

    TYPE, FIELDS = "appxC1", ("n", "beta", "which")

    def __init__(self, n, beta, which):
        self.n, self.beta, self.which = _family_member(n, beta, which, n_min=2)
        c = -np.log1p(-self.beta)
        self.a = float(np.log(self.n) + c)
        self.b_ = float(np.log(self.n))
        self.v0 = self.a - 1.0
        self.v1 = float(np.log(self.n) + 2 * c)
        self.v2 = self.a
        if self.v0 <= 0:
            raise ValueError("base value v0 = ln(n) - ln(1-beta) - 1 must be positive")
        self._top = self.v1
        self._breaks = np.array([0.0, self.v1] if self.which == "l"
                                else [0.0, self.v2, self.v1])
        # an exponential piece's revenue x S(x) peaks at 1/rate: 1 ('l'),
        # a/b ('h' below v2; past v2, rate 2 and x > 1/2, it falls)
        self._prices = [*self._breaks, 1.0, self.a / self.b_]

    def _cdf(self, arr, left=False):
        ge = np.greater if left else np.greater_equal
        if self.which == "l":
            body = -np.expm1(-np.maximum(arr, 0.0))
            return np.select([ge(arr, self.v1), ge(arr, 0)], [1.0, body], 0.0)
        low = -np.expm1(-(self.b_ / self.a) * np.maximum(arr, 0.0))
        mid = -np.expm1(-(2.0 * (arr - self.a) + self.b_))
        # the CDF is continuous at the kink v2, so both sides use >= there
        return np.select([ge(arr, self.v1), arr >= self.v2, ge(arr, 0)],
                         [1.0, mid, low], 0.0)

    def _ppf(self, q):
        f_top = -np.expm1(-self.v1)  # CDF just below the closing atom
        with np.errstate(divide="ignore"):
            t = -np.log1p(-q)
        if self.which == "l":
            return np.where(q >= f_top, self.v1, t)
        f2 = -np.expm1(-self.b_)     # CDF at the middle kink v2
        return np.select([q >= f_top, q >= f2],
                         [self.v1, self.a + 0.5 * (t - self.b_)],
                         (self.a / self.b_) * t)


class AppxC2(Distribution):
    """A confusable pair of unbounded regular distributions.

    Equal-revenue-flavoured: the lower member has constant virtual value on
    its support, the upper one thickens the tail beyond v2 = 1 + 1/beta.
    """

    TYPE, FIELDS = "appxC2", ("n", "beta", "which")

    def __init__(self, n, beta, which):
        self.n, self.beta, self.which = _family_member(n, beta, which, n_min=1)
        self.bottom = 1.0 + 1.0 / self.n
        self.v2 = 1.0 + 1.0 / self.beta
        self._top = np.inf
        self._breaks = np.array([self.bottom] if self.which == "l"
                                else [self.bottom, self.v2])
        self._prices = self._breaks     # revenue x S(x) falls on each piece

    def _cdf(self, arr, left=False):
        out = np.zeros(arr.shape)
        # n (x - 1) past the float range is F = 1, its IEEE limit
        with np.errstate(over="ignore"):
            if self.which == "l":
                m = arr >= self.bottom
                out[m] = 1.0 - 1.0 / (self.n * (arr[m] - 1.0))
            else:
                m = (arr >= self.bottom) & (arr < self.v2)
                out[m] = 1.0 - 1.0 / (self.n * (arr[m] - 1.0))
                m = arr >= self.v2
                out[m] = 1.0 - (1.0 - self.beta) / (self.n * (arr[m] - 2.0))
        return out

    def _ppf(self, q):
        with np.errstate(divide="ignore"):
            low = np.maximum(self.bottom, 1.0 + 1.0 / (self.n * (1.0 - q)))
            if self.which == "l":
                return low
            high = 2.0 + (1.0 - self.beta) / (self.n * (1.0 - q))
        return np.where(q < 1.0 - self.beta / self.n, low, high)


def appx_c1(n, beta, which) -> Distribution:
    if which == "b":
        probe = AppxC1(n, beta, "l")   # validates parameters, computes v0
        return PointMass(probe.v0)
    return AppxC1(n, beta, which)


def appx_c2(n, beta, which) -> Distribution:
    if which == "b":
        AppxC2(n, beta, "l")
        return PointMass(1.5)
    return AppxC2(n, beta, which)


# ---------------------------------------------------------------------------
# corruption wrappers
# ---------------------------------------------------------------------------

class UpShift(Distribution):
    """min(F + alpha, 1): moves alpha of mass to an atom at 0."""

    TYPE, FIELDS = "upshift", ("alpha", "base")

    def __init__(self, base: Distribution, alpha):
        self.base = base
        self.alpha = alpha = links.check_alpha(alpha, open_at_0=True)
        self._top = float(base.ppf(1.0 - alpha))
        self.purely_atomic = base.purely_atomic

    def _cdf(self, arr, left=False):
        below, ge = ((np.less_equal, np.greater) if left
                     else (np.less, np.greater_equal))
        base = self.base.cdf_left if left else self.base.cdf
        out = np.minimum(np.asarray(base(arr)) + self.alpha, 1.0)
        out[ge(arr, self._top)] = 1.0    # where F + alpha may round below 1
        return np.where(below(arr, 0), 0.0, out)

    def _ppf(self, q):
        at_zero = self.alpha + float(self.base.cdf(0.0))
        shifted = np.asarray(self.base.ppf(np.clip(q - self.alpha, 0.0, 1.0)))
        return np.where(q <= at_zero, 0.0, np.minimum(shifted, self._top))

    def breakpoints(self):
        # derived when asked, not in the constructor (DownShiftSpike's too):
        # a wrapper over a 10^6-atom step CDF need not pay for a table that
        # its user may never read
        base_pts = self.base.breakpoints()
        pts = np.concatenate(([0.0], base_pts[base_pts < self._top], [self._top]))
        return np.unique(pts)


class DownShiftSpike(Distribution):
    """max(F - alpha, 0) below spike_x, with all remaining mass at spike_x."""

    TYPE, FIELDS = "downshift_spike", ("alpha", "spike_x", "base")

    def __init__(self, base: Distribution, alpha, spike_x):
        alpha = links.check_alpha(alpha, open_at_0=True)
        spike_x = float(spike_x)
        if not np.isfinite(spike_x) or spike_x <= 0:
            raise ValueError("spike location must be positive and finite")
        self.base = base
        self.alpha = alpha
        self.spike_x = self._top = spike_x
        self._left_at_spike = max(float(base.cdf_left(spike_x)) - alpha, 0.0)
        self.purely_atomic = base.purely_atomic

    def _cdf(self, arr, left=False):
        ge = np.greater if left else np.greater_equal
        base = self.base.cdf_left if left else self.base.cdf
        return np.where(ge(arr, self.spike_x), 1.0,
                        np.maximum(np.asarray(base(arr)) - self.alpha, 0.0))

    def _ppf(self, q):
        shifted = np.add(q, self.alpha)     # base ppf at min(q + alpha, 1)
        np.minimum(shifted, 1.0, out=shifted)
        shifted = np.minimum(self.base._ppf(shifted), self.spike_x, out=shifted)
        return np.where(q <= self._left_at_spike, shifted, self.spike_x)

    def breakpoints(self):
        base_pts = self.base.breakpoints()
        pts = np.concatenate((base_pts[base_pts < self.spike_x],
                              [float(self.base.ppf(self.alpha)), self.spike_x]))
        return np.unique(pts)


# ---------------------------------------------------------------------------
# empirical CDFs, products
# ---------------------------------------------------------------------------

def empirical_from_samples(samples) -> StepCDF:
    samples = np.asarray(samples, dtype=float).ravel()
    if samples.size == 0:
        raise ValueError("no samples")
    # min and max propagate NaN, with no mask of the samples' length
    if not (samples.min() >= 0 and samples.max() < np.inf):
        raise ValueError("samples must be finite and nonnegative")
    # np.unique with counts, less its copies: flags at each new value and
    # past the end give the values and the run lengths
    srt = np.sort(samples)
    new = np.empty(srt.size + 1, dtype=bool)
    new[0] = new[-1] = True
    np.not_equal(srt[1:], srt[:-1], out=new[1:-1])
    idx = np.flatnonzero(new)
    return StepCDF(srt[idx[:-1]], np.diff(idx) / samples.size)


class ProductDist:
    """Independent per-bidder value distributions; draws whole profiles."""

    def __init__(self, components):
        components = list(components)
        if not components:
            raise ValueError("need at least one component")
        self.components = components
        self.n = len(components)

    def sample_profiles(self, count: int, seed: int,
                        first_profile: int = 0) -> np.ndarray:
        u = profile_uniforms(seed, first_profile, count, self.n)
        out = np.empty((self.n, count)).T   # each bidder's bids contiguous
        for j, dist in enumerate(self.components):
            out[:, j] = dist._ppf(u[:, j])
        return out

    def __iter__(self):
        return iter(self.components)


# ---------------------------------------------------------------------------
# KS distance
# ---------------------------------------------------------------------------

_KS_GRID = 100_000
_KS_QGRID = 4096


def _candidate_points(d1, d2):
    """(points where the CDF gap can peak, whether they are exact)."""
    exact = d1.purely_atomic or d2.purely_atomic
    pts = [np.asarray(d.breakpoints(), dtype=float) for d in (d1, d2)]
    if not exact:
        tops = []
        for d in (d1, d2):
            t = d.support_top()
            tops.append(t if np.isfinite(t) else float(d.ppf(1.0 - 1e-9)))
        lo = min(d1.ppf(0.0), d2.ppf(0.0))
        hi = max(tops)
        if hi > lo:
            pts.append(np.linspace(lo, hi, _KS_GRID))
        qs = np.linspace(0.0, 1.0 - 1e-9, _KS_QGRID)
        pts.append(np.asarray(d1.ppf(qs)))
        pts.append(np.asarray(d2.ppf(qs)))
    cand = np.unique(np.concatenate(pts))
    return cand[np.isfinite(cand)], exact


def _refine_max(f, cand, i, best, tol):
    """(x, f(x)) of the best point seen from `best` at cand[i] on, as a
    33-point grid zooms on the bracket around cand[i] (f is elementwise)
    until it is within tol or stops shrinking (adjacent floats)."""
    best_x = float(cand[i])
    lo, hi = cand[max(i - 1, 0)], cand[min(i + 1, cand.size - 1)]
    width = np.inf
    while tol < hi - lo < width:
        width = hi - lo
        grid = np.linspace(lo, hi, 33)
        vals = f(grid)
        j = int(np.argmax(vals))
        if vals[j] > best:
            best_x, best = float(grid[j]), float(vals[j])
        lo, hi = grid[max(j - 1, 0)], grid[min(j + 1, 32)]
    return best_x, best


def ks_distance(d1: Distribution, d2: Distribution) -> float:
    """sup-norm distance between the two CDFs.

    Exact in two cases, from one-sided limits at a few points.  With a
    piecewise-constant (purely atomic) side the gap peaks at a breakpoint of
    either side.  With an UpShift or DownShiftSpike whose `base` is the
    other side, the gap is monotone on each side of the wrapper's top: on
    x >= 0 it is min(alpha, 1 - F), which never rises (UpShift), or
    min(alpha, F) below the spike, which never falls, and 1 - F from it
    (DownShiftSpike).  So the limits at 0 and at the top reach the sup.
    Any other pair (two link CDFs too, between knots) takes a dense grid,
    whose five best points are zoomed one bracket at a time, best first,
    to 1e-13 relative, which finds interior maxima between breakpoints.
    """
    # only the two wrappers have a base
    wrap, base = (d1, d2) if getattr(d1, "base", None) is d2 else (d2, d1)
    if getattr(wrap, "base", None) is base:
        cand, exact = np.array([0.0, wrap.support_top()]), True
    else:
        cand, exact = _candidate_points(d1, d2)
    gap_r = np.abs(np.asarray(d1.cdf(cand)) - np.asarray(d2.cdf(cand)))
    gap_l = np.abs(np.asarray(d1.cdf_left(cand)) - np.asarray(d2.cdf_left(cand)))
    best = float(max(gap_r.max(), gap_l.max()))
    if exact:
        return best
    # refine around the best few grid points; the gap is continuous there
    gap = lambda x: np.abs(d1.cdf(x) - d2.cdf(x))
    for i in np.argsort(np.maximum(gap_r, gap_l))[::-1][:5]:
        best = _refine_max(gap, cand, i, best,
                           1e-13 * max(1.0, abs(cand[i])))[1]
    return best


# ---------------------------------------------------------------------------
# spec strings and JSON round trip
# ---------------------------------------------------------------------------

# every type with a dict form, by the TYPE its class declares
_TYPES = {cls.TYPE: cls for cls in (
    StepCDF, PointMass, PiecewiseLinkCDF, Exponential, Uniform, EqualRevenue,
    AppxC1, AppxC2, UpShift, DownShiftSpike)}
# the types with a spec string; 'b' picks a confusable family's base
_SPEC_BUILDERS = {"exp": Exponential, "unif": Uniform, "eqrev": EqualRevenue,
                  "point": PointMass, "appxC1": appx_c1, "appxC2": appx_c2}


# the JSON shape of each field that is not a number: [s] is a list of s,
# (s, t) a two-element list, float a finite number (not a bool)
_SHAPES = {"kind": str, "which": str, "values": [float], "masses": [float],
           "knots": [(float, float)], "base": dict}


def _fits(v, shape) -> bool:
    """Whether the JSON value v has the given shape (see _SHAPES)."""
    if isinstance(shape, list):
        return isinstance(v, list) and all(_fits(x, shape[0]) for x in v)
    if isinstance(shape, tuple):
        return (isinstance(v, list) and len(v) == len(shape)
                and all(map(_fits, v, shape)))
    if shape is float:
        return (isinstance(v, (int, float)) and not isinstance(v, bool)
                and abs(v) < np.inf)
    return isinstance(v, shape)


def parse_dist_spec(spec: str) -> Distribution:
    """Build a distribution from a compact string: a type name, then its
    fields in order, colon-separated.

    Syntax: exp:RATE | unif:A:B | eqrev:LO:CAP | point:V |
    appxC1:N:BETA:b|h|l | appxC2:N:BETA:b|h|l
    """
    name, *args = str(spec).strip().split(":")
    build = _SPEC_BUILDERS.get(name)
    if build is None or len(args) != len(_TYPES[name].FIELDS):
        raise ValueError(f"unknown distribution spec {spec!r}")
    try:
        return build(*[a if f == "which" else int(a) if f == "n" else float(a)
                       for f, a in zip(_TYPES[name].FIELDS, args)])
    except ValueError as exc:
        raise ValueError(f"bad distribution spec {spec!r}: {exc}") from exc


def dist_from_dict(d) -> Distribution:
    """Inverse of `to_dict`; ValueError, naming the field, on any bad input."""
    if not isinstance(d, dict):
        raise ValueError("a distribution must be a JSON object")
    name = d.get("type")
    cls = _TYPES.get(name) if isinstance(name, str) else None
    if cls is None:
        raise ValueError(f"unknown distribution dict type {name!r}")
    fields = {}
    for f in cls.FIELDS:
        if f not in d:
            raise ValueError(f"{name}: missing field {f!r}")
        if not _fits(d[f], _SHAPES.get(f, float)):
            raise ValueError(f"{name}: field {f!r} has the wrong type or shape")
        fields[f] = dist_from_dict(d[f]) if f == "base" else d[f]
    try:
        return getattr(cls, "from_fields", cls)(**fields)
    except (TypeError, OverflowError) as exc:   # a number too large to use
        raise ValueError(f"{name}: {exc}") from exc
