"""Myerson optimal auctions over piecewise-link CDFs.

Virtual values have closed forms per link-space piece: an MHR piece with
slope a contributes phi(v) = v - 1/a (the hazard rate is constant on the
piece); a regular piece starting at knot (x, h) with slope a contributes the
constant phi = x - h/a (equal-revenue pieces have phi = 0).  The closing top
atom at the support top x_top has phi(x_top) = x_top.  Convexity of the knots
makes phi non-decreasing once the convexity check's tolerance is absorbed, so
no ironing is ever needed: construction rejects non-convex inputs but accepts
a slope that drops at a knot by up to 1e-9 max(1, slope), and phi reads the
MHR 1/slopes through a running min and the regular constants through a
running max.  So phi is non-decreasing in floating point, and {phi >= 0} is
exactly [reserve, inf).

Conventions, fixed here and relied on by the payment logic:

  * at a knot the higher (right-hand piece) value is taken;
  * the gap between the last knot and the support top (a region carrying
    no mass) is a row of the piece table, empty when the top is the last
    knot: the MHR form extends the last piece linearly and the regular form
    keeps its last constant, preserving monotonicity;
  * ties in virtual value are won by the lowest bidder index, so the winner
    must beat lower-index opponents strictly and higher-index ones weakly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .distributions import PiecewiseLinkCDF, _fits, dist_from_dict
from .links import check_kind

_NEG_INF = float("-inf")


def _rank_key(t, strict):
    """np.nextafter(t, max(t, +inf where strict, else -inf)), -0.0 as +0.0."""
    bits = np.add(t, 0.0).view(np.int64)    # -0.0 + 0.0 is +0.0
    sign = bits >> 63       # -1 below zero, where the bits fall as t rises
    bits += (strict ^ sign) - sign          # two's complement: -s = ~s + 1
    return np.minimum(bits, 0x7FF0 << 48, out=bits).view(float)  # inf's bits


class _KnotRank:
    """np.searchsorted(table, a, side) for sorted tables and arrays a, no NaN
    in either, `which` naming a's table (one, or one per a).  The bucket f(x)
    = floor(clip(x s - lo s, 0, nb - 1)), s = 2 len / (hi - lo), is monotone
    in floating point, so knots in lower buckets than a are < a and in higher
    ones > a: the rank is start[f(a)] plus ceil(log2(occupancy + 1)) steps,
    step 2^k adding the bool (knot <= a) ("right") or (knot < a) ("left")
    << k.  Table w is stacked at offsets[w], padded by 2^steps NaNs."""

    def __init__(self, *tables):
        tables = [np.asarray(t, dtype=float) for t in tables]
        sizes = np.array([t.size for t in tables])
        # an empty table has no span: like one knot, it is one bucket
        lo, hi = np.array([t[[0, -1]] if t.size else (0.0, 0.0)
                           for t in tables]).T
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            scale = 2.0 * sizes / (hi - lo)     # numpy: 1/0 is inf
        # no span, one that overflows, or one so small that the scale does
        self._scale = np.where((scale > 0.0) & (scale < np.inf), scale, 1.0)
        self._shift = -lo * self._scale
        self._nb = 2 * int(sizes.max()) + 2     # buckets per table
        counts = [np.bincount(self._bucket(t, w), minlength=self._nb)
                  for w, t in enumerate(tables)]
        self.pad = 1 << int(max(c.max() for c in counts)).bit_length()
        self.offsets = np.cumsum(sizes + self.pad) - sizes - self.pad
        self._start = np.concatenate([np.cumsum(c) - c + at for c, at
                                      in zip(counts, self.offsets)])
        # NaN compares false, so a step never counts past its table's end
        padded = np.concatenate([np.append(t, np.full(self.pad, np.nan))
                                 for t in tables])
        self._steps = [(k, padded[(1 << k) - 1:])
                       for k in range(self.pad.bit_length() - 1)][::-1]

    @np.errstate(over="ignore")     # x s beyond the floats is inf: clipped
    def _bucket(self, a, which):
        b = a * self._scale.take(which)
        b += self._shift.take(which)
        np.clip(b, 0.0, self._nb - 1, out=b)    # truncation floors b >= 0
        b = b.astype(np.intp)
        if np.ndim(which):                  # table w's buckets start at w nb
            b += which * self._nb
        return b

    def __call__(self, a, side="right", which=0):
        before = np.less_equal if side == "right" else np.less
        rank = self._start.take(self._bucket(a, which))
        for k, ahead in self._steps:
            le = before(ahead.take(rank), a)
            rank += le << k if k else le
        return rank


def _threshold(kind, t, i, lefts, inv_s, rights):
    """inf{v : phi(v) >= t} on the piece rows i of the targets t."""
    if kind != "mhr":
        return lefts.take(i)
    # a flat piece (1/slope inf) meets t = -inf at its left end
    with np.errstate(invalid="ignore"):
        out = np.fmax(lefts.take(i), t + inv_s.take(i))
    return np.minimum(out, rights.take(i), out=out)


class VirtualValueFn:
    """Per-piece closed-form virtual values for one PiecewiseLinkCDF."""

    def __init__(self, cdf: PiecewiseLinkCDF):
        self.kind = cdf.kind
        self.top = cdf.support_top()
        xs, hs = cdf.xs, cdf.hs
        # rows: one per piece between knots, then the massless gap [x_last,
        # top], empty when the top is the last knot.  The gap continues the
        # last piece (a flat one, 1/slope inf, if there is none) and copies
        # its regular constant: a fresh evaluation can land an ulp off and
        # unsort the sups.  IEEE arithmetic makes a flat piece's value -inf:
        # x - inf (mhr), x - h * inf with h >= 1 (regular).
        rights = np.append(xs[1:], self.top)
        inv_s = np.append(cdf.inv_slopes, np.append(np.inf, cdf.inv_slopes)[-1])
        if self.kind == "mhr":
            # running min of 1/slope, the twin of the running max below: a
            # slope drop inside the convexity tolerance would make phi dip
            np.minimum.accumulate(inv_s, out=inv_s)
            vals = rights - inv_s
        else:
            vals = xs[:-1] - hs[:-1] * cdf.inv_slopes
            vals = np.append(vals, np.append(_NEG_INF, vals)[-1])
        # running max of each piece's largest virtual value: its right end
        # (mhr) or its constant (regular)
        self._sups = np.maximum.accumulate(vals)
        # payments rank targets t >= 0 among the sups >= 0 only: a near-flat
        # first piece can put a sup at -1e16, and a bucket table spanning it
        # would squeeze every other sup into one bucket
        self._neg_sups = int(np.searchsorted(self._sups, 0.0))
        # a closing piece [top, top] with 1/slope 0 ends the piece tables;
        # phi's tables also start with the part below the first knot, where
        # phi is v - inf (mhr) or -inf (regular)
        self._lefts = np.append(xs, self.top)
        self._rights = np.append(rights, self.top)
        self._inv_s = np.append(inv_s, 0.0)
        # by rank: 1/slope, phi = v - it (mhr), or phi itself (regular)
        self._phi_tab = (np.append(np.inf, self._inv_s) if self.kind == "mhr"
                         else np.concatenate(([_NEG_INF], self._sups, [self.top])))
        self.reserve = float(self.inverse(0.0))

    # -- evaluation ---------------------------------------------------------
    def phi(self, v):
        """Virtual value, vectorized; -inf below the first knot, clamped to
        the top-atom value for v >= support top.  ValueError if v is NaN."""
        arr = np.ascontiguousarray(v, dtype=float)  # copies strided columns
        if np.isnan(arr.min(initial=0.0)):          # min propagates NaN
            raise ValueError("v must not be NaN")
        out = self._phi(arr, self._lefts.searchsorted(arr, "right"), self._phi_tab)
        return float(out[0]) if np.ndim(v) == 0 else out

    def _phi(self, v, i, tab):
        """phi of v at ranks i in knots holding `_lefts`; tab: `_phi_tab` by i."""
        if self.kind != "mhr":
            return tab.take(i)
        out = v - tab.take(i)       # v - 1/slope <= v < top below it
        return np.minimum(out, self.top, out=out)

    def inverse(self, t, strict=False):
        """inf{v : phi(v) >= t}, or > t where `strict` (a bool or one per
        target), vectorized.  Targets beyond the top-atom value clamp to the
        support top; NaN raises ValueError."""
        arr = np.atleast_1d(np.asarray(t, dtype=float))
        if np.isnan(arr.min(initial=0.0)):          # min propagates NaN
            raise ValueError("t must not be NaN")
        # phi(v) > t is phi(v) >= the next float up: one left rank serves
        # both; a target above every sup lands on the closing piece: the top
        i = np.searchsorted(self._sups, _rank_key(arr, strict))
        out = _threshold(self.kind, arr, i, self._lefts, self._inv_s,
                         self._rights)
        return float(out[0]) if np.ndim(t) == 0 else out


def _pass_ranks(mechs):
    """Per bidder a _KnotRank over the union U of the mechanisms' piece
    lefts, and per mechanism and bidder its `_phi_tab` by rank in U: no left
    lies in (U[r - 1], b], so b's own rank is the count of lefts <= U[r - 1]."""
    rankers, tables = [], []
    for vvs in zip(*(mech.vvs for mech in mechs)):
        union = np.unique(np.concatenate([vv._lefts for vv in vvs]))
        rankers.append(_KnotRank(union))
        tables.append([vv._phi_tab.take(np.append(0, np.searchsorted(
            vv._lefts, union, "right"))) for vv in vvs])
    return rankers, [list(tabs) for tabs in zip(*tables)]


def _pay(mechs, profiles, pays, rankers, tables):
    """The one auction kernel: pays each mechanism on the rows of `profiles`
    into its row of `pays` and returns its winners + 1 (0: no sale).  Bids are
    validated, and contested rows gathered and ranked (`_pass_ranks`), once."""
    B = np.asarray(profiles, dtype=float)
    if B.ndim != 2 or B.shape[1] != mechs[0].n:
        raise ValueError("profile matrix arity mismatch")
    if not np.all(B >= 0.0):
        raise ValueError("bids must be nonnegative")
    wins, contested = zip(*[m._screen(B, p) for m, p in zip(mechs, pays)])
    at = np.flatnonzero(np.logical_or.reduce(contested))
    sub = B.T.take(at, axis=1).T        # each bidder's bids contiguous
    cols = [rank(col) for rank, col in zip(rankers, sub.T)]
    for mech, win, pay, tabs in zip(mechs, wins, pays, tables):
        win[at], pay[at] = mech._auction(sub, list(zip(cols, tabs)))
    return wins


@dataclass
class Mechanism:
    """A Myerson auction: one link CDF (hence one virtual value fn) per bidder."""

    kind: str
    bidders: list
    alpha: list | None = None
    provenance: dict = field(default_factory=dict)
    _ranks = cached_property(lambda self: _pass_ranks([self]))  # payments_batch's

    def __post_init__(self):
        if not self.bidders:
            raise ValueError("need at least one bidder")
        for j, b in enumerate(self.bidders):
            if not isinstance(b, PiecewiseLinkCDF):
                raise ValueError("mechanism bidders must be link_cdf entries")
            if b.kind != self.kind:
                raise ValueError(f"mechanism kind {self.kind!r} but bidder "
                                 f"{j + 1} is {b.kind!r}")
        self.vvs = [VirtualValueFn(b) for b in self.bidders]
        self.reserves = [vv.reserve for vv in self.vvs]
        self._reserve_tab = np.array([0.0] + self.reserves)  # by winner + 1
        if self.n > 1:      # else no row is contested
            # each bidder's pieces from its first sup >= 0 to the closing one
            self._paid = _KnotRank(*(vv._sups[vv._neg_sups:]
                                     for vv in self.vvs))
            fill = np.zeros(self._paid.pad - 1)     # never read
            self._pieces = [np.concatenate([
                np.append(getattr(vv, tab)[vv._neg_sups:], fill)
                for vv in self.vvs]) for tab in ("_lefts", "_inv_s", "_rights")]

    @property
    def n(self) -> int:
        return len(self.bidders)

    def _screen(self, B, pay):
        """(winner + 1 in n's narrowest int, contested) of valid bids B; pays
        into `pay` each row where at most one bid clears its reserve: phi >= 0
        exactly from the reserve on, so it sells there or not at all."""
        win, count = np.zeros((2, len(B)), dtype=np.min_scalar_type(self.n))
        for j, (col, r) in enumerate(zip(B.T, self.reserves), 1):
            above = col >= r
            count += above
            win += above * win.dtype.type(j)    # j itself where count is 1
        self._reserve_tab.take(win, out=pay, mode="clip")
        return win, count >= 2

    def payments_batch(self, profiles: np.ndarray):
        """(winners, payments) on each row of `profiles`: `_pay` over this
        mechanism alone, winner -1 if no bid clears its reserve.  A bid at or
        above its support top has phi = top; negative and NaN bids raise."""
        pays = np.empty((1, *np.shape(profiles)[:1]))
        win, = _pay([self], profiles, pays, *self._ranks)
        return win.astype(np.intp) - 1, pays[0]

    def _auction(self, B, ranked):
        """(winner + 1, payments) of every row of B, its bids ranked."""
        rows = B.shape[0]
        phis = (vv._phi(col, *r) for vv, col, r in zip(self.vvs, B.T, ranked))
        # the best phi and its bidder, the second largest, and whether the
        # runner-up (the first index among the maxima of the others) is below
        # the winner, in plain ufunc passes (no select on a per-row mask)
        best, second = next(phis), np.full(rows, _NEG_INF)
        win, lower = np.zeros(rows, dtype=np.intp), np.zeros(rows, dtype=bool)
        for j, phi in enumerate(phis, 1):
            new = phi > best                         # ties keep the lower index
            lower &= phi <= second                   # else j is the runner-up
            lower |= new                             # else the old best is
            np.maximum(second, np.minimum(best, phi), out=second)  # the middle
            np.maximum(best, phi, out=best)
            np.maximum(win, new * j, out=win)        # j ascends
        win = (win + 1) * (best >= 0)                # 0: nobody has phi >= 0
        # a runner-up with phi < 0 (or an all -inf field) leaves the winner
        # its reserve: inverse(0.0), taken once per mechanism
        payments = self._reserve_tab.take(win, mode="clip")
        # else the winner beats a higher-index runner-up weakly and a
        # lower-index one strictly; -0.0 is >= 0, read as +0.0 by _rank_key
        contested = np.flatnonzero(second >= 0.0)
        if contested.size:
            t = second.take(contested)
            i = self._paid(_rank_key(t, lower.take(contested)), "left",
                           win.take(contested) - 1)
            payments[contested] = _threshold(self.kind, t, i, *self._pieces)
        return win, payments

    def to_dict(self) -> dict:
        return {"n": self.n, "kind": self.kind,
                "bidders": [dict(b.to_dict(), reserve=r)
                            for b, r in zip(self.bidders, self.reserves)],
                "alpha": self.alpha, "provenance": self.provenance}

    @classmethod
    def from_dict(cls, d) -> "Mechanism":
        """Inverse of `to_dict`; ValueError, naming the field, on bad input."""
        if not isinstance(d, dict):
            raise ValueError("a mechanism must be a JSON object")
        alpha, provenance = d.get("alpha"), d.get("provenance") or {}
        for field, ok, what in (
                ("bidders", isinstance(d.get("bidders"), list), "a list"),
                ("alpha", alpha is None or _fits(alpha, [float]),
                 "null or a list of numbers"),
                ("provenance", isinstance(provenance, dict), "an object")):
            if not ok:
                raise ValueError(f"mechanism: field {field!r} must be {what}")
        mech = cls(bidders=[dist_from_dict(b) for b in d["bidders"]],
                   kind=check_kind(d.get("kind")), alpha=alpha,
                   provenance=provenance)
        # n and each reserve follow from the curves: a saved one must agree
        for field, saved, own in [("field 'n'", d.get("n", mech.n), mech.n)] + [
                (f"bidder {j}'s field 'reserve'", b.get("reserve", r), r)
                for j, (b, r) in enumerate(zip(d["bidders"], mech.reserves), 1)]:
            if saved != own:
                raise ValueError(f"mechanism: {field} is {saved!r}, but the "
                                 f"curves give {own!r}")
        return mech

