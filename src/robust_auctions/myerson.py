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
    """np.searchsorted(knots, a, side) for a nonempty non-decreasing table
    of finite span and non-NaN a.  The bucket f(x) = floor((clip(x, lo, hi)
    - lo) * s), s = 2 len(knots) / (hi - lo), is monotone in floating point,
    so knots in lower buckets than a are < a and in higher ones > a: the
    rank is start[f(a)] plus ceil(log2(occupancy + 1)) steps in a's bucket,
    step 2^k adding the bool (knot <= a) ("right") or (knot < a) ("left")
    << k.  The tables depend on the knots alone: one rank serves both sides."""

    def __init__(self, knots):
        knots = np.asarray(knots, dtype=float)
        self._lo, self._hi = knots[0], knots[-1]
        with np.errstate(divide="ignore", over="ignore"):
            scale = 2 * knots.size / (self._hi - self._lo)   # numpy: 1/0 is inf
        # one knot, or a span so small that the scale overflows: one bucket
        self._scale = scale if scale < np.inf else 1.0
        counts = np.bincount(self._bucket(knots))
        self._start = np.cumsum(counts) - counts
        steps = int(counts.max()).bit_length()
        # NaN compares false, so a step never counts past the table's end
        padded = np.concatenate((knots, np.full(1 << steps, np.nan)))
        self._steps = [(k, padded[(1 << k) - 1:]) for k in range(steps)][::-1]

    def _bucket(self, a):
        b = np.clip(a, self._lo, self._hi) - self._lo
        b *= self._scale                    # so b >= 0: truncation floors it
        return b.astype(np.intp)

    def __call__(self, a, side="right"):
        before = np.less_equal if side == "right" else np.less
        rank = self._start.take(self._bucket(a))
        for k, ahead in self._steps:
            le = before(ahead.take(rank), a)
            rank += le << k if k else le
        return rank


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
        # inverse ranks targets t >= 0 among the non-negative sups only, past
        # the negative ones: a near-flat first piece can put a sup at -1e16,
        # and a bucket table spanning it would squeeze every other sup into
        # one bucket
        self._neg_sups = int(np.searchsorted(self._sups, 0.0))
        nonneg = self._sups[self._neg_sups:]
        self._sup_rank = _KnotRank(nonneg) if nonneg.size else None
        # a closing piece [top, top] with 1/slope 0 ends the piece tables;
        # phi's tables also start with the part below the first knot, where
        # phi is v - inf (mhr) or -inf (regular)
        self._lefts = np.append(xs, self.top)
        self._rights = np.append(rights, self.top)
        self._inv_s = np.append(inv_s, 0.0)
        self._rank = _KnotRank(self._lefts)
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
        out = self._phi(arr, self._rank(arr), self._phi_tab)
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
        low = arr.min(initial=np.inf)               # min propagates NaN
        if np.isnan(low):
            raise ValueError("t must not be NaN")
        # phi(v) > t is phi(v) >= the next float up: one left rank serves both
        key = _rank_key(arr, strict)
        # a target above every sup lands on the closing piece: the top
        if self._sup_rank is not None and low >= 0.0:
            i = self._sup_rank(key, "left") + self._neg_sups
        else:   # no sup >= 0, or a target < 0, which payments never send
            i = np.searchsorted(self._sups, key)
        if self.kind == "mhr":
            # a flat piece (1/slope inf) meets t = -inf at its left end
            with np.errstate(invalid="ignore"):
                out = np.fmax(self._lefts.take(i), arr + self._inv_s.take(i))
            np.minimum(out, self._rights.take(i), out=out)
        else:
            out = self._lefts.take(i)
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


@dataclass
class Mechanism:
    """A Myerson auction: one link CDF (hence one virtual value fn) per bidder."""

    kind: str
    bidders: list
    alpha: list | None = None
    provenance: dict = field(default_factory=dict)

    def __post_init__(self):
        if not self.bidders:
            raise ValueError("need at least one bidder")
        for j, b in enumerate(self.bidders):
            if b.kind != self.kind:
                raise ValueError(f"mechanism kind {self.kind!r} but bidder "
                                 f"{j + 1} is {b.kind!r}")
        self.vvs = [VirtualValueFn(b) for b in self.bidders]
        self.reserves = [vv.reserve for vv in self.vvs]
        self._reserve_tab = np.array([0.0] + self.reserves)  # by winner + 1

    @property
    def n(self) -> int:
        return len(self.bidders)

    def _screen(self, B, out=None):
        """Validate bids; (winner + 1, payments, contested), in n's narrowest
        int.  phi >= 0 exactly from the reserve on, so a row where at most one
        bid clears its reserve is sold there or not at all; the rest are
        contested."""
        if B.ndim != 2 or B.shape[1] != self.n:
            raise ValueError("profile matrix arity mismatch")
        if not np.all(B >= 0.0):
            raise ValueError("bids must be nonnegative")
        win, count = np.zeros((2, len(B)), dtype=np.min_scalar_type(self.n))
        for j, (col, r) in enumerate(zip(B.T, self.reserves), 1):
            above = col >= r
            count += above
            win += above * win.dtype.type(j)    # j itself where count is 1
        return win, self._reserve_tab.take(win, out=out, mode="clip"), count >= 2

    def payments_batch(self, profiles: np.ndarray, _ranked=None):
        """Vectorized truthful auction over rows of `profiles`.

        Returns (winners, payments); winner is -1 when nobody clears their
        reserve.  A bid at or above a bidder's support top has phi = top;
        negative and NaN bids are rejected.  Rows `_screen` leaves contested
        run the auction; a Monte Carlo pass hands in screened rows with
        their shared ranks (`_ranked`, see `_pass_ranks`).
        """
        B = np.asarray(profiles, dtype=float)
        if _ranked is not None:
            return self._auction(B, _ranked)
        win, payments, contested = self._screen(B)
        at = np.flatnonzero(contested)
        sub = B.T.take(at, axis=1).T        # each bidder's bids contiguous
        win = win.astype(np.intp) - 1
        win[at], payments[at] = self._auction(sub, [
            (vv._rank(col), vv._phi_tab) for vv, col in zip(self.vvs, sub.T)])
        return win, payments

    def _auction(self, B, ranked):
        """(winners, payments) of every row of B, its bids ranked."""
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
        won = win.take(contested)
        for j, vv in enumerate(self.vvs, 1):
            at = contested[won == j]
            payments[at] = vv.inverse(second.take(at), lower.take(at))
        return win - 1, payments

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
        bidders = [dist_from_dict(b) for b in d["bidders"]]
        if not all(isinstance(b, PiecewiseLinkCDF) for b in bidders):
            raise ValueError("mechanism bidders must be link_cdf entries")
        return cls(kind=check_kind(d.get("kind")), bidders=bidders, alpha=alpha,
                   provenance=provenance)

