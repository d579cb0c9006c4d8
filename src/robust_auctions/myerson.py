"""Myerson optimal auctions over piecewise-link CDFs.

Virtual values have closed forms per link-space piece: an MHR piece with
slope a contributes phi(v) = v - 1/a (the hazard rate is constant on the
piece); a regular piece starting at knot (x, h) with slope a contributes the
constant phi = x - h/a (equal-revenue pieces have phi = 0).  The closing top
atom at the support top x_top has phi(x_top) = x_top.  Convexity of the knots
makes phi non-decreasing, so no ironing is ever needed; construction rejects
non-convex inputs.

Conventions, fixed here and relied on by the payment logic:

  * at a knot the higher (right-hand piece) value is taken;
  * between the last knot and the support top (a region carrying no mass)
    the MHR form extends the last piece linearly and the regular form keeps
    its last constant, preserving monotonicity;
  * ties in virtual value are won by the lowest bidder index, so the winner
    must beat lower-index opponents strictly and higher-index ones weakly.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .distributions import PiecewiseLinkCDF, _fits, dist_from_dict
from .links import check_kind

_NEG_INF = float("-inf")


class _KnotRank:
    """np.searchsorted(knots, a, "right") for a nonempty strictly increasing
    table and non-NaN a.  The bucket f(x) = floor((clip(x, lo, hi) - lo) * s),
    s = 2 len(knots) / (hi - lo), is monotone in floating point, so knots in
    lower buckets than a are < a and in higher ones > a: the rank is start[f(a)]
    plus ceil(log2(occupancy + 1)) branchless steps within a's bucket."""

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
        self._steps = [1 << k for k in reversed(range(steps))]
        # NaN compares false, so a step never counts past the table's end
        self._padded = np.concatenate((knots, np.full(1 << steps, np.nan)))

    def _bucket(self, a):
        b = np.clip(a, self._lo, self._hi) - self._lo
        b *= self._scale                    # so b >= 0: truncation floors it
        return b.astype(np.intp)

    def __call__(self, a):
        rank = self._start[self._bucket(a)]
        for step in self._steps:
            np.add(rank, step, out=rank, where=self._padded[step - 1:][rank] <= a)
        return rank


class VirtualValueFn:
    """Per-piece closed-form virtual values for one PiecewiseLinkCDF."""

    def __init__(self, cdf: PiecewiseLinkCDF):
        self.cdf = cdf
        self.kind = cdf.kind
        self.top = cdf.support_top()
        xs, hs = cdf.xs, cdf.hs
        nreal = xs.size - 1
        inv_s = cdf.inv_slopes
        if self.kind == "mhr":
            vals = np.where(np.isfinite(inv_s), xs[1:] - inv_s, _NEG_INF)
        else:
            vals = np.where(np.isfinite(inv_s), xs[:-1] - hs[:-1] * inv_s,
                            _NEG_INF)
        lefts = xs[:-1]
        rights = xs[1:].copy()
        if self.top > xs[-1]:
            # a massless gap between the last knot and the top atom; extend
            # the last piece (copy its table entries, do not recompute: a
            # fresh float evaluation can land an ulp off and unsort the sups)
            lefts = np.append(lefts, xs[-1])
            rights = np.append(rights, self.top)
            inv_gap = inv_s[-1] if nreal else np.inf
            inv_s = np.append(inv_s, inv_gap)
            if self.kind == "mhr":
                gap_sup = self.top - inv_gap if np.isfinite(inv_gap) else _NEG_INF
            else:
                gap_sup = vals[-1] if nreal else _NEG_INF
            vals = np.append(vals, gap_sup)
        # running max of each piece's largest virtual value: its right end
        # (mhr) or its constant (regular)
        self._sups = np.maximum.accumulate(vals)
        # a closing piece [top, top] with 1/slope 0 ends the piece tables;
        # phi's tables also start with the part below the first knot, where
        # phi is v - inf (mhr) or -inf (regular)
        self._lefts = np.append(lefts, self.top)
        self._rights = np.append(rights, self.top)
        self._inv_s = np.append(inv_s, 0.0)
        self._rank = _KnotRank(self._lefts)
        self._inv_tab = np.append(np.inf, self._inv_s)
        self._sup_tab = np.concatenate(([_NEG_INF], self._sups, [self.top]))

    # -- evaluation ---------------------------------------------------------
    def phi(self, v):
        """Virtual value, vectorized; -inf below the first knot, clamped to
        the top-atom value for v >= support top.  v must not be NaN."""
        arr = np.atleast_1d(np.asarray(v, dtype=float))
        i = self._rank(arr)
        if self.kind == "mhr":
            out = arr - self._inv_tab[i]
            np.minimum(out, self.top, out=out)    # v - 1/slope <= v < top below it
        else:
            out = self._sup_tab[i]
        return float(out[0]) if np.ndim(v) == 0 else out

    def inverse(self, t, strict: bool = False):
        """inf{v : phi(v) >= t} (or > t when strict), vectorized.

        Targets beyond the top-atom value clamp to the support top; the
        public `inverse_virtual` wrapper turns that into an error instead.
        """
        arr = np.atleast_1d(np.asarray(t, dtype=float))
        # a target above every sup lands on the closing piece: the top
        i = np.searchsorted(self._sups, arr, side="right" if strict else "left")
        if self.kind == "mhr":
            # a flat piece (1/slope inf) meets t = -inf at its left end
            with np.errstate(invalid="ignore"):
                out = np.fmax(self._lefts[i], arr + self._inv_s[i])
            np.minimum(out, self._rights[i], out=out)
        else:
            out = self._lefts[i]
        return float(out[0]) if np.ndim(t) == 0 else out

    @property
    def reserve(self) -> float:
        return float(self.inverse(0.0))


def virtual_value(cdf: PiecewiseLinkCDF, v):
    """phi(v); errors if v is NaN, negative or beyond the support top."""
    if np.any(np.isnan(np.asarray(v, dtype=float))):
        raise ValueError("v must not be NaN")
    if np.any(np.asarray(v) > cdf.support_top() + 1e-12):
        raise ValueError("v beyond support top")
    if np.any(np.asarray(v) < 0):
        raise ValueError("v must be nonnegative")
    return VirtualValueFn(cdf).phi(v)


def inverse_virtual(cdf: PiecewiseLinkCDF, t):
    """Smallest v with phi(v) >= t; errors if t is NaN or exceeds the
    top-atom value."""
    if np.any(np.isnan(np.asarray(t, dtype=float))):
        raise ValueError("t must not be NaN")
    top = cdf.support_top()
    if np.any(np.asarray(t) > top):
        raise ValueError("t exceeds max virtual value")
    return VirtualValueFn(cdf).inverse(t)


@dataclass(frozen=True)
class Outcome:
    winner: int | None
    payment: float


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

    @property
    def n(self) -> int:
        return len(self.bidders)

    @property
    def reserves(self) -> list:
        return [vv.reserve for vv in self.vvs]

    def run(self, bids) -> Outcome:
        """The truthful auction on one bid profile."""
        bids = np.asarray(bids, dtype=float)
        if bids.shape != (self.n,):
            raise ValueError("arity mismatch")
        winners, payments = self.payments_batch(bids.reshape(1, -1))
        w = int(winners[0])
        return Outcome(winner=None if w < 0 else w, payment=float(payments[0]))

    def payments_batch(self, profiles: np.ndarray):
        """Vectorized truthful auction over rows of `profiles`.

        Returns (winners, payments); winner is -1 when nobody clears their
        reserve.  Bids above a bidder's support top are clamped; negative and
        NaN bids are rejected.
        """
        B = np.asarray(profiles, dtype=float)
        if B.ndim != 2 or B.shape[1] != self.n:
            raise ValueError("profile matrix arity mismatch")
        if not np.all(B >= 0.0):
            raise ValueError("bids must be nonnegative")
        rows = B.shape[0]
        # the best phi and its bidder, and the runner-up (the first index
        # among the maxima of the others): `lower` if below the winner's
        best, second = np.full((2, rows), _NEG_INF)
        win = np.zeros(rows, dtype=np.intp)
        lower = np.zeros(rows, dtype=bool)
        for j, vv in enumerate(self.vvs):
            phi = vv.phi(np.minimum(B[:, j], vv.top))
            new = phi > best                         # ties keep the lower index
            lower &= phi <= second                   # else j is the runner-up
            lower |= new                             # else the old best is
            np.maximum(second, phi, out=second)
            np.copyto(second, best, where=new)
            np.maximum(best, phi, out=best)
            np.copyto(win, j, where=new)
        winners = np.where(best >= 0, win, -1)
        payments = np.zeros(rows)
        for j, vv in enumerate(self.vvs):
            won = np.flatnonzero(winners == j)
            # the winner beats a higher-index runner-up weakly and a
            # lower-index one strictly; an all -inf field leaves the reserve
            r = second[won]
            strict = lower[won] & (r > _NEG_INF)
            payments[won[~strict]] = vv.inverse(np.maximum(r[~strict], 0.0))
            payments[won[strict]] = np.maximum(
                vv.reserve, vv.inverse(r[strict], strict=True))
        return winners, payments

    def to_dict(self) -> dict:
        out = {"n": self.n, "kind": self.kind,
               "bidders": [dict(b.to_dict(), reserve=vv.reserve)
                           for b, vv in zip(self.bidders, self.vvs)],
               "alpha": self.alpha, "provenance": self.provenance}
        return out

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

