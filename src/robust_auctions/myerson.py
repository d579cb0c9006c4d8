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


class VirtualValueFn:
    """Per-piece closed-form virtual values for one PiecewiseLinkCDF."""

    def __init__(self, cdf: PiecewiseLinkCDF):
        self.cdf = cdf
        self.kind = cdf.kind
        self.top = cdf.support_top()
        xs, hs = cdf.xs, cdf.hs
        nreal = xs.size - 1
        slopes = np.diff(hs) / np.diff(xs) if nreal else np.empty(0)
        with np.errstate(divide="ignore"):
            inv_s = np.where(slopes > 0, 1.0 / np.where(slopes > 0, slopes, 1.0),
                             np.inf)
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
        self._lefts = lefts
        self._rights = rights
        self._inv_s = inv_s
        # running max of each piece's largest virtual value: its right end
        # (mhr) or its constant (regular)
        self._sups = np.maximum.accumulate(vals) if vals.size else vals

    # -- evaluation ---------------------------------------------------------
    def phi(self, v):
        """Virtual value, vectorized; -inf below the first knot, clamped to
        the top-atom value for v >= support top."""
        arr = np.atleast_1d(np.asarray(v, dtype=float))
        out = np.full(arr.shape, _NEG_INF)
        if self._lefts.size:
            idx = np.searchsorted(self._lefts, arr, side="right") - 1
            inside = idx >= 0
            idx = np.maximum(idx, 0)
            if self.kind == "mhr":
                vals = arr - self._inv_s[idx]
                vals[~np.isfinite(self._inv_s[idx])] = _NEG_INF
            else:
                vals = self._sups[idx]
            out[inside] = vals[inside]
        out[arr >= self.top] = self.top
        out[arr < self.cdf.xs[0]] = _NEG_INF
        return float(out[0]) if np.ndim(v) == 0 else out

    def inverse(self, t, strict: bool = False):
        """inf{v : phi(v) >= t} (or > t when strict), vectorized.

        Targets beyond the top-atom value clamp to the support top; the
        public `inverse_virtual` wrapper turns that into an error instead.
        """
        arr = np.atleast_1d(np.asarray(t, dtype=float))
        side = "right" if strict else "left"
        out = np.full(arr.shape, self.top)
        if self._sups.size:
            idx = np.searchsorted(self._sups, arr, side=side)
            hit = idx < self._sups.size
            safe = np.minimum(idx, self._sups.size - 1)
            if self.kind == "mhr":
                vals = np.maximum(self._lefts[safe], arr + self._inv_s[safe])
                vals = np.minimum(vals, self._rights[safe])
            else:
                vals = self._lefts[safe]
            out[hit] = vals[hit]
        return float(out[0]) if np.ndim(t) == 0 else out

    @property
    def reserve(self) -> float:
        return float(self.inverse(0.0))


def virtual_value(cdf: PiecewiseLinkCDF, v):
    """phi(v); errors if v is beyond the support top."""
    if np.any(np.asarray(v) > cdf.support_top() + 1e-12):
        raise ValueError("v beyond support top")
    if np.any(np.asarray(v) < 0):
        raise ValueError("v must be nonnegative")
    return VirtualValueFn(cdf).phi(v)


def inverse_virtual(cdf: PiecewiseLinkCDF, t):
    """Smallest v with phi(v) >= t; errors if t exceeds the top-atom value."""
    top = cdf.support_top()
    if np.any(np.asarray(t) > top):
        raise ValueError("t exceeds max virtual value")
    return VirtualValueFn(cdf).inverse(t)


def optimal_reserve(cdf: PiecewiseLinkCDF):
    """(reserve, revenue) maximizing x * Pr[V >= x]; smallest argmax on ties.

    Candidates: knots, the support top, and (MHR only) interior stationary
    points x = 1/slope of each piece.  Regular pieces have monotone revenue,
    so their endpoints suffice.
    """
    cands = [cdf.xs, [cdf.support_top()]]
    if cdf.kind == "mhr" and cdf.xs.size >= 2:
        slopes = np.diff(cdf.hs) / np.diff(cdf.xs)
        with np.errstate(divide="ignore"):
            stat = np.where(slopes > 0, 1.0 / np.where(slopes > 0, slopes, 1.0),
                            np.nan)
        ok = (stat > cdf.xs[:-1]) & (stat < cdf.xs[1:])
        cands.append(stat[ok])
    xs = np.unique(np.concatenate([np.asarray(c, dtype=float) for c in cands]))
    xs = xs[xs > 0] if xs.size > 1 else xs
    return best_price(cdf, xs)


def best_price(dist, xs):
    """(x, revenue) at the smallest argmax of x * Pr[V >= x] over xs."""
    revs = xs * (1.0 - np.asarray(dist.cdf_left(xs)))
    i = int(np.argmax(revs))
    return float(xs[i]), float(revs[i])


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
        self.vvs = [VirtualValueFn(b) for b in self.bidders]

    @property
    def n(self) -> int:
        return len(self.bidders)

    @property
    def reserves(self) -> list:
        return [vv.reserve for vv in self.vvs]

    def run(self, bids) -> Outcome:
        return run_auction(self, bids)

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
        phi = np.empty_like(B)
        for j, vv in enumerate(self.vvs):
            phi[:, j] = vv.phi(np.minimum(B[:, j], vv.top))
        winners = np.argmax(phi, axis=1)            # first max: lowest index
        best = phi[np.arange(rows), winners]
        winners = np.where(best >= 0, winners, -1)
        payments = np.zeros(rows)
        # prefix/suffix maxima of phi excluding each column
        pad = np.full((rows, 1), _NEG_INF)
        prefix = np.maximum.accumulate(np.concatenate([pad, phi[:, :-1]], axis=1),
                                       axis=1)
        suffix = np.maximum.accumulate(
            np.concatenate([pad, phi[:, :0:-1]], axis=1), axis=1)[:, ::-1]
        for j, vv in enumerate(self.vvs):
            won = winners == j
            if not np.any(won):
                continue
            t_weak = np.maximum(suffix[won, j], 0.0)     # higher index: weak beat
            pay = np.asarray(vv.inverse(t_weak, strict=False))
            t_strict = prefix[won, j]                    # lower index: strict beat
            finite = np.isfinite(t_strict)
            if np.any(finite):
                alt = np.asarray(vv.inverse(t_strict[finite], strict=True))
                pay[finite] = np.maximum(pay[finite], alt)
            payments[won] = pay
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


def run_auction(mech: Mechanism, bids) -> Outcome:
    bids = np.asarray(bids, dtype=float)
    if bids.shape != (mech.n,):
        raise ValueError("arity mismatch")
    winners, payments = mech.payments_batch(bids.reshape(1, -1))
    w = int(winners[0])
    return Outcome(winner=None if w < 0 else w, payment=float(payments[0]))
