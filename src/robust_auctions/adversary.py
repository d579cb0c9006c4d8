"""Corruptions inside a KS ball, verified at generation time.

`corrupt` is the one constructor.  It checks the KS distance of every
corruption it builds (or the exact radius of a lower-bound family) against
the declared budget and raises AdversaryError when the check fails, so a
sweep can never silently run with an adversary that exceeds its radius.
"""

from __future__ import annotations

import numpy as np

from .distributions import (AppxC1, AppxC2, Distribution, DownShiftSpike,
                            UpShift, ks_distance)
from .links import check_alpha

_VERIFY_TOL = 1e-9


class AdversaryError(RuntimeError):
    """Generated corruption failed its KS-radius verification."""


def mhr_lb_radius(n: int, beta: float) -> float:
    """Exact KS distance between the MHR family's low and high members.

    The gap below the break v2 = a is e^{-(b/a)v} - e^{-v}; its stationary
    point v_c = a ln(a/b)/(a-b) can fall inside (0, v2), in which case the
    interior maximum exceeds the b-to-break value beta/n.  Above v2 the gap
    decreases from beta/n to 0, so the radius is the max of the two.
    """
    b = np.log(n)
    a = b - np.log1p(-beta)
    if b <= 0:
        raise ValueError("need n >= 2")
    v2 = a
    v_c = a * np.log(a / b) / (a - b)
    v_c = min(max(v_c, 0.0), v2)
    interior = np.exp(-(b / a) * v_c) - np.exp(-v_c)
    return float(max(beta / n, interior))


def regular_lb_radius(n: int, beta: float) -> float:
    """Exact KS distance between the regular family's low and high members,
    attained at v = 1 + 1/(1 - sqrt(1-beta)); always <= beta^2/n."""
    return float((1.0 - np.sqrt(1.0 - beta)) ** 2 / n)


def parse_adversary(spec: str):
    """(name, argument) of 'tailspike:C', 'shift:up|down', 'mhr-lb[:BETA]'
    or 'regular-lb[:BETA]', with C and BETA as floats and a missing BETA as
    None (the input family's own beta); ValueError for anything else."""
    name, _, arg = str(spec).partition(":")
    if name == "shift":
        if arg not in ("up", "down"):
            raise ValueError("shift adversary direction must be up or down")
        return name, arg
    if name not in ("tailspike", "mhr-lb", "regular-lb"):
        raise ValueError(f"unknown adversary spec {spec!r}")
    if not arg and name != "tailspike":
        return name, None
    try:
        value = float(arg)
    except ValueError:
        raise ValueError(f"adversary {spec!r} needs a numeric argument") from None
    if name == "tailspike" and not 0.0 < value < np.inf:
        raise ValueError("spike scale c must be positive and finite")
    return name, value


def corrupt(d_star: Distribution, adversary: str, alpha: float) -> Distribution:
    """Apply an adversary spec (see `parse_adversary`) at KS budget alpha.

    `tailspike:C` moves the alpha lowest quantiles to a point mass at
    C/alpha; `shift:up` pushes mass toward 0, `shift:down` toward larger
    values (closed off by a far-quantile spike).  Both return the input at
    alpha = 0 and measure the KS distance of what they build.  The
    lower-bound families require the input to be a family member (they swap
    it for its confusable partner) and check that the family's exact radius
    fits the alpha budget."""
    alpha = check_alpha(alpha)
    name, arg = parse_adversary(adversary)
    if name in ("tailspike", "shift"):
        if alpha == 0.0:
            return d_star
        if name == "tailspike":
            d = DownShiftSpike(d_star, alpha, arg / alpha)
        elif arg == "up":
            d = UpShift(d_star, alpha)
        else:
            spike_x = float(d_star.ppf(1.0 - min(alpha / 2.0, 1e-4)))
            spike_x = max(spike_x, float(d_star.ppf(alpha)) + 1e-12)
            d = DownShiftSpike(d_star, alpha, spike_x)
        ks = ks_distance(d, d_star)
        if ks > alpha + _VERIFY_TOL:
            raise AdversaryError(f"{adversary}: corruption KS {ks:.6g} "
                                 f"exceeds budget {alpha:.6g}")
        return d
    cls, radius_fn = ((AppxC1, mhr_lb_radius) if name == "mhr-lb"
                      else (AppxC2, regular_lb_radius))
    if not isinstance(d_star, cls):
        raise ValueError(
            f"{name} adversary needs a matching family member as input")
    beta = d_star.beta if arg is None else arg
    if abs(beta - d_star.beta) > 1e-12:
        raise ValueError("adversary beta does not match the input family")
    radius = radius_fn(d_star.n, beta)
    if radius > alpha + _VERIFY_TOL:
        raise AdversaryError(
            f"{name}: family radius {radius:.6g} exceeds budget {alpha:.6g}")
    partner = {"l": "h", "h": "l"}.get(d_star.which)
    if partner is None:
        raise ValueError("input must be the family's low or high member")
    return cls(d_star.n, beta, partner)
