"""Correctness checks for the benchmark, independent of the program's results.

Each check returns a list of problem strings (empty when the check holds).
References come from closed forms, from numerical quadrature written here
with numpy alone, or from properties the method must have; nothing is a
stored copy of an earlier output.

Run this file to print the quadrature references it uses:

    python3 perfbench/checks.py
"""

from __future__ import annotations

import numpy as np

# Monte Carlo checks use a 5-sigma band: with one check per op and a few
# thousand ops over a benchmark campaign, a false alarm stays below 1e-3.
Z_MC = 5.0
# Quadrature: 16-point Gauss-Legendre on panels no wider than this.
_GL_X, _GL_W = np.polynomial.legendre.leggauss(16)
_PANEL = 0.05


def parse_spec(spec: str) -> tuple:
    """The truth specs the workloads use, parsed here independently of the
    program: 'exp:RATE', 'unif:LO:HI', 'eqrev:LO:CAP'."""
    name, *args = spec.split(":")
    if name not in ("exp", "unif", "eqrev"):
        raise ValueError(f"no closed form for {spec!r}")
    return (name, *(float(a) for a in args))


def _integrate(f, breaks, top: float) -> float:
    """Integral of f over [0, top], split at the points where f jumps."""
    pts = sorted({0.0, top, *(b for b in breaks if 0.0 < b < top)})
    total = 0.0
    for a, b in zip(pts[:-1], pts[1:]):
        k = max(1, int(np.ceil((b - a) / _PANEL)))
        edges = np.linspace(a, b, k + 1)
        mid = (edges[:-1] + edges[1:]) / 2.0
        half = (edges[1:] - edges[:-1]) / 2.0
        t = mid[:, None] + half[:, None] * _GL_X[None, :]
        total += float(np.sum(f(t) * half[:, None] * _GL_W[None, :]))
    return total


def _cdf(spec, v):
    kind = spec[0]
    if kind == "exp":
        return 1.0 - np.exp(-spec[1] * np.maximum(v, 0.0))
    lo, hi = spec[1:]
    if kind == "unif":
        return np.clip((v - lo) / (hi - lo), 0.0, 1.0)
    # equal revenue: 1 - lo/v on [lo, cap), the rest as an atom at cap
    return np.where(v >= hi, 1.0, np.where(v >= lo, 1.0 - lo / np.maximum(v, lo),
                                           0.0))


def _virtual_cdf(spec, t):
    """Pr[phi(V) <= t] for t >= 0, phi being Myerson's virtual value.

    exp(rate): phi(v) = v - 1/rate;  unif(lo, hi): phi(v) = 2v - hi;
    eqrev(lo, cap): phi = 0 on [lo, cap) and cap on the top atom."""
    kind = spec[0]
    if kind == "exp":
        return _cdf(spec, t + 1.0 / spec[1])
    if kind == "unif":
        return _cdf(spec, (t + spec[2]) / 2.0)
    lo, cap = spec[1:]
    return np.where(t >= cap, 1.0, 1.0 - lo / cap)


def _horizon(specs) -> tuple:
    """Integration end (every exp tail below e^-60) and the jump points."""
    rates = [s[1] for s in specs if s[0] == "exp"]
    breaks = [x for s in specs if s[0] != "exp" for x in s[1:]]
    top = max([60.0 / r for r in rates] + [b + 1.0 for b in breaks])
    return top, breaks


def opt_quadrature(specs) -> float:
    """Myerson's optimal revenue E[max_i phi_i(V_i)^+] for independent
    bidders: the integral over t >= 0 of 1 - prod_i Pr[phi_i(V_i) <= t]."""
    top, breaks = _horizon(specs)
    return _integrate(
        lambda t: 1.0 - np.prod([_virtual_cdf(s, t) for s in specs], axis=0),
        breaks, top)


def max_value_moments(specs) -> tuple:
    """(E[max_i V_i], E[(max_i V_i)^2]) by quadrature of the survival."""
    top, breaks = _horizon(specs)
    surv = lambda v: 1.0 - np.prod([_cdf(s, v) for s in specs], axis=0)
    return (_integrate(surv, breaks, top),
            _integrate(lambda v: 2.0 * v * surv(v), breaks, top))


def mc_opt_tolerance(specs, n_draws: int, grid: int) -> float:
    """How far a Monte Carlo revenue of the truth-grid Myerson mechanism may
    sit from the quadrature OPT.

    Statistical part: a payment never exceeds the highest bid, so
    Var[payment] <= E[(max V)^2] - OPT^2, and the mean of n_draws payments is
    within Z_MC of those standard deviations over sqrt(n_draws).
    Grid part: the program represents each truth on `grid` quantiles, each
    holding 1/(grid + 1) of the mass.  The allocation can differ from
    Myerson's only when a bid falls in a cell next to a decision threshold
    (probability at most 2n/(grid + 1)), and the revenue of such a profile
    moves by at most its highest bid.
    """
    opt = opt_quadrature(specs)
    mean_max, second = max_value_moments(specs)
    sd = np.sqrt(max(second - opt * opt, 0.0))
    return float(Z_MC * sd / np.sqrt(n_draws)
                 + 2.0 * len(specs) * mean_max / (grid + 1.0))


def check_counterexample(out: dict, alpha: float, c: float) -> list:
    """Tail-spike reproduction against closed forms for Exp(1).

    A reserve r earns r e^-r against OPT = 1/e, so the robust ratio is
    r e^(1-r).  The floor is the population MHR guarantee 1/(1 + 2 alpha e)
    less 0.01 for sampling.  The naive learner must post the spike c/alpha,
    and its ratio cannot exceed (c/alpha) e^(-c/alpha) e."""
    problems = []
    spike = c / alpha
    r = float(out["robust_reserve"])
    ratio = r * np.exp(1.0 - r)
    floor = 1.0 / (1.0 + 2.0 * alpha * np.e) - 0.01
    if not ratio >= floor:
        problems.append(f"robust ratio {ratio!r} below floor {floor!r}")
    if not abs(ratio - out["robust_ratio"]) <= 1e-9:
        problems.append(f"program robust ratio {out['robust_ratio']!r} != "
                        f"closed form {ratio!r}")
    if not abs(out["naive_reserve"] - spike) <= 1e-12 * spike:
        problems.append(f"naive reserve {out['naive_reserve']!r} is not the "
                        f"spike {spike!r}")
    ceiling = spike * np.exp(-spike) * np.e
    if not 0.0 <= out["naive_ratio"] <= ceiling * (1.0 + 1e-9):
        problems.append(f"naive ratio {out['naive_ratio']!r} above ceiling "
                        f"{ceiling!r}")
    return problems


def check_mc_revenue(opt: float, rev: float, ratio: float, ref_opt: float,
                     tol: float) -> list:
    """A Monte Carlo (ratio, opt, rev) triple against the quadrature OPT:
    OPT agrees within tol, no mechanism beats Myerson's optimum by more than
    tol, and the ratio is rev/opt."""
    problems = []
    if not abs(opt - ref_opt) <= tol:
        problems.append(f"MC OPT {opt!r} vs quadrature {ref_opt!r} "
                        f"(tolerance {tol:.3g})")
    if not 0.0 < rev <= ref_opt + tol:
        problems.append(f"revenue {rev!r} outside (0, OPT + tol = "
                        f"{ref_opt + tol!r}]")
    if not abs(ratio - rev / opt) <= 1e-12 * abs(ratio):
        problems.append(f"ratio {ratio!r} != rev/opt {rev / opt!r}")
    return problems


def sample_profiles(specs, reserves, rows: int, seed: int) -> np.ndarray:
    """Profiles drawn from the truths with numpy's own generator; the last
    quarter of the rows bid strictly below every reserve."""
    rng = np.random.default_rng(seed)
    u = rng.random((rows, len(specs)))
    out = np.empty_like(u)
    for j, s in enumerate(specs):
        if s[0] == "exp":
            out[:, j] = -np.log1p(-u[:, j]) / s[1]
        elif s[0] == "unif":
            out[:, j] = s[1] + (s[2] - s[1]) * u[:, j]
        else:
            out[:, j] = np.minimum(s[1] / (1.0 - u[:, j]), s[2])
    low = rows - rows // 4
    out[low:] = rng.random((rows - low, len(specs))) * np.asarray(reserves)
    return out


def check_payments(mech, profiles: np.ndarray) -> list:
    """Individual rationality and reserve properties of payments_batch: a
    winner pays at most their bid and at least their reserve, a row with
    every bid below its reserve has no sale, and no sale means no payment."""
    problems = []
    winners, pay = mech.payments_batch(profiles)
    winners, pay = np.asarray(winners), np.asarray(pay)
    reserves = np.asarray(mech.reserves, dtype=float)
    won = winners >= 0
    bids = profiles[np.flatnonzero(won), winners[won]]
    slack = 1e-9 * np.maximum(1.0, bids)
    if np.any(pay[won] > bids + slack):
        problems.append("a winner pays more than their bid")
    if np.any(pay[won] < reserves[winners[won]] - slack):
        problems.append("a winner pays less than their reserve")
    below = np.all(profiles < reserves, axis=1)
    if not np.any(below) or not np.any(won):
        problems.append("profile sample lacks sales or all-below-reserve rows")
    if np.any(winners[below] != -1):
        problems.append("a sale with every bid below its reserve")
    if np.any(pay[~won] != 0.0):
        problems.append("a payment without a sale")
    return problems


def check_lower_hull(xs, ys, env) -> list:
    """The defining properties of a lower convex envelope of (xs, ys).

    Vertices are input points, both end points are kept, slopes strictly
    increase, and no input point lies below the envelope by more than the
    tolerance.  The program merges near-collinear vertices with an absolute
    cross-product tolerance of 1e-12, which lets a dropped point sit
    1e-12 / (segment width) below its chord; 1e-9 of the y range covers
    that for any segment wider than 1e-3 and is far below any feature that
    moves a reserve."""
    problems = []
    xs, ys = np.asarray(xs, dtype=float), np.asarray(ys, dtype=float)
    vx, vy = np.asarray(env.xs, dtype=float), np.asarray(env.ys, dtype=float)
    idx = np.minimum(np.searchsorted(xs, vx), xs.size - 1)
    if not (np.array_equal(xs[idx], vx) and np.array_equal(ys[idx], vy)):
        problems.append("an envelope vertex is not an input point")
    if vx[0] != xs[0] or vx[-1] != xs[-1]:
        problems.append("envelope does not keep both end points")
    if vx.size > 2 and not np.all(np.diff(np.diff(vy) / np.diff(vx)) > 0.0):
        problems.append("envelope slopes are not strictly increasing")
    tol = 1e-9 * max(1.0, float(np.max(np.abs(ys))))
    deficit = float(np.max(np.interp(xs, vx, vy) - ys))
    if deficit > tol:
        problems.append(f"an input point lies {deficit:.3g} below the "
                        f"envelope (tolerance {tol:.3g})")
    return problems


if __name__ == "__main__":
    for truths in (["exp:1.0", "exp:0.5", "unif:0:3"], ["exp:1.0", "eqrev:1:50"]):
        specs = [parse_spec(s) for s in truths]
        print(f"{' + '.join(truths)}: OPT = {opt_quadrature(specs)!r}")
