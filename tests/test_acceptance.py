"""Package acceptance checklist.

Each test covers one numbered criterion and prints a single PASS/FAIL line;
run `pytest -s tests/test_acceptance.py` to see the lines.  Criteria mix
exact closed-form checks, oracle equivalence, and guarantee-shaped bounds
with the tolerances pinned in the assertions.
"""

import ast
import json
import pkgutil
import re
import time
from pathlib import Path

import numpy as np

import robust_auctions
from robust_auctions.adversary import (corrupt, mhr_lb_radius,
                                       regular_lb_radius)
from robust_auctions.cli import main
from robust_auctions.distributions import (Exponential, PiecewiseLinkCDF,
                                           ProductDist, Uniform, appx_c1,
                                           appx_c2, ks_distance)
from robust_auctions.harness import reproduce_counterexample1
from robust_auctions.links import convex_envelope
from robust_auctions.pipeline import (population_robust_myerson,
                                      robust_empirical_myerson)
from robust_auctions.revenue import (opt_single, rev_monte_carlo,
                                     revenue_ratio_detail, truth_mechanism)

from _gen import mean_and_half_width, random_link_cdf, random_points
from _oracle import grid_reserve, naive_envelope

ALPHA_SWEEP = (0.01, 0.02, 0.05, 0.1)


def _report(num, label, problems):
    status = "PASS" if not problems else "FAIL"
    print(f"acceptance {num} {label}: {status}")
    assert not problems, "; ".join(problems)


def test_1_envelope_matches_reference():
    rng = np.random.default_rng(11)
    problems = []
    t0 = time.perf_counter()
    for i in range(1000):
        xs, ys = random_points(rng, k_max=50)
        fast, slow = convex_envelope(xs, ys), naive_envelope(xs, ys)
        fx, fy, sx, sy = fast.xs, fast.ys, slow.xs, slow.ys
        if fx.size != sx.size:
            problems.append(f"set {i}: {fx.size} vs {sx.size} vertices")
            continue
        if not (np.allclose(fx, sx, rtol=0.0, atol=1e-12)
                and np.allclose(fy, sy, rtol=0.0, atol=1e-12)):
            problems.append(f"set {i}: vertex values differ")
    elapsed = time.perf_counter() - t0
    if elapsed >= 5.0:
        problems.append(f"took {elapsed:.1f}s (budget 5s)")
    _report(1, "envelope-equivalence", problems)


def test_2_myerson_sanity():
    problems = []
    r, opt = opt_single(Exponential(1.0))
    if abs(r - 1.0) > 1e-6:
        problems.append(f"exp reserve {r!r}")
    if abs(opt - np.exp(-1.0)) > 1e-9:
        problems.append(f"exp OPT {opt!r}")
    r, opt = opt_single(Uniform(0.0, 1.0))
    if abs(r - 0.5) > 1e-6 or abs(opt - 0.25) > 1e-9:
        problems.append(f"uniform (reserve, OPT) = ({r!r}, {opt!r})")
    rng = np.random.default_rng(23)
    for kind in ("mhr", "regular"):
        for i in range(100):
            d = random_link_cdf(rng, kind, from_zero=True)
            r_fast, rev_fast = opt_single(d)
            r_grid, rev_grid = grid_reserve(d, 1e-5)
            if abs(r_fast - r_grid) > 1e-4 or abs(rev_fast - rev_grid) > 1e-4:
                problems.append(
                    f"{kind} draw {i}: closed-form ({r_fast:.6f}, "
                    f"{rev_fast:.6f}) vs grid ({r_grid:.6f}, {rev_grid:.6f})")
    _report(2, "myerson-sanity", problems)


def test_3_tail_spike_counterexample():
    problems = []
    t0 = time.perf_counter()
    out = reproduce_counterexample1(0.05, 20.0, 10 ** 6, 0)
    elapsed = time.perf_counter() - t0
    if not out["naive_ratio"] < 0.01:
        problems.append(f"naive ratio {out['naive_ratio']!r} not < 0.01")
    if not out["robust_ratio"] >= 0.5:
        problems.append(f"robust ratio {out['robust_ratio']!r} not >= 0.5")
    if elapsed >= 60.0:
        problems.append(f"took {elapsed:.1f}s (budget 60s)")
    _report(3, "tail-spike-counterexample", problems)


def test_4_population_mhr_guarantee():
    truth = Exponential(1.0)
    problems = []
    for adv in ("tailspike:1.0", "shift:up", "shift:down"):
        ratios = []
        for alpha in ALPHA_SWEEP:
            corrupted = corrupt(truth, adv, alpha)
            mech = population_robust_myerson(ProductDist([corrupted]),
                                             [alpha], "mhr")
            ratio, _, _, _ = revenue_ratio_detail(mech, ProductDist([truth]),
                                                  0, 0)
            floor = 1.0 / (1.0 + 2.0 * alpha * np.e) - 0.01
            if ratio < floor:
                problems.append(
                    f"{adv} alpha={alpha}: ratio {ratio:.5f} < {floor:.5f}")
            ratios.append(ratio)
        worse = np.diff(ratios)
        if np.any(worse > 2e-3):
            problems.append(f"{adv}: degradation not monotone ({ratios})")
    _report(4, "population-mhr-guarantee", problems)


def test_5_population_regular_guarantee():
    problems = []
    for which in ("h", "l"):
        truth = appx_c2(1, 0.5, which)
        for adv in ("shift:up", "tailspike:2.0"):
            for alpha in ALPHA_SWEEP:
                corrupted = corrupt(truth, adv, alpha)
                mech = population_robust_myerson(ProductDist([corrupted]),
                                                 [alpha], "regular")
                ratio, _, _, _ = revenue_ratio_detail(
                    mech, ProductDist([truth]), 0, 0)
                floor = 1.0 - 5.0 * np.sqrt(alpha) - 0.01
                if ratio < floor:
                    problems.append(f"n=1 {which} {adv} alpha={alpha}: "
                                    f"ratio {ratio:.5f} < {floor:.5f}")
    truths = [appx_c2(3, 0.5, "h")] * 3
    for alpha in ALPHA_SWEEP:
        corrupted = [corrupt(d, "shift:up", alpha) for d in truths]
        mech = population_robust_myerson(ProductDist(corrupted),
                                         [alpha] * 3, "regular")
        ratio, ci, _, _ = revenue_ratio_detail(mech, ProductDist(truths),
                                               10 ** 6, 50)
        floor = 1.0 - 5.0 * np.sqrt(3 * alpha) - 0.01
        if ratio < floor:
            problems.append(f"n=3 alpha={alpha}: ratio {ratio:.5f} "
                            f"< {floor:.5f}")
        if ci > 0.005:
            problems.append(f"n=3 alpha={alpha}: ci {ci:.5f} > 0.005")
    _report(5, "population-regular-guarantee", problems)


def test_6_empirical_consistency():
    problems = []
    truth = Exponential(1.0)
    ratios = []
    for m in (10 ** 3, 10 ** 4, 10 ** 5):
        samples = truth.sample(m, 901)
        mech = robust_empirical_myerson([samples], [0.0], 0.01, "mhr")
        ratio, _, _, _ = revenue_ratio_detail(mech, ProductDist([truth]), 0, 0)
        ratios.append(ratio)
    if np.any(np.diff(ratios) < -1e-3):
        problems.append(f"clean mhr trend not non-decreasing: {ratios}")
    if ratios[-1] < 0.95:
        problems.append(f"clean mhr ratio at m=1e5 is {ratios[-1]:.5f} < 0.95")
    truth = Uniform(0.0, 3.0)
    corrupted = corrupt(truth, "shift:up", 0.05)
    # every m here clears the 10 * alpha^(-3/2) ~ 894 stabilization knee
    ratios = []
    for m in (10 ** 3, 10 ** 4, 10 ** 5):
        samples = corrupted.sample(m, 77)
        mech = robust_empirical_myerson([samples], [0.05], 0.01, "regular")
        ratio, _, _, _ = revenue_ratio_detail(mech, ProductDist([truth]), 0, 0)
        ratios.append(ratio)
    drift = np.max(np.abs(np.asarray(ratios) - ratios[-1]))
    if drift > 0.1:
        problems.append(f"regular trend drifts {drift:.4f} > 0.1: {ratios}")
    _report(6, "empirical-consistency", problems)


def _random_normalized_mhr(rng, k_max=8):
    """Random MHR instance with no mass at zero and no gap before the top,
    rescaled so its optimal revenue is exactly 1."""
    k = int(rng.integers(2, k_max + 1))
    xs = np.concatenate(([0.0], np.cumsum(rng.uniform(0.2, 1.5, size=k - 1))))
    slopes = np.cumsum(rng.uniform(0.1, 1.0, size=k - 1))
    hs = np.concatenate(([0.0], np.cumsum(slopes * np.diff(xs))))
    d = PiecewiseLinkCDF("mhr", xs, hs, float(xs[-1]))
    _, opt = opt_single(d)
    return PiecewiseLinkCDF("mhr", d.xs / opt, d.hs, d.support_top() / opt)


def test_7_mechanism_properties():
    problems = []

    # DSIC and IR on a mixed three-bidder robust mechanism
    truths = [Exponential(1.0), Uniform(0.0, 2.0), Uniform(0.5, 2.0)]
    alphas = [0.02, 0.05, 0.1]
    corrupted = [corrupt(d, "shift:up", a) for d, a in zip(truths, alphas)]
    mech = population_robust_myerson(ProductDist(corrupted), alphas, "mhr")
    profiles = ProductDist(truths).sample_profiles(1000, 31415)
    winners, payments = mech.payments_batch(profiles)
    cols = np.arange(mech.n)
    u_true = np.where(winners[:, None] == cols,
                      profiles - payments[:, None], 0.0)
    if u_true.min() < -1e-12:
        problems.append(f"IR violated: utility {u_true.min():.3e}")
    worst_gain = -np.inf
    for j, vv in enumerate(mech.vvs):
        for dev in np.linspace(0.0, 1.1 * vv.top, 100):
            alt = profiles.copy()
            alt[:, j] = dev
            w_dev, p_dev = mech.payments_batch(alt)
            u_dev = np.where(w_dev == j, profiles[:, j] - p_dev, 0.0)
            worst_gain = max(worst_gain, float(np.max(u_dev - u_true[:, j])))
    if worst_gain > 1e-9:
        problems.append(f"DSIC violated: misreport gains {worst_gain:.3e}")

    # revenue monotonicity: a mechanism tuned to the dominated member of a
    # pair earns at least as much on the dominating one (3x MC allowance)
    rng = np.random.default_rng(4242)
    for i in range(20):
        kind = ("mhr", "regular")[i % 2]
        n = 1 + i % 3
        hi, lo = [], []
        for _ in range(n):
            base = random_link_cdf(rng, kind, from_zero=True)
            hi.append(base)
            lo.append(corrupt(base, "shift:up", float(rng.uniform(0.02, 0.15))))
        mech = truth_mechanism(ProductDist(lo), kind)
        hi_mean, hi_hw = mean_and_half_width(
            rev_monte_carlo([mech], ProductDist(hi), 10 ** 5, 600 + i))
        lo_mean, lo_hw = mean_and_half_width(
            rev_monte_carlo([mech], ProductDist(lo), 10 ** 5, 1100 + i))
        slack = 3.0 * (hi_hw + lo_hw)
        if hi_mean < lo_mean - slack:
            problems.append(f"pair {i}: {hi_mean:.5f} < "
                            f"{lo_mean:.5f} - {slack:.5f}")

    # the optimal price of a normalized instance (OPT = 1) stays below e
    rng = np.random.default_rng(424242)
    for i in range(100):
        d = _random_normalized_mhr(rng)
        price, opt = opt_single(d)
        if abs(opt - 1.0) > 1e-6:
            problems.append(f"instance {i}: normalization off ({opt!r})")
        if price > np.e + 1e-9:
            problems.append(f"instance {i}: optimal price {price:.6f} > e")
    _report(7, "mechanism-properties", problems)


def test_8_adversary_validity():
    problems = []
    truths = [Exponential(1.0), Uniform(0.0, 3.0), appx_c2(1, 0.5, "h")]
    for d in truths:
        for adv in ("tailspike:1.5", "shift:up", "shift:down"):
            for alpha in (0.01, 0.05, 0.1):
                ks = ks_distance(corrupt(d, adv, alpha), d)
                if ks > alpha + 1e-9:
                    problems.append(f"{adv} alpha={alpha} on "
                                    f"{type(d).__name__}: ks {ks:.6g}")
    swaps = [(appx_c1(2, 0.3, "l"), "mhr-lb:0.3", 0.2),
             (appx_c2(2, 0.3, "h"), "regular-lb:0.3", 0.05)]
    for d, adv, alpha in swaps:
        ks = ks_distance(corrupt(d, adv, alpha), d)
        if ks > alpha + 1e-9:
            problems.append(f"{adv}: swap ks {ks:.6g} exceeds {alpha}")
    for beta in np.linspace(0.28, 0.49, 20):
        radius = mhr_lb_radius(2, beta)
        measured = ks_distance(appx_c1(2, beta, "l"), appx_c1(2, beta, "h"))
        if radius > beta / 2 + 1e-9:
            problems.append(f"mhr family beta={beta:.4f}: radius over beta/n")
        if abs(measured - radius) > 1e-9:
            problems.append(f"mhr family beta={beta:.4f}: measured "
                            f"{measured!r} vs closed form {radius!r}")
    for i, beta in enumerate(np.linspace(0.1, 0.9, 20)):
        n = 1 + i % 3
        radius = regular_lb_radius(n, beta)
        measured = ks_distance(appx_c2(n, beta, "l"), appx_c2(n, beta, "h"))
        if radius > beta ** 2 / n + 1e-9:
            problems.append(f"regular family n={n} beta={beta:.4f}: "
                            f"radius over beta^2/n")
        if abs(measured - radius) > 1e-9:
            problems.append(f"regular family n={n} beta={beta:.4f}: measured "
                            f"{measured!r} vs closed form {radius!r}")
    _report(8, "adversary-validity", problems)


def test_9_determinism(tmp_path):
    problems = []
    configs = [
        {"true_dists": ["exp:1.0"], "adversary": "shift:down", "kind": "mhr",
         "alphas": [0.0, 0.05], "seeds": [1, 2], "ms": [200, 400],
         "delta": 0.05, "mc_draws": 20000},
        {"true_dists": ["exp:1.0", "unif:0.5:2.0"], "adversary": "shift:up",
         "kind": "mhr", "alphas": [0.05], "seeds": [1, 2], "ms": [200],
         "delta": 0.05, "mc_draws": 20000},
    ]
    for ci, cfg in enumerate(configs):
        cfg_path = tmp_path / f"config{ci}.json"
        cfg_path.write_text(json.dumps(cfg))
        outputs = []
        for run, workers in (("a", 1), ("b", 1), ("c", 8)):
            out = tmp_path / f"sweep{ci}{run}.csv"
            rc = main(["sweep", "--config", str(cfg_path),
                       "--out", str(out), "--workers", str(workers)])
            if rc != 0:
                problems.append(f"config {ci} run {run}: exit code {rc}")
                continue
            outputs.append(out.read_bytes())
        if len(set(outputs)) != 1:
            problems.append(f"config {ci}: runs differ byte-wise")
    _report(9, "determinism", problems)


def _package_imports(path):
    """The package modules that the module at `path` names in its imports,
    relative (as the package writes them) or absolute."""
    names = []
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level:
                base = f"robust_auctions.{base}".rstrip(".")
            names += [base] + [f"{base}.{a.name}" for a in node.names]
        elif isinstance(node, ast.Import):
            names += [a.name for a in node.names]
    return {n.split(".")[1] for n in names if n.startswith("robust_auctions.")}


def _name_uses(path):
    """(identifier, line) of every name, attribute, imported name and
    string constant in the module at `path`, and (name, first line, last
    line) of each of its top-level definitions."""
    tree = ast.parse(path.read_text())
    uses = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            uses.append((node.id, node.lineno))
        elif isinstance(node, ast.Attribute):
            uses.append((node.attr, node.lineno))
        elif isinstance(node, ast.ImportFrom):
            uses += [(a.name, node.lineno) for a in node.names]
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            uses.append((node.value, node.lineno))
    defs = [(node.name, node.lineno, node.end_lineno) for node in tree.body
            if isinstance(node, (ast.ClassDef, ast.FunctionDef))]
    return uses, defs


def test_no_package_module_is_test_only():
    """Every module of the package is imported, directly or through other
    package modules, by the package itself or by its CLI: code that only
    tests need (such as the brute-force references) lives in tests/.  And
    every name in `__all__` is used outside its own definition and
    `__init__.py`: by the package, the demos, the README or perfbench."""
    src = Path(robust_auctions.__file__).parent
    modules = {m.name for m in pkgutil.iter_modules(robust_auctions.__path__)}
    reached, todo = set(), {"__init__", "cli"}
    while todo:
        name = todo.pop()
        reached.add(name)
        todo |= (_package_imports(src / f"{name}.py") & modules) - reached
    assert modules <= reached, f"imported only by tests: {modules - reached}"
    root = src.parents[1]
    used = set(re.findall(r"\w+", (root / "README.md").read_text()))
    for path in (*src.glob("*.py"), *root.glob("demos/*.py"),
                 *root.glob("perfbench/*.py")):
        if path.name == "__init__.py":
            continue
        uses, defs = _name_uses(path)
        used |= {name for name, line in uses
                 if not any(name == d and lo <= line <= hi
                            for d, lo, hi in defs)}
    unused = sorted(set(robust_auctions.__all__) - used)
    assert not unused, f"public names used only by tests: {unused}"
