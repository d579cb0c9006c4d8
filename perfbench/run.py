"""Benchmark of the robust-auctions pipeline; see README.md for the workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

One workload runs in this process.  The package is imported from the `src`
directory next to this one, never from an installed copy.  Set-up (the
package import, then building the workload's op inputs) is done
SETUP_REPEATS times; one untimed warm-up op follows, and then the op repeats
until --seconds have passed.  Outputs are checked against closed forms,
quadrature and the properties in checks.py.  The last line of standard
output is one JSON object with the keys correct, attempted, failed and
metrics: the end-to-end metrics with --trace 0, the per-layer metrics of
spans.py with --trace 1.  That object, with the per-op samples, and with
--trace 1 the spans, are also written under perfbench/out/.
"""

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from types import SimpleNamespace

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

# numpy, imported here through checks, is the runtime the package stands on
# and is not part of setup_s; the probes below import it before their clock.
import checks  # noqa: E402  (this directory, not the package)
import spans   # noqa: E402

# Set-up (the import, then building the op inputs) is repeated this many
# times and the medians are reported, so setup_s is not one noisy sample.
SETUP_REPEATS = 5
ALPHA = 0.05
# The import timed in a fresh interpreter, as this process timed its own.
_IMPORT_PROBE = ("import numpy, sys, time; t = time.perf_counter(); "
                 "sys.path.insert(0, sys.argv[1]); import robust_auctions; "
                 "print(time.perf_counter() - t)")


def import_program():
    """The package under src/ of this checkout, never an installed copy.
    Returns its modules and the wall time the import took."""
    t = time.perf_counter()
    sys.path.insert(0, SRC)
    import robust_auctions
    from robust_auctions import (adversary, distributions, harness, pipeline,
                                 revenue)
    import_s = time.perf_counter() - t
    if not os.path.abspath(robust_auctions.__file__).startswith(SRC + os.sep):
        raise ImportError(f"robust_auctions came from {robust_auctions.__file__}")
    return SimpleNamespace(adversary=adversary, distributions=distributions,
                           harness=harness, pipeline=pipeline,
                           revenue=revenue), import_s


def import_times(first: float) -> list:
    """This process's import time plus SETUP_REPEATS - 1 more, each timed in
    a fresh interpreter that is waited for."""
    times = [first]
    for _ in range(SETUP_REPEATS - 1):
        probe = subprocess.run([sys.executable, "-c", _IMPORT_PROBE, SRC],
                               capture_output=True, text=True, check=True,
                               timeout=60)
        times.append(float(probe.stdout))
    return times


class Workload:
    """One workload.  An op that takes a program seed gets, as op k of bench
    seed s, the seed s * OP_SEEDS + k."""

    OP_SEEDS = 10_000

    def __init__(self, ra, seed: int):
        self.ra = ra
        self.seed = seed
        self.first = seed * self.OP_SEEDS

    def build(self):
        """The op inputs; timed as part of set-up."""
        return None

    def op(self, inputs, k: int):
        raise NotImplementedError

    def check(self, inputs, out) -> list:
        """Problems with one op's output."""
        return []

    def check_run(self, inputs, outs, traced: bool) -> list:
        """Problems across all of a run's outputs; run after timing."""
        return []


class LearnSpike(Workload):
    """Tail-spike corrupted Exp(1); naive and robust MHR learners on the same
    10^6 samples, exact n = 1 ratios."""

    name = "learn-spike-1e6"
    M = 10 ** 6
    C = 20.0
    units = M          # samples learned per op

    def op(self, inputs, k):
        return self.ra.harness.reproduce_counterexample1(
            alpha=ALPHA, c=self.C, m=self.M, seed=self.first + k)

    def check(self, inputs, out):
        return checks.check_counterexample(out, ALPHA, self.C)


class EvalN3(Workload):
    """Revenue ratio of a population-robust mechanism for three bidders,
    10^6 Monte Carlo profiles per op."""

    name = "eval-n3-1e6"
    TRUTHS = ("exp:1.0", "exp:0.5", "unif:0:3")
    DRAWS = 10 ** 6
    units = DRAWS      # profiles evaluated per op

    def __init__(self, ra, seed):
        super().__init__(ra, seed)
        self.specs = [checks.parse_spec(s) for s in self.TRUTHS]
        self.ref_opt = checks.opt_quadrature(self.specs)
        self.tol = checks.mc_opt_tolerance(self.specs, self.DRAWS,
                                           ra.revenue._TRUTH_GRID)

    def build(self):
        d = self.ra.distributions
        truth = d.ProductDist([d.parse_dist_spec(s) for s in self.TRUTHS])
        corrupted = [self.ra.adversary.corrupt(c, "shift:down", ALPHA)
                     for c in truth.components]
        mech = self.ra.pipeline.population_robust_myerson(
            d.ProductDist(corrupted), [ALPHA] * len(corrupted), "mhr")
        return truth, mech

    def op(self, inputs, k):
        truth, mech = inputs
        return self.ra.revenue.revenue_ratio_detail(mech, truth, self.DRAWS,
                                                    seed=self.first + k)

    def check(self, inputs, out):
        ratio, ci, opt, rev = out
        return checks.check_mc_revenue(opt, rev, ratio, self.ref_opt, self.tol)

    def check_run(self, inputs, outs, traced):
        _, mech = inputs
        profiles = checks.sample_profiles(self.specs, mech.reserves, 20_000,
                                          self.seed)
        return checks.check_payments(mech, profiles)


class SweepRegular(Workload):
    """A 4-cell empirical sweep on one worker: regular kind, exp + equal
    revenue truths, shift:up, two alphas and two cell seeds.  Two workers
    made op_p50_s depend on whether the host gave the second core to this
    process (see README.md), so the timed sweep runs serially."""

    name = "sweep-regular-1w"
    TRUTHS = ("exp:1.0", "eqrev:1:50")
    WORKERS = 1
    MC_DRAWS = 2 * 10 ** 5
    units = 4          # sweep cells per op

    def __init__(self, ra, seed):
        super().__init__(ra, seed)
        self.specs = [checks.parse_spec(s) for s in self.TRUTHS]
        self.ref_opt = checks.opt_quadrature(self.specs)
        self.tol = checks.mc_opt_tolerance(self.specs, self.MC_DRAWS,
                                           ra.revenue._TRUTH_GRID)

    def build(self):
        return self.ra.harness.ExperimentConfig(
            true_dists=list(self.TRUTHS), adversary="shift:up",
            kind="regular", alphas=[0.02, 0.05],
            seeds=[2 * self.seed, 2 * self.seed + 1], ms=[10 ** 5],
            mc_draws=self.MC_DRAWS)

    def op(self, cfg, k, workers=WORKERS):
        return self.ra.harness.run_sweep(cfg, workers=workers)

    def check(self, cfg, rows):
        problems = []
        if len(rows) != self.units:
            problems.append(f"{len(rows)} rows for {self.units} cells")
        for row in rows:
            problems += checks.check_mc_revenue(row["opt"], row["rev"],
                                                row["ratio"], self.ref_opt,
                                                self.tol)
        return problems

    def csv_bytes(self, rows) -> bytes:
        path = os.path.join(OUT, f"sweep-{os.getpid()}.csv")
        self.ra.harness.write_rows(rows, path)
        try:
            with open(path, "rb") as fh:
                return fh.read()
        finally:
            os.remove(path)

    def check_run(self, cfg, outs, traced):
        problems = []
        first = self.csv_bytes(outs[0])
        if any(self.csv_bytes(rows) != first for rows in outs[1:]):
            problems.append("sweep CSV bytes differ between ops")
        if traced and self.csv_bytes(self.op(cfg, 0, workers=2)) != first:
            problems.append("sweep CSV bytes differ between 1 and 2 workers")
        # payments of one cell's learned mechanism and of the truth mechanism
        ra, alpha, seed = self.ra, cfg.alphas[-1], cfg.seeds[0]
        truths = ra.distributions.ProductDist(cfg.dists())
        corrupted = ra.distributions.ProductDist(
            [ra.adversary.corrupt(d, cfg.adversary, alpha) for d in truths])
        sample = corrupted.sample_profiles(cfg.ms[0], seed)
        learned = ra.pipeline.robust_empirical_myerson(
            list(sample.T), [alpha] * truths.n, cfg.delta, cfg.kind)
        for mech in (learned, ra.revenue.truth_mechanism(truths, cfg.kind)):
            profiles = checks.sample_profiles(self.specs, mech.reserves,
                                              20_000, self.seed)
            problems += checks.check_payments(mech, profiles)
        return problems


WORKLOADS = {w.name: w for w in (LearnSpike, EvalN3, SweepRegular)}
END_TO_END = {"setup_s": "s", "op_p50_s": "s", "op_cpu_s": "s",
              "items_per_s": "1/s", "peak_rss_mb": "MB"}


def timed_ops(wl, inputs, seconds):
    """Untraced run: ops until `seconds` pass.  Returns the outputs, per-op
    wall and CPU times, failures, attempts and the phase's wall time."""
    outs, walls, cpus, failed = [], [], [], 0
    start = time.perf_counter()
    k = 0
    while time.perf_counter() - start < seconds:
        c0, w0 = time.process_time(), time.perf_counter()
        try:
            out = wl.op(inputs, k)
        except Exception:
            traceback.print_exc()
            failed += 1
        else:
            walls.append(time.perf_counter() - w0)
            cpus.append(time.process_time() - c0)
            outs.append(out)
        k += 1
    return outs, walls, cpus, failed, k, time.perf_counter() - start


def traced_ops(wl, inputs, seconds, tracer):
    """Traced run: op k runs once traced and once untraced, in alternating
    order, and the two outputs must be identical.  Returns the traced
    outputs, their op ids, the paired wall-time differences, failures,
    attempts and problems found (output mismatches, hull properties)."""
    outs, op_ids, diffs, problems, failed = [], [], [], [], 0
    start = time.perf_counter()
    k = 0
    while time.perf_counter() - start < seconds:
        res = {}
        try:
            for traced in ((True, False) if k % 2 == 0 else (False, True)):
                if traced:
                    tracer.op = k
                    tracer.install()
                w0 = time.perf_counter()
                try:
                    res[traced] = wl.op(inputs, k)
                finally:
                    res[(traced, "wall")] = time.perf_counter() - w0
                    tracer.restore()
        except Exception:
            traceback.print_exc()
            failed += 1
        else:
            if res[True] != res[False]:
                problems.append(f"op {k}: traced output differs from untraced")
            outs.append(res[True])
            op_ids.append(k)
            diffs.append(res[(True, "wall")] - res[(False, "wall")])
        problems += hull_problems(tracer)
        k += 1
    return outs, op_ids, diffs, failed, k, problems


def hull_problems(tracer):
    problems = []
    for xs, ys, env in tracer.envelopes:
        problems += checks.check_lower_hull(xs, ys, env)
    tracer.envelopes.clear()
    return problems


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")
    try:
        ra, import_s = import_program()
    except ImportError as exc:
        print(f"perfbench: cannot import robust_auctions from {SRC}: {exc}",
              file=sys.stderr)
        return 2
    os.makedirs(OUT, exist_ok=True)

    wl = WORKLOADS[args.workload](ra, args.seed)
    tracer = spans.Tracer() if args.trace else None
    builds, setup_ids = [], []
    for i in range(SETUP_REPEATS):
        if tracer:
            tracer.op = f"setup-{i}"
            setup_ids.append(tracer.op)
            tracer.install()
        t = time.perf_counter()
        try:
            inputs = wl.build()
        finally:
            builds.append(time.perf_counter() - t)
            if tracer:
                tracer.restore()
    wl.op(inputs, 0)   # warm-up, in neither setup_s nor the op metrics

    if tracer:
        problems = hull_problems(tracer)
        outs, op_ids, samples, failed, attempted, found = traced_ops(
            wl, inputs, args.seconds, tracer)
        problems += found
    else:
        problems = []
        outs, samples, cpus, failed, attempted, phase_s = timed_ops(
            wl, inputs, args.seconds)
    if not outs:
        print("perfbench: every op failed; nothing was measured",
              file=sys.stderr)
        return 1
    for out in outs:
        problems += wl.check(inputs, out)
    problems += wl.check_run(inputs, outs, traced=bool(tracer))

    if tracer:
        metrics = tracer.per_layer(op_ids, setup_ids,
                                   statistics.median(samples))
    else:
        values = {
            "setup_s": statistics.median(import_times(import_s))
                       + statistics.median(builds),
            "op_p50_s": statistics.median(samples),
            "op_cpu_s": statistics.median(cpus),
            "items_per_s": wl.units * len(samples) / phase_s,
            "peak_rss_mb":
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        metrics = {k: {"value": v, "unit": END_TO_END[k]}
                   for k, v in values.items()}
    result = {"correct": not problems, "attempted": attempted,
              "failed": failed, "metrics": metrics}
    stem = os.path.join(OUT, f"{wl.name}-seed{args.seed}-trace{args.trace}")
    with open(stem + ".json", "w") as fh:
        # per-op wall times untraced, traced-minus-untraced pairs traced
        json.dump(dict(result, op_samples_s=samples), fh, indent=1)
    if tracer:
        tracer.write(stem + ".spans.jsonl")
    for p in problems[:20]:
        print(f"perfbench check failed: {p}", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
