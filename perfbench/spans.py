"""Spans around calls into the package's public functions, for the traced run.

`Tracer.install` replaces each target at every name its callers look up: the
defining module's attribute, every package module that imported it by name
(`pipeline` imports `minimal_in_ks_ball` from `ball`, for example), or the
class attribute for a method.  `Tracer.restore` puts the originals back.
Spans stay in memory until `write` saves them as JSON lines at the end.

A span holds its name, start, end, parent span, thread, op id, the thread CPU
time it used and the counts its target records.  A span that opens on a
worker thread with nothing open there takes as parent the innermost span open
on the thread that started the op (run_sweep for the sweep's cells).
"""

from __future__ import annotations

import functools
import json
import statistics
import sys
import threading
import time
from collections import defaultdict

PACKAGE = "robust_auctions"
LAYERS = ("distributions", "adversary", "pipeline", "ball", "links",
          "myerson", "revenue", "harness")


def _envelope_counts(args, kwargs, result):
    return {"points": len(args[0]), "vertices": len(result.xs)}


def _shade_counts(args, kwargs, result):
    return {"atoms_in": args[0].values.size, "atoms_out": result.values.size}


# (span name, "module" or "module.Class", attribute, counts of one call)
TARGETS = (
    ("distributions.sample", "distributions.Distribution", "sample", None),
    ("distributions.empirical_from_samples", "distributions",
     "empirical_from_samples", None),
    ("distributions.sample_profiles", "distributions.ProductDist",
     "sample_profiles", lambda a, k, r: {"rows": r.shape[0]}),
    ("distributions.ks_distance", "distributions", "ks_distance", None),
    ("adversary.corrupt", "adversary", "corrupt", None),
    ("pipeline.shade_quantiles", "pipeline", "shade_quantiles", _shade_counts),
    ("pipeline.robust_empirical_myerson", "pipeline",
     "robust_empirical_myerson", None),
    ("pipeline.population_robust_myerson", "pipeline",
     "population_robust_myerson", None),
    ("ball.minimal_in_ks_ball", "ball", "minimal_in_ks_ball", None),
    ("links.convex_envelope", "links", "convex_envelope", _envelope_counts),
    ("myerson.Mechanism", "myerson.Mechanism", "__post_init__", None),
    ("myerson.payments_batch", "myerson.Mechanism", "payments_batch",
     lambda a, k, r: {"rows": len(r[0])}),
    ("revenue.revenue_ratio_detail", "revenue", "revenue_ratio_detail", None),
    ("revenue.rev_monte_carlo", "revenue", "rev_monte_carlo",
     lambda a, k, r: {"draws": r.n_draws}),
    ("revenue.truth_mechanism", "revenue", "truth_mechanism", None),
    ("revenue.opt_single", "revenue", "opt_single", None),
    ("harness.run_sweep", "harness", "run_sweep", None),
    ("harness.run_cell", "harness", "run_cell", None),
    ("harness.reproduce_counterexample1", "harness",
     "reproduce_counterexample1", None),
)

# name -> unit, in the order BENCHMARK.json lists the per-layer metrics
PER_LAYER = {
    "links.convex_envelope.busy_s": "s",
    "links.convex_envelope.points": "count",
    "links.convex_envelope.vertices": "count",
    "ball.minimal_in_ks_ball.self_s": "s",
    "ball.minimal_in_ks_ball.calls": "count",
    "pipeline.shade_quantiles.busy_s": "s",
    "pipeline.shade_quantiles.atoms_in": "count",
    "pipeline.shade_quantiles.atoms_out": "count",
    "pipeline.robust_empirical_myerson.self_s": "s",
    "pipeline.population_robust_myerson.busy_s": "s",
    "distributions.sample.busy_s": "s",
    "distributions.empirical_from_samples.busy_s": "s",
    "distributions.empirical_from_samples.calls": "count",
    "distributions.sample_profiles.busy_s": "s",
    "distributions.sample_profiles.rows": "count",
    "distributions.ks_distance.busy_s": "s",
    "distributions.ks_distance.calls": "count",
    "adversary.corrupt.self_s": "s",
    "adversary.corrupt.calls": "count",
    "myerson.Mechanism.build_s": "s",
    "myerson.Mechanism.calls": "count",
    "myerson.payments_batch.busy_s": "s",
    "myerson.payments_batch.rows": "count",
    "myerson.payments_batch.calls": "count",
    "revenue.rev_monte_carlo.self_s": "s",
    "revenue.rev_monte_carlo.draws": "count",
    "revenue.rev_monte_carlo.passes_per_ratio": "count",
    "revenue.truth_mechanism.busy_s": "s",
    "revenue.opt_single.busy_s": "s",
    "harness.run_cell.busy_s": "s",
    "harness.run_cell.cpu_s": "s",
    "harness.run_cell.wait_s": "s",
    "harness.run_sweep.parallelism": "count",
    **{f"{layer}.self_s": "s" for layer in LAYERS},
    "trace.spans": "count",
    "trace.overhead_s": "s",
}
# ratios within one op; set-up does not add to them
_RATIOS = ("harness.run_sweep.parallelism",
           "revenue.rev_monte_carlo.passes_per_ratio")


class Tracer:
    def __init__(self):
        self.spans = []        # (name, start, end, parent, thread, op, cpu_s,
                               #  counts); list index = span id
        self.envelopes = []    # (xs, ys, result) of convex_envelope calls
        self.op = None         # op id stamped on new spans
        self._stacks = defaultdict(list)   # thread id -> open span ids
        self._origin = threading.get_ident()
        self._lock = threading.Lock()
        self._saved = []       # (owner, attribute, original)

    # -- wrapping -----------------------------------------------------------
    def install(self):
        """Wrap every target at each name its callers look up."""
        modules = [m for name, m in list(sys.modules.items())
                   if name == PACKAGE or name.startswith(PACKAGE + ".")]
        for span_name, owner_path, attr, counts in TARGETS:
            mod_name, _, cls_name = owner_path.partition(".")
            module = sys.modules[f"{PACKAGE}.{mod_name}"]
            if cls_name:
                owners = [getattr(module, cls_name)]
                original = owners[0].__dict__[attr]
            else:
                original = getattr(module, attr)
                owners = [m for m in modules
                          if getattr(m, attr, None) is original]
            wrapper = self._wrap(span_name, original, counts)
            for owner in owners:
                self._saved.append((owner, attr, original))
                setattr(owner, attr, wrapper)

    def restore(self):
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    def _wrap(self, name, fn, counts):
        keep_envelope = name == "links.convex_envelope"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tid = threading.get_ident()
            stack = self._stacks[tid]
            parent = stack[-1] if stack else None
            if parent is None and tid != self._origin:
                origin = self._stacks[self._origin]
                parent = origin[-1] if origin else None
            with self._lock:
                sid = len(self.spans)
                self.spans.append(None)
            stack.append(sid)
            c0, t0 = time.thread_time(), time.perf_counter()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                t1, c1 = time.perf_counter(), time.thread_time()
                stack.pop()
                n = ({} if counts is None or result is None
                     else counts(args, kwargs, result))
                self.spans[sid] = (name, t0, t1, parent, tid, self.op,
                                   c1 - c0, n)
                if keep_envelope and result is not None:
                    self.envelopes.append((args[0], args[1], result))
        return wrapper

    # -- output -------------------------------------------------------------
    def write(self, path):
        with open(path, "w") as fh:
            for sid, (name, t0, t1, parent, tid, op, cpu, n) in \
                    enumerate(self.spans):
                fh.write(json.dumps({"id": sid, "name": name, "start": t0,
                                     "end": t1, "parent": parent,
                                     "thread": tid, "op": op, "cpu_s": cpu,
                                     **n}) + "\n")

    def _self_times(self) -> list:
        """Span duration minus the union of its children's intervals."""
        children = defaultdict(list)
        for sid, s in enumerate(self.spans):
            if s[3] is not None:
                children[s[3]].append((s[1], s[2]))
        out = []
        for sid, (_, t0, t1, *_rest) in enumerate(self.spans):
            covered, reach = 0.0, t0
            for a, b in sorted(children.get(sid, ())):
                a, b = max(a, reach), min(b, t1)
                if b > a:
                    covered += b - a
                    reach = b
            out.append(t1 - t0 - covered)
        return out

    def per_layer(self, op_ids, setup_ids, overhead_s: float) -> dict:
        """Per-layer metrics: the median over traced ops of each op's total,
        plus the median over traced set-ups of each set-up's total, so a
        layer that only set-up reaches still shows."""
        selfs = self._self_times()
        groups = defaultdict(list)
        for sid, s in enumerate(self.spans):
            groups[s[5]].append((s, selfs[sid]))

        def totals(items):
            busy, calls, self_s, cpu, counts, layer_self = (
                defaultdict(float) for _ in range(6))
            rmc_parents = set()
            for (name, t0, t1, parent, _tid, _op, c, n), st in items:
                busy[name] += t1 - t0
                calls[name] += 1
                self_s[name] += st
                cpu[name] += c
                layer_self[name.split(".")[0]] += st
                for key, v in n.items():
                    counts[f"{name}.{key}"] += v
                if name == "revenue.rev_monte_carlo":
                    rmc_parents.add(parent)
            m = {}
            for key in PER_LAYER:
                name, _, stat = key.rpartition(".")
                if name in LAYERS:
                    m[key] = layer_self[name]
                elif stat in ("busy_s", "build_s"):
                    m[key] = busy[name]
                elif stat == "self_s":
                    m[key] = self_s[name]
                elif stat == "calls":
                    m[key] = calls[name]
                elif stat == "cpu_s":
                    m[key] = cpu[name]
                elif stat == "wait_s":
                    m[key] = busy[name] - cpu[name]
                else:
                    m[key] = counts[key]
            sweep = busy["harness.run_sweep"]
            m["harness.run_sweep.parallelism"] = (
                busy["harness.run_cell"] / sweep if sweep else 0.0)
            m["revenue.rev_monte_carlo.passes_per_ratio"] = (
                calls["revenue.rev_monte_carlo"] / len(rmc_parents)
                if rmc_parents else 0.0)
            m["trace.spans"] = float(len(items))
            return m

        def median_of(ids):
            per = [totals(groups[i]) for i in ids]
            return {k: statistics.median(p[k] for p in per) for k in per[0]}

        out = median_of(op_ids)
        if setup_ids:
            for k, v in median_of(setup_ids).items():
                if k not in _RATIOS:
                    out[k] += v
        out["trace.overhead_s"] = overhead_s
        return {k: {"value": out[k], "unit": u} for k, u in PER_LAYER.items()}
