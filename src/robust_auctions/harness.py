"""Sweep orchestration: configs, deterministic result rows, CSV output.

A sweep cell is one (alpha, m, seed) combination.  Cells are pure functions
of the config, so they can run on any number of workers and still produce
byte-identical CSV: rows are sorted by (alpha, m, seed) before writing and
floats are serialized with repr (shortest round-trip form).
"""

from __future__ import annotations

import json
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, fields

import numpy as np

from .adversary import corrupt, parse_adversary
from .distributions import (Distribution, Exponential, ProductDist,
                            dist_from_dict, parse_dist_spec)
from .links import KINDS, check_alpha
from .pipeline import population_robust_myerson, robust_empirical_myerson
from .revenue import (opt_single, revenue_at_reserve, revenue_ratio_detail,
                      truth_mechanism)

# Evaluation draws must not reuse the learning sample stream: the learner and
# the evaluator both consume (seed, profile index) substreams, so the eval
# seed is displaced by a fixed offset.
_EVAL_SEED_OFFSET = 1_000_007

RESULT_COLUMNS = ("n", "kind", "adversary", "alpha", "m", "seed",
                  "ratio", "ci", "opt", "rev")


class ConfigError(ValueError):
    """Invalid experiment configuration (CLI exit code 2)."""


class CheckFailure(RuntimeError):
    """A declared runtime assertion did not hold (CLI exit code 3)."""


# numeric config fields and their conversions, in checking order
_CONVERSIONS = (("alphas", lambda v: list(map(check_alpha, v))),
                ("seeds", lambda v: list(map(int, v))),
                ("ms", lambda v: list(map(int, v))),
                ("delta", float),
                ("mc_draws", int))


@dataclass
class ExperimentConfig:
    true_dists: list
    adversary: str
    kind: str
    alphas: list
    seeds: list
    ms: list = field(default_factory=list)
    delta: float = 0.01
    mc_draws: int = 10 ** 6

    def __post_init__(self):
        for name in ("true_dists", "alphas", "seeds"):
            if not getattr(self, name):
                raise ConfigError(f"{name} must be non-empty")
        for name, convert in _CONVERSIONS:
            try:
                setattr(self, name, convert(getattr(self, name)))
            except (TypeError, ValueError, OverflowError) as exc:
                raise ConfigError(f"{name}: {exc}")
        try:
            parse_adversary(self.adversary)
            self._dists = [self._resolve(d) for d in self.true_dists]
        except (TypeError, ValueError, OverflowError) as exc:
            raise ConfigError(str(exc))
        if any(m < 1 for m in self.ms):
            raise ConfigError("sample sizes must be positive")
        if self.kind not in KINDS:
            raise ConfigError(f"kind must be one of {KINDS}")
        if not 0.0 < self.delta < 1.0:
            raise ConfigError("delta must lie in (0, 1)")
        if self.mc_draws < 1:
            raise ConfigError("mc_draws must be positive")

    @staticmethod
    def _resolve(entry) -> Distribution:
        if isinstance(entry, dict):
            return dist_from_dict(entry)
        return parse_dist_spec(str(entry))

    def dists(self):
        return list(self._dists)

    @classmethod
    def from_json(cls, path) -> "ExperimentConfig":
        with open(path) as fh:
            try:
                raw = json.load(fh)
            except json.JSONDecodeError as exc:
                raise ConfigError(f"config is not valid JSON: {exc}")
        if not isinstance(raw, dict):
            raise ConfigError("the config must be a JSON object")
        extra = set(raw) - {f.name for f in fields(cls)}
        if extra:
            raise ConfigError(f"unknown config fields: {sorted(extra)}")
        missing = {"true_dists", "adversary", "kind", "alphas", "seeds"} - set(raw)
        if missing:
            raise ConfigError(f"missing config fields: {sorted(missing)}")
        return cls(**raw)


def run_cell(cfg: ExperimentConfig, alpha: float, m, seed: int, corrupted,
             bench) -> dict:
    """One sweep cell: learn from the truths corrupted at alpha (population
    when m is None) and evaluate against `bench`, the truth mechanism (None
    for one bidder, whose ratio is exact)."""
    truths = cfg.dists()
    n = len(truths)
    if m is None:
        mech = population_robust_myerson(ProductDist(corrupted), [alpha] * n,
                                         cfg.kind)
    else:
        profiles = ProductDist(corrupted).sample_profiles(int(m), seed)
        mech = robust_empirical_myerson([profiles[:, j] for j in range(n)],
                                        [alpha] * n, cfg.delta, cfg.kind)
    ratio, ci, opt, rev = revenue_ratio_detail(
        mech, ProductDist(truths), cfg.mc_draws, seed + _EVAL_SEED_OFFSET,
        bench=bench)
    return {"n": n, "kind": cfg.kind, "adversary": cfg.adversary,
            "alpha": alpha, "m": 0 if m is None else int(m), "seed": seed,
            "ratio": ratio, "ci": ci, "opt": opt, "rev": rev}


def run_sweep(cfg: ExperimentConfig, workers: int = 1) -> list:
    """All cells of the sweep, sorted by (alpha, m, seed).  Each alpha's
    corruption (KS self-check included) and the truth mechanism are built
    once, before the cells are dispatched."""
    truths = cfg.dists()
    corrupted = {a: [corrupt(d, cfg.adversary, a) for d in truths]
                 for a in set(cfg.alphas)}
    bench = (truth_mechanism(ProductDist(truths), cfg.kind)
             if len(truths) > 1 else None)
    cells = [(a, m, s) for a in cfg.alphas for m in (cfg.ms or [None])
             for s in cfg.seeds]

    def cell(c):
        return run_cell(cfg, *c, corrupted[c[0]], bench)

    if workers <= 1:
        rows = list(map(cell, cells))
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            rows = list(pool.map(cell, cells))
    rows.sort(key=lambda r: (r["alpha"], r["m"], r["seed"]))
    return rows


def _csv_line(values) -> str:
    return ",".join(repr(float(v)) if isinstance(v, float) else str(v)
                    for v in values)


def write_csv(path, header, rows):
    """The one CSV writer: floats in repr form, anything else with str."""
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        fh.writelines(_csv_line(row) + "\n" for row in rows)


def format_row(row: dict) -> str:
    return _csv_line(row[col] for col in RESULT_COLUMNS)


def write_rows(rows, path):
    write_csv(path, RESULT_COLUMNS,
              ([row[col] for col in RESULT_COLUMNS] for row in rows))


def reproduce_counterexample1(alpha: float, c: float, m: int, seed: int,
                              delta: float = 0.01) -> dict:
    """Tail-spike corruption of Exponential(1): naive vs. robust learning.

    Both learners see the same corrupted samples.  When the naive learner is
    actually fooled (its reserve lands in the spike region), its exact ratio
    is checked against the (c/alpha) e^{-c/alpha} / OPT ceiling; a violation
    raises CheckFailure.  With tiny alpha the confidence shading removes the
    spike on its own, nobody is fooled, and both ratios are close to 1.
    """
    alpha = float(alpha)
    c = float(c)
    if not 0.0 < alpha < 1.0:
        raise ConfigError("alpha must lie in (0, 1)")
    if c <= 0:
        raise ConfigError("c must be positive")
    truth = Exponential(1.0)
    corrupted = corrupt(truth, f"tailspike:{c!r}", alpha)
    samples = corrupted.sample(int(m), seed)
    naive = robust_empirical_myerson([samples], [alpha], delta, "mhr",
                                     with_envelope=False)
    robust = robust_empirical_myerson([samples], [alpha], delta, "mhr",
                                      with_envelope=True)
    _, opt = opt_single(truth)
    naive_ratio = revenue_at_reserve(truth, naive.reserves[0]) / opt
    robust_ratio = revenue_at_reserve(truth, robust.reserves[0]) / opt
    spike_x = c / alpha
    bound = spike_x * np.exp(-spike_x) / opt
    fooled = naive.reserves[0] >= spike_x / 2.0
    if fooled and naive_ratio > bound * (1.0 + 1e-6) + 1e-12:
        raise CheckFailure(
            f"naive ratio {naive_ratio:.6g} exceeds the spike revenue "
            f"ceiling {bound:.6g}")
    return {"alpha": alpha, "c": c, "m": int(m), "seed": int(seed),
            "spike_x": spike_x, "naive_reserve": naive.reserves[0],
            "robust_reserve": robust.reserves[0],
            "naive_ratio": naive_ratio, "robust_ratio": robust_ratio,
            "naive_bound": float(bound), "opt": opt, "fooled": bool(fooled)}
