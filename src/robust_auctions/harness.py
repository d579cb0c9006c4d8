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

from ._rng import check_seed
from .adversary import AdversaryError, corrupt, parse_adversary
from .distributions import (Exponential, ProductDist, dist_from_dict,
                            parse_dist_spec)
from .links import check_alpha, check_kind
from .pipeline import (_learn, confidence_log, population_robust_myerson,
                       robust_empirical_myerson)
from .revenue import _benchmark, _ratios

# Evaluation draws must not reuse the learning sample stream: the learner and
# the evaluator both consume (seed, profile index) substreams, so the eval
# seed is displaced by a fixed offset.
_EVAL_SEED_OFFSET = 1_000_007
# cells per Monte Carlo pass; each adds a chunk array (8 MB at 10^6 draws)
_PASS_CELLS = 2

RESULT_COLUMNS = ("n", "kind", "adversary", "alpha", "m", "seed",
                  "ratio", "ci", "opt", "rev")


def result_row(*values) -> dict:
    """A result row: the values of RESULT_COLUMNS, in that order."""
    return dict(zip(RESULT_COLUMNS, values, strict=True))


class ConfigError(ValueError):
    """Invalid experiment configuration (CLI exit code 2)."""


class CheckFailure(RuntimeError):
    """A declared runtime assertion did not hold (CLI exit code 3)."""


def _check_seeds(v):
    """Seeds valid for learning (s) and for evaluation (s + the offset)."""
    seeds = list(map(int, v))
    for s in map(check_seed, seeds):
        try:
            check_seed(s + _EVAL_SEED_OFFSET)
        except ValueError:
            raise ValueError(f"seed {s} plus the evaluation offset "
                             f"{_EVAL_SEED_OFFSET} is not below 2**128") from None
    return seeds


# numeric config fields and their conversions, in checking order
_CONVERSIONS = (("alphas", lambda v: list(map(check_alpha, v))),
                ("seeds", _check_seeds),
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
        if any(m < 1 for m in self.ms):
            raise ConfigError("sample sizes must be positive")
        if not 0.0 < self.delta < 1.0:
            raise ConfigError("delta must lie in (0, 1)")
        try:
            name, _ = parse_adversary(self.adversary)
            self._dists = [dist_from_dict(d) if isinstance(d, dict)
                           else parse_dist_spec(str(d))
                           for d in self.true_dists]
            if name.endswith("-lb"):
                # an input check and an exact radius each, no KS search
                for d in self._dists:
                    for a in self.alphas:
                        corrupt(d, self.adversary, a)
            for m in self.ms:   # the learner's own check of ln(2 m n / delta)
                confidence_log(m, len(self._dists), self.delta)
            check_kind(self.kind)
        except (TypeError, ValueError, OverflowError, AdversaryError) as exc:
            raise ConfigError(str(exc))
        if self.mc_draws < 1:
            raise ConfigError("mc_draws must be positive")

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


def run_cell(cfg: ExperimentConfig, alpha: float, m, seed: int, corrupted):
    """One sweep cell's mechanism, learned from the truths corrupted at
    alpha; the population variant, which ignores the seed, when m is None."""
    n = len(corrupted)
    if m is None:
        return population_robust_myerson(ProductDist(corrupted), [alpha] * n,
                                         cfg.kind)
    profiles = ProductDist(corrupted).sample_profiles(int(m), seed)
    return robust_empirical_myerson([profiles[:, j] for j in range(n)],
                                    [alpha] * n, cfg.delta, cfg.kind)


def run_sweep(cfg: ExperimentConfig, workers: int = 1) -> list:
    """All cells of the sweep, sorted by (alpha, m, seed).  Each alpha's
    corruption (KS self-check included) and population mechanism, and the
    benchmark, are built once.  On `workers` threads the mechanisms are
    learned, then each seed's cells share Monte Carlo passes (n > 1)."""
    if workers < 1:
        raise ConfigError("workers must be at least 1")
    truths = ProductDist(cfg.dists())
    corrupted = {a: [corrupt(d, cfg.adversary, a) for d in truths]
                 for a in set(cfg.alphas)}
    bench = _benchmark(truths, cfg.kind)
    cells = sorted((a, m, s) for a in cfg.alphas for m in (cfg.ms or [None])
                   for s in cfg.seeds)
    # each distinct cell and its mechanism's key, seed-free for population
    learn = {c: c if c[1] else (c[0], None, None) for c in cells}
    by_seed = [[c for c in learn if c[2] == s] for s in dict.fromkeys(cfg.seeds)]
    size = min(_PASS_CELLS, -(-len(learn) // workers))   # no idle worker
    passes = [g[i:i + size] for g in by_seed for i in range(0, len(g), size)]

    def evaluate(batch):
        return zip(batch, _ratios(bench, [mech[learn[c]] for c in batch],
                                  truths, cfg.mc_draws,
                                  batch[0][2] + _EVAL_SEED_OFFSET))

    with ThreadPoolExecutor(max_workers=workers) as pool:
        fan = pool.map if workers > 1 else map   # no thread, no second heap
        mech = dict(fan(lambda k: (k, run_cell(cfg, *k, corrupted[k[0]])),
                        dict.fromkeys(learn.values())))
        detail = {c: d for ds in fan(evaluate, passes) for c, d in ds}
    return [result_row(truths.n, cfg.kind, cfg.adversary, a, m or 0, s,
                       *detail[a, m, s]) for a, m, s in cells]


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


def reproduce_counterexample1(alpha: float, c: float, m: int,
                              seed: int) -> dict:
    """Tail-spike corruption of Exponential(1): naive vs. robust learning.

    Both learners see the same corrupted samples, at delta = 0.01.  When the
    naive learner is actually fooled (its reserve lands in the spike region),
    its exact ratio is checked against the (c/alpha) e^{-c/alpha} / OPT
    ceiling; a violation raises CheckFailure.  With tiny alpha the confidence
    shading removes the spike on its own, nobody is fooled, and both ratios
    are close to 1.
    """
    alpha, c, m = float(alpha), float(c), int(m)
    if not 0.0 < alpha < 1.0:
        raise ConfigError("alpha must lie in (0, 1)")
    if c <= 0:
        raise ConfigError("c must be positive")
    if m < 1:
        raise ConfigError("m must be at least 1")
    truths = ProductDist([Exponential(1.0)])
    corrupted = corrupt(truths.components[0], f"tailspike:{c!r}", alpha)
    samples = corrupted.sample(m, seed)
    naive, robust = _learn([samples], [alpha], 0.01, "mhr", (False, True))
    (naive_ratio, _, opt, _), (robust_ratio, *_) = _ratios(
        _benchmark(truths, "mhr"), [naive, robust], truths, 0, 0)  # no draws
    spike_x = c / alpha
    bound = spike_x * np.exp(-spike_x) / opt
    fooled = naive.reserves[0] >= spike_x / 2.0
    if fooled and naive_ratio > bound * (1.0 + 1e-6) + 1e-12:
        raise CheckFailure(
            f"naive ratio {naive_ratio:.6g} exceeds the spike revenue "
            f"ceiling {bound:.6g}")
    return {"alpha": alpha, "c": c, "m": m, "seed": int(seed),
            "spike_x": spike_x, "naive_reserve": naive.reserves[0],
            "robust_reserve": robust.reserves[0],
            "naive_ratio": naive_ratio, "robust_ratio": robust_ratio,
            "naive_bound": float(bound), "opt": opt, "fooled": bool(fooled)}
