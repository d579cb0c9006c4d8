"""Command line front end.

Subcommands: gen, corrupt, learn, eval, sweep, envelope, reproduce-cex1.
Exit codes: 0 success, 2 configuration/validation error, 3 runtime assertion
failure (for example an adversary that does not fit its KS budget).

The CLI adds no computation of its own; every row it emits can be re-derived
by calling the library with the same arguments.
"""

from __future__ import annotations

import argparse
import itertools
import json
import sys
import time

import numpy as np

from .adversary import AdversaryError, corrupt
from .distributions import ProductDist, dist_from_dict, parse_dist_spec
from .harness import (CheckFailure, ConfigError, ExperimentConfig,
                      RESULT_COLUMNS, format_row, reproduce_counterexample1,
                      run_sweep, write_csv, write_rows)
from .links import convex_envelope
from .myerson import Mechanism
from .pipeline import robust_empirical_myerson
from .revenue import revenue_ratio_detail


def _load_dist(entry: str):
    """A distribution CLI argument: either a spec string or a JSON file."""
    if entry.endswith(".json"):
        with open(entry) as fh:
            return dist_from_dict(json.load(fh))
    return parse_dist_spec(entry)


def _load_dists(arg: str):
    return [_load_dist(part) for part in arg.split(",") if part]


def _read_csv(path, header_ok, expected: str):
    """(header, rows) of a numeric CSV file.  A file without a data row is a
    ConfigError here, before loadtxt would warn that it holds no data."""
    with open(path) as fh:
        header = fh.readline().strip().split(",")
        if not header_ok(header):
            raise ConfigError(f"{path}: expected {expected} header")
        # loadtxt skips blank and comment-only lines; so does this search
        first = next((line for line in fh if line.split("#", 1)[0].strip()),
                     None)
        if first is None:
            raise ConfigError(f"{path}: no data rows")
        data = np.loadtxt(itertools.chain([first], fh), delimiter=",", ndmin=2)
    return header, data


def _read_samples(path) -> np.ndarray:
    header, data = _read_csv(path, lambda h: h[0].startswith("bidder_"),
                             "a bidder_1,...")
    if data.shape[1] != len(header):
        raise ConfigError(f"{path}: column count does not match header")
    return data


def _cmd_gen(args) -> int:
    if args.m < 1:
        raise ConfigError("--m must be at least 1")
    dists = _load_dists(args.dist)
    profiles = ProductDist(dists).sample_profiles(args.m, args.seed)
    write_csv(args.out, [f"bidder_{j + 1}" for j in range(len(dists))],
              profiles)
    print(f"gen: wrote {profiles.shape[0]} x {profiles.shape[1]} samples "
          f"to {args.out}")
    return 0


def _cmd_corrupt(args) -> int:
    d = _load_dist(getattr(args, "in"))
    out = corrupt(d, args.adversary, args.alpha)
    with open(args.out, "w") as fh:
        json.dump(out.to_dict(), fh, indent=1)
    print(f"corrupt: {args.adversary} alpha={args.alpha} -> {args.out}")
    return 0


def _cmd_learn(args) -> int:
    data = _read_samples(args.samples)
    alphas = [float(a) for a in args.alpha.split(",")]
    if len(alphas) == 1 and data.shape[1] > 1:
        alphas = alphas * data.shape[1]
    if len(alphas) != data.shape[1]:
        raise ConfigError("need one alpha per bidder column")
    mech = robust_empirical_myerson([data[:, j] for j in range(data.shape[1])],
                                    alphas, args.delta, args.kind,
                                    with_envelope=not args.no_envelope)
    with open(args.out, "w") as fh:
        json.dump(mech.to_dict(), fh, indent=1)
    reserves = ", ".join(f"{r:.6g}" for r in mech.reserves)
    print(f"learn: m={data.shape[0]} reserves [{reserves}] -> {args.out}")
    return 0


def _cmd_eval(args) -> int:
    with open(args.mech) as fh:
        mech = Mechanism.from_dict(json.load(fh))
    m = (mech.provenance or {}).get("m", 0)
    try:
        m = int(m)
    except (TypeError, ValueError, OverflowError):
        raise ConfigError(f"{args.mech}: provenance.m must be an integer, "
                          f"got {m!r}")
    truths = _load_dists(args.true)
    ratio, ci, opt, rev = revenue_ratio_detail(mech, ProductDist(truths),
                                               args.draws, args.seed)
    alpha = (mech.alpha or [0.0])[0]
    row = {"n": mech.n, "kind": mech.kind, "adversary": "none",
           "alpha": float(alpha), "m": m, "seed": args.seed,
           "ratio": ratio, "ci": ci, "opt": opt, "rev": rev}
    if args.out:
        write_rows([row], args.out)
    print(",".join(RESULT_COLUMNS))
    print(format_row(row))
    return 0


def _cmd_sweep(args) -> int:
    cfg = ExperimentConfig.from_json(args.config)
    t0 = time.perf_counter()
    rows = run_sweep(cfg, workers=args.workers)
    elapsed = time.perf_counter() - t0
    write_rows(rows, args.out)
    print(f"sweep: {len(rows)} rows -> {args.out} in {elapsed:.2f}s")
    return 0


def _cmd_envelope(args) -> int:
    path = getattr(args, "in")
    _, pts = _read_csv(path, lambda h: h[:2] == ["x", "y"], "an x,y")
    if pts.shape[1] != 2:
        raise ConfigError(f"{path}: expected rows of two numbers, x and y")
    env = convex_envelope(pts[:, 0], pts[:, 1])
    write_csv(args.out, ["x", "y"], zip(env.xs, env.ys))
    print(f"envelope: {pts.shape[0]} points -> {env.xs.size} vertices "
          f"({args.out})")
    return 0


def _cmd_cex1(args) -> int:
    report = reproduce_counterexample1(args.alpha, args.c, args.m, args.seed)
    text = json.dumps(report, indent=1)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
    print(text)
    return 0


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="robust-auctions",
                                description=__doc__.splitlines()[0])
    sub = p.add_subparsers(dest="cmd", required=True)

    g = sub.add_parser("gen", help="sample valuation profiles to CSV")
    g.add_argument("--dist", required=True,
                   help="comma list of dist specs or dist.json paths")
    g.add_argument("--m", type=int, required=True)
    g.add_argument("--seed", type=int, required=True)
    g.add_argument("--out", required=True)
    g.set_defaults(fn=_cmd_gen)

    c = sub.add_parser("corrupt", help="apply a KS-ball adversary")
    c.add_argument("--adversary", required=True,
                   help="tailspike:C | mhr-lb[:BETA] | regular-lb[:BETA] | "
                        "shift:up | shift:down")
    c.add_argument("--alpha", type=float, required=True)
    c.add_argument("--in", required=True, help="dist spec or dist.json")
    c.add_argument("--out", required=True)
    c.set_defaults(fn=_cmd_corrupt)

    l = sub.add_parser("learn", help="robust empirical Myerson from samples")
    l.add_argument("--kind", choices=("mhr", "regular"), required=True)
    l.add_argument("--alpha", required=True, help="A or A1,...,An")
    l.add_argument("--delta", type=float, default=0.01)
    l.add_argument("--samples", required=True)
    l.add_argument("--no-envelope", action="store_true")
    l.add_argument("--out", required=True)
    l.set_defaults(fn=_cmd_learn)

    e = sub.add_parser("eval", help="revenue ratio of a mechanism vs truth")
    e.add_argument("--mech", required=True)
    e.add_argument("--true", required=True,
                   help="comma list of true dist specs or dist.json paths")
    e.add_argument("--draws", type=int, default=10 ** 6)
    e.add_argument("--seed", type=int, default=0)
    e.add_argument("--out", default=None)
    e.set_defaults(fn=_cmd_eval)

    s = sub.add_parser("sweep", help="run an experiment config")
    s.add_argument("--config", required=True)
    s.add_argument("--out", required=True)
    s.add_argument("--workers", type=int, default=1)
    s.set_defaults(fn=_cmd_sweep)

    v = sub.add_parser("envelope", help="lower convex envelope of x,y points")
    v.add_argument("--in", required=True)
    v.add_argument("--out", required=True)
    v.set_defaults(fn=_cmd_envelope)

    r = sub.add_parser("reproduce-cex1",
                       help="tail-spike counterexample, naive vs robust")
    r.add_argument("--alpha", type=float, default=0.05)
    r.add_argument("--c", type=float, default=20.0)
    r.add_argument("--m", type=int, default=10 ** 6)
    r.add_argument("--seed", type=int, default=0)
    r.add_argument("--out", default=None)
    r.set_defaults(fn=_cmd_cex1)
    return p


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.fn(args)
    except (ConfigError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (AdversaryError, CheckFailure) as exc:
        print(f"check failed: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
