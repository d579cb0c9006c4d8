"""Tests for the sweep harness (configs, cells, CSV) and the CLI front end.

CLI commands run in-process through main(argv) so exit codes and written
files can be checked without spawning subprocesses.
"""

import contextlib
import io
import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from robust_auctions.adversary import corrupt
from robust_auctions.cli import main
from robust_auctions.distributions import (DownShiftSpike, Exponential,
                                           ProductDist, UpShift,
                                           parse_dist_spec)
from robust_auctions.harness import (
    RESULT_COLUMNS,
    ConfigError,
    ExperimentConfig,
    format_row,
    reproduce_counterexample1,
    run_cell,
    run_sweep,
    write_rows,
)
from robust_auctions.links import check_alpha, convex_envelope
from robust_auctions.myerson import Mechanism
from robust_auctions.pipeline import (population_robust_myerson,
                                      robust_empirical_myerson)
from robust_auctions.revenue import (opt_single, revenue_at_reserve,
                                     revenue_ratio_detail)

from _gen import per_cell_sweep, read_rows, time_limit


def _small_config(**overrides):
    base = dict(true_dists=["exp:1.0"], adversary="shift:down", kind="mhr",
                alphas=[0.0, 0.05], seeds=[1, 2], ms=[200, 400],
                delta=0.05, mc_draws=20_000)
    base.update(overrides)
    return ExperimentConfig(**base)


def test_result_columns_frozen():
    assert RESULT_COLUMNS == ("n", "kind", "adversary", "alpha", "m", "seed",
                              "ratio", "ci", "opt", "rev")


def test_config_validation_errors():
    cases = [
        (dict(true_dists=[]), "true_dists must be non-empty"),
        (dict(alphas=[]), "alphas must be non-empty"),
        (dict(alphas=[1.0]), r"alpha must lie in \[0, 1\)"),
        (dict(seeds=[]), "seeds must be non-empty"),
        (dict(ms=[0]), "^ms: m must be at least 1$"),
        (dict(kind="convex"), "kind must be one of"),
        (dict(delta=1.0), r"delta must lie in \(0, 1\)"),
        # the learner's confidence term ln(2 m n / delta) must be finite
        (dict(delta=5e-324), "delta 5e-324 is too small"),
        (dict(mc_draws=0), "^mc_draws: mc_draws must be at least 1$"),
        (dict(adversary="gremlin:1"), "unknown adversary"),
        (dict(adversary="shift:sideways"), "direction must be up or down"),
        (dict(adversary="tailspike:big"), "needs a numeric argument"),
        # a bad spike scale fails at load time, not once the sweep runs
        (dict(adversary="tailspike:-1"), "spike scale c must be positive"),
        (dict(adversary="tailspike:0"), "spike scale c must be positive"),
        (dict(adversary="tailspike:nan"), "spike scale c must be positive"),
        (dict(adversary="tailspike:inf"), "spike scale c must be positive"),
        (dict(true_dists=["exp:1:2"]), "distribution spec"),
        # a lower-bound adversary must fit its true distributions at load time
        (dict(true_dists=["appxC2:3:0.5:h"], adversary="regular-lb:nan"),
         r"beta must be in \(0, 1\)"),
        (dict(true_dists=["appxC2:3:0.5:h"], adversary="regular-lb:0.3"),
         "beta does not match"),
        (dict(true_dists=["appxC2:3:0.5:h"], adversary="mhr-lb:2"),
         r"beta must be in \(0, 1\)"),
        (dict(true_dists=["appxC2:3:0.5:h"], adversary="mhr-lb"),
         "needs a matching family member"),
        (dict(adversary="regular-lb:0.5"), "needs a matching family member"),
        # and its exact radius must fit every alpha but a zero one
        (dict(true_dists=["appxC1:2:0.4:l"], adversary="mhr-lb",
              alphas=[0.1]), "mhr-lb: family radius 0.2 exceeds budget 0.1"),
        (dict(true_dists=["appxC2:3:0.5:h"], adversary="regular-lb",
              alphas=[0.0, 0.05, 0.02]), "family radius 0.0285955 exceeds budget 0.02$"),
        # a value of the wrong type is named by its field
        (dict(alphas=[None]), "^alphas: "),
        (dict(seeds=[None]), "^seeds: "),
        # a seed must be a Philox key, as s and as the evaluation seed
        (dict(seeds=[0, -1]), r"^seeds: seed -1 is not in \[0, 2\*\*128\)"),
        (dict(seeds=[2 ** 128]), r"^seeds: seed \d+ is not in \[0, 2\*\*128\)"),
        (dict(seeds=[2 ** 128 - 1_000_007]),
         r"^seeds: seed \d+ plus the evaluation offset 1000007"),
        (dict(ms=["x"]), "^ms: "),
        (dict(delta="x"), "^delta: "),
        (dict(mc_draws=[1]), "^mc_draws: "),
    ]
    for overrides, match in cases:
        with pytest.raises(ConfigError, match=match):
            _small_config(**overrides)


def test_config_from_json(tmp_path):
    good = tmp_path / "cfg.json"
    good.write_text(json.dumps({
        "true_dists": ["exp:1.0"], "adversary": "tailspike:1.0",
        "kind": "mhr", "alphas": [0.05], "seeds": [0]}))
    cfg = ExperimentConfig.from_json(good)
    assert cfg.ms == [] and cfg.delta == 0.01

    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ConfigError, match="not valid JSON"):
        ExperimentConfig.from_json(bad)

    extra = tmp_path / "extra.json"
    extra.write_text(json.dumps({
        "true_dists": ["exp:1.0"], "adversary": "shift:up", "kind": "mhr",
        "alphas": [0.0], "seeds": [0], "typo_field": 1}))
    with pytest.raises(ConfigError, match="unknown config fields.*typo_field"):
        ExperimentConfig.from_json(extra)

    missing = tmp_path / "missing.json"
    missing.write_text(json.dumps({"true_dists": ["exp:1.0"]}))
    with pytest.raises(ConfigError, match="missing config fields"):
        ExperimentConfig.from_json(missing)


def test_sweep_deterministic_across_runs_and_workers(tmp_path):
    cfg = _small_config()
    rows1 = run_sweep(cfg, workers=1)
    rows1_again = run_sweep(cfg, workers=1)
    rows8 = run_sweep(cfg, workers=8)
    assert rows1 == rows1_again
    assert rows1 == rows8
    assert len(rows1) == 8
    keys = [(r["alpha"], r["m"], r["seed"]) for r in rows1]
    assert keys == sorted(keys)

    p1, p8 = tmp_path / "w1.csv", tmp_path / "w8.csv"
    write_rows(rows1, p1)
    write_rows(rows8, p8)
    assert p1.read_bytes() == p8.read_bytes()


def _counting(calls, name, fn):
    """fn, counting its calls in calls[name]."""
    def wrapped(*args, **kwargs):
        calls[name] += 1
        return fn(*args, **kwargs)
    return wrapped


def test_sweep_builds_seed_free_work_once(monkeypatch):
    """run_sweep corrupts each distinct alpha once (the KS self-checks run
    inside corrupt, once per corruption) and builds the truth mechanism
    once, whatever the number of seeds, sample sizes and workers."""
    import robust_auctions.harness as harness
    import robust_auctions.revenue as revenue

    calls = {"corrupt": 0, "truth": 0}
    monkeypatch.setattr(harness, "corrupt",
                        _counting(calls, "corrupt", corrupt))
    # revenue._benchmark builds it
    monkeypatch.setattr(revenue, "truth_mechanism",
                        _counting(calls, "truth", revenue.truth_mechanism))
    cfg = _small_config(true_dists=["exp:1.0", "exp:0.5"],
                        alphas=[0.0, 0.05, 0.05], seeds=[1, 2, 3])
    for workers in (1, 2):
        calls.update(corrupt=0, truth=0)
        rows = run_sweep(cfg, workers=workers)
        assert len(rows) == 18
        assert calls == {"corrupt": 2 * 2, "truth": 1}


# each config, and its Monte Carlo passes at 1, 2 and 8 workers
_SHARED_PASS_CONFIGS = {
    # 2 alphas x 2 sample sizes per seed, seed 3 twice: two cells a pass,
    # one at 8 workers, which have 8 distinct cells to share
    "grid": (dict(true_dists=["exp:1.0", "unif:0:2"], seeds=[3, 3, 4]),
             (4, 4, 8)),
    "one-bidder": (dict(), (0, 0, 0)),
    # population cells, two seeds, past a chunk edge
    "population": (dict(true_dists=["exp:1.0", "exp:0.5"], seeds=[5, 6],
                        ms=[], mc_draws=2 ** 20 + 1), (2, 2, 4)),
    # 3 x 3 = 9 cells of one seed, more than a pass holds
    "over-cap": (dict(true_dists=["exp:1.0", "exp:0.5"], kind="regular",
                      alphas=[0.0, 0.02, 0.05], seeds=[1], ms=[100, 200, 300],
                      mc_draws=3000), (5, 5, 5)),
}


@pytest.mark.parametrize("name", sorted(_SHARED_PASS_CONFIGS))
def test_sweep_equals_the_per_cell_reference(monkeypatch, name):
    """run_sweep's rows equal, bit for bit, those of each cell learning its
    own mechanism and taking its own pass (_gen.per_cell_sweep).  For n > 1
    it takes one Monte Carlo pass per distinct seed and batch of at most
    _PASS_CELLS distinct cells, and no fewer passes than workers while
    there are cells to spread; none for n = 1.  It builds one population
    mechanism per distinct alpha."""
    import robust_auctions.harness as harness
    import robust_auctions.revenue as revenue

    overrides, passes = _SHARED_PASS_CONFIGS[name]
    cfg = _small_config(**overrides)
    expected = per_cell_sweep(cfg)
    calls = {"pass": 0, "population": 0}
    monkeypatch.setattr(revenue, "rev_monte_carlo",
                        _counting(calls, "pass", revenue.rev_monte_carlo))
    monkeypatch.setattr(harness, "population_robust_myerson",
                        _counting(calls, "population",
                                  harness.population_robust_myerson))
    assert harness._PASS_CELLS == 2
    for workers, n_passes in zip((1, 2, 8), passes):
        calls.update({"pass": 0, "population": 0})
        rows = run_sweep(cfg, workers=workers)
        assert [format_row(r) for r in rows] == [format_row(r)
                                                 for r in expected]
        assert rows == expected
        assert calls == {"pass": n_passes,
                         "population": 0 if cfg.ms else len(set(cfg.alphas))}


def test_one_bidder_sweep_finds_opt_once(monkeypatch):
    """A one-bidder sweep computes the exact OPT of its truth once, whatever
    the number of cells and workers; it used to take one per cell."""
    import robust_auctions.revenue as revenue

    calls = {"opt": 0}
    monkeypatch.setattr(revenue, "opt_single",
                        _counting(calls, "opt", revenue.opt_single))
    cfg = _small_config()
    for workers in (1, 2, 8):
        calls.update(opt=0)
        assert len(run_sweep(cfg, workers=workers)) == 8
        assert calls == {"opt": 1}


@pytest.mark.parametrize("workers", [0, -3])
def test_sweep_rejects_fewer_than_one_worker(workers):
    """Zero or negative workers is a ConfigError; it used to run serially."""
    with pytest.raises(ConfigError, match="^workers must be at least 1$"):
        run_sweep(_small_config(), workers=workers)


def test_population_cells_use_eval_seed_offset():
    """A sweep with no sample sizes runs the population variant (m reported
    as 0) and evaluates on the seed displaced by the fixed offset."""
    cfg = ExperimentConfig(true_dists=["exp:1.0", "exp:1.0"],
                           adversary="shift:up", kind="mhr", alphas=[0.05],
                           seeds=[7], ms=[], mc_draws=20_000)
    [row] = run_sweep(cfg)
    assert row["m"] == 0 and row["seed"] == 7
    truths = cfg.dists()
    cell = run_cell(cfg, 0.05, None, 7,
                    [corrupt(d, "shift:up", 0.05) for d in truths])

    truths = [parse_dist_spec("exp:1.0")] * 2
    shaded = [corrupt(d, "shift:up", 0.05) for d in truths]
    mech = population_robust_myerson(ProductDist(shaded), [0.05, 0.05], "mhr")
    assert cell.to_dict() == mech.to_dict()
    ratio, ci, opt, rev = revenue_ratio_detail(mech, ProductDist(truths),
                                               20_000, 7 + 1_000_007)
    assert row["ratio"] == ratio
    assert row["ci"] == ci and row["opt"] == opt and row["rev"] == rev


def test_rows_csv_round_trip(tmp_path):
    rows = [{"n": 2, "kind": "mhr", "adversary": "tailspike:1.0",
             "alpha": 0.1, "m": 1000, "seed": 3,
             "ratio": 0.9871234567890123, "ci": 1e-07,
             "opt": 0.5123, "rev": 0.505},
            {"n": 1, "kind": "regular", "adversary": "none", "alpha": 0.0,
             "m": 0, "seed": 0, "ratio": 1.0, "ci": 0.0,
             "opt": np.exp(-1.0), "rev": np.exp(-1.0)}]
    path = tmp_path / "rows.csv"
    write_rows(rows, path)
    back = read_rows(path)
    assert back == rows
    assert format_row(rows[0]).startswith("2,mhr,tailspike:1.0,0.1,1000,3,")

    bad = tmp_path / "bad.csv"
    bad.write_text("a,b,c\n")
    with pytest.raises(ValueError, match="unexpected results header"):
        read_rows(bad)


def test_reproduce_cex1_fooled_and_not_fooled():
    """With a real budget the naive learner posts the spike price and earns
    the exact spike revenue 20 e^{-20}, while the robust one stays near the
    true optimum; with a negligible budget nobody is fooled."""
    r = reproduce_counterexample1(0.05, 1.0, 20_000, seed=3)
    assert r["fooled"] is True
    assert r["naive_reserve"] == r["spike_x"] == 20.0
    np.testing.assert_allclose(r["naive_ratio"],
                               20 * np.exp(-20.0) / np.exp(-1.0), rtol=1e-6)
    assert r["robust_ratio"] >= 0.95
    assert r["robust_reserve"] < 2.0

    r2 = reproduce_counterexample1(1e-4, 1.0, 20_000, seed=3)
    assert r2["fooled"] is False
    assert r2["naive_ratio"] >= 0.95
    assert r2["robust_ratio"] >= 0.95

    # the ratios are the exact posted revenues over the exact OPT, bit for bit
    truth = parse_dist_spec("exp:1.0")
    _, opt = opt_single(truth)
    for out in (r, r2):
        assert out["opt"] == opt
        for who in ("naive", "robust"):
            assert out[f"{who}_ratio"] == revenue_at_reserve(
                truth, out[f"{who}_reserve"]) / opt


def test_reproduce_cex1_memory_peak():
    """The naive and robust learners share one sorted empirical CDF and one
    shave: the traced peak of one op stays near 10.9 arrays of m floats
    (13.5 when each learner sorted and shaved on its own).  A small op runs
    first: the first call in a process allocates about 0.7 arrays of m more
    once, which is not the op's own memory."""
    m = 200_000
    reproduce_counterexample1(0.05, 20.0, 1_000, 1)
    tracemalloc.start()
    try:
        reproduce_counterexample1(0.05, 20.0, m, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 11.5 * 8 * m, peak / (8 * m)


def test_counts_are_whole_numbers(tmp_path, capsys):
    """Seeds, sample sizes and draw counts go through one whole-number rule
    (`_rng.check_int`): a fraction, a bool or a string is a ConfigError
    naming its field, where int() used to truncate or parse it.  numpy ints
    and whole floats such as 1e6 keep working."""
    cases = [(dict(seeds=[1.5]), "seeds"), (dict(seeds=[True]), "seeds"),
             (dict(seeds=["3"]), "seeds"), (dict(ms=[100.7]), "ms"),
             (dict(ms=["100"]), "ms"), (dict(ms=[True]), "ms"),
             (dict(mc_draws=2.5), "mc_draws"), (dict(mc_draws="7"), "mc_draws"),
             (dict(mc_draws=np.True_), "mc_draws")]
    for overrides, name in cases:
        with pytest.raises(ConfigError, match=f"^{name}: .*must be a whole number"):
            _small_config(**overrides)
    for m in (2000.7, True, "2000"):
        with pytest.raises(ConfigError, match="^m must be a whole number"):
            reproduce_counterexample1(0.05, 20.0, m, 0)
    cfg = _small_config(seeds=[np.int64(1), 2.0], ms=[np.int32(200), 4e2],
                        mc_draws=1e6)
    assert (cfg.seeds, cfg.ms, cfg.mc_draws) == ([1, 2], [200, 400], 10 ** 6)
    assert all(type(v) is int for v in [*cfg.seeds, *cfg.ms, cfg.mc_draws])
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({
        "true_dists": ["exp:1.0"], "adversary": "shift:up", "kind": "mhr",
        "alphas": [0.05], "seeds": [0], "ms": [100.7]}))
    capsys.readouterr()
    assert main(["sweep", "--config", str(config), "--out",
                 str(tmp_path / "out.csv")]) == 2
    err = capsys.readouterr().err
    assert err == "error: ms: m must be a whole number, not 100.7\n"


def test_one_alpha_rule_for_open_budgets(capsys):
    """The corruption wrappers and the tail-spike reproduction take alpha in
    (0, 1) from `links.check_alpha`, which gives every other budget
    [0, 1)."""
    for alpha in (0.0, -0.5, 1.0, np.nan, np.inf):
        for build in (lambda: check_alpha(alpha, open_at_0=True),
                      lambda: UpShift(Exponential(1.0), alpha),
                      lambda: DownShiftSpike(Exponential(1.0), alpha, 2.0),
                      lambda: reproduce_counterexample1(alpha, 1.0, 10, 0)):
            with pytest.raises(ValueError, match=r"^alpha must be in \(0, 1\)$"):
                build()
    assert check_alpha(0.0) == 0.0 and check_alpha(0.5, open_at_0=True) == 0.5
    assert main(["reproduce-cex1", "--alpha", "0", "--m", "10"]) == 2
    err = capsys.readouterr().err
    assert err == "error: alpha must be in (0, 1)\n"


def test_reproduce_cex1_validation():
    with pytest.raises(ConfigError, match=r"alpha must be in \(0, 1\)"):
        reproduce_counterexample1(0.0, 1.0, 100, 0)
    with pytest.raises(ConfigError, match="c must be positive"):
        reproduce_counterexample1(0.1, 0.0, 100, 0)
    for m in (0, -5):
        with pytest.raises(ConfigError, match="^m must be at least 1$"):
            reproduce_counterexample1(0.1, 1.0, m, 0)


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------


def test_cli_end_to_end_single_bidder(tmp_path, capsys):
    raw = tmp_path / "raw.csv"
    assert main(["gen", "--dist", "exp:1.0", "--m", "300", "--seed", "5",
                 "--out", str(raw)]) == 0
    lines = raw.read_text().splitlines()
    assert lines[0] == "bidder_1" and len(lines) == 301

    dist_json = tmp_path / "corrupted.json"
    assert main(["corrupt", "--adversary", "shift:down", "--alpha", "0.05",
                 "--in", "exp:1.0", "--out", str(dist_json)]) == 0

    samples = tmp_path / "samples.csv"
    assert main(["gen", "--dist", str(dist_json), "--m", "500", "--seed", "9",
                 "--out", str(samples)]) == 0

    mech_json = tmp_path / "mech.json"
    assert main(["learn", "--kind", "mhr", "--alpha", "0.05", "--samples",
                 str(samples), "--out", str(mech_json)]) == 0
    with open(mech_json) as fh:
        mech = Mechanism.from_dict(json.load(fh))
    assert mech.n == 1
    assert 0.0 < mech.reserves[0] < 3.0

    results = tmp_path / "res.csv"
    assert main(["eval", "--mech", str(mech_json), "--true", "exp:1.0",
                 "--draws", "1000", "--seed", "0",
                 "--out", str(results)]) == 0
    rows = read_rows(results)
    assert len(rows) == 1
    row = rows[0]
    assert row["n"] == 1 and row["kind"] == "mhr" and row["m"] == 500
    assert row["adversary"] == "none" and row["alpha"] == 0.05
    assert 0.5 <= row["ratio"] <= 1.0 + 1e-9
    out = capsys.readouterr().out
    assert ",".join(RESULT_COLUMNS) in out


def test_cli_learn_broadcasts_alpha_two_bidders(tmp_path):
    samples = tmp_path / "two.csv"
    assert main(["gen", "--dist", "exp:1.0,unif:0.0:2.0", "--m", "400",
                 "--seed", "2", "--out", str(samples)]) == 0
    assert samples.read_text().splitlines()[0] == "bidder_1,bidder_2"
    mech_json = tmp_path / "mech2.json"
    assert main(["learn", "--kind", "regular", "--alpha", "0.02",
                 "--samples", str(samples), "--out", str(mech_json)]) == 0
    with open(mech_json) as fh:
        mech = Mechanism.from_dict(json.load(fh))
    assert mech.n == 2 and mech.alpha == [0.02, 0.02]

    assert main(["learn", "--kind", "regular", "--alpha", "0.1,0.2,0.3",
                 "--samples", str(samples), "--out", str(mech_json)]) == 2


def test_cli_learn_rejects_rows_wider_than_the_header(tmp_path, capsys):
    samples = tmp_path / "wide.csv"
    samples.write_text("bidder_1\n1.0,2.0\n0.5,1.5\n")
    assert main(["learn", "--kind", "mhr", "--alpha", "0.05", "--samples",
                 str(samples), "--out", str(tmp_path / "m.json")]) == 2
    err = capsys.readouterr().err
    assert err == (f"error: {samples}: column count does not match "
                   "header\n"), err
    assert not (tmp_path / "m.json").exists()


def test_cli_eval_zero_draws_is_a_config_error(tmp_path, capsys):
    samples = tmp_path / "two.csv"
    assert main(["gen", "--dist", "exp:1.0,exp:1.0", "--m", "300",
                 "--seed", "1", "--out", str(samples)]) == 0
    mech_json = tmp_path / "mech.json"
    assert main(["learn", "--kind", "mhr", "--alpha", "0.0", "--samples",
                 str(samples), "--out", str(mech_json)]) == 0
    capsys.readouterr()
    assert main(["eval", "--mech", str(mech_json), "--true",
                 "exp:1.0,exp:1.0", "--draws", "0"]) == 2
    err = capsys.readouterr().err
    assert "n_draws must be at least 1" in err
    assert "Traceback" not in err


def test_cli_eval_reads_a_negative_zero_support_top(tmp_path, capsys):
    """A mechanism whose support top is -0.0 evaluates as the +0.0 one; it
    used to print two numpy warnings and exit 2."""
    link = {"type": "link_cdf", "kind": "regular", "knots": [[0.0, 1.0]]}
    rows = []
    for top in (-0.0, 0.0):
        mech_json = tmp_path / "mech.json"
        mech_json.write_text(json.dumps(
            {"kind": "regular", "bidders": [dict(link, support_top=top)]}))
        capsys.readouterr()
        assert main(["eval", "--mech", str(mech_json), "--true",
                     "exp:1.0"]) == 0
        out, err = capsys.readouterr()
        assert err == ""
        rows.append(out)
    assert rows[0] == rows[1]


def test_cli_no_envelope_round_trip(tmp_path, capsys):
    """The ablation posts the tail-spike location c / alpha = 20 as its
    price; its JSON loads as a plain Mechanism and eval reproduces the
    library's row."""
    dist_json = tmp_path / "spiked.json"
    assert main(["corrupt", "--adversary", "tailspike:1.0", "--alpha", "0.05",
                 "--in", "exp:1.0", "--out", str(dist_json)]) == 0
    samples = tmp_path / "samples.csv"
    assert main(["gen", "--dist", str(dist_json), "--m", "20000",
                 "--seed", "3", "--out", str(samples)]) == 0
    mech_json = tmp_path / "naive.json"
    assert main(["learn", "--kind", "mhr", "--alpha", "0.05", "--samples",
                 str(samples), "--no-envelope", "--out", str(mech_json)]) == 0
    with open(mech_json) as fh:
        mech = Mechanism.from_dict(json.load(fh))
    assert mech.reserves == [20.0]

    capsys.readouterr()
    assert main(["eval", "--mech", str(mech_json), "--true", "exp:1.0",
                 "--seed", "0"]) == 0
    line = capsys.readouterr().out.splitlines()[1]
    data = np.loadtxt(samples, delimiter=",", skiprows=1, ndmin=2)
    lib = robust_empirical_myerson([data[:, 0]], [0.05], 0.01, "mhr",
                                   with_envelope=False)
    assert lib.reserves == [20.0]
    ratio, ci, opt, rev = revenue_ratio_detail(
        lib, ProductDist([parse_dist_spec("exp:1.0")]), 10 ** 6, 0)
    assert line == format_row({"n": 1, "kind": "mhr", "adversary": "none",
                               "alpha": 0.05, "m": 20000, "seed": 0,
                               "ratio": ratio, "ci": ci, "opt": opt,
                               "rev": rev})


def test_cli_sweep_byte_identical(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({
        "true_dists": ["exp:1.0"], "adversary": "tailspike:1.0",
        "kind": "mhr", "alphas": [0.0, 0.05], "seeds": [1],
        "ms": [300], "delta": 0.05, "mc_draws": 10_000}))
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(["sweep", "--config", str(cfg_path), "--out", str(out1),
                 "--workers", "1"]) == 0
    assert main(["sweep", "--config", str(cfg_path), "--out", str(out2),
                 "--workers", "8"]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    rows = read_rows(out1)
    assert len(rows) == 2 and all(r["m"] == 300 for r in rows)


def test_cli_sweep_and_eval_at_a_large_value_scale(tmp_path):
    """An Exp(1e-10) truth puts the one-bidder OPT price near 1e10, where
    the float spacing passes the 1e-6 refinement stop: sweep and eval
    still end, exit 0 and write finite ratios."""
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({
        "true_dists": ["exp:1e-10"], "adversary": "shift:up", "kind": "mhr",
        "alphas": [0.0, 0.05], "seeds": [0], "ms": [500]}))
    swept, samples = tmp_path / "sweep.csv", tmp_path / "s.csv"
    mech, evaluated = tmp_path / "mech.json", tmp_path / "eval.csv"
    with time_limit(30):
        assert main(["sweep", "--config", str(cfg_path),
                     "--out", str(swept)]) == 0
        assert main(["gen", "--dist", "exp:1e-10", "--m", "500", "--seed",
                     "1", "--out", str(samples)]) == 0
        assert main(["learn", "--kind", "mhr", "--alpha", "0.05",
                     "--samples", str(samples), "--out", str(mech)]) == 0
        assert main(["eval", "--mech", str(mech), "--true", "exp:1e-10",
                     "--out", str(evaluated)]) == 0
    rows = read_rows(swept) + read_rows(evaluated)
    assert len(rows) == 3
    for row in rows:
        assert 0.0 < row["ratio"] <= 1.0 + 1e-9
        np.testing.assert_allclose(row["opt"], 1e10 / np.e, rtol=1e-9)


def test_cli_sweep_rejects_seeds_outside_the_philox_key_range(tmp_path,
                                                              capsys):
    for seed in (-1, 2 ** 128):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({
            "true_dists": ["exp:1.0"], "adversary": "shift:up",
            "kind": "mhr", "alphas": [0.0], "seeds": [seed]}))
        capsys.readouterr()
        assert main(["sweep", "--config", str(cfg_path),
                     "--out", str(tmp_path / "o.csv")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: seeds: ") and err.count("\n") == 1
        assert not (tmp_path / "o.csv").exists()


def test_cli_seed_flags_reject_keys_outside_the_philox_range(tmp_path,
                                                             capsys):
    """Every --seed is checked when argv is parsed.  A one-bidder eval draws
    nothing, so a bad seed used to run and land in its row."""
    mech = tmp_path / "m.json"
    one = population_robust_myerson(ProductDist([parse_dist_spec("exp:1.0")]),
                                     [0.05], "mhr")
    mech.write_text(json.dumps(one.to_dict()))
    out = tmp_path / "out"
    commands = [["eval", "--mech", str(mech), "--true", "exp:1.0",
                 "--out", str(out)],
                ["gen", "--dist", "exp:1.0", "--m", "5", "--out", str(out)],
                ["reproduce-cex1", "--m", "100", "--out", str(out)]]
    for argv in commands:
        for seed in (-1, 2 ** 128, 2 ** 130):
            capsys.readouterr()
            assert main(argv + ["--seed", str(seed)]) == 2, (argv, seed)
            err = capsys.readouterr().err
            assert "Traceback" not in err
            lines = [line for line in err.splitlines() if "error:" in line]
            assert len(lines) == 1, err
            assert lines[0].endswith(
                f"error: argument --seed: seed {seed} is not in [0, 2**128)")
            assert not out.exists()
    assert main(commands[0] + ["--seed", str(2 ** 128 - 1)]) == 0
    assert read_rows(out)[0]["seed"] == 2 ** 128 - 1


def test_cli_envelope_round_trip(tmp_path):
    rng = np.random.default_rng(5)
    xs = np.sort(rng.uniform(0.0, 10.0, size=40))
    xs = np.unique(xs)
    ys = rng.uniform(0.0, 5.0, size=xs.size)
    src = tmp_path / "pts.csv"
    with open(src, "w") as fh:
        fh.write("x,y\n")
        for x, y in zip(xs, ys):
            fh.write(f"{float(x)!r},{float(y)!r}\n")
    out = tmp_path / "env.csv"
    assert main(["envelope", "--in", str(src), "--out", str(out)]) == 0
    data = np.loadtxt(out, delimiter=",", skiprows=1, ndmin=2)
    env = convex_envelope(xs, ys)
    np.testing.assert_array_equal(data[:, 0], env.xs)
    np.testing.assert_array_equal(data[:, 1], env.ys)

    bad = tmp_path / "bad.csv"
    bad.write_text("u,v\n1.0,2.0\n")
    assert main(["envelope", "--in", str(bad), "--out", str(out)]) == 2
    # header only, or one column: was an IndexError traceback
    for text in ("x,y\n", "x,y\n1.0\n2.0\n"):
        bad.write_text(text)
        assert main(["envelope", "--in", str(bad), "--out", str(out)]) == 2


_LEARN = ["learn", "--kind", "mhr", "--alpha", "0.05", "--samples"]


@pytest.mark.parametrize("argv,text", [
    (_LEARN, "bidder_1\n"), (_LEARN, "bidder_1,bidder_2\n\n# none\n  \n"),
    (["envelope", "--in"], "x,y\n"), (["envelope", "--in"], "x,y\n# none\n\n")])
def test_cli_header_only_csv_is_one_error_line(tmp_path, capsys, argv, text):
    # loadtxt used to print a two-line "input contained no data" warning
    # ahead of the error line; under filterwarnings = error it would raise
    src = tmp_path / "in.csv"
    src.write_text(text)
    out = tmp_path / "out"
    assert main(argv + [str(src), "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error: {src}: no data rows\n"
    assert not out.exists()


@pytest.mark.parametrize("rows", ["0,1\n1,nan\n2,0.5\n3,2\n",
                                  "0,1\nnan,3\n2,0.5\n3,2\n",
                                  "0,1\n1,inf\n2,0.5\n3,2\n"])
def test_cli_envelope_rejects_non_finite_points(tmp_path, capsys, rows):
    # the NaN y case used to exit 0 with the hull (0,1),(3,2)
    src = tmp_path / "pts.csv"
    src.write_text("x,y\n" + rows)
    out = tmp_path / "env.csv"
    assert main(["envelope", "--in", str(src), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err == "error: vertices must be finite\n"
    assert not out.exists()


def test_cli_reproduce_cex1(tmp_path, capsys):
    report_path = tmp_path / "cex.json"
    assert main(["reproduce-cex1", "--alpha", "0.05", "--c", "1.0",
                 "--m", "20000", "--seed", "3", "--out", str(report_path)]) == 0
    with open(report_path) as fh:
        report = json.load(fh)
    assert report["fooled"] is True
    assert report["robust_ratio"] > report["naive_ratio"]
    assert json.loads(capsys.readouterr().out)["spike_x"] == 20.0


def test_cli_delta_with_infinite_confidence_term(tmp_path, capsys):
    """A delta so small that ln(2 m n / delta) is infinite exits 2 with one
    error line, from learn and from a sweep config alike; it used to post
    reserve 0 (learn, after a RuntimeWarning) or write ratio 0.0 (sweep)."""
    samples = tmp_path / "s.csv"
    assert main(["gen", "--dist", "exp:1.0", "--m", "1000", "--seed", "0",
                 "--out", str(samples)]) == 0
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "true_dists": ["exp:1.0"], "adversary": "shift:down", "kind": "mhr",
        "alphas": [0.05], "seeds": [0], "ms": [1000], "delta": 5e-324}))
    out = tmp_path / "out"
    for argv in (["learn", "--kind", "mhr", "--alpha", "0.05", "--delta",
                  "5e-324", "--samples", str(samples)],
                 ["sweep", "--config", str(cfg)]):
        capsys.readouterr()
        assert main(argv + ["--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            "error: delta 5e-324 is too small: ln(2 m n / delta) is not "
            "finite\n")
        assert not out.exists()


def test_cli_reproduce_cex1_check_failure_exits_3(monkeypatch, capsys):
    """A fooled naive learner that earned more than the spike ceiling (here
    every reserve is reported to earn the true optimum) is exit 3 with one
    line."""
    import robust_auctions.revenue as revenue

    # scalar prices only: opt_single prices arrays through the same name
    monkeypatch.setattr(revenue, "revenue_at_reserve",
                        lambda dist, r: revenue_at_reserve(
                            dist, 1.0 if np.ndim(r) == 0 else r))
    assert main(["reproduce-cex1", "--alpha", "0.05", "--c", "1.0",
                 "--m", "20000", "--seed", "3"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("check failed: naive ratio ")
    assert "exceeds the spike revenue ceiling" in captured.err
    assert captured.err.count("\n") == 1 and captured.err.endswith("\n")


@pytest.mark.parametrize("m", ["0", "-5"])
def test_cli_reproduce_cex1_rejects_empty_samples(capsys, m):
    assert main(["reproduce-cex1", "--m", m]) == 2
    assert capsys.readouterr().err == "error: m must be at least 1\n"


@pytest.mark.parametrize("workers", ["0", "-3"])
def test_cli_sweep_rejects_fewer_than_one_worker(tmp_path, capsys, workers):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "true_dists": ["exp:1.0"], "adversary": "shift:down", "kind": "mhr",
        "alphas": [0.05], "seeds": [0], "ms": [100], "mc_draws": 1000}))
    out = tmp_path / "out.csv"
    assert main(["sweep", "--config", str(cfg), "--out", str(out),
                 "--workers", workers]) == 2
    assert capsys.readouterr().err == "error: workers must be at least 1\n"
    assert not out.exists()


def test_cli_exit_codes(tmp_path, capsys):
    # 2: validation problems of any flavor
    assert main(["gen", "--dist", "bogus:1", "--m", "10", "--seed", "0",
                 "--out", str(tmp_path / "x.csv")]) == 2
    assert main(["learn"]) == 2  # argparse: missing required arguments
    # a header-only sample file, which learn would reject, is not written
    assert main(["gen", "--dist", "exp:1.0", "--m", "0", "--seed", "0",
                 "--out", str(tmp_path / "empty.csv")]) == 2
    assert not (tmp_path / "empty.csv").exists()
    bad_cfg = tmp_path / "cfg.json"
    bad_cfg.write_text("{not json")
    assert main(["sweep", "--config", str(bad_cfg),
                 "--out", str(tmp_path / "o.csv")]) == 2
    bad_samples = tmp_path / "s.csv"
    bad_samples.write_text("foo,bar\n1.0,2.0\n")
    assert main(["learn", "--kind", "mhr", "--alpha", "0.0", "--samples",
                 str(bad_samples), "--out", str(tmp_path / "m.json")]) == 2
    # 3: a generated corruption that cannot fit its KS budget
    assert main(["corrupt", "--adversary", "mhr-lb:0.4", "--alpha", "0.1",
                 "--in", "appxC1:2:0.4:l", "--out",
                 str(tmp_path / "c.json")]) == 3
    err = capsys.readouterr().err
    assert "check failed" in err


def test_cli_malformed_json_is_a_config_error(tmp_path, capsys):
    """Malformed distribution, mechanism and config JSON exits 2 with a
    one-line error, never a traceback."""
    def write(name, obj):
        path = tmp_path / name
        path.write_text(json.dumps(obj))
        return str(path)

    link = {"type": "link_cdf", "kind": "mhr", "knots": [[0.0, 0.0]],
            "support_top": 1.0}
    out = str(tmp_path / "out")
    cases = [
        (["corrupt", "--adversary", "shift:up", "--alpha", "0.1",
          "--in", write("exp.json", {"type": "exp"}), "--out", out],
         "missing field 'rate'"),
        (["gen", "--dist", write("knots.json", dict(link, knots=[1, 2])),
          "--m", "10", "--seed", "0", "--out", out], "field 'knots'"),
        (["eval", "--mech", write("list.json", [1, 2]), "--true", "exp:1.0"],
         "must be a JSON object"),
        (["eval", "--mech", write("nobidders.json", {"n": 1, "kind": "mhr"}),
          "--true", "exp:1.0"], "field 'bidders'"),
        (["eval", "--mech", write("notop.json", {
            "kind": "mhr", "bidders": [{k: v for k, v in link.items()
                                        if k != "support_top"}]}),
          "--true", "exp:1.0"], "missing field 'support_top'"),
        (["sweep", "--config", write("cfg.json", {
            "true_dists": [{"type": "exp"}], "adversary": "shift:up",
            "kind": "mhr", "alphas": [0.0], "seeds": [0]}), "--out", out],
         "missing field 'rate'"),
        (["sweep", "--config", write("cfglist.json", [1]), "--out", out],
         "config must be a JSON object"),
        (["sweep", "--config", write("nullseed.json", {
            "true_dists": ["exp:1.0"], "adversary": "shift:up",
            "kind": "mhr", "alphas": [0.0], "seeds": [None]}), "--out", out],
         "error: seeds: "),
        (["eval", "--mech", write("mixed.json", {
            "kind": "regular", "bidders": [link]}), "--true", "exp:1.0",
          "--draws", "10"], "mechanism kind 'regular' but bidder 1 is 'mhr'"),
        (["eval", "--mech", write("nullm.json", {
            "kind": "mhr", "bidders": [link], "provenance": {"m": None}}),
          "--true", "exp:1.0", "--draws", "10"], "provenance.m"),
        # a sample count of 2.5 is an error, not m = 2 in the row
        (["eval", "--mech", write("halfm.json", {
            "kind": "mhr", "bidders": [link], "provenance": {"m": 2.5}}),
          "--true", "exp:1.0", "--draws", "10"],
         "provenance.m must be a whole number, not 2.5"),
        (["eval", "--mech", write("n3.json", {
            "n": 3, "kind": "mhr", "bidders": [link]}), "--true", "exp:1.0"],
         "field 'n' is 3"),
        (["eval", "--mech", write("reserve.json", {
            "kind": "mhr", "bidders": [dict(link, reserve=123.0)]}),
          "--true", "exp:1.0"], "bidder 1's field 'reserve' is 123.0"),
    ]
    for argv, match in cases:
        capsys.readouterr()
        assert main(argv) == 2, argv
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert err.startswith("error: ") and err.count("\n") == 1, err
        assert match in err, err


def test_config_accepts_lb_adversary_without_beta():
    cfg = _small_config(true_dists=["appxC1:10:0.1:l"], adversary="mhr-lb",
                        alphas=[0.25])
    assert cfg.adversary == "mhr-lb"
    _small_config(true_dists=["appxC2:3:0.5:h"], adversary="regular-lb:0.5")


_BAD_NUMS = ["nan", "inf", "-inf", "-1", "1e308", "x", ""]
_BAD_SPECS = ([f"{f}:{a}" for f in ("exp", "point") for a in _BAD_NUMS]
              + [f"{f}:{a}:{b}" for f in ("unif", "eqrev")
                 for a, b in (("nan", "5"), ("0", "inf"), ("1", "nan"),
                              ("-1", "0"))]
              + ["appxC2:2:nan:b", "appxC1:0:0.1:h", "bogus:1", "exp", ""])
_LINK = {"type": "link_cdf", "kind": "mhr", "knots": [[0.0, 0.0], [2.0, 2.0]],
         "support_top": 2.0}
_CONFIG = {"true_dists": ["exp:1.0", "unif:0:2"], "adversary": "shift:up",
           "kind": "mhr", "alphas": [0.05], "seeds": [0], "ms": [200],
           "mc_draws": 500}
_FILES = {
    "empty.csv": "",
    "bidders_header.csv": "bidder_1\n",
    "xy_header.csv": "x,y\n",
    "nan_points.csv": "x,y\n0,1\n1,nan\n2,0.5\n3,2\n",
    "points.csv": "x,y\n0,1\n1,3\n2,0.5\n3,2\n",
    "samples.csv": "bidder_1\n" + "".join(f"{v!r}\n" for v in
                                          np.linspace(0.1, 3.0, 50).tolist()),
    "nan_samples.csv": "bidder_1\n0.5\nnan\n1.5\n",
    "two_samples.csv": "bidder_1,bidder_2\n0.5,1.0\n1.5,0.2\n1.0,2.0\n",
    "bad.json": "{not json",
    "dist.json": json.dumps({"type": "exp", "rate": 1.0}),
    "nan_dist.json": json.dumps({"type": "exp", "rate": float("nan")}),
    "mech.json": json.dumps({"kind": "mhr", "bidders": [_LINK],
                             "provenance": {"m": 10}}),
    "nan_mech.json": json.dumps({"kind": "mhr", "bidders": [
        dict(_LINK, knots=[[0.0, 0.0], [float("nan"), 2.0]])]}),
    "config.json": json.dumps(_CONFIG),
    "nan_config.json": json.dumps(dict(_CONFIG, alphas=[float("nan")])),
    "inf_config.json": json.dumps(dict(_CONFIG, true_dists=["exp:inf"])),
}
_JUNK = ["empty.csv", "bad.json", "absent.csv"]
# per subcommand: flag -> (good values, bad values); names ending in .csv or
# .json are files.  Counts stay at or below 10^3.
_GOOD_SEEDS, _BAD_SEEDS = ["0", "7"], ["-3", "nan", "18446744073709551616"]
_COMMANDS = {
    "gen": {"--dist": (["exp:1.0", "unif:0:3,point:2", "eqrev:1:5",
                        "dist.json"],
                       _BAD_SPECS + ["nan_dist.json", "exp:1.0,"] + _JUNK),
            "--m": (["1", "7", "1000"], ["0", "-3", "nan", "1e3"]),
            "--seed": (_GOOD_SEEDS, _BAD_SEEDS)},
    "corrupt": {"--adversary": (["tailspike:20", "shift:up", "shift:down"],
                                ["tailspike:nan", "tailspike:inf",
                                 "shift:sideways", "mhr-lb", "regular-lb:nan"]),
                "--alpha": (["0.05", "0", "0.3"], _BAD_NUMS + ["1"]),
                "--in": (["exp:1.0", "unif:0:2", "dist.json"],
                         _BAD_SPECS + ["nan_dist.json"] + _JUNK)},
    "learn": {"--kind": (["mhr", "regular"], ["neither"]),
              "--alpha": (["0.05", "0"], _BAD_NUMS + ["0.05,0.1,0.2"]),
              "--delta": (["0.01", "0.5"], _BAD_NUMS + ["0", "1"]),
              "--samples": (["samples.csv", "two_samples.csv"],
                            ["bidders_header.csv", "nan_samples.csv",
                             "xy_header.csv"] + _JUNK)},
    "eval": {"--mech": (["mech.json"], ["nan_mech.json", "dist.json"] + _JUNK),
             "--true": (["exp:1.0", "unif:0:2", "dist.json"],
                        _BAD_SPECS + ["exp:1.0,exp:1.0"] + _JUNK),
             "--draws": (["1", "1000"], ["0", "-3", "nan"]),
             "--seed": (_GOOD_SEEDS, _BAD_SEEDS)},
    "sweep": {"--config": (["config.json"], ["nan_config.json",
                                             "inf_config.json"] + _JUNK),
              "--workers": (["1", "2"], ["-1", "0", "x"])},
    "envelope": {"--in": (["points.csv"], ["xy_header.csv", "nan_points.csv",
                                           "samples.csv"] + _JUNK)},
    "reproduce-cex1": {"--alpha": (["0.05", "0.2"], _BAD_NUMS + ["0", "1"]),
                       "--c": (["20", "1"], _BAD_NUMS + ["0"]),
                       "--m": (["100", "1000"], ["0", "-5", "nan"]),
                       "--seed": (_GOOD_SEEDS, _BAD_SEEDS)},
}


@st.composite
def _argv(draw, root):
    """A command line with at most one bad value and perhaps one lost token,
    writing only under `root`."""
    cmd = draw(st.sampled_from(sorted(_COMMANDS)))
    flags = _COMMANDS[cmd]
    bad = draw(st.sampled_from([None, None, *flags]))
    argv = [cmd]
    for flag, (good, wrong) in flags.items():
        value = draw(st.sampled_from(wrong if flag == bad else good))
        if value.endswith((".csv", ".json")):
            value = str(root / value)
        argv += [flag, value]
    if cmd == "learn" and draw(st.booleans()):
        argv.append("--no-envelope")
    argv += ["--out", str(root / "out")]
    if draw(st.integers(0, 3)) == 0:
        del argv[draw(st.integers(1, len(argv) - 1))]
    return argv


def test_cli_argv_fuzz_exits_0_2_or_3(tmp_path_factory):
    """main() returns 0, 2 or 3 on any command line and never raises:
    numeric specs with nan/inf, empty and header-only CSVs, NaN points,
    NaN JSON fields, missing values and unknown choices."""
    root = tmp_path_factory.mktemp("argv_fuzz")
    for name, text in _FILES.items():
        (root / name).write_text(text)

    @settings(deadline=None, max_examples=150, database=None)
    @given(_argv(root))
    def run(argv):
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            code = main(argv)
        assert code in (0, 2, 3), (argv, code, sink.getvalue())

    run()
