"""The benchmark's traced run wraps package functions by name
(perfbench/spans.py TARGETS); every one of them must still exist, so that a
rename shows up here rather than as a broken `perfbench/run.py --trace 1`."""

import importlib
import importlib.util
import pathlib

import robust_auctions
from robust_auctions.distributions import ProductDist
from robust_auctions.harness import ExperimentConfig

SPANS = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _owner(owner_path):
    """The module, or the class for a method, that a target names."""
    mod_name, _, cls_name = owner_path.partition(".")
    module = importlib.import_module(f"{robust_auctions.__name__}.{mod_name}")
    return getattr(module, cls_name) if cls_name else module


def test_every_trace_target_resolves():
    spans = _load_spans()
    assert spans.PACKAGE == robust_auctions.__name__
    for name, owner_path, attr, _ in spans.TARGETS:
        # methods must be defined on the class itself, as Tracer.install
        # looks them up in the class __dict__
        found = vars(_owner(owner_path)).get(attr)
        assert callable(found), f"{name}: {owner_path}.{attr} is gone"
    # what perfbench/run.py calls besides the traced functions
    assert callable(vars(ProductDist).get("__iter__"))
    assert callable(ExperimentConfig.dists)


def test_tracer_installs_and_restores():
    spans = _load_spans()
    targets = [(_owner(path), attr) for _, path, attr, _ in spans.TARGETS]
    before = [getattr(owner, attr) for owner, attr in targets]
    tracer = spans.Tracer()
    tracer.install()
    try:
        wrapped = [getattr(owner, attr) for owner, attr in targets]
        assert all(w is not b for w, b in zip(wrapped, before))
    finally:
        tracer.restore()
    assert [getattr(owner, attr) for owner, attr in targets] == before
