"""Properties of the JSON codecs: `dist_from_dict` and `Mechanism.from_dict`
either return an object or raise ValueError, and valid objects survive a
to_dict -> from_dict -> to_dict round trip unchanged."""

import json
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from robust_auctions.distributions import (
    AppxC1,
    AppxC2,
    Distribution,
    DownShiftSpike,
    EqualRevenue,
    Exponential,
    PointMass,
    Uniform,
    UpShift,
    _TYPES,
    dist_from_dict,
)
from robust_auctions.links import KINDS
from robust_auctions.myerson import Mechanism

from _gen import random_link_cdf, random_step_cdf

FIELDS = {name: cls.FIELDS for name, cls in _TYPES.items()}
TYPE_NAMES = tuple(sorted(FIELDS))

seeds = st.integers(0, 2 ** 32 - 1)
json_leaves = (st.none() | st.booleans() | st.integers(-10 ** 30, 10 ** 30)
               | st.floats() | st.text(max_size=4)
               | st.sampled_from(["mhr", "regular", "l", "h", "b", "exp"]))
json_values = st.recursive(
    json_leaves,
    lambda kids: st.lists(kids, max_size=4)
    | st.dictionaries(st.text(max_size=4), kids, max_size=3),
    max_leaves=8)
numbers = st.floats(-1.0, 30.0) | st.integers(-2, 30)


# -- valid instances -----------------------------------------------------------

def _valid_leaves():
    rng = np.random.default_rng
    return st.one_of(
        st.builds(Exponential, st.floats(0.01, 100.0)),
        st.builds(lambda lo, w: Uniform(lo, lo + w), st.floats(0.0, 10.0),
                  st.floats(0.01, 10.0)),
        st.builds(PointMass, st.floats(0.0, 100.0)),
        st.builds(lambda lo, w: EqualRevenue(lo, lo + w), st.floats(1.0, 10.0),
                  st.floats(0.01, 100.0)),
        st.builds(AppxC1, st.integers(3, 50), st.floats(0.01, 0.99),
                  st.sampled_from("lh")),
        st.builds(AppxC2, st.integers(1, 50), st.floats(0.01, 0.99),
                  st.sampled_from("lh")),
        seeds.map(lambda s: random_step_cdf(rng(s))),
        st.tuples(seeds, st.sampled_from(KINDS)).map(
            lambda t: random_link_cdf(rng(t[0]), t[1])),
    )


valid_dists = st.recursive(
    _valid_leaves(),
    lambda base: st.builds(UpShift, base, st.floats(0.01, 0.5))
    | st.builds(DownShiftSpike, base, st.floats(0.01, 0.5),
                st.floats(0.1, 100.0)),
    max_leaves=3)


@st.composite
def valid_mechanisms(draw):
    kind = draw(st.sampled_from(KINDS))
    bidders = [random_link_cdf(np.random.default_rng(s), kind, from_zero=True)
               for s in draw(st.lists(seeds, min_size=1, max_size=3))]
    alpha = draw(st.none() | st.lists(st.floats(0.0, 0.5),
                                      min_size=len(bidders),
                                      max_size=len(bidders)))
    provenance = draw(st.dictionaries(st.sampled_from(["algorithm", "m"]),
                                      st.integers(0, 10 ** 6) | st.text(max_size=4),
                                      max_size=2))
    return Mechanism(kind, bidders, alpha=alpha, provenance=provenance)


def _json_round_trip(d):
    return json.loads(json.dumps(d))


@settings(deadline=None)
@given(valid_dists)
def test_dist_dict_round_trip_is_a_fixpoint(dist):
    d = _json_round_trip(dist.to_dict())
    assert json.dumps(dist_from_dict(d).to_dict()) == json.dumps(d)


@settings(deadline=None)
@given(valid_mechanisms())
def test_mechanism_dict_round_trip_is_a_fixpoint(mech):
    d = _json_round_trip(mech.to_dict())
    assert json.dumps(Mechanism.from_dict(d).to_dict()) == json.dumps(d)


def test_point_mass_round_trip_keeps_its_type():
    d = PointMass(2.5).to_dict()
    assert d == {"type": "point", "value": 2.5}
    back = dist_from_dict(_json_round_trip(d))
    assert type(back) is PointMass and back.to_dict() == d


def test_every_typed_distribution_is_in_the_codec_table():
    """Every concrete Distribution type of the package with a TYPE, at any
    depth of subclassing (PointMass is a StepCDF), loads from its dict."""
    typed, todo = {}, [Distribution]
    while todo:
        for cls in todo.pop().__subclasses__():
            todo.append(cls)
            if cls.TYPE and cls.__module__.startswith("robust_auctions"):
                typed[cls.TYPE] = cls
    assert typed["point"] is PointMass
    assert typed == _TYPES


# -- malformed input -----------------------------------------------------------

def _good_field(field, depth):
    if field == "base":
        return dist_dicts(depth - 1) if depth > 0 else json_values
    if field in ("values", "masses"):
        return st.lists(numbers, max_size=4)
    if field == "knots":
        return st.lists(st.lists(numbers, min_size=2, max_size=2), max_size=4)
    if field == "kind":
        return st.sampled_from(KINDS + ("convex",))
    if field == "which":
        return st.sampled_from(["l", "h", "b", "x"])
    if field in ("alpha", "beta"):
        return st.floats(0.0, 1.0) | numbers
    if field == "n":
        return st.integers(0, 20) | st.integers(2 ** 64, 10 ** 30)
    return numbers


@st.composite
def dist_dicts(draw, depth=2, names=TYPE_NAMES):
    """A valid dict with one field spoiled; a known type with every field of
    the right JSON shape; or anything: unknown types, fields missing, extra
    or of the wrong type."""
    branch = draw(st.integers(0, 3))
    if branch == 0:
        d = draw(valid_dists).to_dict()
        field = draw(st.sampled_from(sorted(d)))
        if draw(st.booleans()):
            del d[field]
        else:
            d[field] = draw(json_values | _good_field(field, depth))
        return d
    if branch == 1:
        name = draw(st.sampled_from(names))
        return {"type": name, **{f: draw(_good_field(f, depth))
                                 for f in FIELDS[name]}}
    name = draw(st.sampled_from(names) | json_leaves)
    d = {} if draw(st.integers(0, 9)) == 0 else {"type": name}
    for field in FIELDS.get(name, ("rate",)) if isinstance(name, str) else ():
        choice = draw(st.integers(0, 5))
        if choice == 0:
            continue
        d[field] = draw(json_values if choice == 1 else _good_field(field, depth))
    if draw(st.booleans()):
        d[draw(st.text(max_size=4))] = draw(json_values)
    return d


@st.composite
def mechanism_dicts(draw):
    if draw(st.integers(0, 9)) == 0:
        return draw(json_values)
    d = draw(st.dictionaries(st.sampled_from(["n", "extra"]), json_values,
                             max_size=2))
    links = st.tuples(seeds, st.sampled_from(KINDS)).map(
        lambda t: random_link_cdf(np.random.default_rng(t[0]), t[1]).to_dict())
    goods = {"kind": st.sampled_from(KINDS),
             "bidders": st.lists(links | dist_dicts(names=("link_cdf",)),
                                 max_size=3),
             "alpha": st.none() | st.lists(numbers, max_size=3),
             "provenance": st.none() | st.just({"algorithm": "population"})}
    for key, good in goods.items():
        choice = draw(st.integers(0, 9))
        if choice:
            d[key] = draw(json_values if choice == 1 else good)
    return d


@settings(deadline=None, max_examples=300)
@given(dist_dicts())
def test_dist_from_dict_returns_or_raises_value_error(d):
    try:
        dist_from_dict(d)
    except ValueError:
        pass


@settings(deadline=None, max_examples=300)
@given(mechanism_dicts())
def test_mechanism_from_dict_returns_or_raises_value_error(d):
    try:
        Mechanism.from_dict(d)
    except ValueError:
        pass


def test_mechanism_dict_errors_name_the_field():
    link = {"type": "link_cdf", "kind": "mhr", "knots": [[0.0, 0.0]],
            "support_top": 1.0}
    cases = [
        ([1, 2], "must be a JSON object"),
        ({"bidders": [link]}, "kind must be one of"),
        ({"n": 1, "kind": "mhr"}, "field 'bidders' must be a list"),
        ({"kind": "mhr", "bidders": link}, "field 'bidders' must be a list"),
        ({"kind": "mhr", "bidders": [link], "alpha": [None]},
         "field 'alpha' must be null or a list of numbers"),
        ({"kind": "mhr", "bidders": [link], "provenance": [1]},
         "field 'provenance' must be an object"),
        ({"kind": "mhr", "bidders": [dict(link, type="exp", rate=1.0)]},
         "bidders must be link_cdf entries"),
        ({"kind": "mhr", "bidders": [{"type": "link_cdf", "kind": "mhr",
                                      "knots": [[0.0, 0.0]]}]},
         "link_cdf: missing field 'support_top'"),
        # n and the reserves are derived: saved ones that disagree are errors
        ({"n": 3, "kind": "mhr", "bidders": [link]},
         "field 'n' is 3, but the curves give 1"),
        ({"kind": "mhr", "bidders": [link, dict(link, reserve=123.0)]},
         "bidder 2's field 'reserve' is 123.0, but the curves give 1.0"),
        ({"kind": "mhr", "bidders": [dict(link, reserve=None)]},
         "bidder 1's field 'reserve' is None"),
    ]
    for d, match in cases:
        with pytest.raises(ValueError, match=match):
            Mechanism.from_dict(d)


def test_parameters_past_the_float_range_do_not_warn():
    """Valid parameters whose derived values overflow: the IEEE limit is the
    answer, with no RuntimeWarning; a link CDF whose knot slope overflows is
    a ValueError.  The fuzz above draws such dicts only now and then."""
    exp = {"type": "exp", "rate": 1e17}
    link = {"type": "link_cdf", "kind": "mhr", "knots": [[0.0, 0.0], [0.5, 5e-324]],
            "support_top": 0.5}
    dists = [
        {"type": "upshift", "alpha": 0.01, "base": {"type": "exp", "rate": 5e-324}},
        {"type": "downshift_spike", "alpha": 1e-300, "spike_x": 1e300, "base": exp},
        {"type": "downshift_spike", "alpha": 1e-300, "spike_x": 0.5,
         "base": {"type": "unif", "lo": 5e-324, "hi": 1e-310}},
        {"type": "downshift_spike", "alpha": 1e-300, "spike_x": 1e300,
         "base": {"type": "appxC2", "n": 10 ** 17, "beta": 1e-300, "which": "l"}},
    ]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for d in dists:
            dist_from_dict(d)
        mech = Mechanism.from_dict({"kind": "mhr", "bidders": [link]})
        assert mech.reserves[0] == 0.5
        with pytest.raises(ValueError, match="knot slopes must be finite"):
            dist_from_dict(dict(link, knots=[[0.0, 0.0], [1e-300, 1e300]],
                                support_top=1e308))
