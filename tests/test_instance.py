import dataclasses
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from divmatch.instance import (CostModel, Feature, FeatureSchema, Instance,
                               InvalidInstanceError, Team, TradeoffWeights,
                               build_combination_index, convert_cost_mode,
                               dump_instance, generate_reviewer_instance,
                               parse_instance)

MINIMAL = {
    "features": [{"name": "g", "values": ["M", "F"]}],
    "workers": [[0], [1]],
    "teams": [{"name": "t1", "demand": 2}],
    "costs": {"mode": "class", "u": [[0, 0]]},
    "lambda0": 1,
    "lambdas": [1],
}


def doc(**overrides):
    d = json.loads(json.dumps(MINIMAL))
    d.update(overrides)
    return json.dumps(d)


def test_parse_minimal():
    inst = parse_instance(doc())
    assert inst.n == 2
    assert inst.t == 1
    assert inst.teams[0].demand == 2


def test_demand_exceeding_workers_is_infeasible():
    with pytest.raises(InvalidInstanceError, match="demand exceeds workers"):
        parse_instance(doc(teams=[{"name": "t1", "demand": 3}]))


def test_wrong_cost_width_rejected():
    bad = doc(costs={"mode": "worker", "u": [[1, 2, 3]]})  # n is 2
    with pytest.raises(InvalidInstanceError, match="cost row"):
        parse_instance(bad)


def test_malformed_json_rejected():
    # the second is nested too deep for the JSON parser
    for text in ("{not json", "[" * 100000 + "]" * 100000):
        with pytest.raises(InvalidInstanceError, match="malformed JSON"):
            parse_instance(text)


@pytest.mark.parametrize("mutate,needle", [
    (dict(lambdas=[0]), None),  # zero feature weight is allowed
    (dict(lambdas=[-1]), "non-negative"),
    (dict(lambda0=0), "positive"),
    (dict(costs={"mode": "class", "u": [[-1, 0]]}), "negative cost"),
    (dict(costs={"mode": "class", "u": [[0.5, 0]]}), "integer"),
    (dict(workers=[[0], [2]]), "out of range"),
    (dict(workers=[[0, 1], [1, 0]]), "feature values"),
    (dict(features=[]), "at least one feature"),
    (dict(features=[{"name": "g", "values": []}]), "no values"),
    (dict(teams=[]), "at least one team"),
    (dict(teams=[{"name": "a", "demand": 1},
                 {"name": "a", "demand": 1}]), "unique"),
    (dict(costs={"mode": "class", "u": [[0, True]]}),
     "cost entry must be an integer, got True"),
    (dict(costs={"mode": "class", "u": [[1.5, 0]]}),
     r"cost entry must be an integer, got 1\.5"),
    (dict(costs={"mode": "class", "u": [[0, "3"]]}),
     "cost entry must be an integer, got '3'"),
    (dict(costs={"mode": "class", "u": [[0, -1]]}), "negative cost -1"),
    # a name or value is a JSON string, and a feature's values a list: none
    # is read through ``str`` or iterated as a string
    (dict(features=[{"name": "g", "values": "MF"}]),
     "feature values must be a list, got 'MF'"),
    (dict(features=[{"name": ["x"], "values": ["M", "F"]}]),
     r"feature name must be a string, got \['x'\]"),
    (dict(features=[{"name": 7, "values": ["M", "F"]}]),
     "feature name must be a string, got 7"),
    (dict(features=[{"name": "g", "values": ["M", 1]}]),
     "feature value must be a string, got 1"),
    (dict(teams=[{"name": 7, "demand": 2}]),
     "team name must be a string, got 7"),
    (dict(teams=[{"name": None, "demand": 2}]),
     "team name must be a string, got None"),
    (dict(workers=[]), "instance needs at least one worker"),
    (dict(costs={"mode": "class", "u": []}),
     r"cost table has 0 rows, expected one row per team \(1\)"),
    (dict(costs={"mode": "table", "u": [[0, 0]]}),
     "unknown cost mode 'table'"),
])
def test_validation(mutate, needle):
    if needle is None:
        parse_instance(doc(**mutate))
    else:
        with pytest.raises(InvalidInstanceError, match=needle):
            parse_instance(doc(**mutate))


def test_combination_index_groups_and_sorts():
    inst = parse_instance(json.dumps({
        "features": [{"name": "c", "values": ["A", "B"]},
                     {"name": "g", "values": ["M", "F"]}],
        "workers": [[0, 0], [0, 0], [1, 1]],
        "teams": [{"name": "t1", "demand": 3}],
        "costs": {"mode": "class", "u": [[0, 0]]},
        "lambda0": 1, "lambdas": [1, 1]}))
    idx = build_combination_index(inst)
    assert idx.columns == ((0, 0), (1, 1))
    assert idx.multiplicities == (2, 1)
    assert idx.worker_to_column == (0, 0, 1)


def test_combination_index_identical_workers():
    inst = parse_instance(doc(workers=[[0], [0], [0], [0]],
                              teams=[{"name": "t1", "demand": 4}]))
    idx = build_combination_index(inst)
    assert idx.num_columns == 1
    assert idx.multiplicities == (4,)


def test_combination_index_full_product():
    inst = parse_instance(json.dumps({
        "features": [{"name": "c", "values": ["A", "B"]},
                     {"name": "g", "values": ["M", "F"]}],
        "workers": [[0, 0], [0, 1], [1, 0], [1, 1]],
        "teams": [{"name": "t1", "demand": 4}],
        "costs": {"mode": "class", "u": [[0, 0]]},
        "lambda0": 1, "lambdas": [1, 1]}))
    idx = build_combination_index(inst)
    assert idx.num_columns == 4
    assert idx.multiplicities == (1, 1, 1, 1)
    assert sum(idx.multiplicities) == inst.n


def test_roundtrip_preserves_instance():
    inst = parse_instance(doc())
    again = parse_instance(dump_instance(inst))
    assert again == inst


@pytest.mark.parametrize("mode", ["class", "worker"])
def test_cached_types_change_no_identity(mode):
    # The types are read once and kept on the instance, outside its fields:
    # a read instance still equals and hashes as its JSON round trip, and
    # a replaced instance builds its own table.
    inst = convert_cost_mode(
        generate_reviewer_instance(3, [3, 2, 4], "random", 2, seed=5), mode)
    types = inst.types
    assert inst.types is types
    assert types == build_combination_index(inst)
    again = parse_instance(dump_instance(inst))
    assert again == inst and hash(again) == hash(inst)
    assert "types" not in vars(again)
    assert again.types == types
    assert again == inst and hash(again) == hash(inst)
    heavier = dataclasses.replace(inst, weights=TradeoffWeights(2, (3, 1)))
    assert "types" not in vars(heavier)
    assert heavier.types is not types
    assert heavier.types == types


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_roundtrip_random_instances(data):
    from helpers import random_small_instance
    seed = data.draw(st.integers(0, 10_000))
    inst = random_small_instance(seed)
    assert parse_instance(dump_instance(inst)) == inst


@pytest.mark.parametrize("mode", ["class", "worker"])
def test_dump_writes_one_row_per_line(mode):
    inst = convert_cost_mode(
        generate_reviewer_instance(3, [3, 2, 4], "random", 2, seed=5), mode)
    text = dump_instance(inst)
    assert parse_instance(text) == inst
    lines = text.splitlines()
    # the braces, four list heads and ends, lambda0 and lambdas
    assert len(lines) == 12 + inst.schema.num_features + inst.n + 2 * inst.t
    stripped = [line.strip().rstrip(",") for line in lines]
    doc = json.loads(text)
    for head, rows, end in [
            ('"features": [', doc["features"], "]"),
            ('"workers": [', doc["workers"], "]"),
            ('"teams": [', doc["teams"], "]"),
            (f'"costs": {{"mode": "{mode}", "u": [', doc["costs"]["u"],
             "]}")]:
        first = stripped.index(head) + 1
        assert stripped[first:first + len(rows)] == list(map(json.dumps, rows))
        assert stripped[first + len(rows)] == end


NAMES = st.lists(st.text(), min_size=1, max_size=3, unique=True)


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_roundtrip_escapes_any_names(data):
    # Quotes, backslashes, control characters and non-ASCII in every name.
    values = data.draw(st.lists(NAMES, min_size=1, max_size=3))
    names = data.draw(st.lists(st.text(), min_size=len(values),
                               max_size=len(values), unique=True))
    schema = FeatureSchema(tuple(Feature(name, tuple(vals))
                                 for name, vals in zip(names, values)))
    team_names = data.draw(NAMES)
    workers = tuple(
        tuple(data.draw(st.integers(0, len(vals) - 1)) for vals in values)
        for _ in range(len(team_names) + data.draw(st.integers(0, 2))))
    mode = data.draw(st.sampled_from(["class", "worker"]))
    width = len(values[0]) if mode == "class" else len(workers)
    cost = st.integers(0, 10**20)
    table = tuple(tuple(data.draw(cost) for _ in range(width))
                  for _ in team_names)
    inst = Instance(schema, workers,
                    tuple(Team(name, 1) for name in team_names),
                    CostModel(mode, table),
                    TradeoffWeights(data.draw(st.integers(1, 5)),
                                    tuple(data.draw(st.integers(0, 5))
                                          for _ in values)))
    assert parse_instance(dump_instance(inst)) == inst


@pytest.mark.parametrize("make, message", [
    (lambda: FeatureSchema((Feature("g", ("M", "F")), Feature("g", ("x",)))),
     "feature names must be unique"),
    (lambda: FeatureSchema((Feature("g", ("M", "F", "M")),)),
     "feature 'g' has duplicate values"),
    (lambda: Team("t1", -1), "team 't1' has negative demand"),
    (lambda: convert_cost_mode(parse_instance(doc()), "table"),
     "unknown cost mode 'table'"),
    (lambda: generate_reviewer_instance(0, [4], "balanced", 1),
     "papers and demand_per_paper must be positive"),
    (lambda: generate_reviewer_instance(1, [], "balanced", 1),
     "cluster sizes must be positive"),
    (lambda: generate_reviewer_instance(1, [4, 0], "balanced", 1),
     "cluster sizes must be positive"),
    (lambda: generate_reviewer_instance(1, [4], "mixed", 1),
     "unknown gender option 'mixed'"),
], ids=["feature-names", "feature-values", "team-demand", "cost-mode",
        "papers", "no-clusters", "empty-cluster", "genders"])
def test_constructors_reject_bad_arguments(make, message):
    with pytest.raises(InvalidInstanceError) as raised:
        make()
    assert str(raised.value) == message


def test_generator_shape():
    inst = generate_reviewer_instance(papers=3,
                                      reviewers_per_cluster=[4] * 5,
                                      demand_per_paper=4, seed=7)
    assert inst.t == 3
    assert inst.n == 20
    assert all(tm.demand == 4 for tm in inst.teams)
    genders = [fv[1] for fv in inst.workers]
    assert genders.count(0) == genders.count(1) == 10


def test_generator_infeasible():
    with pytest.raises(InvalidInstanceError, match="demand exceeds workers"):
        generate_reviewer_instance(papers=6, reviewers_per_cluster=[4] * 5,
                                   demand_per_paper=4, seed=1)


def test_generator_deterministic():
    a = generate_reviewer_instance(3, [4] * 5, "balanced", 4, seed=7)
    b = generate_reviewer_instance(3, [4] * 5, "balanced", 4, seed=7)
    assert dump_instance(a) == dump_instance(b)
    c = generate_reviewer_instance(3, [4] * 5, "balanced", 4, seed=8)
    assert dump_instance(a) != dump_instance(c)


def test_generator_output_validates():
    inst = generate_reviewer_instance(2, [3, 3], "random", 2, seed=11)
    assert parse_instance(dump_instance(inst)) == inst


def test_convert_cost_mode_roundtrip():
    # class -> worker only: the types make worker -> class unnecessary
    inst = parse_instance(doc(costs={"mode": "class", "u": [[2, 5]]}))
    as_worker = convert_cost_mode(inst, "worker")
    assert as_worker.costs.table == ((2, 5),)  # workers are one M, one F
    assert convert_cost_mode(as_worker, "worker") is as_worker
    with pytest.raises(InvalidInstanceError) as raised:
        convert_cost_mode(as_worker, "class")
    assert str(raised.value) == \
        "worker costs are not converted to class costs"
