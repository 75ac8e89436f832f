import itertools
import json
import random

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from divmatch import oracle
from divmatch.instance import parse_instance
from divmatch.objective import (assignment_from_matrix,
                                matrix_from_assignment, objective)
from divmatch.oracle import BudgetExceededError, _greedy_split, \
    _unit_prices, best_split, enumerate_optimal
from helpers import (brute_force_optima, random_feasible_assignment,
                     random_feasible_matrix, random_small_instance,
                     reference_greedy_split)


def make(doc):
    return parse_instance(json.dumps(doc))


EIGHT_VS_SIXTEEN = make({
    "features": [{"name": "c", "values": ["A", "B"]},
                 {"name": "g", "values": ["M", "F"]}],
    "workers": [[0, 0], [0, 0], [1, 1], [1, 1]],
    "teams": [{"name": "t1", "demand": 2}, {"name": "t2", "demand": 2}],
    "costs": {"mode": "class", "u": [[0, 0], [0, 0]]},
    "lambda0": 1, "lambdas": [1, 1]})


def test_known_instance_by_hand_enumeration():
    # with two columns of multiplicity two and demands (2, 2) there are
    # exactly three feasible matrices
    candidates = [
        [[0, 0], [2, 0], [0, 2]],
        [[0, 0], [1, 1], [1, 1]],
        [[0, 0], [0, 2], [2, 0]],
    ]
    values = [objective(EIGHT_VS_SIXTEEN, w).objective for w in candidates]
    assert sorted(values) == [8, 16, 16]
    result = enumerate_optimal(EIGHT_VS_SIXTEEN, collect_optima=True)
    assert result.optimal_objective == min(values) == 8
    assert result.num_optima == 1
    assert result.matrix == [[0, 0], [1, 1], [1, 1]]
    assert result.optima == [[[0, 0], [1, 1], [1, 1]]]


def test_zero_diversity_weights_reduce_to_min_cost():
    inst = make({
        "features": [{"name": "c", "values": ["A", "B"]}],
        "workers": [[0], [0], [1], [1]],
        "teams": [{"name": "t1", "demand": 2}, {"name": "t2", "demand": 1}],
        "costs": {"mode": "class", "u": [[4, 9], [1, 7]]},
        "lambda0": 1, "lambdas": [0]})
    # independent minimum: enumerate placements of the two columns directly
    best = None
    for a1, a2 in itertools.product(range(3), repeat=2):
        for b1, b2 in itertools.product(range(3), repeat=2):
            if a1 + a2 > 2 or b1 + b2 > 2:
                continue
            if a1 + b1 != 2 or a2 + b2 != 1:
                continue
            cost = 4 * a1 + 9 * b1 + 1 * a2 + 7 * b2
            best = cost if best is None else min(best, cost)
    result = enumerate_optimal(inst)
    assert result.optimal_objective == best


def test_single_team_full_demand_unique_matrix():
    inst = make({
        "features": [{"name": "c", "values": ["A", "B"]}],
        "workers": [[0], [0], [1]],
        "teams": [{"name": "t1", "demand": 3}],
        "costs": {"mode": "class", "u": [[2, 5]]},
        "lambda0": 1, "lambdas": [1]})
    result = enumerate_optimal(inst)
    assert result.num_optima == 1
    assert result.matrix == [[0, 0], [2, 1]]
    assert result.optimal_objective == objective(inst, result.matrix).objective


def test_budget_exceeded():
    inst = random_small_instance(5, worker_fraction=0.0)
    with pytest.raises(BudgetExceededError):
        enumerate_optimal(inst, budget=1)


def test_returned_matrix_attains_reported_optimum():
    for seed in range(30):
        inst = random_small_instance(seed + 600)
        result = enumerate_optimal(inst)
        for state in (result.matrix,
                      matrix_from_assignment(
                          inst, assignment_from_matrix(inst, result.matrix))):
            assert objective(inst, state).objective == \
                result.optimal_objective


def test_optimum_lower_bounds_random_feasible_points():
    rng = random.Random(10)
    for seed in range(15):
        inst = random_small_instance(seed + 700, worker_fraction=0.0)
        result = enumerate_optimal(inst)
        for _ in range(100):
            w = random_feasible_matrix(inst, rng)
            assert objective(inst, w).objective >= \
                result.optimal_objective


def test_optimum_lower_bounds_random_worker_assignments():
    rng = random.Random(11)
    for seed in range(10):
        inst = random_small_instance(seed + 800, worker_fraction=1.0)
        result = enumerate_optimal(inst)
        for _ in range(60):
            assign = random_feasible_assignment(inst, rng)
            w = matrix_from_assignment(inst, assign)
            assert objective(inst, w).objective >= \
                result.optimal_objective


def test_team_permutation_equivariance():
    rng = random.Random(12)
    for seed in range(12):
        inst = random_small_instance(seed + 950, worker_fraction=0.0)
        base = enumerate_optimal(inst).optimal_objective
        perm = list(range(inst.t))
        rng.shuffle(perm)
        doc = {
            "features": [{"name": f.name, "values": list(f.values)}
                         for f in inst.schema.features],
            "workers": [list(fv) for fv in inst.workers],
            "teams": [{"name": inst.teams[i].name,
                       "demand": inst.teams[i].demand} for i in perm],
            "costs": {"mode": "class",
                      "u": [list(inst.costs.table[i]) for i in perm]},
            "lambda0": inst.weights.lambda0,
            "lambdas": list(inst.weights.lambdas)}
        assert enumerate_optimal(make(doc)).optimal_objective == base


def test_value_relabel_equivariance():
    rng = random.Random(13)
    for seed in range(12):
        inst = random_small_instance(seed + 1000, worker_fraction=0.0)
        base = enumerate_optimal(inst).optimal_objective
        # permute the value order of the first feature, remapping workers
        # and the class cost columns accordingly
        width = inst.schema.value_count(0)
        perm = list(range(width))
        rng.shuffle(perm)
        inverse = [perm.index(v) for v in range(width)]
        doc = {
            "features": ([{"name": inst.schema.features[0].name,
                           "values": [inst.schema.features[0].values[v]
                                      for v in perm]}]
                         + [{"name": f.name, "values": list(f.values)}
                            for f in inst.schema.features[1:]]),
            "workers": [[inverse[fv[0]], *fv[1:]] for fv in inst.workers],
            "teams": [{"name": tm.name, "demand": tm.demand}
                      for tm in inst.teams],
            "costs": {"mode": "class",
                      "u": [[row[v] for v in perm]
                            for row in inst.costs.table]},
            "lambda0": inst.weights.lambda0,
            "lambdas": list(inst.weights.lambdas)}
        assert enumerate_optimal(make(doc)).optimal_objective == base


def test_worker_mode_general_costs_enumerates_maps():
    inst = make({
        "features": [{"name": "c", "values": ["A"]}],
        "workers": [[0], [0]],
        "teams": [{"name": "t1", "demand": 1}, {"name": "t2", "demand": 1}],
        "costs": {"mode": "worker", "u": [[5, 1], [2, 7]]},
        "lambda0": 1, "lambdas": [1]})
    result = enumerate_optimal(inst, collect_optima=True)
    # maps: (1,2) costs 5+7=12, (2,1) costs 2+1=3; diversity 2 either way
    assert result.optimal_objective == 5
    assert assignment_from_matrix(inst, result.matrix) == [2, 1]
    assert result.num_optima == 1
    assert [assignment_from_matrix(inst, w) for w in result.optima] == \
        [[2, 1]]


def _in_index_order(optima):
    """Type-count matrices in the order of an index-order search: the key
    takes each type in index order and lists its counts in rows 0..t-1."""
    return sorted(([list(row) for row in w] for w in optima),
                  key=lambda w: [w[i][j] for j in range(len(w[0]))
                                 for i in range(len(w) - 1)])


# The zero-weight inputs draw lambda_k = 0, which the oracle's counters
# and prices drop, as certify-small does.
@pytest.mark.parametrize("worker_fraction, lambda_choices", [
    pytest.param(0.0, (1, 1, 2, 3), id="0.0"),
    pytest.param(1.0, (1, 1, 2, 3), id="1.0"),
    pytest.param(0.0, (0, 1, 2), id="0.0-zero-weights"),
    pytest.param(1.0, (0, 1, 2), id="1.0-zero-weights")])
def test_oracle_matches_brute_force_over_worker_maps(worker_fraction,
                                                     lambda_choices):
    # The oracle searches the types in its own order; its matrix and
    # optima are still those an index-order search finds first.
    for seed in range(100):
        inst = random_small_instance(seed + 1300, max_n=7,
                                     worker_fraction=worker_fraction,
                                     lambda_choices=lambda_choices)
        value, optima = brute_force_optima(inst)
        result = enumerate_optimal(inst, collect_optima=True)
        assert result.optimal_objective == value
        assert result.num_optima == len(optima)
        assert {tuple(map(tuple, w)) for w in result.optima} == optima
        ordered = _in_index_order(optima)
        assert result.optima == ordered
        assert result.matrix == ordered[0]
        default = enumerate_optimal(inst)
        assert (default.matrix, default.num_optima,
                assignment_from_matrix(inst, default.matrix)) == \
            (result.matrix, result.num_optima,
             assignment_from_matrix(inst, result.matrix))


def test_oracle_keeps_the_first_optima_in_index_order_under_its_cap(
        monkeypatch):
    # Every lambda_k = 0 and equal costs: every feasible matrix is optimal.
    # The last instance's costs spread over the teams, so the oracle
    # searches its types in the order BF, AM, BM, AF; its four optima put
    # two A workers in t1 and two B workers in t2.
    monkeypatch.setattr(oracle, "OPTIMA_CAP", 3)
    instances = [random_small_instance(seed + 1900, max_n=7, max_cost=0,
                                       lambda_choices=(0,))
                 for seed in range(150)]
    instances.append(make({
        "features": [{"name": "c", "values": ["A", "B"]},
                     {"name": "g", "values": ["M", "F"]}],
        "workers": [[0, 0], [0, 0], [0, 1], [1, 0], [1, 1], [1, 1]],
        "teams": [{"name": "t1", "demand": 2}, {"name": "t2", "demand": 2}],
        "costs": {"mode": "class", "u": [[0, 5], [3, 0]]},
        "lambda0": 1, "lambdas": [0, 0]}))
    capped = 0
    for inst in instances:
        value, optima = brute_force_optima(inst)
        result = enumerate_optimal(inst, collect_optima=True)
        assert result.optimal_objective == value
        assert result.num_optima == len(optima)
        ordered = _in_index_order(optima)
        assert result.optima == ordered[:3]
        assert result.matrix == ordered[0]
        assert enumerate_optimal(inst).matrix == result.matrix
        capped += len(optima) > 3
    assert capped >= 20 and len(optima) == 4


def _compositions(total, parts):
    if parts == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in _compositions(total - first, parts - 1):
            yield (first,) + rest


def _rows_share(inst, rows, cols, split):
    """The rows' share of the objective when row ``rows[r]`` holds
    ``split[r][p]`` workers of type ``cols[p]``, counted directly."""
    types = inst.types
    value = 0
    for r, i in enumerate(rows):
        if i == 0:
            continue
        counts = {}
        for p, j in enumerate(cols):
            value += inst.weights.lambda0 * types.costs[i][j] * split[r][p]
            for k, v in enumerate(types.columns[j]):
                counts[k, v] = counts.get((k, v), 0) + split[r][p]
        value += sum(inst.weights.lambdas[k] * m * m
                     for (k, _), m in counts.items())
    return value


def test_best_split_improves_exactly_when_a_better_split_exists():
    rng = random.Random(14)
    checked = improved = 0
    for seed in range(150):
        inst = random_small_instance(seed + 1500, max_n=8)
        types = inst.types
        w = random_feasible_matrix(inst, rng)
        size = min(inst.t + 1, rng.choice((2, 3)))
        rows = sorted(rng.sample(range(inst.t + 1), size))
        cols = [j for j in range(types.num_columns)
                if any(w[i][j] for i in rows)]
        if not cols:
            continue  # the rows hold no worker; nothing to split
        pooled = [sum(w[i][j] for i in rows) for j in cols]
        totals = [sum(w[i]) for i in rows]
        current = _rows_share(inst, rows, cols,
                              [[w[i][j] for j in cols] for i in rows])
        least = min(
            _rows_share(inst, rows, cols, split)
            for split in (list(zip(*per_col)) for per_col in
                          itertools.product(*(_compositions(u, size)
                                              for u in pooled)))
            if [sum(row) for row in split] == totals)
        value, split, _, _ = best_split(inst, rows, cols, pooled,
                                        totals, incumbent=current)
        assert (split is None) == (least >= current)
        if split is not None:
            assert value == least == _rows_share(inst, rows, cols,
                                                 split)
            assert [sum(row) for row in split] == totals
            assert [sum(col) for col in zip(*split)] == pooled
            improved += 1
        checked += 1
    assert checked >= 120 and improved >= 20


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from((0.0, 1.0)),
       st.booleans())
def test_greedy_split_is_a_split_never_below_the_optimum(seed,
                                                         worker_fraction,
                                                         dummy):
    # best_split starts its limit at the greedy's value, so the greedy must
    # meet the margins and price its split exactly, or optima are lost.
    inst = random_small_instance(seed, max_n=8, max_t=3,
                                 worker_fraction=worker_fraction,
                                 lambda_choices=(0, 1, 2))
    assume(dummy or inst.t >= 2)
    rng = random.Random(seed)
    types = inst.types
    real = rng.sample(range(1, inst.t + 1),
                      rng.randint(1 if dummy else 2, inst.t))
    rows = sorted(real + [0] * dummy)
    cols = rng.sample(range(types.num_columns),
                      rng.randint(1, types.num_columns))
    counts = [rng.randint(1, 3) for _ in cols]
    totals = [0] * len(rows)
    for _ in range(sum(counts)):
        totals[rng.randrange(len(rows))] += 1
    value, split = _greedy_split(rows, *_unit_prices(inst, rows, cols),
                                 counts, totals)
    assert [sum(row) for row in split] == totals
    assert [sum(col) for col in zip(*split)] == counts
    assert value == _rows_share(inst, rows, cols, split)
    assert value >= best_split(inst, rows, cols, counts, totals)[0]


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from((0.0, 1.0)),
       st.sampled_from((0, 2, 9)), st.booleans())
def test_greedy_split_matches_the_plain_scan(seed, worker_fraction,
                                             max_cost, whole):
    # The greedy keeps each row's least (price, type) and prices again only
    # the row that took a unit and the rows whose least type ran out. The
    # plain scan prices every (type, row) pair for every unit, so both must
    # place every unit alike, ties included: over all rows and types, as
    # the oracle and the solver's start call it, or over some rows and
    # types in any order.
    inst = random_small_instance(seed, max_n=14, max_t=4, max_columns=6,
                                 max_cost=max_cost,
                                 worker_fraction=worker_fraction,
                                 lambda_choices=(0, 1, 2, 3))
    rng = random.Random(seed)
    types = inst.types
    if whole:
        rows = range(inst.t + 1)
        cols = rng.sample(range(types.num_columns), types.num_columns)
        counts = [types.multiplicities[j] for j in cols]
        totals = [inst.demand(i) for i in rows]
    else:
        rows = sorted(rng.sample(range(inst.t + 1),
                                 rng.randint(1, inst.t + 1)))
        cols = rng.sample(range(types.num_columns),
                          rng.randint(1, types.num_columns))
        counts = [rng.randint(1, 4) for _ in cols]
        totals = [0] * len(rows)
        for _ in range(sum(counts)):
            totals[rng.randrange(len(rows))] += 1
    prices = _unit_prices(inst, rows, cols)
    assert _greedy_split(rows, *prices, counts, totals) == \
        reference_greedy_split(rows, *prices, counts, totals)


def test_greedy_split_can_be_above_the_optimum():
    # The greedy takes the cheapest unit, A in t1 at 0, which leaves B to
    # t2 at 10; A in t2 and B in t1 cost 1 + 1.
    inst = make({
        "features": [{"name": "c", "values": ["A", "B"]}],
        "workers": [[0], [1]],
        "teams": [{"name": "t1", "demand": 1}, {"name": "t2", "demand": 1}],
        "costs": {"mode": "class", "u": [[0, 1], [1, 10]]},
        "lambda0": 1, "lambdas": [0]})
    rows, cols, counts, totals = range(3), [0, 1], [1, 1], [0, 1, 1]
    greedy = _greedy_split(rows, *_unit_prices(inst, rows, cols),
                           counts, totals)
    assert greedy == (10, [[0, 0], [1, 0], [0, 1]])
    assert best_split(inst, rows, cols, counts, totals)[:2] == \
        (2, [[0, 0], [0, 1], [1, 0]])
    assert enumerate_optimal(inst).optimal_objective == 2


def test_best_split_returns_the_first_minimal_split_in_search_order():
    # best_split places types in the order of ``cols``, each over the rows
    # in order, every row taking y = 0, 1, ... units: lexicographic order of
    # the per-type compositions. Its split must be the first minimal one in
    # that order, with and without an incumbent, also over the dummy row,
    # over a row that takes no worker and with both the dummy row and a
    # real row open, where the pruning bound counts the dummy row's spare
    # capacity; the solver's traces depend on it.
    rng = random.Random(23)
    kinds = {"dummy": 0, "empty": 0, "spare": 0, "improved": 0, "kept": 0}
    for seed in range(120):
        inst = random_small_instance(seed + 2600, max_n=8, max_t=3)
        types = inst.types
        size = rng.randint(2, min(4, inst.t + 1))
        rows = sorted(rng.sample(range(inst.t + 1), size))
        cols = rng.sample(range(types.num_columns),
                          rng.randint(1, min(3, types.num_columns)))
        counts = [rng.randint(1, 3) for _ in cols]
        totals = [0] * size
        open_rows = rng.sample(range(size), rng.randint(1, size))
        for _ in range(sum(counts)):
            totals[rng.choice(open_rows)] += 1
        splits = [
            [list(row) for row in zip(*per_type)]
            for per_type in itertools.product(
                *(_compositions(u, size) for u in counts))
            if [sum(row) for row in zip(*per_type)] == totals]
        values = [_rows_share(inst, rows, cols, split)
                  for split in splits]
        least = min(values)
        optimal = [split for split, v in zip(splits, values) if v == least]
        kinds["dummy"] += rows[0] == 0
        kinds["empty"] += 0 in totals
        kinds["spare"] += rows[0] == 0 and totals[0] > 0 and any(totals[1:])
        for incumbent in (None, rng.choice(values), least, least + 1):
            value, split, count, optima = best_split(
                inst, rows, cols, counts, totals,
                incumbent=incumbent, collect=True)
            if incumbent is None:
                expected = (least, optimal[0], len(optimal), optimal)
            elif least < incumbent:
                expected = (least, optimal[0], 1, optimal[:1])
                kinds["improved"] += 1
            else:
                expected = (incumbent, None, 0, [])
                kinds["kept"] += 1
            assert (value, split, count, optima) == expected
            assert best_split(inst, rows, cols, counts, totals,
                              incumbent=incumbent)[:3] == expected[:3]
    assert min(kinds.values()) >= 20, kinds
