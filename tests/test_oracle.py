import itertools
import json
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from divmatch.instance import parse_instance, build_combination_index
from divmatch.objective import (assignment_from_matrix,
                                matrix_from_assignment, objective)
from divmatch.oracle import BudgetExceededError, best_split, \
    enumerate_optimal, least_split_count, split_count
from helpers import (brute_force_optima, random_feasible_assignment,
                     random_feasible_matrix, random_small_instance)


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
                      matrix_from_assignment(inst, result.assignment)):
            assert objective(inst, state).objective == \
                result.optimal_objective


def test_optimum_lower_bounds_random_feasible_points():
    rng = random.Random(10)
    for seed in range(15):
        inst = random_small_instance(seed + 700, worker_fraction=0.0)
        index = build_combination_index(inst)
        result = enumerate_optimal(inst)
        for _ in range(100):
            w = random_feasible_matrix(inst, index, rng)
            assert objective(inst, w, index).objective >= \
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
    assert result.assignment == [2, 1]
    assert result.num_optima == 1
    assert [assignment_from_matrix(inst, w) for w in result.optima] == \
        [[2, 1]]


@pytest.mark.parametrize("worker_fraction", [0.0, 1.0])
def test_oracle_matches_brute_force_over_worker_maps(worker_fraction):
    for seed in range(100):
        inst = random_small_instance(seed + 1300, max_n=7,
                                     worker_fraction=worker_fraction)
        value, optima = brute_force_optima(inst)
        result = enumerate_optimal(inst, collect_optima=True)
        assert result.optimal_objective == value
        assert result.num_optima == len(optima)
        assert {tuple(map(tuple, w)) for w in result.optima} == optima


def _compositions(total, parts):
    if parts == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in _compositions(total - first, parts - 1):
            yield (first,) + rest


def _rows_share(inst, index, rows, cols, split):
    """The rows' share of the objective when row ``rows[r]`` holds
    ``split[r][p]`` workers of type ``cols[p]``, counted directly."""
    value = 0
    for r, i in enumerate(rows):
        if i == 0:
            continue
        counts = {}
        for p, j in enumerate(cols):
            value += inst.weights.lambda0 * index.costs[i][j] * split[r][p]
            for k, v in enumerate(index.columns[j]):
                counts[k, v] = counts.get((k, v), 0) + split[r][p]
        value += sum(inst.weights.lambdas[k] * m * m
                     for (k, _), m in counts.items())
    return value


def test_best_split_improves_exactly_when_a_better_split_exists():
    rng = random.Random(14)
    checked = improved = 0
    for seed in range(150):
        inst = random_small_instance(seed + 1500, max_n=8)
        index = build_combination_index(inst)
        w = random_feasible_matrix(inst, index, rng)
        size = min(inst.t + 1, rng.choice((2, 3)))
        rows = sorted(rng.sample(range(inst.t + 1), size))
        cols = [j for j in range(index.num_columns)
                if any(w[i][j] for i in rows)]
        if not cols:
            continue  # the rows hold no worker; nothing to split
        pooled = [sum(w[i][j] for i in rows) for j in cols]
        totals = [sum(w[i]) for i in rows]
        current = _rows_share(inst, index, rows, cols,
                              [[w[i][j] for j in cols] for i in rows])
        least = min(
            _rows_share(inst, index, rows, cols, split)
            for split in (list(zip(*per_col)) for per_col in
                          itertools.product(*(_compositions(u, size)
                                              for u in pooled)))
            if [sum(row) for row in split] == totals)
        value, split, _, _ = best_split(inst, index, rows, cols, pooled,
                                        totals, incumbent=current)
        assert (split is None) == (least >= current)
        if split is not None:
            assert value == least == _rows_share(inst, index, rows, cols,
                                                 split)
            assert [sum(row) for row in split] == totals
            assert [sum(col) for col in zip(*split)] == pooled
            improved += 1
        checked += 1
    assert checked >= 120 and improved >= 20


@given(st.lists(st.integers(0, 12), min_size=1, max_size=6),
       st.integers(1, 5))
def test_split_count_is_at_least_the_single_type_count(counts, rows):
    # The sweep skips a subset for budget from its row sizes alone: U
    # workers split among r rows in at least comb(U+r-1, r-1) ways, exactly
    # that many when they are all of one type.
    least = least_split_count(sum(counts), rows)
    assert split_count(counts, rows) >= least
    assert split_count([sum(counts)], rows) == least


def test_best_split_returns_the_first_minimal_split_in_search_order():
    # best_split places types in the order of ``cols``, each over the rows
    # in order, every row taking y = 0, 1, ... units: lexicographic order of
    # the per-type compositions. Its split must be the first minimal one in
    # that order, with and without an incumbent, also over the dummy row
    # and over a row that takes no worker; the solver's traces depend on it.
    rng = random.Random(23)
    kinds = {"dummy": 0, "empty": 0, "improved": 0, "kept": 0}
    for seed in range(120):
        inst = random_small_instance(seed + 2600, max_n=8, max_t=3)
        index = build_combination_index(inst)
        size = rng.randint(2, min(4, inst.t + 1))
        rows = sorted(rng.sample(range(inst.t + 1), size))
        cols = rng.sample(range(index.num_columns),
                          rng.randint(1, min(3, index.num_columns)))
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
        values = [_rows_share(inst, index, rows, cols, split)
                  for split in splits]
        least = min(values)
        optimal = [split for split, v in zip(splits, values) if v == least]
        kinds["dummy"] += rows[0] == 0
        kinds["empty"] += 0 in totals
        for incumbent in (None, rng.choice(values), least, least + 1):
            value, split, count, optima = best_split(
                inst, index, rows, cols, counts, totals,
                incumbent=incumbent, collect=True, cap=10_000)
            if incumbent is None:
                expected = (least, optimal[0], len(optimal), optimal)
            elif least < incumbent:
                expected = (least, optimal[0], 1, optimal[:1])
                kinds["improved"] += 1
            else:
                expected = (incumbent, None, 0, [])
                kinds["kept"] += 1
            assert (value, split, count, optima) == expected
            assert best_split(inst, index, rows, cols, counts, totals,
                              incumbent=incumbent)[:3] == expected[:3]
    assert min(kinds.values()) >= 20, kinds
