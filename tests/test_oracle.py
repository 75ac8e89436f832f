import gc
import itertools
import json
import random
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import divmatch
from divmatch import oracle
from divmatch.cli import solution_to_dict
from divmatch.instance import generate_reviewer_instance, parse_instance
from divmatch.objective import (assignment_from_matrix,
                                matrix_from_assignment, objective)
from divmatch.oracle import DEFAULT_BUDGET, BudgetExceededError, \
    _greedy_split, _unit_prices, best_split, enumerate_optimal, split_count
from divmatch.solver import solve
from helpers import (brute_force_optima, load_module,
                     random_feasible_assignment, random_feasible_matrix,
                     random_small_instance, reference_greedy_split)

DIGEST = Path(__file__).resolve().parent.parent / "tools" / "trace_digest.py"


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
    # The oracle joins per-team tables; its matrix and optima are still
    # those an index-order search finds first.
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
    # The last instance's costs spread over the teams; its four optima put
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
        rows = range(inst.t + 1)  # below an incumbent, the same optima
        assert best_split(inst, rows, range(inst.types.num_columns),
                          inst.types.multiplicities,
                          [inst.demand(i) for i in rows], incumbent=value + 1,
                          collect=True) == \
            (value, ordered[0], len(optima), ordered[:3])
        capped += len(optima) > 3
    assert capped >= 20 and len(optima) == 4


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
    # The greedy keeps each row's cheapest type, the first on ties, and
    # prices again only the row that took a unit and the rows whose
    # cheapest type ran out. The
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


def _sub_multisets(counts, size):
    """Every vector at most ``counts`` that sums to ``size``."""
    if not counts:
        yield from [()] if size == 0 else []
        return
    for y in range(min(counts[0], size) + 1):
        for tail in _sub_multisets(counts[1:], size - y):
            yield (y,) + tail


def _splits(counts, totals):
    """Every split of ``counts`` among rows of sizes ``totals``; the first
    row takes the rest."""
    if len(totals) == 1:
        yield [list(counts)]
        return
    for row in _sub_multisets(counts, totals[-1]):
        for head in _splits([u - y for u, y in zip(counts, row)],
                            totals[:-1]):
            yield head + [list(row)]


def _brute_split(inst, rows, cols, counts, totals):
    """The least share of the rows and their optimal splits, ordered by
    ``best_split``'s key: type by type, over every row but the last."""
    splits = list(_splits(counts, totals))
    values = [_rows_share(inst, rows, cols, split) for split in splits]
    least = min(values)
    return least, sorted(
        (split for split, v in zip(splits, values) if v == least),
        key=lambda w: [w[r][p] for p in range(len(cols))
                       for r in range(len(rows) - 1)])


def _expected_split(inst, rows, cols, counts, totals, incumbent):
    """``best_split``'s answer with ``collect``, by brute force: the optimal
    splits, or with an ``incumbent`` those strictly below it."""
    least, optimal = _brute_split(inst, rows, cols, counts, totals)
    if incumbent is not None and incumbent <= least:
        return incumbent, None, 0, []
    return least, optimal[0], len(optimal), optimal


@settings(max_examples=400, deadline=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from(("mixed", "singletons")),
       st.sampled_from((None, -1, 0, 1, "split")))
# Row 1 of this example, joined first, takes three workers: its floor is
# three units at first-unit price 1, from two types. Counted once per type
# it would be 1 + 1 + 7, and row 3's table, capped at the limit less that
# floor, would lose the optimal entries.
@example(seed=38, shape="mixed", offset=None)
# The dummy row in rows, idle; a real row of total 0; the dummy row open
# beside open real rows; an incumbent improved on by four optima; an
# incumbent at an optimum, one of six.
@example(seed=29, shape="mixed", offset=None)
@example(seed=54, shape="singletons", offset=None)
@example(seed=24, shape="singletons", offset=None)
@example(seed=22, shape="singletons", offset="split")
@example(seed=70, shape="singletons", offset="split")
# Within a row the last type takes the rest in place: here it cannot take
# it all (a row's left units exceed its count, so the earlier type's units
# start above 0), its leaf lands exactly on the cap and one above it.
@example(seed=19, shape="mixed", offset=None)
@example(seed=4, shape="singletons", offset=None)
@example(seed=9, shape="singletons", offset=None)
def test_best_split_matches_brute_force(seed, shape, offset):
    # The first row's candidates go straight into the join, each later
    # row's table is pruned against the limit, and a real rest row (the
    # dummy row if it takes workers, else the last row) is tabled beside
    # other tables and priced from its counts only beside the first row
    # alone. So the draws take rows with and without the dummy row, rows of
    # total 0, tabled rows of many single-worker types, types in any order
    # (ties go by it), ties (lambda_k = 0 and costs up to 2) and an
    # incumbent one below, at or one above the optimum or at the share of
    # any split.
    rng = random.Random(seed)
    singletons = shape == "singletons"
    inst = random_small_instance(seed, max_n=10 if singletons else 8,
                                 max_t=3, max_columns=6,
                                 max_cost=rng.choice((2, 9)),
                                 worker_fraction=float(singletons),
                                 lambda_choices=(0, 1, 2))
    types = inst.types
    size = rng.randint(2, min(4, inst.t + 1))
    rows = sorted(rng.sample(range(inst.t + 1), size))
    cols = rng.sample(range(types.num_columns), types.num_columns
                      if singletons else rng.randint(1, types.num_columns))
    counts = [1 if singletons else rng.randint(1, 3) for _ in cols]
    totals = [0] * size
    open_rows = rng.sample(range(size), rng.randint(1, size))
    for _ in range(sum(counts)):
        totals[rng.choice(open_rows)] += 1
    incumbent = None
    if offset == "split":
        incumbent = _rows_share(inst, rows, cols,
                                rng.choice(list(_splits(counts, totals))))
    elif offset is not None:
        incumbent = _brute_split(inst, rows, cols, counts, totals)[0] + offset
    expected = _expected_split(inst, rows, cols, counts, totals, incumbent)
    assert best_split(inst, rows, cols, counts, totals, incumbent=incumbent,
                      collect=True) == expected
    assert best_split(inst, rows, cols, counts, totals,
                      incumbent=incumbent) == (*expected[:3], None)


def test_best_split_skips_a_rest_over_the_limit():
    # Two real rows, so the last is the rest row, tabled up to its cap.
    # The greedy puts A in t2 at 0, then B in t1 at 2, so the limit is 2
    # and t2's cap is the limit less t1's floor (1): 1. t1 takes B (2) and
    # leaves A to t2 (0): 2. t1 takes A (1) and leaves B to t2, whose table
    # lacks B (10, over its cap), so that leaf is skipped.
    inst = make({
        "features": [{"name": "c", "values": ["A", "B"]}],
        "workers": [[0], [1]],
        "teams": [{"name": "t1", "demand": 1}, {"name": "t2", "demand": 1}],
        "costs": {"mode": "class", "u": [[1, 2], [0, 10]]},
        "lambda0": 1, "lambdas": [0]})
    rows, cols, counts, totals = [1, 2], [0, 1], [1, 1], [1, 1]
    assert best_split(inst, rows, cols, counts, totals, collect=True) == \
        (2, [[0, 1], [1, 0]], 1, [[[0, 1], [1, 0]]])


@pytest.mark.parametrize("t, n, demand, seed", [
    (1, 23, 3, 3), (1, 22, 4, 3), (1, 18, 6, 3), (2, 14, 2, 1),
    (2, 14, 3, 3)])
def test_oracle_matches_brute_force_at_the_budget_edge(t, n, demand, seed):
    # Per-worker instances whose candidate count is near the oracle's
    # budget: a team's table holds many sub-multisets of single workers.
    tool = load_module("trace_digest", DIGEST)
    inst = tool.edge_worker(divmatch, t, n, demand, seed)
    types = inst.types
    assert split_count(types.multiplicities, t + 1) > DEFAULT_BUDGET // 100
    rows = range(t + 1)
    totals = [inst.demand(i) for i in rows]
    least, optimal = _brute_split(inst, rows, range(types.num_columns),
                                  list(types.multiplicities), totals)
    result = enumerate_optimal(inst, collect_optima=True)
    assert (result.optimal_objective, result.matrix, result.num_optima,
            result.optima) == (least, optimal[0], len(optimal), optimal)


def test_oracle_stores_no_candidates_of_a_lone_team():
    # One team beside the dummy row: its candidates go straight into the
    # join and are never stored. Every split ties here, so no bound prunes
    # and all C(16, 8) = 12,870 are optima: stored as (value, packed)
    # pairs they would take about 1.5 MB.
    inst = load_module("trace_digest", DIGEST).edge_ties(divmatch, 16, 8)
    tracemalloc.start()
    try:
        result = enumerate_optimal(inst)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (result.optimal_objective, result.num_optima) == (0, 12_870)
    assert peak < 100_000


def test_the_verify_path_leaves_no_cyclic_garbage():
    # A verify pass makes thousands of oracle calls. A call that leaves a
    # reference cycle behind (a recursive closure that refers to itself)
    # makes work for the collector on every pass, so with the collector
    # off each call must leave nothing for it to free. The solve runs the
    # re-split sweep, which calls best_split with an incumbent.
    inst = generate_reviewer_instance(3, [4] * 5, "balanced", 4, seed=5)
    small, rows = EIGHT_VS_SIXTEEN, range(3)
    enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    garbage = {}
    try:
        enumerate_optimal(small)
        garbage["enumerate_optimal"] = gc.collect()
        enumerate_optimal(small, collect_optima=True)
        garbage["collect_optima"] = gc.collect()
        best_split(small, rows, range(2), [2, 2], [0, 2, 2], incumbent=17)
        garbage["incumbent"] = gc.collect()
        report = solve(inst)
        garbage["solve"] = gc.collect()
        solution_to_dict(inst, report)
        garbage["solution_to_dict"] = gc.collect()
    finally:
        if enabled:
            gc.enable()
    assert [r.source for r in report.trace] == ["cycle", "resplit"]
    assert garbage == dict.fromkeys(garbage, 0)
