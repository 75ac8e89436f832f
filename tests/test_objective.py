import json
import random

import pytest

from divmatch.instance import parse_instance
from divmatch.objective import (assignment_from_matrix,
                                check_assignment_matrix, count_tensor,
                                diversity_k, embed, exchange_gain,
                                matrix_from_assignment, objective,
                                total_utility)
from helpers import (random_feasible_assignment, random_feasible_matrix,
                     random_small_instance)


def make_instance(workers, demands, u, lambdas, lambda0=1, mode="class",
                  features=None):
    features = features or [
        {"name": "c", "values": ["A", "B"]},
        {"name": "g", "values": ["M", "F"]},
    ]
    return parse_instance(json.dumps({
        "features": features,
        "workers": workers,
        "teams": [{"name": f"t{i+1}", "demand": d}
                  for i, d in enumerate(demands)],
        "costs": {"mode": mode, "u": u},
        "lambda0": lambda0, "lambdas": lambdas}))


TWO_TEAMS = make_instance(
    workers=[[0, 0], [0, 0], [1, 1], [1, 1]],
    demands=[2, 2], u=[[0, 0], [0, 0]], lambdas=[1, 1])
BALANCED = [[0, 0], [1, 1], [1, 1]]
SEGREGATED = [[0, 0], [2, 0], [0, 2]]


def test_diversity_single_team():
    inst = make_instance([[0, 0], [0, 0], [1, 0]], [3],
                         [[0, 0]], [1, 1])
    c = count_tensor(inst, [[0, 0], [2, 1]])
    assert diversity_k(c, 0) == 5  # counts (2, 1) -> 4 + 1


def test_diversity_empty_teams():
    inst = make_instance([[0, 0], [1, 1]], [0], [[0, 0]], [1, 1])
    c = count_tensor(inst, [[1, 1], [0, 0]])
    assert diversity_k(c, 0) == 0
    assert diversity_k(c, 1) == 0


def test_diversity_two_segregated_teams():
    c = count_tensor(TWO_TEAMS, SEGREGATED)
    assert diversity_k(c, 0) == 8  # (2,0) and (0,2) -> 4 + 4


def test_diversity_feature_out_of_range():
    c = count_tensor(TWO_TEAMS, BALANCED)
    with pytest.raises(IndexError):
        diversity_k(c, 2)


def test_total_utility_zero_costs():
    assert total_utility(TWO_TEAMS, BALANCED) == 0
    assert total_utility(TWO_TEAMS, SEGREGATED) == 0


def test_total_utility_class_mode():
    inst = make_instance([[0, 0], [0, 0], [1, 1]], [3],
                         [[3, 5]], [1, 1])
    assert total_utility(inst, [[0, 0], [2, 1]]) == 11  # 2*3 + 1*5


def test_total_utility_worker_mode():
    inst = make_instance([[0, 0], [0, 1], [1, 0]], [3],
                         [[2, 2, 2]], [1, 1], mode="worker")
    assert total_utility(inst, matrix_from_assignment(inst, [1, 1, 1])) == 6


def test_total_utility_mode_mismatch():
    with pytest.raises(ValueError, match="matrix"):
        total_utility(TWO_TEAMS, [1, 1, 2, 2])


def test_objective_balanced_vs_segregated():
    assert objective(TWO_TEAMS, BALANCED).objective == 8
    assert objective(TWO_TEAMS, SEGREGATED).objective == 16


def test_objective_single_worker():
    inst = make_instance([[1, 0]], [1], [[4, 9]], [2, 3], lambda0=2)
    out = objective(inst, [[0], [1]])
    assert out.tu == 9
    assert out.diversity == (1, 1)
    assert out.objective == 2 * 9 + 2 + 3


def test_objective_dummy_only():
    inst = make_instance([[0, 0], [1, 1]], [0], [[7, 7]], [5, 5])
    out = objective(inst, [[1, 1], [0, 0]])
    assert out.objective == 0


def test_objective_rejects_bad_matrix():
    with pytest.raises(ValueError, match="row 1 sums"):
        objective(TWO_TEAMS, [[0, 0], [2, 1], [0, 1]])


@pytest.mark.parametrize("check, error, message", [
    (lambda: check_assignment_matrix(TWO_TEAMS, [[0, 0], [2], [0, 2]]),
     ValueError, "row 1 has 1 columns, expected 2"),
    (lambda: check_assignment_matrix(TWO_TEAMS, [[0, 0], [3, -1], [0, 2]]),
     ValueError, "negative entry in row 1"),
    (lambda: check_assignment_matrix(TWO_TEAMS, [[0, 0], [2, 0], [2, 0]]),
     ValueError, "column 0 sums to 4, expected 2"),
    # each of these breaks one rule and keeps the rest where it can: a
    # negative cell with every sum right, row sums off by one with the
    # column sums right, and column sums off by one with the row sums right
    (lambda: check_assignment_matrix(TWO_TEAMS, [[0, 0], [1, 1]]),
     ValueError, "matrix has 2 rows, expected 3"),
    (lambda: check_assignment_matrix(TWO_TEAMS, [[0, 0], [1, 1], [1]]),
     ValueError, "row 2 has 1 columns, expected 2"),
    (lambda: check_assignment_matrix(TWO_TEAMS, [[0, 0], [3, -1], [-1, 3]]),
     ValueError, "negative entry in row 1"),
    (lambda: check_assignment_matrix(TWO_TEAMS, [[0, 0], [2, 1], [0, 1]]),
     ValueError, "row 1 sums to 3, expected 2"),
    (lambda: check_assignment_matrix(TWO_TEAMS, [[0, 0], [1, 1], [0, 2]]),
     ValueError, "column 0 sums to 1, expected 2"),
    (lambda: embed(TWO_TEAMS, BALANCED, 2), IndexError,
     "feature index 2 out of range"),
    (lambda: embed(TWO_TEAMS, BALANCED, -1), IndexError,
     "feature index -1 out of range"),
], ids=["short-row", "negative-entry", "column-sum", "row-count",
        "last-row-short", "negative-cell-sums-kept", "row-sum-columns-kept",
        "column-sum-rows-kept", "embed-k2", "embed-k-1"])
def test_matrix_checks_reject_bad_input(check, error, message):
    with pytest.raises(error) as raised:
        check()
    assert str(raised.value) == message


def test_embed_merges_same_value_columns():
    # two countries x two genders, one worker per combination
    inst = make_instance([[0, 0], [0, 1], [1, 0], [1, 1]], [4],
                         [[0, 0]], [1, 1])
    w = [[0, 0, 0, 0], [1, 1, 1, 1]]
    by_gender = embed(inst, w, 1)
    assert by_gender == [[0, 0], [2, 2]]
    by_country = embed(inst, w, 0)
    assert by_country == [[0, 0], [2, 2]]


def test_embed_single_feature_is_identity():
    inst = make_instance([[0], [1]], [2], [[0, 0]], [1],
                         features=[{"name": "c", "values": ["A", "B"]}])
    w = [[0, 0], [1, 1]]
    assert embed(inst, w, 0) == w


def test_embed_shared_value_single_column():
    inst = make_instance([[0, 0], [1, 0]], [2], [[0, 0]], [1, 1])
    m = embed(inst, [[0, 0], [1, 1]], 1)
    assert m == [[0, 0], [2, 0]]


def test_exchange_gain_identity():
    assert exchange_gain(TWO_TEAMS, BALANCED, BALANCED) == 0


def test_exchange_gain_segregated_to_balanced():
    assert exchange_gain(TWO_TEAMS, SEGREGATED, BALANCED) == -8


def test_exchange_gain_matches_embedding_expansion():
    # Three teams; both combinations share the country, so the exchange
    # moving one (c,g2) worker team3 -> team1 and cycling a (c,g1) worker
    # team1 -> team2 -> team3 leaves country counts and costs untouched.
    # Its gain reduces to the gender terms of the two end teams.
    lam2 = 3
    inst = make_instance(
        workers=[[0, 0]] * 4 + [[0, 1]] * 2,
        demands=[2, 2, 2],
        u=[[4, 1], [2, 8], [6, 3]],
        lambdas=[2, lam2], lambda0=5)
    before = [[0, 0], [1, 1], [2, 0], [1, 1]]
    after = [[0, 0], [0, 2], [2, 0], [2, 0]]
    c = count_tensor(inst, before)
    c122, c121 = c[1][1][1], c[1][1][0]
    c322, c321 = c[3][1][1], c[3][1][0]
    expected = lam2 * ((c322 - 1) ** 2 - c322 ** 2
                       + (c122 + 1) ** 2 - c122 ** 2
                       + (c121 - 1) ** 2 - c121 ** 2
                       + (c321 + 1) ** 2 - c321 ** 2)
    assert exchange_gain(inst, before, after) == expected == 4 * lam2


def test_recomposition_property():
    rng = random.Random(0)
    for seed in range(40):
        inst = random_small_instance(seed, worker_fraction=0.0)
        w = random_feasible_matrix(inst, rng)
        out = objective(inst, w)
        c = count_tensor(inst, w)
        assert out.tu == total_utility(inst, w)
        assert out.diversity == tuple(
            diversity_k(c, k) for k in range(inst.schema.num_features))
        assert out.objective == inst.weights.lambda0 * out.tu + sum(
            lam * d for lam, d in zip(inst.weights.lambdas, out.diversity))


def test_diversity_matches_embedding_squares():
    rng = random.Random(1)
    for seed in range(30):
        inst = random_small_instance(seed + 100, worker_fraction=0.0)
        w = random_feasible_matrix(inst, rng)
        c = count_tensor(inst, w)
        for k in range(inst.schema.num_features):
            m = embed(inst, w, k)
            assert diversity_k(c, k) == sum(
                x * x for row in m[1:] for x in row)


def test_exchange_gain_antisymmetric():
    rng = random.Random(2)
    for seed in range(30):
        inst = random_small_instance(seed + 200, worker_fraction=0.0)
        a = random_feasible_matrix(inst, rng)
        b = random_feasible_matrix(inst, rng)
        assert exchange_gain(inst, a, b) == \
            -exchange_gain(inst, b, a)


def test_diversity_bounds():
    rng = random.Random(3)
    for seed in range(30):
        inst = random_small_instance(seed + 300, worker_fraction=0.0)
        w = random_feasible_matrix(inst, rng)
        c = count_tensor(inst, w)
        for k in range(inst.schema.num_features):
            assert 0 <= diversity_k(c, k) <= inst.n ** 2


def test_objective_invariant_under_team_permutation():
    rng = random.Random(4)
    for seed in range(20):
        inst = random_small_instance(seed + 400, worker_fraction=0.0)
        w = random_feasible_matrix(inst, rng)
        base = objective(inst, w).objective
        perm = list(range(1, inst.t + 1))
        rng.shuffle(perm)
        doc = json.loads(json.dumps({
            "features": [{"name": f.name, "values": list(f.values)}
                         for f in inst.schema.features],
            "workers": [list(fv) for fv in inst.workers],
            "teams": [{"name": inst.teams[i - 1].name,
                       "demand": inst.teams[i - 1].demand} for i in perm],
            "costs": {"mode": "class",
                      "u": [list(inst.costs.table[i - 1]) for i in perm]},
            "lambda0": inst.weights.lambda0,
            "lambdas": list(inst.weights.lambdas)}))
        permuted = parse_instance(json.dumps(doc))
        w2 = [w[0]] + [w[i] for i in perm]
        assert objective(permuted, w2).objective == base


def test_matrix_assignment_roundtrip():
    rng = random.Random(5)
    for seed in range(20):
        inst = random_small_instance(seed + 500, worker_fraction=1.0)
        assign = random_feasible_assignment(inst, rng)
        w = matrix_from_assignment(inst, assign)
        again = assignment_from_matrix(inst, w)
        assert matrix_from_assignment(inst, again) == w
