"""Release gate: one test per acceptance criterion, each printing a PASS line
with its measured numbers (run with -s to see them). Tolerances are exact
integer equalities unless stated otherwise.
"""

import dataclasses
import random
import time

from divmatch.auxgraph import apply_and_update, build_aux_graph
from divmatch.instance import TradeoffWeights, generate_reviewer_instance
from divmatch.negcycle import bellman_ford_detect, goldberg_radzik_detect
from divmatch.objective import embed, exchange_gain, matrix_from_assignment
from divmatch.oracle import enumerate_optimal
from divmatch.solver import iteration_bound, solve
from helpers import (current_state, cycle_from_moves, dump_edges,
                     has_negative_cycle_exhaustive, random_digraph,
                     random_feasible_matrix, random_small_instance,
                     random_switch_simple_moves)


def test_criterion_1_oracle_equivalence():
    """Solver reaches the exhaustive optimum on 300 seeded small instances."""
    start = time.time()
    for seed in range(300):
        inst = random_small_instance(seed)
        expected = enumerate_optimal(inst).optimal_objective
        report = solve(inst)
        assert report.termination == "optimal"
        assert report.breakdown.objective == expected, \
            f"seed {seed}: got {report.breakdown.objective}, want {expected}"
    elapsed = time.time() - start
    assert elapsed < 60.0
    print(f"\nPASS criterion-1: 300/300 instances match the oracle exactly "
          f"({elapsed:.1f}s)")


def test_criterion_2_strict_descent_and_iteration_bound():
    """Every committed step drops the objective by >= 1 and the number of
    steps never exceeds the integer descent bound."""
    runs = 0
    for seed in range(150):
        inst = random_small_instance(seed + 2_000,
                                     lambda_choices=(1, 2, 3, 5),
                                     worker_fraction=0.3)
        report = solve(inst)
        bound = iteration_bound(inst)
        previous = report.initial_objective
        for record in report.trace:
            assert record.exact <= -1
            assert record.objective_after == previous + record.exact
            assert record.objective_after < previous
            previous = record.objective_after
        assert report.iterations <= bound
        runs += 1
    inst = generate_reviewer_instance(3, [4] * 5, "balanced", 4, seed=7)
    report = solve(inst)
    assert all(r.exact <= -1 for r in report.trace)
    assert report.iterations <= iteration_bound(inst)
    runs += 1
    print(f"\nPASS criterion-2: strict descent and bound held on {runs} runs")


def _random_state(inst, rng):
    """Random feasible type matrix: class-cost states drawn as a matrix,
    worker-cost states as a worker -> team map, then counted per type."""
    if inst.costs.mode == "class":
        return random_feasible_matrix(inst, rng)
    state = [0] * inst.n
    caps = [inst.demand(i) for i in range(inst.t + 1)]
    for x in range(inst.n):
        i = rng.choice([i for i in range(inst.t + 1) if caps[i] > 0])
        caps[i] -= 1
        state[x] = i
    return matrix_from_assignment(inst, state)


def test_criterion_3_single_visit_cycle_gain_exactness():
    """Edge-weight sums of switch-simple cycles equal true exchange gains."""
    rng = random.Random(33)
    sampled = 0
    seed = 0
    while sampled < 500:
        inst = random_small_instance(seed + 3_000, worker_fraction=0.2)
        seed += 1
        state = _random_state(inst, rng)
        graph = build_aux_graph(inst, state)
        for _ in range(4):
            moves = random_switch_simple_moves(graph, rng)
            if moves is None:
                break
            cycle = cycle_from_moves(graph, moves)
            after = [list(row) for row in state]
            for key, i1, i2 in moves:
                after[i1][key] -= 1
                after[i2][key] += 1
            gain = exchange_gain(inst, state, after)
            assert cycle.claimed_weight == gain
            sampled += 1
    print(f"\nPASS criterion-3: {sampled} sampled single-visit cycles price "
          f"their exact gain")


def test_criterion_4_incremental_update_fidelity():
    """After every commit the incrementally maintained graph equals a full
    rebuild, edge by edge: weights and the offer in ``succ`` alike."""
    rng = random.Random(44)
    commits = 0
    seed = 0
    while commits < 100:
        inst = random_small_instance(seed + 4_000, worker_fraction=0.25)
        seed += 1
        graph = build_aux_graph(inst, _random_state(inst, rng))
        for _ in range(10):
            moves = random_switch_simple_moves(graph, rng)
            if moves is None:
                break
            apply_and_update(graph, cycle_from_moves(graph, moves))
            fresh = build_aux_graph(inst, current_state(graph))
            assert dump_edges(graph) == dump_edges(fresh)
            commits += 1
    print(f"\nPASS criterion-4: {commits} commits, incremental graph always "
          f"equals a rebuild")


def test_criterion_5_detector_cross_validation():
    """The two detectors agree on existence everywhere; both match full
    cycle enumeration on small graphs."""
    rng = random.Random(55)
    disagreements = 0
    for _ in range(1000):
        g = random_digraph(rng, max_nodes=50, density=0.15)
        bf = bellman_ford_detect(g)
        gr = goldberg_radzik_detect(g)
        if (bf is None) != (gr is None):
            disagreements += 1
    assert disagreements == 0
    enum_checked = 0
    for _ in range(300):
        g = random_digraph(rng, max_nodes=12, density=0.3)
        expected = has_negative_cycle_exhaustive(g)
        assert (bellman_ford_detect(g) is not None) == expected
        assert (goldberg_radzik_detect(g) is not None) == expected
        enum_checked += 1
    print(f"\nPASS criterion-5: 1000 graphs, detectors agree; "
          f"{enum_checked} small graphs match exhaustive enumeration")


def _team_gender_counts(inst, matrix):
    by_gender = embed(inst, matrix, 1)
    return [sorted(row) for row in by_gender[1:]]


def test_criterion_6_gender_balance_property():
    """With gender weight on, certified-optimal solutions are 2/2 balanced
    whenever some balanced optimum exists; with it off, only report."""
    asserted = 0
    for seed in (1, 2, 3, 4, 5, 6):
        inst = generate_reviewer_instance(2, [5, 5], "balanced", 4, seed=seed)
        result = enumerate_optimal(inst, collect_optima=True)
        report = solve(inst)
        assert report.breakdown.objective == result.optimal_objective
        balanced_exists = any(
            all(row == [2, 2] for row in _team_gender_counts(inst, w))
            for w in result.optima)
        if balanced_exists:
            assert all(row == [2, 2]
                       for row in _team_gender_counts(inst,
                                                      report.assignment)), \
                f"seed {seed}: balanced optimum exists but result is skewed"
            asserted += 1
    assert asserted > 0
    fractions = []
    for seed in (1, 2, 3):
        inst = generate_reviewer_instance(2, [5, 5], "balanced", 4, seed=seed)
        no_gender = dataclasses.replace(
            inst, weights=TradeoffWeights(inst.weights.lambda0,
                                          (inst.weights.lambdas[0], 0)))
        report = solve(no_gender)
        counts = _team_gender_counts(no_gender, report.assignment)
        fractions.append(sum(row == [2, 2] for row in counts) / len(counts))
    print(f"\nPASS criterion-6: balanced on all {asserted} instances with a "
          f"balanced optimum; with gender weight off the balanced fraction "
          f"was {fractions} (not asserted)")


def test_criterion_7_scaling_smoke():
    """Generated instances up to n=400, t=75 solve to a certified fixed
    point well inside the wall-clock sanity bound."""
    sizes = [(10, 8, 4), (25, 20, 4), (50, 40, 4), (75, 80, 4)]
    times = []
    total_start = time.time()
    for papers, per_cluster, demand in sizes:
        inst = generate_reviewer_instance(papers, [per_cluster] * 5,
                                          "balanced", demand, seed=1)
        start = time.time()
        report = solve(inst)
        times.append(time.time() - start)
        assert report.termination == "optimal"
        assert report.iterations <= iteration_bound(inst)
    total = time.time() - total_start
    assert total < 1800.0
    assert times[-1] > times[0]
    summary = ", ".join(
        f"n={c * 5}/t={p}: {dt:.1f}s"
        for (p, c, _d), dt in zip(sizes, times))
    print(f"\nPASS criterion-7: scaling run completed in {total:.1f}s "
          f"({summary})")
