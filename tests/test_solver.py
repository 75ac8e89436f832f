import json
import random

import pytest

from divmatch import solver
from divmatch.auxgraph import build_aux_graph
from divmatch.instance import (build_combination_index, convert_cost_mode,
                               generate_reviewer_instance, parse_instance)
from divmatch.objective import assignment_from_matrix
from divmatch.oracle import enumerate_optimal
from divmatch.solver import (SolverConfig, initial_feasible, iteration_bound,
                             solve)
from helpers import (random_feasible_matrix, random_small_instance,
                     reference_resplit_sweep)


def make(doc):
    return parse_instance(json.dumps(doc))


def test_initial_feasible_two_pointer():
    inst = make({
        "features": [{"name": "c", "values": ["A", "B"]}],
        "workers": [[0], [0], [0], [1]],
        "teams": [{"name": "t1", "demand": 2}, {"name": "t2", "demand": 2}],
        "costs": {"mode": "class", "u": [[0, 0], [0, 0]]},
        "lambda0": 1, "lambdas": [1]})
    assert initial_feasible(inst) == [[0, 0], [2, 0], [1, 1]]


def test_initial_feasible_zero_demands():
    inst = make({
        "features": [{"name": "c", "values": ["A"]}],
        "workers": [[0], [0], [0]],
        "teams": [{"name": "t1", "demand": 0}],
        "costs": {"mode": "class", "u": [[0]]},
        "lambda0": 1, "lambdas": [1]})
    assert initial_feasible(inst) == [[3], [0]]


def test_initial_feasible_single_full_team():
    inst = make({
        "features": [{"name": "c", "values": ["A"]}],
        "workers": [[0]] * 5,
        "teams": [{"name": "t1", "demand": 5}],
        "costs": {"mode": "class", "u": [[0]]},
        "lambda0": 1, "lambdas": [1]})
    assert initial_feasible(inst) == [[0], [5]]


def test_iteration_bound_formula():
    inst = make({
        "features": [{"name": "c", "values": ["A", "B"]},
                     {"name": "g", "values": ["M", "F"]}],
        "workers": [[0, 0], [0, 1], [1, 0], [1, 1]],
        "teams": [{"name": "t1", "demand": 4}],
        "costs": {"mode": "class", "u": [[0, 0]]},
        "lambda0": 1, "lambdas": [1, 1]})
    assert iteration_bound(inst) == 1 * 2 * 16 + 0


def test_iteration_bound_degenerate():
    inst = make({
        "features": [{"name": "c", "values": ["A"]}],
        "workers": [[0], [0]],
        "teams": [{"name": "t1", "demand": 0}],
        "costs": {"mode": "class", "u": [[9]]},
        "lambda0": 3, "lambdas": [2]})
    assert iteration_bound(inst) >= 0
    report = solve(inst)
    assert report.iterations == 0


EIGHT_VS_SIXTEEN = {
    "features": [{"name": "c", "values": ["A", "B"]},
                 {"name": "g", "values": ["M", "F"]}],
    "workers": [[0, 0], [0, 0], [1, 1], [1, 1]],
    "teams": [{"name": "t1", "demand": 2}, {"name": "t2", "demand": 2}],
    "costs": {"mode": "class", "u": [[0, 0], [0, 0]]},
    "lambda0": 1, "lambdas": [1, 1],
}


@pytest.mark.parametrize("detector", ["bellman_ford", "goldberg_radzik"])
def test_solve_reaches_oracle_optimum(detector):
    inst = make(EIGHT_VS_SIXTEEN)
    report = solve(inst, SolverConfig(detector=detector))
    assert report.termination == "optimal"
    assert report.breakdown.objective == 8
    assert report.assignment[1:] == [[1, 1], [1, 1]]


def test_single_full_team_needs_no_iterations():
    inst = make({
        "features": [{"name": "c", "values": ["A", "B"]}],
        "workers": [[0], [0], [1]],
        "teams": [{"name": "t1", "demand": 3}],
        "costs": {"mode": "class", "u": [[2, 3]]},
        "lambda0": 1, "lambdas": [1]})
    report = solve(inst)
    assert report.iterations == 0
    assert report.termination == "optimal"
    assert report.breakdown.objective == \
        enumerate_optimal(inst).optimal_objective


def test_iteration_cap_reports_partial_result():
    inst = make(EIGHT_VS_SIXTEEN)
    full = solve(inst)
    assert full.iterations >= 1
    capped = solve(inst, SolverConfig(max_iterations=full.iterations,
                                      refinement="off"))
    # cap equal to the needed commits still converges; one less does not
    if full.iterations > 1:
        partial = solve(inst, SolverConfig(max_iterations=full.iterations - 1,
                                           refinement="off"))
        assert partial.termination == "iteration-cap"
    assert capped.breakdown.objective >= full.breakdown.objective


# gen --papers 3 --clusters 2,3,5,4 --genders random --demand 2 --seed 835:
# after its second commit detection returns a walk that claims -1 but gains
# +5 exactly, so the solve is at its fixed point (28; the oracle's is 27).
def seed_835_instance():
    return generate_reviewer_instance(3, [2, 3, 5, 4], "random", 2, seed=835)


def test_iteration_cap_ignores_a_spurious_walk_at_the_fixed_point():
    inst = seed_835_instance()
    full = solve(inst)
    assert (full.termination, full.iterations) == ("optimal", 2)
    assert full.breakdown.objective == 28
    capped = solve(inst, SolverConfig(max_iterations=2))
    assert capped == full
    early = solve(inst, SolverConfig(max_iterations=1))
    assert early.termination == "iteration-cap"
    assert early.trace == full.trace[:1]


def test_trace_is_strictly_decreasing_with_exact_gains():
    for seed in range(25):
        inst = random_small_instance(seed + 900)
        report = solve(inst)
        previous = report.initial_objective
        for record in report.trace:
            assert record.exact <= -1
            assert record.objective_after == previous + record.exact
            previous = record.objective_after
        assert report.iterations <= iteration_bound(inst)
        assert report.iterations == len(report.trace)


def test_solve_is_deterministic():
    inst = random_small_instance(424_242)
    assert solve(inst) == solve(inst)


def test_iteration_log_line_format():
    inst = make(EIGHT_VS_SIXTEEN)
    report = solve(inst)
    line = report.trace[0].log_line()
    assert line == (f"iter=1 cycle_len={report.trace[0].cycle_len} "
                    f"claimed={report.trace[0].claimed} "
                    f"exact={report.trace[0].exact} "
                    f"objective={report.trace[0].objective_after}")


def test_worker_mode_class_constant_matches_class_solve():
    class_doc = {
        "features": [{"name": "c", "values": ["A", "B"]},
                     {"name": "g", "values": ["M", "F"]}],
        "workers": [[0, 0], [0, 1], [1, 0], [1, 1], [0, 0], [1, 1]],
        "teams": [{"name": "t1", "demand": 3}, {"name": "t2", "demand": 3}],
        "costs": {"mode": "class", "u": [[2, 7], [5, 1]]},
        "lambda0": 2, "lambdas": [1, 3],
    }
    inst_class = make(class_doc)
    worker_doc = dict(class_doc)
    worker_doc["costs"] = {
        "mode": "worker",
        "u": [[class_doc["costs"]["u"][i][w[0]]
               for w in class_doc["workers"]] for i in range(2)]}
    inst_worker = make(worker_doc)
    a = solve(inst_class)
    b = solve(inst_worker)
    assert a.breakdown.objective == b.breakdown.objective
    assert b.termination == "optimal"
    assert b.trace == a.trace
    assert b.assignment == a.assignment


def test_worker_costs_follow_the_class_search_on_the_ladder_rung():
    # The (t, n) = (10, 40) rung of criterion 7's ladder in worker costs: as
    # a per-worker search it stopped at 252, one above its class-cost twin.
    inst = generate_reviewer_instance(10, [8] * 5, "balanced", 4, seed=1)
    as_class = solve(inst)
    as_worker = solve(convert_cost_mode(inst, "worker"))
    assert as_class.breakdown.objective == 251
    assert as_worker.trace == as_class.trace
    assert as_worker.breakdown.objective == 251


@pytest.mark.parametrize("rung, expected", [((10, 40), (33, 251)),
                                            ((25, 100), (96, 609)),
                                            ((50, 200), (185, 1125))])
def test_class_ladder_rungs_keep_their_search(rung, expected):
    # The benchmark's ladder-class rungs (criterion 7's shape, seed 1): a
    # refactor that keeps the search keeps these commit counts and optima.
    papers, reviewers = rung
    inst = generate_reviewer_instance(papers, [reviewers // 5] * 5,
                                      "balanced", 4, seed=1)
    report = solve(inst)
    assert report.termination == "optimal"
    assert (report.iterations, report.breakdown.objective) == expected


def test_refinement_report_is_incomplete_when_the_scan_budget_binds():
    # The final sweep on this ladder rung skips subsets over the per-subset
    # state budget and, once the sweep's scan budget runs out, more.
    inst = generate_reviewer_instance(25, [20] * 5, "balanced", 4, seed=1)
    report = solve(inst)
    assert report.termination == "optimal"
    assert report.refinement_complete is False


def test_refinement_report_is_complete_on_an_oracle_sized_instance():
    inst = generate_reviewer_instance(3, [3, 3, 2], "random", 2, seed=5)
    report = solve(inst)
    assert report.termination == "optimal"
    assert report.refinement_complete is True
    assert report.breakdown.objective == \
        enumerate_optimal(inst).optimal_objective
    off = solve(inst, SolverConfig(refinement="off"))
    assert off.refinement_complete is False


def _sweep_states():
    """(instance, state) pairs for the sweep comparison: states the solver
    reaches on ladder rung (10,40), whose dummy row is empty, and on a
    32-of-40 variant, whose dummy row is not; random feasible states of
    both; and random states of small worker-cost instances."""
    rng = random.Random(5)
    for papers in (10, 8):
        inst = generate_reviewer_instance(papers, [8] * 5, "balanced", 4,
                                          seed=1)
        index = build_combination_index(inst)
        for cap in (1, 4, 9, 16, 25, None):
            report = solve(inst, SolverConfig(max_iterations=cap))
            assert (sum(report.assignment[0]) == 0) == (papers == 10)
            yield inst, report.assignment
        for _ in range(4):
            yield inst, random_feasible_matrix(inst, index, rng)
    for seed in range(12):
        inst = random_small_instance(seed + 700, max_n=10,
                                     worker_fraction=1.0)
        index = build_combination_index(inst)
        yield inst, random_feasible_matrix(inst, index, rng)
        yield inst, solve(inst).assignment


@pytest.mark.parametrize("scan, per_subset", [(2_000_000, 20_000),
                                              (400, 20_000), (5_000, 30)])
def test_resplit_sweep_matches_the_plain_subset_rule(monkeypatch, scan,
                                                     per_subset):
    # The sweep decides budget skips from row sizes and charges but skips
    # subsets with an empty row; the plain rule builds every subset's
    # columns and enumerates all it admits. Both must find the same moves,
    # skip the same subsets and leave the same budget, also when a smaller
    # budget makes the skips bind early.
    monkeypatch.setattr(solver, "REFINE_SCAN_BUDGET", scan)
    monkeypatch.setattr(solver, "REFINE_STATE_BUDGET", per_subset)
    budgets = []

    class Recording(solver._ScanBudget):
        def __init__(self, limit):
            super().__init__(limit)
            budgets.append(self)

    monkeypatch.setattr(solver, "_ScanBudget", Recording)
    found = skipped = 0
    for inst, state in _sweep_states():
        graph = build_aux_graph(inst, state, build_combination_index(inst))
        for refinement, max_rows in (("pairs", 2), ("triples", 3)):
            expected = reference_resplit_sweep(inst, graph, max_rows)
            budgets.clear()
            result = solver._find_resplit(inst, graph, refinement)
            (spent,) = budgets
            assert (*result, spent.skipped, spent.left) == expected
            found += expected[0] is not None
            skipped += expected[2] > 0
    assert found >= 10 and skipped >= 2


def test_worker_mode_two_workers_picks_cheaper_assignment():
    inst = make({
        "features": [{"name": "c", "values": ["A", "B"]}],
        "workers": [[0], [1]],
        "teams": [{"name": "t1", "demand": 1}, {"name": "t2", "demand": 1}],
        "costs": {"mode": "worker", "u": [[5, 1], [2, 7]]},
        "lambda0": 1, "lambdas": [1]})
    # assignments: (w0->t1, w1->t2) costs 12, (w0->t2, w1->t1) costs 3
    report = solve(inst)
    assert assignment_from_matrix(inst, report.assignment) == [2, 1]
    assert report.breakdown.tu == 3
    assert report.breakdown.objective == 3 + 2


def test_worker_mode_zero_costs_matches_class_mode():
    base = {
        "features": [{"name": "c", "values": ["A", "B"]},
                     {"name": "g", "values": ["M", "F"]}],
        "workers": [[0, 0], [0, 1], [1, 0], [1, 1], [0, 0], [0, 1]],
        "teams": [{"name": "t1", "demand": 3}, {"name": "t2", "demand": 3}],
        "lambda0": 1, "lambdas": [2, 2],
    }
    inst_class = make({**base, "costs": {"mode": "class", "u": [[0, 0]] * 2}})
    inst_worker = make({**base, "costs": {"mode": "worker",
                                          "u": [[0] * 6] * 2}})
    assert solve(inst_class).breakdown.objective == \
        solve(inst_worker).breakdown.objective


# Two exchanges can each price at zero or worse on their own, yet improve
# jointly when they push shared counters in opposite directions. Cycle
# cancellation alone certifies a fixed point that such coupled pairs can
# still improve; the subset re-split refinement catches them.
COUPLED_PAIR_TRAP = {
    "features": [{"name": "f0", "values": ["a", "b", "c"]},
                 {"name": "f1", "values": ["x", "y"]}],
    "workers": [[2, 1], [1, 0], [0, 1], [2, 1], [1, 0],
                [1, 0], [1, 0], [0, 1], [1, 0], [0, 0]],
    "teams": [{"name": "team0", "demand": 3},
              {"name": "team1", "demand": 2},
              {"name": "team2", "demand": 4}],
    "costs": {"mode": "class", "u": [[6, 1, 8], [3, 9, 1], [5, 9, 0]]},
    "lambda0": 2, "lambdas": [5, 5],
}


def test_cycle_cancellation_alone_can_stall_above_optimum():
    inst = make(COUPLED_PAIR_TRAP)
    oracle = enumerate_optimal(inst).optimal_objective
    bare = solve(inst, SolverConfig(refinement="off"))
    assert bare.termination == "optimal"
    assert bare.breakdown.objective == oracle + 2  # known stall, kept pinned


def test_refinement_escapes_the_coupled_pair_trap():
    inst = make(COUPLED_PAIR_TRAP)
    oracle = enumerate_optimal(inst).optimal_objective
    refined = solve(inst)
    assert refined.breakdown.objective == oracle


def test_refinement_escapes_a_spurious_walk_fixed_point():
    # Detection under exclusions finds nothing here while the excluded walk
    # is still negative; the solve must go on to the re-split rather than
    # detect the same walk again until the stall guard raises.
    inst = generate_reviewer_instance(4, [4, 2, 3, 2], "balanced", 2,
                                      seed=196)
    report = solve(inst)
    assert report.termination == "optimal"
    assert report.breakdown.objective == 40
    assert enumerate_optimal(inst).optimal_objective == 40
