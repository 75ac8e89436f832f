import dataclasses
import hashlib
import itertools
import json
import logging
import random
import re

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from divmatch import flow, solver
from divmatch.auxgraph import (AuxGraph, CycleApplicationError,
                               apply_and_update, build_aux_graph, moves_of)
from divmatch.instance import (Team, TradeoffWeights, convert_cost_mode,
                               generate_reviewer_instance, parse_instance)
from divmatch.negcycle import goldberg_radzik_detect, negative_cycle
from divmatch.objective import (assignment_from_matrix, breakdown_of,
                                count_tensor, objective)
from divmatch.oracle import (_greedy_split, _unit_prices, best_split,
                             enumerate_optimal)
from divmatch.solver import initial_feasible, iteration_bound, solve
from helpers import (current_state, cycle_from_moves, dump_edges,
                     known_bad_instances, random_feasible_matrix,
                     random_small_instance, random_switch_simple_moves,
                     reference_resplit_sweep, two_pointer_start)


def make(doc):
    return parse_instance(json.dumps(doc))


def test_initial_feasible_spreads_types_by_marginal_price():
    # Three A and one B into two teams of two at zero cost: each unit goes
    # where its marginal diversity price is least, ties to the first type,
    # then to the first team. So t1 takes an A and the B, and t2 the other
    # two A; the two-pointer fill gave t1 two A.
    inst = make({
        "features": [{"name": "c", "values": ["A", "B"]}],
        "workers": [[0], [0], [0], [1]],
        "teams": [{"name": "t1", "demand": 2}, {"name": "t2", "demand": 2}],
        "costs": {"mode": "class", "u": [[0, 0], [0, 0]]},
        "lambda0": 1, "lambdas": [1]})
    assert initial_feasible(inst) == [[0, 0], [1, 1], [2, 0]]
    assert two_pointer_start(inst) == [[0, 0], [2, 0], [1, 1]]


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 10**6), worker_costs=st.booleans(),
       data=st.data())
def test_initial_feasible_is_the_feasible_greedy_split(seed, worker_costs,
                                                       data):
    # Every solve starts from the oracle's greedy split over all rows and
    # all types in index order. It must meet every demand and place every
    # worker, also with zero demands, a full or an empty dummy row and
    # features weighted zero, and the greedy's value is its objective.
    inst = random_small_instance(seed, max_n=14, max_t=4, max_columns=6,
                                 worker_fraction=float(worker_costs),
                                 lambda_choices=(0, 1, 2, 3))
    zeroed = data.draw(st.lists(st.booleans(), min_size=inst.t,
                                max_size=inst.t))
    teams = [Team(team.name, 0 if zero else team.demand)
             for team, zero in zip(inst.teams, zeroed)]
    if data.draw(st.booleans()):  # the last team takes the dummy's workers
        left = inst.n - sum(team.demand for team in teams)
        teams[-1] = Team(teams[-1].name, teams[-1].demand + left)
    inst = dataclasses.replace(inst, teams=tuple(teams))
    types = inst.types
    rows, cols = range(inst.t + 1), range(types.num_columns)
    start = initial_feasible(inst)
    value, split = _greedy_split(rows, *_unit_prices(inst, rows, cols),
                                 list(types.multiplicities),
                                 [inst.demand(i) for i in rows])
    assert start == split
    assert [sum(row) for row in start] == [inst.demand(i) for i in rows]
    assert [sum(col) for col in zip(*start)] == list(types.multiplicities)
    assert min(map(min, start)) >= 0
    assert objective(inst, start).objective == value
    assert solve(inst, max_iterations=1).initial_objective == \
        value


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 10**6), worker_costs=st.booleans(),
       lambda0=st.integers(1, 3), data=st.data())
def test_greedy_start_value_is_the_objective_of_its_matrix(
        seed, worker_costs, lambda0, data):
    # The solve starts its running objective at the greedy's own value,
    # the sum of its units' marginal prices, with no evaluation of the
    # matrix; it must be the matrix's objective, also where features are
    # weighted zero.
    inst = random_small_instance(seed, max_n=18, max_t=6, max_columns=6,
                                 worker_fraction=float(worker_costs))
    lambdas = data.draw(st.lists(st.integers(0, 3),
                                 min_size=inst.schema.num_features,
                                 max_size=inst.schema.num_features))
    inst = dataclasses.replace(
        inst, weights=TradeoffWeights(lambda0, tuple(lambdas)))
    assert 1 <= inst.t <= 6
    value, w = solver._greedy_start(inst)
    assert w == initial_feasible(inst)
    assert value == objective(inst, initial_feasible(inst)).objective


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


def test_solve_reaches_oracle_optimum():
    inst = make(EIGHT_VS_SIXTEEN)
    report = solve(inst)
    assert report.termination == "optimal"
    assert report.breakdown.objective == 8
    assert report.assignment[1:] == [[1, 1], [1, 1]]


def test_solver_config_rejects_bad_settings():
    with pytest.raises(ValueError) as error:
        solve(make(EIGHT_VS_SIXTEEN), max_iterations=0)
    assert str(error.value) == "max_iterations must be >= 1 when set"


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


# gen --papers 3 --clusters 5x4 --demand 4 --seed 5: from the greedy start
# a detected walk and then a re-split improve it.
def walk_then_resplit_instance():
    return generate_reviewer_instance(3, [4] * 5, "balanced", 4, seed=5)


def test_iteration_cap_reports_partial_result():
    inst = walk_then_resplit_instance()
    full = solve(inst)
    assert [r.source for r in full.trace] == ["cycle", "resplit"]
    capped = solve(inst, max_iterations=full.iterations)
    # cap equal to the needed commits still converges; one less does not
    partial = solve(inst, max_iterations=full.iterations - 1)
    assert partial.termination == "iteration-cap"
    assert capped.breakdown.objective >= full.breakdown.objective


# gen --papers 5 --clusters 4,3,1,5,4 --genders random --demand 2
# --seed 1835: after its third commit detection returns a walk that claims
# -1 but gains +3 exactly, so the solve is at its fixed point (53, not
# proved).
def spurious_fixed_point_instance():
    return generate_reviewer_instance(5, [4, 3, 1, 5, 4], "random", 2,
                                      seed=1835)


def test_iteration_cap_ignores_a_spurious_walk_at_the_fixed_point():
    inst = spurious_fixed_point_instance()
    full = solve(inst)
    assert (full.termination, full.iterations) == ("optimal", 3)
    assert full.breakdown.objective == 53
    capped = solve(inst, max_iterations=3)
    assert capped == full
    early = solve(inst, max_iterations=2)
    assert early.termination == "iteration-cap"
    assert early.trace == full.trace[:2]


def test_withheld_walk_stays_out_of_detection_until_restored():
    inst = spurious_fixed_point_instance()
    graph = build_aux_graph(inst, solve(inst).assignment)
    walk = goldberg_radzik_detect(graph)
    assert walk.claimed_weight == -1
    assert graph.gain(moves_of(graph, walk)) == 3
    rebuilt = dump_edges(graph)
    graph.withhold(walk.edges)
    assert not any(e in graph.succ[e[0]] for e in walk.edges)
    assert dump_edges(graph) != rebuilt
    again = goldberg_radzik_detect(graph)
    assert again is None or again.edges != walk.edges
    graph.restore()
    assert dump_edges(graph) == rebuilt
    graph.restore()  # nothing withheld: no change
    assert dump_edges(graph) == rebuilt
    # a commit, then the restore that starts the next step: the graph
    # then equals a rebuild
    rng = random.Random(1835)
    for _ in range(5):
        graph.withhold(goldberg_radzik_detect(graph).edges)
        moves = random_switch_simple_moves(graph, rng)
        apply_and_update(graph, cycle_from_moves(graph, moves))
        graph.restore()
        fresh = build_aux_graph(inst, current_state(graph))
        assert dump_edges(graph) == dump_edges(fresh)


def test_a_walk_that_does_not_improve_whole_is_withheld_whole(monkeypatch):
    # certify-small run seed 2 #1473 (n=7, t=1) before its third commit:
    # the first detected walk has four moves and claims -4, but its true
    # change is 0, and its last two moves alone would change the objective
    # by -4. The step commits no part of the walk: it withholds the whole
    # walk, no negative cycle is left, and the re-split finds its own -4.
    inst = dataclasses.replace(
        generate_reviewer_instance(1, [1, 2, 2, 2], "random", 4,
                                   seed=755541953),
        weights=TradeoffWeights(1, (2, 2)))
    state = [[0, 0, 1, 0, 1, 1], [1, 2, 0, 1, 0, 0]]
    graph = build_aux_graph(inst, state)
    monkeypatch.setattr(solver, "build_aux_graph", lambda inst, w: graph)
    search = solver._Search(inst, state, goldberg_radzik_detect)
    walk = goldberg_radzik_detect(graph)
    moves = moves_of(graph, walk)
    assert (len(moves), walk.claimed_weight, graph.gain(moves)) == (4, -4, 0)
    assert graph.gain(moves[2:]) == -4
    withheld, walk_commits = [], []
    withhold_edges = graph.withhold

    def withhold(edges):
        withheld.append(list(edges))
        withhold_edges(edges)

    def commit_walk(g, cycle):
        walk_commits.append(cycle)
        return apply_and_update(g, cycle)

    monkeypatch.setattr(graph, "withhold", withhold)
    monkeypatch.setattr(solver, "apply_and_update", commit_walk)
    step = search.step()
    assert step[:4] == ("resplit", 2, -4, -4)
    assert withheld == [walk.edges]
    step[4]()
    assert walk_commits == []
    assert objective(inst, search.w).objective == \
        objective(inst, state).objective - 4


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
    inst = walk_then_resplit_instance()
    report = solve(inst)
    line = report.trace[0].log_line()
    assert line == (f"iter=1 source={report.trace[0].source} "
                    f"cycle_len={report.trace[0].cycle_len} "
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


@pytest.mark.parametrize("rung, expected", [
    ((10, 40), (4, 251, "ade404977f570b29")),
    ((25, 100), (10, 609, "f434e5ddd1b950b6")),
    ((50, 200), (15, 1125, "23e911f7de277b04")),
])
def test_class_ladder_rungs_keep_their_search(rung, expected):
    # The benchmark's ladder-class rungs (criterion 7's shape, seed 1),
    # whose dummy row is empty: a refactor that keeps the search keeps
    # these commit counts, optima and traces (a sha256 prefix of each
    # commit's cycle length, claimed and exact gain and objective). Every
    # commit is a detected walk.
    papers, reviewers = rung
    inst = generate_reviewer_instance(papers, [reviewers // 5] * 5,
                                      "balanced", 4, seed=1)
    report = solve(inst)
    assert report.termination == "optimal"
    trace = json.dumps([[r.cycle_len, r.claimed, r.exact, r.objective_after]
                        for r in report.trace])
    assert (report.iterations, report.breakdown.objective,
            hashlib.sha256(trace.encode()).hexdigest()[:16]) == expected
    assert all(r.source == "cycle" for r in report.trace)


def test_refinement_report_is_incomplete_when_the_scan_budget_binds():
    # This instance's fixed point is not proved optimal, so the final sweep
    # runs, and it skips the triples that exceed what is left of the
    # sweep's budget. A proved fixed point, such as ladder rung (25,100)'s,
    # runs no sweep.
    inst = generate_reviewer_instance(10, [8] * 5, "balanced", 4, seed=35)
    report = solve(inst)
    assert report.proved_optimal is False
    assert report.termination == "optimal"
    assert report.refinement_complete is False
    rung = generate_reviewer_instance(25, [20] * 5, "balanced", 4, seed=1)
    assert solve(rung).proved_optimal is True


def test_refinement_report_is_complete_on_an_oracle_sized_instance():
    inst = generate_reviewer_instance(3, [3, 3, 2], "random", 2, seed=5)
    report = solve(inst)
    assert report.termination == "optimal"
    assert report.refinement_complete is True
    assert report.breakdown.objective == \
        enumerate_optimal(inst).optimal_objective


def _sweep_states():
    """(instance, state) pairs for the sweep comparison: states the solver
    reaches on ladder rung (10,40), whose dummy row is empty, and on a
    32-of-40 variant, whose dummy row is not; random feasible states of
    both; random states of small worker-cost instances; and random and
    solved states of small instances with three weighted features, where
    the flow test checks three parts per subset."""
    rng = random.Random(5)
    for papers in (10, 8):
        inst = generate_reviewer_instance(papers, [8] * 5, "balanced", 4,
                                          seed=1)
        for cap in (1, 4, 9, 16, 25, None):
            report = solve(inst, max_iterations=cap)
            assert (sum(report.assignment[0]) == 0) == (papers == 10)
            yield inst, report.assignment
        for _ in range(4):
            yield inst, random_feasible_matrix(inst, rng)
    for seed in range(12):
        inst = random_small_instance(seed + 700, max_n=10,
                                     worker_fraction=1.0)
        yield inst, random_feasible_matrix(inst, rng)
        yield inst, solve(inst).assignment
    rng = random.Random(11)
    for seed in range(40):
        inst = random_small_instance(seed + 900, max_n=10, max_columns=6,
                                     lambda_choices=(1, 2, 3))
        if inst.schema.num_features >= 3:
            yield inst, random_feasible_matrix(inst, rng)
            yield inst, solve(inst).assignment


@pytest.mark.parametrize("scan", [2_000_000, 400, 60])
def test_resplit_sweep_matches_the_plain_subset_rule(monkeypatch, scan):
    # The sweep enumerates only the subsets that the flow test does not
    # certify; the plain rule enumerates all it admits. Both must find
    # the same moves, skip the same subsets and leave the same budget, also
    # when a smaller budget makes the skips bind early.
    monkeypatch.setattr(solver, "REFINE_SCAN_BUDGET", scan)
    budgets = []

    class Recording(solver._ScanBudget):
        def __init__(self, limit):
            super().__init__(limit)
            budgets.append(self)

    monkeypatch.setattr(solver, "_ScanBudget", Recording)
    found = skipped = three = 0
    for inst, state in _sweep_states():
        c = count_tensor(inst, state)
        for max_rows in (2, 3):
            monkeypatch.setattr(solver, "REFINE_ROWS", max_rows)
            expected = reference_resplit_sweep(inst, state, max_rows)
            budgets.clear()
            result = solver._find_resplit(inst, state, c)
            (spent,) = budgets
            assert (*result, spent.skipped, spent.left) == expected
            found += expected[0] is not None
            skipped += expected[2] > 0
            three += inst.schema.num_features >= 3
    assert found >= 10 and skipped >= 2 and three >= 20


def test_a_fixed_point_needing_every_team_is_re_split_whole():
    # The greedy start is a fixed point at 68: no walk, pair or triple
    # improves it, and the optimum 64 moves workers in all four rows, the
    # dummy row included. Their pooled types admit 25600 splits, within the
    # sweep's budget, and a subset of every row that holds workers is the
    # sweep's last.
    assert 25_600 <= solver.REFINE_SCAN_BUDGET
    inst = dataclasses.replace(
        generate_reviewer_instance(3, [1, 2, 2, 3], "balanced", 2,
                                   seed=286204123),
        weights=TradeoffWeights(2, (2, 2)))
    report = solve(inst)
    assert report.initial_objective == 68
    assert [(r.source, r.cycle_len, r.exact) for r in report.trace] == [
        ("resplit", 6, -4)]
    assert report.breakdown.objective == 64 == \
        enumerate_optimal(inst).optimal_objective
    assert report.proved_optimal


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


def solve_without_resplit(monkeypatch, inst):
    """The solve with a re-split sweep that finds nothing: cycle
    cancellation and the optimality proof alone."""
    with monkeypatch.context() as patch:
        patch.setattr(solver, "_find_resplit", lambda *args: (None, False))
        return solve(inst)


def test_cycle_cancellation_alone_can_stall_above_optimum(monkeypatch):
    inst = make(COUPLED_PAIR_TRAP)
    oracle = enumerate_optimal(inst).optimal_objective
    bare = solve_without_resplit(monkeypatch, inst)
    assert bare.termination == "optimal"
    assert bare.breakdown.objective == oracle + 2  # known stall, kept pinned


def test_resplit_sweep_can_stall_above_optimum_on_four_teams():
    # Four teams and the pool all hold workers, so the sweep examines every
    # pair and triple of rows but no larger subset, and finds nothing. The
    # one optimum differs from the fixed point in four rows, the pool and
    # three teams, which must change at once. A known gap, kept pinned.
    inst = dataclasses.replace(
        generate_reviewer_instance(4, [2, 3, 1, 3], "balanced", 2,
                                   seed=446922281),
        weights=TradeoffWeights(2, (3, 3)))
    oracle = enumerate_optimal(inst)
    assert (oracle.optimal_objective, oracle.num_optima) == (92, 1)
    report = solve(inst)
    assert report.termination == "optimal"
    assert report.refinement_complete is True
    assert report.proved_optimal is False
    assert report.breakdown.objective == oracle.optimal_objective + 2
    assert all(map(sum, report.assignment))  # every row holds workers
    changed = [i for i, (row, best) in
               enumerate(zip(report.assignment, oracle.matrix))
               if row != best]
    assert changed == [0, 2, 3, 4]


def test_resplit_sweep_closes_a_gap_that_needs_triples_on_four_teams():
    # The greedy start, 90, is a fixed point that no walk or pair leaves.
    # The sweep's budget admits the triples, the first of which, the pool
    # and two teams, improves; two re-splits reach an optimum, 86, and the
    # flow proof proves it.
    inst = dataclasses.replace(
        generate_reviewer_instance(4, [5, 4, 4, 3, 2], "random", 2,
                                   seed=161720),
        weights=TradeoffWeights(2, (3, 1)))
    oracle = enumerate_optimal(inst, budget=10**12)
    assert (oracle.optimal_objective, oracle.num_optima) == (86, 3)
    report = solve(inst)
    assert report.initial_objective == 90
    assert [r.source for r in report.trace] == ["resplit", "resplit"]
    assert report.breakdown.objective == oracle.optimal_objective
    assert report.proved_optimal is True


def test_a_resplit_that_misprices_itself_raises(monkeypatch):
    # Each re-split is priced again from its moves before it is committed,
    # so a claim one unit off is caught.
    def misreporting(*args, **kwargs):
        best, split, *rest = best_split(*args, **kwargs)
        return best - 1, split, *rest

    monkeypatch.setattr(solver, "best_split", misreporting)
    inst = dataclasses.replace(
        generate_reviewer_instance(3, [1, 2, 2, 3], "balanced", 2,
                                   seed=286204123),
        weights=TradeoffWeights(2, (2, 2)))
    with pytest.raises(RuntimeError, match="re-split claims -5 but gains -4"):
        solve(inst)


def test_refinement_escapes_the_coupled_pair_trap():
    inst = make(COUPLED_PAIR_TRAP)
    oracle = enumerate_optimal(inst).optimal_objective
    refined = solve(inst)
    assert refined.breakdown.objective == oracle


def test_coupled_pair_trap_stall_is_not_proved(monkeypatch):
    # The stalled state is two above the optimum, so the proof must fail
    # there and leave the way to the re-split; the refined state is proved.
    inst = make(COUPLED_PAIR_TRAP)
    bare = solve_without_resplit(monkeypatch, inst)
    assert bare.proved_optimal is False
    graph = build_aux_graph(inst, bare.assignment)
    assert flow._proof(inst, graph.w, graph.c)[0] is not None
    refined = solve(inst)
    assert refined.proved_optimal is True
    assert refined.refinement_complete is True


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


def _offer_and_terms(graph):
    """Per port, the ``(src, dst)`` of each offered edge in order, then the
    port terms ``bias`` and ``start``."""
    return ([[e[:2] for e in edges] for edges in graph.succ],
            graph.bias, graph.start)


def _boundary_instances():
    # certify-small run seed 1, #1904: its first step withholds a walk and
    # then commits a re-split.
    yield dataclasses.replace(
        generate_reviewer_instance(2, [3, 1, 3], "random", 2,
                                   seed=685483390),
        weights=TradeoffWeights(1, (3, 1)))
    for mode in ("class", "worker"):
        for papers, reviewers in ((10, 40), (25, 100)):
            yield convert_cost_mode(generate_reviewer_instance(
                papers, [reviewers // 5] * 5, "balanced", 4, seed=1), mode)
    yield from known_bad_instances()
    yield from map(random_small_instance, range(150))


def test_graph_equals_a_rebuild_at_every_step_boundary(monkeypatch):
    # Each step is a function of the state: after every commit, and at the
    # end, the switch-graph offers what a fresh build of its w offers, with
    # the same port terms. Nothing withheld by one step's walk search
    # outlives it.
    step = solver._Search.step
    checked = []

    def check(search):
        if search.graph is not None:
            fresh = build_aux_graph(search.inst, search.graph.w)
            assert _offer_and_terms(search.graph) == _offer_and_terms(fresh)
            checked.append(search.inst)

    def checked_step(search):
        check(search)
        found = step(search)
        if found is None:
            check(search)
        return found

    monkeypatch.setattr(solver._Search, "step", checked_step)
    for inst in _boundary_instances():
        solve(inst)
    assert len(checked) >= 50
    assert checked.count(next(_boundary_instances())) >= 2


def test_a_proof_by_exhaustion_ends_at_the_optimum():
    # At most REFINE_ROWS + 1 rows hold workers at a fixed point of a
    # complete sweep, so the sweep's last subset was the whole state and
    # the solve reports it proved. Every proved solve must end at the
    # oracle's optimum, and some of them end where the flow proof fails.
    by_exhaustion = 0
    for seed in range(600):
        inst = random_small_instance(seed)
        optimum = enumerate_optimal(inst).optimal_objective
        report = solve(inst)
        if not report.proved_optimal:
            continue
        assert report.refinement_complete
        assert report.breakdown.objective == optimum
        c = count_tensor(inst, report.assignment)
        by_exhaustion += \
            flow._proof(inst, report.assignment, c)[0] is not None
    assert by_exhaustion >= 10


def _draw_moves(data, inst, w):
    """A closed walk of moves over teams 0..t (so row sums are kept): teams
    may repeat, the dummy team takes part, a worker may move in and
    straight back out, and the walk may go round twice. Each move's key is
    drawn, most of the time, from the keys its team still holds along the
    walk, so that most lists are applicable and some overdraw a cell."""
    teams = st.integers(0, inst.t)
    walk = data.draw(st.lists(teams, min_size=2, max_size=7))
    legs = [(a, b) for a, b in zip(walk, walk[1:] + walk[:1]) if a != b]
    w = [list(row) for row in w]
    moves = []
    for a, b in legs * data.draw(st.integers(1, 2)):
        held = [j for j, x in enumerate(w[a]) if x > 0]
        if held and data.draw(st.integers(0, 3)):
            key = data.draw(st.sampled_from(held))
        else:
            key = data.draw(st.integers(0, len(w[a]) - 1))
        moves.append((key, a, b))
        w[a][key] -= 1
        w[b][key] += 1
        if data.draw(st.integers(0, 3)) == 0:  # in and straight back out
            moves += [(key, b, a), (key, a, b)]
    return moves


def _graph_state(graph):
    """Everything a rejected move list must leave as it was."""
    return (current_state(graph),
            [[list(vals) for vals in c] for c in graph.c],
            list(graph.bias), list(graph.start),
            [list(edges) for edges in graph.succ], dump_edges(graph))


def _rejects(graph, moves, match):
    """Both pricing and commit refuse ``moves``, and the graph is kept."""
    before = _graph_state(graph)
    with pytest.raises(CycleApplicationError, match=match):
        graph.gain(moves)
    with pytest.raises(CycleApplicationError, match=match):
        graph.apply_moves(moves)
    assert _graph_state(graph) == before


def _moved(state, moves):
    after = [list(row) for row in state]
    for key, i1, i2 in moves:
        after[i1][key] -= 1
        after[i2][key] += 1
    return after


@settings(max_examples=300, deadline=None)
@given(seed=st.integers(0, 10**6), worker_costs=st.booleans(),
       data=st.data())
def test_delta_gain_equals_recomputation(seed, worker_costs, data):
    # Pricing and commit read one net change: a list that it admits, in
    # whatever order its moves come, is priced exactly and applied in
    # full; a list it refuses is refused by both and changes nothing.
    inst = random_small_instance(seed, max_n=14, max_columns=5,
                                 worker_fraction=float(worker_costs))
    types = inst.types
    if data.draw(st.booleans()):
        state = random_feasible_matrix(inst, random.Random(seed))
    else:  # a state the solver reaches
        cap = data.draw(st.integers(1, 4))
        state = solve(inst, max_iterations=cap).assignment
    graph = build_aux_graph(inst, state)
    moves = _draw_moves(data, inst, state)
    if data.draw(st.booleans()):  # and on to another feasible state
        target = random_feasible_matrix(inst, random.Random(~seed))
        split = solver._moves_from_split(state, range(inst.t + 1),
                                         range(types.num_columns), target)
        assert _moved(state, split) == target
        assert len(split) == sum(max(x - y, 0) for row, goal in
                                 zip(state, target)
                                 for x, y in zip(row, goal))
        moves += split
    after = _moved(state, moves)
    overdrawn = any(x < 0 for row in after for x in row)
    if overdrawn:
        _rejects(graph, moves, "overdraw")
    else:
        assert graph.gain(moves) == (
            objective(inst, after).objective
            - objective(inst, state).objective)
    team, key = next(((i, j) for i, row in enumerate(state)
                      for j, x in enumerate(row) if x), (None, None))
    if team is not None and inst.t:
        other = (team + 1) % (inst.t + 1)
        _rejects(graph, [(key, team, other)], "size of row")
        # Emptying a cell and taking one more, paid back in another
        # column, keeps every row and column sum but must still raise.
        if types.num_columns > 1:
            back = (key + 1) % types.num_columns
            units = state[team][key] + 1
            _rejects(graph, [(key, team, other)] * units
                     + [(back, other, team)] * units, "overdraw")
    if not overdrawn:  # in the order drawn, though a cell may dip below 0
        graph.apply_moves(moves)
        assert current_state(graph) == after
        assert dump_edges(graph) == dump_edges(
            build_aux_graph(inst, after))


@settings(max_examples=300, deadline=None)
@given(seed=st.integers(0, 10**6), worker_costs=st.booleans(),
       data=st.data())
def test_subset_flow_certificate_is_sound(seed, worker_costs, data):
    # Worker costs split a feature vector into parallel types; lambdas
    # drawn from 0..3 give zero to three weighted features. Every ordered
    # pair and triple, the dummy row anywhere, that the flow test certifies
    # must have no strictly better split. With at most one weighted feature
    # the rows' share is a single part, so the test is exact there.
    inst = random_small_instance(seed, max_n=12, max_columns=6,
                                 worker_fraction=float(worker_costs))
    lambdas = data.draw(st.lists(st.integers(0, 3),
                                 min_size=inst.schema.num_features,
                                 max_size=inst.schema.num_features))
    inst = dataclasses.replace(inst, weights=TradeoffWeights(
        inst.weights.lambda0, tuple(lambdas)))
    if data.draw(st.booleans()):
        state = random_feasible_matrix(inst, random.Random(seed))
    else:  # a state the solver reaches
        cap = data.draw(st.one_of(st.none(), st.integers(1, 4)))
        state = solve(inst, max_iterations=cap).assignment
    c = count_tensor(inst, state)
    values = solver._row_values(inst, state, c)
    exact = sum(lam > 0 for lam in lambdas) <= 1
    for size in (2, 3):
        for rows in itertools.permutations(range(inst.t + 1), size):
            cols = sorted({j for i in rows for j, x in enumerate(state[i])
                           if x})
            if not cols:
                continue
            _, split, _, _ = best_split(
                inst, rows, cols,
                [sum(state[i][j] for i in rows) for j in cols],
                [sum(state[i]) for i in rows],
                incumbent=sum(values[i] for i in rows))
            certified = flow._part_cycle(inst, state, c, rows,
                                         cols)[0] is None
            assert not certified or split is None
            if exact:
                assert certified == (split is None)


@pytest.mark.parametrize("rung", [(10, 40), (25, 100), (50, 200)])
def test_ladder_fixed_points_certify_pairs_without_enumerating(monkeypatch,
                                                               rung):
    # Each benchmark ladder-class rung's final state is proved optimal, so
    # the flow test shows every non-empty subset optimal, and neither a
    # pair nor a triple reaches the enumeration.
    papers, reviewers = rung
    inst = generate_reviewer_instance(papers, [reviewers // 5] * 5,
                                      "balanced", 4, seed=1)
    graph = build_aux_graph(inst, solve(inst).assignment)
    sizes = []

    def recording(inst, rows, *args, **kwargs):
        sizes.append(len(rows))
        return best_split(inst, rows, *args, **kwargs)

    monkeypatch.setattr(solver, "best_split", recording)
    found, _ = solver._find_resplit(inst, graph.w, graph.c)
    assert found is None
    assert sizes == []


def test_unproved_fixed_point_sweep_enumerates_one_uncertified_triple(
        monkeypatch, caplog):
    # This rung's fixed point is not proved, so its final sweep runs. The
    # flow test, restricted to each subset, certifies every pair and every
    # triple the budget admits but one, so one triple reaches the
    # enumeration, and it has no better split.
    inst = generate_reviewer_instance(10, [8] * 5, "balanced", 4, seed=35)
    report = solve(inst)
    assert report.proved_optimal is False
    graph = build_aux_graph(inst, report.assignment)
    enumerated = []

    def recording(inst, rows, *args, **kwargs):
        enumerated.append(rows)
        return best_split(inst, rows, *args, **kwargs)

    monkeypatch.setattr(solver, "best_split", recording)
    with caplog.at_level(logging.DEBUG, logger="divmatch"):
        found, _ = solver._find_resplit(inst, graph.w, graph.c)
    assert found is None
    assert enumerated == [(3, 6, 10)]
    (line,) = [r.getMessage() for r in caplog.records]
    certified = int(re.match(r"re-split sweep: (\d+) certified", line)[1])
    assert certified > 0


def test_resplit_sweep_logs_one_count_line(caplog):
    inst = generate_reviewer_instance(10, [8] * 5, "balanced", 4, seed=1)
    graph = build_aux_graph(inst, solve(inst).assignment)
    with caplog.at_level(logging.INFO, logger="divmatch"):
        solver._find_resplit(inst, graph.w, graph.c)
    assert not caplog.records
    with caplog.at_level(logging.DEBUG, logger="divmatch"):
        solver._find_resplit(inst, graph.w, graph.c)
    (line,) = [r.getMessage() for r in caplog.records]
    # The dummy row is empty, so the sweep takes the 45 pairs and 120
    # triples of the 10 teams: the pairs and the 45 cheapest triples are
    # certified, and the 75 triples that the rest of the budget cannot pay
    # for are skipped.
    certified, enumerated, skipped = map(int, re.fullmatch(
        r"re-split sweep: (\d+) certified, (\d+) enumerated, (\d+) skipped",
        line).groups())
    assert (certified, enumerated, skipped) == (90, 0, 75)


def test_resplit_sweep_takes_only_rows_that_hold_workers(monkeypatch):
    # A row that holds no worker adds no split, so the sweep never hands
    # one to the flow certificate. This instance's dummy row is empty and
    # its fixed point is not proved, so its final sweep runs.
    inst = generate_reviewer_instance(10, [8] * 5, "balanced", 4, seed=35)
    rows_seen = []

    def recording(inst, w, c, rows, cols):
        rows_seen.append([sum(w[i]) for i in rows])
        return flow._part_cycle(inst, w, c, rows, cols)

    monkeypatch.setattr(solver, "_part_cycle", recording)
    assert solve(inst).proved_optimal is False
    assert rows_seen
    assert all(all(rows) for rows in rows_seen)


@settings(max_examples=300, deadline=None)
@given(seed=st.integers(0, 10**6), worker_costs=st.booleans(),
       data=st.data())
def test_optimality_proof_is_sound(seed, worker_costs, data):
    # Lambdas drawn from 0..3 give zero to three weighted features; a state
    # the proof accepts must be a global optimum. Worker costs make every
    # worker a type, so fewer workers keep the oracle within its budget.
    inst = random_small_instance(seed, max_n=10 if worker_costs else 12,
                                 max_columns=6,
                                 worker_fraction=float(worker_costs))
    lambdas = data.draw(st.lists(st.integers(0, 3),
                                 min_size=inst.schema.num_features,
                                 max_size=inst.schema.num_features))
    inst = dataclasses.replace(inst, weights=TradeoffWeights(
        inst.weights.lambda0, tuple(lambdas)))
    if data.draw(st.booleans()):
        state = random_feasible_matrix(inst, random.Random(seed))
    else:  # a state the solver reaches
        cap = data.draw(st.one_of(st.none(), st.integers(1, 4)))
        state = solve(inst, max_iterations=cap).assignment
    c = count_tensor(inst, state)
    if flow._proof(inst, state, c)[0] is None:
        assert objective(inst, state).objective == \
            enumerate_optimal(inst).optimal_objective



@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 10**6), worker_costs=st.booleans(),
       data=st.data())
def test_flow_test_certifies_every_pair_with_one_empty_row(seed,
                                                          worker_costs,
                                                          data):
    # An empty row takes no worker, so such a pair's only split is its
    # state: the re-split sweep relies on the flow test certifying it, for
    # zero-demand teams and the empty dummy row alike, at zero to three
    # weighted features.
    inst = random_small_instance(seed, max_n=10 if worker_costs else 12,
                                 max_columns=6,
                                 worker_fraction=float(worker_costs))
    lambdas = data.draw(st.lists(st.integers(0, 3),
                                 min_size=inst.schema.num_features,
                                 max_size=inst.schema.num_features))
    inst = dataclasses.replace(inst, weights=TradeoffWeights(
        inst.weights.lambda0, tuple(lambdas)))
    if data.draw(st.booleans()):
        state = random_feasible_matrix(inst, random.Random(seed))
    else:  # a state the solver reaches
        cap = data.draw(st.one_of(st.none(), st.integers(1, 4)))
        state = solve(inst, max_iterations=cap).assignment
    c = count_tensor(inst, state)
    for rows in itertools.combinations(range(inst.t + 1), 2):
        if [sum(state[i]) == 0 for i in rows].count(True) != 1:
            continue
        cols = sorted({j for i in rows for j, x in enumerate(state[i]) if x})
        assert flow._part_cycle(inst, state, c, rows, cols)[0] is None


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 10**6), worker_costs=st.booleans(),
       data=st.data())
def test_part_flow_test_is_exact(seed, worker_costs, data):
    # Each part of the objective, feature k's lambda_k * D_k with or
    # without lambda0 * TU, must be found optimal exactly when no feasible
    # matrix has a smaller part: over all rows, and over the re-splits of
    # every ordered pair and triple of rows. A part is the objective of an
    # instance weighted at feature k alone, with zero costs when it carries
    # none; the rows' share of it is the objective with the other rows
    # emptied.
    inst = random_small_instance(seed, max_n=10 if worker_costs else 12,
                                 max_columns=6,
                                 worker_fraction=float(worker_costs))
    types = inst.types
    if data.draw(st.booleans()):
        state = random_feasible_matrix(inst, random.Random(seed))
    else:  # a state the solver reaches
        cap = data.draw(st.one_of(st.none(), st.integers(1, 4)))
        state = solve(inst, max_iterations=cap).assignment
    c = count_tensor(inst, state)
    everyone = range(inst.t + 1)
    subsets = [(everyone, range(types.num_columns))]
    for size in (2, 3):
        for rows in itertools.permutations(everyone, size):
            cols = sorted({j for i in rows for j, x in enumerate(state[i])
                           if x})
            if cols:
                subsets.append((rows, cols))
    free = dataclasses.replace(types, costs=tuple(
        (0,) * types.num_columns for _ in everyone))
    for k in range(inst.schema.num_features):
        lam = data.draw(st.integers(0, 3))
        part = dataclasses.replace(inst, weights=TradeoffWeights(
            inst.weights.lambda0, tuple(
                lam if f == k else 0
                for f in range(inst.schema.num_features))))
        # the part without cost: the same types, each at zero cost
        no_cost = dataclasses.replace(part)
        vars(no_cost)["types"] = free
        for with_cost, scored in ((True, part), (False, no_cost)):
            for rows, cols in subsets:
                least, _, _, _ = best_split(
                    scored, rows, cols,
                    [sum(state[i][j] for i in rows) for j in cols],
                    [sum(state[i]) for i in rows])
                held = [row if i in rows else [0] * len(row)
                        for i, row in enumerate(state)]
                value = breakdown_of(scored, held,
                                     count_tensor(scored, held)).objective
                network = flow._part_network(part, state, c, k,
                                             with_cost, rows, cols)
                assert (negative_cycle(*network) is not None) == \
                    (value > least)


def test_negative_cycle_check_matches_networkx():
    # Random arc lists, parallel arcs and self-loops included; the check
    # stops at the first predecessor cycle, and must still answer exactly
    # what a full Bellman-Ford answers. A cycle it returns is a closed walk
    # of the input's arcs with a negative total.
    rng = random.Random(13)
    verdicts = []
    for _ in range(400):
        nodes = rng.randint(1, 12)
        arcs = [(rng.randrange(nodes), rng.randrange(nodes),
                 rng.randint(-6, 12))
                for _ in range(rng.randint(0, 3 * nodes))]
        reference = nx.MultiDiGraph()
        reference.add_nodes_from(range(nodes))
        reference.add_weighted_edges_from(arcs)
        expected = nx.negative_edge_cycle(reference)
        cycle = negative_cycle(nodes, arcs)
        assert (cycle is not None) == expected
        if cycle is not None:
            assert all(arc in arcs for arc in cycle)
            assert all(a[1] == b[0]
                       for a, b in zip(cycle, cycle[1:] + cycle[:1]))
            assert sum(cost for _, _, cost in cycle) < 0
        verdicts.append(expected)
    assert 100 < sum(verdicts) < 300


LADDER_RUNGS = [("class", (10, 40)), ("class", (25, 100)),
                ("class", (50, 200)), ("worker", (10, 40)),
                ("worker", (20, 80))]


@pytest.mark.parametrize("mode, rung", LADDER_RUNGS)
def test_ladder_fixed_points_are_proved_without_a_sweep(monkeypatch, mode,
                                                        rung):
    # Every benchmark ladder rung's fixed point is proved optimal, so its
    # solve ends without a single re-split sweep.
    papers, reviewers = rung
    inst = convert_cost_mode(generate_reviewer_instance(
        papers, [reviewers // 5] * 5, "balanced", 4, seed=1), mode)
    sweeps = []
    sweep = solver._find_resplit

    def counting(*args):
        sweeps.append(args)
        return sweep(*args)

    monkeypatch.setattr(solver, "_find_resplit", counting)
    report = solve(inst)
    assert report.proved_optimal is True
    assert report.refinement_complete is True
    assert report.termination == "optimal"
    assert sweeps == []


def test_optimality_proof_logs_one_line_per_attempt(caplog):
    inst = make(COUPLED_PAIR_TRAP)
    with caplog.at_level(logging.INFO, logger="divmatch"):
        solve(inst)
    assert not [r for r in caplog.records if "proof" in r.getMessage()]
    caplog.clear()
    with caplog.at_level(logging.DEBUG, logger="divmatch"):
        solve(inst)
    lines = [r.getMessage() for r in caplog.records
             if r.getMessage().startswith("optimality proof")]
    # the start, which is also the stalled fixed point, fails the proof
    # once; the refined state passes
    verdicts = [re.fullmatch(r"optimality proof: (proved|not proved) "
                             r"\((\d+) nodes, (\d+) arcs\)", line).group(1)
                for line in lines]
    assert verdicts == ["not proved", "proved"]


def test_a_solve_proves_each_state_at_most_once(monkeypatch):
    # A step proves at most once, so a solve proves at most once more than
    # it commits. At two or more weighted features, the start's failed proof
    # builds the switch-graph; where that graph offers no walk, the re-split
    # sweep follows without proving the unchanged state again.
    # COUPLED_PAIR_TRAP's start is such a state, as are 3 of the random ones.
    calls = []
    proof = solver._proof

    def counted(*args):
        calls.append(args)
        return proof(*args)

    monkeypatch.setattr(solver, "_proof", counted)
    instances = [make(COUPLED_PAIR_TRAP)] + [
        inst for inst in map(random_small_instance, range(300))
        if sum(lam > 0 for lam in inst.weights.lambdas) >= 2]
    for inst in instances:
        calls.clear()
        report = solve(inst)
        assert 1 <= len(calls) <= report.iterations + 1


def test_proved_start_builds_no_graph(monkeypatch):
    # Two weighted features, so the switch-graph search runs; its greedy
    # start is proved optimal, so it ends there with no graph, no detection
    # and no commit.
    inst = make(EIGHT_VS_SIXTEEN)
    calls = []

    def spy(name, fn):
        def called(*args, **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)
        return called

    monkeypatch.setattr(solver, "build_aux_graph",
                        spy("build", solver.build_aux_graph))
    for name, detect in list(solver.DETECTORS.items()):
        monkeypatch.setitem(solver.DETECTORS, name, spy(name, detect))
    report = solve(inst)
    assert calls == []
    assert (report.iterations, report.trace) == (0, [])
    assert report.proved_optimal and report.refinement_complete
    assert report.termination == "optimal"
    assert report.assignment == initial_feasible(inst)
    assert report.breakdown.objective == report.initial_objective == 8


@pytest.mark.parametrize("detector", ["bf", "gr"])
@settings(max_examples=300, deadline=None)
@given(seed=st.integers(0, 10**6))
def test_a_proved_start_has_no_committing_walk(detector, seed):
    # What makes skipping the graph at a proved start exact: wherever the
    # proof accepts the greedy start, the graph built there offers no
    # improving walk. Every walk the detector returns is spurious, is
    # withheld, and detection runs until it returns None.
    inst = random_small_instance(seed)
    start = initial_feasible(inst)
    if flow._proof(inst, start, count_tensor(inst, start))[0] is not None:
        return
    graph = build_aux_graph(inst, start)
    detect = solver.DETECTORS[detector]
    for _ in range(len(graph.edges) + 1):
        walk = detect(graph)
        if walk is None:
            break
        assert graph.gain(moves_of(graph, walk)) > -1
        graph.withhold(walk.edges)
    else:
        raise AssertionError("detection keeps returning walks")
    assert current_state(graph) == start


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 10**6), worker_costs=st.booleans(),
       data=st.data())
def test_one_weighted_feature_cancels_flow_cycles_to_the_optimum(
        seed, worker_costs, data):
    # With at most one weighted feature (none included), drawn from 0..3,
    # the solve cancels flow cycles without building a switch-graph, and
    # ends proved at the oracle's optimum. Each cancel's arc sum is its
    # exact gain.
    inst = random_small_instance(seed, max_n=10 if worker_costs else 12,
                                 max_columns=6,
                                 worker_fraction=float(worker_costs))
    nf = inst.schema.num_features
    weighted = data.draw(st.sampled_from([None, *range(nf)]))
    lam = data.draw(st.integers(0, 3))
    inst = dataclasses.replace(inst, weights=TradeoffWeights(
        inst.weights.lambda0,
        tuple(lam if k == weighted else 0 for k in range(nf))))

    def refuse(*args, **kwargs):
        raise AssertionError("the switch-graph was built")

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(solver, "build_aux_graph", refuse)
        report = solve(inst)
    assert report.termination == "optimal"
    assert report.proved_optimal is True
    assert report.refinement_complete is True
    assert report.breakdown.objective == \
        enumerate_optimal(inst).optimal_objective
    assert all(r.claimed == r.exact <= -1 for r in report.trace)
    assert all(r.source == "flow" for r in report.trace)


def test_one_weighted_feature_iteration_cap_stops_after_the_first_cancel():
    # This instance, with the gender weight off, needs three cancels; a cap
    # of one commits the first and stops with the second pending.
    inst = generate_reviewer_instance(3, [3] * 3, "balanced", 3, seed=6)
    inst = dataclasses.replace(inst, weights=TradeoffWeights(
        inst.weights.lambda0, (inst.weights.lambdas[0], 0)))
    full = solve(inst)
    assert full.iterations == 3
    assert full.proved_optimal is True
    capped = solve(inst, max_iterations=1)
    assert capped.termination == "iteration-cap"
    assert capped.iterations == 1
    assert capped.trace == full.trace[:1]
    assert capped.breakdown.objective == \
        capped.initial_objective + full.trace[0].exact
    assert capped.proved_optimal is False
    assert capped.refinement_complete is False


def test_one_weighted_feature_logs_one_proof_line(caplog):
    # One line per proof: a proved start logs one, and each cancel is the
    # cycle of a failed proof, so three cancels log three failures before
    # the proof that ends the search.
    cancels = generate_reviewer_instance(3, [3] * 3, "balanced", 3, seed=6)
    cancels = dataclasses.replace(cancels, weights=TradeoffWeights(
        cancels.weights.lambda0, (cancels.weights.lambdas[0], 0)))
    for inst, failed in ((make(dict(EIGHT_VS_SIXTEEN, lambdas=[1, 0])), 0),
                         (cancels, 3)):
        caplog.clear()
        with caplog.at_level(logging.DEBUG, logger="divmatch"):
            report = solve(inst)
        assert report.iterations == failed
        verdicts = [re.fullmatch(r"optimality proof: (proved|not proved) "
                                 r"\(\d+ nodes, \d+ arcs\)", r.getMessage())
                    .group(1) for r in caplog.records
                    if r.getMessage().startswith("optimality proof")]
        assert verdicts == ["not proved"] * failed + ["proved"]


# The solver's invariant guards. Each is made to fire by breaking what it
# guards; the CLI reports any of them as an internal solver error (exit 5).
GUARDED = generate_reviewer_instance(10, [8] * 5, "balanced", 4, seed=1)


def test_stall_guard_fires_when_no_walk_improves(monkeypatch):
    # Every walk prices at 0, and no withheld walk is allowed.
    monkeypatch.setattr(solver, "edge_count", lambda t, keys: 0)
    monkeypatch.setattr(AuxGraph, "gain", lambda graph, moves: 0)
    with pytest.raises(RuntimeError) as raised:
        solve(GUARDED)
    assert str(raised.value) == \
        "detection keeps returning non-improving walks"


def test_descent_bound_guard_fires_past_the_bound(monkeypatch):
    assert solve(GUARDED).iterations > 0
    monkeypatch.setattr(solver, "_descent_bound", lambda inst, u0: 0)
    with pytest.raises(RuntimeError) as raised:
        solve(GUARDED)
    assert str(raised.value) == "iterations exceeded the descent bound 0"


def test_bookkeeping_guard_fires_when_the_objective_drifts(monkeypatch):
    # The start is valued one above its true objective, so the running
    # value and the final recomputation disagree.
    greedy_start = solver._greedy_start

    def one_above(inst):
        value, w = greedy_start(inst)
        return value + 1, w

    monkeypatch.setattr(solver, "_greedy_start", one_above)
    with pytest.raises(RuntimeError) as raised:
        solve(GUARDED)
    assert str(raised.value) == \
        "objective bookkeeping drifted from recomputation"


def test_flow_cancel_guard_fires_when_a_cycle_misprices(monkeypatch):
    # With one weighted feature the solve cancels flow cycles; each is
    # priced again from its moves, here one unit above its arc sum.
    inst = dataclasses.replace(GUARDED, weights=TradeoffWeights(1, (1, 0)))
    change_gain = flow.change_gain
    monkeypatch.setattr(flow, "change_gain",
                        lambda *args: change_gain(*args) + 1)
    with pytest.raises(RuntimeError) as raised:
        solve(inst)
    assert str(raised.value) == "a cycle of cost -1 has exact gain 0"
