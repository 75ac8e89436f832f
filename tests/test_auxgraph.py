import dataclasses
import gc
import json
import random
import tracemalloc
from types import SimpleNamespace

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from divmatch import auxgraph
from divmatch.auxgraph import (INPUT, OUTPUT, CycleApplicationError,
                               GraphTooLargeError,
                               apply_and_update, build_aux_graph, edge_count,
                               moves_of)
from divmatch.instance import (Team, TradeoffWeights, convert_cost_mode,
                               generate_reviewer_instance, parse_instance)
from divmatch.negcycle import DETECTORS, ExchangeCycle
from divmatch.objective import exchange_gain, matrix_from_assignment
from divmatch.solver import _moves_from_split, initial_feasible, solve
from helpers import (current_state, cycle_from_moves, dump_edges, inter_edge,
                     inter_weight, intra_weight, price,
                     random_feasible_assignment, random_feasible_matrix,
                     random_small_instance, random_switch_simple_moves)

LAM11 = TradeoffWeights(1, (1, 1))


def test_intra_weight_one_shared_feature():
    assert intra_weight((0, 0), (0, 1), 1, LAM11) == -2


def test_intra_weight_no_shared_feature():
    assert intra_weight((0, 0), (1, 1), 1, LAM11) == 0


def test_intra_weight_same_combination():
    lam = TradeoffWeights(1, (3, 5))
    assert intra_weight((0, 0), (0, 0), 2, lam) == -16


def test_intra_weight_dummy_switch_is_free():
    assert intra_weight((0, 0), (0, 0), 0, LAM11) == 0


def zero_costs(t):
    """Cost column of a worker that costs nothing in teams 0..t."""
    return (0,) * (t + 1)


def test_inter_weight_loaded_to_empty():
    # moving team holds two workers of each value of the combination,
    # receiving team is empty: per feature (1 - 4) + (1 - 0) = -2
    c = [None,
         [[2, 2], [2, 2]],
         [[0, 0], [0, 0]]]
    w = inter_weight((0, 0), zero_costs(2), 1, 2, c, LAM11)
    assert w == -4


def test_inter_weight_from_dummy():
    c = [None, [[0, 0]]]
    lam = TradeoffWeights(1, (1,))
    assert inter_weight((0,), zero_costs(1), 0, 1, c, lam) == 1


def test_inter_weight_symmetric_teams():
    lam = TradeoffWeights(1, (2, 3))
    c = [None,
         [[3, 1], [2, 2]],
         [[3, 1], [2, 2]]]
    w = inter_weight((0, 1), zero_costs(2), 1, 2, c, lam)
    assert w == 2 * (2 + 3)


def test_inter_weight_includes_costs():
    costs = (0, 4, 9)  # the worker costs 4 in team 1 and 9 in team 2
    lam = TradeoffWeights(2, (1,))
    c = [None, [[1, 0]], [[0, 0]]]
    # cost delta 2*(9-4)=10, diversity (1-2) + (0+1) = 0
    assert inter_weight((0,), costs, 1, 2, c, lam) == 10


def test_inter_weight_rejects_self_move():
    with pytest.raises(ValueError):
        inter_weight((0,), zero_costs(1), 1, 1, [None, [[1]]], LAM11)


def small_instance():
    return parse_instance(json.dumps({
        "features": [{"name": "c", "values": ["A", "B"]},
                     {"name": "g", "values": ["M", "F"]}],
        "workers": [[0, 0], [0, 1], [1, 0], [1, 1],
                    [0, 0], [0, 1], [1, 0], [1, 1]],
        "teams": [{"name": "t1", "demand": 3},
                  {"name": "t2", "demand": 3},
                  {"name": "t3", "demand": 2}],
        "costs": {"mode": "class", "u": [[1, 2], [3, 4], [5, 6]]},
        "lambda0": 1, "lambdas": [1, 2]}))


def test_port_count_class_mode():
    inst = small_instance()
    w = random_feasible_matrix(inst, random.Random(0))
    g = build_aux_graph(inst, w)
    assert inst.types.num_columns == 4
    assert g.node_count == 2 * 4 * (3 + 1) == 32
    ports = [(t, s, k) for t in range(3 + 1) for s in (INPUT, OUTPUT)
             for k in range(4)]
    assert [g.port(g.port_id(*p)) for p in ports] == ports
    assert [g.port(u) for u in range(g.node_count)] == ports
    intra = [e for e in g.edges if g.port(e[0])[1] == INPUT]
    inter = [e for e in g.edges if g.port(e[0])[1] == OUTPUT]
    assert len(intra) == (3 + 1) * 4 * 4
    assert len(inter) == 4 * 3 * (3 + 1)
    assert all(g.port(e[1])[1] == OUTPUT for e in intra)
    assert all(g.port(e[1])[1] == INPUT for e in inter)


@pytest.mark.parametrize("worker_fraction", [0.0, 1.0])
def test_offer_holds_k_plus_t_edges_per_held_key(worker_fraction):
    # The graph stores only its offer: each held key of a team, the dummy
    # team too, offers K intra edges into its output port and t inter edges
    # out of it, after a build and after every commit. ``len(edges)`` makes
    # no edge, and iterating ``edges`` makes them all.
    def offer_size(g):
        held = sum(1 for row in g.w for x in row if x)
        return held * (g.num_keys + g.num_switches - 1)

    dummy_held = 0
    for seed in range(6):
        inst = random_small_instance(seed + 70,
                                     worker_fraction=worker_fraction)
        rng = random.Random(seed)
        g = build_aux_graph(inst, random_feasible_matrix(inst, rng))
        assert sum(map(len, g.succ)) == offer_size(g)
        dummy_held += any(g.w[0])
        for _ in range(5):
            moves = random_switch_simple_moves(g, rng)
            if moves:
                g.apply_moves(moves)
                assert sum(map(len, g.succ)) == offer_size(g)
        assert len(g.edges) == edge_count(inst.t, inst.types.num_columns)
        assert sum(1 for _ in g.edges) == len(g.edges)
    assert dummy_held


def test_build_refuses_a_graph_over_the_size_limit(monkeypatch):
    # The guard prices the most the graph can offer before allocating it.
    # Here K = 4, t = 3 and the teams' demands are 0, 3, 3, 2, so the teams
    # hold at most 8 keys of K + t edges each: 56 edges, half of
    # edge_count's 112, at 84 bytes, 32 ports at 184 and the graph's 8192.
    inst = small_instance()
    assert 56 < edge_count(inst.t, inst.types.num_columns)
    w = random_feasible_matrix(inst, random.Random(0))
    monkeypatch.setattr(auxgraph, "MAX_GRAPH_BYTES", 18784)
    build_aux_graph(inst, w)
    monkeypatch.setattr(auxgraph, "MAX_GRAPH_BYTES", 18783)
    with pytest.raises(GraphTooLargeError, match=" 56 edges"):
        build_aux_graph(inst, w)


@pytest.mark.parametrize("mode", ["class", "worker"])
def test_size_guard_price_covers_the_measured_graph(mode):
    # tracemalloc's peak over a build, at a random state and at the greedy
    # start, stays under the guard's price.
    inst = convert_cost_mode(generate_reviewer_instance(
        10, [8] * 5, "balanced", 4, seed=1), mode)
    inst.types  # built once, not a part of the graph
    for w in (random_feasible_matrix(inst, random.Random(3)),
              initial_feasible(inst)):
        gc.collect()
        tracemalloc.start()
        try:
            build_aux_graph(inst, w)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= auxgraph.graph_price(inst)[1]


def test_edges_are_tuples_the_collector_stops_tracking():
    # An edge is a plain tuple of ints. CPython's cyclic collector stops
    # tracking such a tuple at the first collection that scans it, so the
    # edges of a built graph add nothing to later collections.
    inst = random_small_instance(7, worker_fraction=0.25)
    g = build_aux_graph(inst, random_feasible_matrix(inst, random.Random(7)))
    gc.collect()
    offered = [e for edges in g.succ for e in edges]
    assert offered
    assert all(type(e) is tuple and not gc.is_tracked(e) for e in offered)


def test_port_count_worker_mode():
    inst = random_small_instance(99, worker_fraction=1.0)
    assert inst.costs.mode == "worker"
    assign = random_feasible_assignment(inst, random.Random(1))
    g = build_aux_graph(inst, matrix_from_assignment(inst, assign))
    assert g.node_count == 2 * inst.n * (inst.t + 1)


def test_stored_weights_match_weight_functions():
    # The graph prices edges from per-port terms; the weight functions
    # price each edge on its own. An edge stores only its static part, 0 on
    # an inter edge. Class and worker costs alike. An edge is offered while
    # it runs into a held output port or out of one.
    instances = [small_instance(),
                 convert_cost_mode(small_instance(), "worker")]
    instances += [random_small_instance(seed, worker_fraction=1.0)
                  for seed in range(300, 306)]
    for n, inst in enumerate(instances):
        types = inst.types
        w = random_feasible_matrix(inst, random.Random(2 + n))
        g = build_aux_graph(inst, w)
        for e in g.edges:
            src, dst, weight = e
            team_from, side, key_from = g.port(src)
            team_to, _, key_to = g.port(dst)
            if side == INPUT:
                expected = intra_weight(types.columns[key_from],
                                        types.columns[key_to],
                                        team_from, inst.weights)
                live = w[team_from][key_to] >= 1
            else:
                costs = [row[key_from] for row in types.costs]
                expected = inter_weight(types.columns[key_from], costs,
                                        team_from, team_to, g.c,
                                        inst.weights)
                live = w[team_from][key_from] >= 1
            assert (e in g.succ[src]) == live
            assert price(g, e) == expected
            assert weight == (expected if side == INPUT else 0)


def test_apply_then_revert_restores_graph():
    inst = small_instance()
    rng = random.Random(3)
    w = random_feasible_matrix(inst, rng)
    g = build_aux_graph(inst, w)
    moves = random_switch_simple_moves(g, rng)
    assert moves is not None
    before = dump_edges(g)
    apply_and_update(g, cycle_from_moves(g, moves))
    reverse = [(key, i2, i1) for key, i1, i2 in reversed(moves)]
    apply_and_update(g, cycle_from_moves(g, reverse))
    assert dump_edges(g) == before
    assert current_state(g) == w


def test_moving_last_worker_disables_outgoing_edges():
    inst = small_instance()
    w = [[0, 0, 0, 0],
         [1, 1, 1, 0],
         [1, 1, 0, 1],
         [0, 0, 1, 1]]
    g = build_aux_graph(inst, w)
    # team 1 holds exactly one worker of column 0; swap it against column 1
    # of team 2
    moves = [(0, 1, 2), (1, 2, 1)]
    apply_and_update(g, cycle_from_moves(g, moves))
    assert g.w[1][0] == 0
    for i2 in range(4):
        if i2 != 1:
            edge = inter_edge(g, 0, 1, i2)
            assert edge not in g.succ[edge[0]]
        if i2 != 2:
            edge = inter_edge(g, 1, 2, i2)
            assert (edge in g.succ[edge[0]]) is (g.w[2][1] >= 1)


def test_untouched_team_pair_keeps_weights():
    inst = small_instance()
    rng = random.Random(4)
    w = random_feasible_matrix(inst, rng)
    g = build_aux_graph(inst, w)
    # exchange strictly between teams 1 and 2; edges between 0 and 3 frozen
    moves = None
    for _ in range(200):
        cand = random_switch_simple_moves(g, rng, max_len=2)
        if cand and {m[1] for m in cand} == {1, 2}:
            moves = cand
            break
    if moves is None:
        pytest.skip("no applicable two-team exchange in sampled state")
    frozen = [(key, price(g, inter_edge(g, key, 0, 3)),
               price(g, inter_edge(g, key, 3, 0)))
              for key in range(g.num_keys)]
    apply_and_update(g, cycle_from_moves(g, moves))
    for key, w03, w30 in frozen:
        assert price(g, inter_edge(g, key, 0, 3)) == w03
        assert price(g, inter_edge(g, key, 3, 0)) == w30


def test_apply_rejects_disabled_edge():
    inst = small_instance()
    w = [[0, 0, 0, 0],
         [2, 1, 0, 0],
         [0, 1, 2, 0],
         [0, 0, 0, 2]]
    g = build_aux_graph(inst, w)
    before = dump_edges(g)
    # team 1 holds no column-3 worker, so this cycle rides a disabled edge
    with pytest.raises(CycleApplicationError, match="disabled"):
        apply_and_update(g, cycle_from_moves(g, [(3, 1, 2), (1, 2, 1)]))
    assert dump_edges(g) == before
    assert current_state(g) == w


def test_apply_rejects_an_open_walk():
    inst = small_instance()
    w = [[0, 0, 0, 0],
         [2, 1, 0, 0],
         [0, 1, 2, 0],
         [0, 0, 0, 2]]
    g = build_aux_graph(inst, w)
    before = dump_edges(g)
    closed = cycle_from_moves(g, [(0, 1, 2), (2, 2, 1)])
    assert closed.is_closed()
    for edges in (closed.edges[:-1], closed.edges[1:], []):
        with pytest.raises(CycleApplicationError) as raised:
            apply_and_update(g, ExchangeCycle(edges, closed.claimed_weight))
        assert str(raised.value) == "cycle edges do not form a closed walk"
        assert dump_edges(g) == before
        assert current_state(g) == w


def test_withhold_keeps_the_order_of_the_rest():
    inst = small_instance()
    w = random_feasible_matrix(inst, random.Random(8))
    g = build_aux_graph(inst, w)
    before = dump_edges(g)
    port = g.port_id(2, INPUT, 1)
    edges = g.row(port)
    assert w[2] == [1, 1, 1, 0]  # so out(2, 3) is drained
    assert g.succ[port] == edges[:3]
    g.withhold([edges[1]])
    assert g.succ[port] == [edges[0], edges[2]]
    g.withhold([edges[2], edges[1]])  # withholding adds up
    assert g.succ[port] == [edges[0]]
    assert g.row(port) == edges  # the row is made whole, afresh
    g.restore()
    assert g.succ[port] == edges[:3]
    assert dump_edges(g) == before
    g.restore()  # nothing withheld
    assert dump_edges(g) == before


@pytest.mark.parametrize("worker_fraction", [0.0, 1.0])
def test_incremental_matches_rebuild(worker_fraction):
    rng = random.Random(5)
    for seed in range(12):
        inst = random_small_instance(seed + 40,
                                     worker_fraction=worker_fraction)
        if inst.costs.mode == "class":
            state = random_feasible_matrix(inst, rng)
        else:
            state = matrix_from_assignment(
                inst, random_feasible_assignment(inst, rng))
        g = build_aux_graph(inst, state)
        for _ in range(8):
            moves = random_switch_simple_moves(g, rng)
            if moves is None:
                break
            apply_and_update(g, cycle_from_moves(g, moves))
            fresh = build_aux_graph(inst, current_state(g))
            assert dump_edges(g) == dump_edges(fresh)


def test_single_visit_cycle_weight_equals_gain():
    rng = random.Random(6)
    checked = 0
    for seed in range(40):
        inst = random_small_instance(seed + 80, worker_fraction=0.0)
        w = random_feasible_matrix(inst, rng)
        g = build_aux_graph(inst, w)
        moves = random_switch_simple_moves(g, rng)
        if moves is None:
            continue
        cycle = cycle_from_moves(g, moves)
        after = [list(row) for row in w]
        for key, i1, i2 in moves:
            after[i1][key] -= 1
            after[i2][key] += 1
        assert cycle.claimed_weight == exchange_gain(inst, w, after)
        checked += 1
    assert checked >= 20


def test_moves_of_lists_inter_edges_in_order():
    inst = small_instance()
    w = random_feasible_matrix(inst, random.Random(7))
    g = build_aux_graph(inst, w)
    moves = random_switch_simple_moves(g, random.Random(8))
    cycle = cycle_from_moves(g, moves)
    assert moves_of(g, cycle) == moves
    assert cycle.is_closed()


def test_dump_format_golden():
    inst = parse_instance(json.dumps({
        "features": [{"name": "c", "values": ["A", "B"]}],
        "workers": [[0], [1]],
        "teams": [{"name": "t1", "demand": 2}],
        "costs": {"mode": "class", "u": [[1, 2]]},
        "lambda0": 1, "lambdas": [1]}))
    g = build_aux_graph(inst, [[0, 0], [1, 1]])
    assert dump_edges(g) == """\
0:in:0 -> 0:out:0 0 intra false
0:in:0 -> 0:out:1 0 intra false
0:in:1 -> 0:out:0 0 intra false
0:in:1 -> 0:out:1 0 intra false
1:in:0 -> 1:out:0 -2 intra true
1:in:0 -> 1:out:1 0 intra true
1:in:1 -> 1:out:0 0 intra true
1:in:1 -> 1:out:1 -2 intra true
0:out:0 -> 1:in:0 4 inter false
0:out:1 -> 1:in:1 5 inter false
1:out:0 -> 0:in:0 -2 inter true
1:out:1 -> 0:in:1 -3 inter true
"""


@pytest.mark.parametrize("worker_fraction", [0.0, 1.0])
def test_finders_return_every_edge_by_position(worker_fraction):
    # ``row`` makes an input port's out-edges in output-key order and an
    # output port's in target-team order with its own team skipped.
    for seed in range(6):
        inst = random_small_instance(seed + 60,
                                     worker_fraction=worker_fraction)
        w = random_feasible_matrix(inst, random.Random(seed))
        g = build_aux_graph(inst, w)
        for e in g.edges:
            src, dst, _ = e
            team_from, side, key_from = g.port(src)
            team_to, _, key_to = g.port(dst)
            if side == INPUT:
                position = key_to
            else:
                position = team_to - (team_to > team_from)
            assert g.row(src)[position] == e


def _applicable(g, moves):
    w = current_state(g)
    for key, i1, i2 in moves:
        if w[i1][key] <= 0:
            return False
        w[i1][key] -= 1
        w[i2][key] += 1
    return True


def _two_walks_through_a_team(g, rng):
    """Two switch-simple walks joined at a shared team: a closed walk that
    visits that team twice."""
    a = random_switch_simple_moves(g, rng)
    b = random_switch_simple_moves(g, rng)
    if not a or not b:
        return None
    shared = sorted({m[1] for m in a} & {m[1] for m in b})
    if not shared:
        return None
    team = rng.choice(shared)
    ia = [m[1] for m in a].index(team)
    ib = [m[1] for m in b].index(team)
    moves = a[ia:] + a[:ia] + b[ib:] + b[:ib]
    return moves if _applicable(g, moves) else None


def _random_resplit(g, rng):
    """Moves realizing a random feasible split of two or three rows."""
    rows = sorted(rng.sample(range(g.num_switches),
                             min(g.num_switches, rng.choice((2, 3)))))
    cols = [j for j in range(g.num_keys) if any(g.w[i][j] for i in rows)]
    caps = [sum(g.w[i]) for i in rows]
    split = [[0] * len(cols) for _ in rows]
    for cj, j in enumerate(cols):
        for _ in range(sum(g.w[i][j] for i in rows)):
            ri = rng.choice([r for r, cap in enumerate(caps) if cap])
            caps[ri] -= 1
            split[ri][cj] += 1
    return _moves_from_split(g.w, rows, cols, split)


def _apply_chain(g, rng, calls):
    """Apply ``calls`` mixed move lists to ``g``, the three makers taking
    turns (a failed attempt is retried), and yield the count after each."""
    made = {random_switch_simple_moves: 0, _two_walks_through_a_team: 0,
            _random_resplit: 0}
    done = 0
    for _ in range(3000):
        maker = min(made, key=made.get)
        moves = maker(g, rng)
        if not moves:
            continue
        g.apply_moves(moves)
        made[maker] += 1
        done += 1
        yield done
        if done == calls:
            break
    assert done == calls
    assert min(made.values()) == calls // 3


CHAIN_INSTANCES = pytest.mark.parametrize("inst", [
    generate_reviewer_instance(10, [8] * 5, "balanced", 4, seed=1),
    random_small_instance(195, max_n=12, max_columns=6,
                          worker_fraction=1.0),
], ids=["ladder-class-10-40", "small-worker"])


@CHAIN_INSTANCES
def test_weight_shifts_stay_exact_over_a_long_chain(inst):
    # Each commit resets the touched teams' ports from their rows, so
    # compare the live graph with a rebuild along 300 mixed move lists.
    g = build_aux_graph(inst, initial_feasible(inst))
    for calls in _apply_chain(g, random.Random(17), 300):
        if calls % 25 == 0:  # the 300th call is the last
            fresh = build_aux_graph(inst, current_state(g))
            assert dump_edges(g) == dump_edges(fresh)


def _assert_live_offer(g):
    """Each input port offers exactly its intra edges into its team's held
    output ports, in key order; each output port offers, exactly while
    held, all its inter edges, in team order."""
    for u in range(g.node_count):
        team, side, key = g.port(u)
        if side == INPUT:
            into = [k for k, x in enumerate(g.w[team]) if x]
            assert [g.port(e[1]) for e in g.succ[u]] == \
                [(team, OUTPUT, k) for k in into]
        else:
            into = [i for i in range(g.num_switches) if i != team] \
                if g.w[team][key] else []
            assert [g.port(e[1]) for e in g.succ[u]] == \
                [(i, INPUT, key) for i in into]
        row = g.row(u)
        assert all(e in row for e in g.succ[u])


@CHAIN_INSTANCES
def test_detector_adjacency_lists_the_enabled_edges_after_every_apply(inst):
    g = build_aux_graph(inst, initial_feasible(inst))
    _assert_live_offer(g)
    pick = random.Random(29)
    found = 0
    for calls in _apply_chain(g, random.Random(23), 200):
        _assert_live_offer(g)
        if calls % 20 == 0:  # detected cycles move only held workers
            for detect in (DETECTORS["bf"], DETECTORS["gr"]):
                cycle = detect(g)
                if cycle is not None:
                    assert all(g.w[i1][key] >= 1
                               for key, i1, _ in moves_of(g, cycle))
                    found += 1
            offered = [e for edges in g.succ for e in edges]
            g.withhold(pick.sample(offered, min(len(offered), 8)))
            g.restore()
            _assert_live_offer(g)
    assert found >= 10
    drained = [g.port_id(i, OUTPUT, key) for i in range(g.num_switches)
               for key in range(g.num_keys) if g.w[i][key] == 0]
    assert drained and all(not g.succ[u] for u in drained)


@CHAIN_INSTANCES
def test_commit_while_edges_are_withheld_matches_rebuild_after_restore(inst):
    # The solver commits the walk it finds after withholding a spurious one
    # with those edges still withheld, and the next step restores them.
    g = build_aux_graph(inst, initial_feasible(inst))
    pick = random.Random(31)
    chain = _apply_chain(g, random.Random(37), 60)
    while True:
        offered = [e for edges in g.succ for e in edges]
        g.withhold(pick.sample(offered, min(len(offered), 8)))
        if next(chain, None) is None:  # the chain made its 60 commits
            break
        g.restore()
        _assert_live_offer(g)
        assert dump_edges(g) == \
            dump_edges(build_aux_graph(inst, current_state(g)))


def _offer(g):
    return [[e[:2] for e in edges] for edges in g.succ]


@pytest.mark.parametrize("mode", ["class", "worker"])
def test_withhold_and_restore_between_commits_equal_a_rebuild(mode):
    # No offer outlives a setting of its team's ports, so after a withhold
    # and restore between commits the offer equals a rebuild's.
    inst = convert_cost_mode(
        generate_reviewer_instance(3, [8] * 3, "balanced", 6, seed=1), mode)
    g = build_aux_graph(inst, initial_feasible(inst))
    pick = random.Random(41)
    for calls in _apply_chain(g, random.Random(43), 60):
        if calls % 10 == 0:
            offered = [e for edges in g.succ for e in edges]
            g.withhold(pick.sample(offered, min(len(offered), 8)))
            g.restore()
            assert _offer(g) == \
                _offer(build_aux_graph(inst, current_state(g)))


def _full_offer(g, node):
    """The edges a port would offer if every switch joined each input port
    to each output port: all of an input port's intra edges, and a held
    output port's inter edges into every other row."""
    team, side, key = g.port(node)
    return g.row(node) if side == INPUT or g.w[team][key] else []


@settings(max_examples=300, deadline=None)
@given(seed=st.integers(0, 10**6), worker_costs=st.booleans(),
       lambdas=st.lists(st.integers(0, 3), min_size=3, max_size=3),
       fill_dummy=st.booleans(),
       state=st.sampled_from(["greedy", "random", "walked", "solved"]),
       steps=st.integers(1, 4))
def test_live_offer_hides_no_cycle(seed, worker_costs, lambdas, fill_dummy,
                                   state, steps):
    # An edge into a port with no offered out-edge lies on no cycle, so
    # both detectors give the same verdict on the live offer as on every
    # intra edge plus every held port's inter edges.
    inst = random_small_instance(seed, worker_fraction=float(worker_costs))
    teams = inst.teams
    if fill_dummy:  # the last team takes the dummy row's workers
        last = teams[-1]
        teams = teams[:-1] + (Team(last.name, last.demand + inst.demand(0)),)
    weights = TradeoffWeights(inst.weights.lambda0,
                              tuple(lambdas[:inst.schema.num_features]))
    inst = dataclasses.replace(inst, teams=teams, weights=weights)
    rng = random.Random(seed)
    if state == "random":
        w = random_feasible_matrix(inst, rng)
    elif state == "solved":
        w = solve(inst, max_iterations=steps).assignment
    else:
        w = initial_feasible(inst)
    g = build_aux_graph(inst, w)
    if state == "walked":  # the offer kept by apply_moves, not by a build
        for _ in range(steps):
            moves = random_switch_simple_moves(g, rng)
            if moves:
                g.apply_moves(moves)
    full = SimpleNamespace(node_count=g.node_count, bias=g.bias,
                           start=g.start,
                           succ=[_full_offer(g, u)
                                 for u in range(g.node_count)])
    verdicts = {detect(graph) is None for detect in DETECTORS.values()
                for graph in (g, full)}
    assert len(verdicts) == 1
    # Stronger: the live offer is the full one less edges on no cycle, so
    # it keeps every edge inside a strongly connected component.
    live = {e for edges in g.succ for e in edges}
    offered = [e for edges in full.succ for e in edges]
    assert live <= set(offered)
    parts = nx.DiGraph(e[:2] for e in offered)
    part = {u: p for p, nodes in
            enumerate(nx.strongly_connected_components(parts))
            for u in nodes}
    assert all(e in live for e in offered if part[e[0]] == part[e[1]])
