import dataclasses
import random

import pytest

from divmatch import negcycle
from divmatch.auxgraph import build_aux_graph
from divmatch.instance import TradeoffWeights, generate_reviewer_instance
from divmatch.negcycle import (_pred_cycle, bellman_ford_detect,
                               goldberg_radzik_detect, negative_cycle)
from divmatch.oracle import enumerate_optimal
from divmatch.solver import solve
from helpers import (SimpleDigraph, has_negative_cycle_exhaustive, price,
                     random_digraph, random_feasible_matrix,
                     random_small_instance, two_pointer_start,
                     with_node_terms)

DETECTORS = [bellman_ford_detect, goldberg_radzik_detect]


def verify_cycle(g, cycle):
    assert cycle.is_closed()
    assert all(e in g.succ[e[0]] for e in cycle.edges)
    total = sum(price(g, e) for e in cycle.edges)
    assert total == cycle.claimed_weight
    assert total <= -1
    nodes = [e[0] for e in cycle.edges]
    assert len(nodes) == len(set(nodes))  # simple


@pytest.mark.parametrize("detect", DETECTORS)
def test_triangle_with_negative_total(detect):
    g = SimpleDigraph(3)
    g.add_edge(0, 1, 1)
    g.add_edge(1, 2, -2)
    g.add_edge(2, 0, 0)
    cycle = detect(g)
    assert cycle is not None
    verify_cycle(g, cycle)
    assert cycle.claimed_weight == -1


@pytest.mark.parametrize("detect", DETECTORS)
def test_non_negative_graph_has_none(detect):
    g = SimpleDigraph(4)
    g.add_edge(0, 1, 0)
    g.add_edge(1, 2, 3)
    g.add_edge(2, 0, 0)
    g.add_edge(2, 3, -1)  # negative edge but no negative cycle
    assert detect(g) is None


@pytest.mark.parametrize("detect", DETECTORS)
def test_two_disjoint_negative_cycles_returns_one(detect):
    g = SimpleDigraph(4)
    g.add_edge(0, 1, -1)
    g.add_edge(1, 0, 0)
    g.add_edge(2, 3, -5)
    g.add_edge(3, 2, 2)
    cycle = detect(g)
    assert cycle is not None
    verify_cycle(g, cycle)


def test_goldberg_radzik_negative_free_dag():
    g = SimpleDigraph(5)
    for u in range(4):
        g.add_edge(u, u + 1, -2)
    assert goldberg_radzik_detect(g) is None


def test_goldberg_radzik_two_cycle():
    g = SimpleDigraph(2)
    g.add_edge(0, 1, -3)
    g.add_edge(1, 0, 1)
    cycle = goldberg_radzik_detect(g)
    assert cycle is not None
    assert cycle.claimed_weight == -2
    assert len(cycle.edges) == 2


def test_goldberg_radzik_falls_back_when_its_passes_run_out(monkeypatch):
    # certify-small run seed 1 #440: one team of 9 from 12 workers. At the
    # two-pointer start, the Goldberg-Radzik passes run out before any DFS
    # closes the switch-graph's negative cycle.
    inst = dataclasses.replace(
        generate_reviewer_instance(1, [1, 2, 3, 3, 3], "balanced", 9,
                                   seed=891623254),
        weights=TradeoffWeights(1, (1, 3)))
    g = build_aux_graph(inst, two_pointer_start(inst))
    found = []

    def spy(graph):
        found.append(bellman_ford_detect(graph))
        return found[-1]

    monkeypatch.setattr(negcycle, "bellman_ford_detect", spy)
    cycle = goldberg_radzik_detect(g)
    assert len(found) == 1
    assert cycle is found[0]
    assert cycle.claimed_weight == -5
    verify_cycle(g, cycle)
    assert solve(inst).breakdown.objective == \
        enumerate_optimal(inst).optimal_objective == 177


@pytest.mark.parametrize("detect", DETECTORS)
def test_disabled_edges_are_invisible(detect):
    # a graph disables an edge by leaving it out of ``succ``
    g = SimpleDigraph(3)
    e = g.add_edge(0, 1, -3)
    g.add_edge(1, 0, 1)
    g.add_edge(0, 2, -1)  # node 0 keeps an edge, listed after the dropped one
    g.succ[0].remove(e)
    assert detect(g) is None
    g.succ[0].insert(0, e)
    cycle = detect(g)
    assert cycle is not None
    verify_cycle(g, cycle)
    assert e in cycle.edges


@pytest.mark.parametrize("detect", DETECTORS)
def test_excluded_edges_are_skipped(detect):
    # the solver excludes a spurious walk by withholding its edges from the
    # switch-graph's ``succ``; detection must not see them until restored
    rng = random.Random(11)
    found = 0
    for seed in range(40):
        inst = random_small_instance(seed + 300, worker_fraction=0.0)
        g = build_aux_graph(inst, random_feasible_matrix(inst, rng))
        cycle = detect(g)
        if cycle is None:
            continue
        found += 1
        excluded = set(cycle.edges)
        g.withhold(excluded)
        again = detect(g)
        if again is not None:
            verify_cycle(g, again)
            assert not excluded & set(again.edges)
        g.restore()
        back = detect(g)
        assert back is not None
        assert back.edges == cycle.edges
    assert found > 5


@pytest.mark.parametrize("detect", DETECTORS)
def test_soundness_on_random_graphs(detect):
    rng = random.Random(7)
    found = 0
    for _ in range(250):
        g = random_digraph(rng, max_nodes=25)
        cycle = detect(g)
        if cycle is not None:
            verify_cycle(g, cycle)
            found += 1
    assert found > 50
    # most nodes dead ends, as the drained output ports of a switch-graph
    found = 0
    for _ in range(250):
        g = random_digraph(rng, max_nodes=25, density=0.5, sinks=0.6)
        cycle = detect(g)
        if cycle is not None:
            verify_cycle(g, cycle)
            found += 1
    assert found > 50


def test_detectors_agree_on_existence():
    rng = random.Random(8)
    for _ in range(300):
        g = random_digraph(rng, max_nodes=30)
        assert (bellman_ford_detect(g) is None) == \
            (goldberg_radzik_detect(g) is None)


@pytest.mark.parametrize("detect", DETECTORS)
def test_completeness_against_enumeration(detect):
    rng = random.Random(9)
    for _ in range(150):
        g = random_digraph(rng, max_nodes=8, density=0.4)
        expected = has_negative_cycle_exhaustive(g)
        assert (detect(g) is not None) == expected
    for _ in range(150):
        g = random_digraph(rng, max_nodes=10, density=0.5, sinks=0.5)
        expected = has_negative_cycle_exhaustive(g)
        assert (detect(g) is not None) == expected


def _positions(g, cycle):
    """A cycle as the positions of its edges in ``g.edges``."""
    if cycle is None:
        return None
    where = {id(e): p for p, e in enumerate(g.edges)}
    return [where[id(e)] for e in cycle.edges], cycle.claimed_weight


@pytest.mark.parametrize("detect", DETECTORS)
def test_node_terms_leave_the_search_unchanged(detect):
    # Labels start at ``start`` and edges cost ``weight + bias[src]``: the
    # same search as on the twin whose weights fold the terms in.
    rng = random.Random(10)
    found = 0
    for sinks in (0.0, 0.5):
        for _ in range(150):
            g = random_digraph(rng, max_nodes=20, density=0.3, sinks=sinks)
            twin = with_node_terms(g, rng)
            cycle = detect(g)
            assert _positions(g, cycle) == _positions(twin, detect(twin))
            if cycle is not None:
                verify_cycle(g, cycle)
                found += 1
    assert found > 50


@pytest.mark.parametrize("detect", DETECTORS)
def test_switch_graph_terms_match_folded_weights(detect):
    # The switch-graph keeps inter prices on its ports; a copy of its
    # offered edges at their full prices and without terms is searched alike.
    rng = random.Random(12)
    found = 0
    for seed in range(30):
        inst = random_small_instance(seed + 500, worker_fraction=0.25)
        g = build_aux_graph(inst, random_feasible_matrix(inst, rng))
        twin = SimpleDigraph(g.node_count)
        offered = [e for edges in g.succ for e in edges]
        for e in offered:
            twin.add_edge(e[0], e[1], price(g, e))
        cycle = detect(g)
        expected = _positions(twin, detect(twin))
        if cycle is None:
            assert expected is None
            continue
        where = {id(e): p for p, e in enumerate(offered)}
        assert ([where[id(e)] for e in cycle.edges],
                cycle.claimed_weight) == expected
        verify_cycle(g, cycle)
        found += 1
    assert found > 5


@pytest.mark.parametrize("detect", DETECTORS)
def test_zero_weight_cycle_is_not_negative(detect):
    g = SimpleDigraph(3)
    g.add_edge(0, 1, 2)
    g.add_edge(1, 2, -2)
    g.add_edge(2, 0, 0)
    assert detect(g) is None


@pytest.mark.parametrize("detect", DETECTORS)
def test_negative_self_loop(detect):
    g = SimpleDigraph(2)
    g.add_edge(0, 0, -1)
    g.add_edge(0, 1, 5)
    cycle = detect(g)
    assert cycle is not None
    assert len(cycle.edges) == 1
    verify_cycle(g, cycle)


@pytest.mark.parametrize("name", sorted(negcycle.DETECTORS))
def test_empty_graph_has_none(name):
    assert negcycle.DETECTORS[name](SimpleDigraph(0)) is None
    assert negative_cycle(0, []) is None


# The one predecessor-chain walk serves both Bellman-Ford loops, over the
# switch-graph's edges and over a flow network's arcs: both are ``(from,
# to, cost)`` tuples. ``edges`` records as predecessors the edges a graph
# holds in its ``succ`` lists, as :func:`bellman_ford_detect` does;
# ``arcs`` records fresh tuples, as :func:`negative_cycle` does.
EDGE_KINDS = ("arcs", "edges")


def _walk(kind, node_count, arcs, starts):
    """``_pred_cycle`` over the predecessors ``arcs``, each ``(u, v, cost)``
    the edge that last improved ``v``, recorded as ``kind``; the cycle
    found, or None."""
    g = SimpleDigraph(node_count)
    pred = [None] * node_count
    for u, v, cost in arcs:
        pred[v] = g.add_edge(u, v, cost) if kind == "edges" else (u, v, cost)
    cycle = _pred_cycle(pred, starts)
    if cycle is None:
        return None
    # closed, in forward order: each arc leaves the node the one before
    # entered
    assert all(a[1] == b[0] for a, b in zip(cycle, cycle[1:] + cycle[:1]))
    # the recorded predecessors themselves, so a switch-graph cycle is made
    # of the graph's own edges
    assert all(e is pred[e[1]] for e in cycle)
    return cycle


@pytest.mark.parametrize("kind", EDGE_KINDS)
def test_pred_walk_of_a_chain_to_a_root_has_no_cycle(kind):
    chain = [(0, 1, -1), (1, 2, -1), (2, 3, -1)]  # 0 was never improved
    assert _walk(kind, 4, chain, [3]) is None
    assert _walk(kind, 4, chain, range(4)) is None


@pytest.mark.parametrize("kind", EDGE_KINDS)
def test_pred_walk_into_an_earlier_start_closes_no_cycle(kind):
    # The walk from 4 runs 4, 3, 2 into the walk from 2 (2, 1, 0), which
    # ended at a root: a node seen before, but not on this start's walk.
    chain = [(0, 1, -1), (1, 2, -1), (2, 3, -1), (3, 4, -1)]
    assert _walk(kind, 5, chain, [2, 4]) is None
    assert _walk(kind, 5, chain, range(5)) is None


@pytest.mark.parametrize("kind", EDGE_KINDS)
def test_pred_walk_finds_a_cycle_on_the_second_start_only(kind):
    # 1's chain ends at the root 0; 5's chain enters the cycle 2 -> 4 ->
    # 3 -> 2 at 2.
    arcs = [(0, 1, -1), (3, 2, -2), (4, 3, 1), (2, 4, -3), (2, 5, 0)]
    assert _walk(kind, 6, arcs, [1]) is None
    cycle = [(2, 4, -3), (4, 3, 1), (3, 2, -2)]
    assert _walk(kind, 6, arcs, [1, 5]) == cycle
    assert _walk(kind, 6, arcs, range(6)) == cycle


@pytest.mark.parametrize("kind", EDGE_KINDS)
def test_pred_walk_finds_a_self_loop(kind):
    arcs = [(1, 1, -1), (1, 0, 2)]
    assert _walk(kind, 2, arcs, [0]) == [(1, 1, -1)]
    assert _walk(kind, 2, arcs, [1]) == [(1, 1, -1)]
