import random

import pytest

from divmatch.auxgraph import build_aux_graph
from divmatch.instance import build_combination_index
from divmatch.negcycle import bellman_ford_detect, goldberg_radzik_detect
from helpers import (SimpleDigraph, has_negative_cycle_exhaustive,
                     random_digraph, random_feasible_matrix,
                     random_small_instance)

DETECTORS = [bellman_ford_detect, goldberg_radzik_detect]


def verify_cycle(g, cycle):
    assert cycle.is_closed()
    assert all(e in g.succ[e.src] for e in cycle.edges)
    total = sum(e.weight for e in cycle.edges)
    assert total == cycle.claimed_weight
    assert total <= -1
    nodes = [e.src for e in cycle.edges]
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
        index = build_combination_index(inst)
        g = build_aux_graph(inst, random_feasible_matrix(inst, index, rng),
                            index)
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
