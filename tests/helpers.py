"""Shared generators and independent reference oracles for the test suite."""

from __future__ import annotations

import importlib.util
import itertools
import random
from collections import defaultdict
from pathlib import Path

import networkx as nx

import divmatch
from divmatch.auxgraph import INPUT, OUTPUT
from divmatch.instance import (CostModel, Feature, FeatureSchema, Instance,
                               Team, TradeoffWeights)
from divmatch.negcycle import ExchangeCycle


class SimpleDigraph:
    """Plain adjacency-list digraph with the ``node_count``/``succ`` surface
    the cycle detectors search, and per-node ``bias``/``start`` terms, all
    zero until set. An edge is a ``(src, dst, weight)`` tuple, as on the
    switch-graph."""

    def __init__(self, node_count: int):
        self.node_count = node_count
        self.succ: list[list[tuple]] = [[] for _ in range(node_count)]
        self.edges: list[tuple] = []
        self.bias = [0] * node_count
        self.start = [0] * node_count

    def add_edge(self, src: int, dst: int, weight: int) -> tuple:
        e = (src, dst, weight)
        self.succ[src].append(e)
        self.edges.append(e)
        return e


def price(g, e) -> int:
    """The full price of edge ``e`` of ``g`` (a switch-graph or a
    :class:`SimpleDigraph`): its weight plus the port terms, ``weight +
    bias[src] + start[src] - start[dst]``."""
    src, dst, weight = e
    return weight + g.bias[src] + g.start[src] - g.start[dst]


def inter_edge(g, key: int, i1: int, i2: int):
    """The inter edge of ``g`` that moves a worker of ``key`` from team
    ``i1`` to team ``i2``: ``out(i1, key)``'s out-edges skip its own team.
    :meth:`AuxGraph.row` makes the row of a port never held."""
    return g.row(g.port_id(i1, OUTPUT, key))[i2 - (i2 > i1)]


def current_state(g):
    """Copy of the switch-graph's live assignment matrix."""
    return [list(row) for row in g.w]


def cycle_from_moves(g, moves) -> ExchangeCycle:
    """Assemble the edge walk realizing a closed move sequence.

    ``moves[p]`` must end at the team where ``moves[p+1]`` starts (cyclically);
    the connecting intra edge inside that team pairs the arriving key with the
    departing one. Edges are found by their position in ``out_edges``.
    """
    edges = []
    for p, (key, i1, i2) in enumerate(moves):
        nxt = moves[(p + 1) % len(moves)]
        if i2 != nxt[1]:
            raise ValueError("moves do not form a closed walk")
        edges.append(inter_edge(g, key, i1, i2))
        edges.append(g.out_edges[g.port_id(i2, INPUT, key)][nxt[0]])
    return ExchangeCycle(edges, sum(price(g, e) for e in edges))


def dump_edges(g) -> str:
    """Edge list as text, one line per edge with its full price, for
    golden-file comparisons; the last column says whether ``succ`` offers
    the edge."""
    offered = {e for edges in g.succ for e in edges}
    lines = []
    for e in g.edges:
        src, dst, _ = e
        kind = "intra" if g.port(src)[1] == INPUT else "inter"
        listed = "true" if e in offered else "false"
        lines.append(f"{g.port_repr(src)} -> {g.port_repr(dst)} "
                     f"{price(g, e)} {kind} {listed}")
    return "\n".join(lines) + "\n"


def intra_weight(v_a, v_b, team: int, weights: TradeoffWeights) -> int:
    """Correction for a worker with feature values ``v_a`` entering and one
    with ``v_b`` leaving team ``team``: -2*lambda_k per shared feature value.
    Zero inside the dummy switch."""
    if team == 0:
        return 0
    return -2 * sum(lam for lam, a, b in zip(weights.lambdas, v_a, v_b)
                    if a == b)


def inter_weight(values, costs, from_team: int, to_team: int, c,
                 weights: TradeoffWeights) -> int:
    """Objective change of moving one worker with feature values ``values``
    from ``from_team`` to ``to_team``, given current counts ``c``.
    ``costs[i]`` is the worker's cost in team ``i`` (``costs[0]`` is 0)."""
    if from_team == to_team:
        raise ValueError("inter edge endpoints must be distinct teams")
    # (x-1)^2 - x^2 = 1 - 2x on the leaving side, (x+1)^2 - x^2 = 2x + 1 on
    # the entering side; the dummy team carries no diversity.
    delta = weights.lambda0 * (costs[to_team] - costs[from_team])
    for k, v in enumerate(values):
        lam = weights.lambdas[k]
        if from_team != 0:
            delta += lam * (1 - 2 * c[from_team][k][v])
        if to_team != 0:
            delta += lam * (2 * c[to_team][k][v] + 1)
    return delta


def load_module(name, path):
    """The Python file at ``path``, imported as a module named ``name``."""
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def known_bad_instances():
    """The instances of the benchmark's known-bad list
    (``bench/workloads.py``)."""
    workloads = Path(__file__).resolve().parent.parent / "bench" / \
        "workloads.py"
    return load_module("bench_workloads", workloads).known_bad(divmatch)


def random_small_instance(seed, max_n=10, max_t=3, max_features=3,
                          max_columns=4, max_cost=9,
                          lambda_choices=(1, 1, 2, 3), max_lambda0=2,
                          worker_fraction=0.25):
    """Random instance within the small-scale envelope: n workers drawn from
    at most ``max_columns`` distinct feature combinations, up to ``max_t``
    teams with demands summing to at most n."""
    rng = random.Random(seed)
    nf = rng.randint(1, max_features)
    sizes = [rng.randint(1, 3) for _ in range(nf)]
    schema = FeatureSchema(tuple(
        Feature(f"f{k}", tuple(f"v{k}_{i}" for i in range(sizes[k])))
        for k in range(nf)))
    combos = list(itertools.product(*[range(s) for s in sizes]))
    rng.shuffle(combos)
    pool = combos[:min(len(combos), rng.randint(1, max_columns))]
    n = rng.randint(max(1, len(pool)), max_n)
    workers = tuple(rng.choice(pool) for _ in range(n))
    t = rng.randint(1, max_t)
    demands = []
    left = n
    for _ in range(t):
        d = rng.randint(0, left)
        demands.append(d)
        left -= d
    if rng.random() < 0.4 and left:
        demands[-1] += left
    teams = tuple(Team(f"team{i}", d) for i, d in enumerate(demands))
    mode = "worker" if rng.random() < worker_fraction else "class"
    width = sizes[0] if mode == "class" else n
    table = tuple(tuple(rng.randint(0, max_cost) for _ in range(width))
                  for _ in range(t))
    lambdas = tuple(rng.choice(lambda_choices) for _ in range(nf))
    weights = TradeoffWeights(rng.randint(1, max_lambda0), lambdas)
    return Instance(schema, workers, teams, CostModel(mode, table), weights)


def random_feasible_matrix(inst, rng):
    """Uniform-ish feasible assignment matrix with correct margins."""
    caps = [inst.demand(i) for i in range(inst.t + 1)]
    w = [[0] * inst.types.num_columns for _ in range(inst.t + 1)]
    for j, m in enumerate(inst.types.multiplicities):
        for _ in range(m):
            i = rng.choice([i for i in range(inst.t + 1) if caps[i] > 0])
            caps[i] -= 1
            w[i][j] += 1
    return w


def random_feasible_assignment(inst, rng):
    caps = [inst.demand(i) for i in range(inst.t + 1)]
    assign = [0] * inst.n
    for x in range(inst.n):
        i = rng.choice([i for i in range(inst.t + 1) if caps[i] > 0])
        caps[i] -= 1
        assign[x] = i
    return assign


def random_switch_simple_moves(graph, rng, max_len=4, tries=60):
    """Random applicable closed move walk visiting distinct switches, or
    None when the state admits none of the attempted shapes."""
    teams = list(range(graph.num_switches))
    for _ in range(tries):
        length = rng.randint(2, min(max_len, len(teams)))
        picked = rng.sample(teams, length)
        moves = []
        ok = True
        for p, team in enumerate(picked):
            keys = [key for key in range(graph.num_keys)
                    if graph.w[team][key] >= 1]
            if not keys:
                ok = False
                break
            moves.append((rng.choice(keys), team,
                          picked[(p + 1) % length]))
        if ok:
            return moves
    return None


def random_digraph(rng, max_nodes=50, weight_lo=-10, weight_hi=10,
                   density=0.3, sinks=0.0):
    """Random digraph; a ``sinks`` share of its nodes has no out-edge."""
    n = rng.randint(2, max_nodes)
    g = SimpleDigraph(n)
    dead = set(rng.sample(range(n), int(sinks * n))) if sinks else ()
    for u in range(n):
        if u in dead:
            continue
        for v in range(n):
            if u != v and rng.random() < density:
                g.add_edge(u, v, rng.randint(weight_lo, weight_hi))
    return g


def with_node_terms(g: SimpleDigraph, rng, lo=-20, hi=20):
    """Give ``g`` random integer ``bias``/``start`` terms and return its
    twin without terms: the same edges in the same order, each weighing
    ``g``'s full price."""
    g.bias = [rng.randint(lo, hi) for _ in range(g.node_count)]
    g.start = [rng.randint(lo, hi) for _ in range(g.node_count)]
    twin = SimpleDigraph(g.node_count)
    for e in g.edges:
        twin.add_edge(e[0], e[1], price(g, e))
    return twin


def has_negative_cycle_exhaustive(g: SimpleDigraph) -> bool:
    """Independent ground truth via full simple-cycle enumeration over the
    edges listed in ``succ``."""
    dg = nx.DiGraph()
    dg.add_nodes_from(range(g.node_count))
    for edges in g.succ:
        for e in edges:
            dg.add_edge(e[0], e[1], weight=price(g, e))
    for cycle in nx.simple_cycles(dg):
        total = sum(dg[u][v]["weight"]
                    for u, v in zip(cycle, cycle[1:] + cycle[:1]))
        if total < 0:
            return True
    return False


def direct_objective(inst, assign):
    """Objective of a worker -> team map, counted straight from the
    instance: lambda0 * cost plus lambda_k * squared value counts, over the
    real teams."""
    by_class = inst.costs.mode == "class"
    value = 0
    counts = {}
    for x, (fv, i) in enumerate(zip(inst.workers, assign)):
        if i == 0:
            continue
        value += inst.weights.lambda0 * \
            inst.costs.table[i - 1][fv[0] if by_class else x]
        for k, v in enumerate(fv):
            counts[i, k, v] = counts.get((i, k, v), 0) + 1
    return value + sum(inst.weights.lambdas[k] * m * m
                       for (_, k, _), m in counts.items())


def brute_force_optima(inst):
    """Optimum over every feasible worker -> team map (n <= 7), and the set
    of distinct optimal type-count matrices, as tuples of row tuples."""
    if inst.n > 7:
        raise ValueError("brute force is meant for at most 7 workers")
    types = inst.types
    caps = [inst.demand(i) for i in range(inst.t + 1)]
    assign = [0] * inst.n
    best, optima = None, set()

    def fill(x):
        nonlocal best, optima
        if x == inst.n:
            value = direct_objective(inst, assign)
            if best is None or value < best:
                best, optima = value, set()
            if value == best:
                w = [[0] * types.num_columns for _ in caps]
                for worker, i in enumerate(assign):
                    w[i][types.worker_to_column[worker]] += 1
                optima.add(tuple(map(tuple, w)))
            return
        for i, cap in enumerate(caps):
            if cap:
                caps[i] -= 1
                assign[x] = i
                fill(x + 1)
                caps[i] += 1

    fill(0)
    return best, optima


def reference_resplit_sweep(inst, w, max_rows):
    """The re-split sweep written as its plain per-subset rule, without the
    flow certificate: for each size of 2..``max_rows``, and then of all of
    them when they are ``max_rows + 1``, build the columns of every subset
    of that many rows that hold workers in ``w``; charge their
    ``split_count`` states to the sweep's budget (read from the solver at
    call time) cheapest first, skipping those it cannot pay for; then
    enumerate the admitted ones in order. Returns ``(found, complete,
    skipped, left)`` like the solver's sweep and its budget."""
    from divmatch import solver
    from divmatch.oracle import best_split, split_count

    types, lam = inst.types, inst.weights
    left, skipped = solver.REFINE_SCAN_BUDGET, 0

    def share(i):
        if i == 0:
            return 0
        counts = {}
        for j, x in enumerate(w[i]):
            for k, v in enumerate(types.columns[j]):
                counts[k, v] = counts.get((k, v), 0) + x
        return lam.lambda0 * sum(u * x for u, x in zip(types.costs[i], w[i])) \
            + sum(lam.lambdas[k] * m * m for (k, _), m in counts.items())

    filled = [i for i, row in enumerate(w) if any(row)]
    sizes = list(range(2, max_rows + 1))
    if len(filled) == max_rows + 1:
        sizes.append(len(filled))
    for size in sizes:
        group = []
        for rows in itertools.combinations(filled, size):
            cols = sorted({j for i in rows for j, x in enumerate(w[i]) if x})
            pooled = [sum(w[i][j] for i in rows) for j in cols]
            group.append((split_count(pooled, size), rows, cols, pooled))
        admitted = set()
        for states, rows, _, _ in sorted(group, key=lambda g: g[0]):
            if states > left:
                skipped += 1
            else:
                left -= states
                admitted.add(rows)
        for _, rows, cols, pooled in group:
            if rows not in admitted:
                continue
            order = sorted(range(len(cols)), key=lambda cj: -pooled[cj])
            cols = [cols[cj] for cj in order]
            pooled = [pooled[cj] for cj in order]
            current = sum(share(i) for i in rows)
            best, split, _, _ = best_split(
                inst, rows, cols, pooled, [sum(w[i]) for i in rows],
                incumbent=current)
            if split is not None:
                moves = solver._moves_from_split(w, rows, cols, split)
                return (moves, best - current), False, skipped, left
    return None, not skipped, skipped, left


def two_pointer_start(inst):
    """Greedy two-pointer fill: pour the first non-exhausted type into
    the first unfilled team, advancing whichever runs out; leftover workers
    stay with the dummy team. Runs in O(num_columns + t). A fixed start,
    blind to costs and diversity, for tests that study a mechanism from a
    given state."""
    w = [[0] * inst.types.num_columns for _ in range(inst.t + 1)]
    remaining = list(inst.types.multiplicities)
    j = 0
    for i in range(1, inst.t + 1):
        need = inst.demand(i)
        while need > 0:
            take = min(need, remaining[j])
            w[i][j] += take
            remaining[j] -= take
            need -= take
            if remaining[j] == 0 and need > 0:
                j += 1
    for j, left in enumerate(remaining):
        w[0][j] = left
    return w


def reference_greedy_split(rows, slots, costs, counts, totals):
    """``oracle._greedy_split`` as a plain scan of every (type, row) pair
    per unit, O(units * types * rows): units go one at a time to the
    (type, real row with room) pair of least marginal price at the counters
    so far, ties to the first type, then to the first row; the dummy row,
    if ``rows`` has one, takes what is left. Returns ``(value, split)``."""
    sharers = defaultdict(list)
    for q, row in enumerate(slots):
        for lam, f in row:
            sharers[f].append((q, 2 * lam))
    price = [[cost + sum(lam for lam, _ in slots[p])
              for p, cost in enumerate(row)] for row in costs]
    types = range(len(counts))
    left = list(counts)
    room = [total if i != 0 else 0 for i, total in zip(rows, totals)]
    split = [[0] * len(counts) for _ in rows]
    value = 0
    for _ in range(sum(room)):
        least, p, r = min([(row[p], p, r) for r, row in enumerate(price)
                           if room[r] for p in types if left[p]])
        value += least
        left[p] -= 1
        room[r] -= 1
        split[r][p] += 1
        for _, f in slots[p]:
            for q, step in sharers[f]:
                price[r][q] += step
    if 0 in rows:
        split[rows.index(0)] = left
    return value, split
