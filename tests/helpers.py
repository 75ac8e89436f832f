"""Shared generators and independent reference oracles for the test suite."""

from __future__ import annotations

import itertools
import random

import networkx as nx

from divmatch.instance import (CostModel, Feature, FeatureSchema, Instance,
                               Team, TradeoffWeights, build_combination_index)


class SimpleEdge:
    __slots__ = ("src", "dst", "weight", "enabled", "kind")

    def __init__(self, src, dst, weight):
        self.src = src
        self.dst = dst
        self.weight = weight
        self.enabled = True
        self.kind = "edge"

    def __repr__(self):
        return f"SimpleEdge({self.src}->{self.dst} w={self.weight})"


class SimpleDigraph:
    """Plain adjacency-list digraph with the ``node_count``/``succ`` surface
    the cycle detectors search."""

    def __init__(self, node_count: int):
        self.node_count = node_count
        self.succ: list[list[SimpleEdge]] = [[] for _ in range(node_count)]
        self.edges: list[SimpleEdge] = []

    def add_edge(self, src: int, dst: int, weight: int) -> SimpleEdge:
        e = SimpleEdge(src, dst, weight)
        self.succ[src].append(e)
        self.edges.append(e)
        return e


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


def random_feasible_matrix(inst, index, rng):
    """Uniform-ish feasible assignment matrix with correct margins."""
    caps = [inst.demand(i) for i in range(inst.t + 1)]
    w = [[0] * index.num_columns for _ in range(inst.t + 1)]
    for j, m in enumerate(index.multiplicities):
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
                    if graph._available(team, key)]
            if not keys:
                ok = False
                break
            moves.append((rng.choice(keys), team,
                          picked[(p + 1) % length]))
        if ok:
            return moves
    return None


def random_digraph(rng, max_nodes=50, weight_lo=-10, weight_hi=10,
                   density=0.3):
    n = rng.randint(2, max_nodes)
    g = SimpleDigraph(n)
    for u in range(n):
        for v in range(n):
            if u != v and rng.random() < density:
                g.add_edge(u, v, rng.randint(weight_lo, weight_hi))
    return g


def has_negative_cycle_exhaustive(g: SimpleDigraph) -> bool:
    """Independent ground truth via full simple-cycle enumeration."""
    dg = nx.DiGraph()
    dg.add_nodes_from(range(g.node_count))
    for e in g.edges:
        if e.enabled:
            dg.add_edge(e.src, e.dst, weight=e.weight)
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
    index = build_combination_index(inst)
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
                w = [[0] * index.num_columns for _ in caps]
                for worker, i in enumerate(assign):
                    w[i][index.worker_to_column[worker]] += 1
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


def reference_resplit_sweep(inst, graph, max_rows):
    """The re-split sweep written as its plain per-subset rule, without the
    skip shortcuts: for every subset of 2..``max_rows`` rows in order, build
    its columns, charge ``split_count`` states to the per-subset and
    per-sweep budgets (read from the solver at call time), and enumerate it
    when admitted. Returns ``(found, complete, skipped, left)`` like the
    solver's sweep and its budget."""
    from divmatch import solver
    from divmatch.oracle import best_split, split_count

    index, w, lam = graph.index, graph.w, inst.weights
    left, skipped = solver.REFINE_SCAN_BUDGET, 0

    def share(i):
        if i == 0:
            return 0
        counts = {}
        for j, x in enumerate(w[i]):
            for k, v in enumerate(index.columns[j]):
                counts[k, v] = counts.get((k, v), 0) + x
        return lam.lambda0 * sum(u * x for u, x in zip(index.costs[i], w[i])) \
            + sum(lam.lambdas[k] * m * m for (k, _), m in counts.items())

    for size in range(2, max_rows + 1):
        for rows in itertools.combinations(range(inst.t + 1), size):
            cols = sorted({j for i in rows for j, x in enumerate(w[i]) if x})
            if not cols:
                continue
            pooled = [sum(w[i][j] for i in rows) for j in cols]
            states = split_count(pooled, size)
            if states > solver.REFINE_STATE_BUDGET or states > left:
                skipped += 1
                continue
            left -= states
            order = sorted(range(len(cols)), key=lambda cj: -pooled[cj])
            cols = [cols[cj] for cj in order]
            pooled = [pooled[cj] for cj in order]
            current = sum(share(i) for i in rows)
            best, split, _, _ = best_split(
                inst, index, rows, cols, pooled, [sum(w[i]) for i in rows],
                incumbent=current)
            if split is not None:
                moves = solver._moves_from_split(graph, rows, cols, split)
                return (moves, best - current), False, skipped, left
    return None, not skipped, skipped, left
