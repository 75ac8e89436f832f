"""Negative-cycle detection over integer-weighted directed graphs. The
one Bellman-Ford loop, :func:`negative_cycle`, searches the ``(from, to,
cost)`` arcs of a flow network. Goldberg-Radzik
(:func:`goldberg_radzik_detect`) searches the switch-graph in every solve;
:func:`bellman_ford_detect`, the adapter of :func:`negative_cycle` to such
graphs, is its backstop and the tests' reference. The two share one
contract: search a graph's ``node_count`` nodes and its ``succ`` adjacency
lists, and return some simple cycle of strictly negative total weight, or
``None`` when no such cycle exists. Both start from an implicit
super-source with zero-weight arcs to every node, so disconnected
components are covered.

An edge is a ``(src, dst, weight)`` tuple of ints, the form of the flow
arcs. Any object exposing ``node_count``, ``succ`` (per node, a list of
edges) and the per-node integer lists ``bias`` and ``start`` can be
searched, such as the switch-graph of :mod:`divmatch.auxgraph`. A graph
lists in ``succ`` only the edges it offers; the detectors use every listed
edge, in list order, and no other, and return the graph's own edge
objects. A node with no listed out-edge lies on no cycle, and the
detectors treat it like any other: the work it costs is the scan of the
edges into it, which is why the switch-graph offers no edge into a port
it cannot leave.

An edge ``(src, dst, weight)`` weighs ``weight + bias[src] + start[src] -
start[dst]``. :func:`bellman_ford_detect` folds that sum into each arc it
hands to :func:`negative_cycle`. Goldberg-Radzik never folds it: its
labels start at ``start`` instead of 0 and an edge costs ``weight +
bias[src]``, so every label is the folded graph's label plus ``start`` of
its node. ``start`` is a node potential (Ahuja, Magnanti & Orlin, Network
Flows, section 2.4): it cancels from every comparison ``label[u] + cost -
label[v]`` and from every cycle's weight, so the search, the cycle
returned and its ``claimed_weight`` are those of the folded graph.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = [
    "ExchangeCycle",
    "bellman_ford_detect",
    "goldberg_radzik_detect",
    "negative_cycle",
    "DETECTORS",
]


@dataclass
class ExchangeCycle:
    """A closed walk of edges plus its weight sum at detection time."""

    edges: list
    claimed_weight: int

    def __len__(self):
        return len(self.edges)

    def is_closed(self) -> bool:
        e = self.edges
        return bool(e) and all(a[1] == b[0]
                               for a, b in zip(e, e[1:] + e[:1]))


def _cycle_of(edges, bias) -> ExchangeCycle:
    total = sum(weight + bias[src] for src, _, weight in edges)
    if total >= 0:
        raise RuntimeError(f"extracted cycle has weight {total}, expected < 0")
    return ExchangeCycle(list(edges), total)


def bellman_ford_detect(g) -> ExchangeCycle | None:
    """:func:`negative_cycle` over the graph's listed edges, each folded to
    the arc ``(src, dst, weight + bias[src] + start[src] - start[dst])``,
    in list order. Each arc maps back to a listed edge it was folded from,
    so the cycle is returned as the graph's own edge objects."""
    bias, start = g.bias, g.start
    edge_of = {}
    for edges in g.succ:
        for e in edges:
            src, dst, weight = e
            cost = weight + bias[src] + start[src] - start[dst]
            edge_of[src, dst, cost] = e
    cycle = negative_cycle(g.node_count, list(edge_of))
    return None if cycle is None else \
        _cycle_of([edge_of[arc] for arc in cycle], bias)


def negative_cycle(node_count, arcs):
    """A negative cycle of the ``(from, to, cost)`` arcs on nodes
    ``0..node_count-1``, as its arcs in order, or None when no cycle is
    negative.

    Bellman-Ford from all-zero labels, relaxing in place: the labels settle
    within one round per node exactly when no cycle is negative.
    Predecessors are kept on strict improvement, so a cycle among them is
    negative. After each round that changed a label, the last improved
    node's predecessor chain is walked, and the first cycle on it is
    returned. From round ``node_count`` on, every chain is walked."""
    label = [0] * node_count
    pred = [None] * node_count
    rounds = 0
    while True:
        last = None
        for u, v, cost in arcs:
            if label[u] + cost < label[v]:
                label[v] = label[u] + cost
                pred[v], last = (u, v, cost), v
        if last is None:
            return None
        rounds += 1
        cycle = _pred_cycle(pred, (last,) if rounds < node_count
                            else range(node_count))
        if cycle is not None:
            return cycle


def _pred_cycle(pred, starts):
    """The first cycle met walking the predecessor chains from ``starts``,
    as its edges in forward order, or None. ``pred[v]`` is the edge that
    last improved node ``v``, or None; an edge's item 0 is the node it
    leaves. A walk that reaches an earlier start's walk has met no cycle."""
    walk = {}  # node -> the start whose walk reached it first
    for start in starts:
        node = start
        while node not in walk:
            walk[node] = start
            edge = pred[node]
            if edge is None:
                break
            node = edge[0]
        else:
            if walk[node] == start:
                cycle, v = [], node
                while not cycle or v != node:
                    edge = pred[v]
                    cycle.append(edge)
                    v = edge[0]
                cycle.reverse()
                return cycle
    return None


def goldberg_radzik_detect(g) -> ExchangeCycle | None:
    """Label-correcting detection with topological passes.

    Each pass freezes the current labels as potentials, runs a DFS over the
    admissible subgraph (edges of non-positive reduced cost) from candidate
    nodes, and then relaxes out-edges in reverse postorder. A DFS back edge
    closing a stack path that contains a strictly negative reduced cost
    certifies a negative cycle: around a cycle the reduced costs telescope to
    the true weight, which is therefore negative.

    Passes are capped at ``n + 5`` as a backstop; at the cap the verdict
    is delegated to :func:`bellman_ford_detect`, which shares the contract
    and returns the cycle. Solves have not reached the cap: it fell back 0
    times on certify-small run seeds 1-3 and on both ladders.
    """
    n = g.node_count
    succ = g.succ
    bias = g.bias
    dist = list(g.start)

    candidates = list(range(n))
    for _ in range(n + 5):
        # DFS over non-positive reduced-cost edges; labels frozen as
        # potentials, so cycle weights telescope exactly.
        visited = [False] * n
        on_stack = [False] * n
        neg_count = [0] * n
        order: list[int] = []
        for root in candidates:
            if visited[root]:
                continue
            d_root = dist[root] + bias[root]
            for _, v, weight in succ[root]:
                if d_root + weight < dist[v]:
                    break
            else:
                continue  # no strictly negative reduced cost leaves root
            visited[root] = True
            on_stack[root] = True
            stack = [(root, None, iter(succ[root]))]
            while stack:
                u, _entered, it = stack[-1]
                du = dist[u] + bias[u]
                advanced = False
                for e in it:
                    _, v, weight = e
                    rc = du + weight - dist[v]
                    if rc > 0:
                        continue
                    if not visited[v]:
                        visited[v] = True
                        on_stack[v] = True
                        neg_count[v] = neg_count[u] + (1 if rc < 0 else 0)
                        stack.append((v, e, iter(succ[v])))
                        advanced = True
                        break
                    if on_stack[v] and \
                            neg_count[u] + (1 if rc < 0 else 0) > neg_count[v]:
                        # Stack path v..u plus (u, v) has negative total.
                        pos = next(i for i in range(len(stack) - 1, -1, -1)
                                   if stack[i][0] == v)
                        edges = [stack[i][1]
                                 for i in range(pos + 1, len(stack))]
                        edges.append(e)
                        return _cycle_of(edges, bias)
                if not advanced:
                    stack.pop()
                    on_stack[u] = False
                    order.append(u)
        # Relax all out-edges of the visited nodes in reverse postorder.
        order.reverse()
        relabeled = set()
        for u in order:
            du = dist[u] + bias[u]
            for _, v, weight in succ[u]:
                if du + weight < dist[v]:
                    dist[v] = du + weight
                    relabeled.add(v)
        if not relabeled:
            return None
        candidates = sorted(relabeled)
    # The passes ran out with labels still falling; the reference detector
    # finds the cycle.
    return bellman_ford_detect(g)


DETECTORS = {
    "bf": bellman_ford_detect,
    "gr": goldberg_radzik_detect,
}
