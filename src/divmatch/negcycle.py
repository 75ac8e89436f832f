"""Negative-cycle detection over integer-weighted directed graphs.

Two detectors share one contract: return some enabled simple cycle of
strictly negative total weight, or ``None`` when no such cycle exists. Both
start from an implicit super-source with zero-weight arcs to every node
(all distance labels start at 0), so disconnected components are covered.

Any object exposing ``node_count`` and ``succ`` (adjacency lists of edges
with ``src``, ``dst``, ``weight`` and ``enabled`` attributes) can be
searched, such as the switch-graph of :mod:`divmatch.auxgraph`.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = [
    "ExchangeCycle",
    "bellman_ford_detect",
    "goldberg_radzik_detect",
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
        return bool(e) and all(a.dst == b.src
                               for a, b in zip(e, e[1:] + e[:1]))


def _cycle_of(edges) -> ExchangeCycle:
    total = sum(e.weight for e in edges)
    if total >= 0:
        raise RuntimeError(f"extracted cycle has weight {total}, expected < 0")
    return ExchangeCycle(list(edges), total)


def bellman_ford_detect(g, excluded=None) -> ExchangeCycle | None:
    """Round-synchronized label correction.

    Each of up to ``n`` rounds relaxes every enabled edge against the
    previous round's labels; the labels settle within ``n - 1`` rounds when
    no negative cycle exists (shortest walks are then simple). Predecessor
    links record strict improvements only, so any cycle they form is
    strictly negative (the usual labeling-method lemma); after every round
    the predecessor chain of the last improved node is walked once, and the
    first cycle that materializes is returned, which turns the typical
    cyclic case from n rounds into a handful.
    """
    n = g.node_count
    dist = [0] * n
    pred: list = [None] * n
    for _ in range(n):
        last_changed = -1
        prev = dist[:]
        for u in range(n):
            du = prev[u]
            for e in g.succ[u]:
                if not e.enabled or (excluded is not None and e in excluded):
                    continue
                v = e.dst
                if du + e.weight < dist[v]:
                    dist[v] = du + e.weight
                    pred[v] = e
                    last_changed = v
        if last_changed < 0:
            return None
        cycle = _pred_cycle_from(pred, last_changed)
        if cycle is not None:
            return _cycle_of(cycle)
    # An improvement in round n proves a negative cycle, and by then the
    # improved node's predecessor chain must contain one.
    raise RuntimeError("negative cycle exists but no predecessor cycle found")


def _pred_cycle_from(pred, start):
    """First cycle on the predecessor chain of ``start``, as forward-ordered
    edges, or None when the chain ends at an unimproved node."""
    seen = set()
    node = start
    while node not in seen:
        seen.add(node)
        e = pred[node]
        if e is None:
            return None
        node = e.src
    cycle = []
    cur = node
    while True:
        e = pred[cur]
        cycle.append(e)
        cur = e.src
        if cur == node:
            break
    cycle.reverse()
    return cycle


def goldberg_radzik_detect(g, excluded=None) -> ExchangeCycle | None:
    """Label-correcting detection with topological passes.

    Each pass freezes the current labels as potentials, runs a DFS over the
    admissible subgraph (edges of non-positive reduced cost) from candidate
    nodes, and then relaxes out-edges in reverse postorder. A DFS back edge
    closing a stack path that contains a strictly negative reduced cost
    certifies a negative cycle: around a cycle the reduced costs telescope to
    the true weight, which is therefore negative.

    Passes are capped defensively; on overrun the verdict is delegated to
    :func:`bellman_ford_detect`, which shares the contract.
    """
    n = g.node_count
    dist = [0] * n
    skip = excluded or ()

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
            d_root = dist[root]
            for e in g.succ[root]:
                if e.enabled and e not in skip and \
                        d_root + e.weight < dist[e.dst]:
                    break
            else:
                continue  # no strictly negative reduced cost leaves root
            visited[root] = True
            on_stack[root] = True
            stack = [(root, None, iter(g.succ[root]))]
            while stack:
                u, _entered, it = stack[-1]
                du = dist[u]
                advanced = False
                for e in it:
                    if not e.enabled or e in skip:
                        continue
                    v = e.dst
                    rc = du + e.weight - dist[v]
                    if rc > 0:
                        continue
                    if not visited[v]:
                        visited[v] = True
                        on_stack[v] = True
                        neg_count[v] = neg_count[u] + (1 if rc < 0 else 0)
                        stack.append((v, e, iter(g.succ[v])))
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
                        return _cycle_of(edges)
                if not advanced:
                    stack.pop()
                    on_stack[u] = False
                    order.append(u)
        # Relax all out-edges of the visited nodes in reverse postorder.
        order.reverse()
        relabeled = set()
        for u in order:
            du = dist[u]
            for e in g.succ[u]:
                if not e.enabled or e in skip:
                    continue
                v = e.dst
                if du + e.weight < dist[v]:
                    dist[v] = du + e.weight
                    relabeled.add(v)
        if not relabeled:
            return None
        candidates = sorted(relabeled)
    # A well-formed run never gets here; fall back to the reference detector.
    return bellman_ford_detect(g, excluded=excluded)


DETECTORS = {
    "bf": bellman_ford_detect,
    "bellman_ford": bellman_ford_detect,
    "gr": goldberg_radzik_detect,
    "goldberg_radzik": goldberg_radzik_detect,
}
