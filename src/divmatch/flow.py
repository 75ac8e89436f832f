"""The convex-cost flow model of the objective: optimality proofs, and the
cancels of the exact search when at most one feature is weighted.

The objective splits into one part per weighted feature k, lambdas[k] *
D_k, with lambda0 * TU added to the first part (with no weighted feature,
the one part lambda0 * TU). Alone, a part is a separable convex-cost flow
(Ahuja, Magnanti & Orlin, Network Flows, ch. 14; see :func:`_part_network`),
and a state minimizes it exactly when the part's residual network has no
negative cycle (:func:`~divmatch.negcycle.negative_cycle`). A state that
minimizes every part minimizes their sum. One test, :func:`_part_cycle`,
looks for the first negative part cycle over given rows and types: over
all of them (:func:`_proof`), finding none proves the state a global
optimum; over a few rows, it certifies their split.

With at most one weighted feature the one part is the whole objective, so
the proof is exact and the negative cycle it fails on is an improving
exchange: the solver cancels it (:func:`_cancel`; Klein's cycle
canceling) and proves again, until a proof succeeds. A simple cycle
changes each cell and counter by at most one unit, so its arc sum is its
exact gain, which each cancel checks with the move-list rule of
:func:`~divmatch.auxgraph.net_change` and
:func:`~divmatch.auxgraph.change_gain`; its commit writes it by
:func:`~divmatch.auxgraph.write_change`.

A state is the assignment matrix ``w`` and its count tensor ``c``, over
the instance's worker types, ``inst.types``.
"""

from __future__ import annotations

import logging
from functools import partial

from .auxgraph import change_gain, net_change, write_change
from .negcycle import negative_cycle

__all__: list[str] = []

logger = logging.getLogger(__name__)


def _proof(inst, w, c):
    """``(cycle, nodes)``: :func:`_part_cycle` over every row and type.
    A None ``cycle`` proves the state a global optimum; a cycle says
    nothing unless at most one feature is weighted, where it is an
    improving exchange (:func:`_cancel`). One debug line per call gives the
    verdict and the size of the networks tested."""
    cycle, nodes, arcs = _part_cycle(inst, w, c, range(inst.t + 1),
                                     range(inst.types.num_columns))
    logger.debug("optimality proof: %s (%d nodes, %d arcs)",
                 "proved" if cycle is None else "not proved", nodes, arcs)
    return cycle, nodes


def _part_cycle(inst, w, c, rows, cols):
    """``(cycle, nodes, arcs)``: ``cycle`` is the first negative cycle of
    a part's network over the ``rows``' workers, all of types ``cols``, or
    None, which shows that no split of them, each row keeping its size, has
    a smaller share of the objective than the state. ``nodes`` and ``arcs``
    count the networks tested, in feature order up to the first cycle."""
    weighted = [k for k, lam in enumerate(inst.weights.lambdas) if lam]
    nodes = arcs = 0
    for part, k in enumerate(weighted or [0]):
        count, part_arcs = _part_network(inst, w, c, k, part == 0, rows,
                                         cols)
        nodes += count
        arcs += len(part_arcs)
        cycle = negative_cycle(count, part_arcs)
        if cycle is not None:
            return cycle, nodes, arcs
    return None, nodes, arcs


def _part_network(inst, w, c, k, with_cost, rows, cols):
    """``(node_count, arcs)`` of the residual network of feature ``k``'s
    objective part, lambdas[k] * D_k plus lambda0 * TU ``with_cost``, over
    re-splits of the ``rows``' workers, whose types are among ``cols``, in
    the state ``w``, ``c``.

    Type j sends w[i][j] to node (i, v) at its cost in team i (0 without
    cost): an arc type -> (i, v) adds a unit, and (i, v) -> type, while
    w[i][j] > 0, takes one away. (i, v) sends its counter x = c[i][k][v]
    on to team i: (i, v) -> team adds a unit at lambdas[k] * (2x + 1), and
    team -> (i, v), while x > 0, takes one away at lambdas[k] * (1 - 2x).
    The dummy team adds nothing. Nodes are the types, then (team, value)
    for each value some type has, then the teams, each in the order
    given."""
    lam = inst.weights.lambdas[k]
    lam0 = inst.weights.lambda0 if with_cost else 0
    keys, costs = inst.types.columns, inst.types.costs
    slot = {v: s for s, v in enumerate(sorted({keys[j][k] for j in cols}))}
    teams = len(cols) + len(rows) * len(slot)  # node of the first team
    arcs = []
    for r, i in enumerate(rows):
        row, counts = w[i], c[i][k]
        first = len(cols) + r * len(slot)  # node of (i, the first value)
        lam_i = lam if i else 0
        for v, s in slot.items():
            x = counts[v]
            arcs.append((first + s, teams + r, lam_i * (2 * x + 1)))
            if x:
                arcs.append((teams + r, first + s, lam_i * (1 - 2 * x)))
        for n, j in enumerate(cols):
            node, cost = first + slot[keys[j][k]], lam0 * costs[i][j]
            arcs.append((n, node, cost))
            if row[j]:
                arcs.append((node, n, -cost))
    return teams + len(rows), arcs


def _cancel(inst, w, c, cycle, nodes):
    """The ``flow`` record of canceling ``cycle``, found by :func:`_proof`
    in its network of ``nodes`` nodes at the state ``w``, ``c``, with at
    most one weighted feature: ``cycle_len`` counts its moves, one per type
    node on the cycle, ``(type, team of its in-arc, team of its
    out-arc)``. Raises RuntimeError when the cycle's exact gain is not its
    arc sum or is above -1."""
    types = inst.types.num_columns
    slots = (nodes - types) // (inst.t + 1) - 1  # values per team
    moves = [(to, (u - types) // slots, (after[1] - types) // slots)
             for (u, to, _), after in zip(cycle, cycle[1:] + cycle[:1])
             if to < types]
    change = net_change(inst, w, moves)
    claimed = sum(cost for _, _, cost in cycle)
    exact = change_gain(inst, c, change)
    if exact != claimed or exact > -1:
        raise RuntimeError(f"a cycle of cost {claimed} has exact gain "
                           f"{exact}")
    return ("flow", len(moves), claimed, exact,
            partial(write_change, w, c, change))
