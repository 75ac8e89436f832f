"""Auxiliary switch-graph whose negative cycles are beneficial exchanges.

Every team (including the dummy team 0) is a switch with one input and one
output port per mover key. A key is one of the instance's worker types,
``inst.types``: a feature vector plus a cost column (see
:class:`~divmatch.instance.CombinationIndex`). Ports are
graph nodes, and a port id is one (team, side, key): :meth:`AuxGraph.port_id`
makes it and :meth:`AuxGraph.port` reads it back. An edge is a ``(src, dst,
weight)`` tuple: its two port ids and its static weight, the form of the
flow networks' arcs (:mod:`divmatch.flow`). Its team, key and kind are read
off its ports:

* intra edges run input -> output inside one switch and carry the correction
  ``-2 * lambdas[k]`` for every feature k on which the two keys agree (zero
  inside the dummy switch, which never contributes to the objective),
* inter edges run from the output port of one team to the same key's input
  port of another team and are priced at the exact objective change of
  moving one such worker between the two teams, given the current counts.
  An edge out of an output port is a move ``(key, its team, the target
  port's team)``.

For a cycle that visits each switch at most once, the sum of its edges'
prices equals the true objective change of performing all its moves: the
inter edges price each move against the untouched counters and the intra
correction cancels the double count that appears when the worker entering a
switch shares a feature value with the worker leaving it.

An intra price depends on the two keys alone, so one K x K table serves
every real switch. An inter price splits into a term of its source port,
one of its target port and the cost difference: ``leave[i1][key] +
enter[i2][key] + lambda0 * (cost[i2][key] - cost[i1][key])``, with
``leave[i][key] = sum_k lambdas[k] * (1 - 2 * c[i][k][v_k])`` and
``enter[i][key] = sum_k lambdas[k] * (2 * c[i][k][v_k] + 1)``, both zero at
the dummy team. The graph keeps those terms on its ports, not on its edges.
An edge's own ``weight`` is its static part: the intra correction, or 0 on
an inter edge. Two per-port lists hold the rest: ``bias`` is ``leave[i][key]
- lambda0 * cost[i][key]`` at ``out(i, key)`` and ``enter[i][key] + lambda0
* cost[i][key]`` at ``in(i, key)``; ``start`` is ``-bias`` at input ports
and 0 at output ports. An edge's price is ``weight + bias[src] +
start[src] - start[dst]``: the two port terms on an inter edge, the weight
alone on an intra edge. The cycle detectors read ``bias`` and ``start`` as
node terms (see :mod:`divmatch.negcycle`).

The graph keeps live assignment counters and stores only its offer: an
edge is made when its port offers it. :meth:`AuxGraph.row` makes a port's
out-edges afresh: an input port's intra edges in output-key order, priced
from the K x K table, and an output port's inter row in target-team order
(own team skipped), so edges are found by position. Everything a team's
ports hold, its offer and its port terms, is a function of its row of
``w`` and its counters, set by one per-team method,
:meth:`AuxGraph._set_ports`: for every team when the graph is built, and
after an exchange for each team whose row changed. ``edges`` lists every
edge; its ``len`` is :func:`edge_count` and makes none.

A move list means its net change alone, :func:`net_change`, which
:func:`change_gain` prices and :func:`write_change` writes into ``w`` and
``c``. :meth:`AuxGraph.gain` prices a list by the first two, and
:meth:`AuxGraph.apply_moves` commits it from that one net change;
both reject, before anything is written, a list that would overdraw a cell
or change a row's size. The exact search of :mod:`divmatch.flow` prices its
cancels by the same two functions and commits them by the third.

``succ`` offers the detectors the edges they may use, per port in ``row``
order, set from ``w`` alone one team at a time. An output port is held
while its team holds a worker of its key, and drained otherwise (on a
large instance most are drained). A held output port offers its whole row
and a drained one offers nothing, so an edge into a drained port lies on
no cycle: an input port offers only its intra edges into its team's held
output ports, and a team offers |held keys| * (K + t) edges in all. An
inter edge into a row that holds no worker ends at an input port that
offers nothing, so it lies on no cycle either. :meth:`AuxGraph.withhold`
takes a walk's edges out of the offer and :meth:`AuxGraph.restore` sets
their teams' ports anew; no offer is kept, so with nothing withheld the
graph equals a rebuild of ``w``.
"""

from __future__ import annotations

from itertools import repeat
from operator import getitem

from .instance import Instance, TradeoffWeights
from .negcycle import ExchangeCycle
from .objective import check_assignment_matrix, count_tensor

__all__ = [
    "AuxGraph",
    "CycleApplicationError",
    "GraphTooLargeError",
    "build_aux_graph",
    "apply_and_update",
    "edge_count",
]

INPUT, OUTPUT = 0, 1

# Bytes per edge, for the size guard: its tuple (64), its slot in its row
# and a share of the graph's per-port tables. tracemalloc measured 80 over
# a graph of t=50 and K=10 with every inter row made. The guard bounds the
# graph as if every port offered its whole row: the offer holds sum over
# teams of |held keys| * (K + t) edges, at most edge_count.
EDGE_BYTES = 84
# The most bytes a switch-graph may take: build_aux_graph refuses a graph
# whose edge_count times EDGE_BYTES is larger, before it allocates any.
MAX_GRAPH_BYTES = 2**30


class CycleApplicationError(RuntimeError):
    """A cycle could not be applied to the current assignment."""


class GraphTooLargeError(Exception):
    """The switch-graph of an instance would exceed ``MAX_GRAPH_BYTES``."""


def edge_count(t: int, num_keys: int) -> int:
    """The edges of a switch-graph of ``t`` teams and ``num_keys`` keys: K*K
    intra and t*K inter edges per switch."""
    return (t + 1) * num_keys * (num_keys + t)


def _shared_value_correction(v_a, v_b, weights: TradeoffWeights) -> int:
    return -2 * sum(lam for lam, a, b in zip(weights.lambdas, v_a, v_b)
                    if a == b)


class AuxGraph:
    """Live switch-graph over the current assignment matrix.

    Exposes ``node_count``, ``succ`` (per port, the edges offered to
    the cycle detectors) and the per-port price terms ``bias`` and
    ``start``, set one team at a time by :meth:`_set_ports`.
    Single-writer: detection never overlaps mutation.
    """

    def __init__(self, inst: Instance, w):
        self.inst = inst
        self.w = [list(row) for row in w]
        self.num_keys = inst.types.num_columns
        self.num_switches = inst.t + 1
        self.node_count = 2 * self.num_keys * self.num_switches
        self.c = count_tensor(inst, w)
        self._build()

    # -- node ids -----------------------------------------------------------

    def port_id(self, team: int, side: int, key: int) -> int:
        return (team * 2 + side) * self.num_keys + key

    def port(self, node: int) -> tuple[int, int, int]:
        """The ``(team, side, key)`` of a port id; inverts :meth:`port_id`."""
        team, rest = divmod(node, 2 * self.num_keys)
        side, key = divmod(rest, self.num_keys)
        return team, side, key

    def port_repr(self, node: int) -> str:
        team, side, key = self.port(node)
        return f"{team}:{'in' if side == INPUT else 'out'}:{key}"

    # -- construction -------------------------------------------------------

    def _build(self):
        """Price the intra edges of a switch in one K x K table, all zeros
        in the dummy switch, then set each team's ports. Port ids are made
        once, in ``_ports``, so the edges share them."""
        weights = self.inst.weights
        columns = self.inst.types.columns
        real = [[_shared_value_correction(a, b, weights) for b in columns]
                for a in columns]
        dummy = [[0] * self.num_keys] * self.num_keys
        self._intra = [dummy] + [real] * self.inst.t  # per team
        self._ports = list(range(self.node_count))
        self.succ = [()] * self.node_count
        self._withheld = set()  # teams whose ports lost edges to withhold
        self.bias = [0] * self.node_count
        self.start = [0] * self.node_count
        for team in range(self.num_switches):
            self._set_ports(team)

    def row(self, port: int) -> list[tuple]:
        """The out-edges of ``port``, made afresh on each call: an input
        port's intra edges in output-key order, an output port's inter row
        in target-team order, its own team skipped."""
        team, side, key = self.port(port)
        ports, src = self._ports, self._ports[port]
        if side == INPUT:
            mid = self.port_id(team, OUTPUT, 0)
            return list(zip(repeat(src), ports[mid:mid + self.num_keys],
                            self._intra[team][key]))
        dst = ports[key::2 * self.num_keys]
        del dst[team]
        return list(zip(repeat(src), dst, repeat(0)))

    @property
    def edges(self) -> _EdgeList:
        return _EdgeList(self)

    def _set_ports(self, team: int):
        """Set everything the ports of ``team`` hold from its row of ``w``
        and its counters. The offer in ``succ``: an input port offers its
        intra edges into the team's held output ports, in key order; a held
        output port offers its whole inter row, and a drained one offers
        nothing. The port terms of a real team: ``bias`` is
        ``enter[team][key] + lambda0 * cost[team][key]`` at an input port
        and ``leave[team][key] - lambda0 * cost[team][key]`` at an output
        port, and ``start`` is ``-bias`` at an input port and 0 at an
        output port. The dummy team's terms stay 0."""
        row = self.w[team]
        held = [key for key, x in enumerate(row) if x]
        first = self.port_id(team, INPUT, 0)
        mid = first + self.num_keys
        ports, succ, table = self._ports, self.succ, self._intra[team]
        outs = [(key, ports[mid + key]) for key in held]
        succ[first:mid] = [[(src, dst, wgt[key]) for key, dst in outs]
                           for src, wgt in zip(ports[first:mid], table)]
        for port, x in enumerate(row, mid):
            succ[port] = self.row(port) if x else ()
        if not team:
            return
        lambdas = self.inst.weights.lambdas
        lambda0 = self.inst.weights.lambda0
        types = self.inst.types
        base = sum(lambdas)
        # per feature k, lambdas[k] * c[team][k][v] for each value v
        scaled = [[lam * x for x in counts]
                  for lam, counts in zip(lambdas, self.c[team])]
        load = [sum(map(getitem, scaled, values)) for values in types.columns]
        costs = types.costs[team]
        into = [base + 2 * x + lambda0 * u for x, u in zip(load, costs)]
        self.bias[first:mid] = into
        self.bias[mid:mid + self.num_keys] = [
            base - 2 * x - lambda0 * u for x, u in zip(load, costs)]
        self.start[first:mid] = [-x for x in into]

    # -- mutation -----------------------------------------------------------

    def gain(self, moves) -> int:
        """True objective change of applying ``moves`` to the current state,
        by :func:`change_gain` of their :func:`net_change`. Edge prices play
        no part, so a walk that mispriced itself is caught. Raises
        CycleApplicationError as :meth:`apply_moves` does."""
        return change_gain(self.inst, self.c,
                           net_change(self.inst, self.w, moves))

    def apply_moves(self, moves) -> None:
        """Apply moves ``(key, from_team, to_team)``, all or nothing: a list
        that :func:`net_change` rejects leaves the graph as it was. ``w``
        and ``c`` are written by :func:`write_change`, then the ports of
        each team with a nonzero cell change are set anew by
        :meth:`_set_ports`. No edge changes."""
        change = net_change(self.inst, self.w, moves)
        write_change(self.w, self.c, change)
        for team in {team for (team, _), d in change[0].items() if d}:
            self._set_ports(team)

    def withhold(self, edges) -> None:
        """Stop offering ``edges`` until :meth:`restore`: drop them from
        their ports' ``succ`` entries, keeping the order of the rest, and
        record their teams."""
        drop = set(edges)
        for node in {e[0] for e in drop}:
            self.succ[node] = [e for e in self.succ[node] if e not in drop]
            self._withheld.add(self.port(node)[0])

    def restore(self) -> None:
        """Offer again every edge :meth:`withhold` took out: set the teams
        it recorded by :meth:`_set_ports`, and empty the record."""
        for team in self._withheld:
            self._set_ports(team)
        self._withheld.clear()


def net_change(inst: Instance, w, moves):
    """``(cells, counters)``: the net change that the moves ``(key,
    from_team, to_team)`` make to each cell ``(team, key)`` of the
    assignment matrix ``w`` and each counter ``(team, k, v)``. The one rule
    for a move list: only net changes count, in any order. Raises
    CycleApplicationError, before anything is written, when a cell would go
    below zero or a row would change size."""
    cells: dict[tuple, int] = {}
    for key, i1, i2 in moves:
        cells[i1, key] = cells.get((i1, key), 0) - 1
        cells[i2, key] = cells.get((i2, key), 0) + 1
    rows: dict[int, int] = {}
    counters: dict[tuple, int] = {}
    keys = inst.types.columns
    for (team, key), d in cells.items():
        if w[team][key] + d < 0:
            raise CycleApplicationError(
                f"moves overdraw key {key} in team {team}")
        if d:
            rows[team] = rows.get(team, 0) + d
            for k, v in enumerate(keys[key]):
                counters[team, k, v] = counters.get((team, k, v), 0) + d
    for team, d in rows.items():
        if d:
            raise CycleApplicationError(
                f"moves change the size of row {team} by {d}")
    return cells, counters


def change_gain(inst: Instance, c, change) -> int:
    """True objective change of a :func:`net_change` ``(cells, counters)``
    at the count tensor ``c``: ``lambda0 * sum cost[i][key] * d + sum
    lambdas[k] * ((x + d)^2 - x^2)`` over the net changes ``d`` of real
    teams' cells and counters ``x = c[i][k][v]``."""
    cells, counters = change
    lambda0 = inst.weights.lambda0
    lambdas = inst.weights.lambdas
    costs = inst.types.costs
    gain = 0
    for (team, key), d in cells.items():
        if team:
            gain += lambda0 * costs[team][key] * d
    for (team, k, v), d in counters.items():
        if team:
            gain += lambdas[k] * d * (2 * c[team][k][v] + d)
    return gain


def write_change(w, c, change) -> None:
    """Write a :func:`net_change` ``(cells, counters)`` into the assignment
    matrix ``w`` and the count tensor ``c``."""
    cells, counters = change
    for (team, key), d in cells.items():
        w[team][key] += d
    for (team, k, v), d in counters.items():
        c[team][k][v] += d


class _EdgeList:
    """Every edge of a graph: intra edges by team, input key and output
    key, then inter edges by source team, target team and key. Iterating
    makes every edge afresh."""

    __slots__ = ("graph",)

    def __init__(self, graph: AuxGraph):
        self.graph = graph

    def __len__(self):
        return edge_count(self.graph.num_switches - 1, self.graph.num_keys)

    def __iter__(self):
        g = self.graph
        teams, keys = range(g.num_switches), range(g.num_keys)
        for team in teams:
            for key in keys:
                yield from g.row(g.port_id(team, INPUT, key))
        for team in teams:
            rows = [g.row(g.port_id(team, OUTPUT, key)) for key in keys]
            for edges in zip(*rows):  # one target team, all keys
                yield from edges


def build_aux_graph(inst: Instance, w) -> AuxGraph:
    """Construct the switch-graph for a valid assignment matrix, or raise
    GraphTooLargeError before allocating one over ``MAX_GRAPH_BYTES``."""
    check_assignment_matrix(inst, w)
    edges = edge_count(inst.t, inst.types.num_columns)
    if edges * EDGE_BYTES > MAX_GRAPH_BYTES:
        raise GraphTooLargeError(
            f"the switch-graph has {edges} edges, about "
            f"{edges * EDGE_BYTES >> 20} MiB, over the "
            f"{MAX_GRAPH_BYTES >> 20} MiB limit")
    return AuxGraph(inst, w)


def moves_of(g: AuxGraph, cycle: ExchangeCycle):
    """Extract the move list ``(key, from_team, to_team)`` of a cycle, one
    move per edge out of an output port, in traversal order."""
    moves = []
    for src, dst, _ in cycle.edges:
        team, side, key = g.port(src)
        if side == OUTPUT:
            moves.append((key, team, g.port(dst)[0]))
    return moves


def apply_and_update(g: AuxGraph, cycle: ExchangeCycle):
    """Perform the cycle's exchange on the live graph.

    Every inter edge moves one worker of its key from its source team to its
    target team; counters, port terms and the offer in ``succ`` are updated
    in place. A walk that is not closed, or that has an inter edge out of a
    port that holds no worker, is rejected before anything changes. A closed
    walk alternates input and output ports, so it has an inter edge. Returns
    the applied move list.
    """
    if not cycle.is_closed():
        raise CycleApplicationError("cycle edges do not form a closed walk")
    moves = moves_of(g, cycle)
    for key, team, _ in moves:
        if g.w[team][key] < 1:
            port = g.port_repr(g.port_id(team, OUTPUT, key))
            raise CycleApplicationError(
                f"cycle uses a disabled edge out of {port}")
    g.apply_moves(moves)
    return moves

