"""Auxiliary switch-graph whose negative cycles are beneficial exchanges.

Every team (including the dummy team 0) is a switch with one input and one
output port per mover key. A key is a worker type: a feature vector plus a
cost column (see :class:`~divmatch.instance.CombinationIndex`). Ports are
graph nodes:

* intra edges run input -> output inside one switch and carry the correction
  ``-2 * lambdas[k]`` for every feature k on which the two keys agree (zero
  inside the dummy switch, which never contributes to the objective),
* inter edges run from the output port of one team to the same key's input
  port of another team and carry the exact objective change of moving one
  such worker between the two teams, given the current counts.

For a cycle that visits each switch at most once, the edge-weight sum equals
the true objective change of performing all its moves: the inter edges price
each move against the untouched counters and the intra correction cancels
the double count that appears when the worker entering a switch shares a
feature value with the worker leaving it.

The build prices edges from per-port terms. An intra weight depends on the
two keys alone, so one K x K table serves every real switch. An inter
weight splits into a term of its source port, one of its target port and
the cost difference: ``leave[i1][key] + enter[i2][key] + lambda0 *
(cost[i2][key] - cost[i1][key])``, with ``leave[i][key] = sum_k
lambdas[k] * (1 - 2 * c[i][k][v_k])`` and ``enter[i][key] = sum_k lambdas[k]
* (2 * c[i][k][v_k] + 1)``, both zero at the dummy team.

The graph keeps live assignment counters and reweights incrementally after
an exchange. Its one edge index is ``out_edges``: an input port's out-edges
are its intra edges in output-key order and an output port's out-edges are
its inter edges in target-team order (own team skipped), so edges are found
by position. An inter edge's weight is linear in its two teams' counters at
its key's feature values, so an exchange shifts it by an exact integer: a
net change ``d`` of counter ``c[i][k][v]`` moves the edges out of
``out(i, key)`` by ``-2 * lambdas[k] * d`` and the edges into ``in(i, key)``
by ``+2 * lambdas[k] * d``, for the keys with value ``v`` of feature ``k``
(listed per graph). No edge is priced anew.

``succ`` offers the detectors the edges they may use, per port in
``out_edges`` order: all of an input port's, and an output port's only
while its team holds a worker of its key (on a large instance most output
ports are drained). ``apply_moves`` refreshes the offer where a count
changed; :meth:`AuxGraph.withhold` takes a walk's edges out of it and
:meth:`AuxGraph.restore` puts them back.
"""

from __future__ import annotations

from .instance import CombinationIndex, Instance, TradeoffWeights
from .negcycle import ExchangeCycle
from .objective import check_assignment_matrix, count_tensor

__all__ = [
    "AuxEdge",
    "AuxGraph",
    "CycleApplicationError",
    "intra_weight",
    "inter_weight",
    "build_aux_graph",
    "apply_and_update",
    "cycle_from_moves",
    "dump_edges",
]

INPUT, OUTPUT = 0, 1


class CycleApplicationError(RuntimeError):
    """A cycle could not be applied to the current assignment."""


class AuxEdge:
    """One directed edge. For intra edges ``team_from == team_to`` and the
    keys are the entering/leaving movers; for inter edges the keys coincide
    and the teams are the move's endpoints."""

    __slots__ = ("src", "dst", "weight", "kind",
                 "team_from", "team_to", "key_from", "key_to")

    def __init__(self, src, dst, weight, kind,
                 team_from, team_to, key_from, key_to):
        self.src = src
        self.dst = dst
        self.weight = weight
        self.kind = kind
        self.team_from = team_from
        self.team_to = team_to
        self.key_from = key_from
        self.key_to = key_to

    def __repr__(self):
        return (f"AuxEdge({self.kind} {self.team_from}:{self.key_from} -> "
                f"{self.team_to}:{self.key_to} w={self.weight})")


def _shared_value_correction(v_a, v_b, weights: TradeoffWeights) -> int:
    return -2 * sum(lam for lam, a, b in zip(weights.lambdas, v_a, v_b)
                    if a == b)


def intra_weight(v_a, v_b, team: int, weights: TradeoffWeights) -> int:
    """Correction for a worker with feature values ``v_a`` entering and one
    with ``v_b`` leaving team ``team``: -2*lambda_k per shared feature value.
    Zero inside the dummy switch."""
    if team == 0:
        return 0
    return _shared_value_correction(v_a, v_b, weights)


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


class AuxGraph:
    """Live switch-graph over the current assignment matrix.

    Exposes ``node_count`` and ``succ`` (per port, the AuxEdges offered to
    the cycle detectors; none at drained output ports). Single-writer:
    detection never overlaps mutation.
    """

    def __init__(self, inst: Instance, w, index: CombinationIndex):
        self.inst = inst
        self.index = index
        self.keys = index.columns
        self.w = [list(row) for row in w]
        self.num_keys = len(self.keys)
        self.num_switches = inst.t + 1
        self.node_count = 2 * self.num_keys * self.num_switches
        self.c = count_tensor(inst, w, index)
        self.edges: list[AuxEdge] = []
        self.out_edges: list[list[AuxEdge]] = [
            [] for _ in range(self.node_count)]
        # per feature k and value v, the keys whose value of k is v
        self._keys_with = [[[] for _ in range(inst.schema.value_count(k))]
                           for k in range(inst.schema.num_features)]
        for key, values in enumerate(self.keys):
            for k, v in enumerate(values):
                self._keys_with[k][v].append(key)
        self._build()
        self.succ = [()] * self.node_count
        for node in range(self.node_count):
            self._offer(node)
        self._withheld: set[int] = set()  # ports whose offer lacks edges

    # -- node ids -----------------------------------------------------------

    def port_id(self, team: int, side: int, key: int) -> int:
        return (team * 2 + side) * self.num_keys + key

    def port_repr(self, node: int) -> str:
        team, rest = divmod(node, 2 * self.num_keys)
        side, key = divmod(rest, self.num_keys)
        return f"{team}:{'in' if side == INPUT else 'out'}:{key}"

    # -- construction -------------------------------------------------------

    def _port_terms(self):
        """Per (team, key), the diversity change of one of the key's workers
        leaving the team and of one entering it; zero at the dummy team."""
        lambdas = self.inst.weights.lambdas
        base = sum(lambdas)
        leave = [[0] * self.num_keys]
        enter = [[0] * self.num_keys]
        for c in self.c[1:]:
            load = [sum(lam * c[k][v]
                        for k, (lam, v) in enumerate(zip(lambdas, values)))
                    for values in self.keys]
            leave.append([base - 2 * x for x in load])
            enter.append([base + 2 * x for x in load])
        return leave, enter

    def _build(self):
        """Add every edge, in ``out_edges`` order."""
        weights = self.inst.weights
        keys = range(self.num_keys)
        real = [[_shared_value_correction(a, b, weights) for b in self.keys]
                for a in self.keys]
        dummy = [[0] * self.num_keys] * self.num_keys
        for team in range(self.num_switches):
            table = real if team else dummy
            for kin in keys:
                src = self.port_id(team, INPUT, kin)
                for kout, wgt in enumerate(table[kin]):
                    self._add(AuxEdge(src, self.port_id(team, OUTPUT, kout),
                                      wgt, "intra",
                                      team, team, kin, kout))
        lambda0 = weights.lambda0
        costs = self.index.costs
        leave, enter = self._port_terms()
        for i1 in range(self.num_switches):
            for i2 in range(self.num_switches):
                if i1 == i2:
                    continue
                for key in keys:
                    wgt = (leave[i1][key] + enter[i2][key]
                           + lambda0 * (costs[i2][key] - costs[i1][key]))
                    self._add(AuxEdge(self.port_id(i1, OUTPUT, key),
                                      self.port_id(i2, INPUT, key), wgt,
                                      "inter", i1, i2, key, key))

    def _add(self, edge: AuxEdge):
        self.edges.append(edge)
        self.out_edges[edge.src].append(edge)

    def _offer(self, node: int):
        """Offer a port's out-edges in ``succ``: always at an input port, at
        an output port only while its team holds a worker of its key."""
        team, rest = divmod(node, 2 * self.num_keys)
        side, key = divmod(rest, self.num_keys)
        held = side == INPUT or self.w[team][key] >= 1
        self.succ[node] = self.out_edges[node] if held else ()

    # -- lookups ------------------------------------------------------------

    def find_inter_edge(self, key: int, i1: int, i2: int) -> AuxEdge:
        return self.out_edges[self.port_id(i1, OUTPUT, key)][i2 - (i2 > i1)]

    def find_intra_edge(self, team: int, key_in: int, key_out: int) -> AuxEdge:
        return self.out_edges[self.port_id(team, INPUT, key_in)][key_out]

    def current_state(self):
        """Copy of the live assignment matrix."""
        return [list(row) for row in self.w]

    # -- mutation -----------------------------------------------------------

    def apply_moves(self, moves) -> None:
        """Apply moves ``(key, from_team, to_team)`` and shift weights by
        exact deltas: a net change ``d`` of counter ``c[i][k][v]`` at a real
        team shifts each key with value ``v`` of feature ``k`` by
        ``2 * lambdas[k] * d``, summed per (team, key). A nonzero shift is
        subtracted from the edges out of ``out(team, key)`` and added to the
        inter edges into ``in(team, key)``, so an edge between two touched
        teams takes both. The offer in ``succ`` is refreshed at the output
        ports whose count changed."""
        ports: dict[tuple, int] = {}  # (team, key) -> net count change
        counters: dict[tuple, int] = {}  # (team, k, v) -> net change
        for key, i1, i2 in moves:
            if self.w[i1][key] <= 0:
                raise CycleApplicationError(
                    f"counter underflow: no key {key} worker in team {i1}")
            for team, step in ((i1, -1), (i2, 1)):
                self.w[team][key] += step
                ports[team, key] = ports.get((team, key), 0) + step
                for k, v in enumerate(self.keys[key]):
                    if step < 0 and self.c[team][k][v] <= 0:
                        raise CycleApplicationError("count tensor underflow")
                    self.c[team][k][v] += step
                    counters[team, k, v] = counters.get((team, k, v), 0) + step
        lambdas = self.inst.weights.lambdas
        shifts: dict[tuple, int] = {}  # (team, key) -> weight shift
        for (team, k, v), d in counters.items():
            if d and team and lambdas[k]:
                for key in self._keys_with[k][v]:
                    shifts[team, key] = (shifts.get((team, key), 0)
                                         + 2 * lambdas[k] * d)
        for (team, key), shift in shifts.items():
            if shift:  # zero when counters moved in and back out
                for edge in self.out_edges[self.port_id(team, OUTPUT, key)]:
                    edge.weight -= shift
                # out(i, key) for i = 0..t; skip the own team's port
                out_ports = self.out_edges[
                    self.num_keys + key::2 * self.num_keys]
                for edges in out_ports[:team]:
                    edges[team - 1].weight += shift
                for edges in out_ports[team + 1:]:
                    edges[team].weight += shift
        for (team, key), d in ports.items():
            if d:
                self._offer(self.port_id(team, OUTPUT, key))

    def withhold(self, edges) -> None:
        """Stop offering ``edges`` until :meth:`restore`: drop them from
        their ports' ``succ`` entries, keeping the order of the rest."""
        drop = set(edges)
        for node in {e.src for e in drop}:
            self.succ[node] = [e for e in self.succ[node] if e not in drop]
            self._withheld.add(node)

    def restore(self) -> None:
        """Offer again every edge :meth:`withhold` took out."""
        for node in self._withheld:
            self._offer(node)
        self._withheld.clear()


def build_aux_graph(inst: Instance, w,
                    index: CombinationIndex | None = None) -> AuxGraph:
    """Construct the switch-graph for a valid assignment matrix."""
    return AuxGraph(inst, w, check_assignment_matrix(inst, w, index))


def moves_of(cycle: ExchangeCycle):
    """Extract the move list ``(key, from_team, to_team)`` of a cycle's
    inter edges, in traversal order."""
    return [(e.key_from, e.team_from, e.team_to)
            for e in cycle.edges if e.kind == "inter"]


def apply_and_update(g: AuxGraph, cycle: ExchangeCycle):
    """Perform the cycle's exchange on the live graph.

    Every inter edge moves one worker of its key from its source team to its
    target team; counters, affected edge weights and the offer in ``succ``
    are updated in place. A walk with an inter edge out of a port that
    holds no worker is rejected before anything changes. Returns the
    applied move list.
    """
    edges = cycle.edges
    for e, nxt in zip(edges, edges[1:] + edges[:1]):
        if e.dst != nxt.src:
            raise CycleApplicationError("cycle edges do not form a closed walk")
        if e.kind == "inter" and g.w[e.team_from][e.key_from] < 1:
            raise CycleApplicationError(f"cycle uses a disabled edge: {e!r}")
    moves = moves_of(cycle)
    if not moves:
        raise CycleApplicationError("cycle contains no inter edges")
    g.apply_moves(moves)
    return moves


def cycle_from_moves(g: AuxGraph, moves) -> ExchangeCycle:
    """Assemble the edge walk realizing a closed move sequence.

    ``moves[p]`` must end at the team where ``moves[p+1]`` starts (cyclically);
    the connecting intra edge inside that team pairs the arriving key with the
    departing one.
    """
    edges = []
    for p, (key, i1, i2) in enumerate(moves):
        nxt = moves[(p + 1) % len(moves)]
        if i2 != nxt[1]:
            raise ValueError("moves do not form a closed walk")
        edges.append(g.find_inter_edge(key, i1, i2))
        edges.append(g.find_intra_edge(i2, key, nxt[0]))
    return ExchangeCycle(edges, sum(e.weight for e in edges))


def dump_edges(g: AuxGraph) -> str:
    """Edge list as text, one line per edge, for golden-file comparisons;
    the last column says whether ``succ`` offers the edge."""
    offered = {e for edges in g.succ for e in edges}
    lines = []
    for e in g.edges:
        listed = "true" if e in offered else "false"
        lines.append(f"{g.port_repr(e.src)} -> {g.port_repr(e.dst)} "
                     f"{e.weight} {e.kind} {listed}")
    return "\n".join(lines) + "\n"
