"""Cycle-cancellation solver: build, detect, verify, commit, repeat.

Starting from a greedy feasible assignment, the solver looks for a negative
cycle in the switch-graph, prices the candidate exchange's true objective
change with :meth:`~divmatch.auxgraph.AuxGraph.gain` (from the net changes
of its moves, independently of the edge prices that found it), and commits
it only when the true change is at most -1. The commit reads the same net
change, so what was priced is what is applied. The objective is evaluated
only at the start, from the switch-graph's counters, and once in full at
the end, as a check that the committed gains add up.
A detected walk that visits some switch more than once can misprice itself
(its edge weights assume untouched counters). Such walks are split at
repeated switch visits into switch-simple pieces, which price exactly; if
none of the pieces improves either, the walk was spuriously negative: the
graph withholds its edges from detection until the next commit restores
them. Once no negative cycle remains, the solver first tries to prove the
state a global optimum: the objective splits into one part per weighted
feature (the first also carrying the cost), each part alone is a
convex-cost flow, and a state optimal for every part is optimal for their
sum. When that proof fails, a bounded exact
re-split of small team subsets runs as a safety net against counter-coupled
exchanges that no single cycle can express. The same proof, restricted to a
subset's rows and types, certifies a pair or triple before it is
enumerated. The loop ends when the proof succeeds, when neither step finds
an improvement, or when the configured iteration cap is reached and a
further step would still commit.

Integer weights make every committed step decrease the objective by at least
one, which bounds the number of iterations by

    max(lambdas) * num_features * n^2 + lambda0 * (initial assignment cost).
"""

from __future__ import annotations

import itertools
import logging
from dataclasses import dataclass

from .auxgraph import apply_and_update, build_aux_graph, cycle_from_moves, \
    moves_of
from .instance import CombinationIndex, Instance, build_combination_index
from .negcycle import DETECTORS
from .objective import ObjectiveBreakdown, breakdown_of, objective, \
    total_utility
from .oracle import best_split, least_split_count, split_count

__all__ = [
    "SolverConfig",
    "IterationRecord",
    "SolveReport",
    "initial_feasible",
    "iteration_bound",
    "solve",
]

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class SolverConfig:
    detector: str = "gr"
    max_iterations: int | None = None

    def __post_init__(self):
        if self.detector not in DETECTORS:
            raise ValueError(f"unknown detector {self.detector!r}")
        if self.max_iterations is not None and self.max_iterations < 1:
            raise ValueError("max_iterations must be >= 1 when set")


@dataclass(frozen=True)
class IterationRecord:
    index: int
    cycle_len: int
    claimed: int
    exact: int
    objective_after: int

    def log_line(self) -> str:
        return (f"iter={self.index} cycle_len={self.cycle_len} "
                f"claimed={self.claimed} exact={self.exact} "
                f"objective={self.objective_after}")


@dataclass
class SolveReport:
    assignment: list  # type-count matrix, rows 0..t
    breakdown: ObjectiveBreakdown
    iterations: int
    trace: list[IterationRecord]
    termination: str  # optimal | iteration-cap
    initial_objective: int
    # no re-split was left unexamined: the fixed point was proved, or the
    # last re-split sweep skipped no subset
    refinement_complete: bool
    proved_optimal: bool  # the final state was proved a global optimum


def initial_feasible(inst: Instance,
                     index: CombinationIndex | None = None) -> list[list[int]]:
    """Greedy two-pointer fill: pour the first non-exhausted type into
    the first unfilled team, advancing whichever runs out; leftover workers
    stay with the dummy team. Runs in O(num_columns + t)."""
    if index is None:
        index = build_combination_index(inst)
    w = [[0] * index.num_columns for _ in range(inst.t + 1)]
    remaining = list(index.multiplicities)
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


def iteration_bound(inst: Instance) -> int:
    """Upper bound on committed exchanges: the objective starts at most at
    max(lambdas)*|features|*n^2 + lambda0*U with U the greedy start's cost,
    stays non-negative, and drops by >= 1 per commit."""
    index = build_combination_index(inst)
    return _descent_bound(inst, total_utility(
        inst, initial_feasible(inst, index), index))


def _descent_bound(inst: Instance, u0: int) -> int:
    """:func:`iteration_bound` for a greedy start of cost ``u0``."""
    lam_max = max(inst.weights.lambdas)
    nf = inst.schema.num_features
    return lam_max * nf * inst.n * inst.n + inst.weights.lambda0 * u0


REFINE_STATE_BUDGET = 20_000
REFINE_SCAN_BUDGET = 2_000_000


def _row_values(inst, graph) -> list[int]:
    """Each row's share of the objective in the graph's current state."""
    lam = inst.weights
    costs = graph.index.costs
    return [lam.lambda0 * sum(u * x for u, x in zip(costs[i], row))
            + sum(l * sum(x * x for x in vals)
                  for l, vals in zip(lam.lambdas, graph.c[i])) if i else 0
            for i, row in enumerate(graph.w)]


def _has_negative_cycle(node_count, arcs) -> bool:
    """Bellman-Ford from all-zero labels over ``(from, to, cost)`` arcs on
    nodes ``0..node_count-1``: the labels settle within one round per node
    exactly when no cycle is negative. Predecessors are kept on strict
    improvement, so a cycle among them is negative; after each round that
    changed a label, the last improved node's predecessor chain is walked
    and the first cycle on it ends the search, as in
    :func:`~divmatch.negcycle.bellman_ford_detect`."""
    label = [0] * node_count
    pred = [None] * node_count
    for _ in range(node_count):
        last = None
        for u, v, cost in arcs:
            if label[u] + cost < label[v]:
                label[v] = label[u] + cost
                pred[v], last = u, v
        if last is None:
            return False
        seen = set()
        while last is not None and last not in seen:
            seen.add(last)
            last = pred[last]
        if last is not None:
            return True
    return True


def _proves_optimal(inst, graph) -> bool:
    """True when the graph's state is shown to be a global optimum; False
    says nothing. One debug line per call gives the verdict and the size of
    the networks tested."""
    proved, nodes, arcs = _parts_optimal(inst, graph, range(inst.t + 1),
                                         range(len(graph.keys)))
    logger.debug("optimality proof: %s (%d nodes, %d arcs)",
                 "proved" if proved else "not proved", nodes, arcs)
    return proved


def _parts_optimal(inst, graph, rows, cols):
    """``(optimal, nodes, arcs)``: ``optimal`` is True when no split of the
    ``rows``' workers, all of types ``cols`` and each row keeping its size,
    has a smaller share of the objective than the graph's state; False says
    nothing. ``nodes`` and ``arcs`` count the networks tested.

    The rows' share is the sum of one part per weighted feature k,
    lambdas[k] * D_k, with lambda0 * TU added to the first part (with no
    weighted feature, the one part lambda0 * TU). Every split has every
    part at least that part's minimum, so a state that minimizes each part
    alone, as its flow network shows, minimizes their sum. Parts are tested
    in feature order, and the first that fails ends the test."""
    weighted = [k for k, lam in enumerate(inst.weights.lambdas) if lam]
    nodes = arcs = 0
    for part, k in enumerate(weighted or [0]):
        count, part_arcs = _part_network(inst, graph, k, part == 0, rows,
                                         cols)
        nodes += count
        arcs += len(part_arcs)
        if _has_negative_cycle(count, part_arcs):
            return False, nodes, arcs
    return True, nodes, arcs


def _part_network(inst, graph, k, with_cost, rows, cols):
    """``(node_count, arcs)`` of the residual network of feature ``k``'s
    objective part, lambdas[k] * D_k plus lambda0 * TU ``with_cost``, over
    re-splits of the ``rows``' workers, whose types are among ``cols``, at
    the graph's state.

    Alone, the part is a separable convex-cost flow (Ahuja, Magnanti &
    Orlin, Network Flows, ch. 14): type j sends w[i][j] to node (i, v), v
    its value of feature k, at its cost in team i (0 without cost), and
    (i, v) sends its counter x = c[i][k][v] on to team i at the convex cost
    lambdas[k] * x^2; the dummy team adds nothing. Supplies and demands are
    fixed, so the state is optimal for the part exactly when this network,
    priced at marginal unit costs, has no negative cycle. Nodes are the
    types, then (team, value) for each value some type has, then the
    teams, each in the order given."""
    lam = inst.weights.lambdas[k]
    lam0 = inst.weights.lambda0 if with_cost else 0
    keys, costs = graph.keys, graph.index.costs
    slot = {v: s for s, v in enumerate(sorted({keys[j][k] for j in cols}))}
    teams = len(cols) + len(rows) * len(slot)  # node of the first team
    arcs = []
    for r, i in enumerate(rows):
        row, counts = graph.w[i], graph.c[i][k]
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


def _moves_from_split(graph, rows, cols, split):
    """Moves taking the ``rows``' cells of ``cols`` to ``split``: per
    column, the k-th unit some row gives up goes to the k-th unit some row
    takes, both counted in row order."""
    moves = []
    for cj, j in enumerate(cols):
        give, take = [], []
        for ri, i in enumerate(rows):
            diff = split[ri][cj] - graph.w[i][j]
            (take if diff > 0 else give).extend([i] * abs(diff))
        moves += [(j, i1, i2) for i1, i2 in zip(give, take, strict=True)]
    return moves


class _ScanBudget:
    """Caps the enumeration work of one subset and of one refinement sweep,
    and counts the subsets skipped for either cap, certified optimal
    without enumeration and enumerated."""

    def __init__(self, limit):
        self.left = limit
        self.skipped = self.certified = self.enumerated = 0

    def refuses(self, states) -> bool:
        """True, counting a skipped subset, when ``states`` exceed a cap."""
        if states > REFINE_STATE_BUDGET or states > self.left:
            self.skipped += 1
            return True
        return False

    def take(self, states) -> bool:
        if self.refuses(states):
            return False
        self.left -= states
        return True


def _find_resplit(inst, graph, max_rows=3):
    """One re-split sweep: ``(found, complete)``, with ``found`` the first
    improving ``(moves, gain)`` or None, and ``complete`` true when the
    sweep examined every subset, none found or skipped for budget.

    A cycle's edge weights price each move against untouched counters, so
    two exchanges that gain nothing alone can gain jointly when they push
    the same (team, value) counters in opposite directions. The sweep
    escapes the cases seen in practice by exactly re-optimizing the split
    of the workers within each subset of 2..``max_rows`` rows, the
    unassigned pool included. Subsets come by size, then in index order,
    and the sweep stops at its first find. Each row's columns, size and
    objective share are computed once per sweep.

    A subset that holds workers is skipped when even the
    :func:`~divmatch.oracle.least_split_count` of its worker total exceeds
    ``REFINE_STATE_BUDGET`` (per subset) or what is left of
    ``REFINE_SCAN_BUDGET`` (per sweep); else its own
    :func:`~divmatch.oracle.split_count` is charged, or it is skipped when
    that exceeds a budget. The budgets keep triples affordable at
    verification scale, while larger instances fall back to the pair scan.
    A charged subset is enumerated with :func:`~divmatch.oracle.best_split`
    only when :func:`_parts_optimal` does not certify it; certifying is
    sufficient, so it changes no result. One debug line per sweep counts
    each outcome."""
    nonzero = [{j for j, x in enumerate(row) if x} for row in graph.w]
    sizes = [sum(row) for row in graph.w]
    values = _row_values(inst, graph)
    spent = _ScanBudget(REFINE_SCAN_BUDGET)
    found = None
    for rows in itertools.chain.from_iterable(
            itertools.combinations(range(inst.t + 1), size)
            for size in range(2, max_rows + 1)):
        totals = [sizes[i] for i in rows]
        held = sum(totals)
        if not held or spent.refuses(least_split_count(held, len(rows))):
            continue
        cols = sorted(set().union(*(nonzero[i] for i in rows)))
        pooled = [sum(graph.w[i][j] for i in rows) for j in cols]
        if not spent.take(split_count(pooled, len(rows))):
            continue
        if _parts_optimal(inst, graph, rows, cols)[0]:
            spent.certified += 1
            continue
        spent.enumerated += 1
        # most-loaded columns first so the pruning bound engages early
        order = sorted(range(len(cols)), key=lambda cj: -pooled[cj])
        cols = [cols[cj] for cj in order]
        pooled = [pooled[cj] for cj in order]
        current = sum(values[i] for i in rows)
        best, split, _, _ = best_split(inst, graph.index, rows, cols, pooled,
                                       totals, incumbent=current)
        if split is not None:
            found = _moves_from_split(graph, rows, cols, split), best - current
            break
    logger.debug("re-split sweep: %d certified, %d enumerated, %d skipped",
                 spent.certified, spent.enumerated, spent.skipped)
    return found, found is None and not spent.skipped


def _split_switch_simple(moves):
    """Partition a closed move walk into closed sub-walks that visit every
    switch at most once. Splits happen at repeated source teams."""
    result = []
    stack = []
    pos: dict[int, int] = {}
    for m in moves:
        team = m[1]
        if team in pos:
            idx = pos[team]
            segment = stack[idx:]
            del stack[idx:]
            for mm in segment:
                del pos[mm[1]]
            result.append(segment)
        pos[team] = len(stack)
        stack.append(m)
    if stack:
        result.append(stack)
    return result


def solve(inst: Instance, cfg: SolverConfig | None = None) -> SolveReport:
    """Run the cancellation loop to a certified local-search fixed point,
    reported ``proved_optimal`` where it is shown to be a global optimum."""
    cfg = cfg or SolverConfig()
    detect = DETECTORS[cfg.detector]
    index = build_combination_index(inst)
    start = initial_feasible(inst, index)
    graph = build_aux_graph(inst, start, index)
    initial = breakdown_of(inst, graph.w, graph.c, index)
    bound = _descent_bound(inst, initial.tu)
    current = initial.objective
    initial_objective = current
    trace: list[IterationRecord] = []
    iterations = 0
    stalls = 0
    termination = "optimal"
    complete = proved = False

    while True:
        cycle = detect(graph)
        if cycle is None:
            # A proved state is a global optimum, so the re-split sweep
            # could find nothing there.
            if _proves_optimal(inst, graph):
                complete = proved = True
                break
            # Withheld edges may hide a real cycle, but detecting again with
            # them offered on the unchanged graph returns the withheld walk;
            # the re-split is the way on.
            found, complete = _find_resplit(inst, graph)
            if found is None:
                break
            moves, gain = found
            cycle_len, claimed = len(moves), gain
        else:
            found = _improving_walk(graph, cycle)
            if found is None:
                # Splitting re-pairs the intra edges at the cut switches, so
                # a multi-visit walk can price negative while neither it nor
                # any piece truly improves. Withhold the walk and look again;
                # withholding one edge would keep surfacing sibling walks.
                stalls += 1
                logger.debug(
                    "negative walk (claimed %d, exact >= 0) yielded no "
                    "improving exchange; re-detecting without its edges",
                    cycle.claimed_weight)
                if stalls > len(graph.edges):
                    raise RuntimeError(
                        "detection keeps returning non-improving walks")
                graph.withhold(cycle.edges)
                continue
            walk, gain = found
            cycle_len, claimed = len(walk), walk.claimed_weight
        if cfg.max_iterations is not None and iterations >= cfg.max_iterations:
            termination = "iteration-cap"  # a verified step is still pending
            break
        if cycle is None:
            graph.apply_moves(moves)
        else:
            apply_and_update(graph, walk)
        graph.restore()
        stalls = 0
        iterations += 1
        current += gain
        record = IterationRecord(iterations, cycle_len, claimed, gain, current)
        trace.append(record)
        logger.info(record.log_line())
        if iterations > bound:
            raise RuntimeError(
                f"iterations exceeded the descent bound {bound}")

    final_state = graph.current_state()
    breakdown = objective(inst, final_state, index)
    if breakdown.objective != current:
        raise RuntimeError("objective bookkeeping drifted from recomputation")
    return SolveReport(final_state, breakdown, iterations, trace,
                       termination, initial_objective, complete, proved)


def _improving_walk(graph, cycle):
    """The detected walk, or a negatively-priced switch-simple piece of it,
    whose true gain is at most -1, with that gain; None when nothing
    improves."""
    moves = moves_of(graph, cycle)
    exact = graph.gain(moves)
    if exact <= -1:
        return cycle, exact
    # The walk revisits a switch and mispriced itself; its switch-simple
    # pieces price exactly, so try those.
    logger.debug("walk of claimed %d has exact %d; splitting",
                 cycle.claimed_weight, exact)
    for segment in _split_switch_simple(moves):
        sub_exact = graph.gain(segment)
        if sub_exact <= -1:
            return cycle_from_moves(graph, segment), sub_exact
    return None
