"""Cycle-cancellation solver: build, detect, verify, commit, repeat.

Starting from a greedy feasible assignment, the solver looks for a negative
cycle in the switch-graph, recomputes the candidate exchange's true objective
change by simulation, and commits it only when the true change is at most -1.
A detected walk that visits some switch more than once can misprice itself
(its edge weights assume untouched counters). Such walks are split at
repeated switch visits into switch-simple pieces, which price exactly; if
none of the pieces improves either, the walk was spuriously negative and is
excluded from the next detection round. Once no negative cycle remains, a
bounded exact re-split of small team subsets runs as a safety net against
counter-coupled exchanges that no single cycle can express. The loop ends
when neither step finds an improvement, or when the configured iteration
cap is reached and a further step would still commit.

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
from .objective import ObjectiveBreakdown, objective, total_utility
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
    detector: str = "goldberg_radzik"
    max_iterations: int | None = None
    refinement: str = "triples"  # off | pairs | triples

    def __post_init__(self):
        if self.detector not in DETECTORS:
            raise ValueError(f"unknown detector {self.detector!r}")
        if self.max_iterations is not None and self.max_iterations < 1:
            raise ValueError("max_iterations must be >= 1 when set")
        if self.refinement not in ("off", "pairs", "triples"):
            raise ValueError(f"unknown refinement {self.refinement!r}")


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
    refinement_complete: bool  # the last re-split sweep skipped no subset

    def objective_trace(self) -> list[int]:
        return [self.initial_objective] + [r.objective_after for r in self.trace]


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
    u0 = total_utility(inst, initial_feasible(inst, index), index)
    lam_max = max(inst.weights.lambdas)
    nf = inst.schema.num_features
    return lam_max * nf * inst.n * inst.n + inst.weights.lambda0 * u0


# A cycle's edge weights price each move against untouched counters, so two
# exchanges that individually gain nothing can still gain jointly when they
# push the same (team, value) counters in opposite directions. Canceling
# single cycles therefore certifies only a restricted local optimum. The
# refinement below escapes the cases seen in practice: at every fixed point
# it exactly re-optimizes the worker split within each pair (and optionally
# triple) of rows, including the unassigned pool, skipping subsets whose
# enumeration would exceed a fixed state budget. The budget keeps triples
# affordable at verification scale while larger instances fall back to the
# pair scan.

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


def _resplit_subset(inst, graph, rows, sweep, spent):
    """Best redistribution of the rows' pooled workers; None if no strict
    improvement or the subset exceeds the enumeration budgets.
    ``sweep`` holds per-row facts of the current state: ``(nonzero, sizes,
    values)``, the set of columns each row holds, its worker count and its
    share of the objective.

    Two shortcuts decide, charge and count exactly as enumerating would.
    Splitting U workers among r rows has at least comb(U+r-1, r-1) ways
    (all U of one type), so a subset whose bound already exceeds a budget
    is counted as skipped without building its columns. A subset with an
    empty row is charged its states but not enumerated. Dropping that row
    changes neither the splits nor their values, and what is left is one
    row, with nothing to move, or a pair. Pairs come first, a pair has no
    more states than the triple, and the sweep stops at its first find, so
    that pair was examined and found nothing."""
    nonzero, sizes, values = sweep
    totals = [sizes[i] for i in rows]
    held = sum(totals)
    if not held:
        return None
    if spent.refuses(least_split_count(held, len(rows))):
        return None
    cols = sorted(set().union(*(nonzero[i] for i in rows)))
    pooled = [sum(graph.w[i][j] for i in rows) for j in cols]
    if not spent.take(split_count(pooled, len(rows))) or not all(totals):
        return None
    # most-loaded columns first so the pruning bound engages early
    order = sorted(range(len(cols)), key=lambda cj: -pooled[cj])
    cols = [cols[cj] for cj in order]
    pooled = [pooled[cj] for cj in order]
    current = sum(values[i] for i in rows)
    best, split, _, _ = best_split(inst, graph.index, rows, cols, pooled,
                                   totals, incumbent=current)
    if split is None:
        return None
    return _moves_from_split(graph, rows, cols, split), best - current


def _moves_from_split(graph, rows, cols, split):
    moves = []
    for cj, j in enumerate(cols):
        give = []  # (row, units) with surplus
        take = []  # (row, units) with deficit
        for ri, i in enumerate(rows):
            diff = split[ri][cj] - graph.w[i][j]
            if diff < 0:
                give.append([i, -diff])
            elif diff > 0:
                take.append([i, diff])
        gi = 0
        for i, need in take:
            while need:
                src = give[gi]
                step = min(need, src[1])
                moves.extend([(j, src[0], i)] * step)
                src[1] -= step
                need -= step
                if src[1] == 0:
                    gi += 1
    return moves


class _ScanBudget:
    """Caps the enumeration work of one subset and of one refinement sweep,
    and counts the subsets skipped for either cap."""

    def __init__(self, limit):
        self.left = limit
        self.skipped = 0

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


def _find_resplit(inst, graph, refinement):
    """One re-split sweep: ``(found, complete)``, with ``found`` the first
    improving ``(moves, gain)`` or None, and ``complete`` true when the
    sweep examined every subset, none found or skipped for budget.

    Subsets come pairs first, then triples, in index order. Each row's
    columns, size and objective share are computed once per sweep.
    :func:`_resplit_subset` skips subsets from their row sizes and charges
    but does not enumerate subsets with an empty row, exactly as building
    and enumerating every subset would decide."""
    if refinement == "off":
        return None, False
    max_rows = 2 if refinement == "pairs" else 3
    all_rows = range(inst.t + 1)
    sweep = ([{j for j, x in enumerate(row) if x} for row in graph.w],
             [sum(row) for row in graph.w], _row_values(inst, graph))
    spent = _ScanBudget(REFINE_SCAN_BUDGET)
    for size in range(2, max_rows + 1):
        for rows in itertools.combinations(all_rows, size):
            found = _resplit_subset(inst, graph, rows, sweep, spent)
            if found:
                return found, False
    return None, not spent.skipped


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


def _exact_gain(inst, index, graph, moves) -> int:
    """True objective change of applying ``moves`` to the graph's state."""
    before = graph.current_state()
    after = [list(row) for row in before]
    for key, i1, i2 in moves:
        after[i1][key] -= 1
        after[i2][key] += 1
    return (objective(inst, after, index).objective
            - objective(inst, before, index).objective)


def solve(inst: Instance, cfg: SolverConfig | None = None) -> SolveReport:
    """Run the cancellation loop to a certified local-search fixed point."""
    cfg = cfg or SolverConfig()
    detect = DETECTORS[cfg.detector]
    index = build_combination_index(inst)
    start = initial_feasible(inst, index)
    graph = build_aux_graph(inst, start, index)
    bound = iteration_bound(inst)
    current = objective(inst, start, index).objective
    initial_objective = current
    trace: list[IterationRecord] = []
    iterations = 0
    excluded: set = set()
    stalls = 0
    termination = "optimal"
    complete = False

    while True:
        cycle = detect(graph, excluded=excluded or None)
        if cycle is None:
            # Exclusions may hide a real cycle, but detecting again without
            # them on the unchanged graph returns the excluded walk; the
            # re-split is the way on.
            found, complete = _find_resplit(inst, graph, cfg.refinement)
            if found is None:
                break
            moves, gain = found
            cycle_len, claimed = len(moves), gain
        else:
            found = _improving_walk(inst, index, graph, cycle)
            if found is None:
                # Splitting re-pairs the intra edges at the cut switches, so
                # a multi-visit walk can price negative while neither it nor
                # any piece truly improves. Hide the walk and look again;
                # one-edge exclusion would keep surfacing sibling walks.
                stalls += 1
                logger.debug(
                    "negative walk (claimed %d, exact >= 0) yielded no "
                    "improving exchange; re-detecting without its edges",
                    cycle.claimed_weight)
                if stalls > len(graph.edges):
                    raise RuntimeError(
                        "detection keeps returning non-improving walks")
                excluded.update(cycle.edges)
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
        excluded.clear()
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
                       termination, initial_objective, complete)


def _improving_walk(inst, index, graph, cycle):
    """The detected walk, or a negatively-priced switch-simple piece of it,
    whose true gain is at most -1, with that gain; None when nothing
    improves."""
    moves = moves_of(cycle)
    exact = _exact_gain(inst, index, graph, moves)
    if exact <= -1:
        return cycle, exact
    # The walk revisits a switch and mispriced itself; its switch-simple
    # pieces price exactly, so try those.
    logger.debug("walk of claimed %d has exact %d; splitting",
                 cycle.claimed_weight, exact)
    for segment in _split_switch_simple(moves):
        sub_exact = _exact_gain(inst, index, graph, segment)
        if sub_exact <= -1:
            return cycle_from_moves(graph, segment), sub_exact
    return None
