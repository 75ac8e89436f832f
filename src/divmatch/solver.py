"""Cycle-cancellation solver: detect, verify, commit, repeat.

Every solve starts from the oracle's greedy split
(:func:`initial_feasible`): one worker at a time goes where its marginal
objective price is least, so the start already weighs costs and diversity,
and on criterion 7's ladder few cycles are left to cancel. From there one
loop commits improving steps, each of a true objective change of at most
-1, from one search, :class:`_Search`. Each step is one record,
``(source, cycle_len, claimed, exact, commit)``: ``source`` says what found
it (``cycle``, a detected walk; ``resplit``, a re-split of a few teams;
``flow``, a cancel of the flow network), and ``commit`` is the call that
applies it. The loop's bookkeeping is the same for every source: the
iteration cap, the descent bound, one :class:`IterationRecord` per commit,
and the objective: the greedy's value of the start (:func:`_greedy_start`),
checked with the committed gains against one full evaluation at the end.

Each step that has no switch-graph, or whose graph offers no improving
walk, first tries to prove the state a global optimum with
:mod:`divmatch.flow`: the objective splits into one part per weighted
feature (the first also carrying the cost), each part alone is a
convex-cost flow, and a state optimal for every part is optimal for their
sum. A proved state has no improving exchange, so the search ends there.
With at most one weighted feature the one part is the whole objective:
the negative cycle that a failed proof finds is an improving exchange,
the step cancels it, and the search ends at a proved optimum with no
switch-graph. With more, the first failed proof builds the switch-graph,
so a proved start ends with no commit and no graph.

On the switch-graph, the solver looks for a negative cycle, prices the
candidate exchange's true objective change with
:meth:`~divmatch.auxgraph.AuxGraph.gain` (from the net changes of its
moves, independently of the edge prices that found it), and commits it only
when the true change is at most -1. The commit reads the same net change,
so what was priced is what is applied.
A detected walk that visits some switch more than once can misprice itself
(its edge weights assume untouched counters). If its true change is not at
most -1, the walk was spuriously negative: the graph withholds its edges
from detection until the walk search returns. Once no negative cycle
remains at an unproved state, a bounded exact re-split of small team
subsets, priced the same way, runs as a safety net against counter-coupled
exchanges that no single cycle can express. Where the graph was just built
on a failed proof, the sweep follows with no second proof of the unchanged
state. The same proof, restricted to a subset's rows and types, certifies
a team subset before it is enumerated. The loop ends when the proof
succeeds, when neither step finds an improvement, or when the iteration
cap ``max_iterations`` is reached and a further step would still commit.

Integer weights make every committed step decrease the objective by at least
one, which bounds the number of iterations by

    max(lambdas) * num_features * n^2 + lambda0 * (initial assignment cost).
"""

from __future__ import annotations

import itertools
import logging
from dataclasses import dataclass
from functools import partial

from .auxgraph import apply_and_update, build_aux_graph, edge_count, \
    moves_of
from .flow import _cancel, _part_cycle, _proof
from .instance import Instance
from .negcycle import DETECTORS
from .objective import ObjectiveBreakdown, _cost_of, count_tensor, \
    objective, total_utility
from .oracle import _greedy_split, _unit_prices, best_split, split_count

__all__ = [
    "IterationRecord",
    "SolveReport",
    "initial_feasible",
    "iteration_bound",
    "solve",
]

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class IterationRecord:
    index: int
    source: str  # cycle | resplit | flow
    cycle_len: int
    claimed: int
    exact: int
    objective_after: int

    def log_line(self) -> str:
        return (f"iter={self.index} source={self.source} "
                f"cycle_len={self.cycle_len} "
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


def initial_feasible(inst: Instance) -> list[list[int]]:
    """The marginal-price greedy split of every type over every team
    (:func:`~divmatch.oracle._greedy_split`): one worker at a time goes to
    the (type, team with room) pair of least marginal objective price at the
    counts so far, ties to the first type, then to the first team; the
    dummy team keeps what is left. A worker costs O(num_columns + t)."""
    return _greedy_start(inst)[1]


def _greedy_start(inst: Instance):
    """``(value, w)``: :func:`initial_feasible`'s ``w`` and its objective,
    the sum of its units' marginal prices ``lambda0 * cost + sum_k lambda_k
    * (2x + 1)``, which is ``lambda0 * TU + sum_k lambda_k * D_k``."""
    rows, cols = range(inst.t + 1), range(inst.types.num_columns)
    return _greedy_split(rows, *_unit_prices(inst, rows, cols),
                         list(inst.types.multiplicities),
                         [inst.demand(i) for i in rows])


def iteration_bound(inst: Instance) -> int:
    """Upper bound on committed exchanges: the objective starts at most at
    max(lambdas)*|features|*n^2 + lambda0*U with U the greedy start's cost,
    stays non-negative, and drops by >= 1 per commit."""
    return _descent_bound(inst, total_utility(inst, initial_feasible(inst)))


def _descent_bound(inst: Instance, u0: int) -> int:
    """:func:`iteration_bound` for a greedy start of cost ``u0``."""
    lam_max = max(inst.weights.lambdas)
    nf = inst.schema.num_features
    return lam_max * nf * inst.n * inst.n + inst.weights.lambda0 * u0


REFINE_ROWS = 3
REFINE_SCAN_BUDGET = 2_000_000


def _row_values(inst, w, c) -> list[int]:
    """Each row's share of the objective in the state ``w``, ``c``."""
    lam, costs = inst.weights, inst.types.costs
    return [lam.lambda0 * sum(u * x for u, x in zip(costs[i], row))
            + sum(l * sum(x * x for x in vals)
                  for l, vals in zip(lam.lambdas, c[i])) if i else 0
            for i, row in enumerate(w)]


def _moves_from_split(w, rows, cols, split):
    """Moves taking the ``rows``' cells of ``cols`` in ``w`` to ``split``:
    per column, the k-th unit a row gives up goes to the k-th unit a row
    takes, both counted in row order."""
    moves = []
    for cj, j in enumerate(cols):
        give, take = [], []
        for ri, i in enumerate(rows):
            diff = split[ri][cj] - w[i][j]
            (take if diff > 0 else give).extend([i] * abs(diff))
        moves += [(j, i1, i2) for i1, i2 in zip(give, take, strict=True)]
    return moves


class _ScanBudget:
    """Caps the enumeration work of one refinement sweep, and counts its
    subsets skipped, certified optimal without enumeration and enumerated."""

    def __init__(self, limit):
        self.left = limit
        self.skipped = self.certified = self.enumerated = 0

    def take(self, states) -> bool:
        """Charge ``states``, or count a skip and return False."""
        if states > self.left:
            self.skipped += 1
            return False
        self.left -= states
        return True


def _find_resplit(inst, w, c):
    """One re-split sweep of the state: ``(found, complete)``, with
    ``found`` the first improving ``(moves, gain)`` or None, and
    ``complete`` true when it found none and skipped no subset.

    A cycle's edge weights price each move against untouched counters, so
    two exchanges that gain nothing alone can gain jointly when they push
    the same (team, value) counters in opposite directions. The sweep
    escapes the cases seen in practice by exactly re-optimizing the split
    of the workers within each subset of 2..``REFINE_ROWS`` rows that hold
    workers, the unassigned pool included, and within all of them when
    they are ``REFINE_ROWS + 1``; a row that holds none adds no split. So
    where at most ``REFINE_ROWS + 1`` rows hold workers the last subset is
    the whole state. Subsets come by size, then in index order, and the sweep
    stops at its first find. Each row's columns, size and objective share
    are computed once per sweep.

    Before the first subset of a size comes, each of that size is charged
    its :func:`~divmatch.oracle.split_count` to ``REFINE_SCAN_BUDGET``,
    cheapest first, or skipped when that exceeds what is left; so large
    instances sweep every pair, and then the triples the budget can pay for.
    A charged subset is enumerated with :func:`~divmatch.oracle.best_split`
    only when :func:`~divmatch.flow._part_cycle` finds a cycle in it, and
    is certified otherwise, which is sufficient, so it changes no result.
    One debug line per sweep counts each outcome."""
    nonzero = [{j for j, x in enumerate(row) if x} for row in w]
    sizes = [sum(row) for row in w]
    filled = [i for i, size in enumerate(sizes) if size]
    values = _row_values(inst, w, c)
    spent = _ScanBudget(REFINE_SCAN_BUDGET)
    found = None
    max_rows = REFINE_ROWS + (len(filled) == REFINE_ROWS + 1)
    def admitted():
        for size in range(2, max_rows + 1):
            group = []
            for rows in itertools.combinations(filled, size):
                cols = sorted(set().union(*(nonzero[i] for i in rows)))
                pooled = [sum(w[i][j] for i in rows) for j in cols]
                group.append((split_count(pooled, size), rows, cols, pooled))
            taken = {g[1] for g in sorted(group, key=lambda g: g[0])
                     if spent.take(g[0])}
            yield from (g[1:] for g in group if g[1] in taken)
    for rows, cols, pooled in admitted():
        if _part_cycle(inst, w, c, rows, cols)[0] is None:
            spent.certified += 1
            continue
        spent.enumerated += 1
        # Most-loaded columns first: this order breaks ties among equal
        # splits, so it fixes the sweep's moves and the traces.
        order = sorted(range(len(cols)), key=lambda cj: -pooled[cj])
        cols = [cols[cj] for cj in order]
        pooled = [pooled[cj] for cj in order]
        current = sum(values[i] for i in rows)
        best, split, _, _ = best_split(inst, rows, cols, pooled,
                                       [sizes[i] for i in rows],
                                       incumbent=current)
        if split is not None:
            found = _moves_from_split(w, rows, cols, split), best - current
            break
    logger.debug("re-split sweep: %d certified, %d enumerated, %d skipped",
                 spent.certified, spent.enumerated, spent.skipped)
    return found, found is None and not spent.skipped


def solve(inst: Instance, *,
          max_iterations: int | None = None) -> SolveReport:
    """Run the cancellation loop to a certified local-search fixed point,
    reported ``proved_optimal`` where it is shown to be a global optimum.
    With at most one weighted feature the search cancels cycles of the flow
    network and, unless capped, ends proved; otherwise it searches the
    switch-graph. ``max_iterations``, when set, caps the commits."""
    if max_iterations is not None and max_iterations < 1:
        raise ValueError("max_iterations must be >= 1 when set")
    current, start = _greedy_start(inst)
    search = _Search(inst, start, DETECTORS["gr"])
    bound = _descent_bound(inst, _cost_of(inst, start))
    initial_objective = current
    trace: list[IterationRecord] = []
    iterations = 0
    termination = "optimal"

    while (step := search.step()) is not None:
        if max_iterations is not None and iterations >= max_iterations:
            termination = "iteration-cap"  # a verified step is still pending
            break
        source, cycle_len, claimed, gain, commit = step
        commit()
        iterations += 1
        current += gain
        record = IterationRecord(iterations, source, cycle_len, claimed, gain,
                                 current)
        trace.append(record)
        logger.info(record.log_line())
        if iterations > bound:
            raise RuntimeError(
                f"iterations exceeded the descent bound {bound}")

    final_state = [list(row) for row in search.w]
    breakdown = objective(inst, final_state)
    if breakdown.objective != current:
        raise RuntimeError("objective bookkeeping drifted from recomputation")
    return SolveReport(final_state, breakdown, iterations, trace,
                       termination, initial_objective,
                       search.refinement_complete, search.proved_optimal)


class _Search:
    """The search, one committing step at a time, from the assignment
    matrix ``start``; ``w`` and ``c`` are the live state, the switch-graph's
    once it is built. With at most one weighted feature the proof is
    exact, so a failed proof's cycle is the step and no graph is built."""

    def __init__(self, inst, start, detect):
        self.inst, self.detect = inst, detect
        self.exact = sum(lam > 0 for lam in inst.weights.lambdas) <= 1
        self.w = [list(row) for row in start]
        self.c = count_tensor(inst, self.w)
        self.proved_optimal = self.refinement_complete = False
        self.graph = None

    def step(self):
        """The record of the next committing walk (``cycle``), re-split
        (``resplit``) or cancel (``flow``), or None at a proved state or a
        fixed point that the re-split sweep cannot leave. Between steps
        the switch-graph equals a rebuild of ``w``."""
        inst, graph = self.inst, self.graph
        if graph is not None and (found := self._walk()) is not None:
            return found
        cycle, nodes = _proof(inst, self.w, self.c)
        if cycle is None:
            # A proved state is a global optimum, so no search could leave it.
            self.refinement_complete = self.proved_optimal = True
            return None
        if self.exact:
            return _cancel(inst, self.w, self.c, cycle, nodes)
        if graph is None:
            self.graph = graph = build_aux_graph(inst, self.w)
            self.w, self.c = graph.w, graph.c
            if (found := self._walk()) is not None:
                return found
        # Withheld edges may hide a real cycle, but detecting again with
        # them offered on the unchanged graph returns the withheld walk; the
        # re-split is the way on.
        found, self.refinement_complete = _find_resplit(inst, self.w, self.c)
        if found is None:
            # A complete sweep whose last subset held every worker proves it.
            self.proved_optimal = self.refinement_complete and \
                sum(map(any, self.w)) <= REFINE_ROWS + 1
            return None
        moves, claimed = found
        if (exact := graph.gain(moves)) != claimed:
            raise RuntimeError(f"a re-split claims {claimed} but gains {exact}")
        return ("resplit", len(moves), claimed, exact,
                partial(graph.apply_moves, moves))

    def _walk(self):
        """The ``cycle`` record of the first detected walk that improves,
        or None; every edge it withholds is offered again on return."""
        graph = self.graph
        stalls = 0
        while (cycle := self.detect(graph)) is not None:
            gain = graph.gain(moves_of(graph, cycle))
            if gain <= -1:
                graph.restore()
                return ("cycle", len(cycle), cycle.claimed_weight, gain,
                        partial(apply_and_update, graph, cycle))
            # The walk revisits a switch and mispriced itself. Withhold it
            # and look again; withholding one edge would keep surfacing
            # sibling walks.
            stalls += 1
            logger.debug(
                "negative walk (claimed %d, exact %d) is not improving; "
                "re-detecting without its edges", cycle.claimed_weight, gain)
            if stalls > edge_count(self.inst.t, graph.num_keys):
                raise RuntimeError(
                    "detection keeps returning non-improving walks")
            graph.withhold(cycle.edges)
        graph.restore()
        return None
