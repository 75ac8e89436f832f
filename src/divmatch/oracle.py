"""Exhaustive ground-truth optimum for small instances, and the bounded
exact sub-solver behind it.

Workers of one type are interchangeable, so the objective is a function of
the type-count matrix alone, and the oracle enumerates count matrices.
:func:`best_split` does the enumeration over any set of rows: the oracle
runs it on all rows, the solver's re-split refinement on two or three.
Partial objectives only grow as workers are placed, and every unit still
to place adds at least its cheapest first-unit price, so branches whose
partial value plus that tail bound is already above the incumbent are
pruned without affecting exactness, the first optimum found or the count of
optima. The last row takes whatever its predecessors leave, so it is filled
in place rather than searched. :func:`split_count` is the search space;
:func:`least_split_count` is its least value for a number of workers,
from which the re-split sweep skips over-budget subsets before building
their columns (it charges subsets with an empty row without searching
them).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .instance import Instance, build_combination_index
from .objective import assignment_from_matrix

__all__ = ["OracleResult", "BudgetExceededError", "enumerate_optimal",
           "best_split", "split_count", "least_split_count",
           "DEFAULT_BUDGET"]

DEFAULT_BUDGET = 10_000_000


class BudgetExceededError(RuntimeError):
    """The instance's search space exceeds the configured oracle budget."""


@dataclass
class OracleResult:
    optimal_objective: int
    matrix: list[list[int]]  # an optimal type-count matrix
    assignment: list[int]  # worker -> team map realizing ``matrix``
    num_optima: int  # distinct optimal type-count matrices
    optima: list | None  # matrices attaining the optimum


def enumerate_optimal(inst: Instance, budget: int = DEFAULT_BUDGET,
                      collect_optima: bool = False,
                      optima_cap: int = 200_000) -> OracleResult:
    """Exact minimum of the objective over all feasible assignments."""
    index = build_combination_index(inst)
    rows = range(inst.t + 1)
    space = split_count(index.multiplicities, len(rows))
    if space > budget:
        raise BudgetExceededError(
            f"{space} candidate matrices exceed the budget of {budget}")
    best, w, count, optima = best_split(
        inst, index, rows, range(index.num_columns), index.multiplicities,
        [inst.demand(i) for i in rows], collect=collect_optima,
        cap=optima_cap)
    return OracleResult(best, w, assignment_from_matrix(inst, w, index),
                        count, optima)


def split_count(counts, num_rows: int) -> int:
    """Number of ways to split ``counts[p]`` workers among ``num_rows`` rows
    for every ``p``, ignoring row totals: the search space of
    :func:`best_split`."""
    return math.prod(math.comb(u + num_rows - 1, num_rows - 1)
                     for u in counts)


def least_split_count(total: int, num_rows: int) -> int:
    """Least :func:`split_count` of ``total`` workers among ``num_rows``
    rows over every way of typing them, reached when all share one type."""
    return math.comb(total + num_rows - 1, num_rows - 1)


def best_split(inst, index, rows, cols, counts, totals, incumbent=None,
               collect=False, cap=0):
    """Best way to split ``counts[p]`` workers of type ``cols[p]`` among the
    teams ``rows``, team ``rows[r]`` taking ``totals[r]`` workers in all.

    Returns ``(value, split, count, optima)``: the least value of the rows'
    share of the objective, an optimal split ``split[r][p]`` (the first
    found), the number of optimal splits and, when ``collect``, up to
    ``cap`` of them. Types are placed in the order of ``cols``, each split
    over ``rows`` in order, each row taking 0, 1, ... workers, so ``split``
    is the first minimal split in that order. Without an ``incumbent``
    every optimal split is counted. With one, only splits strictly below it
    are explored, ``split`` is None when there is none, and ``count`` is 1
    or 0. Needs two or more rows: the last one takes the rest of each type,
    in place. A branch is cut once its partial value plus a lower bound on
    the types not yet placed exceeds the bound, which never cuts a split
    that would be returned or counted.
    """
    lam0 = inst.weights.lambda0
    nf = inst.schema.num_features
    r_last = len(rows) - 1
    # Per type, (lambda_k, counter slot k + nf*v) of its value v of every
    # weighted feature k; each row keeps one flat counter list.
    slots = [[(lam, k + nf * v) for k, (lam, v) in
              enumerate(zip(inst.weights.lambdas, index.columns[j])) if lam]
             for j in cols]
    steps = [2 * sum(lam for lam, _ in row) for row in slots]
    costs = [[lam0 * index.costs[i][j] for j in cols] for i in rows]
    real = [i != 0 for i in rows]
    caps = list(totals)
    split = [[0] * len(cols) for _ in rows]
    c = [[0] * nf * (1 + max(map(max, index.columns))) for _ in rows]
    # tail[p] bounds what types p.. add: each unit at least lambda0*cost +
    # sum_k lambda_k in a real row that takes workers, 0 in the dummy row.
    open_rows = [r for r, total in enumerate(totals) if total > 0]
    tail = [0] * (len(cols) + 1)
    for p in range(len(cols) - 1, -1, -1):
        least = min((costs[r][p] + steps[p] // 2 if real[r] else 0
                     for r in open_rows), default=0)
        tail[p] = tail[p + 1] + counts[p] * least

    # A branch is cut once its partial value plus the tail of the types
    # still to place exceeds ``limit``: the best value so far, or one less
    # when only strict improvements count.
    slack = 0 if incumbent is None else 1
    limit = math.inf if incumbent is None else incumbent - 1
    best = incumbent
    chosen = None
    count = 0
    optima = [] if collect else None

    def distribute(p, ri, left, partial):
        # Row ri takes y type-p workers. Unit y+1 adds lambda0*cost +
        # sum_k lambda_k*(2x+1) at counters x, the first unit's marginal
        # plus y*steps[p], so the partial value is non-decreasing in y (row
        # 0 adds nothing; its counters are kept but never read). When row
        # ri is the last but one, the last row takes the rest in place: its
        # marginal is fixed while y varies.
        floor = tail[p + 1]
        top = left if left < caps[ri] else caps[ri]
        cr = c[ri]
        marginal = step = 0
        if real[ri]:
            marginal, step = costs[ri][p], steps[p]
            for lam, f in slots[p]:
                marginal += lam * (2 * cr[f] + 1)
        y = 0
        fill = ri + 1 == r_last
        if fill:
            room = caps[r_last]
            y = left - room if left > room else 0
            if y > top:
                return
            last_c = c[r_last]
            last_marginal = last_step = 0
            if real[r_last]:
                last_marginal, last_step = costs[r_last][p], steps[p]
                for lam, f in slots[p]:
                    last_marginal += lam * (2 * last_c[f] + 1)
        partial += y * marginal + step * y * (y - 1) // 2
        for _, f in slots[p]:
            cr[f] += y
        while partial + floor <= limit:
            caps[ri] -= y
            split[ri][p] = y
            if fill:
                z = left - y
                value = partial + z * last_marginal + \
                    last_step * z * (z - 1) // 2
                if value + floor <= limit:
                    caps[r_last] -= z
                    split[r_last][p] = z
                    for _, f in slots[p]:
                        last_c[f] += z
                    place(p + 1, value)
                    for _, f in slots[p]:
                        last_c[f] -= z
                    caps[r_last] += z
                    split[r_last][p] = 0
            else:
                distribute(p, ri + 1, left - y, partial)
            caps[ri] += y
            if y == top:
                break
            partial += marginal + step * y
            y += 1
            for _, f in slots[p]:
                cr[f] += 1
        split[ri][p] = 0
        for _, f in slots[p]:
            cr[f] -= y

    def place(p, partial):
        nonlocal best, chosen, count, limit
        if p == len(cols):
            if chosen is None or partial < best:
                best = partial
                chosen = [list(row) for row in split]
                count = 1
                if optima is not None:
                    optima.clear()
                    optima.append([list(row) for row in split])
            else:
                count += 1
                if optima is not None and len(optima) < cap:
                    optima.append([list(row) for row in split])
            limit = best - slack
            return
        distribute(p, 0, counts[p], partial)

    place(0, 0)
    return best, chosen, count, optima
