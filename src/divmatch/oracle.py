"""Exhaustive ground-truth optimum for small instances, and the bounded
exact sub-solver behind it.

Workers of one type are interchangeable, so the objective is a function of
the type-count matrix alone, and the oracle enumerates count matrices.
:func:`best_split` does the enumeration over any set of rows: the oracle
runs it on all rows, the solver's re-split sweep on two or three rows, or
on all that hold workers where at most four do, each subset only when its
flow optimality test does not certify it.
Partial objectives only grow as workers are placed, so branches whose
partial value plus a lower bound on the rest (see :func:`best_split`) is
already above the limit are pruned without affecting exactness, the
optimum returned or the count of optima. The limit is the best value so
far; with no incumbent it starts at the value of a greedy split
(:func:`_greedy_split`, over all rows also the solver's start), which no
optimum exceeds. The last row takes whatever its predecessors leave, so it
is filled in place rather than searched. The oracle searches the types in
descending order of their cost spread over the real teams times their
multiplicity, so that the bound cuts early, and breaks ties by index
order: its matrix and its optima are the first in an index-order search,
whatever order it searched in. :func:`split_count` is the search space.
"""

from __future__ import annotations

import heapq
import math
from collections import defaultdict
from dataclasses import dataclass
from itertools import accumulate

from .instance import Instance

__all__ = ["OracleResult", "BudgetExceededError", "enumerate_optimal",
           "best_split", "split_count", "DEFAULT_BUDGET"]

DEFAULT_BUDGET = 10_000_000
OPTIMA_CAP = 200_000  # most optimal matrices that ``collect_optima`` keeps


class BudgetExceededError(RuntimeError):
    """The instance's search space exceeds the configured oracle budget."""


@dataclass
class OracleResult:
    optimal_objective: int
    matrix: list[list[int]]  # an optimal type-count matrix
    num_optima: int  # distinct optimal type-count matrices
    optima: list | None  # up to OPTIMA_CAP matrices attaining the optimum


def enumerate_optimal(inst: Instance, budget: int = DEFAULT_BUDGET,
                      collect_optima: bool = False) -> OracleResult:
    """Exact minimum of the objective over all feasible assignments. Of the
    optimal matrices, ``matrix`` and ``optima`` are the first in index
    order, as :func:`best_split` orders splits by its ``order``."""
    types = inst.types
    rows = range(inst.t + 1)
    space = split_count(types.multiplicities, len(rows))
    if space > budget:
        raise BudgetExceededError(
            f"{space} candidate matrices exceed the budget of {budget}")
    # Types of widest cost spread over the real teams, times multiplicity,
    # go first: where they go moves the value most, so the bound cuts early.
    spread = [(max(col) - min(col)) * u for col, u in
              zip(zip(*types.costs[1:]), types.multiplicities)]
    cols = sorted(range(types.num_columns), key=lambda j: -spread[j])
    order = sorted(range(types.num_columns), key=cols.__getitem__)
    best, split, count, optima = best_split(
        inst, rows, cols, [types.multiplicities[j] for j in cols],
        [inst.demand(i) for i in rows], collect=collect_optima, order=order)

    def in_index_order(m):
        return [[row[p] for p in order] for row in m]

    w = in_index_order(split)
    if optima is not None:
        optima = [in_index_order(m) for m in optima]
    return OracleResult(best, w, count, optima)


def split_count(counts, num_rows: int) -> int:
    """Number of ways to split ``counts[p]`` workers among ``num_rows`` rows
    for every ``p``, ignoring row totals: the search space of
    :func:`best_split`."""
    return math.prod(math.comb(u + num_rows - 1, num_rows - 1)
                     for u in counts)


def _unit_prices(inst, rows, cols):
    """``(slots, costs)``: per type ``p``, ``(lambda_k, k + nf*v)`` for the
    value ``v`` of each weighted feature ``k`` of ``cols[p]``, the slot of
    its counter in a row's flat counter list; and ``lambda0`` times the cost
    of one type-``p`` worker in team ``rows[r]``, as ``costs[r][p]``. A
    unit's marginal price in a real row is its cost plus ``lambda_k *
    (2x + 1)`` for each slot, at the row's counter ``x``."""
    nf = inst.schema.num_features
    types = inst.types
    slots = [[(lam, k + nf * v) for k, (lam, v) in
              enumerate(zip(inst.weights.lambdas, types.columns[j])) if lam]
             for j in cols]
    costs = [[inst.weights.lambda0 * types.costs[i][j] for j in cols]
             for i in rows]
    return slots, costs


def _greedy_split(rows, slots, costs, counts, totals):
    """A feasible split for :func:`best_split`'s arguments, and its value,
    from the unit prices ``slots`` and ``costs`` of :func:`_unit_prices`.

    Units go one at a time to the (type, real row with room) pair of least
    marginal price at the counters so far, ties to the first type, then to
    the first row; the dummy row, if ``rows`` has one, takes what is left.
    Each row keeps its least ``(price, type)`` over the types with units
    left. A unit changes prices only in the row that takes it, so only that
    row is priced again, and so is every row whose least type runs out: a
    unit costs O(types + rows), and a type that runs out at most one
    pricing per row. Returns ``(value, split)``."""
    # A unit on counter slot f raises the price of every type q on that
    # slot in its row by 2*lambda_k.
    sharers = defaultdict(list)
    for q, row in enumerate(slots):
        for lam, f in row:
            sharers[f].append((q, 2 * lam))
    price = [[cost + sum(lam for lam, _ in slots[p])
              for p, cost in enumerate(row)] for row in costs]
    left = list(counts)
    live = [p for p, units in enumerate(left) if units]
    room = [total if i != 0 else 0 for i, total in zip(rows, totals)]
    split = [[0] * len(counts) for _ in rows]

    def least(r):
        row = price[r]
        return min([(row[p], p) for p in live]) if room[r] else None

    best = [least(r) for r in range(len(rows))]
    value = 0
    for _ in range(sum(room)):
        (cheapest, p), r = min([(b, r) for r, b in enumerate(best) if b])
        value += cheapest
        left[p] -= 1
        room[r] -= 1
        split[r][p] += 1
        for _, f in slots[p]:
            for q, step in sharers[f]:
                price[r][q] += step
        stale = [r]
        if not left[p]:
            live.remove(p)
            stale += [s for s, b in enumerate(best) if b and b[1] == p]
        for s in stale:
            best[s] = least(s)
    if 0 in rows:
        split[rows.index(0)] = left
    return value, split


def best_split(inst, rows, cols, counts, totals, incumbent=None,
               collect=False, order=None):
    """Best way to split ``counts[p]`` workers of type ``cols[p]`` among the
    teams ``rows``, team ``rows[r]`` taking ``totals[r]`` workers in all.

    Returns ``(value, split, count, optima)``: the least value of the rows'
    share of the objective, an optimal split ``split[r][p]``, the number of
    optimal splits and, when ``collect``, up to ``OPTIMA_CAP`` of them.
    Types are placed in the order of ``cols``, each split over ``rows`` in
    order, each row taking 0, 1, ... workers. Ties go by ``order``, a list
    of the positions ``p`` (by default ``0, 1, ...``, the search order): of
    the optimal splits, ``split`` is the first and ``optima`` the first
    ``OPTIMA_CAP`` in the lexicographic order of their types' counts, type
    ``cols[p]`` for each ``p`` in ``order``, each over ``rows`` in order.
    A tying leaf is compared with the kept ones, so no list of every
    optimum is kept. Without an ``incumbent`` every optimal split is
    counted, and the search starts with the value of :func:`_greedy_split`
    as its limit, which every optimal split is at or below. With an
    incumbent, only splits strictly below it are explored, ``split`` is the
    first one in search order, or None when there is none, and ``count`` is
    1 or 0. Needs two or more rows: the last one takes the rest of each
    type, in place.

    A branch is cut once its partial value plus a lower bound on the types
    not yet placed exceeds the limit: the best value so far (one less with
    an incumbent), which never cuts a split that would be returned or
    counted. A unit of type ``p`` in a real row adds at least ``m_p``, its
    least first-unit price over the real rows with a positive total, and
    counters only grow, so later units add no less. The dummy row (team 0)
    adds nothing but takes at most its remaining capacity; at best it
    takes the dearest units. So the types still to place add at least the
    sum of the ``units - capacity`` cheapest of their ``m_p``, or of all of
    them when ``rows`` has no dummy row. Units that the current type still
    puts into the dummy row only make its capacity an overestimate, which
    weakens the bound but keeps it valid.
    """
    nf = inst.schema.num_features
    r_last = len(rows) - 1
    slots, costs = _unit_prices(inst, rows, cols)
    steps = [2 * sum(lam for lam, _ in row) for row in slots]
    real = [i != 0 for i in rows]
    caps = list(totals)
    split = [[0] * len(cols) for _ in rows]
    c = [[0] * nf * (1 + max(map(max, inst.types.columns))) for _ in rows]
    # tails[p][u] is the sum of the u cheapest unit prices m among types
    # p.., of which there are units[p]; dummy is the dummy row's index.
    open_rows = [r for r, total in enumerate(totals) if total > 0 and real[r]]
    tails = [[0]] * (len(cols) + 1)
    units = [0] * (len(cols) + 1)
    prices = []
    for p in range(len(cols) - 1, -1, -1):
        least = min((costs[r][p] + steps[p] // 2 for r in open_rows),
                    default=0)
        prices += [least] * counts[p]
        prices.sort()
        tails[p] = list(accumulate(prices, initial=0))
        units[p] = len(prices)
    dummy = None if all(real) else real.index(False)

    # A branch is cut once its partial value plus the floor of the types
    # still to place exceeds ``limit``: the best value so far, or one less
    # when only strict improvements count.
    if incumbent is None:
        slack = 0
        limit = _greedy_split(rows, slots, costs, counts, totals)[0]
    else:
        slack, limit = 1, incumbent - 1
    best = incumbent
    chosen = chosen_key = None
    count = 0
    # The kept optima, each as (negated key, split): the root of the heap
    # is the one that comes last in ``order``.
    optima = [] if collect else None
    cells = [(r, p) for p in (order or range(len(cols)))
             for r in range(r_last)]

    def distribute(p, ri, left, partial):
        # Row ri takes y type-p workers. Unit y+1 adds lambda0*cost +
        # sum_k lambda_k*(2x+1) at counters x, the first unit's marginal
        # plus y*steps[p], so the partial value is non-decreasing in y (row
        # 0 adds nothing; its counters are kept but never read). When row
        # ri is the last but one, the last row takes the rest in place: its
        # marginal is fixed while y varies.
        u = units[p + 1]
        if dummy is not None:
            u -= caps[dummy]
        floor = tails[p + 1][u if u > 0 else 0]
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
        nonlocal best, chosen, chosen_key, count, limit
        if p == len(cols):
            key = [split[r][q] for r, q in cells]
            if chosen is None or partial < best:
                best, chosen, count = partial, None, 0
                if optima is not None:
                    optima.clear()
            count += 1
            if chosen is None or key < chosen_key:
                chosen, chosen_key = [list(row) for row in split], key
            if optima is not None:
                entry = ([-x for x in key], [list(row) for row in split])
                if len(optima) < OPTIMA_CAP:
                    heapq.heappush(optima, entry)
                else:
                    heapq.heappushpop(optima, entry)
            limit = best - slack
            return
        distribute(p, 0, counts[p], partial)

    place(0, 0)
    if optima is not None:
        optima = [m for _, m in sorted(optima, reverse=True)]
    return best, chosen, count, optima
