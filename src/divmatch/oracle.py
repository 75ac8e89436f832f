"""Exhaustive ground-truth optimum for small instances, and the bounded
exact sub-solver behind it.

Workers of one type are interchangeable, so the objective is a function of
the type-count matrix alone, and the oracle enumerates count matrices.
:func:`best_split` does the enumeration over any set of rows: the oracle
runs it on all rows, the solver's re-split sweep on two or three rows, or
on all that hold workers where at most four do, each subset only when its
flow optimality test does not certify it. A team's share of the objective
depends only on the workers it holds, so the search prices each team's
sub-multisets of the pooled workers and joins the teams by branch-and-bound,
pruning against the best value so far: at first just below an incumbent or
at a greedy split's value (:func:`_greedy_split`, over all rows also the
solver's start), which no optimum exceeds. Ties go by index order, so
pruning changes neither the optimum, the matrix returned nor the count of
optima. :func:`split_count`, the budget's measure, counts far more
candidates than the search visits. A call leaves no reference cycle
behind, so the many small calls of a verify pass or a re-split sweep make
no work for the garbage collector.
"""

from __future__ import annotations

import math
from collections import defaultdict
from dataclasses import dataclass
from heapq import heappush, heappushpop
from itertools import accumulate
from operator import mul

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
    order, as :func:`best_split` orders ties."""
    types = inst.types
    rows = range(inst.t + 1)
    space = split_count(types.multiplicities, len(rows))
    if space > budget:
        raise BudgetExceededError(
            f"{space} candidate matrices exceed the budget of {budget}")
    best, w, count, optima = best_split(
        inst, rows, range(types.num_columns), types.multiplicities,
        [inst.demand(i) for i in rows], collect=collect_optima)
    return OracleResult(best, w, count, optima)


def split_count(counts, num_rows: int) -> int:
    """Number of ways to split ``counts[p]`` workers among ``num_rows`` rows
    for every ``p``, ignoring row totals: the budget's measure of the
    instance, far more candidates than :func:`best_split` visits."""
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
    types, lambda0 = inst.types, inst.weights.lambda0
    weighted = [(k, lam) for k, lam in enumerate(inst.weights.lambdas) if lam]
    slots = [[(lam, k + nf * types.columns[j][k]) for k, lam in weighted]
             for j in cols]
    costs = [[lambda0 * row[j] for j in cols]
             for row in map(types.costs.__getitem__, rows)]
    return slots, costs


def _greedy_split(rows, slots, costs, counts, totals):
    """A feasible split for :func:`best_split`'s arguments, and its value,
    from the unit prices ``slots`` and ``costs`` of :func:`_unit_prices`.

    Units go one at a time to the (type, real row with room) pair of least
    marginal price at the counters so far, ties to the first type, then to
    the first row; the dummy row, if ``rows`` has one, takes what is left.
    Each row with room keeps the index of its cheapest type with units
    left, the first on ties. A unit changes prices only in the row that
    takes it, so only that row is priced again, and so is every other row
    whose cheapest type runs out: a unit costs O(types + rows), and a type
    that runs out at most one pricing per row. Returns ``(value, split)``."""
    # A unit on counter slot f raises the price of every type q on that
    # slot in its row by 2*lambda_k.
    sharers = defaultdict(list)
    for q, row in enumerate(slots):
        for lam, f in row:
            sharers[f].append((q, 2 * lam))
    base = [sum(lam for lam, _ in row) for row in slots]
    price = [[cost + b for cost, b in zip(row, base)] for row in costs]
    left = list(counts)
    live = [p for p, units in enumerate(left) if units]
    room = [total if i != 0 else 0 for i, total in zip(rows, totals)]
    split = [[0] * len(counts) for _ in rows]

    def least(r):
        return min(live, key=price[r].__getitem__) if room[r] else None

    best = [least(r) for r in range(len(rows))]
    value = 0
    for _ in range(sum(room)):
        r = None
        for s, q in enumerate(best):
            if q is not None:
                x = price[s][q]
                if r is None or x < cheapest or x == cheapest and q < p:
                    r, p, cheapest = s, q, x
        value += cheapest
        left[p] -= 1
        room[r] -= 1
        split[r][p] += 1
        row = price[r]
        for _, f in slots[p]:
            for q, step in sharers[f]:
                row[q] += step
        if not left[p]:
            live.remove(p)
            for s, q in enumerate(best):
                if q == p and s != r:
                    best[s] = least(s)
        best[r] = least(r)
    if 0 in rows:
        split[rows.index(0)] = left
    return value, split


def best_split(inst, rows, cols, counts, totals, incumbent=None,
               collect=False):
    """Best way to split ``counts[p]`` workers of type ``cols[p]`` among the
    teams ``rows``, team ``rows[r]`` taking ``totals[r]`` workers in all.

    Returns ``(value, split, count, optima)``: the least value of the rows'
    share of the objective, the first optimal split ``split[r][p]`` in the
    lexicographic order of the counts (type by type, each over ``rows`` but
    the last), the number of optimal splits and, when ``collect``, the
    first ``OPTIMA_CAP`` of them in that order. With an ``incumbent``,
    these describe the optimal splits strictly below it: with none,
    ``value`` is the incumbent, ``split`` None and ``count`` 0.

    A row's candidates are the sub-multisets of ``counts`` of its total. A
    row's value is at least its floor, the sum of its total's cheapest
    first-unit prices (counters only grow), so candidates are kept only up
    to the limit less the other rows' floors; the limit is the best value
    so far, at first one less than the incumbent or, without one, the value
    of :func:`_greedy_split`, which no optimum exceeds. The first row's
    candidates go straight into a branch-and-bound join; each later row
    scans a table of its own in ascending value while the partial value
    plus the later rows' floors stays within the limit, taking the entries
    that fit the workers left (no guard bit above a type's field of the
    packed counts is cleared). The rest row (the dummy row if it takes
    workers, else the last row) takes what is left: a real one is tabled
    and looked up by the counts left, and the dummy row costs nothing.
    Within a row, the last type takes what the others leave, so it is
    priced in place at the counters so far, not by one more recursive
    call. The recursive closures are dropped once done, so no reference
    cycle outlives the call.
    """
    slots, costs = _unit_prices(inst, rows, cols)
    num_slots = inst.schema.num_features * \
        (1 + max(map(max, inst.types.columns)))
    steps = [2 * sum(lam for lam, _ in row) for row in slots]
    # Per type: its counter slots, each with its 2*lambda_k, and per row
    # the price of its first unit at zero counters (0 in the dummy row).
    fs = [[f for _, f in row] for row in slots]
    pairs = [[(2 * lam, f) for lam, f in row] for row in slots]
    first = [[cost + step // 2 for cost, step in zip(row, steps)]
             if i else [0] * len(cols) for i, row in zip(rows, costs)]
    num_rows, num_types = len(rows), len(cols)
    last = num_types - 1
    rest = rows.index(0) if 0 in rows and totals[rows.index(0)] else \
        num_rows - 1
    # Packed counts: type 0's field first, each of ``width`` bits topped by
    # a guard (set in the workers left), then room for a key's other rows.
    width, key_rows = max(counts, default=0).bit_length() + 1, num_rows - 1
    shifts = [(num_types - 1 - p) * key_rows * width for p in range(num_types)]
    units, mask = [1 << s for s in shifts], (1 << width - 1) - 1
    guard = sum(units) << width - 1
    pool = guard + sum(map(mul, counts, units))
    # more[p] counts the units of types p..; p takes what later ones cannot.
    more = list(accumulate(reversed(counts), initial=0))[::-1]

    floors = []  # per row, the sum of its total's cheapest first units
    for row, total in zip(first, totals):
        floor = 0
        for x, u in sorted(zip(row, counts)):
            take = u if u < total else total
            floor, total = floor + take * x, total - take
        floors.append(floor)
    limit = incumbent - 1 if incumbent is not None else \
        _greedy_split(rows, slots, costs, counts, totals)[0]
    spare = limit - sum(floors)

    def entries(r, emit):
        # Emit each sub-multiset of ``counts`` of size ``totals[r]`` valued
        # at most its cap in row r, as (value, packed). Unit y+1 of type p
        # adds its first-unit price plus sum_k 2*lambda_k*x at counters x,
        # so partial plus units left at the least price of p.. grows with y.
        cap, price, c = spare + floors[r], first[r], [0] * num_slots
        least = list(accumulate(
            [x if u else math.inf for x, u in zip(price, counts)][::-1],
            min, initial=math.inf))[::-1]
        last_price, last_step = price[last], steps[last]
        last_pairs, last_unit = pairs[last], units[last]

        def fill(p, left, partial, packed):
            marginal, step, fp = price[p], steps[p], fs[p]
            for step_f, f in pairs[p]:
                marginal += step_f * c[f]
            y = left - more[p + 1] if left > more[p + 1] else 0
            top = left if left < counts[p] else counts[p]
            partial += y * marginal + step * y * (y - 1) // 2
            packed += y * units[p]
            for f in fp:
                c[f] += y
            while y <= top:
                units_left = left - y
                if partial + units_left * least[p] > cap:
                    break
                if not units_left:
                    emit((partial, packed))
                    break
                if p + 1 < last:
                    if partial + units_left * least[p + 1] <= cap:
                        fill(p + 1, units_left, partial, packed)
                else:  # the last type takes the rest, at most its count
                    value = partial + units_left * last_price + \
                        last_step * units_left * (units_left - 1) // 2
                    for step_f, f in last_pairs:
                        value += units_left * step_f * c[f]
                    if value <= cap:
                        emit((value, packed + units_left * last_unit))
                partial += marginal + step * y
                packed += units[p]
                y += 1
                for f in fp:
                    c[f] += 1
            for f in fp:
                c[f] -= y

        fill(0, totals[r], 0, 0)
        del fill  # the closure refers to itself: no cycle outlives the call

    def table(r):
        nonlocal spare
        out = []
        entries(r, out.append)
        out.sort()
        if out:  # the row's least value is a floor too, and no lower
            spare -= out[0][0] - floors[r]
            floors[r] = out[0][0]
        return out

    def unpack(packed):
        return [packed >> s & mask for s in shifts]

    head, *tabled = [r for r in range(num_rows) if r != rest]
    tables = [table(r) for r in tabled]
    rest_values = {packed: value for value, packed in table(rest)} \
        if rows[rest] else None
    best, chosen, chosen_key, count = incumbent, None, None, 0
    # Kept optima as (-key, packs), the root last. A split's key sums its
    # packed rows but the last, row r lifted r fields less than row 0.
    optima = [] if collect else None
    where = list(map([head, *tabled, rest].index, range(num_rows)))
    lifts = [(where[r], (key_rows - 1 - r) * width) for r in range(key_rows)]

    def found(value, left):
        nonlocal best, chosen, chosen_key, count, limit
        packs = picks + [left]
        key = sum(packs[i] << lift for i, lift in lifts)
        if chosen is None or value < best:
            best, chosen, count = value, None, 0
            if optima is not None:
                optima.clear()
        count += 1
        if chosen is None or key < chosen_key:
            chosen, chosen_key = packs, key
        if optima is not None:
            (heappush if len(optima) < OPTIMA_CAP else heappushpop)(
                optima, (-key, packs))
        limit = best

    def join(i, left, partial):
        if i == len(tables):
            left -= guard
            if rest_values is not None:  # a miss is over the rest's cap
                partial += rest_values.get(left, math.inf)
            if partial <= limit:
                found(partial, left)
            return
        tail = after[i + 1]
        for value, packed in tables[i]:
            if partial + value + tail > limit:
                break
            if (left - packed) & guard == guard:
                picks[i + 1] = packed
                join(i + 1, left - packed, partial + value)

    def start(entry):
        value, packed = entry
        if value + after[0] <= limit:
            picks[0] = packed
            join(0, pool - packed, value)

    if all(tables) and rest_values != {}:
        # after[i] is the least value of the rows joined after the i-th.
        after = list(accumulate([floors[r] for r in reversed(tabled)],
                                initial=floors[rest]))[::-1]
        picks = [0] * (len(tables) + 1)
        entries(head, start)
    del join  # as ``fill``: a closure that refers to itself
    if optima is not None:
        optima = [[unpack(m[i]) for i in where]
                  for _, m in sorted(optima, reverse=True)]
    return best, chosen and [unpack(chosen[i]) for i in where], count, optima
