"""Exact objective evaluation: cost plus squared-concentration penalties.

The objective of an assignment is

    lambda0 * TU + sum_k lambdas[k] * D_k

where TU is the summed assignment cost over real teams and D_k is the sum,
over real teams and values of feature k, of the squared member counts (a
Herfindahl-style concentration measure; lower means more diverse teams).
The dummy team contributes zero to both parts. Everything here is pure
integer arithmetic on immutable inputs.

An assignment is a matrix ``w`` of t+1 rows (row 0 = dummy team) whose
column j counts the workers of the instance's type j, ``inst.types`` (a
:class:`~divmatch.instance.CombinationIndex`), held by each team. Workers
of one type are interchangeable, so the objective is a function of the
matrix alone; :func:`assignment_from_matrix` gives a worker -> team map
realizing it.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import mul

from .instance import Instance

__all__ = [
    "ObjectiveBreakdown",
    "check_assignment_matrix",
    "count_tensor",
    "diversity_k",
    "total_utility",
    "objective",
    "breakdown_of",
    "embed",
    "exchange_gain",
    "assignment_from_matrix",
    "matrix_from_assignment",
]

Matrix = list[list[int]]
WorkerAssignment = list[int]


@dataclass(frozen=True)
class ObjectiveBreakdown:
    tu: int
    diversity: tuple[int, ...]  # one D_k per feature
    objective: int


def check_assignment_matrix(inst: Instance, w: Matrix) -> None:
    """Validate an assignment matrix's shape, signs and row/column sums."""
    width = inst.types.num_columns
    if len(w) != inst.t + 1:
        raise ValueError(f"matrix has {len(w)} rows, expected {inst.t + 1}")
    for i, row in enumerate(w):
        if len(row) != width:
            raise ValueError(f"row {i} has {len(row)} columns, "
                             f"expected {width}")
        if min(row, default=0) < 0:
            raise ValueError(f"negative entry in row {i}")
        total, demand = sum(row), inst.demand(i)
        if total != demand:
            raise ValueError(f"row {i} sums to {total}, expected {demand}")
    for j, (col, m) in enumerate(zip(map(sum, zip(*w)),
                                     inst.types.multiplicities)):
        if col != m:
            raise ValueError(f"column {j} sums to {col}, expected {m}")


def count_tensor(inst: Instance, w: Matrix):
    """Per-team, per-feature value counts ``c[i][k][v]`` for teams 0..t.

    Row 0 tracks the dummy team for bookkeeping; diversity and utility skip it.
    """
    schema, columns = inst.schema, inst.types.columns
    sizes = [schema.value_count(k) for k in range(schema.num_features)]
    c = []
    for row in w:
        counts = [[0] * size for size in sizes]
        for x, combo in zip(row, columns):
            if x:
                for k, v in enumerate(combo):
                    counts[k][v] += x
        c.append(counts)
    return c


def diversity_k(c, k: int) -> int:
    """Sum of squared value counts of feature ``k`` over real teams."""
    if not 0 <= k < len(c[0]):
        raise IndexError(f"feature index {k} out of range")
    return sum(x * x for row in c[1:] for x in row[k])


def total_utility(inst: Instance, w: Matrix) -> int:
    """Summed assignment cost over real teams; the dummy team is free."""
    check_assignment_matrix(inst, w)
    return _cost_of(inst, w)


def _cost_of(inst: Instance, w: Matrix) -> int:
    return sum(sum(map(mul, costs, row))
               for costs, row in zip(inst.types.costs, w))


def objective(inst: Instance, w: Matrix) -> ObjectiveBreakdown:
    """Evaluate a valid assignment matrix."""
    check_assignment_matrix(inst, w)
    return breakdown_of(inst, w, count_tensor(inst, w))


def breakdown_of(inst: Instance, w: Matrix, c) -> ObjectiveBreakdown:
    """Evaluate an assignment matrix already checked, with its count
    tensor ``c``."""
    tu = _cost_of(inst, w)
    div = tuple(diversity_k(c, k) for k in range(inst.schema.num_features))
    lam = inst.weights
    f = lam.lambda0 * tu + sum(map(mul, lam.lambdas, div))
    return ObjectiveBreakdown(tu, div, f)


def embed(inst: Instance, w: Matrix, k: int) -> Matrix:
    """Project the assignment matrix onto feature ``k``: columns sharing the
    same value of feature ``k`` are merged. Rows cover teams 0..t; row i is
    the count tensor's ``c[i][k]``."""
    if not 0 <= k < inst.schema.num_features:
        raise IndexError(f"feature index {k} out of range")
    return [c[k] for c in count_tensor(inst, w)]


def exchange_gain(inst: Instance, w_before, w_after) -> int:
    """Objective difference caused by a local exchange (after minus before).

    Negative means the exchange is beneficial. Both assignments must be valid
    for the instance, which forces identical row and column sums.
    """
    before = objective(inst, w_before)
    after = objective(inst, w_after)
    return after.objective - before.objective


def assignment_from_matrix(inst: Instance, w: Matrix) -> list[int]:
    """Deterministic worker -> team map realizing a count matrix: within each
    type, workers in index order fill teams 0..t in row order."""
    types = inst.types
    members: list[list[int]] = [[] for _ in range(types.num_columns)]
    for x, j in enumerate(types.worker_to_column):
        members[j].append(x)
    assign = [0] * inst.n
    for j, pool in enumerate(members):
        pos = 0
        for i in range(inst.t + 1):
            for _ in range(w[i][j]):
                assign[pool[pos]] = i
                pos += 1
    return assign


def matrix_from_assignment(inst: Instance, assign: WorkerAssignment) -> Matrix:
    """Count matrix over type columns induced by a worker -> team map."""
    types = inst.types
    w = [[0] * types.num_columns for _ in range(inst.t + 1)]
    for x, i in enumerate(assign):
        w[i][types.worker_to_column[x]] += 1
    return w
