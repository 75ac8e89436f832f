"""Exact objective evaluation: cost plus squared-concentration penalties.

The objective of an assignment is

    lambda0 * TU + sum_k lambdas[k] * D_k

where TU is the summed assignment cost over real teams and D_k is the sum,
over real teams and values of feature k, of the squared member counts (a
Herfindahl-style concentration measure; lower means more diverse teams).
The dummy team contributes zero to both parts. Everything here is pure
integer arithmetic on immutable inputs.

An assignment is a matrix ``w`` of t+1 rows (row 0 = dummy team) whose
column j counts the workers of type j held by each team (see
:class:`~divmatch.instance.CombinationIndex`). Workers of one type are
interchangeable, so the objective is a function of the matrix alone;
:func:`assignment_from_matrix` gives a worker -> team map realizing it.
"""

from __future__ import annotations

from dataclasses import dataclass

from .instance import CombinationIndex, Instance, build_combination_index

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


def check_assignment_matrix(inst: Instance, w: Matrix,
                            index: CombinationIndex | None = None) -> CombinationIndex:
    """Validate row/column sums of an assignment matrix."""
    if index is None:
        index = build_combination_index(inst)
    if len(w) != inst.t + 1:
        raise ValueError(f"matrix has {len(w)} rows, expected {inst.t + 1}")
    for i, row in enumerate(w):
        if len(row) != index.num_columns:
            raise ValueError(f"row {i} has {len(row)} columns, "
                             f"expected {index.num_columns}")
        if any(x < 0 for x in row):
            raise ValueError(f"negative entry in row {i}")
        if sum(row) != inst.demand(i):
            raise ValueError(f"row {i} sums to {sum(row)}, "
                             f"expected {inst.demand(i)}")
    for j in range(index.num_columns):
        col = sum(w[i][j] for i in range(inst.t + 1))
        if col != index.multiplicities[j]:
            raise ValueError(f"column {j} sums to {col}, "
                             f"expected {index.multiplicities[j]}")
    return index


def count_tensor(inst: Instance, w: Matrix,
                 index: CombinationIndex | None = None):
    """Per-team, per-feature value counts ``c[i][k][v]`` for teams 0..t.

    Row 0 tracks the dummy team for bookkeeping; diversity and utility skip it.
    """
    if index is None:
        index = build_combination_index(inst)
    nf = inst.schema.num_features
    c = [[[0] * inst.schema.value_count(k) for k in range(nf)]
         for _ in range(inst.t + 1)]
    for i in range(inst.t + 1):
        for j, combo in enumerate(index.columns):
            cnt = w[i][j]
            if cnt:
                for k, v in enumerate(combo):
                    c[i][k][v] += cnt
    return c


def diversity_k(c, k: int) -> int:
    """Sum of squared value counts of feature ``k`` over real teams."""
    if not 0 <= k < len(c[0]):
        raise IndexError(f"feature index {k} out of range")
    return sum(x * x for row in c[1:] for x in row[k])


def total_utility(inst: Instance, w: Matrix,
                  index: CombinationIndex | None = None) -> int:
    """Summed assignment cost over real teams; the dummy team is free."""
    index = check_assignment_matrix(inst, w, index)
    return _cost_of(index, w)


def _cost_of(index: CombinationIndex, w: Matrix) -> int:
    return sum(u * x for costs, row in zip(index.costs, w)
               for u, x in zip(costs, row))


def objective(inst: Instance, w: Matrix,
              index: CombinationIndex | None = None) -> ObjectiveBreakdown:
    """Evaluate a valid assignment matrix."""
    index = check_assignment_matrix(inst, w, index)
    return breakdown_of(inst, w, count_tensor(inst, w, index), index)


def breakdown_of(inst: Instance, w: Matrix, c,
                 index: CombinationIndex) -> ObjectiveBreakdown:
    """Evaluate an assignment matrix already checked, with its count
    tensor ``c``."""
    tu = _cost_of(index, w)
    div = tuple(diversity_k(c, k) for k in range(inst.schema.num_features))
    lam = inst.weights
    f = lam.lambda0 * tu + sum(l * d for l, d in zip(lam.lambdas, div))
    return ObjectiveBreakdown(tu, div, f)


def embed(inst: Instance, w: Matrix, k: int,
          index: CombinationIndex | None = None) -> Matrix:
    """Project the assignment matrix onto feature ``k``: columns sharing the
    same value of feature ``k`` are merged. Rows cover teams 0..t; row i is
    the count tensor's ``c[i][k]``."""
    if not 0 <= k < inst.schema.num_features:
        raise IndexError(f"feature index {k} out of range")
    return [c[k] for c in count_tensor(inst, w, index)]


def exchange_gain(inst: Instance, w_before, w_after,
                  index: CombinationIndex | None = None) -> int:
    """Objective difference caused by a local exchange (after minus before).

    Negative means the exchange is beneficial. Both assignments must be valid
    for the instance, which forces identical row and column sums.
    """
    before = objective(inst, w_before, index)
    after = objective(inst, w_after, index)
    return after.objective - before.objective


def assignment_from_matrix(inst: Instance, w: Matrix,
                           index: CombinationIndex | None = None) -> list[int]:
    """Deterministic worker -> team map realizing a count matrix: within each
    type, workers in index order fill teams 0..t in row order."""
    if index is None:
        index = build_combination_index(inst)
    members: list[list[int]] = [[] for _ in range(index.num_columns)]
    for x, j in enumerate(index.worker_to_column):
        members[j].append(x)
    assign = [0] * inst.n
    for j, pool in enumerate(members):
        pos = 0
        for i in range(inst.t + 1):
            for _ in range(w[i][j]):
                assign[pool[pos]] = i
                pos += 1
    return assign


def matrix_from_assignment(inst: Instance, assign: WorkerAssignment,
                           index: CombinationIndex | None = None) -> Matrix:
    """Count matrix over type columns induced by a worker -> team map."""
    if index is None:
        index = build_combination_index(inst)
    w = [[0] * index.num_columns for _ in range(inst.t + 1)]
    for x, i in enumerate(assign):
        w[i][index.worker_to_column[x]] += 1
    return w
