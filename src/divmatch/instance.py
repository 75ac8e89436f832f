"""Problem instances: data model, validation, JSON serialization, generation.

An instance describes workers with categorical feature vectors, teams with
exact demands, an integer assignment-cost table, and the integer trade-off
weights that balance cost against the per-feature concentration penalties.

Conventions used throughout the package:

* feature indices ``k`` and value indices are 0-based,
* team index 0 is the reserved dummy team that holds unassigned workers;
  real teams are 1..t,
* all costs and weights are (non-negative / positive) integers, so every
  objective value and every gain is an exact integer.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from functools import cached_property

__all__ = [
    "InvalidInstanceError",
    "Feature",
    "FeatureSchema",
    "Team",
    "CostModel",
    "TradeoffWeights",
    "Instance",
    "CombinationIndex",
    "parse_instance",
    "load_instance",
    "instance_to_dict",
    "dump_instance",
    "build_combination_index",
    "convert_cost_mode",
    "generate_reviewer_instance",
]


class InvalidInstanceError(ValueError):
    """Raised when an instance document violates the format or an invariant."""


def _check_int(value, what: str) -> int:
    # bool is an int subclass; reject it explicitly.
    if type(value) is not int:
        raise InvalidInstanceError(f"{what} must be an integer, got {value!r}")
    return value


def _check_str(value, what: str) -> str:
    if type(value) is not str:
        raise InvalidInstanceError(f"{what} must be a string, got {value!r}")
    return value


def _check_list(value, what: str) -> list:
    if type(value) is not list:
        raise InvalidInstanceError(f"{what} must be a list, got {value!r}")
    return value


@dataclass(frozen=True)
class Feature:
    name: str
    values: tuple[str, ...]


@dataclass(frozen=True)
class FeatureSchema:
    """Ordered categorical features, each with an ordered value domain."""

    features: tuple[Feature, ...]

    def __post_init__(self):
        if not self.features:
            raise InvalidInstanceError("schema needs at least one feature")
        names = [f.name for f in self.features]
        if len(set(names)) != len(names):
            raise InvalidInstanceError("feature names must be unique")
        for f in self.features:
            if not f.values:
                raise InvalidInstanceError(f"feature {f.name!r} has no values")
            if len(set(f.values)) != len(f.values):
                raise InvalidInstanceError(f"feature {f.name!r} has duplicate values")

    @property
    def num_features(self) -> int:
        return len(self.features)

    def value_count(self, k: int) -> int:
        return len(self.features[k].values)


@dataclass(frozen=True)
class Team:
    name: str
    demand: int

    def __post_init__(self):
        _check_int(self.demand, f"demand of team {self.name!r}")
        if self.demand < 0:
            raise InvalidInstanceError(f"team {self.name!r} has negative demand")


@dataclass(frozen=True)
class CostModel:
    """Assignment costs, either per (team, first-feature value) or per (team, worker).

    ``mode == "class"``: ``table[i][v]`` is the cost of placing any worker whose
    first feature has value ``v`` into real team ``i + 1``.
    ``mode == "worker"``: ``table[i][x]`` is the cost of placing worker ``x``
    into real team ``i + 1``. The dummy team never incurs cost.
    """

    mode: str
    table: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if self.mode not in ("class", "worker"):
            raise InvalidInstanceError(f"unknown cost mode {self.mode!r}")
        for row in self.table:
            for entry in row:
                # the messages are built only for an entry that fails
                if type(entry) is not int or entry < 0:
                    _check_int(entry, "cost entry")
                    raise InvalidInstanceError(f"negative cost {entry}")


@dataclass(frozen=True)
class TradeoffWeights:
    """Integer trade-off weights: ``lambda0`` (positive) scales total
    assignment cost, ``lambdas[k]`` (non-negative; zero switches the feature
    off) scales the concentration penalty of feature ``k``."""

    lambda0: int
    lambdas: tuple[int, ...]

    def __post_init__(self):
        _check_int(self.lambda0, "lambda0")
        if self.lambda0 <= 0:
            raise InvalidInstanceError("lambda0 must be positive")
        for k, lam in enumerate(self.lambdas):
            _check_int(lam, f"lambdas[{k}]")
            if lam < 0:
                raise InvalidInstanceError(f"lambdas[{k}] must be non-negative")


@dataclass(frozen=True)
class Instance:
    schema: FeatureSchema
    workers: tuple[tuple[int, ...], ...]
    teams: tuple[Team, ...]
    costs: CostModel
    weights: TradeoffWeights

    def __post_init__(self):
        nf = self.schema.num_features
        if not self.workers:
            raise InvalidInstanceError("instance needs at least one worker")
        if not self.teams:
            raise InvalidInstanceError("instance needs at least one team")
        sizes = [self.schema.value_count(k) for k in range(nf)]
        for x, fv in enumerate(self.workers):
            if len(fv) != nf:
                raise InvalidInstanceError(
                    f"worker {x} has {len(fv)} feature values, expected {nf}")
            for k, (v, size) in enumerate(zip(fv, sizes)):
                # the messages are built only for a value that fails
                if type(v) is not int or not 0 <= v < size:
                    _check_int(v, f"worker {x} feature {k}")
                    raise InvalidInstanceError(
                        f"worker {x}: value index {v} out of range for feature "
                        f"{self.schema.features[k].name!r}")
        names = [tm.name for tm in self.teams]
        if len(set(names)) != len(names):
            raise InvalidInstanceError("team names must be unique")
        if self.total_demand > self.n:
            raise InvalidInstanceError("infeasible: demand exceeds workers")
        if len(self.weights.lambdas) != nf:
            raise InvalidInstanceError(
                f"expected {nf} lambdas, got {len(self.weights.lambdas)}")
        self._check_cost_dims()

    def _check_cost_dims(self):
        t = self.t
        if len(self.costs.table) != t:
            raise InvalidInstanceError(
                f"cost table has {len(self.costs.table)} rows, expected {t} teams")
        width = (self.schema.value_count(0) if self.costs.mode == "class"
                 else self.n)
        for i, row in enumerate(self.costs.table):
            if len(row) != width:
                raise InvalidInstanceError(
                    f"cost row {i} has {len(row)} entries, expected {width}")

    @property
    def n(self) -> int:
        return len(self.workers)

    @property
    def t(self) -> int:
        return len(self.teams)

    @property
    def total_demand(self) -> int:
        return sum(tm.demand for tm in self.teams)

    def demand(self, i: int) -> int:
        """Demand of team ``i`` in 0..t indexing (0 is the dummy team)."""
        if i == 0:
            return self.n - self.total_demand
        return self.teams[i - 1].demand

    @cached_property
    def types(self) -> CombinationIndex:
        """The instance's worker types, built on first read and kept. Not a
        field: equality, hashing and ``dataclasses.replace`` ignore it."""
        return build_combination_index(self)


@dataclass(frozen=True)
class CombinationIndex:
    """Groups workers into types: a type is a set of workers with the same
    feature vector and the same cost column.

    ``columns[j]`` is the feature vector of type ``j``; types are sorted by
    (feature vector, cost column), so with class costs the types are the
    distinct feature combinations in lexicographic order.
    ``multiplicities[j]`` counts the workers of type ``j``;
    ``worker_to_column[x]`` maps each worker to its type;
    ``costs[i][j]`` is the cost of one type-``j`` worker in team ``i``
    (row 0, the dummy team, is all zeros).
    """

    columns: tuple[tuple[int, ...], ...]
    multiplicities: tuple[int, ...]
    worker_to_column: tuple[int, ...]
    costs: tuple[tuple[int, ...], ...]

    @property
    def num_columns(self) -> int:
        return len(self.columns)


def build_combination_index(inst: Instance) -> CombinationIndex:
    """Group workers into types, in (feature vector, cost column) order so
    that downstream node ids and outputs are deterministic. An instance
    reads its own types as :attr:`Instance.types`, built once."""
    table = inst.costs.table
    by_class = inst.costs.mode == "class"
    keys = [(fv, tuple(row[fv[0] if by_class else x] for row in table))
            for x, fv in enumerate(inst.workers)]
    types = sorted(set(keys))
    type_of = {key: j for j, key in enumerate(types)}
    worker_to_column = tuple(type_of[key] for key in keys)
    mult = [0] * len(types)
    for j in worker_to_column:
        mult[j] += 1
    costs = ((0,) * len(types),) + tuple(zip(*(col for _, col in types)))
    return CombinationIndex(tuple(fv for fv, _ in types), tuple(mult),
                            worker_to_column, costs)


# ---------------------------------------------------------------------------
# JSON format
#
# {"features":[{"name":str,"values":[str,...]},...],
#  "workers":[[int,...],...],                  // value indices per feature
#  "teams":[{"name":str,"demand":int},...],
#  "costs":{"mode":"class"|"worker","u":[[int,...],...]},
#  "lambda0":int,"lambdas":[int,...]}
# ---------------------------------------------------------------------------

def parse_instance(text: str) -> Instance:
    """Parse and validate a JSON instance document. A document nested too
    deep for the parser is malformed too."""
    try:
        doc = json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:
        raise InvalidInstanceError(f"malformed JSON: {exc}") from exc
    return instance_from_dict(doc)


def instance_from_dict(doc: dict) -> Instance:
    if not isinstance(doc, dict):
        raise InvalidInstanceError("instance document must be a JSON object")
    try:
        features = tuple(
            Feature(_check_str(f["name"], "feature name"),
                    tuple(_check_str(v, "feature value")
                          for v in _check_list(f["values"], "feature values")))
            for f in doc["features"])
        schema = FeatureSchema(features)
        workers = tuple(tuple(_check_int(v, "worker value") for v in fv)
                        for fv in doc["workers"])
        teams = tuple(Team(_check_str(tm["name"], "team name"), tm["demand"])
                      for tm in doc["teams"])
        costs = CostModel(doc["costs"]["mode"],
                          tuple(tuple(row) for row in doc["costs"]["u"]))
        weights = TradeoffWeights(doc["lambda0"],
                                  tuple(doc["lambdas"]))
    except (KeyError, TypeError) as exc:
        raise InvalidInstanceError(f"missing or malformed field: {exc}") from exc
    return Instance(schema, workers, teams, costs, weights)


def instance_to_dict(inst: Instance) -> dict:
    return {
        "features": [{"name": f.name, "values": list(f.values)}
                     for f in inst.schema.features],
        "workers": [list(fv) for fv in inst.workers],
        "teams": [{"name": tm.name, "demand": tm.demand} for tm in inst.teams],
        "costs": {"mode": inst.costs.mode,
                  "u": [list(row) for row in inst.costs.table]},
        "lambda0": inst.weights.lambda0,
        "lambdas": list(inst.weights.lambdas),
    }


def dump_instance(inst: Instance) -> str:
    """The instance as JSON, one line per feature, worker, team and cost
    row, each encoded by one C-level call: ``str`` of a list of validated
    ints is its JSON, and ``json.dumps`` escapes the names. (With any
    ``indent``, ``json.dumps`` runs its pure-Python encoder.)"""
    doc = instance_to_dict(inst)
    def rows(lines):
        return "[\n    " + ",\n    ".join(lines) + "\n  ]"
    return (f'{{\n  "features": {rows(map(json.dumps, doc["features"]))},\n'
            f'  "workers": {rows(map(str, doc["workers"]))},\n'
            f'  "teams": {rows(map(json.dumps, doc["teams"]))},\n'
            f'  "costs": {{"mode": {json.dumps(doc["costs"]["mode"])}, '
            f'"u": {rows(map(str, doc["costs"]["u"]))}}},\n'
            f'  "lambda0": {doc["lambda0"]},\n'
            f'  "lambdas": {doc["lambdas"]}\n}}\n')


def load_instance(path: str) -> Instance:
    with open(path, encoding="utf-8") as fh:
        return parse_instance(fh.read())


def convert_cost_mode(inst: Instance, mode: str) -> Instance:
    """Re-express the cost table in the other mode, when possible.

    class -> worker is always possible (each worker inherits the cost of its
    first-feature value). worker -> class requires the per-worker costs to be
    constant within every first-feature value class.
    """
    if mode not in ("class", "worker"):
        raise InvalidInstanceError(f"unknown cost mode {mode!r}")
    if mode == inst.costs.mode:
        return inst
    t, n = inst.t, inst.n
    if mode == "worker":
        table = tuple(
            tuple(inst.costs.table[i][inst.workers[x][0]] for x in range(n))
            for i in range(t))
    else:
        width = inst.schema.value_count(0)
        table_rows = []
        for i in range(t):
            row = [0] * width
            seen = [False] * width
            for x in range(n):
                v = inst.workers[x][0]
                u = inst.costs.table[i][x]
                if seen[v] and row[v] != u:
                    raise InvalidInstanceError(
                        "worker costs are not class-constant; cannot convert "
                        "to class mode")
                row[v], seen[v] = u, True
            table_rows.append(tuple(row))
        table = tuple(table_rows)
    return Instance(inst.schema, inst.workers, inst.teams,
                    CostModel(mode, table), inst.weights)


# ---------------------------------------------------------------------------
# Synthetic reviewer-style generator
# ---------------------------------------------------------------------------

RELEVANCE_COST_RANGE = (0, 9)  # inclusive integer range for (paper, cluster) costs


def generate_reviewer_instance(
    papers: int,
    reviewers_per_cluster: list[int] | tuple[int, ...],
    genders: str = "balanced",
    demand_per_paper: int = 4,
    seed: int = 0,
) -> Instance:
    """Build a reviewer-assignment-style instance.

    Teams are papers, feature 0 is the reviewer's expertise cluster, feature 1
    is a binary gender label. Class costs model cluster-to-paper relevance and
    are drawn uniformly from ``RELEVANCE_COST_RANGE``. ``genders`` is either
    ``"balanced"`` (an exactly even split, shuffled across reviewers) or
    ``"random"`` (an independent fair coin per reviewer). Output is fully
    determined by the arguments and the seed.
    """
    if papers <= 0 or demand_per_paper <= 0:
        raise InvalidInstanceError("papers and demand_per_paper must be positive")
    if not reviewers_per_cluster or any(m <= 0 for m in reviewers_per_cluster):
        raise InvalidInstanceError("cluster sizes must be positive")
    if genders not in ("balanced", "random"):
        raise InvalidInstanceError(f"unknown gender option {genders!r}")
    n = sum(reviewers_per_cluster)
    if papers * demand_per_paper > n:
        raise InvalidInstanceError(
            f"infeasible: demand exceeds workers "
            f"({papers * demand_per_paper} > {n})")

    rng = random.Random(seed)
    num_clusters = len(reviewers_per_cluster)
    if genders == "balanced":
        labels = [0, 1] * (n // 2) + [0] * (n % 2)
        rng.shuffle(labels)
    else:
        labels = [rng.randrange(2) for _ in range(n)]

    workers = []
    x = 0
    for c, m in enumerate(reviewers_per_cluster):
        for _ in range(m):
            workers.append((c, labels[x]))
            x += 1

    lo, hi = RELEVANCE_COST_RANGE
    table = tuple(tuple(rng.randint(lo, hi) for _ in range(num_clusters))
                  for _ in range(papers))

    schema = FeatureSchema((
        Feature("cluster", tuple(f"cluster{c + 1}" for c in range(num_clusters))),
        Feature("gender", ("M", "F")),
    ))
    teams = tuple(Team(f"paper{i + 1}", demand_per_paper) for i in range(papers))
    return Instance(schema, tuple(workers), teams,
                    CostModel("class", table),
                    TradeoffWeights(1, (1, 1)))
